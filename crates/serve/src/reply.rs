//! One-shot reply cell between a worker node and the request it serves.
//!
//! The worker fills the cell once ([`ReplySender::send`]); a worker that
//! dies mid-request drops its sender unsent, which marks the cell
//! disconnected. Either way the cell completes, wakes blocked
//! [`ReplyCell::wait`] callers and fires the waker a front end registered
//! with [`ReplyCell::on_complete`], so a connection parked on an
//! inference is re-dispatched the moment its reply exists instead of
//! being found by a periodic scan.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::gateway::InferenceResult;

/// Callback run once when a cell completes.
pub(crate) type Waker = Box<dyn FnOnce() + Send>;

enum Slot {
    /// The worker has not replied yet.
    Empty,
    Filled(InferenceResult),
    /// No reply will come: the sender was dropped unsent, or the reply
    /// was already taken.
    Closed,
}

struct State {
    slot: Slot,
    waker: Option<Waker>,
}

struct Inner {
    state: Mutex<State>,
    done: Condvar,
}

impl Inner {
    /// Every update of `State` is a single assignment, so a guard
    /// poisoned by an unrelated panic still holds valid data. Recovering
    /// it keeps `ReplySender`'s `Drop` — which runs as a dying worker
    /// unwinds — from panicking in turn.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Complete the cell with `slot`, wake waiters, then fire the waker
    /// outside the lock (it may hand the request to a thread that reads
    /// this cell).
    fn complete(&self, slot: Slot) {
        let waker = {
            let mut state = self.lock();
            state.slot = slot;
            state.waker.take()
        };
        self.done.notify_all();
        if let Some(wake) = waker {
            wake();
        }
    }
}

/// The worker's end: reply once, or drop to report the worker's death.
pub(crate) struct ReplySender {
    inner: Option<Arc<Inner>>,
}

/// The requester's end. Cloning shares the same cell.
#[derive(Clone)]
pub(crate) struct ReplyCell {
    inner: Arc<Inner>,
}

/// A non-blocking look at a [`ReplyCell`].
pub(crate) enum Reply {
    Ready(InferenceResult),
    Pending,
    /// The sender was dropped without replying.
    Disconnected,
}

/// A fresh, empty cell and the sender that completes it.
pub(crate) fn reply_cell() -> (ReplySender, ReplyCell) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            slot: Slot::Empty,
            waker: None,
        }),
        done: Condvar::new(),
    });
    (
        ReplySender {
            inner: Some(inner.clone()),
        },
        ReplyCell { inner },
    )
}

impl ReplySender {
    /// Deliver the reply. The requester may have given up; that is fine.
    pub(crate) fn send(mut self, result: InferenceResult) {
        if let Some(inner) = self.inner.take() {
            inner.complete(Slot::Filled(result));
        }
    }
}

impl Drop for ReplySender {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            inner.complete(Slot::Closed);
        }
    }
}

impl ReplyCell {
    /// Take the reply if it has arrived, without blocking.
    pub(crate) fn try_take(&self) -> Reply {
        let mut state = self.inner.lock();
        match std::mem::replace(&mut state.slot, Slot::Closed) {
            Slot::Filled(result) => Reply::Ready(result),
            Slot::Empty => {
                state.slot = Slot::Empty;
                Reply::Pending
            }
            Slot::Closed => Reply::Disconnected,
        }
    }

    /// Block until the cell completes: the reply, or `None` when the
    /// sender was dropped without replying.
    pub(crate) fn wait(&self) -> Option<InferenceResult> {
        let state = self.inner.lock();
        let mut state = self
            .inner
            .done
            .wait_while(state, |s| matches!(s.slot, Slot::Empty))
            .unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut state.slot, Slot::Closed) {
            Slot::Filled(result) => Some(result),
            _ => None,
        }
    }

    /// Run `wake` once the cell completes — immediately, on this thread,
    /// if it already has. One waker per cell; a later registration
    /// replaces an earlier one that has not fired.
    pub(crate) fn on_complete(&self, wake: Waker) {
        let mut state = self.inner.lock();
        if matches!(state.slot, Slot::Empty) {
            state.waker = Some(wake);
            return;
        }
        drop(state);
        wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ServeError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A waker that counts its firings.
    fn counting() -> (Arc<AtomicUsize>, Waker) {
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        (
            fired,
            Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
            }),
        )
    }

    #[test]
    fn a_sent_reply_fires_the_waker_once() {
        let (tx, cell) = reply_cell();
        let (fired, wake) = counting();
        cell.on_complete(wake);
        assert!(matches!(cell.try_take(), Reply::Pending));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        tx.send(Err(ServeError::Shutdown));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(matches!(
            cell.try_take(),
            Reply::Ready(Err(ServeError::Shutdown))
        ));
    }

    #[test]
    fn a_dropped_sender_disconnects_and_fires_the_waker_once() {
        let (tx, cell) = reply_cell();
        let (fired, wake) = counting();
        cell.on_complete(wake);
        drop(tx);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(matches!(cell.try_take(), Reply::Disconnected));
        assert!(cell.wait().is_none());
    }

    #[test]
    fn a_waker_registered_after_completion_fires_immediately() {
        for sent in [true, false] {
            let (tx, cell) = reply_cell();
            if sent {
                tx.send(Err(ServeError::Shutdown));
            } else {
                drop(tx);
            }
            let (fired, wake) = counting();
            cell.on_complete(wake);
            assert_eq!(fired.load(Ordering::SeqCst), 1, "sent = {sent}");
        }
    }

    #[test]
    fn wait_blocks_until_another_thread_replies() {
        let (tx, cell) = reply_cell();
        let worker = std::thread::spawn(move || tx.send(Err(ServeError::Shutdown)));
        assert!(matches!(cell.wait(), Some(Err(ServeError::Shutdown))));
        worker.join().unwrap();
    }
}
