//! `poll(2)`: the readiness wait behind the pooled HTTP front end.
//!
//! The standard library has no readiness API and the workspace builds
//! without the `libc` crate, so the one system call the front end needs
//! is declared here. This is the only module of the crate that may use
//! `unsafe` (the crate root denies it everywhere else).

use std::ffi::c_int;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Data to read (or, on a listener, a connection to accept).
const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`: `{ int fd; short events; short revents; }`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for readability.
    pub(crate) fn readable(fd: &impl AsRawFd) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }
    }

    /// A slot `poll` skips (a negative fd), so an array can stay
    /// index-aligned with its owner's connection list.
    pub(crate) fn ignored() -> PollFd {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported this fd readable, hung up or in
    /// error: each means its owner has something to act on.
    pub(crate) fn ready(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until an fd in `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). Returns how many fds are ready: 0 after a
/// timeout or a signal interruption.
///
/// # Errors
///
/// The `poll(2)` error other than `EINTR`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        // Round up: waking before the deadline would only spin.
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` values and `fds.len()` is its exact length, so the
    // kernel reads and writes only inside it. `poll` keeps no pointer
    // past its return.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_and_times_out() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(&rx), PollFd::ignored()];
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(1))).unwrap(), 0);
        assert!(!fds[0].ready());
        tx.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
        assert!(!fds[1].ready(), "a skipped slot never reports");
    }
}
