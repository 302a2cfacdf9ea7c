//! Worker node: a thread owning live containers.
//!
//! Work arrives on two channels. The *inference* channel is bounded
//! ([`crate::ServingConfig::queue_depth`]) — the gateway's admission
//! control rejects with a `429` instead of growing it — and is drained
//! work-conservingly: the worker blocks for one request, takes whatever
//! else is already queued (up to `max_batch`) without waiting for more,
//! and serves it at once, grouped by model. Every request calls
//! [`ContainerPool::acquire`] (the shared lifecycle policy: warm match,
//! donor choice, transformation or scratch load, store accounting) and
//! runs its own forward pass, so responses are byte-identical whether or
//! not they were grouped. Requests that arrive while a group's first
//! request cold-starts or transforms queue behind it and, as the next
//! batch, warm-hit the container it produced. The *control*
//! channel (crashes, kills, warm transfers) is unbounded and checked
//! before every batch so fleet events are never dropped or stuck behind
//! queued inference work.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};
use optimus_core::scheduler::{expire, lru, ContainerView, Lifecycle, Start};
use optimus_core::{execute_plan, plan_chunks, ModelRepository};
use optimus_model::tensor::Tensor;
use optimus_model::{infer, InternKey, ModelGraph, ModelId};
use optimus_predict::SpecCandidate;
use optimus_store::{
    dedup_chunks, model_chunks, ChunkRef, NodeStore, StoreConfig, StoreStats, Tier,
};
use optimus_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, Phase, Span, TelemetrySink};
use parking_lot::Mutex;

use crate::api::{GatewayConfig, InferenceResponse, ServeError, ServedStart};
use crate::predict::PredictShared;
use crate::reply::ReplySender;

/// An inference request as delivered to a worker. Models are addressed by
/// their interned [`ModelId`] — the gateway resolves the client-facing
/// name exactly once; the worker's warm/donor matching is integer
/// comparison, not string comparison.
pub(crate) struct InferItem {
    pub model_id: ModelId,
    pub input: Tensor,
    /// When the gateway accepted the request (queue-wait measurement).
    pub enqueued: Instant,
    /// Injected transform failure (`optimus-faults`): the first attempted
    /// in-place transformation for this request aborts and the safeguard
    /// escalates to a cold start.
    pub fail_transform: bool,
    /// Completed with the outcome; dropping it unsent tells the
    /// requester this node died mid-request.
    pub reply: ReplySender,
}

/// A fleet/fault event for a worker thread, delivered on the unbounded
/// control channel so it can never be rejected by admission control.
pub(crate) enum ControlItem {
    /// Node crash: all live containers die and the weight store loses its
    /// volatile tiers ([`NodeStore::crash`]); durable disk state survives.
    Crash,
    /// Kill the least-recently-used container (OOM-killer analogue).
    Kill,
    /// Fleet scale-out shipped these chunks to the joining node ahead of
    /// traffic: place them at node memory ([`NodeStore::warm`]) so its
    /// first requests hit locally instead of fetching from the origin.
    Warm(Vec<ChunkRef>),
}

/// Per-model chunk lists, deterministic per registered model: chunked
/// and deduplicated once, keyed by interned id, and lent out by
/// reference.
struct ChunkLists {
    chunk_bytes: u64,
    lists: HashMap<ModelId, Vec<ChunkRef>>,
}

impl ChunkLists {
    fn of(&mut self, repo: &ModelRepository, id: ModelId) -> &[ChunkRef] {
        let chunk_bytes = self.chunk_bytes;
        self.lists.entry(id).or_insert_with(|| {
            repo.model_name_of(id)
                .and_then(|name| repo.model(&name))
                .map(|m| dedup_chunks(model_chunks(&m, chunk_bytes)))
                .unwrap_or_default()
        })
    }
}

/// Per-node weight-store accounting plus its telemetry handles.
///
/// The live engine measures real wall-clock, so the store never injects
/// latency here; it tracks which chunks each container lifecycle event
/// would move between tiers and exports residency/dedup metrics.
pub(crate) struct WorkerStore {
    node_id: usize,
    store: NodeStore,
    chunks: ChunkLists,
    /// Resident-byte gauges for the three local tiers, warmest first:
    /// container, node memory, node disk.
    resident: [Gauge; 3],
    dedup: Gauge,
    hits: Counter,
    misses: Counter,
    reported_hits: u64,
    reported_misses: u64,
    shared: Arc<Mutex<HashMap<usize, StoreStats>>>,
}

impl WorkerStore {
    fn new(
        node_id: usize,
        config: StoreConfig,
        repo: &ModelRepository,
        metrics: &MetricsRegistry,
        shared: Arc<Mutex<HashMap<usize, StoreStats>>>,
    ) -> WorkerStore {
        let mut store = NodeStore::new(config);
        // Pin every cached plan's payload so LRU pressure cannot evict
        // the transformation working set (§4.4's cached plans stay hot).
        store.pin(&repo.plan_referenced_chunks(config.chunk_bytes));
        let node = node_id.to_string();
        let resident = [Tier::Container, Tier::NodeMemory, Tier::NodeDisk].map(|tier| {
            metrics.gauge(
                "optimus_store_resident_bytes",
                &[("node", &node), ("tier", tier.name())],
            )
        });
        WorkerStore {
            node_id,
            store,
            chunks: ChunkLists {
                chunk_bytes: config.chunk_bytes,
                lists: HashMap::new(),
            },
            resident,
            dedup: metrics.gauge("optimus_store_dedup_ratio", &[("node", &node)]),
            hits: metrics.counter("optimus_store_chunk_hits_total", &[("node", &node)]),
            misses: metrics.counter("optimus_store_chunk_misses_total", &[("node", &node)]),
            reported_hits: 0,
            reported_misses: 0,
            shared,
        }
    }

    /// A cold start admits the full model.
    fn admit_model(&mut self, repo: &ModelRepository, id: ModelId) {
        self.store.admit(self.chunks.of(repo, id));
    }

    /// A transformation fetches only the cached plan's payload delta; the
    /// rest of the destination is synthesized in place from the donor.
    fn transform(&mut self, repo: &ModelRepository, src: ModelId, dst: ModelId) {
        let chunk_bytes = self.chunks.chunk_bytes;
        let dst_chunks = self.chunks.of(repo, dst);
        match repo.plan_by_id(src, dst) {
            Some(plan) => {
                let pc = plan_chunks(&plan, dst_chunks, chunk_bytes);
                self.store.admit(&pc.fetched);
                self.store.produce(&pc.reused);
            }
            // No cached plan (shouldn't happen when a plan was just
            // applied): account a full admission.
            None => {
                self.store.admit(dst_chunks);
            }
        }
        self.store.release(self.chunks.of(repo, src));
    }

    /// Container eviction demotes its chunks instead of forgetting them.
    fn release_model(&mut self, repo: &ModelRepository, id: ModelId) {
        self.store.release(self.chunks.of(repo, id));
    }

    /// Node crash: volatile tiers are lost wholesale (refcounts zeroed,
    /// container/memory-resident chunks forgotten, pinned chunks demoted
    /// to remote placeholders); disk state survives the reboot.
    fn crash(&mut self) {
        self.store.crash();
    }

    /// A scale-out shipped `chunks` to this node: place them at node
    /// memory without touching hit/miss accounting (the transfer is
    /// proactive fleet traffic, not a request-driven fetch).
    fn warm(&mut self, chunks: &[ChunkRef]) {
        self.store.warm(chunks);
    }

    /// Push current stats into the metrics registry and the shared
    /// per-node snapshot map read by `Gateway::store_stats`.
    fn publish(&mut self) {
        let stats = self.store.stats();
        self.resident[0].set(stats.container_bytes as f64);
        self.resident[1].set(stats.memory_bytes as f64);
        self.resident[2].set(stats.disk_bytes as f64);
        self.dedup.set(stats.dedup_ratio);
        self.hits.add(stats.hits - self.reported_hits);
        self.misses.add(stats.misses - self.reported_misses);
        self.reported_hits = stats.hits;
        self.reported_misses = stats.misses;
        self.shared.lock().insert(self.node_id, stats);
    }
}

/// Counters a worker bumps when the resilience machinery engages.
struct FaultCounters {
    /// Transformations that failed (injected or real) and escalated to a
    /// scratch load instead of surfacing an error to the client.
    escalations: Counter,
    /// Transform executions that blew their cost-model budget
    /// ([`ModelRepository::note_transform_seconds`] demoted the pair).
    overruns: Counter,
    /// Containers destroyed by injected crash/kill events.
    evictions: Counter,
}

/// How a container was obtained for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Acquired {
    /// Index of the container in the pool.
    pub slot: usize,
    /// Warm, transformed, or loaded from scratch (`Cold`, which includes
    /// a donor reloaded by the safeguard).
    pub start: ServedStart,
    /// The model the retargeted donor held, when one was used.
    pub donor: Option<ModelId>,
    /// Wall-clock spent transforming or instantiating (0 for warm).
    pub startup_seconds: f64,
    /// Meta-operator steps executed (0 unless transformed).
    pub transform_steps: usize,
    /// `Some(true)` when a cached plan was applied, `Some(false)` when a
    /// donor was reloaded from scratch instead, `None` when no donor was
    /// used (warm hit or a new container).
    pub plan_cache_hit: Option<bool>,
}

/// The live containers of one worker node, driven by the shared
/// container-lifecycle policy (`optimus_core::scheduler`): each container
/// is a [`ContainerView`] keyed by interned model id plus the real model
/// graph it holds. Every decision takes `now` in seconds on the caller's
/// clock — the worker passes seconds since it started.
pub struct ContainerPool {
    lifecycle: Lifecycle,
    keep_alive: f64,
    repo: Arc<ModelRepository>,
    views: Vec<ContainerView<ModelId>>,
    /// Model graph per container id.
    graphs: HashMap<u64, ModelGraph>,
    next_id: u64,
    counters: FaultCounters,
    store: Option<WorkerStore>,
    /// Arrival predictor shared with the gateway (`None`: prediction
    /// off): adaptive keep-alive windows + speculation outcome counters.
    predict: Option<Arc<PredictShared>>,
}

impl ContainerPool {
    /// An empty pool for node `node_id` under `config`'s capacity, idle
    /// threshold and keep-alive, counting resilience events into
    /// `metrics`. The pool runs without a weight store or predictor.
    pub fn new(
        node_id: usize,
        config: &GatewayConfig,
        repo: Arc<ModelRepository>,
        metrics: &MetricsRegistry,
    ) -> ContainerPool {
        let node = node_id.to_string();
        ContainerPool {
            lifecycle: Lifecycle {
                capacity: config.capacity_per_node,
                node_bytes: None,
                idle_threshold: config.idle_threshold,
            },
            keep_alive: config.keep_alive,
            repo,
            views: Vec::new(),
            graphs: HashMap::new(),
            next_id: 0,
            counters: FaultCounters {
                escalations: metrics
                    .counter("optimus_safeguard_escalations_total", &[("node", &node)]),
                overruns: metrics.counter("optimus_transform_overruns_total", &[("node", &node)]),
                evictions: metrics.counter("optimus_fault_evictions_total", &[("node", &node)]),
            },
            store: None,
            predict: None,
        }
    }

    /// Number of live containers.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the pool holds no container.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Get a container holding `model` at `now`: expire containers past
    /// their keep-alive, then take a warm one, else apply the lifecycle
    /// policy's start — transform the cheapest donor, reload a donor from
    /// scratch, or load into a new container.
    ///
    /// Safeguard under failure: when a transformation aborts — injected
    /// via `fail_transform` or a real [`execute_plan`] error — the donor
    /// is reloaded from scratch and the start reports `Cold` instead of
    /// erroring back to the client.
    pub fn acquire(
        &mut self,
        model: ModelId,
        now: f64,
        fail_transform: bool,
    ) -> Result<Acquired, ServeError> {
        self.sweep(now);
        if let Some(slot) = Lifecycle::warm(&self.views, model, now) {
            // A speculated container serving its first request is a
            // prediction hit: the cold start speculation avoided.
            let c = &mut self.views[slot];
            if c.speculated {
                c.speculated = false;
                if let Some(ps) = &self.predict {
                    ps.spec_hits.inc();
                }
            }
            c.route(now, now);
            return Ok(Acquired {
                slot,
                start: ServedStart::Warm,
                donor: None,
                startup_seconds: 0.0,
                transform_steps: 0,
                plan_cache_hit: None,
            });
        }
        let target = self
            .repo
            .model_name_of(model)
            .and_then(|name| self.repo.model(&name))
            .ok_or_else(|| ServeError::UnknownModel(format!("model#{}", model.0)))?;
        let t0 = Instant::now();
        let start = self
            .lifecycle
            .start(&self.repo, &self.views, model, 0, now, |m| m);
        let slot = match start {
            Start::Transform(choice) => {
                let slot = choice.container;
                let src = self.views[slot].model;
                let graph = self
                    .graphs
                    .get_mut(&self.views[slot].id)
                    .expect("live graph");
                let applied = if fail_transform {
                    None
                } else {
                    execute_plan(graph, &choice.plan, &target).ok()
                };
                if let Some(report) = applied {
                    // Cached plans reference the op-id space of the
                    // *registered* graphs (see `execute_plan`'s contract).
                    // The transformed graph is verified structurally
                    // identical to the target, so canonicalise its id space
                    // by adopting the registered graph — this keeps future
                    // cached plans applicable to this container.
                    *graph = (*target).clone();
                    self.retarget(slot, model, now);
                    let startup = t0.elapsed().as_secs_f64();
                    if let Some(ws) = self.store.as_mut() {
                        // Admit the plan's fetched payload (only the delta
                        // crosses a tier), synthesize the reused remainder
                        // in place, release the donor's chunks.
                        ws.transform(&self.repo, src, model);
                    }
                    if self.repo.note_transform_seconds(src, model, startup) {
                        self.counters.overruns.inc();
                    }
                    return Ok(Acquired {
                        slot,
                        start: ServedStart::Transformed,
                        donor: Some(src),
                        startup_seconds: startup,
                        transform_steps: report.steps_applied,
                        plan_cache_hit: Some(true),
                    });
                }
                // The plan aborted partway, leaving the donor undefined:
                // the safeguard reloads it from scratch.
                self.counters.escalations.inc();
                slot
            }
            Start::Repurpose(slot) => slot,
            Start::Cold => {
                let Self {
                    lifecycle,
                    views,
                    graphs,
                    store,
                    repo,
                    predict,
                    ..
                } = self;
                lifecycle.free_slot(views, 0, now, |c| {
                    retire(graphs, store, repo, predict.as_deref(), c)
                });
                let id = self.next_id;
                self.next_id += 1;
                self.views.push(ContainerView::new(id, model, now, now));
                self.graphs.insert(id, (*target).clone());
                if let Some(ws) = self.store.as_mut() {
                    ws.admit_model(&self.repo, model);
                }
                let startup = t0.elapsed().as_secs_f64();
                self.repo.note_load_seconds(model, startup);
                return Ok(Acquired {
                    slot: self.views.len() - 1,
                    start: ServedStart::Cold,
                    donor: None,
                    startup_seconds: startup,
                    transform_steps: 0,
                    plan_cache_hit: None,
                });
            }
        };
        // Scratch reload into a donor (the safeguard repurpose or an
        // escalated transform): the target is admitted before the donor's
        // chunks are released, so shared chunks never leave the container
        // tier.
        let src = self.views[slot].model;
        *self
            .graphs
            .get_mut(&self.views[slot].id)
            .expect("live graph") = (*target).clone();
        self.retarget(slot, model, now);
        if let Some(ws) = self.store.as_mut() {
            ws.admit_model(&self.repo, model);
            ws.release_model(&self.repo, src);
        }
        let startup = t0.elapsed().as_secs_f64();
        self.repo.note_load_seconds(model, startup);
        Ok(Acquired {
            slot,
            start: ServedStart::Cold,
            donor: Some(src),
            startup_seconds: startup,
            transform_steps: 0,
            plan_cache_hit: Some(false),
        })
    }

    /// The graph container `slot` holds.
    fn graph(&self, slot: usize) -> &ModelGraph {
        &self.graphs[&self.views[slot].id]
    }

    /// A request served on `slot` finished at `now`.
    fn finish(&mut self, slot: usize, now: f64) {
        self.views[slot].busy_until = now;
    }

    /// Point donor `slot` at `model` for a request routed at `now`; an
    /// unused speculation on it missed.
    fn retarget(&mut self, slot: usize, model: ModelId, now: f64) {
        let c = &mut self.views[slot];
        note_dead_spec(self.predict.as_deref(), c.speculated);
        c.speculated = false;
        c.model = model;
        c.route(now, now);
    }

    /// Keep-alive sweep: evict containers idle past their window (the
    /// predictor's per-model window when prediction is on, the global
    /// `keep_alive` otherwise).
    fn sweep(&mut self, now: f64) {
        let Self {
            views,
            graphs,
            store,
            repo,
            predict,
            keep_alive,
            ..
        } = self;
        let window = |id: ModelId| {
            predict
                .as_ref()
                .map_or(*keep_alive, |ps| ps.window(id.index()))
        };
        expire(views, now, window, |c| {
            retire(graphs, store, repo, predict.as_deref(), c)
        });
    }

    /// Crash/kill control events: containers die outright.
    fn handle_control(&mut self, item: ControlItem) {
        match item {
            ControlItem::Crash => {
                self.counters.evictions.add(self.views.len() as u64);
                for c in self.views.drain(..) {
                    note_dead_spec(self.predict.as_deref(), c.speculated);
                }
                self.graphs.clear();
                if let Some(ws) = self.store.as_mut() {
                    ws.crash();
                }
            }
            ControlItem::Warm(chunks) => {
                if let Some(ws) = self.store.as_mut() {
                    ws.warm(&chunks);
                }
            }
            ControlItem::Kill => {
                if let Some(victim) = lru(&self.views, |_| true) {
                    let dead = self.views.swap_remove(victim);
                    self.counters.evictions.inc();
                    retire(
                        &mut self.graphs,
                        &mut self.store,
                        &self.repo,
                        self.predict.as_deref(),
                        dead,
                    );
                }
            }
        }
        if let Some(ws) = self.store.as_mut() {
            ws.publish();
        }
    }

    /// Convert the cheapest idle donor into `dst` ahead of its predicted
    /// arrival, when the [`SpecCandidate`] cost gate admits it: the plan's
    /// estimated cost must undercut `dst`'s scratch load, so even a
    /// misprediction wastes less than one cold start.
    fn speculate(&mut self, ps: &PredictShared, dst: ModelId, now: f64) {
        let Some(spec) = ps.speculation() else {
            return;
        };
        let target_info = self.repo.model_name_of(dst).and_then(|name| {
            let cold = self.repo.load_cost(&name)?;
            let target = self.repo.model(&name)?;
            Some((cold, target))
        });
        let (Some((cold_cost, target)), Some(confidence)) =
            (target_info, ps.confidence(dst.index()))
        else {
            ps.spec_skipped.inc();
            return;
        };
        let choice = self
            .lifecycle
            .speculation_source(&self.repo, &self.views, dst, 0, now, |m| m);
        let Some(choice) = choice else {
            ps.spec_skipped.inc(); // no idle donor with a plan
            return;
        };
        let candidate = SpecCandidate {
            spec_cost: choice.latency,
            cold_cost,
            confidence,
        };
        if !candidate.admit(spec.aggressiveness) {
            ps.spec_skipped.inc();
            return;
        }
        let slot = choice.container;
        let src = self.views[slot].model;
        // Retargeting a donor that was itself speculated consumes that
        // earlier (wrong) guess.
        note_dead_spec(Some(ps), self.views[slot].speculated);
        self.views[slot].speculated = false;
        let t0 = Instant::now();
        let graph = self
            .graphs
            .get_mut(&self.views[slot].id)
            .expect("live graph");
        if execute_plan(graph, &choice.plan, &target).is_err() {
            // The plan failed partway and the donor is in an undefined
            // state: destroy it. Nobody waited on it, so this is neither
            // an escalation nor a start — only a skipped speculation.
            let dead = self.views.swap_remove(slot);
            retire(&mut self.graphs, &mut self.store, &self.repo, None, dead);
            if let Some(ws) = self.store.as_mut() {
                ws.publish();
            }
            ps.spec_skipped.inc();
            return;
        }
        *graph = (*target).clone();
        let seconds = t0.elapsed().as_secs_f64();
        // Busy while the transform ran; `last_routed` stays untouched, as
        // in the simulator, so the container's keep-alive lease starts
        // now and a wrong guess stays donatable.
        let c = &mut self.views[slot];
        c.model = dst;
        c.busy_until = now + seconds;
        c.speculated = true;
        if let Some(ws) = self.store.as_mut() {
            ws.transform(&self.repo, src, dst);
            ws.publish();
        }
        if self.repo.note_transform_seconds(src, dst, seconds) {
            self.counters.overruns.inc();
        }
        ps.speculations.inc();
    }
}

/// A container left the pool (keep-alive expiry, eviction, kill): drop
/// its graph, release its chunks (demoted, not forgotten), and count an
/// unconsumed speculation as a misprediction.
fn retire(
    graphs: &mut HashMap<u64, ModelGraph>,
    store: &mut Option<WorkerStore>,
    repo: &ModelRepository,
    predict: Option<&PredictShared>,
    c: ContainerView<ModelId>,
) {
    graphs.remove(&c.id);
    note_dead_spec(predict, c.speculated);
    if let Some(ws) = store.as_mut() {
        ws.release_model(repo, c.model);
    }
}

/// Count a container dying with its speculation unconsumed (no-op with
/// prediction off or an unspeculated container).
fn note_dead_spec(predict: Option<&PredictShared>, speculated: bool) {
    if speculated {
        if let Some(ps) = predict {
            ps.spec_mispredictions.inc();
        }
    }
}

/// Everything a worker turn needs: its container pool plus telemetry.
struct WorkerState {
    node_id: usize,
    /// The worker's clock origin: the pool sees seconds since it.
    epoch: Instant,
    pool: ContainerPool,
    sink: Arc<dyn TelemetrySink>,
    containers_gauge: Gauge,
    /// Live depth of this node's bounded admission queue
    /// (`optimus_serve_queue_depth`): the gateway adds on enqueue, the
    /// worker subtracts on dequeue.
    depth_gauge: Gauge,
    /// Size of every same-model group served (`optimus_serve_batch_size`).
    batch_hist: Histogram,
    /// Node per model (by `ModelId::index()`): which models this node
    /// would serve, hence which it may speculate on.
    placement: Arc<Vec<usize>>,
}

impl WorkerState {
    /// Seconds since the worker started: the pool's clock.
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Worker main loop: owns its containers; batches the bounded inference
/// queue per model until it closes. Every served request is measured by a
/// telemetry [`Span`] and exported through `sink`; an
/// `optimus_containers` gauge tracks pool occupancy,
/// `optimus_serve_queue_depth`/`optimus_serve_batch_size` track admission
/// and batching, and, when the store is enabled, per-tier residency
/// gauges plus chunk hit/miss counters track the weight store.
/// `Crash`/`Kill` control items from the gateway's fault plan destroy
/// container state (and volatile store tiers) in between batches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_worker(
    node_id: usize,
    config: GatewayConfig,
    repo: Arc<ModelRepository>,
    infer_rx: Receiver<InferItem>,
    ctrl_rx: Receiver<ControlItem>,
    sink: Arc<dyn TelemetrySink>,
    metrics: Arc<MetricsRegistry>,
    store_stats: Arc<Mutex<HashMap<usize, StoreStats>>>,
    predict: Option<Arc<PredictShared>>,
    placement: Arc<Vec<usize>>,
) {
    let node = node_id.to_string();
    let mut pool = ContainerPool::new(node_id, &config, repo.clone(), &metrics);
    pool.store = config
        .store
        .map(|sc| WorkerStore::new(node_id, sc, &repo, &metrics, store_stats));
    pool.predict = predict;
    // Publish the empty-store baseline so `/store` reports every node
    // from the first request onward.
    if let Some(ws) = pool.store.as_mut() {
        ws.publish();
    }
    let mut state = WorkerState {
        node_id,
        epoch: Instant::now(),
        pool,
        sink,
        containers_gauge: metrics.gauge("optimus_containers", &[("node", &node)]),
        depth_gauge: metrics.gauge("optimus_serve_queue_depth", &[("node", &node)]),
        batch_hist: metrics.histogram_with_bounds(
            "optimus_serve_batch_size",
            &[("node", &node)],
            || vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        ),
        placement,
    };
    let max_batch = config.serving.max_batch.max(1);
    loop {
        // Control events do not wait behind queued inference work.
        while let Some(ev) = ctrl_rx.try_recv() {
            state.handle_control(ev);
        }
        // Idle tick: wake periodically so control events (and shutdown)
        // are noticed even when no requests arrive. With prediction on,
        // an idle tick also runs maintenance: adaptive keep-alive sweeps
        // and — because the inference queue is empty right now — any due
        // speculative transforms, so speculation never delays a real
        // request.
        let first = match infer_rx.recv_timeout(Duration::from_millis(20)) {
            Ok(item) => item,
            Err(RecvTimeoutError::Timeout) => {
                if state.pool.predict.is_some() {
                    idle_maintenance(&mut state);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Work-conserving: take what is already queued, never wait for more.
        let mut batch = vec![first];
        batch.extend(std::iter::from_fn(|| infer_rx.try_recv()).take(max_batch - 1));
        state.depth_gauge.add(-(batch.len() as f64));
        // A fault event drawn alongside a request in this batch must land
        // before the batch is served (single-channel FIFO equivalence).
        while let Some(ev) = ctrl_rx.try_recv() {
            state.handle_control(ev);
        }
        // Partition into per-model groups, preserving arrival order;
        // different models queued together are never co-batched.
        let mut groups: Vec<(ModelId, Vec<InferItem>)> = Vec::new();
        for item in batch {
            match groups.iter_mut().find(|(id, _)| *id == item.model_id) {
                Some((_, g)) => g.push(item),
                None => groups.push((item.model_id, vec![item])),
            }
        }
        for (model_id, group) in groups {
            serve_group(&mut state, model_id, group);
        }
    }
    // Late control events (e.g. a crash racing a drain) are dropped with
    // the node.
}

impl WorkerState {
    fn handle_control(&mut self, item: ControlItem) {
        self.pool.handle_control(item);
        self.containers_gauge.set(self.pool.len() as f64);
    }
}

/// Serve one same-model group in arrival order, exactly as if its
/// requests had arrived sequentially: each acquires a container — the
/// first may pay a cold start or transformation, the rest warm-hit what
/// it produced — and runs its own forward pass. The group shares one
/// name lookup.
fn serve_group(state: &mut WorkerState, model_id: ModelId, group: Vec<InferItem>) {
    let batch_size = group.len();
    state.batch_hist.observe(batch_size as f64);
    // Telemetry labels resolve the interned id back to its name once per
    // group, here at the edge.
    let name = state
        .pool
        .repo
        .model_name_of(model_id)
        .unwrap_or_else(|| format!("model#{}", model_id.0));
    for item in group {
        let wait = item.enqueued.elapsed().as_secs_f64();
        let mut span = Span::begin(name.clone(), state.node_id);
        span.add(Phase::Wait, wait);
        let now = state.now();
        let acquired = state.pool.acquire(model_id, now, item.fail_transform);
        let result = acquired.and_then(|got| {
            span.set_kind(got.start.into());
            span.add(Phase::Load, got.startup_seconds);
            span.set_transform_steps(got.transform_steps);
            if let Some(hit) = got.plan_cache_hit {
                span.set_plan_cache_hit(hit);
            }
            if got.start != ServedStart::Warm {
                // Publish the start's chunk movements before the reply, so
                // a client that reads `/store` next sees them.
                if let Some(ws) = state.pool.store.as_mut() {
                    ws.publish();
                }
            }
            let t0 = Instant::now();
            let output = infer::run(state.pool.graph(got.slot), item.input)
                .map_err(|e| ServeError::Inference(e.to_string()))?;
            let compute_seconds = t0.elapsed().as_secs_f64();
            span.add(Phase::Compute, compute_seconds);
            let done = state.now();
            state.pool.finish(got.slot, done);
            Ok(InferenceResponse {
                model: name.clone(),
                output,
                start: got.start,
                wait_seconds: wait,
                startup_seconds: got.startup_seconds,
                compute_seconds,
                node: state.node_id,
                transform_steps: got.transform_steps,
                batch_size,
            })
        });
        if result.is_ok() {
            state.sink.record(&span.finish());
        }
        item.reply.send(result);
    }
    state.containers_gauge.set(state.pool.len() as f64);
    if let Some(ws) = state.pool.store.as_mut() {
        ws.publish();
    }
}

/// Idle-tick maintenance with prediction on: sweep adaptive keep-alive
/// windows, then execute any due speculative transforms. Runs only when
/// the inference queue has been empty for a full tick, so speculation
/// work never preempts a real request.
fn idle_maintenance(state: &mut WorkerState) {
    let now = state.now();
    let before = state.pool.len();
    state.pool.sweep(now);
    if state.pool.len() != before {
        state.containers_gauge.set(state.pool.len() as f64);
        if let Some(ws) = state.pool.store.as_mut() {
            ws.publish();
        }
    }
    let Some(ps) = state.pool.predict.clone() else {
        return;
    };
    if ps.speculation().is_none() {
        return;
    }
    // Models placed on this node, not currently warm here, whose forecast
    // arrival band is due — accepted only when an idle donor is actually
    // available right now. Rejected candidates stay armed, so a later
    // tick (or a model's own node) can still claim them.
    let pool = &state.pool;
    let have_donor = pool.views.iter().any(|c| pool.lifecycle.is_idle(c, now));
    let due = ps.due(|idx| {
        have_donor
            && state.placement.get(idx) == Some(&state.node_id)
            && !pool.views.iter().any(|c| c.model.index() == idx)
    });
    for idx in due {
        state.pool.speculate(&ps, ModelId::from_index(idx), now);
    }
    state.containers_gauge.set(state.pool.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_core::GroupPlanner;
    use optimus_model::{Activation, GraphBuilder, PoolKind};
    use optimus_predict::{PredictConfig, SpeculationConfig};
    use optimus_profile::CostModel;

    fn tiny(name: &str, channels: &[usize]) -> ModelGraph {
        let mut b = GraphBuilder::new(name);
        let mut x = b.input([1, 3, 8, 8]);
        let mut ch = 3;
        for &c in channels {
            x = b.conv2d_after(x, ch, c, (3, 3), (1, 1), 1);
            x = b.activation_after(x, Activation::Relu);
            ch = c;
        }
        let x = b.pool_after(x, PoolKind::Max, (2, 2), (2, 2));
        let x = b.flatten_after(x);
        let _ = b.dense_after(x, ch * 16, 4);
        b.finish().unwrap()
    }

    #[test]
    fn failed_speculation_is_skipped_not_escalated() {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        repo.register(tiny("src", &[4]), &cost);
        repo.register(tiny("dst", &[4, 8]), &cost);
        let repo = Arc::new(repo);
        let id = |name: &str| repo.model_id(name).expect("registered");
        let metrics = MetricsRegistry::new();
        let config = GatewayConfig {
            idle_threshold: 0.0,
            store: None,
            ..GatewayConfig::default()
        };
        let mut pool = ContainerPool::new(0, &config, repo.clone(), &metrics);
        // An idle donor labelled "src" whose graph is something else: the
        // cached src → dst plan does not apply, so `execute_plan` fails.
        pool.views.push(ContainerView::new(0, id("src"), 0.0, 0.0));
        pool.graphs.insert(0, tiny("other", &[16, 16]));
        let predict = PredictConfig {
            min_history: 2,
            speculation: Some(SpeculationConfig {
                lead: 5.0,
                aggressiveness: 100.0,
            }),
            ..PredictConfig::default()
        };
        let ps = PredictShared::new(predict, 30.0, &repo.model_names(), &metrics, None);
        ps.observe(id("dst").index());
        ps.observe(id("dst").index());
        pool.speculate(&ps, id("dst"), 1.0);
        let escalations = metrics.counter("optimus_safeguard_escalations_total", &[("node", "0")]);
        assert_eq!(escalations.get(), 0, "no request escalated");
        assert_eq!(ps.spec_skipped.get(), 1);
        assert_eq!(ps.speculations.get(), 0);
        assert!(pool.is_empty(), "the corrupt donor is destroyed");
    }
}
