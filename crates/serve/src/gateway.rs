//! The gateway: request entry point and worker lifecycle management.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, TrySendError};
use optimus_balance::failover_node;
use optimus_core::{GroupPlanner, ModelRepository, PlanArtifact};
use optimus_faults::{FaultInjector, FaultPlan, RequestFaults, RetryPolicy};
use optimus_llm::LlmConfig;
use optimus_model::tensor::Tensor;
use optimus_model::{InternKey, ModelGraph, ModelId};
use optimus_predict::Predictor;
use optimus_profile::CostModel;
use optimus_store::{model_chunks, ChunkId, ChunkRef, StoreStats};
use optimus_telemetry::{Counter, FanoutSink, Gauge, MetricsRegistry, MetricsSink, TelemetrySink};
use parking_lot::{Mutex, RwLock};

use crate::api::{DecodeResponse, GatewayConfig, InferenceResponse, ServeError};
use crate::predict::PredictShared;
use crate::reply::{reply_cell, Reply, ReplyCell};
use crate::worker::{run_worker, ControlItem, InferItem};

/// Channels and gauges of one live worker node.
///
/// Inference traffic rides the *bounded* `infer` channel — a full queue
/// is an admission rejection ([`ServeError::Overloaded`], HTTP `429`),
/// never an unbounded backlog. Fleet and fault events (crash, kill, warm
/// transfer) ride the unbounded `ctrl` channel so they cannot be dropped
/// by admission control.
struct NodeHandle {
    infer: crossbeam::channel::Sender<InferItem>,
    ctrl: crossbeam::channel::Sender<ControlItem>,
    /// `optimus_serve_queue_depth{node=..}`: incremented on enqueue; the
    /// worker decrements as it drains batches.
    depth: Gauge,
}

/// Builder: register models, then [`GatewayBuilder::spawn`].
pub struct GatewayBuilder {
    config: GatewayConfig,
    repo: ModelRepository,
    cost: CostModel,
    names: Vec<String>,
    metrics: Arc<MetricsRegistry>,
    extra_sinks: Vec<Arc<dyn TelemetrySink>>,
    plan_cache_path: Option<PathBuf>,
    predict_state_path: Option<PathBuf>,
    llm: LlmConfig,
}

impl GatewayBuilder {
    /// Persist the plan cache at `path` as a content-addressed
    /// [`PlanArtifact`], and warm-load from it on startup:
    /// [`GatewayBuilder::register_all`] probes the artifact by `(src
    /// content hash, dst content hash)` before invoking the planner, so a
    /// restarted gateway registers its catalog in seconds instead of
    /// re-planning O(N²) pairs. Incompatible artifacts (format version,
    /// cost-model calibration) are ignored and the catalog is re-planned
    /// cold; the file is rewritten after every bulk registration.
    /// Warm-load wall-clock lands in `optimus_plan_cache_load_seconds`,
    /// per-pair outcomes in `optimus_plan_cache_warm_total{result=...}`.
    pub fn plan_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.plan_cache_path = Some(path.into());
        self
    }

    /// Persist `optimus-predict` state at `path`: the predictor snapshot
    /// (learned inter-arrival histograms and adaptive keep-alive state)
    /// is written on gateway shutdown and restored on the next spawn, so
    /// windows learned over hours of traffic survive a restart instead
    /// of re-warming from the global default. Snapshots carry their
    /// `PredictConfig`; one taken under different knobs or a different
    /// catalog size is ignored and prediction starts cold. No-op unless
    /// [`GatewayConfig::predict`] is set.
    pub fn predict_state_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.predict_state_path = Some(path.into());
        self
    }

    /// Override the token-level decode cost model used by
    /// [`Gateway::submit_decode`] (iteration pricing, output-length
    /// distribution). The default [`LlmConfig`] matches the simulator's.
    ///
    /// # Panics
    ///
    /// When the config fails [`LlmConfig::validate`].
    pub fn llm_config(mut self, config: LlmConfig) -> Self {
        config.validate().expect("llm config must be valid");
        self.llm = config;
        self
    }

    /// The on-disk artifact at `plan_cache_path`, if present and
    /// compatible.
    fn load_plan_artifact(&self) -> Option<PlanArtifact> {
        let path = self.plan_cache_path.as_deref()?;
        let json = std::fs::read_to_string(path).ok()?;
        PlanArtifact::from_json(&json).ok()
    }

    /// Rewrite the plan-cache file from the repository's current plan
    /// cache. Entries already on disk that this process has not
    /// (re-)planned yet are kept ([`PlanArtifact::merge_from`]) —
    /// incremental registrations must not erase plans whose partner
    /// model simply has not been registered *yet*. Garbage collection
    /// against the catalog runs only with `gc` set, i.e. from
    /// [`GatewayBuilder::spawn`] once the catalog is final: entries
    /// whose (src, dst) hashes no longer appear in the registered
    /// catalog are dropped ([`PlanArtifact::gc`]), so the file cannot
    /// grow monotonically across deployments that rotate their
    /// catalogs. Best-effort: a full disk must not stop serving, and
    /// write-then-rename keeps a crash mid-write from truncating the
    /// old artifact.
    fn persist_plan_artifact(&self, gc: bool) {
        let disk = self.load_plan_artifact();
        self.persist_plan_artifact_with(disk.as_ref(), gc);
    }

    /// [`GatewayBuilder::persist_plan_artifact`] with the on-disk
    /// artifact already in hand — register paths load it once and reuse
    /// the same copy for both plan probing and the merge-on-write,
    /// instead of re-reading the (potentially O(catalog²)-entry) file
    /// from disk a second time per registration.
    fn persist_plan_artifact_with(&self, disk: Option<&PlanArtifact>, gc: bool) {
        let Some(path) = self.plan_cache_path.as_deref() else {
            return;
        };
        let mut artifact = self.repo.export_plan_artifact();
        if let Some(disk) = disk {
            artifact.merge_from(disk);
        }
        if gc {
            let dropped = artifact.gc(&self.repo.catalog_hashes());
            if dropped > 0 {
                self.metrics
                    .counter("optimus_plan_cache_gc_entries_total", &[])
                    .add(dropped as u64);
            }
        }
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, artifact.to_json()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Register a model; plans against previously registered models are
    /// computed and cached immediately (§4.4 Module 3). With
    /// [`GatewayBuilder::plan_cache_path`] set, the persisted artifact is
    /// probed for each (src, dst) pair before invoking the planner and
    /// rewritten afterwards — single-model registrations persist exactly
    /// like [`GatewayBuilder::register_all`], so a catalog grown one
    /// model at a time also survives restarts.
    pub fn register(mut self, model: ModelGraph) -> Self {
        self.names.push(model.name().to_string());
        let disk = self.load_plan_artifact();
        match &disk {
            Some(artifact) => {
                let t0 = Instant::now();
                self.repo
                    .register_with_artifact(model, &self.cost, artifact);
                self.metrics
                    .histogram("optimus_plan_cache_load_seconds", &[])
                    .observe(t0.elapsed().as_secs_f64());
            }
            None => self.repo.register(model, &self.cost),
        }
        self.persist_plan_artifact_with(disk.as_ref(), false);
        self
    }

    /// Register a whole catalog at once, fanning the offline pairwise
    /// planning sweep across a worker pool sized to the machine
    /// ([`ModelRepository::register_all`]). Produces exactly the same plan
    /// cache as chained [`GatewayBuilder::register`] calls, but the
    /// full-catalog warmup scales with available cores and the repository
    /// lock is held only to snapshot and install.
    pub fn register_all(mut self, models: Vec<ModelGraph>) -> Self {
        self.names
            .extend(models.iter().map(|m| m.name().to_string()));
        let disk = self.load_plan_artifact();
        match &disk {
            Some(artifact) => {
                let t0 = Instant::now();
                self.repo
                    .register_all_with_artifact(models, &self.cost, artifact);
                self.metrics
                    .histogram("optimus_plan_cache_load_seconds", &[])
                    .observe(t0.elapsed().as_secs_f64());
            }
            None => self.repo.register_all(models, &self.cost),
        }
        self.persist_plan_artifact_with(disk.as_ref(), false);
        self
    }

    /// Record all telemetry (request counters, phase histograms, plan-cache
    /// counters) into `registry` instead of the process-wide
    /// [`optimus_telemetry::global`] registry. The gateway's `/metrics`
    /// and `/stats` endpoints render this registry. Call before
    /// [`GatewayBuilder::register`] so planning latency recorded during
    /// registration lands in the same registry.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.repo.set_metrics_registry(&registry);
        self.metrics = registry;
        self
    }

    /// Additionally send every finished request trace to `sink` (e.g. an
    /// [`optimus_telemetry::JsonlSink`] for per-request trace lines).
    pub fn sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.extra_sinks.push(sink);
        self
    }

    /// Override the repository's runtime overrun policy
    /// ([`ModelRepository::with_overrun_policy`]): a plan whose measured
    /// execution exceeds `factor ×` the destination's observed
    /// scratch-load wall-clock `max_overruns` consecutive times is
    /// demoted to scratch loading. The in-process engine "loads" a model
    /// by cloning its graph — microseconds, where the latency *model*
    /// charges a disk fetch — so the default guard (3×, 2 strikes) can
    /// demote every plan; deployments that want the safeguard to judge
    /// the modeled cost only should widen the factor here. Call before
    /// [`GatewayBuilder::register`].
    pub fn overrun_policy(mut self, factor: f64, max_overruns: u32) -> Self {
        self.repo = self.repo.with_overrun_policy(factor, max_overruns);
        self
    }

    /// Start the worker threads and return the gateway handle.
    ///
    /// Functions are placed onto nodes round-robin in registration order;
    /// a production deployment would use `optimus-balance` here, which is
    /// exercised by the simulator instead. The routing table is a dense
    /// vector indexed by interned [`optimus_model::ModelId`] — the
    /// client-facing name is resolved to an id exactly once per request.
    pub fn spawn(self) -> Gateway {
        self.repo.set_metrics_registry(&self.metrics);
        // The catalog is final now: drop persisted plans whose endpoints
        // are no longer registered (counted in
        // `optimus_plan_cache_gc_entries_total`).
        self.persist_plan_artifact(true);
        let mut sinks: Vec<Arc<dyn TelemetrySink>> =
            vec![Arc::new(MetricsSink::new(self.metrics.clone()))];
        sinks.extend(self.extra_sinks);
        let sink: Arc<dyn TelemetrySink> = Arc::new(FanoutSink::new(sinks));
        let repo = Arc::new(self.repo);
        let store_stats: Arc<Mutex<HashMap<usize, StoreStats>>> =
            Arc::new(Mutex::new(HashMap::new()));
        // Dense id-indexed routing table (round-robin in registration
        // order, later registrations of the same name win — the same
        // placement the old name-keyed map produced). Computed before the
        // workers spawn so they can check which models are theirs when
        // deciding what to speculate on.
        let mut placement = vec![0usize; repo.model_count()];
        for (i, name) in self.names.iter().enumerate() {
            if let Some(id) = repo.model_id(name) {
                placement[id.index()] = i % self.config.nodes;
            }
        }
        let placement = Arc::new(placement);
        let predict = self.config.predict.map(|pc| {
            pc.validate().expect("predict config must be valid");
            let names: Vec<String> = (0..repo.model_count())
                .map(|i| {
                    repo.model_name_of(ModelId::from_index(i))
                        .unwrap_or_else(|| format!("model#{i}"))
                })
                .collect();
            // Restore the previous process's predictor snapshot, if one
            // was persisted and still matches: a snapshot taken under
            // different knobs or a different catalog size is ignored and
            // prediction starts cold.
            let restored = self
                .predict_state_path
                .as_deref()
                .and_then(|p| std::fs::read_to_string(p).ok())
                .and_then(|json| serde_json::from_str::<Predictor>(&json).ok())
                .filter(|p| p.config() == &pc && p.functions() == names.len());
            Arc::new(PredictShared::new(
                pc,
                self.config.keep_alive,
                &names,
                &self.metrics,
                restored,
            ))
        });
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for node_id in 0..self.config.nodes {
            let (node, handle) = spawn_node(
                node_id,
                self.config,
                repo.clone(),
                sink.clone(),
                self.metrics.clone(),
                store_stats.clone(),
                predict.clone(),
                placement.clone(),
            );
            handles.push(handle);
            senders.push(node);
        }
        let injector = self.config.faults.map(|spec| {
            spec.validate().expect("fault spec must be valid");
            FaultInjector::new(&FaultPlan::from_spec(spec))
        });
        let retry = self.config.faults.map(|s| s.retry).unwrap_or_default();
        let recovery = Duration::from_secs_f64(
            self.config
                .faults
                .map(|s| s.recovery_seconds)
                .unwrap_or(30.0)
                .max(0.0),
        );
        let now = Instant::now();
        let node_healthy = (0..self.config.nodes)
            .map(|n| {
                let g = self
                    .metrics
                    .gauge("optimus_node_healthy", &[("node", &n.to_string())]);
                g.set(1.0);
                g
            })
            .collect();
        let fleet_nodes = self.metrics.gauge("optimus_fleet_nodes", &[]);
        fleet_nodes.set(self.config.nodes as f64);
        Gateway {
            config: self.config,
            workers: RwLock::new(senders.into_iter().map(Some).collect()),
            handles: Mutex::new(handles),
            placement,
            repo,
            injector,
            retry,
            recovery,
            seq: AtomicU64::new(0),
            down_until: Mutex::new(vec![now; self.config.nodes]),
            node_healthy: Mutex::new(node_healthy),
            injected_crashes: self
                .metrics
                .counter("optimus_faults_injected_total", &[("kind", "node_crash")]),
            injected_kills: self.metrics.counter(
                "optimus_faults_injected_total",
                &[("kind", "container_kill")],
            ),
            injected_transform_failures: self.metrics.counter(
                "optimus_faults_injected_total",
                &[("kind", "transform_failure")],
            ),
            reroutes: self.metrics.counter("optimus_reroutes_total", &[]),
            retries: self.metrics.counter("optimus_fault_retries_total", &[]),
            rejected: self.metrics.counter("optimus_serve_rejected_total", &[]),
            fleet_nodes,
            scale_outs: self
                .metrics
                .counter("optimus_fleet_scale_events_total", &[("direction", "out")]),
            scale_ins: self
                .metrics
                .counter("optimus_fleet_scale_events_total", &[("direction", "in")]),
            multicast_peer_bytes: self
                .metrics
                .counter("optimus_fleet_multicast_bytes_total", &[("source", "peer")]),
            multicast_remote_bytes: self.metrics.counter(
                "optimus_fleet_multicast_bytes_total",
                &[("source", "remote")],
            ),
            metrics: self.metrics,
            sink,
            store_stats,
            predict,
            predict_state_path: self.predict_state_path,
            llm: self.llm,
            decode_seq: AtomicU64::new(0),
        }
    }
}

/// Spawn one worker node: its bounded inference queue, unbounded control
/// channel, queue-depth gauge and thread.
#[allow(clippy::too_many_arguments)]
fn spawn_node(
    node_id: usize,
    config: GatewayConfig,
    repo: Arc<ModelRepository>,
    sink: Arc<dyn TelemetrySink>,
    metrics: Arc<MetricsRegistry>,
    stats: Arc<Mutex<HashMap<usize, StoreStats>>>,
    predict: Option<Arc<PredictShared>>,
    placement: Arc<Vec<usize>>,
) -> (NodeHandle, JoinHandle<()>) {
    let (infer_tx, infer_rx) = bounded::<InferItem>(config.serving.queue_depth);
    let (ctrl_tx, ctrl_rx) = unbounded::<ControlItem>();
    let depth = metrics.gauge(
        "optimus_serve_queue_depth",
        &[("node", &node_id.to_string())],
    );
    let handle = std::thread::spawn(move || {
        run_worker(
            node_id, config, repo, infer_rx, ctrl_rx, sink, metrics, stats, predict, placement,
        )
    });
    (
        NodeHandle {
            infer: infer_tx,
            ctrl: ctrl_tx,
            depth,
        },
        handle,
    )
}

/// Handle to a running serving engine.
///
/// Cloning requests through the gateway is thread-safe; `shutdown` (or
/// drop) stops the workers.
pub struct Gateway {
    config: GatewayConfig,
    /// Worker node handles by node id; a drained slot is `None` (its
    /// worker exits once the queue empties) and is never routed to again.
    /// Slots are append-only so node ids stay stable across the fleet's
    /// life.
    workers: RwLock<Vec<Option<NodeHandle>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Node per model, indexed by `ModelId::index()` (shared with the
    /// workers, which consult it when choosing speculation targets).
    placement: Arc<Vec<usize>>,
    repo: Arc<ModelRepository>,
    /// Seeded per-request fault draws (`None`: faults disabled).
    injector: Option<FaultInjector>,
    retry: RetryPolicy,
    /// How long a crashed node stays unhealthy.
    recovery: Duration,
    /// Monotone request counter — the deterministic fault-draw index.
    seq: AtomicU64,
    /// Per-node health: the instant until which the node is down.
    down_until: Mutex<Vec<Instant>>,
    node_healthy: Mutex<Vec<Gauge>>,
    injected_crashes: Counter,
    injected_kills: Counter,
    injected_transform_failures: Counter,
    reroutes: Counter,
    retries: Counter,
    /// Requests rejected by admission control
    /// (`optimus_serve_rejected_total`): the routed node's bounded queue
    /// was full.
    rejected: Counter,
    /// Live node count (`optimus_fleet_nodes`).
    fleet_nodes: Gauge,
    scale_outs: Counter,
    scale_ins: Counter,
    multicast_peer_bytes: Counter,
    multicast_remote_bytes: Counter,
    metrics: Arc<MetricsRegistry>,
    sink: Arc<dyn TelemetrySink>,
    /// Latest weight-store snapshot per node, published by workers after
    /// every request (empty when the store is disabled).
    store_stats: Arc<Mutex<HashMap<usize, StoreStats>>>,
    /// Arrival predictor shared with the workers (`None`: prediction
    /// off). The gateway feeds it every admitted request.
    predict: Option<Arc<PredictShared>>,
    /// Where the predictor snapshot is persisted on shutdown (`None`:
    /// state is not persisted).
    predict_state_path: Option<PathBuf>,
    /// Token-level decode cost model applied by
    /// [`Gateway::submit_decode`].
    llm: LlmConfig,
    /// Monotone decode counter — the deterministic output-length draw
    /// index ([`LlmConfig::decode_tokens`]), separate from `seq` so
    /// decode traffic does not perturb fault draws.
    decode_seq: AtomicU64,
}

impl Gateway {
    /// Start building a gateway with the given configuration. Plans are
    /// computed with the linear-time group planner. Telemetry lands in the
    /// process-wide registry unless [`GatewayBuilder::metrics`] overrides
    /// it.
    pub fn builder(config: GatewayConfig) -> GatewayBuilder {
        assert!(config.nodes > 0, "need at least one node");
        assert!(config.capacity_per_node > 0, "need container capacity");
        config
            .serving
            .validate()
            .expect("serving config must be valid");
        GatewayBuilder {
            config,
            repo: ModelRepository::new(Box::new(GroupPlanner)),
            cost: CostModel::default(),
            names: Vec::new(),
            metrics: optimus_telemetry::global(),
            extra_sinks: Vec::new(),
            plan_cache_path: None,
            predict_state_path: None,
            llm: LlmConfig::default(),
        }
    }

    /// Run one inference synchronously.
    ///
    /// With faults enabled, the request first pays its deterministic
    /// fault draw: an injected node crash marks the home node unhealthy
    /// (wiping its containers and volatile store tiers), routing then
    /// fails over to a healthy node, and a node dying mid-request is
    /// retried with exponential backoff up to the spec's retry budget.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered models,
    /// [`ServeError::Inference`] when the input does not fit the model,
    /// [`ServeError::Unavailable`] when every node is unhealthy and all
    /// retries are exhausted, [`ServeError::Shutdown`] when the engine is
    /// stopping.
    pub fn infer(&self, model: &str, input: Tensor) -> Result<InferenceResponse, ServeError> {
        let (model_id, fx) = self.admit(model)?;
        let max_attempts = self.retry.max_attempts.max(1);
        let mut last_err = ServeError::Unavailable("no attempt made".to_string());
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.retries.inc();
                let backoff = self.retry.backoff_before(attempt);
                if backoff > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(backoff));
                }
            }
            match self.enqueue_once(
                model_id,
                &input,
                fx.transform_failure && attempt == 0,
                fx.container_kill && attempt == 0,
            ) {
                // Admission rejection is immediate: the client must back
                // off, retrying the same full queue helps nobody.
                Err(e @ ServeError::Overloaded(_)) => return Err(e),
                Err(ServeError::Shutdown) => return Err(ServeError::Shutdown),
                Err(e) => last_err = e,
                Ok((node, reply)) => match reply.wait() {
                    Some(result) => return result,
                    // The worker died mid-request: mark the node down and
                    // try a different one after backing off.
                    None => {
                        self.mark_down(node);
                        last_err = ServeError::Unavailable(format!("node {node} did not reply"));
                    }
                },
            }
        }
        Err(last_err)
    }

    /// Resolve the model, draw this request's deterministic faults and
    /// apply the gateway-side ones (crash marks the home node down).
    fn admit(&self, model: &str) -> Result<(ModelId, RequestFaults), ServeError> {
        let model_id = self
            .repo
            .model_id(model)
            .filter(|id| id.index() < self.placement.len())
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        if let Some(ps) = &self.predict {
            ps.observe(model_id.index());
        }
        let fx = match &self.injector {
            Some(inj) => inj.for_request(self.seq.fetch_add(1, Ordering::Relaxed)),
            None => RequestFaults::none(),
        };
        if fx.node_crash {
            let home = self.placement[model_id.index()];
            self.injected_crashes.inc();
            self.mark_down(home);
            if let Some(Some(h)) = self.workers.read().get(home) {
                let _ = h.ctrl.send(ControlItem::Crash);
            }
        }
        if fx.transform_failure {
            self.injected_transform_failures.inc();
        }
        Ok((model_id, fx))
    }

    /// Route one attempt and enqueue it on the routed node's bounded
    /// queue. Returns the node id and the reply cell.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unavailable`] when every node is down,
    /// [`ServeError::Overloaded`] when the routed node's queue is full
    /// (counted in `optimus_serve_rejected_total`),
    /// [`ServeError::Shutdown`] when the engine is stopping.
    fn enqueue_once(
        &self,
        model_id: ModelId,
        input: &Tensor,
        fail_transform: bool,
        kill: bool,
    ) -> Result<(usize, ReplyCell), ServeError> {
        let home = self.placement[model_id.index()];
        let workers = self.workers.read();
        // Down or drained nodes are skipped; `workers` is read-locked so
        // the fleet cannot change shape mid-decision. Degraded routing
        // falls over to the lowest-indexed healthy node; queue pressure on
        // the home node is an admission rejection, not a reroute, so
        // placement locality is preserved.
        let routed = {
            let now = Instant::now();
            let down = self.down_until.lock();
            failover_node(
                home,
                workers.len(),
                |n| workers[n].is_some() && down[n] <= now,
                |_| 0.0,
            )
        };
        let Some(node) = routed else {
            return Err(ServeError::Unavailable(format!(
                "all {} nodes are marked down",
                workers.len()
            )));
        };
        if node != home {
            self.reroutes.inc();
        }
        let handle = workers[node].as_ref().expect("routed node is live");
        if kill {
            self.injected_kills.inc();
            let _ = handle.ctrl.send(ControlItem::Kill);
        }
        let (reply_tx, reply) = reply_cell();
        let item = InferItem {
            model_id,
            input: input.clone(),
            enqueued: Instant::now(),
            fail_transform,
            reply: reply_tx,
        };
        match handle.infer.try_send(item) {
            Ok(()) => {
                handle.depth.add(1.0);
                Ok((node, reply))
            }
            Err(TrySendError::Full(_)) => {
                self.rejected.inc();
                Err(ServeError::Overloaded(format!(
                    "node {node} queue is at its {}-request bound",
                    self.config.serving.queue_depth
                )))
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::Shutdown),
        }
    }

    /// Submit a request without blocking on its completion: the inference
    /// is enqueued exactly like [`Gateway::infer`] (same fault draws, same
    /// routing, same admission control) but the caller gets a
    /// [`PendingInference`] to poll instead of the finished response — the
    /// HTTP front end parks the connection on it so serving threads never
    /// block on a worker queue.
    ///
    /// # Errors
    ///
    /// The same errors as [`Gateway::infer`]; [`ServeError::Overloaded`]
    /// and [`ServeError::UnknownModel`] surface immediately.
    pub fn submit(&self, model: &str, input: Tensor) -> Result<PendingInference, ServeError> {
        let (model_id, fx) = self.admit(model)?;
        let (node, reply) =
            self.enqueue_once(model_id, &input, fx.transform_failure, fx.container_kill)?;
        Ok(PendingInference {
            model_id,
            input,
            attempt: 0,
            state: PendingState::Waiting { node, reply },
        })
    }

    /// Drive a [`PendingInference`] forward without blocking. Returns
    /// `Some(result)` once the request finished (successfully or not);
    /// `None` while it is still queued, executing, or backing off before
    /// a retry. A worker that dies mid-request is marked down and the
    /// request is re-routed with the same bounded retry budget as
    /// [`Gateway::infer`], but the backoff is waited out across `poll`
    /// calls instead of sleeping.
    pub fn poll(&self, pending: &mut PendingInference) -> Option<InferenceResult> {
        let max_attempts = self.retry.max_attempts.max(1);
        loop {
            match &mut pending.state {
                PendingState::Waiting { node, reply } => match reply.try_take() {
                    Reply::Ready(result) => return Some(result),
                    Reply::Pending => return None,
                    Reply::Disconnected => {
                        let node = *node;
                        self.mark_down(node);
                        pending.attempt += 1;
                        if pending.attempt >= max_attempts {
                            return Some(Err(ServeError::Unavailable(format!(
                                "node {node} did not reply"
                            ))));
                        }
                        self.retries.inc();
                        let backoff = self.retry.backoff_before(pending.attempt).max(0.0);
                        pending.state = PendingState::Backoff {
                            until: Instant::now() + Duration::from_secs_f64(backoff),
                        };
                    }
                },
                PendingState::Backoff { until } => {
                    if Instant::now() < *until {
                        return None;
                    }
                    match self.enqueue_once(pending.model_id, &pending.input, false, false) {
                        Ok((node, reply)) => pending.state = PendingState::Waiting { node, reply },
                        Err(e @ ServeError::Overloaded(_)) | Err(e @ ServeError::Shutdown) => {
                            return Some(Err(e))
                        }
                        Err(e) => {
                            pending.attempt += 1;
                            if pending.attempt >= max_attempts {
                                return Some(Err(e));
                            }
                            self.retries.inc();
                            let backoff = self.retry.backoff_before(pending.attempt).max(0.0);
                            pending.state = PendingState::Backoff {
                                until: Instant::now() + Duration::from_secs_f64(backoff),
                            };
                        }
                    }
                }
            }
        }
    }

    /// Submit a decode loop: token-level LLM serving behind the existing
    /// submit/poll machinery. The request is admitted, routed and served
    /// exactly like [`Gateway::submit`] — the real forward pass it runs
    /// is the loop's *prefill* — while the output length is drawn
    /// deterministically from the [`LlmConfig`]
    /// ([`GatewayBuilder::llm_config`]) and the decode tail is priced by
    /// the same iteration cost model the simulator uses. Poll the result
    /// with [`Gateway::poll_decode`].
    ///
    /// # Errors
    ///
    /// The same errors as [`Gateway::submit`].
    pub fn submit_decode(&self, model: &str, input: Tensor) -> Result<PendingDecode, ServeError> {
        let model_bytes = self
            .repo
            .model(model)
            .map(|m| m.byte_size() as u64)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let inner = self.submit(model, input)?;
        // Draw the output length only once the submit has been accepted:
        // a transient rejection (e.g. queue-full) must not consume a
        // sequence number, or it would shift every later request's
        // deterministic length draw and break run-to-run reproducibility.
        let tokens = self
            .llm
            .decode_tokens(self.decode_seq.fetch_add(1, Ordering::Relaxed));
        Ok(PendingDecode {
            inner,
            tokens,
            model_bytes,
        })
    }

    /// Drive a [`PendingDecode`] forward without blocking, with the same
    /// retry semantics as [`Gateway::poll`]. Once the prefill finishes,
    /// the decode tail is priced at the batch size the prefill was
    /// actually served in (a same-model batch shares each iteration's
    /// weight sweep, capped at the config's `max_batch`).
    pub fn poll_decode(
        &self,
        pending: &mut PendingDecode,
    ) -> Option<Result<DecodeResponse, ServeError>> {
        let result = self.poll(&mut pending.inner)?;
        Some(result.map(|prefill| {
            let batch = prefill.batch_size.clamp(1, self.llm.max_batch);
            let ttft = prefill.wait_seconds + prefill.startup_seconds + prefill.compute_seconds;
            let decode_iters = pending.tokens.saturating_sub(1);
            let decode_seconds =
                decode_iters as f64 * self.llm.iter_seconds(pending.model_bytes, batch, 0);
            DecodeResponse {
                prefill,
                tokens: pending.tokens as u64,
                ttft_seconds: ttft,
                decode_seconds,
            }
        }))
    }

    fn mark_down(&self, node: usize) {
        self.down_until.lock()[node] = Instant::now() + self.recovery;
        self.node_healthy.lock()[node].set(0.0);
    }

    /// Current per-node health (true = accepting requests). Crashed nodes
    /// recover after the fault spec's `recovery_seconds`; drained nodes
    /// stay false. The `optimus_node_healthy` gauges are refreshed as a
    /// side effect.
    pub fn healthy_nodes(&self) -> Vec<bool> {
        let now = Instant::now();
        let workers = self.workers.read();
        let down = self.down_until.lock();
        let gauges = self.node_healthy.lock();
        down.iter()
            .enumerate()
            .map(|(n, &until)| {
                let healthy = until <= now && workers[n].is_some();
                gauges[n].set(if healthy { 1.0 } else { 0.0 });
                healthy
            })
            .collect()
    }

    /// Number of live (non-drained) worker nodes.
    pub fn fleet_size(&self) -> usize {
        self.workers.read().iter().filter(|w| w.is_some()).count()
    }

    /// Elastically add a worker node to the serving fleet and return its
    /// id. The node spawns with an empty container pool; when the weight
    /// store is enabled, the registered catalog's chunk set is shipped to
    /// it ahead of traffic (peer-sourced when live nodes hold replicas,
    /// an origin fetch for a fresh fleet — mirroring the simulator's
    /// multicast model), counted in
    /// `optimus_fleet_multicast_bytes_total`. The node joins the
    /// failover ring immediately.
    pub fn register_node(&self) -> usize {
        let mut workers = self.workers.write();
        let node_id = workers.len();
        let (node, handle) = spawn_node(
            node_id,
            self.config,
            self.repo.clone(),
            self.sink.clone(),
            self.metrics.clone(),
            self.store_stats.clone(),
            self.predict.clone(),
            self.placement.clone(),
        );
        self.handles.lock().push(handle);
        if let Some(sc) = self.config.store {
            // Warm transfer: the full registered chunk set, deduplicated
            // by content id so shared tensors ship once.
            let mut seen: std::collections::HashSet<ChunkId> = std::collections::HashSet::new();
            let mut chunks: Vec<ChunkRef> = Vec::new();
            for name in self.repo.model_names() {
                if let Some(m) = self.repo.model(&name) {
                    for c in model_chunks(&m, sc.chunk_bytes) {
                        if seen.insert(c.id) {
                            chunks.push(c);
                        }
                    }
                }
            }
            // The persisted plan cache rides the same warm transfer: the
            // joiner receives the artifact's content-addressed chunks
            // alongside the catalog's weights, so it can serve its first
            // transform without re-planning.
            let artifact = self.repo.export_plan_artifact();
            if !artifact.is_empty() {
                for c in artifact.chunks(sc.chunk_bytes) {
                    if seen.insert(c.id) {
                        chunks.push(c);
                    }
                }
            }
            let bytes: u64 = chunks.iter().map(|c| c.bytes).sum();
            if workers.iter().any(|w| w.is_some()) {
                self.multicast_peer_bytes.add(bytes);
            } else {
                self.multicast_remote_bytes.add(bytes);
            }
            let _ = node.ctrl.send(ControlItem::Warm(chunks));
        }
        workers.push(Some(node));
        {
            let mut down = self.down_until.lock();
            down.push(Instant::now());
            let g = self
                .metrics
                .gauge("optimus_node_healthy", &[("node", &node_id.to_string())]);
            g.set(1.0);
            self.node_healthy.lock().push(g);
        }
        self.scale_outs.inc();
        self.fleet_nodes
            .set(workers.iter().filter(|w| w.is_some()).count() as f64);
        node_id
    }

    /// Drain an elastically added node: routing stops immediately and its
    /// worker thread exits once queued work completes. The initial fleet
    /// (ids below the configured node count) is the scaling floor and
    /// cannot be drained. Returns whether the node was live.
    pub fn drain_node(&self, node: usize) -> bool {
        if node < self.config.nodes {
            return false;
        }
        let mut workers = self.workers.write();
        let Some(slot) = workers.get_mut(node) else {
            return false;
        };
        if slot.take().is_none() {
            return false;
        }
        self.node_healthy.lock()[node].set(0.0);
        self.scale_ins.inc();
        self.fleet_nodes
            .set(workers.iter().filter(|w| w.is_some()).count() as f64);
        true
    }

    /// Registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        self.repo.model_names()
    }

    /// Number of models whose forecast arrival band intersects the next
    /// `horizon_seconds` — the predictive demand signal an external
    /// autoscaler can add to observed queue pressure before calling
    /// [`Gateway::register_node`]. Always 0 with prediction off.
    pub fn predicted_demand(&self, horizon_seconds: f64) -> usize {
        self.predict
            .as_ref()
            .map_or(0, |ps| ps.predicted_demand(horizon_seconds))
    }

    /// The keep-alive window currently applied to `model`'s containers:
    /// the configured global `keep_alive` until adaptive keep-alive has
    /// enough history (or when prediction is off).
    pub fn keep_alive_for(&self, model: &str) -> Option<f64> {
        let id = self.repo.model_id(model)?;
        Some(match &self.predict {
            Some(ps) => ps.window(id.index()),
            None => self.config.keep_alive,
        })
    }

    /// The registry backing this gateway's telemetry (and its `/metrics`
    /// endpoint).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Per-node weight-store snapshots, sorted by node id. Empty when
    /// [`GatewayConfig::store`] is `None`.
    pub fn store_stats_by_node(&self) -> Vec<(usize, StoreStats)> {
        let mut v: Vec<(usize, StoreStats)> = self
            .store_stats
            .lock()
            .iter()
            .map(|(node, stats)| (*node, *stats))
            .collect();
        v.sort_by_key(|(node, _)| *node);
        v
    }

    /// Fleet-wide weight-store statistics (all nodes merged), or `None`
    /// when the store is disabled.
    pub fn store_stats(&self) -> Option<StoreStats> {
        let per_node = self.store_stats.lock();
        if per_node.is_empty() {
            return None;
        }
        let mut total = StoreStats::default();
        for stats in per_node.values() {
            total.merge(stats);
        }
        Some(total)
    }

    /// Stop the workers and wait for them to finish outstanding requests.
    pub fn shutdown(self) {
        drop(self); // Drop closes the channels and joins the workers.
    }
}

/// The outcome of one inference: the response, or a serving error.
pub type InferenceResult = Result<InferenceResponse, ServeError>;

/// An in-flight request created by [`Gateway::submit`] and driven by
/// [`Gateway::poll`]. Holds the reply cell of the attempt currently
/// enqueued (or the instant a retry backoff expires) plus everything
/// needed to re-enqueue on another node if the serving worker dies.
pub struct PendingInference {
    model_id: ModelId,
    input: Tensor,
    /// Attempts consumed so far (bounded by the retry policy).
    attempt: u32,
    state: PendingState,
}

impl PendingInference {
    /// The reply cell of the attempt in flight, while waiting on one:
    /// [`Gateway::poll`] can make progress once it completes.
    pub(crate) fn reply_cell(&self) -> Option<ReplyCell> {
        match &self.state {
            PendingState::Waiting { reply, .. } => Some(reply.clone()),
            PendingState::Backoff { .. } => None,
        }
    }

    /// When the retry backoff ends, while waiting one out:
    /// [`Gateway::poll`] re-enqueues the request from then on.
    pub(crate) fn retry_at(&self) -> Option<Instant> {
        match self.state {
            PendingState::Backoff { until } => Some(until),
            PendingState::Waiting { .. } => None,
        }
    }
}

enum PendingState {
    /// Enqueued on `node`; the worker replies through `reply`.
    Waiting { node: usize, reply: ReplyCell },
    /// Waiting out a retry backoff without blocking the caller.
    Backoff { until: Instant },
}

/// An in-flight decode loop created by [`Gateway::submit_decode`] and
/// driven by [`Gateway::poll_decode`]: the prefill rides an ordinary
/// [`PendingInference`], plus the already-drawn output length and the
/// model size the decode tail is priced from.
pub struct PendingDecode {
    inner: PendingInference,
    /// Output tokens drawn for this loop at submission.
    tokens: usize,
    /// Registered model weight bytes (each decode iteration streams them
    /// once).
    model_bytes: u64,
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.workers.write().clear(); // closes the channels
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
        self.sink.flush();
        // Persist the predictor snapshot after the workers have joined,
        // so it includes every admitted request. Best-effort, with the
        // same write-then-rename discipline as the plan cache.
        if let (Some(path), Some(ps)) = (self.predict_state_path.as_deref(), &self.predict) {
            let json = ps.export_json();
            if !json.is_empty() {
                if let Some(parent) = path.parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                let tmp = path.with_extension("tmp");
                if std::fs::write(&tmp, json).is_ok() {
                    let _ = std::fs::rename(&tmp, path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::reply_cell;
    use optimus_model::GraphBuilder;
    use std::sync::atomic::AtomicUsize;

    fn gateway() -> Gateway {
        let mut b = GraphBuilder::new("m");
        let x = b.input([1, 3, 8, 8]);
        let _ = b.conv2d_after(x, 3, 4, (3, 3), (1, 1), 1);
        Gateway::builder(GatewayConfig {
            nodes: 1,
            store: None,
            ..GatewayConfig::default()
        })
        .metrics(Arc::new(MetricsRegistry::new()))
        .register(b.finish().unwrap())
        .spawn()
    }

    #[test]
    fn a_worker_dying_unsent_wakes_the_waiter_once_and_poll_retries_then_gives_up() {
        let gw = gateway();
        let (tx, reply) = reply_cell();
        let mut pending = PendingInference {
            model_id: gw.repo.model_id("m").unwrap(),
            input: Tensor::zeros([1, 3, 8, 8]),
            attempt: 0,
            state: PendingState::Waiting { node: 0, reply },
        };
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        pending.reply_cell().unwrap().on_complete(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(gw.poll(&mut pending).is_none(), "no reply yet");
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        drop(tx); // the worker died without replying
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // The death marks the node down and backs off before a retry.
        assert!(gw.poll(&mut pending).is_none());
        assert!(pending.retry_at().is_some());
        assert!(pending.reply_cell().is_none());
        assert_eq!(gw.healthy_nodes(), vec![false]);
        // With the retry budget spent, the same death is final.
        let (tx, reply) = reply_cell();
        pending.attempt = gw.retry.max_attempts - 1;
        pending.state = PendingState::Waiting { node: 0, reply };
        drop(tx);
        assert!(matches!(
            gw.poll(&mut pending),
            Some(Err(ServeError::Unavailable(_)))
        ));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }
}
