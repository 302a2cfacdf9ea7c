//! The platform simulator: gateway, nodes, containers, and the four
//! container-management policies.
//!
//! ## Hot-path data layout
//!
//! The per-event loop never touches a `String`: function names are
//! interned once at [`Platform::new`] into dense [`FunctionId`]s (see
//! `optimus_model::Interner`), per-function data lives in a `Vec`
//! indexed by id, containers carry ids, and the container-lifecycle
//! policy (`optimus_core::scheduler`) scans them in place through the
//! repository's id-keyed fast paths. Reusable scratch buffers in the
//! per-run [`RunCtx`] make the steady state of [`Platform::run`]
//! allocation-free.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use optimus_core::scheduler::{expire, lru, ContainerView, Lifecycle, Start};
use optimus_core::{ModelRepository, PlanChunks};
use optimus_faults::{FaultInjector, FaultKind, FaultReport, FaultStats, RequestFaults};
use optimus_fleet::{
    plan_multicast, remote_only_seconds, Autoscaler, FleetReport, FleetSignals, ScaleDecision,
};
use optimus_llm::{LlmReport, Patch as LlmPatch, TokenEngine};
use optimus_model::signature::OpSignature;
use optimus_model::{FunctionId, InternKey, Interner, ModelGraph, ModelId};
use optimus_predict::{PredictReport, Predictor, SpecCandidate};
use optimus_profile::{CostModel, CostProvider, PlatformProfile};
use optimus_store::{dedup_chunks, ChunkId, ChunkIndex, ChunkRef, NodeStore, StoreStats};
use optimus_telemetry::{RequestTrace, TelemetrySink};
use optimus_workload::{demand_histogram, Trace};

use crate::config::{PlacementStrategy, SimConfig};
use crate::metrics::{RequestRecord, SimReport, StartKind};
use crate::policy::Policy;

/// A simulated container: the lifecycle policy's view, keyed by function.
type Container = ContainerView<FunctionId>;

/// Per-function precomputed data, indexed by [`FunctionId`].
struct FunctionData {
    /// The repository's interned id of this function's model (function
    /// and model ids are separate interner namespaces).
    model_id: ModelId,
    load_cost: f64,
    compute_cost: f64,
    deserialize_cost: f64,
    /// Container memory footprint: model bytes + per-container overhead
    /// (added when a memory limit is configured).
    model_bytes: u64,
    /// `(interned signature, structure+assign cost)` per op — Tetris
    /// sharing input. Signatures are interned to dense `u32`s at build so
    /// the per-event residency check is an array probe, not a hash.
    op_sigs: Vec<(u32, f64)>,
}

/// Precomputed chunkings shared by every node's store (only built when
/// `SimConfig::store` is set).
struct StoreState {
    config: optimus_store::StoreConfig,
    /// Full chunk list per model — what a scratch load admits.
    model_chunks: ChunkIndex<FunctionId>,
    /// `src → dst → plan split` for every cached plan, as a dense
    /// function-count-strided table (`[src * n + dst]`): the payload
    /// chunks a transformation fetches vs. the destination chunks it
    /// reuses or synthesizes in place.
    plan_chunks: Vec<Option<PlanChunks>>,
    /// Union of all cached plans' payload chunks, pinned on every node so
    /// LRU pressure never evicts the bytes cached plans write.
    pinned: Vec<ChunkRef>,
    /// The persisted plan-cache artifact's content-addressed chunks
    /// (`SimConfig::plan_warm`): resident on initial nodes at boot and
    /// shipped to fleet joiners alongside the hot model's weights. Empty
    /// when `plan_warm` is off — every use degenerates to a no-op.
    artifact_chunks: Vec<ChunkRef>,
}

impl StoreState {
    /// Bytes a joiner must additionally receive to warm-load the
    /// persisted plan cache.
    fn artifact_bytes(&self) -> u64 {
        self.artifact_chunks.iter().map(|c| c.bytes).sum()
    }
}

/// Per-run fault-injection state (only built when `SimConfig::faults` is
/// set, so the fault-free hot path carries no extra work).
struct FaultCtx {
    injector: FaultInjector,
    stats: FaultStats,
    /// Worst observed `(init + load) − cold_equivalent` over all
    /// Optimus-served requests; `NEG_INFINITY` until the first audit.
    max_over_cold: f64,
    /// Per-node recovery deadline; a node is down while `now <
    /// down_until[node]`.
    down_until: Vec<f64>,
    /// Transform work wasted before a mid-flight failure is detected,
    /// clamped to `cold_init − repurpose_overhead` so an escalated
    /// request can never exceed its cold-start equivalent.
    abort: f64,
}

/// One in-flight scale-out wave: joiners still provisioning/warming and
/// the replica holders that can seed a re-planned transfer tree.
struct Wave {
    /// Hot function whose model the wave distributes.
    f: FunctionId,
    /// `(node, ready time)` of joiners not yet activated.
    pending: Vec<(usize, f64)>,
    /// Nodes holding the chunk set (seeds plus already-activated
    /// joiners) — replan sources if a crash interrupts the tree.
    sources: Vec<usize>,
    /// Virtual time the wave was planned (time-to-all-warm origin).
    started: f64,
}

/// Per-run elastic-fleet state (only built when `SimConfig::fleet` is
/// set, so the static-fleet path carries no extra work and stays
/// byte-identical).
struct FleetRt {
    autoscaler: Autoscaler,
    /// Whether each node slot is claimed by the fleet (serving or
    /// provisioning); unclaimed slots are available to the next
    /// scale-out.
    active: Vec<bool>,
    /// Time each node can serve from: `NEG_INFINITY` for the initial
    /// fleet, the provisioning+warming deadline for joiners, `INFINITY`
    /// for unclaimed slots.
    ready_at: Vec<f64>,
    /// Completion time of the last request each node served (the
    /// scale-in idle-window input).
    last_busy: Vec<f64>,
    waves: Vec<Wave>,
    report: FleetReport,
    /// Store statistics of scaled-in nodes, merged into the run total so
    /// draining a node never loses its hit/miss history.
    drained: StoreStats,
}

/// Per-run arrival-prediction state (only built when `SimConfig::predict`
/// is set, so the reactive path carries no extra work and stays
/// byte-identical).
struct PredictRt {
    predictor: Predictor,
    /// Per-function keep-alive windows. Initialized to (and, under an
    /// inert config or before any history, bit-exactly equal to)
    /// `config.keep_alive`; refreshed after each arrival from the
    /// predictor's tail cutoff.
    windows: Vec<f64>,
    report: PredictReport,
}

/// Token-level serving state (present when `SimConfig::llm` is set):
/// the continuous-batching engine plus the accounting the final
/// [`LlmReport`] summarizes. Patches produced by a join (revised finish
/// and first-token times for sequences already recorded) are drained
/// into `records` after each arrival — record indices are the engine's
/// request keys.
struct LlmRt {
    engine: TokenEngine,
    /// Re-projections pending application to already-pushed records.
    pending: Vec<LlmPatch>,
    /// Final time-to-first-token per record index (patched in place).
    ttfts: Vec<f64>,
    requests: u64,
    joins: u64,
    tokens: u64,
    peak_batch: u64,
}

impl LlmRt {
    fn note(&mut self, adm: &optimus_llm::Admission, arrival: f64, tokens: usize, joined: bool) {
        self.ttfts.push(adm.first_token - arrival);
        self.requests += 1;
        self.tokens += tokens as u64;
        self.joins += u64::from(joined);
        self.peak_batch = self.peak_batch.max(adm.batch_size as u64);
    }
}

/// Per-run state of one [`Platform::run`]: the container id counter,
/// reusable scratch buffers (sized once, cleared or generation-bumped per
/// event, so the event loop stays allocation-free after warm-up) and the
/// runtimes of the optional subsystems.
struct RunCtx {
    next_id: u64,
    /// Tetris residency marks: signature `s` is resident on the current
    /// node iff `sig_mark[s] == sig_gen`. Bumping the generation clears
    /// the whole set in O(1) instead of rebuilding a `HashSet` per event.
    sig_mark: Vec<u64>,
    sig_gen: u64,
    /// Function indices whose speculative transform is due at the current
    /// arrival.
    spec_due: Vec<usize>,
    faults: Option<FaultCtx>,
    predict: Option<PredictRt>,
    llm: Option<LlmRt>,
}

impl RunCtx {
    /// The fault layer's state; only called on paths a fault plan drives.
    fn faults(&mut self) -> &mut FaultCtx {
        self.faults.as_mut().expect("fault layer enabled")
    }

    /// Whether `node` is down at `now` (never, without a fault plan).
    fn node_down(&self, node: usize, now: f64) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|fc| fc.down_until[node] > now)
    }

    /// Count `n` speculated containers destroyed or retargeted before any
    /// request used them: each one is a misprediction.
    fn mispredicted(&mut self, n: u64) {
        if let Some(pr) = self.predict.as_mut() {
            pr.report.spec_mispredictions += n;
        }
    }

    /// Retarget donor `c` to `f` with a footprint of `need` bytes; an
    /// unused speculation on it missed.
    fn retarget(&mut self, c: &mut Container, f: FunctionId, need: u64) {
        if c.speculated {
            c.speculated = false;
            self.mispredicted(1);
        }
        c.model = f;
        c.mem_bytes = need;
    }

    /// Apply the request's fetch faults to a transport latency and count
    /// what was injected. With `fx == RequestFaults::none()` this is the
    /// bit-exact identity on `base`, so the fault-free path is
    /// unperturbed.
    fn faulted_transport(&mut self, base: f64, fx: &RequestFaults) -> f64 {
        if base > 0.0 {
            if let Some(fc) = self.faults.as_mut() {
                if fx.is_straggler() {
                    fc.stats.fetch_stragglers += 1;
                }
                fc.stats.fetch_retries += u64::from(fx.fetch_retries());
            }
        }
        fx.transport_seconds(base)
    }

    /// Count the corrupt-checkpoint reloads a scratch load performed (the
    /// caller applies [`RequestFaults::load_multiplier`] to the load
    /// cost).
    fn note_load_faults(&mut self, fx: &RequestFaults) {
        if fx.load_reloads > 0 {
            if let Some(fc) = self.faults.as_mut() {
                fc.stats.load_corruptions += u64::from(fx.load_reloads);
            }
        }
    }
}

/// One arrival being served.
struct Request {
    f: FunctionId,
    arrival: f64,
    /// Position in the trace: keys per-request fault and decode draws.
    index: u64,
    fx: RequestFaults,
}

/// A container obtained for a request: `(container index, init, load,
/// kind)`.
type Started = (usize, f64, f64, StartKind);

/// Internal request record carrying the interned function id; converted
/// to the public string-keyed [`RequestRecord`] once at the end of a run.
struct RawRecord {
    function: FunctionId,
    arrival: f64,
    wait: f64,
    init: f64,
    load: f64,
    compute: f64,
    kind: StartKind,
}

impl RawRecord {
    fn service_time(&self) -> f64 {
        self.wait + self.init + self.load + self.compute
    }
}

/// The simulated serverless ML inference platform.
pub struct Platform {
    config: SimConfig,
    policy: Policy,
    /// The container-lifecycle policy knobs of every node.
    lifecycle: Lifecycle,
    repo: Arc<ModelRepository>,
    profile: PlatformProfile,
    /// Function-name symbol table; [`FunctionId`]s index `functions`.
    interner: Interner<FunctionId>,
    functions: Vec<FunctionData>,
    /// Number of distinct interned op signatures (sizes the Tetris
    /// residency-mark buffer).
    sig_count: usize,
    /// Optional telemetry sink: every simulated request is exported as a
    /// [`RequestTrace`], the same schema and metric names the live
    /// gateway produces, so simulator runs and live serving are directly
    /// comparable.
    sink: Option<Arc<dyn TelemetrySink>>,
    /// Content-addressed store chunkings (when `SimConfig::store` is set).
    store: Option<StoreState>,
}

impl Platform {
    /// Build a platform running `policy` over the models registered in
    /// `repo`.
    ///
    /// Every function that later appears in a trace must already be
    /// registered in the repository (its model defines load and compute
    /// costs).
    pub fn new(config: SimConfig, policy: Policy, repo: Arc<ModelRepository>) -> Self {
        assert!(config.nodes > 0, "need at least one node");
        assert!(config.capacity_per_node > 0, "need container capacity");
        let cost = CostModel::new(config.env);
        let profile = PlatformProfile::new(config.env);
        // `model_names` is sorted, so id assignment is deterministic.
        let names = repo.model_names();
        let mut interner: Interner<FunctionId> = Interner::new();
        let mut functions = Vec::with_capacity(names.len());
        let mut sig_ids: HashMap<OpSignature, u32> = HashMap::new();
        for name in &names {
            let model = repo.model(name).expect("listed model exists");
            let op_sigs = model
                .ops()
                .map(|(_, op)| {
                    let sig = OpSignature::of(op);
                    let next = sig_ids.len() as u32;
                    let sid = *sig_ids.entry(sig).or_insert(next);
                    (
                        sid,
                        cost.structure_cost(&op.attrs) + cost.assign_cost(&op.attrs),
                    )
                })
                .collect();
            let fid = interner.resolve(name);
            debug_assert_eq!(fid.index(), functions.len(), "dense id assignment");
            functions.push(FunctionData {
                model_id: repo.model_id(name).expect("registered model has an id"),
                load_cost: cost.model_load_cost(&model),
                compute_cost: profile.compute_cost(&model),
                deserialize_cost: cost.deserialize_cost(&model),
                model_bytes: model.byte_size() as u64,
                op_sigs,
            });
        }
        let sig_count = sig_ids.len();
        let store = config.store.map(|sc| {
            sc.validate().expect("store config must be valid");
            let n = functions.len();
            // One chunking per model, deduplicated once here: every store
            // operation takes unique ids.
            let mut model_chunks = ChunkIndex::new();
            for f in 0..n {
                let fid = FunctionId::from_index(f);
                let model = repo.model(interner.name(fid)).expect("listed model exists");
                model_chunks.insert(
                    fid,
                    dedup_chunks(optimus_store::model_chunks(&model, sc.chunk_bytes)),
                );
            }
            // Plan splits reuse the destination's chunk list; the pinned
            // working set is the id-sorted union of their payloads.
            let mut plan_chunks: Vec<Option<PlanChunks>> = Vec::new();
            plan_chunks.resize_with(n * n, || None);
            let mut pinned: BTreeMap<ChunkId, ChunkRef> = BTreeMap::new();
            for src in 0..n {
                for dst in 0..n {
                    let Some(plan) =
                        repo.plan_by_id(functions[src].model_id, functions[dst].model_id)
                    else {
                        continue;
                    };
                    let dst_chunks = model_chunks
                        .get(FunctionId::from_index(dst))
                        .expect("every function is chunked");
                    let split = optimus_core::plan_chunks(&plan, dst_chunks, sc.chunk_bytes);
                    for &c in &split.fetched {
                        pinned.entry(c.id).or_insert(c);
                    }
                    plan_chunks[src * n + dst] = Some(split);
                }
            }
            let artifact_chunks = if config.plan_warm {
                repo.export_plan_artifact().chunks(sc.chunk_bytes)
            } else {
                Vec::new()
            };
            StoreState {
                config: sc,
                model_chunks,
                plan_chunks,
                pinned: pinned.into_values().collect(),
                artifact_chunks,
            }
        });
        Platform {
            lifecycle: Lifecycle {
                capacity: config.capacity_per_node,
                node_bytes: config.memory.map(|m| m.node_bytes),
                idle_threshold: config.idle_threshold,
            },
            config,
            policy,
            repo,
            profile,
            interner,
            functions,
            sig_count,
            sink: None,
            store,
        }
    }

    /// Build a platform directly from a model catalog: constructs a
    /// repository with the linear-time group planner, bulk-registers the
    /// catalog (parallel offline planning via
    /// [`ModelRepository::register_all`]), and wraps it in a platform.
    pub fn with_catalog(config: SimConfig, policy: Policy, models: Vec<ModelGraph>) -> Self {
        let repo = ModelRepository::new(Box::new(optimus_core::GroupPlanner));
        let cost = CostModel::new(config.env);
        repo.register_all(models, &cost);
        Platform::new(config, policy, Arc::new(repo))
    }

    /// Export every simulated request through `sink` (e.g. an
    /// [`optimus_telemetry::MetricsSink`], so a run fills the same
    /// counter/histogram families as the live gateway, or a
    /// [`optimus_telemetry::JsonlSink`] for per-request traces).
    pub fn with_sink(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The policy this platform runs.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Compute the function→node placement for a trace.
    pub fn placement(&self, trace: &Trace) -> HashMap<String, usize> {
        let names = trace.functions();
        let points: Vec<optimus_balance::FunctionPoint> = names
            .iter()
            .map(|n| optimus_balance::FunctionPoint {
                name: n.clone(),
                demand: demand_histogram(trace, n, self.config.demand_slot),
            })
            .collect();
        let assignment = match self.config.placement {
            PlacementStrategy::SharingAware { gamma_d, gamma_k } => {
                let balancer = optimus_balance::SharingAwareBalancer { gamma_d, gamma_k };
                let repo = self.repo.clone();
                let edit =
                    move |a: &str, b: &str| repo.transform_latency(a, b).unwrap_or(f64::MAX / 4.0);
                balancer.place(&points, &edit, self.config.nodes)
            }
            PlacementStrategy::Hash => optimus_balance::hash_placement(&points, self.config.nodes),
            PlacementStrategy::LeastLoaded => {
                optimus_balance::least_loaded_placement(&points, self.config.nodes)
            }
        };
        names.into_iter().zip(assignment).collect()
    }

    /// Run a trace to completion and report per-request latencies.
    ///
    /// # Panics
    ///
    /// Panics when the trace invokes a function not registered in the
    /// repository.
    pub fn run(&self, trace: &Trace) -> SimReport {
        // Resolve every invocation to an interned id once; the event loop
        // below is string-free.
        let fids = trace
            .lookup_function_ids(&self.interner)
            .unwrap_or_else(|name| panic!("function '{name}' not registered in the repository"));
        // Function → node placement as a dense table indexed by id.
        let mut placement = vec![usize::MAX; self.functions.len()];
        for (name, node) in self.placement(trace) {
            let fid = self
                .interner
                .get(&name)
                .expect("placed function is registered");
            placement[fid.index()] = node;
        }
        // With an elastic fleet the node table is sized to the scaling
        // ceiling up front; slots past the initial fleet hold no store
        // until a scale-out provisions them. `total_nodes == config.nodes`
        // when the fleet is off, so the static path is untouched.
        let total_nodes = self
            .config
            .fleet
            .as_ref()
            .map_or(self.config.nodes, |fc| fc.max_nodes.max(self.config.nodes));
        let mut nodes: Vec<NodeState> = (0..total_nodes)
            .map(|i| {
                let mut node = NodeState::default();
                if i < self.config.nodes {
                    if let Some(ss) = &self.store {
                        let mut store = NodeStore::new(ss.config);
                        store.pin(&ss.pinned);
                        // Boot-time warm load of the persisted plan cache
                        // (empty unless `plan_warm`): the artifact is
                        // already on node disk/memory, not re-planned.
                        store.warm(&ss.artifact_chunks);
                        node.store = Some(store);
                    }
                }
                node
            })
            .collect();
        let mut fleet = self.config.fleet.as_ref().map(|fc| {
            let mut active = vec![false; total_nodes];
            let mut ready_at = vec![f64::INFINITY; total_nodes];
            for n in 0..self.config.nodes {
                active[n] = true;
                ready_at[n] = f64::NEG_INFINITY;
            }
            FleetRt {
                autoscaler: Autoscaler::new(*fc),
                active,
                ready_at,
                last_busy: vec![f64::NEG_INFINITY; total_nodes],
                waves: Vec::new(),
                report: FleetReport {
                    peak_nodes: self.config.nodes,
                    ..FleetReport::default()
                },
                drained: StoreStats::default(),
            }
        });
        let mut records: Vec<RequestRecord> = Vec::with_capacity(trace.len());
        let mut ctx = RunCtx {
            next_id: 0,
            sig_mark: vec![0; self.sig_count],
            sig_gen: 0,
            spec_due: Vec::new(),
            faults: self.config.faults.as_ref().map(|plan| {
                plan.validate().expect("fault plan must be valid");
                FaultCtx {
                    injector: FaultInjector::new(plan),
                    stats: FaultStats::default(),
                    max_over_cold: f64::NEG_INFINITY,
                    down_until: vec![f64::NEG_INFINITY; total_nodes],
                    abort: plan
                        .spec
                        .transform_abort_seconds
                        .min((self.profile.cold_init() - self.profile.repurpose_overhead).max(0.0)),
                }
            }),
            predict: self.config.predict.map(|pc| {
                pc.validate().expect("predict config must be valid");
                PredictRt {
                    predictor: Predictor::new(pc, self.functions.len()),
                    windows: vec![self.config.keep_alive; self.functions.len()],
                    report: PredictReport::default(),
                }
            }),
            llm: self.config.llm.map(|lc| {
                lc.validate().expect("llm config must be valid");
                LlmRt {
                    engine: TokenEngine::new(lc),
                    pending: Vec::new(),
                    ttfts: Vec::with_capacity(trace.len()),
                    requests: 0,
                    joins: 0,
                    tokens: 0,
                    peak_batch: 0,
                }
            }),
        };
        for (req_index, (inv, &f)) in trace.invocations.iter().zip(&fids).enumerate() {
            // Execute due speculative transforms before this arrival. The
            // arriving function itself is left to the reactive path (its
            // band stays armed), so speculation only ever runs *ahead* of
            // a predicted arrival.
            if let Some(pr) = ctx.predict.as_mut() {
                if pr.predictor.config().speculation.is_some() {
                    let mut due = std::mem::take(&mut ctx.spec_due);
                    due.clear();
                    pr.predictor
                        .due_speculations(inv.time, |c| c != f.index(), &mut due);
                    for &c in &due {
                        let tf = FunctionId::from_index(c);
                        let node_idx = placement[tf.index()];
                        // A down node cannot run a speculative transform.
                        if ctx.node_down(node_idx, inv.time) {
                            if let Some(pr) = ctx.predict.as_mut() {
                                pr.report.spec_skipped += 1;
                            }
                            continue;
                        }
                        self.speculate(&mut nodes[node_idx], &mut ctx, inv.time, tf);
                    }
                    ctx.spec_due = due;
                }
            }
            let home = placement[f.index()];
            let mut node_idx = home;
            let mut start_at = inv.time;
            let mut fx = RequestFaults::none();
            if ctx.faults.is_some() {
                // Apply scheduled node-level events that have become due.
                // `due` borrows the injector, so copy the (rare) events out
                // before mutating node state below.
                let due: Vec<_> = ctx.faults().injector.due(inv.time).to_vec();
                for ev in due {
                    if ev.node >= nodes.len() {
                        continue;
                    }
                    match ev.kind {
                        FaultKind::NodeCrash => {
                            Self::crash_node(&mut nodes[ev.node], &mut ctx, ev.node, ev.at);
                            if let Some(fl) = fleet.as_mut() {
                                let down = &ctx.faults().down_until;
                                self.fleet_on_crash(fl, &nodes, down, ev.node, ev.at);
                            }
                        }
                        FaultKind::ContainerKill => {
                            if let Some(victim) = lru(&nodes[ev.node].containers, |_| true) {
                                self.kill_container(&mut nodes[ev.node], &mut ctx, victim);
                            }
                        }
                    }
                }
                fx = ctx.faults().injector.for_request(req_index as u64);
                if fx.node_crash {
                    Self::crash_node(&mut nodes[home], &mut ctx, home, inv.time);
                    if let Some(fl) = fleet.as_mut() {
                        let down = &ctx.faults().down_until;
                        self.fleet_on_crash(fl, &nodes, down, home, inv.time);
                    }
                }
                if fleet.is_none() {
                    // Degraded-mode routing: skip down nodes; when the
                    // whole fleet is down, queue on the first node to
                    // recover.
                    let fc = ctx.faults();
                    let routed = optimus_balance::failover_node(
                        home,
                        self.config.nodes,
                        |n| fc.down_until[n] <= inv.time,
                        |n| nodes[n].containers.len() as f64,
                    );
                    match routed {
                        Some(n) => node_idx = n,
                        None => {
                            let n = (0..self.config.nodes)
                                .min_by(|&a, &b| {
                                    fc.down_until[a]
                                        .partial_cmp(&fc.down_until[b])
                                        .expect("finite deadline")
                                        .then(a.cmp(&b))
                                })
                                .expect("nodes > 0");
                            node_idx = n;
                            start_at = fc.down_until[n];
                        }
                    }
                    if node_idx != home {
                        fc.stats.reroutes += 1;
                    }
                }
            }
            if let Some(fl) = fleet.as_mut() {
                self.fleet_step(fl, &mut nodes, &mut ctx, inv.time, f, home);
                // Elastic routing: a saturated (or down) home spills onto
                // the least-loaded warm node of the active fleet.
                let home_down = ctx.node_down(home, inv.time);
                let routed = optimus_balance::spill_node(
                    home,
                    nodes.len(),
                    |n| fl.active[n] && fl.ready_at[n] <= inv.time && !ctx.node_down(n, inv.time),
                    |n| {
                        nodes[n].containers.len() >= self.config.capacity_per_node
                            && !nodes[n].containers.iter().any(|c| c.busy_until <= inv.time)
                    },
                    |n| nodes[n].containers.len() as f64,
                );
                match routed {
                    Some(n) => node_idx = n,
                    None => {
                        // Every usable node is down: queue on the first
                        // active node to recover (mirrors the static path).
                        let fc = ctx
                            .faults
                            .as_ref()
                            .expect("only faults can down the whole fleet");
                        let n = (0..nodes.len())
                            .filter(|&n| fl.active[n] && fl.ready_at[n] <= inv.time)
                            .min_by(|&a, &b| {
                                fc.down_until[a]
                                    .partial_cmp(&fc.down_until[b])
                                    .expect("finite deadline")
                                    .then(a.cmp(&b))
                            })
                            .expect("the initial fleet is always active");
                        node_idx = n;
                        start_at = fc.down_until[n];
                    }
                }
                if node_idx != home && home_down {
                    if let Some(fc) = ctx.faults.as_mut() {
                        fc.stats.reroutes += 1;
                    }
                }
            }
            let req = Request {
                f,
                arrival: inv.time,
                index: req_index as u64,
                fx,
            };
            let raw = self.serve(&mut nodes[node_idx], &mut ctx, &req, start_at);
            if let Some(fl) = fleet.as_mut() {
                let done = raw.arrival + raw.service_time();
                if done > fl.last_busy[node_idx] {
                    fl.last_busy[node_idx] = done;
                }
            }
            if let Some(sink) = &self.sink {
                sink.record(&trace_of(&raw, self.interner.name(f), node_idx));
            }
            // The one unavoidable allocation per request: the public
            // record schema carries the function name as a `String`.
            records.push(RequestRecord {
                function: self.interner.name(raw.function).to_string(),
                arrival: raw.arrival,
                wait: raw.wait,
                init: raw.init,
                load: raw.load,
                compute: raw.compute,
                kind: raw.kind,
            });
            // Apply continuous-batching re-projections: a join slows the
            // iterations of sequences quoted under the smaller batch, so
            // their recorded decode time (and, if still prefilling, their
            // first token) moves. The decode loop starts once init + load
            // finish — `arrival + wait + init + load` is already in the
            // record (init and load are zero for warm starts and joins),
            // so the patch needs no side table.
            if let Some(lr) = ctx.llm.as_mut() {
                for p in lr.pending.drain(..) {
                    let idx = p.req as usize;
                    let r = &mut records[idx];
                    r.compute = p.finish - (r.arrival + r.wait + r.init + r.load);
                    lr.ttfts[idx] = p.first_token - r.arrival;
                }
            }
            // Feed the arrival predictor and refresh the function's
            // adaptive keep-alive window.
            if let Some(pr) = ctx.predict.as_mut() {
                pr.predictor.observe(f.index(), inv.time);
                pr.report.observed_arrivals += 1;
                let w = pr.predictor.keep_alive(f.index(), self.config.keep_alive);
                pr.windows[f.index()] = w;
                pr.report.window_seconds_sum += w;
                pr.report.window_samples += 1;
            }
        }
        if let Some(sink) = &self.sink {
            sink.flush();
        }
        let store = self.store.as_ref().map(|_| {
            let mut agg = StoreStats::default();
            if let Some(fl) = &fleet {
                agg.merge(&fl.drained);
            }
            for node in &nodes {
                if let Some(store) = &node.store {
                    agg.merge(&store.stats());
                }
            }
            agg
        });
        let faults = ctx.faults.map(|fc| FaultReport {
            stats: fc.stats,
            max_over_cold: if fc.max_over_cold.is_finite() {
                fc.max_over_cold
            } else {
                0.0
            },
        });
        SimReport {
            system: self.policy.name().to_string(),
            records,
            store,
            faults,
            fleet: fleet.map(|fl| fl.report),
            predict: ctx.predict.map(|pr| pr.report),
            llm: ctx.llm.map(|lr| {
                LlmReport::summarize(lr.requests, lr.joins, lr.tokens, lr.peak_batch, &lr.ttfts)
            }),
        }
    }

    /// Crash a node at time `at`: every container is lost, the store's
    /// volatile tiers are wiped, and the node stays down until
    /// `at + recovery_seconds`. Idempotent while the node is already down.
    fn crash_node(node: &mut NodeState, ctx: &mut RunCtx, node_idx: usize, at: f64) {
        let fc = ctx.faults();
        if fc.down_until[node_idx] > at {
            return;
        }
        fc.down_until[node_idx] = at + fc.injector.spec().recovery_seconds;
        fc.stats.node_crashes += 1;
        fc.stats.crash_container_evictions += node.containers.len() as u64;
        ctx.mispredicted(node.containers.iter().filter(|c| c.speculated).count() as u64);
        node.containers.clear();
        if let Some(store) = node.store.as_mut() {
            store.crash();
        }
    }

    /// One elastic-fleet control step, run before routing each arrival:
    /// activate joiners whose provisioning finished, drain idle extras,
    /// and feed the autoscaler the current slot-pressure signals (scaling
    /// out when it fires). Every decision is a pure function of observed
    /// virtual-time state — no wall clock, no randomness — so runs stay
    /// byte-identical under any thread count.
    fn fleet_step(
        &self,
        fl: &mut FleetRt,
        nodes: &mut [NodeState],
        ctx: &mut RunCtx,
        now: f64,
        f: FunctionId,
        home: usize,
    ) {
        // 1. Activate joiners whose provisioning + warm transfer is done:
        //    provision the node store and place the wave's chunk set at
        //    node memory (the bytes were priced by the transfer plan).
        for w in 0..fl.waves.len() {
            let mut i = 0;
            while i < fl.waves[w].pending.len() {
                let (n, ready) = fl.waves[w].pending[i];
                if ready > now {
                    i += 1;
                    continue;
                }
                fl.waves[w].pending.swap_remove(i);
                if let Some(ss) = &self.store {
                    let mut store = NodeStore::new(ss.config);
                    store.pin(&ss.pinned);
                    if let Some(chunks) = ss.model_chunks.get(fl.waves[w].f) {
                        store.warm(chunks);
                    }
                    // The plan-cache artifact rode the same transfer
                    // (empty unless `plan_warm`).
                    store.warm(&ss.artifact_chunks);
                    nodes[n].store = Some(store);
                }
                fl.waves[w].sources.push(n);
                fl.last_busy[n] = ready;
                fl.report.nodes_added += 1;
            }
        }
        fl.waves.retain(|w| !w.pending.is_empty());
        // 2. Scale-in: an extra node whose idle window elapsed and whose
        //    containers all aged out of keep-alive drains back out of the
        //    fleet (its store statistics are preserved in `drained`).
        for n in self.config.nodes..nodes.len() {
            if !fl.active[n] || fl.ready_at[n] > now {
                continue;
            }
            self.evict_expired(&mut nodes[n], ctx, now);
            if nodes[n].containers.is_empty() && fl.autoscaler.scale_in_ready(now, fl.last_busy[n])
            {
                fl.active[n] = false;
                fl.ready_at[n] = f64::INFINITY;
                if let Some(store) = nodes[n].store.take() {
                    fl.drained.merge(&store.stats());
                }
                fl.report.scale_ins += 1;
                fl.report.nodes_removed += 1;
            }
        }
        // 3. Autoscaler signals: busy slots over the ready fleet's
        //    capacity, queue depth proxied by home-node saturation.
        let mut ready_nodes = 0usize;
        let mut busy = 0usize;
        for (n, node) in nodes.iter().enumerate() {
            if fl.active[n] && fl.ready_at[n] <= now {
                ready_nodes += 1;
                busy += node
                    .containers
                    .iter()
                    .filter(|c| c.busy_until > now)
                    .count();
            }
        }
        let home_full = nodes[home].containers.len() >= self.config.capacity_per_node
            && !nodes[home].containers.iter().any(|c| c.busy_until <= now);
        // Predictive scale-out signal: arrivals the predictor forecasts
        // within the provisioning horizon count as demand, so the fleet
        // can grow *before* the queue builds. 0 with prediction off —
        // the reactive pressure bit-for-bit.
        let predicted = ctx.predict.as_ref().map_or(0, |pr| {
            pr.predictor
                .predicted_arrivals(now, fl.autoscaler.config().provision_s)
        });
        let signals = FleetSignals {
            active_nodes: fl.active.iter().filter(|&&a| a).count(),
            busy_slots: busy,
            total_slots: ready_nodes * self.config.capacity_per_node,
            queued: usize::from(home_full),
            predicted,
        };
        if signals.active_nodes > fl.report.peak_nodes {
            fl.report.peak_nodes = signals.active_nodes;
        }
        let ScaleDecision::ScaleOut(k) = fl.autoscaler.observe(now, &signals) else {
            return;
        };
        // 4. Claim the lowest-index free slots and plan their warm-up;
        //    the triggering function's model is the hot set to distribute.
        let joiners: Vec<usize> = (self.config.nodes..nodes.len())
            .filter(|&n| !fl.active[n] && !ctx.node_down(n, now))
            .take(k)
            .collect();
        if joiners.is_empty() {
            return;
        }
        for &n in &joiners {
            fl.active[n] = true;
        }
        fl.report.scale_outs += 1;
        let base = now + fl.autoscaler.config().provision_s;
        // Joiners receive the persisted plan cache alongside the hot
        // model's weights (0 extra bytes unless `plan_warm`).
        let bytes = self.functions[f.index()].model_bytes
            + self.store.as_ref().map_or(0, |ss| ss.artifact_bytes());
        let mut pending: Vec<(usize, f64)> = Vec::with_capacity(joiners.len());
        let mut sources: Vec<usize> = Vec::new();
        let mut all_warm = fl.autoscaler.config().provision_s;
        match &self.store {
            Some(ss) if fl.autoscaler.config().multicast => {
                // P2P multicast: seed from every ready node holding the
                // full chunk set locally; joiners warm in O(log N) rounds
                // over the interconnect.
                let chunks = ss.model_chunks.get(f);
                let seeds: Vec<usize> = nodes
                    .iter()
                    .enumerate()
                    .filter(|&(n, node)| {
                        fl.active[n]
                            && fl.ready_at[n] <= now
                            && !ctx.node_down(n, now)
                            && node
                                .store
                                .as_ref()
                                .zip(chunks)
                                .is_some_and(|(s, c)| s.estimate(c).remote_bytes == 0)
                    })
                    .map(|(n, _)| n)
                    .collect();
                let plan = plan_multicast(
                    &seeds,
                    &joiners,
                    bytes,
                    ss.config.interconnect,
                    ss.config.remote,
                );
                for &(n, off) in &plan.warm_at {
                    pending.push((n, base + off));
                    fl.ready_at[n] = base + off;
                }
                fl.report.multicast_waves += 1;
                fl.report.multicast_rounds += plan.rounds() as u64;
                fl.report.multicast_bytes += plan.peer_bytes;
                fl.report.remote_warm_bytes += plan.remote_bytes;
                all_warm += plan.total_seconds;
                sources = seeds;
            }
            Some(ss) => {
                // Remote-only baseline: every joiner fetches the model
                // from the origin over its shared egress link (linear).
                for (i, &n) in joiners.iter().enumerate() {
                    let ready = base + remote_only_seconds(i + 1, bytes, ss.config.remote);
                    pending.push((n, ready));
                    fl.ready_at[n] = ready;
                }
                fl.report.remote_warm_bytes += bytes * joiners.len() as u64;
                all_warm += remote_only_seconds(joiners.len(), bytes, ss.config.remote);
            }
            None => {
                // No store: joiners are ready after bare provisioning.
                for &n in &joiners {
                    pending.push((n, base));
                    fl.ready_at[n] = base;
                }
            }
        }
        if all_warm > fl.report.time_to_all_warm {
            fl.report.time_to_all_warm = all_warm;
        }
        fl.waves.push(Wave {
            f,
            pending,
            sources,
            started: now,
        });
    }

    /// A node crashed: un-claim it from any in-flight wave and, when it
    /// was seeding a multicast, re-root the transfer tree from the
    /// surviving replica holders — requests keep flowing, only the plan
    /// is redone (the planner being a pure function keeps this
    /// deterministic).
    fn fleet_on_crash(
        &self,
        fl: &mut FleetRt,
        nodes: &[NodeState],
        down_until: &[f64],
        crashed: usize,
        at: f64,
    ) {
        for w in 0..fl.waves.len() {
            let was_pending = fl.waves[w].pending.iter().any(|&(n, _)| n == crashed);
            if was_pending {
                // The joiner died mid-provision: it never activates and
                // its slot becomes claimable again once it recovers.
                fl.waves[w].pending.retain(|&(n, _)| n != crashed);
                fl.active[crashed] = false;
                fl.ready_at[crashed] = f64::INFINITY;
            }
            let was_source = fl.waves[w].sources.contains(&crashed);
            fl.waves[w].sources.retain(|&n| n != crashed);
            if !was_source || fl.waves[w].pending.is_empty() {
                continue;
            }
            let Some(ss) = &self.store else { continue };
            if !fl.autoscaler.config().multicast {
                continue;
            }
            // Re-root: replan the outstanding transfers from replicas
            // that survived (falling back to one origin injection when
            // the crash wiped every replica).
            let bytes = self.functions[fl.waves[w].f.index()].model_bytes + ss.artifact_bytes();
            let chunks = ss.model_chunks.get(fl.waves[w].f);
            let seeds: Vec<usize> = fl.waves[w]
                .sources
                .iter()
                .copied()
                .filter(|&n| {
                    down_until[n] <= at
                        && nodes[n]
                            .store
                            .as_ref()
                            .zip(chunks)
                            .is_some_and(|(s, c)| s.estimate(c).remote_bytes == 0)
                })
                .collect();
            let joiners: Vec<usize> = fl.waves[w].pending.iter().map(|&(n, _)| n).collect();
            let plan = plan_multicast(
                &seeds,
                &joiners,
                bytes,
                ss.config.interconnect,
                ss.config.remote,
            );
            for &(n, off) in &plan.warm_at {
                for p in fl.waves[w].pending.iter_mut() {
                    if p.0 == n {
                        p.1 = at + off;
                    }
                }
                fl.ready_at[n] = at + off;
            }
            fl.report.reroots += 1;
            fl.report.multicast_rounds += plan.rounds() as u64;
            fl.report.multicast_bytes += plan.peer_bytes;
            fl.report.remote_warm_bytes += plan.remote_bytes;
            let all_warm = at + plan.total_seconds - fl.waves[w].started;
            if all_warm > fl.report.time_to_all_warm {
                fl.report.time_to_all_warm = all_warm;
            }
        }
        fl.waves.retain(|w| !w.pending.is_empty());
    }

    /// Kill one container (OOM-killer stand-in), releasing its model's
    /// chunk references back into the store.
    fn kill_container(&self, node: &mut NodeState, ctx: &mut RunCtx, victim: usize) {
        let dead = node.containers.swap_remove(victim);
        ctx.mispredicted(u64::from(dead.speculated));
        self.store_release(&mut node.store, dead.model);
        ctx.faults().stats.container_kills += 1;
    }

    /// Transport seconds of the dst-model bytes missing on the node right
    /// now — the cold-start equivalent the safeguard audit compares
    /// against (0 without a store).
    fn store_estimate(&self, node: &NodeState, f: FunctionId) -> f64 {
        let (Some(ss), Some(store)) = (&self.store, node.store.as_ref()) else {
            return 0.0;
        };
        ss.model_chunks
            .get(f)
            .map_or(0.0, |chunks| store.estimate(chunks).seconds)
    }

    /// Release the chunk references of a container that stopped holding
    /// `f`'s model (keep-alive expiry, eviction or a kill).
    fn store_release(&self, store: &mut Option<NodeStore>, f: FunctionId) {
        if let (Some(ss), Some(store)) = (&self.store, store.as_mut()) {
            if let Some(chunks) = ss.model_chunks.get(f) {
                store.release(chunks);
            }
        }
    }

    /// Evict keep-alive-expired containers, releasing their chunks. With
    /// prediction on, each container is judged against its function's
    /// adaptive window (bit-identical to the global constant until the
    /// predictor has history) and destroyed speculated containers count
    /// as mispredictions.
    fn evict_expired(&self, node: &mut NodeState, ctx: &mut RunCtx, now: f64) {
        let windows = ctx.predict.as_ref().map(|pr| &pr.windows);
        let window = |f: FunctionId| windows.map_or(self.config.keep_alive, |w| w[f.index()]);
        let mut missed = 0;
        expire(&mut node.containers, now, window, |c| {
            missed += u64::from(c.speculated);
            self.store_release(&mut node.store, c.model);
        });
        ctx.mispredicted(missed);
    }

    /// [`Lifecycle::free_slot`] plus chunk release for every container it
    /// destroyed (even when it ultimately fails for lack of a free victim).
    fn free_slot(&self, node: &mut NodeState, ctx: &mut RunCtx, need: u64, now: f64) -> Option<()> {
        let mut missed = 0;
        let ok = self
            .lifecycle
            .free_slot(&mut node.containers, need, now, |c| {
                missed += u64::from(c.speculated);
                self.store_release(&mut node.store, c.model);
            });
        ctx.mispredicted(missed);
        ok.then_some(())
    }

    /// A container starts holding `f` via a scratch load: admit the
    /// model's full chunk list and return the transport seconds for the
    /// bytes missing at each tier (0 without a store).
    fn store_admit(&self, node: &mut NodeState, f: FunctionId) -> f64 {
        let (Some(ss), Some(store)) = (&self.store, node.store.as_mut()) else {
            return 0.0;
        };
        ss.model_chunks
            .get(f)
            .map_or(0.0, |chunks| store.admit(chunks).seconds)
    }

    /// A donor holding `src` is repurposed into `dst`. With a cached plan
    /// (`transform == true`) only the plan's payload chunks are admitted
    /// (priced) while the reused remainder is synthesized in place from
    /// source content; a scratch repurpose admits the full model. The
    /// destination is admitted *before* the source is released, so chunks
    /// the two models share stay at container tier and cost nothing.
    fn store_repurpose(
        &self,
        node: &mut NodeState,
        src: FunctionId,
        dst: FunctionId,
        transform: bool,
    ) -> f64 {
        let (Some(ss), Some(store)) = (&self.store, node.store.as_mut()) else {
            return 0.0;
        };
        let n = self.functions.len();
        let split = transform
            .then(|| ss.plan_chunks[src.index() * n + dst.index()].as_ref())
            .flatten();
        let seconds = match split {
            Some(pc) => {
                let cost = store.admit(&pc.fetched);
                store.produce(&pc.reused);
                cost.seconds
            }
            None => ss
                .model_chunks
                .get(dst)
                .map_or(0.0, |chunks| store.admit(chunks).seconds),
        };
        if let Some(chunks) = ss.model_chunks.get(src) {
            store.release(chunks);
        }
        seconds
    }

    /// Read-only preview of [`Platform::store_repurpose`] with a cached
    /// plan: the transport seconds the payload fetch would pay right now
    /// (0 without a store). The speculation cost gate prices a candidate
    /// with this before any store state is mutated; because nothing moves
    /// between the estimate and the admit, the executed cost equals it.
    fn store_repurpose_estimate(&self, node: &NodeState, src: FunctionId, dst: FunctionId) -> f64 {
        let (Some(ss), Some(store)) = (&self.store, node.store.as_ref()) else {
            return 0.0;
        };
        let n = self.functions.len();
        match ss.plan_chunks[src.index() * n + dst.index()].as_ref() {
            Some(pc) => store.estimate(&pc.fetched).seconds,
            None => ss
                .model_chunks
                .get(dst)
                .map_or(0.0, |chunks| store.estimate(chunks).seconds),
        }
    }

    /// Execute one speculative transformation for predicted-hot `f` at
    /// time `at`: convert the cheapest idle donor toward it, but only
    /// when the cost-model gate admits the candidate — the speculation
    /// must be cheaper than the cold start it would replace (the hard
    /// budget bounding any misprediction), and its confidence-weighted
    /// expected saving must beat the expected misprediction waste.
    fn speculate(&self, node: &mut NodeState, ctx: &mut RunCtx, at: f64, f: FunctionId) {
        let Some(pr) = ctx.predict.as_mut() else {
            return;
        };
        let Some(spec) = pr.predictor.config().speculation else {
            return;
        };
        let Some(forecast) = pr.predictor.forecast(f.index()) else {
            pr.report.spec_skipped += 1;
            return;
        };
        self.evict_expired(node, ctx, at);
        let pr = ctx
            .predict
            .as_mut()
            .expect("speculation runs with prediction on");
        if Lifecycle::warm(&node.containers, f, at).is_some() {
            pr.report.spec_skipped += 1; // already warm: nothing to gain
            return;
        }
        let need = self.footprint(f);
        let data = &self.functions[f.index()];
        let choice =
            self.lifecycle
                .speculation_source(&self.repo, &node.containers, f, need, at, |g| {
                    self.functions[g.index()].model_id
                });
        let Some(choice) = choice else {
            pr.report.spec_skipped += 1; // no idle donor with a plan
            return;
        };
        let ci = choice.container;
        let src = node.containers[ci].model;
        let candidate = SpecCandidate {
            spec_cost: self.profile.repurpose_overhead
                + choice.latency
                + self.store_repurpose_estimate(node, src, f),
            cold_cost: self.profile.cold_init() + data.load_cost + self.store_estimate(node, f),
            confidence: forecast.confidence,
        };
        if !candidate.admit(spec.aggressiveness) {
            pr.report.spec_skipped += 1;
            return;
        }
        let transport = self.store_repurpose(node, src, f, true);
        // A donor that was itself an unused speculation for another
        // function: that earlier guess missed.
        let c = &mut node.containers[ci];
        ctx.retarget(c, f, need);
        // Busy while the speculative transform runs; last_routed stays
        // untouched so a wrong guess leaves the container donatable.
        let cost = self.profile.repurpose_overhead + choice.latency + transport;
        c.busy_until = at + cost;
        c.speculated = true;
        let pr = ctx
            .predict
            .as_mut()
            .expect("speculation runs with prediction on");
        pr.report.speculations += 1;
        pr.report.spec_cost_seconds += cost;
        // Executed cost vs. the cold start replaced: the gate guarantees
        // this stays negative, and the first sample seeds the maximum so
        // the default 0.0 never masks a (negative) true worst case.
        let over = cost - candidate.cold_cost;
        if pr.report.speculations == 1 || over > pr.report.max_spec_over_budget {
            pr.report.max_spec_over_budget = over;
        }
    }

    /// Container footprint of a function under the configured memory limit.
    fn footprint(&self, f: FunctionId) -> u64 {
        let model = self.functions[f.index()].model_bytes;
        match &self.config.memory {
            Some(m) => model + m.container_overhead,
            None => 0,
        }
    }

    fn serve(
        &self,
        node: &mut NodeState,
        ctx: &mut RunCtx,
        req: &Request,
        start_at: f64,
    ) -> RawRecord {
        let (f, arrival, fx) = (req.f, req.arrival, &req.fx);
        let mut now = start_at.max(arrival);
        self.evict_expired(node, ctx, now);
        // Injected container kill on the routed node: one warm container
        // dies (chunks released) just before the request is served.
        if fx.container_kill && !node.containers.is_empty() && ctx.faults.is_some() {
            let victim = fx.victim_index(node.containers.len());
            self.kill_container(node, ctx, victim);
        }
        let compute = self.functions[f.index()].compute_cost;
        loop {
            // 1. Warm start: a free container already holds the model.
            if let Some(ci) = Lifecycle::warm(&node.containers, f, now) {
                let c = &mut node.containers[ci];
                if c.speculated {
                    // A speculative transform paid off: this request warm-
                    // starts instead of paying init + load.
                    c.speculated = false;
                    if let Some(pr) = ctx.predict.as_mut() {
                        let data = &self.functions[f.index()];
                        pr.report.spec_hits += 1;
                        pr.report.spec_saved_seconds += self.profile.cold_init() + data.load_cost;
                    }
                }
                if let Some(lr) = ctx.llm.as_mut() {
                    // Token-level serving: the warm container starts a
                    // fresh decode loop immediately (no init, no load).
                    let id = c.id;
                    let n = lr.engine.config().decode_tokens(req.index);
                    let bytes = self.functions[f.index()].model_bytes;
                    let adm = lr.engine.begin(id, bytes, now, req.index, n);
                    lr.note(&adm, arrival, n, false);
                    let c = &mut node.containers[ci];
                    c.route(now, adm.batch_busy_until);
                    return RawRecord {
                        function: f,
                        arrival,
                        wait: now - arrival,
                        init: 0.0,
                        load: 0.0,
                        compute: adm.finish - adm.admitted_at,
                        kind: StartKind::Warm,
                    };
                }
                c.route(now, now + compute);
                return RawRecord {
                    function: f,
                    arrival,
                    wait: now - arrival,
                    init: 0.0,
                    load: 0.0,
                    compute,
                    kind: StartKind::Warm,
                };
            }
            // 1b. Continuous batching: no free container, but a *busy*
            // container decoding this same model admits new sequences at
            // its next iteration boundary (Orca-style iteration-level
            // scheduling) — the request shares the per-iteration weight
            // sweep instead of waiting for the loop to drain or paying a
            // cold start. Deterministic pick: the smallest live batch,
            // ties to the lowest container index.
            if let Some(lr) = ctx.llm.as_mut() {
                let mut best: Option<(usize, usize)> = None;
                for ci in 0..node.containers.len() {
                    let c = node.containers[ci];
                    if c.model == f {
                        if let Some(b) = lr.engine.joinable(c.id, now) {
                            if best.is_none_or(|(bb, _)| b < bb) {
                                best = Some((b, ci));
                            }
                        }
                    }
                }
                if let Some((_, ci)) = best {
                    let id = node.containers[ci].id;
                    let n = lr.engine.config().decode_tokens(req.index);
                    let (adm, patches) = lr.engine.join(id, now, req.index, n);
                    lr.pending.extend(patches);
                    lr.note(&adm, arrival, n, true);
                    let c = &mut node.containers[ci];
                    c.route(now, adm.batch_busy_until);
                    return RawRecord {
                        function: f,
                        arrival,
                        wait: adm.admitted_at - arrival,
                        init: 0.0,
                        load: 0.0,
                        compute: adm.finish - adm.admitted_at,
                        kind: StartKind::Warm,
                    };
                }
            }
            // Snapshot the cold-start transport equivalent *before* the
            // policy mutates store state, so the safeguard audit below
            // compares against the same store the request actually saw.
            let cold_est = if ctx.faults.is_some() && matches!(self.policy, Policy::Optimus) {
                self.store_estimate(node, f)
            } else {
                0.0
            };
            // 2. Obtain a container by the policy.
            if let Some((ci, init, load, kind)) = self.try_start(node, ctx, req, now) {
                // Safeguard-under-failure audit (§6.3): the startup this
                // request actually paid must never exceed what a cold
                // start of the same request would have paid under the
                // same injected faults.
                if let Some(fc) = ctx.faults.as_mut() {
                    if matches!(self.policy, Policy::Optimus) {
                        let data = &self.functions[f.index()];
                        let cold_equiv = self.profile.cold_init()
                            + data.load_cost * fx.load_multiplier()
                            + fx.transport_seconds(cold_est);
                        fc.max_over_cold = fc.max_over_cold.max(init + load - cold_equiv);
                    }
                }
                if let Some(lr) = ctx.llm.as_mut() {
                    // The decode loop starts once init + load finish. A
                    // later arrival may still join its first iteration —
                    // `begin` registers the batch at the future start, so
                    // joiners during the load share the prefill sweep.
                    let exec_start = now + init + load;
                    let id = node.containers[ci].id;
                    let n = lr.engine.config().decode_tokens(req.index);
                    let bytes = self.functions[f.index()].model_bytes;
                    let adm = lr.engine.begin(id, bytes, exec_start, req.index, n);
                    lr.note(&adm, arrival, n, false);
                    node.containers[ci].busy_until = adm.batch_busy_until;
                    return RawRecord {
                        function: f,
                        arrival,
                        wait: now - arrival,
                        init,
                        load,
                        compute: adm.finish - exec_start,
                        kind,
                    };
                }
                let total = init + load + compute;
                // try_start created/re-purposed the container at index
                // `ci`; set its busy window.
                node.containers[ci].busy_until = now + total;
                return RawRecord {
                    function: f,
                    arrival,
                    wait: now - arrival,
                    init,
                    load,
                    compute,
                    kind,
                };
            }
            // 3. Everything is busy: advance to the next completion.
            let tmin = node
                .containers
                .iter()
                .map(|c| c.busy_until)
                .fold(f64::INFINITY, f64::min);
            debug_assert!(tmin.is_finite(), "full node must have busy containers");
            now = tmin.max(now + 1e-9);
        }
    }

    /// Try to obtain a container for the request at `now`. On success the
    /// container exists in `node` with `model == f` and
    /// `last_routed == now`.
    ///
    /// Fault math is applied unconditionally through `req.fx`: with no
    /// faults it is the identity element ([`RequestFaults::none`]), whose
    /// `×1.0`/`+0.0` arithmetic is bit-exact, so fault-free runs stay
    /// byte-identical to a build without the fault layer.
    fn try_start(
        &self,
        node: &mut NodeState,
        ctx: &mut RunCtx,
        req: &Request,
        now: f64,
    ) -> Option<Started> {
        let (f, fx) = (req.f, &req.fx);
        let data = &self.functions[f.index()];
        let need = self.footprint(f);
        match self.policy {
            Policy::OpenWhisk => self.cold_start(node, ctx, req, now),
            Policy::Pagurus => {
                // Prefer an idle donor of another function: skip sandbox
                // and runtime init, reload the model from scratch. "Help
                // rather than recycle": when the node is full, the
                // container a cold start would evict is re-purposed
                // directly instead of being destroyed.
                let cs = &node.containers;
                let donor = self
                    .lifecycle
                    .idle_donor(cs, f, now)
                    .or_else(|| self.lifecycle.eviction_victim(cs, need, now))
                    .filter(|&ci| self.lifecycle.repurpose_fits(cs, ci, need));
                match donor {
                    Some(ci) => self.repurpose(node, ctx, req, now, ci, 0.0),
                    None => self.cold_start(node, ctx, req, now),
                }
            }
            Policy::Tetris => {
                // Tensor sharing: resident ops on the node are mapped, the
                // rest load from scratch; the runtime address space maps
                // from any existing container. Residency is marked before
                // eviction, matching "maps from any existing container".
                let had_containers = !node.containers.is_empty();
                ctx.sig_gen += 1;
                let gen = ctx.sig_gen;
                for c in &node.containers {
                    for &(sig, _) in &self.functions[c.model.index()].op_sigs {
                        ctx.sig_mark[sig as usize] = gen;
                    }
                }
                self.free_slot(node, ctx, need, now)?;
                let mut load = data.deserialize_cost;
                let mut shared = 0usize;
                for &(sig, cost) in &data.op_sigs {
                    if ctx.sig_mark[sig as usize] == gen {
                        load += self.config.tetris_map_per_op;
                        shared += 1;
                    } else {
                        load += cost;
                    }
                }
                let (init, kind) = if had_containers {
                    (
                        self.config.tetris_init,
                        if shared > 0 {
                            StartKind::Transform
                        } else {
                            StartKind::Cold
                        },
                    )
                } else {
                    (self.profile.cold_init(), StartKind::Cold)
                };
                let ci = node.spawn(&mut ctx.next_id, f, now, need);
                let transport = ctx.faulted_transport(self.store_admit(node, f), fx);
                ctx.note_load_faults(fx);
                Some((ci, init, load * fx.load_multiplier() + transport, kind))
            }
            Policy::Optimus => {
                // Cheapest donor via the cached plans + safeguard (the
                // shared lifecycle policy).
                let start = self
                    .lifecycle
                    .start(&self.repo, &node.containers, f, need, now, |g| {
                        self.functions[g.index()].model_id
                    });
                match start {
                    // Injected mid-flight transform failure: the safeguard
                    // escalates to a from-scratch load into the same
                    // donor, paying the (clamped) aborted-work cost on top
                    // — never more than a cold start would have.
                    Start::Transform(choice) if fx.transform_failure => {
                        let fc = ctx.faults();
                        fc.stats.transform_failures += 1;
                        fc.stats.safeguard_escalations += 1;
                        let abort = fc.abort;
                        self.repurpose(node, ctx, req, now, choice.container, abort)
                    }
                    Start::Transform(choice) => {
                        let ci = choice.container;
                        let src = node.containers[ci].model;
                        let transport =
                            ctx.faulted_transport(self.store_repurpose(node, src, f, true), fx);
                        let c = &mut node.containers[ci];
                        ctx.retarget(c, f, need);
                        c.route(now, now); // busy window set by caller
                        Some((
                            ci,
                            self.profile.repurpose_overhead,
                            choice.latency + transport,
                            StartKind::Transform,
                        ))
                    }
                    Start::Repurpose(ci) => self.repurpose(node, ctx, req, now, ci, 0.0),
                    Start::Cold => self.cold_start(node, ctx, req, now),
                }
            }
        }
    }

    /// Reload donor `ci` with the request's model from scratch (Pagurus's
    /// repurpose, Optimus's safeguard), skipping sandbox and runtime init;
    /// `abort` is transform work already wasted on it.
    fn repurpose(
        &self,
        node: &mut NodeState,
        ctx: &mut RunCtx,
        req: &Request,
        now: f64,
        ci: usize,
        abort: f64,
    ) -> Option<Started> {
        let (f, fx) = (req.f, &req.fx);
        let src = node.containers[ci].model;
        let transport = ctx.faulted_transport(self.store_repurpose(node, src, f, false), fx);
        ctx.note_load_faults(fx);
        let c = &mut node.containers[ci];
        ctx.retarget(c, f, self.footprint(f));
        c.route(now, now); // busy window set by caller
        Some((
            ci,
            self.profile.repurpose_overhead,
            abort + self.functions[f.index()].load_cost * fx.load_multiplier() + transport,
            StartKind::Transform,
        ))
    }

    /// Cold start: free a slot, then load the model into a new container.
    fn cold_start(
        &self,
        node: &mut NodeState,
        ctx: &mut RunCtx,
        req: &Request,
        now: f64,
    ) -> Option<Started> {
        let (f, fx) = (req.f, &req.fx);
        let need = self.footprint(f);
        self.free_slot(node, ctx, need, now)?;
        let ci = node.spawn(&mut ctx.next_id, f, now, need);
        let transport = ctx.faulted_transport(self.store_admit(node, f), fx);
        ctx.note_load_faults(fx);
        Some((
            ci,
            self.profile.cold_init(),
            self.functions[f.index()].load_cost * fx.load_multiplier() + transport,
            StartKind::Cold,
        ))
    }
}

/// A simulated request as the shared telemetry schema.
///
/// Simulated durations stand in for measured ones; `total` equals the
/// service time because simulated requests have no unattributed
/// wall-clock. Plan-cache outcomes are counted inside
/// `ModelRepository::decide`, which the simulator shares with the live
/// path, so they are not duplicated per trace here.
fn trace_of(record: &RawRecord, function: &str, node: usize) -> RequestTrace {
    RequestTrace {
        function: function.to_string(),
        node,
        kind: match record.kind {
            StartKind::Warm => optimus_telemetry::StartKind::Warm,
            StartKind::Cold => optimus_telemetry::StartKind::Cold,
            StartKind::Transform => optimus_telemetry::StartKind::Transform,
        },
        wait: record.wait,
        init: record.init,
        load: record.load,
        compute: record.compute,
        total: record.service_time(),
        transform_steps: 0,
        plan_cache_hit: None,
    }
}

/// Containers of one node.
#[derive(Default)]
struct NodeState {
    containers: Vec<Container>,
    /// Content-addressed chunk residency of this node (when the sim runs
    /// with a store).
    store: Option<NodeStore>,
}

impl NodeState {
    /// Create a new container for `f` with the given memory footprint;
    /// returns its index. `busy_until` is patched by the caller once
    /// init+load+compute are known.
    fn spawn(&mut self, next_id: &mut u64, f: FunctionId, now: f64, mem_bytes: u64) -> usize {
        let id = *next_id;
        *next_id += 1;
        let mut c = Container::new(id, f, now, now);
        c.mem_bytes = mem_bytes;
        self.containers.push(c);
        self.containers.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimus_core::plan_chunks;
    use optimus_store::{model_chunks, StoreConfig};

    /// The store tables, built from one chunking per model, equal what
    /// re-chunking every destination model and every plan payload per
    /// pair gives (in the first-occurrence dedup form every store
    /// operation applies to its input).
    #[test]
    fn store_tables_match_per_pair_chunking_on_the_figure13_catalog() {
        let sc = StoreConfig::default();
        let config = SimConfig {
            store: Some(sc),
            ..SimConfig::default()
        };
        let platform =
            Platform::with_catalog(config, Policy::Optimus, optimus_zoo::figure13_models());
        let ss = platform.store.as_ref().expect("store is on");
        let repo = &platform.repo;
        let names = repo.model_names();
        let n = names.len();
        let mut splits = 0;
        for (s, src) in names.iter().enumerate() {
            let model = repo.model(src).expect("registered");
            assert_eq!(
                ss.model_chunks.get(FunctionId::from_index(s)),
                Some(dedup_chunks(model_chunks(&model, sc.chunk_bytes)).as_slice()),
                "{src}"
            );
            for (d, dst) in names.iter().enumerate() {
                let expected = repo.plan(src, dst).map(|plan| {
                    let dst_model = repo.model(dst).expect("registered");
                    let dst_chunks = model_chunks(&dst_model, sc.chunk_bytes);
                    let split = plan_chunks(&plan, &dst_chunks, sc.chunk_bytes);
                    PlanChunks {
                        reused: dedup_chunks(split.reused),
                        ..split
                    }
                });
                splits += usize::from(expected.is_some());
                assert_eq!(ss.plan_chunks[s * n + d], expected, "{src} -> {dst}");
            }
        }
        assert!(splits > n, "the catalog has cross-model plans");
        assert_eq!(ss.pinned, repo.plan_referenced_chunks(sc.chunk_bytes));
    }
}
