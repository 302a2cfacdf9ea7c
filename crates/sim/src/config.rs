//! Simulation configuration.

use optimus_faults::FaultPlan;
use optimus_fleet::FleetConfig;
use optimus_llm::LlmConfig;
use optimus_predict::PredictConfig;
use optimus_profile::Environment;
use optimus_store::StoreConfig;
use serde::{Deserialize, Serialize};

/// The paper's global keep-alive window (§8.1 fixes 10 minutes for all
/// systems). [`SimConfig::keep_alive`] defaults to this; the arrival
/// predictor's adaptive windows override it per function.
pub const DEFAULT_KEEP_ALIVE_S: f64 = 600.0;

/// The idle threshold after which a container becomes a transformation
/// donor (§4.2; 60 s like Pagurus). [`SimConfig::idle_threshold`]
/// defaults to this.
pub const DEFAULT_IDLE_THRESHOLD_S: f64 = 60.0;

/// How the gateway assigns functions to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// The §5.1 model-sharing-aware K-medoids balancer.
    SharingAware {
        /// Weight of the model editing distance.
        gamma_d: f64,
        /// Weight of the demand correlation.
        gamma_k: f64,
    },
    /// Hash of the function name (existing systems' default).
    Hash,
    /// Greedy least-total-demand placement.
    LeastLoaded,
}

impl Default for PlacementStrategy {
    fn default() -> Self {
        PlacementStrategy::SharingAware {
            gamma_d: 0.7,
            gamma_k: 0.3,
        }
    }
}

/// Memory-aware capacity limit (§6 "Fine-grained Resource Allocation").
///
/// When set, a node additionally enforces a byte budget: each container
/// occupies its model's parameter bytes plus a fixed runtime overhead, so
/// small models pack more containers per node than the homogeneous slot
/// count alone would allow (and very large models fewer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryLimit {
    /// Total container memory per node, in bytes.
    pub node_bytes: u64,
    /// Fixed per-container runtime overhead, in bytes.
    pub container_overhead: u64,
}

impl MemoryLimit {
    /// A limit of `gib` GiB per node with a 384 MiB per-container runtime
    /// overhead (a typical ML runtime resident set).
    pub fn gib(gib: u64) -> Self {
        MemoryLimit {
            node_bytes: gib * 1024 * 1024 * 1024,
            container_overhead: 384 * 1024 * 1024,
        }
    }
}

/// Platform-level simulation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Maximum containers per node.
    pub capacity_per_node: usize,
    /// Keep-alive: a non-busy container is evicted after this many seconds
    /// without use (defaults to [`DEFAULT_KEEP_ALIVE_S`], the paper's
    /// global 10-minute window).
    pub keep_alive: f64,
    /// Idle threshold: a container is a transformation donor after this
    /// many seconds without a routed request (defaults to
    /// [`DEFAULT_IDLE_THRESHOLD_S`]).
    pub idle_threshold: f64,
    /// Hardware environment of every node.
    pub env: Environment,
    /// Function-to-node placement.
    pub placement: PlacementStrategy,
    /// Demand-histogram slot length for the balancer (s).
    pub demand_slot: f64,
    /// Tetris-specific: latency of creating a container by mapping the
    /// shared runtime address space (replaces full sandbox+runtime init).
    pub tetris_init: f64,
    /// Tetris-specific: per-shared-operation address-mapping latency (s).
    pub tetris_map_per_op: f64,
    /// Optional memory-aware capacity limit (in addition to the slot
    /// count); `None` reproduces the paper's homogeneous allocation.
    pub memory: Option<MemoryLimit>,
    /// Optional content-addressed weight store (`optimus-store`): each node
    /// tracks chunk residency across Remote/NodeDisk/NodeMemory/Container
    /// tiers and every non-warm start pays transport for the bytes missing
    /// at each tier. `None` (the default) reproduces the byte-agnostic
    /// load model exactly.
    pub store: Option<StoreConfig>,
    /// Optional deterministic fault injection (`optimus-faults`): seeded
    /// per-request crash/kill/transform-failure/straggler draws plus an
    /// explicit node-event schedule, with the resilience machinery
    /// (safeguard escalation, retries, degraded re-routing) they force.
    /// `None` (the default) disables the fault layer entirely; a quiet
    /// plan (`fault rates = 0`) reproduces fault-free reports
    /// byte-identically.
    pub faults: Option<FaultPlan>,
    /// Optional elastic fleet (`optimus-fleet`): `nodes` becomes the
    /// initial fleet, the autoscaler grows it up to
    /// [`FleetConfig::max_nodes`] under sustained slot pressure, and
    /// joining nodes are warmed by peer-to-peer chunk multicast (when the
    /// store is enabled). `None` (the default) reproduces the static node
    /// set byte-identically.
    pub fleet: Option<FleetConfig>,
    /// Model the persisted plan cache (`optimus-core`'s `PlanArtifact`)
    /// as store transport: initial nodes boot with the artifact's
    /// content-addressed chunks resident (the gateway warm-loads the
    /// artifact at startup), and elastically joining nodes receive the
    /// artifact bytes alongside the hot model's chunks during warm-up —
    /// multicast or remote, priced like any other transfer. Requires
    /// `store`; `false` (the default) reproduces the weights-only
    /// transfer model byte-identically.
    pub plan_warm: bool,
    /// Optional online arrival prediction (`optimus-predict`):
    /// per-function inter-arrival histograms drive adaptive keep-alive
    /// windows (replacing the global `keep_alive` constant per function)
    /// and cost-gated speculative transformations of idle donors toward
    /// predicted-hot models. `None` (the default) reproduces the reactive
    /// path byte-identically, as does [`PredictConfig::inert`].
    pub predict: Option<PredictConfig>,
    /// Optional token-level LLM serving (`optimus-llm`): every request
    /// becomes a decode loop (one prefill iteration plus a seeded number
    /// of decode iterations) scheduled with iteration-level continuous
    /// batching — arrivals join a running batch at the next iteration
    /// boundary instead of waiting for the loop to drain. `None` (the
    /// default) reproduces the single-forward-pass serving model
    /// byte-identically.
    pub llm: Option<LlmConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 2,
            capacity_per_node: 12,
            keep_alive: DEFAULT_KEEP_ALIVE_S,
            idle_threshold: DEFAULT_IDLE_THRESHOLD_S,
            env: Environment::Cpu,
            placement: PlacementStrategy::default(),
            demand_slot: 300.0,
            tetris_init: 0.30,
            tetris_map_per_op: 0.0002,
            memory: None,
            store: None,
            faults: None,
            fleet: None,
            plan_warm: false,
            predict: None,
            llm: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.nodes, 2, "paper uses two servers");
        assert_eq!(c.keep_alive, 600.0, "10-minute keep-alive for all systems");
        assert_eq!(c.idle_threshold, 60.0, "60 s idle threshold like Pagurus");
        assert_eq!(c.keep_alive, DEFAULT_KEEP_ALIVE_S);
        assert_eq!(c.idle_threshold, DEFAULT_IDLE_THRESHOLD_S);
        assert_eq!(c.env, Environment::Cpu);
        assert!(c.store.is_none(), "store off by default: legacy load model");
        assert!(c.predict.is_none(), "prediction off by default: reactive");
    }

    #[test]
    fn config_serializes() {
        let c = SimConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }
}
