//! # optimus-sim — the serverless ML inference platform simulator
//!
//! A deterministic simulator of the testbed the paper evaluates on (§8.1):
//! worker nodes hosting containers, a gateway routing requests to nodes,
//! per-container keep-alive and idle timers, and the latency composition
//! of Figure 1 — sandbox/runtime initialization, model loading (or
//! transformation), inference computation, plus queueing.
//!
//! Four systems are implemented on the same substrate ([`Policy`]):
//!
//! - **OpenWhisk** — every miss is a full cold start.
//! - **Pagurus** (ATC '22) — inter-function container *sharing*: an idle
//!   container of another function is re-purposed, skipping sandbox and
//!   runtime init, but the model still loads from scratch.
//! - **Tetris** (ATC '22) — tensor sharing: operations identical
//!   (type + shape + weights) to operations resident on the node are
//!   mapped into the new container; everything else loads from scratch.
//! - **Optimus** — inter-function *model transformation*: the §4 pipeline
//!   (cached plans, safeguard, cheapest idle donor) served by
//!   `optimus-core`.
//!
//! Time is virtual (seconds as `f64`); requests are processed in arrival
//! order with full state tracking, which is an exact discrete-event
//! execution for this system because container state only changes at
//! request arrivals and completions, and completions are computable at
//! dispatch time (run-to-completion, no preemption).

#![forbid(unsafe_code)]

mod config;
mod metrics;
mod platform;
mod policy;

pub use config::{
    MemoryLimit, PlacementStrategy, SimConfig, DEFAULT_IDLE_THRESHOLD_S, DEFAULT_KEEP_ALIVE_S,
};
pub use metrics::{
    FunctionSummary, PhaseBreakdown, PhasePercentiles, RequestRecord, SimReport, StartKind,
};
pub use platform::Platform;
pub use policy::Policy;

// Re-exported so simulation drivers can configure and read the weight
// store without depending on `optimus-store` directly.
pub use optimus_store::{StoreConfig, StoreStats, TierParams};

// Re-exported so drivers can configure the elastic fleet and read its
// report without depending on `optimus-fleet` directly.
pub use optimus_fleet::{FleetConfig, FleetReport};

// Re-exported so drivers can configure arrival prediction and read its
// report without depending on `optimus-predict` directly.
pub use optimus_predict::{PredictConfig, PredictReport, SpeculationConfig};

// Re-exported so drivers can configure token-level LLM serving and read
// its report without depending on `optimus-llm` directly.
pub use optimus_llm::{LlmConfig, LlmReport};
