//! # optimus-predict — online arrival prediction for warm-start actuators
//!
//! Every scheduling policy in this workspace is reactive: keep-alive
//! windows are global constants and a transformation happens only after a
//! request has already arrived cold. Azure's production keep-alive policy
//! and the Transformer-based cold-start-mitigation line of work (see
//! PAPERS.md) both show that cheap per-function arrival prediction pays —
//! and Optimus's transformation mechanism is an unusually cheap actuator
//! for it, because speculatively converting an idle donor costs
//! milliseconds where a speculative cold start costs seconds of CPU and
//! gigabytes of memory.
//!
//! The crate provides three pieces:
//!
//! - [`InterArrivalHistogram`] — fixed-layout log-bucketed histogram of a
//!   function's inter-arrival gaps, answering Azure-style **head/tail
//!   cutoffs** at a configurable two-sided confidence. (With confidence
//!   `c`, the next arrival lands in `[last+head, last+tail]` with
//!   probability ≈ `c`, assuming gaps are i.i.d. from the observed
//!   distribution.)
//! - [`Predictor`] — the per-function state table with three queries:
//!   [`Predictor::forecast`] (the confidence band), [`Predictor::keep_alive`]
//!   (an adaptive window: `tail × margin`, clamped to floor/ceiling, or
//!   the caller's fixed default below `min_history` — **bit-exact**, so
//!   an empty-history predictor is indistinguishable from no predictor),
//!   and [`Predictor::due_speculations`] (which predicted bands are
//!   opening now, each fired at most once per observed arrival).
//! - [`SpecCandidate`] — the cost-model gate: a speculation is admitted
//!   only if it is cheaper than the cold start it replaces (hard budget,
//!   enforced at every aggressiveness — this bounds misprediction cost)
//!   *and* its confidence-weighted expected saving beats the
//!   miss-weighted expected waste.
//!
//! Everything is deterministic and `Serialize`-able: no wall clock, no
//! randomness, state fully reconstructible from JSON. The simulator
//! drives it with virtual time (`SimConfig::predict`) and asserts that
//! `predict: None` and [`PredictConfig::inert`] reproduce the reactive
//! path byte-for-byte; the live gateway drives it with real arrivals and
//! exports `optimus_predict_*` metrics.

#![forbid(unsafe_code)]

mod config;
mod histogram;
mod predictor;

pub use config::{
    PredictConfig, SpeculationConfig, DEFAULT_CONFIDENCE, DEFAULT_KEEP_ALIVE_CEILING_S,
    DEFAULT_KEEP_ALIVE_FLOOR_S, DEFAULT_MIN_HISTORY, DEFAULT_SPEC_AGGRESSIVENESS,
    DEFAULT_SPEC_LEAD_S, DEFAULT_WINDOW_MARGIN,
};
pub use histogram::{InterArrivalHistogram, GAP_BUCKETS, GAP_MAX_S, GAP_MIN_S};
pub use predictor::{Forecast, PredictReport, Predictor, SpecCandidate};
