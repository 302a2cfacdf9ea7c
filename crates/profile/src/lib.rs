//! # optimus-profile — offline profiling and the latency cost model
//!
//! The paper's planner consumes *profiled costs* (§4.4 Module 1): the
//! measured execution time of loading each operation kind and of applying
//! each meta-operator. On the authors' testbed those numbers come from wall
//! clocks around a modified TensorFlow; here they come from a **parametric
//! latency model** calibrated to every quantitative observation the paper
//! reports:
//!
//! - model loading = deserialize (negligible) + structure loading (~90 %)
//!   + weight assignment (~10 %) — Insight 2 / Figure 3;
//! - per-op structure cost is dominated by a per-kind constant plus a
//!   weight-size term, so loading latency scales with *layer count*, not
//!   parameter count (ResNet loads as slowly as VGG despite 5× fewer
//!   parameters) — Insight 1 / Figure 2;
//! - a CONV loads ~10× slower than an activation, and a 3×3/512 CONV costs
//!   1.7867× a 3×3/64 CONV — Figure 4;
//! - reshaping an existing CONV costs roughly a third of loading it from
//!   scratch — Figure 5c;
//! - `Replace` scales with destination weight bytes, `Reshape` with the
//!   magnitude of the shape change (cheaper when shrinking), `Reduce` is a
//!   constant, `Edge` is negligible, `Add` pays the full scratch cost —
//!   Figure 8.
//!
//! Unit tests in this crate pin each of those invariants, so the
//! calibration cannot silently drift.
//!
//! The [`CostProvider`] trait is the interface the planner (`optimus-core`)
//! and the platform simulator (`optimus-sim`) consume; [`CostModel`] is the
//! calibrated implementation, parameterised by an [`Environment`]
//! (CPU or GPU — Figure 16).

#![forbid(unsafe_code)]

mod cost;
mod env;
mod online;
mod profiler;

pub use cost::{CostModel, CostParams, CostProvider, LoadBreakdown, COST_MODEL_VERSION};
pub use env::{Environment, PlatformProfile};
pub use online::{ObservationKind, OnlineCostModel};
pub use profiler::{MetaOpProfile, OpKindProfile, Profiler};
