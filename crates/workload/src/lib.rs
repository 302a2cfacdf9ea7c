//! # optimus-workload — request-arrival generators (§8.1)
//!
//! Workload sources:
//!
//! - **Poisson**: independent Poisson arrivals per function with
//!   λ ∈ {10⁻³·⁵, 10⁻²·⁵, 10⁻²} requests/second, the paper's infrequent /
//!   middle / frequent regimes.
//! - **Azure**: production-like arrival dynamics. The paper replays a
//!   two-week Microsoft Azure Functions trace; that data set is not
//!   shipped here, so [`azure::AzureTraceGenerator`] synthesises a trace
//!   reproducing its published characteristics (Shahrad et al., ATC '20):
//!   heavy-tailed per-function rates, and a mixture of steady, periodic
//!   (timer-triggered) and bursty functions with diurnal modulation.
//!   DESIGN.md records this substitution.
//! - **Diurnal/bursty**: every function's rate is strongly time-varying
//!   (sinusoidal base rate + seeded burst episodes) — the stress trace
//!   for the arrival predictor, where fixed keep-alive windows are at
//!   their worst. See [`diurnal::DiurnalBurstGenerator`].
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod azure;
mod diurnal;
mod poisson;
mod trace;

pub use analysis::{analyze_trace, FunctionStats, PatternClass};
pub use azure::{AzureTraceGenerator, FunctionPattern};
pub use diurnal::DiurnalBurstGenerator;
pub use poisson::{exponential_inter_arrival, PoissonGenerator};
pub use trace::{demand_histogram, Invocation, Trace};

// Re-exported so trace consumers can intern function names without
// depending on `optimus-model` directly.
pub use optimus_model::{FunctionId, Interner};

/// The paper's three Poisson intensities (requests per second).
pub mod rates {
    /// Infrequent workload: λ = 10⁻³·⁵ ≈ one request every ~53 minutes.
    pub const INFREQUENT: f64 = 0.000_316_227_766;
    /// Middle workload: λ = 10⁻²·⁵ ≈ one request every ~5.3 minutes.
    pub const MIDDLE: f64 = 0.003_162_277_66;
    /// Frequent workload: λ = 10⁻² = one request every 100 seconds.
    pub const FREQUENT: f64 = 0.01;
}
