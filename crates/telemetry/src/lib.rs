//! # optimus-telemetry — unified metrics and request tracing
//!
//! One instrumentation substrate shared by the live serving engine
//! (`optimus-serve`), the platform simulator (`optimus-sim`), the planner
//! and plan cache (`optimus-core`), and the load balancer
//! (`optimus-balance`), so that a simulator run and a live gateway export
//! the *same metric names* and are directly comparable.
//!
//! Three layers, dependency-free (std plus the workspace's existing shim
//! crates only):
//!
//! - [`registry`]: lock-free [`Counter`]/[`Gauge`]/[`Histogram`] handles
//!   keyed by `(name, labels)` in a [`MetricsRegistry`]. Handles are
//!   resolved once and are plain atomics afterwards — the hot path never
//!   takes a lock (see the sub-microsecond overhead tests).
//! - [`span`]: [`Span`] measures one request with monotonic clocks and
//!   produces a [`RequestTrace`] — the Optimus phase breakdown
//!   (wait / init / load-or-transform / compute, §8.3 of the paper),
//!   start kind (warm / cold / transform, Fig. 14), plan-cache outcome,
//!   transform step count, and serving node.
//! - [`sink`]: the [`TelemetrySink`] trait consumes finished traces.
//!   [`MetricsSink`] folds them into the canonical metric families below;
//!   [`JsonlSink`] appends one JSON line per request; [`FanoutSink`]
//!   combines sinks.
//!
//! ## Canonical metric families
//!
//! | name | type | labels |
//! |------|------|--------|
//! | `optimus_requests_total` | counter | `kind="warm\|cold\|transform"` |
//! | `optimus_request_seconds` | histogram | — |
//! | `optimus_phase_seconds` | histogram | `phase="wait\|init\|load\|compute"` |
//! | `optimus_transform_steps_total` | counter | — |
//! | `optimus_plan_cache_total` | counter | `result="hit\|miss\|reject"` |
//! | `optimus_planning_seconds` | histogram | — |
//! | `optimus_placement_total` | counter | `strategy` |
//! | `optimus_containers` | gauge | `node` |
//! | `optimus_http_requests_total` | counter | `code` |
//! | `optimus_faults_injected_total` | counter | `kind="node_crash\|container_kill\|transform_failure"` |
//! | `optimus_safeguard_escalations_total` | counter | `node` |
//! | `optimus_transform_overruns_total` | counter | `node` |
//! | `optimus_fault_evictions_total` | counter | `node` |
//! | `optimus_reroutes_total` | counter | — |
//! | `optimus_fault_retries_total` | counter | — |
//! | `optimus_node_healthy` | gauge | `node` |
//!
//! ```
//! use optimus_telemetry::{MetricsSink, Span, Phase, StartKind, TelemetrySink};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(optimus_telemetry::MetricsRegistry::new());
//! let sink = MetricsSink::new(registry.clone());
//!
//! let mut span = Span::begin("resnet50", 3);
//! span.add(Phase::Wait, 0.002);
//! let out = span.time(Phase::Compute, || 2 + 2);
//! span.set_kind(StartKind::Warm);
//! sink.record(&span.finish());
//!
//! assert_eq!(out, 4);
//! let text = registry.render_prometheus();
//! assert!(text.contains("optimus_requests_total{kind=\"warm\"} 1"));
//! ```

#![forbid(unsafe_code)]

pub mod registry;
pub mod sink;
pub mod span;

pub use registry::{
    default_latency_bounds, exact_percentile, Counter, Gauge, Histogram, MetricKey, MetricsRegistry,
};
pub use sink::{FanoutSink, JsonlSink, MetricsSink, NullSink, TelemetrySink};
pub use span::{Phase, RequestTrace, Span, StartKind};

use std::sync::{Arc, OnceLock};

/// The process-wide default registry.
///
/// Components that are not handed an explicit registry (the plan cache,
/// the load balancer, a gateway built without a `metrics` override)
/// record here, so a plain production setup exposes everything through
/// one `/metrics` endpoint. Tests that need hermetic counts construct
/// their own [`MetricsRegistry`] instead.
pub fn global() -> Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Arc::new(MetricsRegistry::new()))
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let a = global();
        a.counter("optimus_test_global_total", &[]).inc();
        let b = global();
        assert!(b.counter("optimus_test_global_total", &[]).get() >= 1);
    }
}
