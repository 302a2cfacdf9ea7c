//! Criterion microbench of the simulator event loop: invocations simulated
//! per second of host wall-clock, per policy, on a 10k-invocation Poisson
//! trace over a six-model catalog.
//!
//! Besides the criterion report, a manual best-of-N timing pass merges
//! per-policy `events_per_sec` into `results/bench_sim.json` under the
//! label given by `SIM_BENCH_LABEL` (default `"interned"`), so the event
//! loop's perf trajectory is tracked across PRs; when both the
//! `baseline_string_keyed` and `interned` entries are present the file
//! also records the per-policy speedup. Run with `--small` for a
//! 1k-invocation CI smoke that skips the JSON update. Besides the four
//! policies, an `Optimus+store` row runs Optimus with the weight store
//! on, so the smoke also covers the store's per-operation cost.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optimus_core::{GroupPlanner, ModelRepository};
use optimus_profile::CostModel;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig, StoreConfig};
use optimus_workload::{PoissonGenerator, Trace};

/// The six-model CNN catalog shared with `benches/simulator.rs`, plus a
/// trace truncated to exactly `invocations` events.
fn repo_and_trace(invocations: usize) -> (Arc<ModelRepository>, Trace) {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::default();
    repo.register_all(
        vec![
            optimus_zoo::vgg::vgg16(),
            optimus_zoo::vgg::vgg19(),
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::resnet::resnet101(),
            optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
            optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        ],
        &cost,
    );
    let functions = repo.model_names();
    let mut trace = PoissonGenerator::new(0.01, 200_000.0, 5).generate(&functions);
    assert!(trace.len() >= invocations, "trace too short for the bench");
    trace.invocations.truncate(invocations);
    trace.duration = trace.invocations.last().map_or(0.0, |i| i.time + 1.0);
    (Arc::new(repo), trace)
}

/// Best-of-`runs` events/sec of `platform.run(trace)` (one warmup run).
fn events_per_sec(platform: &Platform, trace: &Trace, runs: usize) -> f64 {
    criterion::black_box(platform.run(trace));
    let mut best = 0.0f64;
    for _ in 0..runs {
        let t = Instant::now();
        criterion::black_box(platform.run(trace));
        best = best.max(trace.len() as f64 / t.elapsed().as_secs_f64());
    }
    best
}

/// Merge this run's numbers into `results/bench_sim.json` (keeping any
/// other labels, e.g. the committed string-keyed baseline) and derive the
/// per-policy speedup when both baseline and interned entries exist.
fn save_bench_json(label: &str, entry: serde_json::Value) {
    // Benches run with cwd = the package dir; anchor at the workspace root.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join("bench_sim.json");
    if !path.parent().is_some_and(std::path::Path::is_dir) {
        return;
    }
    let mut root = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    root.insert(label.to_string(), entry);
    if let (Some(base), Some(new)) = (
        root.get("baseline_string_keyed")
            .and_then(|v| v.get("events_per_sec"))
            .and_then(|v| v.as_object())
            .cloned(),
        root.get("interned")
            .and_then(|v| v.get("events_per_sec"))
            .and_then(|v| v.as_object())
            .cloned(),
    ) {
        let mut speedup = serde_json::Map::new();
        for (policy, b) in &base {
            if let (Some(b), Some(n)) = (b.as_f64(), new.get(policy).and_then(|v| v.as_f64())) {
                if b > 0.0 {
                    speedup.insert(policy.clone(), serde_json::json!(n / b));
                }
            }
        }
        root.insert("speedup".to_string(), serde_json::Value::Object(speedup));
    }
    let pretty = serde_json::to_string_pretty(&serde_json::Value::Object(root)).unwrap();
    if let Err(e) = std::fs::write(&path, pretty) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn sim_event_loop(c: &mut Criterion) {
    let small = std::env::args().any(|a| a == "--small");
    let invocations = if small { 1_000 } else { 10_000 };
    let (repo, trace) = repo_and_trace(invocations);
    let config = SimConfig {
        nodes: 1,
        capacity_per_node: 4,
        placement: PlacementStrategy::Hash,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("sim_event_loop");
    group.throughput(Throughput::Elements(trace.len() as u64));
    let mut eps = serde_json::Map::new();
    // Every policy on the store-off loop, plus Optimus with the
    // content-addressed weight store on (the store path of `sim_full`).
    let store_config = SimConfig {
        store: Some(StoreConfig::default()),
        ..config.clone()
    };
    let rows = Policy::ALL
        .map(|policy| (policy.name().to_string(), policy, &config))
        .into_iter()
        .chain([("Optimus+store".to_string(), Policy::Optimus, &store_config)]);
    for (name, policy, config) in rows {
        let platform = Platform::new(config.clone(), policy, repo.clone());
        group.bench_with_input(BenchmarkId::new("run", &name), &trace, |b, trace| {
            b.iter(|| platform.run(trace))
        });
        let runs = if small { 3 } else { 10 };
        eps.insert(
            name,
            serde_json::json!(events_per_sec(&platform, &trace, runs)),
        );
    }
    group.finish();
    if !small {
        let label = std::env::var("SIM_BENCH_LABEL").unwrap_or_else(|_| "interned".to_string());
        save_bench_json(
            &label,
            serde_json::json!({
                "trace_invocations": trace.len(),
                "catalog_models": repo.model_count(),
                "events_per_sec": serde_json::Value::Object(eps),
            }),
        );
    }
}

criterion_group!(benches, sim_event_loop);
criterion_main!(benches);
