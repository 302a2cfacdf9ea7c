//! The simulator workloads: `sim_paper` replays the Figure 13 set-up
//! under all four policies; `sim_full` runs Optimus with every optional
//! stage on.
//!
//! The end-to-end latency metrics of these workloads are the modelled
//! service times of the Optimus run (the paper's figure of merit);
//! throughput is simulated invocations per host second.

use std::sync::Arc;
use std::time::Instant;

use optimus_bench::figure13_models;
use optimus_core::ModelRepository;
use optimus_faults::{FaultPlan, FaultSpec};
use optimus_model::ModelGraph;
use optimus_profile::{CostModel, Environment};
use optimus_serve::MetricsRegistry;
use optimus_sim::{
    FleetConfig, Platform, Policy, PredictConfig, SimConfig, SimReport, StartKind, StoreConfig,
};
use optimus_workload::Trace;

use crate::spans::Recorder;
use crate::stats;
use crate::traffic;
use crate::RunResult;

/// The two simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    Paper,
    Full,
}

/// Whole set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Modelled service-time limit of `slo_attainment` (s).
const SLO_S: f64 = 1.0;
/// Runs behind each `sim.stage_s.*` figure.
const ABLATION_RUNS: usize = 3;
/// Per-request fault probability of `sim_full` (`FaultSpec::uniform`).
const FAULT_RATE: f64 = 0.01;

/// An optional stage of the simulator's run loop.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Store,
    Predict,
    Faults,
    Fleet,
}

const STAGES: [Stage; 4] = [Stage::Store, Stage::Predict, Stage::Faults, Stage::Fleet];

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Store => "store",
            Stage::Predict => "predict",
            Stage::Faults => "faults",
            Stage::Fleet => "fleet",
        }
    }

    fn remove(self, config: &mut SimConfig) {
        match self {
            Stage::Store => config.store = None,
            Stage::Predict => config.predict = None,
            Stage::Faults => config.faults = None,
            Stage::Fleet => config.fleet = None,
        }
    }
}

fn policy_key(p: Policy) -> &'static str {
    match p {
        Policy::OpenWhisk => "openwhisk",
        Policy::Pagurus => "pagurus",
        Policy::Tetris => "tetris",
        Policy::Optimus => "optimus",
    }
}

impl Sim {
    fn policies(self) -> &'static [Policy] {
        match self {
            Sim::Paper => &Policy::ALL,
            Sim::Full => &[Policy::Optimus],
        }
    }

    /// `SimConfig::default()` for the paper set-up; every optional stage
    /// on for the full stack.
    fn config(self, seed: u64) -> SimConfig {
        match self {
            Sim::Paper => SimConfig::default(),
            Sim::Full => SimConfig {
                store: Some(StoreConfig::default()),
                predict: Some(PredictConfig::default()),
                faults: Some(FaultPlan::from_spec(FaultSpec::uniform(seed, FAULT_RATE))),
                fleet: Some(FleetConfig::default()),
                ..SimConfig::default()
            },
        }
    }

    fn trace(self, functions: &[String], seed: u64) -> Trace {
        match self {
            Sim::Paper => traffic::paper_trace(functions, seed),
            Sim::Full => traffic::full_trace(functions, seed),
        }
    }
}

/// Wall-clock of one set-up and its parts (s).
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total: f64,
    catalog: f64,
    register_all: f64,
    generate: f64,
}

struct Prepared {
    repo: Arc<ModelRepository>,
    registry: Arc<MetricsRegistry>,
    trace: Trace,
}

/// Build the Figure 13 catalog, register it (planning every pair) and
/// generate the trace.
fn set_up(sim: Sim, seed: u64) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let catalog: Vec<ModelGraph> = figure13_models();
    let names: Vec<String> = catalog.iter().map(|m| m.name().to_string()).collect();
    let catalog_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let registry = Arc::new(MetricsRegistry::new());
    let repo = ModelRepository::new(Box::new(optimus_core::GroupPlanner));
    repo.set_metrics_registry(&registry);
    repo.register_all(catalog, &CostModel::new(Environment::Cpu));
    let register_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let trace = sim.trace(&names, seed);
    let generate_s = t2.elapsed().as_secs_f64();
    let prepared = Prepared {
        repo: Arc::new(repo),
        registry,
        trace,
    };
    let times = SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        catalog: catalog_s,
        register_all: register_s,
        generate: generate_s,
    };
    (prepared, times)
}

/// The modelled outcome of one policy's run: what must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Modelled {
    records: usize,
    mean_s: f64,
    p99_s: Option<f64>,
    slo: f64,
    shares: [f64; 3],
    chunk_hit_ratio: f64,
    spec_hit_ratio: f64,
    escalations: u64,
    scale_outs: u64,
}

fn modelled(report: &SimReport) -> Modelled {
    let times = stats::sorted(report.records.iter().map(|r| r.service_time()).collect());
    let fractions = report.start_fractions();
    let share = |k| fractions.get(&k).copied().unwrap_or(0.0);
    let store = report.store.unwrap_or_default();
    let predict = report.predict.clone().unwrap_or_default();
    Modelled {
        records: report.len(),
        mean_s: stats::mean(&times),
        p99_s: stats::percentile(&times, 99.0),
        slo: report.slo_attainment(SLO_S),
        shares: [
            share(StartKind::Cold),
            share(StartKind::Transform),
            share(StartKind::Warm),
        ],
        chunk_hit_ratio: ratio(store.hits, store.hits + store.misses),
        spec_hit_ratio: ratio(predict.spec_hits, predict.speculations),
        escalations: report.faults.map_or(0, |f| f.stats.safeguard_escalations),
        scale_outs: report.fleet.map_or(0, |f| f.scale_outs),
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Repeated passes over the workload's policies for `seconds`.
struct Window {
    /// Host seconds per pass (every policy once).
    passes: Vec<f64>,
    /// `Platform::run` seconds per policy, one entry per pass.
    runs: Vec<Vec<f64>>,
    /// Modelled outcome per policy, from the first pass.
    modelled: Vec<Modelled>,
    invocations: u64,
    missing: u64,
}

/// Run every policy over the trace, pass after pass, until `seconds`
/// have elapsed; check that each run has one record per invocation and
/// that every pass models exactly what the first did.
fn measure(
    sim: Sim,
    seed: u64,
    seconds: f64,
    p: &Prepared,
    mut rec: Option<&mut Recorder>,
    problems: &mut Vec<String>,
) -> Window {
    let policies = sim.policies();
    let mut w = Window {
        passes: Vec::new(),
        runs: vec![Vec::new(); policies.len()],
        modelled: Vec::new(),
        invocations: 0,
        missing: 0,
    };
    let config = sim.config(seed);
    let t0 = Instant::now();
    while w.passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let pass_t0 = Instant::now();
        for (i, &policy) in policies.iter().enumerate() {
            let t_new = Instant::now();
            let platform = Platform::new(config.clone(), policy, p.repo.clone());
            let t_run = Instant::now();
            let report = platform.run(&p.trace);
            let run_s = t_run.elapsed().as_secs_f64();
            if let Some(rec) = rec.as_deref_mut() {
                let at = rec.offset(t_new);
                let root = rec.record("sim.pass", None, at, t_new.elapsed().as_secs_f64());
                rec.record("sim.new", Some(root), at, (t_run - t_new).as_secs_f64());
                rec.record(run_span(policy), Some(root), rec.offset(t_run), run_s);
            }
            w.runs[i].push(run_s);
            let expected = p.trace.len();
            w.invocations += expected as u64;
            if report.len() != expected {
                w.missing += expected.abs_diff(report.len()) as u64;
                problems.push(format!(
                    "{} returned {} records for {expected} invocations",
                    policy.name(),
                    report.len()
                ));
            }
            let m = modelled(&report);
            match w.modelled.get(i) {
                None => w.modelled.push(m),
                Some(first) if *first != m => problems.push(format!(
                    "{} modelled a different outcome on a repeat run",
                    policy.name()
                )),
                Some(_) => {}
            }
        }
        w.passes.push(pass_t0.elapsed().as_secs_f64());
    }
    w
}

fn run_span(p: Policy) -> &'static str {
    match p {
        Policy::OpenWhisk => "sim.run.openwhisk",
        Policy::Pagurus => "sim.run.pagurus",
        Policy::Tetris => "sim.run.tetris",
        Policy::Optimus => "sim.run.optimus",
    }
}

/// Run a simulator workload.
pub fn run(sim: Sim, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut result = RunResult::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let (p, times) = set_up(sim, seed);
        setups.push(times);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let untraced = measure(sim, seed, seconds, &p, None, &mut result.problems);
    result.attempted += untraced.invocations;
    result.failed += untraced.missing;
    result
        .samples
        .insert("passes".into(), untraced.passes.len());
    result.samples.insert("setups".into(), setups.len());
    result.samples.insert("service_time".into(), p.trace.len());
    let optimus = policy_index(sim);
    let m = &untraced.modelled[optimus];
    let per_pass = (p.trace.len() * sim.policies().len()) as f64;
    let fastest = |w: &Window| w.passes.iter().copied().fold(f64::INFINITY, f64::min);
    let pass_s = fastest(&untraced);

    if !trace {
        result.metric("latency_mean_ms", m.mean_s * 1e3, "ms");
        result.metric("slo_attainment", m.slo, "share");
        result.metric("throughput_per_s", per_pass / pass_s, "1/s");
        result.metric(
            "setup_s",
            stats::median(&setups.iter().map(|s| s.total).collect::<Vec<_>>()),
            "s",
        );
        return result;
    }

    // Traced run: a set-up and the same window with spans recorded.
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let (p, times) = set_up(sim, seed);
    let base = rec.offset(t0);
    let setup_span = rec.record("setup", None, base, times.total);
    let mut at = base;
    for (name, d) in [
        ("setup.catalog", times.catalog),
        ("setup.register_all", times.register_all),
        ("workload.generate", times.generate),
    ] {
        rec.record(name, Some(setup_span), at, d);
        at += d;
    }
    let traced = measure(sim, seed, seconds, &p, Some(&mut rec), &mut result.problems);
    result.attempted += traced.invocations;
    result.failed += traced.missing;
    if traced.modelled != untraced.modelled {
        result
            .problems
            .push("the traced run modelled a different outcome than the untraced one".into());
    }
    result.metric("trace.overhead_ms", (fastest(&traced) - pass_s) * 1e3, "ms");
    for (i, &policy) in sim.policies().iter().enumerate() {
        let key = policy_key(policy);
        result.metric(
            &format!("sim.run_s.{key}"),
            stats::median(&traced.runs[i]),
            "s",
        );
        for (kind, share) in ["cold", "transform", "warm"]
            .iter()
            .zip(traced.modelled[i].shares)
        {
            result.metric(&format!("sim.start_share.{key}.{kind}"), share, "share");
        }
    }
    let m = &traced.modelled[optimus];
    if let Some(p99) = m.p99_s {
        result.metric("sim.service_p99_ms.optimus", p99 * 1e3, "ms");
    }
    result.metric("store.chunk_hit_ratio", m.chunk_hit_ratio, "share");
    result.metric("predict.spec_hit_ratio", m.spec_hit_ratio, "share");
    result.metric("faults.escalations", m.escalations as f64, "count");
    result.metric("fleet.scale_outs", m.scale_outs as f64, "count");

    let hit = p
        .registry
        .counter("optimus_plan_cache_total", &[("result", "hit")])
        .get();
    let decided: u64 = ["hit", "reject", "miss"]
        .iter()
        .map(|r| {
            p.registry
                .counter("optimus_plan_cache_total", &[("result", r)])
                .get()
        })
        .sum();
    result.metric("cache.plan_hit_share", ratio(hit, decided), "share");
    result.metric(
        "cache.planner_invocations",
        p.repo.planner_invocations() as f64,
        "count",
    );
    let median_of =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    result.metric("cache.register_all_s", median_of(|s| s.register_all), "s");
    result.metric("workload.generate_s", median_of(|s| s.generate), "s");
    probe_decide(&mut rec, &p.repo, &mut result);

    if sim == Sim::Full {
        // Each stage's cost: the drop in run time when it alone is left
        // out, against the traced window's median full-stack run.
        let full = stats::median(&traced.runs[optimus]);
        for stage in STAGES {
            let mut config = sim.config(seed);
            stage.remove(&mut config);
            let mut without = Vec::new();
            for _ in 0..ABLATION_RUNS {
                let platform = Platform::new(config.clone(), Policy::Optimus, p.repo.clone());
                let t = Instant::now();
                let report = platform.run(&p.trace);
                without.push(t.elapsed().as_secs_f64());
                rec.record(
                    "sim.stage_ablation",
                    None,
                    rec.offset(t),
                    without[without.len() - 1],
                );
                if report.len() != p.trace.len() {
                    result
                        .problems
                        .push(format!("run without {} lost invocations", stage.name()));
                }
            }
            result.metric(
                &format!("sim.stage_s.{}", stage.name()),
                full - stats::median(&without),
                "s",
            );
        }
    }
    result.recorder = Some(rec);
    result
}

fn policy_index(sim: Sim) -> usize {
    sim.policies()
        .iter()
        .position(|&p| p == Policy::Optimus)
        .expect("every simulator workload runs Optimus")
}

/// `decide_by_id` over every ordered pair of the catalog.
fn probe_decide(rec: &mut Recorder, repo: &ModelRepository, result: &mut RunResult) {
    let ids: Vec<_> = repo
        .model_names()
        .iter()
        .map(|n| repo.model_id(n).expect("registered"))
        .collect();
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed().as_secs_f64() < 0.25 {
        for &a in &ids {
            for &b in &ids {
                if a != b {
                    std::hint::black_box(repo.decide_by_id(a, b));
                    calls += 1;
                }
            }
        }
    }
    let took = t0.elapsed().as_secs_f64();
    rec.record("cache.decide", None, rec.offset(t0), took);
    result.metric("cache.decide_ns", took / calls as f64 * 1e9, "ns");
}
