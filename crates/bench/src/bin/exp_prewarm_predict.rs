//! Arrival-prediction sweep — adaptive keep-alive and speculative
//! transformation vs the fixed-window Optimus baseline.
//!
//! Sweeps predictor aggressiveness across three trace families (Poisson,
//! Azure-like, diurnal/bursty) on the Optimus policy and reports how the
//! cold-start rate and tail latency respond. The diurnal trace is the
//! predictor's stress case: every function's rate is strongly
//! time-varying, so the fixed `DEFAULT_KEEP_ALIVE_S` window idles
//! containers through the daily trough and evicts them right before
//! arrivals return. Four invariants are machine-checked:
//!
//! 1. **Inert identity** — an inert predictor (adaptive keep-alive off,
//!    speculation off) observes every arrival yet reproduces the
//!    prediction-less run's request records byte-identically.
//! 2. **Determinism** — re-running the most aggressive diurnal cell
//!    yields a byte-identical report (same trace ⇒ same forecasts ⇒
//!    same speculations).
//! 3. **Bounded misprediction cost** — in every speculative cell,
//!    `max_spec_over_budget` stays below 0: the cost-model gate admitted
//!    no speculation that could cost more than the cold start it
//!    replaces.
//! 4. **Prediction wins where it should** — on the diurnal trace, the
//!    default predictive configuration beats the fixed-window baseline
//!    in *both* cold-start rate and p99 service time.
//!
//! Optional args: `--small` (CI configuration), `--threads <n>`
//! (byte-identical output at any thread count), `--duration <seconds>`
//! (diurnal trace length), `--seed <n>`.

#![forbid(unsafe_code)]

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{build_repo, figure13_models, fmt_pct, fmt_s, print_table, save_results};
use optimus_model::ModelGraph;
use optimus_profile::Environment;
use optimus_sim::{
    Platform, Policy, PredictConfig, SimConfig, SpeculationConfig, StartKind, DEFAULT_KEEP_ALIVE_S,
};
use optimus_workload::{
    rates, AzureTraceGenerator, DiurnalBurstGenerator, PoissonGenerator, Trace,
};

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One predictor configuration under sweep.
#[derive(Clone, Copy)]
enum Variant {
    /// `predict: None` — the fixed `DEFAULT_KEEP_ALIVE_S` window.
    Fixed,
    /// Adaptive keep-alive only: learned per-function windows, no
    /// speculation.
    Adaptive,
    /// Adaptive keep-alive + speculative transformation at the given
    /// aggressiveness.
    Speculative(f64),
}

impl Variant {
    fn name(&self) -> String {
        match self {
            Variant::Fixed => "fixed".to_string(),
            Variant::Adaptive => "adaptive".to_string(),
            Variant::Speculative(a) => format!("spec@{a}"),
        }
    }

    fn predict(&self) -> Option<PredictConfig> {
        match *self {
            Variant::Fixed => None,
            Variant::Adaptive => Some(PredictConfig {
                adaptive_keep_alive: true,
                speculation: None,
                ..PredictConfig::default()
            }),
            Variant::Speculative(aggressiveness) => Some(PredictConfig {
                adaptive_keep_alive: true,
                // The sim evaluates due bands at arrival events; a lead
                // larger than the aggregate inter-event gap (~15 s on
                // these traces) keeps forecast bands from being skipped
                // over between checks.
                speculation: Some(SpeculationConfig {
                    lead: 60.0,
                    aggressiveness,
                }),
                ..PredictConfig::default()
            }),
        }
    }
}

fn cold_rate(report: &optimus_sim::SimReport) -> f64 {
    *report
        .start_fractions()
        .get(&StartKind::Cold)
        .unwrap_or(&0.0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let threads = threads_arg(&args);
    let seed: u64 = arg(&args, "--seed", 42);
    let (catalog_size, default_diurnal_s, aggressiveness): (usize, f64, Vec<f64>) = if small {
        (10, 43_200.0, vec![1.0])
    } else {
        (usize::MAX, 172_800.0, vec![0.5, 1.0, 2.0])
    };
    let diurnal_s: f64 = arg(&args, "--duration", default_diurnal_s);

    let models: Vec<ModelGraph> = figure13_models().into_iter().take(catalog_size).collect();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!(
        "registering {} models and computing plan cache...",
        names.len()
    );
    let repo = build_repo(models, Environment::Cpu);

    // Three trace families. The diurnal generator's base rate is set so
    // trough-time gaps (rate × (1 − amplitude)) stretch past the fixed
    // keep-alive window — the regime the predictor exists for.
    let traces: Vec<(&str, Trace)> = vec![
        (
            "poisson",
            PoissonGenerator::new(rates::MIDDLE, if small { 2_400.0 } else { 7_200.0 }, seed)
                .generate(&names),
        ),
        (
            "azure",
            AzureTraceGenerator::new(if small { 2_400.0 } else { 14_400.0 }, seed).generate(&names),
        ),
        (
            "diurnal",
            DiurnalBurstGenerator::new(diurnal_s, seed, 0.002).generate(&names),
        ),
    ];

    let mut variants = vec![Variant::Fixed, Variant::Adaptive];
    variants.extend(aggressiveness.iter().map(|&a| Variant::Speculative(a)));

    let base = SimConfig::default();
    println!(
        "Prediction sweep: {} functions, {} nodes x {} slots, fixed window {} s, seed {seed}\n",
        names.len(),
        base.nodes,
        base.capacity_per_node,
        DEFAULT_KEEP_ALIVE_S
    );

    // One grid cell per trace × variant; results return in input order,
    // so table/JSON are byte-identical at any --threads.
    let cells: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..variants.len()).map(move |v| (t, v)))
        .collect();
    let reports = run_grid(&cells, threads, |&(t, v)| {
        let config = SimConfig {
            predict: variants[v].predict(),
            ..base.clone()
        };
        Platform::new(config, Policy::Optimus, repo.clone()).run(&traces[t].1)
    });
    let report_at =
        |t: usize, v: usize| -> &optimus_sim::SimReport { &reports[t * variants.len() + v] };

    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (t, (trace_name, trace)) in traces.iter().enumerate() {
        let mut per_variant = serde_json::Map::new();
        for (v, variant) in variants.iter().enumerate() {
            let report = report_at(t, v);
            rows.push(vec![
                trace_name.to_string(),
                variant.name(),
                report.len().to_string(),
                fmt_pct(cold_rate(report)),
                fmt_pct(
                    *report
                        .start_fractions()
                        .get(&StartKind::Warm)
                        .unwrap_or(&0.0),
                ),
                fmt_s(report.avg_service_time()),
                fmt_s(report.percentile_service_time(99.0)),
                match &report.predict {
                    Some(p) => format!("{}/{}", p.spec_hits, p.speculations),
                    None => "-".to_string(),
                },
            ]);
            let mut cell = serde_json::Map::new();
            cell.insert(
                "avg_service_time".to_string(),
                serde_json::json!(report.avg_service_time()),
            );
            cell.insert(
                "p99".to_string(),
                serde_json::json!(report.percentile_service_time(99.0)),
            );
            cell.insert(
                "cold_rate".to_string(),
                serde_json::json!(cold_rate(report)),
            );
            cell.insert("requests".to_string(), serde_json::json!(report.len()));
            if let Some(p) = &report.predict {
                // ── Invariant 3: bounded misprediction cost ─────────────
                if p.speculations > 0 {
                    assert!(
                        p.max_spec_over_budget < 0.0,
                        "{trace_name}/{}: speculation exceeded its cold-start budget: {}",
                        variant.name(),
                        p.max_spec_over_budget
                    );
                }
                assert_eq!(p.observed_arrivals, trace.len() as u64);
                cell.insert(
                    "predict".to_string(),
                    serde_json::json!({
                        "speculations": p.speculations,
                        "spec_hits": p.spec_hits,
                        "spec_mispredictions": p.spec_mispredictions,
                        "spec_skipped": p.spec_skipped,
                        "spec_cost_seconds": p.spec_cost_seconds,
                        "spec_saved_seconds": p.spec_saved_seconds,
                        "max_spec_over_budget": p.max_spec_over_budget,
                        "mean_window_s": p.mean_window(),
                    }),
                );
            }
            per_variant.insert(variant.name(), serde_json::Value::Object(cell));
        }
        sweep_json.push(serde_json::json!({
            "trace": trace_name,
            "requests": trace.len(),
            "duration_s": trace.duration,
            "variants": serde_json::Value::Object(per_variant),
        }));
    }
    print_table(
        &[
            "Trace", "Variant", "Reqs", "Cold", "Warm", "Avg", "p99", "Spec hit",
        ],
        &rows,
    );

    // ── Invariant 1: inert identity ─────────────────────────────────────
    let diurnal_idx = traces.len() - 1;
    let inert = Platform::new(
        SimConfig {
            predict: Some(PredictConfig::inert()),
            ..base.clone()
        },
        Policy::Optimus,
        repo.clone(),
    )
    .run(&traces[diurnal_idx].1);
    let fixed = report_at(diurnal_idx, 0);
    assert_eq!(
        serde_json::to_string(&inert.records).expect("serializes"),
        serde_json::to_string(&fixed.records).expect("serializes"),
        "an inert predictor must reproduce the prediction-less run byte-identically"
    );
    println!("\ninert identity: OK (inert predictor == predict off, byte-identical records)");

    // ── Invariant 2: determinism ────────────────────────────────────────
    let last_v = variants.len() - 1;
    let rerun = Platform::new(
        SimConfig {
            predict: variants[last_v].predict(),
            ..base.clone()
        },
        Policy::Optimus,
        repo.clone(),
    )
    .run(&traces[diurnal_idx].1);
    assert_eq!(
        serde_json::to_string(&rerun).expect("serializes"),
        serde_json::to_string(report_at(diurnal_idx, last_v)).expect("serializes"),
        "same trace must give a byte-identical predictive report"
    );
    println!("determinism: OK (most aggressive diurnal cell re-ran byte-identically)");

    // ── Invariant 4: prediction wins on the diurnal trace ───────────────
    let default_spec = variants
        .iter()
        .position(|v| matches!(v, Variant::Speculative(a) if *a == 1.0))
        .expect("default aggressiveness in sweep");
    let predictive = report_at(diurnal_idx, default_spec);
    let (fixed_cold, pred_cold) = (cold_rate(fixed), cold_rate(predictive));
    let (fixed_p99, pred_p99) = (
        fixed.percentile_service_time(99.0),
        predictive.percentile_service_time(99.0),
    );
    assert!(
        pred_cold < fixed_cold,
        "diurnal: predictive cold-start rate {pred_cold} must beat fixed {fixed_cold}"
    );
    assert!(
        pred_p99 < fixed_p99,
        "diurnal: predictive p99 {pred_p99} must beat fixed {fixed_p99}"
    );
    println!(
        "prediction: OK (diurnal cold rate {} -> {}, p99 {} -> {})",
        fmt_pct(fixed_cold),
        fmt_pct(pred_cold),
        fmt_s(fixed_p99),
        fmt_s(pred_p99)
    );

    save_results(
        if small {
            "exp_prewarm_predict_small"
        } else {
            "exp_prewarm_predict"
        },
        &serde_json::json!({
            "config": if small { "small" } else { "full" },
            "seed": seed,
            "functions": names.len(),
            "fixed_keep_alive_s": DEFAULT_KEEP_ALIVE_S,
            "sweep": sweep_json,
        }),
    );
}
