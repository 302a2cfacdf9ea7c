//! Arrival-prediction integration tests: `predict: None` and an inert
//! config (adaptive keep-alive off, speculation off) are byte-identical,
//! adaptive windows hold containers across gaps a fixed window drops,
//! speculative transformation turns predicted arrivals into warm hits
//! with misprediction cost bounded by the cost-model gate, and runs stay
//! deterministic.

use std::sync::Arc;

use optimus_core::{GroupPlanner, ModelRepository};
use optimus_sim::{
    PlacementStrategy, Platform, Policy, PredictConfig, SimConfig, SpeculationConfig, StartKind,
};
use optimus_workload::{Invocation, Trace};

fn repo_with(models: Vec<optimus_model::ModelGraph>) -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = optimus_profile::CostModel::default();
    for m in models {
        repo.register(m, &cost);
    }
    Arc::new(repo)
}

fn config(predict: Option<PredictConfig>) -> SimConfig {
    SimConfig {
        nodes: 1,
        placement: PlacementStrategy::Hash,
        predict,
        ..SimConfig::default()
    }
}

/// Periodic arrivals of `f` every `gap` seconds starting at 0.
fn periodic(inv: &mut Vec<Invocation>, f: &str, gap: f64, until: f64) {
    let mut t = 0.0;
    while t < until {
        inv.push(Invocation {
            time: t,
            function: f.to_string(),
        });
        t += gap;
    }
}

#[test]
fn predict_off_and_inert_are_byte_identical() {
    let repo = repo_with(vec![
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::vgg::vgg11(),
    ]);
    let mut inv = Vec::new();
    periodic(&mut inv, "resnet18", 700.0, 5_000.0);
    periodic(&mut inv, "vgg11", 130.0, 5_000.0);
    let trace = Trace::new(5_000.0, inv);
    let off = Platform::new(config(None), Policy::Optimus, repo.clone()).run(&trace);
    let json = serde_json::to_string(&off).unwrap();
    assert!(
        !json.contains("\"predict\""),
        "a prediction-less report serializes exactly as before the layer existed"
    );
    // Inert predictor: observes arrivals but never changes behavior —
    // request records must be byte-identical to prediction off.
    let inert = Platform::new(
        config(Some(PredictConfig::inert())),
        Policy::Optimus,
        repo.clone(),
    )
    .run(&trace);
    let pr = inert.predict.as_ref().expect("predict layer enabled");
    assert_eq!(pr.observed_arrivals, trace.len() as u64);
    assert_eq!(pr.speculations, 0);
    assert_eq!(pr.spec_mispredictions, 0);
    assert_eq!(
        serde_json::to_string(&off.records).unwrap(),
        serde_json::to_string(&inert.records).unwrap(),
        "an inert predictor must not perturb request records"
    );
    // The inert window statistics are exactly the fixed baseline.
    assert_eq!(pr.window_samples, trace.len() as u64);
    assert!((pr.mean_window() - 600.0).abs() < 1e-12);
}

#[test]
fn adaptive_keep_alive_holds_containers_across_long_gaps() {
    // Arrivals every 700 s: a fixed 600 s window evicts the container
    // right before each return; the learned window (tail × margin ≈
    // 875 s) keeps it warm once the histogram has history.
    let repo = repo_with(vec![optimus_zoo::resnet::resnet18()]);
    let mut inv = Vec::new();
    periodic(&mut inv, "resnet18", 700.0, 8_000.0);
    let trace = Trace::new(8_000.0, inv);
    let fixed = Platform::new(config(None), Policy::Optimus, repo.clone()).run(&trace);
    let adaptive_cfg = PredictConfig {
        adaptive_keep_alive: true,
        speculation: None,
        ..PredictConfig::default()
    };
    let adaptive =
        Platform::new(config(Some(adaptive_cfg)), Policy::Optimus, repo.clone()).run(&trace);
    let warm = |r: &optimus_sim::SimReport| {
        r.records
            .iter()
            .filter(|x| x.kind == StartKind::Warm)
            .count()
    };
    assert_eq!(warm(&fixed), 0, "700 s gaps never warm-start at 600 s");
    assert!(
        warm(&adaptive) >= 5,
        "learned windows must hold the container once history accrues: {} warm",
        warm(&adaptive)
    );
    let pr = adaptive.predict.expect("predict layer enabled");
    assert!(
        pr.mean_window() > 600.0,
        "windows stretched beyond the default: {}",
        pr.mean_window()
    );
    assert!(pr.window_seconds_sum.is_finite());
}

#[test]
fn speculation_turns_predicted_arrivals_into_warm_hits() {
    // resnet18 returns every 730 s (past keep-alive, so reactively it
    // always pays a transform/cold start). vgg11 arrives every 10 s and
    // drives the event clock; resnet34 refreshes every 400 s so an idle
    // same-family donor is always available. With speculation on, the
    // predictor converts the donor ahead of each forecast return.
    let repo = repo_with(vec![
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::vgg::vgg11(),
    ]);
    let mut inv = Vec::new();
    periodic(&mut inv, "resnet18", 730.0, 6_000.0);
    periodic(&mut inv, "resnet34", 400.0, 6_000.0);
    periodic(&mut inv, "vgg11", 10.0, 6_000.0);
    let mut trace = Trace::new(6_000.0, inv);
    trace.invocations.sort_by(|a, b| {
        a.time
            .partial_cmp(&b.time)
            .unwrap()
            .then_with(|| a.function.cmp(&b.function))
    });
    let spec_cfg = PredictConfig {
        adaptive_keep_alive: false,
        speculation: Some(SpeculationConfig {
            lead: 12.0,
            aggressiveness: 1.0,
        }),
        ..PredictConfig::default()
    };
    let baseline = Platform::new(config(None), Policy::Optimus, repo.clone()).run(&trace);
    let spec = Platform::new(config(Some(spec_cfg)), Policy::Optimus, repo.clone()).run(&trace);
    let pr = spec.predict.as_ref().expect("predict layer enabled");
    assert!(pr.speculations >= 1, "speculative transforms fired: {pr:?}");
    assert!(
        pr.spec_hits >= 1,
        "a predicted arrival warm-started: {pr:?}"
    );
    assert!(
        pr.max_spec_over_budget < 0.0,
        "every speculation must cost less than the cold start it replaces: {}",
        pr.max_spec_over_budget
    );
    assert!(pr.spec_saved_seconds > pr.spec_cost_seconds);
    let service_18 = |r: &optimus_sim::SimReport| {
        let (n, sum) = r
            .records
            .iter()
            .filter(|x| x.function == "resnet18")
            .fold((0usize, 0.0), |(n, s), x| (n + 1, s + x.service_time()));
        sum / n as f64
    };
    let warm_18 = |r: &optimus_sim::SimReport| {
        r.records
            .iter()
            .filter(|x| x.function == "resnet18" && x.kind == StartKind::Warm)
            .count()
    };
    assert_eq!(warm_18(&baseline), 0, "reactively, 730 s gaps never warm");
    assert!(
        warm_18(&spec) >= 3,
        "speculation hits surface as warm starts: {} warm",
        warm_18(&spec)
    );
    // The predicted function's latency improves; speculation itself runs
    // in the background, off the request path.
    assert!(service_18(&spec) < service_18(&baseline));
}

#[test]
fn predictive_runs_are_deterministic() {
    let repo = repo_with(vec![
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::vgg::vgg11(),
    ]);
    let mut inv = Vec::new();
    periodic(&mut inv, "resnet18", 730.0, 4_000.0);
    periodic(&mut inv, "resnet34", 400.0, 4_000.0);
    periodic(&mut inv, "vgg11", 10.0, 4_000.0);
    let trace = Trace::new(4_000.0, inv);
    let run = || {
        Platform::new(
            config(Some(PredictConfig::default())),
            Policy::Optimus,
            repo.clone(),
        )
        .run(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same config + trace ⇒ byte-identical reports"
    );
    assert!(serde_json::to_string(&a).unwrap().contains("\"predict\""));
}

/// A trace of explicit `(time, function)` arrivals.
fn arrivals_trace(arrivals: &[(f64, &str)], duration: f64) -> Trace {
    Trace::new(
        duration,
        arrivals
            .iter()
            .map(|&(time, f)| Invocation {
                time,
                function: f.to_string(),
            })
            .collect(),
    )
}

fn family_repo() -> Arc<ModelRepository> {
    repo_with(vec![
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::resnet::resnet18(),
    ])
}

fn four_slots(predict: Option<PredictConfig>) -> SimConfig {
    SimConfig {
        capacity_per_node: 4,
        ..config(predict)
    }
}

#[test]
fn prediction_needs_history_before_acting() {
    // (`PredictConfig::default()` speculates.) Two alternating functions,
    // three arrivals each: below `min_history`
    // the predictor forecasts nothing, so it neither speculates nor moves
    // a keep-alive window, and every request matches the reactive run.
    let mut arrivals = Vec::new();
    for i in 0..3 {
        arrivals.push((300.0 * (i + 1) as f64, "vgg16"));
        arrivals.push((300.0 * (i + 1) as f64 + 100.0, "vgg19"));
    }
    let trace = arrivals_trace(&arrivals, 2_000.0);
    let repo = family_repo();
    let cfg = PredictConfig {
        min_history: 10,
        ..PredictConfig::default()
    };
    let base = Platform::new(four_slots(None), Policy::Optimus, repo.clone()).run(&trace);
    let pred = Platform::new(four_slots(Some(cfg)), Policy::Optimus, repo).run(&trace);
    let pr = pred.predict.as_ref().expect("predict layer enabled");
    assert_eq!(
        pr.speculations, 0,
        "insufficient history must not speculate"
    );
    assert_eq!(pred.records, base.records);
}

#[test]
fn speculative_runs_are_deterministic() {
    let mut arrivals = Vec::new();
    for i in 0..10 {
        arrivals.push((200.0 * (i + 1) as f64, "vgg16"));
        arrivals.push((200.0 * (i + 1) as f64 + 90.0, "resnet18"));
    }
    let trace = arrivals_trace(&arrivals, 4_000.0);
    let repo = family_repo();
    let run = || {
        Platform::new(
            four_slots(Some(PredictConfig::default())),
            Policy::Optimus,
            repo.clone(),
        )
        .run(&trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn speculation_never_costs_requests_anything() {
    // Speculation runs off the request path and its cost gate bounds every
    // guess, so the predicted run's mean service time must improve or tie
    // the reactive one.
    let mut arrivals = Vec::new();
    for i in 0..10 {
        arrivals.push((400.0 * (i + 1) as f64, "vgg16"));
        arrivals.push((400.0 * (i + 1) as f64 + 150.0, "vgg19"));
    }
    let trace = arrivals_trace(&arrivals, 5_000.0);
    let repo = family_repo();
    let base = Platform::new(four_slots(None), Policy::Optimus, repo.clone()).run(&trace);
    let pred = Platform::new(
        four_slots(Some(PredictConfig::default())),
        Policy::Optimus,
        repo,
    )
    .run(&trace);
    assert!(pred.avg_service_time() <= base.avg_service_time() + 1e-9);
}
