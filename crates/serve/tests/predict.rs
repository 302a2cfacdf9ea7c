//! Live arrival-prediction tests: prediction off leaves the engine
//! untouched, adaptive keep-alive replaces the global window with learned
//! per-model windows, and idle-tick speculation converts an idle donor
//! ahead of a predicted arrival into a real warm hit.

use std::time::Duration;

use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph, PoolKind};
use optimus_serve::{
    Gateway, GatewayConfig, MetricsRegistry, PredictConfig, ServedStart, SpeculationConfig,
};

/// A tiny CNN small enough for the naive forward-pass engine.
fn tiny(name: &str, channels: &[usize]) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let mut x = b.input([1, 3, 8, 8]);
    let mut ch = 3;
    for &c in channels {
        x = b.conv2d_after(x, ch, c, (3, 3), (1, 1), 1);
        x = b.activation_after(x, Activation::Relu);
        ch = c;
    }
    let x = b.pool_after(x, PoolKind::Max, (2, 2), (2, 2));
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, ch * 16, 4);
    b.finish().unwrap()
}

fn input() -> Tensor {
    Tensor::zeros([1, 3, 8, 8])
}

#[test]
fn prediction_off_is_invisible() {
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: 3,
        idle_threshold: 0.0,
        keep_alive: 30.0,
        store: None,
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: None,
    };
    let gw = Gateway::builder(config)
        .metrics(registry.clone())
        .register(tiny("m", &[4]))
        .spawn();
    assert_eq!(gw.infer("m", input()).unwrap().start, ServedStart::Cold);
    assert_eq!(gw.infer("m", input()).unwrap().start, ServedStart::Warm);
    // No predictor: the global keep-alive applies, no demand is ever
    // forecast, and no `optimus_predict_*` series exist.
    assert_eq!(gw.keep_alive_for("m"), Some(30.0));
    assert_eq!(gw.keep_alive_for("nope"), None);
    assert_eq!(gw.predicted_demand(1e9), 0);
    assert!(
        !registry.render_prometheus().contains("optimus_predict"),
        "prediction off must not register its metric families"
    );
    gw.shutdown();
}

#[test]
fn adaptive_keep_alive_applies_learned_windows() {
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: 3,
        idle_threshold: 0.0,
        keep_alive: 30.0,
        store: None,
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: Some(PredictConfig {
            min_history: 2,
            keep_alive_floor: 0.05,
            keep_alive_ceiling: 0.4,
            adaptive_keep_alive: true,
            speculation: None,
            ..PredictConfig::default()
        }),
    };
    let gw = Gateway::builder(config)
        .metrics(registry.clone())
        .register(tiny("m", &[4]))
        .spawn();
    // Arrivals every ~150 ms teach the predictor a sub-second window.
    for _ in 0..5 {
        gw.infer("m", input()).unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    let window = gw.keep_alive_for("m").unwrap();
    assert!(
        window > 0.0 && window <= 0.4,
        "learned window replaces the 30 s global constant: {window}"
    );
    // Idle well past the learned window but far under the global 30 s:
    // the adaptive sweep must have evicted the container.
    std::thread::sleep(Duration::from_millis(900));
    assert_eq!(
        gw.infer("m", input()).unwrap().start,
        ServedStart::Cold,
        "a learned sub-second window evicts what a 30 s window would keep"
    );
    assert!(
        registry
            .counter("optimus_predict_observed_total", &[])
            .get()
            >= 6
    );
    assert!(registry
        .render_prometheus()
        .contains("optimus_predict_keep_alive_seconds"));
    gw.shutdown();
}

#[test]
fn speculation_warms_a_predicted_arrival() {
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: 4,
        idle_threshold: 0.25,
        keep_alive: 0.6,
        store: None,
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: Some(PredictConfig {
            min_history: 2,
            adaptive_keep_alive: false,
            // A generous lead keeps the whole forecast band eligible; a
            // high aggressiveness leaves only the hard budget gate
            // (plan cost < scratch load) in play for these tiny models.
            speculation: Some(SpeculationConfig {
                lead: 5.0,
                aggressiveness: 100.0,
            }),
            ..PredictConfig::default()
        }),
    };
    let cycles = 6;
    let mut builder = Gateway::builder(config)
        .metrics(registry.clone())
        // In-process "loads" are graph clones (microseconds), so the
        // default measured-wall-clock guard would demote every plan
        // after two real transforms; judge plans by modeled cost only.
        .overrun_policy(f64::INFINITY, 2)
        .register(tiny("feeder", &[4]))
        .register(tiny("hot", &[4, 8]));
    for k in 0..cycles {
        builder = builder.register(tiny(&format!("spare{k}"), &[4, 4]));
    }
    let gw = builder.spawn();
    // "hot" returns every ~1 s — past the 0.6 s keep-alive, so reactively
    // it can never warm-start. "feeder" refreshes every 125 ms, inside
    // the idle threshold, so its container never becomes a donor. Half
    // way between "hot" arrivals a one-off "spare" model reclaims the
    // idle "hot" container, which idles in turn; once "hot" has history,
    // an idle tick transforms that donor ahead of the next "hot" arrival.
    // Each spare arrives once, so nothing else is ever forecast.
    let mut starts = Vec::new();
    for step in 0..8 * cycles {
        match step % 8 {
            0 => starts.push(gw.infer("hot", input()).unwrap().start),
            4 => {
                gw.infer(&format!("spare{}", step / 8), input()).unwrap();
            }
            _ => {}
        }
        gw.infer("feeder", input()).unwrap();
        std::thread::sleep(Duration::from_millis(125));
    }
    let speculations = registry
        .counter("optimus_predict_speculations_total", &[])
        .get();
    let hits = registry
        .counter("optimus_predict_spec_hits_total", &[])
        .get();
    assert!(
        speculations >= 1,
        "speculative transforms fired: {starts:?}"
    );
    assert!(hits >= 1, "a predicted arrival warm-started: {starts:?}");
    assert!(hits <= speculations);
    assert!(
        starts.iter().skip(2).any(|s| *s == ServedStart::Warm),
        "warm hits are impossible here without speculation: {starts:?}"
    );
    // With fresh history on both models, the forecast bands ahead feed
    // the predictive scale-out signal.
    assert!(gw.predicted_demand(10.0) >= 1);
    gw.shutdown();
}
