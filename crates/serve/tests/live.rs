//! Live serving-engine tests: real threads, real transformations, real
//! inference.

use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph, PoolKind};
use optimus_serve::{Gateway, GatewayConfig, ServeError, ServedStart};

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

fn single_node() -> GatewayConfig {
    GatewayConfig {
        nodes: 1,
        capacity_per_node: 3,
        idle_threshold: 0.0, // everything idles instantly (tests)
        keep_alive: 60.0,
        store: Some(optimus_store::StoreConfig::default()),
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: None,
    }
}

#[test]
fn cold_then_warm_start() {
    let gw = Gateway::builder(single_node())
        .register(tiny("m", &[4]))
        .spawn();
    let r1 = gw.infer("m", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r1.start, ServedStart::Cold);
    assert_eq!(r1.output.shape().dims(), &[1, 4]);
    let r2 = gw.infer("m", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r2.start, ServedStart::Warm);
    assert_eq!(r2.transform_steps, 0);
    gw.shutdown();
}

#[test]
fn idle_container_is_really_transformed() {
    let gw = Gateway::builder(single_node())
        .register(tiny("small", &[4]))
        .register(tiny("large", &[4, 8]))
        .spawn();
    // Cold-start "small"; it instantly counts as idle (threshold 0).
    let r1 = gw.infer("small", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r1.start, ServedStart::Cold);
    // "large" must be served by transforming the idle "small" container.
    let r2 = gw.infer("large", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r2.start, ServedStart::Transformed);
    assert!(r2.transform_steps > 0, "meta-operators actually executed");
    assert_eq!(r2.output.shape().dims(), &[1, 4]);
    assert!(r2.output.data().iter().all(|v| v.is_finite()));
    gw.shutdown();
}

#[test]
fn transformation_roundtrip_back_and_forth() {
    let gw = Gateway::builder(single_node())
        .register(tiny("a", &[4]))
        .register(tiny("b", &[8, 8]))
        .spawn();
    for _ in 0..3 {
        let ra = gw.infer("a", Tensor::zeros([1, 3, 8, 8])).unwrap();
        assert!(ra.output.data().iter().all(|v| v.is_finite()));
        let rb = gw.infer("b", Tensor::zeros([1, 3, 8, 8])).unwrap();
        assert!(rb.output.data().iter().all(|v| v.is_finite()));
    }
    gw.shutdown();
}

#[test]
fn unknown_model_and_bad_input_are_reported() {
    let gw = Gateway::builder(single_node())
        .register(tiny("m", &[4]))
        .spawn();
    assert!(matches!(
        gw.infer("nope", Tensor::zeros([1, 3, 8, 8])),
        Err(ServeError::UnknownModel(_))
    ));
    assert!(matches!(
        gw.infer("m", Tensor::zeros([1, 1, 8, 8])),
        Err(ServeError::Inference(_))
    ));
    gw.shutdown();
}

#[test]
fn concurrent_clients_are_all_served() {
    let config = GatewayConfig {
        nodes: 2,
        capacity_per_node: 2,
        idle_threshold: 0.0,
        keep_alive: 60.0,
        store: Some(optimus_store::StoreConfig::default()),
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: None,
    };
    let gw = std::sync::Arc::new(
        Gateway::builder(config)
            .register(tiny("a", &[4]))
            .register(tiny("b", &[8]))
            .register(tiny("c", &[4, 4]))
            .register(tiny("d", &[8, 8]))
            .spawn(),
    );
    let mut clients = Vec::new();
    for t in 0..8 {
        let gw = gw.clone();
        clients.push(std::thread::spawn(move || {
            let names = ["a", "b", "c", "d"];
            for i in 0..10 {
                let m = names[(t + i) % 4];
                let r = gw.infer(m, Tensor::zeros([1, 3, 8, 8])).unwrap();
                assert_eq!(r.model, m);
                assert!(r.output.data().iter().all(|v| v.is_finite()));
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    let gw = std::sync::Arc::try_unwrap(gw)
        .ok()
        .expect("all clients done");
    gw.shutdown();
}

#[test]
fn capacity_is_respected_via_lru_eviction() {
    // Capacity 1: the node is always full and nothing ever idles, so each
    // new model transforms the eviction victim (the one container) instead
    // of destroying it. Requests always succeed and the node never holds
    // more than one container.
    let registry = std::sync::Arc::new(optimus_serve::MetricsRegistry::new());
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: 1,
        idle_threshold: 1e9, // never idle: only the eviction victim donates
        keep_alive: 1e9,
        store: Some(optimus_store::StoreConfig::default()),
        faults: None,
        serving: optimus_serve::ServingConfig::default(),
        predict: None,
    };
    let gw = Gateway::builder(config)
        .metrics(registry.clone())
        .register(tiny("x", &[4]))
        .register(tiny("y", &[8]))
        .spawn();
    let starts: Vec<ServedStart> = ["x", "y", "x", "y"]
        .iter()
        .map(|m| gw.infer(m, Tensor::zeros([1, 3, 8, 8])).unwrap().start)
        .collect();
    use ServedStart::{Cold, Transformed};
    assert_eq!(starts, [Cold, Transformed, Transformed, Transformed]);
    let containers = registry.gauge("optimus_containers", &[("node", "0")]);
    assert_eq!(containers.get(), 1.0);
    gw.shutdown();
}

#[test]
fn models_listing_and_drop_shutdown() {
    let gw = Gateway::builder(single_node())
        .register(tiny("m1", &[4]))
        .register(tiny("m2", &[8]))
        .spawn();
    assert_eq!(gw.models(), vec!["m1", "m2"]);
    drop(gw); // Drop-based shutdown must not hang.
}

/// A tiny attention model (embedding + one self-attention block).
fn tiny_attention(name: &str, hidden: usize, heads: usize) -> ModelGraph {
    use optimus_model::OpAttrs;
    let mut b = GraphBuilder::new(name);
    let i = b.input([1, 4]);
    let emb = b.after(i, "emb", OpAttrs::Embedding { vocab: 32, hidden });
    let q = b.after(emb, "q", OpAttrs::Query { hidden, heads });
    let k = b.after(emb, "k", OpAttrs::Key { hidden, heads });
    let v = b.after(emb, "v", OpAttrs::Value { hidden, heads });
    let l = b.merge(&[q, k], "logit", OpAttrs::Logit { heads });
    let sm = b.after(l, "softmax", OpAttrs::Softmax);
    let at = b.merge(&[sm, v], "attend", OpAttrs::Attend { heads });
    let _ = b.after(at, "out", OpAttrs::AttnOutput { hidden });
    b.finish().unwrap()
}

#[test]
fn live_transformer_transformation() {
    // §5.2 live: a small attention model is reshaped into a wider one
    // inside the container, then actually runs attention inference.
    let gw = Gateway::builder(single_node())
        .register(tiny_attention("attn-narrow", 8, 2))
        .register(tiny_attention("attn-wide", 16, 4))
        .spawn();
    let ids = Tensor::new([1, 4], vec![1.0, 2.0, 3.0, 4.0]);
    let r1 = gw.infer("attn-narrow", ids.clone()).unwrap();
    assert_eq!(r1.start, ServedStart::Cold);
    assert_eq!(r1.output.shape().dims(), &[1, 4, 8]);
    let r2 = gw.infer("attn-wide", ids).unwrap();
    assert_eq!(r2.start, ServedStart::Transformed);
    assert!(r2.transform_steps > 0);
    assert_eq!(r2.output.shape().dims(), &[1, 4, 16]);
    assert!(r2.output.data().iter().all(|v| v.is_finite()));
    gw.shutdown();
}

#[test]
fn live_rnn_transformation() {
    use optimus_model::OpAttrs;
    let rnn = |name: &str, hidden: usize| {
        let mut b = GraphBuilder::new(name);
        let i = b.input([1, 5]);
        let emb = b.after(
            i,
            "emb",
            OpAttrs::Embedding {
                vocab: 16,
                hidden: 8,
            },
        );
        let l = b.after(emb, "lstm", OpAttrs::Lstm { input: 8, hidden });
        let _ = b.after(
            l,
            "clf",
            OpAttrs::Dense {
                in_features: hidden,
                out_features: 2,
                bias: true,
            },
        );
        b.finish().unwrap()
    };
    let gw = Gateway::builder(single_node())
        .register(rnn("rnn-small", 6))
        .register(rnn("rnn-large", 12))
        .spawn();
    let ids = Tensor::new([1, 5], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    let r1 = gw.infer("rnn-small", ids.clone()).unwrap();
    assert_eq!(r1.start, ServedStart::Cold);
    let r2 = gw.infer("rnn-large", ids).unwrap();
    assert_eq!(r2.start, ServedStart::Transformed);
    assert_eq!(r2.output.shape().dims(), &[1, 5, 2]);
    gw.shutdown();
}

#[test]
fn store_accounts_the_container_lifecycle() {
    // With the weight store enabled, cold starts admit chunks (misses),
    // warm hits leave the store untouched, and a transformation admits
    // only the cached plan's payload delta.
    let gw = Gateway::builder(single_node())
        .register(tiny("a", &[4]))
        .register(tiny("b", &[8]))
        .spawn();
    let input = Tensor::zeros([1, 3, 8, 8]);

    let r = gw.infer("a", input.clone()).unwrap();
    assert_eq!(r.start, ServedStart::Cold);
    let after_cold = gw.store_stats().expect("store enabled by config");
    assert!(after_cold.misses > 0, "cold start fetches from remote");
    assert!(after_cold.container_bytes > 0, "model chunks are resident");

    let r = gw.infer("a", input.clone()).unwrap();
    assert_eq!(r.start, ServedStart::Warm);
    let after_warm = gw.store_stats().unwrap();
    assert_eq!(
        after_warm.admitted_bytes, after_cold.admitted_bytes,
        "warm hits admit nothing"
    );

    let r = gw.infer("b", input).unwrap();
    assert_eq!(r.start, ServedStart::Transformed);
    let after_transform = gw.store_stats().unwrap();
    let delta_fetched = after_transform.fetched_bytes - after_cold.fetched_bytes;
    let delta_admitted = after_transform.admitted_bytes - after_cold.admitted_bytes;
    assert!(
        delta_fetched <= delta_admitted,
        "the transform fetches at most the plan payload"
    );
    assert!(
        after_transform.container_bytes > 0,
        "the transformed model's chunks are resident"
    );

    let per_node = gw.store_stats_by_node();
    assert_eq!(per_node.len(), 1, "single node publishes one snapshot");
    gw.shutdown();
}

#[test]
fn store_disabled_reports_nothing() {
    let config = GatewayConfig {
        store: None,
        ..single_node()
    };
    let gw = Gateway::builder(config).register(tiny("a", &[4])).spawn();
    let r = gw.infer("a", Tensor::zeros([1, 3, 8, 8])).unwrap();
    assert_eq!(r.start, ServedStart::Cold);
    assert!(gw.store_stats().is_none(), "no store, no stats");
    assert!(gw.store_stats_by_node().is_empty());
    gw.shutdown();
}
