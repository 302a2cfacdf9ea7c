//! Edge cases for the worker's work-conserving per-model batching: a
//! lone request is served as a batch of one, requests queued behind a
//! busy worker are served as one group, mixed-model arrivals are never
//! co-batched, and responses are byte-identical whether batched or not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_model::tensor::Tensor;
use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_serve::{
    Gateway, GatewayConfig, InferenceResponse, InferenceResult, MetricsRegistry, PendingInference,
    ServingConfig,
};

fn tiny(name: &str, out_ch: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input([1, 3, 8, 8]);
    let x = b.conv2d_after(x, 3, out_ch, (3, 3), (1, 1), 1);
    let _ = b.activation_after(x, Activation::Relu);
    b.finish().unwrap()
}

fn config(serving: ServingConfig) -> GatewayConfig {
    GatewayConfig {
        nodes: 1,
        capacity_per_node: 4,
        idle_threshold: 0.0,
        keep_alive: 60.0,
        store: None,
        faults: None,
        serving,
        predict: None,
    }
}

/// Poll a set of submitted requests round-robin until all complete.
fn drain_all(gw: &Gateway, mut pending: Vec<PendingInference>) -> Vec<InferenceResult> {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut done: Vec<Option<InferenceResult>> = (0..pending.len()).map(|_| None).collect();
    while done.iter().any(Option::is_none) {
        assert!(Instant::now() < deadline, "requests never completed");
        for (i, p) in pending.iter_mut().enumerate() {
            if done[i].is_none() {
                if let Some(r) = gw.poll(p) {
                    done[i] = Some(r);
                }
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    done.into_iter().map(|r| r.expect("checked")).collect()
}

/// Two 3×3 convolutions over a 64×64 input: a forward pass far longer
/// than submitting a burst of tiny requests, so the burst queues behind
/// it.
fn slow(name: &str) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input([1, 3, 64, 64]);
    let x = b.conv2d_after(x, 3, 32, (3, 3), (1, 1), 1);
    let x = b.activation_after(x, Activation::Relu);
    let _ = b.conv2d_after(x, 32, 32, (3, 3), (1, 1), 1);
    b.finish().unwrap()
}

#[test]
fn lone_request_is_served_as_a_batch_of_one() {
    // Default serving config, no other traffic: the worker serves the
    // request it picked up without waiting for followers.
    let gw = Gateway::builder(config(ServingConfig::default()))
        .register(tiny("m", 4))
        .spawn();
    let r = gw.infer("m", Tensor::zeros([1, 3, 8, 8])).expect("serves");
    assert_eq!(r.batch_size, 1, "a lone request is a batch of one");
    gw.shutdown();
}

#[test]
fn mixed_model_arrivals_are_never_co_batched() {
    // Interleaved arrivals for two models on one node, queued together:
    // groups are per-model, so no response may report a batch
    // larger than its own model's request count, and every output must
    // have its own model's shape.
    let gw = Gateway::builder(config(ServingConfig {
        queue_depth: 64,
        max_batch: 16,
    }))
    .register(tiny("a", 4))
    .register(tiny("b", 8))
    .spawn();
    let per_model = 6usize;
    let mut pending = Vec::new();
    for _ in 0..per_model {
        pending.push(gw.submit("a", Tensor::zeros([1, 3, 8, 8])).expect("admits"));
        pending.push(gw.submit("b", Tensor::zeros([1, 3, 8, 8])).expect("admits"));
    }
    let results = drain_all(&gw, pending);
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().expect("all requests succeed");
        let expect_ch = if i % 2 == 0 { 4 } else { 8 };
        assert_eq!(
            r.output.shape().dims(),
            &[1, expect_ch, 8, 8],
            "request {i} got another model's output"
        );
        assert!(
            r.batch_size <= per_model,
            "request {i} reports batch_size {} > its model's {} requests: \
             models were co-batched",
            r.batch_size,
            per_model
        );
    }
    gw.shutdown();
}

#[test]
fn batched_and_unbatched_responses_are_byte_identical() {
    let metrics = Arc::new(MetricsRegistry::new());
    let gw = Gateway::builder(config(ServingConfig {
        queue_depth: 64,
        max_batch: 8,
    }))
    .metrics(metrics.clone())
    .register(tiny("m", 4))
    .register(slow("slow"))
    .spawn();
    let input = || {
        let numel = 3 * 8 * 8;
        Tensor::new(
            vec![1, 3, 8, 8],
            (0..numel).map(|i| (i as f32) * 0.01 - 0.5).collect(),
        )
    };
    // Baseline: a lone request (batch of one).
    let solo = gw.infer("m", input()).expect("solo request serves");
    assert_eq!(solo.batch_size, 1);
    let solo_bits: Vec<u32> = solo.output.data().iter().map(|v| v.to_bits()).collect();

    // Occupy the worker: once the queue-depth gauge reads 0 it has taken
    // the slow request off its queue and is serving it.
    let busy = gw
        .submit("slow", Tensor::zeros([1, 3, 64, 64]))
        .expect("admits");
    let depth = metrics.gauge("optimus_serve_queue_depth", &[("node", "0")]);
    let deadline = Instant::now() + Duration::from_secs(20);
    while depth.get() != 0.0 {
        assert!(Instant::now() < deadline, "worker never took the request");
        std::thread::yield_now();
    }

    // Burst: queued behind the busy worker, so it takes them as one
    // group when the slow pass ends; each runs its own forward pass.
    let burst: Vec<PendingInference> = (0..6)
        .map(|_| gw.submit("m", input()).expect("admits"))
        .collect();
    let results: Vec<InferenceResponse> = drain_all(&gw, burst)
        .into_iter()
        .map(|r| r.expect("burst requests succeed"))
        .collect();
    assert!(
        results.iter().all(|r| r.batch_size == results.len()),
        "burst of {} queued behind a busy worker was not served as one group: {:?}",
        results.len(),
        results.iter().map(|r| r.batch_size).collect::<Vec<_>>()
    );
    for (i, r) in results.iter().enumerate() {
        let bits: Vec<u32> = r.output.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, solo_bits,
            "batched response {i} (batch_size {}) differs from the unbatched baseline",
            r.batch_size
        );
    }
    let slow_result = drain_all(&gw, vec![busy]).pop().expect("one result");
    assert_eq!(slow_result.expect("slow request serves").batch_size, 1);
    gw.shutdown();
}
