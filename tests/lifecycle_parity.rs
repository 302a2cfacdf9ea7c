//! Differential test of the container-lifecycle policy: one arrival
//! sequence replayed through the simulator's Optimus driver and through
//! the live worker's container pool, on a fake clock, must produce the
//! same decision sequence — warm hits, transformations from the cheapest
//! donor, the eviction-victim donor, the safeguard repurpose, an injected
//! transform failure and keep-alive expiry.
//!
//! Arrivals are spaced wider than any modelled service time, so no
//! container is busy in either driver; one node, no store.

use std::sync::Arc;

use optimus::core::{GroupPlanner, ModelRepository};
use optimus::model::{Activation, GraphBuilder, ModelGraph, OpAttrs, PoolKind};
use optimus::profile::CostModel;
use optimus::serve::{ContainerPool, GatewayConfig, MetricsRegistry, ServedStart, ServingConfig};
use optimus::sim::{PlacementStrategy, Platform, Policy, SimConfig, StartKind};
use optimus::workload::{Invocation, Trace};
use optimus_faults::{FaultInjector, FaultPlan, FaultSpec};

const CAPACITY: usize = 3;
const IDLE_THRESHOLD: f64 = 10.0;
const KEEP_ALIVE: f64 = 100.0;

/// A tiny CNN the live engine transforms in microseconds.
fn cnn(name: &str, channels: &[usize]) -> ModelGraph {
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

/// A tiny recurrent model: no plan from a CNN donor beats its scratch
/// load under the repository's safeguard ratio.
fn rnn(name: &str) -> ModelGraph {
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
    let l = b.after(
        emb,
        "lstm",
        OpAttrs::Lstm {
            input: 8,
            hidden: 6,
        },
    );
    let _ = b.after(
        l,
        "clf",
        OpAttrs::Dense {
            in_features: 6,
            out_features: 2,
            bias: true,
        },
    );
    b.finish().unwrap()
}

/// A transform must cost under half a scratch load, so CNN↔RNN pairs
/// fall back to loading. Measured wall-clock never demotes a plan here:
/// live "loads" are graph clones.
fn repo() -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner))
        .with_safeguard_ratio(0.5)
        .with_overrun_policy(f64::INFINITY, 2);
    let cost = CostModel::default();
    for m in [
        cnn("a4", &[4]),
        cnn("b8", &[8]),
        cnn("c48", &[4, 8]),
        cnn("d44", &[4, 4]),
        rnn("r6"),
    ] {
        repo.register(m, &cost);
    }
    Arc::new(repo)
}

/// One lifecycle decision, with the donor's model where a driver shows
/// it.
#[derive(Debug, Clone, PartialEq)]
enum Decision {
    Warm,
    Cold,
    Transform(String),
    Repurpose(Option<String>),
    Escalated(Option<String>),
}

/// The script: `(time, model, expected decision)`. Donors of a
/// repurpose or an escalation are what the live pool reports; the
/// simulator's records do not name them.
fn script() -> Vec<(f64, &'static str, Decision)> {
    use Decision::*;
    let donor = |m: &str| Some(m.to_string());
    vec![
        (0.0, "a4", Cold),
        // a4 is not idle yet and a slot is free.
        (4.0, "d44", Cold),
        // Both are idle; d44 → c48 is the cheaper plan, though a4 has
        // been idle longer.
        (20.0, "c48", Transform("d44".into())),
        (22.0, "c48", Warm),
        // Only a4 is idle and no plan from it beats loading r6.
        (24.0, "r6", Repurpose(donor("a4"))),
        // Nothing idle, a slot free.
        (26.0, "b8", Cold),
        // Nothing idle and the node is full: the eviction victim (c48,
        // least recently routed) is the donor.
        (28.0, "a4", Transform("c48".into())),
        // Three idle donors, a4 the cheapest; its transform is injected
        // to fail and the safeguard reloads it from scratch.
        (45.0, "d44", Escalated(donor("a4"))),
        // r6 and b8 expired (keep-alive 100 s); d44 is the only donor
        // and cannot transform into r6.
        (140.0, "r6", Repurpose(donor("d44"))),
        (142.0, "r6", Warm),
        // Everything expired: a cold start on an empty node.
        (300.0, "a4", Cold),
    ]
}

/// Index of the request whose transform fails.
const FAILED: usize = 7;

/// Requests whose start would transform: the fault draw must fail
/// exactly [`FAILED`] among them.
const TRANSFORMS: [usize; 3] = [2, 6, FAILED];

/// A transform-failure-only fault plan whose per-request draw fails
/// request [`FAILED`] and no other transform.
fn fault_plan() -> FaultPlan {
    (0..10_000u64)
        .map(|seed| {
            FaultPlan::from_spec(FaultSpec {
                transform_failure_rate: 0.5,
                ..FaultSpec::off(seed)
            })
        })
        .find(|plan| {
            let inj = FaultInjector::new(plan);
            TRANSFORMS
                .iter()
                .all(|&i| inj.for_request(i as u64).transform_failure == (i == FAILED))
        })
        .expect("some seed fails exactly the chosen transform")
}

fn sim_decisions(repo: &Arc<ModelRepository>, plan: &FaultPlan) -> Vec<Decision> {
    let script = script();
    let invocations = script
        .iter()
        .map(|&(time, f, _)| Invocation {
            time,
            function: f.to_string(),
        })
        .collect();
    let trace = Trace::new(400.0, invocations);
    let config = SimConfig {
        nodes: 1,
        capacity_per_node: CAPACITY,
        idle_threshold: IDLE_THRESHOLD,
        keep_alive: KEEP_ALIVE,
        placement: PlacementStrategy::Hash,
        faults: Some(plan.clone()),
        ..SimConfig::default()
    };
    let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
    let abort = plan.spec.transform_abort_seconds;
    let names = repo.model_names();
    let gaps: Vec<f64> = script.windows(2).map(|w| w[1].0 - w[0].0).collect();
    let min_gap = gaps.iter().copied().fold(f64::INFINITY, f64::min);
    report
        .records
        .iter()
        .map(|r| {
            assert!(r.wait == 0.0, "no container is ever busy");
            assert!(r.service_time() < min_gap, "arrivals outlast service");
            let scratch = repo.load_cost(&r.function).unwrap();
            match r.kind {
                StartKind::Warm => Decision::Warm,
                StartKind::Cold => Decision::Cold,
                StartKind::Transform if r.load == scratch => Decision::Repurpose(None),
                StartKind::Transform if r.load == abort + scratch => Decision::Escalated(None),
                StartKind::Transform => {
                    let donors: Vec<&String> = names
                        .iter()
                        .filter(|s| repo.transform_latency(s, &r.function) == Some(r.load))
                        .collect();
                    assert_eq!(donors.len(), 1, "plan latency names the donor");
                    Decision::Transform(donors[0].clone())
                }
            }
        })
        .collect()
}

fn live_decisions(repo: &Arc<ModelRepository>, plan: &FaultPlan) -> Vec<Decision> {
    let config = GatewayConfig {
        nodes: 1,
        capacity_per_node: CAPACITY,
        idle_threshold: IDLE_THRESHOLD,
        keep_alive: KEEP_ALIVE,
        store: None,
        faults: None,
        serving: ServingConfig::default(),
        predict: None,
    };
    let metrics = MetricsRegistry::new();
    let escalations = metrics.counter("optimus_safeguard_escalations_total", &[("node", "0")]);
    let mut pool = ContainerPool::new(0, &config, repo.clone(), &metrics);
    let inj = FaultInjector::new(plan);
    let name = |id| repo.model_name_of(id).expect("registered");
    script()
        .iter()
        .enumerate()
        .map(|(i, &(time, f, _))| {
            let before = escalations.get();
            let fail = inj.for_request(i as u64).transform_failure;
            let model = repo.model_id(f).expect("registered");
            let got = pool.acquire(model, time, fail).expect("acquired");
            assert!(pool.len() <= CAPACITY);
            let donor = got.donor.map(name);
            match got.start {
                ServedStart::Warm => Decision::Warm,
                ServedStart::Transformed => Decision::Transform(donor.expect("a donor")),
                ServedStart::Cold if escalations.get() > before => Decision::Escalated(donor),
                ServedStart::Cold if donor.is_some() => Decision::Repurpose(donor),
                ServedStart::Cold => Decision::Cold,
            }
        })
        .collect()
}

/// The simulator's records do not name the donor of a scratch reload.
fn without_reload_donors(decisions: &[Decision]) -> Vec<Decision> {
    decisions
        .iter()
        .map(|d| match d {
            Decision::Repurpose(_) => Decision::Repurpose(None),
            Decision::Escalated(_) => Decision::Escalated(None),
            d => d.clone(),
        })
        .collect()
}

#[test]
fn simulator_and_live_worker_decide_alike() {
    let plan = fault_plan();
    let expected: Vec<Decision> = script().into_iter().map(|(_, _, d)| d).collect();
    let live = live_decisions(&repo(), &plan);
    assert_eq!(live, expected, "live pool");
    let sim = sim_decisions(&repo(), &plan);
    assert_eq!(sim, without_reload_donors(&expected), "simulator");
}
