//! Cross-crate integration tests: the full Optimus pipeline from model
//! zoo through planning, execution, load balancing and platform
//! simulation.

use std::sync::Arc;

use optimus::core::{execute_plan, GroupPlanner, ModelRepository, Planner};
use optimus::profile::{CostModel, CostProvider};
use optimus::sim::{PlacementStrategy, Platform, Policy, SimConfig, StartKind};
use optimus::workload::{AzureTraceGenerator, PoissonGenerator};

fn small_repo() -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::default();
    repo.register_all(
        vec![
            optimus::zoo::vgg::vgg11(),
            optimus::zoo::vgg::vgg16(),
            optimus::zoo::resnet::resnet18(),
            optimus::zoo::resnet::resnet50(),
            optimus::zoo::mobilenet::mobilenet_v1(1.0, 0),
            optimus::zoo::mobilenet::mobilenet_v1(0.5, 0),
        ],
        &cost,
    );
    Arc::new(repo)
}

#[test]
fn full_pipeline_poisson() {
    let repo = small_repo();
    let functions = repo.model_names();
    let trace = PoissonGenerator::new(0.01, 30_000.0, 3).generate(&functions);
    let config = SimConfig {
        nodes: 1,
        capacity_per_node: 3,
        placement: PlacementStrategy::Hash,
        ..SimConfig::default()
    };
    let mut avgs = Vec::new();
    for policy in Policy::ALL {
        let report = Platform::new(config.clone(), policy, repo.clone()).run(&trace);
        assert_eq!(report.len(), trace.len(), "{policy}: all requests served");
        assert!(
            report
                .records
                .iter()
                .all(|r| r.service_time().is_finite() && r.service_time() >= 0.0),
            "{policy}: finite non-negative latencies"
        );
        avgs.push((policy, report.avg_service_time()));
    }
    let get = |p: Policy| avgs.iter().find(|(q, _)| *q == p).expect("ran").1;
    assert!(
        get(Policy::Optimus) < get(Policy::OpenWhisk),
        "optimus {} !< openwhisk {}",
        get(Policy::Optimus),
        get(Policy::OpenWhisk)
    );
    assert!(get(Policy::Optimus) <= get(Policy::Pagurus) * 1.001);
}

#[test]
fn full_pipeline_azure_deterministic() {
    let repo = small_repo();
    let functions = repo.model_names();
    let trace = AzureTraceGenerator::new(20_000.0, 9).generate(&functions);
    let config = SimConfig {
        nodes: 2,
        capacity_per_node: 3,
        ..SimConfig::default()
    };
    let r1 = Platform::new(config.clone(), Policy::Optimus, repo.clone()).run(&trace);
    let r2 = Platform::new(config, Policy::Optimus, repo).run(&trace);
    assert_eq!(r1, r2, "same seed + config must reproduce exactly");
}

#[test]
fn optimus_transformations_match_cached_plans_end_to_end() {
    // Every Transform record under Optimus must cost either a cached plan
    // total or a scratch load (safeguard), never anything else.
    let repo = small_repo();
    let functions = repo.model_names();
    let trace = PoissonGenerator::new(0.005, 60_000.0, 11).generate(&functions);
    let config = SimConfig {
        nodes: 1,
        capacity_per_node: 3,
        placement: PlacementStrategy::Hash,
        ..SimConfig::default()
    };
    let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
    let mut transforms = 0;
    for r in report
        .records
        .iter()
        .filter(|r| r.kind == StartKind::Transform)
    {
        transforms += 1;
        let load = repo.load_cost(&r.function).expect("registered");
        let matches_load = (r.load - load).abs() < 1e-9;
        let matches_a_plan = functions.iter().any(|src| {
            repo.plan(src, &r.function)
                .map(|p| (p.cost.total() - r.load).abs() < 1e-9)
                .unwrap_or(false)
        });
        assert!(
            matches_load || matches_a_plan,
            "transform load {} for {} matches neither a plan nor the scratch load",
            r.load,
            r.function
        );
    }
    assert!(transforms > 0, "the workload must exercise transformations");
}

#[test]
fn planned_transformation_roundtrip_through_facade() {
    let cost = CostModel::default();
    let src = optimus::zoo::mobilenet::mobilenet_v1(0.5, 0);
    let dst = optimus::zoo::mobilenet::mobilenet_v1(1.0, 0);
    let plan = GroupPlanner.plan(&src, &dst, &cost);
    assert!(plan.cost.total() < cost.model_load_cost(&dst));
    let mut g = src.clone();
    let report = execute_plan(&mut g, &plan, &dst).expect("plan executes");
    assert!(report.verified);
    assert_eq!(g.name(), "mobilenet_v1");
}

#[test]
fn transformed_graph_serializes_and_reloads() {
    let cost = CostModel::default();
    let src = optimus::zoo::vgg::vgg11();
    let dst = optimus::zoo::vgg::vgg13();
    let plan = GroupPlanner.plan(&src, &dst, &cost);
    let mut g = src.clone();
    execute_plan(&mut g, &plan, &dst).expect("plan executes");
    let json = optimus::model::serialize::to_json(&g).expect("serializes");
    let back = optimus::model::serialize::from_json(&json).expect("deserializes");
    assert!(back.structurally_equal(&dst));
}

#[test]
fn sharing_aware_balancer_beats_hash_for_optimus() {
    // The §5.1 ablation in miniature: with two structurally distinct
    // families, sharing-aware placement should give Optimus average
    // latency no worse than hash placement.
    let repo = {
        let repo = ModelRepository::new(Box::new(GroupPlanner));
        let cost = CostModel::default();
        let mut models = vec![
            optimus::zoo::vgg::vgg11(),
            optimus::zoo::vgg::vgg13(),
            optimus::zoo::vgg::vgg16(),
            optimus::zoo::vgg::vgg19(),
        ];
        for cfg in [
            optimus::zoo::BertConfig::new(optimus::zoo::BertSize::Tiny),
            optimus::zoo::BertConfig::new(optimus::zoo::BertSize::Mini),
            optimus::zoo::BertConfig::new(optimus::zoo::BertSize::Small),
            optimus::zoo::BertConfig::new(optimus::zoo::BertSize::Medium),
        ] {
            models.push(optimus::zoo::bert(cfg));
        }
        repo.register_all(models, &cost);
        Arc::new(repo)
    };
    let functions = repo.model_names();
    let trace = PoissonGenerator::new(0.008, 40_000.0, 21).generate(&functions);
    let run = |placement| {
        let config = SimConfig {
            nodes: 2,
            capacity_per_node: 2,
            placement,
            ..SimConfig::default()
        };
        Platform::new(config, Policy::Optimus, repo.clone())
            .run(&trace)
            .avg_service_time()
    };
    let sharing = run(PlacementStrategy::default());
    let hash = run(PlacementStrategy::Hash);
    assert!(
        sharing <= hash * 1.05,
        "sharing-aware {sharing:.3}s should not lose to hash {hash:.3}s"
    );
}

#[test]
fn all_extensions_compose() {
    // Sharing-aware placement + memory-aware capacity + arrival prediction
    // with speculative transformation, all at once, must still uphold the
    // basic guarantees and not regress plain Optimus.
    use optimus::sim::{MemoryLimit, PredictConfig};
    let repo = small_repo();
    let functions = repo.model_names();
    let trace = optimus::workload::AzureTraceGenerator::new(40_000.0, 3).generate(&functions);
    let base_config = SimConfig {
        nodes: 2,
        capacity_per_node: 3,
        ..SimConfig::default()
    };
    let full_config = SimConfig {
        nodes: 2,
        capacity_per_node: 16,
        memory: Some(MemoryLimit::gib(4)),
        // Adaptive keep-alive plus speculation (the default config).
        predict: Some(PredictConfig::default()),
        ..SimConfig::default()
    };
    let base = Platform::new(base_config, Policy::Optimus, repo.clone()).run(&trace);
    let full = Platform::new(full_config, Policy::Optimus, repo.clone()).run(&trace);
    assert_eq!(full.len(), trace.len());
    for r in &full.records {
        assert!(r.service_time().is_finite() && r.service_time() >= 0.0);
        let scratch = repo.load_cost(&r.function).unwrap();
        assert!(r.load <= scratch + 1e-9, "safeguard holds under extensions");
    }
    // The extension stack should not be worse than the plain setup.
    assert!(
        full.avg_service_time() <= base.avg_service_time() * 1.05,
        "extensions {:.3}s vs base {:.3}s",
        full.avg_service_time(),
        base.avg_service_time()
    );
    // SLO view: extensions must serve at least as many requests within 1s.
    assert!(full.slo_attainment(1.0) + 1e-9 >= base.slo_attainment(1.0));
}
