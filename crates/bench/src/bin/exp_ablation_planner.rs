//! Ablation — planner choice end to end: register the model population
//! under the naive / group / Munkres planners and compare both the offline
//! planning cost (registration time) and the resulting online service time
//! of the Optimus policy.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use optimus_bench::{fmt_s, print_table, save_results};
use optimus_core::{GroupPlanner, ModelRepository, MunkresPlanner, NaivePlanner, Planner};
use optimus_profile::CostModel;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig};
use optimus_workload::PoissonGenerator;

fn population() -> Vec<optimus_model::ModelGraph> {
    vec![
        optimus_zoo::vgg::vgg11(),
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::resnet::resnet50(),
        optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v1(0.5, 0),
        optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        optimus_zoo::densenet::densenet121(),
        optimus_zoo::inception::inception_v1(),
        optimus_zoo::xception::xception(),
    ]
}

fn main() {
    let planners: Vec<(&str, Box<dyn Planner + Send + Sync>)> = vec![
        ("naive (delete+add)", Box::new(NaivePlanner)),
        ("group (Module 2+)", Box::new(GroupPlanner)),
        ("munkres (Module 2)", Box::new(MunkresPlanner)),
    ];
    println!("Ablation: planner choice — offline registration vs online latency\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, planner) in planners {
        let repo = ModelRepository::new(planner);
        let cost = CostModel::default();
        let t0 = Instant::now();
        for m in population() {
            repo.register(m, &cost);
        }
        let registration = t0.elapsed().as_secs_f64();
        let repo = Arc::new(repo);
        let functions = repo.model_names();
        let trace = PoissonGenerator::new(0.004, 86_400.0, 13).generate(&functions);
        let config = SimConfig {
            nodes: 1,
            capacity_per_node: 5,
            placement: PlacementStrategy::Hash,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo).run(&trace);
        rows.push(vec![
            name.to_string(),
            format!("{:.2} s", registration),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
        ]);
        json.push(serde_json::json!({
            "planner": name,
            "registration_s": registration,
            "avg_service_time": report.avg_service_time(),
        }));
    }
    print_table(
        &["Planner", "Plan-cache build", "Avg service (s)", "p99 (s)"],
        &rows,
    );
    println!(
        "\nExpected: naive plans make every transformation as costly as a \
         scratch load (the safeguard caps it there), so its online latency \
         is the worst; group ≈ munkres online, but group builds the cache \
         orders of magnitude faster."
    );
    save_results("exp_ablation_planner", &serde_json::json!({ "rows": json }));
}
