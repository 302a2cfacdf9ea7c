//! Ablation — the §4.4 safeguard: compare the standard safeguard
//! (transform only when cheaper than loading) against "always transform"
//! and "never transform", measuring average and worst-case start latency.

#![forbid(unsafe_code)]

use std::sync::Arc;

use optimus_bench::{fmt_s, print_table, save_results};
use optimus_core::{GroupPlanner, ModelRepository};
use optimus_profile::CostModel;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig, StartKind};
use optimus_workload::PoissonGenerator;

fn build_repo(safeguard_ratio: f64) -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner)).with_safeguard_ratio(safeguard_ratio);
    let cost = CostModel::default();
    // A deliberately heterogeneous population: transformations between
    // distant members can exceed the scratch-load cost, which is exactly
    // the case the safeguard exists for.
    for m in [
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::mobilenet::mobilenet_v1(0.25, 0),
        optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        optimus_zoo::densenet::densenet121(),
        optimus_zoo::xception::xception(),
        optimus_zoo::inception::inception_v1(),
        optimus_zoo::resnet::resnet101(),
    ] {
        repo.register(m, &cost);
    }
    Arc::new(repo)
}

fn main() {
    println!("Ablation: the safeguard (§4.4 Module 3)\n");
    let cases = [
        ("never transform (ratio 0)", 0.0),
        ("safeguard (ratio 1, paper)", 1.0),
        ("always transform (ratio ∞)", f64::MAX),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, ratio) in cases {
        let repo = build_repo(ratio);
        let functions = repo.model_names();
        let trace = PoissonGenerator::new(0.004, 86_400.0, 31).generate(&functions);
        let config = SimConfig {
            nodes: 1,
            capacity_per_node: 4,
            placement: PlacementStrategy::Hash,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo).run(&trace);
        // Worst single non-warm start latency (init + load).
        let worst = report
            .records
            .iter()
            .filter(|r| r.kind != StartKind::Warm)
            .map(|r| r.init + r.load)
            .fold(0.0, f64::max);
        rows.push(vec![
            name.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(worst),
        ]);
        json.push(serde_json::json!({
            "mode": name,
            "ratio": if ratio == f64::MAX { -1.0 } else { ratio },
            "avg_service_time": report.avg_service_time(),
            "worst_start": worst,
        }));
    }
    print_table(&["Mode", "Avg service (s)", "Worst start (s)"], &rows);
    println!(
        "\nExpected: the safeguard matches 'always transform' on average \
         while capping the worst case at the scratch-load latency — \
         'the performance of Optimus can be guaranteed in the worst case'."
    );
    save_results(
        "exp_ablation_safeguard",
        &serde_json::json!({ "rows": json }),
    );
}
