//! Ablation — §5.1 load balancer: sharing-aware K-medoids vs hash vs
//! least-loaded placement, all serving the same Azure-style workload under
//! the Optimus policy.

#![forbid(unsafe_code)]

use optimus_bench::{build_repo, figure13_models, fmt_s, print_table, save_results};
use optimus_profile::Environment;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig};
use optimus_workload::AzureTraceGenerator;

fn main() {
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models...", names.len());
    let repo = build_repo(models, Environment::Cpu);
    let trace = AzureTraceGenerator::new(86_400.0, 7).generate(&names);
    println!(
        "Ablation: load balancer — Optimus policy, Azure workload ({} requests)\n",
        trace.len()
    );
    let cases = [
        (
            "sharing-aware (§5.1)",
            PlacementStrategy::SharingAware {
                gamma_d: 0.7,
                gamma_k: 0.3,
            },
        ),
        (
            "edit-distance only",
            PlacementStrategy::SharingAware {
                gamma_d: 1.0,
                gamma_k: 0.0,
            },
        ),
        (
            "correlation only",
            PlacementStrategy::SharingAware {
                gamma_d: 0.0,
                gamma_k: 1.0,
            },
        ),
        ("hash", PlacementStrategy::Hash),
        ("least-loaded", PlacementStrategy::LeastLoaded),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, placement) in cases {
        let config = SimConfig {
            placement,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        rows.push(vec![
            name.to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
        ]);
        json.push(serde_json::json!({
            "balancer": name,
            "avg_service_time": report.avg_service_time(),
            "p99": report.percentile_service_time(99.0),
        }));
    }
    print_table(&["Balancer", "Avg service (s)", "p99 (s)"], &rows);
    println!(
        "\nExpected: the sharing-aware balancer co-locates structurally \
         similar, demand-complementary functions, giving Optimus cheaper \
         donors than hash or least-loaded routing."
    );
    save_results(
        "exp_ablation_balancer",
        &serde_json::json!({ "rows": json }),
    );
}
