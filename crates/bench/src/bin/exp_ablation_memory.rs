//! Ablation — §6 "Fine-grained Resource Allocation": homogeneous container
//! slots vs a memory-aware byte budget at several node sizes.

#![forbid(unsafe_code)]

use optimus_bench::{build_repo, figure13_models, fmt_s, print_table, save_results};
use optimus_profile::Environment;
use optimus_sim::{MemoryLimit, Platform, Policy, SimConfig, StartKind};
use optimus_workload::PoissonGenerator;

fn main() {
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models...", names.len());
    let repo = build_repo(models, Environment::Cpu);
    let trace =
        PoissonGenerator::new(optimus_workload::rates::FREQUENT, 86_400.0, 7).generate(&names);

    println!(
        "Ablation: memory-aware capacity (slots fixed at 64; memory binds), \
         Optimus policy, Poisson λ=10⁻²\n"
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut cases: Vec<(String, Option<MemoryLimit>)> =
        vec![("slots only (12/node, paper)".to_string(), None)];
    for gib in [4u64, 8, 16, 32] {
        cases.push((
            format!("memory {gib} GiB/node"),
            Some(MemoryLimit::gib(gib)),
        ));
    }
    for (name, memory) in cases {
        let config = SimConfig {
            capacity_per_node: if memory.is_some() { 64 } else { 12 },
            memory,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        let frac = report.start_fractions();
        let warm = frac.get(&StartKind::Warm).copied().unwrap_or(0.0);
        rows.push(vec![
            name.clone(),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * warm),
        ]);
        json.push(serde_json::json!({
            "mode": name,
            "avg_service_time": report.avg_service_time(),
            "warm_fraction": warm,
        }));
    }
    print_table(&["Capacity mode", "Avg service (s)", "Warm starts"], &rows);
    println!(
        "\nExpected: a byte budget lets small models (MobileNet, BERT-Tiny) \
         pack far more warm containers than 12 homogeneous slots sized for \
         the largest model, trading memory for warm-start rate — the \
         paper's §6 motivation for heterogeneous allocation."
    );
    save_results("exp_ablation_memory", &serde_json::json!({ "rows": json }));
}
