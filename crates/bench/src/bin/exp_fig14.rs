//! Figure 14 — percentage of cold start, container/model transformation
//! and warm start per system under the Poisson and Azure workloads.

#![forbid(unsafe_code)]

use optimus_bench::{
    build_repo, figure13_models, fmt_pct, print_table, run_all_policies, save_results, workloads,
};
use optimus_profile::Environment;
use optimus_sim::{SimConfig, StartKind};

fn main() {
    let duration: f64 = std::env::args()
        .collect::<Vec<_>>()
        .iter()
        .position(|a| a == "--duration")
        .and_then(|i| std::env::args().nth(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(86_400.0);
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!(
        "registering {} models and computing plan cache...",
        names.len()
    );
    let repo = build_repo(models, Environment::Cpu);
    let config = SimConfig::default();

    println!("Figure 14: start-type percentages per system and workload\n");
    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for (wname, trace) in workloads(&names, duration, 7) {
        eprintln!("running {wname} ({} requests)...", trace.len());
        let results = run_all_policies(&config, &repo, &trace);
        let mut per_system = serde_json::Map::new();
        for (policy, report) in &results {
            let frac = report.start_fractions();
            let get = |k: StartKind| frac.get(&k).copied().unwrap_or(0.0);
            rows.push(vec![
                wname.clone(),
                policy.name().to_string(),
                fmt_pct(get(StartKind::Cold)),
                fmt_pct(get(StartKind::Transform)),
                fmt_pct(get(StartKind::Warm)),
            ]);
            per_system.insert(
                policy.name().to_string(),
                serde_json::json!({
                    "cold": get(StartKind::Cold),
                    "transform": get(StartKind::Transform),
                    "warm": get(StartKind::Warm),
                }),
            );
        }
        json.insert(wname, serde_json::Value::Object(per_system));
    }
    print_table(&["Workload", "System", "Cold", "Transform", "Warm"], &rows);
    println!(
        "\nPaper: inter-function container sharing (Pagurus, Tetris, Optimus) \
         replaces cold starts with container transformation."
    );
    save_results("exp_fig14", &serde_json::Value::Object(json));
}
