//! Figure 16 — average service time on a GPU-enabled server.
//!
//! Same setup as Figure 13 but the nodes carry the GPU environment
//! profile: higher runtime-init and load costs, faster compute.

#![forbid(unsafe_code)]

use optimus_bench::{
    build_repo, figure13_models, fmt_pct, fmt_s, print_table, run_all_policies, save_results,
    workloads,
};
use optimus_profile::Environment;
use optimus_sim::{Policy, SimConfig};

fn main() {
    let duration: f64 = std::env::args()
        .skip_while(|a| a != "--duration")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(86_400.0);
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models (GPU profile)...", names.len());
    let repo = build_repo(models, Environment::Gpu);
    let config = SimConfig {
        env: Environment::Gpu,
        ..SimConfig::default()
    };

    println!("Figure 16: average service time (s) with GPU support\n");
    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for (wname, trace) in workloads(&names, duration, 7) {
        eprintln!("running {wname} ({} requests)...", trace.len());
        let results = run_all_policies(&config, &repo, &trace);
        let optimus = results
            .iter()
            .find(|(p, _)| *p == Policy::Optimus)
            .map(|(_, r)| r.avg_service_time())
            .expect("optimus ran");
        let mut row = vec![wname.clone()];
        let mut per_system = serde_json::Map::new();
        for (policy, report) in &results {
            let avg = report.avg_service_time();
            let cell = if *policy == Policy::Optimus {
                fmt_s(avg)
            } else {
                format!("{} (-{})", fmt_s(avg), fmt_pct(1.0 - optimus / avg))
            };
            row.push(cell);
            per_system.insert(
                policy.name().to_string(),
                serde_json::json!({ "avg_service_time": avg }),
            );
        }
        rows.push(row);
        json.insert(wname, serde_json::Value::Object(per_system));
    }
    print_table(
        &["Workload", "OpenWhisk", "Pagurus", "Tetris", "Optimus"],
        &rows,
    );
    println!(
        "\nPaper: Optimus reduces GPU inference latency by 26.93%–57.08%; \
         GPU latencies exceed CPU because of GPU runtime init and loading."
    );
    save_results("exp_fig16", &serde_json::Value::Object(json));
}
