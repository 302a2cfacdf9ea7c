//! Ablation — idle-threshold (§4.2) and keep-alive sweeps for the Optimus
//! policy: how donor availability trades off against warm-container
//! retention.

#![forbid(unsafe_code)]

use optimus_bench::{build_repo, figure13_models, fmt_s, print_table, save_results};
use optimus_profile::Environment;
use optimus_sim::{Platform, Policy, SimConfig, StartKind};
use optimus_workload::PoissonGenerator;

fn main() {
    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!("registering {} models...", names.len());
    let repo = build_repo(models, Environment::Cpu);
    let trace =
        PoissonGenerator::new(optimus_workload::rates::MIDDLE, 86_400.0, 7).generate(&names);

    println!(
        "Ablation: idle threshold sweep (keep-alive fixed at 600 s), \
         Poisson λ=10⁻²·⁵\n"
    );
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for idle in [15.0, 30.0, 60.0, 120.0, 300.0] {
        let config = SimConfig {
            idle_threshold: idle,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        let frac = report.start_fractions();
        let xform = frac.get(&StartKind::Transform).copied().unwrap_or(0.0);
        rows.push(vec![
            format!("{idle:.0} s"),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * xform),
        ]);
        json.push(serde_json::json!({
            "idle_threshold": idle,
            "avg_service_time": report.avg_service_time(),
            "transform_fraction": xform,
        }));
    }
    print_table(&["Idle threshold", "Avg service (s)", "Transforms"], &rows);

    println!("\nKeep-alive sweep (idle threshold fixed at 60 s):\n");
    let mut rows = Vec::new();
    let mut json2 = Vec::new();
    for keep in [120.0, 300.0, 600.0, 1200.0, 2400.0] {
        let config = SimConfig {
            keep_alive: keep,
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        let frac = report.start_fractions();
        let warm = frac.get(&StartKind::Warm).copied().unwrap_or(0.0);
        rows.push(vec![
            format!("{keep:.0} s"),
            fmt_s(report.avg_service_time()),
            format!("{:.1}%", 100.0 * warm),
        ]);
        json2.push(serde_json::json!({
            "keep_alive": keep,
            "avg_service_time": report.avg_service_time(),
            "warm_fraction": warm,
        }));
    }
    print_table(&["Keep-alive", "Avg service (s)", "Warm starts"], &rows);
    save_results(
        "exp_ablation_thresholds",
        &serde_json::json!({ "idle_sweep": json, "keep_alive_sweep": json2 }),
    );
}
