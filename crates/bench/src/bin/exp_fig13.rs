//! Figure 13 — average service time of serverless ML inference requests
//! under the Poisson (three intensities) and Azure workloads, for
//! OpenWhisk, Pagurus, Tetris and Optimus.
//!
//! Optional args: `--balancer <sharing|hash|least>` (default sharing) for
//! the load-balancer ablation, `--duration <seconds>` (default 86400),
//! `--threads <n>` to run the workload × policy grid in parallel (the
//! output is byte-identical at any thread count).

#![forbid(unsafe_code)]

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{
    build_repo, figure13_models, fmt_pct, fmt_s, print_table, save_results, workloads,
};
use optimus_profile::Environment;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let placement = match args
        .iter()
        .position(|a| a == "--balancer")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("hash") => PlacementStrategy::Hash,
        Some("least") => PlacementStrategy::LeastLoaded,
        _ => PlacementStrategy::default(),
    };
    let duration: f64 = args
        .iter()
        .position(|a| a == "--duration")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(86_400.0);
    let threads = threads_arg(&args);

    let models = figure13_models();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!(
        "registering {} models and computing plan cache...",
        names.len()
    );
    let repo = build_repo(models, Environment::Cpu);
    let config = SimConfig {
        placement,
        ..SimConfig::default()
    };

    println!(
        "Figure 13: average service time (s), {} functions, {} nodes x {} slots, {}h trace\n",
        names.len(),
        config.nodes,
        config.capacity_per_node,
        duration / 3600.0
    );
    // One grid cell per workload × policy; results come back in input
    // order, so the table and JSON below are identical at any --threads.
    let runs = workloads(&names, duration, 7);
    let cells: Vec<(usize, Policy)> = (0..runs.len())
        .flat_map(|w| Policy::ALL.iter().map(move |&p| (w, p)))
        .collect();
    let reports = run_grid(&cells, threads, |&(w, policy)| {
        let platform = Platform::new(config.clone(), policy, repo.clone());
        platform.run(&runs[w].1)
    });

    let mut rows = Vec::new();
    let mut json = serde_json::Map::new();
    for (w, (wname, trace)) in runs.iter().enumerate() {
        let results: Vec<(Policy, &optimus_sim::SimReport)> = Policy::ALL
            .iter()
            .enumerate()
            .map(|(p, &policy)| (policy, &reports[w * Policy::ALL.len() + p]))
            .collect();
        let mut row = vec![format!("{wname} ({})", trace.len())];
        let mut per_system = serde_json::Map::new();
        let optimus = results
            .iter()
            .find(|(p, _)| *p == Policy::Optimus)
            .map(|(_, r)| r.avg_service_time())
            .expect("optimus ran");
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
                serde_json::json!({
                    "avg_service_time": avg,
                    "p99": report.percentile_service_time(99.0),
                    "requests": report.len(),
                }),
            );
        }
        rows.push(row);
        json.insert(wname.clone(), serde_json::Value::Object(per_system));
    }
    print_table(
        &[
            "Workload (reqs)",
            "OpenWhisk",
            "Pagurus",
            "Tetris",
            "Optimus",
        ],
        &rows,
    );
    println!(
        "\n(-x%) = Optimus' latency reduction vs that system. \
         Paper: 24.00%–47.56% reduction vs the state of the art."
    );
    save_results("exp_fig13", &serde_json::Value::Object(json));
}
