//! Table 1 — planning and execution latency of the basic (Munkres,
//! Module 2) and improved (group-based, Module 2⁺) algorithms for three
//! transformation cases.
//!
//! Planning latency is real wall-clock time of the planner; execution
//! latency is the plan's (simulated) meta-operator cost.
//!
//! `--threads <n>` plans the case × planner grid in parallel. Execution
//! costs are deterministic at any thread count; `planning_seconds` is
//! wall clock and naturally varies run to run.

#![forbid(unsafe_code)]

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{print_table, save_results};
use optimus_core::{GroupPlanner, MunkresPlanner, Planner};
use optimus_profile::CostModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = threads_arg(&args);
    let cost = CostModel::default();
    let cases = [
        (optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()),
        (optimus_zoo::vgg::vgg16(), optimus_zoo::resnet::resnet50()),
        (optimus_zoo::resnet::resnet50(), optimus_zoo::vgg::vgg19()),
    ];
    println!("Table 1: planning and execution latency, basic vs improved\n");
    // case × planner grid: even-indexed cells run Munkres, odd run Group.
    let cells: Vec<(usize, bool)> = (0..cases.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let plans = run_grid(&cells, threads, |&(i, improved)| {
        let (src, dst) = &cases[i];
        if improved {
            GroupPlanner.plan(src, dst, &cost)
        } else {
            MunkresPlanner.plan(src, dst, &cost)
        }
    });
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (i, (src, dst)) in cases.iter().enumerate() {
        let basic = &plans[2 * i];
        let improved = &plans[2 * i + 1];
        rows.push(vec![
            format!("{} to {}", src.name(), dst.name()),
            format!("{:.1} ms", 1e3 * basic.planning_seconds),
            format!("{:.2} s", basic.cost.total()),
            format!("{:.3} ms", 1e3 * improved.planning_seconds),
            format!("{:.2} s", improved.cost.total()),
        ]);
        json.push(serde_json::json!({
            "case": format!("{} -> {}", src.name(), dst.name()),
            "basic_planning_s": basic.planning_seconds,
            "basic_execution_s": basic.cost.total(),
            "improved_planning_s": improved.planning_seconds,
            "improved_execution_s": improved.cost.total(),
            "planning_speedup": basic.planning_seconds / improved.planning_seconds,
        }));
    }
    print_table(
        &[
            "Transformation case",
            "Basic plan",
            "Basic exec",
            "Improved plan",
            "Improved exec",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: the improved algorithm cuts planning time by \
         ~99.99% (171 s → 1.1 ms in Python) with near-optimal execution. \
         Our Rust Munkres is far faster than the paper's Python baseline, \
         so absolute planning times are smaller, but the orders-of-magnitude \
         gap between the O((n+m)^3) and O(n+m) planners holds."
    );
    save_results("exp_table1", &serde_json::json!({ "cases": json }));
}
