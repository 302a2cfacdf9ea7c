//! Figure 4 — loading latency for varying operations in ResNet50:
//! per-kind means plus the CONV shape sweep the paper highlights.

#![forbid(unsafe_code)]

use optimus_bench::{fmt_s, print_table, save_results};
use optimus_model::{OpAttrs, Padding};
use optimus_profile::{CostModel, CostProvider, Profiler};

fn main() {
    let cost = CostModel::default();
    let model = optimus_zoo::resnet::resnet50();
    let profiles = Profiler::new(&cost).profile_ops(&[&model]);

    println!("Figure 4: per-operation loading latency in ResNet50 (structure + weights)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (kind, p) in &profiles {
        rows.push(vec![
            kind.to_string(),
            format!("{}", p.samples),
            format!("{:.2} ms", 1e3 * (p.mean_structure + p.mean_assign)),
            format!("{:.2} ms", 1e3 * p.min_structure),
            format!("{:.2} ms", 1e3 * p.max_structure),
        ]);
        json.push(serde_json::json!({
            "kind": kind.to_string(),
            "samples": p.samples,
            "mean_total_ms": 1e3 * (p.mean_structure + p.mean_assign),
        }));
    }
    print_table(
        &[
            "Operation",
            "Count",
            "Mean load",
            "Min struct",
            "Max struct",
        ],
        &rows,
    );

    println!("\nCONV shape sweep (kernel 3x3, growing output channels):\n");
    let conv = |out: usize| OpAttrs::Conv2d {
        in_channels: out,
        out_channels: out,
        kernel: (3, 3),
        stride: (1, 1),
        padding: Padding::Same,
        groups: 1,
        bias: true,
    };
    let base = cost.structure_cost(&conv(64));
    let mut rows = Vec::new();
    for out in [64usize, 128, 256, 512] {
        let c = cost.structure_cost(&conv(out));
        rows.push(vec![
            format!("CONV 3x3, {out}"),
            fmt_s(c),
            format!("{:.2}x", c / base),
        ]);
    }
    print_table(&["Operation", "Structure load (s)", "vs 3x3/64"], &rows);
    println!(
        "\nPaper reference: CONV ≈ 10x activation; CONV 3x3/512 costs \
         78.67% more than CONV 3x3/64."
    );
    save_results("exp_fig4", &serde_json::json!({ "kinds": json }));
}
