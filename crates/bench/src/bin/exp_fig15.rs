//! Figure 15 — latency proportion of each meta-operator for three
//! inter-function model transformation cases.

#![forbid(unsafe_code)]

use optimus_bench::{fmt_pct, fmt_s, print_table, save_results};
use optimus_core::{GroupPlanner, Planner};
use optimus_profile::CostModel;

fn main() {
    let cost = CostModel::default();
    let cases = [
        (optimus_zoo::vgg::vgg16(), optimus_zoo::vgg::vgg19()),
        (
            optimus_zoo::resnet::resnet50(),
            optimus_zoo::resnet::resnet101(),
        ),
        (
            optimus_zoo::resnet::resnet101(),
            optimus_zoo::resnet::resnet50(),
        ),
    ];
    println!("Figure 15: meta-operator latency proportions per transformation case\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (src, dst) in &cases {
        let plan = GroupPlanner.plan(src, dst, &cost);
        let c = plan.cost;
        let total = c.total();
        rows.push(vec![
            format!("{} → {}", src.name(), dst.name()),
            fmt_s(total),
            format!("{} ({})", fmt_pct(c.replace / total), c.n_replace),
            format!("{} ({})", fmt_pct(c.reshape / total), c.n_reshape),
            format!("{} ({})", fmt_pct(c.reduce / total), c.n_reduce),
            format!("{} ({})", fmt_pct(c.add / total), c.n_add),
            format!("{} ({})", fmt_pct(c.edge / total), c.n_edge),
        ]);
        json.push(serde_json::json!({
            "case": format!("{} -> {}", src.name(), dst.name()),
            "total_s": total,
            "replace_s": c.replace, "reshape_s": c.reshape,
            "reduce_s": c.reduce, "add_s": c.add, "edge_s": c.edge,
            "counts": [c.n_replace, c.n_reshape, c.n_reduce, c.n_add, c.n_edge],
        }));
    }
    print_table(
        &[
            "Case",
            "Total (s)",
            "Replace (#)",
            "Reshape (#)",
            "Reduce (#)",
            "Add (#)",
            "Edge (#)",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: ResNet50→ResNet101 is Add-heavy (more CONVs in \
         the destination); ResNet101→ResNet50 reuses CONVs and needs no Add."
    );
    save_results("exp_fig15", &serde_json::json!({ "cases": json }));
}
