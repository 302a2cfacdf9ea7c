//! Figure 8 — execution time of varying meta-operators, profiled over the
//! ResNet50/ResNet101 operation population (§4.4 Module 1).

#![forbid(unsafe_code)]

use optimus_bench::{print_table, save_results};
use optimus_profile::{CostModel, Profiler};

fn main() {
    let cost = CostModel::default();
    let r50 = optimus_zoo::resnet::resnet50();
    let r101 = optimus_zoo::resnet::resnet101();
    let profiles = Profiler::new(&cost).profile_meta_ops(&[&r50, &r101]);

    println!("Figure 8: mean meta-operator execution time by operation kind (ms)\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (kind, p) in &profiles {
        rows.push(vec![
            kind.to_string(),
            format!("{:.3}", 1e3 * p.replace),
            format!("{:.3}", 1e3 * p.reshape),
            format!("{:.3}", 1e3 * p.reduce),
            format!("{:.3}", 1e3 * p.add),
            format!("{:.4}", 1e3 * p.edge),
        ]);
        json.push(serde_json::json!({
            "kind": kind.to_string(),
            "replace_ms": 1e3 * p.replace,
            "reshape_ms": 1e3 * p.reshape,
            "reduce_ms": 1e3 * p.reduce,
            "add_ms": 1e3 * p.add,
            "edge_ms": 1e3 * p.edge,
        }));
    }
    print_table(
        &["Operation", "Replace", "Reshape", "Reduce", "Add", "Edge"],
        &rows,
    );
    println!(
        "\nPaper reference: Replace scales with destination weights; Add for \
         CONV/dense is the most expensive; Reduce is constant; Edge is \
         negligible."
    );
    save_results("exp_fig8", &serde_json::json!({ "kinds": json }));
}
