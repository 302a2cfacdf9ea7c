//! Figure 3 — latency of each model-loading step (deserialize / structure
//! / weight assignment) for 100 models from the Imgclsmob-style catalog.

#![forbid(unsafe_code)]

use optimus_bench::{fmt_pct, print_table, save_results};
use optimus_profile::{CostModel, CostProvider};

fn main() {
    let cost = CostModel::default();
    let catalog = optimus_zoo::imgclsmob_catalog();
    // 100 models sampled deterministically across the catalog.
    let step = (catalog.len() / 100).max(1);
    let sample: Vec<_> = catalog.iter().step_by(step).take(100).collect();

    let mut deser_f = Vec::new();
    let mut structure_f = Vec::new();
    let mut assign_f = Vec::new();
    let mut json = Vec::new();
    for entry in &sample {
        let model = entry.build();
        let b = cost.load_breakdown(&model);
        deser_f.push(b.deserialize / b.total());
        structure_f.push(b.structure_fraction());
        assign_f.push(b.assign_fraction());
        json.push(serde_json::json!({
            "model": entry.name,
            "deserialize_s": b.deserialize,
            "structure_s": b.structure,
            "assign_s": b.assign,
        }));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);

    println!(
        "Figure 3: model-loading step fractions over {} catalog models\n",
        sample.len()
    );
    let rows = vec![
        vec![
            "Deserialize".to_string(),
            fmt_pct(mean(&deser_f)),
            fmt_pct(min(&deser_f)),
            fmt_pct(max(&deser_f)),
        ],
        vec![
            "Load structure".to_string(),
            fmt_pct(mean(&structure_f)),
            fmt_pct(min(&structure_f)),
            fmt_pct(max(&structure_f)),
        ],
        vec![
            "Assign weights".to_string(),
            fmt_pct(mean(&assign_f)),
            fmt_pct(min(&assign_f)),
            fmt_pct(max(&assign_f)),
        ],
    ];
    print_table(&["Step", "Mean", "Min", "Max"], &rows);
    println!(
        "\nPaper reference: structure loading 89.66% of loading on average, \
         weight assignment 10.28%, deserialization negligible."
    );
    save_results("exp_fig3", &serde_json::json!({ "models": json }));
}
