//! Figure 2 — request processing time for VGG and ResNet in serverless ML
//! inference: per-step latency, step percentages, and the params/size
//! table (Figure 2c).

#![forbid(unsafe_code)]

use optimus_bench::{fmt_pct, fmt_s, print_table, save_results};
use optimus_profile::{CostModel, CostProvider, Environment, PlatformProfile};

fn main() {
    let cost = CostModel::default();
    let plat = PlatformProfile::new(Environment::Cpu);
    let models = [
        optimus_zoo::vgg::vgg11(),
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::resnet::resnet50(),
        optimus_zoo::resnet::resnet101(),
        optimus_zoo::resnet::resnet152(),
    ];

    println!("Figure 2(a/b): cold request processing time and step breakdown\n");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for m in &models {
        let init = plat.cold_init();
        let load = cost.model_load_cost(m);
        let compute = plat.compute_cost(m);
        let total = init + load + compute;
        rows.push(vec![
            m.name().to_string(),
            fmt_s(total),
            format!("{} ({})", fmt_s(init), fmt_pct(init / total)),
            format!("{} ({})", fmt_s(load), fmt_pct(load / total)),
            format!("{} ({})", fmt_s(compute), fmt_pct(compute / total)),
        ]);
        json.push(serde_json::json!({
            "model": m.name(),
            "total_s": total,
            "init_s": init,
            "load_s": load,
            "compute_s": compute,
        }));
    }
    print_table(
        &["Model", "Total (s)", "Init", "Model loading", "Inference"],
        &rows,
    );

    println!("\nFigure 2(c): number of parameters and size of varying models\n");
    let mut rows = Vec::new();
    for m in &models {
        let stats = optimus_model::ModelStats::of(m);
        rows.push(vec![
            m.name().to_string(),
            format!("{:.1}M", stats.params_millions()),
            format!("{:.0} MB", stats.size_mib()),
            format!("{}", stats.ops),
        ]);
    }
    print_table(&["Model", "Params", "Size", "Ops"], &rows);

    println!(
        "\nPaper check: model loading dominates (>50% of total); loading \
         scales with layer count, not parameter count."
    );
    save_results("exp_fig2", &serde_json::json!({ "rows": json }));
}
