//! Figure 5 — the strawman system: (a) same-structure weight swap vs cold
//! start; (c) the CONV kernel-scaling matrix (load diagonal vs reshape
//! off-diagonals).

#![forbid(unsafe_code)]

use optimus_bench::{fmt_pct, fmt_s, print_table, save_results};
use optimus_core::{GroupPlanner, Planner};
use optimus_model::{OpAttrs, Padding};
use optimus_profile::{CostModel, CostProvider, Environment, PlatformProfile};

fn main() {
    let cost = CostModel::default();
    let plat = PlatformProfile::new(Environment::Cpu);

    println!("Figure 5(a): same structure, different weights — serving latency\n");
    let mut rows = Vec::new();
    let mut savings = Vec::new();
    for (a, b) in [
        (
            optimus_zoo::vgg::vgg_scaled(16, 1.0, 0),
            optimus_zoo::vgg::vgg_scaled(16, 1.0, 1),
        ),
        (
            optimus_zoo::vgg::vgg_scaled(19, 1.0, 0),
            optimus_zoo::vgg::vgg_scaled(19, 1.0, 1),
        ),
        (
            optimus_zoo::resnet::resnet_scaled(50, 1.0, 0),
            optimus_zoo::resnet::resnet_scaled(50, 1.0, 1),
        ),
        (
            optimus_zoo::resnet::resnet_scaled(101, 1.0, 0),
            optimus_zoo::resnet::resnet_scaled(101, 1.0, 1),
        ),
    ] {
        let cold = plat.cold_init() + cost.model_load_cost(&b) + plat.compute_cost(&b);
        let plan = GroupPlanner.plan(&a, &b, &cost);
        let swap = plat.repurpose_overhead + plan.cost.total() + plat.compute_cost(&b);
        let saving = 1.0 - swap / cold;
        savings.push(saving);
        rows.push(vec![
            b.name().to_string(),
            fmt_s(cold),
            fmt_s(swap),
            fmt_pct(saving),
        ]);
    }
    print_table(
        &["Model", "Cold start (s)", "Weight swap (s)", "Reduction"],
        &rows,
    );
    let mean = savings.iter().sum::<f64>() / savings.len() as f64;
    println!(
        "\nMean reduction {} (paper: 79.83% average).",
        fmt_pct(mean)
    );

    println!("\nFigure 5(c): CONV kernel scaling matrix (seconds)");
    println!("diagonal = loading from scratch; cell (i,j) = reshape i → j\n");
    let shapes: [((usize, usize), usize); 6] = [
        ((1, 1), 64),
        ((5, 5), 64),
        ((7, 7), 64),
        ((1, 1), 512),
        ((5, 5), 512),
        ((7, 7), 512),
    ];
    let conv = |(k, n): ((usize, usize), usize)| OpAttrs::Conv2d {
        in_channels: 64,
        out_channels: n,
        kernel: k,
        stride: (1, 1),
        padding: Padding::Same,
        groups: 1,
        bias: true,
    };
    let mut headers: Vec<String> = vec!["from \\ to".to_string()];
    headers.extend(shapes.iter().map(|((kh, kw), n)| format!("{kh}x{kw},{n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    let mut matrix = Vec::new();
    for &src in &shapes {
        let mut row = vec![format!("{}x{},{}", src.0 .0, src.0 .1, src.1)];
        let mut mrow = Vec::new();
        for &dst in &shapes {
            let v = if src == dst {
                cost.add_cost(&conv(dst))
            } else {
                cost.reshape_cost(&conv(src), &conv(dst))
                    .expect("same kind")
                    + cost.replace_cost(&conv(dst))
            };
            row.push(format!("{:.4}", v));
            mrow.push(v);
        }
        rows.push(row);
        matrix.push(mrow);
    }
    print_table(&header_refs, &rows);
    println!(
        "\nPaper reference: scaling an existing CONV costs roughly a third \
         of loading it from scratch (0.004s vs 0.011s for 5x5)."
    );
    save_results(
        "exp_fig5",
        &serde_json::json!({ "mean_weight_swap_reduction": mean, "conv_matrix": matrix }),
    );
}
