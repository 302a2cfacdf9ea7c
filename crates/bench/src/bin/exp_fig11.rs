//! Figure 11 — inter-function model transformation latency between 21
//! representative models (16 CNNs + 5 BERTs), plus the scratch-load row.
//!
//! Cell (i, j) = latency of transforming model i into model j; the
//! diagonal uses a weight variant of the same structure; the final row is
//! loading model j from scratch.
//!
//! `--threads <n>` plans the 21×21 matrix cells in parallel; the matrix
//! is assembled in index order, so the output is byte-identical at any
//! thread count.

#![forbid(unsafe_code)]

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{figure11_models, print_table, save_results, transform_latency};
use optimus_profile::{CostModel, CostProvider};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let threads = threads_arg(&args);
    let cost = CostModel::default();
    let models = figure11_models();
    let n = models.len();
    println!("Figure 11: transformation latency (s) between {n} representative models\n");

    let cells: Vec<(usize, usize)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let values = run_grid(&cells, threads, |&(i, j)| {
        if i == j {
            // Same structure, different weights (the Figure 11
            // diagonal): transform to a weight variant.
            let variant = variant_of(&models[j]);
            transform_latency(&models[i], &variant, &cost)
        } else {
            transform_latency(&models[i], &models[j], &cost)
        }
    });
    let mut matrix = vec![vec![0.0f64; n]; n + 1];
    for (&(i, j), v) in cells.iter().zip(values) {
        matrix[i][j] = v;
    }
    for (j, dst) in models.iter().enumerate() {
        matrix[n][j] = cost.model_load_cost(dst);
    }

    // Short labels for a readable table.
    let labels: Vec<String> = models.iter().map(|m| shorten(m.name())).collect();
    let mut headers: Vec<String> = vec!["from \\ to".into()];
    headers.extend(labels.clone());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (i, row) in matrix.iter().enumerate() {
        let mut cells = vec![if i < n {
            labels[i].clone()
        } else {
            "LOAD".to_string()
        }];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        rows.push(cells);
    }
    print_table(&header_refs, &rows);

    // Headline statistics.
    let mut best_reduction: f64 = 0.0;
    let mut same_family = Vec::new();
    let mut cross_family = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let load = matrix[n][j];
            best_reduction = best_reduction.max(1.0 - matrix[i][j] / load);
            if models[i].family() == models[j].family() {
                same_family.push(matrix[i][j] / load);
            } else {
                cross_family.push(matrix[i][j] / load);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\nBest transformation saving vs scratch load: {:.2}% (paper: up to 99.08%)",
        100.0 * best_reduction
    );
    println!(
        "Mean transform/load ratio — same family: {:.3}, cross family: {:.3}",
        mean(&same_family),
        mean(&cross_family)
    );
    save_results(
        "exp_fig11",
        &serde_json::json!({
            "labels": labels,
            "matrix": matrix,
            "best_reduction": best_reduction,
        }),
    );
}

fn variant_of(m: &optimus_model::ModelGraph) -> optimus_model::ModelGraph {
    // Rebuild the same structure with a different weight seed by name.
    let name = m.name();
    if let Some(entry) = optimus_zoo::find(name) {
        use optimus_zoo::catalog::ModelSpec;
        let spec = match entry.spec {
            ModelSpec::Vgg(d, w, _) => ModelSpec::Vgg(d, w, 9),
            ModelSpec::ResNet(d, w, _) => ModelSpec::ResNet(d, w, 9),
            ModelSpec::DenseNet(d, _) => ModelSpec::DenseNet(d, 9),
            ModelSpec::MobileNet(v, a, _) => ModelSpec::MobileNet(v, a, 9),
            ModelSpec::Xception(_) => ModelSpec::Xception(9),
            ModelSpec::Inception(_) => ModelSpec::Inception(9),
            ModelSpec::Bert(cfg) => ModelSpec::Bert(cfg.variant(9)),
            ModelSpec::NasBench(i, _) => ModelSpec::NasBench(i, 9),
            ModelSpec::SqueezeNet(_) => ModelSpec::SqueezeNet(9),
            ModelSpec::ResNeXt(d, _) => ModelSpec::ResNeXt(d, 9),
            ModelSpec::WideResNet(d, k, _) => ModelSpec::WideResNet(d, k, 9),
            ModelSpec::EfficientNet(w, dm, _) => ModelSpec::EfficientNet(w, dm, 9),
            ModelSpec::TextRnn(c, l, h, _) => ModelSpec::TextRnn(c, l, h, 9),
        };
        spec.build()
    } else if name.starts_with("bert") {
        // BERT task variants are not in the catalog; rebuild via the zoo.
        let cfgs = optimus_zoo::catalog::bert_configs();
        let cfg = cfgs
            .into_iter()
            .find(|c| c.name() == name)
            .expect("figure11 BERT config exists");
        optimus_zoo::bert(cfg.variant(9))
    } else {
        panic!("unknown figure11 model '{name}'");
    }
}

fn shorten(name: &str) -> String {
    name.replace("mobilenet_", "mbn")
        .replace("densenet", "dnet")
        .replace("resnet", "rnet")
        .replace("inception_v1", "incep")
        .replace("bert-", "b-")
        .replace("-uncased", "")
        .replace("-a0.50-v0", "-0.5")
        .chars()
        .take(12)
        .collect()
}
