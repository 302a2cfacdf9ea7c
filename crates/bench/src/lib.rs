//! # optimus-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run --release -p optimus-bench --bin exp_<id>`), plus Criterion
//! micro-benchmarks of the hot paths (`cargo bench`).
//!
//! | Binary       | Reproduces |
//! |--------------|------------|
//! | `exp_fig2`   | Figure 2 — request processing time & breakdown        |
//! | `exp_fig3`   | Figure 3 — model loading step latencies (100 models)  |
//! | `exp_fig4`   | Figure 4 — per-operation loading latency in ResNet50  |
//! | `exp_fig5`   | Figure 5 — strawman: weight swap & CONV scaling matrix|
//! | `exp_fig8`   | Figure 8 — meta-operator execution times              |
//! | `exp_fig11`  | Figure 11 — 21×21 transformation-latency matrix       |
//! | `exp_fig12`  | Figure 12 — 500-case transformation vs loading        |
//! | `exp_fig13`  | Figure 13 — average service time, 4 systems × 4 loads |
//! | `exp_fig14`  | Figure 14 — cold/transform/warm start percentages     |
//! | `exp_fig15`  | Figure 15 — meta-operator latency proportions         |
//! | `exp_table1` | Table 1 — planning & execution latency, 2 planners    |
//! | `exp_fig16`  | Figure 16 — GPU-server average service time           |
//!
//! Every experiment is seeded and deterministic; each prints a
//! paper-style table to stdout and appends machine-readable JSON to
//! `results/<exp>.json` when a `results/` directory exists.

#![forbid(unsafe_code)]

pub mod sweep;

use std::sync::Arc;

use optimus_core::{GroupPlanner, ModelRepository, Planner};
use optimus_model::ModelGraph;
use optimus_profile::{CostModel, CostProvider};
use optimus_sim::{Platform, Policy, SimConfig};
use optimus_workload::{AzureTraceGenerator, PoissonGenerator, Trace};

/// The 21 representative models of Figure 11: 16 CNNs across six families
/// plus 5 BERT variants.
pub fn figure11_models() -> Vec<ModelGraph> {
    use optimus_zoo::{bert, BertConfig, BertSize, BertTask};
    vec![
        optimus_zoo::vgg::vgg11(),
        optimus_zoo::vgg::vgg16(),
        optimus_zoo::vgg::vgg19(),
        optimus_zoo::resnet::resnet18(),
        optimus_zoo::resnet::resnet34(),
        optimus_zoo::resnet::resnet50(),
        optimus_zoo::resnet::resnet101(),
        optimus_zoo::resnet::resnet152(),
        optimus_zoo::densenet::densenet121(),
        optimus_zoo::densenet::densenet169(),
        optimus_zoo::densenet::densenet201(),
        optimus_zoo::mobilenet::mobilenet_v1(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v2(1.0, 0),
        optimus_zoo::mobilenet::mobilenet_v1(0.5, 0),
        optimus_zoo::xception::xception(),
        optimus_zoo::inception::inception_v1(),
        bert::bert(BertConfig::new(BertSize::Tiny)),
        bert::bert(BertConfig::new(BertSize::Mini)),
        bert::bert(BertConfig::new(BertSize::Small)),
        bert::bert(BertConfig::new(BertSize::Base)),
        bert::bert(BertConfig::new(BertSize::Base).task(BertTask::QuestionAnswering)),
    ]
}

pub use optimus_zoo::figure13_models;

/// Register models into a repository with the group planner and the given
/// environment's cost model. The offline pairwise planning sweep fans out
/// across a worker pool sized to the machine
/// ([`ModelRepository::register_all`]); the plan cache is identical to
/// sequential registration.
pub fn build_repo(
    models: Vec<ModelGraph>,
    env: optimus_profile::Environment,
) -> Arc<ModelRepository> {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::new(env);
    repo.register_all(models, &cost);
    Arc::new(repo)
}

/// The four workloads of §8.1 over a function set: three Poisson
/// intensities and the Azure-style trace.
pub fn workloads(functions: &[String], duration: f64, seed: u64) -> Vec<(String, Trace)> {
    use optimus_workload::rates;
    vec![
        (
            "Poisson λ=10⁻³·⁵".to_string(),
            PoissonGenerator::new(rates::INFREQUENT, duration, seed).generate(functions),
        ),
        (
            "Poisson λ=10⁻²·⁵".to_string(),
            PoissonGenerator::new(rates::MIDDLE, duration, seed + 1).generate(functions),
        ),
        (
            "Poisson λ=10⁻²".to_string(),
            PoissonGenerator::new(rates::FREQUENT, duration, seed + 2).generate(functions),
        ),
        (
            "Azure".to_string(),
            AzureTraceGenerator::new(duration, seed + 3).generate(functions),
        ),
    ]
}

/// Run all four systems on a trace; returns `(policy, report)` pairs.
pub fn run_all_policies(
    config: &SimConfig,
    repo: &Arc<ModelRepository>,
    trace: &Trace,
) -> Vec<(Policy, optimus_sim::SimReport)> {
    Policy::ALL
        .iter()
        .map(|&policy| {
            let platform = Platform::new(config.clone(), policy, repo.clone());
            (policy, platform.run(trace))
        })
        .collect()
}

/// Transformation latency between two already-built models under the
/// group planner + safeguard (the Figure 11 cell value).
pub fn transform_latency(src: &ModelGraph, dst: &ModelGraph, cost: &CostModel) -> f64 {
    if src.family().is_transformer() != dst.family().is_transformer() {
        // §8.2: cross-paradigm transformation always trips the safeguard.
        return cost.model_load_cost(dst);
    }
    let plan = GroupPlanner.plan(src, dst, cost);
    plan.cost.total().min(cost.model_load_cost(dst))
}

/// Print an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            s.push_str(&format!("{:<w$}  ", c, w = pad));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Append a JSON results blob to `results/<name>.json` if `results/`
/// exists (next to the workspace root); silently skip otherwise.
pub fn save_results(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if dir.is_dir() {
        let path = dir.join(format!("{name}.json"));
        if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("results written to {}", path.display());
        }
    }
}

/// Format seconds with 3 decimals.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a ratio as a percentage with 1 decimal.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_set_has_21_models() {
        let models = figure11_models();
        assert_eq!(models.len(), 21);
        let cnn = models
            .iter()
            .filter(|m| !m.family().is_transformer())
            .count();
        assert_eq!(cnn, 16);
    }

    #[test]
    fn figure13_population_is_pressured() {
        let models = figure13_models();
        assert!(models.len() >= 35, "{} functions", models.len());
        let names: std::collections::HashSet<_> =
            models.iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names.len(), models.len(), "duplicate model names");
    }

    #[test]
    fn workload_set_is_complete() {
        let fns = vec!["a".to_string(), "b".to_string()];
        let w = workloads(&fns, 10_000.0, 1);
        assert_eq!(w.len(), 4);
        assert!(w
            .iter()
            .all(|(_, t)| !t.is_empty() || t.duration == 10_000.0));
    }

    #[test]
    fn transform_latency_respects_safeguard() {
        let cost = CostModel::default();
        let cnn = optimus_zoo::resnet::resnet18();
        let bert =
            optimus_zoo::bert::bert(optimus_zoo::BertConfig::new(optimus_zoo::BertSize::Tiny));
        let v = transform_latency(&cnn, &bert, &cost);
        assert_eq!(v, cost.model_load_cost(&bert));
    }
}
