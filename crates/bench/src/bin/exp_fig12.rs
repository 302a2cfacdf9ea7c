//! Figure 12 — large-scale evaluation: 500 random transformation cases and
//! 500 scratch loads, for the Imgclsmob-style catalog and for NAS-Bench-201.

#![forbid(unsafe_code)]

use optimus_bench::{fmt_s, print_table, save_results, transform_latency};
use optimus_profile::{CostModel, CostProvider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stats(v: &[f64]) -> (f64, f64, f64) {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(0.0, f64::max);
    (mean, min, max)
}

fn main() {
    let cost = CostModel::default();
    let cases = 500usize;
    let mut rng = StdRng::seed_from_u64(2024);

    // --- Imgclsmob-style catalog ---
    let catalog = optimus_zoo::imgclsmob_catalog();
    let mut transform = Vec::with_capacity(cases);
    let mut load = Vec::with_capacity(cases);
    for _ in 0..cases {
        let i = rng.gen_range(0..catalog.len());
        let mut j = rng.gen_range(0..catalog.len());
        while j == i {
            j = rng.gen_range(0..catalog.len());
        }
        let src = catalog[i].build();
        let dst = catalog[j].build();
        transform.push(transform_latency(&src, &dst, &cost));
    }
    for _ in 0..cases {
        let j = rng.gen_range(0..catalog.len());
        load.push(cost.model_load_cost(&catalog[j].build()));
    }
    let (tm, tmin, tmax) = stats(&transform);
    let (lm, lmin, lmax) = stats(&load);
    println!("Figure 12(a/b): Imgclsmob — {cases} transformations vs {cases} loads\n");
    print_table(
        &["Case", "Mean (s)", "Min (s)", "Max (s)"],
        &[
            vec!["Transformation".into(), fmt_s(tm), fmt_s(tmin), fmt_s(tmax)],
            vec!["Loading".into(), fmt_s(lm), fmt_s(lmin), fmt_s(lmax)],
        ],
    );
    let imgcls_reduction = 1.0 - tm / lm;
    println!(
        "Latency reduction: {:.2}% (paper: 52.88%)\n",
        100.0 * imgcls_reduction
    );

    // --- NAS-Bench-201 ---
    let mut transform_nb = Vec::with_capacity(cases);
    let mut load_nb = Vec::with_capacity(cases);
    for _ in 0..cases {
        let i = rng.gen_range(0..optimus_zoo::NASBENCH_SPACE_SIZE);
        let mut j = rng.gen_range(0..optimus_zoo::NASBENCH_SPACE_SIZE);
        while j == i {
            j = rng.gen_range(0..optimus_zoo::NASBENCH_SPACE_SIZE);
        }
        let src = optimus_zoo::nasbench_model(i);
        let dst = optimus_zoo::nasbench_model(j);
        transform_nb.push(transform_latency(&src, &dst, &cost));
    }
    for _ in 0..cases {
        let j = rng.gen_range(0..optimus_zoo::NASBENCH_SPACE_SIZE);
        load_nb.push(cost.model_load_cost(&optimus_zoo::nasbench_model(j)));
    }
    let (tm2, tmin2, tmax2) = stats(&transform_nb);
    let (lm2, lmin2, lmax2) = stats(&load_nb);
    println!("Figure 12(c/d): NAS-Bench-201 — {cases} transformations vs {cases} loads\n");
    print_table(
        &["Case", "Mean (s)", "Min (s)", "Max (s)"],
        &[
            vec![
                "Transformation".into(),
                fmt_s(tm2),
                fmt_s(tmin2),
                fmt_s(tmax2),
            ],
            vec!["Loading".into(), fmt_s(lm2), fmt_s(lmin2), fmt_s(lmax2)],
        ],
    );
    let nb_reduction = 1.0 - tm2 / lm2;
    println!(
        "Latency reduction: {:.2}% (paper: 94.48%; paper loading mean 1.45 s)",
        100.0 * nb_reduction
    );
    save_results(
        "exp_fig12",
        &serde_json::json!({
            "imgclsmob": {
                "transform": transform, "load": load,
                "reduction": imgcls_reduction,
            },
            "nasbench": {
                "transform": transform_nb, "load": load_nb,
                "reduction": nb_reduction,
            },
        }),
    );
}
