//! Elastic scale-out — warming a flash crowd via P2P chunk multicast.
//!
//! Two parts, both machine-checked:
//!
//! 1. **Planner sweep** — for every joiner count `N` in 1..=64, the
//!    binomial multicast tree warms all joiners in at most
//!    `⌈log2(N+1)⌉` rounds and never takes longer than `N` serial
//!    origin fetches (the remote-only baseline it replaces).
//! 2. **Flash-crowd simulation** — a sustained burst on one hot function
//!    drives the `optimus-fleet` autoscaler past its pressure threshold;
//!    joining nodes warm either peer-to-peer (multicast) or from the
//!    origin (remote-only), against a static fleet that cannot grow.
//!    Checked: byte conservation (multicast moves exactly the payload
//!    remote-only would fetch, just over different edges), multicast
//!    time-to-all-warm ≤ remote-only at every scale event, the
//!    fleet-off report serializes without a `fleet` key (static-path
//!    identity), and the whole sweep is byte-identical at any
//!    `--threads` value and across reruns.
//!
//! Optional args: `--small` (CI configuration), `--threads <n>`,
//! `--duration <seconds>`, `--seed <n>`.

#![forbid(unsafe_code)]

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{build_repo, figure13_models, fmt_s, print_table, save_results};
use optimus_fleet::{plan_multicast, remote_only_seconds, FleetConfig};
use optimus_model::ModelGraph;
use optimus_profile::Environment;
use optimus_sim::{PlacementStrategy, Platform, Policy, SimConfig, StoreConfig};
use optimus_workload::{Invocation, PoissonGenerator, Trace};

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Multicast,
    RemoteOnly,
    Off,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Multicast, Mode::RemoteOnly, Mode::Off];

    fn name(self) -> &'static str {
        match self {
            Mode::Multicast => "fleet+multicast",
            Mode::RemoteOnly => "fleet+remote-only",
            Mode::Off => "static",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let threads = threads_arg(&args);
    let seed: u64 = arg(&args, "--seed", 42);
    let (catalog_size, default_duration, gap, max_nodes): (usize, f64, f64, usize) = if small {
        (6, 600.0, 0.05, 6)
    } else {
        (12, 1_800.0, 0.02, 10)
    };
    let duration: f64 = arg(&args, "--duration", default_duration);

    // ── Part 1: planner sweep — O(log N) rounds, never slower than ──────
    //    linear origin fetches, at every joiner count.
    let sc = StoreConfig::default();
    let bytes: u64 = 100 * 1024 * 1024;
    let mut planner_rows = Vec::new();
    let mut planner_json = Vec::new();
    for n in 1..=64usize {
        let joiners: Vec<usize> = (1..=n).collect();
        let plan = plan_multicast(&[0], &joiners, bytes, sc.interconnect, sc.remote);
        let bound = (n + 1).next_power_of_two().trailing_zeros() as usize;
        assert!(
            plan.rounds() <= bound,
            "{n} joiners took {} rounds, bound ceil(log2({n}+1)) = {bound}",
            plan.rounds()
        );
        let linear = remote_only_seconds(n, bytes, sc.remote);
        assert!(
            plan.total_seconds <= linear + 1e-9,
            "multicast {:.3}s exceeds remote-only {linear:.3}s at N={n}",
            plan.total_seconds
        );
        if n.is_power_of_two() {
            planner_rows.push(vec![
                n.to_string(),
                plan.rounds().to_string(),
                fmt_s(plan.total_seconds),
                fmt_s(linear),
                format!("{:.1}x", linear / plan.total_seconds),
            ]);
        }
        planner_json.push(serde_json::json!({
            "joiners": n,
            "rounds": plan.rounds(),
            "multicast_s": plan.total_seconds,
            "remote_only_s": linear,
        }));
    }
    println!("Multicast planner: warming N joiners of a 100 MiB model from one seed\n");
    print_table(
        &["Joiners", "Rounds", "Multicast", "Remote-only", "Speedup"],
        &planner_rows,
    );
    println!("\nplanner: OK (rounds <= ceil(log2(N+1)) and multicast <= remote-only, N = 1..=64)");

    // ── Part 2: flash-crowd simulation ──────────────────────────────────
    let models: Vec<ModelGraph> = figure13_models().into_iter().take(catalog_size).collect();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    eprintln!(
        "\nregistering {} models and computing plan cache...",
        names.len()
    );
    let repo = build_repo(models, Environment::Cpu);
    // Light background traffic over the catalog keeps every function
    // alive; the flash crowd hammers the first one hard enough to hold
    // the initial fleet above the pressure threshold.
    let hot = names[0].clone();
    let mut invocations = PoissonGenerator::new(0.002, duration, seed)
        .generate(&names)
        .invocations;
    let burst = (duration / (2.0 * gap)) as usize;
    invocations.extend((0..burst).map(|i| Invocation {
        time: i as f64 * gap,
        function: hot.clone(),
    }));
    // `Trace::new` re-sorts the merged arrivals by time.
    let trace = Trace::new(duration, invocations);

    let step = max_nodes - 2;
    let fleet_for = |mode: Mode| -> Option<FleetConfig> {
        match mode {
            Mode::Off => None,
            _ => Some(FleetConfig {
                max_nodes,
                scale_out_pressure: 0.8,
                sustain_s: 2.0,
                // One decisive scale-out: keeps the scale pattern (and so
                // the byte-conservation comparison) identical across
                // warming modes whose readiness times differ.
                cooldown_s: 1.0e9,
                step,
                scale_in_idle_s: 300.0,
                provision_s: 2.0,
                multicast: mode == Mode::Multicast,
            }),
        }
    };
    let base = SimConfig {
        nodes: 2,
        capacity_per_node: 4,
        placement: PlacementStrategy::Hash,
        store: Some(sc),
        ..SimConfig::default()
    };
    println!(
        "\nFlash crowd: {} requests on {} functions ({} burst on {hot}), 2 -> {max_nodes} nodes, seed {seed}\n",
        trace.len(),
        names.len(),
        burst
    );

    let run_sweep = |threads: usize| {
        run_grid(&Mode::ALL, threads, |&mode| {
            let config = SimConfig {
                fleet: fleet_for(mode),
                ..base.clone()
            };
            Platform::new(config, Policy::Optimus, repo.clone()).run(&trace)
        })
    };
    let reports = run_sweep(threads);

    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (mode, report) in Mode::ALL.iter().zip(&reports) {
        let fl = report.fleet;
        rows.push(vec![
            mode.name().to_string(),
            fmt_s(report.avg_service_time()),
            fmt_s(report.percentile_service_time(99.0)),
            fl.map_or("-".into(), |f| f.peak_nodes.to_string()),
            fl.map_or("-".into(), |f| f.multicast_rounds.to_string()),
            fl.map_or("-".into(), |f| {
                format!("{:.0}", f.multicast_bytes as f64 / (1024.0 * 1024.0))
            }),
            fl.map_or("-".into(), |f| {
                format!("{:.0}", f.remote_warm_bytes as f64 / (1024.0 * 1024.0))
            }),
            fl.map_or("-".into(), |f| fmt_s(f.time_to_all_warm)),
        ]);
        sweep_json.push(serde_json::json!({
            "mode": mode.name(),
            "avg_service_time": report.avg_service_time(),
            "p99": report.percentile_service_time(99.0),
            "requests": report.len(),
            "fleet": fl,
        }));
    }
    print_table(
        &[
            "Mode",
            "Avg",
            "p99",
            "Peak nodes",
            "Rounds",
            "P2P MiB",
            "Origin MiB",
            "All-warm",
        ],
        &rows,
    );

    // ── Machine checks ──────────────────────────────────────────────────
    let mc = reports[0].fleet.expect("multicast fleet report");
    let ro = reports[1].fleet.expect("remote-only fleet report");
    assert!(mc.scale_outs >= 1, "the burst must trigger a scale-out");
    assert_eq!(
        (mc.scale_outs, mc.nodes_added),
        (ro.scale_outs, ro.nodes_added),
        "identical scale pattern across warming modes"
    );
    assert_eq!(
        mc.multicast_bytes + mc.remote_warm_bytes,
        ro.remote_warm_bytes,
        "byte conservation: multicast changes the bytes' source, not their amount"
    );
    assert!(
        mc.multicast_bytes > 0 && mc.remote_warm_bytes == 0,
        "live seeds exist: every warm byte travels peer-to-peer"
    );
    let joiners_per_wave = step as u64;
    let round_bound = (joiners_per_wave + 1).next_power_of_two().trailing_zeros() as u64;
    assert!(
        mc.multicast_rounds <= mc.multicast_waves * round_bound,
        "rounds {} exceed O(log N) bound {} over {} waves",
        mc.multicast_rounds,
        mc.multicast_waves * round_bound,
        mc.multicast_waves
    );
    assert!(
        mc.time_to_all_warm <= ro.time_to_all_warm + 1e-9,
        "multicast all-warm {} s must not exceed remote-only {} s",
        mc.time_to_all_warm,
        ro.time_to_all_warm
    );
    println!("\nscale-out: OK (byte conservation, O(log N) rounds, multicast <= remote-only)");

    let off_json = serde_json::to_string(&reports[2]).expect("serializes");
    assert!(
        !off_json.contains("\"fleet\""),
        "the static run must serialize without a fleet key (pre-fleet identity)"
    );
    println!("static-path identity: OK (fleet-off report carries no fleet key)");

    // Byte-identity across thread counts and reruns: the whole sweep,
    // sequentially and at the requested parallelism, twice.
    let sequential = run_sweep(1);
    for ((a, b), mode) in reports.iter().zip(&sequential).zip(Mode::ALL.iter()) {
        assert_eq!(
            serde_json::to_string(a).expect("serializes"),
            serde_json::to_string(b).expect("serializes"),
            "{}: --threads {threads} diverged from sequential",
            mode.name()
        );
    }
    println!("determinism: OK (sweep byte-identical at --threads {threads} and 1)");

    save_results(
        if small {
            "exp_scale_out_small"
        } else {
            "exp_scale_out"
        },
        &serde_json::json!({
            "config": if small { "small" } else { "full" },
            "seed": seed,
            "duration_s": duration,
            "functions": names.len(),
            "requests": trace.len(),
            "max_nodes": max_nodes,
            "planner": planner_json,
            "sweep": sweep_json,
        }),
    );
}
