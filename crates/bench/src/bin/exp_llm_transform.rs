//! LLM transformation experiment — cold-starting a multi-GB GPT decoder
//! versus transforming a resident context-length sibling.
//!
//! The scenario is the paper's warming story told at LLM scale: a node
//! has been serving `gpt-6.7b-c1024` decode loops; traffic shifts to the
//! longer-context sibling `gpt-6.7b-c2048`. OpenWhisk cold-starts a new
//! sandbox and admits the full ~26 GB chunk set; Optimus transforms the
//! idle sibling container in place, admitting only the plan's payload
//! chunks, and the KV meta-operators carry the attention state across
//! the context change.
//!
//! Three sections:
//!
//! 1. **Static plan accounting** — the weight-side chunk split
//!    (`plan_chunks`) and the state-side KV plan (`plan_kv_transform`)
//!    between the sibling pair, with their partition invariants
//!    machine-checked: transformation must move strictly fewer bytes
//!    than a scratch load at any tier.
//! 2. **Tier-ladder sweep** — OpenWhisk vs Optimus on the same decode
//!    trace (sibling warm-up heartbeats, then a target burst) across
//!    several remote-bandwidth ladders, with `llm: Some(..)` so every
//!    request is a continuously-batched decode loop. At every ladder the
//!    transform path must beat the cold path on target-function p99 TTFT
//!    and on bytes admitted into containers.
//! 3. **Regression guards** — `llm: None` output carries no `llm` key
//!    and reruns byte-identically, and the whole sweep is byte-identical
//!    at any `--threads` value.
//!
//! Run with `--small` for the CI configuration.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};

use optimus_bench::sweep::{run_grid, threads_arg};
use optimus_bench::{fmt_s, print_table, save_results};
use optimus_core::{plan_chunks, plan_kv_transform, GroupPlanner, Planner};
use optimus_model::KvCache;
use optimus_profile::CostModel;
use optimus_sim::{
    LlmConfig, PlacementStrategy, Platform, Policy, SimConfig, SimReport, StartKind, StoreConfig,
    TierParams,
};
use optimus_store::model_chunks;
use optimus_workload::{Invocation, Trace};
use optimus_zoo::{gpt, GptConfig, GptSize};

/// Sorted percentile of a sample (nearest-rank on the sorted data).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The decode trace both systems serve: periodic sibling heartbeats keep
/// its container resident (and, after the last one, idle long enough to
/// become a transformation donor), then a burst of target requests.
fn decode_trace(
    sibling: &str,
    target: &str,
    heartbeat_gap: f64,
    last_heartbeat: f64,
    burst_at: f64,
    burst_n: usize,
    duration: f64,
) -> Trace {
    let mut inv: Vec<Invocation> = Vec::new();
    let beats = (last_heartbeat / heartbeat_gap) as usize;
    for i in 0..=beats {
        inv.push(Invocation {
            time: i as f64 * heartbeat_gap,
            function: sibling.to_string(),
        });
    }
    for i in 0..burst_n {
        inv.push(Invocation {
            time: burst_at + i as f64 * 0.05,
            function: target.to_string(),
        });
    }
    Trace::new(duration, inv)
}

/// Target-function view of one report: start-path latency percentiles and
/// start-kind counts.
struct TargetView {
    requests: usize,
    cold: usize,
    transform: usize,
    warm: usize,
    /// p99 of per-request TTFT: queueing + sandbox init + load/transform,
    /// plus the (policy-independent) first prefill iteration.
    ttft_p99: f64,
    ttft_max: f64,
}

fn target_view(report: &SimReport, target: &str, prefill_iter: f64) -> TargetView {
    let mut ttfts: Vec<f64> = Vec::new();
    let (mut cold, mut transform, mut warm) = (0, 0, 0);
    for r in report.records.iter().filter(|r| r.function == target) {
        ttfts.push(r.wait + r.init + r.load + prefill_iter);
        match r.kind {
            StartKind::Cold => cold += 1,
            StartKind::Transform => transform += 1,
            StartKind::Warm => warm += 1,
        }
    }
    ttfts.sort_by(f64::total_cmp);
    TargetView {
        requests: ttfts.len(),
        cold,
        transform,
        warm,
        ttft_p99: percentile(&ttfts, 0.99),
        ttft_max: percentile(&ttfts, 1.0),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let threads = threads_arg(&args);

    // The sibling pair shares every weight except the positional table
    // (the context axis); the decoy pads the catalog so planning runs on
    // a non-trivial zoo.
    let (size, decoy_size) = if small {
        (GptSize::G350M, GptSize::G125M)
    } else {
        (GptSize::G6_7B, GptSize::G1_3B)
    };
    let sibling_cfg = GptConfig::new(size); // c1024
    let target_cfg = GptConfig::new(size).context(2048);
    let decoy_cfg = GptConfig::new(decoy_size);
    let sibling_name = sibling_cfg.name();
    let target_name = target_cfg.name();

    // Timeline: heartbeats outlast the slowest ladder's initial cold load
    // of the sibling, the burst lands after the 60 s donor idle threshold.
    let (gap, last_beat, burst_at, duration, bandwidths) = if small {
        (30.0, 300.0, 400.0, 800.0, vec![25.0e6, 400.0e6])
    } else {
        (
            60.0,
            1_800.0,
            1_900.0,
            2_600.0,
            vec![25.0e6, 100.0e6, 400.0e6],
        )
    };
    let llm = LlmConfig::default();
    let burst_n = llm.max_batch; // one continuously-batched target wave

    assert!(
        SimConfig::default().llm.is_none(),
        "LLM serving must stay opt-in: default sim config is single-forward-pass"
    );

    // ── 1. Static plan accounting ───────────────────────────────────────
    let sibling = gpt(sibling_cfg);
    let target = gpt(target_cfg);
    let cost = CostModel::default();
    let chunk_bytes = StoreConfig::default().chunk_bytes;

    let plan = GroupPlanner.plan(&sibling, &target, &cost);
    let target_chunks = model_chunks(&target, chunk_bytes);
    let split = plan_chunks(&plan, &target_chunks, chunk_bytes);
    // The partition is exact at the chunk-id level: fetched and reused
    // ids are disjoint and together cover the destination's unique
    // content (byte sums over raw chunk lists would double-count content
    // the decoder deduplicates internally, e.g. identical zero-init
    // LayerNorm tensors across layers).
    let dst_unique: HashMap<_, u64> = target_chunks.iter().map(|c| (c.id, c.bytes)).collect();
    let fetched_ids: HashSet<_> = split.fetched.iter().map(|c| c.id).collect();
    let reused_ids: HashSet<_> = split.reused.iter().map(|c| c.id).collect();
    assert!(fetched_ids.is_disjoint(&reused_ids));
    let union: HashSet<_> = fetched_ids.union(&reused_ids).copied().collect();
    assert_eq!(
        union,
        dst_unique.keys().copied().collect::<HashSet<_>>(),
        "fetched + reused chunks must cover the destination exactly"
    );
    let unique_total: u64 = dst_unique.values().sum();
    let reused_unique: u64 = dst_unique
        .iter()
        .filter(|(id, _)| reused_ids.contains(id))
        .map(|(_, b)| b)
        .sum();
    assert_eq!(split.fetched_bytes() + reused_unique, unique_total);
    assert!(
        split.fetched_bytes() < unique_total,
        "transformation must move strictly fewer bytes than a scratch load: \
         {} fetched vs {} total",
        split.fetched_bytes(),
        unique_total
    );

    // State side: the KV cache of a fully-filled sibling context carries
    // wholesale into the wider target window.
    let src_kv = sibling_cfg.kv_spec();
    let dst_kv = target_cfg.kv_spec();
    let cache = KvCache::filled(src_kv, src_kv.context);
    let kv = plan_kv_transform(&cache, &dst_kv);
    assert_eq!(kv.carried_bytes + kv.materialized_bytes, dst_kv.byte_size());
    assert_eq!(kv.carried_bytes + kv.dropped_bytes, cache.live_bytes());
    assert!(
        src_kv.row_compatible(&dst_kv),
        "context siblings share rows"
    );
    assert_eq!(
        kv.carried, src_kv.context,
        "a wider window carries all state"
    );
    assert_eq!(kv.dropped_bytes, 0);

    let gib = |b: u64| format!("{:.3} GiB", b as f64 / (1u64 << 30) as f64);
    println!(
        "Transforming {sibling_name} -> {target_name} ({} steps, plan cost {})\n",
        plan.steps.len(),
        fmt_s(plan.cost.total()),
    );
    print_table(
        &[
            "Accounting",
            "Fetched/Carried",
            "Reused/Materialized",
            "Total",
        ],
        &[
            vec![
                "weights (chunks)".to_string(),
                gib(split.fetched_bytes()),
                gib(reused_unique),
                gib(unique_total),
            ],
            vec![
                "KV cache (state)".to_string(),
                gib(kv.carried_bytes),
                gib(kv.materialized_bytes),
                gib(dst_kv.byte_size()),
            ],
        ],
    );

    // ── 2. Tier-ladder sweep: OpenWhisk (cold) vs Optimus (transform) ───
    let repo = optimus_bench::build_repo(
        vec![sibling, target, gpt(decoy_cfg)],
        optimus_profile::Environment::Cpu,
    );
    let trace = decode_trace(
        &sibling_name,
        &target_name,
        gap,
        last_beat,
        burst_at,
        burst_n,
        duration,
    );
    // The first prefill iteration of the target wave is the same for both
    // systems (same batch, same weights); adding it to the measured
    // start path makes the per-request figure a TTFT.
    let target_bytes = repo
        .model(&target_name)
        .expect("target registered")
        .byte_size() as u64;
    let prefill_iter = llm.iter_seconds(target_bytes, burst_n, 1);

    let cells: Vec<(f64, Policy)> = bandwidths
        .iter()
        .flat_map(|&bw| [(bw, Policy::OpenWhisk), (bw, Policy::Optimus)])
        .collect();
    let run_cells = |threads: usize| -> Vec<SimReport> {
        run_grid(&cells, threads, |&(bw, policy): &(f64, Policy)| {
            let config = SimConfig {
                nodes: 1,
                placement: PlacementStrategy::Hash,
                store: Some(StoreConfig {
                    remote: TierParams {
                        bandwidth_bytes_per_s: bw,
                        latency_s: StoreConfig::default().remote.latency_s,
                    },
                    ..StoreConfig::default()
                }),
                llm: Some(llm),
                ..SimConfig::default()
            };
            Platform::new(config, policy, repo.clone()).run(&trace)
        })
    };
    let reports = run_cells(threads);

    println!(
        "\nDecode trace: {} heartbeats on {sibling_name}, {burst_n}-request burst on {target_name}\n",
        (last_beat / gap) as usize + 1,
    );
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (i, &bw) in bandwidths.iter().enumerate() {
        let cold_report = &reports[2 * i];
        let warm_report = &reports[2 * i + 1];
        let cold = target_view(cold_report, &target_name, prefill_iter);
        let warm = target_view(warm_report, &target_name, prefill_iter);
        let cold_stats = cold_report.store.expect("store enabled");
        let warm_stats = warm_report.store.expect("store enabled");

        // The machine-checked invariants: at every ladder the transform
        // path serves the burst with strictly lower p99 TTFT and strictly
        // fewer bytes admitted into containers than the cold path.
        assert!(cold.transform == 0, "OpenWhisk never transforms");
        assert!(
            warm.transform >= 1,
            "Optimus transforms the idle sibling at {bw} B/s"
        );
        assert!(
            warm.ttft_p99 < cold.ttft_p99,
            "transform must beat cold on target p99 TTFT at {bw} B/s: {} vs {}",
            warm.ttft_p99,
            cold.ttft_p99
        );
        assert!(
            warm_stats.admitted_bytes < cold_stats.admitted_bytes,
            "transform must admit strictly fewer bytes at {bw} B/s: {} vs {}",
            warm_stats.admitted_bytes,
            cold_stats.admitted_bytes
        );
        assert!(warm_stats.fetched_bytes <= cold_stats.fetched_bytes);

        for (name, view, stats, report) in [
            ("OpenWhisk", &cold, cold_stats, cold_report),
            ("Optimus", &warm, warm_stats, warm_report),
        ] {
            let lr = report.llm.as_ref().expect("llm enabled");
            rows.push(vec![
                format!("remote {:.0} MB/s", bw / 1e6),
                name.to_string(),
                format!("{}c/{}t/{}w", view.cold, view.transform, view.warm),
                fmt_s(view.ttft_p99),
                fmt_s(view.ttft_max),
                gib(stats.admitted_bytes),
                gib(stats.fetched_bytes),
                format!("{}", lr.joins),
            ]);
        }
        let side = |view: &TargetView, stats: optimus_sim::StoreStats, report: &SimReport| {
            let lr = report.llm.as_ref().expect("llm enabled");
            serde_json::json!({
                "target_requests": view.requests,
                "target_cold": view.cold,
                "target_transform": view.transform,
                "target_warm": view.warm,
                "target_ttft_p99_s": view.ttft_p99,
                "target_ttft_max_s": view.ttft_max,
                "admitted_bytes": stats.admitted_bytes,
                "fetched_bytes": stats.fetched_bytes,
                "dedup_ratio": stats.dedup_ratio,
                "llm_requests": lr.requests,
                "llm_joins": lr.joins,
                "llm_tokens": lr.tokens,
                "llm_peak_batch": lr.peak_batch,
                "llm_ttft_p99_s": lr.ttft_p99,
            })
        };
        sweep_json.push(serde_json::json!({
            "remote_bandwidth_bytes_per_s": bw,
            "openwhisk": side(&cold, cold_stats, cold_report),
            "optimus": side(&warm, warm_stats, warm_report),
        }));
    }
    print_table(
        &[
            "Ladder", "System", "Starts", "TTFT p99", "TTFT max", "Admitted", "Fetched", "Joins",
        ],
        &rows,
    );

    // ── 3. Regression guards ────────────────────────────────────────────
    // (a) With the LLM layer disabled the report schema is unchanged —
    // no `llm` key — and reruns are byte-identical.
    let legacy = || {
        let config = SimConfig {
            nodes: 1,
            placement: PlacementStrategy::Hash,
            store: Some(StoreConfig::default()),
            ..SimConfig::default()
        };
        let report = Platform::new(config, Policy::Optimus, repo.clone()).run(&trace);
        serde_json::to_string(&report).unwrap()
    };
    let off = legacy();
    assert!(
        !off.contains("\"llm\""),
        "llm: None must serialize exactly as before the layer existed"
    );
    assert_eq!(off, legacy(), "llm-off reruns are byte-identical");

    // (b) The sweep itself is byte-identical at any thread count,
    // continuous batching included.
    let other_threads = if threads == 1 { 2 } else { 1 };
    let replay = run_cells(other_threads);
    let json_of = |rs: &[SimReport]| {
        rs.iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        json_of(&reports),
        json_of(&replay),
        "sweep must be byte-identical at {threads} vs {other_threads} threads"
    );
    println!("\nGuards: llm-off schema unchanged; sweep deterministic across thread counts");

    save_results(
        if small {
            "exp_llm_transform_small"
        } else {
            "exp_llm_transform"
        },
        &serde_json::json!({
            "config": if small { "small" } else { "full" },
            "sibling": sibling_name,
            "target": target_name,
            "target_bytes": target_bytes,
            "plan_steps": plan.steps.len(),
            "plan_cost_s": plan.cost.total(),
            "weights": {
                "fetched_bytes": split.fetched_bytes(),
                "reused_unique_bytes": reused_unique,
                "unique_total_bytes": unique_total,
            },
            "kv": {
                "carried_bytes": kv.carried_bytes,
                "materialized_bytes": kv.materialized_bytes,
                "dropped_bytes": kv.dropped_bytes,
                "carried_positions": kv.carried,
            },
            "prefill_iter_s": prefill_iter,
            "burst_requests": burst_n,
            "sweep": sweep_json,
        }),
    );
}
