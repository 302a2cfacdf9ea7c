//! Seeded benchmark of the Optimus reproduction: two live workloads that
//! drive the HTTP gateway and two that drive the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_warm|serve_churn|sim_paper|sim_full> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it carries the run's metadata. The process exits non-zero
//! when any correctness or bookkeeping check fails. See `README.md` for
//! the workloads, the metrics and the recorded baseline.

mod live;
mod sim;
mod spans;
mod stats;
mod traffic;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::Recorder;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_mean_ms", "ms"),
    ("slo_attainment", "share"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// leaves idle reads 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("http.frontend_ms.p50", "ms"),
    ("http.frontend_ms.p99", "ms"),
    ("parser.parse_ns", "ns"),
    ("gateway.submit_us", "us"),
    ("gateway.rejected_share", "share"),
    ("worker.wait_ms.p50", "ms"),
    ("worker.wait_ms.p99", "ms"),
    ("worker.batch_size.mean", "count"),
    ("worker.startup_ms.transformed", "ms"),
    ("worker.startup_ms.cold", "ms"),
    ("worker.start_share.warm", "share"),
    ("worker.start_share.transformed", "share"),
    ("worker.start_share.cold", "share"),
    ("worker.compute_ms", "ms"),
    ("infer.run_ms", "ms"),
    ("executor.execute_plan_us", "us"),
    ("executor.steps", "count"),
    ("cache.decide_ns", "ns"),
    ("cache.plan_hit_share", "share"),
    ("cache.register_all_s", "s"),
    ("cache.planner_invocations", "count"),
    ("workload.generate_s", "s"),
    ("sim.run_s.openwhisk", "s"),
    ("sim.run_s.pagurus", "s"),
    ("sim.run_s.tetris", "s"),
    ("sim.run_s.optimus", "s"),
    ("sim.start_share.openwhisk.cold", "share"),
    ("sim.start_share.openwhisk.transform", "share"),
    ("sim.start_share.openwhisk.warm", "share"),
    ("sim.start_share.pagurus.cold", "share"),
    ("sim.start_share.pagurus.transform", "share"),
    ("sim.start_share.pagurus.warm", "share"),
    ("sim.start_share.tetris.cold", "share"),
    ("sim.start_share.tetris.transform", "share"),
    ("sim.start_share.tetris.warm", "share"),
    ("sim.start_share.optimus.cold", "share"),
    ("sim.start_share.optimus.transform", "share"),
    ("sim.start_share.optimus.warm", "share"),
    ("sim.service_p99_ms.optimus", "ms"),
    ("sim.stage_s.store", "s"),
    ("sim.stage_s.predict", "s"),
    ("sim.stage_s.faults", "s"),
    ("sim.stage_s.fleet", "s"),
    ("store.chunk_hit_ratio", "share"),
    ("predict.spec_hit_ratio", "share"),
    ("faults.escalations", "count"),
    ("fleet.scale_outs", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("split.p50.latency_ms", "ms"),
    ("split.p50.gen_lag_ms", "ms"),
    ("split.p50.frontend_ms", "ms"),
    ("split.p50.wait_ms", "ms"),
    ("split.p50.startup_ms", "ms"),
    ("split.p50.compute_ms", "ms"),
    ("split.p99.latency_ms", "ms"),
    ("split.p99.gen_lag_ms", "ms"),
    ("split.p99.frontend_ms", "ms"),
    ("split.p99.wait_ms", "ms"),
    ("split.p99.startup_ms", "ms"),
    ("split.p99.compute_ms", "ms"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness or bookkeeping checks.
    pub problems: Vec<String>,
    /// Validity warnings that do not fail the run.
    pub notes: Vec<String>,
    /// Sample count behind each percentile or median.
    pub samples: BTreeMap<String, usize>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Spans of the traced run.
    pub recorder: Option<Recorder>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's output, or "unavailable".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let mut result = match args.workload.as_str() {
        "serve_warm" => live::run(live::Live::Warm, args.seed, seconds, args.trace),
        "serve_churn" => live::run(live::Live::Churn, args.seed, seconds, args.trace),
        "sim_paper" => sim::run(sim::Sim::Paper, args.seed, seconds, args.trace),
        "sim_full" => sim::run(sim::Sim::Full, args.seed, seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let wanted: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        if let Some(rss) = peak_rss_mib() {
            result.metric("peak_rss_mib", rss, "MiB");
        }
        &END_TO_END
    };
    let mut metrics = serde_json::Map::new();
    for &(name, unit) in wanted {
        let value = match result.metrics.get(name) {
            Some(&(v, u)) => {
                if u != unit {
                    result
                        .problems
                        .push(format!("{name} measured in {u}, not {unit}"));
                }
                v
            }
            // An idle layer does no work.
            None if args.trace => 0.0,
            None => {
                result.problems.push(format!("{name} was not measured"));
                continue;
            }
        };
        if !value.is_finite() {
            result.problems.push(format!("{name} is not finite"));
            continue;
        }
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }

    if let Some(rec) = &result.recorder {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans in {}",
                rec.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        eprintln!("perfbench: self time by layer (s)");
        for (name, own) in rec.self_time_by_name() {
            eprintln!("  {name:<28} {own:>12.6}");
        }
    }
    for note in &result.notes {
        eprintln!("perfbench: note: {note}");
    }
    for problem in &result.problems {
        eprintln!("perfbench: FAILED: {problem}");
    }

    let meta = serde_json::json!({
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "cpu_model": cpu_model(),
            "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "rustc": command_line("rustc", &["--version"]),
            "git_rev": command_line("git", &["rev-parse", "HEAD"]),
            "samples": result.samples,
            "notes": result.notes,
            "problems": result.problems,
        }
    });
    println!("{meta}");
    let correct = result.problems.is_empty();
    let line = serde_json::json!({
        "correct": correct,
        "attempted": result.attempted.max(1),
        "failed": result.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload sim_full --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "sim_full".into(),
                seed: 3,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload sim_full --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }
}
