//! `optimus-cli` — command-line driver for the Optimus library.
//!
//! ```text
//! optimus-cli list [<family>]              list catalog models
//! optimus-cli inspect <model>              model statistics
//! optimus-cli plan <src> <dst> [munkres]   plan a transformation
//! optimus-cli matrix <m1> <m2> [...]       transformation-latency matrix
//! optimus-cli dot <model>                  Graphviz DOT of a model graph
//! optimus-cli snapshot <m1,m2,...> <path>  register models, persist the
//!                                          plan cache to a JSON file
//! optimus-cli snapshot-info <path>         summarise a persisted snapshot
//! optimus-cli trace <path> [--workload poisson|azure] [--functions N]
//!                  [--rate R] [--duration S] [--seed K]
//!                                          generate a workload trace JSON
//! optimus-cli analyze [--functions N] [--duration S]
//!                                          workload pattern analysis
//! optimus-cli serve <m1,m2,...> [--port P] [--plan-cache <path>]
//!                                          start the live HTTP gateway;
//!                                          --plan-cache warm-loads and
//!                                          persists the plan artifact
//! optimus-cli simulate <m1,m2,...> [opts]  run the platform simulator
//!     opts: --policy <openwhisk|pagurus|tetris|optimus> (default optimus)
//!           --workload <poisson|azure>                  (default azure)
//!           --rate <req/s per function>                 (default 0.003)
//!           --duration <seconds>                        (default 21600)
//!           --nodes <n> --capacity <containers>         (default 2, 12)
//! ```
//!
//! Model names are catalog names (`optimus-cli list`), e.g. `vgg16`,
//! `resnet50`, `bert-base-uncased`, `mobilenet_v1-a0.50-v0`.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use optimus::core::{GroupPlanner, ModelRepository, MunkresPlanner, Planner};
use optimus::model::{ModelGraph, ModelStats};
use optimus::profile::{CostModel, CostProvider};
use optimus::sim::{PlacementStrategy, Platform, Policy, SimConfig, StartKind};
use optimus::workload::{AzureTraceGenerator, PoissonGenerator, Trace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(args.get(1).map(String::as_str)),
        Some("inspect") => match args.get(1) {
            Some(name) => cmd_inspect(name),
            None => Err("usage: optimus-cli inspect <model>".into()),
        },
        Some("plan") => match (args.get(1), args.get(2)) {
            (Some(src), Some(dst)) => cmd_plan(src, dst, args.get(3).map(String::as_str)),
            _ => Err("usage: optimus-cli plan <src> <dst> [munkres]".into()),
        },
        Some("matrix") if args.len() >= 3 => cmd_matrix(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("snapshot") => match (args.get(1), args.get(2)) {
            (Some(models), Some(path)) => cmd_snapshot(models, path),
            _ => Err("usage: optimus-cli snapshot <m1,m2,...> <path>".into()),
        },
        Some("snapshot-info") => match args.get(1) {
            Some(path) => cmd_snapshot_info(path),
            None => Err("usage: optimus-cli snapshot-info <path>".into()),
        },
        Some("trace") => match args.get(1) {
            Some(path) => cmd_trace(path, &args[2..]),
            None => Err("usage: optimus-cli trace <path> [opts]".into()),
        },
        Some("dot") => match args.get(1) {
            Some(name) => build(name).map(|g| print!("{}", optimus::model::dot::to_dot(&g))),
            None => Err("usage: optimus-cli dot <model>".into()),
        },
        Some("simulate") => match args.get(1) {
            Some(models) => cmd_simulate(models, &args[2..]),
            None => Err("usage: optimus-cli simulate <m1,m2,...> [opts]".into()),
        },
        Some("serve") => match args.get(1) {
            Some(models) => cmd_serve(models, &args[2..]),
            None => {
                Err("usage: optimus-cli serve <m1,m2,...> [--port P] [--plan-cache <path>]".into())
            }
        },
        _ => {
            eprintln!("{}", USAGE);
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: optimus-cli <list|inspect|plan|matrix|dot|analyze|snapshot|serve|simulate> ...\n\
                     run `optimus-cli list` to see available models";

fn build(name: &str) -> Result<ModelGraph, String> {
    optimus::zoo::find(name)
        .map(|e| e.build())
        .ok_or_else(|| format!("unknown model '{name}' (try `optimus-cli list`)"))
}

fn cmd_list(family: Option<&str>) -> Result<(), String> {
    let mut shown = 0;
    for entry in optimus::zoo::catalog() {
        if let Some(f) = family {
            if !entry.family.name().eq_ignore_ascii_case(f) {
                continue;
            }
        }
        println!("{:<28} {}", entry.name, entry.family);
        shown += 1;
    }
    if shown == 0 {
        return Err(format!(
            "no models in family '{}'",
            family.unwrap_or("<any>")
        ));
    }
    eprintln!("\n{shown} models");
    Ok(())
}

fn cmd_inspect(name: &str) -> Result<(), String> {
    let model = build(name)?;
    let stats = ModelStats::of(&model);
    let cost = CostModel::default();
    let breakdown = cost.load_breakdown(&model);
    println!("model      : {}", stats.name);
    println!("family     : {}", model.family());
    println!(
        "operations : {} ({} weighted)",
        stats.ops, stats.weighted_ops
    );
    println!("edges      : {}", stats.edges);
    println!(
        "parameters : {:.1}M ({:.0} MB)",
        stats.params_millions(),
        stats.size_mib()
    );
    println!(
        "load cost  : {:.3} s (structure {:.1}%, weights {:.1}%)",
        breakdown.total(),
        100.0 * breakdown.structure_fraction(),
        100.0 * breakdown.assign_fraction()
    );
    println!("op histogram:");
    for (kind, count) in &stats.histogram.counts {
        println!("  {:<14} {}", kind.to_string(), count);
    }
    Ok(())
}

fn cmd_plan(src: &str, dst: &str, planner: Option<&str>) -> Result<(), String> {
    let s = build(src)?;
    let d = build(dst)?;
    let cost = CostModel::default();
    let plan = match planner {
        Some("munkres") => MunkresPlanner.plan(&s, &d, &cost),
        Some(other) if other != "group" => {
            return Err(format!("unknown planner '{other}' (group|munkres)"))
        }
        _ => GroupPlanner.plan(&s, &d, &cost),
    };
    let load = cost.model_load_cost(&d);
    println!("plan {} -> {} ({} planner)", src, dst, plan.planner);
    println!("  planning     : {:.3} ms", 1e3 * plan.planning_seconds);
    println!(
        "  steps        : replace x{} reshape x{} reduce x{} add x{} edge x{}",
        plan.cost.n_replace,
        plan.cost.n_reshape,
        plan.cost.n_reduce,
        plan.cost.n_add,
        plan.cost.n_edge
    );
    println!("  exec latency : {:.3} s", plan.cost.total());
    println!("  scratch load : {:.3} s", load);
    if plan.cost.total() <= load {
        println!(
            "  verdict      : TRANSFORM (saves {:.1}%)",
            100.0 * (1.0 - plan.cost.total() / load)
        );
    } else {
        println!("  verdict      : LOAD FROM SCRATCH (safeguard)");
    }
    Ok(())
}

fn cmd_matrix(names: &[String]) -> Result<(), String> {
    let cost = CostModel::default();
    let models: Vec<ModelGraph> = names.iter().map(|n| build(n)).collect::<Result<_, _>>()?;
    print!("{:<20}", "from \\ to");
    for m in &models {
        print!("{:>12}", truncate(m.name(), 12));
    }
    println!();
    for src in &models {
        print!("{:<20}", truncate(src.name(), 20));
        for dst in &models {
            let v = if src.name() == dst.name() {
                0.0
            } else if src.family().is_transformer() != dst.family().is_transformer() {
                cost.model_load_cost(dst)
            } else {
                let plan = GroupPlanner.plan(src, dst, &cost);
                plan.cost.total().min(cost.model_load_cost(dst))
            };
            print!("{:>12.3}", v);
        }
        println!();
    }
    print!("{:<20}", "LOAD");
    for dst in &models {
        print!("{:>12.3}", cost.model_load_cost(dst));
    }
    println!();
    Ok(())
}

fn cmd_analyze(opts: &[String]) -> Result<(), String> {
    let get = |flag: &str| -> Option<&str> {
        opts.iter()
            .position(|a| a == flag)
            .and_then(|i| opts.get(i + 1))
            .map(String::as_str)
    };
    let n: usize = get("--functions")
        .unwrap_or("30")
        .parse()
        .map_err(|e| format!("bad --functions: {e}"))?;
    let duration: f64 = get("--duration")
        .unwrap_or("172800")
        .parse()
        .map_err(|e| format!("bad --duration: {e}"))?;
    let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let trace = optimus::workload::AzureTraceGenerator::new(duration, 7).generate(&names);
    println!(
        "Azure-style trace: {} requests over {:.1} h across {} functions\n",
        trace.len(),
        duration / 3600.0,
        n
    );
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>8} {:>9}  pattern",
        "function", "count", "rate/s", "mean gap", "cv", "burst"
    );
    for s in optimus::workload::analyze_trace(&trace, 300.0) {
        println!(
            "{:<8} {:>8} {:>10.5} {:>9.1}s {:>8.2} {:>9.2}  {:?}",
            s.function,
            s.count,
            s.rate,
            s.mean_gap,
            s.cv_gap,
            s.burstiness,
            s.classify()
        );
    }
    Ok(())
}

fn cmd_snapshot(models_csv: &str, path: &str) -> Result<(), String> {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::default();
    let models = models_csv
        .split(',')
        .map(|name| build(name.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    repo.register_all(models, &cost);
    let snap = repo.snapshot();
    let json = snap.to_json();
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "persisted {} models and {} cached plans ({} bytes) to {path}",
        snap.models.len(),
        snap.plans.len(),
        json.len()
    );
    Ok(())
}

fn cmd_snapshot_info(path: &str) -> Result<(), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snap = optimus::core::RepositorySnapshot::from_json(&json).map_err(|e| e.to_string())?;
    let repo = ModelRepository::restore(snap, Box::new(GroupPlanner)).map_err(|e| e.to_string())?;
    println!("snapshot {path}:");
    for name in repo.model_names() {
        println!(
            "  {:<28} load {:.3} s",
            name,
            repo.load_cost(&name).unwrap_or(0.0)
        );
    }
    let names = repo.model_names();
    let mut transforms = 0;
    for a in &names {
        for b in &names {
            if a != b && repo.plan(a, b).is_some() {
                transforms += 1;
            }
        }
    }
    println!("  {} cached transformation plans", transforms);
    Ok(())
}

fn cmd_trace(path: &str, opts: &[String]) -> Result<(), String> {
    let get = |flag: &str| -> Option<&str> {
        opts.iter()
            .position(|a| a == flag)
            .and_then(|i| opts.get(i + 1))
            .map(String::as_str)
    };
    let n: usize = get("--functions")
        .unwrap_or("20")
        .parse()
        .map_err(|e| format!("bad --functions: {e}"))?;
    let duration: f64 = get("--duration")
        .unwrap_or("86400")
        .parse()
        .map_err(|e| format!("bad --duration: {e}"))?;
    let rate: f64 = get("--rate")
        .unwrap_or("0.003")
        .parse()
        .map_err(|e| format!("bad --rate: {e}"))?;
    let seed: u64 = get("--seed")
        .unwrap_or("7")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let names: Vec<String> = (0..n).map(|i| format!("f{i}")).collect();
    let trace = match get("--workload").unwrap_or("azure") {
        "poisson" => PoissonGenerator::new(rate, duration, seed).generate(&names),
        "azure" => AzureTraceGenerator::new(duration, seed).generate(&names),
        other => return Err(format!("unknown workload '{other}'")),
    };
    std::fs::write(path, trace.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "wrote {} invocations over {:.1} h across {} functions to {path}",
        trace.len(),
        duration / 3600.0,
        n
    );
    Ok(())
}

fn cmd_simulate(models_csv: &str, opts: &[String]) -> Result<(), String> {
    let get = |flag: &str| -> Option<&str> {
        opts.iter()
            .position(|a| a == flag)
            .and_then(|i| opts.get(i + 1))
            .map(String::as_str)
    };
    let policy = match get("--policy").unwrap_or("optimus") {
        "openwhisk" => Policy::OpenWhisk,
        "pagurus" => Policy::Pagurus,
        "tetris" => Policy::Tetris,
        "optimus" => Policy::Optimus,
        other => return Err(format!("unknown policy '{other}'")),
    };
    let duration: f64 = get("--duration")
        .unwrap_or("21600")
        .parse()
        .map_err(|e| format!("bad --duration: {e}"))?;
    let rate: f64 = get("--rate")
        .unwrap_or("0.003")
        .parse()
        .map_err(|e| format!("bad --rate: {e}"))?;
    let nodes: usize = get("--nodes")
        .unwrap_or("2")
        .parse()
        .map_err(|e| format!("bad --nodes: {e}"))?;
    let capacity: usize = get("--capacity")
        .unwrap_or("12")
        .parse()
        .map_err(|e| format!("bad --capacity: {e}"))?;

    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let cost = CostModel::default();
    let mut models = Vec::new();
    for name in models_csv.split(',') {
        models.push(build(name.trim())?);
    }
    let functions: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    repo.register_all(models, &cost);
    let repo = Arc::new(repo);
    let trace: Trace = match get("--workload").unwrap_or("azure") {
        "poisson" => PoissonGenerator::new(rate, duration, 7).generate(&functions),
        "azure" => AzureTraceGenerator::new(duration, 7).generate(&functions),
        other => return Err(format!("unknown workload '{other}'")),
    };
    let config = SimConfig {
        nodes,
        capacity_per_node: capacity,
        placement: PlacementStrategy::default(),
        ..SimConfig::default()
    };
    eprintln!(
        "simulating {} requests over {:.1} h on {} node(s), policy {}",
        trace.len(),
        duration / 3600.0,
        nodes,
        policy
    );
    let report = Platform::new(config, policy, repo).run(&trace);
    let frac = report.start_fractions();
    let pct = |k: StartKind| 100.0 * frac.get(&k).copied().unwrap_or(0.0);
    println!("requests        : {}", report.len());
    println!("avg service time: {:.3} s", report.avg_service_time());
    println!(
        "p50/p99 service : {:.3} / {:.3} s",
        report.percentile_service_time(50.0),
        report.percentile_service_time(99.0)
    );
    let (w, i, l, c) = report.mean_breakdown();
    println!("mean breakdown  : wait {w:.3} + init {i:.3} + load {l:.3} + compute {c:.3}");
    println!(
        "starts          : cold {:.1}%, transform {:.1}%, warm {:.1}%",
        pct(StartKind::Cold),
        pct(StartKind::Transform),
        pct(StartKind::Warm)
    );
    println!("\nper-function:");
    for f in report.per_function() {
        println!(
            "  {:<26} {:>6} reqs  avg {:>7.3} s  (cold {} / xform {} / warm {})",
            f.function,
            f.requests,
            f.avg_service_time(),
            f.cold,
            f.transform,
            f.warm
        );
    }
    Ok(())
}

fn cmd_serve(models_csv: &str, opts: &[String]) -> Result<(), String> {
    let port: u16 = opts
        .iter()
        .position(|a| a == "--port")
        .and_then(|i| opts.get(i + 1))
        .map(|s| s.parse().map_err(|e| format!("bad --port: {e}")))
        .transpose()?
        .unwrap_or(8080);
    let plan_cache = opts
        .iter()
        .position(|a| a == "--plan-cache")
        .and_then(|i| opts.get(i + 1))
        .cloned();
    let mut builder = optimus::serve::Gateway::builder(optimus::serve::GatewayConfig::default());
    if let Some(path) = &plan_cache {
        builder = builder.plan_cache_path(path);
    }
    let models = models_csv
        .split(',')
        .map(|name| build(name.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    let gateway = std::sync::Arc::new(builder.register_all(models).spawn());
    if let Some(path) = &plan_cache {
        println!("plan cache: {path} (warm-loaded if present, persisted on registration)");
    }
    let server = optimus::serve::HttpServer::serve(gateway, port).map_err(|e| e.to_string())?;
    println!("Optimus gateway listening on http://{}", server.addr());
    println!("  GET  /models");
    println!("  POST /infer  {{\"model\": \"<name>\", \"shape\": [..], \"data\": [..]}}");
    println!("  GET  /metrics   Prometheus text exposition");
    println!("  GET  /stats     metrics snapshot as JSON");
    println!("  GET  /healthz   liveness probe");
    println!("press Ctrl-C to stop");
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}
