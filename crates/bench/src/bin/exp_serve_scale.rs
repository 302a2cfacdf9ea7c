//! Serving-front-end scaling — pooled keep-alive core vs the
//! thread-per-connection baseline, over real TCP.
//!
//! An open-loop load generator drives a live `HttpServer` (real sockets,
//! real HTTP/1.1) along a trajectory of increasing connection counts and
//! offered rates, once per front-end mode:
//!
//! * **thread-per-conn** — the legacy front end: every request opens a
//!   fresh connection, the server spawns a thread per accept and blocks
//!   it on inference (`Connection: close`).
//! * **pooled** — the production core: persistent keep-alive
//!   connections, sharded accept loops, a fixed HTTP worker pool that
//!   never blocks on inference, per-model batching at the serving
//!   workers, and bounded admission queues that shed overload with 429.
//!
//! Every client schedules arrivals on a fixed clock (open loop): latency
//! is measured from the *scheduled* send time, so a front end that falls
//! behind accumulates backlog into its tail instead of silently slowing
//! the generator down. Per point the harness records goodput (200s per
//! second of wall clock), p50/p99/p999 latency over successful requests,
//! and the 429 count.
//!
//! Machine-checked:
//! * bookkeeping — every scheduled request is accounted for
//!   (`sent == ok + rejected + errors`) in both modes, and the pooled
//!   core never drops a connection (`errors == 0`);
//! * backpressure — at the top of the trajectory the pooled core sheds
//!   load with 429s while the p99 of *admitted* requests stays bounded
//!   (no unbounded queue growth);
//! * (full run only) goodput — the pooled core sustains ≥ 5× the
//!   thread-per-connection goodput at equal-or-better p99, and a repeat
//!   of the peak point reproduces its goodput within noise bounds.
//!
//! Optional args: `--small` (CI configuration), `--duration <seconds>`.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_bench::{print_table, save_results};
use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_serve::{
    FrontendMode, Gateway, GatewayConfig, HttpConfig, HttpServer, MetricsRegistry, ServingConfig,
};

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Tiny CNN with a 4-logit head: the pooled head keeps the response
/// JSON small so the experiment measures the front end, not float
/// serialization.
fn tiny(name: &str, out_ch: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input([1, 3, 8, 8]);
    let x = b.conv2d_after(x, 3, out_ch, (3, 3), (1, 1), 1);
    let x = b.activation_after(x, Activation::Relu);
    let x = b.global_avg_pool_after(x);
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, out_ch, 4);
    b.finish().unwrap()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    ThreadPerConn,
    Pooled,
}

impl Mode {
    const ALL: [Mode; 2] = [Mode::ThreadPerConn, Mode::Pooled];

    fn name(self) -> &'static str {
        match self {
            Mode::ThreadPerConn => "thread-per-conn",
            Mode::Pooled => "pooled",
        }
    }

    fn frontend(self) -> FrontendMode {
        match self {
            Mode::ThreadPerConn => FrontendMode::ThreadPerConn,
            Mode::Pooled => FrontendMode::Pooled,
        }
    }
}

/// One trajectory point: `conns` client connections offering `offered`
/// requests per second in aggregate.
#[derive(Clone, Copy)]
struct Point {
    conns: usize,
    offered: f64,
}

#[derive(Clone)]
struct PointResult {
    mode: &'static str,
    conns: usize,
    offered: f64,
    sent: usize,
    ok: usize,
    rejected: usize,
    errors: usize,
    elapsed_s: f64,
    goodput: f64,
    // Latency from the *scheduled* send time (open loop, corrected for
    // coordinated omission): a front end that falls behind accumulates
    // its backlog into this tail.
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    // On-wire round trip from the actual send: what a single admitted
    // request experiences at the server, independent of generator debt.
    rtt_p50_ms: f64,
    rtt_p99_ms: f64,
}

/// Read one HTTP response off a persistent connection (status line,
/// headers for `Content-Length`, body). Returns the status code.
fn read_keep_alive_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let mut status = String::new();
    if reader.read_line(&mut status)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let code = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(code)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Status code of a `Connection: close` exchange on a fresh connection.
fn oneshot_request(addr: SocketAddr, raw: &[u8]) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    stream.write_all(raw)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::ErrorKind::InvalidData.into())
}

fn infer_request(model: &str, keep_alive: bool) -> Vec<u8> {
    let body = format!(r#"{{"model":"{model}","shape":[1,3,8,8]}}"#);
    format!(
        "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    )
    .into_bytes()
}

/// Drive one trajectory point: `conns` client threads, each sending its
/// share of the offered rate on a fixed open-loop schedule. Requests
/// alternate between the two registered models so both serving nodes see
/// traffic and queued same-model runs can be served as one group.
fn run_point(addr: SocketAddr, mode: Mode, point: Point, duration: f64) -> PointResult {
    let per_conn = point.offered / point.conns as f64;
    let interval = Duration::from_secs_f64(1.0 / per_conn);
    let requests_per_conn = ((duration * per_conn).round() as usize).max(1);
    // Pre-rendered request bytes (one per model) shared by every client.
    let raw: Arc<[Vec<u8>; 2]> = Arc::new([
        infer_request("ma", mode == Mode::Pooled),
        infer_request("mb", mode == Mode::Pooled),
    ]);

    let start = Instant::now() + Duration::from_millis(50);
    let mut clients = Vec::new();
    for conn_id in 0..point.conns {
        let raw = raw.clone();
        // Stagger connection phases so aggregate arrivals are even.
        let phase = interval.mul_f64(conn_id as f64 / point.conns as f64);
        clients.push(std::thread::spawn(move || {
            let mut samples: Vec<(u16, f64, f64)> = Vec::with_capacity(requests_per_conn);
            let mut errors = 0usize;
            let mut persistent = if mode == Mode::Pooled {
                connect(addr).ok()
            } else {
                None
            };
            for k in 0..requests_per_conn {
                let scheduled = start + phase + interval.mul_f64(k as f64);
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let raw = &raw[(conn_id + k) % 2];
                let sent_at = Instant::now();
                let outcome = match mode {
                    Mode::ThreadPerConn => oneshot_request(addr, raw),
                    Mode::Pooled => {
                        if persistent.is_none() {
                            persistent = connect(addr).ok();
                        }
                        match persistent.as_mut() {
                            Some((stream, reader)) => stream
                                .write_all(raw)
                                .and_then(|()| read_keep_alive_response(reader))
                                .inspect_err(|_| persistent = None),
                            None => Err(std::io::ErrorKind::ConnectionRefused.into()),
                        }
                    }
                };
                match outcome {
                    Ok(code) => {
                        let done = Instant::now();
                        samples.push((
                            code,
                            (done - scheduled).as_secs_f64(),
                            (done - sent_at).as_secs_f64(),
                        ));
                    }
                    Err(_) => errors += 1,
                }
            }
            (samples, errors, Instant::now())
        }));
    }

    let mut samples = Vec::new();
    let mut errors = 0usize;
    let mut end = start;
    for c in clients {
        let (s, e, finished) = c.join().expect("client thread");
        samples.extend(s);
        errors += e;
        end = end.max(finished);
    }
    let elapsed = (end - start).as_secs_f64().max(1e-9);
    let ok = samples.iter().filter(|(c, _, _)| *c == 200).count();
    let rejected = samples.iter().filter(|(c, _, _)| *c == 429).count();
    let other = samples.len() - ok - rejected;
    let sorted = |pick: fn(&(u16, f64, f64)) -> f64| -> Vec<f64> {
        let mut lat: Vec<f64> = samples
            .iter()
            .filter(|(c, _, _)| *c == 200)
            .map(pick)
            .collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        lat
    };
    let sched = sorted(|s| s.1);
    let rtt = sorted(|s| s.2);
    let pct = |lat: &[f64], p: f64| -> f64 {
        if lat.is_empty() {
            return f64::NAN;
        }
        let idx = ((lat.len() as f64 * p).ceil() as usize).clamp(1, lat.len()) - 1;
        lat[idx] * 1e3
    };
    PointResult {
        mode: mode.name(),
        conns: point.conns,
        offered: point.offered,
        sent: point.conns * requests_per_conn,
        ok,
        rejected,
        errors: errors + other,
        elapsed_s: elapsed,
        goodput: ok as f64 / elapsed,
        p50_ms: pct(&sched, 0.50),
        p99_ms: pct(&sched, 0.99),
        p999_ms: pct(&sched, 0.999),
        rtt_p50_ms: pct(&rtt, 0.50),
        rtt_p99_ms: pct(&rtt, 0.99),
    }
}

/// Fresh gateway + server per mode so per-mode metrics and container
/// state never bleed across runs.
fn start_server(mode: Mode, serving: ServingConfig) -> (Arc<Gateway>, HttpServer) {
    let gw = Arc::new(
        Gateway::builder(GatewayConfig {
            nodes: 2,
            capacity_per_node: 4,
            idle_threshold: 0.0,
            // The paper's 10-minute window: effectively "never evict"
            // at this benchmark's seconds-long timescale.
            keep_alive: optimus_sim::DEFAULT_KEEP_ALIVE_S,
            store: None,
            faults: None,
            serving,
            predict: None,
        })
        .metrics(Arc::new(MetricsRegistry::new()))
        .register(tiny("ma", 4))
        .register(tiny("mb", 4))
        .spawn(),
    );
    let server = HttpServer::serve_with(
        gw.clone(),
        0,
        HttpConfig {
            mode: mode.frontend(),
            ..HttpConfig::default()
        },
    )
    .expect("binds an ephemeral port");
    (gw, server)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let small = args.iter().any(|a| a == "--small");
    let default_duration = if small { 0.5 } else { 1.0 };
    let duration: f64 = arg(&args, "--duration", default_duration);
    // The trajectory ramps connections and offered rate together; the
    // final point offers more than either front end can serve, which is
    // where admission control must take over. Totals are sized so the
    // close-per-request baseline stays inside the ephemeral-port budget
    // (every `Connection: close` request burns a TIME_WAIT tuple —
    // itself part of why the thread-per-connection design collapses).
    let trajectory: Vec<Point> = if small {
        vec![
            Point {
                conns: 2,
                offered: 200.0,
            },
            Point {
                conns: 4,
                offered: 800.0,
            },
            Point {
                conns: 8,
                offered: 2_400.0,
            },
        ]
    } else {
        vec![
            Point {
                conns: 4,
                offered: 400.0,
            },
            Point {
                conns: 8,
                offered: 800.0,
            },
            Point {
                conns: 16,
                offered: 2_400.0,
            },
            Point {
                conns: 48,
                offered: 6_400.0,
            },
            Point {
                conns: 160,
                offered: 9_600.0,
            },
        ]
    };
    // A shallow queue makes the backpressure visible at the overload
    // point: concurrent requests at the top of the trajectory far exceed
    // 2 nodes × (queue depth + batch in service), so the excess must
    // come back as 429 instead of queueing into the tail.
    let serving = ServingConfig {
        queue_depth: 4,
        max_batch: 8,
    };

    let mut results: Vec<PointResult> = Vec::new();
    for mode in Mode::ALL {
        let (gw, server) = start_server(mode, serving);
        let addr = server.addr();
        // One warmup request per model: container cold starts happen
        // here, not inside a measured point.
        for model in ["ma", "mb"] {
            let code = oneshot_request(addr, &infer_request(model, false)).expect("warmup");
            assert_eq!(code, 200, "warmup request for {model} failed");
        }
        for &point in &trajectory {
            results.push(run_point(addr, mode, point, duration));
            // Let queues drain between points.
            std::thread::sleep(Duration::from_millis(200));
        }
        server.shutdown();
        drop(gw);
    }

    let fmt_ms = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.2}")
        }
    };
    print_table(
        &[
            "mode",
            "conns",
            "offered/s",
            "sent",
            "ok",
            "429",
            "err",
            "goodput/s",
            "p50 ms",
            "p99 ms",
            "p999 ms",
            "rtt p99 ms",
        ],
        &results
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    r.conns.to_string(),
                    format!("{:.0}", r.offered),
                    r.sent.to_string(),
                    r.ok.to_string(),
                    r.rejected.to_string(),
                    r.errors.to_string(),
                    format!("{:.0}", r.goodput),
                    fmt_ms(r.p50_ms),
                    fmt_ms(r.p99_ms),
                    fmt_ms(r.p999_ms),
                    fmt_ms(r.rtt_p99_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // ── Machine checks ──────────────────────────────────────────────────
    for r in &results {
        assert_eq!(
            r.sent,
            r.ok + r.rejected + r.errors,
            "{} at {} conns / {:.0} rps: requests leaked from the bookkeeping",
            r.mode,
            r.conns,
            r.offered
        );
        assert!(
            r.ok > 0,
            "{} at {} conns / {:.0} rps served nothing",
            r.mode,
            r.conns,
            r.offered
        );
    }
    for r in results.iter().filter(|r| r.mode == "pooled") {
        assert_eq!(
            r.errors, 0,
            "pooled front end dropped {} requests at {} conns / {:.0} rps: \
             persistent connections must never be dropped",
            r.errors, r.conns, r.offered
        );
    }

    // The comparison point is the top of the trajectory: the offered
    // load exceeds what either front end can serve, so goodput there is
    // each design's sustained capacity under overload.
    let at_overload = |mode: &str| {
        results
            .iter()
            .rfind(|r| r.mode == mode)
            .expect("trajectory is non-empty")
            .clone()
    };
    let baseline_over = at_overload("thread-per-conn");
    let overload = at_overload("pooled");
    let ratio = overload.goodput / baseline_over.goodput;
    println!(
        "\nat overload ({} conns, {:.0} offered/s):",
        overload.conns, overload.offered
    );
    println!(
        "  thread-per-conn: {:.0} req/s, p99 {:.0} ms, rtt p99 {:.0} ms",
        baseline_over.goodput, baseline_over.p99_ms, baseline_over.rtt_p99_ms
    );
    println!(
        "  pooled:          {:.0} req/s, p99 {:.0} ms, rtt p99 {:.0} ms, {} rejected — {ratio:.1}x goodput",
        overload.goodput, overload.p99_ms, overload.rtt_p99_ms, overload.rejected
    );
    if !small {
        // Backpressure: the pooled core must shed the excess with 429
        // and keep the on-wire tail of admitted requests bounded — the
        // queues cannot grow without bound. (The scheduled-time p99
        // grows at overload for *any* front end: that is the open-loop
        // generator's own debt, not server queueing.)
        assert!(
            overload.rejected > 0,
            "the overload point ({} conns / {:.0} rps offered, {:.0} served) never \
             tripped admission control",
            overload.conns,
            overload.offered,
            overload.goodput
        );
        assert!(
            overload.rtt_p99_ms < 500.0,
            "pooled on-wire p99 at overload is {:.1} ms: bounded queues must keep \
             the admitted tail flat",
            overload.rtt_p99_ms
        );
        // Goodput: ≥ 5× the thread-per-connection baseline at equal (in
        // fact strictly better) p99 — the baseline's tail at the same
        // point is its collapse, the pooled tail is its admission knee.
        assert!(
            ratio >= 5.0,
            "pooled goodput at overload is only {ratio:.1}x the thread-per-conn \
             baseline (pooled {:.0} vs baseline {:.0} req/s)",
            overload.goodput,
            baseline_over.goodput
        );
        assert!(
            overload.p99_ms <= baseline_over.p99_ms
                && overload.rtt_p99_ms <= baseline_over.rtt_p99_ms,
            "the goodput win must come at equal-or-better p99 \
             (pooled {:.0}/{:.0} ms vs baseline {:.0}/{:.0} ms scheduled/on-wire)",
            overload.p99_ms,
            overload.rtt_p99_ms,
            baseline_over.p99_ms,
            baseline_over.rtt_p99_ms
        );
    }

    // Repeatability (full run): rerun the pooled overload point once on
    // a fresh server; wall-clock percentiles are noisy, but goodput at a
    // fixed open-loop schedule must reproduce within a generous noise
    // bound.
    let repeat = if small {
        None
    } else {
        let (gw, server) = start_server(Mode::Pooled, serving);
        for model in ["ma", "mb"] {
            let _ = oneshot_request(server.addr(), &infer_request(model, false));
        }
        let r = run_point(
            server.addr(),
            Mode::Pooled,
            Point {
                conns: overload.conns,
                offered: overload.offered,
            },
            duration,
        );
        server.shutdown();
        drop(gw);
        let lo = overload.goodput.min(r.goodput);
        let hi = overload.goodput.max(r.goodput);
        assert!(
            hi / lo < 2.0,
            "pooled goodput did not reproduce: {:.0} vs {:.0} req/s on rerun",
            overload.goodput,
            r.goodput
        );
        println!(
            "repeat of the pooled overload point: {:.0} req/s, rtt p99 {:.2} ms",
            r.goodput, r.rtt_p99_ms
        );
        Some(r)
    };

    let point_json = |r: &PointResult| {
        serde_json::json!({
            "mode": r.mode,
            "conns": r.conns,
            "offered_rps": r.offered,
            "sent": r.sent,
            "ok": r.ok,
            "rejected_429": r.rejected,
            "errors": r.errors,
            "elapsed_s": r.elapsed_s,
            "goodput_rps": r.goodput,
            "p50_ms": r.p50_ms,
            "p99_ms": r.p99_ms,
            "p999_ms": r.p999_ms,
            "rtt_p50_ms": r.rtt_p50_ms,
            "rtt_p99_ms": r.rtt_p99_ms,
        })
    };
    save_results(
        if small {
            "bench_serve_small"
        } else {
            "bench_serve"
        },
        &serde_json::json!({
            "config": if small { "small" } else { "full" },
            "duration_s": duration,
            "serving": {
                "queue_depth": serving.queue_depth,
                "max_batch": serving.max_batch,
            },
            "trajectory": results.iter().map(point_json).collect::<Vec<_>>(),
            "comparison_at_overload": {
                "conns": overload.conns,
                "offered_rps": overload.offered,
                "baseline_goodput_rps": baseline_over.goodput,
                "baseline_p99_ms": baseline_over.p99_ms,
                "baseline_rtt_p99_ms": baseline_over.rtt_p99_ms,
                "pooled_goodput_rps": overload.goodput,
                "pooled_p99_ms": overload.p99_ms,
                "pooled_rtt_p99_ms": overload.rtt_p99_ms,
                "pooled_rejected_429": overload.rejected,
                "goodput_ratio": ratio,
            },
            "repeat": repeat.as_ref().map(point_json),
        }),
    );
    println!("\nall serve-scale checks passed");
}
