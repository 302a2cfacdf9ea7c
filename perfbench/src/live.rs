//! The live workloads: `serve_warm` and `serve_churn` drive the real
//! gateway over HTTP with an open-loop, keep-alive load generator in
//! this process.
//!
//! The server runs with the library defaults (`GatewayConfig::default()`,
//! `HttpConfig::default()`); only the catalog and the traffic differ
//! between the two workloads.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_core::{execute_plan, GroupPlanner, ModelRepository, TransformDecision};
use optimus_model::tensor::Tensor;
use optimus_model::{infer, Activation, GraphBuilder, ModelGraph};
use optimus_profile::CostModel;
use optimus_serve::parser::{parse_request, ParserLimits};
use optimus_serve::{Gateway, GatewayConfig, HttpConfig, HttpServer, MetricsRegistry};

use crate::spans::Recorder;
use crate::stats::{self, Outcome};
use crate::traffic::{self, Popularity, Request};
use crate::RunResult;

/// The two live workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    Warm,
    Churn,
}

/// Distinct seeded inputs per model.
const INPUTS_PER_MODEL: usize = 4;
/// Output values the server echoes back in each reply.
const PREVIEW: usize = 16;
/// Whole set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Scheduled-to-actual send gap above which the generator counts as
/// behind its schedule.
const LAG_LIMIT_S: f64 = 0.001;
/// Wall-clock each in-process layer probe repeats for.
const PROBE_S: f64 = 0.25;
/// Time the client threads get to connect before the first send.
const WINDOW_LEAD: Duration = Duration::from_millis(20);
/// Requests timed through `Gateway::submit` in the traced run.
const SUBMITS: usize = 200;

impl Live {
    fn name(self) -> &'static str {
        match self {
            Live::Warm => "serve_warm",
            Live::Churn => "serve_churn",
        }
    }

    /// Offered load (requests/s). Both rates sit below the knee of their
    /// catalog on a 2-core host, so the queue stays bounded.
    fn rate(self) -> f64 {
        match self {
            Live::Warm => 400.0,
            Live::Churn => 200.0,
        }
    }

    /// Latency limit of `slo_attainment` (s).
    fn slo_s(self) -> f64 {
        match self {
            Live::Warm => 0.025,
            Live::Churn => 0.050,
        }
    }

    /// Input shape of every catalog model. The churn models take a
    /// smaller image so a forward pass costs about what acquiring a
    /// container does.
    fn input_shape(self) -> [usize; 4] {
        match self {
            Live::Warm => [1, 3, 8, 8],
            Live::Churn => [1, 3, 4, 4],
        }
    }

    fn popularity(self) -> Popularity {
        match self {
            Live::Warm => Popularity::Alternate,
            Live::Churn => Popularity::Zipf {
                n: CHURN_DEPTHS.len() * CHURN_WIDTHS.len(),
                s: 1.0,
            },
        }
    }

    /// The catalog the gateway registers.
    fn catalog(self) -> Vec<ModelGraph> {
        match self {
            Live::Warm => vec![
                cnn("warm-a", self.input_shape(), 1, 4),
                cnn("warm-b", self.input_shape(), 1, 8),
            ],
            Live::Churn => CHURN_DEPTHS
                .iter()
                .flat_map(|&d| CHURN_WIDTHS.iter().map(move |&w| (d, w)))
                .map(|(d, w)| cnn(&format!("churn-d{d}-w{w}"), self.input_shape(), d, w))
                .collect(),
        }
    }
}

/// `serve_churn` catalog: 3 depths × 8 widths = 24 structurally related
/// CNNs, three times the 2 × 4 container slots of the default gateway.
const CHURN_DEPTHS: [usize; 3] = [1, 2, 3];
const CHURN_WIDTHS: [usize; 8] = [4, 6, 8, 10, 12, 14, 16, 18];

/// A small CNN: `depth` 3×3 conv + ReLU layers of `width` channels,
/// global pooling and a 4-logit head. The small head keeps reply JSON
/// short.
fn cnn(name: &str, input: [usize; 4], depth: usize, width: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let mut x = b.input(input);
    let mut ch = input[1];
    for _ in 0..depth {
        x = b.conv2d_after(x, ch, width, (3, 3), (1, 1), 1);
        x = b.activation_after(x, Activation::Relu);
        ch = width;
    }
    let x = b.global_avg_pool_after(x);
    let x = b.flatten_after(x);
    let _ = b.dense_after(x, width, 4);
    b.finish().expect("catalog model is well formed")
}

/// What `infer::run` on the registered model answers for one input.
struct Expected {
    shape: Vec<usize>,
    preview: Vec<f32>,
}

/// Everything the client sends and checks, made from the seed.
struct Inputs {
    names: Vec<String>,
    schedule: Vec<Request>,
    /// Request bytes per `[model][variant]`.
    raw: Vec<Vec<Vec<u8>>>,
    tensors: Vec<Vec<Tensor>>,
    expected: Vec<Vec<Expected>>,
}

fn make_inputs(live: Live, seed: u64, seconds: f64, catalog: &[ModelGraph]) -> Inputs {
    let shape = live.input_shape();
    let numel: usize = shape.iter().product();
    let schedule = traffic::live_schedule(
        seed,
        live.rate(),
        seconds,
        live.popularity(),
        INPUTS_PER_MODEL,
    );
    let names: Vec<String> = catalog.iter().map(|m| m.name().to_string()).collect();
    let mut raw = Vec::new();
    let mut tensors = Vec::new();
    let mut expected = Vec::new();
    for (m, model) in catalog.iter().enumerate() {
        let mut raw_m = Vec::new();
        let mut tensors_m = Vec::new();
        let mut expected_m = Vec::new();
        for v in 0..INPUTS_PER_MODEL {
            let values = traffic::input_values(seed, m, v, numel);
            let data: Vec<String> = values.iter().map(|x| x.to_string()).collect();
            let body = format!(
                r#"{{"model":"{}","shape":{:?},"data":[{}]}}"#,
                names[m],
                shape,
                data.join(",")
            );
            raw_m.push(
                format!(
                    "POST /infer HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes(),
            );
            let tensor = Tensor::new(shape, values);
            let out = infer::run(model, tensor.clone()).expect("catalog model runs");
            expected_m.push(Expected {
                shape: out.shape().dims().to_vec(),
                preview: out.data().iter().copied().take(PREVIEW).collect(),
            });
            tensors_m.push(tensor);
        }
        raw.push(raw_m);
        tensors.push(tensors_m);
        expected.push(expected_m);
    }
    Inputs {
        names,
        schedule,
        raw,
        tensors,
        expected,
    }
}

/// Wall-clock of one set-up and its parts (s).
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total: f64,
    catalog: f64,
    register_all: f64,
    spawn: f64,
    warmup: f64,
}

/// A running gateway behind its HTTP front end.
struct Instance {
    gateway: Arc<Gateway>,
    server: HttpServer,
}

impl Instance {
    fn stop(self) {
        drop(self.server);
        if let Ok(gw) = Arc::try_unwrap(self.gateway) {
            gw.shutdown();
        }
    }
}

/// Build the catalog, register it (planning every pair), spawn the
/// gateway and front end, and serve each model one request so the run
/// starts with every model seen once.
fn set_up(live: Live, inputs: &Inputs, problems: &mut Vec<String>) -> (Instance, SetupTimes) {
    let t0 = Instant::now();
    let catalog = live.catalog();
    let catalog_s = t0.elapsed().as_secs_f64();
    let builder =
        Gateway::builder(GatewayConfig::default()).metrics(Arc::new(MetricsRegistry::new()));
    let t1 = Instant::now();
    let builder = builder.register_all(catalog);
    let register_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let gateway = Arc::new(builder.spawn());
    let server = HttpServer::serve_with(gateway.clone(), 0, HttpConfig::default())
        .expect("binds an ephemeral port");
    let spawn_s = t2.elapsed().as_secs_f64();
    // Warm-up goes through the gateway in-process: over HTTP it would
    // also time one client round trip per model.
    let t3 = Instant::now();
    for (m, name) in inputs.names.iter().enumerate() {
        let want = &inputs.expected[m][0];
        match gateway.infer(name, inputs.tensors[m][0].clone()) {
            Ok(r)
                if r.output.shape().dims() == want.shape.as_slice()
                    && r.output.data().iter().take(PREVIEW).eq(want.preview.iter()) => {}
            other => problems.push(format!(
                "warm-up of {name} disagrees with infer::run: {:?}",
                other.map(|r| r.output.shape().dims().to_vec())
            )),
        }
    }
    let warmup_s = t3.elapsed().as_secs_f64();
    let times = SetupTimes {
        total: t0.elapsed().as_secs_f64(),
        catalog: catalog_s,
        register_all: register_s,
        spawn: spawn_s,
        warmup: warmup_s,
    };
    (Instance { gateway, server }, times)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Read one HTTP/1.1 response off a keep-alive connection.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let code = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(std::io::ErrorKind::InvalidData)?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|b| (code, b))
        .map_err(|_| std::io::ErrorKind::InvalidData.into())
}

/// One GET on a fresh connection; the body of a `200`.
fn get(addr: SocketAddr, path: &str) -> Option<String> {
    let (mut stream, mut reader) = connect(addr).ok()?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .ok()?;
    match read_response(&mut reader) {
        Ok((200, body)) => Some(body),
        _ => None,
    }
}

/// Durations the server reports in a `200` reply (s).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ServerTimes {
    wait: f64,
    startup: f64,
    compute: f64,
}

fn server_times(reply: &serde_json::Value) -> Option<ServerTimes> {
    Some(ServerTimes {
        wait: reply["wait_seconds"].as_f64()?,
        startup: reply["startup_seconds"].as_f64()?,
        compute: reply["compute_seconds"].as_f64()?,
    })
}

/// One scheduled request as the client saw it. Offsets are seconds from
/// the start of the window.
struct Sample {
    request: Request,
    scheduled: f64,
    sent: f64,
    done: f64,
    /// Part of the send lag the client caused: the gap between the later
    /// of the due time and the previous reply on this connection, and the
    /// actual send.
    client_lag: f64,
    /// `None` for a transport error.
    status: Option<u16>,
    body: String,
    /// Server durations, parsed while the window runs (traced run only).
    traced: Option<ServerTimes>,
}

/// Send `schedule` open loop from `threads` client threads, each owning
/// one keep-alive connection and every `threads`-th request. Every
/// request is timed from its scheduled send, so a reply that delays the
/// next send on its connection is charged to the requests it delayed.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    threads: usize,
    start: Instant,
    traced: bool,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = connect(addr).ok();
                    let mut prev_done = start;
                    for request in inputs.schedule.iter().skip(j).step_by(threads) {
                        let due = start + request.at;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        if conn.is_none() {
                            conn = connect(addr).ok();
                        }
                        let sent = Instant::now();
                        let reply = match conn.as_mut() {
                            Some((stream, reader)) => stream
                                .write_all(&inputs.raw[request.model][request.input])
                                .and_then(|()| read_response(reader)),
                            None => Err(std::io::ErrorKind::ConnectionRefused.into()),
                        };
                        let done = Instant::now();
                        let client_lag = sent
                            .saturating_duration_since(due.max(prev_done))
                            .as_secs_f64();
                        prev_done = done;
                        let (status, body) = match reply {
                            Ok((code, body)) => (Some(code), body),
                            Err(_) => {
                                conn = None;
                                (None, String::new())
                            }
                        };
                        let traced = if traced && status == Some(200) {
                            serde_json::from_str(&body)
                                .ok()
                                .and_then(|v| server_times(&v))
                        } else {
                            None
                        };
                        let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
                        out.push(Sample {
                            request: *request,
                            scheduled: request.at.as_secs_f64(),
                            sent: at(sent),
                            done: at(done),
                            client_lag,
                            status,
                            body,
                            traced,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    samples.sort_by(|a, b| a.scheduled.total_cmp(&b.scheduled));
    samples
}

/// A `200` reply, parsed and checked.
struct Served {
    scheduled: f64,
    latency: f64,
    lag: f64,
    round_trip: f64,
    times: ServerTimes,
    start: String,
    batch_size: f64,
}

/// Everything one measurement window yields.
struct Window {
    sent: usize,
    rejected: usize,
    errored: usize,
    outcomes: Vec<Outcome>,
    served: Vec<Served>,
    /// Scheduled-to-actual send gap of every request (s).
    lags: Vec<f64>,
    /// The part of each gap the client caused (s).
    client_lags: Vec<f64>,
    elapsed: f64,
}

/// Parse and check every reply against `infer::run` on the registered
/// model; count outcomes.
fn check_window(samples: &[Sample], inputs: &Inputs, problems: &mut Vec<String>) -> Window {
    let mut w = Window {
        sent: samples.len(),
        rejected: 0,
        errored: 0,
        outcomes: Vec::with_capacity(samples.len()),
        served: Vec::new(),
        lags: samples.iter().map(|s| s.sent - s.scheduled).collect(),
        client_lags: samples.iter().map(|s| s.client_lag).collect(),
        elapsed: samples.iter().map(|s| s.done).fold(0.0, f64::max),
    };
    let mut mismatches = 0usize;
    for s in samples {
        let outcome = match s.status {
            Some(200) => match check_reply(s, inputs) {
                Ok(served) => {
                    let latency = served.latency;
                    w.served.push(served);
                    Outcome::Ok(latency)
                }
                Err(why) => {
                    mismatches += 1;
                    if mismatches <= 3 {
                        problems.push(format!("request {:?}: {why}", s.request));
                    }
                    Outcome::Errored
                }
            },
            Some(429) => Outcome::Rejected,
            _ => Outcome::Errored,
        };
        match outcome {
            Outcome::Rejected => w.rejected += 1,
            Outcome::Errored => w.errored += 1,
            Outcome::Ok(_) => {}
        }
        w.outcomes.push(outcome);
    }
    if mismatches > 0 {
        problems.push(format!("{mismatches} replies disagree with infer::run"));
    }
    if w.sent != w.served.len() + w.rejected + w.errored {
        problems.push(format!(
            "bookkeeping: sent {} != ok {} + rejected {} + errored {}",
            w.sent,
            w.served.len(),
            w.rejected,
            w.errored
        ));
    }
    w
}

fn check_reply(s: &Sample, inputs: &Inputs) -> Result<Served, String> {
    let reply: serde_json::Value =
        serde_json::from_str(&s.body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let Request { model, input, .. } = s.request;
    let want = &inputs.expected[model][input];
    if reply["model"].as_str() != Some(inputs.names[model].as_str()) {
        return Err(format!("reply names model {}", reply["model"]));
    }
    let shape: Option<Vec<usize>> = reply["output_shape"]
        .as_array()
        .and_then(|a| a.iter().map(|d| d.as_u64().map(|d| d as usize)).collect());
    if shape.as_deref() != Some(want.shape.as_slice()) {
        return Err(format!(
            "output_shape {} != {:?}",
            reply["output_shape"], want.shape
        ));
    }
    let preview: Option<Vec<f32>> = reply["output"]
        .as_array()
        .and_then(|a| a.iter().map(|v| v.as_f64().map(|v| v as f32)).collect());
    if preview.as_deref() != Some(want.preview.as_slice()) {
        return Err(format!("output {} != {:?}", reply["output"], want.preview));
    }
    let times = server_times(&reply).ok_or("reply lacks server durations")?;
    Ok(Served {
        scheduled: s.scheduled,
        latency: s.done - s.scheduled,
        lag: s.sent - s.scheduled,
        round_trip: s.done - s.sent,
        times,
        start: reply["start"].as_str().unwrap_or("").to_string(),
        batch_size: reply["batch_size"].as_f64().unwrap_or(0.0),
    })
}

/// End-to-end figures of one window.
struct Summary {
    /// Lowest slice mean latency and the slice count (s).
    mean: Option<(f64, usize)>,
    slo: f64,
    throughput: f64,
    lag_p99_ms: Option<f64>,
    client_lag_p99_ms: Option<f64>,
}

/// Successful requests per slice of `latency_mean_ms`.
const SLICE: usize = 50;

fn summarize(live: Live, w: &Window) -> Summary {
    let latencies: Vec<f64> = w.served.iter().map(|s| s.latency).collect();
    let lag_p99 = |v: &[f64]| stats::percentile(&stats::sorted(v.to_vec()), 99.0).map(|x| x * 1e3);
    Summary {
        mean: stats::lowest_slice_mean(&latencies, SLICE),
        slo: stats::slo_attainment(&w.outcomes, live.slo_s()),
        throughput: w.served.len() as f64 / w.elapsed.max(1e-9),
        lag_p99_ms: lag_p99(&w.lags),
        client_lag_p99_ms: lag_p99(&w.client_lags),
    }
}

/// Client threads: at most one per core, and never more than two.
fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Run a live workload.
pub fn run(live: Live, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut result = RunResult::default();
    let mut rec = Recorder::new();
    let gen_t0 = Instant::now();
    let inputs = make_inputs(live, seed, seconds, &live.catalog());
    let generate_s = gen_t0.elapsed().as_secs_f64();
    rec.record("workload.generate", None, 0.0, generate_s);

    // Set up SETUPS times; the last instance serves the untraced window.
    let mut setups = Vec::new();
    let mut instance = None;
    for _ in 0..SETUPS {
        if let Some(old) = instance.take() {
            Instance::stop(old);
        }
        let (inst, times) = set_up(live, &inputs, &mut result.problems);
        setups.push(times);
        instance = Some(inst);
    }
    let instance = instance.expect("at least one set-up");
    let threads = client_threads();
    let start = Instant::now() + WINDOW_LEAD;
    let samples = drive(instance.server.addr(), &inputs, threads, start, false);
    let window = check_window(&samples, &inputs, &mut result.problems);
    let untraced = summarize(live, &window);
    result.attempted += window.sent as u64;
    result.failed += (window.rejected + window.errored) as u64;
    result.samples.insert("latency".into(), window.served.len());
    result.samples.insert("setups".into(), setups.len());
    note_lag(live, &untraced, &mut result);
    instance.stop();

    let setup_s = stats::median(&setups.iter().map(|s| s.total).collect::<Vec<_>>());
    if !trace {
        let Some((mean, slices)) = untraced.mean else {
            result.problems.push(format!(
                "{} successful requests fill no {SLICE}-request slice",
                window.served.len()
            ));
            return result;
        };
        result.samples.insert("latency_slices".into(), slices);
        result.metric("latency_mean_ms", mean * 1e3, "ms");
        result.metric("slo_attainment", untraced.slo, "share");
        result.metric("throughput_per_s", untraced.throughput, "1/s");
        result.metric("setup_s", setup_s, "s");
        return result;
    }

    // Traced run: a fresh instance, the same schedule, spans recorded.
    let t0 = Instant::now();
    let (instance, times) = set_up(live, &inputs, &mut result.problems);
    let base = rec.offset(t0);
    let setup_span = rec.record("setup", None, base, times.total);
    let mut at = base;
    for (name, d) in [
        ("setup.catalog", times.catalog),
        ("setup.register_all", times.register_all),
        ("setup.spawn", times.spawn),
        ("setup.warmup", times.warmup),
    ] {
        rec.record(name, Some(setup_span), at, d);
        at += d;
    }
    let start = Instant::now() + WINDOW_LEAD;
    let window_t0 = rec.offset(start);
    let samples = drive(instance.server.addr(), &inputs, threads, start, true);
    let traced_window = check_window(&samples, &inputs, &mut result.problems);
    let traced = summarize(live, &traced_window);
    result.attempted += traced_window.sent as u64;
    result.failed += (traced_window.rejected + traced_window.errored) as u64;
    result
        .samples
        .insert("traced_latency".into(), traced_window.served.len());
    note_lag(live, &traced, &mut result);
    if samples
        .iter()
        .any(|s| s.status == Some(200) && s.traced.is_none())
    {
        result
            .problems
            .push("a traced 200 reply lacked server durations".into());
    }
    record_request_spans(&mut rec, window_t0, &traced_window);
    layer_split(&traced_window, &mut result);

    let served = &traced_window.served;
    let frontend = stats::sorted(
        served
            .iter()
            .map(|s| {
                stats::frontend_remainder(
                    s.round_trip,
                    s.times.wait,
                    s.times.startup,
                    s.times.compute,
                )
            })
            .collect(),
    );
    if frontend.first().is_some_and(|&f| f < -1e-6) {
        result.problems.push(format!(
            "server-reported time exceeds the client round trip by {:.3} ms",
            -frontend[0] * 1e3
        ));
    }
    let wait = stats::sorted(served.iter().map(|s| s.times.wait).collect());
    let pct_ms = |v: &[f64], p: f64| stats::percentile(v, p).map_or(0.0, |x| x * 1e3);
    result.metric("http.frontend_ms.p50", pct_ms(&frontend, 50.0), "ms");
    result.metric("http.frontend_ms.p99", pct_ms(&frontend, 99.0), "ms");
    result.metric("worker.wait_ms.p50", pct_ms(&wait, 50.0), "ms");
    result.metric("worker.wait_ms.p99", pct_ms(&wait, 99.0), "ms");
    result.metric(
        "worker.batch_size.mean",
        stats::mean(&served.iter().map(|s| s.batch_size).collect::<Vec<_>>()),
        "count",
    );
    for kind in ["transformed", "cold"] {
        let startups: Vec<f64> = served
            .iter()
            .filter(|s| s.start == kind)
            .map(|s| s.times.startup * 1e3)
            .collect();
        result.metric(
            &format!("worker.startup_ms.{kind}"),
            stats::mean(&startups),
            "ms",
        );
    }
    for kind in ["warm", "transformed", "cold"] {
        let n = served.iter().filter(|s| s.start == kind).count();
        result.metric(
            &format!("worker.start_share.{kind}"),
            n as f64 / served.len().max(1) as f64,
            "share",
        );
    }
    result.metric(
        "worker.compute_ms",
        stats::mean(
            &served
                .iter()
                .map(|s| s.times.compute * 1e3)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    result.metric("gen.lag_p99_ms", traced.lag_p99_ms.unwrap_or(0.0), "ms");
    let mean_ms = |s: &Summary| s.mean.map_or(0.0, |(m, _)| m * 1e3);
    result.metric(
        "trace.overhead_ms",
        mean_ms(&traced) - mean_ms(&untraced),
        "ms",
    );

    // Server-side counters, read before the in-process probes add to them.
    let addr = instance.server.addr();
    let prom = get(addr, "/metrics").unwrap_or_default();
    let store = get(addr, "/store").unwrap_or_default();
    if prom.is_empty() {
        result.problems.push("GET /metrics failed".into());
    }
    let rejected = prom_sum(&prom, "optimus_serve_rejected_total", None);
    result.metric(
        "gateway.rejected_share",
        rejected / traced_window.sent.max(1) as f64,
        "share",
    );
    let hit = prom_sum(&prom, "optimus_plan_cache_total", Some("result=\"hit\""));
    let decided = prom_sum(&prom, "optimus_plan_cache_total", None);
    result.metric(
        "cache.plan_hit_share",
        if decided > 0.0 { hit / decided } else { 0.0 },
        "share",
    );
    result.metric(
        "cache.planner_invocations",
        prom_sum(&prom, "optimus_planning_seconds_count", None),
        "count",
    );
    result.metric(
        "cache.register_all_s",
        stats::median(&setups.iter().map(|s| s.register_all).collect::<Vec<_>>()),
        "s",
    );
    result.metric("workload.generate_s", generate_s, "s");
    if let Ok(store) = serde_json::from_str::<serde_json::Value>(&store) {
        let hits = store["total"]["hits"].as_f64().unwrap_or(0.0);
        let misses = store["total"]["misses"].as_f64().unwrap_or(0.0);
        if hits + misses > 0.0 {
            result.metric("store.chunk_hit_ratio", hits / (hits + misses), "share");
        }
    }

    probe_parser(&mut rec, &inputs, &mut result);
    probe_submit(&mut rec, &instance.gateway, &inputs, &mut result);
    instance.stop();
    let catalog = live.catalog();
    probe_infer(&mut rec, &catalog, &inputs, &mut result);
    probe_plans(&mut rec, catalog, &mut result);
    result.recorder = Some(rec);
    result
}

/// Record a generator that fell behind its schedule through its own
/// fault. A send delayed by the previous reply on its connection is the
/// server's delay, and the request's latency (timed from its due time)
/// already carries it.
fn note_lag(live: Live, s: &Summary, result: &mut RunResult) {
    if let Some(lag) = s.client_lag_p99_ms.filter(|&l| l > LAG_LIMIT_S * 1e3) {
        result.notes.push(format!(
            "{}: generator behind schedule: client-caused send lag p99 {lag:.3} ms > {:.3} ms",
            live.name(),
            LAG_LIMIT_S * 1e3
        ));
    }
}

/// Spans of every traced request: the request from its scheduled send
/// to the full reply, split into the generator's lag, the round trip,
/// and inside the round trip the worker's wait, startup and compute as
/// the server reports them. Only their durations are measured, so the
/// worker spans are laid out back to back from the send.
fn record_request_spans(rec: &mut Recorder, t0: f64, w: &Window) {
    for s in &w.served {
        let start = t0 + s.scheduled;
        let root = rec.record("request", None, start, s.latency);
        rec.record("gen.lag", Some(root), start, s.lag);
        let rtt = rec.record("http.round_trip", Some(root), start + s.lag, s.round_trip);
        let mut at = start + s.lag;
        for (name, d) in [
            ("worker.wait", s.times.wait),
            ("worker.startup", s.times.startup),
            ("worker.compute", s.times.compute),
        ] {
            rec.record(name, Some(rtt), at, d);
            at += d;
        }
    }
}

/// Layer split of the requests at the p50 and p99 latency ranks: the
/// generator lag, the front end, and the worker's wait, startup and
/// compute, which add up to that request's latency.
fn layer_split(w: &Window, result: &mut RunResult) {
    let mut order: Vec<&Served> = w.served.iter().collect();
    order.sort_by(|a, b| a.latency.total_cmp(&b.latency));
    for (p, label) in [(50.0, "p50"), (99.0, "p99")] {
        let Some(rank) = stats::percentile_rank(order.len(), p) else {
            result
                .problems
                .push(format!("too few traced requests for a {label} split"));
            continue;
        };
        let s = order[rank];
        let frontend =
            stats::frontend_remainder(s.round_trip, s.times.wait, s.times.startup, s.times.compute);
        let layers = [
            ("gen_lag_ms", s.lag),
            ("frontend_ms", frontend),
            ("wait_ms", s.times.wait),
            ("startup_ms", s.times.startup),
            ("compute_ms", s.times.compute),
        ];
        let sum: f64 = layers.iter().map(|(_, v)| v).sum();
        if (sum - s.latency).abs() > 1e-9 * s.latency.max(1.0) {
            result.problems.push(format!(
                "{label} layers sum to {sum} s, latency is {} s",
                s.latency
            ));
        }
        result.metric(&format!("split.{label}.latency_ms"), s.latency * 1e3, "ms");
        for (name, v) in layers {
            result.metric(&format!("split.{label}.{name}"), v * 1e3, "ms");
        }
    }
}

/// Sum of a Prometheus family's samples, optionally only those whose
/// labels contain `label`.
fn prom_sum(text: &str, family: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let (name, labels) = key.split_once('{').unwrap_or((key, ""));
            (name == family && label.is_none_or(|want| labels.contains(want)))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// Repeat `f` for `budget_s` (at least once); mean seconds per call.
fn repeat_for(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// `parse_request` on the workload's own request bytes.
fn probe_parser(rec: &mut Recorder, inputs: &Inputs, result: &mut RunResult) {
    let limits = ParserLimits::default();
    let all: Vec<&Vec<u8>> = inputs.raw.iter().flatten().collect();
    let per_batch = rec.time("probe.parser", None, || {
        repeat_for(PROBE_S, || {
            for raw in &all {
                black_box(parse_request(black_box(raw), &limits));
            }
        })
    });
    result.metric("parser.parse_ns", per_batch / all.len() as f64 * 1e9, "ns");
}

/// `Gateway::submit` timed in-process on the workload's first requests,
/// each polled to completion before the next.
fn probe_submit(rec: &mut Recorder, gateway: &Gateway, inputs: &Inputs, result: &mut RunResult) {
    let t0 = Instant::now();
    let parent = rec.record("probe.submit", None, rec.offset(t0), 0.0);
    let mut submit_s = Vec::new();
    for r in inputs.schedule.iter().take(SUBMITS) {
        let tensor = inputs.tensors[r.model][r.input].clone();
        let t0 = Instant::now();
        let pending = gateway.submit(&inputs.names[r.model], tensor);
        let took = t0.elapsed().as_secs_f64();
        rec.record("gateway.submit", Some(parent), rec.offset(t0), took);
        let Ok(mut pending) = pending else {
            result.problems.push("in-process submit refused".into());
            continue;
        };
        submit_s.push(took);
        loop {
            match gateway.poll(&mut pending) {
                Some(Ok(_)) => break,
                Some(Err(e)) => {
                    result
                        .problems
                        .push(format!("in-process request failed: {e}"));
                    break;
                }
                None => std::thread::sleep(Duration::from_micros(20)),
            }
        }
    }
    rec.set_duration(parent, t0.elapsed().as_secs_f64());
    let sorted = stats::sorted(submit_s);
    result.metric(
        "gateway.submit_us",
        stats::percentile(&sorted, 50.0).map_or(0.0, |v| v * 1e6),
        "us",
    );
}

/// `infer::run` per catalog model; the mean over models of each one's
/// mean forward pass.
fn probe_infer(
    rec: &mut Recorder,
    catalog: &[ModelGraph],
    inputs: &Inputs,
    result: &mut RunResult,
) {
    let budget = PROBE_S * 4.0 / catalog.len() as f64;
    let per_model: Vec<f64> = catalog
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let input = &inputs.tensors[m][0];
            let t0 = Instant::now();
            let per_call = repeat_for(budget, || {
                black_box(infer::run(model, input.clone()).expect("catalog model runs"));
            });
            rec.record(
                "infer.run",
                None,
                rec.offset(t0),
                t0.elapsed().as_secs_f64(),
            );
            per_call
        })
        .collect();
    result.metric("infer.run_ms", stats::mean(&per_model) * 1e3, "ms");
}

/// Plan-cache decisions and plan execution on the catalog's pairs, in a
/// repository built like the gateway's.
fn probe_plans(rec: &mut Recorder, catalog: Vec<ModelGraph>, result: &mut RunResult) {
    let repo = ModelRepository::new(Box::new(GroupPlanner));
    let graphs = catalog.clone();
    rec.time("probe.register_all", None, || {
        repo.register_all(catalog, &CostModel::default())
    });
    let ids: Vec<_> = graphs
        .iter()
        .map(|g| repo.model_id(g.name()).expect("registered"))
        .collect();
    let pairs: Vec<(usize, usize)> = (0..ids.len())
        .flat_map(|a| (0..ids.len()).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    let per_sweep = rec.time("cache.decide", None, || {
        repeat_for(PROBE_S, || {
            for &(a, b) in &pairs {
                black_box(repo.decide_by_id(ids[a], ids[b]));
            }
        })
    });
    result.metric(
        "cache.decide_ns",
        per_sweep / pairs.len().max(1) as f64 * 1e9,
        "ns",
    );
    let mut exec_s = Vec::new();
    let mut steps = Vec::new();
    for &(a, b) in &pairs {
        let Some(TransformDecision::Transform(plan)) = repo.decide_by_id(ids[a], ids[b]) else {
            continue;
        };
        let mut graph = graphs[a].clone();
        let t0 = Instant::now();
        let report = execute_plan(&mut graph, &plan, &graphs[b]);
        let took = t0.elapsed().as_secs_f64();
        rec.record("executor.execute_plan", None, rec.offset(t0), took);
        match report {
            Ok(r) if r.verified => {
                exec_s.push(took);
                steps.push(r.steps_applied as f64);
            }
            other => result.problems.push(format!(
                "plan {} -> {} did not verify: {other:?}",
                graphs[a].name(),
                graphs[b].name()
            )),
        }
    }
    result.metric("executor.execute_plan_us", stats::mean(&exec_s) * 1e6, "us");
    result.metric("executor.steps", stats::mean(&steps), "count");
}
