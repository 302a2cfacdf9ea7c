//! Tests of the pooled keep-alive HTTP front end: pipelining over one
//! persistent connection, fragmented writes, 431/413 limits, 429
//! admission control with health endpoints that stay responsive under
//! saturation, keep-alive idle close, prompt shutdown, and many
//! back-to-back keep-alive exchanges.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optimus_model::{Activation, GraphBuilder, ModelGraph};
use optimus_serve::{Gateway, GatewayConfig, HttpConfig, HttpServer, ServingConfig};

fn tiny(name: &str, out_ch: usize) -> ModelGraph {
    let mut b = GraphBuilder::new(name);
    let x = b.input([1, 3, 8, 8]);
    let x = b.conv2d_after(x, 3, out_ch, (3, 3), (1, 1), 1);
    let _ = b.activation_after(x, Activation::Relu);
    b.finish().unwrap()
}

fn gateway(serving: ServingConfig) -> Arc<Gateway> {
    Arc::new(
        Gateway::builder(GatewayConfig {
            nodes: 1,
            capacity_per_node: 4,
            idle_threshold: 0.0,
            keep_alive: 60.0,
            store: None,
            faults: None,
            serving,
            predict: None,
        })
        .register(tiny("m1", 4))
        .spawn(),
    )
}

/// Read exactly one HTTP response off a persistent connection: status
/// line, headers (for `Content-Length`), then the body. The reader must
/// be reused across responses so buffered pipelined bytes are not lost.
fn read_response(reader: &mut BufReader<TcpStream>) -> (String, Vec<(String, String)>, String) {
    let mut status = String::new();
    reader.read_line(&mut status).expect("reads status line");
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads header line");
        let line = line.trim_end().to_string();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().expect("numeric content-length");
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("reads body");
    (
        status.trim_end().to_string(),
        headers,
        String::from_utf8(body).expect("utf8 body"),
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn infer_body() -> String {
    r#"{"model":"m1","shape":[1,3,8,8]}"#.to_string()
}

fn post_infer(keep_alive: bool) -> String {
    let body = infer_body();
    format!(
        "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        body
    )
}

/// One `Connection: close` request/response exchange.
fn oneshot(addr: SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("writes");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve(gw, 0).expect("binds");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clones");
    // Three requests in a single write: the server must answer all three
    // on the same connection, in order.
    let pipeline = format!(
        "GET /models HTTP/1.1\r\nHost: t\r\n\r\n{}GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        post_infer(true)
    );
    writer.write_all(pipeline.as_bytes()).expect("writes");

    let mut reader = BufReader::new(stream);
    let (status, headers, body) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    assert!(body.contains("m1"), "models listing: {body}");

    let (status, headers, body) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    let v: serde_json::Value = serde_json::from_str(&body).expect("infer json");
    assert_eq!(v["model"], "m1");
    assert!(v["batch_size"].as_u64().expect("batch size") >= 1);

    let (status, _, body) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // A fourth request after the reads proves the connection is still
    // alive (not half-closed after the pipeline).
    writer
        .write_all(b"GET /models HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("connection still writable");
    let (status, headers, _) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    server.shutdown();
}

#[test]
fn fragmented_writes_parse_into_one_request() {
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve(gw, 0).expect("binds");
    let addr = server.addr();

    let raw = post_infer(false);
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Trickle the request a few bytes at a time across many writes; the
    // incremental parser must reassemble it without misparsing.
    for chunk in raw.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("writes fragment");
        stream.flush().expect("flushes");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"batch_size\""), "{response}");
    server.shutdown();
}

#[test]
fn oversized_headers_get_431_and_oversized_bodies_413() {
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve_with(
        gw,
        0,
        HttpConfig {
            max_header_bytes: 512,
            max_body_bytes: 1024,
            ..HttpConfig::default()
        },
    )
    .expect("binds");
    let addr = server.addr();

    let huge_header = format!(
        "GET /models HTTP/1.1\r\nX-Junk: {}\r\n\r\n",
        "j".repeat(2048)
    );
    let (status, _) = oneshot(addr, &huge_header);
    assert!(status.contains("431"), "{status}");

    // The header alone is rejected: no body bytes are ever sent.
    let huge_body =
        "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: 1048576\r\n\r\n".to_string();
    let (status, _) = oneshot(addr, &huge_body);
    assert!(status.contains("413"), "{status}");

    // The server is still healthy afterwards.
    let (status, _) = oneshot(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    server.shutdown();
}

#[test]
fn saturated_queues_answer_429_and_health_endpoints_stay_responsive() {
    // A single node with a depth-2 queue and no batching: concurrent
    // clients must overflow admission control (429), while /healthz and
    // /metrics keep answering promptly because HTTP workers never block
    // on inference.
    let gw = gateway(ServingConfig {
        queue_depth: 2,
        max_batch: 1,
    });
    let server = HttpServer::serve(gw, 0).expect("binds");
    let addr = server.addr();

    let oks = Arc::new(AtomicUsize::new(0));
    let rejected = Arc::new(AtomicUsize::new(0));
    let mut clients = Vec::new();
    for _ in 0..8 {
        let oks = oks.clone();
        let rejected = rejected.clone();
        clients.push(std::thread::spawn(move || {
            for _ in 0..25 {
                let (status, _) = oneshot(addr, &post_infer(false));
                if status.contains("200") {
                    oks.fetch_add(1, Ordering::Relaxed);
                } else if status.contains("429") {
                    rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    // Health endpoints must answer while the storm is in flight.
    let mut health_checks = 0;
    let storm_deadline = Instant::now() + Duration::from_secs(10);
    while clients.iter().any(|c| !c.is_finished()) && Instant::now() < storm_deadline {
        let t0 = Instant::now();
        let (status, body) = oneshot(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(status.contains("200"), "healthz failed mid-storm: {status}");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "healthz stalled under load: {:?}",
            t0.elapsed()
        );
        health_checks += 1;
    }
    for c in clients {
        c.join().expect("client thread");
    }
    assert!(health_checks > 0, "storm finished before any health check");
    assert!(
        oks.load(Ordering::Relaxed) > 0,
        "some inferences must succeed"
    );
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "a depth-2 queue under 8 concurrent clients must shed load with 429s \
         (got {} oks, {} rejections)",
        oks.load(Ordering::Relaxed),
        rejected.load(Ordering::Relaxed)
    );

    // The admission metrics are exposed for scrapes.
    let (status, metrics) = oneshot(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(status.contains("200"), "{status}");
    assert!(metrics.contains("optimus_serve_queue_depth"), "{metrics}");
    assert!(metrics.contains("optimus_serve_batch_size"), "{metrics}");
    assert!(
        metrics.contains("optimus_serve_rejected_total"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_closed_silently() {
    let idle = Duration::from_millis(200);
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve_with(
        gw,
        0,
        HttpConfig {
            keep_alive_idle: idle,
            ..HttpConfig::default()
        },
    )
    .expect("binds");

    let stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clones");
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("writes");
    let mut reader = BufReader::new(stream);
    let (status, headers, _) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    let answered = Instant::now();

    // The client sends nothing more. No periodic scan exists, so only
    // the poller's deadline-driven timeout can notice the idle window.
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the server closes the connection before the 10 s read timeout");
    let waited = answered.elapsed();
    assert!(
        rest.is_empty(),
        "an idle close writes nothing: {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert!(
        waited >= idle / 2,
        "closed after {waited:?}, before the {idle:?} idle window"
    );
    assert!(waited < Duration::from_secs(5), "closed after {waited:?}");
    server.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_a_parked_connection() {
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve(gw, 0).expect("binds");
    let stream = TcpStream::connect(server.addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clones");
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("writes");
    let mut reader = BufReader::new(stream);
    let (status, _, _) = read_response(&mut reader);
    assert!(status.contains("200"), "{status}");

    // The parked connection's only deadline is the 30 s default
    // keep-alive idle window: shutdown must wake the poller instead.
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("shutdown closes parked connections");
    assert!(rest.is_empty());
}

#[test]
fn back_to_back_keep_alive_exchanges_never_stall() {
    // Every reply hands its connection back to the poller, so a lost
    // wake-up leaves a request unread until the client's 10 s read
    // timeout fails the exchange.
    let gw = gateway(ServingConfig::default());
    let server = HttpServer::serve(gw, 0).expect("binds");
    let addr = server.addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connects");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut writer = stream.try_clone().expect("clones");
                let mut reader = BufReader::new(stream);
                for i in 0..300 {
                    let raw = if i % 2 == 0 {
                        post_infer(true)
                    } else {
                        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string()
                    };
                    writer.write_all(raw.as_bytes()).expect("writes");
                    let (status, _, _) = read_response(&mut reader);
                    assert!(status.contains("200"), "exchange {i}: {status}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("every exchange answered");
    }
    server.shutdown();
}
