//! End-to-end tests for the `sthsl serve` runtime over a real TCP socket.
//!
//! Each test binds an ephemeral port (`127.0.0.1:0`), runs the server on its
//! own thread with `max_requests` set so the accept loop exits once the test
//! has sent every request, and talks to it with plain `TcpStream` clients:
//!
//! - concurrent clients get responses **bit-identical** to the offline
//!   [`Predictor::predict`] path (same synthetic city, same seed);
//! - a cache hit returns byte-for-byte the same body as the cache miss that
//!   populated it, and `/metrics` proves the hit actually came from the cache;
//! - malformed requests come back as typed 4xx JSON bodies and the server
//!   keeps answering afterwards — no panic, no dropped listener;
//! - the checkpoint-load path survives injected transient I/O faults
//!   (`FaultyIo` + retry policy) and reports typed startup errors when the
//!   artifact is genuinely unreadable or shape-incompatible.

#![expect(
    clippy::disallowed_methods,
    reason = "R2: a test harness; the server and its concurrent clients each need a thread"
)]

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use sthsl::faults::{FaultKind, FaultPlan, FaultRule, FaultyIo, OpClass, RealIo, RetryPolicy};
use sthsl::obs::{parse_json, Json};
use sthsl::prelude::*;
use sthsl::serve::StartupError;

/// Deterministic tiny dataset: both the server thread and the offline
/// reference model build this independently and must agree bit-for-bit.
fn dataset() -> CrimeDataset {
    let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 60)).unwrap();
    CrimeDataset::from_city(&city, DatasetConfig { window: 7, val_days: 5, train_fraction: 0.8 })
        .unwrap()
}

fn tiny_cfg() -> StHslConfig {
    StHslConfig { d: 4, num_hyperedges: 6, ..StHslConfig::quick() }
}

/// Spawn a server on an ephemeral port that exits after `max_requests`
/// responses. Returns the address and the join handle (yielding the final
/// request counters so tests can assert on cache behaviour).
fn spawn_server(
    cache_capacity: usize,
    max_requests: u64,
) -> (String, thread::JoinHandle<sthsl::serve::Counters>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let engine = ForecastEngine::from_fresh(tiny_cfg(), dataset(), 3).unwrap();
        let cfg = ServerConfig {
            city: "testville".into(),
            cache_capacity,
            max_requests: Some(max_requests),
            max_horizon: 3,
            ..ServerConfig::default()
        };
        let mut server = Server::bind(engine, cfg, None, None).unwrap();
        tx.send(server.local_addr().to_string()).unwrap();
        server.run().unwrap();
        server.metrics().counters()
    });
    (rx.recv().expect("server failed to bind"), handle)
}

/// Minimal HTTP/1.1 client: one request, `Connection: close`, full response
/// read back. Returns (status, raw body, parsed body).
fn http(addr: &str, head: &str, body: &str) -> (u16, String, Json) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let msg = format!(
        "{head}\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let payload = raw.split("\r\n\r\n").nth(1).unwrap().to_string();
    let json = parse_json(&payload).unwrap();
    (status, payload, json)
}

fn get(addr: &str, path: &str) -> (u16, String, Json) {
    http(addr, &format!("GET {path} HTTP/1.1"), "")
}

/// Pull `forecasts[0].count` out of a response body as raw f32 bits.
fn count_bits(body: &Json) -> u32 {
    let Some(Json::Arr(items)) = body.get("forecasts") else {
        panic!("no forecasts array in {}", body.render());
    };
    let v = items[0].get("count").and_then(Json::as_f64).unwrap();
    #[allow(clippy::cast_possible_truncation)]
    let bits = (v as f32).to_bits();
    bits
}

#[test]
fn concurrent_clients_are_bit_identical_to_offline_predictor() {
    // Offline reference: the exact Predictor::predict path on the freshest
    // window, with the same config/seed the server thread uses.
    let data = dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    let day = data.num_days() - 1;
    let window = data.sample(day).unwrap().input;
    let expected = model.predict(&data, &window).unwrap();

    let queries: Vec<(usize, usize)> = vec![(0, 0), (3, 1), (9, 2), (15, 3)];
    let (addr, handle) = spawn_server(64, queries.len() as u64);

    // Fire all clients at once so the accept loop actually micro-batches.
    let clients: Vec<_> = queries
        .iter()
        .map(|&(region, category)| {
            let addr = addr.clone();
            thread::spawn(move || {
                let (status, _, body) =
                    get(&addr, &format!("/forecast?region={region}&category={category}"));
                (region, category, status, body)
            })
        })
        .collect();

    for client in clients {
        let (region, category, status, body) = client.join().unwrap();
        assert_eq!(status, 200, "{}", body.render());
        assert_eq!(body.get("city").and_then(Json::as_str), Some("testville"));
        let got = count_bits(&body);
        let want = expected.at(&[region, category]).to_bits();
        assert_eq!(
            got, want,
            "region {region} category {category}: served count differs from offline predict"
        );
        let item = match body.get("forecasts") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("bad forecasts: {other:?}"),
        };
        assert_eq!(item.get("day").and_then(Json::as_u64), Some(day as u64));
        assert_eq!(item.get("horizon").and_then(Json::as_u64), Some(1));
    }
    let counters = handle.join().unwrap();
    assert_eq!(counters.requests, 4);
    assert_eq!(counters.ok, 4);
    assert_eq!(counters.server_errors, 0);
}

#[test]
fn cache_hit_is_bit_equal_to_cache_miss() {
    let (addr, handle) = spawn_server(64, 3);
    let (s1, raw1, body1) = get(&addr, "/forecast?region=5&category=1");
    let (s2, raw2, _) = get(&addr, "/forecast?region=5&category=1");
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(raw1, raw2, "cached response must be byte-identical to the miss");

    let (s3, _, metrics) = get(&addr, "/metrics");
    assert_eq!(s3, 200);
    assert_eq!(metrics.get("schema").and_then(Json::as_str), Some("sthsl-serve-metrics-v1"));
    assert!(metrics.get("cache_hits").and_then(Json::as_i64).unwrap() >= 1, "{}", metrics.render());
    // Both requests wanted the same (day, horizon) grid: one forward, total.
    assert_eq!(body1.get("city").and_then(Json::as_str), Some("testville"));
    assert_eq!(metrics.get("forwards").and_then(Json::as_i64), Some(1));
    handle.join().unwrap();
}

#[test]
fn malformed_requests_get_typed_4xx_and_the_server_survives() {
    let (addr, handle) = spawn_server(64, 6);

    // Unknown route.
    let (s, _, body) = get(&addr, "/nope");
    assert_eq!(s, 404);
    assert!(body.get("error").is_some(), "{}", body.render());

    // Wrong method on a known route.
    let (s, _, _) = http(&addr, "DELETE /forecast HTTP/1.1", "");
    assert_eq!(s, 405);

    // Unparseable JSON body.
    let (s, _, body) = http(&addr, "POST /forecast HTTP/1.1", "{not json");
    assert_eq!(s, 400, "{}", body.render());

    // Well-formed JSON, out-of-range region: typed 422, not a panic.
    let (s, _, body) =
        http(&addr, "POST /forecast HTTP/1.1", r#"{"queries":[{"region":9999,"category":0}]}"#);
    assert_eq!(s, 422, "{}", body.render());
    assert_eq!(
        body.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("unprocessable")
    );

    // Malformed query parameter.
    let (s, _, _) = get(&addr, "/forecast?region=abc&category=0");
    assert_eq!(s, 400);

    // The process is still alive and serving correct answers.
    let (s, _, body) = get(&addr, "/forecast?region=1&category=1");
    assert_eq!(s, 200, "{}", body.render());

    let counters = handle.join().unwrap();
    assert_eq!(counters.requests, 6);
    assert_eq!(counters.client_errors, 5);
    assert_eq!(counters.server_errors, 0, "request-path errors must never be 5xx here");
}

#[test]
fn checkpoint_load_survives_transient_faults_and_reports_typed_failures() {
    let dir = std::env::temp_dir().join(format!("sthsl_serve_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dataset();
    let model = StHsl::new(tiny_cfg(), &data).unwrap();
    model.export_checkpoint().save(dir.join("ckpt-0000000001.sthsl")).unwrap();

    // Two injected transient EIOs on the read path: the retry policy eats
    // them and startup succeeds anyway.
    let plan = FaultPlan::new(7)
        .rule(FaultRule::always(FaultKind::TransientEio, OpClass::Read).with_max_fires(2));
    let io = FaultyIo::new(RealIo, plan);
    let sleeper = VirtualSleeper::new();
    let loaded = ForecastEngine::from_checkpoint_dir(
        &io,
        &dir,
        tiny_cfg(),
        dataset(),
        3,
        RetryPolicy::default_read(),
        &sleeper,
    );
    if let Err(e) = &loaded {
        panic!("transient faults must be retried, not fatal: {e}");
    }
    assert!(sleeper.total_ns() > 0, "recovery should have backed off between retries");

    // A checkpoint trained under a different architecture is rejected at
    // startup with a typed error — never at first request.
    let mismatched = ForecastEngine::from_checkpoint_dir(
        &RealIo,
        &dir,
        StHslConfig { d: 8, num_hyperedges: 6, ..StHslConfig::quick() },
        dataset(),
        3,
        RetryPolicy::none(),
        &VirtualSleeper::new(),
    );
    match mismatched {
        Err(StartupError::CheckpointMismatch(msg)) => {
            assert!(!msg.is_empty());
        }
        Err(other) => panic!("expected CheckpointMismatch, got: {other}"),
        Ok(_) => panic!("shape-mismatched checkpoint must be rejected at startup"),
    }

    // An empty directory is a typed NoCheckpoint error, not a panic.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let missing = ForecastEngine::from_checkpoint_dir(
        &RealIo,
        &empty,
        tiny_cfg(),
        dataset(),
        3,
        RetryPolicy::none(),
        &VirtualSleeper::new(),
    );
    match missing {
        Err(StartupError::NoCheckpoint(_)) => {}
        Err(other) => panic!("expected NoCheckpoint, got: {other}"),
        Ok(_) => panic!("empty checkpoint dir must not produce an engine"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
