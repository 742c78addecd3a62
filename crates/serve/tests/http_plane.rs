//! End-to-end acceptance for the HTTP telemetry plane over a *live*
//! serve tier on a real TCP socket (ephemeral port):
//!
//! - `/metrics` serves parseable Prometheus text with the
//!   `pinnsoc_serve_*` series;
//! - `/healthz` flips to `degraded` while an engine is crashed and
//!   returns to `ok` after recovery — without ever dropping readiness,
//!   because the dead lane keeps buffering;
//! - `/trace.json` carries at least one complete
//!   tick → lane → engine_tick → pass → stage span tree per engine, the
//!   lane's `drain`/`ingest`/`wal_flush`/`refresh` children, and the
//!   tier's tick → publish → `place`/`fold` split;
//! - a scraper polling `/metrics` + `/snapshot.json` concurrently with
//!   live ticks never blocks the tick loop and never observes a torn
//!   histogram (`ObsHub::snapshot`'s contention contract).

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};
use pinnsoc_obs::{
    http_get, FlightRecorder, HealthSource, ObsHub, PlaneConfig, SampleValue, TelemetryPlane,
};
use pinnsoc_scenario::{tear_directory, CrashPoint};
use pinnsoc_serve::{DurabilitySpec, ServeConfig, ServeTier, SloConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CELLS: u64 = 32;
const ENGINES: usize = 2;
const CRASHED_ENGINE: usize = 1;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pinnsoc-http-plane-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feed(tick: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: tick as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (tick as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

fn build_tier(durable_root: Option<PathBuf>) -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: ENGINES,
            ring_capacity: 4 * CELLS as usize,
            fleet: FleetConfig {
                shards: 2,
                micro_batch: 8,
                workers: 0,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: durable_root.map(|root| DurabilitySpec {
                root,
                snapshot_every_ticks: 2,
            }),
        },
    )
    .expect("tier");
    for id in 0..CELLS {
        assert!(tier.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        ));
    }
    tier
}

fn drive_tick(tier: &mut ServeTier, tick: u64) {
    let handle = tier.handle();
    for id in 0..CELLS {
        handle.ingest(id, feed(tick, id));
    }
    tier.tick().expect("tick");
}

/// Parses Prometheus text exposition: every non-comment, non-blank line
/// must be `name{labels} value` with a parseable float. Returns the
/// sample names.
fn parse_prometheus(body: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
        let name = series.split('{').next().expect("series name");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        names.push(name.to_string());
    }
    names
}

fn health_status(addr: std::net::SocketAddr) -> (u16, String, bool) {
    let (code, body) = http_get(addr, "/healthz").expect("GET /healthz");
    let v: serde_json::Value = serde_json::from_str(&body).expect("health JSON");
    let status = v["status"].as_str().expect("status").to_string();
    let ready = v["ready"].as_bool().expect("ready");
    (code, status, ready)
}

#[test]
fn plane_serves_live_tier_through_crash_and_recovery() {
    let root = tmpdir("crash");
    let mut tier = build_tier(Some(root.clone()));
    let hub = ObsHub::new();
    let recorder = FlightRecorder::with_default_capacity();
    tier.attach_obs(&hub);
    tier.attach_tracer(&recorder);
    // A latency threshold no local tick can cross keeps the SLO section
    // of this test deterministic; the alerting cycle itself is pinned by
    // `slo_cycle.rs` and the unit tests.
    tier.attach_slo(
        &hub,
        SloConfig {
            latency_threshold_s: 10.0,
            ..SloConfig::default()
        },
    );
    let board = tier.health_board();
    let plane = TelemetryPlane::bind(
        "127.0.0.1:0",
        Arc::clone(&hub),
        PlaneConfig {
            recorder: Some(Arc::clone(&recorder)),
            process_names: tier.trace_process_names(),
            health: Some(board as Arc<dyn HealthSource>),
        },
    )
    .expect("bind plane");
    let addr = plane.addr();

    for tick in 1..=4 {
        drive_tick(&mut tier, tick);
    }

    // -- /metrics: parseable Prometheus text with the serve series. --
    let (code, body) = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(code, 200);
    let names = parse_prometheus(&body);
    for expected in [
        "pinnsoc_serve_ingest_total",
        "pinnsoc_serve_backpressure_total",
        "pinnsoc_serve_snapshot_cells",
        "pinnsoc_serve_snapshot_rebuilds_total",
        "pinnsoc_serve_snapshot_changed_cells",
        "pinnsoc_serve_ingest_latency_seconds_bucket",
        "pinnsoc_serve_slo_state",
        "pinnsoc_serve_slo_fast_burn",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing {expected} in /metrics"
        );
    }
    // The lane pool reports as its own pool: run and handoff latency,
    // worker-vs-caller task counts and occupancy.
    for expected in [
        "pinnsoc_runtime_pool_run_seconds_bucket",
        "pinnsoc_runtime_pool_handoff_seconds_bucket",
        "pinnsoc_runtime_pool_worker_tasks_total",
        "pinnsoc_runtime_pool_caller_tasks_total",
        "pinnsoc_runtime_pool_worker_occupancy",
    ] {
        assert!(
            body.lines()
                .any(|line| line.starts_with(expected) && line.contains(r#"pool="serve-lanes""#)),
            "missing {expected}{{pool=\"serve-lanes\"}} in /metrics"
        );
    }

    // -- /snapshot.json parses and carries the same ingest counter. --
    let (code, body) = http_get(addr, "/snapshot.json").expect("GET /snapshot.json");
    assert_eq!(code, 200);
    let snap: serde_json::Value = serde_json::from_str(&body).expect("snapshot JSON");
    assert!(snap["uptime_s"].as_f64().expect("uptime") >= 0.0);

    // -- /trace.json: one complete tick → stage tree per engine. --
    let (code, body) = http_get(addr, "/trace.json").expect("GET /trace.json");
    assert_eq!(code, 200);
    let trace: serde_json::Value = serde_json::from_str(&body).expect("trace JSON");
    let events = trace["traceEvents"].as_array().expect("traceEvents");
    let meta_names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"] == "M")
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(
        meta_names.contains(&"serve-tier"),
        "process_name metadata labels the tier: {meta_names:?}"
    );
    // Index spans by id; verify the causal chain from a stage span up to
    // the tick root for every engine lane pid.
    let mut by_id: HashMap<u64, (&str, u64, u64)> = HashMap::new();
    for e in events.iter().filter(|e| e["ph"] == "X") {
        let id = e["args"]["id"].as_u64().expect("span id");
        let parent = e["args"]["parent"].as_u64().expect("span parent");
        let pid = e["pid"].as_u64().expect("span pid");
        by_id.insert(id, (e["name"].as_str().expect("name"), parent, pid));
    }
    for engine in 0..ENGINES as u64 {
        let pid = engine + 1;
        let stage = by_id
            .values()
            .find(|(name, _, p)| *p == pid && matches!(*name, "gather" | "gemm" | "scatter"))
            .unwrap_or_else(|| panic!("engine {engine}: no stage span at pid {pid}"));
        let mut chain = vec![stage.0];
        let mut parent = stage.1;
        while parent != 0 {
            let span = by_id
                .get(&parent)
                .unwrap_or_else(|| panic!("engine {engine}: dangling parent {parent}"));
            chain.push(span.0);
            parent = span.1;
        }
        let expected = vec![chain[0], "pass", "engine_tick", "lane", "tick"];
        assert_eq!(
            chain, expected,
            "engine {engine}: stage span must chain to the tick root"
        );
        // Ring pops, the batched absorb, the durable lane's WAL flush and
        // the estimate-buffer refresh are split out under the lane.
        for split in ["drain", "ingest", "wal_flush", "refresh"] {
            let (_, parent, _) = by_id
                .values()
                .find(|(name, _, p)| *p == pid && *name == split)
                .unwrap_or_else(|| panic!("engine {engine}: no {split} span"));
            assert_eq!(
                by_id.get(parent).map(|span| span.0),
                Some("lane"),
                "engine {engine}: {split} must be a child of its lane span"
            );
        }
    }

    // Publish splits into the rank-order merge and the aggregate fold,
    // under the tier's publish span, under the tick root.
    for split in ["place", "fold"] {
        let (_, parent, _) = by_id
            .values()
            .find(|(name, _, p)| *p == 0 && *name == split)
            .unwrap_or_else(|| panic!("no {split} span"));
        let (name, grandparent, _) = by_id
            .get(parent)
            .unwrap_or_else(|| panic!("{split}: dangling parent {parent}"));
        assert_eq!(*name, "publish", "{split} must be a child of publish");
        assert_eq!(
            by_id.get(grandparent).map(|span| span.0),
            Some("tick"),
            "publish must be a child of the tick root"
        );
    }

    // -- /healthz: ok while everything serves. --
    let (code, status, ready) = health_status(addr);
    assert_eq!((code, status.as_str(), ready), (200, "ok", true));
    let (code, _) = http_get(addr, "/readyz").expect("GET /readyz");
    assert_eq!(code, 200);

    // -- Crash one engine: health degrades, readiness holds. --
    let dir = tier.crash_engine(CRASHED_ENGINE);
    let (code, status, ready) = health_status(addr);
    assert_eq!(
        (code, status.as_str(), ready),
        (200, "degraded", true),
        "a crashed-but-buffering lane degrades health without dropping readiness"
    );
    let (code, _) = http_get(addr, "/readyz").expect("GET degraded /readyz");
    assert_eq!(code, 200);
    drive_tick(&mut tier, 5); // survivors keep serving
    let (_, status, _) = health_status(addr);
    assert_eq!(status, "degraded");

    // -- Recover: health returns to ok. --
    tear_directory(&dir, 0xBEEF, CrashPoint::MidTick).expect("tear");
    tier.recover_engine(CRASHED_ENGINE).expect("recover");
    drive_tick(&mut tier, 6);
    let (code, status, ready) = health_status(addr);
    assert_eq!((code, status.as_str(), ready), (200, "ok", true));

    drop(plane);
    drop(tier);
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// The contention contract under live load: a scraper hammering
/// `/metrics` and `/snapshot.json` while the tier ticks never wedges the
/// tick loop (the test completes) and never observes a torn histogram —
/// every snapshot's bucket counts sum exactly to its `count`.
#[test]
fn scraper_polling_live_ticks_never_tears_or_blocks() {
    let mut tier = build_tier(None);
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    let plane = TelemetryPlane::bind("127.0.0.1:0", Arc::clone(&hub), PlaneConfig::default())
        .expect("bind plane");
    let addr = plane.addr();

    let stop = AtomicBool::new(false);
    // Bumped after each full scrape: the tick loop keeps going until the
    // scraper has had at least one window in, however fast ticks are.
    let completed = AtomicU64::new(0);
    let scrapes = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            let mut ok = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (code, body) = http_get(addr, "/snapshot.json").expect("GET snapshot");
                assert_eq!(code, 200);
                let snap: serde_json::Value = serde_json::from_str(&body).expect("snapshot JSON");
                for metric in snap["metrics"]["metrics"].as_array().expect("metrics") {
                    let value = &metric["value"];
                    if let Some(hist) = value.get("Histogram") {
                        let count = hist["count"].as_f64().expect("count") as u64;
                        let bucket_sum: u64 = hist["counts"]
                            .as_array()
                            .expect("counts")
                            .iter()
                            .map(|c| c.as_f64().expect("bucket") as u64)
                            .sum();
                        assert_eq!(
                            bucket_sum, count,
                            "torn histogram visible over the wire: {metric:?}"
                        );
                    }
                }
                let (code, body) = http_get(addr, "/metrics").expect("GET metrics");
                assert_eq!(code, 200);
                parse_prometheus(&body);
                ok += 1;
                completed.fetch_add(1, Ordering::Release);
            }
            ok
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut tick = 0;
        while tick < 40 || completed.load(Ordering::Acquire) == 0 {
            if Instant::now() > deadline {
                // `scrapes > 0` fails below, after the scraper is joined
                // (and has surfaced its own failure, if any).
                break;
            }
            tick += 1;
            drive_tick(&mut tier, tick);
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().expect("scraper thread")
    });
    assert!(scrapes > 0, "the scraper got at least one window in");

    // Direct hub reads obey the same contract (no HTTP in between).
    let snap = hub.snapshot();
    for metric in &snap.metrics.metrics {
        if let SampleValue::Histogram(hist) = &metric.value {
            assert_eq!(hist.counts.iter().sum::<u64>(), hist.count);
        }
    }
}
