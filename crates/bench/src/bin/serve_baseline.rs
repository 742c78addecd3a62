//! Serve-tier reader non-interference baseline for the multi-engine
//! deployment layer (`pinnsoc-serve`).
//!
//! The same tick sequence is timed with zero and then a core-scaled set
//! of snapshot-reader threads running dashboard-rate histogram /
//! threshold / per-cell queries; the readers-on median tick must stay
//! within noise of readers-off, because readers only clone an `Arc` and
//! query off-lock.
//!
//! Ingest-to-estimate latency is measured by `tierbench` (its
//! `freshness_p50_ms`/`freshness_p95_ms`); topology bit-identity, ring
//! accounting and the SLO alerting cycle are `pinnsoc-serve` tests.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin serve_baseline`
//! to regenerate `BENCH_serve.json` (router engine count and ring
//! capacity are stamped next to the host metadata). Pass `--smoke` for
//! the CI-sized gate: same assertion, smaller fleet, no file written.

use pinnsoc_bench::fixtures::fleet_config;
use pinnsoc_bench::measure::upper_median;
use pinnsoc_bench::{host_info, write_bench_json, HostInfo};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetEngine, Telemetry};
use pinnsoc_serve::{ServeConfig, ServeTier};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engines the measured tiers shard across.
const ENGINES: usize = 4;
/// Reader overhead budget on the median tick, plus an absolute noise
/// floor under which scheduler jitter dominates.
const MAX_READER_OVERHEAD_FRAC: f64 = 0.20;
const NOISE_FLOOR_S: f64 = 1e-3;

#[derive(Debug, Serialize)]
struct ReaderContention {
    ticks: usize,
    readers: usize,
    reader_queries: u64,
    readers_off_median_tick_s: f64,
    readers_on_median_tick_s: f64,
    overhead_pct: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    host: HostInfo,
    /// Router shard (engine) count the tiers ran with.
    router_engines: usize,
    /// Ingest ring slots per engine.
    ring_capacity: usize,
    cells: usize,
    reader_contention: ReaderContention,
}

fn telemetry(step: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: step as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (step as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

fn build_tier(cells: usize, ring_capacity: usize) -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: ENGINES,
            ring_capacity,
            fleet: fleet_config(0),
            durability: None,
        },
    )
    .expect("plain tier never does IO");
    for id in 0..cells as u64 {
        tier.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        );
    }
    tier
}

/// Readers-on vs readers-off tick timing over identical traffic.
///
/// Readers run full-scan queries (histogram, threshold scan, point
/// lookup) on their pinned snapshot, throttled to a dashboard-like rate
/// (one round per 25 ms each). The throttle keeps the measurement about
/// *blocking* — a reader holding the publish lock through its scans
/// would stall ticks even at this rate — rather than about raw core
/// time-slicing, which on a small host any concurrent thread loses.
/// Reader count scales to the spare cores, floor one.
fn reader_contention_check(cells: usize, ring_capacity: usize, smoke: bool) -> ReaderContention {
    let ticks = if smoke { 9 } else { 21 };
    let reader_threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .saturating_sub(1)
        .clamp(1, 4);
    println!("reader contention: {ticks} timed ticks, 0 vs {reader_threads} reader threads...");

    let run = |readers: usize| -> (Vec<f64>, u64) {
        let mut tier = build_tier(cells, ring_capacity);
        let handle = tier.handle();
        let reader = tier.reader();
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Vec<_> = (0..readers)
            .map(|_| {
                let reader = reader.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut queries = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snapshot = reader.snapshot();
                        std::hint::black_box(snapshot.soc_histogram(32));
                        std::hint::black_box(snapshot.cells_below(0.5));
                        std::hint::black_box(snapshot.breakdown(queries % cells as u64));
                        queries += 1;
                        std::thread::sleep(std::time::Duration::from_millis(25));
                    }
                    queries
                })
            })
            .collect();

        // One warm-up tick, then the timed run.
        for id in 0..cells as u64 {
            handle.ingest(id, telemetry(1, id));
        }
        tier.tick().expect("warm-up");
        let mut samples = Vec::with_capacity(ticks);
        for tick in 0..ticks {
            for id in 0..cells as u64 {
                handle.ingest(id, telemetry(tick as u64 + 2, id));
            }
            let start = Instant::now();
            tier.tick().expect("timed tick");
            samples.push(start.elapsed().as_secs_f64());
        }
        stop.store(true, Ordering::Relaxed);
        let queries = threads
            .into_iter()
            .map(|t| t.join().expect("reader thread"))
            .sum();
        (samples, queries)
    };

    let (mut off, _) = run(0);
    let (mut on, queries) = run(reader_threads);
    let off_median = upper_median(&mut off);
    let on_median = upper_median(&mut on);
    let overhead = (on_median - off_median) / off_median;
    println!(
        "  off {:.3} ms | on {:.3} ms ({:+.2}%) | {queries} reader queries",
        off_median * 1e3,
        on_median * 1e3,
        overhead * 100.0,
    );
    assert!(
        queries > 0,
        "readers must actually have queried while ticking"
    );
    assert!(
        overhead < MAX_READER_OVERHEAD_FRAC || (on_median - off_median) < NOISE_FLOOR_S,
        "snapshot readers slowed the tick loop by {:.2}% ({:.3} ms vs {:.3} ms) — \
         reads are contending with ticks",
        overhead * 100.0,
        on_median * 1e3,
        off_median * 1e3,
    );
    ReaderContention {
        ticks,
        readers: reader_threads,
        reader_queries: queries,
        readers_off_median_tick_s: off_median,
        readers_on_median_tick_s: on_median,
        overhead_pct: overhead * 100.0,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let cells = if smoke { 4_000 } else { 100_000 };
    let ring_capacity = if smoke { 1 << 13 } else { 1 << 17 };

    let reader_contention = reader_contention_check(cells, ring_capacity, smoke);

    if smoke {
        println!("\nsmoke run OK (BENCH_serve.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Serve-tier reader non-interference: tick time with snapshot \
                      reader threads running dashboard-rate queries against the same \
                      tick sequence without them, across a rendezvous-routed \
                      multi-engine tier"
            .into(),
        // The worker count the measured engines resolved `workers: 0` to.
        host: host_info(FleetEngine::new(untrained_model(), fleet_config(0)).worker_threads()),
        router_engines: ENGINES,
        ring_capacity,
        cells,
        reader_contention,
    };
    write_bench_json("BENCH_serve.json", &baseline);
}
