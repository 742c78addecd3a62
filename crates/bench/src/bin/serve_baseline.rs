//! Serve-tier latency baseline: ingest-to-estimate percentiles under
//! three traffic shapes, reader non-interference, and topology
//! bit-identity for the multi-engine deployment layer (`pinnsoc-serve`).
//!
//! Five checks, mirroring the tier's contract:
//!
//! 1. **Ingest-to-estimate latency** — producers enqueue telemetry on the
//!    lock-free per-engine rings; each frame's latency runs from its
//!    enqueue to the tick's snapshot publish. Measured as p50/p99 under
//!    *steady* (one report per cell per tick), *bursty* (3× bursts
//!    alternating with idle ticks), and *adversarial* traffic (every
//!    report routed through a `pinnsoc_scenario` [`FaultChannel`]:
//!    sensor noise, dropouts, duplicates, reordering, NaN injection).
//!    The p99 must stay under an absolute budget.
//! 2. **Backpressure accounting** — across every shape, ring-refused
//!    frames (explicit backpressure, never silent drops) plus drained
//!    frames must equal the frames offered.
//! 3. **Reader non-interference** — the same tick sequence is timed with
//!    zero and then a core-scaled set of snapshot-reader threads running
//!    dashboard-rate histogram / threshold / per-cell queries; the
//!    readers-on median tick must stay within noise of readers-off,
//!    because readers only clone an `Arc` and query off-lock.
//! 4. **Topology bit-identity** — identical traffic through different
//!    engine counts, per-engine shard counts, and worker counts must
//!    produce bit-identical snapshots.
//! 5. **SLO alerting cycle** — the tier's burn-rate SLO engine is driven
//!    through healthy traffic, a sustained backpressure flood, and
//!    recovery; the delivery SLO must page during the flood and drain
//!    back to ok, and the full transition log lands in the output's
//!    `slo` block.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin serve_baseline`
//! to regenerate `BENCH_serve.json` (router engine count and ring
//! capacity are stamped next to the host metadata). Pass `--smoke` for
//! the CI-sized gate: same assertions, smaller fleet, no file written.

use pinnsoc_bench::fixtures::fleet_config;
use pinnsoc_bench::measure::{percentile, upper_median};
use pinnsoc_bench::{host_info, write_bench_json, HostInfo};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, Telemetry};
use pinnsoc_obs::{AlertState, ObsHub, SloSpec};
use pinnsoc_scenario::{FaultChannel, FaultModel};
use pinnsoc_serve::{ServeConfig, ServeTier, SloConfig, SloReport};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Engines the latency tiers shard across (the acceptance floor is 2).
const ENGINES: usize = 4;
/// Absolute ingest-to-estimate p99 budget, seconds. Generous: the bound
/// exists to catch pathologies (a blocked tick loop, an unbounded drain),
/// not to race the hardware.
const P99_BUDGET_S: f64 = 1.0;
const P99_BUDGET_SMOKE_S: f64 = 0.25;
/// Reader overhead budget on the median tick, plus an absolute noise
/// floor under which scheduler jitter dominates.
const MAX_READER_OVERHEAD_FRAC: f64 = 0.20;
const NOISE_FLOOR_S: f64 = 1e-3;

#[derive(Debug, Serialize)]
struct ShapeLatency {
    shape: &'static str,
    ticks: usize,
    frames_offered: usize,
    frames_drained: usize,
    backpressure: u64,
    accepted: u64,
    rejected: u64,
    p50_s: f64,
    p99_s: f64,
    max_s: f64,
}

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
    /// Router shard (engine) count the latency tiers ran with.
    router_engines: usize,
    /// Ingest ring slots per engine.
    ring_capacity: usize,
    cells: usize,
    p99_budget_s: f64,
    shapes: Vec<ShapeLatency>,
    reader_contention: ReaderContention,
    topology_bit_identical: bool,
    /// SLO engine summary from the healthy → flood → recovery session:
    /// window configuration, worst burn rates, and every alert
    /// transition.
    slo: SloReport,
}

fn telemetry(step: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: step as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (step as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

fn build_tier(cells: usize, engines: usize, ring_capacity: usize) -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines,
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

/// Drives one traffic shape through a fresh tier and folds every tick's
/// per-frame latencies into percentiles.
fn run_shape(
    shape: &'static str,
    cells: usize,
    ring_capacity: usize,
    ticks: usize,
    mut produce: impl FnMut(&pinnsoc_serve::IngestHandle, usize) -> usize,
) -> ShapeLatency {
    let mut tier = build_tier(cells, ENGINES, ring_capacity);
    let handle = tier.handle();
    let mut latencies: Vec<f64> = Vec::new();
    let mut offered = 0usize;
    let mut drained = 0usize;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for tick in 0..ticks {
        offered += produce(&handle, tick);
        let report = tier.tick().expect("plain tick");
        drained += report.drained;
        accepted += report.telemetry.accepted;
        rejected += report.telemetry.rejected();
        latencies.extend_from_slice(&report.latencies_s);
    }
    let backpressure = tier.backpressure_total();
    assert_eq!(
        drained as u64 + backpressure,
        offered as u64,
        "{shape}: offered frames must reconcile as drained + backpressure"
    );
    latencies.sort_by(f64::total_cmp);
    let result = ShapeLatency {
        shape,
        ticks,
        frames_offered: offered,
        frames_drained: drained,
        backpressure,
        accepted,
        rejected,
        p50_s: percentile(&latencies, 0.50),
        p99_s: percentile(&latencies, 0.99),
        max_s: *latencies.last().expect("at least one frame"),
    };
    println!(
        "  {shape:<12} {} frames | p50 {:.3} ms | p99 {:.3} ms | max {:.3} ms | backpressure {}",
        result.frames_drained,
        result.p50_s * 1e3,
        result.p99_s * 1e3,
        result.max_s * 1e3,
        result.backpressure,
    );
    result
}

fn latency_shapes(cells: usize, ring_capacity: usize, smoke: bool) -> Vec<ShapeLatency> {
    let ticks = if smoke { 8 } else { 16 };
    println!("latency: {cells} cells across {ENGINES} engines, {ticks} ticks per shape...");

    let steady = run_shape("steady", cells, ring_capacity, ticks, |handle, tick| {
        for id in 0..cells as u64 {
            handle.ingest(id, telemetry(tick as u64 + 1, id));
        }
        cells
    });

    // Bursty: every fourth tick delivers a 3-report burst per cell
    // (monotonic timestamps within the burst); the rest are idle.
    let mut step = 0u64;
    let bursty = run_shape(
        "bursty",
        cells,
        ring_capacity,
        ticks,
        move |handle, tick| {
            if tick % 4 != 0 {
                return 0;
            }
            let mut offered = 0;
            for burst in 0..3u64 {
                let _ = burst;
                step += 1;
                for id in 0..cells as u64 {
                    handle.ingest(id, telemetry(step, id));
                }
                offered += cells;
            }
            offered
        },
    );

    // Adversarial: every report crosses a per-cell fault channel — noise,
    // dropouts, duplicates, reordering, clock jitter, NaN injection. The
    // engines' absorb accounting (not the latency path) sorts the mess.
    let model = FaultModel {
        dropout: 0.02,
        duplicate: 0.03,
        reorder: 0.05,
        clock_jitter_s: 0.5,
        non_finite: 0.01,
        ..FaultModel::sensor_noise()
    };
    let mut channels: Vec<FaultChannel> = (0..cells as u64)
        .map(|id| FaultChannel::new(model, 0x5E47E ^ id))
        .collect();
    let mut out: Vec<Telemetry> = Vec::new();
    let adversarial = run_shape(
        "adversarial",
        cells,
        ring_capacity,
        ticks,
        move |handle, tick| {
            let mut offered = 0;
            for id in 0..cells as u64 {
                out.clear();
                channels[id as usize].transmit(telemetry(tick as u64 + 1, id), &mut out);
                for faulted in out.drain(..) {
                    handle.ingest(id, faulted);
                    offered += 1;
                }
            }
            offered
        },
    );
    assert!(
        adversarial.rejected > 0,
        "the adversarial channel should trip engine-side rejections"
    );

    vec![steady, bursty, adversarial]
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
        let mut tier = build_tier(cells, ENGINES, ring_capacity);
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

/// Drives the SLO engine through a full alerting cycle — healthy traffic,
/// a sustained backpressure flood (several ring-loads offered per tick,
/// so most frames are refused), then recovery — and returns the tier's
/// end-of-run SLO summary. The delivery SLO must escalate to `page`
/// during the flood and drain back to `ok` with slow-window hysteresis.
fn slo_session(cells: usize, ring_capacity: usize) -> SloReport {
    // Short windows so the cycle resolves in bench-sized tick counts.
    let fast = 2;
    let slow = 8;
    println!(
        "slo session: healthy -> backpressure flood -> recovery ({fast}/{slow}-tick windows)..."
    );
    let mut tier = build_tier(cells, ENGINES, ring_capacity);
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    tier.attach_slo(
        &hub,
        SloConfig {
            latency_threshold_s: 0.5,
            latency: SloSpec {
                fast_window: fast,
                slow_window: slow,
                ..SloSpec::latency_default()
            },
            delivery: SloSpec {
                fast_window: fast,
                slow_window: slow,
                ..SloSpec::delivery_default()
            },
        },
    );
    let handle = tier.handle();
    let mut step = 0u64;
    let mut drive = |tier: &mut ServeTier, ticks: usize, bursts: u64| {
        for _ in 0..ticks {
            for _ in 0..bursts {
                step += 1;
                for id in 0..cells as u64 {
                    handle.ingest(id, telemetry(step, id));
                }
            }
            tier.tick().expect("plain tick");
        }
    };
    // Enough ring-loads per tick that most offered frames are refused.
    let flood_bursts = (2 * ring_capacity as u64 * ENGINES as u64 / cells as u64).max(2);
    drive(&mut tier, 6, 1);
    drive(&mut tier, 6, flood_bursts);
    drive(&mut tier, 2 * slow, 1);

    let report = tier.slo_report().expect("slo attached");
    let delivery = report
        .slos
        .iter()
        .find(|s| s.spec.name == "delivery")
        .expect("delivery slo");
    assert!(
        delivery
            .transitions
            .iter()
            .any(|t| t.to == AlertState::Page),
        "the backpressure flood must page the delivery SLO"
    );
    assert_eq!(
        delivery.final_state,
        AlertState::Ok,
        "recovery ticks must drain the delivery SLO back to ok"
    );
    assert!(delivery.worst_fast_burn > delivery.spec.page_burn);
    println!(
        "  delivery: {} transition(s), worst fast burn {:.1}, final {}",
        delivery.transitions.len(),
        delivery.worst_fast_burn,
        delivery.final_state.as_str(),
    );
    report
}

/// Identical traffic through three tier topologies must produce
/// bit-identical snapshots.
fn topology_bit_identity_check() {
    const CELLS: u64 = 2_000;
    const TICKS: u64 = 6;
    println!("topology bit-identity: {CELLS} cells, engines/shards/workers varied...");

    let run = |engines: usize, shards: usize, workers: usize| -> Vec<(u64, u64)> {
        let mut tier = ServeTier::new(
            untrained_model(),
            ServeConfig {
                engines,
                ring_capacity: 2 * CELLS as usize,
                fleet: FleetConfig {
                    shards,
                    micro_batch: 64,
                    workers,
                    ekf_fallback: None,
                    ..FleetConfig::default()
                },
                durability: None,
            },
        )
        .expect("plain tier");
        for id in 0..CELLS {
            tier.register(
                id,
                CellConfig {
                    initial_soc: 0.9,
                    capacity_ah: 3.0,
                },
            );
        }
        let handle = tier.handle();
        for tick in 1..=TICKS {
            for id in 0..CELLS {
                assert!(handle.ingest(id, telemetry(tick, id)).enqueued());
            }
            tier.tick().expect("tick");
        }
        let snapshot = tier.reader().snapshot();
        assert_eq!(snapshot.cells.len() as u64, CELLS);
        snapshot
            .cells
            .iter()
            .map(|(id, b)| (*id, b.best.0.to_bits()))
            .collect()
    };

    let reference = run(2, 3, 0);
    for (engines, shards, workers) in [(1, 8, 0), (3, 2, 2)] {
        assert_eq!(
            run(engines, shards, workers),
            reference,
            "{engines} engines / {shards} shards / {workers} workers diverged"
        );
    }
    println!("  OK: snapshots bit-identical across 3 topologies");
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let cells = if smoke { 4_000 } else { 100_000 };
    let ring_capacity = if smoke { 1 << 13 } else { 1 << 17 };
    let budget = if smoke {
        P99_BUDGET_SMOKE_S
    } else {
        P99_BUDGET_S
    };

    let shapes = latency_shapes(cells, ring_capacity, smoke);
    for shape in &shapes {
        assert!(
            shape.p99_s < budget,
            "{}: p99 ingest-to-estimate {:.1} ms blows the {:.0} ms budget",
            shape.shape,
            shape.p99_s * 1e3,
            budget * 1e3,
        );
    }
    let reader_contention = reader_contention_check(cells, ring_capacity, smoke);
    topology_bit_identity_check();
    let slo = slo_session(cells, ring_capacity);

    if smoke {
        println!("\nsmoke run OK (BENCH_serve.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Serve-tier deployment baseline: ingest-to-estimate latency \
                      percentiles (producer ring enqueue to snapshot publish) under \
                      steady, bursty, and fault-channel adversarial traffic across a \
                      rendezvous-routed multi-engine tier; snapshot readers timed \
                      against the tick loop (must be non-interfering); snapshots \
                      bit-identical across engine/shard/worker topologies; plus the \
                      SLO engine driven through a healthy -> backpressure-flood -> \
                      recovery alerting cycle"
            .into(),
        // The worker count the measured engines resolved `workers: 0` to.
        host: host_info(FleetEngine::new(untrained_model(), fleet_config(0)).worker_threads()),
        router_engines: ENGINES,
        ring_capacity,
        cells,
        p99_budget_s: budget,
        shapes,
        reader_contention,
        topology_bit_identical: true,
        slo,
    };
    write_bench_json("BENCH_serve.json", &baseline);
}
