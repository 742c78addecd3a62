//! Durability overhead and recovery baseline: proves crash safety is
//! near-free on the tick path and that recovery is fast and exact.
//!
//! Three checks, mirroring the guarantees `pinnsoc-durable` makes:
//!
//! 1. **WAL overhead + bit-identity** — a plain [`FleetEngine`] and a
//!    [`DurableFleet`] wrapping an identical one run the same
//!    ingest/process ticks. The WAL-on median **hot-path** tick (ingest +
//!    process + commit, the latency from telemetry arrival to updated
//!    estimates) must not slow down by more than 5% (with an
//!    absolute-noise floor for CI boxes), and every per-cell estimate must
//!    be bit-identical: logging never touches the numbers. Appends defer
//!    all encoding and checksumming to the boundary flush (group commit),
//!    which is timed and reported separately — in deployment it runs in
//!    the idle window between telemetry ticks, not under serving latency.
//! 2. **Recovery wall time** — fleets of 10k and 100k cells are
//!    snapshotted, run a WAL tail, and killed; `recover` is timed cold,
//!    including the replay's processing passes.
//! 3. **Crash-loop bit-identity** — one fleet is killed and recovered
//!    three times mid-run (uncommitted ingests torn off each time) and
//!    must finish with estimates bit-identical to a control that never
//!    crashed.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin durable_baseline`
//! to regenerate `BENCH_durable.json`. Pass `--smoke` for the CI-sized
//! gate: same assertions, smaller fleets, no file written.

use pinnsoc_bench::fixtures::{self, estimates, run_tick, steady_telemetry};
use pinnsoc_bench::measure::{interleaved, upper_median};
use pinnsoc_bench::{host_info, write_bench_json, HostInfo};
use pinnsoc_durable::{recover, DurableConfig, DurableFleet};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::FleetEngine;
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The overhead budget: WAL-on median tick vs plain median tick.
const MAX_OVERHEAD_FRAC: f64 = 0.05;
/// Absolute noise floor: below this many seconds of difference, scheduler
/// jitter dominates and the relative bound is meaningless.
const NOISE_FLOOR_S: f64 = 500e-6;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pinnsoc-durable-bench-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

#[derive(Debug, Serialize)]
struct WalOverhead {
    fleet_size: usize,
    reps: usize,
    base_median_tick_s: f64,
    /// Median durable tick minus its boundary flush: the serving-latency
    /// cost of logging (deferred appends only). This is the number the 5%
    /// budget is asserted against.
    wal_hot_median_tick_s: f64,
    /// Median durable tick including the boundary flush — the back-to-back
    /// throughput view.
    wal_full_median_tick_s: f64,
    /// Median boundary flush alone (bulk encode + CRC + write).
    wal_flush_median_s: f64,
    /// Hot-path overhead vs the plain engine, percent (asserted < 5).
    hot_overhead_pct: f64,
    /// Full-tick overhead vs the plain engine, percent (reported, not
    /// bounded: the flush is boundary work by design).
    full_overhead_pct: f64,
    /// WAL bytes appended per tick (one Report frame per cell + commit).
    wal_bytes_per_tick: u64,
}

#[derive(Debug, Serialize)]
struct RecoveryTiming {
    cells: usize,
    /// Committed ticks the WAL tail carried past the snapshot.
    tail_ticks: u64,
    /// Records replayed (reports + commits past the snapshot).
    records_replayed: u64,
    /// Cold `recover` wall time, snapshot decode + replay included.
    recover_wall_s: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    max_overhead_frac: f64,
    host: HostInfo,
    wal: WalOverhead,
    recovery: Vec<RecoveryTiming>,
    crash_loop_crashes: usize,
    crash_loop_bit_identical: bool,
}

/// The steady fleet `fleet_baseline` and `obs_baseline` tick, so overhead
/// is measured against the recorded floor.
fn plain_engine(cells: usize) -> FleetEngine {
    fixtures::new_engine(&untrained_model(), cells, fixtures::fleet_config(0))
}

/// One WAL-logged serving tick — append, process, commit, flush. Returns
/// `(full wall, boundary-flush wall)`; the hot-path cost is the
/// difference.
fn run_durable_tick(durable: &mut DurableFleet, fleet_size: usize, tick: f64) -> (f64, f64) {
    let start = Instant::now();
    for id in 0..fleet_size as u64 {
        durable.ingest(id, steady_telemetry(fleet_size, id, tick));
    }
    let totals = black_box(durable.process_pending().expect("tick commits"));
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(totals, (fleet_size, fleet_size), "engine dropped cells");
    (wall, durable.last_flush_seconds())
}

fn wal_overhead_check(smoke: bool) -> WalOverhead {
    let fleet_size = if smoke { 2_000 } else { 10_000 };
    let reps = if smoke { 7 } else { 21 };
    println!("WAL overhead: {fleet_size} cells, {reps} interleaved timed ticks per engine...");

    let dir = tmpdir("overhead");
    let mut base = plain_engine(fleet_size);
    // Snapshot cadence off: this measures the steady-state append path,
    // not the (rotation-amortized) snapshot cost.
    let mut durable = DurableFleet::create(
        plain_engine(fleet_size),
        DurableConfig {
            snapshot_every_ticks: 0,
            max_segment_bytes: u64::MAX,
            ..DurableConfig::new(&dir)
        },
    )
    .expect("create durable fleet");

    // Interleaved tick for tick, so machine-load drift biases neither
    // engine.
    let (mut base_samples, durable_samples) = interleaved(
        reps,
        |round| run_tick(&mut base, fleet_size, 1.0 + round as f64),
        |round| run_durable_tick(&mut durable, fleet_size, 1.0 + round as f64),
    );
    let mut hot_samples: Vec<f64> = durable_samples
        .iter()
        .map(|(full, flush)| full - flush)
        .collect();
    let (mut full_samples, mut flush_samples): (Vec<f64>, Vec<f64>) =
        durable_samples.into_iter().unzip();
    let base_median = upper_median(&mut base_samples);
    let hot_median = upper_median(&mut hot_samples);
    let full_median = upper_median(&mut full_samples);
    let flush_median = upper_median(&mut flush_samples);

    assert_eq!(
        estimates(&base, fleet_size),
        estimates(durable.engine(), fleet_size),
        "WAL logging must leave every cell estimate bit-identical"
    );

    let hot_overhead = (hot_median - base_median) / base_median;
    let full_overhead = (full_median - base_median) / base_median;
    println!(
        "  base {:.3} ms | wal hot {:.3} ms ({:+.2}%) | flush {:.3} ms | full {:.3} ms ({:+.2}%)",
        base_median * 1e3,
        hot_median * 1e3,
        hot_overhead * 100.0,
        flush_median * 1e3,
        full_median * 1e3,
        full_overhead * 100.0,
    );
    assert!(
        hot_overhead < MAX_OVERHEAD_FRAC || (hot_median - base_median) < NOISE_FLOOR_S,
        "WAL hot-path overhead {:.2}% exceeds {:.0}% of tick time ({:.3} ms vs {:.3} ms)",
        hot_overhead * 100.0,
        MAX_OVERHEAD_FRAC * 100.0,
        hot_median * 1e3,
        base_median * 1e3,
    );

    let ticks = (reps + 1) as u64;
    let wal_bytes_per_tick = durable.wal_segment_bytes() / ticks;
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    WalOverhead {
        fleet_size,
        reps,
        base_median_tick_s: base_median,
        wal_hot_median_tick_s: hot_median,
        wal_full_median_tick_s: full_median,
        wal_flush_median_s: flush_median,
        hot_overhead_pct: hot_overhead * 100.0,
        full_overhead_pct: full_overhead * 100.0,
        wal_bytes_per_tick,
    }
}

fn recovery_check(cells: usize, tail_ticks: u64) -> RecoveryTiming {
    println!("recovery: {cells} cells, {tail_ticks}-tick WAL tail...");
    let dir = tmpdir("recovery");
    let config = DurableConfig {
        snapshot_every_ticks: 0,
        ..DurableConfig::new(&dir)
    };
    let mut durable =
        DurableFleet::create(plain_engine(cells), config.clone()).expect("create durable fleet");
    // A committed WAL tail past the baseline snapshot: recovery replays
    // every report and re-runs a processing pass per commit.
    for tick in 1..=tail_ticks {
        for id in 0..cells as u64 {
            durable.ingest(id, steady_telemetry(cells, id, tick as f64));
        }
        durable.process_pending().expect("tick commits");
    }
    let expected = estimates(durable.engine(), cells);
    drop(durable); // crash: buffered state is flushed per tick, nothing else survives

    let start = Instant::now();
    let (recovered, report) = recover(config, 0).expect("recovery");
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(
        report.tick, tail_ticks,
        "recovery must land on the last commit"
    );
    assert_eq!(
        estimates(recovered.engine(), cells),
        expected,
        "recovered estimates must be bit-identical"
    );
    println!(
        "  {:.1} ms for {} records ({} commits)",
        wall * 1e3,
        report.records_replayed,
        report.commits_replayed
    );
    let timing = RecoveryTiming {
        cells,
        tail_ticks,
        records_replayed: report.records_replayed,
        recover_wall_s: wall,
    };
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    timing
}

/// Kill the same fleet three times mid-run — each crash tears off a
/// half-ingested tick — and finish bit-identical to an uncrashed control.
fn crash_loop_check(smoke: bool) -> usize {
    let cells = if smoke { 256 } else { 1_024 };
    const TOTAL_TICKS: u64 = 30;
    const CRASH_TICKS: [u64; 3] = [7, 15, 23];
    println!("crash loop: {cells} cells, killed at ticks {CRASH_TICKS:?} of {TOTAL_TICKS}...");

    let mut control = plain_engine(cells);
    for tick in 1..=TOTAL_TICKS {
        run_tick(&mut control, cells, tick as f64);
    }

    let dir = tmpdir("crash-loop");
    let config = DurableConfig {
        snapshot_every_ticks: 4,
        max_segment_bytes: 256 << 10,
        ..DurableConfig::new(&dir)
    };
    let mut durable =
        Some(DurableFleet::create(plain_engine(cells), config.clone()).expect("create"));
    let mut tick = 0;
    while tick < TOTAL_TICKS {
        tick += 1;
        let fleet = durable.as_mut().expect("live fleet");
        run_durable_tick(fleet, cells, tick as f64);
        if CRASH_TICKS.contains(&tick) {
            // Tear: half the next tick's reports ingested, never committed.
            for id in 0..cells as u64 / 2 {
                fleet.ingest(id, steady_telemetry(cells, id, tick as f64 + 1.0));
            }
            drop(durable.take());
            let (recovered, report) = recover(config.clone(), 0).expect("recovery");
            assert_eq!(
                report.tick, tick,
                "crash at {tick} must recover the last commit"
            );
            durable = Some(recovered);
        }
    }
    let durable = durable.expect("live fleet");
    assert_eq!(
        estimates(&control, cells),
        estimates(durable.engine(), cells),
        "three crashes and recoveries must not move a single bit"
    );
    println!(
        "  OK: estimates bit-identical after {} recoveries",
        CRASH_TICKS.len()
    );
    drop(durable);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    CRASH_TICKS.len()
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");

    let wal = wal_overhead_check(smoke);
    let recovery_sizes: &[(usize, u64)] = if smoke {
        &[(1_000, 8)]
    } else {
        &[(10_000, 8), (100_000, 8)]
    };
    let recovery: Vec<RecoveryTiming> = recovery_sizes
        .iter()
        .map(|&(cells, tail)| recovery_check(cells, tail))
        .collect();
    let crashes = crash_loop_check(smoke);

    if smoke {
        println!("\nsmoke run OK (BENCH_durable.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Durability overhead and recovery: identical fleets ticked with and \
                      without WAL logging (median hot-path tick overhead budgeted at 5%, \
                      boundary flush reported separately, estimates bit-identical), cold \
                      recovery timed at 10k and 100k cells, and a triple-crash loop that \
                      must finish bit-identical to an uncrashed control"
            .into(),
        max_overhead_frac: MAX_OVERHEAD_FRAC,
        // The worker count the measured engines resolved `workers: 0` to.
        host: host_info(plain_engine(0).worker_threads()),
        wal,
        recovery,
        crash_loop_crashes: crashes,
        crash_loop_bit_identical: true,
    };
    write_bench_json("BENCH_durable.json", &baseline);
}
