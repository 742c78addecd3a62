//! Observability overhead baseline: proves `pinnsoc-obs` is free when off
//! and near-free when on, and that turning it on changes **no numbers**.
//!
//! Three checks, mirroring the layers the obs hub instruments:
//!
//! 1. **Fleet overhead + bit-identity** — two identical
//!    [`FleetEngine`](pinnsoc_fleet::FleetEngine)s run the same
//!    ingest/process ticks, one with a hub attached. The median tick must
//!    not slow down by more than 2% (with a small absolute-noise floor
//!    for CI boxes), and every per-cell estimate must be bit-identical.
//! 2. **Scenario bit-identity** — the smoke suite runs through a plain
//!    and an observed [`ScenarioRunner`]; the deterministic reports must
//!    serialize byte-for-byte equal.
//! 3. **Adaptation bit-identity** — `adapt_baseline`'s smoke-sized
//!    closed-loop session (drift → harvest → fine-tune → gate → swap),
//!    caller-only, runs obs-off and obs-on; the promoted model, events,
//!    and report must match bit-for-bit, i.e. instrumentation never
//!    shifts a promotion decision.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin obs_baseline` to
//! regenerate `BENCH_obs.json` (overhead numbers, tick quantiles from the
//! live histograms, series/event counts). Pass `--smoke` for the CI-sized
//! gate: same assertions, smaller fleet, no file written.
//!
//! The binary also owns the process's counting allocator and installs it
//! into [`pinnsoc_obs::alloc_hook`], so training epochs recorded during
//! the adaptation session carry real allocation deltas.

use pinnsoc_bench::fixtures::{
    estimates, fleet_config, new_engine, run_session, run_tick, session_fingerprint, SHARDS,
    SUITE_SEED,
};
use pinnsoc_bench::measure::{interleaved, upper_median};
use pinnsoc_bench::{demo_serving_model, host_info, write_bench_json, HostInfo};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_obs::{FlightRecorder, ObsHub, SampleValue};
use pinnsoc_scenario::{smoke_suite, ScenarioRunner};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
/// The overhead budget: obs-on median tick vs obs-off median tick.
const MAX_OVERHEAD_FRAC: f64 = 0.02;
/// Absolute noise floor for the overhead check: below this many seconds
/// of difference, scheduler jitter dominates and the relative bound is
/// meaningless (smoke fleets tick in a millisecond or two).
const NOISE_FLOOR_S: f64 = 500e-6;

/// Counts allocation events process-wide; [`alloc_count`] is installed
/// into `pinnsoc_obs::alloc_hook` so library instrumentation (training
/// epochs) can report allocation deltas.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[derive(Debug, Serialize)]
struct FleetOverhead {
    fleet_size: usize,
    reps: usize,
    base_median_tick_s: f64,
    obs_median_tick_s: f64,
    overhead_pct: f64,
    /// p50/p99 of `pinnsoc_fleet_tick_seconds` from the live histogram —
    /// the exporter-side view of the same ticks.
    obs_tick_p50_s: f64,
    obs_tick_p99_s: f64,
    /// Flight-recorder spans captured while the observed engine ran
    /// (the overhead number above includes recording them).
    trace_spans: usize,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    max_overhead_frac: f64,
    host: HostInfo,
    fleet: FleetOverhead,
    scenario_reports_bit_identical: bool,
    adapt_sessions_bit_identical: bool,
    /// Series registered across fleet + runtime + train + scenario +
    /// adapt after the adaptation session.
    metric_series: usize,
    /// Ring events retained after the adaptation session.
    events_retained: usize,
}

fn fleet_check(smoke: bool) -> (FleetOverhead, Arc<ObsHub>) {
    let fleet_size = if smoke { 2_000 } else { 10_000 };
    let reps = if smoke { 7 } else { 21 };
    let model = untrained_model();

    println!("fleet overhead: {fleet_size} cells, {reps} interleaved timed ticks per engine...");
    let mut base = new_engine(&model, fleet_size, fleet_config(0));
    let hub = ObsHub::new();
    // The observed engine carries the full instrumentation load: metrics
    // AND the flight recorder, so the overhead budget covers causal span
    // capture too.
    let recorder = FlightRecorder::with_default_capacity();
    let mut observed = new_engine(&model, fleet_size, fleet_config(0));
    observed.attach_obs(&hub);
    observed.attach_tracer(&recorder, 1);
    // Interleaved tick for tick, so machine-load drift during the run
    // biases neither engine; both see the identical telemetry sequence.
    let (mut base_samples, mut obs_samples) = interleaved(
        reps,
        |round| run_tick(&mut base, fleet_size, 1.0 + round as f64),
        |round| run_tick(&mut observed, fleet_size, 1.0 + round as f64),
    );
    let base_median = upper_median(&mut base_samples);
    let obs_median = upper_median(&mut obs_samples);

    assert_eq!(
        estimates(&base, fleet_size),
        estimates(&observed, fleet_size),
        "attaching obs + flight recorder must leave every cell estimate bit-identical"
    );
    let trace_spans = recorder.len();
    assert_eq!(recorder.dropped_total(), 0, "recorder ring must not wrap");
    let spans = recorder.drain();
    assert_eq!(
        spans.iter().filter(|s| s.name == "engine_tick").count(),
        reps + 1,
        "one engine_tick span per process_pending call"
    );
    assert_eq!(
        spans.iter().filter(|s| s.name == "pass").count(),
        (reps + 1) * SHARDS,
        "one pass span per shard per tick"
    );

    let overhead = (obs_median - base_median) / base_median;
    println!(
        "  base {:.3} ms | obs {:.3} ms | overhead {:+.2}%",
        base_median * 1e3,
        obs_median * 1e3,
        overhead * 100.0
    );
    assert!(
        overhead < MAX_OVERHEAD_FRAC || (obs_median - base_median) < NOISE_FLOOR_S,
        "obs overhead {:.2}% exceeds {:.0}% of tick time ({:.3} ms vs {:.3} ms)",
        overhead * 100.0,
        MAX_OVERHEAD_FRAC * 100.0,
        obs_median * 1e3,
        base_median * 1e3,
    );

    // Exporter-side view of the same ticks: the live histogram must have
    // seen exactly the warm-up + timed ticks and agree on magnitude.
    let snapshot = hub.snapshot();
    let tick_hist = snapshot
        .metrics
        .find("pinnsoc_fleet_tick_seconds", &[])
        .map(|sample| match &sample.value {
            SampleValue::Histogram(h) => h.clone(),
            other => panic!("tick series must be a histogram, got {other:?}"),
        })
        .expect("observed engine must export pinnsoc_fleet_tick_seconds");
    assert_eq!(
        tick_hist.count,
        (reps + 1) as u64,
        "tick histogram must record every process_pending call"
    );

    (
        FleetOverhead {
            fleet_size,
            reps,
            base_median_tick_s: base_median,
            obs_median_tick_s: obs_median,
            overhead_pct: overhead * 100.0,
            obs_tick_p50_s: tick_hist.quantile(0.5),
            obs_tick_p99_s: tick_hist.quantile(0.99),
            trace_spans,
        },
        hub,
    )
}

fn scenario_check(model: &pinnsoc::SocModel) -> bool {
    println!("scenario bit-identity: smoke suite, plain vs observed runner...");
    let suite = smoke_suite(SUITE_SEED);
    let control = ScenarioRunner::default().run(&suite, model);
    let hub = ObsHub::new();
    let observed = ScenarioRunner::default()
        .observed(Arc::clone(&hub))
        .run(&suite, model);
    let control_json = serde_json::to_string(&control.report).expect("serializable");
    let observed_json = serde_json::to_string(&observed.report).expect("serializable");
    assert_eq!(
        control_json, observed_json,
        "observed scenario report must be bit-identical to the control"
    );
    assert!(
        hub.snapshot()
            .metrics
            .counter_total("pinnsoc_scenario_runs_total")
            == suite.len() as u64,
        "observed runner must record one run per scenario"
    );
    println!("  OK: {} scenario(s) byte-for-byte equal", suite.len());
    true
}

fn adapt_check(model: &pinnsoc::SocModel) -> (bool, usize, usize) {
    println!("adaptation bit-identity: closed-loop session, obs off vs on...");
    // The adaptation baseline's smoke session, caller-only.
    let control = session_fingerprint(&run_session(true, 0, model, None));
    let hub = ObsHub::new();
    let adapt = run_session(true, 0, model, Some(&hub));
    assert_eq!(
        control,
        session_fingerprint(&adapt),
        "instrumentation must not shift any promotion decision"
    );
    let report = adapt.report();
    assert!(
        report.swaps >= 1,
        "the drifting session must promote at least one adapted model"
    );
    let snapshot = hub.snapshot();
    assert_eq!(
        snapshot.metrics.counter_total("pinnsoc_adapt_ticks_total"),
        report.ticks_observed,
        "adapt tick counter must match the report"
    );
    assert!(
        snapshot.metrics.counter_total("pinnsoc_train_epochs_total") > 0,
        "fine-tune epochs must flow into the train series"
    );
    println!(
        "  OK: {} swap(s) identical; {} metric series, {} ring events",
        report.swaps,
        snapshot.metrics.metrics.len(),
        snapshot.events.len()
    );
    (true, snapshot.metrics.metrics.len(), snapshot.events.len())
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    assert!(
        pinnsoc_obs::alloc_hook::install(alloc_count),
        "obs_baseline owns the process's counting allocator"
    );

    let (fleet, _fleet_hub) = fleet_check(smoke);

    // Identity checks need determinism, not scale: both modes use the
    // smoke-sized model and suites.
    println!("training the serving model for the closed-loop checks...");
    let model = demo_serving_model(true);
    let scenario_ok = scenario_check(&model);
    let (adapt_ok, metric_series, events_retained) = adapt_check(&model);

    if smoke {
        println!("\nsmoke run OK (BENCH_obs.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Observability overhead and bit-identity: identical fleets ticked with \
                      and without an attached ObsHub (median tick overhead budgeted at 2%), \
                      plus byte-for-byte report equality for an observed scenario suite and \
                      an observed closed-loop adaptation session"
            .into(),
        max_overhead_frac: MAX_OVERHEAD_FRAC,
        // The worker count the measured engines resolved `workers: 0` to.
        host: host_info(new_engine(&model, 0, fleet_config(0)).worker_threads()),
        fleet,
        scenario_reports_bit_identical: scenario_ok,
        adapt_sessions_bit_identical: adapt_ok,
        metric_series,
        events_retained,
    };
    write_bench_json("BENCH_obs.json", &baseline);
}
