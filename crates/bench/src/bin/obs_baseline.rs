//! Observability overhead baseline: proves `pinnsoc-obs` is free when off
//! and near-free when on, and that turning it on changes **no numbers**.
//!
//! Three checks, mirroring the layers the obs hub instruments:
//!
//! 1. **Fleet overhead + bit-identity** — two identical [`FleetEngine`]s
//!    run the same ingest/process ticks, one with a hub attached. The
//!    median tick must not slow down by more than 2% (with a small
//!    absolute-noise floor for CI boxes), and every per-cell estimate
//!    must be bit-identical.
//! 2. **Scenario bit-identity** — the smoke suite runs through a plain
//!    and an observed [`ScenarioRunner`]; the deterministic reports must
//!    serialize byte-for-byte equal.
//! 3. **Adaptation bit-identity** — a compact closed-loop adaptation
//!    session (drift → harvest → fine-tune → gate → swap) runs obs-off
//!    and obs-on; the promoted model, events, and report must match
//!    bit-for-bit, i.e. instrumentation never shifts a promotion
//!    decision.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin obs_baseline` to
//! regenerate `BENCH_obs.json` (overhead numbers, tick quantiles from the
//! live histograms, series/event counts). Pass `--smoke` for the CI-sized
//! gate: same assertions, smaller fleet, no file written.
//!
//! The binary also owns the process's counting allocator and installs it
//! into [`pinnsoc_obs::alloc_hook`], so training epochs recorded during
//! the adaptation session carry real allocation deltas.

use pinnsoc_adapt::{AdaptationConfig, AdaptationEngine, DriftConfig, GateConfig, HarvestConfig};
use pinnsoc_bench::{demo_serving_model, demo_training_dataset, host_info, HostInfo};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, SocEstimate, Telemetry};
use pinnsoc_obs::{FlightRecorder, ObsHub, SampleValue};
use pinnsoc_scenario::{
    run_scenario_observed, smoke_suite, standard_suite, EngineSpec, Scenario, ScenarioRunner,
};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Serving protocol constants — same as `fleet_baseline` so the overhead
/// numbers are measured against the recorded perf floor.
const SHARDS: usize = 8;
const MICRO_BATCH: usize = 512;
/// Suite seed shared with the other baselines.
const SUITE_SEED: u64 = 42;
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

fn new_engine(model: &pinnsoc::SocModel, fleet_size: usize) -> FleetEngine {
    let mut engine = FleetEngine::new(
        model.clone(),
        FleetConfig {
            shards: SHARDS,
            micro_batch: MICRO_BATCH,
            workers: 0,
            ekf_fallback: None,
            ..FleetConfig::default()
        },
    );
    for id in 0..fleet_size as u64 {
        engine.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        );
    }
    engine
}

/// One serving tick: ingest a report per cell, then process. Returns the
/// wall time of the whole tick.
fn run_tick(engine: &mut FleetEngine, fleet_size: usize, tick: f64) -> f64 {
    let start = Instant::now();
    for id in 0..fleet_size as u64 {
        engine.ingest(
            id,
            Telemetry {
                time_s: tick,
                voltage_v: 3.7 - 0.2 * (id as f64 / fleet_size as f64),
                current_a: 1.0,
                temperature_c: 25.0,
            },
        );
    }
    let totals = black_box(engine.process_pending());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(totals, (fleet_size, fleet_size), "engine dropped cells");
    wall
}

/// Median tick times for both engines, interleaved tick-for-tick (after
/// one warm-up tick each) so machine-load drift during the run biases
/// neither engine. Both see the identical telemetry sequence.
fn median_ticks(
    base: &mut FleetEngine,
    observed: &mut FleetEngine,
    fleet_size: usize,
    reps: usize,
) -> (f64, f64) {
    run_tick(base, fleet_size, 1.0);
    run_tick(observed, fleet_size, 1.0);
    let mut base_samples = Vec::with_capacity(reps);
    let mut obs_samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let tick = 2.0 + rep as f64;
        base_samples.push(run_tick(base, fleet_size, tick));
        obs_samples.push(run_tick(observed, fleet_size, tick));
    }
    base_samples.sort_by(f64::total_cmp);
    obs_samples.sort_by(f64::total_cmp);
    (
        base_samples[base_samples.len() / 2],
        obs_samples[obs_samples.len() / 2],
    )
}

/// Every cell's estimate, bit-exact (`f64::to_bits`).
fn estimates(engine: &FleetEngine, fleet_size: usize) -> Vec<(u64, SocEstimate)> {
    (0..fleet_size as u64)
        .map(|id| {
            let (soc, source) = engine.estimate(id).expect("registered cell");
            (soc.to_bits(), source)
        })
        .collect()
}

fn fleet_check(smoke: bool) -> (FleetOverhead, Arc<ObsHub>) {
    let fleet_size = if smoke { 2_000 } else { 10_000 };
    let reps = if smoke { 7 } else { 21 };
    let model = untrained_model();

    println!("fleet overhead: {fleet_size} cells, {reps} interleaved timed ticks per engine...");
    let mut base = new_engine(&model, fleet_size);
    let hub = ObsHub::new();
    // The observed engine carries the full instrumentation load: metrics
    // AND the flight recorder, so the overhead budget covers causal span
    // capture too.
    let recorder = FlightRecorder::with_default_capacity();
    let mut observed = new_engine(&model, fleet_size);
    observed.attach_obs(&hub);
    observed.attach_tracer(&recorder, 1);
    let (base_median, obs_median) = median_ticks(&mut base, &mut observed, fleet_size, reps);

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

/// The compact closed-loop adaptation session: the `drifting-fleet`
/// scenario at smoke scale with an [`AdaptationEngine`] riding along —
/// small enough to run twice, real enough to promote.
fn adaptation_config() -> AdaptationConfig {
    let gate = pinnsoc_scenario::gate_suite(SUITE_SEED)
        .into_iter()
        .map(|mut s| {
            s.population.cells = 4;
            s.timing.duration_s = 120.0;
            s
        })
        .collect();
    AdaptationConfig {
        drift: DriftConfig {
            window: 256,
            threshold: 0.08,
            min_samples: 64,
        },
        harvest: HarvestConfig {
            reservoir_capacity: 2048,
            seed: SUITE_SEED,
            min_dt_s: 2.0,
            rated_capacity_ah: 3.0,
            ..HarvestConfig::default()
        },
        fine_tune: pinnsoc::TrainConfig {
            b1_epochs: 30,
            b2_epochs: 0,
            batch_size: 64,
            learning_rate: 1e-3,
            ..pinnsoc::TrainConfig::sandia(pinnsoc::PinnVariant::NoPinn, 0)
        },
        candidate_seeds: vec![1, 2],
        gate: GateConfig {
            suite: gate,
            runner_workers: 0,
            engine: EngineSpec {
                shards: 2,
                micro_batch: 32,
                workers: 0,
            },
            min_improvement: 0.0,
        },
        train_workers: 0,
        lab_cycles: 4,
        min_reservoir: 64,
        cooldown_ticks: 10,
        quantize: None,
    }
}

fn session_scenario() -> Scenario {
    let mut scenario = standard_suite(SUITE_SEED)
        .into_iter()
        .find(|s| s.name == "drifting-fleet")
        .expect("standard suite carries the drift scenario");
    scenario.environment = pinnsoc_scenario::EnvSchedule::Ramp {
        from_c: 40.0,
        to_c: -5.0,
    };
    scenario.population.cells = 8;
    scenario.timing.duration_s = 600.0;
    scenario
}

/// Runs the session, optionally instrumented, and returns the engine plus
/// its deterministic fingerprint (promoted model, events, report).
fn run_session(model: &pinnsoc::SocModel, hub: Option<&Arc<ObsHub>>) -> (AdaptationEngine, String) {
    let lab = Arc::new(demo_training_dataset());
    let mut adapt = AdaptationEngine::new(adaptation_config(), lab);
    if let Some(hub) = hub {
        adapt.attach_obs(hub);
    }
    run_scenario_observed(
        &session_scenario(),
        model,
        &EngineSpec {
            shards: 4,
            micro_batch: 64,
            workers: 0,
        },
        &mut adapt,
    );
    let promoted = adapt
        .promoted()
        .map(|m| serde_json::to_string(&**m).expect("serializable"))
        .unwrap_or_default();
    let events = serde_json::to_string(&adapt.events().to_vec()).expect("serializable");
    let report = serde_json::to_string(&adapt.report()).expect("serializable");
    (adapt, format!("{promoted}|{events}|{report}"))
}

fn adapt_check(model: &pinnsoc::SocModel) -> (bool, usize, usize) {
    println!("adaptation bit-identity: closed-loop session, obs off vs on...");
    let (_, control) = run_session(model, None);
    let hub = ObsHub::new();
    let (adapt, observed) = run_session(model, Some(&hub));
    assert_eq!(
        control, observed,
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
        host: host_info(new_engine(&model, 0).worker_threads()),
        fleet,
        scenario_reports_bit_identical: scenario_ok,
        adapt_sessions_bit_identical: adapt_ok,
        metric_series,
        events_retained,
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    std::fs::write(&path, json).expect("write BENCH_obs.json");
    println!("\nwrote BENCH_obs.json");
}
