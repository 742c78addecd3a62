//! Fleet throughput baseline: batched vs. sequential SoC prediction at
//! fleet sizes 1k / 10k / 100k, written to `BENCH_fleet.json` at the
//! workspace root so later PRs have a perf floor to beat.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin fleet_baseline`.
//! Pass `--smoke` for a CI-sized run (one small fleet, few reps) that
//! sanity-checks the engine without touching `BENCH_fleet.json`.
//!
//! Alongside the headline throughput numbers, each fleet size records a
//! per-stage breakdown of one engine tick (ingest / gather / GEMM /
//! scatter, in milliseconds per tick) and the file is stamped with
//! host metadata (thread and worker counts, git revision, micro-batch
//! size) so the perf trajectory across PRs is comparable.

use pinnsoc::{BatchScratch, PredictQuery, SocModel};
use pinnsoc_bench::{host_info_with_mode, HostInfo};
use pinnsoc_fleet::testing::{quantize_untrained, untrained_model};
use pinnsoc_fleet::{
    CellConfig, FleetConfig, FleetEngine, GateCertificate, GateTolerance, ServingMode, Telemetry,
    WorkloadQuery,
};
use serde::Serialize;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Serving protocol constants — keep stable across PRs so the recorded
/// numbers stay comparable.
const SHARDS: usize = 8;
const MICRO_BATCH: usize = 512;

#[derive(Debug, Serialize)]
struct StageBreakdownMs {
    /// Accepting telemetry into the engine — id lookup, integrator update,
    /// and dirty-slot dedup all happen at ingest; timed by this harness
    /// around the ingest loop.
    ingest: f64,
    /// Feature assembly from the SoA cell state (engine stage timer).
    gather: f64,
    /// Batched fused forward passes (engine stage timer).
    gemm: f64,
    /// Estimate write-back (engine stage timer).
    scatter: f64,
    /// Tick time not covered by the stages above (pool handoff, result
    /// aggregation, timer overhead).
    other: f64,
}

#[derive(Debug, Serialize)]
struct SizeResult {
    fleet_size: usize,
    sequential_cells_per_sec: f64,
    batched_cells_per_sec: f64,
    speedup: f64,
    engine_process_cells_per_sec: f64,
    /// Same engine pass with `ServingMode::Int8` and a certified quantized
    /// shadow installed — the serving configuration the int8 work exists
    /// for.
    engine_process_int8_cells_per_sec: f64,
    int8_engine_speedup: f64,
    parallel_batched_cells_per_sec: f64,
    parallel_speedup: f64,
    stage_breakdown_ms_per_tick: StageBreakdownMs,
    stage_breakdown_int8_ms_per_tick: StageBreakdownMs,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    reps: usize,
    shards: usize,
    micro_batch: usize,
    host: HostInfo,
    results: Vec<SizeResult>,
}

fn queries(n: usize) -> Vec<PredictQuery> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            PredictQuery {
                voltage_v: 3.0 + 1.1 * t,
                current_a: 5.0 * t,
                temperature_c: 15.0 + 20.0 * t,
                avg_current_a: 4.0 * t,
                avg_temperature_c: 20.0 + 10.0 * t,
                horizon_s: 30.0 + 300.0 * t,
            }
        })
        .collect()
}

/// Median seconds per call of `f` over `reps` timed repetitions (after one
/// warm-up call).
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Builds a serving engine over `fleet_size` registered cells; in int8
/// mode, installs a quantized shadow of the incumbent through the
/// certificate door (this bench measures speed, not accuracy, so the
/// certificate is minted from trivially-equal gate scores — the legality
/// chain itself is exercised by the scenario gate tests).
fn serving_engine(model: &SocModel, fleet_size: usize, int8: bool) -> FleetEngine {
    let mut engine = FleetEngine::new(
        model.clone(),
        FleetConfig {
            shards: SHARDS,
            micro_batch: MICRO_BATCH,
            workers: 0,
            ekf_fallback: None,
            serving: if int8 {
                ServingMode::Int8
            } else {
                ServingMode::F32
            },
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
    if int8 {
        let registry = engine.registry();
        let incumbent = registry.current();
        let quantized = Arc::new(quantize_untrained(&incumbent));
        let cert = GateCertificate::attest(
            &incumbent,
            registry.version(),
            0.02,
            0.02,
            GateTolerance::default(),
            1,
        )
        .expect("equal scores pass any tolerance");
        registry
            .install_quantized(quantized, &cert)
            .expect("fresh registry accepts its own certificate");
    }
    engine
}

/// One serving steady state: ingest one report per cell + drain + batched
/// estimate refresh, timed as whole ticks (median over `reps`), with the
/// per-stage breakdown of the same ticks.
fn engine_pass(
    engine: &mut FleetEngine,
    fleet_size: usize,
    reps: usize,
    check: bool,
) -> (f64, StageBreakdownMs) {
    let mut tick = 0.0f64;
    let run_tick = |engine: &mut FleetEngine, tick: &mut f64| {
        *tick += 1.0;
        let start = Instant::now();
        for id in 0..fleet_size as u64 {
            engine.ingest(
                id,
                Telemetry {
                    time_s: *tick,
                    voltage_v: 3.7,
                    current_a: 1.0,
                    temperature_c: 25.0,
                },
            );
        }
        let ingest_s = start.elapsed().as_secs_f64();
        let totals = black_box(engine.process_pending());
        (start.elapsed().as_secs_f64(), ingest_s, totals)
    };
    // Warm-up tick, then reset the stage clocks so the breakdown covers
    // exactly the timed reps.
    let (_, _, warm) = run_tick(engine, &mut tick);
    if check {
        assert_eq!(
            warm,
            (fleet_size, fleet_size),
            "engine must absorb and estimate every cell"
        );
    }
    engine.reset_stage_times();
    let mut tick_samples = Vec::with_capacity(reps);
    let mut ingest_total_s = 0.0;
    for _ in 0..reps {
        let (tick_s, ingest_s, totals) = run_tick(engine, &mut tick);
        if check {
            assert_eq!(totals, (fleet_size, fleet_size), "engine dropped cells");
        }
        tick_samples.push(tick_s);
        ingest_total_s += ingest_s;
    }
    tick_samples.sort_by(f64::total_cmp);
    let engine_s = tick_samples[tick_samples.len() / 2];
    let stages = engine.stage_times();
    let per_tick_ms = |s: f64| s * 1e3 / reps as f64;
    let mean_tick_s: f64 = tick_samples.iter().sum::<f64>();
    let breakdown = StageBreakdownMs {
        ingest: per_tick_ms(ingest_total_s),
        gather: per_tick_ms(stages.gather.as_secs_f64()),
        gemm: per_tick_ms(stages.gemm.as_secs_f64()),
        scatter: per_tick_ms(stages.scatter.as_secs_f64()),
        other: per_tick_ms((mean_tick_s - ingest_total_s - stages.total().as_secs_f64()).max(0.0)),
    };
    (engine_s, breakdown)
}

fn measure(model: &SocModel, fleet_size: usize, reps: usize, check: bool) -> SizeResult {
    let qs = queries(fleet_size);

    let sequential_s = median_time(reps, || {
        let mut acc = 0.0;
        for q in &qs {
            acc += model.predict(
                q.voltage_v,
                q.current_a,
                q.temperature_c,
                q.avg_current_a,
                q.avg_temperature_c,
                q.horizon_s,
            );
        }
        black_box(acc);
    });

    // Serving granularity: fixed-size micro-batches (the engine's design)
    // keep the layer ping-pong buffers L1/L2-resident; one giant batch
    // streams them through cache instead.
    let mut scratch = BatchScratch::default();
    let mut out = Vec::with_capacity(fleet_size);
    let batched_s = median_time(reps, || {
        out.clear();
        for chunk in qs.chunks(256) {
            model.predict_batch_into(chunk, &mut scratch, &mut out);
        }
        black_box(out.last().copied());
    });

    // The serving steady state in both modes over the same fleet shape:
    // the f32 engine first (the historical baseline series), then the
    // int8-shadowed engine.
    let mut engine = serving_engine(model, fleet_size, false);
    let (engine_s, breakdown) = engine_pass(&mut engine, fleet_size, reps, check);
    let mut int8_engine = serving_engine(model, fleet_size, true);
    let (int8_s, int8_breakdown) = engine_pass(&mut int8_engine, fleet_size, reps, check);
    drop(int8_engine);

    let parallel_s = median_time(reps, || {
        black_box(engine.predict_all(WorkloadQuery {
            avg_current_a: 3.0,
            avg_temperature_c: 25.0,
            horizon_s: 120.0,
        }));
    });

    let n = fleet_size as f64;
    SizeResult {
        fleet_size,
        sequential_cells_per_sec: n / sequential_s,
        batched_cells_per_sec: n / batched_s,
        speedup: sequential_s / batched_s,
        engine_process_cells_per_sec: n / engine_s,
        engine_process_int8_cells_per_sec: n / int8_s,
        int8_engine_speedup: engine_s / int8_s,
        parallel_batched_cells_per_sec: n / parallel_s,
        parallel_speedup: sequential_s / parallel_s,
        stage_breakdown_ms_per_tick: breakdown,
        stage_breakdown_int8_ms_per_tick: int8_breakdown,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let model = untrained_model();
    let reps = if smoke { 3 } else { 15 };
    let sizes: &[usize] = if smoke {
        &[2_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let results: Vec<SizeResult> = sizes
        .iter()
        .map(|&n| {
            let r = measure(&model, n, reps, smoke);
            println!(
                "fleet {n:>6}: sequential {:>10.0}/s | batched {:>10.0}/s ({:.2}x) | sharded-parallel {:>10.0}/s ({:.2}x) | engine pass {:>10.0}/s | int8 pass {:>10.0}/s ({:.2}x)",
                r.sequential_cells_per_sec,
                r.batched_cells_per_sec,
                r.speedup,
                r.parallel_batched_cells_per_sec,
                r.parallel_speedup,
                r.engine_process_cells_per_sec,
                r.engine_process_int8_cells_per_sec,
                r.int8_engine_speedup,
            );
            for (label, b) in [
                ("f32 ", &r.stage_breakdown_ms_per_tick),
                ("int8", &r.stage_breakdown_int8_ms_per_tick),
            ] {
                println!(
                    "             {label} tick breakdown (ms): ingest {:.3} | gather {:.3} | gemm {:.3} | scatter {:.3} | other {:.3}",
                    b.ingest, b.gather, b.gemm, b.scatter, b.other,
                );
            }
            r
        })
        .collect();

    if smoke {
        println!("\nsmoke run OK (BENCH_fleet.json untouched)");
        return;
    }

    // Resolve the auto worker count exactly like the measured engines did.
    let probe = serving_engine(&model, 1, false);
    let baseline = Baseline {
        description: "Batched vs sequential full-pipeline SoC prediction throughput; \
                      engine = integrate-at-ingest + sharded micro-batched estimate pass, \
                      measured in f32 serving mode and with a certified int8 shadow"
            .into(),
        model: "two-branch PINN (2,322 params), untrained weights".into(),
        reps,
        shards: SHARDS,
        micro_batch: MICRO_BATCH,
        host: host_info_with_mode(probe.worker_threads(), "f32+int8"),
        results,
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serializable");
    std::fs::write(&path, json).expect("write BENCH_fleet.json");
    println!("\nwrote BENCH_fleet.json");
}
