//! Workloads shared by the baseline bins, so bins that compare against
//! each other's numbers run the same fleet and the same session: the
//! steady serving tick on the serving protocol constants, and the
//! closed-loop adaptation session that `adapt_baseline` records and
//! `obs_baseline` replays at smoke size with `workers = 0`.

use crate::demo_training_dataset;
use pinnsoc::SocModel;
use pinnsoc_adapt::{AdaptationConfig, AdaptationEngine, DriftConfig, GateConfig, HarvestConfig};
use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, SocEstimate, Telemetry};
use pinnsoc_obs::ObsHub;
use pinnsoc_scenario::{gate_suite, run_scenario_observed, standard_suite, EngineSpec, Scenario};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Fleet shards per engine. A serving protocol constant: keep it stable
/// across PRs so the recorded numbers stay comparable.
pub const SHARDS: usize = 8;
/// Cells per batched estimate pass (serving protocol constant).
pub const MICRO_BATCH: usize = 512;
/// Scenario suite seed shared by the scenario, adaptation and
/// observability baselines.
pub const SUITE_SEED: u64 = 42;

/// The serving protocol's engine configuration at `workers` pool workers
/// (`0` resolves to one less than the host's available parallelism), f32
/// serving, no EKF fallback.
pub fn fleet_config(workers: usize) -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        micro_batch: MICRO_BATCH,
        workers,
        ekf_fallback: None,
        ..FleetConfig::default()
    }
}

/// An engine serving `model` under `config`, with cells `0..cells`
/// registered at SoC 0.9 and 3 Ah.
pub fn new_engine(model: &SocModel, cells: usize, config: FleetConfig) -> FleetEngine {
    let mut engine = FleetEngine::new(model.clone(), config);
    for id in 0..cells as u64 {
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

/// Cell `id`'s report at `tick` in a fleet of `cells`: a steady 1 A
/// discharge at 25 °C, voltages spread across the fleet.
pub fn steady_telemetry(cells: usize, id: u64, tick: f64) -> Telemetry {
    Telemetry {
        time_s: tick,
        voltage_v: 3.7 - 0.2 * (id as f64 / cells as f64),
        current_a: 1.0,
        temperature_c: 25.0,
    }
}

/// One serving tick: a [`steady_telemetry`] report per cell, then a
/// processing pass. Returns the wall time of the whole tick.
///
/// # Panics
///
/// Panics unless the pass absorbs and estimates every cell.
pub fn run_tick(engine: &mut FleetEngine, cells: usize, tick: f64) -> f64 {
    let start = Instant::now();
    for id in 0..cells as u64 {
        engine.ingest(id, steady_telemetry(cells, id, tick));
    }
    let totals = black_box(engine.process_pending());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(totals, (cells, cells), "engine dropped cells");
    wall
}

/// Every cell's estimate, bit-exact (`f64::to_bits`), in id order.
///
/// # Panics
///
/// Panics if a cell in `0..cells` is not registered.
pub fn estimates(engine: &FleetEngine, cells: usize) -> Vec<(u64, SocEstimate)> {
    (0..cells as u64)
        .map(|id| {
            let (soc, source) = engine.estimate(id).expect("registered cell");
            (soc.to_bits(), source)
        })
        .collect()
}

/// The closed-loop session scenario: `drifting-fleet` from the standard
/// suite (aged mixed-EV fleet), with the ambient widened to a hot-to-cold
/// sweep — a production fleet harvests across its whole operating
/// envelope, not one cabin temperature. Shrunk in smoke mode.
pub fn session_scenario(smoke: bool) -> Scenario {
    let mut scenario = standard_suite(SUITE_SEED)
        .into_iter()
        .find(|s| s.name == "drifting-fleet")
        .expect("standard suite carries the drift scenario");
    scenario.environment = pinnsoc_scenario::EnvSchedule::Ramp {
        from_c: 40.0,
        to_c: -5.0,
    };
    if smoke {
        scenario.population.cells = 8;
        scenario.timing.duration_s = 600.0;
    }
    scenario
}

/// The session's adaptation loop (drift → harvest → fine-tune → gate →
/// swap), with every pool at `workers` workers. Shrunk in smoke mode.
pub fn adaptation_config(smoke: bool, workers: usize) -> AdaptationConfig {
    let gate = gate_suite(SUITE_SEED)
        .into_iter()
        .map(|mut s| {
            if smoke {
                s.population.cells = 4;
                s.timing.duration_s = 120.0;
            }
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
            b1_epochs: if smoke { 30 } else { 40 },
            b2_epochs: 0, // harvested windows carry no horizon labels
            batch_size: 64,
            learning_rate: 1e-3,
            ..pinnsoc::TrainConfig::sandia(pinnsoc::PinnVariant::NoPinn, 0)
        },
        candidate_seeds: vec![1, 2],
        gate: GateConfig {
            suite: gate,
            runner_workers: workers,
            engine: EngineSpec {
                shards: 2,
                micro_batch: 32,
                workers,
            },
            min_improvement: 0.0,
        },
        train_workers: workers,
        lab_cycles: 4,
        min_reservoir: if smoke { 64 } else { 256 },
        // Short enough for several rounds per session: each later round
        // fine-tunes on a fuller reservoir and must beat the previous
        // promotion at the gate to swap again.
        cooldown_ticks: if smoke { 10 } else { 25 },
        quantize: None,
    }
}

/// Runs the adaptation session over `model` at `workers` workers,
/// instrumented when `hub` is given, and returns the engine (promoted
/// model, report and events inside).
pub fn run_session(
    smoke: bool,
    workers: usize,
    model: &SocModel,
    hub: Option<&Arc<ObsHub>>,
) -> AdaptationEngine {
    let lab = Arc::new(demo_training_dataset());
    let mut adapt = AdaptationEngine::new(adaptation_config(smoke, workers), lab);
    if let Some(hub) = hub {
        adapt.attach_obs(hub);
    }
    run_scenario_observed(
        &session_scenario(smoke),
        model,
        &EngineSpec {
            shards: 4,
            micro_batch: 64,
            workers,
        },
        &mut adapt,
    );
    adapt
}

/// JSON fingerprint of everything deterministic about a session: the
/// promoted model, the events and the report.
pub fn session_fingerprint(adapt: &AdaptationEngine) -> String {
    let promoted = adapt
        .promoted()
        .map(|m| serde_json::to_string(&**m).expect("serializable"))
        .unwrap_or_default();
    let events = serde_json::to_string(&adapt.events().to_vec()).expect("serializable");
    let report = serde_json::to_string(&adapt.report()).expect("serializable");
    format!("{promoted}|{events}|{report}")
}
