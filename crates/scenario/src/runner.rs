//! Closed-loop scenario execution.
//!
//! [`run_scenario`] drives one scenario: per-cell ground-truth simulators
//! generate telemetry, the fault channels mangle it, a live [`FleetEngine`]
//! consumes it, and every processing pass the per-estimator estimates are
//! scored against the simulators' true SoC. [`ScenarioRunner`] executes a
//! whole suite pool-parallel over the shared [`pinnsoc_runtime`] worker
//! pool; because each scenario run is a pure function of its spec and the
//! model, the resulting [`ScenarioReport`] is bit-identical for any worker
//! count. The generation side (population draws, per-cell load and fault
//! streams) is derived in one place, `SimLoop`, which the crash harness
//! (`crate::crash`) builds as well; its uninterrupted control is this
//! module's own closed loop.

use crate::faults::{FaultChannel, FaultCounts};
use crate::report::{ErrorStat, ScenarioReport, ScenarioResult, TteAccuracy};
use crate::spec::{LoadSpec, Scenario};
use pinnsoc::{QuantizedSocModel, SocModel};
use pinnsoc_battery::{aged_params, CellSim, Soc, Soh};
use pinnsoc_cycles::{pulse_train, MixedCycleBuilder, Vehicle};
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry};
use pinnsoc_obs::{ObsHub, DURATION_BUCKETS};
use pinnsoc_runtime::{NoContext, PoolTask, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// How each scenario's [`FleetEngine`] is configured. Engine results are
/// bit-identical across worker counts (the fleet crate's contract), so
/// these knobs affect throughput only, never the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Shards per engine.
    pub shards: usize,
    /// Cells per batched forward pass.
    pub micro_batch: usize,
    /// Persistent engine worker threads (the scenario's own thread always
    /// participates). Kept small by default: suite-level parallelism comes
    /// from the runner's pool, not from nesting wide engine pools.
    pub workers: usize,
}

impl Default for EngineSpec {
    fn default() -> Self {
        Self {
            shards: 4,
            micro_batch: 64,
            workers: 1,
        }
    }
}

impl EngineSpec {
    /// The engine configuration `scenario` runs under: these knobs, with
    /// the population's chemistry as the EKF fallback.
    pub(crate) fn fleet_config(&self, scenario: &Scenario) -> FleetConfig {
        FleetConfig {
            shards: self.shards.max(1),
            micro_batch: self.micro_batch.max(1),
            workers: self.workers,
            ekf_fallback: Some(scenario.population.params.clone()),
            ..FleetConfig::default()
        }
    }
}

/// Executes scenario suites pool-parallel.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRunner {
    /// Worker threads draining the suite (the calling thread participates;
    /// 0 runs everything on the calling thread).
    pub workers: usize,
    /// Per-scenario engine configuration.
    pub engine: EngineSpec,
    /// Observability hub receiving per-scenario `pinnsoc_scenario_*` series
    /// and a suite-completion ring event; `None` runs fully uninstrumented.
    /// The [`ScenarioReport`] is bit-identical either way — recording reads
    /// the finished results at suite end, on the coordinating thread only.
    pub obs: Option<Arc<ObsHub>>,
}

/// A completed suite: the deterministic report plus the (host-dependent)
/// wall-clock timings, kept separate so the report stays bit-comparable.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The deterministic scoring report, in suite order.
    pub report: ScenarioReport,
    /// Per-scenario wall time, in suite order.
    pub timings: Vec<ScenarioTiming>,
}

/// Wall-clock cost of one scenario on the measuring host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTiming {
    /// Scenario name.
    pub name: String,
    /// Wall time of the whole closed loop (simulate + transmit + serve +
    /// score), seconds.
    pub wall_s: f64,
    /// Scored cell-ticks per second of wall time.
    pub cell_ticks_per_s: f64,
}

/// Which model a scenario's engine serves: the f32 reference path, or an
/// int8 quantized candidate through the fleet's evaluation seam
/// ([`FleetEngine::new_quantized_eval`]). The whole closed loop — faults,
/// physics, scoring — is identical either way; only the serving network
/// differs.
#[derive(Debug, Clone)]
pub enum ServedModel {
    /// Serve the f32 model.
    F32(Arc<SocModel>),
    /// Serve an int8 quantized candidate (the promotion gate's evaluation
    /// path — see `crate::gate`).
    Int8(Arc<QuantizedSocModel>),
}

impl ServedModel {
    fn make_fleet(&self, config: FleetConfig) -> FleetEngine {
        match self {
            ServedModel::F32(model) => FleetEngine::new((**model).clone(), config),
            ServedModel::Int8(quantized) => {
                FleetEngine::new_quantized_eval(Arc::clone(quantized), config)
            }
        }
    }
}

struct ScenarioTask {
    scenario: Scenario,
    served: ServedModel,
    engine: EngineSpec,
}

impl PoolTask for ScenarioTask {
    type Ctx = ();
    type Kind = ();
    type Output = (ScenarioResult, f64);

    fn run(&mut self, _: &(), (): ()) -> Self::Output {
        let start = Instant::now();
        let result = run_scenario_served(
            &self.scenario,
            &self.served,
            &self.engine,
            &mut NoopObserver,
        );
        (result, start.elapsed().as_secs_f64())
    }
}

impl ScenarioRunner {
    /// Runs every scenario in `suite` against `model`, draining them
    /// through a persistent worker pool. Results come back in suite order
    /// and the report is bit-identical for any [`ScenarioRunner::workers`]
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if any scenario is invalid or a scenario task panics.
    pub fn run(&self, suite: &[Scenario], model: &SocModel) -> SuiteRun {
        self.run_served(suite, &ServedModel::F32(Arc::new(model.clone())))
    }

    /// [`ScenarioRunner::run`] against an int8 quantized candidate — the
    /// promotion gate's measurement path (see `crate::gate`).
    ///
    /// # Panics
    ///
    /// Panics if any scenario is invalid or a scenario task panics.
    pub fn run_quantized(
        &self,
        suite: &[Scenario],
        quantized: &Arc<QuantizedSocModel>,
    ) -> SuiteRun {
        self.run_served(suite, &ServedModel::Int8(Arc::clone(quantized)))
    }

    /// Runs every scenario in `suite` against `served`; see
    /// [`ScenarioRunner::run`].
    pub fn run_served(&self, suite: &[Scenario], served: &ServedModel) -> SuiteRun {
        for scenario in suite {
            scenario.validate();
        }
        if suite.is_empty() {
            return SuiteRun {
                report: ScenarioReport {
                    scenarios: Vec::new(),
                },
                timings: Vec::new(),
            };
        }
        let mut pool: WorkerPool<NoContext, ScenarioTask> =
            WorkerPool::new(Arc::new(NoContext), self.workers);
        let mut queue: Vec<(usize, ScenarioTask)> = suite
            .iter()
            .map(|scenario| ScenarioTask {
                scenario: scenario.clone(),
                served: served.clone(),
                engine: self.engine,
            })
            .enumerate()
            .collect();
        let mut done = Vec::with_capacity(queue.len());
        let panicked = pool.run((), &mut queue, &mut done);
        assert!(!panicked, "a scenario task panicked");
        // Completion order is nondeterministic under concurrency; the
        // outputs are not — restore suite order.
        done.sort_unstable_by_key(|d| d.idx);
        let mut scenarios = Vec::with_capacity(done.len());
        let mut timings = Vec::with_capacity(done.len());
        for d in done {
            let (result, wall_s) = d.output;
            let cell_ticks = (result.cells * result.ticks) as f64;
            timings.push(ScenarioTiming {
                name: result.name.clone(),
                wall_s,
                cell_ticks_per_s: if wall_s > 0.0 {
                    cell_ticks / wall_s
                } else {
                    0.0
                },
            });
            scenarios.push(result);
        }
        let run = SuiteRun {
            report: ScenarioReport { scenarios },
            timings,
        };
        if let Some(hub) = &self.obs {
            record_suite(hub, &run);
        }
        run
    }

    /// The same runner, reporting suite results into `hub`.
    pub fn observed(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }
}

/// Folds a finished suite into the hub. Cold path — once per suite, after
/// every scenario completed — so it uses the registry's locked entry points
/// directly; registration is idempotent, so repeated `run()` calls keep
/// appending to the same series.
fn record_suite(hub: &Arc<ObsHub>, run: &SuiteRun) {
    let reg = hub.registry();
    let mut cell_ticks_total = 0u64;
    for (result, timing) in run.report.scenarios.iter().zip(&run.timings) {
        let labels: &[(&str, &str)] = &[("scenario", &result.name)];
        reg.add(
            reg.counter_with(
                "pinnsoc_scenario_runs_total",
                "Completed closed-loop scenario runs.",
                labels,
            ),
            1,
        );
        reg.observe(
            reg.histogram_with(
                "pinnsoc_scenario_wall_seconds",
                "Wall time of one closed-loop scenario run.",
                labels,
                DURATION_BUCKETS,
            ),
            timing.wall_s,
        );
        reg.set(
            reg.gauge_with(
                "pinnsoc_scenario_best_mae",
                "Best-estimate SoC MAE of the most recent run.",
                labels,
            ),
            result.best.mae,
        );
        reg.set(
            reg.gauge_with(
                "pinnsoc_scenario_tte_mae_seconds",
                "Time-to-empty MAE of the most recent run, seconds.",
                labels,
            ),
            result.time_to_empty.mean_abs_error_s,
        );
        let cell_ticks = (result.cells * result.ticks) as u64;
        cell_ticks_total += cell_ticks;
        reg.add(
            reg.counter_with(
                "pinnsoc_scenario_cell_ticks_total",
                "Scored (cell, tick) pairs.",
                labels,
            ),
            cell_ticks,
        );
        reg.add(
            reg.counter_with(
                "pinnsoc_scenario_unscored_cell_ticks_total",
                "(cell, tick) pairs the engine could not score yet.",
                labels,
            ),
            result.unscored_cell_ticks,
        );
    }
    hub.emit(
        "scenario",
        format!(
            "suite of {} scenario(s) complete ({cell_ticks_total} cell-ticks scored)",
            run.report.scenarios.len()
        ),
    );
}

/// Splitmix-style stream derivation so per-cell streams are decorrelated
/// from the scenario seed and from each other.
fn cell_stream(seed: u64, cell: u64, salt: u64) -> u64 {
    seed ^ salt
        ^ (cell
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Builds one cell's per-step current demand, looping the source profile if
/// the scenario outlasts it.
fn cell_currents(scenario: &Scenario, cell: u64) -> Vec<f64> {
    let params = &scenario.population.params;
    let timing = &scenario.timing;
    let steps = timing.steps();
    let seed = cell_stream(scenario.seed, cell, 0x10AD);
    let profile: Vec<f64> = match &scenario.load {
        LoadSpec::ConstantCurrent { c_rate } => return vec![params.c_rate(*c_rate); steps],
        LoadSpec::PulseTrain {
            high_c,
            pulse_s,
            low_c,
            rest_s,
        } => {
            let cycles = (timing.duration_s / (pulse_s + rest_s)).ceil().max(1.0) as usize;
            pulse_train(
                params.c_rate(*high_c),
                *pulse_s,
                params.c_rate(*low_c),
                *rest_s,
                cycles,
                timing.dt_s,
            )
            .into_currents()
        }
        LoadSpec::Drive { schedule } => Vehicle::compact_ev()
            .current_profile(&schedule.generate_with_dt(seed, timing.dt_s))
            .into_currents(),
        LoadSpec::MixedEv { segments } => Vehicle::compact_ev()
            .current_profile(
                &MixedCycleBuilder::new()
                    .segments(*segments)
                    .dt_s(timing.dt_s)
                    .build(seed),
            )
            .into_currents(),
    };
    (0..steps).map(|k| profile[k % profile.len()]).collect()
}

/// The generation side of one scenario — ground-truth simulators, load
/// profiles and fault channels — and the only place it is derived. The
/// population comes from one RNG stream seeded by the scenario seed, loads
/// and faults from salted per-cell streams, so the traffic is a pure
/// function of the scenario: every build replays it bit-identically (the
/// crash harness's continuation relies on that).
pub(crate) struct SimLoop<'a> {
    scenario: &'a Scenario,
    sims: Vec<CellSim>,
    channels: Vec<FaultChannel>,
    currents: Vec<Vec<f64>>,
    configs: Vec<CellConfig>,
    deliver: Vec<Telemetry>,
}

impl<'a> SimLoop<'a> {
    pub(crate) fn build(scenario: &'a Scenario) -> Self {
        let population = &scenario.population;
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        let uniform = |rng: &mut StdRng, (lo, hi): (f64, f64)| lo + (hi - lo) * rng.gen::<f64>();
        let ambient0 = scenario
            .environment
            .ambient_at(0.0, scenario.timing.duration_s);
        let cells = population.cells;
        let mut sims = Vec::with_capacity(cells);
        let mut channels = Vec::with_capacity(cells);
        let mut currents = Vec::with_capacity(cells);
        let mut configs = Vec::with_capacity(cells);
        for id in 0..cells as u64 {
            let soh = Soh::new(uniform(&mut rng, population.soh)).expect("validated range");
            let initial_soc = uniform(&mut rng, population.initial_soc);
            let aged = aged_params(&population.params, soh);
            sims.push(CellSim::new(
                aged.clone(),
                Soc::clamped(initial_soc),
                ambient0,
            ));
            channels.push(FaultChannel::new(
                scenario.faults,
                cell_stream(scenario.seed, id, 0xFA17),
            ));
            currents.push(cell_currents(scenario, id));
            configs.push(CellConfig {
                initial_soc,
                capacity_ah: aged.capacity_ah,
            });
        }
        Self {
            scenario,
            sims,
            channels,
            currents,
            configs,
            deliver: Vec::new(),
        }
    }

    /// Every cell's id and registration config, in id order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (CellId, CellConfig)> + '_ {
        (0..).zip(self.configs.iter().cloned())
    }

    /// Generates telemetry step `step` and appends the fault-mangled
    /// deliveries to `out` in cell order. Step 0 is the rest-state baseline
    /// report at t = 0 (a BMS announces itself before drawing load);
    /// without it the engine's integrators would skip the first interval,
    /// leaving a permanent one-step Coulomb offset. Later steps advance
    /// every simulator by `dt`. The simulators never read the engine, so a
    /// step's deliveries can be ingested as one batch. Returns whether the
    /// scenario runs a processing pass after this step.
    pub(crate) fn step(&mut self, step: usize, out: &mut Vec<(CellId, Telemetry)>) -> bool {
        let timing = &self.scenario.timing;
        let t = step as f64 * timing.dt_s;
        let ambient = self.scenario.environment.ambient_at(t, timing.duration_s);
        for (i, sim) in self.sims.iter_mut().enumerate() {
            let report = if step == 0 {
                Telemetry {
                    time_s: 0.0,
                    voltage_v: sim.terminal_voltage_if(0.0),
                    current_a: 0.0,
                    temperature_c: sim.state().temperature_c,
                }
            } else {
                sim.set_ambient_c(ambient);
                let record = sim.step(self.currents[i][step - 1], timing.dt_s);
                Telemetry {
                    time_s: t,
                    voltage_v: record.voltage_v,
                    current_a: record.current_a,
                    temperature_c: record.temperature_c,
                }
            };
            self.channels[i].transmit(report, &mut self.deliver);
            out.extend(self.deliver.drain(..).map(|frame| (i as CellId, frame)));
        }
        step > 0 && step.is_multiple_of(timing.process_every)
    }

    /// End of stream: reports still held by reordering channels arrive now
    /// (the delayed packet shows up late rather than vanishing).
    pub(crate) fn flush(&mut self, out: &mut Vec<(CellId, Telemetry)>) {
        for (i, channel) in self.channels.iter_mut().enumerate() {
            channel.flush(&mut self.deliver);
            out.extend(self.deliver.drain(..).map(|frame| (i as CellId, frame)));
        }
    }
}

/// Observer hook into a closed-loop scenario run: called with the live
/// engine after every scored processing pass.
///
/// This is the seam the online-adaptation loop (`pinnsoc-adapt`) plugs into:
/// an observer can read per-cell breakdowns, harvest pseudo-labels, and even
/// hot-swap the served model mid-run through
/// [`FleetEngine::registry`] — swaps land at the engine's next batch pass,
/// exactly as in production.
pub trait FleetObserver {
    /// Called after scored engine pass `tick` (1-based), at simulated time
    /// `time_s`.
    fn after_tick(&mut self, fleet: &FleetEngine, tick: usize, time_s: f64);
}

/// The do-nothing observer behind plain [`run_scenario`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl FleetObserver for NoopObserver {
    fn after_tick(&mut self, _: &FleetEngine, _: usize, _: f64) {}
}

/// Runs one scenario's closed loop on the calling thread.
///
/// # Panics
///
/// Panics if the scenario is invalid.
pub fn run_scenario(scenario: &Scenario, model: &SocModel, engine: &EngineSpec) -> ScenarioResult {
    run_scenario_observed(scenario, model, engine, &mut NoopObserver)
}

/// [`run_scenario`] with a [`FleetObserver`] attached (see the trait docs).
///
/// # Panics
///
/// Panics if the scenario is invalid.
pub fn run_scenario_observed(
    scenario: &Scenario,
    model: &SocModel,
    engine: &EngineSpec,
    observer: &mut dyn FleetObserver,
) -> ScenarioResult {
    run_scenario_served(
        scenario,
        &ServedModel::F32(Arc::new(model.clone())),
        engine,
        observer,
    )
}

/// The entry point behind every `run_scenario*` function and the suite
/// runner: the served model decides only how the scenario's
/// [`FleetEngine`] is built — simulation, fault injection, and scoring
/// never branch on it.
///
/// # Panics
///
/// Panics if the scenario is invalid.
pub fn run_scenario_served(
    scenario: &Scenario,
    served: &ServedModel,
    engine: &EngineSpec,
    observer: &mut dyn FleetObserver,
) -> ScenarioResult {
    scenario.validate();
    let mut fleet = served.make_fleet(engine.fleet_config(scenario));
    drive(scenario, &mut fleet, observer)
}

/// The one closed loop: registers the scenario's cells on a fresh `fleet`,
/// feeds it every step's deliveries, runs and scores a pass every
/// `process_every` steps, then delivers the channels' held reports, runs a
/// final pass and scores time-to-empty. [`run_scenario_served`] and the
/// crash harness's uninterrupted control both run exactly this.
pub(crate) fn drive(
    scenario: &Scenario,
    fleet: &mut FleetEngine,
    observer: &mut dyn FleetObserver,
) -> ScenarioResult {
    let timing = &scenario.timing;
    let cells = scenario.population.cells;
    let mut sim = SimLoop::build(scenario);
    for (id, config) in sim.cells() {
        fleet.register(id, config);
    }

    let mut best = ErrorStat::default();
    let mut network = ErrorStat::default();
    let mut coulomb = ErrorStat::default();
    let mut ekf = ErrorStat::default();
    let mut unscored = 0u64;
    let mut ticks = 0usize;
    let mut reports_delivered = 0u64;
    let mut out = Vec::new();
    for step in 0..=timing.steps() {
        let pass_due = sim.step(step, &mut out);
        reports_delivered += out.len() as u64;
        fleet.ingest_batch(&out);
        out.clear();
        if pass_due {
            fleet.process_pending();
            ticks += 1;
            for (i, cell) in sim.sims.iter().enumerate() {
                let truth = cell.state().soc.value();
                match fleet.estimate_breakdown(i as u64) {
                    Some(b) => {
                        best.add(b.best.0 - truth);
                        if let Some(soc) = b.network {
                            network.add(soc - truth);
                        }
                        coulomb.add(b.coulomb - truth);
                        if let Some(soc) = b.ekf {
                            ekf.add(soc - truth);
                        }
                    }
                    None => unscored += 1,
                }
            }
            observer.after_tick(fleet, ticks, step as f64 * timing.dt_s);
        }
    }

    // One final unconditional pass coalesces everything still pending —
    // the flushed holds and any tail steps past the last scoring tick when
    // `steps` is not divisible by `process_every`. Without it the report's
    // telemetry books would miss those reports and the end-of-run TTE would
    // be scored from stale estimates. Absorbed outside the scored ticks —
    // this pass refreshes accounting, not accuracy samples.
    sim.flush(&mut out);
    reports_delivered += out.len() as u64;
    fleet.ingest_batch(&out);
    fleet.process_pending();

    // Time-to-empty at the scenario's end, against the simulator's true
    // remaining charge, at a 1C (fresh-capacity) reference discharge.
    let reference_a = scenario.population.params.c_rate(1.0);
    let mut tte_sum = 0.0;
    let mut tte_max = 0.0f64;
    let mut tte_count = 0u64;
    let mut true_soc_sum = 0.0;
    for (i, (cell, config)) in sim.sims.iter().zip(&sim.configs).enumerate() {
        let truth = cell.state().soc.value();
        true_soc_sum += truth;
        if let Some(predicted) = fleet.time_to_empty(i as u64, reference_a) {
            let actual = truth * 3600.0 * config.capacity_ah / reference_a;
            let error = (predicted - actual).abs();
            tte_sum += error;
            tte_max = tte_max.max(error);
            tte_count += 1;
        }
    }

    let mut injected = FaultCounts::default();
    for channel in &sim.channels {
        injected.accumulate(&channel.counts);
    }
    ScenarioResult {
        name: scenario.name.clone(),
        seed: scenario.seed,
        cells,
        ticks,
        // Every cell reports once at t = 0 and once per step.
        reports_generated: (cells * (timing.steps() + 1)) as u64,
        reports_delivered,
        injected,
        telemetry: fleet.telemetry_stats(),
        best: best.finish(),
        network: network.finish(),
        coulomb: coulomb.finish(),
        ekf: ekf.finish(),
        time_to_empty: TteAccuracy {
            mean_abs_error_s: if tte_count > 0 {
                tte_sum / tte_count as f64
            } else {
                0.0
            },
            max_abs_error_s: tte_max,
            count: tte_count,
        },
        unscored_cell_ticks: unscored,
        final_mean_true_soc: true_soc_sum / cells as f64,
    }
}
