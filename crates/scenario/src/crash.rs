//! Seeded crash injection for closed-loop scenarios.
//!
//! [`run_crash_scenario`] runs a scenario twice: once uninterrupted against
//! a plain [`FleetEngine`] (the control — the same closed loop
//! [`crate::run_scenario`] scores, not a copy of it), and once against a
//! [`DurableFleet`] that is **killed** at a seeded tick — the process-death
//! simulation drops the fleet without its final flush and then vandalizes
//! the durability directory according to the [`CrashPoint`] — recovered
//! with [`pinnsoc_durable::recover`], and driven to the end of the
//! scenario. The returned [`CrashScenarioRun`] carries both final per-cell
//! estimate sets; [`CrashScenarioRun::bit_identical`] is the paper-grade
//! acceptance check: crash + recovery must be invisible in the estimates.
//!
//! ## Why the continuation is exact
//!
//! Every generation-side component — population draws, ground-truth
//! simulators, load profiles, fault channels — is a pure function of the
//! scenario seed, derived in one place that the control, the doomed run
//! and the continuation all build. The continuation rebuilds it from
//! scratch and fast-forwards to the recovered tick boundary *discarding*
//! deliveries (they are already committed inside the recovered engine),
//! then delivers normally from there. Held packets inside reordering fault
//! channels are reproduced by the fast-forward, so nothing is delivered
//! twice and nothing is lost — exactly the recovery procedure a real fleet
//! gateway would run by replaying its upstream feed from the last commit.

use crate::runner::{drive, EngineSpec, NoopObserver, SimLoop};
use crate::spec::Scenario;
use pinnsoc::SocModel;
use pinnsoc_durable::{record_recovery, recover, DurableConfig, DurableFleet, RecoveryReport};
use pinnsoc_fleet::{CellId, FleetEngine, SocEstimate};
use pinnsoc_obs::ObsHub;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Where in the durability machinery the seeded kill lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Death mid-tick: part of the next tick's reports sit in the WAL
    /// buffer (lost with the process) and a torn partial write is appended
    /// to the live segment.
    MidTick,
    /// Death mid-snapshot: a partial `snapshot.tmp` is left behind; the
    /// previous complete snapshot must win (temp-write + rename
    /// atomicity).
    MidSnapshot,
    /// Death mid-rotation/flush: the live segment loses its tail bytes,
    /// possibly cutting into committed records — recovery then lands on an
    /// earlier commit and the continuation replays further.
    MidRotation,
}

/// One seeded kill: when, where, and the durability cadence under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Committed tick after which the process dies (must be at least 1 and
    /// before the scenario's final tick).
    pub kill_tick: u64,
    /// What the death tears.
    pub point: CrashPoint,
    /// Snapshot cadence of the durable fleet under test.
    pub snapshot_every_ticks: u64,
    /// WAL segment rotation threshold, bytes — small by default so crash
    /// scenarios exercise rotation.
    pub max_segment_bytes: u64,
}

impl CrashPlan {
    /// A mid-tick kill after `kill_tick` commits, with a small snapshot
    /// cadence and segment size so snapshots and rotations both happen.
    pub fn at_tick(kill_tick: u64) -> Self {
        Self {
            kill_tick,
            point: CrashPoint::MidTick,
            snapshot_every_ticks: 4,
            max_segment_bytes: 64 << 10,
        }
    }

    /// The same plan with a different [`CrashPoint`].
    pub fn with_point(mut self, point: CrashPoint) -> Self {
        self.point = point;
        self
    }
}

/// One cell's final estimate, in bit-comparable form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellEstimate {
    /// The cell id.
    pub id: CellId,
    /// The best SoC estimate's raw bits ([`f64::to_bits`]).
    pub soc_bits: u64,
    /// Which estimator produced it.
    pub source: SocEstimate,
}

/// What [`run_crash_scenario`] produced.
#[derive(Debug, Clone)]
pub struct CrashScenarioRun {
    /// What recovery found on disk.
    pub recovery: RecoveryReport,
    /// Committed tick the crash run resumed from (≤ the kill tick when the
    /// crash point tore committed records).
    pub resumed_tick: u64,
    /// Committed ticks at the end of the crash run (scored ticks plus the
    /// final coalescing pass).
    pub final_tick: u64,
    /// Final estimates of the uninterrupted control run, by cell id.
    pub control: Vec<CellEstimate>,
    /// Final estimates of the crash-recover-continue run, by cell id.
    pub recovered: Vec<CellEstimate>,
}

impl CrashScenarioRun {
    /// `true` when the crash run's final estimates are bit-identical to
    /// the control's — the durability acceptance criterion.
    pub fn bit_identical(&self) -> bool {
        self.control == self.recovered
    }
}

fn final_estimates(engine: &FleetEngine) -> Vec<CellEstimate> {
    engine
        .ids()
        .into_iter()
        .map(|id| {
            let (soc, source) = engine.estimate(id).expect("registered cell");
            CellEstimate {
                id,
                soc_bits: soc.to_bits(),
                source,
            }
        })
        .collect()
}

/// Vandalizes a durability directory the way the given crash point would,
/// with damage sizes drawn deterministically from `seed`. Public so other
/// crash harnesses (the service tier's per-engine kill test) can reuse the
/// exact process-death simulation [`run_crash_scenario`] applies.
///
/// # Errors
///
/// Propagates filesystem failures from the vandalism itself.
pub fn tear_directory(dir: &Path, seed: u64, point: CrashPoint) -> std::io::Result<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let live_segment = || -> std::io::Result<Option<std::path::PathBuf>> {
        let mut segments: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("wal-"))
                    .unwrap_or(false)
            })
            .collect();
        segments.sort();
        Ok(segments.pop())
    };
    match point {
        CrashPoint::MidTick => {
            // A torn partial append on the live segment.
            if let Some(path) = live_segment()? {
                let torn: Vec<u8> = (0..rng.gen_range(1..64usize))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect();
                std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)?
                    .write_all(&torn)?;
            }
        }
        CrashPoint::MidSnapshot => {
            // A half-written snapshot temp file that must never shadow the
            // completed snapshot.
            let torn: Vec<u8> = (0..rng.gen_range(16..256usize))
                .map(|_| rng.gen::<u32>() as u8)
                .collect();
            std::fs::write(dir.join("snapshot.tmp"), torn)?;
        }
        CrashPoint::MidRotation => {
            // The live segment loses its tail, possibly mid-record and
            // possibly into committed records.
            if let Some(path) = live_segment()? {
                let len = std::fs::metadata(&path)?.len();
                let cut = rng.gen_range(1..48u64).min(len);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(len - cut)?;
            }
        }
    }
    Ok(())
}

/// Runs `scenario` against a [`DurableFleet`] rooted at `dir`, kills it
/// per `plan`, recovers, finishes the scenario, and returns both the
/// crash run's and an uninterrupted control's final estimates.
///
/// Recovery counters land in `obs` when one is given (the
/// `pinnsoc_durable_recovery_*` series).
///
/// # Panics
///
/// Panics if the scenario is invalid or `plan.kill_tick` is not inside
/// the scenario's scored tick range.
///
/// # Errors
///
/// Propagates durability I/O failures.
pub fn run_crash_scenario(
    scenario: &Scenario,
    model: &SocModel,
    engine: &EngineSpec,
    plan: &CrashPlan,
    dir: &Path,
    obs: Option<&Arc<ObsHub>>,
) -> std::io::Result<CrashScenarioRun> {
    scenario.validate();
    let timing = &scenario.timing;
    let steps = timing.steps();
    let total_ticks = (steps / timing.process_every) as u64;
    assert!(
        plan.kill_tick >= 1 && plan.kill_tick < total_ticks,
        "kill_tick {} outside scored tick range 1..{total_ticks}",
        plan.kill_tick
    );

    // The control is the scenario's own closed loop, against a plain
    // engine.
    let mut control = FleetEngine::new(model.clone(), engine.fleet_config(scenario));
    drive(scenario, &mut control, &mut NoopObserver);

    let config = DurableConfig {
        snapshot_every_ticks: plan.snapshot_every_ticks,
        max_segment_bytes: plan.max_segment_bytes,
        ..DurableConfig::new(dir)
    };

    // Phase 1: the doomed run, up to and including the kill tick's commit.
    let mut sim = SimLoop::build(scenario);
    let mut doomed = DurableFleet::create(
        FleetEngine::new(model.clone(), engine.fleet_config(scenario)),
        config.clone(),
    )?;
    for (id, cell_config) in sim.cells() {
        doomed.register(id, cell_config);
    }
    let mut out = Vec::new();
    let kill_step = plan.kill_tick as usize * timing.process_every;
    for step in 0..=kill_step {
        let pass_due = sim.step(step, &mut out);
        doomed.ingest_batch(&out);
        out.clear();
        if pass_due {
            doomed.process_pending()?;
        }
    }
    debug_assert_eq!(doomed.tick(), plan.kill_tick);
    if plan.point == CrashPoint::MidTick {
        // Half a tick in flight: these reports die in the WAL buffer.
        sim.step(kill_step + 1, &mut out);
        doomed.ingest_batch(&out);
        out.clear();
    }
    // The kill: no flush, no shutdown — the process is simply gone.
    drop(doomed);
    tear_directory(dir, scenario.seed ^ 0xC4A5_0FDE_AD00_0001, plan.point)?;

    // Phase 2: recover, then continue the scenario from the recovered
    // commit with freshly rebuilt (seed-identical) generation state.
    let (mut fleet, recovery) = recover(config, engine.workers)?;
    if let Some(hub) = obs {
        record_recovery(hub, &recovery);
    }
    let resumed_tick = fleet.tick();
    let resume_step = resumed_tick as usize * timing.process_every;
    let mut sim = SimLoop::build(scenario);
    for step in 0..=steps {
        let pass_due = sim.step(step, &mut out);
        if step <= resume_step {
            // Fast-forward: these deliveries are inside the recovered
            // state; the channels still need to see the traffic so held
            // packets reproduce.
            out.clear();
            continue;
        }
        fleet.ingest_batch(&out);
        out.clear();
        if pass_due {
            fleet.process_pending()?;
        }
    }
    sim.flush(&mut out);
    fleet.ingest_batch(&out);
    fleet.process_pending()?;

    Ok(CrashScenarioRun {
        recovery,
        resumed_tick,
        final_tick: fleet.tick(),
        control: final_estimates(&control),
        recovered: final_estimates(fleet.engine()),
    })
}
