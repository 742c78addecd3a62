//! The serve tier itself: N independent fleet engines behind a rendezvous
//! router, each fed by its own bounded ingest ring. A tick runs every live
//! lane as a task on the tier's lane pool, each lane refreshing its own
//! estimate buffer after its pass, and publishes one read-side snapshot at
//! the join by merging those buffers in id order.
//!
//! ## Dataflow
//!
//! ```text
//! producers ──IngestHandle::ingest──▶ ring[route(id)]          (lock-free)
//!                                        │
//! tick():  lane pool, one task per live lane (in parallel from 4,096 queued frames):
//!            pop ≤ 4,096 frames ──▶ chunk ──▶ engine.ingest_batch ──┐  (until empty
//!            (lane-owned buffer)      (resolve slots, then absorb)  │   or ≤ capacity)
//!            ◀──────────────────────────────────────────────────────┘
//!            process_pending: pass (+ WAL flush, snapshot on a durable lane)
//!            refresh: changed cells (slot order) ──▶ lane estimate buffer
//!                     (every position after a membership change)
//!                                        │
//!          join: every lane back in its seat ──▶ one publish (tick thread):
//!          membership_epoch per lane ──▶ same as last publish?
//!             yes: for_each_changed ──▶ rank bitmap ──▶ merge into reclaimed buffer ─┐
//!             no:  reporting sweep ──▶ sort by id ──▶ new ranks, merge all ───────────┤
//!                  (the merge reads the lane buffers, in rank order)                  ▼
//!                         fold ──▶ ServeSnapshot (cells + id/SoC columns) ──▶ publish
//!                                        │
//! readers ──SnapshotReader::snapshot──▶ Arc clone, query off-lock
//! ```
//!
//! Backpressure is explicit end to end: a full ring returns
//! [`IngestOutcome::Backpressure`] to the producer immediately (nothing
//! blocks, nothing is silently dropped), and once frames are drained the
//! engines' own [`pinnsoc_fleet::AbsorbOutcome`] accounting — duplicates,
//! non-finite fields, time-reversed stamps, unknown cells — lands in the
//! per-tick [`TickReport::telemetry`] delta.
//!
//! ## Lanes in parallel
//!
//! Lanes share nothing but the clock, so a tick runs them as tasks on a
//! persistent lane pool (the fleet's [`WorkerPool`], re-exported from
//! `pinnsoc_fleet::runtime`). A lane's engine and buffers move into its
//! task by ownership and come back at the join; its ring and durability
//! configuration stay in the tier. The pool's helper count is
//! [`FleetConfig::resolved_workers`] capped at `engines − 1`, and the tick
//! thread always takes a lane itself, so `0` helpers is the serial tick,
//! not a separate path. Helpers are woken only when the live lanes hold
//! at least 4,096 queued frames between them; below that the same pool
//! run executes every lane on the tick thread, since a trickle of frames
//! costs less than a wake-up and the handoff back. Publish, the latency
//! pass, metrics, the SLO and health all run on the tick thread after the
//! join.
//!
//! A lane drains its ring in chunks of at most 4,096 frames into a buffer
//! it owns, up to the ring's capacity per tick. Each chunk goes to the
//! engine as one batch: the engine resolves every frame's `(shard, slot)`
//! before it absorbs any, in arrival order, so chunked batches are
//! bit-identical to per-frame ingest. Plain and durable lanes share this
//! one drain path; a durable lane logs each chunk's reports to its WAL
//! first. Then the lane runs its batch pass (plus the WAL flush and any
//! due snapshot on a durable lane), and refreshes its estimate buffer: one
//! compact [`pinnsoc_fleet::EstimateEntry`] per engine position, rewritten
//! for the cells the pass changed (read shard by shard, in slot order), or
//! for every position when the buffer is not known to be current (the
//! lane's first tick, a membership change, a pass that returned an error,
//! a recovered engine). The buffer is marked stale before the drain and
//! current only after the refresh, so a failed WAL flush leaves it to be
//! swept on the lane's next run.
//!
//! Nothing observable depends on the lane pool's size: the WAL and
//! snapshot files a lane writes depend only on its own frames, and
//! publish places cells by id rank, so snapshots are bit-identical for
//! any lane-thread count.
//!
//! Publishing costs what changed, not what exists, and reads no engine
//! cell state: the id directory (see the `directory` module) remembers
//! each cell's rank in id order while no lane's membership epoch moves,
//! sets the ranks whose cells this tick's passes estimated in a bitmap,
//! and merges those (and the previous tick's) from the lane buffers into
//! the snapshot buffer it reclaims, in rank order. It sweeps and sorts only
//! on the tick membership changes. The aggregate fold over the SoC column
//! follows. Tracing shows the two as `place` and `fold` under `publish`.
//!
//! Ingest-to-estimate latency (producer enqueue to snapshot publish) is
//! measured per frame only while something consumes it. Attaching an
//! [`ObsHub`] or an SLO sets a flag that every [`IngestHandle`] shares;
//! from then on producers stamp each frame with its enqueue instant, each
//! lane keeps the instants of the stamped frames it drains and, in one
//! pass after publish, the tick feeds the
//! `pinnsoc_serve_ingest_latency_seconds` histogram and the latency SLO's
//! good/bad counts. Frames enqueued before the attach carry no instant and
//! are not timed. With neither attached, producers read no clock and the
//! tick keeps no per-frame state.

use crate::directory::{IdDirectory, LaneEstimates};
use crate::health::{HealthBoard, LaneHealth, ServeSlo, SloConfig, SloReport, SloSummary};
use crate::ring::IngestRing;
use crate::router::EngineRouter;
use crate::snapshot::{ServeSnapshot, SnapshotReader, SnapshotSlot};
use pinnsoc::SocModel;
use pinnsoc_durable::{record_recovery, recover, DurableConfig, DurableFleet, RecoveryReport};
use pinnsoc_fleet::runtime::{Done, NoContext, PoolObs, PoolTask, WorkerPool};
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry, TelemetryStats};
use pinnsoc_obs::{FlightRecorder, LocalMetrics, MetricId, ObsHub, SpanId, TraceSink};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-engine durability: each engine gets its own `engine-NNN`
/// subdirectory under `root`, WAL-logged and snapshotted independently,
/// so one engine's crash never touches its peers' state.
#[derive(Debug, Clone)]
pub struct DurabilitySpec {
    /// Root directory; lane `i` persists under `root/engine-00i`.
    pub root: PathBuf,
    /// Snapshot cadence per engine, in committed ticks (`0` disables the
    /// cadence).
    pub snapshot_every_ticks: u64,
}

/// Tier-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent [`FleetEngine`] instances cells are partitioned
    /// across.
    pub engines: usize,
    /// Ingest ring slots per engine (rounded up to a power of two). Also
    /// the per-lane drain bound per tick, so one tick's work is bounded
    /// even while producers keep pushing.
    pub ring_capacity: usize,
    /// Configuration applied to every engine. Its resolved
    /// [`FleetConfig::workers`] also sizes the tier's lane pool, capped at
    /// `engines − 1` helper threads (the tick thread runs a lane too).
    pub fleet: FleetConfig,
    /// When set, every engine is wrapped in a [`DurableFleet`].
    pub durability: Option<DurabilitySpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engines: 2,
            ring_capacity: 4096,
            fleet: FleetConfig::default(),
            durability: None,
        }
    }
}

/// One telemetry frame in flight between a producer and its engine.
#[derive(Debug, Clone, Copy)]
pub struct IngestFrame {
    /// Destination cell.
    pub id: CellId,
    /// The report itself.
    pub telemetry: Telemetry,
    /// When the producer enqueued it — the start of the
    /// ingest-to-estimate latency, measured at snapshot publish. `Some`
    /// only for frames enqueued after an obs hub or an SLO was attached:
    /// with neither, the producer reads no clock. (`Option<Instant>` is
    /// as large as `Instant`, so the frame does not grow.)
    pub enqueued: Option<Instant>,
}

/// What happened to one [`IngestHandle::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Enqueued on the owning engine's ring; it will integrate at that
    /// engine's next drain.
    Enqueued {
        /// The engine the router picked.
        engine: usize,
    },
    /// The owning engine's ring is full — the frame was refused and
    /// counted, not dropped silently and not blocked on. The producer
    /// decides whether to retry after the next tick, shed load, or
    /// escalate.
    Backpressure {
        /// The engine whose ring refused the frame.
        engine: usize,
    },
}

impl IngestOutcome {
    /// Whether the frame made it onto a ring.
    pub fn enqueued(self) -> bool {
        matches!(self, IngestOutcome::Enqueued { .. })
    }

    /// The engine the router picked, regardless of outcome.
    pub fn engine(self) -> usize {
        match self {
            IngestOutcome::Enqueued { engine } | IngestOutcome::Backpressure { engine } => engine,
        }
    }
}

/// Cloneable, lock-free producer handle: route a report to its engine's
/// ring from any thread.
#[derive(Debug, Clone)]
pub struct IngestHandle {
    router: EngineRouter,
    rings: Vec<Arc<IngestRing<IngestFrame>>>,
    /// The tier's timing flag: set once an obs hub or an SLO consumes
    /// ingest latency.
    timed: Arc<AtomicBool>,
}

impl IngestHandle {
    /// Enqueues one report on the owning engine's ring, stamped with the
    /// current instant only while the tier times ingest latency (an obs
    /// hub or an SLO attached — including an attach after this handle was
    /// cloned). Otherwise it reads no clock.
    pub fn ingest(&self, id: CellId, telemetry: Telemetry) -> IngestOutcome {
        let engine = self.router.route(id);
        // `Relaxed` suffices: the flag publishes no data, and a push that
        // happens after the attach reads the store by coherence alone.
        let frame = IngestFrame {
            id,
            telemetry,
            enqueued: self.timed.load(Ordering::Relaxed).then(Instant::now),
        };
        match self.rings[engine].push(frame) {
            Ok(()) => IngestOutcome::Enqueued { engine },
            Err(_) => IngestOutcome::Backpressure { engine },
        }
    }

    /// The router this handle shares with the tier.
    pub fn router(&self) -> &EngineRouter {
        &self.router
    }
}

/// What one [`ServeTier::tick`] did: counts only, nothing per frame.
/// Per-frame latency goes to the obs histogram and the latency SLO (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The tier tick just completed (1-based).
    pub tick: u64,
    /// Frames drained from the rings this tick.
    pub drained: usize,
    /// Reports the engines folded into cell state this tick.
    pub integrated: usize,
    /// Cells re-estimated by the batch passes this tick.
    pub estimated: usize,
    /// This tick's absorb accounting delta, summed over live engines:
    /// accepted, duplicate-timestamp, non-finite, time-reversed, and
    /// unknown-cell counts.
    pub telemetry: TelemetryStats,
    /// Cumulative frames refused ring-side since tier construction — the
    /// backpressure outcome, sitting alongside the engine-side causes in
    /// [`Self::telemetry`].
    pub backpressure_total: u64,
    /// Crashed lanes skipped this tick (their rings keep buffering).
    pub skipped_lanes: usize,
    /// Reporting cells in the snapshot just published.
    pub snapshot_cells: usize,
}

/// Registered metric ids for the tier (see `pinnsoc-obs`).
struct ServeObs {
    hub: Arc<ObsHub>,
    ingest_total: MetricId,
    backpressure_total: MetricId,
    skipped_lane_ticks_total: MetricId,
    snapshot_cells: MetricId,
    snapshot_rebuilds_total: MetricId,
    snapshot_changed_cells: MetricId,
    latency_seconds: MetricId,
    /// Lock-free buffer for the per-frame latency observations, merged
    /// once per tick.
    local: LocalMetrics,
    last_backpressure: u64,
}

impl ServeObs {
    fn new(hub: &Arc<ObsHub>) -> Self {
        let registry = hub.registry();
        ServeObs {
            hub: Arc::clone(hub),
            ingest_total: registry.counter(
                "pinnsoc_serve_ingest_total",
                "Telemetry frames drained from ingest rings",
            ),
            backpressure_total: registry.counter(
                "pinnsoc_serve_backpressure_total",
                "Frames refused because an ingest ring was full",
            ),
            skipped_lane_ticks_total: registry.counter(
                "pinnsoc_serve_skipped_lane_ticks_total",
                "Lane-ticks skipped because the engine was down",
            ),
            snapshot_cells: registry.gauge(
                "pinnsoc_serve_snapshot_cells",
                "Reporting cells in the latest published snapshot",
            ),
            snapshot_rebuilds_total: registry.counter(
                "pinnsoc_serve_snapshot_rebuilds_total",
                "Publishes that re-ranked every cell after a membership change",
            ),
            snapshot_changed_cells: registry.gauge(
                "pinnsoc_serve_snapshot_changed_cells",
                "Ranks the latest publish read from the lanes' estimate buffers",
            ),
            latency_seconds: registry.histogram(
                "pinnsoc_serve_ingest_latency_seconds",
                "Producer enqueue to snapshot publish, per frame",
                &[
                    10e-6, 30e-6, 100e-6, 300e-6, 1e-3, 3e-3, 10e-3, 30e-3, 100e-3, 300e-3, 1.0,
                ],
            ),
            // Built after every tier series above is registered.
            local: registry.local(),
            last_backpressure: 0,
        }
    }

    fn record(&mut self, report: &TickReport, rebuilt: bool, changed_cells: usize) {
        let registry = self.hub.registry();
        registry.add(self.snapshot_rebuilds_total, u64::from(rebuilt));
        registry.set(self.snapshot_changed_cells, changed_cells as f64);
        registry.add(self.ingest_total, report.drained as u64);
        let backpressure_delta = report.backpressure_total - self.last_backpressure;
        self.last_backpressure = report.backpressure_total;
        registry.add(self.backpressure_total, backpressure_delta);
        registry.add(self.skipped_lane_ticks_total, report.skipped_lanes as u64);
        registry.set(self.snapshot_cells, report.snapshot_cells as f64);
        registry.merge(&mut self.local);
    }
}

/// The tier's flight-recorder attachment: its own sink for the root
/// `tick` span (pid 0), the `publish` span with its `place` and `fold`
/// children, and down lanes' empty `lane` spans, plus the recorder handle
/// so [`ServeTier::recover_engine`] can re-attach a recovered engine's
/// tracer. Live lanes record into their
/// own sinks ([`LaneBuffers::sink`]), merged at the join.
struct TierTracer {
    recorder: Arc<FlightRecorder>,
    sink: TraceSink,
}

/// Frames a lane pops and ingests per chunk: its batch buffer never grows
/// past this, however deep the ring.
const DRAIN_CHUNK: usize = 4096;

/// Queued frames, summed over live lanes, from which a tick wakes the lane
/// pool's helpers. Below it the lanes' whole drain, ingest and pass cost
/// less than a helper's wake-up and handoff back, so the tick thread runs
/// them through the same pool run without waking anyone: a helper woken
/// for a few dozen frames only competes for a core with the engines' own
/// pass helpers and the producers, and makes tick time ride on the host's
/// scheduling.
const WAKE_HELPERS_FRAMES: usize = DRAIN_CHUNK;

/// One engine's seat in the tier.
struct Lane {
    backend: Backend,
    ring: Arc<IngestRing<IngestFrame>>,
    /// The durability configuration this lane was created with — what
    /// [`ServeTier::recover_engine`] replays from.
    durable_config: Option<DurableConfig>,
    /// Reused from tick to tick; travels into the lane pool with the
    /// backend.
    buffers: LaneBuffers,
}

/// A lane's reusable tick state.
#[derive(Default)]
struct LaneBuffers {
    /// One chunk of popped frames, handed to the engine as one batch.
    batch: Vec<(CellId, Telemetry)>,
    /// Enqueue instants of the stamped frames drained this tick (only
    /// frames enqueued while an obs hub or an SLO consumes their latency
    /// carry one).
    drained_at: Vec<Instant>,
    /// The lane's own trace sink while a recorder is attached.
    sink: Option<TraceSink>,
    /// The engine's estimates by position, refreshed after each pass:
    /// what publish reads instead of the engine.
    estimates: LaneEstimates,
}

/// One live lane's tick on the lane pool: its backend and buffers, out of
/// the seat for one run.
struct LaneTask {
    /// Trace process row: lane index + 1.
    pid: u32,
    ring: Arc<IngestRing<IngestFrame>>,
    backend: Backend,
    buffers: LaneBuffers,
}

/// What every lane task of one tick shares.
#[derive(Debug, Clone, Copy)]
struct LaneJob {
    /// The root span each `lane` span parents under (0 untraced).
    tick_span: SpanId,
    tracing: bool,
}

/// Counts one lane task reports back.
#[derive(Debug, Default)]
struct LaneTally {
    drained: usize,
    integrated: usize,
    estimated: usize,
}

impl PoolTask for LaneTask {
    type Ctx = ();
    type Kind = LaneJob;
    type Output = io::Result<LaneTally>;

    /// Drains the ring in chunks, runs the lane's pass, then refreshes the
    /// lane's estimate buffer; records the lane's spans into its own sink.
    fn run(&mut self, (): &(), job: LaneJob) -> io::Result<LaneTally> {
        let LaneBuffers {
            batch,
            drained_at,
            sink,
            estimates,
        } = &mut self.buffers;
        // Stale from here until the refresh: a pass that fails leaves the
        // buffer to be swept on the lane's next run.
        let known = estimates.invalidate();
        let mut sink = sink.as_mut().filter(|_| job.tracing);
        let lane_start = sink.is_some().then(Instant::now);
        let lane_span = sink.as_mut().map_or(0, |sink| sink.open());
        let pid = self.pid;
        drained_at.clear();
        let mut tally = LaneTally::default();
        // The drain bound: at most one ring's worth per tick, so
        // concurrent producers can never pin the lane in its drain.
        let mut bound = self.ring.capacity();
        loop {
            let chunk_start = sink.is_some().then(Instant::now);
            let take = bound.min(DRAIN_CHUNK);
            batch.clear();
            for _ in 0..take {
                let Some(frame) = self.ring.pop() else { break };
                batch.push((frame.id, frame.telemetry));
                if let Some(at) = frame.enqueued {
                    drained_at.push(at);
                }
            }
            bound -= batch.len();
            tally.drained += batch.len();
            let popped = sink.is_some().then(Instant::now);
            self.backend.ingest_batch(batch);
            if let (Some(sink), Some(start), Some(popped)) = (sink.as_mut(), chunk_start, popped) {
                let _ = sink.record("drain", "serve", pid, 0, lane_span, start, popped);
                let _ = sink.record("ingest", "serve", pid, 0, lane_span, popped, Instant::now());
            }
            if batch.len() < take || bound == 0 {
                break;
            }
        }
        (tally.integrated, tally.estimated) = self.backend.process_pending(lane_span)?;
        let refresh_start = sink.is_some().then(Instant::now);
        let engine = self.backend.engine().expect("a lane task's engine is live");
        estimates.refresh(engine, known);
        if let (Some(sink), Some(start)) = (sink.as_mut(), refresh_start) {
            let _ = sink.record("refresh", "serve", pid, 0, lane_span, start, Instant::now());
        }
        if let (Some(sink), Some(start)) = (sink, lane_start) {
            if let Some((flush_start, flush_end)) = self.backend.last_flush_span() {
                let _ = sink.record(
                    "wal_flush",
                    "durable",
                    pid,
                    0,
                    lane_span,
                    flush_start,
                    flush_end,
                );
            }
            sink.complete(
                lane_span,
                "lane",
                "serve",
                pid,
                0,
                job.tick_span,
                start,
                Instant::now(),
            );
        }
        Ok(tally)
    }
}

enum Backend {
    Plain(Box<FleetEngine>),
    Durable(Box<DurableFleet>),
    /// Simulated (or real) process death: the engine is gone; its ring
    /// keeps accepting frames until full, then surfaces backpressure —
    /// graceful degradation instead of lost telemetry.
    Down,
}

impl Backend {
    fn engine(&self) -> Option<&FleetEngine> {
        match self {
            Backend::Plain(engine) => Some(engine),
            Backend::Durable(fleet) => Some(fleet.engine()),
            Backend::Down => None,
        }
    }

    /// Folds one drained batch into the lane's engine (through the WAL on
    /// a durable lane). Never called on a down lane.
    fn ingest_batch(&mut self, frames: &[(CellId, Telemetry)]) {
        match self {
            Backend::Plain(engine) => engine.ingest_batch(frames),
            Backend::Durable(fleet) => fleet.ingest_batch(frames),
            Backend::Down => unreachable!("down lanes are not drained"),
        };
    }

    /// Start and end of the WAL flush in the lane's latest pass (`None`
    /// on a plain lane).
    fn last_flush_span(&self) -> Option<(Instant, Instant)> {
        match self {
            Backend::Durable(fleet) => fleet.last_flush_span(),
            Backend::Plain(_) | Backend::Down => None,
        }
    }

    /// The lane's batch pass (and WAL commit on a durable lane).
    fn process_pending(&mut self, trace_parent: SpanId) -> io::Result<(usize, usize)> {
        match self {
            Backend::Plain(engine) => {
                engine.set_trace_parent(trace_parent);
                Ok(engine.process_pending())
            }
            Backend::Durable(fleet) => {
                fleet.engine_mut().set_trace_parent(trace_parent);
                fleet.process_pending()
            }
            Backend::Down => unreachable!("down lanes are not drained"),
        }
    }
}

/// A multi-engine serving deployment: construction, control plane, and
/// the tick loop. See the [crate docs](crate) for the full contract.
pub struct ServeTier {
    lanes: Vec<Lane>,
    router: EngineRouter,
    slot: Arc<SnapshotSlot>,
    /// The snapshot the last publish displaced (double-buffering: its
    /// cell buffer is reclaimed next tick unless a reader still pins it).
    displaced: Option<Arc<ServeSnapshot>>,
    /// Engine position ↔ rank in id order, reused while membership holds.
    directory: IdDirectory,
    /// Whether the directory and the published snapshot account for every
    /// change the engines reported: false before the first publish, after
    /// a lane recovers (a new engine, whose epoch counts afresh), and from
    /// a tick's first pass until its publish, so a tick that fails in
    /// between makes the next one rebuild.
    synced: bool,
    tick: u64,
    config: ServeConfig,
    obs: Option<ServeObs>,
    tracer: Option<TierTracer>,
    slo: Option<ServeSlo>,
    health: Option<Arc<HealthBoard>>,
    /// Runs each tick's live lanes; the tick thread takes part.
    lane_pool: WorkerPool<NoContext, LaneTask>,
    /// Reused submit and join buffers of the lane pool.
    lane_tasks: Vec<(usize, LaneTask)>,
    lane_done: Vec<Done<LaneTask>>,
    /// Whether producers stamp frames with their enqueue instant: set by
    /// [`Self::attach_obs`] and [`Self::attach_slo`], shared with every
    /// [`IngestHandle`].
    timed: Arc<AtomicBool>,
}

impl ServeTier {
    /// Builds the tier: `config.engines` engines, each serving a clone of
    /// `model`, each with its own ingest ring, and — when
    /// [`ServeConfig::durability`] is set — each inside its own
    /// [`DurableFleet`] subdirectory.
    ///
    /// # Errors
    ///
    /// Propagates durability-directory creation failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.engines` is zero.
    pub fn new(model: SocModel, config: ServeConfig) -> io::Result<Self> {
        let router = EngineRouter::new(config.engines);
        let mut lanes = Vec::with_capacity(config.engines);
        for idx in 0..config.engines {
            let engine = FleetEngine::new(model.clone(), config.fleet.clone());
            let (backend, durable_config) = match &config.durability {
                Some(spec) => {
                    let durable_config = DurableConfig {
                        snapshot_every_ticks: spec.snapshot_every_ticks,
                        ..DurableConfig::new(spec.root.join(format!("engine-{idx:03}")))
                    };
                    let fleet = DurableFleet::create(engine, durable_config.clone())?;
                    (Backend::Durable(Box::new(fleet)), Some(durable_config))
                }
                None => (Backend::Plain(Box::new(engine)), None),
            };
            lanes.push(Lane {
                backend,
                ring: Arc::new(IngestRing::with_capacity(config.ring_capacity)),
                durable_config,
                buffers: LaneBuffers::default(),
            });
        }
        let helpers = config
            .fleet
            .resolved_workers()
            .min(config.engines.saturating_sub(1));
        Ok(ServeTier {
            lanes,
            router,
            slot: SnapshotSlot::new(),
            displaced: None,
            directory: IdDirectory::default(),
            synced: false,
            tick: 0,
            config,
            obs: None,
            tracer: None,
            slo: None,
            health: None,
            lane_pool: WorkerPool::new(Arc::new(NoContext), helpers),
            lane_tasks: Vec::new(),
            lane_done: Vec::new(),
            timed: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Attaches observability: tier-level ingest/backpressure/latency
    /// series, the lane pool's `pinnsoc_runtime_pool_*` series (labelled
    /// `pool="serve-lanes"`), plus each engine's own fleet series.
    pub fn attach_obs(&mut self, hub: &Arc<ObsHub>) {
        self.lane_pool.attach_obs(PoolObs::new(hub, "serve-lanes"));
        for lane in &mut self.lanes {
            match &mut lane.backend {
                Backend::Plain(engine) => engine.attach_obs(hub),
                Backend::Durable(fleet) => fleet.attach_obs(hub),
                Backend::Down => {}
            }
        }
        self.obs = Some(ServeObs::new(hub));
        self.timed.store(true, Ordering::Relaxed);
    }

    /// Attaches a flight recorder: each [tick](Self::tick) records a root
    /// `tick` span (trace process 0) with one `lane` span per engine
    /// (process `i + 1`); live lanes' spans overlap in time, since lanes
    /// run in parallel. A live lane's span holds one `drain` span (ring
    /// pops) and one `ingest` span (the engine's batched absorb, WAL
    /// appends included) per drained chunk, the engine's own
    /// `engine_tick` → `pass` → stage tree and, on a durable lane, a
    /// `wal_flush` span (the tick-boundary WAL encode + checksum + write
    /// that follows the pass) and a `refresh` span (the lane's estimate
    /// buffer refresh). A `publish` span covers building the snapshot after
    /// the join, split into `place` (the rank-order merge from the lane
    /// buffers) and `fold` (the aggregates). A lane recovered by
    /// [`Self::recover_engine`] re-attaches automatically.
    pub fn attach_tracer(&mut self, recorder: &Arc<FlightRecorder>) {
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            let pid = idx as u32 + 1;
            lane.buffers.sink = Some(recorder.sink());
            match &mut lane.backend {
                Backend::Plain(engine) => engine.attach_tracer(recorder, pid),
                Backend::Durable(fleet) => fleet.engine_mut().attach_tracer(recorder, pid),
                Backend::Down => {}
            }
        }
        self.tracer = Some(TierTracer {
            recorder: Arc::clone(recorder),
            sink: recorder.sink(),
        });
    }

    /// Whether a flight recorder is attached.
    pub fn tracer_attached(&self) -> bool {
        self.tracer.is_some()
    }

    /// Trace process names for
    /// [`FlightRecorder::drain_chrome_json`]: the tier plus one row per
    /// engine lane.
    pub fn trace_process_names(&self) -> Vec<(u32, String)> {
        let mut names = vec![(0, "serve-tier".to_string())];
        names.extend((0..self.lanes.len()).map(|i| (i as u32 + 1, format!("engine-{i:03}"))));
        names
    }

    /// Attaches the SLO engine: a latency tracker (ingest-to-estimate
    /// latency over [`SloConfig::latency_threshold_s`] is bad) and a
    /// delivery tracker (ring backpressure and non-finite/time-reversed
    /// rejects are bad), fed once per [tick](Self::tick). Alert state is
    /// exported as `pinnsoc_serve_slo_*` gauges, transitions land in the
    /// hub's ring log, and the [health board](Self::health_board) carries
    /// the current status into `/healthz` detail.
    pub fn attach_slo(&mut self, hub: &Arc<ObsHub>, config: SloConfig) {
        self.slo = Some(ServeSlo::new(hub, config, self.backpressure_total()));
        self.timed.store(true, Ordering::Relaxed);
    }

    /// End-of-run SLO summary (`None` until [`Self::attach_slo`]).
    pub fn slo_report(&self) -> Option<SloReport> {
        self.slo.as_ref().map(|slo| SloReport {
            latency_threshold_s: slo.config.latency_threshold_s,
            slos: vec![SloSummary::of(&slo.latency), SloSummary::of(&slo.delivery)],
        })
    }

    /// The tier's live-health scoreboard, created on first call — hand it
    /// to [`pinnsoc_obs::PlaneConfig`] as the [`HealthSource`] behind
    /// `/healthz` and `/readyz`. Updated at every tick boundary and
    /// immediately on [crash](Self::crash_engine) /
    /// [recover](Self::recover_engine); a down-but-buffering lane degrades
    /// health without failing readiness.
    ///
    /// [`HealthSource`]: pinnsoc_obs::HealthSource
    pub fn health_board(&mut self) -> Arc<HealthBoard> {
        if self.health.is_none() {
            let board = HealthBoard::new(self.lanes.len());
            for (idx, lane) in self.lanes.iter().enumerate() {
                if matches!(lane.backend, Backend::Down) {
                    board.set_lane_up(idx, false);
                }
            }
            self.health = Some(board);
        }
        Arc::clone(self.health.as_ref().expect("just created"))
    }

    /// A cloneable producer handle (safe to hand to other threads).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            router: self.router,
            rings: self.lanes.iter().map(|l| Arc::clone(&l.ring)).collect(),
            timed: Arc::clone(&self.timed),
        }
    }

    /// A cloneable read handle over the published snapshots.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            slot: Arc::clone(&self.slot),
        }
    }

    /// The router (also embedded in every [`IngestHandle`]).
    pub fn router(&self) -> &EngineRouter {
        &self.router
    }

    /// Engine count (live or down).
    pub fn engines(&self) -> usize {
        self.lanes.len()
    }

    /// The tier's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Whether lane `engine` is currently down.
    pub fn is_down(&self, engine: usize) -> bool {
        matches!(self.lanes[engine].backend, Backend::Down)
    }

    /// Cumulative ring-refused frames across all lanes.
    pub fn backpressure_total(&self) -> u64 {
        self.lanes.iter().map(|l| l.ring.overflow_total()).sum()
    }

    /// Read access to one lane's engine (`None` while it is down) — the
    /// test seam for comparing snapshots against direct engine queries.
    pub fn engine(&self, engine: usize) -> Option<&FleetEngine> {
        self.lanes[engine].backend.engine()
    }

    /// Registers a cell on its owning engine (control plane — not the
    /// ingest hot path). Returns `false` if the cell already exists or
    /// its engine is down.
    pub fn register(&mut self, id: CellId, config: CellConfig) -> bool {
        match &mut self.lanes[self.router.route(id)].backend {
            Backend::Plain(engine) => engine.register(id, config),
            Backend::Durable(fleet) => fleet.register(id, config),
            Backend::Down => false,
        }
    }

    /// Deregisters a cell from its owning engine. Returns `false` if it
    /// was not registered or its engine is down.
    pub fn deregister(&mut self, id: CellId) -> bool {
        match &mut self.lanes[self.router.route(id)].backend {
            Backend::Plain(engine) => engine.deregister(id),
            Backend::Durable(fleet) => fleet.deregister(id),
            Backend::Down => false,
        }
    }

    /// Whether `id` is registered on a live engine.
    pub fn contains(&self, id: CellId) -> bool {
        self.lanes[self.router.route(id)]
            .backend
            .engine()
            .is_some_and(|e| e.contains(id))
    }

    fn cumulative_stats(&self) -> TelemetryStats {
        let mut total = TelemetryStats::default();
        for engine in self.lanes.iter().filter_map(|lane| lane.backend.engine()) {
            total.accumulate(&engine.telemetry_stats());
        }
        total
    }

    /// One tier tick: every live lane drains its ring (bounded at ring
    /// capacity) and runs its engine's batch pass as a task on the lane
    /// pool; at the join the tick builds and publishes the snapshot.
    ///
    /// Down lanes are skipped — their rings keep buffering until full,
    /// at which point producers see backpressure.
    ///
    /// # Errors
    ///
    /// Propagates WAL flush/commit failures from durable lanes: every lane
    /// still returns to its seat, and the error of the lowest-indexed
    /// failing lane is returned. Nothing is published, and the next tick
    /// rebuilds the snapshot.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from a lane task after the other lanes are back
    /// in their seats. The panicking lane's engine is lost with the
    /// unwind: the lane stays [down](Self::is_down), and a durable lane
    /// can come back through [`Self::recover_engine`].
    pub fn tick(&mut self) -> io::Result<TickReport> {
        self.tick += 1;
        let before = self.cumulative_stats();
        // One flag decides every trace cost this tick: with no recorder
        // (or a disabled one) the tick takes zero extra clock reads.
        let tracing = self.tracer.as_ref().is_some_and(|t| t.sink.is_on());
        let tick_start = tracing.then(Instant::now);
        // The root span id is minted up front so lane and engine spans —
        // recorded before the tick's duration is known — can parent under
        // it; the span itself is completed at the end of the tick.
        let tick_span = match self.tracer.as_mut() {
            Some(tracer) if tracing => tracer.sink.open(),
            _ => 0,
        };
        let synced = std::mem::replace(&mut self.synced, false);
        let mut skipped_lanes = 0usize;
        let mut queued = 0usize;
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            if matches!(lane.backend, Backend::Down) {
                skipped_lanes += 1;
                lane.buffers.drained_at.clear();
                if let Some(tracer) = self.tracer.as_mut().filter(|_| tracing) {
                    let now = Instant::now();
                    let pid = idx as u32 + 1;
                    let _ = tracer
                        .sink
                        .record("lane", "serve", pid, 0, tick_span, now, now);
                }
                continue;
            }
            queued += lane.ring.len();
            if let Some(engine) = lane.backend.engine() {
                lane.buffers.estimates.reserve(engine.len());
            }
            // The seat holds `Down` while the lane is out: a lane whose
            // task panics stays down.
            self.lane_tasks.push((
                idx,
                LaneTask {
                    pid: idx as u32 + 1,
                    ring: Arc::clone(&lane.ring),
                    backend: std::mem::replace(&mut lane.backend, Backend::Down),
                    buffers: std::mem::take(&mut lane.buffers),
                },
            ));
        }
        let job = LaneJob { tick_span, tracing };
        let run = if queued >= WAKE_HELPERS_FRAMES {
            WorkerPool::run
        } else {
            WorkerPool::run_on_caller
        };
        let panicked = run(
            &mut self.lane_pool,
            job,
            &mut self.lane_tasks,
            &mut self.lane_done,
        );
        // The join: every lane that came back returns to its seat.
        let mut tally = LaneTally::default();
        let mut failed: Option<(usize, io::Error)> = None;
        for done in self.lane_done.drain(..) {
            let lane = &mut self.lanes[done.idx];
            lane.backend = done.task.backend;
            lane.buffers = done.task.buffers;
            if let (Some(tracer), Some(sink)) = (&self.tracer, lane.buffers.sink.as_mut()) {
                tracer.recorder.merge(sink);
            }
            match done.output {
                Ok(lane) => {
                    tally.drained += lane.drained;
                    tally.integrated += lane.integrated;
                    tally.estimated += lane.estimated;
                }
                Err(err) if failed.as_ref().is_none_or(|(idx, _)| done.idx < *idx) => {
                    failed = Some((done.idx, err));
                }
                Err(_) => {}
            }
        }
        if panicked {
            if let Some(board) = &self.health {
                for (idx, lane) in self.lanes.iter().enumerate() {
                    if matches!(lane.backend, Backend::Down) {
                        board.set_lane_up(idx, false);
                    }
                }
            }
            panic!("a lane task panicked during tick {}", self.tick);
        }
        if let Some((_, err)) = failed {
            return Err(err);
        }

        // Every live lane's reporting cells, placed in id order by the
        // directory from the lanes' refreshed estimates: patching the
        // changed ranks, or re-ranking after a membership change (see the
        // `directory` module docs). Then the aggregate fold.
        let publish_start = tracing.then(Instant::now);
        let publish_span = match self.tracer.as_mut() {
            Some(tracer) if tracing => tracer.sink.open(),
            _ => 0,
        };
        // A reader that pinned the displaced snapshot has had a whole tick
        // to let go; only if it still holds on does this tick allocate.
        let reclaimed = self
            .displaced
            .take()
            .and_then(|previous| Arc::try_unwrap(previous).ok());
        let lanes = &self.lanes;
        let engines = || lanes.iter().filter_map(|lane| lane.backend.engine());
        let registered: usize = engines().map(FleetEngine::len).sum();
        let live_engines = engines().count();
        let current = self.slot.load();
        let placed = self.directory.place(
            lanes.len(),
            |idx| {
                let lane = &lanes[idx];
                lane.backend.engine().map(|e| (e, &lane.buffers.estimates))
            },
            &current,
            reclaimed,
            !synced,
        );
        let fold_start = tracing.then(Instant::now);
        let snapshot = Arc::new(ServeSnapshot::build(
            self.tick,
            registered,
            live_engines,
            placed.cells,
            placed.ids,
            placed.socs,
        ));
        let folded = tracing.then(Instant::now);
        let snapshot_cells = snapshot.cells.len();
        self.displaced = Some(self.slot.publish(snapshot));
        self.synced = true;

        let published = Instant::now();
        if let (Some(tracer), Some(start), Some(fold_start), Some(folded)) =
            (self.tracer.as_mut(), publish_start, fold_start, folded)
        {
            let sink = &mut tracer.sink;
            let _ = sink.record("place", "serve", 0, 0, publish_span, start, fold_start);
            let _ = sink.record("fold", "serve", 0, 0, publish_span, fold_start, folded);
            sink.complete(
                publish_span,
                "publish",
                "serve",
                0,
                0,
                tick_span,
                start,
                published,
            );
        }
        // One pass over the timed frames' latencies feeds both consumers:
        // the obs histogram and the latency SLO's good/bad counts.
        let threshold = self
            .slo
            .as_ref()
            .map_or(f64::INFINITY, |slo| slo.config.latency_threshold_s);
        let (mut timed, mut late) = (0u64, 0u64);
        for enqueued in self.lanes.iter().flat_map(|lane| &lane.buffers.drained_at) {
            let latency = published.duration_since(*enqueued).as_secs_f64();
            if let Some(obs) = &mut self.obs {
                obs.local.observe(obs.latency_seconds, latency);
            }
            timed += 1;
            late += u64::from(latency > threshold);
        }

        let report = TickReport {
            tick: self.tick,
            drained: tally.drained,
            integrated: tally.integrated,
            estimated: tally.estimated,
            telemetry: self.cumulative_stats().delta(&before),
            backpressure_total: self.backpressure_total(),
            skipped_lanes,
            snapshot_cells,
        };
        if let Some(obs) = &mut self.obs {
            obs.record(&report, placed.rebuilt, placed.read);
        }
        if let Some(slo) = self.slo.as_mut() {
            let backpressure = report.backpressure_total - slo.last_backpressure;
            slo.last_backpressure = report.backpressure_total;
            let rejected =
                report.telemetry.rejected_non_finite + report.telemetry.rejected_time_reversed;
            let delivered = report.telemetry.accepted + report.telemetry.duplicate_timestamp;
            slo.observe(
                report.tick,
                [(timed - late, late), (delivered, backpressure + rejected)],
            );
        }
        if let (Some(tracer), Some(start)) = (self.tracer.as_mut(), tick_start) {
            tracer
                .sink
                .complete(tick_span, "tick", "serve", 0, 0, 0, start, Instant::now());
            let recorder = Arc::clone(&tracer.recorder);
            recorder.merge(&mut tracer.sink);
        }
        if let Some(board) = &self.health {
            let lanes = self
                .lanes
                .iter()
                .enumerate()
                .map(|(idx, lane)| LaneHealth {
                    engine: idx,
                    up: !matches!(lane.backend, Backend::Down),
                    buffered: lane.ring.len(),
                })
                .collect();
            let slos = self
                .slo
                .as_ref()
                .map(ServeSlo::statuses)
                .unwrap_or_default();
            board.update(report.tick, lanes, slos);
        }
        Ok(report)
    }

    /// Simulates (or acknowledges) lane `engine` dying: the
    /// [`DurableFleet`] is dropped exactly as a process death would leave
    /// it — buffered WAL records lost, no shutdown flush — and the lane
    /// goes [down](Self::is_down). Returns the lane's durability
    /// directory so a crash harness can vandalize it (e.g.
    /// `pinnsoc_scenario`'s `tear_directory`).
    ///
    /// The lane's ring stays up and keeps buffering: telemetry arriving
    /// during the outage is preserved up to ring capacity, and overflow
    /// surfaces as backpressure at the producers.
    ///
    /// # Panics
    ///
    /// Panics if the lane is not durable or is already down.
    pub fn crash_engine(&mut self, engine: usize) -> PathBuf {
        let lane = &mut self.lanes[engine];
        let config = lane
            .durable_config
            .clone()
            .expect("crash_engine requires a durable tier");
        match std::mem::replace(&mut lane.backend, Backend::Down) {
            Backend::Durable(fleet) => drop(fleet),
            Backend::Plain(_) => panic!("lane {engine} is not durable"),
            Backend::Down => panic!("lane {engine} is already down"),
        }
        if let Some(board) = &self.health {
            board.set_lane_up(engine, false);
        }
        config.dir
    }

    /// Recovers a [crashed](Self::crash_engine) lane from its durability
    /// directory and brings it back into rotation; its ring's buffered
    /// frames drain on the next tick.
    ///
    /// # Errors
    ///
    /// Propagates recovery failures (the lane stays down).
    ///
    /// # Panics
    ///
    /// Panics if the lane is not down.
    pub fn recover_engine(&mut self, engine: usize) -> io::Result<RecoveryReport> {
        assert!(
            self.is_down(engine),
            "lane {engine} is live — nothing to recover"
        );
        let config = self.lanes[engine]
            .durable_config
            .clone()
            .expect("recover_engine requires a durable lane");
        let (mut fleet, report) = recover(config, self.config.fleet.workers)?;
        if let Some(obs) = &self.obs {
            fleet.attach_obs(&obs.hub);
            record_recovery(&obs.hub, &report);
        }
        let lane = &mut self.lanes[engine];
        if let Some(tracer) = &self.tracer {
            fleet
                .engine_mut()
                .attach_tracer(&tracer.recorder, engine as u32 + 1);
            // A lane lost to a panicking task lost its sink with it.
            lane.buffers
                .sink
                .get_or_insert_with(|| tracer.recorder.sink());
        }
        lane.backend = Backend::Durable(Box::new(fleet));
        // The new engine's epoch counts afresh and may equal the dead
        // one's: neither the directory nor the lane's estimates can be
        // patched from what they knew.
        self.synced = false;
        lane.buffers.estimates.invalidate();
        if let Some(board) = &self.health {
            board.set_lane_up(engine, true);
        }
        Ok(report)
    }
}

impl std::fmt::Debug for ServeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTier")
            .field("engines", &self.lanes.len())
            .field("tick", &self.tick)
            .field("backpressure_total", &self.backpressure_total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinnsoc_fleet::testing::untrained_model;

    fn report(id: CellId) -> Telemetry {
        Telemetry {
            time_s: 10.0,
            voltage_v: 3.6,
            current_a: 0.5 + 0.01 * id as f64,
            temperature_c: 25.0,
        }
    }

    /// Enqueues `frames` reports through `handle`, then pops every lane's
    /// ring and returns the popped frames' stamps.
    fn stamps(tier: &ServeTier, handle: &IngestHandle, frames: u64) -> Vec<Option<Instant>> {
        for id in 0..frames {
            assert!(handle.ingest(id, report(id)).enqueued());
        }
        tier.lanes
            .iter()
            .flat_map(|lane| std::iter::from_fn(|| lane.ring.pop()))
            .map(|frame| frame.enqueued)
            .collect()
    }

    /// Producers stamp a frame only once an obs hub or an SLO consumes
    /// ingest latency, through handles cloned before the attach too.
    #[test]
    fn frames_carry_an_enqueue_instant_only_while_latency_is_consumed() {
        assert_eq!(size_of::<Option<Instant>>(), size_of::<Instant>());
        let attaches: [fn(&mut ServeTier, &Arc<ObsHub>); 2] = [
            |tier, hub| tier.attach_obs(hub),
            |tier, hub| tier.attach_slo(hub, SloConfig::default()),
        ];
        for attach in attaches {
            let mut tier = ServeTier::new(untrained_model(), ServeConfig::default())
                .expect("plain tier never does IO");
            let handle = tier.handle();
            let before = stamps(&tier, &handle, 16);
            assert_eq!(before.len(), 16);
            assert!(
                before.iter().all(Option::is_none),
                "stamped with nothing attached"
            );
            attach(&mut tier, &ObsHub::new());
            for handle in [handle, tier.handle()] {
                let after = stamps(&tier, &handle, 16);
                assert_eq!(after.len(), 16);
                assert!(
                    after.iter().all(Option::is_some),
                    "unstamped after the attach"
                );
            }
        }
    }
}
