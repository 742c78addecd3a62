//! The serve tier itself: N independent fleet engines behind a rendezvous
//! router, each fed by its own bounded ingest ring and drained by one
//! tick loop that publishes a read-side snapshot per tick.
//!
//! ## Dataflow
//!
//! ```text
//! producers ──IngestHandle::ingest──▶ ring[route(id)]          (lock-free)
//!                                        │
//! tick():  pop ≤ capacity frames ──▶ batch ──▶ engine.ingest_batch ──▶ process_pending
//!          (per lane, reused buffer)       (resolve every slot, then absorb)
//!                                        │
//!          membership_epoch per lane ──▶ same as last publish?
//!             yes: for_each_changed ──▶ rank bitmap ──▶ patch reclaimed buffer ─┐
//!             no:  reporting sweep ──▶ sort by id ──▶ new ranks, read all ──────┤
//!                                                                               ▼
//!                                   ServeSnapshot (cells + id/SoC columns) ──▶ publish
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
//! Each lane drains in one batch: the tier pops the lane's frames into a
//! reused buffer, and the engine resolves every frame's `(shard, slot)`
//! before it absorbs any, in arrival order — bit-identical to per-frame
//! ingest, with the index lookups no longer serialized in front of each
//! absorb. Plain and durable lanes share this one drain path; a durable
//! lane logs the batch's reports to its WAL first.
//!
//! Publishing costs what changed, not what exists: the id directory (see
//! the `directory` module) remembers each cell's rank in id order while
//! no lane's membership epoch moves, and patches only the ranks whose
//! cells this tick's passes (and the previous tick's) estimated into the
//! buffer it reclaims. It sweeps and sorts only on the tick membership
//! changes.
//!
//! Ingest-to-estimate latency (producer enqueue to snapshot publish) is
//! measured per frame only while something consumes it: with an
//! [`ObsHub`] or an SLO attached, the tick keeps each drained frame's
//! enqueue instant and, in one pass after publish, feeds the
//! `pinnsoc_serve_ingest_latency_seconds` histogram and the latency SLO's
//! good/bad counts. With neither attached it keeps no per-frame state.

use crate::directory::IdDirectory;
use crate::health::{HealthBoard, LaneHealth, ServeSlo, SloConfig, SloReport, SloSummary};
use crate::ring::IngestRing;
use crate::router::EngineRouter;
use crate::snapshot::{ServeSnapshot, SnapshotReader, SnapshotSlot};
use pinnsoc::SocModel;
use pinnsoc_durable::{record_recovery, recover, DurableConfig, DurableFleet, RecoveryReport};
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry, TelemetryStats};
use pinnsoc_obs::{FlightRecorder, LocalMetrics, MetricId, ObsHub, SpanId, TraceSink};
use std::io;
use std::path::PathBuf;
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
    /// Configuration applied to every engine.
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
    /// ingest-to-estimate latency, measured at snapshot publish while an
    /// obs hub or an SLO is attached.
    pub enqueued: Instant,
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
}

impl IngestHandle {
    /// Enqueues one report on the owning engine's ring.
    pub fn ingest(&self, id: CellId, telemetry: Telemetry) -> IngestOutcome {
        let engine = self.router.route(id);
        let frame = IngestFrame {
            id,
            telemetry,
            enqueued: Instant::now(),
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
                "Ranks the latest publish read from the engines",
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
/// `tick` span (pid 0), lane spans (one per engine, pid `i + 1`), and the
/// `publish` span, plus the recorder handle so
/// [`ServeTier::recover_engine`] can re-attach a recovered engine's
/// tracer.
struct TierTracer {
    recorder: Arc<FlightRecorder>,
    sink: TraceSink,
}

/// One engine's seat in the tier.
struct Lane {
    backend: Backend,
    ring: Arc<IngestRing<IngestFrame>>,
    /// The durability configuration this lane was created with — what
    /// [`ServeTier::recover_engine`] replays from.
    durable_config: Option<DurableConfig>,
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
    /// Enqueue instants of the frames drained this tick, kept only while
    /// an obs hub or an SLO consumes their latency.
    drained_at: Vec<Instant>,
    /// Reused drain buffer: one lane's popped frames, handed to its
    /// engine as one batch.
    batch: Vec<(CellId, Telemetry)>,
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
            });
        }
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
            drained_at: Vec::new(),
            batch: Vec::new(),
        })
    }

    /// Attaches observability: tier-level ingest/backpressure/latency
    /// series plus each engine's own fleet series.
    pub fn attach_obs(&mut self, hub: &Arc<ObsHub>) {
        for lane in &mut self.lanes {
            match &mut lane.backend {
                Backend::Plain(engine) => engine.attach_obs(hub),
                Backend::Durable(fleet) => fleet.attach_obs(hub),
                Backend::Down => {}
            }
        }
        self.obs = Some(ServeObs::new(hub));
    }

    /// Attaches a flight recorder: each [tick](Self::tick) records a root
    /// `tick` span (trace process 0) with one `lane` span per engine
    /// (process `i + 1`). A live lane's span holds a `drain` span (ring
    /// pops), an `ingest` span (the engine's batched absorb, WAL appends
    /// included), the engine's own `engine_tick` → `pass` → stage tree
    /// and, on a durable lane, a `wal_flush` span (the tick-boundary WAL
    /// encode + checksum + write that follows the pass).
    /// A `publish` span covers building the snapshot. A lane recovered by
    /// [`Self::recover_engine`] re-attaches automatically.
    pub fn attach_tracer(&mut self, recorder: &Arc<FlightRecorder>) {
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            let pid = idx as u32 + 1;
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

    /// Ticks completed.
    pub fn tick_count(&self) -> u64 {
        self.tick
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

    /// One tier tick: drain every live lane's ring (bounded at ring
    /// capacity per lane), run each engine's batch pass, then build and
    /// publish the snapshot.
    ///
    /// Down lanes are skipped — their rings keep buffering until full,
    /// at which point producers see backpressure.
    ///
    /// # Errors
    ///
    /// Propagates WAL flush/commit failures from durable lanes.
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
        // Likewise for per-frame latency: with no obs hub and no SLO the
        // tick keeps no enqueue instants.
        let timing = self.obs.is_some() || self.slo.is_some();
        let synced = std::mem::replace(&mut self.synced, false);
        let mut drained_at = std::mem::take(&mut self.drained_at);
        drained_at.clear();
        let mut drained = 0usize;
        let mut integrated = 0usize;
        let mut estimated = 0usize;
        let mut skipped_lanes = 0usize;
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            // The drain bound: at most one ring's worth per lane per tick,
            // so concurrent producers can never pin the tick loop in the
            // drain.
            let bound = lane.ring.capacity();
            let lane_start = tracing.then(Instant::now);
            let lane_span = match self.tracer.as_mut() {
                Some(tracer) if tracing => tracer.sink.open(),
                _ => 0,
            };
            if matches!(lane.backend, Backend::Down) {
                skipped_lanes += 1;
            } else {
                // Phase one pops the whole lane into the reused batch; the
                // engine then resolves every frame's slot before absorbing
                // any (see `FleetEngine::ingest_batch`).
                self.batch.clear();
                for _ in 0..bound {
                    let Some(frame) = lane.ring.pop() else { break };
                    self.batch.push((frame.id, frame.telemetry));
                    if timing {
                        drained_at.push(frame.enqueued);
                    }
                }
                drained += self.batch.len();
                let popped = tracing.then(Instant::now);
                lane.backend.ingest_batch(&self.batch);
                if let (Some(tracer), Some(start), Some(popped)) =
                    (self.tracer.as_mut(), lane_start, popped)
                {
                    let pid = idx as u32 + 1;
                    let _ = tracer
                        .sink
                        .record("drain", "serve", pid, 0, lane_span, start, popped);
                    let _ = tracer.sink.record(
                        "ingest",
                        "serve",
                        pid,
                        0,
                        lane_span,
                        popped,
                        Instant::now(),
                    );
                }
                let (i, e) = lane.backend.process_pending(lane_span)?;
                integrated += i;
                estimated += e;
                let flush = lane.backend.last_flush_span().filter(|_| tracing);
                if let (Some(tracer), Some((start, end))) = (self.tracer.as_mut(), flush) {
                    let _ = tracer.sink.record(
                        "wal_flush",
                        "durable",
                        idx as u32 + 1,
                        0,
                        lane_span,
                        start,
                        end,
                    );
                }
            }
            if let (Some(tracer), Some(start)) = (self.tracer.as_mut(), lane_start) {
                tracer.sink.complete(
                    lane_span,
                    "lane",
                    "serve",
                    idx as u32 + 1,
                    0,
                    tick_span,
                    start,
                    Instant::now(),
                );
            }
        }

        // Every live engine's reporting cells, placed in id order by the
        // directory: patching the changed ranks, or re-ranking after a
        // membership change (see the `directory` module docs).
        let publish_start = tracing.then(Instant::now);
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
            |lane| lanes[lane].backend.engine(),
            &current,
            reclaimed,
            !synced,
        );
        let snapshot = Arc::new(ServeSnapshot::build(
            self.tick,
            registered,
            live_engines,
            placed.cells,
            placed.ids,
            placed.socs,
        ));
        let snapshot_cells = snapshot.cells.len();
        self.displaced = Some(self.slot.publish(snapshot));
        self.synced = true;

        let published = Instant::now();
        if let (Some(tracer), Some(start)) = (self.tracer.as_mut(), publish_start) {
            let _ = tracer
                .sink
                .record("publish", "serve", 0, 0, tick_span, start, published);
        }
        // One pass over the drained frames' latencies feeds both
        // consumers: the obs histogram and the latency SLO's bad count.
        let threshold = self
            .slo
            .as_ref()
            .map_or(f64::INFINITY, |slo| slo.config.latency_threshold_s);
        let mut late = 0u64;
        for enqueued in &drained_at {
            let latency = published.duration_since(*enqueued).as_secs_f64();
            if let Some(obs) = &mut self.obs {
                obs.local.observe(obs.latency_seconds, latency);
            }
            late += u64::from(latency > threshold);
        }
        self.drained_at = drained_at;

        let report = TickReport {
            tick: self.tick,
            drained,
            integrated,
            estimated,
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
                [
                    (report.drained as u64 - late, late),
                    (delivered, backpressure + rejected),
                ],
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
            .expect("down lanes are always durable");
        let (mut fleet, report) = recover(config, self.config.fleet.workers)?;
        if let Some(obs) = &self.obs {
            fleet.attach_obs(&obs.hub);
            record_recovery(&obs.hub, &report);
        }
        if let Some(tracer) = &self.tracer {
            fleet
                .engine_mut()
                .attach_tracer(&tracer.recorder, engine as u32 + 1);
        }
        self.lanes[engine].backend = Backend::Durable(Box::new(fleet));
        self.synced = false;
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
