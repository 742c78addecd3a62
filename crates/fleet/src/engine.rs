//! The fleet engine: sharded per-cell state, micro-batched inference, and
//! fleet-level queries.

use crate::aggregate::FleetStats;
use crate::cell::{
    AbsorbOutcome, CellConfig, CellPersist, CellSnapshot, CellStore, EstimateBreakdown,
    EstimateEntry, SocEstimate,
};
use crate::id_index::IdIndex;
use crate::obs::{EngineObs, EngineTracer, FleetMetricIds, ShardObs, ShardTracer};
use crate::pool::{Done, JobKind, TaskOutput, WorkerPool};
use crate::registry::ModelRegistry;
use crate::telemetry::{CellId, Telemetry};
use pinnsoc::{BatchScratch, QuantBatchScratch, QuantizedSocModel, SocModel};
use pinnsoc_battery::CellParams;
use pinnsoc_nn::Matrix;
use pinnsoc_obs::{FlightRecorder, ObsHub, SpanId};
use pinnsoc_runtime::{PoolObs, PoolTracer};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which network the batch passes serve with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingMode {
    /// The f32 incumbent — the accuracy reference; always available.
    #[default]
    F32,
    /// The int8 quantized shadow, when one is installed in the registry
    /// (a [`crate::GateCertificate`]-backed
    /// [`ModelRegistry::install_quantized`]). Until then — and again after
    /// any [`ModelRegistry::swap`], which clears the shadow — passes
    /// degrade to the f32 incumbent rather than stalling; each pass picks
    /// per its pinned snapshot, so the transition lands at a batch
    /// boundary like a hot swap. Featurization and the ingest-side physics
    /// (Coulomb / EKF) stay f32 either way; only the network forward runs
    /// int8.
    Int8,
}

/// Engine-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards; cells are distributed by `id % shards` and shards
    /// are drained from the persistent worker pool's queue during batch
    /// passes. Defaults to the machine's available parallelism.
    pub shards: usize,
    /// Cells per batched forward pass. Micro-batches bound the latency of a
    /// model hot-swap (a swap applies at the next batch boundary) and keep
    /// per-worker scratch buffers cache-resident (256 rows × 32-wide
    /// hidden layers ≈ 32 kB per ping-pong buffer — L1-sized; measured
    /// fastest among 128–4096 on the reference core).
    pub micro_batch: usize,
    /// Persistent worker threads assisting the calling thread during batch
    /// passes. `0` means auto: one less than the machine's available
    /// parallelism (the caller participates in every pass), capped at the
    /// shard count — so a single-core host runs the whole pass on the
    /// calling thread with no cross-thread handoff at all. A serve tier
    /// also sizes its lane pool from the same resolved value, capped at
    /// one less than its engine count (see `pinnsoc_serve::ServeConfig`).
    pub workers: usize,
    /// When set, every registered cell carries an EKF fallback estimator
    /// built from these parameters (used when no network estimate covers
    /// the latest telemetry).
    pub ekf_fallback: Option<CellParams>,
    /// Which network the batch passes serve with (see [`ServingMode`]).
    pub serving: ServingMode,
}

impl FleetConfig {
    /// The helper-thread count [`Self::workers`] resolves to before any
    /// cap: the configured value, or for `0` one less than the host's
    /// available parallelism (which honours the affinity mask).
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(0, |p| usize::from(p).saturating_sub(1))
        } else {
            self.workers
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(4, usize::from),
            micro_batch: 256,
            workers: 0,
            ekf_fallback: None,
            serving: ServingMode::F32,
        }
    }
}

/// A described future workload, applied to one or many cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadQuery {
    /// Expected average current over the horizon, amps.
    pub avg_current_a: f64,
    /// Expected average temperature over the horizon, °C.
    pub avg_temperature_c: f64,
    /// Prediction horizon `N`, seconds.
    pub horizon_s: f64,
}

/// Histogram of SoC values: `bins` equal buckets over `[0, 1]`, the last
/// bucket closed. The one binning behind [`FleetEngine::soc_histogram`]
/// and the serve tier's snapshots.
///
/// # Panics
///
/// Panics if `bins` is zero.
pub fn soc_histogram(socs: impl IntoIterator<Item = f64>, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    let mut histogram = vec![0usize; bins];
    // Clamped as a float, so the bin index takes no data-dependent branch
    // (an integer clamp may compile to branches, which mispredict on
    // estimates spread around 0); then one truncating conversion through
    // `i64` (`as usize` takes several). NaN and negatives land in bin 0
    // and overflow in the last, as the unsigned cast would put them.
    let last = (bins - 1) as f64;
    for soc in socs {
        let bin = (soc * bins as f64).clamp(0.0, last) as i64;
        histogram[bin as usize] += 1;
    }
    histogram
}

/// Cumulative telemetry accounting since engine construction: what arrived,
/// what was folded in, and what was rejected and why. Transport faults
/// (out-of-order frames, gateway NaNs, duplicated deliveries) are never
/// silently dropped — they land in these counters, which the closed-loop
/// scenario harness (`pinnsoc-scenario`) reconciles against the faults it
/// injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryStats {
    /// Reports folded into a cell's integrators (includes duplicates).
    pub accepted: u64,
    /// Accepted reports whose timestamp equaled the previous report's
    /// (duplicated frame or sensor re-read): latest fields overwritten,
    /// nothing integrated.
    pub duplicate_timestamp: u64,
    /// Rejected: a non-finite field.
    pub rejected_non_finite: u64,
    /// Rejected: timestamp older than the cell's latest accepted report.
    pub rejected_time_reversed: u64,
    /// Reports addressed to an id that was never registered (rejected at
    /// ingest, before reaching any shard).
    pub unknown_cell: u64,
}

impl TelemetryStats {
    /// Total rejected reports (unknown cells included).
    pub fn rejected(&self) -> u64 {
        self.rejected_non_finite + self.rejected_time_reversed + self.unknown_cell
    }

    /// Per-field difference `self − prev`, turning two cumulative books
    /// into one interval's counts. Saturating: if `prev` is ahead on any
    /// field (e.g. the books belong to different engines after a reset),
    /// that field's delta is 0 rather than wrapping.
    pub fn delta(&self, prev: &TelemetryStats) -> TelemetryStats {
        TelemetryStats {
            accepted: self.accepted.saturating_sub(prev.accepted),
            duplicate_timestamp: self
                .duplicate_timestamp
                .saturating_sub(prev.duplicate_timestamp),
            rejected_non_finite: self
                .rejected_non_finite
                .saturating_sub(prev.rejected_non_finite),
            rejected_time_reversed: self
                .rejected_time_reversed
                .saturating_sub(prev.rejected_time_reversed),
            unknown_cell: self.unknown_cell.saturating_sub(prev.unknown_cell),
        }
    }

    /// Adds `other`'s counts into `self`, field by field.
    pub fn accumulate(&mut self, other: &TelemetryStats) {
        self.accepted += other.accepted;
        self.duplicate_timestamp += other.duplicate_timestamp;
        self.rejected_non_finite += other.rejected_non_finite;
        self.rejected_time_reversed += other.rejected_time_reversed;
        self.unknown_cell += other.unknown_cell;
    }
}

/// Cumulative wall time the batch passes spent per pipeline stage, summed
/// across shards (worker time, not elapsed time: concurrent shards add
/// up). The ingest stage happens on the caller in [`FleetEngine::ingest`]
/// and is cheap enough that timing it per report would distort it; the
/// bench harness times it as a block instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Assembling normalized feature rows from the structure-of-arrays
    /// cell state into the batch input matrix.
    pub gather: Duration,
    /// The batched network forward passes (fused GEMM epilogues).
    pub gemm: Duration,
    /// Writing estimates back into the cell state with linear writes.
    pub scatter: Duration,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.gather + self.gemm + self.scatter
    }

    fn accumulate(&mut self, other: &StageTimes) {
        self.gather += other.gather;
        self.gemm += other.gemm;
        self.scatter += other.scatter;
    }
}

/// Slot marker for an unregistered id in [`FleetEngine::ingest_batch`]'s
/// resolution buffer (slots are `u32`, as in the dirty lists).
const UNKNOWN_SLOT: u32 = u32::MAX;

/// One shard: a slice of the fleet, owned by the engine between ticks and
/// handed to the worker pool (by move) during batch passes.
#[derive(Debug)]
pub(crate) struct Shard {
    cells: CellStore,
    index: IdIndex,
    /// Per-shard inference scratch (lives with the shard so steady-state
    /// processing allocates nothing).
    scratch: BatchScratch,
    /// Int8 counterpart of `scratch`, used when a pass serves the
    /// quantized model. Empty buffers (a few `Vec`s) until the first int8
    /// pass, so f32-only fleets pay nothing for it.
    qscratch: QuantBatchScratch,
    /// Gather buffer: the normalized `micro_batch × 3` feature matrix.
    features: Matrix,
    /// Per-micro-batch network outputs.
    estimates: Vec<f64>,
    /// Reused list of slots touched since the last pass (same
    /// zero-steady-state-allocation rationale as `scratch`), populated
    /// incrementally by [`Shard::absorb_one`] at ingest, in arrival order,
    /// and put in slot order when the pass starts.
    dirty: Vec<u32>,
    /// The slots the most recent pass estimated, in slot order (empty when
    /// the pass skipped this shard): last pass's `dirty`, swapped in rather
    /// than cleared, so keeping it costs no allocation.
    changed: Vec<u32>,
    /// Cells whose first report this shard has accepted (a membership
    /// event: the cell joins the reporting set).
    first_reports: u64,
    /// Reports absorbed at ingest since the last pass.
    tick_absorbed: usize,
    /// Reused slot list for full-shard passes (`predict_all`).
    batch_slots: Vec<u32>,
    /// Generation tag of the *upcoming* pass, backing the O(1) dirty-slot
    /// dedup (bumped at the end of each pass).
    generation: u64,
    /// Cells that have accepted at least one report — lets the engine skip
    /// queueing shards with nothing to predict.
    reporting: usize,
    /// Per-stage wall time of this shard's most recent processing pass
    /// (reset at the start of each pass; the engine accumulates deltas).
    stage: StageTimes,
    /// Cumulative telemetry accounting for this shard's cells
    /// (`unknown_cell` stays zero here — unknown ids are counted by the
    /// engine at ingest, before a shard is involved).
    telemetry: TelemetryStats,
    /// Recording buffer when observability is attached; travels with the
    /// shard through the pool, merged by the engine at tick boundaries.
    obs: Option<ShardObs>,
    /// Flight-recorder sink when tracing is attached; same travel/merge
    /// discipline as `obs`.
    tracer: Option<ShardTracer>,
}

impl Shard {
    fn new() -> Self {
        Self {
            cells: CellStore::new(),
            index: IdIndex::new(),
            scratch: BatchScratch::default(),
            qscratch: QuantBatchScratch::default(),
            features: Matrix::zeros(1, 1),
            estimates: Vec::new(),
            dirty: Vec::new(),
            changed: Vec::new(),
            first_reports: 0,
            tick_absorbed: 0,
            batch_slots: Vec::new(),
            // Registration seeds `dirty_generation` rows with 0, so the
            // first pass must tag with something greater.
            generation: 1,
            reporting: 0,
            stage: StageTimes::default(),
            telemetry: TelemetryStats::default(),
            obs: None,
            tracer: None,
        }
    }

    /// Runs the network over every cell touched since the last pass, in
    /// micro-batches. Telemetry is coalesced: a cell reporting five times
    /// since the last pass was integrated five times at ingest but is
    /// estimated once, at its latest reading.
    /// Returns `(reports_absorbed, cells_estimated)`.
    ///
    /// `quantized` (when present) must be an artifact of `model` — the pool
    /// passes both halves of one pinned [`crate::ServingSnapshot`], whose
    /// registry invariant guarantees exactly that. The gather stage always
    /// featurizes through the f32 `model` (the quantized artifact shares
    /// its normalizers bit-for-bit); only the GEMM stage switches.
    pub(crate) fn process(
        &mut self,
        model: &SocModel,
        quantized: Option<&QuantizedSocModel>,
        micro_batch: usize,
    ) -> (usize, usize) {
        // `stage` holds exactly this pass's times; the engine accumulates
        // per-tick deltas when the shard checks back in. Integration
        // happened at ingest (see `absorb_one`), so the pass starts straight
        // at the gather stage.
        self.stage = StageTimes::default();
        let absorbed = std::mem::take(&mut self.tick_absorbed);
        let mut mark = Instant::now();
        // The tracer reuses the pass's existing stage marks — first mark
        // is the pass start, last mark is the pass end.
        let pass_start = mark;
        self.sort_dirty();
        for batch in self.dirty.chunks(micro_batch) {
            // Gather: normalized features straight from the SoA telemetry
            // arrays into the batch input matrix — no per-cell struct hops.
            self.cells.gather_features(batch, model, &mut self.features);
            let t = Instant::now();
            self.stage.gather += t - mark;
            mark = t;
            // GEMM: the fused batched forward pass (int8 when serving a
            // quantized shadow, f32 otherwise).
            self.estimates.clear();
            match quantized {
                Some(q) => q.estimate_features_into(
                    &self.features,
                    &mut self.qscratch,
                    &mut self.estimates,
                ),
                None => model.estimate_features_into(
                    &self.features,
                    &mut self.scratch,
                    &mut self.estimates,
                ),
            }
            let t = Instant::now();
            self.stage.gemm += t - mark;
            mark = t;
            // Scatter: linear write-back into the SoA estimate arrays.
            for (&slot, &soc) in batch.iter().zip(&self.estimates) {
                self.cells.record_network_estimate(slot as usize, soc);
            }
            let t = Instant::now();
            self.stage.scatter += t - mark;
            mark = t;
        }
        let estimated = self.dirty.len();
        std::mem::swap(&mut self.dirty, &mut self.changed);
        self.dirty.clear();
        self.generation += 1;
        // Worker-side recording: plain slot arithmetic over durations the
        // pass already measured — no locks, no extra clock reads.
        let (stage, telemetry) = (self.stage, self.telemetry);
        if let Some(obs) = self.obs.as_mut() {
            obs.record_pass(&stage, absorbed, estimated, &telemetry, quantized.is_some());
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record_pass(&stage, pass_start, mark);
        }
        (absorbed, estimated)
    }

    /// Puts the dirty list in slot order, so gather, scatter and the
    /// `changed` list walk the SoA columns front to back instead of in
    /// arrival order. Rows are estimated independently, so the order
    /// changes no estimate. A dense list is rebuilt from the generation
    /// tags (one linear scan, cheaper than a comparison sort); a sparse one
    /// is sorted.
    fn sort_dirty(&mut self) {
        let cells = self.cells.len();
        if self.dirty.len() * 8 >= cells {
            let (tags, generation) = (&self.cells.dirty_generation, self.generation);
            self.dirty.clear();
            self.dirty
                .extend((0..cells as u32).filter(|&slot| tags[slot as usize] == generation));
        } else {
            self.dirty.sort_unstable();
        }
    }

    /// Folds one report into the cell store, the telemetry books, and the
    /// upcoming pass's dirty list — the single integration path, called at
    /// ingest on the caller thread regardless of worker count, which is
    /// what keeps every observable bit-identical across worker counts.
    #[inline]
    fn absorb_one(&mut self, slot: usize, telemetry: Telemetry) {
        let outcome = self.cells.absorb(slot, telemetry);
        match outcome {
            AbsorbOutcome::Accepted => {}
            AbsorbOutcome::DuplicateTimestamp => self.telemetry.duplicate_timestamp += 1,
            AbsorbOutcome::NonFinite => self.telemetry.rejected_non_finite += 1,
            AbsorbOutcome::TimeReversed => self.telemetry.rejected_time_reversed += 1,
        }
        // Duplicate-timestamp reports still count as accepted (they were
        // folded into the store), exactly as the books always have.
        if outcome.accepted() {
            self.telemetry.accepted += 1;
            self.tick_absorbed += 1;
            if self.cells.reports[slot] == 1 {
                self.reporting += 1;
                self.first_reports += 1;
            }
            if self.cells.dirty_generation[slot] != self.generation {
                self.cells.dirty_generation[slot] = self.generation;
                self.dirty.push(slot as u32);
            }
        }
    }

    /// Batched full-pipeline prediction for every reporting cell under one
    /// described workload. Same `quantized` contract as
    /// [`Shard::process`].
    pub(crate) fn predict_all(
        &mut self,
        model: &SocModel,
        quantized: Option<&QuantizedSocModel>,
        workload: &WorkloadQuery,
        micro_batch: usize,
    ) -> Vec<(CellId, f64)> {
        self.batch_slots.clear();
        self.batch_slots
            .extend((0..self.cells.len() as u32).filter(|&s| self.cells.reports[s as usize] > 0));
        let mut out = Vec::with_capacity(self.batch_slots.len());
        for batch in self.batch_slots.chunks(micro_batch) {
            self.cells.gather_features(batch, model, &mut self.features);
            self.estimates.clear();
            match quantized {
                Some(q) => q.predict_uniform_into(
                    &self.features,
                    workload.avg_current_a,
                    workload.avg_temperature_c,
                    workload.horizon_s,
                    &mut self.qscratch,
                    &mut self.estimates,
                ),
                None => model.predict_uniform_into(
                    &self.features,
                    workload.avg_current_a,
                    workload.avg_temperature_c,
                    workload.horizon_s,
                    &mut self.scratch,
                    &mut self.estimates,
                ),
            }
            out.extend(
                batch
                    .iter()
                    .zip(&self.estimates)
                    .map(|(&s, &p)| (self.cells.ids[s as usize], p)),
            );
        }
        out
    }
}

/// Tracks a fleet of cells and serves SoC estimates and predictions
/// through batched forward passes.
///
/// See the crate docs for the architecture; the short version: cells are
/// sharded by id into structure-of-arrays stores, telemetry is integrated
/// into them at ingest, and [`FleetEngine::process_pending`] hands the
/// touched shards to a persistent worker pool, each running fused
/// micro-batched GEMMs against a pinned model snapshot from the
/// [`ModelRegistry`].
pub struct FleetEngine {
    registry: Arc<ModelRegistry>,
    config: FleetConfig,
    /// `Some` between ticks; shards move out during a pool pass and return
    /// before the pass's public call completes.
    shards: Vec<Option<Shard>>,
    pool: WorkerPool,
    /// Reused tick buffers (see [`WorkerPool::run`]).
    tick_tasks: Vec<(usize, Shard)>,
    tick_done: Vec<Done>,
    /// Reused `(shard, slot)` resolutions for [`FleetEngine::ingest_batch`]
    /// (`UNKNOWN_SLOT` marks an unregistered id).
    resolved: Vec<(u32, u32)>,
    /// Per-stage time accumulated from completed shard passes.
    stage_times: StageTimes,
    /// Reports addressed to unregistered ids (rejected before sharding).
    unknown_cells: u64,
    /// Registers, deregisters and imports so far; with the shards'
    /// `first_reports`, the [`FleetEngine::membership_epoch`].
    membership_changes: u64,
    /// Engine-thread observability state when attached.
    obs: Option<EngineObs>,
    /// Engine-thread flight-recorder state when tracing is attached.
    tracer: Option<EngineTracer>,
}

impl FleetEngine {
    /// Creates an engine serving `model` with the given configuration.
    /// Zero values for `shards` / `micro_batch` are lifted to 1; see
    /// [`FleetConfig::workers`] for worker-count semantics.
    pub fn new(model: SocModel, config: FleetConfig) -> Self {
        Self::with_registry(Arc::new(ModelRegistry::new(model)), config)
    }

    /// Creates an engine that serves `quantized` on its batch passes —
    /// the gate's **evaluation seam**. The registry is pre-seeded with the
    /// candidate (bypassing [`ModelRegistry::install_quantized`]'s
    /// certificate check) precisely so the scenario gate can measure the
    /// candidate's accuracy *before* any certificate exists; the engine is
    /// private to the gate run and its registry is never the production
    /// one. Production promotion still has exactly one door:
    /// `install_quantized` with a [`crate::GateCertificate`].
    pub fn new_quantized_eval(quantized: Arc<QuantizedSocModel>, config: FleetConfig) -> Self {
        let registry = Arc::new(ModelRegistry::new_for_evaluation(quantized));
        let config = FleetConfig {
            serving: ServingMode::Int8,
            ..config
        };
        Self::with_registry(registry, config)
    }

    fn with_registry(registry: Arc<ModelRegistry>, config: FleetConfig) -> Self {
        let config = FleetConfig {
            shards: config.shards.max(1),
            micro_batch: config.micro_batch.max(1),
            ..config
        };
        let workers = config.resolved_workers().min(config.shards);
        let shards = (0..config.shards).map(|_| Some(Shard::new())).collect();
        let pool = WorkerPool::new(Arc::clone(&registry), workers);
        Self {
            registry,
            config,
            shards,
            pool,
            tick_tasks: Vec::new(),
            tick_done: Vec::new(),
            resolved: Vec::new(),
            stage_times: StageTimes::default(),
            unknown_cells: 0,
            membership_changes: 0,
            obs: None,
            tracer: None,
        }
    }

    /// Attaches observability: registers every `pinnsoc_fleet_*` series
    /// on `hub` (idempotently), equips each shard with a worker-side
    /// recording buffer, instruments the worker pool (as `pool="fleet"`),
    /// and hooks model swaps into the event log. Estimates are
    /// bit-identical with and without an attached hub — instrumentation
    /// only reads timings and counts the engine already computes.
    pub fn attach_obs(&mut self, hub: &Arc<ObsHub>) {
        let ids = Arc::new(FleetMetricIds::register(hub));
        self.pool.attach_obs(PoolObs::new(hub, "fleet"));
        for slot in self.shards.iter_mut() {
            let shard = slot.as_mut().expect(Self::SHARD_LOST);
            shard.obs = Some(ShardObs {
                local: hub.registry().local(),
                ids: Arc::clone(&ids),
                last_telemetry: shard.telemetry,
            });
        }
        self.registry.attach_obs(hub);
        hub.registry()
            .set(ids.model_version, self.registry.version() as f64);
        // The kernel path is decided once per process (runtime CPU
        // detection, or the PINNSOC_FORCE_KERNEL override) — record it so
        // exported metrics say which GEMM code path produced them.
        hub.registry()
            .set(ids.kernel_path, pinnsoc_nn::kernel::active() as u8 as f64);
        self.obs = Some(EngineObs {
            hub: Arc::clone(hub),
            ids,
            local: hub.registry().local(),
            last_unknown_cells: self.unknown_cells,
        });
    }

    /// The attached observability hub, if any.
    pub fn obs_hub(&self) -> Option<&Arc<ObsHub>> {
        self.obs.as_ref().map(|obs| &obs.hub)
    }

    /// Attaches the flight recorder: each tick records an `engine_tick`
    /// span (parented under [`FleetEngine::set_trace_parent`]'s span),
    /// each shard pass a `pass` span with `gather`/`gemm`/`scatter`
    /// children, and each pool run a `pool_run` span — the
    /// tick → lane → stage → worker causal tree. `pid` is the trace
    /// process row (the serve tier passes `lane + 1`; standalone engines
    /// can pass any value). Shard sinks record worker-side with no locks
    /// and **no extra clock reads** (they reuse the stage marks), merged
    /// by the engine thread at the same tick boundary as the metrics
    /// merge. Estimates are bit-identical with and without tracing.
    pub fn attach_tracer(&mut self, recorder: &Arc<FlightRecorder>, pid: u32) {
        for (tid, slot) in self.shards.iter_mut().enumerate() {
            let shard = slot.as_mut().expect(Self::SHARD_LOST);
            shard.tracer = Some(ShardTracer {
                sink: recorder.sink(),
                pid,
                tid: tid as u32,
                parent: 0,
            });
        }
        self.pool.attach_tracer(PoolTracer::new(recorder, pid));
        self.tracer = Some(EngineTracer {
            sink: recorder.sink(),
            pid,
            parent: 0,
        });
    }

    /// Whether a flight recorder is attached.
    pub fn tracer_attached(&self) -> bool {
        self.tracer.is_some()
    }

    /// Parents the next tick's `engine_tick` span under `parent` (the
    /// serve tier's lane span). No-op without an attached tracer.
    pub fn set_trace_parent(&mut self, parent: SpanId) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.parent = parent;
        }
    }

    /// The model registry, for hot swaps (shareable across threads).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Persistent worker threads backing the batch passes (the calling
    /// thread always participates on top of these).
    pub fn worker_threads(&self) -> usize {
        self.pool.workers()
    }

    /// Shard routing plus the id's *index key* within that shard. The
    /// shard selector (`id % shards`) is constant within a shard, so the
    /// key divides it out — `id >> log2(shards)` on the power-of-two
    /// route, `id / shards` on the modulo route — keeping the per-shard
    /// dense id tables truly dense at *any* shard count: consecutive
    /// producer ids land in consecutive table entries instead of every
    /// `shards`-th one, so a fleet-wide ingest sweep touches every byte it
    /// loads (and never migrates to the hash path just because the shard
    /// count is not a power of two). The mapping is injective per shard
    /// either way: two ids in one shard agree on `id % shards`, so equal
    /// quotients would force equal ids. One 64-bit hardware divide per
    /// report is also measurable at fleet scale — the power-of-two route
    /// is a mask and a shift.
    pub(crate) fn route(shards: usize, id: CellId) -> (usize, CellId) {
        let shards = shards as u64;
        if shards.is_power_of_two() {
            ((id & (shards - 1)) as usize, id >> shards.trailing_zeros())
        } else {
            ((id % shards) as usize, id / shards)
        }
    }

    fn shard_and_key(&self, id: CellId) -> (usize, CellId) {
        Self::route(self.config.shards, id)
    }

    /// A `None` slot outside a batch pass means a prior pass's task
    /// panicked and that shard's state was lost with the unwind; the
    /// original panic was re-raised then, so this only fires when the
    /// caller caught it and kept using the engine.
    const SHARD_LOST: &'static str = "shard lost to a panicked batch pass";

    fn shard(&self, idx: usize) -> &Shard {
        self.shards[idx].as_ref().expect(Self::SHARD_LOST)
    }

    fn shard_mut(&mut self, idx: usize) -> &mut Shard {
        self.shards[idx].as_mut().expect(Self::SHARD_LOST)
    }

    /// Registers a cell. Returns `false` (without changes) when the id is
    /// already registered.
    pub fn register(&mut self, id: CellId, config: CellConfig) -> bool {
        let ekf = self.config.ekf_fallback.clone();
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard_mut(shard_idx);
        if shard.index.get(key).is_some() {
            return false;
        }
        let slot = shard.cells.push(id, &config, ekf.as_ref());
        shard.index.insert(key, slot);
        self.membership_changes += 1;
        true
    }

    /// Deregisters a cell, dropping its state. Its reports stay counted in
    /// the telemetry books (they were integrated at ingest). Returns
    /// `false` when the id is not registered. Other cells' state and
    /// estimates are untouched bit-for-bit: removal swaps the shard's last
    /// slot into the freed one (repointing its index entry and dirty
    /// mark), and the per-cell math never depends on slot position.
    pub fn deregister(&mut self, id: CellId) -> bool {
        let shards = self.config.shards;
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard_mut(shard_idx);
        let Some(slot) = shard.index.remove(key) else {
            return false;
        };
        if shard.cells.reports[slot] > 0 {
            shard.reporting -= 1;
        }
        let moved = shard.cells.swap_remove(slot);
        // The shard's last cell now lives in `slot` (unless it was the one
        // removed); its dirty and changed marks and its index entry must
        // follow it.
        let last = shard.cells.len() as u32;
        for list in [&mut shard.dirty, &mut shard.changed] {
            list.retain(|&s| s as usize != slot);
            for s in list.iter_mut() {
                if *s == last {
                    *s = slot as u32;
                }
            }
        }
        if let Some(moved_id) = moved {
            shard.index.reassign(Self::route(shards, moved_id).1, slot);
        }
        self.membership_changes += 1;
        true
    }

    /// Ids of every registered cell, in shard order (stable for a fixed
    /// registration/deregistration history — the deterministic iteration
    /// seam the online-adaptation harvester walks each tick).
    pub fn ids(&self) -> Vec<CellId> {
        let mut out = Vec::with_capacity(self.len());
        for idx in 0..self.shards.len() {
            out.extend_from_slice(&self.shard(idx).cells.ids);
        }
        out
    }

    /// Registered cell count.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).cells.len())
            .sum()
    }

    /// True when no cells are registered.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.shard(i).cells.is_empty())
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: CellId) -> bool {
        let (shard_idx, key) = self.shard_and_key(id);
        self.shard(shard_idx).index.get(key).is_some()
    }

    /// Accepts one telemetry report, integrating it into the cell's state
    /// immediately (Coulomb / EKF update, telemetry books, dirty mark).
    /// Returns `false` for unknown cells. Estimation happens at the next
    /// [`FleetEngine::process_pending`]. Integrating here instead of
    /// queueing saves a full write-then-reread of every report (~8 MB/tick
    /// at 100k cells) and makes worker count unobservable: ingest runs on
    /// the caller thread in call order no matter how the batch passes are
    /// parallelized.
    pub fn ingest(&mut self, id: CellId, telemetry: Telemetry) -> bool {
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard_mut(shard_idx);
        match shard.index.get(key) {
            Some(slot) => {
                shard.absorb_one(slot, telemetry);
                true
            }
            None => {
                self.unknown_cells += 1;
                false
            }
        }
    }

    /// Accepts a batch of reports in arrival order — observably identical
    /// to calling [`FleetEngine::ingest`] on each frame in turn (cell
    /// state, telemetry books, dirty order, estimates), but in two phases:
    /// first every frame's `(shard, slot)` is resolved into a reused
    /// buffer, then every resolved frame is absorbed. Separating the index
    /// loads from the absorbs lets a drain of thousands of frames keep many
    /// independent cache misses in flight instead of serializing each
    /// absorb behind its own lookup. Frames are absorbed unsorted, in
    /// arrival order, so a cell reporting several times in one batch
    /// integrates its reports exactly as the per-frame path would.
    /// Returns how many frames addressed registered cells; the rest count
    /// as unknown-cell rejects.
    pub fn ingest_batch(&mut self, frames: &[(CellId, Telemetry)]) -> usize {
        let shards = self.config.shards;
        let mut resolved = std::mem::take(&mut self.resolved);
        resolved.clear();
        resolved.extend(frames.iter().map(|&(id, _)| {
            let (shard_idx, key) = Self::route(shards, id);
            let slot = self.shard(shard_idx).index.get(key);
            (shard_idx as u32, slot.map_or(UNKNOWN_SLOT, |s| s as u32))
        }));
        let mut known = 0;
        for (&(shard_idx, slot), &(_, telemetry)) in resolved.iter().zip(frames) {
            if slot != UNKNOWN_SLOT {
                self.shard_mut(shard_idx as usize)
                    .absorb_one(slot as usize, telemetry);
                known += 1;
            }
        }
        self.unknown_cells += (frames.len() - known) as u64;
        self.resolved = resolved;
        known
    }

    /// Refreshes network estimates for every cell touched since the last
    /// pass, through the persistent worker pool (integration already
    /// happened at [`FleetEngine::ingest`]). Returns
    /// `(reports_absorbed, cells_estimated)` fleet-wide.
    pub fn process_pending(&mut self) -> (usize, usize) {
        // Clock read only when observability or a live tracer is attached.
        let tracing = self.tracer.as_ref().is_some_and(|t| t.sink.is_on());
        let tick_start = (self.obs.is_some() || tracing).then(Instant::now);
        // Mint the tick span's id up front so the shard passes (which run
        // and record before the span's duration is known) can parent
        // under it; completed after the merge below.
        let tick_span = match self.tracer.as_mut() {
            Some(tracer) if tracing => tracer.sink.open(),
            _ => 0,
        };
        self.pool.set_trace_parent(tick_span);
        let micro_batch = self.config.micro_batch;
        self.tick_tasks.clear();
        for (idx, slot) in self.shards.iter_mut().enumerate() {
            // Idle shards contribute (0, 0) by construction — don't queue
            // them (sparse-telemetry ticks commonly touch a few shards out
            // of many).
            match slot {
                Some(shard) if !shard.dirty.is_empty() => {
                    let mut shard = slot.take().expect(Self::SHARD_LOST);
                    if let Some(tracer) = shard.tracer.as_mut() {
                        tracer.parent = tick_span;
                    }
                    self.tick_tasks.push((idx, shard));
                }
                // The pass skips this shard, so it estimates nothing here.
                Some(shard) => shard.changed.clear(),
                None => {}
            }
        }
        let panicked = self.pool.run(
            JobKind::Process {
                micro_batch,
                int8: self.config.serving == ServingMode::Int8,
            },
            &mut self.tick_tasks,
            &mut self.tick_done,
        );
        let mut totals = (0usize, 0usize);
        for done in self.tick_done.drain(..) {
            if let TaskOutput::Process {
                absorbed,
                estimated,
            } = done.output
            {
                totals.0 += absorbed;
                totals.1 += estimated;
            }
            self.stage_times.accumulate(&done.task.stage);
            self.shards[done.idx] = Some(done.task);
        }
        // Tick boundary: the engine thread merges every shard's local
        // buffer and refreshes the fleet-shape gauges. Workers are
        // quiescent, so no lock is ever contended from the hot path.
        if let (Some(obs), Some(start)) = (self.obs.as_mut(), tick_start) {
            let mut cells = 0usize;
            let mut reporting = 0usize;
            for slot in self.shards.iter_mut() {
                let shard = slot.as_mut().expect(Self::SHARD_LOST);
                cells += shard.cells.len();
                reporting += shard.reporting;
                if let Some(shard_obs) = shard.obs.as_mut() {
                    obs.hub.registry().merge(&mut shard_obs.local);
                }
            }
            let ids = &obs.ids;
            obs.local.add(ids.ticks, 1);
            obs.local
                .observe(ids.tick_seconds, start.elapsed().as_secs_f64());
            let unknown = self.unknown_cells - obs.last_unknown_cells;
            obs.last_unknown_cells = self.unknown_cells;
            obs.local.add(ids.telemetry_unknown_cell, unknown);
            obs.local.set(ids.cells, cells as f64);
            obs.local.set(ids.reporting, reporting as f64);
            obs.local
                .set(ids.model_version, self.registry.version() as f64);
            let quantized_installed = self.registry.quantized().is_some();
            obs.local
                .set(ids.quantized_active, u64::from(quantized_installed) as f64);
            if quantized_installed && self.config.serving == ServingMode::Int8 {
                obs.local.add(ids.quantized_ticks, 1);
            }
            obs.hub.registry().merge(&mut obs.local);
        }
        // Same tick boundary for the trace merge: workers are quiescent,
        // so every shard sink folds in uncontended, then the engine
        // completes its own tick span.
        if let (Some(tracer), Some(start)) = (self.tracer.as_mut(), tick_start) {
            let recorder = Arc::clone(tracer.sink.recorder());
            for slot in self.shards.iter_mut() {
                let shard = slot.as_mut().expect(Self::SHARD_LOST);
                if let Some(shard_tracer) = shard.tracer.as_mut() {
                    recorder.merge(&mut shard_tracer.sink);
                }
            }
            tracer.sink.complete(
                tick_span,
                "engine_tick",
                "fleet",
                tracer.pid,
                0,
                tracer.parent,
                start,
                Instant::now(),
            );
            recorder.merge(&mut tracer.sink);
        }
        // Re-raise only after every surviving shard is checked back in.
        assert!(!panicked, "shard task panicked during process_pending");
        totals
    }

    /// Best current SoC estimate for one cell, with its source.
    pub fn estimate(&self, id: CellId) -> Option<(f64, SocEstimate)> {
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard(shard_idx);
        shard
            .index
            .get(key)
            .and_then(|slot| shard.cells.estimate(slot))
    }

    /// Read access to one cell's full tracked state (an owned snapshot
    /// assembled from the shard's structure-of-arrays store).
    pub fn cell(&self, id: CellId) -> Option<CellSnapshot> {
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard(shard_idx);
        shard.index.get(key).map(|slot| shard.cells.snapshot(slot))
    }

    /// Per-estimator breakdown (network / Coulomb / EKF) of one cell's
    /// current estimates — the seam closed-loop validation scores each
    /// estimator through. `None` for unknown or never-reporting cells.
    pub fn estimate_breakdown(&self, id: CellId) -> Option<EstimateBreakdown> {
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard(shard_idx);
        shard
            .index
            .get(key)
            .and_then(|slot| shard.cells.breakdown(slot))
    }

    /// Cumulative telemetry accounting (accepted / duplicate / rejected by
    /// cause) summed over all shards since construction.
    pub fn telemetry_stats(&self) -> TelemetryStats {
        let mut stats = TelemetryStats {
            unknown_cell: self.unknown_cells,
            ..TelemetryStats::default()
        };
        for idx in 0..self.shards.len() {
            stats.accumulate(&self.shard(idx).telemetry);
        }
        stats
    }

    /// Flattened persisted state of every cell, in shard order then slot
    /// order — exactly the order [`Self::import_cells`] must replay to
    /// reproduce each cell's `(shard, slot)` placement. The durability
    /// layer's snapshot seam.
    pub fn export_cells(&self) -> Vec<CellPersist> {
        let mut out = Vec::with_capacity(self.len());
        for idx in 0..self.shards.len() {
            let shard = self.shard(idx);
            for slot in 0..shard.cells.len() {
                out.push(shard.cells.export_cell(slot));
            }
        }
        out
    }

    /// Rebuilds cells from persisted state — the recovery counterpart of
    /// [`Self::export_cells`]. Cells shard by `id % shards` as always, so
    /// replaying an export taken under the same shard count reproduces
    /// every `(shard, slot)` placement and the engine's subsequent
    /// estimates are bit-identical to the exporting engine's.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id or an EKF-fallback mismatch between this
    /// engine's configuration and the persisted cells.
    pub fn import_cells(&mut self, cells: &[CellPersist]) {
        let ekf = self.config.ekf_fallback.clone();
        for cell in cells {
            let (shard_idx, key) = self.shard_and_key(cell.id);
            let shard = self.shard_mut(shard_idx);
            assert!(
                shard.index.get(key).is_none(),
                "persisted cell id {} already registered",
                cell.id
            );
            let slot = shard.cells.import_cell(cell, ekf.as_ref());
            shard.index.insert(key, slot);
            if cell.reports > 0 {
                shard.reporting += 1;
            }
        }
        self.membership_changes += 1;
    }

    /// Seeds the cumulative telemetry books from a persisted aggregate —
    /// the recovery counterpart of [`Self::telemetry_stats`]. The aggregate
    /// cannot be split back into per-shard books (and nothing reads them
    /// per shard), so the whole sum lands on shard 0 with `unknown_cell`
    /// routed to the engine-level counter; [`Self::telemetry_stats`] then
    /// reports continuous totals across a restart.
    pub fn restore_telemetry_stats(&mut self, stats: TelemetryStats) {
        self.unknown_cells = stats.unknown_cell;
        self.shard_mut(0).telemetry = TelemetryStats {
            unknown_cell: 0,
            ..stats
        };
    }

    /// Batched full-pipeline prediction for every reporting cell under one
    /// described workload, drained from the worker pool. Results are in
    /// shard order; pair order within a shard follows registration order.
    pub fn predict_all(&mut self, workload: WorkloadQuery) -> Vec<(CellId, f64)> {
        let pass_start = self.obs.as_ref().map(|_| Instant::now());
        let micro_batch = self.config.micro_batch;
        self.tick_tasks.clear();
        for (idx, slot) in self.shards.iter_mut().enumerate() {
            // Shards with no reporting cells return an empty Vec by
            // construction — skip queueing them.
            if slot.as_ref().is_some_and(|s| s.reporting > 0) {
                self.tick_tasks
                    .push((idx, slot.take().expect(Self::SHARD_LOST)));
            }
        }
        let panicked = self.pool.run(
            JobKind::PredictAll {
                workload,
                micro_batch,
                int8: self.config.serving == ServingMode::Int8,
            },
            &mut self.tick_tasks,
            &mut self.tick_done,
        );
        // Completion order is nondeterministic under concurrency; restore
        // shard order for a stable public result.
        self.tick_done.sort_unstable_by_key(|done| done.idx);
        let total = self
            .tick_done
            .iter()
            .map(|done| match &done.output {
                TaskOutput::Predict(pairs) => pairs.len(),
                TaskOutput::Process { .. } => 0,
            })
            .sum();
        let mut out = Vec::with_capacity(total);
        for done in self.tick_done.drain(..) {
            if let TaskOutput::Predict(mut pairs) = done.output {
                out.append(&mut pairs);
            }
            self.shards[done.idx] = Some(done.task);
        }
        if let (Some(obs), Some(start)) = (self.obs.as_mut(), pass_start) {
            obs.local
                .observe(obs.ids.predict_seconds, start.elapsed().as_secs_f64());
            obs.hub.registry().merge(&mut obs.local);
        }
        // Re-raise only after every surviving shard is checked back in.
        assert!(!panicked, "shard task panicked during predict_all");
        out
    }

    /// Predicted seconds until empty for one cell at a constant discharge
    /// current.
    pub fn time_to_empty(&self, id: CellId, discharge_current_a: f64) -> Option<f64> {
        let (shard_idx, key) = self.shard_and_key(id);
        let shard = self.shard(shard_idx);
        shard
            .index
            .get(key)
            .and_then(|slot| shard.cells.time_to_empty_s(slot, discharge_current_a))
    }

    /// Cumulative per-stage batch-pass times, summed over all shards since
    /// construction or the last [`FleetEngine::reset_stage_times`]. The
    /// bench harness uses this for the ingest/gather/GEMM/scatter
    /// breakdown in `BENCH_fleet.json`.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// Zeroes the cumulative stage times.
    pub fn reset_stage_times(&mut self) {
        self.stage_times = StageTimes::default();
    }

    /// Histogram of best-estimate SoC over reporting cells: `bins` equal
    /// buckets over `[0, 1]`, the last bucket closed.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn soc_histogram(&self, bins: usize) -> Vec<usize> {
        soc_histogram(self.estimates().map(|(_, soc)| soc), bins)
    }

    /// Ids of reporting cells whose best estimate is below `threshold`,
    /// ascending.
    pub fn cells_below(&self, threshold: f64) -> Vec<CellId> {
        let mut out: Vec<CellId> = self
            .estimates()
            .filter(|&(_, soc)| soc < threshold)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Fleet-level summary statistics, folded in shard order (the fold is
    /// order-free, so any order gives the same bits).
    pub fn stats(&self) -> FleetStats {
        FleetStats::fold(self.len(), self.estimates().map(|(_, soc)| soc))
    }

    /// Every reporting cell's id and best-estimate SoC, in shard order then
    /// slot order.
    fn estimates(&self) -> impl Iterator<Item = (CellId, f64)> + '_ {
        (0..self.shards.len()).flat_map(move |idx| {
            let cells = &self.shard(idx).cells;
            (0..cells.len())
                .filter_map(move |slot| cells.estimate(slot).map(|(soc, _)| (cells.ids[slot], soc)))
        })
    }

    /// Calls `f` with every reporting cell's id and full per-estimator
    /// breakdown, in shard order then slot order: one linear sweep over
    /// the structure-of-arrays store instead of one routed
    /// [`Self::estimate_breakdown`] lookup per cell.
    pub fn for_each_breakdown(&self, mut f: impl FnMut(CellId, EstimateBreakdown)) {
        self.for_each_slot(|_, cells, slot| {
            if let Some(breakdown) = cells.breakdown(slot) {
                f(cells.ids[slot], breakdown);
            }
        });
    }

    /// Counts membership events: it moves on every successful
    /// [`Self::register`] and [`Self::deregister`], every
    /// [`Self::import_cells`] call, and every cell's first accepted report,
    /// and on nothing else. While it stands still, the reporting cells and
    /// their positions (see [`Self::breakdown_at`]) stay the same.
    pub fn membership_epoch(&self) -> u64 {
        let first_reports: u64 = (0..self.shards.len())
            .map(|idx| self.shard(idx).first_reports)
            .sum();
        self.membership_changes + first_reports
    }

    /// How many positions [`Self::for_each_changed`] visits.
    pub fn changed_count(&self) -> usize {
        (0..self.shards.len())
            .map(|idx| self.shard(idx).changed.len())
            .sum()
    }

    /// Calls `f` with the position of every cell the most recent
    /// [`Self::process_pending`] estimated, in position order (each
    /// shard's pass walks its cells in slot order). Every change to a
    /// cell's breakdown goes through ingest (which marks the cell for the
    /// next pass; rejected reports change nothing) or through the pass
    /// itself, so after `ingest`/`ingest_batch` + `process_pending` this
    /// visits every cell whose breakdown changed. A cell deregistered since
    /// is dropped from the list, and the cell moved into its slot keeps
    /// its entry, out of order.
    pub fn for_each_changed(&self, mut f: impl FnMut(usize)) {
        self.for_each_changed_slot(|position, _, _| f(position));
    }

    /// [`Self::for_each_changed`] with each cell's estimates: equal, once
    /// expanded, to [`Self::breakdown_at`] for the same position, but read
    /// shard by shard without a position lookup per cell.
    pub fn for_each_changed_entry(&self, mut f: impl FnMut(usize, EstimateEntry)) {
        self.for_each_changed_slot(|position, cells, slot| {
            if let Some(entry) = cells.entry(slot) {
                f(position, entry);
            }
        });
    }

    /// Calls `f` with the position and estimates of every reporting cell,
    /// in position order.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, EstimateEntry)) {
        self.for_each_slot(|position, cells, slot| {
            if let Some(entry) = cells.entry(slot) {
                f(position, entry);
            }
        });
    }

    /// Calls `f` with the position and id of every reporting cell, in
    /// position order.
    pub fn for_each_reporting(&self, mut f: impl FnMut(usize, CellId)) {
        self.for_each_slot(|position, cells, slot| {
            if cells.reports[slot] > 0 {
                f(position, cells.ids[slot]);
            }
        });
    }

    /// One cell's breakdown by position: its index in shard-then-slot
    /// order, the order of [`Self::ids`], [`Self::for_each_breakdown`] and
    /// [`Self::export_cells`]. `None` for a cell that has not reported or a
    /// position past the last cell.
    pub fn breakdown_at(&self, position: usize) -> Option<EstimateBreakdown> {
        let mut slot = position;
        for idx in 0..self.shards.len() {
            let cells = &self.shard(idx).cells;
            if slot < cells.len() {
                return cells.breakdown(slot);
            }
            slot -= cells.len();
        }
        None
    }

    /// Calls `f` with every registered cell's position, store and slot, in
    /// shard order then slot order.
    fn for_each_slot(&self, mut f: impl FnMut(usize, &CellStore, usize)) {
        let mut start = 0;
        for idx in 0..self.shards.len() {
            let cells = &self.shard(idx).cells;
            for slot in 0..cells.len() {
                f(start + slot, cells, slot);
            }
            start += cells.len();
        }
    }

    /// Calls `f` with the position, store and slot of every cell on the
    /// shards' `changed` lists, shard by shard.
    fn for_each_changed_slot(&self, mut f: impl FnMut(usize, &CellStore, usize)) {
        let mut start = 0;
        for idx in 0..self.shards.len() {
            let shard = self.shard(idx);
            for &slot in &shard.changed {
                f(start + slot as usize, &shard.cells, slot as usize);
            }
            start += shard.cells.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::untrained_model;
    use pinnsoc_obs::SampleValue;

    fn telemetry(time_s: f64) -> Telemetry {
        Telemetry {
            time_s,
            voltage_v: 3.7,
            current_a: 1.0,
            temperature_c: 25.0,
        }
    }

    fn engine_with(cells: u64, shards: usize) -> FleetEngine {
        engine_with_workers(cells, shards, 0)
    }

    /// Engine with an explicit worker-thread count, so the pool handoff is
    /// exercised even on single-core test hosts (where auto = 0 workers).
    fn engine_with_workers(cells: u64, shards: usize, workers: usize) -> FleetEngine {
        let mut engine = FleetEngine::new(
            untrained_model(),
            FleetConfig {
                shards,
                micro_batch: 8,
                workers,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
        );
        for id in 0..cells {
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

    #[test]
    fn register_ingest_process_estimate_roundtrip() {
        let mut engine = engine_with(100, 4);
        assert_eq!(engine.len(), 100);
        assert!(engine.contains(42) && !engine.contains(1000));
        assert!(
            !engine.register(42, CellConfig::default()),
            "duplicate register"
        );
        assert!(engine.ingest(42, telemetry(1.0)));
        assert!(
            !engine.ingest(1000, telemetry(1.0)),
            "unknown cell accepted"
        );
        let (absorbed, estimated) = engine.process_pending();
        assert_eq!((absorbed, estimated), (1, 1));
        let (soc, source) = engine.estimate(42).expect("estimated");
        assert_eq!(source, SocEstimate::Network);
        assert!(soc.is_finite());
        assert_eq!(
            engine.estimate(7),
            None,
            "never-reporting cell has no estimate"
        );
        let snapshot = engine.cell(42).expect("registered");
        assert_eq!(snapshot.id, 42);
        assert_eq!(snapshot.reports, 1);
        assert!(snapshot.network_estimate.is_some());
    }

    #[test]
    fn coalescing_integrates_every_report_but_estimates_once() {
        let mut engine = engine_with(1, 1);
        for k in 0..5 {
            engine.ingest(0, telemetry(k as f64 * 10.0));
        }
        let (absorbed, estimated) = engine.process_pending();
        assert_eq!(absorbed, 5);
        assert_eq!(
            estimated, 1,
            "five reports must coalesce into one batch slot"
        );
    }

    #[test]
    fn export_import_reproduces_engine_bit_for_bit() {
        let build = || {
            let mut engine = engine_with(60, 4);
            for step in 0..3 {
                for id in 0..60u64 {
                    engine.ingest(
                        id,
                        Telemetry {
                            time_s: 1.0 + step as f64 * 10.0,
                            voltage_v: 3.2 + id as f64 * 0.01,
                            current_a: 0.5 + id as f64 * 0.02,
                            temperature_c: 22.0 + id as f64 * 0.1,
                        },
                    );
                }
                engine.process_pending();
            }
            engine.ingest(1000, telemetry(1.0)); // unknown-cell book
            engine
        };
        let mut original = build();
        let export = original.export_cells();
        let books = original.telemetry_stats();

        let mut restored = FleetEngine::new(
            untrained_model(),
            FleetConfig {
                shards: 4,
                micro_batch: 8,
                workers: 0,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
        );
        restored.import_cells(&export);
        restored.restore_telemetry_stats(books);
        assert_eq!(restored.len(), 60);
        assert_eq!(restored.ids(), original.ids(), "shard/slot placement");
        assert_eq!(restored.telemetry_stats(), books);
        assert_eq!(restored.export_cells(), export, "lossless round trip");

        // Continue both engines identically: estimates stay bit-identical.
        for engine in [&mut original, &mut restored] {
            for id in 0..60u64 {
                engine.ingest(
                    id,
                    Telemetry {
                        time_s: 40.0,
                        voltage_v: 3.3 + id as f64 * 0.005,
                        current_a: 1.0,
                        temperature_c: 24.0,
                    },
                );
            }
            engine.process_pending();
        }
        for id in 0..60u64 {
            let a = original.estimate(id).unwrap();
            let b = restored.estimate(id).unwrap();
            assert_eq!(a.1, b.1, "cell {id} source");
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "cell {id} estimate");
        }
        assert_eq!(original.telemetry_stats(), restored.telemetry_stats());
    }

    #[test]
    fn batched_estimates_match_scalar_model_calls() {
        let mut engine = engine_with(50, 4);
        for id in 0..50 {
            engine.ingest(
                id,
                Telemetry {
                    time_s: 1.0,
                    voltage_v: 3.2 + id as f64 * 0.015,
                    current_a: id as f64 * 0.1,
                    temperature_c: 20.0 + id as f64 * 0.2,
                },
            );
        }
        engine.process_pending();
        let model = engine.registry().current();
        for id in 0..50 {
            let (soc, _) = engine.estimate(id).unwrap();
            // `CellStore::estimate` clamps the raw regression output into
            // [0, 1] for fleet aggregates; compare against the clamped
            // scalar call. Raw batched-vs-scalar parity (unclamped) is
            // covered by the predict_batch tests here and in `pinnsoc`.
            let scalar = model
                .estimate(
                    3.2 + id as f64 * 0.015,
                    id as f64 * 0.1,
                    20.0 + id as f64 * 0.2,
                )
                .clamp(0.0, 1.0);
            assert_eq!(soc.to_bits(), scalar.to_bits(), "cell {id}");
        }
    }

    #[test]
    fn worker_pool_results_match_caller_only_processing() {
        // The same fleet and telemetry processed with 0, 1, and 3 worker
        // threads must produce identical state — the pool handoff cannot
        // change results, only who computes them.
        let feed = |engine: &mut FleetEngine| {
            for id in 0..200u64 {
                engine.ingest(
                    id,
                    Telemetry {
                        time_s: 1.0,
                        voltage_v: 3.1 + id as f64 * 0.004,
                        current_a: id as f64 * 0.02,
                        temperature_c: 18.0 + id as f64 * 0.05,
                    },
                );
            }
        };
        let workload = WorkloadQuery {
            avg_current_a: 2.0,
            avg_temperature_c: 25.0,
            horizon_s: 90.0,
        };
        type EngineResults = (Vec<(u64, f64)>, Vec<(CellId, f64)>);
        let mut reference: Option<EngineResults> = None;
        // `workers: 0` resolves to auto (one fewer than the host's
        // threads); every count is capped at the shard count.
        let auto = std::thread::available_parallelism().map_or(0, |p| usize::from(p) - 1);
        for workers in [0usize, 1, 3] {
            let mut engine = engine_with_workers(200, 5, workers);
            let resolved = if workers == 0 { auto } else { workers }.min(5);
            assert_eq!(engine.worker_threads(), resolved, "workers={workers}");
            feed(&mut engine);
            let (absorbed, estimated) = engine.process_pending();
            assert_eq!((absorbed, estimated), (200, 200), "workers={workers}");
            let estimates: Vec<(u64, f64)> = (0..200u64)
                .map(|id| (id, engine.estimate(id).unwrap().0))
                .collect();
            let predictions = engine.predict_all(workload);
            match &reference {
                None => reference = Some((estimates, predictions)),
                Some((ref_est, ref_pred)) => {
                    for ((id_a, a), (id_b, b)) in ref_est.iter().zip(&estimates) {
                        assert_eq!(id_a, id_b);
                        assert_eq!(a.to_bits(), b.to_bits(), "workers={workers} cell {id_a}");
                    }
                    assert_eq!(ref_pred.len(), predictions.len());
                    for ((id_a, a), (id_b, b)) in ref_pred.iter().zip(&predictions) {
                        assert_eq!(id_a, id_b, "workers={workers}: prediction order");
                        assert_eq!(a.to_bits(), b.to_bits(), "workers={workers} cell {id_a}");
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_ticks_reuse_pool_without_leaking_shards() {
        let mut engine = engine_with_workers(64, 4, 2);
        let workload = WorkloadQuery {
            avg_current_a: 1.0,
            avg_temperature_c: 25.0,
            horizon_s: 60.0,
        };
        for tick in 1..=20 {
            for id in 0..64u64 {
                engine.ingest(id, telemetry(tick as f64));
            }
            let (absorbed, estimated) = engine.process_pending();
            assert_eq!((absorbed, estimated), (64, 64), "tick {tick}");
            assert_eq!(engine.predict_all(workload).len(), 64, "tick {tick}");
        }
        // All shards are back in place for direct access.
        assert_eq!(engine.len(), 64);
        assert!(engine.stage_times().total() > Duration::ZERO);
        engine.reset_stage_times();
        assert_eq!(engine.stage_times(), StageTimes::default());
    }

    #[test]
    fn predict_all_covers_reporting_cells_and_matches_scalar() {
        let mut engine = engine_with(30, 3);
        for id in 0..20 {
            engine.ingest(id, telemetry(5.0));
        }
        engine.process_pending();
        let workload = WorkloadQuery {
            avg_current_a: 3.0,
            avg_temperature_c: 25.0,
            horizon_s: 120.0,
        };
        let predictions = engine.predict_all(workload);
        assert_eq!(predictions.len(), 20, "only reporting cells predicted");
        let model = engine.registry().current();
        let scalar = model.predict(3.7, 1.0, 25.0, 3.0, 25.0, 120.0);
        for (id, p) in predictions {
            assert!(id < 20);
            assert_eq!(p.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn hot_swap_applies_to_next_pass() {
        let mut engine = engine_with(4, 2);
        engine.ingest(0, telemetry(1.0));
        engine.process_pending();
        let before = engine.estimate(0).unwrap().0;
        // Swap in a model with different weights: estimates must move at
        // the next processing pass, and old passes stay untouched.
        let mut replacement = crate::testing::untrained_model_seeded(99);
        replacement.label = "swapped".into();
        engine.registry().swap(replacement);
        assert_eq!(
            engine.estimate(0).unwrap().0,
            before,
            "swap alone rewrites nothing"
        );
        engine.ingest(0, telemetry(2.0));
        engine.process_pending();
        let after = engine.estimate(0).unwrap().0;
        assert_ne!(after, before, "new weights must change the estimate");
        assert_eq!(engine.registry().version(), 2);
    }

    #[test]
    fn soc_histogram_bins_every_value_like_the_unsigned_cast() {
        let socs = [
            f64::NAN,
            f64::NEG_INFINITY,
            -3.0,
            -0.0,
            0.0,
            0.1,
            0.25,
            0.5,
            0.999,
            1.0,
            1.5,
            1e300,
            f64::INFINITY,
        ];
        for bins in [1, 3, 4, 32] {
            let mut expected = vec![0; bins];
            for soc in socs {
                expected[((soc * bins as f64) as usize).min(bins - 1)] += 1;
            }
            assert_eq!(soc_histogram(socs, bins), expected, "{bins} bins");
        }
    }

    #[test]
    fn aggregates_histogram_below_and_stats() {
        let mut engine = FleetEngine::new(
            untrained_model(),
            FleetConfig {
                shards: 2,
                micro_batch: 16,
                workers: 0,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
        );
        for id in 0..10 {
            engine.register(
                id,
                CellConfig {
                    initial_soc: 0.05 + id as f64 * 0.1,
                    capacity_ah: 3.0,
                },
            );
            engine.ingest(
                id,
                Telemetry {
                    time_s: 0.0,
                    voltage_v: 3.7,
                    current_a: 0.0,
                    temperature_c: 25.0,
                },
            );
        }
        engine.process_pending();
        let histogram = engine.soc_histogram(5);
        assert_eq!(histogram.iter().sum::<usize>(), 10);
        let stats = engine.stats();
        assert_eq!(stats.cells, 10);
        assert_eq!(stats.reporting, 10);
        assert!(stats.min_soc <= stats.mean_soc && stats.mean_soc <= stats.max_soc);
        let below = engine.cells_below(2.0);
        assert_eq!(below.len(), 10, "threshold above every estimate");
        assert!(below.windows(2).all(|w| w[0] < w[1]), "sorted ids");
    }

    #[test]
    fn time_to_empty_uses_best_estimate() {
        let mut engine = engine_with(2, 1);
        engine.ingest(0, telemetry(0.0));
        engine.process_pending();
        let (soc, _) = engine.estimate(0).unwrap();
        let tte = engine.time_to_empty(0, 3.0).unwrap();
        assert!((tte - soc * 3600.0 * 3.0 / 3.0).abs() < 1e-9);
        assert_eq!(engine.time_to_empty(1, 3.0), None, "no telemetry yet");
    }

    #[test]
    fn stage_times_cover_all_pipeline_stages() {
        let mut engine = engine_with(500, 2);
        for id in 0..500u64 {
            engine.ingest(id, telemetry(1.0));
        }
        engine.process_pending();
        let stages = engine.stage_times();
        // Every stage ran; on fast hosts an individual stage can round to
        // zero, but the total cannot.
        assert!(stages.total() > Duration::ZERO);
        assert!(stages.total() >= stages.gemm);
    }

    #[test]
    fn telemetry_stats_count_rejections_by_cause() {
        let mut engine = engine_with(4, 2);
        engine.ingest(0, telemetry(10.0));
        engine.ingest(0, telemetry(10.0)); // duplicate timestamp
        engine.ingest(0, telemetry(5.0)); // time-reversed
        let mut bad = telemetry(20.0);
        bad.current_a = f64::NAN;
        engine.ingest(0, bad); // non-finite
        assert!(!engine.ingest(999, telemetry(1.0)), "unknown id");
        engine.process_pending();
        let stats = engine.telemetry_stats();
        assert_eq!(
            stats,
            TelemetryStats {
                accepted: 2,
                duplicate_timestamp: 1,
                rejected_non_finite: 1,
                rejected_time_reversed: 1,
                unknown_cell: 1,
            }
        );
        assert_eq!(stats.rejected(), 3);
        // The breakdown accessor mirrors the per-cell estimators.
        let b = engine.estimate_breakdown(0).expect("cell 0 reported");
        assert!(b.network_fresh);
        assert_eq!(b.best.1, SocEstimate::Network);
        assert_eq!(b.ekf, None, "EKF fallback disabled in this engine");
        assert_eq!(engine.estimate_breakdown(1), None, "never reported");
        assert_eq!(engine.estimate_breakdown(999), None, "unknown id");
    }

    #[test]
    fn deregister_removes_cell_and_leaves_others_bit_unchanged() {
        let mut engine = engine_with(40, 4);
        let feed = |engine: &mut FleetEngine, t: f64| {
            for id in 0..40u64 {
                engine.ingest(
                    id,
                    Telemetry {
                        time_s: t,
                        voltage_v: 3.3 + id as f64 * 0.01,
                        current_a: (id % 5) as f64 * 0.4,
                        temperature_c: 21.0 + id as f64 * 0.1,
                    },
                );
            }
        };
        feed(&mut engine, 1.0);
        engine.process_pending();
        let before: Vec<(u64, u64)> = (0..40u64)
            .filter(|&id| id != 17)
            .map(|id| (id, engine.estimate(id).unwrap().0.to_bits()))
            .collect();
        assert!(engine.deregister(17));
        assert!(!engine.deregister(17), "double deregister");
        assert!(!engine.deregister(9999), "unknown id");
        assert_eq!(engine.len(), 39);
        assert!(!engine.contains(17));
        assert_eq!(engine.estimate(17), None);
        let mut ids = engine.ids();
        ids.sort_unstable();
        assert_eq!(ids.len(), 39);
        assert!(!ids.contains(&17));
        // Remaining estimates are untouched bit-for-bit by the removal.
        for (id, bits) in &before {
            assert_eq!(
                engine.estimate(*id).unwrap().0.to_bits(),
                *bits,
                "cell {id} changed across deregister"
            );
        }
        // Telemetry to the removed id is rejected at ingest; everyone else
        // keeps ticking, bit-matching a control engine that processed the
        // same stream (per-cell math is slot-independent).
        assert!(!engine.ingest(17, telemetry(2.0)));
        feed(&mut engine, 2.0);
        let (absorbed, _) = engine.process_pending();
        assert_eq!(absorbed, 39);
        let mut control = engine_with(40, 4);
        feed(&mut control, 1.0);
        control.process_pending();
        control.deregister(17);
        feed(&mut control, 2.0);
        control.process_pending();
        for id in (0..40u64).filter(|&id| id != 17) {
            assert_eq!(
                engine.estimate(id).unwrap().0.to_bits(),
                control.estimate(id).unwrap().0.to_bits(),
                "cell {id} diverged post-deregister"
            );
        }
        // The explicit ingest above plus feed()'s own attempt at id 17.
        assert_eq!(engine.telemetry_stats().unknown_cell, 2);
    }

    #[test]
    fn deregister_with_pending_telemetry_remaps_swapped_cell() {
        // One shard, so slots are dense: deregistering slot 0 swaps the last
        // cell (highest id) into it while its telemetry is still queued.
        let mut engine = engine_with(8, 1);
        for id in 0..8u64 {
            engine.ingest(
                id,
                Telemetry {
                    time_s: 1.0,
                    voltage_v: 3.2 + id as f64 * 0.05,
                    current_a: 1.0,
                    temperature_c: 25.0,
                },
            );
        }
        assert!(engine.deregister(0));
        let (absorbed, estimated) = engine.process_pending();
        // All 8 reports count as absorbed (the doomed cell's is flushed at
        // deregister so the books match across worker counts), but only the
        // 7 survivors estimate.
        assert_eq!((absorbed, estimated), (8, 7), "queued reports survive");
        let model = engine.registry().current();
        for id in 1..8u64 {
            let (soc, _) = engine.estimate(id).unwrap();
            let scalar = model
                .estimate(3.2 + id as f64 * 0.05, 1.0, 25.0)
                .clamp(0.0, 1.0);
            assert_eq!(soc.to_bits(), scalar.to_bits(), "cell {id}");
        }
        // The freed id can re-register and serve again.
        assert!(engine.register(0, CellConfig::default()));
        assert!(engine.ingest(0, telemetry(2.0)));
        engine.process_pending();
        assert!(engine.estimate(0).is_some());
    }

    #[test]
    fn attached_obs_records_fleet_series_and_leaves_estimates_bit_identical() {
        let feed = |engine: &mut FleetEngine, t: f64| {
            for id in 0..120u64 {
                engine.ingest(
                    id,
                    Telemetry {
                        time_s: t,
                        voltage_v: 3.2 + id as f64 * 0.006,
                        current_a: (id % 7) as f64 * 0.3,
                        temperature_c: 19.0 + id as f64 * 0.08,
                    },
                );
            }
        };
        let hub = pinnsoc_obs::ObsHub::new();
        let mut observed = engine_with_workers(120, 4, 2);
        observed.attach_obs(&hub);
        assert!(observed.obs_hub().is_some());
        let mut control = engine_with_workers(120, 4, 2);
        assert!(control.obs_hub().is_none());
        for tick in 1..=3 {
            feed(&mut observed, tick as f64);
            feed(&mut control, tick as f64);
            assert_eq!(observed.process_pending(), control.process_pending());
        }
        // Bit-identity: instrumentation must not perturb a single estimate.
        for id in 0..120u64 {
            assert_eq!(
                observed.estimate(id).unwrap().0.to_bits(),
                control.estimate(id).unwrap().0.to_bits(),
                "cell {id}"
            );
        }
        // The series landed: stage histograms, tick counters, gauges.
        let snap = hub.snapshot();
        assert_eq!(
            snap.metrics
                .counter_total("pinnsoc_fleet_reports_absorbed_total"),
            360
        );
        assert_eq!(snap.metrics.counter_total("pinnsoc_fleet_ticks_total"), 3);
        let gemm = snap
            .metrics
            .find("pinnsoc_fleet_stage_seconds", &[("stage", "gemm")])
            .expect("gemm stage series");
        let SampleValue::Histogram(gemm) = &gemm.value else {
            panic!("stage series must be a histogram");
        };
        assert!(gemm.count > 0, "at least one shard pass per tick");
        assert!(gemm.quantile(0.99) >= gemm.quantile(0.5));
        match snap.metrics.find("pinnsoc_fleet_cells", &[]).unwrap().value {
            SampleValue::Gauge(v) => assert_eq!(v, 120.0),
            ref v => panic!("{v:?}"),
        }
        // A swap shows up as a version gauge bump and a ring event.
        observed.registry().swap(untrained_model());
        feed(&mut observed, 10.0);
        observed.process_pending();
        let snap = hub.snapshot();
        match snap
            .metrics
            .find("pinnsoc_fleet_model_version", &[])
            .unwrap()
            .value
        {
            SampleValue::Gauge(v) => assert_eq!(v, 2.0),
            ref v => panic!("{v:?}"),
        }
        assert!(snap
            .events
            .iter()
            .any(|e| e.source == "fleet" && e.message.contains("model swap to v2")));
        // Telemetry books export by outcome, including unknown cells.
        observed.ingest(9999, telemetry(1.0));
        observed.process_pending();
        let snap = hub.snapshot();
        let unknown = snap
            .metrics
            .find(
                "pinnsoc_fleet_telemetry_reports_total",
                &[("outcome", "unknown_cell")],
            )
            .unwrap();
        match unknown.value {
            SampleValue::Counter(n) => assert_eq!(n, 1),
            ref v => panic!("{v:?}"),
        }
        // Prometheus exposition renders without panicking and includes
        // the fleet namespace.
        assert!(hub
            .prometheus()
            .contains("pinnsoc_fleet_tick_seconds_bucket"));
    }

    #[test]
    fn telemetry_stats_delta_is_per_field_and_saturating() {
        let prev = TelemetryStats {
            accepted: 10,
            duplicate_timestamp: 2,
            rejected_non_finite: 1,
            rejected_time_reversed: 0,
            unknown_cell: 5,
        };
        let now = TelemetryStats {
            accepted: 15,
            duplicate_timestamp: 2,
            rejected_non_finite: 4,
            rejected_time_reversed: 1,
            unknown_cell: 3, // behind: a different engine's book
        };
        let d = now.delta(&prev);
        assert_eq!(
            d,
            TelemetryStats {
                accepted: 5,
                duplicate_timestamp: 0,
                rejected_non_finite: 3,
                rejected_time_reversed: 1,
                unknown_cell: 0,
            }
        );
        assert_eq!(now.delta(&now), TelemetryStats::default());
    }

    /// Builds an int8-mode engine with cells registered and a quantized
    /// shadow of the incumbent already installed through the certificate
    /// door.
    fn quantized_engine(cells: u64, shards: usize, workers: usize) -> FleetEngine {
        let mut engine = FleetEngine::new(
            untrained_model(),
            FleetConfig {
                shards,
                micro_batch: 8,
                workers,
                ekf_fallback: None,
                serving: ServingMode::Int8,
            },
        );
        for id in 0..cells {
            engine.register(
                id,
                CellConfig {
                    initial_soc: 0.9,
                    capacity_ah: 3.0,
                },
            );
        }
        let registry = engine.registry();
        let quantized = Arc::new(crate::testing::quantize_untrained(&registry.current()));
        let cert = crate::registry::GateCertificate::attest(
            &registry.current(),
            registry.version(),
            0.02,
            0.02,
            crate::registry::GateTolerance::default(),
            2,
        )
        .unwrap();
        registry.install_quantized(quantized, &cert).unwrap();
        engine
    }

    /// The raw (unclamped) network estimate — [`FleetEngine::estimate`]
    /// clamps into `[0, 1]`, which would mask path differences whenever an
    /// untrained model saturates the clamp.
    fn raw_estimate(engine: &FleetEngine, id: u64) -> f64 {
        engine.cell(id).unwrap().network_estimate.unwrap().1
    }

    #[test]
    fn int8_mode_without_installed_shadow_is_bit_identical_f32() {
        let mut f32_engine = engine_with(40, 4);
        let mut int8_engine = engine_with(40, 4);
        int8_engine.config.serving = ServingMode::Int8;
        for id in 0..40 {
            f32_engine.ingest(id, telemetry(1.0));
            int8_engine.ingest(id, telemetry(1.0));
        }
        f32_engine.process_pending();
        int8_engine.process_pending();
        for id in 0..40 {
            assert_eq!(
                raw_estimate(&f32_engine, id).to_bits(),
                raw_estimate(&int8_engine, id).to_bits(),
                "no shadow installed: int8 mode must degrade to the f32 path"
            );
        }
    }

    #[test]
    fn int8_serving_differs_from_f32_but_tracks_it() {
        let mut f32_engine = engine_with(40, 4);
        let mut int8_engine = quantized_engine(40, 4, 0);
        for id in 0..40 {
            f32_engine.ingest(id, telemetry(1.0));
            int8_engine.ingest(id, telemetry(1.0));
        }
        assert_eq!(f32_engine.process_pending(), (40, 40));
        assert_eq!(int8_engine.process_pending(), (40, 40));
        let mut any_differ = false;
        for id in 0..40 {
            let src_f = f32_engine.estimate(id).unwrap().1;
            let src_q = int8_engine.estimate(id).unwrap().1;
            assert_eq!((src_f, src_q), (SocEstimate::Network, SocEstimate::Network));
            let f = raw_estimate(&f32_engine, id);
            let q = raw_estimate(&int8_engine, id);
            assert!((f - q).abs() < 0.1, "cell {id}: {f} vs {q}");
            any_differ |= f.to_bits() != q.to_bits();
        }
        assert!(any_differ, "int8 path suspiciously bit-identical to f32");
        // predict_all runs the quantized full pipeline.
        let workload = WorkloadQuery {
            avg_current_a: 1.0,
            avg_temperature_c: 25.0,
            horizon_s: 60.0,
        };
        let f32_preds = f32_engine.predict_all(workload);
        let int8_preds = int8_engine.predict_all(workload);
        assert_eq!(f32_preds.len(), int8_preds.len());
        for ((id_f, p_f), (id_q, p_q)) in f32_preds.iter().zip(&int8_preds) {
            assert_eq!(id_f, id_q);
            assert!((p_f - p_q).abs() < 0.2, "cell {id_f}: {p_f} vs {p_q}");
        }
    }

    #[test]
    fn int8_serving_is_worker_count_invariant() {
        let runs: Vec<Vec<u64>> = [0usize, 2, 4]
            .iter()
            .map(|&workers| {
                let mut engine = quantized_engine(60, 4, workers);
                for id in 0..60 {
                    engine.ingest(id, telemetry(1.0));
                }
                engine.process_pending();
                (0..60)
                    .map(|id| raw_estimate(&engine, id).to_bits())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn swap_during_int8_serving_falls_back_to_new_f32_incumbent() {
        let mut engine = quantized_engine(20, 2, 0);
        for id in 0..20 {
            engine.ingest(id, telemetry(1.0));
        }
        engine.process_pending();
        // The swap clears the shadow; the next tick serves the new f32.
        let mut replacement = crate::testing::untrained_model_seeded(7);
        replacement.label = "v2".into();
        engine.registry().swap(replacement);
        assert!(engine.registry().quantized().is_none());
        let mut control = FleetEngine::new(
            crate::testing::untrained_model_seeded(7),
            FleetConfig {
                shards: 2,
                micro_batch: 8,
                workers: 0,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
        );
        for id in 0..20 {
            control.register(
                id,
                CellConfig {
                    initial_soc: 0.9,
                    capacity_ah: 3.0,
                },
            );
        }
        for id in 0..20 {
            engine.ingest(id, telemetry(2.0));
            control.ingest(id, telemetry(2.0));
        }
        engine.process_pending();
        control.process_pending();
        for id in 0..20 {
            assert_eq!(
                raw_estimate(&engine, id).to_bits(),
                raw_estimate(&control, id).to_bits(),
                "post-swap int8 mode must serve the new incumbent's exact f32 outputs"
            );
        }
    }

    #[test]
    fn empty_engine_is_harmless() {
        let mut engine = FleetEngine::new(untrained_model(), FleetConfig::default());
        assert!(engine.is_empty());
        assert_eq!(engine.process_pending(), (0, 0));
        assert_eq!(
            engine.predict_all(WorkloadQuery {
                avg_current_a: 1.0,
                avg_temperature_c: 25.0,
                horizon_s: 60.0,
            }),
            vec![]
        );
        assert_eq!(engine.soc_histogram(4), vec![0, 0, 0, 0]);
        assert_eq!(engine.stats().reporting, 0);
    }

    /// Regression for the modulo-route key bug: with a non-power-of-two
    /// shard count the index key used to be the *full* id, so consecutive
    /// producer ids occupied every `shards`-th dense-table entry and (for
    /// shard counts above the dense slack) migrated every shard to the
    /// hash path. With `id / shards` keys, consecutive ids fill each
    /// shard's table contiguously and every shard stays dense.
    #[test]
    fn consecutive_ids_stay_dense_on_non_power_of_two_shards() {
        // 17 > DENSE_SLACK, so the old full-id keys would migrate to hash
        // at id ≈ 272; 10k ids make the regression unmissable.
        let engine = engine_with(10_000, 17);
        for idx in 0..17 {
            let shard = engine.shards[idx].as_ref().expect("shard present");
            assert!(
                shard.index.is_dense(),
                "shard {idx} migrated to the hash representation on \
                 consecutive ids"
            );
        }
        // Spot-check the index still resolves.
        assert!(engine.contains(0) && engine.contains(9_999));
        assert!(!engine.contains(10_000));
    }

    mod route_props {
        use super::super::FleetEngine;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        proptest! {
            /// Injectivity: two distinct ids routed to the same shard must
            /// get distinct keys — on both the power-of-two and the modulo
            /// route. (A collision would make one cell's state silently
            /// alias another's.)
            #[test]
            fn route_is_injective_per_shard(
                shards in 1usize..=40,
                ids in collection::vec(0u64..=u64::MAX, 1usize..200),
            ) {
                let ids: HashSet<u64> = ids.into_iter().collect();
                let mut seen: HashMap<usize, HashMap<u64, u64>> = HashMap::new();
                for &id in &ids {
                    let (shard, key) = FleetEngine::route(shards, id);
                    prop_assert!(shard < shards, "shard selector out of range");
                    if let Some(prior) = seen.entry(shard).or_default().insert(key, id) {
                        prop_assert_eq!(
                            prior, id,
                            "ids {} and {} collide on shard {} key {}",
                            prior, id, shard, key
                        );
                    }
                }
            }

            /// Dense occupancy: routing consecutive ids `0..n` must fill
            /// each shard's key space contiguously from zero — keys are
            /// exactly `0..count` per shard, with no gaps that would waste
            /// dense-table entries or trigger premature hash migration.
            #[test]
            fn consecutive_ids_fill_shard_keys_contiguously(
                shards in 1usize..=40,
                n in 1u64..3_000,
            ) {
                let mut keys_per_shard: Vec<HashSet<u64>> = vec![HashSet::new(); shards];
                for id in 0..n {
                    let (shard, key) = FleetEngine::route(shards, id);
                    prop_assert!(
                        keys_per_shard[shard].insert(key),
                        "duplicate key {} on shard {}", key, shard
                    );
                }
                for (shard, keys) in keys_per_shard.iter().enumerate() {
                    let count = keys.len() as u64;
                    for k in 0..count {
                        prop_assert!(
                            keys.contains(&k),
                            "shard {} is missing key {} (count {}): keys are \
                             not dense from zero",
                            shard, k, count
                        );
                    }
                }
            }
        }
    }
}
