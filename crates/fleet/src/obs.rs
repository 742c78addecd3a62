//! Fleet observability: metric registration and per-shard recording.
//!
//! The engine thread registers every `pinnsoc_fleet_*` series once in
//! [`FleetEngine::attach_obs`](crate::FleetEngine::attach_obs); each shard
//! carries a [`ShardObs`] — a [`LocalMetrics`] buffer plus the shared
//! [`FleetMetricIds`] — that it records into *worker-side with plain
//! arithmetic*, reusing the stage durations [`StageTimes`] already
//! measures (no extra clock reads on the hot path). The engine merges
//! every shard's buffer into the registry when the shards check back in
//! at the tick boundary, so workers never touch a lock for metrics.

use crate::engine::{StageTimes, TelemetryStats};
use pinnsoc_obs::{LocalMetrics, MetricId, ObsHub, SpanId, TraceSink, DURATION_BUCKETS};
use std::sync::Arc;
use std::time::Instant;

/// Every fleet metric id, registered once per hub (idempotently) and
/// shared across shards via `Arc`.
#[derive(Debug)]
pub(crate) struct FleetMetricIds {
    /// `pinnsoc_fleet_stage_seconds{stage=...}`: the p50/p99 successor of
    /// the cumulative [`StageTimes`] sums (the accessor remains).
    pub stage_gather: MetricId,
    pub stage_gemm: MetricId,
    pub stage_scatter: MetricId,
    /// One shard's full processing pass.
    pub shard_pass_seconds: MetricId,
    /// Telemetry book, by outcome.
    pub telemetry_accepted: MetricId,
    pub telemetry_duplicate: MetricId,
    pub telemetry_non_finite: MetricId,
    pub telemetry_time_reversed: MetricId,
    pub telemetry_unknown_cell: MetricId,
    /// Reports folded / cells re-estimated, fleet-wide.
    pub absorbed: MetricId,
    pub estimated: MetricId,
    /// Engine-level tick (one `process_pending`) and predict pass.
    pub tick_seconds: MetricId,
    pub ticks: MetricId,
    pub predict_seconds: MetricId,
    /// Fleet shape gauges, refreshed each tick.
    pub cells: MetricId,
    pub reporting: MetricId,
    pub model_version: MetricId,
    /// Active kernel path ([`pinnsoc_nn::kernel::KernelPath`] as a numeric
    /// code: 1 = scalar; 2 = sse2, scalar f32 with the SSE2 int8 chain;
    /// 3 = avx2, AVX2 f32 with the best AVX2/VNNI int8 chain), set at
    /// attach.
    pub kernel_path: MetricId,
    /// 1 when a gate-certified quantized shadow is installed, else 0.
    pub quantized_active: MetricId,
    /// Cell estimates served by the int8 quantized path.
    pub quantized_estimated: MetricId,
    /// Ticks whose batch passes served the quantized model.
    pub quantized_ticks: MetricId,
}

impl FleetMetricIds {
    /// Registers (or looks up) every fleet series on `hub`.
    pub fn register(hub: &ObsHub) -> Self {
        let reg = hub.registry();
        let stage = |name: &str| {
            reg.histogram_with(
                "pinnsoc_fleet_stage_seconds",
                "Per-shard batch-pass stage wall time.",
                &[("stage", name)],
                DURATION_BUCKETS,
            )
        };
        let outcome = |name: &str| {
            reg.counter_with(
                "pinnsoc_fleet_telemetry_reports_total",
                "Telemetry reports by ingest/absorb outcome.",
                &[("outcome", name)],
            )
        };
        Self {
            stage_gather: stage("gather"),
            stage_gemm: stage("gemm"),
            stage_scatter: stage("scatter"),
            shard_pass_seconds: reg.histogram(
                "pinnsoc_fleet_shard_pass_seconds",
                "One shard's full processing pass (all stages).",
                DURATION_BUCKETS,
            ),
            telemetry_accepted: outcome("accepted"),
            telemetry_duplicate: outcome("duplicate_timestamp"),
            telemetry_non_finite: outcome("rejected_non_finite"),
            telemetry_time_reversed: outcome("rejected_time_reversed"),
            telemetry_unknown_cell: outcome("unknown_cell"),
            absorbed: reg.counter(
                "pinnsoc_fleet_reports_absorbed_total",
                "Reports folded into cell integrators.",
            ),
            estimated: reg.counter(
                "pinnsoc_fleet_cells_estimated_total",
                "Cell estimates refreshed by batch passes.",
            ),
            tick_seconds: reg.histogram(
                "pinnsoc_fleet_tick_seconds",
                "One process_pending call, queue to quiescence.",
                DURATION_BUCKETS,
            ),
            ticks: reg.counter("pinnsoc_fleet_ticks_total", "process_pending calls."),
            predict_seconds: reg.histogram(
                "pinnsoc_fleet_predict_seconds",
                "One fleet-wide predict_all pass.",
                DURATION_BUCKETS,
            ),
            cells: reg.gauge("pinnsoc_fleet_cells", "Registered cells."),
            reporting: reg.gauge(
                "pinnsoc_fleet_reporting_cells",
                "Cells with at least one accepted report.",
            ),
            model_version: reg.gauge(
                "pinnsoc_fleet_model_version",
                "Version of the served model.",
            ),
            kernel_path: reg.gauge(
                "pinnsoc_fleet_kernel_path",
                "Active kernel path (1=scalar; 2=sse2: scalar f32, SSE2 int8; 3=avx2: AVX2 f32, AVX2/VNNI int8).",
            ),
            quantized_active: reg.gauge(
                "pinnsoc_fleet_quantized_active",
                "Whether a gate-certified quantized model is installed (0/1).",
            ),
            quantized_estimated: reg.counter(
                "pinnsoc_fleet_quantized_cells_estimated_total",
                "Cell estimates served by the int8 quantized path.",
            ),
            quantized_ticks: reg.counter(
                "pinnsoc_fleet_quantized_ticks_total",
                "Ticks whose batch passes served the quantized model.",
            ),
        }
    }
}

/// One shard's recording buffer: travels with the shard through the
/// worker pool, records with plain arithmetic, merged by the engine
/// thread at the tick boundary.
#[derive(Debug)]
pub(crate) struct ShardObs {
    pub local: LocalMetrics,
    pub ids: Arc<FleetMetricIds>,
    /// Cumulative telemetry book as of the previous pass, so each pass
    /// records only its own delta.
    pub last_telemetry: TelemetryStats,
}

impl ShardObs {
    /// Records one completed processing pass from quantities the pass
    /// already computed — stage durations, absorb counts, and the
    /// cumulative telemetry book (differenced against the previous pass).
    pub fn record_pass(
        &mut self,
        stage: &StageTimes,
        absorbed: usize,
        estimated: usize,
        telemetry: &TelemetryStats,
        quantized: bool,
    ) {
        let ids = &self.ids;
        if quantized {
            self.local.add(ids.quantized_estimated, estimated as u64);
        }
        self.local
            .observe(ids.stage_gather, stage.gather.as_secs_f64());
        self.local.observe(ids.stage_gemm, stage.gemm.as_secs_f64());
        self.local
            .observe(ids.stage_scatter, stage.scatter.as_secs_f64());
        self.local
            .observe(ids.shard_pass_seconds, stage.total().as_secs_f64());
        self.local.add(ids.absorbed, absorbed as u64);
        self.local.add(ids.estimated, estimated as u64);
        let tick = telemetry.delta(&self.last_telemetry);
        self.last_telemetry = *telemetry;
        self.local.add(ids.telemetry_accepted, tick.accepted);
        self.local
            .add(ids.telemetry_duplicate, tick.duplicate_timestamp);
        self.local
            .add(ids.telemetry_non_finite, tick.rejected_non_finite);
        self.local
            .add(ids.telemetry_time_reversed, tick.rejected_time_reversed);
    }
}

/// The engine thread's own observability state.
#[derive(Debug)]
pub(crate) struct EngineObs {
    pub hub: Arc<ObsHub>,
    pub ids: Arc<FleetMetricIds>,
    pub local: LocalMetrics,
    /// Unknown-cell count already exported, so each tick adds its delta.
    pub last_unknown_cells: u64,
}

/// Model-registry observability: version gauge plus a swap event in the
/// ring log. Attached once via `OnceLock` so `swap` stays lock-free with
/// respect to obs state.
#[derive(Debug)]
pub(crate) struct RegistryObs {
    pub hub: Arc<ObsHub>,
    pub version_gauge: MetricId,
}

/// One shard's flight-recorder sink: travels with the shard through the
/// worker pool exactly like [`ShardObs`], records worker-side, merged by
/// the engine thread at the tick boundary. The span clock is the
/// `Instant` marks [`StageTimes`] measurement already takes — tracing a
/// pass adds **zero** extra clock reads on the hot path.
#[derive(Debug)]
pub(crate) struct ShardTracer {
    pub sink: TraceSink,
    /// Trace process row: the engine's lane pid.
    pub pid: u32,
    /// Trace thread row: this shard's index, fixed at attach.
    pub tid: u32,
    /// Parent span of the next pass — the engine points this at its
    /// current tick span before queueing the shard.
    pub parent: SpanId,
}

impl ShardTracer {
    /// Records one completed processing pass: a `pass` span over the
    /// whole pass plus sequential `gather`/`gemm`/`scatter` child spans
    /// synthesized from the stage durations the pass accumulated. The
    /// stage spans are laid end-to-end from the pass start — each is the
    /// stage's *total* across the pass's micro-batch chunks, not one
    /// contiguous interval, which keeps the hot path free of per-chunk
    /// recording while the trace still shows where the pass's time went.
    pub fn record_pass(&mut self, stage: &StageTimes, start: Instant, end: Instant) {
        if !self.sink.is_on() {
            return;
        }
        let pass = self
            .sink
            .record("pass", "fleet", self.pid, self.tid, self.parent, start, end);
        let mut at = start;
        for (name, dur) in [
            ("gather", stage.gather),
            ("gemm", stage.gemm),
            ("scatter", stage.scatter),
        ] {
            self.sink
                .record_at(name, "fleet", self.pid, self.tid, pass, at, dur);
            at += dur;
        }
    }
}

/// The engine thread's flight-recorder state: its own sink (for the
/// per-tick `engine_tick` span) plus the lane pid shared with shards.
#[derive(Debug)]
pub(crate) struct EngineTracer {
    pub sink: TraceSink,
    pub pid: u32,
    /// Parent for the next tick's `engine_tick` span — the serve tier
    /// points this at its lane span each tick; 0 for a standalone engine.
    pub parent: SpanId,
}
