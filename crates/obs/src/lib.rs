//! # pinnsoc-obs
//!
//! Zero-overhead-when-off observability for the `pinnsoc` workspace: a
//! std-only metrics + tracing subsystem wired through every layer of the
//! stack (fleet serving, the worker-pool runtime, training, scenario
//! replay, and online adaptation).
//!
//! The source paper pitches the coupled NN+physics estimator for
//! resource-constrained BMS deployment, so instrumentation here obeys two
//! hard rules:
//!
//! 1. **Never perturb the bit-exactness contract.** Instrumentation only
//!    *reads* timings and counts; it never reorders work, never touches
//!    RNG state, and never changes float arithmetic. `obs_baseline`
//!    (in `pinnsoc-bench`) asserts fleet estimates, scenario reports, and
//!    adapt promotion decisions are bit-identical with observability on
//!    vs off.
//! 2. **Near-zero cost, zero when off.** Hot paths record into
//!    [`LocalMetrics`] — plain `u64`/`f64` slots owned by one shard or
//!    worker, merged into the shared [`MetricsRegistry`] at tick
//!    boundaries by the coordinating thread. No atomics on the hot path,
//!    no locks held by workers. Instrumented code keeps its
//!    [`LocalMetrics`] buffer behind an `Option` (a shard's, pool's or
//!    lane's obs handle); when observability is not attached that is
//!    `None`, and the hot path records nothing.
//!
//! ## Pieces
//!
//! - [`MetricsRegistry`]: named counters, gauges, and fixed-bucket
//!   histograms. Registration is idempotent (same name + labels + kind
//!   returns the same [`MetricId`]), so per-run re-registration — e.g. a
//!   scenario runner building a pool per call — is safe and cheap.
//! - [`LocalMetrics`]: lock-free per-shard/per-worker accumulation;
//!   durations land in histograms with [`HistogramSnapshot::quantile`]
//!   (p50/p99) read-out.
//! - [`RingLog`] / [`ObsEvent`]: a fixed-capacity recent-events log for
//!   post-mortems (model swaps, drift triggers, gate verdicts, worker
//!   panics).
//! - [`prometheus_text`] and serde JSON snapshots behind a non-blocking
//!   [`ObsHub::snapshot`] that never stalls the tick loop.
//! - [`alloc_hook`]: an installable allocation-counter hook so crates
//!   without a `#[global_allocator]` of their own can still report alloc
//!   deltas when a bench bin installs a counting allocator.
//! - [`FlightRecorder`] / [`TraceSink`]: bounded causal span tracing
//!   (tick → engine lane → stage → worker) recorded into per-thread
//!   buffers merged at tick boundaries, exported as Chrome trace-event
//!   JSON for Perfetto. Zero clock reads when disabled.
//! - [`SloTracker`]: multi-window (fast/slow) burn-rate tracking with an
//!   ok → warning → page alert state machine.
//! - [`TelemetryPlane`]: a std-only single-thread HTTP server exposing
//!   `/metrics`, `/snapshot.json`, `/trace.json`, `/healthz`, and
//!   `/readyz` — health wired through the [`HealthSource`] trait.
//!
//! ## Metric naming scheme
//!
//! `pinnsoc_<subsystem>_<name>_<unit>`, e.g.
//! `pinnsoc_fleet_stage_seconds{stage="gemm"}`,
//! `pinnsoc_runtime_pool_queue_depth{pool="fleet"}`,
//! `pinnsoc_train_epoch_loss`, `pinnsoc_adapt_drift_score{cohort="3"}`.
//! Units are spelled out in the name (`_seconds`, `_bytes`, `_total` for
//! counters) following the Prometheus convention.

pub mod alloc_hook;
pub mod export;
pub mod hub;
pub mod metrics;
pub mod plane;
pub mod ring;
pub mod slo;
pub mod trace;

pub use export::prometheus_text;
pub use hub::{ObsHub, ObsSnapshot};
pub use metrics::{
    HistogramSnapshot, LocalMetrics, MetricId, MetricKind, MetricSample, MetricsRegistry,
    MetricsSnapshot, SampleValue,
};
pub use plane::{http_get, HealthReport, HealthSource, HealthStatus, PlaneConfig, TelemetryPlane};
pub use ring::{ObsEvent, RingLog};
pub use slo::{AlertState, SloSpec, SloStatus, SloTracker, SloTransition};
pub use trace::{
    chrome_trace_json, current_thread_tid, FlightRecorder, SpanId, TraceSink, TraceSpan,
    DEFAULT_TRACE_CAPACITY,
};

/// Default histogram buckets for sub-second stage/pass durations (seconds).
///
/// Geometric-ish ladder from 1 µs to ~1 s; the fleet engine's per-stage
/// times at smoke sizes sit in the tens-of-µs to low-ms range.
pub const DURATION_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
];

/// Default histogram buckets for dimensionless small counts (queue depths,
/// batch fill levels).
pub const COUNT_BUCKETS: &[f64] = &[
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];
