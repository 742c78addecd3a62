//! # pinnsoc-fleet
//!
//! Fleet-scale SoC inference engine for the `pinnsoc` workspace.
//!
//! The paper keeps its two-branch PINN tiny (2,322 parameters) so it can run
//! on-device; the interesting scaling axis for a server is therefore *fleet
//! width* — one process estimating state of charge for hundreds of thousands
//! of cells concurrently. This crate turns the reproduction into that
//! serving layer:
//!
//! - [`FleetEngine`] owns per-cell state in structure-of-arrays shards
//!   ([`CellStore`]: latest telemetry split by field, a running
//!   [`pinnsoc_battery::CoulombCounter`], and an optional
//!   [`pinnsoc_battery::EkfEstimator`] fallback per cell), so batch
//!   assembly gathers features from contiguous arrays and scatters results
//!   back with linear writes.
//! - Batch passes run on a **persistent worker pool** (the shared
//!   [`pinnsoc_runtime::WorkerPool`], which also powers pool-parallel
//!   training): workers park between ticks and wake through an
//!   epoch/condvar handoff; the calling thread participates in draining
//!   the shard queue, so a single-core host runs the whole pass inline
//!   with zero thread spawns and zero steady-state allocations per tick.
//! - Telemetry integrates into the shard state **at ingest** (no staging
//!   queue to write and re-read); batch passes then estimate the touched
//!   cells in fixed-size **micro-batches**, each running through the fused
//!   batched forward paths
//!   ([`pinnsoc::SocModel::estimate_features_into`] /
//!   [`pinnsoc::SocModel::predict_uniform_into`]) — one fused GEMM per
//!   layer per batch instead of one tiny GEMM per cell.
//! - [`FleetEngine::ingest_batch`] takes a whole drain at once: it
//!   resolves every frame's `(shard, slot)` first, then absorbs the frames
//!   in arrival order through the same per-report absorb as
//!   [`FleetEngine::ingest`], so the two are observably identical while
//!   the batched form overlaps the index lookups' cache misses.
//! - [`ModelRegistry`] hot-swaps trained models (loaded via
//!   `pinnsoc-nn::persist`) without stalling in-flight readers: workers pin
//!   an `Arc` snapshot per pass, so a swap lands at the next pass.
//! - Fleet-level queries: SoC histograms, cells below a threshold,
//!   per-cell predicted time-to-empty, and [`FleetStats`] from an
//!   order-free [`SocAggregate`] (fixed-point sum, min and max with their
//!   counts), so partials kept elsewhere and merged give the engine's own
//!   bits. Per-stage timing
//!   ([`StageTimes`]: gather / GEMM / scatter) backs the bench harness's
//!   breakdown.
//!
//! ## Quick example
//!
//! ```
//! use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, Telemetry};
//! # use pinnsoc_fleet::testing::untrained_model;
//!
//! let mut engine = FleetEngine::new(untrained_model(), FleetConfig::default());
//! for id in 0..100 {
//!     engine.register(id, CellConfig { initial_soc: 0.9, capacity_ah: 3.0 });
//! }
//! engine.ingest(7, Telemetry { time_s: 1.0, voltage_v: 3.8, current_a: 1.5, temperature_c: 25.0 });
//! engine.process_pending();
//! assert!(engine.estimate(7).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod cell;
pub mod engine;
mod id_index;
mod obs;
mod pool;
pub mod registry;
pub mod telemetry;

pub use aggregate::{FleetStats, SocAggregate};
pub use cell::{
    AbsorbOutcome, CellConfig, CellPersist, CellSnapshot, CellStore, EstimateBreakdown,
    EstimateEntry, SocEstimate,
};
pub use engine::{
    soc_histogram, FleetConfig, FleetEngine, ServingMode, StageTimes, TelemetryStats, WorkloadQuery,
};
pub use registry::{GateCertificate, GateTolerance, InstallError, ModelRegistry, ServingSnapshot};
pub use telemetry::{CellId, Telemetry};

/// The shared worker-pool runtime, re-exported so layers built on the
/// fleet (the serve tier's lane pool) run their own tasks on the same
/// machinery without a dependency of their own.
pub use pinnsoc_runtime as runtime;

/// Helpers for doctests and benches that need a model without a training
/// run.
pub mod testing {
    use pinnsoc::{Branch1, Branch2, QuantizedSocModel, SecondStage, SocModel};
    use pinnsoc_data::Normalizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Builds an untrained two-branch model with sane normalizers — enough
    /// for exercising the serving machinery when a trained model is not
    /// worth the setup cost.
    pub fn untrained_model() -> SocModel {
        untrained_model_seeded(0)
    }

    /// [`untrained_model`] with an explicit weight seed (distinct seeds give
    /// distinct weights — useful for hot-swap tests).
    pub fn untrained_model_seeded(seed: u64) -> SocModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows3: Vec<Vec<f64>> = vec![vec![2.8, -5.0, 0.0], vec![4.2, 9.0, 45.0]];
        let refs3: Vec<&[f64]> = rows3.iter().map(|r| r.as_slice()).collect();
        let rows2: Vec<Vec<f64>> = vec![vec![-5.0, 0.0], vec![9.0, 45.0]];
        let refs2: Vec<&[f64]> = rows2.iter().map(|r| r.as_slice()).collect();
        SocModel {
            branch1: Branch1::new(Normalizer::fit(refs3.iter().copied()), &mut rng),
            stage2: SecondStage::Network(Branch2::new(
                Normalizer::fit(refs2.iter().copied()),
                120.0,
                &mut rng,
            )),
            label: "untrained".into(),
        }
    }

    /// Int8-quantizes `model` with a small calibration sweep over the
    /// same sensor ranges [`untrained_model`]'s normalizers were fit on —
    /// enough for exercising the quantized serving machinery in tests.
    pub fn quantize_untrained(model: &Arc<SocModel>) -> QuantizedSocModel {
        let readings: Vec<[f64; 3]> = (0..64)
            .map(|i| {
                let t = i as f64 / 63.0;
                [2.8 + 1.4 * t, 14.0 * t - 5.0, 45.0 * t]
            })
            .collect();
        let b1 = model.branch1.feature_matrix(&readings);
        let b2 = match &model.stage2 {
            SecondStage::Network(b2) => {
                let rows: Vec<[f64; 4]> = (0..64)
                    .map(|i| {
                        let t = i as f64 / 63.0;
                        [t, 14.0 * t - 5.0, 45.0 * t, 15.0 + 585.0 * t]
                    })
                    .collect();
                Some(b2.feature_matrix(&rows))
            }
            SecondStage::Coulomb { .. } => None,
        };
        QuantizedSocModel::quantize(Arc::clone(model), &b1, b2.as_ref())
            .expect("calibration sweep covers the normalizer ranges")
    }
}
