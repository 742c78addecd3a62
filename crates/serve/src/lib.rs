//! # pinnsoc-serve
//!
//! Multi-engine deployment tier for the `pinnsoc` workspace: the layer
//! that turns one [`pinnsoc_fleet::FleetEngine`] into a *service* — N
//! independent engines behind a consistent-hash router, lock-free bounded
//! ingest, crash-isolated per-engine durability, and read-side snapshot
//! queries that never contend with the tick loop.
//!
//! The paper's estimator is a 2,322-parameter network built for
//! resource-constrained BMS hosts; the serving story that matters at
//! fleet scale is therefore *deployment shape*, not model size. This
//! crate composes the existing subsystems into that shape:
//!
//! - **Routing** ([`EngineRouter`]): rendezvous hashing partitions cell
//!   ids across engines with minimal reshuffling when the tier grows.
//!   Estimates depend only on a cell's own telemetry, so placement never
//!   changes the numbers.
//! - **Ingest** ([`IngestHandle`], [`IngestRing`]): producers enqueue
//!   telemetry onto the owning engine's bounded lock-free ring from any
//!   thread. A full ring surfaces [`IngestOutcome::Backpressure`]
//!   immediately — explicit, counted, never blocking, never silent —
//!   composing with the engine-side [`pinnsoc_fleet::AbsorbOutcome`]
//!   causes reported per tick.
//! - **The tick loop** ([`ServeTier::tick`]): drains each live ring
//!   (bounded), runs each engine's batch pass, and publishes one
//!   id-sorted [`ServeSnapshot`] for the whole tier.
//! - **Reads** ([`SnapshotReader`]): histograms, threshold scans, and
//!   per-cell breakdowns served from the published snapshot — readers
//!   pin an `Arc` and query off-lock, so a slow reader costs the tick
//!   loop nothing.
//! - **Durability** ([`DurabilitySpec`]): each engine wraps in its own
//!   [`pinnsoc_durable::DurableFleet`] subdirectory; one engine can
//!   [crash](ServeTier::crash_engine) and
//!   [recover](ServeTier::recover_engine) while its peers keep serving
//!   and its ring buffers the outage.
//!
//! Everything stays under the workspace's bit-exactness contract: tier
//! outputs (snapshot cells and aggregates) are bit-identical across
//! worker counts, per-engine shard counts, and engine counts, because
//! per-cell estimates are placement-independent and every tier-level
//! reduction folds in ascending id order.
//!
//! ## Quick example
//!
//! ```
//! use pinnsoc_fleet::testing::untrained_model;
//! use pinnsoc_fleet::{CellConfig, Telemetry};
//! use pinnsoc_serve::{ServeConfig, ServeTier};
//!
//! let mut tier = ServeTier::new(untrained_model(), ServeConfig::default())?;
//! for id in 0..100 {
//!     tier.register(id, CellConfig { initial_soc: 0.9, capacity_ah: 3.0 });
//! }
//! let producer = tier.handle();
//! let reader = tier.reader();
//! let outcome = producer.ingest(7, Telemetry {
//!     time_s: 1.0, voltage_v: 3.8, current_a: 1.5, temperature_c: 25.0,
//! });
//! assert!(outcome.enqueued());
//! tier.tick()?;
//! assert!(reader.snapshot().breakdown(7).is_some());
//! # std::io::Result::Ok(())
//! ```
//!
//! Unsafe code is confined to the ingest ring's slot handoff
//! ([`ring`]) and denied everywhere else in the crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod directory;
pub mod health;
pub mod ring;
pub mod router;
pub mod snapshot;
pub mod tier;

pub use health::{HealthBoard, LaneHealth, SloConfig, SloReport, SloSummary};
pub use ring::IngestRing;
pub use router::EngineRouter;
pub use snapshot::{ServeSnapshot, SnapshotReader};
pub use tier::{
    DurabilitySpec, IngestFrame, IngestHandle, IngestOutcome, ServeConfig, ServeTier, TickReport,
};
