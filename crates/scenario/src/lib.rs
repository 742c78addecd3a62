//! # pinnsoc-scenario
//!
//! Closed-loop validation subsystem for the `pinnsoc` workspace: does the
//! fleet engine's SoC estimate stay accurate when it is driven by
//! realistic, messy telemetry instead of clean cycling traces?
//!
//! The paper validates its two-branch PINN on clean Sandia/LG-style cycles;
//! a production fleet sees drive cycles, temperature swings, aged cells,
//! sensor noise, and transport faults. This crate closes the loop:
//!
//! - A [`Scenario`] is *data*: a cell population ([`PopulationSpec`]:
//!   chemistry, initial-SoC spread, aging via `pinnsoc_battery::aging`), a
//!   load source ([`LoadSpec`]: drive schedules, pulse trains, constant
//!   current, randomized EV mixes), an environment schedule
//!   ([`EnvSchedule`]) and a fault model ([`FaultModel`]: Gaussian sensor
//!   noise, dropout, duplicate and out-of-order delivery, clock skew and
//!   jitter, NaN injection) — all seeded, all reproducible.
//! - [`run_scenario`] executes one: a ground-truth
//!   [`pinnsoc_battery::CellSim`] per cell feeds a live
//!   [`pinnsoc_fleet::FleetEngine`] through per-cell fault channels, and
//!   every engine pass the network / Coulomb / EKF estimates (via
//!   [`pinnsoc_fleet::FleetEngine::estimate_breakdown`]) are scored against
//!   the simulators' true SoC.
//! - [`ScenarioRunner`] executes a suite pool-parallel over the shared
//!   [`pinnsoc_runtime::WorkerPool`] and produces a [`ScenarioReport`]
//!   that is **bit-identical across worker counts** at a fixed seed —
//!   wall-clock timings live outside the report ([`SuiteRun::timings`]).
//! - [`standard_suite`] is the eleven-scenario battery (lab patterns, drive
//!   cycles, temperature sweep, aged fleet, sensor noise, two transport
//!   fault modes, a mid-run drift) behind `scenario_baseline` and
//!   `BENCH_scenarios.json`; [`smoke_suite`] is its CI-sized subset and
//!   [`gate_suite`] the online-adaptation promotion gate.
//! - [`run_scenario_observed`] attaches a [`FleetObserver`] to the live
//!   engine — the seam `pinnsoc-adapt` harvests through and hot-swaps
//!   models mid-run with.
//! - [`run_crash_scenario`] extends the fault repertoire to the process
//!   itself: a seeded [`CrashPlan`] kills a `pinnsoc_durable::DurableFleet`
//!   mid-tick / mid-snapshot / mid-rotation, recovers it, finishes the
//!   scenario, and bit-compares the final estimates against an
//!   uninterrupted control. The control is the scenario's own closed loop
//!   (the one [`run_scenario`] scores), and all three runs replay traffic
//!   from one seeded derivation of the population and per-cell streams.
//!
//! ## Quick example
//!
//! ```
//! use pinnsoc_fleet::testing::untrained_model;
//! use pinnsoc_scenario::{smoke_suite, ScenarioRunner};
//!
//! let run = ScenarioRunner::default().run(&smoke_suite(42), &untrained_model());
//! for result in &run.report.scenarios {
//!     assert!(result.coulomb.count > 0, "{} scored nothing", result.name);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod faults;
pub mod gate;
pub mod report;
pub mod runner;
pub mod spec;
pub mod suite;

pub use crash::{
    run_crash_scenario, tear_directory, CellEstimate, CrashPlan, CrashPoint, CrashScenarioRun,
};
pub use faults::{FaultChannel, FaultCounts, FaultModel};
pub use gate::{gate_quantized, QuantizedGateConfig, QuantizedGateOutcome};
pub use report::{EstimatorAccuracy, ScenarioReport, ScenarioResult, TteAccuracy};
pub use runner::{
    run_scenario, run_scenario_observed, EngineSpec, FleetObserver, NoopObserver, ScenarioRunner,
    ScenarioTiming, ServedModel, SuiteRun,
};
pub use spec::{EnvSchedule, LoadSpec, PopulationSpec, Scenario, Timing};
pub use suite::{gate_suite, smoke_suite, standard_suite};
