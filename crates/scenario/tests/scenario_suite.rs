//! End-to-end tests of the closed-loop scenario harness: the standard
//! suite runs green, reports reconcile injected faults against engine
//! accounting, and the same seed yields a bit-identical report for any
//! worker count.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_scenario::{
    run_scenario, smoke_suite, standard_suite, EngineSpec, ScenarioRunner, SuiteRun,
};

fn run_standard() -> SuiteRun {
    ScenarioRunner::default().run(&standard_suite(42), &untrained_model())
}

#[test]
fn standard_suite_runs_green_end_to_end() {
    let run = run_standard();
    let report = &run.report;
    assert!(report.scenarios.len() >= 8);
    assert_eq!(run.timings.len(), report.scenarios.len());
    for r in &report.scenarios {
        // Every scenario scored every estimator on a real population.
        assert!(r.ticks > 0, "{}: no processing passes", r.name);
        assert!(r.best.count > 0, "{}: best estimate never scored", r.name);
        assert!(r.coulomb.count > 0, "{}: coulomb never scored", r.name);
        assert!(r.ekf.count > 0, "{}: EKF fallback never scored", r.name);
        assert!(r.network.count > 0, "{}: network never scored", r.name);
        for (label, acc) in [
            ("best", &r.best),
            ("network", &r.network),
            ("coulomb", &r.coulomb),
            ("ekf", &r.ekf),
        ] {
            assert!(
                acc.mae.is_finite() && acc.max_abs.is_finite() && acc.mae <= acc.max_abs + 1e-12,
                "{}/{label}: mae {} max {}",
                r.name,
                acc.mae,
                acc.max_abs
            );
            // SoC estimates and truth both live in [0, 1].
            assert!(acc.max_abs <= 1.0 + 1e-12, "{}/{label}", r.name);
        }
        assert!(r.time_to_empty.count > 0, "{}: no TTE scored", r.name);
        assert!((0.0..=1.0).contains(&r.final_mean_true_soc), "{}", r.name);
        // Delivered reports are fully accounted for: accepted or rejected
        // with a cause, never silently dropped.
        let t = &r.telemetry;
        assert_eq!(
            t.accepted + t.rejected_non_finite + t.rejected_time_reversed,
            r.reports_delivered,
            "{}: unaccounted telemetry",
            r.name
        );
        assert_eq!(t.unknown_cell, 0, "{}", r.name);
    }
}

#[test]
fn clean_scenarios_reconcile_and_coulomb_is_exact() {
    let run = run_standard();
    let clean = run.report.get("constant-1c-clean").expect("in suite");
    // No faults: every generated report arrives and is accepted.
    assert_eq!(clean.reports_generated, clean.reports_delivered);
    assert_eq!(clean.telemetry.accepted, clean.reports_delivered);
    assert_eq!(clean.telemetry.rejected_time_reversed, 0);
    assert_eq!(clean.telemetry.rejected_non_finite, 0);
    assert_eq!(clean.unscored_cell_ticks, 0);
    // Ground truth and the engine's Coulomb counter integrate the same
    // noise-free current over the same intervals from the same initial SoC:
    // the closed loop must agree to floating-point precision. (This is the
    // harness validating itself against the simulator.)
    assert!(
        clean.coulomb.mae < 1e-9,
        "clean coulomb MAE {}",
        clean.coulomb.mae
    );
    // The EKF starts at the true SoC and tracks a clean constant discharge.
    assert!(clean.ekf.mae < 0.06, "clean EKF MAE {}", clean.ekf.mae);
    // Every cell is scored at every tick.
    assert_eq!(clean.best.count, (clean.cells * clean.ticks) as u64);
    // Drive cycles integrate exactly too (telemetry cadence = sim step).
    let drive = run.report.get("drive-udds").expect("in suite");
    assert!(
        drive.coulomb.mae < 1e-9,
        "drive coulomb MAE {}",
        drive.coulomb.mae
    );
}

#[test]
fn fault_scenarios_surface_in_engine_stats() {
    let run = run_standard();
    let dropout = run.report.get("transport-dropout").expect("in suite");
    assert!(dropout.injected.dropped > 0);
    assert!(dropout.reports_delivered < dropout.reports_generated);
    // Dropped reports widen the Coulomb integration intervals under a
    // varying drive-cycle current: exactness is gone.
    assert!(
        dropout.coulomb.mae > 1e-6,
        "dropout left coulomb exact: {}",
        dropout.coulomb.mae
    );

    let chaos = run.report.get("transport-chaos").expect("in suite");
    for (label, n) in [
        ("dropped", chaos.injected.dropped),
        ("duplicated", chaos.injected.duplicated),
        ("reordered", chaos.injected.reordered),
        ("corrupted", chaos.injected.corrupted),
    ] {
        assert!(n > 0, "chaos scenario injected no {label} faults");
    }
    // Injected faults land in the engine's books, not on the floor.
    assert!(chaos.telemetry.rejected_non_finite > 0);
    assert!(chaos.telemetry.rejected_time_reversed > 0);
    assert!(chaos.telemetry.duplicate_timestamp > 0);
    // And the engine keeps serving: every cell still gets scored estimates.
    assert!(chaos.best.count > 0);
    assert!(chaos.best.max_abs <= 1.0 + 1e-12);

    let aged = run.report.get("aged-fleet").expect("in suite");
    assert!(
        aged.coulomb.mae < 1e-9,
        "aged capacities must be registered"
    );
    let noisy = run.report.get("noisy-sensors").expect("in suite");
    assert!(
        noisy.coulomb.mae > 1e-6,
        "sensor noise must perturb the integrators"
    );
}

#[test]
fn report_is_bit_identical_across_runner_worker_counts() {
    let model = untrained_model();
    let suite = smoke_suite(7);
    let mut reference: Option<String> = None;
    for workers in [0usize, 2] {
        let runner = ScenarioRunner {
            workers,
            ..ScenarioRunner::default()
        };
        let run = runner.run(&suite, &model);
        let json = serde_json::to_string(&run.report).expect("serializable");
        match &reference {
            None => reference = Some(json),
            Some(reference) => {
                assert_eq!(reference, &json, "workers={workers} changed the report")
            }
        }
    }
}

#[test]
fn report_is_bit_identical_across_engine_worker_counts() {
    let model = untrained_model();
    let scenario = &smoke_suite(11)[2]; // transport-chaos: the hard one
    let mut reference: Option<String> = None;
    for workers in [0usize, 2] {
        let result = run_scenario(
            scenario,
            &model,
            &EngineSpec {
                workers,
                ..EngineSpec::default()
            },
        );
        let json = serde_json::to_string(&result).expect("serializable");
        match &reference {
            None => reference = Some(json),
            Some(reference) => assert_eq!(
                reference, &json,
                "engine workers={workers} changed the result"
            ),
        }
    }
}

#[test]
fn tail_steps_past_the_last_scoring_tick_are_still_accounted() {
    // 100 steps with a pass every 15: the last scoring tick is at step 90,
    // and steps 91–100 land after it. The final unconditional pass must
    // still coalesce them so the telemetry books balance.
    let mut scenario = smoke_suite(5)[2].clone(); // transport-chaos
    scenario.timing.duration_s = 100.0;
    scenario.timing.process_every = 15;
    let result = run_scenario(&scenario, &untrained_model(), &EngineSpec::default());
    assert_eq!(result.ticks, 6, "floor(100 / 15) scoring passes");
    let t = &result.telemetry;
    assert_eq!(
        t.accepted + t.rejected_non_finite + t.rejected_time_reversed,
        result.reports_delivered,
        "tail-step reports left unaccounted"
    );
}

#[test]
fn different_seeds_change_the_report() {
    let model = untrained_model();
    let runner = ScenarioRunner::default();
    let a = runner.run(&smoke_suite(1), &model);
    let b = runner.run(&smoke_suite(2), &model);
    assert_ne!(a.report, b.report);
}

#[test]
fn empty_suite_is_harmless() {
    let run = ScenarioRunner::default().run(&[], &untrained_model());
    assert!(run.report.scenarios.is_empty());
    assert!(run.timings.is_empty());
}

#[test]
fn observed_suite_is_bit_identical_and_records_series() {
    let model = untrained_model();
    let control = ScenarioRunner::default().run(&smoke_suite(9), &model);
    let hub = pinnsoc_obs::ObsHub::new();
    let observed = ScenarioRunner::default()
        .observed(std::sync::Arc::clone(&hub))
        .run(&smoke_suite(9), &model);
    assert_eq!(
        control.report, observed.report,
        "attaching obs must not change the report"
    );
    let snapshot = hub.registry().snapshot();
    let runs = snapshot.counter_total("pinnsoc_scenario_runs_total");
    assert_eq!(runs, observed.report.scenarios.len() as u64);
    let cell_ticks = snapshot.counter_total("pinnsoc_scenario_cell_ticks_total");
    let expected: u64 = observed
        .report
        .scenarios
        .iter()
        .map(|s| (s.cells * s.ticks) as u64)
        .sum();
    assert_eq!(cell_ticks, expected);
    let events = hub.recent_events();
    assert_eq!(events.len(), 1, "one suite-completion event");
    assert!(events[0].message.contains("suite of"));
}

/// The smoke suite's report at seed 2024, as committed: the closed loop
/// may change how it runs a scenario, never what it reports. Identical on
/// every kernel path.
#[test]
fn smoke_report_matches_the_committed_fixture() {
    const FIXTURE: &str = include_str!("fixtures/smoke_2024_report.json");
    let run = ScenarioRunner::default().run(&smoke_suite(2024), &untrained_model());
    let json = serde_json::to_string(&run.report).expect("report serializes");
    assert_eq!(format!("{json}\n"), FIXTURE);
}
