//! Closed-loop scenario baseline: runs the standard validation suite
//! (ground-truth simulators feeding a live fleet engine through fault
//! channels) and writes per-scenario accuracy and throughput to
//! `BENCH_scenarios.json` at the workspace root.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin scenario_baseline`.
//! Pass `--smoke` for the CI-sized gate: the smoke suite runs end to end,
//! and the report is asserted **bit-identical** between runner worker
//! counts 0 and 2 (the suite's determinism contract) without touching
//! `BENCH_scenarios.json`. The full run performs the same determinism check
//! before writing the file.

use pinnsoc_bench::fixtures::SUITE_SEED;
use pinnsoc_bench::{demo_serving_model, host_info, write_bench_json, HostInfo};
use pinnsoc_scenario::{smoke_suite, standard_suite, Scenario, ScenarioRunner, SuiteRun};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ScenarioBench {
    result: pinnsoc_scenario::ScenarioResult,
    wall_s: f64,
    cell_ticks_per_s: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    suite_seed: u64,
    /// Runner worker counts whose reports were compared bit-for-bit.
    determinism_checked_workers: [usize; 2],
    host: HostInfo,
    scenarios: Vec<ScenarioBench>,
}

/// Runs the suite at two worker counts and asserts the deterministic
/// reports are bit-identical; returns the second run (whose timings are
/// the ones recorded).
fn run_with_determinism_check(
    suite: &[Scenario],
    model: &pinnsoc::SocModel,
    workers: [usize; 2],
) -> SuiteRun {
    let mut json: Vec<String> = Vec::new();
    let mut last = None;
    for &w in &workers {
        let run = ScenarioRunner {
            workers: w,
            ..ScenarioRunner::default()
        }
        .run(suite, model);
        json.push(serde_json::to_string(&run.report).expect("serializable"));
        last = Some(run);
    }
    assert_eq!(
        json[0], json[1],
        "ScenarioReport must be bit-identical across worker counts {workers:?}"
    );
    println!(
        "determinism check OK: workers {:?} produced bit-identical reports",
        workers
    );
    last.expect("two runs")
}

fn print_table(run: &SuiteRun) {
    println!(
        "\n{:<20} {:>9} {:>9} {:>9} {:>9} {:>10} {:>11} {:>10}",
        "scenario",
        "best MAE",
        "net MAE",
        "clmb MAE",
        "ekf MAE",
        "tte err s",
        "rejected",
        "kcell-t/s"
    );
    for (r, t) in run.report.scenarios.iter().zip(&run.timings) {
        println!(
            "{:<20} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.1} {:>11} {:>10.1}",
            r.name,
            r.best.mae,
            r.network.mae,
            r.coulomb.mae,
            r.ekf.mae,
            r.time_to_empty.mean_abs_error_s,
            r.telemetry.rejected(),
            t.cell_ticks_per_s / 1e3,
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let workers = [0usize, 2];
    println!(
        "training the serving model ({})...",
        if smoke { "smoke size" } else { "full size" }
    );
    let model = demo_serving_model(smoke);

    if smoke {
        let suite = smoke_suite(SUITE_SEED);
        let run = run_with_determinism_check(&suite, &model, workers);
        for r in &run.report.scenarios {
            assert!(
                r.ticks > 0 && r.best.count > 0,
                "{}: scored nothing",
                r.name
            );
            assert!(
                r.best.mae.is_finite() && r.best.max_abs <= 1.0 + 1e-12,
                "{}: implausible accuracy",
                r.name
            );
        }
        print_table(&run);
        println!("\nsmoke run OK (BENCH_scenarios.json untouched)");
        return;
    }

    let suite = standard_suite(SUITE_SEED);
    let run = run_with_determinism_check(&suite, &model, workers);
    print_table(&run);

    let SuiteRun { report, timings } = run;
    let scenarios = report
        .scenarios
        .into_iter()
        .zip(timings)
        .map(|(result, timing)| ScenarioBench {
            wall_s: timing.wall_s,
            cell_ticks_per_s: timing.cell_ticks_per_s,
            result,
        })
        .collect();
    let baseline = Baseline {
        description: "Closed-loop validation: ground-truth CellSim fleets feed a live \
                      FleetEngine through seeded fault channels; per-estimator SoC MAE vs \
                      simulator truth, time-to-empty error, and engine telemetry accounting \
                      per scenario"
            .into(),
        model: "two-branch PINN-All (2,322 params), Sandia-reduced training, seed 7".into(),
        suite_seed: SUITE_SEED,
        determinism_checked_workers: workers,
        host: host_info(workers[1]),
        scenarios,
    };
    write_bench_json("BENCH_scenarios.json", &baseline);
}
