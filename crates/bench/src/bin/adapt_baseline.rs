//! Online-adaptation baseline: closes the drive-cycle train/serve gap that
//! `scenario_baseline` exposed, and records the receipts.
//!
//! The flow mirrors production: the lab-trained demo serving model runs a
//! closed-loop `drifting-fleet` session (aged mixed-EV fleet, mid-run cold
//! snap) while a `pinnsoc-adapt` `AdaptationEngine` rides along as a
//! fleet observer — harvesting EKF-labeled windows, detecting drift,
//! fine-tuning candidates in the background, and hot-swapping the gate
//! winner mid-session. The frozen lab model and the adapted model are then
//! both scored on **held-out** drive-cycle scenarios (same specs, different
//! fleet seeds), and the adapted network's MAE must be strictly below the
//! frozen network's on every one.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin adapt_baseline` to
//! regenerate `BENCH_adapt.json`. Pass `--smoke` for the CI-sized gate:
//! shrunken fleets and epochs, the same end-to-end loop and the same
//! adapted-beats-frozen assertions, the adaptation session asserted
//! **bit-identical** between worker counts 0 and 2, and no file written.

use pinnsoc::SocModel;
use pinnsoc_adapt::{AdaptEvent, AdaptReport};
use pinnsoc_bench::fixtures::{run_session, session_fingerprint, session_scenario, SUITE_SEED};
use pinnsoc_bench::{demo_serving_model, host_info, write_bench_json, HostInfo};
use pinnsoc_scenario::{standard_suite, Scenario, ScenarioRunner};
use serde::Serialize;
use std::sync::Arc;

/// Offset for the held-out scoring fleets: same scenario specs, fleets the
/// adaptation session never saw.
const HELD_OUT_OFFSET: u64 = 1000;

/// The drive-cycle scenarios the adapted model is judged on.
const DRIVE_SCENARIOS: [&str; 4] = [
    "drive-udds",
    "drive-us06-hot",
    "ev-mixed-random",
    "drifting-fleet",
];

#[derive(Debug, Serialize)]
struct ScenarioComparison {
    name: String,
    frozen_network_mae: f64,
    adapted_network_mae: f64,
    frozen_best_mae: f64,
    adapted_best_mae: f64,
    ekf_mae: f64,
    network_improvement_pct: f64,
}

#[derive(Debug, Serialize)]
struct AdaptationSession {
    scenario: String,
    promoted_label: String,
    report: AdaptReport,
    events: Vec<AdaptEvent>,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    suite_seed: u64,
    held_out_seed_offset: u64,
    /// Worker counts whose full adaptation sessions were compared
    /// bit-for-bit.
    determinism_checked_workers: [usize; 2],
    host: HostInfo,
    session: AdaptationSession,
    scenarios: Vec<ScenarioComparison>,
}

/// Held-out drive-cycle scenarios for frozen-vs-adapted scoring.
fn scoring_suite(smoke: bool) -> Vec<Scenario> {
    standard_suite(SUITE_SEED.wrapping_add(HELD_OUT_OFFSET))
        .into_iter()
        .filter(|s| DRIVE_SCENARIOS.contains(&s.name.as_str()))
        .map(|mut s| {
            if smoke {
                s.population.cells = 8;
                s.timing.duration_s = 300.0;
            }
            s
        })
        .collect()
}

fn score(suite: &[Scenario], model: &SocModel) -> Vec<pinnsoc_scenario::ScenarioResult> {
    ScenarioRunner {
        workers: 2,
        ..ScenarioRunner::default()
    }
    .run(suite, model)
    .report
    .scenarios
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let workers = [0usize, 2];
    println!(
        "training the frozen lab model ({})...",
        if smoke { "smoke size" } else { "full size" }
    );
    let frozen = demo_serving_model(smoke);

    // The adaptation session, twice: the loop's determinism contract says
    // worker counts change throughput, never results.
    println!("running the closed-loop adaptation session (workers {workers:?})...");
    let fingerprint0 = session_fingerprint(&run_session(smoke, workers[0], &frozen, None));
    let adapt = run_session(smoke, workers[1], &frozen, None);
    assert_eq!(
        fingerprint0,
        session_fingerprint(&adapt),
        "adaptation session must be bit-identical across worker counts {workers:?}"
    );
    println!("determinism check OK: workers {workers:?} produced bit-identical sessions");

    let report = adapt.report();
    println!(
        "session: {} ticks, {} windows harvested, {} trigger(s), {} gate pass(es), {} swap(s)",
        report.ticks_observed,
        report.harvest.harvested,
        report.triggers,
        report.gate_passes,
        report.swaps
    );
    assert!(
        report.swaps >= 1,
        "the drifting session must promote at least one adapted model"
    );
    let adapted = Arc::clone(adapt.promoted().expect("swaps >= 1"));

    // Frozen vs adapted on held-out drive-cycle fleets.
    println!("scoring frozen vs adapted on held-out drive scenarios...");
    let suite = scoring_suite(smoke);
    let frozen_results = score(&suite, &frozen);
    let adapted_results = score(&suite, &adapted);
    let mut comparisons = Vec::new();
    println!(
        "\n{:<18} {:>12} {:>12} {:>9} {:>12}",
        "scenario", "frozen net", "adapted net", "ekf", "improvement"
    );
    for (f, a) in frozen_results.iter().zip(&adapted_results) {
        let improvement = 100.0 * (f.network.mae - a.network.mae) / f.network.mae;
        println!(
            "{:<18} {:>12.4} {:>12.4} {:>9.4} {:>11.1}%",
            f.name, f.network.mae, a.network.mae, f.ekf.mae, improvement
        );
        assert!(
            a.network.mae < f.network.mae,
            "{}: adapted network MAE {} must be strictly below frozen {}",
            f.name,
            a.network.mae,
            f.network.mae
        );
        comparisons.push(ScenarioComparison {
            name: f.name.clone(),
            frozen_network_mae: f.network.mae,
            adapted_network_mae: a.network.mae,
            frozen_best_mae: f.best.mae,
            adapted_best_mae: a.best.mae,
            ekf_mae: f.ekf.mae,
            network_improvement_pct: improvement,
        });
    }

    if smoke {
        println!("\nsmoke run OK (BENCH_adapt.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Closed-loop online adaptation: a drifting-fleet session harvests \
                      EKF-labeled windows from a live FleetEngine, fine-tunes warm-started \
                      candidates on the shared worker pool, gates them on closed-loop \
                      scenarios, and hot-swaps the winner; frozen vs adapted network SoC MAE \
                      on held-out drive-cycle fleets"
            .into(),
        model: "two-branch PINN-All (2,322 params), Sandia-reduced training, seed 7".into(),
        suite_seed: SUITE_SEED,
        held_out_seed_offset: HELD_OUT_OFFSET,
        determinism_checked_workers: workers,
        host: host_info(workers[1]),
        session: AdaptationSession {
            scenario: session_scenario(false).name,
            promoted_label: adapted.label.clone(),
            report,
            events: adapt.events().to_vec(),
        },
        scenarios: comparisons,
    };
    write_bench_json("BENCH_adapt.json", &baseline);
}
