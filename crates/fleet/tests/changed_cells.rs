//! Seeded search over the engine's changed-cell seam: after every
//! ingest + [`FleetEngine::process_pending`], [`FleetEngine::for_each_changed`]
//! must name every cell whose breakdown changed and no cell that only got
//! rejected frames, and [`FleetEngine::membership_epoch`] must move on
//! exactly the membership events.
//!
//! Three engines see the same history: one fed each tick as an
//! `ingest_batch` with `workers: 0` (auto), one fed frame by frame, and
//! one fed batches with `workers: 2`. Their changed lists must agree entry
//! for entry. Batches mix accepted, duplicate-stamp, time-reversed,
//! non-finite and unknown-id frames, with registers and deregisters
//! between ticks and a hot model swap now and then.

use pinnsoc_battery::CellParams;
use pinnsoc_fleet::testing::{untrained_model, untrained_model_seeded};
use pinnsoc_fleet::{CellConfig, CellId, EstimateBreakdown, FleetConfig, FleetEngine, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const CELLS: u64 = 200;
/// Ids at or above `CELLS` are never registered.
const ID_SPACE: u64 = CELLS + 16;
const TICKS: usize = 24;

fn engine(shards: usize, workers: usize, ekf: bool) -> FleetEngine {
    FleetEngine::new(
        untrained_model(),
        FleetConfig {
            shards,
            micro_batch: 16,
            workers,
            ekf_fallback: ekf.then(CellParams::nmc_18650),
            ..FleetConfig::default()
        },
    )
}

fn cell_config(id: CellId) -> CellConfig {
    CellConfig {
        initial_soc: 0.4 + 0.5 * ((id % 7) as f64 / 6.0),
        capacity_ah: 2.4 + 0.1 * ((id % 4) as f64),
    }
}

/// Every field of one breakdown, bit-exact.
fn bits(b: &EstimateBreakdown) -> [u64; 7] {
    [
        b.best.0.to_bits(),
        b.best.1 as u64,
        b.network.map_or(u64::MAX, f64::to_bits),
        u64::from(b.network_fresh),
        b.coulomb.to_bits(),
        b.ekf.map_or(u64::MAX, f64::to_bits),
        b.ekf_soc_std.map_or(u64::MAX, f64::to_bits),
    ]
}

fn breakdowns(engine: &FleetEngine) -> BTreeMap<CellId, [u64; 7]> {
    let mut out = BTreeMap::new();
    engine.for_each_breakdown(|id, b| {
        out.insert(id, bits(&b));
    });
    out
}

fn reports(engine: &FleetEngine) -> BTreeMap<CellId, u64> {
    engine
        .export_cells()
        .iter()
        .map(|cell| (cell.id, cell.reports))
        .collect()
}

/// The changed list as positions, in the order the engine visits them.
fn changed(engine: &FleetEngine) -> Vec<usize> {
    let mut out = Vec::new();
    engine.for_each_changed(|position| out.push(position));
    out
}

/// What one generated frame is bound to do.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Accepted, or a duplicate stamp (also accepted).
    Good,
    /// Non-finite, time-reversed, or for an id no engine knows.
    Rejected,
}

fn run_case(seed: u64, shards: usize, ekf: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Batched with auto workers, per-frame, batched with two workers.
    let mut engines = [
        engine(shards, 0, ekf),
        engine(shards, 1, ekf),
        engine(shards, 2, ekf),
    ];
    let mut epoch = 0;
    for id in 0..CELLS {
        for engine in &mut engines {
            assert!(engine.register(id, cell_config(id)));
        }
        epoch += 1;
    }
    for engine in &engines {
        assert_eq!(engine.membership_epoch(), epoch, "seed {seed}: registers");
    }
    let mut clocks = vec![1.0; ID_SPACE as usize];
    let mut batch = Vec::new();
    let mut last_changed = BTreeSet::new();
    for tick in 0..TICKS {
        let ctx = format!("seed {seed}, shards {shards}, ekf {ekf}, tick {tick}");
        let mut deregistered = BTreeSet::new();
        for _ in 0..rng.gen_range(0..4u32) {
            let id = rng.gen_range(0..CELLS);
            let config = cell_config(id);
            let deregister = rng.gen_bool(0.5);
            let moved: Vec<bool> = engines
                .iter_mut()
                .map(|engine| match deregister {
                    true => engine.deregister(id),
                    false => engine.register(id, config.clone()),
                })
                .collect();
            assert!(moved.iter().all(|&m| m == moved[0]), "{ctx}");
            epoch += u64::from(moved[0]);
            if deregister && moved[0] {
                deregistered.insert(id);
            }
        }
        // The last pass's list outlives the churn, minus the cells that
        // left (slots moved by a deregister are renamed, not lost).
        let ids = engines[0].ids();
        let kept: BTreeSet<CellId> = changed(&engines[0]).iter().map(|&p| ids[p]).collect();
        let expected: BTreeSet<CellId> = last_changed.difference(&deregistered).copied().collect();
        assert_eq!(kept, expected, "{ctx}: changed list across churn");
        if rng.gen_bool(0.15) {
            let model = untrained_model_seeded(seed * 100 + tick as u64);
            for engine in &engines {
                engine.registry().swap(model.clone());
            }
        }
        let before = breakdowns(&engines[0]);
        let reports_before = reports(&engines[0]);
        batch.clear();
        let mut kinds: BTreeMap<CellId, Vec<Kind>> = BTreeMap::new();
        for _ in 0..rng.gen_range(0..3 * CELLS as usize / 2) {
            let id = rng.gen_range(0..ID_SPACE);
            let reporting = before.contains_key(&id);
            let clock = &mut clocks[id as usize];
            let mut telemetry = Telemetry {
                time_s: *clock,
                voltage_v: rng.gen_range(3.0..4.2),
                current_a: rng.gen_range(-4.0..8.0),
                temperature_c: rng.gen_range(5.0..40.0),
            };
            let kind = match rng.gen_range(0..10u32) {
                // A repeated stamp: accepted as a duplicate once the cell
                // has reported at this clock, or as its first report.
                0 => Kind::Good,
                // Older than anything the cell accepted.
                1 if reporting => {
                    telemetry.time_s = 0.0;
                    Kind::Rejected
                }
                2 => {
                    telemetry.voltage_v = f64::NAN;
                    Kind::Rejected
                }
                _ => {
                    *clock += rng.gen_range(0.5..10.0);
                    telemetry.time_s = *clock;
                    Kind::Good
                }
            };
            let registered = reports_before.contains_key(&id);
            kinds.entry(id).or_default().push(match registered {
                true => kind,
                false => Kind::Rejected,
            });
            batch.push((id, telemetry));
        }
        engines[0].ingest_batch(&batch);
        for &(id, telemetry) in &batch {
            engines[1].ingest(id, telemetry);
        }
        engines[2].ingest_batch(&batch);
        for engine in &mut engines {
            engine.process_pending();
        }

        let lists: Vec<Vec<usize>> = engines.iter().map(changed).collect();
        assert_eq!(lists[0], lists[1], "{ctx}: batched vs per-frame");
        assert_eq!(lists[0], lists[2], "{ctx}: workers 0 vs 2");
        let ids = engines[0].ids();
        let changed_ids: BTreeSet<CellId> = lists[0].iter().map(|&p| ids[p]).collect();
        assert_eq!(changed_ids.len(), lists[0].len(), "{ctx}: listed once each");
        last_changed = changed_ids.clone();

        let after = breakdowns(&engines[0]);
        for (id, b) in &after {
            if before.get(id) != Some(b) {
                assert!(
                    changed_ids.contains(id),
                    "{ctx}: cell {id} changed unlisted"
                );
            }
        }
        let reports_after = reports(&engines[0]);
        let accepted: BTreeSet<CellId> = reports_after
            .iter()
            .filter(|&(id, n)| reports_before.get(id) != Some(n))
            .map(|(&id, _)| id)
            .collect();
        assert_eq!(changed_ids, accepted, "{ctx}: changed == accepted a report");
        for (id, kinds) in &kinds {
            if kinds.iter().all(|&k| k == Kind::Rejected) {
                assert!(
                    !changed_ids.contains(id),
                    "{ctx}: cell {id} got only rejects"
                );
            }
        }

        let first_reports = reports_after
            .iter()
            .filter(|&(id, &n)| n > 0 && reports_before.get(id).copied().unwrap_or(0) == 0)
            .count() as u64;
        epoch += first_reports;
        for engine in &engines {
            assert_eq!(engine.membership_epoch(), epoch, "{ctx}: epoch");
        }
    }

    // Nothing else moves the epoch: an empty pass, a swap, predictions.
    let first = &mut engines[0];
    first.process_pending();
    assert!(changed(first).is_empty(), "seed {seed}: an empty pass");
    first.registry().swap(untrained_model_seeded(seed));
    first.predict_all(pinnsoc_fleet::WorkloadQuery {
        avg_current_a: 1.0,
        avg_temperature_c: 25.0,
        horizon_s: 60.0,
    });
    assert_eq!(first.membership_epoch(), epoch, "seed {seed}: idle");
    // An import is one membership event.
    let mut restored = engine(shards, 0, ekf);
    restored.import_cells(&first.export_cells());
    assert_eq!(restored.membership_epoch(), 1, "seed {seed}: import");

    let stats = first.telemetry_stats();
    assert!(
        stats.unknown_cell > 0
            && stats.rejected_non_finite > 0
            && stats.rejected_time_reversed > 0
            && stats.duplicate_timestamp > 0,
        "seed {seed}: the generator must exercise every reject path: {stats:?}"
    );
}

#[test]
fn changed_cells_cover_every_breakdown_change_power_of_two_shards() {
    for seed in 0..5 {
        run_case(seed, 4, seed % 2 == 1);
    }
}

#[test]
fn changed_cells_cover_every_breakdown_change_modulo_shards() {
    for seed in 200..203 {
        run_case(seed, 3, seed % 2 == 0);
    }
}
