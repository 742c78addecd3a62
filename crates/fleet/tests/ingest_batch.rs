//! Seeded equivalence search: [`FleetEngine::ingest_batch`] against the
//! per-frame [`FleetEngine::ingest`] it replaces on the serve tier's drain.
//!
//! Two engines see the same control-plane history; one is fed each tick's
//! frames as a batch, the other frame by frame. Batches mix unknown ids,
//! non-finite fields, duplicate and time-reversed stamps, several frames
//! for one cell, and cells deregistered (and re-registered) between ticks.
//! After every pass the telemetry books, the exported cell state, and every
//! estimate breakdown must agree bit for bit.

use pinnsoc_battery::CellParams;
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{
    CellConfig, CellId, CellPersist, EstimateBreakdown, FleetConfig, FleetEngine, Telemetry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CELLS: u64 = 240;
/// Ids at or above `CELLS` are never registered.
const ID_SPACE: u64 = CELLS + 24;
const TICKS: usize = 24;

fn engine(shards: usize, ekf: bool) -> FleetEngine {
    FleetEngine::new(
        untrained_model(),
        FleetConfig {
            shards,
            micro_batch: 32,
            workers: 1,
            ekf_fallback: ekf.then(CellParams::nmc_18650),
            ..FleetConfig::default()
        },
    )
}

fn cell_config(id: CellId) -> CellConfig {
    CellConfig {
        initial_soc: 0.5 + 0.4 * ((id % 9) as f64 / 8.0),
        capacity_ah: 2.5 + 0.1 * ((id % 5) as f64),
    }
}

/// One frame for a random id: usually a forward step on that id's clock,
/// sometimes a repeated or older stamp, sometimes a NaN field.
fn frame(rng: &mut StdRng, clocks: &mut [f64]) -> (CellId, Telemetry) {
    let id = rng.gen_range(0..ID_SPACE);
    let clock = &mut clocks[id as usize];
    let time_s = match rng.gen_range(0..10u32) {
        0 => *clock,
        1 => *clock - rng.gen_range(0.5..20.0),
        _ => {
            *clock += rng.gen_range(0.5..15.0);
            *clock
        }
    };
    let mut telemetry = Telemetry {
        time_s,
        voltage_v: rng.gen_range(3.0..4.2),
        current_a: rng.gen_range(-4.0..8.0),
        temperature_c: rng.gen_range(5.0..40.0),
    };
    if rng.gen_bool(0.05) {
        match rng.gen_range(0..4u32) {
            0 => telemetry.time_s = f64::NAN,
            1 => telemetry.voltage_v = f64::NAN,
            2 => telemetry.current_a = f64::INFINITY,
            _ => telemetry.temperature_c = f64::NAN,
        }
    }
    (id, telemetry)
}

fn persist_bits(cell: &CellPersist) -> Vec<u64> {
    let mut bits = vec![
        cell.id,
        cell.capacity_ah.to_bits(),
        cell.time_s.to_bits(),
        cell.voltage_v.to_bits(),
        cell.current_a.to_bits(),
        cell.temperature_c.to_bits(),
        cell.reports,
        cell.net_time_s.to_bits(),
        cell.net_soc.to_bits(),
        cell.coulomb_soc.to_bits(),
        cell.coulomb_bias_a.to_bits(),
    ];
    if let Some(ekf) = &cell.ekf {
        bits.extend(ekf.x.iter().map(|v| v.to_bits()));
        bits.extend(ekf.p.iter().flatten().map(|v| v.to_bits()));
        bits.extend(ekf.q.iter().map(|v| v.to_bits()));
        bits.push(ekf.r.to_bits());
    }
    bits
}

fn breakdown_bits(engine: &FleetEngine) -> Vec<(CellId, Vec<u64>, String)> {
    let mut out = Vec::new();
    engine.for_each_breakdown(|id, b: EstimateBreakdown| {
        let bits = vec![
            b.best.0.to_bits(),
            b.network.map_or(0, f64::to_bits),
            b.coulomb.to_bits(),
            b.ekf.map_or(0, f64::to_bits),
            b.ekf_soc_std.map_or(0, f64::to_bits),
        ];
        let tags = format!(
            "{:?} {} {} {}",
            b.best.1,
            b.network.is_some(),
            b.network_fresh,
            b.ekf.is_some()
        );
        out.push((id, bits, tags));
    });
    out
}

fn assert_identical(batched: &FleetEngine, control: &FleetEngine, ctx: &str) {
    assert_eq!(
        batched.telemetry_stats(),
        control.telemetry_stats(),
        "{ctx}: telemetry books"
    );
    assert_eq!(batched.ids(), control.ids(), "{ctx}: membership");
    let lhs: Vec<_> = batched.export_cells().iter().map(persist_bits).collect();
    let rhs: Vec<_> = control.export_cells().iter().map(persist_bits).collect();
    assert_eq!(lhs, rhs, "{ctx}: exported cell state");
    assert_eq!(
        breakdown_bits(batched),
        breakdown_bits(control),
        "{ctx}: estimate breakdowns"
    );
}

fn run_case(seed: u64, shards: usize, ekf: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batched = engine(shards, ekf);
    let mut control = engine(shards, ekf);
    for id in 0..CELLS {
        assert!(batched.register(id, cell_config(id)));
        assert!(control.register(id, cell_config(id)));
    }
    let mut clocks = vec![0.0; ID_SPACE as usize];
    let mut batch = Vec::new();
    for tick in 0..TICKS {
        let ctx = format!("seed {seed}, shards {shards}, ekf {ekf}, tick {tick}");
        // Membership churn between ticks: deregistered cells turn into
        // unknown ids for the frames that still address them, and a
        // re-registered id starts over from fresh state.
        for _ in 0..rng.gen_range(0..4u32) {
            let id = rng.gen_range(0..CELLS);
            if rng.gen_bool(0.6) {
                assert_eq!(batched.deregister(id), control.deregister(id), "{ctx}");
            } else {
                let config = cell_config(id);
                assert_eq!(
                    batched.register(id, config.clone()),
                    control.register(id, config),
                    "{ctx}"
                );
            }
        }
        batch.clear();
        // Small batches (including empty ones) and batches several times
        // the fleet, so many cells report more than once per batch.
        let frames = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..8usize),
            _ => rng.gen_range(0..4 * CELLS as usize),
        };
        for _ in 0..frames {
            batch.push(frame(&mut rng, &mut clocks));
        }
        let known = batched.ingest_batch(&batch);
        let control_known = batch
            .iter()
            .filter(|&&(id, telemetry)| control.ingest(id, telemetry))
            .count();
        assert_eq!(known, control_known, "{ctx}: known-cell count");
        assert_eq!(
            batched.process_pending(),
            control.process_pending(),
            "{ctx}: pass counts"
        );
        assert_identical(&batched, &control, &ctx);
    }
    let stats = control.telemetry_stats();
    assert!(
        stats.unknown_cell > 0
            && stats.rejected_non_finite > 0
            && stats.rejected_time_reversed > 0
            && stats.duplicate_timestamp > 0,
        "seed {seed}: the generator must exercise every reject path: {stats:?}"
    );
}

#[test]
fn ingest_batch_matches_per_frame_ingest_power_of_two_shards() {
    for seed in 0..6 {
        run_case(seed, 4, seed % 2 == 1);
    }
}

#[test]
fn ingest_batch_matches_per_frame_ingest_modulo_shards() {
    for seed in 100..104 {
        run_case(seed, 3, seed % 2 == 0);
    }
}
