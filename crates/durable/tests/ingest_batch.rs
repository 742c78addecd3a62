//! [`DurableFleet::ingest_batch`] against per-frame
//! [`DurableFleet::ingest`]: the same seeded traffic through both must
//! leave byte-identical WAL segments and snapshots after every flush, and
//! both directories must recover to the same engine state.

use pinnsoc_durable::{recover, DurableConfig, DurableFleet};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, FleetEngine, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const CELLS: u64 = 60;
const TICKS: u64 = 10;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pinnsoc-durable-batch-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &Path) -> DurableFleet {
    let engine = FleetEngine::new(
        untrained_model(),
        FleetConfig {
            shards: 4,
            micro_batch: 16,
            workers: 1,
            ekf_fallback: None,
            ..FleetConfig::default()
        },
    );
    DurableFleet::create(
        engine,
        DurableConfig {
            // Small segments and a short snapshot cadence, so the run
            // crosses rotations and snapshot truncations.
            max_segment_bytes: 4 << 10,
            snapshot_every_ticks: 4,
            ..DurableConfig::new(dir)
        },
    )
    .expect("create")
}

/// Every file in `dir`, sorted by name, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

fn frame(rng: &mut StdRng, clocks: &mut [f64]) -> (CellId, Telemetry) {
    // A few ids past the registered range land as unknown cells.
    let id = rng.gen_range(0..CELLS + 6);
    let clock = &mut clocks[id as usize];
    let time_s = match rng.gen_range(0..8u32) {
        0 => *clock,
        1 => *clock - 3.0,
        _ => {
            *clock += rng.gen_range(1.0..10.0);
            *clock
        }
    };
    let voltage_v = if rng.gen_bool(0.05) {
        f64::NAN
    } else {
        rng.gen_range(3.2..4.1)
    };
    let telemetry = Telemetry {
        time_s,
        voltage_v,
        current_a: rng.gen_range(-2.0..6.0),
        temperature_c: rng.gen_range(10.0..35.0),
    };
    (id, telemetry)
}

#[test]
fn batched_ingest_writes_the_same_wal_bytes_as_per_frame_ingest() {
    let (batched_dir, control_dir) = (tmpdir("batched"), tmpdir("control"));
    let mut batched = durable(&batched_dir);
    let mut control = durable(&control_dir);
    let config = CellConfig {
        initial_soc: 0.8,
        capacity_ah: 3.0,
    };
    for id in 0..CELLS {
        assert!(batched.register(id, config.clone()));
        assert!(control.register(id, config.clone()));
    }
    let mut rng = StdRng::seed_from_u64(7);
    let mut clocks = vec![0.0; CELLS as usize + 6];
    for tick in 1..=TICKS {
        if tick == 5 {
            assert!(batched.deregister(3) && control.deregister(3));
        }
        let batch: Vec<_> = (0..rng.gen_range(0..3 * CELLS as usize))
            .map(|_| frame(&mut rng, &mut clocks))
            .collect();
        let known = batched.ingest_batch(&batch);
        let control_known = batch
            .iter()
            .filter(|&&(id, telemetry)| control.ingest(id, telemetry))
            .count();
        assert_eq!(known, control_known, "tick {tick}");
        assert_eq!(
            batched.process_pending().expect("tick"),
            control.process_pending().expect("tick"),
            "tick {tick}"
        );
        assert_eq!(
            dir_bytes(&batched_dir),
            dir_bytes(&control_dir),
            "tick {tick}: flushed WAL segments and snapshots"
        );
    }
    assert_eq!(
        batched.engine().telemetry_stats(),
        control.engine().telemetry_stats()
    );
    drop((batched, control));

    let (recovered, _) = recover(DurableConfig::new(&batched_dir), 1).expect("recover");
    let (recovered_control, _) = recover(DurableConfig::new(&control_dir), 1).expect("recover");
    assert_eq!(recovered.tick(), TICKS);
    let bits = |fleet: &DurableFleet| -> Vec<(CellId, u64)> {
        let engine = fleet.engine();
        engine
            .ids()
            .into_iter()
            .filter_map(|id| engine.estimate(id).map(|(soc, _)| (id, soc.to_bits())))
            .collect()
    };
    assert_eq!(bits(&recovered), bits(&recovered_control));

    std::fs::remove_dir_all(&batched_dir).expect("cleanup");
    std::fs::remove_dir_all(&control_dir).expect("cleanup");
}
