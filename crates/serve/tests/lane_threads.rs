//! Lane threads change nothing on disk or on the read side: two durable
//! tiers with the same engines, shards and seeded faulty traffic — one
//! with a single lane helper, one with a thread per lane — write
//! byte-identical WAL segments and `snapshot.bin` files after every tick,
//! publish bit-identical snapshots, and stay identical through a crash and
//! recovery of one lane. Every snapshot either tier publishes also equals a
//! sweep-and-sort build of its live engines, so an estimate-buffer or
//! publish fault both tiers share cannot hide behind their agreement.

mod common;

use common::{published, sweep_and_sort};
use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};
use pinnsoc_scenario::{tear_directory, CrashPoint, FaultChannel, FaultModel};
use pinnsoc_serve::{DurabilitySpec, ServeConfig, ServeTier};
use std::path::{Path, PathBuf};

/// Enough cells that every tick queues more frames than the lane pool's
/// wake threshold (4,096 over all lanes), so the helpers really run lanes.
const CELLS: u64 = 4_800;
const ENGINES: usize = 4;
const TICKS: u64 = 14;
const CRASH_TICK: u64 = 7;
const CRASHED_ENGINE: usize = 2;

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pinnsoc-lane-threads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn feed(tick: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: tick as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (tick as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

/// A durable tier whose lane pool has `workers.min(ENGINES - 1)` helpers.
fn durable_tier(root: &Path, workers: usize) -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: ENGINES,
            ring_capacity: 4 * CELLS as usize,
            fleet: FleetConfig {
                shards: 3,
                micro_batch: 8,
                workers,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: Some(DurabilitySpec {
                root: root.to_path_buf(),
                snapshot_every_ticks: 4,
            }),
        },
    )
    .expect("durable tier");
    for id in 0..CELLS {
        assert!(tier.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        ));
    }
    tier
}

/// Seeded per-cell fault channels: noise, dropouts, duplicates,
/// reordering, clock jitter and NaN injection.
fn channels() -> Vec<FaultChannel> {
    let model = FaultModel {
        dropout: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        clock_jitter_s: 0.5,
        non_finite: 0.02,
        ..FaultModel::sensor_noise()
    };
    (0..CELLS)
        .map(|id| FaultChannel::new(model, 0x1A7E ^ id))
        .collect()
}

/// Every file of every lane directory, by lane, name and bytes.
fn lane_files(root: &Path) -> Vec<(usize, String, Vec<u8>)> {
    let mut files = Vec::new();
    for lane in 0..ENGINES {
        let dir = root.join(format!("engine-{lane:03}"));
        for entry in std::fs::read_dir(&dir).expect("lane directory") {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().into_string().expect("utf-8 name");
            files.push((lane, name, std::fs::read(entry.path()).expect("read file")));
        }
    }
    files.sort();
    files
}

/// The published snapshot, bit-exact.
type SnapshotBits = (u64, usize, usize, Vec<(u64, u64, Option<u64>, bool, u64)>);

fn snapshot_bits(tier: &ServeTier) -> SnapshotBits {
    let snapshot = tier.reader().snapshot();
    let cells = snapshot
        .cells
        .iter()
        .map(|(id, b)| {
            (
                *id,
                b.best.0.to_bits(),
                b.network.map(f64::to_bits),
                b.network_fresh,
                b.coulomb.to_bits(),
            )
        })
        .collect();
    (
        snapshot.tick,
        snapshot.registered,
        snapshot.live_engines,
        cells,
    )
}

#[test]
fn durable_files_and_snapshots_identical_across_lane_threads() {
    let roots = [tmpdir("one-helper"), tmpdir("per-lane")];
    let mut tiers = [durable_tier(&roots[0], 1), durable_tier(&roots[1], 3)];
    let mut traffic = [channels(), channels()];
    let mut out = Vec::new();
    let mut last_snapshot: Option<Vec<u8>> = None;
    let mut snapshot_rewrites = 0;
    for tick in 1..=TICKS {
        for (tier, channels) in tiers.iter_mut().zip(&mut traffic) {
            let handle = tier.handle();
            for id in 0..CELLS {
                out.clear();
                channels[id as usize].transmit(feed(tick, id), &mut out);
                for &frame in &out {
                    assert!(handle.ingest(id, frame).enqueued());
                }
            }
            if tick == CRASH_TICK {
                // The crash lands with this tick's traffic on the rings.
                let dir = tier.crash_engine(CRASHED_ENGINE);
                tear_directory(&dir, 0x7EA2, CrashPoint::MidTick).expect("tear");
                tier.recover_engine(CRASHED_ENGINE).expect("recover");
            }
            let report = tier.tick().expect("durable tick");
            assert_eq!(report.skipped_lanes, 0);
        }
        let files = [lane_files(&roots[0]), lane_files(&roots[1])];
        let names = |files: &[(usize, String, Vec<u8>)]| -> Vec<(usize, String)> {
            files.iter().map(|(l, n, _)| (*l, n.clone())).collect()
        };
        assert_eq!(names(&files[0]), names(&files[1]), "tick {tick}: file sets");
        for (a, b) in files[0].iter().zip(&files[1]) {
            assert!(a.2 == b.2, "tick {tick}: lane {} {} differs", a.0, a.1);
        }
        // Lane 0's snapshot file changes only when the cadence fires.
        let snapshot = files[0]
            .iter()
            .find(|(lane, name, _)| *lane == 0 && name == "snapshot.bin")
            .map(|(_, _, bytes)| bytes.clone());
        if last_snapshot.is_some() && snapshot != last_snapshot {
            snapshot_rewrites += 1;
        }
        last_snapshot = snapshot;
        assert_eq!(
            snapshot_bits(&tiers[0]),
            snapshot_bits(&tiers[1]),
            "tick {tick}: published snapshots"
        );
        for (which, tier) in tiers.iter().enumerate() {
            assert!(
                published(&tier.reader().snapshot()) == sweep_and_sort(tier),
                "tick {tick}: tier {which}'s snapshot differs from a sweep-and-sort build"
            );
        }
    }
    assert_eq!(
        tiers[0].reader().snapshot().cells.len() as u64,
        CELLS,
        "every cell reports after the recovery"
    );
    assert!(
        snapshot_rewrites >= 2,
        "the snapshot cadence fired during the run"
    );
    drop(tiers);
    for root in roots {
        std::fs::remove_dir_all(root).expect("cleanup");
    }
}
