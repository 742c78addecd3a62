//! Seeded search over the snapshot id directory: delta publish against a
//! full rebuild.
//!
//! A steady tick patches only the ranks whose cells the engines changed
//! (this tick's into the buffer reclaimed from two ticks ago, plus last
//! tick's); only a membership change makes the tier rank every cell
//! again. This test drives two durable tiers at different topologies
//! through random interleavings of everything that can change membership
//! or a cell's estimate — register, deregister, a cell's first report,
//! valid, duplicate-stamp, time-reversed and NaN reports, unknown ids, hot
//! model swaps, lane crash and recovery — plus readers pinning snapshots
//! (until released, or for a fixed number of ticks; a pinned reclaim
//! forces a patched copy), plain ticks and ticks with empty rings. Ids
//! span more than 64 ranks, so rank bitmaps run over several words.
//! After every tick the published snapshot, its aggregates, histograms and
//! threshold scans must be bit-identical to a sweep-and-sort build from
//! the live engines, and, whenever every lane of both tiers is up,
//! identical across the two topologies. A held snapshot never changes.
//!
//! A second, seeded case builds what the random search is unlikely to
//! reach: a lane recovered to an engine with the dead engine's membership
//! epoch but other positions, which only a forced rebuild and a full
//! sweep of the lane's estimate buffer publish correctly.

mod common;

use common::{published, sweep_and_sort, Published};
use pinnsoc_fleet::testing::{untrained_model, untrained_model_seeded};
use pinnsoc_fleet::{CellConfig, CellId, FleetConfig, Telemetry};
use pinnsoc_obs::ObsHub;
use pinnsoc_serve::{DurabilitySpec, IngestHandle, ServeConfig, ServeSnapshot, ServeTier};
use std::path::PathBuf;
use std::sync::Arc;

/// Ids drawn by the generator; about half are registered at any time.
const ID_SPACE: u64 = 160;
const SEEDS: u64 = 8;
const STEPS: usize = 240;

/// splitmix64: the seeded op stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn durable_tier(root: PathBuf, engines: usize, shards: usize, workers: usize) -> ServeTier {
    let _ = std::fs::remove_dir_all(&root);
    ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines,
            ring_capacity: 1024,
            fleet: FleetConfig {
                shards,
                micro_batch: 8,
                workers,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: Some(DurabilitySpec {
                root,
                snapshot_every_ticks: 3,
            }),
        },
    )
    .expect("durable tier")
}

fn report(time_s: f64, id: CellId) -> Telemetry {
    Telemetry {
        time_s,
        voltage_v: 3.4 + 0.013 * (id % 17) as f64 + 0.0007 * time_s,
        current_a: 0.5 + 0.1 * (id % 5) as f64,
        temperature_c: 20.0 + 0.3 * (id % 13) as f64,
    }
}

fn any_down(tier: &ServeTier) -> bool {
    (0..tier.engines()).any(|e| tier.is_down(e))
}

/// Ticks both tiers and checks what they published.
fn tick_and_check(tiers: &mut [ServeTier; 2], context: &str) {
    for tier in tiers.iter_mut() {
        tier.tick().expect("durable tick");
    }
    let snapshots = [tiers[0].reader().snapshot(), tiers[1].reader().snapshot()];
    for (tier, snapshot) in tiers.iter().zip(&snapshots) {
        assert_eq!(
            published(snapshot),
            sweep_and_sort(tier),
            "{context}: snapshot differs from a sweep-and-sort build"
        );
    }
    if !tiers.iter().any(any_down) {
        assert_eq!(
            published(&snapshots[0]),
            published(&snapshots[1]),
            "{context}: topologies diverged"
        );
    }
}

/// Sends one frame for `id` to both tiers.
fn send(handles: &[IngestHandle; 2], id: CellId, frame: Telemetry) {
    for handle in handles {
        assert!(handle.ingest(id, frame).enqueued());
    }
}

fn run_seed(seed: u64) {
    let base = std::env::temp_dir().join(format!(
        "pinnsoc-serve-directory-{seed}-{}",
        std::process::id()
    ));
    let mut tiers = [
        durable_tier(base.join("a"), 3, 2, 1),
        durable_tier(base.join("b"), 2, 3, 2),
    ];
    let hub = ObsHub::new();
    tiers[0].attach_obs(&hub);
    let handles = [tiers[0].handle(), tiers[1].handle()];
    let mut rng = Stream(seed);
    // Per-cell report clock, so valid reports never go back in time.
    let mut clock = [0u64; ID_SPACE as usize];
    let mut pinned: Vec<Arc<ServeSnapshot>> = Vec::new();
    // Snapshots held for a fixed number of ticks: (ticks left, snapshot,
    // its contents when pinned).
    let mut held: Vec<(u64, Arc<ServeSnapshot>, Published)> = Vec::new();
    let mut ticks = 0;
    // A crash loses what the lane has not committed, and a recovered lane
    // drains its outage backlog at the next tick: membership changes only
    // while every lane is up with nothing left to drain, and lanes crash
    // only with no membership change since the last tick (commit). That
    // keeps both topologies on the same cells.
    let mut membership_changed = false;
    let mut draining = false;
    // A recovered lane serves the model of its last durable snapshot, so
    // lanes crash only once every lane has snapshotted since the last hot
    // swap (lanes snapshot every 3 committed ticks).
    let mut ticks_since_swap = u64::MAX;

    for step in 0..STEPS {
        let id = rng.below(ID_SPACE);
        let quiet = !draining && !tiers.iter().any(any_down);
        let context = format!("seed {seed} step {step}");
        // Each op runs, then says how many ticks follow it.
        let run_ticks = match rng.below(26) {
            0..=2 if quiet => {
                membership_changed = true;
                let config = CellConfig {
                    initial_soc: 0.2 + 0.6 * (id as f64 / ID_SPACE as f64),
                    capacity_ah: 2.5,
                };
                let added = tiers[0].register(id, config.clone());
                assert_eq!(tiers[1].register(id, config), added, "step {step}");
                0
            }
            3 if quiet => {
                membership_changed = true;
                let removed = tiers[0].deregister(id);
                assert_eq!(tiers[1].deregister(id), removed, "step {step}");
                0
            }
            // Valid reports: a registered cell's first report joins the
            // snapshot; an unregistered id is counted unknown.
            4..=9 => {
                for _ in 0..1 + rng.below(6) {
                    let id = rng.below(ID_SPACE);
                    clock[id as usize] += 1;
                    send(&handles, id, report(clock[id as usize] as f64 * 10.0, id));
                }
                0
            }
            // A NaN report never makes a cell report.
            10 => {
                clock[id as usize] += 1;
                let frame = Telemetry {
                    voltage_v: f64::NAN,
                    ..report(clock[id as usize] as f64 * 10.0, id)
                };
                send(&handles, id, frame);
                0
            }
            // Ids no engine will ever know.
            11 => {
                send(&handles, ID_SPACE + id, report(1.0, ID_SPACE + id));
                0
            }
            // Crash one live lane per tier, or recover every down lane.
            12 if !membership_changed && ticks_since_swap > 3 => {
                for tier in &mut tiers {
                    let lane = rng.below(tier.engines() as u64) as usize;
                    if !tier.is_down(lane) {
                        tier.crash_engine(lane);
                    }
                }
                0
            }
            13 => {
                for tier in &mut tiers {
                    for lane in 0..tier.engines() {
                        if tier.is_down(lane) {
                            tier.recover_engine(lane).expect("recover lane");
                            draining = true;
                        }
                    }
                }
                0
            }
            // Pin the current snapshots across the next tick(s), or let
            // the readers go.
            14 => {
                for tier in &tiers {
                    pinned.push(tier.reader().snapshot());
                }
                0
            }
            15 => {
                pinned.clear();
                0
            }
            // The last valid stamp again, with new readings: a duplicate
            // timestamp (folded in and re-estimated), or a first report.
            16 => {
                let frame = Telemetry {
                    voltage_v: 3.9,
                    ..report(clock[id as usize] as f64 * 10.0, id)
                };
                send(&handles, id, frame);
                0
            }
            // Older than the last valid stamp: rejected once the cell has
            // reported.
            17 => {
                send(
                    &handles,
                    id,
                    report(clock[id as usize] as f64 * 10.0 - 5.0, id),
                );
                0
            }
            // Hot swap on every live lane of both tiers.
            18 if quiet => {
                let model = untrained_model_seeded(seed * 1000 + step as u64);
                for tier in &tiers {
                    for lane in 0..tier.engines() {
                        let engine = tier.engine(lane).expect("quiet: every lane is up");
                        engine.registry().swap(model.clone());
                    }
                }
                ticks_since_swap = 0;
                0
            }
            // Hold the current snapshots for two to four ticks.
            19 => {
                let ticks = 2 + rng.below(3);
                for tier in &tiers {
                    let snapshot = tier.reader().snapshot();
                    let contents = published(&snapshot);
                    held.push((ticks, snapshot, contents));
                }
                0
            }
            // A tick, then one with every ring empty.
            20 => 2,
            _ => 1,
        };
        for _ in 0..run_ticks {
            ticks += 1;
            ticks_since_swap = ticks_since_swap.saturating_add(1);
            membership_changed = false;
            draining = false;
            tick_and_check(&mut tiers, &context);
            held.retain_mut(|(left, snapshot, contents)| {
                assert_eq!(
                    &published(snapshot),
                    contents,
                    "{context}: a held snapshot changed"
                );
                *left -= 1;
                *left > 0
            });
        }
    }
    // Both publish paths ran: patches between the rebuilds.
    let rebuilds = hub
        .snapshot()
        .metrics
        .counter_total("pinnsoc_serve_snapshot_rebuilds_total");
    assert!(
        0 < rebuilds && rebuilds < ticks,
        "seed {seed}: {rebuilds} rebuilds in {ticks} ticks"
    );
    drop(tiers);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn directory_matches_sweep_and_sort_under_random_membership_changes() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}

/// Every WAL segment in a lane directory, by name, with its length.
fn wal_lengths(dir: &std::path::Path) -> Vec<(PathBuf, u64)> {
    let mut segments: Vec<(PathBuf, u64)> = std::fs::read_dir(dir)
        .expect("lane directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .map(|path| {
            let len = std::fs::metadata(&path).expect("segment metadata").len();
            (path, len)
        })
        .collect();
    segments.sort();
    segments
}

/// Each reporting cell's position and id, in position order.
fn reporting(tier: &ServeTier, lane: usize) -> Vec<(usize, CellId)> {
    let mut cells = Vec::new();
    tier.engine(lane)
        .expect("lane is up")
        .for_each_reporting(|position, id| cells.push((position, id)));
    cells
}

fn check(tier: &ServeTier, context: &str) {
    assert_eq!(
        published(&tier.reader().snapshot()),
        sweep_and_sort(tier),
        "{context}: snapshot differs from a sweep-and-sort build"
    );
}

/// A lane recovers to an engine whose membership epoch equals the dead
/// engine's while its positions differ: the dead engine's last committed
/// tick registered one more cell, and that tick is torn off the WAL, so
/// the recovered engine (one import plus the replayed registers and first
/// reports) lands on the same count without the cell. Neither the id
/// directory nor the lane's estimate buffer may then patch what they
/// knew; both must start over.
fn recovered_epoch_case(seed: u64) {
    const LANE: usize = 0;
    const CELLS: u64 = 48;
    let root = std::env::temp_dir().join(format!(
        "pinnsoc-serve-recovered-epoch-{seed}-{}",
        std::process::id()
    ));
    let mut tier = durable_tier(root.clone(), 2, 3, 1);
    let handle = tier.handle();
    let mut rng = Stream(seed);
    let config = |id: CellId| CellConfig {
        initial_soc: 0.3 + 0.5 * (id as f64 / CELLS as f64),
        capacity_ah: 2.5,
    };
    for id in 0..CELLS {
        assert!(tier.register(id, config(id)));
        assert!(handle.ingest(id, report(10.0, id)).enqueued());
    }
    tier.tick().expect("tick 1");
    check(&tier, &format!("seed {seed} tick 1"));
    let lane_dir = root.join(format!("engine-{LANE:03}"));
    let committed = wal_lengths(&lane_dir);

    // One more cell on the lane, in a shard before the last, so the
    // positions of every later shard's cells shift by one.
    let extra = loop {
        let id = CELLS + rng.below(1000);
        if tier.router().route(id) == LANE && id % 3 != 2 {
            break id;
        }
    };
    assert!(tier.register(extra, config(extra)));
    tier.tick().expect("tick 2");
    check(&tier, &format!("seed {seed} tick 2"));
    let dead_epoch = tier.engine(LANE).expect("up").membership_epoch();
    let dead_positions = reporting(&tier, LANE);

    tier.crash_engine(LANE);
    for (path, len) in wal_lengths(&lane_dir) {
        match committed.iter().find(|(p, _)| *p == path) {
            Some(&(_, len_then)) => {
                assert!(len_then <= len);
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|file| file.set_len(len_then))
                    .expect("tear the last commit off");
            }
            None => std::fs::remove_file(&path).expect("drop a newer segment"),
        }
    }
    tier.recover_engine(LANE).expect("recover lane");
    let recovered = tier.engine(LANE).expect("recovered");
    assert!(
        !recovered.contains(extra),
        "seed {seed}: the torn tick is lost"
    );
    assert_eq!(
        recovered.membership_epoch(),
        dead_epoch,
        "seed {seed}: the case needs the dead engine's epoch"
    );
    assert_ne!(
        reporting(&tier, LANE),
        dead_positions,
        "seed {seed}: the case needs other positions"
    );

    // Some cells report; the rest keep what recovery replayed.
    for id in 0..CELLS {
        if rng.below(3) == 0 {
            assert!(handle.ingest(id, report(20.0, id)).enqueued());
        }
    }
    tier.tick().expect("tick 3");
    check(&tier, &format!("seed {seed} tick 3"));
    tier.tick().expect("tick 4");
    check(&tier, &format!("seed {seed} tick 4"));
    drop(tier);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recovered_lane_at_the_dead_epoch_with_other_positions_starts_over() {
    for seed in 0..4 {
        recovered_epoch_case(seed);
    }
}
