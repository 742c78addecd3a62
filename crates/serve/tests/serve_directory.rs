//! Seeded search over the snapshot id directory's invalidation paths.
//!
//! A steady tick places each swept cell at a rank the tier remembered
//! from an earlier tick; only a change in the swept id sequence makes it
//! sort again. This test drives two durable tiers at different topologies
//! through random interleavings of everything that can change that
//! sequence — register, deregister, a cell's first report, NaN-only
//! reports, unknown ids, lane crash and recovery — plus readers pinning
//! the previous snapshot (which forces a fresh buffer) and plain ticks.
//! After every tick the published snapshot must be bit-identical to a
//! sweep-and-sort build from the live engines, and, whenever every lane
//! of both tiers is up, identical across the two topologies.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, CellId, EstimateBreakdown, FleetConfig, SocEstimate, Telemetry};
use pinnsoc_serve::{DurabilitySpec, ServeConfig, ServeSnapshot, ServeTier};
use std::path::PathBuf;
use std::sync::Arc;

/// Ids drawn by the generator; about half are registered at any time.
const ID_SPACE: u64 = 48;
const SEEDS: u64 = 8;
const STEPS: usize = 160;

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

/// Every field of one breakdown, bit-exact.
type Bits = (
    u64,
    SocEstimate,
    Option<u64>,
    bool,
    u64,
    Option<u64>,
    Option<u64>,
);

fn bits(b: &EstimateBreakdown) -> Bits {
    (
        b.best.0.to_bits(),
        b.best.1,
        b.network.map(f64::to_bits),
        b.network_fresh,
        b.coulomb.to_bits(),
        b.ekf.map(f64::to_bits),
        b.ekf_soc_std.map(f64::to_bits),
    )
}

/// A snapshot's cells and aggregates, bit-exact.
#[derive(Debug, PartialEq)]
struct Published {
    cells: Vec<(CellId, Bits)>,
    registered: usize,
    reporting: usize,
    mean_min_max: [u64; 3],
}

fn published(snapshot: &ServeSnapshot) -> Published {
    let stats = snapshot.stats();
    assert_eq!(stats.cells, snapshot.registered);
    Published {
        cells: snapshot
            .cells
            .iter()
            .map(|(id, b)| (*id, bits(b)))
            .collect(),
        registered: stats.cells,
        reporting: stats.reporting,
        mean_min_max: [
            stats.mean_soc.to_bits(),
            stats.min_soc.to_bits(),
            stats.max_soc.to_bits(),
        ],
    }
}

/// The sweep-and-sort build: every live engine's reporting cells, sorted
/// by id, with the aggregates folded in id order.
fn sweep_and_sort(tier: &ServeTier) -> Published {
    let mut cells = Vec::new();
    let mut registered = 0;
    for e in 0..tier.engines() {
        if let Some(engine) = tier.engine(e) {
            registered += engine.len();
            engine.for_each_breakdown(|id, b| cells.push((id, b)));
        }
    }
    cells.sort_unstable_by_key(|(id, _)| *id);
    let (mut sum, mut min, mut max) = (0.0, f64::MAX, f64::MIN);
    for (_, b) in &cells {
        sum += b.best.0;
        min = min.min(b.best.0);
        max = max.max(b.best.0);
    }
    let mean_min_max = if cells.is_empty() {
        [0f64.to_bits(); 3]
    } else {
        [
            (sum / cells.len() as f64).to_bits(),
            min.to_bits(),
            max.to_bits(),
        ]
    };
    Published {
        cells: cells.iter().map(|(id, b)| (*id, bits(b))).collect(),
        registered,
        reporting: cells.len(),
        mean_min_max,
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

fn run_seed(seed: u64) {
    let base = std::env::temp_dir().join(format!(
        "pinnsoc-serve-directory-{seed}-{}",
        std::process::id()
    ));
    let mut tiers = [
        durable_tier(base.join("a"), 3, 2, 1),
        durable_tier(base.join("b"), 2, 3, 2),
    ];
    let handles = [tiers[0].handle(), tiers[1].handle()];
    let mut rng = Stream(seed);
    // Per-cell report clock, so accepted reports never go back in time.
    let mut clock = [0u64; ID_SPACE as usize];
    let mut pinned: Vec<Arc<ServeSnapshot>> = Vec::new();
    let mut ticks = 0;
    // A crash loses what the lane has not committed, and a recovered lane
    // drains its outage backlog at the next tick: membership changes only
    // while every lane is up with nothing left to drain, and lanes crash
    // only with no membership change since the last tick (commit). That
    // keeps both topologies on the same cells.
    let mut membership_changed = false;
    let mut draining = false;

    for step in 0..STEPS {
        let id = rng.below(ID_SPACE);
        let quiet = !draining && !tiers.iter().any(any_down);
        match rng.below(20) {
            0..=2 if quiet => {
                membership_changed = true;
                let config = CellConfig {
                    initial_soc: 0.2 + 0.6 * (id as f64 / ID_SPACE as f64),
                    capacity_ah: 2.5,
                };
                let added = tiers[0].register(id, config.clone());
                assert_eq!(tiers[1].register(id, config), added, "step {step}");
            }
            3 if quiet => {
                membership_changed = true;
                let removed = tiers[0].deregister(id);
                assert_eq!(tiers[1].deregister(id), removed, "step {step}");
            }
            // Valid reports: a registered cell's first report joins the
            // snapshot; an unregistered id is counted unknown.
            4..=9 => {
                for _ in 0..1 + rng.below(6) {
                    let id = rng.below(ID_SPACE);
                    clock[id as usize] += 1;
                    let frame = report(clock[id as usize] as f64 * 10.0, id);
                    for handle in &handles {
                        assert!(handle.ingest(id, frame).enqueued());
                    }
                }
            }
            // A NaN report never makes a cell report.
            10 => {
                clock[id as usize] += 1;
                let frame = Telemetry {
                    voltage_v: f64::NAN,
                    ..report(clock[id as usize] as f64 * 10.0, id)
                };
                for handle in &handles {
                    assert!(handle.ingest(id, frame).enqueued());
                }
            }
            // Ids no engine will ever know.
            11 => {
                let frame = report(1.0, ID_SPACE + id);
                for handle in &handles {
                    assert!(handle.ingest(ID_SPACE + id, frame).enqueued());
                }
            }
            // Crash one live lane per tier, or recover every down lane.
            12 if !membership_changed => {
                for tier in &mut tiers {
                    let lane = rng.below(tier.engines() as u64) as usize;
                    if !tier.is_down(lane) {
                        tier.crash_engine(lane);
                    }
                }
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
            }
            // Pin the current snapshots across the next tick(s), or let
            // the readers go.
            14 => {
                for tier in &tiers {
                    pinned.push(tier.reader().snapshot());
                }
            }
            15 => pinned.clear(),
            _ => {
                ticks += 1;
                membership_changed = false;
                draining = false;
                for tier in &mut tiers {
                    tier.tick().expect("durable tick");
                }
                let snapshots = [tiers[0].reader().snapshot(), tiers[1].reader().snapshot()];
                for (tier, snapshot) in tiers.iter().zip(&snapshots) {
                    assert_eq!(
                        published(snapshot),
                        sweep_and_sort(tier),
                        "seed {seed} step {step}: snapshot differs from a sweep-and-sort build"
                    );
                }
                if !tiers.iter().any(any_down) {
                    assert_eq!(
                        published(&snapshots[0]),
                        published(&snapshots[1]),
                        "seed {seed} step {step}: topologies diverged"
                    );
                }
            }
        }
    }
    assert!(ticks > 0);
    drop(tiers);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn directory_matches_sweep_and_sort_under_random_membership_changes() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}
