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

use pinnsoc_fleet::testing::{untrained_model, untrained_model_seeded};
use pinnsoc_fleet::{CellConfig, CellId, EstimateBreakdown, FleetConfig, SocEstimate, Telemetry};
use pinnsoc_obs::ObsHub;
use pinnsoc_serve::{DurabilitySpec, IngestHandle, ServeConfig, ServeSnapshot, ServeTier};
use std::path::PathBuf;
use std::sync::Arc;

/// Ids drawn by the generator; about half are registered at any time.
const ID_SPACE: u64 = 160;
const SEEDS: u64 = 8;
const STEPS: usize = 240;
/// Bin counts and thresholds every snapshot is queried with.
const BINS: [usize; 3] = [1, 7, 32];
const THRESHOLDS: [f64; 4] = [0.0, 0.3, 0.55, 1.0];

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

/// A snapshot's cells, aggregates and query answers, bit-exact.
#[derive(Debug, PartialEq)]
struct Published {
    cells: Vec<(CellId, Bits)>,
    registered: usize,
    reporting: usize,
    mean_min_max: [u64; 3],
    histograms: Vec<Vec<usize>>,
    below: Vec<Vec<CellId>>,
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
        histograms: BINS.iter().map(|&k| snapshot.soc_histogram(k)).collect(),
        below: THRESHOLDS
            .iter()
            .map(|&t| snapshot.cells_below(t))
            .collect(),
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
    // Equal buckets over [0, 1], the last one closed.
    let histogram = |bins: usize| {
        let mut counts = vec![0; bins];
        for (_, b) in &cells {
            counts[((b.best.0 * bins as f64) as usize).min(bins - 1)] += 1;
        }
        counts
    };
    let below = |threshold: f64| {
        cells
            .iter()
            .filter(|(_, b)| b.best.0 < threshold)
            .map(|(id, _)| *id)
            .collect()
    };
    Published {
        cells: cells.iter().map(|(id, b)| (*id, bits(b))).collect(),
        registered,
        reporting: cells.len(),
        mean_min_max,
        histograms: BINS.iter().map(|&k| histogram(k)).collect(),
        below: THRESHOLDS.iter().map(|&t| below(t)).collect(),
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
