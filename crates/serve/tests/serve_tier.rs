//! Serve-tier integration: topology-invariant outputs, explicit
//! backpressure accounting, snapshot/engine query equivalence, and
//! readers that never perturb the tick loop.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, FleetEngine, Telemetry};
use pinnsoc_obs::{ObsHub, SampleValue};
use pinnsoc_serve::{IngestOutcome, ServeConfig, ServeTier};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const CELLS: u64 = 60;
const TICKS: u64 = 9;

fn feed(tick: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: tick as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (tick as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

fn tier(engines: usize, shards: usize, workers: usize) -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines,
            ring_capacity: 2 * CELLS as usize,
            fleet: FleetConfig {
                shards,
                micro_batch: 8,
                workers,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: None,
        },
    )
    .expect("plain tier never does IO");
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

fn run_traffic(tier: &mut ServeTier) {
    let handle = tier.handle();
    for tick in 1..=TICKS {
        for id in 0..CELLS {
            assert!(handle.ingest(id, feed(tick, id)).enqueued());
        }
        let report = tier.tick().expect("plain tick");
        assert_eq!(report.drained, CELLS as usize);
        assert_eq!(report.telemetry.accepted, CELLS);
        assert_eq!(report.telemetry.rejected(), 0);
    }
}

/// Every per-cell field of the final snapshot, bit-exact.
fn snapshot_bits(tier: &ServeTier) -> Vec<(u64, u64, Option<u64>, bool, u64)> {
    let snapshot = tier.reader().snapshot();
    assert_eq!(snapshot.cells.len() as u64, CELLS);
    snapshot
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
        .collect()
}

/// The tentpole contract: identical traffic through different engine
/// counts, per-engine shard counts, and worker counts lands on
/// bit-identical snapshots — placement and parallelism never change the
/// numbers or the aggregates. `workers` also sizes the lane pool (capped
/// at `engines − 1`), so `(4, 5, 3)` gives every lane its own thread;
/// this traffic is below the pool's wake threshold, so lanes run on the
/// tick thread here, and `lane_threads.rs` drives helper-run lanes.
#[test]
fn snapshots_bit_identical_across_topologies() {
    let mut reference = tier(1, 2, 0);
    run_traffic(&mut reference);
    let expected = snapshot_bits(&reference);
    let expected_stats = reference.reader().snapshot().stats();
    let expected_histogram = reference.reader().snapshot().soc_histogram(16);

    for (engines, shards, workers) in [(2, 3, 0), (3, 4, 2), (4, 7, 1), (4, 5, 3)] {
        let mut other = tier(engines, shards, workers);
        run_traffic(&mut other);
        assert_eq!(
            snapshot_bits(&other),
            expected,
            "{engines} engines / {shards} shards / {workers} workers diverged"
        );
        let stats = other.reader().snapshot().stats();
        assert_eq!(stats.mean_soc.to_bits(), expected_stats.mean_soc.to_bits());
        assert_eq!(stats.min_soc.to_bits(), expected_stats.min_soc.to_bits());
        assert_eq!(stats.max_soc.to_bits(), expected_stats.max_soc.to_bits());
        assert_eq!(stats.reporting, expected_stats.reporting);
        assert_eq!(
            other.reader().snapshot().soc_histogram(16),
            expected_histogram
        );
    }
}

/// Snapshot queries agree with querying a lone engine directly.
#[test]
fn snapshot_queries_match_direct_engine_queries() {
    let mut tier = tier(1, 3, 0);
    run_traffic(&mut tier);

    let mut engine = FleetEngine::new(
        untrained_model(),
        FleetConfig {
            shards: 3,
            micro_batch: 8,
            workers: 0,
            ekf_fallback: None,
            ..FleetConfig::default()
        },
    );
    for id in 0..CELLS {
        engine.register(
            id,
            CellConfig {
                initial_soc: 0.9,
                capacity_ah: 3.0,
            },
        );
    }
    for tick in 1..=TICKS {
        for id in 0..CELLS {
            engine.ingest(id, feed(tick, id));
        }
        engine.process_pending();
    }

    let snapshot = tier.reader().snapshot();
    assert_eq!(snapshot.soc_histogram(10), engine.soc_histogram(10));
    let threshold = snapshot.stats().mean_soc;
    assert_eq!(
        snapshot.cells_below(threshold),
        engine.cells_below(threshold)
    );
    for id in 0..CELLS {
        let served = snapshot.breakdown(id).expect("reporting cell");
        let direct = engine.estimate_breakdown(id).expect("reporting cell");
        assert_eq!(served.best.0.to_bits(), direct.best.0.to_bits());
        assert_eq!(served.best.1, direct.best.1);
        assert_eq!(served.coulomb.to_bits(), direct.coulomb.to_bits());
    }
    let stats = snapshot.stats();
    let direct = engine.stats();
    assert_eq!(stats.cells, direct.cells);
    assert_eq!(stats.reporting, direct.reporting);
    assert_eq!(stats.min_soc.to_bits(), direct.min_soc.to_bits());
    assert_eq!(stats.max_soc.to_bits(), direct.max_soc.to_bits());
}

/// A full ring refuses frames with an explicit outcome and exact
/// accounting; it never blocks and never drops silently.
#[test]
fn full_ring_surfaces_backpressure_with_exact_accounting() {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: 1,
            ring_capacity: 4,
            fleet: FleetConfig {
                shards: 1,
                micro_batch: 8,
                workers: 0,
                ekf_fallback: None,
                ..FleetConfig::default()
            },
            durability: None,
        },
    )
    .expect("plain tier");
    tier.register(
        0,
        CellConfig {
            initial_soc: 0.9,
            capacity_ah: 3.0,
        },
    );
    let handle = tier.handle();

    let mut enqueued = 0u64;
    let mut refused = 0u64;
    for attempt in 0..10u64 {
        match handle.ingest(0, feed(attempt + 1, 0)) {
            IngestOutcome::Enqueued { engine } => {
                assert_eq!(engine, 0);
                enqueued += 1;
            }
            IngestOutcome::Backpressure { engine } => {
                assert_eq!(engine, 0);
                refused += 1;
            }
        }
    }
    assert_eq!(enqueued, 4, "ring holds exactly its capacity");
    assert_eq!(refused, 6);
    assert_eq!(tier.backpressure_total(), 6, "every refusal is counted");

    let report = tier.tick().expect("tick");
    assert_eq!(report.drained, 4);
    assert_eq!(report.backpressure_total, 6);
    // The drain made room: producers recover without interventions.
    assert!(handle.ingest(0, feed(20, 0)).enqueued());
}

/// Engine-side absorb causes surface per tick, alongside (not mixed into)
/// the ring-side backpressure outcome.
#[test]
fn tick_report_carries_absorb_outcome_causes() {
    let mut tier = tier(2, 2, 0);
    let handle = tier.handle();
    for id in 0..CELLS {
        handle.ingest(id, feed(1, id));
    }
    tier.tick().expect("warm-up tick");

    // One non-finite report, one time-reversed report, one duplicate
    // timestamp, one unknown cell, and one clean report.
    handle.ingest(
        0,
        Telemetry {
            voltage_v: f64::NAN,
            ..feed(2, 0)
        },
    );
    handle.ingest(1, feed(0, 1)); // time 0 < time 10 already accepted
    handle.ingest(2, feed(1, 2)); // same timestamp as the accepted tick-1 report
    handle.ingest(CELLS + 5, feed(2, CELLS + 5)); // never registered
    handle.ingest(3, feed(2, 3));
    let report = tier.tick().expect("tick");
    assert_eq!(report.drained, 5, "all five frames reached the engines");
    assert_eq!(report.telemetry.rejected_non_finite, 1);
    assert_eq!(report.telemetry.rejected_time_reversed, 1);
    assert_eq!(report.telemetry.duplicate_timestamp, 1);
    assert_eq!(report.telemetry.unknown_cell, 1);
    assert_eq!(report.telemetry.accepted, 2, "clean + duplicate overwrite");
    assert_eq!(report.backpressure_total, 0);
}

/// Readers hammering snapshots from other threads never panic, always
/// see monotonic ticks, and never corrupt what the tick loop publishes.
#[test]
fn concurrent_readers_see_monotonic_consistent_snapshots() {
    let mut tier = tier(2, 2, 0);
    let handle = tier.handle();
    let reader = tier.reader();
    let stop = Arc::new(AtomicBool::new(false));
    // Ticks start only once every reader has answered one query, so a
    // fast tick loop cannot finish before a reader thread gets scheduled.
    const READERS: usize = 4;
    let started = Arc::new(Barrier::new(READERS + 1));

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let reader = reader.clone();
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        readers.push(std::thread::spawn(move || {
            let mut last_tick = 0u64;
            let mut queries = 0u64;
            loop {
                let snapshot = reader.snapshot();
                assert!(
                    snapshot.tick >= last_tick,
                    "snapshot ticks went backwards: {} after {last_tick}",
                    snapshot.tick
                );
                last_tick = snapshot.tick;
                // Queries run on the pinned Arc — fully off-lock.
                let histogram = snapshot.soc_histogram(8);
                assert_eq!(histogram.iter().sum::<usize>(), snapshot.cells.len());
                assert!(snapshot.cells_below(0.0).is_empty());
                queries += 1;
                if queries == 1 {
                    started.wait();
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            queries
        }));
    }

    started.wait();
    for tick in 1..=40 {
        for id in 0..CELLS {
            assert!(handle.ingest(id, feed(tick, id)).enqueued());
        }
        let report = tier.tick().expect("tick under readers");
        assert_eq!(report.drained, CELLS as usize);
    }
    stop.store(true, Ordering::Relaxed);
    for thread in readers {
        let queries = thread.join().expect("reader thread");
        assert!(queries > 0, "reader never got a snapshot");
    }
    assert_eq!(tier.reader().snapshot().tick, 40);
}

/// Control-plane routing: register/deregister land on the owning engine
/// and the tier-wide `contains` agrees.
#[test]
fn register_deregister_route_consistently() {
    let mut tier = tier(3, 2, 0);
    assert!(tier.contains(7));
    assert!(!tier.register(
        7,
        CellConfig {
            initial_soc: 0.5,
            capacity_ah: 1.0,
        }
    ));
    assert!(tier.deregister(7));
    assert!(!tier.contains(7));
    assert!(!tier.deregister(7));
    // Exactly one engine owns each id.
    for id in 0..CELLS {
        let owners = (0..tier.engines())
            .filter(|&e| tier.engine(e).expect("live").contains(id))
            .count();
        assert_eq!(owners, usize::from(id != 7), "cell {id} owner count");
    }
}

/// Delta publish: once every cell has reported, steady ticks patch the
/// cells that changed without re-ranking any, and one membership change
/// re-ranks them exactly once.
#[test]
fn steady_ticks_patch_and_one_register_rebuilds_once() {
    let mut tier = tier(3, 2, 0);
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    let handle = tier.handle();
    let metrics = || hub.snapshot().metrics;
    let rebuilds = || metrics().counter_total("pinnsoc_serve_snapshot_rebuilds_total");
    let changed_cells = || match metrics()
        .find("pinnsoc_serve_snapshot_changed_cells", &[])
        .map(|m| &m.value)
    {
        Some(SampleValue::Gauge(cells)) => *cells,
        other => panic!("changed-cells gauge: {other:?}"),
    };
    // Warm-up: every cell's first report is a membership event.
    for id in 0..CELLS {
        assert!(handle.ingest(id, feed(1, id)).enqueued());
    }
    tier.tick().expect("plain tick");
    let warm = rebuilds();
    assert!(warm >= 1);
    assert_eq!(changed_cells(), CELLS as f64);
    // Steady ticks: every cell, every third cell, then none.
    let every_third: Vec<u64> = (0..CELLS).step_by(3).collect();
    for (tick, ids) in [(2, (0..CELLS).collect()), (3, every_third), (4, Vec::new())] {
        for &id in &ids {
            assert!(handle.ingest(id, feed(tick, id)).enqueued());
        }
        tier.tick().expect("plain tick");
        assert_eq!(changed_cells(), ids.len() as f64, "tick {tick}");
    }
    assert_eq!(rebuilds(), warm, "steady ticks re-ranked the cells");
    let config = CellConfig {
        initial_soc: 0.5,
        capacity_ah: 2.0,
    };
    assert!(tier.register(CELLS, config));
    tier.tick().expect("plain tick");
    assert_eq!(rebuilds(), warm + 1, "a register re-ranks once");
    tier.tick().expect("plain tick");
    assert_eq!(rebuilds(), warm + 1);
}
