//! Ingest-to-estimate latency as the tier records it: one histogram
//! observation per drained frame under steady, bursty and faulty traffic,
//! and none for frames enqueued before the obs hub was attached.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};
use pinnsoc_obs::{HistogramSnapshot, ObsHub, SampleValue};
use pinnsoc_scenario::{FaultChannel, FaultModel};
use pinnsoc_serve::{IngestHandle, ServeConfig, ServeTier};

const CELLS: u64 = 300;
const TICKS: usize = 8;
const LATENCY: &str = "pinnsoc_serve_ingest_latency_seconds";

fn feed(step: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: step as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (step as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

/// A two-engine plain tier with `CELLS` registered cells.
fn tier() -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: 2,
            // Holds a 3× burst with margin for the router's imbalance.
            ring_capacity: 1_024,
            fleet: FleetConfig {
                shards: 2,
                workers: 0,
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

fn latency_histogram(hub: &ObsHub) -> HistogramSnapshot {
    match hub.snapshot().metrics.find(LATENCY, &[]).map(|m| &m.value) {
        Some(SampleValue::Histogram(h)) => h.clone(),
        other => panic!("latency histogram: {other:?}"),
    }
}

/// Every drained frame lands in the latency histogram exactly once, and
/// none takes longer than the histogram's top bound of 1 s — a blocked
/// tick loop or an unbounded drain would.
#[test]
fn every_drained_frame_is_observed_once_and_none_above_one_second() {
    let mut tier = tier();
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    let handle = tier.handle();

    let mut offered = 0u64;
    let mut drained = 0u64;
    let mut rejected = 0u64;
    let mut run = |tier: &mut ServeTier, produce: &mut dyn FnMut(&IngestHandle, usize) -> u64| {
        for tick in 0..TICKS {
            offered += produce(&handle, tick);
            let report = tier.tick().expect("plain tick");
            drained += report.drained as u64;
            rejected += report.telemetry.rejected();
        }
    };

    // Steady: one report per cell per tick.
    let mut step = 0u64;
    run(&mut tier, &mut |handle, _| {
        step += 1;
        (0..CELLS).for_each(|id| assert!(handle.ingest(id, feed(step, id)).enqueued()));
        CELLS
    });
    // Bursty: every fourth tick delivers three reports per cell
    // (monotonic timestamps within the burst); the rest are idle.
    run(&mut tier, &mut |handle, tick| {
        if tick % 4 != 0 {
            return 0;
        }
        for _ in 0..3 {
            step += 1;
            (0..CELLS).for_each(|id| assert!(handle.ingest(id, feed(step, id)).enqueued()));
        }
        3 * CELLS
    });
    // Faulty: every report crosses a per-cell fault channel — noise,
    // dropouts, duplicates, reordering, clock jitter, NaN injection.
    let model = FaultModel {
        dropout: 0.02,
        duplicate: 0.03,
        reorder: 0.05,
        clock_jitter_s: 0.5,
        non_finite: 0.01,
        ..FaultModel::sensor_noise()
    };
    let mut channels: Vec<FaultChannel> = (0..CELLS)
        .map(|id| FaultChannel::new(model, 0x5E47E ^ id))
        .collect();
    let mut out = Vec::new();
    run(&mut tier, &mut |handle, _| {
        step += 1;
        let mut sent = 0;
        for id in 0..CELLS {
            out.clear();
            channels[id as usize].transmit(feed(step, id), &mut out);
            for &faulted in &out {
                assert!(handle.ingest(id, faulted).enqueued());
                sent += 1;
            }
        }
        sent
    });

    assert_eq!(drained, offered, "every offered frame fit its ring");
    assert!(rejected > 0, "the fault channel should trip engine rejects");
    let histogram = latency_histogram(&hub);
    assert_eq!(
        histogram.count, drained,
        "one latency observation per drained frame"
    );
    assert_eq!(histogram.bounds.last(), Some(&1.0));
    assert_eq!(
        histogram.counts.last(),
        Some(&0),
        "a frame took longer than 1 s from enqueue to publish"
    );
}

/// Producers start stamping frames at the attach, also through a handle
/// cloned before it: frames enqueued earlier drain in the same tick but
/// are not timed, and every frame enqueued after it is observed once.
#[test]
fn only_frames_enqueued_after_attach_obs_are_observed() {
    let mut tier = tier();
    let handle = tier.handle();
    let before = CELLS / 3;
    for id in 0..before {
        assert!(handle.ingest(id, feed(1, id)).enqueued());
    }
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    for id in 0..CELLS {
        assert!(handle.ingest(id, feed(2, id)).enqueued());
    }
    let report = tier.tick().expect("plain tick");
    assert_eq!(report.drained as u64, before + CELLS);
    assert_eq!(
        latency_histogram(&hub).count,
        CELLS,
        "exactly the frames enqueued after the attach are observed"
    );
}
