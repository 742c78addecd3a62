//! The tier's burn-rate SLO engine through a full alerting cycle:
//! healthy traffic, a sustained backpressure flood, then recovery; and the
//! latency SLO's count of timed frames at the attach.

use pinnsoc_fleet::testing::untrained_model;
use pinnsoc_fleet::{CellConfig, FleetConfig, Telemetry};
use pinnsoc_obs::{AlertState, ObsHub, SloSpec};
use pinnsoc_serve::{ServeConfig, ServeTier, SloConfig};

const CELLS: u64 = 1_024;
const ENGINES: usize = 2;
/// Per engine: room for one report per cell with margin for the
/// router's imbalance, so healthy ticks see no backpressure.
const RING_CAPACITY: usize = 1_024;

fn feed(step: u64, id: u64) -> Telemetry {
    Telemetry {
        time_s: step as f64 * 10.0,
        voltage_v: 3.5 + 0.01 * ((id % 7) as f64) + 0.001 * (step as f64),
        current_a: 0.8 + 0.05 * ((id % 3) as f64),
        temperature_c: 25.0 + 0.1 * ((id % 11) as f64),
    }
}

/// A plain tier with `CELLS` registered cells.
fn tier() -> ServeTier {
    let mut tier = ServeTier::new(
        untrained_model(),
        ServeConfig {
            engines: ENGINES,
            ring_capacity: RING_CAPACITY,
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

/// The delivery SLO must escalate to `page` during the flood (several
/// ring-loads offered per tick, so most frames are refused) and drain
/// back to `ok` with slow-window hysteresis.
#[test]
fn backpressure_flood_pages_delivery_then_recovers() {
    let mut tier = tier();
    // Short windows so the cycle resolves in a few dozen ticks.
    let fast = 2;
    let slow = 8;
    let hub = ObsHub::new();
    tier.attach_obs(&hub);
    tier.attach_slo(
        &hub,
        SloConfig {
            latency_threshold_s: 0.5,
            latency: SloSpec {
                fast_window: fast,
                slow_window: slow,
                ..SloSpec::latency_default()
            },
            delivery: SloSpec {
                fast_window: fast,
                slow_window: slow,
                ..SloSpec::delivery_default()
            },
        },
    );
    let handle = tier.handle();
    let mut step = 0u64;
    let mut drive = |tier: &mut ServeTier, ticks: usize, bursts: u64| {
        for _ in 0..ticks {
            for _ in 0..bursts {
                step += 1;
                for id in 0..CELLS {
                    handle.ingest(id, feed(step, id));
                }
            }
            tier.tick().expect("plain tick");
        }
    };
    // Enough ring-loads per tick that most offered frames are refused.
    let flood_bursts = (2 * RING_CAPACITY as u64 * ENGINES as u64 / CELLS).max(2);
    drive(&mut tier, 6, 1);
    drive(&mut tier, 6, flood_bursts);
    drive(&mut tier, 2 * slow, 1);

    let report = tier.slo_report().expect("slo attached");
    let delivery = report
        .slos
        .iter()
        .find(|s| s.spec.name == "delivery")
        .expect("delivery slo");
    assert!(
        delivery
            .transitions
            .iter()
            .any(|t| t.to == AlertState::Page),
        "the backpressure flood must page the delivery SLO"
    );
    assert_eq!(
        delivery.final_state,
        AlertState::Ok,
        "recovery ticks must drain the delivery SLO back to ok"
    );
    assert!(delivery.worst_fast_burn > delivery.spec.page_burn);
}

/// The latency SLO counts only frames it timed: frames enqueued before
/// `attach_slo` carry no enqueue instant and are neither good nor bad.
/// With a zero threshold every timed frame is late, so the one tick's
/// fast burn is the whole budget's inverse.
#[test]
fn latency_slo_counts_only_frames_enqueued_after_the_attach() {
    let mut tier = tier();
    let handle = tier.handle();
    for id in 0..CELLS / 2 {
        assert!(handle.ingest(id, feed(1, id)).enqueued());
    }
    tier.attach_slo(
        &ObsHub::new(),
        SloConfig {
            latency_threshold_s: 0.0,
            ..SloConfig::default()
        },
    );
    for id in 0..CELLS / 4 {
        assert!(handle.ingest(id, feed(2, id)).enqueued());
    }
    let report = tier.tick().expect("plain tick");
    assert_eq!(report.drained as u64, CELLS / 2 + CELLS / 4);

    let slo = tier.slo_report().expect("slo attached");
    let latency = slo
        .slos
        .iter()
        .find(|s| s.spec.name == "latency")
        .expect("latency slo");
    assert_eq!(latency.worst_fast_burn, 1.0 / latency.spec.budget);
}
