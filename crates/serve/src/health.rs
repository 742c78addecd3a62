//! Live health and SLO state for the serve tier.
//!
//! Two pieces:
//!
//! - [`SloConfig`] / the tier's per-tick SLO feed: two
//!   [`SloTracker`]s — *latency* (ingest-to-estimate latency over
//!   [`SloConfig::latency_threshold_s`] counts as bad) and *delivery*
//!   (frames refused by ring backpressure or rejected as
//!   non-finite/time-reversed count as bad) — surfaced as
//!   `pinnsoc_serve_slo_*` gauges, ring events on every alert
//!   transition, and `/healthz` detail.
//! - [`HealthBoard`]: a small shared scoreboard the tier updates each
//!   tick (and on crash/recover), read by the HTTP plane through the
//!   [`HealthSource`] trait. The board is behind one mutex touched only
//!   by the tick loop's boundary update and probe reads — never by
//!   workers.
//!
//! Readiness semantics: a crashed-but-buffering lane **degrades** health
//! but does not fail readiness — its ring keeps accepting telemetry and
//! the other lanes keep serving, so routing traffic away entirely would
//! turn a partial outage into a total one. Readiness only drops when no
//! lane can serve. A paging SLO also reports not-ready: estimates are
//! flowing but violating their objective badly enough that a load
//! balancer should prefer a healthier replica.

use pinnsoc_obs::{
    AlertState, HealthReport, HealthSource, HealthStatus, MetricId, ObsHub, SloSpec, SloStatus,
    SloTracker, SloTransition,
};
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// SLO configuration for [`ServeTier::attach_slo`](crate::ServeTier::attach_slo).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Ingest-to-estimate latency above this is an SLO-bad event
    /// (seconds).
    pub latency_threshold_s: f64,
    /// The latency SLO (budget + windows + burn thresholds).
    pub latency: SloSpec,
    /// The delivery SLO over backpressure/reject fractions.
    pub delivery: SloSpec,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            latency_threshold_s: 0.05,
            latency: SloSpec::latency_default(),
            delivery: SloSpec::delivery_default(),
        }
    }
}

/// The tier's SLO engine: both trackers plus their exported gauges.
pub(crate) struct ServeSlo {
    pub hub: Arc<ObsHub>,
    pub config: SloConfig,
    pub latency: SloTracker,
    pub delivery: SloTracker,
    /// Cumulative backpressure already fed, so each tick feeds its delta.
    pub last_backpressure: u64,
    state_gauges: [MetricId; 2],
    fast_gauges: [MetricId; 2],
    slow_gauges: [MetricId; 2],
}

impl ServeSlo {
    pub fn new(hub: &Arc<ObsHub>, config: SloConfig, backpressure_base: u64) -> Self {
        let registry = hub.registry();
        let gauge = |name: &'static str, help: &'static str, slo: &'static str| {
            registry.gauge_with(name, help, &[("slo", slo)])
        };
        let per_slo = |name: &'static str, help: &'static str| {
            [gauge(name, help, "latency"), gauge(name, help, "delivery")]
        };
        ServeSlo {
            hub: Arc::clone(hub),
            latency: SloTracker::new(config.latency.clone()),
            delivery: SloTracker::new(config.delivery.clone()),
            config,
            last_backpressure: backpressure_base,
            state_gauges: per_slo(
                "pinnsoc_serve_slo_state",
                "Alert state (0=ok, 1=warning, 2=page)",
            ),
            fast_gauges: per_slo(
                "pinnsoc_serve_slo_fast_burn",
                "Fast-window burn rate (bad fraction / budget)",
            ),
            slow_gauges: per_slo(
                "pinnsoc_serve_slo_slow_burn",
                "Slow-window burn rate (bad fraction / budget)",
            ),
        }
    }

    /// Feeds one tick's events into both trackers, refreshes the gauges,
    /// and emits a ring event per alert transition.
    pub fn observe(&mut self, tick: u64, feeds: [(u64, u64); 2]) {
        let registry = self.hub.registry();
        let trackers = [&mut self.latency, &mut self.delivery];
        for (i, (tracker, (good, bad))) in trackers.into_iter().zip(feeds).enumerate() {
            let name = tracker.spec().name;
            if let Some(transition) = tracker.observe(tick, good, bad) {
                self.hub.emit(
                    "serve",
                    format!(
                        "slo {name}: {} -> {} at tick {tick} (fast burn {:.2}, slow burn {:.2})",
                        transition.from.as_str(),
                        transition.to.as_str(),
                        transition.fast_burn,
                        transition.slow_burn,
                    ),
                );
            }
            registry.set(self.state_gauges[i], tracker.state().severity());
            registry.set(self.fast_gauges[i], tracker.fast_burn());
            registry.set(self.slow_gauges[i], tracker.slow_burn());
        }
    }

    pub fn statuses(&self) -> Vec<SloStatus> {
        vec![self.latency.status(), self.delivery.status()]
    }
}

/// Serializable end-of-run SLO summary: window configuration, worst
/// observed burn, and every alert transition.
#[derive(Debug, Clone, Serialize)]
pub struct SloReport {
    /// The latency-bad threshold the run used (seconds).
    pub latency_threshold_s: f64,
    /// Per-SLO summaries.
    pub slos: Vec<SloSummary>,
}

/// One SLO's end-of-run summary.
#[derive(Debug, Clone, Serialize)]
pub struct SloSummary {
    /// Spec (name, budget, windows, thresholds).
    pub spec: SloSpec,
    /// Final alert state.
    pub final_state: AlertState,
    /// Highest fast-window burn observed during the run.
    pub worst_fast_burn: f64,
    /// Every alert transition, in order.
    pub transitions: Vec<SloTransition>,
}

impl SloSummary {
    pub(crate) fn of(tracker: &SloTracker) -> Self {
        SloSummary {
            spec: tracker.spec().clone(),
            final_state: tracker.state(),
            worst_fast_burn: tracker.worst_fast_burn(),
            transitions: tracker.transitions().to_vec(),
        }
    }
}

/// One lane's state as the board last saw it.
#[derive(Debug, Clone, Serialize)]
pub struct LaneHealth {
    /// Lane index.
    pub engine: usize,
    /// Whether the lane's engine is serving.
    pub up: bool,
    /// Frames buffered in the lane's ring (a down lane keeps buffering).
    pub buffered: usize,
}

#[derive(Debug, Default)]
struct BoardInner {
    tick: u64,
    lanes: Vec<LaneHealth>,
    slos: Vec<SloStatus>,
}

/// Shared live-health scoreboard: written by the tier at tick boundaries
/// and on crash/recover, read by the HTTP plane's `/healthz`+`/readyz`.
#[derive(Debug)]
pub struct HealthBoard {
    inner: Mutex<BoardInner>,
}

/// The JSON document embedded as `/healthz` detail. Owned (the vendored
/// serde derive has no lifetime support) — built on the cold probe path.
#[derive(Debug, Serialize)]
struct HealthDetail {
    tick: u64,
    lanes_up: usize,
    lanes: Vec<LaneHealth>,
    slos: Vec<SloStatus>,
}

impl HealthBoard {
    /// A board with `engines` lanes, all initially up.
    pub fn new(engines: usize) -> Arc<Self> {
        Arc::new(HealthBoard {
            inner: Mutex::new(BoardInner {
                tick: 0,
                lanes: (0..engines)
                    .map(|engine| LaneHealth {
                        engine,
                        up: true,
                        buffered: 0,
                    })
                    .collect(),
                slos: Vec::new(),
            }),
        })
    }

    pub(crate) fn update(&self, tick: u64, lanes: Vec<LaneHealth>, slos: Vec<SloStatus>) {
        let mut inner = self.inner.lock().expect("health board poisoned");
        inner.tick = tick;
        inner.lanes = lanes;
        inner.slos = slos;
    }

    pub(crate) fn set_lane_up(&self, engine: usize, up: bool) {
        let mut inner = self.inner.lock().expect("health board poisoned");
        if let Some(lane) = inner.lanes.get_mut(engine) {
            lane.up = up;
        }
    }

    /// Lane states as of the last update.
    pub fn lanes(&self) -> Vec<LaneHealth> {
        self.inner
            .lock()
            .expect("health board poisoned")
            .lanes
            .clone()
    }
}

impl HealthSource for HealthBoard {
    fn health(&self) -> HealthReport {
        let inner = self.inner.lock().expect("health board poisoned");
        let lanes_up = inner.lanes.iter().filter(|l| l.up).count();
        let any_down = lanes_up < inner.lanes.len();
        let worst_slo = inner
            .slos
            .iter()
            .map(|s| s.state)
            .max()
            .unwrap_or(AlertState::Ok);
        let status = if lanes_up == 0 || worst_slo == AlertState::Page {
            HealthStatus::Page
        } else if any_down || worst_slo == AlertState::Warning {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        // A down-but-buffering lane degrades health; readiness holds as
        // long as anything serves and no SLO is paging.
        let ready = lanes_up > 0 && worst_slo != AlertState::Page;
        let detail = HealthDetail {
            tick: inner.tick,
            lanes_up,
            lanes: inner.lanes.clone(),
            slos: inner.slos.clone(),
        };
        let detail_json = serde_json::to_string(&detail).unwrap_or_else(|_| "{}".to_string());
        HealthReport {
            status,
            ready,
            detail_json,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_maps_lane_and_slo_state_to_health() {
        let board = HealthBoard::new(2);
        let report = board.health();
        assert_eq!(report.status, HealthStatus::Ok);
        assert!(report.ready);

        // One lane down: degraded but still ready.
        board.set_lane_up(1, false);
        let report = board.health();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.ready, "buffering lane must not fail readiness");
        let detail: serde_json::Value =
            serde_json::from_str(&report.detail_json).expect("detail JSON");
        assert_eq!(detail["lanes_up"], 1u64);
        assert_eq!(detail["lanes"][1]["up"].as_bool(), Some(false));

        // All lanes down: page + not ready.
        board.set_lane_up(0, false);
        let report = board.health();
        assert_eq!(report.status, HealthStatus::Page);
        assert!(!report.ready);

        // Recovery restores Ok.
        board.set_lane_up(0, true);
        board.set_lane_up(1, true);
        assert_eq!(board.health().status, HealthStatus::Ok);
    }

    #[test]
    fn paging_slo_pages_even_with_all_lanes_up() {
        let board = HealthBoard::new(1);
        let mut tracker = SloTracker::new(SloSpec {
            name: "latency",
            budget: 0.05,
            fast_window: 1,
            slow_window: 2,
            warn_burn: 2.0,
            page_burn: 10.0,
        });
        tracker.observe(1, 0, 100);
        tracker.observe(2, 0, 100);
        assert_eq!(tracker.state(), AlertState::Page);
        board.update(
            2,
            vec![LaneHealth {
                engine: 0,
                up: true,
                buffered: 0,
            }],
            vec![tracker.status()],
        );
        let report = board.health();
        assert_eq!(report.status, HealthStatus::Page);
        assert!(!report.ready);
        let detail: serde_json::Value =
            serde_json::from_str(&report.detail_json).expect("detail JSON");
        assert_eq!(detail["slos"][0]["state"], "page");
    }

    #[test]
    fn warning_slo_degrades_without_paging() {
        let board = HealthBoard::new(1);
        let mut tracker = SloTracker::new(SloSpec::latency_default());
        board.update(
            1,
            vec![LaneHealth {
                engine: 0,
                up: true,
                buffered: 3,
            }],
            vec![{
                // Drive to warning: burn between warn (2) and page (10)
                // in both windows. 5% budget, 25% bad → burn 5.
                for tick in 0..100 {
                    tracker.observe(tick, 75, 25);
                }
                assert_eq!(tracker.state(), AlertState::Warning);
                tracker.status()
            }],
        );
        let report = board.health();
        assert_eq!(report.status, HealthStatus::Degraded);
        assert!(report.ready);
    }
}
