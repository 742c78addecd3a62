//! Multi-window burn-rate SLO tracking with an ok → warning → page alert
//! state machine.
//!
//! An SLO is "at most `budget` of events may be bad". The tracker keeps
//! two rolling windows over per-tick good/bad counts — a *fast* window
//! that reacts within a few ticks and a *slow* window that filters
//! transients — and computes each window's **burn rate**: the observed
//! bad fraction divided by the budget. Burn 1.0 means the budget is being
//! consumed exactly as fast as allowed; burn 10 means ten times too fast.
//!
//! The classic multi-window rule: an alert level is reached only when
//! **both** windows burn at or above its threshold — the fast window
//! proves the problem is happening *now*, the slow window proves it is not
//! a blip. Recovery is governed by the slow window alone: a level is left
//! only once the slow burn drops below its threshold, and then to the
//! level the slow burn still supports. That is the hysteresis: a paging
//! SLO stays paged until the slow window has genuinely drained, however
//! quickly the fast window clears.
//!
//! The serve tier feeds one tracker per SLO
//! ([latency](https://sre.google/workbook/alerting-on-slos/)-style:
//! bad = estimate latency over threshold; delivery-style: bad = frames
//! refused by backpressure) and surfaces the state as gauges, ring
//! events, and `/healthz` detail.

use serde::Serialize;
use std::collections::VecDeque;

/// Alert level of one SLO, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// No alert: never escalated, or the slow window has drained below
    /// the warn threshold.
    Ok,
    /// Escalated when both windows burned at ≥ the warn threshold; held
    /// while the slow window stays at or above it.
    Warning,
    /// Escalated when both windows burned at ≥ the page threshold; held
    /// while the slow window stays at or above it.
    Page,
}

impl AlertState {
    /// Stable lowercase name (gauge values map Ok=0, Warning=1, Page=2).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Page => "page",
        }
    }

    /// Numeric severity for gauges: 0 = ok, 1 = warning, 2 = page.
    pub fn severity(&self) -> f64 {
        match self {
            AlertState::Ok => 0.0,
            AlertState::Warning => 1.0,
            AlertState::Page => 2.0,
        }
    }
}

// Serialized as the stable lowercase name (manual: the vendored derive
// keeps Rust variant casing).
impl Serialize for AlertState {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.as_str().to_string())
    }
}

/// Static definition of one SLO: its error budget and the two alerting
/// windows with their burn thresholds.
#[derive(Debug, Clone, Serialize)]
pub struct SloSpec {
    /// Short stable name (label value), e.g. `latency`, `delivery`.
    pub name: &'static str,
    /// Allowed bad fraction, in (0, 1] — e.g. `0.05` = "95% of estimates
    /// within the latency threshold".
    pub budget: f64,
    /// Fast window length in ticks (reacts quickly).
    pub fast_window: usize,
    /// Slow window length in ticks (filters transients); usually several
    /// times the fast window.
    pub slow_window: usize,
    /// Burn rate at or above which both windows trigger `Warning`.
    pub warn_burn: f64,
    /// Burn rate at or above which both windows trigger `Page`.
    pub page_burn: f64,
}

impl SloSpec {
    /// A latency-style SLO tuned for serve-tier tick cadence: 5% budget,
    /// 8-tick fast / 64-tick slow windows, warn at 2× burn, page at 10×.
    pub fn latency_default() -> Self {
        SloSpec {
            name: "latency",
            budget: 0.05,
            fast_window: 8,
            slow_window: 64,
            warn_burn: 2.0,
            page_burn: 10.0,
        }
    }

    /// A delivery-style SLO (backpressure/reject fraction): 1% budget,
    /// same windows, warn at 2× burn, page at 10×.
    pub fn delivery_default() -> Self {
        SloSpec {
            name: "delivery",
            budget: 0.01,
            fast_window: 8,
            slow_window: 64,
            warn_burn: 2.0,
            page_burn: 10.0,
        }
    }
}

/// One rolling window of per-tick (good, bad) counts with running sums.
#[derive(Debug)]
struct Window {
    len: usize,
    ticks: VecDeque<(u64, u64)>,
    good: u64,
    bad: u64,
}

impl Window {
    fn new(len: usize) -> Self {
        Window {
            len: len.max(1),
            ticks: VecDeque::new(),
            good: 0,
            bad: 0,
        }
    }

    fn push(&mut self, good: u64, bad: u64) {
        if self.ticks.len() == self.len {
            let (g, b) = self.ticks.pop_front().expect("non-empty at capacity");
            self.good -= g;
            self.bad -= b;
        }
        self.ticks.push_back((good, bad));
        self.good += good;
        self.bad += bad;
    }

    /// Observed bad fraction over the window; 0 when no events landed
    /// (an idle window is healthy, not unknown).
    fn bad_fraction(&self) -> f64 {
        let total = self.good + self.bad;
        if total == 0 {
            0.0
        } else {
            self.bad as f64 / total as f64
        }
    }
}

/// One recorded ok → warning → page (or back) transition.
#[derive(Debug, Clone, Serialize)]
pub struct SloTransition {
    /// Tick index at which the transition happened (caller-supplied).
    pub tick: u64,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// Point-in-time status of one tracker, for `/healthz` detail and bench
/// output.
#[derive(Debug, Clone, Serialize)]
pub struct SloStatus {
    /// The SLO's name.
    pub name: &'static str,
    /// Current alert state.
    pub state: AlertState,
    /// Current fast-window burn rate.
    pub fast_burn: f64,
    /// Current slow-window burn rate.
    pub slow_burn: f64,
}

/// Rolling burn-rate tracker for one SLO.
#[derive(Debug)]
pub struct SloTracker {
    spec: SloSpec,
    fast: Window,
    slow: Window,
    state: AlertState,
    worst_fast_burn: f64,
    transitions: Vec<SloTransition>,
}

/// Cap on retained transitions — a flapping SLO must not grow memory
/// unboundedly; the latest transitions are the interesting ones, so the
/// oldest is dropped first.
const MAX_TRANSITIONS: usize = 256;

impl SloTracker {
    /// Builds a tracker from its spec.
    pub fn new(spec: SloSpec) -> Self {
        let fast = Window::new(spec.fast_window);
        let slow = Window::new(spec.slow_window);
        SloTracker {
            spec,
            fast,
            slow,
            state: AlertState::Ok,
            worst_fast_burn: 0.0,
            transitions: Vec::new(),
        }
    }

    /// The spec this tracker enforces.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Feeds one tick's good/bad counts and re-evaluates the alert state.
    /// Returns the transition if the state changed.
    pub fn observe(&mut self, tick: u64, good: u64, bad: u64) -> Option<SloTransition> {
        self.fast.push(good, bad);
        self.slow.push(good, bad);
        let fast_burn = self.fast_burn();
        let slow_burn = self.slow_burn();
        self.worst_fast_burn = self.worst_fast_burn.max(fast_burn);
        // Escalate to the level both windows reach (min() is the burn both
        // are at or above); otherwise hold the current level until the
        // slow window alone drops below it.
        let escalated = self.level(fast_burn.min(slow_burn));
        let next = escalated.max(self.state.min(self.level(slow_burn)));
        if next == self.state {
            return None;
        }
        let transition = SloTransition {
            tick,
            from: self.state,
            to: next,
            fast_burn,
            slow_burn,
        };
        self.state = next;
        if self.transitions.len() == MAX_TRANSITIONS {
            self.transitions.remove(0);
        }
        self.transitions.push(transition.clone());
        Some(transition)
    }

    /// The highest level whose threshold `burn` reaches.
    fn level(&self, burn: f64) -> AlertState {
        if burn >= self.spec.page_burn {
            AlertState::Page
        } else if burn >= self.spec.warn_burn {
            AlertState::Warning
        } else {
            AlertState::Ok
        }
    }

    /// Current alert state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Current fast-window burn rate (bad fraction ÷ budget).
    pub fn fast_burn(&self) -> f64 {
        self.fast.bad_fraction() / self.spec.budget
    }

    /// Current slow-window burn rate.
    pub fn slow_burn(&self) -> f64 {
        self.slow.bad_fraction() / self.spec.budget
    }

    /// Highest fast-window burn rate ever observed.
    pub fn worst_fast_burn(&self) -> f64 {
        self.worst_fast_burn
    }

    /// The latest 256 state transitions, oldest first.
    pub fn transitions(&self) -> &[SloTransition] {
        &self.transitions
    }

    /// Point-in-time status snapshot.
    pub fn status(&self) -> SloStatus {
        SloStatus {
            name: self.spec.name,
            state: self.state,
            fast_burn: self.fast_burn(),
            slow_burn: self.slow_burn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(fast: usize, slow: usize) -> SloSpec {
        SloSpec {
            name: "test",
            budget: 0.1,
            fast_window: fast,
            slow_window: slow,
            warn_burn: 2.0,
            page_burn: 8.0,
        }
    }

    #[test]
    fn idle_windows_burn_zero() {
        let mut t = SloTracker::new(spec(4, 16));
        assert_eq!(t.state(), AlertState::Ok);
        assert_eq!(t.fast_burn(), 0.0);
        assert!(t.observe(0, 0, 0).is_none());
        assert_eq!(t.state(), AlertState::Ok);
    }

    #[test]
    fn healthy_traffic_stays_ok() {
        let mut t = SloTracker::new(spec(4, 16));
        for tick in 0..100 {
            // 5% bad with a 10% budget → burn 0.5, below warn.
            assert!(t.observe(tick, 95, 5).is_none());
        }
        assert_eq!(t.state(), AlertState::Ok);
        assert!((t.fast_burn() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sustained_burn_escalates_then_recovers_with_hysteresis() {
        let mut t = SloTracker::new(spec(2, 8));
        // 100% bad, budget 0.1 → burn 10 ≥ page threshold 8. The fast
        // window saturates after 2 ticks; the slow window needs enough
        // mass for its burn to cross too.
        let mut fired = Vec::new();
        for tick in 0..8 {
            if let Some(tr) = t.observe(tick, 0, 100) {
                fired.push(tr);
            }
        }
        assert_eq!(t.state(), AlertState::Page);
        assert!(!fired.is_empty());
        assert_eq!(fired.last().expect("fired").to, AlertState::Page);
        // Recovery: perfect traffic clears the fast window almost
        // immediately, but the state only leaves Page once the *slow*
        // window's burn drops below the page threshold (hysteresis).
        let mut page_ticks = 0;
        for tick in 8..32 {
            let before = t.state();
            t.observe(tick, 100, 0);
            if before == AlertState::Page {
                page_ticks += 1;
            }
            if t.state() == AlertState::Ok {
                break;
            }
        }
        assert_eq!(t.state(), AlertState::Ok);
        assert!(
            page_ticks >= 1,
            "page state must persist at least one clean tick (slow window drains gradually)"
        );
    }

    #[test]
    fn short_blip_does_not_page() {
        let mut t = SloTracker::new(spec(2, 16));
        for tick in 0..16 {
            t.observe(tick, 100, 0);
        }
        // One fully-bad tick: fast window burns hot but the slow window
        // stays cold, so both-windows agreement keeps the state Ok.
        assert!(t.observe(16, 0, 100).is_none());
        assert_eq!(t.state(), AlertState::Ok);
        assert!(t.fast_burn() >= t.spec().warn_burn);
        assert!(t.slow_burn() < t.spec().warn_burn);
    }

    #[test]
    fn transitions_record_tick_and_burns() {
        let mut t = SloTracker::new(spec(1, 2));
        t.observe(0, 0, 10);
        t.observe(1, 0, 10);
        let transitions = t.transitions();
        assert!(!transitions.is_empty());
        let last = transitions.last().expect("transition");
        assert_eq!(last.to, AlertState::Page);
        assert!(last.fast_burn >= 8.0);
        assert!(t.worst_fast_burn() >= 8.0);
    }

    #[test]
    fn transition_log_is_bounded() {
        let mut t = SloTracker::new(spec(1, 1));
        // Alternate fully-bad / fully-good to flap the state every tick.
        for tick in 0..2000u64 {
            if tick % 2 == 0 {
                t.observe(tick, 0, 100);
            } else {
                t.observe(tick, 100, 0);
            }
        }
        let transitions = t.transitions();
        assert_eq!(transitions.len(), MAX_TRANSITIONS);
        // The log keeps the latest transitions, oldest first.
        assert_eq!(transitions.last().expect("transition").tick, 1999);
        assert!(transitions.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    /// splitmix64: a seeded stream for the property tests below.
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

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn threshold(spec: &SloSpec, state: AlertState) -> f64 {
        match state {
            AlertState::Ok => 0.0,
            AlertState::Warning => spec.warn_burn,
            AlertState::Page => spec.page_burn,
        }
    }

    /// Random specs under random phased traffic (healthy, bursts of
    /// random badness, clean recovery): a page never clears while the slow
    /// burn is at the page threshold, every escalation is backed by both
    /// windows, and every de-escalation by the slow window dropping below
    /// the level left.
    #[test]
    fn seeded_hysteresis_invariants_hold() {
        let mut pages = 0;
        for seed in 0..64 {
            let mut rng = Stream(seed);
            let fast = 1 + rng.below(8) as usize;
            let warn_burn = 1.0 + 3.0 * rng.unit();
            let spec = SloSpec {
                name: "prop",
                budget: 0.01 + 0.2 * rng.unit(),
                fast_window: fast,
                slow_window: fast + rng.below(32) as usize,
                warn_burn,
                page_burn: warn_burn + 1.0 + 10.0 * rng.unit(),
            };
            let mut t = SloTracker::new(spec.clone());
            for tick in 0..600 {
                let volume = rng.below(200);
                let bad_frac = match (tick / 50) % 3 {
                    0 => 0.0,
                    1 => rng.unit(),
                    _ => 0.3 + 0.7 * rng.unit(),
                };
                let bad = (volume as f64 * bad_frac) as u64;
                let before = t.state();
                t.observe(tick, volume - bad, bad);
                let (state, fast_burn, slow_burn) = (t.state(), t.fast_burn(), t.slow_burn());
                pages += usize::from(state == AlertState::Page);
                let context = format!("seed {seed} tick {tick}: {before:?} -> {state:?}");
                if before == AlertState::Page && slow_burn >= spec.page_burn {
                    assert_eq!(state, AlertState::Page, "{context}");
                }
                if state > before {
                    assert!(
                        fast_burn.min(slow_burn) >= threshold(&spec, state),
                        "{context}"
                    );
                }
                if state < before {
                    assert!(slow_burn < threshold(&spec, before), "{context}");
                }
                assert!(slow_burn >= threshold(&spec, state), "{context}");
            }
        }
        assert!(pages > 0, "the traffic must exercise the page level");
    }

    /// One fully bad tick in steady traffic never pages, wherever it
    /// lands, as long as the slow window dilutes it below the page burn —
    /// which every spec here does (slow window × budget × page burn > 1).
    #[test]
    fn seeded_single_bad_tick_never_pages() {
        for seed in 0..64 {
            let mut rng = Stream(1000 + seed);
            let slow = 16 + rng.below(49) as usize;
            let spec = SloSpec {
                name: "prop",
                budget: 0.01 + 0.09 * rng.unit(),
                fast_window: 1 + rng.below(slow as u64) as usize,
                slow_window: slow,
                warn_burn: 2.0,
                page_burn: 10.0 + 20.0 * rng.unit(),
            };
            let volume = 50 + rng.below(100);
            let bad_tick = slow as u64 + rng.below(3 * slow as u64);
            let mut t = SloTracker::new(spec.clone());
            for tick in 0..bad_tick + 2 * slow as u64 {
                // Healthy ticks stay within budget (burn ≤ 1).
                let bad = if tick == bad_tick {
                    volume
                } else {
                    (volume as f64 * spec.budget * rng.unit()) as u64
                };
                t.observe(tick, volume - bad, bad);
                assert_ne!(t.state(), AlertState::Page, "seed {seed} tick {tick}");
            }
            // The fast window did see it: at least 1/fast of it was bad.
            assert!(t.worst_fast_burn() * spec.fast_window as f64 * spec.budget >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn severity_mapping_is_stable() {
        assert_eq!(AlertState::Ok.severity(), 0.0);
        assert_eq!(AlertState::Warning.severity(), 1.0);
        assert_eq!(AlertState::Page.severity(), 2.0);
        assert_eq!(AlertState::Page.as_str(), "page");
        assert!(AlertState::Ok < AlertState::Warning);
        assert!(AlertState::Warning < AlertState::Page);
    }
}
