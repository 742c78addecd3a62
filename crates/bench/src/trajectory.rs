//! Bench-trajectory gate: diff current `BENCH_*.json` results against
//! archived baselines and fail on regressions beyond per-metric noise
//! budgets.
//!
//! Each `BENCH_*.json` at the workspace root is flattened to dotted
//! numeric paths (`durable.recovery.0.recover_wall_s`,
//! `obs.fleet.overhead_pct`, ...) and compared leaf-by-leaf against the
//! same file archived under `bench_history/`. A curated
//! [watchlist](default_policies) decides which paths *gate*: each
//! watched metric carries a direction
//! (lower/higher is better), a relative noise threshold sized to how
//! jittery the metric is on shared CI hosts (timing metrics get generous
//! budgets, deterministic accuracy metrics get tight ones), and an
//! absolute floor below which changes never count. Unwatched paths are
//! still reported — as [`MetricStatus::Drift`] when they move — but never
//! fail the gate, so adding fields to a bench JSON is cheap while
//! regressing a watched latency is loud.
//!
//! The `bench_compare` binary drives this module: it emits
//! `BENCH_trajectory.json` and exits non-zero when any gated metric
//! regressed beyond budget.

use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// Which way a watched metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, overheads, error rates: up is a regression.
    LowerIsBetter,
    /// Throughputs, speedups, pass booleans: down is a regression.
    HigherIsBetter,
}

/// One watchlist entry: a dotted-path pattern plus the noise budget that
/// separates drift from regression.
#[derive(Debug, Clone)]
pub struct MetricPolicy {
    /// Dotted path pattern; `*` matches exactly one segment
    /// (`fleet.results.*.speedup` matches every fleet size's speedup).
    pub pattern: &'static str,
    /// Which direction is good.
    pub direction: Direction,
    /// Relative change (vs. the baseline's magnitude) above which a
    /// bad-direction move is a regression. `0.5` = 50%.
    pub rel_threshold: f64,
    /// Absolute change below which the move never counts, whatever the
    /// relative looks like — keeps near-zero baselines (an overhead of
    /// 0.3%) from turning scheduler jitter into a 300% "regression".
    pub abs_floor: f64,
}

impl MetricPolicy {
    const fn new(
        pattern: &'static str,
        direction: Direction,
        rel_threshold: f64,
        abs_floor: f64,
    ) -> Self {
        MetricPolicy {
            pattern,
            direction,
            rel_threshold,
            abs_floor,
        }
    }

    /// Whether this policy's pattern matches a flattened dotted path.
    pub fn matches(&self, path: &str) -> bool {
        let mut want = self.pattern.split('.');
        let mut have = path.split('.');
        loop {
            match (want.next(), have.next()) {
                (None, None) => return true,
                (Some(w), Some(h)) => {
                    if w != "*" && w != h {
                        return false;
                    }
                }
                _ => return false,
            }
        }
    }
}

/// The curated gate watchlist for the workspace's `BENCH_*.json` files.
/// Paths are namespaced by file stem (`BENCH_serve.json` → `serve.`).
///
/// Threshold philosophy: wall-clock metrics on shared hosts are noisy, so
/// their budgets are wide (30–100%) and exist to catch order-of-magnitude
/// pathologies, not 10% wobbles; deterministic metrics (MAE, bit-identity
/// booleans, allocation counts) are tight because any motion there is a
/// real code change.
pub fn default_policies() -> Vec<MetricPolicy> {
    use Direction::{HigherIsBetter, LowerIsBetter};
    vec![
        // obs: the zero-overhead-when-off contract.
        MetricPolicy::new("obs.fleet.overhead_pct", LowerIsBetter, 1.0, 3.0),
        MetricPolicy::new(
            "obs.scenario_reports_bit_identical",
            HigherIsBetter,
            0.5,
            0.0,
        ),
        MetricPolicy::new("obs.adapt_sessions_bit_identical", HigherIsBetter, 0.5, 0.0),
        // fleet: serving throughput floors.
        MetricPolicy::new(
            "fleet.results.*.batched_cells_per_sec",
            HigherIsBetter,
            0.5,
            0.0,
        ),
        MetricPolicy::new(
            "fleet.results.*.engine_process_cells_per_sec",
            HigherIsBetter,
            0.5,
            0.0,
        ),
        MetricPolicy::new("fleet.results.*.speedup", HigherIsBetter, 0.5, 1.0),
        // simd: kernel speedups over scalar.
        MetricPolicy::new(
            "simd.forward.simd_speedup_vs_scalar",
            HigherIsBetter,
            0.4,
            0.3,
        ),
        MetricPolicy::new(
            "simd.forward.gemm_simd_speedup_vs_scalar",
            HigherIsBetter,
            0.4,
            0.3,
        ),
        // durable: WAL hot-path overhead and recovery wall time.
        MetricPolicy::new("durable.wal.hot_overhead_pct", LowerIsBetter, 1.0, 5.0),
        MetricPolicy::new("durable.recovery.*.recover_wall_s", LowerIsBetter, 2.0, 0.5),
        MetricPolicy::new("durable.crash_loop_bit_identical", HigherIsBetter, 0.5, 0.0),
        // train: the zero-allocation step contract is deterministic.
        MetricPolicy::new(
            "train.step_allocations.*.engine_per_step",
            LowerIsBetter,
            0.1,
            0.5,
        ),
        // Accuracy: deterministic, so tight budgets. The adapted model
        // must keep beating the frozen one by roughly the recorded margin.
        MetricPolicy::new(
            "adapt.scenarios.*.adapted_network_mae",
            LowerIsBetter,
            0.10,
            0.002,
        ),
        MetricPolicy::new(
            "scenarios.scenarios.*.result.best.mae",
            LowerIsBetter,
            0.10,
            0.002,
        ),
    ]
}

/// What happened to one flattened metric between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MetricStatus {
    /// Watched, moved in the good direction beyond its noise budget.
    Improved,
    /// Present in both and within noise (watched or not).
    Flat,
    /// Unwatched but moved — reported, never gates.
    Drift,
    /// Watched and moved in the bad direction beyond its noise budget.
    Regressed,
    /// Present only in the current results.
    Added,
    /// Present only in the baseline.
    Removed,
}

/// One metric's comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct MetricDelta {
    /// Flattened dotted path, namespaced by file stem.
    pub path: String,
    /// Baseline value (absent for [`MetricStatus::Added`]).
    pub baseline: Option<f64>,
    /// Current value (absent for [`MetricStatus::Removed`]).
    pub current: Option<f64>,
    /// Relative change in percent, when both sides exist and the baseline
    /// is non-zero.
    pub rel_change_pct: Option<f64>,
    /// Verdict.
    pub status: MetricStatus,
    /// Whether a watchlist policy governs this path (only gated paths can
    /// be `Regressed` or `Improved`).
    pub gated: bool,
}

/// Comparison of one `BENCH_*.json` against its archived baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FileTrajectory {
    /// File name (`BENCH_serve.json`).
    pub file: String,
    /// Metrics present in both sides.
    pub compared: usize,
    /// Gated regressions in this file.
    pub regressed: usize,
    /// Gated improvements.
    pub improved: usize,
    /// Current-only metrics.
    pub added: usize,
    /// Baseline-only metrics.
    pub removed: usize,
    /// Every non-[`Flat`](MetricStatus::Flat) row, regressions first.
    pub deltas: Vec<MetricDelta>,
}

/// The full gate verdict across every bench file, written as
/// `BENCH_trajectory.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TrajectoryReport {
    /// Short git revision of the compared tree.
    pub git_rev: String,
    /// Per-file comparisons.
    pub files: Vec<FileTrajectory>,
    /// Total gated regressions — non-zero fails CI.
    pub gated_regressions: usize,
}

impl TrajectoryReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.gated_regressions == 0
    }
}

/// Flattens every numeric (and boolean, as 0/1) leaf of a JSON tree into
/// `prefix.path.to.leaf → f64`, skipping `host` metadata subtrees and
/// string leaves (descriptions, labels, git revisions).
pub fn flatten_numeric(value: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::Number(_) => {
            if let Some(x) = value.as_f64() {
                out.insert(prefix.to_string(), x);
            }
        }
        Value::Bool(b) => {
            out.insert(prefix.to_string(), if *b { 1.0 } else { 0.0 });
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten_numeric(item, &format!("{prefix}.{i}"), out);
            }
        }
        Value::Object(entries) => {
            for (key, item) in entries {
                // Host metadata (thread counts, kernel paths, git revs)
                // legitimately differs across machines and commits.
                if key == "host" {
                    continue;
                }
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_numeric(item, &path, out);
            }
        }
        Value::Null | Value::String(_) => {}
    }
}

/// Relative-change tolerance under which two values are the same metric
/// reading (covers float formatting round-trips).
const FLAT_EPS: f64 = 1e-9;

fn classify(
    path: &str,
    baseline: f64,
    current: f64,
    policies: &[MetricPolicy],
) -> (MetricStatus, bool, Option<f64>) {
    let abs_change = current - baseline;
    let rel_change = if baseline.abs() > 0.0 {
        abs_change / baseline.abs()
    } else if abs_change == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(abs_change)
    };
    let rel_pct = rel_change.is_finite().then_some(rel_change * 100.0);
    let Some(policy) = policies.iter().find(|p| p.matches(path)) else {
        let status = if rel_change.abs() <= FLAT_EPS && abs_change.abs() <= FLAT_EPS {
            MetricStatus::Flat
        } else {
            MetricStatus::Drift
        };
        return (status, false, rel_pct);
    };
    let worse = match policy.direction {
        Direction::LowerIsBetter => abs_change > 0.0,
        Direction::HigherIsBetter => abs_change < 0.0,
    };
    let beyond = rel_change.abs() > policy.rel_threshold && abs_change.abs() > policy.abs_floor;
    let status = if !beyond {
        MetricStatus::Flat
    } else if worse {
        MetricStatus::Regressed
    } else {
        MetricStatus::Improved
    };
    (status, true, rel_pct)
}

/// Compares one bench file's flattened metrics against its baseline.
/// `stem` namespaces the paths (`serve`, `obs`, ...); `file` is the
/// reported file name.
pub fn compare_file(
    file: &str,
    stem: &str,
    baseline: &Value,
    current: &Value,
    policies: &[MetricPolicy],
) -> FileTrajectory {
    let mut base = BTreeMap::new();
    let mut cur = BTreeMap::new();
    flatten_numeric(baseline, stem, &mut base);
    flatten_numeric(current, stem, &mut cur);

    let mut deltas = Vec::new();
    let mut compared = 0;
    let mut regressed = 0;
    let mut improved = 0;
    let mut added = 0;
    let mut removed = 0;
    for (path, &b) in &base {
        match cur.get(path) {
            Some(&c) => {
                compared += 1;
                let (status, gated, rel_pct) = classify(path, b, c, policies);
                match status {
                    MetricStatus::Regressed => regressed += 1,
                    MetricStatus::Improved => improved += 1,
                    _ => {}
                }
                if status != MetricStatus::Flat {
                    deltas.push(MetricDelta {
                        path: path.clone(),
                        baseline: Some(b),
                        current: Some(c),
                        rel_change_pct: rel_pct,
                        status,
                        gated,
                    });
                }
            }
            None => {
                removed += 1;
                deltas.push(MetricDelta {
                    path: path.clone(),
                    baseline: Some(b),
                    current: None,
                    rel_change_pct: None,
                    status: MetricStatus::Removed,
                    gated: false,
                });
            }
        }
    }
    for (path, &c) in &cur {
        if !base.contains_key(path) {
            added += 1;
            deltas.push(MetricDelta {
                path: path.clone(),
                baseline: None,
                current: Some(c),
                rel_change_pct: None,
                status: MetricStatus::Added,
                gated: false,
            });
        }
    }
    // Regressions first, then improvements, then churn.
    deltas.sort_by_key(|d| match d.status {
        MetricStatus::Regressed => 0,
        MetricStatus::Improved => 1,
        MetricStatus::Drift => 2,
        MetricStatus::Added => 3,
        MetricStatus::Removed => 4,
        MetricStatus::Flat => 5,
    });
    FileTrajectory {
        file: file.to_string(),
        compared,
        regressed,
        improved,
        added,
        removed,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        )
    }

    fn num(x: f64) -> Value {
        Value::Number(serde_json::Number::Float(x))
    }

    /// A `BENCH_durable.json` body with one recovery row.
    fn recovery(wall_s: f64) -> Value {
        obj(&[(
            "recovery",
            Value::Array(vec![obj(&[("recover_wall_s", num(wall_s))])]),
        )])
    }

    #[test]
    fn pattern_matching_is_segment_wise() {
        let p = MetricPolicy::new("serve.shapes.*.p99_s", Direction::LowerIsBetter, 0.5, 0.0);
        assert!(p.matches("serve.shapes.0.p99_s"));
        assert!(p.matches("serve.shapes.17.p99_s"));
        assert!(!p.matches("serve.shapes.0.p50_s"));
        assert!(!p.matches("serve.shapes.p99_s"));
        assert!(!p.matches("serve.shapes.0.extra.p99_s"));
    }

    #[test]
    fn flatten_skips_host_and_strings_keeps_bools() {
        let doc = obj(&[
            ("description", Value::String("text".into())),
            ("host", obj(&[("threads", num(8.0))])),
            ("ok", Value::Bool(true)),
            ("nested", obj(&[("x", num(2.5))])),
            ("arr", Value::Array(vec![num(1.0), num(2.0)])),
        ]);
        let mut out = BTreeMap::new();
        flatten_numeric(&doc, "t", &mut out);
        assert_eq!(out.get("t.ok"), Some(&1.0));
        assert_eq!(out.get("t.nested.x"), Some(&2.5));
        assert_eq!(out.get("t.arr.1"), Some(&2.0));
        assert!(!out.keys().any(|k| k.contains("host")));
        assert!(!out.keys().any(|k| k.contains("description")));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let baseline = recovery(1.0);
        // Recovery wall time blows up 10×: far beyond the 200% budget and
        // the 0.5 s floor.
        let current = recovery(10.0);
        let t = compare_file(
            "BENCH_durable.json",
            "durable",
            &baseline,
            &current,
            &default_policies(),
        );
        assert_eq!(t.regressed, 1, "the injected recovery regression must gate");
        let delta = &t.deltas[0];
        assert_eq!(delta.status, MetricStatus::Regressed);
        assert!(delta.gated);
        assert_eq!(delta.path, "durable.recovery.0.recover_wall_s");
    }

    #[test]
    fn improvement_and_noise_do_not_gate() {
        // Twice as slow, and past the 0.5 s floor: within the 200% noise
        // budget.
        let t = compare_file(
            "f",
            "durable",
            &recovery(1.0),
            &recovery(2.0),
            &default_policies(),
        );
        assert_eq!(t.regressed, 0);
        // A watched speedup more than doubling: improvement, not failure.
        let base_speed = obj(&[("forward", obj(&[("simd_speedup_vs_scalar", num(1.9))]))]);
        let fast = obj(&[("forward", obj(&[("simd_speedup_vs_scalar", num(4.2))]))]);
        let t = compare_file("f", "simd", &base_speed, &fast, &default_policies());
        assert_eq!(t.regressed, 0);
        assert_eq!(t.improved, 1);
    }

    #[test]
    fn abs_floor_suppresses_relative_blowups_near_zero() {
        // overhead_pct 0.1 → 2.9: +2800% relative but under the 3-point
        // absolute floor — scheduler jitter, not a regression.
        let baseline = obj(&[("fleet", obj(&[("overhead_pct", num(0.1))]))]);
        let current = obj(&[("fleet", obj(&[("overhead_pct", num(2.9))]))]);
        let t = compare_file("f", "obs", &baseline, &current, &default_policies());
        assert_eq!(t.regressed, 0);
        // 0.1 → 8.0 clears both the relative budget and the floor.
        let bad = obj(&[("fleet", obj(&[("overhead_pct", num(8.0))]))]);
        let t = compare_file("f", "obs", &baseline, &bad, &default_policies());
        assert_eq!(t.regressed, 1);
    }

    #[test]
    fn bit_identity_flip_gates() {
        let baseline = obj(&[("crash_loop_bit_identical", Value::Bool(true))]);
        let current = obj(&[("crash_loop_bit_identical", Value::Bool(false))]);
        let t = compare_file("f", "durable", &baseline, &current, &default_policies());
        assert_eq!(t.regressed, 1, "a bit-identity flip must gate");
    }

    #[test]
    fn added_and_removed_are_reported_not_gated() {
        let baseline = obj(&[("old_metric", num(1.0)), ("kept", num(2.0))]);
        let current = obj(&[("new_metric", num(3.0)), ("kept", num(2.0))]);
        let t = compare_file("f", "x", &baseline, &current, &default_policies());
        assert_eq!(t.regressed, 0);
        assert_eq!(t.added, 1);
        assert_eq!(t.removed, 1);
        assert_eq!(t.compared, 1);
        assert!(t
            .deltas
            .iter()
            .any(|d| d.status == MetricStatus::Added && d.path == "x.new_metric"));
        assert!(t
            .deltas
            .iter()
            .any(|d| d.status == MetricStatus::Removed && d.path == "x.old_metric"));
    }

    #[test]
    fn unwatched_drift_is_visible_but_never_fails() {
        let baseline = obj(&[("ring_capacity", num(131072.0))]);
        let current = obj(&[("ring_capacity", num(262144.0))]);
        let t = compare_file("f", "serve", &baseline, &current, &default_policies());
        assert_eq!(t.regressed, 0);
        assert_eq!(t.deltas[0].status, MetricStatus::Drift);
        assert!(!t.deltas[0].gated);
    }
}
