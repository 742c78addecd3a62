//! # pinnsoc-bench
//!
//! Experiment harness reproducing every figure and table of the paper's
//! evaluation (§V), plus the `*_baseline` bins that record the system's
//! costs in `BENCH_*.json` at the workspace root.
//!
//! Each experiment has a binary that regenerates the corresponding rows:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig3_sandia` | Fig. 3 — Sandia MAE across horizons and variants |
//! | `fig4_lg` | Fig. 4 — LG MAE across horizons and variants |
//! | `table1_comparison` | Table I — SoA comparison (MAE / memory / ops) |
//! | `fig5_rollout` | Fig. 5 — autoregressive full-discharge traces |
//!
//! Results are printed as text tables and written as JSON under `results/`.
//!
//! ## Measuring
//!
//! The baseline bins share one timing harness, [`measure`]: warm-up then
//! timed samples, reduced by the upper median (`sorted[len / 2]`) or the
//! minimum (kernel microbenches only), plus round-for-round interleaving
//! of two measured sides. [`fixtures`] holds the workloads several bins run:
//! the steady serving tick on the serving protocol constants and the
//! closed-loop adaptation session.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod measure;
pub mod trajectory;

use pinnsoc::{eval_prediction, train, PinnVariant, SocModel, TrainConfig};
use pinnsoc_data::SocDataset;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// The lab dataset behind [`demo_serving_model`]: the reduced Sandia
/// protocol (one NMC cell, one temperature, no noise). Also the
/// anti-forgetting replay source of the `adapt_baseline` online-adaptation
/// session — mixing *the same lab cycles the serving model trained on* into
/// every fine-tune is what keeps adaptation from trading lab accuracy for
/// drive-cycle accuracy.
pub fn demo_training_dataset() -> SocDataset {
    pinnsoc_data::generate_sandia(&pinnsoc_data::SandiaConfig {
        chemistries: vec![pinnsoc_battery::Chemistry::Nmc],
        ambient_temps_c: vec![25.0],
        cycles_per_condition: 1,
        noise: pinnsoc_data::NoiseConfig::none(),
        ..pinnsoc_data::SandiaConfig::default()
    })
}

/// The demo serving model used by the fleet/scenario walkthroughs and
/// `scenario_baseline`: a Branch-1-focused PINN trained on
/// [`demo_training_dataset`] at seed 7, deterministic and quick to train.
/// One definition keeps the example walkthroughs and the recorded
/// `BENCH_scenarios.json` numbers in lockstep; `smoke` shrinks the epoch
/// counts for CI gates.
pub fn demo_serving_model(smoke: bool) -> SocModel {
    let dataset = demo_training_dataset();
    let config = TrainConfig {
        b1_epochs: if smoke { 20 } else { 60 },
        b2_epochs: if smoke { 10 } else { 30 },
        batch_size: 16,
        ..TrainConfig::sandia(PinnVariant::pinn_all(&[120.0, 240.0]), 7)
    };
    train(&dataset, &config).0
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation of a slice (0 for a single element).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// MAE results of one variant across test horizons, over several seeds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantResult {
    /// Variant label ("No-PINN", "PINN-All", ...).
    pub label: String,
    /// Per-horizon MAE samples: key = horizon in seconds (stringified for
    /// JSON friendliness), value = one MAE per seed.
    pub mae_per_horizon: BTreeMap<String, Vec<f64>>,
}

impl VariantResult {
    /// Mean MAE at a horizon.
    pub fn mean_mae(&self, horizon_s: f64) -> f64 {
        mean(&self.mae_per_horizon[&horizon_key(horizon_s)])
    }

    /// Standard deviation of the MAE at a horizon.
    pub fn std_mae(&self, horizon_s: f64) -> f64 {
        std_dev(&self.mae_per_horizon[&horizon_key(horizon_s)])
    }
}

/// Canonical map key for a horizon.
pub fn horizon_key(horizon_s: f64) -> String {
    format!("{horizon_s:.0}")
}

/// Specification of a Fig. 3 / Fig. 4-style experiment.
pub struct HorizonSweep<'a> {
    /// Dataset (Sandia-like or LG-like).
    pub dataset: &'a SocDataset,
    /// Variants to compare (the six bars of each group).
    pub variants: Vec<PinnVariant>,
    /// Test horizons (the bar groups).
    pub test_horizons_s: Vec<f64>,
    /// Seeds to average over (the paper uses 5).
    pub seeds: Vec<u64>,
    /// Config factory: `(variant, seed) → TrainConfig`.
    pub make_config: fn(PinnVariant, u64) -> TrainConfig,
}

impl HorizonSweep<'_> {
    /// Trains every `(variant, seed)` pair (in parallel across scoped
    /// threads) and evaluates MAE at every test horizon.
    pub fn run(&self) -> Vec<VariantResult> {
        let jobs: Vec<(usize, PinnVariant, u64)> = self
            .variants
            .iter()
            .enumerate()
            .flat_map(|(vi, v)| self.seeds.iter().map(move |&s| (vi, v.clone(), s)))
            .collect();
        let results: Vec<(usize, Vec<(f64, f64)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|(vi, variant, seed)| {
                    let dataset = self.dataset;
                    let horizons = &self.test_horizons_s;
                    let make_config = self.make_config;
                    let variant = variant.clone();
                    let vi = *vi;
                    let seed = *seed;
                    scope.spawn(move || {
                        let config = make_config(variant, seed);
                        let (model, _) = train(dataset, &config);
                        let maes: Vec<(f64, f64)> = horizons
                            .iter()
                            .map(|&h| (h, eval_prediction(&model, &dataset.test, h).mae))
                            .collect();
                        (vi, maes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });

        let mut out: Vec<VariantResult> = self
            .variants
            .iter()
            .map(|v| VariantResult {
                label: v.to_string(),
                mae_per_horizon: BTreeMap::new(),
            })
            .collect();
        for (vi, maes) in results {
            for (h, mae) in maes {
                out[vi]
                    .mae_per_horizon
                    .entry(horizon_key(h))
                    .or_default()
                    .push(mae);
            }
        }
        out
    }
}

/// Prints a Fig. 3 / Fig. 4-style table: one row per variant, one column
/// per horizon, with the relative improvement vs. the first row (No-PINN).
pub fn print_horizon_table(results: &[VariantResult], horizons_s: &[f64]) {
    print!("{:<14}", "variant");
    for h in horizons_s {
        print!(" | Test@{:<5.0}s          ", h);
    }
    println!();
    println!("{}", "-".repeat(14 + horizons_s.len() * 26));
    let baseline = &results[0];
    for r in results {
        print!("{:<14}", r.label);
        for &h in horizons_s {
            let m = r.mean_mae(h);
            let s = r.std_mae(h);
            let delta = 100.0 * (baseline.mean_mae(h) - m) / baseline.mean_mae(h);
            print!(" | {m:.4} ±{s:.4} ({delta:+5.1}%)");
        }
        println!();
    }
}

/// Host metadata stamped into every `BENCH_*.json` at the workspace root so
/// the perf trajectory across PRs stays comparable. One definition shared
/// by all baseline bins (they used to carry diverging copies).
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// `std::thread::available_parallelism` on the measuring host.
    pub threads: usize,
    /// Worker threads the measured pool resolved; the meaning is
    /// per-bench (engine workers, runner workers, training workers, ...).
    pub workers: usize,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
    /// Short git revision of the measured tree, or `"unknown"`.
    pub git_rev: String,
    /// Active GEMM kernel path on the measuring host (`avx2` / `sse2` /
    /// `scalar`), as resolved by `pinnsoc_nn::kernel::active` — forced
    /// paths (`PINNSOC_FORCE_KERNEL`) are reported as forced, so bench
    /// JSONs from different hosts or forcing modes stay comparable.
    pub kernel_path: &'static str,
    /// Int8 accumulate flavor the quantized GEMMs sub-dispatch to under
    /// `kernel_path` (`avx512-vnni` / `avx-vnni` / `avx2-madd` / ...) —
    /// int8 speedups depend on it, the f32 numbers do not.
    pub int8_kernel: &'static str,
    /// Numeric serving mode of the measured path: `"f32"` for the
    /// baseline pipelines, `"int8"` when the bench measured quantized
    /// serving.
    pub quantization: &'static str,
}

/// Captures [`HostInfo`] for a bench whose measured pool resolved `workers`
/// worker threads, serving f32 (the default mode).
pub fn host_info(workers: usize) -> HostInfo {
    host_info_with_mode(workers, "f32")
}

/// [`host_info`] with an explicit quantization mode label.
pub fn host_info_with_mode(workers: usize, quantization: &'static str) -> HostInfo {
    HostInfo {
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        workers,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        git_rev: git_rev(),
        kernel_path: pinnsoc_nn::kernel::active().as_str(),
        int8_kernel: pinnsoc_nn::kernel::int8_flavor(),
        quantization,
    }
}

/// Short git revision of the workspace checkout, or `"unknown"` when git or
/// the repository is unavailable (e.g. a source tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Writes a baseline bin's record to `name` (a `BENCH_*.json`) at the
/// workspace root, pretty-printed.
///
/// # Panics
///
/// Panics if the value cannot be serialized or the file cannot be written.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let json = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(&path, json).unwrap_or_else(|err| panic!("write {name}: {err}"));
    println!("\nwrote {name}");
}

/// Writes any serializable result to `results/<name>.json` under the
/// workspace root (creating the directory if needed).
///
/// # Errors
///
/// Returns an I/O error when the directory or file cannot be written.
pub fn write_results_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    println!("\nwrote results/{name}.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((std_dev(&[1.0, 3.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn horizon_keys_are_stable() {
        assert_eq!(horizon_key(120.0), "120");
        assert_eq!(horizon_key(30.0), "30");
    }

    #[test]
    fn variant_result_stats() {
        let mut m = BTreeMap::new();
        m.insert("120".to_string(), vec![0.1, 0.2]);
        let r = VariantResult {
            label: "x".into(),
            mae_per_horizon: m,
        };
        assert!((r.mean_mae(120.0) - 0.15).abs() < 1e-12);
        assert!(r.std_mae(120.0) > 0.0);
    }
}
