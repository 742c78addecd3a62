//! Kernel microbench on the 2,322-param model's GEMM shapes: f32 scalar
//! vs f32 AVX2, and the int8 quantized forward on every kernel path,
//! written to `BENCH_simd.json` at the workspace root.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin simd_baseline`.
//! Pass `--smoke` for a CI-sized run (few reps, relaxed speedup floors)
//! that sanity-checks kernel dispatch without touching `BENCH_simd.json`.
//!
//! f32 is timed only on the paths with kernels of their own: `scalar`,
//! plus `avx2` where the host has it (the `sse2` path runs the scalar f32
//! kernels). The int8 forward is timed on every path through
//! `QuantizedMlp::forward_batch_with`: the `scalar` reference, the `sse2`
//! chain, and the best path's AVX2/VNNI chain — the standing evidence for
//! keeping each int8 kernel family.
//!
//! The full run asserts the perf contract. The headline claims live on
//! the per-shape microbenches, where per-call and cross-layer overhead is
//! amortized; the end-to-end forward asserts conservative floors on top:
//!
//! - **f32 AVX2 ≥ 2× scalar** on the serving model's GEMM shapes (best
//!   shape). The hand kernels use separate multiply + add per step (FMA
//!   would break the bit-exactness contract), so AVX2 peak throughput is
//!   exactly 2× the SSE2 peak the autovectorized scalar reference
//!   reaches — the end-to-end forward (which shares epilogue/dispatch
//!   overhead across paths and compresses any ratio toward 1) instead
//!   asserts a conservative ≥ 1.4× floor.
//! - **int8 ≥ 1.5× AVX2 f32** on the serving model's GEMM shapes (best
//!   shape): one quantized layer — input quantization included — against
//!   the f32 fused GEMM on the same shape. End-to-end, the quantized chain
//!   also pays the output layer's single-column epilogue that no wide
//!   kernel can amortize, so the full forward asserts a conservative
//!   ≥ 1.3× floor.
//! - **SSE2 int8 chain ≥ 2× the scalar int8 reference** end to end.
//!
//! Hosts without AVX2 record no f32 SIMD or int8-vs-SIMD ratios (they are
//! `null`) and skip those asserts; scalar-only hosts skip the SSE2 one.
//! The smoke run keeps the same directions with loose floors (shape ≥
//! 1.2×/1.0×, forward ≥ 1.0×/0.9×, SSE2 int8 ≥ 1.2×) so a CI host under
//! noisy neighbours does not flake, while an outright dispatch regression
//! (SIMD slower than scalar) still fails. All timings are best-of-`reps` —
//! this host class shows 2× run-to-run swings from neighbour contention,
//! and the minimum estimates uncontended speed, which is what the
//! contract is about.

use pinnsoc_bench::fixtures::MICRO_BATCH;
use pinnsoc_bench::measure::min_time;
use pinnsoc_bench::{host_info_with_mode, write_bench_json, HostInfo};
use pinnsoc_nn::kernel::{self, KernelPath};
use pinnsoc_nn::{
    Activation, CalibrationStats, InferScratch, Init, Matrix, Mlp, PackedWeights, QuantScratch,
    QuantizedMlp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;

/// The serving MLP widths (both PINN branches use these hidden layers).
const WIDTHS: [usize; 5] = [3, 16, 32, 16, 1];

#[derive(Debug, Serialize)]
struct ShapeResult {
    /// Batch rows (m), GEMM depth (k), output columns (n).
    m: usize,
    k: usize,
    n: usize,
    /// Nanoseconds per fused f32 GEMM call, per f32 kernel (`scalar`, plus
    /// `avx2` where the host has it).
    ns_per_call: Vec<(String, f64)>,
    /// f32 GFLOP/s per f32 kernel (2·m·k·n per call).
    gflops: Vec<(String, f64)>,
    /// Nanoseconds per int8 quantized layer forward on the best path
    /// (quantize + fused GEMM/epilogue), same shape.
    int8_ns_per_call: f64,
    /// AVX2 f32 time over the int8 time on this shape (`null` without
    /// AVX2).
    int8_speedup_vs_simd: Option<f64>,
}

#[derive(Debug, Serialize)]
struct ForwardResult {
    batch: usize,
    /// Microseconds per full fused forward pass, per f32 kernel.
    f32_us_per_batch: Vec<(String, f64)>,
    /// Microseconds per int8 quantized forward pass, per kernel path
    /// (`scalar` reference, `sse2` chain, best path's chain).
    int8_us_per_batch: Vec<(String, f64)>,
    /// Accumulate flavor of the best path's int8 chain (`avx512-vnni`,
    /// `avx-vnni`, `avx2-madd`, `sse2-madd` or `scalar`).
    int8_best_flavor: &'static str,
    /// Scalar f32 time over AVX2 f32 time.
    simd_speedup_vs_scalar: Option<f64>,
    /// Best int8 time over AVX2 f32 time.
    int8_speedup_vs_simd: Option<f64>,
    /// Scalar int8 time over SSE2 int8 time (the SSE2 chain's evidence).
    int8_sse2_speedup_vs_scalar: Option<f64>,
    /// Best per-shape AVX2-vs-scalar GEMM throughput ratio (the ≥ 2×
    /// kernel contract — see the module docs).
    gemm_simd_speedup_vs_scalar: Option<f64>,
    /// Best per-shape int8-vs-AVX2-f32 ratio (the ≥ 1.5× quantization
    /// contract — see the module docs).
    int8_shape_speedup_vs_simd: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    reps: usize,
    host: HostInfo,
    /// f32 kernels timed (`scalar`, plus `avx2` where the host has it).
    paths_measured: Vec<String>,
    shapes: Vec<ShapeResult>,
    forward: ForwardResult,
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
    )
}

/// Every kernel path the host can actually execute, scalar first — the
/// int8 forward is timed on each.
fn host_paths() -> Vec<KernelPath> {
    [KernelPath::Scalar, KernelPath::Sse2, KernelPath::Avx2]
        .into_iter()
        .filter(|&p| p <= kernel::detect())
        .collect()
}

/// The paths with f32 kernels of their own: `scalar`, plus `avx2` where
/// the host has it (`sse2` runs the scalar f32 kernels).
fn f32_paths() -> Vec<KernelPath> {
    host_paths()
        .into_iter()
        .filter(|&p| p != KernelPath::Sse2)
        .collect()
}

/// The int8 accumulate flavor `path` runs on this host.
fn int8_flavor_on(path: KernelPath) -> &'static str {
    kernel::force(Some(path));
    let flavor = kernel::int8_flavor();
    kernel::force(None);
    flavor
}

/// The timing recorded for `path` in a per-path list.
fn timing(list: &[(String, f64)], path: KernelPath) -> Option<f64> {
    list.iter()
        .find(|(p, _)| p == path.as_str())
        .map(|(_, t)| *t)
}

/// A speedup for printing, `n/a` when the host cannot measure it.
fn ratio(r: Option<f64>) -> String {
    r.map_or("n/a".to_string(), |r| format!("{r:.2}x"))
}

/// Times one fused GEMM shape (`m×k · k×n` + bias + ReLU) per f32 kernel,
/// plus the same shape as a single int8 quantized layer (input
/// quantization included) on the best path. The inner repeat count scales
/// with the work so tiny shapes aren't pure timer noise.
fn measure_shape(rng: &mut StdRng, reps: usize, m: usize, k: usize, n: usize) -> ShapeResult {
    let lhs = random_matrix(rng, m, k);
    let weight = random_matrix(rng, k, n);
    let packed = PackedWeights::pack(&weight);
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let mut out = Matrix::zeros(1, 1);
    let inner = (2_000_000 / (2 * m * k * n)).clamp(1, 64);
    let mut ns_per_call = Vec::new();
    let mut gflops = Vec::new();
    for path in f32_paths() {
        let s = min_time(reps, || {
            for _ in 0..inner {
                lhs.matmul_bias_act_into_with(&packed, &bias, Activation::Relu, &mut out, path);
                black_box(out.as_slice().last());
            }
        }) / inner as f64;
        ns_per_call.push((path.as_str().to_string(), s * 1e9));
        gflops.push((path.as_str().to_string(), (2 * m * k * n) as f64 / s / 1e9));
    }
    // The same layer shape quantized: one-layer network so the timing
    // includes the real serving cost (quantize the f32 input, fused int8
    // GEMM + dequant epilogue).
    let layer = Mlp::new(&[k, n], Activation::Relu, Init::HeNormal, rng);
    let mut calib = CalibrationStats::new(1);
    calib.observe(&layer, &lhs);
    let qlayer = QuantizedMlp::quantize(&layer, &calib);
    let mut qscratch = QuantScratch::default();
    let int8_s = min_time(reps, || {
        for _ in 0..inner {
            black_box(qlayer.forward_batch(&lhs, &mut qscratch)[(0, 0)]);
        }
    }) / inner as f64;
    ShapeResult {
        m,
        k,
        n,
        int8_speedup_vs_simd: timing(&ns_per_call, KernelPath::Avx2)
            .map(|avx2_ns| avx2_ns / (int8_s * 1e9)),
        ns_per_call,
        gflops,
        int8_ns_per_call: int8_s * 1e9,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let reps = if smoke { 7 } else { 41 };
    let mut rng = StdRng::seed_from_u64(42);

    let mlp = Mlp::new(&WIDTHS, Activation::Relu, Init::HeNormal, &mut rng);
    let input = random_matrix(&mut rng, MICRO_BATCH, WIDTHS[0]);
    let mut calib = CalibrationStats::new(mlp.layers().len());
    calib.observe(&mlp, &input);
    let qmlp = QuantizedMlp::quantize(&mlp, &calib);

    // Per-layer GEMM shapes at the serving micro-batch.
    let shapes: Vec<ShapeResult> = WIDTHS
        .windows(2)
        .map(|w| measure_shape(&mut rng, reps, MICRO_BATCH, w[0], w[1]))
        .collect();
    for s in &shapes {
        let fmt = |v: &[(String, f64)]| {
            v.iter()
                .map(|(p, g)| format!("{p} {g:7.2}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        println!(
            "gemm {:>4}x{:>2}x{:>2}  GFLOP/s: {} | int8 layer {:7.0}ns ({} vs avx2 f32)",
            s.m,
            s.k,
            s.n,
            fmt(&s.gflops),
            s.int8_ns_per_call,
            ratio(s.int8_speedup_vs_simd),
        );
    }

    // End-to-end fused forward per f32 kernel, then int8 per kernel path.
    let mut scratch = InferScratch::default();
    let mut f32_us = Vec::new();
    for path in f32_paths() {
        kernel::force(Some(path));
        let s = min_time(reps, || {
            for _ in 0..4 {
                black_box(mlp.forward_batch(&input, &mut scratch)[(0, 0)]);
            }
        }) / 4.0;
        f32_us.push((path.as_str().to_string(), s * 1e6));
    }
    kernel::force(None);
    let mut qscratch = QuantScratch::default();
    let mut int8_us = Vec::new();
    for path in host_paths() {
        let s = min_time(reps, || {
            for _ in 0..4 {
                black_box(qmlp.forward_batch_with(&input, &mut qscratch, path)[(0, 0)]);
            }
        }) / 4.0;
        int8_us.push((path.as_str().to_string(), s * 1e6));
    }

    let scalar_us = timing(&f32_us, KernelPath::Scalar).expect("scalar always runs");
    let avx2_us = timing(&f32_us, KernelPath::Avx2);
    let best_int8_us = int8_us.last().expect("scalar always runs").1;
    let best_flavor = int8_flavor_on(*host_paths().last().expect("scalar always runs"));
    let simd_speedup = avx2_us.map(|us| scalar_us / us);
    let int8_speedup = avx2_us.map(|us| us / best_int8_us);
    let int8_sse2_speedup = timing(&int8_us, KernelPath::Sse2)
        .map(|us| timing(&int8_us, KernelPath::Scalar).expect("scalar always runs") / us);
    // Best per-shape AVX2-vs-scalar GEMM ratio — the home of the 2×
    // claim (see the module docs for why the end-to-end forward cannot
    // robustly reach the port-limited 2×).
    let best_shape = |per_shape: &dyn Fn(&ShapeResult) -> Option<f64>| {
        shapes.iter().filter_map(per_shape).reduce(f64::max)
    };
    let gemm_simd_speedup = best_shape(&|s| {
        let scalar = timing(&s.gflops, KernelPath::Scalar)?;
        timing(&s.gflops, KernelPath::Avx2).map(|g| g / scalar)
    });
    // Best per-shape int8-vs-AVX2 ratio — the home of the 1.5× claim,
    // mirroring the f32 shape contract (the end-to-end chain pays the
    // single-column output layer and input quantization that no wide
    // kernel can amortize).
    let int8_shape_speedup = best_shape(&|s| s.int8_speedup_vs_simd);
    let fmt = |v: &[(String, f64)]| {
        v.iter()
            .map(|(p, us)| format!("{p} {us:.1}us"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    println!(
        "forward {MICRO_BATCH}x[3-16-32-16-1]: f32 {} ({} avx2 vs scalar) | int8 {} ({} best vs avx2 f32, {} sse2 vs scalar; best = {}) | best shapes: f32 {}, int8 {}",
        fmt(&f32_us),
        ratio(simd_speedup),
        fmt(&int8_us),
        ratio(int8_speedup),
        ratio(int8_sse2_speedup),
        best_flavor,
        ratio(gemm_simd_speedup),
        ratio(int8_shape_speedup),
    );

    // The perf contract; each claim is checked where the host can run it.
    let (shape_floor, int8_shape_floor, fwd_floor, int8_floor, sse2_int8_floor) = if smoke {
        (1.2, 1.0, 1.0, 0.9, 1.2)
    } else {
        (2.0, 1.5, 1.4, 1.3, 2.0)
    };
    if let (Some(gemm), Some(int8_shape), Some(fwd), Some(int8)) = (
        gemm_simd_speedup,
        int8_shape_speedup,
        simd_speedup,
        int8_speedup,
    ) {
        assert!(
            gemm >= shape_floor,
            "AVX2 f32 GEMM must be >= {shape_floor}x scalar on the best model shape (got {gemm:.2}x)"
        );
        assert!(
            int8_shape >= int8_shape_floor,
            "int8 layer must be >= {int8_shape_floor}x AVX2 f32 on the best model shape (got {int8_shape:.2}x)"
        );
        assert!(
            fwd >= fwd_floor,
            "AVX2 f32 forward must be >= {fwd_floor}x scalar (got {fwd:.2}x)"
        );
        assert!(
            int8 >= int8_floor,
            "int8 forward must be >= {int8_floor}x AVX2 f32 (got {int8:.2}x)"
        );
    }
    if let Some(sse2) = int8_sse2_speedup {
        assert!(
            sse2 >= sse2_int8_floor,
            "SSE2 int8 forward must be >= {sse2_int8_floor}x the scalar int8 reference (got {sse2:.2}x)"
        );
    }

    if smoke {
        println!("\nsmoke run OK (BENCH_simd.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Fused GEMM kernel microbench on the serving MLP shapes: f32 per \
                      f32 kernel plus the int8 quantized forward per kernel path"
            .into(),
        model: "two-branch PINN layer shapes (2,322 params), micro-batch 512".into(),
        reps,
        host: host_info_with_mode(1, "f32+int8"),
        paths_measured: f32_paths().iter().map(|p| p.as_str().to_string()).collect(),
        shapes,
        forward: ForwardResult {
            batch: MICRO_BATCH,
            f32_us_per_batch: f32_us,
            int8_us_per_batch: int8_us,
            int8_best_flavor: best_flavor,
            simd_speedup_vs_scalar: simd_speedup,
            int8_speedup_vs_simd: int8_speedup,
            int8_sse2_speedup_vs_scalar: int8_sse2_speedup,
            gemm_simd_speedup_vs_scalar: gemm_simd_speedup,
            int8_shape_speedup_vs_simd: int8_shape_speedup,
        },
    };
    write_bench_json("BENCH_simd.json", &baseline);
}
