//! Int8 quantized inference: symmetric per-output-channel weight
//! quantization, per-layer activation scales, and an i32-accumulate GEMM
//! with a fused dequantize + bias + activation epilogue.
//!
//! # Scheme
//!
//! - **Weights** are quantized per output channel: column `j` stores
//!   `q_w = round(w / s_w[j])` clamped to `[-127, 127]` with
//!   `s_w[j] = max_k |w[k][j]| / 127`, so every column uses the full int8
//!   range regardless of the other columns' magnitudes.
//! - **Activations** use one symmetric scale per layer,
//!   `s_in = max|x| / 127`, calibrated offline by running the f32 network
//!   over representative data ([`CalibrationStats`]) — the serving stack
//!   calibrates from the lab dataset plus the harvest reservoir.
//! - **Accumulation** is exact `i32` arithmetic
//!   (`acc = Σ q_x[k] · q_w[k][j]`), so — unlike the f32 kernels, whose
//!   bit-exactness rests on a strict accumulation order — every kernel
//!   flavor (scalar, SSE2/AVX2 `madd`, AVX-VNNI, AVX-512-VNNI) produces
//!   the identical accumulator by associativity. The epilogue
//!   `act(acc · s_in · s_w[j] + bias[j])` runs the same operation
//!   sequence on every path, so the whole network output is bit-identical
//!   across paths.
//!
//! # Kernel paths
//!
//! SIMD runs in exactly one place: the fully quantized chain of
//! [`QuantizedMlp::forward_batch_with`], taken on the `sse2` and `avx2`
//! paths when every layer is ReLU or Identity (every production network:
//! ReLU hidden layers, Identity output). The input quantizes once, each
//! hidden layer re-quantizes straight into the next layer's i16 input, and
//! the output layer dequantizes to f32. Everything else — the `scalar`
//! path, and networks with Tanh/Sigmoid/LeakyReLU layers on any path —
//! runs the scalar int8 reference layer by layer.
//!
//! # Error contract
//!
//! The int8 path is *not* bit-identical to f32 — it carries an analytic
//! per-layer error bound instead ([`QuantizedMlp::layer_error_bound`]),
//! property-tested in `tests/proptest_nn.rs`: for inputs within the
//! calibrated range, each pre-activation differs from the f32 reference by
//! at most `fan_in · (X·s_w/2 + W·s_in/2 + s_in·s_w/4)` (X = largest
//! input magnitude, W = largest weight magnitude in the column) plus float
//! rounding slop, and every activation used here is 1-Lipschitz. Whether
//! that error is *acceptable* is decided end-to-end by the scenario gate,
//! not here.
//!
//! # Weight layout
//!
//! [`QuantizedPackedWeights`] stores eight-column panels with the depth
//! dimension interleaved in k-pairs:
//! `data[panel·kpairs·16 + kk·16 + j·2 + d]` holds the weight of depth
//! `2·kk + d`, column `panel·8 + j` (zero-padded past the true shape).
//! One 16-lane i16 vector load then feeds `madd` with a broadcast
//! activation pair — the layout exists for that instruction, and the
//! scalar path walks the same buffer so there is exactly one packed
//! representation.

use crate::activation::Activation;
use crate::kernel::{self, KernelPath};
use crate::matrix::Matrix;
use crate::mlp::Mlp;

/// Quantizes one activation against a precomputed reciprocal scale — the
/// scalar reference every SIMD quantize lane reproduces exactly
/// (`kernel::x86::quantize_row`), so quantized inputs — and therefore the
/// exact integer accumulators — never depend on the path.
///
/// Rounds half away from zero via truncation of `y + ±0.5` (the same
/// result as `f32::round`, but branchless and vectorizable instead of a
/// `roundf` libcall), then clamps with comparisons whose NaN behaviour
/// matches the x86 `min`/`max` instructions (NaN → second operand, here
/// the bound). Non-finite inputs therefore quantize to ±127
/// deterministically on every path.
#[inline]
pub(crate) fn quantize_activation(x: f32, inv_scale: f32) -> i16 {
    let y = x * inv_scale;
    let t = y + 0.5f32.copysign(y);
    let t = if t < 127.0 { t } else { 127.0 };
    let t = if t > -127.0 { t } else { -127.0 };
    t as i32 as i16
}

/// ReLU with the exact semantics of the x86 `max(v, 0.0)` instruction
/// (NaN and `-0.0` both map to `+0.0`) — the scalar reference for the
/// SIMD dequant epilogue's ReLU, so scalar and vector int8 epilogues are
/// bit-identical for every input.
#[inline]
pub(crate) fn relu_exact(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// A GEMM right-hand side quantized to int8 (stored widened to `i16`) in
/// k-pair-interleaved eight-column panels, with one symmetric scale per
/// output channel. See the [module docs](self) for the layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPackedWeights {
    fan_in: usize,
    fan_out: usize,
    /// `fan_in.div_ceil(2)` — depth steps per panel row (odd depths are
    /// zero-padded).
    kpairs: usize,
    /// `fan_out.div_ceil(8)` — eight-column panels (ragged columns are
    /// zero-padded).
    panel_count: usize,
    /// Interleaved panels, `panel_count * kpairs * 16` values.
    data: Vec<i16>,
    /// Per-output-channel dequantization scales (`fan_out` values).
    scales: Vec<f32>,
}

impl QuantizedPackedWeights {
    /// Quantizes a `fan_in × fan_out` f32 weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `fan_in > 8192` — far beyond any model in this
    /// workspace, and the margin that keeps the i32 accumulator provably
    /// overflow-free (`8192 · 127 · 127 < 2³¹`).
    pub fn quantize(weight: &Matrix) -> Self {
        let (fan_in, fan_out) = weight.shape();
        assert!(
            fan_in <= 8192,
            "quantized GEMM depth {fan_in} would risk i32 accumulator overflow"
        );
        let kpairs = fan_in.div_ceil(2);
        let panel_count = fan_out.div_ceil(8);
        let mut scales = Vec::with_capacity(fan_out);
        let mut data = vec![0i16; panel_count * kpairs.max(1) * 16];
        for j in 0..fan_out {
            let mut max_abs = 0.0f32;
            for k in 0..fan_in {
                max_abs = max_abs.max(weight[(k, j)].abs());
            }
            // An all-zero column quantizes to zeros under any scale; 1.0
            // keeps the dequant factor finite.
            let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
            scales.push(scale);
            for k in 0..fan_in {
                let q = (weight[(k, j)] / scale).round().clamp(-127.0, 127.0) as i16;
                data[(j / 8) * kpairs * 16 + (k / 2) * 16 + (j % 8) * 2 + (k % 2)] = q;
            }
        }
        Self {
            fan_in,
            fan_out,
            kpairs,
            panel_count,
            data,
            scales,
        }
    }

    /// Fan-in of the quantized weight (GEMM depth).
    pub fn rows(&self) -> usize {
        self.fan_in
    }

    /// Fan-out of the quantized weight (GEMM output width).
    pub fn cols(&self) -> usize {
        self.fan_out
    }

    /// Per-output-channel symmetric weight scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Heap bytes of the quantized representation (weights + scales).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i16>()
            + self.scales.len() * std::mem::size_of::<f32>()
    }
}

/// Scalar reference int8 micro-kernel: `IB` rows × 8 columns of i32
/// accumulators over one panel, walking the identical interleaved buffer
/// the SIMD kernels load — integer sums are exact, so the result matches
/// them for any summation order.
fn scalar_int8_block<const IB: usize>(
    q: &[i16],
    q_stride: usize,
    kpairs: usize,
    wp: &[i16],
    acc: &mut [i32],
    acc_stride: usize,
) {
    for r in 0..IB {
        for jj in 0..8 {
            let mut sum = 0i32;
            for kk in 0..kpairs {
                let base = kk * 16 + jj * 2;
                sum += i32::from(q[r * q_stride + 2 * kk]) * i32::from(wp[base])
                    + i32::from(q[r * q_stride + 2 * kk + 1]) * i32::from(wp[base + 1]);
            }
            acc[r * acc_stride + jj] = sum;
        }
    }
}

/// One quantized dense layer: int8 weights, f32 bias, the f32 layer's
/// activation, and the calibrated input scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    weights: QuantizedPackedWeights,
    bias: Vec<f32>,
    activation: Activation,
    input_scale: f32,
    inv_input_scale: f32,
    /// `input_scale * weight_scale[j]` per output channel — one multiply
    /// dequantizes the i32 accumulator.
    dequant: Vec<f32>,
}

impl QuantizedLayer {
    /// Fan-in of the layer.
    pub fn fan_in(&self) -> usize {
        self.weights.fan_in
    }

    /// Fan-out of the layer.
    pub fn fan_out(&self) -> usize {
        self.weights.fan_out
    }

    /// The calibrated symmetric activation scale of this layer's input.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Quantized weights (for accounting and tests).
    pub fn weights(&self) -> &QuantizedPackedWeights {
        &self.weights
    }

    /// Quantizes the whole batch into `q` (stride `q_stride`) with the
    /// SIMD quantize kernel; every lane reproduces [`quantize_activation`]
    /// exactly. When the stride equals the fan-in the batch quantizes in a
    /// single kernel call over the contiguous matrix storage; an odd
    /// fan-in quantizes contiguously into `qtmp` and scatters rows into
    /// the padded layout (the per-row kernel-call overhead would otherwise
    /// dominate these tiny rows).
    #[cfg(target_arch = "x86_64")]
    fn quantize_batch(
        &self,
        input: &Matrix,
        q: &mut [i16],
        q_stride: usize,
        qtmp: &mut Vec<i16>,
        avx2: bool,
    ) {
        let (batch, fan_in) = input.shape();
        if q_stride == fan_in {
            kernel::x86::quantize_row(
                avx2,
                input.as_slice(),
                self.inv_input_scale,
                &mut q[..batch * fan_in],
            );
        } else {
            // The temp carries `q_stride - fan_in` slack zeros so every
            // row scatters as one full-`q_stride` copy — the overread
            // lands in the next row's data or the slack, and pad lanes
            // only ever multiply zero weights, so their values are
            // irrelevant.
            qtmp.resize(batch * fan_in + (q_stride - fan_in), 0);
            kernel::x86::quantize_row(
                avx2,
                input.as_slice(),
                self.inv_input_scale,
                &mut qtmp[..batch * fan_in],
            );
            for r in 0..batch {
                q[r * q_stride..(r + 1) * q_stride]
                    .copy_from_slice(&qtmp[r * fan_in..r * fan_in + q_stride]);
            }
        }
    }

    /// Dequantize + bias + activation for a block of `rows` output rows.
    /// This is the scalar reference epilogue: ReLU runs as [`relu_exact`]
    /// and Identity passes through, the exact per-lane operation sequence
    /// of the SIMD chain's epilogues, so both are bit-identical; the
    /// transcendental activations apply [`Activation::apply`].
    fn epilogue(&self, acc: &[i32], acc_stride: usize, out: &mut [f32], rows: usize) {
        let n = self.weights.fan_out;
        for r in 0..rows {
            for j in 0..n {
                let v = acc[r * acc_stride + j] as f32 * self.dequant[j] + self.bias[j];
                out[r * n + j] = match self.activation {
                    Activation::Relu => relu_exact(v),
                    Activation::Identity => v,
                    act => act.apply(v),
                };
            }
        }
    }

    /// The scalar int8 reference forward of one layer: quantize the input,
    /// accumulate exact i32 sums panel by panel, then run the epilogue.
    fn forward_into(&self, input: &Matrix, q: &mut Vec<i16>, acc: &mut Vec<i32>, out: &mut Matrix) {
        let (batch, fan_in) = input.shape();
        assert_eq!(
            fan_in, self.weights.fan_in,
            "quantized layer fan-in mismatch"
        );
        let kpairs = self.weights.kpairs;
        let q_stride = 2 * kpairs;
        let fan_out = self.weights.fan_out;
        let panel_count = self.weights.panel_count;
        let padded_cols = panel_count * 8;

        // Grow-only scratch: stale values past the quantized region are
        // harmless — an odd-depth pad lane always multiplies a zero
        // weight, so its activation value never reaches the accumulator.
        if q.len() < batch * q_stride {
            q.resize(batch * q_stride, 0);
        }
        for r in 0..batch {
            let q_row = &mut q[r * q_stride..r * q_stride + fan_in];
            for (qv, &x) in q_row.iter_mut().zip(input.row(r)) {
                *qv = quantize_activation(x, self.inv_input_scale);
            }
        }

        out.reset_for_overwrite(batch, fan_out);
        let out_data = out.as_mut_slice();
        if acc.len() < 8 * padded_cols {
            acc.resize(8 * padded_cols, 0);
        }
        let mut i = 0;
        while i < batch {
            let ib = if batch - i >= 8 { 8 } else { 1 };
            let q_block = &q[i * q_stride..(i + ib) * q_stride];
            let out_block = &mut out_data[i * fan_out..(i + ib) * fan_out];
            for p in 0..panel_count {
                let wp = &self.weights.data[p * kpairs * 16..(p + 1) * kpairs * 16];
                let acc_block = &mut acc[p * 8..];
                if ib == 8 {
                    scalar_int8_block::<8>(q_block, q_stride, kpairs, wp, acc_block, padded_cols);
                } else {
                    scalar_int8_block::<1>(q_block, q_stride, kpairs, wp, acc_block, padded_cols);
                }
            }
            self.epilogue(acc, padded_cols, out_block, ib);
            i += ib;
        }
    }
}

/// Per-layer input magnitude statistics gathered by running the f32
/// network over calibration data. Feed every representative source
/// ([`CalibrationStats::observe`] accumulates maxima), then quantize.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationStats {
    max_abs: Vec<f32>,
}

impl CalibrationStats {
    /// Empty statistics for a network with `layer_count` layers.
    pub fn new(layer_count: usize) -> Self {
        assert!(layer_count > 0, "calibration needs at least one layer");
        Self {
            max_abs: vec![0.0; layer_count],
        }
    }

    /// Runs `samples` (rows of network inputs) through `mlp` and folds
    /// each layer's observed input magnitude into the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the layer count or input width does not match `mlp`.
    pub fn observe(&mut self, mlp: &Mlp, samples: &Matrix) {
        assert_eq!(
            self.max_abs.len(),
            mlp.layers().len(),
            "calibration layer count mismatch"
        );
        assert_eq!(samples.cols(), mlp.input_dim(), "calibration input width");
        let mut cur = samples.clone();
        let mut next = Matrix::zeros(1, 1);
        for (stat, layer) in self.max_abs.iter_mut().zip(mlp.layers()) {
            *stat = stat.max(cur.max_abs());
            layer.forward_batch(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Largest observed input magnitude per layer.
    pub fn layer_max_abs(&self) -> &[f32] {
        &self.max_abs
    }

    /// True when every layer has seen at least one non-zero input — a
    /// guard against quantizing off an empty or degenerate calibration
    /// set.
    pub fn is_informative(&self) -> bool {
        self.max_abs.iter().all(|&m| m > 0.0)
    }
}

/// Ping-pong buffers for [`QuantizedMlp::forward_batch`]; reuse across
/// calls to stay allocation-free in the steady state.
#[derive(Debug, Default, Clone)]
pub struct QuantScratch {
    q: Vec<i16>,
    q2: Vec<i16>,
    qtmp: Vec<i16>,
    acc: Vec<i32>,
    ping: Matrix,
    pong: Matrix,
}

/// An [`Mlp`] quantized layer-by-layer for int8 serving.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMlp {
    layers: Vec<QuantizedLayer>,
}

impl QuantizedMlp {
    /// Quantizes `mlp` using calibrated per-layer activation scales.
    ///
    /// # Panics
    ///
    /// Panics if `calib` was not built for this network's layer count.
    pub fn quantize(mlp: &Mlp, calib: &CalibrationStats) -> Self {
        assert_eq!(
            calib.max_abs.len(),
            mlp.layers().len(),
            "calibration layer count mismatch"
        );
        let layers = mlp
            .layers()
            .iter()
            .zip(&calib.max_abs)
            .map(|(layer, &max_abs)| {
                let input_scale = if max_abs > 0.0 {
                    max_abs / 127.0
                } else {
                    1.0 / 127.0
                };
                let weights = QuantizedPackedWeights::quantize(layer.weight());
                let dequant = weights.scales.iter().map(|&s| s * input_scale).collect();
                QuantizedLayer {
                    weights,
                    bias: layer.bias().to_vec(),
                    activation: layer.activation(),
                    input_scale,
                    inv_input_scale: 1.0 / input_scale,
                    dequant,
                }
            })
            .collect();
        Self { layers }
    }

    /// The quantized layers, in forward order.
    pub fn layers(&self) -> &[QuantizedLayer] {
        &self.layers
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out()
    }

    /// Heap bytes of all quantized weights, biases and scales.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.weights.memory_bytes()
                    + (l.bias.len() + l.dequant.len()) * std::mem::size_of::<f32>()
            })
            .sum()
    }

    /// Batched int8 forward pass on the active kernel path; returns a
    /// reference to the output rows held in `scratch`.
    pub fn forward_batch<'s>(&self, input: &Matrix, scratch: &'s mut QuantScratch) -> &'s Matrix {
        self.forward_batch_with(input, scratch, kernel::active())
    }

    /// [`QuantizedMlp::forward_batch`] on an explicit kernel path — the
    /// parity tests compare paths without touching global state. All
    /// paths are bit-identical (exact integer accumulation, and quantize
    /// and epilogue lanes that reproduce the scalar reference's operation
    /// sequence).
    pub fn forward_batch_with<'s>(
        &self,
        input: &Matrix,
        scratch: &'s mut QuantScratch,
        path: KernelPath,
    ) -> &'s Matrix {
        assert_eq!(input.cols(), self.input_dim(), "quantized input width");
        let path = path.min(kernel::detect());
        // On SIMD paths an all-ReLU/Identity network runs as a fully
        // quantized chain: the input quantizes once, every hidden layer
        // runs one `int8_fused_quant` call whose epilogue re-quantizes
        // straight into the next layer's i16 input (f32 hidden
        // activations never touch memory — the chain computes the exact
        // same values the scalar reference would, see the kernel docs),
        // and the last layer dequantizes to f32. Every other case runs
        // the scalar reference layer by layer.
        #[cfg(target_arch = "x86_64")]
        if matches!(path, KernelPath::Sse2 | KernelPath::Avx2)
            && self
                .layers
                .iter()
                .all(|l| matches!(l.activation, Activation::Relu | Activation::Identity))
        {
            let avx2 = path == KernelPath::Avx2;
            let batch = input.rows();
            {
                let QuantScratch {
                    q, q2, qtmp, ping, ..
                } = scratch;
                let mut stride = 2 * self.layers[0].weights.kpairs;
                if q.len() < batch * stride {
                    q.resize(batch * stride, 0);
                }
                self.layers[0].quantize_batch(input, q, stride, qtmp, avx2);
                let last = self.layers.len() - 1;
                for (i, layer) in self.layers.iter().enumerate() {
                    let w = &layer.weights;
                    let relu = layer.activation == Activation::Relu;
                    if i < last {
                        let next = &self.layers[i + 1];
                        let next_stride = 2 * next.weights.kpairs;
                        if q2.len() < batch * next_stride {
                            q2.resize(batch * next_stride, 0);
                        }
                        kernel::x86::int8_fused_quant(
                            avx2,
                            &q[..batch * stride],
                            stride,
                            w.kpairs,
                            batch,
                            &w.data,
                            w.panel_count,
                            w.fan_out,
                            &layer.dequant,
                            &layer.bias,
                            relu,
                            next.inv_input_scale,
                            &mut q2[..batch * next_stride],
                            next_stride,
                        );
                        std::mem::swap(q, q2);
                        stride = next_stride;
                    } else {
                        ping.reset_for_overwrite(batch, w.fan_out);
                        kernel::x86::int8_fused(
                            avx2,
                            &q[..batch * stride],
                            stride,
                            w.kpairs,
                            batch,
                            &w.data,
                            w.panel_count,
                            w.fan_out,
                            &layer.dequant,
                            &layer.bias,
                            ping.as_mut_slice(),
                            w.fan_out,
                            relu,
                        );
                    }
                }
            }
            return &scratch.ping;
        }
        {
            let QuantScratch {
                q, acc, ping, pong, ..
            } = scratch;
            let mut first = true;
            for layer in &self.layers {
                let src: &Matrix = if first { input } else { &*ping };
                layer.forward_into(src, q, acc, pong);
                std::mem::swap(ping, pong);
                first = false;
            }
        }
        &scratch.ping
    }

    /// Single-sample convenience wrapper (tests and spot checks — serving
    /// uses the batched path with a reused scratch).
    pub fn infer_scalar(&self, features: &[f32]) -> f32 {
        let mut scratch = QuantScratch::default();
        let out = self.forward_batch(&Matrix::row_vector(features), &mut scratch);
        out[(0, 0)]
    }

    /// Analytic bound on `|int8 − f32|` for one layer's pre-activation
    /// output at column `col`, for inputs of magnitude at most
    /// `input_max_abs` (which must lie inside the calibrated range so no
    /// clamping occurs). Every activation in this crate is 1-Lipschitz,
    /// so the bound also holds post-activation. See the [module
    /// docs](self) for the derivation; the small relative/absolute slop
    /// covers f32 rounding of both pipelines.
    pub fn layer_error_bound(&self, layer: usize, input_max_abs: f32, col: usize) -> f32 {
        let l = &self.layers[layer];
        let s_in = l.input_scale;
        let s_w = l.weights.scales[col];
        let w_max = 127.0 * s_w;
        let n = l.weights.fan_in as f32;
        let bound = n * (input_max_abs * s_w * 0.5 + w_max * s_in * 0.5 + s_in * s_w * 0.25);
        bound * 1.001 + 1e-5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            &[3, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng,
        )
    }

    fn calib_inputs() -> Matrix {
        Matrix::from_vec(
            32,
            3,
            (0..96).map(|i| ((i as f32) * 0.37).sin() * 2.0).collect(),
        )
    }

    #[test]
    fn quantized_tracks_f32_within_bound() {
        let mlp = test_mlp(7);
        let x = calib_inputs();
        let mut calib = CalibrationStats::new(mlp.layers().len());
        calib.observe(&mlp, &x);
        assert!(calib.is_informative());
        let qmlp = QuantizedMlp::quantize(&mlp, &calib);
        let mut scratch = QuantScratch::default();
        let qy = qmlp.forward_batch(&x, &mut scratch).clone();
        let fy = mlp.infer(&x);
        assert_eq!(qy.shape(), fy.shape());
        let mut max_err = 0.0f32;
        for (a, b) in qy.as_slice().iter().zip(fy.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        // Loose end-to-end sanity: per-layer bounds compound, but the
        // network output must stay in the same ballpark as f32.
        assert!(max_err < 0.1, "quantized drifted {max_err} from f32");
    }

    #[test]
    fn kernel_paths_agree_bitwise() {
        let mlp = test_mlp(13);
        let x = calib_inputs();
        let mut calib = CalibrationStats::new(mlp.layers().len());
        calib.observe(&mlp, &x);
        let qmlp = QuantizedMlp::quantize(&mlp, &calib);
        let mut scratch = QuantScratch::default();
        let scalar = qmlp
            .forward_batch_with(&x, &mut scratch, KernelPath::Scalar)
            .clone();
        for path in [KernelPath::Sse2, KernelPath::Avx2] {
            let out = qmlp.forward_batch_with(&x, &mut scratch, path).clone();
            for (a, b) in out.as_slice().iter().zip(scalar.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{path} vs scalar");
            }
        }
    }

    #[test]
    fn odd_shapes_and_ragged_panels() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[5, 7, 9, 3], Activation::Tanh, Init::HeNormal, &mut rng);
        let x = Matrix::from_vec(
            9,
            5,
            (0..45).map(|i| ((i as f32) * 0.61).cos() * 1.5).collect(),
        );
        let mut calib = CalibrationStats::new(3);
        calib.observe(&mlp, &x);
        let qmlp = QuantizedMlp::quantize(&mlp, &calib);
        let mut scratch = QuantScratch::default();
        let scalar = qmlp
            .forward_batch_with(&x, &mut scratch, KernelPath::Scalar)
            .clone();
        let best = qmlp
            .forward_batch_with(&x, &mut scratch, kernel::detect())
            .clone();
        assert_eq!(scalar, best);
        assert_eq!(scalar.shape(), (9, 3));
    }

    #[test]
    fn memory_shrinks_versus_f32() {
        let mlp = test_mlp(1);
        let x = calib_inputs();
        let mut calib = CalibrationStats::new(mlp.layers().len());
        calib.observe(&mlp, &x);
        let qmlp = QuantizedMlp::quantize(&mlp, &calib);
        // i16 storage + padding still beats four-byte weights on these
        // shapes.
        assert!(qmlp.memory_bytes() < mlp.memory_bytes());
    }
}
