//! Fully-connected (dense) layer with cached-activation backpropagation.

use crate::activation::Activation;
use crate::init::Init;
use crate::matrix::{Matrix, PackedWeights};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A fully-connected layer `y = σ(x·W + b)`.
///
/// Weights are stored `fan_in × fan_out` so a batch-first input
/// (`batch × fan_in`) multiplies directly. The layer caches the forward
/// input and pre-activation, so `backward` must be called after `forward`
/// on the same batch.
///
/// # Examples
///
/// ```
/// use pinnsoc_nn::{Activation, Dense, Init, Matrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 16, Activation::Relu, Init::HeNormal, &mut rng);
/// let x = Matrix::zeros(4, 3);
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), (4, 16));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weight: Matrix,
    bias: Vec<f32>,
    activation: Activation,
    #[serde(skip)]
    grad_weight: Option<Matrix>,
    #[serde(skip)]
    grad_bias: Vec<f32>,
    #[serde(skip)]
    cache: Option<Cache>,
    /// Lazily packed weight panels for [`Dense::forward_batch`].
    /// Invalidated (taken) whenever the weights can change — the serving
    /// path packs once per trained model and reuses it for every batch.
    #[serde(skip)]
    packed: OnceLock<PackedWeights>,
    /// Packed weight panels for the *training* forward pass
    /// ([`Dense::forward_train_into`]). Unlike `packed`, which is dropped
    /// on invalidation, this buffer is repacked **in place** after each
    /// optimizer step (weights change every step during training, so
    /// dropping it would allocate per step).
    #[serde(skip)]
    train_packed: Option<PackedWeights>,
    /// Set whenever the weights may have changed; the next training
    /// forward repacks `train_packed` in place.
    #[serde(skip)]
    train_packed_stale: bool,
}

#[derive(Debug, Clone)]
struct Cache {
    input: Matrix,
    pre_activation: Matrix,
    /// δ = dL/dy ⊙ σ'(z) of the latest backward pass (reused buffer).
    delta: Matrix,
    /// This pass's `xᵀ·δ` contribution, staged before accumulating into
    /// `grad_weight` so repeated backward calls (data + physics terms of
    /// one step) sum exactly like the allocating path.
    grad_w_pass: Matrix,
    /// This pass's per-column δ sums, staged like `grad_w_pass`.
    bias_sums: Vec<f32>,
}

impl Cache {
    fn empty() -> Self {
        Self {
            input: Matrix::zeros(1, 1),
            pre_activation: Matrix::zeros(1, 1),
            delta: Matrix::zeros(1, 1),
            grad_w_pass: Matrix::zeros(1, 1),
            bias_sums: Vec::new(),
        }
    }
}

impl Dense {
    /// Creates a layer with `init`-sampled weights and zero biases.
    pub fn new(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            weight: init.sample(fan_in, fan_out, rng),
            bias: vec![0.0; fan_out],
            activation,
            grad_weight: None,
            grad_bias: vec![0.0; fan_out],
            cache: None,
            packed: OnceLock::new(),
            train_packed: None,
            train_packed_stale: false,
        }
    }

    /// Creates a layer from explicit weights and biases (used in tests and
    /// when loading persisted models).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(bias.len(), weight.cols(), "bias length must equal fan_out");
        let fan_out = weight.cols();
        Self {
            weight,
            bias,
            activation,
            grad_weight: None,
            grad_bias: vec![0.0; fan_out],
            cache: None,
            packed: OnceLock::new(),
            train_packed: None,
            train_packed_stale: false,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Borrow of the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of trainable parameters (`fan_in·fan_out + fan_out`).
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Multiply–accumulate operations for one forward sample.
    pub fn macs(&self) -> usize {
        self.weight.len()
    }

    /// Invalidates every packed snapshot of the weights. Must be called by
    /// every path that can mutate them — the serving panels are dropped
    /// (repacked lazily on next use) and the training panels are marked for
    /// an in-place repack.
    fn invalidate_packed(&mut self) {
        self.packed.take();
        self.train_packed_stale = true;
    }

    /// Scales the weight matrix (not the bias) by `factor` — used for
    /// small-output initialization of the final layer.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite.
    pub fn scale_weights(&mut self, factor: f32) {
        assert!(factor.is_finite(), "scale factor must be finite");
        self.weight.map_inplace(|w| w * factor);
        self.invalidate_packed();
    }

    /// Forward pass; caches activations for a subsequent [`Dense::backward`].
    ///
    /// The cached input and pre-activation reuse the same buffers across
    /// training steps (copy-in instead of clone), so steady-state training
    /// allocates only the returned output per layer.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let cache = self.cache.get_or_insert_with(Cache::empty);
        cache.input.copy_from(input);
        input.matmul_into(&self.weight, &mut cache.pre_activation);
        for r in 0..cache.pre_activation.rows() {
            for (x, &b) in cache.pre_activation.row_mut(r).iter_mut().zip(&self.bias) {
                *x += b;
            }
        }
        self.activation.forward(&cache.pre_activation)
    }

    /// Training forward pass into a caller-owned buffer: the fused
    /// GEMM-plus-bias kernel ([`Matrix::matmul_bias_act_into`] over
    /// in-place-repacked [`PackedWeights`] panels) produces the
    /// pre-activation, which is cached for [`Dense::backward_into`], then
    /// the activation is applied into `out`. Steady-state training steps
    /// allocate nothing in this layer: the cache buffers, the packed
    /// panels, and `out` are all reused.
    ///
    /// Per-element outputs are bit-exact with [`Dense::forward`] (the
    /// allocating training path) per the [bit-exactness
    /// contract](crate#bit-exactness-contract).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != self.fan_in()`.
    pub fn forward_train_into(&mut self, input: &Matrix, out: &mut Matrix) {
        let cache = self.cache.get_or_insert_with(Cache::empty);
        cache.input.copy_from(input);
        // Repack in place only when the weights changed (once per optimizer
        // step, amortized over the data and physics forward passes).
        let stale = self.train_packed_stale;
        match &mut self.train_packed {
            Some(packed) => {
                if stale {
                    packed.pack_into(&self.weight);
                }
            }
            none => *none = Some(PackedWeights::pack(&self.weight)),
        }
        self.train_packed_stale = false;
        let packed = self.train_packed.as_ref().expect("just packed");
        // Fused GEMM + bias (identity epilogue): the cached pre-activation
        // includes the bias, exactly as in `forward`.
        input.matmul_bias_act_into(
            packed,
            &self.bias,
            Activation::Identity,
            &mut cache.pre_activation,
        );
        let act = self.activation;
        cache.pre_activation.map_into(out, |x| act.apply(x));
    }

    /// Forward pass without caching (inference-only, avoids the clone).
    ///
    /// This is the simple allocating reference pipeline (`matmul →
    /// broadcast → activate`); the serving engines use
    /// [`Dense::forward_batch`], which computes the same values (bit-exact
    /// per row) without the intermediate allocations.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let pre = input.matmul(&self.weight).add_row_broadcast(&self.bias);
        self.activation.forward(&pre)
    }

    /// Batched inference into a caller-owned buffer through the fused GEMM
    /// epilogue: one kernel computes `σ((x·W) + b)` directly from packed
    /// weight panels ([`PackedWeights`], built lazily on first use and
    /// reused until the weights change), applying bias and activation
    /// while the accumulators are still in registers. No allocation once
    /// `out` has capacity.
    ///
    /// Per-row results are bit-exact with [`Dense::infer`]'s allocating
    /// pipeline and across batch heights, per the [bit-exactness
    /// contract](crate#bit-exactness-contract); the parity proptests in
    /// this crate enforce it.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != self.fan_in()`.
    pub fn forward_batch(&self, input: &Matrix, out: &mut Matrix) {
        let packed = self
            .packed
            .get_or_init(|| PackedWeights::pack(&self.weight));
        input.matmul_bias_act_into(packed, &self.bias, self.activation, out);
    }

    /// Backward pass: consumes `dL/dy`, accumulates `dL/dW`, `dL/db`, and
    /// returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::forward`] or with a gradient whose
    /// shape does not match the cached batch.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let cache = self.cache.as_ref().expect("backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (cache.input.rows(), self.fan_out()),
            "gradient shape mismatch"
        );
        // δ = dL/dy ⊙ σ'(z)
        let delta = grad_output.hadamard(&self.activation.derivative(&cache.pre_activation));
        // dW = xᵀ·δ, db = Σ_batch δ, dx = δ·Wᵀ
        let grad_w = cache.input.matmul_tn(&delta);
        match &mut self.grad_weight {
            Some(g) => g.add_assign(&grad_w),
            None => self.grad_weight = Some(grad_w),
        }
        for (gb, d) in self.grad_bias.iter_mut().zip(delta.column_sums()) {
            *gb += d;
        }
        delta.matmul_nt(&self.weight)
    }

    /// Backward pass into a caller-owned buffer: consumes `dL/dy`,
    /// accumulates `dL/dW`, `dL/db`, and writes `dL/dx` into `grad_input`.
    /// All intermediates (δ, this pass's weight-gradient and bias-sum
    /// contributions) live in reused cache buffers, so steady-state
    /// training steps allocate nothing here.
    ///
    /// Gradient values are bit-exact with [`Dense::backward`]: each pass's
    /// contribution is staged from zero and then added to the accumulator,
    /// exactly like the allocating path.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass or with a gradient whose
    /// shape does not match the cached batch.
    pub fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        let fan_out = self.weight.cols();
        let cache = self.cache.as_mut().expect("backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (cache.input.rows(), fan_out),
            "gradient shape mismatch"
        );
        // δ = dL/dy ⊙ σ'(z), elementwise into the reused buffer.
        let act = self.activation;
        grad_output.zip_into(&cache.pre_activation, &mut cache.delta, |g, z| {
            g * act.derivative_scalar(z)
        });
        // dW = xᵀ·δ, db = Σ_batch δ, dx = δ·Wᵀ
        cache
            .input
            .matmul_tn_into(&cache.delta, &mut cache.grad_w_pass);
        match &mut self.grad_weight {
            Some(g) => g.add_assign(&cache.grad_w_pass),
            None => self.grad_weight = Some(cache.grad_w_pass.clone()),
        }
        cache.delta.column_sums_into(&mut cache.bias_sums);
        for (gb, &d) in self.grad_bias.iter_mut().zip(&cache.bias_sums) {
            *gb += d;
        }
        cache.delta.matmul_nt_into(&self.weight, grad_input);
    }

    /// Clears accumulated gradients. The weight-gradient buffer is kept
    /// (zero-filled) once allocated, so steady-state training steps do not
    /// reallocate it; a zeroed accumulator receives bit-identical values to
    /// a freshly created one.
    pub fn zero_grad(&mut self) {
        if let Some(g) = &mut self.grad_weight {
            g.as_mut_slice().fill(0.0);
        }
        self.grad_bias.fill(0.0);
    }

    /// Visits `(param, grad)` slice pairs in a deterministic order
    /// (weights first, then biases). Optimizers rely on this ordering to
    /// associate their per-parameter state.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        // The visitor gets mutable parameter access (optimizer steps), so
        // any packed snapshot of the weights is stale after this.
        self.invalidate_packed();
        let grad_w = self
            .grad_weight
            .get_or_insert_with(|| Matrix::zeros(self.weight.rows(), self.weight.cols()));
        visitor(self.weight.as_mut_slice(), grad_w.as_mut_slice());
        visitor(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_layer() -> Dense {
        Dense::from_parts(
            Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]),
            vec![0.1, -0.2],
            Activation::Identity,
        )
    }

    #[test]
    fn forward_linear_known_values() {
        let mut l = tiny_layer();
        let y = l.forward(&Matrix::from_rows(&[&[1.0, 1.0]]));
        // [1*1 + 1*0.5 + 0.1, 1*(-1) + 1*2 - 0.2]
        assert_eq!(y.row(0), &[1.6, 0.8]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Dense::new(3, 5, Activation::Relu, Init::HeNormal, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, -0.7, 1.3], &[1.0, 0.0, -1.0]]);
        assert_eq!(l.forward(&x), l.infer(&x));
    }

    #[test]
    fn backward_input_gradient_identity_activation() {
        let mut l = tiny_layer();
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let _ = l.forward(&x);
        let dx = l.backward(&Matrix::from_rows(&[&[1.0, 0.0]]));
        // dL/dx = δ·Wᵀ with δ = [1, 0] → first row of Wᵀ = first col of W = [1, -1]?
        // W is fan_in×fan_out = [[1,-1],[0.5,2]]; δ·Wᵀ = [1*1 + 0*(-1), 1*0.5 + 0*2]
        assert_eq!(dx.row(0), &[1.0, 0.5]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = tiny_layer();
        let x = Matrix::from_rows(&[&[1.0, 0.0]]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        let _ = l.forward(&x);
        let _ = l.backward(&g);
        let mut first_grad = None;
        l.visit_params(&mut |_p, gr| {
            if first_grad.is_none() {
                first_grad = Some(gr.to_vec());
            }
        });
        // dW for one pass = xᵀδ = [[1,1],[0,0]]; accumulated twice → [[2,2],[0,0]]
        assert_eq!(first_grad.unwrap(), vec![2.0, 2.0, 0.0, 0.0]);
        l.zero_grad();
        let mut all_zero = true;
        l.visit_params(&mut |_p, gr| all_zero &= gr.iter().all(|&x| x == 0.0));
        assert!(all_zero);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut l = tiny_layer();
        let _ = l.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn param_count_and_macs() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Dense::new(3, 16, Activation::Relu, Init::HeNormal, &mut rng);
        assert_eq!(l.param_count(), 3 * 16 + 16);
        assert_eq!(l.macs(), 48);
    }

    #[test]
    fn forward_batch_matches_infer() {
        let mut rng = StdRng::seed_from_u64(9);
        let l = Dense::new(3, 7, Activation::LeakyRelu, Init::HeNormal, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, -0.7, 1.3], &[1.0, 0.0, -1.0], &[0.0, 0.0, 0.0]]);
        let mut out = Matrix::zeros(1, 1);
        l.forward_batch(&x, &mut out);
        assert_eq!(out, l.infer(&x));
        // Bitwise, on shapes covering every packed panel width.
        let mut rng = StdRng::seed_from_u64(11);
        for (fan_in, fan_out, act) in [
            (3usize, 16usize, Activation::Relu),
            (16, 32, Activation::Relu),
            (32, 16, Activation::Tanh),
            (16, 1, Activation::Identity),
            (5, 37, Activation::LeakyRelu),
        ] {
            let l = Dense::new(fan_in, fan_out, act, Init::HeNormal, &mut rng);
            let x = Matrix::from_vec(
                6,
                fan_in,
                (0..6 * fan_in).map(|i| (i as f32 * 0.23).sin()).collect(),
            );
            l.forward_batch(&x, &mut out);
            let reference = l.infer(&x);
            assert_eq!(out.shape(), reference.shape());
            for (f, r) in out.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(f.to_bits(), r.to_bits(), "{fan_in}->{fan_out} {act:?}");
            }
        }
    }

    #[test]
    fn fused_packed_cache_invalidated_on_weight_mutation() {
        let mut l = tiny_layer();
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let mut out = Matrix::zeros(1, 1);
        l.forward_batch(&x, &mut out);
        let before = out.clone();
        l.scale_weights(2.0);
        l.forward_batch(&x, &mut out);
        assert_ne!(out, before, "stale packed weights served after scale");
        assert_eq!(out, l.infer(&x));
        // Optimizer-style mutation through visit_params must also repack.
        l.visit_params(&mut |p, _g| {
            for w in p.iter_mut() {
                *w += 0.25;
            }
        });
        l.forward_batch(&x, &mut out);
        assert_eq!(out, l.infer(&x));
    }

    #[test]
    fn forward_cache_reuse_keeps_backward_correct_across_batch_sizes() {
        // The cache buffers are reused across steps; gradients after a
        // larger-then-smaller batch sequence must match a fresh layer's.
        let x_big = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let g_big = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]]);
        let x_small = Matrix::from_rows(&[&[2.0, -1.0]]);
        let g_small = Matrix::from_rows(&[&[1.0, 1.0]]);
        let mut reused = tiny_layer();
        let _ = reused.forward(&x_big);
        let _ = reused.backward(&g_big);
        reused.zero_grad();
        let _ = reused.forward(&x_small);
        let dx_reused = reused.backward(&g_small);
        let mut fresh = tiny_layer();
        let _ = fresh.forward(&x_small);
        let dx_fresh = fresh.backward(&g_small);
        assert_eq!(dx_reused, dx_fresh);
        let mut grads = (Vec::new(), Vec::new());
        reused.visit_params(&mut |_p, g| grads.0.push(g.to_vec()));
        fresh.visit_params(&mut |_p, g| grads.1.push(g.to_vec()));
        assert_eq!(grads.0, grads.1);
    }

    #[test]
    fn scale_weights_leaves_bias_untouched() {
        let mut l = tiny_layer();
        l.scale_weights(2.0);
        assert_eq!(l.weight(), &Matrix::from_rows(&[&[2.0, -2.0], &[1.0, 4.0]]));
        assert_eq!(l.bias(), &[0.1, -0.2]);
    }

    #[test]
    fn serde_roundtrip_preserves_inference() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Dense::new(4, 4, Activation::Tanh, Init::XavierUniform, &mut rng);
        let json = serde_json::to_string(&l).unwrap();
        let l2: Dense = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3, 0.4]]);
        assert_eq!(l.infer(&x), l2.infer(&x));
    }
}
