//! Multi-layer perceptron: a stack of [`Dense`] layers with backprop.

use crate::activation::Activation;
use crate::dense::Dense;
use crate::init::Init;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network built from [`Dense`] layers.
///
/// The paper's branches are instances of this type with layer widths
/// `[in, 16, 32, 16, 1]`, ReLU hidden activations, and a linear output
/// (an "inverted bottleneck", §III-A).
///
/// # Examples
///
/// ```
/// use pinnsoc_nn::{Activation, Init, Matrix, Mlp};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // Branch 1 of the paper: (V, I, T) -> SoC(t)
/// let branch1 = Mlp::new(&[3, 16, 32, 16, 1], Activation::Relu, Init::HeNormal, &mut rng);
/// assert_eq!(branch1.param_count(), 1153);
/// let soc = branch1.infer(&Matrix::row_vector(&[3.7, 0.5, 25.0]));
/// assert_eq!(soc.shape(), (1, 1));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Reusable ping-pong buffers for [`Mlp::forward_batch`].
///
/// Keep one per serving thread and steady-state batched inference allocates
/// nothing: each layer writes into one buffer while reading the other.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    ping: Option<Matrix>,
    pong: Option<Matrix>,
}

/// Reusable ping-pong buffers for the scratch-reusing training passes
/// ([`Mlp::forward_train`] / [`Mlp::backward_train`]).
///
/// One instance serves both directions: the forward activations are
/// consumed layer-by-layer (each layer caches its own input), so the
/// backward pass can ping-pong its gradients through the same two buffers.
/// Keep one per training loop and the steady-state step allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    ping: Option<Matrix>,
    pong: Option<Matrix>,
}

impl Mlp {
    /// Builds an MLP from layer `widths`, applying `hidden` activation to all
    /// layers except the last, which is linear ([`Activation::Identity`]).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given (need at least input and
    /// output) or any width is zero.
    pub fn new(widths: &[usize], hidden: Activation, init: Init, rng: &mut impl Rng) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        assert!(
            widths.iter().all(|&w| w > 0),
            "layer widths must be non-zero"
        );
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for w in widths.windows(2) {
            let is_last = layers.len() == widths.len() - 2;
            let act = if is_last {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Dense::new(w[0], w[1], act, init, rng));
        }
        Self { layers }
    }

    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive widths do not chain.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].fan_out(),
                pair[1].fan_in(),
                "layer widths do not chain: {} -> {}",
                pair[0].fan_out(),
                pair[1].fan_in()
            );
        }
        Self { layers }
    }

    /// Network input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Network output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").fan_out()
    }

    /// Borrow of the layer stack.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Multiply–accumulate operations for one forward sample.
    pub fn macs(&self) -> usize {
        self.layers.iter().map(Dense::macs).sum()
    }

    /// Storage footprint of the parameters in bytes (fp32).
    pub fn memory_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Training-mode forward pass (caches activations for [`Mlp::backward`]).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Scratch-reusing training forward pass: each layer runs
    /// [`Dense::forward_train_into`] (fused GEMM-plus-bias over packed
    /// weight panels, activations cached for the backward pass),
    /// ping-ponging between the two scratch buffers so the steady-state
    /// training step performs **zero allocations**. Returns a borrow of the
    /// scratch buffer holding the `batch × output_dim` prediction.
    ///
    /// Outputs are bit-exact with [`Mlp::forward`] (the allocating
    /// training path) per the [bit-exactness
    /// contract](crate#bit-exactness-contract); call [`Mlp::backward_train`]
    /// next, on the same scratch.
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != self.input_dim()`.
    pub fn forward_train<'s>(
        &mut self,
        input: &Matrix,
        scratch: &'s mut TrainScratch,
    ) -> &'s Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "batch feature width mismatch"
        );
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let (src, dst) = if li % 2 == 0 {
                (&scratch.ping, &mut scratch.pong)
            } else {
                (&scratch.pong, &mut scratch.ping)
            };
            let x = if li == 0 {
                input
            } else {
                src.as_ref().expect("previous layer ran")
            };
            let out = dst.get_or_insert_with(|| Matrix::zeros(1, 1));
            layer.forward_train_into(x, out);
        }
        let last = if self.layers.len().is_multiple_of(2) {
            &scratch.ping
        } else {
            &scratch.pong
        };
        last.as_ref().expect("at least one layer ran")
    }

    /// Scratch-reusing backward pass paired with [`Mlp::forward_train`]:
    /// propagates `dL/dy` through [`Dense::backward_into`], accumulating
    /// parameter gradients, with the inter-layer gradients ping-ponging
    /// through the scratch buffers (the forward activations they held are
    /// no longer needed). The input gradient is not returned; use
    /// [`Mlp::backward`] for cascaded networks.
    ///
    /// Accumulated gradients are bit-exact with [`Mlp::backward`].
    pub fn backward_train(&mut self, grad_output: &Matrix, scratch: &mut TrainScratch) {
        let depth = self.layers.len();
        for (li, layer) in self.layers.iter_mut().enumerate().rev() {
            let steps_done = depth - 1 - li;
            let (src, dst) = if steps_done.is_multiple_of(2) {
                (&scratch.pong, &mut scratch.ping)
            } else {
                (&scratch.ping, &mut scratch.pong)
            };
            let g = if steps_done == 0 {
                grad_output
            } else {
                src.as_ref().expect("later layer ran")
            };
            let out = dst.get_or_insert_with(|| Matrix::zeros(1, 1));
            layer.backward_into(g, out);
        }
    }

    /// Inference-only forward pass (no caching).
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Batched inference over a `batch × input_dim` matrix through the
    /// fused GEMM-epilogue kernels ([`Dense::forward_batch`]): per layer,
    /// one kernel computes GEMM + bias + activation from packed weight
    /// panels, ping-ponging between two scratch buffers so steady-state
    /// serving performs **zero allocations** per batch. This is the
    /// serving engines' hot path. Returns a borrow of the scratch buffer
    /// holding the `batch × output_dim` result.
    ///
    /// Per-row outputs are bit-exact with [`Mlp::infer`] /
    /// [`Mlp::infer_scalar`] on the corresponding single row (see the
    /// [bit-exactness contract](crate#bit-exactness-contract)).
    ///
    /// # Panics
    ///
    /// Panics if `input.cols() != self.input_dim()`.
    pub fn forward_batch<'s>(&self, input: &Matrix, scratch: &'s mut InferScratch) -> &'s Matrix {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "batch feature width mismatch"
        );
        for (li, layer) in self.layers.iter().enumerate() {
            let (src, dst) = if li % 2 == 0 {
                (&scratch.ping, &mut scratch.pong)
            } else {
                (&scratch.pong, &mut scratch.ping)
            };
            let x = if li == 0 {
                input
            } else {
                src.as_ref().expect("previous layer ran")
            };
            let out = dst.get_or_insert_with(|| Matrix::zeros(1, 1));
            layer.forward_batch(x, out);
        }
        let last = if self.layers.len().is_multiple_of(2) {
            &scratch.ping
        } else {
            &scratch.pong
        };
        last.as_ref().expect("at least one layer ran")
    }

    /// Convenience scalar inference for single-output networks.
    ///
    /// # Panics
    ///
    /// Panics if the network output width is not 1 or the feature length is
    /// wrong.
    pub fn infer_scalar(&self, features: &[f32]) -> f32 {
        assert_eq!(
            self.output_dim(),
            1,
            "infer_scalar requires a single-output network"
        );
        self.infer(&Matrix::row_vector(features))[(0, 0)]
    }

    /// Backpropagates `dL/dy`, accumulating parameter gradients, and returns
    /// `dL/dx` (useful for cascaded networks).
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears accumulated gradients on all layers.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits all `(param, grad)` slices in a deterministic order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    /// Scales the output layer's weights (not biases) by `factor`.
    ///
    /// Shrinking the final layer at initialization (e.g. `factor = 0.1`) is
    /// the standard small-output-init trick: the network starts near its
    /// mean prediction, which removes the chaotic early phase where large
    /// random outputs can steer composite losses (like the PINN's
    /// data + physics objective) into poor basins.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite.
    pub fn scale_output_weights(&mut self, factor: f32) {
        assert!(factor.is_finite(), "scale factor must be finite");
        self.layers
            .last_mut()
            .expect("non-empty")
            .scale_weights(factor);
    }

    /// Global L2 norm of the accumulated gradients.
    pub fn grad_norm(&mut self) -> f32 {
        let mut sq = 0.0_f32;
        self.visit_params(&mut |_p, g| {
            sq += g.iter().map(|x| x * x).sum::<f32>();
        });
        sq.sqrt()
    }

    /// Scales all gradients so the global norm does not exceed `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.grad_norm();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.visit_params(&mut |_p, g| {
                for x in g.iter_mut() {
                    *x *= scale;
                }
            });
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn paper_branch_parameter_counts() {
        // §III-A: branches have hidden widths 16/32/16; Branch 1 has 3 inputs,
        // Branch 2 has 4. Together: 2,322 parameters ≈ 9 kB fp32.
        let b1 = Mlp::new(
            &[3, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng(),
        );
        let b2 = Mlp::new(
            &[4, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng(),
        );
        assert_eq!(b1.param_count(), 1153);
        assert_eq!(b2.param_count(), 1169);
        assert_eq!(b1.param_count() + b2.param_count(), 2322);
        assert_eq!(b1.memory_bytes() + b2.memory_bytes(), 9288);
    }

    #[test]
    fn forward_shapes() {
        let mut m = Mlp::new(&[3, 8, 1], Activation::Relu, Init::HeNormal, &mut rng());
        let y = m.forward(&Matrix::zeros(5, 3));
        assert_eq!(y.shape(), (5, 1));
    }

    #[test]
    fn infer_matches_forward() {
        let mut m = Mlp::new(
            &[2, 4, 4, 1],
            Activation::Tanh,
            Init::XavierUniform,
            &mut rng(),
        );
        let x = Matrix::from_rows(&[&[0.3, -0.8], &[1.2, 0.4]]);
        assert_eq!(m.forward(&x), m.infer(&x));
    }

    #[test]
    fn last_layer_is_linear() {
        let m = Mlp::new(&[2, 4, 1], Activation::Relu, Init::HeNormal, &mut rng());
        assert_eq!(m.layers()[1].activation(), Activation::Identity);
        assert_eq!(m.layers()[0].activation(), Activation::Relu);
    }

    #[test]
    fn training_reduces_loss_on_linear_target() {
        use crate::loss::Loss;
        use crate::optim::{Adam, Optimizer};
        // y = 2a - b; an MLP should fit this quickly.
        let mut m = Mlp::new(&[2, 8, 1], Activation::Relu, Init::HeNormal, &mut rng());
        let mut opt = Adam::new(0.01);
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.5, 0.25],
        ]);
        let y = Matrix::from_rows(&[&[0.0], &[2.0], &[-1.0], &[1.0], &[0.75]]);
        let initial = Loss::Mse.value(&m.infer(&x), &y);
        for _ in 0..500 {
            let pred = m.forward(&x);
            let grad = Loss::Mse.gradient(&pred, &y);
            m.zero_grad();
            m.backward(&grad);
            opt.step(&mut m);
        }
        let fin = Loss::Mse.value(&m.infer(&x), &y);
        assert!(
            fin < initial * 0.05,
            "loss {initial} -> {fin} did not improve enough"
        );
    }

    #[test]
    fn grad_clip_bounds_norm() {
        let mut m = Mlp::new(&[2, 16, 1], Activation::Relu, Init::HeNormal, &mut rng());
        let x = Matrix::from_rows(&[&[10.0, -10.0]]);
        let y = m.forward(&x);
        m.backward(&y.map(|_| 100.0));
        let pre = m.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        assert!(m.grad_norm() <= 1.0 + 1e-4);
    }

    #[test]
    fn cascaded_backward_returns_input_gradient() {
        let mut m = Mlp::new(&[3, 4, 1], Activation::Relu, Init::HeNormal, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let _ = m.forward(&x);
        let dx = m.backward(&Matrix::from_rows(&[&[1.0]]));
        assert_eq!(dx.shape(), (1, 3));
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn mismatched_layers_panic() {
        let mut r = rng();
        let l1 = Dense::new(2, 4, Activation::Relu, Init::HeNormal, &mut r);
        let l2 = Dense::new(5, 1, Activation::Identity, Init::HeNormal, &mut r);
        let _ = Mlp::from_layers(vec![l1, l2]);
    }

    #[test]
    fn forward_batch_rows_bitwise_match_scalar_inference() {
        let m = Mlp::new(
            &[3, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng(),
        );
        let mut rows = Vec::new();
        for i in 0..37 {
            let t = i as f32 / 36.0;
            rows.push([t, 1.0 - 2.0 * t, (t - 0.5) * 3.0]);
        }
        let x = Matrix::from_vec(rows.len(), 3, rows.iter().flatten().copied().collect());
        let mut scratch = InferScratch::default();
        let batch = m.forward_batch(&x, &mut scratch).clone();
        assert_eq!(batch.shape(), (rows.len(), 1));
        for (i, row) in rows.iter().enumerate() {
            let scalar = m.infer_scalar(row);
            assert_eq!(
                batch[(i, 0)].to_bits(),
                scalar.to_bits(),
                "row {i}: batch {} vs scalar {scalar}",
                batch[(i, 0)]
            );
        }
        // Scratch reuse across differently sized batches stays correct.
        let x2 = x.slice_rows(0, 5);
        let batch2 = m.forward_batch(&x2, &mut scratch);
        assert_eq!(batch2.shape(), (5, 1));
        assert_eq!(batch2[(4, 0)].to_bits(), batch[(4, 0)].to_bits());
    }

    #[test]
    fn forward_batch_matches_infer_on_multi_output_networks() {
        let m = Mlp::new(
            &[4, 8, 3],
            Activation::Tanh,
            Init::XavierUniform,
            &mut rng(),
        );
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.7, 0.0], &[1.0, 0.5, -0.5, 2.0]]);
        let mut scratch = InferScratch::default();
        assert_eq!(m.forward_batch(&x, &mut scratch), &m.infer(&x));
    }

    #[test]
    fn train_path_matches_classic_path_bitwise() {
        use crate::loss::Loss;
        use crate::optim::{Adam, Optimizer};
        // The scratch-reusing fused training path must reproduce the
        // allocating path bit-for-bit: predictions, accumulated gradients
        // (including a second weighted backward per step, as the PINN
        // objective performs), and the resulting weight trajectories.
        let x = Matrix::from_vec(10, 3, (0..30).map(|i| (i as f32 * 0.29).sin()).collect());
        let y = Matrix::from_vec(10, 1, (0..10).map(|i| (i as f32 * 0.13).cos()).collect());
        let x2 = Matrix::from_vec(6, 3, (0..18).map(|i| (i as f32 * 0.41).cos()).collect());
        let y2 = Matrix::from_vec(6, 1, (0..6).map(|i| (i as f32 * 0.57).sin()).collect());
        let mut classic = Mlp::new(
            &[3, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng(),
        );
        let mut fused = classic.clone();
        let mut opt_c = Adam::new(0.01);
        let mut opt_f = Adam::new(0.01);
        let mut scratch = TrainScratch::default();
        let mut grad_buf = Matrix::zeros(1, 1);
        for step in 0..20 {
            // Classic step: data term + weighted auxiliary term.
            let pred = classic.forward(&x);
            let grad = Loss::Mae.gradient(&pred, &y);
            classic.zero_grad();
            classic.backward(&grad);
            let pred2 = classic.forward(&x2);
            let grad2 = Loss::Mae.gradient(&pred2, &y2).scale(0.7);
            classic.backward(&grad2);
            opt_c.step(&mut classic);
            // Fused scratch-reusing step.
            {
                let pred_f = fused.forward_train(&x, &mut scratch);
                assert_eq!(pred_f.shape(), pred.shape());
                for (a, b) in pred_f.as_slice().iter().zip(pred.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "step {step}: prediction");
                }
                Loss::Mae.gradient_into(pred_f, &y, &mut grad_buf);
            }
            fused.zero_grad();
            fused.backward_train(&grad_buf, &mut scratch);
            {
                let pred2_f = fused.forward_train(&x2, &mut scratch);
                Loss::Mae.gradient_into(pred2_f, &y2, &mut grad_buf);
            }
            grad_buf.map_inplace(|g| g * 0.7);
            fused.backward_train(&grad_buf, &mut scratch);
            // Accumulated gradients must match bitwise before the step.
            let mut grads = (Vec::new(), Vec::new());
            classic.visit_params(&mut |_p, g| grads.0.extend_from_slice(g));
            fused.visit_params(&mut |_p, g| grads.1.extend_from_slice(g));
            for (i, (a, b)) in grads.0.iter().zip(&grads.1).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "step {step}: grad {i}");
            }
            opt_f.step(&mut fused);
        }
        // Final weights identical -> identical models.
        let probe = Matrix::from_rows(&[&[0.2, -0.4, 0.9]]);
        assert_eq!(
            classic.infer(&probe)[(0, 0)].to_bits(),
            fused.infer(&probe)[(0, 0)].to_bits()
        );
    }

    #[test]
    fn train_path_handles_changing_batch_sizes() {
        use crate::loss::Loss;
        use crate::optim::{Adam, Optimizer};
        // Partial final minibatches shrink the batch height between steps;
        // the reused buffers must track the shape and stay bit-exact.
        let mut classic = Mlp::new(
            &[2, 8, 1],
            Activation::Tanh,
            Init::XavierUniform,
            &mut rng(),
        );
        let mut fused = classic.clone();
        let mut opt_c = Adam::new(0.02);
        let mut opt_f = Adam::new(0.02);
        let mut scratch = TrainScratch::default();
        let mut grad_buf = Matrix::zeros(1, 1);
        for &b in &[7usize, 3, 7, 1, 4] {
            let x = Matrix::from_vec(b, 2, (0..2 * b).map(|i| (i as f32 * 0.31).sin()).collect());
            let y = Matrix::from_vec(b, 1, (0..b).map(|i| i as f32 * 0.1).collect());
            let pred = classic.forward(&x);
            let grad = Loss::Mae.gradient(&pred, &y);
            classic.zero_grad();
            classic.backward(&grad);
            opt_c.step(&mut classic);
            {
                let pred_f = fused.forward_train(&x, &mut scratch);
                Loss::Mae.gradient_into(pred_f, &y, &mut grad_buf);
            }
            fused.zero_grad();
            fused.backward_train(&grad_buf, &mut scratch);
            opt_f.step(&mut fused);
        }
        let probe = Matrix::from_rows(&[&[0.5, -0.25]]);
        assert_eq!(
            classic.infer(&probe)[(0, 0)].to_bits(),
            fused.infer(&probe)[(0, 0)].to_bits()
        );
    }

    #[test]
    fn scale_output_weights_scales_predictions_linearly() {
        let mut m = Mlp::new(&[2, 4, 1], Activation::Relu, Init::HeNormal, &mut rng());
        let x = Matrix::from_rows(&[&[0.3, -0.9]]);
        let before = m.infer(&x)[(0, 0)];
        m.scale_output_weights(0.5);
        let after = m.infer(&x)[(0, 0)];
        // Output layer is linear with zero bias at init, so scaling weights
        // halves the prediction.
        assert!((after - 0.5 * before).abs() < 1e-6, "{before} -> {after}");
    }

    #[test]
    fn serde_roundtrip_preserves_inference() {
        let m = Mlp::new(
            &[3, 16, 32, 16, 1],
            Activation::Relu,
            Init::HeNormal,
            &mut rng(),
        );
        let json = serde_json::to_string(&m).unwrap();
        let m2: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::row_vector(&[0.1, 0.9, 0.5]);
        assert_eq!(m.infer(&x), m2.infer(&x));
    }
}
