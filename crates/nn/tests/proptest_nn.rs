//! Property-based tests for the NN substrate: algebraic identities of the
//! matrix kernels, analytic properties of activations and losses, and the
//! bit-exactness contract between the scalar and batched inference
//! pipelines and across kernel paths (see the `pinnsoc_nn` crate docs).

use pinnsoc_nn::matrix::PackedWeights;
use pinnsoc_nn::{
    Activation, CalibrationStats, Dense, InferScratch, Init, KernelPath, Loss, Matrix, Mlp,
    QuantScratch, QuantizedMlp,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a matrix of the given shape with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a matrix with *random* shape within the given bounds.
fn sized_matrix(
    rows: impl Strategy<Value = usize>,
    cols: impl Strategy<Value = usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| matrix(r, c))
}

fn any_activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Relu),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
        Just(Activation::Identity),
        Just(Activation::LeakyRelu),
    ]
}

/// Every kernel path; paths the host cannot run clamp to its best one.
const PATHS: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Sse2, KernelPath::Avx2];

/// Strategy: five per-layer activations for a quantized network. Half the
/// draws are ReLU/Identity only (the int8 SIMD chain), the other half mix
/// in at least one Tanh/Sigmoid/LeakyReLU at position 0 (the scalar int8
/// reference on every path).
fn int8_activation_mix() -> impl Strategy<Value = Vec<Activation>> {
    let chain = prop_oneof![Just(Activation::Relu), Just(Activation::Identity)];
    let other = prop_oneof![
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
        Just(Activation::LeakyRelu),
    ];
    prop_oneof![
        proptest::collection::vec(chain, 5usize),
        (proptest::collection::vec(any_activation(), 5usize), other).prop_map(|(mut acts, a)| {
            acts[0] = a;
            acts
        }),
    ]
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{x} vs {y}"
        );
    }
}

proptest! {
    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-3);
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&left, &right, 1e-3);
    }

    #[test]
    fn transpose_of_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-4);
    }

    #[test]
    fn fused_transpose_kernels_match_explicit(a in matrix(5, 3), b in matrix(5, 4), c in matrix(4, 3)) {
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-4);
        assert_close(&a.matmul_nt(&c), &a.matmul(&c.transpose()), 1e-4);
    }

    #[test]
    fn addition_commutes(a in matrix(4, 4), b in matrix(4, 4)) {
        assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn hadamard_with_ones_is_identity(a in matrix(3, 5)) {
        let ones = Matrix::full(3, 5, 1.0);
        assert_eq!(a.hadamard(&ones), a);
    }

    #[test]
    fn column_sums_linear(a in matrix(4, 3), b in matrix(4, 3)) {
        let sum: Vec<f32> = a.add(&b).column_sums();
        let separate: Vec<f32> = a
            .column_sums()
            .iter()
            .zip(b.column_sums())
            .map(|(x, y)| x + y)
            .collect();
        for (s, t) in sum.iter().zip(&separate) {
            prop_assert!((s - t).abs() < 1e-3);
        }
    }

    #[test]
    fn vstack_preserves_rows(a in matrix(2, 3), b in matrix(4, 3)) {
        let stacked = a.vstack(&b);
        prop_assert_eq!(stacked.shape(), (6, 3));
        prop_assert_eq!(stacked.row(1), a.row(1));
        prop_assert_eq!(stacked.row(3), b.row(1));
    }

    #[test]
    fn gather_rows_matches_indexing(a in matrix(5, 3), idx in proptest::collection::vec(0usize..5, 1..8)) {
        let g = a.gather_rows(&idx);
        for (out_row, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), a.row(src));
        }
    }

    /// Bit-exactness contract, kernel level: the fused packed-weight GEMM
    /// must reproduce `matmul → bias broadcast → activation` bit-for-bit
    /// across random shapes (covering every tile width incl. tails) and
    /// activations.
    #[test]
    fn fused_gemm_bitwise_matches_unfused_pipeline(
        x in sized_matrix(1usize..12, 1usize..24),
        fan_out in 1usize..40,
        bias_seed in -3.0f32..3.0,
        act in any_activation(),
    ) {
        let k = x.cols();
        let w = Matrix::from_vec(
            k,
            fan_out,
            (0..k * fan_out).map(|i| ((i as f32) * 0.37 + bias_seed).sin()).collect(),
        );
        let bias: Vec<f32> = (0..fan_out).map(|i| (i as f32 * 0.19 - bias_seed).cos()).collect();
        let packed = PackedWeights::pack(&w);
        let mut fused = Matrix::zeros(1, 1);
        x.matmul_bias_act_into(&packed, &bias, act, &mut fused);
        let mut reference = x.matmul(&w).add_row_broadcast(&bias);
        reference.map_inplace(|v| act.apply(v));
        prop_assert_eq!(fused.shape(), reference.shape());
        for (f, r) in fused.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(f.to_bits(), r.to_bits(), "{} vs {}", f, r);
        }
    }

    /// Bit-exactness contract, kernel paths: the fused GEMM and the plain,
    /// transposed-lhs and transposed-rhs GEMMs are bit-identical on every
    /// kernel path (AVX2 kernels on `avx2`, scalar kernels on `scalar` and
    /// `sse2`) across random shapes covering every strip width and tail.
    #[test]
    fn f32_kernel_paths_bitwise_agree(
        x in sized_matrix(1usize..22, 1usize..24),
        fan_out in 1usize..41,
        seed in -3.0f32..3.0,
        act in any_activation(),
    ) {
        let (m, k) = x.shape();
        let w = Matrix::from_vec(
            k,
            fan_out,
            (0..k * fan_out).map(|i| ((i as f32) * 0.37 + seed).sin()).collect(),
        );
        let bias: Vec<f32> = (0..fan_out).map(|i| (i as f32 * 0.19 - seed).cos()).collect();
        // `matmul_tn` pairs rows of `x` with rows of `y`; `matmul_nt` pairs
        // columns of `x` with columns of `z`. Zeros exercise the rank-1
        // update's exact-zero skip.
        let y = Matrix::from_vec(
            m,
            fan_out,
            (0..m * fan_out).map(|i| if i % 7 == 0 { 0.0 } else { (i as f32 * 0.53 - seed).cos() }).collect(),
        );
        let z = w.transpose();
        let packed = PackedWeights::pack(&w);
        let run = |path: KernelPath| {
            let mut outs = [Matrix::zeros(1, 1), Matrix::zeros(1, 1), Matrix::zeros(1, 1), Matrix::zeros(1, 1)];
            x.matmul_bias_act_into_with(&packed, &bias, act, &mut outs[0], path);
            x.matmul_into_with(&w, &mut outs[1], path);
            x.matmul_tn_into_with(&y, &mut outs[2], path);
            x.matmul_nt_into_with(&z, &mut outs[3], path);
            outs
        };
        let reference = run(KernelPath::Scalar);
        for path in PATHS {
            for (op, (out, r)) in run(path).iter().zip(&reference).enumerate() {
                prop_assert_eq!(out.shape(), r.shape());
                for (a, b) in out.as_slice().iter().zip(r.as_slice()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} op {}: {} vs scalar {}", path, op, a, b);
                }
            }
        }
    }

    /// Bit-exactness contract, int8 paths: `QuantizedMlp::forward_batch_with`
    /// is bit-identical on every kernel path across random widths (odd
    /// depths, ragged 8-column panels), batch heights, and activation
    /// mixes, with inputs past the calibrated range so quantization clamps.
    #[test]
    fn int8_kernel_paths_bitwise_agree(
        widths in proptest::collection::vec(1usize..=40, 2..6),
        batch in 1usize..=21,
        mix in int8_activation_mix(),
        rotate in 0usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer_count = widths.len() - 1;
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                let act = mix[(l + rotate) % layer_count];
                Dense::new(w[0], w[1], act, Init::HeNormal, &mut rng)
            })
            .collect();
        let mlp = Mlp::from_layers(layers);
        let x = Matrix::from_vec(
            batch,
            widths[0],
            (0..batch * widths[0]).map(|i| ((i as f32) * 0.73 + seed as f32).sin() * 2.0).collect(),
        );
        let mut calib = CalibrationStats::new(layer_count);
        calib.observe(&mlp, &x.map(|v| v * 0.75));
        let qmlp = QuantizedMlp::quantize(&mlp, &calib);
        let mut scratch = QuantScratch::default();
        let reference = qmlp.forward_batch_with(&x, &mut scratch, KernelPath::Scalar).clone();
        prop_assert_eq!(reference.shape(), (batch, widths[layer_count]));
        for path in PATHS {
            let out = qmlp.forward_batch_with(&x, &mut scratch, path);
            for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} {:?}: {} vs scalar {}", path, widths, a, b);
            }
        }
    }

    /// Bit-exactness contract, layer level: `infer` and `forward_batch`
    /// agree bit-exactly per row across random layer shapes, batch
    /// heights, and activations.
    #[test]
    fn dense_pipelines_bitwise_agree(
        fan_in in 1usize..20,
        fan_out in 1usize..40,
        batch in 1usize..12,
        seed in 0u64..1000,
        act in any_activation(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = Dense::new(fan_in, fan_out, act, Init::HeNormal, &mut rng);
        let x = Matrix::from_vec(
            batch,
            fan_in,
            (0..batch * fan_in).map(|i| (i as f32 * 0.29 + seed as f32).sin() * 2.0).collect(),
        );
        let scalar_rows: Vec<Matrix> = (0..batch)
            .map(|r| layer.infer(&Matrix::row_vector(x.row(r))))
            .collect();
        let mut batched = Matrix::zeros(1, 1);
        layer.forward_batch(&x, &mut batched);
        prop_assert_eq!(batched.shape(), (batch, fan_out));
        for r in 0..batch {
            for c in 0..fan_out {
                let s = scalar_rows[r][(0, c)];
                prop_assert_eq!(batched[(r, c)].to_bits(), s.to_bits(), "batch ({},{})", r, c);
            }
        }
    }

    /// Bit-exactness contract, network level: full MLPs agree across the
    /// two pipelines for random widths/depths/batch heights, including
    /// scratch reuse between differently-sized batches.
    #[test]
    fn mlp_pipelines_bitwise_agree(
        widths in proptest::collection::vec(1usize..24, 2..5),
        batch in 1usize..10,
        seed in 0u64..1000,
        act in any_activation(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&widths, act, Init::HeNormal, &mut rng);
        let fan_in = widths[0];
        let x = Matrix::from_vec(
            batch,
            fan_in,
            (0..batch * fan_in).map(|i| ((i as f32) * 0.41 - 1.0).cos() * 1.5).collect(),
        );
        let mut scratch = InferScratch::default();
        let batched = mlp.forward_batch(&x, &mut scratch).clone();
        let scalar = mlp.infer(&x);
        prop_assert_eq!(batched.shape(), scalar.shape());
        for (b, s) in batched.as_slice().iter().zip(scalar.as_slice()) {
            prop_assert_eq!(b.to_bits(), s.to_bits(), "batched {} vs scalar {}", b, s);
        }
        // Reusing the same scratch for a single-row batch must not change
        // row results (row independence).
        let first_row = mlp.forward_batch(&Matrix::row_vector(x.row(0)), &mut scratch);
        prop_assert_eq!(first_row[(0, 0)].to_bits(), scalar[(0, 0)].to_bits());
    }

    #[test]
    fn sigmoid_bounded_and_monotone(x in -50.0f32..50.0, y in -50.0f32..50.0) {
        let s = Activation::Sigmoid;
        let sx = s.apply(x);
        prop_assert!((0.0..=1.0).contains(&sx));
        if x < y {
            prop_assert!(sx <= s.apply(y));
        }
    }

    #[test]
    fn relu_is_idempotent(x in -100.0f32..100.0) {
        let r = Activation::Relu;
        prop_assert_eq!(r.apply(r.apply(x)), r.apply(x));
        prop_assert!(r.apply(x) >= 0.0);
    }

    #[test]
    fn tanh_odd_function(x in -10.0f32..10.0) {
        let t = Activation::Tanh;
        prop_assert!((t.apply(-x) + t.apply(x)).abs() < 1e-5);
    }

    #[test]
    fn losses_are_nonnegative_and_zero_at_target(p in matrix(2, 3)) {
        for loss in [Loss::Mae, Loss::Mse, Loss::Huber(1.0)] {
            prop_assert!(loss.value(&p, &p).abs() < 1e-9);
            let shifted = p.map(|x| x + 1.0);
            prop_assert!(loss.value(&shifted, &p) > 0.0);
        }
    }

    #[test]
    fn mae_is_translation_invariant(p in matrix(2, 2), shift in -5.0f32..5.0) {
        let t = Matrix::zeros(2, 2);
        let a = Loss::Mae.value(&p, &t);
        let b = Loss::Mae.value(&p.map(|x| x + shift), &t.map(|x| x + shift));
        prop_assert!((a - b).abs() < 1e-4);
    }

    #[test]
    fn loss_gradient_points_uphill(p in matrix(1, 4), t in matrix(1, 4)) {
        // Moving a small step along the gradient must not decrease the loss.
        for loss in [Loss::Mse, Loss::Huber(0.5)] {
            let g = loss.gradient(&p, &t);
            let eps = 1e-3;
            let stepped = p.add(&g.scale(eps));
            prop_assert!(loss.value(&stepped, &t) >= loss.value(&p, &t) - 1e-6);
        }
    }
}
