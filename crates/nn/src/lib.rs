//! # pinnsoc-nn
//!
//! A minimal, fully gradient-checked neural-network substrate written for the
//! `pinnsoc` workspace — the Rust reproduction of *"Coupling Neural Networks
//! and Physics Equations For Li-Ion Battery State-of-Charge Prediction"*
//! (DATE 2025).
//!
//! The paper's models are small (the whole two-branch network is 2,322
//! parameters), so this crate favours correctness and auditability over raw
//! speed: plain `f32` matrices, explicit backpropagation, and
//! finite-difference gradient checking for every layer type.
//!
//! ## Bit-exactness contract
//!
//! The workspace serves the same model through two inference pipelines —
//! the scalar reference [`Mlp::infer`] and the batched fused
//! packed-weight path [`Mlp::forward_batch`] — plus the scratch-reusing
//! training passes [`Mlp::forward_train`] / [`Mlp::backward_train`], and
//! the layers
//! above (`pinnsoc`, `pinnsoc-fleet`) promise that all of them compute
//! **bitwise identical** results per row (for training: identical
//! predictions *and* identical accumulated gradients to
//! [`Mlp::forward`] / [`Mlp::backward`]). That promise rests on three
//! invariants,
//! which every kernel in this crate must preserve:
//!
//! 1. **Ascending-`k` accumulation.** Each output element of a GEMM is the
//!    sum `Σ_k a[i,k]·b[k,j]` accumulated in ascending `k` order, one `f32`
//!    add per step, regardless of tile size, batch height, row blocking, or
//!    weight packing. Float addition is not associative, so any reordering
//!    (tree reductions, SIMD shuffles, `mul_add`) would break parity.
//!    The AVX2 f32 kernels in [`kernel`] honour this by vectorizing
//!    across the *output column* dimension only — each lane is an
//!    independent ascending-`k` accumulator with separate multiply and
//!    add instructions (no FMA) — so **f32 results are bit-identical on
//!    every kernel path** (`scalar` and `sse2` both run the scalar
//!    kernels), proptested in `tests/proptest_nn.rs`. The int8 path
//!    accumulates in `i32` (exact integer arithmetic, so its scalar
//!    reference and SIMD chain trivially agree, also proptested) and
//!    carries an analytic quantization-error bound against f32 instead;
//!    see [`quant`].
//! 2. **Row independence.** A row's result never depends on which other
//!    rows share its batch; batching is purely a storage/layout concern.
//! 3. **Epilogue equivalence.** Bias and activation are applied to the
//!    fully accumulated sum as `act(acc + bias)` — whether as a separate
//!    elementwise pass ([`Matrix::matmul_into`] + sweep) or inside the
//!    fused epilogue ([`Matrix::matmul_bias_act_into`]), the arithmetic per
//!    element is identical.
//!
//! Enforced by unit tests in [`matrix`], [`dense`], and [`mlp`], parity
//! proptests in `tests/proptest_nn.rs`, and the batched-vs-scalar tests in
//! `pinnsoc` and `pinnsoc-fleet`. When touching any forward path, keep all
//! pipelines in sync or the fleet parity suite will fail.
//!
//! ## What's inside
//!
//! - [`matrix::Matrix`] — dense row-major `f32` matrix with shape-checked ops.
//! - [`dense::Dense`] / [`mlp::Mlp`] — fully-connected layers and networks
//!   (the paper's Branch 1 and Branch 2 are `Mlp`s).
//! - [`lstm::Lstm`] — single-layer LSTM with BPTT, for the Table I baselines.
//! - [`loss::Loss`] — MAE / MSE / Huber with analytic gradients.
//! - [`optim`] — SGD, momentum, Adam, and LR schedules.
//! - [`account`] — parameter / MAC / memory accounting (Table I columns).
//! - [`gradcheck`] — finite-difference gradient verification.
//! - [`persist`] — JSON model serialization.
//!
//! ## Quick example
//!
//! ```
//! use pinnsoc_nn::{Activation, Adam, Init, Loss, Matrix, Mlp, Optimizer};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, Init::HeNormal, &mut rng);
//! let mut opt = Adam::new(0.01);
//! let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let y = Matrix::from_rows(&[&[1.0], &[-1.0]]);
//! for _ in 0..100 {
//!     let pred = net.forward(&x);
//!     let grad = Loss::Mae.gradient(&pred, &y);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net);
//! }
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `std::arch` SIMD intrinsics inside `kernel`, each with a
// `// SAFETY:` comment. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod account;
pub mod activation;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod kernel;
pub mod loss;
pub mod lstm;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod persist;
pub mod quant;

pub use account::{Account, CostReport, LstmQuery};
pub use activation::Activation;
pub use dense::Dense;
pub use gradcheck::{check_mlp_gradients, GradCheckReport};
pub use init::Init;
pub use kernel::KernelPath;
pub use loss::{mae, max_abs_error, rmse, Loss};
pub use lstm::Lstm;
pub use matrix::{Matrix, PackedWeights};
pub use mlp::{InferScratch, Mlp, TrainScratch};
pub use optim::{Adam, LrSchedule, Optimizer, Sgd, Trainable};
pub use persist::{load_json, save_json, PersistError};
pub use quant::{CalibrationStats, QuantScratch, QuantizedMlp, QuantizedPackedWeights};
