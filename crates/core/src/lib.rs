//! # pinnsoc
//!
//! Rust reproduction of *"Coupling Neural Networks and Physics Equations For
//! Li-Ion Battery State-of-Charge Prediction"* (Pollo et al., DATE 2025,
//! arXiv:2412.16724).
//!
//! The paper contributes (i) a two-branch fully-connected network — Branch 1
//! estimates the current SoC from `(V, I, T)`, Branch 2 predicts the SoC a
//! horizon `N` into the future from the expected workload — and (ii) a
//! physics-informed training loss that adds the Coulomb-counting equation
//! over randomly generated, label-free conditions, which makes the predictor
//! generalize across horizons it never saw in the data.
//!
//! ## Crate map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`model`] | §III-A: the two-branch architecture (2,322 parameters), plus the batched serving API ([`SocModel::predict_batch`], [`BatchScratch`]) behind `pinnsoc-fleet` |
//! | [`train`](mod@train) | §III-B: split training + Eq. 2 physics loss, decomposed into batcher / objective / epoch loop, plus pool-parallel [`train_many`] and warm-start fine-tuning ([`train_from`], behind `pinnsoc-adapt`) |
//! | [`config`] | the six variants of Figs. 3–4 |
//! | [`eval`] | MAE metrics of Figs. 3–4 and Table I |
//! | [`rollout`] | Fig. 2 / Fig. 5: autoregressive multi-step prediction |
//! | [`baselines`] | Table I: LSTM \[17\], DE-MLP / DE-LSTM \[7\] |
//! | [`ensemble`] | §III-B's SoH extension following \[26\] |
//!
//! The fleet-scale serving layer on top of this crate lives in
//! `pinnsoc-fleet`: sharded per-cell state, micro-batched forward passes
//! (bit-exact with the scalar paths here), and hot-swappable models.
//!
//! ## Quick example
//!
//! ```no_run
//! use pinnsoc::{train, PinnVariant, TrainConfig};
//! use pinnsoc_data::{generate_lg, LgConfig};
//!
//! let dataset = generate_lg(&LgConfig::default());
//! let config = TrainConfig::lg(PinnVariant::pinn_all(&[30.0, 50.0, 70.0]), 42);
//! let (model, report) = train(&dataset, &config);
//! println!("trained {} ({} params)", model.label, model.param_count());
//! let soc_in_70s = model.predict(3.9, 2.5, 25.0, 3.0, 25.0, 70.0);
//! println!("SoC in 70 s under a 1C load: {soc_in_70s:.3}");
//! # let _ = report;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod ensemble;
pub mod eval;
pub mod model;
pub mod quantized;
pub mod rollout;
pub mod train;

pub use baselines::{LstmBaselineConfig, LstmEstimator, MlpBaselineConfig, MlpEstimator};
pub use config::{PinnVariant, TrainConfig};
pub use ensemble::SohEnsemble;
pub use eval::{eval_estimation, eval_prediction, eval_prediction_oracle_soc, EvalReport};
pub use model::{
    BatchScratch, Branch1, Branch2, Branch2Features, PredictQuery, SecondStage, SocModel,
    HIDDEN_WIDTHS,
};
pub use quantized::{model_fingerprint, QuantBatchScratch, QuantizeError, QuantizedSocModel};
// Re-exported so quantization callers can build calibration matrices
// without depending on `pinnsoc-nn` directly.
pub use pinnsoc_nn::Matrix;
pub use rollout::{autoregressive_rollout, Rollout};
pub use train::{
    train, train_from, train_from_with, train_many, train_many_with, TrainReport, TrainTask,
};
