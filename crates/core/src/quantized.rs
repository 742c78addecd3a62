//! Int8 quantized serving: [`QuantizedSocModel`] wraps a trained
//! [`SocModel`] with per-layer-calibrated [`QuantizedMlp`] networks for
//! both branches, exposing the same batched serving entry points the fleet
//! engine drives (`estimate_features_into` / `predict_uniform_into`).
//!
//! The quantized model is a *derived artifact*: it keeps an `Arc` to its
//! f32 source and a [`model_fingerprint`] of the source weights, so the
//! serving registry can verify — at installation time — that a quantized
//! candidate really was built from the incumbent it would shadow.
//! Featurization (normalizers, horizon scaling) is shared with the source
//! model bit-for-bit; only the network forward passes run int8, carrying
//! the `pinnsoc_nn::quant` error contract (analytic per-layer bounds,
//! path-bit-identical kernels) instead of f32 bit-exactness. Whether the
//! accumulated error is acceptable is decided end-to-end by the
//! `pinnsoc_scenario` promotion gate, never assumed here.

use crate::model::{SecondStage, SocModel};
use pinnsoc_nn::{CalibrationStats, Matrix, Mlp, QuantScratch, QuantizedMlp};
use std::sync::Arc;

/// FNV-1a over a stream of f32 bit patterns.
fn fnv1a_f32s(hash: &mut u64, values: &[f32]) {
    for &v in values {
        for byte in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn fnv1a_mlp(hash: &mut u64, mlp: &Mlp) {
    for layer in mlp.layers() {
        fnv1a_f32s(hash, layer.weight().as_slice());
        fnv1a_f32s(hash, layer.bias());
    }
}

/// Order-sensitive fingerprint of a model's numeric parameters (both
/// branches' weights and biases, or the Coulomb capacity): two models
/// fingerprint equal iff their served arithmetic is identical. Labels and
/// normalizer provenance are deliberately excluded — the fingerprint binds
/// a quantized artifact to the *weights* it approximates.
pub fn model_fingerprint(model: &SocModel) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    fnv1a_mlp(&mut hash, model.branch1.net());
    match &model.stage2 {
        SecondStage::Network(b2) => fnv1a_mlp(&mut hash, b2.net()),
        SecondStage::Coulomb { capacity_ah } => {
            let bits = capacity_ah.to_bits();
            fnv1a_f32s(&mut hash, &[bits as u32 as f32, (bits >> 32) as u32 as f32]);
        }
    }
    hash
}

/// Why a quantization attempt was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantizeError {
    /// A calibration pass left some layer with an all-zero input range —
    /// the calibration set never exercised that branch meaningfully, so no
    /// sane activation scale exists.
    UninformativeCalibration {
        /// Which branch failed ("branch1" / "branch2").
        branch: &'static str,
    },
    /// The model's second stage is a network but no Branch-2 calibration
    /// inputs were supplied.
    MissingBranch2Calibration,
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantizeError::UninformativeCalibration { branch } => {
                write!(f, "calibration left {branch} with an all-zero input range")
            }
            QuantizeError::MissingBranch2Calibration => {
                write!(
                    f,
                    "second stage is a network but no Branch-2 calibration inputs were given"
                )
            }
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Reusable buffers for the batched [`QuantizedSocModel`] paths — the
/// int8 counterpart of [`crate::BatchScratch`]; keep one per serving
/// thread.
#[derive(Debug, Clone, Default)]
pub struct QuantBatchScratch {
    b1: QuantScratch,
    b2: QuantScratch,
    features: Option<Matrix>,
    soc_now: Vec<f64>,
}

impl QuantBatchScratch {
    /// Reusable feature buffer; every caller assigns all elements before
    /// the forward pass.
    fn features_buffer(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        let m = self.features.get_or_insert_with(|| Matrix::zeros(1, 1));
        m.reset_for_overwrite(rows, cols);
        m
    }
}

/// A [`SocModel`] quantized for int8 serving: both branch networks as
/// [`QuantizedMlp`]s, featurization and the Coulomb stage shared with the
/// f32 source. See the [module docs](self) for the derived-artifact
/// contract.
#[derive(Debug, Clone)]
pub struct QuantizedSocModel {
    source: Arc<SocModel>,
    b1: QuantizedMlp,
    /// `Some` iff the source's second stage is a network.
    b2: Option<QuantizedMlp>,
    fingerprint: u64,
}

impl QuantizedSocModel {
    /// Quantizes `source` with activation scales calibrated from
    /// `b1_inputs` (normalized `(V, I, T)` feature rows, e.g. built with
    /// [`crate::Branch1::feature_matrix`]) and — when the second stage is
    /// a network — `b2_inputs` (normalized `(SoC, Ī, T̄, N)` rows).
    ///
    /// # Errors
    ///
    /// Fails when a calibration set leaves any layer's input range at
    /// zero, or when a network second stage gets no `b2_inputs`.
    pub fn quantize(
        source: Arc<SocModel>,
        b1_inputs: &Matrix,
        b2_inputs: Option<&Matrix>,
    ) -> Result<Self, QuantizeError> {
        let calibrated = |net: &Mlp, inputs: &Matrix, branch| {
            let mut calib = CalibrationStats::new(net.layers().len());
            calib.observe(net, inputs);
            if calib.is_informative() {
                Ok(QuantizedMlp::quantize(net, &calib))
            } else {
                Err(QuantizeError::UninformativeCalibration { branch })
            }
        };
        let b1 = calibrated(source.branch1.net(), b1_inputs, "branch1")?;
        let b2 = match &source.stage2 {
            SecondStage::Network(b2) => {
                let inputs = b2_inputs.ok_or(QuantizeError::MissingBranch2Calibration)?;
                Some(calibrated(b2.net(), inputs, "branch2")?)
            }
            SecondStage::Coulomb { .. } => None,
        };
        let fingerprint = model_fingerprint(&source);
        Ok(Self {
            source,
            b1,
            b2,
            fingerprint,
        })
    }

    /// The f32 model this was quantized from.
    pub fn source(&self) -> &Arc<SocModel> {
        &self.source
    }

    /// [`model_fingerprint`] of the source weights, computed at
    /// quantization time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The source model's human-readable label.
    pub fn label(&self) -> &str {
        &self.source.label
    }

    /// Heap bytes of the quantized networks (weights, biases, scales).
    pub fn memory_bytes(&self) -> usize {
        self.b1.memory_bytes() + self.b2.as_ref().map_or(0, QuantizedMlp::memory_bytes)
    }

    /// Int8 instantaneous SoC estimate from one sensor reading —
    /// featurized by the shared f32 normalizer, inferred by the quantized
    /// Branch 1. Spot-check counterpart of [`SocModel::estimate`].
    pub fn estimate(&self, voltage_v: f64, current_a: f64, temperature_c: f64) -> f64 {
        let f = self
            .source
            .branch1
            .features(voltage_v, current_a, temperature_c);
        self.b1.infer_scalar(&f) as f64
    }

    /// Batched int8 Branch-1 estimation over an already normalized
    /// `batch × 3` feature matrix — the quantized counterpart of
    /// [`SocModel::estimate_features_into`], sharing its gather seam: the
    /// features come from the same normalizer, so f32 and int8 serving
    /// differ only in the network pass.
    ///
    /// Appends one estimate per row to `out`. Results are bit-identical
    /// across kernel paths and batch splits (the `pinnsoc_nn::quant`
    /// contract), but NOT bit-identical to f32 — they carry the quantized
    /// error bound instead.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != 3`.
    pub fn estimate_features_into(
        &self,
        features: &Matrix,
        scratch: &mut QuantBatchScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(features.cols(), 3, "Branch 1 features are (V, I, T)");
        let estimates = self.b1.forward_batch(features, &mut scratch.b1);
        out.extend(estimates.as_slice().iter().map(|&soc| soc as f64));
    }

    /// Batched int8 full-pipeline prediction for one uniform workload —
    /// the quantized counterpart of [`SocModel::predict_uniform_into`].
    /// The Branch-2 feature tail is normalized once through the shared
    /// f32 featurizer; a Coulomb second stage runs the identical closed
    /// form (only its SoC input carries quantization error).
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != 3`.
    pub fn predict_uniform_into(
        &self,
        features: &Matrix,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
        scratch: &mut QuantBatchScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(features.cols(), 3, "Branch 1 features are (V, I, T)");
        let rows = features.rows();
        {
            let QuantBatchScratch { b1, soc_now, .. } = scratch;
            let estimates = self.b1.forward_batch(features, b1);
            soc_now.clear();
            soc_now.extend(estimates.as_slice().iter().map(|&soc| soc as f64));
        }
        let soc_now = std::mem::take(&mut scratch.soc_now);
        match (&self.source.stage2, &self.b2) {
            (SecondStage::Network(b2), Some(qnet)) => {
                let tail = b2.uniform_workload(avg_current_a, avg_temperature_c, horizon_s);
                {
                    let b2_features = scratch.features_buffer(rows, 4);
                    for (r, &soc) in soc_now.iter().enumerate() {
                        let row = b2_features.row_mut(r);
                        row[0] = soc as f32;
                        row[1..].copy_from_slice(&tail);
                    }
                }
                let QuantBatchScratch {
                    b2: b2s, features, ..
                } = scratch;
                let preds = qnet.forward_batch(features.as_ref().expect("built"), b2s);
                out.extend(preds.as_slice().iter().map(|&soc| soc as f64));
            }
            (stage @ SecondStage::Coulomb { .. }, None) => {
                out.extend(
                    soc_now.iter().map(|&soc| {
                        stage.predict(soc, avg_current_a, avg_temperature_c, horizon_s)
                    }),
                );
            }
            // `quantize` builds b2 iff the stage is a network.
            _ => unreachable!("quantized stage-2 out of sync with source"),
        }
        scratch.soc_now = soc_now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Branch1, Branch2, PredictQuery};
    use crate::BatchScratch;
    use pinnsoc_data::Normalizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn norm3() -> Normalizer {
        let rows: Vec<Vec<f64>> = vec![vec![3.0, 0.0, 20.0], vec![4.2, 9.0, 30.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Normalizer::fit(refs.iter().copied())
    }

    fn norm2() -> Normalizer {
        let rows: Vec<Vec<f64>> = vec![vec![0.0, 20.0], vec![9.0, 30.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Normalizer::fit(refs.iter().copied())
    }

    fn model(seed: u64) -> SocModel {
        let mut rng = StdRng::seed_from_u64(seed);
        SocModel {
            branch1: Branch1::new(norm3(), &mut rng),
            stage2: SecondStage::Network(Branch2::new(norm2(), 120.0, &mut rng)),
            label: "test".into(),
        }
    }

    fn readings() -> Vec<[f64; 3]> {
        (0..64)
            .map(|i| {
                let t = i as f64 / 63.0;
                [3.0 + 1.2 * t, 9.0 * t - 1.0, 20.0 + 10.0 * t]
            })
            .collect()
    }

    fn queries() -> Vec<PredictQuery> {
        (0..48)
            .map(|i| {
                let t = i as f64 / 47.0;
                PredictQuery {
                    voltage_v: 3.1 + t,
                    current_a: 6.0 * t,
                    temperature_c: 18.0 + 14.0 * t,
                    avg_current_a: 9.0 * t - 0.5,
                    avg_temperature_c: 21.0 + 8.0 * t,
                    horizon_s: 30.0 + 330.0 * t,
                }
            })
            .collect()
    }

    /// Calibration matrices covering the serving ranges above.
    fn calibrate(m: &SocModel) -> (Matrix, Matrix) {
        let b1 = m.branch1.feature_matrix(&readings());
        let rows: Vec<[f64; 4]> = queries()
            .iter()
            .map(|q| [0.8, q.avg_current_a, q.avg_temperature_c, q.horizon_s])
            .collect();
        let b2 = match &m.stage2 {
            SecondStage::Network(b2) => b2.feature_matrix(&rows),
            SecondStage::Coulomb { .. } => unreachable!(),
        };
        (b1, b2)
    }

    fn quantized(seed: u64) -> (Arc<SocModel>, QuantizedSocModel) {
        let m = Arc::new(model(seed));
        let (b1, b2) = calibrate(&m);
        let q = QuantizedSocModel::quantize(Arc::clone(&m), &b1, Some(&b2)).unwrap();
        (m, q)
    }

    #[test]
    fn fingerprint_tracks_weights_not_labels() {
        let mut a = model(1);
        let fp = model_fingerprint(&a);
        a.label = "renamed".into();
        assert_eq!(model_fingerprint(&a), fp, "label must not affect it");
        let b = model(2);
        assert_ne!(model_fingerprint(&b), fp, "different weights");
        let mut c = model(1);
        c.stage2 = SecondStage::Coulomb { capacity_ah: 3.0 };
        assert_ne!(model_fingerprint(&c), fp, "stage-2 swap");
    }

    #[test]
    fn estimates_track_f32_closely_but_not_bitwise() {
        let (m, q) = quantized(3);
        assert_eq!(q.fingerprint(), model_fingerprint(&m));
        let mut fs = BatchScratch::default();
        let mut qs = QuantBatchScratch::default();
        let features = m.branch1.feature_matrix(&readings());
        let (mut f32_out, mut q_out) = (Vec::new(), Vec::new());
        m.estimate_features_into(&features, &mut fs, &mut f32_out);
        q.estimate_features_into(&features, &mut qs, &mut q_out);
        assert_eq!(f32_out.len(), q_out.len());
        let mut max_err = 0.0f64;
        for (a, b) in f32_out.iter().zip(&q_out) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 0.05, "quantized drifted {max_err}");
        // The scalar spot-check agrees with the batched path.
        let r = readings()[7];
        let batched = q_out[7];
        assert_eq!(q.estimate(r[0], r[1], r[2]).to_bits(), batched.to_bits());
    }

    #[test]
    fn predict_uniform_matches_f32_closely_for_both_stages() {
        for coulomb in [false, true] {
            let mut m = model(5);
            if coulomb {
                m.stage2 = SecondStage::Coulomb { capacity_ah: 3.0 };
            }
            let m = Arc::new(m);
            let b1 = m.branch1.feature_matrix(&readings());
            let b2 = match &m.stage2 {
                SecondStage::Network(b2) => {
                    let rows: Vec<[f64; 4]> = queries()
                        .iter()
                        .map(|q| [0.8, q.avg_current_a, q.avg_temperature_c, q.horizon_s])
                        .collect();
                    Some(b2.feature_matrix(&rows))
                }
                SecondStage::Coulomb { .. } => None,
            };
            let q = QuantizedSocModel::quantize(Arc::clone(&m), &b1, b2.as_ref()).unwrap();
            let features = m.branch1.feature_matrix(&readings());
            let mut fs = BatchScratch::default();
            let mut qs = QuantBatchScratch::default();
            let (mut f32_out, mut q_out) = (Vec::new(), Vec::new());
            m.predict_uniform_into(&features, 2.5, 24.0, 180.0, &mut fs, &mut f32_out);
            q.predict_uniform_into(&features, 2.5, 24.0, 180.0, &mut qs, &mut q_out);
            assert_eq!(f32_out.len(), q_out.len());
            for (a, b) in f32_out.iter().zip(&q_out) {
                assert!((a - b).abs() < 0.1, "coulomb={coulomb}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantize_error_paths() {
        let m = Arc::new(model(7));
        let (b1, _) = calibrate(&m);
        match QuantizedSocModel::quantize(Arc::clone(&m), &b1, None) {
            Err(QuantizeError::MissingBranch2Calibration) => {}
            other => panic!("expected missing branch2 calibration, got {other:?}"),
        }
        // All-zero calibration inputs leave layer 0 uninformative.
        let zeros = Matrix::zeros(4, 3);
        let (_, b2) = calibrate(&m);
        match QuantizedSocModel::quantize(Arc::clone(&m), &zeros, Some(&b2)) {
            Err(QuantizeError::UninformativeCalibration { branch: "branch1" }) => {}
            other => panic!("expected uninformative branch1, got {other:?}"),
        }
    }

    #[test]
    fn memory_shrinks_versus_f32_model() {
        let (m, q) = quantized(9);
        assert!(q.memory_bytes() < m.cost().memory_bytes);
        assert_eq!(q.label(), "test");
    }
}
