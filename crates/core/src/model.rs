//! The paper's two-branch network (§III-A) and its Physics-Only sibling.
//!
//! Branch 1 estimates the instantaneous SoC from sensor readings; Branch 2
//! rolls the SoC forward under a described workload. Both branches are
//! inverted-bottleneck MLPs (hidden widths 16/32/16, ReLU, linear scalar
//! output), totalling 2,322 parameters.

use pinnsoc_data::Normalizer;
use pinnsoc_nn::{Account, Activation, CostReport, InferScratch, Init, Matrix, Mlp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hidden layer widths shared by both branches (§III-A).
pub const HIDDEN_WIDTHS: [usize; 3] = [16, 32, 16];

/// Branch 1: `(V, I, T) → SoC(t)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Branch1 {
    net: Mlp,
    norm: Normalizer,
}

impl Branch1 {
    /// Creates an untrained Branch 1 with the given input normalizer
    /// (fit on training features `(V, I, T)`).
    ///
    /// # Panics
    ///
    /// Panics if the normalizer width is not 3.
    pub fn new(norm: Normalizer, rng: &mut impl Rng) -> Self {
        assert_eq!(norm.width(), 3, "Branch 1 expects (V, I, T) normalization");
        let widths = [3, HIDDEN_WIDTHS[0], HIDDEN_WIDTHS[1], HIDDEN_WIDTHS[2], 1];
        Self {
            net: Mlp::new(&widths, Activation::Relu, Init::HeNormal, rng),
            norm,
        }
    }

    /// Normalized feature row for one measurement (allocation-free: the
    /// batched serving path calls this once per cell).
    pub fn features(&self, voltage_v: f64, current_a: f64, temperature_c: f64) -> [f32; 3] {
        let mut row = [voltage_v, current_a, temperature_c];
        self.norm.normalize(&mut row);
        [row[0] as f32, row[1] as f32, row[2] as f32]
    }

    /// The input normalizer's `(means, stds)` over `(V, I, T)`, for batched
    /// gather loops that hoist the constants and apply `(x − mean) / std`
    /// inline — the same operation sequence as [`Self::features`], so the
    /// hoisted form stays bit-identical.
    pub fn norm_stats(&self) -> (&[f64], &[f64]) {
        self.norm.stats()
    }

    /// Estimates SoC from one sensor reading.
    pub fn estimate(&self, voltage_v: f64, current_a: f64, temperature_c: f64) -> f64 {
        let f = self.features(voltage_v, current_a, temperature_c);
        self.net.infer_scalar(&f) as f64
    }

    /// The underlying network (for training and accounting).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access for the trainer.
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Builds the normalized feature matrix for a batch of raw rows.
    pub fn feature_matrix(&self, rows: &[[f64; 3]]) -> Matrix {
        assert!(!rows.is_empty(), "empty batch");
        let mut data = Vec::with_capacity(rows.len() * 3);
        for r in rows {
            let n = self.norm.normalized(r);
            data.extend(n.iter().map(|&x| x as f32));
        }
        Matrix::from_vec(rows.len(), 3, data)
    }
}

/// Branch 2: `(SoC(t), Ī, T̄, N) → SoC(t+N)`.
///
/// SoC enters unnormalized (it is already a fraction); current and
/// temperature are z-scored; the horizon is divided by `horizon_scale_s`
/// so multiples of the data horizon land on comparable magnitudes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Branch2 {
    net: Mlp,
    /// Normalizer over `(Ī, T̄)`.
    norm_it: Normalizer,
    horizon_scale_s: f64,
}

impl Branch2 {
    /// Creates an untrained Branch 2.
    ///
    /// # Panics
    ///
    /// Panics if the normalizer width is not 2 or the horizon scale is not
    /// positive.
    pub fn new(norm_it: Normalizer, horizon_scale_s: f64, rng: &mut impl Rng) -> Self {
        assert_eq!(norm_it.width(), 2, "Branch 2 expects (Ī, T̄) normalization");
        assert!(horizon_scale_s > 0.0, "horizon scale must be positive");
        let widths = [4, HIDDEN_WIDTHS[0], HIDDEN_WIDTHS[1], HIDDEN_WIDTHS[2], 1];
        Self {
            net: Mlp::new(&widths, Activation::Relu, Init::HeNormal, rng),
            norm_it,
            horizon_scale_s,
        }
    }

    /// Normalized feature row for one prediction query (allocation-free:
    /// the batched serving path calls this once per cell).
    pub fn features(
        &self,
        soc_now: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> [f32; 4] {
        b2_feature_row(
            &self.norm_it,
            self.horizon_scale_s,
            soc_now,
            avg_current_a,
            avg_temperature_c,
            horizon_s,
        )
    }

    /// A cloneable snapshot of this branch's featurization (normalizer +
    /// horizon scale). The training objective featurizes physics batches
    /// through this while holding the branch's network mutably; both paths
    /// share `b2_feature_row`, so the rows are bit-identical.
    pub fn featurizer(&self) -> Branch2Features {
        Branch2Features {
            norm_it: self.norm_it.clone(),
            horizon_scale_s: self.horizon_scale_s,
        }
    }

    /// Precomputed feature tail shared by every query of one uniform
    /// workload: `(normalized Ī, normalized T̄, scaled N)`. A batch over a
    /// fleet-wide workload normalizes these once instead of per cell; the
    /// values are identical to what [`Branch2::features`] computes, so the
    /// batched path stays bit-exact with the scalar one.
    pub fn uniform_workload(
        &self,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> [f32; 3] {
        let mut it = [avg_current_a, avg_temperature_c];
        self.norm_it.normalize(&mut it);
        [
            it[0] as f32,
            it[1] as f32,
            (horizon_s / self.horizon_scale_s) as f32,
        ]
    }

    /// Predicts `SoC(t+N)` for one query. Output is unrestricted, as in the
    /// paper (autoregressive rollouts may legitimately overshoot `[0, 1]`).
    pub fn predict(
        &self,
        soc_now: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> f64 {
        let f = self.features(soc_now, avg_current_a, avg_temperature_c, horizon_s);
        self.net.infer_scalar(&f) as f64
    }

    /// The underlying network (for training and accounting).
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// Mutable access for the trainer.
    pub(crate) fn net_mut(&mut self) -> &mut Mlp {
        &mut self.net
    }

    /// Builds the normalized feature matrix for a batch of raw
    /// `(soc, Ī, T̄, N)` rows.
    pub fn feature_matrix(&self, rows: &[[f64; 4]]) -> Matrix {
        assert!(!rows.is_empty(), "empty batch");
        let mut data = Vec::with_capacity(rows.len() * 4);
        for r in rows {
            let f = self.features(r[0], r[1], r[2], r[3]);
            data.extend_from_slice(&f);
        }
        Matrix::from_vec(rows.len(), 4, data)
    }
}

/// The one place Branch-2 feature rows are computed: `(SoC, Ī, T̄, N)` with
/// SoC raw, current/temperature z-scored, and the horizon divided by the
/// scale. [`Branch2::features`] and [`Branch2Features::features`] both
/// delegate here, so the training-time physics featurization can never
/// drift from the serving path.
fn b2_feature_row(
    norm_it: &Normalizer,
    horizon_scale_s: f64,
    soc_now: f64,
    avg_current_a: f64,
    avg_temperature_c: f64,
    horizon_s: f64,
) -> [f32; 4] {
    let mut it = [avg_current_a, avg_temperature_c];
    norm_it.normalize(&mut it);
    [
        soc_now as f32,
        it[0] as f32,
        it[1] as f32,
        (horizon_s / horizon_scale_s) as f32,
    ]
}

/// A detached [`Branch2`] featurization context (see
/// [`Branch2::featurizer`]).
#[derive(Debug, Clone)]
pub struct Branch2Features {
    norm_it: Normalizer,
    horizon_scale_s: f64,
}

impl Branch2Features {
    /// Normalized feature row for one prediction query — identical values
    /// to [`Branch2::features`] on the branch this was taken from.
    pub fn features(
        &self,
        soc_now: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> [f32; 4] {
        b2_feature_row(
            &self.norm_it,
            self.horizon_scale_s,
            soc_now,
            avg_current_a,
            avg_temperature_c,
            horizon_s,
        )
    }
}

/// The second stage of a trained model: either the neural Branch 2 or the
/// raw Coulomb-counting equation (the paper's *Physics-Only* configuration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SecondStage {
    /// Neural predictor (No-PINN and all PINN variants).
    Network(Branch2),
    /// Closed-form Coulomb counting with the rated capacity (Physics-Only).
    Coulomb {
        /// Rated capacity `C_rated`, amp-hours.
        capacity_ah: f64,
    },
}

impl SecondStage {
    /// Predicts `SoC(t+N)` for one query.
    pub fn predict(
        &self,
        soc_now: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> f64 {
        match self {
            SecondStage::Network(b2) => {
                b2.predict(soc_now, avg_current_a, avg_temperature_c, horizon_s)
            }
            SecondStage::Coulomb { capacity_ah } => {
                // Unsaturated form: the paper's Physics-Only rollouts also
                // drift outside [0, 1] (Fig. 5).
                soc_now - avg_current_a * horizon_s / (3600.0 * capacity_ah)
            }
        }
    }
}

/// One full-pipeline prediction query: the instantaneous sensor reading
/// plus the described future workload (the inputs of [`SocModel::predict`],
/// as one batchable value).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictQuery {
    /// Terminal voltage now, volts.
    pub voltage_v: f64,
    /// Current now, amps (positive = discharge).
    pub current_a: f64,
    /// Cell temperature now, °C.
    pub temperature_c: f64,
    /// Expected average current over the horizon, amps.
    pub avg_current_a: f64,
    /// Expected average temperature over the horizon, °C.
    pub avg_temperature_c: f64,
    /// Prediction horizon `N`, seconds.
    pub horizon_s: f64,
}

/// Reusable buffers for the batched [`SocModel`] paths. Keep one per
/// serving thread: steady-state batched queries then allocate nothing
/// beyond the output vector the caller provides.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    features: Option<Matrix>,
    net: InferScratch,
    soc_now: Vec<f64>,
}

impl BatchScratch {
    /// Reusable feature buffer; contents are unspecified — every caller
    /// assigns all `rows × cols` elements before the forward pass.
    fn features_buffer(&mut self, rows: usize, cols: usize) -> &mut Matrix {
        let m = self.features.get_or_insert_with(|| Matrix::zeros(1, 1));
        m.reset_for_overwrite(rows, cols);
        m
    }
}

/// A fully trained SoC model: Branch 1 plus a second stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SocModel {
    /// Estimator branch.
    pub branch1: Branch1,
    /// Predictor stage.
    pub stage2: SecondStage,
    /// Human-readable variant label ("No-PINN", "PINN-All", ...).
    pub label: String,
}

impl SocModel {
    /// Estimates the instantaneous SoC from sensor readings (Branch 1 only).
    pub fn estimate(&self, voltage_v: f64, current_a: f64, temperature_c: f64) -> f64 {
        self.branch1.estimate(voltage_v, current_a, temperature_c)
    }

    /// Full pipeline: estimate SoC at `t` from sensors, then predict
    /// `SoC(t+N)` under the described workload.
    #[allow(clippy::too_many_arguments)]
    pub fn predict(
        &self,
        voltage_v: f64,
        current_a: f64,
        temperature_c: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> f64 {
        let soc_now = self.estimate(voltage_v, current_a, temperature_c);
        self.stage2
            .predict(soc_now, avg_current_a, avg_temperature_c, horizon_s)
    }

    /// Predicts `SoC(t+N)` from an already-known current SoC (used in
    /// autoregressive rollouts after the first step).
    pub fn predict_from(
        &self,
        soc_now: f64,
        avg_current_a: f64,
        avg_temperature_c: f64,
        horizon_s: f64,
    ) -> f64 {
        self.stage2
            .predict(soc_now, avg_current_a, avg_temperature_c, horizon_s)
    }

    /// Batched Branch-1 estimation: one GEMM per layer over the whole batch
    /// of `(V, I, T)` readings instead of one tiny GEMM per cell.
    ///
    /// Appends one estimate per reading to `out`. Outputs are bit-exact
    /// with calling [`SocModel::estimate`] per reading (the batched network
    /// path accumulates in the same order per row).
    pub fn estimate_batch_into(
        &self,
        readings: &[[f64; 3]],
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        if readings.is_empty() {
            return;
        }
        let features = scratch.features_buffer(readings.len(), 3);
        for (r, reading) in readings.iter().enumerate() {
            let f = self.branch1.features(reading[0], reading[1], reading[2]);
            features.row_mut(r).copy_from_slice(&f);
        }
        // Split borrow: `features` lives in `scratch.features`, the network
        // scratch in `scratch.net`.
        let estimates = self
            .branch1
            .net()
            .forward_batch(scratch.features.as_ref().expect("built"), &mut scratch.net);
        out.extend(estimates.as_slice().iter().map(|&soc| soc as f64));
    }

    /// Batched Branch-1 estimation over an **already normalized** feature
    /// matrix (`batch × 3`, rows built with [`Branch1::features`]). This is
    /// the serving engines' gather-then-GEMM split: the caller scatters
    /// features straight from its own cell-state layout into the matrix, and
    /// this call runs only the fused network pass — letting the engine
    /// account gather and GEMM time separately and skip the intermediate
    /// `[[f64; 3]]` staging of [`SocModel::estimate_batch_into`].
    ///
    /// Appends one estimate per row to `out`; bit-exact with per-row
    /// [`SocModel::estimate`] on the raw readings the features came from.
    ///
    /// # Panics
    ///
    /// Panics if `features.cols() != 3`.
    pub fn estimate_features_into(
        &self,
        features: &Matrix,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(features.cols(), 3, "Branch 1 features are (V, I, T)");
        let estimates = self.branch1.net().forward_batch(features, &mut scratch.net);
        out.extend(estimates.as_slice().iter().map(|&soc| soc as f64));
    }

    /// Batched full-pipeline prediction for one **uniform workload**: every
    /// row shares `(Ī, T̄, N)`, so the workload tail of the Branch-2
    /// features is normalized once ([`Branch2::uniform_workload`]) instead
    /// of per cell. `features` is the normalized `batch × 3` Branch-1
    /// input, as in [`SocModel::estimate_features_into`].
    ///
    /// Appends one predicted SoC per row to `out`; bit-exact with per-row
    /// [`SocModel::predict`] under the same workload.
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
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(features.cols(), 3, "Branch 1 features are (V, I, T)");
        let rows = features.rows();
        {
            let estimates = self.branch1.net().forward_batch(features, &mut scratch.net);
            scratch.soc_now.clear();
            scratch
                .soc_now
                .extend(estimates.as_slice().iter().map(|&soc| soc as f64));
        }
        let soc_now = std::mem::take(&mut scratch.soc_now);
        match &self.stage2 {
            SecondStage::Network(b2) => {
                let tail = b2.uniform_workload(avg_current_a, avg_temperature_c, horizon_s);
                let b2_features = scratch.features_buffer(rows, 4);
                for (r, &soc) in soc_now.iter().enumerate() {
                    let row = b2_features.row_mut(r);
                    row[0] = soc as f32;
                    row[1..].copy_from_slice(&tail);
                }
                let preds = b2
                    .net()
                    .forward_batch(scratch.features.as_ref().expect("built"), &mut scratch.net);
                out.extend(preds.as_slice().iter().map(|&soc| soc as f64));
            }
            stage @ SecondStage::Coulomb { .. } => {
                out.extend(
                    soc_now.iter().map(|&soc| {
                        stage.predict(soc, avg_current_a, avg_temperature_c, horizon_s)
                    }),
                );
            }
        }
        scratch.soc_now = soc_now;
    }

    /// Allocating convenience wrapper over [`SocModel::estimate_batch_into`].
    pub fn estimate_batch(&self, readings: &[[f64; 3]]) -> Vec<f64> {
        let mut scratch = BatchScratch::default();
        let mut out = Vec::with_capacity(readings.len());
        self.estimate_batch_into(readings, &mut scratch, &mut out);
        out
    }

    /// Batched full-pipeline prediction: Branch-1 estimates for the whole
    /// batch in one matrix pass, then the second stage rolls every cell
    /// forward (one matrix pass for neural Branch 2, closed form for
    /// Coulomb).
    ///
    /// Appends one predicted SoC per query to `out`. Outputs are bit-exact
    /// with calling [`SocModel::predict`] per query.
    pub fn predict_batch_into(
        &self,
        queries: &[PredictQuery],
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) {
        if queries.is_empty() {
            return;
        }
        // Stage 1: batched estimation.
        let features = scratch.features_buffer(queries.len(), 3);
        for (r, q) in queries.iter().enumerate() {
            let f = self
                .branch1
                .features(q.voltage_v, q.current_a, q.temperature_c);
            features.row_mut(r).copy_from_slice(&f);
        }
        {
            let estimates = self
                .branch1
                .net()
                .forward_batch(scratch.features.as_ref().expect("built"), &mut scratch.net);
            scratch.soc_now.clear();
            scratch
                .soc_now
                .extend(estimates.as_slice().iter().map(|&soc| soc as f64));
        }
        // Stage 2: batched rollforward. `soc_now` is moved out of the
        // scratch (and back afterwards) so the feature buffer can be
        // borrowed mutably alongside it.
        let soc_now = std::mem::take(&mut scratch.soc_now);
        match &self.stage2 {
            SecondStage::Network(b2) => {
                let features = scratch.features_buffer(queries.len(), 4);
                for (r, (q, &soc)) in queries.iter().zip(&soc_now).enumerate() {
                    let f = b2.features(soc, q.avg_current_a, q.avg_temperature_c, q.horizon_s);
                    features.row_mut(r).copy_from_slice(&f);
                }
                let preds = b2
                    .net()
                    .forward_batch(scratch.features.as_ref().expect("built"), &mut scratch.net);
                out.extend(preds.as_slice().iter().map(|&soc| soc as f64));
            }
            stage @ SecondStage::Coulomb { .. } => {
                out.extend(queries.iter().zip(&soc_now).map(|(q, &soc)| {
                    stage.predict(soc, q.avg_current_a, q.avg_temperature_c, q.horizon_s)
                }));
            }
        }
        scratch.soc_now = soc_now;
    }

    /// Allocating convenience wrapper over [`SocModel::predict_batch_into`].
    pub fn predict_batch(&self, queries: &[PredictQuery]) -> Vec<f64> {
        let mut scratch = BatchScratch::default();
        let mut out = Vec::with_capacity(queries.len());
        self.predict_batch_into(queries, &mut scratch, &mut out);
        out
    }

    /// Trainable parameter count of the whole model.
    pub fn param_count(&self) -> usize {
        let b2 = match &self.stage2 {
            SecondStage::Network(b2) => b2.net().param_count(),
            SecondStage::Coulomb { .. } => 0,
        };
        self.branch1.net().param_count() + b2
    }

    /// Inference cost of one full-pipeline query.
    pub fn cost(&self) -> CostReport {
        let b1 = self.branch1.net().cost();
        let b2 = match &self.stage2 {
            SecondStage::Network(b2) => b2.net().cost(),
            SecondStage::Coulomb { .. } => CostReport {
                params: 0,
                macs: 2,
                memory_bytes: 8,
            },
        };
        CostReport {
            params: b1.params + b2.params,
            macs: b1.macs + b2.macs,
            memory_bytes: b1.memory_bytes + b2.memory_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn model() -> SocModel {
        let mut rng = StdRng::seed_from_u64(0);
        SocModel {
            branch1: Branch1::new(norm3(), &mut rng),
            stage2: SecondStage::Network(Branch2::new(norm2(), 120.0, &mut rng)),
            label: "test".into(),
        }
    }

    #[test]
    fn paper_parameter_count() {
        assert_eq!(model().param_count(), 2322);
    }

    #[test]
    fn paper_memory_and_ops() {
        let cost = model().cost();
        assert_eq!(cost.params, 2322);
        assert_eq!(cost.memory_bytes, 9288); // ≈9 kB, §III-A
                                             // MACs per full query ≈ 2·1150 (Table I counts one branch ≈ 1150).
        assert!(cost.macs > 2000 && cost.macs < 2500, "macs {}", cost.macs);
    }

    #[test]
    fn physics_only_has_no_stage2_params() {
        let mut m = model();
        m.stage2 = SecondStage::Coulomb { capacity_ah: 3.0 };
        assert_eq!(m.param_count(), 1153);
    }

    #[test]
    fn coulomb_stage_matches_equation() {
        let stage = SecondStage::Coulomb { capacity_ah: 3.0 };
        // 1 A for one hour on a 3 Ah cell = 1/3 of the capacity.
        let next = stage.predict(0.5, 1.0, 25.0, 3600.0);
        assert!((next - (0.5 - 1.0 / 3.0)).abs() < 1e-12);
        // And it may exceed [0, 1] — intentionally unsaturated.
        assert!(stage.predict(0.1, 30.0, 25.0, 3600.0) < 0.0);
    }

    #[test]
    fn horizon_scaling_in_features() {
        let mut rng = StdRng::seed_from_u64(1);
        let b2 = Branch2::new(norm2(), 120.0, &mut rng);
        let f = b2.features(0.8, 4.5, 25.0, 240.0);
        assert!((f[3] - 2.0).abs() < 1e-6);
        assert!((f[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn feature_matrix_matches_single_features() {
        let mut rng = StdRng::seed_from_u64(2);
        let b1 = Branch1::new(norm3(), &mut rng);
        let m = b1.feature_matrix(&[[3.7, 2.0, 25.0], [3.5, 1.0, 22.0]]);
        assert_eq!(m.shape(), (2, 3));
        let single = b1.features(3.7, 2.0, 25.0);
        assert_eq!(m.row(0), &single);
    }

    #[test]
    fn predict_pipeline_consistency() {
        let m = model();
        let soc_hat = m.estimate(3.8, 2.0, 25.0);
        let via_pipeline = m.predict(3.8, 2.0, 25.0, 3.0, 25.0, 120.0);
        let via_two_calls = m.predict_from(soc_hat, 3.0, 25.0, 120.0);
        assert!((via_pipeline - via_two_calls).abs() < 1e-12);
    }

    #[test]
    fn estimate_batch_is_bitwise_identical_to_scalar_loop() {
        let m = model();
        let readings: Vec<[f64; 3]> = (0..64)
            .map(|i| {
                let t = i as f64 / 63.0;
                [3.0 + 1.2 * t, 9.0 * t - 1.0, 20.0 + 10.0 * t]
            })
            .collect();
        let batch = m.estimate_batch(&readings);
        assert_eq!(batch.len(), readings.len());
        for (b, r) in batch.iter().zip(&readings) {
            let scalar = m.estimate(r[0], r[1], r[2]);
            assert_eq!(b.to_bits(), scalar.to_bits(), "{b} vs {scalar}");
        }
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_scalar_loop() {
        for stage2 in [
            SecondStage::Network(Branch2::new(norm2(), 120.0, &mut StdRng::seed_from_u64(3))),
            SecondStage::Coulomb { capacity_ah: 3.0 },
        ] {
            let mut m = model();
            m.stage2 = stage2;
            let queries: Vec<PredictQuery> = (0..50)
                .map(|i| {
                    let t = i as f64 / 49.0;
                    PredictQuery {
                        voltage_v: 3.1 + t,
                        current_a: 6.0 * t,
                        temperature_c: 18.0 + 14.0 * t,
                        avg_current_a: 9.0 * t - 0.5,
                        avg_temperature_c: 21.0 + 8.0 * t,
                        horizon_s: 30.0 + 330.0 * t,
                    }
                })
                .collect();
            let batch = m.predict_batch(&queries);
            for (b, q) in batch.iter().zip(&queries) {
                let scalar = m.predict(
                    q.voltage_v,
                    q.current_a,
                    q.temperature_c,
                    q.avg_current_a,
                    q.avg_temperature_c,
                    q.horizon_s,
                );
                assert_eq!(
                    b.to_bits(),
                    scalar.to_bits(),
                    "{b} vs {scalar} ({})",
                    m.label
                );
            }
        }
    }

    #[test]
    fn estimate_features_into_matches_scalar_bitwise() {
        let m = model();
        let readings: Vec<[f64; 3]> = (0..33)
            .map(|i| {
                let t = i as f64 / 32.0;
                [3.1 + t, 8.0 * t - 2.0, 18.0 + 12.0 * t]
            })
            .collect();
        let mut features = Matrix::zeros(readings.len(), 3);
        for (r, reading) in readings.iter().enumerate() {
            let f = m.branch1.features(reading[0], reading[1], reading[2]);
            features.row_mut(r).copy_from_slice(&f);
        }
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        m.estimate_features_into(&features, &mut scratch, &mut out);
        assert_eq!(out.len(), readings.len());
        for (b, r) in out.iter().zip(&readings) {
            let scalar = m.estimate(r[0], r[1], r[2]);
            assert_eq!(b.to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn predict_uniform_into_matches_scalar_bitwise() {
        for stage2 in [
            SecondStage::Network(Branch2::new(norm2(), 120.0, &mut StdRng::seed_from_u64(4))),
            SecondStage::Coulomb { capacity_ah: 3.0 },
        ] {
            let mut m = model();
            m.stage2 = stage2;
            let readings: Vec<[f64; 3]> = (0..41)
                .map(|i| {
                    let t = i as f64 / 40.0;
                    [3.2 + 0.9 * t, 6.0 * t, 19.0 + 13.0 * t]
                })
                .collect();
            let (avg_i, avg_t, horizon) = (2.5, 24.0, 180.0);
            let mut features = Matrix::zeros(readings.len(), 3);
            for (r, reading) in readings.iter().enumerate() {
                let f = m.branch1.features(reading[0], reading[1], reading[2]);
                features.row_mut(r).copy_from_slice(&f);
            }
            let mut scratch = BatchScratch::default();
            let mut out = Vec::new();
            m.predict_uniform_into(&features, avg_i, avg_t, horizon, &mut scratch, &mut out);
            assert_eq!(out.len(), readings.len());
            for (b, r) in out.iter().zip(&readings) {
                let scalar = m.predict(r[0], r[1], r[2], avg_i, avg_t, horizon);
                assert_eq!(b.to_bits(), scalar.to_bits(), "({})", m.label);
            }
        }
    }

    #[test]
    fn uniform_workload_matches_per_query_features() {
        let mut rng = StdRng::seed_from_u64(5);
        let b2 = Branch2::new(norm2(), 120.0, &mut rng);
        let tail = b2.uniform_workload(4.5, 25.0, 240.0);
        let full = b2.features(0.8, 4.5, 25.0, 240.0);
        assert_eq!(&full[1..], &tail);
    }

    #[test]
    fn batch_scratch_reuse_across_batch_sizes() {
        let m = model();
        let mut scratch = BatchScratch::default();
        let mut out = Vec::new();
        let big: Vec<[f64; 3]> = (0..32).map(|i| [3.5, i as f64 * 0.2, 25.0]).collect();
        m.estimate_batch_into(&big, &mut scratch, &mut out);
        let small = &big[..3];
        m.estimate_batch_into(small, &mut scratch, &mut out);
        assert_eq!(out.len(), 35);
        assert_eq!(out[32].to_bits(), out[0].to_bits());
        // Empty batches are a no-op, not a panic.
        m.estimate_batch_into(&[], &mut scratch, &mut out);
        m.predict_batch_into(&[], &mut scratch, &mut out);
        assert_eq!(out.len(), 35);
    }

    #[test]
    fn serde_roundtrip_preserves_outputs() {
        let m = model();
        let json = serde_json::to_string(&m).unwrap();
        let m2: SocModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m.estimate(3.7, 1.0, 25.0), m2.estimate(3.7, 1.0, 25.0));
        assert_eq!(
            m.predict_from(0.5, 2.0, 25.0, 60.0),
            m2.predict_from(0.5, 2.0, 25.0, 60.0)
        );
    }
}
