//! The epoch driver: LR schedule, shuffled minibatches, objective steps,
//! and the per-epoch loss trace.
//!
//! Both branches of the split training scheme (§III-B) run through this one
//! loop; what differs between them — and between the paper's PINN variants
//! — is only the [`Objective`] value passed in.

use super::batcher::Batcher;
use super::objective::Objective;
use pinnsoc_nn::{Adam, LrSchedule, Matrix, Mlp, Optimizer, TrainScratch};
use rand::rngs::StdRng;
use std::time::Instant;

/// Shape of one branch's epoch loop.
#[derive(Debug, Clone, Copy)]
pub struct EpochSpec {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam base learning rate (cosine-annealed to 5% over the run).
    pub learning_rate: f32,
}

/// Per-epoch observation handed to an [`EpochSink`].
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Sample-weighted loss of this epoch.
    pub loss: f32,
    /// Learning rate this epoch (after the cosine schedule).
    pub lr: f32,
    /// Samples in the epoch (the full dataset; every epoch sees all).
    pub samples: usize,
    /// Wall time of the epoch, seconds.
    pub wall_s: f64,
    /// Heap allocations during the epoch, when an allocation counter is
    /// installed via `pinnsoc_obs::alloc_hook` (`None` otherwise).
    pub allocs: Option<u64>,
}

/// Observer of the epoch loop with a no-op default, so the uninstrumented
/// path ([`run_epochs`]) compiles to exactly the pre-observability loop —
/// not even the clock is read unless [`EpochSink::is_live`] says so.
pub trait EpochSink {
    /// True when epochs should be measured and reported.
    fn is_live(&self) -> bool {
        false
    }

    /// Called once per completed epoch.
    fn epoch(&mut self, stats: &EpochStats) {
        let _ = stats;
    }
}

/// The do-nothing sink behind [`run_epochs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopEpochSink;

impl EpochSink for NoopEpochSink {}

/// Runs `spec.epochs` epochs of minibatch training on `net` and returns the
/// per-epoch loss trace.
///
/// Epoch losses are **weighted by sample count**: each minibatch's loss
/// contributes proportionally to its height, so a partial final batch is no
/// longer over-weighted the way the old per-chunk average over-weighted it.
/// (The model trajectory is unaffected — gradients never depended on the
/// reported average.)
pub fn run_epochs(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    spec: EpochSpec,
    objective: &mut dyn Objective,
    rng: &mut StdRng,
) -> Vec<f32> {
    run_epochs_observed(
        net,
        features,
        targets,
        spec,
        objective,
        rng,
        &mut NoopEpochSink,
    )
}

/// [`run_epochs`] with a per-epoch observer. The model trajectory and the
/// returned loss trace are bit-identical to the unobserved loop for any
/// sink: observation reads quantities the loop already computed and the
/// clock — it never touches the data, RNG, or optimizer state.
#[allow(clippy::too_many_arguments)]
pub fn run_epochs_observed(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    spec: EpochSpec,
    objective: &mut dyn Objective,
    rng: &mut StdRng,
    sink: &mut dyn EpochSink,
) -> Vec<f32> {
    assert_eq!(
        features.rows(),
        targets.len(),
        "feature/target row mismatch"
    );
    let mut opt = Adam::new(spec.learning_rate);
    let schedule = LrSchedule::Cosine {
        total: spec.epochs,
        min_lr: spec.learning_rate * 0.05,
    };
    let mut batcher = Batcher::new(targets.len());
    let mut scratch = TrainScratch::default();
    let mut history = Vec::with_capacity(spec.epochs);
    let total_samples = targets.len() as f32;
    let live = sink.is_live();
    for epoch in 0..spec.epochs {
        let epoch_start = live.then(Instant::now);
        let allocs_before = if live {
            pinnsoc_obs::alloc_hook::current()
        } else {
            None
        };
        let lr = schedule.rate_at(spec.learning_rate, epoch);
        opt.set_learning_rate(lr);
        batcher.shuffle(rng);
        let mut weighted_loss = 0.0_f32;
        for b in 0..batcher.batches(spec.batch_size) {
            let (x, y) = batcher.gather(b, spec.batch_size, features, targets);
            let samples = y.rows() as f32;
            let loss = objective.batch_step(net, x, y, &mut scratch);
            opt.step(net);
            weighted_loss += loss * samples;
        }
        let loss = weighted_loss / total_samples;
        history.push(loss);
        if let Some(start) = epoch_start {
            let allocs = pinnsoc_obs::alloc_hook::current()
                .zip(allocs_before)
                .map(|(now, before)| now.saturating_sub(before));
            sink.epoch(&EpochStats {
                epoch,
                loss,
                lr,
                samples: targets.len(),
                wall_s: start.elapsed().as_secs_f64(),
                allocs,
            });
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinnsoc_nn::{Activation, Init, Loss};
    use rand::SeedableRng;

    /// Objective stub whose loss is the minibatch height — makes the epoch
    /// average directly observable.
    struct HeightLoss;

    impl Objective for HeightLoss {
        fn batch_step(
            &mut self,
            net: &mut Mlp,
            x: &Matrix,
            y: &Matrix,
            scratch: &mut TrainScratch,
        ) -> f32 {
            // Keep gradients well-defined so the driver's optimizer step
            // has something to consume.
            let mut grad = Matrix::zeros(1, 1);
            {
                let pred = net.forward_train(x, scratch);
                Loss::Mae.gradient_into(pred, y, &mut grad);
            }
            net.zero_grad();
            net.backward_train(&grad, scratch);
            y.rows() as f32
        }
    }

    #[test]
    fn epoch_loss_is_sample_weighted_not_chunk_weighted() {
        // 5 samples at batch size 2 -> chunks of 2, 2, 1. Per-batch loss is
        // the batch height, so the sample-weighted epoch average is
        // (2·2 + 2·2 + 1·1) / 5 = 1.8. The old per-chunk average would
        // report (2 + 2 + 1) / 3 ≈ 1.667, over-weighting the partial batch.
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Init::HeNormal, &mut rng);
        let features = Matrix::from_vec(5, 2, (0..10).map(|i| i as f32 * 0.1).collect());
        let targets = [0.1f32, 0.2, 0.3, 0.4, 0.5];
        let history = run_epochs(
            &mut net,
            &features,
            &targets,
            EpochSpec {
                epochs: 2,
                batch_size: 2,
                learning_rate: 1e-3,
            },
            &mut HeightLoss,
            &mut rng,
        );
        assert_eq!(history.len(), 2);
        for (epoch, &loss) in history.iter().enumerate() {
            assert!(
                (loss - 1.8).abs() < 1e-6,
                "epoch {epoch}: expected sample-weighted 1.8, got {loss}"
            );
        }
    }
}
