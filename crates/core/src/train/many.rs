//! Pool-parallel training of independent models.
//!
//! Training tasks are independent — ensemble seeds, PINN variants, or
//! different datasets entirely — so they scale across cores exactly the way
//! fleet serving does: through the shared
//! [`pinnsoc_runtime::WorkerPool`]. Each task carries its own
//! [`TrainConfig`] seed, and [`train`](crate::train()) derives every RNG
//! stream from that seed alone, so results are deterministic and
//! **identical to running the same `train()` calls serially** regardless
//! of worker count or completion order.

use super::{train_from_with, TrainReport};
use crate::config::TrainConfig;
use crate::model::SocModel;
use pinnsoc_data::SocDataset;
use pinnsoc_obs::ObsHub;
use pinnsoc_runtime::{NoContext, PoolTask, WorkerPool};
use std::sync::Arc;

/// One independent training job: a dataset (shared by `Arc`, so N seeds on
/// one dataset don't copy it N times), its configuration, and an optional
/// warm-start model (shared the same way — N fine-tune candidates off one
/// serving snapshot don't copy the weights N times).
#[derive(Debug, Clone)]
pub struct TrainTask {
    /// The dataset to train on.
    pub dataset: Arc<SocDataset>,
    /// The variant, hyper-parameters, and seed.
    pub config: TrainConfig,
    /// Initial weights and normalizers (see
    /// [`train_from`](super::train_from)); `None` trains from random init.
    pub warm_start: Option<Arc<SocModel>>,
    /// Observability hub receiving per-epoch `pinnsoc_train_*` series;
    /// `None` trains fully uninstrumented (zero overhead). Results are
    /// bit-identical either way.
    pub obs: Option<Arc<ObsHub>>,
}

impl TrainTask {
    /// A task training `config` on `dataset` from random init.
    pub fn new(dataset: Arc<SocDataset>, config: TrainConfig) -> Self {
        Self {
            dataset,
            config,
            warm_start: None,
            obs: None,
        }
    }

    /// The same task, warm-started from `model` (the fine-tuning form used
    /// by the online-adaptation loop).
    pub fn warm_started(mut self, model: Arc<SocModel>) -> Self {
        self.warm_start = Some(model);
        self
    }

    /// The same task, reporting per-epoch training metrics into `hub`.
    pub fn observed(mut self, hub: Arc<ObsHub>) -> Self {
        self.obs = Some(hub);
        self
    }
}

impl PoolTask for TrainTask {
    type Ctx = ();
    type Kind = ();
    type Output = (SocModel, TrainReport);

    fn run(&mut self, _: &(), (): ()) -> Self::Output {
        train_from_with(
            &self.dataset,
            &self.config,
            self.warm_start.as_deref(),
            self.obs.as_ref(),
        )
    }
}

/// Trains every task, draining them through a persistent worker pool with
/// `workers` extra threads (the calling thread always participates; `0`
/// runs everything on the calling thread, which is optimal on a single-core
/// host). Results are returned **in task order** and are bit-identical to
/// calling [`train`](crate::train()) on each task serially.
///
/// # Panics
///
/// Panics if any training task panics (after every other task completed),
/// or if a task's configuration is invalid.
pub fn train_many(tasks: Vec<TrainTask>, workers: usize) -> Vec<(SocModel, TrainReport)> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let mut pool: WorkerPool<NoContext, TrainTask> = WorkerPool::new(Arc::new(NoContext), workers);
    train_many_with(&mut pool, tasks)
}

/// [`train_many`] over a caller-owned pool, so repeated training rounds
/// (e.g. the online-adaptation engine's background fine-tunes) reuse the
/// same parked worker threads instead of spawning a pool per round. Same
/// ordering and bit-identity contract as [`train_many`].
///
/// # Panics
///
/// Panics if any training task panics (after every other task completed),
/// or if a task's configuration is invalid.
pub fn train_many_with(
    pool: &mut WorkerPool<NoContext, TrainTask>,
    tasks: Vec<TrainTask>,
) -> Vec<(SocModel, TrainReport)> {
    if tasks.is_empty() {
        return Vec::new();
    }
    let mut queue: Vec<(usize, TrainTask)> = tasks.into_iter().enumerate().collect();
    let mut done = Vec::with_capacity(queue.len());
    let panicked = pool.run((), &mut queue, &mut done);
    assert!(!panicked, "a training task panicked");
    // Completion order is nondeterministic under concurrency; the outputs
    // are not — restore task order.
    done.sort_unstable_by_key(|d| d.idx);
    done.into_iter().map(|d| d.output).collect()
}
