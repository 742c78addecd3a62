//! Training throughput baseline: steady-state samples/s per branch, serial
//! vs pool-parallel multi-seed wall time, and steady-state per-step heap
//! allocations of the classic (allocating) vs engine (scratch-reusing)
//! training step — written to `BENCH_train.json` at the workspace root so
//! later PRs have a perf floor to beat.
//!
//! Run with `cargo run --release -p pinnsoc-bench --bin train_baseline`.
//! Pass `--smoke` for a CI-sized run (tiny epoch counts, few reps) that
//! sanity-checks the training engine without touching `BENCH_train.json`.
//!
//! The per-step allocation counts come from a counting global allocator
//! (every `alloc`/`realloc` is one event), measured over 200 steady-state
//! steps after a warm-up epoch — so one-time buffer growth is excluded and
//! the number reflects what every subsequent step pays.

use pinnsoc::train::{run_epochs, Batcher, EpochSpec, Eq2Objective, PhysicsTerm};
use pinnsoc::{train, train_many, Branch2, PinnVariant, TrainConfig, TrainTask};
use pinnsoc_battery::Chemistry;
use pinnsoc_bench::{host_info, write_bench_json, HostInfo};
use pinnsoc_data::{
    estimation_samples, generate_sandia, prediction_pairs_all, NoiseConfig, Normalizer,
    PhysicsSampler, SandiaConfig, SocDataset,
};
use pinnsoc_nn::{Activation, Adam, Init, Loss, Matrix, Mlp, Optimizer, TrainScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocation events so the harness can report steady-state
/// allocations per training step.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to the system allocator; the
// counter is a relaxed atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[derive(Debug, Serialize)]
struct BranchThroughput {
    /// Which branch-shaped workload this measures.
    branch: &'static str,
    /// Training rows in the epoch.
    samples: usize,
    /// Minibatch size.
    batch_size: usize,
    /// Steady-state training throughput, samples/s (epochs × rows / time).
    samples_per_sec: f64,
}

#[derive(Debug, Serialize)]
struct StepAllocations {
    /// Which branch-shaped workload this measures.
    branch: &'static str,
    /// Heap allocation events per step of the pre-refactor-style loop
    /// (fresh gather/targets/forward/backward matrices every step).
    classic_per_step: f64,
    /// Heap allocation events per step of the engine path (batcher +
    /// Eq. 2 objective + fused scratch-reusing nn passes).
    engine_per_step: f64,
}

#[derive(Debug, Serialize)]
struct MultiSeed {
    /// Independent seeds trained.
    seeds: usize,
    /// Pool worker threads used for the parallel run (the caller
    /// participates on top).
    workers: usize,
    serial_seconds: f64,
    pool_seconds: f64,
    /// serial / pool.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    description: String,
    model: String,
    host: HostInfo,
    branch_throughput: Vec<BranchThroughput>,
    step_allocations: Vec<StepAllocations>,
    multi_seed: MultiSeed,
}

fn dataset() -> SocDataset {
    generate_sandia(&SandiaConfig {
        chemistries: vec![Chemistry::Nmc],
        ambient_temps_c: vec![25.0],
        cycles_per_condition: 2,
        noise: NoiseConfig::none(),
        ..SandiaConfig::default()
    })
}

/// Branch-1-shaped problem: normalized `(V, I, T) → SoC` rows from the
/// dataset, exactly as the trainer builds them.
fn b1_problem(ds: &SocDataset) -> (Matrix, Vec<f32>) {
    let samples: Vec<_> = ds.train.iter().flat_map(estimation_samples).collect();
    let rows: Vec<[f64; 3]> = samples.iter().map(|s| s.features()).collect();
    let norm = Normalizer::fit(rows.iter().map(|r| r.as_slice()));
    let mut features = Matrix::zeros(rows.len(), 3);
    for (r, row) in rows.iter().enumerate() {
        let n = norm.normalized(row);
        for (c, v) in n.iter().enumerate() {
            features.row_mut(r)[c] = *v as f32;
        }
    }
    let targets = samples.iter().map(|s| s.soc as f32).collect();
    (features, targets)
}

/// Branch-2-shaped problem: normalized `(SoC, Ī, T̄, N)` rows, targets, and
/// the fitted branch whose featurizer both measured paths share.
fn b2_problem(ds: &SocDataset) -> (Matrix, Vec<f32>, Branch2) {
    let pairs = prediction_pairs_all(&ds.train, 120.0);
    let it_rows: Vec<[f64; 2]> = pairs
        .iter()
        .map(|p| [p.avg_current_a, p.avg_temperature_c])
        .collect();
    let norm_it = Normalizer::fit(it_rows.iter().map(|r| r.as_slice()));
    let mut rng = StdRng::seed_from_u64(5);
    let branch2 = Branch2::new(norm_it, 120.0, &mut rng);
    let featurizer = branch2.featurizer();
    let mut features = Matrix::zeros(pairs.len(), 4);
    for (r, p) in pairs.iter().enumerate() {
        let f = featurizer.features(p.soc_now, p.avg_current_a, p.avg_temperature_c, p.horizon_s);
        features.row_mut(r).copy_from_slice(&f);
    }
    let targets: Vec<f32> = pairs.iter().map(|p| p.soc_next as f32).collect();
    (features, targets, branch2)
}

/// The physics sampler both measured paths draw from — identical seed and
/// conditions so the classic and engine steps see the same workload.
fn physics_sampler(ds: &SocDataset) -> PhysicsSampler {
    let config = TrainConfig::sandia(PinnVariant::pinn_all(&[120.0, 240.0, 360.0]), 5);
    PhysicsSampler::new(ds, vec![120.0, 240.0, 360.0], config.physics_current, 6)
}

/// The engine path's physics term over the shared sampler and featurizer.
fn physics_term(ds: &SocDataset, branch2: &Branch2) -> PhysicsTerm {
    PhysicsTerm::new(physics_sampler(ds), branch2.featurizer(), 1.0)
}

fn fresh_net(input: usize) -> Mlp {
    let mut rng = StdRng::seed_from_u64(9);
    Mlp::new(
        &[input, 16, 32, 16, 1],
        Activation::Relu,
        Init::HeNormal,
        &mut rng,
    )
}

fn throughput(
    branch: &'static str,
    input: usize,
    features: &Matrix,
    targets: &[f32],
    objective: &mut Eq2Objective,
    epochs: usize,
) -> BranchThroughput {
    let batch_size = 64;
    let spec = EpochSpec {
        epochs,
        batch_size,
        learning_rate: 3e-3,
    };
    let mut net = fresh_net(input);
    let mut rng = StdRng::seed_from_u64(1);
    // Warm-up epoch grows every scratch buffer.
    let warm = EpochSpec { epochs: 1, ..spec };
    black_box(run_epochs(
        &mut net, features, targets, warm, objective, &mut rng,
    ));
    let start = Instant::now();
    black_box(run_epochs(
        &mut net, features, targets, spec, objective, &mut rng,
    ));
    let elapsed = start.elapsed().as_secs_f64();
    BranchThroughput {
        branch,
        samples: targets.len(),
        batch_size,
        samples_per_sec: (epochs * targets.len()) as f64 / elapsed,
    }
}

/// One step of the pre-refactor trainer: fresh gather, fresh target
/// matrix, allocating forward/backward, optional allocating physics term.
fn classic_step(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    indices: &[usize],
    physics: Option<(&mut PhysicsSampler, &Branch2, f32)>,
    opt: &mut Adam,
) {
    let x = features.gather_rows(indices);
    let y = Matrix::from_vec(
        indices.len(),
        1,
        indices.iter().map(|&i| targets[i]).collect(),
    );
    let pred = net.forward(&x);
    let grad = Loss::Mae.gradient(&pred, &y);
    net.zero_grad();
    net.backward(&grad);
    if let Some((sampler, branch2, weight)) = physics {
        let batch = sampler.sample_batch(indices.len());
        let rows: Vec<[f64; 4]> = batch.iter().map(|p| p.features()).collect();
        let px = branch2.feature_matrix(&rows);
        let py = Matrix::from_vec(
            batch.len(),
            1,
            batch.iter().map(|p| p.soc_next as f32).collect(),
        );
        let p_pred = net.forward(&px);
        let p_grad = Loss::Mae.gradient(&p_pred, &py).scale(weight);
        net.backward(&p_grad);
    }
    opt.step(net);
}

/// One step of the engine path on pre-grown scratch: batcher gather +
/// Eq. 2 objective + fused training passes.
struct EngineStepper {
    batcher: Batcher,
    scratch: TrainScratch,
    opt: Adam,
}

fn measure_allocs(
    branch: &'static str,
    input: usize,
    ds: &SocDataset,
    features: &Matrix,
    targets: &[f32],
    branch2: Option<&Branch2>,
    steps: usize,
) -> StepAllocations {
    use pinnsoc::train::Objective;
    let batch_size = 64usize;
    let batches = targets.len().div_ceil(batch_size).min(steps.max(1));
    // --- classic path ---
    // Same workload as the engine path below: identical featurizer (the
    // fitted branch) and an identically seeded physics sampler, so the two
    // per-step counts measure the same step two ways.
    let mut net = fresh_net(input);
    let mut opt = Adam::new(3e-3);
    let mut sampler = physics_sampler(ds);
    let indices: Vec<usize> = (0..targets.len()).collect();
    let chunk_of = |step: usize| {
        let lo = (step % batches) * batch_size;
        &indices[lo..(lo + batch_size).min(indices.len())]
    };
    // Warm-up (Adam moment buffers, layer caches).
    for step in 0..batches {
        let physics = branch2.map(|b2| (&mut sampler, b2, 1.0f32));
        classic_step(
            &mut net,
            features,
            targets,
            chunk_of(step),
            physics,
            &mut opt,
        );
    }
    let before = alloc_count();
    for step in 0..steps {
        let physics = branch2.map(|b2| (&mut sampler, b2, 1.0f32));
        classic_step(
            &mut net,
            features,
            targets,
            chunk_of(step),
            physics,
            &mut opt,
        );
    }
    let classic_per_step = (alloc_count() - before) as f64 / steps as f64;

    // --- engine path ---
    let mut net = fresh_net(input);
    let mut objective = match branch2 {
        Some(b2) => Eq2Objective::with_physics(physics_term(ds, b2)),
        None => Eq2Objective::data_only(),
    };
    let mut stepper = EngineStepper {
        batcher: Batcher::new(targets.len()),
        scratch: TrainScratch::default(),
        opt: Adam::new(3e-3),
    };
    let run = |stepper: &mut EngineStepper, net: &mut Mlp, objective: &mut Eq2Objective| {
        for b in 0..stepper.batcher.batches(batch_size).min(steps.max(1)) {
            let (x, y) = stepper.batcher.gather(b, batch_size, features, targets);
            black_box(objective.batch_step(net, x, y, &mut stepper.scratch));
            stepper.opt.step(net);
        }
    };
    // Warm-up grows every reused buffer once.
    run(&mut stepper, &mut net, &mut objective);
    let before = alloc_count();
    let mut done = 0usize;
    while done < steps {
        run(&mut stepper, &mut net, &mut objective);
        done += stepper.batcher.batches(batch_size).min(steps.max(1));
    }
    let engine_per_step = (alloc_count() - before) as f64 / done as f64;
    StepAllocations {
        branch,
        classic_per_step,
        engine_per_step,
    }
}

fn multi_seed(ds: &SocDataset, seeds: usize, epochs: usize) -> MultiSeed {
    let config = |seed: u64| TrainConfig {
        b1_epochs: epochs,
        b2_epochs: epochs,
        batch_size: 64,
        ..TrainConfig::sandia(PinnVariant::pinn_all(&[120.0, 240.0, 360.0]), seed)
    };
    let serial_start = Instant::now();
    for seed in 0..seeds as u64 {
        black_box(train(ds, &config(seed)));
    }
    let serial_seconds = serial_start.elapsed().as_secs_f64();
    let workers = std::thread::available_parallelism()
        .map_or(0, |p| usize::from(p).saturating_sub(1))
        .min(seeds.saturating_sub(1));
    let shared = std::sync::Arc::new(ds.clone());
    let tasks: Vec<TrainTask> = (0..seeds as u64)
        .map(|seed| TrainTask::new(std::sync::Arc::clone(&shared), config(seed)))
        .collect();
    let pool_start = Instant::now();
    black_box(train_many(tasks, workers));
    let pool_seconds = pool_start.elapsed().as_secs_f64();
    MultiSeed {
        seeds,
        workers,
        serial_seconds,
        pool_seconds,
        speedup: serial_seconds / pool_seconds,
    }
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let ds = dataset();
    let (b1_features, b1_targets) = b1_problem(&ds);
    let (b2_features, b2_targets, b2_branch) = b2_problem(&ds);
    let (epochs, alloc_steps, seeds, seed_epochs) = if smoke {
        (2, 20, 2, 2)
    } else {
        (20, 200, 4, 12)
    };

    let branch_throughput = vec![
        throughput(
            "branch1 (data MAE)",
            3,
            &b1_features,
            &b1_targets,
            &mut Eq2Objective::data_only(),
            epochs,
        ),
        throughput(
            "branch2 (Eq. 2 data + physics)",
            4,
            &b2_features,
            &b2_targets,
            &mut Eq2Objective::with_physics(physics_term(&ds, &b2_branch)),
            epochs,
        ),
    ];
    for t in &branch_throughput {
        println!(
            "{:<32} {:>7} samples x batch {:>3}: {:>12.0} samples/s",
            t.branch, t.samples, t.batch_size, t.samples_per_sec
        );
    }

    let step_allocations = vec![
        measure_allocs(
            "branch1 (data MAE)",
            3,
            &ds,
            &b1_features,
            &b1_targets,
            None,
            alloc_steps,
        ),
        measure_allocs(
            "branch2 (Eq. 2 data + physics)",
            4,
            &ds,
            &b2_features,
            &b2_targets,
            Some(&b2_branch),
            alloc_steps,
        ),
    ];
    for a in &step_allocations {
        println!(
            "{:<32} allocations/step: classic {:>6.1} -> engine {:>4.1}",
            a.branch, a.classic_per_step, a.engine_per_step
        );
        assert!(
            a.engine_per_step < a.classic_per_step,
            "engine path must allocate less than the classic path"
        );
    }

    let multi = multi_seed(&ds, seeds, seed_epochs);
    println!(
        "multi-seed x{}: serial {:.2}s | pool ({} workers + caller) {:.2}s | speedup {:.2}x",
        multi.seeds, multi.serial_seconds, multi.workers, multi.pool_seconds, multi.speedup
    );

    if smoke {
        println!("\nsmoke run OK (BENCH_train.json untouched)");
        return;
    }

    let baseline = Baseline {
        description: "Steady-state training throughput per branch, per-step heap allocations \
                      (classic allocating loop vs scratch-reusing engine), and serial vs \
                      pool-parallel multi-seed training wall time"
            .into(),
        model: "two-branch PINN (2,322 params), Sandia-style dataset".into(),
        host: host_info(multi.workers),
        branch_throughput,
        step_allocations,
        multi_seed: multi,
    };
    write_bench_json("BENCH_train.json", &baseline);
}
