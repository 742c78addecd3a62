//! Persistent worker pool with epoch/condvar handoff and caller
//! participation.
//!
//! Extracted from the fleet serving engine (where it drains shard batch
//! passes) so the training layer can drive independent training tasks
//! through the same machinery. The pool is generic over three things:
//!
//! - [`PoolTask`]: the unit of work. Tasks are **owned values** that move
//!   into the queue and come back inside [`Done`] records — no borrows
//!   cross threads, so no `unsafe` and no scoped threads.
//! - `PoolTask::Kind`: a per-run job description, shared by every task of
//!   one run (the fleet's process-vs-predict switch; `()` for training).
//! - [`PinSource`]: a shared context provider pinned under the queue lock
//!   at every pop (the fleet's hot-swappable model registry; [`NoContext`]
//!   when tasks are self-contained).
//!
//! Steady-state runs spawn no threads and perform no allocations in the
//! pool machinery: the queue and result buffers are caller-owned vectors
//! whose capacity is reused across runs.

use crate::obs::{PoolObs, PoolTracer};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

// Poisoned locks are recovered (`PoisonError::into_inner`) everywhere in
// this module rather than propagated: the state mutex guards only
// plain-data bookkeeping, and every panic that can fire with the lock held
// happens before the critical section mutates anything (task bodies run
// outside the lock, behind `catch_unwind`). Propagating the poison would
// turn one dead worker into a panic in every other thread that touches the
// pool — including `Drop`, where a second panic aborts the process.

/// A unit of work that moves through the pool by ownership.
pub trait PoolTask: Send + 'static {
    /// Context pinned from the [`PinSource`] at each queue pop (e.g. a
    /// model snapshot). Never crosses threads: each pop pins its own.
    type Ctx;
    /// Per-run job description, copied to every task of the run.
    type Kind: Copy + Send + 'static;
    /// What one completed task produces.
    type Output: Send + 'static;

    /// Executes the task against the pinned context.
    fn run(&mut self, ctx: &Self::Ctx, kind: Self::Kind) -> Self::Output;
}

/// Provides the per-pop execution context.
///
/// Implementations must be cheap to call under a lock (an `Arc` clone, an
/// atomic load): the pool pins the context while holding its state mutex so
/// a task never runs against a context older than its own pop. The source
/// must never take the pool's own lock (the fleet registry's swap path
/// upholds this), or pinning would deadlock.
pub trait PinSource: Send + Sync + 'static {
    /// The pinned context handed to [`PoolTask::run`].
    type Ctx;

    /// Pins the current context.
    fn pin(&self) -> Self::Ctx;
}

/// [`PinSource`] for self-contained tasks that need no shared context.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoContext;

impl PinSource for NoContext {
    type Ctx = ();

    fn pin(&self) {}
}

/// A completed task: its index in the submitting run, the task itself
/// (ownership returns to the caller), and what it produced.
#[derive(Debug)]
pub struct Done<T: PoolTask> {
    /// The caller-assigned index submitted alongside the task.
    pub idx: usize,
    /// The task, back in the caller's ownership.
    pub task: T,
    /// The task's output.
    pub output: T::Output,
}

struct PoolState<T: PoolTask> {
    /// Bumped once per run; workers compare it against the last epoch they
    /// served to decide whether a wake-up means new work.
    epoch: u64,
    shutdown: bool,
    /// The active run's job kind; `None` before the first run.
    kind: Option<T::Kind>,
    /// Tasks awaiting execution this run.
    queue: Vec<(usize, T)>,
    /// Whether workers take part in this run (see
    /// [`WorkerPool::run_on_caller`]).
    wake: bool,
    /// Tasks currently executing (on workers or the caller).
    active: usize,
    /// Completed tasks, awaiting collection by the caller.
    done: Vec<Done<T>>,
    /// Set when a task panicked this run (the task is lost with the
    /// unwind). The run still drains to quiescence so every *surviving*
    /// task returns to the caller, then the caller re-raises.
    panicked: bool,
    /// Observability fields, live only while a [`PoolObs`] is attached.
    /// Bumped under this mutex — which every pop already holds — so the
    /// instrumented hot path takes no extra lock and no atomics; the
    /// caller reads them back after quiescence.
    obs_active: bool,
    /// Tasks executed by worker threads / the calling thread this run.
    worker_tasks: u64,
    caller_tasks: u64,
    /// First worker-thread pop this run: epoch handoff latency probe.
    first_worker_pop: Option<Instant>,
}

struct Shared<S: PinSource, T: PoolTask<Ctx = S::Ctx>> {
    source: Arc<S>,
    state: Mutex<PoolState<T>>,
    /// Signals workers that a new epoch's queue is ready (or shutdown).
    work_ready: Condvar,
    /// Signals the caller that the last active task completed.
    work_done: Condvar,
}

/// The persistent pool. Workers live as long as the pool; dropping it shuts
/// them down and joins them.
pub struct WorkerPool<S: PinSource, T: PoolTask<Ctx = S::Ctx>> {
    shared: Arc<Shared<S, T>>,
    handles: Vec<JoinHandle<()>>,
    /// Observability attachment; `None` costs one `bool` test per pop.
    obs: Option<PoolObs>,
    /// Flight-recorder attachment; one `pool_run` span per run when live.
    tracer: Option<PoolTracer>,
}

impl<S: PinSource, T: PoolTask<Ctx = S::Ctx>> WorkerPool<S, T> {
    /// Spawns `workers` persistent worker threads against `source` (0 is
    /// valid: every run then executes entirely on the calling thread, which
    /// is optimal on a single-core host).
    pub fn new(source: Arc<S>, workers: usize) -> Self {
        let shared = Arc::new(Shared {
            source,
            state: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                kind: None,
                queue: Vec::new(),
                wake: false,
                active: 0,
                done: Vec::new(),
                panicked: false,
                obs_active: false,
                worker_tasks: 0,
                caller_tasks: 0,
                first_worker_pop: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            handles,
            obs: None,
            tracer: None,
        }
    }

    /// Attaches observability: queue depth, run/handoff latency, and
    /// worker-vs-caller task counts land in `obs`'s hub, labeled with the
    /// pool name. Replaces any previous attachment.
    pub fn attach_obs(&mut self, obs: PoolObs) {
        self.obs = Some(obs);
    }

    /// Detaches observability, returning the attachment if one was set.
    pub fn detach_obs(&mut self) -> Option<PoolObs> {
        self.obs.take()
    }

    /// Attaches a flight-recorder tracer: each run records one
    /// `pool_run` span (submit → quiescence). Replaces any previous
    /// attachment.
    pub fn attach_tracer(&mut self, tracer: PoolTracer) {
        self.tracer = Some(tracer);
    }

    /// Sets the parent span id for subsequent runs' `pool_run` spans
    /// (no-op without an attached tracer).
    pub fn set_trace_parent(&mut self, parent: crate::obs::SpanId) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.set_parent(parent);
        }
    }

    /// Number of persistent worker threads (excluding the calling thread).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The shared context source.
    pub fn source(&self) -> &Arc<S> {
        &self.shared.source
    }

    /// Runs one batch: drains `tasks` into the shared queue, wakes the
    /// workers, participates in the drain, and collects every completed
    /// task into `done_out` (cleared first). Blocks until all tasks have
    /// completed. Both vectors are caller-owned so their capacity is reused
    /// across runs.
    ///
    /// Takes `&mut self` deliberately: one run owns the shared queue until
    /// quiescence, so overlapping runs on a shared pool would corrupt each
    /// other's job kind and steal each other's completed tasks — the
    /// exclusive borrow makes that impossible instead of a runtime
    /// invariant.
    ///
    /// Returns `true` if any task panicked this run. The run still drains
    /// to quiescence first, so every *surviving* task is in `done_out` —
    /// the caller restores those before re-raising (a panicking task's
    /// state is lost with its unwind).
    #[must_use = "a panicked run must be re-raised after restoring tasks"]
    pub fn run(
        &mut self,
        kind: T::Kind,
        tasks: &mut Vec<(usize, T)>,
        done_out: &mut Vec<Done<T>>,
    ) -> bool {
        self.run_with(kind, tasks, done_out, true)
    }

    /// [`Self::run`] with the workers sitting out: the calling thread
    /// runs every task, through the same queue, join, panic handling and
    /// observability, and no worker is woken. For runs too small to pay
    /// for a wake-up — the handoff there and back costs more than the
    /// tasks, and a woken worker competes for a core with whatever else is
    /// runnable.
    #[must_use = "a panicked run must be re-raised after restoring tasks"]
    pub fn run_on_caller(
        &mut self,
        kind: T::Kind,
        tasks: &mut Vec<(usize, T)>,
        done_out: &mut Vec<Done<T>>,
    ) -> bool {
        self.run_with(kind, tasks, done_out, false)
    }

    fn run_with(
        &mut self,
        kind: T::Kind,
        tasks: &mut Vec<(usize, T)>,
        done_out: &mut Vec<Done<T>>,
        wake: bool,
    ) -> bool {
        done_out.clear();
        if tasks.is_empty() {
            return false;
        }
        // The clock is read only when observability or a live tracer is
        // attached.
        let tracing = self.tracer.as_ref().is_some_and(PoolTracer::is_on);
        let run_start = (self.obs.is_some() || tracing).then(Instant::now);
        let depth = tasks.len();
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(st.queue.is_empty() && st.active == 0 && st.done.is_empty());
        st.kind = Some(kind);
        st.queue.append(tasks);
        st.wake = wake;
        st.epoch = st.epoch.wrapping_add(1);
        st.panicked = false;
        st.obs_active = self.obs.is_some();
        st.worker_tasks = 0;
        st.caller_tasks = 0;
        st.first_worker_pop = None;
        if wake && !self.handles.is_empty() && st.queue.len() > 1 {
            // With a single task the caller will run it directly; don't
            // wake workers just to find an empty queue.
            self.shared.work_ready.notify_all();
        }
        st = drain_queue(&self.shared, st, false);
        while st.active > 0 {
            st = self
                .shared
                .work_done
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st = drain_queue(&self.shared, st, false);
        }
        std::mem::swap(&mut st.done, done_out);
        let panicked = st.panicked;
        if let (Some(obs), Some(start)) = (self.obs.as_mut(), run_start) {
            // Quiescent: workers are parked, so the per-run fields are
            // final. Fold everything into the local buffer and merge —
            // one registry lock per run, held by the caller only.
            let worker_tasks = st.worker_tasks;
            let caller_tasks = st.caller_tasks;
            let handoff = st
                .first_worker_pop
                .map(|t| t.duration_since(start).as_secs_f64());
            drop(st);
            obs.local.observe(obs.queue_depth, depth as f64);
            obs.local
                .observe(obs.run_seconds, start.elapsed().as_secs_f64());
            if let Some(handoff) = handoff {
                obs.local.observe(obs.handoff_seconds, handoff);
            }
            obs.local.add(obs.worker_tasks, worker_tasks);
            obs.local.add(obs.caller_tasks, caller_tasks);
            let total = worker_tasks + caller_tasks;
            if total > 0 {
                obs.local
                    .set(obs.worker_occupancy, worker_tasks as f64 / total as f64);
            }
            obs.local.add(obs.runs, 1);
            obs.hub.registry().merge(&mut obs.local);
            if panicked {
                obs.hub
                    .emit("runtime", format!("task panicked in pool '{}'", obs.name));
            }
        }
        if let (Some(tracer), Some(start)) = (self.tracer.as_mut(), run_start) {
            if tracing {
                tracer.record_run(start, Instant::now());
            }
        }
        panicked
    }
}

/// Pops and executes tasks until the queue is empty, from either the
/// calling thread or a worker. The job kind and the pinned context are read
/// under the same lock as each pop: the queue may already belong to a newer
/// epoch than the one that woke this thread, and a task must never run
/// against a context older than its own pop. A panicking task marks the run
/// panicked — the task is lost with the unwind — instead of leaving
/// `active` stuck and hanging the caller's quiescence wait.
fn drain_queue<'m, S: PinSource, T: PoolTask<Ctx = S::Ctx>>(
    shared: &'m Shared<S, T>,
    mut st: std::sync::MutexGuard<'m, PoolState<T>>,
    is_worker: bool,
) -> std::sync::MutexGuard<'m, PoolState<T>> {
    while let Some((idx, mut task)) = st.queue.pop() {
        if st.obs_active && is_worker && st.first_worker_pop.is_none() {
            // Epoch handoff latency probe: first worker-thread pop of
            // the run. Under the lock this pop already holds.
            st.first_worker_pop = Some(Instant::now());
        }
        let kind = st.kind.expect("queue is non-empty only during a run");
        let ctx = shared.source.pin();
        st.active += 1;
        drop(st);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run(&ctx, kind)));
        st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        if st.obs_active {
            if is_worker {
                st.worker_tasks += 1;
            } else {
                st.caller_tasks += 1;
            }
        }
        match result {
            Ok(output) => st.done.push(Done { idx, task, output }),
            Err(_) => st.panicked = true,
        }
        if st.active == 0 && st.queue.is_empty() {
            shared.work_done.notify_all();
        }
    }
    st
}

impl<S: PinSource, T: PoolTask<Ctx = S::Ctx>> Drop for WorkerPool<S, T> {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        // Tolerate workers that died (e.g. a panicking `PinSource`): a
        // `Drop` that panics on a dead worker double-panics during unwind
        // and aborts the whole process — strictly worse than finishing
        // shutdown and reporting. Dead workers surface through the pool's
        // obs event ring when observability is attached.
        let mut dead = 0usize;
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                dead += 1;
            }
        }
        if dead > 0 {
            if let Some(obs) = &self.obs {
                obs.hub.emit(
                    "runtime",
                    format!("pool '{}' shut down with {dead} dead worker(s)", obs.name),
                );
            }
        }
    }
}

fn worker_loop<S: PinSource, T: PoolTask<Ctx = S::Ctx>>(shared: &Shared<S, T>) {
    let mut seen_epoch = 0u64;
    loop {
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.shutdown {
                return;
            }
            if st.epoch != seen_epoch && st.wake && !st.queue.is_empty() {
                break;
            }
            // No new epoch, a run the caller keeps to itself, or a queue
            // already drained by the caller and the other workers —
            // nothing for us this run.
            seen_epoch = st.epoch;
            st = shared
                .work_ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        seen_epoch = st.epoch;
        let st = drain_queue(shared, st, true);
        drop(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A task that squares its payload, optionally panicking, and records
    /// the context version it ran against.
    struct Square {
        value: u64,
        seen_ctx: u64,
        panic_on: Option<u64>,
    }

    impl PoolTask for Square {
        type Ctx = u64;
        type Kind = u64;
        type Output = u64;

        fn run(&mut self, ctx: &u64, kind: u64) -> u64 {
            if self.panic_on == Some(self.value) {
                panic!("boom");
            }
            self.seen_ctx = *ctx;
            self.value * self.value + kind
        }
    }

    /// A context source whose pinned value is a live atomic counter.
    struct Versioned(AtomicU64);

    impl PinSource for Versioned {
        type Ctx = u64;

        fn pin(&self) -> u64 {
            self.0.load(Ordering::Acquire)
        }
    }

    fn tasks(n: u64) -> Vec<(usize, Square)> {
        (0..n)
            .map(|i| {
                (
                    i as usize,
                    Square {
                        value: i,
                        seen_ctx: u64::MAX,
                        panic_on: None,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn results_identical_across_worker_counts() {
        for workers in [0usize, 1, 3] {
            let mut pool = WorkerPool::new(Arc::new(Versioned(AtomicU64::new(7))), workers);
            assert_eq!(pool.workers(), workers);
            let mut queue = tasks(20);
            let mut done = Vec::new();
            let panicked = pool.run(100, &mut queue, &mut done);
            assert!(!panicked);
            assert!(queue.is_empty(), "run drains the task vector");
            assert_eq!(done.len(), 20);
            done.sort_unstable_by_key(|d| d.idx);
            for (i, d) in done.iter().enumerate() {
                assert_eq!(d.idx, i);
                assert_eq!(d.output, (i as u64) * (i as u64) + 100);
                assert_eq!(d.task.seen_ctx, 7, "context pinned from the source");
            }
        }
    }

    #[test]
    fn buffers_and_workers_are_reused_across_runs() {
        let mut pool = WorkerPool::new(Arc::new(Versioned(AtomicU64::new(0))), 2);
        let mut queue = Vec::new();
        let mut done = Vec::new();
        for run in 0..50u64 {
            pool.source().0.store(run, Ordering::Release);
            queue.extend(tasks(8));
            let panicked = pool.run(run, &mut queue, &mut done);
            assert!(!panicked);
            assert_eq!(done.len(), 8, "run {run}");
            for d in &done {
                assert_eq!(d.output, (d.idx as u64).pow(2) + run);
                assert_eq!(d.task.seen_ctx, run, "stale context pinned");
            }
        }
    }

    /// A task that sleeps for its duration.
    struct Nap(std::time::Duration);

    impl PoolTask for Nap {
        type Ctx = ();
        type Kind = ();
        type Output = ();

        fn run(&mut self, _: &(), (): ()) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn run_on_caller_keeps_workers_out() {
        let (full, caller) = (pinnsoc_obs::ObsHub::new(), pinnsoc_obs::ObsHub::new());
        let mut pool: WorkerPool<NoContext, Nap> = WorkerPool::new(Arc::new(NoContext), 2);
        let naps = |micros| (0..4).map(move |i| (i, Nap(std::time::Duration::from_micros(micros))));
        let mut queue = Vec::new();
        let mut done = Vec::new();
        for _ in 0..20 {
            // A full run of instant tasks wakes the workers, and the
            // caller is likely done before they arrive: they then find
            // the caller-only run's queue, and must leave it alone.
            pool.attach_obs(PoolObs::new(&full, "lanes"));
            queue.extend(naps(0));
            assert!(!pool.run((), &mut queue, &mut done));
            assert_eq!(done.len(), 4);
            pool.attach_obs(PoolObs::new(&caller, "lanes"));
            queue.extend(naps(200));
            assert!(!pool.run_on_caller((), &mut queue, &mut done));
            assert_eq!(done.len(), 4);
        }
        let caller = caller.snapshot().metrics;
        assert_eq!(
            caller.counter_total("pinnsoc_runtime_pool_worker_tasks_total"),
            0
        );
        assert_eq!(
            caller.counter_total("pinnsoc_runtime_pool_caller_tasks_total"),
            80
        );
    }

    #[test]
    fn empty_run_is_a_noop() {
        let mut pool: WorkerPool<NoContext, Noop> = WorkerPool::new(Arc::new(NoContext), 1);
        let mut done = vec![Done {
            idx: 9,
            task: Noop,
            output: (),
        }];
        assert!(!pool.run((), &mut Vec::new(), &mut done));
        assert!(done.is_empty(), "done_out is cleared even with no tasks");
    }

    struct Noop;

    impl PoolTask for Noop {
        type Ctx = ();
        type Kind = ();
        type Output = ();

        fn run(&mut self, _: &(), (): ()) {}
    }

    #[test]
    fn panicked_task_reports_and_survivors_return() {
        let mut pool = WorkerPool::new(Arc::new(Versioned(AtomicU64::new(0))), 2);
        let mut queue = tasks(10);
        queue[4].1.panic_on = Some(4);
        let mut done = Vec::new();
        let panicked = pool.run(0, &mut queue, &mut done);
        assert!(panicked, "panic must be reported");
        assert_eq!(done.len(), 9, "all surviving tasks return");
        assert!(done.iter().all(|d| d.idx != 4));
        // The pool stays usable for the next run.
        let mut queue = tasks(3);
        let mut done = Vec::new();
        assert!(!pool.run(1, &mut queue, &mut done));
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn attached_obs_accounts_every_task_without_changing_results() {
        let hub = pinnsoc_obs::ObsHub::new();
        let mut pool = WorkerPool::new(Arc::new(Versioned(AtomicU64::new(7))), 2);
        pool.attach_obs(PoolObs::new(&hub, "test"));
        let mut queue = tasks(12);
        let mut done = Vec::new();
        assert!(!pool.run(3, &mut queue, &mut done));
        assert_eq!(done.len(), 12);
        done.sort_unstable_by_key(|d| d.idx);
        for (i, d) in done.iter().enumerate() {
            assert_eq!(d.output, (i as u64) * (i as u64) + 3);
        }
        let snap = hub.snapshot();
        assert_eq!(
            snap.metrics
                .counter_total("pinnsoc_runtime_pool_runs_total"),
            1
        );
        // Every task is attributed to exactly one side of the handoff.
        let executed = snap
            .metrics
            .counter_total("pinnsoc_runtime_pool_worker_tasks_total")
            + snap
                .metrics
                .counter_total("pinnsoc_runtime_pool_caller_tasks_total");
        assert_eq!(executed, 12);
        assert!(pool.detach_obs().is_some());
        // Detached: the next run leaves the series untouched.
        let mut queue = tasks(4);
        assert!(!pool.run(0, &mut queue, &mut done));
        assert_eq!(
            hub.snapshot()
                .metrics
                .counter_total("pinnsoc_runtime_pool_runs_total"),
            1
        );
    }

    /// A [`PinSource`] that kills worker threads: `pin` panics on unnamed
    /// threads (pool workers), after rendezvousing with the caller's
    /// in-flight task so the worker is guaranteed to have engaged. Test
    /// threads carry the test's name, so the caller pins harmlessly.
    struct WorkerKiller(std::sync::Barrier);

    impl PinSource for WorkerKiller {
        type Ctx = ();

        fn pin(&self) {
            if std::thread::current().name().is_none() {
                self.0.wait();
                panic!("worker dies with the state lock held");
            }
        }
    }

    /// Blocks until the worker has reached its fatal `pin`, so the worker
    /// death is deterministic, not a race.
    struct Rendezvous(Arc<WorkerKiller>);

    impl PoolTask for Rendezvous {
        type Ctx = ();
        type Kind = ();
        type Output = ();

        fn run(&mut self, _: &(), (): ()) {
            self.0 .0.wait();
        }
    }

    #[test]
    fn dead_worker_poisons_nothing_and_drop_survives() {
        let source = Arc::new(WorkerKiller(std::sync::Barrier::new(2)));
        let hub = pinnsoc_obs::ObsHub::new();
        let mut pool = WorkerPool::new(Arc::clone(&source), 1);
        pool.attach_obs(PoolObs::new(&hub, "doomed"));
        // Two tasks: the caller pops one and blocks in it until the worker
        // has popped the other and died inside `pin` — with the state lock
        // held, poisoning it. The worker's task is lost with the unwind.
        let mut queue = vec![
            (0, Rendezvous(Arc::clone(&source))),
            (1, Rendezvous(Arc::clone(&source))),
        ];
        let mut done = Vec::new();
        let panicked = pool.run((), &mut queue, &mut done);
        assert!(!panicked, "pin deaths are not task panics");
        assert_eq!(done.len(), 1, "the worker's popped task died with it");

        // The poisoned lock is recovered, not propagated: the pool keeps
        // serving runs on the calling thread (named, so it pins fine). A
        // one-party barrier makes these tasks complete instantly.
        let solo = Arc::new(WorkerKiller(std::sync::Barrier::new(1)));
        let mut queue = vec![
            (0, Rendezvous(Arc::clone(&solo))),
            (1, Rendezvous(Arc::clone(&solo))),
        ];
        assert!(!pool.run((), &mut queue, &mut done));
        assert_eq!(done.len(), 2);

        // Drop joins the dead worker without double-panicking, and the
        // death surfaces through the obs event ring.
        drop(pool);
        let events = hub.snapshot().events;
        assert!(
            events
                .iter()
                .any(|e| e.source == "runtime" && e.message.contains("1 dead worker")),
            "dead worker not surfaced: {events:?}"
        );
    }

    #[test]
    fn drop_joins_idle_workers() {
        let mut pool: WorkerPool<NoContext, Noop> = WorkerPool::new(Arc::new(NoContext), 4);
        let mut queue = vec![(0, Noop), (1, Noop)];
        let mut done = Vec::new();
        assert!(!pool.run((), &mut queue, &mut done));
        drop(pool); // must not hang or panic
    }
}
