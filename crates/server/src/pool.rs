//! A fixed-size worker pool that runs *borrowed* batch jobs — the reusable
//! replacement for per-batch `thread::scope` spawns.
//!
//! Spawning fresh threads per batch is fine when one batch holds 10k
//! queries and disastrous when a socket connection hands over 4 lines at a
//! time (the spawn cost dwarfs the queries). This pool spawns its threads
//! **once**; every
//! [`WorkerPool::scope`] call ships the batch's jobs through a channel to
//! the resident workers and blocks until all of them finished, which is
//! what lets the jobs borrow the caller's stack (the batch slice and the
//! answer slots).
//!
//! The lifetime laundering in `scope` is the only `unsafe` in the serving
//! stack; its soundness argument is spelled out at the call site.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use grepair_store::BatchExecutor;
use grepair_util::sync::{self, Mutex};

/// A job after lifetime erasure, as shipped through the channel.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Countdown latch one `scope` call waits on: every submitted job holds a
/// [`LatchGuard`]; `wait` returns once all guards dropped.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    /// Set when a job panicked (the panic is caught on the worker so the
    /// pool survives; `scope` re-raises it on the submitting thread).
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let mut remaining = self.remaining.lock();
        while *remaining > 0 {
            remaining = sync::wait(&self.all_done, remaining);
        }
    }
}

/// Decrements the latch on drop — so a job releases its slot whether it
/// ran, panicked, or was dropped unexecuted (pool shutdown mid-scope).
struct LatchGuard(Arc<Latch>);

impl Drop for LatchGuard {
    fn drop(&mut self) {
        let mut remaining = self.0.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.0.all_done.notify_all();
        }
    }
}

/// A fixed set of resident worker threads fed through one shared channel.
///
/// Implements [`BatchExecutor`], so a server session fans a connection's
/// request batch into `GraphStore::render_batch_on(&lines, &pool, out)`
/// and the batch machinery (per-chunk replies in input order) runs on
/// reused threads. One pool serves every connection of a server; `scope` may be
/// called from many session threads (and the reactor) concurrently — jobs
/// interleave in the channel, each caller waits only on its own latch.
#[derive(Debug)]
pub struct WorkerPool {
    /// `Some` until drop; taking it disconnects the channel, which is the
    /// workers' shutdown signal.
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    /// Jobs submitted but not yet finished (queued + running), across every
    /// concurrent `scope` call. This is the load signal the shed watermark
    /// compares against (DESIGN.md §10).
    inflight: Arc<AtomicUsize>,
    /// Queue-depth watermark: once `inflight` reaches it, [`overloaded`]
    /// reports true and sessions shed new batches with `busy` replies.
    /// `0` disables shedding (the default).
    shed_watermark: AtomicUsize,
    /// Monotonic count of shed queries, bumped by the session layer via
    /// [`note_shed`]; lives here so every session of a server shares it.
    sheds: AtomicU64,
}

/// Decrements the pool's inflight counter on drop, so a job releases its
/// load-signal slot whether it ran, panicked, or was dropped unexecuted.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Hard ceiling on resident workers. Pool threads are CPU-bound query
/// crunchers — beyond this they only add contention — and an absurd
/// `--threads` request must degrade, not exhaust the OS thread table.
pub const MAX_POOL_THREADS: usize = 1024;

impl WorkerPool {
    /// Spawn resident workers: `threads` of them (clamped to
    /// `1..=`[`MAX_POOL_THREADS`]), or one per available core for `0`.
    ///
    /// Spawning is best-effort: if the OS refuses a thread partway (EAGAIN
    /// under resource pressure), the pool keeps the workers it got — and a
    /// pool that got none runs every [`WorkerPool::scope`] job on the
    /// submitting thread, so serving degrades to sequential instead of
    /// crashing.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            threads.min(MAX_POOL_THREADS)
        };
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let receiver = Arc::clone(&receiver);
            let spawned = std::thread::Builder::new()
                .name(format!("grepair-worker-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the dequeue, not
                    // while running the task.
                    let task = receiver.lock().recv();
                    match task {
                        Ok(task) => task(),
                        Err(_) => break, // channel closed: pool dropped
                    }
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                #[expect(
                    clippy::print_stderr,
                    reason = "operator-visible capacity warning; stderr is the server's log surface"
                )]
                Err(e) => {
                    eprintln!("worker pool capped at {i} of {threads} threads: {e}");
                    break;
                }
            }
        }
        Self {
            sender: Some(sender),
            workers,
            inflight: Arc::new(AtomicUsize::new(0)),
            shed_watermark: AtomicUsize::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// Number of resident worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued or running across all concurrent scopes.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Arm (or, with `0`, disarm) the shed watermark.
    pub fn set_shed_watermark(&self, watermark: usize) {
        self.shed_watermark.store(watermark, Ordering::Relaxed);
    }

    /// True when the queue is at or past the watermark — the session layer
    /// answers `busy` instead of submitting more work (DESIGN.md §10).
    pub fn overloaded(&self) -> bool {
        let watermark = self.shed_watermark.load(Ordering::Relaxed);
        watermark != 0 && self.inflight() >= watermark
    }

    /// Record `n` queries shed by a session; returns nothing — the running
    /// total is [`Self::sheds`].
    pub fn note_shed(&self, n: u64) {
        self.sheds.fetch_add(n, Ordering::Relaxed);
    }

    /// Total queries shed at the watermark since the pool was built.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }
}

impl BatchExecutor for WorkerPool {
    fn max_workers(&self) -> usize {
        self.threads()
    }

    /// Run every job on the resident workers and block until all completed.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is caught on the worker (the pool keeps
    /// serving) and re-raised here once the whole scope has drained.
    fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if self.workers.is_empty() {
            // Degraded pool (no thread could be spawned): run on the
            // submitting thread rather than parking forever on the latch.
            // The jobs still count as inflight so the shed watermark sees
            // the load.
            for job in jobs {
                self.inflight.fetch_add(1, Ordering::Relaxed);
                let _inflight = InflightGuard(Arc::clone(&self.inflight));
                job();
            }
            return;
        }
        let latch = Arc::new(Latch::new(jobs.len()));
        for job in jobs {
            // SAFETY: the job borrows data living at least for 'env, which
            // is the caller's frame. We erase that lifetime to ship the job
            // through the 'static channel, and re-establish the guarantee
            // by blocking on the latch below until every job's LatchGuard
            // has dropped — i.e. until each job has either run to
            // completion or been destructed unexecuted. Either way no
            // borrow escapes this call, so the caller's frame outlives all
            // uses. The guard is moved *into* the wrapper task, so even a
            // task dropped on the floor by a shutting-down channel
            // decrements the latch (Box's drop runs the wrapper's field
            // drops).
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            let guard = LatchGuard(Arc::clone(&latch));
            self.inflight.fetch_add(1, Ordering::Relaxed);
            let inflight = InflightGuard(Arc::clone(&self.inflight));
            let latch_for_task = Arc::clone(&latch);
            let task: Task = Box::new(move || {
                let _guard = guard;
                let _inflight = inflight;
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    latch_for_task.panicked.store(true, Ordering::Relaxed);
                }
            });
            #[expect(
                clippy::expect_used,
                reason = "pool invariant: the sender is Some until Drop takes it; pool invariant: workers keep the receiver alive until Drop"
            )]
            self.sender
                .as_ref()
                .expect("pool sender alive until drop")
                .send(task)
                .expect("pool workers alive until drop");
        }
        latch.wait();
        #[expect(
            clippy::panic,
            reason = "deliberate: re-raises a job panic to the caller after the pool absorbed it"
        )]
        if latch.panicked.load(Ordering::Relaxed) {
            panic!("a worker-pool job panicked (the pool itself survived)");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.sender.take(); // disconnect: workers drain the queue and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    fn jobs_from<'env>(
        closures: impl IntoIterator<Item = Box<dyn FnOnce() + Send + 'env>>,
    ) -> Vec<Box<dyn FnOnce() + Send + 'env>> {
        closures.into_iter().collect()
    }

    #[test]
    fn runs_every_job_and_blocks_until_done() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let counter = AtomicUsize::new(0);
        let jobs = jobs_from((0..100).map(|_| {
            let counter = &counter;
            Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        pool.scope(jobs);
        // scope returned ⇒ all 100 ran; no sleep needed.
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn jobs_may_borrow_and_mutate_the_callers_stack() {
        // The whole point of the latch: jobs write into caller-owned slots.
        let pool = WorkerPool::new(3);
        let mut slots = vec![0u64; 32];
        let jobs = jobs_from(slots.chunks_mut(8).enumerate().map(|(i, chunk)| {
            Box::new(move || {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (i * 8 + j) as u64 * 2;
                }
            }) as Box<dyn FnOnce() + Send + '_>
        }));
        pool.scope(jobs);
        assert_eq!(slots, (0..32u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn threads_are_reused_across_scopes() {
        let pool = WorkerPool::new(2);
        let seen = Mutex::new(BTreeSet::new());
        for _ in 0..20 {
            let jobs = jobs_from((0..4).map(|_| {
                let seen = &seen;
                Box::new(move || {
                    seen.lock().insert(std::thread::current().name().map(String::from));
                }) as Box<dyn FnOnce() + Send + '_>
            }));
            pool.scope(jobs);
        }
        // 80 jobs over 20 scopes all landed on the same 2 resident threads.
        let seen = seen.into_inner();
        assert!(seen.len() <= 2, "{seen:?}");
        assert!(seen.iter().all(|name| {
            name.as_deref().is_some_and(|n| n.starts_with("grepair-worker-"))
        }));
    }

    #[test]
    fn concurrent_scopes_from_many_threads_share_one_pool() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    for _ in 0..10 {
                        let jobs = jobs_from((0..5).map(|_| {
                            Box::new(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            })
                                as Box<dyn FnOnce() + Send + '_>
                        }));
                        pool.scope(jobs);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 10 * 5);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkerPool::new(2);
        pool.scope(Vec::new());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn absurd_thread_requests_are_clamped_not_fatal() {
        // `--threads 10000000` must degrade to the cap, not exhaust the OS
        // thread table or panic.
        let pool = WorkerPool::new(10_000_000);
        assert!(pool.threads() <= MAX_POOL_THREADS);
        assert!(pool.threads() >= 1, "spawning within the cap succeeds here");
        let ran = AtomicUsize::new(0);
        pool.scope(jobs_from((0..4).map(|_| {
            let ran = &ran;
            Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        })));
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn watermark_trips_under_load_and_clears_when_it_drains() {
        let pool = Arc::new(WorkerPool::new(1));
        assert!(!pool.overloaded(), "disarmed watermark never sheds");
        pool.set_shed_watermark(1);
        assert!(!pool.overloaded(), "idle pool is below any watermark");

        // Park a job on the single worker so inflight stays at 1 while we
        // probe the watermark from this thread.
        let (release_tx, release_rx) = channel::<()>();
        let (parked_tx, parked_rx) = channel::<()>();
        let background = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                pool.scope(jobs_from([Box::new(move || {
                    parked_tx.send(()).ok();
                    release_rx.recv().ok();
                }) as Box<dyn FnOnce() + Send + '_>]));
            })
        };
        parked_rx.recv().expect("the parked job started");
        assert_eq!(pool.inflight(), 1);
        assert!(pool.overloaded(), "inflight at the watermark sheds");

        release_tx.send(()).expect("the parked job is waiting");
        background.join().expect("background scope finished");
        assert_eq!(pool.inflight(), 0, "scope returned ⇒ load drained");
        assert!(!pool.overloaded());

        pool.set_shed_watermark(0);
        pool.note_shed(3);
        pool.note_shed(2);
        assert_eq!(pool.sheds(), 5);
    }

    #[test]
    fn a_panicking_job_is_reported_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(jobs_from([
                Box::new(|| panic!("job boom")) as Box<dyn FnOnce() + Send + '_>,
            ]));
        }));
        assert!(result.is_err(), "the panic must reach the submitter");
        // The pool still works afterwards.
        let ran = AtomicUsize::new(0);
        pool.scope(jobs_from((0..8).map(|_| {
            let ran = &ran;
            Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }) as Box<dyn FnOnce() + Send + '_>
        })));
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }
}
