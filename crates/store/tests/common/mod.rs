//! Scaffolding shared by the store's integration suites.

use grepair_store::BatchExecutor;

/// The plainest real-thread [`BatchExecutor`]: one fresh scoped thread per
/// job, as many jobs as the wrapped worker count. The suites fan batches
/// out through it so the store's shared state (expansion table, plan
/// cache, counters) is exercised under genuine concurrency without pulling
/// in the server's worker pool.
pub struct ScopedThreads(pub usize);

impl BatchExecutor for ScopedThreads {
    fn max_workers(&self) -> usize {
        self.0
    }

    fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        // `thread::scope` joins every worker before returning and propagates
        // any panic, which satisfies the run-to-completion contract.
        std::thread::scope(|scope| {
            for job in jobs {
                scope.spawn(job);
            }
        });
    }
}
