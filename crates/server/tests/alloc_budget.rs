//! The wire path's allocation budget, counted rather than timed: a
//! thread-local counting allocator watches one warmed `serve_session`
//! (pool of 1, so every query runs on the test thread) answer a 64-line
//! window of neighbor verbs on the hub nodes of a `datasets` hub network —
//! the shape of the benchmark's `wire64` stream, where reply rendering and
//! per-line bookkeeping used to cost more than the engine.
//!
//! The allocations a line may cost are pinned at half of what the session
//! layer cost before replies were rendered straight into the connection's
//! buffer: a per-line namespace `String`, a fresh `Vec` per neighbor list
//! (grown by doubling), an `Arc` per answer and the per-group regrouping
//! vectors. A change that brings one of them back fails here on any
//! machine, however fast it is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grepair_core::{compress, GRePairConfig};
use grepair_server::{serve_session, SessionOpts, WorkerPool};
use grepair_store::{write_container, GraphStore, StoreRegistry};

/// Allocations per served line before this budget existed, measured with
/// this test on the same window.
const BEFORE_PER_LINE: f64 = 6.80;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

impl Counting {
    fn count() {
        // `try_with`: a thread being torn down has no counter left.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `realloc`, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_hub_window_allocates_at_most_half_of_what_it_did() {
    let graph = grepair_datasets::network::hub_network(3_000, 12, 1, 1);
    let grammar = compress(&graph, &GRePairConfig::default()).grammar;
    let encoded = grepair_codec::encode(&grammar);
    let store = GraphStore::from_bytes(&write_container(&encoded.bytes, encoded.bit_len)).unwrap();
    // The hubs: the 24 nodes with the most neighbors.
    let mut by_degree: Vec<(usize, u64)> = (0..store.total_nodes())
        .map(|v| (store.neighbors(v).unwrap().len(), v))
        .collect();
    by_degree.sort_unstable_by(|a, b| b.cmp(a));
    let hubs: Vec<u64> = by_degree.iter().take(24).map(|&(_, v)| v).collect();
    assert!(by_degree[0].0 >= 100, "a hub network has hubs: {:?}", &by_degree[..3]);
    // 64 distinct lines: every verb on each hub in turn.
    let window: String = (0..64)
        .map(|i| format!("{} {}\n", ["out", "in", "neighbors"][i % 3], hubs[i / 3]))
        .collect();

    let registry = StoreRegistry::new(store);
    let pool = WorkerPool::new(1);
    let opts = SessionOpts::default();
    let serve = || {
        let mut out = Vec::new();
        let summary =
            serve_session(&registry, &pool, &mut window.as_bytes(), &mut out, &opts).unwrap();
        assert_eq!((summary.served, summary.errors), (64, 0));
        out
    };
    // Warm: the expansion cells fill on first use.
    let warm = serve();
    let before = allocations();
    let replies = serve();
    let per_line = (allocations() - before) as f64 / 64.0;
    assert_eq!(replies, warm);
    eprintln!("allocations per served line: {per_line:.2} (before: {BEFORE_PER_LINE:.2})");
    assert!(
        per_line <= BEFORE_PER_LINE / 2.0,
        "{per_line:.2} allocations per line, budget {:.2}",
        BEFORE_PER_LINE / 2.0
    );
}
