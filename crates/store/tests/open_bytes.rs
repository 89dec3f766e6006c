//! The heap an open store keeps, counted rather than estimated: a
//! thread-local allocator tally of live bytes across one
//! `GraphStore::from_bytes` of the benchmark's `compress-network` and
//! `compress-version` graphs, with the store still alive.
//!
//! What the store keeps after open is the decoded grammar, the navigation
//! index (a slot per context node and one offset per edge id plus one, per
//! context), the reachability skeletons and condensation labels, and an
//! empty expansion cell per (nonterminal, external position, direction).
//! Each bound is the count at the time it was set plus under 2 %: a second
//! copy of any per-edge array, or a pushed array's doubling slack, does not
//! fit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grepair_core::{compress, GRePairConfig};
use grepair_datasets::network::hub_network;
use grepair_datasets::version::CoauthorshipHistory;
use grepair_hypergraph::Hypergraph;
use grepair_store::{write_container, GraphStore};

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, tallying live bytes on the calling thread.
struct Counting;

impl Counting {
    fn add(bytes: usize, sign: i64) {
        // `try_with`: a thread being torn down has no tally left.
        let _ = LIVE.try_with(|n| n.set(n.get() + sign * bytes as i64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the tally touches only a const-initialized thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::add(layout.size(), 1);
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::add(layout.size(), 1);
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::add(layout.size(), -1);
        Self::add(new_size, 1);
        // SAFETY: the caller's contract for `realloc`, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::add(layout.size(), -1);
        // SAFETY: the caller's contract for `dealloc`, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Compress `graph`, wrap it in a container and open it: the live bytes the
/// open store holds, in KiB.
fn open_kib(graph: &Hypergraph) -> f64 {
    let grammar = compress(graph, &GRePairConfig::default()).grammar;
    let encoded = grepair_codec::encode(&grammar);
    let file = write_container(&encoded.bytes, encoded.bit_len);
    let before = LIVE.with(Cell::get);
    let store = GraphStore::from_bytes(&file).unwrap();
    let kept = LIVE.with(Cell::get) - before;
    // Nothing is expanded at open: the cells fill on first use.
    let stats = store.stats();
    assert_eq!(stats.expansion_cache_hits + stats.expansion_cache_misses, 0);
    kept as f64 / 1024.0
}

fn check(name: &str, graph: &Hypergraph, bound_kib: f64) {
    let kib = open_kib(graph);
    eprintln!("{name}: the open store keeps {kib:.1} KiB (bound {bound_kib} KiB)");
    assert!(kib <= bound_kib, "{name}: the open store keeps {kib:.1} KiB > {bound_kib} KiB");
}

#[test]
fn the_open_hub_network_store_keeps_its_counted_bytes() {
    // 452.8 KiB counted; 554.8 KiB with a second, searched copy of every
    // nonterminal edge's offset.
    check("compress-network", &hub_network(12_000, 24, 1, 1), 460.0);
}

#[test]
fn the_open_version_graph_store_keeps_its_counted_bytes() {
    // 983.4 KiB counted; 1 098.4 KiB with a second, searched copy of every
    // nonterminal edge's offset.
    let graph = CoauthorshipHistory::generate(13, 80, 800, 60, 1).version_graph(12);
    check("compress-version", &graph, 1000.0);
}
