//! Allocations per warm query, counted rather than timed: a thread-local
//! counting allocator watches 2 000 fixed id pairs through
//! `ReachIndex::try_reachable`, `RpqIndex::try_matches` on a compiled `0*`
//! plan and `GrammarIndex::try_neighbors_into` into a reused buffer, on the
//! benchmark's `compress-network` and `compress-version` graphs, after one
//! pass that fills every expansion cell the rows read.
//!
//! A locate is one descent whose record — one hop per level, in a `Vec`
//! sized once — is what reach and RPQ climb, so a reach allocates that
//! record per endpoint that is not a start node and three seed buffers,
//! and nothing per level. Each bound is the count when it was set, rounded
//! up: walking a located path a second time into a `Vec` of its own, as
//! the hop lists did (8.64 / 6.65 per reach, 20.62 / 14.40 per RPQ), or a
//! fresh `Vec` per level climbed, does not fit. The RPQ still allocates
//! its search sets per query, and a row below S its external ids.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grepair_core::{compress, GRePairConfig};
use grepair_datasets::network::hub_network;
use grepair_datasets::version::CoauthorshipHistory;
use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_queries::{Direction, GrammarIndex, Nfa, ReachIndex, Regex, RpqIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

const PAIRS: usize = 2_000;

/// Allocations per call of `query` over `pairs`, counted on a second pass.
fn per_query(pairs: &[(u64, u64)], mut query: impl FnMut(u64, u64)) -> f64 {
    for &(s, t) in pairs {
        query(s, t);
    }
    let before = ALLOCATIONS.with(Cell::get);
    for &(s, t) in pairs {
        query(s, t);
    }
    (ALLOCATIONS.with(Cell::get) - before) as f64 / pairs.len() as f64
}

/// Allocations per warm `[reach, rpq 0*, neighbor row]` on the served form
/// of `graph`: compressed, encoded and decoded.
fn counts(graph: &Hypergraph) -> [f64; 3] {
    let encoded = grepair_codec::encode(&compress(graph, &GRePairConfig::default()).grammar);
    let grammar: Grammar = grepair_codec::decode(&encoded.bytes, encoded.bit_len).unwrap();
    let reach = ReachIndex::new(&grammar);
    let rpq = RpqIndex::new(&grammar, Nfa::from_regex(&Regex::star(Regex::label(0))));
    let index = GrammarIndex::new(&grammar);
    let total = index.total_nodes;
    let mut rng = StdRng::seed_from_u64(1);
    let pairs: Vec<(u64, u64)> = (0..PAIRS)
        .map(|_| (rng.gen_range(0..total), rng.gen_range(0..total)))
        .collect();
    let mut row = Vec::new();
    [
        per_query(&pairs, |s, t| {
            reach.try_reachable(s, t).unwrap();
        }),
        per_query(&pairs, |s, t| {
            rpq.try_matches(s, t).unwrap();
        }),
        per_query(&pairs, |s, t| {
            let dir = if t % 2 == 0 {
                Direction::Out
            } else {
                Direction::In
            };
            index.try_neighbors_into(s, dir, &mut row).unwrap();
        }),
    ]
}

fn check(name: &str, graph: &Hypergraph, bounds: [f64; 3]) {
    let got = counts(graph);
    for ((class, n), bound) in ["reach", "rpq 0*", "neighbor row"]
        .iter()
        .zip(got)
        .zip(bounds)
    {
        eprintln!("{name}: {n:.2} allocations per warm {class} (bound {bound})");
        assert!(
            n <= bound,
            "{name}: {n:.2} allocations per warm {class} > {bound}"
        );
    }
}

#[test]
fn warm_hub_network_queries_allocate_within_bounds() {
    // 5.12 / 18.95 / 1.39 counted.
    check(
        "compress-network",
        &hub_network(12_000, 24, 1, 1),
        [5.2, 19.0, 1.4],
    );
}

#[test]
fn warm_version_graph_queries_allocate_within_bounds() {
    let graph = CoauthorshipHistory::generate(13, 80, 800, 60, 1).version_graph(12);
    // 3.96 / 11.76 / 1.50 counted.
    check("compress-version", &graph, [4.0, 11.8, 1.5]);
}
