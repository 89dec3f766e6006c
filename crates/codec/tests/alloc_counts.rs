//! Allocations per `decode` and per `derive`, counted rather than timed: a
//! thread-local counting allocator watches one decode of a grammar's
//! container and one derivation of val(G) from it, for a version graph and
//! a hub network, each at two sizes.
//!
//! Every graph is a `Hypergraph` whose edges are three flat arrays and whose
//! incidence lists share one arena, so building S, a rule or val(G) costs a
//! handful of allocations, none per node and none per hyperedge:
//! - `derive` allocates a few times per rule (the bottom-up rule order and
//!   the per-rule sizes it pre-sizes the edges by), never per node of val(G);
//! - `decode` allocates a bounded number of times per label (a section of
//!   S, a rule) and a constant besides.
//!
//! The large version graph is the benchmark's `compress-version` graph.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grepair_core::{compress, GRePairConfig};
use grepair_datasets::network::hub_network;
use grepair_datasets::version::CoauthorshipHistory;
use grepair_hypergraph::Hypergraph;

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

/// `f`'s result and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations a `derive` may make per rule, and besides: 3 × 205 + 24 =
/// 639 for the benchmark graph, which took 8 356 with an incidence `Vec`
/// per node.
const DERIVE_PER_RULE: u64 = 3;
const DERIVE_BASE: u64 = 24;

/// Allocations a `decode` may make per label (terminal or rule: a section
/// of S, a rule and its check), and besides. The benchmark graph's bound,
/// 32 × 206 + 64 = 6 656, is under half of the 13 488 allocations a
/// decode of it made with an incidence `Vec` per node and a boxed
/// attachment per hyperedge.
const DECODE_PER_LABEL: u64 = 32;
const DECODE_BASE: u64 = 64;

/// What one decode and one derive of `graph`'s compressed form cost.
struct Counts {
    rules: u64,
    labels: u64,
    nodes: u64,
    decode: u64,
    derive: u64,
}

fn counts(graph: &Hypergraph) -> Counts {
    let grammar = compress(graph, &GRePairConfig::default()).grammar;
    let encoded = grepair_codec::encode(&grammar);
    let (decoded, decode) = counted(|| grepair_codec::decode(&encoded.bytes, encoded.bit_len));
    let decoded = decoded.unwrap();
    let (derived, derive) = counted(|| decoded.derive());
    assert_eq!(derived.num_edges(), graph.num_edges());
    let rules = decoded.num_nonterminals() as u64;
    Counts {
        rules,
        labels: rules + u64::from(decoded.num_terminals()),
        nodes: derived.num_nodes() as u64,
        decode,
        derive,
    }
}

fn check(name: &str, small: &Hypergraph, large: &Hypergraph) {
    let [small, large] = [small, large].map(counts);
    assert!(large.nodes >= 2 * small.nodes, "{name}: sizes too close");
    for (size, c) in [("small", &small), ("large", &large)] {
        eprintln!(
            "{name} {size}: {} nodes, {} rules, {} labels: decode {} allocations, derive {}",
            c.nodes, c.rules, c.labels, c.decode, c.derive
        );
    }
    for (size, c) in [("small", &small), ("large", &large)] {
        let derive_bound = DERIVE_PER_RULE * c.rules + DERIVE_BASE;
        assert!(c.derive <= derive_bound, "{name} {size}: derive made {} > {derive_bound}", c.derive);
        // One allocation per node of val(G) would not fit the bound.
        assert!(derive_bound < c.nodes / 4, "{name} {size}: the bound does not separate");
        let decode_bound = DECODE_PER_LABEL * c.labels + DECODE_BASE;
        assert!(c.decode <= decode_bound, "{name} {size}: decode made {} > {decode_bound}", c.decode);
    }
}

#[test]
fn a_version_graph_decodes_and_derives_in_allocations_per_rule() {
    let history = CoauthorshipHistory::generate(13, 80, 800, 60, 1);
    check("version", &history.version_graph(5), &history.version_graph(12));
}

#[test]
fn a_hub_network_decodes_and_derives_in_allocations_per_rule() {
    check("hub network", &hub_network(3_000, 12, 1, 1), &hub_network(12_000, 24, 1, 1));
}
