//! Speed-up queries over the compressed graph (§V): reachability runs on
//! the grammar in O(|G|), i.e. faster than BFS on the decompressed graph by
//! roughly the compression ratio — the paper proves this (Theorem 6) but
//! never implemented it; this example measures it.
//!
//! ```sh
//! cargo run --release --example reachability_query
//! ```

use graph_grammar_repair::hypergraph::traverse;
use graph_grammar_repair::prelude::*;
use graph_grammar_repair::queries::speedup;
use std::time::Instant;

fn main() {
    // A long path of a repeating two-label pattern: gRePair folds it the way
    // string RePair folds a^n, so the grammar is tiny (|G| = O(log |g|)) and
    // long-range reachability is a climb of its height plus label tests,
    // while BFS on the decompressed graph walks tens of thousands of edges.
    let reps = 16_384u32;
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let compressed = compress(&g, &GRePairConfig::default());
    let grammar = &compressed.grammar;
    println!(
        "graph |g| = {}, grammar |G| = {} (ratio {:.4})",
        g.total_size(),
        grammar.size(),
        compressed.stats.ratio()
    );

    // One-time index build (O(|G|)).
    let t0 = Instant::now();
    let reach = ReachIndex::new(grammar);
    println!("skeleton index built in {:?}", t0.elapsed());

    let derived = grammar.derive();
    let n = derived.num_nodes() as u64;
    let pairs: Vec<(u64, u64)> = (0..200)
        .map(|i| ((i * 7919) % n, (i * 104729 + 13) % n))
        .collect();

    let t0 = Instant::now();
    let grammar_answers: Vec<bool> =
        pairs.iter().map(|&(s, t)| reach.reachable(s, t)).collect();
    let grammar_time = t0.elapsed();

    let t0 = Instant::now();
    let bfs_answers: Vec<bool> = pairs
        .iter()
        .map(|&(s, t)| traverse::reachable(&derived, s as u32, t as u32))
        .collect();
    let bfs_time = t0.elapsed();

    assert_eq!(grammar_answers, bfs_answers, "grammar and BFS disagree");
    let positive = grammar_answers.iter().filter(|&&b| b).count();
    println!(
        "200 reachability queries ({positive} reachable): grammar {grammar_time:?} vs BFS on val(G) {bfs_time:?}"
    );

    // Aggregate speed-up queries: one pass over |G| instead of |val(G)|.
    let t0 = Instant::now();
    let cc = speedup::connected_components(grammar);
    let (lo, hi) = speedup::degree_extrema(grammar).unwrap();
    println!(
        "aggregates over the grammar in {:?}: {cc} components, degrees {lo}..{hi}",
        t0.elapsed()
    );
    let (_, want_cc) = traverse::connected_components(&derived);
    assert_eq!(cc, want_cc as u64);

    // Neighborhood queries (Prop. 4) — random access without decompression.
    let idx = GrammarIndex::new(grammar);
    let probe = pairs[0].0;
    println!(
        "out-neighbors of node {probe}: {:?}",
        idx.out_neighbors(probe)
    );
}
