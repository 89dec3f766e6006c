//! Work per reachability query must not grow with the start graph —
//! counted, never timed, so the test is as deterministic as the index.
//!
//! `hub_network(n, 24, 1, 2)` (the `serve-network-patch` family) at
//! n = 2 500 and n = 10 000: the start graph, which the parent commit's
//! query walked twice per level, grows about fourfold. What
//! [`ReachIndex::try_reachable_counted`] reports per query, mean over
//! 100 000 seeded uniform pairs:
//!
//! | per query                    | n = 2 500 | n = 10 000 | (n = 40 000) |
//! |------------------------------|-----------|------------|--------------|
//! | pair tests                   | 6.68      | 8.66       | (10.32)      |
//! | DAG nodes a search expanded  | 0.359     | 0.361      | (0.374)      |
//!
//! Pair tests are bounded by the seeds a climb carries (at most `rank` per
//! side and level, times the height of the two derivation paths), not by
//! |S|: they grow with the share of nodes that sit inside a rule instead of
//! in S and with the grammar's height, about +25 % per fourfold input. A
//! search runs only for the pairs the labels leave open and then expands
//! about one component.
//!
//! The same for regular path queries: what [`RpqIndex::try_matches_counted`]
//! reports for the words of 2-step walks must stay a few adjacency entries
//! per query, in S and inside rules, while the hubs' degrees grow fourfold.

mod common;

use std::collections::HashMap;

use common::{out_row, walk};
use grepair_core::{compress, GRePairConfig};
use grepair_datasets::network::hub_network;
use grepair_queries::{Nfa, ReachIndex, Regex, RpqIndex, RpqShared};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean `(pair_tests, dag_nodes)` per query over seeded uniform pairs.
fn mean_work(n: usize) -> (f64, f64) {
    const PAIRS: u64 = 100_000;
    let out = compress(&hub_network(n, 24, 1, 2), &GRePairConfig::default());
    let reach = ReachIndex::new(&out.grammar);
    let nodes = reach.index().total_nodes;
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (mut pair_tests, mut dag_nodes) = (0u64, 0u64);
    for _ in 0..PAIRS {
        let (s, t) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        let (_, work) = reach.try_reachable_counted(s, t).expect("ids are in range");
        pair_tests += u64::from(work.pair_tests);
        dag_nodes += u64::from(work.dag_nodes);
    }
    (pair_tests as f64 / PAIRS as f64, dag_nodes as f64 / PAIRS as f64)
}

#[test]
fn work_per_query_is_independent_of_the_start_graph_size() {
    let (small, large) = (mean_work(2_500), mean_work(10_000));
    assert!(small.0 >= 1.0, "a query on distinct nodes tests at least one pair: {small:?}");
    assert!(
        large.0 <= 1.5 * small.0,
        "pair tests per query grew with the graph: {:.2} -> {:.2}",
        small.0,
        large.0
    );
    assert!(
        large.1 <= 1.5 * small.1,
        "DAG nodes searched per query grew with the graph: {:.2} -> {:.2}",
        small.1,
        large.1
    );
    for (name, work) in [("small", small), ("large", large)] {
        assert!(work.1 <= 1.0, "{name}: the labels decide, the search mops up: {work:?}");
    }
}

/// Mean `(RpqWork.rules, RpqWork.start)` per query over seeded pairs asked
/// with the word of a 2-step walk from `s`: half end where the walk ended,
/// half at a uniform target.
fn mean_rpq_work(n: usize) -> (f64, f64) {
    const PAIRS: u64 = 4_000;
    let out = compress(&hub_network(n, 24, 1, 2), &GRePairConfig::default());
    let derived = out.grammar.derive();
    let shared = std::sync::Arc::new(RpqShared::new(&out.grammar));
    let mut plans: HashMap<Vec<u32>, RpqIndex<_>> = HashMap::new();
    let nodes = derived.num_nodes() as u64;
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (mut rules, mut start) = (0u64, 0u64);
    for i in 0..PAIRS {
        // As the benchmark's pools do: start at the nearest node at or after
        // the drawn id that has an out-edge.
        let drawn = rng.gen_range(0..nodes);
        let with_out_edge = |&v: &u64| !out_row(&derived, v as u32).is_empty();
        let s = (0..nodes).map(|probe| (drawn + probe) % nodes).find(with_out_edge);
        let s = s.expect("the graph has an edge");
        let (word, at) = walk(&derived, s as u32, 2, &mut rng);
        let t = if i % 2 == 0 { at as u64 } else { rng.gen_range(0..nodes) };
        let plan = plans.entry(word).or_insert_with_key(|word| {
            let word = Regex::cat(word.iter().map(|&l| Regex::label(l)).collect());
            RpqIndex::over(shared.clone(), Nfa::from_regex(&word))
        });
        let (_, work) = plan.try_matches_counted(s, t).expect("ids are in range");
        rules += work.rules;
        start += work.start;
    }
    (rules as f64 / PAIRS as f64, start as f64 / PAIRS as f64)
}

/// Measured here: 2.23 entries per query in S at n = 2 500 and 4.53 at
/// n = 10 000, 1.71 / 1.88 inside rules. The module docs of
/// `grepair_queries::rpq` have a table of the same kind of draw with either
/// side of the search pinned (8.49 / 23.76 forward alone, 12.80 / 45.12
/// backward alone). The bounds are about twice what was measured: far below
/// a closure over S, which offers a hub every edge it has.
#[test]
fn rpq_work_stays_a_fraction_of_the_closures() {
    for (n, bound) in [(2_500, 5.0), (10_000, 10.0)] {
        let (rules, start) = mean_rpq_work(n);
        assert!(start <= bound, "n = {n}: {start:.2} entries offered per query in S");
        assert!(rules <= 4.0, "n = {n}: {rules:.2} entries offered per query inside rules");
        assert!(start > 0.0 && rules > 0.0, "n = {n}: the counters count");
    }
}
