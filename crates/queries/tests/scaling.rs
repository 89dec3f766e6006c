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

use grepair_core::{compress, GRePairConfig};
use grepair_datasets::network::hub_network;
use grepair_queries::ReachIndex;
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
