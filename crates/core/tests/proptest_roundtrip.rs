//! Property-based round-trip tests: for arbitrary graphs and configurations,
//! compressing and deriving must reproduce the input exactly (under the
//! node map), and the grammar must satisfy all SL-HR invariants.

use grepair_core::{compress, GRePairConfig};
use grepair_datasets::{network, rdf, version};
use grepair_grammar::{apply_rule, Grammar};
use grepair_hypergraph::order::NodeOrder;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use proptest::prelude::*;

/// Strategy: a random simple directed graph with up to `n` nodes, `m` edge
/// attempts, and `labels` labels.
fn arb_graph(n: u32, m: usize, labels: u32) -> impl Strategy<Value = Hypergraph> {
    (2..n, proptest::collection::vec((0u32..n, 0u32..labels, 0u32..n), 0..m)).prop_map(
        move |(nodes, triples)| {
            let triples: Vec<(u32, u32, u32)> = triples
                .into_iter()
                .map(|(s, l, t)| (s % nodes, l, t % nodes))
                .collect();
            Hypergraph::from_simple_edges(nodes as usize, triples).0
        },
    )
}

fn arb_config() -> impl Strategy<Value = GRePairConfig> {
    (
        2usize..=6,
        prop_oneof![
            Just(NodeOrder::Natural),
            Just(NodeOrder::Bfs),
            Just(NodeOrder::Fp0),
            Just(NodeOrder::Fp),
            any::<u64>().prop_map(NodeOrder::Random),
        ],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(max_rank, order, connect_components, prune)| GRePairConfig {
            max_rank,
            order,
            connect_components,
            prune,
            num_terminals: None,
        })
}

fn check(g: &Hypergraph, config: &GRePairConfig) {
    let out = compress(g, config);
    out.grammar
        .validate()
        .unwrap_or_else(|e| panic!("invalid grammar ({config:?}): {e}"));
    let derived = out.grammar.derive();
    derived.validate().unwrap();
    assert_eq!(derived.num_nodes(), g.num_nodes());
    assert_eq!(derived.num_edges(), g.num_edges());
    // Exact equality under the node map — stronger than isomorphism.
    assert_eq!(
        derived.edge_multiset_mapped(|v| out.node_map[v as usize]),
        g.edge_multiset()
    );
    // Derived-size predictions must agree with the actual derivation.
    assert_eq!(out.grammar.derived_node_count() as usize, derived.num_nodes());
    assert_eq!(out.grammar.derived_edge_count() as usize, derived.num_edges());
    assert_derives_like_apply_rule(&out.grammar, &format!("{config:?}"));
}

/// `val(G)` the slow way: [`apply_rule`] on a copy of S, replacing
/// nonterminal edges depth-first in edge order — the order in which
/// `derive` numbers nodes and edges. Node `i` of the result is the `i`-th
/// alive node of the host; edges come in the order their terminal edges
/// were reached.
fn derive_by_apply_rule(grammar: &Grammar) -> Hypergraph {
    let mut host = grammar.start.clone();
    let mut todo: Vec<EdgeId> = host.edges().map(|e| e.id).collect();
    todo.reverse();
    let mut terminal = Vec::new();
    while let Some(e) = todo.pop() {
        match host.label(e) {
            EdgeLabel::Terminal(_) => terminal.push(e),
            EdgeLabel::Nonterminal(nt) => {
                let created = apply_rule(&mut host, e, grammar.rule(nt)).created_edges;
                todo.extend(created.into_iter().rev());
            }
        }
    }
    let mut dense = vec![NodeId::MAX; host.node_bound()];
    for (i, v) in host.node_ids().enumerate() {
        dense[v as usize] = i as NodeId;
    }
    let mut out = Hypergraph::with_nodes(host.num_nodes());
    for e in terminal {
        let att: Vec<NodeId> = host.att(e).iter().map(|&v| dense[v as usize]).collect();
        out.add_edge(host.label(e), &att);
    }
    out
}

/// `derive` equals [`derive_by_apply_rule`] edge for edge, node for node
/// and incidence list for incidence list.
fn assert_derives_like_apply_rule(grammar: &Grammar, what: &str) {
    let got = grammar.derive();
    let want = derive_by_apply_rule(grammar);
    got.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(got.node_bound(), want.node_bound(), "{what}: nodes");
    let edges = |g: &Hypergraph| g.edges().map(|e| (e.label, e.att.to_vec())).collect::<Vec<_>>();
    assert_eq!(edges(&got), edges(&want), "{what}: edges");
    for v in want.node_ids() {
        assert!(got.incident(v).eq(want.incident(v)), "{what}: incidence of node {v}");
    }
}

/// The graphs `golden_container_digests` pins (`tests/end_to_end.rs`),
/// under the same three `max_rank`s.
#[test]
fn derive_matches_apply_rule_on_the_golden_graphs() {
    let graphs = [
        ("hub_network", network::hub_network(1_500, 8, 1, 1)),
        (
            "version_graph",
            version::CoauthorshipHistory::generate(5, 40, 200, 20, 1).version_graph(4),
        ),
        ("property_graph", rdf::property_graph(1_000, 24, 8, 200, 1)),
        ("disjoint_copies", version::disjoint_copies(&version::circle_with_diagonal(), 64)),
    ];
    for (name, g) in &graphs {
        for max_rank in [2usize, 4, 8] {
            let out = compress(g, &GRePairConfig { max_rank, ..Default::default() });
            assert_derives_like_apply_rule(&out.grammar, &format!("{name} rank {max_rank}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_sparse_graphs_round_trip(
        g in arb_graph(60, 150, 3),
        config in arb_config(),
    ) {
        check(&g, &config);
    }

    #[test]
    fn random_dense_small_graphs_round_trip(
        g in arb_graph(12, 160, 2),
        config in arb_config(),
    ) {
        check(&g, &config);
    }

    #[test]
    fn single_label_graphs_round_trip(
        g in arb_graph(40, 120, 1),
        config in arb_config(),
    ) {
        check(&g, &config);
    }

    #[test]
    fn disjoint_copies_round_trip(
        copies in 2u32..12,
        seed_edges in proptest::collection::vec((0u32..5, 0u32..2, 0u32..5), 1..8),
        config in arb_config(),
    ) {
        let mut triples = Vec::new();
        for c in 0..copies {
            let base = 5 * c;
            for &(s, l, t) in &seed_edges {
                if s != t {
                    triples.push((base + s, l, base + t));
                }
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(5 * copies as usize, triples);
        check(&g, &config);
    }

    #[test]
    fn compression_never_loses_to_half_then_gains(
        g in arb_graph(50, 200, 2),
    ) {
        // Pruned grammars are never larger than unpruned ones.
        let unpruned = compress(&g, &GRePairConfig { prune: false, ..Default::default() });
        let pruned = compress(&g, &GRePairConfig::default());
        prop_assert!(pruned.grammar.size() <= unpruned.grammar.size());
    }
}
