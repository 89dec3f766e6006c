//! Differential property tests: every grammar query must agree with the
//! same query evaluated on the decompressed graph, for arbitrary inputs and
//! compressor configurations.

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::order::NodeOrder;
use grepair_hypergraph::{traverse, EdgeLabel, Hypergraph};
use grepair_queries::{speedup, Direction, GrammarIndex, ReachIndex};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Hypergraph> {
    (2u32..40, proptest::collection::vec((0u32..40, 0u32..3, 0u32..40), 0..120)).prop_map(
        |(nodes, triples)| {
            let triples: Vec<(u32, u32, u32)> = triples
                .into_iter()
                .map(|(s, l, t)| (s % nodes, l, t % nodes))
                .collect();
            Hypergraph::from_simple_edges(nodes as usize, triples).0
        },
    )
}

fn arb_config() -> impl Strategy<Value = GRePairConfig> {
    (2usize..=5, any::<bool>(), any::<bool>()).prop_map(|(max_rank, prune, connect)| {
        GRePairConfig {
            max_rank,
            order: NodeOrder::Fp,
            connect_components: connect,
            prune,
            num_terminals: None,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn neighborhoods_match_decompressed(g in arb_graph(), config in arb_config()) {
        let out = compress(&g, &config);
        let derived = out.grammar.derive();
        let idx = GrammarIndex::new(&out.grammar);
        prop_assert_eq!(idx.total_nodes as usize, derived.num_nodes());
        for k in 0..idx.total_nodes {
            let mut want: Vec<u64> =
                derived.out_neighbors(k as u32).map(|v| v as u64).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(idx.out_neighbors(k), want, "out({})", k);
            let mut want: Vec<u64> =
                derived.in_neighbors(k as u32).map(|v| v as u64).collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(idx.in_neighbors(k), want, "in({})", k);
        }
    }

    #[test]
    fn labeled_rows_match_decompressed(g in arb_graph(), config in arb_config()) {
        // The single scan keeps the terminal label of every edge it finds:
        // its rows must be the (label, target) / (label, source) rows of the
        // derived graph, for every node and both directions.
        let out = compress(&g, &config);
        let derived = out.grammar.derive();
        let idx = GrammarIndex::new(&out.grammar);
        let mut want_out = vec![Vec::new(); derived.num_nodes()];
        let mut want_in = vec![Vec::new(); derived.num_nodes()];
        for e in derived.edges() {
            let (EdgeLabel::Terminal(label), &[s, t]) = (e.label, e.att) else {
                panic!("val(G) of a simple graph holds rank-2 terminal edges only");
            };
            want_out[s as usize].push((label, t as u64));
            want_in[t as usize].push((label, s as u64));
        }
        for (dir, want) in [(Direction::Out, want_out), (Direction::In, want_in)] {
            for (k, mut row) in want.into_iter().enumerate() {
                row.sort_unstable();
                row.dedup();
                prop_assert_eq!(idx.try_edges(k as u64, dir).unwrap(), row, "{:?}({})", dir, k);
            }
        }
    }

    #[test]
    fn reachability_matches_decompressed(g in arb_graph(), config in arb_config()) {
        let out = compress(&g, &config);
        let derived = out.grammar.derive();
        let reach = ReachIndex::new(&out.grammar);
        let n = derived.num_nodes() as u64;
        // All pairs is O(n²·|G|); keep n small via the strategy.
        for s in 0..n {
            for t in 0..n {
                let want = traverse::reachable(&derived, s as u32, t as u32);
                prop_assert_eq!(reach.reachable(s, t), want, "reach({}, {})", s, t);
            }
        }
    }

    #[test]
    fn aggregates_match_decompressed(g in arb_graph(), config in arb_config()) {
        let out = compress(&g, &config);
        let (_, want_cc) = traverse::connected_components(&g);
        prop_assert_eq!(speedup::connected_components(&out.grammar), want_cc as u64);
        let degs: Vec<u64> = g.node_ids().map(|v| g.degree(v) as u64).collect();
        let want = degs.iter().min().map(|&lo| (lo, *degs.iter().max().unwrap()));
        prop_assert_eq!(speedup::degree_extrema(&out.grammar), want);
    }

    #[test]
    fn locate_global_id_inverse(g in arb_graph(), config in arb_config()) {
        let out = compress(&g, &config);
        let idx = GrammarIndex::new(&out.grammar);
        for k in 0..idx.total_nodes {
            let repr = idx.locate(k);
            prop_assert_eq!(idx.global_id(&repr.path, repr.node), k);
        }
    }

    #[test]
    fn rpq_matches_product_bfs(
        g in arb_graph(),
        config in arb_config(),
        regex_pick in 0usize..4,
    ) {
        use grepair_queries::{Regex, RpqIndex};
        let regex = match regex_pick {
            0 => Regex::star(Regex::alt(vec![
                Regex::label(0), Regex::label(1), Regex::label(2),
            ])),
            1 => Regex::cat(vec![Regex::label(0), Regex::label(1)]),
            2 => Regex::plus(Regex::label(0)),
            _ => Regex::cat(vec![
                Regex::label(1),
                Regex::star(Regex::label(0)),
                Regex::opt(Regex::label(2)),
            ]),
        };
        let nfa = grepair_queries::Nfa::from_regex(&regex);
        let out = compress(&g, &config);
        let derived = out.grammar.derive();
        let rpq = RpqIndex::new(&out.grammar, nfa.clone());
        let n = derived.num_nodes() as u64;
        // Sampled pairs (all-pairs would dominate runtime).
        for i in 0..40u64 {
            let s = (i * 6151) % n.max(1);
            let t = (i * 911 + 3) % n.max(1);
            let want = grepair_queries::rpq::rpq_on_graph(
                &derived, &nfa, s as u32, t as u32,
            );
            prop_assert_eq!(rpq.matches(s, t), want, "rpq({}, {})", s, t);
        }
    }
}
