//! Backend parity: for random graphs, every registered backend must give
//! the *same answers* through the one `QueryEngine` surface — the grammar
//! engine (the paper's compressor, with its own independently tested query
//! algorithms) is the oracle.
//!
//! Ids line up by construction: the oracle answers in the grammar's derived
//! numbering, so the baseline backends are encoded from `val(G)` itself —
//! the same concrete graph the oracle serves.

use proptest::prelude::*;

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{codec_for, GraphStore};

/// `(s, label, t)`.
type Triple = (u32, u32, u32);

/// A random labeled simple digraph: `n` nodes, deduplicated `(s, label, t)`
/// triples over labels `0..4` (parallel edges are dropped because the
/// matrix/list baselines cannot represent multiplicity — their one
/// intended lossiness).
fn graph_strategy() -> BoxedStrategy<(usize, Vec<Triple>)> {
    (2usize..28)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0u32..4, 0..n as u32);
            (Just(n), proptest::collection::vec(edge, 0..70)).prop_map(|(n, mut edges)| {
                edges.sort_unstable();
                edges.dedup();
                (n, edges)
            })
        })
        .boxed()
}

/// Compress `triples` with gRePair (the oracle), encode `val(G)` with each
/// of `backends`, and compare every verb, the labeled rows, and `patterns`.
fn check_parity(
    n: usize,
    triples: &[Triple],
    backends: &[&str],
    patterns: &[&str],
) -> Result<(), TestCaseError> {
    let (g, _) = Hypergraph::from_simple_edges(n, triples.iter().copied());
    let out = compress(&g, &GRePairConfig::default());
    let oracle = GraphStore::from_grammar(out.grammar.clone()).expect("fresh grammar loads");
    let derived = out.grammar.derive();
    prop_assert_eq!(derived.num_nodes() as u64, oracle.total_nodes());
    let total = oracle.total_nodes();

    for &name in backends {
        let codec = codec_for(name).expect("registered");
        let file = codec.encode(&derived).expect("val(G) is in the backend's model");
        let store = GraphStore::from_bytes(&file).expect("own container loads");
        prop_assert_eq!(store.backend(), name);
        prop_assert_eq!(store.total_nodes(), total, "{}", name);

        // Rows and neighborhoods: exact, every node, every direction.
        for v in 0..total {
            prop_assert_eq!(
                store.out_edges(v).unwrap(),
                oracle.out_edges(v).unwrap(),
                "{} out_edges {}", name, v
            );
            prop_assert_eq!(
                store.in_edges(v).unwrap(),
                oracle.in_edges(v).unwrap(),
                "{} in_edges {}", name, v
            );
            prop_assert_eq!(
                store.out_neighbors(v).unwrap(),
                oracle.out_neighbors(v).unwrap(),
                "{} out {}", name, v
            );
            prop_assert_eq!(
                store.in_neighbors(v).unwrap(),
                oracle.in_neighbors(v).unwrap(),
                "{} in {}", name, v
            );
            prop_assert_eq!(
                store.neighbors(v).unwrap(),
                oracle.neighbors(v).unwrap(),
                "{} both {}", name, v
            );
        }

        // Reachability: a deterministic pair sample covering the
        // diagonal, plus every pair on small graphs.
        let pairs: Vec<(u64, u64)> = if total <= 12 {
            (0..total).flat_map(|s| (0..total).map(move |t| (s, t))).collect()
        } else {
            (0..3 * total)
                .map(|i| ((i * 7) % total, (i * 13 + 5) % total))
                .chain((0..total).map(|v| (v, v)))
                .collect()
        };
        for &(s, t) in &pairs {
            prop_assert_eq!(
                store.reachable(s, t).unwrap(),
                oracle.reachable(s, t).unwrap(),
                "{} reach {} {}", name, s, t
            );
        }

        // RPQs (answered by completely different machinery: grammar
        // product closures vs product-automaton BFS over rows).
        for pattern in patterns {
            for &(s, t) in pairs.iter().take(40) {
                prop_assert_eq!(
                    store.rpq(pattern, s, t).unwrap(),
                    oracle.rpq(pattern, s, t).unwrap(),
                    "{} rpq {:?} {} {}", name, pattern, s, t
                );
            }
        }

        // Aggregates (well-defined here: the edge list is deduplicated,
        // so the baselines' multiplicity loss cannot show).
        prop_assert_eq!(store.components(), oracle.components(), "{}", name);
        prop_assert_eq!(store.degree_extrema(), oracle.degree_extrema(), "{}", name);

        // Hostile ids answer with the same error class everywhere.
        for id in [total, total + 17, u64::MAX] {
            prop_assert!(store.out_neighbors(id).is_err(), "{} {}", name, id);
            prop_assert!(store.out_edges(id).is_err(), "{} {}", name, id);
            prop_assert!(store.reachable(0, id).is_err(), "{} {}", name, id);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn all_backends_agree_with_the_grammar_oracle((n, triples) in graph_strategy()) {
        // The labeled graph: k2 keeps labels, so it faces the grammar on
        // labeled rows and labeled patterns too.
        const UNLABELED: [&str; 4] = ["0", "0 0", "0*", "0+ 0?"];
        const LABELED: [&str; 6] = ["0", "0 0", "0*", "0+ 0?", "0 1", "1* 2 3?"];
        check_parity(n, &triples, &["k2"], &LABELED)?;

        // lm/hn store unlabeled structure only: they face the grammar on
        // the label-0 projection (every edge relabeled 0).
        let mut projected: Vec<Triple> = triples.iter().map(|&(s, _, t)| (s, 0, t)).collect();
        projected.sort_unstable();
        projected.dedup();
        check_parity(n, &projected, &["lm", "hn"], &UNLABELED)?;
    }
}
