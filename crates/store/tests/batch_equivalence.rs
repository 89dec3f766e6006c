//! Property test: the ways to ask a `GraphStore` something — one-shot
//! [`GraphStore::query`], sequential [`GraphStore::query_batch`], and the
//! wire's rendered [`GraphStore::render_batch`] and, fanned out,
//! [`GraphStore::render_batch_on`] — must agree on every workload, answer
//! for answer, in input order, error cases included.
//!
//! This is the contract that makes the concurrent engine safe to ship:
//! nothing a batch shares (the per-chunk collapse of repeated queries, the
//! store-wide expansion table and plan cache) may change a single answer.
//!
//! Two input families are drawn in every case: a uniform stream, and a
//! skewed one shaped like the traffic batch sharing is for — hot nodes,
//! every neighbor verb on one node, `rpq` runs over one (pattern, source),
//! long runs of exact repeats, and one query both opening and closing the
//! stream, so its repeat always sits in another worker's chunk.

mod common;

use proptest::prelude::*;
use std::sync::Arc;

use common::ScopedThreads;
use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{error_reply, write_container, GraphStore, GrepairError, Query};

/// One store reused across all cases (the store is immutable under queries;
/// building it per case would dominate the test's runtime).
fn shared_store() -> &'static GraphStore {
    static STORE: std::sync::OnceLock<GraphStore> = std::sync::OnceLock::new();
    STORE.get_or_init(|| {
        // A graph with repetition (compresses into nested rules), a hub, a
        // cycle, and a disconnected tail — enough structure that neighbor,
        // reach, and RPQ queries all exercise nontrivial paths.
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..40u32 {
            edges.push((2 * i, 0, 2 * i + 1));
            edges.push((2 * i + 1, 1, 2 * i + 2));
        }
        for spoke in 1..8u32 {
            edges.push((0, 2, spoke * 9));
        }
        edges.push((80, 0, 0)); // close a long cycle
        edges.push((85, 2, 86)); // small disconnected piece
        edges.push((86, 2, 87));
        let (g, _) = Hypergraph::from_simple_edges(88, edges);
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap()
    })
}

/// Ids straddling the valid range: mostly in `0..n`, some hostile.
fn node_id(n: u64) -> BoxedStrategy<u64> {
    prop_oneof![
        (0..n).boxed(),
        Just(n),
        (n..n + 50).boxed(),
        Just(u64::MAX),
    ]
    .boxed()
}

fn patterns() -> BoxedStrategy<String> {
    prop_oneof![
        Just("0".to_string()),
        Just("0 1".to_string()),
        Just("0* 1*".to_string()),
        Just("2? 0+".to_string()),
    ]
    .boxed()
}

/// Any query, its node ids drawn from `id()`.
fn query_strategy(id: &dyn Fn() -> BoxedStrategy<u64>) -> BoxedStrategy<Query> {
    prop_oneof![
        id().prop_map(Query::OutNeighbors).boxed(),
        id().prop_map(Query::InNeighbors).boxed(),
        id().prop_map(Query::Neighbors).boxed(),
        (id(), id()).prop_map(|(s, t)| Query::Reach { s, t }).boxed(),
        (id(), id(), patterns())
            .prop_map(|(s, t, pattern)| Query::Rpq { s, t, pattern })
            .boxed(),
        Just(Query::Components).boxed(),
        Just(Query::DegreeExtrema).boxed(),
    ]
    .boxed()
}

/// The skewed family (see the module docs): 80 % of ids come from four hot
/// nodes, and the stream is a concatenation of segments that each share
/// something — a node, a (pattern, source) pair, or the whole query.
fn skewed_stream(n: u64) -> BoxedStrategy<Vec<Query>> {
    let id = move || {
        prop_oneof![Just(0), Just(1), Just(n / 2), Just(n - 1), node_id(n)].boxed()
    };
    let segment = prop_oneof![
        // Same node, different verb.
        id().prop_map(|v| {
            vec![Query::OutNeighbors(v), Query::InNeighbors(v), Query::Neighbors(v)]
        }),
        // Shared (pattern, source), varying targets.
        (id(), patterns(), proptest::collection::vec(id(), 2..12)).prop_map(
            |(s, pattern, targets)| {
                let rpq = |t| Query::Rpq { s, t, pattern: pattern.clone() };
                targets.into_iter().map(rpq).collect()
            }
        ),
        // Exact repeats, long enough to straddle a chunk boundary.
        (query_strategy(&id), 2usize..40).prop_map(|(q, run)| vec![q; run]),
        query_strategy(&id).prop_map(|q| vec![q]),
    ];
    (query_strategy(&id), proptest::collection::vec(segment, 1..24))
        .prop_map(|(bracket, segments)| {
            let mut stream = vec![bracket.clone()];
            stream.extend(segments.into_iter().flatten());
            stream.push(bracket);
            stream
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_and_parallel_match_one_shot(
        uniform in (1u64..2).prop_flat_map(|_| {
            let n = shared_store().total_nodes();
            proptest::collection::vec(query_strategy(&|| node_id(n)), 0..120)
        }),
        skewed in (1u64..2).prop_flat_map(|_| skewed_stream(shared_store().total_nodes())),
        threads in 2usize..9,
    ) {
        let store = shared_store();
        for workload in [&uniform, &skewed] {
            let sequential = store.query_batch(workload);
            prop_assert_eq!(sequential.len(), workload.len());
            for (i, q) in workload.iter().enumerate() {
                let one_shot = store.query(q);
                // Answers agree by value (including Err payloads)…
                prop_assert_eq!(&sequential[i], &one_shot, "batch vs one-shot at {} ({:?})", i, q);
            }
            // …the wire's renderings, inline and fanned out, are the one-shot
            // answers' bytes…
            let want: String = workload
                .iter()
                .map(|q| store.query(q).map(|a| a.to_string()).unwrap_or_else(error_reply) + "\n")
                .collect();
            let lines: Vec<Result<Query, GrepairError>> = workload.iter().cloned().map(Ok).collect();
            let (mut inline, mut fanned) = (Vec::new(), Vec::new());
            store.render_batch(&lines, &mut inline);
            store.render_batch_on(&lines, &ScopedThreads(threads), &mut fanned);
            prop_assert_eq!(String::from_utf8(inline).unwrap(), want.clone());
            prop_assert_eq!(String::from_utf8(fanned).unwrap(), want);
            // …and duplicates inside the sequential batch share one allocation
            // (a repeat is an `Arc` clone), not just equal contents.
            for (i, q) in workload.iter().enumerate() {
                if let Some(j) = workload[..i].iter().position(|p| p == q) {
                    if let (Ok(a), Ok(b)) = (&sequential[j], &sequential[i]) {
                        prop_assert!(
                            Arc::ptr_eq(a, b),
                            "duplicate {:?} at {} and {} must share the answer Arc", q, j, i
                        );
                    }
                }
            }
        }
    }
}
