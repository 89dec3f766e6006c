//! The zero-panic guarantee, exercised end to end: every byte sequence
//! handed to the load path and every id handed to the query path must
//! produce `Ok` or a clean `Err` — never a panic.

mod common;

use common::ScopedThreads;
use std::sync::Arc;

use grepair_core::{compress, GRePairConfig};
use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_queries::rpq::rpq_on_graph;
use grepair_store::{
    compile_pattern, parse_query, write_container, EdgePatch, GraphStore, Query, QueryAnswer,
    VersionedStore,
};

/// A real compressed container to corrupt.
fn good_container() -> Vec<u8> {
    let (g, _) = Hypergraph::from_simple_edges(
        41,
        (0..20u32).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    write_container(&enc.bytes, enc.bit_len)
}

#[test]
fn the_good_container_loads() {
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    assert_eq!(store.total_nodes(), 41);
}

#[test]
fn truncation_at_every_offset_errors() {
    let file = good_container();
    // Every prefix, including the empty file and cuts inside the header —
    // the original bit_len header survives in prefixes ≥ 12 bytes, so this
    // also covers "header claims more bits than the payload holds".
    for keep in 0..file.len() {
        let result = GraphStore::from_bytes(&file[..keep]);
        assert!(result.is_err(), "prefix of {keep} bytes must error");
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let file = good_container();
    for byte in 0..file.len() {
        for bit in 0..8 {
            let mut copy = file.clone();
            copy[byte] ^= 1 << bit;
            // Ok or Err are both acceptable (some flips decode to a
            // different valid grammar); panicking is not.
            let _ = GraphStore::from_bytes(&copy);
        }
    }
}

#[test]
fn garbage_and_wrong_magic_error() {
    for junk in [
        &b""[..],
        b"G2G",
        b"G2G2",
        b"G2G1",
        b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        b"not a g2g file at all, just some text",
    ] {
        assert!(GraphStore::from_bytes(junk).is_err(), "{junk:?}");
    }
    // Valid header, absurd bit length, no payload.
    let mut lie = Vec::new();
    lie.extend_from_slice(b"G2G1");
    lie.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(GraphStore::from_bytes(&lie).is_err());
    // The retired tagged layout (magic, version 2, tag "k2", bit length,
    // payload) the store used to serve k²-trees from: a container error now.
    let mut tagged = b"G2GC\x02\x02k2".to_vec();
    tagged.extend_from_slice(&16u64.to_le_bytes());
    tagged.extend_from_slice(&[0x80, 0x01]);
    let err = GraphStore::from_bytes(&tagged).unwrap_err().to_string();
    assert_eq!(err, "not a g2g container: bad magic");
}

/// Both shapes of grammar container, encoding the same unlabeled path
/// graph: compressed (rules, renumbered nodes) and rule-free (S alone).
fn backend_containers() -> Vec<(&'static str, Vec<u8>)> {
    let (g, _) = Hypergraph::from_simple_edges(41, (0..40u32).map(|i| (i, 0u32, i + 1)));
    let compressed = compress(&g, &GRePairConfig::default()).grammar;
    [("compressed", compressed), ("rule-free", Grammar::new(g, 1))]
        .map(|(name, grammar)| {
            let enc = grepair_codec::encode(&grammar);
            (name, write_container(&enc.bytes, enc.bit_len))
        })
        .into()
}

#[test]
fn every_backend_container_loads_and_serves() {
    for (name, file) in backend_containers() {
        let store = GraphStore::from_bytes(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(store.total_nodes(), 41, "{name}");
        assert_eq!(store.components(), 1, "{name}");
    }
}

#[test]
fn truncation_at_every_offset_errors_for_every_backend() {
    for (name, file) in backend_containers() {
        for keep in 0..file.len() {
            let result = GraphStore::from_bytes(&file[..keep]);
            assert!(result.is_err(), "{name}: prefix of {keep} bytes must error");
        }
    }
}

#[test]
fn single_byte_flips_never_panic_in_any_backend() {
    for (name, file) in backend_containers() {
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut copy = file.clone();
                copy[byte] ^= 1 << bit;
                // Ok or Err are both acceptable (some flips decode to a
                // different valid container); panicking is not. A store
                // that does load must then survive hostile queries.
                if let Ok(store) = GraphStore::from_bytes(&copy) {
                    let n = store.total_nodes();
                    let _ = store.query(&Query::OutNeighbors(n));
                    let _ = store.query(&Query::Reach { s: 0, t: n.saturating_sub(1) });
                }
                let _ = name;
            }
        }
    }
}

#[test]
fn hostile_query_inputs_error_for_every_backend() {
    for (name, file) in backend_containers() {
        let store = GraphStore::from_bytes(&file).unwrap();
        let n = store.total_nodes();
        for id in [n, n + 1, u64::MAX, 1 << 40] {
            assert!(store.out_neighbors(id).is_err(), "{name} out {id}");
            assert!(store.in_neighbors(id).is_err(), "{name} in {id}");
            assert!(store.neighbors(id).is_err(), "{name} both {id}");
            assert!(store.reachable(id, 0).is_err(), "{name} reach s={id}");
            assert!(store.reachable(0, id).is_err(), "{name} reach t={id}");
            assert!(store.rpq("0", id, 0).is_err(), "{name} rpq {id}");
        }
        // Malformed patterns are BadRequest, not panics.
        assert!(store.rpq("", 0, 1).is_err(), "{name}");
        assert!(store.rpq("x", 0, 1).is_err(), "{name}");
        // In-range queries still work after all that, through the batch
        // machinery (the acceptance shape), sequential and parallel.
        let queries: Vec<Query> = (0..2_000u64)
            .map(|i| match i % 4 {
                0 => Query::OutNeighbors(i % n),
                1 => Query::Neighbors((i * 7) % n),
                2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
                _ => Query::Rpq { s: (i * 5) % n, t: (i * 13) % n, pattern: "0*".into() },
            })
            .collect();
        let answers = store.query_batch(&queries);
        assert!(answers.iter().all(|a| a.is_ok()), "{name}");
        assert_eq!(store.query_batch_on(&queries, &ScopedThreads(4)), answers, "{name}");
    }
}

#[test]
fn hostile_query_inputs_error() {
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    let n = store.total_nodes();
    for id in [n, n + 1, u64::MAX, 1 << 40] {
        assert!(store.out_neighbors(id).is_err(), "out {id}");
        assert!(store.in_neighbors(id).is_err(), "in {id}");
        assert!(store.neighbors(id).is_err(), "both {id}");
        assert!(store.reachable(id, 0).is_err(), "reach s={id}");
        assert!(store.reachable(0, id).is_err(), "reach t={id}");
        assert!(store.rpq("0 1", id, 0).is_err(), "rpq {id}");
    }
    // Malformed patterns are BadRequest, not panics.
    assert!(store.rpq("", 0, 1).is_err());
    assert!(store.rpq("x", 0, 1).is_err());
    assert!(store.rpq("99999999999999999999", 0, 1).is_err());
    // In-range queries still work after all that.
    assert!(store.reachable(0, n - 1).unwrap());
}

#[test]
fn a_flood_of_distinct_rpq_patterns_leaves_a_bounded_plan_cache() {
    // Pattern text is the client's to choose and every compiled plan is
    // kept per pattern: one connection streaming `rpq 0 1 0`,
    // `rpq 0 1 0 1`, … must get right answers without the store keeping a
    // plan for each of them forever.
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    let derived = store.grammar().unwrap().derive();
    let n = store.total_nodes();
    let atoms = |len: usize| ["0", "1"].repeat(len.div_ceil(2))[..len].join(" ");
    let lines: Vec<String> = (1..=256)
        .flat_map(|len| (0..n).map(move |t| (len, t)))
        .map(|(len, t)| format!("rpq {} {t} {}", len as u64 % 2, atoms(len)))
        .collect();
    let queries: Vec<Query> = lines.iter().map(|l| parse_query(l).unwrap()).collect();
    let mut positives = 0;
    for (q, answer) in queries.iter().zip(store.query_batch(&queries)) {
        let Query::Rpq { s, t, pattern } = q else { unreachable!() };
        let want = rpq_on_graph(&derived, &compile_pattern(pattern).unwrap(), *s as u32, *t as u32);
        assert_eq!(answer.as_deref(), Ok(&QueryAnswer::Bool(want)), "{q:?}");
        positives += want as usize;
    }
    assert!(positives > 0, "the flood must not be all-negative");
    // The first pattern was dropped on the way (asking again compiles it
    // again) and is cached again afterwards.
    let before = store.stats();
    store.query(&queries[0]).unwrap();
    let again = store.stats();
    assert_eq!(again.rpq_plan_misses, before.rpq_plan_misses + 1, "{again}");
    store.query(&queries[0]).unwrap();
    assert_eq!(store.stats().rpq_plan_hits, again.rpq_plan_hits + 1);
}

#[test]
fn the_longest_legal_patterns_answer_on_every_backend_and_one_atom_more_is_an_error() {
    // 256 atoms are an automaton of up to 513 states: compiling it must be
    // quick on both engines (the row walk of a patched version compiles per
    // query), and one atom more must cost a parse and nothing else.
    // A path into a 10-cycle with a chord and a tail out of it, so that
    // 128-step walks exist between some pairs and not between others.
    let cycle = (0..10u32).map(|i| (20 + i, 0u32, 20 + (i + 1) % 10));
    let path = (0..20u32).chain(29..35).map(|i| (i, 0u32, i + 1));
    let (g, _) = Hypergraph::from_simple_edges(36, path.chain(cycle).chain([(22, 0, 27)]));
    let out = compress(&g, &GRePairConfig::default());
    let derived = out.grammar.derive();
    let n = derived.num_nodes() as u64;
    let (stars, mixed) = (["0*"; 256].join(" "), ["0", "1?"].repeat(128).join(" "));
    let too_long = ["0*"; 257].join(" ");
    let refusal = "bad request: rpq pattern has 257 atoms, at most 256";
    assert_eq!(parse_query(&format!("rpq 0 1 {too_long}")).unwrap_err().to_string(), refusal);
    let mut queries: Vec<Query> = [&stars, &mixed]
        .into_iter()
        .flat_map(|p| (0..n).step_by(7).flat_map(move |s| [0, 1, 5].map(|d| format!("rpq {s} {} {p}", (s + d) % n))))
        .map(|line| parse_query(&line).unwrap())
        .collect();
    // Handed over as a `Query`, the way a caller that skips the parser can.
    queries.insert(queries.len() / 2, Query::Rpq { s: 0, t: 1, pattern: too_long.clone() });
    let want: Vec<Result<QueryAnswer, String>> = queries
        .iter()
        .map(|q| match q {
            Query::Rpq { pattern, .. } if *pattern == too_long => Err(refusal.to_string()),
            Query::Rpq { s, t, pattern } => Ok(QueryAnswer::Bool(rpq_on_graph(
                &derived,
                &compile_pattern(pattern).unwrap(),
                *s as u32,
                *t as u32,
            ))),
            _ => unreachable!(),
        })
        .collect();
    let positives = want.iter().filter(|w| **w == Ok(QueryAnswer::Bool(true))).count();
    assert!(positives > 0 && positives < queries.len() - 1, "{positives} positives");
    // The row walk serves the same `val(G)` from a patched head whose one
    // edge was added and deleted again.
    let grammar = Arc::new(GraphStore::from_grammar(out.grammar.clone()).unwrap());
    let log = VersionedStore::new(Arc::clone(&grammar)).unwrap();
    for patch in ["ADD 0 1 1", "DEL 0 1 1"] {
        log.apply(EdgePatch::parse(patch).unwrap()).unwrap();
    }
    for (engine, store) in [("grammar", grammar), ("row walk", log.head())] {
        let got: Vec<Result<QueryAnswer, String>> = store
            .query_batch(&queries)
            .into_iter()
            .map(|answer| answer.map(|a| (*a).clone()).map_err(|e| e.to_string()))
            .collect();
        assert_eq!(got, want, "{engine}");
    }
}

#[test]
fn ten_thousand_mixed_queries_from_one_store() {
    // The acceptance scenario: one loaded store answers ≥ 10k mixed
    // queries in a single process, through the batched API.
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    let n = store.total_nodes();
    let mut queries = Vec::with_capacity(10_500);
    for i in 0..10_500u64 {
        queries.push(match i % 5 {
            0 => Query::OutNeighbors(i % n),
            1 => Query::InNeighbors((i * 7) % n),
            2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
            3 => Query::Rpq {
                s: (i * 5) % n,
                t: (i * 13) % n,
                pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
            },
            _ => Query::Neighbors((i * 17) % n),
        });
    }
    let answers = store.query_batch(&queries);
    assert_eq!(answers.len(), queries.len());
    assert!(answers.iter().all(|a| a.is_ok()));
    let stats = store.stats();
    assert_eq!(stats.queries_served, 10_500);
    assert_eq!(stats.errors, 0);
    assert!(stats.expansion_cache_hits > 0);
    assert_eq!(stats.rpq_plan_misses, 2, "{stats}");
    // The same 10k through the concurrent engine: identical answers, and
    // the worker fan-out keeps the counters exact.
    let parallel = store.query_batch_on(&queries, &ScopedThreads(8));
    assert_eq!(parallel, answers);
    let stats = store.stats();
    assert_eq!(stats.queries_served, 21_000, "{stats}");
    assert_eq!(stats.errors, 0, "{stats}");
    assert_eq!(stats.parallel_batches, 1, "{stats}");
    assert_eq!(stats.rpq_plan_misses, 2, "plans persist across batches: {stats}");
}
