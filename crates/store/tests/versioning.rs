//! The versioning oracle (DESIGN.md §12): over random base graphs and random
//! valid patch sequences, every retained version of a [`VersionedStore`] must
//! answer exactly like a from-scratch recompression of that version's
//! materialized graph — on two grammar bases.
//!
//! The compressed base renumbers nodes; the rule-free base (S alone, no
//! rules) keeps the input's ids, so a forced toggle of a base edge hits a
//! real one. Either way the recompressed store renumbers, and is compared
//! through `grepair_core`'s `node_map` (derived id → input id), which the
//! container format discards but the in-process compressor still exposes.

use std::collections::BTreeSet;
use std::sync::Arc;

use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_store::{
    materialize, write_container, EdgePatch, GraphStore, PatchOp, VersionedStore,
};
use proptest::prelude::*;

/// One edge in store-id space.
type Edge = (u64, u32, u64);

/// A generated `(s, label, t)` triple.
type Triple = (u32, u32, u32);

/// Random case: a node bound, base triples, and patch intents, which the
/// replay below turns into valid toggles (ADD if absent, DEL if present),
/// skipping self-loops. The intents are drawn from a pool of six triples, so
/// they repeat — closed entries pile up on few rows — and may name nodes
/// past the base bound (exercising bound growth). Every case opens with the
/// two hard toggles, interleaved on one row: a base edge `b` (where the
/// base has one; the compressed base renumbers, so there it may be any
/// pair) goes del → add → del, an overlay edge `a` from the same source
/// goes add → del → add, and `v2` holds a live hole beside a live add.
fn arb_case() -> impl Strategy<Value = (u32, Vec<Triple>, Vec<Triple>)> {
    (3u32..10)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec((0..n, 0u32..3, 0..n), 0..18),
                proptest::collection::vec((0..n + 2, 0u32..3, 0..n + 2), 4),
                proptest::collection::vec(0usize..6, 0..42),
            )
        })
        .prop_map(|(n, base, mut pool, picks)| {
            let b = base.iter().copied().find(|&(s, _, t)| s != t).unwrap_or((0, 0, 1));
            let a = (b.0, 0, n);
            pool.extend([b, a]);
            let picks = picks.into_iter().map(|i| pool[i]);
            (n, base, [b, a, b, a, b, a].into_iter().chain(picks).collect())
        })
}

/// Scan a store's full labeled edge set (store-id space).
fn edge_set(store: &GraphStore) -> BTreeSet<Edge> {
    let mut set = BTreeSet::new();
    for v in 0..store.total_nodes() {
        for (label, t) in store.out_edges(v).unwrap() {
            set.insert((v, label, t));
        }
    }
    set
}

/// The two grammar bases a client can attach: a compressed container and a
/// rule-free one.
const BASES: [&str; 2] = ["compressed", "rule-free"];

/// `g` as a `base` container, loaded.
fn base_store(base: &str, g: Hypergraph) -> GraphStore {
    let grammar = match base {
        "compressed" => grepair_core::compress(&g, &grepair_core::GRePairConfig::default()).grammar,
        _ => Grammar::new(g, 3), // every label here is drawn from 0..3
    };
    let enc = grepair_codec::encode(&grammar);
    GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap()
}

/// Replay `intents` as toggles over a fresh `base` store, checking every
/// retained version against (a) the tracked model edge set and (b) a
/// from-scratch recompression of its materialized graph. `labeled: false`
/// projects every label, the base's and the patches', onto label 0.
fn check_base(base: &str, labeled: bool, n: u32, triples: &[Triple], intents: &[Triple]) {
    // The vendored proptest cannot shrink, so every failure prints its case.
    let case = format!("{base} labeled={labeled}: n={n} base={triples:?} intents={intents:?}");
    let triples = triples.iter().map(|&(s, l, t)| (s, if labeled { l } else { 0 }, t));
    let g = Hypergraph::from_simple_edges(n as usize, triples).0;
    let input: BTreeSet<Edge> =
        g.edges().map(|e| (e.att[0].into(), e.label.index(), e.att[1].into())).collect();
    let store = Arc::new(base_store(base, g));
    if base == "rule-free" {
        assert_eq!(edge_set(&store), input, "a rule-free base keeps every id; {case}");
    }

    // The model lives in *store*-id space (read back from the base store, so
    // a compressed base's renumbering is already folded in), exactly like a
    // client that attaches a container and then patches it.
    let versioned = VersionedStore::new(Arc::clone(&store)).unwrap();
    let mut model = edge_set(&store);
    let mut snapshots = vec![model.clone()];
    for &(s, l, t) in intents {
        let (s, t) = (u64::from(s), u64::from(t));
        let label = if labeled { l } else { 0 };
        if s == t {
            continue; // self-loops are not representable (graph.rs drops them)
        }
        let op = if model.contains(&(s, label, t)) { PatchOp::Del } else { PatchOp::Add };
        let patch = EdgePatch { op, s, label, t };
        let (summary, head) = versioned.apply(patch).unwrap_or_else(|e| panic!("{patch}: {e}; {case}"));
        match op {
            PatchOp::Add => assert!(model.insert((s, label, t)), "{case}"),
            PatchOp::Del => assert!(model.remove(&(s, label, t)), "{case}"),
        }
        assert_eq!(summary.version, versioned.head_version(), "{patch}; {case}");
        assert_eq!(edge_set(&head), model, "head after {patch}; {case}");
        snapshots.push(model.clone());
    }

    // Only now, with the whole log written, is every version read back: a
    // later patch must not have changed what an earlier version answers.
    for (v, expected) in snapshots.iter().enumerate() {
        let at = versioned.at(v as u64).unwrap();
        let case = format!("v{v}; {case}");
        assert_eq!(&edge_set(&at), expected, "overlay vs model at {case}");
        check_recompression(&case, &at);
    }
}

/// `at` must answer exactly like a fresh compression of its materialized
/// graph: same edges, same reachability, same whole-graph aggregates.
fn check_recompression(case: &str, at: &GraphStore) {
    let materialized = materialize(at).unwrap();
    let bound = at.total_nodes();
    // to_store[fresh id] = store id: the compressor's node map.
    let out = grepair_core::compress(&materialized, &grepair_core::GRePairConfig::default());
    let to_store: Vec<u64> = out.node_map.iter().map(|&orig| u64::from(orig)).collect();
    let fresh = GraphStore::from_grammar(out.grammar).unwrap();
    assert_eq!(fresh.total_nodes(), bound, "node bound at {case}");
    let mut to_fresh = vec![u64::MAX; bound as usize];
    for (f, &orig) in to_store.iter().enumerate() {
        to_fresh[orig as usize] = f as u64;
    }

    for s in 0..bound {
        let mut want = at.out_edges(s).unwrap();
        want.sort_unstable();
        let mut got: Vec<(u32, u64)> = fresh
            .out_edges(to_fresh[s as usize])
            .unwrap()
            .into_iter()
            .map(|(l, t)| (l, to_store[t as usize]))
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "out({s}) at {case}");
        let mut want_in: Vec<u64> = at.in_neighbors(s).unwrap();
        want_in.sort_unstable();
        let mut got_in: Vec<u64> = fresh
            .in_neighbors(to_fresh[s as usize])
            .unwrap()
            .into_iter()
            .map(|t| to_store[t as usize])
            .collect();
        got_in.sort_unstable();
        assert_eq!(got_in, want_in, "in({s}) at {case}");
    }
    for (s, t) in [(0, bound - 1), (bound - 1, 0), (1 % bound, bound / 2)] {
        assert_eq!(
            at.reachable(s, t).unwrap(),
            fresh.reachable(to_fresh[s as usize], to_fresh[t as usize]).unwrap(),
            "reach {s}->{t} at {case}"
        );
        assert_eq!(
            at.rpq("0* 1?", s, t).unwrap(),
            fresh.rpq("0* 1?", to_fresh[s as usize], to_fresh[t as usize]).unwrap(),
            "rpq {s}->{t} at {case}"
        );
    }
    assert_eq!(at.components(), fresh.components(), "components at {case}");
    assert_eq!(at.degree_extrema(), fresh.degree_extrema(), "degrees at {case}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn labeled_backends_time_travel_matches_recompression(
        (n, base, intents) in arb_case()
    ) {
        for kind in BASES {
            check_base(kind, true, n, &base, &intents);
        }
    }

    #[test]
    fn unlabeled_backends_time_travel_matches_recompression(
        (n, base, intents) in arb_case()
    ) {
        for kind in BASES {
            check_base(kind, false, n, &base, &intents);
        }
    }
}

/// Every out and in row of `store`, by node.
fn rows(store: &GraphStore) -> Vec<[Vec<(u32, u64)>; 2]> {
    (0..store.total_nodes())
        .map(|v| [store.out_edges(v).unwrap(), store.in_edges(v).unwrap()])
        .collect()
}

/// Every version reads the one shared log, so a writer appending to it — and
/// closing entries older versions still read — must change no answer of any
/// version that already exists: not of `v0`, not of a mid-log `@v7` view
/// built afresh per read, not of a head `Arc` a client captured earlier.
#[test]
fn retained_versions_answer_the_same_under_a_concurrent_writer() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};

    // A rule-free base (ids survive encoding): hub 0 over a two-label path.
    let n = 24u32;
    let hub = (1..n).map(|i| (0, 0, i));
    let path = (1..n - 1).map(|i| (i, 1 + i % 2, i + 1));
    let g = Hypergraph::from_simple_edges(n as usize, hub.chain(path)).0;
    let versioned = VersionedStore::new(Arc::new(base_store("rule-free", g))).unwrap();

    // The toggled pool, all on rows the recordings cover: per node a base
    // hub edge, two overlay edges and an edge to a node past the bound.
    let n = u64::from(n);
    let pool: Vec<Edge> =
        (1..n).flat_map(|i| [(0, 0, i), (i, 0, 0), (i, 2, (i + 5) % n), (i, 1, n + i % 2)]).collect();
    let mut model = edge_set(&versioned.base());
    let mut toggle = |k: usize| {
        let (s, label, t) = pool[k % pool.len()];
        let op = if model.remove(&(s, label, t)) { PatchOp::Del } else { PatchOp::Add };
        if op == PatchOp::Add {
            model.insert((s, label, t));
        }
        versioned.apply(EdgePatch { op, s, label, t }).unwrap();
    };

    // Twelve versions before anything is recorded, so `v7` sits mid-log and
    // the captured head is `v12`; the writer re-toggles all of their edges.
    (0..12).for_each(|k| toggle(k * 7));
    let head = versioned.head();
    let at = |v| versioned.at(v).unwrap();
    let recorded = [rows(&at(0)), rows(&at(7)), rows(&head)];
    let check = |when: &str| {
        for (store, want) in [at(0), at(7), Arc::clone(&head)].iter().zip(&recorded) {
            assert_eq!(&rows(store), want, "{when} the writer");
        }
    };
    check("before");

    let passes = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for pass in &passes {
            scope.spawn(|| loop {
                // Read `done` first: the last pass starts after the writer's
                // last patch.
                let last = done.load(SeqCst);
                check("during");
                pass.fetch_add(1, SeqCst);
                if last {
                    break;
                }
            });
        }
        // The writer: 20 bursts of 100 patches. No burst starts before each
        // reader has finished a pass it began after the previous one did, so
        // the reads interleave with the writes on any number of cores.
        for burst in 0..20 {
            let seen = passes.each_ref().map(|pass| pass.load(SeqCst));
            (0..100).for_each(|k| toggle(burst * 100 + k));
            while passes.iter().zip(seen).any(|(pass, seen)| pass.load(SeqCst) < seen + 2) {
                std::thread::yield_now();
            }
        }
        done.store(true, SeqCst);
    });
    check("after");
    assert_eq!(versioned.head_version(), 2012);
    assert_eq!(edge_set(&versioned.head()), model);
}
