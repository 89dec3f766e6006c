//! Serving embedded in your own process: `GraphStore` + `StoreRegistry` +
//! a worker pool, no sockets — the library-user path behind
//! `grepair-server` (see DESIGN.md §6 for the serving topology and
//! `crates/server` for the TCP front end over exactly this pattern).
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use graph_grammar_repair::prelude::*;
use graph_grammar_repair::server::WorkerPool;
use graph_grammar_repair::store::{StoreRegistry, DEFAULT_NAMESPACE};

/// Compress a two-label path graph with `2 * reps + 1` nodes into `.g2g`
/// container bytes — the artifact a deployment would ship to its servers.
fn compress_to_g2g(reps: u32) -> Vec<u8> {
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = encode(&out.grammar);
    graph_grammar_repair::store::write_container(&enc.bytes, enc.bit_len)
}

fn main() {
    // Load once, serve forever: the registry owns the currently serving
    // store of each namespace; every request path snapshots it with
    // `store(name)`.
    let registry = StoreRegistry::new(
        GraphStore::from_bytes(&compress_to_g2g(64)).expect("fresh container loads"),
    );
    let store = registry.store(DEFAULT_NAMESPACE).expect("the default namespace resolves");
    println!(
        "generation {}: serving {} nodes on the compressed grammar",
        store.generation(),
        store.total_nodes()
    );

    // One resident worker pool for the whole process — batches fan out
    // across reused threads, never paying a per-batch spawn.
    let pool = WorkerPool::new(4);
    let n = store.total_nodes();
    let queries: Vec<Query> = (0..n)
        .flat_map(|v| [Query::OutNeighbors(v), Query::Reach { s: 0, t: v }])
        .collect();
    let answers = store.query_batch_on(&queries, &pool);
    let reachable = answers
        .iter()
        .filter(|a| matches!(a.as_deref(), Ok(QueryAnswer::Bool(true))))
        .count();
    println!(
        "batch of {} queries answered ({} reach answers were true)",
        answers.len(),
        reachable
    );

    // A long-lived client keeps the pre-reload snapshot; new requests see
    // the new generation. This is what the server's RELOAD command (or a
    // SIGHUP) does while connections stay open.
    let veteran = registry.store(DEFAULT_NAMESPACE).expect("the default namespace resolves");
    let fresh = registry
        .swap(
            DEFAULT_NAMESPACE,
            GraphStore::from_bytes(&compress_to_g2g(128)).expect("replacement loads"),
        )
        .expect("the default namespace is attached");
    println!(
        "hot reload: generation {} now serves {} nodes; \
         the in-flight snapshot (generation {}) still answers on {} nodes",
        fresh.generation(),
        fresh.total_nodes(),
        veteran.generation(),
        veteran.total_nodes()
    );
    assert!(veteran.reachable(0, n - 1).expect("old snapshot keeps serving"));
    assert!(fresh.reachable(0, fresh.total_nodes() - 1).expect("new generation serves"));
    assert_eq!(Arc::strong_count(&fresh), 2, "registry + us");

    // Per-store stats carry the generation (the STATS admin reply).
    println!("old stats: {}", veteran.stats());
    println!("new stats: {}", fresh.stats());
}
