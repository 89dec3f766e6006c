//! Serving-grade graph store: load a compressed graph **once**, answer
//! queries **forever**.
//!
//! The paper's payoff (§V) is querying `val(G)` directly on the grammar;
//! this crate turns that from a one-shot CLI run into a long-lived,
//! crash-proof server building block:
//!
//! * **Fallible load** — [`GraphStore::open`] / [`GraphStore::from_bytes`]
//!   take any byte sequence to either a serving store or a [`GrepairError`];
//!   no hostile container, truncation, or bit flip can panic the process.
//! * **One container, one codec** — a `.g2g` file ([`write_container`]) is
//!   a grammar stream behind a 12-byte header, and `from_bytes` decodes it
//!   with no codec lookup (DESIGN.md §7). The paper's baselines (k², LM,
//!   HN) are size comparators in `grepair-baselines`, never served.
//! * **Eager indexing** — the G-representation navigation index, the
//!   reachability skeletons and the condensation labels of every context
//!   graph are built at load time, so per-query latency never pays the
//!   O(|G|) setup (and a `reach` is label tests, not a walk).
//! * **Batched serving** — [`GraphStore::query_batch`] answers a query
//!   that already occurred earlier in the batch by cloning the first
//!   occurrence's `Arc`; rule expansions (a table with one once-filled cell
//!   per (nonterminal, external position, direction), hit/miss counters in
//!   [`StoreStats`]) and compiled RPQ plans (a bounded map) are store-wide
//!   and serve one-shot queries just as well. `DESIGN.md §5` has the
//!   measurements that decided what stayed.
//! * **Concurrent serving** — an expansion hit borrows its cell (no lock),
//!   a plan hit is a read lock and an `Arc` clone, answers are
//!   `Arc<QueryAnswer>`, and [`GraphStore::query_batch_on`] partitions one
//!   batch across the worker threads of a caller-owned [`BatchExecutor`]
//!   (the server's reusable pool); repeats collapse within each worker's
//!   chunk.
//! * **Multi-tenant hosting** — a [`StoreRegistry`] maps namespace names
//!   to hot-reloadable store slots with per-namespace monotonic
//!   generations: a freshly loaded container swaps in while in-flight
//!   queries finish on the old `Arc` (the wire protocol's `RELOAD`
//!   command, DESIGN.md §6/§8). Tenants can be attached cold (opened
//!   lazily on first query) and, under a configured byte budget, the
//!   least-recently-hit resident stores are evicted and reopen
//!   transparently on their next hit. The end-to-end embedded pattern —
//!   registry + batches, no sockets — is `examples/serving.rs` at the
//!   repository root; the socket front end is the `grepair-server` crate.
//! * **Versioned serving** — any namespace accepts edge patches
//!   ([`StoreRegistry::patch`], the wire protocol's `PATCH`): the base
//!   container stays immutable while each applied [`EdgePatch`] becomes a
//!   new monotonic version served through a cheap delta overlay, and
//!   `@vN` addressing ([`StoreRegistry::store_at`]) pins queries to any
//!   retained version while bare queries track the head (DESIGN.md §12).
//!
//! ```
//! use grepair_store::{GraphStore, Query, QueryAnswer, write_container};
//!
//! // Compress any graph, wrap it in the .g2g container, serve it.
//! let (g, _) = grepair_hypergraph::Hypergraph::from_simple_edges(
//!     9,
//!     (0..8u32).map(|i| (i, 0u32, i + 1)),
//! );
//! let out = grepair_core::compress(&g, &grepair_core::GRePairConfig::default());
//! let enc = grepair_codec::encode(&out.grammar);
//! let store = GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap();
//!
//! let queries = [
//!     Query::OutNeighbors(0),
//!     Query::Reach { s: 0, t: 8 },
//!     Query::Components,
//! ];
//! let answers = store.query_batch(&queries);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! assert_eq!(answers[1].as_deref(), Ok(&QueryAnswer::Bool(true)));
//!
//! // Hostile input errors instead of crashing the server.
//! assert!(GraphStore::from_bytes(b"G2G1junk").is_err());
//! assert!(store.query(&Query::OutNeighbors(1 << 40)).is_err());
//! ```

#![forbid(unsafe_code)]

mod backend;
mod engine;
mod error;
pub mod query;
mod registry;
mod store;
mod version;

pub use backend::{split_any_container, write_container};
pub use error::GrepairError;
pub use query::{compile_pattern, error_reply, parse_pattern, parse_query, Query, QueryAnswer};
pub use registry::{
    retry_backoff, valid_namespace, NamespaceHealth, RegistryStats, StoreRegistry,
    BREAKER_COOLDOWN, BREAKER_THRESHOLD, COLD_OPEN_ATTEMPTS, DEFAULT_NAMESPACE,
    MAX_NAMESPACE_LEN,
};
pub use store::{BatchExecutor, GraphStore, StoreStats};
pub use version::{
    materialize, EdgePatch, PatchOp, VersionSummary, VersionedStore, MAX_VERSIONED_NODES,
};
