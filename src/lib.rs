//! # graph-grammar-repair
//!
//! A production-quality reproduction of **“Compressing Graphs by Grammars”**
//! (Maneth & Peternek, ICDE 2016): the gRePair compressor — RePair
//! generalized to directed edge-labeled hypergraphs — together with every
//! substrate and baseline its evaluation depends on.
//!
//! ```
//! use graph_grammar_repair::prelude::*;
//!
//! // Build a graph with repeated structure, compress, serialize, query.
//! let (g, _) = Hypergraph::from_simple_edges(
//!     33,
//!     (0..16u32).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
//! );
//! let compressed = compress(&g, &GRePairConfig::default());
//! assert!(compressed.grammar.size() < g.total_size());
//!
//! // Bit-exact serialization (§III-C2): k²-trees + δ-coded rules.
//! let encoded = grepair_codec::encode(&compressed.grammar);
//! let decoded = grepair_codec::decode(&encoded.bytes, encoded.bit_len).unwrap();
//!
//! // Queries without decompression (§V).
//! let reach = ReachIndex::new(&compressed.grammar);
//! assert!(reach.reachable(0, 16));
//! assert!(!reach.reachable(16, 0));
//!
//! // Lossless: val(G) equals the input under the node map.
//! let derived = decoded.derive();
//! assert_eq!(
//!     derived.edge_multiset_mapped(|v| compressed.node_map[v as usize]),
//!     g.edge_multiset(),
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`grepair_hypergraph`] | hypergraph model (§II), traversals, node orders incl. FP (§III-B1) |
//! | [`grepair_grammar`] | SL-HR grammars, `val(G)` derivation, sizes, inlining |
//! | [`grepair_core`] | the gRePair compressor (§III): digrams, occurrence counting, bucket queue, virtual edges, pruning |
//! | [`grepair_codec`] | the binary format (§III-C2): k²-tree start graph + δ-coded rules |
//! | [`grepair_queries`] | neighborhood (Prop. 4), reachability (Thm. 6), speed-up queries (§V) |
//! | [`grepair_store`] | serving-grade [`GraphStore`](grepair_store::GraphStore): fallible load → eager index → batched queries, hot-reload [`StoreRegistry`](grepair_store::StoreRegistry) |
//! | [`grepair_server`] | `grepair-server` TCP front end: wire protocol (DESIGN.md §6), reusable [`WorkerPool`](grepair_server::WorkerPool), `RELOAD`/SIGHUP hot reload |
//! | [`grepair_baselines`] | k²-tree, LM, HN, string-RePair baselines (§IV) |
//! | [`grepair_datasets`] | seeded generators standing in for the paper's datasets |
//! | [`grepair_k2tree`], [`grepair_bits`], [`grepair_lz`], [`grepair_util`] | substrates |

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub use grepair_baselines as baselines;
pub use grepair_bits as bits;
pub use grepair_codec as codec;
pub use grepair_core as core;
pub use grepair_datasets as datasets;
pub use grepair_grammar as grammar;
pub use grepair_hypergraph as hypergraph;
pub use grepair_k2tree as k2tree;
pub use grepair_lz as lz;
pub use grepair_queries as queries;
pub use grepair_server as server;
pub use grepair_store as store;
pub use grepair_util as util;

/// The items most programs need.
pub mod prelude {
    pub use grepair_codec::{decode, encode};
    pub use grepair_core::{compress, CompressedGraph, GRePairConfig};
    pub use grepair_grammar::Grammar;
    pub use grepair_hypergraph::order::NodeOrder;
    pub use grepair_hypergraph::{EdgeLabel, Hypergraph};
    pub use grepair_queries::{GrammarIndex, QueryError, ReachIndex};
    pub use grepair_store::{GraphStore, GrepairError, Query, QueryAnswer};
}
