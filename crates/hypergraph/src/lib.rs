//! Directed, edge-labeled hypergraphs (§II of Maneth & Peternek, ICDE 2016).
//!
//! A hypergraph is `(V, E, att, lab, ext)`: nodes, edges, an attachment map
//! `att : E → V*` (no node twice per edge), a label map, and a sequence of
//! external nodes. Rank-2 edges are ordinary directed edges
//! (`att = [source, target]`). The paper's node/edge/total **sizes** (|g|V,
//! |g|E, |g|) are implemented exactly as defined: edges of rank ≤ 2 cost 1,
//! hyperedges cost their rank.
//!
//! The crate also provides the graph analyses the compressor and the
//! evaluation need:
//!
//! * [`traverse`] — BFS, connected components (hyperedges connect all their
//!   attached nodes), Tarjan SCC,
//! * [`order`] — the node orders of §III-B1 (Natural, Random, BFS, FP0, FP)
//!   and the ≅FP equivalence-class count reported in Tables I–III,
//! * [`io`] — a plain-text edge-list format for graphs and triples.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub mod graph;
pub mod io;
pub mod label;
pub mod order;
pub mod traverse;

pub use graph::{EdgeId, EdgeRef, Hypergraph, NodeId};
pub use label::EdgeLabel;
