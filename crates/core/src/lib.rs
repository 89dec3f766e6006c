//! gRePair — the paper's compressor (§III): a generalization of RePair
//! \[15\] from strings and trees to directed edge-labeled hypergraphs.
//!
//! The algorithm repeatedly finds a *digram* (a pair of connected hyperedges,
//! Def. 2) with the largest number of non-overlapping occurrences (Def. 3),
//! replaces every occurrence by a fresh nonterminal hyperedge, and adds the
//! rule `A → digram`. Occurrence counting is the greedy ω-order
//! approximation of §III-C1 (maximum matching being too expensive), with the
//! per-node `Occ(E₁,E₂)` pairing and per-(edge, partner-group) occupancy.
//! Digram frequencies live in the √n bucket priority queue of Larsson &
//! Moffat. Disconnected graphs get a virtual-edge phase, and a final pruning
//! pass (§III-A3) inlines rules whose contribution `con(A)` is non-positive.
//!
//! Entry point: [`compress`] (or [`Compressor`] for staged control). The
//! result bundles the SL-HR grammar with a provenance-derived **node map**
//! from `val(G)` node IDs back to input node IDs, so callers can relocate
//! per-node data (the paper's ψ′ mapping) and tests can check exact — not
//! just isomorphic — round trips.
//!
//! ```
//! use grepair_hypergraph::Hypergraph;
//! use grepair_core::{compress, GRePairConfig};
//!
//! // Many repeats of a two-edge pattern compress into one rule.
//! let (g, _) = Hypergraph::from_simple_edges(
//!     17,
//!     (0..8u32).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
//! );
//! let out = compress(&g, &GRePairConfig::default());
//! assert!(out.grammar.size() < g.total_size());
//! let derived = out.grammar.derive();
//! assert_eq!(
//!     derived.edge_multiset_mapped(|v| out.node_map[v as usize]),
//!     g.edge_multiset(),
//! );
//! ```

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub mod compressor;
pub mod digram;
pub mod occurrences;
pub mod provenance;
pub mod prune;
pub mod queue;

pub use compressor::{compress, CompressStats, CompressedGraph, Compressor, GRePairConfig};
pub use digram::DigramSig;
