//! Query evaluation over SL-HR grammars (§V) — *without decompression*.
//!
//! The paper describes three families and proves their complexity, but
//! explicitly leaves them unimplemented ("The results in this section have
//! not been implemented"). This crate implements them:
//!
//! * [`index::GrammarIndex`] — G-representations of `val(G)` node IDs:
//!   locating a node costs O(log ℓ + h), mapping a representation back to an
//!   ID costs O(h) (ℓ = nonterminal edges in S, h = grammar height); a
//!   resolved locate carries ids instead of a path, O(log ℓ + h·rank).
//! * [`neighbors`] — in/out neighborhood queries (Proposition 4) over
//!   slot-form rule expansions, each kept in a once-filled cell of the
//!   index: O(log ℓ + h·rank + n) for n neighbors once the cells a row
//!   reads are filled.
//! * [`reach`] — (s,t)-reachability via per-nonterminal *skeleton graphs*
//!   (Theorem 6), built with Tarjan SCC exactly as in the paper's proof;
//!   every context graph is condensed and labelled once at index build, so
//!   a query climbs two derivation paths and compares labels instead of
//!   walking O(|G|) edges.
//! * [`speedup`] — one-pass CMSO-style aggregate queries (Proposition 5
//!   flavor): number of connected components, and max/min degree.
//! * [`rpq`] — **regular path queries**, the paper's stated future work,
//!   via an automaton-product generalization of the skeleton construction:
//!   per-rule relations per compiled pattern, one pattern-independent
//!   label-indexed adjacency of every context graph shared by all of them,
//!   and in the start graph a two-sided search that always takes the
//!   cheaper next step instead of closing over S.
//!
//! Every algorithm is differentially tested against the same query run on
//! the decompressed graph.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

mod adjacency;
mod condensation;
pub mod error;
pub mod index;
pub mod neighbors;
pub mod reach;
pub mod rpq;
pub mod speedup;

pub use error::QueryError;
pub use index::{GRepr, GrammarIndex, Located, Slot};
pub use neighbors::Direction;
pub use reach::{ReachIndex, ReachWork};
pub use rpq::{Nfa, Regex, RpqIndex, RpqShared, RpqWork};
