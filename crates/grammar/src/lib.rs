//! Straight-line hyperedge replacement grammars (SL-HR grammars, §II).
//!
//! An SL-HR grammar is `(N, P, S)`: a ranked nonterminal alphabet, exactly
//! one rule per nonterminal with acyclic references (straight-line), and a
//! start graph. Such a grammar derives exactly one hypergraph up to
//! isomorphism; with the paper's deterministic node-ID assignment (start
//! nodes first, then the nonterminal edges in order, depth-first) it derives
//! exactly one hypergraph, `val(G)` — implemented by [`Grammar::derive`].
//!
//! The crate also provides the grammar-level operations the compressor and
//! the query engine need: validation, bottom-up ≤NT order, height, the
//! paper's size measures |G|, |G|V, |G|E (start graph included — this is the
//! accounting under which the Fig. 6 example differs from its derived graph
//! by exactly con(A) = 3), reference counts, per-nonterminal derived-size
//! statistics, rule inlining ([`apply_rule`]), and the pruning arithmetic
//! `handle`/`con` of §III-A3.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]
// A count or id is narrowed by `try_from` or an audited cast (§9.1).
#![deny(clippy::cast_possible_truncation)]

pub mod derive;
pub mod grammar;

pub use derive::{apply_rule, InlineResult};
pub use grammar::Grammar;
