//! The grammar binary format (§III-C2).
//!
//! The start graph and the productions are encoded differently:
//!
//! * **Start graph** — for every label σ appearing in S, the subgraph of
//!   σ-edges is stored as a k²-tree (k = 2): an adjacency matrix for plain
//!   rank-2 labels, an incidence matrix (nodes × edges) for hyperedge labels
//!   — the incidence matrix only gives the *set* of attached nodes, so a
//!   per-edge permutation (from a global dictionary, ⌈log n⌉-bit fixed-length
//!   codes) recovers the attachment order.
//! * **Rules** — edge lists with Elias δ-codes: per rule the edge count,
//!   then per edge one terminal/nonterminal bit, the attachment count, the
//!   attached node IDs (each preceded by an external-marker bit), and the
//!   label. The worked example of §III-C2 (the rule of Fig. 6) costs exactly
//!   28 bits in this core format; our container adds a 2-bit empty
//!   "isolated nodes" section (needed because virtual-edge stripping can
//!   leave edge-less nodes in a rule — a documented deviation).
//!
//! [`encode`] and [`decode`] are exact inverses on the *dense-renumbered*
//! grammar up to the order of S's edges: the encoder sorts S by (label,
//! attachment) whatever order it arrives in, so `val(decode(encode(G)))`
//! equals `val(G)` node-for-node for every valid grammar. (Compressor
//! output is already in that order, so its start edges keep their ids.)
//!
//! The returned [`EncodedGrammar`] carries a size breakdown
//! ([`SizeBreakdown`]) used by the evaluation (the paper observes that >90 %
//! of the output is usually the k²-tree of the start graph).

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]
// The zero-panic boundary (DESIGN.md §2, §9.1): this crate reads untrusted
// bytes, so every panic path carries an `#[expect(…, reason)]` audit.
#![deny(
    clippy::allow_attributes_without_reason,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

mod decoder;
mod encoder;
pub mod perm;
pub mod rules;
pub mod start;

pub use decoder::{decode, MAX_START_NODES};
pub use encoder::encode;

use grepair_bits::BitError;

/// Errors produced while decoding a grammar stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Bit-stream level failure.
    Bits(BitError),
    /// Structural failure (counts/ranks inconsistent).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Bits(e) => write!(f, "bit stream: {e}"),
            CodecError::Malformed(what) => write!(f, "malformed grammar stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<BitError> for CodecError {
    fn from(e: BitError) -> Self {
        CodecError::Bits(e)
    }
}

/// Byte-level result of [`encode`].
#[derive(Debug, Clone)]
pub struct EncodedGrammar {
    /// The encoded stream (zero-padded to a byte boundary).
    pub bytes: Vec<u8>,
    /// Exact length in bits.
    pub bit_len: u64,
    /// Where the bits went.
    pub breakdown: SizeBreakdown,
}

impl EncodedGrammar {
    /// Size in bytes (rounded up).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Bits per edge for an input with `edges` terminal edges — the paper's
    /// headline metric.
    pub fn bits_per_edge(&self, edges: usize) -> f64 {
        grepair_util::fmt::bits_per_edge(self.bit_len, edges as u64)
    }
}

/// Bit counts per stream section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// Counts and the permutation dictionary.
    pub header_bits: u64,
    /// All per-label k²-trees of the start graph.
    pub start_graph_bits: u64,
    /// Per-edge permutation indices (hyperedge labels only).
    pub permutation_bits: u64,
    /// The δ-coded rules.
    pub rule_bits: u64,
}

impl SizeBreakdown {
    /// Total bits.
    pub fn total(&self) -> u64 {
        self.header_bits + self.start_graph_bits + self.permutation_bits + self.rule_bits
    }

    /// Fraction of the output spent on the start graph (incl. permutations).
    pub fn start_graph_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.start_graph_bits + self.permutation_bits) as f64 / self.total() as f64
        }
    }
}
