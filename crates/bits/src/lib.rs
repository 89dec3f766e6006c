//! Bit-level primitives for the gRePair grammar codec and the k²-tree.
//!
//! The paper's output format (§III-C2) is a raw bit stream: k²-tree bitmaps
//! for the start graph, Elias δ-codes ("variable-length δ-code \[27\]") for
//! rule edge lists, and fixed-width codes for hyperedge permutations. This
//! crate provides those primitives:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit streams over byte buffers,
//! * [`codes`] — unary, Elias γ and Elias δ codes, fixed-width and minimal
//!   binary codes,
//! * [`bitvec`] — a plain growable bit vector plus [`bitvec::RankBitVec`],
//!   a static bit vector with O(1) `rank1` used for k²-tree navigation.

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

pub mod bitvec;
pub mod codes;
pub mod reader;
pub mod writer;

pub use bitvec::{BitVec, RankBitVec};
pub use reader::BitReader;
pub use writer::BitWriter;

/// Errors produced when decoding a bit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitError {
    /// The reader ran past the end of the stream.
    UnexpectedEnd,
    /// A code word was malformed (e.g. a δ-code describing a 0-length value).
    InvalidCode(&'static str),
}

impl std::fmt::Display for BitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitError::UnexpectedEnd => write!(f, "unexpected end of bit stream"),
            BitError::InvalidCode(what) => write!(f, "invalid code word: {what}"),
        }
    }
}

impl std::error::Error for BitError {}

/// Result alias for bit-stream decoding.
pub type Result<T> = std::result::Result<T, BitError>;
