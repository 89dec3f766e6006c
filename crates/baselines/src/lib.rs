//! The competing compressors of §IV:
//!
//! * [`k2`] — the plain k²-tree representation (Brisaboa et al. \[21\]),
//!   extended to labeled/RDF graphs with one tree per label as in
//!   Álvarez-García et al. \[8\]. This is the baseline of Table V and one
//!   of the three in Fig. 12 / Table VI.
//! * [`lm`] — the List Merging compressor of Grabowski & Bieniecki \[20\]
//!   (chunk size 64, as in their paper), with our DEFLATE-like `grepair-lz`
//!   standing in for gzip.
//! * [`hn`] — dense-substructure virtual-node mining in the style of
//!   Buehrer & Chellapilla \[23\] / Hernández & Navarro \[22\]
//!   (T = 10, P = 2, ES = 10), followed by a k²-tree of the rewired graph.
//! * [`repair_strings`] — classical string RePair \[15\] applied to the
//!   adjacency-list sequence (Claude & Navarro \[19\]); also used to check
//!   the paper's closing claim that gRePair on string-shaped graphs matches
//!   plain RePair.
//!
//! Every baseline reports its exact output size in bits and (except the
//! size-only estimators) decodes back for round-trip testing. Decoders are
//! fully fallible — hostile bytes surface as a [`BaselineError`], never a
//! panic — because the serving layer (`grepair-store`) now loads baseline
//! containers as live query backends, not just as size counters.

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

pub mod hn;
pub mod k2;
pub mod lm;
pub mod repair_strings;

use grepair_bits::BitError;
use grepair_lz::LzError;

/// Any failure decoding a baseline's byte stream.
///
/// The structured counterpart of the `Result<_, String>` the early decoders
/// returned: the serving layer converts this into its workspace-wide error
/// type without stringifying, so a corrupted [`lm`] container reports the
/// same way a corrupted grammar container does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The general-purpose compressor rejected the stream ([`lm`]).
    Lz(LzError),
    /// A bit-level decode failed (k²-tree payloads).
    Bits(BitError),
    /// The stream decoded but violates the format's own invariants
    /// (out-of-range neighbor, truncated bitmask, inconsistent geometry).
    Format(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Lz(e) => write!(f, "{e}"),
            BaselineError::Bits(e) => write!(f, "{e}"),
            BaselineError::Format(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<LzError> for BaselineError {
    fn from(e: LzError) -> Self {
        BaselineError::Lz(e)
    }
}

impl From<BitError> for BaselineError {
    fn from(e: BitError) -> Self {
        BaselineError::Bits(e)
    }
}

impl BaselineError {
    /// Shorthand for a format-invariant violation.
    pub fn format(what: impl Into<String>) -> Self {
        BaselineError::Format(what.into())
    }
}
