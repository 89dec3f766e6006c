//! Small shared utilities for the gRePair workspace.
//!
//! The main export is an FxHash-style hasher ([`FxHashMap`], [`FxHashSet`]):
//! the compressor keys hash tables by small integers (node IDs, edge IDs,
//! digram signatures) for which SipHash is needlessly slow, and the offline
//! crate set does not include `rustc-hash`, so we provide the same
//! multiplicative hash here.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub mod args;
pub mod fail;
pub mod fmt;
pub mod fxhash;
pub mod sync;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
