//! Errors for the fallible query entry points.
//!
//! The one thing a query can be asked that does not exist is a node id past
//! `val(G)`. The panicking entry points ([`crate::GrammarIndex::locate`],
//! [`crate::ReachIndex::reachable`], [`crate::RpqIndex::matches`] and the
//! neighbor shorthands) remain for trusted in-process callers (tests,
//! benchmarks) whose ids come from the index itself; anything driven by
//! external input — the CLI, a [store](https://docs.rs/grepair-store)
//! serving traffic — goes through the `try_*` variants, which return this
//! error instead of panicking.

/// A query was asked about something that does not exist in `val(G)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Node id `id` is not a node of `val(G)` (valid ids are `0..total`).
    NodeOutOfRange {
        /// The offending id.
        id: u64,
        /// Number of nodes in `val(G)`; valid ids are `0..total`.
        total: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NodeOutOfRange { id, total } => {
                write!(f, "node id {id} out of range (valid ids: 0..{total})")
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_valid_range() {
        let e = QueryError::NodeOutOfRange { id: 99, total: 7 };
        let msg = e.to_string();
        assert!(msg.contains("99") && msg.contains("0..7"), "{msg}");
        assert!(msg.contains("out of range"), "{msg}");
    }
}
