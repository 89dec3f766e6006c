//! The workspace-wide error type for everything between a `.g2g` byte
//! stream and a query answer.
//!
//! Every layer below keeps its own precise error — [`BitError`] for the bit
//! stream, [`CodecError`] for the grammar format, [`QueryError`] for query
//! evaluation — and all of them convert into [`GrepairError`], so a serving
//! path can be written end-to-end with `?` and *no* failure mode left as a
//! panic.

use grepair_bits::BitError;
use grepair_codec::CodecError;
use grepair_queries::QueryError;

/// Any failure on the load → index → query pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrepairError {
    /// Filesystem-level failure (the path and the OS error text).
    Io {
        /// The file involved.
        path: String,
        /// The underlying error, rendered.
        error: String,
    },
    /// The `.g2g` container is not recognizable (bad magic, short header).
    Container(String),
    /// Bit-stream level decode failure.
    Bits(BitError),
    /// Grammar-format decode failure.
    Codec(CodecError),
    /// A structurally invalid query (out-of-range node, bad path).
    Query(QueryError),
    /// A request that could not be understood (unparsable query line,
    /// malformed RPQ pattern).
    BadRequest(String),
    /// The operation is outside what the store supports (a versioned or
    /// materialized graph beyond [`crate::MAX_VERSIONED_NODES`] nodes).
    Unsupported(String),
    /// The target is temporarily refusing work — a namespace whose
    /// circuit breaker is open after repeated open failures
    /// (DESIGN.md §10). Unlike [`GrepairError::Io`] this is a *fast*
    /// failure: nothing was attempted, the caller should retry later.
    Unavailable(String),
}

impl std::fmt::Display for GrepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrepairError::Io { path, error } => write!(f, "{path}: {error}"),
            GrepairError::Container(what) => write!(f, "not a g2g container: {what}"),
            GrepairError::Bits(e) => write!(f, "bit stream: {e}"),
            GrepairError::Codec(e) => write!(f, "{e}"),
            GrepairError::Query(e) => write!(f, "{e}"),
            GrepairError::BadRequest(what) => write!(f, "bad request: {what}"),
            GrepairError::Unsupported(what) => write!(f, "unsupported: {what}"),
            GrepairError::Unavailable(what) => write!(f, "unavailable: {what}"),
        }
    }
}

impl std::error::Error for GrepairError {}

impl From<BitError> for GrepairError {
    fn from(e: BitError) -> Self {
        GrepairError::Bits(e)
    }
}

impl From<CodecError> for GrepairError {
    fn from(e: CodecError) -> Self {
        GrepairError::Codec(e)
    }
}

impl From<QueryError> for GrepairError {
    fn from(e: QueryError) -> Self {
        GrepairError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_the_inner_error() {
        let e: GrepairError = BitError::UnexpectedEnd.into();
        assert_eq!(e, GrepairError::Bits(BitError::UnexpectedEnd));
        let e: GrepairError = CodecError::Malformed("x".into()).into();
        assert!(matches!(e, GrepairError::Codec(_)));
        let e: GrepairError = QueryError::NodeOutOfRange { id: 9, total: 3 }.into();
        assert!(e.to_string().contains("out of range"), "{e}");
        assert!(e.to_string().contains("0..3"), "{e}");
    }
}
