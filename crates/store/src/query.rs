//! The store's request/response vocabulary and the newline-delimited text
//! protocol `store serve-file` speaks.
//!
//! One query per line, whitespace-separated:
//!
//! ```text
//! out <v>                  # out-neighbors of v
//! in <v>                   # in-neighbors of v
//! neighbors <v>            # out ∪ in
//! reach <s> <t>            # (s,t)-reachability
//! rpq <s> <t> <atom>...    # regular path query; atoms are label ids with
//!                          # an optional * + ? suffix, e.g. `0 1* 2?`
//! components               # connected components of val(G)
//! degrees                  # min/max degree over val(G)
//! ```
//!
//! Blank lines and `#` comments are skipped by the server, not here.

use grepair_queries::{Nfa, Regex};

use crate::GrepairError;

/// One request against a loaded [`crate::GraphStore`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Out-neighbor ids of a node.
    OutNeighbors(u64),
    /// In-neighbor ids of a node.
    InNeighbors(u64),
    /// Union of both directions.
    Neighbors(u64),
    /// Is `t` reachable from `s`?
    Reach {
        /// Source node.
        s: u64,
        /// Target node.
        t: u64,
    },
    /// Regular path query from `s` to `t`.
    Rpq {
        /// Source node.
        s: u64,
        /// Target node.
        t: u64,
        /// Canonical pattern text (atoms joined by one space).
        pattern: String,
    },
    /// Number of connected components of `val(G)`.
    Components,
    /// `(min, max)` degree over `val(G)`.
    DegreeExtrema,
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// A sorted list of node ids.
    Nodes(Vec<u64>),
    /// A yes/no answer.
    Bool(bool),
    /// A count.
    Count(u64),
    /// Degree extrema (`None` for the empty graph).
    Extrema(Option<(u64, u64)>),
}

impl std::fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryAnswer::Nodes(ids) if ids.is_empty() => write!(f, "-"),
            QueryAnswer::Nodes(ids) => {
                for (i, id) in ids.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{id}")?;
                }
                Ok(())
            }
            QueryAnswer::Bool(b) => write!(f, "{b}"),
            QueryAnswer::Count(n) => write!(f, "{n}"),
            QueryAnswer::Extrema(None) => write!(f, "-"),
            QueryAnswer::Extrema(Some((lo, hi))) => write!(f, "min={lo} max={hi}"),
        }
    }
}

/// Render one wire-protocol error reply line (without the trailing
/// newline). Every server front end — `store serve-file`, the
/// `grepair-server` socket — must produce error lines through this one
/// function so their outputs stay byte-identical (DESIGN.md §6).
pub fn error_reply(reason: impl std::fmt::Display) -> String {
    format!("error: {reason}")
}

fn bad(what: impl Into<String>) -> GrepairError {
    GrepairError::BadRequest(what.into())
}

fn parse_id(tok: &str, what: &str) -> Result<u64, GrepairError> {
    tok.parse()
        .map_err(|e| bad(format!("{what} {tok:?}: {e}")))
}

/// Parse one text-protocol line into a [`Query`].
pub fn parse_query(line: &str) -> Result<Query, GrepairError> {
    let mut it = line.split_whitespace();
    let verb = it.next().ok_or_else(|| bad("empty query"))?;
    let mut one = |what| -> Result<u64, GrepairError> {
        parse_id(it.next().ok_or_else(|| bad(format!("missing {what}")))?, what)
    };
    let q = match verb {
        "out" => Query::OutNeighbors(one("node id")?),
        "in" => Query::InNeighbors(one("node id")?),
        "neighbors" => Query::Neighbors(one("node id")?),
        "reach" => Query::Reach { s: one("source id")?, t: one("target id")? },
        "rpq" => {
            let s = one("source id")?;
            let t = one("target id")?;
            let atoms: Vec<&str> = it.by_ref().collect();
            if atoms.is_empty() {
                return Err(bad("rpq needs at least one pattern atom"));
            }
            // Validate now so a bad pattern fails at parse time, not during
            // plan construction deep in a batch.
            let pattern = atoms.join(" ");
            parse_pattern(&pattern)?;
            return Ok(Query::Rpq { s, t, pattern });
        }
        "components" => Query::Components,
        "degrees" => Query::DegreeExtrema,
        other => return Err(bad(format!("unknown query verb {other:?}"))),
    };
    if let Some(extra) = it.next() {
        return Err(bad(format!("unexpected trailing token {extra:?}")));
    }
    Ok(q)
}

/// How many atoms one RPQ pattern may have. A plan costs
/// O(#rules · rank · |Q|) closures, each offered up to the automaton's
/// O(|Q|²) transitions on a label the rules carry, and the row walk of a
/// patched version compiles the automaton per query, so |Q| must not be the
/// client's to choose. 7 atoms (at most 15 states) is the longest pattern
/// whose worst case compiles in under 50 ms on every benchmark grammar
/// (DESIGN.md §3.2).
pub const MAX_PATTERN_ATOMS: usize = 7;

/// Parse an RPQ pattern — whitespace-separated atoms, each a terminal label
/// id with an optional `*`/`+`/`?` suffix, concatenated left to right, at
/// most [`MAX_PATTERN_ATOMS`] of them.
pub fn parse_pattern(pattern: &str) -> Result<Regex, GrepairError> {
    let atoms = pattern.split_whitespace().count();
    if atoms > MAX_PATTERN_ATOMS {
        return Err(bad(format!("rpq pattern has {atoms} atoms, at most {MAX_PATTERN_ATOMS}")));
    }
    let mut parts = Vec::new();
    for atom in pattern.split_whitespace() {
        let (digits, suffix) = match atom.as_bytes().last() {
            #[expect(
                clippy::string_slice,
                reason = "atom is non-empty: last() just returned Some"
            )]
            Some(b'*') => (&atom[..atom.len() - 1], Some(b'*')),
            #[expect(
                clippy::string_slice,
                reason = "atom is non-empty: last() just returned Some"
            )]
            Some(b'+') => (&atom[..atom.len() - 1], Some(b'+')),
            #[expect(
                clippy::string_slice,
                reason = "atom is non-empty: last() just returned Some"
            )]
            Some(b'?') => (&atom[..atom.len() - 1], Some(b'?')),
            _ => (atom, None),
        };
        let label: u32 = digits
            .parse()
            .map_err(|e| bad(format!("pattern atom {atom:?}: {e}")))?;
        let base = Regex::label(label);
        parts.push(match suffix {
            Some(b'*') => Regex::star(base),
            Some(b'+') => Regex::plus(base),
            Some(b'?') => Regex::opt(base),
            _ => base,
        });
    }
    if parts.is_empty() {
        return Err(bad("empty rpq pattern"));
    }
    Ok(Regex::cat(parts))
}

/// Compile a pattern to an NFA (the store caches the result per pattern).
pub fn compile_pattern(pattern: &str) -> Result<Nfa, GrepairError> {
    Ok(Nfa::from_regex(&parse_pattern(pattern)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_query("out 3").unwrap(), Query::OutNeighbors(3));
        assert_eq!(parse_query("in 0").unwrap(), Query::InNeighbors(0));
        assert_eq!(parse_query("neighbors 7").unwrap(), Query::Neighbors(7));
        assert_eq!(parse_query("reach 1 2").unwrap(), Query::Reach { s: 1, t: 2 });
        assert_eq!(
            parse_query("rpq 0 5 0 1* 2?").unwrap(),
            Query::Rpq { s: 0, t: 5, pattern: "0 1* 2?".into() }
        );
        assert_eq!(parse_query("components").unwrap(), Query::Components);
        assert_eq!(parse_query("degrees").unwrap(), Query::DegreeExtrema);
    }

    #[test]
    fn rejects_malformed_lines() {
        for line in [
            "",
            "out",
            "out x",
            "out 1 2",
            "reach 1",
            "rpq 1 2",
            "rpq 1 2 banana",
            "frobnicate 1",
            "components now",
        ] {
            assert!(parse_query(line).is_err(), "{line:?} should not parse");
        }
    }

    #[test]
    fn answers_render_stably() {
        assert_eq!(QueryAnswer::Nodes(vec![]).to_string(), "-");
        assert_eq!(QueryAnswer::Nodes(vec![1, 2, 30]).to_string(), "1 2 30");
        assert_eq!(QueryAnswer::Bool(true).to_string(), "true");
        assert_eq!(QueryAnswer::Count(9).to_string(), "9");
        assert_eq!(QueryAnswer::Extrema(None).to_string(), "-");
        assert_eq!(QueryAnswer::Extrema(Some((1, 4))).to_string(), "min=1 max=4");
    }

    #[test]
    fn error_reply_matches_the_wire_format() {
        assert_eq!(error_reply("empty query"), "error: empty query");
        let err = parse_query("frobnicate").unwrap_err();
        assert!(error_reply(&err).starts_with("error: bad request:"));
    }

    #[test]
    fn patterns_compile() {
        assert!(compile_pattern("0 1 0").is_ok());
        assert!(compile_pattern("0* 1+ 2?").is_ok());
        assert!(compile_pattern("").is_err());
        assert!(compile_pattern("*").is_err());
    }

    #[test]
    fn a_pattern_is_bounded_in_atoms_at_parse_time() {
        let line = |atoms: usize| format!("rpq 0 1 {}", vec!["0*"; atoms].join(" "));
        assert!(parse_query(&line(MAX_PATTERN_ATOMS)).is_ok());
        let err = parse_query(&line(MAX_PATTERN_ATOMS + 1)).unwrap_err();
        assert_eq!(err.to_string(), "bad request: rpq pattern has 8 atoms, at most 7");
        assert_eq!(compile_pattern(&["7"; 8].join(" ")).unwrap_err(), err);
    }
}
