//! Plain-text graph formats.
//!
//! Two readers cover the shapes the paper's datasets come in:
//!
//! * [`parse_pairs`] — SNAP-style edge lists: one `source target` pair per
//!   line, `#` comments, arbitrary (sparse) node identifiers that get
//!   remapped to dense IDs. All edges get terminal label 0.
//! * [`parse_triples`] — integer-mapped RDF: `subject predicate object`
//!   lines; predicates become edge labels.
//!
//! [`write_hypergraph`] / [`parse_hypergraph`] round-trip the full hypergraph
//! model (hyperedges, nonterminal labels, external nodes) for debugging and
//! golden tests.

use crate::graph::{Hypergraph, NodeId};
use crate::label::EdgeLabel;
use grepair_util::FxHashMap;

/// Errors from the text parsers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError { line, message: message.into() }
}

/// The dense id of original node `x`, the next one if `x` is new, read on
/// 0-based line `i`.
fn dense_id(
    remap: &mut FxHashMap<u64, NodeId>,
    originals: &mut Vec<u64>,
    x: u64,
    i: usize,
) -> Result<NodeId, ParseError> {
    if let Some(&id) = remap.get(&x) {
        return Ok(id);
    }
    let id = NodeId::try_from(originals.len())
        .map_err(|_| err(i + 1, "more than 2^32 distinct nodes"))?;
    originals.push(x);
    remap.insert(x, id);
    Ok(id)
}

/// Parse a SNAP-style `source target` edge list. Node identifiers are
/// remapped to dense IDs in first-seen order; the mapping is returned.
/// Returns the graph, the original→dense mapping, and the number of dropped
/// edges (self-loops / duplicates).
pub fn parse_pairs(text: &str) -> Result<(Hypergraph, Vec<u64>, usize), ParseError> {
    let mut remap: FxHashMap<u64, NodeId> = FxHashMap::default();
    let mut originals: Vec<u64> = Vec::new();
    let mut triples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let s: u64 = it
            .next()
            .ok_or_else(|| err(i + 1, "missing source"))?
            .parse()
            .map_err(|e| err(i + 1, format!("bad source: {e}")))?;
        let t: u64 = it
            .next()
            .ok_or_else(|| err(i + 1, "missing target"))?
            .parse()
            .map_err(|e| err(i + 1, format!("bad target: {e}")))?;
        if it.next().is_some() {
            return Err(err(i + 1, "expected exactly two columns"));
        }
        let s = dense_id(&mut remap, &mut originals, s, i)?;
        let t = dense_id(&mut remap, &mut originals, t, i)?;
        triples.push((s, 0u32, t));
    }
    let (g, dropped) = Hypergraph::from_simple_edges(originals.len(), triples);
    Ok((g, originals, dropped))
}

/// Parse integer-mapped RDF triples `subject predicate object`. Subjects and
/// objects share one node namespace; predicates become terminal labels,
/// remapped densely in first-seen order.
pub fn parse_triples(text: &str) -> Result<(Hypergraph, Vec<u64>, usize), ParseError> {
    let mut node_remap: FxHashMap<u64, NodeId> = FxHashMap::default();
    let mut originals: Vec<u64> = Vec::new();
    let mut label_remap: FxHashMap<u64, u32> = FxHashMap::default();
    let mut triples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 3 {
            return Err(err(i + 1, format!("expected 3 columns, got {}", cols.len())));
        }
        let parse = |s: &str| s.parse::<u64>().map_err(|e| err(i + 1, format!("bad number: {e}")));
        let (s, p, o) = (parse(cols[0])?, parse(cols[1])?, parse(cols[2])?);
        let s = dense_id(&mut node_remap, &mut originals, s, i)?;
        let o = dense_id(&mut node_remap, &mut originals, o, i)?;
        let next_label = u32::try_from(label_remap.len())
            .map_err(|_| err(i + 1, "more than 2^32 distinct predicates"))?;
        let p = *label_remap.entry(p).or_insert(next_label);
        triples.push((s, p, o));
    }
    let (g, dropped) = Hypergraph::from_simple_edges(originals.len(), triples);
    Ok((g, originals, dropped))
}

/// Serialize the full hypergraph model to text:
///
/// ```text
/// nodes <n>
/// e t<label>|N<label> <v1> <v2> ...
/// ext <v1> <v2> ...
/// ```
///
/// Dead node slots are preserved via a `dead <v>` line each, so IDs
/// round-trip exactly.
pub fn write_hypergraph(g: &Hypergraph) -> String {
    let mut out = String::new();
    out.push_str(&format!("nodes {}\n", g.node_bound()));
    for v in (0..).take(g.node_bound()).filter(|&v| !g.node_is_alive(v)) {
        out.push_str(&format!("dead {v}\n"));
    }
    for e in g.edges() {
        out.push_str(&format!("e {}", e.label));
        for &v in e.att {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    if !g.ext().is_empty() {
        out.push_str("ext");
        for &v in g.ext() {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    out
}

/// Parse the format written by [`write_hypergraph`].
pub fn parse_hypergraph(text: &str) -> Result<Hypergraph, ParseError> {
    let mut g = Hypergraph::new();
    let mut dead: Vec<NodeId> = Vec::new();
    let mut started = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next().unwrap() {
            "nodes" => {
                let n: usize = it
                    .next()
                    .ok_or_else(|| err(i + 1, "missing node count"))?
                    .parse()
                    .map_err(|e| err(i + 1, format!("bad node count: {e}")))?;
                g = Hypergraph::with_nodes(n);
                started = true;
            }
            "dead" => {
                let v: NodeId = it
                    .next()
                    .ok_or_else(|| err(i + 1, "missing node"))?
                    .parse()
                    .map_err(|e| err(i + 1, format!("bad node: {e}")))?;
                dead.push(v);
            }
            "e" => {
                if !started {
                    return Err(err(i + 1, "edge before nodes line"));
                }
                let label_tok = it.next().ok_or_else(|| err(i + 1, "missing label"))?;
                let label = parse_label(label_tok).ok_or_else(|| {
                    err(i + 1, format!("bad label {label_tok:?} (want t<i> or N<i>)"))
                })?;
                let att: Vec<NodeId> = it
                    .map(|tok| tok.parse().map_err(|e| err(i + 1, format!("bad node: {e}"))))
                    .collect::<Result<_, _>>()?;
                if att.is_empty() {
                    return Err(err(i + 1, "edge with no attached nodes"));
                }
                g.add_edge(label, &att);
            }
            "ext" => {
                let ext: Vec<NodeId> = it
                    .map(|tok| tok.parse().map_err(|e| err(i + 1, format!("bad node: {e}"))))
                    .collect::<Result<_, _>>()?;
                g.set_ext(ext);
            }
            other => return Err(err(i + 1, format!("unknown directive {other:?}"))),
        }
    }
    for v in dead {
        g.remove_node(v);
    }
    Ok(g)
}

fn parse_label(tok: &str) -> Option<EdgeLabel> {
    let (kind, rest) = tok.split_at(1);
    let idx: u32 = rest.parse().ok()?;
    match kind {
        "t" => Some(EdgeLabel::Terminal(idx)),
        "N" => Some(EdgeLabel::Nonterminal(idx)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_basic() {
        let (g, originals, dropped) = parse_pairs("# web graph\n10 20\n20 30\n10 20\n").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(dropped, 1);
        assert_eq!(originals, vec![10, 20, 30]);
    }

    #[test]
    fn pairs_reject_garbage() {
        assert!(parse_pairs("1 2 3\n").is_err());
        assert!(parse_pairs("x y\n").is_err());
        assert!(parse_pairs("1\n").is_err());
    }

    #[test]
    fn triples_remap_labels() {
        let (g, _, _) = parse_triples("1 100 2\n2 100 3\n1 7 3\n").unwrap();
        assert_eq!(g.num_edges(), 3);
        let labels: std::collections::BTreeSet<_> =
            g.edges().map(|e| e.label).collect();
        assert_eq!(labels.len(), 2); // predicates 100 and 7 → t0, t1
    }

    #[test]
    fn hypergraph_round_trip() {
        let mut g = Hypergraph::with_nodes(4);
        g.add_edge(EdgeLabel::Terminal(0), &[0, 1]);
        g.add_edge(EdgeLabel::Nonterminal(2), &[2, 0, 3]);
        g.set_ext(vec![3, 1]);
        let text = write_hypergraph(&g);
        let h = parse_hypergraph(&text).unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.edge_multiset(), g.edge_multiset());
        assert_eq!(h.ext(), g.ext());
    }

    #[test]
    fn dead_nodes_round_trip() {
        let mut g = Hypergraph::with_nodes(3);
        g.add_edge(EdgeLabel::Terminal(0), &[0, 2]);
        g.remove_node(1);
        let text = write_hypergraph(&g);
        let h = parse_hypergraph(&text).unwrap();
        assert!(!h.node_is_alive(1));
        assert_eq!(h.num_nodes(), 2);
        assert_eq!(h.edge_multiset(), g.edge_multiset());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_hypergraph("nodes 2\ne q0 0 1\n").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
