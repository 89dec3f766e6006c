//! The `.g2g` container and the engine seam (DESIGN.md §7).
//!
//! The container is the one format the store reads or writes: a grammar
//! stream (`grepair_codec`) behind a 12-byte header.
//!
//! ```text
//! offset  size  field
//! 0       4     magic "G2G1"
//! 4       8     payload bit length, u64 LE
//! 12      ...   payload
//! ```
//!
//! [`QueryEngine`] is the serving surface behind a `GraphStore`. An engine
//! supplies its node count and one primitive, the labeled row of a node in
//! either direction; `neighbors`/`reach`/`rpq`/`components`/`degrees` are
//! provided once, by walking rows. Two engines implement it: the grammar
//! engine overrides every provided method with the paper's
//! compressed-domain algorithms, and a patched version (`version.rs`) is
//! its two corrected row functions and nothing else.

use std::collections::VecDeque;

use grepair_queries::QueryError;
use grepair_util::FxHashSet;

use crate::query::compile_pattern;
use crate::GrepairError;

/// Container magic.
const MAGIC: &[u8; 4] = b"G2G1";
/// Container header size: magic + little-endian `u64` bit length.
const HEADER_LEN: usize = 12;

/// A live, loaded graph answering queries.
///
/// This is the exact query surface [`crate::GraphStore`] serves — every
/// method fallible, every id checked, no panic on any input (the §2
/// zero-panic policy).
///
/// An engine implements three methods: its node count and the labeled row
/// of a node in each direction. Everything else is provided by walking
/// rows — one BFS, one product-automaton BFS, one edge scan — so the
/// version overlay is its two row functions. The grammar engine overrides
/// `reachable`, `rpq` and the aggregates with the paper's compressed-domain
/// algorithms. Whole-graph aggregates are uncached here — the store
/// memoizes them once per loaded store.
pub(crate) trait QueryEngine: Send + Sync + std::fmt::Debug {
    /// Number of nodes; valid query ids are `0..total_nodes()`.
    fn total_nodes(&self) -> u64;

    /// Labeled out-edges of `v` as `(label, target)` pairs, sorted
    /// ascending, deduplicated; an error for `v` outside
    /// `0..total_nodes()`. This is also the primitive the version overlay
    /// corrects (DESIGN.md §12): an overlay must know *which* labeled edge
    /// a patch removed, so plain neighbor sets are not enough.
    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Labeled in-edges of `v` as `(label, source)` pairs, sorted
    /// ascending, deduplicated.
    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Out-neighbors of `v`, sorted ascending, deduplicated.
    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        Ok(row_nodes(self.out_edges(v)?))
    }

    /// In-neighbors of `v`, sorted ascending, deduplicated.
    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        Ok(row_nodes(self.in_edges(v)?))
    }

    /// Union of both directions, sorted and deduplicated.
    fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let mut row = self.out_edges(v)?;
        row.extend(self.in_edges(v)?);
        Ok(row_nodes(row))
    }

    /// Is `t` reachable from `s` along directed edges (reflexively)?
    /// Provided as a BFS over out-rows.
    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        let n = self.total_nodes();
        check_id(s, n)?;
        check_id(t, n)?;
        if s == t {
            return Ok(true);
        }
        let mut visited: FxHashSet<u64> = [s].into_iter().collect();
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (_, w) in self.out_edges(v)? {
                if w == t {
                    return Ok(true);
                }
                if visited.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        Ok(false)
    }

    /// Does some `s → t` path spell a word of the pattern's language?
    /// Provided as a product-automaton BFS: states are `(node, nfa state)`,
    /// each popped state steps the NFA by the label of every out-row entry,
    /// and the target reached in an accepting state accepts — which handles
    /// the empty word (`s == t`, accepting start state) for free, matching
    /// the grammar engine's semantics.
    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let n = self.total_nodes();
        check_id(s, n)?;
        check_id(t, n)?;
        let nfa = compile_pattern(pattern)?;
        let mut visited: FxHashSet<(u64, u32)> = FxHashSet::default();
        let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
        for &q in nfa.start_states() {
            if visited.insert((s, q)) {
                queue.push_back((s, q));
            }
        }
        while let Some((v, q)) = queue.pop_front() {
            if v == t && nfa.is_accepting(q) {
                return Ok(true);
            }
            for (label, w) in self.out_edges(v)? {
                for q2 in nfa.step(q, label) {
                    if visited.insert((w, q2)) {
                        queue.push_back((w, q2));
                    }
                }
            }
        }
        Ok(false)
    }

    /// Number of connected components (undirected view; isolated nodes
    /// count). Provided as a union-find over the edge scan.
    fn components(&self) -> u64 {
        count_components(self.total_nodes() as usize, every_edge(self))
    }

    /// `(min, max)` undirected degree, `None` for the empty graph.
    /// Provided as a count over the edge scan.
    fn degree_extrema(&self) -> Option<(u64, u64)> {
        degree_extrema_of(self.total_nodes() as usize, every_edge(self))
    }
}

/// Wrap an encoded grammar in the `.g2g` container.
pub fn write_container(bytes: &[u8], bit_len: u64) -> Vec<u8> {
    let mut file = Vec::with_capacity(bytes.len() + HEADER_LEN);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&bit_len.to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// Split a container image into its codec name (always `"grepair"`),
/// claimed payload bit length, and payload. Only the *container* is judged
/// here; whether the payload actually holds `bit_len` coherent bits is the
/// decoder's job.
pub fn split_any_container(file: &[u8]) -> Result<(&str, u64, &[u8]), GrepairError> {
    let Some((header, payload)) = file.split_first_chunk::<HEADER_LEN>() else {
        return Err(GrepairError::Container(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            file.len()
        )));
    };
    let [m0, m1, m2, m3, bit_len @ ..] = *header;
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(GrepairError::Container("bad magic".into()));
    }
    Ok(("grepair", u64::from_le_bytes(bit_len), payload))
}

// ---------------------------------------------------------------------
// Row helpers
// ---------------------------------------------------------------------

pub(crate) fn check_id(v: u64, total: u64) -> Result<u32, GrepairError> {
    if v >= total {
        return Err(QueryError::NodeOutOfRange { id: v, total }.into());
    }
    Ok(v as u32)
}

/// A labeled row projected to its nodes, sorted and deduplicated (two
/// labels can lead to the same neighbor).
fn row_nodes(row: Vec<(u32, u64)>) -> Vec<u64> {
    let mut nodes: Vec<u64> = row.into_iter().map(|(_, w)| w).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Every edge of the served graph as an endpoint pair, one out-row per
/// node — the whole-graph aggregate input. Row errors cannot occur for
/// in-range ids, but the aggregate trait methods are infallible, so an
/// impossible error degrades to an empty row.
fn every_edge<E: QueryEngine + ?Sized>(engine: &E) -> impl Iterator<Item = (u32, u32)> + '_ {
    (0..engine.total_nodes()).flat_map(move |v| {
        let row = engine.out_edges(v).unwrap_or_default();
        row.into_iter().map(move |(_, w)| (v as u32, w as u32))
    })
}

/// Component count over an edge iterator (undirected view; isolated nodes
/// count — the same semantics as the grammar's one-pass evaluation).
fn count_components(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> u64 {
    let mut uf = grepair_hypergraph::traverse::UnionFind::new(n);
    for (a, b) in edges {
        uf.union(a, b);
    }
    uf.component_count() as u64
}

/// Degree extrema over an edge iterator (each edge adds one incidence per
/// endpoint, so a self-loop counts twice — matching `val(G)` semantics).
fn degree_extrema_of(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> Option<(u64, u64)> {
    if n == 0 {
        return None;
    }
    let mut deg = vec![0u64; n];
    #[expect(
        clippy::indexing_slicing,
        reason = "engine edge endpoints are validated < n at decode time"
    )]
    for (a, b) in edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "deg is non-empty: n == 0 returned None above"
    )]
    let lo = *deg.iter().min().expect("n > 0");
    #[expect(
        clippy::expect_used,
        reason = "deg is non-empty: n == 0 returned None above"
    )]
    let hi = *deg.iter().max().expect("n > 0");
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphStore;
    use grepair_grammar::Grammar;
    use grepair_hypergraph::Hypergraph;

    #[test]
    fn legacy_magic_is_detected_as_grepair() {
        let file = write_container(b"xyz", 24);
        let (tag, bit_len, payload) = split_any_container(&file).unwrap();
        assert_eq!(tag, "grepair");
        assert_eq!(bit_len, 24);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn hostile_headers_error_cleanly() {
        for junk in [
            &b""[..],
            b"G2",
            b"G2G1",
            b"G2G1\x01\x02\x03",
            b"G2G2\x00\x00\x00\x00\x00\x00\x00\x00", // a full header, wrong magic
            b"not a container at all..",
        ] {
            assert!(split_any_container(junk).is_err(), "{junk:?}");
        }
    }

    #[test]
    fn every_codec_round_trips_a_path_graph() {
        // The one codec, on the compressed grammar (which renumbers nodes,
        // FP order) and on the rule-free one (which keeps them).
        let g = Hypergraph::from_simple_edges(30, (0..29u32).map(|i| (i, 0u32, i + 1))).0;
        let compressed = grepair_core::compress(&g, &grepair_core::GRePairConfig::default());
        for grammar in [compressed.grammar, Grammar::new(g.clone(), 1)] {
            let enc = grepair_codec::encode(&grammar);
            let file = write_container(&enc.bytes, enc.bit_len);
            let (_, bit_len, payload) = split_any_container(&file).unwrap();
            assert_eq!(grepair_codec::decode(payload, bit_len).unwrap().derive().num_edges(), 29);
            let store = GraphStore::from_bytes(&file).unwrap();
            assert_eq!(store.total_nodes(), 30);
            // Locate the path's endpoints structurally instead of by input id.
            let head = (0..30)
                .find(|&v| store.in_neighbors(v).unwrap().is_empty())
                .expect("path head");
            let tail = (0..30)
                .find(|&v| store.out_neighbors(v).unwrap().is_empty())
                .expect("path tail");
            assert_ne!(head, tail);
            assert_eq!(store.out_neighbors(head).unwrap().len(), 1);
            assert_eq!(store.in_neighbors(tail).unwrap().len(), 1);
            let mid = store.out_neighbors(head).unwrap()[0];
            assert_eq!(store.neighbors(mid).unwrap().len(), 2);
            assert!(store.reachable(head, tail).unwrap());
            assert!(!store.reachable(tail, head).unwrap());
            // The labeled edge primitive agrees with the neighbor views.
            assert_eq!(store.out_edges(head).unwrap(), vec![(0, mid)]);
            assert_eq!(store.in_edges(mid).unwrap(), vec![(0, head)]);
            assert!(store.out_edges(30).is_err());
            assert!(store.in_edges(1 << 40).is_err());
            let two_away = store.out_neighbors(mid).unwrap()[0];
            assert!(store.rpq("0 0", head, two_away).unwrap());
            assert!(store.rpq("0*", 5, 5).unwrap());
            assert!(!store.rpq("0", head, two_away).unwrap());
            assert_eq!(store.components(), 1);
            assert_eq!(store.degree_extrema(), Some((1, 2)));
            // Out-of-range ids are clean errors naming the range.
            let err = store.out_neighbors(30).unwrap_err().to_string();
            assert!(err.contains("out of range") && err.contains("0..30"), "{err}");
            assert!(store.reachable(1 << 40, 0).is_err());
            assert!(store.rpq("0", 0, u64::MAX).is_err());
        }
    }
}
