//! The k²-tree baseline: one adjacency-matrix tree per edge label.
//!
//! For unlabeled graphs this is exactly \[21\]; for RDF graphs it is the
//! vertical-partitioning scheme of \[8\] ("one adjacency matrix is created
//! for every edge label and then encoded as a separate k²-tree"), which the
//! paper compares against in Table V.

use grepair_bits::codes::{read_delta, write_delta};
use grepair_bits::{BitReader, BitWriter};
use grepair_hypergraph::{EdgeLabel, Hypergraph};
use grepair_k2tree::K2Tree;

/// Encoded baseline output.
#[derive(Debug, Clone)]
pub struct K2Encoded {
    /// Serialized stream.
    pub bytes: Vec<u8>,
    /// Exact bit length.
    pub bit_len: u64,
}

impl K2Encoded {
    /// Bits per edge.
    pub fn bits_per_edge(&self, edges: usize) -> f64 {
        grepair_util::fmt::bits_per_edge(self.bit_len, edges as u64)
    }
}

/// Encode a simple directed labeled graph (terminal rank-2 edges only).
///
/// # Panics
/// If the graph contains hyperedges or nonterminal labels.
pub fn encode(g: &Hypergraph) -> K2Encoded {
    let mut per_label: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
    for e in g.edges() {
        #[expect(
            clippy::panic,
            reason = "documented encoder precondition; only dataset graphs reach this"
        )]
        let EdgeLabel::Terminal(l) = e.label else {
            panic!("k2 baseline expects terminal-only graphs")
        };
        assert_eq!(e.att.len(), 2, "k2 baseline expects rank-2 edges");
        match per_label.binary_search_by_key(&l, |(x, _)| *x) {
            #[expect(
                clippy::indexing_slicing,
                reason = "i is the binary-search hit, and rank 2 was asserted just above"
            )]
            Ok(i) => per_label[i].1.push((e.att[0], e.att[1])),
            #[expect(
                clippy::indexing_slicing,
                reason = "rank 2 was asserted just above; insertion index is from binary_search"
            )]
            Err(i) => per_label.insert(i, (l, vec![(e.att[0], e.att[1])])),
        }
    }
    let n = g.node_bound() as u32;
    let mut w = BitWriter::new();
    write_delta(&mut w, n as u64 + 1);
    write_delta(&mut w, per_label.len() as u64 + 1);
    for (label, points) in per_label {
        write_delta(&mut w, label as u64 + 1);
        let tree = K2Tree::build(2, n, n, points);
        tree.encode(&mut w);
    }
    let (bytes, bit_len) = w.finish();
    K2Encoded { bytes, bit_len }
}

/// Largest node count the decoder will materialize structures for —
/// protects the serving path from self-consistent but absurd headers.
pub const MAX_DECODE_NODES: u64 = 1 << 24;

/// Decode the per-label trees without materializing the graph — the shape
/// the serving layer's k² query engine keeps resident.
///
/// Returns the node count and the `(label, tree)` pairs in stream order.
/// Every structural claim is validated: tree dimensions must match the
/// header's node count, and the node count is capped by
/// [`MAX_DECODE_NODES`].
pub fn decode_trees(
    bytes: &[u8],
    bit_len: u64,
) -> Result<(u32, Vec<(u32, K2Tree)>), crate::BaselineError> {
    let bad = crate::BaselineError::format;
    let mut r = BitReader::new(bytes, bit_len);
    let n = read_delta(&mut r)? - 1;
    if n > MAX_DECODE_NODES {
        return Err(bad(format!("node count {n} exceeds the decoder cap ({MAX_DECODE_NODES})")));
    }
    let n = n as u32;
    let labels = read_delta(&mut r)? - 1;
    let mut trees: Vec<(u32, K2Tree)> = Vec::new();
    for _ in 0..labels {
        let label = read_delta(&mut r)? - 1;
        if label > u32::MAX as u64 {
            return Err(bad(format!("edge label {label} out of range")));
        }
        // The encoder emits labels strictly ascending; accepting anything
        // else would let one label own two trees, and per-label lookups
        // downstream would silently see only the first.
        if let Some(&(prev, _)) = trees.last() {
            if label as u32 <= prev {
                return Err(bad(format!(
                    "edge labels not strictly ascending ({prev} then {label})"
                )));
            }
        }
        let tree = K2Tree::decode(&mut r)?;
        if tree.rows() != n || tree.cols() != n {
            return Err(bad(format!(
                "tree for label {label} is {}x{}, expected {n}x{n}",
                tree.rows(),
                tree.cols()
            )));
        }
        trees.push((label as u32, tree));
    }
    Ok((n, trees))
}

/// Decode back to a graph (node count = matrix dimension; labels restored).
pub fn decode(bytes: &[u8], bit_len: u64) -> Result<Hypergraph, crate::BaselineError> {
    let (n, trees) = decode_trees(bytes, bit_len)?;
    let mut g = Hypergraph::with_nodes(n as usize);
    for (label, tree) in trees {
        for (row, col) in tree.iter_ones() {
            g.add_edge(EdgeLabel::Terminal(label), &[row, col]);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_labels(n: u32, labels: u32) -> Hypergraph {
        let (g, _) = Hypergraph::from_simple_edges(
            n as usize,
            (0..n).map(|i| (i, i % labels, (i + 1) % n)),
        );
        g
    }

    #[test]
    fn round_trip_multi_label() {
        let g = ring_with_labels(50, 3);
        let enc = encode(&g);
        let back = decode(&enc.bytes, enc.bit_len).unwrap();
        assert_eq!(back.edge_multiset(), g.edge_multiset());
    }

    #[test]
    fn empty_graph() {
        let g = Hypergraph::with_nodes(5);
        let enc = encode(&g);
        let back = decode(&enc.bytes, enc.bit_len).unwrap();
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn duplicate_label_trees_are_rejected() {
        // The encoder emits strictly ascending labels; a crafted stream
        // repeating a label must not load (per-label lookups would only
        // ever see the first tree).
        use grepair_bits::codes::write_delta;
        use grepair_bits::BitWriter;
        let mut w = BitWriter::new();
        write_delta(&mut w, 3 + 1); // n = 3
        write_delta(&mut w, 2 + 1); // two trees...
        for _ in 0..2 {
            write_delta(&mut w, 1); // ...both labeled 0 (label + 1)
            K2Tree::build(2, 3, 3, vec![(0, 1)]).encode(&mut w);
        }
        let (bytes, bit_len) = w.finish();
        let err = decode_trees(&bytes, bit_len).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn bpe_is_finite_and_reasonable() {
        let g = ring_with_labels(1000, 1);
        let enc = encode(&g);
        let bpe = enc.bits_per_edge(g.num_edges());
        assert!(bpe > 0.0 && bpe < 64.0, "bpe = {bpe}");
    }
}
