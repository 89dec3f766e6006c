//! Rule (production) encoding — the δ-coded edge-list format of §III-C2.
//!
//! Per rule: δ(#edges + 1); per edge one terminal/nonterminal bit,
//! δ(#attached nodes), then per node an external-marker bit followed by
//! δ(id + 1), and finally δ(label + 1). A trailing "isolated nodes" section
//! (δ(count + 1), then per node δ(id + 1) and an external bit) covers nodes
//! with no incident edges, which virtual-edge stripping can produce — the
//! paper's format cannot represent those (documented deviation; it costs
//! one δ(1) = 1 bit per rule in the common case).
//!
//! Rule node IDs are dense and the external sequence is ascending — both
//! invariants the compressor guarantees ("we make sure that the order
//! induced by the IDs of the external nodes is the same as the order of the
//! external nodes").

use crate::CodecError;
use grepair_bits::codes::{read_delta, write_delta};
use grepair_bits::{BitReader, BitWriter};
use grepair_hypergraph::{EdgeLabel, Hypergraph, NodeId};

/// Encode one rule right-hand side.
pub fn encode_rule(w: &mut BitWriter, rhs: &Hypergraph) {
    // The compressor hands us dense-noded rules with ascending ext; the
    // format depends on both.
    debug_assert_eq!(rhs.num_nodes(), rhs.node_bound(), "rule nodes must be dense");
    debug_assert!(
        // audited: windows(2) yields exactly two elements
        rhs.ext().windows(2).all(|w| w[0] < w[1]),
        "rule ext must be ascending"
    );
    write_delta(w, rhs.num_edges() as u64 + 1);
    for e in rhs.edges() {
        w.push_bit(e.label.is_nonterminal());
        write_delta(w, e.att.len() as u64);
        for &v in e.att {
            w.push_bit(rhs.is_external(v));
            write_delta(w, v as u64 + 1);
        }
        write_delta(w, e.label.index() as u64 + 1);
    }
    let isolated: Vec<NodeId> = rhs.node_ids().filter(|&v| rhs.degree(v) == 0).collect();
    write_delta(w, isolated.len() as u64 + 1);
    for v in isolated {
        write_delta(w, v as u64 + 1);
        w.push_bit(rhs.is_external(v));
    }
}

/// Decode one rule right-hand side.
pub fn decode_rule(r: &mut BitReader<'_>) -> Result<Hypergraph, CodecError> {
    let num_edges = read_delta(r)? - 1;
    struct RawEdge {
        label: EdgeLabel,
        att: Vec<NodeId>,
    }
    // Pre-sized by what the stream can still hold (an edge or an isolated
    // node costs at least one bit), never by the untrusted count itself.
    let mut edges = Vec::with_capacity(num_edges.min(r.remaining()) as usize);
    let mut max_node: i64 = -1;
    let mut external: Vec<NodeId> = Vec::new();
    for _ in 0..num_edges {
        let nonterminal = r.read_bit()?;
        let rank = read_delta(r)?;
        if rank == 0 || rank > 255 {
            return Err(CodecError::Malformed("edge rank out of range".into()));
        }
        let mut att = Vec::with_capacity(rank as usize);
        for _ in 0..rank {
            let ext = r.read_bit()?;
            let id = read_delta(r)? - 1;
            if id > u32::MAX as u64 {
                return Err(CodecError::Malformed("node id overflow".into()));
            }
            let id = id as NodeId;
            max_node = max_node.max(id as i64);
            if ext && !external.contains(&id) {
                external.push(id);
            }
            att.push(id);
        }
        let label = read_delta(r)? - 1;
        let label = if nonterminal {
            EdgeLabel::Nonterminal(label as u32)
        } else {
            EdgeLabel::Terminal(label as u32)
        };
        edges.push(RawEdge { label, att });
    }
    let isolated_count = read_delta(r)? - 1;
    let mut isolated = Vec::with_capacity(isolated_count.min(r.remaining()) as usize);
    for _ in 0..isolated_count {
        let id = (read_delta(r)? - 1) as NodeId;
        let ext = r.read_bit()?;
        max_node = max_node.max(id as i64);
        if ext && !external.contains(&id) {
            external.push(id);
        }
        isolated.push(id);
    }
    // Rule node ids are dense, and every node is attached somewhere or
    // listed as isolated: a larger id is corrupt, and must be rejected
    // before it sizes the graph.
    let slots: u64 = edges.iter().map(|e| e.att.len() as u64).sum::<u64>() + isolated.len() as u64;
    if max_node >= slots as i64 {
        return Err(CodecError::Malformed(format!(
            "rule node id {max_node} exceeds the {slots} attachment slots and isolated nodes"
        )));
    }
    let n = (max_node + 1) as usize;
    let mut rhs = Hypergraph::with_nodes(n);
    for e in edges {
        for (i, &v) in e.att.iter().enumerate() {
            // audited: att[..i] with i from enumerate is always in bounds
            if e.att[..i].contains(&v) {
                return Err(CodecError::Malformed("edge attaches a node twice".into()));
            }
        }
        rhs.add_edge(e.label, &e.att);
    }
    for v in &isolated {
        if rhs.degree(*v) != 0 {
            return Err(CodecError::Malformed("isolated node has edges".into()));
        }
    }
    external.sort_unstable();
    rhs.set_ext(external);
    Ok(rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    fn round_trip(rhs: &Hypergraph) -> Hypergraph {
        let mut w = BitWriter::new();
        encode_rule(&mut w, rhs);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let out = decode_rule(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        out
    }

    /// The paper's worked example (§III-C2, the rule of Fig. 6): two
    /// terminal rank-2 edges over nodes {1,2,3} (0-based {0,1,2}), nodes 0
    /// and 1 external, label 1 (0-based label 0):
    ///
    /// ```text
    /// δ(2)                   two edges            (wait — see below)
    /// 0 δ(2) 1δ(1) 1δ(2) δ(1)   terminal, 2 nodes, ext 1, ext 2, label 1
    /// 0 δ(2) 1δ(1) 0δ(3) δ(1)   terminal, 2 nodes, ext 1, int 3, label 1
    /// ```
    ///
    /// The paper says "a bit sequence of length 28"; under standard Elias δ
    /// its own listing adds up to 30 bits (δ(2) = 4 bits, each edge 13).
    /// Our stream writes δ(#edges+1) = δ(3) (also 4 bits) and appends the
    /// 1-bit empty isolated-node section: 31 bits total.
    #[test]
    fn paper_example_bit_count() {
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.set_ext(vec![0, 1]);
        let mut w = BitWriter::new();
        encode_rule(&mut w, &rhs);
        assert_eq!(w.bit_len(), 31);
        let out = round_trip(&rhs);
        assert_eq!(out.edge_multiset(), rhs.edge_multiset());
        assert_eq!(out.ext(), rhs.ext());
    }

    #[test]
    fn nonterminal_and_hyper_edges_round_trip() {
        let mut rhs = Hypergraph::with_nodes(4);
        rhs.add_edge(N(3), &[2, 0, 3]);
        rhs.add_edge(T(1), &[3, 1]);
        rhs.set_ext(vec![0, 1, 3]);
        let out = round_trip(&rhs);
        assert_eq!(out.edge_multiset(), rhs.edge_multiset());
        assert_eq!(out.ext(), rhs.ext());
    }

    #[test]
    fn isolated_nodes_round_trip() {
        // A rule left with an isolated internal node after virtual-edge
        // stripping.
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.set_ext(vec![0, 1]);
        // node 2 is isolated & internal
        let out = round_trip(&rhs);
        assert_eq!(out.num_nodes(), 3);
        assert_eq!(out.degree(2), 0);
        assert_eq!(out.ext(), &[0, 1]);
    }

    #[test]
    fn empty_rule_round_trips() {
        let rhs = Hypergraph::with_nodes(0);
        let out = round_trip(&rhs);
        assert_eq!(out.num_nodes(), 0);
        assert_eq!(out.num_edges(), 0);
    }

    #[test]
    fn huge_counts_error_instead_of_allocating() {
        // 2^60 edges, or no edges and 2^60 isolated nodes, in a few dozen
        // bits: the stream runs out long before a vector that size would.
        for (edges, isolated) in [(1u64 << 60, 0u64), (0, 1 << 60)] {
            let mut w = BitWriter::new();
            write_delta(&mut w, edges + 1);
            write_delta(&mut w, isolated + 1);
            w.push_bits(0, 8);
            let (bytes, len) = w.finish();
            assert!(decode_rule(&mut BitReader::new(&bytes, len)).is_err());
        }
    }

    #[test]
    fn node_ids_beyond_the_listed_nodes_error_instead_of_allocating() {
        // Node 10⁸ on an edge, or as an isolated node: two or one listed
        // nodes cannot be dense up to that id.
        for isolated in [false, true] {
            let mut w = BitWriter::new();
            write_delta(&mut w, if isolated { 1 } else { 2 }); // edges + 1
            if !isolated {
                w.push_bit(false); // terminal
                write_delta(&mut w, 2); // rank 2
                w.push_bit(false);
                write_delta(&mut w, 1); // node 0
                w.push_bit(false);
                write_delta(&mut w, 100_000_000 + 1); // node 10⁸
                write_delta(&mut w, 1); // label 0
                write_delta(&mut w, 1); // no isolated nodes
            } else {
                write_delta(&mut w, 2); // one isolated node
                write_delta(&mut w, 100_000_000 + 1);
                w.push_bit(false);
            }
            let (bytes, len) = w.finish();
            let err = decode_rule(&mut BitReader::new(&bytes, len)).unwrap_err();
            assert!(err.to_string().contains("rule node id 100000000"), "{err}");
        }
    }

    #[test]
    fn corrupt_rule_rejected() {
        // An edge attaching node 0 twice.
        let mut w = BitWriter::new();
        write_delta(&mut w, 2); // 1 edge
        w.push_bit(false); // terminal
        write_delta(&mut w, 2); // rank 2
        w.push_bit(false);
        write_delta(&mut w, 1); // node 0
        w.push_bit(false);
        write_delta(&mut w, 1); // node 0 again
        write_delta(&mut w, 1); // label 0
        write_delta(&mut w, 1); // no isolated nodes
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert!(decode_rule(&mut r).is_err());
    }
}
