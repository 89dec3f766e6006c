//! Start-graph sections: one k²-tree per label.

use crate::perm::{apply_perm, perm_of, PermDict};
use crate::CodecError;
use grepair_bits::codes::{read_delta, write_delta};
use grepair_bits::{BitReader, BitWriter};
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use grepair_k2tree::K2Tree;

/// The paper uses k = 2 ("as this provides the best compression").
const K: u32 = 2;

/// How one label's subgraph is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelMode {
    /// Rank-2, duplicate-free: adjacency matrix.
    Adjacency,
    /// Anything else: node × edge incidence matrix plus permutations.
    Incidence,
}

/// Encoding plan for one label appearing in S.
#[derive(Debug)]
pub struct LabelPlan {
    /// The label.
    pub label: EdgeLabel,
    /// Chosen representation.
    pub mode: LabelMode,
    /// Edges of this label, sorted by dense-node attachment.
    pub edges: Vec<Vec<NodeId>>,
}

/// Dense-node renumbering of the start graph: alive nodes ascending ↦ 0..m.
pub fn dense_map(start: &Hypergraph) -> (Vec<NodeId>, usize) {
    let mut map = vec![NodeId::MAX; start.node_bound()];
    let mut next = 0;
    for v in start.node_ids() {
        #[expect(
            clippy::indexing_slicing,
            reason = "node_ids() yields v < node_bound == map.len()"
        )]
        {
            map[v as usize] = next;
        }
        next += 1;
    }
    (map, next as usize)
}

/// Analyze S: group edges by label in canonical order, pick modes, intern
/// permutations for incidence labels. Labels are emitted terminals-first,
/// ascending — the order the decoder reads sections in. S is sorted by
/// (label, attachment) here, whatever order its edges come in: the
/// compressor's `canonicalize_start_edges` already hands it over in that
/// order (the sort is then the identity), but any valid grammar may reach
/// [`crate::encode`]. `dense` is monotone, so the order is the same before
/// and after renumbering.
pub fn plan_labels(start: &Hypergraph, dense: &[NodeId], dict: &mut PermDict) -> Vec<LabelPlan> {
    let key = |e: EdgeId| (start.label(e), start.att(e));
    let mut order: Vec<EdgeId> = Vec::with_capacity(start.num_edges());
    order.extend(start.edges().map(|e| e.id));
    order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
    let mut plans: Vec<LabelPlan> = Vec::new();
    for e in order {
        let label = start.label(e);
        #[expect(
            clippy::indexing_slicing,
            reason = "edge attachments are alive nodes < node_bound == dense.len()"
        )]
        let att: Vec<NodeId> = start.att(e).iter().map(|&v| dense[v as usize]).collect();
        assert!(!att.is_empty(), "rank-0 edges are not encodable");
        match plans.last_mut() {
            Some(plan) if plan.label == label => plan.edges.push(att),
            _ => plans.push(LabelPlan { label, mode: LabelMode::Adjacency, edges: vec![att] }),
        }
    }
    for plan in &mut plans {
        let all_rank2 = plan.edges.iter().all(|a| a.len() == 2);
        // Edges were sorted by attachment above, so duplicates are
        // adjacent.
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields exactly two elements"
        )]
        let has_dupes = plan.edges.windows(2).any(|w| w[0] == w[1]);
        plan.mode = if all_rank2 && !has_dupes {
            LabelMode::Adjacency
        } else {
            LabelMode::Incidence
        };
        if plan.mode == LabelMode::Incidence {
            for att in &plan.edges {
                dict.intern(perm_of(att));
            }
        }
    }
    plans
}

/// Encode one label section. Returns (matrix bits, permutation bits).
pub fn encode_label(
    w: &mut BitWriter,
    plan: &LabelPlan,
    m: usize,
    dict: &PermDict,
) -> (u64, u64) {
    let before = w.bit_len();
    match plan.mode {
        LabelMode::Adjacency => {
            w.push_bit(false);
            #[expect(
                clippy::indexing_slicing,
                reason = "Adjacency mode is only picked when every att has rank 2"
            )]
            let points: Vec<(u32, u32)> =
                plan.edges.iter().map(|att| (att[0], att[1])).collect();
            let tree = K2Tree::build(K, m as u32, m as u32, points);
            tree.encode(w);
            (w.bit_len() - before, 0)
        }
        LabelMode::Incidence => {
            w.push_bit(true);
            write_delta(w, plan.edges.len() as u64 + 1);
            let mut points = Vec::new();
            for (col, att) in plan.edges.iter().enumerate() {
                for &v in att {
                    points.push((v, col as u32));
                }
            }
            let tree = K2Tree::build(K, m as u32, plan.edges.len().max(1) as u32, points);
            tree.encode(w);
            let matrix_bits = w.bit_len() - before;
            let perm_start = w.bit_len();
            for att in &plan.edges {
                let perm = perm_of(att);
                #[expect(
                    clippy::expect_used,
                    reason = "planning interned every incidence permutation just above"
                )]
                let idx = dict
                    .index_of(&perm)
                    .expect("permutation interned during planning");
                dict.encode_index(w, idx);
            }
            (matrix_bits, w.bit_len() - perm_start)
        }
    }
}

/// Decode one label section, appending its edges to `start`.
pub fn decode_label(
    r: &mut BitReader<'_>,
    start: &mut Hypergraph,
    label: EdgeLabel,
    dict: &PermDict,
) -> Result<(), CodecError> {
    // Every node id decoded below comes from an untrusted k²-tree whose
    // dimensions a corrupt stream controls; anything outside the start
    // graph's node range must be rejected here, before `add_edge` indexes
    // with it (the §2 zero-panic policy).
    let bound = start.node_bound() as u32;
    let in_range = |v: u32| -> Result<u32, CodecError> {
        if v >= bound {
            return Err(CodecError::Malformed(format!(
                "edge attachment {v} outside the start graph's {bound} nodes"
            )));
        }
        Ok(v)
    };
    let incidence = r.read_bit()?;
    if !incidence {
        let tree = K2Tree::decode(r)?;
        for (row, col) in tree.iter_ones() {
            if row == col {
                return Err(CodecError::Malformed("self-loop in adjacency matrix".into()));
            }
            start.add_edge(label, &[in_range(row)?, in_range(col)?]);
        }
    } else {
        let edge_count = (read_delta(r)? - 1) as usize;
        let tree = K2Tree::decode(r)?;
        // The edge count is untrusted: it must match the incidence
        // matrix's own geometry (the encoder sets cols = edges.max(1)),
        // and it must be describable by the stream — every edge either
        // attaches somewhere (≥ 1 one-cell) or still costs permutation
        // bits. Without these bounds a ~70-bit payload could claim 2^60
        // edges and drive the allocation and the column loop below.
        if tree.cols() as usize != edge_count.max(1) {
            return Err(CodecError::Malformed(format!(
                "incidence matrix has {} columns for {} edges",
                tree.cols(),
                edge_count
            )));
        }
        if edge_count as u64 > tree.count_ones() as u64 + r.remaining() + 1 {
            return Err(CodecError::Malformed(format!(
                "edge count {edge_count} exceeds what the stream can describe"
            )));
        }
        // One pass over the tree, its cells bucketed by column (edge): the
        // cells come sorted by row, so every bucket is the edge's attached
        // nodes ascending — the sorted attachment its permutation indexes.
        // A column at or past `edge_count` (only the empty matrix's one
        // column) belongs to no edge.
        let cells: Vec<(u32, u32)> =
            tree.iter_ones().filter(|&(_, col)| (col as usize) < edge_count).collect();
        let mut bounds = vec![0usize; edge_count + 1];
        #[expect(
            clippy::indexing_slicing,
            reason = "col < edge_count (filtered above) and bounds has edge_count + 1 slots"
        )]
        for &(_, col) in &cells {
            bounds[col as usize + 1] += 1;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "e + 1 <= edge_count < bounds.len()"
        )]
        for e in 0..edge_count {
            bounds[e + 1] += bounds[e];
        }
        let mut rows = vec![0 as NodeId; cells.len()];
        let mut next = bounds.clone();
        for &(row, col) in &cells {
            #[expect(
                clippy::indexing_slicing,
                reason = "next[col] stays below bounds[col + 1] <= cells.len() == rows.len()"
            )]
            {
                rows[next[col as usize]] = row;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "col < edge_count < next.len() (filtered above)"
            )]
            {
                next[col as usize] += 1;
            }
        }
        // Range-check in column order, so the first bad node reported is
        // the first one of the first edge that has one.
        for &v in &rows {
            in_range(v)?;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields exactly two elements"
        )]
        for sorted_att in bounds.windows(2).map(|w| &rows[w[0]..w[1]]) {
            let idx = dict.decode_index(r)?;
            // A fixed-width index can name up to 2^bits slots, more than the
            // dict holds — a corrupt stream picks one of the ghosts.
            let perm = dict.get(idx).ok_or_else(|| {
                CodecError::Malformed(format!("permutation index {idx} out of range"))
            })?;
            if perm.len() != sorted_att.len() {
                return Err(CodecError::Malformed(format!(
                    "permutation length {} does not match edge rank {}",
                    perm.len(),
                    sorted_att.len()
                )));
            }
            let att = apply_perm(sorted_att, perm);
            start.add_edge(label, &att);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    fn round_trip_start(start: &Hypergraph) -> Hypergraph {
        let (dense, m) = dense_map(start);
        let mut dict = PermDict::new();
        let plans = plan_labels(start, &dense, &mut dict);
        let mut w = BitWriter::new();
        dict.encode(&mut w);
        for plan in &plans {
            encode_label(&mut w, plan, m, &dict);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let dict2 = PermDict::decode(&mut r).unwrap();
        let mut out = Hypergraph::with_nodes(m);
        for plan in &plans {
            decode_label(&mut r, &mut out, plan.label, &dict2).unwrap();
        }
        assert_eq!(r.remaining(), 0);
        out
    }

    #[test]
    fn rank2_labels_round_trip() {
        let mut s = Hypergraph::with_nodes(6);
        s.add_edge(T(0), &[0, 1]);
        s.add_edge(T(0), &[1, 5]);
        s.add_edge(T(1), &[5, 0]);
        s.add_edge(N(0), &[2, 3]);
        let out = round_trip_start(&s);
        assert_eq!(out.edge_multiset(), s.edge_multiset());
    }

    #[test]
    fn hyperedges_round_trip_with_order() {
        let mut s = Hypergraph::with_nodes(5);
        s.add_edge(N(0), &[3, 0, 4]); // unsorted attachment order
        s.add_edge(N(0), &[2, 1, 0]);
        let out = round_trip_start(&s);
        assert_eq!(out.edge_multiset(), s.edge_multiset());
        // Attachment order (not just set) must survive.
        let atts: Vec<Vec<NodeId>> = out.edges().map(|e| e.att.to_vec()).collect();
        assert!(atts.contains(&vec![3, 0, 4]));
        assert!(atts.contains(&vec![2, 1, 0]));
    }

    #[test]
    fn duplicate_rank2_edges_use_incidence() {
        let mut s = Hypergraph::with_nodes(3);
        s.add_edge(N(0), &[0, 1]);
        s.add_edge(N(0), &[0, 1]); // duplicate NT edge — legal in grammars
        let (dense, _) = dense_map(&s);
        let mut dict = PermDict::new();
        let plans = plan_labels(&s, &dense, &mut dict);
        assert_eq!(plans[0].mode, LabelMode::Incidence);
        let out = round_trip_start(&s);
        assert_eq!(out.num_edges(), 2);
        assert_eq!(out.edge_multiset(), s.edge_multiset());
    }

    /// The start graph of `decode(encode(G))` for the rule-free grammar
    /// `G` over `start` — the public entry points, not the section helpers.
    fn round_trip_rule_free(start: &Hypergraph, labels: u32) -> Hypergraph {
        let grammar = grepair_grammar::Grammar::new(start.clone(), labels);
        assert_eq!(grammar.validate(), Ok(()));
        let enc = crate::encode(&grammar);
        crate::decode(&enc.bytes, enc.bit_len).unwrap().start
    }

    #[test]
    fn start_graphs_out_of_canonical_order_round_trip() {
        // Two-label paths in input order: every label run used to open its
        // own section, and the decoder found trailing bits.
        for n in [4u32, 5, 8, 20] {
            let (s, _) =
                Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, i % 2, i + 1)));
            assert_eq!(round_trip_rule_free(&s, 2).edge_multiset(), s.edge_multiset(), "{n}");
        }
        // Labels descending: used to decode with the two labels swapped.
        let mut s = Hypergraph::with_nodes(3);
        s.add_edge(T(1), &[1, 2]);
        s.add_edge(T(0), &[0, 1]);
        assert_eq!(round_trip_rule_free(&s, 2).edge_multiset(), s.edge_multiset());
        // A duplicate that is not adjacent: used to pick adjacency mode,
        // whose k²-tree dropped the copy.
        let mut s = Hypergraph::with_nodes(3);
        s.add_edge(T(0), &[0, 1]);
        s.add_edge(T(0), &[1, 2]);
        s.add_edge(T(0), &[0, 1]);
        let out = round_trip_rule_free(&s, 1);
        assert_eq!(out.num_edges(), 3);
        assert_eq!(out.edge_multiset(), s.edge_multiset());
    }

    #[test]
    fn shuffled_rule_free_grammars_round_trip() {
        // Seeded: random labels, ranks 2 and 3, duplicates, any edge order.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: u32| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % u64::from(bound)) as u32
        };
        for case in 0..300 {
            let (n, labels) = (3 + below(30), 1 + below(4));
            let mut s = Hypergraph::with_nodes(n as usize);
            for _ in 0..below(60) {
                let (a, b, c) = (below(n), below(n), below(n));
                let label = T(below(labels));
                match below(4) {
                    0 if a != b && b != c && a != c => s.add_edge(label, &[a, b, c]),
                    _ if a != b => s.add_edge(label, &[a, b]),
                    _ => continue,
                };
            }
            let out = round_trip_rule_free(&s, labels);
            assert_eq!(out.edge_multiset(), s.edge_multiset(), "case {case}");
        }
    }

    #[test]
    fn dead_node_slots_are_densified() {
        let mut s = Hypergraph::with_nodes(4);
        s.add_edge(T(0), &[0, 3]);
        // Node 1 and 2 are dead (removed during compression).
        s.remove_node(1);
        s.remove_node(2);
        let out = round_trip_start(&s);
        assert_eq!(out.num_nodes(), 2);
        assert_eq!(out.att(0), &[0, 1]); // dense renumbering 0↦0, 3↦1
    }
}
