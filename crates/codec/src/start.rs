//! Start-graph sections: one per label, each a k²-tree or an edge list.
//!
//! A section is stored in one of three modes, written as a prefix code:
//! `0` adjacency k²-tree, `1`·δ(count+1) incidence k²-tree, `1 1` edge
//! list. Every section has at least one edge, so δ(count+1) ≥ δ(2) starts
//! with a `0` and the list code `1 1` was never written by the k²-only
//! format: containers from before list sections existed decode unchanged.

use crate::perm::{apply_perm, perm_of, PermDict};
use crate::{room, CodecError};
use grepair_bits::codes::{ceil_log2, delta_len, read_delta, write_delta};
use grepair_bits::{BitReader, BitWriter};
use grepair_hypergraph::{EdgeBuffer, EdgeId, EdgeLabel, Hypergraph, NodeId};
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
    /// One rank, any duplicates: a gap-coded edge list.
    List,
}

/// The body a section is written with: the k²-tree is built once, while
/// planning prices it, and kept for the encode.
#[derive(Debug)]
enum Body {
    Adjacency(K2Tree),
    Incidence(K2Tree),
    /// The rank every edge of the label has.
    List(usize),
}

/// Encoding plan for one label appearing in S.
#[derive(Debug)]
pub struct LabelPlan {
    /// The label.
    pub label: EdgeLabel,
    /// Edges of this label, sorted by dense-node attachment.
    pub edges: Vec<Vec<NodeId>>,
    /// The section's size in the paper's k²-only format (§III-C2): mode
    /// bit, k²-tree, and for incidence its count and its permutation
    /// indices at the width of every incidence-eligible section's
    /// dictionary.
    pub k2_bits: u64,
    body: Body,
}

impl LabelPlan {
    /// Chosen representation.
    pub fn mode(&self) -> LabelMode {
        match self.body {
            Body::Adjacency(_) => LabelMode::Adjacency,
            Body::Incidence(_) => LabelMode::Incidence,
            Body::List(_) => LabelMode::List,
        }
    }
}

/// Encoding plan for all of S.
#[derive(Debug)]
pub struct StartPlan {
    /// One plan per label, in section order.
    pub labels: Vec<LabelPlan>,
    /// The permutations of the sections that stay incidence.
    pub(crate) dict: PermDict,
    /// Encoded size of the dictionary the k²-only format writes: the
    /// permutations of every incidence-eligible section.
    pub(crate) k2_dict_bits: u64,
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

/// Analyze S over its `m` dense nodes: group edges by label in canonical
/// order, price every section both as a k²-tree and as an edge list, keep
/// the strictly smaller, and intern the permutations of the sections that
/// stay incidence. Labels are emitted terminals-first, ascending — the
/// order the decoder reads sections in. S is sorted by (label, attachment)
/// here, whatever order its edges come in: the compressor's
/// `canonicalize_start_edges` already hands it over in that order (the
/// sort is then the identity), but any valid grammar may reach
/// [`crate::encode`]. `dense` is monotone, so the order is the same before
/// and after renumbering.
///
/// The k² side prices incidence indices at the width of the dictionary of
/// *every* incidence-eligible section. The dictionary that is written holds
/// only the sections that stay incidence, so its width can only be smaller
/// and no choice made here becomes wrong. A tie keeps the k²-tree, so a
/// grammar on which no list is smaller encodes exactly as the k²-only
/// format does.
pub fn plan_labels(start: &Hypergraph, dense: &[NodeId], m: usize) -> StartPlan {
    let key = |e: EdgeId| (start.label(e), start.att(e));
    let mut order: Vec<EdgeId> = Vec::with_capacity(start.num_edges());
    order.extend(start.edges().map(|e| e.id));
    order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
    let mut groups: Vec<(EdgeLabel, Vec<Vec<NodeId>>)> = Vec::new();
    for e in order {
        let label = start.label(e);
        #[expect(
            clippy::indexing_slicing,
            reason = "edge attachments are alive nodes < node_bound == dense.len()"
        )]
        let att: Vec<NodeId> = start.att(e).iter().map(|&v| dense[v as usize]).collect();
        assert!(!att.is_empty(), "rank-0 edges are not encodable");
        match groups.last_mut() {
            Some((last, edges)) if *last == label => edges.push(att),
            _ => groups.push((label, vec![att])),
        }
    }
    // The k²-only mode of each section, and the dictionary of every
    // incidence-eligible section that prices its indices.
    let adjacency: Vec<bool> = groups
        .iter()
        .map(|(_, edges)| {
            // Edges were sorted by attachment above, so duplicates are
            // adjacent.
            #[expect(
                clippy::indexing_slicing,
                reason = "windows(2) yields exactly two elements"
            )]
            let has_dupes = edges.windows(2).any(|w| w[0] == w[1]);
            edges.iter().all(|a| a.len() == 2) && !has_dupes
        })
        .collect();
    let mut k2_dict = PermDict::new();
    for ((_, edges), _) in groups.iter().zip(&adjacency).filter(|(_, &adj)| !adj) {
        for att in edges {
            k2_dict.intern(perm_of(att));
        }
    }
    let index_bits = u64::from(k2_dict.index_bits());
    #[expect(
        clippy::cast_possible_truncation,
        reason = "m is dense_map's count of S's nodes, whose ids are u32"
    )]
    let side = m as u32;
    let mut dict = PermDict::new();
    let labels = groups
        .into_iter()
        .zip(adjacency)
        .map(|((label, edges), adjacency)| {
            let (tree, k2_bits) = if adjacency {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "adjacency is only picked when every att has rank 2"
                )]
                let points: Vec<(u32, u32)> = edges.iter().map(|att| (att[0], att[1])).collect();
                let tree = K2Tree::build(K, side, side, points);
                let bits = 1 + tree.encoded_bits();
                (tree, bits)
            } else {
                let mut points = Vec::new();
                for (col, att) in (0..).zip(&edges) {
                    points.extend(att.iter().map(|&v| (v, col)));
                }
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a section holds at most S's edges, whose ids are u32"
                )]
                let cols = edges.len().max(1) as u32;
                let tree = K2Tree::build(K, side, cols, points);
                let count = edges.len() as u64;
                let bits = 1 + delta_len(count + 1) + tree.encoded_bits() + count * index_bits;
                (tree, bits)
            };
            let body = match list_bits(&edges, m) {
                Some((rank, bits)) if bits < k2_bits => Body::List(rank),
                _ if adjacency => Body::Adjacency(tree),
                _ => {
                    for att in &edges {
                        dict.intern(perm_of(att));
                    }
                    Body::Incidence(tree)
                }
            };
            LabelPlan { label, edges, k2_bits, body }
        })
        .collect();
    let mut w = BitWriter::new();
    k2_dict.encode(&mut w);
    StartPlan { labels, dict, k2_dict_bits: w.bit_len() }
}

/// One code word of a list section's body.
enum Code {
    /// Elias δ of a value ≥ 1.
    Delta(u64),
    /// A node id at the fixed width ⌈log₂ m⌉.
    Fixed(u64),
}

/// The code words of a list section after its mode and its δ(rank)
/// δ(count), in the order they are written. Rank 2: per edge the source
/// gap and the target gap, each + 1, the target gap restarting from 0 when
/// the source changes (a duplicate edge is a target gap of 0). Any other
/// rank: per edge the first node's gap + 1, then the other nodes at fixed
/// width. `edges` is sorted, so no gap is negative.
fn list_codes(edges: &[Vec<NodeId>], rank: usize, mut emit: impl FnMut(Code)) {
    let (mut prev_src, mut prev_dst) = (0u64, 0u64);
    for att in edges {
        let Some((&first, rest)) = att.split_first() else { continue };
        let first = u64::from(first);
        if first != prev_src {
            prev_dst = 0;
        }
        emit(Code::Delta(first - prev_src + 1));
        prev_src = first;
        match rest {
            [dst] if rank == 2 => {
                let dst = u64::from(*dst);
                emit(Code::Delta(dst - prev_dst + 1));
                prev_dst = dst;
            }
            _ => rest.iter().for_each(|&v| emit(Code::Fixed(u64::from(v)))),
        }
    }
}

/// `(rank, bits)` of the section as an edge list over `m` nodes, or `None`
/// if its edges have more than one rank.
fn list_bits(edges: &[Vec<NodeId>], m: usize) -> Option<(usize, u64)> {
    let rank = edges.first()?.len();
    if edges.iter().any(|att| att.len() != rank) {
        return None;
    }
    let width = u64::from(ceil_log2(m as u64));
    let mut bits = 2 + delta_len(rank as u64) + delta_len(edges.len() as u64);
    list_codes(edges, rank, |code| {
        bits += match code {
            Code::Delta(n) => delta_len(n),
            Code::Fixed(_) => width,
        }
    });
    Some((rank, bits))
}

/// Encode one label section. Returns (section bits, permutation bits).
pub fn encode_label(
    w: &mut BitWriter,
    plan: &LabelPlan,
    m: usize,
    dict: &PermDict,
) -> (u64, u64) {
    let before = w.bit_len();
    match &plan.body {
        Body::Adjacency(tree) => {
            w.push_bit(false);
            tree.encode(w);
            (w.bit_len() - before, 0)
        }
        Body::Incidence(tree) => {
            w.push_bit(true);
            write_delta(w, plan.edges.len() as u64 + 1);
            tree.encode(w);
            let matrix_bits = w.bit_len() - before;
            let perm_start = w.bit_len();
            for att in &plan.edges {
                let perm = perm_of(att);
                #[expect(
                    clippy::expect_used,
                    reason = "planning interned every incidence permutation"
                )]
                let idx = dict
                    .index_of(&perm)
                    .expect("permutation interned during planning");
                dict.encode_index(w, idx);
            }
            (matrix_bits, w.bit_len() - perm_start)
        }
        &Body::List(rank) => {
            w.push_bit(true);
            w.push_bit(true);
            write_delta(w, rank as u64);
            write_delta(w, plan.edges.len() as u64);
            let width = ceil_log2(m as u64);
            list_codes(&plan.edges, rank, |code| match code {
                Code::Delta(n) => write_delta(w, n),
                Code::Fixed(v) => w.push_bits(v, width),
            });
            (w.bit_len() - before, 0)
        }
    }
}

/// `v` as a node of a start graph with `bound` nodes. Every node id a
/// section decodes comes from untrusted bits; anything outside the start
/// graph's node range is rejected here, with the section's own message,
/// before [`Hypergraph::from_edges`] sees it (the §2 zero-panic policy).
fn in_range(v: u64, bound: u32) -> Result<NodeId, CodecError> {
    NodeId::try_from(v).ok().filter(|&v| v < bound).ok_or_else(|| {
        CodecError::Malformed(format!(
            "edge attachment {v} outside the start graph's {bound} nodes"
        ))
    })
}

/// Decode one label section of a start graph with `bound` nodes, appending
/// its edges to `edges`.
pub fn decode_label(
    r: &mut BitReader<'_>,
    edges: &mut EdgeBuffer,
    bound: u32,
    label: EdgeLabel,
    dict: &PermDict,
) -> Result<(), CodecError> {
    if !r.read_bit()? {
        let tree = K2Tree::decode(r)?;
        edges.reserve(tree.count_ones(), 2 * tree.count_ones());
        for (row, col) in tree.iter_ones() {
            if row == col {
                return Err(CodecError::Malformed("self-loop in adjacency matrix".into()));
            }
            edges.push(label, [in_range(row.into(), bound)?, in_range(col.into(), bound)?]);
        }
        return Ok(());
    }
    // `1 1` is a list; `1 0…` is the first bit of an incidence section's
    // δ(count + 1), which the peek leaves unread.
    if r.clone().read_bit()? {
        r.read_bit()?;
        return decode_list(r, edges, bound, label);
    }
    decode_incidence(r, edges, bound, label, dict)
}

/// Decode a list section's body (after its `1 1`): δ(rank), δ(count), then
/// the codes of [`list_codes`], straight into `edges` in written order.
fn decode_list(
    r: &mut BitReader<'_>,
    edges: &mut EdgeBuffer,
    bound: u32,
    label: EdgeLabel,
) -> Result<(), CodecError> {
    let rank = read_delta(r)?;
    // An attachment's nodes are distinct, and every node past the first
    // costs at least one bit: a rank beyond either is a lie, caught here
    // before the scratch attachment is sized by it.
    if rank > u64::from(bound) || rank > r.remaining() + 1 {
        return Err(CodecError::Malformed(format!(
            "list rank {rank} exceeds the start graph's {bound} nodes or the stream"
        )));
    }
    let count = read_delta(r)?;
    // Every edge costs at least one bit (its first gap).
    if count > r.remaining() {
        return Err(CodecError::Malformed(format!(
            "list count {count} exceeds the {} bits left",
            r.remaining()
        )));
    }
    let width = ceil_log2(u64::from(bound));
    let gap = |r: &mut BitReader<'_>, from: u64| -> Result<u64, CodecError> {
        from.checked_add(read_delta(r)? - 1)
            .ok_or_else(|| CodecError::Malformed("list gap overflows".into()))
    };
    let (mut prev_src, mut prev_dst) = (0u64, 0u64);
    let mut att: Vec<NodeId> = Vec::with_capacity(room(rank, r));
    edges.reserve(room(count, r), room(count.saturating_mul(rank), r));
    for _ in 0..count {
        let first = gap(r, prev_src)?;
        if first != prev_src {
            prev_dst = 0;
        }
        prev_src = first;
        att.clear();
        att.push(in_range(first, bound)?);
        if rank == 2 {
            prev_dst = gap(r, prev_dst)?;
            att.push(in_range(prev_dst, bound)?);
        } else {
            for _ in 1..rank {
                att.push(in_range(r.read_bits(width)?, bound)?);
            }
        }
        // A node repeated in `att` is rejected when the start graph is
        // built.
        edges.push(label, att.iter().copied());
    }
    Ok(())
}

/// Decode an incidence section's body (after its `1`).
fn decode_incidence(
    r: &mut BitReader<'_>,
    edges: &mut EdgeBuffer,
    bound: u32,
    label: EdgeLabel,
    dict: &PermDict,
) -> Result<(), CodecError> {
    let edge_count = usize::try_from(read_delta(r)? - 1)
        .map_err(|_| CodecError::Malformed("incidence edge count overflow".into()))?;
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
    edges.reserve(edge_count, cells.len());
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
        in_range(v.into(), bound)?;
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
        edges.push(label, apply_perm(sorted_att, perm));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    fn round_trip_start(start: &Hypergraph) -> Hypergraph {
        let (dense, m) = dense_map(start);
        let plan = plan_labels(start, &dense, m);
        let mut w = BitWriter::new();
        plan.dict.encode(&mut w);
        for label in &plan.labels {
            encode_label(&mut w, label, m, &plan.dict);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let dict2 = PermDict::decode(&mut r).unwrap();
        let mut edges = EdgeBuffer::new();
        for label in &plan.labels {
            let bound = u32::try_from(m).unwrap();
            decode_label(&mut r, &mut edges, bound, label.label, &dict2).unwrap();
        }
        assert_eq!(r.remaining(), 0);
        Hypergraph::from_edges(m, edges).unwrap()
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
    fn duplicate_rank2_edges_never_use_adjacency() {
        // A duplicate NT edge is legal in grammars; an adjacency matrix
        // would drop the copy. One rank: a list (the copy is a target gap
        // of 0). Mixed ranks, which no list holds: an incidence matrix.
        let mut one_rank = Hypergraph::with_nodes(3);
        one_rank.add_edge(N(0), &[0, 1]);
        one_rank.add_edge(N(0), &[0, 1]);
        let mut mixed = one_rank.clone();
        mixed.add_edge(N(0), &[2, 0, 1]);
        for (s, mode) in [(one_rank, LabelMode::List), (mixed, LabelMode::Incidence)] {
            let (map, m) = dense_map(&s);
            assert_eq!(plan_labels(&s, &map, m).labels[0].mode(), mode);
            let out = round_trip_start(&s);
            assert_eq!(out.num_edges(), s.num_edges());
            assert_eq!(out.edge_multiset(), s.edge_multiset());
        }
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
        // Seeded: random labels, ranks 1 to 3, duplicates, any edge order;
        // in half the cases a label has one rank (a list candidate), in the
        // other half its edges mix ranks (incidence only).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |bound: u32| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % u64::from(bound)) as u32
        };
        let mut seen = Vec::new();
        for case in 0..300 {
            let (n, labels, mixed) = (3 + below(30), 1 + below(4), below(2) == 0);
            let mut s = Hypergraph::with_nodes(n as usize);
            for _ in 0..below(60) {
                let (a, b, c) = (below(n), below(n), below(n));
                let t = below(labels);
                let rank = if mixed { 1 + below(3) } else { 1 + (t + 1) % 3 };
                match rank {
                    1 => s.add_edge(T(t), &[a]),
                    3 if a != b && b != c && a != c => s.add_edge(T(t), &[a, b, c]),
                    2 if a != b => s.add_edge(T(t), &[a, b]),
                    _ => continue,
                };
            }
            let (dense, m) = dense_map(&s);
            seen.extend(plan_labels(&s, &dense, m).labels.iter().map(LabelPlan::mode));
            let out = round_trip_rule_free(&s, labels);
            assert_eq!(out.edge_multiset(), s.edge_multiset(), "case {case}");
        }
        for mode in [LabelMode::Adjacency, LabelMode::Incidence, LabelMode::List] {
            assert!(seen.contains(&mode), "{mode:?} never chosen");
        }
    }

    /// `decode_label` over a list section — `1 1`, then what `body` writes —
    /// and the start graph built from its edges.
    fn decode_list_section(
        m: usize,
        body: impl FnOnce(&mut BitWriter),
    ) -> Result<Hypergraph, CodecError> {
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(true);
        body(&mut w);
        let (bytes, len) = w.finish();
        let mut edges = EdgeBuffer::new();
        let mut r = BitReader::new(&bytes, len);
        decode_label(&mut r, &mut edges, u32::try_from(m).unwrap(), T(0), &PermDict::new())?;
        Hypergraph::from_edges(m, edges).map_err(CodecError::Malformed)
    }

    /// A message naming `what`, not a panic and not an allocation.
    fn assert_malformed(got: Result<Hypergraph, CodecError>, what: &str) {
        match got {
            Err(CodecError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("want an error naming {what:?}, got {other:?}"),
        }
    }

    #[test]
    fn list_sections_decode_in_written_order() {
        // Rank 2 from (1, 2), (1, 2), (3, 0); rank 3 with ids at ⌈log₂ 5⌉ = 3 bits.
        let s = decode_list_section(5, |w| {
            for n in [2, 3, 2, 3, 1, 1, 3, 1] {
                write_delta(w, n);
            }
        })
        .unwrap();
        let atts: Vec<Vec<NodeId>> = s.edges().map(|e| e.att.to_vec()).collect();
        assert_eq!(atts, [vec![1, 2], vec![1, 2], vec![3, 0]]);
        let s = decode_list_section(5, |w| {
            write_delta(w, 3);
            write_delta(w, 1);
            write_delta(w, 3);
            w.push_bits(4, 3);
            w.push_bits(0, 3);
        })
        .unwrap();
        assert_eq!(s.att(0), &[2, 4, 0]);
    }

    #[test]
    fn hostile_list_sections_error() {
        // A count no stream of this length can describe: refused before
        // anything is sized by it.
        assert_malformed(
            decode_list_section(5, |w| {
                write_delta(w, 2);
                write_delta(w, 1 << 40);
                w.push_bits(0, 8);
            }),
            "list count",
        );
        // A fixed-width id ≥ m.
        assert_malformed(
            decode_list_section(5, |w| {
                write_delta(w, 3);
                write_delta(w, 1);
                write_delta(w, 1);
                w.push_bits(7, 3);
                w.push_bits(1, 3);
            }),
            "outside",
        );
        // A gap past u32, and one past u64 after a first edge at node 2.
        assert_malformed(
            decode_list_section(5, |w| {
                write_delta(w, 1);
                write_delta(w, 1);
                write_delta(w, (1 << 33) + 1);
            }),
            "outside",
        );
        assert_malformed(
            decode_list_section(5, |w| {
                write_delta(w, 1);
                write_delta(w, 2);
                write_delta(w, 3);
                write_delta(w, u64::MAX);
            }),
            "overflows",
        );
        // A rank-2 edge that attaches node 1 twice.
        assert_malformed(
            decode_list_section(5, |w| {
                for n in [2, 1, 2, 2] {
                    write_delta(w, n);
                }
            }),
            "twice",
        );
        // A rank beyond the start graph's nodes.
        assert_malformed(
            decode_list_section(5, |w| {
                write_delta(w, 6);
                write_delta(w, 1);
                w.push_bits(0, 32);
            }),
            "list rank",
        );
        // Rank 0: no δ-code is 0, so a zeroed rank field runs past the
        // γ length limit or the stream, and errors either way.
        for zeros in [8, 80] {
            let got = decode_list_section(5, |w| (0..zeros).for_each(|_| w.push_bit(false)));
            assert!(got.is_err(), "{zeros} zero bits");
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
