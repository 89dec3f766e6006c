//! Digrams (Def. 2) and their occurrences (Def. 3).
//!
//! A digram is a 2-edge hypergraph where every node touches an edge and at
//! least one node touches both. An occurrence of digram `d` in `g` is an
//! edge pair inducing a subgraph isomorphic to `d` whose nodes marked
//! external in `d` are exactly those with *other* incident edges in `g`
//! (condition (3) — this is what distinguishes the two grammars of Fig. 4).
//!
//! We canonicalize an edge pair into a [`DigramSig`]: order the two edges so
//! the signature is lexicographically minimal, list their attachment nodes
//! in first-appearance order ("canonical nodes"), and record the second
//! edge's attachment pattern plus the external-flag bitmask. Two edge pairs
//! are occurrences of the same digram iff their signatures are equal; this
//! covers all eight unlabeled-undirected shapes of Fig. 2 and their
//! directed/labeled/hyperedge generalizations.
//!
//! Everything here lives on the stack: a signature is a `Copy` value, and
//! [`pair_rank`] answers the question most candidate pairs die on — "is the
//! rank within bounds?" — without canonicalizing anything.

use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

/// Most canonical nodes a digram can have: one bit each in
/// [`DigramSig::ext_mask`]. Edge pairs spanning more are not digrams here
/// ([`resolve`] answers `None`), so they are never replaced.
pub const MAX_NODES: usize = 32;

/// Canonical digram signature.
///
/// The derived order is the one the compressor's orientation choice and
/// tie-breaks rest on: labels, first rank, then the second edge's attachment
/// pattern **as a sequence** (a proper prefix sorts first), then the mask.
/// `att_b` is zero-padded, so comparing the padded array and then the
/// length is exactly that sequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DigramSig {
    /// Label of the canonically-first edge.
    pub label_a: EdgeLabel,
    /// Label of the canonically-second edge.
    pub label_b: EdgeLabel,
    /// Rank of the first edge (its attachments are canonical nodes `0..rank_a`).
    pub rank_a: u8,
    /// Canonical node indices of the second edge's attachments, zero-padded
    /// behind `rank_b` entries.
    att_b: [u8; MAX_NODES],
    /// Rank of the second edge.
    rank_b: u8,
    /// Bit `i` set ⇔ canonical node `i` is external (has other edges in the
    /// host graph, or is an external node of the host graph itself).
    pub ext_mask: u32,
}

impl DigramSig {
    /// Canonical node indices of the second edge's attachments.
    pub fn att_b(&self) -> &[u8] {
        &self.att_b[..self.rank_b as usize]
    }

    /// Number of canonical nodes.
    pub fn num_nodes(&self) -> usize {
        let max_b = self.att_b().iter().copied().max().map_or(0, |m| m as usize + 1);
        (self.rank_a as usize).max(max_b)
    }

    /// `rank(d)`: the number of external nodes — the rank of the nonterminal
    /// a replacement introduces. Bounded by the compressor's `maxRank`.
    pub fn rank(&self) -> usize {
        self.ext_mask.count_ones() as usize
    }

    /// Canonical indices of the external nodes, ascending (this fixes the
    /// attachment order of replacement edges and the rule's `ext` sequence).
    pub fn external_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_nodes()).filter(|&i| self.ext_mask >> i & 1 == 1)
    }

    /// Canonical indices of the internal (removal) nodes, ascending.
    pub fn internal_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_nodes()).filter(|&i| self.ext_mask >> i & 1 == 0)
    }

    /// Build the rule right-hand side this digram induces: canonical nodes,
    /// the two edges (first edge on nodes `0..rank_a`, second per `att_b`),
    /// external nodes per `ext_mask` in canonical order.
    pub fn to_rhs(&self) -> Hypergraph {
        let n = self.num_nodes();
        let mut rhs = Hypergraph::with_nodes(n);
        let att_a: Vec<NodeId> = (0..self.rank_a as NodeId).collect();
        rhs.add_edge(self.label_a, &att_a);
        let att_b: Vec<NodeId> = self.att_b().iter().map(|&i| i as NodeId).collect();
        rhs.add_edge(self.label_b, &att_b);
        rhs.set_ext(self.external_indices().map(|i| i as NodeId).collect());
        rhs
    }
}

/// An edge pair resolved against a host graph: the signature plus the
/// canonical-index → actual-node correspondence.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedDigram {
    /// The canonical signature.
    pub sig: DigramSig,
    /// The two edges in canonical order.
    pub edges: [EdgeId; 2],
    /// `nodes[i]` = host node playing canonical node `i` (first
    /// `sig.num_nodes()` entries).
    nodes: [NodeId; MAX_NODES],
}

impl ResolvedDigram {
    /// `nodes()[i]` = host node playing canonical node `i`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes[..self.sig.num_nodes()]
    }

    /// Host nodes the replacement nonterminal edge attaches to, in order.
    pub fn attachment_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sig.external_indices().map(|i| self.nodes[i])
    }

    /// Host nodes deleted by the replacement, in canonical order.
    pub fn removal_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sig.internal_indices().map(|i| self.nodes[i])
    }
}

/// Is `v` external to the pair `{a, b}` — does it carry an edge other than
/// those two, or is it an external node of the host itself?
fn is_external_to(g: &Hypergraph, v: NodeId, att_a: &[NodeId], att_b: &[NodeId]) -> bool {
    let within = att_a.contains(&v) as usize + att_b.contains(&v) as usize;
    g.degree(v) > within || g.is_external(v)
}

/// `rank` of the digram the pair `{e, f}` would resolve to: the number of
/// nodes of `att(e) ∪ att(f)` external to the pair. Orientation-independent
/// and allocation-free, so the rank bounds (§III-B2) can reject a candidate
/// pair before any canonicalization.
pub fn pair_rank(g: &Hypergraph, e: EdgeId, f: EdgeId) -> usize {
    let (att_e, att_f) = (g.att(e), g.att(f));
    let on_e = att_e.iter().filter(|&&v| is_external_to(g, v, att_e, att_f)).count();
    let only_f = att_f
        .iter()
        .filter(|&&v| !att_e.contains(&v) && is_external_to(g, v, att_e, att_f))
        .count();
    on_e + only_f
}

/// Signature of `(a, b)` in that orientation, or `None` if the edges share
/// no node (or span more than [`MAX_NODES`]).
fn oriented(g: &Hypergraph, a: EdgeId, b: EdgeId) -> Option<ResolvedDigram> {
    let att_a = g.att(a);
    let att_b = g.att(b);
    if att_a.len() > MAX_NODES || att_b.len() > MAX_NODES {
        return None;
    }
    let mut nodes = [0 as NodeId; MAX_NODES];
    nodes[..att_a.len()].copy_from_slice(att_a);
    let mut num_nodes = att_a.len();
    let mut att_b_idx = [0u8; MAX_NODES];
    let mut shares = false;
    for (slot, &u) in att_b_idx.iter_mut().zip(att_b) {
        match nodes[..num_nodes].iter().position(|&x| x == u) {
            Some(i) => {
                shares |= i < att_a.len();
                *slot = i as u8;
            }
            None => {
                if num_nodes == MAX_NODES {
                    return None;
                }
                nodes[num_nodes] = u;
                *slot = num_nodes as u8;
                num_nodes += 1;
            }
        }
    }
    if !shares {
        return None;
    }
    let mut ext_mask = 0u32;
    for (i, &v) in nodes[..num_nodes].iter().enumerate() {
        if is_external_to(g, v, att_a, att_b) {
            ext_mask |= 1 << i;
        }
    }
    let sig = DigramSig {
        label_a: g.label(a),
        label_b: g.label(b),
        rank_a: att_a.len() as u8,
        att_b: att_b_idx,
        rank_b: att_b.len() as u8,
        ext_mask,
    };
    Some(ResolvedDigram { sig, edges: [a, b], nodes })
}

/// Canonicalize the unordered pair `{e, f}` against `g`: of the two
/// orientations keep the lexicographically smaller signature (`(e, f)` on a
/// tie). Returns `None` if the edges don't share a node (not a digram) or
/// are the same edge.
pub fn resolve(g: &Hypergraph, e: EdgeId, f: EdgeId) -> Option<ResolvedDigram> {
    if e == f {
        return None;
    }
    // The labels lead the order, so unless they tie only one orientation
    // can win and the other is never built.
    match g.label(e).cmp(&g.label(f)) {
        std::cmp::Ordering::Less => oriented(g, e, f),
        std::cmp::Ordering::Greater => oriented(g, f, e),
        std::cmp::Ordering::Equal => {
            let ef = oriented(g, e, f)?;
            let fe = oriented(g, f, e)?;
            Some(if ef.sig <= fe.sig { ef } else { fe })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::Terminal as T;

    fn graph(n: usize, edges: &[(u32, u32, u32)]) -> Hypergraph {
        let mut g = Hypergraph::with_nodes(n);
        for &(s, l, t) in edges {
            g.add_edge(T(l), &[s, t]);
        }
        g
    }

    #[test]
    fn chain_digram() {
        // 0 -a-> 1 -b-> 2, nothing else: only ends external? No — no other
        // edges at all, so NO node is external.
        let g = graph(3, &[(0, 0, 1), (1, 1, 2)]);
        let d = resolve(&g, 0, 1).unwrap();
        assert_eq!(d.sig.label_a, T(0));
        assert_eq!(d.sig.label_b, T(1));
        assert_eq!(d.sig.att_b(), [1, 2]);
        assert_eq!(d.sig.ext_mask, 0);
        assert_eq!(d.sig.num_nodes(), 3);
        assert_eq!(d.sig.rank(), 0);
    }

    #[test]
    fn chain_with_context_marks_ends_external() {
        // context edges at 0 and 2 make them external; middle stays internal.
        let g = graph(5, &[(0, 0, 1), (1, 1, 2), (3, 2, 0), (2, 2, 4)]);
        let d = resolve(&g, 0, 1).unwrap();
        assert_eq!(d.sig.ext_mask, 0b101);
        assert_eq!(d.sig.rank(), 2);
        assert_eq!(d.removal_nodes().collect::<Vec<_>>(), vec![1]);
        assert_eq!(d.attachment_nodes().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn fig1c_center_becomes_external() {
        // Fig. 1c: the a·b digram whose center also carries c-edges — the
        // extra edges prohibit the center node's removal, so it is external
        // (while the chain's end nodes, having no other edges here, are not).
        let g = graph(
            4,
            &[(0, 0, 1), (1, 1, 2), (1, 2, 3), (3, 2, 1)],
        );
        let d = resolve(&g, 0, 1).unwrap();
        assert_eq!(d.sig.ext_mask, 0b010);
        assert_eq!(d.sig.rank(), 1);
        assert_eq!(d.removal_nodes().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.attachment_nodes().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn orientation_is_canonical() {
        let g = graph(3, &[(0, 0, 1), (1, 1, 2)]);
        let d1 = resolve(&g, 0, 1).unwrap();
        let d2 = resolve(&g, 1, 0).unwrap();
        assert_eq!(d1.sig, d2.sig);
        assert_eq!(d1.edges, d2.edges);
    }

    #[test]
    fn directed_shapes_are_distinct() {
        // The directed analogues of Fig. 2's shapes around a shared node
        // must all produce distinct signatures.
        let shapes: Vec<Hypergraph> = vec![
            graph(3, &[(0, 0, 1), (1, 0, 2)]), // chain through 1
            graph(3, &[(1, 0, 0), (1, 0, 2)]), // fork from 1
            graph(3, &[(0, 0, 1), (2, 0, 1)]), // co-fork into 1
            graph(2, &[(0, 0, 1), (1, 1, 0)]), // 2-cycle (labels differ)
            graph(2, &[(0, 0, 1), (0, 1, 1)]), // parallel
        ];
        let sigs: Vec<DigramSig> = shapes
            .iter()
            .map(|g| resolve(g, 0, 1).unwrap().sig)
            .collect();
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                assert_ne!(sigs[i], sigs[j], "shapes {i} and {j} collide");
            }
        }
    }

    #[test]
    fn same_shape_same_sig_across_instances() {
        // Two disjoint copies of a chain with context: identical signatures.
        let g = graph(
            8,
            &[
                (0, 0, 1),
                (1, 1, 2),
                (2, 0, 3), // context at 2... also makes 2 external
                (4, 0, 5),
                (5, 1, 6),
                (6, 0, 7),
            ],
        );
        let d1 = resolve(&g, 0, 1).unwrap();
        let d2 = resolve(&g, 3, 4).unwrap();
        assert_eq!(d1.sig, d2.sig);
        assert_ne!(d1.nodes(), d2.nodes());
    }

    #[test]
    fn non_adjacent_edges_are_not_digrams() {
        let g = graph(4, &[(0, 0, 1), (2, 0, 3)]);
        assert!(resolve(&g, 0, 1).is_none());
        assert!(resolve(&g, 0, 0).is_none());
    }

    #[test]
    fn hyperedge_digram() {
        let mut g = Hypergraph::with_nodes(4);
        g.add_edge(EdgeLabel::Nonterminal(0), &[0, 1, 2]);
        g.add_edge(T(0), &[2, 3]);
        g.add_edge(T(1), &[3, 0]); // context making 3 and 0 external
        let d = resolve(&g, 0, 1).unwrap();
        // Canonical orientation puts the terminal edge first (terminals sort
        // below nonterminals): a = T0(2,3), b = N0(0,1,2). Canonical nodes
        // are [2, 3, 0, 1].
        assert_eq!(d.sig.label_a, T(0));
        assert_eq!(d.sig.rank_a, 2);
        assert_eq!(d.sig.att_b(), [2, 3, 0]);
        // node 2: both digram edges only → internal; node 3: context edge →
        // external; node 0: context edge → external; node 1: internal.
        assert_eq!(d.sig.ext_mask, 0b0110);
        assert_eq!(d.sig.rank(), 2);
    }

    #[test]
    fn host_external_nodes_count_as_external() {
        let mut g = graph(3, &[(0, 0, 1), (1, 1, 2)]);
        g.set_ext(vec![1]);
        let d = resolve(&g, 0, 1).unwrap();
        assert_eq!(d.sig.ext_mask, 0b010);
    }

    #[test]
    fn to_rhs_reconstructs_the_digram() {
        let g = graph(5, &[(0, 0, 1), (1, 1, 2), (3, 2, 0), (2, 2, 4)]);
        let d = resolve(&g, 0, 1).unwrap();
        let rhs = d.sig.to_rhs();
        assert_eq!(rhs.num_nodes(), 3);
        assert_eq!(rhs.num_edges(), 2);
        assert_eq!(rhs.rank(), 2);
        rhs.validate().unwrap();
        // The rhs's own digram signature must equal the original — round trip
        // through the canonical form (rhs has no context, so externals come
        // from the rhs ext list).
        let d2 = resolve(&rhs, 0, 1).unwrap();
        assert_eq!(d2.sig, d.sig);
    }

    #[test]
    fn parallel_edges_share_two_nodes() {
        let g = graph(2, &[(0, 0, 1), (0, 1, 1)]);
        let d = resolve(&g, 0, 1).unwrap();
        assert_eq!(d.sig.num_nodes(), 2);
        assert_eq!(d.sig.att_b(), [0, 1]);
        assert_eq!(d.sig.rank(), 0);
    }

    /// The signature as it was before `att_b` moved inline: the derived
    /// order over a `Vec` is the reference the new derived order (padded
    /// array, then length) must reproduce.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct VecSig {
        label_a: EdgeLabel,
        label_b: EdgeLabel,
        rank_a: u8,
        att_b: Vec<u8>,
        ext_mask: u32,
    }

    impl From<&DigramSig> for VecSig {
        fn from(s: &DigramSig) -> Self {
            VecSig {
                label_a: s.label_a,
                label_b: s.label_b,
                rank_a: s.rank_a,
                att_b: s.att_b().to_vec(),
                ext_mask: s.ext_mask,
            }
        }
    }

    /// A small random hypergraph: edges of rank 1–4, two terminal and two
    /// nonterminal labels, some host-external nodes.
    fn random_hypergraph(seed: u64) -> Hypergraph {
        let mut x = seed | 1;
        let mut rnd = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n) as u32
        };
        let n = 4 + rnd(6);
        let mut g = Hypergraph::with_nodes(n as usize);
        for _ in 0..(3 + rnd(12)) {
            let mut att: Vec<u32> = Vec::new();
            for _ in 0..(1 + rnd(4)) {
                let v = rnd(n as u64);
                if !att.contains(&v) {
                    att.push(v);
                }
            }
            let label = match rnd(4) {
                0 => T(0),
                1 => T(1),
                k => EdgeLabel::Nonterminal(k - 2),
            };
            g.add_edge(label, &att);
        }
        g.set_ext((0..n).filter(|_| rnd(5) == 0).collect());
        g
    }

    #[test]
    fn inline_signature_order_agrees_with_the_vec_order() {
        let mut sigs: Vec<DigramSig> = Vec::new();
        for seed in 1..=60u64 {
            let g = random_hypergraph(seed * 7919);
            let edges: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
            for &e in &edges {
                for &f in &edges {
                    // Both orientations, not only the canonical one: the
                    // orientation choice is the comparison under test.
                    sigs.extend(oriented(&g, e, f).filter(|_| e != f).map(|d| d.sig));
                }
            }
        }
        assert!(sigs.len() > 1_000, "only {} signatures", sigs.len());
        // A prefix pair the random shapes may miss: [1] against [1, 0].
        let short = DigramSig {
            label_a: T(0),
            label_b: T(0),
            rank_a: 2,
            att_b: { let mut a = [0u8; MAX_NODES]; a[0] = 1; a },
            rank_b: 1,
            ext_mask: 1,
        };
        sigs.push(short);
        sigs.push(DigramSig { rank_b: 2, ..short });
        let step = sigs.len() / 400 + 1;
        for a in sigs.iter().step_by(step) {
            for b in &sigs {
                assert_eq!(a.cmp(b), VecSig::from(a).cmp(&VecSig::from(b)), "{a:?} vs {b:?}");
                assert_eq!(a == b, VecSig::from(a) == VecSig::from(b));
            }
        }
    }

    #[test]
    fn oversized_pairs_are_not_digrams() {
        // 20 + 20 attachments sharing one node span 39 canonical nodes.
        let mut g = Hypergraph::with_nodes(39);
        let a: Vec<u32> = (0..20).collect();
        let b: Vec<u32> = (19..39).collect();
        g.add_edge(T(0), &a);
        g.add_edge(T(1), &b);
        assert!(resolve(&g, 0, 1).is_none());
    }

    proptest::proptest! {
        #[test]
        fn pair_rank_is_the_resolved_rank(seed in 1u64..u64::MAX) {
            let g = random_hypergraph(seed);
            let edges: Vec<EdgeId> = g.edges().map(|e| e.id).collect();
            for &e in &edges {
                for &f in &edges {
                    if let Some(d) = resolve(&g, e, f) {
                        proptest::prop_assert_eq!(pair_rank(&g, e, f), d.sig.rank());
                        proptest::prop_assert_eq!(pair_rank(&g, f, e), d.sig.rank());
                    }
                }
            }
        }
    }
}
