//! G-representations: addressing `val(G)` nodes inside the grammar.
//!
//! `val(G)`'s deterministic numbering (§II) assigns `0..m` to the start
//! graph's nodes and numbers the rest per nonterminal edge, depth-first.
//! A **G-representation** (§V) of node `k` is a path `e₀e₁…eₙ·v`: a
//! nonterminal edge of S, then nonterminal edges of successive right-hand
//! sides, ending at an internal node `v` of the last rule (or just `v` for a
//! start-graph node). [`GrammarIndex::locate`] computes it in
//! O(log ℓ + h) by binary-searching subtree-size prefix sums, and records
//! each level as the descent passes it: a [`Hop`] is the edge, its
//! nonterminal and its attachment, which is all reachability and RPQ read
//! to climb back up, so neither walks the path again.
//! [`GrammarIndex::global_id`] is the inverse `getID`, an independent walk
//! kept as the tests' reference.
//!
//! Because the numbering is depth-first, the nodes one occurrence of a
//! context graph creates are one contiguous id range, laid out the same way
//! wherever the occurrence sits: a node of a context has a [`Slot`] — its
//! offset inside that range, or the external position through which it
//! merges with the parent. [`GrammarIndex::try_resolve`] descends once and
//! keeps, instead of a path, the two things that turn slots into ids: the
//! occurrence's first id and the ids of its external nodes.
//!
//! The index is generic over *how it holds the grammar*: `GrammarIndex<&G>`
//! borrows (the natural choice for one-shot runs and tests), while
//! `GrammarIndex<Arc<Grammar>>` shares ownership so a long-lived store can
//! keep grammar and index together without self-referential lifetimes.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

use crate::error::QueryError;

/// A G-representation: the derivation path and the final node.
///
/// `hops` is empty for start-graph nodes; otherwise `hops[0]` is a
/// nonterminal edge of S and `hops[i]` a nonterminal edge of the rhs of
/// `hops[i-1].nt`. `node` is an *internal* node of the last rhs (or an
/// alive start node when there are no hops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GRepr<'a> {
    /// The descent from the start graph down, one hop per level.
    pub hops: Vec<Hop<'a>>,
    /// Final node (context-local ID).
    pub node: NodeId,
}

impl GRepr<'_> {
    /// The edge ids alone, the path form [`GrammarIndex::global_id`] takes.
    pub fn path(&self) -> Vec<EdgeId> {
        self.hops.iter().map(|hop| hop.edge).collect()
    }
}

/// One level of a G-representation: a nonterminal edge, its label and its
/// attachment in the context graph that hosts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop<'a> {
    /// The edge, in the host context.
    pub edge: EdgeId,
    /// The nonterminal labeling it: the next level's context is its rhs.
    pub nt: u32,
    /// Its attachment nodes, in the host context.
    pub att: &'a [NodeId],
}

/// Where a node of a context graph sits relative to one occurrence of that
/// context, the same for every occurrence.
///
/// Either an **offset**: the node is the `off`-th node the occurrence
/// creates (its internal nodes in id order, then each nonterminal edge's
/// subtree in edge-id order), so its global id is the occurrence's first id
/// plus `off`. Or a flagged **external position** `p`: the node is the
/// context's `p`-th external node, which is the `p`-th attachment node of
/// the edge the occurrence expands. One word, the flag in the top bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(u64);

impl Slot {
    const EXTERNAL: u64 = 1 << 63;

    /// The node `off` places into the occurrence's id range.
    pub fn at_offset(off: u64) -> Self {
        debug_assert!(off < Self::EXTERNAL, "offset {off} collides with the external flag");
        Slot(off)
    }

    /// The context's `pos`-th external node.
    pub fn at_external(pos: usize) -> Self {
        Slot(Self::EXTERNAL | pos as u64)
    }

    /// The offset, or the external position as `Err`.
    pub fn offset(self) -> Result<u64, usize> {
        match self.0 & Self::EXTERNAL {
            0 => Ok(self.0),
            _ => Err((self.0 & !Self::EXTERNAL) as usize),
        }
    }

    /// The global id at an occurrence whose range starts at `base` and
    /// whose external nodes have the ids `ext_ids`.
    pub fn resolve(self, base: u64, ext_ids: &[u64]) -> u64 {
        match self.offset() {
            Ok(off) => base + off,
            Err(pos) => ext_ids[pos],
        }
    }
}

/// Navigation data of one context graph: S, or one right-hand side.
#[derive(Debug)]
pub(crate) struct ContextIndex {
    /// Internal nodes in node-ID order (the creation order); for S, every
    /// alive node.
    internal_nodes: Vec<NodeId>,
    /// Context node → its slot (unused entries for dead node ids).
    slots: Vec<Slot>,
    /// One entry per edge id plus one: `offsets[e]` is where edge `e`'s
    /// subtree starts — the internal-node count plus the subtree sizes of
    /// the nonterminal edges of lower id — and the last entry is the total
    /// one occurrence creates. A terminal, dead or node-less edge's entry
    /// equals the next one.
    offsets: Vec<u64>,
}

impl ContextIndex {
    /// Index `graph` whose external nodes are `ext`, given the subtree size
    /// of every nonterminal.
    fn new(graph: &Hypergraph, ext: &[NodeId], sizes: &[u64]) -> Self {
        let mut slots = vec![Slot(u64::MAX); graph.node_bound()];
        for (pos, &x) in ext.iter().enumerate() {
            slots[x as usize] = Slot::at_external(pos);
        }
        let internal_nodes: Vec<NodeId> = graph.node_ids().filter(|v| !ext.contains(v)).collect();
        for (i, &v) in internal_nodes.iter().enumerate() {
            slots[v as usize] = Slot::at_offset(i as u64);
        }
        let mut offsets = Vec::with_capacity(graph.edge_bound() + 1);
        let mut size = internal_nodes.len() as u64;
        for e in graph.edges() {
            offsets.resize(e.id as usize + 1, size);
            if let EdgeLabel::Nonterminal(child) = e.label {
                size += sizes[child as usize];
            }
        }
        offsets.resize(graph.edge_bound() + 1, size);
        Self { internal_nodes, slots, offsets }
    }

    /// The slot of context node `x`.
    pub(crate) fn slot(&self, x: NodeId) -> Slot {
        self.slots[x as usize]
    }

    /// The offset at which nonterminal edge `e`'s subtree starts.
    pub(crate) fn edge_offset(&self, e: EdgeId) -> u64 {
        self.offsets[e as usize]
    }

    /// Total nodes one occurrence creates.
    fn size(&self) -> u64 {
        self.offsets[self.offsets.len() - 1]
    }
}

/// A node located for row walks: the context graph that creates it, and
/// what that context's slots are as global ids at this occurrence — its
/// first id and the ids of its external nodes. No derivation path.
#[derive(Debug)]
pub struct Located<'a, G: Borrow<Grammar>> {
    /// The index whose expansions the row walk reads.
    pub(crate) index: &'a GrammarIndex<G>,
    pub(crate) graph: &'a Hypergraph,
    pub(crate) ctx: &'a ContextIndex,
    /// The node, internal to `graph` (or a start node).
    pub(crate) node: NodeId,
    /// Global id of the occurrence's offset 0 (0 in S).
    pub(crate) base: u64,
    /// Global ids of the context's external nodes (empty in S).
    pub(crate) ext_ids: Vec<u64>,
}

/// Navigation index over a grammar.
#[derive(Debug)]
pub struct GrammarIndex<G: Borrow<Grammar>> {
    grammar: G,
    /// |V_S| (alive start nodes) — global IDs `0..m` are start nodes.
    pub m: usize,
    /// S, whose every alive node is "internal": its slots are global ids.
    start: ContextIndex,
    /// Per-nonterminal navigation data.
    pub(crate) rules: Vec<ContextIndex>,
    /// Total node count of `val(G)`.
    pub total_nodes: u64,
    /// The grammar's height: the most hops a G-representation has.
    height: usize,
    /// Slot-form rule expansions ([`GrammarIndex::expand`]). The row walk
    /// only ever expands (nonterminal, external position, direction)
    /// triples, a finite set known at build: one cell each, at
    /// `cell_base[nt] + 2·pos + dir`, filled on first use and borrowed ever
    /// after.
    pub(crate) expansions: Vec<OnceLock<Vec<(u32, Slot)>>>,
    /// First cell of each nonterminal, plus the table length as a final
    /// entry (so `cell_base[nt]..cell_base[nt + 1]` are `nt`'s cells).
    pub(crate) cell_base: Vec<usize>,
    /// Expansion lookups that found their cell filled / had to fill it.
    /// Relaxed atomics: exact totals, no lock.
    pub(crate) expansion_hits: AtomicU64,
    pub(crate) expansion_misses: AtomicU64,
}

impl<G: Borrow<Grammar>> GrammarIndex<G> {
    /// Build the index in O(|G|). The expansion cells start empty.
    pub fn new(grammar: G) -> Self {
        let g: &Grammar = grammar.borrow();
        let sizes = g.derived_internal_node_counts();
        let rules: Vec<ContextIndex> =
            g.rules().iter().map(|rhs| ContextIndex::new(rhs, rhs.ext(), &sizes)).collect();
        debug_assert!(rules.iter().zip(&sizes).all(|(rule, &size)| rule.size() == size));
        // External nodes S may declare are numbered like every other node.
        let start = ContextIndex::new(&g.start, &[], &sizes);
        let mut cell_base = Vec::with_capacity(g.num_nonterminals() + 1);
        let mut cells = 0;
        for rhs in g.rules() {
            cell_base.push(cells);
            cells += 2 * rhs.rank();
        }
        cell_base.push(cells);
        Self {
            m: start.internal_nodes.len(),
            total_nodes: start.size(),
            height: g.height(),
            grammar,
            start,
            rules,
            expansions: std::iter::repeat_with(OnceLock::new).take(cells).collect(),
            cell_base,
            expansion_hits: AtomicU64::new(0),
            expansion_misses: AtomicU64::new(0),
        }
    }

    /// `[hits, misses]` of the expansion lookups so far: a hit read a
    /// filled cell, a miss filled it.
    pub fn expansion_counts(&self) -> [u64; 2] {
        [&self.expansion_hits, &self.expansion_misses].map(|c| c.load(Ordering::Relaxed))
    }

    /// The grammar this index navigates.
    pub fn grammar(&self) -> &Grammar {
        self.grammar.borrow()
    }

    /// Compute the G-representation of global node `k` (Prop. 4 step 1):
    /// O(log ℓ + h). Panics when `k` is not a `val(G)` node;
    /// [`GrammarIndex::try_locate`] is the checked variant.
    pub fn locate(&self, k: u64) -> GRepr<'_> {
        self.try_locate(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compute the G-representation of global node `k`, or report the valid
    /// id range when `k` lies outside `val(G)`. The hops are what the
    /// descent passes on its way down; their `Vec` is sized at the
    /// grammar's height on the first one.
    pub fn try_locate(&self, k: u64) -> Result<GRepr<'_>, QueryError> {
        let mut hops = Vec::new();
        let (_, _, node) = self.descend(k, |graph, _, edge, nt, _| {
            if hops.is_empty() {
                hops.reserve_exact(self.height);
            }
            hops.push(Hop { edge, nt, att: graph.att(edge) });
        })?;
        Ok(GRepr { hops, node })
    }

    /// Locate global node `k` for row walks ([`Located::row`]): the same
    /// descent as [`GrammarIndex::try_locate`], carrying the occurrence's
    /// first id and its external nodes' ids down instead of a path —
    /// O(log ℓ + h · rank), after which every neighbor id is one addition
    /// or one lookup.
    pub fn try_resolve(&self, k: u64) -> Result<Located<'_, G>, QueryError> {
        let (mut base, mut ext_ids, mut up) = (0, Vec::new(), Vec::new());
        let (graph, ctx, node) = self.descend(k, |graph, ctx, e, _, offset| {
            up.clear();
            up.extend(graph.att(e).iter().map(|&x| ctx.slot(x).resolve(base, &ext_ids)));
            std::mem::swap(&mut ext_ids, &mut up);
            base += offset;
        })?;
        Ok(Located { index: self, graph, ctx, node, base, ext_ids })
    }

    /// Descend from S to the context that creates node `k`, binary-searching
    /// subtree offsets per level. `step` sees every nonterminal edge on the
    /// way, with the context that hosts it, its label and its subtree's
    /// offset there.
    fn descend<'s>(
        &'s self,
        k: u64,
        mut step: impl FnMut(&'s Hypergraph, &ContextIndex, EdgeId, u32, u64),
    ) -> Result<(&'s Hypergraph, &'s ContextIndex, NodeId), QueryError> {
        if k >= self.total_nodes {
            return Err(QueryError::NodeOutOfRange { id: k, total: self.total_nodes });
        }
        let g = self.grammar();
        let (mut graph, mut ctx, mut local) = (&g.start, &self.start, k);
        loop {
            if let Some(&node) = ctx.internal_nodes.get(local as usize) {
                return Ok((graph, ctx, node));
            }
            // `offsets[edge] ≤ local < offsets[edge + 1]`: the one edge
            // whose subtree holds `local`, a nonterminal that creates nodes.
            let e = ctx.offsets.partition_point(|&o| o <= local) - 1;
            let (edge, offset) = (e as EdgeId, ctx.offsets[e]);
            let EdgeLabel::Nonterminal(nt) = graph.label(edge) else { unreachable!() };
            step(graph, ctx, edge, nt, offset);
            local -= offset;
            (graph, ctx) = (g.rule(nt), &self.rules[nt as usize]);
        }
    }

    /// `getID` (§V): the global ID of context-local node `node` under
    /// `path`. Climbs out of external nodes in O(h).
    pub fn global_id(&self, path: &[EdgeId], node: NodeId) -> u64 {
        // The context graph and index of every level: S, then the rhs each
        // edge of `path` descends into.
        let g = self.grammar();
        let mut levels = vec![(&g.start, &self.start)];
        for &e in path {
            let EdgeLabel::Nonterminal(nt) = levels[levels.len() - 1].0.label(e) else {
                panic!("path through terminal edge");
            };
            levels.push((g.rule(nt), &self.rules[nt as usize]));
        }
        let (mut depth, mut node) = (path.len(), node);
        // While the node is external in its context, it merges with the
        // parent attachment.
        while depth > 0 {
            match levels[depth].0.ext().iter().position(|&x| x == node) {
                Some(pos) => {
                    node = levels[depth - 1].0.att(path[depth - 1])[pos];
                    depth -= 1;
                }
                None => break,
            }
        }
        // Internal node: offset of every subtree on the way down + its
        // position among the internal nodes of its context.
        let id: u64 =
            path[..depth].iter().zip(&levels).map(|(&e, (_, ctx))| ctx.edge_offset(e)).sum();
        id + levels[depth].1.slot(node).offset().expect("an internal node has an offset")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    /// Fig. 1 grammar: S = A A A over a 4-node path, A → a·b.
    fn fig1() -> Grammar {
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[1, 2]);
        start.add_edge(N(0), &[2, 3]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.add_edge(T(1), &[1, 2]);
        rhs.set_ext(vec![0, 2]);
        let mut g = Grammar::new(start, 2);
        g.add_rule(rhs);
        g
    }

    /// S = N1(0,1) N1(1,2); N1 → N0 · c; N0 → a · b: every node of the
    /// inner N0 sits two levels down.
    fn nested_grammar() -> Grammar {
        let mut start = Hypergraph::with_nodes(3);
        start.add_edge(N(1), &[0, 1]);
        start.add_edge(N(1), &[1, 2]);
        let mut rhs0 = Hypergraph::with_nodes(3);
        rhs0.add_edge(T(0), &[0, 2]);
        rhs0.add_edge(T(1), &[2, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(3);
        rhs1.add_edge(N(0), &[0, 2]);
        rhs1.add_edge(T(2), &[2, 1]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        g
    }

    #[test]
    fn locate_and_global_id_are_inverse() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.total_nodes, 7);
        for k in 0..idx.total_nodes {
            let repr = idx.locate(k);
            assert_eq!(idx.global_id(&repr.path(), repr.node), k, "node {k}");
        }
    }

    #[test]
    fn start_nodes_come_first() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        for k in 0..4 {
            let repr = idx.locate(k);
            assert!(repr.hops.is_empty());
            assert_eq!(repr.node as u64, k);
        }
        // Node 4 is the internal node of the first A-edge.
        let repr = idx.locate(4);
        assert_eq!(repr.path(), vec![0]);
        assert_eq!(repr.node, 1);
    }

    #[test]
    fn external_nodes_climb_to_parent() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        // rhs node 0 (external position 0) under S-edge 1 is S node 1.
        assert_eq!(idx.global_id(&[1], 0), 1);
        // rhs node 2 (external position 1) under S-edge 2 is S node 3.
        assert_eq!(idx.global_id(&[2], 2), 3);
    }

    #[test]
    fn nested_grammar_index() {
        // S: one N1 edge; N1 → N0 · c; N0 → a · b (heights 2).
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(3);
        rhs0.add_edge(T(0), &[0, 2]);
        rhs0.add_edge(T(1), &[2, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(3);
        rhs1.add_edge(N(0), &[0, 2]);
        rhs1.add_edge(T(2), &[2, 1]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.total_nodes, 4);
        for k in 0..4 {
            let repr = idx.locate(k);
            assert_eq!(idx.global_id(&repr.path(), repr.node), k);
        }
        // Node 3 is N0's internal node, two levels deep.
        let repr = idx.locate(3);
        assert_eq!(repr.hops.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_locate_panics() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        idx.locate(7);
    }

    #[test]
    fn try_locate_reports_range() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        assert!(idx.try_locate(6).is_ok());
        let err = idx.try_locate(7).unwrap_err();
        assert_eq!(err, QueryError::NodeOutOfRange { id: 7, total: 7 });
        assert_eq!(
            idx.try_locate(u64::MAX).unwrap_err(),
            QueryError::NodeOutOfRange { id: u64::MAX, total: 7 }
        );
    }

    #[test]
    fn hops_carry_label_and_attachment() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.locate(6).hops, [Hop { edge: 2, nt: 0, att: &[2, 3] }]);
        // Every hop is the edge's label and attachment in its host, which
        // is S or the rhs of the hop above.
        let nested = nested_grammar();
        let idx = GrammarIndex::new(&nested);
        for k in 0..idx.total_nodes {
            let mut host = &nested.start;
            for hop in idx.locate(k).hops {
                assert_eq!(host.label(hop.edge), N(hop.nt), "node {k}");
                assert_eq!(host.att(hop.edge), hop.att, "node {k}");
                host = nested.rule(hop.nt);
            }
        }
    }

    #[test]
    fn index_can_share_ownership() {
        let g = std::sync::Arc::new(fig1());
        let idx = GrammarIndex::new(g.clone());
        assert_eq!(idx.total_nodes, 7);
        assert_eq!(idx.grammar().num_nonterminals(), g.num_nonterminals());
    }

    #[test]
    fn slots_pack_offsets_and_external_positions() {
        for off in [0, 1, (1 << 63) - 1] {
            assert_eq!(Slot::at_offset(off).offset(), Ok(off));
            assert_eq!(Slot::at_offset(off).resolve(5, &[]), 5 + off);
        }
        for pos in [0, 3, 254] {
            assert_eq!(Slot::at_external(pos).offset(), Err(pos));
        }
        assert_eq!(Slot::at_external(1).resolve(100, &[7, 9]), 9);
    }

    #[test]
    fn resolved_locate_agrees_with_get_id() {
        // fig1 (every node one level down), and a nested grammar where an
        // external node is resolved two levels up.
        for g in [fig1(), nested_grammar()] {
            let idx = GrammarIndex::new(&g);
            for k in 0..idx.total_nodes {
                let (repr, at) = (idx.locate(k), idx.try_resolve(k).unwrap());
                assert_eq!(at.node, repr.node);
                assert_eq!(at.ctx.slot(at.node).resolve(at.base, &at.ext_ids), k);
                let ext = repr.hops.last().map_or(&[][..], |hop| g.rule(hop.nt).ext());
                let want: Vec<u64> = ext.iter().map(|&x| idx.global_id(&repr.path(), x)).collect();
                assert_eq!(at.ext_ids, want, "node {k}");
            }
            assert!(idx.try_resolve(idx.total_nodes).is_err());
        }
    }

    #[test]
    fn offsets_that_tie_locate_and_walk_like_the_derivation() {
        // S = A(0,1) B(1,2,3) c(3→0) A(2,3) B(3,0,1): B has no internal
        // node, so its subtree and the terminal edge's are empty and their
        // offsets tie with the next A's, at the middle and at the end.
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(1), &[1, 2, 3]);
        start.add_edge(T(2), &[3, 0]);
        start.add_edge(N(0), &[2, 3]);
        start.add_edge(N(1), &[3, 0, 1]);
        let mut a = Hypergraph::with_nodes(3);
        a.add_edge(T(0), &[0, 1]);
        a.add_edge(T(1), &[1, 2]);
        a.set_ext(vec![0, 2]);
        let mut b = Hypergraph::with_nodes(3);
        b.add_edge(T(3), &[0, 1]);
        b.add_edge(T(4), &[2, 1]);
        b.set_ext(vec![0, 1, 2]);
        let mut g = Grammar::new(start, 5);
        g.add_rule(a);
        g.add_rule(b);
        g.validate().unwrap();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.start.offsets, [4, 5, 5, 5, 6, 6]);
        let derived = g.derive();
        assert_eq!(idx.total_nodes as usize, derived.num_nodes());
        for k in 0..idx.total_nodes {
            let (repr, at) = (idx.locate(k), idx.try_resolve(k).unwrap());
            assert_eq!(idx.global_id(&repr.path(), repr.node), k, "node {k}");
            assert_eq!(at.node, repr.node, "node {k}");
            assert_eq!(at.ctx.slot(at.node).resolve(at.base, &at.ext_ids), k, "node {k}");
            for dir in [Direction::Out, Direction::In] {
                let mut want: Vec<(u32, u64)> = derived
                    .incident(k as NodeId)
                    .filter_map(|e| match (derived.label(e), derived.att(e), dir) {
                        (T(l), &[from, to], Direction::Out) if from as u64 == k => Some((l, to)),
                        (T(l), &[from, to], Direction::In) if to as u64 == k => Some((l, from)),
                        _ => None,
                    })
                    .map(|(l, w)| (l, u64::from(w)))
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(idx.try_edges(k, dir).unwrap(), want, "{dir:?} row of {k}");
            }
        }
    }
}
