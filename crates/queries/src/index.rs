//! G-representations: addressing `val(G)` nodes inside the grammar.
//!
//! `val(G)`'s deterministic numbering (§II) assigns `0..m` to the start
//! graph's nodes and numbers the rest per nonterminal edge, depth-first.
//! A **G-representation** (§V) of node `k` is a path `e₀e₁…eₙ·v`: a
//! nonterminal edge of S, then nonterminal edges of successive right-hand
//! sides, ending at an internal node `v` of the last rule (or just `v` for a
//! start-graph node). [`GrammarIndex::locate`] computes it in
//! O(log ℓ + h) by binary-searching subtree-size prefix sums;
//! [`GrammarIndex::global_id`] is the inverse `getID`.
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

use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

use crate::error::QueryError;

/// A G-representation: the derivation path and the final node.
///
/// `path` is empty for start-graph nodes; otherwise `path[0]` is a
/// nonterminal edge of S and `path[i]` a nonterminal edge of the rhs of
/// `path[i-1]`'s label. `node` is an *internal* node of the last rhs (or an
/// alive start node when `path` is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GRepr {
    /// Edge path from the start graph down.
    pub path: Vec<EdgeId>,
    /// Final node (context-local ID).
    pub node: NodeId,
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
    /// Nonterminal edges in edge-ID order.
    nt_edges: Vec<EdgeId>,
    /// Offset at which each `nt_edges[i]` subtree starts
    /// (`internal_nodes.len() + Σ sizes of earlier subtrees`).
    nt_offsets: Vec<u64>,
    /// The same offsets by edge ID (0 for terminal edges): one load on the
    /// row walk instead of a search.
    edge_offsets: Vec<u64>,
    /// Total nodes one occurrence creates.
    size: u64,
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
        let (mut nt_edges, mut nt_offsets) = (Vec::new(), Vec::new());
        let mut edge_offsets = vec![0; graph.edge_bound()];
        let mut size = internal_nodes.len() as u64;
        for e in graph.edges() {
            if let EdgeLabel::Nonterminal(child) = e.label {
                nt_edges.push(e.id);
                nt_offsets.push(size);
                edge_offsets[e.id as usize] = size;
                size += sizes[child as usize];
            }
        }
        Self { internal_nodes, slots, nt_edges, nt_offsets, edge_offsets, size }
    }

    /// The slot of context node `x`.
    pub(crate) fn slot(&self, x: NodeId) -> Slot {
        self.slots[x as usize]
    }

    /// The offset at which nonterminal edge `e`'s subtree starts.
    pub(crate) fn edge_offset(&self, e: EdgeId) -> u64 {
        self.edge_offsets[e as usize]
    }
}

/// A node located for row walks: the context graph that creates it, and
/// what that context's slots are as global ids at this occurrence — its
/// first id and the ids of its external nodes. No derivation path.
#[derive(Debug)]
pub struct Located<'a> {
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
}

impl<G: Borrow<Grammar>> GrammarIndex<G> {
    /// Build the index in O(|G|).
    pub fn new(grammar: G) -> Self {
        let g: &Grammar = grammar.borrow();
        let sizes = g.derived_internal_node_counts();
        let rules: Vec<ContextIndex> =
            g.rules().iter().map(|rhs| ContextIndex::new(rhs, rhs.ext(), &sizes)).collect();
        debug_assert!(rules.iter().zip(&sizes).all(|(rule, &size)| rule.size == size));
        // External nodes S may declare are numbered like every other node.
        let start = ContextIndex::new(&g.start, &[], &sizes);
        Self { m: start.internal_nodes.len(), total_nodes: start.size, grammar, start, rules }
    }

    /// The grammar this index navigates.
    pub fn grammar(&self) -> &Grammar {
        self.grammar.borrow()
    }

    /// The sequence of context graphs along `path`: `contexts[0]` = S, then
    /// the rhs each edge descends into; `contexts[i+1]` is the rhs of
    /// `path[i]`'s label (which labels `path[i]` within `contexts[i]`).
    pub fn contexts(&self, path: &[EdgeId]) -> Vec<&Hypergraph> {
        let g = self.grammar();
        let mut out = Vec::with_capacity(path.len() + 1);
        out.push(&g.start);
        for &e in path {
            let host = *out.last().unwrap();
            let EdgeLabel::Nonterminal(nt) = host.label(e) else {
                panic!("path through terminal edge");
            };
            out.push(g.rule(nt));
        }
        out
    }

    /// Per edge of a derivation path, top down: the nonterminal it is
    /// labeled with and its attachment in the context that hosts it.
    pub fn hops(&self, path: &[EdgeId]) -> Vec<(u32, &[NodeId])> {
        let g = self.grammar();
        let mut host = &g.start;
        path.iter()
            .map(|&e| {
                let EdgeLabel::Nonterminal(nt) = host.label(e) else {
                    unreachable!("a located path descends through nonterminal edges")
                };
                let att = host.att(e);
                host = g.rule(nt);
                (nt, att)
            })
            .collect()
    }

    /// The context graph a path ends in: S for the empty path, else the rhs
    /// of the last edge's label.
    pub fn context(&self, path: &[EdgeId]) -> &Hypergraph {
        self.contexts(path).last().unwrap()
    }

    /// Nonterminal labeling the last edge of `path` (panics on empty path;
    /// [`GrammarIndex::try_nt_at`] is the checked variant).
    pub fn nt_at(&self, path: &[EdgeId]) -> u32 {
        self.try_nt_at(path).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Nonterminal labeling the last edge of `path`.
    pub fn try_nt_at(&self, path: &[EdgeId]) -> Result<u32, QueryError> {
        let (&last, prefix) = path.split_last().ok_or(QueryError::EmptyPath)?;
        let host = self.context(prefix);
        match host.label(last) {
            EdgeLabel::Nonterminal(nt) => Ok(nt),
            EdgeLabel::Terminal(_) => Err(QueryError::TerminalEdgeOnPath),
        }
    }

    /// Compute the G-representation of global node `k` (Prop. 4 step 1):
    /// O(log ℓ + h). Panics when `k` is not a `val(G)` node;
    /// [`GrammarIndex::try_locate`] is the checked variant.
    pub fn locate(&self, k: u64) -> GRepr {
        self.try_locate(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compute the G-representation of global node `k`, or report the valid
    /// id range when `k` lies outside `val(G)`.
    pub fn try_locate(&self, k: u64) -> Result<GRepr, QueryError> {
        let mut path = Vec::new();
        let (_, _, node) = self.descend(k, |_, _, e, _| path.push(e))?;
        Ok(GRepr { path, node })
    }

    /// Locate global node `k` for row walks ([`Located::row`]): the same
    /// descent as [`GrammarIndex::try_locate`], carrying the occurrence's
    /// first id and its external nodes' ids down instead of a path —
    /// O(log ℓ + h · rank), after which every neighbor id is one addition
    /// or one lookup.
    pub fn try_resolve(&self, k: u64) -> Result<Located<'_>, QueryError> {
        let (mut base, mut ext_ids, mut up) = (0, Vec::new(), Vec::new());
        let (graph, ctx, node) = self.descend(k, |graph, ctx, e, offset| {
            up.clear();
            up.extend(graph.att(e).iter().map(|&x| ctx.slot(x).resolve(base, &ext_ids)));
            std::mem::swap(&mut ext_ids, &mut up);
            base += offset;
        })?;
        Ok(Located { graph, ctx, node, base, ext_ids })
    }

    /// Descend from S to the context that creates node `k`, binary-searching
    /// subtree offsets per level. `step` sees every nonterminal edge on the
    /// way, with the context that hosts it and its subtree's offset there.
    fn descend(
        &self,
        k: u64,
        mut step: impl FnMut(&Hypergraph, &ContextIndex, EdgeId, u64),
    ) -> Result<(&Hypergraph, &ContextIndex, NodeId), QueryError> {
        if k >= self.total_nodes {
            return Err(QueryError::NodeOutOfRange { id: k, total: self.total_nodes });
        }
        let g = self.grammar();
        let (mut graph, mut ctx, mut local) = (&g.start, &self.start, k);
        loop {
            if let Some(&node) = ctx.internal_nodes.get(local as usize) {
                return Ok((graph, ctx, node));
            }
            let j = ctx.nt_offsets.partition_point(|&o| o <= local) - 1;
            let (edge, offset) = (ctx.nt_edges[j], ctx.nt_offsets[j]);
            step(graph, ctx, edge, offset);
            local -= offset;
            let EdgeLabel::Nonterminal(nt) = graph.label(edge) else { unreachable!() };
            (graph, ctx) = (g.rule(nt), &self.rules[nt as usize]);
        }
    }

    /// `getID` (§V): the global ID of context-local node `node` under
    /// `path`. Climbs out of external nodes in O(h).
    pub fn global_id(&self, path: &[EdgeId], node: NodeId) -> u64 {
        let contexts = self.contexts(path);
        let mut depth = path.len();
        let mut node = node;
        // While the node is external in its context, it merges with the
        // parent attachment.
        while depth > 0 {
            let rhs = contexts[depth];
            match rhs.ext().iter().position(|&x| x == node) {
                Some(pos) => {
                    node = contexts[depth - 1].att(path[depth - 1])[pos];
                    depth -= 1;
                }
                None => break,
            }
        }
        // Internal node: offset of every subtree on the way down + its
        // position among the internal nodes of its context.
        let mut ctx = &self.start;
        let mut id = 0;
        for (d, &e) in path[..depth].iter().enumerate() {
            id += ctx.edge_offset(e);
            let EdgeLabel::Nonterminal(nt) = contexts[d].label(e) else { unreachable!() };
            ctx = &self.rules[nt as usize];
        }
        id + ctx.slot(node).offset().expect("an internal node has an offset")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn locate_and_global_id_are_inverse() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.total_nodes, 7);
        for k in 0..idx.total_nodes {
            let repr = idx.locate(k);
            assert_eq!(idx.global_id(&repr.path, repr.node), k, "node {k}");
        }
    }

    #[test]
    fn start_nodes_come_first() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        for k in 0..4 {
            let repr = idx.locate(k);
            assert!(repr.path.is_empty());
            assert_eq!(repr.node as u64, k);
        }
        // Node 4 is the internal node of the first A-edge.
        let repr = idx.locate(4);
        assert_eq!(repr.path, vec![0]);
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
            assert_eq!(idx.global_id(&repr.path, repr.node), k);
        }
        // Node 3 is N0's internal node, two levels deep.
        let repr = idx.locate(3);
        assert_eq!(repr.path.len(), 2);
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
    fn try_nt_at_checks_path() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.try_nt_at(&[]), Err(QueryError::EmptyPath));
        assert_eq!(idx.try_nt_at(&[0]), Ok(0));
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
        // fig1 (every node one level down), and the nested grammar of
        // `nested_grammar_index` widened so an external node is resolved
        // two levels up.
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
        let mut nested = Grammar::new(start, 3);
        nested.add_rule(rhs0);
        nested.add_rule(rhs1);
        nested.validate().unwrap();
        for g in [fig1(), nested] {
            let idx = GrammarIndex::new(&g);
            for k in 0..idx.total_nodes {
                let (repr, at) = (idx.locate(k), idx.try_resolve(k).unwrap());
                assert_eq!(at.node, repr.node);
                assert_eq!(at.ctx.slot(at.node).resolve(at.base, &at.ext_ids), k);
                let ext = idx.context(&repr.path).ext();
                let want: Vec<u64> = ext.iter().map(|&x| idx.global_id(&repr.path, x)).collect();
                assert_eq!(at.ext_ids, want, "node {k}");
            }
            assert!(idx.try_resolve(idx.total_nodes).is_err());
        }
    }
}
