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

/// Per-rule navigation data.
#[derive(Debug)]
pub struct RuleIndex {
    /// Internal nodes of the rhs in node-ID order (the creation order).
    pub internal_nodes: Vec<NodeId>,
    /// rhs node → index in `internal_nodes` (`u32::MAX` for externals).
    internal_pos: Vec<u32>,
    /// Nonterminal edges of the rhs in edge-ID order.
    pub nt_edges: Vec<EdgeId>,
    /// Local node offset at which each `nt_edges[i]` subtree starts
    /// (`internal_nodes.len() + Σ sizes of earlier subtrees`).
    nt_offsets: Vec<u64>,
    /// Total nodes created by expanding one edge with this label.
    pub subtree_size: u64,
}

/// Navigation index over a grammar.
#[derive(Debug)]
pub struct GrammarIndex<G: Borrow<Grammar>> {
    grammar: G,
    /// |V_S| (alive start nodes) — global IDs `0..m` are start nodes.
    pub m: usize,
    /// global id → start node.
    s_alive: Vec<NodeId>,
    /// start node → global id.
    s_pos: Vec<u32>,
    /// Nonterminal edges of S in edge-ID order.
    pub s_nt: Vec<EdgeId>,
    /// Global ID at which each `s_nt[i]` subtree starts.
    s_offsets: Vec<u64>,
    /// Per-nonterminal navigation data.
    pub rules: Vec<RuleIndex>,
    /// Total node count of `val(G)`.
    pub total_nodes: u64,
}

impl<G: Borrow<Grammar>> GrammarIndex<G> {
    /// Build the index in O(|G|).
    pub fn new(grammar: G) -> Self {
        let g: &Grammar = grammar.borrow();
        let sizes = g.derived_internal_node_counts();
        let rules: Vec<RuleIndex> = g
            .rules()
            .iter()
            .enumerate()
            .map(|(nt, rhs)| {
                let internal_nodes: Vec<NodeId> =
                    rhs.node_ids().filter(|&v| !rhs.is_external(v)).collect();
                let mut internal_pos = vec![u32::MAX; rhs.node_bound()];
                for (i, &v) in internal_nodes.iter().enumerate() {
                    internal_pos[v as usize] = i as u32;
                }
                let nt_edges: Vec<EdgeId> = rhs
                    .edges()
                    .filter(|e| e.label.is_nonterminal())
                    .map(|e| e.id)
                    .collect();
                let mut nt_offsets = Vec::with_capacity(nt_edges.len());
                let mut acc = internal_nodes.len() as u64;
                for &e in &nt_edges {
                    nt_offsets.push(acc);
                    let EdgeLabel::Nonterminal(child) = rhs.label(e) else { unreachable!() };
                    acc += sizes[child as usize];
                }
                debug_assert_eq!(acc, sizes[nt]);
                RuleIndex {
                    internal_nodes,
                    internal_pos,
                    nt_edges,
                    nt_offsets,
                    subtree_size: sizes[nt],
                }
            })
            .collect();

        let start = &g.start;
        let s_alive: Vec<NodeId> = start.node_ids().collect();
        let mut s_pos = vec![u32::MAX; start.node_bound()];
        for (i, &v) in s_alive.iter().enumerate() {
            s_pos[v as usize] = i as u32;
        }
        let s_nt: Vec<EdgeId> = start
            .edges()
            .filter(|e| e.label.is_nonterminal())
            .map(|e| e.id)
            .collect();
        let m = s_alive.len();
        let mut s_offsets = Vec::with_capacity(s_nt.len());
        let mut acc = m as u64;
        for &e in &s_nt {
            s_offsets.push(acc);
            let EdgeLabel::Nonterminal(child) = start.label(e) else { unreachable!() };
            acc += sizes[child as usize];
        }
        Self { grammar, m, s_alive, s_pos, s_nt, s_offsets, rules, total_nodes: acc }
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
        if k >= self.total_nodes {
            return Err(QueryError::NodeOutOfRange { id: k, total: self.total_nodes });
        }
        if (k as usize) < self.m {
            return Ok(GRepr { path: Vec::new(), node: self.s_alive[k as usize] });
        }
        let g = self.grammar();
        // Binary search the S-level subtree that contains k.
        let i = self.s_offsets.partition_point(|&o| o <= k) - 1;
        let mut path = vec![self.s_nt[i]];
        let mut local = k - self.s_offsets[i];
        let EdgeLabel::Nonterminal(mut nt) = g.start.label(self.s_nt[i]) else {
            unreachable!()
        };
        loop {
            let rule = &self.rules[nt as usize];
            if (local as usize) < rule.internal_nodes.len() {
                return Ok(GRepr { path, node: rule.internal_nodes[local as usize] });
            }
            let j = rule.nt_offsets.partition_point(|&o| o <= local) - 1;
            let edge = rule.nt_edges[j];
            local -= rule.nt_offsets[j];
            let EdgeLabel::Nonterminal(child) = g.rule(nt).label(edge) else {
                unreachable!()
            };
            path.push(edge);
            nt = child;
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
        if depth == 0 {
            return self.s_pos[node as usize] as u64;
        }
        // Internal node: offset of the subtree + cumulative offset inside.
        let s_idx = self.s_nt.binary_search(&path[0]).expect("S nonterminal edge");
        let mut id = self.s_offsets[s_idx];
        for d in 1..depth {
            let EdgeLabel::Nonterminal(nt) = contexts[d - 1].label(path[d - 1]) else {
                unreachable!()
            };
            let rule = &self.rules[nt as usize];
            let j = rule
                .nt_edges
                .binary_search(&path[d])
                .expect("nonterminal edge of rhs");
            id += rule.nt_offsets[j];
        }
        let EdgeLabel::Nonterminal(nt) = contexts[depth - 1].label(path[depth - 1]) else {
            unreachable!()
        };
        let rule = &self.rules[nt as usize];
        id + rule.internal_pos[node as usize] as u64
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
}
