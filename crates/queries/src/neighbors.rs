//! Neighborhood queries over the grammar (Proposition 4).
//!
//! Given a `val(G)` node ID, compute its labeled in- or out-row without
//! decompressing: resolve the G-representation, scan the incident edges of
//! the context graph, and for nonterminal edges recurse into the subgraph
//! they derive (`getNeighboring`), converting every endpoint back to a
//! global ID via `getID`. Runtime O(log ℓ + n·h) for n neighbors.
//!
//! One scan carries the terminal label of every edge it finds and hands
//! each hit to a caller closure: labeled rows, plain neighbor sets (label
//! dropped at the emit) and rule-relative expansions are emits over it.

use std::borrow::Borrow;

use crate::error::QueryError;
use crate::index::GrammarIndex;
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

/// Direction of a neighborhood query on rank-2 terminal edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `N⁺`: follow edges `v → u`.
    Out,
    /// `N⁻`: follow edges `u → v`.
    In,
}

impl<G: Borrow<Grammar>> GrammarIndex<G> {
    /// Out-neighbor IDs of global node `k`, sorted ascending.
    pub fn out_neighbors(&self, k: u64) -> Vec<u64> {
        self.neighbors(k, Direction::Out)
    }

    /// In-neighbor IDs of global node `k`, sorted ascending.
    pub fn in_neighbors(&self, k: u64) -> Vec<u64> {
        self.neighbors(k, Direction::In)
    }

    /// Neighbor IDs of `k` in the given direction, sorted and deduplicated.
    /// Panics on an out-of-range `k`; [`GrammarIndex::try_neighbors`] is the
    /// checked variant.
    pub fn neighbors(&self, k: u64, dir: Direction) -> Vec<u64> {
        self.try_neighbors(k, dir).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Neighbor IDs of `k` in the given direction, sorted and deduplicated,
    /// or the valid id range when `k` lies outside `val(G)`.
    pub fn try_neighbors(&self, k: u64, dir: Direction) -> Result<Vec<u64>, QueryError> {
        let mut out = Vec::new();
        self.try_neighbors_into(k, dir, &mut out)?;
        Ok(out)
    }

    /// Like [`GrammarIndex::try_neighbors`], but clears and fills a
    /// caller-provided buffer instead of allocating a fresh `Vec` per call —
    /// batch evaluators answering many neighbor queries reuse one scratch
    /// buffer.
    pub fn try_neighbors_into(
        &self,
        k: u64,
        dir: Direction,
        out: &mut Vec<u64>,
    ) -> Result<(), QueryError> {
        out.clear();
        self.scan_global(k, dir, |_, id| out.push(id))?;
        out.sort_unstable();
        out.dedup();
        Ok(())
    }

    /// The labeled row of `k`: `(label, target)` pairs for
    /// [`Direction::Out`], `(label, source)` pairs for [`Direction::In`],
    /// sorted and deduplicated.
    pub fn try_edges(&self, k: u64, dir: Direction) -> Result<Vec<(u32, u64)>, QueryError> {
        let mut out = Vec::new();
        self.scan_global(k, dir, |label, id| out.push((label, id)))?;
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Rule-relative expansion: the row of the `pos`-th external node
    /// *inside* the subgraph derived from one `nt`-edge, as
    /// `(relative path, terminal label, context-local node)` entries. The
    /// relative path starts with edges of `rhs(nt)`; prepending the path of
    /// a concrete `nt`-edge occurrence and running
    /// [`GrammarIndex::global_id`] yields the global neighbor ids. Because
    /// the expansion depends only on `(nt, pos, dir)` — never on where the
    /// edge occurs — callers can memoize it across queries (the
    /// `grepair-store` crate does exactly that).
    pub fn rule_expansion(
        &self,
        nt: u32,
        pos: usize,
        dir: Direction,
    ) -> Vec<(Vec<EdgeId>, u32, NodeId)> {
        let mut out = Vec::new();
        let rhs = self.grammar().rule(nt);
        if let Some(&v) = rhs.ext().get(pos) {
            self.scan(rhs, v, dir, &mut Vec::new(), &mut |rel, label, node| {
                out.push((rel.to_vec(), label, node))
            });
        }
        out
    }

    /// Scan the row of global node `k`, emitting `(label, global id)`.
    /// The located node is internal to its context (or a start node), so
    /// every edge of `val(G)` incident with it appears in that context or
    /// below.
    fn scan_global(
        &self,
        k: u64,
        dir: Direction,
        mut emit: impl FnMut(u32, u64),
    ) -> Result<(), QueryError> {
        let mut repr = self.try_locate(k)?;
        let ctx = self.context(&repr.path);
        self.scan(ctx, repr.node, dir, &mut repr.path, &mut |path, label, node| {
            emit(label, self.global_id(path, node))
        });
        Ok(())
    }

    /// The one incident-edge scan, `getNeighboring` of §V: every rank-2
    /// terminal edge leaving (or entering) `v` in `ctx` and in the subgraphs
    /// its nonterminal edges derive. `path` leads to `ctx` — absolute or
    /// rule-relative, the scan only extends and restores it — and `emit`
    /// receives the path of the context the edge lives in, its terminal
    /// label, and its other endpoint as a node of that context.
    fn scan(
        &self,
        ctx: &Hypergraph,
        v: NodeId,
        dir: Direction,
        path: &mut Vec<EdgeId>,
        emit: &mut impl FnMut(&[EdgeId], u32, NodeId),
    ) {
        for e in ctx.incident(v) {
            let att = ctx.att(e);
            match ctx.label(e) {
                EdgeLabel::Terminal(label) => {
                    debug_assert!(att.len() <= 2, "terminal hyperedges have no direction");
                    if let [from, to] = *att {
                        match dir {
                            Direction::Out if from == v => emit(path, label, to),
                            Direction::In if to == v => emit(path, label, from),
                            _ => {}
                        }
                    }
                }
                EdgeLabel::Nonterminal(nt) => {
                    // Descend for every position at which `v` is attached.
                    let rhs = self.grammar().rule(nt);
                    for (pos, &x) in att.iter().enumerate() {
                        if x == v {
                            path.push(e);
                            self.scan(rhs, rhs.ext()[pos], dir, path, emit);
                            path.pop();
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_grammar::Grammar;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};
    use grepair_hypergraph::Hypergraph;

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

    /// Oracle: neighbors on the derived graph must equal neighbors on the
    /// grammar for every node and both directions.
    fn check_against_derivation(g: &Grammar) {
        let derived = g.derive();
        let idx = GrammarIndex::new(g);
        assert_eq!(idx.total_nodes as usize, derived.num_nodes());
        for k in 0..idx.total_nodes {
            let mut want_out: Vec<u64> =
                derived.out_neighbors(k as u32).map(|v| v as u64).collect();
            want_out.sort_unstable();
            want_out.dedup();
            assert_eq!(idx.out_neighbors(k), want_out, "out of {k}");
            let mut want_in: Vec<u64> =
                derived.in_neighbors(k as u32).map(|v| v as u64).collect();
            want_in.sort_unstable();
            want_in.dedup();
            assert_eq!(idx.in_neighbors(k), want_in, "in of {k}");
        }
    }

    #[test]
    fn fig1_neighbors_match_derivation() {
        check_against_derivation(&fig1());
    }

    #[test]
    fn fig1_specific_neighbors() {
        let g = fig1();
        let idx = GrammarIndex::new(&g);
        // val: 0 →a 4 →b 1 →a 5 →b 2 →a 6 →b 3
        assert_eq!(idx.out_neighbors(0), vec![4]);
        assert_eq!(idx.out_neighbors(4), vec![1]);
        assert_eq!(idx.in_neighbors(1), vec![4]);
        assert_eq!(idx.out_neighbors(1), vec![5]);
        assert_eq!(idx.in_neighbors(0), Vec::<u64>::new());
        assert_eq!(idx.out_neighbors(3), Vec::<u64>::new());
    }

    #[test]
    fn nested_rules_neighbors_match() {
        let mut start = Hypergraph::with_nodes(3);
        start.add_edge(N(1), &[0, 1]);
        start.add_edge(N(1), &[1, 2]);
        start.add_edge(T(0), &[2, 0]);
        let mut rhs0 = Hypergraph::with_nodes(3);
        rhs0.add_edge(T(0), &[0, 2]);
        rhs0.add_edge(T(1), &[2, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(3);
        rhs1.add_edge(N(0), &[0, 2]);
        rhs1.add_edge(T(2), &[1, 2]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        check_against_derivation(&g);
    }

    #[test]
    fn neighbors_into_reuses_buffer_and_handles_isolated_nodes() {
        // fig1 plus an isolated node (4) for the rank-0 fast path.
        let mut start = Hypergraph::with_nodes(5);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[1, 2]);
        start.add_edge(N(0), &[2, 3]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.add_edge(T(1), &[1, 2]);
        rhs.set_ext(vec![0, 2]);
        let mut g = Grammar::new(start, 2);
        g.add_rule(rhs);
        g.validate().unwrap();
        let idx = GrammarIndex::new(&g);
        let mut buf = vec![99u64; 8]; // stale contents must be cleared
        for k in 0..idx.total_nodes {
            for dir in [Direction::Out, Direction::In] {
                idx.try_neighbors_into(k, dir, &mut buf).unwrap();
                assert_eq!(buf, idx.try_neighbors(k, dir).unwrap(), "{k} {dir:?}");
            }
        }
        // The isolated node is empty in both directions via the fast path.
        idx.try_neighbors_into(4, Direction::Out, &mut buf).unwrap();
        assert!(buf.is_empty());
        // Out-of-range ids still error.
        assert!(idx.try_neighbors_into(idx.total_nodes, Direction::Out, &mut buf).is_err());
    }

    #[test]
    fn hub_through_nonterminals() {
        // A star compressed into nonterminals: hub neighbors span subtrees.
        let mut start = Hypergraph::with_nodes(1);
        for _ in 0..3 {
            start.add_edge(N(0), &[0]);
        }
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.set_ext(vec![0]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        g.validate().unwrap();
        let idx = GrammarIndex::new(&g);
        assert_eq!(idx.out_neighbors(0).len(), 6);
        check_against_derivation(&g);
    }
}
