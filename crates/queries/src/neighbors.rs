//! Neighborhood queries over the grammar (Proposition 4).
//!
//! Given a `val(G)` node ID, compute its labeled in- or out-row without
//! decompressing: resolve the node ([`GrammarIndex::try_resolve`]), scan
//! the incident edges of its context graph, and for nonterminal edges take
//! the expansion of the subgraph they derive (`getNeighboring`). An
//! expansion is in **slot form** ([`Slot`]): per edge found, its terminal
//! label and the other endpoint as an offset inside the expanded edge's
//! subtree or as one of the rule's external positions, which depends only
//! on (nonterminal, external position, direction), never on where the edge
//! occurs. The paper's `getID` climb is thus paid once per expansion, not
//! once per neighbor: a neighbor is the edge's first id plus an offset, or
//! an id the resolved locate already holds. The index keeps each expansion
//! in a once-filled cell ([`GrammarIndex::expand`]), so after the first
//! read a row of n neighbors costs O(log ℓ + h·rank + n).
//!
//! One scan carries the terminal label of every edge it finds and hands
//! each hit to a caller closure: labeled rows, plain neighbor sets (label
//! dropped at the emit) and the cells' fills are emits over it.

use std::borrow::Borrow;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crate::error::QueryError;
use crate::index::{ContextIndex, GrammarIndex, Located, Slot};
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
        self.try_resolve(k)?.row(dir, |_, id| out.push(id));
        out.sort_unstable();
        out.dedup();
        Ok(())
    }

    /// The labeled row of `k`: `(label, target)` pairs for
    /// [`Direction::Out`], `(label, source)` pairs for [`Direction::In`],
    /// sorted and deduplicated.
    pub fn try_edges(&self, k: u64, dir: Direction) -> Result<Vec<(u32, u64)>, QueryError> {
        let mut out = Vec::new();
        self.try_resolve(k)?.row(dir, |label, id| out.push((label, id)));
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Slot-form rule expansion: the row of the `pos`-th external node
    /// *inside* the subgraph derived from one `nt`-edge, as `(terminal
    /// label, slot)` entries relative to that edge. The first call fills
    /// the triple's cell, every later one borrows it — no hash, no lock.
    /// Nested nonterminal edges read their own cells; their offsets shift
    /// by where their subtree starts in `rhs(nt)`, and their external
    /// positions map through their attachment. Empty, and counted nowhere,
    /// when there is no such nonterminal or position.
    pub fn expand(&self, nt: u32, pos: usize, dir: Direction) -> &[(u32, Slot)] {
        let Some(cell) = self.cell(nt, pos, dir) else {
            return &[];
        };
        if let Some(hit) = cell.get() {
            self.expansion_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.expansion_misses.fetch_add(1, Ordering::Relaxed);
        // The fill reads nested cells. Those are other cells — a
        // straight-line grammar only nests strictly smaller nonterminals —
        // so the recursion is finite and never waits on the cell it fills.
        cell.get_or_init(|| {
            let (rhs, ctx) = (self.grammar().rule(nt), &self.rules[nt as usize]);
            let mut entries = Vec::new();
            let v = rhs.ext()[pos];
            self.scan(rhs, ctx, v, dir, &mut |label, slot| entries.push((label, slot)));
            entries
        })
    }

    /// The table cell of `(nt, pos, dir)`, if the table has one.
    fn cell(&self, nt: u32, pos: usize, dir: Direction) -> Option<&OnceLock<Vec<(u32, Slot)>>> {
        let nt = nt as usize;
        let (base, end) = (*self.cell_base.get(nt)?, *self.cell_base.get(nt + 1)?);
        let dir = match dir {
            Direction::Out => 0,
            Direction::In => 1,
        };
        self.expansions.get(base..end)?.get(pos.saturating_mul(2).saturating_add(dir))
    }

    /// The one incident-edge scan, `getNeighboring` of §V in slot form:
    /// every rank-2 terminal edge leaving (or entering) `v` in `graph` and
    /// in the subgraphs its nonterminal edges derive, emitted as its
    /// terminal label and the slot of its other endpoint in `graph`.
    fn scan(
        &self,
        graph: &Hypergraph,
        ctx: &ContextIndex,
        v: NodeId,
        dir: Direction,
        emit: &mut impl FnMut(u32, Slot),
    ) {
        for e in graph.incident(v) {
            let edge = graph.edge(e);
            match edge.label {
                EdgeLabel::Terminal(label) => {
                    debug_assert!(edge.rank() <= 2, "terminal hyperedges have no direction");
                    match (dir, edge.att) {
                        (Direction::Out, &[from, to]) if from == v => emit(label, ctx.slot(to)),
                        (Direction::In, &[from, to]) if to == v => emit(label, ctx.slot(from)),
                        _ => {}
                    }
                }
                EdgeLabel::Nonterminal(nt) => {
                    // Descend for every position at which `v` is attached.
                    let base = ctx.edge_offset(e);
                    for (pos, &x) in edge.att.iter().enumerate() {
                        if x == v {
                            for &(label, slot) in self.expand(nt, pos, dir) {
                                let slot = match slot.offset() {
                                    Ok(off) => Slot::at_offset(base + off),
                                    Err(p) => ctx.slot(edge.att[p]),
                                };
                                emit(label, slot);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Path-form rule expansion, the reference the slot form is tested
    /// against: `(relative path, terminal label, context-local node)`
    /// entries, where the relative path starts with edges of `rhs(nt)`;
    /// prepending the path of a concrete `nt`-edge occurrence and running
    /// [`GrammarIndex::global_id`] yields the global neighbor ids.
    pub fn rule_expansion(
        &self,
        nt: u32,
        pos: usize,
        dir: Direction,
    ) -> Vec<(Vec<EdgeId>, u32, NodeId)> {
        let mut out = Vec::new();
        let rhs = self.grammar().rule(nt);
        if let Some(&v) = rhs.ext().get(pos) {
            self.scan_paths(rhs, v, dir, &mut Vec::new(), &mut |rel, label, node| {
                out.push((rel.to_vec(), label, node))
            });
        }
        out
    }

    /// `getNeighboring` of §V with derivation paths: every rank-2 terminal
    /// edge leaving (or entering) `v` in `ctx` and below, emitted with the
    /// path of the context the edge lives in — `path` leads to `ctx`, the
    /// scan only extends and restores it — its label and its other endpoint.
    fn scan_paths(
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
                EdgeLabel::Terminal(label) => match (dir, att) {
                    (Direction::Out, &[from, to]) if from == v => emit(path, label, to),
                    (Direction::In, &[from, to]) if to == v => emit(path, label, from),
                    _ => {}
                },
                EdgeLabel::Nonterminal(nt) => {
                    let rhs = self.grammar().rule(nt);
                    for (pos, &x) in att.iter().enumerate() {
                        if x == v {
                            path.push(e);
                            self.scan_paths(rhs, rhs.ext()[pos], dir, path, emit);
                            path.pop();
                        }
                    }
                }
            }
        }
    }
}

impl<G: Borrow<Grammar>> Located<'_, G> {
    /// The row of the located node in direction `dir`, every edge emitted
    /// as `(terminal label, global id)`. The node is internal to its
    /// context (or a start node), so every edge of `val(G)` incident with
    /// it appears in that context or below.
    pub fn row(&self, dir: Direction, mut emit: impl FnMut(u32, u64)) {
        self.index.scan(self.graph, self.ctx, self.node, dir, &mut |label, slot: Slot| {
            emit(label, slot.resolve(self.base, &self.ext_ids))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::{compress, GRePairConfig};
    use grepair_grammar::Grammar;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};
    use grepair_hypergraph::Hypergraph;

    /// `reps` repetitions of `a·b` on a path, compressed: nested rules
    /// whose expansions carry both labels.
    fn two_label_path(reps: u32) -> Grammar {
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        compress(&g, &GRePairConfig::default()).grammar
    }

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

    #[test]
    fn cached_expansion_matches_reference() {
        // Every cell, resolved at every concrete occurrence of its
        // nonterminal that creates a node: its first id and the ids of its
        // external nodes turn slots into ids, which must be what `getID`
        // makes of the path-form expansion there.
        let grammar = two_label_path(24);
        let idx = GrammarIndex::new(&grammar);
        let mut checked = 0;
        for k in idx.m as u64..idx.total_nodes {
            let repr = idx.locate(k);
            let (nt, path) = (repr.hops[repr.hops.len() - 1].nt, repr.path());
            let rhs = grammar.rule(nt);
            // Internal nodes come first, in id order: `k` is the base plus
            // the number of internal nodes before `repr.node`.
            let before = (0..repr.node).filter(|&x| !rhs.is_external(x)).count() as u64;
            let base = k - before;
            let ext_ids: Vec<u64> =
                rhs.ext().iter().map(|&x| idx.global_id(&path, x)).collect();
            for pos in 0..rhs.rank() {
                for dir in [Direction::Out, Direction::In] {
                    let mut got: Vec<(u32, u64)> = idx
                        .expand(nt, pos, dir)
                        .iter()
                        .map(|&(label, slot)| (label, slot.resolve(base, &ext_ids)))
                        .collect();
                    let mut want: Vec<(u32, u64)> = idx
                        .rule_expansion(nt, pos, dir)
                        .into_iter()
                        .map(|(rel, label, node)| {
                            (label, idx.global_id(&[&path[..], &rel].concat(), node))
                        })
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "nt {nt} pos {pos} {dir:?} at node {k}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn expansion_table_counts_hits_and_computes_out_of_table_triples_uncached() {
        let grammar = two_label_path(16);
        let idx = GrammarIndex::new(&grammar);
        assert_eq!(idx.expansion_counts(), [0, 0], "cells fill on first use");
        let first = idx.expand(0, 0, Direction::Out).to_vec();
        let [hits, misses] = idx.expansion_counts();
        assert!(misses >= 1, "the first lookup fills the cell");
        // A second lookup of the same triple is a hit on the same entries.
        assert_eq!(idx.expand(0, 0, Direction::Out), first);
        assert_eq!(idx.expansion_counts(), [hits + 1, misses]);
        // Triples the table has no cell for — a position beyond the rank
        // (which must not alias the next nonterminal's cells), an unknown
        // nonterminal — are computed uncached: empty, as the reference
        // expansion is, never a panic, no counter moved.
        let rank = grammar.nt_rank(0);
        let unknown = grammar.num_nonterminals() as u32;
        for dir in [Direction::Out, Direction::In] {
            assert!(idx.rule_expansion(0, rank, dir).is_empty());
            for (nt, pos) in [(0, rank), (0, usize::MAX), (unknown, 0)] {
                assert!(idx.expand(nt, pos, dir).is_empty(), "({nt}, {pos})");
            }
        }
        assert_eq!(idx.expansion_counts(), [hits + 1, misses]);
    }
}
