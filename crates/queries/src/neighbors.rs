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
//! an id the resolved locate already holds. With every expansion already
//! at hand — the store's once-filled table — a row of n neighbors costs
//! O(log ℓ + h·rank + n); computed on the spot, as [`GrammarIndex`] itself
//! does, a neighbor found d levels down is remapped once per level.
//!
//! One scan carries the terminal label of every edge it finds and hands
//! each hit to a caller closure: labeled rows, plain neighbor sets (label
//! dropped at the emit) and rule expansions are emits over it. Where a
//! nested expansion comes from is the [`Expansions`] parameter.

use std::borrow::Borrow;

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

/// Where a row walk gets the expansion of a nested nonterminal edge.
///
/// [`GrammarIndex`] computes it on the spot, recursively; a caller that
/// answers many queries keeps each `(nt, pos, dir)` expansion once and
/// hands it back from there (the `grepair-store` crate does exactly that).
pub trait Expansions {
    /// Hand `f` every `(terminal label, slot)` entry of the expansion of
    /// `(nt, pos, dir)` ([`GrammarIndex::expand`]).
    fn each(&self, nt: u32, pos: usize, dir: Direction, f: impl FnMut(u32, Slot));
}

/// Uncached: every nested expansion is computed when the walk reaches it.
impl<G: Borrow<Grammar>> Expansions for GrammarIndex<G> {
    fn each(&self, nt: u32, pos: usize, dir: Direction, mut f: impl FnMut(u32, Slot)) {
        self.expand(nt, pos, dir, self, &mut f);
    }
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
        self.try_resolve(k)?.row(dir, self, |_, id| out.push(id));
        out.sort_unstable();
        out.dedup();
        Ok(())
    }

    /// The labeled row of `k`: `(label, target)` pairs for
    /// [`Direction::Out`], `(label, source)` pairs for [`Direction::In`],
    /// sorted and deduplicated.
    pub fn try_edges(&self, k: u64, dir: Direction) -> Result<Vec<(u32, u64)>, QueryError> {
        let mut out = Vec::new();
        self.try_resolve(k)?.row(dir, self, |label, id| out.push((label, id)));
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Slot-form rule expansion: the row of the `pos`-th external node
    /// *inside* the subgraph derived from one `nt`-edge, as `(terminal
    /// label, slot)` entries relative to that edge, handed to `f`. Nested
    /// nonterminal edges come from `nested`; their offsets shift by where
    /// their subtree starts in `rhs(nt)`, and their external positions map
    /// through their attachment. Nothing when there is no such nonterminal
    /// or position.
    pub fn expand(
        &self,
        nt: u32,
        pos: usize,
        dir: Direction,
        nested: &impl Expansions,
        f: &mut dyn FnMut(u32, Slot),
    ) {
        let nt = nt as usize;
        let (Some(rhs), Some(ctx)) = (self.grammar().rules().get(nt), self.rules.get(nt)) else {
            return;
        };
        if let Some(&v) = rhs.ext().get(pos) {
            scan(rhs, ctx, v, dir, nested, f);
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

impl Located<'_> {
    /// The row of the located node in direction `dir`, every edge emitted
    /// as `(terminal label, global id)`, nested expansions taken from
    /// `nested`. The node is internal to its context (or a start node), so
    /// every edge of `val(G)` incident with it appears in that context or
    /// below.
    pub fn row(&self, dir: Direction, nested: &impl Expansions, mut emit: impl FnMut(u32, u64)) {
        scan(self.graph, self.ctx, self.node, dir, nested, &mut |label, slot: Slot| {
            emit(label, slot.resolve(self.base, &self.ext_ids))
        });
    }
}

/// The one incident-edge scan, `getNeighboring` of §V in slot form: every
/// rank-2 terminal edge leaving (or entering) `v` in `graph` and in the
/// subgraphs its nonterminal edges derive, emitted as its terminal label
/// and the slot of its other endpoint in `graph`.
fn scan<F: FnMut(u32, Slot) + ?Sized>(
    graph: &Hypergraph,
    ctx: &ContextIndex,
    v: NodeId,
    dir: Direction,
    nested: &impl Expansions,
    emit: &mut F,
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
                        nested.each(nt, pos, dir, |label, slot| {
                            emit(
                                label,
                                match slot.offset() {
                                    Ok(off) => Slot::at_offset(base + off),
                                    Err(p) => ctx.slot(edge.att[p]),
                                },
                            )
                        });
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
