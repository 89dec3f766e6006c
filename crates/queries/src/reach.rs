//! (s,t)-reachability over the grammar — Theorem 6, with the per-query walk
//! of every context graph replaced by labels computed once.
//!
//! Bottom-up (in ≤NT order), every nonterminal gets a **skeleton graph**
//! `sk(A)`: a digraph on the external nodes of `rhs(A)` preserving exactly
//! the reachability `val(A)` provides between them. Following the paper's
//! proof, the skeleton is built from the SCC condensation (Tarjan) of the
//! rhs with nested nonterminal edges replaced by their skeletons: SCCs
//! without external nodes are shortcut away, each remaining SCC becomes a
//! cycle over its external nodes, and inter-SCC edges connect arbitrary
//! representatives.
//!
//! What is kept per context graph (S and every rhs) is not that skeletonized
//! graph but its condensation (`condensation.rs`): the component of every
//! node slot, the condensation DAG, and rank and interval labels on it, so
//! that "does `a` reach `b` inside this context?" is a label test
//! (DESIGN.md §3.2).
//!
//! A query locates both nodes — each G-representation is the hops of its
//! derivation path — and climbs each path carrying only the **seeds** of a
//! level: the node itself at the bottom, and one level up the attachment
//! nodes of those externals that some seed reaches (forward climb) or that
//! reach some seed (backward climb) — at most `rank` per level, in two
//! buffers swapped per level. At every context the two paths share,
//! `s ⇝ t` iff some forward seed reaches some backward seed there — paths
//! that leave a subtree and re-enter appear at the shallowest level they
//! visit, where the skeleton edges summarize the detours.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::condensation::Condensation;
pub use crate::condensation::ReachWork;
use crate::error::QueryError;
use crate::index::{GRepr, GrammarIndex, Hop};
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeLabel, Hypergraph, NodeId};

/// Skeleton graphs for every nonterminal plus the labelled condensation of
/// every context graph.
#[derive(Debug)]
pub struct ReachIndex<G: Borrow<Grammar>> {
    /// The navigation index, shareable with [`crate::RpqShared`].
    index: Arc<GrammarIndex<G>>,
    /// `skeletons[A]` = edges (i, j) between external-node *positions*:
    /// position j is reachable from position i through `val(A)`.
    skeletons: Vec<Vec<(u8, u8)>>,
    /// Per context (S, and `rhs(A)` per nonterminal): the context graph with
    /// every nonterminal edge replaced by its skeleton's edges, condensed.
    start: Condensation,
    rules: Vec<Condensation>,
}

/// Condense `g` with every nonterminal edge replaced by the plain edges of
/// its skeleton relation. `edges` is scratch shared between contexts.
fn skeletonize(
    g: &Hypergraph,
    skeletons: &[Vec<(u8, u8)>],
    edges: &mut Vec<(NodeId, NodeId)>,
) -> Condensation {
    edges.clear();
    for e in g.edges() {
        match e.label {
            EdgeLabel::Terminal(_) => {
                if let [a, b] = *e.att {
                    edges.push((a, b));
                }
            }
            EdgeLabel::Nonterminal(nt) => edges.extend(
                skeletons[nt as usize].iter().map(|&(i, j)| (e.att[i as usize], e.att[j as usize])),
            ),
        }
    }
    Condensation::new(g.node_bound(), edges)
}

/// Build `sk(A)` from the condensed rhs, per the Theorem 6 construction.
fn build_skeleton(ext: &[NodeId], rhs: &Condensation) -> Vec<(u8, u8)> {
    if ext.is_empty() {
        return Vec::new();
    }
    let dag = rhs.dag();
    let scc_count = dag.num_nodes();

    // Condensation adjacency + external positions per component.
    let mut comp_ext: Vec<Vec<u8>> = vec![Vec::new(); scc_count];
    for (pos, &v) in ext.iter().enumerate() {
        comp_ext[rhs.component(v) as usize].push(pos as u8);
    }
    let mut adj: Vec<Vec<u32>> = (0..scc_count as u32).map(|c| dag.succ(c).to_vec()).collect();

    // Remove components without external nodes by shortcutting D→C→E to
    // D→E. Tarjan emits SCC ids in reverse topological order, so processing
    // ids ascending sees every successor before its predecessors.
    #[allow(clippy::needless_range_loop)] // index arithmetic over SCC ids
    for c in 0..scc_count {
        if comp_ext[c].is_empty() && !adj[c].is_empty() {
            let succs = adj[c].clone();
            for d in 0..scc_count {
                if d == c || !adj[d].contains(&(c as u32)) {
                    continue;
                }
                for &s in &succs {
                    if s as usize != d && !adj[d].contains(&s) {
                        adj[d].push(s);
                    }
                }
            }
        }
    }

    // Emit: a cycle over each component's external positions, plus one edge
    // per condensation edge between components that (still) have externals —
    // via reachability through ext-free components already shortcut above.
    let mut edges: Vec<(u8, u8)> = Vec::new();
    for c in 0..scc_count {
        let positions = &comp_ext[c];
        if positions.len() > 1 {
            for w in 0..positions.len() {
                edges.push((positions[w], positions[(w + 1) % positions.len()]));
            }
        }
        if positions.is_empty() {
            continue;
        }
        for &d in &adj[c] {
            if let Some(&target) = comp_ext[d as usize].first() {
                edges.push((positions[0], target));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges.retain(|&(a, b)| a != b);
    edges
}

impl<G: Borrow<Grammar>> ReachIndex<G> {
    /// Precompute all skeletons and condensations in one bottom-up pass.
    pub fn new(grammar: G) -> Self {
        let g: &Grammar = grammar.borrow();
        let order = g
            .topo_order_bottom_up()
            .expect("grammar must be straight-line");
        let mut skeletons: Vec<Vec<(u8, u8)>> = vec![Vec::new(); g.num_nonterminals()];
        let mut rules: Vec<Condensation> = Vec::new();
        rules.resize_with(g.num_nonterminals(), Condensation::default);
        let mut edges = Vec::new();
        for nt in order {
            let rhs = skeletonize(g.rule(nt), &skeletons, &mut edges);
            skeletons[nt as usize] = build_skeleton(g.rule(nt).ext(), &rhs);
            rules[nt as usize] = rhs;
        }
        let start = skeletonize(&g.start, &skeletons, &mut edges);
        Self { index: Arc::new(GrammarIndex::new(grammar)), skeletons, start, rules }
    }

    /// The navigation index (shared with neighborhood queries).
    pub fn index(&self) -> &GrammarIndex<G> {
        &self.index
    }

    /// The navigation index as a shared handle, for another structure over
    /// the same grammar to navigate by ([`crate::RpqShared::with_index`])
    /// instead of building its own.
    pub fn shared_index(&self) -> Arc<GrammarIndex<G>> {
        Arc::clone(&self.index)
    }

    /// The skeleton relation of nonterminal `nt` (external-position pairs).
    pub fn skeleton(&self, nt: u32) -> &[(u8, u8)] {
        &self.skeletons[nt as usize]
    }

    /// Is `val(G)` node `t` reachable from node `s`? Panics on an
    /// out-of-range id; [`ReachIndex::try_reachable`] is the checked variant.
    pub fn reachable(&self, s: u64, t: u64) -> bool {
        self.try_reachable(s, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Is `val(G)` node `t` reachable from node `s`, or an error naming the
    /// valid id range.
    pub fn try_reachable(&self, s: u64, t: u64) -> Result<bool, QueryError> {
        self.try_reachable_counted(s, t).map(|(answer, _)| answer)
    }

    /// [`ReachIndex::try_reachable`] together with the work the query did.
    pub fn try_reachable_counted(&self, s: u64, t: u64) -> Result<(bool, ReachWork), QueryError> {
        let mut work = ReachWork::default();
        if s == t {
            // Trivially true — but only for ids that exist.
            return if s < self.index.total_nodes {
                Ok((true, work))
            } else {
                Err(QueryError::NodeOutOfRange { id: s, total: self.index.total_nodes })
            };
        }
        let (rs, rt) = (self.index.try_locate(s)?, self.index.try_locate(t)?);
        Ok((self.connects(&rs, &rt, &mut work), work))
    }

    /// Does the node at `s` reach the node at `t`?
    fn connects(&self, s: &GRepr, t: &GRepr, work: &mut ReachWork) -> bool {
        let common = s.hops.iter().zip(&t.hops).take_while(|(a, b)| a.edge == b.edge).count();
        let (mut fwd, mut bwd, mut up) = (vec![s.node], vec![t.node], Vec::new());
        // Each endpoint on its own up to the deepest context both are in …
        for hop in s.hops[common..].iter().rev() {
            if !self.climb(hop, &mut fwd, &mut up, false, work) {
                return false;
            }
        }
        for hop in t.hops[common..].iter().rev() {
            if !self.climb(hop, &mut bwd, &mut up, true, work) {
                return false;
            }
        }
        // … then level by level together, testing before every step up.
        for depth in (0..=common).rev() {
            let ctx = match depth {
                0 => &self.start,
                _ => &self.rules[s.hops[depth - 1].nt as usize],
            };
            if fwd.iter().any(|&f| bwd.iter().any(|&b| ctx.reaches(f, b, work))) {
                return true;
            }
            if depth > 0
                && !(self.climb(&s.hops[depth - 1], &mut fwd, &mut up, false, work)
                    && self.climb(&s.hops[depth - 1], &mut bwd, &mut up, true, work))
            {
                return false;
            }
        }
        false
    }

    /// Carry `seeds` from inside `rhs(hop.nt)` one level up through the
    /// hop's edge: an external node some seed reaches (`backward`: that
    /// reaches some seed) becomes the attachment node it merges with. `up`
    /// is scratch, swapped with `seeds`. False when nothing gets out.
    fn climb(
        &self,
        hop: &Hop,
        seeds: &mut Vec<NodeId>,
        up: &mut Vec<NodeId>,
        backward: bool,
        work: &mut ReachWork,
    ) -> bool {
        let ctx = &self.rules[hop.nt as usize];
        let ext = self.index.grammar().rule(hop.nt).ext();
        up.clear();
        up.extend(ext.iter().zip(hop.att).filter_map(|(&x, &a)| {
            let out = seeds.iter().any(|&v| {
                if backward {
                    ctx.reaches(x, v, work)
                } else {
                    ctx.reaches(v, x, work)
                }
            });
            out.then_some(a)
        }));
        std::mem::swap(seeds, up);
        !seeds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: reachability over the grammar must match BFS on val(G), for
    /// all node pairs.
    fn check_all_pairs(g: &Grammar) {
        let derived = g.derive();
        let r = ReachIndex::new(g);
        assert_eq!(r.index().total_nodes as usize, derived.num_nodes());
        for s in 0..derived.num_nodes() as u64 {
            for t in 0..derived.num_nodes() as u64 {
                let want =
                    grepair_hypergraph::traverse::reachable(&derived, s as u32, t as u32);
                assert_eq!(r.reachable(s, t), want, "reach({s},{t})");
            }
        }
    }

    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    #[test]
    fn fig1_chain_reachability() {
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
        check_all_pairs(&g);
    }

    #[test]
    fn cycle_through_nonterminals() {
        // S: A(0,1), A(1,0) — val is a 4-node directed cycle.
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[1, 0]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.add_edge(T(0), &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        check_all_pairs(&g);
    }

    #[test]
    fn deep_nesting_same_subtree() {
        // Both endpoints inside the same S-subtree (tests the
        // common-prefix levels, not just the S level).
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(3); // a·b chain
        rhs0.add_edge(T(0), &[0, 2]);
        rhs0.add_edge(T(0), &[2, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(4); // N0 then N0, sharing a mid node
        rhs1.add_edge(N(0), &[0, 2]);
        rhs1.add_edge(N(0), &[3, 2]); // converging, NOT a chain
        rhs1.add_edge(T(0), &[2, 1]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        check_all_pairs(&g);
    }

    #[test]
    fn exit_and_reenter_subtree() {
        // A path that must leave a subtree and re-enter another: two
        // nonterminal edges chained through S nodes plus a back edge.
        let mut start = Hypergraph::with_nodes(3);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(T(0), &[1, 2]);
        start.add_edge(N(0), &[2, 0]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.add_edge(T(0), &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        check_all_pairs(&g);
    }

    #[test]
    fn skeleton_of_internal_scc() {
        // rhs with an internal cycle that connects ext 0 to ext 1 only
        // through a non-external SCC (exercises the shortcut step).
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[2, 3]);
        let mut rhs = Hypergraph::with_nodes(4);
        rhs.add_edge(T(0), &[0, 2]); // into the cycle
        rhs.add_edge(T(0), &[2, 3]);
        rhs.add_edge(T(0), &[3, 2]); // cycle 2↔3
        rhs.add_edge(T(0), &[3, 1]); // out of the cycle
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        let r = ReachIndex::new(&g);
        assert_eq!(r.skeleton(0), &[(0, 1)]);
        check_all_pairs(&g);
    }

    #[test]
    fn disconnected_val_graph() {
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[2, 3]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.add_edge(T(0), &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        check_all_pairs(&g);
    }
}
