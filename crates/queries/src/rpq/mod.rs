//! Regular path queries (RPQs) over the grammar — the paper's stated
//! future work ("In the future we want to find more query classes with this
//! property (e.g., regular path queries)").
//!
//! An RPQ asks: is there a directed path from `s` to `t` whose edge-label
//! word belongs to a regular language? The grammar-side evaluation
//! generalizes Theorem 6's skeletons to an automaton product: for every
//! nonterminal `A` and NFA `M` we precompute the relation
//!
//! > `R_A ⊆ (ext × Q) × (ext × Q)`:  ((i, q), (j, q')) ∈ R_A iff inside
//! > `val(A)` there is a path from external node i to external node j whose
//! > label word drives `M` from state q to state q'.
//!
//! computed bottom-up in one pass (each rule's product graph uses the nested
//! nonterminals' relations instead of expanding them). A query then runs the
//! same level-set climb as plain reachability, but over (node, state) pairs.
//! Plain (s,t)-reachability is exactly the RPQ for the one-state NFA that
//! loops on every label — a differential test below exploits that.

use std::borrow::Borrow;

use crate::error::QueryError;
use crate::index::GrammarIndex;
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use grepair_util::FxHashSet;

mod nfa;
pub use nfa::{Nfa, Regex};

/// Precomputed RPQ evaluator for one grammar and one NFA.
#[derive(Debug)]
pub struct RpqIndex<G: Borrow<Grammar>> {
    index: GrammarIndex<G>,
    nfa: Nfa,
    /// `relations[A][i * |Q| + q]` = list of (j, q') reachable from
    /// external position i in state q, within val(A).
    relations: Vec<Vec<Vec<(u8, u32)>>>,
}

/// A (node, state) pair in some context graph.
type Config = (NodeId, u32);

impl<G: Borrow<Grammar>> RpqIndex<G> {
    /// Build the per-nonterminal relations bottom-up — O(|G|·|Q|²·maxRank).
    pub fn new(grammar: G, nfa: Nfa) -> Self {
        let g: &Grammar = grammar.borrow();
        let order = g
            .topo_order_bottom_up()
            .expect("grammar must be straight-line");
        let mut relations: Vec<Vec<Vec<(u8, u32)>>> =
            vec![Vec::new(); g.num_nonterminals()];
        for nt in order {
            let rhs = g.rule(nt);
            let q = nfa.num_states();
            let ext = rhs.ext();
            let mut rel = vec![Vec::new(); ext.len() * q as usize];
            for (i, &x) in ext.iter().enumerate() {
                for q0 in 0..q {
                    let closed = product_closure(rhs, &nfa, &relations, &[(x, q0)], false);
                    for &(n, qn) in &closed {
                        if let Some(j) = ext.iter().position(|&y| y == n) {
                            if (j, qn) != (i, q0) {
                                rel[i * q as usize + q0 as usize].push((j as u8, qn));
                            }
                        }
                    }
                }
            }
            relations[nt as usize] = rel;
        }
        Self { index: GrammarIndex::new(grammar), nfa, relations }
    }

    /// The navigation index.
    pub fn index(&self) -> &GrammarIndex<G> {
        &self.index
    }

    /// Is there a path from `val(G)` node `s` to node `t` whose label word
    /// is accepted by the NFA? (The empty word counts when `s == t` and the
    /// start state accepts.) Panics on an out-of-range id;
    /// [`RpqIndex::try_matches`] is the checked variant.
    pub fn matches(&self, s: u64, t: u64) -> bool {
        self.try_matches(s, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`RpqIndex::matches`], but out-of-range ids return an error
    /// naming the valid range instead of panicking.
    pub fn try_matches(&self, s: u64, t: u64) -> Result<bool, QueryError> {
        // Locate both ids (`s` first, so it is the one reported when both
        // are out of range) before either product closure runs: a hostile
        // id costs two lookups, not a pass over the start graph.
        let rs = self.index.try_locate(s)?;
        let rt = self.index.try_locate(t)?;
        let forward = self.level_sets(&rs.path, rs.node, self.nfa.start_states(), false);
        let backward = self.level_sets(&rt.path, rt.node, self.nfa.accept_states(), true);
        // The two climbs share the contexts of the common path prefix; a
        // path exists iff some shared level holds a common (node, state).
        let common = rs.path.iter().zip(&rt.path).take_while(|(a, b)| a == b).count();
        Ok(forward
            .iter()
            .zip(&backward)
            .take(common + 1)
            .any(|(f, b)| b.iter().any(|cfg| f.contains(cfg))))
    }

    /// Per-level closures over (node, state) pairs, climbing the derivation
    /// path from the node's own context up to the start graph.
    fn level_sets(
        &self,
        path: &[EdgeId],
        node: NodeId,
        states: &[u32],
        backward: bool,
    ) -> Vec<FxHashSet<Config>> {
        let contexts = self.index.contexts(path);
        let mut sets: Vec<FxHashSet<Config>> = vec![FxHashSet::default(); path.len() + 1];
        let mut seeds: Vec<Config> = states.iter().map(|&q| (node, q)).collect();
        for depth in (0..=path.len()).rev() {
            let ctx = contexts[depth];
            let closed =
                product_closure(ctx, &self.nfa, &self.relations, &seeds, backward);
            if depth > 0 {
                let rhs = contexts[depth];
                let parent_att = contexts[depth - 1].att(path[depth - 1]);
                seeds = rhs
                    .ext()
                    .iter()
                    .enumerate()
                    .flat_map(|(pos, &x)| {
                        closed
                            .iter()
                            .filter(move |&&(n, _)| n == x)
                            .map(move |&(_, q)| (parent_att[pos], q))
                    })
                    .collect();
            }
            sets[depth] = closed;
        }
        sets
    }
}

/// Closure of `seeds` in the product of a context graph with the NFA,
/// using nested nonterminals' relations instead of expanding them.
fn product_closure(
    ctx: &Hypergraph,
    nfa: &Nfa,
    relations: &[Vec<Vec<(u8, u32)>>],
    seeds: &[Config],
    backward: bool,
) -> FxHashSet<Config> {
    let q = nfa.num_states() as usize;
    let mut seen: FxHashSet<Config> = seeds.iter().copied().collect();
    let mut queue: Vec<Config> = seeds.to_vec();
    while let Some((n, state)) = queue.pop() {
        for e in ctx.incident(n) {
            let att = ctx.att(e);
            match ctx.label(e) {
                EdgeLabel::Terminal(label) => {
                    if att.len() != 2 {
                        continue;
                    }
                    let (from, to) = (att[0], att[1]);
                    let mut visit = |cfg: Config| {
                        if seen.insert(cfg) {
                            queue.push(cfg);
                        }
                    };
                    if !backward && from == n {
                        nfa.step(state, label).for_each(|q2| visit((to, q2)));
                    } else if backward && to == n {
                        nfa.step_back(state, label).for_each(|q2| visit((from, q2)));
                    }
                }
                EdgeLabel::Nonterminal(b) => {
                    let rel = &relations[b as usize];
                    for (i, &x) in att.iter().enumerate() {
                        if x != n {
                            continue;
                        }
                        if !backward {
                            for &(j, q2) in &rel[i * q + state as usize] {
                                let cfg = (att[j as usize], q2);
                                if seen.insert(cfg) {
                                    queue.push(cfg);
                                }
                            }
                        } else {
                            // Reverse lookup: all (j, q') with
                            // ((j, q') → (i, state)) ∈ R_B.
                            for (jq, targets) in rel.iter().enumerate() {
                                if targets.contains(&(i as u8, state)) {
                                    let j = jq / q;
                                    let q2 = (jq % q) as u32;
                                    let cfg = (att[j], q2);
                                    if seen.insert(cfg) {
                                        queue.push(cfg);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    seen
}

/// Oracle: RPQ evaluation on a plain graph via BFS over the product space.
pub fn rpq_on_graph(g: &Hypergraph, nfa: &Nfa, s: NodeId, t: NodeId) -> bool {
    if s == t && nfa.start_states().iter().any(|&q| nfa.is_accepting(q)) {
        return true;
    }
    let mut seen: FxHashSet<Config> = FxHashSet::default();
    let mut queue: Vec<Config> = Vec::new();
    for &q in nfa.start_states() {
        seen.insert((s, q));
        queue.push((s, q));
    }
    while let Some((n, state)) = queue.pop() {
        for e in g.incident(n) {
            let att = g.att(e);
            if att.len() != 2 || att[0] != n {
                continue;
            }
            let EdgeLabel::Terminal(label) = g.label(e) else { continue };
            for q2 in nfa.step(state, label) {
                let cfg = (att[1], q2);
                if cfg.0 == t && nfa.is_accepting(q2) {
                    return true;
                }
                if seen.insert(cfg) {
                    queue.push(cfg);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::{compress, GRePairConfig};

    fn check_all_pairs(g: &Hypergraph, nfa: &Nfa) {
        let out = compress(g, &GRePairConfig::default());
        let derived = out.grammar.derive();
        let rpq = RpqIndex::new(&out.grammar, nfa.clone());
        // Map val-node → input-node to query the oracle on the input graph.
        for s in 0..derived.num_nodes() as u64 {
            for t in 0..derived.num_nodes() as u64 {
                let want = rpq_on_graph(
                    &derived,
                    nfa,
                    s as NodeId,
                    t as NodeId,
                );
                assert_eq!(rpq.matches(s, t), want, "rpq({s},{t})");
            }
        }
    }

    /// The repeated a·b path: (ab)^n.
    fn ab_path(reps: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        )
        .0
    }

    #[test]
    fn word_query_on_folded_path() {
        // L = a·b : exactly one pattern repetition.
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::label(0), Regex::label(1)]));
        check_all_pairs(&ab_path(12), &nfa);
    }

    #[test]
    fn star_query_matches_plain_reachability() {
        // L = (a|b)* : RPQ == reachability; differential against ReachIndex.
        let g = ab_path(16);
        let nfa = Nfa::from_regex(&Regex::star(Regex::alt(vec![
            Regex::label(0),
            Regex::label(1),
        ])));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        let reach = crate::ReachIndex::new(&out.grammar);
        let n = out.grammar.derive().num_nodes() as u64;
        for s in (0..n).step_by(3) {
            for t in (0..n).step_by(3) {
                assert_eq!(rpq.matches(s, t), reach.reachable(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn alternation_and_plus() {
        // L = a+ over a graph with both a- and b-paths.
        let (g, _) = Hypergraph::from_simple_edges(
            6,
            vec![(0u32, 0u32, 1u32), (1, 0, 2), (2, 1, 3), (3, 0, 4), (0, 1, 5)],
        );
        let nfa = Nfa::from_regex(&Regex::plus(Regex::label(0)));
        check_all_pairs(&g, &nfa);
    }

    #[test]
    fn empty_word_semantics() {
        let g = ab_path(4);
        // L = a* accepts ε: every node matches itself.
        let nfa = Nfa::from_regex(&Regex::star(Regex::label(0)));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        assert!(rpq.matches(3, 3));
        // L = a·a does not accept ε.
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::label(0), Regex::label(0)]));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        assert!(!rpq.matches(3, 3));
    }

    #[test]
    fn try_matches_agrees_with_the_oracle_and_reports_s_first() {
        let g = ab_path(8);
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::star(Regex::label(0)),
            Regex::label(1),
        ]));
        let out = compress(&g, &GRePairConfig::default());
        let derived = out.grammar.derive();
        let rpq = RpqIndex::new(&out.grammar, nfa.clone());
        let n = derived.num_nodes() as u64;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(
                    rpq.try_matches(s, t),
                    Ok(rpq_on_graph(&derived, &nfa, s as NodeId, t as NodeId)),
                    "({s},{t})"
                );
            }
        }
        // Out-of-range ids error instead of panicking, `s` first.
        let out_of_range = |id| Err(QueryError::NodeOutOfRange { id, total: n });
        assert_eq!(rpq.try_matches(0, n), out_of_range(n));
        assert_eq!(rpq.try_matches(n, 0), out_of_range(n));
        assert_eq!(rpq.try_matches(n + 1, n + 2), out_of_range(n + 1));
    }

    #[test]
    fn cycle_queries() {
        // Directed 2-colored cycle: paths wrap around.
        let (g, _) = Hypergraph::from_simple_edges(
            8,
            (0..8u32).map(|i| (i, i % 2, (i + 1) % 8)),
        );
        let nfa = Nfa::from_regex(&Regex::star(Regex::cat(vec![
            Regex::label(0),
            Regex::label(1),
        ])));
        check_all_pairs(&g, &nfa);
    }

    #[test]
    fn optional_segments() {
        let (g, _) = Hypergraph::from_simple_edges(
            5,
            vec![(0u32, 0u32, 1u32), (1, 1, 2), (2, 0, 3), (0, 0, 4)],
        );
        // L = a·b?·a
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::label(0),
            Regex::opt(Regex::label(1)),
            Regex::label(0),
        ]));
        check_all_pairs(&g, &nfa);
    }
}
