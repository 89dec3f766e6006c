//! Pruning (§III-A3): remove rules that do not contribute to compression.
//!
//! Two phases, as in the paper: first every nonterminal with `ref(A) = 1`
//! is inlined (con is −|handle| < 0 by definition), then the nonterminals
//! are traversed in bottom-up ≤NT order and each with `con(A) ≤ 0` is
//! inlined everywhere. Contributions are recomputed as the grammar changes,
//! because inlining alters the sizes and reference counts the formula reads
//! — the paper notes that "as we remove rules, the contribution of other
//! nonterminals might change".
//!
//! An inline touches only what references the rule. `Pruner` scans the
//! grammar **once** and from then on keeps, per nonterminal `A`:
//!
//! * `refs[A]` — `ref(A)`, updated by the arithmetic of an inline (each
//!   copy of `rhs(B)` adds its nonterminal edges, emptying `B`'s rule takes
//!   one copy away) instead of by rescanning the grammar;
//! * `start_refs[A]` — the `A`-labeled start edges in ascending edge ID
//!   (inlines append the edges they create, whose IDs only grow), which is
//!   the order the start graph's new node IDs — and with them the container
//!   bytes — depend on;
//! * `rule_refs[A]` — the rules whose right-hand side may hold an `A`-edge:
//!   a superset (an entry is added when an inline copies an `A`-edge into a
//!   rule and never removed; a stale or repeated entry just finds no
//!   `A`-edge), never a subset.
//!
//! Debug builds compare `refs` with [`Grammar::ref_counts`] after every
//! inline, so every test that compresses anything is a differential test of
//! the bookkeeping.
//!
//! Every inline is mirrored in the provenance forest (see
//! [`crate::provenance`]): an inline into the start graph materializes the
//! tree's internal IDs as real start-graph nodes; an inline into another
//! rule splices the tree nodes that expand that rule.

use crate::provenance::ProvForest;
use grepair_grammar::{apply_rule, Grammar};
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

/// Run both pruning phases. Returns the number of rules inlined away.
///
/// Inlined rules are left as empty placeholders (so indices stay stable);
/// the caller runs [`Grammar::drop_unreferenced_rules`] afterwards.
pub fn prune(grammar: &mut Grammar, prov: &mut ProvForest, original_id: &mut Vec<NodeId>) -> usize {
    let mut pruner = Pruner::new(grammar);
    let mut pruned = 0usize;

    // Phase 1: ref(A) = 1 ⇒ inline. Reference counts of other rules are
    // unchanged by these inlines (the single occurrence moves, nothing is
    // duplicated), so the condition is the same before and after each.
    for nt in 0..grammar.num_nonterminals() as u32 {
        if pruner.refs[nt as usize] == 1 {
            pruner.inline_everywhere(grammar, nt, prov, original_id);
            pruned += 1;
        }
    }

    // Phase 2: bottom-up, con(A) ≤ 0 ⇒ inline everywhere.
    let order = grammar
        .topo_order_bottom_up()
        .expect("grammar must be straight-line");
    for nt in order {
        let r = pruner.refs[nt as usize];
        if r == 0 {
            continue; // already inlined away (or never referenced)
        }
        if grammar.contribution(nt, r) <= 0 {
            pruner.inline_everywhere(grammar, nt, prov, original_id);
            pruned += 1;
        }
    }
    pruned
}

/// Labels of the nonterminal edges of `g`, in edge-ID order.
fn nonterminal_edges(g: &Hypergraph) -> impl Iterator<Item = (EdgeId, u32)> + '_ {
    g.edges().filter_map(|e| match e.label {
        EdgeLabel::Nonterminal(i) => Some((e.id, i)),
        EdgeLabel::Terminal(_) => None,
    })
}

/// Who references which nonterminal; see the module docs.
struct Pruner {
    refs: Vec<usize>,
    start_refs: Vec<Vec<EdgeId>>,
    rule_refs: Vec<Vec<u32>>,
}

impl Pruner {
    /// Index `grammar`'s references: the one full scan pruning makes.
    fn new(grammar: &Grammar) -> Self {
        let n = grammar.num_nonterminals();
        let mut this =
            Self { refs: vec![0; n], start_refs: vec![Vec::new(); n], rule_refs: vec![Vec::new(); n] };
        for (e, nt) in nonterminal_edges(&grammar.start) {
            this.refs[nt as usize] += 1;
            this.start_refs[nt as usize].push(e);
        }
        for a in 0..n as u32 {
            for (_, nt) in nonterminal_edges(grammar.rule(a)) {
                this.refs[nt as usize] += 1;
                if this.rule_refs[nt as usize].last() != Some(&a) {
                    this.rule_refs[nt as usize].push(a);
                }
            }
        }
        this
    }

    /// Inline nonterminal `b` at every reference (rules first, then the
    /// start graph), keep provenance in sync, and empty `b`'s rule.
    fn inline_everywhere(
        &mut self,
        grammar: &mut Grammar,
        b: u32,
        prov: &mut ProvForest,
        original_id: &mut Vec<NodeId>,
    ) {
        // The rule ends up empty either way; drop_unreferenced_rules removes
        // the placeholder at the end.
        let rhs_b = std::mem::take(grammar.rule_mut(b));
        let b_refs: Vec<u32> = nonterminal_edges(&rhs_b).map(|(_, nt)| nt).collect();
        let mut copies = 0usize;

        // 1. Inline into every referencing rule, splicing the hosts' trees.
        let mut hosts = std::mem::take(&mut self.rule_refs[b as usize]);
        hosts.sort_unstable();
        hosts.dedup();
        let mut positions: Vec<usize> = Vec::new();
        let mut victims: Vec<EdgeId> = Vec::new();
        for a in hosts {
            // Positions of b-edges among rhs(a)'s nonterminal edges, pre-inline.
            positions.clear();
            victims.clear();
            for (i, (e, nt)) in nonterminal_edges(grammar.rule(a)).enumerate() {
                if nt == b {
                    positions.push(i);
                    victims.push(e);
                }
            }
            if victims.is_empty() {
                continue;
            }
            for &e in &victims {
                apply_rule(grammar.rule_mut(a), e, &rhs_b);
            }
            copies += victims.len();
            prov.splice_children(a, &positions);
            for &nt in &b_refs {
                self.rule_refs[nt as usize].push(a);
            }
        }

        // 2. Inline into the start graph, materializing provenance.
        for e in std::mem::take(&mut self.start_refs[b as usize]) {
            let tree = prov.materialize_root(e);
            let result = apply_rule(&mut grammar.start, e, &rhs_b);
            copies += 1;
            debug_assert_eq!(result.created_nodes.len(), tree.internal.len());
            original_id.resize(grammar.start.node_bound(), NodeId::MAX);
            for (&node, &orig) in result.created_nodes.iter().zip(&tree.internal) {
                original_id[node as usize] = orig;
            }
            let mut children = tree.children.into_iter();
            for ce in result.created_edges {
                if let EdgeLabel::Nonterminal(nt) = grammar.start.label(ce) {
                    let child = children
                        .next()
                        .expect("provenance children shorter than rhs nonterminal edges");
                    prov.set_root(ce, child);
                    self.start_refs[nt as usize].push(ce);
                }
            }
            debug_assert!(children.next().is_none(), "leftover provenance children");
        }
        prov.forget_nonterminal(b);

        // 3. ref(): every copy added rhs(b)'s references, the emptied rule
        // took one set away, and nothing references b any more.
        debug_assert_eq!(copies, self.refs[b as usize], "missed a reference to N{b}");
        self.refs[b as usize] = 0;
        for &nt in &b_refs {
            self.refs[nt as usize] += copies;
            self.refs[nt as usize] -= 1;
        }
        debug_assert_eq!(self.refs, grammar.ref_counts(), "after inlining N{b}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::build_node_map;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    /// rhs = `a`-edge · `b`-edge through one internal node, rank 2.
    fn chain_rhs(a: EdgeLabel, b: EdgeLabel) -> Hypergraph {
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(a, &[0, 2]);
        rhs.add_edge(b, &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        rhs
    }

    /// Grammar: S has one N0-edge (ref 1) and rhs(N0) = a·b chain; prune
    /// must inline it and leave a rule-free grammar.
    #[test]
    fn singly_referenced_rule_is_inlined() {
        let mut start = Hypergraph::with_nodes(2);
        let e = start.add_edge(N(0), &[0, 1]);
        let mut g = Grammar::new(start, 2);
        g.add_rule(chain_rhs(T(0), T(1)));
        let mut prov = ProvForest::new();
        let tree = prov.add(0, vec![7], vec![]);
        prov.set_root(e, tree);
        let mut original_id: Vec<NodeId> = vec![3, 5];

        let pruned = prune(&mut g, &mut prov, &mut original_id);
        assert_eq!(pruned, 1);
        g.drop_unreferenced_rules();
        assert_eq!(g.num_nonterminals(), 0);
        assert_eq!(g.start.num_edges(), 2);
        assert_eq!(g.start.num_nodes(), 3);
        // The materialized internal node carries original ID 7.
        assert_eq!(original_id[2], 7);
        let map = build_node_map(&g, &original_id, &prov);
        assert_eq!(map, vec![3, 5, 7]);
        g.validate().unwrap();
    }

    /// The Fig. 6 reconstruction: con(A) = 3 > 0, so pruning keeps the rule.
    #[test]
    fn contributing_rule_survives() {
        let mut start = Hypergraph::with_nodes(9);
        let mut prov = ProvForest::new();
        for (s, t) in [(0u32, 1u32), (2, 3), (4, 5), (6, 7)] {
            let e = start.add_edge(N(0), &[s, t]);
            let tree = prov.add(0, vec![100 + s], vec![]);
            prov.set_root(e, tree);
        }
        let mut g = Grammar::new(start, 1);
        g.add_rule(chain_rhs(T(0), T(0)));
        let mut original_id: Vec<NodeId> = (0..9).collect();

        let pruned = prune(&mut g, &mut prov, &mut original_id);
        assert_eq!(pruned, 0);
        assert_eq!(g.num_nonterminals(), 1);
        assert_eq!(prov.nodes_visited(), 0);
    }

    /// A non-contributing rule referenced twice (con = 2·(5−3)−5 = −1)
    /// must be inlined at both sites.
    #[test]
    fn non_contributing_rule_is_inlined_everywhere() {
        let mut start = Hypergraph::with_nodes(4);
        let mut prov = ProvForest::new();
        for (s, t) in [(0u32, 1u32), (2, 3)] {
            let e = start.add_edge(N(0), &[s, t]);
            let tree = prov.add(0, vec![50 + s], vec![]);
            prov.set_root(e, tree);
        }
        let mut g = Grammar::new(start, 2);
        g.add_rule(chain_rhs(T(0), T(1)));
        let mut original_id: Vec<NodeId> = (0..4).collect();

        let pruned = prune(&mut g, &mut prov, &mut original_id);
        assert_eq!(pruned, 1);
        g.drop_unreferenced_rules();
        assert_eq!(g.num_nonterminals(), 0);
        assert_eq!(g.start.num_edges(), 4);
        assert_eq!(g.start.num_nodes(), 6);
        let map = build_node_map(&g, &original_id, &prov);
        assert_eq!(map, vec![0, 1, 2, 3, 50, 52]);
    }

    /// Nested case: N1 (kept) references N0 (inlined); the prov forest must
    /// be spliced so flattening still matches the expansion order.
    #[test]
    fn inline_into_rule_splices_provenance() {
        // S: two N1-edges. rhs(N1) = N0-edge · c-edge (via a middle node).
        // rhs(N0) = a·b. ref(N0) = 1 → phase 1 inlines N0 into rhs(N1).
        let mut start = Hypergraph::with_nodes(4);
        let mut prov = ProvForest::new();
        let e0 = start.add_edge(N(1), &[0, 1]);
        let e1 = start.add_edge(N(1), &[2, 3]);
        for (e, base) in [(e0, 10), (e1, 20)] {
            let child = prov.add(0, vec![base + 1], vec![]);
            let tree = prov.add(1, vec![base], vec![child]);
            prov.set_root(e, tree);
        }
        let mut g = Grammar::new(start, 3);
        g.add_rule(chain_rhs(T(0), T(1)));
        g.add_rule(chain_rhs(N(0), T(2)));
        g.validate().unwrap();
        let mut original_id: Vec<NodeId> = (0..4).collect();

        Pruner::new(&g).inline_everywhere(&mut g, 0, &mut prov, &mut original_id);
        // One inline into one rule visits that rule's two expansions and
        // dissolves one child in each — not the whole forest.
        assert_eq!(prov.nodes_visited(), 4);
        let mapping = g.drop_unreferenced_rules();
        prov.renumber(&mapping);
        g.validate().unwrap();
        assert_eq!(g.num_nonterminals(), 1);
        assert_eq!(g.rule(0).num_edges(), 3); // c + a + b

        // Provenance must validate against the new grammar and flatten in
        // the new expansion order: internal of N1 (old middle 10, then the
        // spliced 11), no children.
        for e in [e0, e1] {
            prov.validate(prov.root(e).unwrap(), &g).unwrap();
        }
        let map = build_node_map(&g, &original_id, &prov);
        assert_eq!(map, vec![0, 1, 2, 3, 10, 11, 20, 21]);

        // And deriving must agree with counting.
        assert_eq!(g.derive().num_nodes(), map.len());
    }

    /// An inline that duplicates references: N1 (ref 2, con ≤ 0) holds an
    /// N0-edge, so inlining N1 twice takes ref(N0) from 1 + … to one per
    /// copy, and the copies land in the start graph's referrer list.
    #[test]
    fn reference_counts_follow_duplicating_inlines() {
        let mut start = Hypergraph::with_nodes(6);
        let mut prov = ProvForest::new();
        let mut add = |start: &mut Hypergraph, nt: u32, s: u32, t: u32, orig: u32| {
            let e = start.add_edge(N(nt), &[s, t]);
            let child = (nt == 1).then(|| prov.add(0, vec![orig + 1], vec![]));
            let tree = prov.add(nt, vec![orig], child.into_iter().collect());
            prov.set_root(e, tree);
        };
        add(&mut start, 1, 0, 1, 10);
        add(&mut start, 1, 2, 3, 20);
        add(&mut start, 0, 4, 5, 30);
        let mut g = Grammar::new(start, 3);
        g.add_rule(chain_rhs(T(0), T(1)));
        g.add_rule(chain_rhs(N(0), T(2)));
        g.validate().unwrap();
        let mut original_id: Vec<NodeId> = (0..6).collect();

        let mut pruner = Pruner::new(&g);
        assert_eq!(pruner.refs, vec![2, 2]);
        pruner.inline_everywhere(&mut g, 1, &mut prov, &mut original_id);
        assert_eq!(pruner.refs, vec![3, 0]);
        assert_eq!(pruner.refs, g.ref_counts());
        // The two copies joined the original N0 start edge, ascending.
        let n0_edges: Vec<EdgeId> = nonterminal_edges(&g.start).map(|(e, _)| e).collect();
        assert_eq!(pruner.start_refs[0], n0_edges);
        g.drop_unreferenced_rules();
        let map = build_node_map(&g, &original_id, &prov);
        assert_eq!(g.derive().num_nodes(), map.len());
    }
}
