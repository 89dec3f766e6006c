//! The [`Grammar`] type: rules, validation, orders, and size accounting.

use grepair_hypergraph::{EdgeLabel, Hypergraph};

/// A straight-line hyperedge replacement grammar.
///
/// Nonterminal `i` is [`EdgeLabel::Nonterminal`]`(i)` and its unique
/// right-hand side is `rules[i]`; the rank of the nonterminal is the rank
/// (external-node count) of that right-hand side.
#[derive(Debug, Clone, Default)]
pub struct Grammar {
    /// The start graph S.
    pub start: Hypergraph,
    /// `rules[i]` = rhs of nonterminal `i`.
    rules: Vec<Hypergraph>,
    /// Size of the terminal alphabet Σ (labels `0..num_terminals`).
    num_terminals: u32,
}

impl Grammar {
    /// The largest edge rank a grammar may hold: the container stores an
    /// attachment position in one byte, and decoding rejects a larger rank.
    pub const MAX_RANK: usize = 255;

    /// Grammar with start graph `start` over `num_terminals` terminal labels
    /// and no rules (it derives `start` itself).
    pub fn new(start: Hypergraph, num_terminals: u32) -> Self {
        Self { start, rules: Vec::new(), num_terminals }
    }

    /// Add a rule; returns the new nonterminal's index.
    pub fn add_rule(&mut self, rhs: Hypergraph) -> u32 {
        let nt = u32::try_from(self.rules.len()).expect("a nonterminal id is a u32");
        self.rules.push(rhs);
        nt
    }

    /// Right-hand side of nonterminal `nt`.
    pub fn rule(&self, nt: u32) -> &Hypergraph {
        &self.rules[nt as usize]
    }

    /// Mutable right-hand side of nonterminal `nt`.
    pub fn rule_mut(&mut self, nt: u32) -> &mut Hypergraph {
        &mut self.rules[nt as usize]
    }

    /// All right-hand sides.
    pub fn rules(&self) -> &[Hypergraph] {
        &self.rules
    }

    /// Number of nonterminals.
    pub fn num_nonterminals(&self) -> usize {
        self.rules.len()
    }

    /// Terminal alphabet size.
    pub fn num_terminals(&self) -> u32 {
        self.num_terminals
    }

    /// Set the terminal alphabet size (used when virtual labels are stripped).
    pub fn set_num_terminals(&mut self, n: u32) {
        self.num_terminals = n;
    }

    /// `rank(A)` — the rank of nonterminal `nt`.
    pub fn nt_rank(&self, nt: u32) -> usize {
        self.rules[nt as usize].rank()
    }

    // ------------------------------------------------------------------
    // Sizes (§II): |G| = |S| + Σ_rules |rhs| and likewise for V/E parts.
    // ------------------------------------------------------------------

    /// `|G|V`.
    pub fn node_size(&self) -> usize {
        self.start.node_size() + self.rules.iter().map(Hypergraph::node_size).sum::<usize>()
    }

    /// `|G|E`.
    pub fn edge_size(&self) -> usize {
        self.start.edge_size() + self.rules.iter().map(Hypergraph::edge_size).sum::<usize>()
    }

    /// `|G| = |G|V + |G|E`.
    pub fn size(&self) -> usize {
        self.node_size() + self.edge_size()
    }

    /// `|handle(A)|` for a nonterminal of rank `rank` (§III-A3): a minimal
    /// graph holding one nonterminal edge — `rank` nodes plus the edge's
    /// size (1 if rank ≤ 2, else `rank`).
    pub fn handle_size(rank: usize) -> usize {
        rank + if rank <= 2 { 1 } else { rank }
    }

    /// `con(A) = ref(A)·(|rhs(A)| − |handle(A)|) − |rhs(A)|` (§III-A3):
    /// how much the grammar shrinks thanks to `A`. Positive ⇒ the rule earns
    /// its keep.
    pub fn contribution(&self, nt: u32, ref_count: usize) -> i64 {
        let rhs = &self.rules[nt as usize];
        let rhs_size = rhs.total_size() as i64;
        let handle = Self::handle_size(rhs.rank()) as i64;
        ref_count as i64 * (rhs_size - handle) - rhs_size
    }

    // ------------------------------------------------------------------
    // Reference structure
    // ------------------------------------------------------------------

    /// `ref(A)` for every nonterminal: number of A-labeled edges in the start
    /// graph and in all right-hand sides.
    pub fn ref_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rules.len()];
        let mut scan = |g: &Hypergraph| {
            for e in g.edges() {
                if let EdgeLabel::Nonterminal(i) = e.label {
                    counts[i as usize] += 1;
                }
            }
        };
        scan(&self.start);
        for rhs in &self.rules {
            scan(rhs);
        }
        counts
    }

    /// Bottom-up ≤NT order: every nonterminal appears after all nonterminals
    /// referenced from its right-hand side. Errors if ≤NT is cyclic (the
    /// grammar would not be straight-line).
    pub fn topo_order_bottom_up(&self) -> Result<Vec<u32>, String> {
        let n = self.rules.len();
        let mut state = vec![0u8; n]; // 0 = unseen, 1 = open, 2 = done
        let mut order = Vec::with_capacity(n);
        // Nonterminal ids are u32 (`add_rule`): counted, not narrowed.
        for root in (0u32..).take(n) {
            if state[root as usize] == 2 {
                continue;
            }
            // Iterative DFS; stack holds (nt, next child index).
            let mut stack: Vec<(u32, Vec<u32>, usize)> =
                vec![(root, self.nt_children(root), 0)];
            state[root as usize] = 1;
            while let Some((nt, children, idx)) = stack.last_mut() {
                if *idx < children.len() {
                    let child = children[*idx];
                    *idx += 1;
                    match state[child as usize] {
                        0 => {
                            state[child as usize] = 1;
                            let grand = self.nt_children(child);
                            stack.push((child, grand, 0));
                        }
                        1 => {
                            return Err(format!(
                                "grammar is not straight-line: cycle through N{child}"
                            ))
                        }
                        _ => {}
                    }
                } else {
                    state[*nt as usize] = 2;
                    order.push(*nt);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Nonterminals referenced from `nt`'s right-hand side (with duplicates
    /// removed, in first-occurrence order).
    fn nt_children(&self, nt: u32) -> Vec<u32> {
        let mut seen = Vec::new();
        for e in self.rules[nt as usize].edges() {
            if let EdgeLabel::Nonterminal(i) = e.label {
                if !seen.contains(&i) {
                    seen.push(i);
                }
            }
        }
        seen
    }

    /// `height(G)`: the height of the ≤NT relation (1 + longest chain of
    /// nested nonterminal references; 0 for a rule-free grammar).
    pub fn height(&self) -> usize {
        let Ok(order) = self.topo_order_bottom_up() else {
            return usize::MAX;
        };
        let mut depth = vec![0usize; self.rules.len()];
        for &nt in &order {
            let d = self.rules[nt as usize]
                .edges()
                .filter_map(|e| match e.label {
                    EdgeLabel::Nonterminal(c) => Some(depth[c as usize]),
                    EdgeLabel::Terminal(_) => None,
                })
                .max()
                .unwrap_or(0);
            depth[nt as usize] = d + 1;
        }
        depth.into_iter().max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check the straight-line HR grammar invariants:
    /// * every graph passes [`Hypergraph::validate`],
    /// * the grammar-level ones of [`Grammar::validate_references`].
    pub fn validate(&self) -> Result<(), String> {
        self.start.validate().map_err(|e| format!("start graph: {e}"))?;
        for (i, rhs) in self.rules.iter().enumerate() {
            rhs.validate().map_err(|e| format!("rhs of N{i}: {e}"))?;
        }
        self.validate_references()
    }

    /// The grammar-level half of [`Grammar::validate`], for graphs whose
    /// own invariants hold by construction (as [`Hypergraph::from_edges`]
    /// guarantees them):
    /// * every edge's rank is at most [`Grammar::MAX_RANK`],
    /// * terminal labels are `< num_terminals`, nonterminal labels have
    ///   rules,
    /// * every nonterminal edge's rank equals its rule's rank
    ///   (`rank(A) = rank(rhs(A))`, Def. 1),
    /// * ≤NT is acyclic (Def. straight-line).
    pub fn validate_references(&self) -> Result<(), String> {
        let check_graph = |g: &Hypergraph| -> Result<(), String> {
            for e in g.edges() {
                if e.att.len() > Self::MAX_RANK {
                    return Err(format!(
                        "edge {} has rank {}: edge rank out of range (at most {})",
                        e.id,
                        e.att.len(),
                        Self::MAX_RANK
                    ));
                }
                match e.label {
                    EdgeLabel::Terminal(t) => {
                        if t >= self.num_terminals {
                            return Err(format!(
                                "edge {} has terminal label {t} >= |Σ| = {}",
                                e.id, self.num_terminals
                            ));
                        }
                    }
                    EdgeLabel::Nonterminal(i) => {
                        let Some(rhs) = self.rules.get(i as usize) else {
                            return Err(format!("edge {} references missing rule N{i}", e.id));
                        };
                        if rhs.rank() != e.att.len() {
                            return Err(format!(
                                "edge {} has rank {} but N{i} has rank {}",
                                e.id,
                                e.att.len(),
                                rhs.rank()
                            ));
                        }
                    }
                }
            }
            Ok(())
        };
        check_graph(&self.start).map_err(|e| format!("start graph: {e}"))?;
        for (i, rhs) in self.rules.iter().enumerate() {
            check_graph(rhs).map_err(|e| format!("rhs of N{i}: {e}"))?;
        }
        self.topo_order_bottom_up()?;
        Ok(())
    }

    /// Drop unreferenced rules and renumber nonterminals densely.
    /// Returns the old→new index mapping (`u32::MAX` for dropped rules).
    ///
    /// Only rules with `ref(A) = 0` are dropped — dropping a referenced rule
    /// would change the language, so inline first (see the pruner in
    /// `grepair-core`).
    pub fn drop_unreferenced_rules(&mut self) -> Vec<u32> {
        let refs = self.ref_counts();
        let mut mapping = vec![u32::MAX; self.rules.len()];
        let mut next = 0u32;
        for (i, &r) in refs.iter().enumerate() {
            if r > 0 {
                mapping[i] = next;
                next += 1;
            }
        }
        // Relabel in place: edge IDs must survive (provenance is keyed by
        // start-graph edge IDs).
        let relabel = |g: &mut Hypergraph, mapping: &[u32]| {
            let edits: Vec<_> = g
                .edges()
                .filter_map(|e| match e.label {
                    EdgeLabel::Nonterminal(i) => Some((e.id, mapping[i as usize])),
                    EdgeLabel::Terminal(_) => None,
                })
                .collect();
            for (id, new_label) in edits {
                debug_assert_ne!(new_label, u32::MAX, "edge references dropped rule");
                g.set_label(id, EdgeLabel::Nonterminal(new_label));
            }
        };
        let mut kept: Vec<Hypergraph> = Vec::with_capacity(next as usize);
        for (i, rhs) in std::mem::take(&mut self.rules).into_iter().enumerate() {
            if mapping[i] != u32::MAX {
                kept.push(rhs);
            }
        }
        self.rules = kept;
        relabel(&mut self.start, &mapping);
        for i in 0..self.rules.len() {
            let mut rhs = std::mem::take(&mut self.rules[i]);
            relabel(&mut rhs, &mapping);
            self.rules[i] = rhs;
        }
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};
    use grepair_hypergraph::NodeId;

    /// The grammar of Fig. 1a: S = A A A on a 4-node path, A → a·b digram
    /// (rank 2, one internal node).
    pub(crate) fn fig1_grammar() -> Grammar {
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[1, 2]);
        start.add_edge(N(0), &[2, 3]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 1]); // a: ext0 -> internal
        rhs.add_edge(T(1), &[1, 2]); // b: internal -> ext1
        rhs.set_ext(vec![0, 2]);
        let mut g = Grammar::new(start, 2);
        g.add_rule(rhs);
        g
    }

    #[test]
    fn fig1_is_valid() {
        fig1_grammar().validate().unwrap();
    }

    #[test]
    fn validate_bounds_edge_rank_by_the_container() {
        for rank in [Grammar::MAX_RANK, Grammar::MAX_RANK + 1] {
            let mut start = Hypergraph::with_nodes(rank);
            let nodes: Vec<NodeId> = (0..NodeId::try_from(rank).unwrap()).collect();
            start.add_edge(T(0), &nodes);
            let verdict = Grammar::new(start, 1).validate();
            if rank <= Grammar::MAX_RANK {
                verdict.unwrap();
            } else {
                let e = verdict.unwrap_err();
                assert!(e.contains("edge rank out of range"), "{e}");
            }
        }
    }

    #[test]
    fn fig1_sizes() {
        let g = fig1_grammar();
        // |S| = 4 nodes + 3 rank-2 edges = 7; |rhs(A)| = 3 + 2 = 5.
        assert_eq!(g.size(), 12);
        assert_eq!(g.node_size(), 7);
        assert_eq!(g.edge_size(), 5);
        assert_eq!(g.height(), 1);
    }

    #[test]
    fn handle_sizes() {
        assert_eq!(Grammar::handle_size(1), 2);
        assert_eq!(Grammar::handle_size(2), 3);
        assert_eq!(Grammar::handle_size(3), 6);
        assert_eq!(Grammar::handle_size(4), 8);
    }

    /// Reconstruction of the Fig. 6 pruning example: S has 9 nodes and four
    /// rank-2 A-edges; rhs(A) has 3 nodes (1 internal) and 2 edges.
    /// Then |rhs| = 5, |handle| = 3, ref = 4 and con(A) = 4·(5−3)−5 = 3.
    pub(crate) fn fig6_grammar() -> Grammar {
        let mut start = Hypergraph::with_nodes(9);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[2, 3]);
        start.add_edge(N(0), &[4, 5]);
        start.add_edge(N(0), &[6, 7]);
        // node 8 is shared context (keeps the graph honest, no edges needed)
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.add_edge(T(0), &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        g
    }

    #[test]
    fn fig6_contribution_is_three() {
        let g = fig6_grammar();
        let refs = g.ref_counts();
        assert_eq!(refs[0], 4);
        assert_eq!(g.contribution(0, refs[0]), 3);
    }

    #[test]
    fn contribution_of_singly_referenced_rule_is_negative() {
        // con(A) with ref = 1 is −|handle| < 0 (§III-A3).
        let g = fig6_grammar();
        assert_eq!(g.contribution(0, 1), -3);
    }

    #[test]
    fn topo_order_and_height_of_nested_rules() {
        // N1 references N0; S references N1.
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(2);
        rhs0.add_edge(T(0), &[0, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(2);
        rhs1.add_edge(N(0), &[0, 1]);
        rhs1.add_edge(T(0), &[1, 0]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        let order = g.topo_order_bottom_up().unwrap();
        assert!(order.iter().position(|&x| x == 0) < order.iter().position(|&x| x == 1));
        assert_eq!(g.height(), 2);
    }

    #[test]
    fn cyclic_grammar_is_rejected() {
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(0), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(2);
        rhs0.add_edge(N(1), &[0, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(2);
        rhs1.add_edge(N(0), &[0, 1]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        assert!(g.validate().is_err());
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let mut start = Hypergraph::with_nodes(3);
        start.add_edge(N(0), &[0, 1, 2]); // rank 3 edge
        let mut rhs = Hypergraph::with_nodes(2);
        rhs.add_edge(T(0), &[0, 1]);
        rhs.set_ext(vec![0, 1]); // rank 2 rule
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        let err = g.validate().unwrap_err();
        assert!(err.contains("rank"), "{err}");
    }

    #[test]
    fn out_of_alphabet_terminal_is_rejected() {
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(T(5), &[0, 1]);
        let g = Grammar::new(start, 2);
        assert!(g.validate().is_err());
    }

    #[test]
    fn drop_unreferenced_rules_renumbers() {
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut dead_rhs = Hypergraph::with_nodes(2);
        dead_rhs.add_edge(T(0), &[0, 1]);
        dead_rhs.set_ext(vec![0, 1]);
        let mut live_rhs = Hypergraph::with_nodes(2);
        live_rhs.add_edge(T(0), &[1, 0]);
        live_rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(dead_rhs); // N0: unreferenced
        g.add_rule(live_rhs); // N1: referenced from S
        let mapping = g.drop_unreferenced_rules();
        assert_eq!(mapping, vec![u32::MAX, 0]);
        assert_eq!(g.num_nonterminals(), 1);
        g.validate().unwrap();
        let labels: Vec<_> = g.start.edges().map(|e| e.label).collect();
        assert_eq!(labels, vec![N(0)]);
    }

    #[test]
    fn ref_counts_span_start_and_rules() {
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(2);
        rhs0.add_edge(T(0), &[0, 1]);
        rhs0.set_ext(vec![0, 1]);
        let mut rhs1 = Hypergraph::with_nodes(2);
        rhs1.add_edge(N(0), &[0, 1]);
        rhs1.add_edge(N(0), &[1, 0]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        assert_eq!(g.ref_counts(), vec![2, 1]);
    }
}
