//! Rule application and full derivation `val(G)`.

use crate::grammar::Grammar;
use grepair_hypergraph::{EdgeBuffer, EdgeId, EdgeLabel, Hypergraph, NodeId};

/// Result of inlining one nonterminal edge.
#[derive(Debug, Clone)]
pub struct InlineResult {
    /// Host nodes created for the rhs's internal nodes, in rhs node-ID order.
    pub created_nodes: Vec<NodeId>,
    /// Host edges created for the rhs's edges, in rhs edge-ID order.
    pub created_edges: Vec<EdgeId>,
}

/// Derive nonterminal edge `e` of `host` using `rhs` (§II: remove `e`, add a
/// disjoint copy of `rhs`, merge its i-th external node with the i-th
/// attached node of `e`).
///
/// New nodes are appended in rhs node-ID order and new edges in rhs edge-ID
/// order — the layout every provenance computation in this workspace relies
/// on.
///
/// # Panics
/// If `e` is not a nonterminal edge or ranks mismatch.
pub fn apply_rule(host: &mut Hypergraph, e: EdgeId, rhs: &Hypergraph) -> InlineResult {
    let att: Vec<NodeId> = host.att(e).to_vec();
    assert!(
        host.label(e).is_nonterminal(),
        "cannot derive terminal edge {e}"
    );
    assert_eq!(att.len(), rhs.rank(), "edge rank != rule rank");
    host.remove_edge(e);

    // Map rhs nodes to host nodes: externals merge with e's attachments,
    // internals become fresh host nodes (in rhs node-ID order).
    let mut node_map = vec![NodeId::MAX; rhs.node_bound()];
    for (i, &x) in rhs.ext().iter().enumerate() {
        node_map[x as usize] = att[i];
    }
    let mut created_nodes = Vec::new();
    for v in rhs.node_ids() {
        if node_map[v as usize] == NodeId::MAX {
            let nv = host.add_node();
            node_map[v as usize] = nv;
            created_nodes.push(nv);
        }
    }
    let mut created_edges = Vec::new();
    let mut att_buf: Vec<NodeId> = Vec::new();
    for redge in rhs.edges() {
        att_buf.clear();
        att_buf.extend(redge.att.iter().map(|&x| node_map[x as usize]));
        created_edges.push(host.add_edge(redge.label, &att_buf));
    }
    InlineResult { created_nodes, created_edges }
}

impl Grammar {
    /// Number of internal nodes `val(e)` creates for one edge labeled with
    /// each nonterminal, computed bottom-up without expanding anything.
    pub fn derived_internal_node_counts(&self) -> Vec<u64> {
        let order = self
            .topo_order_bottom_up()
            .expect("grammar must be straight-line");
        let mut counts = vec![0u64; self.num_nonterminals()];
        for nt in order {
            let rhs = self.rule(nt);
            let mut total = (rhs.num_nodes() - rhs.rank()) as u64;
            for e in rhs.edges() {
                if let EdgeLabel::Nonterminal(i) = e.label {
                    total += counts[i as usize];
                }
            }
            counts[nt as usize] = total;
        }
        counts
    }

    /// Number of terminal edges `val(e)` contains for one edge labeled with
    /// each nonterminal.
    pub fn derived_terminal_edge_counts(&self) -> Vec<u64> {
        self.derived_terminal_sizes().into_iter().map(|[edges, _]| edges).collect()
    }

    /// `[terminal edges, their attachment entries]` that `val(e)` contains
    /// for one edge labeled with each nonterminal.
    fn derived_terminal_sizes(&self) -> Vec<[u64; 2]> {
        let order = self
            .topo_order_bottom_up()
            .expect("grammar must be straight-line");
        let mut sizes = vec![[0u64; 2]; self.num_nonterminals()];
        for nt in order {
            sizes[nt as usize] = terminal_size(self.rule(nt), &sizes);
        }
        sizes
    }

    /// `|val(G)|V` without deriving.
    pub fn derived_node_count(&self) -> u64 {
        let internal = self.derived_internal_node_counts();
        let mut total = self.start.num_nodes() as u64;
        for e in self.start.edges() {
            if let EdgeLabel::Nonterminal(i) = e.label {
                total += internal[i as usize];
            }
        }
        total
    }

    /// `|val(G)|`'s terminal edge count without deriving.
    pub fn derived_edge_count(&self) -> u64 {
        terminal_size(&self.start, &self.derived_terminal_sizes())[0]
    }

    /// Compute `val(G)` with the paper's deterministic node IDs (§II end):
    /// the alive start-graph nodes first (in increasing ID order), then, for
    /// each nonterminal edge in edge-ID order, the nodes its derivation
    /// creates — internal nodes of the rhs first, nested nonterminal edges
    /// next, depth-first. Edges are numbered in the same depth-first order.
    ///
    /// The expansion appends to flat edge buffers, keeps one node map per
    /// open nonterminal on a single reused stack, and builds the graph once
    /// with [`Hypergraph::from_edges`].
    ///
    /// # Panics
    /// If the grammar is invalid: cyclic, with a missing rule or with a
    /// rank mismatch. Check untrusted grammars with [`Grammar::validate`]
    /// first.
    pub fn derive(&self) -> Hypergraph {
        let mut d = Derivation { edges: EdgeBuffer::new(), maps: Vec::new(), nodes: 0 };
        let [edges, atts] = terminal_size(&self.start, &self.derived_terminal_sizes());
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a pre-size hint: a truncated count only reserves less, and val(G) \
                      past usize edges could not be built anyway"
        )]
        d.edges.reserve(edges as usize, atts as usize);
        d.maps.resize(self.start.node_bound(), NodeId::MAX);
        for v in self.start.node_ids() {
            d.maps[v as usize] = d.nodes;
            d.nodes += 1;
        }
        self.expand_edges(&self.start, 0, &mut d);
        let Derivation { edges, nodes, .. } = d;
        Hypergraph::from_edges(nodes as usize, edges)
            .expect("val(G) of a valid grammar attaches distinct derived nodes")
    }

    /// Append the derivation of `g`'s edges, whose nodes map to output IDs
    /// through `d.maps[base..]`.
    fn expand_edges(&self, g: &Hypergraph, base: usize, d: &mut Derivation) {
        for e in g.edges() {
            let EdgeLabel::Nonterminal(nt) = e.label else {
                d.edges.push(e.label, e.att.iter().map(|&x| d.maps[base + x as usize]));
                continue;
            };
            let rhs = self.rule(nt);
            assert_eq!(e.att.len(), rhs.rank(), "edge rank != rule rank");
            // The rhs's frame: externals merge with the edge's attachment,
            // internal nodes are fresh, in rhs node-ID order.
            let frame = d.maps.len();
            d.maps.resize(frame + rhs.node_bound(), NodeId::MAX);
            for (&x, &a) in rhs.ext().iter().zip(e.att) {
                d.maps[frame + x as usize] = d.maps[base + a as usize];
            }
            for v in rhs.node_ids() {
                let slot = &mut d.maps[frame + v as usize];
                if *slot == NodeId::MAX {
                    *slot = d.nodes;
                    d.nodes += 1;
                }
            }
            self.expand_edges(rhs, frame, d);
            d.maps.truncate(frame);
        }
    }
}

/// `[terminal edges, their attachment entries]` that deriving every edge of
/// `g` yields, given `sizes` per nonterminal.
fn terminal_size(g: &Hypergraph, sizes: &[[u64; 2]]) -> [u64; 2] {
    g.edges().fold([0, 0], |[edges, atts], e| match e.label {
        EdgeLabel::Terminal(_) => [edges + 1, atts + e.att.len() as u64],
        EdgeLabel::Nonterminal(i) => {
            let [n, a] = sizes[i as usize];
            [edges + n, atts + a]
        }
    })
}

/// The state of one [`Grammar::derive`]: the edges so far, the node maps of
/// the start graph and of every open nonterminal (stacked), and the number
/// of output nodes.
struct Derivation {
    edges: EdgeBuffer,
    maps: Vec<NodeId>,
    nodes: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::{Nonterminal as N, Terminal as T};

    fn fig1_grammar() -> Grammar {
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
    fn fig1_full_derivation() {
        // Fig. 1b: applying the A-rule three times yields the terminal graph
        // with three a- and three b-edges: 0 →a 4 →b 1 →a 5 →b 2 →a 6 →b 3.
        let g = fig1_grammar();
        let derived = g.derive();
        assert_eq!(derived.num_nodes(), 7);
        assert_eq!(derived.num_edges(), 6);
        let expect = vec![
            (T(0), vec![0, 4]),
            (T(0), vec![1, 5]),
            (T(0), vec![2, 6]),
            (T(1), vec![4, 1]),
            (T(1), vec![5, 2]),
            (T(1), vec![6, 3]),
        ];
        assert_eq!(derived.edge_multiset(), expect);
    }

    #[test]
    fn derived_counts_match_derivation() {
        let g = fig1_grammar();
        assert_eq!(g.derived_node_count(), 7);
        assert_eq!(g.derived_edge_count(), 6);
        assert_eq!(g.derived_internal_node_counts(), vec![1]);
        assert_eq!(g.derived_terminal_edge_counts(), vec![2]);
    }

    #[test]
    fn fig6_id_assignment() {
        // Fig. 7: a 9-node start graph with four rank-2 A-edges derives a
        // 13-node graph; the nodes created by the A-edges (in edge order)
        // are numbered 9, 10, 11, 12 (0-based; 10..13 in the paper).
        let mut start = Hypergraph::with_nodes(9);
        start.add_edge(N(0), &[0, 1]);
        start.add_edge(N(0), &[2, 3]);
        start.add_edge(N(0), &[4, 5]);
        start.add_edge(N(0), &[6, 7]);
        let mut rhs = Hypergraph::with_nodes(3);
        rhs.add_edge(T(0), &[0, 2]);
        rhs.add_edge(T(0), &[2, 1]);
        rhs.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        let derived = g.derive();
        assert_eq!(derived.num_nodes(), 13);
        assert_eq!(derived.num_edges(), 8);
        // First A-edge's internal node is 9 and carries edges 0→9→1, etc.
        for (mid, (s, t)) in (9u32..).zip([(0u32, 1u32), (2, 3), (4, 5), (6, 7)]) {
            let ms = derived.edge_multiset();
            assert!(ms.contains(&(T(0), vec![s, mid])), "missing {s}->{mid}");
            assert!(ms.contains(&(T(0), vec![mid, t])), "missing {mid}->{t}");
        }
        // |G| = |S| + |rhs| = (9+4) + (3+2) = 18; |val| = 13 + 8 = 21;
        // they differ by exactly con(A) = 3 — the paper's Fig. 6 check.
        assert_eq!(derived.total_size() - g.size(), 3);
    }

    #[test]
    fn nested_rules_expand_depth_first() {
        // S holds one N1-edge; N1 → N0 · c; N0 → a · b. The derivation is
        // depth-first, so N1's internal node (2) is created before N0's (3).
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(N(1), &[0, 1]);
        let mut rhs0 = Hypergraph::with_nodes(3);
        rhs0.add_edge(T(0), &[0, 1]);
        rhs0.add_edge(T(1), &[1, 2]);
        rhs0.set_ext(vec![0, 2]);
        let mut rhs1 = Hypergraph::with_nodes(3);
        rhs1.add_edge(N(0), &[0, 2]);
        rhs1.add_edge(T(2), &[2, 1]);
        rhs1.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        let derived = g.derive();
        // Nodes: 0, 1 from S; 2 = N1's internal; 3 = N0's internal.
        assert_eq!(derived.num_nodes(), 4);
        let expect = vec![
            (T(0), vec![0, 3]),
            (T(1), vec![3, 2]),
            (T(2), vec![2, 1]),
        ];
        assert_eq!(derived.edge_multiset(), expect);
        assert_eq!(g.derived_node_count(), 4);
        assert_eq!(g.derived_edge_count(), 3);
    }

    #[test]
    fn derive_numbers_nodes_and_edges_depth_first_over_dead_slots() {
        // N0 → T0 · T1 through internal node 3 (slot 1 dead); N1 (rank 3)
        // → N0, a T2 hyperedge, N0 again. S (slot 1 dead) holds T0, N1, T1.
        let mut rhs0 = Hypergraph::with_nodes(4);
        rhs0.remove_node(1);
        rhs0.add_edge(T(0), &[0, 3]);
        rhs0.add_edge(T(1), &[3, 2]);
        rhs0.set_ext(vec![0, 2]);
        let mut rhs1 = Hypergraph::with_nodes(4);
        rhs1.add_edge(N(0), &[0, 3]);
        rhs1.add_edge(T(2), &[3, 1, 2]);
        rhs1.add_edge(N(0), &[3, 2]);
        rhs1.set_ext(vec![0, 1, 2]);
        let mut start = Hypergraph::with_nodes(5);
        start.remove_node(1);
        start.add_edge(T(0), &[0, 2]);
        start.add_edge(N(1), &[2, 3, 4]);
        start.add_edge(T(1), &[4, 0]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs0);
        g.add_rule(rhs1);
        g.validate().unwrap();
        let derived = g.derive();
        derived.validate().unwrap();
        // S's nodes 0, 2, 3, 4 are 0–3; N1's internal node is 4, the first
        // N0's 5, the second N0's 6.
        assert_eq!(derived.node_bound(), 7);
        let edges: Vec<_> = derived.edges().map(|e| (e.label, e.att.to_vec())).collect();
        let want = [
            (T(0), vec![0, 1]),
            (T(0), vec![1, 5]),
            (T(1), vec![5, 4]),
            (T(2), vec![4, 2, 3]),
            (T(0), vec![4, 6]),
            (T(1), vec![6, 3]),
            (T(1), vec![3, 0]),
        ];
        assert_eq!(edges, want);
        let incidence: Vec<Vec<EdgeId>> = (0..7).map(|v| derived.incident(v).collect()).collect();
        let want: [&[EdgeId]; 7] =
            [&[0, 6], &[0, 1], &[3], &[3, 5, 6], &[2, 3, 4], &[1, 2], &[4, 5]];
        assert_eq!(incidence, want);
    }

    #[test]
    fn apply_rule_merges_externals() {
        let g = fig1_grammar();
        let mut host = g.start.clone();
        let result = apply_rule(&mut host, 0, g.rule(0));
        assert_eq!(result.created_nodes, vec![4]);
        assert_eq!(result.created_edges.len(), 2);
        assert_eq!(host.num_edges(), 4); // 2 A-edges + a + b
        assert_eq!(host.att(result.created_edges[0]), &[0, 4]);
        assert_eq!(host.att(result.created_edges[1]), &[4, 1]);
        host.validate().unwrap();
    }

    #[test]
    fn apply_rule_with_hyperedge_rhs() {
        let mut start = Hypergraph::with_nodes(3);
        start.add_edge(N(0), &[0, 1, 2]);
        let mut rhs = Hypergraph::with_nodes(4);
        rhs.add_edge(T(0), &[0, 1, 3]); // hyperedge touching internal node 3
        rhs.add_edge(T(0), &[3, 2]);
        rhs.set_ext(vec![0, 1, 2]);
        let mut g = Grammar::new(start, 1);
        g.add_rule(rhs);
        g.validate().unwrap();
        let derived = g.derive();
        assert_eq!(derived.num_nodes(), 4);
        let ms = derived.edge_multiset();
        assert!(ms.contains(&(T(0), vec![0, 1, 3])));
        assert!(ms.contains(&(T(0), vec![3, 2])));
    }

    #[test]
    #[should_panic(expected = "cannot derive terminal edge")]
    fn apply_rule_on_terminal_panics() {
        let mut host = Hypergraph::with_nodes(2);
        let e = host.add_edge(T(0), &[0, 1]);
        let mut rhs = Hypergraph::with_nodes(2);
        rhs.set_ext(vec![0, 1]);
        apply_rule(&mut host, e, &rhs);
    }

    #[test]
    fn string_repair_style_chain() {
        // Classic string RePair: S → BBB, B → Ac, A → ab over a path graph,
        // i.e. val(G) is the string graph of (abc)^3.
        let mut start = Hypergraph::with_nodes(4);
        start.add_edge(N(1), &[0, 1]);
        start.add_edge(N(1), &[1, 2]);
        start.add_edge(N(1), &[2, 3]);
        let mut rhs_a = Hypergraph::with_nodes(3); // A → a b
        rhs_a.add_edge(T(0), &[0, 2]);
        rhs_a.add_edge(T(1), &[2, 1]);
        rhs_a.set_ext(vec![0, 1]);
        let mut rhs_b = Hypergraph::with_nodes(3); // B → A c
        rhs_b.add_edge(N(0), &[0, 2]);
        rhs_b.add_edge(T(2), &[2, 1]);
        rhs_b.set_ext(vec![0, 1]);
        let mut g = Grammar::new(start, 3);
        g.add_rule(rhs_a);
        g.add_rule(rhs_b);
        g.validate().unwrap();
        assert_eq!(g.height(), 2);
        let derived = g.derive();
        assert_eq!(derived.num_nodes(), 10); // 4 + 3·2
        assert_eq!(derived.num_edges(), 9);
        // Walk the path reading labels: must spell (a b c)^3.
        let mut v = 0u32;
        let mut word = Vec::new();
        while let Some(e) = derived.incident(v).find(|&e| derived.att(e)[0] == v) {
            word.push(derived.label(e).index());
            v = derived.att(e)[1];
        }
        assert_eq!(word, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }
}
