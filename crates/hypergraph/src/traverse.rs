//! Traversals and decompositions: BFS, connected components (union-find),
//! and Tarjan's strongly connected components over a [`Csr`] digraph (what
//! the reachability index of Theorem 6 condenses every context graph with).

use crate::graph::{Hypergraph, NodeId};

/// Breadth-first visit order over the undirected view of the graph
/// (a hyperedge connects all its attached nodes). Components are entered in
/// natural order of their smallest node ID, which makes the order
/// deterministic.
pub fn bfs_order(g: &Hypergraph) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(g.num_nodes());
    let mut seen = vec![false; g.node_bound()];
    let mut queue = std::collections::VecDeque::new();
    for start in g.node_ids() {
        if seen[start as usize] {
            continue;
        }
        seen[start as usize] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for e in g.incident(v) {
                for &u in g.att(e) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
        }
    }
    order
}

/// Disjoint-set forest with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    ///
    /// # Panics
    /// If `n` exceeds `u32::MAX`: elements are `u32`.
    pub fn new(n: usize) -> Self {
        let elements = u32::try_from(n).expect("union-find elements are u32");
        Self { parent: (0..elements).collect(), size: vec![1; n], components: n }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Number of disjoint sets (over the full universe `0..n`).
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// Connected components over the undirected view.
///
/// Returns `(component_id per node slot, number of components)`; dead node
/// slots get `u32::MAX`. Component IDs are dense and ordered by smallest
/// member.
pub fn connected_components(g: &Hypergraph) -> (Vec<u32>, usize) {
    let n = g.node_bound();
    let mut uf = UnionFind::new(n);
    for e in g.edges() {
        for w in e.att.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    let mut ids = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut rep_to_id = vec![u32::MAX; n];
    for v in g.node_ids() {
        let r = uf.find(v) as usize;
        if rep_to_id[r] == u32::MAX {
            rep_to_id[r] = next;
            next += 1;
        }
        ids[v as usize] = rep_to_id[r];
    }
    (ids, next as usize)
}

/// Successor lists of a digraph on nodes `0..num_nodes()` in compressed
/// sparse row form: two flat arrays, no per-node allocation. Parallel edges
/// are kept as given.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s successors.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// The digraph on `0..n` with the given `(source, target)` edges. A
    /// node's successors keep the order the edges were listed in.
    ///
    /// # Panics
    /// If `n ≥ u32::MAX` or there are more than `u32::MAX` edges: nodes and
    /// offsets are `u32`, and `u32::MAX` stays free as a sentinel.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        assert!(
            n < u32::MAX as usize && u32::try_from(edges.len()).is_ok(),
            "a Csr has fewer than 2^32 - 1 nodes and at most 2^32 - 1 edges"
        );
        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in edges {
            offsets[a as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `offsets[v]` doubles as `v`'s write cursor during the fill, which
        // leaves every entry one node ahead; the shift afterwards undoes it.
        let mut targets = vec![0u32; edges.len()];
        for &(a, b) in edges {
            targets[offsets[a as usize] as usize] = b;
            offsets[a as usize] += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        Self { offsets, targets }
    }

    /// Drop every repeated successor, keeping the first of each: O(n + m),
    /// no sort.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "v < num_nodes() < u32::MAX, and kept never passes the u32 offset it \
                  overwrites (both bounds asserted by Csr::from_edges)"
    )]
    pub fn dedup_successors(&mut self) {
        // `row_of[w]` = the last row that kept `w`.
        let mut row_of = vec![u32::MAX; self.num_nodes()];
        let mut kept = 0usize;
        for v in 0..self.num_nodes() {
            let row = self.offsets[v] as usize..self.offsets[v + 1] as usize;
            self.offsets[v] = kept as u32;
            for i in row {
                let w = self.targets[i];
                if std::mem::replace(&mut row_of[w as usize], v as u32) != v as u32 {
                    self.targets[kept] = w;
                    kept += 1;
                }
            }
        }
        if let Some(end) = self.offsets.last_mut() {
            *end = kept as u32;
        }
        self.targets.truncate(kept);
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Successors of `v`.
    pub fn succ(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Tarjan's strongly connected components of a digraph, iteratively: a DFS
/// frame is a node and the slice of its successors still to take, so depth
/// costs heap, not call stack, and no frame owns an allocation.
///
/// Returns `(scc_id per node, number of SCCs)`; SCC IDs are in reverse
/// topological order (an edge u→v implies `scc[u] >= scc[v]`), which is the
/// order Tarjan emits and exactly what bottom-up reachability wants.
pub fn tarjan_scc(g: &Csr) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut index = vec![u32::MAX; n]; // discovery index
    let mut low = vec![0u32; n];
    // A discovered node without an SCC yet is exactly a node on `stack`.
    let mut scc = vec![u32::MAX; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, &[u32])> = Vec::new();
    let mut next_index = 0u32;
    let mut next_scc = 0u32;

    for root in (0..).take(n) {
        if index[root as usize] != u32::MAX {
            continue;
        }
        frames.push((root, g.succ(root)));
        while let Some((v, rest)) = frames.last_mut() {
            let v = *v;
            if index[v as usize] == u32::MAX {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
            }
            if let Some((&w, others)) = rest.split_first() {
                *rest = others;
                if index[w as usize] == u32::MAX {
                    frames.push((w, g.succ(w)));
                } else if scc[w as usize] == u32::MAX {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
                continue;
            }
            frames.pop();
            if low[v as usize] == index[v as usize] {
                loop {
                    let w = stack.pop().expect("an SCC's root is on the stack");
                    scc[w as usize] = next_scc;
                    if w == v {
                        break;
                    }
                }
                next_scc += 1;
            }
            if let Some(&(p, _)) = frames.last() {
                low[p as usize] = low[p as usize].min(low[v as usize]);
            }
        }
    }
    (scc, next_scc as usize)
}

/// Plain BFS reachability on the directed rank-2 view: is `t` reachable
/// from `s`? The uncompressed baseline for Theorem 6's algorithm.
pub fn reachable(g: &Hypergraph, s: NodeId, t: NodeId) -> bool {
    if s == t {
        return true;
    }
    let mut seen = vec![false; g.node_bound()];
    seen[s as usize] = true;
    let mut queue = std::collections::VecDeque::from([s]);
    while let Some(v) = queue.pop_front() {
        for u in g.out_neighbors(v) {
            if u == t {
                return true;
            }
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Hypergraph;
    use crate::label::EdgeLabel;

    fn simple(n: usize, edges: &[(u32, u32)]) -> Hypergraph {
        let (g, dropped) =
            Hypergraph::from_simple_edges(n, edges.iter().map(|&(s, t)| (s, 0, t)));
        assert_eq!(dropped, 0);
        g
    }

    #[test]
    fn bfs_visits_each_alive_node_once() {
        let g = simple(6, &[(0, 1), (1, 2), (3, 4)]);
        let order = bfs_order(&g);
        assert_eq!(order.len(), 6);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // Component of 0 comes first, then 3's component, then isolated 5.
        assert_eq!(order[0], 0);
        assert!(order.iter().position(|&v| v == 3).unwrap() > order.iter().position(|&v| v == 2).unwrap());
    }

    #[test]
    fn bfs_layers_before_depth() {
        // star: 0 -> 1,2,3 ; 1 -> 4
        let g = simple(5, &[(0, 1), (0, 2), (0, 3), (1, 4)]);
        let order = bfs_order(&g);
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(4) > pos(2) && pos(4) > pos(3));
    }

    #[test]
    fn components_counts_hyperedges_as_cliques() {
        let mut g = Hypergraph::with_nodes(5);
        g.add_edge(EdgeLabel::Nonterminal(0), &[0, 1, 2]);
        g.add_edge(EdgeLabel::Terminal(0), &[3, 4]);
        let (ids, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[1], ids[2]);
        assert_eq!(ids[3], ids[4]);
        assert_ne!(ids[0], ids[3]);
    }

    #[test]
    fn components_isolated_nodes() {
        let g = Hypergraph::with_nodes(3);
        let (_, count) = connected_components(&g);
        assert_eq!(count, 3);
    }

    #[test]
    fn csr_keeps_listed_order_and_drops_parallel_edges_on_request() {
        let g = Csr::from_edges(4, &[(2, 1), (0, 3), (2, 0), (0, 1), (2, 1)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.succ(0), &[3, 1]);
        assert_eq!(g.succ(1), &[] as &[u32]);
        assert_eq!(g.succ(2), &[1, 0, 1]);
        assert_eq!(g.succ(3), &[] as &[u32]);
        let mut g = g;
        g.dedup_successors();
        assert_eq!((g.succ(0), g.succ(1), g.succ(2), g.succ(3)), (&[3, 1][..], &[][..], &[1, 0][..], &[][..]));
        assert_eq!(Csr::default().num_nodes(), 0);
        Csr::default().dedup_successors();
        assert_eq!(tarjan_scc(&Csr::from_edges(0, &[])), (Vec::new(), 0));
    }

    #[test]
    fn scc_cycle_and_tail() {
        // 0 -> 1 -> 2 -> 0 (one SCC), 2 -> 3 (singleton)
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let (scc, count) = tarjan_scc(&g);
        assert_eq!(count, 2);
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[1], scc[2]);
        assert_ne!(scc[0], scc[3]);
        // Reverse topological: the sink {3} is emitted first.
        assert!(scc[3] < scc[0]);
    }

    #[test]
    fn scc_dag_is_all_singletons() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (scc, count) = tarjan_scc(&g);
        assert_eq!(count, 4);
        // Reverse topological, parallel edges and self-loops change nothing.
        assert!(scc[0] > scc[1] && scc[0] > scc[2] && scc[1] > scc[3] && scc[2] > scc[3]);
        let noisy = Csr::from_edges(4, &[(0, 1), (0, 1), (0, 2), (1, 1), (1, 3), (2, 3), (2, 3)]);
        assert_eq!(tarjan_scc(&noisy), (scc, 4));
    }

    #[test]
    fn scc_two_cycles_bridge() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]);
        let (scc, count) = tarjan_scc(&g);
        assert_eq!(count, 3); // {0,1}, {2,3,4}, {5}
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[2], scc[3]);
        assert_eq!(scc[3], scc[4]);
    }

    #[test]
    fn scc_deep_path_no_stack_overflow() {
        let edges: Vec<(u32, u32)> = (0..200_000u32).map(|i| (i, i + 1)).collect();
        let g = Csr::from_edges(200_001, &edges);
        let (_, count) = tarjan_scc(&g);
        assert_eq!(count, 200_001);
    }

    #[test]
    fn reachability_matches_intuition() {
        let g = simple(5, &[(0, 1), (1, 2), (3, 2)]);
        assert!(reachable(&g, 0, 2));
        assert!(!reachable(&g, 2, 0));
        assert!(!reachable(&g, 0, 3));
        assert!(reachable(&g, 4, 4));
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.find(0), uf.find(1));
    }
}
