//! The SCC condensation of a digraph, labelled so that "does `a` reach
//! `b`?" is a few integer comparisons for almost every pair.
//!
//! Built once per context graph by [`crate::ReachIndex`]: Tarjan assigns
//! every node slot a component, the edges between components form a DAG, and
//! each component of the DAG carries
//!
//! * its **rank** — Tarjan's component id itself, which is reverse
//!   topological: an edge leads from a larger id to a smaller one;
//! * two **interval labels** `[low, post]` (GRAIL — Yıldırım, Chaoji & Zaki,
//!   VLDB 2010): `post` is the component's post-order number in a DFS of the
//!   DAG, `low` the smallest post-order number of anything it reaches. Two
//!   deterministic traversals, no RNG: Tarjan's own, which took successors
//!   in stored order and whose post-order numbers *are* the ranks (so only
//!   `low` is computed and stored for it), and one more that takes roots and
//!   children in reverse;
//! * the second traversal's **tree interval** `[tree_low, post]`: the
//!   post-order numbers handed out while the component was open, i.e. its
//!   descendants in that traversal's spanning forest.
//!
//! `a ⇝ b` implies `rank(a) > rank(b)` and both of `b`'s intervals nested in
//! `a`'s, so a failed comparison answers *no*; `post(b)` inside `a`'s tree
//! interval answers *yes*. What the labels leave open goes to a DFS over the
//! DAG that prunes with the same comparisons. The labels only ever filter:
//! every answer is exact.

use grepair_hypergraph::traverse::{tarjan_scc, Csr};
use grepair_hypergraph::NodeId;
use grepair_util::FxHashSet;

/// What one reachability query did, returned by value from
/// [`crate::ReachIndex::try_reachable_counted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachWork {
    /// Node pairs put to a context's labels.
    pub pair_tests: u32,
    /// Condensation-DAG nodes expanded by searches the labels left open.
    pub dag_nodes: u32,
}

/// Two `[low, post]` intervals and a tree interval. The first interval's
/// `post` is the component id itself and is not stored.
#[derive(Debug, Clone, Copy)]
struct Label {
    low: u32,
    low_rev: u32,
    post_rev: u32,
    tree_low: u32,
}

/// A digraph reduced to what reachability needs: 4 bytes per node slot, and
/// per component 16 bytes of labels plus its row of the DAG.
#[derive(Debug, Default)]
pub(crate) struct Condensation {
    /// Component of each node slot.
    comp: Vec<u32>,
    /// Component → the components its edges lead to, no repeats.
    dag: Csr,
    labels: Vec<Label>,
}

impl Condensation {
    /// Condense the digraph on node slots `0..n` with the given edges. The
    /// edge list is scratch: it comes back holding the edges between
    /// components, repeats included.
    pub(crate) fn new(n: usize, edges: &mut Vec<(u32, u32)>) -> Self {
        let (comp, components) = tarjan_scc(&Csr::from_edges(n, edges));
        edges.retain_mut(|(a, b)| {
            (*a, *b) = (comp[*a as usize], comp[*b as usize]);
            a != b
        });
        let mut dag = Csr::from_edges(components, edges);
        dag.dedup_successors();
        let labels = label(&dag);
        Self { comp, dag, labels }
    }

    /// Component of node slot `v`.
    pub(crate) fn component(&self, v: NodeId) -> u32 {
        self.comp[v as usize]
    }

    /// The condensation DAG over components.
    pub(crate) fn dag(&self) -> &Csr {
        &self.dag
    }

    /// Is node `b` reachable from node `a` (every node reaches itself)?
    pub(crate) fn reaches(&self, a: NodeId, b: NodeId, work: &mut ReachWork) -> bool {
        work.pair_tests += 1;
        let (a, b) = (self.component(a), self.component(b));
        a == b || (self.may_reach(a, b) && (self.tree_reaches(a, b) || self.search(a, b, work)))
    }

    /// The negative cuts, for components `a != b`: false only if `a` does
    /// not reach `b`.
    fn may_reach(&self, a: u32, b: u32) -> bool {
        let (la, lb) = (&self.labels[a as usize], &self.labels[b as usize]);
        a > b && la.low <= lb.low && la.low_rev <= lb.low_rev && lb.post_rev < la.post_rev
    }

    /// The positive cut: true only if `b` hangs below `a` in the second
    /// traversal's spanning forest.
    fn tree_reaches(&self, a: u32, b: u32) -> bool {
        let (la, lb) = (&self.labels[a as usize], &self.labels[b as usize]);
        la.tree_low <= lb.post_rev && lb.post_rev < la.post_rev
    }

    /// DFS from component `a` for component `b` through the children the
    /// cuts cannot rule out.
    fn search(&self, a: u32, b: u32, work: &mut ReachWork) -> bool {
        let mut seen = FxHashSet::default();
        let mut stack = vec![a];
        while let Some(c) = stack.pop() {
            work.dag_nodes += 1;
            for &d in self.dag.succ(c) {
                if d == b {
                    return true;
                }
                if !self.may_reach(d, b) {
                    continue;
                }
                if self.tree_reaches(d, b) {
                    return true;
                }
                if seen.insert(d) {
                    stack.push(d);
                }
            }
        }
        false
    }
}

/// The interval labellings of a DAG whose edges lead from larger to smaller
/// ids. The ids are Tarjan's, hence already the post-order numbers of one
/// DFS (his, successors in stored order): that traversal's `low` is one
/// ascending sweep, every child being labelled before its parents. The
/// second traversal is run here.
fn label(dag: &Csr) -> Vec<Label> {
    let [post_rev, low_rev, tree_low] = number_reversed(dag);
    let mut labels: Vec<Label> = Vec::with_capacity(dag.num_nodes());
    for c in 0..dag.num_nodes() {
        let reached = dag.succ(c as u32).iter().map(|&d| labels[d as usize].low);
        labels.push(Label {
            low: reached.fold(c as u32, u32::min),
            low_rev: low_rev[c],
            post_rev: post_rev[c],
            tree_low: tree_low[c],
        });
    }
    labels
}

/// One DFS over the whole DAG, roots and children in reverse of Tarjan's
/// order. Per node: its post-order number, the smallest post-order number of
/// anything it reaches, and the first number handed out below it.
/// Iterative: a frame is a node and its children still to take.
fn number_reversed(dag: &Csr) -> [Vec<u32>; 3] {
    const OPEN: u32 = u32::MAX;
    let n = dag.num_nodes();
    let (mut post, mut low, mut entered) = (vec![OPEN; n], vec![OPEN; n], vec![OPEN; n]);
    let mut frames: Vec<(u32, &[u32])> = Vec::new();
    let mut next_post = 0u32;
    // Descending ids meet every source before anything it reaches, so a node
    // without a number here is a root of the spanning forest. A DAG never
    // leads back into an open node: no number means unvisited.
    for root in (0..n as u32).rev() {
        if post[root as usize] != OPEN {
            continue;
        }
        frames.push((root, dag.succ(root)));
        while let Some((c, rest)) = frames.last_mut() {
            let c = *c as usize;
            if entered[c] == OPEN {
                // Whatever finishes while `c` is open is numbered from here
                // on, `c` itself last: its own number bounds `low` no better.
                entered[c] = next_post;
                low[c] = next_post;
            }
            if let Some((&d, others)) = rest.split_last() {
                *rest = others;
                if post[d as usize] == OPEN {
                    frames.push((d, dag.succ(d)));
                } else {
                    low[c] = low[c].min(low[d as usize]);
                }
                continue;
            }
            post[c] = next_post;
            next_post += 1;
            frames.pop();
            if let Some(&(p, _)) = frames.last() {
                low[p as usize] = low[p as usize].min(low[c]);
            }
        }
    }
    [post, low, entered]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Everything `a` reaches, by BFS over the plain successor lists.
    fn closure(g: &Csr, a: u32) -> Vec<bool> {
        let mut seen = vec![false; g.num_nodes()];
        seen[a as usize] = true;
        let mut queue = vec![a];
        while let Some(v) = queue.pop() {
            for &w in g.succ(v) {
                if !std::mem::replace(&mut seen[w as usize], true) {
                    queue.push(w);
                }
            }
        }
        seen
    }

    /// `reaches` ≡ BFS from every listed source to every node, and the
    /// soundness of the cuts stated directly: whatever BFS reaches passes
    /// every negative cut. Returns the work all the pair tests did.
    fn check(n: usize, edges: &[(u32, u32)], sources: impl Iterator<Item = u32>) -> ReachWork {
        let g = Csr::from_edges(n, edges);
        let c = Condensation::new(n, &mut edges.to_vec());
        let mut work = ReachWork::default();
        for a in sources {
            let want = closure(&g, a);
            for b in 0..n as u32 {
                assert_eq!(c.reaches(a, b, &mut work), want[b as usize], "reaches({a}, {b})");
                let (ca, cb) = (c.component(a), c.component(b));
                if want[b as usize] && ca != cb {
                    assert!(c.may_reach(ca, cb), "a cut wrongly rules out {a} ⇝ {b}");
                }
                if ca != cb && c.tree_reaches(ca, cb) {
                    assert!(want[b as usize], "the tree interval wrongly claims {a} ⇝ {b}");
                }
            }
        }
        work
    }

    #[test]
    fn random_digraphs_with_planted_cycles() {
        let mut rng = StdRng::seed_from_u64(17);
        for round in 0..24 {
            let n = rng.gen_range(50..=400usize);
            // Sparse enough to stay far from one giant component, then a few
            // cycles so that components are not all singletons.
            let mut edges: Vec<(u32, u32)> = (0..n + n / 4)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            for _ in 0..round % 5 {
                let len = rng.gen_range(2..=8usize);
                let cycle: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
                edges.extend((0..len).map(|i| (cycle[i], cycle[(i + 1) % len])));
            }
            let c = Condensation::new(n, &mut edges.clone());
            assert!(round % 5 == 0 || c.dag().num_nodes() < n, "planted cycles merge nodes");
            check(n, &edges, 0..n as u32);
        }
    }

    #[test]
    fn grid_dag_falls_back_to_the_search() {
        // Every cell reaches exactly the cells right of and below it, along
        // binomially many paths: no pair of DFS orders nests that relation,
        // so the search decides part of it — and must agree with BFS.
        let (w, h) = (14u32, 11u32);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((y * w + x, y * w + x + 1));
                }
                if y + 1 < h {
                    edges.push((y * w + x, (y + 1) * w + x));
                }
            }
        }
        let n = (w * h) as usize;
        let work = check(n, &edges, 0..n as u32);
        assert_eq!(work.pair_tests as usize, n * n);
        assert!(work.dag_nodes > 0, "the labels alone cannot decide a grid");
    }

    #[test]
    fn stacked_complete_bipartite_layers() {
        let (layers, width) = (6u32, 9u32);
        let mut edges = Vec::new();
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    edges.push((l * width + a, (l + 1) * width + b));
                }
            }
        }
        let n = (layers * width) as usize;
        check(n, &edges, 0..n as u32);
    }

    #[test]
    fn long_chain_needs_no_call_stack() {
        // A legal container can hold a path this long: Tarjan, the two
        // labelling traversals and the search all keep their frames on the
        // heap. On a chain the tree interval decides every pair.
        let n = 200_000u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let c = Condensation::new(n as usize, &mut edges);
        assert_eq!(c.dag().num_nodes(), n as usize);
        let mut rng = StdRng::seed_from_u64(3);
        let mut work = ReachWork::default();
        for _ in 0..10_000 {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            assert_eq!(c.reaches(a, b, &mut work), a <= b, "reaches({a}, {b})");
        }
        assert_eq!(work.dag_nodes, 0);
        // The same chain closed into one cycle is one component.
        let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let c = Condensation::new(n as usize, &mut edges);
        assert_eq!(c.dag().num_nodes(), 1);
        assert!(c.reaches(n - 1, 0, &mut work) && edges.is_empty());
    }
}
