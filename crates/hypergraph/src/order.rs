//! Node orders (§III-B1).
//!
//! The greedy occurrence counting of gRePair traverses the nodes in a fixed
//! order ω, which "strongly influences the digram counting". The paper
//! evaluates: the **natural** order (node IDs as given), a **random** order,
//! **BFS** order, **FP0** (order by node degree — the 0th step of the
//! fixpoint), and **FP** — a fixpoint computation on node neighborhoods
//! starting from the degrees (Fig. 8), i.e. color refinement / 1-WL.
//!
//! FP also induces the equivalence relation ≅FP (same final color); the
//! number of its classes is reported for every dataset (Tables I–III) and
//! correlates with compression (Fig. 11).

use crate::graph::{Hypergraph, NodeId};
use crate::traverse::bfs_order;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which node order the compressor follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOrder {
    /// Node IDs as given.
    Natural,
    /// Uniformly random permutation from the given seed.
    Random(u64),
    /// Breadth-first order (undirected view, components by smallest ID).
    Bfs,
    /// Degree order — the paper's FP0.
    Fp0,
    /// Fixpoint neighborhood refinement — the paper's FP.
    Fp,
}

impl std::fmt::Display for NodeOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeOrder::Natural => write!(f, "Natural"),
            NodeOrder::Random(_) => write!(f, "Random"),
            NodeOrder::Bfs => write!(f, "BFS"),
            NodeOrder::Fp0 => write!(f, "FP0"),
            NodeOrder::Fp => write!(f, "FP"),
        }
    }
}

/// Configuration for the FP refinement.
#[derive(Debug, Clone, Copy)]
pub struct FpConfig {
    /// Include edge direction (attachment positions) in neighbor signatures.
    /// The paper's base definition is for undirected graphs; this is its
    /// "straightforward extension" to directed graphs.
    pub use_direction: bool,
    /// Include edge labels in neighbor signatures (extension to labeled
    /// graphs).
    pub use_labels: bool,
    /// Safety cap on refinement rounds (the fixpoint is reached in at most
    /// `|V|` rounds; real graphs converge in a handful).
    pub max_rounds: usize,
}

impl Default for FpConfig {
    fn default() -> Self {
        Self { use_direction: true, use_labels: true, max_rounds: 64 }
    }
}

/// Result of the FP fixpoint computation.
#[derive(Debug, Clone)]
pub struct FpResult {
    /// Final color per node slot (dead slots get `u32::MAX`). Colors are
    /// canonical: they depend only on the structure, so isomorphic nodes in
    /// disjoint copies receive the same color.
    pub colors: Vec<u32>,
    /// `|[≅FP]|` — number of equivalence classes.
    pub num_classes: usize,
    /// Rounds until the fixpoint (0 = degrees already stable).
    pub rounds: usize,
}

fn label_code(l: crate::label::EdgeLabel) -> u64 {
    match l {
        crate::label::EdgeLabel::Terminal(i) => 2 * i as u64,
        crate::label::EdgeLabel::Nonterminal(i) => 2 * i as u64 + 1,
    }
}

/// Run the FP fixpoint (Fig. 8): c0 = degree, then iterate
/// `c_{i+1}(v) =` lexicographic rank of `(c_i(v), sorted neighbor colors)`
/// until the partition stabilizes.
///
/// A node's signature holds one `(role, label, neighbor color)` descriptor
/// per neighbor in each incident edge: `role` encodes the attachment
/// positions of the node and its neighbor within the edge (direction,
/// generalized to hyperedges); `label` keeps terminals and nonterminals
/// apart. Only the neighbors' colors change from round to round, so every
/// alive node's descriptors are laid out once, as one CSR, with
/// `(role, label)` replaced by its rank among the distinct pairs: a
/// descriptor is then one `u64` key, `rank << 32 | color`, ordered exactly
/// like the `(role, label, color)` triple. A round refills the colors,
/// sorts each node's slice and sorts the nodes by `(own color, slice)`.
pub fn fp_refine(g: &Hypergraph, config: FpConfig) -> FpResult {
    let n = g.node_bound();
    let alive: Vec<NodeId> = g.node_ids().collect();
    // Two passes over the incidence lists: the first lays out the
    // neighbors and collects the distinct `(role, label)` kinds, the
    // second ranks each descriptor's kind, so no per-descriptor copy of
    // the unranked kind is ever held.
    let mut starts = Vec::with_capacity(alive.len() + 1);
    starts.push(0);
    let mut neighbors: Vec<NodeId> = Vec::new();
    let mut distinct = std::collections::BTreeSet::new();
    for &v in &alive {
        descriptors(g, v, config, |kind, u| {
            distinct.insert(kind);
            neighbors.push(u);
        });
        starts.push(neighbors.len());
    }
    let distinct: Vec<u64> = distinct.into_iter().collect();
    let mut kinds: Vec<u32> = Vec::with_capacity(neighbors.len());
    for &v in &alive {
        descriptors(g, v, config, |kind, _| {
            let rank = distinct.binary_search(&kind).unwrap_or_else(|i| i);
            kinds.push(u32::try_from(rank).expect("fewer than 2^32 descriptor kinds"));
        });
    }

    // Round 0: colors = degrees, made dense via sorting (so colors are
    // lexicographic *positions*, exactly as the paper assigns c1..).
    let mut colors = vec![u32::MAX; n];
    let mut order: Vec<usize> = (0..alive.len()).collect();
    let mut num_classes = assign_dense(&mut order, &alive, &mut colors, |i| g.degree(alive[i]));

    let mut keys = vec![0u64; kinds.len()];
    let mut next = vec![u32::MAX; n];
    let mut rounds = 0;
    while rounds < config.max_rounds {
        for ((key, &kind), &u) in keys.iter_mut().zip(&kinds).zip(&neighbors) {
            *key = u64::from(kind) << 32 | u64::from(colors[u as usize]);
        }
        for w in starts.windows(2) {
            keys[w[0]..w[1]].sort_unstable();
        }
        let next_classes = assign_dense(&mut order, &alive, &mut next, |i| {
            (colors[alive[i] as usize], &keys[starts[i]..starts[i + 1]])
        });
        rounds += 1;
        let stable = next_classes == num_classes;
        std::mem::swap(&mut colors, &mut next);
        num_classes = next_classes;
        if stable {
            // Refinement can only split classes; equal counts ⇒ fixpoint.
            break;
        }
    }

    FpResult { colors, num_classes, rounds }
}

/// Call `emit(kind, u)` for each neighbor `u` of `v` in each edge incident
/// with `v`, in incidence and attachment order, where `kind` packs
/// `(role, label)` as `role << 33 | label` (a label code is below 2³³, so
/// the packed value orders like the pair).
fn descriptors(g: &Hypergraph, v: NodeId, config: FpConfig, mut emit: impl FnMut(u64, NodeId)) {
    for e in g.incident(v) {
        let att = g.att(e);
        let label = if config.use_labels { label_code(g.label(e)) } else { 0 };
        let pos_v = att.iter().position(|&x| x == v).unwrap_or(0);
        for (pos_u, &u) in att.iter().enumerate() {
            if u == v {
                continue;
            }
            let role = if config.use_direction {
                ((pos_v.min(255) as u64) << 8) | pos_u.min(255) as u64
            } else {
                0
            };
            emit(role << 33 | label, u);
        }
    }
}

/// Sort `order` (indices into `alive`) by `signature` and color each node
/// with the position of its signature among the distinct ones. Returns the
/// class count.
fn assign_dense<K: Ord>(
    order: &mut [usize],
    alive: &[NodeId],
    colors: &mut [u32],
    signature: impl Fn(usize) -> K,
) -> usize {
    order.sort_unstable_by_key(|&i| signature(i));
    let mut classes = 0u32;
    let mut prev = None;
    for &i in order.iter() {
        let sig = signature(i);
        if prev.as_ref() != Some(&sig) {
            classes += 1;
        }
        colors[alive[i] as usize] = classes - 1;
        prev = Some(sig);
    }
    classes as usize
}

/// `|[≅FP]|` with default config — the statistic of Tables I–III.
pub fn fp_class_count(g: &Hypergraph) -> usize {
    fp_refine(g, FpConfig::default()).num_classes
}

/// Compute the visit sequence for `order` over the alive nodes of `g`.
pub fn compute_order(g: &Hypergraph, order: NodeOrder) -> Vec<NodeId> {
    match order {
        NodeOrder::Natural => g.node_ids().collect(),
        NodeOrder::Random(seed) => {
            let mut nodes: Vec<NodeId> = g.node_ids().collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            nodes.shuffle(&mut rng);
            nodes
        }
        NodeOrder::Bfs => bfs_order(g),
        NodeOrder::Fp0 => {
            let mut nodes: Vec<NodeId> = g.node_ids().collect();
            nodes.sort_by_key(|&v| (g.degree(v), v));
            nodes
        }
        NodeOrder::Fp => {
            let fp = fp_refine(g, FpConfig::default());
            let mut nodes: Vec<NodeId> = g.node_ids().collect();
            nodes.sort_by_key(|&v| (fp.colors[v as usize], v));
            nodes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Hypergraph;

    /// Neighbor descriptor inside a refinement signature: (role, label, color).
    ///
    /// `role` encodes the attachment positions of the node and its neighbor
    /// within the shared edge (direction, generalized to hyperedges); `label`
    /// encodes the edge label with terminals and nonterminals kept apart.
    type Descriptor = (u16, u64, u32);

    /// The FP fixpoint as first written: every round rebuilds each node's
    /// descriptor `Vec` and sorts `(signature, node)` pairs. [`fp_refine`] must
    /// color every graph exactly like it.
    fn fp_refine_reference(g: &Hypergraph, config: FpConfig) -> FpResult {
        let n = g.node_bound();
        let mut colors = vec![u32::MAX; n];

        // Round 0: colors = degrees, made dense via sorting (so colors are
        // lexicographic *positions*, exactly as the paper assigns c1..).
        let alive: Vec<NodeId> = g.node_ids().collect();
        let mut num_classes = assign_dense_reference(
            &mut colors,
            alive.iter().map(|&v| (vec![(0u16, g.degree(v) as u64, 0u32)], v)),
        );

        let mut rounds = 0;
        while rounds < config.max_rounds {
            let signatures = alive.iter().map(|&v| {
                let mut desc: Vec<Descriptor> = Vec::with_capacity(g.degree(v));
                for e in g.incident(v) {
                    let att = g.att(e);
                    let label = if config.use_labels { label_code(g.label(e)) } else { 0 };
                    let pos_v = att.iter().position(|&x| x == v).unwrap();
                    for (pos_u, &u) in att.iter().enumerate() {
                        if u == v {
                            continue;
                        }
                        let role = if config.use_direction {
                            let pos = |p: usize| u16::try_from(p.min(255)).unwrap();
                            (pos(pos_v) << 8) | pos(pos_u)
                        } else {
                            0
                        };
                        desc.push((role, label, colors[u as usize]));
                    }
                }
                desc.sort_unstable();
                // Prepend the node's own color as the first component of f_i(v).
                desc.insert(0, (u16::MAX, u64::MAX, colors[v as usize]));
                (desc, v)
            });
            let mut next = vec![u32::MAX; n];
            let next_classes = assign_dense_reference(&mut next, signatures);
            rounds += 1;
            let stable = next_classes == num_classes;
            colors = next;
            num_classes = next_classes;
            if stable {
                // Refinement can only split classes; equal counts ⇒ fixpoint.
                break;
            }
        }

        FpResult { colors, num_classes, rounds }
    }

    /// Sort signatures lexicographically and assign dense color = position of
    /// the signature among the distinct ones. Returns the class count.
    fn assign_dense_reference(
        colors: &mut [u32],
        signatures: impl Iterator<Item = (Vec<Descriptor>, NodeId)>,
    ) -> usize {
        let mut sigs: Vec<(Vec<Descriptor>, NodeId)> = signatures.collect();
        sigs.sort_unstable();
        let mut current = 0u32;
        let mut prev: Option<&[Descriptor]> = None;
        for (sig, v) in &sigs {
            if let Some(p) = prev {
                if p != sig.as_slice() {
                    current += 1;
                }
            }
            colors[*v as usize] = current;
            prev = Some(sig.as_slice());
        }
        if sigs.is_empty() {
            0
        } else {
            current as usize + 1
        }
    }

    /// The Fig. 8 graph: center c with leaf neighbors u, v and a degree-2
    /// neighbor w, which has another leaf x. Degrees: u=v=x=1(ish)...
    /// exact paper values: c0 = (1,1,3,2,1), fixpoint c1 = (2,2,4,3,1)
    /// with 1-based colors; we check the induced partition and order.
    fn fig8() -> (Hypergraph, [u32; 5]) {
        // nodes: 0=u, 1=v, 2=c, 3=w, 4=x
        let (g, _) = Hypergraph::from_simple_edges(
            5,
            vec![(0, 0, 2), (1, 0, 2), (2, 0, 3), (3, 0, 4)],
        );
        (g, [0, 1, 2, 3, 4])
    }

    /// A random hypergraph: edges of rank 1–4 under terminal and
    /// nonterminal labels, some edges and isolated nodes removed again.
    fn random_hypergraph(rng: &mut rand::rngs::StdRng) -> Hypergraph {
        use rand::Rng;
        let n = rng.gen_range(1..30u32);
        let mut g = Hypergraph::with_nodes(n as usize);
        for _ in 0..rng.gen_range(0..3 * n) {
            let rank = rng.gen_range(1..=n.min(4)) as usize;
            let mut att = Vec::new();
            while att.len() < rank {
                let v = rng.gen_range(0..n);
                if !att.contains(&v) {
                    att.push(v);
                }
            }
            let i = rng.gen_range(0..3);
            let label = if rng.gen_bool(0.7) {
                crate::label::EdgeLabel::Terminal(i)
            } else {
                crate::label::EdgeLabel::Nonterminal(i)
            };
            g.add_edge(label, &att);
        }
        for e in (0..).take(g.edge_bound()) {
            if rng.gen_bool(0.1) {
                g.remove_edge(e);
            }
        }
        for v in 0..n {
            if g.degree(v) == 0 && rng.gen_bool(0.3) {
                g.remove_node(v);
            }
        }
        g
    }

    #[test]
    fn fp_refine_matches_the_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..300 {
            let g = random_hypergraph(&mut rng);
            let flags = [(false, false), (false, true), (true, false), (true, true)];
            for (use_direction, use_labels) in flags {
                for max_rounds in [0, 1, 2, 64] {
                    let config = FpConfig { use_direction, use_labels, max_rounds };
                    let (got, want) = (fp_refine(&g, config), fp_refine_reference(&g, config));
                    let what = format!("case {case}, {config:?}");
                    assert_eq!(got.colors, want.colors, "{what}");
                    assert_eq!(got.num_classes, want.num_classes, "{what}");
                    assert_eq!(got.rounds, want.rounds, "{what}");
                }
            }
        }
    }

    #[test]
    fn fig8_fixpoint_partition() {
        let (g, [u, v, c, w, x]) = fig8();
        // Undirected, unlabeled — as in the paper's figure.
        let fp = fp_refine(
            &g,
            FpConfig { use_direction: false, use_labels: false, max_rounds: 64 },
        );
        assert_eq!(fp.num_classes, 4);
        // Paper: c1(x)=1, c1(u)=c1(v)=2, c1(w)=3, c1(c)=4 (1-based ranks).
        assert_eq!(fp.colors[u as usize], fp.colors[v as usize]);
        assert_eq!(fp.colors[x as usize], 0);
        assert_eq!(fp.colors[u as usize], 1);
        assert_eq!(fp.colors[w as usize], 2);
        assert_eq!(fp.colors[c as usize], 3);
    }

    #[test]
    fn fp_converges_on_regular_graph_to_one_class() {
        // Directed 6-cycle: every node looks the same.
        let edges: Vec<(u32, u32, u32)> = (0..6).map(|i| (i, 0, (i + 1) % 6)).collect();
        let (g, _) = Hypergraph::from_simple_edges(6, edges);
        let fp = fp_refine(&g, FpConfig::default());
        assert_eq!(fp.num_classes, 1);
    }

    #[test]
    fn fp_classes_match_across_disjoint_copies() {
        // Two disjoint copies of the same structure: corresponding nodes
        // must get identical colors (this is what makes FP work on version
        // graphs, §IV-C3).
        let mut triples = vec![(0u32, 0u32, 1u32), (1, 0, 2), (0, 1, 2)];
        let off = 3u32;
        triples.extend(vec![(off, 0, off + 1), (off + 1, 0, off + 2), (off, 1, off + 2)]);
        let (g, _) = Hypergraph::from_simple_edges(6, triples);
        let fp = fp_refine(&g, FpConfig::default());
        for i in 0..3usize {
            assert_eq!(fp.colors[i], fp.colors[i + 3], "copy mismatch at {i}");
        }
        assert_eq!(fp.num_classes, 3);
    }

    #[test]
    fn fp_direction_matters_when_enabled() {
        // Path 0 -> 1 -> 2: with direction, ends differ (source vs sink).
        let (g, _) = Hypergraph::from_simple_edges(3, vec![(0, 0, 1), (1, 0, 2)]);
        let with_dir = fp_refine(&g, FpConfig::default());
        assert_eq!(with_dir.num_classes, 3);
        let without = fp_refine(
            &g,
            FpConfig { use_direction: false, use_labels: false, max_rounds: 64 },
        );
        assert_eq!(without.num_classes, 2); // ends vs middle
    }

    #[test]
    fn fp_labels_matter_when_enabled() {
        // Star with two a-edges vs two b-edges out of distinct hubs.
        let (g, _) = Hypergraph::from_simple_edges(
            6,
            vec![(0, 0, 1), (0, 0, 2), (3, 1, 4), (3, 1, 5)],
        );
        let labeled = fp_refine(&g, FpConfig::default());
        let unlabeled = fp_refine(
            &g,
            FpConfig { use_direction: true, use_labels: false, max_rounds: 64 },
        );
        assert!(labeled.num_classes > unlabeled.num_classes);
    }

    #[test]
    fn all_orders_are_permutations() {
        let (g, _) = Hypergraph::from_simple_edges(
            8,
            vec![(0, 0, 1), (1, 0, 2), (2, 0, 3), (4, 0, 5), (6, 0, 7), (5, 0, 6)],
        );
        for order in [
            NodeOrder::Natural,
            NodeOrder::Random(7),
            NodeOrder::Bfs,
            NodeOrder::Fp0,
            NodeOrder::Fp,
        ] {
            let seq = compute_order(&g, order);
            let mut sorted = seq.clone();
            sorted.sort();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "{order}");
        }
    }

    #[test]
    fn random_orders_differ_by_seed_but_are_reproducible() {
        let (g, _) =
            Hypergraph::from_simple_edges(64, (0..63u32).map(|i| (i, 0, i + 1)));
        let a = compute_order(&g, NodeOrder::Random(1));
        let b = compute_order(&g, NodeOrder::Random(2));
        let a2 = compute_order(&g, NodeOrder::Random(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn fp0_sorts_by_degree() {
        let (g, _) = Hypergraph::from_simple_edges(4, vec![(0, 0, 1), (0, 0, 2), (0, 0, 3), (1, 0, 2)]);
        let seq = compute_order(&g, NodeOrder::Fp0);
        assert_eq!(*seq.last().unwrap(), 0); // hub has max degree
        assert_eq!(seq[0], 3); // degree 1
    }
}
