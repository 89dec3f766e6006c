//! Version graphs (Table III, Figs. 13–14): disjoint unions of multiple
//! versions of the same graph.

use grepair_hypergraph::{EdgeBuffer, Hypergraph};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The Fig. 13 base graph: "a directed circle with four nodes and one of
/// the two possible diagonal edges" — 4 nodes, 5 edges.
pub fn circle_with_diagonal() -> Hypergraph {
    let triples = vec![
        (0u32, 0u32, 1u32),
        (1, 0, 2),
        (2, 0, 3),
        (3, 0, 0),
        (0, 0, 2),
    ];
    Hypergraph::from_simple_edges(4, triples).0
}

/// Disjoint union of `copies` copies of `base` (node IDs shifted per copy).
pub fn disjoint_copies(base: &Hypergraph, copies: usize) -> Hypergraph {
    let stride = base.node_bound();
    let mut g = Hypergraph::with_nodes(stride * copies);
    for c in 0..copies {
        let off = (c * stride) as u32;
        for e in base.edges() {
            let att: Vec<u32> = e.att.iter().map(|&v| v + off).collect();
            g.add_edge(e.label, &att);
        }
    }
    // Dead slots mirror the base's dead slots.
    for c in 0..copies {
        let off = (c * stride) as u32;
        for v in 0..stride as u32 {
            if !base.node_is_alive(v) {
                g.remove_node(v + off);
            }
        }
    }
    g
}

/// A growing co-authorship history (DBLP analog): per year, `papers_per_year`
/// papers are added over a gradually growing author population. Snapshot `y`
/// contains all edges of years `0..=y`.
#[derive(Debug)]
pub struct CoauthorshipHistory {
    per_year_triples: Vec<Vec<(u32, u32, u32)>>,
    authors: usize,
}

impl CoauthorshipHistory {
    /// Generate `years` years of publications.
    pub fn generate(
        years: usize,
        papers_per_year: usize,
        initial_authors: usize,
        new_authors_per_year: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut per_year_triples = Vec::with_capacity(years);
        let mut population = initial_authors;
        let mut activity: Vec<u32> = (0..initial_authors as u32).collect();
        for _ in 0..years {
            let mut triples = Vec::new();
            for _ in 0..papers_per_year {
                let k = rng.gen_range(2..=4usize);
                let mut team: Vec<u32> = Vec::with_capacity(k);
                for _ in 0..k {
                    let a = activity[rng.gen_range(0..activity.len())];
                    if !team.contains(&a) {
                        team.push(a);
                    }
                }
                for i in 0..team.len() {
                    for j in 0..team.len() {
                        if i != j {
                            triples.push((team[i], 0u32, team[j]));
                        }
                    }
                }
                activity.extend_from_slice(&team);
            }
            per_year_triples.push(triples);
            for _ in 0..new_authors_per_year {
                activity.push(population as u32);
                population += 1;
            }
        }
        Self { per_year_triples, authors: population }
    }

    /// Cumulative snapshot after `year` (0-based, inclusive), deduplicated.
    pub fn snapshot(&self, year: usize) -> Hypergraph {
        let triples = self.per_year_triples[..=year]
            .iter()
            .flatten()
            .copied()
            .collect::<Vec<_>>();
        Hypergraph::from_simple_edges(self.authors, triples).0
    }

    /// The version graph of Fig. 14 / Table III: the disjoint union of the
    /// cumulative snapshots `0..=year`.
    pub fn version_graph(&self, year: usize) -> Hypergraph {
        let snapshots: Vec<Hypergraph> =
            (0..=year).map(|y| self.snapshot(y)).collect();
        disjoint_union(&snapshots)
    }

    /// Number of years generated.
    pub fn years(&self) -> usize {
        self.per_year_triples.len()
    }

    /// The raw `(source, label, target)` triples published in one year —
    /// *not* deduplicated against earlier years (teams republish). This is
    /// the patch-workload feed: the edges of year `y` that are new relative
    /// to `snapshot(y - 1)` are exactly what an incremental `PATCH ADD`
    /// stream would carry.
    pub fn year_triples(&self, year: usize) -> &[(u32, u32, u32)] {
        &self.per_year_triples[year]
    }

    /// Total author population after all years (the node bound of every
    /// snapshot).
    pub fn authors(&self) -> usize {
        self.authors
    }
}

/// Disjoint union of arbitrary graphs, built at exact size: every part's
/// edges, shifted, in order into one buffer and one
/// [`Hypergraph::from_edges`], then the nodes dead in their part removed.
pub fn disjoint_union(graphs: &[Hypergraph]) -> Hypergraph {
    let (mut edges, mut dead) = (EdgeBuffer::new(), Vec::new());
    let (count, atts) = graphs
        .iter()
        .flat_map(Hypergraph::edges)
        .fold((0, 0), |(n, a), e| (n + 1, a + e.att.len()));
    edges.reserve(count, atts);
    let mut off = 0u32;
    for part in graphs {
        for e in part.edges() {
            edges.push(e.label, e.att.iter().map(|&v| v + off));
        }
        let bound = part.node_bound() as u32;
        dead.extend((0..bound).filter(|&v| !part.node_is_alive(v)).map(|v| v + off));
        off += bound;
    }
    let mut g = Hypergraph::from_edges(off as usize, edges)
        .expect("each part's attachments are distinct nodes of its own id range");
    for v in dead {
        g.remove_node(v);
    }
    g
}

/// Chess-like version graph (Chess analog): like the subdue chess dataset,
/// a disjoint union of thousands of small board-instance graphs. Instances
/// derive from a handful of templates (a chain of piece-relation edges with
/// a few cross edges) but each is randomly perturbed — relabeled and rewired
/// — so unlike Tic-Tac-Toe the copies are *not* identical: FP classes stay
/// near |V| (Table III's Chess row) while enough local structure repeats for
/// gRePair to edge out k² (Table VI: 9.06 vs 13.10 bpe in the paper).
pub fn chess_like(positions: usize, labels: u32, seed: u64) -> Hypergraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_instance = 8usize;
    let instances = positions / per_instance;
    // Templates: label sequence along the chain + one cross edge.
    let templates: Vec<(Vec<u32>, (u32, u32, u32))> = (0..4)
        .map(|_| {
            let chain: Vec<u32> =
                (0..per_instance - 1).map(|_| rng.gen_range(0..labels)).collect();
            let cross = (
                rng.gen_range(0..per_instance as u32 / 2),
                rng.gen_range(0..labels),
                rng.gen_range(per_instance as u32 / 2..per_instance as u32),
            );
            (chain, cross)
        })
        .collect();
    let mut triples = Vec::new();
    for i in 0..instances {
        let base = (i * per_instance) as u32;
        let (chain, (cs, cl, ct)) = &templates[rng.gen_range(0..templates.len())];
        for (k, &label) in chain.iter().enumerate() {
            // Perturb: occasionally relabel an edge.
            let label = if rng.gen_bool(0.25) { rng.gen_range(0..labels) } else { label };
            triples.push((base + k as u32, label, base + k as u32 + 1));
        }
        // Perturb: occasionally rewire the cross edge.
        let (cs, ct) = if rng.gen_bool(0.25) {
            let a = rng.gen_range(0..per_instance as u32);
            let b = (a + 1 + rng.gen_range(0..per_instance as u32 - 1)) % per_instance as u32;
            (a, b)
        } else {
            (*cs, *ct)
        };
        if cs != ct {
            triples.push((base + cs, *cl, base + ct));
        }
    }
    Hypergraph::from_simple_edges(instances * per_instance, triples).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use grepair_hypergraph::EdgeLabel;

    #[test]
    fn disjoint_union_is_the_add_edge_build() {
        // Parts with dead nodes, in the middle and at the end of their range.
        let mut holes = Hypergraph::with_nodes(6);
        for (a, b) in [(0, 1), (1, 2), (4, 5), (5, 0)] {
            holes.add_edge(EdgeLabel::Terminal(1), &[a, b]);
        }
        holes.remove_node(3);
        let mut tail = circle_with_diagonal();
        let v = tail.add_node();
        tail.remove_node(v);
        let history = CoauthorshipHistory::generate(4, 20, 30, 5, 3);
        let mut parts: Vec<Hypergraph> = (0..4).map(|y| history.snapshot(y)).collect();
        parts.extend([holes, tail]);
        // The reference: the graph grown one `add_edge` at a time.
        let total: usize = parts.iter().map(Hypergraph::node_bound).sum();
        let mut grown = Hypergraph::with_nodes(total);
        let mut off = 0u32;
        for part in &parts {
            for e in part.edges() {
                let att: Vec<u32> = e.att.iter().map(|&v| v + off).collect();
                grown.add_edge(e.label, &att);
            }
            for v in 0..part.node_bound() as u32 {
                if !part.node_is_alive(v) {
                    grown.remove_node(v + off);
                }
            }
            off += part.node_bound() as u32;
        }
        let built = disjoint_union(&parts);
        built.validate().unwrap();
        assert!(built.edges().eq(grown.edges()));
        assert_eq!(built.node_bound(), grown.node_bound());
        for v in 0..total as u32 {
            assert_eq!(built.node_is_alive(v), grown.node_is_alive(v), "node {v}");
            assert!(built.incident(v).eq(grown.incident(v)), "node {v}");
        }
    }

    #[test]
    fn circle_with_diagonal_shape() {
        let g = circle_with_diagonal();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn disjoint_copies_scale_linearly() {
        let base = circle_with_diagonal();
        let g = disjoint_copies(&base, 8);
        assert_eq!(g.num_nodes(), 32);
        assert_eq!(g.num_edges(), 40);
        let (_, comps) = grepair_hypergraph::traverse::connected_components(&g);
        assert_eq!(comps, 8);
    }

    #[test]
    fn history_snapshots_grow() {
        let h = CoauthorshipHistory::generate(5, 50, 100, 20, 1);
        let e0 = h.snapshot(0).num_edges();
        let e4 = h.snapshot(4).num_edges();
        assert!(e4 > e0, "{e4} vs {e0}");
        let v = h.version_graph(2);
        let parts: usize = (0..=2).map(|y| h.snapshot(y).num_edges()).sum();
        assert_eq!(v.num_edges(), parts);
    }

    #[test]
    fn history_snapshots_are_monotone() {
        // Snapshots are cumulative: every edge of snapshot y is an edge of
        // snapshot y+1, and the deduplicated edge set of a snapshot equals
        // the union of the raw per-year triples feeding it.
        let h = CoauthorshipHistory::generate(6, 30, 80, 15, 7);
        let edge_set = |g: &Hypergraph| -> std::collections::BTreeSet<(u32, u32, u32)> {
            g.edges().map(|e| (e.att[0], e.label.index(), e.att[1])).collect()
        };
        let mut raw_union = std::collections::BTreeSet::new();
        let mut prev = std::collections::BTreeSet::new();
        for y in 0..h.years() {
            let snap = edge_set(&h.snapshot(y));
            assert!(prev.is_subset(&snap), "year {y} lost edges");
            raw_union.extend(
                h.year_triples(y).iter().filter(|(s, _, t)| s != t).copied(),
            );
            assert_eq!(snap, raw_union, "year {y}");
            prev = snap;
        }
        assert!(h.authors() >= 80 + 6 * 15, "population grows every year");
    }

    #[test]
    fn history_is_deterministic_under_a_fixed_seed() {
        let a = CoauthorshipHistory::generate(4, 20, 50, 10, 42);
        let b = CoauthorshipHistory::generate(4, 20, 50, 10, 42);
        for y in 0..a.years() {
            assert_eq!(a.year_triples(y), b.year_triples(y), "year {y}");
        }
        // A different seed produces a different history (the first year's
        // teams already differ).
        let c = CoauthorshipHistory::generate(4, 20, 50, 10, 43);
        assert_ne!(a.year_triples(0), c.year_triples(0));
    }

    #[test]
    fn version_graph_repeats_have_shared_fp_classes() {
        // Consecutive snapshots are near-identical (most authors publish
        // nothing in a given year), so the version graph's FP class count is
        // far below its node count (Table III's DBLP rows).
        let h = CoauthorshipHistory::generate(4, 25, 400, 10, 2);
        let v = h.version_graph(3);
        let s = stats(&v);
        assert!(
            s.fp_classes * 2 < s.nodes,
            "classes {} vs alive nodes {}",
            s.fp_classes,
            s.nodes
        );
    }

    #[test]
    fn chess_like_has_near_distinct_fp_classes() {
        let g = chess_like(2400, 12, 3);
        let s = stats(&g);
        assert!(
            s.fp_classes * 3 > s.nodes,
            "chess-like should barely collapse: {} vs {}",
            s.fp_classes,
            s.nodes
        );
    }

    #[test]
    fn disjoint_union_respects_labels() {
        let (a, _) = Hypergraph::from_simple_edges(2, vec![(0u32, 3u32, 1u32)]);
        let (b, _) = Hypergraph::from_simple_edges(2, vec![(1u32, 5u32, 0u32)]);
        let u = disjoint_union(&[a, b]);
        let labels: Vec<EdgeLabel> = u.edges().map(|e| e.label).collect();
        assert!(labels.contains(&EdgeLabel::Terminal(3)));
        assert!(labels.contains(&EdgeLabel::Terminal(5)));
        assert_eq!(u.num_nodes(), 4);
    }
}
