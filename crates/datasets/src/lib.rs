//! Synthetic stand-ins for the paper's datasets (§IV-A).
//!
//! The paper evaluates on SNAP network graphs, DBpedia/Identica/Jamendo RDF
//! dumps, subdue's Tic-Tac-Toe and Chess graphs, and DBLP co-authorship
//! version graphs. None are redistributable or fetchable here, so every
//! family is replaced by a seeded generator that reproduces the structural
//! property the paper identifies as driving compression behaviour (see
//! DESIGN.md §4 for the per-dataset argument):
//!
//! * [`network`] — co-authorship clique models (CA-*), heavy-tailed hub
//!   models (Email-*, Wiki-*), and a copy-model web graph (NotreDame);
//! * [`rdf`] — star-shaped "types" graphs and property-table graphs with
//!   the paper's label counts;
//! * [`version`] — disjoint unions of graph snapshots: the Fig. 13
//!   circle-with-diagonal copies, evolving DBLP-style co-authorship, and a
//!   chess-like layered move graph;
//! * [`ttt`] — the **exact** Tic-Tac-Toe game graph (all positions reachable
//!   from the empty board; 3 edge labels), not a simulation.
//!
//! All generators are deterministic in their seed.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub mod network;
pub mod rdf;
pub mod ttt;
pub mod version;

use grepair_hypergraph::order::fp_class_count;
use grepair_hypergraph::{EdgeLabel, Hypergraph};

/// Summary statistics in the shape of the paper's Tables I–III.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// |V|.
    pub nodes: usize,
    /// |E|.
    pub edges: usize,
    /// |Σ| — number of distinct edge labels.
    pub labels: usize,
    /// |\[≅FP\]| — equivalence classes of the FP order.
    pub fp_classes: usize,
}

/// Compute the Tables I–III statistics for a graph.
pub fn stats(g: &Hypergraph) -> DatasetStats {
    let mut labels: Vec<EdgeLabel> = g.edges().map(|e| e.label).collect();
    labels.sort_unstable();
    labels.dedup();
    DatasetStats {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        labels: labels.len(),
        fp_classes: fp_class_count(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_small_graph() {
        let (g, _) =
            Hypergraph::from_simple_edges(3, vec![(0u32, 0u32, 1u32), (1, 1, 2)]);
        let s = stats(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.labels, 2);
        assert!(s.fp_classes >= 2);
    }
}
