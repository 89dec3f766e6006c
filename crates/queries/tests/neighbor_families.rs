//! Neighborhoods on the grammar ≡ rows of the decompressed graph — the twin
//! of `reach_families.rs`: every `datasets` family, compressed at three rank
//! bounds, every node asked in both directions. Rows are read three ways:
//! the index's labeled rows (which fill the expansion cells they reach),
//! its neighbor sets, and the resolved walk itself — the last two read
//! the cells back without filling one, as a serving store does. The
//! version family's grammars are the deepest, so their rows resolve
//! external nodes several levels up.

mod common;

use common::{config, families};
use grepair_core::compress;
use grepair_hypergraph::{EdgeLabel, Hypergraph};
use grepair_queries::{Direction, GrammarIndex, QueryError};

/// The labeled row of `v` in a decompressed graph, sorted and deduplicated.
fn derived_row(g: &Hypergraph, v: u32, dir: Direction) -> Vec<(u32, u64)> {
    let mut row: Vec<(u32, u64)> = g
        .incident(v)
        .filter_map(|e| match (g.label(e), g.att(e), dir) {
            (EdgeLabel::Terminal(l), &[from, to], Direction::Out) if from == v => Some((l, to)),
            (EdgeLabel::Terminal(l), &[from, to], Direction::In) if to == v => Some((l, from)),
            _ => None,
        })
        .map(|(l, w)| (l, u64::from(w)))
        .collect();
    row.sort_unstable();
    row.dedup();
    row
}

/// Every row of every node of `g` compressed at `max_rank`, three ways,
/// against the decompressed graph; returns the grammar's height.
fn check_every_row(family: &str, g: &Hypergraph, max_rank: usize) -> usize {
    let out = compress(g, &config(max_rank));
    let derived = out.grammar.derive();
    let index = GrammarIndex::new(&out.grammar);
    let n = index.total_nodes;
    assert_eq!(n as usize, derived.num_nodes(), "{family}");
    let mut nodes = Vec::new();
    for v in 0..n {
        for dir in [Direction::Out, Direction::In] {
            let want = derived_row(&derived, v as u32, dir);
            let at = format!("{family} max_rank {max_rank}: {dir:?} row of {v}");
            assert_eq!(index.try_edges(v, dir).as_ref(), Ok(&want), "{at}");
            let [_, misses] = index.expansion_counts();
            index.try_neighbors_into(v, dir, &mut nodes).unwrap();
            let mut want_nodes: Vec<u64> = want.iter().map(|&(_, w)| w).collect();
            want_nodes.sort_unstable();
            want_nodes.dedup();
            assert_eq!(nodes, want_nodes, "{at}");
            let mut cached = Vec::new();
            index.try_resolve(v).unwrap().row(dir, |l, w| cached.push((l, w)));
            cached.sort_unstable();
            cached.dedup();
            assert_eq!(cached, want, "{at}, expansions read back");
            assert_eq!(index.expansion_counts()[1], misses, "{at}: one fill per cell");
        }
    }
    let out_of_range = Err(QueryError::NodeOutOfRange { id: n, total: n });
    assert_eq!(index.try_edges(n, Direction::In), out_of_range, "{family}");
    out.grammar.height()
}

#[test]
fn rows_match_the_decompressed_graph_on_every_family_and_rank() {
    for (family, g) in families(2_400) {
        for max_rank in [2, 4, 8] {
            check_every_row(family, &g, max_rank);
        }
    }
}

#[test]
fn rows_of_a_deep_version_grammar_match() {
    // At this size the version graph compresses to height 9 at rank 2:
    // rows whose external nodes resolve many levels up.
    let (family, g) = families(9_600).into_iter().find(|(f, _)| *f == "version_graph").unwrap();
    let height = check_every_row(family, &g, 2);
    assert!(height >= 9, "{family}: height {height}");
}
