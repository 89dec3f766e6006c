//! Seeded walks over a decompressed graph, the way the benchmark's pools
//! draw their `rpq` words.

use grepair_hypergraph::{EdgeLabel, Hypergraph};
use rand::rngs::StdRng;
use rand::Rng;

/// The labeled out-row of `v` in a decompressed graph.
pub fn out_row(g: &Hypergraph, v: u32) -> Vec<(u32, u32)> {
    let mut row: Vec<(u32, u32)> = g
        .incident(v)
        .filter_map(|e| match (g.label(e), g.att(e)) {
            (EdgeLabel::Terminal(label), &[from, to]) if from == v => Some((label, to)),
            _ => None,
        })
        .collect();
    row.sort_unstable();
    row
}

/// A walk of up to `steps` edges from `s`: the labels it spelled and where
/// it ended (earlier at a sink).
pub fn walk(g: &Hypergraph, s: u32, steps: u64, rng: &mut StdRng) -> (Vec<u32>, u32) {
    let (mut at, mut labels) = (s, Vec::new());
    for _ in 0..steps {
        let row = out_row(g, at);
        if row.is_empty() {
            break;
        }
        let (label, next) = row[rng.gen_range(0..row.len())];
        labels.push(label);
        at = next;
    }
    (labels, at)
}
