//! The shapes the `*_families` suites test on, and seeded walks over a
//! decompressed graph, the way the benchmark's pools draw their `rpq`
//! words.

use grepair_core::GRePairConfig;
use grepair_datasets::version::CoauthorshipHistory;
use grepair_datasets::{network, rdf};
use grepair_hypergraph::{EdgeLabel, Hypergraph};
use rand::rngs::StdRng;
use rand::Rng;

/// One instance per `datasets` family the benchmark and `repro` draw from,
/// at about `n` nodes.
#[allow(dead_code)] // not every test binary including this module compresses families
pub fn families(n: usize) -> Vec<(&'static str, Hypergraph)> {
    vec![
        ("hub_network", network::hub_network(n, 12, 1, 5)),
        (
            "version_graph",
            CoauthorshipHistory::generate(6, n / 40, n / 12, n / 60, 5).version_graph(5),
        ),
        ("property_graph", rdf::property_graph(n / 2, 24, 8, n / 10, 5)),
        ("preferential_attachment", network::preferential_attachment(n, 2, 5)),
        ("erdos_renyi", network::erdos_renyi(n, n + n / 2, 5)),
        ("web_copy", network::web_copy(n, 3, 0.6, 5)),
    ]
}

/// The default configuration with rank bound `max_rank`.
#[allow(dead_code)] // not every test binary including this module compresses families
pub fn config(max_rank: usize) -> GRePairConfig {
    GRePairConfig { max_rank, ..GRePairConfig::default() }
}

/// The labeled out-row of `v` in a decompressed graph.
#[allow(dead_code)] // not every test binary including this module walks
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
#[allow(dead_code)] // not every test binary including this module walks
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
