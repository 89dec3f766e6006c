//! Experiment harness: the dataset registry and size helpers behind the
//! `repro` binary, which regenerates every table and figure of the paper's
//! evaluation. Timings are the repository benchmark's (`benchmark/`,
//! DESIGN.md §3), not this crate's.
//!
//! Datasets are scaled-down analogs of the paper's (see DESIGN.md §4): the
//! shapes and relative densities match, the absolute sizes are chosen so the
//! full reproduction runs in minutes on a laptop. Pass `Scale::Quick` to
//! shrink everything by a further 4× for smoke runs.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

use grepair_baselines::{hn, k2, lm};
use grepair_codec::EncodedGrammar;
use grepair_core::{compress, CompressedGraph, GRePairConfig};
use grepair_datasets::{network, rdf, stats, ttt, version, DatasetStats};
use grepair_hypergraph::Hypergraph;

/// The flags the `repro` binary understands: every section of the paper's
/// evaluation, the ablations, the global `--quick` scale switch, and
/// `--all`.
pub const REPRO_FLAGS: &[&str] = &[
    "--all", "--quick", "--table1", "--table2", "--table3", "--table4", "--table5", "--table6",
    "--fig10", "--fig11", "--fig12", "--fig13", "--fig14", "--ratios", "--queries", "--strings",
    "--ablations",
];

/// Check a `repro` argument list: `Err(flag)` names the first argument that
/// is not a known flag (including `--help` — `repro` has no options beyond
/// [`REPRO_FLAGS`], so anything else is a usage error, not a silent no-op).
pub fn validate_repro_flags(args: &[String]) -> Result<(), String> {
    match args.iter().find(|a| !REPRO_FLAGS.contains(&a.as_str())) {
        Some(unknown) => Err(unknown.clone()),
        None => Ok(()),
    }
}

/// Dataset family, mirroring the paper's three tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Table I.
    Network,
    /// Table II.
    Rdf,
    /// Table III.
    Version,
}

/// A named benchmark graph.
pub struct NamedGraph {
    /// Display name (the paper's dataset it stands in for).
    pub name: &'static str,
    /// Which table it belongs to.
    pub family: Family,
    /// The graph itself.
    pub graph: Hypergraph,
}

/// Global size multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default sizes (full repro ~minutes).
    Full,
    /// 4× smaller for smoke runs.
    Quick,
}

impl Scale {
    fn apply(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 4).max(64),
        }
    }
}

/// The eight network graphs of Table I (scaled analogs).
pub fn network_suite(scale: Scale) -> Vec<NamedGraph> {
    let s = |n| scale.apply(n);
    vec![
        NamedGraph {
            name: "CA-AstroPh",
            family: Family::Network,
            graph: network::co_authorship(s(9_000), s(10_000), 9, 101),
        },
        NamedGraph {
            name: "CA-CondMat",
            family: Family::Network,
            graph: network::co_authorship(s(12_000), s(8_000), 5, 102),
        },
        NamedGraph {
            name: "CA-GrQc",
            family: Family::Network,
            graph: network::co_authorship(s(5_242), s(3_200), 5, 103),
        },
        NamedGraph {
            name: "Email-Enron",
            family: Family::Network,
            graph: network::hub_network(s(18_000), 100, 4, 104),
        },
        NamedGraph {
            name: "Email-EuAll",
            family: Family::Network,
            graph: network::hub_network(s(53_000), 24, 1, 105),
        },
        NamedGraph {
            name: "NotreDame",
            family: Family::Network,
            graph: network::web_copy(s(33_000), 5, 0.65, 106),
        },
        NamedGraph {
            name: "Wiki-Talk",
            family: Family::Network,
            graph: network::hub_network(s(96_000), 160, 1, 107),
        },
        NamedGraph {
            name: "Wiki-Vote",
            family: Family::Network,
            graph: network::preferential_attachment(s(7_115), 14, 108),
        },
    ]
}

/// The six RDF graphs of Table II (scaled analogs; label counts match).
pub fn rdf_suite(scale: Scale) -> Vec<NamedGraph> {
    let s = |n| scale.apply(n);
    vec![
        NamedGraph {
            name: "SpecificProps-en",
            family: Family::Rdf,
            graph: rdf::property_graph(s(24_000), 71, 14, s(5_000), 201),
        },
        NamedGraph {
            name: "Types-ru",
            family: Family::Rdf,
            graph: rdf::types_star(s(64_000), 24, 202),
        },
        NamedGraph {
            name: "Types-es",
            family: Family::Rdf,
            graph: rdf::types_star(s(82_000), 48, 203),
        },
        NamedGraph {
            name: "Types-de-en",
            family: Family::Rdf,
            graph: rdf::types_star(s(62_000), 64, 204),
        },
        NamedGraph {
            name: "Identica",
            family: Family::Rdf,
            graph: rdf::property_graph(s(5_500), 12, 6, s(1_200), 205),
        },
        NamedGraph {
            name: "Jamendo",
            family: Family::Rdf,
            graph: rdf::property_graph(s(44_000), 25, 8, s(9_000), 206),
        },
    ]
}

/// The DBLP-style histories behind Table III / Fig. 14.
pub fn dblp_history(scale: Scale, years: usize) -> version::CoauthorshipHistory {
    version::CoauthorshipHistory::generate(
        years,
        scale.apply(220),
        scale.apply(2_400),
        scale.apply(160),
        301,
    )
}

/// The four version graphs of Table III.
pub fn version_suite(scale: Scale) -> Vec<NamedGraph> {
    let short = dblp_history(scale, 11);
    let long = dblp_history(scale, 19);
    vec![
        NamedGraph {
            name: "Tic-Tac-Toe",
            family: Family::Version,
            graph: ttt::subdue_endgames(),
        },
        NamedGraph {
            name: "Chess",
            family: Family::Version,
            graph: version::chess_like(scale.apply(26_000), 12, 302),
        },
        NamedGraph {
            name: "DBLP60-70",
            family: Family::Version,
            graph: short.version_graph(10),
        },
        NamedGraph {
            name: "DBLP60-90",
            family: Family::Version,
            graph: long.version_graph(18),
        },
    ]
}

/// One gRePair measurement: compress + serialize, return bpe and artifacts.
pub struct GRePairRun {
    /// Bits per edge of the serialized grammar.
    pub bpe: f64,
    /// Output size in bits.
    pub bits: u64,
    /// The compression result.
    pub compressed: CompressedGraph,
    /// The serialized form.
    pub encoded: EncodedGrammar,
}

/// Run gRePair end to end with `config`.
pub fn run_grepair(g: &Hypergraph, config: &GRePairConfig) -> GRePairRun {
    let compressed = compress(g, config);
    let encoded = grepair_codec::encode(&compressed.grammar);
    GRePairRun {
        bpe: encoded.bits_per_edge(g.num_edges()),
        bits: encoded.bit_len,
        compressed,
        encoded,
    }
}

/// k²-tree baseline bpe.
pub fn run_k2(g: &Hypergraph) -> (f64, u64) {
    let enc = k2::encode(g);
    (enc.bits_per_edge(g.num_edges()), enc.bit_len)
}

/// LM baseline bpe (unlabeled graphs only).
pub fn run_lm(g: &Hypergraph) -> (f64, u64) {
    let enc = lm::encode(g);
    (enc.bits_per_edge(g.num_edges()), enc.bit_len)
}

/// HN baseline bpe (unlabeled graphs only).
pub fn run_hn(g: &Hypergraph) -> (f64, u64) {
    let enc = hn::encode(g, &hn::HnParams::default());
    (enc.bits_per_edge(g.num_edges()), enc.bit_len)
}

/// True if all edges share one label (LM/HN apply only then, as in §IV-C3).
pub fn is_unlabeled(g: &Hypergraph) -> bool {
    g.edges()
        .all(|e| e.label == grepair_hypergraph::EdgeLabel::Terminal(0))
}

/// Tables I–III row.
pub fn dataset_stats(g: &Hypergraph) -> DatasetStats {
    stats(g)
}

/// Format a table row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_flags_validate() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        assert_eq!(validate_repro_flags(&args(&[])), Ok(()));
        assert_eq!(validate_repro_flags(&args(&["--table1", "--quick"])), Ok(()));
        assert_eq!(validate_repro_flags(&args(&["--all"])), Ok(()));
        // `--queries` selects the §V grammar-vs-BFS table.
        assert_eq!(validate_repro_flags(&args(&["--queries", "--quick"])), Ok(()));
        // Unknown flags — including --help — name the offender.
        assert_eq!(validate_repro_flags(&args(&["--help"])), Err("--help".into()));
        assert_eq!(
            validate_repro_flags(&args(&["--table1", "--tabel2"])),
            Err("--tabel2".into())
        );
        assert_eq!(validate_repro_flags(&args(&["table1"])), Err("table1".into()));
    }

    #[test]
    fn suites_are_nonempty_and_deterministic() {
        let a = network_suite(Scale::Quick);
        let b = network_suite(Scale::Quick);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph.num_edges(), y.graph.num_edges(), "{}", x.name);
        }
        assert_eq!(rdf_suite(Scale::Quick).len(), 6);
        assert_eq!(version_suite(Scale::Quick).len(), 4);
    }

    #[test]
    fn quick_scale_shrinks() {
        let full = network_suite(Scale::Full);
        let quick = network_suite(Scale::Quick);
        let full_edges: usize = full.iter().map(|d| d.graph.num_edges()).sum();
        let quick_edges: usize = quick.iter().map(|d| d.graph.num_edges()).sum();
        assert!(quick_edges * 2 < full_edges);
    }

    #[test]
    fn run_helpers_agree_on_small_graph() {
        let g = grepair_datasets::version::disjoint_copies(
            &grepair_datasets::version::circle_with_diagonal(),
            16,
        );
        let gr = run_grepair(&g, &GRePairConfig::default());
        let (k2_bpe, _) = run_k2(&g);
        assert!(gr.bpe < k2_bpe, "gRePair {} vs k2 {}", gr.bpe, k2_bpe);
        assert!(is_unlabeled(&g));
        run_lm(&g);
        run_hn(&g);
    }
}
