//! `repro` — regenerate every table and figure of the paper's evaluation
//! (§IV) plus the query experiments of §V.
//!
//! ```sh
//! cargo run --release -p grepair-bench --bin repro -- --all
//! cargo run --release -p grepair-bench --bin repro -- --table4 --fig13
//! cargo run --release -p grepair-bench --bin repro -- --all --quick   # 4× smaller datasets
//! ```
//!
//! Absolute numbers differ from the paper (its datasets are proprietary
//! dumps; ours are structural analogs — see DESIGN.md §4, which also
//! records the expected *shapes*: who wins, by how much, where the
//! crossovers are. Those shapes are the reproduction target).

use grepair_bench::*;
use grepair_core::GRePairConfig;
use grepair_hypergraph::order::NodeOrder;
use grepair_hypergraph::Hypergraph;
use grepair_store::{GrepairError, QueryAnswer};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: repro [--all] [--quick] [SECTION]...
sections: --table1 --table2 --table3 --table4 --table5 --table6
          --fig10 --fig11 --fig12 --fig13 --fig14
          --ratios --queries --strings
no sections selects --all; --quick shrinks every dataset 4x";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(unknown) = validate_repro_flags(&args) {
        eprintln!("error: unknown flag {unknown:?}");
        eprintln!();
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let has = |f: &str| args.iter().any(|a| a == f);
    let all = has("--all") || args.iter().all(|a| a == "--quick");
    let scale = if has("--quick") { Scale::Quick } else { Scale::Full };

    let t0 = Instant::now();
    if all || has("--table1") {
        table1(scale);
    }
    if all || has("--table2") {
        table2(scale);
    }
    if all || has("--table3") {
        table3(scale);
    }
    if all || has("--table4") {
        table4(scale);
    }
    if all || has("--fig10") {
        fig10(scale);
    }
    if all || has("--fig11") {
        fig11(scale);
    }
    if all || has("--fig12") {
        fig12(scale);
    }
    if all || has("--table5") {
        table5(scale);
    }
    if all || has("--table6") {
        table6(scale);
    }
    if all || has("--fig13") {
        fig13();
    }
    if all || has("--fig14") {
        fig14(scale);
    }
    if all || has("--ratios") {
        ratios(scale);
    }
    if all || has("--queries") {
        queries(scale);
    }
    if all || has("--strings") {
        strings();
    }
    eprintln!("\n[repro completed in {:?}]", t0.elapsed());
    ExitCode::SUCCESS
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn stats_table(title: &str, datasets: &[NamedGraph], show_labels: bool) {
    banner(title);
    let mut header = vec!["graph".to_string(), "|V|".into(), "|E|".into()];
    if show_labels {
        header.push("|Sigma|".into());
    }
    header.push("|[~FP]|".into());
    let widths = [18, 10, 10, 8, 10];
    println!("{}", row(&header, &widths));
    for d in datasets {
        let s = dataset_stats(&d.graph);
        let mut cells = vec![d.name.to_string(), s.nodes.to_string(), s.edges.to_string()];
        if show_labels {
            cells.push(s.labels.to_string());
        }
        cells.push(s.fp_classes.to_string());
        println!("{}", row(&cells, &widths));
    }
}

/// Table I: network graph statistics.
fn table1(scale: Scale) {
    stats_table("Table I: network graphs", &network_suite(scale), false);
}

/// Table II: RDF graph statistics.
fn table2(scale: Scale) {
    stats_table("Table II: RDF graphs", &rdf_suite(scale), true);
}

/// Table III: version graph statistics.
fn table3(scale: Scale) {
    stats_table("Table III: version graphs", &version_suite(scale), true);
}

/// Table IV: bpe for maxRank 2..8 on six network graphs.
fn table4(scale: Scale) {
    banner("Table IV: maxRank sweep (bpe; * = best per row)");
    let names = [
        "Email-EuAll",
        "NotreDame",
        "CA-AstroPh",
        "CA-CondMat",
        "CA-GrQc",
        "Email-Enron",
    ];
    let suite = network_suite(scale);
    let widths = [14, 9, 9, 9, 9, 9, 9, 9];
    let mut header = vec!["graph".to_string()];
    header.extend((2..=8).map(|r| r.to_string()));
    println!("{}", row(&header, &widths));
    for name in names {
        let d = suite.iter().find(|d| d.name == name).unwrap();
        let bpes: Vec<f64> = (2..=8)
            .map(|max_rank| {
                run_grepair(&d.graph, &GRePairConfig { max_rank, ..Default::default() }).bpe
            })
            .collect();
        let best = bpes.iter().cloned().fold(f64::INFINITY, f64::min);
        let mut cells = vec![name.to_string()];
        cells.extend(bpes.iter().map(|&b| {
            if (b - best).abs() < 1e-9 {
                format!("{b:.2}*")
            } else {
                format!("{b:.2}")
            }
        }));
        println!("{}", row(&cells, &widths));
    }
}

/// Fig. 10: node order comparison on representative graphs.
fn fig10(scale: Scale) {
    banner("Fig. 10: node orders (bpe)");
    let orders = [
        ("Natural", NodeOrder::Natural),
        ("BFS", NodeOrder::Bfs),
        ("FP0", NodeOrder::Fp0),
        ("FP", NodeOrder::Fp),
        ("Random", NodeOrder::Random(13)),
    ];
    let widths = [18, 9, 9, 9, 9, 9];
    let mut header = vec!["graph".to_string()];
    header.extend(orders.iter().map(|(n, _)| n.to_string()));
    println!("{}", row(&header, &widths));

    let network = network_suite(scale);
    let rdf = rdf_suite(scale);
    let history = dblp_history(scale, 11);
    let dblp = NamedGraph {
        name: "DBLP60-70",
        family: Family::Version,
        graph: history.version_graph(10),
    };
    let mut picks: Vec<&NamedGraph> = Vec::new();
    for name in ["CA-AstroPh", "Email-EuAll", "NotreDame"] {
        picks.push(network.iter().find(|d| d.name == name).unwrap());
    }
    for name in ["SpecificProps-en", "Jamendo"] {
        picks.push(rdf.iter().find(|d| d.name == name).unwrap());
    }
    picks.push(&dblp);

    for d in picks {
        let mut cells = vec![d.name.to_string()];
        for (_, order) in orders {
            let bpe = run_grepair(&d.graph, &GRePairConfig { order, ..Default::default() }).bpe;
            cells.push(format!("{bpe:.2}"));
        }
        println!("{}", row(&cells, &widths));
    }
}

/// Fig. 11: FP equivalence classes vs compression.
fn fig11(scale: Scale) {
    banner("Fig. 11: |[~FP]|/|V| vs bpe (scatter data)");
    let widths = [18, 12, 9];
    println!("{}", row(&["graph".into(), "classes/|V|".into(), "bpe".into()], &widths));
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut suites = network_suite(scale);
    suites.extend(rdf_suite(scale));
    suites.extend(version_suite(scale));
    for d in &suites {
        let s = dataset_stats(&d.graph);
        let ratio = s.fp_classes as f64 / s.nodes.max(1) as f64;
        let bpe = run_grepair(&d.graph, &GRePairConfig::default()).bpe;
        points.push((ratio, bpe));
        println!(
            "{}",
            row(&[d.name.to_string(), format!("{ratio:.4}"), format!("{bpe:.2}")], &widths)
        );
    }
    // The paper's observation: the lower-right corner is empty — no graph
    // with few classes compresses badly.
    let max_bpe = points.iter().map(|p| p.1).fold(0.0, f64::max);
    let violations = points
        .iter()
        .filter(|(r, b)| *r < 0.05 && *b > 0.5 * max_bpe)
        .count();
    println!("lower-right corner (classes/|V| < 0.05 but bpe > half of max): {violations} graphs");
}

/// Fig. 12: network graphs, gRePair vs k2 vs LM vs HN.
fn fig12(scale: Scale) {
    banner("Fig. 12: network graphs (bpe)");
    let widths = [18, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &["graph".into(), "gRePair".into(), "k2".into(), "LM".into(), "HN".into()],
            &widths
        )
    );
    for d in network_suite(scale) {
        let gr = run_grepair(&d.graph, &GRePairConfig::default());
        let (k2, _) = run_k2(&d.graph);
        let (lm, _) = run_lm(&d.graph);
        let (hn, _) = run_hn(&d.graph);
        println!(
            "{}",
            row(
                &[
                    d.name.to_string(),
                    format!("{:.2}", gr.bpe),
                    format!("{k2:.2}"),
                    format!("{lm:.2}"),
                    format!("{hn:.2}"),
                ],
                &widths
            )
        );
    }
}

/// Table V: RDF graphs, gRePair vs k2 (sizes in KB).
fn table5(scale: Scale) {
    banner("Table V: RDF graphs (size in KB)");
    let widths = [18, 10, 10, 8];
    println!(
        "{}",
        row(&["graph".into(), "gRePair".into(), "k2".into(), "ratio".into()], &widths)
    );
    for d in rdf_suite(scale) {
        let gr = run_grepair(&d.graph, &GRePairConfig::default());
        let (_, k2_bits) = run_k2(&d.graph);
        println!(
            "{}",
            row(
                &[
                    d.name.to_string(),
                    format!("{}", gr.bits / 8192),
                    format!("{}", k2_bits / 8192),
                    format!("{:.1}x", k2_bits as f64 / gr.bits.max(1) as f64),
                ],
                &widths
            )
        );
    }
}

/// Table VI: version graphs (bpe); LM/HN only for unlabeled ones, as in the
/// paper.
fn table6(scale: Scale) {
    banner("Table VI: version graphs (bpe; '-' = labeled, method n/a)");
    let widths = [14, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &["graph".into(), "gRePair".into(), "k2".into(), "LM".into(), "HN".into()],
            &widths
        )
    );
    for d in version_suite(scale) {
        let gr = run_grepair(&d.graph, &GRePairConfig::default());
        let (k2, _) = run_k2(&d.graph);
        let (lm, hn) = if is_unlabeled(&d.graph) {
            (format!("{:.2}", run_lm(&d.graph).0), format!("{:.2}", run_hn(&d.graph).0))
        } else {
            ("-".into(), "-".into())
        };
        println!(
            "{}",
            row(
                &[d.name.to_string(), format!("{:.2}", gr.bpe), format!("{k2:.2}"), lm, hn],
                &widths
            )
        );
    }
}

/// Fig. 13: disjoint copies of the 4-node/5-edge graph, file sizes.
fn fig13() {
    banner("Fig. 13: disjoint copies of a 4-node/5-edge graph (bytes)");
    let widths = [8, 10, 10, 10];
    println!(
        "{}",
        row(&["copies".into(), "gRePair".into(), "k2".into(), "LM".into()], &widths)
    );
    let base = grepair_datasets::version::circle_with_diagonal();
    let mut copies = 8usize;
    while copies <= 4096 {
        let g = grepair_datasets::version::disjoint_copies(&base, copies);
        let gr = run_grepair(&g, &GRePairConfig::default());
        let (_, k2_bits) = run_k2(&g);
        let (_, lm_bits) = run_lm(&g);
        println!(
            "{}",
            row(
                &[
                    copies.to_string(),
                    (gr.bits / 8 + 1).to_string(),
                    (k2_bits / 8 + 1).to_string(),
                    (lm_bits / 8 + 1).to_string(),
                ],
                &widths
            )
        );
        copies *= 2;
    }
}

/// Fig. 14: growing DBLP version graph under different orders.
fn fig14(scale: Scale) {
    banner("Fig. 14: DBLP 1960..1970 version graph, bpe per order");
    let orders = [
        ("FP", NodeOrder::Fp),
        ("FP0", NodeOrder::Fp0),
        ("BFS", NodeOrder::Bfs),
        ("Natural", NodeOrder::Natural),
        ("Random", NodeOrder::Random(13)),
    ];
    let widths = [7, 9, 9, 9, 9, 9, 9, 9];
    let mut header = vec!["years".to_string()];
    header.extend(orders.iter().map(|(n, _)| n.to_string()));
    header.push("k2".into());
    header.push("|E|".into());
    println!("{}", row(&header, &widths));
    let history = dblp_history(scale, 11);
    for year in 0..=10usize {
        let g = history.version_graph(year);
        let mut cells = vec![format!("60-{}", 60 + year)];
        for (_, order) in orders {
            let bpe = run_grepair(&g, &GRePairConfig { order, ..Default::default() }).bpe;
            cells.push(format!("{bpe:.2}"));
        }
        let (k2, _) = run_k2(&g);
        cells.push(format!("{k2:.2}"));
        cells.push(g.num_edges().to_string());
        println!("{}", row(&cells, &widths));
    }
}

/// §IV-C text: average |G|/|g| compression ratio per family.
fn ratios(scale: Scale) {
    banner("Compression ratio |G|/|g| per family (paper: 68% / 35% / 24%)");
    let families: [(&str, Vec<NamedGraph>); 3] = [
        ("network", network_suite(scale)),
        ("RDF", rdf_suite(scale)),
        ("version", version_suite(scale)),
    ];
    for (name, suite) in families {
        let mut total = 0.0;
        for d in &suite {
            let gr = run_grepair(&d.graph, &GRePairConfig::default());
            total += gr.compressed.stats.ratio();
        }
        println!("{name:>8}: {:.0}%", 100.0 * total / suite.len() as f64);
    }
}

/// §V (extension): query timings over the grammar vs the decompressed
/// graph, plus the serving path (one loaded `GraphStore` answering the same
/// requests as a batch).
/// The yes/no answers of one store batch.
fn bools(answers: Vec<Result<std::sync::Arc<QueryAnswer>, GrepairError>>) -> Vec<bool> {
    answers
        .into_iter()
        .map(|r| match *r.expect("in-range query") {
            QueryAnswer::Bool(b) => b,
            ref other => panic!("a yes/no query answered {other:?}"),
        })
        .collect()
}

fn queries(scale: Scale) {
    banner("Queries (SS V, implemented here): grammar vs decompressed graph");
    // The long-path case: grammar is logarithmic in the graph.
    let reps = match scale {
        Scale::Full => 16_384u32,
        Scale::Quick => 2_048,
    };
    let (path, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let history = dblp_history(scale, 11);
    // Each graph with the word its RPQ columns ask for.
    let cases = [("path(2^n)", path, "0 1"), ("DBLP60-70", history.version_graph(10), "0 0")];
    let widths = [12, 9, 9, 14, 14, 14, 9, 9, 12, 12, 9, 13, 13];
    println!(
        "{}",
        row(
            &[
                "graph".into(),
                "|g|".into(),
                "|G|".into(),
                "reach(gram)".into(),
                "reach(BFS)".into(),
                "reach(store)".into(),
                "pairs/q".into(),
                "dag/q".into(),
                "rpq(gram)".into(),
                "rpq(BFS)".into(),
                "work/q".into(),
                "cc(gram)".into(),
                "cc(graph)".into(),
            ],
            &widths
        )
    );
    for (name, g, pattern) in cases {
        let out = grepair_core::compress(&g, &GRePairConfig::default());
        let derived = out.grammar.derive();
        let reach = grepair_queries::ReachIndex::new(&out.grammar);
        let n = derived.num_nodes() as u64;
        let pairs: Vec<(u64, u64)> =
            (0..200).map(|i| ((i * 7919) % n, (i * 104_729 + 13) % n)).collect();

        let t = Instant::now();
        let counted: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| reach.try_reachable_counted(s, t).expect("ids are in range"))
            .collect();
        let grammar_reach = t.elapsed();
        let a: Vec<bool> = counted.iter().map(|&(answer, _)| answer).collect();
        // What a query did, counted: label tests on node pairs, and DAG
        // nodes expanded where the labels left a pair open.
        let queries = counted.len() as f64;
        let pair_tests = counted.iter().map(|(_, w)| w.pair_tests).sum::<u32>() as f64 / queries;
        let dag_nodes = counted.iter().map(|(_, w)| w.dag_nodes).sum::<u32>() as f64 / queries;
        let t = Instant::now();
        let b: Vec<bool> = pairs
            .iter()
            .map(|&(s, t)| grepair_hypergraph::traverse::reachable(&derived, s as u32, t as u32))
            .collect();
        let bfs_reach = t.elapsed();
        assert_eq!(a, b, "grammar and BFS reachability disagree on {name}");

        // The serving path: the same requests through one GraphStore batch
        // (planning, dispatch and an `Arc` per answer on top of the index).
        let store = grepair_store::GraphStore::from_grammar(out.grammar.clone())
            .expect("compressed grammar is valid");
        let batch: Vec<grepair_store::Query> = pairs
            .iter()
            .map(|&(s, t)| grepair_store::Query::Reach { s, t })
            .collect();
        let t = Instant::now();
        let answers = store.query_batch(&batch);
        let store_reach = t.elapsed();
        assert_eq!(a, bools(answers), "store batch reachability disagrees on {name}");

        // The paper's "future work" row: a regular path query on the
        // grammar, over the same pairs, against the product BFS on the
        // decompressed graph and against one store batch.
        let nfa = grepair_store::compile_pattern(pattern).expect("a valid pattern");
        let rpq = grepair_queries::RpqIndex::new(&out.grammar, nfa.clone());
        let t = Instant::now();
        let counted: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| rpq.try_matches_counted(s, t).expect("ids are in range"))
            .collect();
        let grammar_rpq = t.elapsed();
        let matched: Vec<bool> = counted.iter().map(|&(answer, _)| answer).collect();
        // Adjacency entries a query was offered, in rules and in S.
        let rpq_work = counted.iter().map(|(_, w)| w.rules + w.start).sum::<u64>() as f64 / queries;
        let t = Instant::now();
        let by_bfs: Vec<bool> = pairs
            .iter()
            .map(|&(s, t)| grepair_queries::rpq::rpq_on_graph(&derived, &nfa, s as u32, t as u32))
            .collect();
        let bfs_rpq = t.elapsed();
        assert_eq!(matched, by_bfs, "grammar and product BFS disagree on {name}");
        let batch: Vec<grepair_store::Query> = pairs
            .iter()
            .map(|&(s, t)| grepair_store::Query::Rpq { s, t, pattern: pattern.into() })
            .collect();
        assert_eq!(matched, bools(store.query_batch(&batch)), "store batch rpq disagrees on {name}");

        let t = Instant::now();
        let cc_g = grepair_queries::speedup::connected_components(&out.grammar);
        let grammar_cc = t.elapsed();
        let t = Instant::now();
        let (_, cc_d) = grepair_hypergraph::traverse::connected_components(&derived);
        let graph_cc = t.elapsed();
        assert_eq!(cc_g, cc_d as u64);

        println!(
            "{}",
            row(
                &[
                    name.to_string(),
                    g.total_size().to_string(),
                    out.grammar.size().to_string(),
                    format!("{grammar_reach:.1?}"),
                    format!("{bfs_reach:.1?}"),
                    format!("{store_reach:.1?}"),
                    format!("{pair_tests:.2}"),
                    format!("{dag_nodes:.2}"),
                    format!("{grammar_rpq:.1?}"),
                    format!("{bfs_rpq:.1?}"),
                    format!("{rpq_work:.2}"),
                    format!("{grammar_cc:.1?}"),
                    format!("{graph_cc:.1?}"),
                ],
                &widths
            )
        );
    }
}

/// Conclusion claim: gRePair on string-shaped graphs ≈ string RePair.
fn strings() {
    banner("Strings-as-graphs: gRePair vs string RePair (conclusion claim)");
    // The string (abc)^n as a path graph with labels a, b, c.
    let reps = 2_000u32;
    let triples = (0..reps).flat_map(|i| {
        let b = 3 * i;
        [(b, 0u32, b + 1), (b + 1, 1, b + 2), (b + 2, 2, b + 3)]
    });
    let (g, _) = Hypergraph::from_simple_edges((3 * reps + 1) as usize, triples);
    let gr = run_grepair(&g, &GRePairConfig::default());
    let seq: Vec<u32> = (0..3 * reps).map(|i| i % 3).collect();
    let sg = grepair_baselines::repair_strings::repair(&seq, 3);
    println!(
        "gRePair grammar: {} rules, {} bits serialized",
        gr.compressed.grammar.num_nonterminals(),
        gr.bits
    );
    println!(
        "string RePair:   {} rules, {} bits estimated",
        sg.rules.len(),
        sg.size_bits()
    );
    println!(
        "rule-count ratio {:.2} (the paper's claim: 'similar compression ratios')",
        gr.compressed.grammar.num_nonterminals() as f64 / sg.rules.len().max(1) as f64
    );
}
