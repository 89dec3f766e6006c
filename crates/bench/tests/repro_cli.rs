//! Binary-level tests for `repro`: unknown flags (including `--help`) must
//! print a usage message and exit non-zero instead of silently running
//! nothing, the sections that print sizes against the baselines must keep
//! the shapes of the paper's figures, and the ablations section prints one
//! row of bpe per family.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn unknown_flags_are_usage_errors() {
    for bad in [&["--help"][..], &["--tabel1"], &["table1"], &["--table1", "--bogus"]] {
        let out = repro(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{bad:?} must print usage:\n{stderr}");
        assert!(stderr.contains("unknown flag"), "{bad:?}:\n{stderr}");
        // Nothing ran: no table banner on stdout.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("==="), "{bad:?} must not run sections:\n{stdout}");
    }
}

#[test]
fn known_section_still_runs() {
    let out = repro(&["--table1", "--quick"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I"), "{stdout}");
}

#[test]
fn queries_section_shows_the_rpq_columns_next_to_reach() {
    // The section asserts grammar ≡ BFS ≡ store batch on every pair itself;
    // here: it ran, and the header carries the paper's "future work" row.
    let out = repro(&["--queries", "--quick"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let header = stdout.lines().find(|l| l.contains("reach(gram)")).expect("a header line");
    let columns: Vec<&str> = header.split_whitespace().collect();
    let after_dag = columns.iter().position(|&c| c == "dag/q").expect("dag/q") + 1;
    assert_eq!(columns[after_dag..after_dag + 3], ["rpq(gram)", "rpq(BFS)", "work/q"], "{header}");
    for graph in ["path(2^n)", "DBLP60-70"] {
        let line = stdout.lines().find(|l| l.contains(graph)).expect("one row per graph");
        assert_eq!(line.split_whitespace().count(), columns.len(), "{line}");
    }
}

/// The rows of the section whose `===` banner names `title`, split on
/// whitespace: everything after the column header up to the blank line.
fn section_rows<'a>(stdout: &'a str, title: &str) -> Vec<Vec<&'a str>> {
    stdout
        .lines()
        .skip_while(|l| !(l.starts_with("===") && l.contains(title)))
        .skip(2)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[test]
fn baseline_size_sections_keep_the_papers_shapes() {
    // k², LM and HN are size comparators and nothing else: these are the
    // shapes DESIGN.md §4 records, pinned with slack over today's numbers.
    // One process per section, run side by side: together they are ≈ 30 s
    // of a debug build, Fig. 12 alone half of that.
    let sections = ["--fig12", "--table5", "--table6", "--fig13"].map(|flag| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", flag])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs")
    });
    let mut stdout = String::new();
    for section in sections {
        let out = section.wait_with_output().expect("section finishes");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        stdout += &String::from_utf8_lossy(&out.stdout);
    }
    let num = |cell: &str| -> f64 {
        cell.trim_end_matches('x').parse().unwrap_or_else(|e| panic!("{cell:?}: {e}\n{stdout}"))
    };

    // Table V: gRePair beats k² by at least 2× on every RDF graph.
    let rdf = section_rows(&stdout, "Table V");
    assert_eq!(rdf.len(), 6, "{stdout}");
    for row in &rdf {
        assert!(num(row[3]) >= 2.0, "k²/gRePair on {row:?}");
    }

    // Table VI: gRePair ≤ k² on every version graph; LM and HN have no
    // labels, so they print `-` exactly on the labeled rows.
    let versions = section_rows(&stdout, "Table VI");
    assert_eq!(versions.len(), 4, "{stdout}");
    for row in &versions {
        assert!(num(row[1]) <= num(row[2]), "gRePair vs k² on {row:?}");
        let labeled = matches!(row[0], "Tic-Tac-Toe" | "Chess");
        assert_eq!((row[3] == "-", row[4] == "-"), (labeled, labeled), "{row:?}");
    }

    // Fig. 12: k² stays competitive on raw networks — within 10 % of
    // gRePair on at least two of them.
    let networks = section_rows(&stdout, "Fig. 12");
    assert_eq!(networks.len(), 8, "{stdout}");
    let close = networks.iter().filter(|row| num(row[2]) <= 1.1 * num(row[1])).count();
    assert!(close >= 2, "{close} network rows with k² ≤ 1.1 × gRePair:\n{stdout}");

    // Fig. 13: from 8 to 4 096 disjoint copies, gRePair grows
    // logarithmically (≤ 8×) and k² linearly (≥ 256×).
    let copies = section_rows(&stdout, "Fig. 13");
    let (first, last) = (&copies[0], &copies[copies.len() - 1]);
    assert_eq!((first[0], last[0]), ("8", "4096"), "{stdout}");
    assert!(num(last[1]) <= 8.0 * num(first[1]), "gRePair {first:?} → {last:?}");
    assert!(num(last[2]) >= 256.0 * num(first[2]), "k² {first:?} → {last:?}");
}

#[test]
fn ablations_section_prints_three_bpe_cells_per_family() {
    // The size side of rule pruning and virtual edges (DESIGN.md §3), on
    // the smallest graph of each family: ≈ 5 s of a debug build.
    let out = repro(&["--ablations", "--quick"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows = section_rows(&stdout, "Ablations");
    let graphs: Vec<&str> = rows.iter().map(|row| row[0]).collect();
    assert_eq!(graphs, ["CA-GrQc", "Identica", "Chess"], "{stdout}");
    for row in &rows {
        let bpe: Vec<f64> = row[1..].iter().map(|cell| cell.parse().unwrap()).collect();
        assert_eq!(bpe.len(), 3, "default, no-prune, no-virtual: {row:?}");
        assert!(bpe.iter().all(|&b| b > 0.0), "{row:?}");
        // The one shape DESIGN.md §4 records: pruning never costs bits.
        assert!(bpe[0] <= bpe[1], "default vs no-prune on {row:?}");
    }
}
