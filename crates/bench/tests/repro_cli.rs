//! Binary-level tests for `repro` flag handling: unknown flags (including
//! `--help`) must print a usage message and exit non-zero instead of
//! silently running nothing.

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
