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
