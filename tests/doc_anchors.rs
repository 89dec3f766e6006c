//! Every DESIGN.md reference in the workspace resolves (DESIGN.md §9.1,
//! rule doc-anchors): each `§N` / `§N.M` names a numbered heading, each
//! `DESIGN.md#slug` link matches a heading's slug, and each `examples/*.rs`
//! mention names a file that exists. Paper sections are cited with Roman
//! numerals (`§IV`), so they never match.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The resolvable targets of a DESIGN.md text.
struct Anchors {
    /// Numbered headings: "2", "6", "6.1", …
    sections: BTreeSet<String>,
    /// GitHub-style heading slugs: "6-wire-protocol-and-serving-topology".
    slugs: BTreeSet<String>,
}

impl Anchors {
    fn parse(design: &str) -> Anchors {
        let mut anchors = Anchors {
            sections: BTreeSet::new(),
            slugs: BTreeSet::new(),
        };
        for heading in design.lines().filter_map(|l| l.strip_prefix('#')) {
            let heading = heading.trim_start_matches('#').trim();
            if let Some(number) = heading.strip_prefix('§').map(leading_number) {
                anchors.sections.insert(number);
            }
            anchors.slugs.insert(slugify(heading));
        }
        anchors
    }
}

/// GitHub's heading → fragment rule as the README links use it: lowercase
/// ASCII alphanumerics kept, spaces and hyphens become hyphens, everything
/// else (`§` included) dropped.
fn slugify(heading: &str) -> String {
    heading
        .chars()
        .filter_map(|c| match c {
            ' ' | '-' => Some('-'),
            c if c.is_ascii_alphanumeric() => Some(c.to_ascii_lowercase()),
            _ => None,
        })
        .collect()
}

/// The `6.1` of `6.1 Framing` (trailing dot dropped); empty if `s` does not
/// start with a digit.
fn leading_number(s: &str) -> String {
    let end = s
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(s.len());
    s[..end].trim_end_matches('.').to_string()
}

/// The text after each occurrence of `pat` in `line`.
fn after<'a>(line: &'a str, pat: &'a str) -> impl Iterator<Item = &'a str> + 'a {
    line.match_indices(pat)
        .map(move |(at, _)| &line[at + pat.len()..])
}

/// Every dangling reference in `text`, as `line N: …` messages.
/// `example_exists` decides whether an `examples/<name>.rs` path resolves.
fn dangling(text: &str, anchors: &Anchors, example_exists: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        for number in after(line, "§").map(leading_number) {
            if !number.is_empty() && !anchors.sections.contains(&number) {
                found.push(format!("line {n}: §{number} has no DESIGN.md heading"));
            }
        }
        for rest in after(line, "DESIGN.md#") {
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '-' && c != '_')
                .unwrap_or(rest.len());
            let slug = &rest[..end];
            if !slug.is_empty() && !anchors.slugs.contains(slug) {
                found.push(format!("line {n}: DESIGN.md#{slug} matches no heading"));
            }
        }
        for (at, _) in line.match_indices("examples/") {
            let rest = &line[at..];
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && !matches!(c, '/' | '_' | '-' | '.'))
                .unwrap_or(rest.len());
            let path = &rest[..end];
            if path.ends_with(".rs") && !example_exists(path) {
                found.push(format!("line {n}: {path} does not exist"));
            }
        }
    }
    found
}

/// The `.rs` files under `dir`, recursively; none if it does not exist.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for path in std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            files.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn every_design_reference_in_the_workspace_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let anchors = Anchors::parse(&std::fs::read_to_string(root.join("DESIGN.md")).unwrap());
    let mut surfaces = vec![root.join("README.md"), root.join("DESIGN.md")];
    surfaces.extend(rs_files(&root.join("src")));
    surfaces.extend(rs_files(&root.join("examples")));
    for krate in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        for sub in ["src", "tests", "benches", "examples"] {
            surfaces.extend(rs_files(&krate.path().join(sub)));
        }
    }
    assert!(
        surfaces.len() > 80,
        "only {} surfaces found",
        surfaces.len()
    );
    let exists = |path: &str| root.join(path).is_file();
    let mut failures = Vec::new();
    for path in &surfaces {
        let text = std::fs::read_to_string(path).unwrap();
        for finding in dangling(&text, &anchors, &exists) {
            failures.push(format!(
                "{}: {finding}",
                path.strip_prefix(root).unwrap().display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "dangling doc references:\n{}",
        failures.join("\n")
    );
}

const DESIGN: &str = "# Design notes\n\n## §6 Wire protocol and serving topology\n\n\
                      ### §6.1 Framing\n\n## §10 Fault model\n\n### §10.5 The chaos contract\n";

fn check(text: &str) -> Vec<String> {
    dangling(text, &Anchors::parse(DESIGN), &|path| {
        path == "examples/serving.rs"
    })
}

#[test]
fn the_checker_reports_each_kind_of_dangling_reference() {
    for bad in [
        "/// See DESIGN.md §99.",
        "// §6.9 does not exist, §6.1 does.",
        "[framing](DESIGN.md#no-such-heading)",
        "run `cargo run --example missing` (examples/missing.rs)",
    ] {
        assert_eq!(check(bad).len(), 1, "{bad:?} → {:?}", check(bad));
    }
}

#[test]
fn the_checker_accepts_paper_sections_and_valid_anchors() {
    let good = "The paper's §IV and §III-C2 codec; DESIGN.md §6, §6.1 and §10.5.\n\
                [wire](DESIGN.md#6-wire-protocol-and-serving-topology) and \
                [chaos](DESIGN.md#105-the-chaos-contract); examples/serving.rs.";
    assert_eq!(check(good), Vec::<String>::new());
}
