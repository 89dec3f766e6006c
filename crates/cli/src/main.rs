//! `grepair` — command-line front end for the gRePair graph compressor.
//!
//! ```text
//! grepair stats      <graph.txt>
//! grepair compress   <graph.txt> -o <out.g2g> [--max-rank N] [--order fp|fp0|bfs|natural|random]
//!                    [--no-prune] [--no-virtual] [--map <out.map>] [--trace]
//! grepair decompress <in.g2g> -o <graph.txt> [--map <in.map>]
//! grepair query      reach <in.g2g> <s> <t>
//! grepair query      neighbors <in.g2g> <v>
//! grepair query      components <in.g2g>
//! grepair query      rpq <in.g2g> <s> <t> <atom>...
//! grepair store      serve-file <in.g2g> <queries.txt> [--batch N] [--threads N]
//! grepair store      serve <in.g2g> [--addr HOST:PORT] [--threads N] [--batch N] [--max-line N]
//! grepair store      patch <in.g2g> <patches.txt> -o <out.g2g>
//! grepair store      versions <in.g2g> <patches.txt>
//! grepair generate   <kind> [n] [seed] -o <graph.txt>
//! ```
//!
//! Graph text formats: SNAP-style `source target` pairs, or integer RDF
//! triples `subject predicate object` (three columns, autodetected).
//!
//! Every decode and query path is fallible end to end (the CLI is a thin
//! shell over [`grepair_store::GraphStore`]): hostile `.g2g` bytes and
//! out-of-range node ids exit with an error message, never a panic.

#![forbid(unsafe_code)]

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::order::NodeOrder;
use grepair_hypergraph::{io, Hypergraph};
use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Fail(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        // Usage errors (an unknown flag, mirroring `repro`'s unknown-flag
        // contract) exit 2 so scripts can tell "you called it wrong" from
        // "it ran and failed".
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A CLI failure, split by exit code: `Usage` is a malformed invocation
/// (exit 2, like `repro`'s unknown-flag handling); `Fail` is a run-time
/// failure (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// The invocation itself is wrong (exit 2).
    Usage(String),
    /// The command ran and failed (exit 1).
    Fail(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Fail(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Fail(message.into())
    }
}

const USAGE: &str = "usage:
  grepair stats      <graph.txt>
  grepair compress   <graph.txt> -o <out.g2g> [--max-rank N] [--order ORDER] [--no-prune] [--no-virtual] [--map FILE] [--trace]
  grepair decompress <in.g2g> -o <graph.txt> [--map FILE]
  grepair query      reach <in.g2g> <s> <t> | neighbors <in.g2g> <v> | components <in.g2g> | rpq <in.g2g> <s> <t> <atom>...
  grepair store      serve-file <in.g2g> <queries.txt> [--batch N] [--threads N]
  grepair store      serve <in.g2g> [--addr HOST:PORT] [--threads N] [--batch N] [--max-line N] [--read-timeout SECS] [--max-connections N] [--io epoll|threads]
  grepair store      patch <in.g2g> <patches.txt> -o <out.g2g>
  grepair store      versions <in.g2g> <patches.txt>
  grepair generate   <kind> [n] [seed] -o <graph.txt>   (kinds: ttt, types, pa, er, coauth, web, chess, versions)";

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("stats") => Ok(commands::stats(args.get(1).ok_or("missing input file")?)?),
        Some("compress") => {
            let input = args.get(1).ok_or("missing input file")?;
            let opts = parse_compress_opts(&args[2..])?;
            Ok(commands::compress_file(input, &opts)?)
        }
        Some("decompress") => {
            let input = args.get(1).ok_or("missing input file")?;
            validate_value_flags(&args[2..], &["-o", "--map"])?;
            let output = flag_value(&args[2..], "-o").ok_or("missing -o OUTPUT")?;
            let map = flag_value(&args[2..], "--map");
            Ok(commands::decompress_file(input, &output, map.as_deref())?)
        }
        Some("query") => Ok(commands::query(&args[1..])?),
        Some("store") => commands::store_cmd(&args[1..]),
        Some("generate") => Ok(commands::generate(&args[1..])?),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => Err("no command given".into()),
    }
}

/// Options for `grepair compress`.
pub struct CompressOpts {
    /// Output path.
    pub output: String,
    /// Optional node-map sidecar path.
    pub map: Option<String>,
    /// Compressor configuration.
    pub config: GRePairConfig,
    /// Report the compressor's phase times and work counters on stderr
    /// (changes no output byte).
    pub trace: bool,
}

// One argv contract for every binary in the workspace (the server shares
// these — see `grepair_util::args`).
pub(crate) use grepair_util::args::{flag_value, validate_value_flags};

fn parse_compress_opts(args: &[String]) -> Result<CompressOpts, CliError> {
    // Unknown or value-less flags are usage errors, not silent no-ops — a
    // typoed `--max-rnak 6` or `--max-rank=6` must never quietly fall back
    // to the default configuration.
    let value_flags = ["-o", "--map", "--max-rank", "--order"];
    let bool_flags = ["--no-prune", "--no-virtual", "--trace"];
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if bool_flags.contains(&a.as_str()) {
            i += 1;
        } else if value_flags.contains(&a.as_str()) {
            if i + 1 >= args.len() {
                return Err(CliError::Usage(format!("flag {a} needs a value")));
            }
            i += 2;
        } else {
            return Err(CliError::Usage(format!("unexpected argument {a:?}")));
        }
    }
    let output = flag_value(args, "-o").ok_or("missing -o OUTPUT")?;
    let map = flag_value(args, "--map");
    let mut config = GRePairConfig::default();
    if let Some(raw) = flag_value(args, "--max-rank") {
        config.max_rank = raw.parse().map_err(|e| format!("bad --max-rank: {e}"))?;
    }
    if let Some(raw) = flag_value(args, "--order") {
        config.order = match raw.as_str() {
            "fp" => NodeOrder::Fp,
            "fp0" => NodeOrder::Fp0,
            "bfs" => NodeOrder::Bfs,
            "natural" => NodeOrder::Natural,
            "random" => NodeOrder::Random(0),
            other => return Err(format!("unknown order {other:?}").into()),
        };
    }
    if args.iter().any(|a| a == "--no-prune") {
        config.prune = false;
    }
    if args.iter().any(|a| a == "--no-virtual") {
        config.connect_components = false;
    }
    let trace = args.iter().any(|a| a == "--trace");
    Ok(CompressOpts { output, map, config, trace })
}

/// Read a graph from a text file, autodetecting pairs vs triples.
pub fn read_graph(path: &str) -> Result<Hypergraph, String> {
    read_graph_with_map(path).map(|(g, _)| g)
}

/// Like [`read_graph`], but also return the dense-id → original-label map
/// the parser built (index = dense node id, value = the label the input
/// file used).
pub fn read_graph_with_map(path: &str) -> Result<(Hypergraph, Vec<u64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let columns = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().count())
        .unwrap_or(2);
    match columns {
        2 => io::parse_pairs(&text).map(|(g, m, _)| (g, m)).map_err(|e| e.to_string()),
        3 => io::parse_triples(&text).map(|(g, m, _)| (g, m)).map_err(|e| e.to_string()),
        n => Err(format!("{path}: expected 2 or 3 columns, found {n}")),
    }
}

/// Run a compression and report to stdout.
pub fn compress_and_report(g: &Hypergraph, config: &GRePairConfig) -> grepair_core::CompressedGraph {
    let out = compress(g, config);
    println!(
        "compressed: |g| = {} -> |G| = {} (ratio {:.3}); {} rules, {} replacements",
        out.stats.input_size,
        out.stats.grammar_size,
        out.stats.ratio(),
        out.grammar.num_nonterminals(),
        out.stats.replacements,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn compress_opts_defaults() {
        let opts = parse_compress_opts(&args(&["-o", "out.g2g"])).unwrap();
        assert_eq!(opts.output, "out.g2g");
        assert!(opts.map.is_none());
        assert_eq!(opts.config.max_rank, 4);
        assert!(opts.config.prune);
        assert!(opts.config.connect_components);
    }

    #[test]
    fn compress_opts_backend_selection() {
        // The grammar is the only codec: `--backend` is an unknown flag, a
        // Usage error (exit 2) naming it, never a silently ignored choice.
        for flag in [&["--backend", "k2"][..], &["--backend", "grepair"], &["--backend=k2"]] {
            let argv = args(&[&["-o", "x"][..], flag].concat());
            assert!(matches!(
                parse_compress_opts(&argv),
                Err(CliError::Usage(m)) if m.contains("--backend")
            ));
        }
        // Malformed flag shapes must not silently fall back to the
        // defaults: `=`-style values, typos, and value-less flags are all
        // usage errors.
        assert!(matches!(
            parse_compress_opts(&args(&["-o", "x", "--max-rank=6"])),
            Err(CliError::Usage(m)) if m.contains("--max-rank=6")
        ));
        assert!(matches!(
            parse_compress_opts(&args(&["-o", "x", "--max-rnak", "6"])),
            Err(CliError::Usage(m)) if m.contains("--max-rnak")
        ));
        assert!(matches!(
            parse_compress_opts(&args(&["-o", "x", "--order"])),
            Err(CliError::Usage(m)) if m.contains("needs a value")
        ));
    }

    #[test]
    fn compress_opts_full() {
        let opts = parse_compress_opts(&args(&[
            "--max-rank", "6", "-o", "x", "--order", "bfs", "--no-prune", "--no-virtual",
            "--map", "m.txt",
        ]))
        .unwrap();
        assert_eq!(opts.config.max_rank, 6);
        assert_eq!(opts.config.order, NodeOrder::Bfs);
        assert!(!opts.config.prune);
        assert!(!opts.config.connect_components);
        assert_eq!(opts.map.as_deref(), Some("m.txt"));
    }

    #[test]
    fn compress_opts_errors() {
        assert!(parse_compress_opts(&args(&[])).is_err());
        assert!(parse_compress_opts(&args(&["-o", "x", "--order", "zigzag"])).is_err());
        assert!(parse_compress_opts(&args(&["-o", "x", "--max-rank", "many"])).is_err());
    }

    #[test]
    fn read_graph_autodetects_columns() {
        let dir = std::env::temp_dir();
        let pairs = dir.join("grepair_cli_test_pairs.txt");
        std::fs::write(&pairs, "# c\n1 2\n2 3\n").unwrap();
        let g = read_graph(pairs.to_str().unwrap()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.edges().all(|e| e.label.index() == 0));

        let triples = dir.join("grepair_cli_test_triples.txt");
        std::fs::write(&triples, "1 9 2\n2 7 3\n").unwrap();
        let g = read_graph(triples.to_str().unwrap()).unwrap();
        assert_eq!(g.num_edges(), 2);
        let labels: std::collections::BTreeSet<u32> =
            g.edges().map(|e| e.label.index()).collect();
        assert_eq!(labels.len(), 2);

        assert!(read_graph("/nonexistent/grepair.txt").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&[])).is_err());
    }

    #[test]
    fn value_flags_are_validated() {
        let known = ["-o", "--map"];
        assert!(validate_value_flags(&args(&[]), &known).is_ok());
        assert!(validate_value_flags(&args(&["-o", "x"]), &known).is_ok());
        assert!(validate_value_flags(&args(&["--map", "m", "-o", "x"]), &known).is_ok());
        assert!(validate_value_flags(&args(&["--mpa", "m"]), &known).is_err());
        assert!(validate_value_flags(&args(&["-o"]), &known).is_err());
        assert!(validate_value_flags(&args(&["stray", "-o", "x"]), &known).is_err());
    }
}
