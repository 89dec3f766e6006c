//! The repo benchmark. It measures the system from outside, by timing calls
//! into each crate's public functions — `datasets` → `core` → `codec` →
//! `grammar` → `queries` → `store` → `server` — on four workloads, and
//! prints every metric by name with its unit. README.md has the layer map,
//! the metric glossary and the noise findings behind the run shape.

mod aa;
mod host;
mod json;
mod model;
mod pipeline;
mod plan;
mod report;
mod rng;
mod run;
mod setup;
mod spec;
mod stats;
mod trace;
mod wire;

use std::process::ExitCode;

use grepair_util::args::{flag_value, validate_value_flags};

use crate::run::Options;
use crate::spec::{workload, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: grepair-benchmark (--workload <name> | --all) [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--aa <n>]
  --workload <name>  one of: compress-network, compress-version, serve-rdf-read, serve-network-patch
  --all              every workload, each in a process of its own
  --seed <n>         seeds the graph rotation, every request stream and the patch list (default 1)
  --seconds <s>      measuring time the round count is derived from (default 25)
  --trace <0|1>      1: record spans and report the per-layer metrics instead of the end-to-end ones
  --quick            smoke run: 2 rounds, one tenth of every count; not comparable with full runs
  --aa <n>           run 2n times, alternate the runs between two sets, fail if the sets disagree";

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        Some(raw) => raw.parse().map_err(|_| format!("bad {flag} {raw:?}")),
        None => Ok(default),
    }
}

fn real_main() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The two switches first; everything left must be a flag with a value.
    let mut switch = |name: &str| {
        let before = args.len();
        args.retain(|a| a != name);
        args.len() < before
    };
    let (all, quick) = (switch("--all"), switch("--quick"));
    validate_value_flags(
        &args,
        &["--workload", "--seed", "--seconds", "--trace", "--aa"],
    )?;
    let opt = Options {
        seed: parse(&args, "--seed", 1)?,
        seconds: parse(&args, "--seconds", RUN_SECONDS as f64)?,
        trace: match parse(&args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("bad --trace {other}: want 0 or 1")),
        },
        quick,
    };
    if !(opt.seconds.is_finite() && opt.seconds >= 1.0) {
        return Err(format!("bad --seconds {}: want at least 1", opt.seconds));
    }
    let chosen: Vec<&'static spec::Workload> = match (flag_value(&args, "--workload"), all) {
        (Some(name), false) => {
            vec![workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        (None, true) => WORKLOADS.iter().collect(),
        _ => return Err("name one workload with --workload, or pass --all".into()),
    };

    if let Some(pairs) = flag_value(&args, "--aa") {
        let pairs: usize = pairs
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("bad --aa: want a count of at least 1")?;
        return aa::run(&chosen, pairs, &opt);
    }
    if all {
        // One process per workload: `setup_s` and `peak_rss_mb` mean
        // nothing in a process that already ran another workload.
        let mut ok = true;
        for w in chosen {
            let child = aa::spawn(w, &opt, opt.seed)?;
            print!("{}", child.stdout);
            ok &= child.success;
        }
        return Ok(ok);
    }
    let outcome = run::run(chosen[0], &opt)?;
    println!("{}", outcome.detail);
    println!("{}", report::result_line(&outcome));
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("grepair-benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
