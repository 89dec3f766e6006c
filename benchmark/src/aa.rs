//! `--aa <n>`: the same binary against itself. 2n runs of a workload, each
//! a process of its own, alternate between set A and set B (run k of either
//! set uses seed `--seed + k`, so both sets see the same inputs). Any
//! difference between the two sets is noise, and the acceptance rule for
//! this benchmark is a statement about exactly that noise: every cell's
//! spread (interquartile range over median, `setup_s` excepted) must stay
//! within the cell's bound, and set B's median must not be worse than set
//! A's by more than it.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::run::Options;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::summarize;

pub struct Child {
    pub stdout: String,
    pub success: bool,
}

/// Run one workload in a child process of this same binary.
pub fn spawn(w: &Workload, opt: &Options, seed: u64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &opt.seconds.to_string(),
        ])
        .args(["--trace", if opt.trace { "1" } else { "0" }])
        .args(opt.quick.then_some("--quick"))
        .stderr(Stdio::inherit());
    let out = command
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    Ok(Child {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        success: out.status.success(),
    })
}

/// The metric values of a child's result line.
fn metrics_of(child: &Child) -> Result<Vec<(String, f64)>, String> {
    let line = child.stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(line)?;
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                m.get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name} has no value"))?,
            ))
        })
        .collect()
}

pub fn run(workloads: &[&'static Workload], pairs: usize, opt: &Options) -> Result<bool, String> {
    let declared = if opt.trace { PER_LAYER } else { END_TO_END };
    let mut all_agree = true;
    let mut cells = Vec::new();
    for w in workloads {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * pairs {
            let child = spawn(w, opt, opt.seed + (i / 2) as u64)?;
            if !child.success {
                return Err(format!("{} run {i} failed:\n{}", w.name, child.stdout));
            }
            sets[i % 2].push(metrics_of(&child)?);
            eprintln!("{}: run {}/{} done", w.name, i + 1, 2 * pairs);
        }
        println!(
            "{:<22} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
            w.name, "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
        );
        for m in declared {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                    .collect()
            };
            let (a, b) = (summarize(&values(&sets[0])), summarize(&values(&sets[1])));
            // Positive when set B reads worse than set A.
            let worse = if m.higher_is_better {
                (a.median - b.median) / a.median
            } else {
                (b.median - a.median) / a.median
            };
            // Per-layer metrics carry no bound; they are printed, not judged.
            let agrees = opt.trace
                || (worse <= m.bound
                    && (m.name == "setup_s" || a.spread().max(b.spread()) <= m.bound));
            all_agree &= agrees;
            println!(
                "{:<22} {:<24} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                "",
                m.name,
                a.median,
                b.median,
                worse * 100.0,
                a.spread() * 100.0,
                b.spread() * 100.0,
                m.bound * 100.0,
                if agrees { "" } else { "  EXCEEDED" }
            );
            cells.push(Json::obj([
                ("workload", Json::str(w.name)),
                ("metric", Json::str(m.name)),
                ("median_a", Json::Num(a.median)),
                ("median_b", Json::Num(b.median)),
                ("b_worse_by", Json::Num(worse)),
                ("spread_a", Json::Num(a.spread())),
                ("spread_b", Json::Num(b.spread())),
                ("bound", Json::Num(m.bound)),
                (
                    "a",
                    Json::Arr(values(&sets[0]).into_iter().map(Json::Num).collect()),
                ),
                (
                    "b",
                    Json::Arr(values(&sets[1]).into_iter().map(Json::Num).collect()),
                ),
                ("agrees", Json::Bool(agrees)),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("aa_pairs", Json::Num(pairs as f64)),
            ("agree", Json::Bool(all_agree)),
            ("cells", Json::Arr(cells))
        ])
    );
    Ok(all_agree)
}
