//! `serve-probe` — the wire-protocol client for a live `grepair-server`
//! (or `grepair store serve`): stream a query file, replies to stdout.
//!
//! ```text
//! serve-probe <addr> <queries.txt> [--namespace NAME]
//! ```
//!
//! It writes exactly one reply line per request line to stdout, so
//! `diff <(serve-probe ADDR q.txt) <(grepair store serve-file g.g2g q.txt)`
//! is the protocol's equivalence oracle. The q/s the probe prints is
//! informational; the measured client-observed throughput and latency are
//! the repository benchmark's `serve_qps` / `serve_p50_us`
//! (`benchmark/README.md`).
//!
//! `--namespace NAME` targets one tenant of a multi-tenant server
//! (DESIGN.md §8): every query line is sent with a `NAME:` prefix (admin
//! lines go bare — admin verbs take no prefix).

#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  serve-probe <addr> <queries.txt> [--namespace NAME]     stream a query file, replies to stdout

  --namespace  prefix every query line with NAME: (admin lines go bare) to
               target one tenant of a multi-tenant server";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut namespace = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--namespace" {
            let name = it.next().ok_or("--namespace needs a value")?;
            namespace = Some(name.clone());
        } else if a.starts_with("--") {
            return Err(format!("unknown flag {a:?}"));
        } else {
            positional.push(a);
        }
    }
    match positional[..] {
        [addr, path] => stream_file(addr, path, namespace.as_deref()),
        [_] => Err("missing queries file".into()),
        [] => Err("missing server address".into()),
        [_, _, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

/// Is this request line an admin command? Admin verbs are upper-case and
/// take no namespace prefix (DESIGN.md §8), so `--namespace` must leave
/// them bare.
fn is_admin_line(line: &str) -> bool {
    matches!(
        line.split_whitespace().next(),
        Some(
            "PING" | "INFO" | "STATS" | "USE" | "ATTACH" | "DETACH" | "LIST" | "RELOAD"
                | "FAULTS" | "SHUTDOWN" | "QUIT"
        )
    )
}

/// Apply the `--namespace` prefix to one request line; blank lines,
/// comments, and admin lines pass through untouched.
fn prefixed(line: &str, namespace: Option<&str>) -> String {
    let trimmed = line.trim();
    match namespace {
        Some(ns) if !trimmed.is_empty() && !trimmed.starts_with('#') && !is_admin_line(line) => {
            format!("{ns}:{line}")
        }
        _ => line.to_string(),
    }
}

/// What one socket probe against a live server saw.
struct ProbeReport {
    /// Request lines sent (blank/comment lines are not requests).
    sent: usize,
    /// Every reply line, in order — these bytes are asserted identical to
    /// `store serve-file` on the same input.
    answers: Vec<String>,
    /// How many of the replies were `error:` lines.
    errors: usize,
    /// Wall time from first byte written to last reply read.
    elapsed_ns: f64,
}

impl ProbeReport {
    /// Requests per second over the whole probe.
    fn throughput_qps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / (self.elapsed_ns / 1e9)
    }
}

/// Stream `lines` to a live server at `addr` and collect one reply line
/// per request line — the client half of the wire protocol, pipelined: a
/// scoped writer thread pushes the borrowed workload while this thread
/// drains replies, so neither side deadlocks on a full socket buffer (the
/// client shape DESIGN.md §6.1 requires).
fn probe_server(addr: &str, lines: &[String]) -> std::io::Result<ProbeReport> {
    use std::io::{BufRead, BufReader, BufWriter};
    use std::net::{Shutdown, TcpStream};

    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone()?);
    let start = Instant::now();
    let sent = lines
        .iter()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .count();
    let mut answers = Vec::with_capacity(sent);
    let mut errors = 0usize;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut out = BufWriter::new(&stream);
            for line in lines {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.flush()?;
            // Half-close: the server answers everything, then closes,
            // which ends the reader's drain below.
            stream.shutdown(Shutdown::Write)
        });
        for line in reader.lines() {
            let line = line?;
            if line.starts_with("error: ") {
                errors += 1;
            }
            answers.push(line);
        }
        writer.join().expect("probe writer thread")
    })?;
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    Ok(ProbeReport { sent, answers, errors, elapsed_ns })
}

/// File mode: replies go to stdout byte-for-byte, like serve-file's.
fn stream_file(addr: &str, path: &str, namespace: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines: Vec<String> = text.lines().map(|l| prefixed(l, namespace)).collect();
    let report = probe_server(addr, &lines).map_err(|e| format!("{addr}: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for answer in &report.answers {
        writeln!(out, "{answer}").map_err(|e| format!("stdout: {e}"))?;
    }
    out.flush().map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "probed {} queries ({} errors) against {addr}: {:.1} q/s",
        report.sent,
        report.errors,
        report.throughput_qps()
    );
    if report.answers.len() != report.sent {
        return Err(format!(
            "server answered {} of {} requests — connection cut short?",
            report.answers.len(),
            report.sent
        ));
    }
    Ok(())
}
