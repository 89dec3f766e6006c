//! `serve-probe` — the wire-protocol client for a live `grepair-server`
//! (or `grepair store serve`): CI's byte-identity check, the connection
//! soak, and the chaos report.
//!
//! ```text
//! serve-probe <addr> <queries.txt> [--namespace NAME]   # stream a query file, replies to stdout
//! ```
//!
//! File mode writes exactly one reply line per request line to stdout, so
//! `diff <(serve-probe ADDR q.txt) <(grepair store serve-file g.g2g q.txt)`
//! is the protocol's equivalence oracle. The q/s the probe prints is
//! informational; the measured client-observed throughput and latency are
//! the repository benchmark's `serve_qps` / `serve_p50_us`
//! (`benchmark/README.md`).
//!
//! `--namespace NAME` targets one tenant of a multi-tenant server
//! (DESIGN.md §8): every query line is sent with a `NAME:` prefix (admin
//! lines go bare — admin verbs take no prefix). CI's cross-namespace
//! byte-identity diff is this flag against a per-tenant `store serve-file`
//! run.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use grepair_store::Query;

const USAGE: &str = "usage:
  serve-probe <addr> <queries.txt> [--namespace NAME]     stream a query file, replies to stdout
  serve-probe <addr> --chaos-report <N> [--namespace NAME]
               drive N mixed queries through concurrent fault-tolerant
               connections against a (possibly faulted) server, collect the
               degradation numbers (busy sheds, error lines, dead
               connections, breaker health from STATS), then SHUTDOWN the
               server and time the drain; a JSON report goes to stdout.
               Destructive: the probe ends the server.

  serve-probe <addr> --connections <N> [--threads-of PID]
               park N idle connections, assert they are all live sessions
               (PING sample), drive a throughput burst on a fresh
               connection while they stay parked, and — when --threads-of
               names the server process — assert its thread count stayed
               flat (the epoll front end's contract, DESIGN.md §11); a
               JSON report goes to stdout.

  --namespace  prefix every query line with NAME: (admin lines go bare) to
               target one tenant of a multi-tenant server
  --threads-of read /proc/PID/status Threads: around the connection soak
               and fail unless the count stays flat (linux only)";

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
    // Split off the one optional flag so the positional grammar below
    // stays simple.
    let mut namespace = None;
    let mut threads_of = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--namespace" {
            let name = it.next().ok_or("--namespace needs a value")?;
            namespace = Some(name.clone());
        } else if a == "--threads-of" {
            let pid: u32 = it
                .next()
                .ok_or("--threads-of needs a PID")?
                .parse()
                .map_err(|e| format!("bad --threads-of PID: {e}"))?;
            threads_of = Some(pid);
        } else {
            rest.push(a.clone());
        }
    }
    let addr = rest.first().ok_or("missing server address")?;
    match rest.get(1).map(String::as_str) {
        Some("--connections") => {
            let count: usize = rest
                .get(2)
                .ok_or("missing connection count")?
                .parse()
                .map_err(|e| format!("bad connection count: {e}"))?;
            if let Some(extra) = rest.get(3) {
                return Err(format!("unexpected argument {extra:?}"));
            }
            connections(addr, count, threads_of)
        }
        Some("--chaos-report") => {
            let count: u64 = rest
                .get(2)
                .ok_or("missing query count")?
                .parse()
                .map_err(|e| format!("bad query count: {e}"))?;
            if let Some(extra) = rest.get(3) {
                return Err(format!("unexpected argument {extra:?}"));
            }
            chaos_report(addr, count, namespace.as_deref())
        }
        Some(path) => {
            if let Some(extra) = rest.get(2) {
                return Err(format!("unexpected argument {extra:?}"));
            }
            stream_file(addr, path, namespace.as_deref())
        }
        None => Err("missing queries file or mode flag".into()),
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

/// The generated workload of the `--connections` burst and the chaos
/// report: mixed queries whose popularity is skewed the way real serving
/// traffic is — three quarters of the ids come from a ~61-key hot set (what
/// collapsing repeated queries per batch exists for), one quarter from a
/// uniform tail that keeps the caches honest.
fn mixed_batch(n: u64, len: u64) -> Vec<Query> {
    let hot = |i: u64| ((i % 61) * 2_654_435_761) % n;
    let cold = |i: u64| (i.wrapping_mul(7919) + 13) % n;
    let pick = |i: u64| if i.is_multiple_of(4) { cold(i) } else { hot(i) };
    (0..len)
        .map(|i| match i % 5 {
            0 => Query::OutNeighbors(pick(i)),
            1 => Query::InNeighbors(pick(i + 1)),
            2 => Query::Reach { s: pick(i + 2), t: cold(i) },
            3 => Query::Rpq {
                s: pick(i + 3),
                t: cold(i + 1),
                pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
            },
            _ => Query::Neighbors(pick(i + 4)),
        })
        .collect()
}

/// Render one query as a wire-protocol request line (DESIGN.md §6) — the
/// inverse of `grepair_store::parse_query`.
fn query_line(q: &Query) -> String {
    match q {
        Query::OutNeighbors(v) => format!("out {v}"),
        Query::InNeighbors(v) => format!("in {v}"),
        Query::Neighbors(v) => format!("neighbors {v}"),
        Query::Reach { s, t } => format!("reach {s} {t}"),
        Query::Rpq { s, t, pattern } => format!("rpq {s} {t} {pattern}"),
        Query::Components => "components".into(),
        Query::DegreeExtrema => "degrees".into(),
    }
}

/// What one socket probe against a live server saw.
struct ProbeReport {
    /// Request lines sent (blank/comment lines are not requests).
    sent: usize,
    /// Every reply line, in order — for file mode these bytes are asserted
    /// identical to `store serve-file` on the same input.
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

/// One fault-tolerant pipelined connection: send everything, half-close,
/// salvage whatever *complete* reply lines come back. A connection the
/// server kills mid-stream (injected session faults, DESIGN.md §10) is the
/// chaos working as designed, not a probe error — it reports `died = true`
/// with however many whole lines it did get; a torn trailing fragment
/// without `\n` is discarded.
fn salvage(addr: &str, lines: &[String]) -> (Vec<String>, bool) {
    use std::io::Read;
    use std::net::{Shutdown, TcpStream};

    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return (Vec::new(), true),
    };
    let payload: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let sent_ok = stream.write_all(payload.as_bytes()).is_ok();
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let read_ok = stream.read_to_end(&mut raw).is_ok();
    let text = String::from_utf8_lossy(&raw);
    let torn = !text.is_empty() && !text.ends_with('\n');
    let mut replies: Vec<String> = text.lines().map(str::to_string).collect();
    if torn {
        replies.pop();
    }
    let died = !sent_ok || !read_ok || torn || replies.len() < lines.len();
    (replies, died)
}

/// One admin request, retried a few times — a fault schedule can kill the
/// health probe's own connection, so ask again before giving up.
fn health_line(addr: &str, request: &str) -> Option<String> {
    for _ in 0..5 {
        let (replies, _) = salvage(addr, std::slice::from_ref(&request.to_string()));
        if let Some(line) = replies.into_iter().next() {
            return Some(line);
        }
    }
    None
}

/// Extract `key=<value>` from a space-separated reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key))
}

/// Render an optional reply line as a JSON string or `null`. Rust's
/// `{:?}` escaping is JSON-compatible for the protocol's ASCII replies.
fn json_opt(line: &Option<String>) -> String {
    match line {
        Some(l) => format!("{l:?}"),
        None => "null".into(),
    }
}

/// Chaos-report mode (DESIGN.md §10): drive a possibly-faulted server with
/// the mixed workload over concurrent fault-tolerant connections, collect
/// the degradation numbers (`busy` sheds, error lines, killed
/// connections, breaker health out of `STATS`), then `SHUTDOWN` the server
/// and time the drain until its listener is really gone. Destructive by
/// design — CI runs it as the final step against a scratch server.
fn chaos_report(addr: &str, count: u64, namespace: Option<&str>) -> Result<(), String> {
    let stats_target = namespace.unwrap_or("default");
    // Node count through INFO; if even INFO cannot survive the schedule,
    // fall back to a single-node workload (ids are still valid requests).
    let nodes = health_line(addr, "INFO")
        .and_then(|info| field(&info, "nodes=").and_then(|v| v.parse::<u64>().ok()))
        .unwrap_or(1);
    let lines: Vec<String> = mixed_batch(nodes.max(1), count)
        .iter()
        .map(|q| prefixed(&query_line(q), namespace))
        .collect();

    // Fan the workload over four concurrent fault-tolerant connections.
    let chunk = lines.len().div_ceil(4).max(1);
    let t = Instant::now();
    let (mut answered, mut busy, mut errors, mut dead_connections) = (0u64, 0u64, 0u64, 0u64);
    std::thread::scope(|s| {
        let handles: Vec<_> =
            lines.chunks(chunk).map(|part| s.spawn(move || salvage(addr, part))).collect();
        for h in handles {
            let (replies, died) = h.join().expect("chaos client thread");
            answered += replies.len() as u64;
            busy += replies.iter().filter(|r| *r == "busy").count() as u64;
            errors += replies.iter().filter(|r| r.starts_with("error: ")).count() as u64;
            dead_connections += u64::from(died);
        }
    });
    let elapsed_ms = t.elapsed().as_nanos() as f64 / 1e6;
    let shed_rate = busy as f64 / answered.max(1) as f64;

    // Health after the storm: the fault table and the target namespace's
    // breaker counters (best effort — faults can kill these probes too).
    let faults = health_line(addr, "FAULTS");
    let stats = health_line(addr, &format!("STATS {stats_target}"));
    let counter = |key: &str| -> u64 {
        stats
            .as_deref()
            .and_then(|s| field(s, key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let open_failures = counter("open_failures=");
    let reload_failures = counter("reload_failures=");
    let breaker_trips = counter("breaker_trips=");
    let breaker_open = stats
        .as_deref()
        .and_then(|s| field(s, "breaker_open="))
        .is_some_and(|v| v == "true");

    // Drain: SHUTDOWN, then poll until the listener is really gone. The
    // `draining` ack may itself be killed by a lingering session fault, so
    // EOF without it still counts as "sent".
    let t = Instant::now();
    let (replies, _) = salvage(addr, &["SHUTDOWN".to_string()]);
    let shutdown_acknowledged = replies.first().is_some_and(|r| r == "draining");
    let mut drained = false;
    for _ in 0..400 {
        if std::net::TcpStream::connect(addr).is_err() {
            drained = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let drain_latency_ms = t.elapsed().as_nanos() as f64 / 1e6;

    let mut out = String::new();
    out.push_str("{\n  \"chaos_report\": {\n");
    out.push_str(&format!("    \"sent\": {},\n", lines.len()));
    out.push_str(&format!("    \"answered\": {answered},\n"));
    out.push_str(&format!("    \"busy\": {busy},\n"));
    out.push_str(&format!("    \"errors\": {errors},\n"));
    out.push_str(&format!("    \"dead_connections\": {dead_connections},\n"));
    out.push_str(&format!("    \"shed_rate\": {shed_rate:.4},\n"));
    out.push_str(&format!("    \"elapsed_ms\": {elapsed_ms:.1},\n"));
    out.push_str(&format!("    \"faults\": {},\n", json_opt(&faults)));
    out.push_str(&format!("    \"stats\": {},\n", json_opt(&stats)));
    out.push_str(&format!("    \"open_failures\": {open_failures},\n"));
    out.push_str(&format!("    \"reload_failures\": {reload_failures},\n"));
    out.push_str(&format!("    \"breaker_trips\": {breaker_trips},\n"));
    out.push_str(&format!("    \"breaker_open\": {breaker_open},\n"));
    out.push_str(&format!("    \"shutdown_acknowledged\": {shutdown_acknowledged},\n"));
    out.push_str(&format!("    \"drained\": {drained},\n"));
    out.push_str(&format!("    \"drain_latency_ms\": {drain_latency_ms:.1}\n"));
    out.push_str("  }\n}\n");
    print!("{out}");
    std::io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "chaos report: {answered}/{} answered, {busy} busy, {errors} errors, \
         {dead_connections} dead connections, drain {drain_latency_ms:.1} ms",
        lines.len()
    );
    if !drained {
        return Err("server did not drain within 10 s of SHUTDOWN".into());
    }
    Ok(())
}

/// `Threads:` from `/proc/PID/status` — the server's thread count, when
/// the caller told us its PID and we are on Linux.
fn thread_count_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// Render an optional count as JSON.
fn json_count(n: &Option<u64>) -> String {
    match n {
        Some(n) => n.to_string(),
        None => "null".into(),
    }
}

/// Connection-scale mode (DESIGN.md §11): park `count` idle connections,
/// verify a sample of them are live sessions (`PING` → `pong`), run a
/// throughput burst on a fresh connection while they stay parked, and —
/// given `--threads-of` — assert the server's thread count stayed flat
/// across the soak. This is the wire-level proof of the epoll front end's
/// scaling contract: idle clients cost a buffer, not a thread.
fn connections(addr: &str, count: usize, threads_of: Option<u32>) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;

    if count == 0 {
        return Err("--connections needs at least 1 connection".into());
    }
    // Warm the server's lazily-spawned threads (pool workers, drain
    // watcher) and learn the node count before taking the baseline.
    let info = probe_server(addr, &["INFO".to_string()]).map_err(|e| format!("{addr}: {e}"))?;
    let info_line = info.answers.first().ok_or("server sent no INFO reply")?.clone();
    let nodes: u64 = field(&info_line, "nodes=").and_then(|v| v.parse().ok()).unwrap_or(1);
    let threads_base = threads_of.and_then(thread_count_of);
    if threads_of.is_some() && threads_base.is_none() {
        return Err("--threads-of: cannot read Threads: from /proc (linux only, live PID)".into());
    }

    // Park the idle herd.
    let t = Instant::now();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(count);
    for i in 0..count {
        match TcpStream::connect(addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => {
                return Err(format!(
                    "connect {i}/{count} failed: {e} (fd limit too low? raise ulimit -n)"
                ))
            }
        }
    }
    let connect_ms = t.elapsed().as_nanos() as f64 / 1e6;
    // Let the reactor accept the tail of the burst before measuring.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let threads_during = threads_of.and_then(thread_count_of);

    // Liveness sample: parked connections must be real sessions, not just
    // accepted fds. Spread the sample across the herd.
    let sample = 32usize.min(count);
    let mut live = 0usize;
    for s in 0..sample {
        let i = s * count / sample;
        let stream = &mut idle[i];
        stream
            .write_all(b"PING\n")
            .map_err(|e| format!("conn {i}: ping send failed: {e}"))?;
        let mut reader = BufReader::new(
            stream.try_clone().map_err(|e| format!("conn {i}: clone failed: {e}"))?,
        );
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("conn {i}: ping reply failed: {e}"))?;
        if line != "pong\n" {
            return Err(format!("conn {i}: expected pong, got {line:?}"));
        }
        live += 1;
    }

    // Throughput burst on a fresh connection while the herd stays parked:
    // the reactor must keep serving at full speed with `count` registered
    // sockets it is not reading from.
    let burst = 2_000u64;
    let lines: Vec<String> = mixed_batch(nodes.max(1), burst).iter().map(query_line).collect();
    let report = probe_server(addr, &lines).map_err(|e| format!("{addr}: {e}"))?;
    if report.answers.len() != report.sent {
        return Err(format!(
            "burst answered {} of {} requests — connection cut short?",
            report.answers.len(),
            report.sent
        ));
    }
    let threads_after = threads_of.and_then(thread_count_of);

    // Flat means: no per-connection threads appeared. The +2 headroom
    // absorbs incidental runtime threads, nothing proportional to `count`.
    let flat = match (threads_base, threads_during, threads_after) {
        (Some(base), Some(during), Some(after)) => during <= base + 2 && after <= base + 2,
        _ => true, // not measured; the JSON carries nulls
    };
    // Drop the herd politely so the server's close path, not process exit,
    // reaps them.
    for mut stream in idle {
        let _ = stream.write_all(b"QUIT\n");
        let mut sink = Vec::new();
        let _ = stream.take(64).read_to_end(&mut sink);
    }

    let mut out = String::new();
    out.push_str("{\n  \"connections_probe\": {\n");
    out.push_str(&format!("    \"connections\": {count},\n"));
    out.push_str(&format!("    \"connect_ms\": {connect_ms:.1},\n"));
    out.push_str(&format!("    \"live_sampled\": {live},\n"));
    out.push_str(&format!("    \"threads_base\": {},\n", json_count(&threads_base)));
    out.push_str(&format!("    \"threads_during\": {},\n", json_count(&threads_during)));
    out.push_str(&format!("    \"threads_after\": {},\n", json_count(&threads_after)));
    out.push_str(&format!("    \"burst_queries\": {},\n", report.sent));
    out.push_str(&format!("    \"burst_qps\": {:.1},\n", report.throughput_qps()));
    out.push_str(&format!("    \"flat\": {flat}\n"));
    out.push_str("  }\n}\n");
    print!("{out}");
    std::io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    eprintln!(
        "connections: {count} parked in {connect_ms:.1} ms, {live}/{sample} sampled live, \
         burst {:.1} q/s, threads {}/{}/{}",
        report.throughput_qps(),
        json_count(&threads_base),
        json_count(&threads_during),
        json_count(&threads_after),
    );
    if !flat {
        return Err(format!(
            "thread count not flat across {count} connections: base={} during={} after={}",
            json_count(&threads_base),
            json_count(&threads_during),
            json_count(&threads_after),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `query_line` is the inverse of the server's parser for every
    /// `Query` variant (one of each, then the generated workload's own
    /// id and pattern shapes), so a probe asks exactly what it means.
    #[test]
    fn query_lines_round_trip_through_the_parser() {
        let mut queries = vec![
            Query::OutNeighbors(0),
            Query::InNeighbors(u64::MAX),
            Query::Neighbors(7),
            Query::Reach { s: 3, t: 96 },
            Query::Rpq { s: 1, t: 2, pattern: "0* 1? 2+".into() },
            Query::Components,
            Query::DegreeExtrema,
        ];
        queries.extend(mixed_batch(97, 200));
        for q in queries {
            let line = query_line(&q);
            let parsed = grepair_store::parse_query(&line)
                .unwrap_or_else(|e| panic!("{line:?} must re-parse: {e}"));
            assert_eq!(parsed, q, "{line:?}");
        }
    }
}
