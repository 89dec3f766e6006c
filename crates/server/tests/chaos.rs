//! Chaos suite for the serving stack (DESIGN.md §10): seeded fault
//! schedules injected over live sockets, asserting the protocol-level
//! degradation contract —
//!
//! * **no panics**: the server survives every schedule (a poisoned lock or
//!   unwind would hang or kill the accept loop and fail the test),
//! * **no torn or reordered answers**: replies are whole lines, one per
//!   request, in request order — a faulted connection may end early, but
//!   every complete reply line it did deliver must match its request,
//! * **generation ratchet**: `INFO` never reports a namespace going
//!   backwards,
//! * **recovery**: after `FAULTS CLEAR`, the same request stream answers
//!   byte-identically to a server that never saw a fault.
//!
//! Compiled only with the `fail` feature; CI runs it with a fixed seed.

#![cfg(feature = "fail")]

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use common::{g2g, temp_path, LineClient, TestServer};
use grepair_util::fail;

#[cfg(target_os = "linux")]
use grepair_server::{IoMode, ServerConfig};

/// xorshift64* — deterministic schedules from the seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The request stream every chaos client sends — mixed across the default
/// namespace and a cold-attached tenant — with the exact reply each line
/// gets from a healthy server. Expected answers come from twin stores so
/// the script stays correct if the compressor renumbers nodes.
fn script(tenant_reps: u32) -> Vec<(String, String)> {
    use grepair_store::{GraphStore, Query};
    let twin8 = GraphStore::from_bytes(&g2g(8)).unwrap();
    let twin_t = GraphStore::from_bytes(&g2g(tenant_reps)).unwrap();
    let q = |store: &GraphStore, query: Query| store.query(&query).unwrap().to_string();
    vec![
        ("out 0".into(), q(&twin8, Query::OutNeighbors(0))),
        ("t1:out 0".into(), q(&twin_t, Query::OutNeighbors(0))),
        ("reach 0 16".into(), q(&twin8, Query::Reach { s: 0, t: 16 })),
        ("t1:reach 0 32".into(), q(&twin_t, Query::Reach { s: 0, t: 32 })),
        ("components".into(), q(&twin8, Query::Components)),
        ("t1:in 1".into(), q(&twin_t, Query::InNeighbors(1))),
    ]
}

/// Pipelined client that tolerates a server-injected connection death:
/// sends everything, half-closes, drains what comes back, and returns the
/// *complete* reply lines (a torn trailing fragment without `\n` is the
/// transport dying mid-flush, not a protocol reply — it is discarded and
/// reported separately).
fn send_and_salvage(addr: SocketAddr, input: &str) -> (Vec<String>, bool) {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return (Vec::new(), false),
    };
    // Injected session faults may kill the peer mid-send; that is the
    // chaos working as intended, not a test failure.
    let _ = stream.write_all(input.as_bytes());
    let _ = stream.shutdown(Shutdown::Write);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    let torn = !text.is_empty() && !text.ends_with('\n');
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if torn {
        lines.pop();
    }
    (lines, torn)
}

#[test]
fn seeded_socket_chaos_no_torn_replies_then_byte_identical_recovery() {
    let _faults = fail::scoped();
    let seed = 0x5eed_cafe;
    fail::set_seed(seed);
    let mut rng = Rng::new(seed);

    let server = TestServer::start(8, None);
    // Multi-tenant serving: a second namespace attached cold, so the
    // chaos schedules hit real cold-open (and breaker) paths mid-round.
    let tenant_path = temp_path("chaos_srv");
    std::fs::write(&tenant_path, g2g(16)).unwrap();
    server.registry.attach_cold("t1", tenant_path.to_str().unwrap()).unwrap();
    let script = script(16);
    let input: String = script.iter().map(|(q, _)| format!("{q}\n")).collect();

    // The no-fault transcript, captured before any fault is configured.
    let (clean, torn) = send_and_salvage(server.addr, &input);
    assert!(!torn);
    let expected: Vec<&str> = script.iter().map(|(_, a)| a.as_str()).collect();
    assert_eq!(clean, expected, "healthy baseline");

    let mut generation_floor = 1u64;
    for round in 0..6u64 {
        // Configure the round's schedule in-process (the server shares
        // this process's failpoint table; the wire `FAULTS` path has its
        // own test below — an admin connection that enables session
        // faults would get killed by them mid-configuration).
        fail::set_seed(seed ^ round);
        let menu = [
            ("session.read", ["1in(6):err", "1in(4):err", "nth(3):err"]),
            ("session.write", ["1in(6):err", "1in(5):err", "nth(2):err"]),
            ("pool.submit", ["1in(3):err", "1in(2):err", "first(1):err"]),
            ("store.open.read", ["1in(4):err", "1in(3):err", "nth(1):err"]),
        ];
        for (name, options) in menu {
            if rng.below(3) < 2 {
                let spec = options[rng.below(options.len() as u64) as usize];
                fail::configure(name, spec).expect("valid spec");
            }
        }

        // Hammer the faulted server from several clients. Replies must be
        // an in-order prefix-with-substitutions of the script: for line i,
        // either the true answer, `busy` (shed), or an `error:` line.
        std::thread::scope(|s| {
            for _ in 0..3 {
                let input = &input;
                let script = &script;
                let addr = server.addr;
                s.spawn(move || {
                    for _ in 0..4 {
                        let (lines, _torn) = send_and_salvage(addr, input);
                        assert!(lines.len() <= script.len(), "more replies than requests");
                        for (i, line) in lines.iter().enumerate() {
                            let (query, answer) = &script[i];
                            assert!(
                                line == answer
                                    || line == "busy"
                                    || line.starts_with("error: "),
                                "torn/reordered reply to {query:?}: {line:?}"
                            );
                        }
                    }
                });
            }
        });

        // Clear the round's faults, then check the generation ratchet
        // over a clean connection.
        fail::clear_all();
        let mut admin = LineClient::new(server.connect());
        let info = admin.roundtrip("INFO");
        let generation: u64 = info
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("generation="))
            .expect("INFO carries generation")
            .parse()
            .expect("generation is a number");
        assert!(generation >= generation_floor, "ratchet broke: {info}");
        generation_floor = generation;

        // Faults are clear: recovery must be byte-identical to the
        // healthy baseline, same bytes the serve-file twin would emit.
        // The tenant's circuit breaker may still be cooling down from the
        // round's faults, so ride out at most a few half-open cycles.
        let mut recovered = Vec::new();
        for _ in 0..20 {
            let (lines, torn) = send_and_salvage(server.addr, &input);
            assert!(!torn, "no faults, no torn replies");
            recovered = lines;
            if recovered == clean {
                break;
            }
            std::thread::sleep(grepair_store::BREAKER_COOLDOWN / 2);
        }
        assert_eq!(recovered, clean, "round {round}: recovery not byte-identical");
    }
    fail::clear_all();
    let _ = std::fs::remove_file(&tenant_path);
}

/// The epoll twin of the seeded chaos run above: same degradation
/// contract, driven through the reactor's own failpoints —
/// `reactor.wait` (readiness-loop hiccups: log, back off, keep serving),
/// `conn.read` / `conn.write` (per-connection transport death), plus
/// `pool.submit` and `store.open.read` so the store-side chaos the other
/// suite exercises in-process is also covered through the epoll path.
/// Linux-only, like the reactor.
#[cfg(target_os = "linux")]
#[test]
fn seeded_epoll_chaos_no_torn_replies_then_byte_identical_recovery() {
    let _faults = fail::scoped();
    let seed = 0xe9011_5eed;
    fail::set_seed(seed);
    let mut rng = Rng::new(seed);

    let server = TestServer::start_with(
        8,
        None,
        ServerConfig { io: IoMode::Epoll, ..ServerConfig::default() },
    );
    let tenant_path = temp_path("chaos_epoll");
    std::fs::write(&tenant_path, g2g(16)).unwrap();
    server.registry.attach_cold("t1", tenant_path.to_str().unwrap()).unwrap();
    let script = script(16);
    let input: String = script.iter().map(|(q, _)| format!("{q}\n")).collect();

    let (clean, torn) = send_and_salvage(server.addr, &input);
    assert!(!torn);
    let expected: Vec<&str> = script.iter().map(|(_, a)| a.as_str()).collect();
    assert_eq!(clean, expected, "healthy epoll baseline");

    for round in 0..6u64 {
        fail::set_seed(seed ^ round);
        let menu = [
            ("reactor.wait", ["1in(8):err", "1in(6):delay(5)", "nth(2):err"]),
            ("conn.read", ["1in(6):err", "1in(4):err", "nth(3):err"]),
            ("conn.write", ["1in(6):err", "1in(5):err", "nth(2):err"]),
            ("pool.submit", ["1in(3):err", "1in(2):err", "first(1):err"]),
            ("store.open.read", ["1in(4):err", "1in(3):err", "nth(1):err"]),
        ];
        for (name, options) in menu {
            if rng.below(3) < 2 {
                let spec = options[rng.below(options.len() as u64) as usize];
                fail::configure(name, spec).expect("valid spec");
            }
        }

        // Several concurrent clients against one reactor thread: replies
        // must stay whole lines, one per request, in request order — a
        // fault on one connection (conn.read/conn.write) may end *that*
        // stream early but must never corrupt another's.
        std::thread::scope(|s| {
            for _ in 0..3 {
                let input = &input;
                let script = &script;
                let addr = server.addr;
                s.spawn(move || {
                    for _ in 0..4 {
                        let (lines, _torn) = send_and_salvage(addr, input);
                        assert!(lines.len() <= script.len(), "more replies than requests");
                        for (i, line) in lines.iter().enumerate() {
                            let (query, answer) = &script[i];
                            assert!(
                                line == answer
                                    || line == "busy"
                                    || line.starts_with("error: "),
                                "torn/reordered reply to {query:?}: {line:?}"
                            );
                        }
                    }
                });
            }
        });

        fail::clear_all();
        // Recovery must be byte-identical to the healthy baseline; ride
        // out the tenant breaker's cooldown like the thread-mode test.
        let mut recovered = Vec::new();
        for _ in 0..20 {
            let (lines, torn) = send_and_salvage(server.addr, &input);
            assert!(!torn, "no faults, no torn replies");
            recovered = lines;
            if recovered == clean {
                break;
            }
            std::thread::sleep(grepair_store::BREAKER_COOLDOWN / 2);
        }
        assert_eq!(recovered, clean, "epoll round {round}: recovery not byte-identical");
    }
    fail::clear_all();
    let _ = std::fs::remove_file(&tenant_path);
}

/// Per-connection containment, pinned deterministically: the first
/// `conn.read` evaluation (one exact connection) dies; a connection made
/// after it serves the full script untouched.
#[cfg(target_os = "linux")]
#[test]
fn epoll_conn_faults_are_contained_to_their_connection() {
    let _faults = fail::scoped();
    let server = TestServer::start_with(
        8,
        None,
        ServerConfig { io: IoMode::Epoll, ..ServerConfig::default() },
    );
    // Healthy first, so the store is warm and the baseline is known-good.
    let input = "out 0\nreach 0 16\ncomponents\nin 1\nPING\n";
    let (baseline, torn) = send_and_salvage(server.addr, input);
    assert!(!torn);
    assert!(!baseline.is_empty(), "healthy baseline must answer");

    fail::configure("conn.read", "nth(1):err").unwrap();
    let (victim_lines, _) = send_and_salvage(server.addr, input);
    assert!(
        victim_lines.is_empty(),
        "the faulted connection died on its first read: {victim_lines:?}"
    );
    // The very next connection is past nth(1): served in full.
    let (healthy, torn) = send_and_salvage(server.addr, input);
    assert!(!torn);
    assert_eq!(healthy, baseline, "fault leaked across connections");
    fail::clear_all();
}

/// Clean drain through the reactor: `SHUTDOWN` answers `draining`, parked
/// connections are flushed and closed well inside `--drain-deadline`, and
/// the server thread exits (TestServer's drop joins it).
#[cfg(target_os = "linux")]
#[test]
fn epoll_drain_closes_parked_connections_within_the_deadline() {
    let _faults = fail::scoped();
    let server = TestServer::start_with(
        8,
        None,
        ServerConfig {
            io: IoMode::Epoll,
            drain_deadline: std::time::Duration::from_secs(3),
            ..ServerConfig::default()
        },
    );
    // A client with answered traffic, left parked (no half-close).
    let mut parked = server.connect();
    parked.write_all(b"out 0\nPING\n").unwrap();
    let mut reader = std::io::BufReader::new(parked.try_clone().unwrap());
    for expected in ["1\n", "pong\n"] {
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert_eq!(line, expected);
    }
    // A second client triggers the drain.
    let mut admin = LineClient::new(server.connect());
    assert_eq!(admin.roundtrip("SHUTDOWN"), "draining");
    // The parked connection is closed cleanly (EOF, no junk) well inside
    // the deadline, not abandoned until a timeout kills it.
    let start = std::time::Instant::now();
    let mut rest = Vec::new();
    parked.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    parked.read_to_end(&mut rest).expect("clean close, not a reset");
    assert!(rest.is_empty(), "unexpected bytes at drain: {rest:?}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(3),
        "drain took {:?}, deadline is 3s",
        start.elapsed()
    );
}

/// `server.accept` faults reach the reactor's accept burst too: it logs,
/// backs off, and keeps serving.
#[cfg(target_os = "linux")]
#[test]
fn epoll_accept_faults_back_off_without_dropping_the_server() {
    let _faults = fail::scoped();
    fail::configure("server.accept", "first(2):err").unwrap();
    let server = TestServer::start_with(
        8,
        None,
        ServerConfig { io: IoMode::Epoll, ..ServerConfig::default() },
    );
    let mut client = LineClient::new(server.connect());
    assert_eq!(client.roundtrip("out 0"), "1");
    assert_eq!(client.roundtrip("QUIT"), "bye");
    fail::clear_all();
}

#[test]
fn faults_verb_lists_calls_and_fired_counts_over_the_wire() {
    let _faults = fail::scoped();
    let server = TestServer::start(8, None);
    let mut client = LineClient::new(server.connect());
    assert_eq!(client.roundtrip("FAULTS"), "faults compiled=on points=0");
    assert_eq!(client.roundtrip("FAULTS SET session.read nth(100):err"), "fault set session.read");
    // The PING exercised the point once (the read that carried it).
    assert_eq!(client.roundtrip("PING"), "pong");
    let listing = client.roundtrip("FAULTS");
    assert!(listing.starts_with("faults compiled=on points=1 session.read=nth(100):err:calls="), "{listing}");
    assert_eq!(client.roundtrip("FAULTS CLEAR session.read"), "fault cleared session.read");
    assert_eq!(client.roundtrip("FAULTS"), "faults compiled=on points=0");
    fail::clear_all();
}

#[test]
fn accept_faults_back_off_without_dropping_the_server() {
    let _faults = fail::scoped();
    // Two injected accept failures: the loop logs, backs off (10 then
    // 20 ms), and keeps serving afterwards.
    fail::configure("server.accept", "first(2):err").unwrap();
    let server = TestServer::start(8, None);
    let mut client = LineClient::new(server.connect());
    assert_eq!(client.roundtrip("out 0"), "1");
    assert_eq!(client.roundtrip("QUIT"), "bye");
    fail::clear_all();
}
