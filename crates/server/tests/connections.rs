//! Connection-scale soak test for the epoll front end (DESIGN.md §11).
//!
//! Opens N idle sockets against an epoll-mode server (N from
//! `GREPAIR_TEST_CONNS`, default 2 048 — the soak CI used to run as a
//! shell step against the release binary; set 10000 locally), asserts the
//! process thread count stays flat — the whole point of the reactor: idle
//! clients cost a slot, not a parked thread — then drives real traffic
//! over a seeded-random subset and byte-diffs the replies against the
//! serve-file engine (`serve_session` over the same bytes), while the
//! untouched connections stay live. N is clamped to what the soft fd limit
//! allows, with a line saying so.
//!
//! Linux-only, like the reactor itself.
#![cfg(target_os = "linux")]

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use common::TestServer;
use grepair_server::{serve_session, IoMode, ServerConfig, SessionOpts, WorkerPool};

/// Idle sockets to park. Run with `GREPAIR_TEST_CONNS=10000` (and an fd
/// limit to match) for the full 10k-connection soak.
fn requested_conns() -> usize {
    std::env::var("GREPAIR_TEST_CONNS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(2048)
}

/// The soft fd limit, from `/proc/self/limits`. Every parked connection
/// costs this process two fds (client end + server end), so the request
/// is clamped to fit with headroom for the harness itself.
fn fd_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(1024)
}

/// Threads of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// xorshift64* — a deterministic subset pick from a fixed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The traffic each exercised connection sends: answers, errors, admin,
/// comments — every reply class, no QUIT (the socket must stay usable).
const TRAFFIC: &str = "out 0\nreach 0 16\nPING\nbogus 7\n# comment\nnope:out 0\ndegrees\nINFO\n";

#[test]
fn ten_k_idle_connections_hold_on_a_flat_thread_count() {
    let reps = 8;
    let requested = requested_conns();
    let n = requested.min(fd_limit().saturating_sub(128) / 2).max(8);
    if n != requested {
        println!("parking {n} of {requested} connections: the soft fd limit is {}", fd_limit());
    }
    let server = TestServer::start_with(
        reps,
        None,
        ServerConfig {
            io: IoMode::Epoll,
            threads: 2,
            max_connections: n + 64,
            ..ServerConfig::default()
        },
    );

    // Warm everything that lazily spawns a thread (pool workers, drain
    // watcher) before taking the baseline.
    {
        let mut first = BufReader::new(server.connect());
        first.get_mut().write_all(b"out 0\nPING\n").expect("warmup send");
        let mut reply = String::new();
        first.read_line(&mut reply).expect("warmup reply");
    }
    let base = thread_count();

    // Park N idle connections, in waves the reactor keeps up with: the
    // listen backlog is 128, and a connect that overflows it waits out a
    // 1 s SYN retransmit. The last of each wave answers a PING only once
    // the reactor accepted it, and with it every connection before it.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(server.addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => panic!("connect {i}/{n} failed: {e}"),
        }
        if i % 64 == 63 {
            let stream = &mut idle[i];
            stream.write_all(b"PING\n").expect("wave ping");
            let mut line = String::new();
            BufReader::new(&*stream).read_line(&mut line).expect("wave pong");
            assert_eq!(line, "pong\n", "conn {i} wedged");
        }
    }
    // Give the reactor a beat to accept the tail of the burst.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let during = thread_count();
    assert!(
        during <= base + 2,
        "thread count must stay flat with {n} idle connections: base={base} during={during}"
    );

    // Ground truth: the serve-file engine over the same bytes, against an
    // identical store.
    let expected = {
        let registry = grepair_store::StoreRegistry::new(common::store(reps));
        let pool = WorkerPool::new(2);
        let mut reader: &[u8] = TRAFFIC.as_bytes();
        let mut out = Vec::new();
        serve_session(&registry, &pool, &mut reader, &mut out, &SessionOpts::default())
            .expect("ground-truth session");
        String::from_utf8(out).expect("utf8 replies")
    };
    let reply_lines = expected.lines().count();

    // Drive traffic over a seeded-random subset of the parked sockets —
    // they are real sessions, not just accepted fds.
    let mut rng = Rng(0x5041_u64 ^ 0x5eed);
    let mut exercised = std::collections::BTreeSet::new();
    while exercised.len() < 32usize.min(n / 2) {
        exercised.insert((rng.next() % n as u64) as usize);
    }
    for &i in &exercised {
        let stream = &mut idle[i];
        stream.write_all(TRAFFIC.as_bytes()).expect("send traffic");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut got = String::new();
        for _ in 0..reply_lines {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply");
            assert!(line.ends_with('\n'), "truncated reply on conn {i}: {line:?}");
            got.push_str(&line);
        }
        assert_eq!(got, expected, "conn {i} diverged from serve-file ground truth");
    }
    let after = thread_count();
    assert!(
        after <= base + 2,
        "thread count must stay flat after traffic: base={base} after={after}"
    );

    // The untouched connections are still live sessions.
    for &i in exercised.iter().take(8) {
        let probe = (i + 1) % n;
        if exercised.contains(&probe) {
            continue;
        }
        let stream = &mut idle[probe];
        stream.write_all(b"PING\n").expect("probe ping");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("probe reply");
        assert_eq!(line, "pong\n", "idle conn {probe} wedged");
    }
}
