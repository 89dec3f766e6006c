//! Loopback integration: a real `grepair-server` on an ephemeral port must
//! answer byte-identically to `store serve-file` on the same query file,
//! and a `RELOAD` mid-stream must bump the generation without dropping the
//! connection or any in-flight answer.

mod common;

use common::{g2g, io_modes, send_and_drain, store, temp_path, LineClient, TestServer};
use grepair_server::{IoMode, Server, ServerConfig};
use grepair_store::{
    error_reply, parse_query, GraphStore, Query, StoreRegistry, DEFAULT_NAMESPACE,
};

/// A query file exercising every query class, every error shape, comments,
/// and blank lines — the serve-file acceptance input.
fn mixed_query_file(n: u64) -> String {
    let mut text = String::from("# every query class, plus per-line errors\n\n");
    for i in 0..n {
        text.push_str(&format!("out {i}\nin {i}\nneighbors {i}\n"));
        text.push_str(&format!("reach 0 {i}\nreach {i} {}\n", n - 1));
        text.push_str(&format!("rpq 0 {i} 0 1\nrpq {i} 0 0* 1*\n"));
    }
    text.push_str("components\ndegrees\n");
    // The error lines: out-of-range ids (the hostile corpus shapes),
    // unparsable verbs, malformed patterns, trailing junk.
    text.push_str(&format!("out {n}\nin {}\nneighbors {}\n", n + 100, u64::MAX));
    text.push_str(&format!("reach {n} 0\nreach 0 1099511627776\n"));
    text.push_str("rpq 0 1 banana\nrpq 2 3\nfrobnicate 7\nout\nout x\ncomponents now\n");
    text.push_str("\n# trailing comment\n");
    text
}

/// What `store serve-file` prints for `file`: the reference rendering,
/// produced through the same parse / query / `Display` / [`error_reply`]
/// code the CLI uses (`crates/cli/tests/cli.rs` additionally diffs the two real
/// binaries end to end).
fn serve_file_reference(store: &GraphStore, file: &str) -> String {
    let mut out = String::new();
    for raw in file.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_query(line) {
            Err(e) => out.push_str(&format!("{}\n", error_reply(e.to_string()))),
            Ok(q) => match store.query(&q) {
                Ok(a) => out.push_str(&format!("{a}\n")),
                Err(e) => out.push_str(&format!("{}\n", error_reply(e))),
            },
        }
    }
    out
}

#[test]
fn socket_answers_are_byte_identical_to_serve_file() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 16, None);
        let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();
        let file = mixed_query_file(n);
        let expected = serve_file_reference(&store(16), &file);
        let got = send_and_drain(server.addr, file.as_bytes());
        assert!(!expected.is_empty());
        assert_eq!(got, expected, "{io:?}: socket and serve-file outputs must be byte-identical");
        // Sanity: the file really exercised the error paths.
        assert!(got.lines().any(|l| l.starts_with("error: ")));
    }
}

#[test]
fn reload_mid_stream_bumps_generation_without_dropping_anything() {
    for &io in io_modes() {
        let path = temp_path("server_it");
        std::fs::write(&path, g2g(32)).unwrap(); // 65-node replacement store
        let server = TestServer::start_in(io, 16, None); // 33-node initial store
        let mut client = LineClient::new(server.connect());

        // Generation 1 serving normally.
        assert_eq!(
            client.roundtrip("INFO"),
            "grepair proto=3 namespace=default generation=1 nodes=33 backend=grepair reload_failures=0"
        );
        assert_eq!(client.roundtrip("reach 0 32"), "true");
        let err = client.roundtrip("out 64"); // not a node yet
        assert!(err.starts_with("error:"), "{err}");

        // Pipeline queries *around* a RELOAD in one write: the pre-RELOAD
        // query must be answered by the old store, the post-RELOAD one by
        // the new — all on the same connection, in order.
        client.send("out 64"); // old store: error
        client.send(&format!("RELOAD {}", path.display()));
        client.send("out 64"); // new store: a real answer
        let before = client.recv();
        assert!(before.starts_with("error:"), "{io:?}: answered by generation 1: {before}");
        assert_eq!(client.recv(), "reloaded generation=2 nodes=65");
        let after = client.recv();
        let expected_after = store(32).query(&Query::OutNeighbors(64)).unwrap().to_string();
        assert_eq!(after, expected_after, "{io:?}: post-reload query runs on generation 2");

        // The same connection is still alive, and STATS echoes the bump.
        let stats = client.roundtrip("STATS default");
        assert!(stats.starts_with("generation=2 "), "{stats}");
        assert_eq!(server.registry.generation_of(DEFAULT_NAMESPACE), Ok(2));
        assert_eq!(client.roundtrip("PING"), "pong");
        assert_eq!(client.roundtrip("QUIT"), "bye");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn old_generation_arc_survives_a_swap_under_load() {
    // A client holding a long pipelined stream while another session
    // reloads: every answer of the in-flight stream must still be correct
    // (they were computed on whichever generation each batch snapshotted —
    // both generations here serve identical graphs, so answers are
    // identical; what's being tested is that nothing tears or drops).
    for &io in io_modes() {
        let path = temp_path("server_swap");
        std::fs::write(&path, g2g(16)).unwrap(); // same graph, new generation
        let server = TestServer::start_in(io, 16, None);
        let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();

        let mut input = String::new();
        let mut expected = String::new();
        for i in 0..2000u64 {
            input.push_str(&format!("reach 0 {}\n", i % n));
            expected.push_str("true\n");
        }
        let addr = server.addr;
        let streamer = std::thread::spawn(move || send_and_drain(addr, input.as_bytes()));
        // Concurrently, another connection swaps generations a few times.
        let mut admin = LineClient::new(server.connect());
        for round in 0..5 {
            let reply = admin.roundtrip(&format!("RELOAD {}", path.display()));
            assert_eq!(reply, format!("reloaded generation={} nodes={n}", round + 2));
        }
        assert_eq!(streamer.join().unwrap(), expected, "{io:?}");
        assert_eq!(server.registry.generation_of(DEFAULT_NAMESPACE), Ok(6));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn many_concurrent_connections_share_one_pool() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 16, None);
        let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();
        let file = mixed_query_file(n);
        let expected = serve_file_reference(&store(16), &file);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let expected = &expected;
                let file = &file;
                let addr = server.addr;
                scope.spawn(move || {
                    assert_eq!(&send_and_drain(addr, file.as_bytes()), expected, "{io:?}");
                });
            }
        });
    }
}

#[test]
fn idle_sessions_are_cut_by_the_read_timeout() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    for &io in io_modes() {
        let config = ServerConfig {
            io,
            read_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        };
        let server = TestServer::start_with(8, None, config);
        // A connection that never sends anything — the slow-loris shape.
        // The server must close it instead of parking its session forever.
        // (No request/reply roundtrips happen on this short-timeout
        // server: a >100ms scheduling stall between writes would otherwise
        // make the test flaky under CI load; normal serving is covered
        // elsewhere.)
        let mut stream = server.connect();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let start = Instant::now();
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).expect("server closes, not the test timeout");
        let elapsed = start.elapsed();
        assert_eq!(n, 0, "{io:?}: an idle session gets no bytes, just EOF: {buf:?}");
        assert!(
            elapsed < Duration::from_secs(5),
            "{io:?}: cutoff must come from the 100ms read timeout, took {elapsed:?}"
        );
        assert!(
            elapsed >= Duration::from_millis(80),
            "{io:?}: cutoff must wait out the read timeout, not fire instantly: {elapsed:?}"
        );
    }
}

#[test]
fn connections_over_the_cap_are_refused_with_an_error_line() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::time::Duration;

    for &io in io_modes() {
        let config = ServerConfig { io, max_connections: 1, ..ServerConfig::default() };
        let server = TestServer::start_with(8, None, config);
        let mut first = LineClient::new(server.connect());
        assert_eq!(first.roundtrip("PING"), "pong");

        // The second concurrent connection is answered and closed.
        let mut second = server.connect();
        second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reply = String::new();
        second.read_to_string(&mut reply).expect("refusal then EOF");
        assert_eq!(reply, "error: connection limit reached (1 active)\n", "{io:?}");

        // The refused connection did not consume the slot: the first
        // session still serves, and once it ends a new connection is
        // admitted.
        assert_eq!(first.roundtrip("out 0"), "1");
        assert_eq!(first.roundtrip("QUIT"), "bye");
        drop(first);
        for attempt in 0.. {
            // While the slot is still taken the server answers and closes
            // before we write, so the write may hit EPIPE and the read a
            // reset instead of the refusal line — both mean "refused,
            // retry".
            let mut retry = server.connect();
            let _ = retry.write_all(b"PING\n");
            let mut reply = String::new();
            let _ = BufReader::new(&retry).read_line(&mut reply);
            if reply == "pong\n" {
                break;
            }
            assert!(reply.is_empty() || reply.starts_with("error:"), "{io:?}: {reply}");
            assert!(attempt < 50, "{io:?}: slot never freed: {reply:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[test]
fn reload_swaps_in_a_rule_free_grammar_mid_session() {
    // A 9-node unlabeled path as a rule-free grammar: ids are preserved (no
    // compressor renumbering), so the answers are predictable.
    let file = common::path_file(9);
    for &io in io_modes() {
        let path = temp_path("server_plain");
        std::fs::write(&path, &file).unwrap();

        let server = TestServer::start_in(io, 16, None); // compressed, 33 nodes
        let mut client = LineClient::new(server.connect());
        assert_eq!(
            client.roundtrip("INFO"),
            "grepair proto=3 namespace=default generation=1 nodes=33 backend=grepair reload_failures=0"
        );
        assert_eq!(
            client.roundtrip(&format!("RELOAD {}", path.display())),
            "reloaded generation=2 nodes=9"
        );
        // Same connection, new graph: the whole query plane answers.
        assert_eq!(
            client.roundtrip("INFO"),
            "grepair proto=3 namespace=default generation=2 nodes=9 backend=grepair reload_failures=0"
        );
        assert_eq!(client.roundtrip("out 0"), "1");
        assert_eq!(client.roundtrip("in 8"), "7");
        assert_eq!(client.roundtrip("reach 0 8"), "true");
        assert_eq!(client.roundtrip("reach 8 0"), "false");
        assert_eq!(client.roundtrip("rpq 0 2 0 0"), "true");
        assert_eq!(client.roundtrip("components"), "1");
        assert_eq!(client.roundtrip("degrees"), "min=1 max=2");
        let err = client.roundtrip("out 33"); // old id space is gone
        assert!(err.starts_with("error:") && err.contains("0..9"), "{err}");
        let stats = client.roundtrip("STATS default");
        assert!(stats.starts_with("generation=2 "), "{stats}");
        assert!(stats.ends_with("backend=grepair open_failures=0 reload_failures=0 breaker_trips=0 breaker_open=false"), "{stats}");
        assert_eq!(client.roundtrip("QUIT"), "bye");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn bare_reload_uses_the_configured_path_and_errors_without_one() {
    for &io in io_modes() {
        let path = temp_path("server_bare");
        std::fs::write(&path, g2g(8)).unwrap();

        // No default path configured: bare RELOAD is a clean error.
        let server = TestServer::start_in(io, 8, None);
        let mut client = LineClient::new(server.connect());
        let reply = client.roundtrip("RELOAD");
        assert!(reply.contains("no container path"), "{io:?}: {reply}");
        drop(client);
        drop(server);

        // With one configured (the normal binary path), bare RELOAD works.
        let server = TestServer::start_in(io, 8, Some(path.display().to_string()));
        let mut client = LineClient::new(server.connect());
        assert_eq!(client.roundtrip("RELOAD"), "reloaded generation=2 nodes=17");
        let _ = std::fs::remove_file(&path);
    }
}

/// What a server run reports once it returns: `run()`'s result,
/// `connections_active()` right after it, and when it returned.
type RunOutcome = (std::io::Result<()>, u64, std::time::Instant);

/// A server run on its own thread, stopping only by a drain.
fn run_until_drained(
    io: IoMode,
    drain_deadline: std::time::Duration,
) -> (std::net::SocketAddr, std::thread::JoinHandle<RunOutcome>) {
    run_until_drained_on(store(8), io, drain_deadline)
}

/// [`run_until_drained`] serving `store`.
fn run_until_drained_on(
    store: GraphStore,
    io: IoMode,
    drain_deadline: std::time::Duration,
) -> (std::net::SocketAddr, std::thread::JoinHandle<RunOutcome>) {
    use std::sync::Arc;

    let config = ServerConfig { io, drain_deadline, ..ServerConfig::default() };
    let registry = Arc::new(StoreRegistry::new(store));
    let server = Server::bind(&config, registry, None).unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || {
        let result = server.run();
        (result, server.connections_active(), std::time::Instant::now())
    });
    (addr, run)
}

/// A drain that leaves a connection with more replies than the socket
/// takes keeps sending them as the client reads, then closes — instead of
/// waiting out the drain deadline with the replies unsent.
#[test]
fn a_drain_flushes_replies_that_did_not_fit_the_socket() {
    use grepair_grammar::Grammar;
    use grepair_hypergraph::Hypergraph;
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    // A hub with 40 000 out-neighbors, ids kept (no rules): one `out 0`
    // reply is ≈ 230 kB, 40 of them far more than loopback buffers hold
    // while the client does not read, and all 40 lines arrive in one read.
    let leaves = 40_000u32;
    let edges = (1..=leaves).map(|v| (0, 0u32, v));
    let star = Hypergraph::from_simple_edges(leaves as usize + 1, edges).0;
    let enc = grepair_codec::encode(&Grammar::new(star, 1));
    let file = grepair_store::write_container(&enc.bytes, enc.bit_len);
    let row = (1..=leaves).map(|v| v.to_string()).collect::<Vec<_>>().join(" ") + "\n";
    let requests = 40;
    for &io in io_modes() {
        let deadline = Duration::from_secs(5);
        let store = GraphStore::from_bytes(&file).unwrap();
        let (addr, run) = run_until_drained_on(store, io, deadline);
        let mut reader = std::net::TcpStream::connect(addr).unwrap();
        reader.write_all("out 0\n".repeat(requests).as_bytes()).unwrap();
        // Let the server read all of it, answer, and fill the socket.
        std::thread::sleep(Duration::from_millis(300));

        let mut admin = std::net::TcpStream::connect(addr).unwrap();
        admin.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let drained = Instant::now();
        admin.write_all(b"SHUTDOWN\n").unwrap();
        let mut reply = String::new();
        admin.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "draining\n", "{io:?}");

        reader.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut replies = String::new();
        reader.read_to_string(&mut replies).expect("every reply, then EOF");
        let took = drained.elapsed();
        assert_eq!(replies.len(), requests * row.len(), "{io:?}");
        assert!(replies.split_inclusive('\n').all(|line| line == row), "{io:?}");
        let late = format!("{io:?}: EOF after {took:?} of a {deadline:?} deadline");
        assert!(took < Duration::from_secs(2), "{late}");
        let (result, active, _) = run.join().expect("run thread");
        result.expect("clean drain exit");
        assert_eq!(active, 0, "{io:?}");
    }
}

#[test]
fn shutdown_verb_drains_the_server_and_closes_the_listener() {
    for &io in io_modes() {
        let (addr, run) = run_until_drained(io, std::time::Duration::from_secs(3));
        let mut client = LineClient::new(std::net::TcpStream::connect(addr).unwrap());
        assert_eq!(client.roundtrip("out 0"), "1");
        // SHUTDOWN answers `draining`, ends this session, and stops the
        // accept loop; run() returns once the drain completes.
        assert_eq!(client.roundtrip("SHUTDOWN"), "draining");
        let (result, active, _) = run.join().expect("run thread");
        result.expect("clean drain exit");
        // After a drain, no session is left active: every in-flight
        // connection finished before run() returned.
        assert_eq!(active, 0, "{io:?}: drain left sessions behind");
        // The listener is gone with the server: fresh connections are
        // refused (or connect and die unanswered, depending on backlog
        // timing).
        match std::net::TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut stream) => {
                use std::io::{Read, Write};
                let _ = stream.write_all(b"PING\n");
                let mut reply = String::new();
                let _ = stream.read_to_string(&mut reply);
                assert_eq!(reply, "", "{io:?}: a drained server must not serve new sessions");
            }
        }
    }
}

/// DESIGN.md §10.4: a drain ends a session parked in `read` at once — it
/// answers what it has read and closes — instead of waiting out the drain
/// deadline.
#[test]
fn a_drain_ends_idle_sessions_without_waiting_for_the_deadline() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::time::{Duration, Instant};

    for &io in io_modes() {
        let (addr, run) = run_until_drained(io, Duration::from_secs(3));
        // One peer answered and then idle, parked in the server's read.
        let mut idle = std::net::TcpStream::connect(addr).unwrap();
        idle.write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(idle.try_clone().unwrap());
        let mut pong = String::new();
        reader.read_line(&mut pong).unwrap();
        assert_eq!(pong, "pong\n");
        // Let its session get past the reply and park in the next read.
        std::thread::sleep(Duration::from_millis(100));

        // Another pipelines a few queries and SHUTDOWN.
        let mut admin = std::net::TcpStream::connect(addr).unwrap();
        admin.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let sent = Instant::now();
        admin.write_all(b"out 0\nreach 0 16\nPING\nSHUTDOWN\n").unwrap();
        let mut replies = String::new();
        admin.read_to_string(&mut replies).expect("replies, then EOF");
        assert_eq!(replies, "1\ntrue\npong\ndraining\n", "{io:?}");

        let (result, active, returned) = run.join().expect("run thread");
        result.expect("clean drain exit");
        let took = returned - sent;
        assert!(took < Duration::from_secs(1), "{io:?}: run() took {took:?} of a 3 s deadline");
        assert_eq!(active, 0, "{io:?}: the idle session outlived the drain");
        // The idle peer reads EOF: its session ended, its socket closed.
        reader.get_ref().set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("EOF, not a timeout");
        assert!(rest.is_empty(), "{io:?}: unexpected bytes at drain: {rest:?}");
    }
}
