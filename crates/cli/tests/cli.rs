//! End-to-end tests of the `grepair` binary: the CLI must answer hostile
//! input (bad files, out-of-range ids) with clean errors — exit code ≠ 0
//! and a message, never a panic — and the compress/decompress map pipeline
//! must round-trip original node labels.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grepair_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn grepair(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_clean_failure(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what}: expected failure, got success");
    assert!(
        !stderr.contains("panicked"),
        "{what}: must not panic:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{what}: stderr must mention {needle:?}:\n{stderr}"
    );
}

/// Compress a small two-label path graph, returning the .g2g path. Built
/// once per test process: the tests run concurrently and only read it, and
/// a per-call rewrite would truncate the file under another test's reader.
fn compressed_fixture() -> String {
    static FIXTURE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let input = scratch("fixture.txt");
            let g2g = scratch("fixture.g2g");
            let mut text = String::new();
            for i in 0..20u32 {
                text.push_str(&format!("{} 0 {}\n{} 1 {}\n", 2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2));
            }
            std::fs::write(&input, text).unwrap();
            let out = grepair(&["compress", input.to_str().unwrap(), "-o", g2g.to_str().unwrap()]);
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            g2g.to_str().unwrap().to_string()
        })
        .clone()
}

/// Write `g` as a rule-free grammar container (S alone, no rules) named
/// `name` and return its path: nothing is compressed, so every node keeps
/// the id the tests name.
fn rule_free_fixture(name: &str, g: grepair_hypergraph::Hypergraph) -> String {
    let labels = g.edges().map(|e| e.label.index() + 1).max().unwrap_or(0);
    let enc = grepair_codec::encode(&grepair_grammar::Grammar::new(g, labels));
    let path = scratch(name);
    std::fs::write(&path, grepair_store::write_container(&enc.bytes, enc.bit_len)).unwrap();
    path.to_str().unwrap().to_string()
}

/// A running `grepair store serve`, killed (and reaped) when dropped — also
/// when an assertion unwinds past it.
struct Server(std::process::Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `grepair store serve <serve_args> --addr 127.0.0.1:0` and read the
/// `listening …` banner its first stdout line announces the ephemeral port
/// with: returns the server, the banner and the address.
fn spawn_server(serve_args: &[&str]) -> (Server, String, String) {
    use std::io::{BufRead, BufReader};

    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_grepair"))
            .args(["store", "serve"])
            .args(serve_args)
            .args(["--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("server starts"),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening "), "{banner:?}");
    let addr = banner.split_whitespace().nth(1).expect("addr in banner").to_string();
    (server, banner, addr)
}

/// The `--io` front ends this platform has (`epoll` is Linux only).
fn io_modes() -> &'static [&'static str] {
    if cfg!(target_os = "linux") { &["threads", "epoll"] } else { &["threads"] }
}

/// Stream `text` to `addr` over one connection, half-close, and drain:
/// everything the server replied.
fn stream_replies(addr: &str, text: &str) -> String {
    use std::io::{Read, Write};

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(text.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut got = String::new();
    stream.read_to_string(&mut got).unwrap();
    got
}

/// Run `grepair store serve <serve_args>`, stream `text` through it and
/// return its banner and everything it replied.
fn socket_replies(serve_args: &[&str], text: &str) -> (String, String) {
    let (_server, banner, addr) = spawn_server(serve_args);
    let got = stream_replies(&addr, text);
    (banner, got)
}

#[test]
fn out_of_range_neighbors_is_a_clean_error() {
    let g2g = compressed_fixture();
    // 41 nodes: ids 0..41 are valid, 1000000 is not.
    let out = grepair(&["query", "neighbors", &g2g, "1000000"]);
    assert_clean_failure(&out, "out of range", "out-of-range neighbors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0..41"), "must name the valid range:\n{stderr}");
    // Same for reach, on both endpoints.
    assert_clean_failure(
        &grepair(&["query", "reach", &g2g, "1000000", "0"]),
        "out of range",
        "out-of-range reach source",
    );
    assert_clean_failure(
        &grepair(&["query", "reach", &g2g, "0", "1000000"]),
        "out of range",
        "out-of-range reach target",
    );
    // In-range queries succeed.
    let ok = grepair(&["query", "neighbors", &g2g, "0"]);
    assert!(ok.status.success());
}

#[test]
fn corrupt_g2g_files_are_clean_errors() {
    let g2g = compressed_fixture();
    let bytes = std::fs::read(&g2g).unwrap();
    // Truncations at several offsets, including inside the header.
    for (i, keep) in [0usize, 4, 11, 12, bytes.len() / 2, bytes.len() - 1]
        .into_iter()
        .enumerate()
    {
        let path = scratch(&format!("trunc_{i}.g2g"));
        std::fs::write(&path, &bytes[..keep.min(bytes.len())]).unwrap();
        for subcmd in [
            vec!["query", "components", path.to_str().unwrap()],
            vec!["decompress", path.to_str().unwrap(), "-o", "/dev/null"],
        ] {
            let out = grepair(&subcmd);
            assert_clean_failure(&out, path.to_str().unwrap(), &format!("truncate at {keep}"));
        }
    }
    // Flipped magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    let path = scratch("badmagic.g2g");
    std::fs::write(&path, &bad).unwrap();
    assert_clean_failure(
        &grepair(&["query", "components", path.to_str().unwrap()]),
        "not a g2g",
        "bad magic",
    );
    // Missing file.
    assert_clean_failure(
        &grepair(&["query", "components", "/nonexistent/x.g2g"]),
        "/nonexistent/x.g2g",
        "missing file",
    );
}

#[test]
fn map_round_trips_non_dense_labels() {
    // Node labels are sparse and out of order on purpose.
    let input = scratch("sparse.txt");
    std::fs::write(&input, "700 13\n13 9000\n9000 42\n42 700\n700 9000\n").unwrap();
    let g2g = scratch("sparse.g2g");
    let map = scratch("sparse.map");
    let restored = scratch("sparse_restored.txt");

    let out = grepair(&[
        "compress",
        input.to_str().unwrap(),
        "-o",
        g2g.to_str().unwrap(),
        "--map",
        map.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = grepair(&[
        "decompress",
        g2g.to_str().unwrap(),
        "-o",
        restored.to_str().unwrap(),
        "--map",
        map.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let edges = |text: &str| -> BTreeSet<(u64, u64)> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let mut it = l.split_whitespace();
                (it.next().unwrap().parse().unwrap(), it.next().unwrap().parse().unwrap())
            })
            .collect()
    };
    let original = edges(&std::fs::read_to_string(&input).unwrap());
    let round_tripped = edges(&std::fs::read_to_string(&restored).unwrap());
    assert_eq!(original, round_tripped, "labels must survive the round trip");
}

#[test]
fn serve_file_answers_a_mixed_stream() {
    let g2g = compressed_fixture();
    let queries = scratch("queries.txt");
    std::fs::write(
        &queries,
        "# a comment and a blank line are skipped\n\n\
         out 0\n\
         in 2\n\
         neighbors 1\n\
         reach 0 40\n\
         reach 40 0\n\
         rpq 5 5 0*\n\
         components\n\
         degrees\n\
         out 99999\n\
         frobnicate 1\n\
         reach 0 40\n",
    )
    .unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve-file should keep serving:\n{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 11, "one answer per query line:\n{stdout}");
    assert_eq!(lines[3], "true", "reach 0 40");
    assert_eq!(lines[4], "false", "reach 40 0");
    assert_eq!(lines[5], "true", "rpq 5 5 matches the empty word of 0*");
    assert_eq!(lines[6], "1", "one component");
    assert!(lines[8].starts_with("error:"), "out-of-range mid-stream: {}", lines[8]);
    assert!(lines[8].contains("out of range"), "{}", lines[8]);
    assert!(lines[9].starts_with("error:"), "unknown verb mid-stream: {}", lines[9]);
    assert_eq!(lines[10], "true", "serving continues after errors");
    assert!(stderr.contains("served 11 queries (2 errors)"), "{stderr}");
}

#[test]
fn serve_file_streams_identically_across_batch_and_thread_settings() {
    // The same mixed stream (interleaved parse errors, out-of-range ids,
    // duplicates) must produce byte-identical stdout whether it is answered
    // in one big batch, streamed in tiny chunks, or fanned out over worker
    // threads.
    let g2g = compressed_fixture();
    let queries = scratch("stream_queries.txt");
    let mut text = String::new();
    for i in 0..200u64 {
        match i % 7 {
            0 => text.push_str(&format!("out {}\n", i % 41)),
            1 => text.push_str(&format!("in {}\n", (i * 3) % 41)),
            2 => text.push_str(&format!("reach {} {}\n", i % 41, (i * 5) % 41)),
            3 => text.push_str(&format!("rpq {} {} 0* 1*\n", i % 41, (i * 11) % 41)),
            4 => text.push_str("# interleaved comment\n\n"),
            5 => text.push_str(&format!("out {}\n", 1000 + i)), // out of range
            _ => text.push_str("bogus verb\n"),                 // parse error
        }
    }
    std::fs::write(&queries, text).unwrap();
    let baseline = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(baseline.status.success());
    let expected = String::from_utf8_lossy(&baseline.stdout).to_string();
    assert!(!expected.is_empty());
    for extra in [
        &["--batch", "7"][..],
        &["--batch", "1"][..],
        &["--threads", "4"][..],
        &["--batch", "16", "--threads", "3"][..],
        &["--threads", "0"][..], // auto: one worker per core
    ] {
        let mut args = vec!["store", "serve-file", &g2g, queries.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = grepair(&args);
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "answers must not depend on {extra:?}"
        );
    }
}

#[test]
fn store_serve_speaks_the_same_bytes_as_serve_file() {
    // The real binary end to end, once per I/O front end: `store serve` on
    // an ephemeral loopback port must answer a mixed query file
    // byte-identically to `store serve-file`, the admin plane must
    // hot-reload without dropping the connection (DESIGN.md §6), and
    // `SHUTDOWN` must drain the process to a clean exit (DESIGN.md §11).
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    let g2g = compressed_fixture();
    let queries = scratch("serve_socket_queries.txt");
    let mut text = String::from("# all classes, with per-line errors\n\n");
    for i in 0..120u64 {
        match i % 6 {
            0 => text.push_str(&format!("out {}\n", i % 41)),
            1 => text.push_str(&format!("neighbors {}\n", (i * 3) % 41)),
            2 => text.push_str(&format!("reach {} {}\n", i % 41, (i * 5) % 41)),
            3 => text.push_str(&format!("rpq {} {} 0* 1*\n", i % 41, (i * 11) % 41)),
            4 => text.push_str(&format!("in {}\n", 1000 + i)), // out of range
            _ => text.push_str("bogus verb\n"),                // parse error
        }
    }
    text.push_str("components\ndegrees\n");
    std::fs::write(&queries, &text).unwrap();

    let offline = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(offline.status.success());
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();

    /// A fresh connection as a send-one-line, read-one-reply function.
    fn interactive(addr: &str) -> impl FnMut(&str) -> String {
        let mut writer = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        move |line| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        }
    }

    for io in io_modes() {
        let (mut server, banner, addr) = spawn_server(&[&g2g, "--threads", "2", "--io", io]);
        assert!(banner.contains("proto=3") && banner.contains("namespaces=1"), "{io}: {banner:?}");
        assert!(banner.contains("generation=1"), "{io}: {banner:?}");
        assert_eq!(stream_replies(&addr, &text), expected, "socket vs serve-file, --io {io}");

        // Admin plane on a second, interactive connection.
        let mut roundtrip = interactive(&addr);
        assert_eq!(roundtrip("PING"), "pong");
        assert!(roundtrip("INFO").contains("generation=1"));
        assert_eq!(roundtrip("out 0"), "1");
        // Bare RELOAD re-reads the serving .g2g (the configured path).
        assert!(roundtrip("RELOAD").starts_with("reloaded generation=2"));
        assert!(roundtrip("STATS default").starts_with("generation=2 "));
        assert!(roundtrip("STATS").starts_with("namespaces=1 resident=1 "), "aggregate form");
        assert_eq!(roundtrip("out 0"), "1", "same connection, new generation");
        // Failpoints are compiled out of a default build.
        let compiled = if cfg!(feature = "fail") { "on" } else { "off" };
        let faults = roundtrip("FAULTS");
        assert!(faults.starts_with(&format!("faults compiled={compiled} ")), "{io}: {faults}");
        assert_eq!(roundtrip("QUIT"), "bye");

        // SHUTDOWN drains: the process ends by itself, cleanly, inside its
        // (default, 5 s) drain deadline.
        assert_eq!(interactive(&addr)("SHUTDOWN"), "draining");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = server.0.try_wait().expect("poll the server") {
                break status;
            }
            assert!(Instant::now() < deadline, "--io {io}: no exit after SHUTDOWN");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "--io {io}: drained server exited with {status}");
    }
}

#[test]
fn serve_file_survives_hostile_bytes_and_missing_final_newline() {
    // serve-file runs the same session engine as the socket server: a
    // non-UTF-8 line and an oversized line become error replies (they used
    // to abort the old read_line loop), and an unterminated final line
    // still counts (file input is line-oriented — DESIGN.md §6.1).
    let g2g = compressed_fixture();
    let queries = scratch("hostile_serve_queries.txt");
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(b"out 0\n");
    bytes.extend_from_slice(b"\xff\xfe not text\n");
    bytes.extend_from_slice(&vec![b'a'; 100_000]);
    bytes.extend_from_slice(b"\nreach 0 40"); // no trailing newline
    std::fs::write(&queries, bytes).unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert_eq!(lines[0], "1");
    assert!(lines[1].contains("not valid UTF-8"), "{stdout}");
    assert!(lines[2].contains("exceeds"), "{stdout}");
    assert_eq!(lines[3], "true", "unterminated final line still answered");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("served 4 queries (2 errors)"), "{stderr}");
}

#[test]
fn serve_file_speaks_the_admin_plane_and_flags_a_mid_file_quit() {
    let g2g = compressed_fixture();
    let queries = scratch("admin_serve_queries.txt");
    std::fs::write(&queries, "out 0\nSTATS\nQUIT\nout 1\nout 2\n# not a request\n").unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "QUIT ends the session:\n{stdout}");
    assert_eq!(lines[0], "1");
    assert!(lines[1].starts_with("namespaces=1 resident=1 "), "{stdout}");
    assert_eq!(lines[2], "bye");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: QUIT left 2 request lines unanswered"),
        "truncation must be visible:\n{stderr}"
    );
}

#[test]
fn multi_tenant_serve_file_and_socket_serve_stay_byte_identical() {
    let default_g2g = compressed_fixture();
    // A second tenant: a shorter single-label path, separately compressed.
    let input = scratch("tenant.txt");
    let tenant_g2g = scratch("tenant.g2g");
    let text: String = (0..10u32).map(|i| format!("{i} 0 {}\n", i + 1)).collect();
    std::fs::write(&input, text).unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", tenant_g2g.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let attach = format!("t={}", tenant_g2g.display());

    // A workload that crosses namespaces per line (`t:` prefixes), switches
    // the session namespace (`USE t`), and reads both STATS forms.
    let queries = scratch("mt_queries.txt");
    let workload = "out 0\nt:out 0\nLIST\nt:components\ncomponents\n\
                    t:out 99999\nUSE t\ndegrees\nSTATS t\nSTATS\n";
    std::fs::write(&queries, workload).unwrap();

    let offline = grepair(&[
        "store", "serve-file", &default_g2g, queries.to_str().unwrap(), "--attach", &attach,
    ]);
    assert!(offline.status.success(), "{}", String::from_utf8_lossy(&offline.stderr));
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();
    assert_eq!(expected.lines().count(), 10, "one reply per request line:\n{expected}");

    let (banner, got) = socket_replies(&[&default_g2g, "--attach", &attach], workload);
    assert!(banner.contains("namespaces=2"), "{banner:?}");
    assert_eq!(got, expected, "multi-tenant socket vs serve-file");

    // Three tenants, one of them rule-free, under a memory budget of half
    // their combined container size: prefixed queries must answer
    // byte-identically on both front ends while the LRU policy evicts and
    // reopens underneath.
    let tenant = |name: &str, nodes: &str, seed: &str| {
        let (txt, g2g) = (scratch(&format!("mt_{name}.txt")), scratch(&format!("mt_{name}.g2g")));
        let (txt, g2g) = (txt.to_str().unwrap().to_string(), g2g.to_str().unwrap().to_string());
        for args in [
            vec!["generate", "pa", nodes, seed, "-o", &txt],
            vec!["compress", &txt, "-o", &g2g],
        ] {
            let out = grepair(&args);
            assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        }
        g2g
    };
    let b = rule_free_fixture("mt_b.g2g", grepair_datasets::network::preferential_attachment(1600, 4, 5));
    let (a, c) = (tenant("a", "1200", "3"), tenant("c", "2000", "9"));
    let total: u64 = [&a, &b, &c].iter().map(|g2g| std::fs::metadata(g2g).unwrap().len()).sum();
    let (attach_b, attach_c, budget) = (format!("b={b}"), format!("c={c}"), (total / 2).to_string());
    let tenancy = ["--attach", &attach_b, "--attach", &attach_c, "--memory-budget", &budget];
    // LIST first (deterministic: both --attach tenants still cold), then a
    // round-robin storm that forces evict/reopen cycles.
    let mut storm = String::from("LIST\n");
    for i in 0..150u32 {
        storm += &format!(
            "out {i}\nb:out {}\nc:neighbors {}\nreach 0 {i}\nb:reach {i} 9\nc:out 999999999\n",
            i * 3 % 1600,
            i * 7 % 2000
        );
    }
    storm += "components\nb:components\nc:degrees\n";
    let storm_file = scratch("mt_storm.txt");
    std::fs::write(&storm_file, &storm).unwrap();
    let offline = grepair(&[&["store", "serve-file", &a, storm_file.to_str().unwrap()], &tenancy[..]].concat());
    assert!(offline.status.success(), "{}", String::from_utf8_lossy(&offline.stderr));
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();
    assert_eq!(expected.lines().count(), 1 + 150 * 6 + 3, "one reply per request line");
    assert_eq!(expected.lines().next(), Some("namespaces=3 b=cold:0 c=cold:0 default=resident:1"));
    for io in io_modes() {
        let (_server, banner, addr) = spawn_server(&[&[a.as_str()], &tenancy[..], &["--io", io]].concat());
        assert!(banner.contains("proto=3 namespaces=3"), "{io}: {banner:?}");
        assert_eq!(stream_replies(&addr, &storm), expected, "{io}: storm over the socket vs serve-file");
        // The budget actually bit on the live server.
        let stats = stream_replies(&addr, "STATS\nSTATS b\n");
        let (all, of_b) = stats.split_once('\n').expect("two replies");
        let counter = |name: &str| -> u64 {
            let field = all.split_whitespace().find_map(|f| f.strip_prefix(name)).expect(name);
            field.parse().expect(name)
        };
        assert!(all.starts_with("namespaces=3 "), "{io}: {all}");
        assert!(counter("evictions=") >= 1 && counter("cold_opens=") >= 1, "{io}: {all}");
        assert!(of_b.contains("backend=grepair"), "{io}: {of_b}");
    }
}

#[test]
fn store_serve_rejects_broken_setup() {
    assert_clean_failure(
        &grepair(&["store", "serve", "/nonexistent/x.g2g"]),
        "/nonexistent/x.g2g",
        "missing store",
    );
    let g2g = compressed_fixture();
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--prot", "80"]),
        "--prot",
        "typoed flag",
    );
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--batch", "0"]),
        "--batch",
        "zero batch",
    );
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--addr", "999.999.999.999:1"]),
        "bind",
        "unbindable address",
    );
}

#[test]
fn serve_file_rejects_broken_setup() {
    let g2g = compressed_fixture();
    let queries = scratch("setup_queries.txt");
    std::fs::write(&queries, "out 0\n").unwrap();
    // Bad store command.
    assert_clean_failure(&grepair(&["store", "frobnicate"]), "unknown store command", "verb");
    // Missing queries file.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, "/nonexistent/q.txt"]),
        "/nonexistent/q.txt",
        "missing queries",
    );
    // Corrupt store file.
    let path = scratch("setup_corrupt.g2g");
    std::fs::write(&path, b"G2G1 nope").unwrap();
    assert_clean_failure(
        &grepair(&["store", "serve-file", path.to_str().unwrap(), queries.to_str().unwrap()]),
        path.to_str().unwrap(),
        "corrupt store",
    );
    // Bad batch size.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--batch", "0"]),
        "--batch",
        "zero batch",
    );
    // Typoed or value-less flags are usage errors, not silent no-ops.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--bacth", "64"]),
        "--bacth",
        "typoed flag",
    );
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--batch"]),
        "needs a value",
        "value-less flag",
    );
    // Malformed --threads.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--threads", "lots"]),
        "--threads",
        "non-numeric threads",
    );
}

#[test]
fn backend_flag_is_a_usage_error_naming_the_flag() {
    // The grammar is the only codec: `--backend` is gone from `compress` and
    // from `store patch`. Either exits 2 (usage, not a run failure —
    // mirroring repro's unknown-flag contract), names the flag, prints the
    // usage, and writes nothing.
    let input = scratch("backend_usage.txt");
    std::fs::write(&input, "0 1\n1 2\n").unwrap();
    let patches = scratch("backend_usage_patches.txt");
    std::fs::write(&patches, "ADD 2 0 0\n").unwrap();
    let g2g = compressed_fixture();
    let written = scratch("backend_usage.g2g");
    let written = written.to_str().unwrap();
    for argv in [
        &["compress", input.to_str().unwrap(), "-o", written, "--backend", "k2"][..],
        &["compress", input.to_str().unwrap(), "-o", written, "--backend=k2"],
        &["store", "patch", &g2g, patches.to_str().unwrap(), "-o", written, "--backend", "k2"],
    ] {
        let out = grepair(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("--backend"), "{argv:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{argv:?}: {stderr}");
        assert!(!std::path::Path::new(written).exists(), "{argv:?} wrote output");
    }
}

#[test]
fn compress_refuses_a_rank_the_container_cannot_hold() {
    // A rule's rank is bounded by `--max-rank`, and a container holds no
    // edge of rank 256 or more: such a bound is refused before anything is
    // written, and the largest one the container holds still compresses.
    let input = scratch("max_rank.txt");
    std::fs::write(&input, "0 1\n1 2\n2 0\n").unwrap();
    let written = scratch("max_rank.g2g");
    let written = written.to_str().unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", written, "--max-rank", "256"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--max-rank") && stderr.contains("255"), "{stderr}");
    assert!(!std::path::Path::new(written).exists(), "a refused bound wrote output");
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", written, "--max-rank", "255"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(std::path::Path::new(written).exists());
}

#[test]
fn compress_trace_reports_every_phase_and_changes_no_byte() {
    // A hub plus a long two-label path: enough structure for every phase
    // and counter to do some work.
    let input = scratch("trace.txt");
    let mut text = String::new();
    for i in 1..=60u32 {
        text.push_str(&format!("0 0 {i}\n{i} 1 {}\n", i + 1));
    }
    std::fs::write(&input, text).unwrap();
    let plain = scratch("trace_plain.g2g");
    let traced = scratch("trace_traced.g2g");
    let run = |output: &PathBuf, extra: &[&str]| {
        let mut args = vec!["compress", input.to_str().unwrap(), "-o", output.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = grepair(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out
    };
    let quiet = run(&plain, &[]);
    assert!(quiet.stderr.is_empty(), "no trace unless asked for");
    let out = run(&traced, &["--trace"]);

    // A reporting flag, not a behaviour switch.
    assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&traced).unwrap());
    assert_eq!(
        String::from_utf8_lossy(&quiet.stdout).replace("trace_plain", "trace_traced"),
        String::from_utf8_lossy(&out.stdout)
    );

    // Every stderr line is `key=value` with a numeric value; times are
    // non-negative reals, counters are integers.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut seen: Vec<(&str, f64)> = Vec::new();
    for line in stderr.lines() {
        let (key, value) = line.split_once('=').unwrap_or_else(|| panic!("not key=value: {line:?}"));
        let number: f64 = value.parse().unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert!(number >= 0.0 && number.is_finite(), "{line:?}");
        if !key.ends_with("_ms") {
            value.parse::<u64>().unwrap_or_else(|e| panic!("counter {line:?}: {e}"));
        }
        seen.push((key, number));
    }
    let keys: Vec<&str> = seen.iter().map(|&(key, _)| key).collect();
    assert_eq!(
        keys,
        [
            "count_ms", "replace_ms", "virtual_ms", "prune_ms", "canonicalize_ms", "node_map_ms",
            "group_edges_scanned", "pair_attempts", "rank_rejects", "prov_nodes_visited",
            "adjacency_sections", "adjacency_bits", "incidence_sections", "incidence_bits",
            "list_sections", "list_bits", "rule_bits", "header_bits", "paper_bits",
        ]
    );
    let value = |key: &str| seen.iter().find(|&&(k, _)| k == key).unwrap().1;
    assert!(value("pair_attempts") > 0.0);
    assert!(value("rank_rejects") <= value("pair_attempts"));
    assert!(value("group_edges_scanned") >= 240.0, "every incidence is linked once");

    // Where the bytes went: the header, the three section modes and the
    // rules are the container's payload, bit for bit (its header holds the
    // payload's bit length after the 4-byte magic), and the paper's
    // all-k² format is never smaller.
    let file = std::fs::read(&traced).unwrap();
    let payload_bits = u64::from_le_bytes(file[4..12].try_into().unwrap()) as f64;
    let parts: f64 = ["header_bits", "adjacency_bits", "incidence_bits", "list_bits", "rule_bits"]
        .map(value)
        .iter()
        .sum();
    assert_eq!(parts, payload_bits, "{stderr}");
    assert!(value("paper_bits") >= payload_bits, "{stderr}");
    assert!(value("list_sections") > 0.0, "{stderr}");
}

#[test]
fn every_backend_compresses_decompresses_and_serves() {
    // One unlabeled path graph in both shapes of grammar container — the
    // one `compress` writes and a rule-free one: decompress restores the
    // edge set, and serve-file answers the same queries (modulo the
    // compressor's node renumbering, which is why the workload below is
    // id-symmetric).
    let input = scratch("multi_backend.txt");
    let mut text = String::new();
    for i in 0..30u32 {
        text.push_str(&format!("{} {}\n", i, i + 1));
    }
    std::fs::write(&input, &text).unwrap();
    let compressed = scratch("multi_compressed.g2g");
    let compressed = compressed.to_str().unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", compressed]);
    assert!(out.status.success(), "compress: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("(backend grepair, "));
    let path = grepair_hypergraph::Hypergraph::from_simple_edges(31, (0..30u32).map(|i| (i, 0, i + 1)));
    let rule_free = rule_free_fixture("multi_rule_free.g2g", path.0);

    for (name, g2g) in [("compressed", compressed), ("rule-free", &rule_free)] {
        // Decompress restores the 30-edge path (ids differ when compressed).
        let restored = scratch(&format!("multi_{name}_restored.txt"));
        let out = grepair(&["decompress", g2g, "-o", restored.to_str().unwrap()]);
        assert!(out.status.success(), "{name} decompress");
        assert!(String::from_utf8_lossy(&out.stdout).contains("(backend grepair, 31 nodes, 30 edges)"));
        let lines = std::fs::read_to_string(&restored).unwrap().lines().count();
        assert_eq!(lines, 30, "{name} edge count");

        // serve-file: neighbors end to end, plus a mid-stream error.
        let queries = scratch(&format!("multi_{name}_queries.txt"));
        std::fs::write(&queries, "components\ndegrees\nout 99999\nreach 0 0\n").unwrap();
        let out = grepair(&["store", "serve-file", g2g, queries.to_str().unwrap()]);
        assert!(out.status.success(), "{name} serve-file");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines[0], "1", "{name}: one component");
        assert_eq!(lines[1], "min=1 max=2", "{name}: path degrees");
        assert!(lines[2].contains("out of range"), "{name}: {stdout}");
        assert_eq!(lines[3], "true", "{name}: reflexive reach");
    }
}

#[test]
fn every_backend_answers_a_socket_like_serve_file() {
    // The server smoke: one preferential-attachment graph in both shapes of
    // grammar container, every query class plus per-line errors, and
    // `store serve` on a loopback socket must reply byte-identically to
    // `store serve-file`.
    let input = scratch("backend_smoke.txt");
    let out = grepair(&["generate", "pa", "1500", "11", "-o", input.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut text = String::from("# server smoke\n");
    for i in 0..100u32 {
        text.push_str(&format!(
            "out {i}\nin {}\nneighbors {}\nreach {i} {}\nrpq {i} 0 0*\n",
            i * 3 % 1500,
            i * 7 % 1500,
            i * 11 % 1500,
        ));
    }
    text.push_str("components\ndegrees\nINFO\nout 999999999\nbogus verb\n");
    let queries = scratch("backend_smoke_queries.txt");
    std::fs::write(&queries, &text).unwrap();
    let compressed = scratch("backend_smoke.g2g");
    let compressed = compressed.to_str().unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", compressed]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let pa = grepair_datasets::network::preferential_attachment(1500, 4, 11);
    let rule_free = rule_free_fixture("backend_smoke_rule_free.g2g", pa);

    for (name, file) in [("compressed", compressed), ("rule-free", &rule_free)] {
        let offline = grepair(&["store", "serve-file", file, queries.to_str().unwrap()]);
        assert!(offline.status.success(), "{name} serve-file");
        let expected = String::from_utf8_lossy(&offline.stdout).to_string();
        assert_eq!(expected.lines().count(), 505, "{name}: one reply per request line");
        assert!(expected.contains("backend=grepair"), "{name}: INFO names the codec");

        let (banner, got) = socket_replies(&[file], &text);
        assert!(banner.contains("backend=grepair"), "{name}: {banner:?}");
        assert_eq!(got, expected, "{name}: socket vs serve-file");
    }
}

/// A four-node rule-free path `0 -> 1 -> 2 -> 3` (ids kept, so versioning
/// tests can name concrete nodes), written to `name`.
fn path_fixture(name: &str) -> String {
    let path = grepair_hypergraph::Hypergraph::from_simple_edges(4, (0..3u32).map(|i| (i, 0, i + 1)));
    rule_free_fixture(name, path.0)
}

#[test]
fn store_patch_and_versions_replay_a_patch_file_offline() {
    let g2g = path_fixture("offline_patch.g2g");
    let patches = scratch("offline_patch_list.txt");
    std::fs::write(&patches, "# close the cycle, drop the first hop\nADD 3 0 0\n\nDEL 0 0 1\n")
        .unwrap();

    // Dry run: one line, exactly the wire protocol's VERSIONS reply.
    let out = grepair(&["store", "versions", &g2g, patches.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        "versions=3 head=v2 v0=+0-0 v1=+1-0 v2=+1-1"
    );

    // Real run: materialize the head and recompress it, then read the
    // written container back.
    let patched = scratch("offline_patched.g2g");
    let out = grepair(&[
        "store", "patch", &g2g, patches.to_str().unwrap(), "-o", patched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(backend grepair, "), "{stdout}");
    assert!(stdout.contains("v2 materialized"), "{stdout}");
    assert!(stdout.contains("+1-1"), "{stdout}");
    // Edges are now 1->2, 2->3, 3->0: a directed path again, under the
    // compressor's own node ids.
    let restored = scratch("offline_patched.txt");
    let out = grepair(&["decompress", patched.to_str().unwrap(), "-o", restored.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let next: std::collections::BTreeMap<u64, u64> = std::fs::read_to_string(&restored)
        .unwrap()
        .lines()
        .map(|l| {
            let (s, t) = l.split_once(' ').unwrap();
            (s.parse().unwrap(), t.parse().unwrap())
        })
        .collect();
    assert_eq!(next.len(), 3, "{next:?}");
    let mut v = *next.keys().find(|v| !next.values().any(|t| t == *v)).expect("a source");
    for hop in 0..3 {
        let t = next[&v];
        let out = grepair(&["query", "reach", patched.to_str().unwrap(), &t.to_string(), &v.to_string()]);
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), "not reachable", "hop {hop}");
        v = t;
    }
    assert!(!next.contains_key(&v), "the walk ends at the sink: {next:?}");

    // A rejected patch aborts the replay with the file position, and
    // nothing is written.
    let bad = scratch("offline_bad_patches.txt");
    std::fs::write(&bad, "ADD 3 0 0\nDEL 9 9 9\n").unwrap();
    let missing = scratch("offline_never_written.g2g");
    let out = grepair(&[
        "store", "patch", &g2g, bad.to_str().unwrap(), "-o", missing.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, ":2:", "rejected patch line");
    assert!(!missing.exists(), "a failed replay must not write output");
}

#[test]
fn serve_file_patches_and_time_travels() {
    // The full versioning surface through the offline front end: PATCH,
    // VERSIONS, and `@vN` pinned queries — plus the parity check that the
    // `store versions` dry run prints the same listing the session renders
    // after the same patches.
    let g2g = path_fixture("serve_versioned.g2g");
    let queries = scratch("serve_versioned_queries.txt");
    std::fs::write(
        &queries,
        "VERSIONS\nPATCH ADD 3 0 0\nreach 3 1\nreach 3 1 @v0\nPATCH DEL 0 0 1\n\
         reach 0 2\nreach 0 2 @v1\nreach 0 2 @v0\nout 0 @v9\nVERSIONS\n",
    )
    .unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 10, "{stdout}");
    assert_eq!(lines[0], "versions=1 head=v0 v0=+0-0");
    assert_eq!(lines[1], "patched version=1 generation=2 added=1 removed=0");
    assert_eq!(lines[2], "true", "head sees the new 3->0 edge");
    assert_eq!(lines[3], "false", "@v0 still serves the base");
    assert_eq!(lines[4], "patched version=2 generation=3 added=1 removed=1");
    assert_eq!(lines[5], "false", "head lost the 0->1 hop");
    assert_eq!(lines[6], "true", "@v1 still has it");
    assert_eq!(lines[7], "true", "@v0 too");
    assert!(lines[8].contains("unknown version v9"), "{stdout}");
    assert_eq!(lines[9], "versions=3 head=v2 v0=+0-0 v1=+1-0 v2=+1-1");

    // Dry-run parity: `store versions` over the equivalent patch file
    // prints byte-for-byte the session's final VERSIONS reply.
    let patches = scratch("serve_versioned_patches.txt");
    std::fs::write(&patches, "ADD 3 0 0\nDEL 0 0 1\n").unwrap();
    let out = grepair(&["store", "versions", &g2g, patches.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), lines[9]);
}

#[test]
fn versioning_speaks_the_same_bytes_over_a_socket_as_serve_file() {
    // Versioned graphs over the wire (DESIGN.md §12): each front end replays
    // the same PATCH history from the same base container, so every reply —
    // patched/versions lines, @vN-pinned answers, the rejection lines — must
    // be byte-identical between serve-file and a live socket in both --io
    // modes. A rule-free container keeps the generator's node ids, so the
    // grown-node probes are meaningful.
    let pa = grepair_datasets::network::preferential_attachment(1000, 4, 13);
    let g2g = rule_free_fixture("ver_smoke.g2g", pa);
    let text = "VERSIONS\nINFO\n\
        PATCH ADD 0 0 1000\nout 1000\nout 1000 @v0\nreach 0 1000\nin 1000 @v1\n\
        PATCH DEL 0 0 1000\nout 0 @v1\nout 0 @v2\nVERSIONS\n\
        PATCH ADD 998 0 1005\nreach 0 1005\nVERSIONS\nINFO\n\
        out 2 @v9\nout 2 @vx\nPATCH ADD 5 0 5\nPATCH bogus\nVERSIONS\n\
        RELOAD\nVERSIONS\n";
    let queries = scratch("ver_queries.txt");
    std::fs::write(&queries, text).unwrap();

    let offline = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(offline.status.success(), "{}", String::from_utf8_lossy(&offline.stderr));
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();
    let lines: Vec<&str> = expected.lines().collect();
    assert_eq!(lines.len(), 22, "one reply per request line:\n{expected}");
    assert_eq!(lines[2], "patched version=1 generation=2 added=1 removed=0");
    let versions = "versions=4 head=v3 v0=+0-0 v1=+1-0 v2=+0-0 v3=+1-0";
    assert_eq!(lines[19], versions);
    // RELOAD never drops a patch log quietly: a per-line error, and the
    // VERSIONS after it still lists every version.
    assert_eq!(
        lines[20],
        "error: bad request: namespace \"default\" holds 3 patched versions; \
         RELOAD would drop them (DETACH + ATTACH rebases)"
    );
    assert_eq!(lines[21], versions);

    for io in io_modes() {
        let (_banner, got) = socket_replies(&[&g2g, "--io", io], text);
        assert_eq!(got, expected, "versioning over --io {io} vs serve-file");
    }
}

#[test]
fn decompress_rejects_bad_flags_and_map_files() {
    let g2g = compressed_fixture();
    let out_path = scratch("rejects_out.txt");
    let out_str = out_path.to_str().unwrap();
    // Unknown flag.
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--mpa", "x"]),
        "--mpa",
        "typoed --map",
    );
    // Map file with extra columns.
    let bad_map = scratch("bad_columns.map");
    std::fs::write(&bad_map, "0 5 7\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", bad_map.to_str().unwrap()]),
        "trailing token",
        "three-column map",
    );
    // Map file with a duplicate derived id.
    let dup_map = scratch("dup.map");
    std::fs::write(&dup_map, "0 5\n0 6\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", dup_map.to_str().unwrap()]),
        "duplicate mapping",
        "duplicate map line",
    );
    // Map file missing ids.
    let sparse_map = scratch("missing.map");
    std::fs::write(&sparse_map, "0 5\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", sparse_map.to_str().unwrap()]),
        "no mapping",
        "incomplete map",
    );
}

/// `grepair` started with `pool.submit` armed through the environment.
fn armed_grepair(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(args)
        .env("GREPAIR_FAILPOINTS", "pool.submit=always:err")
        .output()
        .expect("binary runs")
}

/// `store serve-file` under an armed shed schedule: every request is
/// answered, each batch with `busy` lines, and the run still exits 0.
#[cfg(feature = "fail")]
#[test]
fn env_armed_serve_file_sheds_with_busy_lines_and_exits_zero() {
    let g2g = compressed_fixture();
    let queries = scratch("armed_queries.txt");
    let text: String =
        (0..40).map(|i| format!("out {i}\nin {i}\nreach 0 {i}\nneighbors {i}\n")).collect();
    std::fs::write(&queries, text).unwrap();
    let out = armed_grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "a shed is not an error:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 160, "one reply per request:\n{stdout}");
    assert!(stdout.lines().all(|l| l == "busy"), "{stdout}");
}

/// A default build compiles the failpoints out: arming them through the
/// environment is a startup error on both serving commands.
#[cfg(not(feature = "fail"))]
#[test]
fn env_armed_failpoints_are_a_startup_error_in_a_default_build() {
    let g2g = compressed_fixture();
    let queries = scratch("armed_queries.txt");
    std::fs::write(&queries, "out 0\n").unwrap();
    let file = armed_grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert_clean_failure(&file, "GREPAIR_FAILPOINTS set but failpoints compiled out", "serve-file");
    assert!(file.stdout.is_empty(), "nothing is served");
    // The env is read before the container, so no file is needed.
    let socket = armed_grepair(&["store", "serve", "/nonexistent/x.g2g"]);
    assert_clean_failure(&socket, "GREPAIR_FAILPOINTS set but failpoints compiled out", "serve");
}
