//! The zero-panic guarantee at the socket boundary: garbage bytes,
//! oversized lines, mid-line disconnects, and hostile ids must each become
//! an `error:` reply (or a clean close), never a panic, and never stop the
//! server from serving the next line or the next connection.

mod common;

use std::io::Write;
use std::net::Shutdown;

use common::{io_modes, send_and_drain, temp_path, LineClient, TestServer};
use grepair_store::DEFAULT_NAMESPACE;

#[test]
fn garbage_lines_get_error_replies_and_serving_continues() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        let mut client = LineClient::new(server.connect());
        for garbage in [
            "frobnicate 1",
            "out",
            "out x",
            "out 1 2",
            "reach 1",
            "rpq 1 2",
            "rpq 1 2 banana",
            "components now",
            "OUT 1", // admin plane is upper-case, but OUT is not an admin verb
            "!!!!",
            "\u{1F980} unicode crab",
        ] {
            let reply = client.roundtrip(garbage);
            assert!(reply.starts_with("error: "), "{garbage:?} -> {reply:?}");
        }
        // Still serving.
        assert_eq!(client.roundtrip("out 0"), "1");
        assert_eq!(client.roundtrip("PING"), "pong");
    }
}

#[test]
fn hostile_ids_over_the_socket_error_cleanly() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();
        let mut client = LineClient::new(server.connect());
        // The tests/hostile.rs id corpus, shipped as protocol lines.
        for id in [n, n + 1, u64::MAX, 1 << 40] {
            for line in [
                format!("out {id}"),
                format!("in {id}"),
                format!("neighbors {id}"),
                format!("reach {id} 0"),
                format!("reach 0 {id}"),
                format!("rpq {id} 0 0 1"),
            ] {
                let reply = client.roundtrip(&line);
                assert!(reply.starts_with("error: "), "{line:?} -> {reply:?}");
                assert!(reply.contains("out of range"), "{line:?} -> {reply:?}");
            }
        }
        // Ids that do not even parse as u64.
        let reply = client.roundtrip("out 99999999999999999999999999");
        assert!(reply.starts_with("error: "), "{reply}");
        assert_eq!(client.roundtrip(&format!("reach 0 {}", n - 1)), "true");
    }
}

#[test]
fn the_longest_legal_patterns_are_served_and_one_atom_more_is_an_error_line() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        let store = server.registry.store(DEFAULT_NAMESPACE).unwrap();
        let n = store.total_nodes();
        let mut client = LineClient::new(server.connect());
        // The tests/hostile.rs patterns, shipped as protocol lines: 256 atoms
        // (an automaton of up to 513 states) are answered like any other …
        for pattern in [["0*"; 256].join(" "), ["0", "1?"].repeat(128).join(" ")] {
            for (s, t) in (0..n).flat_map(|s| [(s, s), (s, (s + 1) % n), (s, (s + 5) % n)]) {
                let want = store.rpq(&pattern, s, t).unwrap().to_string();
                assert_eq!(client.roundtrip(&format!("rpq {s} {t} {pattern}")), want, "rpq {s} {t}");
            }
            // (ids are the compressor's to assign, the empty word is not)
            let empty_word = client.roundtrip(&format!("rpq 3 3 {pattern}"));
            assert_eq!(empty_word, pattern.starts_with("0*").to_string());
        }
        // … one atom more is refused when the line is parsed, whatever the ids.
        let reply = client.roundtrip(&format!("rpq 0 {} {}", u64::MAX, ["0*"; 257].join(" ")));
        assert_eq!(reply, "error: bad request: rpq pattern has 257 atoms, at most 256");
        assert_eq!(client.roundtrip("out 0"), "1");
    }
}

#[test]
fn non_utf8_bytes_error_and_the_connection_keeps_serving() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\xff\xfe\xfd\n");
        input.extend_from_slice(&[0u8, 1, 2, 255, b'\n']);
        input.extend_from_slice(b"out 0\n");
        let out = send_and_drain(server.addr, &input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("not valid UTF-8"), "{out}");
        assert!(lines[1].contains("not valid UTF-8"), "{out}");
        assert_eq!(lines[2], "1");
    }
}

#[test]
fn oversized_lines_are_rejected_without_reading_them_whole() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        // 4 MiB of 'a' — 64× the line cap. The server must reply with one
        // error and resynchronize on the newline.
        let mut input = vec![b'a'; 4 << 20];
        input.push(b'\n');
        input.extend_from_slice(b"reach 0 1\n");
        let out = send_and_drain(server.addr, &input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].contains("exceeds 65536 bytes"), "{out}");
        assert_eq!(lines[1], "true");
    }
}

#[test]
fn mid_line_disconnect_is_a_clean_close_and_the_server_lives_on() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        for partial in ["out 1", "RELOAD /some/pa", "rpq 0 1 0* 1", "#half a comm"] {
            let mut stream = server.connect();
            stream.write_all(b"out 0\n").unwrap();
            stream.write_all(partial.as_bytes()).unwrap(); // no newline, then gone
            stream.shutdown(Shutdown::Write).unwrap();
            let mut out = String::new();
            std::io::Read::read_to_string(&mut stream, &mut out).unwrap();
            assert_eq!(out, "1\n", "complete lines answered, partial discarded ({partial:?})");
        }
        // The server survived every torn connection.
        let mut client = LineClient::new(server.connect());
        assert_eq!(client.roundtrip("PING"), "pong");
    }
}

#[test]
fn abrupt_disconnects_and_empty_connections_do_not_hurt() {
    for &io in io_modes() {
        let server = TestServer::start_in(io, 8, None);
        for _ in 0..20 {
            // Connect and vanish without sending a byte.
            drop(server.connect());
        }
        // Send then slam the whole socket shut (both directions).
        let mut stream = server.connect();
        stream.write_all(b"out 0\nout 1\n").unwrap();
        stream.shutdown(Shutdown::Both).unwrap();
        drop(stream);
        // Still serving.
        let mut client = LineClient::new(server.connect());
        assert_eq!(client.roundtrip("out 0"), "1");
    }
}

#[test]
fn hostile_reload_arguments_never_kill_the_store() {
    for &io in io_modes() {
        let junk = temp_path("hostile");
        std::fs::write(&junk, b"not a g2g file at all, just some text").unwrap();
        let server = TestServer::start_in(io, 8, None);
        let mut client = LineClient::new(server.connect());
        for line in [
            "RELOAD /nonexistent/nowhere.g2g".to_string(),
            format!("RELOAD {}", junk.display()),
            "RELOAD a b".to_string(),
        ] {
            let reply = client.roundtrip(&line);
            assert!(reply.starts_with("error: "), "{line:?} -> {reply:?}");
        }
        // Generation unchanged, still serving the original store.
        assert!(client.roundtrip("STATS default").starts_with("generation=1 "));
        assert_eq!(server.registry.generation_of(DEFAULT_NAMESPACE), Ok(1));
        assert_eq!(client.roundtrip("out 0"), "1");
        let _ = std::fs::remove_file(&junk);
    }
}

#[test]
fn hostile_attach_arguments_never_disturb_existing_namespaces() {
    for &io in io_modes() {
        let good = common::g2g(4);

        // A truncated container and a bit-flipped one, plus plain text junk.
        let truncated = temp_path("attach_trunc");
        std::fs::write(&truncated, &good[..good.len() / 2]).unwrap();
        let flipped_path = temp_path("attach_flip");
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&flipped_path, &flipped).unwrap();
        let junk = temp_path("attach_junk");
        std::fs::write(&junk, b"definitely not a container").unwrap();

        let server = TestServer::start_in(io, 8, None);
        let mut client = LineClient::new(server.connect());
        for (name, path) in [
            ("trunc", truncated.display().to_string()),
            ("flip", flipped_path.display().to_string()),
            ("junk", junk.display().to_string()),
            ("ghost", "/nonexistent/nowhere.g2g".to_string()),
        ] {
            let reply = client.roundtrip(&format!("ATTACH {name} {path}"));
            assert!(reply.starts_with("error: "), "{name} -> {reply:?}");
            // No partial registration: the name is not in the map, so neither
            // USE nor a prefixed query can reach it.
            assert!(!server.registry.contains(name), "{name} half-registered");
            let reply = client.roundtrip(&format!("USE {name}"));
            assert!(reply.starts_with("error: "), "{name} -> {reply:?}");
            let reply = client.roundtrip(&format!("{name}:out 0"));
            assert!(reply.starts_with("error: "), "{name} -> {reply:?}");
        }
        // Malformed ATTACH argument lists are clean errors too.
        for line in ["ATTACH", "ATTACH onlyname", "ATTACH a b c", "ATTACH bad/name x.g2g"] {
            let reply = client.roundtrip(line);
            assert!(reply.starts_with("error: "), "{line:?} -> {reply:?}");
        }
        // The default namespace never stopped serving.
        assert_eq!(client.roundtrip("LIST"), "namespaces=1 default=resident:1");
        assert_eq!(client.roundtrip("out 0"), "1");
        assert_eq!(client.roundtrip("PING"), "pong");

        // And a valid ATTACH still works after all that hostility.
        let fine = temp_path("attach_fine");
        std::fs::write(&fine, &good).unwrap();
        let reply = client.roundtrip(&format!("ATTACH fine {}", fine.display()));
        assert_eq!(reply, "attached fine generation=1 nodes=9 backend=grepair");
        let reply = client.roundtrip("fine:out 0");
        assert!(!reply.starts_with("error:"), "{reply}");
        for path in [&truncated, &flipped_path, &junk, &fine] {
            let _ = std::fs::remove_file(path);
        }
    }
}
