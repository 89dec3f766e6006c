//! The `serve-probe` binary against a live loopback server: its file mode
//! (the pipelined wire client CI's byte-identity diffs rest on) must agree
//! with the in-process batch API answer for answer, error lines included,
//! and its connection-scale mode must park, sample and burst against an
//! epoll server.

use std::process::Command;
use std::sync::Arc;

use grepair_core::{compress, GRePairConfig};
use grepair_grammar::Grammar;
use grepair_hypergraph::Hypergraph;
use grepair_server::{IoMode, Server, ServerConfig};
use grepair_store::{
    error_reply, parse_query, write_container, GraphStore, Query, StoreRegistry,
};

fn fixture_bytes() -> Vec<u8> {
    let reps = 24u32;
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    write_container(&enc.bytes, enc.bit_len)
}

#[test]
fn probe_answers_match_the_in_process_batch() {
    let bytes = fixture_bytes();
    let registry = Arc::new(StoreRegistry::new(GraphStore::from_bytes(&bytes).unwrap()));
    let server =
        Server::bind(&ServerConfig::default(), Arc::clone(&registry), None).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());

    // Every query class, ids past the end (per-line errors), and enough
    // lines that the pipelined writer and reader genuinely overlap.
    let store = GraphStore::from_bytes(&bytes).unwrap();
    let n = store.total_nodes();
    let lines: Vec<String> = (0..2_000u64)
        .map(|i| match i % 7 {
            0 => format!("out {}", i % (n + 3)),
            1 => format!("in {}", (i * 7) % n),
            2 => format!("neighbors {}", (i * 13) % n),
            3 => format!("reach {} {}", i % n, (i * 31) % (n + 2)),
            4 => format!("rpq {} {} 0* 1*", i % n, (i * 11) % n),
            5 => "components".to_string(),
            _ => "degrees".to_string(),
        })
        .collect();
    let queries: Vec<Query> = lines.iter().map(|l| parse_query(l).unwrap()).collect();
    let path = std::env::temp_dir().join(format!("grepair_probe_{}.txt", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_serve-probe"))
        .arg(addr.to_string())
        .arg(&path)
        .output()
        .expect("serve-probe runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), queries.len());

    let expected = store.query_batch(&queries);
    for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
        let want = match want {
            Ok(a) => a.to_string(),
            Err(e) => error_reply(e),
        };
        assert_eq!(*got, want, "answer {i} ({:?})", queries[i]);
    }
    let errors = expected.iter().filter(|a| a.is_err()).count();
    assert!(errors > 0, "the workload must exercise the error path");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("probed {} queries ({errors} errors)", queries.len())),
        "{stderr}"
    );

    handle.stop();
    thread.join().unwrap();
}

/// The per-tenant probe flag: bare query lines sent with `--namespace b`
/// answer the way `serve-file` answers them on b's own container (one
/// rendered `query_batch`), while the default namespace holds another,
/// compressed graph.
#[test]
fn probe_namespace_flag_targets_one_tenant() {
    // A rule-free grammar: ids survive, so the answers below are literal.
    let (g, _) = Hypergraph::from_simple_edges(30, (0..29u32).map(|i| (i, 0u32, i + 1)));
    let enc = grepair_codec::encode(&Grammar::new(g, 1));
    let tenant = write_container(&enc.bytes, enc.bit_len);
    let registry = Arc::new(StoreRegistry::new(GraphStore::from_bytes(&fixture_bytes()).unwrap()));
    registry.attach_store("b", GraphStore::from_bytes(&tenant).unwrap()).unwrap();
    let server = Server::bind(&ServerConfig::default(), Arc::clone(&registry), None).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let lines = ["out 0", "in 3", "reach 0 9", "components", "out 999999999"];
    let path = std::env::temp_dir().join(format!("grepair_probe_ns_{}.txt", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_serve-probe"))
        .arg(addr.to_string())
        .arg(&path)
        .args(["--namespace", "b"])
        .output()
        .expect("serve-probe runs");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let queries: Vec<Query> = lines.iter().map(|l| parse_query(l).unwrap()).collect();
    let own = GraphStore::from_bytes(&tenant).unwrap();
    let want: Vec<String> = own
        .query_batch(&queries)
        .iter()
        .map(|answer| match answer {
            Ok(a) => a.to_string(),
            Err(e) => error_reply(e),
        })
        .collect();
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().collect::<Vec<_>>(), want);
    // b has 30 nodes, the default namespace 49: the range named is b's.
    assert_eq!((want[2].as_str(), want[3].as_str()), ("true", "1"));
    assert!(want[4].starts_with("error: ") && want[4].contains("0..30"), "{}", want[4]);

    handle.stop();
    thread.join().unwrap();
}

/// `serve-probe --connections` (the connection soak CI ran as a shell step
/// against the release binary): 256 parked connections on an in-process
/// epoll server, every sampled one answering `pong`, and the 2 000-query
/// burst answered in full while they stay parked. The thread-count half of
/// that soak is `crates/server/tests/connections.rs`, in-process at 2 048.
#[cfg(target_os = "linux")]
#[test]
fn probe_parks_connections_on_an_epoll_server() {
    let registry = Arc::new(StoreRegistry::new(GraphStore::from_bytes(&fixture_bytes()).unwrap()));
    let config = ServerConfig { io: IoMode::Epoll, ..ServerConfig::default() };
    let server = Server::bind(&config, registry, None).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let out = Command::new(env!("CARGO_BIN_EXE_serve-probe"))
        .arg(addr.to_string())
        .args(["--connections", "256"])
        .output()
        .expect("serve-probe runs");
    // Non-zero on a sampled connection that did not answer `pong` or a
    // burst cut short.
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    for field in ["\"connections\": 256,", "\"live_sampled\": 32,", "\"burst_queries\": 2000,"] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("32/32 sampled live"), "{stderr}");

    handle.stop();
    thread.join().unwrap();
}
