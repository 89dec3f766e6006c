//! `grepair-server` — serve compressed graph containers over TCP.
//!
//! ```text
//! grepair-server <in.g2g> [--addr HOST:PORT] [--threads N] [--batch N] [--max-line N]
//!                [--attach NAME=PATH]... [--memory-budget BYTES]
//! ```
//!
//! Binds (default `127.0.0.1:0` — an OS-assigned ephemeral port), prints
//! one `listening <addr> proto=... namespaces=... generation=...` line to
//! stdout, and serves the wire protocol of DESIGN.md §6/§8 until killed.
//! The positional container is the `default` namespace; every `--attach`
//! registers a further tenant that is opened lazily on its first query,
//! and `--memory-budget` caps resident container bytes with LRU eviction.
//! `SIGHUP` (or the `RELOAD` admin command) hot-swaps a freshly loaded
//! copy of a namespace's container in without dropping connections. The
//! same serving loop is reachable as `grepair store serve`;
//! `grepair store serve-file` remains the socket-free offline path.

#![forbid(unsafe_code)]

use std::process::ExitCode;

const USAGE: &str = "usage:
  grepair-server <in.g2g> [--addr HOST:PORT] [--threads N] [--batch N] [--max-line N]
                 [--attach NAME=PATH]... [--memory-budget BYTES] [--io epoll|threads]

  --addr           bind address (default 127.0.0.1:0 — ephemeral port, printed on stdout)
  --threads        worker-pool size (default 0 = one per core)
  --batch          per-connection batch cap in lines (default 1024)
  --max-line       longest accepted request line in bytes (default 65536)
  --attach         register another namespace (repeatable; opened on first query)
  --memory-budget  resident container-byte cap; least-recently-hit stores evict
  --io             socket front end: threads (default, one session thread per
                   connection) or epoll (one readiness loop, flat thread count;
                   linux only)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match grepair_server::run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
