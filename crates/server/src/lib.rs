//! gRePair as a network service: a TCP front end over
//! [`grepair_store::GraphStore`].
//!
//! The paper's §V payoff — neighborhood, reachability, and path queries
//! answered *on the compressed grammar* — only pays off operationally when
//! clients can reach the index over a long-lived connection. This crate is
//! that front end:
//!
//! * **Wire protocol** — the same newline-delimited text protocol
//!   `grepair store serve-file` speaks (one query per line, one reply line
//!   back, per-line errors keep the connection serving), extended with an
//!   upper-case admin plane (`PING` / `INFO` / `STATS [name]` / `USE` /
//!   `ATTACH` / `DETACH` / `LIST` / `RELOAD` / `QUIT`). Versioned and
//!   fully specified in DESIGN.md §6 and §8; `crates/cli/tests/cli.rs`
//!   asserts the socket and the file answer byte-identically.
//! * **Multi-tenant hosting** — one server hosts many namespaces
//!   (`USE <name>` per session, `name:` prefixes per line), each a
//!   container attached eagerly over the wire (`ATTACH`) or lazily at
//!   startup (`--attach NAME=PATH`), with per-namespace hot reload and LRU
//!   eviction under `--memory-budget` (DESIGN.md §8).
//! * **Reusable worker pool** — [`WorkerPool`] keeps a fixed set of
//!   resident threads fed through a channel and plugs into
//!   [`GraphStore::render_batch_on`](grepair_store::GraphStore::render_batch_on)
//!   as a [`grepair_store::BatchExecutor`], so a connection's request batch
//!   fans out across reused threads instead of paying a per-batch
//!   `thread::spawn` (the PR-3 spawn-cost note).
//! * **Hot reload** — all sessions resolve stores through one
//!   [`grepair_store::StoreRegistry`]; the `RELOAD` admin command (or
//!   `SIGHUP` for the default namespace) swaps in a freshly loaded
//!   container while in-flight batches finish on the old `Arc`, bumping
//!   that namespace's monotonic generation echoed by `STATS`/`INFO`.
//!
//! Serving topology: one [`Server`] owns the listener, admits every
//! connection through one path and counts it in one ledger; what differs
//! by [`IoMode`] is only who waits on the sockets — a thread per
//! connection running [`serve_session`], or one epoll reactor for all of
//! them. Both drive the same connection engine (framing, protocol, reply
//! buffer), the one `store serve-file` drives through [`serve_session`]
//! too (DESIGN.md §11.2); every session shares the one registry and the
//! one pool. The embedded, no-socket version of the same pattern is
//! `examples/serving.rs` at the repository root.
//!
//! ```no_run
//! use std::sync::Arc;
//! use grepair_server::{Server, ServerConfig};
//! use grepair_store::StoreRegistry;
//!
//! let registry = Arc::new(StoreRegistry::open("graph.g2g").unwrap());
//! let server = Server::bind(
//!     &ServerConfig::default(), // 127.0.0.1, ephemeral port, pooled cores
//!     Arc::clone(&registry),
//!     Some("graph.g2g".into()), // what a bare RELOAD / SIGHUP reloads
//! )
//! .unwrap();
//! println!("serving on {}", server.local_addr().unwrap());
//! server.run().unwrap();
//! ```

// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]
// The zero-panic boundary (DESIGN.md §2, §9.1): this crate reads untrusted
// bytes, so every panic path carries an `#[expect(…, reason)]` audit.
#![deny(
    clippy::allow_attributes_without_reason,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]
// Every `unsafe` block says why it is sound in a `// SAFETY:` comment.
#![deny(clippy::undocumented_unsafe_blocks)]

mod conn;
mod pool;
mod reactor;
mod server;
mod session;
mod signal;

pub use pool::{WorkerPool, MAX_POOL_THREADS};
pub use server::{
    apply_tenancy_flags, run_cli, IoMode, Server, ServerConfig, ServerHandle,
    DEFAULT_MAX_CONNECTIONS, DEFAULT_READ_TIMEOUT,
};
pub use session::{
    serve_session, SessionOpts, SessionSummary, DEFAULT_BATCH, DEFAULT_MAX_LINE, PROTO_VERSION,
};
