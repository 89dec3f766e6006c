//! The TCP server: bind, accept, drain — everything about a connection
//! except who waits on its socket (DESIGN.md §6.5, §10.4, §11).
//!
//! Thread mode gives each connection a thread running [`serve_session`] on
//! the blocking socket; epoll mode hands every socket to `reactor.rs`. Both
//! share one admission routine (`Server::accept_one`), one ledger of live
//! connections whose entries' `Drop` is the only decrement of
//! `connections_active`, one drain deadline, and one rule for which
//! session endings are logged.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grepair_store::{StoreRegistry, DEFAULT_NAMESPACE};
use grepair_util::args::{flag_value, flag_values, validate_value_flags};
use grepair_util::fail;
use grepair_util::sync::Mutex;

use crate::pool::WorkerPool;
use crate::session::{serve_session, SessionOpts, DEFAULT_BATCH, DEFAULT_MAX_LINE};
use crate::signal;

/// Default per-connection read timeout: generous enough for interactive
/// clients, finite so a slow-loris peer cannot park a session thread
/// forever.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(300);

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// Default deadline for a graceful drain: sessions still running this long
/// after `SHUTDOWN`/`SIGTERM` are abandoned (the process exits; the OS
/// closes their sockets).
pub const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Backoff before retrying a failed `accept(2)`, by consecutive-failure
/// count (1-based). Exponential from 10 ms, capped at 1 s: one transient
/// failure (aborted handshake) barely delays the next accept, while a
/// persistent one (fd exhaustion) stops the loop from spinning at 100%
/// CPU without ever giving up. Reset to zero by a successful accept.
pub fn accept_backoff(consecutive_failures: u32) -> Duration {
    let exp = consecutive_failures.saturating_sub(1).min(7);
    Duration::from_millis((10u64 << exp).min(1_000))
}

/// Which front end owns the client sockets (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// Thread-per-connection: each accepted socket gets a blocking session
    /// thread. Simple, portable, and the fallback everywhere.
    #[default]
    Threads,
    /// One epoll readiness loop owns every client socket; only the worker
    /// pool crunches queries, so the thread count stays flat no matter how
    /// many clients connect. Linux only.
    Epoll,
}

impl IoMode {
    /// Parse the `--io` flag value.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "threads" => Ok(Self::Threads),
            "epoll" => Ok(Self::Epoll),
            other => Err(format!("bad --io {other:?}: want epoll or threads")),
        }
    }
}

/// Everything `grepair-server` / `grepair store serve` can tune.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 asks the OS for an ephemeral port; the bound
    /// address is printed on startup (and available via
    /// [`Server::local_addr`]) so clients and CI can discover it.
    pub addr: String,
    /// Worker-pool size; 0 = one per available core.
    pub threads: usize,
    /// Per-session batch cap (lines buffered before a forced evaluation).
    pub batch: usize,
    /// Maximum accepted request-line length, bytes.
    pub max_line: usize,
    /// Per-connection socket read timeout; a session blocked in a read for
    /// longer is closed (its answered work is already flushed — the
    /// adaptive batcher never parks with pending replies). `None` disables
    /// the timeout (the pre-hygiene behavior; `--read-timeout 0`).
    pub read_timeout: Option<Duration>,
    /// Cap on concurrently served connections. A connection over the cap
    /// is answered with one `error:` line and closed, so an open-socket
    /// flood degrades into fast refusals instead of unbounded session
    /// threads.
    pub max_connections: usize,
    /// Worker-pool queue-depth watermark past which sessions shed their
    /// batches with `busy` replies; `0` disables shedding (DESIGN.md §10).
    pub shed_watermark: usize,
    /// How long a drain (`SHUTDOWN` / `SIGTERM`) waits for in-flight
    /// sessions before giving up on them.
    pub drain_deadline: Duration,
    /// Socket front end: thread-per-connection (default) or the epoll
    /// readiness loop (`--io epoll`, DESIGN.md §11).
    pub io: IoMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            batch: DEFAULT_BATCH,
            max_line: DEFAULT_MAX_LINE,
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            max_connections: DEFAULT_MAX_CONNECTIONS,
            shed_watermark: 0,
            drain_deadline: DEFAULT_DRAIN_DEADLINE,
            io: IoMode::default(),
        }
    }
}

/// A bound (but not yet running) server.
///
/// Fields are `pub(crate)` so the epoll reactor (`reactor.rs`) can drive
/// the same listener, registry, pool, ledger, and drain flag the
/// thread-per-connection loop uses — one server, two interchangeable
/// front ends.
#[derive(Debug)]
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) registry: Arc<StoreRegistry>,
    pub(crate) pool: Arc<WorkerPool>,
    pub(crate) opts: SessionOpts,
    pub(crate) read_timeout: Option<Duration>,
    max_connections: usize,
    drain_deadline: Duration,
    pub(crate) stop: Arc<AtomicBool>,
    /// Flipped by any session's `SHUTDOWN` (via [`SessionOpts::drain`]) or
    /// by `SIGTERM`; the drain watcher turns it into a stop + graceful
    /// wait (DESIGN.md §10).
    pub(crate) drain: Arc<AtomicBool>,
    connections: AtomicU64,
    ledger: Arc<Ledger>,
    io: IoMode,
}

/// Every live connection, in either io mode: one [`Entry`] each.
///
/// A thread-mode entry also files a clone of its socket here — the handle
/// a drain uses to shut down the read half of a session parked in a
/// blocking `read`, which then answers what it has and ends (DESIGN.md
/// §10.4). Reactor connections file none: the reactor owns their sockets
/// and closes them itself.
#[derive(Debug, Default)]
struct Ledger {
    active: AtomicU64,
    next_id: AtomicU64,
    readers: Mutex<HashMap<u64, TcpStream>>,
}

/// One live connection's place in the [`Ledger`]. Dropping it — however
/// the connection ends: EOF, transport error, refusal, a session thread
/// that never started, panic unwind, a reactor slot dropped — is the only
/// way `active` goes down.
#[derive(Debug)]
pub(crate) struct Entry {
    ledger: Arc<Ledger>,
    id: u64,
}

impl Ledger {
    /// Enter one connection; also returns how many were live before it.
    fn enter(self: &Arc<Self>) -> (Entry, u64) {
        let before = self.active.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        (Entry { ledger: Arc::clone(self), id }, before)
    }

    /// End the reads of every thread-mode session: a parked `read`
    /// returns EOF.
    fn shutdown_reads(&self) {
        for stream in self.readers.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

impl Entry {
    /// File a clone of a thread-mode session's socket for the drain.
    fn keep_reader(&self, stream: &TcpStream) -> std::io::Result<()> {
        let clone = stream.try_clone()?;
        self.ledger.readers.lock().insert(self.id, clone);
        Ok(())
    }
}

impl Drop for Entry {
    fn drop(&mut self) {
        self.ledger.readers.lock().remove(&self.id);
        self.ledger.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Log how a session ended, in either io mode. A clean end, the peer
/// vanishing mid-write (normal churn), and the read-timeout cutoff
/// (`WouldBlock` from Unix `SO_RCVTIMEO`, `TimedOut` elsewhere — a session
/// parks in `read` only once everything it read is answered) are silent;
/// anything else is worth a line.
pub(crate) fn log_session_end(peer: SocketAddr, result: std::io::Result<()>) {
    use std::io::ErrorKind::{BrokenPipe, TimedOut, WouldBlock};
    if let Err(e) = result {
        #[expect(
            clippy::print_stderr,
            reason = "operator log from both front ends; stderr is the server's log surface"
        )]
        if !matches!(e.kind(), BrokenPipe | WouldBlock | TimedOut) {
            eprintln!("session with {peer} ended: {e}");
        }
    }
}

/// Cheap handle for stopping a running server from another thread (tests,
/// signal handlers).
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the accept loop to exit. Idempotent; in-flight sessions finish
    /// on their own threads.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() the loop is parked in. A wildcard bind
        // address is not connectable on every platform — substitute
        // loopback on the same port. An error is fine either way — the
        // loop may already be gone.
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }
}

impl Server {
    /// Bind the listener and stand up the shared worker pool.
    ///
    /// `reload_path` is what a bare `RELOAD` (and `SIGHUP`) reloads —
    /// normally the `.g2g` path the registry was opened from.
    pub fn bind(
        config: &ServerConfig,
        registry: Arc<StoreRegistry>,
        reload_path: Option<String>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = Arc::new(WorkerPool::new(config.threads));
        pool.set_shed_watermark(config.shed_watermark);
        let drain = Arc::new(AtomicBool::new(false));
        Ok(Self {
            listener,
            registry,
            pool,
            opts: SessionOpts {
                batch: config.batch.max(1),
                max_line: config.max_line.max(1),
                reload_path,
                drain: Some(Arc::clone(&drain)),
            },
            read_timeout: config.read_timeout,
            max_connections: config.max_connections.max(1),
            drain_deadline: config.drain_deadline,
            stop: Arc::new(AtomicBool::new(false)),
            drain,
            connections: AtomicU64::new(0),
            ledger: Arc::default(),
            io: config.io,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections currently being served.
    pub fn connections_active(&self) -> u64 {
        self.ledger.active.load(Ordering::Relaxed)
    }

    /// A stop handle usable from other threads.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle { addr: self.local_addr()?, stop: Arc::clone(&self.stop) })
    }

    /// Install the `SIGHUP` → reload path: handler + watcher thread. The
    /// watcher reloads `reload_path` whenever a `SIGHUP` arrived since its
    /// last look (at most one reload per 200 ms; coalesced, never queued).
    /// Unix only; a no-op elsewhere. The socket `RELOAD` command is the
    /// portable equivalent.
    pub fn spawn_sighup_watcher(&self) {
        let Some(path) = self.opts.reload_path.clone() else { return };
        signal::install_hup_handler();
        let registry = Arc::clone(&self.registry);
        let stop = Arc::clone(&self.stop);
        #[expect(
            clippy::expect_used,
            reason = "boot-time spawn; failing to start the SIGHUP watcher is fatal by design"
        )]
        std::thread::Builder::new()
            .name("grepair-sighup".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(200));
                    if signal::take_hup() {
                        match registry.reload(DEFAULT_NAMESPACE, Some(&path)) {
                            #[expect(
                                clippy::print_stderr,
                                reason = "operator log from the reload watcher; stderr is the server's log surface"
                            )]
                            Ok(store) => eprintln!(
                                "SIGHUP: reloaded {path} as generation {}",
                                store.generation()
                            ),
                            #[expect(
                                clippy::print_stderr,
                                reason = "operator log from the reload watcher; stderr is the server's log surface"
                            )]
                            Err(e) => eprintln!("SIGHUP: reload of {path} failed: {e}"),
                        }
                    }
                }
            })
            .expect("spawn sighup watcher");
    }

    /// Accept connections until [`ServerHandle::stop`] is called or a
    /// drain begins (`SHUTDOWN` from any session, or `SIGTERM`). In thread
    /// mode each connection gets its own session thread; in epoll mode the
    /// reactor thread owns every socket. Either way batch evaluation runs on
    /// the shared pool, so the number of *query-crunching* threads stays
    /// fixed no matter how many clients connect.
    ///
    /// A drain is graceful (DESIGN.md §10.4): the listener stops accepting,
    /// every session answers what it has read and ends, and only once they
    /// all ended — or the drain deadline expired — does this return.
    pub fn run(&self) -> std::io::Result<()> {
        self.spawn_drain_watcher()?;
        match self.io {
            IoMode::Threads => {
                self.accept_loop();
                if self.drain.load(Ordering::Relaxed) {
                    self.await_drain();
                }
                Ok(())
            }
            // The reactor drains on its own thread: every connection lives
            // there, so it closes them itself.
            IoMode::Epoll => crate::reactor::run(self),
        }
    }

    /// Watch for a drain trigger — the shared flag (any session's
    /// `SHUTDOWN`) or a delivered `SIGTERM` — and turn it into an
    /// accept-loop stop. The thread exits with the server either way.
    fn spawn_drain_watcher(&self) -> std::io::Result<()> {
        signal::install_term_handler();
        let handle = self.handle()?;
        let drain = Arc::clone(&self.drain);
        std::thread::Builder::new()
            .name("grepair-drain".into())
            .spawn(move || loop {
                if signal::take_term() {
                    drain.store(true, Ordering::Relaxed);
                }
                if drain.load(Ordering::Relaxed) {
                    // stop() also unblocks the accept() the loop is
                    // parked in (self-connect).
                    handle.stop();
                    return;
                }
                if handle.stop.load(Ordering::Relaxed) {
                    return; // plain stop, no drain
                }
                std::thread::sleep(Duration::from_millis(25));
            })
            .map(|_| ())
    }

    /// A drain begins: log it and return its deadline.
    #[expect(
        clippy::print_stderr,
        reason = "operator log from the drain path; stderr is the server's log surface"
    )]
    pub(crate) fn begin_drain(&self) -> Instant {
        eprintln!("draining: {} active sessions", self.connections_active());
        Instant::now() + self.drain_deadline
    }

    /// Has the drain `deadline` passed? Logs the sessions it abandons.
    pub(crate) fn drain_overdue(&self, deadline: Instant) -> bool {
        let overdue = Instant::now() >= deadline;
        #[expect(
            clippy::print_stderr,
            reason = "operator log from the drain path; stderr is the server's log surface"
        )]
        if overdue {
            eprintln!(
                "drain deadline reached with {} sessions still active",
                self.connections_active()
            );
        }
        overdue
    }

    /// Thread mode's drain: end every session's reads, then wait for the
    /// ledger to empty, up to the deadline.
    fn await_drain(&self) {
        let deadline = self.begin_drain();
        self.ledger.shutdown_reads();
        while self.connections_active() > 0 && !self.drain_overdue(deadline) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// One turn of either accept loop: the one admission path. Accepts one
    /// socket (behind the `server.accept` failpoint), counts it, holds it
    /// to the connection cap — over it, one `error:` line and a close, so a
    /// flood degrades into fast refusals — and sets `TCP_NODELAY`
    /// (request/reply over one stream: latency over coalescing).
    ///
    /// `Ok(Some(..))` is an admitted connection with its ledger entry;
    /// `Ok(None)` a refusal, or the stop wake-up (not counted). `Err`
    /// means nothing was accepted: `WouldBlock` from the reactor's
    /// non-blocking listener, or a failure — logged and backed off per
    /// [`accept_backoff`], unless the server is stopping.
    pub(crate) fn accept_one(
        &self,
        failures: &mut u32,
    ) -> std::io::Result<Option<(TcpStream, SocketAddr, Entry)>> {
        let accepted = fail::point("server.accept")
            .map_err(std::io::Error::other)
            .and_then(|()| self.listener.accept());
        let (mut stream, peer) = match accepted {
            Ok(accepted) => accepted,
            Err(e) => {
                let idle = e.kind() == std::io::ErrorKind::WouldBlock;
                #[expect(
                    clippy::print_stderr,
                    reason = "operator log from the accept path; stderr is the server's log surface"
                )]
                if !idle && !self.stop.load(Ordering::Relaxed) {
                    *failures = failures.saturating_add(1);
                    eprintln!("accept failed: {e}");
                    std::thread::sleep(accept_backoff(*failures));
                }
                return Err(e);
            }
        };
        *failures = 0;
        if self.stop.load(Ordering::Relaxed) {
            return Ok(None);
        }
        self.connections.fetch_add(1, Ordering::Relaxed);
        // Only the accepting thread enters the ledger, so `before` is exact.
        let (entry, before) = self.ledger.enter();
        #[expect(
            clippy::print_stderr,
            reason = "operator log from the accept path; stderr is the server's log surface"
        )]
        if before as usize >= self.max_connections {
            let _ = writeln!(
                stream,
                "error: connection limit reached ({} active)",
                self.max_connections
            );
            eprintln!("refusing {peer}: connection limit reached");
            return Ok(None);
        }
        let _ = stream.set_nodelay(true);
        Ok(Some((stream, peer, entry)))
    }

    /// Thread mode: one session thread per admitted connection, running
    /// [`serve_session`] on the blocking socket.
    fn accept_loop(&self) {
        let mut failures = 0u32;
        loop {
            let accepted = self.accept_one(&mut failures);
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let Ok(Some((stream, peer, entry))) = accepted else { continue };
            let registry = Arc::clone(&self.registry);
            let pool = Arc::clone(&self.pool);
            let opts = self.opts.clone();
            let read_timeout = self.read_timeout;
            let started = entry.keep_reader(&stream).and_then(|()| {
                std::thread::Builder::new().name("grepair-session".into()).spawn(move || {
                    // Locals drop in reverse: the socket closes (the peer
                    // reads EOF) before the entry leaves the ledger.
                    let _entry = entry;
                    let stream = stream;
                    let served = stream.set_read_timeout(read_timeout).and_then(|()| {
                        serve_session(&registry, &pool, &mut &stream, &mut &stream, &opts)
                    });
                    log_session_end(peer, served.map(drop));
                })
            });
            #[expect(
                clippy::print_stderr,
                reason = "operator log from the accept loop; stderr is the server's log surface"
            )]
            if let Err(e) = started {
                // Fd or thread exhaustion (a connection flood) refuses this
                // one connection — it drops closed with its entry — but
                // must not take the server down.
                eprintln!("refusing {peer}: cannot start a session thread: {e}");
            }
        }
    }
}

/// Validate the requested `--io` mode against the platform. The epoll
/// reactor is built directly on `epoll(7)`, a Linux-only API; everywhere
/// else the rejection names the portable `--io threads` fallback so the
/// operator reading the error knows exactly which flag value still works.
/// Split from `run_cli` (with the platform passed in) so the non-Linux
/// branch stays unit-testable from a Linux CI runner.
fn check_io_support(io: IoMode, linux: bool) -> Result<(), String> {
    if io == IoMode::Epoll && !linux {
        return Err(
            "--io epoll is unavailable on this platform (the reactor needs Linux epoll(7)); \
             use --io threads, the portable thread-per-connection front end"
                .into(),
        );
    }
    Ok(())
}

/// The multi-tenant argv surface shared by `grepair-server`,
/// `grepair store serve`, and `grepair store serve-file` (DESIGN.md §8):
/// every `--attach NAME=PATH` registers a *cold* namespace (the container
/// is opened on its first query), and `--memory-budget BYTES` caps the
/// resident container bytes with LRU eviction. Applying the flags to the
/// registry here keeps the socket and file front ends byte-identical on
/// the same input, flags included.
pub fn apply_tenancy_flags(registry: &StoreRegistry, flags: &[String]) -> Result<(), String> {
    for spec in flag_values(flags, "--attach") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --attach {spec:?}: want NAME=PATH"))?;
        registry
            .attach_cold(name, path)
            .map_err(|e| format!("--attach {name}: {e}"))?;
    }
    if let Some(raw) = flag_value(flags, "--memory-budget") {
        let bytes: u64 = raw.parse().map_err(|e| format!("bad --memory-budget: {e}"))?;
        registry.set_budget(Some(bytes));
    }
    Ok(())
}

/// Shared argv front end for the `grepair-server` binary and
/// `grepair store serve`:
/// `<g2g> [--addr HOST:PORT] [--threads N] [--batch N] [--max-line N]
/// [--read-timeout SECS] [--max-connections N]
/// [--attach NAME=PATH]... [--memory-budget BYTES]
/// [--shed-watermark N] [--drain-deadline SECS] [--io epoll|threads]
/// [--failpoints SPECS] [--fail-seed N]`.
///
/// `--read-timeout 0` disables the idle cutoff. The positional container
/// becomes the `default` namespace; each `--attach` adds a cold tenant.
/// `--failpoints` / `--fail-seed` (and their `GREPAIR_FAILPOINTS` /
/// `GREPAIR_FAIL_SEED` env twins) error unless the build has the `fail`
/// feature. Prints one `listening ...` line to stdout once bound (CI and
/// scripts parse the ephemeral port out of it), then serves until killed
/// or drained.
pub fn run_cli(args: &[String]) -> Result<(), String> {
    let g2g = args.first().ok_or("missing g2g file")?;
    #[expect(
        clippy::indexing_slicing,
        reason = "args.first() returned Some just above, so args is non-empty"
    )]
    let flags = &args[1..];
    validate_value_flags(
        flags,
        &[
            "--addr",
            "--threads",
            "--batch",
            "--max-line",
            "--read-timeout",
            "--max-connections",
            "--attach",
            "--memory-budget",
            "--shed-watermark",
            "--drain-deadline",
            "--io",
            "--failpoints",
            "--fail-seed",
        ],
    )?;
    fail::init_from_env()?;
    if let Some(seed) = flag_value(flags, "--fail-seed") {
        let seed: u64 = seed.parse().map_err(|e| format!("bad --fail-seed: {e}"))?;
        if !fail::enabled() {
            return Err(format!("--fail-seed: {}", fail::DISABLED));
        }
        fail::set_seed(seed);
    }
    if let Some(specs) = flag_value(flags, "--failpoints") {
        fail::configure_list(&specs).map_err(|e| format!("bad --failpoints: {e}"))?;
    }
    let mut config = ServerConfig::default();
    if let Some(addr) = flag_value(flags, "--addr") {
        config.addr = addr;
    }
    if let Some(raw) = flag_value(flags, "--threads") {
        config.threads = raw.parse().map_err(|e| format!("bad --threads: {e}"))?;
    }
    if let Some(raw) = flag_value(flags, "--batch") {
        config.batch = raw.parse().map_err(|e| format!("bad --batch: {e}"))?;
        if config.batch == 0 {
            return Err("--batch must be at least 1".into());
        }
    }
    if let Some(raw) = flag_value(flags, "--max-line") {
        config.max_line = raw.parse().map_err(|e| format!("bad --max-line: {e}"))?;
        if config.max_line == 0 {
            return Err("--max-line must be at least 1".into());
        }
    }
    if let Some(raw) = flag_value(flags, "--read-timeout") {
        let secs: u64 = raw.parse().map_err(|e| format!("bad --read-timeout: {e}"))?;
        config.read_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    if let Some(raw) = flag_value(flags, "--max-connections") {
        config.max_connections =
            raw.parse().map_err(|e| format!("bad --max-connections: {e}"))?;
        if config.max_connections == 0 {
            return Err("--max-connections must be at least 1".into());
        }
    }
    if let Some(raw) = flag_value(flags, "--shed-watermark") {
        config.shed_watermark =
            raw.parse().map_err(|e| format!("bad --shed-watermark: {e}"))?;
    }
    if let Some(raw) = flag_value(flags, "--drain-deadline") {
        let secs: u64 = raw.parse().map_err(|e| format!("bad --drain-deadline: {e}"))?;
        config.drain_deadline = Duration::from_secs(secs);
    }
    if let Some(raw) = flag_value(flags, "--io") {
        config.io = IoMode::parse(&raw)?;
        check_io_support(config.io, cfg!(target_os = "linux"))?;
    }

    let registry = Arc::new(StoreRegistry::open(g2g).map_err(|e| match e {
        grepair_store::GrepairError::Io { .. } => e.to_string(),
        other => format!("{g2g}: {other}"),
    })?);
    apply_tenancy_flags(&registry, flags)?;
    let server = Server::bind(&config, Arc::clone(&registry), Some(g2g.clone()))
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let store = registry.store(DEFAULT_NAMESPACE).map_err(|e| e.to_string())?;
    #[expect(
        clippy::print_stdout,
        reason = "documented contract: scripts parse the listening line off stdout"
    )]
    {
        println!(
            "listening {addr} proto={} namespaces={} generation={} nodes={} backend=grepair",
            crate::session::PROTO_VERSION,
            registry.list().len(),
            store.generation(),
            store.total_nodes(),
        );
    }
    // The line above is the machine-readable startup handshake — make sure
    // it is visible before the first connection, even under pipes.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.spawn_sighup_watcher();
    server.run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_rejects_bad_flags() {
        assert!(run_cli(&args(&[])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--frobnicate", "1"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--threads"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--threads", "many"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--batch", "0"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--max-line", "0"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--read-timeout", "soon"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--max-connections", "0"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--max-connections", "lots"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--shed-watermark", "deep"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--drain-deadline", "soon"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--io", "uring"])).is_err());
        assert!(run_cli(&args(&["x.g2g", "--fail-seed", "x"])).is_err());
        // Without the `fail` feature the failpoint flags error loudly; with
        // it, a malformed spec still must.
        assert!(run_cli(&args(&["x.g2g", "--failpoints", "noequals"])).is_err());
        if !fail::enabled() {
            let err =
                run_cli(&args(&["x.g2g", "--fail-seed", "7"])).unwrap_err();
            assert!(err.contains("compiled out"), "{err}");
        }
        // A good flag set still fails cleanly on a missing store file.
        let err = run_cli(&args(&["/nonexistent/x.g2g", "--threads", "2"])).unwrap_err();
        assert!(err.contains("/nonexistent/x.g2g"), "{err}");
    }

    #[test]
    fn tenancy_flags_register_cold_tenants_and_set_the_budget() {
        use grepair_core::{compress, GRePairConfig};
        use grepair_hypergraph::Hypergraph;
        use grepair_store::{write_container, GraphStore};
        let (g, _) = Hypergraph::from_simple_edges(5, (0..4u32).map(|i| (i, 0u32, i + 1)));
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        let registry = StoreRegistry::new(
            GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap(),
        );
        // Cold attach records paths without touching the disk; the budget
        // is applied immediately.
        apply_tenancy_flags(
            &registry,
            &args(&["--attach", "a=/no/such/a.g2g", "--attach", "b=/no/such/b.g2g",
                    "--memory-budget", "1024"]),
        )
        .unwrap();
        assert!(registry.contains("a") && registry.contains("b"));
        assert_eq!(registry.budget(), Some(1024));
        assert_eq!(registry.resident_count(), 1, "cold tenants stay cold");
        // Malformed specs and duplicate names are usage errors.
        assert!(apply_tenancy_flags(&registry, &args(&["--attach", "noequals"])).is_err());
        assert!(apply_tenancy_flags(&registry, &args(&["--attach", "a=/again.g2g"])).is_err());
        assert!(apply_tenancy_flags(&registry, &args(&["--memory-budget", "lots"])).is_err());
    }

    #[test]
    fn config_defaults_are_safe() {
        let config = ServerConfig::default();
        assert_eq!(config.addr, "127.0.0.1:0", "ephemeral loopback by default");
        assert_eq!(config.batch, DEFAULT_BATCH);
        assert_eq!(config.max_line, DEFAULT_MAX_LINE);
        // Connection hygiene is on by default: finite idle timeout, finite
        // concurrent-connection cap.
        assert_eq!(config.read_timeout, Some(DEFAULT_READ_TIMEOUT));
        assert_eq!(config.max_connections, DEFAULT_MAX_CONNECTIONS);
        // Shedding is opt-in; a drain waits a finite default.
        assert_eq!(config.shed_watermark, 0);
        assert_eq!(config.drain_deadline, DEFAULT_DRAIN_DEADLINE);
        // Thread-per-connection stays the portable default front end.
        assert_eq!(config.io, IoMode::Threads);
    }

    #[test]
    fn io_mode_parses_both_names_and_rejects_others() {
        assert_eq!(IoMode::parse("threads"), Ok(IoMode::Threads));
        assert_eq!(IoMode::parse("epoll"), Ok(IoMode::Epoll));
        assert!(IoMode::parse("uring").is_err());
        assert!(IoMode::parse("Epoll").is_err(), "flag values are case-sensitive");
    }

    #[test]
    fn epoll_rejection_off_linux_names_the_threads_fallback() {
        // Threads is fine everywhere; epoll is fine only on Linux.
        assert_eq!(check_io_support(IoMode::Threads, true), Ok(()));
        assert_eq!(check_io_support(IoMode::Threads, false), Ok(()));
        assert_eq!(check_io_support(IoMode::Epoll, true), Ok(()));
        // The rejection must tell the operator what *does* work: the
        // portable `--io threads` front end, by its literal flag value.
        let err = check_io_support(IoMode::Epoll, false).unwrap_err();
        assert!(err.contains("--io threads"), "{err}");
        assert!(err.contains("epoll"), "{err}");
    }

    #[test]
    fn accept_backoff_schedule_doubles_to_a_cap_and_resets() {
        let schedule: Vec<u64> =
            (1..=9).map(|n| accept_backoff(n).as_millis() as u64).collect();
        assert_eq!(schedule, [10, 20, 40, 80, 160, 320, 640, 1_000, 1_000]);
        // "Reset" is the caller handing back failure count 1 — which must
        // land at the bottom of the ladder again, even after saturation.
        assert_eq!(accept_backoff(1), Duration::from_millis(10));
        assert_eq!(accept_backoff(u32::MAX), Duration::from_millis(1_000));
        assert_eq!(accept_backoff(0), Duration::from_millis(10), "0 is clamped, not panicking");
    }
}
