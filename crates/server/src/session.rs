//! One connection's lifetime: the newline-delimited wire protocol engine
//! (DESIGN.md §6, multi-tenant addressing in §8).
//!
//! The query plane is exactly the `store serve-file` line protocol — one
//! query per line, one reply line back, per-line errors never close the
//! connection — so the socket and the file are byte-identical on the same
//! input (`crates/cli/tests/cli.rs` diffs them). A query line may carry a
//! one-shot `name:` namespace prefix; unprefixed lines go to the session's
//! current namespace (`default` until a `USE`). On top sits the admin
//! plane: upper-case verbs (`PING`, `INFO`, `STATS [name]`, `USE`, `ATTACH`,
//! `DETACH`, `LIST`, `RELOAD`, `PATCH`, `VERSIONS [name]`, `FAULTS`,
//! `SHUTDOWN`, `QUIT`) that a query file can never collide with, because
//! query verbs are lower-case.
//!
//! Versioning (DESIGN.md §12) rides both planes: `PATCH ADD|DEL <s> <l>
//! <t>` applies one edge patch to the session's namespace (a new retained
//! version, generation bump included), `VERSIONS` lists the retained
//! versions, and any query line may end with an `@vN` suffix pinning its
//! evaluation to retained version `N` while bare lines track the head.
//!
//! Overload and faults degrade per line, never per connection
//! (DESIGN.md §10): when the shared pool is past its shed watermark the
//! pending batch is answered with `busy` lines instead of queueing deeper,
//! and a namespace whose circuit breaker is open answers fast
//! `error: unavailable:` lines while healthy namespaces in the same batch
//! serve normally. `SHUTDOWN` flips the server's drain flag, replies
//! `draining`, and ends the session.
//!
//! Batching is adaptive: the lines of one read are parsed and buffered,
//! and the pending batch is evaluated (through the shared [`WorkerPool`]
//! for large batches) once they are used up — so an interactive `nc`
//! session gets an answer per line while a pipelined client gets amortized
//! batches, without any flush command in the protocol. A mixed-namespace
//! batch is grouped per namespace (one store snapshot each) and the
//! replies are written back in input order.
//!
//! Framing — bytes into lines, the `--max-line` rule, EOF and `QUIT` — is
//! `conn.rs`'s, shared by [`serve_session`] and the epoll reactor; this
//! module is what a complete line means.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use grepair_store::{
    error_reply, parse_query, valid_namespace, EdgePatch, GrepairError, Query, StoreRegistry,
    DEFAULT_NAMESPACE,
};
use grepair_util::fail;

use crate::conn::{Conn, READ_CHUNK};
use crate::pool::WorkerPool;

/// Wire protocol version, echoed by `INFO`. Bumped only for *breaking*
/// changes (a reply rendering change, a verb repurposed); new verbs and new
/// `INFO`/`STATS` fields are additive and do not bump it. Version 2 was the
/// multi-tenant protocol (DESIGN.md §8): `INFO` gained a `namespace=`
/// field and bare `STATS` now renders the registry aggregate. Version 3 is
/// the versioning protocol (DESIGN.md §12): query-line parsing changed —
/// an `@vN` suffix now pins a line to a retained version, where v2 passed
/// the `@` through to the query parser — and `PATCH`/`VERSIONS` joined the
/// admin plane.
pub const PROTO_VERSION: u32 = 3;

/// Default cap on buffered-but-unanswered lines before a forced evaluation.
pub const DEFAULT_BATCH: usize = 1024;

/// Default cap on one request line, bytes. A line longer than this is
/// answered with an error and discarded — DoS defense, not a format limit.
pub const DEFAULT_MAX_LINE: usize = 64 * 1024;

/// Batches smaller than this are answered on the session thread itself:
/// below it, the channel round-trip to the pool costs more than the
/// queries.
const INLINE_BATCH: usize = 16;

/// Per-session tunables, shared by every connection of one server.
#[derive(Debug, Clone)]
pub struct SessionOpts {
    /// Evaluate the pending batch at this many lines even if the client
    /// keeps streaming.
    pub batch: usize,
    /// Maximum accepted line length in bytes.
    pub max_line: usize,
    /// What a bare `RELOAD` of the *default* namespace reloads when the
    /// registry has no recorded path for it (the path the server was
    /// started from); `None` leaves only the registry's own records.
    pub reload_path: Option<String>,
    /// Set by a `SHUTDOWN` verb (any session) or SIGTERM; the socket server
    /// watches it to stop accepting and drain (DESIGN.md §10.4).
    /// [`serve_session`] also checks it between reads so a streaming client
    /// cannot hold the drain open. `None` (serve-file, tests) means
    /// `SHUTDOWN` only ends the issuing session.
    pub drain: Option<Arc<AtomicBool>>,
}

impl Default for SessionOpts {
    fn default() -> Self {
        Self { batch: DEFAULT_BATCH, max_line: DEFAULT_MAX_LINE, reload_path: None, drain: None }
    }
}

/// What one finished session did (for the server's connection log).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Reply lines written (answers + error lines).
    pub served: u64,
    /// How many of those were error lines.
    pub errors: u64,
    /// Successful `RELOAD`s performed by this session.
    pub reloads: u64,
    /// Lines answered `busy` because the pool was past its shed watermark.
    pub sheds: u64,
}

/// The admin plane: upper-case verbs, handled out-of-band of the query
/// batch (but only after the pending batch is answered, so replies stay in
/// request order).
enum Admin {
    Ping,
    Info,
    /// Bare `STATS` (registry aggregate) or `STATS <name>` (one store).
    Stats(Option<String>),
    Reload(Option<String>),
    /// Switch the session's current namespace.
    Use(String),
    /// Register a container file under a namespace, eagerly opened.
    Attach { name: String, path: String },
    /// Unregister a namespace.
    Detach(String),
    /// One-line listing of every namespace with residency and generation.
    List,
    /// Apply one edge patch to the session's namespace: `PATCH ADD|DEL
    /// <s> <label> <t>` (DESIGN.md §12). Arity and operand validity are
    /// checked by the shared patch-line parser in `handle_admin`.
    Patch(Vec<String>),
    /// `VERSIONS` (session namespace) or `VERSIONS <name>`: list the
    /// retained versions of a namespace's patch log.
    Versions(Option<String>),
    /// Inspect or reconfigure the failpoint layer (`FAULTS`,
    /// `FAULTS SET <name> <spec>`, `FAULTS CLEAR [name]`,
    /// `FAULTS SEED <n>`). Errors when the `fail` feature is compiled out.
    Faults(Vec<String>),
    /// Flip the drain flag, reply `draining`, end the session.
    Shutdown,
    Quit,
}

/// `Some` iff the line's first token is an admin verb. Malformed admin
/// lines (wrong arity) are still admin — they get an admin error reply,
/// not a query parse error.
fn parse_admin(line: &str) -> Option<Result<Admin, String>> {
    let mut it = line.split_whitespace();
    let verb = it.next()?;
    let no_args = |admin: Admin, mut rest: std::str::SplitWhitespace<'_>| match rest.next() {
        None => Ok(admin),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    };
    let one_arg = |build: fn(String) -> Admin,
                   what: &str,
                   mut rest: std::str::SplitWhitespace<'_>| {
        let Some(arg) = rest.next() else {
            return Err(format!("{what} needs an argument"));
        };
        match rest.next() {
            None => Ok(build(arg.to_string())),
            Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
        }
    };
    Some(match verb {
        "PING" => no_args(Admin::Ping, it),
        "INFO" => no_args(Admin::Info, it),
        "LIST" => no_args(Admin::List, it),
        "QUIT" => no_args(Admin::Quit, it),
        "SHUTDOWN" => no_args(Admin::Shutdown, it),
        // Arity is checked per subcommand in `handle_faults`.
        "FAULTS" => Ok(Admin::Faults(it.map(str::to_string).collect())),
        // Arity and operands are checked by the shared patch-line parser.
        "PATCH" => Ok(Admin::Patch(it.map(str::to_string).collect())),
        "VERSIONS" => {
            let name = it.next().map(str::to_string);
            match it.next() {
                None => Ok(Admin::Versions(name)),
                Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
            }
        }
        "USE" => one_arg(Admin::Use, "USE", it),
        "DETACH" => one_arg(Admin::Detach, "DETACH", it),
        "STATS" => {
            let name = it.next().map(str::to_string);
            match it.next() {
                None => Ok(Admin::Stats(name)),
                Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
            }
        }
        "ATTACH" => {
            let (name, path) = match (it.next(), it.next()) {
                (Some(name), Some(path)) => (name.to_string(), path.to_string()),
                _ => return Some(Err("ATTACH needs a name and a path".into())),
            };
            match it.next() {
                None => Ok(Admin::Attach { name, path }),
                Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
            }
        }
        "RELOAD" => {
            let path = it.next().map(str::to_string);
            match it.next() {
                None => Ok(Admin::Reload(path)),
                Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
            }
        }
        _ => return None,
    })
}

/// One buffered query line: the namespace it was addressed to (the
/// session's current one, or a one-shot `name:` prefix), the retained
/// version it was pinned to (`Some` iff the line carried an `@vN` suffix;
/// `None` tracks the head), and its parse outcome.
type Pending = (String, Option<u64>, Result<Query, GrepairError>);

/// Split a trailing `@vN` version pin off a query line (DESIGN.md §12).
/// `@` cannot appear in a valid query (ids and labels are decimal,
/// patterns use label numbers and operators), so any line containing one
/// is a pin attempt: a malformed pin is an error, not query text.
fn split_version(text: &str) -> Result<(&str, Option<u64>), GrepairError> {
    let Some((head, tail)) = text.rsplit_once('@') else {
        return Ok((text, None));
    };
    let version = tail
        .trim()
        .strip_prefix('v')
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| {
            GrepairError::BadRequest(format!("bad version suffix {:?} (want @vN)", format!("@{}", tail.trim())))
        })?;
    Ok((head.trim_end(), Some(version)))
}

/// What handling one complete line asks the driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Keep feeding lines.
    Continue,
    /// `QUIT`/`SHUTDOWN` was answered — end the session; any input after
    /// it is never served.
    Quit,
}

/// The per-connection protocol state machine: the current namespace, the
/// pending batch, and the summary. `conn.rs`'s `Conn` frames bytes into
/// lines, feeds them here and decides when the batch is evaluated; every
/// front end drives that one `Conn` (DESIGN.md §11.2).
#[derive(Debug)]
pub(crate) struct SessionState {
    namespace: String,
    pending: Vec<Pending>,
    pub(crate) summary: SessionSummary,
}

impl SessionState {
    pub(crate) fn new() -> Self {
        Self {
            namespace: DEFAULT_NAMESPACE.to_string(),
            pending: Vec::new(),
            summary: SessionSummary::default(),
        }
    }

    /// Lines buffered but not yet answered.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Record one line that exceeded `max_line`: an error *reply* queued in
    /// request order; the driver has already discarded the line's bytes.
    pub(crate) fn push_oversized(&mut self, max_line: usize) {
        self.pending.push((
            self.namespace.clone(),
            None,
            Err(GrepairError::BadRequest(format!("line exceeds {max_line} bytes"))),
        ));
    }

    /// Feed one complete line (terminator and any trailing `\r` already
    /// stripped). Admin verbs are answered immediately (after flushing the
    /// pending batch, so replies stay in request order); query lines are
    /// buffered into the pending batch for the driver to flush.
    pub(crate) fn on_line(
        &mut self,
        registry: &StoreRegistry,
        pool: &WorkerPool,
        line: &[u8],
        writer: &mut impl Write,
        opts: &SessionOpts,
    ) -> std::io::Result<Step> {
        let Ok(text) = std::str::from_utf8(line) else {
            self.pending.push((
                self.namespace.clone(),
                None,
                Err(GrepairError::BadRequest("line is not valid UTF-8".into())),
            ));
            return Ok(Step::Continue);
        };
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            // Skipped without a reply — exactly like serve-file, which
            // keeps the front ends byte-identical.
            return Ok(Step::Continue);
        }
        if let Some(admin) = parse_admin(text) {
            // Answer everything that came before the admin command first:
            // replies stay in request order, and a RELOAD cannot
            // retroactively change them.
            self.flush(registry, pool, writer)?;
            let quit = matches!(admin, Ok(Admin::Quit) | Ok(Admin::Shutdown));
            let reply = handle_admin(registry, admin, opts, &mut self.namespace, &mut self.summary);
            self.summary.served += 1;
            if reply.starts_with("error: ") {
                self.summary.errors += 1;
            }
            fail::point("session.write").map_err(std::io::Error::other)?;
            writeln!(writer, "{reply}")?;
            writer.flush()?;
            return Ok(if quit { Step::Quit } else { Step::Continue });
        }
        // A `name:` prefix addresses one line at another namespace;
        // anything else (including a `:` deeper in the line after a
        // non-name prefix) parses as a plain query against the session's
        // namespace.
        let (target, query_text) = match text.split_once(':') {
            Some((prefix, rest)) if valid_namespace(prefix) => {
                (prefix.to_string(), rest.trim_start())
            }
            _ => (self.namespace.clone(), text),
        };
        // An `@vN` suffix pins this line to a retained version; a
        // malformed pin is the line's reply, the rest never parses.
        match split_version(query_text) {
            Ok((query_text, version)) => {
                self.pending.push((target, version, parse_query(query_text)));
            }
            Err(e) => self.pending.push((target, None, Err(e))),
        }
        Ok(Step::Continue)
    }

    /// Evaluate the pending batch and write one reply line each, in input
    /// order (see [`flush_pending`]). Does not flush the writer — the
    /// driver decides when buffered replies hit the transport.
    pub(crate) fn flush(
        &mut self,
        registry: &StoreRegistry,
        pool: &WorkerPool,
        writer: &mut impl Write,
    ) -> std::io::Result<()> {
        flush_pending(registry, pool, &mut self.pending, writer, &mut self.summary)
    }
}

/// Serve one connection (or any byte stream) to completion.
///
/// `reader` / `writer` are the two halves of the connection — a thread-mode
/// socket, `store serve-file`'s query file and stdout, an in-memory slice.
/// Each turn is one `read` into a buffer this function owns, framed and
/// answered by the same engine the epoll reactor drives (DESIGN.md §11.2),
/// then one write of the replies it produced. Returns at EOF, after `QUIT`
/// or `SHUTDOWN`, or — between reads — once [`SessionOpts::drain`] is set.
/// Every failure mode below the transport — unparsable line, non-UTF-8
/// bytes, oversized line, out-of-range id, unknown namespace, failed reload
/// or attach — becomes an `error:` reply line and the session keeps
/// serving; only transport errors (the peer vanished) end it early.
pub fn serve_session(
    registry: &StoreRegistry,
    pool: &WorkerPool,
    reader: &mut impl Read,
    writer: &mut impl Write,
    opts: &SessionOpts,
) -> std::io::Result<SessionSummary> {
    let mut conn = Conn::new(registry, pool, opts);
    let mut buf = vec![0u8; READ_CHUNK];
    loop {
        // A fired `session.read` fault is a transport error: the peer is
        // treated as vanished, exactly like a real half-open TCP drop.
        fail::point("session.read").map_err(std::io::Error::other)?;
        conn.read_from(reader, &mut buf)?;
        // A draining server ends the session once what it read is
        // answered: a streaming client cannot hold the drain open.
        if opts.drain.as_ref().is_some_and(|d| d.load(Ordering::Relaxed)) {
            conn.close()?;
        }
        conn.write_to(writer)?;
        writer.flush()?;
        if conn.closing() {
            return Ok(conn.summary());
        }
    }
}

/// Evaluate the pending lines and write one reply line each, in input
/// order. The batch is grouped per (namespace, version pin): each group
/// is resolved once (lazily opening a cold store — that resolution *is*
/// the namespace's hit; pinned lines resolve through the patch log) and
/// its queries are evaluated against that one snapshot, so a concurrent
/// RELOAD, PATCH, or eviction never tears a batch across generations. A
/// group that fails to resolve (unknown namespace or version, hostile
/// file) turns into per-line error replies; the other groups' lines are
/// unaffected.
fn flush_pending(
    registry: &StoreRegistry,
    pool: &WorkerPool,
    pending: &mut Vec<Pending>,
    writer: &mut impl Write,
    summary: &mut SessionSummary,
) -> std::io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    // Load shedding (DESIGN.md §10): past the pool's queue-depth watermark
    // (or under an injected `pool.submit` fault) the whole pending batch is
    // answered `busy` instead of queueing deeper. A shed is not an error —
    // the client retries the same lines; nothing about its requests was
    // wrong.
    if pool.overloaded() || fail::point("pool.submit").is_err() {
        let shed = pending.len() as u64;
        pool.note_shed(shed);
        summary.sheds += shed;
        summary.served += shed;
        fail::point("session.write").map_err(std::io::Error::other)?;
        for _ in pending.drain(..) {
            writeln!(writer, "busy")?;
        }
        return Ok(());
    }
    let mut replies: Vec<Option<Result<std::sync::Arc<grepair_store::QueryAnswer>, GrepairError>>> =
        Vec::new();
    replies.resize_with(pending.len(), || None);
    // Groups in order of first appearance, so resolution (and its side
    // effects: lazy opens, LRU hits) happens in request order.
    let mut order: Vec<(&str, Option<u64>)> = Vec::new();
    for (ns, version, parsed) in pending.iter() {
        if parsed.is_ok() && !order.contains(&(ns.as_str(), *version)) {
            order.push((ns, *version));
        }
    }
    for (ns, version) in order {
        let indexes: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, (name, pin, parsed))| name == ns && *pin == version && parsed.is_ok())
            .map(|(i, _)| i)
            .collect();
        // A bare line tracks the namespace's head; an `@vN` pin resolves
        // through the patch log (DESIGN.md §12).
        let resolved = match version {
            None => registry.store(ns),
            Some(v) => registry.store_at(ns, v),
        };
        match resolved {
            #[expect(
                clippy::indexing_slicing,
                reason = "indexes come from enumerating pending; replies has the same length"
            )]
            Err(e) => {
                for &i in &indexes {
                    replies[i] = Some(Err(e.clone()));
                }
            }
            Ok(store) => {
                #[expect(
                    clippy::indexing_slicing,
                    clippy::expect_used,
                    reason = "indexes filtered to parsed.is_ok() entries of pending just above"
                )]
                let queries: Vec<Query> = indexes
                    .iter()
                    .map(|&i| pending[i].2.as_ref().cloned().expect("filtered to Ok"))
                    .collect();
                let answers = if queries.len() >= INLINE_BATCH {
                    store.query_batch_on(&queries, pool)
                } else {
                    store.query_batch(&queries)
                };
                #[expect(
                    clippy::indexing_slicing,
                    reason = "indexes come from enumerating pending; replies has the same length"
                )]
                for (&i, answer) in indexes.iter().zip(answers) {
                    replies[i] = Some(answer);
                }
            }
        }
    }
    fail::point("session.write").map_err(std::io::Error::other)?;
    for (reply, (_, _, entry)) in replies.into_iter().zip(pending.drain(..)) {
        summary.served += 1;
        let outcome = match entry {
            Err(e) => Err(e),
            #[expect(
                clippy::expect_used,
                reason = "every parsed query's namespace was visited, filling its slot"
            )]
            Ok(_) => reply.expect("every parsed query got a reply slot"),
        };
        match outcome {
            Ok(answer) => writeln!(writer, "{answer}")?,
            Err(e) => {
                summary.errors += 1;
                writeln!(writer, "{}", error_reply(e))?;
            }
        }
    }
    Ok(())
}

/// Execute one admin command and render its single reply line.
fn handle_admin(
    registry: &StoreRegistry,
    admin: Result<Admin, String>,
    opts: &SessionOpts,
    namespace: &mut String,
    summary: &mut SessionSummary,
) -> String {
    match admin {
        Err(reason) => error_reply(format_args!("bad request: {reason}")),
        Ok(Admin::Ping) => "pong".into(),
        Ok(Admin::Quit) => "bye".into(),
        Ok(Admin::Info) => match registry.store(namespace) {
            Err(e) => error_reply(e),
            Ok(store) => {
                let reload_failures =
                    registry.health_of(namespace).map_or(0, |h| h.reload_failures);
                // `backend=grepair` (here, in ATTACH, STATS and the listening
                // line) is fixed text kept for PROTO_VERSION 3 (DESIGN.md §6.3).
                format!(
                    "grepair proto={PROTO_VERSION} namespace={namespace} generation={} nodes={} backend=grepair reload_failures={reload_failures}",
                    store.generation(),
                    store.total_nodes(),
                )
            }
        },
        Ok(Admin::Stats(None)) => registry.aggregate_stats().to_string(),
        Ok(Admin::Stats(Some(name))) => match registry.stats_for(&name) {
            Ok(stats) => {
                // Per-namespace health rides along (DESIGN.md §10): the
                // monotonic failure counters always render; the last error
                // only once there is one (quoted — error strings contain
                // spaces).
                let mut reply = stats.to_string();
                if let Ok(health) = registry.health_of(&name) {
                    reply.push_str(&format!(
                        " open_failures={} reload_failures={} breaker_trips={} breaker_open={}",
                        health.open_failures,
                        health.reload_failures,
                        health.breaker_trips,
                        health.breaker_open
                    ));
                    if let Some(last) = health.last_error {
                        reply.push_str(&format!(" last_error={last:?}"));
                    }
                }
                reply
            }
            Err(e) => error_reply(e),
        },
        Ok(Admin::Use(name)) => {
            if registry.contains(&name) {
                *namespace = name;
                format!("using {namespace}")
            } else {
                error_reply(format_args!("bad request: unknown namespace {name:?}"))
            }
        }
        Ok(Admin::Attach { name, path }) => match registry.attach(&name, &path) {
            Ok(store) => format!(
                "attached {name} generation={} nodes={} backend=grepair",
                store.generation(),
                store.total_nodes(),
            ),
            Err(e) => error_reply(e),
        },
        Ok(Admin::Detach(name)) => match registry.detach(&name) {
            Ok(()) => format!("detached {name}"),
            Err(e) => error_reply(e),
        },
        Ok(Admin::List) => {
            let entries = registry.list();
            let mut reply = format!("namespaces={}", entries.len());
            for (name, resident, generation) in entries {
                let state = if resident { "resident" } else { "cold" };
                reply.push_str(&format!(" {name}={state}:{generation}"));
            }
            reply
        }
        Ok(Admin::Reload(path)) => {
            // A bare RELOAD re-reads the namespace's recorded path; for the
            // default namespace the server's startup path is the fallback
            // (registries seeded from in-memory stores record none).
            let explicit = path.or_else(|| {
                (namespace.as_str() == DEFAULT_NAMESPACE)
                    .then(|| opts.reload_path.clone())
                    .flatten()
            });
            match registry.reload(namespace, explicit.as_deref()) {
                // Report from the swapped-in snapshot, not a fresh
                // resolution: a concurrent reload must not pair this
                // generation number with another generation's node count.
                Ok(store) => {
                    summary.reloads += 1;
                    format!(
                        "reloaded generation={} nodes={}",
                        store.generation(),
                        store.total_nodes()
                    )
                }
                Err(e) => error_reply(e),
            }
        }
        Ok(Admin::Patch(args)) => {
            // One PATCH line = one patch record = one new retained version
            // (DESIGN.md §12). Reported from the swapped-in head snapshot,
            // same rule as RELOAD.
            match EdgePatch::parse(&args.join(" "))
                .and_then(|patch| registry.patch(namespace, patch))
            {
                Ok((version, store)) => format!(
                    "patched version={} generation={} added={} removed={}",
                    version.version,
                    store.generation(),
                    version.added,
                    version.removed
                ),
                Err(e) => error_reply(e),
            }
        }
        Ok(Admin::Versions(name)) => {
            match registry.versions_of(name.as_deref().unwrap_or(namespace.as_str())) {
                Ok(summaries) => {
                    let head = summaries.last().map_or(0, |s| s.version);
                    let mut reply = format!("versions={} head=v{head}", summaries.len());
                    for s in &summaries {
                        reply.push_str(&format!(" {s}"));
                    }
                    reply
                }
                Err(e) => error_reply(e),
            }
        }
        Ok(Admin::Shutdown) => {
            if let Some(drain) = &opts.drain {
                drain.store(true, Ordering::Relaxed);
            }
            "draining".into()
        }
        Ok(Admin::Faults(args)) => handle_faults(&args),
    }
}

/// Execute one `FAULTS` subcommand against the process-wide failpoint
/// table (DESIGN.md §10). With the `fail` feature compiled out, mutating
/// subcommands error (`grepair_util::fail::DISABLED`) and the bare listing
/// reports `compiled=off` — so an operator can always tell which build
/// they are talking to.
fn handle_faults(args: &[String]) -> String {
    let compiled = if fail::enabled() { "on" } else { "off" };
    match args.first().map(String::as_str) {
        None => {
            let mut reply = format!("faults compiled={compiled}");
            let points = fail::snapshot();
            reply.push_str(&format!(" points={}", points.len()));
            for p in points {
                reply.push_str(&format!(" {}={}:calls={}:fired={}", p.name, p.spec, p.calls, p.fired));
            }
            reply
        }
        Some("SET") => match args {
            [_, name, spec] => match fail::configure(name, spec) {
                Ok(()) => format!("fault set {name}"),
                Err(e) => error_reply(format_args!("bad request: {e}")),
            },
            _ => error_reply(format_args!("bad request: FAULTS SET needs a name and a spec")),
        },
        Some("CLEAR") => match args {
            [_] => {
                fail::clear_all();
                "faults cleared".into()
            }
            [_, name] => {
                if fail::clear(name) {
                    format!("fault cleared {name}")
                } else {
                    error_reply(format_args!("bad request: no fault configured at {name:?}"))
                }
            }
            _ => error_reply(format_args!("bad request: FAULTS CLEAR takes at most a name")),
        },
        Some("SEED") => match args {
            [_, seed] => match seed.parse::<u64>() {
                Ok(seed) if fail::enabled() => {
                    fail::set_seed(seed);
                    format!("fault seed {seed}")
                }
                Ok(_) => error_reply(format_args!("bad request: {}", fail::DISABLED)),
                Err(_) => error_reply(format_args!("bad request: FAULTS SEED needs a u64")),
            },
            _ => error_reply(format_args!("bad request: FAULTS SEED needs a u64")),
        },
        Some(other) => {
            error_reply(format_args!("bad request: unknown FAULTS subcommand {other:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::{compress, GRePairConfig};
    use grepair_hypergraph::Hypergraph;
    use grepair_store::{write_container, GraphStore};

    fn g2g(reps: u32) -> Vec<u8> {
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        write_container(&enc.bytes, enc.bit_len)
    }

    fn registry(reps: u32) -> StoreRegistry {
        StoreRegistry::new(GraphStore::from_bytes(&g2g(reps)).unwrap())
    }

    /// Run `input` through a session against a fresh 17-node store and
    /// return the reply bytes as text.
    fn run(input: &str) -> (String, SessionSummary) {
        run_on(&registry(8), input)
    }

    fn run_on(registry: &StoreRegistry, input: &str) -> (String, SessionSummary) {
        let pool = WorkerPool::new(2);
        let mut reader: &[u8] = input.as_bytes();
        let mut out = Vec::new();
        let summary =
            serve_session(registry, &pool, &mut reader, &mut out, &SessionOpts::default())
                .unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn answers_and_errors_in_request_order() {
        let (out, summary) = run("out 0\nbogus 1\nreach 0 16\n\n# comment\ndegrees\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert_eq!(lines[0], "1");
        assert!(lines[1].starts_with("error: bad request"), "{out}");
        assert_eq!(lines[2], "true");
        assert!(lines[3].starts_with("min="), "{out}");
        assert_eq!(summary.served, 4);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn admin_plane_replies() {
        let (out, summary) = run("PING\nINFO\nSTATS\nQUIT\nout 0\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "pong");
        assert_eq!(
            lines[1],
            "grepair proto=3 namespace=default generation=1 nodes=17 backend=grepair reload_failures=0"
        );
        assert!(lines[2].starts_with("namespaces=1 resident=1 "), "{out}");
        assert_eq!(lines[3], "bye");
        // QUIT ends the session: the query after it is never answered.
        assert_eq!(lines.len(), 4, "{out}");
        assert_eq!(summary.served, 4);
        assert_eq!(summary.reloads, 0);
    }

    #[test]
    fn scoped_stats_render_one_store() {
        let (out, _) = run("out 0\nSTATS default\nSTATS nosuch\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("generation=1 loads=1 queries=1 "), "{out}");
        assert!(lines[1].contains("backend=grepair"), "{out}");
        assert!(
            lines[1].ends_with("open_failures=0 reload_failures=0 breaker_trips=0 breaker_open=false"),
            "{out}"
        );
        assert!(lines[2].starts_with("error: bad request: unknown namespace"), "{out}");
    }

    #[test]
    fn admin_lines_with_trailing_tokens_error_but_serve_on() {
        let (out, _) = run("PING extra\nUSE\nATTACH onlyname\nout 0\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("error: bad request"), "{out}");
        assert!(lines[1].starts_with("error: bad request: USE needs"), "{out}");
        assert!(lines[2].starts_with("error: bad request: ATTACH needs"), "{out}");
        assert_eq!(lines[3], "1");
    }

    #[test]
    fn use_switches_and_prefixes_override_per_line() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("grepair_session_use_{}.g2g", std::process::id()));
        std::fs::write(&path, g2g(16)).unwrap();
        let registry = registry(8);
        let input = format!(
            "ATTACH big {0}\nout 32\nbig:out 32\nUSE big\nout 32\nINFO\ndefault:out 0\nUSE nosuch\nLIST\nDETACH big\nout 32\n",
            path.display()
        );
        let (out, _) = run_on(&registry, &input);
        let lines: Vec<&str> = out.lines().collect();
        // The compressor renumbers nodes, so the expected neighbor list
        // comes from a twin store, not the input file's ids.
        let twin = GraphStore::from_bytes(&g2g(16)).unwrap();
        let out32 = twin.query(&grepair_store::Query::OutNeighbors(32)).unwrap().to_string();
        assert_eq!(lines[0], "attached big generation=1 nodes=33 backend=grepair");
        // Unprefixed goes to default (17 nodes): 32 is out of range...
        assert!(lines[1].starts_with("error:"), "{out}");
        // ...the one-shot prefix hits the 33-node store...
        assert_eq!(lines[2], out32, "{out}");
        assert_eq!(lines[3], "using big");
        // ...and after USE the unprefixed line does too.
        assert_eq!(lines[4], out32, "{out}");
        assert_eq!(
            lines[5],
            "grepair proto=3 namespace=big generation=1 nodes=33 backend=grepair reload_failures=0"
        );
        // A prefix points back at default regardless of the session state.
        assert_eq!(lines[6], "1");
        assert!(lines[7].starts_with("error: bad request: unknown namespace"), "{out}");
        assert_eq!(lines[8], "namespaces=2 big=resident:1 default=resident:1");
        assert_eq!(lines[9], "detached big");
        // The session still points at the detached namespace: error, serve on.
        assert!(lines[10].starts_with("error: bad request: unknown namespace"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mixed_namespace_batches_reply_in_input_order() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("grepair_session_mixed_{}.g2g", std::process::id()));
        std::fs::write(&path, g2g(16)).unwrap();
        let registry = registry(8);
        registry.attach("big", path.to_str().unwrap()).unwrap();
        // All lines arrive in one buffered gulp: the batch spans three
        // namespaces (one unknown) and replies must stay line-for-line.
        let input = "out 0\nbig:out 32\nnosuch:out 0\nout 0\nbig:reach 0 32\n";
        let (out, summary) = run_on(&registry, input);
        let lines: Vec<&str> = out.lines().collect();
        let twin = GraphStore::from_bytes(&g2g(16)).unwrap();
        let out32 = twin.query(&grepair_store::Query::OutNeighbors(32)).unwrap().to_string();
        assert_eq!(lines[0], "1");
        assert_eq!(lines[1], out32, "{out}");
        assert!(lines[2].starts_with("error: bad request: unknown namespace"), "{out}");
        assert_eq!(lines[3], "1");
        assert_eq!(lines[4], "true");
        assert_eq!(summary.served, 5);
        assert_eq!(summary.errors, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_prefixes_fall_through_to_query_parsing() {
        // "has space:out 0" — the pre-colon text is not a valid namespace
        // name, so the whole line is (an unparsable) query.
        let (out, _) = run("has space:out 0\n::\nout 0\n");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("error: bad request"), "{out}");
        assert!(lines[1].starts_with("error: bad request"), "{out}");
        assert_eq!(lines[2], "1");
    }

    #[test]
    fn oversized_lines_error_and_the_next_line_still_parses() {
        let long = "a".repeat(DEFAULT_MAX_LINE * 3);
        let (out, summary) = run(&format!("out 0\n{long}\nout 0\n"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "1");
        assert!(lines[1].contains("exceeds"), "{out}");
        assert_eq!(lines[2], "1");
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn exactly_max_line_is_not_oversized() {
        // A comment line of exactly max_line bytes: skipped, not an error.
        let comment = format!("#{}", " ".repeat(DEFAULT_MAX_LINE - 1));
        let (out, summary) = run(&format!("{comment}\nout 0\n"));
        assert_eq!(out, "1\n");
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn non_utf8_lines_error_and_serve_on() {
        let registry = registry(8);
        let pool = WorkerPool::new(1);
        let mut input = Vec::new();
        input.extend_from_slice(b"\xff\xfe garbage\n");
        input.extend_from_slice(b"out 0\n");
        let mut reader: &[u8] = &input;
        let mut out = Vec::new();
        serve_session(&registry, &pool, &mut reader, &mut out, &SessionOpts::default()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("not valid UTF-8"), "{text}");
        assert_eq!(lines[1], "1");
    }

    #[test]
    fn mid_line_eof_discards_the_partial_line() {
        // "out 1" with no newline: complete lines are answered, the
        // partial one is not (it was never a request).
        let (out, summary) = run("out 0\nout 1");
        assert_eq!(out, "1\n");
        assert_eq!(summary.served, 1);
    }

    #[test]
    fn reload_swaps_generation_mid_session() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("grepair_session_{}.g2g", std::process::id()));
        std::fs::write(&path, g2g(16)).unwrap();
        let registry = registry(8);
        let pool = WorkerPool::new(2);
        let input = format!(
            "in 32\nRELOAD {0}\nin 32\nRELOAD /nonexistent.g2g\nSTATS default\n",
            path.display()
        );
        let mut reader: &[u8] = input.as_bytes();
        let mut out = Vec::new();
        let summary =
            serve_session(&registry, &pool, &mut reader, &mut out, &SessionOpts::default())
                .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Node 32 is out of range in generation 1 (17 nodes)...
        assert!(lines[0].starts_with("error:"), "{text}");
        assert_eq!(lines[1], "reloaded generation=2 nodes=33");
        // ...and valid after the reload. The expected ids come from the
        // store itself (the compressor renumbers nodes, so the answer is
        // in derived ids, not input-file ids).
        let reloaded = GraphStore::from_bytes(&g2g(16)).unwrap();
        let expected = reloaded.query(&grepair_store::Query::InNeighbors(32)).unwrap();
        assert_eq!(lines[2], expected.to_string(), "{text}");
        // A failed reload keeps generation 2 serving — and is recorded:
        // STATS surfaces the monotonic count and the last error string.
        assert!(lines[3].starts_with("error:"), "{text}");
        assert!(lines[4].starts_with("generation=2 "), "{text}");
        assert!(lines[4].contains("reload_failures=1"), "{text}");
        assert!(lines[4].contains("last_error="), "{text}");
        assert_eq!(summary.reloads, 1);
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_acts_on_the_session_namespace() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("grepair_session_nsa_{}.g2g", std::process::id()));
        let b = dir.join(format!("grepair_session_nsb_{}.g2g", std::process::id()));
        std::fs::write(&a, g2g(4)).unwrap();
        std::fs::write(&b, g2g(12)).unwrap();
        let registry = registry(8);
        registry.attach("a", a.to_str().unwrap()).unwrap();
        let input = format!("USE a\nRELOAD {}\nINFO\nSTATS\n", b.display());
        let (out, summary) = run_on(&registry, &input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "using a");
        // The session's namespace reloads (and its recorded path moves to
        // the new file); the default namespace's generation is untouched.
        assert_eq!(lines[1], "reloaded generation=2 nodes=25");
        assert_eq!(
            lines[2],
            "grepair proto=3 namespace=a generation=2 nodes=25 backend=grepair reload_failures=0"
        );
        assert!(lines[3].starts_with("namespaces=2 resident=2 "), "{out}");
        assert_eq!(summary.reloads, 1);
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(1));
        assert_eq!(registry.generation_of("a").unwrap(), 2);
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn overloaded_pool_sheds_with_busy_lines_and_recovers() {
        let registry = registry(8);
        let pool = WorkerPool::new(1);
        pool.set_shed_watermark(1);
        // Park a job so the pool sits at the watermark while the session
        // flushes, then release it and serve again on the same registry.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let pool_ref = &pool;
            s.spawn(move || {
                use grepair_store::BatchExecutor;
                pool_ref.scope(vec![Box::new(move || {
                    parked_tx.send(()).ok();
                    release_rx.recv().ok();
                }) as Box<dyn FnOnce() + Send + '_>]);
            });
            parked_rx.recv().expect("the parked job started");
            let mut reader: &[u8] = b"out 0\nreach 0 16\n";
            let mut out = Vec::new();
            let summary =
                serve_session(&registry, &pool, &mut reader, &mut out, &SessionOpts::default())
                    .unwrap();
            assert_eq!(String::from_utf8(out).unwrap(), "busy\nbusy\n");
            assert_eq!(summary.sheds, 2);
            assert_eq!(summary.served, 2);
            assert_eq!(summary.errors, 0, "a shed is not the client's fault");
            release_tx.send(()).expect("the parked job is waiting");
        });
        assert_eq!(pool.sheds(), 2);
        // Load drained: the same lines now get real answers.
        let mut reader: &[u8] = b"out 0\nreach 0 16\n";
        let mut out = Vec::new();
        let summary =
            serve_session(&registry, &pool, &mut reader, &mut out, &SessionOpts::default())
                .unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1\ntrue\n");
        assert_eq!(summary.sheds, 0);
    }

    #[test]
    fn shutdown_flips_the_drain_flag_and_ends_the_session() {
        let registry = registry(8);
        let pool = WorkerPool::new(1);
        let drain = Arc::new(AtomicBool::new(false));
        let opts = SessionOpts { drain: Some(Arc::clone(&drain)), ..SessionOpts::default() };
        let mut reader: &[u8] = b"out 0\nSHUTDOWN\nout 0\n";
        let mut out = Vec::new();
        let summary = serve_session(&registry, &pool, &mut reader, &mut out, &opts).unwrap();
        // The pre-SHUTDOWN batch is answered, `draining` is the last
        // reply, and the line after it is never served.
        assert_eq!(String::from_utf8(out).unwrap(), "1\ndraining\n");
        assert_eq!(summary.served, 2);
        assert!(drain.load(Ordering::Relaxed), "SHUTDOWN must flip the drain flag");
    }

    #[test]
    fn shutdown_without_a_drain_flag_just_ends_the_session() {
        // The serve-file twin: same bytes on the wire, no server to drain.
        let (out, summary) = run("SHUTDOWN\nout 0\n");
        assert_eq!(out, "draining\n");
        assert_eq!(summary.served, 1);
    }

    #[test]
    fn a_flagged_drain_ends_a_streaming_session_between_batches() {
        let registry = registry(8);
        let pool = WorkerPool::new(1);
        let drain = Arc::new(AtomicBool::new(true)); // already draining
        let opts = SessionOpts { drain: Some(Arc::clone(&drain)), ..SessionOpts::default() };
        let mut reader: &[u8] = b"out 0\nout 0\nout 0\n";
        let mut out = Vec::new();
        let summary = serve_session(&registry, &pool, &mut reader, &mut out, &opts).unwrap();
        // The first batch is answered (lines were already buffered), then
        // the session ends instead of reading forever.
        assert!(summary.served >= 1, "{summary:?}");
        assert!(String::from_utf8(out).unwrap().starts_with("1\n"));
    }

    #[test]
    fn faults_verb_lists_and_rejects_by_build() {
        let (out, _) = run("FAULTS\nFAULTS BOGUS\nFAULTS SET\nFAULTS SEED x\nout 0\n");
        let lines: Vec<&str> = out.lines().collect();
        if fail::enabled() {
            assert!(lines[0].starts_with("faults compiled=on points="), "{out}");
        } else {
            assert_eq!(lines[0], "faults compiled=off points=0");
        }
        assert!(lines[1].starts_with("error: bad request: unknown FAULTS subcommand"), "{out}");
        assert!(lines[2].starts_with("error: bad request: FAULTS SET needs"), "{out}");
        assert!(lines[3].starts_with("error: bad request: FAULTS SEED needs"), "{out}");
        assert_eq!(lines[4], "1");
    }

    #[cfg(not(feature = "fail"))]
    #[test]
    fn faults_set_errors_when_compiled_out() {
        let (out, _) = run("FAULTS SET store.open.read always:err\n");
        assert!(out.contains("compiled out"), "{out}");
    }

    #[test]
    fn patch_versions_and_time_travel_over_the_wire() {
        let registry = registry(8);
        // A rule-free grammar path store: it keeps input node ids, so the
        // wire assertions below can name concrete nodes.
        let (g, _) =
            Hypergraph::from_simple_edges(4, (0..3u32).map(|i| (i, 0u32, i + 1)));
        let grammar = grepair_grammar::Grammar::new(g, 1);
        registry.attach_store("k", GraphStore::from_grammar(grammar).unwrap()).unwrap();
        let input = "USE k\n\
                     VERSIONS\n\
                     PATCH ADD 3 0 0\n\
                     reach 3 1\n\
                     reach 3 1 @v0\n\
                     VERSIONS\n\
                     PATCH DEL 3 0 0\n\
                     reach 3 1\n\
                     reach 3 1 @v1\n\
                     INFO\n\
                     PATCH DEL 0 5 1\n\
                     PATCH\n\
                     out 0 @v9\n\
                     out 0 @vx\n\
                     default:out 0 @v0\n";
        let (out, summary) = run_on(&registry, input);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "using k");
        // An unpatched namespace still lists its base as v0.
        assert_eq!(lines[1], "versions=1 head=v0 v0=+0-0");
        // Each patch is a new retained version and a generation bump...
        assert_eq!(lines[2], "patched version=1 generation=2 added=1 removed=0");
        // ...the bare query sees the patched head, the pinned one does not.
        assert_eq!(lines[3], "true");
        assert_eq!(lines[4], "false");
        assert_eq!(lines[5], "versions=2 head=v1 v0=+0-0 v1=+1-0");
        // Deleting the patched edge returns the overlay to minimal form.
        assert_eq!(lines[6], "patched version=2 generation=3 added=0 removed=0");
        assert_eq!(lines[7], "false");
        assert_eq!(lines[8], "true");
        assert_eq!(
            lines[9],
            "grepair proto=3 namespace=k generation=3 nodes=4 backend=grepair reload_failures=0"
        );
        // Bad patches and bad pins error per line, never per connection.
        assert!(lines[10].starts_with("error: bad request: patch DEL 0 5 1:"), "{out}");
        assert!(lines[11].starts_with("error: bad request: bad patch"), "{out}");
        assert!(lines[12].contains("unknown version v9"), "{out}");
        assert!(lines[13].contains("bad version suffix"), "{out}");
        // A pinned, prefixed line on a never-patched namespace: @v0 is the
        // base, byte-identical with the unpinned answer.
        assert_eq!(lines[14], "1");
        assert_eq!(lines.len(), 15, "{out}");
        assert_eq!(summary.errors, 4);
    }

    #[test]
    fn large_batches_route_through_the_pool() {
        // 3 × batch-size lines all buffered up front: the session must
        // evaluate in batch-sized chunks through the pool, in order.
        let n = 17u64;
        let opts = SessionOpts { batch: 64, ..SessionOpts::default() };
        let mut input = String::new();
        let mut expected = String::new();
        for i in 0..192u64 {
            input.push_str(&format!("reach 0 {}\n", i % n));
            expected.push_str("true\n");
        }
        let registry = registry(8);
        let pool = WorkerPool::new(4);
        let mut reader: &[u8] = input.as_bytes();
        let mut out = Vec::new();
        let summary = serve_session(&registry, &pool, &mut reader, &mut out, &opts).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), expected);
        assert_eq!(summary.served, 192);
        let stats = registry.stats_for(DEFAULT_NAMESPACE).unwrap();
        assert!(stats.parallel_batches >= 1, "{stats}");
    }
}
