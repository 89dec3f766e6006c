//! Multi-tenant store hosting: a namespace-addressed registry that serves
//! many compressed graphs from one process, under a memory budget.
//!
//! The paper's grammar containers are small (hundreds of bytes for graphs
//! whose k²-tree images are kilobytes — `repro --fig13`), so the serving
//! topology (DESIGN.md §8) holds a *map* of namespaces, each one mutable
//! slot: `RwLock<Option<Arc<GraphStore>>>`. Every request path resolves its
//! namespace, grabs the current `Arc` (a read lock held for one pointer
//! clone), answers against that snapshot, and drops it when done. A
//! single-store deployment is the degenerate case: one namespace,
//! [`DEFAULT_NAMESPACE`], which [`StoreRegistry::new`] and
//! [`StoreRegistry::open`] register and callers name like any other.
//!
//! Three properties hold per namespace:
//!
//! * in-flight queries finish on the old store's `Arc` — a reload (or an
//!   eviction) never tears an answer mid-flight,
//! * a failed reload/attach (missing file, hostile bytes) leaves every
//!   registered namespace untouched — no partial registration,
//! * each namespace's generation counter is strictly monotonic, and each
//!   resident store is stamped with it ([`StoreStats::generation`]) so
//!   `STATS`/`INFO` admin replies let clients observe a swap.
//!
//! Two more follow from hosting many:
//!
//! * **lazy open** — a namespace may be registered *cold* (path only, no
//!   decode); the first query against it pays the open, every later one
//!   rides the resident `Arc`,
//! * **LRU eviction** — with a byte budget configured
//!   ([`StoreRegistry::set_budget`], the server's `--memory-budget` flag),
//!   loading a store evicts the least-recently-hit resident containers
//!   until the total resident container bytes fit again. An evicted
//!   namespace stays registered; its next hit reopens it transparently
//!   (counted in [`RegistryStats::cold_opens`]) with its generation
//!   *unchanged* — eviction is a cache decision, not a data change, so an
//!   evicted-then-reopened store answers byte-identically to a twin that
//!   was never evicted.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grepair_util::sync::{Mutex, RwLock};

use crate::version::{EdgePatch, VersionSummary, VersionedStore};
use crate::{GraphStore, GrepairError, StoreStats};

/// Open attempts one cold resolution makes before giving up: the initial
/// try plus retries with exponential backoff ([`retry_backoff`]). Only
/// I/O-shaped failures are retried — a container that *decodes* wrong is
/// deterministically bad and fails fast (DESIGN.md §10).
pub const COLD_OPEN_ATTEMPTS: u32 = 3;

/// Consecutive failed cold opens after which a namespace's circuit
/// breaker trips: further resolutions answer a fast
/// [`GrepairError::Unavailable`] instead of hammering the disk.
pub const BREAKER_THRESHOLD: u64 = 3;

/// How long an open breaker refuses before letting one half-open probe
/// attempt a real open again. A failed probe re-arms the cooldown; a
/// successful one closes the breaker.
pub const BREAKER_COOLDOWN: Duration = Duration::from_millis(250);

/// Backoff slept before cold-open retry `retry` (1-based): exponential
/// from 1 ms, capped at 50 ms — bounded so a failing tenant delays its own
/// requests by at most ~100 ms total, never a healthy tenant's.
pub fn retry_backoff(retry: u32) -> Duration {
    let ms = 1u64 << retry.saturating_sub(1).min(10);
    Duration::from_millis(ms.min(50))
}

/// The namespace [`StoreRegistry::new`] and [`StoreRegistry::open`] put
/// their one store under, and the one wire-protocol sessions address until
/// they issue `USE` (DESIGN.md §8).
pub const DEFAULT_NAMESPACE: &str = "default";

/// Longest accepted namespace name, in bytes.
pub const MAX_NAMESPACE_LEN: usize = 64;

/// Is `name` a syntactically valid namespace name? Accepted: 1 to
/// [`MAX_NAMESPACE_LEN`] ASCII characters from `[A-Za-z0-9._-]`. The
/// session layer uses the same predicate to decide whether the text before
/// a `:` in a query line is a namespace prefix (DESIGN.md §8).
pub fn valid_namespace(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAMESPACE_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

fn bad_name(name: &str) -> GrepairError {
    GrepairError::BadRequest(format!(
        "invalid namespace {name:?} (want 1..={MAX_NAMESPACE_LEN} chars of [A-Za-z0-9._-])"
    ))
}

fn unknown(name: &str) -> GrepairError {
    GrepairError::BadRequest(format!("unknown namespace {name:?}"))
}

/// One registered tenant: a name bound to a container path and a slot that
/// is either resident (`Some(store)`) or cold (`None` — never opened, or
/// evicted). In-memory tenants (registered from a built [`GraphStore`],
/// no path) can never be cold: there is nothing to reopen them from, so
/// they are exempt from eviction — and they report 0 resident bytes anyway.
#[derive(Debug)]
struct Namespace {
    /// Where to (re)open this tenant from. `None` for in-memory tenants.
    path: Mutex<Option<String>>,
    /// The serving store, if resident.
    slot: RwLock<Option<Arc<GraphStore>>>,
    /// Strictly monotonic per namespace: `0` until the first open, `1`
    /// after it, `+1` per reload. Evict/reopen does *not* bump it.
    generation: AtomicU64,
    /// Registry clock value of the most recent hit — the LRU key.
    last_hit: AtomicU64,
    /// The patch log, once the namespace has been `PATCH`ed (DESIGN.md
    /// §12). `None` until the first patch; an explicit swap rebases the
    /// namespace and drops the log, a reload refuses to.
    versions: Mutex<Option<Arc<VersionedStore>>>,
    /// Operational health: failure counters and the circuit breaker.
    health: Health,
}

/// Per-namespace failure bookkeeping (DESIGN.md §10). All fields are
/// updated under the namespace's slot write lock (opens) or without any
/// lock (reload failure counts), and read lock-free by `STATS`/`INFO`.
#[derive(Debug, Default)]
struct Health {
    /// Consecutive failed open attempts — the breaker input; reset to 0
    /// by any successful open.
    consecutive_open_failures: AtomicU64,
    /// Monotonic count of failed cold opens (retries exhausted).
    open_failures: AtomicU64,
    /// Monotonic count of failed reloads.
    reload_failures: AtomicU64,
    /// Millis on the registry clock before which the breaker refuses.
    open_until_ms: AtomicU64,
    /// Monotonic count of breaker trips (including failed half-open
    /// probes re-arming the cooldown).
    trips: AtomicU64,
    /// The most recent open/reload failure, rendered.
    last_error: Mutex<Option<String>>,
}

/// One namespace's operational health, as surfaced by `STATS <name>` and
/// [`StoreRegistry::health_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceHealth {
    /// Failed cold opens (monotonic; retries already exhausted).
    pub open_failures: u64,
    /// Failed reloads (monotonic) — a wedged `RELOAD`/`SIGHUP` shows here.
    pub reload_failures: u64,
    /// Is the circuit breaker currently refusing resolutions?
    pub breaker_open: bool,
    /// Breaker trips so far (monotonic).
    pub breaker_trips: u64,
    /// The most recent open/reload failure, rendered; `None` if the
    /// namespace never failed.
    pub last_error: Option<String>,
}

impl Namespace {
    fn resident(&self) -> Option<Arc<GraphStore>> {
        self.slot.read().clone()
    }

    /// Record a failed open/reload and trip the breaker once the
    /// consecutive-failure threshold is reached (or re-arm it on a failed
    /// half-open probe). Returns the new consecutive count.
    fn note_failure(&self, now_ms: u64, reload: bool, error: &GrepairError) -> u64 {
        let counter =
            if reload { &self.health.reload_failures } else { &self.health.open_failures };
        counter.fetch_add(1, Ordering::Relaxed);
        *self.health.last_error.lock() = Some(error.to_string());
        let consecutive =
            self.health.consecutive_open_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if consecutive >= BREAKER_THRESHOLD {
            self.health.trips.fetch_add(1, Ordering::Relaxed);
            self.health
                .open_until_ms
                .store(now_ms + BREAKER_COOLDOWN.as_millis() as u64, Ordering::Relaxed);
        }
        consecutive
    }

    /// A successful open closes the breaker and clears the streak (the
    /// monotonic counters and last error stay, for operators).
    fn note_success(&self) {
        self.health.consecutive_open_failures.store(0, Ordering::Relaxed);
        self.health.open_until_ms.store(0, Ordering::Relaxed);
    }

    /// Is the breaker refusing at `now_ms`? Once the cooldown elapses the
    /// breaker is half-open: this returns `false` and the caller's next
    /// real open attempt is the probe.
    fn breaker_refuses(&self, now_ms: u64) -> bool {
        self.health.consecutive_open_failures.load(Ordering::Relaxed) >= BREAKER_THRESHOLD
            && now_ms < self.health.open_until_ms.load(Ordering::Relaxed)
    }

    fn health(&self, now_ms: u64) -> NamespaceHealth {
        NamespaceHealth {
            open_failures: self.health.open_failures.load(Ordering::Relaxed),
            reload_failures: self.health.reload_failures.load(Ordering::Relaxed),
            breaker_open: self.breaker_refuses(now_ms),
            breaker_trips: self.health.trips.load(Ordering::Relaxed),
            last_error: self.health.last_error.lock().clone(),
        }
    }
}

/// Aggregate registry statistics — the wire protocol's bare `STATS` reply
/// (per-namespace stats are `STATS <name>`; DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Registered namespaces (resident + cold).
    pub namespaces: u64,
    /// Namespaces currently holding a store.
    pub resident: u64,
    /// Total container bytes held resident.
    pub resident_bytes: u64,
    /// The configured eviction budget, if any.
    pub budget: Option<u64>,
    /// Stores evicted to fit the budget, ever.
    pub evictions: u64,
    /// Stores opened lazily — a cold-registered namespace's first query,
    /// or an evicted namespace reopening on a hit.
    pub cold_opens: u64,
    /// Queries served, summed over resident stores plus every store this
    /// registry retired (evicted, detached, or replaced by a reload).
    pub queries: u64,
    /// Query errors, summed the same way.
    pub errors: u64,
    /// Circuit-breaker trips across every namespace, detached ones
    /// included (DESIGN.md §10).
    pub breaker_trips: u64,
}

impl std::fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "namespaces={} resident={} resident_bytes={} budget={} evictions={} cold_opens={} queries={} errors={} breaker_trips={}",
            self.namespaces,
            self.resident,
            self.resident_bytes,
            match self.budget {
                Some(b) => b.to_string(),
                None => "none".into(),
            },
            self.evictions,
            self.cold_opens,
            self.queries,
            self.errors,
            self.breaker_trips,
        )
    }
}

/// Sentinel for "no budget configured" in the atomic budget cell.
const NO_BUDGET: u64 = u64::MAX;

/// A shared, hot-reloadable map of named [`GraphStore`]s with lazy open
/// and LRU eviction under a byte budget.
///
/// ```
/// use grepair_store::{GraphStore, StoreRegistry, DEFAULT_NAMESPACE};
/// # use grepair_core::{compress, GRePairConfig};
/// # use grepair_store::write_container;
/// # fn store() -> GraphStore {
/// #     let (g, _) = grepair_hypergraph::Hypergraph::from_simple_edges(
/// #         5, (0..4u32).map(|i| (i, 0u32, i + 1)));
/// #     let out = compress(&g, &GRePairConfig::default());
/// #     let enc = grepair_codec::encode(&out.grammar);
/// #     GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap()
/// # }
/// let registry = StoreRegistry::new(store());   // the "default" namespace
/// let before = registry.store(DEFAULT_NAMESPACE).unwrap(); // a long-lived query holds this
/// assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(1));
///
/// registry.swap(DEFAULT_NAMESPACE, store()).unwrap(); // hot reload
/// assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(2));
/// assert_eq!(before.generation(), 1);           // the old snapshot still answers
/// assert!(before.reachable(0, 4).unwrap());
///
/// // More tenants ride the same registry under their own names.
/// registry.attach_store("tenant-b", store());
/// assert_eq!(registry.list().len(), 2);
/// assert!(registry.store("tenant-b").unwrap().reachable(0, 4).unwrap());
/// ```
#[derive(Debug)]
pub struct StoreRegistry {
    namespaces: RwLock<BTreeMap<String, Arc<Namespace>>>,
    /// Budget in container bytes; [`NO_BUDGET`] = unlimited.
    budget: AtomicU64,
    /// Logical LRU clock: every namespace hit takes the next tick.
    clock: AtomicU64,
    /// Serializes budget enforcement so two concurrent loads cannot each
    /// decide the *other* one's eviction is unnecessary.
    budget_lock: Mutex<()>,
    evictions: AtomicU64,
    cold_opens: AtomicU64,
    /// Counters folded in from retired stores (evicted / detached /
    /// replaced), so the aggregate stays monotonic across their lifetimes.
    retired_queries: AtomicU64,
    retired_errors: AtomicU64,
    /// Breaker trips folded in from detached namespaces, so the aggregate
    /// stays monotonic across their lifetimes.
    retired_trips: AtomicU64,
    /// Epoch for the breaker's millisecond clock ([`Self::now_ms`]).
    started: Instant,
}

impl StoreRegistry {
    fn empty() -> Self {
        Self {
            namespaces: RwLock::new(BTreeMap::new()),
            budget: AtomicU64::new(NO_BUDGET),
            clock: AtomicU64::new(0),
            budget_lock: Mutex::new(()),
            evictions: AtomicU64::new(0),
            cold_opens: AtomicU64::new(0),
            retired_queries: AtomicU64::new(0),
            retired_errors: AtomicU64::new(0),
            retired_trips: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Milliseconds since this registry was created — the breaker's clock.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Register `store` as the [`DEFAULT_NAMESPACE`], generation 1. The
    /// store is in-memory (no path recorded): bare `RELOAD` needs an
    /// explicit path and the namespace is exempt from eviction.
    pub fn new(store: GraphStore) -> Self {
        let registry = Self::empty();
        #[expect(
            clippy::expect_used,
            reason = "a fresh empty registry cannot refuse its first namespace"
        )]
        registry
            .attach_store(DEFAULT_NAMESPACE, store)
            .expect("empty registry accepts the default namespace");
        registry
    }

    /// Load the first store from a container file into the
    /// [`DEFAULT_NAMESPACE`]. The path is recorded, so the namespace is
    /// evictable (it can be reopened) and bare `RELOAD` re-reads it.
    pub fn open(path: &str) -> Result<Self, GrepairError> {
        let registry = Self::empty();
        registry.attach(DEFAULT_NAMESPACE, path)?;
        Ok(registry)
    }

    // ------------------------------------------------------------------
    // Namespace management
    // ------------------------------------------------------------------

    fn lookup(&self, name: &str) -> Option<Arc<Namespace>> {
        self.namespaces
            .read()
            .get(name)
            .cloned()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Fold a retiring store's counters into the registry aggregate.
    fn retire(&self, store: &GraphStore) {
        let stats = store.stats();
        self.retired_queries.fetch_add(stats.queries_served, Ordering::Relaxed);
        self.retired_errors.fetch_add(stats.errors, Ordering::Relaxed);
    }

    /// Insert a fresh namespace, failing (with nothing registered) if the
    /// name is taken or invalid.
    fn register(
        &self,
        name: &str,
        path: Option<String>,
        store: Option<Arc<GraphStore>>,
    ) -> Result<(), GrepairError> {
        if !valid_namespace(name) {
            return Err(bad_name(name));
        }
        let generation = store.is_some() as u64;
        let ns = Arc::new(Namespace {
            path: Mutex::new(path),
            slot: RwLock::new(store),
            generation: AtomicU64::new(generation),
            last_hit: AtomicU64::new(self.tick()),
            versions: Mutex::new(None),
            health: Health::default(),
        });
        let mut map = self.namespaces.write();
        if map.contains_key(name) {
            return Err(GrepairError::BadRequest(format!(
                "namespace {name:?} already attached"
            )));
        }
        map.insert(name.to_string(), ns);
        Ok(())
    }

    /// Attach a container file under `name`, opening it eagerly — the wire
    /// protocol's `ATTACH` (DESIGN.md §8). The open runs *before* anything
    /// is registered, so a hostile or missing container leaves the registry
    /// exactly as it was: no partial registration, every existing namespace
    /// keeps serving. The new store is generation 1 for its namespace.
    pub fn attach(&self, name: &str, path: &str) -> Result<Arc<GraphStore>, GrepairError> {
        if !valid_namespace(name) {
            return Err(bad_name(name));
        }
        let store = GraphStore::open(path)?;
        store.set_generation(1);
        let store = Arc::new(store);
        self.register(name, Some(path.to_string()), Some(Arc::clone(&store)))?;
        self.enforce_budget(name);
        Ok(store)
    }

    /// Attach a container file under `name` *cold*: the path is recorded
    /// but nothing is read or decoded until the first query resolves the
    /// namespace (the server's `--attach NAME=PATH` flag). The namespace
    /// reports generation 0 until that first open.
    pub fn attach_cold(&self, name: &str, path: &str) -> Result<(), GrepairError> {
        self.register(name, Some(path.to_string()), None)
    }

    /// Register an already-built store under `name` (generation 1). No
    /// path is recorded: the namespace cannot be evicted or bare-`RELOAD`ed.
    pub fn attach_store(&self, name: &str, store: GraphStore) -> Result<Arc<GraphStore>, GrepairError> {
        store.set_generation(1);
        let store = Arc::new(store);
        self.register(name, None, Some(Arc::clone(&store)))?;
        Ok(store)
    }

    /// Remove `name` from the registry. In-flight queries holding the
    /// store's `Arc` finish normally; new resolutions error.
    pub fn detach(&self, name: &str) -> Result<(), GrepairError> {
        let removed = self
            .namespaces
            .write()
            .remove(name)
            .ok_or_else(|| unknown(name))?;
        if let Some(store) = removed.resident() {
            self.retire(&store);
        }
        self.retired_trips
            .fetch_add(removed.health.trips.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }

    /// Is `name` registered?
    pub fn contains(&self, name: &str) -> bool {
        self.namespaces
            .read()
            .contains_key(name)
    }

    /// Registered namespaces in sorted order: `(name, resident, generation)`.
    pub fn list(&self) -> Vec<(String, bool, u64)> {
        self.namespaces
            .read()
            .iter()
            .map(|(name, ns)| {
                (
                    name.clone(),
                    ns.resident().is_some(),
                    ns.generation.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Resolution (the per-request hot path)
    // ------------------------------------------------------------------

    /// Resolve `name` to its serving store, opening it if cold (first
    /// query after a cold attach, or after an eviction — both counted in
    /// [`RegistryStats::cold_opens`]). Callers keep the returned `Arc` for
    /// one request/batch: a concurrent reload, eviction, or detach never
    /// invalidates it, it only stops *new* resolutions from seeing it.
    pub fn store(&self, name: &str) -> Result<Arc<GraphStore>, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        ns.last_hit.store(self.tick(), Ordering::Relaxed);
        if let Some(store) = ns.resident() {
            return Ok(store);
        }
        // Cold: open under the slot's write lock so concurrent hits pay
        // one decode between them, not one each.
        let mut slot = ns.slot.write();
        if let Some(store) = slot.clone() {
            return Ok(store);
        }
        let path = ns
            .path
            .lock()
            .clone()
            .ok_or_else(|| {
                // Unreachable by construction (pathless tenants are
                // registered resident and never evicted) — but the serving
                // path must degrade to an error line, never a panic.
                GrepairError::BadRequest(format!("namespace {name:?} has no container path"))
            })?;
        // Circuit breaker (DESIGN.md §10): a namespace whose container
        // keeps failing answers fast instead of hammering the disk on
        // every request. Once the cooldown elapses, the breaker is
        // half-open and this request becomes the probe. Checked under the
        // slot write lock, so a concurrent successful probe is never
        // overruled.
        if ns.breaker_refuses(self.now_ms()) {
            let health = ns.health(self.now_ms());
            return Err(GrepairError::Unavailable(format!(
                "namespace {name:?} circuit open after {} failed opens (last: {})",
                health.open_failures,
                health.last_error.as_deref().unwrap_or("unknown"),
            )));
        }
        let store = match self.open_with_retry(&path) {
            Ok(store) => store,
            Err(e) => {
                ns.note_failure(self.now_ms(), false, &e);
                return Err(e);
            }
        };
        ns.note_success();
        // First-ever open moves the namespace to generation 1; a reopen
        // after eviction re-stamps the *unchanged* generation, so clients
        // cannot tell an evicted store from one that stayed resident.
        let generation = match ns.generation.load(Ordering::Relaxed) {
            0 => {
                ns.generation.store(1, Ordering::Relaxed);
                1
            }
            g => g,
        };
        store.set_generation(generation);
        let store = Arc::new(store);
        *slot = Some(Arc::clone(&store));
        drop(slot);
        self.cold_opens.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(name);
        Ok(store)
    }

    /// Open `path` with up to [`COLD_OPEN_ATTEMPTS`] tries, sleeping
    /// [`retry_backoff`] between them. Only I/O failures retry — a
    /// container that decodes wrong fails the same way every time. The
    /// `registry.cold_open` failpoint fires per attempt, so `first(N):err`
    /// exercises the retry path end to end (DESIGN.md §10).
    fn open_with_retry(&self, path: &str) -> Result<GraphStore, GrepairError> {
        let mut retry = 0u32;
        loop {
            let attempt = grepair_util::fail::point("registry.cold_open")
                .map_err(|error| GrepairError::Io { path: path.into(), error })
                .and_then(|()| GraphStore::open(path));
            match attempt {
                Ok(store) => return Ok(store),
                Err(GrepairError::Io { .. }) if retry + 1 < COLD_OPEN_ATTEMPTS => {
                    retry += 1;
                    std::thread::sleep(retry_backoff(retry));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One namespace's failure counters and breaker state.
    pub fn health_of(&self, name: &str) -> Result<NamespaceHealth, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        Ok(ns.health(self.now_ms()))
    }

    // ------------------------------------------------------------------
    // Reload
    // ------------------------------------------------------------------

    /// Swap `store` in under `name` and hand back the swapped-in `Arc` —
    /// callers reporting on the reload must read generation *and* node
    /// count from this snapshot, not from a fresh resolution, or a
    /// concurrent swap can pair one generation with another generation's
    /// data. The old store keeps serving whoever already holds its `Arc`.
    pub fn swap(&self, name: &str, store: GraphStore) -> Result<Arc<GraphStore>, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        // Swapping in fresh container data rebases the namespace: retained
        // versions described deltas over the *old* base, so the patch log
        // is dropped and the namespace starts over at v0 (DESIGN.md §12).
        // The caller named that intent; `reload` asks first.
        let mut versions = ns.versions.lock();
        *versions = None;
        Ok(self.swap_in_arc(name, &ns, Arc::new(store)))
    }

    /// The swap itself, shared by rebases ([`Self::swap`], reloads) and
    /// patch application (which must *keep* its log). Callers hold the
    /// namespace's `versions` lock: the order is versions → slot.
    fn swap_in_arc(&self, name: &str, ns: &Namespace, store: Arc<GraphStore>) -> Arc<GraphStore> {
        ns.last_hit.store(self.tick(), Ordering::Relaxed);
        let mut slot = ns.slot.write();
        // Bump under the write lock: concurrent swaps serialize here, so
        // each store gets a distinct, strictly increasing generation.
        let generation = ns.generation.fetch_add(1, Ordering::Relaxed) + 1;
        store.set_generation(generation);
        if let Some(old) = slot.replace(Arc::clone(&store)) {
            self.retire(&old);
        }
        drop(slot);
        self.enforce_budget(name);
        store
    }

    /// Load a fresh container and swap it in under `name`: the `RELOAD`
    /// admin command and the `SIGHUP` path. With `path` = `None` the
    /// namespace's recorded path is re-read; with an explicit path the
    /// recorded path is updated too, so later evict/reopen cycles follow
    /// the reload. The decode and index build run *before* any lock is
    /// taken, so serving never stalls on a reload, and any error (missing
    /// file, hostile bytes) leaves the current store untouched. A namespace
    /// whose patch log holds a patch is not reloaded at all: dropping
    /// versions a client wrote takes a `DETACH` (or [`Self::swap`]), never
    /// a `RELOAD` or `SIGHUP` that did not ask for it (DESIGN.md §12.3).
    pub fn reload(&self, name: &str, path: Option<&str>) -> Result<Arc<GraphStore>, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        let target = match path {
            Some(p) => p.to_string(),
            None => ns
                .path
                .lock()
                .clone()
                .ok_or_else(|| {
                    GrepairError::BadRequest(format!(
                        "namespace {name:?} has no container path to reload from"
                    ))
                })?,
        };
        // Failpoint `reload.swap` injects a failure between the successful
        // decode and the swap — the window a real deploy can die in. A
        // failed reload (either way) leaves the old store serving and is
        // recorded per namespace, so `STATS <name>`/`INFO` surface a
        // wedged reload instead of it only reaching stderr.
        let opened = GraphStore::open(&target).and_then(|store| {
            grepair_util::fail::point("reload.swap")
                .map_err(|error| GrepairError::Io { path: target.clone(), error })
                .map(|()| store)
        });
        let store = match opened {
            Ok(store) => store,
            Err(e) => {
                ns.note_failure(self.now_ms(), true, &e);
                return Err(e);
            }
        };
        // Decided under the `versions` lock, held through the swap, so no
        // concurrent `PATCH` slips in between. The refusal is the client's
        // answer, not a fault: it counts as no failure and feeds no breaker.
        let mut versions = ns.versions.lock();
        let patched = versions.as_ref().map_or(0, |log| log.head_version());
        if patched > 0 {
            return Err(GrepairError::BadRequest(format!(
                "namespace {name:?} holds {patched} patched versions; RELOAD would drop them (DETACH + ATTACH rebases)"
            )));
        }
        *versions = None;
        ns.note_success();
        if path.is_some() {
            *ns.path.lock() = Some(target);
        }
        Ok(self.swap_in_arc(name, &ns, Arc::new(store)))
    }

    // ------------------------------------------------------------------
    // Versioning (DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Apply one edge patch to `name`, creating a new retained version and
    /// swapping its store in as the namespace's head — the wire protocol's
    /// `PATCH ADD|DEL`. The first patch opens the namespace's patch log
    /// with the currently resolved store as `v0`. Returns the new version's
    /// summary and the swapped-in head, whose generation the caller must
    /// report from (not from a fresh resolution — same rule as reloads).
    ///
    /// Patch application reuses the reload machinery: the head swaps in
    /// under the slot write lock with a generation bump, in-flight queries
    /// finish on the old head's `Arc`, and a failed patch (validation, the
    /// `patch.apply` failpoint) changes nothing — no version is created,
    /// no generation is consumed.
    pub fn patch(
        &self,
        name: &str,
        patch: EdgePatch,
    ) -> Result<(VersionSummary, Arc<GraphStore>), GrepairError> {
        // Resolve first: a cold namespace opens here, and that resident
        // store becomes the log's base.
        let base = self.store(name)?;
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        // Hold the log lock across apply + swap so concurrent patches
        // serialize and the slot's head can never lag the log's head.
        // (Lock order is versions → slot, same as `swap`; eviction
        // takes only slot locks, and a patched head reports 0 resident
        // bytes so budget enforcement never turns back on this namespace.)
        let mut log_slot = ns.versions.lock();
        let log = match &*log_slot {
            Some(log) => Arc::clone(log),
            None => {
                let log = Arc::new(VersionedStore::new(base)?);
                *log_slot = Some(Arc::clone(&log));
                log
            }
        };
        let (summary, store) = log.apply(patch)?;
        let swapped = self.swap_in_arc(name, &ns, store);
        drop(log_slot);
        Ok((summary, swapped))
    }

    /// Resolve `name` pinned to retained version `version` — the wire
    /// protocol's `@vN` addressing. Version 0 of a never-patched namespace
    /// is the namespace's store itself; any other version exists only in
    /// the patch log.
    pub fn store_at(&self, name: &str, version: u64) -> Result<Arc<GraphStore>, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        let log = ns.versions.lock().clone();
        match log {
            Some(log) => {
                ns.last_hit.store(self.tick(), Ordering::Relaxed);
                log.at(version)
            }
            None if version == 0 => self.store(name),
            None => Err(GrepairError::BadRequest(format!(
                "unknown version v{version} (head is v0)"
            ))),
        }
    }

    /// Every retained version of `name` — the `VERSIONS` admin reply. A
    /// never-patched namespace reports the single version `v0=+0-0`.
    pub fn versions_of(&self, name: &str) -> Result<Vec<VersionSummary>, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        let log = ns.versions.lock().clone();
        Ok(match log {
            Some(log) => log.summaries(),
            None => vec![VersionSummary { version: 0, added: 0, removed: 0 }],
        })
    }

    // ------------------------------------------------------------------
    // Budget and eviction
    // ------------------------------------------------------------------

    /// Configure the eviction budget (container bytes; `None` = unlimited)
    /// and immediately enforce it.
    pub fn set_budget(&self, budget: Option<u64>) {
        self.budget.store(budget.unwrap_or(NO_BUDGET), Ordering::Relaxed);
        self.enforce_budget("");
    }

    /// The configured eviction budget, if any.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(Ordering::Relaxed) {
            NO_BUDGET => None,
            b => Some(b),
        }
    }

    /// Total container bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.namespaces
            .read()
            .values()
            .filter_map(|ns| ns.resident())
            .map(|s| s.resident_bytes())
            .sum()
    }

    /// Number of namespaces currently holding a store.
    pub fn resident_count(&self) -> usize {
        self.namespaces
            .read()
            .values()
            .filter(|ns| ns.resident().is_some())
            .count()
    }

    /// Evict least-recently-hit resident stores until the resident
    /// container bytes fit the budget again. `keep` (the namespace whose
    /// load triggered enforcement) is evicted only as the last resort —
    /// when it alone exceeds the budget, it stays resident anyway, because
    /// evicting the store a request is about to use would just force an
    /// immediate reopen. Pathless (in-memory) tenants are never evicted;
    /// they report 0 bytes and cannot be reopened. The same 0-byte rule
    /// protects patched heads (overlay stores, DESIGN.md §12): reopening
    /// from the container path would silently rewind the namespace to its
    /// base, and evicting a 0-byte resident frees nothing anyway.
    fn enforce_budget(&self, keep: &str) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == NO_BUDGET {
            return;
        }
        let _serialize = self.budget_lock.lock();
        loop {
            // Snapshot resident sizes and LRU ranks outside any slot lock.
            let map = self.namespaces.read();
            let mut total = 0u64;
            let mut victim: Option<(u64, Arc<Namespace>)> = None;
            for (name, ns) in map.iter() {
                let Some(store) = ns.resident() else { continue };
                total += store.resident_bytes();
                let evictable =
                    name != keep && ns.path.lock().is_some() && store.resident_bytes() > 0;
                if evictable {
                    let hit = ns.last_hit.load(Ordering::Relaxed);
                    if victim.as_ref().is_none_or(|(best, _)| hit < *best) {
                        victim = Some((hit, Arc::clone(ns)));
                    }
                }
            }
            drop(map);
            if total <= budget {
                return;
            }
            let Some((_, ns)) = victim else { return };
            // Failpoint `registry.evict` widens the eviction-vs-cold-open
            // race window deterministically (delay); an `err` spec skips
            // this round — eviction itself cannot fail.
            if grepair_util::fail::point("registry.evict").is_err() {
                return;
            }
            let evicted = ns.slot.write().take();
            if let Some(store) = evicted {
                self.retire(&store);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Aggregate statistics across every namespace — the bare `STATS`
    /// reply. Query/error totals include retired stores (evicted,
    /// detached, or replaced by a reload), so they are monotonic.
    pub fn aggregate_stats(&self) -> RegistryStats {
        let map = self.namespaces.read();
        let mut resident = 0u64;
        let mut resident_bytes = 0u64;
        let mut queries = self.retired_queries.load(Ordering::Relaxed);
        let mut errors = self.retired_errors.load(Ordering::Relaxed);
        let mut breaker_trips = self.retired_trips.load(Ordering::Relaxed);
        let namespaces = map.len() as u64;
        for ns in map.values() {
            breaker_trips += ns.health.trips.load(Ordering::Relaxed);
            if let Some(store) = ns.resident() {
                let stats = store.stats();
                resident += 1;
                resident_bytes += stats.resident_bytes;
                queries += stats.queries_served;
                errors += stats.errors;
            }
        }
        RegistryStats {
            namespaces,
            resident,
            resident_bytes,
            budget: self.budget(),
            evictions: self.evictions.load(Ordering::Relaxed),
            cold_opens: self.cold_opens.load(Ordering::Relaxed),
            queries,
            errors,
            breaker_trips,
        }
    }

    /// Statistics of one namespace's serving store (resolving it if cold).
    pub fn stats_for(&self, name: &str) -> Result<StoreStats, GrepairError> {
        Ok(self.store(name)?.stats())
    }

    /// Generation of `name`: 0 for a cold-attached namespace that was
    /// never opened, 1 from the first open, `+1` per reload.
    pub fn generation_of(&self, name: &str) -> Result<u64, GrepairError> {
        let ns = self.lookup(name).ok_or_else(|| unknown(name))?;
        Ok(ns.generation.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_container, Query};
    use grepair_core::{compress, GRePairConfig};
    use grepair_hypergraph::Hypergraph;

    fn g2g(reps: u32) -> Vec<u8> {
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        write_container(&enc.bytes, enc.bit_len)
    }

    fn store(reps: u32) -> GraphStore {
        GraphStore::from_bytes(&g2g(reps)).unwrap()
    }

    /// Write `reps` containers to temp files and return their paths.
    fn g2g_files(tag: &str, sizes: &[u32]) -> Vec<String> {
        let dir = std::env::temp_dir();
        sizes
            .iter()
            .enumerate()
            .map(|(i, &reps)| {
                let path = dir.join(format!(
                    "grepair_registry_{tag}_{}_{i}.g2g",
                    std::process::id()
                ));
                std::fs::write(&path, g2g(reps)).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect()
    }

    fn cleanup(paths: &[String]) {
        for p in paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn swap_bumps_generation_and_keeps_old_snapshots_alive() {
        let registry = StoreRegistry::new(store(8));
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(1));
        assert_eq!(registry.stats_for(DEFAULT_NAMESPACE).unwrap().generation, 1);
        let old = registry.store(DEFAULT_NAMESPACE).unwrap();
        assert_eq!(old.total_nodes(), 17);

        assert_eq!(registry.swap(DEFAULT_NAMESPACE, store(16)).unwrap().generation(), 2);
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(2));
        let new = registry.store(DEFAULT_NAMESPACE).unwrap();
        assert_eq!(new.total_nodes(), 33);
        assert_eq!(new.generation(), 2);

        // The pre-swap snapshot is unaffected: still generation 1, still
        // answering, with its own counters.
        assert_eq!(old.generation(), 1);
        assert!(old.query(&Query::OutNeighbors(0)).is_ok());
        assert_eq!(old.stats().generation, 1);

        // Swapping under a name nobody attached is an error, not a panic.
        assert!(registry.swap("ghost", store(2)).is_err());
    }

    #[test]
    fn failed_reload_leaves_the_current_store_serving() {
        let registry = StoreRegistry::new(store(4));
        let before = registry.generation_of(DEFAULT_NAMESPACE);
        assert!(registry.reload(DEFAULT_NAMESPACE, Some("/nonexistent/grepair.g2g")).is_err());
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), before);
        assert!(registry.store(DEFAULT_NAMESPACE).unwrap().reachable(0, 8).unwrap());
    }

    #[test]
    fn reload_of_a_real_file_swaps() {
        let paths = g2g_files("reload", &[12]);
        let registry = StoreRegistry::new(store(4));
        let reloaded = registry.reload(DEFAULT_NAMESPACE, Some(&paths[0])).unwrap();
        assert_eq!(reloaded.generation(), 2);
        assert_eq!(reloaded.total_nodes(), 25);
        assert!(Arc::ptr_eq(&reloaded, &registry.store(DEFAULT_NAMESPACE).unwrap()));
        cleanup(&paths);
    }

    #[test]
    fn concurrent_readers_survive_swaps() {
        let registry = StoreRegistry::new(store(8));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let registry = &registry;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let snapshot = registry.store(DEFAULT_NAMESPACE).unwrap();
                        // Node 0 exists in every generation served here.
                        let answer = snapshot.query(&Query::OutNeighbors(i % 17));
                        assert!(answer.is_ok(), "{answer:?}");
                    }
                });
            }
            let registry = &registry;
            scope.spawn(move || {
                for _ in 0..20 {
                    registry.swap(DEFAULT_NAMESPACE, store(8)).unwrap();
                }
            });
        });
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(21));
        assert_eq!(registry.store(DEFAULT_NAMESPACE).unwrap().generation(), 21);
    }

    // ------------------------------------------------------------------
    // Multi-tenant behavior
    // ------------------------------------------------------------------

    #[test]
    fn namespace_names_are_validated() {
        assert!(valid_namespace("default"));
        assert!(valid_namespace("tenant-1.prod_x"));
        assert!(!valid_namespace(""));
        assert!(!valid_namespace("has space"));
        assert!(!valid_namespace("colon:here"));
        assert!(!valid_namespace(&"x".repeat(MAX_NAMESPACE_LEN + 1)));
        let registry = StoreRegistry::new(store(4));
        assert!(registry.attach_cold("bad name", "/x").is_err());
        assert!(registry.attach_store("", store(4)).is_err());
    }

    #[test]
    fn attach_detach_and_list() {
        let paths = g2g_files("attach", &[4, 8]);
        let registry = StoreRegistry::new(store(2));
        let a = registry.attach("a", &paths[0]).unwrap();
        assert_eq!(a.generation(), 1);
        assert_eq!(a.total_nodes(), 9);
        registry.attach_cold("b", &paths[1]).unwrap();

        // Sorted, with residency and generation.
        assert_eq!(
            registry.list(),
            vec![
                ("a".into(), true, 1),
                ("b".into(), false, 0),
                ("default".into(), true, 1),
            ]
        );

        // Duplicate names are rejected, registry untouched.
        assert!(registry.attach("a", &paths[1]).is_err());
        assert_eq!(registry.store("a").unwrap().total_nodes(), 9);

        // Lazy open on first resolution: generation 0 → 1, cold open counted.
        assert_eq!(registry.store("b").unwrap().total_nodes(), 17);
        assert_eq!(registry.generation_of("b").unwrap(), 1);
        assert_eq!(registry.aggregate_stats().cold_opens, 1);

        registry.detach("a").unwrap();
        assert!(registry.store("a").is_err());
        assert!(registry.detach("a").is_err(), "double detach errors");
        assert_eq!(registry.list().len(), 2);
        cleanup(&paths);
    }

    #[test]
    fn failed_attach_registers_nothing() {
        let registry = StoreRegistry::new(store(4));
        assert!(registry.attach("bad", "/nonexistent/x.g2g").is_err());
        assert!(!registry.contains("bad"));
        // A hostile container likewise: error, no registration.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("grepair_registry_hostile_{}.g2g", std::process::id()));
        std::fs::write(&path, b"G2G1 definitely not a container").unwrap();
        assert!(registry.attach("bad", path.to_str().unwrap()).is_err());
        assert!(!registry.contains("bad"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_is_per_namespace() {
        let paths = g2g_files("perns", &[4, 8, 12]);
        let registry = StoreRegistry::new(store(2));
        registry.attach("a", &paths[0]).unwrap();
        registry.attach("b", &paths[1]).unwrap();

        let reloaded = registry.reload("a", Some(&paths[2])).unwrap();
        assert_eq!(reloaded.generation(), 2);
        assert_eq!(reloaded.total_nodes(), 25);
        // The sibling namespace's generation is untouched.
        assert_eq!(registry.generation_of("b").unwrap(), 1);
        assert_eq!(registry.generation_of(DEFAULT_NAMESPACE), Ok(1));

        // Bare reload re-reads the recorded path — which the explicit
        // reload above updated.
        let again = registry.reload("a", None).unwrap();
        assert_eq!(again.generation(), 3);
        assert_eq!(again.total_nodes(), 25);
        cleanup(&paths);
    }

    #[test]
    fn eviction_respects_budget_and_reopens_transparently() {
        let sizes = [8u32, 10, 12];
        let paths = g2g_files("evict", &sizes);
        let registry = StoreRegistry::new(store(2)); // in-memory, 0 bytes
        for (i, p) in paths.iter().enumerate() {
            registry.attach(&format!("t{i}"), p).unwrap();
        }
        let total = registry.resident_bytes();
        assert!(total > 0);
        let one = registry.store("t0").unwrap().resident_bytes();

        // Budget below the combined size: the registry must shed stores.
        let budget = total - 1;
        registry.set_budget(Some(budget));
        assert!(registry.resident_bytes() <= budget);
        let evicted_so_far = registry.aggregate_stats().evictions;
        assert!(evicted_so_far >= 1);

        // An evicted namespace is still registered and reopens on hit with
        // its generation unchanged — byte-identical to a never-evicted twin.
        let cold: Vec<String> = registry
            .list()
            .into_iter()
            .filter(|(_, resident, _)| !resident)
            .map(|(name, _, _)| name)
            .collect();
        assert!(!cold.is_empty());
        for name in &cold {
            let reopened = registry.store(name).unwrap();
            assert_eq!(reopened.generation(), 1, "evict/reopen must not bump");
            let twin = GraphStore::from_bytes(&std::fs::read(
                paths[name.strip_prefix('t').unwrap().parse::<usize>().unwrap()].as_str(),
            ).unwrap())
            .unwrap();
            for v in 0..reopened.total_nodes() {
                assert_eq!(
                    reopened.query(&Query::OutNeighbors(v)),
                    twin.query(&Query::OutNeighbors(v)),
                );
            }
            // The reopen itself may have evicted someone else, but the
            // budget invariant holds after every operation.
            assert!(registry.resident_bytes() <= budget);
        }

        // A budget smaller than any single store: everything evictable is
        // shed except the store a request just touched.
        registry.set_budget(Some(one / 2));
        let touched = registry.store("t2").unwrap();
        assert_eq!(touched.total_nodes(), 25);
        let resident_evictable = registry
            .list()
            .into_iter()
            .filter(|(name, resident, _)| *resident && name != "default")
            .count();
        assert_eq!(resident_evictable, 1, "only the just-touched store stays");
        cleanup(&paths);
    }

    #[test]
    fn pathless_tenants_are_never_evicted() {
        let registry = StoreRegistry::new(store(8));
        registry.attach_store("mem", store(4)).unwrap();
        registry.set_budget(Some(0));
        // Nothing to evict: both tenants are in-memory (0 resident bytes).
        assert_eq!(registry.resident_count(), 2);
        assert_eq!(registry.aggregate_stats().evictions, 0);
        assert!(registry.store("mem").is_ok());
    }

    #[test]
    fn aggregate_stats_fold_in_retired_stores() {
        let paths = g2g_files("fold", &[4]);
        let registry = StoreRegistry::new(store(4));
        registry.attach("a", &paths[0]).unwrap();
        let a = registry.store("a").unwrap();
        let _ = a.query(&Query::OutNeighbors(0));
        let _ = a.query(&Query::OutNeighbors(1 << 40)); // error
        drop(a);
        registry.detach("a").unwrap();
        let stats = registry.aggregate_stats();
        assert_eq!(stats.queries, 2, "{stats}");
        assert_eq!(stats.errors, 1, "{stats}");
        let rendered = stats.to_string();
        assert!(rendered.starts_with("namespaces=1 resident=1 "), "{rendered}");
        assert!(rendered.contains("budget=none"), "{rendered}");
        cleanup(&paths);
    }

    #[test]
    fn concurrent_tenants_survive_reloads_and_evictions() {
        let paths = g2g_files("conc", &[8, 8, 8]);
        let registry = StoreRegistry::new(store(8));
        for (i, p) in paths.iter().enumerate() {
            registry.attach(&format!("t{i}"), p).unwrap();
        }
        let one = registry.store("t0").unwrap().resident_bytes();
        registry.set_budget(Some(2 * one));
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let registry = &registry;
                scope.spawn(move || {
                    let name = format!("t{t}");
                    for i in 0..200u64 {
                        let snapshot = registry.store(&name).unwrap();
                        assert!(snapshot.query(&Query::OutNeighbors(i % 17)).is_ok());
                    }
                });
            }
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..20u64 {
                    let _ = registry.reload(&format!("t{}", i % 3), None);
                }
            });
        });
        // Budget holds at rest; every tenant still answers.
        assert!(registry.resident_bytes() <= 2 * one);
        for t in 0..3 {
            assert!(registry.store(&format!("t{t}")).is_ok());
        }
        cleanup(&paths);
    }

    // ------------------------------------------------------------------
    // Versioning (DESIGN.md §12)
    // ------------------------------------------------------------------

    /// A rule-free grammar path store (no node renumbering, unlike a
    /// compressed grammar): `0 -0-> 1 -0-> … -0-> n-1`.
    fn path_store(n: u32) -> GraphStore {
        let g = Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, 0u32, i + 1))).0;
        GraphStore::from_grammar(grepair_grammar::Grammar::new(g, 1)).unwrap()
    }

    #[test]
    fn patches_bump_generation_and_retain_versions() {
        let registry = StoreRegistry::new(store(2));
        registry.attach_store("g", path_store(4)).unwrap();
        assert_eq!(
            registry.versions_of("g").unwrap(),
            vec![VersionSummary { version: 0, added: 0, removed: 0 }]
        );
        // @v0 of a never-patched namespace is the store itself; any other
        // version is unknown.
        assert!(Arc::ptr_eq(
            &registry.store_at("g", 0).unwrap(),
            &registry.store("g").unwrap()
        ));
        assert!(registry.store_at("g", 1).unwrap_err().to_string().contains("unknown version"));

        let (v1, head) = registry.patch("g", EdgePatch::parse("ADD 3 0 0").unwrap()).unwrap();
        assert_eq!(v1, VersionSummary { version: 1, added: 1, removed: 0 });
        assert_eq!(head.generation(), 2, "patch rides the reload generation machinery");
        assert!(Arc::ptr_eq(&head, &registry.store("g").unwrap()), "bare queries track the head");
        assert!(head.reachable(3, 2).unwrap());
        // Time travel: v0 still answers its own state.
        assert!(!registry.store_at("g", 0).unwrap().reachable(3, 2).unwrap());

        let (v2, head2) = registry.patch("g", EdgePatch::parse("DEL 1 0 2").unwrap()).unwrap();
        assert_eq!((v2.version, head2.generation()), (2, 3));
        assert_eq!(
            registry.versions_of("g").unwrap(),
            vec![
                VersionSummary { version: 0, added: 0, removed: 0 },
                VersionSummary { version: 1, added: 1, removed: 0 },
                VersionSummary { version: 2, added: 1, removed: 1 },
            ]
        );
        // A failed patch consumes nothing: no version, no generation.
        assert!(registry.patch("g", EdgePatch::parse("DEL 1 0 2").unwrap()).is_err());
        assert_eq!(registry.store("g").unwrap().generation(), 3);
        assert_eq!(registry.versions_of("g").unwrap().len(), 3);
        // Unknown namespaces error across the whole versioning surface.
        assert!(registry.patch("nope", EdgePatch::parse("ADD 0 0 1").unwrap()).is_err());
        assert!(registry.store_at("nope", 0).is_err());
        assert!(registry.versions_of("nope").is_err());
    }

    #[test]
    fn reload_refuses_to_drop_a_patch_log() {
        let paths = g2g_files("norebase", &[4, 6]);
        let registry = StoreRegistry::new(store(2));
        registry.attach("a", &paths[0]).unwrap();
        registry.attach("b", &paths[1]).unwrap();
        registry.patch("a", EdgePatch::parse("ADD 0 7 1").unwrap()).unwrap();
        registry.patch("a", EdgePatch::parse("ADD 1 7 0").unwrap()).unwrap();
        let versions = registry.versions_of("a").unwrap();
        assert_eq!(versions.len(), 3);

        // Bare or with a path, RELOAD answers a per-line error and changes
        // nothing: versions, head answers, generation, failure counters.
        for path in [None, Some(paths[1].as_str())] {
            let err = registry.reload("a", path).unwrap_err();
            assert_eq!(
                err.to_string(),
                "bad request: namespace \"a\" holds 2 patched versions; \
                 RELOAD would drop them (DETACH + ATTACH rebases)"
            );
        }
        assert_eq!(registry.versions_of("a").unwrap(), versions);
        let head = registry.store("a").unwrap();
        assert!(head.rpq("7 7", 0, 0).unwrap(), "the head still serves both patches");
        assert!(registry.store_at("a", 1).unwrap().rpq("7", 0, 1).unwrap());
        assert_eq!((head.generation(), head.total_nodes()), (3, 9));
        assert_eq!(registry.generation_of("a"), Ok(3));
        let health = registry.health_of("a").unwrap();
        assert_eq!((health.reload_failures, health.last_error), (0, None));

        // An unpatched namespace reloads as before — also one whose log
        // was opened by a patch that was refused.
        assert!(registry.patch("b", EdgePatch::parse("DEL 0 7 1").unwrap()).is_err());
        assert_eq!(registry.reload("b", None).unwrap().generation(), 2);
        assert_eq!(registry.store("b").unwrap().total_nodes(), 13);
        cleanup(&paths);
    }

    #[test]
    fn swap_and_detach_rebase() {
        // The programmatic rebase and DETACH name their intent: both drop
        // the log, and the namespace starts over at v0.
        let paths = g2g_files("rebase", &[4]);
        let registry = StoreRegistry::new(store(2));
        registry.patch(DEFAULT_NAMESPACE, EdgePatch::parse("ADD 0 7 1").unwrap()).unwrap();
        assert_eq!(registry.versions_of(DEFAULT_NAMESPACE).unwrap().len(), 2);
        registry.swap(DEFAULT_NAMESPACE, store(2)).unwrap();
        assert_eq!(
            registry.versions_of(DEFAULT_NAMESPACE).unwrap(),
            vec![VersionSummary { version: 0, added: 0, removed: 0 }]
        );
        assert!(registry.store_at(DEFAULT_NAMESPACE, 1).is_err());

        registry.attach("a", &paths[0]).unwrap();
        registry.patch("a", EdgePatch::parse("ADD 0 7 1").unwrap()).unwrap();
        registry.detach("a").unwrap();
        registry.attach("a", &paths[0]).unwrap();
        assert_eq!(registry.versions_of("a").unwrap().len(), 1);
        assert!(!registry.store("a").unwrap().rpq("7", 0, 1).unwrap());
        assert_eq!(registry.reload("a", None).unwrap().generation(), 2);
        cleanup(&paths);
    }

    /// The breaker with an honest fault — no `fail` feature: a cold
    /// tenant's container vanishes, resolutions trip the breaker, an open
    /// breaker refuses without touching the disk, and once the file is
    /// back the half-open probe re-admits the tenant.
    #[test]
    fn vanished_container_trips_the_breaker_and_its_return_recovers() {
        let paths = g2g_files("breaker", &[4]);
        let registry = StoreRegistry::new(store(2));
        registry.attach_cold("flaky", &paths[0]).unwrap();
        cleanup(&paths);
        for _ in 0..BREAKER_THRESHOLD {
            assert!(matches!(registry.store("flaky"), Err(GrepairError::Io { .. })));
        }
        let health = registry.health_of("flaky").unwrap();
        assert!(health.breaker_open, "{health:?}");
        assert_eq!(health.breaker_trips, 1);
        // Open: refused as `Unavailable`, not another failed open.
        assert!(matches!(registry.store("flaky"), Err(GrepairError::Unavailable(_))));
        assert_eq!(registry.health_of("flaky").unwrap().open_failures, health.open_failures);
        // The healthy neighbor is unaffected.
        assert!(registry.store(DEFAULT_NAMESPACE).is_ok());

        std::fs::write(&paths[0], g2g(4)).unwrap();
        std::thread::sleep(BREAKER_COOLDOWN);
        assert_eq!(registry.store("flaky").unwrap().total_nodes(), 9);
        assert!(!registry.health_of("flaky").unwrap().breaker_open);
        cleanup(&paths);
    }

    #[test]
    fn patched_heads_survive_budget_pressure() {
        let paths = g2g_files("verprot", &[8, 8]);
        let registry = StoreRegistry::new(store(2));
        registry.attach("a", &paths[0]).unwrap();
        registry.attach("b", &paths[1]).unwrap();
        registry.patch("a", EdgePatch::parse("ADD 0 9 1").unwrap()).unwrap();
        // A zero budget sheds every evictable container — but "a"'s head
        // is an overlay (0 resident bytes) whose eviction would silently
        // rewind the namespace to its base.
        registry.set_budget(Some(0));
        let list = registry.list();
        let resident = |name: &str| list.iter().any(|(n, r, _)| n == name && *r);
        assert!(resident("a"), "{list:?}");
        assert!(!resident("b"), "{list:?}");
        assert!(registry.store("a").unwrap().rpq("9", 0, 1).unwrap());
        cleanup(&paths);
    }
}
