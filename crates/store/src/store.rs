//! The long-lived query-serving store.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use grepair_grammar::Grammar;
use grepair_queries::neighbors::Direction;
use grepair_util::FxHashMap;

use crate::backend::{split_any_container, QueryEngine};
use crate::engine::GrammarEngine;
use crate::query::{error_reply, Query, QueryAnswer};
use crate::GrepairError;

/// What every query entry point returns: a shared handle to the answer, so
/// a repeated query in a batch is an `Arc` clone, never a `Vec` copy.
type AnswerResult = Result<Arc<QueryAnswer>, GrepairError>;

/// Something that can run a set of borrowed jobs to completion — the seam
/// between the store's batch partitioning and whoever owns the threads.
///
/// A long-lived server plugs in a reusable worker pool (`grepair-server`'s
/// `WorkerPool`), so small batches do not pay a per-batch thread spawn. The
/// batch being fanned out may be served by the grammar or by a patched
/// version — the jobs capture `&GraphStore`, which calls the engine behind
/// it.
///
/// # Contract
///
/// `scope` must run (or at worst drop) every job before returning — the
/// jobs borrow the caller's stack. Safe implementations can only uphold
/// this (a borrowed job cannot be smuggled past `scope`'s return without
/// `unsafe`); implementations using `unsafe` to ship jobs to long-lived
/// threads must block until all jobs are done.
pub trait BatchExecutor {
    /// How many jobs one batch should be split into at most (usually the
    /// number of worker threads).
    fn max_workers(&self) -> usize;

    /// Run every job to completion before returning.
    fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>);
}

/// Monotonic serving counters. Every counter is an [`AtomicU64`] bumped with
/// `Relaxed` ordering — correct under the concurrent batch paths (each
/// increment lands exactly once) and free of any lock. The grammar engine's
/// cache hit/miss counters live with the engine (`engine::CacheCounters`).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    batches: AtomicU64,
    parallel_batches: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time snapshot of a store's serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Which generation of a [`crate::StoreRegistry`] this store is: `1`
    /// for a store that was never registered or registered first, and a
    /// strictly larger number for every store a reload swapped in (the
    /// registry's monotonic counter). Echoed by the wire protocol's
    /// `STATS`/`INFO` admin replies (DESIGN.md §6) so clients can observe
    /// a hot reload taking effect.
    pub generation: u64,
    /// Decode + index-build operations performed for this store (always 1:
    /// a reload builds a *new* store — see [`crate::StoreRegistry`]).
    pub loads: u64,
    /// Queries answered (each element of a batch counts once).
    pub queries_served: u64,
    /// `query_batch` / `render_batch` / `render_batch_on` invocations.
    pub batches: u64,
    /// [`GraphStore::render_batch_on`] invocations that actually fanned
    /// out to executor workers (also counted in `batches`).
    pub parallel_batches: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Size of the container image this store was decoded from, in bytes —
    /// the currency of the registry's `--memory-budget` (DESIGN.md §8).
    /// `0` for stores built in memory ([`GraphStore::from_grammar`], a
    /// patched version's store), which are never evicted.
    pub resident_bytes: u64,
    /// Memoized rule-expansion lookups that hit (0 for a patched version,
    /// whose store has no grammar engine of its own).
    pub expansion_cache_hits: u64,
    /// Memoized rule-expansion lookups that missed (and computed).
    pub expansion_cache_misses: u64,
    /// RPQ plan-cache hits (pattern already compiled against this grammar).
    pub rpq_plan_hits: u64,
    /// RPQ plan-cache misses.
    pub rpq_plan_misses: u64,
}

/// The `STATS` line. It still closes with `backend=grepair`, the one codec
/// left, so the line keeps its bytes under `PROTO_VERSION` 3 (DESIGN.md §6.3).
impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation={} loads={} queries={} batches={} (parallel={}) errors={} expansion_cache={}/{} rpq_plans={}/{} resident_bytes={} backend=grepair",
            self.generation,
            self.loads,
            self.queries_served,
            self.batches,
            self.parallel_batches,
            self.errors,
            self.expansion_cache_hits,
            self.expansion_cache_hits + self.expansion_cache_misses,
            self.rpq_plan_hits,
            self.rpq_plan_hits + self.rpq_plan_misses,
            self.resident_bytes,
        )
    }
}

/// A loaded compressed graph, indexed once, serving forever.
///
/// `GraphStore` is the serving-grade counterpart of the one-shot CLI path:
/// it loads a container through a fully fallible pipeline (no panic on any
/// byte sequence), decodes the grammar it holds (DESIGN.md §7), eagerly
/// builds the grammar's indexes, and then answers any number of [`Query`]s
/// — individually via [`GraphStore::query`], batched via
/// [`GraphStore::query_batch`], or rendered as reply lines via
/// [`GraphStore::render_batch`] and, across worker threads,
/// [`GraphStore::render_batch_on`]. All of them reach the engine through
/// the same call, and every reply's text comes from one renderer, the one
/// [`QueryAnswer`]'s `Display` uses.
///
/// All interior mutability is synchronized (once-filled cells, one
/// `RwLock`, atomic counters), so one store can be shared across threads
/// (`&GraphStore: Send + Sync`); a warm neighbor query takes no lock, a
/// warm `rpq` one read lock.
/// Answers come back as `Arc<QueryAnswer>` — a query repeated inside a
/// batch is a pointer clone, never a deep copy of a neighbor list — or, on
/// the wire's path ([`GraphStore::render_batch`]), as reply bytes appended
/// to the caller's buffer.
#[derive(Debug)]
pub struct GraphStore {
    engine: Arc<dyn QueryEngine>,
    /// `engine` again, typed, when the grammar engine is serving: what
    /// [`GraphStore::grammar`] hands out and where [`GraphStore::stats`]
    /// reads the cache counters. Queries never look at it.
    grammar_engine: Option<Arc<GrammarEngine>>,
    /// Whole-graph aggregates, computed at most once per loaded store —
    /// for the grammar in one O(|G|) pass, for a patched version by a full
    /// row scan.
    components: OnceLock<u64>,
    degrees: OnceLock<Option<(u64, u64)>>,
    counters: Counters,
    loads: u64,
    /// Container image size in bytes (see [`StoreStats::resident_bytes`]);
    /// `0` for stores that never came from a container.
    container_bytes: u64,
    /// Registry generation (see [`StoreStats::generation`]); `1` until a
    /// [`crate::StoreRegistry`] swap assigns a later one. Atomic because it
    /// is stamped through `&self` after the store is shared.
    generation: AtomicU64,
}

impl GraphStore {
    fn new(engine: Arc<dyn QueryEngine>, grammar_engine: Option<Arc<GrammarEngine>>) -> Self {
        Self {
            engine,
            grammar_engine,
            components: OnceLock::new(),
            degrees: OnceLock::new(),
            counters: Counters::default(),
            loads: 1,
            container_bytes: 0,
            generation: AtomicU64::new(1),
        }
    }

    /// A grammar-backed store over a grammar that already passed
    /// [`Grammar::validate`].
    fn from_validated_grammar(grammar: Grammar) -> Self {
        let engine = Arc::new(GrammarEngine::new(Arc::new(grammar)));
        Self::new(engine.clone(), Some(engine))
    }

    /// Build a grammar-backed store from an already-validated (or freshly
    /// compressed) grammar. Validation runs again here — the store's
    /// zero-panic guarantee must not depend on the caller's discipline.
    pub fn from_grammar(grammar: Grammar) -> Result<Self, GrepairError> {
        grammar
            .validate()
            .map_err(|e| GrepairError::Codec(grepair_codec::CodecError::Malformed(e)))?;
        Ok(Self::from_validated_grammar(grammar))
    }

    /// Build a store around an engine that is not a grammar — a patched
    /// version's overlay. The store supplies batching, parallel fan-out,
    /// the per-chunk duplicate collapse, aggregate memoization, counters,
    /// and hot-reload registration; the engine supplies the answers.
    pub(crate) fn from_engine(engine: Box<dyn QueryEngine>) -> Self {
        Self::new(Arc::from(engine), None)
    }

    /// Decode a `.g2g` container image and build the store.
    pub fn from_bytes(file: &[u8]) -> Result<Self, GrepairError> {
        let (_, bit_len, payload) = split_any_container(file)?;
        // `decode` validates what it returns: derivation and index building
        // never see structurally invalid rules (the §2 zero-panic policy).
        let grammar = grepair_codec::decode(payload, bit_len)?;
        let mut store = Self::from_validated_grammar(grammar);
        store.container_bytes = file.len() as u64;
        Ok(store)
    }

    /// Load a container file and build the store.
    pub fn open(path: &str) -> Result<Self, GrepairError> {
        // Failpoint `store.open.read` (DESIGN.md §10): injects an I/O
        // failure before the real read — a no-op unless the `fail`
        // feature armed it.
        grepair_util::fail::point("store.open.read")
            .map_err(|error| GrepairError::Io { path: path.into(), error })?;
        let file = std::fs::read(path)
            .map_err(|e| GrepairError::Io { path: path.into(), error: e.to_string() })?;
        Self::from_bytes(&file)
    }

    /// The grammar being served — `None` for a patched version's store.
    pub fn grammar(&self) -> Option<&Grammar> {
        self.grammar_engine.as_deref().map(GrammarEngine::grammar)
    }

    /// Number of nodes of the represented graph — valid query ids are
    /// `0..total_nodes()`.
    pub fn total_nodes(&self) -> u64 {
        self.engine.total_nodes()
    }

    /// Which registry generation this store is (see
    /// [`StoreStats::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Stamp the registry generation onto this store (only
    /// [`crate::StoreRegistry`] calls this — on swap/reload, and when a
    /// transparent evict-then-reopen re-stamps the reopened store with the
    /// namespace's unchanged generation).
    pub(crate) fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// Size of the container image this store was decoded from — `0` for
    /// stores built in memory (see [`StoreStats::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.container_bytes
    }

    /// Snapshot the serving statistics.
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let [expansion_cache_hits, expansion_cache_misses, rpq_plan_hits, rpq_plan_misses] =
            self.grammar_engine.as_ref().map_or([0; 4], |ge| ge.cache_counts());
        StoreStats {
            generation: self.generation(),
            loads: self.loads,
            resident_bytes: self.container_bytes,
            queries_served: c.queries.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            parallel_batches: c.parallel_batches.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            expansion_cache_hits,
            expansion_cache_misses,
            rpq_plan_hits,
            rpq_plan_misses,
        }
    }

    // ------------------------------------------------------------------
    // Individual queries
    // ------------------------------------------------------------------

    /// Out-neighbors of `v`, sorted ascending.
    pub fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.ids(v, &[Direction::Out])
    }

    /// In-neighbors of `v`, sorted ascending.
    pub fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.ids(v, &[Direction::In])
    }

    /// Union of both directions, sorted and deduplicated.
    pub fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.ids(v, &[Direction::Out, Direction::In])
    }

    fn ids(&self, v: u64, dirs: &[Direction]) -> Result<Vec<u64>, GrepairError> {
        let mut ids = Vec::new();
        self.walk(v, dirs, &mut ids)?;
        Ok(ids)
    }

    /// The neighbors of `v` along `dirs` into `ids` (cleared first), sorted
    /// and deduplicated in place.
    fn walk(&self, v: u64, dirs: &[Direction], ids: &mut Vec<u64>) -> Result<(), GrepairError> {
        ids.clear();
        self.engine.neighbor_ids(v, dirs, ids)?;
        ids.sort_unstable();
        ids.dedup();
        Ok(())
    }

    /// Labeled out-edges of `v` as sorted `(label, target)` pairs — the
    /// primitive the version overlay corrects (DESIGN.md §12).
    pub fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.engine.out_edges(v)
    }

    /// Labeled in-edges of `v` as sorted `(label, source)` pairs.
    pub fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.engine.in_edges(v)
    }

    /// Is `t` reachable from `s`?
    pub fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        self.engine.reachable(s, t)
    }

    /// Does some `s → t` path spell a word of the pattern's language?
    pub fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        self.engine.rpq(pattern, s, t)
    }

    /// Number of connected components (memoized per loaded store).
    pub fn components(&self) -> u64 {
        *self.components.get_or_init(|| self.engine.components())
    }

    /// `(min, max)` degree (memoized; `None` when empty).
    pub fn degree_extrema(&self) -> Option<(u64, u64)> {
        *self.degrees.get_or_init(|| self.engine.degree_extrema())
    }

    /// Answer one query, updating the serving counters.
    pub fn query(&self, q: &Query) -> AnswerResult {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counted(self.answer(q, &mut Vec::new()).map(Arc::new))
    }

    // ------------------------------------------------------------------
    // Batched queries
    // ------------------------------------------------------------------

    /// Answer many queries at once. A query that already occurred earlier
    /// in the batch is not evaluated again: the repeat shares the first
    /// occurrence's `Arc` (or clones its error). Everything else a batch
    /// shares — rule expansions, compiled RPQ plans, the aggregates — is
    /// store-wide and serves one-shot [`GraphStore::query`] calls as well.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<AnswerResult> {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        self.answer_chunk(queries)
    }

    /// Answer a batch of wire lines and append one reply line each to
    /// `out`, in order: the answer's text, or `error: …` (through
    /// [`crate::error_reply`]). A line that is already an error — it did
    /// not parse — is rendered as such and is not a query: it counts in
    /// none of the store's counters. Returns how many error lines were
    /// appended. Evaluation is [`GraphStore::query_batch`]'s, repeats
    /// included: a repeat copies its first occurrence's bytes.
    pub fn render_batch(&self, lines: &[Result<Query, GrepairError>], out: &mut Vec<u8>) -> u64 {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.render_chunk(lines, out)
    }

    /// [`GraphStore::render_batch`] fanned out over caller-owned threads:
    /// the lines are cut into one contiguous chunk per executor worker
    /// (capped at the number of queries), each holding an equal share of
    /// the queries — a line that is already an error rides in the chunk it
    /// falls in — and `executor` runs one job per chunk. Each job renders
    /// its chunk into a buffer of its own, repeats collapsing within the
    /// chunk, and the buffers are appended to `out` in input order. An
    /// executor with at most one worker, or a batch of fewer than two
    /// queries, takes the sequential path.
    ///
    /// # Panics
    ///
    /// If `executor` returns from `scope` without running every job (the
    /// [`BatchExecutor`] contract lets it drop one): a missing chunk would
    /// shift every later reply onto the wrong request.
    pub fn render_batch_on(
        &self,
        lines: &[Result<Query, GrepairError>],
        executor: &impl BatchExecutor,
        out: &mut Vec<u8>,
    ) -> u64 {
        let queries = lines.iter().filter(|line| line.is_ok()).count();
        let threads = executor.max_workers().min(queries);
        if threads <= 1 {
            return self.render_batch(lines, out);
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.parallel_batches.fetch_add(1, Ordering::Relaxed);
        let per_chunk = queries.div_ceil(threads);
        let mut chunks = Vec::with_capacity(threads);
        let mut rest = lines;
        while !rest.is_empty() {
            let mut seen = 0;
            let cut = rest.iter().position(|line| {
                seen += usize::from(line.is_ok());
                seen > per_chunk
            });
            let (chunk, tail) = rest.split_at(cut.unwrap_or(rest.len()));
            chunks.push(chunk);
            rest = tail;
        }
        // One slot per chunk: each job fills its own, so the buffers land
        // in input order whatever order the jobs run in, and a slot left
        // `None` is a job the executor never ran.
        let mut rendered: Vec<Option<(Vec<u8>, u64)>> = Vec::new();
        rendered.resize_with(chunks.len(), || None);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .into_iter()
            .zip(rendered.iter_mut())
            .map(|(chunk, slot)| {
                Box::new(move || {
                    let mut buf = Vec::new();
                    let errors = self.render_chunk(chunk, &mut buf);
                    *slot = Some((buf, errors));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        executor.scope(jobs);
        rendered.into_iter().fold(0, |errors, slot| {
            #[expect(
                clippy::expect_used,
                reason = "executor.scope runs every job before returning"
            )]
            let (buf, chunk_errors) = slot.expect("executor must run every job to completion");
            out.extend_from_slice(&buf);
            errors + chunk_errors
        })
    }

    /// Answer a contiguous run of queries. One local map remembers where
    /// each distinct query first occurred in the run; a repeat clones that
    /// slot instead of asking the engine again. Skewed traffic repeats
    /// itself inside one pipelined window often enough for this to pay
    /// (DESIGN.md §5 has the measurement); a run of one has nothing to
    /// repeat and skips the map.
    fn answer_chunk(&self, queries: &[Query]) -> Vec<AnswerResult> {
        let mut ids = Vec::new();
        if let [q] = queries {
            return vec![self.counted(self.answer(q, &mut ids).map(Arc::new))];
        }
        let mut first: FxHashMap<&Query, usize> =
            FxHashMap::with_capacity_and_hasher(queries.len(), Default::default());
        let mut out: Vec<AnswerResult> = Vec::with_capacity(queries.len());
        for q in queries {
            let repeat = match first.entry(q) {
                Entry::Occupied(seen) => out.get(*seen.get()).cloned(),
                Entry::Vacant(unseen) => {
                    unseen.insert(out.len());
                    None
                }
            };
            let answer = repeat.unwrap_or_else(|| self.answer(q, &mut ids).map(Arc::new));
            out.push(self.counted(answer));
        }
        out
    }

    /// [`GraphStore::answer_chunk`] rendered: each reply line goes straight
    /// into `out`, the neighbor verbs walk into one scratch `Vec` reused
    /// across the run, and the first-occurrence map remembers a reply's
    /// byte range, so a repeat is one copy within `out`. Returns the error
    /// lines written.
    fn render_chunk(&self, lines: &[Result<Query, GrepairError>], out: &mut Vec<u8>) -> u64 {
        let memo = lines.len() > 1;
        let mut first: FxHashMap<&Query, (usize, usize, bool)> = FxHashMap::default();
        if memo {
            first.reserve(lines.len());
        }
        let (mut ids, mut queries, mut failed, mut errors) = (Vec::new(), 0, 0, 0);
        for line in lines {
            let q = match line {
                Ok(q) => q,
                Err(e) => {
                    out.extend_from_slice(error_reply(e).as_bytes());
                    out.push(b'\n');
                    errors += 1;
                    continue;
                }
            };
            queries += 1;
            let start = out.len();
            failed += u64::from(match memo.then(|| first.entry(q)) {
                Some(Entry::Occupied(seen)) => {
                    let (from, to, err) = *seen.get();
                    out.extend_from_within(from..to);
                    err
                }
                unseen => {
                    let err = self.render_line(q, &mut ids, out);
                    if let Some(Entry::Vacant(unseen)) = unseen {
                        unseen.insert((start, out.len(), err));
                    }
                    err
                }
            });
        }
        self.counters.queries.fetch_add(queries, Ordering::Relaxed);
        self.counters.errors.fetch_add(failed, Ordering::Relaxed);
        errors + failed
    }

    /// Answer `q` and append its reply line to `out`; `true` if the line is
    /// an error. `ids` is the scratch a neighbor verb walks into.
    fn render_line(&self, q: &Query, ids: &mut Vec<u64>, out: &mut Vec<u8>) -> bool {
        let failed = match self.answer(q, ids) {
            Ok(answer) => {
                answer.render(out);
                if let QueryAnswer::Nodes(walked) = answer {
                    *ids = walked;
                }
                false
            }
            Err(e) => {
                out.extend_from_slice(error_reply(e).as_bytes());
                true
            }
        };
        out.push(b'\n');
        failed
    }

    /// The one way a query reaches the engine, whichever engine serves and
    /// whichever entry point asked. A neighbor verb walks into `ids` and
    /// the answer takes that allocation over (a caller rendering many
    /// answers hands it back). The aggregates go through the store's own
    /// once-per-container memo.
    fn answer(&self, q: &Query, ids: &mut Vec<u64>) -> Result<QueryAnswer, GrepairError> {
        let e = &*self.engine;
        let (v, dirs): (u64, &[Direction]) = match q {
            Query::OutNeighbors(v) => (*v, &[Direction::Out]),
            Query::InNeighbors(v) => (*v, &[Direction::In]),
            Query::Neighbors(v) => (*v, &[Direction::Out, Direction::In]),
            Query::Reach { s, t } => return Ok(QueryAnswer::Bool(e.reachable(*s, *t)?)),
            Query::Rpq { s, t, pattern } => return Ok(QueryAnswer::Bool(e.rpq(pattern, *s, *t)?)),
            Query::Components => return Ok(QueryAnswer::Count(self.components())),
            Query::DegreeExtrema => return Ok(QueryAnswer::Extrema(self.degree_extrema())),
        };
        self.walk(v, dirs, ids)?;
        Ok(QueryAnswer::Nodes(std::mem::take(ids)))
    }

    /// Count `answer` in the error counter if it is one.
    fn counted(&self, answer: AnswerResult) -> AnswerResult {
        if answer.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::write_container;
    use crate::{EdgePatch, VersionedStore};
    use grepair_core::{compress, GRePairConfig};
    use grepair_grammar::Grammar;
    use grepair_hypergraph::{EdgeLabel, Hypergraph};
    use grepair_queries::neighbors::Direction;
    use grepair_queries::rpq::rpq_on_graph;
    use grepair_queries::GrammarIndex;

    use crate::engine::MAX_CACHED_PLANS;

    fn two_label_path(reps: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        )
        .0
    }

    fn store_for(reps: u32) -> (GraphStore, Hypergraph) {
        let g = two_label_path(reps);
        let out = compress(&g, &GRePairConfig::default());
        let encoded = grepair_codec::encode(&out.grammar);
        let file = write_container(&encoded.bytes, encoded.bit_len);
        (GraphStore::from_bytes(&file).unwrap(), g)
    }

    /// The grammar engine behind a grammar-backed test store.
    fn grammar_engine(store: &GraphStore) -> &GrammarEngine {
        store.grammar_engine.as_deref().expect("test store must be grammar-backed")
    }

    /// A deliberately perverse executor for the fan-out tests: runs its
    /// jobs one at a time, in reverse submission order. (The suites under
    /// `tests/` fan out over real threads — `tests/common`.)
    struct Reversed(usize);

    impl BatchExecutor for Reversed {
        fn max_workers(&self) -> usize {
            self.0
        }

        fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
            for job in jobs.into_iter().rev() {
                job();
            }
        }
    }

    /// An executor that breaks the contract's weakest form: it drops its
    /// first job unrun.
    struct DropsOne(usize);

    impl BatchExecutor for DropsOne {
        fn max_workers(&self) -> usize {
            self.0
        }

        fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
            for job in jobs.into_iter().skip(1) {
                job();
            }
        }
    }

    /// `queries` rendered by [`GraphStore::render_batch_on`] on `executor`.
    fn render_on(store: &GraphStore, queries: &[Query], executor: &impl BatchExecutor) -> String {
        let lines: Vec<Result<Query, GrepairError>> = queries.iter().cloned().map(Ok).collect();
        let mut out = Vec::new();
        store.render_batch_on(&lines, executor, &mut out);
        String::from_utf8(out).unwrap()
    }

    /// What the wire prints for `answers`: one reply line each.
    fn reply_lines(answers: &[AnswerResult]) -> String {
        let line = |a: &AnswerResult| a.as_ref().map(ToString::to_string).unwrap_or_else(error_reply) + "\n";
        answers.iter().map(line).collect()
    }

    fn mixed_queries(n: u64, len: u64) -> Vec<Query> {
        (0..len)
            .map(|i| match i % 5 {
                0 => Query::OutNeighbors(i % n),
                1 => Query::InNeighbors((i * 7) % n),
                2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
                3 => Query::Rpq {
                    s: (i * 5) % n,
                    t: (i * 13) % n,
                    pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
                },
                _ => Query::Neighbors((i * 17) % n),
            })
            .collect()
    }

    /// The labeled row of `v` in a decompressed graph, sorted.
    fn derived_row(g: &Hypergraph, v: u32, dir: Direction) -> Vec<(u32, u64)> {
        let mut row: Vec<(u32, u64)> = g
            .incident(v)
            .filter_map(|e| match (g.label(e), g.att(e), dir) {
                (EdgeLabel::Terminal(l), &[from, to], Direction::Out) if from == v => Some((l, to)),
                (EdgeLabel::Terminal(l), &[from, to], Direction::In) if to == v => Some((l, from)),
                _ => None,
            })
            .map(|(l, w)| (l, u64::from(w)))
            .collect();
        row.sort_unstable();
        row.dedup();
        row
    }

    #[test]
    fn neighbors_match_uncached_index() {
        // The store's rows against a fresh index over the same grammar
        // (its own cells, filled here) and against the decompressed graph.
        let (store, _) = store_for(32);
        let idx = GrammarIndex::new(store.grammar().unwrap());
        let derived = store.grammar().unwrap().derive();
        for k in 0..store.total_nodes() {
            assert_eq!(store.out_neighbors(k).unwrap(), idx.out_neighbors(k), "out {k}");
            assert_eq!(store.in_neighbors(k).unwrap(), idx.in_neighbors(k), "in {k}");
            let rows = [(Direction::Out, store.out_edges(k)), (Direction::In, store.in_edges(k))];
            for (dir, row) in rows {
                assert_eq!(row.unwrap(), derived_row(&derived, k as u32, dir), "{dir:?} {k}");
            }
        }
        let s = store.stats();
        assert!(s.expansion_cache_hits > 0, "repeated labels must hit: {s}");
    }

    #[test]
    fn out_of_range_ids_error_cleanly() {
        let (store, _) = store_for(8);
        let n = store.total_nodes();
        for q in [
            Query::OutNeighbors(n),
            Query::InNeighbors(n + 100),
            Query::Neighbors(u64::MAX),
            Query::Reach { s: 0, t: n },
            Query::Reach { s: n, t: 0 },
            Query::Rpq { s: n, t: 0, pattern: "0".into() },
        ] {
            let err = store.query(&q).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("out of range"), "{q:?}: {msg}");
            assert!(msg.contains(&format!("0..{n}")), "{q:?}: {msg}");
        }
        assert_eq!(store.stats().errors, 6);
    }

    #[test]
    fn batch_answers_match_individual() {
        let (store, g) = store_for(16);
        let n = store.total_nodes();
        let mut queries = Vec::new();
        for i in 0..n {
            queries.push(Query::OutNeighbors(i));
            queries.push(Query::Reach { s: 0, t: i });
            queries.push(Query::Reach { s: i, t: n - 1 });
        }
        queries.push(Query::Components);
        queries.push(Query::DegreeExtrema);
        queries.push(Query::Rpq { s: 0, t: 2, pattern: "0 1".into() });
        let batch = store.query_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, a) in queries.iter().zip(&batch) {
            // Individual path must agree.
            assert_eq!(a, &store.query(q), "{q:?}");
        }
        // Cross-check a few against the derived graph.
        let derived = store.grammar().unwrap().derive();
        assert_eq!(derived.num_nodes() as u64, n);
        assert_eq!(store.components(), 1);
        let _ = g;
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let (store, _) = store_for(24);
        let n = store.total_nodes();
        let mut queries = mixed_queries(n, 600);
        // Sprinkle in errors: order and Err values must survive the fan-out.
        for i in (0..queries.len()).step_by(37) {
            queries[i] = Query::OutNeighbors(n + i as u64);
        }
        let sequential = reply_lines(&store.query_batch(&queries));
        for threads in [2, 3, 8] {
            let parallel = render_on(&store, &queries, &Reversed(threads));
            assert_eq!(parallel.lines().count(), sequential.lines().count());
            for (i, (p, s)) in parallel.lines().zip(sequential.lines()).enumerate() {
                assert_eq!(p, s, "answer {i} with {threads} threads: {:?}", queries[i]);
            }
        }
        let stats = store.stats();
        assert_eq!(stats.parallel_batches, 3, "{stats}");
        assert_eq!(stats.batches, 4, "{stats}");
    }

    #[test]
    fn parallel_batch_degenerate_inputs() {
        let (store, _) = store_for(4);
        let mut out = Vec::new();
        assert_eq!(store.render_batch_on(&[], &Reversed(8), &mut out), 0);
        assert!(out.is_empty());
        let one = render_on(&store, &[Query::Components], &Reversed(8));
        assert_eq!(one.lines().count(), 1);
        // threads = 0 falls back to the sequential path.
        let zero = render_on(&store, &[Query::Components], &Reversed(0));
        assert_eq!(zero, one);
        assert_eq!(store.stats().parallel_batches, 0);
    }

    #[test]
    fn custom_executor_gets_input_ordered_answers() {
        // Answers must come back in input order — the slots, not the
        // execution order, define it.
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let mut queries = mixed_queries(n, 200);
        queries[7] = Query::OutNeighbors(n + 7); // an error must survive too
        let expected = reply_lines(&store.query_batch(&queries));
        for workers in [2, 3, 7] {
            assert_eq!(render_on(&store, &queries, &Reversed(workers)), expected);
        }
        // workers ≤ 1 falls back to the sequential path (not counted as a
        // parallel batch).
        assert_eq!(render_on(&store, &queries, &Reversed(1)), expected);
        let stats = store.stats();
        assert_eq!(stats.parallel_batches, 3, "{stats}");
    }

    /// `lines` rendered the way the wire must: each query's one-shot answer
    /// or error, each line that already failed as its error.
    fn rendered_one_by_one(store: &GraphStore, lines: &[Result<Query, GrepairError>]) -> String {
        let reply = |line: &Result<Query, GrepairError>| match line.as_ref() {
            Ok(q) => store.query(q).map(|answer| answer.to_string()),
            Err(e) => Err(e.clone()),
        };
        lines
            .iter()
            .map(|line| reply(line).unwrap_or_else(error_reply) + "\n")
            .collect()
    }

    #[test]
    #[should_panic(expected = "executor must run every job to completion")]
    fn a_dropped_job_panics_instead_of_shifting_replies() {
        let (store, _) = store_for(16);
        let queries = mixed_queries(store.total_nodes(), 64);
        render_on(&store, &queries, &DropsOne(4));
    }

    #[test]
    fn rendered_batches_are_the_answers_bytes_and_count_their_queries() {
        let (twin, _) = store_for(24);
        let n = twin.total_nodes();
        let mut queries = mixed_queries(n, 300);
        queries[11] = Query::InNeighbors(n + 11);
        queries.extend_from_within(..40);
        // Lines that already failed sit between the queries.
        let lines: Vec<Result<Query, GrepairError>> = queries
            .iter()
            .enumerate()
            .flat_map(|(i, q)| {
                let failed = (i % 9 == 4).then(|| Err(GrepairError::BadRequest(format!("line {i}"))));
                failed.into_iter().chain([Ok(q.clone())])
            })
            .collect();
        let want = rendered_one_by_one(&twin, &lines);
        let error_lines = want.lines().filter(|l| l.starts_with("error: ")).count() as u64;
        for workers in [1, 2, 3, 8] {
            let store = store_for(24).0;
            let mut out = Vec::new();
            assert_eq!(store.render_batch_on(&lines, &Reversed(workers), &mut out), error_lines);
            assert_eq!(String::from_utf8(out).unwrap(), want, "{workers} workers");
            // Only the queries count: the lines that already failed do not.
            let stats = store.stats();
            assert_eq!(stats.queries_served, queries.len() as u64, "{stats}");
            assert_eq!(stats.errors, 2, "queries[11] and its repeat: {stats}");
            assert_eq!(stats.batches, 1, "{stats}");
            assert_eq!(stats.parallel_batches, u64::from(workers > 1), "{stats}");
        }
        // Inline, the store work is exactly `query_batch`'s: one chunk, the
        // same repeats collapsed.
        let (by_answers, by_bytes) = (store_for(24).0, store_for(24).0);
        by_answers.query_batch(&queries);
        by_bytes.render_batch(&lines, &mut Vec::new());
        assert_eq!(by_bytes.stats(), by_answers.stats());
        let mut out = Vec::new();
        assert_eq!(twin.render_batch(&lines, &mut out), error_lines);
        assert_eq!(String::from_utf8(out).unwrap(), want);
        // One line is a batch of one; nothing at all is a batch of none.
        let mut out = Vec::new();
        assert_eq!(twin.render_batch(&lines[..1], &mut out), 0);
        assert_eq!(twin.render_batch(&[], &mut out), 0);
        assert_eq!(String::from_utf8(out).unwrap(), rendered_one_by_one(&twin, &lines[..1]));
    }

    #[test]
    fn fresh_stores_are_generation_one() {
        let (store, _) = store_for(4);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.stats().generation, 1);
        let rendered = store.stats().to_string();
        assert!(rendered.starts_with("generation=1 "), "{rendered}");
        assert!(rendered.ends_with("backend=grepair"), "{rendered}");
    }

    #[test]
    fn memoized_hits_share_the_answer_allocation() {
        // The clone-free hit path: duplicate queries in one batch return the
        // same Arc, not a deep copy of the neighbor list.
        let (store, _) = store_for(16);
        let batch = [
            Query::OutNeighbors(3),
            Query::Neighbors(5),
            Query::OutNeighbors(3),
            Query::Neighbors(5),
        ];
        let answers = store.query_batch(&batch);
        let a = answers[0].as_ref().unwrap();
        let b = answers[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b), "duplicate answers must share one allocation");
        let c = answers[1].as_ref().unwrap();
        let d = answers[3].as_ref().unwrap();
        assert!(Arc::ptr_eq(c, d));
        // Exactly the two batch slots hold the allocation: the duplicate
        // cost one Arc clone, zero Vec clones.
        assert_eq!(Arc::strong_count(a), 2);
    }

    #[test]
    fn plan_cache_is_bounded_and_self_healing() {
        // Client-chosen pattern text keys the plan cache: a flood of
        // distinct patterns must not grow it past its cap, must not change
        // an answer, and must leave it usable.
        let (store, _) = store_for(6);
        let ge = grammar_engine(&store);
        let derived = store.grammar().unwrap().derive();
        let n = store.total_nodes();
        // `i` in four base-4 digits, each an atom: distinct for every
        // `i < 256`, and never longer than a pattern may be.
        let pattern = |i: usize| {
            let digits = (0..4).rev().map(|d| ["0", "1", "0*", "1*"][i >> (2 * d) & 3]);
            digits.collect::<Vec<_>>().join(" ")
        };
        for i in 0..3 * MAX_CACHED_PLANS {
            let (s, t) = (i as u64 % n, (7 * i as u64 + 2) % n);
            let nfa = crate::query::compile_pattern(&pattern(i)).unwrap();
            assert_eq!(
                store.rpq(&pattern(i), s, t),
                Ok(rpq_on_graph(&derived, &nfa, s as u32, t as u32)),
                "pattern {i} ({s},{t})"
            );
            assert!(ge.cached_plans() <= MAX_CACHED_PLANS, "after pattern {i}");
        }
        // An early pattern was dropped on the way: asking again compiles it
        // once more, and then it is cached like any other.
        let before = store.stats();
        store.rpq(&pattern(0), 0, 2).unwrap();
        let missed = store.stats();
        assert_eq!(missed.rpq_plan_misses, before.rpq_plan_misses + 1, "{missed}");
        store.rpq(&pattern(0), 0, 2).unwrap();
        let hit = store.stats();
        assert_eq!(
            (hit.rpq_plan_hits, hit.rpq_plan_misses),
            (missed.rpq_plan_hits + 1, missed.rpq_plan_misses),
            "{hit}"
        );
    }

    #[test]
    fn every_plan_of_a_store_points_at_one_shared_part() {
        let (store, _) = store_for(6);
        let ge = grammar_engine(&store);
        store.reachable(0, 1).unwrap();
        assert_eq!(ge.rpq_shared_refs(), None, "built by the first rpq, not at load");
        for pattern in ["0 1", "0* 1?", "1+", "0 1"] {
            store.rpq(pattern, 0, 1).unwrap();
        }
        // The engine's own reference and one per cached plan: no plan built
        // a navigation index or an adjacency of its own.
        assert_eq!((ge.cached_plans(), ge.rpq_shared_refs()), (3, Some(1 + 3)));
    }

    #[test]
    fn the_engine_holds_one_navigation_index() {
        // Rows, `reach` and every RPQ plan navigate by one `GrammarIndex`:
        // the shared part of the plans is built around the reach index's.
        let (store, _) = store_for(6);
        let ge = grammar_engine(&store);
        assert_eq!(ge.plans_share_the_index(), None);
        store.rpq("0 1", 0, 1).unwrap();
        store.rpq("1*", 0, 1).unwrap();
        assert_eq!(ge.plans_share_the_index(), Some(true));
    }

    #[test]
    fn batch_reuses_sources_and_plans() {
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let queries: Vec<Query> = (0..n)
            .flat_map(|t| {
                [
                    Query::Reach { s: 0, t },
                    Query::Rpq { s: 0, t, pattern: "0* 1*".into() },
                ]
            })
            .collect();
        let answers = store.query_batch(&queries);
        assert!(answers.iter().all(|a| a.is_ok()));
        let s = store.stats();
        // One plan compiled, reused for every rpq in the batch.
        assert_eq!(s.rpq_plan_misses, 1, "{s}");
        assert_eq!(s.rpq_plan_hits, n - 1, "{s}");
        assert_eq!(s.batches, 1);
        assert_eq!(s.queries_served, 2 * n);
    }

    #[test]
    fn concurrent_individual_queries_keep_counters_exact() {
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let q = match (t + i) % 3 {
                            0 => Query::OutNeighbors(i % n),
                            1 => Query::Reach { s: i % n, t: (i * 3) % n },
                            // Every thread's last id is out of range.
                            _ => Query::InNeighbors(n + i),
                        };
                        let _ = store.query(&q);
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.queries_served, 4 * per_thread);
        // Each thread hits the out-of-range arm ⌈500/3⌉ or ⌊500/3⌋ times
        // depending on its phase; the exact total is deterministic.
        let expected_errors: u64 = (0..4u64)
            .map(|t| (0..per_thread).filter(|i| (t + i) % 3 == 2).count() as u64)
            .sum();
        assert_eq!(stats.errors, expected_errors, "{stats}");
    }

    #[test]
    fn from_grammar_revalidates() {
        // A grammar with a dangling nonterminal reference must be rejected,
        // not served.
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(EdgeLabel::Nonterminal(0), &[0, 1]);
        let grammar = grepair_grammar::Grammar::new(start, 1);
        assert!(GraphStore::from_grammar(grammar).is_err());
    }

    // ------------------------------------------------------------------
    // The container, and the row-walk engine of a patched version
    // ------------------------------------------------------------------

    /// An unlabeled `n`-node path as a rule-free grammar: ids survive.
    fn path_store(n: u32) -> GraphStore {
        let g = Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, 0u32, i + 1))).0;
        GraphStore::from_grammar(Grammar::new(g, 1)).unwrap()
    }

    /// The same path behind a patched head: an edge added and deleted
    /// again, so the head serves the base's graph through the overlay's
    /// provided row walk instead of the grammar engine.
    fn patched_path(n: u32) -> Arc<GraphStore> {
        let log = VersionedStore::new(Arc::new(path_store(n))).unwrap();
        for op in ["ADD", "DEL"] {
            log.apply(EdgePatch::parse(&format!("{op} {} 0 0", n - 1)).unwrap()).unwrap();
        }
        log.head()
    }

    #[test]
    fn from_bytes_dispatches_on_the_container_tag() {
        // The magic is the one tag left: `G2G1` decodes as a grammar, any
        // other header is a container error before a payload bit is read.
        let (store, _) = store_for(4);
        assert!(store.grammar().is_some());
        assert!(store.stats().to_string().ends_with("backend=grepair"));
        let encoded = grepair_codec::encode(store.grammar().unwrap());
        let mut file = write_container(&encoded.bytes, encoded.bit_len);
        assert!(GraphStore::from_bytes(&file).is_ok());
        file[3] = b'0';
        let err = GraphStore::from_bytes(&file).unwrap_err().to_string();
        assert_eq!(err, "not a g2g container: bad magic");
    }

    #[test]
    fn external_backends_serve_batches_with_the_duplicate_memo() {
        let store = patched_path(24);
        let n = store.total_nodes();
        let batch = [
            Query::OutNeighbors(3),
            Query::Reach { s: 0, t: n - 1 },
            Query::OutNeighbors(3),
            Query::Components,
            Query::OutNeighbors(n + 5), // error mid-batch keeps serving
            Query::DegreeExtrema,
        ];
        let answers = store.query_batch(&batch);
        assert_eq!(answers[0].as_deref(), Ok(&QueryAnswer::Nodes(vec![4])));
        assert_eq!(answers[1].as_deref(), Ok(&QueryAnswer::Bool(true)));
        // Duplicate collapses to one shared allocation, same as grammar.
        assert!(Arc::ptr_eq(answers[0].as_ref().unwrap(), answers[2].as_ref().unwrap()));
        assert_eq!(answers[3].as_deref(), Ok(&QueryAnswer::Count(1)));
        assert!(answers[4].is_err());
        assert_eq!(answers[5].as_deref(), Ok(&QueryAnswer::Extrema(Some((1, 2)))));
        let stats = store.stats();
        assert_eq!(stats.errors, 1, "{stats}");
        // The grammar engine's cache counters stay zero on the overlay.
        assert_eq!(stats.expansion_cache_hits + stats.expansion_cache_misses, 0);
    }

    #[test]
    fn labeled_edges_agree_with_neighbors_across_backends() {
        // Both engines: the grammar (compressed and rule-free) and the
        // overlay's row walk.
        let g = Hypergraph::from_simple_edges(20, (0..19u32).map(|i| (i, 0u32, i + 1))).0;
        let compressed = GraphStore::from_grammar(compress(&g, &GRePairConfig::default()).grammar);
        let stores = [Arc::new(compressed.unwrap()), Arc::new(path_store(20)), patched_path(20)];
        for (which, store) in stores.iter().enumerate() {
            for v in 0..store.total_nodes() {
                let outs: Vec<u64> =
                    store.out_edges(v).unwrap().into_iter().map(|(_, w)| w).collect();
                assert_eq!(outs, store.out_neighbors(v).unwrap(), "store {which} out {v}");
                let ins: Vec<u64> =
                    store.in_edges(v).unwrap().into_iter().map(|(_, w)| w).collect();
                assert_eq!(ins, store.in_neighbors(v).unwrap(), "store {which} in {v}");
            }
            assert!(store.out_edges(20).is_err(), "store {which}");
        }
    }

    #[test]
    fn grammar_labeled_edges_keep_labels() {
        // two_label_path(8): 8 label-0 edges and 8 label-1 edges. The
        // grammar renumbers nodes, so check the label multiset over all
        // nodes rather than per-id structure.
        let (store, _) = store_for(8);
        let mut out_labels = Vec::new();
        let mut in_labels = Vec::new();
        for v in 0..store.total_nodes() {
            out_labels.extend(store.out_edges(v).unwrap().into_iter().map(|(l, _)| l));
            in_labels.extend(store.in_edges(v).unwrap().into_iter().map(|(l, _)| l));
        }
        for labels in [&out_labels, &in_labels] {
            assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 8);
            assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 8);
            assert_eq!(labels.len(), 16);
        }
    }

    #[test]
    fn external_backends_fan_out_in_parallel() {
        let store = patched_path(40);
        let n = store.total_nodes();
        let mut queries = mixed_queries(n, 300);
        // Unlabeled graph: rewrite the two-label patterns onto label 0.
        for q in &mut queries {
            if let Query::Rpq { pattern, .. } = q {
                *pattern = "0 0*".into();
            }
        }
        queries[11] = Query::InNeighbors(n + 11);
        let sequential = reply_lines(&store.query_batch(&queries));
        assert_eq!(render_on(&store, &queries, &Reversed(4)), sequential);
        assert_eq!(store.stats().parallel_batches, 1);
    }
}
