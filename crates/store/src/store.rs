//! The long-lived query-serving store.

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use grepair_grammar::Grammar;
use grepair_util::FxHashMap;

use crate::backend::{split_any_container, QueryEngine};
use crate::engine::GrammarEngine;
use crate::query::{Query, QueryAnswer};
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
    /// `query_batch` + `query_batch_on` invocations.
    pub batches: u64,
    /// [`GraphStore::query_batch_on`] invocations that actually fanned out
    /// to executor workers (also counted in `batches`).
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
/// [`GraphStore::query_batch`], or across worker threads via
/// [`GraphStore::query_batch_on`]. All three reach the engine through the
/// same call.
///
/// All interior mutability is synchronized (once-filled cells, one
/// `RwLock`, atomic counters), so one store can be shared across threads
/// (`&GraphStore: Send + Sync`); a warm neighbor query takes no lock, a
/// warm `rpq` one read lock.
/// Answers come back as `Arc<QueryAnswer>`: a query repeated inside a batch
/// is a pointer clone, never a deep copy of a neighbor list.
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
        self.engine.out_neighbors(v)
    }

    /// In-neighbors of `v`, sorted ascending.
    pub fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.engine.in_neighbors(v)
    }

    /// Union of both directions, sorted and deduplicated.
    pub fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.engine.neighbors(v)
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
        self.counted(self.answer(q))
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

    /// [`GraphStore::query_batch`] fanned out over caller-owned threads:
    /// the batch is partitioned into one job per executor worker (capped at
    /// the batch length) and `executor` runs them; repeats collapse within
    /// each job's chunk. Answers come back in input order, errors
    /// included, exactly as the sequential path would produce them. An
    /// executor with at most one worker, or a batch smaller than two
    /// queries, falls back to the sequential path.
    pub fn query_batch_on(
        &self,
        queries: &[Query],
        executor: &impl BatchExecutor,
    ) -> Vec<AnswerResult> {
        let threads = executor.max_workers().min(queries.len());
        if threads <= 1 {
            return self.query_batch(queries);
        }
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters.parallel_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let chunk_len = queries.len().div_ceil(threads);
        // One pre-sized slot per query: each job fills a disjoint chunk, so
        // answers land in input order without a post-hoc reorder.
        let mut slots: Vec<Option<AnswerResult>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = queries
            .chunks(chunk_len)
            .zip(slots.chunks_mut(chunk_len))
            .map(|(chunk, out)| {
                Box::new(move || {
                    for (slot, answer) in out.iter_mut().zip(self.answer_chunk(chunk)) {
                        *slot = Some(answer);
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        executor.scope(jobs);
        #[expect(
            clippy::expect_used,
            reason = "executor.scope runs every job before returning"
        )]
        slots
            .into_iter()
            .map(|slot| slot.expect("executor must run every job to completion"))
            .collect()
    }

    /// Answer a contiguous run of queries. One local map remembers where
    /// each distinct query first occurred in the run; a repeat clones that
    /// slot instead of asking the engine again. Skewed traffic repeats
    /// itself inside one pipelined window often enough for this to pay
    /// (DESIGN.md §5 has the measurement); a run of one has nothing to
    /// repeat and skips the map.
    fn answer_chunk(&self, queries: &[Query]) -> Vec<AnswerResult> {
        if let [q] = queries {
            return vec![self.counted(self.answer(q))];
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
            out.push(self.counted(repeat.unwrap_or_else(|| self.answer(q))));
        }
        out
    }

    /// The one way a query reaches the engine, whichever engine serves and
    /// whichever entry point asked. The aggregates go through the store's
    /// own once-per-container memo.
    fn answer(&self, q: &Query) -> AnswerResult {
        let e = &*self.engine;
        Ok(Arc::new(match q {
            Query::OutNeighbors(v) => QueryAnswer::Nodes(e.out_neighbors(*v)?),
            Query::InNeighbors(v) => QueryAnswer::Nodes(e.in_neighbors(*v)?),
            Query::Neighbors(v) => QueryAnswer::Nodes(e.neighbors(*v)?),
            Query::Reach { s, t } => QueryAnswer::Bool(e.reachable(*s, *t)?),
            Query::Rpq { s, t, pattern } => QueryAnswer::Bool(e.rpq(pattern, *s, *t)?),
            Query::Components => QueryAnswer::Count(self.components()),
            Query::DegreeExtrema => QueryAnswer::Extrema(self.degree_extrema()),
        }))
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
        // The rows the cells serve, against the bare index (every expansion
        // computed on the spot) and against the decompressed graph.
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
    fn cached_expansion_matches_reference() {
        // Every cell, resolved at every concrete occurrence of its
        // nonterminal that creates a node: its first id and the ids of its
        // external nodes turn slots into ids, which must be what `getID`
        // makes of the path-form expansion there.
        let (store, _) = store_for(24);
        let ge = grammar_engine(&store);
        let grammar = store.grammar().unwrap();
        let idx = GrammarIndex::new(grammar);
        let mut checked = 0;
        for k in idx.m as u64..idx.total_nodes {
            let repr = idx.locate(k);
            let nt = idx.nt_at(&repr.path);
            let rhs = grammar.rule(nt);
            // Internal nodes come first, in id order: `k` is the base plus
            // the number of internal nodes before `repr.node`.
            let before = (0..repr.node).filter(|&x| !rhs.is_external(x)).count() as u64;
            let base = k - before;
            let ext_ids: Vec<u64> =
                rhs.ext().iter().map(|&x| idx.global_id(&repr.path, x)).collect();
            for pos in 0..rhs.rank() {
                for dir in [Direction::Out, Direction::In] {
                    let mut got: Vec<(u32, u64)> = ge
                        .expansion(nt, pos, dir)
                        .iter()
                        .map(|&(label, slot)| (label, slot.resolve(base, &ext_ids)))
                        .collect();
                    let mut want: Vec<(u32, u64)> = idx
                        .rule_expansion(nt, pos, dir)
                        .into_iter()
                        .map(|(rel, label, node)| {
                            (label, idx.global_id(&[&repr.path[..], &rel].concat(), node))
                        })
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "nt {nt} pos {pos} {dir:?} at node {k}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
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
        let sequential = store.query_batch(&queries);
        for threads in [2, 3, 8] {
            let parallel = store.query_batch_on(&queries, &Reversed(threads));
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
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
        assert!(store.query_batch_on(&[], &Reversed(8)).is_empty());
        let one = store.query_batch_on(&[Query::Components], &Reversed(8));
        assert_eq!(one.len(), 1);
        // threads = 0 falls back to the sequential path.
        let zero = store.query_batch_on(&[Query::Components], &Reversed(0));
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
        let expected = store.query_batch(&queries);
        for workers in [2, 3, 7] {
            assert_eq!(store.query_batch_on(&queries, &Reversed(workers)), expected);
        }
        // workers ≤ 1 falls back to the sequential path (not counted as a
        // parallel batch).
        assert_eq!(store.query_batch_on(&queries, &Reversed(1)), expected);
        let stats = store.stats();
        assert_eq!(stats.parallel_batches, 3, "{stats}");
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
    fn expansion_table_counts_hits_and_computes_out_of_table_triples_uncached() {
        let (store, _) = store_for(16);
        let ge = grammar_engine(&store);
        let counts = || {
            let s = store.stats();
            (s.expansion_cache_hits, s.expansion_cache_misses)
        };
        let first = ge.expansion(0, 0, Direction::Out).into_owned();
        let (hits, misses) = counts();
        assert!(misses >= 1, "the first lookup fills the cell");
        // A second lookup of the same triple is a hit on the same entries.
        assert_eq!(*ge.expansion(0, 0, Direction::Out), *first);
        assert_eq!(counts(), (hits + 1, misses));
        // Triples the table has no cell for — a position beyond the rank
        // (which must not alias the next nonterminal's cells), an unknown
        // nonterminal — are computed uncached: empty, as the reference
        // expansion is, never a panic, no counter moved.
        let grammar = store.grammar().unwrap();
        let idx = GrammarIndex::new(grammar);
        let rank = grammar.nt_rank(0);
        let unknown = grammar.num_nonterminals() as u32;
        for dir in [Direction::Out, Direction::In] {
            assert!(idx.rule_expansion(0, rank, dir).is_empty());
            for (nt, pos) in [(0, rank), (0, usize::MAX), (unknown, 0)] {
                assert!(ge.expansion(nt, pos, dir).is_empty(), "({nt}, {pos})");
            }
        }
        assert_eq!(counts(), (hits + 1, misses));
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
        let sequential = store.query_batch(&queries);
        let parallel = store.query_batch_on(&queries, &Reversed(4));
        assert_eq!(parallel, sequential);
        assert_eq!(store.stats().parallel_batches, 1);
    }
}
