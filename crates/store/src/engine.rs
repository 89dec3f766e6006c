//! The gRePair backend's query engine: grammar navigation with memoized
//! rule expansions and compiled RPQ plans.
//!
//! One labeled walk serves every row-shaped answer: a single incident-edge
//! scan over a single memoized expansion cache, with `collect_edges` (the
//! [`QueryEngine`] row primitive) and `collect_neighbors` (the label
//! dropped) as two thin emits over it. The grammar engine is the one
//! implementor that overrides [`QueryEngine`]'s provided methods, and it
//! stays special in one more way: the store's batch amortization (shared
//! RPQ product closures, the per-batch locate cache — DESIGN.md §5) reaches
//! into its fields directly, because those levers are grammar-shaped and
//! have no analog in the row-backed engines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use grepair_queries::neighbors::Direction;
use grepair_queries::{speedup, GRepr, GrammarIndex, ReachIndex, RpqIndex};

use crate::backend::QueryEngine;
use crate::cache::ShardedMap;
use crate::query::compile_pattern;
use crate::GrepairError;

/// One memoized rule expansion: the row one `(nt, ext position,
/// direction)` combination contributes, as rule-relative `(path, terminal
/// label, node)` entries (see [`GrammarIndex::rule_expansion`]).
pub(crate) type Expansion = Arc<Vec<(Vec<EdgeId>, u32, NodeId)>>;
/// Cache key: `(nonterminal, external position, direction)`.
type ExpansionKey = (u32, u32, Direction);

/// Per-worker scratch buffers, reused across the queries one worker
/// answers so the neighbor hot path does not reallocate its derivation-path
/// buffer per query. Never shared between threads.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Absolute derivation path assembled while expanding nonterminal edges.
    pub(crate) full: Vec<EdgeId>,
}

/// Hit/miss counters for the engine's two store-wide caches. Relaxed
/// atomics: exact totals, no lock (see `StoreStats`).
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    pub(crate) expansion_hits: AtomicU64,
    pub(crate) expansion_misses: AtomicU64,
    pub(crate) plan_hits: AtomicU64,
    pub(crate) plan_misses: AtomicU64,
}

/// The grammar-backed [`QueryEngine`]: G-representation navigation
/// (Prop. 4), skeleton reachability (Thm. 6) answered from condensation
/// labels, grammar-side RPQ plans, and the memoized rule-expansion cache
/// that makes hub-node neighborhoods cheap.
#[derive(Debug)]
pub struct GrammarEngine {
    pub(crate) grammar: Arc<Grammar>,
    /// Skeleton-based reachability (Thm. 6), built eagerly — and with it
    /// the one G-representation navigation index (Prop. 4) every verb
    /// shares (`GrammarEngine::index`).
    pub(crate) reach: ReachIndex<Arc<Grammar>>,
    /// Memoized rule expansions — hot on hub nodes, whose incident
    /// nonterminal edges repeat few distinct labels. Labeled rows and plain
    /// neighbor sets both read it.
    expansions: ShardedMap<ExpansionKey, Expansion>,
    /// Compiled RPQ plans per canonical pattern text.
    plans: ShardedMap<String, Arc<RpqIndex<Arc<Grammar>>>>,
    pub(crate) cache_counters: CacheCounters,
}

impl GrammarEngine {
    /// Build the engine from an already-validated grammar (the caller —
    /// [`crate::GraphStore::from_grammar`] — revalidates first).
    pub(crate) fn new(grammar: Arc<Grammar>) -> Self {
        Self {
            reach: ReachIndex::new(grammar.clone()),
            grammar,
            expansions: ShardedMap::default(),
            plans: ShardedMap::default(),
            cache_counters: CacheCounters::default(),
        }
    }

    /// The grammar being served.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// G-representation navigation (Prop. 4): the reach index's own.
    pub(crate) fn index(&self) -> &GrammarIndex<Arc<Grammar>> {
        self.reach.index()
    }

    /// Neighbor ids of `repr` over `dirs`, sorted and deduplicated: the
    /// labeled walk with the label dropped at the emit. The caller resolves
    /// `repr` (possibly through the per-batch locate cache).
    pub(crate) fn collect_neighbors(
        &self,
        repr: &GRepr,
        dirs: &[Direction],
        scratch: &mut Scratch,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for &dir in dirs {
            self.walk(repr, dir, scratch, |_, w| out.push(w));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The labeled row of `repr`: sorted, deduplicated `(label, node)`
    /// pairs — the `out_edges`/`in_edges` primitive.
    pub(crate) fn collect_edges(
        &self,
        repr: &GRepr,
        dir: Direction,
        scratch: &mut Scratch,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.walk(repr, dir, scratch, |label, w| out.push((label, w)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The context walk: every edge of `val(G)` leaving (or entering) the
    /// node `repr` addresses, emitted as `(label, global id)`. The
    /// derivation-path buffer comes from `scratch`.
    fn walk(
        &self,
        repr: &GRepr,
        dir: Direction,
        scratch: &mut Scratch,
        mut emit: impl FnMut(u32, u64),
    ) {
        let full = &mut scratch.full;
        full.clear();
        full.extend_from_slice(&repr.path);
        self.scan(self.index().context(&repr.path), repr.node, dir, |head, rel, label, node| {
            full.truncate(repr.path.len());
            full.extend_from_slice(head);
            full.extend_from_slice(rel);
            emit(label, self.index().global_id(full, node));
        });
    }

    /// The one incident-edge scan. It mirrors `GrammarIndex`'s (the
    /// uncached reference, see [`GrammarIndex::rule_expansion`]) with the
    /// descent into each nonterminal edge replaced by its memoized
    /// expansion. `emit` receives the path below `graph` in two pieces —
    /// the incident nonterminal edge (or nothing, for a terminal edge of
    /// `graph` itself) and the cached rule-relative rest — then the
    /// terminal label and the other endpoint.
    fn scan(
        &self,
        graph: &Hypergraph,
        v: NodeId,
        dir: Direction,
        mut emit: impl FnMut(&[EdgeId], &[EdgeId], u32, NodeId),
    ) {
        for e in graph.incident(v) {
            let att = graph.att(e);
            match graph.label(e) {
                EdgeLabel::Terminal(label) => {
                    if let [from, to] = *att {
                        match dir {
                            Direction::Out if from == v => emit(&[], &[], label, to),
                            Direction::In if to == v => emit(&[], &[], label, from),
                            _ => {}
                        }
                    }
                }
                EdgeLabel::Nonterminal(nt) => {
                    for (pos, &x) in att.iter().enumerate() {
                        if x == v {
                            for (rel, label, node) in self.expansion(nt, pos as u32, dir).iter() {
                                emit(&[e], rel, *label, *node);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Memoized rule-relative expansion for `(nt, ext position, dir)` — a
    /// hit is an `Arc` clone out of the sharded cache (read lock, no copy).
    pub(crate) fn expansion(&self, nt: u32, pos: u32, dir: Direction) -> Expansion {
        let key: ExpansionKey = (nt, pos, dir);
        if let Some(hit) = self.expansions.get(&key) {
            self.cache_counters.expansion_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Compute outside any lock: the scan re-enters `expansion` for
        // nested nonterminals (sharing their entries too); straight-line
        // grammars make that recursion, over strictly smaller
        // nonterminals, finite.
        self.cache_counters.expansion_misses.fetch_add(1, Ordering::Relaxed);
        let rhs = self.grammar.rule(nt);
        let mut computed = Vec::new();
        if let Some(&v) = rhs.ext().get(pos as usize) {
            self.scan(rhs, v, dir, |head, rel, label, node| {
                computed.push(([head, rel].concat(), label, node));
            });
        }
        self.expansions.insert_if_absent(key, Arc::new(computed))
    }

    /// Compiled-plan lookup for an RPQ pattern — a hit is an `Arc` clone out
    /// of the sharded cache.
    pub(crate) fn plan(
        &self,
        pattern: &str,
    ) -> Result<Arc<RpqIndex<Arc<Grammar>>>, GrepairError> {
        if let Some(hit) = self.plans.get(pattern) {
            self.cache_counters.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.cache_counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        let nfa = compile_pattern(pattern)?;
        let plan = Arc::new(RpqIndex::new(self.grammar.clone(), nfa));
        Ok(self.plans.insert_if_absent(pattern.to_string(), plan))
    }
}

/// The one engine that overrides provided methods: the grammar answers
/// `reach`, `rpq` and the aggregates in the compressed domain (Thm. 6
/// skeletons + condensation labels, compiled product plans, one O(|G|)
/// pass) instead of walking rows.
impl QueryEngine for GrammarEngine {
    fn backend(&self) -> &'static str {
        crate::backend::GREPAIR
    }

    fn total_nodes(&self) -> u64 {
        self.index().total_nodes
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let repr = self.index().try_locate(v)?;
        Ok(self.collect_edges(&repr, Direction::Out, &mut Scratch::default()))
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let repr = self.index().try_locate(v)?;
        Ok(self.collect_edges(&repr, Direction::In, &mut Scratch::default()))
    }

    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        Ok(self.reach.try_reachable(s, t)?)
    }

    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let plan = self.plan(pattern)?;
        Ok(plan.try_matches(s, t)?)
    }

    fn components(&self) -> u64 {
        speedup::connected_components(&self.grammar)
    }

    fn degree_extrema(&self) -> Option<(u64, u64)> {
        speedup::degree_extrema(&self.grammar)
    }
}
