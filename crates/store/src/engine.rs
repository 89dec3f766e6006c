//! The grammar's query engine: grammar navigation and compiled RPQ plans.
//!
//! Rows are `grepair-queries`' own resolved walk
//! ([`grepair_queries::Located::row`]) over the reach index's one
//! [`GrammarIndex`], which keeps every slot-form rule expansion in a
//! once-filled cell, so a neighbor read from a cell costs one addition or
//! one lookup. Labeled rows and plain neighbor sets are the same walk, with
//! the label kept or dropped at the emit. The grammar engine is the one
//! implementor that overrides [`QueryEngine`]'s provided methods; the store
//! reaches it through the trait like the version overlay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use grepair_grammar::Grammar;
use grepair_queries::neighbors::Direction;
use grepair_queries::{speedup, GrammarIndex, ReachIndex, RpqIndex, RpqShared};
use grepair_util::sync::RwLock;
use grepair_util::FxHashMap;

use crate::backend::QueryEngine;
use crate::query::compile_pattern;
use crate::GrepairError;

/// How many compiled RPQ plans one engine keeps. The key is pattern text a
/// client chose and every plan owns its automaton's rows plus the
/// per-nonterminal relations in both directions — O(#rules · rank · |Q|)
/// cells; the navigation index and the adjacency are shared — so the map
/// must not grow with the number of distinct patterns ever asked; real
/// traffic repeats far fewer than this.
pub(crate) const MAX_CACHED_PLANS: usize = 64;

/// The grammar-backed [`QueryEngine`]: G-representation navigation
/// (Prop. 4) with the index's once-filled expansion cells, skeleton
/// reachability (Thm. 6) answered from condensation labels, and
/// grammar-side RPQ plans.
#[derive(Debug)]
pub(crate) struct GrammarEngine {
    grammar: Arc<Grammar>,
    /// Skeleton-based reachability (Thm. 6), built eagerly — and with it
    /// the one G-representation navigation index (Prop. 4) every verb
    /// shares (`GrammarEngine::index`), expansion cells included.
    reach: ReachIndex<Arc<Grammar>>,
    /// What every RPQ plan shares — the reach index's navigation index and
    /// the label-indexed adjacency of every context graph — built by the
    /// first `rpq`, so a store that is never asked one does not pay for it.
    rpq_shared: OnceLock<Arc<RpqShared<Arc<Grammar>>>>,
    /// Compiled RPQ plans per canonical pattern text, at most
    /// [`MAX_CACHED_PLANS`] of them.
    plans: RwLock<FxHashMap<String, Arc<RpqIndex<Arc<Grammar>>>>>,
    /// Plan lookups that hit / compiled. Relaxed atomics: exact totals, no
    /// lock (see `StoreStats`).
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl GrammarEngine {
    /// Build the engine from an already-validated grammar
    /// ([`crate::GraphStore::from_grammar`] validates first;
    /// [`crate::GraphStore::from_bytes`] passes what `decode` validated).
    pub(crate) fn new(grammar: Arc<Grammar>) -> Self {
        Self {
            reach: ReachIndex::new(grammar.clone()),
            grammar,
            rpq_shared: OnceLock::new(),
            plans: RwLock::default(),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
        }
    }

    /// The grammar being served.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// `[expansion hits, expansion misses, plan hits, plan misses]` — the
    /// four cache counters of [`crate::StoreStats`].
    pub(crate) fn cache_counts(&self) -> [u64; 4] {
        let [expansion_hits, expansion_misses] = self.index().expansion_counts();
        let [plan_hits, plan_misses] =
            [&self.plan_hits, &self.plan_misses].map(|c| c.load(Ordering::Relaxed));
        [expansion_hits, expansion_misses, plan_hits, plan_misses]
    }

    /// G-representation navigation (Prop. 4): the reach index's own.
    fn index(&self) -> &GrammarIndex<Arc<Grammar>> {
        self.reach.index()
    }

    /// Compiled-plan lookup for an RPQ pattern — a hit is an `Arc` clone
    /// under the read lock. An insert that would exceed
    /// [`MAX_CACHED_PLANS`] clears the map first: a pattern still in use
    /// re-enters on its next query.
    fn plan(&self, pattern: &str) -> Result<Arc<RpqIndex<Arc<Grammar>>>, GrepairError> {
        if let Some(hit) = self.plans.read().get(pattern) {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock; a thread that lost the race to insert
        // the same pattern adopts the winner's plan.
        let nfa = compile_pattern(pattern)?;
        let shared = self
            .rpq_shared
            .get_or_init(|| Arc::new(RpqShared::with_index(self.reach.shared_index())));
        let plan = Arc::new(RpqIndex::over(Arc::clone(shared), nfa));
        let mut plans = self.plans.write();
        if plans.len() >= MAX_CACHED_PLANS && !plans.contains_key(pattern) {
            plans.clear();
        }
        Ok(Arc::clone(plans.entry(pattern.to_string()).or_insert(plan)))
    }

    /// How many compiled plans are cached right now.
    #[cfg(test)]
    pub(crate) fn cached_plans(&self) -> usize {
        self.plans.read().len()
    }

    /// How many references the shared part of the plans has, `None` before
    /// the first `rpq` built it.
    #[cfg(test)]
    pub(crate) fn rpq_shared_refs(&self) -> Option<usize> {
        self.rpq_shared.get().map(Arc::strong_count)
    }

    /// Whether every cached plan navigates by the very index the rows and
    /// `reach` use, `None` before the first `rpq` compiled one.
    #[cfg(test)]
    pub(crate) fn plans_share_the_index(&self) -> Option<bool> {
        let plans = self.plans.read();
        let shared = |plan: &Arc<RpqIndex<_>>| std::ptr::eq(plan.index(), self.index());
        (!plans.is_empty()).then(|| plans.values().all(shared))
    }
}

/// The one engine that overrides provided methods: the grammar answers the
/// neighbor verbs by the unlabeled walk (no labeled row to project), and
/// `reach`, `rpq` and the aggregates in the compressed domain (Thm. 6
/// skeletons + condensation labels, compiled product plans, one O(|G|)
/// pass) instead of walking rows.
impl QueryEngine for GrammarEngine {
    fn total_nodes(&self) -> u64 {
        self.index().total_nodes
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        Ok(self.index().try_edges(v, Direction::Out)?)
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        Ok(self.index().try_edges(v, Direction::In)?)
    }

    fn neighbor_ids(
        &self,
        v: u64,
        dirs: &[Direction],
        ids: &mut Vec<u64>,
    ) -> Result<(), GrepairError> {
        let at = self.index().try_resolve(v)?;
        for &dir in dirs {
            at.row(dir, |_, w| ids.push(w));
        }
        Ok(())
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
