//! The grammar's query engine: grammar navigation with memoized rule
//! expansions and compiled RPQ plans.
//!
//! Rows are `grepair-queries`' own resolved walk
//! ([`grepair_queries::Located::row`]); what the engine adds is where a
//! nested expansion comes from: the once-filled table of slot-form
//! expansions, so a neighbor read from a cell costs one addition or one
//! lookup. Labeled rows and plain neighbor sets are the same walk, with the
//! label kept or dropped at the emit. The grammar engine is the one
//! implementor that overrides [`QueryEngine`]'s provided methods; the store
//! reaches it through the trait like the version overlay.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use grepair_grammar::Grammar;
use grepair_queries::neighbors::{Direction, Expansions};
use grepair_queries::{speedup, GrammarIndex, ReachIndex, RpqIndex, RpqShared, Slot};
use grepair_util::sync::RwLock;
use grepair_util::FxHashMap;

use crate::backend::QueryEngine;
use crate::query::compile_pattern;
use crate::GrepairError;

/// One entry of a rule expansion: terminal label and slot (see
/// [`GrammarIndex::expand`]).
pub(crate) type ExpansionEntry = (u32, Slot);

/// How many compiled RPQ plans one engine keeps. The key is pattern text a
/// client chose and every plan owns its automaton's rows plus the
/// per-nonterminal relations in both directions — O(#rules · rank · |Q|)
/// cells; the navigation index and the adjacency are shared — so the map
/// must not grow with the number of distinct patterns ever asked; real
/// traffic repeats far fewer than this.
pub(crate) const MAX_CACHED_PLANS: usize = 64;

/// Hit/miss counters for the engine's two store-wide caches. Relaxed
/// atomics: exact totals, no lock (see `StoreStats`).
#[derive(Debug, Default)]
struct CacheCounters {
    expansion_hits: AtomicU64,
    expansion_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

/// The grammar-backed [`QueryEngine`]: G-representation navigation
/// (Prop. 4), skeleton reachability (Thm. 6) answered from condensation
/// labels, grammar-side RPQ plans, and the rule-expansion table that makes
/// hub-node neighborhoods cheap.
#[derive(Debug)]
pub(crate) struct GrammarEngine {
    grammar: Arc<Grammar>,
    /// Skeleton-based reachability (Thm. 6), built eagerly — and with it
    /// the one G-representation navigation index (Prop. 4) every verb
    /// shares (`GrammarEngine::index`).
    reach: ReachIndex<Arc<Grammar>>,
    /// Rule expansions — hot on hub nodes, whose incident nonterminal
    /// edges repeat few distinct labels. The §V neighborhood walk only ever
    /// expands (nonterminal, external position, direction) triples, a
    /// finite set known at load: one cell each, at `slot_base[nt] + 2·pos +
    /// dir`, filled on first use and borrowed ever after. Labeled rows and
    /// plain neighbor sets both read it.
    expansions: Vec<OnceLock<Vec<ExpansionEntry>>>,
    /// First cell of each nonterminal, plus the table length as a final
    /// entry (so `slot_base[nt]..slot_base[nt + 1]` are `nt`'s cells).
    slot_base: Vec<usize>,
    /// What every RPQ plan shares — the reach index's navigation index and
    /// the label-indexed adjacency of every context graph — built by the
    /// first `rpq`, so a store that is never asked one does not pay for it.
    rpq_shared: OnceLock<Arc<RpqShared<Arc<Grammar>>>>,
    /// Compiled RPQ plans per canonical pattern text, at most
    /// [`MAX_CACHED_PLANS`] of them.
    plans: RwLock<FxHashMap<String, Arc<RpqIndex<Arc<Grammar>>>>>,
    cache_counters: CacheCounters,
}

impl GrammarEngine {
    /// Build the engine from an already-validated grammar
    /// ([`crate::GraphStore::from_grammar`] validates first;
    /// [`crate::GraphStore::from_bytes`] passes what `decode` validated).
    pub(crate) fn new(grammar: Arc<Grammar>) -> Self {
        let mut slot_base = Vec::with_capacity(grammar.num_nonterminals() + 1);
        let mut slots = 0;
        for rhs in grammar.rules() {
            slot_base.push(slots);
            slots += 2 * rhs.rank();
        }
        slot_base.push(slots);
        Self {
            reach: ReachIndex::new(grammar.clone()),
            grammar,
            expansions: std::iter::repeat_with(OnceLock::new).take(slots).collect(),
            slot_base,
            rpq_shared: OnceLock::new(),
            plans: RwLock::default(),
            cache_counters: CacheCounters::default(),
        }
    }

    /// The grammar being served.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// `[expansion hits, expansion misses, plan hits, plan misses]` — the
    /// four cache counters of [`crate::StoreStats`].
    pub(crate) fn cache_counts(&self) -> [u64; 4] {
        let c = &self.cache_counters;
        [&c.expansion_hits, &c.expansion_misses, &c.plan_hits, &c.plan_misses]
            .map(|counter| counter.load(Ordering::Relaxed))
    }

    /// G-representation navigation (Prop. 4): the reach index's own.
    fn index(&self) -> &GrammarIndex<Arc<Grammar>> {
        self.reach.index()
    }

    /// The labeled row of `v` in one direction, sorted and deduplicated.
    fn labeled_row(&self, v: u64, dir: Direction) -> Result<Vec<(u32, u64)>, GrepairError> {
        let mut row = Vec::new();
        self.index().try_resolve(v)?.row(dir, self, |label, w| row.push((label, w)));
        row.sort_unstable();
        row.dedup();
        Ok(row)
    }

    /// Slot-form expansion of `(nt, ext position, dir)`. A hit borrows the
    /// table cell — no hash, no lock, no reference count. A triple with no
    /// cell (no such nonterminal, or `pos` beyond its rank; a validated
    /// grammar never asks) is computed uncached.
    pub(crate) fn expansion(
        &self,
        nt: u32,
        pos: usize,
        dir: Direction,
    ) -> Cow<'_, [ExpansionEntry]> {
        // The fill takes nested nonterminals from `self` (sharing their
        // cells too). Those are other cells — a straight-line grammar only
        // nests strictly smaller nonterminals — so the recursion is finite
        // and never waits on the cell being filled.
        let fill = || {
            let mut entries = Vec::new();
            self.index().expand(nt, pos, dir, self, &mut |label, slot| entries.push((label, slot)));
            entries
        };
        let Some(cell) = self.cell(nt, pos, dir) else {
            return Cow::Owned(fill());
        };
        if let Some(hit) = cell.get() {
            self.cache_counters.expansion_hits.fetch_add(1, Ordering::Relaxed);
            return Cow::Borrowed(hit);
        }
        self.cache_counters.expansion_misses.fetch_add(1, Ordering::Relaxed);
        Cow::Borrowed(cell.get_or_init(fill))
    }

    /// The table cell of `(nt, pos, dir)`, if the table has one.
    fn cell(&self, nt: u32, pos: usize, dir: Direction) -> Option<&OnceLock<Vec<ExpansionEntry>>> {
        let nt = nt as usize;
        let (base, end) = (*self.slot_base.get(nt)?, *self.slot_base.get(nt + 1)?);
        let dir = match dir {
            Direction::Out => 0,
            Direction::In => 1,
        };
        self.expansions.get(base..end)?.get(pos.saturating_mul(2).saturating_add(dir))
    }

    /// Compiled-plan lookup for an RPQ pattern — a hit is an `Arc` clone
    /// under the read lock. An insert that would exceed
    /// [`MAX_CACHED_PLANS`] clears the map first: a pattern still in use
    /// re-enters on its next query.
    fn plan(&self, pattern: &str) -> Result<Arc<RpqIndex<Arc<Grammar>>>, GrepairError> {
        if let Some(hit) = self.plans.read().get(pattern) {
            self.cache_counters.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.cache_counters.plan_misses.fetch_add(1, Ordering::Relaxed);
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

/// Nested expansions come from the table: one cell read per lookup.
impl Expansions for GrammarEngine {
    fn each(&self, nt: u32, pos: usize, dir: Direction, mut f: impl FnMut(u32, Slot)) {
        for &(label, slot) in self.expansion(nt, pos, dir).iter() {
            f(label, slot);
        }
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
        self.labeled_row(v, Direction::Out)
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.labeled_row(v, Direction::In)
    }

    fn neighbor_ids(
        &self,
        v: u64,
        dirs: &[Direction],
        ids: &mut Vec<u64>,
    ) -> Result<(), GrepairError> {
        let at = self.index().try_resolve(v)?;
        for &dir in dirs {
            at.row(dir, self, |_, w| ids.push(w));
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
