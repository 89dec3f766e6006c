//! Versioned graphs: an immutable compressed base plus an append-only
//! patch log of edge add/remove records (DESIGN.md §12).
//!
//! The paper's own evaluation compresses *version graphs* — snapshots of an
//! evolving graph — but a compressed container is frozen at encode time.
//! This module makes a served graph writable without giving up compression:
//! the base container stays untouched, every edit
//! is stored **once** in a stamped in-memory `Log` that all versions share,
//! and each applied patch is a new monotonic version — a number, not a
//! copy. A version is two corrected row functions:
//! [`crate::QueryEngine::out_edges`] / `in_edges` answer base row ⊕ the
//! log entries whose stamps cover that version, every verb is the trait's
//! provided row walk over them, and the base engine's compressed-domain
//! machinery keeps producing the base part of every row.
//!
//! Retained versions are addressable for as long as the namespace keeps
//! its log — `RELOAD` refuses to drop one; only a `DETACH` or a
//! programmatic swap, which name that intent, do: `v0` is the base, `vN`
//! is the state after the `N`-th patch, and the wire protocol's `@vN`
//! suffix pins a query to any of them while bare queries track the head
//! (DESIGN.md §12).

use std::sync::Arc;

use grepair_hypergraph::Hypergraph;
use grepair_queries::{Direction, QueryError};
use grepair_util::sync::RwLock;
use grepair_util::FxHashMap;

use crate::backend::QueryEngine;
use crate::{GraphStore, GrepairError};

/// Hard cap on a versioned graph's node bound (base nodes and any node a
/// patch introduces): whole-graph scans (`components`, `degrees`) and BFS
/// visited sets allocate proportionally to the bound, so a hostile
/// `PATCH ADD 0 0 <huge>` must not be able to demand gigabytes.
pub const MAX_VERSIONED_NODES: u64 = 1 << 24;

/// One edge patch operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOp {
    /// Insert the `(s, label, t)` triple; errors if it is already present.
    Add,
    /// Remove the `(s, label, t)` triple; errors if it is absent.
    Del,
}

/// One edge add/remove record: the unit of the patch log. Applying one
/// patch creates one new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePatch {
    /// The operation.
    pub op: PatchOp,
    /// Source node id.
    pub s: u64,
    /// Edge label.
    pub label: u32,
    /// Target node id.
    pub t: u64,
}

impl std::fmt::Display for EdgePatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let op = match self.op {
            PatchOp::Add => "ADD",
            PatchOp::Del => "DEL",
        };
        write!(f, "{op} {} {} {}", self.s, self.label, self.t)
    }
}

impl EdgePatch {
    /// Parse one patch record: `ADD <s> <label> <t>` or `DEL <s> <label>
    /// <t>` (the wire protocol's `PATCH` operand and the CLI patch-file
    /// line format — one grammar, byte-identical semantics).
    pub fn parse(text: &str) -> Result<Self, GrepairError> {
        let bad = || {
            GrepairError::BadRequest(format!(
                "bad patch {text:?} (want ADD|DEL <s> <label> <t>)"
            ))
        };
        let mut words = text.split_ascii_whitespace();
        let op = match words.next() {
            Some("ADD") => PatchOp::Add,
            Some("DEL") => PatchOp::Del,
            _ => return Err(bad()),
        };
        let mut num = || words.next().and_then(|w| w.parse::<u64>().ok()).ok_or_else(bad);
        let (s, label, t) = (num()?, num()?, num()?);
        if words.next().is_some() {
            return Err(bad());
        }
        let label = u32::try_from(label).map_err(|_| bad())?;
        let patch = Self { op, s, label, t };
        patch.check_ids()?;
        Ok(patch)
    }

    /// Reject node ids at or beyond [`MAX_VERSIONED_NODES`], and
    /// self-loops — the graph model drops those at ingestion
    /// (`Hypergraph::from_simple_edges`), so a patched graph containing
    /// one could never round-trip through recompression.
    fn check_ids(&self) -> Result<(), GrepairError> {
        if self.s == self.t {
            return Err(GrepairError::BadRequest(format!(
                "patch {self}: self-loops are not representable"
            )));
        }
        for id in [self.s, self.t] {
            if id >= MAX_VERSIONED_NODES {
                return Err(GrepairError::BadRequest(format!(
                    "patch node id {id} exceeds the versioning bound (max {})",
                    MAX_VERSIONED_NODES - 1
                )));
            }
        }
        Ok(())
    }
}

/// One stamped delta on one node's row: during versions `from..until` the
/// pair `(label, other)` is an added edge — or, with `hole`, a *base* edge
/// that is removed. `until` is `u32::MAX` while the entry is open (live at
/// the head); closing it — an added edge deleted again, a hole filled —
/// stores the closing version there, the only mutation an entry ever sees.
#[derive(Debug)]
struct Entry {
    label: u32,
    other: u64,
    from: u32,
    until: u32,
    hole: bool,
}

impl Entry {
    fn covers(&self, version: u32) -> bool {
        self.from <= version && version < self.until
    }

    /// Is this the entry a patch of `(label, other)` against the head
    /// closes? At most one entry per pair is open at a time.
    fn open_for(&self, label: u32, other: u64) -> bool {
        self.until == u32::MAX && self.label == label && self.other == other
    }
}

/// All the state one version owns: the running counters the `patched …` /
/// `VERSIONS` replies print, and the node bound (base bound, grown by added
/// endpoints — it never shrinks, so `@vN` answers stay stable however later
/// versions evolve).
#[derive(Debug, Clone, Copy)]
struct VersionRecord {
    added: u64,
    removed: u64,
    bound: u64,
}

/// The patch log, stored once and shared by every version's view. A view at
/// version `k` reads only the entries whose stamps cover `k`, so pushing an
/// entry stamped `k+1`, or closing one at `k+1`, changes no answer of any
/// view `≤ k`; and nothing stamped `k+1` is read before the record of
/// `k+1` exists, because no view of it has been built yet.
#[derive(Debug, Default)]
struct Log {
    /// Entries by source node (`other` is the target) …
    out: FxHashMap<u64, Vec<Entry>>,
    /// … and the same entries by target node (`other` is the source).
    inn: FxHashMap<u64, Vec<Entry>>,
    /// One record per version, `v0` first; every apply pushes its own last.
    versions: Vec<VersionRecord>,
}

/// The [`QueryEngine`] of one version: the immutable base store plus the
/// shared log read at `version`. A version is its two corrected row
/// functions — every query is the trait's provided row walk over them,
/// while the base grammar's navigation keeps producing the base part of
/// each row.
#[derive(Debug)]
struct OverlayEngine {
    base: Arc<GraphStore>,
    log: Arc<RwLock<Log>>,
    version: u32,
    bound: u64,
}

impl OverlayEngine {
    /// The corrected labeled row of `v` in direction `dir`: the base row
    /// minus the holes that cover this version, plus the adds that do
    /// (`(label, target)` pairs going out, `(label, source)` pairs coming
    /// in). Nodes beyond the base bound have no base row; a node the log
    /// never touched costs one hash probe on top of the base.
    fn row(&self, v: u64, dir: Direction) -> Result<Vec<(u32, u64)>, GrepairError> {
        if v >= self.bound {
            return Err(QueryError::NodeOutOfRange { id: v, total: self.bound }.into());
        }
        let mut row = match dir {
            _ if v >= self.base.total_nodes() => Vec::new(),
            Direction::Out => self.base.out_edges(v)?,
            Direction::In => self.base.in_edges(v)?,
        };
        let log = self.log.read();
        let side = match dir {
            Direction::Out => &log.out,
            Direction::In => &log.inn,
        };
        let Some(entries) = side.get(&v) else { return Ok(row) };
        let covering = || entries.iter().filter(|e| e.covers(self.version));
        // Holes first: they name base pairs, and the base row is sorted
        // only until something is appended to it.
        for hole in covering().filter(|e| e.hole) {
            if let Ok(i) = row.binary_search(&(hole.label, hole.other)) {
                row.remove(i);
            }
        }
        let kept = row.len();
        row.extend(covering().filter(|e| !e.hole).map(|e| (e.label, e.other)));
        if row.len() > kept {
            row.sort_unstable();
            row.dedup();
        }
        Ok(row)
    }
}

impl QueryEngine for OverlayEngine {
    fn total_nodes(&self) -> u64 {
        self.bound
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.row(v, Direction::Out)
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.row(v, Direction::In)
    }
}

/// One retained version's public description — the `VERSIONS` admin reply
/// and the CLI's `store versions` rows render these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionSummary {
    /// The version number (`0` = base).
    pub version: u64,
    /// Cumulative edges added against the base.
    pub added: u64,
    /// Cumulative base edges removed.
    pub removed: u64,
}

impl std::fmt::Display for VersionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}=+{}-{}", self.version, self.added, self.removed)
    }
}

/// An immutable base store plus its append-only patch log. Version `0` is
/// the base itself (served directly — no overlay indirection on an
/// unpatched graph); every applied [`EdgePatch`] yields a new version whose
/// [`GraphStore`] answers through an `OverlayEngine` reading the one shared
/// log at that version's number — a patch costs its own entry and one
/// record however long the log has grown, and overlay depth stays 1.
///
/// Patch application is atomic by construction: validation and the
/// `patch.apply` failpoint run before the log is touched, everything after
/// them is pushes and field stores, and the version record goes in last —
/// a failure anywhere leaves every version, the head included, exactly as
/// it was.
#[derive(Debug)]
pub struct VersionedStore {
    base: Arc<GraphStore>,
    log: Arc<RwLock<Log>>,
    /// The head version and its view. An apply holds the write lock from
    /// validation to swap — that is what serializes appliers.
    head: RwLock<(u64, Arc<GraphStore>)>,
}

impl VersionedStore {
    /// Open a version log over `base` (which becomes `v0`).
    pub fn new(base: Arc<GraphStore>) -> Result<Self, GrepairError> {
        if base.total_nodes() > MAX_VERSIONED_NODES {
            return Err(GrepairError::Unsupported(format!(
                "versioning supports at most {MAX_VERSIONED_NODES} nodes, base has {}",
                base.total_nodes()
            )));
        }
        let v0 = VersionRecord { added: 0, removed: 0, bound: base.total_nodes() };
        let log = Log { versions: vec![v0], ..Log::default() };
        let head = RwLock::new((0, Arc::clone(&base)));
        Ok(Self { base, log: Arc::new(RwLock::new(log)), head })
    }

    /// The base store (`v0`).
    pub fn base(&self) -> Arc<GraphStore> {
        Arc::clone(&self.base)
    }

    /// The head (latest) version's store.
    pub fn head(&self) -> Arc<GraphStore> {
        Arc::clone(&self.head.read().1)
    }

    /// The head version number (`0` until the first patch).
    pub fn head_version(&self) -> u64 {
        self.head.read().0
    }

    /// The store pinned to version `v`, erroring on unknown versions. The
    /// head is the head's own store and `v0` the base; any version between
    /// is a view built here from its record — a version keeps no store.
    pub fn at(&self, v: u64) -> Result<Arc<GraphStore>, GrepairError> {
        let head = self.head.read();
        if v == head.0 {
            return Ok(Arc::clone(&head.1));
        }
        if v == 0 {
            return Ok(self.base());
        }
        let record =
            usize::try_from(v).ok().and_then(|i| self.log.read().versions.get(i).copied());
        match (u32::try_from(v), record) {
            (Ok(version), Some(record)) => Ok(self.view(version, record.bound)),
            _ => Err(GrepairError::BadRequest(format!(
                "unknown version v{v} (head is v{})",
                head.0
            ))),
        }
    }

    /// Every retained version's cumulative delta size, in order.
    pub fn summaries(&self) -> Vec<VersionSummary> {
        let log = self.log.read();
        (0..)
            .zip(&log.versions)
            .map(|(version, r)| VersionSummary { version, added: r.added, removed: r.removed })
            .collect()
    }

    /// The store of `version`: one small allocation over the shared log.
    fn view(&self, version: u32, bound: u64) -> Arc<GraphStore> {
        let (base, log) = (Arc::clone(&self.base), Arc::clone(&self.log));
        Arc::new(GraphStore::from_engine(Box::new(OverlayEngine { base, log, version, bound })))
    }

    /// Apply one patch against the head, creating and returning the new
    /// version (summary and store). Validation and the `patch.apply`
    /// failpoint (DESIGN.md §10) both run before anything shared mutates:
    /// a failed apply changes nothing — no torn version can exist.
    pub fn apply(
        &self,
        patch: EdgePatch,
    ) -> Result<(VersionSummary, Arc<GraphStore>), GrepairError> {
        patch.check_ids()?;
        let EdgePatch { op, s, label, t } = patch;
        let mut head = self.head.write();
        let head_version = head.0;
        // Stamps stay below `u32::MAX`, which marks an open entry.
        let next = u32::try_from(head_version + 1).ok().filter(|&n| n < u32::MAX);
        // The pair's open entry says whether the edge is present at the
        // head; where the log has none, the base row does.
        let (open, record) = {
            let log = self.log.read();
            let entries = log.out.get(&s).into_iter().flatten();
            let open = entries.into_iter().find(|e| e.open_for(label, t)).map(|e| e.hole);
            (open, log.versions.last().copied())
        };
        let (Some(next), Some(mut record)) = (next, record) else {
            return Err(GrepairError::BadRequest(format!(
                "patch {patch}: the version log is full at v{head_version}"
            )));
        };
        let present = match open {
            Some(hole) => !hole,
            None => {
                s < self.base.total_nodes()
                    && t < self.base.total_nodes()
                    && self.base.out_edges(s)?.binary_search(&(label, t)).is_ok()
            }
        };
        match op {
            PatchOp::Add if present => {
                return Err(GrepairError::BadRequest(format!(
                    "patch {patch}: edge already present at v{head_version}"
                )));
            }
            PatchOp::Del if !present => {
                return Err(GrepairError::BadRequest(format!(
                    "patch {patch}: no such edge at v{head_version}"
                )));
            }
            _ => {}
        }
        // Failpoint `patch.apply` (DESIGN.md §10): injects a failure after
        // validation, before the new version becomes visible — the window
        // a crashing patch must not tear. Nothing above wrote anything, so
        // erroring here leaves the log untouched.
        grepair_util::fail::point("patch.apply").map_err(|error| {
            GrepairError::Unavailable(format!("patch {patch} aborted: {error}"))
        })?;
        // An open entry is closed — an added edge deleted again, or a hole
        // filled, so "add then delete" folds back to `+0-0` — anything else
        // is a new entry, and an `ADD` may grow the bound.
        let hole = open.unwrap_or(op == PatchOp::Del);
        let counter = if hole { &mut record.removed } else { &mut record.added };
        *counter = if open.is_some() { counter.saturating_sub(1) } else { *counter + 1 };
        if op == PatchOp::Add {
            record.bound = record.bound.max(s + 1).max(t + 1);
        }
        {
            let mut log = self.log.write();
            let log = &mut *log;
            for (side, node, other) in [(&mut log.out, s, t), (&mut log.inn, t, s)] {
                let entries = side.entry(node).or_default();
                match entries.iter_mut().find(|e| e.open_for(label, other)) {
                    Some(entry) => entry.until = next,
                    None => entries.push(Entry { label, other, from: next, until: u32::MAX, hole }),
                }
            }
            log.versions.push(record);
        }
        let store = self.view(next, record.bound);
        *head = (u64::from(next), Arc::clone(&store));
        let summary =
            VersionSummary { version: head.0, added: record.added, removed: record.removed };
        Ok((summary, store))
    }
}

/// Decompress a store into the labeled graph it serves: every corrected
/// `(s, label, t)` triple, over the full node bound. This is the
/// recompression input (`store patch -o`, the bench's crossover
/// measurement) and the byte-identity oracle's ground truth: a version's
/// answers must match a from-scratch compression of this graph.
pub fn materialize(store: &GraphStore) -> Result<Hypergraph, GrepairError> {
    let n = store.total_nodes();
    if n > MAX_VERSIONED_NODES {
        return Err(GrepairError::Unsupported(format!(
            "materialize supports at most {MAX_VERSIONED_NODES} nodes, store has {n}"
        )));
    }
    let mut triples = Vec::new();
    for v in 0..n {
        for (label, t) in store.out_edges(v)? {
            triples.push((v as u32, label, t as u32));
        }
    }
    Ok(Hypergraph::from_simple_edges(n as usize, triples).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_grammar::Grammar;
    use grepair_hypergraph::Hypergraph;
    use grepair_util::FxHashSet;

    /// `g` as a rule-free grammar container, loaded: nothing is compressed,
    /// so every node keeps its input id.
    fn rule_free(g: Hypergraph) -> Arc<GraphStore> {
        let labels = g.edges().map(|e| e.label.index() + 1).max().unwrap_or(0);
        let enc = grepair_codec::encode(&Grammar::new(g, labels));
        Arc::new(GraphStore::from_bytes(&crate::write_container(&enc.bytes, enc.bit_len)).unwrap())
    }

    /// A two-label path store: `0 -0-> 1 -1-> 2 -0-> 3 …`.
    fn base_store(n: u32) -> Arc<GraphStore> {
        rule_free(Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, i % 2, i + 1))).0)
    }

    #[test]
    fn patch_lines_parse_and_render() {
        for (text, op) in [("ADD 3 1 9", PatchOp::Add), ("DEL 3 1 9", PatchOp::Del)] {
            let p = EdgePatch::parse(text).unwrap();
            assert_eq!(p, EdgePatch { op, s: 3, label: 1, t: 9 });
            assert_eq!(p.to_string(), text);
        }
        // Extra whitespace is tolerated; junk is not.
        assert!(EdgePatch::parse("  ADD  1  0  2  ").is_ok());
        for bad in [
            "", "ADD", "ADD 1 2", "ADD 1 2 3 4", "add 1 2 3", "PUT 1 2 3", "ADD x 0 2",
            "ADD 1 0 -2", "ADD 1 99999999999 2", "ADD 3 0 3",
        ] {
            assert!(EdgePatch::parse(bad).is_err(), "{bad:?}");
        }
        // Ids beyond the versioning bound are rejected at parse time.
        let huge = format!("ADD {} 0 1", MAX_VERSIONED_NODES);
        assert!(EdgePatch::parse(&huge).is_err());
    }

    #[test]
    fn patches_version_monotonically_and_retain_history() {
        // Rule-free base: labeled, no node renumbering.
        let base = base_store(5); // 0-0->1-1->2-0->3-1->4
        let log = VersionedStore::new(Arc::clone(&base)).unwrap();
        assert_eq!(log.head_version(), 0);
        assert!(Arc::ptr_eq(&log.head(), &base), "v0 serves the base directly");

        // v1: close the cycle 4 -> 0.
        let (v1, s1) = log.apply(EdgePatch::parse("ADD 4 0 0").unwrap()).unwrap();
        assert_eq!(v1, VersionSummary { version: 1, added: 1, removed: 0 });
        assert!(s1.reachable(3, 1).unwrap());
        // v2: cut the middle.
        let (v2, s2) = log.apply(EdgePatch::parse("DEL 2 0 3").unwrap()).unwrap();
        assert_eq!(v2, VersionSummary { version: 2, added: 1, removed: 1 });
        assert!(!s2.reachable(1, 3).unwrap());
        assert!(s2.reachable(4, 1).unwrap(), "the added edge survives");

        // Time travel: every retained version still answers its own state.
        assert!(!log.at(0).unwrap().reachable(3, 1).unwrap());
        assert!(log.at(1).unwrap().reachable(1, 3).unwrap());
        assert!(Arc::ptr_eq(&log.at(2).unwrap(), &log.head()));
        let err = log.at(9).unwrap_err().to_string();
        assert!(err.contains("unknown version v9") && err.contains("head is v2"), "{err}");

        assert_eq!(
            log.summaries(),
            vec![
                VersionSummary { version: 0, added: 0, removed: 0 },
                VersionSummary { version: 1, added: 1, removed: 0 },
                VersionSummary { version: 2, added: 1, removed: 1 },
            ]
        );
        assert_eq!(log.summaries()[2].to_string(), "v2=+1-1");
    }

    #[test]
    fn duplicate_adds_and_missing_dels_error() {
        let log = VersionedStore::new(base_store(4)).unwrap();
        // Base edge 0-0->1 exists.
        let dup = log.apply(EdgePatch::parse("ADD 0 0 1").unwrap()).unwrap_err();
        assert!(dup.to_string().contains("already present at v0"), "{dup}");
        let gone = log.apply(EdgePatch::parse("DEL 0 1 1").unwrap()).unwrap_err();
        assert!(gone.to_string().contains("no such edge at v0"), "{gone}");
        // Failed applies create no version.
        assert_eq!(log.head_version(), 0);
        // Add then delete the same overlay edge: the overlay returns to
        // empty rather than carrying both records.
        log.apply(EdgePatch::parse("ADD 3 5 0").unwrap()).unwrap();
        log.apply(EdgePatch::parse("DEL 3 5 0").unwrap()).unwrap();
        assert_eq!(
            log.summaries().last().copied(),
            Some(VersionSummary { version: 2, added: 0, removed: 0 })
        );
        // Delete a base edge, then re-add it: removed set returns to empty.
        log.apply(EdgePatch::parse("DEL 0 0 1").unwrap()).unwrap();
        log.apply(EdgePatch::parse("ADD 0 0 1").unwrap()).unwrap();
        assert_eq!(
            log.summaries().last().copied(),
            Some(VersionSummary { version: 4, added: 0, removed: 0 })
        );
    }

    #[test]
    fn patches_grow_the_node_bound() {
        let log = VersionedStore::new(base_store(3)).unwrap();
        let (_, s) = log.apply(EdgePatch::parse("ADD 2 0 7").unwrap()).unwrap();
        assert_eq!(s.total_nodes(), 8);
        assert_eq!(s.out_neighbors(2).unwrap(), vec![7]);
        assert_eq!(s.in_neighbors(7).unwrap(), vec![2]);
        assert_eq!(s.out_neighbors(5).unwrap(), Vec::<u64>::new(), "fresh nodes are isolated");
        assert!(s.reachable(0, 7).unwrap());
        // v0 keeps the old bound: the new id is out of range there.
        assert!(log.at(0).unwrap().out_neighbors(7).is_err());
        // Components: 3 base nodes chained + 5 new nodes, one edge into 7.
        assert_eq!(s.components(), 5);
        assert_eq!(s.degree_extrema(), Some((0, 2)));
    }

    #[test]
    fn overlay_answers_match_recompressed_materialization() {
        // The oracle in miniature (the proptest in tests/versioning.rs
        // drives it over compressed bases and random patch sequences): a
        // patched store answers exactly like a fresh encoding of its
        // materialized graph.
        let log = VersionedStore::new(base_store(6)).unwrap();
        for line in ["DEL 1 1 2", "ADD 0 1 3", "ADD 5 0 1", "DEL 3 1 4", "ADD 2 2 0"] {
            log.apply(EdgePatch::parse(line).unwrap()).unwrap();
        }
        let head = log.head();
        let fresh = rule_free(materialize(&head).unwrap());
        assert_eq!(fresh.total_nodes(), head.total_nodes());
        for v in 0..head.total_nodes() {
            assert_eq!(head.out_neighbors(v).unwrap(), fresh.out_neighbors(v).unwrap(), "{v}");
            assert_eq!(head.in_neighbors(v).unwrap(), fresh.in_neighbors(v).unwrap(), "{v}");
            assert_eq!(head.out_edges(v).unwrap(), fresh.out_edges(v).unwrap(), "{v}");
        }
        for (s, t) in [(0, 5), (5, 0), (2, 2), (0, 3), (3, 0)] {
            assert_eq!(head.reachable(s, t).unwrap(), fresh.reachable(s, t).unwrap(), "{s}->{t}");
            assert_eq!(
                head.rpq("0* 1?", s, t).unwrap(),
                fresh.rpq("0* 1?", s, t).unwrap(),
                "{s}->{t}"
            );
        }
        assert_eq!(head.components(), fresh.components());
        assert_eq!(head.degree_extrema(), fresh.degree_extrema());
    }

    #[test]
    fn holes_are_cut_before_adds_are_appended() {
        // Node 3's base row is [(0,1),(2,2)]. The add sorts *between* the
        // two, so a row function that appended it before cutting the hole
        // would binary-search an unsorted row for (2,2).
        let base = rule_free(Hypergraph::from_simple_edges(6, [(3u32, 0u32, 1u32), (3, 2, 2)]).0);
        assert_eq!(base.out_edges(3).unwrap(), vec![(0, 1), (2, 2)]);
        let log = VersionedStore::new(base).unwrap();
        log.apply(EdgePatch::parse("ADD 3 0 5").unwrap()).unwrap();
        log.apply(EdgePatch::parse("DEL 3 2 2").unwrap()).unwrap();
        assert_eq!(log.head().out_edges(3).unwrap(), vec![(0, 1), (0, 5)]);
        assert_eq!(log.at(1).unwrap().out_edges(3).unwrap(), vec![(0, 1), (0, 5), (2, 2)]);
        assert_eq!(log.at(0).unwrap().out_edges(3).unwrap(), vec![(0, 1), (2, 2)]);
        assert_eq!(log.head().in_edges(2).unwrap(), vec![]);
        assert_eq!(log.at(1).unwrap().in_edges(2).unwrap(), vec![(2, 3)]);
    }

    #[test]
    fn the_log_grows_by_one_record_and_at_most_one_entry_per_patch() {
        // A seeded stream of patches over a 6×2×6 triple space, about half
        // of them refused (present ADDs, absent DELs, self-loops), checked
        // against the folding model: `added` holds what the head has beyond
        // the base, `removed` what the base has beyond the head.
        let base = base_store(5);
        let log = VersionedStore::new(Arc::clone(&base)).unwrap();
        let in_base = |s: u64, label, t| {
            s < 5 && base.out_edges(s).unwrap().binary_search(&(label, t)).is_ok()
        };
        let (mut added, mut removed) = (FxHashSet::default(), FxHashSet::default());
        let mut expected = vec![VersionSummary { version: 0, added: 0, removed: 0 }];
        let (mut refused, mut x) = (0, 19u64);
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (s, label, t) = ((x >> 33) % 6, ((x >> 41) % 2) as u32, (x >> 49) % 6);
            let op = if (x >> 57) % 2 == 0 { PatchOp::Add } else { PatchOp::Del };
            let e = (s, label, t);
            let present = added.contains(&e) || (in_base(s, label, t) && !removed.contains(&e));
            let applied = log.apply(EdgePatch { op, s, label, t });
            if s == t || present == (op == PatchOp::Add) {
                assert!(applied.is_err(), "{op:?} {e:?}");
                refused += 1;
                continue;
            }
            match op {
                PatchOp::Add if !removed.remove(&e) => assert!(added.insert(e)),
                PatchOp::Del if !added.remove(&e) => assert!(removed.insert(e)),
                _ => {}
            }
            expected.push(VersionSummary {
                version: expected.len() as u64,
                added: added.len() as u64,
                removed: removed.len() as u64,
            });
            assert_eq!(applied.unwrap().0, expected[expected.len() - 1]);
        }
        let applied = expected.len() - 1;
        assert!(applied > 100 && refused > 100, "{applied} applied, {refused} refused");
        assert_eq!(log.summaries(), expected);
        let shared = log.log.read();
        assert_eq!(shared.versions.len(), applied + 1);
        for side in [&shared.out, &shared.inn] {
            let entries: usize = side.values().map(Vec::len).sum();
            assert!(entries <= applied, "{entries} entries for {applied} patches");
            // Folding closes entries instead of stacking them: what is
            // still open is exactly the head's delta.
            let open = side.values().flatten().filter(|e| e.until == u32::MAX).count();
            assert_eq!(open, added.len() + removed.len());
        }
    }

    #[test]
    fn self_loop_patches_are_rejected() {
        // The graph model drops self-loops at ingestion, so the overlay
        // refuses to introduce what recompression could not round-trip.
        let log = VersionedStore::new(base_store(2)).unwrap();
        let err =
            log.apply(EdgePatch { op: PatchOp::Add, s: 1, label: 0, t: 1 }).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
        assert!(EdgePatch::parse("ADD 1 0 1").is_err());
        assert_eq!(log.head_version(), 0);
    }

    #[test]
    fn versioning_refuses_oversized_bases() {
        // A fake engine reporting a huge node count must be refused — the
        // whole-graph scans would otherwise allocate per node.
        #[derive(Debug)]
        struct Huge;
        impl QueryEngine for Huge {
            fn total_nodes(&self) -> u64 {
                MAX_VERSIONED_NODES + 1
            }
            fn out_edges(&self, _: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
                Ok(Vec::new())
            }
            fn in_edges(&self, _: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
                Ok(Vec::new())
            }
        }
        let store = Arc::new(GraphStore::from_engine(Box::new(Huge)));
        let err = VersionedStore::new(store).unwrap_err().to_string();
        assert!(err.contains("at most"), "{err}");
    }
}
