//! Versioned graphs: an immutable compressed base plus an append-only
//! patch log of edge add/remove records (DESIGN.md §12).
//!
//! The paper's own evaluation compresses *version graphs* — snapshots of an
//! evolving graph — but a compressed container is frozen at encode time.
//! This module makes a served graph writable without giving up compression:
//! the base container (any registered backend) stays untouched, every edit
//! lives in a cheap in-memory `Overlay`, and each applied patch is a new
//! monotonic version. A version is two corrected row functions:
//! [`crate::QueryEngine::out_edges`] / `in_edges` answer base row ⊕ overlay
//! correction, every verb is the trait's provided row walk over them, and
//! the base engine's compressed-domain machinery keeps producing the base
//! part of every row.
//!
//! Retained versions are addressable forever (until a reload/detach drops
//! the log): `v0` is the base, `vN` is the state after the `N`-th patch,
//! and the wire protocol's `@vN` suffix pins a query to any of them while
//! bare queries track the head (DESIGN.md §12).

use std::sync::Arc;

use grepair_hypergraph::Hypergraph;
use grepair_queries::{Direction, QueryError};
use grepair_util::sync::RwLock;
use grepair_util::{FxHashMap, FxHashSet};

use crate::backend::QueryEngine;
use crate::{GraphStore, GrepairError};

/// Hard cap on a versioned graph's node bound (base nodes and any node a
/// patch introduces). The same guard the baseline decoders apply
/// (`k2::MAX_DECODE_NODES`): whole-graph scans (`components`, `degrees`)
/// and BFS visited sets allocate proportionally to the bound, so a hostile
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

/// The cumulative delta of one version against the base: edges added on
/// top of the base and base edges removed, plus the (possibly grown) node
/// bound. Immutable once built — applying a patch clones the head overlay
/// and extends the clone, so every retained version keeps answering from
/// its own frozen state.
#[derive(Debug, Clone, Default)]
pub(crate) struct Overlay {
    /// Added edges by source: `s → sorted (label, t)` pairs.
    added_out: FxHashMap<u64, Vec<(u32, u64)>>,
    /// Added edges by target: `t → sorted (label, s)` pairs.
    added_in: FxHashMap<u64, Vec<(u32, u64)>>,
    /// Removed *base* triples `(s, label, t)` (an added-then-deleted edge
    /// just leaves `added_*` again — the overlay stays minimal).
    removed: FxHashSet<(u64, u32, u64)>,
    /// Node bound of this version: base bound, grown by added endpoints.
    bound: u64,
}

impl Overlay {
    fn empty(bound: u64) -> Self {
        Self { bound, ..Self::default() }
    }

    fn added_len(&self) -> u64 {
        self.added_out.values().map(|row| row.len() as u64).sum()
    }

    fn removed_len(&self) -> u64 {
        self.removed.len() as u64
    }

    fn contains_added(&self, s: u64, label: u32, t: u64) -> bool {
        self.added_out
            .get(&s)
            .is_some_and(|row| row.binary_search(&(label, t)).is_ok())
    }

    fn add(&mut self, s: u64, label: u32, t: u64) {
        if !self.removed.remove(&(s, label, t)) {
            // Not a resurrected base edge: record it as added, keeping both
            // directions sorted for binary search and merge.
            for (map, key, pair) in
                [(&mut self.added_out, s, (label, t)), (&mut self.added_in, t, (label, s))]
            {
                let row = map.entry(key).or_default();
                if let Err(i) = row.binary_search(&pair) {
                    row.insert(i, pair);
                }
            }
        }
        self.bound = self.bound.max(s + 1).max(t + 1);
    }

    fn del(&mut self, s: u64, label: u32, t: u64) {
        let mut was_added = false;
        for (map, key, pair) in
            [(&mut self.added_out, s, (label, t)), (&mut self.added_in, t, (label, s))]
        {
            if let Some(row) = map.get_mut(&key) {
                if let Ok(i) = row.binary_search(&pair) {
                    row.remove(i);
                    was_added = true;
                }
                if row.is_empty() {
                    map.remove(&key);
                }
            }
        }
        if !was_added {
            self.removed.insert((s, label, t));
        }
        // The bound never shrinks: a version's id space is append-only, so
        // `@vN` answers stay stable however later versions evolve.
    }

    /// The corrected labeled row of `v` in direction `dir`: base rows minus
    /// removed triples plus added rows (`(label, target)` pairs going out,
    /// `(label, source)` pairs coming in). Nodes beyond the base bound have
    /// no base rows.
    fn corrected(
        &self,
        base: &GraphStore,
        v: u64,
        dir: Direction,
    ) -> Result<Vec<(u32, u64)>, GrepairError> {
        let mut rows = Vec::new();
        if v < base.total_nodes() {
            rows = match dir {
                Direction::Out => base.out_edges(v)?,
                Direction::In => base.in_edges(v)?,
            };
            rows.retain(|&(label, w)| {
                let (s, t) = match dir {
                    Direction::Out => (v, w),
                    Direction::In => (w, v),
                };
                !self.removed.contains(&(s, label, t))
            });
        }
        let added = match dir {
            Direction::Out => &self.added_out,
            Direction::In => &self.added_in,
        };
        if let Some(extra) = added.get(&v) {
            rows.extend(extra.iter().copied());
            rows.sort_unstable();
            rows.dedup();
        }
        Ok(rows)
    }
}

/// The [`QueryEngine`] of one retained version: the immutable base store
/// plus this version's frozen `Overlay`. A version is its two corrected row
/// functions — every query is the trait's provided row walk over them,
/// while the base's own compressed-domain machinery (grammar navigation,
/// k²-tree walks) keeps producing the base part of each row.
#[derive(Debug)]
struct OverlayEngine {
    base: Arc<GraphStore>,
    overlay: Arc<Overlay>,
}

impl OverlayEngine {
    fn row(&self, v: u64, dir: Direction) -> Result<Vec<(u32, u64)>, GrepairError> {
        if v >= self.overlay.bound {
            return Err(QueryError::NodeOutOfRange { id: v, total: self.overlay.bound }.into());
        }
        self.overlay.corrected(&self.base, v, dir)
    }
}

impl QueryEngine for OverlayEngine {
    fn backend(&self) -> &'static str {
        // A version serves *as* its base backend: INFO/STATS report what
        // answers the structural part of every query.
        self.base.backend()
    }

    fn total_nodes(&self) -> u64 {
        self.overlay.bound
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

struct VersionEntry {
    store: Arc<GraphStore>,
    overlay: Arc<Overlay>,
}

impl std::fmt::Debug for VersionEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionEntry").field("overlay", &self.overlay).finish_non_exhaustive()
    }
}

/// An immutable base store plus its append-only patch log. Version `0` is
/// the base itself (served directly — no overlay indirection on an
/// unpatched graph); every applied [`EdgePatch`] yields a new retained
/// version whose [`GraphStore`] answers through an `OverlayEngine`
/// holding the *cumulative* delta, so overlay depth stays 1 no matter how
/// long the log grows.
///
/// Patch application is atomic by construction: the new overlay is built
/// from a clone of the head's, and nothing shared mutates until the final
/// push — a failure anywhere (validation, the `patch.apply` failpoint)
/// leaves every retained version, the head included, exactly as it was.
#[derive(Debug)]
pub struct VersionedStore {
    base: Arc<GraphStore>,
    versions: RwLock<Vec<VersionEntry>>,
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
        let overlay = Arc::new(Overlay::empty(base.total_nodes()));
        let v0 = VersionEntry { store: Arc::clone(&base), overlay };
        Ok(Self { base, versions: RwLock::new(vec![v0]) })
    }

    /// The base store (`v0`).
    pub fn base(&self) -> Arc<GraphStore> {
        Arc::clone(&self.base)
    }

    /// The head (latest) version's store.
    pub fn head(&self) -> Arc<GraphStore> {
        let versions = self.versions.read();
        match versions.last() {
            Some(entry) => Arc::clone(&entry.store),
            // Unreachable (the log is built with v0), but degrade to the
            // base rather than panic.
            None => Arc::clone(&self.base),
        }
    }

    /// The head version number (`0` until the first patch).
    pub fn head_version(&self) -> u64 {
        (self.versions.read().len() as u64).saturating_sub(1)
    }

    /// The store pinned to version `v`, erroring on unknown versions.
    pub fn at(&self, v: u64) -> Result<Arc<GraphStore>, GrepairError> {
        let versions = self.versions.read();
        versions
            .get(v as usize)
            .map(|entry| Arc::clone(&entry.store))
            .ok_or_else(|| {
                GrepairError::BadRequest(format!(
                    "unknown version v{v} (head is v{})",
                    (versions.len() as u64).saturating_sub(1)
                ))
            })
    }

    /// Every retained version's cumulative delta size, in order.
    pub fn summaries(&self) -> Vec<VersionSummary> {
        self.versions
            .read()
            .iter()
            .enumerate()
            .map(|(i, entry)| VersionSummary {
                version: i as u64,
                added: entry.overlay.added_len(),
                removed: entry.overlay.removed_len(),
            })
            .collect()
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
        let mut versions = self.versions.write();
        let Some(head) = versions.last() else {
            return Err(GrepairError::BadRequest("version log is empty".into()));
        };
        let head_version = (versions.len() as u64) - 1;
        let present = self.present(&head.overlay, patch.s, patch.label, patch.t)?;
        match patch.op {
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
        let mut overlay = (*head.overlay).clone();
        match patch.op {
            PatchOp::Add => overlay.add(patch.s, patch.label, patch.t),
            PatchOp::Del => overlay.del(patch.s, patch.label, patch.t),
        }
        // Failpoint `patch.apply` (DESIGN.md §10): injects a failure after
        // validation, before the new version becomes visible — the window
        // a crashing patch must not tear. Everything above operated on a
        // private clone, so erroring here leaves the log untouched.
        grepair_util::fail::point("patch.apply").map_err(|error| {
            GrepairError::Unavailable(format!("patch {patch} aborted: {error}"))
        })?;
        let overlay = Arc::new(overlay);
        let engine =
            OverlayEngine { base: Arc::clone(&self.base), overlay: Arc::clone(&overlay) };
        let store = Arc::new(GraphStore::from_engine(Box::new(engine)));
        let summary = VersionSummary {
            version: head_version + 1,
            added: overlay.added_len(),
            removed: overlay.removed_len(),
        };
        versions.push(VersionEntry { store: Arc::clone(&store), overlay });
        Ok((summary, store))
    }

    /// Is `(s, label, t)` an edge of the version `overlay` describes?
    fn present(
        &self,
        overlay: &Overlay,
        s: u64,
        label: u32,
        t: u64,
    ) -> Result<bool, GrepairError> {
        if overlay.removed.contains(&(s, label, t)) {
            return Ok(false);
        }
        if overlay.contains_added(s, label, t) {
            return Ok(true);
        }
        if s < self.base.total_nodes() && t < self.base.total_nodes() {
            return Ok(self.base.out_edges(s)?.binary_search(&(label, t)).is_ok());
        }
        Ok(false)
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
    use crate::backend::codec_for;
    use grepair_hypergraph::Hypergraph;

    /// A two-label path store under `backend`: `0 -0-> 1 -1-> 2 -0-> 3 …`
    /// for k2/grepair, all label 0 for the unlabeled formats.
    fn base_store(backend: &str, n: u32) -> Arc<GraphStore> {
        let labeled = matches!(backend, "grepair" | "k2");
        let g = Hypergraph::from_simple_edges(
            n as usize,
            (0..n - 1).map(|i| (i, if labeled { i % 2 } else { 0 }, i + 1)),
        )
        .0;
        let file = codec_for(backend).unwrap().encode(&g).unwrap();
        Arc::new(GraphStore::from_bytes(&file).unwrap())
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
        // k2 base: labeled, no node renumbering.
        let base = base_store("k2", 5); // 0-0->1-1->2-0->3-1->4
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
        let log = VersionedStore::new(base_store("k2", 4)).unwrap();
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
        let log = VersionedStore::new(base_store("lm", 3)).unwrap();
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
        // drives it across backends and random patch sequences): a patched
        // store answers exactly like a from-scratch compression of its
        // materialized graph.
        let log = VersionedStore::new(base_store("k2", 6)).unwrap();
        for line in ["DEL 1 1 2", "ADD 0 1 3", "ADD 5 0 1", "DEL 3 1 4", "ADD 2 2 0"] {
            log.apply(EdgePatch::parse(line).unwrap()).unwrap();
        }
        let head = log.head();
        let fresh_file = codec_for("k2").unwrap().encode(&materialize(&head).unwrap()).unwrap();
        let fresh = GraphStore::from_bytes(&fresh_file).unwrap();
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
    fn self_loop_patches_are_rejected() {
        // The graph model drops self-loops at ingestion, so the overlay
        // refuses to introduce what recompression could not round-trip.
        let log = VersionedStore::new(base_store("hn", 2)).unwrap();
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
            fn backend(&self) -> &'static str {
                "k2"
            }
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
