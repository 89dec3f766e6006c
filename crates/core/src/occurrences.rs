//! Occurrence bookkeeping (§III-A2, §III-C1).
//!
//! For every digram the table keeps a list of (intended) non-overlapping
//! occurrences. Occurrences are found by the paper's greedy per-node pairing:
//! at node `v`, incident edges are grouped by (label, position of `v` in the
//! attachment) — "directions can be viewed as labels" — and the groups are
//! zipped pairwise via `Occ(E₁,E₂)`, considering only O(degree) of the
//! O(degree²) possible pairs.
//!
//! Non-overlap within a digram's list is enforced by *occupancy*: an edge
//! that has been counted in an occurrence with a partner labeled σ is
//! excluded from further pairings with σ-labeled partners (the paper's
//! `E_{σ1,σ2}(v)` sets) — here tracked globally per (edge, partner label),
//! which is slightly more conservative than the per-node sets and keeps
//! every list overlap-free by construction.
//!
//! # The group index
//!
//! The grouping is **persistent**: a node's groups are built from its
//! incidence list the first time the node is counted and from then on
//! follow the graph edge by edge — [`OccTable::edge_added`] appends the new
//! edge to one group per attachment node, [`OccTable::kill_edge`] unlinks a
//! dying edge from its groups in O(1). A recount after a replacement then
//! walks the groups of the new nonterminal edges and as much of their
//! partner groups as it pairs, never the rest of a hub's incidence list.
//! The invariants the pairing order (and with it digram numbering, queue
//! tie-breaks and the container bytes) rests on:
//!
//! * a built node's groups are exactly the `(label, position)` classes of
//!   its alive incident edges — no empty group, no dead member;
//! * groups are kept in ascending `(label, position)` order;
//! * members are in ascending edge ID, which is incidence order: edge IDs
//!   only grow, so appending keeps it.
//!
//! Members are doubly linked through one arena with a slot per (edge,
//! attachment position); edge IDs are dense and never reused, so the arena
//! and the per-edge occurrence lists are slot arrays, and an occurrence is
//! threaded through its digram's and its two edges' lists instead of being
//! copied into three vectors. Debug builds re-derive a node's grouping from
//! the graph after every replacement ([`OccTable::assert_groups_match`]).
//!
//! A pair is never counted twice: while its occurrence is alive both edges
//! are occupied against each other, and the one way an occurrence dies with
//! both edges still standing — its context drifted before the replacement
//! reached it — is recorded in `stale_pairs`.

use crate::digram::{pair_rank, resolve, DigramSig};
use crate::queue::BucketQueue;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use grepair_util::{FxHashMap, FxHashSet};

/// Index into [`OccTable::occs`].
pub type OccId = u32;
/// Index into [`OccTable::digrams`].
pub type DigramIdx = u32;

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// One counted occurrence.
#[derive(Debug, Clone)]
pub struct Occ {
    /// The two edges (canonical order of the resolved digram).
    pub edges: [EdgeId; 2],
    /// Which digram this occurrence was counted for.
    pub digram: DigramIdx,
    /// False once consumed by a replacement or invalidated by edge removal.
    pub alive: bool,
    /// Next occurrence counted for the same digram.
    next_in_digram: OccId,
    /// Next occurrence containing `edges[i]`.
    next_of_edge: [OccId; 2],
}

/// Per-digram state.
#[derive(Debug)]
pub struct DigramEntry {
    /// Canonical signature.
    pub sig: DigramSig,
    /// Number of live occurrences.
    pub live: usize,
    /// Nonterminal assigned when this digram was first replaced (reused if
    /// the same shape becomes frequent again).
    pub nt: Option<u32>,
    /// Occurrence list in counted order (dead entries skipped on drain).
    first_occ: OccId,
    last_occ: OccId,
}

/// Exact work counters of the pairing (surfaced as `CompressStats` fields).
#[derive(Debug, Clone, Copy, Default)]
pub struct PairingWork {
    /// Group members linked while building a node's groups or stepped over
    /// by a pairing cursor.
    pub group_edges_scanned: u64,
    /// Candidate pairs the pairing produced.
    pub pair_attempts: u64,
    /// Of those, pairs dropped by the rank bounds.
    pub rank_rejects: u64,
}

/// Edge IDs a compression of `g` can still hand out stay below this: a
/// replacement retires two edges for the one it adds.
fn edge_id_bound(g: &Hypergraph) -> usize {
    g.edge_bound() + g.num_edges()
}

/// One member slot of a group: an (edge, attachment position) incidence.
#[derive(Debug, Clone, Copy)]
struct Link {
    edge: EdgeId,
    prev: u32,
    next: u32,
}

/// The edges attaching one node at one position under one label.
#[derive(Debug, Clone, Copy)]
struct Group {
    label: EdgeLabel,
    pos: u8,
    len: u32,
    head: u32,
    tail: u32,
}

/// The persistent `(label, position) → edges` grouping per node.
#[derive(Debug, Default)]
struct GroupIndex {
    /// Groups of each built node, ascending by `(label, pos)`; `None` until
    /// the node is first counted.
    nodes: Vec<Option<Vec<Group>>>,
    /// Member arena; the slots of edge `e` are `edge_slot[e] + position`.
    links: Vec<Link>,
    /// First slot of each edge; `NIL` before it is indexed and after it died.
    edge_slot: Vec<u32>,
}

impl GroupIndex {
    fn reset(&mut self, g: &Hypergraph) {
        self.nodes.clear();
        self.nodes.resize(g.node_bound(), None);
        self.links.clear();
        self.links.reserve(4 * g.num_edges());
        self.edge_slot.clear();
        self.edge_slot.reserve(edge_id_bound(g));
        self.edge_slot.resize(g.edge_bound(), NIL);
    }

    fn is_built(&self, v: NodeId) -> bool {
        self.nodes.get(v as usize).is_some_and(Option::is_some)
    }

    fn groups(&self, v: NodeId) -> &[Group] {
        self.nodes.get(v as usize).and_then(Option::as_deref).unwrap_or(&[])
    }

    /// First slot of `e`, allocating its slots on first use.
    fn slots_of(&mut self, g: &Hypergraph, e: EdgeId) -> u32 {
        if self.edge_slot.len() <= e as usize {
            self.edge_slot.resize(e as usize + 1, NIL);
        }
        if self.edge_slot[e as usize] == NIL {
            self.edge_slot[e as usize] = self.links.len() as u32;
            let unlinked = Link { edge: e, prev: NIL, next: NIL };
            self.links.extend(std::iter::repeat_n(unlinked, g.att(e).len()));
        }
        self.edge_slot[e as usize]
    }

    /// Append `slot` to group `(label, pos)` of built node `v`.
    fn append(&mut self, v: NodeId, label: EdgeLabel, pos: u8, slot: u32) {
        let groups = self.nodes[v as usize].as_mut().expect("node is built");
        let at = match groups.binary_search_by_key(&(label, pos), |gr| (gr.label, gr.pos)) {
            Ok(at) => at,
            Err(at) => {
                groups.insert(at, Group { label, pos, len: 0, head: NIL, tail: NIL });
                at
            }
        };
        let group = &mut groups[at];
        self.links[slot as usize].prev = group.tail;
        match group.tail {
            NIL => group.head = slot,
            tail => self.links[tail as usize].next = slot,
        }
        group.tail = slot;
        group.len += 1;
    }

    /// Build `v`'s groups from its incidence list (ascending edge ID).
    /// Returns the number of members linked.
    fn build(&mut self, g: &Hypergraph, v: NodeId) -> u64 {
        if self.nodes.len() <= v as usize {
            self.nodes.resize(v as usize + 1, None);
        }
        self.nodes[v as usize] = Some(Vec::new());
        let mut linked = 0;
        for e in g.incident(v) {
            let pos = g.att(e).iter().position(|&x| x == v).expect("incident edge attaches v");
            let slot = self.slots_of(g, e) + pos as u32;
            self.append(v, g.label(e), pos as u8, slot);
            linked += 1;
        }
        linked
    }

    /// `e` was just added to `g`: enter it at every built attachment node
    /// (an unbuilt node will find it in its incidence list).
    fn link_edge(&mut self, g: &Hypergraph, e: EdgeId) {
        let base = self.slots_of(g, e);
        for (pos, &v) in g.att(e).iter().enumerate() {
            if self.is_built(v) {
                self.append(v, g.label(e), pos as u8, base + pos as u32);
            }
        }
    }

    /// `e` is about to leave `g`: unlink it everywhere. Idempotent.
    fn unlink_edge(&mut self, g: &Hypergraph, e: EdgeId) {
        let Some(base) = self.edge_slot.get_mut(e as usize).map(|s| std::mem::replace(s, NIL))
        else {
            return;
        };
        if base == NIL {
            return;
        }
        let label = g.label(e);
        for (pos, &v) in g.att(e).iter().enumerate() {
            let Some(Some(groups)) = self.nodes.get_mut(v as usize) else { continue };
            let at = groups
                .binary_search_by_key(&(label, pos as u8), |gr| (gr.label, gr.pos))
                .expect("indexed edge has a group at every built attachment node");
            let Link { prev, next, .. } = self.links[base as usize + pos];
            let group = &mut groups[at];
            match prev {
                NIL => group.head = next,
                prev => self.links[prev as usize].next = next,
            }
            match next {
                NIL => group.tail = prev,
                next => self.links[next as usize].prev = prev,
            }
            group.len -= 1;
            if group.len == 0 {
                groups.remove(at);
            }
        }
    }
}

/// The occurrence table plus its priority queue hooks.
#[derive(Debug, Default)]
pub struct OccTable {
    /// Arena of all occurrences ever counted.
    pub occs: Vec<Occ>,
    /// Arena of digram entries.
    pub digrams: Vec<DigramEntry>,
    /// Signature → digram index.
    pub index: FxHashMap<DigramSig, DigramIdx>,
    /// Work done so far (survives [`OccTable::reset`]).
    pub work: PairingWork,
    /// Edge → `[first, last]` occurrence containing it, threaded through
    /// [`Occ::next_of_edge`] (live entries only meaningful).
    edge_occs: Vec<[OccId; 2]>,
    /// (edge, partner label) → occupying occurrence.
    occupied: FxHashMap<(EdgeId, EdgeLabel), OccId>,
    /// Unordered edge pairs whose occurrence died with both edges alive
    /// (never recount a pair).
    stale_pairs: FxHashSet<(EdgeId, EdgeId)>,
    groups: GroupIndex,
}

impl OccTable {
    /// Fresh empty table; it sizes itself as nodes and edges show up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh table with its slot arrays sized for a compression of `g`.
    pub fn for_graph(g: &Hypergraph) -> Self {
        let mut table = Self::default();
        table.reset(g);
        table
    }

    /// Forget every occurrence and group (keeping allocations and the work
    /// counters) and size the slot arrays for `g`.
    pub fn reset(&mut self, g: &Hypergraph) {
        self.occs.clear();
        self.digrams.clear();
        self.index.clear();
        self.occupied.clear();
        self.stale_pairs.clear();
        self.edge_occs.clear();
        self.edge_occs.reserve(edge_id_bound(g));
        self.edge_occs.resize(g.edge_bound(), [NIL; 2]);
        self.groups.reset(g);
    }

    /// Live-occurrence count of a digram.
    pub fn live(&self, d: DigramIdx) -> usize {
        self.digrams[d as usize].live
    }

    fn pair_key(e: EdgeId, f: EdgeId) -> (EdgeId, EdgeId) {
        (e.min(f), e.max(f))
    }

    /// Is `edge` free to be counted with a partner labeled `partner`?
    fn is_free(&mut self, edge: EdgeId, partner: EdgeLabel) -> bool {
        match self.occupied.get(&(edge, partner)) {
            Some(&occ) if self.occs[occ as usize].alive => false,
            Some(_) => {
                self.occupied.remove(&(edge, partner));
                true
            }
            None => true,
        }
    }

    /// Count all occurrences centered around `v`, inserting them into the
    /// table and reporting count changes to `queue`. `max_rank` bounds the
    /// digram rank (§III-B2); rank-0 digrams are skipped (the paper's ranked
    /// alphabets exclude rank 0).
    pub fn count_at_node(
        &mut self,
        g: &Hypergraph,
        v: NodeId,
        max_rank: usize,
        queue: &mut BucketQueue,
    ) {
        self.pair_groups(g, v, max_rank, queue, None);
    }

    /// Like [`OccTable::count_at_node`], but only group pairs touching one
    /// of the focus groups — label `label` at the positions set in
    /// `positions` — are considered. This is the paper's incremental update
    /// (§III-A2): after a replacement only pairs `{e', e}` involving the new
    /// nonterminal edge become occurrences, so rescanning all label pairs
    /// around high-degree nodes is wasted work.
    pub fn count_at_node_focused(
        &mut self,
        g: &Hypergraph,
        v: NodeId,
        max_rank: usize,
        queue: &mut BucketQueue,
        label: EdgeLabel,
        positions: u32,
    ) {
        self.pair_groups(g, v, max_rank, queue, Some((label, positions)));
    }

    /// Visit the group pairs `(k1, k2)`, `k1 ≤ k2`, of which at least one is
    /// in focus (all of them without a focus), in lexicographic order.
    fn pair_groups(
        &mut self,
        g: &Hypergraph,
        v: NodeId,
        max_rank: usize,
        queue: &mut BucketQueue,
        focus: Option<(EdgeLabel, u32)>,
    ) {
        if !self.groups.is_built(v) {
            self.work.group_edges_scanned += self.groups.build(g, v);
        }
        let groups = self.groups.groups(v);
        let n = groups.len();
        // Focus groups share a label, so they sit in one run `lo..hi` of the
        // sorted groups; a group outside the focus only meets that run.
        let (lo, hi) = match focus {
            None => (0, n),
            Some((label, _)) => (
                groups.partition_point(|gr| gr.label < label),
                groups.partition_point(|gr| gr.label <= label),
            ),
        };
        let in_focus = |gr: &Group| match focus {
            None => true,
            Some((label, positions)) => gr.label == label && positions >> gr.pos & 1 == 1,
        };
        for i in 0..hi {
            // Pairing occupies edges but never moves a group, so the groups
            // can be re-read by index while the table is being written.
            let k1 = self.groups.groups(v)[i];
            let partners = if in_focus(&k1) { i..n } else { lo.max(i + 1)..hi };
            for j in partners {
                let k2 = self.groups.groups(v)[j];
                if !(in_focus(&k1) || in_focus(&k2)) {
                    continue;
                }
                // Same group: pair the free edges consecutively (the
                // Occ(E₁,E₂) split for σ1 = σ2). Distinct groups: zip the
                // two free lists lazily — the walk stops as soon as either
                // side runs out, so a pairing against a tiny group never
                // scans a huge one.
                let (mut c1, mut c2) = (k1.head, k2.head);
                while let Some(e) = self.next_free(&mut c1, k2.label) {
                    let second = if i == j { &mut c1 } else { &mut c2 };
                    let Some(f) = self.next_free(second, k1.label) else { break };
                    self.try_count(g, e, f, max_rank, queue);
                }
            }
        }
    }

    /// Advance `cursor` through its group to the next edge that is free
    /// with respect to `partner` label; returns it (cursor past it) or None.
    fn next_free(&mut self, cursor: &mut u32, partner: EdgeLabel) -> Option<EdgeId> {
        while *cursor != NIL {
            let link = self.groups.links[*cursor as usize];
            *cursor = link.next;
            self.work.group_edges_scanned += 1;
            if self.is_free(link.edge, partner) {
                return Some(link.edge);
            }
        }
        None
    }

    /// Try to record `{e, f}` as an occurrence. Applies the rank bounds —
    /// first, and on the stack: most candidates end here — and the
    /// stale-pair filter; on success occupies both edges.
    fn try_count(
        &mut self,
        g: &Hypergraph,
        e: EdgeId,
        f: EdgeId,
        max_rank: usize,
        queue: &mut BucketQueue,
    ) {
        self.work.pair_attempts += 1;
        let rank = pair_rank(g, e, f);
        if rank == 0 || rank > max_rank {
            self.work.rank_rejects += 1;
            return;
        }
        if !self.stale_pairs.is_empty() && self.stale_pairs.contains(&Self::pair_key(e, f)) {
            return;
        }
        let Some(resolved) = resolve(g, e, f) else { return };
        let d = self.digram_index(resolved.sig);
        let occ_id = self.occs.len() as OccId;
        self.occs.push(Occ {
            edges: resolved.edges,
            digram: d,
            alive: true,
            next_in_digram: NIL,
            next_of_edge: [NIL; 2],
        });
        let entry = &mut self.digrams[d as usize];
        match entry.last_occ {
            NIL => entry.first_occ = occ_id,
            last => self.occs[last as usize].next_in_digram = occ_id,
        }
        entry.last_occ = occ_id;
        entry.live += 1;
        let live = entry.live;
        for edge in [e, f] {
            self.thread_through_edge(edge, occ_id);
        }
        self.occupied.insert((e, g.label(f)), occ_id);
        self.occupied.insert((f, g.label(e)), occ_id);
        queue.update(d, live);
    }

    /// Append `occ_id` to the occurrence list of `edge`.
    fn thread_through_edge(&mut self, edge: EdgeId, occ_id: OccId) {
        if self.edge_occs.len() <= edge as usize {
            self.edge_occs.resize(edge as usize + 1, [NIL; 2]);
        }
        let [first, last] = &mut self.edge_occs[edge as usize];
        match *last {
            NIL => *first = occ_id,
            last => {
                let prev = &mut self.occs[last as usize];
                prev.next_of_edge[(prev.edges[1] == edge) as usize] = occ_id;
            }
        }
        *last = occ_id;
    }

    /// Get or create the digram entry for `sig`.
    pub fn digram_index(&mut self, sig: DigramSig) -> DigramIdx {
        if let Some(&d) = self.index.get(&sig) {
            return d;
        }
        let d = self.digrams.len() as DigramIdx;
        self.digrams.push(DigramEntry { sig, live: 0, nt: None, first_occ: NIL, last_occ: NIL });
        self.index.insert(sig, d);
        d
    }

    /// `edge` was just added to the graph: enter it into the groups of its
    /// attachment nodes.
    pub fn edge_added(&mut self, g: &Hypergraph, edge: EdgeId) {
        self.groups.link_edge(g, edge);
    }

    /// Invalidate every occurrence containing `edge` and take it out of its
    /// groups (called right before the edge is removed from the graph);
    /// reports count drops to `queue`.
    pub fn kill_edge(&mut self, g: &Hypergraph, edge: EdgeId, queue: &mut BucketQueue) {
        if let Some(list) = self.edge_occs.get_mut(edge as usize) {
            let [mut occ_id, _] = std::mem::replace(list, [NIL; 2]);
            while occ_id != NIL {
                let occ = &mut self.occs[occ_id as usize];
                occ_id = occ.next_of_edge[(occ.edges[1] == edge) as usize];
                if occ.alive {
                    occ.alive = false;
                    let entry = &mut self.digrams[occ.digram as usize];
                    entry.live -= 1;
                    queue.update(occ.digram, entry.live);
                }
            }
        }
        self.groups.unlink_edge(g, edge);
    }

    /// Detach the occurrence list of digram `d`, resetting its live count.
    /// Returns the first occurrence in counted order (dead ones included —
    /// the caller re-validates); follow with [`OccTable::next_in_digram`].
    pub fn drain_digram(&mut self, d: DigramIdx, queue: &mut BucketQueue) -> Option<OccId> {
        let entry = &mut self.digrams[d as usize];
        entry.live = 0;
        queue.update(d, 0);
        entry.last_occ = NIL;
        Some(std::mem::replace(&mut entry.first_occ, NIL)).filter(|&occ| occ != NIL)
    }

    /// The occurrence counted for the same digram after `occ`.
    pub fn next_in_digram(&self, occ: OccId) -> Option<OccId> {
        Some(self.occs[occ as usize].next_in_digram).filter(|&next| next != NIL)
    }

    /// The occurrence of `{e, f}` died (its context no longer matches its
    /// digram) but both edges live on: never count the pair again.
    pub fn mark_stale(&mut self, e: EdgeId, f: EdgeId) {
        self.stale_pairs.insert(Self::pair_key(e, f));
    }

    /// Debug check: `v`'s persistent groups equal the grouping rebuilt from
    /// its incidence list — same keys, same order, same members.
    ///
    /// # Panics
    /// On any difference (or if `v` was never counted).
    #[cfg(debug_assertions)]
    pub fn assert_groups_match(&self, g: &Hypergraph, v: NodeId) {
        let mut rebuilt: std::collections::BTreeMap<(EdgeLabel, u8), Vec<EdgeId>> =
            std::collections::BTreeMap::new();
        for e in g.incident(v) {
            let pos = g.att(e).iter().position(|&x| x == v).expect("incident edge attaches v") as u8;
            rebuilt.entry((g.label(e), pos)).or_default().push(e);
        }
        assert!(self.groups.is_built(v), "node {v} has no groups");
        let indexed: Vec<((EdgeLabel, u8), Vec<EdgeId>)> = self
            .groups
            .groups(v)
            .iter()
            .map(|gr| {
                let (mut members, mut prev, mut slot) = (Vec::new(), NIL, gr.head);
                while slot != NIL {
                    let link = self.groups.links[slot as usize];
                    assert_eq!(link.prev, prev, "node {v}: broken back link in {gr:?}");
                    members.push(link.edge);
                    (prev, slot) = (slot, link.next);
                }
                assert_eq!(prev, gr.tail, "node {v}: wrong tail in {gr:?}");
                assert_eq!(members.len(), gr.len as usize, "node {v}: wrong length in {gr:?}");
                ((gr.label, gr.pos), members)
            })
            .collect();
        assert_eq!(indexed, rebuilt.into_iter().collect::<Vec<_>>(), "groups of node {v} drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::EdgeLabel::Terminal as T;

    fn count_all(g: &Hypergraph, max_rank: usize) -> (OccTable, BucketQueue) {
        let mut table = OccTable::new();
        let mut queue = BucketQueue::new(g.num_edges().max(4));
        for v in g.node_ids() {
            table.count_at_node(g, v, max_rank, &mut queue);
        }
        (table, queue)
    }

    #[test]
    fn counts_repeated_chain_digram() {
        // Path a·b repeated 5 times: the three *interior* a·b occurrences
        // share one signature (both end nodes external, middle internal);
        // the two boundary ones differ (a path end has no context edge).
        let mut g = Hypergraph::with_nodes(11);
        for i in 0..5u32 {
            g.add_edge(T(0), &[2 * i, 2 * i + 1]);
            g.add_edge(T(1), &[2 * i + 1, 2 * i + 2]);
        }
        let (table, _q) = count_all(&g, 4);
        let best = table.digrams.iter().map(|d| d.live).max().unwrap();
        assert_eq!(best, 3);
        // Exactly one digram reaches 3; the two boundary shapes get 1 each.
        let lives: Vec<usize> =
            table.digrams.iter().map(|d| d.live).filter(|&l| l > 0).collect();
        assert_eq!(lives.iter().sum::<usize>(), 5);
    }

    #[test]
    fn occupancy_prevents_overlaps_within_a_digram() {
        // Star of 5 same-label out-edges: pairs must not share edges.
        let mut g = Hypergraph::with_nodes(6);
        for i in 1..6u32 {
            g.add_edge(T(0), &[0, i]);
        }
        let (table, _q) = count_all(&g, 4);
        for entry in &table.digrams {
            let mut used = std::collections::HashSet::new();
            let mut next = Some(entry.first_occ).filter(|&occ| occ != NIL);
            while let Some(occ_id) = next {
                for e in table.occs[occ_id as usize].edges {
                    assert!(used.insert(e), "edge {e} reused");
                }
                next = table.next_in_digram(occ_id);
            }
        }
        // 5 edges → 2 pairs.
        let total: usize = table.digrams.iter().map(|d| d.live).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn max_rank_filters_digrams() {
        // Fork with context on every node: digram rank would be 3.
        let mut g = Hypergraph::with_nodes(9);
        g.add_edge(T(0), &[0, 1]);
        g.add_edge(T(1), &[1, 2]);
        // context edges making all three digram nodes external
        g.add_edge(T(2), &[3, 0]);
        g.add_edge(T(2), &[4, 1]);
        g.add_edge(T(2), &[5, 2]);
        // duplicate the pattern so the digram would be counted twice
        g.add_edge(T(0), &[6, 7]);
        g.add_edge(T(1), &[7, 8]);
        g.add_edge(T(2), &[3, 6]);
        g.add_edge(T(2), &[4, 7]);
        g.add_edge(T(2), &[5, 8]);
        let (t2, _) = count_all(&g, 2);
        let (t3, _) = count_all(&g, 3);
        let sig_rank = |t: &OccTable| {
            t.digrams.iter().filter(|d| d.live > 0).map(|d| d.sig.rank()).max().unwrap_or(0)
        };
        assert!(sig_rank(&t2) <= 2);
        assert!(sig_rank(&t3) <= 3);
        // With maxRank 3 the a·b digram (rank 3) is countable.
        assert!(t3.digrams.iter().any(|d| d.sig.rank() == 3 && d.live == 2));
    }

    #[test]
    fn rank_zero_digrams_are_skipped() {
        // Isolated 2-edge component: its only digram has rank 0.
        let mut g = Hypergraph::with_nodes(3);
        g.add_edge(T(0), &[0, 1]);
        g.add_edge(T(1), &[1, 2]);
        let (table, _q) = count_all(&g, 4);
        assert!(table.digrams.iter().all(|d| d.live == 0));
    }

    #[test]
    fn kill_edge_invalidates_and_decrements() {
        let mut g = Hypergraph::with_nodes(11);
        for i in 0..5u32 {
            g.add_edge(T(0), &[2 * i, 2 * i + 1]);
            g.add_edge(T(1), &[2 * i + 1, 2 * i + 2]);
        }
        let (mut table, mut queue) = count_all(&g, 4);
        let d = (0..table.digrams.len() as u32)
            .max_by_key(|&i| table.digrams[i as usize].live)
            .unwrap();
        assert_eq!(table.live(d), 3);
        // Edge 2 is the `a` of the first interior occurrence.
        table.kill_edge(&g, 2, &mut queue);
        assert_eq!(table.live(d), 2);
        // Killing again is a no-op.
        table.kill_edge(&g, 2, &mut queue);
        assert_eq!(table.live(d), 2);
    }

    #[test]
    fn node_order_changes_occurrence_count_like_fig5() {
        // The Fig. 5 phenomenon: greedy counting is order-sensitive. A star
        // of four 2-edge chains (center 0, chains 0→x→y): visiting the
        // middles first finds the maximum set of 4 chain occurrences;
        // visiting the center first greedily pairs the center's out-edges
        // into fork digrams, occupying them and capping every list at 2.
        let star = |order: &[u32]| {
            let mut g = Hypergraph::with_nodes(9);
            for i in 0..4u32 {
                g.add_edge(T(0), &[0, 1 + 2 * i]); // center -> middle
                g.add_edge(T(0), &[1 + 2 * i, 2 + 2 * i]); // middle -> leaf
            }
            let mut table = OccTable::new();
            let mut queue = BucketQueue::new(8);
            for &v in order {
                table.count_at_node(&g, v, 8, &mut queue);
            }
            table.digrams.iter().map(|d| d.live).max().unwrap_or(0)
        };
        // "Jumping" order (middles first, like Fig. 5c): 4 occurrences.
        assert_eq!(star(&[1, 3, 5, 7, 0, 2, 4, 6, 8]), 4);
        // Center-first (like Fig. 5a): the greedy fork pairing wins, 2.
        assert_eq!(star(&[0, 1, 2, 3, 4, 5, 6, 7, 8]), 2);
    }

    #[test]
    fn focused_recount_only_touches_focus_groups() {
        let mut g = Hypergraph::with_nodes(5);
        g.add_edge(T(0), &[0, 1]);
        g.add_edge(T(0), &[0, 2]);
        g.add_edge(T(1), &[0, 3]);
        g.add_edge(T(1), &[0, 4]);
        let mut table = OccTable::new();
        let mut queue = BucketQueue::new(8);
        // Focus on label-0/source groups only: the (T1,T1) pair is skipped.
        table.count_at_node_focused(&g, 0, 8, &mut queue, T(0), 0b1);
        let counted: usize = table.digrams.iter().map(|d| d.live).sum();
        // (T0,T0) and (T0,T1)×… pairs only; the pure T1×T1 pair is absent.
        assert!(counted >= 1);
        for entry in &table.digrams {
            if entry.live > 0 {
                assert!(
                    entry.sig.label_a == T(0) || entry.sig.label_b == T(0),
                    "{:?}",
                    entry.sig
                );
            }
        }
    }

    #[test]
    fn pairs_are_never_recounted() {
        let mut g = Hypergraph::with_nodes(3);
        g.add_edge(T(0), &[0, 1]);
        g.add_edge(T(1), &[1, 2]);
        g.add_edge(T(2), &[2, 0]); // context making things external
        let mut table = OccTable::new();
        let mut queue = BucketQueue::new(8);
        for v in g.node_ids() {
            table.count_at_node(&g, v, 4, &mut queue);
        }
        let first = table.occs.len();
        // Recounting the same nodes must add nothing.
        for v in g.node_ids() {
            table.count_at_node(&g, v, 4, &mut queue);
        }
        assert_eq!(table.occs.len(), first);
    }
}
