//! The hypergraph data structure.
//!
//! A [`Hypergraph`] keeps its edges in the layout of an [`EdgeBuffer`] —
//! three flat arrays of labels, attachment ends and attachments, in edge-id
//! order — plus one liveness flag per edge, and every node's incidence list
//! as a block of one shared arena. Building a graph from a buffer moves the
//! arrays in and lays the blocks out back to back at their exact size;
//! growing or cloning one allocates per array, never per node or per edge.

use crate::label::EdgeLabel;

/// Node identifier. Nodes are dense `0..n` at construction; removal leaves
/// tombstones so IDs stay stable throughout compression.
pub type NodeId = u32;

/// Edge identifier. Edge IDs are never reused, so a stale ID in an auxiliary
/// index can always be detected via [`Hypergraph::edge_alive`].
pub type EdgeId = u32;

/// Borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'a> {
    /// The edge's ID.
    pub id: EdgeId,
    /// The edge's label.
    pub label: EdgeLabel,
    /// Attached nodes in order (`[source, target]` for rank-2 edges).
    pub att: &'a [NodeId],
}

impl EdgeRef<'_> {
    /// `rank(e) = |att(e)|` (§II).
    pub fn rank(&self) -> usize {
        self.att.len()
    }
}

/// Edges in insertion order as three flat arrays — labels, attachment ends
/// and the attachments themselves — which [`Hypergraph::from_edges`] moves
/// into a graph. Appending costs no allocation per edge, so a decoder or a
/// derivation collects here and builds once.
#[derive(Debug, Clone)]
pub struct EdgeBuffer {
    labels: Vec<EdgeLabel>,
    /// `atts[ends[i]..ends[i + 1]]` is edge `i`'s attachment.
    ends: Vec<u32>,
    atts: Vec<NodeId>,
}

impl Default for EdgeBuffer {
    fn default() -> Self {
        Self { labels: Vec::new(), ends: vec![0], atts: Vec::new() }
    }
}

impl EdgeBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve room for `edges` more edges of `atts` attachment entries.
    pub fn reserve(&mut self, edges: usize, atts: usize) {
        self.labels.reserve(edges);
        self.ends.reserve(edges);
        self.atts.reserve(atts);
    }

    /// Append an edge labeled `label` attached to `att` (in order).
    pub fn push(&mut self, label: EdgeLabel, att: impl IntoIterator<Item = NodeId>) {
        self.atts.extend(att);
        self.labels.push(label);
        // Past 2³² − 1 entries the end saturates; `from_edges` rejects the
        // buffer before any end is read.
        self.ends.push(u32::try_from(self.atts.len()).unwrap_or(u32::MAX));
    }

    /// Edge `e`'s attachment.
    fn att(&self, e: usize) -> &[NodeId] {
        &self.atts[self.ends[e] as usize..self.ends[e + 1] as usize]
    }

    /// Every edge's attachment, in id order.
    fn atts(&self) -> impl Iterator<Item = &[NodeId]> {
        self.ends.windows(2).map(|end| &self.atts[end[0] as usize..end[1] as usize])
    }
}

/// One node's incidence list: `arena[start..start + len]`, in a block of
/// `cap` entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Block {
    start: u32,
    len: u32,
    cap: u32,
}

impl Block {
    fn list(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Capacity a node's first incidence block gets when it fills.
const MIN_BLOCK: usize = 4;

/// An arena position or size as a block field. Every block lies inside the
/// arena, so this is the one place a field can overflow.
///
/// # Panics
/// If the arena would pass 2³² entries.
fn offset(i: usize) -> u32 {
    u32::try_from(i).expect("incidence arena exceeds 2^32 entries")
}

/// A directed edge-labeled hypergraph with external nodes (§II).
///
/// Invariants (checked by [`Hypergraph::validate`], and in debug builds on
/// every mutation):
/// * every attachment list references alive nodes and contains no node twice
///   (paper restriction (1)),
/// * the external sequence contains no node twice (restriction (2)) and only
///   alive nodes,
/// * `degree(v)` equals the number of alive edges incident with `v`, and
///   `incident(v)` lists them in id order.
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    /// Every edge ever added, in id order, as an [`EdgeBuffer`] lays them
    /// out. Append-only: a removed edge keeps its slot and attachment.
    edges: EdgeBuffer,
    edge_alive: Vec<bool>,
    node_alive: Vec<bool>,
    alive_nodes: usize,
    alive_edges: usize,
    /// Incident edge IDs per node, each in its block of `arena`, in the
    /// order the edges were added. A list may hold stale (dead-edge)
    /// entries, compacted lazily when the stale fraction grows.
    blocks: Vec<Block>,
    arena: Vec<EdgeId>,
    /// Arena entries no block owns (blocks that moved or whose node was
    /// removed); the arena is rebuilt once they pass half of it.
    garbage: usize,
    degree: Vec<u32>,
    ext: Vec<NodeId>,
}

impl Hypergraph {
    /// Empty hypergraph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hypergraph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            node_alive: vec![true; n],
            alive_nodes: n,
            blocks: vec![Block::default(); n],
            degree: vec![0; n],
            ..Self::default()
        }
    }

    /// Hypergraph with `n` nodes and the edges of `edges`, in their order:
    /// the same graph as `with_nodes(n)` followed by one [`add_edge`] per
    /// edge — edge ids, degrees and incidence lists included. The buffer's
    /// arrays become the graph's, without their spare capacity; the
    /// incidence lists are counted first and laid out back to back at their
    /// exact size.
    ///
    /// Checked, never panicking: an edge of rank 0, an attachment node
    /// `≥ n`, an attachment that repeats a node, or more than 2³² − 1 edges
    /// or attachment entries is an `Err`.
    ///
    /// [`add_edge`]: Hypergraph::add_edge
    pub fn from_edges(n: usize, mut edges: EdgeBuffer) -> Result<Self, String> {
        let Ok(entries) = u32::try_from(edges.atts.len()) else {
            return Err(format!("{} attachment entries exceed the 32-bit arena", edges.atts.len()));
        };
        let mut degree = vec![0u32; n];
        for (e, att) in edges.atts().enumerate() {
            if att.is_empty() {
                return Err(format!("edge {e} has rank 0"));
            }
            for &v in att {
                let Some(d) = degree.get_mut(v as usize) else {
                    return Err(format!("edge {e} attached to node {v} of {n}"));
                };
                *d += 1;
            }
        }
        let mut blocks = Vec::with_capacity(n);
        let mut at = 0;
        for &d in &degree {
            blocks.push(Block { start: at, len: 0, cap: d });
            at += d;
        }
        let mut arena = vec![0; entries as usize];
        // Every edge has rank ≥ 1, so its id is below `entries` ≤ 2³² − 1.
        for (e, att) in (0..).zip(edges.atts()) {
            for &v in att {
                // Edges arrive in id order, so a node this edge already
                // attached has it last in its list.
                let block = &mut blocks[v as usize];
                let next = block.start as usize + block.len as usize;
                if block.len > 0 && arena[next - 1] == e {
                    return Err(format!("edge {e} attaches node {v} twice"));
                }
                arena[next] = e;
                block.len += 1;
            }
        }
        edges.labels.shrink_to_fit();
        edges.ends.shrink_to_fit();
        edges.atts.shrink_to_fit();
        Ok(Self {
            alive_edges: edges.labels.len(),
            edge_alive: vec![true; edges.labels.len()],
            edges,
            node_alive: vec![true; n],
            alive_nodes: n,
            blocks,
            arena,
            garbage: 0,
            degree,
            ext: Vec::new(),
        })
    }

    /// Build a simple directed graph from `(source, label, target)` triples.
    ///
    /// Self-loops and duplicate `(source, label, target)` triples are dropped
    /// (paper restrictions: attachments contain no node twice; simple graphs
    /// have no parallel equal-labeled edges); the number dropped is returned.
    ///
    /// # Panics
    /// If a triple names a node `≥ n`.
    pub fn from_simple_edges(
        n: usize,
        triples: impl IntoIterator<Item = (NodeId, u32, NodeId)>,
    ) -> (Self, usize) {
        let mut edges = EdgeBuffer::new();
        let mut seen = grepair_util::FxHashSet::default();
        let mut dropped = 0usize;
        for (s, label, t) in triples {
            if s == t || !seen.insert((s, label, t)) {
                dropped += 1;
                continue;
            }
            edges.push(EdgeLabel::Terminal(label), [s, t]);
        }
        let g = Self::from_edges(n, edges).unwrap_or_else(|e| panic!("simple edges: {e}"));
        (g, dropped)
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Add a fresh node; returns its ID.
    ///
    /// # Panics
    /// If the graph already has 2³² nodes.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::try_from(self.node_alive.len()).expect("node ids exhausted");
        self.node_alive.push(true);
        self.blocks.push(Block::default());
        self.degree.push(0);
        self.alive_nodes += 1;
        id
    }

    /// Remove a node with no incident edges.
    ///
    /// # Panics
    /// If the node is dead or still has incident edges.
    pub fn remove_node(&mut self, v: NodeId) {
        assert!(self.node_alive[v as usize], "node {v} already removed");
        assert_eq!(self.degree[v as usize], 0, "node {v} still has incident edges");
        self.node_alive[v as usize] = false;
        let block = std::mem::take(&mut self.blocks[v as usize]);
        self.release(block.cap as usize);
        self.alive_nodes -= 1;
    }

    /// Is node `v` alive?
    pub fn node_is_alive(&self, v: NodeId) -> bool {
        self.node_alive.get(v as usize).copied().unwrap_or(false)
    }

    /// Number of alive nodes, `|g|V` (§II).
    pub fn num_nodes(&self) -> usize {
        self.alive_nodes
    }

    /// Upper bound on node IDs (`0..node_bound()` covers all IDs ever used).
    pub fn node_bound(&self) -> usize {
        self.node_alive.len()
    }

    /// Iterate over alive node IDs in increasing order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..).zip(&self.node_alive).filter_map(|(v, &alive)| alive.then_some(v))
    }

    /// Number of alive edges incident with `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.degree[v as usize] as usize
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    /// Add an edge labeled `label` attached to `att` (in order).
    ///
    /// # Panics
    /// In debug builds, if `att` repeats a node or references a dead node;
    /// in every build, if the graph would pass 2³² − 1 edges or attachment
    /// entries.
    pub fn add_edge(&mut self, label: EdgeLabel, att: &[NodeId]) -> EdgeId {
        debug_assert!(
            att.iter().all(|&v| self.node_is_alive(v)),
            "attachment references a dead node"
        );
        debug_assert!(
            (1..att.len()).all(|i| !att[..i].contains(&att[i])),
            "attachment contains a node twice (paper restriction 1)"
        );
        let id = EdgeId::try_from(self.edges.labels.len())
            .ok()
            .filter(|&id| id < EdgeId::MAX)
            .expect("edge ids exhausted");
        assert!(
            u32::try_from(self.edges.atts.len() + att.len()).is_ok(),
            "attachment entries exhausted"
        );
        self.edges.push(label, att.iter().copied());
        self.edge_alive.push(true);
        for &v in att {
            self.push_incidence(v, id);
            self.degree[v as usize] += 1;
        }
        self.alive_edges += 1;
        id
    }

    /// Append `e` to `v`'s incidence list.
    fn push_incidence(&mut self, v: NodeId, e: EdgeId) {
        if self.blocks[v as usize].len == self.blocks[v as usize].cap {
            self.grow(v);
        }
        let block = &mut self.blocks[v as usize];
        self.arena[block.start as usize + block.len as usize] = e;
        block.len += 1;
    }

    /// Double the capacity of `v`'s block: in place when it ends the arena,
    /// else by moving it to the end and leaving its old entries as garbage.
    fn grow(&mut self, v: NodeId) {
        let block = self.blocks[v as usize];
        let cap = (2 * block.cap as usize).max(MIN_BLOCK);
        let mut start = block.start as usize;
        let moved = start + block.cap as usize != self.arena.len();
        if moved {
            start = self.arena.len();
            self.arena.extend_from_within(block.list());
        }
        self.arena.resize(start + cap, 0);
        self.blocks[v as usize] = Block { start: offset(start), len: block.len, cap: offset(cap) };
        if moved {
            self.release(block.cap as usize);
        }
    }

    /// Account `entries` arena entries that no block owns any more, and
    /// rebuild the arena without garbage once garbage passes half of it:
    /// every block, in node order, keeps its list and its capacity.
    fn release(&mut self, entries: usize) {
        self.garbage += entries;
        if 2 * self.garbage <= self.arena.len() {
            return;
        }
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        for block in &mut self.blocks {
            let start = arena.len();
            arena.extend_from_slice(&self.arena[block.list()]);
            arena.resize(start + block.cap as usize, 0);
            block.start = offset(start);
        }
        self.arena = arena;
        self.garbage = 0;
    }

    /// Remove edge `e`.
    ///
    /// # Panics
    /// If `e` is already dead.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let alive = &mut self.edge_alive[e as usize];
        assert!(*alive, "edge already removed");
        *alive = false;
        self.alive_edges -= 1;
        let Self { edges, edge_alive, blocks, arena, degree, .. } = self;
        for &v in edges.att(e as usize) {
            let degree = &mut degree[v as usize];
            *degree -= 1;
            let block = &mut blocks[v as usize];
            // Lazy compaction: rebuild once over half the list is stale.
            if block.len > 8 && block.len > 2 * *degree {
                let list = &mut arena[block.list()];
                let mut kept = 0;
                for i in 0..list.len() {
                    let id = list[i];
                    if edge_alive[id as usize] {
                        list[kept] = id;
                        kept += 1;
                    }
                }
                block.len = offset(kept);
            }
        }
    }

    /// Is edge `e` alive?
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.edge_alive.get(e as usize).copied().unwrap_or(false)
    }

    /// Number of alive edges.
    pub fn num_edges(&self) -> usize {
        self.alive_edges
    }

    /// Upper bound on edge IDs.
    pub fn edge_bound(&self) -> usize {
        self.edge_alive.len()
    }

    /// Borrow edge `e`.
    ///
    /// # Panics
    /// If `e` is dead.
    pub fn edge(&self, e: EdgeId) -> EdgeRef<'_> {
        assert!(self.edge_alive[e as usize], "dead edge");
        EdgeRef { id: e, label: self.edges.labels[e as usize], att: self.edges.att(e as usize) }
    }

    /// Label of edge `e`. Panics if dead.
    pub fn label(&self, e: EdgeId) -> EdgeLabel {
        assert!(self.edge_alive[e as usize], "dead edge");
        self.edges.labels[e as usize]
    }

    /// Attachment of edge `e`. Panics if dead.
    pub fn att(&self, e: EdgeId) -> &[NodeId] {
        assert!(self.edge_alive[e as usize], "dead edge");
        self.edges.att(e as usize)
    }

    /// Relabel edge `e` in place (attachment and edge ID are unchanged —
    /// used by grammar renumbering, which must not disturb edge identities).
    pub fn set_label(&mut self, e: EdgeId, label: EdgeLabel) {
        assert!(self.edge_alive[e as usize], "dead edge");
        self.edges.labels[e as usize] = label;
    }

    /// Iterate over alive edges in ID order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_>> {
        (0..).zip(self.edges.labels.iter().zip(self.edges.atts()).zip(&self.edge_alive)).filter_map(
            |(id, ((&label, att), &alive))| alive.then_some(EdgeRef { id, label, att }),
        )
    }

    /// Iterate over the IDs of alive edges incident with `v`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.arena[self.blocks[v as usize].list()]
            .iter()
            .copied()
            .filter(move |&e| self.edge_alive[e as usize])
    }

    /// Nodes adjacent to `v` through any edge (each neighbor may repeat).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incident(v)
            .flat_map(move |e| self.att(e).iter().copied())
            .filter(move |&u| u != v)
    }

    /// Out-neighbors of `v` through rank-2 edges (`att = [v, u]`).
    pub fn out_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incident(v).filter_map(move |e| {
            let att = self.att(e);
            (att.len() == 2 && att[0] == v).then(|| att[1])
        })
    }

    /// In-neighbors of `v` through rank-2 edges (`att = [u, v]`).
    pub fn in_neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.incident(v).filter_map(move |e| {
            let att = self.att(e);
            (att.len() == 2 && att[1] == v).then(|| att[0])
        })
    }

    // ------------------------------------------------------------------
    // External nodes
    // ------------------------------------------------------------------

    /// The external node sequence.
    pub fn ext(&self) -> &[NodeId] {
        &self.ext
    }

    /// Set the external node sequence (must be distinct alive nodes).
    pub fn set_ext(&mut self, ext: Vec<NodeId>) {
        debug_assert!(ext.iter().all(|&v| self.node_is_alive(v)));
        debug_assert!((1..ext.len()).all(|i| !ext[..i].contains(&ext[i])));
        self.ext = ext;
    }

    /// `rank(g) = |ext(g)|` (§II).
    pub fn rank(&self) -> usize {
        self.ext.len()
    }

    /// Is `v` an external node of this graph?
    pub fn is_external(&self, v: NodeId) -> bool {
        self.ext.contains(&v)
    }

    // ------------------------------------------------------------------
    // Sizes (§II)
    // ------------------------------------------------------------------

    /// `|g|V`: number of nodes.
    pub fn node_size(&self) -> usize {
        self.alive_nodes
    }

    /// `|g|E`: rank-≤2 edges count 1, hyperedges count their rank.
    pub fn edge_size(&self) -> usize {
        self.edges()
            .map(|e| if e.rank() <= 2 { 1 } else { e.rank() })
            .sum()
    }

    /// `|g| = |g|V + |g|E`.
    pub fn total_size(&self) -> usize {
        self.node_size() + self.edge_size()
    }

    // ------------------------------------------------------------------
    // Testing / verification helpers
    // ------------------------------------------------------------------

    /// Sorted multiset of `(label, attachment)` pairs; two graphs over the
    /// same node IDs are equal iff their multisets and alive-node sets match.
    pub fn edge_multiset(&self) -> Vec<(EdgeLabel, Vec<NodeId>)> {
        let mut v: Vec<_> = self.edges().map(|e| (e.label, e.att.to_vec())).collect();
        v.sort();
        v
    }

    /// Sorted multiset of `(label, attachment)` with node IDs renamed by `f`.
    pub fn edge_multiset_mapped(&self, f: impl Fn(NodeId) -> NodeId) -> Vec<(EdgeLabel, Vec<NodeId>)> {
        let mut v: Vec<_> = self
            .edges()
            .map(|e| (e.label, e.att.iter().map(|&x| f(x)).collect::<Vec<_>>()))
            .collect();
        v.sort();
        v
    }

    /// Check all structural invariants; returns a description of the first
    /// violation, if any. Linear in the size of the graph plus its stale
    /// incidence entries.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_arena()?;
        // Every incidence list holds its node's alive edges in id order,
        // so one walk over the edges in id order, with a cursor per list,
        // meets each alive entry where the next edge of its node is due.
        let mut next = vec![0usize; self.node_alive.len()];
        let mut degree = vec![0u32; self.node_alive.len()];
        let mut alive_edges = 0usize;
        for EdgeRef { id, att, .. } in self.edges() {
            alive_edges += 1;
            for (i, &v) in att.iter().enumerate() {
                if !self.node_is_alive(v) {
                    return Err(format!("edge {id} attached to dead node {v}"));
                }
                if att[..i].contains(&v) {
                    return Err(format!("edge {id} attaches node {v} twice"));
                }
                degree[v as usize] += 1;
                let list = &self.arena[self.blocks[v as usize].list()];
                let at = &mut next[v as usize];
                while list.get(*at).is_some_and(|&x| !self.edge_alive(x)) {
                    *at += 1;
                }
                match list.get(*at) {
                    Some(&x) if x == id => *at += 1,
                    Some(&x) if x < id => return Err(self.misplaced(x, v)),
                    _ => return Err(format!("edge {id} missing from incidence of node {v}")),
                }
            }
        }
        for ((v, block), &at) in (0..).zip(&self.blocks).zip(&next) {
            let rest = &self.arena[block.list()][at..];
            if let Some(&x) = rest.iter().find(|&&x| self.edge_alive(x)) {
                return Err(self.misplaced(x, v));
            }
        }
        if alive_edges != self.alive_edges {
            return Err(format!(
                "edge count mismatch: counted {alive_edges}, cached {}",
                self.alive_edges
            ));
        }
        if degree != self.degree {
            return Err("cached degree out of sync".into());
        }
        let alive_nodes = self.node_alive.iter().filter(|&&a| a).count();
        if alive_nodes != self.alive_nodes {
            return Err("node count mismatch".into());
        }
        for (i, &v) in self.ext.iter().enumerate() {
            if !self.node_is_alive(v) {
                return Err(format!("external node {v} is dead"));
            }
            if self.ext[..i].contains(&v) {
                return Err(format!("external node {v} repeated"));
            }
        }
        Ok(())
    }

    /// Every block lies inside the arena, and the blocks and the garbage
    /// account for all of it.
    fn validate_arena(&self) -> Result<(), String> {
        if self.blocks.len() != self.node_alive.len() {
            return Err("incidence block count out of sync".into());
        }
        let mut owned = self.garbage;
        for (v, block) in self.blocks.iter().enumerate() {
            let end = block.start as usize + block.cap as usize;
            if block.len > block.cap || end > self.arena.len() {
                return Err(format!("incidence block of node {v} lies outside the arena"));
            }
            owned += block.cap as usize;
        }
        if owned != self.arena.len() {
            return Err(format!(
                "incidence arena of {} entries holds {owned} in blocks and garbage",
                self.arena.len()
            ));
        }
        Ok(())
    }

    /// The error for alive edge `e` found in `v`'s incidence list where no
    /// edge of `v` is due: an edge of `v` there again, or a stranger.
    fn misplaced(&self, e: EdgeId, v: NodeId) -> String {
        if self.edges.att(e as usize).contains(&v) {
            format!("edge {e} listed twice in incidence of node {v}")
        } else {
            format!("edge {e} in incidence of node {v}, which it does not attach")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hypergraph of Fig. 1d: V = {1,2,3} (0-based: {0,1,2}),
    /// e1 = a(0,1), e2 = b(1,2), e3 = A(1,0,2).
    fn fig1d() -> Hypergraph {
        let mut g = Hypergraph::with_nodes(3);
        g.add_edge(EdgeLabel::Terminal(0), &[0, 1]);
        g.add_edge(EdgeLabel::Terminal(1), &[1, 2]);
        g.add_edge(EdgeLabel::Nonterminal(0), &[1, 0, 2]);
        g
    }

    #[test]
    fn fig1d_structure() {
        let g = fig1d();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.att(2), &[1, 0, 2]);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(2), 2);
        g.validate().unwrap();
    }

    #[test]
    fn sizes_follow_section_2() {
        // |g|V = 3; |g|E = 1 + 1 + 3 (two simple edges + one rank-3 hyperedge)
        let g = fig1d();
        assert_eq!(g.node_size(), 3);
        assert_eq!(g.edge_size(), 5);
        assert_eq!(g.total_size(), 8);
    }

    #[test]
    fn remove_edge_and_node() {
        let mut g = fig1d();
        g.remove_edge(2);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.edge_alive(2));
        assert_eq!(g.degree(0), 1);
        g.remove_edge(0);
        assert_eq!(g.degree(0), 0);
        g.remove_node(0);
        assert_eq!(g.num_nodes(), 2);
        assert!(!g.node_is_alive(0));
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "still has incident edges")]
    fn remove_node_with_edges_panics() {
        let mut g = fig1d();
        g.remove_node(1);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_edge_panics() {
        let mut g = fig1d();
        g.remove_edge(0);
        g.remove_edge(0);
    }

    #[test]
    fn incidence_survives_heavy_churn() {
        let mut g = Hypergraph::with_nodes(2);
        let mut last = None;
        for i in 0..1000 {
            let e = g.add_edge(EdgeLabel::Terminal(i % 7), &[0, 1]);
            if let Some(prev) = last {
                g.remove_edge(prev);
            }
            last = Some(e);
        }
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.incident(0).count(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn from_simple_edges_drops_loops_and_dupes() {
        let (g, dropped) =
            Hypergraph::from_simple_edges(3, vec![(0, 0, 1), (0, 0, 1), (1, 0, 1), (1, 0, 2)]);
        assert_eq!(dropped, 2); // one duplicate + one self-loop
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn directed_neighbors() {
        let (g, _) = Hypergraph::from_simple_edges(3, vec![(0, 0, 1), (2, 0, 1), (1, 1, 2)]);
        let outs: Vec<_> = g.out_neighbors(1).collect();
        let ins: Vec<_> = g.in_neighbors(1).collect();
        assert_eq!(outs, vec![2]);
        let mut ins = ins;
        ins.sort();
        assert_eq!(ins, vec![0, 2]);
    }

    #[test]
    fn ext_rank_and_membership() {
        let mut g = fig1d();
        g.set_ext(vec![2, 0]);
        assert_eq!(g.rank(), 2);
        assert!(g.is_external(0));
        assert!(!g.is_external(1));
        g.validate().unwrap();
    }

    /// Node `v`'s incidence list as stored, stale entries included.
    fn list(g: &Hypergraph, v: NodeId) -> &[EdgeId] {
        &g.arena[g.blocks[v as usize].list()]
    }

    /// Remove entry `i` of node `v`'s stored list, keeping the others' order.
    fn remove_entry(g: &mut Hypergraph, v: NodeId, i: usize) {
        let block = &mut g.blocks[v as usize];
        let at = block.start as usize + i;
        g.arena.copy_within(at + 1..block.list().end, at);
        block.len -= 1;
    }

    #[test]
    fn validate_reports_corrupt_private_state() {
        // Fig. 1d after edge 0 was removed, so node 0 and 1's lists hold a
        // stale entry the check must skip.
        let fresh = || {
            let mut g = fig1d();
            g.remove_edge(0);
            g.validate().unwrap();
            g
        };
        let mut g = fresh();
        let i = list(&g, 2).iter().position(|&e| e == 2).unwrap();
        remove_entry(&mut g, 2, i);
        assert_eq!(g.validate(), Err("edge 2 missing from incidence of node 2".into()));

        let mut g = fresh();
        g.push_incidence(1, 1);
        assert_eq!(g.validate(), Err("edge 1 listed twice in incidence of node 1".into()));

        let mut g = fresh();
        g.push_incidence(0, 1);
        assert_eq!(
            g.validate(),
            Err("edge 1 in incidence of node 0, which it does not attach".into())
        );

        let mut g = fresh();
        g.degree[1] += 1;
        assert_eq!(g.validate(), Err("cached degree out of sync".into()));

        let mut g = fresh();
        g.node_alive[2] = false;
        g.alive_nodes -= 1;
        assert_eq!(g.validate(), Err("edge 1 attached to dead node 2".into()));

        // The arena's own bookkeeping.
        let mut g = fresh();
        g.blocks[1].cap = g.blocks[1].len - 1;
        assert_eq!(g.validate(), Err("incidence block of node 1 lies outside the arena".into()));

        let mut g = fresh();
        g.blocks[2].start = offset(g.arena.len());
        assert_eq!(g.validate(), Err("incidence block of node 2 lies outside the arena".into()));

        let mut g = fresh();
        g.garbage += 1;
        let held = g.arena.len() + 1;
        let want = format!("incidence arena of {} entries holds {held} in blocks and garbage", held - 1);
        assert_eq!(g.validate(), Err(want));
    }

    #[test]
    fn validate_finds_a_missing_hub_entry_among_stale_ones() {
        // A hub with 20 000 edges, half of them removed: one walk of its
        // list (about 10⁸ `contains` probes the old way) skips the stale entries
        // and still sees the one live entry that went missing.
        let n: NodeId = 20_001;
        let mut g = Hypergraph::with_nodes(n as usize);
        for v in 1..n {
            let e = g.add_edge(EdgeLabel::Terminal(0), &[0, v]);
            if v % 2 == 0 {
                g.remove_edge(e);
            }
        }
        g.validate().unwrap();
        // `swap_remove(0)` on node 0's list.
        let block = &mut g.blocks[0];
        g.arena[block.start as usize] = g.arena[block.list().end - 1];
        block.len -= 1;
        assert!(g.validate().unwrap_err().contains("missing from incidence of node 0"));
    }

    #[test]
    fn from_edges_is_an_add_edge_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..200 {
            let n: NodeId = rng.gen_range(1..40);
            let mut grown = Hypergraph::with_nodes(n as usize);
            let mut buf = EdgeBuffer::new();
            for _ in 0..rng.gen_range(0..120) {
                let rank = rng.gen_range(1..=n.min(5) as usize);
                let mut att: Vec<NodeId> = Vec::new();
                while att.len() < rank {
                    let v = rng.gen_range(0..n);
                    if !att.contains(&v) {
                        att.push(v);
                    }
                }
                let i = rng.gen_range(0..4u32);
                let label =
                    if rng.gen_bool(0.5) { EdgeLabel::Terminal(i) } else { EdgeLabel::Nonterminal(i) };
                grown.add_edge(label, &att);
                buf.push(label, att);
            }
            let built = Hypergraph::from_edges(n as usize, buf).unwrap();
            built.validate().unwrap();
            assert!(built.edges().eq(grown.edges()), "case {case}");
            assert_eq!(built.degree, grown.degree, "case {case}");
            for v in 0..n {
                assert_eq!(list(&built, v), list(&grown, v), "case {case}, node {v}");
            }
            assert_eq!(built.num_edges(), grown.num_edges(), "case {case}");
            // A CSR: every block exactly its list, back to back in node
            // order, and no garbage or spare room in the arena.
            let mut at = 0;
            for block in &built.blocks {
                assert_eq!((block.start, block.cap), (at, block.len), "case {case}");
                at += block.len;
            }
            assert_eq!(built.garbage, 0, "case {case}");
            assert_eq!(built.arena.len(), at as usize, "case {case}");
            assert_eq!(built.arena.capacity(), built.arena.len(), "case {case}");
        }
    }

    /// What [`churn`] saw: the hub's largest degree, the steps that moved
    /// a block, and the steps that compacted the whole arena.
    #[derive(Debug)]
    struct Churn {
        hub_peak: usize,
        moves: usize,
        compactions: usize,
    }

    /// `grow` steps of random `add_edge` / `remove_edge` / `add_node` /
    /// `remove_node` (mostly adds, most of them attached to node 0, the
    /// hub), then steps that remove every edge and every node, against a
    /// naive model of each node's incidence list. After every step, the
    /// nodes the step touched list exactly the model's edges, in its order,
    /// and have its degree. After every `full`-th step, and after every
    /// step that moved a block or compacted the arena, every node is
    /// checked that way and `validate` must pass.
    fn churn(seed: u64, nodes: u32, grow: usize, full: usize) -> Churn {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = Hypergraph::with_nodes(nodes as usize);
        let mut live: Vec<NodeId> = (0..nodes).collect();
        let mut model: Vec<Vec<EdgeId>> = vec![Vec::new(); nodes as usize];
        let mut edges: Vec<EdgeId> = Vec::new();
        let hub = 0;
        let mut seen = Churn { hub_peak: 0, moves: 0, compactions: 0 };
        let mut step = 0;
        while step < grow || !live.is_empty() {
            let garbage = g.garbage;
            let mut touched: Vec<NodeId> = Vec::new();
            let roll = if step < grow { rng.gen_range(0..100) } else { 100 };
            match roll {
                0..=94 => {
                    let rank = rng.gen_range(1..=live.len().min(4));
                    let mut att: Vec<NodeId> = Vec::new();
                    if rng.gen_bool(0.9) {
                        att.push(hub);
                    }
                    while att.len() < rank {
                        let v = live[rng.gen_range(0..live.len())];
                        if !att.contains(&v) {
                            att.push(v);
                        }
                    }
                    let e = g.add_edge(EdgeLabel::Terminal(rng.gen_range(0..3)), &att);
                    for &v in &att {
                        model[v as usize].push(e);
                    }
                    edges.push(e);
                    touched = att;
                }
                95 => {
                    let v = g.add_node();
                    live.push(v);
                    model.push(Vec::new());
                    touched.push(v);
                }
                96 if live.len() > 1 => {
                    // The hub stays first in `live`.
                    let i = rng.gen_range(1..live.len());
                    if model[live[i] as usize].is_empty() {
                        g.remove_node(live.swap_remove(i));
                    }
                }
                _ if !edges.is_empty() => {
                    let e = edges.swap_remove(rng.gen_range(0..edges.len()));
                    touched = g.att(e).to_vec();
                    g.remove_edge(e);
                    for &v in &touched {
                        model[v as usize].retain(|&x| x != e);
                    }
                }
                // Then the nodes, the hub last.
                _ if step >= grow => g.remove_node(live.pop().unwrap()),
                _ => {}
            }
            if g.node_is_alive(hub) {
                seen.hub_peak = seen.hub_peak.max(g.degree(hub));
            }
            let moved = g.garbage > garbage;
            let compacted = g.garbage < garbage;
            seen.moves += usize::from(moved);
            seen.compactions += usize::from(compacted);
            assert_eq!(g.num_edges(), edges.len(), "step {step}");
            assert_eq!(g.num_nodes(), live.len(), "step {step}");
            let everything = moved || compacted || step % full == 0;
            let checked: &[NodeId] = if everything { &live } else { &touched };
            for &v in checked {
                let listed = model[v as usize].iter().copied();
                assert!(g.incident(v).eq(listed), "step {step}, node {v}");
                assert_eq!(g.degree(v), model[v as usize].len(), "step {step}, node {v}");
            }
            if everything {
                g.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
            step += 1;
        }
        assert_eq!((g.num_edges(), g.num_nodes()), (0, 0));
        seen
    }

    #[test]
    fn incidence_order_under_churn_matches_a_model() {
        // Small graphs, every node and `validate` after every step.
        for seed in 0..4 {
            let seen = churn(seed, 12, 1_500, 1);
            assert!(seen.moves > 0 && seen.compactions > 0, "seed {seed}: {seen:?}");
        }
        // A hub of over 10 000 edges, whose block moves as it grows. Moving
        // a block of doubled capacity leaves less garbage than the blocks
        // hold, so it is removing nodes that makes the arena compact.
        let seen = churn(42, 40, 12_500, 256);
        assert!(seen.hub_peak >= 10_000 && seen.moves > 0 && seen.compactions > 1, "{seen:?}");
    }

    #[test]
    fn from_edges_rejects_what_add_edge_asserts() {
        let build = |att: &[NodeId]| {
            let mut buf = EdgeBuffer::new();
            buf.push(EdgeLabel::Terminal(0), [0, 1]);
            buf.push(EdgeLabel::Terminal(0), att.iter().copied());
            Hypergraph::from_edges(3, buf)
        };
        assert_eq!(build(&[2, 0]).map(|g| g.num_edges()), Ok(2));
        assert_eq!(build(&[0, 3]).unwrap_err(), "edge 1 attached to node 3 of 3");
        assert_eq!(build(&[1, 2, 1]).unwrap_err(), "edge 1 attaches node 1 twice");
        assert_eq!(build(&[2, 2]).unwrap_err(), "edge 1 attaches node 2 twice");
        assert_eq!(build(&[]).unwrap_err(), "edge 1 has rank 0");
        let far = NodeId::MAX;
        assert_eq!(build(&[far]).unwrap_err(), format!("edge 1 attached to node {far} of 3"));
        let empty = Hypergraph::from_edges(0, EdgeBuffer::new()).unwrap();
        assert_eq!((empty.num_nodes(), empty.num_edges()), (0, 0));
    }

    #[test]
    fn edge_multiset_is_order_insensitive() {
        let mut a = Hypergraph::with_nodes(2);
        a.add_edge(EdgeLabel::Terminal(1), &[0, 1]);
        a.add_edge(EdgeLabel::Terminal(0), &[1, 0]);
        let mut b = Hypergraph::with_nodes(2);
        b.add_edge(EdgeLabel::Terminal(0), &[1, 0]);
        b.add_edge(EdgeLabel::Terminal(1), &[0, 1]);
        assert_eq!(a.edge_multiset(), b.edge_multiset());
    }
}
