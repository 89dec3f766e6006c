//! The hypergraph data structure.

use crate::label::EdgeLabel;

/// Node identifier. Nodes are dense `0..n` at construction; removal leaves
/// tombstones so IDs stay stable throughout compression.
pub type NodeId = u32;

/// Edge identifier. Edge IDs are never reused, so a stale ID in an auxiliary
/// index can always be detected via [`Hypergraph::edge_alive`].
pub type EdgeId = u32;

/// Attachment list of an edge. Rank-2 edges (the overwhelming majority in
/// every dataset) are stored inline; hyperedges spill to a boxed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Att {
    Two([NodeId; 2]),
    Many(Box<[NodeId]>),
}

impl Att {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Att::Two(pair) => pair,
            Att::Many(nodes) => nodes,
        }
    }
}

#[derive(Debug, Clone)]
struct Edge {
    label: EdgeLabel,
    att: Att,
}

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
/// and the attachments themselves — which [`Hypergraph::from_edges`] turns
/// into a graph in one exact-size pass. Appending costs no allocation per
/// edge, so a decoder or a derivation collects here and builds once.
#[derive(Debug, Clone, Default)]
pub struct EdgeBuffer {
    labels: Vec<EdgeLabel>,
    /// `atts[ends[i - 1]..ends[i]]` is edge `i`'s attachment.
    ends: Vec<usize>,
    atts: Vec<NodeId>,
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
        self.ends.push(self.atts.len());
    }
}

/// A directed edge-labeled hypergraph with external nodes (§II).
///
/// Invariants (checked by [`Hypergraph::validate`], and in debug builds on
/// every mutation):
/// * every attachment list references alive nodes and contains no node twice
///   (paper restriction (1)),
/// * the external sequence contains no node twice (restriction (2)) and only
///   alive nodes,
/// * `degree(v)` equals the number of alive edges incident with `v`.
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    edges: Vec<Option<Edge>>,
    node_alive: Vec<bool>,
    alive_nodes: usize,
    alive_edges: usize,
    /// Incident edge IDs per node; may contain stale (dead-edge) entries,
    /// compacted lazily when the stale fraction grows.
    incidence: Vec<Vec<EdgeId>>,
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
            edges: Vec::new(),
            node_alive: vec![true; n],
            alive_nodes: n,
            alive_edges: 0,
            incidence: vec![Vec::new(); n],
            degree: vec![0; n],
            ext: Vec::new(),
        }
    }

    /// Hypergraph with `n` nodes and the edges of `edges`, in their order:
    /// the same graph as `with_nodes(n)` followed by one [`add_edge`] per
    /// edge — edge ids, degrees and incidence lists included — built in one
    /// pass that counts degrees first and allocates every incidence list
    /// at its exact size. The buffer is consumed and freed on return.
    ///
    /// Checked, never panicking: an edge of rank 0, an attachment node
    /// `≥ n` or an attachment that repeats a node is an `Err`.
    ///
    /// [`add_edge`]: Hypergraph::add_edge
    pub fn from_edges(n: usize, edges: EdgeBuffer) -> Result<Self, String> {
        let EdgeBuffer { labels, ends, atts } = edges;
        let mut degree = vec![0u32; n];
        let mut start = 0;
        for (e, &end) in ends.iter().enumerate() {
            if end <= start {
                return Err(format!("edge {e} has rank 0"));
            }
            for &v in &atts[start..end] {
                let Some(d) = degree.get_mut(v as usize) else {
                    return Err(format!("edge {e} attached to node {v} of {n}"));
                };
                *d += 1;
            }
            start = end;
        }
        let mut incidence: Vec<Vec<EdgeId>> =
            degree.iter().map(|&d| Vec::with_capacity(d as usize)).collect();
        let mut stored = Vec::with_capacity(labels.len());
        let mut start = 0;
        for (e, (&label, &end)) in labels.iter().zip(&ends).enumerate() {
            let att = &atts[start..end];
            for &v in att {
                // Edges arrive in id order, so a node this edge already
                // attached has it last in its list.
                let list = &mut incidence[v as usize];
                if list.last() == Some(&(e as EdgeId)) {
                    return Err(format!("edge {e} attaches node {v} twice"));
                }
                list.push(e as EdgeId);
            }
            let att = match *att {
                [a, b] => Att::Two([a, b]),
                _ => Att::Many(att.into()),
            };
            stored.push(Some(Edge { label, att }));
            start = end;
        }
        Ok(Self {
            alive_edges: stored.len(),
            edges: stored,
            node_alive: vec![true; n],
            alive_nodes: n,
            incidence,
            degree,
            ext: Vec::new(),
        })
    }

    /// Build a simple directed graph from `(source, label, target)` triples.
    ///
    /// Self-loops and duplicate `(source, label, target)` triples are dropped
    /// (paper restrictions: attachments contain no node twice; simple graphs
    /// have no parallel equal-labeled edges); the number dropped is returned.
    pub fn from_simple_edges(
        n: usize,
        triples: impl IntoIterator<Item = (NodeId, u32, NodeId)>,
    ) -> (Self, usize) {
        let mut g = Self::with_nodes(n);
        let mut seen = grepair_util::FxHashSet::default();
        let mut dropped = 0usize;
        for (s, label, t) in triples {
            if s == t || !seen.insert((s, label, t)) {
                dropped += 1;
                continue;
            }
            g.add_edge(EdgeLabel::Terminal(label), &[s, t]);
        }
        (g, dropped)
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Add a fresh node; returns its ID.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.node_alive.len() as NodeId;
        self.node_alive.push(true);
        self.incidence.push(Vec::new());
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
        self.incidence[v as usize] = Vec::new();
        self.alive_nodes -= 1;
    }

    /// Is node `v` alive?
    pub fn node_is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.node_alive.len() && self.node_alive[v as usize]
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
        (0..self.node_alive.len() as NodeId).filter(move |&v| self.node_alive[v as usize])
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
    /// In debug builds, if `att` repeats a node or references a dead node.
    pub fn add_edge(&mut self, label: EdgeLabel, att: &[NodeId]) -> EdgeId {
        debug_assert!(
            att.iter().all(|&v| self.node_is_alive(v)),
            "attachment references a dead node"
        );
        debug_assert!(
            (1..att.len()).all(|i| !att[..i].contains(&att[i])),
            "attachment contains a node twice (paper restriction 1)"
        );
        let id = self.edges.len() as EdgeId;
        let stored = if att.len() == 2 {
            Att::Two([att[0], att[1]])
        } else {
            Att::Many(att.into())
        };
        self.edges.push(Some(Edge { label, att: stored }));
        for &v in att {
            self.incidence[v as usize].push(id);
            self.degree[v as usize] += 1;
        }
        self.alive_edges += 1;
        id
    }

    /// Remove edge `e`.
    ///
    /// # Panics
    /// If `e` is already dead.
    pub fn remove_edge(&mut self, e: EdgeId) {
        let edge = self.edges[e as usize].take().expect("edge already removed");
        self.alive_edges -= 1;
        for &v in edge.att.as_slice() {
            self.degree[v as usize] -= 1;
            let list = &mut self.incidence[v as usize];
            // Lazy compaction: rebuild once over half the list is stale.
            if list.len() > 8 && list.len() > 2 * self.degree[v as usize] as usize {
                let edges = &self.edges;
                list.retain(|&id| edges[id as usize].is_some());
            }
        }
    }

    /// Is edge `e` alive?
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        (e as usize) < self.edges.len() && self.edges[e as usize].is_some()
    }

    /// Number of alive edges.
    pub fn num_edges(&self) -> usize {
        self.alive_edges
    }

    /// Upper bound on edge IDs.
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Borrow edge `e`.
    ///
    /// # Panics
    /// If `e` is dead.
    pub fn edge(&self, e: EdgeId) -> EdgeRef<'_> {
        let edge = self.edges[e as usize].as_ref().expect("dead edge");
        EdgeRef { id: e, label: edge.label, att: edge.att.as_slice() }
    }

    /// Label of edge `e`. Panics if dead.
    pub fn label(&self, e: EdgeId) -> EdgeLabel {
        self.edges[e as usize].as_ref().expect("dead edge").label
    }

    /// Attachment of edge `e`. Panics if dead.
    pub fn att(&self, e: EdgeId) -> &[NodeId] {
        self.edges[e as usize].as_ref().expect("dead edge").att.as_slice()
    }

    /// Relabel edge `e` in place (attachment and edge ID are unchanged —
    /// used by grammar renumbering, which must not disturb edge identities).
    pub fn set_label(&mut self, e: EdgeId, label: EdgeLabel) {
        self.edges[e as usize].as_mut().expect("dead edge").label = label;
    }

    /// Iterate over alive edges in ID order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_>> {
        self.edges.iter().enumerate().filter_map(|(id, slot)| {
            slot.as_ref().map(|e| EdgeRef {
                id: id as EdgeId,
                label: e.label,
                att: e.att.as_slice(),
            })
        })
    }

    /// Iterate over the IDs of alive edges incident with `v`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.incidence[v as usize]
            .iter()
            .copied()
            .filter(move |&e| self.edges[e as usize].is_some())
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
        let mut degree = vec![0u32; self.node_alive.len()];
        let mut alive_edges = 0usize;
        for (id, slot) in self.edges.iter().enumerate() {
            let Some(edge) = slot else { continue };
            alive_edges += 1;
            let att = edge.att.as_slice();
            for (i, &v) in att.iter().enumerate() {
                if !self.node_is_alive(v) {
                    return Err(format!("edge {id} attached to dead node {v}"));
                }
                if att[..i].contains(&v) {
                    return Err(format!("edge {id} attaches node {v} twice"));
                }
                degree[v as usize] += 1;
            }
        }
        self.validate_incidence(&degree)?;
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

    /// Every alive edge is listed exactly once in the incidence list of each
    /// node it attaches, given `degree[v]` = the number of alive edges
    /// attached to `v`. One pass per node over its list: an alive entry
    /// must attach the node and must not repeat (a per-edge stamp), so the
    /// alive entries are distinct edges attached to `v`, and they are all of
    /// them exactly when they number `degree[v]`.
    fn validate_incidence(&self, degree: &[u32]) -> Result<(), String> {
        let mut stamp = vec![NodeId::MAX; self.edges.len()];
        for (v, (list, &deg)) in self.incidence.iter().zip(degree).enumerate() {
            let v = v as NodeId;
            let mut listed = 0u32;
            for &e in list {
                let Some(Some(edge)) = self.edges.get(e as usize) else { continue };
                if !edge.att.as_slice().contains(&v) {
                    return Err(format!(
                        "edge {e} in incidence of node {v}, which it does not attach"
                    ));
                }
                if stamp[e as usize] == v {
                    return Err(format!("edge {e} listed twice in incidence of node {v}"));
                }
                stamp[e as usize] = v;
                listed += 1;
            }
            if listed != deg {
                // Fewer: some edge attached to `v` is not in its list.
                let missing =
                    self.edges().find(|e| e.att.contains(&v) && stamp[e.id as usize] != v);
                return Err(match missing {
                    Some(e) => format!("edge {} missing from incidence of node {v}", e.id),
                    None => format!("incidence of node {v} lists {listed} of its {deg} edges"),
                });
            }
        }
        Ok(())
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
        g.incidence[2].retain(|&e| e != 2);
        assert_eq!(g.validate(), Err("edge 2 missing from incidence of node 2".into()));

        let mut g = fresh();
        g.incidence[1].push(1);
        assert_eq!(g.validate(), Err("edge 1 listed twice in incidence of node 1".into()));

        let mut g = fresh();
        g.incidence[0].push(1);
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
    }

    #[test]
    fn validate_finds_a_missing_hub_entry_among_stale_ones() {
        // A hub with 20 000 edges, half of them removed: one walk of its
        // list (about 10⁸ `contains` probes the old way) skips the stale entries
        // and still sees the one live entry that went missing.
        let n = 20_001;
        let mut g = Hypergraph::with_nodes(n);
        for v in 1..n as NodeId {
            let e = g.add_edge(EdgeLabel::Terminal(0), &[0, v]);
            if v % 2 == 0 {
                g.remove_edge(e);
            }
        }
        g.validate().unwrap();
        g.incidence[0].swap_remove(0);
        assert!(g.validate().unwrap_err().contains("missing from incidence of node 0"));
    }

    #[test]
    fn from_edges_is_an_add_edge_loop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for case in 0..200 {
            let n = rng.gen_range(1..40usize);
            let mut grown = Hypergraph::with_nodes(n);
            let mut buf = EdgeBuffer::new();
            for _ in 0..rng.gen_range(0..120) {
                let rank = rng.gen_range(1..=n.min(5));
                let mut att: Vec<NodeId> = Vec::new();
                while att.len() < rank {
                    let v = rng.gen_range(0..n as NodeId);
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
            let built = Hypergraph::from_edges(n, buf).unwrap();
            built.validate().unwrap();
            assert!(built.edges().eq(grown.edges()), "case {case}");
            assert_eq!(built.degree, grown.degree, "case {case}");
            assert_eq!(built.incidence, grown.incidence, "case {case}");
            assert_eq!(built.num_edges(), grown.num_edges(), "case {case}");
            // Exact size: no list was grown past its degree.
            assert!(built.incidence.iter().all(|l| l.capacity() == l.len()), "case {case}");
        }
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
