//! Provenance: mapping `val(G)` node IDs back to input node IDs.
//!
//! The paper (§III-C2 end) notes that the grammar reproduces an *isomorphic*
//! copy of the input and that a mapping from new IDs to original IDs can be
//! produced "as it always produces the same isomorphic copy", which is what
//! makes compression lossless for graphs with node data (the ψ′ mapping).
//!
//! We materialize that mapping. Every nonterminal edge in the start graph
//! carries a tree that mirrors its expansion: per tree node the original
//! IDs of the internal nodes its rule creates, plus one child per
//! nonterminal edge of the rule (in edge-ID order). Because both rule
//! inlining (`grepair_grammar::apply_rule`) and derivation create internal
//! nodes in rhs node-ID order and recurse in rhs edge-ID order, flattening a
//! tree depth-first yields exactly the derivation's node-creation order.
//!
//! The trees live in one arena, [`ProvForest`], with two indexes that make
//! every update local:
//!
//! * `roots[e]` — the tree of start edge `e`. Edge IDs are dense and never
//!   reused, so this is a slot array, not a hash table.
//! * `by_nt[A]` — every live tree node that expands nonterminal `A`. A node
//!   is entered when it is created and its nonterminal never changes, so
//!   the list is exact until `A` itself is inlined away (then it is
//!   dropped whole).
//!
//! Pruning reshapes rules by inlining; [`ProvForest::splice_children`]
//! applies the matching reshaping (inlined nodes merge into their parent,
//! their children get appended — mirroring how `apply_rule` appends) to the
//! nodes of `by_nt[host]` and to nothing else: an inline costs the number
//! of expansions of the host rule, not the size of the forest.
//! [`ProvForest::nodes_visited`] counts exactly that work.

use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, NodeId};

/// Index of a tree node in a [`ProvForest`].
pub type ProvId = u32;

const NONE: ProvId = ProvId::MAX;
/// `nt` of a node that was merged into its parent or into the start graph.
const DISSOLVED: u32 = u32::MAX;

/// Expansion provenance of one nonterminal edge.
#[derive(Debug, Clone)]
struct ProvNode {
    /// The nonterminal labeling the edge this node describes.
    nt: u32,
    /// Original input-node IDs of the internal nodes `rhs(nt)` creates, in
    /// rhs node-ID order.
    internal: Vec<NodeId>,
    /// One subtree per nonterminal edge of `rhs(nt)`, in rhs edge-ID order.
    children: Vec<ProvId>,
}

/// What a start edge's tree hands over when its rule is inlined into the
/// start graph.
#[derive(Debug)]
pub struct Materialized {
    /// Original IDs for the nodes the inline creates, in creation order.
    pub internal: Vec<NodeId>,
    /// Trees for the nonterminal edges the inline creates, in creation order.
    pub children: Vec<ProvId>,
}

/// All expansion trees of one compression run.
#[derive(Debug, Clone, Default)]
pub struct ProvForest {
    nodes: Vec<ProvNode>,
    roots: Vec<ProvId>,
    by_nt: Vec<Vec<ProvId>>,
    visited: u64,
    /// Scratch for [`ProvForest::splice_children`].
    dissolving: Vec<ProvId>,
}

impl ProvForest {
    /// Empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// New tree node for an `nt`-labeled edge; `children` become its
    /// subtrees (they must be detached roots).
    pub fn add(&mut self, nt: u32, internal: Vec<NodeId>, children: Vec<ProvId>) -> ProvId {
        let id = self.nodes.len() as ProvId;
        self.nodes.push(ProvNode { nt, internal, children });
        if self.by_nt.len() <= nt as usize {
            self.by_nt.resize_with(nt as usize + 1, Vec::new);
        }
        self.by_nt[nt as usize].push(id);
        id
    }

    /// The tree of start edge `e`, if it has one.
    pub fn root(&self, e: EdgeId) -> Option<ProvId> {
        self.roots.get(e as usize).copied().filter(|&id| id != NONE)
    }

    /// Make `id` the tree of start edge `e`.
    pub fn set_root(&mut self, e: EdgeId, id: ProvId) {
        if self.roots.len() <= e as usize {
            self.roots.resize(e as usize + 1, NONE);
        }
        self.roots[e as usize] = id;
    }

    /// Detach and return the tree of start edge `e` (the edge is going away).
    pub fn take_root(&mut self, e: EdgeId) -> Option<ProvId> {
        let id = self.root(e)?;
        self.roots[e as usize] = NONE;
        Some(id)
    }

    /// Re-key the start-edge index after the start graph was rebuilt: new
    /// edge `i` is what used to be edge `old_of_new[i]`.
    pub fn rekey_roots(&mut self, old_of_new: &[EdgeId]) {
        self.roots = old_of_new.iter().map(|&e| self.root(e).unwrap_or(NONE)).collect();
    }

    /// Tree nodes touched by pruning so far (hosts spliced, children and
    /// roots dissolved) — the work counter behind
    /// `CompressStats::prov_nodes_visited`.
    pub fn nodes_visited(&self) -> u64 {
        self.visited
    }

    /// Depth-first flatten: the original IDs in derivation creation order.
    pub fn flatten_into(&self, id: ProvId, out: &mut Vec<NodeId>) {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            out.extend_from_slice(&node.internal);
            stack.extend(node.children.iter().rev());
        }
    }

    /// Splice for "rule `inlined` was inlined into `rhs(host)`": at every
    /// tree node describing a `host` expansion, the children at
    /// `positions` (ascending indices into its children, all labeled
    /// `inlined`) dissolve — their internal IDs append to the host's, their
    /// children append behind the host's remaining children. This mirrors
    /// `apply_rule`'s append-at-the-end layout exactly.
    pub fn splice_children(&mut self, host: u32, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        let Some(hosts) = self.by_nt.get_mut(host as usize).map(std::mem::take) else { return };
        let mut dissolving = std::mem::take(&mut self.dissolving);
        for &h in &hosts {
            debug_assert_eq!(self.nodes[h as usize].nt, host);
            self.visited += 1 + positions.len() as u64;
            let mut children = std::mem::take(&mut self.nodes[h as usize].children);
            let mut internal = std::mem::take(&mut self.nodes[h as usize].internal);
            let (mut next, mut kept) = (0usize, 0usize);
            for i in 0..children.len() {
                if positions.get(next) == Some(&i) {
                    dissolving.push(children[i]);
                    next += 1;
                } else {
                    children[kept] = children[i];
                    kept += 1;
                }
            }
            debug_assert_eq!(next, positions.len(), "positions beyond the host's children");
            children.truncate(kept);
            for sub in dissolving.drain(..) {
                let sub = &mut self.nodes[sub as usize];
                sub.nt = DISSOLVED;
                internal.append(&mut sub.internal);
                children.append(&mut sub.children);
            }
            self.nodes[h as usize].children = children;
            self.nodes[h as usize].internal = internal;
        }
        self.by_nt[host as usize] = hosts;
        self.dissolving = dissolving;
    }

    /// The rule of start edge `e` is being inlined into the start graph:
    /// detach its tree and dissolve the root.
    ///
    /// # Panics
    /// If `e` has no tree.
    pub fn materialize_root(&mut self, e: EdgeId) -> Materialized {
        let id = self
            .take_root(e)
            .unwrap_or_else(|| panic!("missing provenance for start edge {e}"));
        self.visited += 1;
        let node = &mut self.nodes[id as usize];
        node.nt = DISSOLVED;
        Materialized {
            internal: std::mem::take(&mut node.internal),
            children: std::mem::take(&mut node.children),
        }
    }

    /// Nonterminal `nt` was inlined at every reference: all its tree nodes
    /// are dissolved, so its index entry goes.
    pub fn forget_nonterminal(&mut self, nt: u32) {
        if let Some(list) = self.by_nt.get_mut(nt as usize) {
            debug_assert!(list.iter().all(|&id| self.nodes[id as usize].nt == DISSOLVED));
            *list = Vec::new();
        }
    }

    /// Renumber nonterminal indices after rules were dropped/renumbered.
    /// Ends pruning's use of the forest: the per-nonterminal index is
    /// dropped, not renumbered.
    pub fn renumber(&mut self, mapping: &[u32]) {
        self.by_nt = Vec::new();
        for node in &mut self.nodes {
            if node.nt != DISSOLVED {
                node.nt = mapping[node.nt as usize];
                debug_assert_ne!(node.nt, u32::MAX, "prov references dropped rule");
            }
        }
    }

    /// Check the tree under `id` is consistent with `grammar`: internal
    /// count matches the rhs, children match the rhs's nonterminal edges in
    /// order.
    pub fn validate(&self, id: ProvId, grammar: &Grammar) -> Result<(), String> {
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.nt == DISSOLVED {
                return Err(format!("prov node {id} was dissolved but is still reachable"));
            }
            let rhs = grammar.rule(node.nt);
            let internal = rhs.num_nodes() - rhs.rank();
            if node.internal.len() != internal {
                return Err(format!(
                    "N{}: prov has {} internal ids, rhs creates {internal}",
                    node.nt,
                    node.internal.len()
                ));
            }
            let nt_edges: Vec<u32> = rhs
                .edges()
                .filter_map(|e| match e.label {
                    EdgeLabel::Nonterminal(i) => Some(i),
                    EdgeLabel::Terminal(_) => None,
                })
                .collect();
            if nt_edges.len() != node.children.len() {
                return Err(format!(
                    "N{}: prov has {} children, rhs has {} nonterminal edges",
                    node.nt,
                    node.children.len(),
                    nt_edges.len()
                ));
            }
            for (&child, &label) in node.children.iter().zip(&nt_edges) {
                let child_nt = self.nodes[child as usize].nt;
                if child_nt != label {
                    return Err(format!(
                        "N{}: prov child says N{child_nt}, rhs edge says N{label}",
                        node.nt
                    ));
                }
                stack.push(child);
            }
        }
        Ok(())
    }
}

/// Assemble the full `val(G)`-ID → original-ID map:
/// alive start nodes first (in ID order, mapped through `original_id`), then
/// each start nonterminal edge's flattened tree in edge-ID order — matching
/// [`Grammar::derive`]'s creation order bit for bit.
pub fn build_node_map(grammar: &Grammar, original_id: &[NodeId], prov: &ProvForest) -> Vec<NodeId> {
    let mut map = Vec::new();
    for v in grammar.start.node_ids() {
        map.push(original_id[v as usize]);
    }
    for e in grammar.start.edges() {
        if e.label.is_nonterminal() {
            let tree = prov
                .root(e.id)
                .unwrap_or_else(|| panic!("missing provenance for start edge {}", e.id));
            prov.flatten_into(tree, &mut map);
        }
    }
    map
}

/// Validate every start-edge tree against the grammar, plus that the map is
/// a permutation of the expected original IDs.
pub fn validate_provenance(
    grammar: &Grammar,
    original_id: &[NodeId],
    prov: &ProvForest,
    expected_nodes: &[NodeId],
) -> Result<(), String> {
    for e in grammar.start.edges() {
        if let EdgeLabel::Nonterminal(nt) = e.label {
            let tree = prov
                .root(e.id)
                .ok_or_else(|| format!("missing prov for start edge {}", e.id))?;
            if prov.nodes[tree as usize].nt != nt {
                return Err(format!("prov label mismatch on edge {}", e.id));
            }
            prov.validate(tree, grammar)?;
        }
    }
    let map = build_node_map(grammar, original_id, prov);
    let mut seen: Vec<NodeId> = map.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != map.len() {
        return Err("node map contains duplicate original IDs".into());
    }
    let mut expected: Vec<NodeId> = expected_nodes.to_vec();
    expected.sort_unstable();
    if seen != expected {
        return Err(format!(
            "node map covers {} originals, expected {}",
            seen.len(),
            expected.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(forest: &ProvForest, id: ProvId) -> Vec<NodeId> {
        let mut out = Vec::new();
        forest.flatten_into(id, &mut out);
        out
    }

    fn child_nts(forest: &ProvForest, id: ProvId) -> Vec<u32> {
        forest.nodes[id as usize].children.iter().map(|&c| forest.nodes[c as usize].nt).collect()
    }

    #[test]
    fn flatten_is_depth_first() {
        let mut f = ProvForest::new();
        let deep = f.add(1, vec![13], vec![]);
        let left = f.add(0, vec![11, 12], vec![deep]);
        let right = f.add(1, vec![14], vec![]);
        let tree = f.add(2, vec![10], vec![left, right]);
        assert_eq!(flat(&f, tree), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn splice_merges_marked_children() {
        // host N5 has children [N7, N3, N7]; rule N7 gets inlined into
        // rhs(N5): both N7 children dissolve.
        let mut f = ProvForest::new();
        let g1 = f.add(4, vec![3], vec![]);
        let c1 = f.add(7, vec![2], vec![g1]);
        let c2 = f.add(3, vec![9], vec![]);
        let g2 = f.add(4, vec![6], vec![]);
        let c3 = f.add(7, vec![5], vec![g2]);
        let tree = f.add(5, vec![1], vec![c1, c2, c3]);
        let before = flat(&f, tree).len();
        f.splice_children(5, &[0, 2]);
        assert_eq!(flat(&f, tree).len(), before);
        assert_eq!(f.nodes[tree as usize].internal, vec![1, 2, 5]);
        assert_eq!(child_nts(&f, tree), vec![3, 4, 4]);
        // Flatten order matches the post-inline expansion order.
        assert_eq!(flat(&f, tree), vec![1, 2, 5, 9, 3, 6]);
        // One host visited, two children dissolved.
        assert_eq!(f.nodes_visited(), 3);
        f.forget_nonterminal(7);
    }

    #[test]
    fn splice_recurses_into_nested_hosts() {
        let mut f = ProvForest::new();
        let leaf = f.add(7, vec![2], vec![]);
        let host = f.add(5, vec![1], vec![leaf]);
        let tree = f.add(9, vec![], vec![host]);
        // A second, unrelated tree the splice must not count.
        let other = f.add(8, vec![4], vec![]);
        f.set_root(0, tree);
        f.set_root(1, other);
        f.splice_children(5, &[0]);
        assert_eq!(f.nodes[host as usize].internal, vec![1, 2]);
        assert!(f.nodes[host as usize].children.is_empty());
        assert_eq!(f.nodes_visited(), 2);
    }

    #[test]
    fn materialize_hands_over_the_root() {
        let mut f = ProvForest::new();
        let child = f.add(0, vec![8], vec![]);
        let tree = f.add(3, vec![6, 7], vec![child]);
        f.set_root(4, tree);
        let m = f.materialize_root(4);
        assert_eq!(m.internal, vec![6, 7]);
        assert_eq!(m.children, vec![child]);
        assert_eq!(f.root(4), None);
    }

    #[test]
    fn renumber_applies_everywhere() {
        let mut f = ProvForest::new();
        let child = f.add(0, vec![1], vec![]);
        let tree = f.add(2, vec![], vec![child]);
        f.renumber(&[5, u32::MAX, 1]);
        assert_eq!(f.nodes[tree as usize].nt, 1);
        assert_eq!(f.nodes[child as usize].nt, 5);
    }

    #[test]
    fn rekey_moves_roots_to_their_new_edges() {
        let mut f = ProvForest::new();
        let a = f.add(0, vec![1], vec![]);
        let b = f.add(0, vec![2], vec![]);
        f.set_root(3, a);
        f.set_root(7, b);
        f.rekey_roots(&[7, 3]);
        assert_eq!(f.root(1), Some(a));
        assert_eq!(f.root(0), Some(b));
        assert_eq!(f.root(3), None);
    }
}
