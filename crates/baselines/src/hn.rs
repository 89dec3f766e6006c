//! HN — dense-substructure (virtual node) compression in the style of
//! Buehrer & Chellapilla \[23\], as combined with k²-trees by Hernández &
//! Navarro \[22\].
//!
//! Repeatedly find groups of nodes sharing a large set of out-neighbors
//! (approximate bicliques), replace the |S|·|C| direct edges by |S| + |C|
//! edges through a fresh *virtual node*, then store the rewired graph as a
//! k²-tree. The mining is the usual shingle-clustering greedy
//! approximation: nodes are clustered by a min-hash of their out-lists and
//! common neighbor sets are extracted per cluster.
//!
//! Parameters follow the paper's experiments: `T = 10` (cluster size
//! threshold for mining), `P = 2` (minimum common-set size), `ES = 10`
//! (mining passes).

use grepair_hypergraph::{Hypergraph, NodeId};
use grepair_util::FxHashMap;

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct HnParams {
    /// Cluster size threshold: clusters at least this large are mined first;
    /// smaller groups are still exploited when profitable.
    pub t: usize,
    /// Minimum size of a shared neighbor set worth extracting.
    pub p: usize,
    /// Number of mining passes.
    pub es: usize,
}

impl Default for HnParams {
    fn default() -> Self {
        // T = 10, P = 2, ES = 10 — "the parameters their experiments show to
        // provide the best compression" (§IV).
        Self { t: 10, p: 2, es: 10 }
    }
}

/// Result of the rewiring phase.
#[derive(Debug)]
pub struct Rewired {
    /// Out-adjacency of the rewired graph; indices ≥ `original_nodes` are
    /// virtual.
    pub adj: Vec<Vec<NodeId>>,
    /// Number of original nodes.
    pub original_nodes: usize,
}

fn minhash(list: &[NodeId], seed: u64) -> u64 {
    list.iter()
        .map(|&x| {
            let mut h = x as u64 ^ seed;
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            h ^= h >> 33;
            h
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// Mine virtual nodes over the out-adjacency lists.
pub fn rewire(g: &Hypergraph, params: &HnParams) -> Rewired {
    let n = g.node_bound();
    let mut adj: Vec<Vec<NodeId>> = (0..n as NodeId)
        .map(|v| {
            if g.node_is_alive(v) {
                let mut outs: Vec<NodeId> = g.out_neighbors(v).collect();
                outs.sort_unstable();
                outs.dedup();
                outs
            } else {
                Vec::new()
            }
        })
        .collect();

    for pass in 0..params.es {
        // Cluster rows by min-hash shingle of their out-lists.
        let mut clusters: FxHashMap<u64, Vec<NodeId>> = FxHashMap::default();
        for (v, outs) in adj.iter().enumerate() {
            if outs.len() >= params.p {
                clusters
                    .entry(minhash(outs, 0x9E3779B9 + pass as u64))
                    .or_default()
                    .push(v as NodeId);
            }
        }
        let mut clusters: Vec<Vec<NodeId>> = clusters.into_values().collect();
        // Deterministic processing order: big clusters first.
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.len()), c.first().copied()));

        for cluster in clusters {
            if cluster.len() < 2 {
                continue;
            }
            // Greedy: intersect out-lists, largest-first prefix of the
            // cluster, keeping the extraction profitable.
            let mut members: Vec<NodeId> = Vec::new();
            let mut common: Vec<NodeId> = Vec::new();
            for &v in &cluster {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "cluster members come from enumerating `adj`, so v < adj.len()"
                )]
                let outs = &adj[v as usize];
                if members.is_empty() {
                    members.push(v);
                    common = outs.clone();
                    continue;
                }
                let next: Vec<NodeId> = common
                    .iter()
                    .copied()
                    .filter(|x| outs.binary_search(x).is_ok())
                    .collect();
                if next.len() >= params.p {
                    members.push(v);
                    common = next;
                }
                if members.len() >= params.t && common.len() >= params.p {
                    // Large enough; stop growing to keep common big.
                    break;
                }
            }
            // Profitability: replace members·common edges by members+common.
            let saved = members.len() * common.len();
            let cost = members.len() + common.len();
            if members.len() < 2 || common.len() < params.p || saved <= cost {
                continue;
            }
            let virtual_id = adj.len() as NodeId;
            adj.push(common.clone());
            for &v in &members {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "members ⊆ cluster, and cluster members are adj indices"
                )]
                let list = &mut adj[v as usize];
                list.retain(|x| common.binary_search(x).is_err());
                list.push(virtual_id);
                list.sort_unstable();
            }
        }
    }
    Rewired { adj, original_nodes: n }
}

/// Expand virtual nodes back into direct edges (the decompression side).
///
/// Infallible wrapper over [`try_expand`] for trusted [`rewire`] output
/// (no memo budget).
pub fn expand(rewired: &Rewired) -> Vec<Vec<NodeId>> {
    #[expect(
        clippy::expect_used,
        reason = "the only error path is exceeding the budget, and this one is usize::MAX"
    )]
    try_expand(rewired, usize::MAX).expect("unbounded expansion cannot exceed its budget")
}

/// Memo-size budget serving paths pass to [`try_expand`]: hostile chained
/// virtual references can make the intermediate resolution state
/// quadratically larger than both the container and the final output, so
/// decoding untrusted bytes must bound it.
pub const EXPAND_BUDGET: usize = 1 << 26;

/// Expand virtual nodes back into direct edges, erroring if the memoized
/// resolution state exceeds `max_entries` total node entries.
///
/// Virtual nodes reference each other in both directions — backward to the
/// common sets they were built from, forward when a later mining pass
/// recruits an existing virtual node as a member — so resolution is a
/// memoized depth-first pass. It runs on an explicit stack (no recursion to
/// overflow on deep virtual chains), and a reference cycle — impossible in
/// [`rewire`] output but representable in hostile [`decode`] input — is
/// broken deterministically by treating the back-reference as empty.
pub fn try_expand(
    rewired: &Rewired,
    max_entries: usize,
) -> Result<Vec<Vec<NodeId>>, crate::BaselineError> {
    let n = rewired.original_nodes;
    let total = rewired.adj.len();
    // Resolution state per virtual node: None = untouched, Some(None) = in
    // progress (on the stack), Some(Some(list)) = resolved.
    let mut resolved: Vec<Option<Option<Vec<NodeId>>>> = vec![None; total - n];
    // Total node entries held across memo + output, charged against
    // `max_entries` *before* each list is materialized.
    let mut entries = 0usize;
    let expand_one = |id: usize,
                      resolved: &[Option<Option<Vec<NodeId>>>],
                      entries: &mut usize|
     -> Result<Vec<NodeId>, crate::BaselineError> {
        // Pre-charge the worst-case (pre-dedup) length so a hostile fan-in
        // cannot materialize a huge transient list either.
        let mut len = 0usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "ids come from 0..total ranges or adjacency entries, and decode checks the k²-tree is total×total — so id < total == adj.len() and every virtual index xi - n lands inside `resolved` (len total - n)"
        )]
        let list = &rewired.adj[id];
        for &x in list {
            let xi = x as usize;
            len = len.saturating_add(if xi < n {
                1
            } else {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "xi < total (k²-tree col bound), so xi - n < resolved.len()"
                )]
                match &resolved[xi - n] {
                    Some(Some(sub)) => sub.len(),
                    _ => 0,
                }
            });
        }
        *entries = entries.saturating_add(len);
        if *entries > max_entries {
            return Err(crate::BaselineError::Format(format!(
                "virtual-node expansion exceeds the {max_entries}-entry budget"
            )));
        }
        let mut out = Vec::with_capacity(len);
        for &x in list {
            let xi = x as usize;
            #[expect(
                clippy::indexing_slicing,
                reason = "same bound as the charging loop above — xi < total"
            )]
            if xi < n {
                out.push(x);
            } else if let Some(Some(sub)) = &resolved[xi - n] {
                out.extend_from_slice(sub);
            }
        }
        out.sort_unstable();
        out.dedup();
        *entries -= len - out.len(); // refund what dedup dropped
        Ok(out)
    };
    // Stack entries are either roots from n..total or adjacency entries in
    // n..total (decode's dimension check bounds every entry by total), so
    // every `resolved[… - n]` below stays inside its total - n slots.
    let mut stack: Vec<usize> = Vec::new();
    for root in n..total {
        #[expect(
            clippy::indexing_slicing,
            reason = "root ∈ n..total, so root - n < resolved.len()"
        )]
        if resolved[root - n].is_some() {
            continue;
        }
        stack.push(root);
        while let Some(&id) = stack.last() {
            #[expect(
                clippy::indexing_slicing,
                reason = "stack entries are bounded by total (see above)"
            )]
            if matches!(resolved[id - n], Some(Some(_))) {
                stack.pop();
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "stack entries are bounded by total (see above)"
            )]
            {
                resolved[id - n] = Some(None); // mark in progress
            }
            let mut ready = true;
            #[expect(
                clippy::indexing_slicing,
                reason = "id < total == adj.len() (see above)"
            )]
            for &x in &rewired.adj[id] {
                let xi = x as usize;
                // Untouched virtual dependency: resolve it first. In-progress
                // means a cycle; leave it marked and it contributes nothing.
                #[expect(
                    clippy::indexing_slicing,
                    reason = "xi < total (k²-tree col bound), so xi - n is in range"
                )]
                if xi >= n && resolved[xi - n].is_none() {
                    stack.push(xi);
                    ready = false;
                }
            }
            if ready {
                let out = expand_one(id, &resolved, &mut entries)?;
                #[expect(
                    clippy::indexing_slicing,
                    reason = "stack entries are bounded by total (see above)"
                )]
                {
                    resolved[id - n] = Some(Some(out));
                }
                stack.pop();
            }
        }
    }
    (0..n)
        .map(|v| expand_one(v, &resolved, &mut entries))
        .collect()
}

/// Encoded output: the rewired graph as a k²-tree plus the virtual-node
/// count.
#[derive(Debug, Clone)]
pub struct HnEncoded {
    /// Serialized stream.
    pub bytes: Vec<u8>,
    /// Exact bit length.
    pub bit_len: u64,
    /// Virtual nodes the miner introduced.
    pub virtual_nodes: usize,
}

impl HnEncoded {
    /// Bits per (original) edge.
    pub fn bits_per_edge(&self, edges: usize) -> f64 {
        grepair_util::fmt::bits_per_edge(self.bit_len, edges as u64)
    }
}

/// Full pipeline: mine, rewire, k²-tree encode.
pub fn encode(g: &Hypergraph, params: &HnParams) -> HnEncoded {
    use grepair_bits::codes::write_delta;
    use grepair_bits::BitWriter;
    use grepair_k2tree::K2Tree;

    let rewired = rewire(g, params);
    let total = rewired.adj.len() as u32;
    let mut points = Vec::new();
    for (v, outs) in rewired.adj.iter().enumerate() {
        for &x in outs {
            points.push((v as u32, x));
        }
    }
    let mut w = BitWriter::new();
    write_delta(&mut w, rewired.original_nodes as u64 + 1);
    write_delta(&mut w, (total as usize - rewired.original_nodes) as u64 + 1);
    let tree = K2Tree::build(2, total, total, points);
    tree.encode(&mut w);
    let (bytes, bit_len) = w.finish();
    HnEncoded { bytes, bit_len, virtual_nodes: total as usize - rewired.original_nodes }
}

/// Decode an [`encode`] stream back to the rewired adjacency — the shape
/// the serving layer's HN query engine expands and keeps resident.
///
/// Validates everything the format implies: the tree's dimensions must
/// match the claimed node counts and the total is capped (matching
/// [`crate::k2::MAX_DECODE_NODES`]). Reference cycles among virtual nodes
/// — representable in hostile bytes, never emitted by [`rewire`] — are
/// tolerated downstream: [`expand`] breaks them deterministically.
pub fn decode(bytes: &[u8], bit_len: u64) -> Result<Rewired, crate::BaselineError> {
    use grepair_bits::codes::read_delta;
    use grepair_bits::BitReader;
    use grepair_k2tree::K2Tree;

    let bad = crate::BaselineError::format;
    let mut r = BitReader::new(bytes, bit_len);
    let original = read_delta(&mut r)? - 1;
    let virtual_nodes = read_delta(&mut r)? - 1;
    let total = original.saturating_add(virtual_nodes);
    if total > crate::k2::MAX_DECODE_NODES {
        return Err(bad(format!(
            "node count {total} exceeds the decoder cap ({})",
            crate::k2::MAX_DECODE_NODES
        )));
    }
    let tree = K2Tree::decode(&mut r)?;
    if tree.rows() as u64 != total || tree.cols() as u64 != total {
        return Err(bad(format!(
            "rewired matrix is {}x{}, expected {total}x{total}",
            tree.rows(),
            tree.cols()
        )));
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); total as usize];
    for (row, col) in tree.iter_ones() {
        #[expect(
            clippy::indexing_slicing,
            reason = "iter_ones yields row < rows, checked == total just above"
        )]
        adj[row as usize].push(col);
    }
    Ok(Rewired { adj, original_nodes: original as usize })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn original_adj(g: &Hypergraph) -> Vec<Vec<NodeId>> {
        (0..g.node_bound() as NodeId)
            .map(|v| {
                if g.node_is_alive(v) {
                    let mut outs: Vec<NodeId> = g.out_neighbors(v).collect();
                    outs.sort_unstable();
                    outs.dedup();
                    outs
                } else {
                    Vec::new()
                }
            })
            .collect()
    }

    /// A bipartite core: 20 source nodes all pointing at the same 10
    /// targets — prime material for a virtual node.
    fn biclique() -> Hypergraph {
        let mut triples = Vec::new();
        for s in 0..20u32 {
            for t in 20..30u32 {
                triples.push((s, 0u32, t));
            }
        }
        Hypergraph::from_simple_edges(30, triples).0
    }

    #[test]
    fn biclique_gets_a_virtual_node() {
        let g = biclique();
        let rewired = rewire(&g, &HnParams::default());
        assert!(rewired.adj.len() > 30, "no virtual node created");
        // Rewired edge count must be far below 200.
        let total: usize = rewired.adj.iter().map(Vec::len).sum();
        assert!(total <= 20 + 10 + 5, "rewired edges: {total}");
        // Expansion restores the original adjacency exactly.
        assert_eq!(expand(&rewired), original_adj(&g));
    }

    #[test]
    fn random_graph_round_trips() {
        let mut triples = Vec::new();
        let mut x = 99u64;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((x >> 33) % 60) as u32;
            let t = ((x >> 13) % 60) as u32;
            if s != t {
                triples.push((s, 0u32, t));
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(60, triples);
        let rewired = rewire(&g, &HnParams::default());
        assert_eq!(expand(&rewired), original_adj(&g));
    }

    #[test]
    fn encode_beats_plain_k2_on_dense_substructure() {
        let g = biclique();
        let hn = encode(&g, &HnParams::default());
        let plain = crate::k2::encode(&g);
        assert!(
            hn.bit_len < plain.bit_len,
            "HN {} vs k2 {}",
            hn.bit_len,
            plain.bit_len
        );
        assert!(hn.virtual_nodes >= 1);
    }

    #[test]
    fn empty_graph() {
        let g = Hypergraph::with_nodes(4);
        let enc = encode(&g, &HnParams::default());
        assert_eq!(enc.virtual_nodes, 0);
        assert!(enc.bit_len > 0);
    }

    #[test]
    fn encode_decode_expand_round_trips() {
        for g in [biclique(), Hypergraph::with_nodes(4)] {
            let enc = encode(&g, &HnParams::default());
            let rewired = decode(&enc.bytes, enc.bit_len).unwrap();
            assert_eq!(rewired.original_nodes, g.node_bound());
            assert_eq!(expand(&rewired), original_adj(&g));
        }
    }

    #[test]
    fn decode_rejects_mismatched_geometry() {
        let g = biclique();
        let enc = encode(&g, &HnParams::default());
        // Truncations must error, never panic.
        for bits in [0u64, 1, 5, enc.bit_len / 2] {
            let bytes = &enc.bytes[..(bits as usize).div_ceil(8).min(enc.bytes.len())];
            assert!(decode(bytes, bits).is_err(), "truncated to {bits} bits");
        }
    }

    #[test]
    fn expand_breaks_hostile_cycles() {
        // Two virtual nodes referencing each other — never produced by
        // rewire, but representable in decoded bytes. Expansion must
        // terminate and stay deterministic.
        let rewired = Rewired {
            adj: vec![vec![2], vec![3], vec![0, 3], vec![1, 2]],
            original_nodes: 2,
        };
        let out = expand(&rewired);
        assert_eq!(out.len(), 2);
        // Virtual 2 -> {0} ∪ expand(3); virtual 3 -> {1} ∪ expand(2); the
        // cycle contributes nothing at the point it is re-entered.
        assert!(out[0].contains(&0) || out[0].contains(&1));
    }

    #[test]
    fn try_expand_budget_rejects_hostile_blowup() {
        // A forward chain where each virtual node adds one fresh original:
        // resolved sizes grow linearly, so total memo entries grow
        // quadratically in the number of virtual nodes — far beyond the
        // container or output size. The budget must catch it.
        let n = 64usize;
        let virtuals = 64usize;
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        adj[0] = vec![n as NodeId]; // one original referencing the chain
        for i in 0..virtuals {
            let mut row = vec![(i % n) as NodeId];
            if i + 1 < virtuals {
                row.push((n + i + 1) as NodeId);
            }
            adj.push(row);
        }
        let rewired = Rewired { adj, original_nodes: n };
        let err = try_expand(&rewired, 100).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // A generous budget succeeds and matches the unbounded path.
        assert_eq!(try_expand(&rewired, 1 << 20).unwrap(), expand(&rewired));
    }

    #[test]
    fn deep_virtual_chains_do_not_overflow_the_stack() {
        // A 60k-deep chain of virtual nodes: the old recursive expansion
        // would blow the stack here.
        let n = 1usize;
        let depth = 60_000usize;
        let mut adj = vec![vec![1 as NodeId]]; // original 0 -> first virtual
        for i in 0..depth {
            let next = if i + 1 == depth { 0 } else { (i + 2) as NodeId };
            adj.push(vec![next]);
        }
        let rewired = Rewired { adj, original_nodes: n };
        let out = expand(&rewired);
        assert_eq!(out, vec![vec![0]]);
    }
}
