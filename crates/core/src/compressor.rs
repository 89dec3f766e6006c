//! The gRePair main loop (§III-A steps 1–8).

use crate::digram::resolve;
use crate::occurrences::{DigramIdx, OccTable};
use crate::provenance::{build_node_map, ProvForest, ProvId};
use crate::prune::prune;
use crate::queue::BucketQueue;
use grepair_grammar::Grammar;
use grepair_hypergraph::order::{compute_order, NodeOrder};
use grepair_hypergraph::traverse::connected_components;
use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};
use std::time::Instant;

/// Tunables of the compressor (§III-B).
#[derive(Debug, Clone, Copy)]
pub struct GRePairConfig {
    /// Maximal rank of a digram / nonterminal (§III-B2). The paper's
    /// evaluation (Table IV) finds 4 a good compromise — the default.
    pub max_rank: usize,
    /// Node order ω steering occurrence counting (§III-B1). Default FP.
    pub order: NodeOrder,
    /// Run the virtual-edge phase on disconnected graphs (§III-A, the extra
    /// step after step 3 — this is what achieves Fig. 13's exponential
    /// compression on unions of copies).
    pub connect_components: bool,
    /// Run the pruning phase (§III-A3).
    pub prune: bool,
    /// Override for |Σ| (terminal labels are then `0..num_terminals`);
    /// derived from the input graph when `None`.
    pub num_terminals: Option<u32>,
}

impl Default for GRePairConfig {
    fn default() -> Self {
        Self {
            max_rank: 4,
            order: NodeOrder::Fp,
            connect_components: true,
            prune: true,
            num_terminals: None,
        }
    }
}

/// Counters describing one compression run.
#[derive(Debug, Clone, Default)]
pub struct CompressStats {
    /// Input |g|V.
    pub input_nodes: usize,
    /// Input terminal edge count.
    pub input_edges: usize,
    /// Input |g|.
    pub input_size: usize,
    /// Digram replacement rounds (steps 3–7 iterations that replaced ≥ 1).
    pub rounds: usize,
    /// Total occurrences replaced.
    pub replacements: usize,
    /// Rules created before pruning.
    pub rules_created: usize,
    /// Rules inlined away by pruning.
    pub rules_pruned: usize,
    /// Final |G|.
    pub grammar_size: usize,
    /// Virtual edges inserted for the disconnected-components phase.
    pub virtual_edges: usize,
    /// Group members linked into the per-node group index or stepped over
    /// by a pairing cursor (both passes). Exact: repeats run to run.
    pub group_edges_scanned: u64,
    /// Candidate edge pairs the greedy pairing produced.
    pub pair_attempts: u64,
    /// Of those, pairs dropped by the rank bounds before canonicalization.
    pub rank_rejects: u64,
    /// Provenance tree nodes touched by pruning.
    pub prov_nodes_visited: u64,
    /// Wall time of [`Compressor::count_all`], both passes, in ms.
    pub count_ms: f64,
    /// Wall time of [`Compressor::replace_to_fixpoint`], both passes.
    pub replace_ms: f64,
    /// Wall time the virtual-edge pass adds around those: inserting the
    /// edges, resetting the occurrence table, stripping them again.
    pub virtual_ms: f64,
    /// In [`Compressor::finish`]: assembling the grammar and pruning it.
    pub prune_ms: f64,
    /// In `finish`: dropping dead rules and canonicalizing the start graph.
    pub canonicalize_ms: f64,
    /// In `finish`: assembling the node map.
    pub node_map_ms: f64,
}

impl CompressStats {
    /// `|G| / |g|` — the paper's compression ratio (§IV-C reports 68 % for
    /// network graphs, 35 % for RDF, 24 % for version graphs).
    pub fn ratio(&self) -> f64 {
        if self.input_size == 0 {
            1.0
        } else {
            self.grammar_size as f64 / self.input_size as f64
        }
    }
}

/// A compressed graph: the grammar plus the ψ′ node map.
#[derive(Debug, Clone)]
pub struct CompressedGraph {
    /// The SL-HR grammar with `val(G)` isomorphic to the input.
    pub grammar: Grammar,
    /// `node_map[derived_id] = input node id`: composing [`Grammar::derive`]
    /// with this map reproduces the input exactly.
    pub node_map: Vec<NodeId>,
    /// Run counters.
    pub stats: CompressStats,
}

/// Compress `input` with `config`. Convenience wrapper around
/// [`Compressor`].
pub fn compress(input: &Hypergraph, config: &GRePairConfig) -> CompressedGraph {
    Compressor::new(input, config).run()
}

/// Staged gRePair compressor. Most callers want [`compress`]; the staged
/// API exists for tests and ablation benchmarks (e.g. skipping the virtual
/// phase or pruning).
pub struct Compressor {
    g: Hypergraph,
    rules: Vec<Hypergraph>,
    num_terminals: u32,
    config: GRePairConfig,
    /// ω-position per node slot (computed once on the input, §III-C1).
    omega_pos: Vec<u32>,
    table: OccTable,
    queue: BucketQueue,
    prov: ProvForest,
    /// `original_id[s_node] = input node id` (identity until pruning inlines
    /// rules into the start graph).
    original_id: Vec<NodeId>,
    /// Alive node IDs of the input (consumed by the debug-build provenance
    /// validation in [`Compressor::finish`]).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    input_nodes: Vec<NodeId>,
    virtual_label: Option<u32>,
    virtual_edge_count: usize,
    stats: CompressStats,
    /// Per node, the attachment positions at which the running
    /// `replace_digram` attached a new nonterminal edge (zero between calls).
    focus: Vec<u32>,
    /// Scratch of `replace_digram`: the nodes with a nonzero `focus`.
    affected: Vec<NodeId>,
    /// Scratch of `replace_digram`: the new edge's attachment.
    att: Vec<NodeId>,
}

/// Milliseconds since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl Compressor {
    /// Set up a compressor over a working copy of `input`.
    pub fn new(input: &Hypergraph, config: &GRePairConfig) -> Self {
        let num_terminals = config.num_terminals.unwrap_or_else(|| {
            input
                .edges()
                .map(|e| match e.label {
                    EdgeLabel::Terminal(t) => t + 1,
                    EdgeLabel::Nonterminal(_) => {
                        panic!("input graphs must be fully terminal")
                    }
                })
                .max()
                .unwrap_or(0)
        });
        let order = compute_order(input, config.order);
        let mut omega_pos = vec![u32::MAX; input.node_bound()];
        for (i, &v) in order.iter().enumerate() {
            omega_pos[v as usize] = i as u32;
        }
        let stats = CompressStats {
            input_nodes: input.num_nodes(),
            input_edges: input.num_edges(),
            input_size: input.total_size(),
            ..Default::default()
        };
        let queue = BucketQueue::new(input.num_edges().max(4));
        Self {
            g: input.clone(),
            rules: Vec::new(),
            num_terminals,
            config: *config,
            omega_pos,
            table: OccTable::for_graph(input),
            queue,
            prov: ProvForest::new(),
            original_id: (0..input.node_bound() as NodeId).collect(),
            input_nodes: input.node_ids().collect(),
            virtual_label: None,
            virtual_edge_count: 0,
            stats,
            focus: vec![0; input.node_bound()],
            affected: Vec::new(),
            att: Vec::new(),
        }
    }

    /// Full pipeline: count, replace to fixpoint, virtual phase, strip,
    /// prune, finish.
    pub fn run(mut self) -> CompressedGraph {
        self.count_all();
        self.replace_to_fixpoint();
        if self.config.connect_components {
            if self.add_virtual_edges() > 0 {
                // Fresh occurrence machinery for the second pass: the virtual
                // edges change externality everywhere.
                self.reset_occurrences();
                self.count_all();
                self.replace_to_fixpoint();
            }
            self.strip_virtual_edges();
        }
        self.finish()
    }

    /// Drop all occurrence bookkeeping (used between the main and the
    /// virtual-edge passes, where externality changes globally).
    pub fn reset_occurrences(&mut self) {
        let start = Instant::now();
        self.table.reset(&self.g);
        self.queue = BucketQueue::new(self.g.num_edges().max(4));
        self.stats.virtual_ms += ms_since(start);
    }

    /// Step 2: initial occurrence counting along ω.
    pub fn count_all(&mut self) {
        let start = Instant::now();
        let mut nodes: Vec<NodeId> = self.g.node_ids().collect();
        nodes.sort_by_key(|&v| self.omega_pos[v as usize]);
        for v in nodes {
            self.table
                .count_at_node(&self.g, v, self.config.max_rank, &mut self.queue);
        }
        self.stats.count_ms += ms_since(start);
    }

    /// Steps 3–7: pop the most frequent digram, replace all its occurrences,
    /// update locally; repeat until no active digram remains.
    pub fn replace_to_fixpoint(&mut self) {
        let start = Instant::now();
        loop {
            let digrams = &self.table.digrams;
            let Some(d) = self
                .queue
                .pop_best(|i| digrams[i as usize].live)
            else {
                break;
            };
            let replaced = self.replace_digram(d);
            if replaced > 0 {
                self.stats.rounds += 1;
                self.stats.replacements += replaced;
            }
        }
        self.stats.replace_ms += ms_since(start);
    }

    /// Steps 4–6 for one digram: replace every (still valid) occurrence by a
    /// fresh-or-reused nonterminal edge, then recount around the touched
    /// nodes.
    fn replace_digram(&mut self, d: DigramIdx) -> usize {
        let sig = self.table.digrams[d as usize].sig;
        let mut next = self.table.drain_digram(d, &mut self.queue);
        let mut replaced = 0usize;
        let mut nt_assigned = self.table.digrams[d as usize].nt;
        let mut affected = std::mem::take(&mut self.affected);
        let mut att = std::mem::take(&mut self.att);

        while let Some(occ_id) = next {
            next = self.table.next_in_digram(occ_id);
            let occ = &mut self.table.occs[occ_id as usize];
            if !occ.alive {
                continue;
            }
            occ.alive = false;
            let [e1, e2] = occ.edges;
            if !self.g.edge_alive(e1) || !self.g.edge_alive(e2) {
                continue;
            }
            // Re-validate against Def. 3: the external-flag context may have
            // drifted since counting (conservatively skip if so).
            let resolved = match resolve(&self.g, e1, e2) {
                Some(resolved) if resolved.sig == sig => resolved,
                _ => {
                    self.table.mark_stale(e1, e2);
                    continue;
                }
            };

            // Allocate the nonterminal and rule on first successful use.
            let nt = *nt_assigned.get_or_insert_with(|| {
                let rhs = sig.to_rhs();
                self.rules.push(rhs);
                self.stats.rules_created += 1;
                (self.rules.len() - 1) as u32
            });

            // Kill every other occurrence using these edges (step 6's
            // decrement), then do the surgery. Provenance: children in rhs
            // edge order (first edge, then second), keeping only
            // nonterminal subtrees.
            let mut children: Vec<ProvId> = Vec::new();
            for e in resolved.edges {
                self.table.kill_edge(&self.g, e, &mut self.queue);
                children.extend(self.prov.take_root(e));
                self.g.remove_edge(e);
            }
            let mut internal_originals: Vec<NodeId> = Vec::new();
            for r in resolved.removal_nodes() {
                debug_assert_eq!(self.g.degree(r), 0, "removal node has other edges");
                internal_originals.push(self.original_id[r as usize]);
                self.g.remove_node(r);
            }
            att.clear();
            att.extend(resolved.attachment_nodes());
            let new_edge = self.g.add_edge(EdgeLabel::Nonterminal(nt), &att);
            self.table.edge_added(&self.g, new_edge);
            // The groups of the new edge are the only ones the update has to
            // pair (§III-A2: new occurrences are the pairs {e', e}).
            for (pos, &node) in att.iter().enumerate() {
                let positions = &mut self.focus[node as usize];
                if *positions == 0 {
                    affected.push(node);
                }
                *positions |= 1 << pos;
            }
            let tree = self.prov.add(nt, internal_originals, children);
            self.prov.set_root(new_edge, tree);
            replaced += 1;
        }

        self.table.digrams[d as usize].nt = nt_assigned;

        // Step 6 continued: recount around the attachment nodes in ω order,
        // restricted to pairs involving the new nonterminal edges.
        affected.sort_by_key(|&v| self.omega_pos[v as usize]);
        for v in affected.drain(..) {
            let positions = std::mem::take(&mut self.focus[v as usize]);
            let (Some(nt), true) = (nt_assigned, self.g.node_is_alive(v)) else { continue };
            self.table.count_at_node_focused(
                &self.g,
                v,
                self.config.max_rank,
                &mut self.queue,
                EdgeLabel::Nonterminal(nt),
                positions,
            );
            #[cfg(debug_assertions)]
            self.table.assert_groups_match(&self.g, v);
        }
        self.affected = affected;
        self.att = att;
        replaced
    }

    /// The extra step after the main loop: chain the connected components
    /// with virtual edges so repeated structure *across* components becomes
    /// compressible. Returns the number of edges added.
    pub fn add_virtual_edges(&mut self) -> usize {
        let start = Instant::now();
        let (comp_ids, count) = connected_components(&self.g);
        if count <= 1 {
            self.stats.virtual_ms += ms_since(start);
            return 0;
        }
        let vlabel = self.num_terminals;
        self.virtual_label = Some(vlabel);
        // Representative = smallest node of each component, chained in
        // component order.
        let mut reps = vec![NodeId::MAX; count];
        for v in self.g.node_ids() {
            let c = comp_ids[v as usize] as usize;
            if reps[c] == NodeId::MAX {
                reps[c] = v;
            }
        }
        for pair in reps.windows(2) {
            self.g.add_edge(EdgeLabel::Terminal(vlabel), &[pair[0], pair[1]]);
        }
        self.virtual_edge_count = count - 1;
        self.stats.virtual_edges = count - 1;
        self.stats.virtual_ms += ms_since(start);
        count - 1
    }

    /// Remove every virtual edge from the start graph and all rules.
    pub fn strip_virtual_edges(&mut self) {
        let Some(vlabel) = self.virtual_label else { return };
        let start = Instant::now();
        let strip = |g: &mut Hypergraph| {
            let victims: Vec<EdgeId> = g
                .edges()
                .filter(|e| e.label == EdgeLabel::Terminal(vlabel))
                .map(|e| e.id)
                .collect();
            for e in victims {
                g.remove_edge(e);
            }
        };
        strip(&mut self.g);
        for rhs in &mut self.rules {
            strip(rhs);
        }
        self.virtual_label = None;
        self.stats.virtual_ms += ms_since(start);
    }

    /// Step 8 + assembly: prune, drop dead rules, renumber, build the node
    /// map.
    pub fn finish(mut self) -> CompressedGraph {
        let start = Instant::now();
        let mut grammar = Grammar::new(self.g, self.num_terminals);
        for rhs in self.rules {
            grammar.add_rule(rhs);
        }
        if self.config.prune {
            self.stats.rules_pruned = prune(&mut grammar, &mut self.prov, &mut self.original_id);
        }
        self.stats.prune_ms = ms_since(start);
        let start = Instant::now();
        // Renumbering relabels nonterminal edges in place (edge IDs — and so
        // the provenance roots — survive).
        let mapping = grammar.drop_unreferenced_rules();
        self.prov.renumber(&mapping);
        canonicalize_start_edges(&mut grammar, &mut self.prov, &mut self.original_id);
        self.stats.canonicalize_ms = ms_since(start);
        // In debug builds, fully validate the provenance forest against the
        // final grammar (shape match + node-map is a permutation of the
        // input's nodes); this is the invariant every lossless guarantee
        // rests on.
        #[cfg(debug_assertions)]
        if let Err(e) = crate::provenance::validate_provenance(
            &grammar,
            &self.original_id,
            &self.prov,
            &self.input_nodes,
        ) {
            panic!("provenance invariant violated: {e}");
        }
        let start = Instant::now();
        let node_map = build_node_map(&grammar, &self.original_id, &self.prov);
        self.stats.node_map_ms = ms_since(start);
        self.stats.grammar_size = grammar.size();
        let work = self.table.work;
        self.stats.group_edges_scanned = work.group_edges_scanned;
        self.stats.pair_attempts = work.pair_attempts;
        self.stats.rank_rejects = work.rank_rejects;
        self.stats.prov_nodes_visited = self.prov.nodes_visited();
        CompressedGraph { grammar, node_map, stats: self.stats }
    }
}

/// Rebuild the start graph with **dense node IDs** (alive nodes ascending —
/// the order `derive` numbers them anyway) and edges in the codec's
/// canonical order (label-major — terminals before nonterminals, ascending
/// index — then lexicographic attachment), remapping provenance roots and the
/// original-ID table accordingly.
///
/// The binary format (§III-C2) stores the start graph as one matrix per
/// label, so a decoded grammar's start edges come back in exactly this
/// order. Canonicalizing *before* the node map is built makes
/// `val(decode(encode(G)))` assign the same node IDs as `val(G)`.
fn canonicalize_start_edges(
    grammar: &mut Grammar,
    prov: &mut ProvForest,
    original_id: &mut Vec<NodeId>,
) {
    let old = &grammar.start;
    // Dense node renumbering: alive ascending ↦ 0..m. This keeps `derive`'s
    // numbering identical while dropping the tombstones left by replacement.
    let mut node_map = vec![NodeId::MAX; old.node_bound()];
    let mut new_original = Vec::with_capacity(old.num_nodes());
    for (dense, v) in old.node_ids().enumerate() {
        node_map[v as usize] = dense as NodeId;
        new_original.push(original_id[v as usize]);
    }
    let mut order: Vec<EdgeId> = old.edges().map(|e| e.id).collect();
    order.sort_by(|&a, &b| {
        (old.label(a), old.att(a)).cmp(&(old.label(b), old.att(b)))
    });
    let mut fresh = Hypergraph::with_nodes(old.num_nodes());
    let mut att_buf: Vec<NodeId> = Vec::new();
    for &e in &order {
        att_buf.clear();
        att_buf.extend(old.att(e).iter().map(|&v| node_map[v as usize]));
        fresh.add_edge(old.label(e), &att_buf);
    }
    // A fresh graph numbers its edges 0, 1, … in insertion order.
    prov.rekey_roots(&order);
    fresh.set_ext(old.ext().iter().map(|&v| node_map[v as usize]).collect());
    grammar.start = fresh;
    *original_id = new_original;
}

#[cfg(test)]
mod tests {
    use super::*;
    

    /// Compress, validate the grammar, derive, and check the derived graph
    /// equals the input exactly under the node map.
    fn check_round_trip(g: &Hypergraph, config: &GRePairConfig) -> CompressedGraph {
        let out = compress(g, config);
        out.grammar.validate().unwrap_or_else(|e| panic!("invalid grammar: {e}"));
        let derived = out.grammar.derive();
        assert_eq!(derived.num_nodes(), g.num_nodes(), "node count");
        assert_eq!(derived.num_edges(), g.num_edges(), "edge count");
        assert_eq!(out.node_map.len(), derived.num_nodes(), "map length");
        assert_eq!(
            derived.edge_multiset_mapped(|v| out.node_map[v as usize]),
            g.edge_multiset(),
            "edge multisets differ"
        );
        out
    }

    fn repeated_pattern(reps: u32) -> Hypergraph {
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        g
    }

    #[test]
    fn empty_graph() {
        let g = Hypergraph::with_nodes(0);
        let out = check_round_trip(&g, &GRePairConfig::default());
        assert_eq!(out.grammar.num_nonterminals(), 0);
    }

    #[test]
    fn edgeless_graph() {
        let g = Hypergraph::with_nodes(5);
        let out = check_round_trip(&g, &GRePairConfig::default());
        assert_eq!(out.node_map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_edge() {
        let (g, _) = Hypergraph::from_simple_edges(2, vec![(0, 0, 1)]);
        check_round_trip(&g, &GRePairConfig::default());
    }

    #[test]
    fn long_repeated_path_compresses() {
        let g = repeated_pattern(64);
        let out = check_round_trip(&g, &GRePairConfig::default());
        assert!(
            out.grammar.size() < g.total_size() / 2,
            "grammar {} vs input {}",
            out.grammar.size(),
            g.total_size()
        );
        assert!(out.stats.rounds >= 1);
    }

    #[test]
    fn all_orders_round_trip() {
        let g = repeated_pattern(20);
        for order in [
            NodeOrder::Natural,
            NodeOrder::Random(42),
            NodeOrder::Bfs,
            NodeOrder::Fp0,
            NodeOrder::Fp,
        ] {
            let config = GRePairConfig { order, ..Default::default() };
            check_round_trip(&g, &config);
        }
    }

    #[test]
    fn all_max_ranks_round_trip() {
        // A grid-ish graph with enough shared structure that rank choices
        // matter.
        let n = 6u32;
        let mut triples = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let id = r * n + c;
                if c + 1 < n {
                    triples.push((id, 0u32, id + 1));
                }
                if r + 1 < n {
                    triples.push((id, 1u32, id + n));
                }
            }
        }
        let (g, _) = Hypergraph::from_simple_edges((n * n) as usize, triples);
        for max_rank in 2..=8 {
            let config = GRePairConfig { max_rank, ..Default::default() };
            check_round_trip(&g, &config);
        }
    }

    #[test]
    fn without_pruning_round_trips() {
        let g = repeated_pattern(32);
        let config = GRePairConfig { prune: false, ..Default::default() };
        let out = check_round_trip(&g, &config);
        let pruned = check_round_trip(&g, &GRePairConfig::default());
        assert!(pruned.grammar.size() <= out.grammar.size());
    }

    #[test]
    fn disconnected_identical_copies_fold_up() {
        // Fig. 13's setup in miniature: disjoint copies of a 4-node,
        // 5-edge graph (directed cycle plus one diagonal).
        let copies = 32u32;
        let mut triples = Vec::new();
        for c in 0..copies {
            let b = 4 * c;
            triples.extend([
                (b, 0u32, b + 1),
                (b + 1, 0, b + 2),
                (b + 2, 0, b + 3),
                (b + 3, 0, b),
                (b, 0, b + 2),
            ]);
        }
        let (g, _) = Hypergraph::from_simple_edges(4 * copies as usize, triples);
        let out = check_round_trip(&g, &GRePairConfig::default());
        // The virtual-edge phase must fold the copies: far fewer than one
        // size unit per copy remains.
        assert!(
            out.grammar.size() < g.total_size() / 4,
            "grammar {} vs input {}",
            out.grammar.size(),
            g.total_size()
        );
        assert!(out.stats.virtual_edges > 0);

        // Without the virtual phase the copies cannot reference each other.
        let config = GRePairConfig { connect_components: false, ..Default::default() };
        let unconnected = check_round_trip(&g, &config);
        assert!(unconnected.grammar.size() > out.grammar.size());
    }

    #[test]
    fn star_graph_round_trips() {
        // One hub with many same-label out-edges: the RDF "types" shape.
        let n = 50u32;
        let (g, _) =
            Hypergraph::from_simple_edges(n as usize + 1, (1..=n).map(|i| (0u32, 0u32, i)));
        let out = check_round_trip(&g, &GRePairConfig::default());
        assert!(out.grammar.size() < g.total_size());
    }

    #[test]
    fn dense_clique_round_trips() {
        let n = 12u32;
        let mut triples = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    triples.push((i, 0u32, j));
                }
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(n as usize, triples);
        check_round_trip(&g, &GRePairConfig::default());
    }

    #[test]
    fn multi_label_graph_round_trips() {
        let mut triples = Vec::new();
        let mut x = 12345u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = (x >> 33) % 40;
            let t = (x >> 13) % 40;
            let l = (x >> 5) % 6;
            if s != t {
                triples.push((s as u32, l as u32, t as u32));
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(40, triples);
        check_round_trip(&g, &GRePairConfig::default());
    }

    #[test]
    fn stats_are_plausible() {
        let g = repeated_pattern(64);
        let out = compress(&g, &GRePairConfig::default());
        assert_eq!(out.stats.input_nodes, 129);
        assert_eq!(out.stats.input_edges, 128);
        assert!(out.stats.replacements > 0);
        assert!(out.stats.ratio() < 1.0);
        assert_eq!(out.stats.grammar_size, out.grammar.size());
    }

    #[test]
    fn node_map_is_a_permutation() {
        let g = repeated_pattern(32);
        let out = compress(&g, &GRePairConfig::default());
        let mut sorted = out.node_map.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), g.num_nodes());
    }

    #[test]
    fn explicit_alphabet_override() {
        let (g, _) = Hypergraph::from_simple_edges(4, vec![(0, 0, 1), (2, 0, 3)]);
        let config = GRePairConfig { num_terminals: Some(10), ..Default::default() };
        let out = compress(&g, &config);
        assert_eq!(out.grammar.num_terminals(), 10);
        out.grammar.validate().unwrap();
    }
}
