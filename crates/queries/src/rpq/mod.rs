//! Regular path queries (RPQs) over the grammar — the paper's stated
//! future work ("In the future we want to find more query classes with this
//! property (e.g., regular path queries)").
//!
//! An RPQ asks: is there a directed path from `s` to `t` whose edge-label
//! word belongs to a regular language? The grammar-side evaluation
//! generalizes Theorem 6's skeletons to an automaton product: for every
//! nonterminal `A` and NFA `M` we precompute the relation
//!
//! > `R_A ⊆ (ext × Q) × (ext × Q)`:  ((i, q), (j, q')) ∈ R_A iff inside
//! > `val(A)` there is a path from external node i to external node j whose
//! > label word drives `M` from state q to state q'.
//!
//! bottom-up in one pass (each rule's product graph uses the nested
//! nonterminals' relations instead of expanding them), in both directions.
//! What does not depend on the pattern — the navigation index and a
//! label-indexed adjacency of S and every right-hand side — is one
//! [`RpqShared`] that any number of compiled patterns point at; its index
//! can itself be the one a [`crate::ReachIndex`] built.
//!
//! A query locates both endpoints, as reachability does (each locate is the
//! hops of its derivation path), closes each endpoint alone inside the
//! right-hand sides only it is in and lifts what reaches an external node;
//! at every rule level both are in, both are closed, tested for a common
//! configuration and lifted together.
//! The start graph — where almost all of a poorly compressible graph lives —
//! is not closed over: a forward and a backward search advance alternately,
//! always the side whose *work so far + cost of its next pop* is smaller,
//! until both have seen one configuration or either side runs dry (it then
//! holds its whole closure and the other side's seeds were there to be met:
//! no meeting proves *false*). A pop is charged the adjacency entries it is
//! offered, so S costs at most twice what the cheaper side costs alone
//! (DESIGN.md §3.2 has the argument). Counted per query ([`RpqWork`]) on the
//! words of 2-step walks, `hub_network(n, 24, 1, 2)`, half of the targets
//! the walk's end and half uniform (`crates/queries/tests/scaling.rs`):
//!
//! | entries offered per query | in rules | in S, two-sided | forward alone | backward alone |
//! |---|---|---|---|---|
//! | n = 2 500 | 1.70 | 2.24 | 8.49 | 12.80 |
//! | n = 10 000 | 1.88 | 4.56 | 23.76 | 45.12 |
//!
//! Plain (s,t)-reachability is exactly the RPQ for the one-state NFA that
//! loops on every label — a differential test below exploits that.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::adjacency::{label_run, Adjacency, Rows};
use crate::error::QueryError;
use crate::index::{GrammarIndex, Hop};
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeLabel, Hypergraph, NodeId};
use grepair_util::FxHashSet;

mod nfa;
pub use nfa::{Nfa, Regex};

/// What every compiled pattern over one grammar shares: the navigation
/// index and the label-indexed adjacency of S and of every right-hand side.
#[derive(Debug)]
pub struct RpqShared<G: Borrow<Grammar>> {
    index: Arc<GrammarIndex<G>>,
    start: Adjacency,
    rules: Vec<Adjacency>,
}

impl<G: Borrow<Grammar>> RpqShared<G> {
    /// Index the grammar and lay out every context graph — O(|G| log |G|).
    pub fn new(grammar: G) -> Self {
        Self::with_index(Arc::new(GrammarIndex::new(grammar)))
    }

    /// Lay out every context graph of the grammar `index` navigates, and
    /// navigate by that index (a [`crate::ReachIndex`]'s, say) rather than
    /// a second one.
    pub fn with_index(index: Arc<GrammarIndex<G>>) -> Self {
        let g = index.grammar();
        let (start, rules) = (Adjacency::new(&g.start), g.rules().iter().map(Adjacency::new).collect());
        Self { index, start, rules }
    }
}

/// What one query did, returned by value from
/// [`RpqIndex::try_matches_counted`]: adjacency entries offered to popped
/// configurations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpqWork {
    /// Inside right-hand sides (private closures and shared levels).
    pub rules: u64,
    /// In the start graph, both sides of the search together.
    pub start: u64,
}

/// Compiled RPQ evaluator for one grammar and one NFA: the pattern's
/// relations over an [`RpqShared`].
#[derive(Debug)]
pub struct RpqIndex<G: Borrow<Grammar>> {
    shared: Arc<RpqShared<G>>,
    nfa: Nfa,
    /// First relation cell of each nonterminal; the cell of external
    /// position `i` in state `q` is `base[A] + i * |Q| + q`.
    base: Vec<usize>,
    /// Per cell `(i, q)` of `A`: the `(j, q')` reachable from it within
    /// `val(A)`, and — second table — the `(j, q')` that reach it.
    relations: [Rows<(u8, u32)>; 2],
    /// Adjacency entries the compile's closures were offered.
    compile_work: u64,
}

/// A (node, state) pair in some context graph.
type Config = (NodeId, u32);

/// One direction of a search: the configurations seen, those still to pop,
/// and the adjacency entries booked so far.
#[derive(Default)]
struct Side {
    seen: FxHashSet<Config>,
    queue: Vec<Config>,
    work: u64,
}

impl Side {
    fn new(seeds: impl IntoIterator<Item = Config>) -> Self {
        let mut side = Side::default();
        for cfg in seeds {
            if side.seen.insert(cfg) {
                side.queue.push(cfg);
            }
        }
        side
    }
}

/// The product of one context graph with the NFA, walked in one direction,
/// nested nonterminals standing in through their relations.
struct Walk<'a> {
    graph: &'a Hypergraph,
    adj: &'a Adjacency,
    nfa: &'a Nfa,
    base: &'a [usize],
    cells: &'a Rows<(u8, u32)>,
    backward: bool,
}

impl Walk<'_> {
    /// Offer `(n, state)` its label runs — one per transition of `state` in
    /// the walk's direction — and its nonterminal runs whose relation cell is
    /// not empty, each as its length in adjacency entries and the
    /// configurations it leads to. A state without transitions reads nothing
    /// from the terminal row.
    fn runs(&self, (n, state): Config, mut offer: impl FnMut(u64, &mut dyn Iterator<Item = Config>)) {
        let row = self.adj.terminals(n, self.backward);
        for &(label, next) in self.nfa.row(state, self.backward) {
            let run = label_run(row, label);
            offer(run.len() as u64, &mut run.iter().map(|&(_, m)| (m, next)));
        }
        let q = self.nfa.num_states() as usize;
        let (runs, mut edges) = self.adj.nonterminals(n);
        for &(nt, pos, len) in runs {
            let (run, rest) = edges.split_at(len as usize);
            edges = rest;
            let cell = self.cells.row(self.base[nt as usize] + pos as usize * q + state as usize);
            if !cell.is_empty() {
                let through = |&e| {
                    let att = self.graph.att(e);
                    cell.iter().map(move |&(j, state)| (att[j as usize], state))
                };
                offer(len as u64, &mut run.iter().flat_map(through));
            }
        }
    }

    /// The entries the next pop of `side` will be offered, `None` when the
    /// side has run dry.
    fn next_cost(&self, side: &Side) -> Option<u64> {
        let mut cost = 0;
        self.runs(*side.queue.last()?, |len, _| cost += len);
        Some(cost)
    }

    /// The one search step: pop a configuration of `side`, offer it its
    /// runs, book every entry offered as work and queue what is new. True as
    /// soon as something new is in `other`; the rest of the pop is still
    /// booked, so a pop costs what [`Walk::next_cost`] said.
    fn advance(&self, side: &mut Side, other: &FxHashSet<Config>) -> bool {
        let Some(cfg) = side.queue.pop() else { return false };
        let Side { seen, queue, work } = side;
        let mut visit = |cfg: Config| {
            let new = seen.insert(cfg);
            if new {
                queue.push(cfg);
            }
            new && other.contains(&cfg)
        };
        let mut met = false;
        self.runs(cfg, |len, targets| {
            *work += len;
            while !met {
                let Some(cfg) = targets.next() else { break };
                met = visit(cfg);
            }
        });
        met
    }

    /// Advance `side` until it runs dry: its closure in this context.
    fn close(&self, side: &mut Side) {
        while !side.queue.is_empty() {
            self.advance(side, &FxHashSet::default());
        }
    }
}

impl<G: Borrow<Grammar>> RpqIndex<G> {
    /// Build the shared part, then the plan over it.
    pub fn new(grammar: G, nfa: Nfa) -> Self {
        Self::over(Arc::new(RpqShared::new(grammar)), nfa)
    }

    /// Compile `nfa` over an existing shared part: the per-nonterminal
    /// relations bottom-up, one rule-sized closure per (external node,
    /// state) — O(#rules · rank · |Q|) closures — then their transpose.
    pub fn over(shared: Arc<RpqShared<G>>, nfa: Nfa) -> Self {
        let g = shared.index.grammar();
        let q = nfa.num_states() as usize;
        let mut base = vec![0; g.num_nonterminals()];
        let mut forward = Rows::new();
        let (mut cells, mut transposed, mut compile_work) = (0, Vec::new(), 0);
        for nt in g.topo_order_bottom_up().expect("grammar must be straight-line") {
            base[nt as usize] = cells;
            let (graph, adj) = (g.rule(nt), &shared.rules[nt as usize]);
            let position = |n| graph.ext().iter().position(|&x| x == n);
            for (i, &x) in graph.ext().iter().enumerate() {
                for state in 0..q as u32 {
                    let mut side = Side::new([(x, state)]);
                    Walk { graph, adj, nfa: &nfa, base: &base, cells: &forward, backward: false }
                        .close(&mut side);
                    compile_work += side.work;
                    let mut row: Vec<(u8, u32)> = side
                        .seen
                        .iter()
                        .filter_map(|&(n, qn)| position(n).map(|j| (j as u8, qn)))
                        .filter(|&cell| cell != (i as u8, state))
                        .collect();
                    row.sort_unstable();
                    transposed.extend(
                        row.iter().map(|&(j, qn)| (cells + j as usize * q + qn as usize, (i as u8, state))),
                    );
                    forward.push_row(row);
                }
            }
            cells += graph.rank() * q;
        }
        transposed.sort_unstable();
        let backward = Rows::from_sorted(cells, transposed);
        Self { shared, nfa, base, relations: [forward, backward], compile_work }
    }

    /// The compile's counted work: adjacency entries its closures were
    /// offered, summed — what a pattern's size costs before any query.
    pub fn compile_work(&self) -> u64 {
        self.compile_work
    }

    /// The navigation index.
    pub fn index(&self) -> &GrammarIndex<G> {
        &self.shared.index
    }

    /// Is there a path from `val(G)` node `s` to node `t` whose label word
    /// is accepted by the NFA? (The empty word counts when `s == t` and the
    /// start state accepts.) Panics on an out-of-range id;
    /// [`RpqIndex::try_matches`] is the checked variant.
    pub fn matches(&self, s: u64, t: u64) -> bool {
        self.try_matches(s, t).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`RpqIndex::matches`], but out-of-range ids return an error
    /// naming the valid range instead of panicking.
    pub fn try_matches(&self, s: u64, t: u64) -> Result<bool, QueryError> {
        self.try_matches_counted(s, t).map(|(answer, _)| answer)
    }

    /// [`RpqIndex::try_matches`] together with the work the query did.
    pub fn try_matches_counted(&self, s: u64, t: u64) -> Result<(bool, RpqWork), QueryError> {
        self.search(s, t, |forward, backward| forward <= backward)
    }

    /// The query. In the start graph the next pop goes to the forward side
    /// when `forward_next(its work + next cost, the backward side's)` says so.
    fn search(
        &self,
        s: u64,
        t: u64,
        forward_next: impl Fn(u64, u64) -> bool,
    ) -> Result<(bool, RpqWork), QueryError> {
        let index = &self.shared.index;
        // Locate both ids (`s` first, so it is the one reported when both
        // are out of range) before any search runs: a hostile id costs two
        // lookups.
        let (rs, rt) = (index.try_locate(s)?, index.try_locate(t)?);
        let common = rs.hops.iter().zip(&rt.hops).take_while(|(a, b)| a.edge == b.edge).count();
        let mut fwd = Side::new(self.nfa.start_states().iter().map(|&q| (rs.node, q)));
        let mut bwd = Side::new(self.nfa.accept_states().iter().map(|&q| (rt.node, q)));
        // Each endpoint on its own up to the deepest context both are in …
        for hop in rs.hops[common..].iter().rev() {
            self.walk(Some(hop.nt), false).close(&mut fwd);
            fwd = self.lift(hop, &fwd);
        }
        for hop in rt.hops[common..].iter().rev() {
            self.walk(Some(hop.nt), true).close(&mut bwd);
            bwd = self.lift(hop, &bwd);
        }
        // … then level by level together, testing before every step up: a
        // path exists iff some shared level holds a common configuration.
        let meet = |fwd: &Side, bwd: &Side| bwd.seen.iter().any(|cfg| fwd.seen.contains(cfg));
        for hop in rs.hops[..common].iter().rev() {
            self.walk(Some(hop.nt), false).close(&mut fwd);
            self.walk(Some(hop.nt), true).close(&mut bwd);
            if meet(&fwd, &bwd) {
                return Ok((true, RpqWork { rules: fwd.work + bwd.work, start: 0 }));
            }
            (fwd, bwd) = (self.lift(hop, &fwd), self.lift(hop, &bwd));
        }
        // In the start graph neither side is closed: the cheaper next step
        // goes first until the sides meet or one of them has nothing left.
        let rules = std::mem::take(&mut fwd.work) + std::mem::take(&mut bwd.work);
        let (forward, backward) = (self.walk(None, false), self.walk(None, true));
        let mut met = meet(&fwd, &bwd);
        let mut costs = (forward.next_cost(&fwd), backward.next_cost(&bwd));
        while let (false, (Some(f), Some(b))) = (met, costs) {
            if forward_next(fwd.work + f, bwd.work + b) {
                met = forward.advance(&mut fwd, &bwd.seen);
                costs.0 = forward.next_cost(&fwd);
            } else {
                met = backward.advance(&mut bwd, &fwd.seen);
                costs.1 = backward.next_cost(&bwd);
            }
        }
        Ok((met, RpqWork { rules, start: fwd.work + bwd.work }))
    }

    /// The product walk of `rhs(nt)` (`None`: of the start graph).
    fn walk(&self, nt: Option<u32>, backward: bool) -> Walk<'_> {
        let g = self.shared.index.grammar();
        let (graph, adj) = match nt {
            Some(nt) => (g.rule(nt), &self.shared.rules[nt as usize]),
            None => (&g.start, &self.shared.start),
        };
        let cells = &self.relations[backward as usize];
        Walk { graph, adj, nfa: &self.nfa, base: &self.base, cells, backward }
    }

    /// Carry a side closed inside `rhs(hop.nt)` one level up through the
    /// hop's edge: an external node seen in some state becomes the
    /// attachment node it merges with, in that state. The work travels along.
    fn lift(&self, hop: &Hop, side: &Side) -> Side {
        let ext = self.shared.index.grammar().rule(hop.nt).ext();
        let up = side.seen.iter().filter_map(|&(n, state)| {
            ext.iter().position(|&x| x == n).map(|pos| (hop.att[pos], state))
        });
        Side { work: side.work, ..Side::new(up) }
    }
}

/// Oracle: RPQ evaluation on a plain graph via BFS over the product space.
pub fn rpq_on_graph(g: &Hypergraph, nfa: &Nfa, s: NodeId, t: NodeId) -> bool {
    if s == t && nfa.start_states().iter().any(|&q| nfa.is_accepting(q)) {
        return true;
    }
    let mut seen: FxHashSet<Config> = FxHashSet::default();
    let mut queue: Vec<Config> = Vec::new();
    for &q in nfa.start_states() {
        seen.insert((s, q));
        queue.push((s, q));
    }
    while let Some((n, state)) = queue.pop() {
        for e in g.incident(n) {
            let att = g.att(e);
            if att.len() != 2 || att[0] != n {
                continue;
            }
            let EdgeLabel::Terminal(label) = g.label(e) else { continue };
            for q2 in nfa.step(state, label) {
                let cfg = (att[1], q2);
                if cfg.0 == t && nfa.is_accepting(q2) {
                    return true;
                }
                if seen.insert(cfg) {
                    queue.push(cfg);
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_core::{compress, GRePairConfig};

    fn check_all_pairs(g: &Hypergraph, nfa: &Nfa) {
        let out = compress(g, &GRePairConfig::default());
        let derived = out.grammar.derive();
        let rpq = RpqIndex::new(&out.grammar, nfa.clone());
        // Map val-node → input-node to query the oracle on the input graph.
        for s in 0..derived.num_nodes() as u64 {
            for t in 0..derived.num_nodes() as u64 {
                let want = rpq_on_graph(
                    &derived,
                    nfa,
                    s as NodeId,
                    t as NodeId,
                );
                assert_eq!(rpq.matches(s, t), want, "rpq({s},{t})");
            }
        }
    }

    /// The repeated a·b path: (ab)^n.
    fn ab_path(reps: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        )
        .0
    }

    #[test]
    fn word_query_on_folded_path() {
        // L = a·b : exactly one pattern repetition.
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::label(0), Regex::label(1)]));
        check_all_pairs(&ab_path(12), &nfa);
    }

    #[test]
    fn star_query_matches_plain_reachability() {
        // L = (a|b)* : RPQ == reachability; differential against ReachIndex.
        let g = ab_path(16);
        let nfa = Nfa::from_regex(&Regex::star(Regex::alt(vec![
            Regex::label(0),
            Regex::label(1),
        ])));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        let reach = crate::ReachIndex::new(&out.grammar);
        let n = out.grammar.derive().num_nodes() as u64;
        for s in (0..n).step_by(3) {
            for t in (0..n).step_by(3) {
                assert_eq!(rpq.matches(s, t), reach.reachable(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn alternation_and_plus() {
        // L = a+ over a graph with both a- and b-paths.
        let (g, _) = Hypergraph::from_simple_edges(
            6,
            vec![(0u32, 0u32, 1u32), (1, 0, 2), (2, 1, 3), (3, 0, 4), (0, 1, 5)],
        );
        let nfa = Nfa::from_regex(&Regex::plus(Regex::label(0)));
        check_all_pairs(&g, &nfa);
    }

    #[test]
    fn empty_word_semantics() {
        let g = ab_path(4);
        // L = a* accepts ε: every node matches itself.
        let nfa = Nfa::from_regex(&Regex::star(Regex::label(0)));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        assert!(rpq.matches(3, 3));
        // L = a·a does not accept ε.
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::label(0), Regex::label(0)]));
        let out = compress(&g, &GRePairConfig::default());
        let rpq = RpqIndex::new(&out.grammar, nfa);
        assert!(!rpq.matches(3, 3));
    }

    #[test]
    fn try_matches_agrees_with_the_oracle_and_reports_s_first() {
        let g = ab_path(8);
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::star(Regex::label(0)),
            Regex::label(1),
        ]));
        let out = compress(&g, &GRePairConfig::default());
        let derived = out.grammar.derive();
        let rpq = RpqIndex::new(&out.grammar, nfa.clone());
        let n = derived.num_nodes() as u64;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(
                    rpq.try_matches(s, t),
                    Ok(rpq_on_graph(&derived, &nfa, s as NodeId, t as NodeId)),
                    "({s},{t})"
                );
            }
        }
        // Out-of-range ids error instead of panicking, `s` first.
        let out_of_range = |id| Err(QueryError::NodeOutOfRange { id, total: n });
        assert_eq!(rpq.try_matches(0, n), out_of_range(n));
        assert_eq!(rpq.try_matches(n, 0), out_of_range(n));
        assert_eq!(rpq.try_matches(n + 1, n + 2), out_of_range(n + 1));
    }

    #[test]
    fn cycle_queries() {
        // Directed 2-colored cycle: paths wrap around.
        let (g, _) = Hypergraph::from_simple_edges(
            8,
            (0..8u32).map(|i| (i, i % 2, (i + 1) % 8)),
        );
        let nfa = Nfa::from_regex(&Regex::star(Regex::cat(vec![
            Regex::label(0),
            Regex::label(1),
        ])));
        check_all_pairs(&g, &nfa);
    }

    #[test]
    fn optional_segments() {
        let (g, _) = Hypergraph::from_simple_edges(
            5,
            vec![(0u32, 0u32, 1u32), (1, 1, 2), (2, 0, 3), (0, 0, 4)],
        );
        // L = a·b?·a
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::label(0),
            Regex::opt(Regex::label(1)),
            Regex::label(0),
        ]));
        check_all_pairs(&g, &nfa);
    }

    /// The 2·min bound of the module docs, per query: the two-sided search
    /// of S against the same search with either side pinned.
    #[test]
    fn two_sided_search_costs_at_most_twice_the_cheaper_side() {
        use grepair_datasets::{network::hub_network, rdf::property_graph};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(20);
        for (g, queries) in [
            (hub_network(2_500, 24, 1, 2), 3_000u64),
            (property_graph(1_200, 24, 8, 240, 2), 1_500),
        ] {
            let out = compress(&g, &GRePairConfig::default());
            let derived = out.grammar.derive();
            let shared = Arc::new(RpqShared::new(&out.grammar));
            let mut plans = std::collections::HashMap::new();
            let n = derived.num_nodes() as u32;
            let out_row = |v: NodeId| -> Vec<_> {
                derived.incident(v).filter(|&e| derived.att(e)[0] == v).collect()
            };
            let mut totals = [0u64; 3];
            for i in 0..queries {
                // As the benchmark's pools draw: from a node with an
                // out-edge, the word of a 2- or 3-step walk, to the walk's
                // end or to a uniform target.
                let drawn = rng.gen_range(0..n);
                let s = (0..n).map(|k| (drawn + k) % n).find(|&v| !out_row(v).is_empty()).unwrap();
                let (mut at, mut word) = (s, Vec::new());
                for _ in 0..2 + i % 2 {
                    let row = out_row(at);
                    if row.is_empty() {
                        break;
                    }
                    let e = derived.edge(row[rng.gen_range(0..row.len())]);
                    word.push(e.label.index());
                    at = e.att[1];
                }
                let t = if i % 4 < 2 { at } else { rng.gen_range(0..n) };
                let (nfa, plan) = plans.entry(word).or_insert_with_key(|word| {
                    let re = Regex::cat(word.iter().map(|&l| Regex::label(l)).collect());
                    let nfa = Nfa::from_regex(&re);
                    (nfa.clone(), RpqIndex::over(shared.clone(), nfa))
                });
                let want = rpq_on_graph(&derived, nfa, s, t);
                let (s, t) = (s as u64, t as u64);
                let both = plan.try_matches_counted(s, t).unwrap();
                let forward = plan.search(s, t, |_, _| true).unwrap();
                let backward = plan.search(s, t, |_, _| false).unwrap();
                for (side, (got, work)) in [both, forward, backward].into_iter().enumerate() {
                    assert_eq!(got, want, "rpq({s}, {t}), side {side}");
                    assert_eq!(work.rules, both.1.rules, "only the search of S differs");
                    totals[side] += work.start;
                }
                let cheaper = forward.1.start.min(backward.1.start);
                assert!(
                    both.1.start <= 2 * cheaper,
                    "rpq({s}, {t}): {} entries two-sided, {cheaper} on the cheaper side alone",
                    both.1.start
                );
            }
            assert!(totals[0] <= totals[1] && totals[0] <= totals[2], "{totals:?}");
        }
    }
}
