//! RPQ on the grammar ≡ product BFS on the decompressed graph — the twin of
//! `reach_families.rs`: every `datasets` family the benchmark and `repro`
//! draw from, compressed at three rank bounds, queried the way the
//! benchmark's pools query (the end of a short walk, asked with the walked
//! word, and a uniform target) plus three pattern shapes the pools never
//! send: a star, a plus with an optional tail, and a word that cannot match.

mod common;

use std::collections::HashMap;

use common::{config, families, walk};
use grepair_core::compress;
use grepair_grammar::Grammar;
use grepair_queries::rpq::rpq_on_graph;
use grepair_queries::{Nfa, QueryError, Regex, RpqIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four shapes asked per pair, from the walked labels `l₁ l₂ l₃`: the
/// word itself, `l₁*`, `l₁+ l₂?`, and the word ending in `absent` instead.
fn shapes(labels: &[u32], absent: u32) -> [Regex; 4] {
    let l = |k: usize| Regex::label(*labels.get(k).or(labels.last()).unwrap_or(&0));
    let word = |labels: &[u32]| Regex::cat(labels.iter().map(|&l| Regex::label(l)).collect());
    let mut dead_end = labels.to_vec();
    dead_end.pop();
    dead_end.push(absent);
    [
        word(labels),
        Regex::star(l(0)),
        Regex::cat(vec![Regex::plus(l(0)), Regex::opt(l(1))]),
        word(&dead_end),
    ]
}

/// Compiled plans of one grammar, one per distinct pattern.
struct Plans<'g> {
    grammar: &'g Grammar,
    compiled: HashMap<String, (Nfa, RpqIndex<&'g Grammar>)>,
}

impl<'g> Plans<'g> {
    fn get(&mut self, re: &Regex) -> &(Nfa, RpqIndex<&'g Grammar>) {
        self.compiled.entry(format!("{re:?}")).or_insert_with(|| {
            let nfa = Nfa::from_regex(re);
            (nfa.clone(), RpqIndex::new(self.grammar, nfa))
        })
    }
}

#[test]
fn sampled_pairs_match_the_product_bfs_on_every_family_and_rank() {
    for (family, g) in families(2_400) {
        for max_rank in [2, 4, 8] {
            let out = compress(&g, &config(max_rank));
            let derived = out.grammar.derive();
            let mut plans = Plans { grammar: &out.grammar, compiled: HashMap::new() };
            let n = derived.num_nodes() as u64;
            let absent = out.grammar.num_terminals();
            let mut rng = StdRng::seed_from_u64(max_rank as u64);
            let mut positives = 0;
            for i in 0..2_000u64 {
                let s = rng.gen_range(0..n);
                let (labels, end) = walk(&derived, s as u32, 1 + (i / 2) % 3, &mut rng);
                let t = if i % 2 == 0 { end as u64 } else { rng.gen_range(0..n) };
                for (shape, re) in shapes(&labels, absent).iter().enumerate() {
                    let (nfa, rpq) = plans.get(re);
                    let want = rpq_on_graph(&derived, nfa, s as u32, t as u32);
                    let ctx = format!("{family} max_rank {max_rank}: rpq({s}, {t}, {re:?})");
                    assert_eq!(rpq.try_matches(s, t), Ok(want), "{ctx}");
                    match shape {
                        0 => positives += u64::from(want),
                        3 => assert!(!want, "{ctx}: label {absent} occurs nowhere"),
                        _ => {}
                    }
                    if i % 50 == 0 {
                        // `s == t`: true under `l*`, under the other shapes
                        // only where a cycle spells the pattern.
                        let on_cycle = rpq_on_graph(&derived, nfa, s as u32, s as u32);
                        assert!(on_cycle || shape != 1, "{ctx}: the empty word");
                        assert_eq!(rpq.try_matches(s, s), Ok(on_cycle), "{ctx}, s == t");
                    }
                }
            }
            assert!(positives >= 1_000, "{family}: every walk end matches its own word");
        }
    }
}

#[test]
fn pairs_inside_one_rule_subtree_take_the_shared_levels() {
    for (family, g) in families(2_400) {
        for max_rank in [2, 4, 8] {
            let out = compress(&g, &config(max_rank));
            if out.grammar.height() < 2 {
                continue;
            }
            let derived = out.grammar.derive();
            let mut plans = Plans { grammar: &out.grammar, compiled: HashMap::new() };
            let index = RpqIndex::new(&out.grammar, Nfa::from_regex(&Regex::label(0)));
            let index = index.index();
            // Ids are laid out subtree by subtree: neighbors in id order
            // that share their first hop sit under one edge of S.
            let pairs: Vec<(u64, u64)> = (index.m as u64..index.total_nodes - 1)
                .map(|s| (s, s + 1))
                .filter(|&(s, t)| {
                    let (rs, rt) = (index.locate(s), index.locate(t));
                    rs.hops[0].edge == rt.hops[0].edge && rs.hops.len().max(rt.hops.len()) >= 2
                })
                .take(200)
                .collect();
            assert!(!pairs.is_empty(), "{family} max_rank {max_rank}: no pair at depth 2");
            let mut rng = StdRng::seed_from_u64(max_rank as u64);
            let mut inside_rules = 0;
            for (s, t) in pairs.into_iter().flat_map(|(s, t)| [(s, t), (t, s)]) {
                let (labels, _) = walk(&derived, s as u32, 3, &mut rng);
                for re in &shapes(&labels, out.grammar.num_terminals()) {
                    let (nfa, rpq) = plans.get(re);
                    let want = rpq_on_graph(&derived, nfa, s as u32, t as u32);
                    let (got, work) = rpq.try_matches_counted(s, t).expect("ids are in range");
                    assert_eq!(got, want, "{family} max_rank {max_rank}: rpq({s}, {t}, {re:?})");
                    inside_rules += work.rules;
                }
            }
            assert!(inside_rules > 0, "{family} max_rank {max_rank}: nothing walked in a rule");
        }
    }
}

#[test]
fn out_of_range_ids_error_and_name_s_first() {
    for (family, g) in families(300) {
        let out = compress(&g, &config(4));
        let rpq = RpqIndex::new(&out.grammar, Nfa::from_regex(&Regex::star(Regex::label(0))));
        let n = rpq.index().total_nodes;
        let out_of_range = |id| Err(QueryError::NodeOutOfRange { id, total: n });
        assert_eq!(rpq.try_matches(n, 0), out_of_range(n), "{family}");
        assert_eq!(rpq.try_matches(0, n), out_of_range(n), "{family}");
        assert_eq!(rpq.try_matches(n + 7, n), out_of_range(n + 7), "{family}: s before t");
        assert_eq!(rpq.try_matches(u64::MAX, u64::MAX), out_of_range(u64::MAX), "{family}");
        assert_eq!(rpq.try_matches(n - 1, n - 1), Ok(true), "{family}: the empty word");
    }
}
