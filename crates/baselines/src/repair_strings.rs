//! Classical string RePair (Larsson & Moffat \[15\]) and its application to
//! adjacency lists (Claude & Navarro \[19\]).
//!
//! RePair repeatedly replaces the most frequent pair of adjacent symbols
//! with a fresh symbol until every pair is unique. This implementation uses
//! the standard machinery: a doubly-linked symbol sequence, per-pair
//! occurrence lists with lazy invalidation, and a max-heap of pair counts —
//! O((n + #replacements) log n) overall.
//!
//! Besides serving as the \[19\] baseline (`encode_graph`), string RePair is
//! used by the test suite to check the paper's closing claim that *gRePair
//! on string-shaped graphs obtains similar compression to string RePair*.

// The kernel is a doubly-linked-list pair-replacement loop whose
// sym/alive/next/prev arrays share one length and whose indices are the
// list invariants; per-site audits would drown the algorithm. The grammar
// is only ever built by repair() from the encoder's own sequence: there is
// no decode-from-bytes path into StringGrammar.
#![expect(
    clippy::indexing_slicing,
    reason = "linked-list kernel invariants; no untrusted decode path into StringGrammar"
)]

use grepair_hypergraph::Hypergraph;
use grepair_util::FxHashMap;
use std::collections::BinaryHeap;

/// A string RePair grammar: `rules[i]` expands symbol `alphabet + i`.
#[derive(Debug, Clone)]
pub struct StringGrammar {
    /// Input alphabet size.
    pub alphabet: u32,
    /// Pair rules, in creation order.
    pub rules: Vec<(u32, u32)>,
    /// The residual (compressed) sequence.
    pub sequence: Vec<u32>,
}

impl StringGrammar {
    /// Expand back to the original sequence.
    pub fn expand(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for &s in &self.sequence {
            self.expand_symbol(s, &mut out);
        }
        out
    }

    fn expand_symbol(&self, s: u32, out: &mut Vec<u32>) {
        if s < self.alphabet {
            out.push(s);
        } else {
            let (a, b) = self.rules[(s - self.alphabet) as usize];
            self.expand_symbol(a, out);
            self.expand_symbol(b, out);
        }
    }

    /// Size estimate in bits: every rule is two symbols, plus the residual
    /// sequence, all at ⌈log₂(alphabet + #rules)⌉ bits per symbol.
    pub fn size_bits(&self) -> u64 {
        let symbols = self.alphabet as u64 + self.rules.len() as u64;
        let width = grepair_bits::codes::ceil_log2(symbols.max(2)) as u64;
        (2 * self.rules.len() as u64 + self.sequence.len() as u64) * width
    }
}

/// Run RePair on `input` over alphabet `0..alphabet`.
pub fn repair(input: &[u32], alphabet: u32) -> StringGrammar {
    let n = input.len();
    let mut sym: Vec<u32> = input.to_vec();
    let mut alive = vec![true; n];
    let mut next: Vec<usize> = (0..n).map(|i| i + 1).collect();
    let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();

    // Pair bookkeeping: live counts + occurrence position lists (lazily
    // validated) + a lazy max-heap.
    let mut counts: FxHashMap<(u32, u32), usize> = FxHashMap::default();
    let mut positions: FxHashMap<(u32, u32), Vec<usize>> = FxHashMap::default();
    let mut heap: BinaryHeap<(usize, (u32, u32))> = BinaryHeap::new();

    let add_pair = |counts: &mut FxHashMap<(u32, u32), usize>,
                        positions: &mut FxHashMap<(u32, u32), Vec<usize>>,
                        heap: &mut BinaryHeap<(usize, (u32, u32))>,
                        pair: (u32, u32),
                        pos: usize| {
        let c = counts.entry(pair).or_insert(0);
        *c += 1;
        positions.entry(pair).or_default().push(pos);
        if *c >= 2 {
            heap.push((*c, pair));
        }
    };

    for i in 0..n.saturating_sub(1) {
        add_pair(&mut counts, &mut positions, &mut heap, (sym[i], sym[i + 1]), i);
    }

    let mut rules: Vec<(u32, u32)> = Vec::new();

    while let Some((claimed, pair)) = heap.pop() {
        let live = counts.get(&pair).copied().unwrap_or(0);
        if live < 2 || claimed != live {
            continue; // stale heap entry
        }
        let new_sym = alphabet + rules.len() as u32;
        rules.push(pair);
        let occ_list = positions.remove(&pair).unwrap_or_default();
        counts.remove(&pair);
        for pos in occ_list {
            // Validate: both symbols still alive and forming `pair`.
            if !alive.get(pos).copied().unwrap_or(false) || sym[pos] != pair.0 {
                continue;
            }
            let right = next[pos];
            if right >= n || !alive[right] || sym[right] != pair.1 {
                continue;
            }
            // Decrement the overlapping neighbor pairs.
            let left = prev[pos];
            if left != usize::MAX && alive.get(left).copied().unwrap_or(false) {
                let lp = (sym[left], sym[pos]);
                if lp != pair {
                    if let Some(c) = counts.get_mut(&lp) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
            let right2 = next[right];
            if right2 < n && alive[right2] {
                let rp = (sym[right], sym[right2]);
                if rp != pair {
                    if let Some(c) = counts.get_mut(&rp) {
                        *c = c.saturating_sub(1);
                    }
                }
            }
            // Replace: pos becomes new_sym, right dies.
            sym[pos] = new_sym;
            alive[right] = false;
            next[pos] = right2;
            if right2 < n {
                prev[right2] = pos;
            }
            // New neighbor pairs.
            if left != usize::MAX && alive.get(left).copied().unwrap_or(false) {
                add_pair(&mut counts, &mut positions, &mut heap, (sym[left], new_sym), left);
            }
            if right2 < n && alive[right2] {
                add_pair(&mut counts, &mut positions, &mut heap, (new_sym, sym[right2]), pos);
            }
        }
    }

    let sequence: Vec<u32> = (0..n).filter(|&i| alive[i]).map(|i| sym[i]).collect();
    StringGrammar { alphabet, rules, sequence }
}

/// Build the adjacency-list sequence of \[19\]: for every node with
/// out-edges, a marker symbol `n + v` followed by the sorted out-neighbors.
pub fn adjacency_sequence(g: &Hypergraph) -> (Vec<u32>, u32) {
    let n = g.node_bound() as u32;
    let mut seq = Vec::new();
    for v in g.node_ids() {
        let mut outs: Vec<u32> = g.out_neighbors(v).collect();
        if outs.is_empty() {
            continue;
        }
        outs.sort_unstable();
        outs.dedup();
        seq.push(n + v);
        seq.extend(outs);
    }
    (seq, 2 * n)
}

/// The \[19\] baseline: RePair over the adjacency sequence; returns the
/// grammar and its size estimate in bits.
pub fn encode_graph(g: &Hypergraph) -> (StringGrammar, u64) {
    let (seq, alphabet) = adjacency_sequence(g);
    let grammar = repair(&seq, alphabet);
    let bits = grammar.size_bits();
    (grammar, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_example() {
        // abcabcabc → grammar with ~2 rules and a 3-symbol sequence.
        let input: Vec<u32> = vec![0, 1, 2, 0, 1, 2, 0, 1, 2];
        let g = repair(&input, 3);
        assert_eq!(g.expand(), input);
        assert!(g.rules.len() >= 2, "{:?}", g.rules);
        assert!(g.sequence.len() <= 3, "{:?}", g.sequence);
    }

    #[test]
    fn overlapping_runs() {
        // aaaa...: occurrences overlap; RePair must not double-replace.
        let input = vec![7u32; 31];
        let g = repair(&input, 8);
        assert_eq!(g.expand(), input);
        assert!(g.sequence.len() < 8);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(repair(&[], 4).expand(), Vec::<u32>::new());
        assert_eq!(repair(&[3], 4).expand(), vec![3]);
    }

    #[test]
    fn random_sequences_round_trip() {
        let mut x = 7u64;
        for len in [10usize, 100, 1000] {
            let input: Vec<u32> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((x >> 33) % 5) as u32
                })
                .collect();
            let g = repair(&input, 5);
            assert_eq!(g.expand(), input, "len {len}");
        }
    }

    #[test]
    fn no_active_pairs_remain() {
        let mut x = 3u64;
        let input: Vec<u32> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 4) as u32
            })
            .collect();
        let g = repair(&input, 4);
        // Every adjacent pair in the residual sequence occurs at most once.
        let mut seen = std::collections::HashSet::new();
        for w in g.sequence.windows(2) {
            assert!(seen.insert((w[0], w[1])), "active pair {w:?} left behind");
        }
    }

    #[test]
    fn graph_adjacency_baseline() {
        // Repetitive adjacency lists compress.
        let mut triples = Vec::new();
        for v in 0..128u32 {
            for k in 1..=4u32 {
                let t = (v / 8) * 8 + k;
                if t != v {
                    triples.push((v, 0u32, t));
                }
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(136, triples);
        let (grammar, bits) = encode_graph(&g);
        let (seq, _) = adjacency_sequence(&g);
        assert_eq!(grammar.expand(), seq);
        assert!(bits > 0);
    }
}
