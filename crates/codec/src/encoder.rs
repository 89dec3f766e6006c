//! Top-level grammar encoder.

use crate::perm::PermDict;
use crate::rules::encode_rule;
use crate::start::{dense_map, encode_label, plan_labels};
use crate::{EncodedGrammar, SizeBreakdown};
use grepair_bits::codes::write_delta;
use grepair_bits::BitWriter;
use grepair_grammar::Grammar;
use grepair_hypergraph::EdgeLabel;

/// Serialize a grammar to the §III-C2 bit format.
///
/// Stream layout:
/// 1. header: δ(|Σ|+1), δ(#rules+1), δ(m+1) with m = |V_S| (dense), the
///    start graph's external sequence, the label presence bitmap, the
///    permutation dictionary;
/// 2. one section per present label (terminals ascending, then nonterminals
///    ascending): mode bit + k²-tree (+ δ(edge count) and permutation
///    indices for incidence labels);
/// 3. the rules, in nonterminal order.
pub fn encode(grammar: &Grammar) -> EncodedGrammar {
    let start = &grammar.start;
    let (dense, m) = dense_map(start);
    let mut dict = PermDict::new();
    let plans = plan_labels(start, &dense, &mut dict);

    let mut w = BitWriter::new();
    let mut breakdown = SizeBreakdown::default();

    // --- header ---
    write_delta(&mut w, grammar.num_terminals() as u64 + 1);
    write_delta(&mut w, grammar.num_nonterminals() as u64 + 1);
    write_delta(&mut w, m as u64 + 1);
    write_delta(&mut w, start.ext().len() as u64 + 1);
    for &v in start.ext() {
        #[expect(
            clippy::indexing_slicing,
            reason = "ext nodes are alive start-graph nodes, and dense covers node_bound"
        )]
        write_delta(&mut w, dense[v as usize] as u64 + 1);
    }
    // Presence bitmap: terminals then nonterminals.
    let mut present = vec![false; grammar.num_terminals() as usize + grammar.num_nonterminals()];
    for plan in &plans {
        let slot = match plan.label {
            EdgeLabel::Terminal(t) => t as usize,
            EdgeLabel::Nonterminal(i) => grammar.num_terminals() as usize + i as usize,
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "plan labels come from the compressor's own grammar, so slots fit"
        )]
        {
            present[slot] = true;
        }
    }
    for &p in &present {
        w.push_bit(p);
    }
    dict.encode(&mut w);
    breakdown.header_bits = w.bit_len();

    // --- start graph sections ---
    for plan in &plans {
        let (matrix_bits, perm_bits) = encode_label(&mut w, plan, m, &dict);
        breakdown.start_graph_bits += matrix_bits;
        breakdown.permutation_bits += perm_bits;
    }

    // --- rules ---
    let rules_start = w.bit_len();
    for rhs in grammar.rules() {
        encode_rule(&mut w, rhs);
    }
    breakdown.rule_bits = w.bit_len() - rules_start;

    let (bytes, bit_len) = w.finish();
    debug_assert_eq!(bit_len, breakdown.total());
    EncodedGrammar { bytes, bit_len, breakdown }
}
