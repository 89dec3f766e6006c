//! Top-level grammar encoder.

use crate::rules::encode_rule;
use crate::start::{dense_map, encode_label, plan_labels, LabelMode};
use crate::{EncodedGrammar, SizeBreakdown};
use grepair_bits::codes::write_delta;
use grepair_bits::BitWriter;
use grepair_grammar::Grammar;
use grepair_hypergraph::EdgeLabel;

/// Serialize a grammar to the §III-C2 bit format, with list sections.
///
/// Stream layout:
/// 1. header: δ(|Σ|+1), δ(#rules+1), δ(m+1) with m = |V_S| (dense), the
///    start graph's external sequence, the label presence bitmap, the
///    permutation dictionary;
/// 2. one section per present label (terminals ascending, then nonterminals
///    ascending), in whichever mode is smallest (a tie keeps the k²-tree):
///    `0`, then the adjacency k²-tree; `1`, δ(edge count + 1), the incidence
///    k²-tree and the permutation indices; or `1 1`, δ(rank), δ(edge count)
///    and the gap-coded edges;
/// 3. the rules, in nonterminal order.
///
/// The grammar must pass [`Grammar::validate`]; in particular no edge may
/// have a rank past [`Grammar::MAX_RANK`] (255), since an attachment
/// position is stored in one byte and [`crate::decode`] rejects a larger
/// rank. The compressor's ranks are bounded by its `max_rank`.
pub fn encode(grammar: &Grammar) -> EncodedGrammar {
    let start = &grammar.start;
    let (dense, m) = dense_map(start);
    let plan = plan_labels(start, &dense, m);

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
    for label in &plan.labels {
        let slot = match label.label {
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
    let dict_start = w.bit_len();
    plan.dict.encode(&mut w);
    breakdown.header_bits = w.bit_len();
    breakdown.paper_bits = dict_start + plan.k2_dict_bits;

    // --- start graph sections ---
    for label in &plan.labels {
        let (section_bits, perm_bits) = encode_label(&mut w, label, m, &plan.dict);
        breakdown.start_graph_bits += section_bits;
        breakdown.permutation_bits += perm_bits;
        breakdown.paper_bits += label.k2_bits;
        let mode = match label.mode() {
            LabelMode::Adjacency => &mut breakdown.adjacency,
            LabelMode::Incidence => &mut breakdown.incidence,
            LabelMode::List => &mut breakdown.list,
        };
        mode.sections += 1;
        mode.bits += section_bits + perm_bits;
    }

    // --- rules ---
    let rules_start = w.bit_len();
    for rhs in grammar.rules() {
        encode_rule(&mut w, rhs);
    }
    breakdown.rule_bits = w.bit_len() - rules_start;
    breakdown.paper_bits += breakdown.rule_bits;

    let (bytes, bit_len) = w.finish();
    debug_assert_eq!(bit_len, breakdown.total());
    EncodedGrammar { bytes, bit_len, breakdown }
}
