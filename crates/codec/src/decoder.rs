//! Top-level grammar decoder.

use crate::perm::PermDict;
use crate::rules::decode_rule;
use crate::start::decode_label;
use crate::CodecError;
use grepair_bits::codes::read_delta;
use grepair_bits::BitReader;
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeLabel, Hypergraph};

/// Largest start-graph node count the decoder materializes. An isolated
/// node costs no bits, so the header's count is a claim nothing else
/// bounds; 2²⁴, like the baselines' decoders, keeps a hostile header from
/// allocating gigabytes.
pub const MAX_START_NODES: u64 = 1 << 24;

/// Decode a grammar previously written by [`crate::encode`].
///
/// The result has passed [`Grammar::validate`] — callers need not run it
/// again; corrupt streams return [`CodecError`] rather than panicking. The
/// start graph may have at most [`MAX_START_NODES`] nodes.
pub fn decode(bytes: &[u8], bit_len: u64) -> Result<Grammar, CodecError> {
    // A truncated or corrupt container can claim more bits than it carries;
    // reject the lie up front rather than failing mid-stream. (`BitReader`
    // also clamps, so even direct callers can never index out of bounds.)
    if bit_len > bytes.len() as u64 * 8 {
        return Err(CodecError::Malformed(format!(
            "bit length {bit_len} exceeds the {} bits present",
            bytes.len() as u64 * 8
        )));
    }
    let mut r = BitReader::new(bytes, bit_len);

    // --- header ---
    let num_terminals = (read_delta(&mut r)? - 1) as u32;
    let num_rules = (read_delta(&mut r)? - 1) as usize;
    let m = read_delta(&mut r)? - 1;
    if m > MAX_START_NODES {
        return Err(CodecError::Malformed(format!(
            "start graph node count {m} exceeds the decoder cap ({MAX_START_NODES})"
        )));
    }
    let m = m as usize;
    // Counts are untrusted: pre-size by what the stream can still hold
    // (every entry costs at least one bit), never by the claim itself.
    let ext_len = (read_delta(&mut r)? - 1) as usize;
    let mut ext = Vec::with_capacity(ext_len.min(r.remaining() as usize));
    for _ in 0..ext_len {
        let v = (read_delta(&mut r)? - 1) as u32;
        if v as usize >= m {
            return Err(CodecError::Malformed("external node out of range".into()));
        }
        ext.push(v);
    }
    let num_labels = num_terminals as usize + num_rules;
    let mut present = Vec::with_capacity(num_labels.min(r.remaining() as usize));
    for _ in 0..num_labels {
        present.push(r.read_bit()?);
    }
    let dict = PermDict::decode(&mut r)?;

    // --- start graph ---
    let mut start = Hypergraph::with_nodes(m);
    for (slot, &p) in present.iter().enumerate() {
        if !p {
            continue;
        }
        let label = if slot < num_terminals as usize {
            EdgeLabel::Terminal(slot as u32)
        } else {
            EdgeLabel::Nonterminal((slot - num_terminals as usize) as u32)
        };
        decode_label(&mut r, &mut start, label, &dict)?;
    }
    start.set_ext(ext);

    // --- rules ---
    let mut grammar = Grammar::new(start, num_terminals);
    for _ in 0..num_rules {
        let rhs = decode_rule(&mut r)?;
        grammar.add_rule(rhs);
    }
    if r.remaining() != 0 {
        return Err(CodecError::Malformed(format!(
            "{} trailing bits after grammar",
            r.remaining()
        )));
    }
    grammar
        .validate()
        .map_err(|e| CodecError::Malformed(format!("decoded grammar invalid: {e}")))?;
    Ok(grammar)
}

#[cfg(test)]
mod tests {
    use crate::perm::PermDict;
    use crate::start::{dense_map, plan_labels, LabelMode};
    use crate::{encode, EncodedGrammar};
    use grepair_core::{compress, GRePairConfig};
    use grepair_hypergraph::order::NodeOrder;
    use grepair_hypergraph::Hypergraph;

    use super::*;

    fn repeated_pattern(reps: u32) -> Hypergraph {
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        );
        g
    }

    #[test]
    fn full_pipeline_round_trip_preserves_val() {
        let g = repeated_pattern(40);
        let out = compress(&g, &GRePairConfig::default());
        let encoded = encode(&out.grammar);
        let decoded = decode(&encoded.bytes, encoded.bit_len).unwrap();

        // val(decode(encode(G))) must equal val(G) *node for node*, so the
        // compressor's node map applies to the decoded grammar too.
        let val_mem = out.grammar.derive();
        let val_dec = decoded.derive();
        assert_eq!(val_mem.edge_multiset(), val_dec.edge_multiset());
        assert_eq!(val_mem.num_nodes(), val_dec.num_nodes());
        assert_eq!(
            val_dec.edge_multiset_mapped(|v| out.node_map[v as usize]),
            g.edge_multiset()
        );
    }

    #[test]
    fn disconnected_graph_round_trip() {
        let copies = 16u32;
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
        let out = compress(&g, &GRePairConfig::default());
        let encoded = encode(&out.grammar);
        let decoded = decode(&encoded.bytes, encoded.bit_len).unwrap();
        assert_eq!(
            decoded.derive().edge_multiset_mapped(|v| out.node_map[v as usize]),
            g.edge_multiset()
        );
    }

    #[test]
    fn size_breakdown_adds_up() {
        let g = repeated_pattern(64);
        let out = compress(&g, &GRePairConfig::default());
        let encoded = encode(&out.grammar);
        assert_eq!(encoded.breakdown.total(), encoded.bit_len);
        assert!(encoded.breakdown.start_graph_bits > 0);
        assert!(encoded.byte_len() as u64 * 8 >= encoded.bit_len);
    }

    #[test]
    fn empty_grammar_round_trips() {
        let grammar = Grammar::new(Hypergraph::with_nodes(0), 0);
        let encoded = encode(&grammar);
        let decoded = decode(&encoded.bytes, encoded.bit_len).unwrap();
        assert_eq!(decoded.start.num_nodes(), 0);
        assert_eq!(decoded.num_nonterminals(), 0);
    }

    #[test]
    fn huge_header_counts_error_instead_of_allocating() {
        // One flipped header bit of a real container used to claim a count
        // that pre-sizing turned into a 2·10¹⁴-byte allocation, which
        // aborts the process instead of returning an error.
        for (rules, ext_len) in [(1u64 << 60, 0u64), (0, 1 << 60)] {
            let mut w = grepair_bits::BitWriter::new();
            grepair_bits::codes::write_delta(&mut w, 1); // no terminals
            grepair_bits::codes::write_delta(&mut w, rules + 1);
            grepair_bits::codes::write_delta(&mut w, 2); // one node
            grepair_bits::codes::write_delta(&mut w, ext_len + 1);
            w.push_bits(0, 16);
            let (bytes, len) = w.finish();
            assert!(decode(&bytes, len).is_err());
        }
    }

    /// An RDF grammar whose start graph has adjacency *and* incidence
    /// sections (asserted), so the hostile-input tests reach both branches
    /// of `decode_label`.
    fn mixed_sections() -> EncodedGrammar {
        let g = grepair_datasets::rdf::property_graph(300, 12, 4, 60, 1);
        let out = compress(&g, &GRePairConfig::default());
        let start = &out.grammar.start;
        let (dense, _) = dense_map(start);
        let modes: Vec<LabelMode> =
            plan_labels(start, &dense, &mut PermDict::new()).iter().map(|p| p.mode).collect();
        assert!(modes.contains(&LabelMode::Adjacency), "{modes:?}");
        assert!(modes.contains(&LabelMode::Incidence), "{modes:?}");
        encode(&out.grammar)
    }

    #[test]
    fn truncated_streams_error_cleanly() {
        let g = repeated_pattern(10);
        let out = compress(&g, &GRePairConfig { order: NodeOrder::Natural, ..Default::default() });
        let encoded = encode(&out.grammar);
        for cut in [1u64, 7, encoded.bit_len / 2, encoded.bit_len - 1] {
            assert!(
                decode(&encoded.bytes, cut.min(encoded.bit_len - 1)).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Every cut of the mixed grammar: the parse consumes exactly
        // `bit_len` bits, so any shorter stream runs out somewhere.
        let encoded = mixed_sections();
        for cut in 0..encoded.bit_len {
            assert!(decode(&encoded.bytes, cut).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn overlong_bit_len_is_rejected() {
        let g = repeated_pattern(6);
        let out = compress(&g, &GRePairConfig::default());
        let encoded = encode(&out.grammar);
        // Same bytes, header claiming more bits than are present.
        for extra in [1u64, 8, 1 << 20, u64::MAX - encoded.bit_len] {
            let claimed = encoded.bit_len + extra;
            assert!(decode(&encoded.bytes, claimed).is_err(), "claimed {claimed}");
        }
        // Truncated byte buffer with the original bit_len header.
        for keep in [0usize, 1, encoded.bytes.len() / 2, encoded.bytes.len() - 1] {
            assert!(
                decode(&encoded.bytes[..keep], encoded.bit_len).is_err(),
                "kept {keep} bytes"
            );
        }
    }

    #[test]
    fn header_node_count_is_capped_before_allocating() {
        // 2³² − 1 start nodes in a few dozen bits: without the cap this
        // allocated an incidence list per claimed node.
        for (m, capped) in [((1u64 << 32) - 1, true), (MAX_START_NODES + 1, true), (3, false)] {
            let mut w = grepair_bits::BitWriter::new();
            grepair_bits::codes::write_delta(&mut w, 1); // no terminals
            grepair_bits::codes::write_delta(&mut w, 1); // no rules
            grepair_bits::codes::write_delta(&mut w, m + 1);
            grepair_bits::codes::write_delta(&mut w, 1); // no external nodes
            grepair_bits::codes::write_delta(&mut w, 1); // empty permutation dictionary
            let (bytes, len) = w.finish();
            match decode(&bytes, len) {
                Err(CodecError::Malformed(msg)) if capped => {
                    assert!(msg.contains("exceeds the decoder cap"), "{m}: {msg}")
                }
                Ok(grammar) if !capped => assert_eq!(grammar.start.num_nodes(), m as usize),
                other => panic!("{m} nodes: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_never_panic() {
        let g = repeated_pattern(8);
        let out = compress(&g, &GRePairConfig::default());
        let small = encode(&out.grammar);
        // Every bit of both grammars, the mixed one's rules included: a
        // flipped rule node id is rejected before anything is sized by it.
        let mixed = mixed_sections();
        for encoded in [&small, &mixed] {
            for b in 0..encoded.bit_len {
                let mut copy = encoded.bytes.clone();
                copy[(b / 8) as usize] ^= 0x80 >> (b % 8);
                // Ok or Err — no panic, and what decodes is valid.
                if let Ok(grammar) = decode(&copy, encoded.bit_len) {
                    assert_eq!(grammar.validate(), Ok(()), "flip of bit {b}");
                }
            }
        }
    }
}
