//! Top-level grammar decoder.

use crate::perm::PermDict;
use crate::rules::decode_rule;
use crate::start::decode_label;
use crate::{room, CodecError};
use grepair_bits::codes::read_delta;
use grepair_bits::BitReader;
use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeBuffer, EdgeLabel, Hypergraph, NodeId};

/// Largest start-graph node count the decoder materializes. An isolated
/// node costs no bits, so the header's count is a claim nothing else
/// bounds; 2²⁴, like the baselines' decoders, keeps a hostile header from
/// allocating gigabytes.
pub const MAX_START_NODES: u64 = 1 << 24;

/// Decode a grammar previously written by [`crate::encode`].
///
/// The result satisfies [`Grammar::validate`], checked while building —
/// callers need not run it again; corrupt streams return [`CodecError`]
/// rather than panicking. The start graph may have at most
/// [`MAX_START_NODES`] nodes.
///
/// S and every rule are read into flat edge buffers and built once by
/// [`Hypergraph::from_edges`], which rejects an out-of-range or repeated
/// attachment node; the external sequences are checked as they are read.
/// What is left are the grammar-level checks of
/// [`Grammar::validate_references`]. Debug builds also assert the full
/// [`Grammar::validate`].
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
    // Label ids are u32: a count past that is corrupt, not something to
    // keep the low bits of.
    let num_terminals = u32::try_from(read_delta(&mut r)? - 1)
        .map_err(|_| CodecError::Malformed("terminal count overflow".into()))?;
    let num_rules = u32::try_from(read_delta(&mut r)? - 1)
        .map_err(|_| CodecError::Malformed("rule count overflow".into()))?;
    let m = read_delta(&mut r)? - 1;
    let Some(m) = u32::try_from(m).ok().filter(|&m| u64::from(m) <= MAX_START_NODES) else {
        return Err(CodecError::Malformed(format!(
            "start graph node count {m} exceeds the decoder cap ({MAX_START_NODES})"
        )));
    };
    // Counts are untrusted: pre-size by what the stream can still hold
    // (every entry costs at least one bit), never by the claim itself.
    let ext_len = read_delta(&mut r)? - 1;
    let mut ext = Vec::with_capacity(room(ext_len, &r));
    for _ in 0..ext_len {
        let v = NodeId::try_from(read_delta(&mut r)? - 1)
            .ok()
            .filter(|&v| v < m)
            .ok_or_else(|| CodecError::Malformed("external node out of range".into()))?;
        ext.push(v);
    }
    let mut sorted = ext.clone();
    sorted.sort_unstable();
    if let Some(v) = sorted.windows(2).find_map(|w| match *w {
        [a, b] if a == b => Some(a),
        _ => None,
    }) {
        return Err(CodecError::Malformed(format!("start graph external node {v} repeated")));
    }
    let num_labels = u64::from(num_terminals) + u64::from(num_rules);
    let mut present = Vec::with_capacity(room(num_labels, &r));
    for _ in 0..num_labels {
        present.push(r.read_bit()?);
    }
    let dict = PermDict::decode(&mut r)?;

    // --- start graph ---
    let labels = (0..num_terminals)
        .map(EdgeLabel::Terminal)
        .chain((0..num_rules).map(EdgeLabel::Nonterminal));
    let mut edges = EdgeBuffer::new();
    for (label, _) in labels.zip(&present).filter(|&(_, &p)| p) {
        decode_label(&mut r, &mut edges, m, label, &dict)?;
    }
    let mut start =
        Hypergraph::from_edges(m as usize, edges).map_err(|e| malformed("start graph", e))?;
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
    grammar.validate_references().map_err(|e| malformed("grammar", e))?;
    debug_assert_eq!(grammar.validate(), Ok(()));
    Ok(grammar)
}

/// A decoded `what` that broke an invariant.
fn malformed(what: &str, e: String) -> CodecError {
    CodecError::Malformed(format!("decoded {what} invalid: {e}"))
}

#[cfg(test)]
mod tests {
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
    fn rank_255_edges_round_trip() {
        // S: a rank-255 terminal edge and a rank-2 one (so the label is an
        // incidence section), and a rank-255 nonterminal edge attached in
        // reverse; the rule: 255 external nodes and one internal node under
        // a rank-255 terminal edge. `Grammar::validate` refuses one rank
        // more, which decoding would reject.
        let (rank, r) = (Grammar::MAX_RANK, NodeId::try_from(Grammar::MAX_RANK).unwrap());
        let nodes: Vec<NodeId> = (0..r).collect();
        let mut start = Hypergraph::with_nodes(rank);
        start.add_edge(EdgeLabel::Terminal(0), &nodes);
        start.add_edge(EdgeLabel::Terminal(0), &nodes[..2]);
        let reversed: Vec<NodeId> = nodes.iter().rev().copied().collect();
        start.add_edge(EdgeLabel::Nonterminal(0), &reversed);
        let mut rhs = Hypergraph::with_nodes(rank + 1);
        let inner: Vec<NodeId> = std::iter::once(r).chain(0..r - 1).collect();
        rhs.add_edge(EdgeLabel::Terminal(1), &inner);
        rhs.set_ext(nodes);
        let mut grammar = Grammar::new(start, 2);
        grammar.add_rule(rhs);
        grammar.validate().unwrap();
        let encoded = encode(&grammar);
        let decoded = decode(&encoded.bytes, encoded.bit_len).unwrap();
        assert_eq!(decoded.derive().edge_multiset(), grammar.derive().edge_multiset());
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

    /// An RDF grammar whose start graph has adjacency, incidence *and*
    /// list sections (asserted), so the hostile-input tests reach every
    /// branch of `decode_label`. Compressor output gives the first and the
    /// last; the incidence section is a terminal label given edges of two
    /// ranks, which no list holds.
    fn mixed_sections() -> EncodedGrammar {
        let g = grepair_datasets::rdf::property_graph(300, 12, 4, 60, 1);
        let mut out = compress(&g, &GRePairConfig::default());
        let start = &mut out.grammar.start;
        let nodes: Vec<u32> = start.node_ids().take(3).collect();
        start.add_edge(EdgeLabel::Terminal(0), &nodes);
        start.add_edge(EdgeLabel::Terminal(0), &nodes[..2]);
        let start = &out.grammar.start;
        let (dense, m) = dense_map(start);
        let modes: Vec<LabelMode> =
            plan_labels(start, &dense, m).labels.iter().map(|p| p.mode()).collect();
        for mode in [LabelMode::Adjacency, LabelMode::Incidence, LabelMode::List] {
            assert!(modes.contains(&mode), "{mode:?} in {modes:?}");
        }
        encode(&out.grammar)
    }

    /// `(label, attachment)` of every edge, in edge-id order.
    fn edge_list(g: &Hypergraph) -> Vec<(EdgeLabel, Vec<u32>)> {
        g.edges().map(|e| (e.label, e.att.to_vec())).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        hex.as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// Containers written before list sections existed, when every section
    /// was a k²-tree, still decode to their grammar edge for edge.
    #[test]
    fn parent_containers_still_decode() {
        use grepair_hypergraph::EdgeLabel::Terminal as T;
        // Rule-free: T0 adjacency, T1 (a duplicate edge) and T2 (rank 3)
        // incidence.
        let mut s = Hypergraph::with_nodes(6);
        for (t, att) in [
            (0, &[0, 1][..]),
            (0, &[1, 5]),
            (0, &[4, 2]),
            (1, &[2, 3]),
            (1, &[2, 3]),
            (2, &[3, 0, 4]),
            (2, &[5, 1, 2]),
        ] {
            s.add_edge(T(t), att);
        }
        let bytes = unhex("65fec45525848f794497a211062a8f5216c178551ea4a4b5512d2c");
        let old = decode(&bytes, 215).unwrap();
        assert_eq!(edge_list(&old.start), edge_list(&s));
        assert_eq!(old.num_terminals(), 3);
        assert_eq!(old.num_nonterminals(), 0);

        // Compressor output, on which the list encoder now picks at least
        // one list section, so its bytes differ.
        let out = compress(&repeated_pattern(8), &GRePairConfig::default());
        let bytes =
            unhex("5520fc8404042d8842101010b45088404042d8122101014496c92110948d24aa95a64d095c");
        let old = decode(&bytes, 294).unwrap();
        let (dense, m) = dense_map(&out.grammar.start);
        let plan = plan_labels(&out.grammar.start, &dense, m);
        assert!(plan.labels.iter().any(|l| l.mode() == LabelMode::List));
        assert_ne!(encode(&out.grammar).bytes, bytes);
        let want: Vec<_> = out
            .grammar
            .start
            .edges()
            .map(|e| (e.label, e.att.iter().map(|&v| dense[v as usize]).collect()))
            .collect();
        assert_eq!(edge_list(&old.start), want);
        assert_eq!(old.num_nonterminals(), out.grammar.num_nonterminals());
        for (got, rhs) in old.rules().iter().zip(out.grammar.rules()) {
            assert_eq!(edge_list(got), edge_list(rhs));
            assert_eq!(got.ext(), rhs.ext());
        }

        // A complete 16-node label, where the k²-tree beats the list: no
        // list wins, so the encoder writes the old bytes exactly.
        let mut s = Hypergraph::with_nodes(16);
        for i in 0..16 {
            for j in (0..16).filter(|&j| j != i) {
                s.add_edge(T(0), &[i, j]);
            }
        }
        let bytes = unhex(concat!(
            "494790a2513aa2407ffffffffffffffffffffdbfdbfffffffdbfdbffffff",
            "fffffffffffffffffffffffffdbfdbfffffffdbfd8"
        ));
        let grammar = Grammar::new(s, 1);
        let enc = encode(&grammar);
        assert_eq!((enc.bytes.as_slice(), enc.bit_len), (bytes.as_slice(), 406));
        assert_eq!(edge_list(&decode(&bytes, 406).unwrap().start), edge_list(&grammar.start));
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
                Ok(grammar) if !capped => {
                    assert_eq!(grammar.start.num_nodes(), usize::try_from(m).unwrap())
                }
                other => panic!("{m} nodes: {other:?}"),
            }
        }
    }

    /// Six bytes whose start graph lists external node 0 twice. Debug
    /// builds used to panic on `set_ext`'s assertion; every profile must
    /// return the error.
    #[test]
    fn repeated_start_external_node_is_malformed() {
        match decode(&[0x4b, 0x17, 0xf4, 0x4a, 0x22, 0x80], 41) {
            Err(CodecError::Malformed(msg)) => {
                assert!(msg.contains("external node 0 repeated"), "{msg}")
            }
            other => panic!("want a malformed-stream error, got {other:?}"),
        }
    }

    /// A rule-free container whose header claims `terminals` terminal
    /// labels (none present in S) and two start nodes, `ext` of them
    /// external.
    fn header_container(terminals: u64, ext: &[u64]) -> (Vec<u8>, u64) {
        use grepair_bits::codes::write_delta;
        let mut w = grepair_bits::BitWriter::new();
        write_delta(&mut w, terminals + 1);
        write_delta(&mut w, 1); // no rules
        write_delta(&mut w, 3); // two start nodes
        write_delta(&mut w, ext.len() as u64 + 1);
        for &v in ext {
            write_delta(&mut w, v + 1);
        }
        w.push_bits(0, 1); // no section for T0
        write_delta(&mut w, 1); // empty permutation dictionary
        w.finish()
    }

    /// Read as `u32`, a header value of 2³² + 1 would keep its low bits and
    /// decode as the grammar the value 1 writes: one terminal, or start
    /// node 1 external. Both are malformed; the values that fit decode.
    #[test]
    fn header_values_past_32_bits_are_malformed_not_wrapped() {
        let wide = (1 << 32) + 1;
        for ((bytes, len), what) in [
            (header_container(wide, &[]), "terminal count overflow"),
            (header_container(1, &[wide]), "external node out of range"),
        ] {
            match decode(&bytes, len) {
                Err(CodecError::Malformed(msg)) => assert_eq!(msg, what),
                other => panic!("{what}: want a malformed-stream error, got {other:?}"),
            }
        }
        let (bytes, len) = header_container(1, &[]);
        assert_eq!(decode(&bytes, len).unwrap().num_terminals(), 1);
        let (bytes, len) = header_container(1, &[1]);
        assert_eq!(decode(&bytes, len).unwrap().start.ext(), &[1]);
    }

    /// A container of one terminal, one rule and two start nodes without
    /// edges, whose rule `rule` writes.
    fn one_rule_container(rule: impl FnOnce(&mut grepair_bits::BitWriter)) -> (Vec<u8>, u64) {
        use grepair_bits::codes::write_delta;
        let mut w = grepair_bits::BitWriter::new();
        write_delta(&mut w, 2); // one terminal
        write_delta(&mut w, 2); // one rule
        write_delta(&mut w, 3); // two start nodes
        write_delta(&mut w, 1); // no external nodes
        w.push_bits(0, 2); // no section for T0 or N0
        write_delta(&mut w, 1); // empty permutation dictionary
        rule(&mut w);
        w.finish()
    }

    /// Read as `u32`, a rule value of 2³² would keep its low 32 bits and
    /// decode as a different, valid rule: an edge label as label 0, an
    /// isolated node id as node 0. Both are malformed; the values that fit
    /// decode.
    #[test]
    fn rule_values_past_32_bits_are_malformed_not_wrapped() {
        use grepair_bits::codes::write_delta;
        let edge = |label: u64| {
            one_rule_container(|w| {
                write_delta(w, 2); // one edge
                w.push_bit(false); // terminal
                write_delta(w, 2); // rank 2
                for v in [0, 1] {
                    w.push_bit(true); // external
                    write_delta(w, v + 1);
                }
                write_delta(w, label + 1);
                write_delta(w, 1); // no isolated nodes
            })
        };
        let isolated = |id: u64| {
            one_rule_container(|w| {
                write_delta(w, 1); // no edges
                write_delta(w, 2); // one isolated node
                write_delta(w, id + 1);
                w.push_bit(true); // external
            })
        };
        for ((bytes, len), what) in [(edge(1 << 32), "edge label"), (isolated(1 << 32), "node id")] {
            match decode(&bytes, len) {
                Err(CodecError::Malformed(msg)) => assert_eq!(msg, format!("{what} overflow")),
                other => panic!("{what} 2^32: want a malformed-stream error, got {other:?}"),
            }
        }
        let (bytes, len) = edge(0);
        let grammar = decode(&bytes, len).unwrap();
        assert_eq!(edge_list(&grammar.rules()[0]), vec![(EdgeLabel::Terminal(0), vec![0, 1])]);
        let (bytes, len) = isolated(0);
        let grammar = decode(&bytes, len).unwrap();
        let rule = &grammar.rules()[0];
        assert_eq!((rule.num_nodes(), rule.num_edges(), rule.ext()), (1, 0, &[0][..]));
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
