//! The three pipelines the compress workloads time, each the sequence of
//! public calls a user of the crates would make, with a span around every
//! call into a layer.

use grepair_codec::SizeBreakdown;
use grepair_core::{CompressStats, Compressor, GRePairConfig};
use grepair_grammar::Grammar;
use grepair_hypergraph::{Hypergraph, NodeId};
use grepair_store::{split_any_container, write_container, GraphStore};

use crate::trace::Tracer;

pub struct Compressed {
    pub container: Vec<u8>,
    pub node_map: Vec<NodeId>,
    pub stats: CompressStats,
    pub breakdown: SizeBreakdown,
}

/// Graph → container bytes. The stage sequence is `Compressor::run`'s,
/// spelled out so each stage gets its span; `core.virtual_pass` is
/// everything that function does only for disconnected input.
pub fn compress(graph: &Hypergraph, tr: &mut Tracer) -> Compressed {
    let config = GRePairConfig::default();
    let s = tr.enter("core.new");
    let mut c = Compressor::new(graph, &config);
    tr.exit(s);
    let s = tr.enter("core.count_all");
    c.count_all();
    tr.exit(s);
    let s = tr.enter("core.replace");
    c.replace_to_fixpoint();
    tr.exit(s);
    let s = tr.enter("core.virtual_pass");
    if c.add_virtual_edges() > 0 {
        c.reset_occurrences();
        c.count_all();
        c.replace_to_fixpoint();
    }
    c.strip_virtual_edges();
    tr.exit(s);
    let s = tr.enter("core.finish");
    let out = c.finish();
    tr.exit(s);
    let s = tr.enter("codec.encode");
    let enc = grepair_codec::encode(&out.grammar);
    tr.exit(s);
    Compressed {
        container: write_container(&enc.bytes, enc.bit_len),
        node_map: out.node_map,
        stats: out.stats,
        breakdown: enc.breakdown,
    }
}

/// Container bytes → grammar and graph.
pub fn decompress(container: &[u8], tr: &mut Tracer) -> Result<(Grammar, Hypergraph), String> {
    let (_, bit_len, payload) = split_any_container(container).map_err(|e| e.to_string())?;
    let s = tr.enter("codec.decode");
    let grammar = grepair_codec::decode(payload, bit_len).map_err(|e| e.to_string());
    tr.exit(s);
    let grammar = grammar?;
    let s = tr.enter("grammar.validate");
    let valid = grammar.validate();
    tr.exit(s);
    valid?;
    let s = tr.enter("grammar.derive");
    let graph = grammar.derive();
    tr.exit(s);
    Ok((grammar, graph))
}

/// Container bytes → a store ready to answer: the registry's cold-open cost.
pub fn load(container: &[u8], tr: &mut Tracer) -> Result<GraphStore, String> {
    let s = tr.enter("store.load");
    let store = GraphStore::from_bytes(container).map_err(|e| e.to_string());
    tr.exit(s);
    store
}
