//! LM — the list-merging web graph compressor of Grabowski & Bieniecki
//! \[20\] ("Tight and simple web graph compression").
//!
//! Nodes are processed in chunks of `h` consecutive IDs (the paper and our
//! experiments use h = 64). The out-lists of a chunk are merged into one
//! ascending list of distinct neighbors; each node then stores a bitmask
//! over that merged list selecting its own neighbors. The byte serialization
//! (varint gap coding for merged lists + raw bitmasks) is finally run
//! through a general-purpose compressor — gzip in the paper, our
//! DEFLATE-like [`grepair_lz`] here.
//!
//! Unlabeled graphs only, exactly like the original (the paper's Table V
//! omits LM for RDF for this reason).

use grepair_hypergraph::{Hypergraph, NodeId};

/// Chunk size; 64 in \[20\] and in the paper's experiments.
pub const DEFAULT_CHUNK: usize = 64;

/// Encoded output.
#[derive(Debug, Clone)]
pub struct LmEncoded {
    /// The compressed byte stream.
    pub bytes: Vec<u8>,
    /// Exact payload size in bits (compressed).
    pub bit_len: u64,
}

impl LmEncoded {
    /// Bits per edge.
    pub fn bits_per_edge(&self, edges: usize) -> f64 {
        grepair_util::fmt::bits_per_edge(self.bit_len, edges as u64)
    }
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Serialize the chunked representation (uncompressed).
fn serialize(g: &Hypergraph, chunk: usize) -> Vec<u8> {
    let n = g.node_bound();
    let mut out = Vec::new();
    push_varint(&mut out, n as u64);
    push_varint(&mut out, chunk as u64);
    let mut block_start = 0usize;
    while block_start < n {
        let block_end = (block_start + chunk).min(n);
        // Merged ascending distinct neighbor list of the block.
        let mut merged: Vec<NodeId> = Vec::new();
        let mut lists: Vec<Vec<NodeId>> = Vec::with_capacity(block_end - block_start);
        for v in block_start..block_end {
            let mut outs: Vec<NodeId> = if g.node_is_alive(v as NodeId) {
                g.out_neighbors(v as NodeId).collect()
            } else {
                Vec::new()
            };
            outs.sort_unstable();
            outs.dedup();
            merged.extend_from_slice(&outs);
            lists.push(outs);
        }
        merged.sort_unstable();
        merged.dedup();
        // Gap-coded merged list.
        push_varint(&mut out, merged.len() as u64);
        let mut prev = 0u64;
        for (i, &x) in merged.iter().enumerate() {
            let gap = if i == 0 { x as u64 } else { x as u64 - prev };
            push_varint(&mut out, gap);
            prev = x as u64;
        }
        // Per-node bitmask over the merged list.
        let mask_bytes = merged.len().div_ceil(8);
        for outs in &lists {
            let mut mask = vec![0u8; mask_bytes];
            for x in outs {
                #[expect(
                    clippy::unwrap_used,
                    reason = "merged is the union of the block's out-lists, so every x is present and i < merged.len() ≤ mask_bytes * 8"
                )]
                let i = merged.binary_search(x).unwrap();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i < merged.len() <= mask_bytes * 8, as established above"
                )]
                {
                    mask[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&mask);
        }
        block_start = block_end;
    }
    out
}

/// Encode with the default chunk size.
pub fn encode(g: &Hypergraph) -> LmEncoded {
    encode_with_chunk(g, DEFAULT_CHUNK)
}

/// Encode with an explicit chunk size.
pub fn encode_with_chunk(g: &Hypergraph, chunk: usize) -> LmEncoded {
    let raw = serialize(g, chunk);
    let bytes = grepair_lz::compress(&raw);
    let bit_len = grepair_lz::compressed_bits(&raw);
    LmEncoded { bytes, bit_len }
}

/// Decode back to an adjacency structure: `out[v]` = sorted out-neighbors.
pub fn decode(encoded: &LmEncoded) -> Result<Vec<Vec<NodeId>>, crate::BaselineError> {
    let bad = crate::BaselineError::format;
    let raw = grepair_lz::decompress(&encoded.bytes)?;
    let mut pos = 0usize;
    let n = read_varint(&raw, &mut pos).ok_or_else(|| bad("missing node count"))? as usize;
    let chunk = read_varint(&raw, &mut pos).ok_or_else(|| bad("missing chunk size"))? as usize;
    if chunk == 0 {
        return Err(bad("zero chunk size"));
    }
    // The decompressed stream bounds the node count: every chunk of nodes
    // costs at least its one-byte merged-length varint, so a header
    // claiming more chunks than the stream has bytes is corrupt — reject
    // it before allocating `n` adjacency lists. A hard ceiling guards the
    // allocation itself against absurd (but self-consistent) claims.
    const MAX_NODES: usize = 1 << 24;
    if n > MAX_NODES {
        return Err(crate::BaselineError::Format(format!(
            "node count {n} exceeds the decoder cap ({MAX_NODES})"
        )));
    }
    if n.div_ceil(chunk) > raw.len() {
        return Err(crate::BaselineError::Format(format!(
            "node count {n} exceeds what the stream can hold"
        )));
    }
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut block_start = 0usize;
    while block_start < n {
        let block_end = (block_start + chunk).min(n);
        let merged_len =
            read_varint(&raw, &mut pos).ok_or_else(|| bad("missing merged length"))? as usize;
        if merged_len > raw.len() {
            return Err(bad("merged list longer than the stream"));
        }
        let mut merged = Vec::with_capacity(merged_len);
        let mut acc = 0u64;
        for i in 0..merged_len {
            let gap = read_varint(&raw, &mut pos).ok_or_else(|| bad("missing gap"))?;
            acc = if i == 0 { gap } else { acc.saturating_add(gap) };
            if acc >= n as u64 {
                return Err(bad("neighbor out of range"));
            }
            merged.push(acc as NodeId);
        }
        let mask_bytes = merged_len.div_ceil(8);
        #[allow(clippy::needless_range_loop, reason = "v is a node id")]
        for v in block_start..block_end {
            if pos + mask_bytes > raw.len() {
                return Err(bad("truncated bitmask"));
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "the truncation check just above bounds pos + mask_bytes"
            )]
            let mask = &raw[pos..pos + mask_bytes];
            pos += mask_bytes;
            for (i, &x) in merged.iter().enumerate() {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "i < merged_len and mask holds ceil(merged_len/8) bytes"
                )]
                if mask[i / 8] >> (i % 8) & 1 == 1 {
                    #[expect(clippy::indexing_slicing, reason = "v < block_end ≤ n == adj.len()")]
                    adj[v].push(x);
                }
            }
        }
        block_start = block_end;
    }
    Ok(adj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_round_trip(g: &Hypergraph) {
        let enc = encode(g);
        let adj = decode(&enc).unwrap();
        for v in 0..g.node_bound() as NodeId {
            let mut want: Vec<NodeId> = if g.node_is_alive(v) {
                g.out_neighbors(v).collect()
            } else {
                Vec::new()
            };
            want.sort_unstable();
            want.dedup();
            assert_eq!(adj[v as usize], want, "node {v}");
        }
    }

    #[test]
    fn ring_round_trip() {
        let (g, _) =
            Hypergraph::from_simple_edges(300, (0..300u32).map(|i| (i, 0, (i + 1) % 300)));
        check_round_trip(&g);
    }

    #[test]
    fn copied_lists_compress_well() {
        // Web-graph-like: consecutive nodes share most of their out-lists —
        // the case LM is designed for.
        let mut triples = Vec::new();
        for v in 0..512u32 {
            let base = (v / 16) * 16;
            for k in 0..8u32 {
                let t = (base + k * 2 + 1) % 512;
                if t != v {
                    triples.push((v, 0u32, t));
                }
            }
        }
        let (g, _) = Hypergraph::from_simple_edges(512, triples);
        check_round_trip(&g);
        let enc = encode(&g);
        let bpe = enc.bits_per_edge(g.num_edges());
        assert!(bpe < 8.0, "copied lists should be cheap, got {bpe}");
    }

    #[test]
    fn empty_and_sparse() {
        check_round_trip(&Hypergraph::with_nodes(10));
        let (g, _) = Hypergraph::from_simple_edges(100, vec![(0u32, 0u32, 99u32)]);
        check_round_trip(&g);
    }

    #[test]
    fn chunk_size_variants() {
        let (g, _) =
            Hypergraph::from_simple_edges(200, (0..200u32).map(|i| (i, 0, (i * 7 + 1) % 200)));
        for chunk in [1usize, 8, 64, 256] {
            let enc = encode_with_chunk(&g, chunk);
            let adj = decode(&enc).unwrap();
            let total: usize = adj.iter().map(Vec::len).sum();
            assert_eq!(total, g.num_edges(), "chunk {chunk}");
        }
    }
}
