//! Pluggable compression backends: one codec/engine API from container
//! bytes to query answers (DESIGN.md §7).
//!
//! The paper's evaluation is comparative — gRePair against k²-trees and
//! list-based compressors — and its framing treats every compressor as an
//! interchangeable *representation* that must still answer neighborhood and
//! reachability queries. This module is that interface:
//!
//! * [`GraphCodec`] — a named compressor: encode a [`Hypergraph`] into a
//!   self-describing container image, load the container payload into a
//!   live engine, decode it back to a graph.
//! * [`QueryEngine`] — the serving surface every backend answers. An engine
//!   supplies its node count and one primitive, the labeled row of a node
//!   in either direction; `neighbors`/`reach`/`rpq`/`components`/`degrees`
//!   are provided once, by walking rows. Only the grammar engine overrides
//!   them with compressed-domain algorithms.
//!
//! Containers are self-describing. A pre-redesign `.g2g` (magic `G2G1`)
//! is detected as the legacy gRePair container and keeps loading — and the
//! gRePair codec still *writes* that format, so its bytes are unchanged.
//! Every other backend writes the tagged layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "G2GC"
//! 4       1     container version (2)
//! 5       1     backend tag length L (1..=16)
//! 6       L     backend name, lower-case ASCII
//! 6+L     8     payload bit length, u64 LE
//! 14+L    ...   payload
//! ```
//!
//! [`crate::GraphStore::from_bytes`] dispatches on the tag, so the CLI,
//! the TCP server, hot `RELOAD`, and the batch machinery all serve any
//! registered backend without knowing which one they got.

use std::collections::VecDeque;

use grepair_baselines::{hn, k2 as k2base, lm};
use grepair_hypergraph::{EdgeLabel, Hypergraph, NodeId};
use grepair_k2tree::K2Tree;
use grepair_queries::QueryError;
use grepair_util::FxHashSet;

use crate::query::compile_pattern;
use crate::GrepairError;

/// Container magic for legacy `.g2g` files (the gRePair backend still writes
/// exactly this format).
const MAGIC: &[u8; 4] = b"G2G1";
/// Legacy container header size: magic + little-endian `u64` bit length.
const HEADER_LEN: usize = 12;
/// Magic of the tagged (multi-backend) container layout.
const TAGGED_MAGIC: &[u8; 4] = b"G2GC";
/// Tagged container format version.
const TAGGED_VERSION: u8 = 2;

/// Backend name: the gRePair grammar (the paper's compressor).
pub const GREPAIR: &str = "grepair";
/// Backend name: one k²-tree per edge label (Brisaboa et al. \[21\] /
/// Álvarez-García et al. \[8\]).
pub const K2: &str = "k2";
/// Backend name: list-merging (Grabowski & Bieniecki \[20\]).
pub const LM: &str = "lm";
/// Backend name: virtual-node mining over a k²-tree (Buehrer &
/// Chellapilla \[23\] / Hernández & Navarro \[22\]).
pub const HN: &str = "hn";

/// A live, loaded compressed representation answering queries.
///
/// This is the exact query surface [`crate::GraphStore`] serves — every
/// method fallible, every id checked, no panic on any input (the §2
/// zero-panic policy extends to every backend). Node ids are the dense ids
/// of the graph the container was encoded from.
///
/// An engine implements four methods: its name, its node count, and the
/// labeled row of a node in each direction. Everything else is provided by
/// walking rows — one BFS, one product-automaton BFS, one edge scan — so a
/// row-backed engine (k², the list formats, a version overlay) is its two
/// row functions. The grammar engine overrides `reachable`, `rpq` and the
/// aggregates with the paper's compressed-domain algorithms. Whole-graph
/// aggregates are uncached here — the store memoizes them once per loaded
/// container.
pub trait QueryEngine: Send + Sync + std::fmt::Debug {
    /// The backend's registered name (matches its [`GraphCodec::name`]).
    fn backend(&self) -> &'static str;

    /// Number of nodes; valid query ids are `0..total_nodes()`.
    fn total_nodes(&self) -> u64;

    /// Labeled out-edges of `v` as `(label, target)` pairs, sorted
    /// ascending, deduplicated; an error for `v` outside
    /// `0..total_nodes()`. This is also the primitive the version overlay
    /// corrects (DESIGN.md §12): an overlay must know *which* labeled edge
    /// a patch removed, so plain neighbor sets are not enough. Backends
    /// whose container drops labels (`lm`, `hn`) report everything as
    /// label `0`.
    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Labeled in-edges of `v` as `(label, source)` pairs, sorted
    /// ascending, deduplicated.
    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Out-neighbors of `v`, sorted ascending, deduplicated.
    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        Ok(row_nodes(self.out_edges(v)?))
    }

    /// In-neighbors of `v`, sorted ascending, deduplicated.
    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        Ok(row_nodes(self.in_edges(v)?))
    }

    /// Union of both directions, sorted and deduplicated.
    fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let mut row = self.out_edges(v)?;
        row.extend(self.in_edges(v)?);
        Ok(row_nodes(row))
    }

    /// Is `t` reachable from `s` along directed edges (reflexively)?
    /// Provided as a BFS over out-rows.
    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        let n = self.total_nodes();
        check_id(s, n)?;
        check_id(t, n)?;
        if s == t {
            return Ok(true);
        }
        let mut visited: FxHashSet<u64> = [s].into_iter().collect();
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (_, w) in self.out_edges(v)? {
                if w == t {
                    return Ok(true);
                }
                if visited.insert(w) {
                    queue.push_back(w);
                }
            }
        }
        Ok(false)
    }

    /// Does some `s → t` path spell a word of the pattern's language?
    /// Provided as a product-automaton BFS: states are `(node, nfa state)`,
    /// each popped state steps the NFA by the label of every out-row entry,
    /// and the target reached in an accepting state accepts — which handles
    /// the empty word (`s == t`, accepting start state) for free, matching
    /// the grammar engine's semantics.
    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let n = self.total_nodes();
        check_id(s, n)?;
        check_id(t, n)?;
        let nfa = compile_pattern(pattern)?;
        let mut visited: FxHashSet<(u64, u32)> = FxHashSet::default();
        let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
        for &q in nfa.start_states() {
            if visited.insert((s, q)) {
                queue.push_back((s, q));
            }
        }
        while let Some((v, q)) = queue.pop_front() {
            if v == t && nfa.is_accepting(q) {
                return Ok(true);
            }
            for (label, w) in self.out_edges(v)? {
                for q2 in nfa.step(q, label) {
                    if visited.insert((w, q2)) {
                        queue.push_back((w, q2));
                    }
                }
            }
        }
        Ok(false)
    }

    /// Number of connected components (undirected view; isolated nodes
    /// count). Provided as a union-find over the edge scan.
    fn components(&self) -> u64 {
        count_components(self.total_nodes() as usize, every_edge(self))
    }

    /// `(min, max)` undirected degree, `None` for the empty graph.
    /// Provided as a count over the edge scan.
    fn degree_extrema(&self) -> Option<(u64, u64)> {
        degree_extrema_of(self.total_nodes() as usize, every_edge(self))
    }
}

/// A named compression backend: [`Hypergraph`] → container bytes → live
/// [`QueryEngine`] (or back to a graph).
///
/// `encode` returns a complete container *file image* (header included),
/// so `GraphStore::from_bytes(codec.encode(&g)?)` round-trips for every
/// registered codec. `load`/`decode` receive the already-split payload —
/// header parsing and backend dispatch are the container layer's job, not
/// the codec's.
pub trait GraphCodec: Sync {
    /// Registered backend name — the container tag, the `--backend` value,
    /// and what `INFO`/`STATS` report.
    fn name(&self) -> &'static str;

    /// Compress `g` into a self-describing container image.
    ///
    /// Errors (rather than panicking) when the graph is outside the
    /// backend's model — hyperedges for any baseline, labeled edges for
    /// the unlabeled-only `lm`/`hn` formats.
    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError>;

    /// Build a query engine from a container payload.
    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError>;

    /// Decode a container payload back into a graph (the `decompress`
    /// path). Lossy exactly where the format is: the baselines deduplicate
    /// parallel edges, `lm`/`hn` keep only the unlabeled out-structure.
    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError>;
}

/// Every registered backend, in registry order (`grepair` first — it is
/// the default everywhere a backend is not named).
pub fn codecs() -> &'static [&'static dyn GraphCodec] {
    static CODECS: [&'static dyn GraphCodec; 4] = [&GrepairCodec, &K2Codec, &LmCodec, &HnCodec];
    &CODECS
}

/// Registered backend names, in registry order.
pub fn backend_names() -> Vec<&'static str> {
    codecs().iter().map(|c| c.name()).collect()
}

/// Look a codec up by name.
pub fn codec_for(name: &str) -> Option<&'static dyn GraphCodec> {
    codecs().iter().copied().find(|c| c.name() == name)
}

/// The error text for an unregistered backend name — the one message both
/// container dispatch and the CLI's `--backend` flag print, so the two
/// never drift.
pub fn unknown_backend_error(name: &str) -> String {
    format!(
        "unknown backend {name:?} (registered: {})",
        backend_names().join(", ")
    )
}

/// Look a codec up by name, with an error naming every registered backend.
pub fn resolve_codec(name: &str) -> Result<&'static dyn GraphCodec, GrepairError> {
    codec_for(name).ok_or_else(|| GrepairError::Container(unknown_backend_error(name)))
}

/// Wrap an encoded grammar in the legacy `.g2g` container format (the
/// gRePair backend's on-disk bytes, unchanged across the backend redesign).
pub fn write_container(bytes: &[u8], bit_len: u64) -> Vec<u8> {
    let mut file = Vec::with_capacity(bytes.len() + HEADER_LEN);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&bit_len.to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// Wrap a backend payload in the tagged container layout.
///
/// # Panics
/// If `backend` is not 1..=16 bytes of lower-case ASCII — backend names are
/// compile-time constants, so this is a programming error, not input.
pub(crate) fn write_tagged_container(backend: &str, bytes: &[u8], bit_len: u64) -> Vec<u8> {
    assert!(
        !backend.is_empty()
            && backend.len() <= 16
            && backend.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()),
        "invalid backend tag {backend:?}"
    );
    let mut file = Vec::with_capacity(bytes.len() + 14 + backend.len());
    file.extend_from_slice(TAGGED_MAGIC);
    file.push(TAGGED_VERSION);
    file.push(backend.len() as u8);
    file.extend_from_slice(backend.as_bytes());
    file.extend_from_slice(&bit_len.to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// Split any container image — legacy `.g2g` or tagged — into its backend
/// tag, claimed payload bit length, and payload. Only the *container* is
/// judged here; whether the payload actually holds `bit_len` coherent bits
/// is the codec's job.
///
/// The legacy-detection rule: a file starting with the old `G2G1` magic is
/// the pre-redesign gRePair container (12-byte header, no tag) and reports
/// backend [`GREPAIR`]; the tag of a tagged file is returned verbatim —
/// callers resolve it via [`resolve_codec`], so an unregistered tag names
/// every registered backend in its error.
pub fn split_any_container(file: &[u8]) -> Result<(&str, u64, &[u8]), GrepairError> {
    if let Some(rest) = file.strip_prefix(TAGGED_MAGIC) {
        let header = |what: &str| GrepairError::Container(format!("tagged container: {what}"));
        let (&[version, tag_len], rest) =
            rest.split_first_chunk::<2>().ok_or_else(|| header("truncated header"))?;
        if version != TAGGED_VERSION {
            return Err(header(&format!("unsupported version {version}")));
        }
        if !(1..=16).contains(&tag_len) {
            return Err(header(&format!("backend tag length {tag_len} out of range")));
        }
        let (tag, rest) = rest
            .split_at_checked(tag_len as usize)
            .ok_or_else(|| header("truncated header"))?;
        let tag = std::str::from_utf8(tag).map_err(|_| header("backend tag is not UTF-8"))?;
        let (bit_len, payload) =
            rest.split_first_chunk::<8>().ok_or_else(|| header("truncated header"))?;
        return Ok((tag, u64::from_le_bytes(*bit_len), payload));
    }
    let Some((header, payload)) = file.split_first_chunk::<HEADER_LEN>() else {
        return Err(GrepairError::Container(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            file.len()
        )));
    };
    let [m0, m1, m2, m3, bit_len @ ..] = *header;
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(GrepairError::Container("bad magic".into()));
    }
    Ok((GREPAIR, u64::from_le_bytes(bit_len), payload))
}

// ---------------------------------------------------------------------
// Shared engine plumbing
// ---------------------------------------------------------------------

pub(crate) fn check_id(v: u64, total: u64) -> Result<u32, GrepairError> {
    if v >= total {
        return Err(QueryError::NodeOutOfRange { id: v, total }.into());
    }
    Ok(v as u32)
}

/// A labeled row projected to its nodes, sorted and deduplicated (two
/// labels can lead to the same neighbor).
fn row_nodes(row: Vec<(u32, u64)>) -> Vec<u64> {
    let mut nodes: Vec<u64> = row.into_iter().map(|(_, w)| w).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Every edge of the served graph as an endpoint pair, one out-row per
/// node — the whole-graph aggregate input. Row errors cannot occur for
/// in-range ids, but the aggregate trait methods are infallible, so an
/// impossible error degrades to an empty row.
fn every_edge<E: QueryEngine + ?Sized>(engine: &E) -> impl Iterator<Item = (u32, u32)> + '_ {
    (0..engine.total_nodes()).flat_map(move |v| {
        let row = engine.out_edges(v).unwrap_or_default();
        row.into_iter().map(move |(_, w)| (v as u32, w as u32))
    })
}

/// Component count over an edge iterator (undirected view; isolated nodes
/// count — the same semantics as the grammar's one-pass evaluation).
fn count_components(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> u64 {
    let mut uf = grepair_hypergraph::traverse::UnionFind::new(n);
    for (a, b) in edges {
        uf.union(a, b);
    }
    uf.component_count() as u64
}

/// Degree extrema over an edge iterator (each edge adds one incidence per
/// endpoint, so a self-loop counts twice — matching `val(G)` semantics).
fn degree_extrema_of(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> Option<(u64, u64)> {
    if n == 0 {
        return None;
    }
    let mut deg = vec![0u64; n];
    for (a, b) in edges {
        // audited: engine edge endpoints are validated < n at decode time
        deg[a as usize] += 1;
        // audited: engine edge endpoints are validated < n at decode time
        deg[b as usize] += 1;
    }
    // audited: deg is non-empty: n == 0 returned None above
    let lo = *deg.iter().min().expect("n > 0");
    // audited: deg is non-empty: n == 0 returned None above
    let hi = *deg.iter().max().expect("n > 0");
    Some((lo, hi))
}

// ---------------------------------------------------------------------
// k² engine: per-label adjacency-matrix trees, queried in place
// ---------------------------------------------------------------------

/// The k²-tree backend's engine: one tree per edge label, rows answered by
/// row/column walks of every tree. Nothing is materialized per node — the
/// trees themselves are the resident representation, exactly as in \[21\].
#[derive(Debug)]
pub struct K2Engine {
    n: u32,
    trees: Vec<(u32, K2Tree)>,
}

impl K2Engine {
    /// The labeled row of `v`: `walk` (a row or a column walk) on each
    /// label's tree.
    fn row(
        &self,
        v: u64,
        walk: impl Fn(&K2Tree, u32) -> Vec<NodeId>,
    ) -> Result<Vec<(u32, u64)>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        let mut pairs = Vec::new();
        for (label, tree) in &self.trees {
            pairs.extend(walk(tree, v).into_iter().map(|w| (*label, w as u64)));
        }
        pairs.sort_unstable();
        pairs.dedup();
        Ok(pairs)
    }
}

impl QueryEngine for K2Engine {
    fn backend(&self) -> &'static str {
        K2
    }

    fn total_nodes(&self) -> u64 {
        self.n as u64
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.row(v, K2Tree::row)
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.row(v, K2Tree::col)
    }
}

// ---------------------------------------------------------------------
// Adjacency engine: decoded out-lists (the lm and hn backends)
// ---------------------------------------------------------------------

/// The engine behind the list-shaped backends (`lm`, `hn`): decoded,
/// unlabeled out-adjacency plus its in-inversion, built once at load.
/// These formats store single-label rank-2 structure only, so every edge
/// is label `0` for RPQ purposes.
#[derive(Debug)]
pub struct AdjEngine {
    backend: &'static str,
    out: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
}

impl AdjEngine {
    /// Build from sorted, deduplicated out-lists.
    fn from_out(backend: &'static str, out: Vec<Vec<NodeId>>) -> Self {
        let mut ins: Vec<Vec<NodeId>> = vec![Vec::new(); out.len()];
        for (v, outs) in out.iter().enumerate() {
            for &w in outs {
                // audited: out-list entries are validated < out.len() == ins.len() at decode time
                ins[w as usize].push(v as NodeId);
            }
        }
        // Ascending v pushes keep every in-list sorted; out-lists arrive
        // sorted+deduplicated from the decoders.
        Self { backend, out, ins }
    }

    /// The row of `v` in `lists`, every entry under label 0.
    fn row(lists: &[Vec<NodeId>], v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let v = check_id(v, lists.len() as u64)?;
        // audited: check_id just bounded v by lists.len()
        Ok(lists[v as usize].iter().map(|&w| (0, w as u64)).collect())
    }
}

impl QueryEngine for AdjEngine {
    fn backend(&self) -> &'static str {
        self.backend
    }

    fn total_nodes(&self) -> u64 {
        self.out.len() as u64
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        Self::row(&self.out, v)
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        Self::row(&self.ins, v)
    }
}

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

fn require_simple(g: &Hypergraph, backend: &str) -> Result<(), GrepairError> {
    for e in g.edges() {
        if !matches!(e.label, EdgeLabel::Terminal(_)) || e.att.len() != 2 {
            return Err(GrepairError::Unsupported(format!(
                "the {backend} backend encodes terminal rank-2 edges only"
            )));
        }
    }
    Ok(())
}

fn require_unlabeled(g: &Hypergraph, backend: &str) -> Result<(), GrepairError> {
    for e in g.edges() {
        if e.label != EdgeLabel::Terminal(0) || e.att.len() != 2 {
            return Err(GrepairError::Unsupported(format!(
                "the {backend} backend encodes unlabeled rank-2 edges only"
            )));
        }
    }
    Ok(())
}

fn adjacency_graph(out: &[Vec<NodeId>]) -> Hypergraph {
    let mut g = Hypergraph::with_nodes(out.len());
    for (v, outs) in out.iter().enumerate() {
        for &w in outs {
            g.add_edge(EdgeLabel::Terminal(0), &[v as NodeId, w]);
        }
    }
    g
}

/// The gRePair grammar backend. Writes the *legacy* `.g2g` container —
/// byte-identical to every pre-redesign file — and is recognized by magic
/// rather than tag.
pub struct GrepairCodec;

impl GraphCodec for GrepairCodec {
    fn name(&self) -> &'static str {
        GREPAIR
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        let out = grepair_core::compress(g, &grepair_core::GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        Ok(write_container(&enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        let grammar = decode_validated_grammar(payload, bit_len)?;
        Ok(Box::new(crate::engine::GrammarEngine::new(std::sync::Arc::new(grammar))))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(decode_validated_grammar(payload, bit_len)?.derive())
    }
}

/// Decode + revalidate a grammar payload: derivation and index building
/// must never run on structurally invalid rules (the §2 zero-panic policy).
pub(crate) fn decode_validated_grammar(
    payload: &[u8],
    bit_len: u64,
) -> Result<grepair_grammar::Grammar, GrepairError> {
    let grammar = grepair_codec::decode(payload, bit_len)?;
    grammar
        .validate()
        .map_err(|e| GrepairError::Codec(grepair_codec::CodecError::Malformed(e)))?;
    Ok(grammar)
}

/// The plain k²-tree backend (one tree per label).
pub struct K2Codec;

impl GraphCodec for K2Codec {
    fn name(&self) -> &'static str {
        K2
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_simple(g, K2)?;
        let enc = k2base::encode(g);
        Ok(write_tagged_container(K2, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        let (n, trees) = k2base::decode_trees(payload, bit_len)?;
        Ok(Box::new(K2Engine { n, trees }))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(k2base::decode(payload, bit_len)?)
    }
}

/// The list-merging backend.
pub struct LmCodec;

impl LmCodec {
    fn decode_adj(payload: &[u8], bit_len: u64) -> Result<Vec<Vec<NodeId>>, GrepairError> {
        let encoded = lm::LmEncoded { bytes: payload.to_vec(), bit_len };
        Ok(lm::decode(&encoded)?)
    }
}

impl GraphCodec for LmCodec {
    fn name(&self) -> &'static str {
        LM
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_unlabeled(g, LM)?;
        let enc = lm::encode(g);
        Ok(write_tagged_container(LM, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        Ok(Box::new(AdjEngine::from_out(LM, Self::decode_adj(payload, bit_len)?)))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(adjacency_graph(&Self::decode_adj(payload, bit_len)?))
    }
}

/// The virtual-node mining backend.
pub struct HnCodec;

impl HnCodec {
    fn decode_adj(payload: &[u8], bit_len: u64) -> Result<Vec<Vec<NodeId>>, GrepairError> {
        let rewired = hn::decode(payload, bit_len)?;
        // Budgeted expansion: hostile virtual-reference chains can make the
        // intermediate memo quadratically larger than the container.
        Ok(hn::try_expand(&rewired, hn::EXPAND_BUDGET)?)
    }
}

impl GraphCodec for HnCodec {
    fn name(&self) -> &'static str {
        HN
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_unlabeled(g, HN)?;
        let enc = hn::encode(g, &hn::HnParams::default());
        Ok(write_tagged_container(HN, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        Ok(Box::new(AdjEngine::from_out(HN, Self::decode_adj(payload, bit_len)?)))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(adjacency_graph(&Self::decode_adj(payload, bit_len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, 0u32, i + 1))).0
    }

    #[test]
    fn registry_is_complete_and_ordered() {
        assert_eq!(backend_names(), vec![GREPAIR, K2, LM, HN]);
        for c in codecs() {
            assert!(codec_for(c.name()).is_some());
        }
        assert!(codec_for("zpaq").is_none());
        let Err(err) = resolve_codec("zpaq").map(|c| c.name()) else {
            panic!("unknown backend must not resolve")
        };
        let err = err.to_string();
        assert!(err.contains("zpaq") && err.contains("grepair, k2, lm, hn"), "{err}");
    }

    #[test]
    fn tagged_container_round_trips() {
        for name in [K2, LM, HN] {
            let file = write_tagged_container(name, b"payload", 56);
            let (tag, bit_len, payload) = split_any_container(&file).unwrap();
            assert_eq!(tag, name);
            assert_eq!(bit_len, 56);
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn legacy_magic_is_detected_as_grepair() {
        let file = write_container(b"xyz", 24);
        let (tag, bit_len, payload) = split_any_container(&file).unwrap();
        assert_eq!(tag, GREPAIR);
        assert_eq!(bit_len, 24);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn hostile_headers_error_cleanly() {
        for junk in [
            &b""[..],
            b"G2",
            b"G2GC",
            b"G2GC\x02",
            b"G2GC\x03\x02k2aaaaaaaa",   // wrong version
            b"G2GC\x02\x00aaaaaaaa",     // zero tag length
            b"G2GC\x02\x7faaaaaaaa",     // absurd tag length
            b"G2GC\x02\x02k2",           // truncated before bit length
            b"not a container at all..",
        ] {
            assert!(split_any_container(junk).is_err(), "{junk:?}");
        }
        // Non-UTF-8 tag.
        let mut file = write_tagged_container(K2, b"", 0);
        file[6] = 0xFF;
        assert!(split_any_container(&file).is_err());
    }

    #[test]
    fn every_codec_round_trips_a_path_graph() {
        let g = path_graph(30);
        for codec in codecs() {
            let file = codec.encode(&g).unwrap();
            let (tag, bit_len, payload) = split_any_container(&file).unwrap();
            assert_eq!(tag, codec.name());
            let engine = codec.load(payload, bit_len).unwrap();
            assert_eq!(engine.backend(), codec.name());
            assert_eq!(engine.total_nodes(), 30, "{}", codec.name());
            // The grammar backend renumbers nodes (FP order), so locate the
            // path's endpoints structurally instead of by input id.
            let head = (0..30)
                .find(|&v| engine.in_neighbors(v).unwrap().is_empty())
                .expect("path head");
            let tail = (0..30)
                .find(|&v| engine.out_neighbors(v).unwrap().is_empty())
                .expect("path tail");
            assert_ne!(head, tail);
            assert_eq!(engine.out_neighbors(head).unwrap().len(), 1, "{}", codec.name());
            assert_eq!(engine.in_neighbors(tail).unwrap().len(), 1, "{}", codec.name());
            let mid = engine.out_neighbors(head).unwrap()[0];
            assert_eq!(engine.neighbors(mid).unwrap().len(), 2, "{}", codec.name());
            assert!(engine.reachable(head, tail).unwrap(), "{}", codec.name());
            assert!(!engine.reachable(tail, head).unwrap(), "{}", codec.name());
            // The labeled edge primitive agrees with the neighbor views
            // (the whole path is label 0 for every backend).
            assert_eq!(engine.out_edges(head).unwrap(), vec![(0, mid)], "{}", codec.name());
            assert_eq!(engine.in_edges(mid).unwrap(), vec![(0, head)], "{}", codec.name());
            assert!(engine.out_edges(30).is_err(), "{}", codec.name());
            assert!(engine.in_edges(1 << 40).is_err(), "{}", codec.name());
            let two_away = engine.out_neighbors(mid).unwrap()[0];
            assert!(engine.rpq("0 0", head, two_away).unwrap(), "{}", codec.name());
            assert!(engine.rpq("0*", 5, 5).unwrap(), "{}", codec.name());
            assert!(!engine.rpq("0", head, two_away).unwrap(), "{}", codec.name());
            assert_eq!(engine.components(), 1, "{}", codec.name());
            assert_eq!(engine.degree_extrema(), Some((1, 2)), "{}", codec.name());
            // Out-of-range ids are clean errors naming the range.
            let err = engine.out_neighbors(30).unwrap_err().to_string();
            assert!(err.contains("out of range") && err.contains("0..30"), "{err}");
            assert!(engine.reachable(1 << 40, 0).is_err(), "{}", codec.name());
            assert!(engine.rpq("0", 0, u64::MAX).is_err(), "{}", codec.name());
            // And the decode path reproduces the edge set.
            let back = codec.decode(payload, bit_len).unwrap();
            assert_eq!(back.num_edges(), 29, "{}", codec.name());
        }
    }

    #[test]
    fn labeled_graphs_are_rejected_by_unlabeled_backends() {
        let g = Hypergraph::from_simple_edges(4, [(0u32, 1u32, 1u32), (1, 0, 2)]).0;
        for name in [LM, HN] {
            let err = codec_for(name).unwrap().encode(&g).unwrap_err();
            assert!(matches!(err, GrepairError::Unsupported(_)), "{name}: {err}");
        }
        // k2 accepts labels, grepair accepts anything.
        assert!(codec_for(K2).unwrap().encode(&g).is_ok());
        assert!(codec_for(GREPAIR).unwrap().encode(&g).is_ok());
    }

    #[test]
    fn k2_engine_answers_labeled_rpqs() {
        // 0 -a-> 1 -b-> 2, labels a=0, b=1.
        let g = Hypergraph::from_simple_edges(3, [(0u32, 0u32, 1u32), (1, 1, 2)]).0;
        let codec = codec_for(K2).unwrap();
        let file = codec.encode(&g).unwrap();
        let (_, bit_len, payload) = split_any_container(&file).unwrap();
        let engine = codec.load(payload, bit_len).unwrap();
        assert!(engine.rpq("0 1", 0, 2).unwrap());
        assert!(!engine.rpq("1 0", 0, 2).unwrap());
        assert!(engine.rpq("0 1?", 0, 1).unwrap());
        assert!(!engine.rpq("2", 0, 1).unwrap());
        // The labeled edge primitive keeps the per-label structure.
        assert_eq!(engine.out_edges(1).unwrap(), vec![(1, 2)]);
        assert_eq!(engine.in_edges(1).unwrap(), vec![(0, 0)]);
        assert_eq!(engine.out_edges(2).unwrap(), vec![]);
    }
}
