//! A context graph's edges laid out for product searches, independent of any
//! pattern: per node slot one row of terminal out-edges, one of terminal
//! in-edges and one of nonterminal incidences, each a slice of one array.
//!
//! Terminal rows are sorted by label, so the edges one NFA transition can
//! follow are one contiguous run ([`label_run`]); nonterminal rows are cut
//! into runs of equal `(nonterminal, position)`, so a hub carrying thousands
//! of same-shaped nonterminal edges looks a relation cell up once per run,
//! not once per edge. Built once per grammar for S and every right-hand
//! side and shared by every compiled pattern ([`crate::rpq::RpqShared`]).

use grepair_hypergraph::{EdgeId, EdgeLabel, Hypergraph, NodeId};

/// Rows of `T` in one allocation: row `i` is
/// `entries[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
pub(crate) struct Rows<T> {
    offsets: Vec<u32>,
    entries: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// No rows yet; [`Rows::push_row`] appends them.
    pub(crate) fn new() -> Self {
        Self { offsets: vec![0], entries: Vec::new() }
    }

    /// `rows` rows filled from `(row, entry)` pairs sorted by row.
    pub(crate) fn from_sorted(rows: usize, pairs: impl IntoIterator<Item = (usize, T)>) -> Self {
        let mut out = Self::new();
        out.offsets.reserve_exact(rows);
        let mut pairs = pairs.into_iter().peekable();
        for row in 0..rows {
            out.push_row(std::iter::from_fn(|| pairs.next_if(|&(r, _)| r == row)).map(|(_, entry)| entry));
        }
        out.entries.shrink_to_fit();
        out
    }

    /// Append one row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.entries.extend(row);
        self.offsets.push(self.end());
    }

    fn end(&self) -> u32 {
        u32::try_from(self.entries.len()).expect("fewer than 2^32 entries per table")
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The entries of a label-sorted row that carry `label`.
pub(crate) fn label_run<T>(row: &[(u32, T)], label: u32) -> &[(u32, T)] {
    let from = row.partition_point(|&(l, _)| l < label);
    let len = row[from..].partition_point(|&(l, _)| l == label);
    &row[from..from + len]
}

/// The row tables of one context graph.
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// Rank-2 terminal edges leaving a node, as `(label, to)`.
    out: Rows<(u32, NodeId)>,
    /// Rank-2 terminal edges entering a node, as `(label, from)`.
    inn: Rows<(u32, NodeId)>,
    /// The nonterminal edges attached to a node, grouped into runs of equal
    /// (nonterminal, position of the node in the attachment) …
    nt_edges: Rows<EdgeId>,
    /// … and those runs as `(nonterminal, position, length)`.
    nt_runs: Rows<(u32, u8, u32)>,
}

impl Adjacency {
    /// Lay out `g` in one pass over its edges and a sort per table.
    pub(crate) fn new(g: &Hypergraph) -> Self {
        let (mut out, mut inn, mut nts) = (Vec::new(), Vec::new(), Vec::new());
        for e in g.edges() {
            match e.label {
                EdgeLabel::Terminal(label) => {
                    if let [from, to] = *e.att {
                        out.push((from as usize, (label, to)));
                        inn.push((to as usize, (label, from)));
                    }
                }
                EdgeLabel::Nonterminal(nt) => {
                    nts.extend(e.att.iter().enumerate().map(|(pos, &v)| (v as usize, nt, pos as u8, e.id)))
                }
            }
        }
        out.sort_unstable();
        inn.sort_unstable();
        nts.sort_unstable();
        let n = g.node_bound();
        let runs = nts.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2));
        Self {
            out: Rows::from_sorted(n, out),
            inn: Rows::from_sorted(n, inn),
            nt_edges: Rows::from_sorted(n, nts.iter().map(|&(v, _, _, e)| (v, e))),
            nt_runs: Rows::from_sorted(n, runs.map(|run| (run[0].0, (run[0].1, run[0].2, run.len() as u32)))),
        }
    }

    /// The terminal edges leaving `v` (`backward`: entering it), sorted by
    /// label.
    pub(crate) fn terminals(&self, v: NodeId, backward: bool) -> &[(u32, NodeId)] {
        if backward { self.inn.row(v as usize) } else { self.out.row(v as usize) }
    }

    /// The nonterminal incidences of `v`: its runs as `(nonterminal,
    /// position, length)` and the edges those lengths cut up, in order.
    pub(crate) fn nonterminals(&self, v: NodeId) -> (&[(u32, u8, u32)], &[EdgeId]) {
        (self.nt_runs.row(v as usize), self.nt_edges.row(v as usize))
    }
}
