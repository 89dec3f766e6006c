//! The harness's own picture of the served graph: a plain labeled edge set
//! built from the decoded graph and moved forward by every patch it sends.
//! It shares no code with the store, so it is what wire replies from a
//! patched head are checked against.

use std::collections::HashSet;

use grepair_hypergraph::{EdgeLabel, Hypergraph};
use grepair_store::{EdgePatch, PatchOp, Query, QueryAnswer};

type Triple = (u64, u32, u64);

#[derive(Debug, Clone)]
pub struct Model {
    /// `out[s]` = sorted `(label, t)`; grows when a patch names a new node.
    out: Vec<Vec<(u32, u64)>>,
    /// `inn[t]` = sorted `(label, s)`.
    inn: Vec<Vec<(u32, u64)>>,
    /// Edges the patches added on top of the base / removed from it, folded
    /// the way the `PATCH` reply counts them (an added-then-deleted edge
    /// counts for neither).
    added: HashSet<Triple>,
    removed: HashSet<Triple>,
    labels: u32,
}

fn insert_sorted(row: &mut Vec<(u32, u64)>, pair: (u32, u64)) {
    if let Err(at) = row.binary_search(&pair) {
        row.insert(at, pair);
    }
}

fn remove_sorted(row: &mut Vec<(u32, u64)>, pair: (u32, u64)) {
    if let Ok(at) = row.binary_search(&pair) {
        row.remove(at);
    }
}

fn ids(row: &[(u32, u64)]) -> Vec<u64> {
    let mut ids: Vec<u64> = row.iter().map(|&(_, v)| v).collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl Model {
    pub fn from_graph(g: &Hypergraph) -> Self {
        let n = g.node_bound();
        let (mut out, mut inn) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let mut labels = 0;
        for e in g.edges() {
            let (EdgeLabel::Terminal(label), &[s, t]) = (e.label, e.att) else {
                unreachable!("a derived graph holds only terminal rank-2 edges")
            };
            out[s as usize].push((label, u64::from(t)));
            inn[t as usize].push((label, u64::from(s)));
            labels = labels.max(label + 1);
        }
        for row in out.iter_mut().chain(inn.iter_mut()) {
            row.sort_unstable();
            row.dedup();
        }
        Self {
            out,
            inn,
            added: HashSet::new(),
            removed: HashSet::new(),
            labels,
        }
    }

    pub fn nodes(&self) -> u64 {
        self.out.len() as u64
    }

    pub fn labels(&self) -> u32 {
        self.labels
    }

    pub fn out_edges(&self, v: u64) -> &[(u32, u64)] {
        &self.out[v as usize]
    }

    pub fn degree(&self, v: u64) -> usize {
        self.out[v as usize].len() + self.inn[v as usize].len()
    }

    pub fn has(&self, s: u64, label: u32, t: u64) -> bool {
        self.out
            .get(s as usize)
            .is_some_and(|row| row.binary_search(&(label, t)).is_ok())
    }

    /// Cumulative `(added, removed)` against the base, as `PATCH` reports.
    pub fn delta(&self) -> (usize, usize) {
        (self.added.len(), self.removed.len())
    }

    /// The answer to a neighbor query (`None` for any other verb).
    pub fn answer(&self, q: &Query) -> Option<QueryAnswer> {
        let nodes = match *q {
            Query::OutNeighbors(v) => ids(&self.out[v as usize]),
            Query::InNeighbors(v) => ids(&self.inn[v as usize]),
            Query::Neighbors(v) => {
                let mut both = ids(&self.out[v as usize]);
                both.extend(ids(&self.inn[v as usize]));
                both.sort_unstable();
                both.dedup();
                both
            }
            _ => return None,
        };
        Some(QueryAnswer::Nodes(nodes))
    }

    /// Apply a patch the caller has already made valid (an `ADD` of an
    /// absent edge, a `DEL` of a present one).
    pub fn apply(&mut self, p: &EdgePatch) {
        let triple = (p.s, p.label, p.t);
        let bound = (p.s.max(p.t) + 1) as usize;
        if self.out.len() < bound {
            self.out.resize(bound, Vec::new());
            self.inn.resize(bound, Vec::new());
        }
        match p.op {
            PatchOp::Add => {
                insert_sorted(&mut self.out[p.s as usize], (p.label, p.t));
                insert_sorted(&mut self.inn[p.t as usize], (p.label, p.s));
                if !self.removed.remove(&triple) {
                    self.added.insert(triple);
                }
            }
            PatchOp::Del => {
                remove_sorted(&mut self.out[p.s as usize], (p.label, p.t));
                remove_sorted(&mut self.inn[p.t as usize], (p.label, p.s));
                if !self.added.remove(&triple) {
                    self.removed.insert(triple);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patch(op: PatchOp, s: u64, label: u32, t: u64) -> EdgePatch {
        EdgePatch { op, s, label, t }
    }

    #[test]
    fn answers_and_folds_like_the_overlay() {
        let (g, _) = Hypergraph::from_simple_edges(4, [(0u32, 0u32, 1u32), (0, 1, 1), (2, 0, 0)]);
        let mut m = Model::from_graph(&g);
        assert_eq!(
            m.answer(&Query::OutNeighbors(0)),
            Some(QueryAnswer::Nodes(vec![1]))
        );
        assert_eq!(
            m.answer(&Query::Neighbors(0)),
            Some(QueryAnswer::Nodes(vec![1, 2]))
        );
        assert_eq!(
            m.answer(&Query::InNeighbors(3)),
            Some(QueryAnswer::Nodes(vec![]))
        );
        assert_eq!(m.answer(&Query::Components), None);

        m.apply(&patch(PatchOp::Add, 3, 0, 5));
        assert_eq!((m.nodes(), m.delta()), (6, (1, 0)));
        assert_eq!(
            m.answer(&Query::InNeighbors(5)),
            Some(QueryAnswer::Nodes(vec![3]))
        );
        m.apply(&patch(PatchOp::Del, 3, 0, 5));
        assert_eq!(m.delta(), (0, 0), "added then deleted folds back");
        m.apply(&patch(PatchOp::Del, 0, 1, 1));
        assert_eq!(m.delta(), (0, 1));
        assert_eq!(
            m.answer(&Query::OutNeighbors(0)),
            Some(QueryAnswer::Nodes(vec![1])),
            "label 0 still links 0 to 1"
        );
        m.apply(&patch(PatchOp::Add, 0, 1, 1));
        assert_eq!(m.delta(), (0, 0), "a resurrected base edge folds back");
        assert!(m.has(0, 1, 1) && !m.has(3, 0, 5));
    }
}
