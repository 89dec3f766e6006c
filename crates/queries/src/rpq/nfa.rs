//! A small NFA over terminal edge labels, built from a regex AST via
//! Thompson construction with ε-elimination in time linear in the states
//! plus the transitions it produces.

use crate::adjacency::label_run;
use grepair_util::FxHashSet;

/// Regular expression over terminal labels.
#[derive(Debug, Clone)]
pub enum Regex {
    /// A single edge label.
    Label(u32),
    /// Concatenation.
    Cat(Vec<Regex>),
    /// Alternation.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more.
    Plus(Box<Regex>),
    /// Zero or one.
    Opt(Box<Regex>),
}

impl Regex {
    /// `Label` shorthand.
    pub fn label(l: u32) -> Regex {
        Regex::Label(l)
    }

    /// `Cat` shorthand.
    pub fn cat(parts: Vec<Regex>) -> Regex {
        Regex::Cat(parts)
    }

    /// `Alt` shorthand.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        Regex::Alt(parts)
    }

    /// `Star` shorthand.
    pub fn star(inner: Regex) -> Regex {
        Regex::Star(Box::new(inner))
    }

    /// `Plus` shorthand.
    pub fn plus(inner: Regex) -> Regex {
        Regex::Plus(Box::new(inner))
    }

    /// `Opt` shorthand.
    pub fn opt(inner: Regex) -> Regex {
        Regex::Opt(Box::new(inner))
    }
}

/// ε-free NFA over edge labels, kept as per-state transition rows in both
/// directions so that a step is a lookup in one short sorted row.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Per state: its transitions as `(label, next state)` and — second
    /// table — the transitions into it as `(label, previous state)`, sorted.
    rows: [Vec<Vec<(u32, u32)>>; 2],
    start: Vec<u32>,
    /// Ascending.
    accept: Vec<u32>,
}

impl Nfa {
    /// Number of states.
    pub fn num_states(&self) -> u32 {
        self.rows[0].len() as u32
    }

    /// Start states (ε-closed).
    pub fn start_states(&self) -> &[u32] {
        &self.start
    }

    /// Accepting states.
    pub fn accept_states(&self) -> &[u32] {
        &self.accept
    }

    /// Is `q` accepting?
    pub fn is_accepting(&self, q: u32) -> bool {
        self.accept.binary_search(&q).is_ok()
    }

    /// The transitions leaving `q` (`backward`: entering it) as `(label,
    /// other state)`, sorted by label.
    pub(crate) fn row(&self, q: u32, backward: bool) -> &[(u32, u32)] {
        &self.rows[backward as usize][q as usize]
    }

    /// Successor states of `q` on `label`.
    pub fn step(&self, q: u32, label: u32) -> impl Iterator<Item = u32> + '_ {
        label_run(self.row(q, false), label).iter().map(|&(_, next)| next)
    }

    /// Predecessor states of `q` on `label`.
    pub fn step_back(&self, q: u32, label: u32) -> impl Iterator<Item = u32> + '_ {
        label_run(self.row(q, true), label).iter().map(|&(_, prev)| prev)
    }

    /// Does the NFA accept this label word?
    pub fn accepts(&self, word: &[u32]) -> bool {
        let mut current: FxHashSet<u32> = self.start.iter().copied().collect();
        for &label in word {
            current = current
                .iter()
                .flat_map(|&q| self.step(q, label))
                .collect();
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|&q| self.is_accepting(q))
    }

    /// Thompson construction with ε-elimination.
    pub fn from_regex(re: &Regex) -> Nfa {
        // ε-NFA: states with ε edges, then close.
        let mut b = Builder::default();
        let start = b.fresh();
        let end = b.fresh();
        b.build(re, start, end);
        b.finish(start, end)
    }
}

/// The ε-NFA under construction, both edge lists indexed by source state.
#[derive(Default)]
struct Builder {
    eps: Vec<Vec<u32>>,
    trans: Vec<Vec<(u32, u32)>>,
}

impl Builder {
    fn fresh(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.trans.push(Vec::new());
        self.eps.len() as u32 - 1
    }

    fn build(&mut self, re: &Regex, from: u32, to: u32) {
        match re {
            Regex::Label(l) => self.trans[from as usize].push((*l, to)),
            Regex::Cat(parts) => {
                if parts.is_empty() {
                    self.eps[from as usize].push(to);
                    return;
                }
                let mut cur = from;
                for (i, part) in parts.iter().enumerate() {
                    let nxt = if i + 1 == parts.len() { to } else { self.fresh() };
                    self.build(part, cur, nxt);
                    cur = nxt;
                }
            }
            Regex::Alt(parts) => {
                for part in parts {
                    self.build(part, from, to);
                }
            }
            Regex::Star(inner) => {
                let mid = self.fresh();
                self.eps[from as usize].push(mid);
                self.eps[mid as usize].push(to);
                self.build(inner, mid, mid);
            }
            Regex::Plus(inner) => {
                let mid = self.fresh();
                self.build(inner, from, mid);
                self.eps[mid as usize].push(to);
                self.build(inner, mid, mid);
            }
            Regex::Opt(inner) => {
                self.eps[from as usize].push(to);
                self.build(inner, from, to);
            }
        }
    }

    /// Eliminate ε: a transition `(c, l, r)` becomes `(q, l, r)` for every
    /// `q` whose ε-closure holds `c`; accepting are the states whose closure
    /// holds `end`. Every closure is one DFS over the by-source lists with a
    /// stamp array and rows are deduplicated by sorting, so the cost is the
    /// number of states plus the transitions produced.
    fn finish(self, start: u32, end: u32) -> Nfa {
        let n = self.eps.len();
        let (mut fwd, mut bwd) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let mut accepting = vec![false; n];
        // `stamp[c] == q` once `c` has been put into the closure of `q`.
        let (mut stamp, mut stack) = (vec![u32::MAX; n], Vec::new());
        for q in 0..n as u32 {
            let row: &mut Vec<(u32, u32)> = &mut fwd[q as usize];
            stamp[q as usize] = q;
            stack.push(q);
            while let Some(c) = stack.pop() {
                accepting[q as usize] |= c == end;
                row.extend_from_slice(&self.trans[c as usize]);
                for &d in &self.eps[c as usize] {
                    if std::mem::replace(&mut stamp[d as usize], q) != q {
                        stack.push(d);
                    }
                }
            }
            row.sort_unstable();
            row.dedup();
            for &(l, b) in row.iter() {
                bwd[b as usize].push((l, q));
            }
        }
        bwd.iter_mut().for_each(|row| row.sort_unstable());
        let accept = (0..n as u32).filter(|&q| accepting[q as usize]).collect();
        Nfa { rows: [fwd, bwd], start: vec![start], accept }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_acceptance() {
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::label(0), Regex::label(1)]));
        assert!(nfa.accepts(&[0, 1]));
        assert!(!nfa.accepts(&[0]));
        assert!(!nfa.accepts(&[1, 0]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn star_accepts_empty_and_repeats() {
        let nfa = Nfa::from_regex(&Regex::star(Regex::label(2)));
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[2]));
        assert!(nfa.accepts(&[2, 2, 2, 2]));
        assert!(!nfa.accepts(&[2, 0]));
    }

    #[test]
    fn plus_requires_one() {
        let nfa = Nfa::from_regex(&Regex::plus(Regex::label(1)));
        assert!(!nfa.accepts(&[]));
        assert!(nfa.accepts(&[1]));
        assert!(nfa.accepts(&[1, 1]));
    }

    #[test]
    fn alternation() {
        let nfa = Nfa::from_regex(&Regex::alt(vec![Regex::label(0), Regex::label(1)]));
        assert!(nfa.accepts(&[0]));
        assert!(nfa.accepts(&[1]));
        assert!(!nfa.accepts(&[0, 1]));
    }

    #[test]
    fn optional() {
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::label(0),
            Regex::opt(Regex::label(1)),
            Regex::label(0),
        ]));
        assert!(nfa.accepts(&[0, 0]));
        assert!(nfa.accepts(&[0, 1, 0]));
        assert!(!nfa.accepts(&[0, 1, 1, 0]));
    }

    #[test]
    fn nested_composition() {
        // (a b)* a
        let nfa = Nfa::from_regex(&Regex::cat(vec![
            Regex::star(Regex::cat(vec![Regex::label(0), Regex::label(1)])),
            Regex::label(0),
        ]));
        assert!(nfa.accepts(&[0]));
        assert!(nfa.accepts(&[0, 1, 0]));
        assert!(nfa.accepts(&[0, 1, 0, 1, 0]));
        assert!(!nfa.accepts(&[0, 1]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn step_and_back_are_consistent() {
        let nfa = Nfa::from_regex(&Regex::plus(Regex::label(3)));
        for q in 0..nfa.num_states() {
            for next in nfa.step(q, 3).collect::<Vec<_>>() {
                assert!(nfa.step_back(next, 3).any(|p| p == q));
            }
        }
    }

    /// The parent commit's construction, kept as the reference: ε-closures
    /// by rescanning every ε-edge, transitions deduplicated by `contains`,
    /// acceptance by scanning the transition list.
    fn reference_accepts(re: &Regex, word: &[u32]) -> bool {
        let mut b = Builder::default();
        let (start, end) = (b.fresh(), b.fresh());
        b.build(re, start, end);
        let eps: Vec<(u32, u32)> =
            (0..).zip(&b.eps).flat_map(|(a, tos)| tos.iter().map(move |&to| (a, to))).collect();
        let trans: Vec<(u32, u32, u32)> =
            (0..).zip(&b.trans).flat_map(|(a, row)| row.iter().map(move |&(l, to)| (a, l, to))).collect();
        let closure = |q: u32| {
            let (mut seen, mut stack) = (vec![q], vec![q]);
            while let Some(x) = stack.pop() {
                for &(a, to) in &eps {
                    if a == x && !seen.contains(&to) {
                        seen.push(to);
                        stack.push(to);
                    }
                }
            }
            seen
        };
        let mut transitions = Vec::new();
        for q in 0..b.eps.len() as u32 {
            for c in closure(q) {
                for &(a, l, to) in &trans {
                    if a == c && !transitions.contains(&(q, l, to)) {
                        transitions.push((q, l, to));
                    }
                }
            }
        }
        let mut current = vec![start];
        for &label in word {
            let step = |&q: &u32| transitions.iter().filter(move |t| t.0 == q && t.1 == label).map(|t| t.2);
            current = current.iter().flat_map(step).collect();
        }
        current.iter().any(|&q| closure(q).contains(&end))
    }

    #[test]
    fn row_construction_agrees_with_the_reference_on_every_word_above() {
        let (l, cat) = (Regex::label, Regex::cat);
        let patterns = [
            cat(vec![l(0), l(1)]),
            Regex::star(l(2)),
            Regex::plus(l(1)),
            Regex::alt(vec![l(0), l(1)]),
            cat(vec![l(0), Regex::opt(l(1)), l(0)]),
            cat(vec![Regex::star(cat(vec![l(0), l(1)])), l(0)]),
            cat(vec![]),
        ];
        let words: [&[u32]; 17] = [
            &[], &[0], &[1], &[2], &[0, 1], &[1, 0], &[0, 0], &[1, 1], &[2, 0], &[0, 1, 0],
            &[0, 1, 1, 0], &[2, 2, 2, 2], &[0, 1, 0, 1, 0], &[0, 1, 0, 1], &[1, 1, 1], &[0, 0, 0], &[2, 2],
        ];
        for re in &patterns {
            let nfa = Nfa::from_regex(re);
            for word in words {
                assert_eq!(nfa.accepts(word), reference_accepts(re, word), "{re:?} on {word:?}");
            }
        }
    }

    #[test]
    fn the_longest_served_pattern_compiles_in_linear_time() {
        // 256 × `0*`: start and end, 255 states between the atoms, one per
        // star. The parent's construction took seconds here.
        let nfa = Nfa::from_regex(&Regex::cat(vec![Regex::star(Regex::label(0)); 256]));
        assert_eq!(nfa.num_states(), 513);
        assert!(nfa.accepts(&[]) && nfa.accepts(&[0; 300]) && !nfa.accepts(&[0, 1]));
        for q in 0..nfa.num_states() {
            assert!(nfa.row(q, false).is_sorted() && nfa.row(q, true).is_sorted());
            assert!(nfa.step(q, 0).all(|next| nfa.step_back(next, 0).any(|p| p == q)));
        }
    }
}
