//! Everything a run sends, drawn from `--seed` before the first timed
//! round: the in-process query streams, the wire request streams, the patch
//! list with its interleaved reads — and what each must be answered with,
//! from sources independent of the code under test (the edge-set [`Model`],
//! BFS on the decoded graph).

use grepair_hypergraph::{traverse, Hypergraph};
use grepair_queries::rpq::rpq_on_graph;
use grepair_store::{compile_pattern, EdgePatch, PatchOp, Query, QueryAnswer};
use grepair_util::FxHashMap;

use crate::model::Model;
use crate::rng::Rng;
use crate::spec::{Counts, Mix, Workload, READS_PER_PATCH};

/// Distinct `reach` pairs and `rpq` triples per run. Each costs one BFS on
/// the decoded graph at set-up, which is what bounds the pool.
pub const POOL: usize = 1024;
/// Share of wire ids drawn from the hot set, and the hot set's share of
/// the nodes.
const HOT_PERCENT: u64 = 80;
const HOT_FRACTION: u64 = 64;

/// Newline-terminated request lines in one buffer, so a window of them is
/// one `write_all`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Lines {
    pub bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    pub fn push(&mut self, line: &str) {
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        self.ends.push(self.bytes.len());
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i`, without its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let with_newline = self.span(i, i + 1);
        &with_newline[..with_newline.len() - 1]
    }

    /// The bytes of lines `from..to`, newlines included.
    pub fn span(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }
}

pub fn query_line(q: &Query) -> String {
    match q {
        Query::OutNeighbors(v) => format!("out {v}"),
        Query::InNeighbors(v) => format!("in {v}"),
        Query::Neighbors(v) => format!("neighbors {v}"),
        Query::Reach { s, t } => format!("reach {s} {t}"),
        Query::Rpq { s, t, pattern } => format!("rpq {s} {t} {pattern}"),
        Query::Components => "components".into(),
        Query::DegreeExtrema => "degrees".into(),
    }
}

/// A read-only request stream: the queries and their wire form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stream {
    pub queries: Vec<Query>,
    pub lines: Lines,
}

impl Stream {
    fn push(&mut self, q: Query) {
        self.lines.push(&query_line(&q));
        self.queries.push(q);
    }

    /// The first `count` requests as a stream of their own.
    pub fn prefix(&self, count: usize) -> Stream {
        let mut head = Stream::default();
        for q in &self.queries[..count] {
            head.push(q.clone());
        }
        head
    }
}

/// One round's patch slice: `PATCH` lines, each followed by reads, with the
/// reply every line must get.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatchRound {
    pub lines: Lines,
    pub is_patch: Vec<bool>,
    pub expected: Lines,
    pub patches: Vec<EdgePatch>,
}

/// O(1) digest of an in-process answer, folded inside the timed loops (it
/// doubles as the optimisation barrier). Every distinct answer is compared
/// in full at set-up; this only has to notice an answer changing later.
pub fn signature(answer: &QueryAnswer) -> u64 {
    match answer {
        QueryAnswer::Nodes(ids) => (ids.len() as u64)
            .wrapping_add(ids.first().copied().unwrap_or(0))
            .wrapping_add(ids.last().copied().unwrap_or(0)),
        QueryAnswer::Bool(b) => u64::from(*b),
        QueryAnswer::Count(n) => *n,
        QueryAnswer::Extrema(_) => 0,
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// What every read must be answered with: neighbor verbs from the edge-set
/// models, `reach`/`rpq` from the BFS verdicts taken at set-up.
pub struct Oracle {
    /// The decoded graph, never patched: what `default` and `@v0` serve.
    pub base: Model,
    /// `base` moved forward by every patch sent so far.
    pub head: Model,
    reads_on_head: bool,
    truths: FxHashMap<Query, bool>,
    /// Digest of the expected reply line per stream query.
    memo: FxHashMap<Query, u64>,
}

impl Oracle {
    fn answer_from(&self, model: &Model, q: &Query) -> QueryAnswer {
        match q {
            Query::Reach { .. } | Query::Rpq { .. } => QueryAnswer::Bool(self.truths[q]),
            _ => model
                .answer(q)
                .expect("streams hold neighbor, reach and rpq queries only"),
        }
    }

    pub fn base_answer(&self, q: &Query) -> QueryAnswer {
        self.answer_from(&self.base, q)
    }

    /// Digest of the reply line a wire read of the workload's read target
    /// must get right now.
    pub fn reply_digest(&mut self, q: &Query) -> u64 {
        if let Some(&digest) = self.memo.get(q) {
            return digest;
        }
        let model = if self.reads_on_head {
            &self.head
        } else {
            &self.base
        };
        let digest = fnv(self.answer_from(model, q).to_string().as_bytes());
        self.memo.insert(q.clone(), digest);
        digest
    }

    pub fn knows(&self, q: &Query) -> bool {
        self.memo.contains_key(q)
    }

    /// Move the head past one round's patches.
    pub fn advance(&mut self, patches: &[EdgePatch]) {
        for p in patches {
            self.head.apply(p);
        }
        if self.reads_on_head {
            self.memo.clear();
        }
    }
}

pub struct Plan {
    /// In-process neighbor slice: uniform ids, even positions `out`, odd `in`.
    pub neighbor_ids: Vec<u32>,
    pub neighbors_digest: u64,
    /// The `reach` / `rpq` pools; the in-process slices cycle through them.
    pub reach: Vec<Query>,
    pub rpq: Vec<Query>,
    pub reach_digest: u64,
    pub rpq_digest: u64,
    pub wire1: Stream,
    pub wire64: Stream,
    /// One entry per round, warm-up first.
    pub patch_rounds: Vec<PatchRound>,
    pub oracle: Oracle,
}

pub fn neighbor_query(position: usize, id: u32) -> Query {
    if position.is_multiple_of(2) {
        Query::OutNeighbors(u64::from(id))
    } else {
        Query::InNeighbors(u64::from(id))
    }
}

/// The hot set: the `1/64` highest-degree nodes. Drawn at random instead,
/// whether the 6 000-neighbor hub lands in it would be a coin flip per seed
/// that moves every wire metric by tens of percent; popular nodes being the
/// hot ones is also the realistic case.
fn hot_set(model: &Model) -> Vec<u64> {
    let mut by_degree: Vec<u64> = (0..model.nodes()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(model.degree(v)), v));
    by_degree.truncate((model.nodes() / HOT_FRACTION).max(1) as usize);
    by_degree
}

/// Seeded walks over the decoded graph: even entries end where the walk
/// ended (positives), odd ones at another entry's start (mostly
/// negatives); the walked label sequence is the RPQ pattern either way.
///
/// One `reach` costs anything from 0.1 µs to 1 ms depending on where it
/// starts, so the mean over a pool moves with the pool. Starts are drawn
/// one per stratum of the id space (ids are laid out by snapshot, and by
/// start graph versus rule interior) and walk lengths cycle; with 256
/// independent draws instead, `reach_us` and `rpq_us` moved by 30 % from
/// seed to seed, and with evenly spaced starts the spacing aliased with the
/// snapshot size.
fn pools(model: &Model, walk: (u64, u64), rng: &mut Rng) -> (Vec<Query>, Vec<Query>) {
    let n = model.nodes();
    let stride = (n / POOL as u64).max(1);
    let starts: Vec<u64> = (0..POOL as u64)
        .map(|i| {
            let drawn = (i * stride + rng.below(stride)) % n;
            // The nearest node at or after the drawn id that has an out-edge.
            (0..n)
                .map(|probe| (drawn + probe) % n)
                .find(|&v| !model.out_edges(v).is_empty())
                .unwrap_or(drawn)
        })
        .collect();
    let (mut reach, mut rpq) = (Vec::new(), Vec::new());
    for (i, &s) in starts.iter().enumerate() {
        let steps = walk.0 + (i as u64 / 2) % (walk.1 - walk.0 + 1);
        let (mut at, mut labels) = (s, Vec::new());
        for _ in 0..steps {
            let row = model.out_edges(at);
            if row.is_empty() {
                break;
            }
            let (label, next) = row[rng.below(row.len() as u64) as usize];
            labels.push(label.to_string());
            at = next;
        }
        // A negative pairs the start with the start half the id space away.
        let t = if i % 2 == 0 {
            at
        } else {
            starts[(i + POOL / 2) % POOL]
        };
        reach.push(Query::Reach { s, t });
        rpq.push(Query::Rpq {
            s,
            t,
            pattern: labels.join(" "),
        });
    }
    (reach, rpq)
}

fn read_stream(
    count: usize,
    mix: Mix,
    hot: &[u64],
    n: u64,
    pool: (&[Query], &[Query]),
    rng: &mut Rng,
) -> Stream {
    let mut stream = Stream::default();
    for _ in 0..count {
        let roll = rng.below(100);
        let id = if rng.percent(HOT_PERCENT) {
            hot[rng.below(hot.len() as u64) as usize]
        } else {
            rng.below(n)
        };
        let pick = rng.below(POOL as u64) as usize;
        let shares = [mix.out, mix.inn, mix.neighbors, mix.reach, mix.rpq];
        let verb = (0..shares.len())
            .find(|&v| roll < shares[..=v].iter().sum())
            .expect("mix shares sum to 100");
        stream.push(match verb {
            0 => Query::OutNeighbors(id),
            1 => Query::InNeighbors(id),
            2 => Query::Neighbors(id),
            3 => pool.0[pick].clone(),
            _ => pool.1[pick].clone(),
        });
    }
    stream
}

/// 70 % `ADD` (half of them to a node id nobody has used yet), 30 % `DEL`
/// of an edge that is live in `model` — so no patch is ever refused.
fn next_patch(model: &Model, rng: &mut Rng) -> EdgePatch {
    let n = model.nodes();
    if rng.percent(70) {
        let (s, label) = (rng.below(n), rng.below(u64::from(model.labels())) as u32);
        if rng.percent(50) {
            return EdgePatch {
                op: PatchOp::Add,
                s,
                label,
                t: n,
            };
        }
        loop {
            let t = rng.below(n);
            if t != s && !model.has(s, label, t) {
                return EdgePatch {
                    op: PatchOp::Add,
                    s,
                    label,
                    t,
                };
            }
        }
    }
    loop {
        let s = rng.below(n);
        let row = model.out_edges(s);
        if !row.is_empty() {
            let (label, t) = row[rng.below(row.len() as u64) as usize];
            return EdgePatch {
                op: PatchOp::Del,
                s,
                label,
                t,
            };
        }
    }
}

/// Every round's patch slice, generated against a scratch copy of the model
/// that is stepped exactly as the served head will be.
fn patch_rounds(model: &Model, rounds: usize, per_round: usize, rng: &mut Rng) -> Vec<PatchRound> {
    let mut model = model.clone();
    let mut version = 0u64;
    let mut recent: Vec<u64> = Vec::new();
    (0..rounds)
        .map(|_| {
            let mut round = PatchRound::default();
            for _ in 0..per_round {
                let patch = next_patch(&model, rng);
                model.apply(&patch);
                version += 1;
                let (added, removed) = model.delta();
                round.lines.push(&format!("PATCH {patch}"));
                round.is_patch.push(true);
                // The namespace was attached at generation 1 and every
                // patch swaps in a new head, so generation = version + 1.
                round.expected.push(&format!(
                    "patched version={version} generation={} added={added} removed={removed}",
                    version + 1
                ));
                round.patches.push(patch);
                recent.extend([patch.s, patch.t]);
                if recent.len() > 8 {
                    recent.drain(..recent.len() - 8);
                }
                for read in 0..READS_PER_PATCH {
                    let v = if read % 2 == 0 {
                        recent[rng.below(recent.len() as u64) as usize]
                    } else {
                        rng.below(model.nodes())
                    };
                    let q = match rng.below(3) {
                        0 => Query::OutNeighbors(v),
                        1 => Query::InNeighbors(v),
                        _ => Query::Neighbors(v),
                    };
                    round.lines.push(&query_line(&q));
                    round.is_patch.push(false);
                    let answer = model.answer(&q).expect("neighbor verbs only");
                    round.expected.push(&answer.to_string());
                }
            }
            round
        })
        .collect()
}

impl Plan {
    /// Draw the whole run from `seed`. `derived` is the decoded graph,
    /// `rounds` counts the warm-up round too.
    pub fn generate(
        derived: &Hypergraph,
        w: &Workload,
        counts: &Counts,
        rounds: usize,
        seed: u64,
    ) -> Plan {
        let model = Model::from_graph(derived);
        let n = model.nodes();
        let stream_of = |salt: u64| Rng::fork(seed, salt);

        let mut rng = stream_of(1);
        let neighbor_ids: Vec<u32> = (0..counts.neighbors).map(|_| rng.below(n) as u32).collect();

        let (reach, rpq) = pools(&model, w.walk, &mut stream_of(2));
        let mut truths = FxHashMap::default();
        for q in reach.iter().chain(&rpq) {
            let verdict = match q {
                Query::Reach { s, t } => traverse::reachable(derived, *s as u32, *t as u32),
                Query::Rpq { s, t, pattern } => {
                    let nfa = compile_pattern(pattern).expect("walked labels form a valid pattern");
                    rpq_on_graph(derived, &nfa, *s as u32, *t as u32)
                }
                _ => unreachable!("pools hold reach and rpq queries"),
            };
            truths.insert(q.clone(), verdict);
        }

        let hot = hot_set(&model);
        let wire1 = read_stream(
            counts.wire1,
            w.mix,
            &hot,
            n,
            (&reach, &rpq),
            &mut stream_of(3),
        );
        let wire64 = read_stream(
            counts.wire64,
            w.mix,
            &hot,
            n,
            (&reach, &rpq),
            &mut stream_of(4),
        );
        let patch_rounds = patch_rounds(&model, rounds, counts.patches, &mut stream_of(5));

        let oracle = Oracle {
            head: model.clone(),
            base: model,
            reads_on_head: w.reads_on_head,
            truths,
            memo: FxHashMap::default(),
        };
        let digest_of = |queries: &mut dyn Iterator<Item = Query>| {
            queries.fold(0u64, |sum, q| {
                sum.wrapping_add(signature(&oracle.base_answer(&q)))
            })
        };
        // Per-node digests first: 10^5..10^6 ids hit only `2 n` distinct queries.
        let per_node: Vec<[u64; 2]> = (0..n as u32)
            .map(|v| {
                [0, 1]
                    .map(|direction| signature(&oracle.base_answer(&neighbor_query(direction, v))))
            })
            .collect();
        let neighbors_digest = neighbor_ids.iter().enumerate().fold(0u64, |sum, (i, &v)| {
            sum.wrapping_add(per_node[v as usize][i % 2])
        });
        let reach_digest = digest_of(&mut reach.iter().cycle().take(counts.reach).cloned());
        let rpq_digest = digest_of(&mut rpq.iter().cycle().take(counts.rpq).cloned());

        Plan {
            neighbor_ids,
            neighbors_digest,
            reach,
            rpq,
            reach_digest,
            rpq_digest,
            wire1,
            wire64,
            patch_rounds,
            oracle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn small_plan(seed: u64) -> Plan {
        let g = grepair_datasets::network::hub_network(400, 6, 1, 3);
        let w = workload("serve-rdf-read").unwrap();
        let counts = Counts {
            decompress: 1,
            load: 1,
            neighbors: 500,
            reach: 300,
            rpq: 300,
            wire1: 200,
            wire64: 128,
            patches: 20,
        };
        Plan::generate(&g, w, &counts, 3, seed)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (small_plan(7), small_plan(7), small_plan(8));
        assert_eq!(a.wire1, b.wire1);
        assert_eq!(a.wire64, b.wire64);
        assert_eq!(a.patch_rounds, b.patch_rounds);
        assert_eq!(a.neighbor_ids, b.neighbor_ids);
        assert_ne!(a.wire1.lines.bytes, c.wire1.lines.bytes);
        assert_ne!(a.wire64.lines.bytes, c.wire64.lines.bytes);
        assert_ne!(a.patch_rounds, c.patch_rounds);
    }

    #[test]
    fn streams_follow_the_mix_and_the_hot_set() {
        let plan = small_plan(1);
        assert_eq!(plan.wire1.lines.len(), 200);
        assert_eq!(plan.wire64.queries.len(), 128);
        let hot = hot_set(&plan.oracle.base);
        assert_eq!(hot.len(), 400 / 64);
        let mix = workload("serve-rdf-read").unwrap().mix;
        let big = read_stream(
            20_000,
            mix,
            &hot,
            400,
            (&plan.reach, &plan.rpq),
            &mut Rng::fork(5, 0),
        );
        let share = |pred: &dyn Fn(&Query) -> bool| {
            big.queries.iter().filter(|q| pred(q)).count() as f64 / 200.0
        };
        assert!((share(&|q| matches!(q, Query::OutNeighbors(_))) - mix.out as f64).abs() < 2.0);
        assert!((share(&|q| matches!(q, Query::Reach { .. })) - mix.reach as f64).abs() < 2.0);
        assert!((share(&|q| matches!(q, Query::Rpq { .. })) - mix.rpq as f64).abs() < 2.0);
        let outs: Vec<u64> = big
            .queries
            .iter()
            .filter_map(|q| {
                if let Query::OutNeighbors(v) = q {
                    Some(*v)
                } else {
                    None
                }
            })
            .collect();
        let hot_share = outs.iter().filter(|v| hot.contains(v)).count() as f64 / outs.len() as f64;
        assert!((0.78..0.84).contains(&hot_share), "{hot_share}");
    }

    #[test]
    fn patch_rounds_are_valid_against_a_stepped_model() {
        let plan = small_plan(2);
        let mut model = plan.oracle.base.clone();
        assert_eq!(plan.patch_rounds.len(), 3);
        for round in &plan.patch_rounds {
            assert_eq!(round.patches.len(), 20);
            assert_eq!(round.lines.len(), 20 * (1 + READS_PER_PATCH));
            assert_eq!(round.expected.len(), round.lines.len());
            for p in &round.patches {
                assert_eq!(model.has(p.s, p.label, p.t), p.op == PatchOp::Del, "{p}");
                assert_ne!(p.s, p.t);
                model.apply(p);
            }
        }
        let last = plan.patch_rounds.last().unwrap();
        let reply = std::str::from_utf8(last.expected.span(
            last.lines.len() - 1 - READS_PER_PATCH,
            last.lines.len() - READS_PER_PATCH,
        ))
        .unwrap();
        assert!(
            reply.starts_with("patched version=60 generation=61 "),
            "{reply}"
        );
    }

    #[test]
    fn pools_hold_walked_positives_and_the_oracle_knows_every_entry() {
        let plan = small_plan(3);
        assert_eq!((plan.reach.len(), plan.rpq.len()), (POOL, POOL));
        let positives = plan
            .reach
            .iter()
            .step_by(2)
            .filter(|q| plan.oracle.base_answer(q) == QueryAnswer::Bool(true))
            .count();
        assert_eq!(
            positives,
            POOL / 2,
            "a walk's end is reachable from its start"
        );
        let matches = plan
            .rpq
            .iter()
            .step_by(2)
            .filter(|q| plan.oracle.base_answer(q) == QueryAnswer::Bool(true))
            .count();
        assert_eq!(matches, POOL / 2, "a walk spells its own pattern");
    }

    #[test]
    fn lines_slice_by_request() {
        let mut lines = Lines::default();
        for l in ["out 1", "in 22", "reach 3 4"] {
            lines.push(l);
        }
        assert_eq!(lines.span(0, 1), b"out 1\n");
        assert_eq!(lines.span(1, 3), b"in 22\nreach 3 4\n");
        assert_eq!(lines.len(), 3);
    }
}
