//! One run of one workload: pin, set up (several times), one untimed
//! warm-up round, then the timed rounds — every round runs every slice
//! once, in fixed order, each slice a fixed operation count.
//!
//! Round-robin is the point: slow spells on a shared host last 10–60 s, so
//! back-to-back repetitions of one slice would put a whole metric inside
//! one spell, while interleaving makes the spell a minority of the samples
//! of every metric. A slice yields one sample per round; a metric is the
//! median of its round samples (window-1 latencies are pooled instead).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grepair_queries::neighbors::Direction;
use grepair_queries::{GrammarIndex, ReachIndex, RpqIndex};
use grepair_server::{serve_session, IoMode, SessionOpts, WorkerPool};
use grepair_store::{compile_pattern, GraphStore, Query, QueryAnswer, StoreRegistry};

use crate::host::{self, Canary};
use crate::json::Json;
use crate::pipeline;
use crate::plan::{fnv, neighbor_query, signature, Oracle, Stream, POOL};
use crate::setup::{connect, set_up, use_namespace, Prepared, Served, HEAD};
use crate::spec::{Metric, Workload, END_TO_END, PER_LAYER, ROUND_SECONDS, SETUPS};
use crate::stats::{median, percentile, summarize, Summary};
use crate::trace::{Tracer, SETUP_ROUND};

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    /// The metrics the mode asked for (`end_to_end` untraced, `per_layer`
    /// traced), in declaration order.
    pub metrics: Vec<(&'static Metric, Summary)>,
    pub detail: Json,
    pub attempted: u64,
    pub failed: u64,
}

/// Sizes of the traced run's extra slices relative to the gated ones: they
/// have no bound to defend, so they get a quarter of the operations.
const EXTRA_DIVISOR: usize = 4;
/// `queries.rpq_us` builds one bare `RpqIndex` per distinct pattern, so it
/// cycles through every 32nd pool entry.
const BARE_RPQ_POOL: usize = 32;
/// Patches sampled for the final head-versus-model check.
const TOUCHED_SAMPLE: usize = 200;

/// Named sample sets, in first-use order.
#[derive(Default)]
struct Samples(Vec<(&'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, values)) => values.push(value),
            None => self.0.push((name, vec![value])),
        }
    }

    fn extend(&mut self, name: &'static str, values: &[f64]) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => all.extend_from_slice(values),
            None => self.0.push((name, values.to_vec())),
        }
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, v)| v)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// What the wire client saw go wrong.
#[derive(Default)]
struct WireFaults {
    errors: u64,
    sheds: u64,
    mismatches: u64,
}

impl WireFaults {
    fn note(&mut self, reply: &[u8], matches: bool) {
        if reply.starts_with(b"error:") {
            self.errors += 1;
        } else if reply == b"busy" {
            self.sheds += 1;
        } else if !matches {
            self.mismatches += 1;
        }
    }

    fn total(&self) -> u64 {
        self.errors + self.sheds + self.mismatches
    }
}

fn reply_lines(window: &[u8]) -> impl Iterator<Item = &[u8]> {
    window
        .strip_suffix(b"\n")
        .unwrap_or(window)
        .split(|&b| b == b'\n')
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Send a read stream in windows; every reply is checked against the
/// oracle. Returns (busy time, per-window latencies in µs).
fn read_slice(
    client: &mut crate::wire::Client,
    stream: &Stream,
    window: usize,
    oracle: &mut Oracle,
    faults: &mut WireFaults,
) -> Result<(Duration, Vec<f64>), String> {
    let mut latencies = Vec::with_capacity(stream.lines.len().div_ceil(window));
    let busy = client
        .exchange(&stream.lines, window, |first, took, replies| {
            latencies.push(micros(took));
            for (i, reply) in reply_lines(replies).enumerate() {
                faults.note(
                    reply,
                    fnv(reply) == oracle.reply_digest(&stream.queries[first + i]),
                );
            }
        })
        .map_err(|e| format!("wire read slice: {e}"))?;
    Ok((busy, latencies))
}

struct Run<'w> {
    w: &'w Workload,
    counts: crate::spec::Counts,
    samples: Samples,
    /// Seconds each slice took per round — what re-sizing the counts reads.
    slice_seconds: Samples,
    faults: WireFaults,
    attempted: u64,
    failed: u64,
    /// Whether the current round is a timed one.
    timed: bool,
    /// Per round: seconds in the slices that record per-call spans, split
    /// by whether the round recorded them.
    spanned_on: Vec<f64>,
    spanned_off: Vec<f64>,
}

impl Run<'_> {
    fn record(
        &mut self,
        slice: &'static str,
        metric: &'static str,
        value: f64,
        took: Duration,
        ops: usize,
    ) {
        self.attempted += ops as u64;
        if self.timed {
            self.samples.push(metric, value);
            self.slice_seconds.push(slice, took.as_secs_f64());
        }
    }

    fn expect(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// The gated slices, in fixed order.
    fn round(
        &mut self,
        p: &mut Prepared,
        tr: &mut Tracer,
        canary: &Canary,
        round: usize,
    ) -> Result<(), String> {
        let Prepared {
            graph,
            compressed,
            plan,
            base,
            client,
            ..
        } = p;
        let edges = graph.num_edges() as f64;
        let counts = self.counts;
        let secs = |took: Duration| took.as_secs_f64();
        let mut spanned = 0.0;

        let took = canary.run();
        self.record("canary", "host.canary_ms", secs(took) * 1e3, took, 0);

        let (again, took) = tr.timed("slice.compress", |tr| pipeline::compress(graph, tr));
        spanned += secs(took);
        self.record(
            "compress",
            "compress_edges_per_s",
            edges / secs(took),
            took,
            1,
        );
        self.expect(again.container == compressed.container);

        let (derived_edges, took) = tr.timed("slice.decompress", |tr| {
            let mut derived_edges = 0;
            for _ in 0..counts.decompress {
                let (grammar, derived) = pipeline::decompress(&compressed.container, tr)?;
                derived_edges += derived.num_edges();
                black_box((grammar, derived));
            }
            Ok::<_, String>(derived_edges)
        });
        spanned += secs(took);
        let per_call = secs(took) / counts.decompress as f64;
        self.record(
            "decompress",
            "decompress_edges_per_s",
            edges / per_call,
            took,
            counts.decompress,
        );
        self.expect(derived_edges? == counts.decompress * graph.num_edges());

        let (loaded_nodes, took) = tr.timed("slice.load", |tr| {
            let mut loaded_nodes = 0;
            for _ in 0..counts.load {
                loaded_nodes += black_box(pipeline::load(&compressed.container, tr)?).total_nodes();
            }
            Ok::<_, String>(loaded_nodes)
        });
        spanned += secs(took);
        self.record(
            "load",
            "load_ms",
            secs(took) * 1e3 / counts.load as f64,
            took,
            counts.load,
        );
        self.expect(loaded_nodes? == counts.load as u64 * base.total_nodes());

        // Sub-microsecond operations are timed per slice, not per call: a
        // clock pair is a tenth of a 250 ns `neighbors`.
        let (digest, took) = tr.timed("slice.neighbors", |_| {
            plan.neighbor_ids
                .iter()
                .enumerate()
                .fold(0u64, |digest, (i, &v)| {
                    base.query(&neighbor_query(i, v))
                        .map_or(digest, |a| digest.wrapping_add(signature(&a)))
                })
        });
        spanned += secs(took);
        self.record(
            "neighbors",
            "neighbors_ns",
            secs(took) * 1e9 / counts.neighbors as f64,
            took,
            counts.neighbors,
        );
        self.expect(digest == plan.neighbors_digest);

        for (slice, span, metric, pool, count, want) in [
            (
                "reach",
                "slice.reach",
                "reach_us",
                &plan.reach,
                counts.reach,
                plan.reach_digest,
            ),
            (
                "rpq",
                "slice.rpq",
                "rpq_us",
                &plan.rpq,
                counts.rpq,
                plan.rpq_digest,
            ),
        ] {
            let (digest, took) = tr.timed(span, |_| {
                pool.iter().cycle().take(count).fold(0u64, |digest, q| {
                    base.query(q)
                        .map_or(digest, |a| digest.wrapping_add(signature(&a)))
                })
            });
            spanned += secs(took);
            self.record(slice, metric, micros(took) / count as f64, took, count);
            self.expect(digest == want);
        }

        if self.timed {
            let totals = if tr.on {
                &mut self.spanned_on
            } else {
                &mut self.spanned_off
            };
            totals.push(spanned);
        }

        let (read, _) = tr.timed("slice.wire1", |_| {
            read_slice(client, &plan.wire1, 1, &mut plan.oracle, &mut self.faults)
        });
        let (busy, latencies) = read?;
        self.attempted += counts.wire1 as u64;
        if self.timed {
            self.slice_seconds.push("wire1", secs(busy));
            self.samples.extend("serve_p50_us", &latencies);
        }

        let (read, _) = tr.timed("slice.wire64", |_| {
            read_slice(client, &plan.wire64, 64, &mut plan.oracle, &mut self.faults)
        });
        let (busy, _) = read?;
        self.record(
            "wire64",
            "serve_qps",
            counts.wire64 as f64 / secs(busy),
            busy,
            counts.wire64,
        );

        // The patch slice always writes to `head`; a workload that reads
        // the base namespace switches there and back, untimed.
        if !self.w.reads_on_head {
            use_namespace(client, HEAD)?;
        }
        let patching = &plan.patch_rounds[round];
        let (faults, samples, timed) = (&mut self.faults, &mut self.samples, self.timed);
        let (busy, _) = tr.timed("slice.patch", |_| {
            client.exchange(&patching.lines, 1, |at, took, reply| {
                let reply = reply.strip_suffix(b"\n").unwrap_or(reply);
                faults.note(reply, reply == patching.expected.line(at));
                if timed && patching.is_patch[at] {
                    samples.push("patch_p50_us", micros(took));
                }
            })
        });
        let busy = busy.map_err(|e| format!("patch slice: {e}"))?;
        self.attempted += patching.lines.len() as u64;
        if self.timed {
            self.slice_seconds.push("patch", secs(busy));
        }
        plan.oracle.advance(&patching.patches);
        if !self.w.reads_on_head {
            use_namespace(client, grepair_store::DEFAULT_NAMESPACE)?;
        }
        Ok(())
    }
}

/// What the traced run measures on top of the gated slices, per round.
struct Extras {
    pool: WorkerPool,
    epoll: Served,
    epoll_client: crate::wire::Client,
    plans: Vec<(Query, RpqIndex<Arc<grepair_grammar::Grammar>>)>,
    session_input: Vec<u8>,
    epoll_wire1: Stream,
}

impl Extras {
    fn new(p: &Prepared, w: &Workload) -> Result<Self, String> {
        let epoll = Served::start(Arc::clone(&p.registry), IoMode::Epoll)?;
        let epoll_client = connect(epoll.addr, w)?;
        let plans = p
            .plan
            .rpq
            .iter()
            .step_by(POOL / BARE_RPQ_POOL)
            .map(|q| {
                let Query::Rpq { pattern, .. } = q else {
                    unreachable!("the rpq pool holds rpq queries")
                };
                let nfa = compile_pattern(pattern).map_err(|e| e.to_string())?;
                Ok((q.clone(), RpqIndex::new(Arc::clone(&p.grammar), nfa)))
            })
            .collect::<Result<_, String>>()?;
        let mut session_input = if w.reads_on_head {
            format!("USE {HEAD}\n").into_bytes()
        } else {
            Vec::new()
        };
        session_input.extend_from_slice(&p.plan.wire64.lines.bytes);
        let epoll_wire1 = p
            .plan
            .wire1
            .prefix(p.plan.wire1.queries.len() / EXTRA_DIVISOR);
        Ok(Self {
            pool: WorkerPool::new(1),
            epoll,
            epoll_client,
            plans,
            session_input,
            epoll_wire1,
        })
    }

    fn round(&mut self, run: &mut Run, p: &mut Prepared, tr: &mut Tracer) -> Result<(), String> {
        let counts = run.counts;
        let secs = |took: Duration| took.as_secs_f64();
        let verdict = |v: Result<bool, grepair_queries::QueryError>| v.ok().map(QueryAnswer::Bool);
        let target: Arc<GraphStore> = if run.w.reads_on_head {
            p.registry.store(HEAD).map_err(|e| e.to_string())?
        } else {
            Arc::clone(&p.base)
        };

        let ((index, reach), took) = tr.timed("queries.index_build", |_| {
            (
                GrammarIndex::new(Arc::clone(&p.grammar)),
                ReachIndex::new(Arc::clone(&p.grammar)),
            )
        });
        run.record(
            "index_build",
            "queries.index_build_ms",
            secs(took) * 1e3,
            took,
            1,
        );

        let ids = &p.plan.neighbor_ids[..counts.neighbors / EXTRA_DIVISOR];
        let (failed, took) = tr.timed("queries.neighbors", |_| {
            let mut buffer = Vec::new();
            let mut failed = 0;
            for (i, &v) in ids.iter().enumerate() {
                let direction = if i % 2 == 0 {
                    Direction::Out
                } else {
                    Direction::In
                };
                failed += u64::from(
                    index
                        .try_neighbors_into(u64::from(v), direction, &mut buffer)
                        .is_err(),
                );
                black_box(&buffer);
            }
            failed
        });
        run.failed += failed;
        run.record(
            "bare_neighbors",
            "queries.neighbors_ns",
            secs(took) * 1e9 / ids.len() as f64,
            took,
            ids.len(),
        );

        let oracle = &p.plan.oracle;
        let count = counts.reach / EXTRA_DIVISOR;
        let (failed, took) = tr.timed("queries.reach", |_| {
            p.plan
                .reach
                .iter()
                .cycle()
                .take(count)
                .fold(0, |failed, q| {
                    let Query::Reach { s, t } = q else {
                        unreachable!("the reach pool holds reach queries")
                    };
                    failed
                        + u64::from(
                            verdict(reach.try_reachable(*s, *t)) != Some(oracle.base_answer(q)),
                        )
                })
        });
        run.failed += failed;
        run.record(
            "bare_reach",
            "queries.reach_us",
            micros(took) / count as f64,
            took,
            count,
        );

        let count = counts.rpq / EXTRA_DIVISOR;
        let (failed, took) = tr.timed("queries.rpq", |_| {
            self.plans
                .iter()
                .cycle()
                .take(count)
                .fold(0, |failed, (q, plan)| {
                    let Query::Rpq { s, t, .. } = q else {
                        unreachable!("the rpq pool holds rpq queries")
                    };
                    failed
                        + u64::from(
                            verdict(plan.try_matches(*s, *t)) != Some(oracle.base_answer(q)),
                        )
                })
        });
        run.failed += failed;
        run.record(
            "bare_rpq",
            "queries.rpq_us",
            micros(took) / count as f64,
            took,
            count,
        );

        let batch = &p.plan.wire64.queries[..counts.wire64 / EXTRA_DIVISOR];
        let (failed, took) = tr.timed("store.batch", |_| {
            batch
                .chunks(1024)
                .map(|chunk| {
                    target
                        .query_batch(chunk)
                        .iter()
                        .filter(|a| a.is_err())
                        .count() as u64
                })
                .sum::<u64>()
        });
        run.failed += failed;
        run.record(
            "batch",
            "store.batch_qps",
            batch.len() as f64 / secs(took),
            took,
            batch.len(),
        );

        // The window-1 requests again without a socket, timed one by one as
        // the wire times them: the wire median minus this median is what
        // kernel crossings and wake-ups cost.
        let same = &p.plan.wire1.queries[..counts.wire1 / EXTRA_DIVISOR];
        let (latencies, took) = tr.timed("store.wire1_inprocess", |_| {
            same.iter()
                .map(|q| {
                    let t = Instant::now();
                    let failed = black_box(target.query(q)).is_err();
                    (micros(t.elapsed()), failed)
                })
                .collect::<Vec<_>>()
        });
        run.failed += latencies.iter().filter(|(_, failed)| *failed).count() as u64;
        run.attempted += same.len() as u64;
        if run.timed {
            run.slice_seconds.push("wire1_inprocess", secs(took));
            run.samples.extend(
                "wire1_inprocess_us",
                &latencies.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            );
        }

        let (summary, took) = tr.timed("server.session", |_| {
            serve_session(
                &p.registry,
                &self.pool,
                &mut &self.session_input[..],
                &mut Vec::new(),
                &SessionOpts::default(),
            )
        });
        let summary = summary.map_err(|e| format!("in-memory session: {e}"))?;
        run.record(
            "session",
            "server.session_ns_per_line",
            secs(took) * 1e9 / counts.wire64 as f64,
            took,
            counts.wire64,
        );
        run.expect(
            summary.errors == 0 && summary.sheds == 0 && summary.served >= counts.wire64 as u64,
        );

        let (read, _) = tr.timed("server.epoll_wire1", |_| {
            read_slice(
                &mut self.epoll_client,
                &self.epoll_wire1,
                1,
                &mut p.plan.oracle,
                &mut run.faults,
            )
        });
        let (_, latencies) = read?;
        run.attempted += self.epoll_wire1.queries.len() as u64;
        if run.timed {
            run.samples.extend("server.epoll_p50_us", &latencies);
        }
        let (read, _) = tr.timed("server.epoll_wire64", |_| {
            read_slice(
                &mut self.epoll_client,
                &p.plan.wire64,
                64,
                &mut p.plan.oracle,
                &mut run.faults,
            )
        });
        let (busy, _) = read?;
        run.record(
            "epoll_wire64",
            "server.epoll_qps",
            counts.wire64 as f64 / secs(busy),
            busy,
            counts.wire64,
        );
        Ok(())
    }

    fn finish(mut self) -> Result<(), String> {
        self.epoll_client
            .ask("QUIT")
            .map_err(|e| format!("QUIT: {e}"))?;
        self.epoll.stop()
    }
}

/// After the last round: the served head against the model.
fn final_checks(run: &mut Run, p: &mut Prepared, seed: u64) -> Result<(), String> {
    let Prepared { plan, client, .. } = p;
    let ask = |client: &mut crate::wire::Client, line: &str| {
        client.ask(line).map_err(|e| format!("{line}: {e}"))
    };
    if !run.w.reads_on_head {
        use_namespace(client, HEAD)?;
    }
    let versions = plan
        .patch_rounds
        .iter()
        .map(|r| r.patches.len())
        .sum::<usize>()
        + 1;
    let listing = ask(client, "VERSIONS")?;
    run.expect(listing.starts_with(&format!("versions={versions} head=v{} ", versions - 1)));

    let touched: Vec<u64> = plan
        .patch_rounds
        .iter()
        .flat_map(|r| &r.patches)
        .flat_map(|p| [p.s, p.t])
        .collect();
    let mut rng = crate::rng::Rng::fork(seed, 6);
    for i in 0..TOUCHED_SAMPLE.min(touched.len()) {
        let v = touched[rng.below(touched.len() as u64) as usize];
        let q = if i % 2 == 0 {
            Query::OutNeighbors(v)
        } else {
            Query::InNeighbors(v)
        };
        let line = crate::plan::query_line(&q);
        let at_head = plan.oracle.head.answer(&q).map(|a| a.to_string());
        run.expect(Some(ask(client, &line)?) == at_head);
        // Time travel: version 0 still answers as the base did.
        if v < plan.oracle.base.nodes() {
            let at_base = plan.oracle.base.answer(&q).map(|a| a.to_string());
            run.expect(Some(ask(client, &format!("{line} @v0"))?) == at_base);
        }
        run.attempted += 2;
    }
    if !run.w.reads_on_head {
        use_namespace(client, grepair_store::DEFAULT_NAMESPACE)?;
    }
    Ok(())
}

/// Traced run, after the rounds: the patch log replayed in process (apply
/// cost at the start and at the end of the log), and what reading through
/// the final overlay costs next to reading the base.
fn overlay_diagnostics(run: &mut Run, p: &Prepared, tr: &mut Tracer) -> Result<(), String> {
    let replay = StoreRegistry::new(pipeline::load(&p.compressed.container, tr)?);
    let mut applies = Vec::new();
    for patch in p.plan.patch_rounds.iter().flat_map(|r| &r.patches) {
        let (applied, took) = tr.timed("store.patch_apply", |_| {
            replay.patch(grepair_store::DEFAULT_NAMESPACE, *patch)
        });
        applies.push(micros(took));
        run.expect(applied.is_ok());
    }
    let tenth = (applies.len() / 10).max(1);
    run.samples.push("store.patch_apply_us", median(&applies));
    run.samples
        .push("store.patch_apply_first_us", median(&applies[..tenth]));
    run.samples.push(
        "store.patch_apply_last_us",
        median(&applies[applies.len() - tenth..]),
    );
    drop(replay);

    let head = p.registry.store(HEAD).map_err(|e| e.to_string())?;
    let ids = &p.plan.neighbor_ids[..run.counts.neighbors / EXTRA_DIVISOR];
    let time = |store: &GraphStore| {
        let t = Instant::now();
        for (i, &v) in ids.iter().enumerate() {
            black_box(store.query(&neighbor_query(i, v)).is_ok());
        }
        t.elapsed().as_secs_f64()
    };
    let ((through_overlay, direct), _) =
        tr.timed("store.overlay_read", |_| (time(&head), time(&p.base)));
    run.samples
        .push("store.overlay_read_tax", through_overlay / direct);

    let last = p.registry.versions_of(HEAD).map_err(|e| e.to_string())?;
    let last = last.last().ok_or("empty version list")?;
    run.samples
        .push("store.versions", last.version as f64 + 1.0);
    run.samples.push("store.overlay_added", last.added as f64);
    run.samples
        .push("store.overlay_removed", last.removed as f64);
    Ok(())
}

/// Per-call cost of a layer: per traced timed round, self time of the
/// layer's spans over their count, in milliseconds.
fn span_samples(run: &mut Run, tr: &Tracer, span: &'static str, metric: &'static str) {
    for (total, count) in tr.per_round(span, true) {
        run.samples.push(metric, total * 1e3 / count as f64);
    }
}

pub fn rounds_for(opt: &Options) -> usize {
    if opt.quick {
        2
    } else {
        ((opt.seconds / ROUND_SECONDS) as usize).max(2)
    }
}

pub fn run(w: &'static Workload, opt: &Options) -> Result<Outcome, String> {
    let threads = host::threads_available();
    let pinned_cpu = host::pin_to_last_cpu();
    let rounds = rounds_for(opt);
    let counts = if opt.quick {
        w.counts.tenth()
    } else {
        w.counts
    };
    let mut tr = Tracer::new(opt.trace);
    let canary = Canary::new();

    let mut setups = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = prepared.take() {
            previous.tear_down()?;
        }
        let t = Instant::now();
        prepared = Some(set_up(w, &counts, rounds + 1, opt.seed, &mut tr)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut p = prepared.ok_or("no set-up ran")?;

    let mut run = Run {
        w,
        counts,
        samples: Samples::default(),
        slice_seconds: Samples::default(),
        faults: WireFaults::default(),
        attempted: 0,
        failed: p.failed,
        timed: false,
        spanned_on: Vec::new(),
        spanned_off: Vec::new(),
    };
    for s in &setups {
        run.samples.push("setup_s", *s);
    }
    let mut extras = if opt.trace {
        Some(Extras::new(&p, w)?)
    } else {
        None
    };

    for round in 0..=rounds {
        tr.round = round as i32;
        // The traced run records spans in every other timed round; the
        // rounds in between are its own untraced baseline.
        tr.on = opt.trace && (round == 0 || round % 2 == 1);
        run.timed = round > 0;
        run.round(&mut p, &mut tr, &canary, round)?;
        if let Some(extras) = &mut extras {
            extras.round(&mut run, &mut p, &mut tr)?;
        }
    }
    tr.on = opt.trace;
    final_checks(&mut run, &mut p, opt.seed)?;
    if let Some(extras) = extras {
        overlay_diagnostics(&mut run, &p, &mut tr)?;
        extras.finish()?;
    }

    let store_stats = p.base.stats();
    let grammar_shape = (p.grammar.num_nonterminals(), p.grammar.height());
    let (edges, nodes) = (p.graph.num_edges(), p.graph.num_nodes());
    let (stats, breakdown, container_bytes) = (
        p.compressed.stats.clone(),
        p.compressed.breakdown,
        p.compressed.container.len(),
    );
    p.tear_down()?;
    run.failed += run.faults.total();

    let exact = |run: &mut Run, name: &'static str, value: f64| run.samples.push(name, value);
    exact(&mut run, "peak_rss_mb", host::peak_rss_mb());
    exact(
        &mut run,
        "bits_per_edge",
        container_bytes as f64 * 8.0 / edges as f64,
    );
    if opt.trace {
        for (total, _) in tr.per_round("datasets.generate", false) {
            run.samples.push("datasets.generate_ms", total * 1e3);
        }
        for (span, metric) in [
            ("core.new", "core.new_ms"),
            ("core.count_all", "core.count_all_ms"),
            ("core.replace", "core.replace_ms"),
            ("core.virtual_pass", "core.virtual_pass_ms"),
            ("core.finish", "core.finish_ms"),
            ("codec.encode", "codec.encode_ms"),
            ("codec.decode", "codec.decode_ms"),
            ("grammar.validate", "grammar.validate_ms"),
            ("grammar.derive", "grammar.derive_ms"),
        ] {
            span_samples(&mut run, &tr, span, metric);
        }
        for (name, value) in [
            ("core.rounds", stats.rounds as f64),
            ("core.replacements", stats.replacements as f64),
            ("core.rules_created", stats.rules_created as f64),
            ("core.rules_pruned", stats.rules_pruned as f64),
            ("core.virtual_edges", stats.virtual_edges as f64),
            ("core.grammar_size", stats.grammar_size as f64),
            (
                "core.pruned_rule_ratio",
                stats.rules_pruned as f64 / (stats.rules_created as f64).max(1.0),
            ),
            ("codec.start_graph_bits", breakdown.start_graph_bits as f64),
            ("codec.rule_bits", breakdown.rule_bits as f64),
            ("codec.container_bytes", container_bytes as f64),
            ("grammar.nonterminals", grammar_shape.0 as f64),
            ("grammar.height", grammar_shape.1 as f64),
            (
                "store.query_overhead_ns",
                run.samples.median("neighbors_ns") - run.samples.median("queries.neighbors_ns"),
            ),
            (
                "store.expansion_hit_ratio",
                ratio(
                    store_stats.expansion_cache_hits,
                    store_stats.expansion_cache_misses,
                ),
            ),
            (
                "store.rpq_plan_hit_ratio",
                ratio(store_stats.rpq_plan_hits, store_stats.rpq_plan_misses),
            ),
            (
                "server.wire_overhead_us",
                run.samples.median("serve_p50_us") - run.samples.median("wire1_inprocess_us"),
            ),
            (
                "server.wire_p99_us",
                percentile(run.samples.get("serve_p50_us"), 99.0),
            ),
            (
                "server.wire_p999_us",
                percentile(run.samples.get("serve_p50_us"), 99.9),
            ),
            (
                "server.patch_p99_us",
                percentile(run.samples.get("patch_p50_us"), 99.0),
            ),
            ("server.errors", run.faults.errors as f64),
            ("server.sheds", run.faults.sheds as f64),
            (
                "host.canary_spread_pct",
                summarize(run.samples.get("host.canary_ms")).spread() * 100.0,
            ),
            (
                "trace.overhead_pct",
                (median(&run.spanned_on) / median(&run.spanned_off) - 1.0) * 100.0,
            ),
        ] {
            exact(&mut run, name, value);
        }
        let dump = format!("benchmark/out/trace-{}.json", w.name);
        std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&dump, tr.to_json().to_string()))
            .map_err(|e| format!("{dump}: {e}"))?;
    }

    let wanted = if opt.trace { PER_LAYER } else { END_TO_END };
    let metrics = wanted
        .iter()
        .map(|m| match run.samples.get(m.name) {
            [] => Err(format!("metric {} was not measured", m.name)),
            values => Ok((m, summarize(values))),
        })
        .collect::<Result<Vec<_>, String>>()?;

    let summaries = |samples: &Samples| {
        Json::obj(samples.0.iter().map(|(name, values)| {
            let s = summarize(values);
            (
                *name,
                Json::obj([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            )
        }))
    };
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("why", Json::str(w.why)),
        ("trace", Json::Bool(opt.trace)),
        (
            "closed_loop",
            Json::str("1 client thread, 1 connection, windows of 1 and 64"),
        ),
        ("rounds", Json::Num(rounds as f64)),
        ("setups", Json::Num(SETUPS as f64)),
        (
            "graph",
            Json::obj([
                ("nodes", Json::Num(nodes as f64)),
                ("edges", Json::Num(edges as f64)),
            ]),
        ),
        (
            "environment",
            host::environment(opt.seed, threads, pinned_cpu, opt.quick),
        ),
        ("samples", summaries(&run.samples)),
        ("slice_seconds", summaries(&run.slice_seconds)),
        (
            "spans",
            Json::Num(tr.spans().iter().filter(|s| s.round != SETUP_ROUND).count() as f64),
        ),
    ]);
    Ok(Outcome {
        metrics,
        detail,
        attempted: run.attempted,
        failed: run.failed,
    })
}

fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / ((hits + misses) as f64).max(1.0)
}
