//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is (name, start, end, parent, round). Self time is the span minus
//! the part of it its children cover, so a parent slice's self time is the
//! harness's own overhead and a layer's per-round cost is the sum of the
//! self times of its spans in that round. Spans inside the crates are a
//! later change; these sit on the harness side of every public call.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Round id of the set-up spans; the warm-up round is 0, timed rounds 1...
pub const SETUP_ROUND: i32 = -1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: i32,
}

/// Token returned by [`Tracer::enter`]; `None` while recording is off.
pub type Open = Option<usize>;

pub struct Tracer {
    epoch: Instant,
    /// Recording switch. Off for the whole untraced run, and for every
    /// other timed round of the traced run (the difference between the two
    /// kinds of round is `trace.overhead_pct`).
    pub on: bool,
    pub round: i32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            round: SETUP_ROUND,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open {
            self.spans[id].end_ns = self.now_ns();
            debug_assert_eq!(
                self.stack.last(),
                Some(&id),
                "spans must close innermost first"
            );
            self.stack.pop();
        }
    }

    /// Run `body` inside a `name` span and time it. The clock runs whether
    /// or not spans are being recorded; `body` gets the tracer back for the
    /// spans of the calls it makes.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        let open = self.enter(name);
        let t = Instant::now();
        let out = body(self);
        let took = t.elapsed();
        self.exit(open);
        (out, took)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per round that recorded a `name` span: (total self time in seconds,
    /// number of such spans), in round order.
    pub fn per_round(&self, name: &str, timed_only: bool) -> Vec<(f64, usize)> {
        let own = self_times(&self.spans);
        let mut rounds: Vec<(i32, f64, usize)> = Vec::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            if span.name != name || (timed_only && span.round < 1) {
                continue;
            }
            match rounds.iter_mut().find(|(round, ..)| *round == span.round) {
                Some((_, total, count)) => {
                    *total += own_ns as f64 / 1e9;
                    *count += 1;
                }
                None => rounds.push((span.round, own_ns as f64 / 1e9, 1)),
            }
        }
        rounds
            .into_iter()
            .map(|(_, total, count)| (total, count))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let own = self_times(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(own_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("round", Json::Num(f64::from(s.round))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its direct children's.
/// (Children of one parent never overlap — the harness is one thread.)
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("slice", 0, 100, None),
            span("decode", 10, 40, Some(0)),
            span("derive", 50, 90, Some(0)),
            span("inner", 60, 70, Some(2)),
        ];
        // slice: 100 - 30 - 40; derive: 40 - 10; grandchildren are charged
        // to their own parent only.
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn recording_nests_and_switches_off() {
        let mut tr = Tracer::new(true);
        tr.round = 1;
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        tr.exit(inner);
        tr.exit(outer);
        tr.on = false;
        let skipped = tr.enter("skipped");
        assert_eq!(skipped, None);
        tr.exit(skipped);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", None), ("inner", Some(0))]);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
    }

    #[test]
    fn per_round_groups_by_round_and_skips_untimed_ones() {
        let mut tr = Tracer::new(true);
        for round in [SETUP_ROUND, 0, 1, 1, 3] {
            tr.round = round;
            let s = tr.enter("decode");
            tr.exit(s);
        }
        let counts: Vec<usize> = tr
            .per_round("decode", true)
            .iter()
            .map(|&(_, n)| n)
            .collect();
        assert_eq!(counts, vec![2, 1]);
        assert_eq!(tr.per_round("decode", false).len(), 4);
        assert!(tr.per_round("absent", false).is_empty());
    }
}
