//! The result line: the last line of standard output, one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

use crate::json::Json;
use crate::run::Outcome;

pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(metric, summary)| {
                (
                    metric.name,
                    Json::obj([
                        ("value", Json::Num(summary.median)),
                        ("unit", Json::str(metric.unit)),
                    ]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
    use crate::stats::summarize;

    fn declared() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn names(section: &Json) -> Vec<&str> {
        section
            .as_arr()
            .iter()
            .filter_map(|entry| entry.get("name")?.as_str())
            .collect()
    }

    fn check_section(section: &Json, metrics: &[Metric], bounded: bool) {
        assert_eq!(
            names(section),
            metrics.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in section.as_arr().iter().zip(metrics) {
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(better),
                "{}",
                m.name
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                bounded.then_some(m.bound),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let doc = declared();
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(
            names(workloads),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in workloads.as_arr().iter().zip(WORKLOADS) {
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
        }
        check_section(doc.get("end_to_end").expect("end_to_end"), END_TO_END, true);
        check_section(doc.get("per_layer").expect("per_layer"), PER_LAYER, false);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_a_unit_per_metric() {
        for (trace, metrics) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = Outcome {
                metrics: metrics
                    .iter()
                    .map(|m| (m, summarize(&[1.5, 2.5, 3.5])))
                    .collect(),
                detail: Json::Null,
                attempted: 10,
                failed: 0,
            };
            let line = Json::parse(&result_line(&outcome).to_string()).expect("result line parses");
            let Json::Obj(pairs) = &line else {
                panic!("result line is an object")
            };
            assert_eq!(
                pairs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                ["correct", "attempted", "failed", "metrics"]
            );
            let section = declared();
            let declared_names = names(
                section
                    .get(if trace { "per_layer" } else { "end_to_end" })
                    .expect("section"),
            );
            let Some(Json::Obj(emitted)) = line.get("metrics") else {
                panic!("metrics is an object")
            };
            assert_eq!(
                emitted.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
                declared_names
            );
            for (name, value) in emitted {
                assert_eq!(
                    value.get("value").and_then(Json::as_f64),
                    Some(2.5),
                    "{name}"
                );
                assert!(
                    value
                        .get("unit")
                        .and_then(Json::as_str)
                        .is_some_and(|u| !u.is_empty()),
                    "{name}"
                );
            }
        }
    }
}
