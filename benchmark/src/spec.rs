//! The names this benchmark fixes — workloads, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` declares them (a test
//! keeps the two in step) — and the fixed operation counts of every slice.

use grepair_datasets::{network, rdf, version::CoauthorshipHistory};
use grepair_hypergraph::Hypergraph;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` value the slice
/// counts below were sized for.
pub const RUN_SECONDS: u64 = 25;

/// What one round (every slice once) takes on the reference machine, in
/// seconds. `--seconds` buys `seconds / ROUND_SECONDS` timed rounds; the
/// work inside a round is never derived from a clock.
pub const ROUND_SECONDS: f64 = 2.5;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one.
///
/// The bounds are what the reference machine supports, not what one would
/// like: over two sets of ten runs of the same code (`--all --aa 10`) the
/// medians of the two sets never differed by more than 5.3 %, but the
/// spread inside a set (interquartile range over median) reached 8–20 % on
/// every timing metric whenever the shared host went through a slow spell —
/// `host.canary_ms`, which calls nothing under test, moved by 26 % between
/// runs in the same spells. A bound below the spread fails on noise.
/// `bits_per_edge` is exact and the same for every seed; `peak_rss_mb`
/// spread 0.4–8.2 %.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s", 0.25),
    lower("peak_rss_mb", "MB", 0.25),
    higher("compress_edges_per_s", "1/s", 0.25),
    lower("bits_per_edge", "bits", 0.02),
    higher("decompress_edges_per_s", "1/s", 0.25),
    lower("load_ms", "ms", 0.25),
    lower("neighbors_ns", "ns", 0.25),
    lower("reach_us", "us", 0.25),
    lower("rpq_us", "us", 0.25),
    higher("serve_qps", "1/s", 0.25),
    lower("serve_p50_us", "us", 0.25),
    lower("patch_p50_us", "us", 0.25),
];

/// Single-layer numbers from the traced run; no bounds. (`bound` is unused.)
pub const PER_LAYER: &[Metric] = &[
    lower("datasets.generate_ms", "ms", 0.0),
    lower("core.new_ms", "ms", 0.0),
    lower("core.count_all_ms", "ms", 0.0),
    lower("core.replace_ms", "ms", 0.0),
    lower("core.virtual_pass_ms", "ms", 0.0),
    lower("core.finish_ms", "ms", 0.0),
    lower("core.rounds", "count", 0.0),
    lower("core.replacements", "count", 0.0),
    lower("core.rules_created", "count", 0.0),
    lower("core.rules_pruned", "count", 0.0),
    lower("core.virtual_edges", "count", 0.0),
    lower("core.grammar_size", "count", 0.0),
    lower("core.pruned_rule_ratio", "ratio", 0.0),
    lower("codec.encode_ms", "ms", 0.0),
    lower("codec.decode_ms", "ms", 0.0),
    lower("codec.start_graph_bits", "bits", 0.0),
    lower("codec.rule_bits", "bits", 0.0),
    lower("codec.container_bytes", "bytes", 0.0),
    lower("grammar.validate_ms", "ms", 0.0),
    lower("grammar.derive_ms", "ms", 0.0),
    lower("grammar.nonterminals", "count", 0.0),
    lower("grammar.height", "count", 0.0),
    lower("queries.index_build_ms", "ms", 0.0),
    lower("queries.neighbors_ns", "ns", 0.0),
    lower("queries.reach_us", "us", 0.0),
    lower("queries.rpq_us", "us", 0.0),
    lower("store.query_overhead_ns", "ns", 0.0),
    higher("store.batch_qps", "1/s", 0.0),
    higher("store.expansion_hit_ratio", "ratio", 0.0),
    higher("store.rpq_plan_hit_ratio", "ratio", 0.0),
    lower("store.patch_apply_us", "us", 0.0),
    lower("store.patch_apply_first_us", "us", 0.0),
    lower("store.patch_apply_last_us", "us", 0.0),
    lower("store.overlay_read_tax", "ratio", 0.0),
    lower("store.versions", "count", 0.0),
    lower("store.overlay_added", "count", 0.0),
    lower("store.overlay_removed", "count", 0.0),
    lower("server.session_ns_per_line", "ns", 0.0),
    lower("server.wire_overhead_us", "us", 0.0),
    lower("server.wire_p99_us", "us", 0.0),
    lower("server.wire_p999_us", "us", 0.0),
    lower("server.patch_p99_us", "us", 0.0),
    higher("server.epoll_qps", "1/s", 0.0),
    lower("server.epoll_p50_us", "us", 0.0),
    lower("server.errors", "count", 0.0),
    lower("server.sheds", "count", 0.0),
    lower("host.canary_ms", "ms", 0.0),
    lower("host.canary_spread_pct", "%", 0.0),
    lower("trace.overhead_pct", "%", 0.0),
];

/// Operations per slice per round. Chosen once, on the reference machine,
/// so that a slice lasts about 0.2 s (compression: one call, 0.45–0.75 s);
/// README.md says how to re-size them when that machine changes.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub decompress: usize,
    pub load: usize,
    pub neighbors: usize,
    pub reach: usize,
    pub rpq: usize,
    pub wire1: usize,
    pub wire64: usize,
    /// `PATCH` lines per round, each followed by [`READS_PER_PATCH`] reads.
    pub patches: usize,
}

pub const READS_PER_PATCH: usize = 9;

impl Counts {
    /// `--quick`: one tenth of every count.
    pub fn tenth(self) -> Self {
        let t = |n: usize| (n / 10).max(1);
        Self {
            decompress: t(self.decompress),
            load: t(self.load),
            neighbors: t(self.neighbors),
            reach: t(self.reach),
            rpq: t(self.rpq),
            wire1: t(self.wire1),
            wire64: t(self.wire64).next_multiple_of(64),
            patches: t(self.patches),
        }
    }
}

/// Share of each verb in a wire read mix, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub out: u64,
    pub inn: u64,
    pub neighbors: u64,
    pub reach: u64,
    pub rpq: u64,
}

/// The read-only mix of a graph shallow enough that a `reach` costs about
/// what a neighbor list does.
const READ_MIX: Mix = Mix {
    out: 40,
    inn: 20,
    neighbors: 10,
    reach: 15,
    rpq: 15,
};
/// Where one `reach` is 65–200 µs of engine work against 5 µs for a
/// neighbor list (the network and version graphs), a 15 % share would turn
/// the wire slices into a second `reach_us`, and would park the window-1
/// median on the edge between the two modes.
const NEIGHBOR_MIX: Mix = Mix {
    out: 50,
    inn: 30,
    neighbors: 20,
    reach: 0,
    rpq: 0,
};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The fixed instance of the dataset family (see [`Workload::graph`]).
    graph: fn() -> Hypergraph,
    pub mix: Mix,
    /// Wire reads address the patched head (through the overlay) instead of
    /// the untouched base namespace.
    pub reads_on_head: bool,
    /// Steps of the seeded walks that make the positive `reach`/`rpq`
    /// pairs; the walked label sequence is the pattern.
    pub walk: (u64, u64),
    pub counts: Counts,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "compress-network",
        why: "hub network (Email-EuAll analog), one component, poorly compressible: replace_to_fixpoint is ~3/4 of compression, the start graph dominates the container",
        graph: || network::hub_network(12_000, 24, 1, 1),
        mix: NEIGHBOR_MIX,
        reads_on_head: false,
        walk: (2, 2),
        counts: Counts { decompress: 20, load: 22, neighbors: 600_000, reach: 1_024, rpq: 2_048, wire1: 16_000, wire64: 64 * 500, patches: 60 },
    },
    Workload {
        name: "compress-version",
        why: "DBLP-style version graph, a disjoint union of snapshots: finish (strip, prune, node map) plus the virtual-edge pass are half of compression, and many rules load codec and grammar",
        graph: || CoauthorshipHistory::generate(13, 80, 800, 60, 1).version_graph(12),
        mix: NEIGHBOR_MIX,
        reads_on_head: false,
        walk: (1, 3),
        counts: Counts { decompress: 7, load: 7, neighbors: 400_000, reach: 3_072, rpq: 3_072, wire1: 19_000, wire64: 64 * 900, patches: 60 },
    },
    Workload {
        name: "serve-rdf-read",
        why: "RDF property graph, 71 labels, shallow: engine work per query is ~1 us, so store dispatch and caches and server framing and batching are what a read-only client waits for",
        graph: || rdf::property_graph(8_000, 71, 14, 1_600, 1),
        mix: READ_MIX,
        reads_on_head: false,
        walk: (1, 3),
        counts: Counts { decompress: 10, load: 11, neighbors: 550_000, reach: 128 * 1_024, rpq: 192 * 1_024, wire1: 22_000, wire64: 64 * 1_500, patches: 60 },
    },
    Workload {
        name: "serve-network-patch",
        why: "deep hub network served while it is patched: reads go through the overlay of a growing log, PATCH clones the cumulative overlay, reach and rpq are engine-bound",
        graph: || network::hub_network(10_000, 24, 1, 2),
        mix: NEIGHBOR_MIX,
        reads_on_head: true,
        walk: (2, 2),
        counts: Counts { decompress: 25, load: 28, neighbors: 600_000, reach: 1_024, rpq: 3_072, wire1: 16_000, wire64: 64 * 500, patches: 200 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's input graph: one fixed instance of its dataset family,
    /// the same for every `--seed`. The seed draws the traffic — every
    /// request stream, the reach/rpq pools and the patch list — not the data.
    ///
    /// Seeding the graph was measured and rejected twice. Re-seeding the
    /// generators: the RDF family draws its schema from the seed, so over
    /// eight seeds its bits/edge ran 8.8–12.6 and its compression time
    /// 0.51–0.80 s; one hub network in four came out disconnected (a 20 %
    /// virtual-edge pass the others do not run); no bound under 25 % would
    /// have held. Rotating the node ids of one instance by a seeded offset
    /// instead kept sizes and compression time steady (bits/edge within 2 %)
    /// but the grammar's shape still followed the node order: `reach_us` on
    /// the version graph came out at 48 µs for two rotations in six and at
    /// 72–89 µs for the rest.
    pub fn graph(&self) -> Hypergraph {
        (self.graph)()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_hypergraph::traverse::connected_components;

    #[test]
    fn network_instances_are_one_component() {
        // A disconnected hub network runs the virtual-edge pass (a fifth of
        // its compression time) that the workload's `why` says it does not.
        for w in WORKLOADS.iter().filter(|w| w.name.contains("network")) {
            assert_eq!(connected_components(&w.graph()).1, 1, "{}", w.name);
        }
    }

    #[test]
    fn head_reads_use_a_mix_the_model_can_answer() {
        // Wire replies from the patched head are checked against the
        // harness's edge-set model, which answers neighbor verbs only.
        for w in WORKLOADS.iter().filter(|w| w.reads_on_head) {
            assert_eq!(w.mix.reach + w.mix.rpq, 0, "{}", w.name);
        }
        for w in WORKLOADS {
            let m = w.mix;
            assert_eq!(
                m.out + m.inn + m.neighbors + m.reach + m.rpq,
                100,
                "{}",
                w.name
            );
            assert_eq!(w.counts.wire64 % 64, 0, "{}", w.name);
        }
    }
}
