//! Work per unit of output must not grow with the input — counted, never
//! timed, so the test is as deterministic as the compressor.
//!
//! `hub_network(n, 8, 1, 1)` at n = 1 500 and n = 6 000: the eight hubs'
//! degrees and the provenance forest both grow about fourfold. What the
//! exact counters in [`CompressStats`] said on the commit before the group
//! index, with the same counters placed in the old loops (every incident
//! edge re-bucketed by a recount plus every pairing-cursor step; every tree
//! node a `splice_children` walk stepped on plus every root materialized),
//! and what they say now:
//!
//! | per …                                | before: n → 4n (→ 8n)        | now: n → 4n (→ 8n)         |
//! |--------------------------------------|------------------------------|----------------------------|
//! | `group_edges_scanned / replacements` | 99.0 → 124.2 (→ 141.2)       | 58.0 → 64.2 (→ 65.4)       |
//! | `prov_nodes_visited / replacements`  | 58.8 → 108.2 (→ 182.6)       | 0.75 → 0.73 (→ 0.72)       |
//! | `prov_nodes_visited / rules_pruned`  | 1 728 → 7 545 (→ 16 895)     | 22.2 → 51.1 (→ 66.6)       |
//!
//! The first row grew with hub degree (a recount re-bucketed the whole hub)
//! and is flat now. The second grew with the forest (every inline into a
//! rule walked every tree) and is now bounded by construction: a tree node
//! dissolves at most once and a host is only visited to dissolve at least
//! one child, so pruning touches at most two nodes per node of the forest —
//! one forest node per replacement. The third row is the one that *cannot*
//! be flat: the expansions of a pruned rule are its output, and on this
//! family rules get more expansions as the graph grows while the number of
//! pruned rules barely moves (78 → 135 → 205). It is stated, not asserted.

use grepair_core::{compress, CompressStats, GRePairConfig};
use grepair_datasets::network::hub_network;

fn stats(n: usize) -> CompressStats {
    compress(&hub_network(n, 8, 1, 1), &GRePairConfig::default()).stats
}

fn per_replacement(count: u64, s: &CompressStats) -> f64 {
    count as f64 / s.replacements as f64
}

#[test]
fn work_per_replacement_is_independent_of_the_input_size() {
    let (small, large) = (stats(1_500), stats(6_000));
    assert!(large.replacements > 3 * small.replacements, "the larger input is ~4× the work");
    assert!(small.rules_pruned > 0 && small.prov_nodes_visited > 0, "pruning happened");

    let grouping = |s: &CompressStats| per_replacement(s.group_edges_scanned, s);
    assert!(
        grouping(&large) <= 1.5 * grouping(&small),
        "group members scanned per replacement grew with hub degree: {:.1} -> {:.1}",
        grouping(&small),
        grouping(&large)
    );

    let pruning = |s: &CompressStats| per_replacement(s.prov_nodes_visited, s);
    assert!(
        pruning(&large) <= 1.5 * pruning(&small),
        "provenance nodes visited per forest node grew with the forest: {:.2} -> {:.2}",
        pruning(&small),
        pruning(&large)
    );
    for s in [&small, &large] {
        assert!(
            s.prov_nodes_visited <= 2 * s.replacements as u64,
            "pruning touched more than two nodes per node of the forest"
        );
        assert!(s.rank_rejects <= s.pair_attempts);
    }
}
