//! Reachability on the grammar ≡ BFS on the decompressed graph, on the
//! shapes the labels have to survive: every `datasets` family the benchmark
//! and `repro` draw from, compressed at three rank bounds (a larger
//! `max_rank` means wider skeletons, deeper climbs and more seeds per
//! level), queried the way the benchmark's pools query — ends of short
//! walks, which mostly sit in one rule subtree or next to a hub, and
//! uniform pairs, which mostly do not.

mod common;

use common::{config, families};
use grepair_core::compress;
use grepair_hypergraph::traverse;
use grepair_queries::{QueryError, ReachIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn sampled_pairs_match_bfs_on_every_family_and_rank() {
    for (family, g) in families(2_400) {
        for max_rank in [2, 4, 8] {
            let out = compress(&g, &config(max_rank));
            let derived = out.grammar.derive();
            let reach = ReachIndex::new(&out.grammar);
            let n = derived.num_nodes() as u64;
            assert!((2_000..=5_000).contains(&n), "{family}: {n} nodes");
            let mut rng = StdRng::seed_from_u64(max_rank as u64);
            let mut positives = 0;
            for i in 0..2_000u64 {
                let s = rng.gen_range(0..n);
                let t = if i % 2 == 0 {
                    // The end of a walk of 1–3 steps (fewer at a sink).
                    let mut at = s as u32;
                    for _ in 0..1 + (i / 2) % 3 {
                        let row: Vec<u32> = derived.out_neighbors(at).collect();
                        if row.is_empty() {
                            break;
                        }
                        at = row[rng.gen_range(0..row.len())];
                    }
                    at as u64
                } else {
                    rng.gen_range(0..n)
                };
                let want = traverse::reachable(&derived, s as u32, t as u32);
                positives += u64::from(want);
                assert_eq!(
                    reach.try_reachable(s, t),
                    Ok(want),
                    "{family} max_rank {max_rank}: reach({s}, {t})"
                );
            }
            assert!(positives >= 1_000, "{family}: every walk end is a positive");
        }
    }
}

#[test]
fn all_pairs_match_bfs_on_one_small_instance_per_family() {
    for (family, g) in families(300) {
        let out = compress(&g, &config(4));
        let derived = out.grammar.derive();
        let reach = ReachIndex::new(&out.grammar);
        let n = derived.num_nodes() as u64;
        for s in 0..n {
            // One BFS per source instead of one per pair.
            let mut want = vec![false; n as usize];
            want[s as usize] = true;
            let mut queue = vec![s as u32];
            while let Some(v) = queue.pop() {
                for w in derived.out_neighbors(v) {
                    if !std::mem::replace(&mut want[w as usize], true) {
                        queue.push(w);
                    }
                }
            }
            for t in 0..n {
                assert_eq!(reach.reachable(s, t), want[t as usize], "{family}: reach({s}, {t})");
            }
        }
    }
}

#[test]
fn out_of_range_ids_error_on_either_side() {
    // Out-of-range ids error instead of panicking, on both sides — including
    // the s == t fast path, which must still validate.
    for (family, g) in families(300) {
        let out = compress(&g, &config(4));
        let reach = ReachIndex::new(&out.grammar);
        let n = reach.index().total_nodes;
        let out_of_range = |id| Err(QueryError::NodeOutOfRange { id, total: n });
        assert_eq!(reach.try_reachable(n, 0), out_of_range(n), "{family}");
        assert_eq!(reach.try_reachable(0, n), out_of_range(n), "{family}");
        assert_eq!(reach.try_reachable(n, n), out_of_range(n), "{family}");
        assert_eq!(reach.try_reachable(n + 7, n), out_of_range(n + 7), "{family}: s before t");
        assert_eq!(reach.try_reachable(u64::MAX, u64::MAX), out_of_range(u64::MAX), "{family}");
        assert_eq!(reach.try_reachable_counted(n - 1, n).map(|(a, _)| a), out_of_range(n));
        assert_eq!(reach.try_reachable(n - 1, n - 1), Ok(true), "{family}");
    }
}
