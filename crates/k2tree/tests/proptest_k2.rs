//! Property tests: a k²-tree must behave exactly like the dense matrix it
//! encodes, for arbitrary shapes, arities, and point sets — including after
//! a serialization round trip.

use grepair_bits::{BitReader, BitWriter};
use grepair_k2tree::K2Tree;
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1u32..80, 1u32..80).prop_flat_map(|(rows, cols)| {
        let points = proptest::collection::vec((0..rows, 0..cols), 0..200);
        (Just(rows), Just(cols), points)
    })
}

proptest! {
    #[test]
    fn cells_match_dense_matrix((rows, cols, points) in arb_matrix(), k in 2u32..=4) {
        let tree = K2Tree::build(k, rows, cols, points.clone());
        let mut dense = vec![vec![false; cols as usize]; rows as usize];
        for &(r, c) in &points {
            dense[r as usize][c as usize] = true;
        }
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(tree.get(r, c), dense[r as usize][c as usize]);
            }
        }
    }

    #[test]
    fn rows_cols_and_iter_match((rows, cols, points) in arb_matrix()) {
        let tree = K2Tree::build(2, rows, cols, points.clone());
        let mut sorted = points.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(tree.iter_ones().collect::<Vec<_>>(), sorted.clone());
        for r in 0..rows {
            let want: Vec<u32> = sorted.iter().filter(|p| p.0 == r).map(|p| p.1).collect();
            prop_assert_eq!(tree.row(r), want);
        }
        for c in 0..cols {
            let want: Vec<u32> = sorted.iter().filter(|p| p.1 == c).map(|p| p.0).collect();
            prop_assert_eq!(tree.col(c), want);
        }
    }

    #[test]
    fn iter_ones_is_the_sorted_point_set_for_every_arity(
        (rows, cols, points) in arb_matrix(),
        k in 2u32..=4,
    ) {
        let mut sorted = points.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let tree = K2Tree::build(k, rows, cols, points);
        prop_assert_eq!(tree.iter_ones().collect::<Vec<_>>(), sorted.clone());
        let mut w = BitWriter::new();
        tree.encode(&mut w);
        let (bytes, len) = w.finish();
        let back = K2Tree::decode(&mut BitReader::new(&bytes, len)).unwrap();
        prop_assert_eq!(back.iter_ones().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn serialization_round_trips((rows, cols, points) in arb_matrix(), k in 2u32..=3) {
        let tree = K2Tree::build(k, rows, cols, points);
        let mut w = BitWriter::new();
        tree.encode(&mut w);
        prop_assert_eq!(w.bit_len(), tree.encoded_bits());
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let back = K2Tree::decode(&mut r).unwrap();
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(
            tree.iter_ones().collect::<Vec<_>>(),
            back.iter_ones().collect::<Vec<_>>()
        );
        prop_assert_eq!(back.rows(), rows);
        prop_assert_eq!(back.cols(), cols);
    }
}
