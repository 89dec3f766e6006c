//! k²-trees (Brisaboa, Ladra & Navarro \[21\]): a succinct representation of
//! sparse binary matrices used by the paper to encode the incompressible
//! start graph of a grammar (§III-C2) and, on its own, as the `k2-tree`
//! baseline compressor of §IV.
//!
//! The matrix is padded to the next power of `k` and recursively split into
//! k² submatrices. An all-zero submatrix becomes a 0 bit; a non-empty one
//! becomes a 1 bit whose children are emitted one level down. Bits of all
//! internal levels form the bitmap `T`; the last level (individual cells)
//! forms `L`. Navigation uses `rank1` on `T`: the children of the node at
//! position `p` start at `rank1(T, p+1) · k²`.
//!
//! Supports cell queries, full-row (out-neighbor) and full-column
//! (in-neighbor) retrieval, iteration over all 1-cells, and bit-exact
//! serialization.

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]
// The zero-panic boundary (DESIGN.md §2, §9.1): this crate reads untrusted
// bytes, so every panic path carries an `#[expect(…, reason)]` audit.
#![deny(
    clippy::allow_attributes_without_reason,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

mod build;
mod query;
mod serialize;

pub use build::K2Tree;

#[cfg(test)]
mod tests {
    use super::*;
    use grepair_bits::{BitReader, BitWriter};

    fn example_points() -> Vec<(u32, u32)> {
        // The 9×9 terminal-edge matrix of Fig. 9 (left), 0-based:
        // ones at (0,1), (0,3), (0,5), (0,7), (2,8), (4,6)
        vec![(0, 1), (0, 3), (0, 5), (0, 7), (2, 8), (4, 6)]
    }

    #[test]
    fn fig9_matrix_cells() {
        let t = K2Tree::build(2, 9, 9, example_points());
        for r in 0..9 {
            for c in 0..9 {
                let expect = example_points().contains(&(r, c));
                assert_eq!(t.get(r, c), expect, "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn fig9_row_and_col() {
        let t = K2Tree::build(2, 9, 9, example_points());
        assert_eq!(t.row(0), vec![1, 3, 5, 7]);
        assert_eq!(t.row(2), vec![8]);
        assert_eq!(t.row(3), Vec::<u32>::new());
        assert_eq!(t.col(6), vec![4]);
        assert_eq!(t.col(1), vec![0]);
        assert_eq!(t.col(0), Vec::<u32>::new());
    }

    #[test]
    fn empty_matrix() {
        let t = K2Tree::build(2, 5, 5, Vec::new());
        assert!(!t.get(3, 3));
        assert!(t.row(0).is_empty());
        assert_eq!(t.iter_ones().count(), 0);
    }

    #[test]
    fn one_by_one() {
        let t = K2Tree::build(2, 1, 1, vec![(0, 0)]);
        assert!(t.get(0, 0));
        assert_eq!(t.iter_ones().collect::<Vec<_>>(), vec![(0, 0)]);
    }

    #[test]
    fn full_matrix() {
        let pts: Vec<(u32, u32)> = (0..4).flat_map(|r| (0..4).map(move |c| (r, c))).collect();
        let t = K2Tree::build(2, 4, 4, pts.clone());
        let got: Vec<_> = t.iter_ones().collect();
        assert_eq!(got, pts);
    }

    #[test]
    fn rectangular_matrix() {
        // nodes × edges incidence shape: 5 rows, 12 cols
        let pts = vec![(0, 0), (0, 11), (4, 3), (2, 7)];
        let t = K2Tree::build(2, 5, 12, pts.clone());
        for &(r, c) in &pts {
            assert!(t.get(r, c));
        }
        assert!(!t.get(4, 11));
        let mut got: Vec<_> = t.iter_ones().collect();
        got.sort();
        let mut want = pts;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn k4_variant() {
        let pts = vec![(0, 0), (9, 9), (3, 12), (15, 2)];
        let t = K2Tree::build(4, 16, 16, pts.clone());
        for &(r, c) in &pts {
            assert!(t.get(r, c), "({r},{c})");
        }
        assert!(!t.get(1, 1));
        assert_eq!(t.iter_ones().count(), 4);
    }

    #[test]
    fn serialization_round_trip() {
        let t = K2Tree::build(2, 9, 9, example_points());
        let mut w = BitWriter::new();
        t.encode(&mut w);
        let (bytes, len) = w.finish();
        assert_eq!(len, t.encoded_bits());
        let mut r = BitReader::new(&bytes, len);
        let t2 = K2Tree::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(
            t.iter_ones().collect::<Vec<_>>(),
            t2.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(t2.rows(), 9);
        assert_eq!(t2.cols(), 9);
    }

    #[test]
    fn duplicate_points_are_deduped() {
        let t = K2Tree::build(2, 3, 3, vec![(1, 1), (1, 1), (2, 0)]);
        assert_eq!(t.iter_ones().count(), 2);
    }

    #[test]
    fn rank_boundary_regression_68x48() {
        // Found by the dense-matrix property test: with a T bitmap whose
        // word count hit an exact rank-superblock boundary, navigation
        // aliased cell (66,26) onto (67,26)'s leaf bit.
        let pts: Vec<(u32, u32)> = vec![
            (62, 43), (31, 23), (22, 23), (37, 12), (12, 27), (47, 45), (38, 7), (21, 41),
            (21, 6), (32, 17), (32, 39), (65, 13), (52, 42), (60, 6), (41, 38), (20, 14),
            (0, 3), (56, 45), (50, 20), (17, 11), (62, 11), (34, 39), (42, 25), (15, 44),
            (12, 5), (9, 10), (28, 28), (56, 38), (39, 25), (57, 8), (14, 35), (16, 47),
            (41, 34), (31, 11), (6, 2), (7, 43), (27, 11), (41, 15), (67, 26), (24, 16),
            (53, 0), (55, 37), (14, 34), (46, 40), (13, 4), (52, 42), (7, 10), (34, 21),
            (55, 22), (19, 32), (13, 25), (65, 18), (10, 8), (59, 12), (45, 7), (5, 4),
            (52, 1), (0, 18), (45, 31), (22, 16), (42, 6), (50, 44), (55, 23), (55, 5),
            (57, 47), (54, 9), (12, 18), (54, 37), (43, 32), (57, 43), (31, 5), (34, 45),
            (20, 30), (25, 4),
        ];
        let tree = K2Tree::build(2, 68, 48, pts.clone());
        assert!(!tree.get(66, 26));
        assert!(tree.get(67, 26));
        let mut sorted = pts;
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(tree.iter_ones().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn storage_is_sublinear_for_clustered_ones() {
        // A dense 16x16 block in a 1024x1024 matrix: the k2-tree should cost
        // far less than the 1M bits of the raw matrix.
        let pts: Vec<(u32, u32)> =
            (0..16).flat_map(|r| (0..16).map(move |c| (r, c))).collect();
        let t = K2Tree::build(2, 1024, 1024, pts);
        assert!(t.encoded_bits() < 2000, "got {}", t.encoded_bits());
    }
}
