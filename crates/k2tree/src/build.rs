//! Construction of k²-trees.

use grepair_bits::{BitVec, RankBitVec};

/// A static k²-tree over an `rows × cols` binary matrix.
///
/// Built once from the list of 1-cells; immutable afterwards.
#[derive(Debug, Clone)]
pub struct K2Tree {
    pub(crate) k: u32,
    pub(crate) rows: u32,
    pub(crate) cols: u32,
    /// Padded (square) side length, a power of `k`.
    pub(crate) side: u64,
    /// Tree height: number of internal levels (so `side = k^(height+1)`
    /// unless the matrix is a single cell).
    pub(crate) height: u32,
    /// Internal-level bits, level by level.
    pub(crate) t: RankBitVec,
    /// Leaf-level bits (individual cells).
    pub(crate) l: BitVec,
}

impl K2Tree {
    /// Build a k²-tree with arity `k ≥ 2` over an `rows × cols` matrix whose
    /// 1-cells are `points` (duplicates allowed; order irrelevant).
    ///
    /// # Panics
    /// If `k < 2` or a point lies outside the matrix.
    pub fn build(k: u32, rows: u32, cols: u32, mut points: Vec<(u32, u32)>) -> Self {
        assert!(k >= 2, "k must be at least 2");
        for &(r, c) in &points {
            assert!(r < rows.max(1) && c < cols.max(1), "point ({r},{c}) out of bounds");
        }
        let n = rows.max(cols).max(1) as u64;
        // side = smallest power of k that is >= n, and at least k so that a
        // single split reaches the leaf level.
        let mut side = 1u64;
        let mut height = 0u32;
        while side < n {
            side *= k as u64;
            height += 1;
        }
        if height == 0 {
            side = k as u64;
            height = 1;
        }

        points.sort_unstable();
        points.dedup();

        // Level-by-level construction: each level holds the list of
        // (origin_row, origin_col, points-in-sub-square) tasks; emit k²
        // bits per task.
        type Task = (u64, u64, Vec<(u32, u32)>);
        let mut t_bits = BitVec::new();
        let mut l_bits = BitVec::new();
        let mut tasks: Vec<Task> = vec![(0, 0, points)];
        let mut level_side = side;
        for level in 0..height {
            level_side /= k as u64;
            let last_level = level == height - 1;
            let mut next: Vec<Task> = Vec::new();
            for (or, oc, pts) in tasks {
                // Partition the task's points into the k² children in
                // row-major child order.
                let kk = (k * k) as usize;
                let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); kk];
                for (r, c) in pts {
                    let br = (r as u64 - or) / level_side;
                    let bc = (c as u64 - oc) / level_side;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "the partition arithmetic keeps br and bc < k, so the bucket index < k*k"
                    )]
                    buckets[(br * k as u64 + bc) as usize].push((r, c));
                }
                for (i, bucket) in buckets.into_iter().enumerate() {
                    let bit = !bucket.is_empty();
                    if last_level {
                        l_bits.push(bit);
                    } else {
                        t_bits.push(bit);
                        if bit {
                            let br = i as u64 / k as u64;
                            let bc = i as u64 % k as u64;
                            next.push((or + br * level_side, oc + bc * level_side, bucket));
                        }
                    }
                }
            }
            tasks = next;
        }

        Self {
            k,
            rows,
            cols,
            side,
            height,
            t: RankBitVec::new(t_bits),
            l: l_bits,
        }
    }

    /// Arity.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Tree height (number of levels, leaf level included).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Logical row count.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of 1-cells.
    pub fn count_ones(&self) -> usize {
        self.l.count_ones()
    }

    /// Size of the structural bitmaps in bits (|T| + |L|) — the payload the
    /// paper's file format stores.
    pub fn storage_bits(&self) -> u64 {
        self.t.len() as u64 + self.l.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_is_padded_to_power_of_k() {
        let t = K2Tree::build(2, 9, 9, vec![]);
        assert_eq!(t.side, 16);
        assert_eq!(t.height, 4);
        let t = K2Tree::build(3, 9, 9, vec![]);
        assert_eq!(t.side, 9);
        assert_eq!(t.height, 2);
    }

    #[test]
    fn empty_tree_has_single_zero_level() {
        let t = K2Tree::build(2, 4, 4, vec![]);
        // Root level is all zeros, nothing below.
        assert_eq!(t.t.len() + t.l.len(), 4);
        assert_eq!(t.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_point_panics() {
        K2Tree::build(2, 3, 3, vec![(3, 0)]);
    }

    #[test]
    #[should_panic(expected = "k must be at least 2")]
    fn k1_rejected() {
        K2Tree::build(1, 3, 3, vec![]);
    }
}
