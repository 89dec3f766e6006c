//! Queries over a built k²-tree: cell membership, row/column retrieval
//! (out-/in-neighborhoods when the matrix is an adjacency matrix), and
//! full enumeration of 1-cells.

use crate::build::K2Tree;

impl K2Tree {
    /// Position of the first child of the internal node whose bit sits at
    /// `pos` in `T` (which must be a 1 bit).
    #[inline]
    fn children_start(&self, pos: usize) -> usize {
        self.t.rank1(pos + 1) * (self.k * self.k) as usize
    }

    /// Bit at combined position `pos` (positions ≥ |T| index into `L`).
    #[inline]
    fn bit(&self, pos: usize) -> bool {
        if pos < self.t.len() {
            self.t.get(pos)
        } else {
            self.l.get(pos - self.t.len())
        }
    }

    /// Is cell `(row, col)` set?
    pub fn get(&self, row: u32, col: u32) -> bool {
        if row >= self.rows || col >= self.cols {
            return false;
        }
        let k = self.k as u64;
        let mut side = self.side / k;
        let mut pos = 0usize; // position of the current node's first child bit
        let (mut r, mut c) = (row as u64, col as u64);
        loop {
            let child = (r / side) * k + c / side;
            let p = pos + child as usize;
            if !self.bit(p) {
                return false;
            }
            if side == 1 {
                return true;
            }
            pos = self.children_start(p);
            r %= side;
            c %= side;
            side /= k;
        }
    }

    /// All set columns in `row`, ascending — the out-neighborhood when rows
    /// are sources.
    pub fn row(&self, row: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if row < self.rows {
            self.walk_row(row as u64, 0, 0, self.side, &mut out);
        }
        out
    }

    fn walk_row(&self, r: u64, pos: usize, col0: u64, side: u64, out: &mut Vec<u32>) {
        let k = self.k as u64;
        let sub = side / k;
        let row_band = r / sub;
        for bc in 0..k {
            let p = pos + (row_band * k + bc) as usize;
            if !self.bit(p) {
                continue;
            }
            let col = col0 + bc * sub;
            if sub == 1 {
                if col < self.cols as u64 {
                    out.push(col as u32);
                }
            } else {
                self.walk_row(r % sub, self.children_start(p), col, sub, out);
            }
        }
    }

    /// All set rows in `col`, ascending — the in-neighborhood when rows are
    /// sources.
    pub fn col(&self, col: u32) -> Vec<u32> {
        let mut out = Vec::new();
        if col < self.cols {
            self.walk_col(col as u64, 0, 0, self.side, &mut out);
        }
        out
    }

    fn walk_col(&self, c: u64, pos: usize, row0: u64, side: u64, out: &mut Vec<u32>) {
        let k = self.k as u64;
        let sub = side / k;
        let col_band = c / sub;
        for br in 0..k {
            let p = pos + (br * k + col_band) as usize;
            if !self.bit(p) {
                continue;
            }
            let row = row0 + br * sub;
            if sub == 1 {
                if row < self.rows as u64 {
                    out.push(row as u32);
                }
            } else {
                self.walk_col(c % sub, self.children_start(p), row, sub, out);
            }
        }
    }

    /// All 1-cells, sorted by (row, col).
    ///
    /// One level-order pass over `T`, then `L`, with no `rank1` and no
    /// recursion: the children of the j-th 1-bit of a level are the j-th
    /// k²-block of the next level, so a queue of the current level's cell
    /// origins, in bitmap order, places every block of the next one.
    pub fn iter_ones(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (k, kk) = (self.k as u64, self.k * self.k);
        let mut origins: Vec<(u64, u64)> = vec![(0, 0)];
        let mut sub = self.side;
        let mut pos = 0usize; // where this level's first block sits in T
        for level in 0..self.height {
            sub /= k;
            let (bits, base) = if level + 1 < self.height {
                (self.t.bits(), pos)
            } else {
                (&self.l, 0)
            };
            pos += origins.len() * kk as usize;
            let mut next = Vec::with_capacity(origins.len());
            for (j, &(row0, col0)) in origins.iter().enumerate() {
                let mut block = bits.get_bits(base + j * kk as usize, kk);
                while block != 0 {
                    let child = block.trailing_zeros() as u64;
                    block &= block - 1;
                    next.push((row0 + child / k * sub, col0 + child % k * sub));
                }
            }
            origins = next;
        }
        // Sorted as one u64 key per cell: row in the high half.
        let mut keys: Vec<u64> = origins
            .into_iter()
            .filter(|&(row, col)| row < self.rows as u64 && col < self.cols as u64)
            .map(|(row, col)| row << 32 | col)
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|key| ((key >> 32) as u32, key as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_queries_are_false_or_empty() {
        let t = K2Tree::build(2, 3, 3, vec![(0, 0)]);
        assert!(!t.get(5, 0));
        assert!(!t.get(0, 5));
        assert!(t.row(9).is_empty());
        assert!(t.col(9).is_empty());
    }

    #[test]
    fn random_matrix_matches_reference() {
        // Deterministic xorshift-filled 37x53 matrix.
        let mut x = 0x2545F491_4F6CDD1Du64;
        let mut pts = Vec::new();
        let mut reference = vec![[false; 53]; 37];
        for r in 0..37u32 {
            for c in 0..53u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(7) {
                    pts.push((r, c));
                    reference[r as usize][c as usize] = true;
                }
            }
        }
        let t = K2Tree::build(2, 37, 53, pts.clone());
        for r in 0..37u32 {
            let want: Vec<u32> =
                (0..53u32).filter(|&c| reference[r as usize][c as usize]).collect();
            assert_eq!(t.row(r), want, "row {r}");
        }
        for c in 0..53u32 {
            let want: Vec<u32> =
                (0..37u32).filter(|&r| reference[r as usize][c as usize]).collect();
            assert_eq!(t.col(c), want, "col {c}");
        }
        assert_eq!(t.iter_ones().collect::<Vec<_>>(), pts);
    }
}
