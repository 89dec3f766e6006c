//! Bit-exact serialization of k²-trees.
//!
//! Layout: δ(k) δ(rows+1) δ(cols+1) δ(|T|+1) δ(|L|+1), then the raw `T` and
//! `L` bits. δ-codes keep tiny trees tiny (matters for the per-label
//! subgraph trees of the grammar codec, many of which are nearly empty).

use crate::build::K2Tree;
use grepair_bits::codes::{delta_len, read_delta, write_delta};
use grepair_bits::{BitError, BitReader, BitWriter, RankBitVec};

impl K2Tree {
    /// Append the serialized tree to `w`.
    pub fn encode(&self, w: &mut BitWriter) {
        write_delta(w, self.k as u64);
        write_delta(w, self.rows as u64 + 1);
        write_delta(w, self.cols as u64 + 1);
        write_delta(w, self.t.len() as u64 + 1);
        write_delta(w, self.l.len() as u64 + 1);
        for i in 0..self.t.len() {
            w.push_bit(self.t.get(i));
        }
        for i in 0..self.l.len() {
            w.push_bit(self.l.get(i));
        }
    }

    /// Exact size of [`K2Tree::encode`]'s output in bits.
    pub fn encoded_bits(&self) -> u64 {
        delta_len(self.k as u64)
            + delta_len(self.rows as u64 + 1)
            + delta_len(self.cols as u64 + 1)
            + delta_len(self.t.len() as u64 + 1)
            + delta_len(self.l.len() as u64 + 1)
            + self.storage_bits()
    }

    /// Decode a tree previously written by [`K2Tree::encode`].
    pub fn decode(r: &mut BitReader<'_>) -> grepair_bits::Result<K2Tree> {
        let k = read_delta(r)? as u32;
        if !(2..=8).contains(&k) {
            return Err(BitError::InvalidCode("k2tree arity out of range"));
        }
        let rows = (read_delta(r)? - 1) as u32;
        let cols = (read_delta(r)? - 1) as u32;
        let t_len = (read_delta(r)? - 1) as usize;
        let l_len = (read_delta(r)? - 1) as usize;
        let t = RankBitVec::new(r.read_bitvec(t_len)?);
        let l = r.read_bitvec(l_len)?;
        // Recompute the derived geometry.
        let n = rows.max(cols).max(1) as u64;
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
        // Validate the level structure so corrupt streams cannot drive
        // queries out of bounds: level 0 has k² bits; each further level has
        // k² bits per 1 in the previous level (a `rank1` difference); the
        // internal levels must fill T exactly and the last level must fill
        // L exactly.
        let kk = (k * k) as usize;
        let mut pos = 0usize;
        let mut level_bits = kk;
        for _ in 1..height {
            if pos + level_bits > t.len() {
                return Err(BitError::InvalidCode("k2tree level overflows bitmap"));
            }
            let ones = t.rank1(pos + level_bits) - t.rank1(pos);
            pos += level_bits;
            level_bits = ones * kk;
        }
        if level_bits > l.len() {
            return Err(BitError::InvalidCode("k2tree level overflows bitmap"));
        }
        if level_bits != l.len() {
            return Err(BitError::InvalidCode("k2tree leaf level size mismatch"));
        }
        if pos != t.len() {
            return Err(BitError::InvalidCode("k2tree internal levels size mismatch"));
        }
        Ok(K2Tree { k, rows, cols, side, height, t, l })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_round_trip() {
        let t = K2Tree::build(2, 0, 0, vec![]);
        let mut w = BitWriter::new();
        t.encode(&mut w);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let t2 = K2Tree::decode(&mut r).unwrap();
        assert_eq!(t2.count_ones(), 0);
        assert_eq!(t2.rows(), 0);
    }

    #[test]
    fn corrupted_arity_is_rejected() {
        let mut w = BitWriter::new();
        write_delta(&mut w, 1); // k = 1: invalid
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert!(K2Tree::decode(&mut r).is_err());
    }

    #[test]
    fn encoded_bits_is_exact_for_various_shapes() {
        for (rows, cols, pts) in [
            (1u32, 1u32, vec![(0u32, 0u32)]),
            (100, 3, vec![(99, 2), (0, 0), (50, 1)]),
            (64, 64, (0..64).map(|i| (i, i)).collect::<Vec<_>>()),
        ] {
            let t = K2Tree::build(2, rows, cols, pts);
            let mut w = BitWriter::new();
            t.encode(&mut w);
            assert_eq!(w.bit_len(), t.encoded_bits());
        }
    }
}
