//! Bit vectors: a growable [`BitVec`] and a static [`RankBitVec`] with
//! constant-time `rank1`, the navigation primitive of k²-trees.

/// Growable bit vector backed by `u64` words.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bit vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// Bit vector of `len` bits over `words` (bit `i` is bit `i % 64` of
    /// word `i / 64`); bits at `len` and above must be zero.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(64));
        debug_assert!(len.is_multiple_of(64) || words.last().is_some_and(|w| w >> (len % 64) == 0));
        Self { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `n ≤ 64` bits `i .. i + n` as the low bits of a word, bit `i`
    /// lowest.
    #[inline]
    pub fn get_bits(&self, i: usize, n: u32) -> u64 {
        debug_assert!(n <= 64 && i + n as usize <= self.len);
        if n == 0 {
            return 0;
        }
        let (word, off) = (i / 64, (i % 64) as u32);
        #[expect(
            clippy::indexing_slicing,
            reason = "caller contract i + n <= len (debug_assert), so word < words.len()"
        )]
        let mut v = self.words[word] >> off;
        #[expect(
            clippy::indexing_slicing,
            reason = "the field runs past word, so bit i + n - 1 < len lives in word + 1"
        )]
        if off + n > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    /// Append a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "word == words.len() was handled by the push just above"
        )]
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Get bit `i`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "caller contract i < len (debug_assert); words holds ceil(len/64) words"
    )]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "caller contract i < len (debug_assert), as in get()"
    )]
    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

/// Static bit vector with O(1) `rank1` support.
///
/// Uses one absolute 32-bit prefix count per 512-bit superblock plus per-word
/// popcounts on demand — ~6.25 % overhead, plenty fast for k²-tree traversal
/// where each child step is one `rank1`.
#[derive(Debug, Clone)]
pub struct RankBitVec {
    bits: BitVec,
    /// `superblocks[b]` = number of ones in `words[0 .. b * WORDS_PER_BLOCK)`;
    /// defined for every `b` with `b * WORDS_PER_BLOCK ≤ words.len()`, so the
    /// lookup in `rank1` is always in bounds — including queries at the very
    /// end of the vector.
    superblocks: Vec<u32>,
    total_ones: usize,
}

const WORDS_PER_BLOCK: usize = 8;

impl RankBitVec {
    /// Build the rank directory for `bits`.
    pub fn new(bits: BitVec) -> Self {
        let mut superblocks = Vec::with_capacity(bits.words.len() / WORDS_PER_BLOCK + 2);
        superblocks.push(0);
        let mut acc = 0u32;
        for (i, w) in bits.words.iter().enumerate() {
            acc += w.count_ones();
            if (i + 1) % WORDS_PER_BLOCK == 0 {
                superblocks.push(acc);
            }
        }
        let total_ones = acc as usize;
        Self { bits, superblocks, total_ones }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// Bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of set bits strictly before position `i` (`0 ≤ i ≤ len`).
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.bits.len);
        let word = i / 64;
        let block = word / WORDS_PER_BLOCK;
        debug_assert!(block < self.superblocks.len());
        #[expect(
            clippy::indexing_slicing,
            reason = "rank1 contract i <= len; superblocks covers every block (see build)"
        )]
        let mut count = self.superblocks[block] as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "w < word <= len/64 < words.len() under the rank1 contract"
        )]
        for w in (block * WORDS_PER_BLOCK)..word {
            count += self.bits.words[w].count_ones() as usize;
        }
        let rem = i % 64;
        #[expect(
            clippy::indexing_slicing,
            reason = "word = i/64 with i <= len and rem > 0, so word indexes a real word"
        )]
        if rem > 0 {
            count += (self.bits.words[word] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Underlying bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut bv = BitVec::new();
        for i in 0..130 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 130);
        for i in 0..130 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {i}");
        }
        bv.set(1, true);
        assert!(bv.get(1));
        bv.set(0, false);
        assert!(!bv.get(0));
    }

    #[test]
    fn zeros_and_count() {
        let bv = BitVec::zeros(100);
        assert_eq!(bv.len(), 100);
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn from_iterator() {
        let bv: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(bv.len(), 3);
        assert!(bv.get(0) && !bv.get(1) && bv.get(2));
    }

    #[test]
    fn rank_matches_naive() {
        // Deterministic pseudo-random pattern crossing several superblocks.
        let mut bv = BitVec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bv.push(x & 1 == 1);
        }
        let rb = RankBitVec::new(bv.clone());
        let mut naive = 0usize;
        for i in 0..bv.len() {
            assert_eq!(rb.rank1(i), naive, "rank at {i}");
            naive += bv.get(i) as usize;
        }
        assert_eq!(rb.rank1(bv.len()), naive);
        assert_eq!(rb.count_ones(), naive);
    }

    #[test]
    fn rank_empty_and_full() {
        let rb = RankBitVec::new(BitVec::zeros(0));
        assert_eq!(rb.len(), 0);
        let ones: BitVec = (0..777).map(|_| true).collect();
        let rb = RankBitVec::new(ones);
        assert_eq!(rb.rank1(777), 777);
        assert_eq!(rb.rank1(512), 512);
        assert_eq!(rb.rank1(513), 513);
    }

    #[test]
    fn rank_at_exact_superblock_boundaries() {
        // Regression: when the word count is a multiple of the superblock
        // size, rank1 at the very end used to clamp to the previous
        // superblock and undercount — which aliased k²-tree leaves.
        for len in [512usize, 1024, 1536, 4096] {
            let ones: BitVec = (0..len).map(|_| true).collect();
            let rb = RankBitVec::new(ones);
            assert_eq!(rb.rank1(len), len, "len {len}");
            assert_eq!(rb.rank1(len - 1), len - 1);
            let alternating: BitVec = (0..len).map(|i| i % 2 == 0).collect();
            let rb = RankBitVec::new(alternating);
            assert_eq!(rb.rank1(len), len / 2);
        }
    }
}
