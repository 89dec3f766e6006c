//! MSB-first bit reader over a byte slice.

use crate::{BitError, BitVec, Result};

/// Reads bits most-significant-first from a byte slice, bounded by an exact
/// bit length (so zero padding from [`crate::BitWriter::finish`] is never
/// mistaken for data).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_len: u64,
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Reader over `bytes` containing exactly `bit_len` valid bits.
    ///
    /// `bit_len` is clamped to the bits actually present: a hostile header
    /// claiming more bits than the buffer holds must surface as
    /// [`BitError::UnexpectedEnd`] on the read that runs out, never as an
    /// out-of-bounds byte index.
    pub fn new(bytes: &'a [u8], bit_len: u64) -> Self {
        let bit_len = bit_len.min(bytes.len() as u64 * 8);
        Self { bytes, bit_len, pos: 0 }
    }

    /// Current read position in bits.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Bits left to read.
    pub fn remaining(&self) -> u64 {
        self.bit_len - self.pos
    }

    /// Read one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        if self.pos >= self.bit_len {
            return Err(BitError::UnexpectedEnd);
        }
        let byte = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        self.pos += 1;
        #[expect(
            clippy::indexing_slicing,
            reason = "new() clamps bit_len to bytes.len()*8, and pos < bit_len here"
        )]
        Ok((self.bytes[byte] >> (7 - off)) & 1 == 1)
    }

    /// Read `width` bits as the low bits of a `u64`, MSB first.
    ///
    /// Gathers the (at most nine) bytes the field spans into one
    /// accumulator and cuts the field out of it, instead of one
    /// [`BitReader::read_bit`] per bit.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64> {
        debug_assert!(width <= 64);
        if self.remaining() < width as u64 {
            return Err(BitError::UnexpectedEnd);
        }
        if width == 0 {
            return Ok(0);
        }
        let first = (self.pos / 8) as usize;
        let end = (self.pos + width as u64).div_ceil(8) as usize;
        let mut acc = 0u128;
        #[expect(
            clippy::indexing_slicing,
            reason = "pos + width <= bit_len <= bytes.len()*8 (checked above; new() clamps bit_len), so end <= bytes.len()"
        )]
        for &b in &self.bytes[first..end] {
            acc = (acc << 8) | b as u128;
        }
        // `acc` holds (end - first) * 8 bits; the field ends `tail` bits
        // before its low end, and everything above the field is dropped by
        // the cast (width 64) or the mask.
        let tail = (end * 8) as u64 - (self.pos + width as u64);
        self.pos += width as u64;
        let v = (acc >> tail) as u64;
        Ok(if width == 64 { v } else { v & ((1u64 << width) - 1) })
    }

    /// Read the next `len` bits into a [`BitVec`] (the first bit read is
    /// bit 0), 64 at a time.
    pub fn read_bitvec(&mut self, len: usize) -> Result<BitVec> {
        if self.remaining() < len as u64 {
            return Err(BitError::UnexpectedEnd);
        }
        let mut words = Vec::with_capacity(len.div_ceil(64));
        let mut left = len;
        while left > 0 {
            let n = left.min(64) as u32;
            // MSB-first field → LSB-first word: left-align, then reverse.
            words.push((self.read_bits(n)? << (64 - n)).reverse_bits());
            left -= n as usize;
        }
        Ok(BitVec::from_words(words, len))
    }

    /// Skip `n` bits.
    pub fn skip(&mut self, n: u64) -> Result<()> {
        if self.remaining() < n {
            return Err(BitError::UnexpectedEnd);
        }
        self.pos += n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitWriter;

    #[test]
    fn round_trip_bits() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0xDEAD_BEEF, 32);
        w.push_bit(true);
        let (bytes, len) = w.finish();

        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEAD_BEEF);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), Err(BitError::UnexpectedEnd));
    }

    #[test]
    fn padding_is_not_readable() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 1); // padded to a byte
        let mut r = BitReader::new(&bytes, len);
        r.skip(3).unwrap();
        assert_eq!(r.read_bit(), Err(BitError::UnexpectedEnd));
    }

    #[test]
    fn lying_bit_len_is_clamped() {
        // A header claiming 10^6 bits over a 2-byte buffer: reads succeed
        // for the 16 real bits, then error — no out-of-bounds access.
        let bytes = [0xAB, 0xCD];
        let mut r = BitReader::new(&bytes, 1_000_000);
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.read_bit(), Err(BitError::UnexpectedEnd));
        // Empty buffer, nonzero claim.
        let mut r = BitReader::new(&[], 64);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.read_bit(), Err(BitError::UnexpectedEnd));
    }

    #[test]
    fn skip_moves_position() {
        let mut w = BitWriter::new();
        w.push_bits(0b1111_0000, 8);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        r.skip(4).unwrap();
        assert_eq!(r.read_bits(4).unwrap(), 0);
        assert!(r.skip(1).is_err());
    }
}
