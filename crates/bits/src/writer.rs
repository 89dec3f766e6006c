//! MSB-first bit writer.

/// Accumulates bits most-significant-first into a byte buffer.
///
/// The final partial byte (if any) is zero-padded on [`BitWriter::finish`];
/// the exact bit length is returned alongside so readers and size accounting
/// stay bit-precise (the paper reports sizes in bits, e.g. the 28-bit rule
/// encoding example of §III-C2).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already committed to `bytes` plus bits pending in `cur`.
    bit_len: u64,
    /// Pending bits, left-aligned count in `cur_bits`.
    cur: u8,
    cur_bits: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bit_len
    }

    /// Append a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | (bit as u8);
        self.cur_bits += 1;
        self.bit_len += 1;
        if self.cur_bits == 8 {
            self.bytes.push(self.cur);
            self.cur = 0;
            self.cur_bits = 0;
        }
    }

    /// Append the `width` low bits of `value`, most significant first.
    ///
    /// `width` may be 0 (writes nothing) up to 64.
    #[inline]
    pub fn push_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        debug_assert!(width == 64 || value < (1u64 << width), "value wider than width");
        for i in (0..width).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Append every bit of another writer's finished stream.
    pub fn extend_from(&mut self, other: &BitWriter) {
        for i in 0..other.bit_len() {
            self.push_bit(other.peek_bit(i));
        }
    }

    /// Read back bit `idx` of the stream written so far (for extend/tests).
    fn peek_bit(&self, idx: u64) -> bool {
        let byte = (idx / 8) as usize;
        let off = (idx % 8) as u8;
        #[expect(
            clippy::indexing_slicing,
            reason = "guarded by the byte < bytes.len() branch"
        )]
        if byte < self.bytes.len() {
            (self.bytes[byte] >> (7 - off)) & 1 == 1
        } else {
            let local = (idx - self.bytes.len() as u64 * 8) as u8;
            debug_assert!(local < self.cur_bits);
            (self.cur >> (self.cur_bits - 1 - local)) & 1 == 1
        }
    }

    /// Finish the stream: pad the trailing byte with zeros and return
    /// `(bytes, exact_bit_length)`.
    pub fn finish(mut self) -> (Vec<u8>, u64) {
        if self.cur_bits > 0 {
            let pad = 8 - self.cur_bits;
            self.bytes.push(self.cur << pad);
            self.cur = 0;
            self.cur_bits = 0;
        }
        (self.bytes, self.bit_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer() {
        let (bytes, len) = BitWriter::new().finish();
        assert!(bytes.is_empty());
        assert_eq!(len, 0);
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for b in [true, false, true, true] {
            w.push_bit(b);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len, 4);
        assert_eq!(bytes, vec![0b1011_0000]);
    }

    #[test]
    fn multi_byte_values() {
        let mut w = BitWriter::new();
        w.push_bits(0b1_0101_0101, 9);
        w.push_bits(0b111, 3);
        let (bytes, len) = w.finish();
        assert_eq!(len, 12);
        assert_eq!(bytes, vec![0b1010_1010, 0b1111_0000]);
    }

    #[test]
    fn zero_width_is_noop() {
        let mut w = BitWriter::new();
        w.push_bits(0, 0);
        assert_eq!(w.bit_len(), 0);
    }

    #[test]
    fn full_width_64() {
        let mut w = BitWriter::new();
        w.push_bits(u64::MAX, 64);
        let (bytes, len) = w.finish();
        assert_eq!(len, 64);
        assert_eq!(bytes, vec![0xFF; 8]);
    }

    #[test]
    fn extend_concatenates_bit_exactly() {
        let mut a = BitWriter::new();
        a.push_bits(0b101, 3);
        let mut b = BitWriter::new();
        b.push_bits(0b01, 2);
        a.extend_from(&b);
        let (bytes, len) = a.finish();
        assert_eq!(len, 5);
        assert_eq!(bytes, vec![0b1010_1000]);
    }
}
