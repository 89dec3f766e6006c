//! Property tests for the bit-level substrates.

use grepair_bits::codes::{
    delta_len, read_delta, read_gamma, read_unary, write_delta, write_gamma, write_unary,
};
use grepair_bits::{BitError, BitReader, BitVec, BitWriter, RankBitVec};
use proptest::prelude::*;

proptest! {
    #[test]
    fn delta_round_trips(values in proptest::collection::vec(1u64..=u64::MAX, 0..200)) {
        let mut w = BitWriter::new();
        for &v in &values {
            write_delta(&mut w, v);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &v in &values {
            prop_assert_eq!(read_delta(&mut r).unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn delta_len_is_exact(v in 1u64..=u64::MAX) {
        let mut w = BitWriter::new();
        write_delta(&mut w, v);
        prop_assert_eq!(w.bit_len(), delta_len(v));
    }

    #[test]
    fn mixed_codes_round_trip(
        ops in proptest::collection::vec((0u8..3, 1u64..1_000_000), 0..100)
    ) {
        let mut w = BitWriter::new();
        for &(kind, v) in &ops {
            match kind {
                0 => write_unary(&mut w, v % 64),
                1 => write_gamma(&mut w, v),
                _ => write_delta(&mut w, v),
            }
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &(kind, v) in &ops {
            let got = match kind {
                0 => read_unary(&mut r).unwrap(),
                1 => read_gamma(&mut r).unwrap(),
                _ => read_delta(&mut r).unwrap(),
            };
            let want = if kind == 0 { v % 64 } else { v };
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn push_bits_round_trip(
        chunks in proptest::collection::vec((0u64..=u64::MAX, 0u32..=64), 0..50)
    ) {
        let mut w = BitWriter::new();
        for &(v, width) in &chunks {
            let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            w.push_bits(masked, width);
        }
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        for &(v, width) in &chunks {
            let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            prop_assert_eq!(r.read_bits(width).unwrap(), masked);
        }
    }

    #[test]
    fn read_bits_matches_bit_by_bit_at_every_width_and_offset(
        bytes in proptest::collection::vec(any::<u8>(), 0..12),
        cut in 0u64..8,
    ) {
        // A bit length that is not a multiple of 8, so the padding edge is
        // exercised as well as the buffer's end.
        let bit_len = (bytes.len() as u64 * 8).saturating_sub(cut);
        for offset in 0..8u64.min(bit_len + 1) {
            for width in 0..=64u32 {
                let mut r = BitReader::new(&bytes, bit_len);
                r.skip(offset).unwrap();
                let mut reference = r.clone();
                if r.remaining() < u64::from(width) {
                    prop_assert_eq!(r.read_bits(width), Err(BitError::UnexpectedEnd));
                    prop_assert_eq!(r.position(), offset);
                    continue;
                }
                let mut want = 0u64;
                for _ in 0..width {
                    want = (want << 1) | u64::from(reference.read_bit().unwrap());
                }
                prop_assert_eq!(r.read_bits(width), Ok(want), "offset {} width {}", offset, width);
                prop_assert_eq!(r.position(), reference.position());
            }
        }
    }

    #[test]
    fn read_bitvec_matches_bit_by_bit(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        offset in 0u64..8,
        len in 0usize..330,
    ) {
        let bit_len = bytes.len() as u64 * 8;
        let mut r = BitReader::new(&bytes, bit_len);
        if r.skip(offset).is_err() {
            return Ok(());
        }
        let mut reference = r.clone();
        if r.remaining() < len as u64 {
            prop_assert_eq!(r.read_bitvec(len), Err(BitError::UnexpectedEnd));
            return Ok(());
        }
        let got = r.read_bitvec(len).unwrap();
        prop_assert_eq!(got.len(), len);
        let want: Vec<bool> = (0..len).map(|_| reference.read_bit().unwrap()).collect();
        prop_assert_eq!(got.iter().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(got.count_ones(), want.iter().filter(|&&b| b).count());
        prop_assert_eq!(r.position(), reference.position());
        for i in 0..len {
            for n in 0..=64u32.min((len - i) as u32) {
                let word = want[i..i + n as usize]
                    .iter()
                    .rev()
                    .fold(0u64, |acc, &b| (acc << 1) | u64::from(b));
                prop_assert_eq!(got.get_bits(i, n), word);
            }
        }
    }

    #[test]
    fn rank_matches_prefix_count(bits in proptest::collection::vec(any::<bool>(), 0..3000)) {
        let bv: BitVec = bits.iter().copied().collect();
        let rb = RankBitVec::new(bv);
        let mut count = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(rb.rank1(i), count);
            count += b as usize;
        }
        prop_assert_eq!(rb.rank1(bits.len()), count);
        prop_assert_eq!(rb.count_ones(), count);
    }
}
