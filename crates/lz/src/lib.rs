//! A DEFLATE-style general-purpose byte compressor: LZ77 with a 32 KiB
//! window and hash-chain matching, followed by canonical Huffman coding of
//! literal/length and distance symbols (the standard DEFLATE bucket tables).
//!
//! Why this exists: the LM baseline (Grabowski & Bieniecki \[20\]) compresses
//! its merged adjacency lists with gzip. The offline crate set has no gzip
//! binding, so this crate plays that role — same algorithm family, same
//! asymptotics, comparable ratios. It is a single-block format (no need for
//! streaming here) with explicit error handling on decode.
//!
//! ```
//! let data = b"abcabcabcabcabcabc".to_vec();
//! let packed = grepair_lz::compress(&data);
//! assert_eq!(grepair_lz::decompress(&packed).unwrap(), data);
//! ```

#![forbid(unsafe_code)]
// Libraries return data; binaries print (DESIGN.md §9.1).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

pub mod huffman;
pub mod lz77;

use grepair_bits::{BitReader, BitWriter};

/// Errors produced when decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzError {
    /// The bit stream ended early or a code was malformed.
    Corrupt(&'static str),
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for LzError {}

impl From<grepair_bits::BitError> for LzError {
    fn from(_: grepair_bits::BitError) -> Self {
        LzError::Corrupt("unexpected end of bit stream")
    }
}

/// Compress `data` into a self-contained byte block.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let tokens = lz77::tokenize(data);
    let mut w = BitWriter::new();
    grepair_bits::codes::write_delta(&mut w, data.len() as u64 + 1);
    huffman::encode_tokens(&mut w, &tokens);
    let (bytes, bit_len) = w.finish();
    // Prefix with the exact bit length (8-byte LE) so decode can bound reads.
    let mut out = Vec::with_capacity(bytes.len() + 8);
    out.extend_from_slice(&bit_len.to_le_bytes());
    out.extend_from_slice(&bytes);
    out
}

/// Exact compressed size in bits (excluding the 64-bit container length
/// prefix — callers comparing codec payloads want the payload size).
pub fn compressed_bits(data: &[u8]) -> u64 {
    let tokens = lz77::tokenize(data);
    let mut w = BitWriter::new();
    grepair_bits::codes::write_delta(&mut w, data.len() as u64 + 1);
    huffman::encode_tokens(&mut w, &tokens);
    w.bit_len()
}

/// Decompress a block produced by [`compress`].
pub fn decompress(block: &[u8]) -> Result<Vec<u8>, LzError> {
    if block.len() < 8 {
        return Err(LzError::Corrupt("missing length prefix"));
    }
    let bit_len = u64::from_le_bytes(block[..8].try_into().unwrap());
    let payload = &block[8..];
    if bit_len > payload.len() as u64 * 8 {
        return Err(LzError::Corrupt("length prefix exceeds payload"));
    }
    let mut r = BitReader::new(payload, bit_len);
    let out_len = grepair_bits::codes::read_delta(&mut r)? - 1;
    let tokens = huffman::decode_tokens(&mut r)?;
    let data = lz77::detokenize(&tokens)?;
    if data.len() as u64 != out_len {
        return Err(LzError::Corrupt("output length mismatch"));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data, "len {}", data.len());
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn tiny_inputs() {
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"aaa");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(500);
        let packed = compress(&data);
        assert!(packed.len() * 10 < data.len(), "{} vs {}", packed.len(), data.len());
        round_trip(&data);
    }

    #[test]
    fn long_runs() {
        let data = vec![0u8; 100_000];
        round_trip(&data);
        let packed = compress(&data);
        assert!(packed.len() < 300, "run should collapse, got {}", packed.len());
    }

    #[test]
    fn pseudo_random_survives() {
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn structured_binary_like_adjacency_lists() {
        // Varint-ish deltas, the shape LM feeds into gzip.
        let mut data = Vec::new();
        for block in 0..200u32 {
            for i in 0..40u32 {
                data.extend_from_slice(&(block * 7 + i % 5).to_le_bytes());
            }
        }
        let packed = compress(&data);
        assert!(packed.len() * 3 < data.len());
        round_trip(&data);
    }

    #[test]
    fn corrupt_streams_are_rejected_not_panicking() {
        assert!(decompress(&[1, 2, 3]).is_err());
        let huge_len = u64::MAX.to_le_bytes();
        let mut bogus = huge_len.to_vec();
        bogus.extend_from_slice(&[0; 16]);
        assert!(decompress(&bogus).is_err());
        // Bit-flip every position of a small block: must never panic.
        let packed = compress(b"hello world hello world hello");
        for i in 8..packed.len() {
            for bit in 0..8 {
                let mut copy = packed.clone();
                copy[i] ^= 1 << bit;
                let _ = decompress(&copy); // Ok or Err, but no panic
            }
        }
    }

    #[test]
    fn matches_cross_the_whole_window() {
        let mut data = Vec::new();
        data.extend_from_slice(&[7u8; 100]);
        data.extend(std::iter::repeat_n(0u8, 32_000));
        data.extend_from_slice(&[7u8; 100]);
        round_trip(&data);
    }
}
