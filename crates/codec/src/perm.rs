//! Permutation dictionary for hyperedge attachment orders.
//!
//! The incidence matrix of a hyperedge label records which nodes an edge
//! attaches but not in which order. As in the paper: "we count the number of
//! distinct such permutations appearing in the grammar and assign a number
//! to each; then we store the list encoded in a ⌈log n⌉-fixed length
//! encoding".

use grepair_bits::codes::{ceil_log2, read_delta, write_delta};
use grepair_bits::{BitReader, BitWriter};
use grepair_hypergraph::NodeId;
use grepair_util::FxHashMap;

use crate::CodecError;

/// A permutation `p` such that `att[i] = sorted_att[p[i]]`.
pub type Perm = Vec<u8>;

/// Compute the permutation taking the ascending-sorted attachment to the
/// actual attachment order.
pub fn perm_of(att: &[NodeId]) -> Perm {
    let mut sorted: Vec<NodeId> = att.to_vec();
    sorted.sort_unstable();
    #[expect(
        clippy::unwrap_used,
        reason = "sorted is a permutation of att, so every element is found"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a position in att; the format's ranks are ≤ 255, which the decoder \
                  enforces (rules.rs, PermDict::decode)"
    )]
    att.iter()
        .map(|v| sorted.iter().position(|x| x == v).unwrap() as u8)
        .collect()
}

/// Apply a permutation: the `i`-th node yielded is `sorted_att[p[i]]`.
pub fn apply_perm<'a>(
    sorted_att: &'a [NodeId],
    perm: &'a [u8],
) -> impl Iterator<Item = NodeId> + 'a {
    #[expect(
        clippy::indexing_slicing,
        reason = "callers check perm.len() == sorted_att.len(), and decoded dict entries are validated < len"
    )]
    perm.iter().map(|&i| sorted_att[i as usize])
}

/// Dictionary of distinct permutations with fixed-width indexing.
#[derive(Debug, Default, Clone)]
pub struct PermDict {
    perms: Vec<Perm>,
    index: FxHashMap<Perm, u32>,
}

impl PermDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a permutation; returns its index.
    pub fn intern(&mut self, perm: Perm) -> u32 {
        if let Some(&i) = self.index.get(&perm) {
            return i;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one permutation per edge at most, and edge ids are u32"
        )]
        let i = self.perms.len() as u32;
        self.perms.push(perm.clone());
        self.index.insert(perm, i);
        i
    }

    /// Number of distinct permutations.
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// True if no permutations are interned.
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// Look up by index.
    pub fn get(&self, i: u32) -> Option<&Perm> {
        self.perms.get(i as usize)
    }

    /// Index of an already-interned permutation.
    pub fn index_of(&self, perm: &[u8]) -> Option<u32> {
        self.index.get(perm).copied()
    }

    /// Width of one index code word.
    pub fn index_bits(&self) -> u32 {
        ceil_log2(self.perms.len().max(1) as u64)
    }

    /// Serialize: δ(count+1), then per permutation δ(len) followed by
    /// fixed-width entries.
    pub fn encode(&self, w: &mut BitWriter) {
        write_delta(w, self.perms.len() as u64 + 1);
        for perm in &self.perms {
            write_delta(w, perm.len() as u64);
            let width = ceil_log2(perm.len() as u64);
            for &p in perm {
                w.push_bits(p as u64, width);
            }
        }
    }

    /// Decode a dictionary written by [`PermDict::encode`].
    pub fn decode(r: &mut BitReader<'_>) -> Result<Self, CodecError> {
        let count = read_delta(r)? - 1;
        let mut dict = Self::new();
        for _ in 0..count {
            let len = match u8::try_from(read_delta(r)?) {
                Ok(len @ 1..) => usize::from(len),
                _ => return Err(CodecError::Malformed("permutation length out of range".into())),
            };
            let width = ceil_log2(len as u64);
            let mut perm = Vec::with_capacity(len);
            for _ in 0..len {
                let p = u8::try_from(r.read_bits(width)?)
                    .ok()
                    .filter(|&p| usize::from(p) < len)
                    .ok_or_else(|| CodecError::Malformed("permutation entry out of range".into()))?;
                perm.push(p);
            }
            // Must be a permutation of 0..len.
            let mut check = perm.clone();
            check.sort_unstable();
            if check.iter().enumerate().any(|(i, &p)| p as usize != i) {
                return Err(CodecError::Malformed("not a permutation".into()));
            }
            dict.intern(perm);
        }
        Ok(dict)
    }

    /// Write one edge's permutation index.
    pub fn encode_index(&self, w: &mut BitWriter, index: u32) {
        w.push_bits(index as u64, self.index_bits());
    }

    /// Read one edge's permutation index.
    pub fn decode_index(&self, r: &mut BitReader<'_>) -> Result<u32, CodecError> {
        u32::try_from(r.read_bits(self.index_bits())?)
            .ok()
            .filter(|&i| (i as usize) < self.perms.len())
            .ok_or_else(|| CodecError::Malformed("permutation index out of range".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_round_trip_on_attachments() {
        for att in [vec![5u32, 2, 9], vec![1, 0], vec![3], vec![7, 3, 1, 9, 4]] {
            let perm = perm_of(&att);
            let mut sorted = att.clone();
            sorted.sort_unstable();
            assert_eq!(apply_perm(&sorted, &perm).collect::<Vec<_>>(), att);
        }
    }

    #[test]
    fn identity_perm_for_sorted_attachment() {
        assert_eq!(perm_of(&[1, 4, 9]), vec![0, 1, 2]);
        assert_eq!(perm_of(&[9, 4, 1]), vec![2, 1, 0]);
    }

    #[test]
    fn dict_interns_and_serializes() {
        let mut dict = PermDict::new();
        let a = dict.intern(vec![0, 1, 2]);
        let b = dict.intern(vec![2, 0, 1]);
        let a2 = dict.intern(vec![0, 1, 2]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);

        let mut w = BitWriter::new();
        dict.encode(&mut w);
        dict.encode_index(&mut w, b);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        let dict2 = PermDict::decode(&mut r).unwrap();
        assert_eq!(dict2.len(), 2);
        let idx = dict2.decode_index(&mut r).unwrap();
        assert_eq!(dict2.get(idx).unwrap(), &vec![2, 0, 1]);
    }

    #[test]
    fn corrupt_dictionaries_are_rejected() {
        // A "permutation" with a repeated entry.
        let mut w = BitWriter::new();
        write_delta(&mut w, 2); // 1 perm
        write_delta(&mut w, 2); // of length 2
        w.push_bits(0, 1);
        w.push_bits(0, 1); // [0, 0] — not a permutation
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert!(PermDict::decode(&mut r).is_err());
    }
}
