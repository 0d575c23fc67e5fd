//! Bloom filters for LSM disk components.
//!
//! Each disk component carries a bloom filter over its keys so point lookups
//! can skip components that certainly do not contain the key — essential when
//! a NoMerge-ish policy leaves many components (experiment E8 measures this).
//!
//! Classic double-hashing construction: k index probes derived from two
//! 64-bit hashes, `g_i(x) = h1(x) + i*h2(x)`.

use crate::le::{hash64, hash64_after};

/// Bits per key of every component's filter: about a 1 % false-positive rate.
pub const BITS_PER_KEY: usize = 10;

/// A serializable bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
}

/// The two hashes a filter places `key` by.
pub(crate) fn hash_pair(key: &[u8]) -> (u64, u64) {
    let a = hash64(key);
    let mut b = hash64_after(a ^ 0x9e37_79b9_7f4a_7c15, key);
    if b == 0 {
        b = 0x5851_f42d_4c95_7f2d; // h2 must be non-zero for double hashing
    }
    (a, b)
}

impl BloomFilter {
    /// Sizes a filter for `expected_keys` at roughly `bits_per_key` bits per
    /// key (10 bits/key ≈ 1% false-positive rate).
    pub fn new(expected_keys: usize, bits_per_key: usize) -> Self {
        let n_bits = ((expected_keys.max(1) * bits_per_key.max(1)) as u64).next_multiple_of(64);
        // optimal k = ln2 * bits/key
        let n_hashes = ((bits_per_key as f64) * std::f64::consts::LN_2).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0u64; (n_bits / 64) as usize],
            n_bits,
            n_hashes,
        }
    }

    /// A filter of [`BITS_PER_KEY`] bits a key over the keys whose
    /// [`hash_pair`]s are `pairs` — a component's, sized once its keys are
    /// written; none for no keys.
    pub(crate) fn of_pairs(pairs: &[(u64, u64)]) -> Option<Self> {
        if pairs.is_empty() {
            return None;
        }
        let mut filter = BloomFilter::new(pairs.len(), BITS_PER_KEY);
        pairs.iter().for_each(|&pair| filter.insert_pair(pair));
        Some(filter)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_pair(hash_pair(key));
    }

    /// Inserts the key whose hash pair is `(h1, h2)`.
    fn insert_pair(&mut self, (h1, h2): (u64, u64)) {
        for i in 0..self.n_hashes {
            let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2))) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// True when the key *may* be present; false means definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = hash_pair(key);
        for i in 0..self.n_hashes {
            let bit = (h1.wrapping_add((i as u64).wrapping_mul(h2))) % self.n_bits;
            if self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serializes to bytes (stored in the component file's footer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.bits.len() * 8);
        out.extend_from_slice(&self.n_bits.to_le_bytes());
        out.extend_from_slice(&self.n_hashes.to_le_bytes());
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes from [`BloomFilter::to_bytes`] output.
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if buf.len() < 12 {
            return None;
        }
        let n_bits = u64::from_le_bytes(buf[0..8].try_into().ok()?);
        let n_hashes = u32::from_le_bytes(buf[8..12].try_into().ok()?);
        let n_words = (n_bits / 64) as usize;
        if n_bits % 64 != 0 || buf.len() < 12 + n_words * 8 || n_hashes == 0 {
            return None;
        }
        let bits = buf[12..12 + n_words * 8]
            .chunks_exact(8)
            .map(|c| crate::le::u64_at(c, 0))
            .collect();
        Some(BloomFilter { bits, n_bits, n_hashes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1000, 10);
        for i in 0..1000u32 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.may_contain(&i.to_le_bytes()), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut f = BloomFilter::new(10_000, 10);
        for i in 0..10_000u32 {
            f.insert(&i.to_le_bytes());
        }
        let mut fp = 0;
        let probes = 10_000u32;
        for i in probes..2 * probes {
            if f.may_contain(&i.to_le_bytes()) {
                fp += 1;
            }
        }
        let rate = fp as f64 / probes as f64;
        assert!(rate < 0.05, "false-positive rate {rate} too high");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::new(100, 8);
        for i in 0..100u32 {
            f.insert(&i.to_le_bytes());
        }
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), 12 + f.bits.len() * 8, "a 12-byte header, then the words");
        let back = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(f, back);
        assert!(BloomFilter::from_bytes(&bytes[..5]).is_none());
    }

    /// A filter built from its keys' hash pairs holds the bits of one sized
    /// up front for the same keys.
    #[test]
    fn a_filter_of_hash_pairs_is_the_one_sized_for_its_keys() {
        let mut sized = BloomFilter::new(300, BITS_PER_KEY);
        let mut pairs = Vec::new();
        for i in 0..300u32 {
            sized.insert(&i.to_le_bytes());
            pairs.push(hash_pair(&i.to_le_bytes()));
        }
        assert_eq!(BloomFilter::of_pairs(&pairs), Some(sized));
        assert_eq!(BloomFilter::of_pairs(&[]), None);
    }

    #[test]
    fn empty_filter_contains_nothing_surely() {
        let f = BloomFilter::new(10, 10);
        // an empty filter returns false for everything
        for i in 0..100u32 {
            assert!(!f.may_contain(&i.to_le_bytes()));
        }
    }
}
