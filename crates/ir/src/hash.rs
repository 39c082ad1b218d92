//! The hash functions every crate shares: universe and epoch keys,
//! statement slots, the summary cache's body keys, the canonical
//! labelling's hash colors and the shared tables' keys all derive from
//! them. The tests below pin their reference outputs.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a (64-bit) over a byte slice: deterministic across processes and
/// platforms.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multiplier of [`WordHasher`]'s rotate-xor-multiply step (FxHash's).
const WORD_K: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time hasher: each 8-byte little-endian word (or integer
/// write) is folded in with one rotate-xor-multiply, and [`Hasher::finish`]
/// mixes the state with [`splitmix64`]. Deterministic across processes and
/// platforms, and several times cheaper than FNV-1a or SipHash on the
/// shared tables' keys: canonical byte strings of a few hundred bytes and
/// small tuples of ids.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_K);
    }
}

impl Hasher for WordHasher {
    /// The full words, then the zero-padded tail (if any), then the
    /// length, so strings that differ only in trailing zeros differ.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// The `BuildHasher` of every map in the shared tables.
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// [`WordHasher`] over one byte slice.
#[inline]
pub fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_reference_outputs() {
        // The first outputs of the splitmix64 generator seeded with 0: each
        // is the finalizer applied to the next multiple of the increment.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn word_hash_reference_outputs() {
        // Pinned: the interner's stripes and buckets, and so its lock
        // contention pattern, derive from these values on every platform.
        assert_eq!(word_hash(b""), 0xe220_a839_7b1d_cdaf);
        assert_eq!(word_hash(b"a"), 0x88a2_ebf6_773f_db34);
        assert_eq!(word_hash(b"foobar"), 0x027e_869a_b419_8b28);
        assert_eq!(word_hash(b"0123456789abcdef!"), 0x9c37_9c43_0f19_5f26);
        let mut h = WordHasher::default();
        h.write_u32(7);
        h.write_u64(u64::MAX);
        assert_eq!(h.finish(), 0xe14d_3b34_9417_9461);
    }

    #[test]
    fn word_hash_separates_lengths_and_words() {
        assert_ne!(word_hash(b"a"), word_hash(b"a\0"));
        assert_ne!(word_hash(b"12345678"), word_hash(b"12345678\0"));
        assert_ne!(word_hash(b"abcdefgh12"), word_hash(b"abcdefgh21"));
    }
}
