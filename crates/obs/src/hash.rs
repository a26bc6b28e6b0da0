//! The repository's two non-cryptographic hashes, in one place.
//!
//! - [`mix64`] — SplitMix64's output finalizer, a bijective 64-bit mixer
//!   used for span-id blocks, tail sampling, ring positions, HNSW levels
//!   and the SMMF PRNG.
//! - [`Fnv1a`] — the 64-bit FNV-1a digest behind the catalog, knowledge
//!   base and ANN fingerprints, the hashing embedder and the SMMF
//!   breaker seeds.
//!
//! Both are pure functions of their input: fingerprints, ring positions
//! and sampling decisions are stable across runs and platforms.

/// SplitMix64's state increment, ⌊2⁶⁴/φ⌋. Odd, so also a handy
/// multiplier for decorrelating sequential ids.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer. One SplitMix64 step from state `s` is
/// `mix64(s.wrapping_add(GOLDEN_GAMMA))`.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental 64-bit FNV-1a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The standard FNV-1a offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A digest at the standard offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// A digest starting from a caller-chosen basis (a seeded hash).
    pub fn with_basis(basis: u64) -> Self {
        Fnv1a(basis)
    }

    /// Fold one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Fold every byte of `bytes`, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a of `bytes` from the standard basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn splitmix64_step_matches_reference() {
        // First output of SplitMix64 seeded with 0.
        assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0), 0);
    }
}
