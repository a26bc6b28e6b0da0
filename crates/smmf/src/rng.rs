//! In-crate deterministic PRNG for everything random in SMMF.
//!
//! The resilience layer's whole value proposition is that scenario
//! outcomes are exactly reproducible: same seed, same fault sequence, same
//! breaker transitions, byte-identical chaos reports. Owning the generator
//! (SplitMix64, the seeding generator from the xoshiro family — a 64-bit
//! state, three xor-shift-multiply steps) makes that guarantee independent
//! of any external RNG crate's version or platform behaviour, and keeps
//! the crate free of non-std dependencies so the serving simulation can be
//! compiled and replayed anywhere the toolchain exists.
//!
//! The generator is *not* cryptographic and is not meant to be: it feeds
//! fault injection, routing choices, and jitter, where the requirements
//! are determinism, decent equidistribution, and cheap independent streams
//! (derived by salting the seed — see [`SplitMix64::stream`]).

use dbgpt_obs::hash::{mix64, GOLDEN_GAMMA};

/// Deterministic 64-bit PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator seeded with `seed`. Identical seeds yield identical
    /// sequences on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream derived from `seed` and a `salt` that names
    /// the stream (e.g. one stream for request faults, another for health
    /// probes). Streams with different salts are uncorrelated even for the
    /// same seed, which is what lets probing leave the request-level fault
    /// sequence untouched.
    pub fn stream(seed: u64, salt: u64) -> Self {
        // Mix the salt through one SplitMix64 step so that nearby salts
        // produce distant states.
        let mut s = SplitMix64::new(salt.wrapping_mul(GOLDEN_GAMMA));
        SplitMix64::new(seed ^ s.next_u64())
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    /// `p >= 1` is always `true`, `p <= 0` is always `false`; both still
    /// consume one draw so interleaving rates never shifts the stream.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let u = self.next_f64();
        u < p
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero. Uses the modulo
    /// reduction: the bias is < 2⁻⁵³ for every `n` this crate uses
    /// (worker counts, probe budgets) and the method is trivially
    /// reproducible.
    pub fn gen_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "gen_index(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, hi)` (`hi > 0`).
    pub fn gen_f64(&mut self, hi: f64) -> f64 {
        self.next_f64() * hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = SplitMix64::new(11);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_edges_and_rates() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(r.gen_bool(1.0));
            assert!(!r.gen_bool(0.0));
        }
        let mut r = SplitMix64::new(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        // 0.3 ± a generous tolerance.
        assert!((2_600..3_400).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn index_in_range() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let i = r.gen_index(5);
            assert!(i < 5);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn streams_are_independent() {
        let mut base = SplitMix64::stream(42, 0);
        let mut probe = SplitMix64::stream(42, 1);
        let collisions = (0..32)
            .filter(|_| base.next_u64() == probe.next_u64())
            .count();
        assert_eq!(collisions, 0, "salted streams must not track each other");
    }

    #[test]
    fn gen_f64_scales() {
        let mut r = SplitMix64::new(13);
        for _ in 0..100 {
            let x = r.gen_f64(2.5);
            assert!((0.0..2.5).contains(&x));
        }
    }
}
