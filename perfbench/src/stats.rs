//! Percentiles, medians and the request-stream digest.

/// Percentile levels tried, highest first, when reporting a tail.
const TAIL_LEVELS: &[f64] = &[0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// A tail latency together with the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level, e.g. 0.99.
    pub level: f64,
    /// The value at that level.
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
}

impl Tail {
    /// True when the run was too short for the 99th percentile, so a
    /// lower level stands in for it.
    pub fn underpowered(&self) -> bool {
        self.level < 0.99
    }

    /// `p99 (n=1234)` or `p95 (n=300, too few for p99)`.
    pub fn describe(&self) -> String {
        let p = (self.level * 100.0).round() as u32;
        if self.underpowered() {
            format!("p{p} (n={}, too few for p99)", self.samples)
        } else {
            format!("p{p} (n={})", self.samples)
        }
    }
}

/// Value at percentile `level` (nearest rank) of sorted samples.
fn percentile(sorted: &[f64], level: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (level * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `level`.
fn beyond(n: usize, level: f64) -> usize {
    n - ((level * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest percentile (at most p99) with at least [`MIN_BEYOND`]
/// samples beyond it. With fewer than `MIN_BEYOND + 1` samples the median
/// is returned, still marked as underpowered.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let level = TAIL_LEVELS
        .iter()
        .copied()
        .find(|&l| beyond(n, l) >= MIN_BEYOND)
        .unwrap_or(0.50);
    Tail {
        level,
        value: percentile(&sorted, level),
        samples: n,
    }
}

/// Median of the samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Sum, starting from +0.0 (`Iterator::sum` of no `f64`s is -0.0).
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, x| a + x)
}

/// Mean, or 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        sum(xs) / xs.len() as f64
    }
}

/// Median, or 0 for a layer the workload never calls.
pub fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Tail under the percentile rule, or 0 when empty.
pub fn tail_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        tail(xs).value
    }
}

/// FNV-1a, used to digest a request stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix bytes in, with a separator so `("ab","c")` differs from `("a","bc")`.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so samples 991..=1000 lie beyond it.
        let t = tail(&ramp(1000));
        assert_eq!((t.level, t.value), (0.99, 990.0));
        assert!(!t.underpowered());
        // 999 samples leave only 9 beyond p99: fall back to p95.
        let t = tail(&ramp(999));
        assert_eq!(t.level, 0.95);
        assert!(t.underpowered());
        assert!(t.describe().contains("too few for p99"));
    }

    #[test]
    fn short_runs_step_down_the_levels() {
        assert_eq!(tail(&ramp(200)).level, 0.95);
        assert_eq!(tail(&ramp(100)).level, 0.90);
        assert_eq!(tail(&ramp(40)).level, 0.75);
        assert_eq!(tail(&ramp(20)).level, 0.50);
        let t = tail(&ramp(5));
        assert_eq!((t.level, t.value), (0.50, 3.0));
        assert!(t.underpowered());
    }

    #[test]
    fn every_reported_level_has_ten_beyond() {
        for n in 1..3000 {
            let s = ramp(n);
            let t = tail(&s);
            let strictly_above = s.iter().filter(|&&v| v > t.value).count();
            assert!(strictly_above >= MIN_BEYOND || t.level == 0.50, "n={n}");
        }
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut s = ramp(1000);
        s.reverse();
        assert_eq!(tail(&s).value, 990.0);
        assert_eq!(median(&s), 500.0);
    }

    #[test]
    fn fnv_separates_fields() {
        let mut a = Fnv::default();
        a.eat(b"ab");
        a.eat(b"c");
        let mut b = Fnv::default();
        b.eat(b"a");
        b.eat(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
