//! Order statistics for host timings, the `_tail` percentile rule, and the
//! digest that pins simulated reports.

/// Candidate tail percentiles in basis points (1/100 of a percent),
/// highest first. Decade rungs keep the chosen percentile stable while a
/// run's sample count drifts by a few percent. The ladder stops at p99:
/// deeper percentiles of sub-millisecond host calls measure the shared
/// host's scheduling hiccups rather than the program (a p99.9 of
/// `fleet_churn` admissions over ~22,000 samples spread 58% between
/// quartiles over ten runs).
const TAIL_LADDER_BP: [u64; 3] = [9_900, 9_000, 5_000];

/// Samples a tail percentile must leave beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

/// Median of `xs`: the mean of the two middle values for an even count,
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank rank (1-based) of percentile `bp` among `n` samples.
fn rank(n: u64, bp: u64) -> u64 {
    (bp * n).div_ceil(10_000).max(1)
}

/// The `_tail` rule: the highest ladder percentile that leaves at least
/// ten of `n` samples beyond it, in basis points; `None` when even the
/// median leaves fewer than ten.
pub fn tail_percentile_bp(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_LADDER_BP
        .into_iter()
        .find(|&bp| n.saturating_sub(rank(n, bp)) >= TAIL_MIN_BEYOND)
}

/// A tail measurement with the percentile and sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in percent.
    pub percentile: f64,
    /// Samples the value was taken over.
    pub samples: usize,
    /// The nearest-rank value at that percentile.
    pub value: f64,
}

/// The tail of `samples`. The percentile is chosen by
/// [`tail_percentile_bp`] from `rule_n`, the number of distinct calls
/// behind the samples: repetitions of a workload re-time the same calls,
/// which adds host noise to the samples but no calls beyond the
/// percentile. It also keeps the percentile fixed however many
/// repetitions a run fits. The value is taken over all samples.
pub fn tail(samples: &[f64], rule_n: usize) -> Option<Tail> {
    let bp = tail_percentile_bp(rule_n.min(samples.len()))?;
    let s = sorted(samples);
    let r = rank(s.len() as u64, bp) as usize;
    Some(Tail {
        percentile: bp as f64 / 100.0,
        samples: s.len(),
        value: s[r - 1],
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a: the digest of a simulated report's canonical JSON.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median leaves ten beyond.
        assert_eq!(tail_percentile_bp(19), None);
        assert_eq!(tail_percentile_bp(20), Some(5_000));
        // p90 needs 100 samples (rank 90, ten beyond).
        assert_eq!(tail_percentile_bp(99), Some(5_000));
        assert_eq!(tail_percentile_bp(100), Some(9_000));
        // p99 needs 1,000, and is the top of the ladder.
        assert_eq!(tail_percentile_bp(999), Some(9_000));
        assert_eq!(tail_percentile_bp(1_000), Some(9_900));
        assert_eq!(tail_percentile_bp(10_000_000), Some(9_900));
    }

    #[test]
    fn tail_rule_counts_exactly_ten_beyond_at_the_boundary() {
        for n in [20usize, 100, 1_000] {
            let bp = tail_percentile_bp(n).unwrap();
            let beyond = n as u64 - rank(n as u64, bp);
            assert_eq!(beyond, 10, "n = {n}");
        }
    }

    #[test]
    fn tail_value_is_nearest_rank_over_all_samples() {
        let xs: Vec<f64> = (1..=1_000).map(|i| i as f64).rev().collect();
        let t = tail(&xs, 1_000).unwrap();
        assert_eq!((t.percentile, t.samples, t.value), (99.0, 1_000, 990.0));
        // The rule count picks the percentile; the value uses every sample.
        let t = tail(&xs, 500).unwrap();
        assert_eq!((t.percentile, t.samples, t.value), (90.0, 1_000, 900.0));
        // A rule count above the sample count is clamped to it.
        assert_eq!(tail(&xs[..50], 1_000).unwrap().percentile, 50.0);
        assert!(tail(&xs[..10], 1_000).is_none());
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.finish()
        };
        assert_eq!(d(&|d| d.u64(1)), d(&|d| d.u64(1)));
        assert_ne!(d(&|d| d.f64(0.0)), d(&|d| d.f64(-0.0)));
        assert_ne!(
            d(&|d| {
                d.u64(1);
                d.u64(2)
            }),
            d(&|d| {
                d.u64(2);
                d.u64(1)
            })
        );
    }
}
