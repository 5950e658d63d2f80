//! The benchmark's own arithmetic: percentiles with their sample counts,
//! medians, NRMSE averaged per algorithm, and the process's peak memory.
//!
//! Every ratio the benchmark reports names its base where it is computed;
//! [`ratio`] is the one place a zero base is turned into `0.0`.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    sorted[rank(sorted.len(), p).saturating_sub(1)]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The percentiles a latency tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// A latency distribution summarised the way the benchmark reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub samples: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it, and its value; `None` with fewer than `MIN_BEYOND + 1` samples.
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarises unsorted samples.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_CANDIDATES
            .iter()
            .find(|&&p| samples_beyond(n, p) >= MIN_BEYOND)
            .map(|&p| (p, percentile(&sorted, p)));
        Latency {
            samples: n,
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
            tail,
        }
    }

    /// Whether the p95 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p95_is_supported(&self) -> bool {
        samples_beyond(self.samples, 95.0) >= MIN_BEYOND
    }
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / base`, or `0.0` when the base is zero (nothing to divide by:
/// the layer did no work of that kind).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// One finite estimate of a known count, tagged with the estimator that
/// made it.
#[derive(Clone, Copy, Debug)]
pub struct Scored {
    /// Index of the estimator (any stable id).
    pub algorithm: usize,
    /// The estimate.
    pub estimate: f64,
    /// The exact count it estimates (`> 0`).
    pub truth: f64,
}

/// NRMSE computed **per algorithm**, then averaged over the algorithms
/// present: for each algorithm `sqrt(mean(((est − F) / F)²))` over its
/// estimates, then the unweighted mean of those values. An algorithm that
/// ran more queries therefore weighs no more than one that ran fewer.
/// `None` when there are no estimates.
pub fn nrmse_per_algorithm(scored: &[Scored]) -> Option<f64> {
    let mut algs: Vec<usize> = scored.iter().map(|s| s.algorithm).collect();
    algs.sort_unstable();
    algs.dedup();
    if algs.is_empty() {
        return None;
    }
    let total: f64 = algs
        .iter()
        .map(|&a| {
            let errs: Vec<f64> = scored
                .iter()
                .filter(|s| s.algorithm == a)
                .map(|s| {
                    assert!(s.truth > 0.0, "NRMSE needs a positive truth");
                    let rel = (s.estimate - s.truth) / s.truth;
                    rel * rel
                })
                .collect();
            (errs.iter().sum::<f64>() / errs.len() as f64).sqrt()
        })
        .sum();
    Some(total / algs.len() as f64)
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(200, 95.0), 10);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        let l = Latency::of(&ramp(200));
        assert_eq!(l.samples, 200);
        assert_eq!(l.tail, Some((95.0, 190.0)));
        assert!(l.p95_is_supported());
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let l = Latency::of(&ramp(1000));
        assert_eq!(l.tail, Some((99.0, 990.0)));
        // 199 samples: p95 leaves 9 beyond, so the tail falls to p90.
        let l = Latency::of(&ramp(199));
        assert_eq!(l.tail.map(|t| t.0), Some(90.0));
        assert!(!l.p95_is_supported());
        // Too few samples for any tail.
        assert_eq!(Latency::of(&ramp(10)).tail, None);
    }

    #[test]
    fn latency_summary_ignores_input_order() {
        let mut v = ramp(300);
        v.reverse();
        assert_eq!(Latency::of(&v), Latency::of(&ramp(300)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nrmse_is_averaged_per_algorithm_not_pooled() {
        // Algorithm 0: nine exact estimates. Algorithm 1: one estimate 50%
        // high. Per algorithm: (0 + 0.5) / 2 = 0.25. Pooled over all ten
        // estimates it would be sqrt(0.25 / 10) ≈ 0.158.
        let mut s: Vec<Scored> = (0..9)
            .map(|_| Scored {
                algorithm: 0,
                estimate: 100.0,
                truth: 100.0,
            })
            .collect();
        s.push(Scored {
            algorithm: 1,
            estimate: 150.0,
            truth: 100.0,
        });
        let per_alg = nrmse_per_algorithm(&s).unwrap();
        assert!((per_alg - 0.25).abs() < 1e-12, "got {per_alg}");
        let pooled = (0.25f64 / 10.0).sqrt();
        assert!((per_alg - pooled).abs() > 0.05);
        assert_eq!(nrmse_per_algorithm(&[]), None);
    }

    #[test]
    fn nrmse_normalises_by_each_estimates_own_truth() {
        // Two graphs with different truths, both estimated 10% high.
        let s = [
            Scored {
                algorithm: 3,
                estimate: 110.0,
                truth: 100.0,
            },
            Scored {
                algorithm: 3,
                estimate: 2200.0,
                truth: 2000.0,
            },
        ];
        assert!((nrmse_per_algorithm(&s).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ratios_state_a_zero_base_as_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
