//! The benchmark's arithmetic: latency percentiles with the
//! "ten samples beyond" rule (from raw samples or a histogram),
//! run-to-run quartiles, and the ladder's rung-to-rung differences.
//! Unit-tested below.

/// A latency percentile of a sample set, or `None` when fewer than
/// ten samples lie beyond it (too few to pin that percentile down).
///
/// Nearest-rank: the smallest sample with at least `p`% of the set at
/// or below it. Sorts `samples` in place.
pub fn percentile(samples: &mut [u32], p: f64) -> Option<u32> {
    let n = samples.len();
    if n == 0 || beyond(n, p) < 10 {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(samples[rank.saturating_sub(1).min(n - 1)])
}

/// Samples strictly above the `p`-th percentile's rank in a set of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Sub-buckets per power of two: a bucket spans at most 1/64 of its
/// lower bound, and values below 128 ns are kept exactly.
const SUB: u64 = 64;
/// Buckets covering 0 ..= `u32::MAX` nanoseconds.
const BUCKETS: usize = ((32 - 5) * SUB) as usize;

/// A latency histogram in nanoseconds with log-linear buckets, so a run
/// can time every op without its sample memory growing with the run
/// (which would show up in the peak RSS the benchmark reports).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

/// The bucket of `v` and that bucket's lower bound and width.
fn bucket(v: u64) -> (usize, u64, u64) {
    let v = v.min(u64::from(u32::MAX));
    if v < 2 * SUB {
        return (v as usize, v, 1);
    }
    let shift = 63 - v.leading_zeros() as u64 - 6;
    let lower = (v >> shift) << shift;
    let index = (shift + 1) * SUB + ((v >> shift) - SUB);
    (index as usize, lower, 1 << shift)
}

/// The lower bound and width of bucket `index` (inverse of [`bucket`]).
fn bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < 2 * SUB {
        return (index, 1);
    }
    let shift = index / SUB - 1;
    ((SUB + index % SUB) << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket(nanos).0] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile in nanoseconds, or `None` when fewer than
    /// ten samples lie beyond it. The nearest-rank sample's bucket is
    /// found exactly; within a bucket wider than 1 ns the value is
    /// interpolated by rank.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.total as usize;
        if n == 0 || beyond(n, p) < 10 {
            return None;
        }
        let rank = (((p / 100.0) * n as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let (lower, width) = bounds(i);
                if width == 1 {
                    return Some(lower as f64);
                }
                let within = (rank - below) as f64 - 0.5;
                return Some(lower as f64 + width as f64 * within / c as f64);
            }
            below += c;
        }
        None
    }
}

/// Quartiles of a set of run results, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so the spreads printed here match the ones a Python script
/// over the same runs gets. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median of a set of run results (mean of the middle two for an even
/// count, as Python's `statistics.median`).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    Some(if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    })
}

/// A layer's self time: its rung's latency minus the rung below. A
/// negative difference is kept as it is — it says the layer's cost is
/// inside the noise, or that it speeds the op up (a cache effect).
/// `None` when either rung has no measurement for the op.
pub fn self_time(rung: Option<f64>, below: Option<f64>) -> Option<f64> {
    Some(rung? - below?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50));
        assert_eq!(percentile(&mut s, 90.0), Some(90));
        let mut s: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&mut s, 99.0), Some(990));
        assert_eq!(percentile(&mut s, 50.0), Some(500));
    }

    #[test]
    fn percentile_with_fewer_than_ten_beyond_is_missing() {
        assert_eq!(beyond(1000, 99.0), 10);
        let mut s: Vec<u32> = (1..=1000).collect();
        assert!(percentile(&mut s, 99.0).is_some());
        let mut s: Vec<u32> = (1..=999).collect();
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(percentile(&mut s, 99.0), None);
        let mut s: Vec<u32> = (1..=19).collect();
        assert_eq!(percentile(&mut s, 50.0), None);
        let mut s: Vec<u32> = (1..=20).collect();
        assert_eq!(percentile(&mut s, 50.0), Some(10));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_invert() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lower, width) = bounds(i);
            assert_eq!(lower, next, "bucket {i} starts where {} ends", i.max(1) - 1);
            assert_eq!(bucket(lower), (i, lower, width));
            assert_eq!(bucket(lower + width - 1).0, i);
            assert!(width == 1 || width * SUB <= lower, "1/64 resolution");
            next = lower + width;
        }
        assert_eq!(next, 1 << 32);
        assert_eq!(bucket(u64::MAX).0, BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_follow_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Below 128 ns every bucket is one value wide: exact.
        assert_eq!(h.percentile(50.0), Some(50.0));
        assert_eq!(h.percentile(90.0), Some(90.0));
        assert_eq!(h.percentile(91.0), None, "9 samples beyond");
        // 1000 samples spread over [10_000, 20_000): within one bucket
        // width (1/64) of the nearest-rank value.
        let mut h = Histogram::default();
        let mut raw: Vec<u32> = (0..1000).map(|i| 10_000 + i * 10).collect();
        for &v in &raw {
            h.record(u64::from(v));
        }
        for p in [50.0, 99.0] {
            let exact = f64::from(percentile(&mut raw, p).unwrap());
            let approx = h.percentile(p).unwrap();
            assert!(
                (approx - exact).abs() <= exact / 64.0,
                "p{p}: {approx} vs {exact}"
            );
        }
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.len(), 2000);
        let (m, one) = (
            merged.percentile(50.0).unwrap(),
            h.percentile(50.0).unwrap(),
        );
        assert!((m - one).abs() <= one / 64.0, "{m} vs {one}");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_matches_python_statistics_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_is_the_rung_difference_sign_kept() {
        assert_eq!(self_time(Some(5.0), Some(3.5)), Some(1.5));
        assert_eq!(self_time(Some(2.0), Some(3.0)), Some(-1.0));
        assert_eq!(self_time(None, Some(3.0)), None);
        assert_eq!(self_time(Some(3.0), None), None);
    }
}
