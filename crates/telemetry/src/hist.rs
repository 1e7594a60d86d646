//! Fixed-bucket log-linear latency histograms.
//!
//! Values are bucketed into 4 linear sub-buckets per power of two
//! (HdrHistogram-style): constant memory, O(1) record, ~12 % worst-case
//! relative quantile error — plenty for attributing simulated nanoseconds.
//!
//! Quantiles are reported as the **upper bound of the bucket** holding the
//! rank-`ceil(q·n)` value. Because the representative is a function of the
//! bucket index alone, quantiles of [`Histogram::merge`]d histograms are
//! always bounded by the per-input quantiles (see the property tests).

/// Buckets: 0..=7 exact, then 4 sub-buckets per octave up to `u64::MAX`.
const EXACT: u64 = 8;
const BUCKETS: usize = 8 + (64 - 3) * 4;

/// A fixed-size log-linear histogram of `u64` samples (simulated ns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for `v`.
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (exp - 2)) & 3) as usize;
    8 + (exp - 3) * 4 + sub
}

/// Inclusive upper bound of bucket `idx` (the quantile representative).
fn bucket_upper(idx: usize) -> u64 {
    if idx < EXACT as usize {
        return idx as u64;
    }
    let k = idx - 8;
    let exp = 3 + k / 4;
    let sub = (k % 4) as u64;
    let width = 1u64 << (exp - 2);
    let lower = (1u64 << exp).wrapping_add(sub * width);
    lower.wrapping_add(width - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of all samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// The `q`-quantile (`q` in `[0, 1]`): upper bound of the bucket
    /// holding the sample of rank `ceil(q·n)`. `None` when the histogram
    /// is empty **or** `q` is NaN / outside `[0, 1]` — an invalid rank
    /// must never be answered with a bucket representative (open-loop
    /// shed can legitimately leave per-shard histograms empty, and a NaN
    /// `q` would otherwise silently cast to rank 1).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(idx));
            }
        }
        Some(bucket_upper(BUCKETS - 1))
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub(crate) fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile (the open-loop tail-latency series).
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Element-wise sum of two histograms (merging per-thread or per-shard
    /// recordings into one distribution).
    pub fn merge(&self, o: &Histogram) -> Histogram {
        let mut counts = Box::new([0u64; BUCKETS]);
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i] + o.counts[i];
        }
        Histogram {
            counts,
            total: self.total + o.total,
            sum: self.sum.saturating_add(o.sum),
            min: self.min.min(o.min),
            max: self.max.max(o.max),
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs (for exporters).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = bucket_of(0);
        assert_eq!(prev, 0);
        for v in 1..4096u64 {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket({v}) went backwards");
            assert!(v <= bucket_upper(b), "v={v} above its bucket upper");
            prev = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
        assert_eq!(bucket_upper(bucket_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.p50(), Some(2));
        assert_eq!(h.quantile(1.0), Some(7));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        h.record(1000);
        let q = h.p50().unwrap();
        assert!(q >= 1000, "representative is an upper bound");
        assert!((q as f64) < 1000.0 * 1.15, "q={q} too far above sample");
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.p999(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn invalid_q_returns_none_instead_of_a_representative() {
        // Regression: NaN used to cast to rank 0 → clamp to 1 → the
        // minimum bucket's representative; out-of-range q clamped
        // similarly. All must be explicit `None`.
        let mut h = Histogram::new();
        h.record(100);
        assert_eq!(h.quantile(f64::NAN), None);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::INFINITY), None);
        assert_eq!(h.quantile(f64::NEG_INFINITY), None);
        // The valid boundary values still answer.
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn p999_tracks_the_extreme_tail() {
        // 2 outliers in 1001 samples: rank ceil(0.999·1001) = 1000 lands
        // on the outlier bucket, while p99's rank 991 stays in the bulk.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        h.record(1_000_000);
        let p99 = h.p99().unwrap();
        let p999 = h.p999().unwrap();
        assert!(p99 < 1_000_000, "p99={p99} should miss the 2/1001 outliers");
        assert!(p999 >= 1_000_000, "p999={p999} must catch the outliers");
    }

    #[test]
    fn merge_adds_counts_and_tracks_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(20);
        b.record(5000);
        let m = a.merge(&b);
        assert_eq!(m.count(), 3);
        assert_eq!(m.min(), Some(10));
        assert_eq!(m.max(), Some(5000));
        assert_eq!(m.sum(), 5030);
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!((50..=56).contains(&p50), "p50={p50}");
        assert!((99..=111).contains(&p99), "p99={p99}");
        assert!(p50 <= p99);
    }
}
