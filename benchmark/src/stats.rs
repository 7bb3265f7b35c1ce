//! Order statistics for the benchmark: a latency histogram whose
//! quantiles interpolate inside a bucket, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them, the percentile
//! pick and the regression-bound comparator.

use crate::metrics::Better;

/// Sub-buckets per octave (`2^SUB_BITS`): 1.6 % relative resolution.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets covering every `u64` observation.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Log-linear histogram of nanosecond observations.
///
/// The workspace's `FixedHistogram` reports bucket midpoints, so a
/// median read from it is an integer that repeats exactly from run to
/// run; the benchmark's contract refuses a time that does. This one
/// spreads the rank linearly over the bucket that holds it, so a median
/// moves with the counts around it. Values below 64 get a bucket each.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    ((shift + 1) as usize) * SUB as usize + ((v >> shift) & (SUB - 1)) as usize
}

/// Lower edge and width of bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let (block, sub) = ((idx as u64) / SUB, (idx as u64) % SUB);
    if block == 0 {
        return (sub, 1);
    }
    let shift = block - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile, interpolated linearly inside its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q * self.n as f64).clamp(0.0, self.n as f64);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= target {
                let (lo, width) = bucket_range(idx);
                let frac = (target - seen as f64) / c as f64;
                return (lo as f64 + width as f64 * frac).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Share of observations strictly above `limit` (to bucket
    /// resolution).
    pub fn share_above(&self, limit: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let above: u64 = self.counts[bucket_of(limit) + 1..].iter().sum();
        above as f64 / self.n as f64
    }
}

/// Latencies of a short window of requests, for its median alone:
/// one-nanosecond bins, everything from `WINDOW_BINS - 1` ns on in the
/// last. Small enough to sit in the cache beside the reader it times.
pub struct WindowMedian {
    counts: Vec<u32>,
    n: u32,
}

const WINDOW_BINS: usize = 4096;

impl Default for WindowMedian {
    fn default() -> Self {
        WindowMedian {
            counts: vec![0; WINDOW_BINS],
            n: 0,
        }
    }
}

impl WindowMedian {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[(ns as usize).min(WINDOW_BINS - 1)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u32 {
        self.n
    }

    /// The window's median, interpolated inside its bin, and an empty
    /// window again.
    pub fn take(&mut self) -> f64 {
        let target = self.n as f64 / 2.0;
        let mut seen = 0u32;
        let mut median = 0.0;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= target {
                median = ns as f64 + (target - seen as f64) / c as f64;
                break;
            }
            seen += c;
        }
        self.counts.fill(0);
        self.n = 0;
        median
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the driver judges the benchmark's spread with that function.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a metric sample"));
    match s.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let n = s.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Mean of the best twentieth of a sample (at least one value): the
/// lowest when lower is better, the highest otherwise; 0 when empty.
///
/// For timings on a shared host, whose noise only ever slows the program
/// down: the samples of a run have a fast mode that repeats from run to
/// run and a slow one whose share is the neighbours' doing. The best
/// twentieth sits in the fast mode as long as one sample in twenty saw
/// the host undisturbed.
pub fn best_twentieth(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a metric sample"));
    if better == Better::Higher {
        s.reverse();
    }
    let n = (s.len() / 20).max(1);
    s[..n].iter().sum::<f64>() / n as f64
}

/// Interquartile distance as a share of the median — the spread the
/// driver compares with a metric's bound.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (the median when fewer than twenty samples exist).
pub fn pick_percentile(n: u64) -> f64 {
    // `(percentile, one sample in this many lies beyond it)`.
    [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|(_, one_in)| n / one_in >= 10)
        .map_or(0.5, |(p, _)| p)
}

/// Outcome of comparing two sets of runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot tell "unchanged" from "regressed".
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Compares the second set's median with the first's under `bound` (a
/// share of the first median), given the wider of the two sets' spreads.
pub fn compare(first: f64, second: f64, spread: f64, bound: f64, better: Better) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if worse_by > bound * first.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for v in [0, 1, 63, 64, 65, 127, 128, 129, 1000, 1 << 20, u64::MAX] {
            let (lo, width) = bucket_range(bucket_of(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, {lo}+{width})");
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        let mut h = Hist::new();
        for _ in 0..30 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(101);
        }
        // Rank 20 of 40 sits two thirds into the bucket [100, 101).
        let m = h.quantile(0.5);
        assert!((m - (100.0 + 20.0 / 30.0)).abs() < 1e-9, "{m}");
        assert_eq!(h.quantile(1.0), 101.0);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
        assert!((h.share_above(100) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[7.0]), 7.0);
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_twentieth_takes_the_good_end() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(best_twentieth(&v, Better::Lower), 1.5);
        assert_eq!(best_twentieth(&v, Better::Higher), 39.5);
        // Fewer than twenty samples: the single best.
        assert_eq!(best_twentieth(&[3.0, 2.0, 5.0], Better::Lower), 2.0);
        assert_eq!(best_twentieth(&[], Better::Lower), 0.0);
    }

    #[test]
    fn window_median_interpolates_and_clears() {
        let mut w = WindowMedian::default();
        for ns in [100, 100, 100, 200] {
            w.record(ns);
        }
        // Rank 2 of 4 sits two thirds into the bin at 100 ns.
        assert!((w.take() - (100.0 + 2.0 / 3.0)).abs() < 1e-9);
        assert_eq!(w.count(), 0);
        w.record(1 << 40);
        assert_eq!(w.take().floor(), (WINDOW_BINS - 1) as f64);
    }

    #[test]
    fn percentile_pick_keeps_ten_samples_beyond() {
        assert_eq!(pick_percentile(5), 0.5);
        assert_eq!(pick_percentile(99), 0.5);
        assert_eq!(pick_percentile(100), 0.9);
        assert_eq!(pick_percentile(999), 0.9);
        assert_eq!(pick_percentile(1_000), 0.99);
        assert_eq!(pick_percentile(10_000), 0.999);
        assert_eq!(pick_percentile(3_000_000), 0.9999);
    }

    #[test]
    fn comparator_verdicts() {
        use Better::*;
        assert_eq!(compare(1.0, 1.05, 0.02, 0.1, Lower), Verdict::Ok);
        assert_eq!(compare(1.0, 1.11, 0.02, 0.1, Lower), Verdict::Regressed);
        assert_eq!(compare(1.0, 0.5, 0.02, 0.1, Lower), Verdict::Ok);
        assert_eq!(compare(100.0, 89.0, 0.02, 0.1, Higher), Verdict::Regressed);
        assert_eq!(compare(100.0, 120.0, 0.02, 0.1, Higher), Verdict::Ok);
        // A spread wider than the bound decides nothing, whatever the medians.
        assert_eq!(compare(1.0, 2.0, 0.2, 0.1, Lower), Verdict::Unresolved);
    }
}
