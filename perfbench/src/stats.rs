//! Order statistics for the benchmark's samples: nearest-rank quantiles,
//! the tail percentile the report prints next to each median, the
//! interquartile spread, an exact-count histogram for per-request
//! latencies and a fixed-memory reservoir for span durations.

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the smallest
/// sample with at least `q · n` samples at or below it.  `None` when empty.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 0.5)
}

/// Arithmetic mean.  `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The highest nearest-rank percentile that still has at least ten
/// samples strictly above its rank, with its value: rank `n - 10`, so the
/// percentile is `100 · (n - 10) / n`.  `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Interquartile distance as a share of the median, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) and
/// `statistics.median` compute them, which is how the spread of repeated
/// runs is judged.  `None` below two samples or at a zero median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let mid = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

/// Fixed-capacity uniform sample (Vitter's algorithm R) of a stream, so
/// memory stays flat however many spans a run opens.  The backing
/// store is allocated and written at construction so that resident memory
/// does not grow with throughput either.
pub struct Reservoir {
    slots: Vec<f64>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self {
            slots: vec![-1.0; capacity.max(1)],
            len: 0,
            seen: 0,
            rng: seed | 1,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.slots.len() {
            self.slots[self.len] = x;
            self.len += 1;
            return;
        }
        let j = splitmix(&mut self.rng) % self.seen;
        if (j as usize) < self.slots.len() {
            self.slots[j as usize] = x;
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.slots[..self.len]
    }
}

/// Exact-count histogram of every latency in a serve window, in
/// nanoseconds, with fixed memory: values below 2^[`SUB_BITS`] have a
/// bucket each, larger ones fall in log-linear buckets 2^-[`SUB_BITS`] of
/// their value wide.  Failed requests are counted as infinite.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    /// Every sample, the failed ones (beyond the last bucket) included.
    n: u64,
}

/// Mantissa bits of a [`LatencyHistogram`] bucket: a quantile read from
/// it is at most 1/256 above the true sample.
const SUB_BITS: u32 = 8;

impl LatencyHistogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; ((64 - SUB_BITS + 1) << SUB_BITS) as usize],
            n: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let mantissa = (ns >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((e - SUB_BITS + 1) << SUB_BITS) as u64 + mantissa) as usize
    }

    /// The largest value that falls in bucket `b`.
    fn upper(b: usize) -> u64 {
        let b = b as u128;
        if b < 1 << SUB_BITS {
            return b as u64;
        }
        let shift = (b >> SUB_BITS) - 1;
        let mantissa = b & ((1 << SUB_BITS) - 1);
        ((((1 << SUB_BITS) + mantissa + 1) << shift) - 1).min(u128::from(u64::MAX)) as u64
    }

    pub fn push(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn push_failed(&mut self) {
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The sample of nearest rank `rank` (1-based), as its bucket's upper
    /// bound; infinite when the rank falls on a failed request.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper(b) as f64;
            }
        }
        f64::INFINITY
    }

    /// Nearest-rank `q`-quantile in nanoseconds, as [`nearest_rank`]
    /// defines it.  `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        (self.n > 0).then(|| self.at_rank(((q * self.n as f64).ceil() as u64).clamp(1, self.n)))
    }

    /// Nearest-rank `q`-quantile, provided at least ten samples lie beyond
    /// its rank.
    pub fn quantile_with_tail(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        (rank + 10 <= self.n).then(|| self.at_rank(rank))
    }

    /// [`tail`] over every sample: the highest percentile with at least
    /// ten samples beyond it, with its value in nanoseconds.
    pub fn tail(&self) -> Option<(f64, f64)> {
        (self.n >= 11).then(|| {
            let rank = self.n - 10;
            (100.0 * rank as f64 / self.n as f64, self.at_rank(rank))
        })
    }
}

/// [`fnv`] as a [`std::hash::Hasher`], to hash a value field by field.
pub struct FnvHasher(pub u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv(self.0, bytes);
    }
}

/// SplitMix64 step: the benchmark's only random source, seeded from the
/// workload seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median_on_known_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even count: nearest rank takes the lower middle, never averages.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&hundred, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&hundred, 1.0), Some(100.0));
    }

    #[test]
    fn mean_of_known_samples() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[0.25, 0.125, 0.5, 0.125]), Some(0.25));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(
            tail(&[1.0; 10]),
            None,
            "ten samples leave nothing to stand on"
        );
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&eleven).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (pct, value) = tail(&thousand).unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
        assert_eq!(thousand.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25] and
        // statistics.median([1..=10]) == 5.5.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // Two samples extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5].
        assert!((iqr_share(&[1.0, 3.0]).unwrap() - 3.0 / 2.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn histogram_quantiles_match_nearest_rank_within_a_bucket() {
        let mut h = LatencyHistogram::new();
        let mut s = 11u64;
        let samples: Vec<u64> = (0..5000).map(|_| splitmix(&mut s) % 3_000_000).collect();
        for &x in &samples {
            h.push(x);
        }
        let exact: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        for q in [0.01, 0.5, 0.9, 0.99] {
            let want = nearest_rank(&exact, q).unwrap();
            let got = h.quantile(q).unwrap();
            assert!(
                got >= want && got <= want * (1.0 + 1.0 / 256.0),
                "q {q}: {got} vs {want}"
            );
        }
        let (pct, value) = h.tail().unwrap();
        let (want_pct, want) = tail(&exact).unwrap();
        assert_eq!(pct, want_pct);
        assert!(value >= want && value <= want * (1.0 + 1.0 / 256.0));
        // Small values are exact; bucket bounds tile the line.
        let mut small = LatencyHistogram::new();
        for x in [3, 1, 2] {
            small.push(x);
        }
        assert_eq!(small.quantile(0.5), Some(2.0));
        let last = LatencyHistogram::new().counts.len();
        for b in 1..last {
            let lo = LatencyHistogram::upper(b - 1) + 1;
            assert_eq!(LatencyHistogram::bucket(lo), b, "bucket of {lo}");
            assert_eq!(LatencyHistogram::bucket(LatencyHistogram::upper(b)), b);
        }
        assert_eq!(LatencyHistogram::upper(last - 1), u64::MAX);
    }

    #[test]
    fn histogram_counts_failures_beyond_every_limit() {
        let mut h = LatencyHistogram::new();
        for x in 1..=990 {
            h.push(x % 200);
        }
        assert_eq!(
            h.quantile_with_tail(0.99),
            None,
            "no ten samples beyond p99"
        );
        for _ in 0..10 {
            h.push_failed();
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(h.quantile_with_tail(0.99), Some(199.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.tail().map(|t| t.1), Some(199.0));
    }

    #[test]
    fn reservoir_is_bounded_and_counts_everything() {
        let mut r = Reservoir::new(8, 7);
        for i in 0..1000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples().len(), 8);
        assert_eq!(r.seen, 1000);
        assert!(r.samples().iter().all(|&x| (0.0..1000.0).contains(&x)));
    }
}
