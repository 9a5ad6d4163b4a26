//! Exact order statistics over raw per-op samples, plus the small
//! deterministic RNG the workloads draw their inputs from.
//!
//! Every latency quantile the benchmark prints comes from here: the
//! samples are kept, sorted, and indexed by nearest rank, so a p99 is a
//! value that was actually measured — never a histogram bucket bound.

/// Raw latency samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

/// Percentiles the report considers, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, ns: u64) {
        self.values.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the samples at or below it. `None` when there are no samples.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        let rank = (q * n as f64).ceil() as usize;
        Some(self.values[rank.clamp(1, n) - 1])
    }

    /// Quantile in microseconds (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3)
    }

    /// The highest percentile of [`LADDER`] that still has at least ten
    /// samples strictly beyond its rank, with its value in ns.
    pub fn highest_resolved(&mut self) -> Option<(f64, u64)> {
        let n = self.values.len();
        LADDER
            .iter()
            .rev()
            .find(|p| {
                let rank = ((*p / 100.0) * n as f64).ceil() as usize;
                rank >= 1 && n.saturating_sub(rank) >= 10
            })
            .and_then(|p| self.quantile(p / 100.0).map(|v| (*p, v)))
    }
}

/// Median of a small set of floats (the set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a counter ratio over an empty window).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: seeded, fast, and identical on every platform, so the same
/// `--seed` always yields the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE7C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap (ns) for a Poisson process of
    /// `rate` events per second.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        let u = 1.0 - self.unit(); // (0, 1]
        (-u.ln() / rate * 1e9) as u64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfTable { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = u64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        // 1..=100 shuffled: the q-quantile is exactly ceil(100 q).
        let mut s = samples((1..=100).rev());
        assert_eq!(s.quantile(0.50), Some(50));
        assert_eq!(s.quantile(0.99), Some(99));
        assert_eq!(s.quantile(0.999), Some(100));
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(100));
        // Values between buckets stay exact: no 3·2^k rounding.
        let mut odd = samples([1_001, 7_777, 12_345]);
        assert_eq!(odd.quantile(0.5), Some(7_777));
        assert_eq!(samples([]).quantile(0.5), None);
    }

    #[test]
    fn highest_resolved_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond it, p99.9 only 1.
        let mut s = samples(1..=1000);
        assert_eq!(s.highest_resolved(), Some((99.0, 990)));
        // 99 samples: p90 leaves 9 — only the median qualifies.
        let mut small = samples(1..=99);
        assert_eq!(small.highest_resolved(), Some((50.0, 50)));
        assert_eq!(samples(1..=5).highest_resolved(), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rng_and_zipf_are_deterministic_and_skewed() {
        let (mut a, mut b) = (Rng::new(9), Rng::new(9));
        assert_eq!(a.next_u64(), b.next_u64());
        let z = ZipfTable::new(100, 1.0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut a)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
