//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`);
/// `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        Some(r) => sorted[r - 1],
        None => 0.0,
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (n as f64 * p / 100.0).ceil() as usize;
    Some(r.clamp(1, n))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// The percentiles a tail is reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten
/// samples beyond it among `n`, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution summarised the way the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Highest percentile with at least ten samples beyond it.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct` (`0` when there is none).
    pub tail: f64,
}

impl Latency {
    /// Summarises unsorted samples.
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = highest_supported_percentile(v.len());
        Latency {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p99: percentile(&v, 99.0),
            tail_pct,
            tail: tail_pct.map_or(0.0, |p| percentile(&v, p)),
        }
    }

    /// One-line rendering, e.g. `n=4000 p50=1.20 p99=9.80 (p99 supported)`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail_pct {
            Some(p) => format!("highest supported p{p} = {:.3} {unit}", self.tail),
            None => "fewer than 10 samples beyond the median".to_string(),
        };
        format!(
            "n={} p50={:.3} {unit} p99={:.3} {unit}; {tail}",
            self.n, self.p50, self.p99
        )
    }
}

/// Geometric mean of positive values (`0` for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
