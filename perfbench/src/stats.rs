//! Order statistics for timings: every figure carries its sample count and
//! the highest percentile the sample supports.

/// Percentiles the report considers, in parts per 100 000.
const LADDER: [u64; 5] = [50_000, 90_000, 99_000, 99_900, 99_990];

/// Samples that must lie beyond a percentile before it is reported as
/// supported.
pub const MIN_BEYOND: u64 = 10;

/// A summary of one timing.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile (reported even when unsupported; see `tail`).
    pub p99: f64,
    /// The highest supported percentile, in percent, and its value; `None`
    /// when even the median has fewer than [`MIN_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank index of the percentile `q` (parts per 100 000) in a
/// sorted sample of `n` values: the smallest rank covering `q` of them.
fn rank(n: usize, q: u64) -> usize {
    let n = n as u64;
    ((n * q).div_ceil(100_000)).clamp(1, n) as usize - 1
}

/// The highest percentile in the ladder (parts per 100 000) that has at
/// least [`MIN_BEYOND`] of `n` samples strictly beyond it.
pub fn highest_supported(n: usize) -> Option<u64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&q| n > 0 && (n - 1 - rank(n, q)) as u64 >= MIN_BEYOND)
}

impl Summary {
    /// Summarises `xs`; `None` when empty.
    pub fn of(mut xs: Vec<f64>) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let at = |q: u64| xs[rank(n, q)];
        Some(Summary {
            count: n,
            mean: xs.iter().sum::<f64>() / n as f64,
            p50: at(50_000),
            p99: at(99_000),
            tail: highest_supported(n).map(|q| (q as f64 / 1_000.0, at(q))),
        })
    }

    /// One report line: `name: p50 … p99 … (n = …, highest supported p… = …)`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("highest supported p{p} = {v:.3} {unit}"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "{name}: p50 {:.3} {unit}, p99 {:.3} {unit}, mean {:.3} {unit} (n = {}, {tail})",
            self.p50, self.p99, self.mean, self.count
        )
    }
}

/// Throughput, p50 and p99 of each window, then the median of each over
/// the windows: outside load that spoils a few windows of a run moves none
/// of the three. A window is `(seconds, latencies)`; `None` without windows.
pub fn window_medians(windows: &[(f64, Vec<f64>)]) -> Option<[f64; 3]> {
    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    for (secs, lat) in windows {
        if let Some(s) = Summary::of(lat.clone()) {
            rate.push(s.count as f64 / secs);
            p50.push(s.p50);
            p99.push(s.p99);
        }
    }
    Some([median(&rate)?, median(&p50)?, median(&p99)?])
}

/// Median of `xs` (lower median for even counts); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    Summary::of(xs.to_vec()).map(|s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_at_the_boundary() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(highest_supported(1_000), Some(99_000));
        assert_eq!(highest_supported(999), Some(90_000));
        assert_eq!(highest_supported(10_000), Some(99_900));
        assert_eq!(highest_supported(9_999), Some(99_000));
        assert_eq!(highest_supported(100_000), Some(99_990));
        // The median of 20 samples (rank 10) has ten beyond it; of 19, nine.
        assert_eq!(highest_supported(20), Some(50_000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let s = Summary::of((1..=1_000).map(f64::from).collect()).unwrap();
        assert_eq!(s.count, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(s.mean, 500.5);
        assert_eq!(Summary::of(vec![]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
