//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here equals the one a
//! script computes from the same samples.

/// Samples sorted ascending (NaN-free input assumed; `total_cmp` orders any).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count. `None`
/// for an empty set.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's exclusive method. A single
/// sample is its own quartiles. `None` for an empty set.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld as i64 + 1;
            let q = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                // After clamping, delta may fall outside 0..=4: Python then
                // extrapolates past the end samples, and so does this.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Quartile distance as a share of the median: the run-to-run spread a
/// bound is judged against. `None` when the median is 0 or absent.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (p25, p75) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (p75 - p25) / med.abs())
}

/// Nearest-rank `p`-quantile (`0 < p < 1`), reported only when at least
/// ten samples lie beyond it; otherwise the tail is too thin to name.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    (n - rank >= 10).then(|| v[rank - 1])
}

/// Summary of one metric's samples, as a results file records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarize `xs`; `None` for an empty set.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let (p25, p75) = quartiles(xs)?;
        let v = sorted(xs);
        Some(Summary {
            n: v.len(),
            median: median(&v)?,
            p25,
            p75,
            min: v[0],
            max: v[v.len() - 1],
        })
    }
}
