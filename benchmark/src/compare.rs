//! `compare A B`: judge results file B against baseline A, one row per
//! (workload, end-to-end metric), by the metric's declared bound.

use crate::declaration::Metric;
use crate::report::Results;
use crate::stats::{median, spread};
use std::fmt::Write as _;

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or every run of B beats every run of A.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Unchanged,
    /// Too noisy to call, or measured on different machines or inputs.
    Unresolved,
}

/// One (workload, metric) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A.
    pub median_a: f64,
    /// Median of B.
    pub median_b: f64,
    /// Relative change of the median; positive means worse.
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, relative to median.
    pub spread: f64,
    /// Declared bound.
    pub bound: f64,
    /// Verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Fingerprints of A and B agree.
    pub same_machine: bool,
    /// A and B measured the same inputs for as long: equal seed and
    /// seconds. Work varies by seed, so across seeds a change of workload
    /// would mix with a change of code.
    pub same_settings: bool,
    /// Rows in workload-then-metric order.
    pub rows: Vec<Row>,
    /// `(workload, failed_frac A, failed_frac B)` where B fails more.
    pub failed_rises: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Any worse row, or more failures than the baseline.
    pub fn regressed(&self) -> bool {
        !self.failed_rises.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// A fixed-width table plus the failure and machine notes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.same_machine {
            out.push_str("fingerprints differ: every row is unresolved\n");
        }
        if !self.same_settings {
            out.push_str("seeds or seconds differ: every row is unresolved\n");
        }
        let _ = writeln!(
            out,
            "{:<13} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
            "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<13} {:<18} {:>14.6e} {:>14.6e} {:>8.2}% {:>7.2}% {:>6.1}%  {:?}",
                r.workload,
                r.metric,
                r.median_a,
                r.median_b,
                100.0 * r.worse_by,
                100.0 * r.spread,
                100.0 * r.bound,
                r.verdict
            );
        }
        for (w, a, b) in &self.failed_rises {
            let _ = writeln!(out, "{w}: failed_frac rose from {a} to {b}");
        }
        out
    }
}

/// Judge samples `b` against baseline `a` for one metric; rows that are
/// not `comparable` (other machine or settings) are unresolved.
pub fn verdict(a: &[f64], b: &[f64], m: &Metric, comparable: bool) -> Option<Row> {
    let (ma, mb) = (median(a)?, median(b)?);
    let bound = m.bound?;
    let worse_by = match m.higher_is_better {
        true => (ma - mb) / ma.abs(),
        false => (mb - ma) / ma.abs(),
    };
    let spread = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let b_beats_all_a = match m.higher_is_better {
        true => min(b) > max(a),
        false => max(b) < min(a),
    };
    let verdict = if !comparable {
        Verdict::Unresolved
    } else if spread > bound {
        if b_beats_all_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        workload: String::new(),
        metric: m.name.clone(),
        median_a: ma,
        median_b: mb,
        worse_by,
        spread,
        bound,
        verdict,
    })
}

/// Compare every workload present in both files on every metric in
/// `metrics` that both measured.
pub fn compare(a: &Results, b: &Results, metrics: &[Metric]) -> Comparison {
    let (pa, pb) = (&a.provenance, &b.provenance);
    let same_machine = pa.fingerprint() == pb.fingerprint();
    let same_settings = (pa.seed, pa.seconds) == (pb.seed, pb.seconds);
    let mut rows = Vec::new();
    let mut failed_rises = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        for m in metrics {
            let (Some(sa), Some(sb)) = (wa.samples(&m.name), wb.samples(&m.name)) else {
                continue;
            };
            if let Some(row) = verdict(sa, sb, m, same_machine && same_settings) {
                rows.push(Row {
                    workload: wa.name.clone(),
                    ..row
                });
            }
        }
        if wb.failed_frac() > wa.failed_frac() {
            failed_rises.push((wa.name.clone(), wa.failed_frac(), wb.failed_frac()));
        }
    }
    Comparison {
        same_machine,
        same_settings,
        rows,
        failed_rises,
    }
}
