//! # powifi-bench
//!
//! The figure/table regeneration harness. Every table and figure of the
//! paper's evaluation has a binary (`fig01_…` … `fig16_…`, `table1_homes`)
//! plus ablation binaries for the design choices called out in DESIGN.md.
//! Each binary declares its parameter grid as an [`Experiment`] and hands
//! it to the [`Sweep`] driver, which executes points in parallel
//! (`--jobs`), derives a deterministic per-point seed, and — with
//! `--json DIR` — writes machine-readable artifacts for EXPERIMENTS.md.
//! Every binary reads its command line through [`cli`].
//! The `powifi-obs` inspector reads those artifacts back through
//! [`traceinspect`], [`profinspect`], [`replay`] and [`fleet`].

pub mod ckpt_run;
pub mod cli;
pub mod fleet;
pub mod profinspect;
pub mod replay;
pub mod report;
pub mod runner;
pub mod traceinspect;

pub use ckpt_run::{CkptPolicy, ResumeInfo};
pub use fleet::{
    record_stream, run_fleet, serve_fleet, DeploymentKind, DeploymentSpec, FleetConfig,
    ServeSummary,
};
pub use replay::{bisect, BisectReport};
pub use runner::{BenchArgs, Experiment, PointRun, Sweep};

/// Print a header line for a figure/table.
pub fn banner(title: &str, note: &str) {
    println!("== {title} ==");
    if !note.is_empty() {
        println!("   {note}");
    }
}

/// Format a data row: label then fixed-precision values.
pub fn row(label: &str, values: &[f64], precision: usize) {
    let cells: Vec<String> = values
        .iter()
        .map(|v| format!("{v:>10.prec$}", prec = precision))
        .collect();
    println!("{label:<22}{}", cells.join(" "));
}

/// Summarize a sample set as (mean, p10, p50, p90).
pub fn summarize(mut xs: Vec<f64>) -> (f64, f64, f64, f64) {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let q = |p: f64| xs[((p * xs.len() as f64) as usize).min(xs.len() - 1)];
    (mean, q(0.10), q(0.50), q(0.90))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_quantiles() {
        let (mean, p10, p50, p90) = summarize((1..=100).map(|i| i as f64).collect());
        assert!((mean - 50.5).abs() < 1e-9);
        assert!(p10 < p50 && p50 < p90);
    }
}
