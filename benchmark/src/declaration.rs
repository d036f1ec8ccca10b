//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are declared. The binary prints exactly
//! the metrics declared there, and `compare` judges against its bounds.

use crate::json::{array_field, f64_field, parse, str_field, u64_field};

/// The declaration text at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Declaration {
    /// Seconds one measured run lasts.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics a user of the simulator sees, with bounds.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers, from the traced pass.
    pub per_layer: Vec<Metric>,
}

fn metrics(v: &serde::Value, key: &str) -> Result<Vec<Metric>, String> {
    array_field(v, key)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: str_field(m, "name")?.to_string(),
                unit: str_field(m, "unit")?.to_string(),
                higher_is_better: match str_field(m, "better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` must be higher or lower, got {other}")),
                },
                bound: f64_field(m, "bound").ok(),
            })
        })
        .collect()
}

/// Parse declaration text.
pub fn parse_declaration(text: &str) -> Result<Declaration, String> {
    let v = parse(text)?;
    Ok(Declaration {
        run_seconds: u64_field(&v, "run_seconds")?,
        workloads: array_field(&v, "workloads")?
            .iter()
            .map(|w| str_field(w, "name").map(str::to_string))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics(&v, "end_to_end")?,
        per_layer: metrics(&v, "per_layer")?,
    })
}

/// The compiled-in declaration.
pub fn declared() -> Declaration {
    parse_declaration(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}
