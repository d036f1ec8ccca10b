//! What the benchmark writes: the one-line result of a measured run, and
//! the results file `run` assembles from many of them, with the machine it
//! ran on.

use crate::json::{self, array_field, bool_field, field, object, str_field, u64_field};
use crate::stats::Summary;
use serde::Value;
use std::process::Command;

/// The last stdout line of a measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Envelope {
    /// Render as one JSON line.
    pub fn to_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = Value::Object(vec![
                    ("value".into(), Value::Float(*value)),
                    ("unit".into(), Value::Str(unit.clone())),
                ]);
                (name.clone(), v)
            })
            .collect();
        let v = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("serializing a value tree cannot fail")
    }

    /// Parse a line written by [`Envelope::to_line`].
    pub fn parse(line: &str) -> Result<Envelope, String> {
        let v = json::parse(line)?;
        let metrics = object(field(&v, "metrics")?, "metrics")?
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    json::f64_field(m, "value")?,
                    str_field(m, "unit")?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Envelope {
            correct: bool_field(&v, "correct")?,
            attempted: u64_field(&v, "attempted")?,
            failed: u64_field(&v, "failed")?,
            metrics,
        })
    }
}

/// Where and from what a results file was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// CPU model name.
    pub cpu_model: String,
    /// Logical cores available to the process.
    pub logical_cores: u64,
    /// `rustc -V`.
    pub rustc: String,
    /// Build profile of the measuring binary.
    pub profile: String,
    /// Commit measured.
    pub git_sha: String,
    /// Tracked files differed from that commit.
    pub git_dirty: bool,
    /// Workload seed.
    pub seed: u64,
    /// Repetitions per workload.
    pub reps: u64,
    /// Seconds each repetition measured.
    pub seconds: u64,
    /// UTC date of the run.
    pub utc_date: String,
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    /// Describe this machine and checkout.
    pub fn collect(seed: u64, reps: u64, seconds: u64) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let logical_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        Provenance {
            cpu_model,
            logical_cores,
            rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            git_sha: powifi_bench::report::git_head_sha(),
            git_dirty: command_output("git", &["status", "--porcelain", "--untracked-files=no"])
                .is_some_and(|s| !s.is_empty()),
            seed,
            reps,
            seconds,
            utc_date: powifi_bench::report::today_utc(),
        }
    }

    /// The machine identity two results must share to be compared: CPU,
    /// cores, compiler and profile.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} | {} cores | {} | {}",
            self.cpu_model, self.logical_cores, self.rustc, self.profile
        )
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cpu_model".into(), Value::Str(self.cpu_model.clone())),
            ("logical_cores".into(), Value::UInt(self.logical_cores)),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("profile".into(), Value::Str(self.profile.clone())),
            ("git_sha".into(), Value::Str(self.git_sha.clone())),
            ("git_dirty".into(), Value::Bool(self.git_dirty)),
            ("seed".into(), Value::UInt(self.seed)),
            ("reps".into(), Value::UInt(self.reps)),
            ("seconds".into(), Value::UInt(self.seconds)),
            ("utc_date".into(), Value::Str(self.utc_date.clone())),
        ])
    }

    fn from_value(v: &Value) -> Result<Provenance, String> {
        Ok(Provenance {
            cpu_model: str_field(v, "cpu_model")?.into(),
            logical_cores: u64_field(v, "logical_cores")?,
            rustc: str_field(v, "rustc")?.into(),
            profile: str_field(v, "profile")?.into(),
            git_sha: str_field(v, "git_sha")?.into(),
            git_dirty: bool_field(v, "git_dirty")?,
            seed: u64_field(v, "seed")?,
            reps: u64_field(v, "reps")?,
            seconds: u64_field(v, "seconds")?,
            utc_date: str_field(v, "utc_date")?.into(),
        })
    }
}

/// All samples of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSamples {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// One value per repetition.
    pub samples: Vec<f64>,
}

/// One workload's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Operations attempted across repetitions.
    pub attempted: u64,
    /// Operations failed across repetitions.
    pub failed: u64,
    /// Samples per metric.
    pub metrics: Vec<MetricSamples>,
}

impl WorkloadResult {
    /// An empty result for `name`.
    pub fn new(name: &str) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Fold one repetition's envelope in.
    pub fn add(&mut self, e: &Envelope) {
        self.attempted += e.attempted;
        self.failed += e.failed;
        for (name, value, unit) in &e.metrics {
            match self.metrics.iter_mut().find(|m| &m.name == name) {
                Some(m) => m.samples.push(*value),
                None => self.metrics.push(MetricSamples {
                    name: name.clone(),
                    unit: unit.clone(),
                    samples: vec![*value],
                }),
            }
        }
    }

    /// Failed ÷ attempted operations (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        crate::workloads::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Samples of metric `name`.
    pub fn samples(&self, name: &str) -> Option<&[f64]> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.samples.as_slice())
    }
}

/// A results file: provenance plus every workload's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// Machine and checkout.
    pub provenance: Provenance,
    /// Per-workload samples.
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    /// Pretty JSON, with n, median, p25, p75, min and max beside every
    /// metric's samples.
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let metrics = w
                    .metrics
                    .iter()
                    .map(|m| {
                        let mut entries = vec![
                            ("unit".into(), Value::Str(m.unit.clone())),
                            (
                                "samples".into(),
                                Value::Array(m.samples.iter().map(|&s| Value::Float(s)).collect()),
                            ),
                        ];
                        if let Some(s) = Summary::of(&m.samples) {
                            entries.extend([
                                ("n".into(), Value::UInt(s.n as u64)),
                                ("median".into(), Value::Float(s.median)),
                                ("p25".into(), Value::Float(s.p25)),
                                ("p75".into(), Value::Float(s.p75)),
                                ("min".into(), Value::Float(s.min)),
                                ("max".into(), Value::Float(s.max)),
                            ]);
                        }
                        (m.name.clone(), Value::Object(entries))
                    })
                    .collect();
                Value::Object(vec![
                    ("name".into(), Value::Str(w.name.clone())),
                    ("attempted".into(), Value::UInt(w.attempted)),
                    ("failed".into(), Value::UInt(w.failed)),
                    ("failed_frac".into(), Value::Float(w.failed_frac())),
                    ("metrics".into(), Value::Object(metrics)),
                ])
            })
            .collect();
        let v = Value::Object(vec![
            ("provenance".into(), self.provenance.to_value()),
            ("workloads".into(), Value::Array(workloads)),
        ]);
        serde_json::to_string_pretty(&v).expect("serializing a value tree cannot fail")
    }

    /// Parse a results file; summaries are recomputed from the samples.
    pub fn parse(text: &str) -> Result<Results, String> {
        let v = json::parse(text)?;
        let workloads = array_field(&v, "workloads")?
            .iter()
            .map(|w| {
                let metrics = object(field(w, "metrics")?, "metrics")?
                    .iter()
                    .map(|(name, m)| {
                        Ok(MetricSamples {
                            name: name.clone(),
                            unit: str_field(m, "unit")?.into(),
                            samples: array_field(m, "samples")?
                                .iter()
                                .map(|s| json::as_f64(s, "samples"))
                                .collect::<Result<_, _>>()?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadResult {
                    name: str_field(w, "name")?.into(),
                    attempted: u64_field(w, "attempted")?,
                    failed: u64_field(w, "failed")?,
                    metrics,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            provenance: Provenance::from_value(field(&v, "provenance")?)?,
            workloads,
        })
    }
}
