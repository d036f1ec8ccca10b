//! `powifi-office` — the checkpoint-aware single-deployment runner.
//!
//! ```text
//! powifi-office [--scheme S] [--traffic udp:RATE|tcp|none] [--secs N]
//!               [--epoch-ms MS] [--checkpoint-every N] [--ckpt-dir DIR]
//!               [--resume FILE] [plus the shared sweep flags]
//! ```
//!
//! Runs one §4.1 office deployment as a one-point sweep, so it inherits
//! every observability artifact (`--json` points/manifest, `--trace`,
//! `--metrics`, `--stream`) — and adds the checkpoint lifecycle:
//!
//! * `--checkpoint-every N` writes a chain file every N epochs into
//!   `--ckpt-dir` (default: the `--json` dir), announcing each write as a
//!   `ckpt` stream record carrying the state hash;
//! * with an existing chain in `--ckpt-dir`, the run *crash-resumes* from
//!   the newest valid checkpoint instead of cold-starting;
//! * `--resume FILE` resumes from one explicit checkpoint file;
//! * either way the manifest records `resumed_from` (epoch + state hash),
//!   and the final artifacts are byte-identical to a straight-through
//!   run's — the deploy layer's restore-then-run invariant.
//!
//! Inspect or bisect the chains it writes with `powifi-obs ckpt`.

use powifi_bench::ckpt_run::{self, CkptPolicy};
use powifi_bench::{banner, BenchArgs, Experiment, Sweep};
use powifi_core::Scheme;
use powifi_deploy::{OfficeConfig, OfficeSpec, TrafficSpec};
use powifi_rf::Bitrate;
use powifi_sim::SimDuration;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: powifi-office [--scheme baseline|blind_udp|no_queue|powifi|\
     equal_share] [--traffic udp:RATE|tcp|none] [--secs N] [--epoch-ms MS] \
     [--checkpoint-every N] [--ckpt-dir DIR] [--resume FILE] \
     (plus shared sweep flags; see --help of any fig binary)";

#[derive(Clone)]
struct OfficeParams {
    scheme: Scheme,
    traffic: TrafficSpec,
    secs: u64,
    epoch: SimDuration,
}

struct OfficeExperiment {
    params: OfficeParams,
    policy: Option<CkptPolicy>,
    resume: Option<PathBuf>,
}

struct RunOutput {
    throughput_mbps: f64,
    final_hash: String,
    checkpoints: Vec<(u64, String)>,
}

impl Serialize for RunOutput {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("throughput_mbps".into(), Value::Float(self.throughput_mbps)),
            ("final_hash".into(), Value::Str(self.final_hash.clone())),
            (
                "checkpoints".into(),
                Value::Array(
                    self.checkpoints
                        .iter()
                        .map(|(epoch, hash)| {
                            Value::Object(vec![
                                ("epoch".into(), Value::UInt(*epoch)),
                                ("hash".into(), Value::Str(hash.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn scheme_tag(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "baseline",
        Scheme::BlindUdp => "blind_udp",
        Scheme::NoQueue => "no_queue",
        Scheme::PoWiFi => "powifi",
        Scheme::EqualShare(_) => "equal_share",
    }
}

fn traffic_tag(t: TrafficSpec) -> String {
    match t {
        TrafficSpec::None => "none".into(),
        TrafficSpec::Udp { rate_mbps } => format!("udp:{rate_mbps}"),
        TrafficSpec::Tcp => "tcp".into(),
    }
}

impl Experiment for OfficeExperiment {
    type Point = OfficeParams;
    type Output = RunOutput;

    fn name(&self) -> &'static str {
        "office"
    }

    fn points(&self, _full: bool) -> Vec<OfficeParams> {
        vec![self.params.clone()]
    }

    fn label(&self, pt: &OfficeParams) -> String {
        format!("{}/{}", scheme_tag(pt.scheme), traffic_tag(pt.traffic))
    }

    fn run(&self, pt: &OfficeParams, seed: u64) -> RunOutput {
        let spec = OfficeSpec {
            seed,
            scheme: pt.scheme,
            cfg: OfficeConfig::default(),
            traffic: pt.traffic,
            secs: pt.secs,
            epoch: pt.epoch,
        };
        let mut run = match &self.resume {
            Some(file) => {
                ckpt_run::resume_file(file)
                    .unwrap_or_else(|e| panic!("--resume {}: {e}", file.display()))
                    .0
            }
            None => {
                ckpt_run::start_or_resume(&spec, self.policy.as_ref(), "office")
                    .unwrap_or_else(|e| panic!("checkpoint chain: {e}"))
                    .0
            }
        };
        let checkpoints = ckpt_run::drive(&mut run, self.policy.as_ref(), "office")
            .unwrap_or_else(|e| panic!("checkpoint write: {e}"));
        run.record_run_telemetry();
        let final_hash = match powifi_deploy::checkpoint(&run) {
            Ok((_, hash)) => hash,
            Err(e) => {
                eprintln!("error: final state hash: {e}");
                exit(2);
            }
        };
        RunOutput {
            throughput_mbps: run.throughput_mbps(),
            final_hash,
            checkpoints,
        }
    }
}

/// The checkpoint flags, which no other sweep binary takes.
#[derive(Default)]
struct CkptFlags {
    /// `--checkpoint-every`: write a chain file every N epochs.
    every: Option<u64>,
    /// `--ckpt-dir`: where the chain lives (default: the `--json` dir).
    dir: Option<PathBuf>,
    /// `--resume`: resume from this file instead of cold-starting.
    resume: Option<PathBuf>,
}

/// Split our flags from the shared sweep flags (which BenchArgs parses).
fn split_args() -> (OfficeParams, CkptFlags, Vec<String>) {
    let mut params = OfficeParams {
        scheme: Scheme::PoWiFi,
        traffic: TrafficSpec::Udp { rate_mbps: 10.0 },
        secs: 4,
        epoch: SimDuration::from_millis(500),
    };
    let mut ckpt = CkptFlags::default();
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value");
            eprintln!("{USAGE}");
            exit(2);
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scheme" => {
                let v = need(&mut it, "--scheme");
                params.scheme = match v.as_str() {
                    "baseline" => Scheme::Baseline,
                    "blind_udp" => Scheme::BlindUdp,
                    "no_queue" => Scheme::NoQueue,
                    "powifi" => Scheme::PoWiFi,
                    "equal_share" => Scheme::EqualShare(Bitrate::G12),
                    other => {
                        eprintln!("error: unknown scheme `{other}`");
                        eprintln!("{USAGE}");
                        exit(2);
                    }
                };
            }
            "--traffic" => {
                let v = need(&mut it, "--traffic");
                params.traffic = if v == "tcp" {
                    TrafficSpec::Tcp
                } else if v == "none" {
                    TrafficSpec::None
                } else if let Some(rate) = v.strip_prefix("udp:") {
                    match rate.parse() {
                        Ok(rate_mbps) => TrafficSpec::Udp { rate_mbps },
                        Err(_) => {
                            eprintln!("error: --traffic udp:RATE needs a number, got `{rate}`");
                            exit(2);
                        }
                    }
                } else {
                    eprintln!("error: --traffic takes udp:RATE, tcp or none, got `{v}`");
                    exit(2);
                };
            }
            "--secs" => {
                params.secs = need(&mut it, "--secs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --secs needs an integer");
                    exit(2);
                });
            }
            "--epoch-ms" => {
                let v = need(&mut it, "--epoch-ms");
                let ms = v
                    .parse()
                    .ok()
                    .filter(|&ms: &u64| ms >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --epoch-ms needs a positive integer, got `{v}`");
                        eprintln!("{USAGE}");
                        exit(2);
                    });
                params.epoch = SimDuration::from_millis(ms);
            }
            "--checkpoint-every" => {
                let v = need(&mut it, "--checkpoint-every");
                let n = v.parse().ok().filter(|&n: &u64| n >= 1).unwrap_or_else(|| {
                    eprintln!("error: --checkpoint-every needs a positive epoch count, got `{v}`");
                    eprintln!("{USAGE}");
                    exit(2);
                });
                ckpt.every = Some(n);
            }
            "--ckpt-dir" => ckpt.dir = Some(need(&mut it, "--ckpt-dir").into()),
            "--resume" => ckpt.resume = Some(need(&mut it, "--resume").into()),
            other => rest.push(other.to_string()),
        }
    }
    (params, ckpt, rest)
}

fn main() {
    let (params, ckpt, rest) = split_args();
    let mut args = match BenchArgs::parse_from(rest) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let policy = ckpt.every.map(|every| {
        let dir = ckpt
            .dir
            .clone()
            .or_else(|| args.json_dir.clone())
            .unwrap_or_else(|| {
                eprintln!("error: --checkpoint-every needs --ckpt-dir (or --json) for the chain");
                exit(2);
            });
        CkptPolicy { dir, every }
    });
    // Record resume provenance for the manifest before the sweep runs: the
    // experiment below resolves the resume point the same deterministic way.
    if let Some(file) = &ckpt.resume {
        let loaded = std::fs::read(file)
            .map_err(|e| e.to_string())
            .and_then(|b| powifi_sim::ckpt::load(&b).map_err(|e| e.to_string()));
        match loaded {
            Ok(c) => {
                let epoch = c.root.field::<u64>("epoch").unwrap_or(0);
                args.resumed_from = Some((epoch, c.hash));
            }
            Err(e) => {
                eprintln!("error: --resume {}: {e}", file.display());
                exit(1);
            }
        }
    } else if let Some(p) = &policy {
        if let Ok(Some(info)) = ckpt_run::peek_latest(&p.dir, "office") {
            args.resumed_from = Some((info.epoch, info.hash));
        }
    }
    let exp = OfficeExperiment {
        params,
        policy,
        resume: ckpt.resume,
    };
    banner(
        "powifi-office",
        "checkpointable single-deployment office run",
    );
    let runs = Sweep::new(&args).run(&exp);
    for r in &runs {
        println!(
            "{:<22} {:>8.2} Mbit/s  final state {}",
            r.label, r.output.throughput_mbps, r.output.final_hash
        );
        for (epoch, hash) in &r.output.checkpoints {
            println!("  ckpt epoch {epoch:>4}  {hash}");
        }
        if let Some((epoch, hash)) = &args.resumed_from {
            println!("  resumed from epoch {epoch} ({hash})");
        }
    }
}
