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
//! `--metrics`, `--prof`) — and adds the checkpoint lifecycle:
//!
//! * `--checkpoint-every N` writes a chain file every N epochs into
//!   `--ckpt-dir` (default: the `--json` dir);
//! * with an existing chain in `--ckpt-dir`, the run *crash-resumes* from
//!   the newest valid checkpoint instead of cold-starting;
//! * `--resume FILE` resumes from one explicit checkpoint file;
//! * either way the manifest records `resumed_from` (epoch + state hash),
//!   and the final artifacts are byte-identical to a straight-through
//!   run's — the deploy layer's restore-then-run invariant;
//! * a chain or `--resume` file that cannot start this run (another
//!   spec's chain, a container that is not an office checkpoint) exits 2
//!   with the usage line before anything runs or writes.
//!
//! Inspect or bisect the chains it writes with `powifi-obs ckpt`.

use powifi_bench::ckpt_run::{self, CkptPolicy, ResumeInfo};
use powifi_bench::cli::{self, Args, Stop};
use powifi_bench::runner::{self, point_seed};
use powifi_bench::{banner, BenchArgs, Experiment, Sweep};
use powifi_core::Scheme;
use powifi_deploy::{OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
use powifi_rf::Bitrate;
use powifi_sim::conformance;
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

impl OfficeExperiment {
    /// Start the run for `pt` at `seed`: from the `--resume` file, else
    /// from the newest usable file of the chain, else cold. The error names
    /// the file that cannot start this run.
    fn start(
        &self,
        pt: &OfficeParams,
        seed: u64,
    ) -> Result<(OfficeRun, Option<ResumeInfo>), String> {
        if let Some(file) = &self.resume {
            return ckpt_run::resume_file(file)
                .map(|(run, info)| (run, Some(info)))
                .map_err(|e| format!("--resume {}: {e}", file.display()));
        }
        let spec = OfficeSpec {
            seed,
            scheme: pt.scheme,
            cfg: OfficeConfig::default(),
            traffic: pt.traffic,
            secs: pt.secs,
            epoch: pt.epoch,
        };
        ckpt_run::start_or_resume(&spec, self.policy.as_ref(), "office").map_err(|e| e.to_string())
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
        // `main` made the same start before the sweep and refused it there.
        let (mut run, _) = self.start(pt, seed).unwrap_or_else(|e| panic!("{e}"));
        let checkpoints = ckpt_run::drive(&mut run, self.policy.as_ref(), "office")
            .unwrap_or_else(|e| panic!("checkpoint write: {e}"));
        run.s.record_run_telemetry(&run.w, run.end());
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

/// The office's own flags; it also takes the sweep's.
const VALUED: &[(&str, &str)] = &[
    ("--scheme", "a scheme"),
    ("--traffic", "udp:RATE, tcp or none"),
    ("--secs", "an integer"),
    ("--epoch-ms", "a positive integer"),
    ("--checkpoint-every", "a positive integer"),
    ("--ckpt-dir", "a dir"),
    ("--resume", "a file"),
];

fn scheme(v: &str) -> Option<Scheme> {
    use Scheme::*;
    [
        Baseline,
        BlindUdp,
        NoQueue,
        PoWiFi,
        EqualShare(Bitrate::G12),
    ]
    .into_iter()
    .find(|&s| scheme_tag(s) == v)
}

fn traffic(v: &str) -> Option<TrafficSpec> {
    let udp = |rate: &str| {
        rate.parse()
            .ok()
            .map(|rate_mbps| TrafficSpec::Udp { rate_mbps })
    };
    [TrafficSpec::Tcp, TrafficSpec::None]
        .into_iter()
        .find(|&t| traffic_tag(t) == v)
        .or_else(|| udp(v.strip_prefix("udp:")?))
}

/// The office run and the sweep settings, read from the command line in
/// one pass.
fn read(argv: Vec<String>) -> Result<(OfficeExperiment, BenchArgs), Stop> {
    let a = Args::read(argv, &[VALUED, runner::VALUED].concat(), runner::SWITCHES)?;
    let args = BenchArgs::from_args(&a)?;
    let udp_10 = TrafficSpec::Udp { rate_mbps: 10.0 };
    let params = OfficeParams {
        scheme: a.value("--scheme", scheme)?.unwrap_or(Scheme::PoWiFi),
        traffic: a.value("--traffic", traffic)?.unwrap_or(udp_10),
        secs: a.duration("--secs", 1_000_000_000, false)?.unwrap_or(4),
        epoch: SimDuration::from_millis(a.duration("--epoch-ms", 1_000_000, true)?.unwrap_or(500)),
    };
    let dir = a.get("--ckpt-dir")?.or_else(|| args.json_dir.clone());
    let policy = match (a.count("--checkpoint-every")?, dir) {
        (None, _) => None,
        (Some(every), Some(dir)) => Some(CkptPolicy { dir, every }),
        (Some(_), None) => Err("--checkpoint-every needs --ckpt-dir (or --json) for the chain")?,
    };
    let exp = OfficeExperiment {
        params,
        policy,
        resume: a.get("--resume")?,
    };
    Ok((exp, args))
}

fn main() {
    let (exp, mut args) = cli::parse(USAGE, read);
    // Make the run's start up front, exactly as the sweep will (under the
    // checker for `--check`: a checked run's checkpoint resumes only into
    // a checked run). A chain or file that cannot start this run is refused
    // before anything runs or writes, and the manifest learns what the run
    // resumes from.
    let seed = point_seed(args.seed, exp.name(), &exp.label(&exp.params), 0);
    let start = || exp.start(&exp.params, seed).map(|(_, info)| info);
    let resumed = if args.check {
        conformance::capture(start).0
    } else {
        start()
    };
    args.resumed_from = resumed
        .unwrap_or_else(|e| cli::exit(USAGE, e.into()))
        .map(|i| (i.epoch, i.hash));
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
