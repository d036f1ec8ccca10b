//! `powifi-fleetd` — serve N concurrent deployments' live telemetry over
//! one TCP listener.
//!
//! ```text
//! powifi-fleetd [--listen ADDR] [--deployments N] [--seed N] [--secs S]
//!               [--epoch-ms MS] [--jobs N] [--subscribers K]
//!               [--checkpoint-dir DIR] [--checkpoint-every N]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7077`; port 0 picks a free port — the
//! bound address is printed to stderr as `listening on <addr>`), waits for
//! `K` subscribers (default 1, e.g. a `powifi-obs fleet record` client), then
//! runs the deployments on the sweep worker pool, multiplexing their
//! tagged NDJSON records to every subscriber. Exits when the last
//! deployment ends; a per-deployment summary plus egress drop/queue stats
//! go to stderr.
//!
//! With `--checkpoint-dir DIR`, every deployment writes a checkpoint chain
//! (`<name>.ckpt-<epoch>`, one file per `--checkpoint-every` epochs) into
//! `DIR`, announces each write as a `ckpt` stream record carrying the state
//! hash, and **crash-resumes**: if the daemon is killed mid-run, the next
//! invocation with the same `DIR` picks every deployment up from its newest
//! valid checkpoint (torn tail writes are skipped) and finishes with output
//! byte-identical to an uninterrupted run. Inspect or bisect the chains
//! with `powifi-obs ckpt`.
//!
//! Counts (`--deployments`, `--secs`, `--epoch-ms`, `--jobs`,
//! `--subscribers`, `--checkpoint-every`) must be at least one; zero exits
//! 2 with the usage line, as does a `--secs` or `--epoch-ms` whose
//! nanoseconds overflow a `u64`.

use powifi_bench::ckpt_run::CkptPolicy;
use powifi_bench::fleet::{serve_fleet, FleetConfig};
use powifi_bench::runner::duration_flag;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: powifi-fleetd [--listen ADDR] [--deployments N] [--seed N] \
     [--secs S] [--epoch-ms MS] [--jobs N] [--subscribers K] \
     [--checkpoint-dir DIR] [--checkpoint-every N]";

struct Args {
    listen: String,
    deployments: usize,
    seed: u64,
    secs: u64,
    epoch_ms: u64,
    jobs: Option<usize>,
    subscribers: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
}

fn next_val(it: &mut impl Iterator<Item = String>, name: &str) -> Result<String, String> {
    it.next().ok_or(format!("{name} needs a value"))
}

fn next_num(it: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, String> {
    next_val(it, name)?
        .parse()
        .map_err(|_| format!("{name} needs an integer"))
}

/// A count that must be at least one: zero is refused, not raised to one.
fn next_count(it: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, String> {
    match next_num(it, name)? {
        0 => Err(format!("{name} needs a positive integer, got 0")),
        n => Ok(n),
    }
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        listen: "127.0.0.1:7077".into(),
        deployments: 2,
        seed: 42,
        secs: 4,
        epoch_ms: 500,
        jobs: None,
        subscribers: 1,
        checkpoint_dir: None,
        checkpoint_every: 1,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--listen" => a.listen = next_val(&mut it, "--listen")?,
            "--checkpoint-dir" => {
                a.checkpoint_dir = Some(PathBuf::from(next_val(&mut it, "--checkpoint-dir")?));
            }
            "--checkpoint-every" => {
                a.checkpoint_every = next_count(&mut it, "--checkpoint-every")?;
            }
            "--deployments" => a.deployments = next_count(&mut it, "--deployments")? as usize,
            "--seed" => a.seed = next_num(&mut it, "--seed")?,
            "--secs" => {
                a.secs = duration_flag("--secs", next_count(&mut it, "--secs")?, 1_000_000_000)?;
            }
            "--epoch-ms" => {
                a.epoch_ms =
                    duration_flag("--epoch-ms", next_count(&mut it, "--epoch-ms")?, 1_000_000)?;
            }
            "--jobs" => a.jobs = Some(next_count(&mut it, "--jobs")? as usize),
            "--subscribers" => a.subscribers = next_count(&mut it, "--subscribers")? as usize,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            exit(2);
        }
    };
    let mut cfg = FleetConfig::default_fleet(args.deployments, args.seed, args.secs);
    cfg.epoch = powifi_sim::SimDuration::from_millis(args.epoch_ms);
    if let Some(j) = args.jobs {
        cfg.jobs = j;
    }
    if let Some(dir) = args.checkpoint_dir {
        cfg.ckpt = Some(CkptPolicy {
            dir,
            every: args.checkpoint_every,
        });
    }
    let listener = match TcpListener::bind(&args.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.listen);
            exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("listening on {addr}"),
        Err(_) => eprintln!("listening on {}", args.listen),
    }
    match serve_fleet(&listener, &cfg, args.subscribers) {
        Ok(summary) => {
            for out in &summary.outputs {
                eprintln!("{}: {:.2} Mbit/s", out.name, out.throughput_mbps);
            }
            eprintln!(
                "stream: {} records, {} dropped, peak queue depth {}",
                summary.records, summary.dropped, summary.peak_depth
            );
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            exit(1);
        }
    }
}
