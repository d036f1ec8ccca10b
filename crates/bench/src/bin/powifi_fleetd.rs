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
//! byte-identical to an uninterrupted run. A chain written for another
//! spec exits 2 with the usage line before the listener is bound. Inspect
//! or bisect the chains with `powifi-obs ckpt`.
//!
//! Counts (`--deployments`, `--secs`, `--epoch-ms`, `--jobs`,
//! `--subscribers`, `--checkpoint-every`) must be at least one; zero exits
//! 2 with the usage line, as does a `--secs` or `--epoch-ms` whose
//! nanoseconds overflow a `u64`.

use powifi_bench::ckpt_run::CkptPolicy;
use powifi_bench::cli::{self, Args, Stop};
use powifi_bench::fleet::{serve_fleet, FleetConfig};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: powifi-fleetd [--listen ADDR] [--deployments N] [--seed N] \
     [--secs S] [--epoch-ms MS] [--jobs N] [--subscribers K] \
     [--checkpoint-dir DIR] [--checkpoint-every N]";

const VALUED: &[(&str, &str)] = &[
    ("--listen", "an address"),
    ("--deployments", "a positive integer"),
    ("--seed", "an integer"),
    ("--secs", "a positive integer"),
    ("--epoch-ms", "a positive integer"),
    ("--jobs", "a positive integer"),
    ("--subscribers", "a positive integer"),
    ("--checkpoint-dir", "a dir"),
    ("--checkpoint-every", "a positive integer"),
];

/// The fleet and its subscriber count, read from the command line. A
/// chain this fleet cannot resume is refused before anything binds or runs.
fn read(argv: Vec<String>) -> Result<(String, FleetConfig, usize), Stop> {
    let a = Args::read(argv, VALUED, &[])?;
    let mut cfg = FleetConfig::default_fleet(
        a.count("--deployments")?.unwrap_or(2) as usize,
        a.get("--seed")?.unwrap_or(42),
        a.duration("--secs", 1_000_000_000, true)?.unwrap_or(4),
    );
    let epoch_ms = a.duration("--epoch-ms", 1_000_000, true)?.unwrap_or(500);
    cfg.epoch = powifi_sim::SimDuration::from_millis(epoch_ms);
    if let Some(j) = a.count("--jobs")? {
        cfg.jobs = j as usize;
    }
    let every = a.count("--checkpoint-every")?.unwrap_or(1);
    if let Some(dir) = a.get::<PathBuf>("--checkpoint-dir")? {
        cfg.ckpt = Some(CkptPolicy { dir, every });
    }
    let subscribers = a.count("--subscribers")?.unwrap_or(1) as usize;
    cfg.check_chains().map_err(|e| e.to_string())?;
    let listen = a
        .get("--listen")?
        .unwrap_or_else(|| "127.0.0.1:7077".into());
    Ok((listen, cfg, subscribers))
}

fn main() {
    let (listen, cfg, subscribers) = cli::parse(USAGE, read);
    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => eprintln!("listening on {addr}"),
        Err(_) => eprintln!("listening on {listen}"),
    }
    match serve_fleet(&listener, &cfg, subscribers) {
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
