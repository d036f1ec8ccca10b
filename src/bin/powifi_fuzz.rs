//! Deterministic conformance fuzz driver (CLI wrapper around
//! [`powifi::fuzz`]).
//!
//! ```text
//! powifi-fuzz [--topologies N] [--seed S] [--inject-bug] [--city]
//!             [--replay SEED [--trace FILE] [--prof]]
//! ```
//!
//! `--city` switches to the multi-cell world mode: each case is a sharded
//! city topology run both sharded and monolithic under the checker
//! (cross-shard conservation audits included) and fails on any violation
//! or on sharded/monolithic divergence.
//!
//! `--trace FILE` writes the replayed topology's structured trace
//! (`powifi_sim::obs::trace` JSONL, inspectable with `powifi-obs trace`);
//! `--prof` prints its sim-time span tree in the `powifi-obs prof tree`
//! format — both replay-only, so a failing seed can be drilled into with
//! the full observability stack.
//!
//! Exit codes: 0 = all topologies clean, 1 = failures found, 2 = usage.

use powifi::fuzz;
use powifi::sim::obs::{prof, trace};
use powifi_bench::cli::{self, Args, Stop};
use std::process::ExitCode;

const USAGE: &str = "usage: powifi-fuzz [--topologies N] [--seed S] [--inject-bug] [--city] \
     [--replay SEED [--trace FILE] [--prof]]";

/// What one invocation does, read from the command line.
struct Run {
    cfg: fuzz::FuzzConfig,
    city: bool,
    replay: Option<u64>,
    trace: Option<String>,
    prof: bool,
}

fn read(argv: Vec<String>) -> Result<Run, Stop> {
    let a = Args::read(
        argv,
        &[
            ("--topologies", "a positive integer"),
            ("--seed", "an integer"),
            ("--replay", "a seed"),
            ("--trace", "a file"),
        ],
        &["--inject-bug", "--city", "--prof"],
    )?;
    let d = fuzz::FuzzConfig::default();
    let run = Run {
        cfg: fuzz::FuzzConfig {
            topologies: a.count("--topologies")?.unwrap_or(d.topologies),
            base_seed: a.get("--seed")?.unwrap_or(d.base_seed),
            inject_bug: a.has("--inject-bug"),
            ..d
        },
        city: a.has("--city"),
        replay: a.get("--replay")?,
        trace: a.get("--trace")?,
        prof: a.has("--prof"),
    };
    let (traced, bug) = (run.trace.is_some() || run.prof, run.cfg.inject_bug);
    let why = match (run.replay, run.city) {
        (None, _) if traced => "--trace/--prof only apply to --replay runs",
        (Some(_), true) if traced || bug => "--city replay takes no --trace/--prof/--inject-bug",
        (None, true) if bug => "--inject-bug applies to the MAC stack mode only",
        _ => return Ok(run),
    };
    Err(why.into())
}

fn main() -> ExitCode {
    let run = cli::parse(USAGE, read);
    if let Some(seed) = run.replay {
        if run.city {
            let spec = fuzz::gen_city_spec(seed);
            println!("replaying {}", spec.summary());
            let res = fuzz::replay_city(seed);
            println!(
                "shards {} · frames {} · violations {} · {}",
                res.shards,
                res.frames,
                res.violations,
                if res.equivalent {
                    "sharded == monolithic"
                } else {
                    "sharded != monolithic"
                },
            );
            for v in res.retained.iter().take(10) {
                println!("  {v}");
            }
            return if res.violations == 0 && res.equivalent {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
        }
        let spec = fuzz::gen_spec(seed);
        println!("replaying {}", spec.summary());
        let traced = || {
            if run.trace.is_some() {
                let (res, jsonl) =
                    trace::capture_jsonl(|| fuzz::run_spec(&spec, run.cfg.inject_bug));
                (res, Some(jsonl))
            } else {
                (fuzz::run_spec(&spec, run.cfg.inject_bug), None)
            }
        };
        let ((res, trace_jsonl), snap) = if run.prof {
            let (out, snap) = prof::capture(traced);
            (out, Some(snap))
        } else {
            (traced(), None)
        };
        if let (Some(path), Some(jsonl)) = (&run.trace, &trace_jsonl) {
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {path}");
        }
        if let Some(snap) = snap {
            print!("{}", snap.render_tree());
        }
        println!("frames {} · violations {}", res.frames, res.violations);
        for v in res.retained.iter().take(10) {
            println!("  {v}");
        }
        return if res.violations == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if run.city {
        println!(
            "fuzzing {} city worlds from base seed {}",
            run.cfg.topologies, run.cfg.base_seed,
        );
        let report = fuzz::run_city_campaign(&run.cfg);
        print!("{}", report.render());
        return if report.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    println!(
        "fuzzing {} topologies from base seed {}{}",
        run.cfg.topologies,
        run.cfg.base_seed,
        if run.cfg.inject_bug {
            " (timing bug injected)"
        } else {
            ""
        },
    );
    let report = fuzz::run(&run.cfg);
    print!("{}", report.render());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
