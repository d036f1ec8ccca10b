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
use std::process::ExitCode;

const USAGE: &str = "usage: powifi-fuzz [--topologies N] [--seed S] [--inject-bug] [--city] \
     [--replay SEED [--trace FILE] [--prof]]";

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("powifi-fuzz: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = fuzz::FuzzConfig::default();
    let mut replay_seed: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut prof = false;
    let mut city = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--topologies" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => cfg.topologies = n,
                _ => return usage_err("--topologies needs a positive integer"),
            },
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => cfg.base_seed = s,
                _ => return usage_err("--seed needs an integer"),
            },
            "--inject-bug" => cfg.inject_bug = true,
            "--city" => city = true,
            "--replay" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => replay_seed = Some(s),
                _ => return usage_err("--replay needs a seed"),
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => return usage_err("--trace needs a file"),
            },
            "--prof" => prof = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_err(&format!("unknown argument {other:?}")),
        }
    }

    if let Some(seed) = replay_seed {
        if city {
            if trace_path.is_some() || prof || cfg.inject_bug {
                return usage_err("--city replay takes no --trace/--prof/--inject-bug");
            }
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
            if trace_path.is_some() {
                let (res, jsonl) = trace::capture_jsonl(|| fuzz::run_spec(&spec, cfg.inject_bug));
                (res, Some(jsonl))
            } else {
                (fuzz::run_spec(&spec, cfg.inject_bug), None)
            }
        };
        let ((res, trace_jsonl), snap) = if prof {
            let (run, snap) = prof::capture(traced);
            (run, Some(snap))
        } else {
            (traced(), None)
        };
        if let (Some(path), Some(jsonl)) = (&trace_path, &trace_jsonl) {
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("powifi-fuzz: cannot write {path}: {e}");
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
    if trace_path.is_some() || prof {
        return usage_err("--trace/--prof only apply to --replay runs");
    }

    if city {
        if cfg.inject_bug {
            return usage_err("--inject-bug applies to the MAC stack mode only");
        }
        println!(
            "fuzzing {} city worlds from base seed {}",
            cfg.topologies, cfg.base_seed,
        );
        let report = fuzz::run_city_campaign(&cfg);
        print!("{}", report.render());
        return if report.failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    println!(
        "fuzzing {} topologies from base seed {}{}",
        cfg.topologies,
        cfg.base_seed,
        if cfg.inject_bug {
            " (timing bug injected)"
        } else {
            ""
        },
    );
    let report = fuzz::run(&cfg);
    print!("{}", report.render());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
