//! `powifi-benchmark` command line. See README.md beside this crate.

use powifi_benchmark::compare::compare;
use powifi_benchmark::declaration::declared;
use powifi_benchmark::measure::{measured, traced, PINNED_SEED};
use powifi_benchmark::report::{Envelope, Provenance, Results, WorkloadResult};
use powifi_benchmark::spans::Spans;
use powifi_benchmark::stats::Summary;
use powifi_benchmark::workloads::Workload;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  powifi-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
  powifi-benchmark run [--seed N] [--out FILE]
  powifi-benchmark trace [--seed N] [--out FILE]
  powifi-benchmark compare BASELINE.json CHANGE.json
  powifi-benchmark bless
workloads: home_day city_25k office_fleet office_ckpt";

/// Repetitions per workload for `run`: the ten runs per side that a
/// claimed gain needs.
const REPS: u64 = 10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") => measure_all(&args[1..], false, "run"),
        Some("trace") => measure_all(&args[1..], true, "trace"),
        Some("compare") => cmd_compare(&args[1..]),
        Some("bless") if args.len() == 1 => cmd_bless(),
        Some(flag) if flag.starts_with("--") => cmd_measure(args),
        _ => Err("expected a subcommand or --workload".into()),
    }
}

/// `--key value` pairs, each key from `allowed`, none repeated.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unexpected argument {key}"));
        }
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        if out.insert(key.clone(), value.clone()).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    Ok(out)
}

/// An integer flag of at least `min`, or `default` when absent.
fn number(f: &BTreeMap<String, String>, key: &str, default: u64, min: u64) -> Result<u64, String> {
    match f.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= min)
            .ok_or_else(|| format!("{key} needs an integer >= {min}, got {v}")),
    }
}

fn results_path(f: &BTreeMap<String, String>, default_name: &str) -> PathBuf {
    f.get("--out").map(PathBuf::from).unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(default_name)
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One measured run in this process; prints its envelope last.
fn cmd_measure(args: &[String]) -> Result<i32, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = f.get("--workload").ok_or("--workload is required")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let decl = declared();
    let seed = number(&f, "--seed", PINNED_SEED, 0)?;
    let seconds = number(&f, "--seconds", decl.run_seconds, 1)?;
    let trace = match f.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    // The fleet's stream header names a commit; name the benchmark instead
    // of asking git, which would look outside the checkout.
    std::env::set_var("POWIFI_BENCH_SHA", "powifi-benchmark");
    let env = if trace {
        traced(w, seed, &decl)
    } else {
        measured(w, seed, seconds, &decl)
    };
    println!("{}", env.to_line());
    Ok(if env.correct { 0 } else { 1 })
}

/// Run this binary on one workload in a fresh process and parse its
/// envelope; its report is relayed to stdout.
fn child(args: &[String]) -> Result<Envelope, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn measured run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().ok_or("measured run printed nothing")?;
    let env = Envelope::parse(last).map_err(|e| format!("measured run's result: {e}"))?;
    if !out.status.success() && env.correct {
        return Err(format!("measured run exited with {}", out.status));
    }
    Ok(env)
}

/// Run every workload as child processes and collect their envelopes;
/// a child that fails outright counts as one failed operation.
fn collect(reps: u64, args: impl Fn(Workload) -> Vec<String>) -> (Vec<WorkloadResult>, bool) {
    let mut results: Vec<WorkloadResult> = Workload::ALL
        .iter()
        .map(|w| WorkloadResult::new(w.name()))
        .collect();
    let mut ok = true;
    for rep in 1..=reps {
        for (w, r) in Workload::ALL.iter().zip(&mut results) {
            println!("== {} rep {rep}/{reps}", w.name());
            match child(&args(*w)) {
                Ok(env) => {
                    ok &= env.correct;
                    r.add(&env);
                }
                Err(e) => {
                    eprintln!("{}: {e}", w.name());
                    ok = false;
                    r.attempted += 1;
                    r.failed += 1;
                }
            }
        }
    }
    (results, ok)
}

fn print_summary(results: &Results) {
    println!("== summary: {}", results.provenance.fingerprint());
    for w in &results.workloads {
        println!("{} (failed {}/{})", w.name, w.failed, w.attempted);
        for m in &w.metrics {
            if let Some(s) = Summary::of(&m.samples) {
                println!(
                    "  {:<40} {:>14.6e} {:<8} [p25 {:.6e}, p75 {:.6e}] n={}",
                    m.name, s.median, m.unit, s.p25, s.p75, s.n
                );
            }
        }
    }
}

/// The arguments of one measured child run.
fn child_args(w: Workload, seed: u64, seconds: u64, trace: bool) -> Vec<String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    [
        "--workload",
        w.name(),
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ]
    .map(String::from)
    .to_vec()
}

/// `run` and `trace`: measure every workload in child processes ([`REPS`]
/// times, or once when tracing) for BENCHMARK.json's `run_seconds`, write
/// the results file and report it.
fn measure_all(args: &[String], trace: bool, name: &str) -> Result<i32, String> {
    let f = flags(args, &["--seed", "--out"])?;
    let seed = number(&f, "--seed", PINNED_SEED, 0)?;
    let reps = if trace { 1 } else { REPS };
    let seconds = declared().run_seconds;
    let out = results_path(&f, &format!("{name}-seed{seed}.json"));
    let provenance = Provenance::collect(seed, reps, seconds);
    let (workloads, ok) = collect(reps, |w| child_args(w, seed, seconds, trace));
    let results = Results {
        provenance,
        workloads,
    };
    write_file(&out, &results.to_json())?;
    print_summary(&results);
    println!("wrote {}", out.display());
    Ok(if ok { 0 } else { 1 })
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let c = compare(&load(a)?, &load(b)?, &declared().end_to_end);
    print!("{}", c.render());
    Ok(if c.regressed() { 1 } else { 0 })
}

/// Run every workload twice at the pinned seed and write their digests.
fn cmd_bless() -> Result<i32, String> {
    std::env::set_var("POWIFI_BENCH_SHA", "powifi-benchmark");
    let mut digests = Vec::new();
    for w in Workload::ALL {
        let runs = [0, 1].map(|_| w.unit(PINNED_SEED, &mut Spans::new()));
        let problems: Vec<&String> = runs.iter().flat_map(|u| &u.problems).collect();
        if !problems.is_empty() || runs[0].digest != runs[1].digest {
            eprintln!(
                "{}: not blessing, outputs are not reproducible: {problems:?}, digests {} / {}",
                w.name(),
                runs[0].digest,
                runs[1].digest
            );
            return Ok(1);
        }
        println!("{} {}", w.name(), runs[0].digest);
        digests.push((w.name().to_string(), Value::Str(runs[0].digest.clone())));
    }
    let v = Value::Object(vec![
        ("seed".into(), Value::UInt(PINNED_SEED)),
        ("digests".into(), Value::Object(digests)),
    ]);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed42.json");
    let text = serde_json::to_string_pretty(&v).map_err(|e| e.to_string())? + "\n";
    write_file(&path, &text)?;
    println!("wrote {}", path.display());
    Ok(0)
}
