//! `powifi-replay` — checkpoint inspector and time-travel divergence
//! bisector.
//!
//! ```text
//! powifi-replay info FILE              describe one checkpoint
//! powifi-replay verify FILE            content-hash + restore fixed-point check
//! powifi-replay diff A B [--limit N]   field-level diff of two checkpoints
//! powifi-replay bisect A B [--limit N] first divergent epoch of two chains
//! ```
//!
//! `bisect` takes two chain *directories* (as written by
//! `--checkpoint-every` / `powifi-fleetd --checkpoint-dir`), binary-searches
//! their common epochs for the first one whose state hashes differ, and
//! prints a structured field-level diff of the two state trees there —
//! turning "resume ≢ straight-through" failures into a one-command
//! root cause. Exit codes: 0 = identical/verified, 1 = divergence or
//! verification failure, 2 = usage error.

use powifi_bench::replay;
use powifi_sim::ckpt::{self, Value};
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "usage: powifi-replay <info FILE | verify FILE | diff A B [--limit N] | \
     bisect DIR_A DIR_B [--limit N]>";

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn load(path: &Path) -> ckpt::Checkpoint {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    ckpt::load(&bytes).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())))
}

/// Render a leaf for `info` output; non-leaves summarize as a kind tag.
fn brief(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::U64(n) => n.to_string(),
        Value::F64(bits) => format!("{}", f64::from_bits(*bits)),
        Value::Str(s) => s.clone(),
        Value::List(l) => format!("[{} items]", l.len()),
        Value::Map(m) => format!("{{{} fields}}", m.len()),
    }
}

fn info(path: &Path) {
    let c = load(path);
    println!("file:    {}", path.display());
    println!("version: {}", c.version);
    println!("hash:    {}", c.hash);
    if let Ok(epoch) = c.root.field::<u64>("epoch") {
        println!("epoch:   {epoch}");
    }
    if let Ok(spec) = c.root.get("spec") {
        if let Ok(fields) = spec.as_map("spec") {
            for (k, v) in fields {
                println!("spec.{k}: {}", brief(v));
            }
        }
    }
    if let Ok(q) = c.root.get("queue") {
        for k in ["now", "next_seq", "executed"] {
            if let Ok(n) = q.field::<u64>(k) {
                println!("queue.{k}: {n}");
            }
        }
        if let Ok(evs) = q.list_field("events") {
            println!("queue.events: {} pending", evs.len());
        }
    }
}

fn verify(path: &Path) {
    // `load` verified the container hash already; now prove the state is
    // *live*: restore it and require an immediate re-checkpoint to be a
    // fixed point (same hash ⇒ byte-identical container).
    let c = load(path);
    let run = match powifi_deploy::ckpt::resume_value(&c.root) {
        Ok(run) => run,
        Err(e) => {
            println!(
                "{}: hash OK ({}), restore FAILED: {e}",
                path.display(),
                c.hash
            );
            exit(1);
        }
    };
    match powifi_deploy::checkpoint(&run) {
        Ok((_, hash2)) if hash2 == c.hash => {
            println!(
                "{}: OK (hash {}, restore→save fixed point, epoch {})",
                path.display(),
                c.hash,
                run.epochs_done
            );
        }
        Ok((_, hash2)) => {
            println!(
                "{}: hash OK, but restore→save drifted: {} != {}",
                path.display(),
                c.hash,
                hash2
            );
            exit(1);
        }
        Err(e) => {
            println!("{}: restore OK, re-save FAILED: {e}", path.display());
            exit(1);
        }
    }
}

fn diff(a: &Path, b: &Path, limit: usize) {
    let (ca, cb) = (load(a), load(b));
    if ca.hash == cb.hash {
        println!("identical (hash {})", ca.hash);
        return;
    }
    let entries = ckpt::diff(&ca.root, &cb.root, limit);
    println!("{} divergent field(s):", entries.len());
    for e in &entries {
        println!("  {}: {} != {}", e.path, e.left, e.right);
    }
    exit(1);
}

fn bisect(a: &Path, b: &Path, limit: usize) {
    let report = replay::bisect(a, b, limit).unwrap_or_else(|e| fail(e));
    print!("{}", replay::render_report(&report));
    if report.divergence.is_some() {
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut limit = 32usize;
    let mut pos: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--limit" => {
                let v = it.next().unwrap_or_else(|| fail("--limit needs a count"));
                limit = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--limit needs a count, got `{v}`")));
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                exit(0);
            }
            other => pos.push(other),
        }
    }
    match pos.as_slice() {
        ["info", f] => info(&PathBuf::from(f)),
        ["verify", f] => verify(&PathBuf::from(f)),
        ["diff", a, b] => diff(&PathBuf::from(a), &PathBuf::from(b), limit),
        ["bisect", a, b] => bisect(&PathBuf::from(a), &PathBuf::from(b), limit),
        _ => fail(USAGE),
    }
}
