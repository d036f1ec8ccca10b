//! `powifi-obs` — the one inspector for what the simulator writes:
//! `--trace` captures, `--prof` span profiles, checkpoint chains and
//! `powifi-fleetd` streams.
//!
//! ```text
//! powifi-obs trace <summary|filter|occupancy|diff|merge|validate> ...
//! powifi-obs prof  <tree|top|diff|flame> ...
//! powifi-obs ckpt  <info|verify|diff|bisect> ...
//! powifi-obs fleet <watch|record|aggregate> ...
//! ```
//!
//! `trace occupancy` recomputes the paper's Σ sizeᵢ/rateᵢ per-channel
//! airtime from `tx_start` records (§4's tshark post-processing) as a
//! cross-check against the MAC's own accounting, and `trace merge`
//! interleaves per-shard or per-deployment traces by `(sim-time, seq)`.
//! `prof diff` ignores wall-clock fields. `ckpt verify` restores a
//! checkpoint and requires re-saving it to reproduce its hash; `ckpt
//! bisect` binary-searches two chains for their first divergent epoch and
//! field-diffs the state there. `fleet aggregate` runs the deterministic
//! tumbling-window aggregation (`powifi_sim::obs::agg`) over a capture:
//! rows to stdout, a record and gap summary to stderr.
//!
//! Every command follows one exit-code rule, so each works as a CI gate:
//! 0 success; 1 a negative verdict on input that was read (a divergence,
//! schema violations, a failed verify, or seq gaps under `--deny-gaps`);
//! 2 bad arguments, an input that cannot be opened or parsed, or a stdout
//! that refuses the output (a closed pipe, a full disk).

use powifi_bench::fleet::record_stream;
use powifi_bench::profinspect::{self, TopBy};
use powifi_bench::replay;
use powifi_bench::runner::duration_flag;
use powifi_bench::traceinspect::{self, Filter};
use powifi_sim::ckpt::{self, Checkpoint, Value, ValueExt};
use powifi_sim::obs::agg::{AggConfig, Aggregator};
use powifi_sim::SimDuration;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: powifi-obs <trace|prof|ckpt|fleet> <command> [ARG...]
  trace summary   FILE                        counts per layer/kind, time span
  trace filter    FILE [--layer L] [--kind K] [--entity N] [--from SECS] [--to SECS]
  trace occupancy FILE --end SECS [--sta N] [--point IDX]
  trace diff      FILE_A FILE_B
  trace merge     FILE...                     interleave by (sim-time, seq) to stdout
  trace validate  FILE
  prof  tree      FILE [--point IDX]
  prof  top       FILE [--point IDX] [--by self|total|count] [--limit N]
  prof  diff      FILE_A FILE_B               sim-time fields only
  prof  flame     FILE [--point IDX]          folded stacks
  ckpt  info      FILE
  ckpt  verify    FILE                        restore, re-save, compare hashes
  ckpt  diff      FILE_A FILE_B [--limit N]
  ckpt  bisect    DIR_A DIR_B [--limit N]     first divergent epoch of two chains
  fleet watch     ADDR
  fleet record    ADDR FILE
  fleet aggregate FILE [--window-ms MS] [--deny-gaps]
exit: 0 ok; 1 divergence, schema violations, failed verify, or gaps under
--deny-gaps; 2 bad arguments, an input that cannot be opened or parsed, or
a failed stdout write";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [help] if help == "--help" || help == "-h" => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        [group, cmd, rest @ ..] => {
            // Every command but `fleet watch` writes here, and stdout gets
            // it in one write whose failure is an error like any other.
            let mut out = String::new();
            let outcome = run(group, cmd, rest, &mut out);
            let mut stdout = io::stdout().lock();
            stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("stdout: {e}"))
                .and(outcome)
        }
        _ => Err("missing command".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One command's arguments: positionals in order, then the flags.
struct Args {
    pos: Vec<String>,
    /// `(flag, value)` pairs, in order.
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Read `argv`: each flag in `valued` takes the next argument as its
    /// value, each in `switches` stands alone, any other `--flag` is
    /// refused, and everything else is positional.
    fn read(argv: &[String], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut a = Args {
            pos: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                a.values.push((arg.clone(), v.clone()));
            } else if switches.contains(&arg.as_str()) {
                a.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}`"));
            } else {
                a.pos.push(arg.clone());
            }
        }
        Ok(a)
    }

    /// Exactly `N` positional arguments.
    fn files<const N: usize>(&self) -> Result<[String; N], String> {
        self.pos
            .clone()
            .try_into()
            .map_err(|got: Vec<String>| format!("expected {N} argument(s), got {}", got.len()))
    }

    /// The last value given for `flag`, parsed; `None` when absent.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.values.iter().rev().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag} cannot take `{v}`")),
        }
    }

    /// `flag` as a count of at least one.
    fn positive(&self, flag: &str) -> Result<Option<u64>, String> {
        match self.get(flag)? {
            Some(0) => Err(format!("{flag} needs a positive count, got 0")),
            n => Ok(n),
        }
    }

    /// `flag` as non-negative fractional seconds, in nanoseconds.
    fn secs(&self, flag: &str) -> Result<Option<u64>, String> {
        match self.get::<f64>(flag)? {
            Some(s) if !s.is_finite() || s < 0.0 => {
                Err(format!("{flag} needs non-negative seconds, got `{s}`"))
            }
            s => Ok(s.map(|s| (s * 1e9).round() as u64)),
        }
    }
}

/// Read the file at `path` and parse it, naming the file in any error.
fn load<T>(path: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_ckpt(text: &str) -> Result<Checkpoint, String> {
    ckpt::load(text.as_bytes()).map_err(|e| e.to_string())
}

/// A point label for display.
fn anon(label: &str) -> &str {
    if label.is_empty() {
        "<anon>"
    } else {
        label
    }
}

/// Write a diff's first divergence (a negative verdict) or `same`.
fn verdict(out: &mut String, divergence: Option<String>, same: &str) -> Result<bool, String> {
    let _ = writeln!(out, "{}", divergence.as_deref().unwrap_or(same));
    Ok(divergence.is_none())
}

/// Run one command, writing its stdout to `out`: `Ok(true)` exits 0,
/// `Ok(false)` 1 and `Err` 2.
fn run(group: &str, cmd: &str, argv: &[String], out: &mut String) -> Result<bool, String> {
    let bare = || Args::read(argv, &[], &[]);
    match (group, cmd) {
        ("trace", "summary") => {
            let [file] = bare()?.files()?;
            out.push_str(&traceinspect::summarize(&load(&file, traceinspect::parse)?));
            Ok(true)
        }
        ("trace", "filter") => {
            let a = Args::read(
                argv,
                &["--layer", "--kind", "--entity", "--from", "--to"],
                &[],
            )?;
            let [file] = a.files()?;
            let filter = Filter {
                layer: a.get("--layer")?,
                kind: a.get("--kind")?,
                entity: a.get("--entity")?,
                from_ns: a.secs("--from")?,
                to_ns: a.secs("--to")?,
            };
            for rec in load(&file, traceinspect::parse)?.records() {
                if filter.matches(rec) {
                    let _ = writeln!(out, "{}", rec.raw);
                }
            }
            Ok(true)
        }
        ("trace", "occupancy") => {
            let a = Args::read(argv, &["--end", "--sta", "--point"], &[])?;
            let [file] = a.files()?;
            let end_ns = a.secs("--end")?.ok_or("occupancy needs --end SECS")?;
            let (sta, point) = (a.get("--sta")?, a.get::<usize>("--point")?);
            for (pi, pt) in load(&file, traceinspect::parse)?.points.iter().enumerate() {
                if point.is_some_and(|want| want != pi) {
                    continue;
                }
                let _ = writeln!(out, "point {pi} ({}):", anon(&pt.label));
                let occ = traceinspect::occupancy(pt, end_ns, sta);
                if occ.is_empty() {
                    let _ = writeln!(out, "  (no matching tx_start records)");
                }
                for (medium, frac) in occ {
                    let _ = writeln!(out, "  medium {medium}: {frac:.6}");
                }
            }
            Ok(true)
        }
        ("trace", "diff") => {
            let [a, b] = bare()?.files()?;
            let (a, b) = (
                load(&a, traceinspect::parse)?,
                load(&b, traceinspect::parse)?,
            );
            verdict(
                out,
                traceinspect::diff(&a, &b),
                "traces are structurally identical",
            )
        }
        ("trace", "merge") => {
            let files = bare()?.pos;
            if files.is_empty() {
                return Err("merge needs at least one FILE".into());
            }
            let traces = files
                .iter()
                .map(|f| load(f, traceinspect::parse))
                .collect::<Result<Vec<_>, _>>()?;
            for rec in traceinspect::merge(&traces) {
                let _ = writeln!(out, "{}", rec.raw);
            }
            Ok(true)
        }
        ("trace", "validate") => {
            let [file] = bare()?.files()?;
            let trace = load(&file, traceinspect::parse)?;
            let problems = traceinspect::validate(&trace);
            for p in &problems {
                eprintln!("{p}");
            }
            if problems.is_empty() {
                let n: usize = trace.points.iter().map(|p| p.records.len()).sum();
                let _ = writeln!(
                    out,
                    "ok: {n} records across {} point(s) conform to the event schema",
                    trace.points.len()
                );
            } else {
                eprintln!("{} schema violation(s)", problems.len());
            }
            Ok(problems.is_empty())
        }
        ("prof", "tree" | "top" | "flame") => {
            let a = Args::read(argv, &["--point", "--by", "--limit"], &[])?;
            let [file] = a.files()?;
            let point = a.get::<usize>("--point")?;
            let by = match a.get::<String>("--by")? {
                Some(by) => TopBy::from_flag(&by)?,
                None => TopBy::SelfTime,
            };
            let limit = a.positive("--limit")?.unwrap_or(20) as usize;
            for (pi, pt) in load(&file, profinspect::parse)?.points.iter().enumerate() {
                if point.is_some_and(|want| want != pi) {
                    continue;
                }
                let label = anon(&pt.label);
                let _ = match cmd {
                    "tree" => write!(
                        out,
                        "point {} ({label}) seed={}\n{}",
                        pt.point,
                        pt.seed,
                        pt.snap.render_tree()
                    ),
                    "top" => write!(
                        out,
                        "point {pi} ({label}):  [self] [total] [count]\n{}",
                        profinspect::top(pt, by, limit)
                    ),
                    _ => write!(out, "{}", pt.snap.render_folded()),
                };
            }
            Ok(true)
        }
        ("prof", "diff") => {
            let [a, b] = bare()?.files()?;
            let (a, b) = (load(&a, profinspect::parse)?, load(&b, profinspect::parse)?);
            verdict(
                out,
                profinspect::diff(&a, &b),
                "profiles are structurally identical",
            )
        }
        ("ckpt", "info") => {
            let [file] = bare()?.files()?;
            ckpt_info(out, &file, &load(&file, parse_ckpt)?);
            Ok(true)
        }
        ("ckpt", "verify") => {
            let [file] = bare()?.files()?;
            let c = load(&file, parse_ckpt)?;
            // Loading checked the container hash; now prove the state is
            // live: restore it and require an immediate re-save to be a
            // fixed point (same hash ⇒ byte-identical container).
            let (msg, ok) = match powifi_deploy::ckpt::resume_value(&c.root) {
                Err(e) => (format!("hash OK ({}), restore FAILED: {e}", c.hash), false),
                Ok(run) => match powifi_deploy::checkpoint(&run) {
                    Ok((_, hash)) if hash == c.hash => (
                        format!(
                            "OK (hash {}, restore→save fixed point, epoch {})",
                            c.hash, run.epochs_done
                        ),
                        true,
                    ),
                    Ok((_, hash)) => (
                        format!("hash OK, but restore→save drifted: {} != {hash}", c.hash),
                        false,
                    ),
                    Err(e) => (format!("restore OK, re-save FAILED: {e}"), false),
                },
            };
            let _ = writeln!(out, "{file}: {msg}");
            Ok(ok)
        }
        ("ckpt", "diff") => {
            let a = Args::read(argv, &["--limit"], &[])?;
            let [fa, fb] = a.files()?;
            let limit = a.get("--limit")?.unwrap_or(32);
            let (ca, cb) = (load(&fa, parse_ckpt)?, load(&fb, parse_ckpt)?);
            if ca.hash == cb.hash {
                let _ = writeln!(out, "identical (hash {})", ca.hash);
                return Ok(true);
            }
            let entries = ckpt::diff(&ca.root, &cb.root, limit);
            let _ = writeln!(out, "{} divergent field(s):", entries.len());
            for e in &entries {
                let _ = writeln!(out, "  {}: {} != {}", e.path, e.left, e.right);
            }
            Ok(false)
        }
        ("ckpt", "bisect") => {
            let a = Args::read(argv, &["--limit"], &[])?;
            let [da, db] = a.files()?;
            let limit = a.get("--limit")?.unwrap_or(32);
            let report =
                replay::bisect(Path::new(&da), Path::new(&db), limit).map_err(|e| e.to_string())?;
            out.push_str(&replay::render_report(&report));
            Ok(report.divergence.is_none())
        }
        ("fleet", "watch") => {
            let [addr] = bare()?.files()?;
            let lines = record_stream(&addr, &mut io::stdout().lock())
                .map_err(|e| format!("watch {addr}: {e}"))?;
            eprintln!("stream ended after {lines} lines");
            Ok(true)
        }
        ("fleet", "record") => {
            let [addr, file] = bare()?.files()?;
            let out = std::fs::File::create(&file).map_err(|e| format!("create {file}: {e}"))?;
            let lines = record_stream(&addr, &mut io::BufWriter::new(out))
                .map_err(|e| format!("record {addr}: {e}"))?;
            eprintln!("recorded {lines} lines to {file}");
            Ok(true)
        }
        ("fleet", "aggregate") => {
            let a = Args::read(argv, &["--window-ms"], &["--deny-gaps"])?;
            let [file] = a.files()?;
            let ms = a.positive("--window-ms")?.unwrap_or(1000);
            let window = SimDuration::from_millis(duration_flag("--window-ms", ms, 1_000_000)?);
            let agg = load(&file, |text| {
                let mut agg = Aggregator::new(&AggConfig { window });
                for (i, line) in text.lines().enumerate() {
                    agg.ingest_line(line)
                        .map_err(|e| format!("line {}: {e}", i + 1))?;
                }
                Ok(agg)
            })?;
            out.push_str(&agg.render());
            let session = agg.session().map_or(String::new(), |s| {
                format!(", session {} (seed {})", s.run_id, s.seed)
            });
            eprintln!(
                "aggregated {} records, {} seq gap(s){session}",
                agg.records(),
                agg.seq_gaps()
            );
            let lost = a.switches.iter().any(|s| s == "--deny-gaps") && agg.seq_gaps() > 0;
            if lost {
                eprintln!("error: --deny-gaps: stream lost records");
            }
            Ok(!lost)
        }
        _ => Err(format!("unknown command `{group} {cmd}`")),
    }
}

/// `ckpt info`: the container line, the epoch, the spec's leaves and the
/// queue's counters.
fn ckpt_info(out: &mut String, path: &str, c: &Checkpoint) {
    // A leaf renders as itself; a list or map as a size tag.
    let brief = |v: &Value| match v {
        Value::Float(x) => format!("{x}"),
        Value::Str(s) => s.clone(),
        Value::Array(l) => format!("[{} items]", l.len()),
        Value::Object(m) => format!("{{{} fields}}", m.len()),
        leaf => leaf.encode(),
    };
    let _ = writeln!(out, "file:    {path}");
    let _ = writeln!(out, "version: {}", c.version);
    let _ = writeln!(out, "hash:    {}", c.hash);
    if let Ok(epoch) = c.root.field::<u64>("epoch") {
        let _ = writeln!(out, "epoch:   {epoch}");
    }
    if let Ok(fields) = c.root.get("spec").and_then(|s| s.as_map("spec")) {
        for (k, v) in fields {
            let _ = writeln!(out, "spec.{k}: {}", brief(v));
        }
    }
    if let Ok(q) = c.root.get("queue") {
        for k in ["now", "next_seq", "executed"] {
            if let Ok(n) = q.field::<u64>(k) {
                let _ = writeln!(out, "queue.{k}: {n}");
            }
        }
        if let Ok(evs) = q.list_field("events") {
            let _ = writeln!(out, "queue.events: {} pending", evs.len());
        }
    }
}
