//! The sweep-execution engine behind every bench binary.
//!
//! A figure or table is a *grid* of experiment points (scheme × rate ×
//! distance × …). Each binary used to hand-roll nested loops, ad-hoc
//! threading and its own CLI parsing; the [`Experiment`] trait plus the
//! [`Sweep`] driver replace all of that:
//!
//! * **Deterministic parallelism.** Points run on a scoped worker pool
//!   (`--jobs N`), each with a private seed derived from the experiment
//!   seed, the experiment name and the point's position in the *full*
//!   grid via [`SimRng`] splitting. Results are collected in submission
//!   order, so every artifact is bit-identical regardless of `--jobs`,
//!   and `--filter` never changes the seed of a surviving point.
//! * **Observability.** With `--json DIR`, the driver writes
//!   `<name>.points.json` (per-point parameters, seed, output, events
//!   executed, MAC frames, occupancy — fully deterministic) and
//!   `<name>.manifest.json` (engine version, CLI, wall-clock per point —
//!   the only place timing appears, so artifact diffs stay meaningful).
//! * **One CLI.** [`BenchArgs::parse`] handles `--seed/--full/--json/
//!   --jobs/--filter/--check/--trace/--metrics/--prof` for every binary,
//!   rejecting malformed input with a usage message and exit code 2.
//! * **Deep observability.** `--trace FILE` captures every point's
//!   structured trace (`powifi_sim::obs::trace`) into one JSONL file in
//!   grid order, each point introduced by a header line; `--metrics`
//!   embeds the full metrics-registry snapshot per point in the points
//!   artifact and manifest; `--prof FILE` captures every point's sim-time
//!   span profile (`powifi_sim::obs::prof`, wall timing off) into one
//!   JSONL file in the same header+payload shape. All are deterministic
//!   in `--jobs`.
//! * **Conformance.** With `--check`, every point runs under the runtime
//!   invariant checker (`powifi_sim::conformance`): the world installs its
//!   periodic audits, violations are counted per point, and the sweep
//!   panics after reporting if any point violated an invariant.

use powifi_sim::ckpt::Ckpt;
use powifi_sim::obs::{metrics, prof, stream, trace};
use powifi_sim::{conformance, RunTelemetry, SimRng, SimTime};
use serde::{Serialize, Value};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Common CLI arguments for all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Experiment RNG seed (default 42; every run is deterministic in it).
    pub seed: u64,
    /// Run the full-length configuration (paper-scale durations/repeats).
    pub full: bool,
    /// Directory to write `<name>.json` result files into.
    pub json_dir: Option<PathBuf>,
    /// Worker threads for sweep execution (default: available cores).
    pub jobs: usize,
    /// Only run grid points whose label contains this substring.
    pub filter: Option<String>,
    /// Run every point under the runtime invariant checker.
    pub check: bool,
    /// Write a structured JSONL trace of every point to this file.
    pub trace: Option<PathBuf>,
    /// Include the full metrics-registry snapshot per point in artifacts.
    pub metrics: bool,
    /// Write a per-point sim-time span profile (JSONL) to this file.
    /// Captured with wall timing off, so the artifact is deterministic.
    pub prof: Option<PathBuf>,
    /// Stream live telemetry to this TCP address (`host:port`) while the
    /// sweep runs: each point gets a `powifi_sim::obs::stream` handle
    /// tagged with its label, so epoch-stepped experiments emit `metrics`
    /// records as they go. Observational only — the egress never blocks,
    /// so results are unchanged.
    pub stream: Option<String>,
    /// Resume provenance `(epoch, state hash)`, recorded in the manifest as
    /// `resumed_from` so points from resumed runs are distinguishable from
    /// straight-through runs. Not a CLI flag — `powifi-office` sets it after
    /// picking up a chain.
    pub resumed_from: Option<(u64, String)>,
}

const USAGE: &str = "usage: [--seed N] [--full] [--json DIR] [--jobs N] [--filter SUBSTR] \
     [--check] [--trace FILE] [--metrics] [--prof FILE] [--stream ADDR]";

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            seed: 42,
            full: false,
            json_dir: None,
            jobs: default_jobs(),
            filter: None,
            check: false,
            trace: None,
            metrics: false,
            prof: None,
            stream: None,
            resumed_from: None,
        }
    }
}

/// `n`, the value of the duration flag `flag` in units of `unit_ns`
/// nanoseconds, when its nanoseconds fit in a `u64`; otherwise an error.
pub fn duration_flag(flag: &str, n: u64, unit_ns: u64) -> Result<u64, String> {
    n.checked_mul(unit_ns)
        .map(|_| n)
        .ok_or(format!("{flag} {n} overflows 64-bit nanoseconds"))
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl BenchArgs {
    /// Parse the shared CLI from `std::env::args`. Malformed input prints
    /// the usage line to stderr and exits with code 2.
    pub fn parse() -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit argument list (testable core of [`parse`]).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs an integer")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got `{v}`"))?;
                }
                "--full" => out.full = true,
                "--json" => {
                    out.json_dir = Some(PathBuf::from(it.next().ok_or("--json needs a dir")?));
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a positive integer")?;
                    out.jobs = v
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("--jobs needs a positive integer, got `{v}`"))?;
                }
                "--filter" => {
                    out.filter = Some(it.next().ok_or("--filter needs a substring")?);
                }
                "--check" => out.check = true,
                "--trace" => {
                    out.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a file")?));
                }
                "--metrics" => out.metrics = true,
                "--prof" => {
                    out.prof = Some(PathBuf::from(it.next().ok_or("--prof needs a file")?));
                }
                "--stream" => {
                    out.stream = Some(it.next().ok_or("--stream needs host:port")?);
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// Write a serializable result as `<name>.json` when `--json` was given.
    pub fn emit<T: Serialize>(&self, name: &str, value: &T) {
        if let Some(dir) = &self.json_dir {
            fs::create_dir_all(dir).expect("create json dir");
            let path = dir.join(format!("{name}.json"));
            fs::write(
                &path,
                serde_json::to_string_pretty(value).expect("serialize"),
            )
            .expect("write json");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// One table/figure experiment: a grid of points, each runnable in
/// isolation from a plain seed. Implementations must be pure functions of
/// `(point, seed)` — the driver may run points on any thread in any order.
pub trait Experiment: Sync {
    /// One grid point (a parameter combination).
    type Point: Clone + Send + Sync;
    /// Result of running one point.
    type Output: Serialize + Send;

    /// Artifact base name, e.g. `"fig06a_udp"`. Also salts per-point seeds.
    fn name(&self) -> &'static str;

    /// The parameter grid; `full` selects the paper-scale configuration.
    /// Must be deterministic: seeds are derived from positions in this list.
    fn points(&self, full: bool) -> Vec<Self::Point>;

    /// Human-readable point label, used in artifacts and by `--filter`.
    fn label(&self, pt: &Self::Point) -> String;

    /// Run one point with its derived seed.
    fn run(&self, pt: &Self::Point, seed: u64) -> Self::Output;
}

/// Result of one executed grid point.
#[derive(Debug, Clone)]
pub struct PointRun<P, O> {
    /// Position in the full (unfiltered) grid.
    pub index: usize,
    /// The point's parameters.
    pub point: P,
    /// [`Experiment::label`] of the point.
    pub label: String,
    /// The derived seed the point ran with.
    pub seed: u64,
    /// The experiment's output.
    pub output: O,
    /// Simulation-work counters observed while running the point.
    pub telemetry: RunTelemetry,
    /// Full metrics-registry snapshot for the point (`--metrics` only;
    /// deterministic, so it appears in artifacts when requested).
    pub metrics: Option<metrics::MetricsSnapshot>,
    /// The point's structured trace as JSONL (`--trace` only;
    /// deterministic — captured per point and written in grid order).
    pub trace_jsonl: Option<String>,
    /// The point's sim-time span profile as one line of JSON (`--prof`
    /// only; wall timing stays off, so this is deterministic too).
    pub prof_json: Option<String>,
    /// Wall-clock runtime of this point, milliseconds (nondeterministic;
    /// reported only in the manifest, never in deterministic artifacts).
    pub wall_ms: f64,
    /// Invariant violations observed while running the point (always 0
    /// unless `--check`; deterministic, so it appears in artifacts).
    pub violations: u64,
}

/// The sweep driver: executes an [`Experiment`]'s grid under the shared
/// CLI settings and writes the observability artifacts.
pub struct Sweep<'a> {
    args: &'a BenchArgs,
}

struct Item<P> {
    index: usize,
    label: String,
    seed: u64,
    point: P,
}

impl<'a> Sweep<'a> {
    /// A driver bound to parsed CLI settings.
    pub fn new(args: &'a BenchArgs) -> Self {
        Sweep { args }
    }

    /// Execute the experiment's grid (honoring `--full`, `--filter`,
    /// `--jobs`) and return one [`PointRun`] per executed point, in grid
    /// order. With `--json`, also writes `<name>.points.json` and
    /// `<name>.manifest.json`.
    pub fn run<E: Experiment>(&self, exp: &E) -> Vec<PointRun<E::Point, E::Output>> {
        let root = SimRng::from_seed(self.args.seed);
        let grid = exp.points(self.args.full);
        let grid_len = grid.len();
        let items: Vec<Item<E::Point>> = grid
            .into_iter()
            .enumerate()
            .map(|(index, point)| {
                let label = exp.label(&point);
                // Seed from the *unfiltered* grid position and label, so
                // `--filter` re-runs a subset with identical seeds.
                let seed = root.derive_seed(&format!("{}/{label}#{index}", exp.name()));
                Item {
                    index,
                    label,
                    seed,
                    point,
                }
            })
            .filter(|it| match &self.args.filter {
                Some(f) => it.label.contains(f.as_str()),
                None => true,
            })
            .collect();
        let started = Instant::now();
        // `--stream`: one shared egress + writer thread for the whole
        // sweep; every point pushes tagged records through it. Connection
        // failure is fatal up front — a silently dead stream would defeat
        // the point of asking for one.
        let streamer = self.args.stream.as_deref().map(|addr| {
            let session = stream::SessionInfo {
                run_id: exp.name().into(),
                seed: self.args.seed,
                git_sha: crate::report::git_head_sha(),
            };
            match stream::tcp_egress(addr, &session, stream::DEFAULT_QUEUE_CAP) {
                Ok(pair) => pair,
                Err(e) => panic!("--stream {addr}: {e}"),
            }
        });
        let runs = self.execute(exp, items, streamer.as_ref().map(|(eg, _)| eg));
        let stream_stats = streamer.map(|(eg, join)| {
            let stats = (eg.dropped(), eg.peak_depth() as u64);
            eg.close();
            let _ = join.join();
            stats
        });
        self.write_trace(exp, &runs);
        self.write_prof(exp, &runs);
        self.write_artifacts(
            exp,
            grid_len,
            &runs,
            started.elapsed().as_secs_f64() * 1e3,
            stream_stats,
        );
        if self.args.check {
            let total: u64 = runs.iter().map(|r| r.violations).sum();
            if total > 0 {
                let bad: Vec<&str> = runs
                    .iter()
                    .filter(|r| r.violations > 0)
                    .map(|r| r.label.as_str())
                    .collect();
                panic!(
                    "--check: {total} conformance violation(s) across {} point(s): {bad:?} (details on stderr)",
                    bad.len()
                );
            }
        }
        runs
    }

    fn execute<E: Experiment>(
        &self,
        exp: &E,
        items: Vec<Item<E::Point>>,
        egress: Option<&Arc<stream::Egress>>,
    ) -> Vec<PointRun<E::Point, E::Output>> {
        let jobs = self.args.jobs.clamp(1, items.len().max(1));
        let opts = PointOpts {
            check: self.args.check,
            trace: self.args.trace.is_some(),
            metrics: self.args.metrics,
            prof: self.args.prof.is_some(),
        };
        if jobs == 1 {
            return items
                .into_iter()
                .map(|it| run_point(exp, it, opts, egress))
                .collect();
        }
        let n = items.len();
        let slots = parking_lot::Mutex::new(
            (0..n)
                .map(|_| None::<PointRun<E::Point, E::Output>>)
                .collect::<Vec<_>>(),
        );
        let next = AtomicUsize::new(0);
        crossbeam::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|_| loop {
                    // Work-stealing by atomic index; slot `i` pins the
                    // result to submission order regardless of which
                    // worker claims it or when it finishes.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = &items[i];
                    let run = run_point(
                        exp,
                        Item {
                            index: item.index,
                            label: item.label.clone(),
                            seed: item.seed,
                            point: item.point.clone(),
                        },
                        opts,
                        egress,
                    );
                    slots.lock()[i] = Some(run);
                });
            }
        })
        .expect("sweep workers");
        slots
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("every claimed point stores a result"))
            .collect()
    }

    /// Write the `--trace` JSONL file: every point's trace in grid order,
    /// each introduced by a one-line point header object. Fully
    /// deterministic — traces are captured per point on worker threads and
    /// concatenated in submission order here.
    fn write_trace<E: Experiment>(&self, exp: &E, runs: &[PointRun<E::Point, E::Output>]) {
        let Some(path) = &self.args.trace else {
            return;
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create trace dir");
            }
        }
        let mut out = String::new();
        for r in runs {
            let header = Value::Object(vec![
                ("experiment".into(), Value::Str(exp.name().into())),
                ("point".into(), Value::UInt(r.index as u64)),
                ("label".into(), Value::Str(r.label.clone())),
                ("seed".into(), Value::UInt(r.seed)),
            ]);
            out.push_str(&serde_json::to_string(&header).expect("serialize trace header"));
            out.push('\n');
            out.push_str(r.trace_jsonl.as_deref().unwrap_or(""));
        }
        fs::write(path, out).expect("write trace jsonl");
        eprintln!("wrote {}", path.display());
    }

    /// Write the `--prof` JSONL file: one point-header line plus one
    /// span-tree snapshot line per point, in grid order. Wall timing is off
    /// during capture, so the file is byte-identical at any `--jobs` level.
    fn write_prof<E: Experiment>(&self, exp: &E, runs: &[PointRun<E::Point, E::Output>]) {
        let Some(path) = &self.args.prof else {
            return;
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create prof dir");
            }
        }
        let mut out = String::new();
        for r in runs {
            let header = Value::Object(vec![
                ("experiment".into(), Value::Str(exp.name().into())),
                ("point".into(), Value::UInt(r.index as u64)),
                ("label".into(), Value::Str(r.label.clone())),
                ("seed".into(), Value::UInt(r.seed)),
            ]);
            out.push_str(&serde_json::to_string(&header).expect("serialize prof header"));
            out.push('\n');
            if let Some(p) = &r.prof_json {
                out.push_str(p);
                out.push('\n');
            }
        }
        fs::write(path, out).expect("write prof jsonl");
        eprintln!("wrote {}", path.display());
    }

    fn write_artifacts<E: Experiment>(
        &self,
        exp: &E,
        grid_len: usize,
        runs: &[PointRun<E::Point, E::Output>],
        total_wall_ms: f64,
        stream_stats: Option<(u64, u64)>,
    ) {
        let Some(dir) = &self.args.json_dir else {
            return;
        };
        fs::create_dir_all(dir).expect("create json dir");
        let points = Value::Array(runs.iter().map(point_value).collect());
        let name = exp.name();
        let points_path = dir.join(format!("{name}.points.json"));
        fs::write(
            &points_path,
            serde_json::to_string_pretty(&points).expect("serialize points"),
        )
        .expect("write points json");
        eprintln!("wrote {}", points_path.display());

        let manifest = Value::Object(vec![
            ("experiment".into(), Value::Str(name.into())),
            (
                "engine".into(),
                Value::Object(vec![
                    ("package".into(), Value::Str(env!("CARGO_PKG_NAME").into())),
                    (
                        "version".into(),
                        Value::Str(env!("CARGO_PKG_VERSION").into()),
                    ),
                ]),
            ),
            ("seed".into(), Value::UInt(self.args.seed)),
            ("full".into(), Value::Bool(self.args.full)),
            ("jobs".into(), Value::UInt(self.args.jobs as u64)),
            (
                "filter".into(),
                match &self.args.filter {
                    Some(f) => Value::Str(f.clone()),
                    None => Value::Null,
                },
            ),
            ("grid_points".into(), Value::UInt(grid_len as u64)),
            ("run_points".into(), Value::UInt(runs.len() as u64)),
            (
                // `--stream` egress health: how many records the bounded
                // queue dropped (0 = every seq reached the consumer) and
                // the deepest it got. `null` when not streaming.
                "stream".into(),
                match stream_stats {
                    Some((dropped, peak)) => Value::Object(vec![
                        (
                            "addr".into(),
                            Value::Str(self.args.stream.clone().unwrap_or_default()),
                        ),
                        ("dropped".into(), Value::UInt(dropped)),
                        ("peak_queue_depth".into(), Value::UInt(peak)),
                    ]),
                    None => Value::Null,
                },
            ),
            (
                // Resume provenance: which checkpoint this run picked up
                // from, or `null` for a straight-through run. Lets a
                // reader tell resumed points apart (the results are
                // byte-identical either way — that's the ckpt invariant).
                "resumed_from".into(),
                match &self.args.resumed_from {
                    Some((epoch, hash)) => Value::Object(vec![
                        ("epoch".into(), Value::UInt(*epoch)),
                        ("hash".into(), Value::Str(hash.clone())),
                    ]),
                    None => Value::Null,
                },
            ),
            ("total_wall_ms".into(), Value::Float(total_wall_ms)),
            ("wall_stats".into(), wall_stats_value(runs)),
            (
                "points".into(),
                Value::Array(
                    runs.iter()
                        .map(|r| {
                            let mut row = vec![
                                ("label".into(), Value::Str(r.label.clone())),
                                ("seed".into(), Value::UInt(r.seed)),
                                ("wall_ms".into(), Value::Float(r.wall_ms)),
                                ("events".into(), Value::UInt(r.telemetry.events)),
                                ("frames".into(), Value::UInt(r.telemetry.frames)),
                                ("occupancy".into(), Value::Float(r.telemetry.occupancy)),
                            ];
                            if let Some(m) = &r.metrics {
                                row.push(("metrics".into(), m.to_ckpt()));
                            }
                            Value::Object(row)
                        })
                        .collect(),
                ),
            ),
        ]);
        let manifest_path = dir.join(format!("{name}.manifest.json"));
        fs::write(
            &manifest_path,
            serde_json::to_string_pretty(&manifest).expect("serialize manifest"),
        )
        .expect("write manifest json");
        eprintln!("wrote {}", manifest_path.display());
    }
}

/// Per-point observability switches, copied out of [`BenchArgs`] so worker
/// closures don't borrow the args.
#[derive(Debug, Clone, Copy)]
struct PointOpts {
    check: bool,
    trace: bool,
    metrics: bool,
    prof: bool,
}

fn run_point<E: Experiment>(
    exp: &E,
    item: Item<E::Point>,
    opts: PointOpts,
    egress: Option<&Arc<stream::Egress>>,
) -> PointRun<E::Point, E::Output> {
    metrics::reset();
    if let Some(eg) = egress {
        // Tag this point's records with its label; epoch-stepped
        // experiments emit through the handle as they run.
        stream::install(stream::Handle::new(Arc::clone(eg), item.label.as_str()));
    }
    if opts.check {
        // Per worker thread: the conformance sink is thread-local, exactly
        // like the metrics registry and trace sink.
        conformance::reset();
        conformance::set_enabled(true);
    }
    if opts.prof {
        // `--prof` stays sim-time only: wall timing would make the artifact
        // vary run to run and break --jobs byte-identity.
        prof::enable(false);
    }
    let started = Instant::now();
    let (output, trace_jsonl) = if opts.trace {
        let (output, jsonl) = trace::capture_jsonl(|| exp.run(&item.point, item.seed));
        (output, Some(jsonl))
    } else {
        (exp.run(&item.point, item.seed), None)
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if egress.is_some() {
        // Final snapshot + `end` record at the last epoch mark (finish
        // uninstalls the handle; a point that never marked ends at t=0).
        stream::finish(SimTime::ZERO);
    }
    let prof_json = if opts.prof {
        let snap = prof::snapshot();
        prof::disable();
        prof::reset();
        Some(snap.to_json())
    } else {
        None
    };
    let violations = if opts.check {
        conformance::set_enabled(false);
        let (count, retained) = conformance::take();
        for v in &retained {
            eprintln!("conformance[{}]: {v}", item.label);
        }
        count
    } else {
        0
    };
    let snapshot = metrics::snapshot();
    PointRun {
        index: item.index,
        point: item.point,
        label: item.label,
        seed: item.seed,
        output,
        telemetry: RunTelemetry::from_snapshot(&snapshot),
        metrics: opts.metrics.then_some(snapshot),
        trace_jsonl,
        prof_json,
        wall_ms,
        violations,
    }
}

/// The deterministic artifact entry for one point: everything except
/// wall-clock time.
fn point_value<P, O: Serialize>(run: &PointRun<P, O>) -> Value {
    let mut row = vec![
        ("index".into(), Value::UInt(run.index as u64)),
        ("label".into(), Value::Str(run.label.clone())),
        ("seed".into(), Value::UInt(run.seed)),
        ("events".into(), Value::UInt(run.telemetry.events)),
        ("frames".into(), Value::UInt(run.telemetry.frames)),
        ("occupancy".into(), Value::Float(run.telemetry.occupancy)),
        ("violations".into(), Value::UInt(run.violations)),
    ];
    if let Some(m) = &run.metrics {
        row.push(("metrics".into(), m.to_ckpt()));
    }
    row.push(("output".into(), run.output.to_value()));
    Value::Object(row)
}

/// Wall-clock summary over a sweep's points. Nondeterministic, so every
/// key contains `wall_ms` — the token golden-artifact comparisons strip.
/// `null` fields for an empty sweep.
fn wall_stats_value<P, O>(runs: &[PointRun<P, O>]) -> Value {
    if runs.is_empty() {
        return Value::Object(vec![
            ("min_wall_ms".into(), Value::Null),
            ("max_wall_ms".into(), Value::Null),
            ("mean_wall_ms".into(), Value::Null),
            ("sum_wall_ms".into(), Value::Float(0.0)),
        ]);
    }
    let mut min = f64::INFINITY;
    let mut max = 0.0f64;
    let mut sum = 0.0;
    for r in runs {
        min = min.min(r.wall_ms);
        max = max.max(r.wall_ms);
        sum += r.wall_ms;
    }
    Value::Object(vec![
        ("min_wall_ms".into(), Value::Float(min)),
        ("max_wall_ms".into(), Value::Float(max)),
        ("mean_wall_ms".into(), Value::Float(sum / runs.len() as f64)),
        ("sum_wall_ms".into(), Value::Float(sum)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Square;

    impl Experiment for Square {
        type Point = u64;
        type Output = u64;

        fn name(&self) -> &'static str {
            "square"
        }

        fn points(&self, full: bool) -> Vec<u64> {
            if full {
                (0..16).collect()
            } else {
                (0..8).collect()
            }
        }

        fn label(&self, pt: &u64) -> String {
            format!("x={pt}")
        }

        fn run(&self, pt: &u64, seed: u64) -> u64 {
            // Depends on the seed so determinism tests are meaningful.
            pt * pt + seed % 7
        }
    }

    fn args_with(jobs: usize, filter: Option<&str>) -> BenchArgs {
        BenchArgs {
            jobs,
            filter: filter.map(String::from),
            ..BenchArgs::default()
        }
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let serial = Sweep::new(&args_with(1, None)).run(&Square);
        let parallel = Sweep::new(&args_with(8, None)).run(&Square);
        assert_eq!(serial.len(), 8);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.output, b.output);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn filter_preserves_seeds() {
        let all = Sweep::new(&args_with(2, None)).run(&Square);
        let some = Sweep::new(&args_with(2, Some("x=5"))).run(&Square);
        assert_eq!(some.len(), 1);
        let full_run = all.iter().find(|r| r.label == "x=5").unwrap();
        assert_eq!(some[0].seed, full_run.seed);
        assert_eq!(some[0].output, full_run.output);
        assert_eq!(some[0].index, 5);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a = Sweep::new(&args_with(1, None)).run(&Square);
        let b = Sweep::new(&args_with(3, None)).run(&Square);
        let mut seeds: Vec<u64> = a.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, b.iter().map(|r| r.seed).collect::<Vec<_>>());
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "per-point seeds must be distinct");
    }

    #[test]
    fn full_grid_extends_quick_grid() {
        let exp = Square;
        assert_eq!(exp.points(false).len(), 8);
        assert_eq!(exp.points(true).len(), 16);
    }

    #[test]
    fn parse_from_accepts_all_flags() {
        let args = BenchArgs::parse_from(
            [
                "--seed", "7", "--full", "--json", "/tmp/x", "--jobs", "3", "--filter", "powifi",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.seed, 7);
        assert!(args.full);
        assert_eq!(
            args.json_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(args.jobs, 3);
        assert_eq!(args.filter.as_deref(), Some("powifi"));
    }

    #[test]
    fn parse_from_accepts_check() {
        assert!(!BenchArgs::default().check);
        let args = BenchArgs::parse_from(["--check"].map(String::from)).unwrap();
        assert!(args.check);
    }

    #[test]
    fn parse_from_accepts_trace_and_metrics() {
        let d = BenchArgs::default();
        assert!(d.trace.is_none());
        assert!(!d.metrics);
        let args =
            BenchArgs::parse_from(["--trace", "/tmp/t.jsonl", "--metrics"].map(String::from))
                .unwrap();
        assert_eq!(
            args.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert!(args.metrics);
        assert!(BenchArgs::parse_from(["--trace"].map(String::from)).is_err());
    }

    #[test]
    fn parse_from_accepts_prof() {
        assert!(BenchArgs::default().prof.is_none());
        let args = BenchArgs::parse_from(["--prof", "/tmp/p.jsonl"].map(String::from)).unwrap();
        assert_eq!(
            args.prof.as_deref(),
            Some(std::path::Path::new("/tmp/p.jsonl"))
        );
        assert!(BenchArgs::parse_from(["--prof"].map(String::from)).is_err());
    }

    #[test]
    fn profiled_sweep_snapshots_each_point_and_stays_off_otherwise() {
        let args = BenchArgs {
            prof: None,
            ..args_with(2, None)
        };
        for r in Sweep::new(&args).run(&Square) {
            assert!(r.prof_json.is_none(), "no --prof, no capture");
        }
        let args = BenchArgs {
            prof: Some(PathBuf::from("/nonexistent-never-written")),
            ..args_with(1, None)
        };
        // Run points directly through execute() via run()? write_prof would
        // try the bogus path — so exercise run_point through a local sweep
        // with a writable temp file instead.
        let dir = std::env::temp_dir().join(format!("powifi-prof-test-{}", std::process::id()));
        let path = dir.join("square.prof.jsonl");
        let args = BenchArgs {
            prof: Some(path.clone()),
            ..args
        };
        let runs = Sweep::new(&args).run(&Square);
        for r in &runs {
            let p = r.prof_json.as_ref().expect("--prof snapshots each point");
            // A pure-function experiment opens no spans.
            assert_eq!(p, "{\"wall\":false,\"spans\":[]}");
        }
        let text = fs::read_to_string(&path).expect("prof file written");
        assert_eq!(text.lines().count(), 16, "header + snapshot per point");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_sweep_captures_per_point_metrics() {
        let args = BenchArgs {
            metrics: true,
            ..args_with(2, None)
        };
        let runs = Sweep::new(&args).run(&Square);
        for r in &runs {
            let m = r.metrics.as_ref().expect("--metrics snapshots each point");
            // A pure-function experiment schedules no events, so the
            // registry holds only the totals recorded by the queue (none).
            assert_eq!(m.counter(metrics::keys::MAC_FRAMES), 0);
            assert!(r.trace_jsonl.is_none(), "no --trace, no capture");
        }
    }

    #[test]
    fn checked_sweep_runs_clean_for_pure_experiment() {
        let args = BenchArgs {
            check: true,
            ..args_with(2, None)
        };
        let runs = Sweep::new(&args).run(&Square);
        assert_eq!(runs.len(), 8);
        assert!(runs.iter().all(|r| r.violations == 0));
    }

    struct Violator;

    impl Experiment for Violator {
        type Point = u64;
        type Output = u64;

        fn name(&self) -> &'static str {
            "violator"
        }

        fn points(&self, _full: bool) -> Vec<u64> {
            vec![1]
        }

        fn label(&self, pt: &u64) -> String {
            format!("v={pt}")
        }

        fn run(&self, pt: &u64, _seed: u64) -> u64 {
            conformance::report(
                "test/violator",
                powifi_sim::SimTime::ZERO,
                "deliberate".into(),
            );
            *pt
        }
    }

    #[test]
    fn checked_sweep_panics_on_violation() {
        let args = BenchArgs {
            check: true,
            ..args_with(1, None)
        };
        let r = std::panic::catch_unwind(|| Sweep::new(&args).run(&Violator));
        let err = r.expect_err("violating sweep must panic");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("conformance violation"), "{msg}");
        // Without --check the same experiment passes silently.
        let runs = Sweep::new(&args_with(1, None)).run(&Violator);
        assert_eq!(runs[0].violations, 0);
        conformance::reset();
    }

    #[test]
    fn parse_from_rejects_malformed_input() {
        for bad in [
            &["--seed", "abc"][..],
            &["--seed"][..],
            &["--jobs", "0"][..],
            &["--jobs", "-1"][..],
            &["--frobnicate"][..],
            // Only `powifi-office` takes the checkpoint flags.
            &["--checkpoint-every", "2"][..],
            &["--ckpt-dir", "chain"][..],
            &["--resume", "chain/office.ckpt-000002"][..],
        ] {
            let r = BenchArgs::parse_from(bad.iter().map(|s| s.to_string()));
            assert!(r.is_err(), "{bad:?} should be rejected");
        }
    }
}
