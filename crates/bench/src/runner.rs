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
//! * **One CLI.** [`BenchArgs::parse`] reads `--seed/--full/--json/
//!   --jobs/--filter/--check/--trace/--metrics/--prof` for every binary
//!   through [`cli`], refusing malformed input with the usage and exit 2.
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

use crate::cli;
use powifi_sim::ckpt::Ckpt;
use powifi_sim::obs::{metrics, prof, trace};
use powifi_sim::{conformance, RunTelemetry, SimRng};
use serde::{Serialize, Value};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The line that opens each point of a `--trace` or `--prof` file,
/// `{"experiment":…,"point":…,"label":…,"seed":…}`. [`Sweep`] writes it
/// and [`PointHeader::decode`] reads it back for both inspectors: a line
/// with an `experiment` key is a header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointHeader {
    /// Experiment name (empty for a headerless trace).
    pub experiment: String,
    /// Position in the full grid.
    pub point: u64,
    /// Point label.
    pub label: String,
    /// Derived seed the point ran with.
    pub seed: u64,
}

impl PointHeader {
    fn to_line(&self) -> String {
        let header = Value::Object(vec![
            ("experiment".into(), Value::Str(self.experiment.clone())),
            ("point".into(), Value::UInt(self.point)),
            ("label".into(), Value::Str(self.label.clone())),
            ("seed".into(), Value::UInt(self.seed)),
        ]);
        serde_json::to_string(&header).expect("serialize point header")
    }

    /// Read a parsed JSONL line: `Ok(None)` when it has no `experiment`
    /// key, else the header, every field required. Errors name the
    /// 1-based `line`.
    pub fn decode(fields: &[(String, Value)], line: usize) -> Result<Option<PointHeader>, String> {
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let uint = |key: &str| {
            match get(key) {
                Some(Value::UInt(u)) => Some(*u),
                Some(Value::Int(i)) => u64::try_from(*i).ok(),
                _ => None,
            }
            .ok_or_else(|| format!("line {line}: header missing `{key}`"))
        };
        let experiment = match get("experiment") {
            None => return Ok(None),
            Some(Value::Str(s)) => s.clone(),
            Some(_) => return Err(format!("line {line}: header `experiment` not a string")),
        };
        Ok(Some(PointHeader {
            experiment,
            point: uint("point")?,
            label: match get("label") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("line {line}: header missing `label`")),
            },
            seed: uint("seed")?,
        }))
    }
}

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
    /// Resume provenance `(epoch, state hash)`, recorded in the manifest as
    /// `resumed_from` so points from resumed runs are distinguishable from
    /// straight-through runs. Not a CLI flag — `powifi-office` sets it after
    /// picking up a chain.
    pub resumed_from: Option<(u64, String)>,
}

const USAGE: &str = "usage: [--seed N] [--full] [--json DIR] [--jobs N] [--filter SUBSTR] \
     [--check] [--trace FILE] [--metrics] [--prof FILE]";

/// The sweep's valued flags, each with the noun its errors use.
pub const VALUED: &[(&str, &str)] = &[
    ("--seed", "an integer"),
    ("--json", "a dir"),
    ("--jobs", "a positive integer"),
    ("--filter", "a substring"),
    ("--trace", "a file"),
    ("--prof", "a file"),
];

/// The sweep's switches.
pub const SWITCHES: &[&str] = &["--full", "--check", "--metrics"];

impl Default for BenchArgs {
    /// The settings of a command line without flags.
    fn default() -> Self {
        Self::from_args(&cli::Args::default()).expect("no flags, no refusal")
    }
}

impl BenchArgs {
    /// Parse the shared CLI from the process's arguments by
    /// [`cli::exit`]'s rule: `--help` exits 0, malformed input exits 2.
    pub fn parse() -> BenchArgs {
        cli::parse(USAGE, |argv| {
            Ok(Self::from_args(&cli::Args::read(argv, VALUED, SWITCHES)?)?)
        })
    }

    /// Parse from an explicit argument list (testable core of [`parse`]).
    /// `--help` is an `Err` here: only a binary's entry point exits.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        Self::from_args(&cli::Args::read(args, VALUED, SWITCHES)?)
    }

    /// The sweep settings of a command line read with [`VALUED`] and
    /// [`SWITCHES`] among its flags.
    pub fn from_args(a: &cli::Args) -> Result<BenchArgs, String> {
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(BenchArgs {
            seed: a.get("--seed")?.unwrap_or(42),
            full: a.has("--full"),
            json_dir: a.get("--json")?,
            jobs: a.count("--jobs")?.map_or_else(cores, |n| n as usize),
            filter: a.get("--filter")?,
            check: a.has("--check"),
            trace: a.get("--trace")?,
            metrics: a.has("--metrics"),
            prof: a.get("--prof")?,
            resumed_from: None,
        })
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

/// The seed a sweep at `seed` runs the point at `index` of experiment
/// `name`'s grid with. It comes from the *unfiltered* grid position and
/// the label, so `--filter` re-runs a subset with identical seeds.
pub fn point_seed(seed: u64, name: &str, label: &str, index: usize) -> u64 {
    SimRng::from_seed(seed).derive_seed(&format!("{name}/{label}#{index}"))
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
        let grid = exp.points(self.args.full);
        let grid_len = grid.len();
        let items: Vec<Item<E::Point>> = grid
            .into_iter()
            .enumerate()
            .map(|(index, point)| {
                let label = exp.label(&point);
                let seed = point_seed(self.args.seed, exp.name(), &label, index);
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
        let runs = self.execute(exp, items);
        self.write_points(self.args.trace.as_deref(), exp, &runs, |r| {
            r.trace_jsonl.as_deref()
        });
        self.write_points(self.args.prof.as_deref(), exp, &runs, |r| {
            r.prof_json.as_deref()
        });
        self.write_artifacts(exp, grid_len, &runs, started.elapsed().as_secs_f64() * 1e3);
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
                .map(|it| run_point(exp, it, opts))
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

    /// Write one `--trace` or `--prof` file: each point in grid order, as
    /// its [`PointHeader`] line followed by the lines of `body` (the point's
    /// trace records, or its one span-tree snapshot). Fully deterministic:
    /// each body is captured per point on a worker thread and concatenated
    /// in submission order here.
    fn write_points<E: Experiment>(
        &self,
        path: Option<&Path>,
        exp: &E,
        runs: &[PointRun<E::Point, E::Output>],
        body: impl Fn(&PointRun<E::Point, E::Output>) -> Option<&str>,
    ) {
        let Some(path) = path else {
            return;
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create artifact dir");
            }
        }
        let mut out = String::new();
        for r in runs {
            let header = PointHeader {
                experiment: exp.name().into(),
                point: r.index as u64,
                label: r.label.clone(),
                seed: r.seed,
            };
            out.push_str(&header.to_line());
            out.push('\n');
            for line in body(r).unwrap_or("").lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
        fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }

    fn write_artifacts<E: Experiment>(
        &self,
        exp: &E,
        grid_len: usize,
        runs: &[PointRun<E::Point, E::Output>],
        total_wall_ms: f64,
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
) -> PointRun<E::Point, E::Output> {
    metrics::reset();
    // Each observability channel is thread-local and collected by its own
    // capture around the run. `--prof` stays sim-time only (`prof::capture`
    // keeps wall timing off): wall timing would make the artifact vary run
    // to run and break --jobs byte-identity.
    let timed = || {
        let started = Instant::now();
        let output = exp.run(&item.point, item.seed);
        (output, started.elapsed().as_secs_f64() * 1e3)
    };
    let traced = || {
        if opts.trace {
            let (run, jsonl) = trace::capture_jsonl(timed);
            (run, Some(jsonl))
        } else {
            (timed(), None)
        }
    };
    let profiled = || {
        if opts.prof {
            let (run, snap) = prof::capture(traced);
            (run, Some(snap.to_json()))
        } else {
            (traced(), None)
        }
    };
    let ((((output, wall_ms), trace_jsonl), prof_json), violations) = if opts.check {
        let (run, (count, retained)) = conformance::capture(profiled);
        for v in &retained {
            eprintln!("conformance[{}]: {v}", item.label);
        }
        (run, count)
    } else {
        (profiled(), 0)
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
            // The sweep streams nowhere: `powifi-fleetd` serves streams.
            &["--stream", "127.0.0.1:9"][..],
        ] {
            let r = BenchArgs::parse_from(bad.iter().map(|s| s.to_string()));
            assert!(r.is_err(), "{bad:?} should be rejected");
        }
    }
}
