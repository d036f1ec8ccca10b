//! Fixture-driven conformance tests for powifi-lint: one positive and one
//! negative fixture per rule, suppression handling, baseline handling, and
//! output stability across runs.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use powifi_lint::rules::Rule;
use powifi_lint::{parse_baseline, render_baseline, run, scan_source};

/// Lex/scan a fixture as if it lived in a simulation crate's src tree.
fn scan_fixture(src: &str) -> Vec<powifi_lint::Finding> {
    scan_source("crates/mac/src/fixture.rs", src)
}

fn rules_fired(src: &str) -> Vec<Rule> {
    let mut rs: Vec<Rule> = scan_fixture(src).into_iter().map(|f| f.rule).collect();
    rs.dedup();
    rs
}

#[test]
fn r1_positive_and_negative() {
    let pos = include_str!("../fixtures/r1_positive.rs");
    let f = scan_fixture(pos);
    assert!(f.iter().all(|f| f.rule == Rule::HashIteration), "{f:?}");
    // `use {HashMap, HashSet}` + two field types = 4 sites.
    assert_eq!(f.len(), 4, "{f:?}");
    assert!(rules_fired(include_str!("../fixtures/r1_negative.rs")).is_empty());
}

#[test]
fn r2_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r2_positive.rs"));
    // SystemTime ×2, thread_rng ×1 fire R2; Instant ×2 (use + call) now
    // fires R7 — same five sites, split across the two rules.
    assert_eq!(
        f.iter()
            .filter(|f| f.rule == Rule::AmbientNondeterminism)
            .count(),
        3,
        "{f:?}"
    );
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::WallClockScope).count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r2_negative.rs")).is_empty());
}

#[test]
fn r2_is_exempt_in_bench() {
    let pos = include_str!("../fixtures/r2_positive.rs");
    let f = scan_source("crates/bench/src/progress.rs", pos);
    assert!(f.is_empty(), "bench may use wall clocks: {f:?}");
}

#[test]
fn r3_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r3_positive.rs"));
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::Unwrap).count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r3_negative.rs")).is_empty());
}

#[test]
fn r3_is_exempt_in_bins() {
    let pos = include_str!("../fixtures/r3_positive.rs");
    let f = scan_source("crates/mac/src/bin/tool.rs", pos);
    assert!(f.is_empty(), "bins may expect on startup: {f:?}");
}

#[test]
fn r4_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r4_positive.rs"));
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::FloatEq).count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r4_negative.rs")).is_empty());
}

#[test]
fn r5_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r5_positive.rs"));
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::BareCast).count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r5_negative.rs")).is_empty());
}

#[test]
fn r6_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r6_positive.rs"));
    assert!(f.iter().all(|f| f.rule == Rule::SinkConstruction), "{f:?}");
    // `use {JsonlSink, RingSink}` + RingSink::unbounded + trace::install +
    // JsonlSink::create + NullSink = 6 sites.
    assert_eq!(f.len(), 6, "{f:?}");
    assert!(rules_fired(include_str!("../fixtures/r6_negative.rs")).is_empty());
}

#[test]
fn r6_is_exempt_in_sim_and_bench() {
    let pos = include_str!("../fixtures/r6_positive.rs");
    assert!(
        scan_source("crates/sim/src/obs/trace.rs", pos).is_empty(),
        "obs owns the sinks"
    );
    assert!(
        scan_source("crates/bench/src/runner.rs", pos).is_empty(),
        "the runner wires sinks"
    );
}

#[test]
fn r7_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r7_positive.rs"));
    assert!(f.iter().all(|f| f.rule == Rule::WallClockScope), "{f:?}");
    // `use std::time::Instant` + `Instant::now()` = 2 sites.
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(rules_fired(include_str!("../fixtures/r7_negative.rs")).is_empty());
}

#[test]
fn r7_is_exempt_in_bench_and_the_profiler() {
    let pos = include_str!("../fixtures/r7_positive.rs");
    assert!(
        scan_source("crates/bench/src/progress.rs", pos).is_empty(),
        "bench may read wall clocks"
    );
    assert!(
        scan_source("crates/sim/src/obs/prof.rs", pos).is_empty(),
        "the profiler implementation owns Instant"
    );
    assert!(
        !scan_source("crates/sim/src/obs/metrics.rs", pos).is_empty(),
        "the carve-out is one file, not the whole obs tree"
    );
}

#[test]
fn r8_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r8_positive.rs"));
    assert!(f.iter().all(|f| f.rule == Rule::HotPathAlloc), "{f:?}");
    // The `Box<dyn FnMut…>` alias and the `Box<dyn FnOnce…>` field.
    assert_eq!(f.len(), 2, "{f:?}");
    assert!(rules_fired(include_str!("../fixtures/r8_negative.rs")).is_empty());
}

#[test]
fn r8_is_exempt_in_deploy() {
    let pos = include_str!("../fixtures/r8_positive.rs");
    assert!(
        scan_source("crates/deploy/src/home.rs", pos).is_empty(),
        "deploy wiring runs once per experiment, not per event"
    );
    assert!(
        !scan_source("crates/sim/src/conformance.rs", pos).is_empty(),
        "sim is a hot crate"
    );
}

#[test]
fn r9_positive_and_negative() {
    // R9 is scoped to the sharded city runtime.
    let pos = include_str!("../fixtures/r9_positive.rs");
    let f = scan_source("crates/deploy/src/city/runtime.rs", pos);
    // Two rogue static decls, the static refs + .lock() in the worker, and
    // the captured RefCell local.
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::ShardIsolation).count(),
        6,
        "{f:?}"
    );
    let neg = include_str!("../fixtures/r9_negative.rs");
    let f = scan_source("crates/deploy/src/city/runtime.rs", neg);
    assert!(f.is_empty(), "{f:?}");
    // Outside the city tree the same code is not R9's business.
    let f = scan_source("crates/deploy/src/home.rs", pos);
    assert!(f.iter().all(|f| f.rule != Rule::ShardIsolation), "{f:?}");
}

#[test]
fn r9_suppression_works_in_the_city_tree() {
    let src = "pub fn run(jobs: usize) {\n\
               std::thread::scope(|s| {\n\
                 s.spawn(|| {\n\
                   // powifi-lint: allow(shard-isolation) — fixture: local cell\n\
                   acc.borrow_mut();\n\
                 });\n\
               });\n\
             }\n";
    let f = scan_source("crates/deploy/src/city/runtime.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r10_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r10_positive.rs"));
    // Literal SimRng seed, StdRng::seed_from_u64, SmallRng::from_seed,
    // rng.clone(), rng.reseed, and seed_medium_rng outside a builder.
    assert_eq!(
        f.iter()
            .filter(|f| f.rule == Rule::RngStreamDiscipline)
            .count(),
        6,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r10_negative.rs")).is_empty());
}

#[test]
fn r10_is_exempt_in_the_rng_impl() {
    let pos = include_str!("../fixtures/r10_positive.rs");
    let f = scan_source("crates/sim/src/rng.rs", pos);
    assert!(
        f.iter().all(|f| f.rule != Rule::RngStreamDiscipline),
        "rng.rs builds the generators: {f:?}"
    );
}

#[test]
fn r11_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r11_positive.rs"));
    // One plain `_` arm and one guarded `_ if …` arm.
    assert_eq!(
        f.iter()
            .filter(|f| f.rule == Rule::NonExhaustiveDispatch)
            .count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r11_negative.rs")).is_empty());
}

#[test]
fn r12_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r12_positive.rs"));
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::UnsafeInSim).count(),
        2,
        "{f:?}"
    );
    assert!(rules_fired(include_str!("../fixtures/r12_negative.rs")).is_empty());
    // Non-sim crates (the linter itself, bench) are out of scope.
    let pos = include_str!("../fixtures/r12_positive.rs");
    assert!(scan_source("crates/bench/src/runner.rs", pos).is_empty());
}

#[test]
fn r13_positive_and_negative() {
    let f = scan_fixture(include_str!("../fixtures/r13_positive.rs"));
    assert!(
        f.iter().all(|f| f.rule == Rule::SocketOutsideStream),
        "{f:?}"
    );
    // `use … TcpStream as Wire` + `use {TcpListener, UdpSocket}` (two) +
    // the alias-resolved `Wire` field type and `Wire::connect` + the
    // `TcpListener`/`UdpSocket` return types and `::bind` calls = 9 sites.
    assert_eq!(f.len(), 9, "{f:?}");
    assert!(rules_fired(include_str!("../fixtures/r13_negative.rs")).is_empty());
}

#[test]
fn r13_is_exempt_in_the_stream_impl_and_bench() {
    let pos = include_str!("../fixtures/r13_positive.rs");
    assert!(
        scan_source("crates/sim/src/obs/stream.rs", pos).is_empty(),
        "the wire layer owns the sockets"
    );
    assert!(
        scan_source("crates/bench/src/fleet.rs", pos).is_empty(),
        "bench is the harness boundary, not a simulation crate"
    );
    assert!(
        !scan_source("crates/sim/src/obs/agg.rs", pos).is_empty(),
        "the carve-out is one file, not the whole obs tree"
    );
}

#[test]
fn r14_positive_and_negative() {
    // R14 is scoped to checkpoint files; scan at the real bench path where
    // the R2/R7 bench exemptions would otherwise leave wall clocks unseen.
    let pos = include_str!("../fixtures/r14_positive.rs");
    let f = scan_source("crates/bench/src/ckpt_run.rs", pos);
    assert!(f.iter().all(|f| f.rule == Rule::WallClockInCkpt), "{f:?}");
    // `use {SystemTime, UNIX_EPOCH}` + SystemTime::now + UNIX_EPOCH +
    // Instant::now = 5 sites.
    assert_eq!(f.len(), 5, "{f:?}");
    let neg = include_str!("../fixtures/r14_negative.rs");
    assert!(scan_source("crates/bench/src/ckpt_run.rs", neg).is_empty());
}

#[test]
fn r14_covers_ckpt_files_in_every_crate_and_nothing_else() {
    let pos = include_str!("../fixtures/r14_positive.rs");
    // Sim-crate checkpoint modules get R14 on top of R2/R7.
    let f = scan_source("crates/deploy/src/ckpt.rs", pos);
    assert_eq!(
        f.iter().filter(|f| f.rule == Rule::WallClockInCkpt).count(),
        5,
        "{f:?}"
    );
    // Outside checkpoint files the rule is silent — bench harness timing
    // (progress bars, run duration) is legitimate wall-clock use.
    let f = scan_source("crates/bench/src/progress.rs", pos);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r14_suppression_works_in_ckpt_files() {
    let src = "pub fn manifest_stamp() -> u64 {\n\
               // powifi-lint: allow(wall-clock-in-ckpt) — manifest provenance, not hashed state\n\
               std::time::SystemTime::now().elapsed().map(|d| d.as_secs()).unwrap_or(0)\n\
             }\n";
    let f = scan_source("crates/bench/src/ckpt_run.rs", src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn suppressions_silence_every_fixture_violation() {
    let f = scan_fixture(include_str!("../fixtures/suppressed.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn test_trees_are_fully_exempt() {
    let pos = include_str!("../fixtures/r1_positive.rs");
    assert!(scan_source("crates/mac/tests/golden.rs", pos).is_empty());
    assert!(scan_source("crates/mac/benches/speed.rs", pos).is_empty());
}

/// Build a throwaway mini-workspace under the target tmpdir so `run()` can
/// be exercised end-to-end (walker → rules → baseline partitioning).
struct MiniRepo {
    root: PathBuf,
}

impl MiniRepo {
    fn new(tag: &str) -> MiniRepo {
        let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mini-{tag}"));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/mac/src")).unwrap();
        fs::create_dir_all(root.join("crates/bench/src")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        MiniRepo { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let p = self.root.join(rel);
        fs::create_dir_all(p.parent().unwrap()).unwrap();
        fs::write(p, content).unwrap();
    }
}

impl Drop for MiniRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn two_runs_produce_identical_findings_in_identical_order() {
    let repo = MiniRepo::new("stable");
    repo.write(
        "crates/mac/src/a.rs",
        include_str!("../fixtures/r1_positive.rs"),
    );
    repo.write(
        "crates/mac/src/b.rs",
        include_str!("../fixtures/r3_positive.rs"),
    );
    repo.write(
        "crates/mac/src/c.rs",
        include_str!("../fixtures/r5_positive.rs"),
    );
    let empty = BTreeMap::new();
    let r1 = run(&repo.root, &empty).unwrap();
    let r2 = run(&repo.root, &empty).unwrap();
    let render = |r: &powifi_lint::Report| {
        r.new
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!r1.new.is_empty());
    assert_eq!(render(&r1), render(&r2));
    // Sorted by path, then position.
    let paths: Vec<&str> = r1.new.iter().map(|f| f.path.as_str()).collect();
    let mut sorted = paths.clone();
    sorted.sort();
    assert_eq!(paths, sorted);
}

#[test]
fn baseline_absorbs_old_findings_and_flags_new_ones() {
    let repo = MiniRepo::new("baseline");
    repo.write(
        "crates/mac/src/a.rs",
        include_str!("../fixtures/r3_positive.rs"),
    );
    let empty = BTreeMap::new();
    let before = run(&repo.root, &empty).unwrap();
    assert_eq!(before.new.len(), 2);

    // Grandfather everything, then re-run: nothing new, nothing stale.
    let baseline = parse_baseline(&render_baseline(&before.new));
    let after = run(&repo.root, &baseline).unwrap();
    assert!(after.new.is_empty(), "{:?}", after.new);
    assert_eq!(after.baselined.len(), 2);
    assert!(after.stale_baseline.is_empty());

    // A fresh violation in another file is still reported as new.
    repo.write(
        "crates/mac/src/b.rs",
        include_str!("../fixtures/r1_positive.rs"),
    );
    let grown = run(&repo.root, &baseline).unwrap();
    assert_eq!(grown.baselined.len(), 2);
    assert!(grown.new.iter().all(|f| f.rule == Rule::HashIteration));
    assert!(!grown.new.is_empty());

    // Fixing a grandfathered finding leaves a stale entry to prune.
    repo.write("crates/mac/src/a.rs", "pub fn ok() {}\n");
    let shrunk = run(&repo.root, &baseline).unwrap();
    assert_eq!(shrunk.stale_baseline.len(), 2);
}

#[test]
fn bench_crate_wall_clock_is_not_reported_by_run() {
    let repo = MiniRepo::new("bench");
    repo.write(
        "crates/bench/src/timing.rs",
        include_str!("../fixtures/r2_positive.rs"),
    );
    repo.write(
        "crates/mac/src/timing.rs",
        include_str!("../fixtures/r2_positive.rs"),
    );
    let empty = BTreeMap::new();
    let r = run(&repo.root, &empty).unwrap();
    assert!(
        r.new.iter().all(|f| f.path.starts_with("crates/mac/")),
        "{:?}",
        r.new
    );
    assert_eq!(r.new.len(), 5);
}
