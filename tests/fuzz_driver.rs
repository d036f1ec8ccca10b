//! The deterministic fuzz driver's acceptance tests: 200 random topologies
//! run clean under the invariant checker, and with the deliberate MAC
//! timing bug injected the driver finds, shrinks and replays a failure.

use powifi::fuzz;

#[test]
fn two_hundred_topologies_run_clean() {
    let report = fuzz::run(&fuzz::FuzzConfig {
        topologies: 200,
        base_seed: 42,
        inject_bug: false,
        shrink: true,
    });
    assert_eq!(report.ran, 200);
    assert!(
        report.failures.is_empty(),
        "conformance violations in clean topologies:\n{}",
        report.render()
    );
}

#[test]
fn campaign_is_deterministic() {
    let cfg = fuzz::FuzzConfig {
        topologies: 25,
        base_seed: 7,
        inject_bug: true,
        shrink: false,
    };
    let a = fuzz::run(&cfg);
    let b = fuzz::run(&cfg);
    assert_eq!(a.ran, b.ran);
    let seeds = |r: &fuzz::FuzzReport| -> Vec<(u64, u64)> {
        r.failures.iter().map(|f| (f.seed, f.violations)).collect()
    };
    assert_eq!(seeds(&a), seeds(&b));
}

#[test]
fn injected_bug_yields_reproducing_seed() {
    let report = fuzz::run(&fuzz::FuzzConfig {
        topologies: 50,
        base_seed: 42,
        inject_bug: true,
        shrink: true,
    });
    assert!(
        !report.failures.is_empty(),
        "timing bug went undetected over {} topologies",
        report.ran
    );
    let f = &report.failures[0];

    // The reported seed reproduces the failure from scratch.
    let replayed = fuzz::replay(f.seed, true);
    assert!(replayed.violations > 0, "seed {} did not reproduce", f.seed);

    // The violation is attributed to the MAC timing rules.
    assert!(
        f.samples.iter().any(|v| v.rule.starts_with("dcf/")),
        "expected a dcf/* violation, got {:?}",
        f.samples
    );

    // The shrunk case is no bigger than the original and still fails.
    assert!(f.shrunk.stations.len() <= f.spec.stations.len());
    assert!(f.shrunk.horizon <= f.spec.horizon);
    assert!(
        fuzz::run_spec(&f.shrunk, true).violations > 0,
        "shrunk spec no longer fails"
    );

    // Without the bug the same topology is clean — the failure is the
    // injected bug, not the topology.
    assert_eq!(
        fuzz::replay(f.seed, false).violations,
        0,
        "seed {} fails even without the injected bug",
        f.seed
    );
}

#[test]
fn gen_spec_is_pure() {
    let a = fuzz::gen_spec(99);
    let b = fuzz::gen_spec(99);
    assert_eq!(a.mediums, b.mediums);
    assert_eq!(a.stations.len(), b.stations.len());
    assert_eq!(a.horizon, b.horizon);
    assert_eq!(format!("{:?}", a), format!("{:?}", b));
}

#[test]
fn city_worlds_run_clean_and_equivalent() {
    let report = fuzz::run_city_campaign(&fuzz::FuzzConfig {
        topologies: 12,
        base_seed: 42,
        inject_bug: false,
        shrink: false,
    });
    assert_eq!(report.ran, 12);
    assert!(
        report.failures.is_empty(),
        "city fuzz failures:\n{}",
        report.render()
    );
}

#[test]
fn city_campaign_is_deterministic() {
    let cfg = fuzz::FuzzConfig {
        topologies: 6,
        base_seed: 9,
        inject_bug: false,
        shrink: false,
    };
    let a = fuzz::run_city_campaign(&cfg);
    let b = fuzz::run_city_campaign(&cfg);
    assert_eq!(a.ran, b.ran);
    assert_eq!(a.failures.len(), b.failures.len());
}

#[test]
fn gen_city_spec_is_pure() {
    let a = fuzz::gen_city_spec(123);
    let b = fuzz::gen_city_spec(123);
    assert_eq!(format!("{:?}", a), format!("{:?}", b));
    assert!(a.networks >= 8);
    assert!(a.max_shard >= a.max_group);
}

#[test]
fn run_spec_restores_caller_checker_state() {
    use powifi::sim::conformance;
    // Checker off outside: a fuzz case must not leave it on.
    assert!(!conformance::enabled());
    let spec = fuzz::gen_spec(5);
    fuzz::run_spec(&spec, false);
    assert!(!conformance::enabled());

    // Checker on outside, with a pending violation: both must survive.
    let _g = conformance::check();
    conformance::report(
        "test/pending",
        powifi::sim::SimTime::ZERO,
        "sentinel".into(),
    );
    fuzz::run_spec(&spec, false);
    assert!(conformance::enabled());
    let (count, retained) = conformance::take();
    assert_eq!(count, 1);
    assert_eq!(retained[0].rule, "test/pending");
}

/// A checked sub-run leaves a caller holding more violations than the sink
/// retains exactly as it found it: count and retained list alike.
#[test]
fn checked_sub_runs_keep_a_callers_full_count() {
    use powifi::sim::{conformance, SimTime};
    let _g = conformance::check();
    for i in 0..70 {
        conformance::report("test/caller", SimTime::ZERO, format!("v{i}"));
    }
    let retained = conformance::violations();
    assert_eq!(retained.len(), 64);

    powifi::golden::render("solo_broadcast");
    assert_eq!(conformance::violation_count(), 70, "after golden::render");
    assert_eq!(conformance::violations(), retained);

    fuzz::run_spec(&fuzz::gen_spec(3), false);
    assert_eq!(conformance::violation_count(), 70, "after fuzz::run_spec");
    assert_eq!(conformance::violations(), retained);
    conformance::reset();
}
