use powifi_benchmark::compare::{compare, Verdict};
use powifi_benchmark::declaration::{declared, Metric};
use powifi_benchmark::report::{Envelope, MetricSamples, Provenance, Results, WorkloadResult};

fn provenance(cpu: &str) -> Provenance {
    Provenance {
        cpu_model: cpu.into(),
        logical_cores: 2,
        rustc: "rustc 1.0.0".into(),
        profile: "release".into(),
        git_sha: "abc".into(),
        git_dirty: false,
        seed: 42,
        reps: 10,
        seconds: 25,
        utc_date: "2026-01-01".into(),
    }
}

fn results(cpu: &str, wall: &[f64], rate: &[f64], failed: u64) -> Results {
    let metric = |name: &str, unit: &str, samples: &[f64]| MetricSamples {
        name: name.into(),
        unit: unit.into(),
        samples: samples.to_vec(),
    };
    Results {
        provenance: provenance(cpu),
        workloads: vec![WorkloadResult {
            name: "home_day".into(),
            attempted: 3,
            failed,
            metrics: vec![
                metric("wall_s", "s", wall),
                metric("sim_events_per_s", "events/s", rate),
            ],
        }],
    }
}

fn metrics() -> Vec<Metric> {
    vec![
        Metric {
            name: "wall_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(0.1),
        },
        Metric {
            name: "sim_events_per_s".into(),
            unit: "events/s".into(),
            higher_is_better: true,
            bound: Some(0.1),
        },
    ]
}

fn verdicts(a: &Results, b: &Results) -> Vec<Verdict> {
    compare(a, b, &metrics())
        .rows
        .iter()
        .map(|r| r.verdict)
        .collect()
}

const WALL: [f64; 3] = [5.0, 5.05, 4.95];
const RATE: [f64; 3] = [7.0e6, 7.1e6, 6.9e6];

#[test]
fn identical_results_are_unchanged() {
    let a = results("cpu", &WALL, &RATE, 0);
    let c = compare(&a, &a, &metrics());
    assert_eq!(verdicts(&a, &a), [Verdict::Unchanged; 2]);
    assert!(!c.regressed());
}

#[test]
fn a_two_times_slowdown_is_worse() {
    let a = results("cpu", &WALL, &RATE, 0);
    let b = results("cpu", &WALL.map(|w| 2.0 * w), &RATE.map(|r| r / 2.0), 0);
    let c = compare(&a, &b, &metrics());
    assert_eq!(verdicts(&a, &b), [Verdict::Worse; 2]);
    assert!(c.regressed());
    assert!((c.rows[0].worse_by - 1.0).abs() < 1e-12);
    // And the reverse direction is better.
    assert_eq!(verdicts(&b, &a), [Verdict::Better; 2]);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let a = results("cpu", &[4.0, 5.0, 6.0], &RATE, 0);
    let b = results("cpu", &[4.2, 5.2, 6.2], &RATE, 0);
    assert_eq!(verdicts(&a, &b)[0], Verdict::Unresolved);
    // Unless every run of B beats every run of A.
    let fast = results("cpu", &[3.0, 3.5, 3.9], &RATE, 0);
    assert_eq!(verdicts(&a, &fast)[0], Verdict::Better);
}

#[test]
fn a_failed_frac_rise_is_a_regression() {
    let a = results("cpu", &WALL, &RATE, 0);
    let b = results("cpu", &WALL, &RATE, 1);
    let c = compare(&a, &b, &metrics());
    assert_eq!(verdicts(&a, &b), [Verdict::Unchanged; 2]);
    assert_eq!(c.failed_rises.len(), 1);
    assert!(c.regressed());
}

#[test]
fn different_machines_make_every_row_unresolved() {
    let a = results("cpu A", &WALL, &RATE, 0);
    let b = results("cpu B", &WALL.map(|w| 2.0 * w), &RATE, 0);
    let c = compare(&a, &b, &metrics());
    assert!(!c.same_machine);
    assert_eq!(verdicts(&a, &b), [Verdict::Unresolved; 2]);
    assert!(!c.regressed());
}

#[test]
fn different_seeds_make_every_row_unresolved() {
    let a = results("cpu", &WALL, &RATE, 0);
    let mut b = results("cpu", &WALL.map(|w| 2.0 * w), &RATE, 0);
    b.provenance.seed = 7;
    let c = compare(&a, &b, &metrics());
    assert!(c.same_machine && !c.same_settings);
    assert_eq!(verdicts(&a, &b), [Verdict::Unresolved; 2]);
    assert!(!c.regressed());
}

#[test]
fn results_files_round_trip() {
    let mut w = WorkloadResult::new("office_ckpt");
    for wall in [3.9, 4.0] {
        w.add(&Envelope {
            correct: true,
            attempted: 39,
            failed: 0,
            metrics: vec![("wall_s".into(), wall, "s".into())],
        });
    }
    let r = Results {
        provenance: provenance("cpu"),
        workloads: vec![w],
    };
    let text = r.to_json();
    assert!(text.contains("\"median\""), "summaries are written: {text}");
    assert_eq!(Results::parse(&text).unwrap(), r);
}

#[test]
fn envelopes_round_trip_through_one_line() {
    let e = Envelope {
        correct: true,
        attempted: 4812,
        failed: 0,
        metrics: vec![
            ("wall_s".into(), 5.123456789012345, "s".into()),
            ("peak_rss_mb".into(), 9.96875, "MiB".into()),
        ],
    };
    let line = e.to_line();
    assert!(!line.contains('\n'));
    assert!(line.starts_with("{\"correct\":true,\"attempted\":4812,\"failed\":0,\"metrics\":{"));
    assert_eq!(Envelope::parse(&line).unwrap(), e);
}

#[test]
fn the_declared_bounds_are_what_compare_uses() {
    let d = declared();
    let names: Vec<_> = d.end_to_end.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        ["wall_s", "setup_s", "sim_events_per_s", "peak_rss_mb"]
    );
    assert!(d
        .end_to_end
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    // Set-up time, the noisiest metric, has the largest bound.
    let bounds: Vec<f64> = d.end_to_end.iter().filter_map(|m| m.bound).collect();
    assert_eq!(d.end_to_end[1].bound, bounds.iter().copied().reduce(f64::max));
    assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
}
