use powifi_benchmark::spans::Spans;
use powifi_benchmark::stats::{median, quartiles, spread, tail_percentile, Summary};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from Python's `statistics.quantiles(xs, n=4)`.
    let cases: [(&[f64], (f64, f64)); 5] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 8.25)),
        (&[1., 2.], (0.75, 2.25)),
        (&[3., 1., 2.], (1.0, 3.0)),
        (&[5., 1., 4., 2., 3.], (1.5, 4.5)),
        (&[7.], (7.0, 7.0)),
    ];
    for (xs, want) in cases {
        assert_eq!(quartiles(xs), Some(want), "{xs:?}");
    }
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn median_and_spread() {
    assert_eq!(median(&[3., 1., 2.]), Some(2.0));
    assert_eq!(median(&[4., 1., 3., 2.]), Some(2.5));
    assert_eq!(median(&[]), None);
    // (8.25 - 2.75) / 5.5
    assert_eq!(
        spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]),
        Some(1.0)
    );
    assert_eq!(spread(&[0., 0., 0.]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
    assert_eq!(tail_percentile(&xs[..99], 0.9), None, "only 9 beyond p90");
    assert_eq!(tail_percentile(&xs, 0.99), None);
    let ys: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_percentile(&ys, 0.99), Some(990.0));
    // 119 round trips leave 11 samples beyond p90.
    let zs: Vec<f64> = (1..=119).map(f64::from).collect();
    assert_eq!(tail_percentile(&zs, 0.9), Some(108.0));
}

#[test]
fn summary_reports_every_statistic() {
    let s = Summary::of(&[5., 1., 4., 2., 3.]).unwrap();
    assert_eq!(
        (s.n, s.median, s.p25, s.p75, s.min, s.max),
        (5, 3.0, 1.5, 4.5, 1.0, 5.0)
    );
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn span_breakdown_sums_to_the_root() {
    let mut spans = Spans::new();
    let root = spans.enter("root");
    for _ in 0..3 {
        spans.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
    }
    let b = spans.enter("b");
    spans.time("nested", || {
        std::thread::sleep(std::time::Duration::from_millis(1))
    });
    spans.exit(b);
    spans.exit(root);
    let bd = spans.breakdown("root").unwrap();
    let names: Vec<_> = bd.layers.iter().map(|l| (l.0, l.1)).collect();
    assert_eq!(names, [("a", 3), ("b", 1)], "direct children only");
    let covered: f64 = bd.layers.iter().map(|l| l.2).sum();
    assert!((covered + bd.unattributed_ms - bd.wall_ms).abs() < 1e-9);
    assert!(bd.unattributed_ms >= 0.0);
    assert_eq!(spans.samples_ms("a").len(), 3);
    assert!(spans.total_ms("nested") >= 1.0);
    assert!(spans.render().contains("unattributed"));
}
