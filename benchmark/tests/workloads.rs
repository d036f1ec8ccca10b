//! Every workload, called as a library function at a tiny size, must give
//! the same digest twice; the split `home_day` path must match `run_home`.

use powifi_benchmark::declaration::declared;
use powifi_benchmark::measure::pinned_digest;
use powifi_benchmark::spans::Spans;
use powifi_benchmark::workloads::{city, ckpt, fleet, home, Unit, Workload};
use powifi_deploy::HomeConfig;

/// A home with one device and no neighbours: the smallest day
/// `build_home` accepts.
fn tiny_home() -> home::HomeSize {
    home::HomeSize {
        home: HomeConfig {
            id: 2,
            users: 1,
            devices: 1,
            neighbor_aps: 0,
            start_hour: 16.0,
        },
        sim_seconds_per_day: 1440,
    }
}

fn twice(unit: impl Fn(&mut Spans) -> Unit) -> Unit {
    let a = unit(&mut Spans::new());
    let b = unit(&mut Spans::new());
    assert!(a.problems.is_empty(), "{:?}", a.problems);
    assert_eq!(a.failed, 0);
    assert_eq!(a.digest, b.digest, "digest must repeat");
    assert_eq!(a.events, b.events);
    assert!(a.events > 0 && a.attempted > 0);
    a
}

#[test]
fn split_home_day_matches_run_home() {
    let size = tiny_home();
    let (split, _, _) = home::day(&size, 7, &mut Spans::new());
    let reference = home::reference_day(&size, 7);
    assert_eq!(split.digest(), reference.digest());
    assert_eq!(split.counters, reference.counters);
}

#[test]
fn home_day_repeats() {
    let size = tiny_home();
    twice(|s| home::unit(&size, 3, s));
}

#[test]
fn city_repeats_and_ignores_jobs() {
    let size = city::CitySize {
        networks: 400,
        jobs: 2,
    };
    let a = twice(|s| city::unit(&size, 3, s));
    let one = city::unit(&city::CitySize { jobs: 1, ..size }, 3, &mut Spans::new());
    assert_eq!(a.digest, one.digest);
}

#[test]
fn office_fleet_repeats() {
    let size = fleet::FleetSize {
        deployments: 2,
        sim_secs: 3,
        jobs: 2,
    };
    let u = twice(|s| fleet::unit(&size, 3, s));
    // Stream records on top of the two deployments.
    assert!(u.attempted > 2);
}

#[test]
fn office_ckpt_repeats_and_matches_a_straight_run() {
    let size = ckpt::CkptSize {
        offices: 2,
        sim_secs: 3,
        epoch_ms: 500,
        first_trip_ms: 1_000,
        last_trip_ms: 2_000,
    };
    let u = twice(|s| ckpt::unit(&size, 3, s));
    assert_eq!(u.attempted, 6, "boundaries at 1, 1.5 and 2 s, twice");
}

#[test]
fn every_declared_workload_exists_and_is_pinned() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared().workloads, names);
    for w in Workload::ALL {
        let d = pinned_digest(w.name()).unwrap_or_default();
        assert_eq!(d.len(), 32, "{}: run `bless`", w.name());
    }
}
