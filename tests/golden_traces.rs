//! Golden-trace corpus tests: each canonical scenario must render
//! byte-for-byte identically to its committed snapshot under
//! `tests/golden/`. Regenerate intentionally-changed snapshots with
//! `UPDATE_GOLDEN=1 cargo test --test golden_traces`.

use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// First differing line with ±3 lines of context from each side, so drift
/// reads as a structural diff instead of a wall of JSON.
fn first_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let n = e.len().max(a.len());
    for i in 0..n {
        let el = e.get(i).copied();
        let al = a.get(i).copied();
        if el != al {
            let lo = i.saturating_sub(3);
            let mut out = format!("first difference at line {}:\n", i + 1);
            for j in lo..(i + 4).min(n) {
                match (e.get(j), a.get(j)) {
                    (Some(x), Some(y)) if x == y => out.push_str(&format!("  {x}\n")),
                    _ => {
                        if let Some(x) = e.get(j) {
                            out.push_str(&format!("- {x}\n"));
                        }
                        if let Some(y) = a.get(j) {
                            out.push_str(&format!("+ {y}\n"));
                        }
                    }
                }
            }
            return out;
        }
    }
    "(no line-level difference; byte-level drift such as trailing newline)".into()
}

fn check_scenario(name: &str) {
    let actual = powifi::golden::render(name);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        panic!(
            "golden trace drift for scenario {name:?}\n{}\nIf the change is intentional, \
             regenerate with: UPDATE_GOLDEN=1 cargo test --test golden_traces",
            first_diff(&expected, &actual)
        );
    }
}

#[test]
fn corpus_covers_every_scenario() {
    // A snapshot on disk with no matching scenario (or vice versa) is drift.
    let names: Vec<String> = powifi::golden::scenarios()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    assert_eq!(names.len(), 6, "corpus size changed: {names:?}");
    let dir = golden_path("x");
    let dir = dir.parent().unwrap();
    if dir.is_dir() {
        for entry in fs::read_dir(dir).unwrap() {
            let f = entry.unwrap().file_name().into_string().unwrap();
            if let Some(stem) = f.strip_suffix(".json") {
                assert!(
                    names.iter().any(|n| n == stem),
                    "stray golden snapshot {f} has no scenario"
                );
            }
        }
    }
}

#[test]
fn golden_rendering_is_deterministic() {
    for sc in powifi::golden::scenarios() {
        assert_eq!(
            powifi::golden::render(sc.name),
            powifi::golden::render(sc.name),
            "scenario {} renders differently on repeat",
            sc.name
        );
    }
}

#[test]
fn golden_traces_run_conformance_clean() {
    for sc in powifi::golden::scenarios() {
        let doc = powifi::golden::render(sc.name);
        assert!(
            doc.contains("\"conformance_violations\": 0"),
            "scenario {} violated invariants:\n{doc}",
            sc.name
        );
    }
}

/// Byte-compare the structured observability trace (`obs::trace` JSONL)
/// of one canonical MAC scenario against its committed snapshot. Because
/// the committed bytes were produced once and are compared under whatever
/// profile the tests run in, this doubles as the debug/release
/// byte-identity gate for `--trace` output.
#[test]
fn injector_gated_obs_trace_matches_golden() {
    let actual = powifi::golden::render_trace("injector_gated");
    let path = golden_path("x")
        .parent()
        .unwrap()
        .join("injector_gated.trace.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        panic!(
            "golden obs-trace drift for injector_gated\n{}\nIf intentional, regenerate \
             with: UPDATE_GOLDEN=1 cargo test --test golden_traces",
            first_diff(&expected, &actual)
        );
    }
}

/// Byte-compare the sim-time span profile (`obs::prof` snapshot) of one
/// canonical scenario against its committed snapshot. Wall timing is off
/// during capture, and the committed bytes are compared under whatever
/// profile the tests run in — so this is the debug/release byte-identity
/// gate for profiler output.
#[test]
fn injector_gated_prof_matches_golden() {
    let actual = powifi::golden::render_prof("injector_gated");
    assert!(
        !actual.contains("wall_ms"),
        "golden prof capture must not carry wall-clock keys:\n{actual}"
    );
    let path = golden_path("x")
        .parent()
        .unwrap()
        .join("injector_gated.prof.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden prof snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        panic!(
            "golden prof drift for injector_gated\n{}\nIf intentional, regenerate \
             with: UPDATE_GOLDEN=1 cargo test --test golden_traces",
            first_diff(&expected, &actual)
        );
    }
}

#[test]
fn prof_snapshots_are_deterministic_and_nonempty() {
    for sc in powifi::golden::scenarios() {
        let a = powifi::golden::render_prof(sc.name);
        let b = powifi::golden::render_prof(sc.name);
        assert_eq!(a, b, "scenario {} profile differs on repeat", sc.name);
        assert!(
            a.contains("\"sim.event\""),
            "scenario {} profile has no event spans: {a}",
            sc.name
        );
    }
    // The profiler must be off again after the captures above.
    assert!(!powifi::sim::obs::prof::enabled());
}

#[test]
fn obs_traces_are_deterministic_and_schema_clean() {
    for sc in powifi::golden::scenarios() {
        let a = powifi::golden::render_trace(sc.name);
        let b = powifi::golden::render_trace(sc.name);
        assert_eq!(a, b, "scenario {} trace differs on repeat", sc.name);
        let parsed = powifi_bench::traceinspect::parse(&a)
            .unwrap_or_else(|e| panic!("scenario {} trace unparsable: {e}", sc.name));
        let problems = powifi_bench::traceinspect::validate(&parsed);
        assert!(
            problems.is_empty(),
            "scenario {} trace violates the event schema: {problems:?}",
            sc.name
        );
        assert!(
            !parsed.points[0].records.is_empty(),
            "scenario {} produced an empty trace",
            sc.name
        );
    }
}

#[test]
fn solo_broadcast_matches_golden() {
    check_scenario("solo_broadcast");
}

#[test]
fn contention_pair_matches_golden() {
    check_scenario("contention_pair");
}

#[test]
fn unicast_retry_matches_golden() {
    check_scenario("unicast_retry");
}

#[test]
fn injector_gated_matches_golden() {
    check_scenario("injector_gated");
}

#[test]
fn beacons_and_power_matches_golden() {
    check_scenario("beacons_and_power");
}

#[test]
fn collision_storm_matches_golden() {
    check_scenario("collision_storm");
}
