//! Hostile input for the trace and prof readers. Starting from a runner
//! capture (fig05's first quick-mode point at seed 0), each reader is fed
//! every truncation of each line, and every line with one field's value,
//! at any depth, replaced by a value of each other JSON type. A reader may
//! accept a mutant or refuse it with an error naming the mutated line; it
//! may never panic, and neither may the inspector's views of what it
//! accepts. A sim-only snapshot line must also read back to an equal
//! `ProfSnapshot`.

use powifi_bench::profinspect::{self, TopBy};
use powifi_bench::traceinspect;
use serde::Value;
use std::collections::BTreeSet;
use std::fs;
use std::process::Command;

/// One value of each JSON type, numbers in all three spellings.
fn every_type() -> [Value; 8] {
    [
        Value::Null,
        Value::Bool(true),
        Value::UInt(7),
        Value::Int(-7),
        Value::Float(0.5),
        Value::Str("x".into()),
        Value::Array(Vec::new()),
        Value::Object(Vec::new()),
    ]
}

/// Every copy of `v` with one object field, at any depth, set to a value
/// of another type.
fn retyped(v: &Value) -> Vec<Value> {
    let mut out = Vec::new();
    match v {
        Value::Object(fields) => {
            for (i, (_, fv)) in fields.iter().enumerate() {
                let alts = every_type()
                    .into_iter()
                    .filter(|alt| std::mem::discriminant(alt) != std::mem::discriminant(fv));
                for alt in alts.chain(retyped(fv)) {
                    let mut m = fields.clone();
                    m[i].1 = alt;
                    out.push(Value::Object(m));
                }
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for sub in retyped(item) {
                    let mut m = items.clone();
                    m[i] = sub;
                    out.push(Value::Array(m));
                }
            }
        }
        _ => {}
    }
    out
}

/// Feed every mutant of every line of `lines` to `read`; each must give
/// `Ok` (then `view` must not panic) or an `Err` naming that line.
fn hammer<T>(
    lines: &[String],
    read: impl Fn(&str) -> Result<T, String>,
    view: impl Fn(&T),
) -> usize {
    let mut cases = 0;
    for (i, line) in lines.iter().enumerate() {
        let n = i + 1;
        let parsed = serde_json::from_str(line).expect("capture line is JSON");
        let truncations = (1..line.len())
            .filter(|&k| line.is_char_boundary(k))
            .map(|k| line[..k].to_string());
        let retypes = retyped(&parsed)
            .into_iter()
            .map(|v| serde_json::to_string(&v).unwrap());
        for mutant in truncations.chain(retypes) {
            let text: String = lines
                .iter()
                .enumerate()
                .map(|(j, l)| format!("{}\n", if j == i { &mutant } else { l }))
                .collect();
            match read(&text) {
                Ok(t) => view(&t),
                Err(e) => assert!(
                    e.starts_with(&format!("line {n}:")),
                    "line {n} as {mutant:?}: error does not name it: {e}"
                ),
            }
            cases += 1;
        }
    }
    cases
}

#[test]
fn readers_refuse_or_accept_every_mutant_without_panicking() {
    let dir = std::env::temp_dir().join(format!("powifi-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let (trace_path, prof_path) = (dir.join("fig05.trace.jsonl"), dir.join("fig05.prof.jsonl"));
    let run = Command::new(env!("CARGO_BIN_EXE_fig05_occupancy_vs_delay"))
        .args([
            "--seed",
            "0",
            "--jobs",
            "1",
            "--filter",
            "qdepth1/delay50us",
        ])
        .arg("--trace")
        .arg(&trace_path)
        .arg("--prof")
        .arg(&prof_path)
        .output()
        .expect("spawn fig05");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The point header, then the first record of each kind.
    let mut kinds = BTreeSet::new();
    let trace: Vec<String> = fs::read_to_string(&trace_path)
        .unwrap()
        .lines()
        .enumerate()
        .filter(|(i, l)| {
            let kind = l
                .split("\"kind\":\"")
                .nth(1)
                .and_then(|k| k.split('"').next());
            *i == 0 || kinds.insert(kind.unwrap_or("").to_string())
        })
        .map(|(_, l)| l.to_string())
        .collect();
    assert!(trace.len() >= 5, "too few record kinds: {trace:?}");
    let prof: Vec<String> = fs::read_to_string(&prof_path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(prof.len(), 2, "one point: a header and a snapshot");

    let trace_cases = hammer(&trace, traceinspect::parse, |t| {
        let _ = traceinspect::summarize(t);
        let _ = traceinspect::validate(t);
        let _ = traceinspect::merge(std::slice::from_ref(t));
        let _ = traceinspect::diff(t, t);
        for pt in &t.points {
            let _ = traceinspect::occupancy(pt, 4_000_000_000, None);
        }
    });
    let prof_cases = hammer(&prof, profinspect::parse, |p| {
        let _ = profinspect::diff(p, p);
        for pt in &p.points {
            let _ = (pt.snap.render_tree(), pt.snap.render_folded());
            for by in [TopBy::SelfTime, TopBy::Total, TopBy::Count] {
                let _ = profinspect::top(pt, by, 20);
            }
        }
    });
    assert!(trace_cases > 1_000 && prof_cases > 1_000);

    // The capture's snapshot is sim-only `ProfSnapshot::to_json` output: it
    // reads back to a tree that renders the same line and re-reads equal.
    let snap = &profinspect::parse(&format!("{}\n{}\n", prof[0], prof[1]))
        .unwrap()
        .points[0]
        .snap;
    assert!(!snap.wall && !snap.is_empty());
    assert_eq!(snap.to_json(), prof[1]);
    assert_eq!(
        profinspect::parse_snapshot(&snap.to_json()).as_ref(),
        Ok(snap)
    );
    let _ = fs::remove_dir_all(&dir);
}
