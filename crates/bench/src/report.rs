//! Run provenance and profiler attribution, shared by the sweep runner,
//! the fleet server and the `powifi-benchmark` crate.
//!
//! * **Provenance** — [`git_head_sha`] and [`today_utc`] name the commit
//!   and the civil date a result was measured at.
//! * **Attribution** — [`subsystem_wall_ms`] folds span-profiler output
//!   (wall mode) into per-subsystem wall totals, so a report says not just
//!   *that* the simulator got slower but *which layer* did.
//!
//! Wall-clock readings, `SystemTime` and git are fine here: this whole
//! module is bench-only (lint rules R2/R7 exempt `crates/bench`).

use serde::Value;
use std::collections::BTreeMap;

fn obj_get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The current git HEAD SHA. `POWIFI_BENCH_SHA` overrides (tests, exotic
/// checkouts); falls back to `"unknown"` when git is unavailable.
pub fn git_head_sha() -> String {
    if let Ok(sha) = std::env::var("POWIFI_BENCH_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Today's UTC civil date, `YYYY-MM-DD`.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-Unix-epoch to proleptic-Gregorian civil date (the classic
/// era-based algorithm; exact for the range we care about).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Fold span-profiler snapshots (wall mode, one JSON line per point) into
/// per-subsystem wall totals: each span's *self* wall time (inclusive
/// minus children) is attributed to the prefix of its name before the
/// first `.` (`mac`, `core`, `harvest`, `net`, `sim`).
pub fn subsystem_wall_ms(prof_jsons: &[&str]) -> BTreeMap<String, f64> {
    fn walk(out: &mut BTreeMap<String, f64>, span: &Value) {
        let Value::Object(fields) = span else { return };
        let name = match obj_get(fields, "name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return,
        };
        let own = obj_get(fields, "wall_ms").and_then(as_f64).unwrap_or(0.0);
        let mut child_sum = 0.0;
        if let Some(Value::Array(children)) = obj_get(fields, "children") {
            for c in children {
                if let Value::Object(cf) = c {
                    child_sum += obj_get(cf, "wall_ms").and_then(as_f64).unwrap_or(0.0);
                }
                walk(out, c);
            }
        }
        let self_ms = (own - child_sum).max(0.0);
        let subsystem = name.split('.').next().unwrap_or(&name).to_string();
        *out.entry(subsystem).or_insert(0.0) += self_ms;
    }

    let mut out = BTreeMap::new();
    for text in prof_jsons {
        let Ok(Value::Object(fields)) = serde_json::from_str(text) else {
            continue;
        };
        if let Some(Value::Array(spans)) = obj_get(&fields, "spans") {
            for sp in spans {
                walk(&mut out, sp);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_are_exact() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
    }

    #[test]
    fn subsystem_attribution_uses_self_time() {
        // sim.event 10ms inclusive, of which mac.dcf.tx 6ms inclusive, of
        // which net.tcp.deliver 1ms — self times: sim 4, mac 5, net 1.
        let prof = r#"{"wall":true,"spans":[{"name":"sim.event","count":3,"sim_self_ns":0,"sim_total_ns":0,"sim_max_ns":0,"wall_ms":10.0,"max_wall_ms":5.0,"children":[{"name":"mac.dcf.tx","count":2,"sim_self_ns":0,"sim_total_ns":0,"sim_max_ns":0,"wall_ms":6.0,"max_wall_ms":4.0,"children":[{"name":"net.tcp.deliver","count":1,"sim_self_ns":0,"sim_total_ns":0,"sim_max_ns":0,"wall_ms":1.0,"max_wall_ms":1.0,"children":[]}]}]}]}"#;
        let by = subsystem_wall_ms(&[prof]);
        assert_eq!(by.len(), 3);
        assert!((by["sim"] - 4.0).abs() < 1e-9);
        assert!((by["mac"] - 5.0).abs() < 1e-9);
        assert!((by["net"] - 1.0).abs() < 1e-9);
    }
}
