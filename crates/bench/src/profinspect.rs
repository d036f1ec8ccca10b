//! Reader for `--prof` span-profile JSONL files, the library behind
//! `powifi-obs prof`.
//!
//! A prof file is a sequence of line pairs in grid order: a point header
//! (read by [`PointHeader::decode`], as in a trace file) followed by one
//! span-tree snapshot (`{"wall":…,"spans":[…]}`, the output of
//! [`ProfSnapshot::to_json`]). A headerless first snapshot, such as the
//! golden corpus's bare dump, reads as one anonymous point. [`parse`] reads each snapshot back into a
//! [`ProfSnapshot`], so the tree, folded-stack and flattened views are the
//! snapshot's own renderers. This module adds what only a reader needs:
//!
//! * [`top`] — hottest spans across a point, flattened to `a;b;c` paths;
//! * [`diff`] — first structural divergence between two files, *ignoring
//!   wall-clock keys* so a release rerun compares clean against a golden.

use crate::runner::PointHeader;
use powifi_sim::obs::prof::{ProfSnapshot, ProfSpan};
use powifi_sim::SimDuration;
use serde::Value;

/// One profiled grid point: its header plus the parsed snapshot.
#[derive(Debug, Clone)]
pub struct ProfPoint {
    /// The point's header line.
    pub header: PointHeader,
    /// The point's span tree.
    pub snap: ProfSnapshot,
}

/// A fully parsed prof file.
#[derive(Debug, Clone, Default)]
pub struct ParsedProf {
    /// Points in file (= grid) order.
    pub points: Vec<ProfPoint>,
}

type Fields = [(String, Value)];

fn obj_get<'a>(entries: &'a Fields, key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(entries: &Fields, key: &str) -> Option<u64> {
    match obj_get(entries, key)? {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn get_str(entries: &Fields, key: &str) -> Option<String> {
    match obj_get(entries, key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// A wall field (milliseconds in the file) as nanoseconds; absent is `None`.
fn get_wall_ns(entries: &Fields, key: &str, line: usize) -> Result<Option<u64>, String> {
    let ms = match obj_get(entries, key) {
        None => return Ok(None),
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Int(i)) => *i as f64,
        Some(_) => return Err(format!("line {line}: `{key}` is not a number")),
    };
    Ok(Some((ms * 1e6).round() as u64))
}

fn parse_span(v: &Value, line: usize) -> Result<ProfSpan, String> {
    let Value::Object(fields) = v else {
        return Err(format!("line {line}: span is not an object"));
    };
    let name =
        get_str(fields, "name").ok_or_else(|| format!("line {line}: span missing `name`"))?;
    let need = |key: &str| {
        get_u64(fields, key)
            .ok_or_else(|| format!("line {line}: span `{name}` missing unsigned `{key}`"))
    };
    let children = match obj_get(fields, "children") {
        None => Vec::new(),
        Some(Value::Array(kids)) => kids
            .iter()
            .map(|k| parse_span(k, line))
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(format!("line {line}: span `{name}` children not an array")),
    };
    Ok(ProfSpan {
        count: need("count")?,
        sim_self_ns: need("sim_self_ns")?,
        sim_total_ns: need("sim_total_ns")?,
        sim_max_ns: need("sim_max_ns")?,
        wall_ns: get_wall_ns(fields, "wall_ms", line)?,
        wall_max_ns: get_wall_ns(fields, "max_wall_ms", line)?,
        name,
        children,
    })
}

fn snapshot(fields: &Fields, line: usize) -> Result<ProfSnapshot, String> {
    let Some(Value::Array(spans)) = obj_get(fields, "spans") else {
        return Err(format!("line {line}: `spans` is not an array"));
    };
    Ok(ProfSnapshot {
        wall: matches!(obj_get(fields, "wall"), Some(Value::Bool(true))),
        roots: spans
            .iter()
            .map(|s| parse_span(s, line))
            .collect::<Result<_, _>>()?,
    })
}

/// Parse one [`ProfSnapshot::to_json`] line back into its tree. Wall
/// fields come back rounded to whole nanoseconds.
pub fn parse_snapshot(text: &str) -> Result<ProfSnapshot, String> {
    match serde_json::from_str(text).map_err(|e| format!("line 1: {e}"))? {
        Value::Object(fields) => snapshot(&fields, 1),
        _ => Err("line 1: expected a JSON object".into()),
    }
}

/// Parse a prof JSONL file. A headerless first snapshot reads as one
/// anonymous point (all-default header), as a headerless trace does.
/// Rejects malformed JSON, any later snapshot without its header and
/// snapshot lines that don't match the prof schema, naming the offending
/// 1-based line.
pub fn parse(text: &str) -> Result<ParsedProf, String> {
    let mut out = ParsedProf::default();
    let mut pending: Option<(PointHeader, usize)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(raw).map_err(|e| format!("line {line}: {e}"))?;
        let Value::Object(fields) = &v else {
            return Err(format!("line {line}: expected a JSON object"));
        };
        if let Some(header) = PointHeader::decode(fields, line)? {
            // A dangling previous header (no snapshot) is a malformed file.
            if let Some((_, hl)) = pending {
                return Err(format!("line {hl}: point header has no snapshot line"));
            }
            pending = Some((header, line));
        } else if obj_get(fields, "spans").is_some() {
            // A file's first snapshot may come without a header (a bare
            // `ProfSnapshot::to_json` dump): it is one anonymous point.
            let header = match pending.take() {
                Some((header, _)) => header,
                None if out.points.is_empty() => PointHeader::default(),
                None => return Err(format!("line {line}: snapshot with no preceding header")),
            };
            let snap = snapshot(fields, line)?;
            out.points.push(ProfPoint { header, snap });
        } else {
            return Err(format!(
                "line {line}: neither a point header nor a snapshot"
            ));
        }
    }
    if let Some((_, hl)) = pending {
        return Err(format!("line {hl}: point header has no snapshot line"));
    }
    Ok(out)
}

/// Sort key for [`top`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopBy {
    /// Self sim-time (default — where the simulated time actually went).
    SelfTime,
    /// Inclusive sim-time.
    Total,
    /// Entry count.
    Count,
}

impl TopBy {
    /// Read a `--by` value: `self`, `total` or `count`.
    pub fn from_flag(s: &str) -> Option<TopBy> {
        match s {
            "self" => Some(TopBy::SelfTime),
            "total" => Some(TopBy::Total),
            "count" => Some(TopBy::Count),
            _ => None,
        }
    }

    fn key(self, s: &ProfSpan) -> u64 {
        match self {
            TopBy::SelfTime => s.sim_self_ns,
            TopBy::Total => s.sim_total_ns,
            TopBy::Count => s.count,
        }
    }
}

/// The `n` hottest span paths of one point, one line each. Ties break on
/// path, so output is deterministic.
pub fn top(pt: &ProfPoint, by: TopBy, n: usize) -> String {
    let mut rows = pt.snap.flatten();
    rows.sort_by(|(pa, a), (pb, b)| by.key(b).cmp(&by.key(a)).then_with(|| pa.cmp(pb)));
    // Render durations first: `SimDuration`'s `Display` ignores width.
    let time = |ns: u64| SimDuration::from_nanos(ns).to_string();
    let mut out = String::new();
    for (path, s) in rows.into_iter().take(n) {
        out.push_str(&format!(
            "{:>12} {:>12} {:>8}  {}\n",
            time(s.sim_self_ns),
            time(s.sim_total_ns),
            s.count,
            path
        ));
    }
    out
}

fn diff_spans(path: &str, a: &[ProfSpan], b: &[ProfSpan]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{path}: {} child span(s) vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let here = format!("{path}/{}", x.name);
        if x.name != y.name {
            return Some(format!("{path}: span `{}` vs `{}`", x.name, y.name));
        }
        for (key, l, r) in [
            ("count", x.count, y.count),
            ("sim_self_ns", x.sim_self_ns, y.sim_self_ns),
            ("sim_total_ns", x.sim_total_ns, y.sim_total_ns),
            ("sim_max_ns", x.sim_max_ns, y.sim_max_ns),
        ] {
            if l != r {
                return Some(format!("{here}: {key} {l} vs {r}"));
            }
        }
        if let Some(d) = diff_spans(&here, &x.children, &y.children) {
            return Some(d);
        }
    }
    None
}

/// First structural divergence between two prof files, or `None` when they
/// agree. Wall-clock fields are never compared, so a wall-mode capture
/// diffs clean against a sim-only one as long as the sim-time tree
/// matches.
pub fn diff(a: &ParsedProf, b: &ParsedProf) -> Option<String> {
    if a.points.len() != b.points.len() {
        return Some(format!(
            "point count differs: {} vs {}",
            a.points.len(),
            b.points.len()
        ));
    }
    for (i, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        let (x, y) = (&pa.header, &pb.header);
        if x.experiment != y.experiment || x.point != y.point || x.label != y.label {
            return Some(format!(
                "point {i}: header ({}, {}, {}) vs ({}, {}, {})",
                x.experiment, x.point, x.label, y.experiment, y.point, y.label
            ));
        }
        if x.seed != y.seed {
            return Some(format!("point {i}: seed {} vs {}", x.seed, y.seed));
        }
        if let Some(d) = diff_spans(&format!("point {i}"), &pa.snap.roots, &pb.snap.roots) {
            return Some(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = r#"{"experiment":"fig05","point":0,"label":"r=1","seed":7}"#;
    const SNAP: &str = r#"{"wall":false,"spans":[{"name":"sim.event","count":3,"sim_self_ns":100,"sim_total_ns":400,"sim_max_ns":90,"children":[{"name":"mac.dcf.tx","count":2,"sim_self_ns":300,"sim_total_ns":300,"sim_max_ns":200,"children":[]}]}]}"#;

    fn sample() -> String {
        format!("{HEADER}\n{SNAP}\n")
    }

    #[test]
    fn parses_header_snapshot_pairs() {
        let p = parse(&sample()).unwrap();
        assert_eq!(p.points.len(), 1);
        let pt = &p.points[0];
        assert_eq!(pt.header.experiment, "fig05");
        assert_eq!(pt.header.seed, 7);
        assert!(!pt.snap.wall);
        assert_eq!(pt.snap.roots.len(), 1);
        assert_eq!(pt.snap.roots[0].children[0].name, "mac.dcf.tx");
    }

    #[test]
    fn headerless_snapshot_is_one_anonymous_point() {
        let p = parse(&format!("{SNAP}\n")).unwrap();
        assert_eq!(p.points.len(), 1);
        assert_eq!(p.points[0].header, PointHeader::default());
        assert_eq!(p.points[0].snap.roots[0].name, "sim.event");
    }

    #[test]
    fn parse_errors_name_the_line() {
        let e = parse("{\"bogus\":1}\n").unwrap_err();
        assert!(e.starts_with("line 1:"), "{e}");
        let e = parse(&format!("{HEADER}\n")).unwrap_err();
        assert!(e.contains("no snapshot"), "{e}");
        let e = parse(&format!("{SNAP}\n{SNAP}\n")).unwrap_err();
        assert!(
            e.contains("line 2: snapshot with no preceding header"),
            "{e}"
        );
        let bad_span = r#"{"wall":false,"spans":[{"name":"x","count":1}]}"#;
        let e = parse(&format!("{HEADER}\n{bad_span}\n")).unwrap_err();
        assert!(e.contains("line 2") && e.contains("sim_self_ns"), "{e}");
    }

    #[test]
    fn tree_top_and_flame_render() {
        let p = parse(&sample()).unwrap();
        let tree = p.points[0].snap.render_tree();
        assert!(tree.contains("sim.event count=3"), "{tree}");
        assert!(tree.contains("  mac.dcf.tx"), "{tree}");

        let by_self = top(&p.points[0], TopBy::SelfTime, 10);
        // mac.dcf.tx has more self time than sim.event.
        let first = by_self.lines().next().unwrap();
        assert!(first.ends_with("sim.event;mac.dcf.tx"), "{by_self}");
        let by_count = top(&p.points[0], TopBy::Count, 1);
        assert!(by_count.trim_end().ends_with("sim.event"), "{by_count}");

        let folded = p.points[0].snap.render_folded();
        assert_eq!(folded, "sim.event 100\nsim.event;mac.dcf.tx 300\n");
    }

    #[test]
    fn diff_ignores_wall_but_not_sim_time() {
        let a = parse(&sample()).unwrap();
        // Same tree with wall fields present: still identical.
        let wall_snap = SNAP.replace("\"wall\":false", "\"wall\":true").replace(
            "\"sim_max_ns\":200,",
            "\"sim_max_ns\":200,\"wall_ms\":1.5,\"max_wall_ms\":1.0,",
        );
        let b = parse(&format!("{HEADER}\n{wall_snap}\n")).unwrap();
        assert_eq!(diff(&a, &b), None);
        // A sim-time change is reported with its path.
        let c = parse(&sample().replace("\"sim_self_ns\":300", "\"sim_self_ns\":301")).unwrap();
        let msg = diff(&a, &c).unwrap();
        assert!(
            msg.contains("mac.dcf.tx") && msg.contains("sim_self_ns"),
            "{msg}"
        );
        // Point-count mismatch is reported.
        let d = parse(&format!("{}{}", sample(), sample())).unwrap();
        assert!(diff(&a, &d).unwrap().contains("point count"));
    }
}
