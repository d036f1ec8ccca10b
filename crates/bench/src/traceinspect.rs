//! Parsing and analysis of `powifi_sim::obs::trace` JSONL files — the
//! library behind `powifi-obs trace`.
//!
//! A trace file is a sequence of JSON lines. Two line shapes exist:
//!
//! * **Point headers** written by the bench sweep engine and read by
//!   [`PointHeader::decode`]: a line with an `experiment` key introduces
//!   one grid point's records; and
//! * **Records** (`{"t":…,"layer":…,"kind":…,…}`) from
//!   `TraceRecord::to_json_line`, whose shapes [`validate`] checks against
//!   `powifi_sim::obs::trace::CATALOGUE`, the one declaration of the format.
//!
//! A headerless file (e.g. a raw `capture_jsonl` dump) parses as one
//! anonymous point. All analysis here is pure and deterministic, so the
//! inspector can double as a conformance oracle: [`occupancy`] recomputes
//! the paper's per-channel Σ sizeᵢ/rateᵢ airtime metric from `tx_start`
//! records using the *same* nanosecond rounding as the MAC's own
//! accounting (`tshark_airtime`), which lets tests cross-check the two to
//! 1e-9 (see `tests/trace_crosscheck.rs`).

use crate::runner::PointHeader;
use powifi_sim::obs::trace::{self, FieldType};
use powifi_sim::SimDuration;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed trace line (a record, not a header).
#[derive(Debug, Clone, PartialEq)]
pub struct Rec {
    /// Sim-time timestamp in nanoseconds.
    pub t_ns: u64,
    /// Emitting subsystem: `mac`, `core`, `harvest`, `net`.
    pub layer: String,
    /// Event kind tag, e.g. `tx_start`.
    pub kind: String,
    /// Event-specific fields, in file order, excluding `t`/`layer`/`kind`.
    pub fields: Vec<(String, Value)>,
    /// The raw line, for faithful re-printing.
    pub raw: String,
    /// 1-based line number in the source file, so schema violations point
    /// straight at the offending line.
    pub line: usize,
}

impl Rec {
    /// An event field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// An event field as u64, when present and integral.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            Value::UInt(u) => Some(*u),
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// An event field as f64, when present and numeric.
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The record's primary entity id, by the rule of
    /// [`trace::entity_of`].
    pub fn entity(&self) -> Option<u64> {
        trace::entity_of(|name| self.field_u64(name))
    }
}

/// One grid point's worth of records.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// The point's header (all defaults for a headerless trace).
    pub header: PointHeader,
    /// The point's records, in file order.
    pub records: Vec<Rec>,
}

/// A fully parsed trace file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParsedTrace {
    /// The points, in file order.
    pub points: Vec<TracePoint>,
}

impl ParsedTrace {
    /// All records across every point, in file order.
    pub fn records(&self) -> impl Iterator<Item = &Rec> {
        self.points.iter().flat_map(|p| p.records.iter())
    }
}

/// Parse a trace file. Returns `Err` with a line number and reason on the
/// first malformed line.
pub fn parse(text: &str) -> Result<ParsedTrace, String> {
    let mut out = ParsedTrace::default();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let Value::Object(entries) = v else {
            return Err(format!("line {lineno}: not a JSON object"));
        };
        if let Some(header) = PointHeader::decode(&entries, lineno)? {
            out.points.push(TracePoint {
                header,
                records: Vec::new(),
            });
            continue;
        }
        let get = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let t_ns = match get("t") {
            Some(Value::UInt(t)) => *t,
            _ => return Err(format!("line {lineno}: record missing integer `t`")),
        };
        let (layer, kind) = match (get("layer"), get("kind")) {
            (Some(Value::Str(l)), Some(Value::Str(k))) => (l.clone(), k.clone()),
            _ => return Err(format!("line {lineno}: record missing `layer`/`kind`")),
        };
        let fields = entries
            .iter()
            .filter(|(k, _)| k != "t" && k != "layer" && k != "kind")
            .cloned()
            .collect();
        if out.points.is_empty() {
            out.points.push(TracePoint {
                header: PointHeader::default(),
                records: Vec::new(),
            });
        }
        out.points.last_mut().unwrap().records.push(Rec {
            t_ns,
            layer,
            kind,
            fields,
            raw: line.to_string(),
            line: lineno,
        });
    }
    Ok(out)
}

/// Record filter for `powifi-obs trace filter`: every set criterion must match.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    /// Emitting layer (`mac`/`core`/`harvest`/`net`).
    pub layer: Option<String>,
    /// Event kind tag.
    pub kind: Option<String>,
    /// Primary entity id (station / interface / flow).
    pub entity: Option<u64>,
    /// Inclusive lower time bound, nanoseconds.
    pub from_ns: Option<u64>,
    /// Exclusive upper time bound, nanoseconds.
    pub to_ns: Option<u64>,
}

impl Filter {
    /// Does `rec` satisfy every set criterion?
    pub fn matches(&self, rec: &Rec) -> bool {
        self.layer.as_deref().is_none_or(|l| rec.layer == l)
            && self.kind.as_deref().is_none_or(|k| rec.kind == k)
            && self.entity.is_none_or(|e| rec.entity() == Some(e))
            && self.from_ns.is_none_or(|f| rec.t_ns >= f)
            && self.to_ns.is_none_or(|t| rec.t_ns < t)
    }
}

/// Validate every record against the event catalogue
/// ([`trace::CATALOGUE`]). Returns one message per problem (empty =
/// clean): unknown kinds, wrong layer, missing/extra fields, wrong field
/// types, and a `rate_mbps` that is not finite and positive (`occupancy`
/// skips such a frame).
pub fn validate(trace: &ParsedTrace) -> Vec<String> {
    let mut problems = Vec::new();
    for (pi, point) in trace.points.iter().enumerate() {
        for (ri, rec) in point.records.iter().enumerate() {
            let loc = format!("line {}: point {pi} record {ri} ({})", rec.line, rec.kind);
            let Some(spec) = trace::CATALOGUE.iter().find(|k| k.kind == rec.kind) else {
                problems.push(format!("{loc}: unknown event kind"));
                continue;
            };
            if rec.layer != spec.layer {
                problems.push(format!(
                    "{loc}: layer `{}` should be `{}`",
                    rec.layer, spec.layer
                ));
            }
            for &(name, ty) in spec.fields {
                match rec.field(name) {
                    None => problems.push(format!("{loc}: missing field `{name}`")),
                    Some(v) if !ty.admits(v) => problems.push(match ty {
                        FieldType::Rate => format!("{loc}: field `{name}` is not a positive rate"),
                        _ => format!("{loc}: field `{name}` has wrong type"),
                    }),
                    Some(_) => {}
                }
            }
            for (name, _) in &rec.fields {
                if !spec.fields.iter().any(|(n, _)| n == name) {
                    problems.push(format!("{loc}: unexpected field `{name}`"));
                }
            }
        }
    }
    problems
}

/// Per-`(layer, kind)` record counts plus the trace's time span — the
/// `summary` subcommand's data.
pub fn summarize(trace: &ParsedTrace) -> String {
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    let mut total = 0u64;
    for rec in trace.records() {
        *counts
            .entry((rec.layer.clone(), rec.kind.clone()))
            .or_insert(0) += 1;
        t_min = t_min.min(rec.t_ns);
        t_max = t_max.max(rec.t_ns);
        total += 1;
    }
    let mut out = String::new();
    let _ = writeln!(out, "points:  {}", trace.points.len());
    let _ = writeln!(out, "records: {total}");
    if total > 0 {
        let _ = writeln!(
            out,
            "span:    {:.6}s .. {:.6}s",
            t_min as f64 / 1e9,
            t_max as f64 / 1e9
        );
    }
    for ((layer, kind), n) in &counts {
        let _ = writeln!(out, "  {layer:>7}/{kind:<13} {n}");
    }
    out
}

/// Recompute per-channel occupancy from `tx_start` records with the
/// paper's Σ sizeᵢ/rateᵢ formula over `[0, end_ns)`, optionally for one
/// station only. Per-frame airtime uses the exact nanosecond rounding of
/// `powifi_mac::tshark_airtime`, so the result matches the MAC's own
/// accounting to float-summation error.
pub fn occupancy(point: &TracePoint, end_ns: u64, sta: Option<u64>) -> BTreeMap<u64, f64> {
    let mut per_medium: BTreeMap<u64, f64> = BTreeMap::new();
    for rec in &point.records {
        if rec.kind != "tx_start" || rec.t_ns >= end_ns {
            continue;
        }
        if let Some(want) = sta {
            if rec.field_u64("sta") != Some(want) {
                continue;
            }
        }
        let (Some(medium), Some(bytes), Some(rate_mbps)) = (
            rec.field_u64("medium"),
            rec.field_u64("bytes"),
            rec.field_f64("rate_mbps"),
        ) else {
            continue;
        };
        // Exactly tshark_airtime(bytes, rate): round to whole nanoseconds
        // first, then convert to seconds — matching OccupancyMonitor. A
        // rate no frame can have (zero, negative, non-finite) is skipped
        // like a missing field.
        let us = bytes as f64 * 8.0 / rate_mbps;
        if !(us.is_finite() && us >= 0.0) {
            continue;
        }
        let airtime = SimDuration::from_micros_f64(us);
        *per_medium.entry(medium).or_insert(0.0) += airtime.as_secs_f64();
    }
    let span = end_ns as f64 / 1e9;
    for v in per_medium.values_mut() {
        *v /= span;
    }
    per_medium
}

/// Deterministically interleave several traces' records into one
/// timeline — the engine of `powifi-obs trace merge`.
///
/// The sort key is `(t, seq, source index, source line)`: `seq` is the
/// record's own `seq` field when it carries one (no writer in this
/// workspace adds one), falling back to the source-file line number, so
/// trace files keep their file order at equal timestamps and ties across
/// files resolve by argument position. The key is total, so the merged
/// order is a pure function of the inputs — re-running the merge
/// reproduces it byte for byte. Point headers are not carried over: the
/// merged stream is one anonymous timeline.
pub fn merge(traces: &[ParsedTrace]) -> Vec<&Rec> {
    let mut keyed: Vec<(u64, u64, usize, usize, &Rec)> = Vec::new();
    for (src, trace) in traces.iter().enumerate() {
        for rec in trace.records() {
            let seq = rec.field_u64("seq").unwrap_or(rec.line as u64);
            keyed.push((rec.t_ns, seq, src, rec.line, rec));
        }
    }
    keyed.sort_by_key(|&(t, seq, src, line, _)| (t, seq, src, line));
    keyed.into_iter().map(|(_, _, _, _, r)| r).collect()
}

/// Structurally diff two traces. Returns `None` when identical, else a
/// human-readable description of the first divergence.
pub fn diff(a: &ParsedTrace, b: &ParsedTrace) -> Option<String> {
    if a.points.len() != b.points.len() {
        return Some(format!(
            "point count differs: {} vs {}",
            a.points.len(),
            b.points.len()
        ));
    }
    for (pi, (pa, pb)) in a.points.iter().zip(&b.points).enumerate() {
        let (ha, hb) = (&pa.header, &pb.header);
        if (&ha.experiment, &ha.label, ha.seed) != (&hb.experiment, &hb.label, hb.seed) {
            return Some(format!(
                "point {pi} header differs: {}/{}#{} vs {}/{}#{}",
                ha.experiment, ha.label, ha.seed, hb.experiment, hb.label, hb.seed
            ));
        }
        for (ri, (ra, rb)) in pa.records.iter().zip(&pb.records).enumerate() {
            if ra.raw != rb.raw {
                return Some(format!(
                    "point {pi} ({}) record {ri} differs:\n  a: {}\n  b: {}",
                    ha.label, ra.raw, rb.raw
                ));
            }
        }
        if pa.records.len() != pb.records.len() {
            return Some(format!(
                "point {pi} ({}) record count differs: {} vs {}",
                ha.label,
                pa.records.len(),
                pb.records.len()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_sim::obs::trace::{FrameClass, TraceEvent, TraceRecord};
    use powifi_sim::SimTime;

    fn sample_jsonl() -> String {
        let recs = [
            TraceRecord {
                at: SimTime::from_micros(10),
                event: TraceEvent::MacTxStart {
                    medium: 0,
                    sta: 1,
                    frame: FrameClass::Power,
                    bytes: 1536,
                    rate_mbps: 54.0,
                    collided: false,
                },
            },
            TraceRecord {
                at: SimTime::from_micros(238),
                event: TraceEvent::MacTxEnd { medium: 0, sta: 1 },
            },
            TraceRecord {
                at: SimTime::from_micros(300),
                event: TraceEvent::InjectorGate {
                    iface: 1,
                    open: false,
                    qdepth: 6,
                },
            },
        ];
        let mut s =
            String::from("{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}\n");
        for r in &recs {
            s.push_str(&r.to_json_line());
            s.push('\n');
        }
        s
    }

    #[test]
    fn parses_headers_and_records() {
        let t = parse(&sample_jsonl()).unwrap();
        assert_eq!(t.points.len(), 1);
        let p = &t.points[0];
        assert_eq!(
            (
                p.header.experiment.as_str(),
                p.header.label.as_str(),
                p.header.seed
            ),
            ("demo", "p0", 7)
        );
        assert_eq!(p.records.len(), 3);
        assert_eq!(p.records[0].kind, "tx_start");
        assert_eq!(p.records[0].field_u64("bytes"), Some(1536));
        assert_eq!(p.records[2].entity(), Some(1));
    }

    #[test]
    fn headerless_trace_becomes_one_anonymous_point() {
        let body: String = sample_jsonl()
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n");
        let t = parse(&body).unwrap();
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.points[0].header, PointHeader::default());
        assert_eq!(t.points[0].records.len(), 3);
    }

    #[test]
    fn rendered_events_validate_cleanly() {
        let t = parse(&sample_jsonl()).unwrap();
        assert_eq!(validate(&t), Vec::<String>::new());
    }

    #[test]
    fn every_kind_renders_its_pinned_line_and_validates() {
        use powifi_sim::obs::trace::{CwndCause, DropReason};
        let rows = [
            (
                TraceEvent::MacTxStart {
                    medium: 1,
                    sta: 2,
                    frame: FrameClass::Management,
                    bytes: 1536,
                    rate_mbps: 5.5,
                    collided: true,
                },
                r#"{"t":1000,"layer":"mac","kind":"tx_start","medium":1,"sta":2,"frame":"mgmt","bytes":1536,"rate_mbps":5.5,"collided":true}"#,
            ),
            (
                TraceEvent::MacTxEnd { medium: 1, sta: 2 },
                r#"{"t":2000,"layer":"mac","kind":"tx_end","medium":1,"sta":2}"#,
            ),
            (
                TraceEvent::MacBackoffDraw {
                    medium: 0,
                    sta: 3,
                    slots: 7,
                    cw: 15,
                },
                r#"{"t":3000,"layer":"mac","kind":"backoff_draw","medium":0,"sta":3,"slots":7,"cw":15}"#,
            ),
            (
                TraceEvent::MacDifsDefer { medium: 0, sta: 4 },
                r#"{"t":4000,"layer":"mac","kind":"difs_defer","medium":0,"sta":4}"#,
            ),
            (
                TraceEvent::MacAck { medium: 2, sta: 5 },
                r#"{"t":5000,"layer":"mac","kind":"ack","medium":2,"sta":5}"#,
            ),
            (
                TraceEvent::MacRetry {
                    medium: 2,
                    sta: 5,
                    retries: 3,
                },
                r#"{"t":6000,"layer":"mac","kind":"retry","medium":2,"sta":5,"retries":3}"#,
            ),
            (
                TraceEvent::MacDrop {
                    medium: 2,
                    sta: 5,
                    reason: DropReason::RetryLimit,
                },
                r#"{"t":7000,"layer":"mac","kind":"drop","medium":2,"sta":5,"reason":"retry_limit"}"#,
            ),
            (
                TraceEvent::InjectorGate {
                    iface: 0,
                    open: false,
                    qdepth: 12,
                },
                r#"{"t":8000,"layer":"core","kind":"injector_gate","iface":0,"open":false,"qdepth":12}"#,
            ),
            (
                TraceEvent::PowerPacket {
                    iface: 1,
                    bytes: 1500,
                },
                r#"{"t":9000,"layer":"core","kind":"power_packet","iface":1,"bytes":1500}"#,
            ),
            (
                TraceEvent::StorageCross {
                    volts: 2.4,
                    threshold: 2.35,
                    rising: true,
                },
                r#"{"t":10000,"layer":"harvest","kind":"storage_cross","volts":2.4,"threshold":2.35,"rising":true}"#,
            ),
            (
                TraceEvent::ColdStart { volts: 2.4 },
                r#"{"t":11000,"layer":"harvest","kind":"cold_start","volts":2.4}"#,
            ),
            (
                TraceEvent::Brownout { volts: 1.8 },
                r#"{"t":12000,"layer":"harvest","kind":"brownout","volts":1.8}"#,
            ),
            (
                TraceEvent::MpptUpdate {
                    vref_volts: 0.25,
                    factor: f64::NAN,
                },
                r#"{"t":13000,"layer":"harvest","kind":"mppt_update","vref_volts":0.25,"factor":null}"#,
            ),
            (
                TraceEvent::TcpRto {
                    flow: 7,
                    rto_s: 0.2,
                    cwnd: 1.0,
                },
                r#"{"t":14000,"layer":"net","kind":"tcp_rto","flow":7,"rto_s":0.2,"cwnd":1.0}"#,
            ),
            (
                TraceEvent::TcpCwnd {
                    flow: 7,
                    cwnd: 5.0,
                    ssthresh: 5.0,
                    cause: CwndCause::Recovered,
                },
                r#"{"t":15000,"layer":"net","kind":"tcp_cwnd","flow":7,"cwnd":5.0,"ssthresh":5.0,"cause":"recovered"}"#,
            ),
        ];
        let mut text = String::new();
        for (i, (event, want)) in rows.iter().enumerate() {
            let line = TraceRecord {
                at: SimTime::from_micros(i as u64 + 1),
                event: *event,
            }
            .to_json_line();
            assert_eq!(line, *want);
            text.push_str(&line);
            text.push('\n');
        }
        let t = parse(&text).unwrap();
        assert_eq!(validate(&t), Vec::<String>::new());
        let recs: Vec<&Rec> = t.records().collect();
        assert_eq!(recs.len(), rows.len());
        for (rec, (event, _)) in recs.iter().zip(&rows) {
            assert_eq!(
                (rec.layer.as_str(), rec.kind.as_str()),
                (event.layer(), event.kind())
            );
            assert_eq!(rec.entity(), event.entity().map(u64::from), "{}", rec.raw);
        }
    }

    #[test]
    fn validate_flags_schema_drift() {
        let mangled = sample_jsonl()
            .replace("\"qdepth\":6", "\"qdepth\":\"six\"")
            .replace("\"kind\":\"tx_end\"", "\"kind\":\"tx_stop\"");
        let t = parse(&mangled).unwrap();
        let problems = validate(&t);
        assert!(problems.iter().any(|p| p.contains("unknown event kind")));
        assert!(problems
            .iter()
            .any(|p| p.contains("`qdepth` has wrong type")));
        // Problems carry the 1-based source line: the mangled tx_end is
        // line 3 (after the header), the mangled injector_gate line 4.
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("line 3:") && p.contains("unknown event kind")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.starts_with("line 4:") && p.contains("`qdepth`")),
            "{problems:?}"
        );
    }

    #[test]
    fn filter_narrows_by_every_criterion() {
        let t = parse(&sample_jsonl()).unwrap();
        let recs: Vec<&Rec> = t.records().collect();
        let by_layer = Filter {
            layer: Some("core".into()),
            ..Filter::default()
        };
        assert_eq!(recs.iter().filter(|r| by_layer.matches(r)).count(), 1);
        let by_window = Filter {
            from_ns: Some(200_000),
            to_ns: Some(299_000),
            ..Filter::default()
        };
        assert_eq!(recs.iter().filter(|r| by_window.matches(r)).count(), 1);
        let by_entity = Filter {
            entity: Some(1),
            ..Filter::default()
        };
        assert_eq!(recs.iter().filter(|r| by_entity.matches(r)).count(), 3);
    }

    #[test]
    fn occupancy_uses_tshark_rounding() {
        let t = parse(&sample_jsonl()).unwrap();
        let occ = occupancy(&t.points[0], 1_000_000_000, Some(1));
        // One 1536 B frame at 54 Mbps over 1 s.
        let expect = powifi_mac::tshark_airtime(1536, powifi_rf::Bitrate::G54).as_secs_f64();
        assert!((occ[&0] - expect).abs() < 1e-15, "{} vs {expect}", occ[&0]);
    }

    #[test]
    fn diff_finds_first_divergence() {
        let a = parse(&sample_jsonl()).unwrap();
        assert_eq!(diff(&a, &a), None);
        let b = parse(&sample_jsonl().replace("\"qdepth\":6", "\"qdepth\":7")).unwrap();
        let msg = diff(&a, &b).expect("must differ");
        assert!(msg.contains("record 2 differs"), "{msg}");
    }

    #[test]
    fn merge_interleaves_by_time_then_seq_then_source() {
        // Two "shards" whose timestamps interleave; equal-time records
        // order by their `seq` field, then by source position.
        let shard_a = parse(concat!(
            "{\"t\":100,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":0,\"sta\":1,\"seq\":4}\n",
            "{\"t\":300,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":0,\"sta\":1,\"seq\":9}\n",
        ))
        .unwrap();
        let shard_b = parse(concat!(
            "{\"t\":100,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":1,\"sta\":2,\"seq\":2}\n",
            "{\"t\":200,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":1,\"sta\":2,\"seq\":7}\n",
        ))
        .unwrap();
        let inputs = [shard_a, shard_b];
        let merged = merge(&inputs);
        let order: Vec<(u64, Option<u64>)> = merged
            .iter()
            .map(|r| (r.t_ns, r.field_u64("seq")))
            .collect();
        assert_eq!(
            order,
            vec![
                (100, Some(2)), // t ties broken by seq: shard_b first
                (100, Some(4)),
                (200, Some(7)),
                (300, Some(9)),
            ]
        );
        // Total key ⇒ rerunning the merge reproduces the bytes exactly.
        let again: Vec<&str> = merge(&inputs).iter().map(|r| r.raw.as_str()).collect();
        let first: Vec<&str> = merged.iter().map(|r| r.raw.as_str()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn merge_without_seq_keeps_file_order_and_argument_order() {
        // Plain trace records (no `seq` field) at equal timestamps keep
        // their per-file line order; across files the earlier argument
        // wins. Line numbers double as the seq fallback, so a line-2
        // record in file B sorts after a line-1 record in file A.
        let a = parse("{\"t\":50,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":0,\"sta\":1}\n")
            .unwrap();
        let b = parse("{\"t\":50,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":0,\"sta\":2}\n")
            .unwrap();
        let inputs = [a, b];
        let merged = merge(&inputs);
        let stas: Vec<u64> = merged.iter().filter_map(|r| r.field_u64("sta")).collect();
        assert_eq!(stas, vec![1, 2]);
    }

    #[test]
    fn merged_output_reparses_as_one_anonymous_point() {
        let t = parse(&sample_jsonl()).unwrap();
        let inputs = [t.clone(), t];
        let merged = merge(&inputs);
        let text: String = merged.iter().map(|r| format!("{}\n", r.raw)).collect();
        let re = parse(&text).unwrap();
        assert_eq!(re.points.len(), 1);
        assert_eq!(re.points[0].records.len(), 6);
        assert_eq!(validate(&re), Vec::<String>::new());
    }

    #[test]
    fn summary_counts_layers() {
        let t = parse(&sample_jsonl()).unwrap();
        let s = summarize(&t);
        assert!(s.contains("records: 3"));
        assert!(s.contains("mac/tx_start"));
        assert!(s.contains("core/injector_gate"));
    }
}
