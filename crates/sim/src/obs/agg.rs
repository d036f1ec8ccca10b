//! Deterministic windowed aggregation over a telemetry stream.
//!
//! The [`Aggregator`] consumes the NDJSON wire format of
//! [`super::stream`] — from a live socket or a recorded capture file, it
//! cannot tell the difference — and rolls records up into **tumbling
//! sim-time windows**: for every window and every deployment one row with
//! events/s, airtime occupancy, harvested µW and retry/corruption rates,
//! plus a merged `*` row per window when the stream multiplexes more than
//! one deployment. A city deployment's per-shard `progress` records merge
//! into its single row.
//!
//! ## Determinism
//!
//! The wire interleaves deployments (and city shards) in scheduling order,
//! which varies with `--jobs` and machine load. The aggregator reduces any
//! interleaving of the *same record set* to byte-identical output: samples
//! are keyed by `(deployment, shard, sim-time)`, reductions are sums and
//! last-sample-at-or-before lookups, maps are BTree-ordered, and floats
//! render with the same shortest-roundtrip formatting as every other
//! artifact. `powifi-obs fleet aggregate` over a capture is therefore stable
//! across `--jobs` and debug/release, pinned by a committed golden.

use crate::SimDuration;
use serde::Value;
use serde_json::{write_float, write_string};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregation settings.
#[derive(Debug, Clone)]
pub struct AggConfig {
    /// Tumbling window width in sim time.
    pub window: SimDuration,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig {
            window: SimDuration::from_secs(1),
        }
    }
}

/// Session identity parsed back off the wire header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionHeader {
    /// `run_id` field.
    pub run_id: String,
    /// `seed` field.
    pub seed: u64,
    /// `git_sha` field.
    pub git_sha: String,
}

/// Cumulative counters carried by one sample (a `metrics` snapshot or a
/// city-shard `progress` record). All values are totals since the
/// deployment started; windowing diffs consecutive samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cum {
    events: u64,
    frames: u64,
    retrans: u64,
    corrupted: u64,
    busy_ns: u64,
    harvested_uj: u64,
    power_sent: u64,
    power_gated: u64,
}

impl Cum {
    fn delta(self, earlier: Cum) -> Cum {
        Cum {
            events: self.events.saturating_sub(earlier.events),
            frames: self.frames.saturating_sub(earlier.frames),
            retrans: self.retrans.saturating_sub(earlier.retrans),
            corrupted: self.corrupted.saturating_sub(earlier.corrupted),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            harvested_uj: self.harvested_uj.saturating_sub(earlier.harvested_uj),
            power_sent: self.power_sent.saturating_sub(earlier.power_sent),
            power_gated: self.power_gated.saturating_sub(earlier.power_gated),
        }
    }

    fn add(&mut self, other: Cum) {
        self.events = self.events.saturating_add(other.events);
        self.frames = self.frames.saturating_add(other.frames);
        self.retrans = self.retrans.saturating_add(other.retrans);
        self.corrupted = self.corrupted.saturating_add(other.corrupted);
        self.busy_ns = self.busy_ns.saturating_add(other.busy_ns);
        self.harvested_uj = self.harvested_uj.saturating_add(other.harvested_uj);
        self.power_sent = self.power_sent.saturating_add(other.power_sent);
        self.power_gated = self.power_gated.saturating_add(other.power_gated);
    }

    fn is_zero(&self) -> bool {
        *self == Cum::default()
    }
}

/// One deployment's sample series, keyed by shard (`None` for unsharded
/// metrics snapshots).
type Series = BTreeMap<Option<u64>, BTreeMap<u64, Cum>>;

/// Most windows a render may span. A record stamped past them is refused:
/// one wild `t` would otherwise make [`Aggregator::render`] walk billions
/// of windows. A 24 h capture in 1 s windows spans 86,400; the
/// benchmark's fleet spans 600.
pub const MAX_WINDOWS: u64 = 1 << 17;

/// Key of a `ckpt` record's state hash: `(deployment, shard, epoch)`.
pub type CkptKey = (String, Option<u64>, u64);

/// The streaming aggregation engine. Feed it lines (in any interleaving),
/// then [`Aggregator::render`].
#[derive(Debug, Default)]
pub struct Aggregator {
    window_ns: u64,
    header: Option<SessionHeader>,
    deployments: BTreeMap<String, Series>,
    /// State hashes from `ckpt` records, keyed by
    /// `(deployment, shard, epoch)`. Two captures of runs that should be
    /// identical diverge exactly where these maps first disagree — the
    /// live-fleet early warning that `powifi-obs ckpt bisect` then pinpoints
    /// offline from the chain files.
    ckpt_hashes: BTreeMap<CkptKey, String>,
    max_t: u64,
    records: u64,
    seq_seen: u64,
    seq_max: Option<u64>,
}

#[expect(clippy::wildcard_enum_match_arm, reason = "R11: not an event match")]
fn obj(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        _ => Err("expected a JSON object".into()),
    }
}

fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

#[expect(clippy::wildcard_enum_match_arm, reason = "R11: not an event match")]
#[expect(clippy::cast_possible_truncation, reason = "R5: a rounded count")]
fn get_u64(entries: &[(String, Value)], key: &str) -> Option<u64> {
    match get(entries, key)? {
        Value::UInt(u) => Some(*u),
        Value::Int(i) => u64::try_from(*i).ok(),
        // Gauges are f64 on the wire; cumulative counts are integral.
        Value::Float(f) if *f >= 0.0 && f.is_finite() => Some(f.round() as u64),
        _ => None,
    }
}

#[expect(clippy::wildcard_enum_match_arm, reason = "R11: not an event match")]
fn get_str<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    match get(entries, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

impl Aggregator {
    /// An aggregator with `cfg` windows.
    pub fn new(cfg: &AggConfig) -> Aggregator {
        Aggregator {
            window_ns: cfg.window.as_nanos().max(1),
            ..Aggregator::default()
        }
    }

    /// The session header, once seen.
    pub fn session(&self) -> Option<&SessionHeader> {
        self.header.as_ref()
    }

    /// Records ingested (header excluded).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Sequence numbers missing from the stream so far — dropped records
    /// (the egress queue consumes a seq even when it drops) or transport
    /// loss. Zero on a clean capture.
    pub fn seq_gaps(&self) -> u64 {
        // `seq_seen` is at least one once `seq_max` is set.
        match self.seq_max {
            Some(max) => max.saturating_sub(self.seq_seen - 1),
            None => 0,
        }
    }

    /// State hashes seen in `ckpt` records, keyed by
    /// `(deployment, shard, epoch)`.
    pub fn ckpt_hashes(&self) -> &BTreeMap<CkptKey, String> {
        &self.ckpt_hashes
    }

    /// First `(deployment, shard, epoch)` key at which this capture's
    /// checkpoint hashes disagree with `other`'s — the live divergence
    /// check for two runs that should be identical. Keys present in only
    /// one capture are skipped (different cadence is not divergence).
    pub fn first_ckpt_divergence<'a>(
        &'a self,
        other: &'a Aggregator,
    ) -> Option<(&'a CkptKey, &'a str, &'a str)> {
        self.ckpt_hashes.iter().find_map(|(k, h)| {
            other
                .ckpt_hashes
                .get(k)
                .and_then(|h2| (h != h2).then_some((k, h.as_str(), h2.as_str())))
        })
    }

    /// Ingest one wire line (header or record). Blank lines are ignored.
    pub fn ingest_line(&mut self, line: &str) -> Result<(), String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let entries = obj(&v)?;
        if get(entries, "powifi_stream").is_some() {
            let version =
                get_u64(entries, "powifi_stream").ok_or("non-integer powifi_stream version")?;
            if version != super::stream::WIRE_VERSION {
                return Err(format!("unsupported wire version {version}"));
            }
            self.header = Some(SessionHeader {
                run_id: get_str(entries, "run_id").unwrap_or("").to_string(),
                seed: get_u64(entries, "seed").unwrap_or(0),
                git_sha: get_str(entries, "git_sha").unwrap_or("").to_string(),
            });
            return Ok(());
        }
        let seq = get_u64(entries, "seq").ok_or("record without seq")?;
        self.seq_seen += 1;
        self.seq_max = Some(self.seq_max.map_or(seq, |m| m.max(seq)));
        let deployment = get_str(entries, "deployment")
            .ok_or("record without deployment")?
            .to_string();
        let kind = get_str(entries, "kind").ok_or("record without kind")?;
        let t = get_u64(entries, "t").ok_or("record without t")?;
        // Each window the render walks must end within `u64` nanoseconds.
        let windows = t.div_ceil(self.window_ns);
        if windows > MAX_WINDOWS || windows.checked_mul(self.window_ns).is_none() {
            return Err(format!("t {t} lies past {MAX_WINDOWS} windows"));
        }
        self.records += 1;
        self.max_t = self.max_t.max(t);
        match kind {
            "metrics" => {
                let m = get(entries, "metrics").ok_or("metrics record without metrics")?;
                let cum = cum_from_snapshot(obj(m)?)?;
                self.deployments
                    .entry(deployment)
                    .or_default()
                    .entry(None)
                    .or_default()
                    .insert(t, cum);
            }
            "progress" => {
                let shard = get_u64(entries, "shard");
                let f = get(entries, "fields").ok_or("progress record without fields")?;
                let f = obj(f)?;
                let cum = Cum {
                    events: get_u64(f, "events").unwrap_or(0),
                    frames: get_u64(f, "frames").unwrap_or(0),
                    retrans: get_u64(f, "retransmissions").unwrap_or(0),
                    corrupted: get_u64(f, "corrupted").unwrap_or(0),
                    busy_ns: get_u64(f, "busy_ns").unwrap_or(0),
                    harvested_uj: get_u64(f, "harvested_uj").unwrap_or(0),
                    power_sent: get_u64(f, "power_sent").unwrap_or(0),
                    power_gated: get_u64(f, "power_gated").unwrap_or(0),
                };
                self.deployments
                    .entry(deployment)
                    .or_default()
                    .entry(shard)
                    .or_default()
                    .insert(t, cum);
            }
            "ckpt" => {
                let epoch = get_u64(entries, "epoch").ok_or("ckpt record without epoch")?;
                let hash = get_str(entries, "hash")
                    .ok_or("ckpt record without hash")?
                    .to_string();
                self.ckpt_hashes
                    .insert((deployment, get_u64(entries, "shard"), epoch), hash);
            }
            // `end` only extends max_t (already done above) so the final
            // partial window renders.
            "end" => {}
            other => return Err(format!("unknown record kind `{other}`")),
        }
        Ok(())
    }

    /// Cumulative value of one series at-or-before `t` (zeros before the
    /// first sample).
    fn value_at(samples: &BTreeMap<u64, Cum>, t: u64) -> Cum {
        samples
            .range(..=t)
            .next_back()
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Render the aggregate: one NDJSON row per `(window, deployment)` in
    /// (window, name) order, plus a merged `*` row per window when the
    /// session carries several deployments. Byte-stable for a given record
    /// set regardless of wire interleaving.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deployments.is_empty() || self.max_t == 0 {
            return out;
        }
        let w = self.window_ns;
        let windows = self.max_t.div_ceil(w);
        for k in 0..windows {
            let (start, end) = (k * w, (k + 1) * w);
            let mut fleet = Cum::default();
            let mut fleet_rows = 0usize;
            for (name, series) in &self.deployments {
                let mut delta = Cum::default();
                for samples in series.values() {
                    delta.add(Self::value_at(samples, end).delta(Self::value_at(samples, start)));
                }
                // A deployment that ended before this window contributes
                // nothing and stays silent, rather than padding zero rows.
                if delta.is_zero()
                    && series
                        .values()
                        .all(|s| s.range(start + 1..).next().is_none())
                {
                    continue;
                }
                self.push_row(&mut out, k, start, end, name, delta);
                fleet.add(delta);
                fleet_rows += 1;
            }
            if fleet_rows > 1 {
                self.push_row(&mut out, k, start, end, "*", fleet);
            }
        }
        out
    }

    fn push_row(&self, out: &mut String, k: u64, start: u64, end: u64, name: &str, d: Cum) {
        let w_ns = (end - start).max(1) as f64;
        let _ = write!(
            out,
            "{{\"window\":{k},\"t_start_ns\":{start},\"t_end_ns\":{end},\"deployment\":"
        );
        write_string(out, name);
        let _ = write!(
            out,
            ",\"events\":{},\"frames\":{},\"retransmissions\":{},\"corrupted\":{},\
             \"busy_ns\":{},\"harvested_uj\":{},\"power_sent\":{},\"power_gated\":{}",
            d.events,
            d.frames,
            d.retrans,
            d.corrupted,
            d.busy_ns,
            d.harvested_uj,
            d.power_sent,
            d.power_gated
        );
        out.push_str(",\"events_per_s\":");
        write_float(out, d.events as f64 * 1e9 / w_ns);
        out.push_str(",\"occupancy\":");
        write_float(out, d.busy_ns as f64 / w_ns);
        out.push_str(",\"harvested_uw\":");
        write_float(out, d.harvested_uj as f64 * 1e9 / w_ns);
        out.push_str(",\"retry_rate\":");
        write_float(
            out,
            if d.frames > 0 {
                d.retrans as f64 / d.frames as f64
            } else {
                0.0
            },
        );
        out.push_str(",\"corruption_rate\":");
        write_float(
            out,
            if d.frames > 0 {
                d.corrupted as f64 / d.frames as f64
            } else {
                0.0
            },
        );
        out.push_str("}\n");
    }
}

/// Pull the cumulative counters out of a `metrics` snapshot object
/// (`{"counters":…,"gauges":…,"histograms":…}`).
fn cum_from_snapshot(entries: &[(String, Value)]) -> Result<Cum, String> {
    use super::metrics::keys;
    let counters = obj(get(entries, "counters").ok_or("snapshot without counters")?)?;
    let gauges = obj(get(entries, "gauges").ok_or("snapshot without gauges")?)?;
    Ok(Cum {
        events: get_u64(counters, keys::SIM_EVENTS).unwrap_or(0),
        frames: get_u64(gauges, keys::MAC_LIVE_FRAMES).unwrap_or(0),
        retrans: get_u64(gauges, keys::MAC_LIVE_RETRANSMISSIONS).unwrap_or(0),
        corrupted: get_u64(gauges, keys::MAC_LIVE_CORRUPTED).unwrap_or(0),
        busy_ns: get_u64(gauges, keys::MAC_LIVE_BUSY_NS).unwrap_or(0),
        harvested_uj: get_u64(gauges, keys::HARVEST_LIVE_ENERGY_UJ).unwrap_or(0),
        power_sent: get_u64(gauges, keys::CORE_LIVE_POWER_SENT).unwrap_or(0),
        power_gated: get_u64(gauges, keys::CORE_LIVE_POWER_GATED).unwrap_or(0),
    })
}

/// Aggregate a whole capture (header + records) with `cfg` windows.
pub fn aggregate_capture(text: &str, cfg: &AggConfig) -> Result<String, String> {
    let mut agg = Aggregator::new(cfg);
    for (i, line) in text.lines().enumerate() {
        agg.ingest_line(line)
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(agg.render())
}

#[cfg(test)]
mod tests {
    use super::super::stream::{Egress, Handle, SessionInfo};
    use super::*;
    use std::sync::Arc;

    fn capture(lines: &[String]) -> String {
        let mut s = String::new();
        for l in lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }

    fn drain(eg: &Arc<Egress>) -> Vec<String> {
        eg.close();
        let mut lines = Vec::new();
        while let Some(l) = eg.pop_wait() {
            lines.push(l);
        }
        lines
    }

    #[test]
    fn progress_records_window_and_merge_across_shards() {
        let eg = Egress::new(64);
        eg.push_raw(
            &SessionInfo {
                run_id: "t".into(),
                seed: 1,
                git_sha: "x".into(),
            }
            .header_line(),
        );
        let h = Handle::new(Arc::clone(&eg), "city0");
        let s = |t_ms: u64, shard, events, busy| {
            h.emit_progress(
                crate::SimTime::from_millis(t_ms),
                Some(shard),
                &[("events", events), ("busy_ns", busy)],
            );
        };
        // Two shards, two epochs each, interleaved out of order.
        s(1000, 1, 50, 100);
        s(1000, 0, 100, 200);
        s(2000, 0, 300, 500);
        s(2000, 1, 70, 150);
        h.emit_end(crate::SimTime::from_millis(2000));
        let text = capture(&drain(&eg));
        let out = aggregate_capture(&text, &AggConfig::default()).unwrap_or_default();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        // Window 0: shard sums 100+50 events, 200+100 busy.
        assert!(
            lines[0].contains("\"window\":0") && lines[0].contains("\"events\":150"),
            "{out}"
        );
        assert!(lines[0].contains("\"busy_ns\":300"), "{out}");
        // Window 1: deltas (300-100)+(70-50)=220 events.
        assert!(
            lines[1].contains("\"window\":1") && lines[1].contains("\"events\":220"),
            "{out}"
        );
        assert!(lines[1].contains("\"events_per_s\":220.0"), "{out}");
    }

    /// Deployment names come off the wire. Whatever they hold, every
    /// rendered row stays one line of JSON that gives the name back.
    #[test]
    fn rows_stay_json_for_any_deployment_name() {
        let name = "a\nb\u{1}\"q\\";
        let eg = Egress::new(64);
        let h = Handle::new(Arc::clone(&eg), name);
        for (t_ms, events) in [(1000, 10), (2000, 30)] {
            h.emit_progress(
                crate::SimTime::from_millis(t_ms),
                None,
                &[("events", events)],
            );
        }
        h.emit_end(crate::SimTime::from_millis(2000));
        let out = aggregate_capture(&capture(&drain(&eg)), &AggConfig::default()).unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        for row in out.lines() {
            let v = serde_json::from_str(row).unwrap_or_else(|e| panic!("{row:?}: {e:?}"));
            let fields = obj(&v).unwrap();
            assert_eq!(get_str(fields, "deployment"), Some(name), "{row:?}");
        }
    }

    #[test]
    fn interleaving_does_not_change_bytes() {
        let mk = |order: &[usize]| {
            let eg = Egress::new(64);
            let a = Handle::new(Arc::clone(&eg), "a");
            let b = Handle::new(Arc::clone(&eg), "b");
            let emits: Vec<Box<dyn Fn()>> = vec![
                Box::new(|| {
                    a.emit_progress(crate::SimTime::from_secs(1), None, &[("events", 10)]);
                }),
                Box::new(|| {
                    b.emit_progress(crate::SimTime::from_secs(1), None, &[("events", 20)]);
                }),
                Box::new(|| {
                    a.emit_progress(crate::SimTime::from_secs(2), None, &[("events", 30)]);
                }),
                Box::new(|| {
                    b.emit_progress(crate::SimTime::from_secs(2), None, &[("events", 60)]);
                }),
            ];
            for &i in order {
                emits[i]();
            }
            drop(emits);
            let text = capture(&drain(&eg));
            aggregate_capture(&text, &AggConfig::default()).unwrap_or_default()
        };
        let x = mk(&[0, 1, 2, 3]);
        let y = mk(&[3, 1, 2, 0]);
        assert_eq!(x, y);
        assert!(x.contains("\"deployment\":\"*\""), "merged fleet row: {x}");
    }

    #[test]
    fn metrics_snapshots_feed_windows() {
        crate::obs::metrics::reset();
        let eg = Egress::new(64);
        let h = Handle::new(Arc::clone(&eg), "office");
        use crate::obs::metrics::{counter, gauge, keys};
        counter(keys::SIM_EVENTS).add(1000);
        gauge(keys::MAC_LIVE_FRAMES).set(40.0);
        gauge(keys::MAC_LIVE_RETRANSMISSIONS).set(4.0);
        gauge(keys::MAC_LIVE_BUSY_NS).set(250_000_000.0);
        gauge(keys::HARVEST_LIVE_ENERGY_UJ).set(500.0);
        h.emit_metrics(
            crate::SimTime::from_secs(1),
            &crate::obs::metrics::snapshot(),
        );
        let text = capture(&drain(&eg));
        crate::obs::metrics::reset();
        let out = aggregate_capture(&text, &AggConfig::default()).unwrap_or_default();
        assert_eq!(out.lines().count(), 1, "{out}");
        assert!(out.contains("\"events\":1000"), "{out}");
        assert!(out.contains("\"retry_rate\":0.1"), "{out}");
        assert!(out.contains("\"occupancy\":0.25"), "{out}");
        assert!(out.contains("\"harvested_uw\":500.0"), "{out}");
    }

    #[test]
    fn seq_gaps_are_counted() {
        let mut agg = Aggregator::new(&AggConfig::default());
        for line in [
            "{\"seq\":0,\"deployment\":\"d\",\"kind\":\"end\",\"t\":10,\"dropped\":0}",
            "{\"seq\":3,\"deployment\":\"d\",\"kind\":\"end\",\"t\":20,\"dropped\":2}",
        ] {
            agg.ingest_line(line).unwrap_or_default();
        }
        assert_eq!(agg.seq_gaps(), 2);
    }

    #[test]
    fn malformed_lines_error() {
        let mut agg = Aggregator::new(&AggConfig::default());
        assert!(agg.ingest_line("not json").is_err());
        assert!(agg.ingest_line("{\"seq\":0}").is_err(), "missing fields");
        assert!(agg
            .ingest_line("{\"seq\":0,\"deployment\":\"d\",\"kind\":\"nope\",\"t\":1}")
            .is_err());
        assert_eq!(
            agg.ingest_line(
                "{\"seq\":0,\"deployment\":\"d\",\"kind\":\"trace\",\"t\":1,\
                 \"trace\":{\"t\":1,\"layer\":\"mac\",\"kind\":\"ack\",\"medium\":0,\"sta\":1}}"
            ),
            Err("unknown record kind `trace`".to_string()),
            "nothing writes a `trace` record"
        );
        assert!(agg.ingest_line("").is_ok(), "blank lines are fine");
    }

    #[test]
    fn ckpt_records_index_by_deployment_shard_epoch() {
        let mut a = Aggregator::new(&AggConfig::default());
        a.ingest_line(
            "{\"seq\":0,\"deployment\":\"d0\",\"kind\":\"ckpt\",\"t\":1,\"epoch\":1,\
             \"hash\":\"aa\"}",
        )
        .unwrap();
        a.ingest_line(
            "{\"seq\":1,\"deployment\":\"city\",\"kind\":\"ckpt\",\"t\":1,\"shard\":3,\
             \"epoch\":1,\"hash\":\"bb\"}",
        )
        .unwrap();
        assert_eq!(a.ckpt_hashes().len(), 2);
        assert_eq!(a.ckpt_hashes()[&("d0".into(), None, 1)], "aa");
        assert!(
            a.ingest_line("{\"seq\":2,\"deployment\":\"d0\",\"kind\":\"ckpt\",\"t\":1}")
                .is_err(),
            "ckpt without epoch/hash must error"
        );

        let mut b = Aggregator::new(&AggConfig::default());
        b.ingest_line(
            "{\"seq\":0,\"deployment\":\"d0\",\"kind\":\"ckpt\",\"t\":1,\"epoch\":1,\
             \"hash\":\"aa\"}",
        )
        .unwrap();
        b.ingest_line(
            "{\"seq\":1,\"deployment\":\"city\",\"kind\":\"ckpt\",\"t\":1,\"shard\":3,\
             \"epoch\":1,\"hash\":\"cc\"}",
        )
        .unwrap();
        let (key, ha, hb) = a.first_ckpt_divergence(&b).expect("hashes differ");
        assert_eq!(key, &("city".into(), Some(3), 1));
        assert_eq!((ha, hb), ("bb", "cc"));
        assert!(b.first_ckpt_divergence(&b).is_none(), "self-compare agrees");
    }

    #[test]
    fn header_roundtrip() {
        let mut agg = Aggregator::new(&AggConfig::default());
        let h = SessionInfo {
            run_id: "fleet-7".into(),
            seed: 7,
            git_sha: "abc".into(),
        };
        agg.ingest_line(&h.header_line()).unwrap_or_default();
        let parsed = agg.session().cloned().unwrap_or_default();
        assert_eq!(parsed.run_id, "fleet-7");
        assert_eq!(parsed.seed, 7);
        assert_eq!(parsed.git_sha, "abc");
        assert!(agg
            .ingest_line("{\"powifi_stream\":99,\"run_id\":\"x\",\"seed\":0,\"git_sha\":\"y\"}")
            .is_err());
    }
}
