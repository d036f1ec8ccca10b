//! Whole-deployment checkpoint/restore: freeze a running [`OfficeRun`]
//! at an epoch boundary, persist it as a versioned [`powifi_sim::ckpt`]
//! container, and later resume it such that *restore(checkpoint(t)) run to
//! T is byte-identical to an uninterrupted run to T* — the invariant every
//! golden and property test in this module pins.
//!
//! ## Restore is rebuild-and-overlay
//!
//! A checkpoint does not serialize builder tables or derived caches.
//! Instead [`resume_value`] re-executes the deterministic builder
//! ([`build_office`]) to get the static topology — stations, mediums,
//! path-loss links, intensity schedules, the injector and background-source
//! tables — then overlays every piece of dynamic state from the tree:
//!
//! * the event wheel (pending typed events, `now`, seq and executed
//!   counters) via `EventQueue::ckpt_restore`;
//! * MAC/DCF state via [`powifi_mac::ckpt::restore_mac`];
//! * the transport flow table via [`powifi_net::ckpt::restore_net`];
//! * each injector's RNG and control block, written inside its pending
//!   tick and overlaid onto the rebuilt injector on the same interface, and
//!   each background source's RNG, written inside its pending burst
//!   decision and overlaid onto the rebuilt source on the same station —
//!   exactly one pending event per injector and per source, or the
//!   checkpoint is refused;
//! * the epoch driver's monitoring harvester and busy-time baselines;
//! * the thread metrics registry via [`metrics::restore`].
//!
//! Purely derived caches (per-station airtime memos, scratch buffers) are
//! *not* serialized: recomputation is bit-identical, which the roundtrip
//! tests prove by comparing state hashes, not struct spot checks.
//!
//! A checkpoint taken under the conformance checker carries the pending
//! MAC audit event. It resumes only into a checked run, whose builder
//! re-installs the audit period that event re-posts with.

use crate::office::{build_office, OfficeConfig, OfficeRun, OfficeSpec, TrafficSpec};
use crate::telemetry::EpochDriver;
use crate::world::{DeployEvent, SimWorld, WorldEvent};
use powifi_core::CoreEvent;
use powifi_harvest::{Harvester, Store};
use powifi_mac::ckpt::{check_frame, check_id, restore_mac, save_mac};
use powifi_mac::{MacEvent, MediumId, StationId};
use powifi_net::ckpt::{restore_net, save_net};
use powifi_net::{Flow, NetEvent};
use powifi_sim::ckpt::{self, Ckpt, CkptError, Value, ValueExt};
use powifi_sim::ckpt_struct;
use powifi_sim::obs::metrics::{self, MetricsSnapshot};
use powifi_sim::SimDuration;

// ---------------------------------------------------------------- spec --

/// `{"kind": "none" | "tcp"}`, or `{"kind": "udp", "rate_mbps"}`.
impl Ckpt for TrafficSpec {
    fn to_ckpt(&self) -> Value {
        let kind = |k| Value::map().field("kind", Value::str(k));
        match self {
            TrafficSpec::None => kind("none").build(),
            TrafficSpec::Udp { rate_mbps } => kind("udp").put("rate_mbps", rate_mbps).build(),
            TrafficSpec::Tcp => kind("tcp").build(),
        }
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        Ok(match v.str_field("kind")? {
            "none" => TrafficSpec::None,
            "udp" => TrafficSpec::Udp {
                rate_mbps: v.field("rate_mbps")?,
            },
            "tcp" => TrafficSpec::Tcp,
            other => {
                return Err(CkptError::field(
                    "kind",
                    format!("unknown traffic kind {other:?}"),
                ))
            }
        })
    }
}

ckpt_struct!(OfficeConfig {
    neighbors_per_channel,
    load_per_channel,
    monitor_bin
});
ckpt_struct!(OfficeSpec {
    seed,
    scheme,
    cfg,
    traffic,
    secs,
    epoch
});

// -------------------------------------------------------------- events --

/// One pending event's checkpoint form. An injector tick or burst decision
/// writes its table entry's dynamic state in place, where the event sits.
fn event_v(ev: &WorldEvent, w: &SimWorld) -> Result<Value, CkptError> {
    let kind = |k| Value::map().field("kind", Value::str(k));
    Ok(match ev {
        WorldEvent::Mac(MacEvent::ArbFire(m)) => kind("arb_fire").put("medium", m).build(),
        WorldEvent::Mac(MacEvent::TxEnd(m)) => kind("tx_end").put("medium", m).build(),
        WorldEvent::Mac(MacEvent::Beacon {
            sta,
            interval,
            rate,
        }) => kind("beacon")
            .put("sta", sta)
            .put("interval", interval)
            .put("rate", rate)
            .build(),
        WorldEvent::Mac(MacEvent::Audit) => kind("audit").build(),
        WorldEvent::Net(NetEvent::UdpTick {
            flow,
            src,
            dst,
            interval,
            stop,
            seq,
        }) => kind("udp_tick")
            .put("flow", flow)
            .put("src", src)
            .put("dst", dst)
            .put("interval", interval)
            .put("stop", stop)
            .put("seq", seq)
            .build(),
        WorldEvent::Net(NetEvent::TcpRto { flow, epoch }) => kind("tcp_rto")
            .put("flow", flow)
            .put("epoch", epoch)
            .build(),
        WorldEvent::Net(NetEvent::TcpPush { flow, bytes }) => kind("tcp_push")
            .put("flow", flow)
            .put("bytes", bytes)
            .build(),
        WorldEvent::Net(NetEvent::PageStart { .. })
        | WorldEvent::Net(NetEvent::PageFetch { .. }) => {
            return Err(CkptError::Unsupported(
                "pending page-load events cannot be checkpointed".into(),
            ))
        }
        WorldEvent::Core(CoreEvent::InjectorTick(id)) => kind("injector_tick")
            .field("st", powifi_core::ckpt::save_injector(&w.power, *id))
            .build(),
        WorldEvent::Mac(MacEvent::Source { .. })
        | WorldEvent::Core(CoreEvent::SilentTick { .. })
        | WorldEvent::Core(CoreEvent::AttackTick { .. })
        | WorldEvent::Core(CoreEvent::CapperTick(_))
        | WorldEvent::Core(CoreEvent::TdmRotate(_)) => {
            return Err(CkptError::Unsupported(
                "traffic-source, silent-slot, power-DoS, capper and time-division \
                 events have no checkpoint form"
                    .into(),
            ))
        }
        WorldEvent::Deploy(DeployEvent::Burst(id)) => {
            let b = &w.bursts[*id];
            kind("burst").put("src", &b.src).put("rng", &b.rng).build()
        }
        WorldEvent::Deploy(DeployEvent::BgFrame { src, frame }) => {
            kind("bg_frame").put("src", src).put("frame", frame).build()
        }
    })
}

/// Pending events per rebuilt injector and background source. A run holds
/// exactly one injector tick per injector and one burst decision per
/// source; a checkpoint with more or fewer describes no state a run could
/// reach.
struct Pending {
    injectors: Vec<u32>,
    bursts: Vec<u32>,
}

impl Pending {
    /// Every entry has exactly one pending event.
    fn check(&self) -> Result<(), CkptError> {
        for (counts, kind, what) in [
            (&self.injectors, "injector_tick", "injector"),
            (&self.bursts, "burst", "background source"),
        ] {
            if let Some(id) = counts.iter().position(|&n| n != 1) {
                return Err(CkptError::field(
                    kind,
                    format!(
                        "rebuilt {what} {id} has {} pending events, not one",
                        counts[id]
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Decode one pending event. Station and medium ids are checked against
/// the rebuilt world's MAC; an injector tick or burst decision overlays its
/// state onto the rebuilt entry on the same interface or source station.
fn event_from(v: &Value, w: &mut SimWorld, pending: &mut Pending) -> Result<WorldEvent, CkptError> {
    let mac = &w.mac;
    let sta = |key| -> Result<StationId, CkptError> {
        let sta: StationId = v.field(key)?;
        check_id(sta.0, mac.station_count(), key)?;
        Ok(sta)
    };
    let medium = || -> Result<MediumId, CkptError> {
        let m: MediumId = v.field("medium")?;
        check_id(m.0, mac.medium_count(), "medium")?;
        Ok(m)
    };
    Ok(match v.str_field("kind")? {
        "arb_fire" => MacEvent::ArbFire(medium()?).into(),
        "tx_end" => MacEvent::TxEnd(medium()?).into(),
        "beacon" => MacEvent::Beacon {
            sta: sta("sta")?,
            interval: v.field("interval")?,
            rate: v.field("rate")?,
        }
        .into(),
        "audit" if mac.audits() => MacEvent::Audit.into(),
        "audit" => {
            return Err(CkptError::Unsupported(
                "checkpoint was taken under the conformance checker; resume it checked".into(),
            ))
        }
        "udp_tick" => NetEvent::UdpTick {
            flow: v.field("flow")?,
            src: sta("src")?,
            dst: sta("dst")?,
            interval: v.field("interval")?,
            stop: v.field("stop")?,
            seq: v.field("seq")?,
        }
        .into(),
        "tcp_rto" => NetEvent::TcpRto {
            flow: v.field("flow")?,
            epoch: v.field("epoch")?,
        }
        .into(),
        "tcp_push" => NetEvent::TcpPush {
            flow: v.field("flow")?,
            bytes: v.field("bytes")?,
        }
        .into(),
        "injector_tick" => {
            let id = powifi_core::ckpt::restore_injector(&mut w.power, v.get("st")?)?;
            pending.injectors[id] += 1;
            CoreEvent::InjectorTick(id).into()
        }
        "burst" => {
            let src: StationId = v.field("src")?;
            let id = w.bursts.iter().position(|b| b.src == src).ok_or_else(|| {
                CkptError::field(
                    "burst",
                    format!("rebuilt world has no burst source on station {}", src.0),
                )
            })?;
            pending.bursts[id] += 1;
            w.bursts[id].rng = v.field("rng")?;
            DeployEvent::Burst(id).into()
        }
        "bg_frame" => {
            let frame = v.field("frame")?;
            check_frame(&frame, mac.station_count())?;
            DeployEvent::BgFrame {
                src: sta("src")?,
                frame,
            }
            .into()
        }
        other => {
            return Err(CkptError::field(
                "kind",
                format!("unknown event kind {other:?}"),
            ))
        }
    })
}

// ------------------------------------------------------------- metrics --

/// The thread metrics registry scoped to *simulation* state. Host-transport
/// telemetry (`obs.stream.*`: egress queue depth, drop counts) measures how
/// fast the wire drained, not what the simulation did — it differs between
/// an in-process capture and a backpressured TCP subscriber, so letting it
/// into the checkpoint would break byte-identity between runs whose
/// simulated state is equal.
fn sim_metrics() -> MetricsSnapshot {
    let host = |k: &str| k.starts_with("obs.stream.");
    let mut s = metrics::snapshot();
    s.counters.retain(|k, _| !host(k));
    s.gauges.retain(|k, _| !host(k));
    s.histograms.retain(|k, _| !host(k));
    s
}

// -------------------------------------------------------------- driver --

fn harvester_v(h: &Harvester) -> Value {
    let (output_on, elapsed, design_efficiency) = h.ckpt_state();
    let store = match h.store {
        Store::Cap(c) => Value::map()
            .field("kind", Value::str("cap"))
            .put("volts", &c.volts)
            .build(),
        Store::Batt(b) => Value::map()
            .field("kind", Value::str("batt"))
            .put("charge_mah", &b.charge_mah)
            .build(),
    };
    Value::map()
        .put("output_on", &output_on)
        .put("elapsed", &elapsed)
        .put("design_efficiency", &design_efficiency)
        .field("store", store)
        .put("harvested_j", &h.harvested)
        .put("incident_j", &h.incident)
        .build()
}

fn harvester_overlay(h: &mut Harvester, v: &Value) -> Result<(), CkptError> {
    h.ckpt_restore(
        v.field("output_on")?,
        v.field("elapsed")?,
        v.field("design_efficiency")?,
    );
    let sv = v.get("store")?;
    match (&mut h.store, sv.str_field("kind")?) {
        (Store::Cap(c), "cap") => c.volts = sv.field("volts")?,
        (Store::Batt(b), "batt") => b.charge_mah = sv.field("charge_mah")?,
        (_, kind) => {
            return Err(CkptError::field(
                "store",
                format!("store kind {kind:?} does not match the rebuilt harvester"),
            ))
        }
    }
    h.harvested = v.field("harvested_j")?;
    h.incident = v.field("incident_j")?;
    Ok(())
}

fn driver_v(d: &EpochDriver) -> Value {
    Value::map()
        .field("harvester", harvester_v(&d.harvester))
        .put("prev_busy", &d.prev_busy)
        .build()
}

fn driver_overlay(d: &mut EpochDriver, v: &Value) -> Result<(), CkptError> {
    harvester_overlay(&mut d.harvester, v.get("harvester")?)?;
    let busy: Vec<SimDuration> = v.field("prev_busy")?;
    if busy.len() != d.prev_busy.len() {
        return Err(CkptError::field(
            "prev_busy",
            format!(
                "checkpoint has {} channels, rebuilt driver has {}",
                busy.len(),
                d.prev_busy.len()
            ),
        ));
    }
    d.prev_busy = busy;
    Ok(())
}

// ----------------------------------------------------------- top level --

/// Serialize a run's full state as a checkpoint tree. Must be called at an
/// epoch boundary (immediately after [`OfficeRun::step_epoch`]), which is
/// the only instant the epoch driver's baselines are consistent with the
/// queue time.
pub fn save_office(run: &OfficeRun) -> Result<Value, CkptError> {
    let (now, next_seq, executed) = run.q.ckpt_counters();
    let events = run
        .q
        .ckpt_pending()
        .into_iter()
        .map(|(t, seq, ev)| {
            Ok(Value::map()
                .put("t", &t)
                .put("seq", &seq)
                .field("ev", event_v(ev, &run.w)?)
                .build())
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    Ok(Value::map()
        .put("spec", &run.spec)
        .put("epoch", &run.epochs_done)
        .field(
            "queue",
            Value::map()
                .put("now", &now)
                .put("next_seq", &next_seq)
                .put("executed", &executed)
                .field("events", Value::Array(events))
                .build(),
        )
        .field("mac", save_mac(&run.w.mac))
        .field("net", save_net(&run.w.net)?)
        .put("metrics", &sim_metrics())
        .field("driver", driver_v(&run.drv))
        .build())
}

/// [`save_office`] rendered as a versioned, content-hashed container, plus
/// the state hash. The bytes are what `--checkpoint-every` writes to disk;
/// the hash is what the `ckpt` stream record and `powifi-obs ckpt` show.
pub fn checkpoint(run: &OfficeRun) -> Result<(Vec<u8>, String), CkptError> {
    let root = save_office(run)?;
    let hash = ckpt::state_hash(&root);
    Ok((ckpt::save(&root), hash))
}

/// Rebuild a run from a checkpoint tree: re-execute the builder for the
/// static topology, then overlay all dynamic state. Also restores the
/// thread metrics registry, so telemetry continues seamlessly.
pub fn resume_value(v: &Value) -> Result<OfficeRun, CkptError> {
    let spec: OfficeSpec = v.field("spec")?;
    if spec.cfg.monitor_bin.is_zero() {
        // `build_office`'s occupancy monitors would assert on it.
        return Err(CkptError::field("spec/cfg/monitor_bin", "must not be zero"));
    }
    let epochs_done = v.field("epoch")?;
    // Static topology only — client flows, pending events and all dynamic
    // state come from the tree. (Traffic spec is applied on cold starts;
    // here the flow table arrives wholesale from `restore_net`.)
    let (mut w, mut q, s) = build_office(spec.seed, spec.scheme, spec.cfg);
    let mut pending = Pending {
        injectors: vec![0; w.power.injector_count()],
        bursts: vec![0; w.bursts.len()],
    };
    let qv = v.get("queue")?;
    let entries = qv
        .list_field("events")?
        .iter()
        .map(|e| {
            Ok((
                e.field("t")?,
                e.field("seq")?,
                event_from(e.get("ev")?, &mut w, &mut pending)?,
            ))
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    pending.check()?;
    q.ckpt_restore(
        qv.field("now")?,
        qv.field("next_seq")?,
        qv.field("executed")?,
        entries,
    )?;
    restore_mac(&mut w.mac, v.get("mac")?)?;
    w.net = restore_net(v.get("net")?)?;
    for (_, flow) in w.net.flows() {
        if let Flow::Tcp(t) = flow {
            check_id(t.src.0, w.mac.station_count(), "flows/src")?;
            check_id(t.dst.0, w.mac.station_count(), "flows/dst")?;
        }
    }
    metrics::restore(&v.field("metrics")?)?;
    let mut drv = EpochDriver::new(spec.epoch, &s);
    driver_overlay(&mut drv, v.get("driver")?)?;
    Ok(OfficeRun {
        w,
        q,
        s,
        drv,
        spec,
        epochs_done,
    })
}

/// [`resume_value`] from container bytes (the on-disk checkpoint form).
pub fn resume(bytes: &[u8]) -> Result<OfficeRun, CkptError> {
    resume_value(&ckpt::load(bytes)?.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_core::Scheme;
    use powifi_rf::Bitrate;

    fn spec(traffic: TrafficSpec) -> OfficeSpec {
        OfficeSpec {
            seed: 11,
            scheme: Scheme::PoWiFi,
            cfg: OfficeConfig::default(),
            traffic,
            secs: 3,
            epoch: SimDuration::from_millis(500),
        }
    }

    /// The tentpole invariant: restore(checkpoint(t)) then run to T is
    /// byte-identical to an uninterrupted run to T.
    fn assert_resume_matches(traffic: TrafficSpec, ckpt_after: u64) {
        metrics::reset();
        let sp = spec(traffic);
        // Uninterrupted run to completion.
        let mut a = OfficeRun::start(&sp);
        while !a.done() {
            a.step_epoch();
        }
        let (_, hash_a) = checkpoint(&a).unwrap();
        let snap_a = metrics::snapshot();

        // Interrupted twin: checkpoint after `ckpt_after` epochs, resume
        // from bytes, run to completion.
        metrics::reset();
        let mut b = OfficeRun::start(&sp);
        for _ in 0..ckpt_after {
            b.step_epoch();
        }
        let (bytes, mid_hash) = checkpoint(&b).unwrap();
        drop(b);
        metrics::reset(); // simulate a fresh process
        let mut c = resume(&bytes).unwrap();
        // Re-checkpointing immediately must reproduce the same bytes.
        let (bytes2, mid_hash2) = checkpoint(&c).unwrap();
        assert_eq!(mid_hash, mid_hash2, "restore→save is a fixed point");
        assert_eq!(bytes, bytes2);
        while !c.done() {
            c.step_epoch();
        }
        let (_, hash_c) = checkpoint(&c).unwrap();
        assert_eq!(
            hash_a, hash_c,
            "resumed run diverged from uninterrupted run"
        );
        assert_eq!(snap_a, metrics::snapshot(), "metrics registries diverged");
        metrics::reset();
    }

    #[test]
    fn udp_run_resumes_byte_identically() {
        assert_resume_matches(TrafficSpec::Udp { rate_mbps: 10.0 }, 2);
    }

    #[test]
    fn tcp_run_resumes_byte_identically() {
        assert_resume_matches(TrafficSpec::Tcp, 3);
    }

    #[test]
    fn quiet_run_resumes_byte_identically() {
        assert_resume_matches(TrafficSpec::None, 1);
    }

    #[test]
    fn spec_roundtrips() {
        for sp in [
            spec(TrafficSpec::None),
            spec(TrafficSpec::Udp { rate_mbps: 24.5 }),
            OfficeSpec {
                scheme: Scheme::EqualShare(Bitrate::G12),
                ..spec(TrafficSpec::Tcp)
            },
        ] {
            let v = sp.to_ckpt();
            let back = OfficeSpec::from_ckpt(&v, "spec").unwrap();
            assert_eq!(
                ckpt::state_hash(&v),
                ckpt::state_hash(&back.to_ckpt()),
                "{sp:?}"
            );
        }
    }

    /// A checked run's checkpoint carries the pending audit event, which
    /// re-posts with the checked builder's audit period: an unchecked
    /// resume is refused.
    #[test]
    fn checked_checkpoint_resumes_only_checked() {
        let bytes = {
            let _g = powifi_sim::conformance::check();
            let mut run = OfficeRun::start(&spec(TrafficSpec::None));
            run.step_epoch();
            checkpoint(&run).unwrap().0
        };
        assert!(matches!(resume(&bytes), Err(CkptError::Unsupported(_))));
        metrics::reset();
    }

    /// `v[key]` of a map value, mutably.
    fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("{key}: not a map: {other:?}"),
        }
    }

    /// One edit of a saved queue's event list.
    #[derive(Debug)]
    enum Edit {
        /// Set the slot at this path under event `i`.
        Set(usize, &'static [&'static str], Value),
        /// Append a copy of event `i` under a seq no pending event holds.
        Duplicate(usize),
        /// Remove event `i`.
        Remove(usize),
    }

    /// A checkpoint with a valid hash but impossible queue content is
    /// refused with an error instead of aborting the process or resuming
    /// into a run no straight run matches: an event before `queue.now`, a
    /// seq the counter never issued, a medium id the rebuilt world does not
    /// have (or one past `u32`), an injector tick or burst decision for a
    /// station without an injector or source, and an injector or source
    /// with two pending events or none.
    #[test]
    fn resume_rejects_impossible_queue_content() {
        metrics::reset();
        let mut run = OfficeRun::start(&spec(TrafficSpec::Udp { rate_mbps: 10.0 }));
        run.step_epoch();
        let root = save_office(&run).unwrap();
        let q = root.get("queue").unwrap();
        let (now, next_seq): (u64, u64) = (q.field("now").unwrap(), q.field("next_seq").unwrap());
        let events = q.list_field("events").unwrap();
        let ev = |i: usize| events[i].get("ev").unwrap();
        assert_eq!(ev(1).str_field("kind"), Ok("tx_end"));
        let first = |kind| {
            (0..events.len())
                .find(|&i| ev(i).str_field("kind") == Ok(kind))
                .unwrap()
        };
        let (tick, burst) = (first("injector_tick"), first("burst"));
        let iface = ev(tick).get("st").unwrap().get("iface").unwrap().clone();
        let src = ev(burst).get("src").unwrap().clone();
        let seqs: Vec<u64> = events.iter().map(|e| e.field("seq").unwrap()).collect();
        let free = (0..next_seq).find(|s| !seqs.contains(s)).unwrap();
        let edits = [
            Edit::Set(1, &["t"], Value::UInt(now - 1)),
            Edit::Set(1, &["seq"], Value::UInt(next_seq)),
            Edit::Set(1, &["ev", "medium"], Value::UInt(1 << 32)),
            Edit::Set(1, &["ev", "medium"], Value::UInt(7)),
            Edit::Set(tick, &["ev", "st", "iface"], src),
            Edit::Set(burst, &["ev", "src"], iface),
            Edit::Duplicate(tick),
            Edit::Duplicate(burst),
            Edit::Remove(tick),
        ];
        let accepted: Vec<&Edit> = edits
            .iter()
            .filter(|edit| {
                let mut tree = root.clone();
                let Value::Array(events) = field_mut(field_mut(&mut tree, "queue"), "events")
                else {
                    panic!("queue.events is not a list");
                };
                match edit {
                    Edit::Set(i, path, bad) => {
                        *path
                            .iter()
                            .fold(&mut events[*i], |v, key| field_mut(v, key)) = bad.clone();
                    }
                    Edit::Duplicate(i) => {
                        let mut copy = events[*i].clone();
                        *field_mut(&mut copy, "seq") = Value::UInt(free);
                        events.push(copy);
                    }
                    Edit::Remove(i) => {
                        events.remove(*i);
                    }
                }
                !matches!(resume(&ckpt::save(&tree)), Err(CkptError::Field { .. }))
            })
            .collect();
        assert!(accepted.is_empty(), "accepted: {accepted:?}");
        metrics::reset();
    }

    /// Set every `path` slot under `v` to `bad` and count them: a list on
    /// the way fans out to each entry, and a map without the key is skipped.
    fn set_all(v: &mut Value, path: &[&str], bad: &Value) -> usize {
        match (v, path) {
            (slot, []) => {
                *slot = bad.clone();
                1
            }
            (Value::Array(items), _) => items.iter_mut().map(|x| set_all(x, path, bad)).sum(),
            (Value::Object(fields), [key, rest @ ..]) => fields
                .iter_mut()
                .filter(|(k, _)| k == key)
                .map(|(_, x)| set_all(x, rest, bad))
                .sum(),
            _ => 0,
        }
    }

    /// A checkpoint with a valid hash but a value the rebuilt world cannot
    /// hold — a station on a medium it does not have, a zero occupancy
    /// bin, an index past the table it indexes, or a histogram bucket bound
    /// that is not one of the registry's — is refused with the field's path
    /// instead of panicking or being misfiled later in the run.
    #[test]
    fn resume_rejects_state_the_rebuilt_world_cannot_hold() {
        metrics::reset();
        let mut run = OfficeRun::start(&spec(TrafficSpec::Udp { rate_mbps: 10.0 }));
        run.step_epoch();
        metrics::histogram("t.resume").observe(3.0);
        let root = save_office(&run).unwrap();
        let buckets = |bounds: &[f64]| {
            let pair = |&b: &f64| Value::Array(vec![Value::Float(b), Value::UInt(1)]);
            Value::Array(bounds.iter().map(pair).collect())
        };
        let hist = ["metrics", "histograms", "t.resume", "buckets"];
        let edits: [(&[&str], Value); 9] = [
            (&["mac", "stations", "medium"], Value::UInt(7)),
            (&["spec", "cfg", "monitor_bin"], Value::UInt(0)),
            (&["mac", "mediums", "monitor", "bin"], Value::UInt(0)),
            (&["mac", "stations", "rate_ctl", "best"], Value::UInt(8)),
            (&["mac", "stations", "rate_ctl", "probing"], Value::UInt(8)),
            (&["mac", "mediums", "in_flight", "class"], Value::UInt(2)),
            (&["mac", "stations", "rr"], Value::UInt(2)),
            (&hist, buckets(&[3.0])),
            (&hist, buckets(&[4.0, 2.0])),
        ];
        for (path, bad) in edits {
            let mut tree = root.clone();
            assert!(
                set_all(&mut tree, path, &bad) > 0,
                "{path:?}: no such field"
            );
            match resume(&ckpt::save(&tree)) {
                Err(CkptError::Field { path: at, .. }) => {
                    let key = path.last().unwrap();
                    assert!(at.ends_with(key), "{path:?} refused at {at}");
                }
                Err(e) => panic!("{path:?} = {bad:?} refused as {e}"),
                Ok(_) => panic!("{path:?} = {bad:?} was accepted"),
            }
        }
        metrics::reset();
    }

    /// Property sweep: checkpoint at a *random* epoch, restore, run to the
    /// end — events executed, harvested joules (bit-exact), the metrics
    /// snapshot and the final state hash must all equal the uninterrupted
    /// run's. Cases are drawn from a seeded stream, so the exploration is
    /// random-looking but reproducible. The second half of the cases runs
    /// under the conformance checker and must stay clean.
    #[test]
    fn checkpoint_at_random_epoch_is_transparent() {
        let mut rng = powifi_sim::SimRng::from_seed(0x5EED_CA5E);
        for case in 0..6u64 {
            let seed = rng.range(1..10_000u64);
            let traffic = match case % 3 {
                0 => TrafficSpec::Udp {
                    rate_mbps: 2.0 + rng.range(0..20u64) as f64,
                },
                1 => TrafficSpec::Tcp,
                _ => TrafficSpec::None,
            };
            let sp = OfficeSpec {
                seed,
                scheme: if case % 2 == 0 {
                    Scheme::PoWiFi
                } else {
                    Scheme::Baseline
                },
                cfg: OfficeConfig::default(),
                traffic,
                secs: 2,
                epoch: SimDuration::from_millis(500),
            };
            let checking = (case >= 3).then(powifi_sim::conformance::check);
            let ctx = format!(
                "case {case}: seed {seed}, {:?}, checked {}",
                sp.traffic,
                checking.is_some()
            );

            metrics::reset();
            let mut a = OfficeRun::start(&sp);
            let at = rng.range(1..a.total_epochs());
            while !a.done() {
                a.step_epoch();
            }
            let (_, hash_a) = checkpoint(&a).unwrap();
            let events_a = a.q.executed();
            let joules_a = a.drv.harvester().harvested.0.to_bits();
            let snap_a = metrics::snapshot();

            metrics::reset();
            let mut b = OfficeRun::start(&sp);
            for _ in 0..at {
                b.step_epoch();
            }
            let (bytes, _) = checkpoint(&b).unwrap();
            drop(b);
            metrics::reset(); // fresh process
            let mut c = resume(&bytes).unwrap();
            while !c.done() {
                c.step_epoch();
            }
            let (_, hash_c) = checkpoint(&c).unwrap();
            assert_eq!(hash_a, hash_c, "{ctx}: state hash after ckpt@{at}");
            assert_eq!(events_a, c.q.executed(), "{ctx}: events executed");
            assert_eq!(
                joules_a,
                c.drv.harvester().harvested.0.to_bits(),
                "{ctx}: harvested joules"
            );
            assert_eq!(snap_a, metrics::snapshot(), "{ctx}: metrics snapshot");
            if checking.is_some() {
                powifi_sim::conformance::assert_clean(&ctx);
            }
        }
        metrics::reset();
    }

    /// Host-transport telemetry must not leak into checkpoints: two runs
    /// with equal simulated state but different wire backpressure (one
    /// streaming, one not) must produce byte-identical checkpoints.
    #[test]
    fn host_transport_metrics_stay_out_of_checkpoints() {
        metrics::reset();
        let sp = spec(TrafficSpec::Udp { rate_mbps: 10.0 });
        let mut a = OfficeRun::start(&sp);
        a.step_epoch();
        let (bytes_a, _) = checkpoint(&a).unwrap();

        metrics::reset();
        let mut b = OfficeRun::start(&sp);
        b.step_epoch();
        // What a live egress under backpressure would have recorded.
        metrics::gauge(metrics::keys::OBS_STREAM_QUEUE_DEPTH).set(7.0);
        metrics::counter(metrics::keys::OBS_STREAM_DROPPED).inc();
        let (bytes_b, _) = checkpoint(&b).unwrap();
        assert_eq!(
            bytes_a, bytes_b,
            "obs.stream.* metrics leaked into the checkpoint"
        );
        metrics::reset();
    }

    #[test]
    fn harvester_state_survives_resume() {
        metrics::reset();
        let sp = spec(TrafficSpec::Udp { rate_mbps: 10.0 });
        let mut a = OfficeRun::start(&sp);
        a.step_epoch();
        a.step_epoch();
        let (bytes, _) = checkpoint(&a).unwrap();
        let b = resume(&bytes).unwrap();
        assert_eq!(
            a.drv.harvester().harvested.0.to_bits(),
            b.drv.harvester().harvested.0.to_bits(),
            "harvested joules must restore bit-exactly"
        );
        metrics::reset();
    }
}
