//! Whole-deployment checkpoint/restore: freeze a running office experiment
//! at an epoch boundary, persist it as a versioned [`powifi_sim::ckpt`]
//! container, and later resume it such that *restore(checkpoint(t)) run to
//! T is byte-identical to an uninterrupted run to T* — the invariant every
//! golden and property test in this module pins.
//!
//! ## Restore is rebuild-and-overlay
//!
//! A checkpoint does not serialize `Rc` graphs, builder tables or derived caches.
//! Instead [`resume_value`] re-executes the deterministic builder
//! ([`build_office`]) to get the static topology — stations, mediums,
//! path-loss links, intensity schedules, spawn-time `Rc` state blocks —
//! then overlays every piece of dynamic state from the tree:
//!
//! * the event wheel (pending typed events, `now`, seq and executed
//!   counters) via `EventQueue::ckpt_restore`;
//! * MAC/DCF state via [`powifi_mac::ckpt::restore_mac`];
//! * the transport flow table via [`powifi_net::ckpt::restore_net`];
//! * injector blocks (re-linked by interface) and background-burst blocks
//!   (re-linked by source station);
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

use crate::background::BurstSt;
use crate::office::{build_office, OfficeConfig, OfficeScenario};
use crate::telemetry::EpochDriver;
use crate::world::{DeployEvent, SimWorld, WorldEvent};
use powifi_core::{CoreEvent, InjectorSt, Scheme};
use powifi_harvest::{Harvester, Store};
use powifi_mac::ckpt::{
    bitrate_from_name, bitrate_name, frame_from, frame_v, restore_mac, rng_from, rng_v, save_mac,
};
use powifi_mac::{MacEvent, MediumId, Queue, RateController, StationId};
use powifi_net::ckpt::{restore_net, save_net};
use powifi_net::{start_tcp_flow, start_udp_flow, tcp_push_at, NetEvent};
use powifi_rf::Bitrate;
use powifi_sim::ckpt::{self, CkptError, Value};
use powifi_sim::obs::metrics::{self, HistogramSummary, MetricsSnapshot};
use powifi_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn field_err(path: &str, message: impl Into<String>) -> CkptError {
    CkptError::Field {
        path: path.to_string(),
        message: message.into(),
    }
}

/// Client traffic driven through the office run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// No client flow (occupancy/harvest-only runs).
    None,
    /// §4.1(a): CBR UDP at this offered rate (Mbit/s), client rate pinned
    /// to 54 Mbps, starting at t=100 ms and stopping at the run end.
    Udp {
        /// Offered rate, Mbit/s.
        rate_mbps: f64,
    },
    /// §4.1(b): one long-lived TCP flow, pushed a huge byte budget at
    /// t=100 ms.
    Tcp,
}

/// Everything needed to *rebuild* a run from scratch: the deterministic
/// builder inputs plus the run schedule. Stored inside every checkpoint so
/// a resume needs only the checkpoint file.
#[derive(Debug, Clone)]
pub struct OfficeSpec {
    /// World seed.
    pub seed: u64,
    /// Power-delivery scheme under test.
    pub scheme: Scheme,
    /// Office environment parameters.
    pub cfg: OfficeConfig,
    /// Client traffic.
    pub traffic: TrafficSpec,
    /// Total run length, seconds.
    pub secs: u64,
    /// Epoch (checkpoint/telemetry) width.
    pub epoch: SimDuration,
}

/// A live, epoch-steppable, checkpointable office run.
pub struct OfficeRun {
    /// The composed world.
    pub w: SimWorld,
    /// Its event queue.
    pub q: Queue<SimWorld>,
    /// The built scenario (router, client, channels).
    pub s: OfficeScenario,
    /// The live-telemetry driver stepping the run.
    pub drv: EpochDriver,
    /// The spec this run was started (or resumed) from.
    pub spec: OfficeSpec,
    /// Epochs completed so far.
    pub epochs_done: u64,
}

impl OfficeRun {
    /// Cold-start a run from its spec (epoch 0, nothing executed).
    pub fn start(spec: &OfficeSpec) -> OfficeRun {
        let (mut w, mut q, s) = build_office(spec.seed, spec.scheme, spec.cfg);
        let end = SimTime::from_secs(spec.secs);
        match spec.traffic {
            TrafficSpec::None => {}
            TrafficSpec::Udp { rate_mbps } => {
                // §4.1(a): "The client sets its Wi-Fi bitrate to 54 Mbps".
                w.mac.set_rate_controller(
                    s.router.client_iface().sta,
                    RateController::fixed(Bitrate::G54),
                );
                start_udp_flow(
                    &mut w,
                    &mut q,
                    s.router.client_iface().sta,
                    s.client,
                    rate_mbps,
                    SimTime::from_millis(100),
                    end,
                );
            }
            TrafficSpec::Tcp => {
                let flow = start_tcp_flow(&mut w, s.router.client_iface().sta, s.client);
                tcp_push_at(&mut q, SimTime::from_millis(100), flow, u64::MAX / 4);
            }
        }
        let drv = EpochDriver::new(spec.epoch, &s);
        OfficeRun {
            w,
            q,
            s,
            drv,
            spec: spec.clone(),
            epochs_done: 0,
        }
    }

    /// Total epochs the run spans (the last may be short).
    pub fn total_epochs(&self) -> u64 {
        let end = SimTime::from_secs(self.spec.secs).as_nanos();
        let width = self.spec.epoch.as_nanos().max(1);
        end.div_ceil(width)
    }

    /// Has the run reached its end?
    pub fn done(&self) -> bool {
        self.epochs_done >= self.total_epochs()
    }

    /// Advance one epoch: run the queue to the next boundary and fire the
    /// telemetry driver. Returns the boundary time.
    pub fn step_epoch(&mut self) -> SimTime {
        let end = SimTime::from_secs(self.spec.secs);
        let width = self.spec.epoch;
        let t =
            SimTime::from_nanos((width.as_nanos()).saturating_mul(self.epochs_done + 1)).min(end);
        self.q.run_until(&mut self.w, t);
        self.drv.after_epoch(&self.w, &self.s, t);
        self.epochs_done += 1;
        t
    }

    /// Current sim time of the run's queue.
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Mean client throughput achieved so far, Mbit/s (0 for quiet runs).
    /// The client flow is the run's only transport flow, so it is found by
    /// scan rather than a remembered id — which makes this work identically
    /// on cold-started and resumed runs.
    pub fn throughput_mbps(&self) -> f64 {
        self.w
            .net
            .flows()
            .map(|(_, f)| match f {
                powifi_net::Flow::Udp(u) => u.mean_mbps(),
                powifi_net::Flow::Tcp(t) => t.mean_mbps(),
            })
            .next()
            .unwrap_or(0.0)
    }

    /// Report the finished run's totals to the thread metrics registry —
    /// the same counters and gauges the experiment runners record at the
    /// end of a straight-through run.
    pub fn record_run_telemetry(&self) {
        let end = SimTime::from_secs(self.spec.secs);
        let (_, cum) = self.s.router.occupancy(&self.w.mac, end);
        self.w.mac.record_metrics();
        metrics::gauge(metrics::keys::MAC_OCCUPANCY).set(cum);
        for inj in &self.s.router.injectors {
            inj.borrow().record_metrics();
        }
    }
}

// ---------------------------------------------------------------- spec --

fn scheme_v(s: Scheme) -> Value {
    match s {
        Scheme::Baseline => Value::str("baseline"),
        Scheme::BlindUdp => Value::str("blind_udp"),
        Scheme::NoQueue => Value::str("no_queue"),
        Scheme::PoWiFi => Value::str("powifi"),
        Scheme::EqualShare(r) => Value::Str(format!("equal_share:{}", bitrate_name(r))),
    }
}

fn scheme_from(v: &Value) -> Result<Scheme, CkptError> {
    let s = v.as_str("spec.scheme")?;
    Ok(match s {
        "baseline" => Scheme::Baseline,
        "blind_udp" => Scheme::BlindUdp,
        "no_queue" => Scheme::NoQueue,
        "powifi" => Scheme::PoWiFi,
        other => match other.strip_prefix("equal_share:") {
            Some(rate) => Scheme::EqualShare(bitrate_from_name(rate, "spec.scheme")?),
            None => {
                return Err(field_err(
                    "spec.scheme",
                    format!("unknown scheme {other:?}"),
                ))
            }
        },
    })
}

fn traffic_v(t: TrafficSpec) -> Value {
    match t {
        TrafficSpec::None => Value::map().field("kind", Value::str("none")).build(),
        TrafficSpec::Udp { rate_mbps } => Value::map()
            .field("kind", Value::str("udp"))
            .field("rate_mbps", Value::f64(rate_mbps))
            .build(),
        TrafficSpec::Tcp => Value::map().field("kind", Value::str("tcp")).build(),
    }
}

fn traffic_from(v: &Value) -> Result<TrafficSpec, CkptError> {
    Ok(match v.str_field("kind")? {
        "none" => TrafficSpec::None,
        "udp" => TrafficSpec::Udp {
            rate_mbps: v.f64_field("rate_mbps")?,
        },
        "tcp" => TrafficSpec::Tcp,
        other => {
            return Err(field_err(
                "spec.traffic.kind",
                format!("unknown traffic kind {other:?}"),
            ))
        }
    })
}

fn spec_v(spec: &OfficeSpec) -> Value {
    Value::map()
        .field("seed", Value::U64(spec.seed))
        .field("scheme", scheme_v(spec.scheme))
        .field(
            "cfg",
            Value::map()
                .field(
                    "neighbors_per_channel",
                    Value::U64(spec.cfg.neighbors_per_channel as u64),
                )
                .field("load_per_channel", Value::f64(spec.cfg.load_per_channel))
                .field("monitor_bin", Value::U64(spec.cfg.monitor_bin.as_nanos()))
                .build(),
        )
        .field("traffic", traffic_v(spec.traffic))
        .field("secs", Value::U64(spec.secs))
        .field("epoch", Value::U64(spec.epoch.as_nanos()))
        .build()
}

fn spec_from(v: &Value) -> Result<OfficeSpec, CkptError> {
    let cfg = v.get("cfg")?;
    Ok(OfficeSpec {
        seed: v.u64_field("seed")?,
        scheme: scheme_from(v.get("scheme")?)?,
        cfg: OfficeConfig {
            neighbors_per_channel: cfg.u64_field("neighbors_per_channel")? as usize,
            load_per_channel: cfg.f64_field("load_per_channel")?,
            monitor_bin: SimDuration::from_nanos(cfg.u64_field("monitor_bin")?),
        },
        traffic: traffic_from(v.get("traffic")?)?,
        secs: v.u64_field("secs")?,
        epoch: SimDuration::from_nanos(v.u64_field("epoch")?),
    })
}

// -------------------------------------------------------------- events --

fn event_v(ev: &WorldEvent) -> Result<Value, CkptError> {
    Ok(match ev {
        WorldEvent::Mac(MacEvent::ArbFire(m)) => Value::map()
            .field("kind", Value::str("arb_fire"))
            .field("medium", Value::U64(m.0 as u64))
            .build(),
        WorldEvent::Mac(MacEvent::TxEnd(m)) => Value::map()
            .field("kind", Value::str("tx_end"))
            .field("medium", Value::U64(m.0 as u64))
            .build(),
        WorldEvent::Mac(MacEvent::Beacon {
            sta,
            interval,
            rate,
        }) => Value::map()
            .field("kind", Value::str("beacon"))
            .field("sta", Value::U64(sta.0 as u64))
            .field("interval", Value::U64(interval.as_nanos()))
            .field("rate", Value::str(bitrate_name(*rate)))
            .build(),
        WorldEvent::Mac(MacEvent::Audit) => Value::map().field("kind", Value::str("audit")).build(),
        WorldEvent::Net(NetEvent::UdpTick {
            flow,
            src,
            dst,
            interval,
            stop,
            seq,
        }) => Value::map()
            .field("kind", Value::str("udp_tick"))
            .field("flow", Value::U64(*flow as u64))
            .field("src", Value::U64(src.0 as u64))
            .field("dst", Value::U64(dst.0 as u64))
            .field("interval", Value::U64(interval.as_nanos()))
            .field("stop", Value::U64(stop.as_nanos()))
            .field("seq", Value::U64(*seq))
            .build(),
        WorldEvent::Net(NetEvent::TcpRto { flow, epoch }) => Value::map()
            .field("kind", Value::str("tcp_rto"))
            .field("flow", Value::U64(*flow as u64))
            .field("epoch", Value::U64(*epoch))
            .build(),
        WorldEvent::Net(NetEvent::TcpPush { flow, bytes }) => Value::map()
            .field("kind", Value::str("tcp_push"))
            .field("flow", Value::U64(*flow as u64))
            .field("bytes", Value::U64(*bytes))
            .build(),
        WorldEvent::Net(NetEvent::PageStart { .. })
        | WorldEvent::Net(NetEvent::PageFetch { .. }) => {
            return Err(CkptError::Unsupported(
                "pending page-load events cannot be checkpointed".into(),
            ))
        }
        WorldEvent::Core(CoreEvent::InjectorTick(st)) => Value::map()
            .field("kind", Value::str("injector_tick"))
            .field("st", powifi_core::ckpt::save_injector(&st.borrow()))
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
        WorldEvent::Deploy(DeployEvent::Burst(st)) => {
            let b = st.borrow();
            Value::map()
                .field("kind", Value::str("burst"))
                .field("src", Value::U64(b.src.0 as u64))
                .field("rng", rng_v(&b.rng))
                .build()
        }
        WorldEvent::Deploy(DeployEvent::BgFrame { src, frame }) => Value::map()
            .field("kind", Value::str("bg_frame"))
            .field("src", Value::U64(src.0 as u64))
            .field("frame", frame_v(frame))
            .build(),
    })
}

/// Spawn-time `Rc` state blocks harvested from a freshly rebuilt world's
/// queue, keyed for re-linking, plus whether the rebuilt world audits.
struct FreshBlocks {
    injectors: BTreeMap<u32, Rc<RefCell<InjectorSt>>>,
    bursts: BTreeMap<u32, Rc<RefCell<BurstSt>>>,
    audit: bool,
}

fn harvest_blocks(q: &Queue<SimWorld>) -> FreshBlocks {
    let mut blocks = FreshBlocks {
        injectors: BTreeMap::new(),
        bursts: BTreeMap::new(),
        audit: false,
    };
    for (_, _, ev) in q.ckpt_pending() {
        match ev {
            WorldEvent::Core(CoreEvent::InjectorTick(st)) => {
                let iface = powifi_core::ckpt::injector_iface(&st.borrow()).0;
                blocks.injectors.insert(iface, Rc::clone(st));
            }
            WorldEvent::Deploy(DeployEvent::Burst(st)) => {
                let src = st.borrow().src.0;
                blocks.bursts.insert(src, Rc::clone(st));
            }
            WorldEvent::Mac(MacEvent::Audit) => blocks.audit = true,
            // powifi-lint: allow(non-exhaustive-dispatch) — collection
            // filter, not a dispatch: only the Rc-carrying kinds and the
            // audit need re-linking, and a new kind cannot slip through
            // silently because `event_v` matches exhaustively at save time.
            _ => {}
        }
    }
    blocks
}

fn event_from(v: &Value, blocks: &FreshBlocks) -> Result<WorldEvent, CkptError> {
    Ok(match v.str_field("kind")? {
        "arb_fire" => MacEvent::ArbFire(MediumId(v.u64_field("medium")? as u32)).into(),
        "tx_end" => MacEvent::TxEnd(MediumId(v.u64_field("medium")? as u32)).into(),
        "beacon" => MacEvent::Beacon {
            sta: StationId(v.u64_field("sta")? as u32),
            interval: SimDuration::from_nanos(v.u64_field("interval")?),
            rate: bitrate_from_name(v.str_field("rate")?, "rate")?,
        }
        .into(),
        "audit" if blocks.audit => MacEvent::Audit.into(),
        "audit" => {
            return Err(CkptError::Unsupported(
                "checkpoint was taken under the conformance checker; resume it checked".into(),
            ))
        }
        "udp_tick" => NetEvent::UdpTick {
            flow: v.u64_field("flow")? as u32,
            src: StationId(v.u64_field("src")? as u32),
            dst: StationId(v.u64_field("dst")? as u32),
            interval: SimDuration::from_nanos(v.u64_field("interval")?),
            stop: SimTime::from_nanos(v.u64_field("stop")?),
            seq: v.u64_field("seq")?,
        }
        .into(),
        "tcp_rto" => NetEvent::TcpRto {
            flow: v.u64_field("flow")? as u32,
            epoch: v.u64_field("epoch")?,
        }
        .into(),
        "tcp_push" => NetEvent::TcpPush {
            flow: v.u64_field("flow")? as u32,
            bytes: v.u64_field("bytes")?,
        }
        .into(),
        "injector_tick" => {
            let st_v = v.get("st")?;
            let iface = st_v.u64_field("iface")? as u32;
            let rc = blocks.injectors.get(&iface).ok_or_else(|| {
                field_err(
                    "injector_tick",
                    format!("rebuilt world has no injector on iface {iface}"),
                )
            })?;
            powifi_core::ckpt::restore_injector(&mut rc.borrow_mut(), st_v)?;
            CoreEvent::InjectorTick(Rc::clone(rc)).into()
        }
        "burst" => {
            let src = v.u64_field("src")? as u32;
            let rc = blocks.bursts.get(&src).ok_or_else(|| {
                field_err(
                    "burst",
                    format!("rebuilt world has no burst source on station {src}"),
                )
            })?;
            rc.borrow_mut().rng = rng_from(v.get("rng")?, "rng")?;
            DeployEvent::Burst(Rc::clone(rc)).into()
        }
        "bg_frame" => DeployEvent::BgFrame {
            src: StationId(v.u64_field("src")? as u32),
            frame: frame_from(v.get("frame")?)?,
        }
        .into(),
        other => return Err(field_err("kind", format!("unknown event kind {other:?}"))),
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

/// Serialize a metrics snapshot into the checkpoint tree.
pub fn snapshot_v(s: &MetricsSnapshot) -> Value {
    let counters = s
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::U64(*v)))
        .collect();
    let gauges = s
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Value::f64(*v)))
        .collect();
    let hists = s
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                Value::map()
                    .field("count", Value::U64(h.count))
                    .field("sum", Value::f64(h.sum))
                    .field("min", Value::f64(h.min))
                    .field("max", Value::f64(h.max))
                    .field(
                        "buckets",
                        Value::List(
                            h.buckets
                                .iter()
                                .map(|&(bound, n)| {
                                    Value::List(vec![Value::f64(bound), Value::U64(n)])
                                })
                                .collect(),
                        ),
                    )
                    .build(),
            )
        })
        .collect();
    Value::map()
        .field("counters", Value::Map(counters))
        .field("gauges", Value::Map(gauges))
        .field("histograms", Value::Map(hists))
        .build()
}

/// Decode a [`snapshot_v`] tree.
pub fn snapshot_from(v: &Value) -> Result<MetricsSnapshot, CkptError> {
    let mut s = MetricsSnapshot::default();
    for (k, c) in v.get("counters")?.as_map("counters")? {
        s.counters.insert(k.clone(), c.as_u64("counters")?);
    }
    for (k, g) in v.get("gauges")?.as_map("gauges")? {
        s.gauges.insert(k.clone(), g.as_f64("gauges")?);
    }
    for (k, h) in v.get("histograms")?.as_map("histograms")? {
        let mut buckets = Vec::new();
        for b in h.list_field("buckets")? {
            let pair = b.as_list("buckets")?;
            if pair.len() != 2 {
                return Err(field_err("buckets", "entry must be [bound, count]"));
            }
            buckets.push((pair[0].as_f64("buckets")?, pair[1].as_u64("buckets")?));
        }
        s.histograms.insert(
            k.clone(),
            HistogramSummary {
                count: h.u64_field("count")?,
                sum: h.f64_field("sum")?,
                min: h.f64_field("min")?,
                max: h.f64_field("max")?,
                buckets,
            },
        );
    }
    Ok(s)
}

// -------------------------------------------------------------- driver --

fn harvester_v(h: &Harvester) -> Value {
    let (output_on, elapsed, design_efficiency) = h.ckpt_state();
    let store = match h.store {
        Store::Cap(c) => Value::map()
            .field("kind", Value::str("cap"))
            .field("volts", Value::f64(c.volts))
            .build(),
        Store::Batt(b) => Value::map()
            .field("kind", Value::str("batt"))
            .field("charge_mah", Value::f64(b.charge_mah))
            .build(),
    };
    Value::map()
        .field("output_on", Value::Bool(output_on))
        .field("elapsed", Value::U64(elapsed.as_nanos()))
        .field(
            "design_efficiency",
            Value::opt(design_efficiency, Value::f64),
        )
        .field("store", store)
        .field("harvested_j", Value::f64(h.harvested.0))
        .field("incident_j", Value::f64(h.incident.0))
        .build()
}

fn harvester_overlay(h: &mut Harvester, v: &Value) -> Result<(), CkptError> {
    let design = match v.get("design_efficiency")?.as_opt() {
        None => None,
        Some(d) => Some(d.as_f64("design_efficiency")?),
    };
    h.ckpt_restore(
        v.bool_field("output_on")?,
        SimDuration::from_nanos(v.u64_field("elapsed")?),
        design,
    );
    let sv = v.get("store")?;
    match (&mut h.store, sv.str_field("kind")?) {
        (Store::Cap(c), "cap") => c.volts = sv.f64_field("volts")?,
        (Store::Batt(b), "batt") => b.charge_mah = sv.f64_field("charge_mah")?,
        (_, kind) => {
            return Err(field_err(
                "store",
                format!("store kind {kind:?} does not match the rebuilt harvester"),
            ))
        }
    }
    h.harvested = powifi_sim::Joules(v.f64_field("harvested_j")?);
    h.incident = powifi_sim::Joules(v.f64_field("incident_j")?);
    Ok(())
}

fn driver_v(d: &EpochDriver) -> Value {
    Value::map()
        .field("harvester", harvester_v(&d.harvester))
        .field(
            "prev_busy",
            Value::List(
                d.prev_busy
                    .iter()
                    .map(|b| Value::U64(b.as_nanos()))
                    .collect(),
            ),
        )
        .build()
}

fn driver_overlay(d: &mut EpochDriver, v: &Value) -> Result<(), CkptError> {
    harvester_overlay(&mut d.harvester, v.get("harvester")?)?;
    let busy = v
        .list_field("prev_busy")?
        .iter()
        .map(|b| Ok(SimDuration::from_nanos(b.as_u64("prev_busy")?)))
        .collect::<Result<Vec<_>, CkptError>>()?;
    if busy.len() != d.prev_busy.len() {
        return Err(field_err(
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
                .field("t", Value::U64(t))
                .field("seq", Value::U64(seq))
                .field("ev", event_v(ev)?)
                .build())
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    Ok(Value::map()
        .field("spec", spec_v(&run.spec))
        .field("epoch", Value::U64(run.epochs_done))
        .field(
            "queue",
            Value::map()
                .field("now", Value::U64(now))
                .field("next_seq", Value::U64(next_seq))
                .field("executed", Value::U64(executed))
                .field("events", Value::List(events))
                .build(),
        )
        .field("mac", save_mac(&run.w.mac))
        .field("net", save_net(&run.w.net)?)
        .field("metrics", snapshot_v(&sim_metrics()))
        .field("driver", driver_v(&run.drv))
        .build())
}

/// [`save_office`] rendered as a versioned, content-hashed container, plus
/// the state hash. The bytes are what `--checkpoint-every` writes to disk;
/// the hash is what the `ckpt` stream record and `powifi-replay` show.
pub fn checkpoint(run: &OfficeRun) -> Result<(Vec<u8>, String), CkptError> {
    let root = save_office(run)?;
    let hash = ckpt::state_hash(&root);
    Ok((ckpt::save(&root), hash))
}

/// Rebuild a run from a checkpoint tree: re-execute the builder for the
/// static topology, then overlay all dynamic state. Also restores the
/// thread metrics registry, so telemetry continues seamlessly.
pub fn resume_value(v: &Value) -> Result<OfficeRun, CkptError> {
    let spec = spec_from(v.get("spec")?)?;
    let epochs_done = v.u64_field("epoch")?;
    // Static topology only — client flows, pending events and all dynamic
    // state come from the tree. (Traffic spec is applied on cold starts;
    // here the flow table arrives wholesale from `restore_net`.)
    let (mut w, mut q, s) = build_office(spec.seed, spec.scheme, spec.cfg);
    let blocks = harvest_blocks(&q);
    let qv = v.get("queue")?;
    let entries = qv
        .list_field("events")?
        .iter()
        .map(|e| {
            Ok((
                e.u64_field("t")?,
                e.u64_field("seq")?,
                event_from(e.get("ev")?, &blocks)?,
            ))
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    q.ckpt_restore(
        SimTime::from_nanos(qv.u64_field("now")?),
        qv.u64_field("next_seq")?,
        qv.u64_field("executed")?,
        entries,
    )?;
    restore_mac(&mut w.mac, v.get("mac")?)?;
    w.net = restore_net(v.get("net")?)?;
    metrics::restore(&snapshot_from(v.get("metrics")?)?);
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
            let v = spec_v(&sp);
            let back = spec_from(&v).unwrap();
            assert_eq!(
                ckpt::state_hash(&v),
                ckpt::state_hash(&spec_v(&back)),
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
            Value::Map(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("{key}: not a map: {other:?}"),
        }
    }

    /// A checkpoint with a valid hash but impossible queue content — an
    /// event before `queue.now`, or a seq the counter never issued — is
    /// refused with an error instead of aborting the process.
    #[test]
    fn resume_rejects_impossible_queue_content() {
        metrics::reset();
        let mut run = OfficeRun::start(&spec(TrafficSpec::Udp { rate_mbps: 10.0 }));
        run.step_epoch();
        let root = save_office(&run).unwrap();
        let q = root.get("queue").unwrap();
        let (now, next_seq) = (
            q.u64_field("now").unwrap(),
            q.u64_field("next_seq").unwrap(),
        );
        let edits: [(&str, Value); 2] = [("t", Value::U64(now - 1)), ("seq", Value::U64(next_seq))];
        for (key, bad) in edits {
            let mut tree = root.clone();
            let Value::List(events) = field_mut(field_mut(&mut tree, "queue"), "events") else {
                panic!("queue.events is not a list");
            };
            *field_mut(&mut events[1], key) = bad;
            let bytes = ckpt::save(&tree);
            assert!(
                matches!(resume(&bytes), Err(CkptError::Field { .. })),
                "edited {key} was accepted"
            );
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
