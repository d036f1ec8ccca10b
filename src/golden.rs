//! Golden-trace corpus: canonical per-seed event/frame traces.
//!
//! Six small, fixed scenarios exercise the main MAC behaviours — solo
//! broadcast, DCF contention, unicast retry, the `IP_Power` queue gate,
//! beacon/power interleaving, and a corrupted collision-heavy channel. Each
//! renders to a compact, fully deterministic JSON document (frame-by-frame
//! trace plus end-of-run counters) that is committed under `tests/golden/`
//! and byte-compared in CI. Any change to MAC timing, backoff, retry or
//! trace accounting shows up as a structural diff against the corpus.
//!
//! Every scenario runs under the conformance checker
//! ([`powifi_sim::conformance`](crate::sim::conformance)); the violation
//! count is part of the rendered document, so a checker regression is a
//! golden drift too.

use powifi_core::{spawn_injector, CoreStack, JitterModel, PowerTrafficConfig};
use powifi_mac::{
    start_source, Dest, Frame, Mac, PayloadTag, Queue, RateController, Source, StationId,
};
use powifi_rf::{Bitrate, Db};
use powifi_sim::conformance;
use powifi_sim::{SimDuration, SimRng, SimTime};
use serde::Value;

/// Trace-ring capacity; scenarios are sized so nothing is ever evicted.
const TRACE_CAP: usize = 512;

/// Start a source at `first` that enqueues `frame` every `period_us` µs
/// (once, for a zero period) while its sender holds fewer than `below`
/// frames.
fn saturate(
    w: &mut CoreStack,
    q: &mut Queue<CoreStack>,
    first: SimTime,
    frame: Frame,
    period_us: u64,
    below: usize,
) {
    let period = SimDuration::from_micros(period_us);
    start_source(
        w,
        q,
        first,
        Source {
            frame,
            period,
            below,
        },
    );
}

/// One canonical scenario.
pub struct GoldenScenario {
    /// Scenario (and golden file) name.
    pub name: &'static str,
    /// One-line description, embedded in the rendered JSON.
    pub about: &'static str,
    horizon: SimDuration,
    build: fn(&mut CoreStack, &mut Queue<CoreStack>),
}

/// The full corpus, in render order.
pub fn scenarios() -> Vec<GoldenScenario> {
    vec![
        GoldenScenario {
            name: "solo_broadcast",
            about: "one station saturating an idle channel with power frames",
            horizon: SimDuration::from_millis(5),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
                w.mac.enable_trace(m, TRACE_CAP);
                let frame = Frame::power(a, 1400, Bitrate::G54);
                saturate(w, q, SimTime::ZERO, frame, 400, 3);
            },
        },
        GoldenScenario {
            name: "contention_pair",
            about: "two stations contending for one channel via DCF backoff",
            horizon: SimDuration::from_millis(5),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                for rate in [Bitrate::G54, Bitrate::G24] {
                    let sta = w.mac.add_station(m, RateController::fixed(rate));
                    saturate(w, q, SimTime::ZERO, Frame::power(sta, 1200, rate), 500, 3);
                }
                w.mac.enable_trace(powifi_mac::MediumId(0), TRACE_CAP);
            },
        },
        GoldenScenario {
            name: "unicast_retry",
            about: "unicast over a dead link: full retry ladder then give-up",
            horizon: SimDuration::from_millis(20),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                let a = w.mac.add_station(m, RateController::fixed(Bitrate::G12));
                let b = w.mac.add_station(m, RateController::fixed(Bitrate::G12));
                w.mac.set_link_snr(a, b, Db(0.0));
                w.mac.enable_trace(m, TRACE_CAP);
                let tag = PayloadTag {
                    flow: 1,
                    seq: 0,
                    bytes: 600,
                };
                // A zero period: one frame, enqueued at t = 0.
                saturate(
                    w,
                    q,
                    SimTime::ZERO,
                    Frame::data(a, Dest::Unicast(b), tag),
                    0,
                    1,
                );
            },
        },
        GoldenScenario {
            name: "injector_gated",
            about: "power injector with IP_Power queue threshold 2 at 150 us",
            horizon: SimDuration::from_millis(5),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
                w.mac.enable_trace(m, TRACE_CAP);
                let cfg = PowerTrafficConfig {
                    payload_bytes: 1500,
                    bitrate: Bitrate::G54,
                    inter_packet_delay: SimDuration::from_micros(150),
                    qdepth_threshold: Some(2),
                    jitter: JitterModel::none(),
                };
                spawn_injector(
                    w,
                    q,
                    a,
                    cfg,
                    SimRng::from_seed(0).derive("golden-injector"),
                    SimTime::ZERO,
                );
            },
        },
        GoldenScenario {
            name: "beacons_and_power",
            about: "AP beacons interleaved with a second station's power frames",
            horizon: SimDuration::from_millis(10),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                let ap = w.mac.add_station(m, RateController::fixed(Bitrate::B1));
                let inj = w.mac.add_station(m, RateController::fixed(Bitrate::G24));
                w.mac.enable_trace(m, TRACE_CAP);
                powifi_mac::start_beacons(
                    q,
                    ap,
                    SimTime::ZERO,
                    SimDuration::from_micros(2_000),
                    Bitrate::B1,
                );
                let frame = Frame::power(inj, 1000, Bitrate::G24);
                saturate(w, q, SimTime::ZERO, frame, 800, 2);
            },
        },
        GoldenScenario {
            name: "collision_storm",
            about: "five stations on a channel with 20% external corruption",
            horizon: SimDuration::from_millis(8),
            build: |w, q| {
                let m = w.mac.add_medium(SimDuration::from_millis(1));
                w.mac.set_corruption(m, 0.2);
                w.mac.enable_trace(m, TRACE_CAP);
                for i in 0..5u32 {
                    let rate = if i % 2 == 0 {
                        Bitrate::G24
                    } else {
                        Bitrate::G6
                    };
                    let sta = w.mac.add_station(m, RateController::fixed(rate));
                    let first = SimTime::from_micros(u64::from(i) * 37);
                    saturate(w, q, first, Frame::power(sta, 900, rate), 600, 2);
                }
            },
        },
    ]
}

/// The scenario named `name`. Panics on an unknown name.
fn scenario(name: &str) -> GoldenScenario {
    scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown golden scenario {name:?}"))
}

/// Build scenario `name` and run it to its horizon, outside the checker.
fn run_unchecked(name: &str) {
    let sc = scenario(name);
    let mut w = CoreStack::new(Mac::new(SimRng::from_seed(0).derive(sc.name)));
    let mut q = Queue::new();
    (sc.build)(&mut w, &mut q);
    q.run_until(&mut w, SimTime::ZERO + sc.horizon);
}

/// Render a scenario's structured observability trace
/// ([`powifi_sim::obs::trace`](crate::sim::obs::trace)) as JSONL, exactly
/// as a `--trace` capture of the same simulation would produce it. Fully
/// deterministic — byte-compared against `tests/golden/<name>.trace.jsonl`
/// in CI. Panics on an unknown name.
pub fn render_trace(name: &str) -> String {
    powifi_sim::obs::trace::capture_jsonl(|| run_unchecked(name)).1
}

/// Render a scenario's sim-time span profile
/// ([`powifi_sim::obs::prof`](crate::sim::obs::prof)) as one line of JSON
/// plus trailing newline — the snapshot a `--prof` capture of the same
/// simulation would record. Wall timing stays off, so the output is fully
/// deterministic and byte-compared against
/// `tests/golden/<name>.prof.jsonl` in CI. Panics on an unknown name.
pub fn render_prof(name: &str) -> String {
    powifi_sim::obs::prof::capture(|| run_unchecked(name))
        .1
        .to_json()
        + "\n"
}

/// Render a scenario by name to its canonical JSON document (trailing
/// newline included). Panics on an unknown name.
pub fn render(name: &str) -> String {
    render_scenario(&scenario(name))
}

fn render_scenario(sc: &GoldenScenario) -> String {
    // Run under the checker in a sink of its own, so golden rendering
    // composes with an enclosing checked test.
    let ((w, q), (violations, _)) = conformance::capture(|| {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(0).derive(sc.name)));
        let mut q = Queue::new();
        (sc.build)(&mut w, &mut q);
        powifi_mac::conformance::install_audit(&mut w, &mut q, SimDuration::from_millis(1));
        let end = SimTime::ZERO + sc.horizon;
        q.run_until(&mut w, end);
        powifi_mac::conformance::audit_now(&w, end);
        (w, q)
    });

    let mut frames = Vec::new();
    for mi in 0..w.mac.medium_count() {
        let m = powifi_mac::MediumId(mi as u32);
        if let Some(tr) = w.mac.trace(m) {
            for r in tr.records() {
                let dst = match r.dst {
                    Dest::Broadcast => "bcast".to_string(),
                    Dest::Unicast(s) => format!("sta{}", s.0),
                };
                frames.push(Value::Str(format!(
                    "{} sta{} > {} {:?} {}B @{} {}",
                    r.t.as_nanos(),
                    r.src.0,
                    dst,
                    r.kind,
                    r.bytes,
                    r.rate.mbps(),
                    if r.collided { "coll" } else { "ok" },
                )));
            }
        }
    }

    let stations: Vec<Value> = (0..w.mac.station_count())
        .map(|s| {
            let st = w.mac.station(StationId(s as u32));
            Value::Object(vec![
                ("sta".into(), Value::UInt(s as u64)),
                ("frames_sent".into(), Value::UInt(st.frames_sent)),
                ("retransmissions".into(), Value::UInt(st.retransmissions)),
                ("queue_drops".into(), Value::UInt(st.queue_drops)),
            ])
        })
        .collect();
    let mediums: Vec<Value> = (0..w.mac.medium_count())
        .map(|mi| {
            let m = powifi_mac::MediumId(mi as u32);
            Value::Object(vec![
                ("medium".into(), Value::UInt(mi as u64)),
                ("collisions".into(), Value::UInt(w.mac.collisions(m))),
                ("busy_ns".into(), Value::UInt(w.mac.busy_time(m).as_nanos())),
            ])
        })
        .collect();

    let doc = Value::Object(vec![
        ("scenario".into(), Value::Str(sc.name.into())),
        ("about".into(), Value::Str(sc.about.into())),
        ("horizon_ns".into(), Value::UInt(sc.horizon.as_nanos())),
        ("events_executed".into(), Value::UInt(q.executed())),
        ("conformance_violations".into(), Value::UInt(violations)),
        ("frames".into(), Value::Array(frames)),
        ("stations".into(), Value::Array(stations)),
        ("mediums".into(), Value::Array(mediums)),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("golden serialization");
    out.push('\n');
    out
}
