//! MAC-layer checkpoint state: serialize every dynamic field of a [`Mac`]
//! into a [`Value`] tree and overlay it back onto a freshly rebuilt
//! topology.
//!
//! Restore is *overlay*, not reconstruction: the caller rebuilds the same
//! station/medium/link topology from the experiment config (same seed,
//! same scheme), then [`restore_mac`] copies the dynamic state — queues,
//! DCF contention, rate-controller positions, occupancy accounting, RNG
//! stream positions — over it. Pure memoization caches (`per_cache`, the
//! occupancy airtime memo) are reset instead of serialized: recomputation
//! yields bit-identical values, so dropping them cannot perturb the run.

use crate::frame::{Dest, Frame, FrameKind, MediumId, PayloadTag, StationId};
use crate::rate_adapt::{AarfState, MinstrelState, RateController, RateStats};
use crate::trace::{FrameRecord, FrameTrace};
use crate::world::{Contender, InFlight, Mac, StaState};
use powifi_rf::Bitrate;
use powifi_sim::ckpt::{CkptError, Value};
use powifi_sim::units::{Db, Seconds};
use powifi_sim::{EventHandle, PowerEnvelope, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

fn field_err(path: &str, message: impl Into<String>) -> CkptError {
    CkptError::Field {
        path: path.to_string(),
        message: message.into(),
    }
}

/// Canonical name of a PHY rate (part of the checkpoint wire format).
pub fn bitrate_name(r: Bitrate) -> &'static str {
    match r {
        Bitrate::B1 => "B1",
        Bitrate::B2 => "B2",
        Bitrate::B5_5 => "B5_5",
        Bitrate::B11 => "B11",
        Bitrate::G6 => "G6",
        Bitrate::G9 => "G9",
        Bitrate::G12 => "G12",
        Bitrate::G18 => "G18",
        Bitrate::G24 => "G24",
        Bitrate::G36 => "G36",
        Bitrate::G48 => "G48",
        Bitrate::G54 => "G54",
    }
}

/// Inverse of [`bitrate_name`].
pub fn bitrate_from_name(name: &str, path: &str) -> Result<Bitrate, CkptError> {
    Ok(match name {
        "B1" => Bitrate::B1,
        "B2" => Bitrate::B2,
        "B5_5" => Bitrate::B5_5,
        "B11" => Bitrate::B11,
        "G6" => Bitrate::G6,
        "G9" => Bitrate::G9,
        "G12" => Bitrate::G12,
        "G18" => Bitrate::G18,
        "G24" => Bitrate::G24,
        "G36" => Bitrate::G36,
        "G48" => Bitrate::G48,
        "G54" => Bitrate::G54,
        other => return Err(field_err(path, format!("unknown bitrate {other:?}"))),
    })
}

fn time_v(t: SimTime) -> Value {
    Value::U64(t.as_nanos())
}

fn time_from(v: &Value, path: &str) -> Result<SimTime, CkptError> {
    Ok(SimTime::from_nanos(v.as_u64(path)?))
}

fn dur_v(d: SimDuration) -> Value {
    Value::U64(d.as_nanos())
}

fn dur_from(v: &Value, path: &str) -> Result<SimDuration, CkptError> {
    Ok(SimDuration::from_nanos(v.as_u64(path)?))
}

/// Serialize an RNG position `(base, state words)`.
pub fn rng_v(rng: &SimRng) -> Value {
    let (base, s) = rng.ckpt_state();
    Value::map()
        .field("base", Value::U64(base))
        .field(
            "state",
            Value::List(s.iter().map(|&w| Value::U64(w)).collect()),
        )
        .build()
}

/// Rebuild an RNG from [`rng_v`] output.
pub fn rng_from(v: &Value, path: &str) -> Result<SimRng, CkptError> {
    let base = v.u64_field("base")?;
    let state = v.list_field("state")?;
    if state.len() != 4 {
        return Err(field_err(path, "rng state must have 4 words"));
    }
    let mut s = [0u64; 4];
    for (i, w) in state.iter().enumerate() {
        s[i] = w.as_u64(path)?;
    }
    Ok(SimRng::from_ckpt_state(base, s))
}

/// Serialize one frame (shared with the deploy layer's pending-event
/// codec, which checkpoints `BgFrame` arrivals).
pub fn frame_v(f: &Frame) -> Value {
    Value::map()
        .field("id", Value::U64(f.id))
        .field("kind", Value::str(kind_name(f.kind)))
        .field("src", Value::U64(f.src.0 as u64))
        .field(
            "dst",
            match f.dst {
                Dest::Unicast(sta) => Value::U64(sta.0 as u64),
                Dest::Broadcast => Value::Null,
            },
        )
        .field("bytes", Value::U64(f.bytes as u64))
        .field("rate", Value::opt(f.rate, |r| Value::str(bitrate_name(r))))
        .field("flow", Value::U64(f.payload.flow as u64))
        .field("seq", Value::U64(f.payload.seq))
        .field("payload_bytes", Value::U64(f.payload.bytes as u64))
        .field("enqueued_at", time_v(f.enqueued_at))
        .build()
}

fn kind_name(k: FrameKind) -> &'static str {
    match k {
        FrameKind::Data => "data",
        FrameKind::Power => "power",
        FrameKind::Beacon => "beacon",
        FrameKind::Management => "management",
    }
}

fn kind_from(name: &str, path: &str) -> Result<FrameKind, CkptError> {
    Ok(match name {
        "data" => FrameKind::Data,
        "power" => FrameKind::Power,
        "beacon" => FrameKind::Beacon,
        "management" => FrameKind::Management,
        other => return Err(field_err(path, format!("unknown frame kind {other:?}"))),
    })
}

/// Decode a [`frame_v`] tree.
pub fn frame_from(v: &Value) -> Result<Frame, CkptError> {
    Ok(Frame {
        id: v.u64_field("id")?,
        kind: kind_from(v.str_field("kind")?, "kind")?,
        src: StationId(v.u64_field("src")? as u32),
        dst: match v.get("dst")?.as_opt() {
            None => Dest::Broadcast,
            Some(d) => Dest::Unicast(StationId(d.as_u64("dst")? as u32)),
        },
        bytes: v.u64_field("bytes")? as u32,
        rate: match v.get("rate")?.as_opt() {
            None => None,
            Some(r) => Some(bitrate_from_name(r.as_str("rate")?, "rate")?),
        },
        payload: PayloadTag {
            flow: v.u64_field("flow")? as u32,
            seq: v.u64_field("seq")?,
            bytes: v.u64_field("payload_bytes")? as u32,
        },
        enqueued_at: time_from(v.get("enqueued_at")?, "enqueued_at")?,
    })
}

fn rate_ctl_v(ctl: &RateController) -> Value {
    match ctl {
        RateController::Fixed(rate) => Value::map()
            .field("kind", Value::str("fixed"))
            .field("rate", Value::str(bitrate_name(*rate)))
            .build(),
        RateController::Adaptive(a) => Value::map()
            .field("kind", Value::str("aarf"))
            .field("rate", Value::str(bitrate_name(a.rate)))
            .field("success_streak", Value::U64(a.success_streak as u64))
            .field("fail_streak", Value::U64(a.fail_streak as u64))
            .field("probe_threshold", Value::U64(a.probe_threshold as u64))
            .field("probing", Value::Bool(a.probing))
            .build(),
        RateController::Minstrel(m) => Value::map()
            .field("kind", Value::str("minstrel"))
            .field(
                "stats",
                Value::List(
                    m.stats
                        .iter()
                        .map(|s| {
                            Value::map()
                                .field("attempts", Value::U64(s.attempts as u64))
                                .field("successes", Value::U64(s.successes as u64))
                                .field("ewma_prob", Value::f64(s.ewma_prob))
                                .build()
                        })
                        .collect(),
                ),
            )
            .field("best", Value::U64(m.best as u64))
            .field("probing", Value::opt(m.probing, |p| Value::U64(p as u64)))
            .field("frames", Value::U64(m.frames as u64))
            .field("window", Value::U64(m.window as u64))
            .build(),
    }
}

fn rate_ctl_from(v: &Value) -> Result<RateController, CkptError> {
    match v.str_field("kind")? {
        "fixed" => Ok(RateController::Fixed(bitrate_from_name(
            v.str_field("rate")?,
            "rate",
        )?)),
        "aarf" => Ok(RateController::Adaptive(AarfState {
            rate: bitrate_from_name(v.str_field("rate")?, "rate")?,
            success_streak: v.u64_field("success_streak")? as u32,
            fail_streak: v.u64_field("fail_streak")? as u32,
            probe_threshold: v.u64_field("probe_threshold")? as u32,
            probing: v.bool_field("probing")?,
        })),
        "minstrel" => {
            let stats_v = v.list_field("stats")?;
            if stats_v.len() != 8 {
                return Err(field_err("stats", "minstrel stats must have 8 entries"));
            }
            let mut stats = [RateStats {
                attempts: 0,
                successes: 0,
                ewma_prob: 0.0,
            }; 8];
            for (i, s) in stats_v.iter().enumerate() {
                stats[i] = RateStats {
                    attempts: s.u64_field("attempts")? as u32,
                    successes: s.u64_field("successes")? as u32,
                    ewma_prob: s.f64_field("ewma_prob")?,
                };
            }
            Ok(RateController::Minstrel(MinstrelState {
                stats,
                best: v.u64_field("best")? as usize,
                probing: match v.get("probing")?.as_opt() {
                    None => None,
                    Some(p) => Some(p.as_u64("probing")? as usize),
                },
                frames: v.u64_field("frames")? as u32,
                window: v.u64_field("window")? as u32,
            }))
        }
        other => Err(field_err(
            "kind",
            format!("unknown rate controller {other:?}"),
        )),
    }
}

fn sta_state_name(s: StaState) -> &'static str {
    match s {
        StaState::Idle => "idle",
        StaState::Contending => "contending",
        StaState::Transmitting => "transmitting",
    }
}

fn sta_state_from(name: &str) -> Result<StaState, CkptError> {
    Ok(match name {
        "idle" => StaState::Idle,
        "contending" => StaState::Contending,
        "transmitting" => StaState::Transmitting,
        other => {
            return Err(field_err(
                "state",
                format!("unknown station state {other:?}"),
            ))
        }
    })
}

fn envelope_v(e: &PowerEnvelope) -> Value {
    Value::List(
        e.ckpt_changes()
            .iter()
            .map(|&(t, level)| Value::List(vec![time_v(t), Value::f64(level)]))
            .collect(),
    )
}

fn envelope_from(v: &Value) -> Result<PowerEnvelope, CkptError> {
    let mut changes = Vec::new();
    for item in v.as_list("envelope")? {
        let pair = item.as_list("envelope")?;
        if pair.len() != 2 {
            return Err(field_err("envelope", "change point must be [t, level]"));
        }
        changes.push((
            time_from(&pair[0], "envelope")?,
            pair[1].as_f64("envelope")?,
        ));
    }
    Ok(PowerEnvelope::from_ckpt_changes(changes))
}

fn f64_list_v(xs: &[Seconds]) -> Value {
    Value::List(xs.iter().map(|s| Value::f64(s.0)).collect())
}

fn seconds_from(v: &Value, path: &str) -> Result<Vec<Seconds>, CkptError> {
    v.as_list(path)?
        .iter()
        .map(|x| x.as_f64(path).map(Seconds))
        .collect()
}

/// Serialize every dynamic field of the MAC.
pub fn save_mac(mac: &Mac) -> Value {
    let stations = mac
        .stations
        .iter()
        .map(|s| {
            Value::map()
                .field("medium", Value::U64(s.medium.0 as u64))
                .field("q0", Value::List(s.queues[0].iter().map(frame_v).collect()))
                .field("q1", Value::List(s.queues[1].iter().map(frame_v).collect()))
                .field("rr", Value::U64(s.rr as u64))
                .field("queue_cap", Value::U64(s.queue_cap as u64))
                .field("state", Value::str(sta_state_name(s.state)))
                .field("cw", Value::U64(s.cw as u64))
                .field("retries", Value::U64(s.retries as u64))
                .field("rate_ctl", rate_ctl_v(&s.rate_ctl))
                .field("wants_broadcast", Value::Bool(s.wants_broadcast))
                .field("frames_sent", Value::U64(s.frames_sent))
                .field("retransmissions", Value::U64(s.retransmissions))
                .field("queue_drops", Value::U64(s.queue_drops))
                .build()
        })
        .collect();

    let mediums = mac
        .mediums
        .iter()
        .map(|m| {
            let mon = &m.monitor;
            let monitor = Value::map()
                .field("bin", dur_v(mon.bin))
                .field(
                    "tracked",
                    Value::List(mon.tracked.iter().map(|&b| Value::Bool(b)).collect()),
                )
                .field("tshark_tracked", f64_list_v(&mon.tshark_tracked))
                .field("tshark_all", f64_list_v(&mon.tshark_all))
                .field("phys_tracked", f64_list_v(&mon.phys_tracked))
                .field("envelope", Value::opt(mon.envelope.as_ref(), envelope_v))
                .field("envelope_busy_until", time_v(mon.envelope_busy_until))
                .field("src_totals", f64_list_v(&mon.src_totals))
                .build();
            let trace = Value::opt(m.trace.as_ref(), |t| {
                Value::map()
                    .field("capacity", Value::U64(t.capacity as u64))
                    .field("observed", Value::U64(t.observed))
                    .field(
                        "ring",
                        Value::List(
                            t.ring
                                .iter()
                                .map(|r| {
                                    Value::map()
                                        .field("t", time_v(r.t))
                                        .field("src", Value::U64(r.src.0 as u64))
                                        .field(
                                            "dst",
                                            match r.dst {
                                                Dest::Unicast(sta) => Value::U64(sta.0 as u64),
                                                Dest::Broadcast => Value::Null,
                                            },
                                        )
                                        .field("kind", Value::str(kind_name(r.kind)))
                                        .field("bytes", Value::U64(r.bytes as u64))
                                        .field("rate", Value::str(bitrate_name(r.rate)))
                                        .field("collided", Value::Bool(r.collided))
                                        .build()
                                })
                                .collect(),
                        ),
                    )
                    .build()
            });
            Value::map()
                .field("idle_since", time_v(m.idle_since))
                .field("busy_until", time_v(m.busy_until))
                .field("busy_accum", dur_v(m.busy_accum))
                .field(
                    "contenders",
                    Value::List(
                        m.contenders
                            .iter()
                            .map(|c| {
                                Value::map()
                                    .field("sta", Value::U64(c.sta.0 as u64))
                                    .field("rem", Value::U64(c.rem as u64))
                                    .field("drawn", Value::U64(c.drawn as u64))
                                    .field("count_start", time_v(c.count_start))
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .field(
                    "in_flight",
                    Value::List(
                        m.in_flight
                            .iter()
                            .map(|f| {
                                Value::map()
                                    .field("sta", Value::U64(f.sta.0 as u64))
                                    .field("rate", Value::str(bitrate_name(f.rate)))
                                    .field("delivered", Value::Bool(f.delivered))
                                    .field("class", Value::U64(f.class as u64))
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .field(
                    "arb",
                    Value::opt(m.arb.as_ref(), |h| {
                        let (seq, time) = h.ckpt_parts();
                        Value::map()
                            .field("seq", Value::U64(seq))
                            .field("time", Value::U64(time))
                            .build()
                    }),
                )
                .field("monitor", monitor)
                .field("trace", trace)
                .field(
                    "bcast_listeners",
                    Value::List(
                        m.bcast_listeners
                            .iter()
                            .map(|s| Value::U64(s.0 as u64))
                            .collect(),
                    ),
                )
                .field("corruption", Value::f64(m.corruption))
                .field("rng", Value::opt(m.rng.as_ref(), rng_v))
                .field("collisions", Value::U64(m.collisions))
                .field("corrupted", Value::U64(m.corrupted))
                .build()
        })
        .collect();

    let faders = mac
        .faders
        .iter()
        .map(|f| {
            Value::opt(f.as_ref(), |f| {
                let (rng, block, fade_db) = f.ckpt_state();
                Value::map()
                    .field(
                        "rng",
                        Value::map()
                            .field("base", Value::U64(rng.0))
                            .field(
                                "state",
                                Value::List(rng.1.iter().map(|&w| Value::U64(w)).collect()),
                            )
                            .build(),
                    )
                    .field("block", Value::U64(block))
                    .field("fade_db", Value::f64(fade_db))
                    .build()
            })
        })
        .collect();

    Value::map()
        .field("rng", rng_v(&mac.rng))
        .field("next_frame_id", Value::U64(mac.next_frame_id))
        .field(
            "links",
            Value::List(mac.links.iter().map(|db| Value::f64(db.0)).collect()),
        )
        .field("stations", Value::List(stations))
        .field("mediums", Value::List(mediums))
        .field("faders", Value::List(faders))
        .build()
}

/// Overlay a [`save_mac`] tree onto a MAC rebuilt with the same topology.
pub fn restore_mac(mac: &mut Mac, v: &Value) -> Result<(), CkptError> {
    let stations = v.list_field("stations")?;
    if stations.len() != mac.stations.len() {
        return Err(field_err(
            "stations",
            format!(
                "checkpoint has {} stations, rebuilt world has {}",
                stations.len(),
                mac.stations.len()
            ),
        ));
    }
    let mediums = v.list_field("mediums")?;
    if mediums.len() != mac.mediums.len() {
        return Err(field_err(
            "mediums",
            format!(
                "checkpoint has {} mediums, rebuilt world has {}",
                mediums.len(),
                mac.mediums.len()
            ),
        ));
    }
    let links = v.list_field("links")?;
    if links.len() != mac.links.len() {
        return Err(field_err("links", "link matrix size mismatch"));
    }
    let faders = v.list_field("faders")?;
    if faders.len() != mac.faders.len() {
        return Err(field_err("faders", "fader table size mismatch"));
    }

    mac.rng = rng_from(v.get("rng")?, "rng")?;
    mac.next_frame_id = v.u64_field("next_frame_id")?;
    for (slot, lv) in mac.links.iter_mut().zip(links.iter()) {
        *slot = Db(lv.as_f64("links")?);
    }

    for (sta, sv) in mac.stations.iter_mut().zip(stations.iter()) {
        sta.medium = MediumId(sv.u64_field("medium")? as u32);
        for (qi, key) in [(0usize, "q0"), (1, "q1")] {
            let mut q = VecDeque::new();
            for fv in sv.list_field(key)? {
                q.push_back(frame_from(fv)?);
            }
            sta.queues[qi] = q;
        }
        sta.rr = sv.u64_field("rr")? as usize;
        sta.queue_cap = sv.u64_field("queue_cap")? as usize;
        sta.state = sta_state_from(sv.str_field("state")?)?;
        sta.cw = sv.u64_field("cw")? as u32;
        sta.retries = sv.u64_field("retries")? as u8;
        sta.rate_ctl = rate_ctl_from(sv.get("rate_ctl")?)?;
        sta.wants_broadcast = sv.bool_field("wants_broadcast")?;
        sta.frames_sent = sv.u64_field("frames_sent")?;
        sta.retransmissions = sv.u64_field("retransmissions")?;
        sta.queue_drops = sv.u64_field("queue_drops")?;
    }

    for (m, mv) in mac.mediums.iter_mut().zip(mediums.iter()) {
        m.idle_since = time_from(mv.get("idle_since")?, "idle_since")?;
        m.busy_until = time_from(mv.get("busy_until")?, "busy_until")?;
        m.busy_accum = dur_from(mv.get("busy_accum")?, "busy_accum")?;
        m.contenders = mv
            .list_field("contenders")?
            .iter()
            .map(|cv| {
                Ok(Contender {
                    sta: StationId(cv.u64_field("sta")? as u32),
                    rem: cv.u64_field("rem")? as u32,
                    drawn: cv.u64_field("drawn")? as u32,
                    count_start: time_from(cv.get("count_start")?, "count_start")?,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        m.in_flight = mv
            .list_field("in_flight")?
            .iter()
            .map(|fv| {
                Ok(InFlight {
                    sta: StationId(fv.u64_field("sta")? as u32),
                    rate: bitrate_from_name(fv.str_field("rate")?, "rate")?,
                    delivered: fv.bool_field("delivered")?,
                    class: fv.u64_field("class")? as usize,
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        m.arb = match mv.get("arb")?.as_opt() {
            None => None,
            Some(hv) => Some(EventHandle::from_ckpt_parts(
                hv.u64_field("seq")?,
                hv.u64_field("time")?,
            )),
        };
        let monv = mv.get("monitor")?;
        let mon = &mut m.monitor;
        mon.bin = dur_from(monv.get("bin")?, "bin")?;
        mon.tracked = monv
            .list_field("tracked")?
            .iter()
            .map(|b| b.as_bool("tracked"))
            .collect::<Result<Vec<_>, CkptError>>()?;
        mon.tshark_tracked = seconds_from(monv.get("tshark_tracked")?, "tshark_tracked")?;
        mon.tshark_all = seconds_from(monv.get("tshark_all")?, "tshark_all")?;
        mon.phys_tracked = seconds_from(monv.get("phys_tracked")?, "phys_tracked")?;
        mon.envelope = match monv.get("envelope")?.as_opt() {
            None => None,
            Some(ev) => Some(envelope_from(ev)?),
        };
        mon.envelope_busy_until =
            time_from(monv.get("envelope_busy_until")?, "envelope_busy_until")?;
        mon.src_totals = seconds_from(monv.get("src_totals")?, "src_totals")?;
        // Pure memo of the airtime function; recomputed values are
        // bit-identical, so dropping it preserves byte-identity.
        mon.airtime_memo = None;
        m.trace = match mv.get("trace")?.as_opt() {
            None => None,
            Some(tv) => {
                let capacity = tv.u64_field("capacity")? as usize;
                let mut trace = FrameTrace::new(capacity.max(1));
                trace.observed = tv.u64_field("observed")?;
                let mut ring = VecDeque::with_capacity(capacity);
                for rv in tv.list_field("ring")? {
                    ring.push_back(FrameRecord {
                        t: time_from(rv.get("t")?, "t")?,
                        src: StationId(rv.u64_field("src")? as u32),
                        dst: match rv.get("dst")?.as_opt() {
                            None => Dest::Broadcast,
                            Some(d) => Dest::Unicast(StationId(d.as_u64("dst")? as u32)),
                        },
                        kind: kind_from(rv.str_field("kind")?, "kind")?,
                        bytes: rv.u64_field("bytes")? as u32,
                        rate: bitrate_from_name(rv.str_field("rate")?, "rate")?,
                        collided: rv.bool_field("collided")?,
                    });
                }
                trace.ring = ring;
                Some(trace)
            }
        };
        m.bcast_listeners = mv
            .list_field("bcast_listeners")?
            .iter()
            .map(|s| s.as_u64("bcast_listeners").map(|id| StationId(id as u32)))
            .collect::<Result<Vec<_>, CkptError>>()?;
        m.corruption = mv.f64_field("corruption")?;
        m.rng = match mv.get("rng")?.as_opt() {
            None => None,
            Some(rv) => Some(rng_from(rv, "rng")?),
        };
        m.collisions = mv.u64_field("collisions")?;
        m.corrupted = mv.u64_field("corrupted")?;
    }

    for (slot, fv) in mac.faders.iter_mut().zip(faders.iter()) {
        match (slot.as_mut(), fv.as_opt()) {
            (None, None) => {}
            (Some(f), Some(fv)) => {
                let rngv = fv.get("rng")?;
                let rng = rng_from(rngv, "rng")?.ckpt_state();
                f.ckpt_restore(rng, fv.u64_field("block")?, fv.f64_field("fade_db")?);
            }
            _ => {
                return Err(field_err(
                    "faders",
                    "fader presence differs from rebuilt world",
                ));
            }
        }
    }

    // Pure per-link PER memo; recomputation is exact.
    for e in mac.per_cache.iter_mut() {
        *e = None;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{enqueue, Mac, MacEvent, MacWorld, Queue};
    use powifi_sim::ckpt;
    use powifi_sim::{Dispatch, EventQueue, SimRng};

    struct W {
        mac: Mac,
    }

    impl Dispatch<MacEvent> for W {
        fn dispatch(&mut self, q: &mut EventQueue<Self, MacEvent>, ev: MacEvent) {
            crate::world::dispatch_mac(self, q, ev);
        }
    }

    impl MacWorld for W {
        type Ev = MacEvent;
        fn mac(&self) -> &Mac {
            &self.mac
        }
        fn mac_mut(&mut self) -> &mut Mac {
            &mut self.mac
        }
    }

    fn build() -> (W, Queue<W>) {
        let mut mac = Mac::new(SimRng::from_seed(7));
        let medium = mac.add_medium(SimDuration::from_millis(100));
        let a = mac.add_station(medium, RateController::fixed(Bitrate::G54));
        let b = mac.add_station(medium, RateController::minstrel(Bitrate::G6));
        mac.set_wants_broadcast(b, true);
        let _ = a;
        (W { mac }, EventQueue::new())
    }

    #[test]
    fn save_restore_roundtrips_bytes() {
        let (mut w, mut q) = build();
        for i in 0..40u64 {
            let f = Frame::data(
                StationId(0),
                Dest::Unicast(StationId(1)),
                PayloadTag {
                    flow: 1,
                    seq: i,
                    bytes: 1000,
                },
            );
            enqueue(&mut w, &mut q, StationId(0), f);
        }
        q.run_until(&mut w, SimTime::from_millis(5));

        let snap = save_mac(&w.mac);
        let bytes = ckpt::save(&snap);

        // Rebuild the same topology and overlay.
        let (mut w2, _q2) = build();
        let loaded = ckpt::load(&bytes).unwrap();
        restore_mac(&mut w2.mac, &loaded.root).unwrap();
        let snap2 = save_mac(&w2.mac);
        assert_eq!(
            ckpt::state_hash(&snap),
            ckpt::state_hash(&snap2),
            "restore(save(mac)) must re-serialize to identical bytes"
        );
    }

    #[test]
    fn restore_rejects_topology_mismatch() {
        let (w, _q) = build();
        let snap = save_mac(&w.mac);
        let mut other = Mac::new(SimRng::from_seed(7));
        other.add_medium(SimDuration::from_millis(100));
        // No stations: restore must refuse rather than mis-overlay.
        assert!(restore_mac(&mut other, &snap).is_err());
    }

    #[test]
    fn bitrate_names_roundtrip() {
        for r in [
            Bitrate::B1,
            Bitrate::B2,
            Bitrate::B5_5,
            Bitrate::B11,
            Bitrate::G6,
            Bitrate::G9,
            Bitrate::G12,
            Bitrate::G18,
            Bitrate::G24,
            Bitrate::G36,
            Bitrate::G48,
            Bitrate::G54,
        ] {
            assert_eq!(bitrate_from_name(bitrate_name(r), "t").unwrap(), r);
        }
    }
}
