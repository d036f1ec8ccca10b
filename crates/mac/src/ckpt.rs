//! MAC-layer checkpoint state: every dynamic field of a [`Mac`] as a
//! [`Value`] tree, overlaid back onto a freshly rebuilt topology.
//!
//! Restore is *overlay*, not reconstruction: the caller rebuilds the same
//! station/medium/link topology from the experiment config (same seed,
//! same scheme), then [`restore_mac`] copies the dynamic state — queues,
//! DCF contention, rate-controller positions, occupancy accounting, RNG
//! stream positions — over it. Stations and mediums checkpoint every
//! field, so they are decoded whole; faders are overlaid. Pure memoization
//! caches (the per-link PER memo, the occupancy airtime memo) are reset
//! instead of serialized: recomputation yields bit-identical values, so
//! dropping them cannot perturb the run.

use crate::frame::{Dest, Frame, FrameKind, MediumId, PayloadTag, StationId};
use crate::occupancy::OccupancyMonitor;
use crate::rate_adapt::{AarfState, MinstrelState, RateController, RateStats};
use crate::trace::{FrameRecord, FrameTrace};
use crate::world::{
    Contender, InFlight, Link, Mac, Medium, StaState, Station, QUEUE_CLASSES, UNSET_LINK_SNR,
};
use powifi_sim::ckpt::{Ckpt, CkptError, Value, ValueExt};
use powifi_sim::{ckpt_names, ckpt_newtype, ckpt_struct, Db, SimRng};

ckpt_newtype!(StationId, MediumId);

ckpt_names!(FrameKind {
    Data => "data",
    Power => "power",
    Beacon => "beacon",
    Management => "management",
});

ckpt_names!(StaState {
    Idle => "idle",
    Contending => "contending",
    Transmitting => "transmitting",
});

ckpt_struct!(Contender {
    sta,
    rem,
    drawn,
    count_start
});
ckpt_struct!(InFlight {
    sta,
    rate,
    delivered,
    class
});
ckpt_struct!(FrameRecord {
    t,
    src,
    dst,
    kind,
    bytes,
    rate,
    collided
});
ckpt_struct!(RateStats {
    attempts,
    successes,
    ewma_prob
});
ckpt_struct!(AarfState as "aarf" {
    rate,
    success_streak,
    fail_streak,
    probe_threshold,
    probing
});
ckpt_struct!(MinstrelState as "minstrel" {
    stats,
    best,
    probing,
    frames,
    window
});
ckpt_struct!(FrameTrace {
    capacity,
    observed,
    ring
});
ckpt_struct!(OccupancyMonitor {
    bin,
    tracked,
    tshark_tracked,
    tshark_all,
    phys_tracked,
    envelope,
    envelope_busy_until,
    src_totals
} reset {
    airtime_memo: None
});
ckpt_struct!(Medium {
    idle_since,
    busy_until,
    busy_accum,
    contenders,
    in_flight,
    arb,
    monitor,
    trace,
    bcast_listeners,
    corruption,
    rng,
    collisions,
    corrupted
});

/// The receiver's id, or `null` for a broadcast.
impl Ckpt for Dest {
    fn to_ckpt(&self) -> Value {
        match self {
            Dest::Unicast(sta) => sta.to_ckpt(),
            Dest::Broadcast => Value::Null,
        }
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        Ok(match v.as_opt() {
            None => Dest::Broadcast,
            Some(sta) => Dest::Unicast(StationId::from_ckpt(sta, path)?),
        })
    }
}

/// The payload tag is flattened into the frame's map (`flow`, `seq`,
/// `payload_bytes`).
impl Ckpt for Frame {
    fn to_ckpt(&self) -> Value {
        Value::map()
            .put("id", &self.id)
            .put("kind", &self.kind)
            .put("src", &self.src)
            .put("dst", &self.dst)
            .put("bytes", &self.bytes)
            .put("rate", &self.rate)
            .put("flow", &self.payload.flow)
            .put("seq", &self.payload.seq)
            .put("payload_bytes", &self.payload.bytes)
            .put("enqueued_at", &self.enqueued_at)
            .build()
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        Ok(Frame {
            id: v.field("id")?,
            kind: v.field("kind")?,
            src: v.field("src")?,
            dst: v.field("dst")?,
            bytes: v.field("bytes")?,
            rate: v.field("rate")?,
            payload: PayloadTag {
                flow: v.field("flow")?,
                seq: v.field("seq")?,
                bytes: v.field("payload_bytes")?,
            },
            enqueued_at: v.field("enqueued_at")?,
        })
    }
}

/// Tagged by `kind`: `fixed` (with its `rate`), `aarf` or `minstrel`.
impl Ckpt for RateController {
    fn to_ckpt(&self) -> Value {
        match self {
            RateController::Fixed(rate) => Value::map()
                .field("kind", Value::str("fixed"))
                .put("rate", rate)
                .build(),
            RateController::Adaptive(a) => a.to_ckpt(),
            RateController::Minstrel(m) => m.to_ckpt(),
        }
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        Ok(match v.str_field("kind")? {
            "fixed" => RateController::Fixed(v.field("rate")?),
            "aarf" => RateController::Adaptive(Ckpt::from_ckpt(v, path)?),
            "minstrel" => RateController::Minstrel(Ckpt::from_ckpt(v, path)?),
            other => {
                return Err(CkptError::field(
                    "kind",
                    format!("unknown rate controller {other:?}"),
                ))
            }
        })
    }
}

/// The two transmit queues are the keys `q0` and `q1`.
impl Ckpt for Station {
    fn to_ckpt(&self) -> Value {
        Value::map()
            .put("medium", &self.medium)
            .put("q0", &self.queues[0])
            .put("q1", &self.queues[1])
            .put("rr", &self.rr)
            .put("queue_cap", &self.queue_cap)
            .put("state", &self.state)
            .put("cw", &self.cw)
            .put("retries", &self.retries)
            .put("rate_ctl", &self.rate_ctl)
            .put("wants_broadcast", &self.wants_broadcast)
            .put("frames_sent", &self.frames_sent)
            .put("retransmissions", &self.retransmissions)
            .put("queue_drops", &self.queue_drops)
            .build()
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        Ok(Station {
            medium: v.field("medium")?,
            queues: [v.field("q0")?, v.field("q1")?],
            rr: v.field("rr")?,
            queue_cap: v.field("queue_cap")?,
            state: v.field("state")?,
            cw: v.field("cw")?,
            retries: v.field("retries")?,
            rate_ctl: v.field("rate_ctl")?,
            wants_broadcast: v.field("wants_broadcast")?,
            frames_sent: v.field("frames_sent")?,
            retransmissions: v.field("retransmissions")?,
            queue_drops: v.field("queue_drops")?,
        })
    }
}

/// Refuse a station or medium `id` at or past `count`, the number the
/// rebuilt world has: the first event to touch it would index past the
/// MAC's tables.
pub fn check_id(id: u32, count: usize, path: &str) -> Result<(), CkptError> {
    check_index(usize::try_from(id).unwrap_or(usize::MAX), count, path)
}

/// Refuse an index at or past `len`, the length of the table it indexes.
fn check_index(i: usize, len: usize, path: &str) -> Result<(), CkptError> {
    if i < len {
        Ok(())
    } else {
        Err(CkptError::field(
            path,
            format!("{i} is out of range: the table has {len} entries"),
        ))
    }
}

/// Refuse a frame whose sender or receiver is not one of `stations`.
pub fn check_frame(f: &Frame, stations: usize) -> Result<(), CkptError> {
    check_id(f.src.0, stations, "src")?;
    match f.dst {
        Dest::Unicast(sta) => check_id(sta.0, stations, "dst"),
        Dest::Broadcast => Ok(()),
    }
}

fn fader_v(f: &powifi_rf::BlockFader) -> Value {
    let ((base, state), block, fade_db) = f.ckpt_state();
    Value::map()
        .field("rng", SimRng::from_ckpt_state(base, state).to_ckpt())
        .put("block", &block)
        .put("fade_db", &fade_db)
        .build()
}

/// Serialize every dynamic field of the MAC. Links are written as the
/// dense row-major `links` and `faders` lists over station indices, an
/// unset link as [`UNSET_LINK_SNR`] and `null`.
pub fn save_mac(mac: &Mac) -> Value {
    let n = mac.stations.len();
    let mut links = Vec::with_capacity(n * n);
    let mut faders = Vec::with_capacity(n * n);
    for row in &mac.links {
        let mut cells = row.iter().peekable();
        for b in 0..n as u32 {
            let link = cells.next_if(|l| l.rx == b);
            links.push(link.map_or(UNSET_LINK_SNR, |l| l.snr));
            faders.push(
                link.and_then(Link::fader)
                    .map_or(Value::Null, |i| fader_v(&mac.faders[i])),
            );
        }
    }
    Value::map()
        .put("rng", &mac.rng)
        .put("next_frame_id", &mac.next_frame_id)
        .put("links", &links)
        .put("stations", &mac.stations)
        .put("mediums", &mac.mediums)
        .field("faders", Value::Array(faders))
        .build()
}

fn same_len(path: &str, saved: usize, rebuilt: usize) -> Result<(), CkptError> {
    if saved == rebuilt {
        Ok(())
    } else {
        Err(CkptError::field(
            path,
            format!("checkpoint has {saved}, rebuilt world has {rebuilt}"),
        ))
    }
}

/// Overlay a [`save_mac`] tree onto a MAC rebuilt with the same topology.
/// Refuses a tree whose tables differ in size from the rebuilt world's,
/// whose faders sit on other links, whose stations, mediums or queued
/// frames name an id it does not have, or that holds a value the MAC would
/// panic on later: an index past the table it indexes, or a zero occupancy
/// bin. Every check runs before anything is written, so a refused tree
/// leaves the MAC as it was.
pub fn restore_mac(mac: &mut Mac, v: &Value) -> Result<(), CkptError> {
    let stations: Vec<Station> = v.field("stations")?;
    same_len("stations", stations.len(), mac.stations.len())?;
    let mediums: Vec<Medium> = v.field("mediums")?;
    same_len("mediums", mediums.len(), mac.mediums.len())?;
    let n = stations.len();
    let links: Vec<Db> = v.field("links")?;
    same_len("links", links.len(), n * n)?;
    let faders = v.list_field("faders")?;
    same_len("faders", faders.len(), n * n)?;
    for s in &stations {
        check_id(s.medium.0, mediums.len(), "stations/medium")?;
        check_index(s.rr, QUEUE_CLASSES, "stations/rr")?;
        if let RateController::Minstrel(m) = &s.rate_ctl {
            check_index(m.best, m.stats.len(), "stations/rate_ctl/best")?;
            if let Some(p) = m.probing {
                check_index(p, m.stats.len(), "stations/rate_ctl/probing")?;
            }
        }
        for f in s.queues.iter().flatten() {
            check_frame(f, stations.len())?;
        }
    }
    for m in &mediums {
        if m.monitor.bin.is_zero() {
            return Err(CkptError::field("mediums/monitor/bin", "must not be zero"));
        }
        for c in &m.contenders {
            check_id(c.sta.0, stations.len(), "contenders/sta")?;
        }
        for f in &m.in_flight {
            check_id(f.sta.0, stations.len(), "in_flight/sta")?;
            check_index(f.class, QUEUE_CLASSES, "in_flight/class")?;
        }
        for &s in &m.bcast_listeners {
            check_id(s.0, stations.len(), "bcast_listeners")?;
        }
    }
    let rng: SimRng = v.field("rng")?;
    let next_frame_id: u64 = v.field("next_frame_id")?;
    let station_pair = |k: usize| (StationId((k / n) as u32), StationId((k % n) as u32));
    let mut fades = Vec::new();
    for (k, fv) in faders.iter().enumerate() {
        let (a, b) = station_pair(k);
        match (mac.link(a, b).and_then(Link::fader), fv.as_opt()) {
            (None, None) => {}
            (Some(i), Some(fv)) => {
                let rng: SimRng = fv.field("rng")?;
                let block: u64 = fv.field("block")?;
                let fade_db: f64 = fv.field("fade_db")?;
                fades.push((i, rng.ckpt_state(), block, fade_db));
            }
            _ => {
                return Err(CkptError::field(
                    "faders",
                    "fader presence differs from rebuilt world",
                ));
            }
        }
    }

    mac.rng = rng;
    mac.next_frame_id = next_frame_id;
    mac.stations = stations;
    mac.mediums = mediums;
    for (k, snr) in links.into_iter().enumerate() {
        let (a, b) = station_pair(k);
        let current = mac.link(a, b).map_or(UNSET_LINK_SNR, |l| l.snr);
        if current.0.to_bits() != snr.0.to_bits() {
            mac.set_link_snr(a, b, snr);
        }
    }
    for (i, rng, block, fade_db) in fades {
        mac.faders[i].ckpt_restore(rng, block, fade_db);
    }
    // Pure per-link PER memo; recomputation is exact.
    for link in mac.links.iter_mut().flatten() {
        link.per = None;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{enqueue, MacEvent, MacWorld, Queue};
    use powifi_rf::Bitrate;
    use powifi_sim::ckpt;
    use powifi_sim::{Dispatch, EventQueue, SimDuration, SimTime};

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

    /// Two stations on one medium, with a frame trace, an RF envelope
    /// and a faded link, so every part of the MAC form is exercised.
    fn build() -> (W, Queue<W>) {
        build_faded(true)
    }

    fn build_faded(faded: bool) -> (W, Queue<W>) {
        let mut mac = Mac::new(SimRng::from_seed(7));
        let medium = mac.add_medium(SimDuration::from_millis(100));
        let a = mac.add_station(medium, RateController::fixed(Bitrate::G54));
        let b = mac.add_station(medium, RateController::minstrel(Bitrate::G6));
        mac.set_wants_broadcast(b, true);
        mac.enable_trace(medium, 16);
        let mon = mac.monitor_mut(medium).monitor();
        mon.track(a);
        mon.enable_envelope();
        if faded {
            let fader = powifi_rf::BlockFader::indoor_los(SimRng::from_seed(8));
            mac.set_link_fader(a, b, fader);
        }
        (W { mac }, EventQueue::new())
    }

    /// Queue 40 frames 0 → 1 and run 5 ms.
    fn run_a_little(w: &mut W, q: &mut Queue<W>) {
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
            enqueue(w, q, StationId(0), f);
        }
        q.run_until(w, SimTime::from_millis(5));
    }

    #[test]
    fn save_restore_roundtrips_bytes() {
        let (mut w, mut q) = build();
        run_a_little(&mut w, &mut q);

        let snap = save_mac(&w.mac);
        let body = snap.encode();
        for part in ["\"ring\":[{", "\"envelope\":[[", "\"fade_db\":"] {
            assert!(body.contains(part), "{part} missing from the MAC form");
        }
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
    fn refused_restore_leaves_the_mac_untouched() {
        let (mut w, mut q) = build();
        run_a_little(&mut w, &mut q);
        let faded = save_mac(&w.mac);
        let (mut plain, _q) = build_faded(false);
        let before = ckpt::save(&save_mac(&plain.mac));
        let err = restore_mac(&mut plain.mac, &faded).unwrap_err();
        assert!(err.to_string().contains("faders"), "{err}");
        assert_eq!(ckpt::save(&save_mac(&plain.mac)), before);
    }

    #[test]
    fn links_save_dense_in_row_major_order() {
        let mut mac = Mac::new(SimRng::from_seed(1));
        let m = mac.add_medium(SimDuration::from_millis(100));
        let s: Vec<StationId> = (0..3)
            .map(|_| mac.add_station(m, RateController::fixed(Bitrate::G54)))
            .collect();
        mac.set_link_snr(s[2], s[0], Db(7.0));
        mac.set_link_snr(s[0], s[1], Db(12.5));
        mac.set_link_fader(
            s[1],
            s[2],
            powifi_rf::BlockFader::indoor_los(SimRng::from_seed(2)),
        );
        let snap = save_mac(&mac);
        let links: Vec<Db> = snap.field("links").unwrap();
        let dbs: Vec<f64> = links.iter().map(|d| d.0).collect();
        assert_eq!(dbs, [40.0, 12.5, 40.0, 40.0, 40.0, 40.0, 7.0, 40.0, 40.0]);
        let faded: Vec<bool> = snap
            .list_field("faders")
            .unwrap()
            .iter()
            .map(|f| f.as_opt().is_some())
            .collect();
        assert_eq!(faded.iter().filter(|&&f| f).count(), 1);
        assert!(faded[5], "fader 1 -> 2 sits at row 1, column 2");
    }

    #[test]
    fn frame_kind_and_station_state_names_roundtrip() {
        for k in [
            FrameKind::Data,
            FrameKind::Power,
            FrameKind::Beacon,
            FrameKind::Management,
        ] {
            assert_eq!(FrameKind::from_ckpt(&k.to_ckpt(), "kind"), Ok(k));
        }
        for s in [StaState::Idle, StaState::Contending, StaState::Transmitting] {
            assert_eq!(StaState::from_ckpt(&s.to_ckpt(), "state"), Ok(s));
        }
    }
}
