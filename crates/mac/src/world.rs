//! The 802.11 DCF engine.
//!
//! One [`Mac`] owns every station and medium in a scenario. Protocol logic is
//! written as free functions generic over a [`MacWorld`] — the composed
//! simulation world — so higher layers (transport, PoWiFi router, deployment
//! scenarios) can embed the MAC without dynamic dispatch and receive upcalls
//! (`deliver`, `tx_complete`) when frames land.
//!
//! The DCF model is medium-centric: when a channel goes idle, contending
//! stations count down DIFS plus their residual backoff slots; the earliest
//! finisher transmits, equal finishers collide, losers keep their residual
//! (the standard's fairness mechanism). Unicast frames are ACKed and retried
//! with binary-exponential backoff; broadcast frames — including PoWiFi's
//! power packets — get exactly one attempt and no ACK, as in the paper.

use crate::airtime::{ack_airtime, frame_airtime, MacTiming};
use crate::frame::{Dest, Frame, MediumId, StationId, TxOutcome};
use crate::occupancy::OccupancyMonitor;
use crate::rate_adapt::RateController;
use crate::trace::{FrameRecord, FrameTrace};
use powifi_rf::{packet_error_rate, Bitrate, Db};
use powifi_sim::conformance;
use powifi_sim::obs::prof;
use powifi_sim::obs::trace as obs;
use powifi_sim::{Dispatch, EventHandle, EventQueue, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// The MAC layer's typed events, posted through
/// [`powifi_sim::EventQueue::post_at`]; the embedding world's event enum
/// must absorb them via `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacEvent {
    /// Arbitration decision on a medium: the earliest backoff finisher(s)
    /// transmit.
    ArbFire(MediumId),
    /// End of a medium's busy period: resolve outcomes, resume contention.
    TxEnd(MediumId),
    /// Periodic beacon from a station; re-posts itself every `interval`.
    Beacon {
        /// Beaconing station (typically an AP interface).
        sta: StationId,
        /// Beacon interval.
        interval: SimDuration,
        /// Transmit rate for the beacon frame.
        rate: Bitrate,
    },
    /// One firing of traffic source `id` (see [`start_source`]); re-posts
    /// itself every source period.
    Source {
        /// Index into the MAC's source table.
        id: u32,
        /// Frames the source has enqueued so far.
        seq: u64,
    },
    /// One whole-world conformance audit (see
    /// [`crate::conformance::install_audit`]); re-posts itself every audit
    /// period.
    Audit,
}

// Every pending event sits in a timer-wheel entry next to its 16 bytes of
// time and seq, and a wheel bucket keeps the capacity of the most entries
// it ever held, so the event's size multiplies the queue's peak backlog.
// Source and audit configuration therefore lives in the `Mac`'s tables,
// rebuilt by the world builder; only a source's `seq` travels in the
// event.
const _: () = assert!(std::mem::size_of::<MacEvent>() <= 16);

/// The event queue of a MAC-embedding world: typed over the world's own
/// event enum, which must absorb [`MacEvent`].
pub type Queue<W> = EventQueue<W, <W as MacWorld>::Ev>;

/// The world trait: any simulation embedding the MAC implements this.
///
/// A world declares its composed event enum as [`MacWorld::Ev`] (absorbing
/// [`MacEvent`] via `From`) and routes events in its
/// [`powifi_sim::Dispatch`] impl — typically by delegating the MAC's share
/// to [`dispatch_mac`].
pub trait MacWorld: Sized + Dispatch<Self::Ev> + 'static {
    /// The world's composed typed-event enum.
    type Ev: From<MacEvent> + 'static;

    /// Immutable access to the MAC state.
    fn mac(&self) -> &Mac;
    /// Mutable access to the MAC state.
    fn mac_mut(&mut self) -> &mut Mac;

    /// A frame was received by `rx` (unicast to it, or a broadcast it opted
    /// into via [`Mac::set_wants_broadcast`]).
    fn deliver(&mut self, q: &mut Queue<Self>, rx: StationId, frame: &Frame) {
        let _ = (q, rx, frame);
    }

    /// The sender finished with a frame (ACKed / retries exhausted /
    /// broadcast attempt done).
    fn tx_complete(&mut self, q: &mut Queue<Self>, frame: &Frame, outcome: TxOutcome) {
        let _ = (q, frame, outcome);
    }
}

/// Route a [`MacEvent`] to its handler. Worlds call this from their
/// [`powifi_sim::Dispatch`] impl for the MAC's share of the composed enum.
pub fn dispatch_mac<W: MacWorld>(w: &mut W, q: &mut Queue<W>, ev: MacEvent) {
    match ev {
        MacEvent::ArbFire(medium) => arb_fire(w, q, medium),
        MacEvent::TxEnd(medium) => tx_end(w, q, medium),
        MacEvent::Beacon {
            sta,
            interval,
            rate,
        } => {
            let beacon = Frame::beacon(sta, rate);
            enqueue(w, q, sta, beacon);
            // Body first, then re-post, as every periodic handler does:
            // the goldens pin the sequence numbers this order issues.
            q.post_in(
                interval,
                MacEvent::Beacon {
                    sta,
                    interval,
                    rate,
                }
                .into(),
            );
        }
        MacEvent::Source { id, mut seq } => {
            let src = w.mac().sources[id as usize];
            let sta = src.frame.src;
            if w.mac().queue_depth(sta) < src.below {
                seq += 1;
                let mut frame = src.frame;
                frame.payload.seq = seq;
                enqueue(w, q, sta, frame);
            }
            if !src.period.is_zero() {
                q.post_in(src.period, MacEvent::Source { id, seq }.into());
            }
        }
        MacEvent::Audit => {
            crate::conformance::audit_now(w, q.now());
            if let Some(period) = w.mac().audit_period {
                q.post_in(period, MacEvent::Audit.into());
            }
        }
    }
}

/// A saturating traffic source: each firing enqueues a copy of `frame` at
/// its sender (`frame.src`) unless that station already holds `below`
/// frames. The copy's `payload.seq` numbers the source's frames from 1.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// Frame template.
    pub frame: Frame,
    /// Interval between firings; a zero period fires once.
    pub period: SimDuration,
    /// Queue depth at which a firing skips its frame.
    pub below: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StaState {
    Idle,
    Contending,
    Transmitting,
}

/// Transmit-queue classes per station; see [`Station`].
pub(crate) const QUEUE_CLASSES: usize = 2;

/// A station (AP interface, client, neighbor device, attacker…).
///
/// The transmit queue is two-class — power broadcasts vs everything else —
/// served round-robin, mirroring the fq-style qdisc of the paper's router
/// (that is what makes NoQueue "roughly halve" client throughput in Fig. 6
/// rather than starve it).
#[derive(Debug)]
pub struct Station {
    pub(crate) medium: MediumId,
    /// queues[0]: data/beacons/management; queues[1]: power broadcasts.
    pub(crate) queues: [VecDeque<Frame>; QUEUE_CLASSES],
    pub(crate) rr: usize,
    pub(crate) queue_cap: usize,
    pub(crate) state: StaState,
    pub(crate) cw: u32,
    pub(crate) retries: u8,
    pub(crate) rate_ctl: RateController,
    pub(crate) wants_broadcast: bool,
    /// Counters for tests and reporting.
    pub frames_sent: u64,
    /// Unicast retransmission attempts.
    pub retransmissions: u64,
    /// Frames dropped because the transmit queue was full.
    pub queue_drops: u64,
}

pub(crate) struct Contender {
    pub(crate) sta: StationId,
    pub(crate) rem: u32,
    /// Backoff drawn when the access attempt began; `rem` may only count
    /// down from here (checked by the conformance layer).
    pub(crate) drawn: u32,
    pub(crate) count_start: SimTime,
}

pub(crate) struct InFlight {
    pub(crate) sta: StationId,
    pub(crate) rate: Bitrate,
    pub(crate) delivered: bool,
    pub(crate) class: usize,
}

/// A collision domain (one Wi-Fi channel).
pub struct Medium {
    pub(crate) idle_since: SimTime,
    pub(crate) busy_until: SimTime,
    /// Cumulative airtime: the sum of every busy period's duration. Busy
    /// periods never overlap, so this may not exceed wall time — the
    /// airtime-conservation invariant.
    pub(crate) busy_accum: SimDuration,
    pub(crate) contenders: Vec<Contender>,
    pub(crate) in_flight: Vec<InFlight>,
    pub(crate) arb: Option<EventHandle>,
    pub(crate) monitor: OccupancyMonitor,
    pub(crate) trace: Option<FrameTrace>,
    /// Stations on this medium that opted into broadcast delivery, kept
    /// sorted by station index (the deterministic fan-out order).
    pub(crate) bcast_listeners: Vec<StationId>,
    /// External frame-corruption probability (fault injection).
    pub(crate) corruption: f64,
    /// Medium-private randomness stream (see [`Mac::seed_medium_rng`]);
    /// `None` draws from the MAC-wide stream.
    pub(crate) rng: Option<SimRng>,
    /// Ground-truth collision counter.
    pub collisions: u64,
    /// Ground-truth count of frames lost to injected corruption.
    pub corrupted: u64,
}

/// The MAC state: all stations, mediums and links of one scenario.
pub struct Mac {
    /// Timing constants (802.11g by default).
    pub timing: MacTiming,
    pub(crate) stations: Vec<Station>,
    pub(crate) mediums: Vec<Medium>,
    /// One row per sender station: the directed links it has set or used,
    /// sorted by receiver. A link with no cell reads [`UNSET_LINK_SNR`]
    /// and no fader, so adding a station costs one empty row.
    pub(crate) links: Vec<Vec<Link>>,
    /// Block-fading processes, indexed by [`Link::fader`].
    pub(crate) faders: Vec<powifi_rf::BlockFader>,
    pub(crate) rng: SimRng,
    pub(crate) next_frame_id: u64,
    timing_bug: bool,
    /// Traffic sources by id (see [`start_source`]) and the conformance
    /// audit period. Structure, not state: the world builder installs
    /// them, and checkpoints carry only what the pending events hold.
    pub(crate) sources: Vec<Source>,
    pub(crate) audit_period: Option<SimDuration>,
    /// Scratch buffers reused across [`arb_fire`] / [`tx_end`] invocations so
    /// the two hottest handlers do not pay a heap allocation per
    /// transmission. Always left empty between calls; neither handler can
    /// re-enter itself (both only run from queue dispatch).
    scratch: Scratch,
}

/// SNR of a directed link nobody set: a strong link.
pub(crate) const UNSET_LINK_SNR: Db = Db(40.0);

/// [`Link::fader`] of a link without a fading process.
const NO_FADER: u32 = u32::MAX;

/// One directed link `sender → rx` in the sender's row of [`Mac::links`].
#[derive(Debug, Clone)]
pub(crate) struct Link {
    pub(crate) rx: u32,
    /// Index into [`Mac::faders`], or [`NO_FADER`].
    pub(crate) fader: u32,
    pub(crate) snr: Db,
    /// Memoized [`packet_error_rate`] at the last-used rate. Static links
    /// recompute the same logistic (one `exp`) for every broadcast
    /// listener on every frame; caching it is free because the cached
    /// value is exactly the recomputation. Faded links bypass the cache
    /// (their SNR varies with time), and any SNR/fader mutation clears it.
    pub(crate) per: Option<(Bitrate, f64)>,
}

impl Link {
    pub(crate) fn fader(&self) -> Option<usize> {
        (self.fader != NO_FADER).then_some(self.fader as usize)
    }
}

/// The cell of link `→ rx` in `row`, inserted as an unset link if absent.
fn link_cell(row: &mut Vec<Link>, rx: StationId) -> &mut Link {
    let i = match row.binary_search_by_key(&rx.0, |l| l.rx) {
        Ok(i) => i,
        Err(i) => {
            row.insert(
                i,
                Link {
                    rx: rx.0,
                    fader: NO_FADER,
                    snr: UNSET_LINK_SNR,
                    per: None,
                },
            );
            i
        }
    };
    &mut row[i]
}

#[derive(Default)]
struct Scratch {
    winners: Vec<StationId>,
    completions: Vec<(Frame, TxOutcome)>,
    deliveries: Vec<(StationId, Frame)>,
    resume: Vec<StationId>,
    /// Spare buffer swapped into `Medium::in_flight` when `tx_end` drains
    /// it, so the arb→tx_end cycle recycles capacity instead of
    /// reallocating it every busy period.
    in_flight_spare: Vec<InFlight>,
}

impl Mac {
    /// New MAC with default timing, drawing randomness from `rng`.
    pub fn new(rng: SimRng) -> Mac {
        Mac {
            timing: MacTiming::default(),
            stations: Vec::new(),
            mediums: Vec::new(),
            links: Vec::new(),
            faders: Vec::new(),
            rng,
            next_frame_id: 1,
            timing_bug: false,
            sources: Vec::new(),
            audit_period: None,
            scratch: Scratch::default(),
        }
    }

    /// Deliberately schedule every transmission one backoff slot early,
    /// producing intermittent DIFS violations. This exists solely so the
    /// conformance fuzz driver can prove the invariant checker catches real
    /// DCF timing bugs; never enable it in an experiment.
    #[doc(hidden)]
    pub fn inject_timing_bug(&mut self, on: bool) {
        self.timing_bug = on;
    }

    /// Add a channel with the given occupancy-monitor bin width.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    pub fn add_medium(&mut self, monitor_bin: SimDuration) -> MediumId {
        let id = MediumId(self.mediums.len() as u32);
        self.mediums.push(Medium {
            idle_since: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            busy_accum: SimDuration::ZERO,
            contenders: Vec::new(),
            in_flight: Vec::new(),
            arb: None,
            monitor: OccupancyMonitor::new(monitor_bin),
            trace: None,
            bcast_listeners: Vec::new(),
            corruption: 0.0,
            rng: None,
            collisions: 0,
            corrupted: 0,
        });
        id
    }

    /// Give `medium` its own randomness stream. Every draw the MAC makes
    /// happens in the context of exactly one medium — backoff slots,
    /// corruption rolls, per-frame loss — so seeding each medium from a
    /// stable label makes its behavior independent of which *other* mediums
    /// share the `Mac`. The sharded city world relies on this: a channel
    /// simulated alone in a shard draws the same stream as the same channel
    /// simulated inside one monolithic world.
    pub fn seed_medium_rng(&mut self, m: MediumId, rng: SimRng) {
        self.mediums[m.0 as usize].rng = Some(rng);
    }

    /// The RNG for draws made in the context of `m`: its private stream if
    /// one was installed, the MAC-wide stream otherwise.
    fn medium_rng(&mut self, m: MediumId) -> &mut SimRng {
        match self.mediums[m.0 as usize].rng {
            Some(ref mut r) => r,
            None => &mut self.rng,
        }
    }

    /// Add a station on `medium`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    pub fn add_station(&mut self, medium: MediumId, rate_ctl: RateController) -> StationId {
        let id = StationId(self.stations.len() as u32);
        self.links.push(Vec::new());
        self.stations.push(Station {
            medium,
            queues: [VecDeque::new(), VecDeque::new()],
            rr: 0,
            queue_cap: 1000,
            state: StaState::Idle,
            cw: self.timing.cw_min,
            retries: 0,
            rate_ctl,
            wants_broadcast: false,
            frames_sent: 0,
            retransmissions: 0,
            queue_drops: 0,
        });
        id
    }

    /// Panic unless `a` and `b` are stations of this MAC, naming the one
    /// that is not.
    fn check_link(&self, op: &str, a: StationId, b: StationId) {
        let n = self.stations.len();
        for (role, sta) in [("sender", a), ("receiver", b)] {
            assert!(
                (sta.0 as usize) < n,
                "{op}: unknown {role} station {} (the MAC has {n})",
                sta.0
            );
        }
    }

    /// Set the SNR of the directed link `a → b` (used for PER and ACK loss).
    pub fn set_link_snr(&mut self, a: StationId, b: StationId, snr: Db) {
        self.check_link("set_link_snr", a, b);
        let link = link_cell(&mut self.links[a.0 as usize], b);
        link.snr = snr;
        link.per = None;
    }

    /// Attach a block-fading process to the directed link `a → b`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    pub fn set_link_fader(&mut self, a: StationId, b: StationId, fader: powifi_rf::BlockFader) {
        self.check_link("set_link_fader", a, b);
        let link = link_cell(&mut self.links[a.0 as usize], b);
        link.per = None;
        match link.fader() {
            Some(i) => self.faders[i] = fader,
            None => {
                link.fader = self.faders.len() as u32;
                self.faders.push(fader);
            }
        }
    }

    /// The set cell of link `a → b`, if any.
    pub(crate) fn link(&self, a: StationId, b: StationId) -> Option<&Link> {
        let row = &self.links[a.0 as usize];
        row.binary_search_by_key(&b.0, |l| l.rx)
            .ok()
            .map(|i| &row[i])
    }

    /// Packet-error rate of the directed link `a → b` at `rate`, memoized
    /// for static (fader-less) links.
    fn per_of(&mut self, a: StationId, b: StationId, rate: Bitrate, now: SimTime) -> f64 {
        let link = link_cell(&mut self.links[a.0 as usize], b);
        if let Some(i) = link.fader() {
            return packet_error_rate(link.snr + self.faders[i].fade_at(now), rate);
        }
        if let Some((r, per)) = link.per {
            if r == rate {
                return per;
            }
        }
        let per = packet_error_rate(link.snr, rate);
        link.per = Some((rate, per));
        per
    }

    /// Fault injection: corrupt every frame on `medium` with probability
    /// `p`, independent of SNR (interference from non-Wi-Fi devices —
    /// microwave ovens, the "external causes" of §6's home 6 anomaly).
    pub fn set_corruption(&mut self, medium: MediumId, p: f64) {
        self.mediums[medium.0 as usize].corruption = p.clamp(0.0, 1.0);
    }

    fn corruption_of(&self, medium: MediumId) -> f64 {
        self.mediums[medium.0 as usize].corruption
    }

    /// Replace a station's transmit-rate controller.
    pub fn set_rate_controller(&mut self, sta: StationId, ctl: RateController) {
        self.stations[sta.0 as usize].rate_ctl = ctl;
    }

    /// Opt a station into receiving broadcast frames via `deliver`. The
    /// per-medium listener list is maintained here so the broadcast fan-out
    /// never rescans every station.
    pub fn set_wants_broadcast(&mut self, sta: StationId, wants: bool) {
        let st = &mut self.stations[sta.0 as usize];
        if st.wants_broadcast == wants {
            return;
        }
        st.wants_broadcast = wants;
        let listeners = &mut self.mediums[st.medium.0 as usize].bcast_listeners;
        if wants {
            listeners.push(sta);
            listeners.sort_unstable_by_key(|s| s.0);
        } else {
            listeners.retain(|&s| s != sta);
        }
    }

    /// Cap a station's transmit queue (default 1000 frames).
    pub fn set_queue_cap(&mut self, sta: StationId, cap: usize) {
        self.stations[sta.0 as usize].queue_cap = cap;
    }

    /// Current transmit-queue depth (all classes) — the quantity PoWiFi's
    /// `Power_MACshim` hoists from the MAC into the IP layer (§3.2).
    pub fn queue_depth(&self, sta: StationId) -> usize {
        let st = &self.stations[sta.0 as usize];
        st.queues[0].len() + st.queues[1].len()
    }

    /// The medium a station lives on.
    pub fn medium_of(&self, sta: StationId) -> MediumId {
        self.stations[sta.0 as usize].medium
    }

    /// Station accessor for counters.
    pub fn station(&self, sta: StationId) -> &Station {
        &self.stations[sta.0 as usize]
    }

    /// Occupancy monitor of a channel.
    pub fn monitor(&self, m: MediumId) -> &OccupancyMonitor {
        &self.mediums[m.0 as usize].monitor
    }

    /// Mutable occupancy monitor (to set tracked stations / envelope mode).
    pub fn monitor_mut(&mut self, m: MediumId) -> &mut Medium {
        &mut self.mediums[m.0 as usize]
    }

    /// Start capturing the most recent `capacity` frames on `medium`
    /// (tcpdump-style; see [`FrameTrace`]).
    pub fn enable_trace(&mut self, m: MediumId, capacity: usize) {
        self.mediums[m.0 as usize].trace = Some(FrameTrace::new(capacity));
    }

    /// The capture ring of a channel, if tracing was enabled.
    pub fn trace(&self, m: MediumId) -> Option<&FrameTrace> {
        self.mediums[m.0 as usize].trace.as_ref()
    }

    /// How long the medium has been continuously idle at `now`
    /// (`None` while a transmission is in the air). This is the carrier-
    /// sense primitive a silent-slot power scheduler (§8b) needs.
    pub fn idle_for(&self, m: MediumId, now: SimTime) -> Option<SimDuration> {
        let med = &self.mediums[m.0 as usize];
        if now < med.busy_until || !med.in_flight.is_empty() {
            None
        } else {
            Some(now.duration_since(med.idle_since))
        }
    }

    /// Collision count on a channel.
    pub fn collisions(&self, m: MediumId) -> u64 {
        self.mediums[m.0 as usize].collisions
    }

    /// Cumulative busy airtime of a channel: the sum of every transmission
    /// period (longest frame per period, ACK included). Since busy periods
    /// are serialized, this can never exceed wall time.
    pub fn busy_time(&self, m: MediumId) -> SimDuration {
        self.mediums[m.0 as usize].busy_accum
    }

    /// When the current (or most recent) busy period on a channel ends(/ed).
    pub fn busy_until(&self, m: MediumId) -> SimTime {
        self.mediums[m.0 as usize].busy_until
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Whether the world builder installed the periodic conformance audit
    /// ([`crate::conformance::install_audit`]).
    pub fn audits(&self) -> bool {
        self.audit_period.is_some()
    }

    /// Dump end-of-run MAC totals into this thread's metrics registry
    /// ([`powifi_sim::obs::metrics`]): frames sent, collisions,
    /// retransmissions and queue drops summed over every station and
    /// medium. Called once at run boundaries so hot paths stay untouched.
    pub fn record_metrics(&self) {
        use powifi_sim::obs::metrics::{counter, keys};
        counter(keys::MAC_FRAMES).add(self.total_frames_sent());
        counter(keys::MAC_COLLISIONS).add(self.mediums.iter().map(|m| m.collisions).sum::<u64>());
        counter(keys::MAC_RETRANSMISSIONS)
            .add(self.stations.iter().map(|s| s.retransmissions).sum::<u64>());
        counter(keys::MAC_QUEUE_DROPS)
            .add(self.stations.iter().map(|s| s.queue_drops).sum::<u64>());
    }

    /// Set this thread's live MAC gauges (`mac.live.*`) to the current
    /// *cumulative* totals. Unlike [`Mac::record_metrics`] (one-shot counter
    /// adds at the end of a run), gauges are idempotent under `set`, so the
    /// streaming epoch driver can call this after every epoch and snapshot
    /// the registry for a `metrics` wire record without double counting.
    pub fn record_progress_metrics(&self) {
        use powifi_sim::obs::metrics::{gauge, keys};
        gauge(keys::MAC_LIVE_FRAMES).set(self.total_frames_sent() as f64);
        gauge(keys::MAC_LIVE_RETRANSMISSIONS).set(self.total_retransmissions() as f64);
        gauge(keys::MAC_LIVE_CORRUPTED).set(self.total_corrupted() as f64);
        gauge(keys::MAC_LIVE_BUSY_NS).set(self.total_busy().as_nanos() as f64);
    }

    /// Total frames sent across all stations — the scenario-wide activity
    /// counter the bench sweep engine reports per experiment point.
    pub fn total_frames_sent(&self) -> u64 {
        self.stations.iter().map(|s| s.frames_sent).sum()
    }

    /// Total unicast retransmission attempts across all stations.
    pub fn total_retransmissions(&self) -> u64 {
        self.stations.iter().map(|s| s.retransmissions).sum()
    }

    /// Total frames lost to injected corruption across all mediums.
    pub fn total_corrupted(&self) -> u64 {
        self.mediums.iter().map(|m| m.corrupted).sum()
    }

    /// Cumulative busy airtime summed across all mediums.
    pub fn total_busy(&self) -> SimDuration {
        self.mediums
            .iter()
            .fold(SimDuration::ZERO, |acc, m| acc + m.busy_accum)
    }

    /// Number of mediums.
    pub fn medium_count(&self) -> usize {
        self.mediums.len()
    }
}

impl Medium {
    /// The channel's occupancy monitor.
    pub fn monitor(&mut self) -> &mut OccupancyMonitor {
        &mut self.monitor
    }
}

/// Enqueue a frame for transmission. Returns `false` (dropping the frame) if
/// the station's transmit queue is full.
pub fn enqueue<W: MacWorld>(w: &mut W, q: &mut Queue<W>, sta: StationId, mut frame: Frame) -> bool {
    let _prof = prof::span("mac.enqueue");
    let now = q.now();
    let mac = w.mac_mut();
    frame.id = mac.next_frame_id;
    mac.next_frame_id += 1;
    frame.enqueued_at = now;
    frame.src = sta;
    let st = &mut mac.stations[sta.0 as usize];
    let class = frame_class(&frame);
    if st.queues[class].len() >= st.queue_cap {
        st.queue_drops += 1;
        if obs::enabled() {
            obs::emit(
                now,
                obs::TraceEvent::MacDrop {
                    medium: st.medium.0,
                    sta: sta.0,
                    reason: obs::DropReason::QueueFull,
                },
            );
        }
        return false;
    }
    st.queues[class].push_back(frame);
    if conformance::enabled() && st.queues[class].len() > st.queue_cap {
        conformance::report(
            "mac/queue-cap",
            now,
            format!(
                "station {} class {class} queue depth {} exceeds cap {}",
                sta.0,
                st.queues[class].len(),
                st.queue_cap
            ),
        );
    }
    if st.state == StaState::Idle {
        start_access(w, q, sta);
    }
    true
}

/// Map a MAC frame kind onto the observability layer's frame class.
fn obs_frame_class(kind: crate::frame::FrameKind) -> obs::FrameClass {
    match kind {
        crate::frame::FrameKind::Data => obs::FrameClass::Data,
        crate::frame::FrameKind::Power => obs::FrameClass::Power,
        crate::frame::FrameKind::Beacon => obs::FrameClass::Beacon,
        crate::frame::FrameKind::Management => obs::FrameClass::Management,
    }
}

/// Queue class of a frame: power broadcasts are isolated from client data.
#[expect(clippy::wildcard_enum_match_arm, reason = "R11: not an event match")]
fn frame_class(frame: &Frame) -> usize {
    match frame.kind {
        crate::frame::FrameKind::Power => 1,
        _ => 0,
    }
}

impl Station {
    /// Which class the next transmission should serve (round-robin across
    /// non-empty classes).
    fn next_class(&self) -> usize {
        match (self.queues[0].is_empty(), self.queues[1].is_empty()) {
            (false, true) => 0,
            (true, false) => 1,
            _ => self.rr,
        }
    }

    fn queued(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }

    /// The configured transmit-queue capacity (per class).
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }
}

/// Begin a channel-access attempt for a station with queued traffic.
fn start_access<W: MacWorld>(w: &mut W, q: &mut Queue<W>, sta: StationId) {
    let _prof = prof::span("mac.dcf.backoff");
    let now = q.now();
    let medium_id;
    {
        let mac = w.mac_mut();
        let st = &mut mac.stations[sta.0 as usize];
        debug_assert!(st.state == StaState::Idle);
        debug_assert!(st.queued() > 0);
        st.state = StaState::Contending;
        medium_id = st.medium;
        let cw = st.cw;
        let rem = mac.medium_rng(medium_id).range(0..=cw);
        mac.mediums[medium_id.0 as usize]
            .contenders
            .push(Contender {
                sta,
                rem,
                drawn: rem,
                count_start: now,
            });
        if obs::enabled() {
            obs::emit(
                now,
                obs::TraceEvent::MacBackoffDraw {
                    medium: medium_id.0,
                    sta: sta.0,
                    slots: rem,
                    cw,
                },
            );
            if now < mac.mediums[medium_id.0 as usize].busy_until {
                obs::emit(
                    now,
                    obs::TraceEvent::MacDifsDefer {
                        medium: medium_id.0,
                        sta: sta.0,
                    },
                );
            }
        }
    }
    rearm(w, q, medium_id);
}

/// Recompute and (re)schedule the medium's next transmission decision.
fn rearm<W: MacWorld>(w: &mut W, q: &mut Queue<W>, medium: MediumId) {
    let _prof = prof::span("mac.dcf.carrier_sense");
    let now = q.now();
    let mac = w.mac_mut();
    let timing = mac.timing;
    let m = &mut mac.mediums[medium.0 as usize];
    if let Some(h) = m.arb.take() {
        q.cancel(h);
    }
    if now < m.busy_until || m.contenders.is_empty() {
        return;
    }
    let idle_since = m.idle_since;
    let bug = mac.timing_bug;
    let Some(earliest) = m
        .contenders
        .iter()
        .map(|c| finish_time(c, idle_since, &timing, bug))
        .min()
    else {
        return;
    };
    let at = earliest.max(now);
    m.arb = Some(q.post_at(at, MacEvent::ArbFire(medium).into()));
}

fn finish_time(c: &Contender, idle_since: SimTime, timing: &MacTiming, bug: bool) -> SimTime {
    let eff_start = c.count_start.max(idle_since);
    let t = eff_start + timing.difs() + timing.slot * c.rem as u64;
    if bug {
        t - timing.slot
    } else {
        t
    }
}

/// The arbitration event: the earliest finisher(s) transmit.
fn arb_fire<W: MacWorld>(w: &mut W, q: &mut Queue<W>, medium: MediumId) {
    let _prof = prof::span("mac.dcf.tx");
    let now = q.now();
    let mut busy = SimDuration::ZERO;
    {
        let mac = w.mac_mut();
        let timing = mac.timing;
        let m = &mut mac.mediums[medium.0 as usize];
        m.arb = None;
        if m.contenders.is_empty() {
            return;
        }
        let idle_since = m.idle_since;
        let bug = mac.timing_bug;
        let Some(earliest) = m
            .contenders
            .iter()
            .map(|c| finish_time(c, idle_since, &timing, bug))
            .min()
        else {
            return;
        };
        debug_assert!(earliest <= now, "arb fired early");
        if conformance::enabled() {
            // DCF legality, checked independently of the scheduling math
            // above: no transmission may start while the channel is busy or
            // already carrying frames, and the channel must have been idle
            // for at least DIFS before anyone transmits.
            if now < m.busy_until {
                conformance::report(
                    "dcf/tx-while-busy",
                    now,
                    format!(
                        "transmission starts while channel busy until {}",
                        m.busy_until
                    ),
                );
            }
            if !m.in_flight.is_empty() {
                conformance::report(
                    "dcf/overlap",
                    now,
                    format!(
                        "{} frame(s) still in flight on this channel",
                        m.in_flight.len()
                    ),
                );
            }
            let idle = now.duration_since(idle_since);
            if idle < timing.difs() {
                conformance::report(
                    "dcf/difs",
                    now,
                    format!(
                        "channel idle only {idle} before transmission; DIFS is {}",
                        timing.difs()
                    ),
                );
            }
        }
        // Partition winners (finish == earliest) and losers.
        let mut winners = std::mem::take(&mut mac.scratch.winners);
        let m = &mut mac.mediums[medium.0 as usize];
        m.contenders.retain(|c| {
            if finish_time(c, idle_since, &timing, bug) == earliest {
                winners.push(c.sta);
                false
            } else {
                true
            }
        });
        // Losers bank the slots that elapsed while the medium was idle.
        for c in &mut m.contenders {
            let eff_start = c.count_start.max(idle_since);
            let counted_from = eff_start + timing.difs();
            #[expect(clippy::cast_possible_truncation, reason = "R5: at most CWmax slots")]
            if now > counted_from {
                let elapsed = now.duration_since(counted_from) / timing.slot;
                c.rem -= (elapsed as u32).min(c.rem);
            }
            if conformance::enabled() && c.rem > c.drawn {
                conformance::report(
                    "dcf/backoff-monotone",
                    now,
                    format!(
                        "station {} residual backoff {} exceeds drawn {}",
                        c.sta.0, c.rem, c.drawn
                    ),
                );
            }
        }
        let collision = winners.len() > 1;
        if collision {
            m.collisions += 1;
        }
        // Start every winner's transmission.
        debug_assert!(m.in_flight.is_empty());
        for sta in winners.drain(..) {
            let (rate, bytes, dst, class, kind) = {
                let st = &mac.stations[sta.0 as usize];
                let class = st.next_class();
                // An empty queue here is a scheduler bug, and a loud panic
                // beats a silently dropped transmission.
                #[expect(clippy::expect_used, reason = "R3: winners have queued frames")]
                let f = st.queues[class].front().expect("winner with empty queue");
                let rate = f.rate.unwrap_or_else(|| st.rate_ctl.current());
                (rate, f.bytes, f.dst, class, f.kind)
            };
            let corrupt_p = mac.corruption_of(medium);
            let corrupted = corrupt_p > 0.0 && mac.medium_rng(medium).chance(corrupt_p);
            let delivered = match dst {
                Dest::Broadcast => !collision && !corrupted,
                Dest::Unicast(peer) => {
                    let per = mac.per_of(sta, peer, rate, now);
                    !collision && !corrupted && !mac.medium_rng(medium).chance(per)
                }
            };
            let st = &mut mac.stations[sta.0 as usize];
            st.state = StaState::Transmitting;
            st.frames_sent += 1;
            let mut dur = frame_airtime(bytes, rate);
            if matches!(dst, Dest::Unicast(_)) && delivered {
                dur += timing.sifs + ack_airtime(rate);
            }
            busy = busy.max(dur);
            let m = &mut mac.mediums[medium.0 as usize];
            if corrupted {
                m.corrupted += 1;
            }
            m.monitor.record(now, sta, bytes, rate);
            if obs::enabled() {
                obs::emit(
                    now,
                    obs::TraceEvent::MacTxStart {
                        medium: medium.0,
                        sta: sta.0,
                        frame: obs_frame_class(kind),
                        bytes,
                        rate_mbps: rate.mbps(),
                        collided: collision,
                    },
                );
            }
            if let Some(tr) = &mut m.trace {
                tr.record(FrameRecord {
                    t: now,
                    src: sta,
                    dst,
                    kind,
                    bytes,
                    rate,
                    collided: collision,
                });
            }
            let m = &mut mac.mediums[medium.0 as usize];
            m.in_flight.push(InFlight {
                sta,
                rate,
                delivered,
                class,
            });
        }
        let m = &mut mac.mediums[medium.0 as usize];
        m.busy_until = now + busy;
        m.busy_accum += busy;
        mac.scratch.winners = winners;
    }
    // Attribute this busy period's airtime (frames + SIFS + ACKs) to the
    // transmission span — the Σ sizeᵢ/rateᵢ currency of the paper's Fig. 5.
    prof::attr(busy);
    q.post_in(busy, MacEvent::TxEnd(medium).into());
}

/// End of a busy period: resolve outcomes, deliver frames, resume contention.
fn tx_end<W: MacWorld>(w: &mut W, q: &mut Queue<W>, medium: MediumId) {
    let _prof = prof::span("mac.dcf.tx_end");
    let now = q.now();
    // (frame, outcome) for tx_complete; (rx, frame) for deliver. Pooled in
    // `Mac::scratch` so a busy period costs no allocations.
    let mut completions: Vec<(Frame, TxOutcome)>;
    let mut deliveries: Vec<(StationId, Frame)>;
    let mut resume: Vec<StationId>;
    {
        let mac = w.mac_mut();
        completions = std::mem::take(&mut mac.scratch.completions);
        deliveries = std::mem::take(&mut mac.scratch.deliveries);
        resume = std::mem::take(&mut mac.scratch.resume);
        let spare = std::mem::take(&mut mac.scratch.in_flight_spare);
        let timing = mac.timing;
        let m = &mut mac.mediums[medium.0 as usize];
        let mut in_flight = std::mem::replace(&mut m.in_flight, spare);
        let collision = in_flight.len() > 1;
        if conformance::enabled() && now != m.busy_until {
            conformance::report(
                "dcf/busy-accounting",
                now,
                format!(
                    "busy period ended at {now} but busy_until says {}",
                    m.busy_until
                ),
            );
        }
        m.idle_since = now;
        for fl in in_flight.drain(..) {
            let sta = fl.sta;
            let st = &mut mac.stations[sta.0 as usize];
            st.state = StaState::Idle;
            if obs::enabled() {
                obs::emit(
                    now,
                    obs::TraceEvent::MacTxEnd {
                        medium: medium.0,
                        sta: sta.0,
                    },
                );
            }
            // Anything else is a MAC state-machine bug.
            #[expect(clippy::expect_used, reason = "R3: in flight means at its queue head")]
            let frame = *st.queues[fl.class]
                .front()
                .expect("in-flight with empty queue");
            match frame.dst {
                Dest::Broadcast => {
                    st.queues[fl.class].pop_front();
                    st.rr = 1 - fl.class;
                    st.cw = timing.cw_min;
                    st.retries = 0;
                    completions.push((
                        frame,
                        TxOutcome::BroadcastDone {
                            collided: collision,
                        },
                    ));
                    if fl.delivered {
                        // Fan out to this medium's opted-in listeners — a
                        // precomputed, station-index-sorted list, so the
                        // fan-out never rescans every station and the RNG
                        // is consumed in the same order as before.
                        let listeners =
                            std::mem::take(&mut mac.mediums[medium.0 as usize].bcast_listeners);
                        for &oid in &listeners {
                            if oid == sta {
                                continue;
                            }
                            let per = mac.per_of(sta, oid, fl.rate, now);
                            if !mac.medium_rng(medium).chance(per) {
                                deliveries.push((oid, frame));
                            }
                        }
                        mac.mediums[medium.0 as usize].bcast_listeners = listeners;
                    }
                }
                Dest::Unicast(peer) => {
                    if fl.delivered {
                        let st = &mut mac.stations[sta.0 as usize];
                        st.queues[fl.class].pop_front();
                        st.rr = 1 - fl.class;
                        st.cw = timing.cw_min;
                        st.retries = 0;
                        st.rate_ctl.on_success();
                        if obs::enabled() {
                            obs::emit(
                                now,
                                obs::TraceEvent::MacAck {
                                    medium: medium.0,
                                    sta: sta.0,
                                },
                            );
                        }
                        completions.push((frame, TxOutcome::Acked));
                        deliveries.push((peer, frame));
                    } else {
                        let st = &mut mac.stations[sta.0 as usize];
                        st.retries += 1;
                        st.retransmissions += 1;
                        st.rate_ctl.on_failure();
                        if st.retries > timing.retry_limit {
                            st.queues[fl.class].pop_front();
                            st.rr = 1 - fl.class;
                            st.cw = timing.cw_min;
                            st.retries = 0;
                            if obs::enabled() {
                                obs::emit(
                                    now,
                                    obs::TraceEvent::MacDrop {
                                        medium: medium.0,
                                        sta: sta.0,
                                        reason: obs::DropReason::RetryLimit,
                                    },
                                );
                            }
                            completions.push((frame, TxOutcome::RetryLimit));
                        } else {
                            st.cw = (2 * st.cw + 1).min(timing.cw_max);
                            if obs::enabled() {
                                obs::emit(
                                    now,
                                    obs::TraceEvent::MacRetry {
                                        medium: medium.0,
                                        sta: sta.0,
                                        retries: u32::from(st.retries),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            if mac.stations[sta.0 as usize].queued() > 0 {
                resume.push(sta);
            }
        }
        mac.scratch.in_flight_spare = in_flight;
    }
    for sta in resume.drain(..) {
        start_access(w, q, sta);
    }
    rearm(w, q, medium);
    for (frame, outcome) in completions.drain(..) {
        w.tx_complete(q, &frame, outcome);
    }
    for (rx, frame) in deliveries.drain(..) {
        w.deliver(q, rx, &frame);
    }
    let mac = w.mac_mut();
    mac.scratch.completions = completions;
    mac.scratch.deliveries = deliveries;
    mac.scratch.resume = resume;
}

/// Schedule periodic beacons from `sta` (typically an AP interface) every
/// `interval` at `rate`, starting at `first`.
pub fn start_beacons<W: MacWorld>(
    q: &mut Queue<W>,
    sta: StationId,
    first: SimTime,
    interval: SimDuration,
    rate: Bitrate,
) {
    q.post_at(
        first,
        MacEvent::Beacon {
            sta,
            interval,
            rate,
        }
        .into(),
    );
}

/// Start traffic source `src`, first firing at `first`.
#[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
pub fn start_source<W: MacWorld>(w: &mut W, q: &mut Queue<W>, first: SimTime, src: Source) {
    let mac = w.mac_mut();
    let id = mac.sources.len() as u32;
    mac.sources.push(src);
    q.post_at(first, MacEvent::Source { id, seq: 0 }.into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, PayloadTag};

    /// Minimal world: just the MAC plus upcall logs.
    struct TestWorld {
        mac: Mac,
        delivered: Vec<(StationId, u64)>,
        completed: Vec<(u64, TxOutcome)>,
    }

    impl MacWorld for TestWorld {
        type Ev = MacEvent;
        fn mac(&self) -> &Mac {
            &self.mac
        }
        fn mac_mut(&mut self) -> &mut Mac {
            &mut self.mac
        }
        fn deliver(&mut self, _q: &mut Queue<Self>, rx: StationId, frame: &Frame) {
            self.delivered.push((rx, frame.id));
        }
        fn tx_complete(&mut self, _q: &mut Queue<Self>, frame: &Frame, outcome: TxOutcome) {
            self.completed.push((frame.id, outcome));
        }
    }

    impl Dispatch<MacEvent> for TestWorld {
        fn dispatch(&mut self, q: &mut Queue<Self>, ev: MacEvent) {
            dispatch_mac(self, q, ev);
        }
    }

    fn world() -> (TestWorld, Queue<TestWorld>) {
        (
            TestWorld {
                mac: Mac::new(SimRng::from_seed(1)),
                delivered: Vec::new(),
                completed: Vec::new(),
            },
            EventQueue::new(),
        )
    }

    /// Keep `frame.src` topped up: every `period_us`, enqueue `frame` while
    /// the station holds fewer than `below` frames.
    fn saturate(
        w: &mut TestWorld,
        q: &mut Queue<TestWorld>,
        frame: Frame,
        period_us: u64,
        below: usize,
    ) {
        let period = SimDuration::from_micros(period_us);
        start_source(
            w,
            q,
            SimTime::ZERO,
            Source {
                frame,
                period,
                below,
            },
        );
    }

    #[test]
    fn source_numbers_its_frames_and_a_zero_period_fires_once() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let tag = PayloadTag {
            flow: 3,
            seq: 0,
            bytes: 500,
        };
        saturate(
            &mut w,
            &mut q,
            Frame::data(a, Dest::Unicast(b), tag),
            1_000,
            1,
        );
        let once = Source {
            frame: Frame::power(b, 200, Bitrate::G54),
            period: SimDuration::ZERO,
            below: 1,
        };
        start_source(&mut w, &mut q, SimTime::from_micros(500), once);
        q.run_until(&mut w, SimTime::from_millis(10));
        assert_eq!(w.mac.station(b).frames_sent, 1);
        // Firings at 0..=10 ms: ten frames delivered, the eleventh queued.
        assert_eq!(w.mac.station(a).frames_sent, 10);
        let queued: Vec<u64> = w.mac.stations[a.0 as usize].queues[0]
            .iter()
            .map(|f| f.payload.seq)
            .collect();
        assert_eq!(queued, [11]);
    }

    #[test]
    fn single_broadcast_goes_on_air_once() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let f = Frame::power(a, 1500, Bitrate::G54);
        assert!(enqueue(&mut w, &mut q, a, f));
        q.run_until(&mut w, SimTime::from_millis(10));
        assert_eq!(w.mac.station(a).frames_sent, 1);
        assert_eq!(w.completed.len(), 1);
        assert_eq!(
            w.completed[0].1,
            TxOutcome::BroadcastDone { collided: false }
        );
        assert!(w.mac.collisions(m) == 0);
    }

    #[test]
    fn unicast_is_acked_and_delivered() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let f = Frame::data(
            a,
            Dest::Unicast(b),
            PayloadTag {
                flow: 7,
                seq: 1,
                bytes: 1000,
            },
        );
        enqueue(&mut w, &mut q, a, f);
        q.run_until(&mut w, SimTime::from_millis(10));
        assert_eq!(w.completed, vec![(1, TxOutcome::Acked)]);
        assert_eq!(w.delivered, vec![(b, 1)]);
    }

    #[test]
    fn bad_link_exhausts_retries() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.set_link_snr(a, b, Db(0.0)); // hopeless for 54 Mbps
        let f = Frame::data(
            a,
            Dest::Unicast(b),
            PayloadTag {
                flow: 1,
                seq: 1,
                bytes: 1000,
            },
        );
        enqueue(&mut w, &mut q, a, f);
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.completed, vec![(1, TxOutcome::RetryLimit)]);
        assert!(w.delivered.is_empty());
        assert_eq!(w.mac.station(a).retransmissions as usize, 8); // 1 + 7 retries
    }

    #[test]
    fn two_saturated_stations_share_the_medium_fairly() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        // Keep both queues topped up.
        for sta in [a, b] {
            let frame = Frame::power(sta, 1500, Bitrate::G54);
            saturate(&mut w, &mut q, frame, 100, 5);
        }
        q.run_until(&mut w, SimTime::from_secs(2));
        let sa = w.mac.station(a).frames_sent as f64;
        let sb = w.mac.station(b).frames_sent as f64;
        assert!(sa > 1000.0 && sb > 1000.0, "sa {sa} sb {sb}");
        let ratio = sa / sb;
        assert!((0.9..=1.1).contains(&ratio), "unfair split {ratio}");
    }

    /// Run a set of channels, each with a seeded medium RNG, a corruption
    /// probability and a saturated unicast pair at a lossy SNR (so backoff,
    /// corruption and PER draws all fire), and return per-channel stats.
    fn run_seeded_channels(labels: &[&str]) -> Vec<(u64, u64, SimDuration, u64)> {
        let (mut w, mut q) = world();
        let mut pairs = Vec::new();
        for &label in labels {
            let m = w.mac.add_medium(SimDuration::from_secs(1));
            w.mac
                .seed_medium_rng(m, SimRng::from_seed(99).derive(label));
            w.mac.set_corruption(m, 0.15);
            let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            let snr = Db(Bitrate::G54.required_snr().0 + 1.0); // PER ≈ 0.17
            w.mac.set_link_snr(a, b, snr);
            w.mac.set_link_snr(b, a, snr);
            pairs.push((m, a, b));
        }
        for &(_, a, b) in &pairs {
            for (src, dst) in [(a, b), (b, a)] {
                let tag = PayloadTag {
                    flow: 0,
                    seq: 0,
                    bytes: 800,
                };
                saturate(
                    &mut w,
                    &mut q,
                    Frame::data(src, Dest::Unicast(dst), tag),
                    400,
                    3,
                );
            }
        }
        q.run_until(&mut w, SimTime::from_millis(50));
        pairs
            .iter()
            .map(|&(m, a, b)| {
                (
                    w.mac.station(a).frames_sent + w.mac.station(b).frames_sent,
                    w.mac.station(a).retransmissions + w.mac.station(b).retransmissions,
                    w.mac.busy_time(m),
                    w.mac.collisions(m),
                )
            })
            .collect()
    }

    #[test]
    fn seeded_medium_streams_are_independent_of_cohabitants() {
        // A channel with its own RNG stream must behave identically whether
        // it shares the `Mac` with other channels or runs alone — the
        // property the sharded city world is built on.
        let labels = ["ch-a", "ch-b", "ch-c"];
        let combined = run_seeded_channels(&labels);
        for (i, label) in labels.iter().enumerate() {
            let solo = run_seeded_channels(&[label]);
            assert_eq!(solo[0], combined[i], "channel {label}");
        }
        // Sanity: the scenario exercises every draw site (PER → retries).
        assert!(combined.iter().all(|s| s.0 > 10 && s.1 > 0), "{combined:?}");
    }

    #[test]
    fn saturated_single_station_occupancy_near_theory() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        saturate(&mut w, &mut q, Frame::power(a, 1500, Bitrate::G54), 50, 5);
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(a);
        }
        let end = SimTime::from_secs(2);
        q.run_until(&mut w, end);
        let occ = w.mac.monitor(m).mean_tracked(end);
        // Cycle = DIFS(28) + mean backoff(7.5×9=67.5) + airtime(248) ≈ 344 µs;
        // tshark metric counts 8×1536/54 ≈ 227.6 µs → ~0.66.
        assert!((0.58..=0.72).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn broadcast_fanout_respects_opt_in() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let c = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.set_wants_broadcast(c, true);
        let f = Frame::power(a, 200, Bitrate::G54);
        enqueue(&mut w, &mut q, a, f);
        q.run_until(&mut w, SimTime::from_millis(5));
        assert_eq!(w.delivered, vec![(c, 1)]);
        let _ = b;
    }

    #[test]
    fn queue_cap_drops_excess() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.set_queue_cap(a, 3);
        let mut accepted = 0;
        for _ in 0..10 {
            if enqueue(&mut w, &mut q, a, Frame::power(a, 1500, Bitrate::G54)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 3);
        assert_eq!(w.mac.station(a).queue_drops, 7);
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.mac.station(a).frames_sent, 3);
    }

    #[test]
    fn beacons_repeat() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        start_beacons(
            &mut q,
            a,
            SimTime::ZERO,
            SimDuration::from_micros(102_400),
            Bitrate::G6,
        );
        q.run_until(&mut w, SimTime::from_secs(1));
        // ~9.77 beacons per second.
        let sent = w.mac.station(a).frames_sent;
        assert!((9..=10).contains(&sent), "beacons {sent}");
        assert!(w
            .completed
            .iter()
            .all(|&(_, o)| o == TxOutcome::BroadcastDone { collided: false }));
    }

    #[test]
    fn collisions_happen_under_contention() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let stas: Vec<_> = (0..8)
            .map(|_| w.mac.add_station(m, RateController::fixed(Bitrate::G54)))
            .collect();
        for sta in stas {
            saturate(
                &mut w,
                &mut q,
                Frame::power(sta, 1500, Bitrate::G54),
                200,
                3,
            );
        }
        q.run_until(&mut w, SimTime::from_secs(2));
        assert!(
            w.mac.collisions(m) > 10,
            "collisions {}",
            w.mac.collisions(m)
        );
        // Collided broadcasts are reported as such.
        assert!(w
            .completed
            .iter()
            .any(|&(_, o)| o == TxOutcome::BroadcastDone { collided: true }));
    }

    #[test]
    fn trace_captures_transmissions() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.enable_trace(m, 16);
        for _ in 0..5 {
            enqueue(&mut w, &mut q, a, Frame::power(a, 1500, Bitrate::G54));
        }
        q.run_until(&mut w, SimTime::from_millis(50));
        let tr = w.mac.trace(m).expect("trace enabled");
        assert_eq!(tr.observed, 5);
        assert!(tr.dump().contains("Power 1536 B @ 54 Mbps"));
        // Untraced channels return None.
        let m2 = w.mac.add_medium(SimDuration::from_secs(1));
        assert!(w.mac.trace(m2).is_none());
    }

    #[test]
    fn mixed_bg_timing_lowers_throughput() {
        let run = |timing| {
            let (mut w, mut q) = world();
            w.mac.timing = timing;
            let m = w.mac.add_medium(SimDuration::from_secs(1));
            let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
            saturate(&mut w, &mut q, Frame::power(a, 1500, Bitrate::G54), 100, 5);
            q.run_until(&mut w, SimTime::from_secs(2));
            w.mac.station(a).frames_sent
        };
        let g = run(MacTiming::g_only());
        let bg = run(MacTiming::bg_mixed());
        // Long slots + bigger CW stretch every cycle by ~40 %.
        assert!((bg as f64) < 0.85 * g as f64, "g {g} bg {bg}");
    }

    #[test]
    fn corruption_injection_causes_retries() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.set_corruption(m, 0.4);
        for i in 0..50 {
            let f = Frame::data(
                a,
                Dest::Unicast(b),
                PayloadTag {
                    flow: 1,
                    seq: i,
                    bytes: 1000,
                },
            );
            enqueue(&mut w, &mut q, a, f);
        }
        q.run_until(&mut w, SimTime::from_secs(2));
        // ~40 % of attempts fail → plenty of retransmissions, but the link
        // is not hopeless, so frames still get through.
        assert!(w.mac.station(a).retransmissions > 10);
        assert!(w.delivered.len() > 40, "delivered {}", w.delivered.len());
    }

    #[test]
    #[should_panic(expected = "set_link_snr: unknown receiver station 3 (the MAC has 2)")]
    fn link_setters_refuse_an_unknown_station() {
        let (mut w, _q) = world();
        let m = w.mac.add_medium(SimDuration::from_millis(100));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        // Row-major indexing would have written link 1 → 1 here.
        w.mac.set_link_snr(a, StationId(3), Db(10.0));
    }

    #[test]
    #[should_panic(expected = "set_link_fader: unknown sender station 2 (the MAC has 2)")]
    fn fader_setter_refuses_an_unknown_sender() {
        let (mut w, _q) = world();
        let m = w.mac.add_medium(SimDuration::from_millis(100));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let fader = powifi_rf::BlockFader::indoor_los(SimRng::from_seed(5));
        w.mac.set_link_fader(StationId(2), a, fader);
    }

    #[test]
    fn fading_link_oscillates_between_good_and_bad() {
        use powifi_rf::BlockFader;
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let b = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        // Base SNR right at the 54 Mbps threshold: fades flip delivery.
        w.mac.set_link_snr(a, b, Db(25.0));
        w.mac
            .set_link_fader(a, b, BlockFader::indoor_obstructed(SimRng::from_seed(5)));
        let tag = PayloadTag {
            flow: 1,
            seq: 0,
            bytes: 1000,
        };
        saturate(
            &mut w,
            &mut q,
            Frame::data(a, Dest::Unicast(b), tag),
            2_000,
            3,
        );
        q.run_until(&mut w, SimTime::from_secs(4));
        let sent = w.mac.station(a).frames_sent;
        let retx = w.mac.station(a).retransmissions;
        // Fading produces a real mix of successes and failures.
        assert!(retx > sent / 20, "sent {sent} retx {retx}");
        assert!(!w.delivered.is_empty());
        assert!(w.completed.iter().any(|&(_, o)| o == TxOutcome::Acked));
    }

    #[test]
    fn per_frame_rate_override_beats_controller() {
        let (mut w, mut q) = world();
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let a = w.mac.add_station(m, RateController::fixed(Bitrate::G6));
        {
            let mon = w.mac.monitor_mut(m).monitor();
            mon.track(a);
            mon.enable_envelope();
        }
        let f = Frame::power(a, 1500, Bitrate::B1); // explicit 1 Mbps
        enqueue(&mut w, &mut q, a, f);
        q.run_until(&mut w, SimTime::from_millis(50));
        // 1536 B at 1 Mbps ≈ 12.3 ms on air (so the envelope is busy at 5 ms).
        let env = w.mac.monitor(m).envelope().unwrap();
        assert_eq!(env.level_at(SimTime::from_millis(5)), 1.0);
        assert_eq!(w.completed.len(), 1);
        assert_eq!(w.completed[0].0, 1);
        assert!(matches!(w.completed[0].1, TxOutcome::BroadcastDone { .. }));
        assert_eq!(w.mac.station(a).frames_sent, 1);
        assert_eq!(w.mac.queue_depth(a), 0);
        assert_eq!(FrameKind::Power, FrameKind::Power);
    }
}
