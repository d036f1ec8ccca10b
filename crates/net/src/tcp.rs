//! A compact TCP Reno/NewReno over the simulated MAC — enough fidelity for
//! the paper's traffic experiments: slow start, congestion avoidance, triple
//! dup-ACK fast retransmit with NewReno partial-ACK recovery, RTT estimation
//! with Karn's rule, and exponential-backoff RTO.
//!
//! Segments and ACKs ride as unicast MAC frames, so TCP sees the medium's
//! real queueing, contention and loss — which is precisely how BlindUDP and
//! NoQueue hurt it in Fig. 6(b).

use crate::state::{Flow, FlowId, NetWorld};
use crate::NetEvent;
use powifi_mac::{enqueue, Dest, Frame, PayloadTag, Queue, StationId};
use powifi_sim::obs::metrics as obs_metrics;
use powifi_sim::obs::prof;
use powifi_sim::obs::trace as obs;
use powifi_sim::{BinnedThroughput, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// Maximum segment size (bytes of TCP payload per frame).
pub const MSS: u32 = 1460;

/// Minimum retransmission timeout, seconds (Linux-style 200 ms floor).
const RTO_MIN: f64 = 0.2;
/// Initial RTO before any RTT sample, seconds.
const RTO_INIT: f64 = 1.0;
/// RTO ceiling, seconds.
const RTO_MAX: f64 = 60.0;

/// One TCP flow (sender at `src`, receiver at `dst`).
pub struct TcpFlow {
    /// Flow id (mirrors the map key).
    pub id: FlowId,
    /// Sending station.
    pub src: StationId,
    /// Receiving station.
    pub dst: StationId,
    // --- sender ---
    pub(crate) cwnd: f64,
    pub(crate) ssthresh: f64,
    /// Lowest unacknowledged segment (1-based; 1 is the first segment).
    pub(crate) snd_una: u64,
    /// Next new segment to transmit.
    pub(crate) next_seq: u64,
    /// Total segments authorized (grows via [`tcp_push`]).
    pub(crate) budget: u64,
    pub(crate) dup_acks: u32,
    /// NewReno recovery: highest segment outstanding when loss was detected.
    pub(crate) recovery_high: Option<u64>,
    pub(crate) srtt: Option<f64>,
    pub(crate) rttvar: f64,
    pub(crate) rto: f64,
    /// Send timestamps of the outstanding window, indexed by
    /// `seq - snd_una`: slot `i` holds `(sent time, was retransmitted)` for
    /// segment `snd_una + i`. ACKs pop the front; new segments push the
    /// back — O(1) at both ends, no tree rebalancing per segment.
    pub(crate) sent_at: VecDeque<(SimTime, bool)>,
    pub(crate) timer_epoch: u64,
    // --- receiver ---
    pub(crate) rcv_next: u64,
    pub(crate) ooo: BTreeSet<u64>,
    /// Goodput at the receiver, 500 ms bins.
    pub delivered: BinnedThroughput,
    /// Set when every budgeted segment has been ACKed.
    pub completed_at: Option<SimTime>,
    /// Page-load bookkeeping: `(page index, connection index)`.
    pub page: Option<(usize, usize)>,
    /// Counters.
    pub retransmits: u64,
    /// RTO firings.
    pub timeouts: u64,
}

impl TcpFlow {
    pub(crate) fn new(id: FlowId, src: StationId, dst: StationId) -> TcpFlow {
        TcpFlow {
            id,
            src,
            dst,
            cwnd: 2.0,
            ssthresh: 64.0,
            snd_una: 1,
            next_seq: 1,
            budget: 0,
            dup_acks: 0,
            recovery_high: None,
            srtt: None,
            rttvar: 0.0,
            rto: RTO_INIT,
            sent_at: VecDeque::new(),
            timer_epoch: 0,
            rcv_next: 1,
            ooo: BTreeSet::new(),
            delivered: BinnedThroughput::new(SimDuration::from_millis(500)),
            completed_at: None,
            page: None,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window, segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Smoothed RTT, seconds (None before the first sample).
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Mean goodput so far, Mbit/s.
    pub fn mean_mbps(&self) -> f64 {
        self.delivered.mean_mbps()
    }

    fn outstanding(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// The send record of `seq`, if it is inside the outstanding window.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    fn sent_entry(&self, seq: u64) -> Option<(SimTime, bool)> {
        seq.checked_sub(self.snd_una)
            .and_then(|i| self.sent_at.get(i as usize))
            .copied()
    }

    /// Overwrite the send record of an outstanding `seq`.
    #[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
    fn set_sent(&mut self, seq: u64, entry: (SimTime, bool)) {
        let i = (seq - self.snd_una) as usize;
        if i < self.sent_at.len() {
            self.sent_at[i] = entry;
        } else {
            debug_assert_eq!(i, self.sent_at.len(), "send window gap");
            self.sent_at.push_back(entry);
        }
    }
}

/// Create a TCP flow (no data authorized yet). Use [`tcp_push`] to send.
pub fn start_tcp_flow<W: NetWorld>(w: &mut W, src: StationId, dst: StationId) -> FlowId {
    w.net_mut()
        .insert_flow(|id| Flow::Tcp(Box::new(TcpFlow::new(id, src, dst))))
}

/// Authorize `bytes` more bytes on the flow and (re)start transmission.
pub fn tcp_push<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId, bytes: u64) {
    {
        let f = w.net_mut().tcp_mut(id);
        f.budget += bytes.div_ceil(MSS as u64);
        f.completed_at = None;
    }
    try_send(w, q, id);
}

/// [`tcp_push`] deferred to the instant `at`, as a [`NetEvent::TcpPush`].
pub fn tcp_push_at<W: NetWorld>(q: &mut Queue<W>, at: SimTime, flow: FlowId, bytes: u64) {
    q.post_at(at, NetEvent::TcpPush { flow, bytes }.into());
}

fn data_frame(f: &TcpFlow, seq: u64) -> Frame {
    Frame::data(
        f.src,
        Dest::Unicast(f.dst),
        PayloadTag {
            flow: f.id,
            seq,
            bytes: MSS,
        },
    )
}

fn ack_frame(f: &TcpFlow, ack: u64) -> Frame {
    // ACK travels receiver → sender; `bytes: 0` marks it as an ACK. The
    // 40-byte TCP/IP header still occupies real airtime via MAC overhead.
    Frame::data(
        f.dst,
        Dest::Unicast(f.src),
        PayloadTag {
            flow: f.id,
            seq: ack,
            bytes: 0,
        },
    )
}

fn try_send<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId) {
    let mut to_send = Vec::new();
    #[expect(clippy::cast_possible_truncation, reason = "R5: whole cwnd segments")]
    let (had_outstanding, src) = {
        let f = w.net_mut().tcp_mut(id);
        let had = f.outstanding() > 0;
        while f.outstanding() < f.cwnd as u64 && f.next_seq <= f.budget {
            to_send.push(f.next_seq);
            f.next_seq += 1;
        }
        (had, f.src)
    };
    let now = q.now();
    for seq in to_send {
        let frame = {
            let f = w.net_mut().tcp_mut(id);
            f.set_sent(seq, (now, false));
            data_frame(f, seq)
        };
        if !enqueue(w, q, src, frame) {
            // MAC queue full: roll back and let ACK clocking retry.
            let f = w.net_mut().tcp_mut(id);
            f.sent_at.pop_back();
            f.next_seq = seq;
            break;
        }
    }
    let f = w.net_mut().tcp_mut(id);
    if !had_outstanding && f.outstanding() > 0 {
        arm_rto(w, q, id);
    }
}

fn retransmit<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId, seq: u64) {
    let (frame, src) = {
        let f = w.net_mut().tcp_mut(id);
        f.retransmits += 1;
        f.set_sent(seq, (q.now(), true));
        (data_frame(f, seq), f.src)
    };
    let _ = enqueue(w, q, src, frame);
}

fn arm_rto<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId) {
    let (epoch, rto) = {
        let f = w.net_mut().tcp_mut(id);
        f.timer_epoch += 1;
        (f.timer_epoch, f.rto)
    };
    q.post_in(
        SimDuration::from_secs_f64(rto),
        NetEvent::TcpRto { flow: id, epoch }.into(),
    );
}

/// An RTO fired (routed here from [`crate::dispatch_net`]): if the epoch is
/// current and data is outstanding, back off and retransmit from `snd_una`.
pub(crate) fn rto_fire<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId, epoch: u64) {
    let _prof = prof::span("net.tcp.rto");
    let expired = {
        let Some(Flow::Tcp(f)) = w.net_mut().flow_mut(id) else {
            return;
        };
        if f.timer_epoch != epoch || f.outstanding() == 0 {
            false
        } else {
            f.timeouts += 1;
            let rto_expired = f.rto;
            f.ssthresh = (f.cwnd / 2.0).max(2.0);
            f.cwnd = 1.0;
            f.rto = (f.rto * 2.0).min(RTO_MAX);
            f.dup_acks = 0;
            f.recovery_high = None;
            obs_metrics::counter(obs_metrics::keys::NET_TCP_RTO).inc();
            if obs::enabled() {
                obs::emit(
                    q.now(),
                    obs::TraceEvent::TcpRto {
                        flow: id,
                        rto_s: rto_expired,
                        cwnd: f.cwnd,
                    },
                );
                obs::emit(
                    q.now(),
                    obs::TraceEvent::TcpCwnd {
                        flow: id,
                        cwnd: f.cwnd,
                        ssthresh: f.ssthresh,
                        cause: obs::CwndCause::Rto,
                    },
                );
            }
            true
        }
    };
    if expired {
        let seq = w.net_mut().tcp_mut(id).snd_una;
        retransmit(w, q, id, seq);
        arm_rto(w, q, id);
    }
}

/// Handle a delivered TCP frame (dispatched from [`crate::on_deliver`]).
pub fn on_tcp_deliver<W: NetWorld>(w: &mut W, q: &mut Queue<W>, rx: StationId, frame: &Frame) {
    let _prof = prof::span("net.tcp.deliver");
    let id = frame.payload.flow;
    if frame.payload.bytes > 0 {
        receiver_data(w, q, id, rx, frame.payload.seq);
    } else {
        sender_ack(w, q, id, frame.payload.seq);
    }
}

fn receiver_data<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId, rx: StationId, seq: u64) {
    let now = q.now();
    let (ack, frame, src) = {
        let Some(Flow::Tcp(f)) = w.net_mut().flow_mut(id) else {
            return;
        };
        debug_assert_eq!(rx, f.dst, "TCP data delivered to wrong station");
        let before = f.rcv_next;
        if seq == f.rcv_next {
            f.rcv_next += 1;
            while f.ooo.remove(&f.rcv_next) {
                f.rcv_next += 1;
            }
        } else if seq > f.rcv_next {
            f.ooo.insert(seq);
        } // else: duplicate of already-received data, still ACK.
        let advanced = f.rcv_next - before;
        if advanced > 0 {
            f.delivered.record(now, advanced * MSS as u64);
        }
        (f.rcv_next, ack_frame(f, f.rcv_next), f.dst)
    };
    let _ = ack;
    let _ = enqueue(w, q, src, frame);
}

fn sender_ack<W: NetWorld>(w: &mut W, q: &mut Queue<W>, id: FlowId, ack: u64) {
    let now = q.now();
    enum Action {
        None,
        FastRetransmit(u64),
        PartialRetransmit(u64),
        Completed,
    }
    let (action, rearm) = {
        let Some(Flow::Tcp(f)) = w.net_mut().flow_mut(id) else {
            return;
        };
        let mut action = Action::None;
        if ack > f.snd_una {
            let newly = ack - f.snd_una;
            // RTT sample from the newest segment this ACK covers, unless it
            // was retransmitted (Karn's rule).
            if let Some((t, retx)) = f.sent_entry(ack - 1) {
                if !retx {
                    let sample = now.duration_since(t).as_secs_f64();
                    let srtt_now = match f.srtt {
                        None => {
                            f.rttvar = sample / 2.0;
                            sample
                        }
                        Some(srtt) => {
                            f.rttvar = 0.75 * f.rttvar + 0.25 * (srtt - sample).abs();
                            0.875 * srtt + 0.125 * sample
                        }
                    };
                    f.srtt = Some(srtt_now);
                    f.rto = (srtt_now + 4.0 * f.rttvar).clamp(RTO_MIN, RTO_MAX);
                }
            }
            // Slide the window: drop the records of everything now ACKed.
            for _ in f.snd_una..ack {
                f.sent_at.pop_front();
            }
            f.snd_una = ack;
            f.dup_acks = 0;
            match f.recovery_high {
                Some(high) if ack > high => {
                    // Full recovery.
                    f.recovery_high = None;
                    f.cwnd = f.ssthresh;
                    if obs::enabled() {
                        obs::emit(
                            now,
                            obs::TraceEvent::TcpCwnd {
                                flow: id,
                                cwnd: f.cwnd,
                                ssthresh: f.ssthresh,
                                cause: obs::CwndCause::Recovered,
                            },
                        );
                    }
                }
                Some(_) => {
                    // NewReno partial ACK: retransmit the next hole.
                    action = Action::PartialRetransmit(f.snd_una);
                }
                None => {
                    if f.cwnd < f.ssthresh {
                        f.cwnd += newly as f64; // slow start
                    } else {
                        f.cwnd += newly as f64 / f.cwnd; // congestion avoidance
                    }
                }
            }
            if f.snd_una > f.budget && f.outstanding() == 0 && f.completed_at.is_none() {
                f.completed_at = Some(now);
                action = Action::Completed;
            }
        } else if ack == f.snd_una && f.outstanding() > 0 {
            f.dup_acks += 1;
            if f.dup_acks == 3 && f.recovery_high.is_none() {
                f.ssthresh = (f.cwnd / 2.0).max(2.0);
                f.cwnd = f.ssthresh;
                f.recovery_high = Some(f.next_seq - 1);
                obs_metrics::counter(obs_metrics::keys::NET_TCP_FAST_RETRANSMIT).inc();
                if obs::enabled() {
                    obs::emit(
                        now,
                        obs::TraceEvent::TcpCwnd {
                            flow: id,
                            cwnd: f.cwnd,
                            ssthresh: f.ssthresh,
                            cause: obs::CwndCause::FastRetransmit,
                        },
                    );
                }
                action = Action::FastRetransmit(f.snd_una);
            }
        }
        let rearm = f.outstanding() > 0 || f.next_seq <= f.budget;
        (action, rearm)
    };
    match action {
        Action::FastRetransmit(seq) | Action::PartialRetransmit(seq) => {
            retransmit(w, q, id, seq);
        }
        Action::Completed => {
            let page = w.net().tcp(id).page;
            if let Some((p, c)) = page {
                crate::web::on_conn_drained(w, q, p, c);
            }
        }
        Action::None => {}
    }
    if rearm {
        arm_rto(w, q, id);
    }
    try_send(w, q, id);
}
