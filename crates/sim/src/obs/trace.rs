//! Structured trace subsystem: typed, sim-time-stamped event records
//! collected by [`capture_jsonl`].
//!
//! The event catalogue ([`TraceEvent`]) covers the control-loop moments the
//! paper reasons about: MAC transmissions and contention (tx start/end,
//! backoff draws, DIFS deferrals, ACKs, retries, drops), the injector's
//! queue-depth gate and power-packet emissions (§3.1), harvester
//! storage-voltage crossings (cold start / brownout) and MPPT updates, and
//! TCP RTO / cwnd transitions.
//!
//! Recording is thread-local, like [`crate::conformance`]: a harness runs
//! the simulation inside [`capture_jsonl`], which turns tracing on for the
//! closure and hands back what it recorded; instrumented hot paths pay
//! exactly one branch ([`enabled`]) when tracing is off. Timestamps are
//! [`SimTime`] only — rendered JSONL is byte-identical for a given seed
//! regardless of `--jobs` or debug/release.
//!
//! Simulation layers only [`emit`]; lint rule R6 keeps [`capture_jsonl`]
//! out of the instrumented sim crates, so only harnesses decide what is
//! captured.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

use crate::time::SimTime;
use serde_json::write_float;

/// Classification of a MAC frame in trace records (mirrors the MAC layer's
/// frame kinds without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Ordinary data traffic.
    Data,
    /// PoWiFi power packet (UDP ballast).
    Power,
    /// Beacon.
    Beacon,
    /// Management traffic.
    Management,
}

impl FrameClass {
    fn label(self) -> &'static str {
        match self {
            FrameClass::Data => "data",
            FrameClass::Power => "power",
            FrameClass::Beacon => "beacon",
            FrameClass::Management => "mgmt",
        }
    }
}

/// Why a MAC frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Transmit queue was full at enqueue time.
    QueueFull,
    /// Retry limit exhausted after repeated collisions.
    RetryLimit,
}

impl DropReason {
    fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::RetryLimit => "retry_limit",
        }
    }
}

/// What triggered a TCP congestion-window change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CwndCause {
    /// Retransmission timeout collapsed the window.
    Rto,
    /// Three duplicate ACKs → fast retransmit, window halved.
    FastRetransmit,
    /// Recovery completed; window restored to ssthresh.
    Recovered,
}

impl CwndCause {
    fn label(self) -> &'static str {
        match self {
            CwndCause::Rto => "rto",
            CwndCause::FastRetransmit => "fast_retransmit",
            CwndCause::Recovered => "recovered",
        }
    }
}

/// One typed trace event. Field units: times in integer nanoseconds (the
/// record carries the timestamp), rates in Mbps, voltages in volts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A station won arbitration and its frame hit the air.
    MacTxStart {
        /// Medium (channel) index.
        medium: u32,
        /// Transmitting station id.
        sta: u32,
        /// Frame classification.
        frame: FrameClass,
        /// Full MPDU size in bytes.
        bytes: u32,
        /// PHY rate in Mbps.
        rate_mbps: f64,
        /// True when this transmission overlapped another winner.
        collided: bool,
    },
    /// A transmission (and any ACK wait) finished.
    MacTxEnd {
        /// Medium (channel) index.
        medium: u32,
        /// Transmitting station id.
        sta: u32,
    },
    /// A station drew a fresh backoff.
    MacBackoffDraw {
        /// Medium (channel) index.
        medium: u32,
        /// Station id.
        sta: u32,
        /// Slots drawn, `0..=cw`.
        slots: u32,
        /// Contention window the draw was taken from.
        cw: u32,
    },
    /// A station wanting the medium found it busy and deferred (will
    /// re-arm DIFS + backoff after the medium clears).
    MacDifsDefer {
        /// Medium (channel) index.
        medium: u32,
        /// Station id.
        sta: u32,
    },
    /// Unicast frame was acknowledged.
    MacAck {
        /// Medium (channel) index.
        medium: u32,
        /// Station id whose frame was ACKed.
        sta: u32,
    },
    /// Unicast frame collided and will be retried with a doubled window.
    MacRetry {
        /// Medium (channel) index.
        medium: u32,
        /// Station id.
        sta: u32,
        /// Retry count after this failure.
        retries: u32,
    },
    /// Frame was dropped.
    MacDrop {
        /// Medium (channel) index.
        medium: u32,
        /// Station id.
        sta: u32,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// The injector's queue-depth gate changed state (§3.1: transmit only
    /// when the queue is shallower than the threshold).
    InjectorGate {
        /// Interface (router station) id.
        iface: u32,
        /// True when the gate opened (admitting power packets).
        open: bool,
        /// Transmit-queue depth observed at the decision.
        qdepth: u32,
    },
    /// The injector emitted one power packet.
    PowerPacket {
        /// Interface (router station) id.
        iface: u32,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Harvester storage voltage crossed the output-switch threshold.
    StorageCross {
        /// Storage voltage at the crossing.
        volts: f64,
        /// Threshold crossed.
        threshold: f64,
        /// True for an upward crossing.
        rising: bool,
    },
    /// Output switch turned on: stored energy reached the cold-start point.
    ColdStart {
        /// Storage voltage at turn-on.
        volts: f64,
    },
    /// Output switch turned off: the load browned out.
    Brownout {
        /// Storage voltage at turn-off.
        volts: f64,
    },
    /// Boost-converter MPPT operating point update.
    MpptUpdate {
        /// MPPT reference voltage.
        vref_volts: f64,
        /// Relative harvest efficiency at that reference.
        factor: f64,
    },
    /// TCP retransmission timeout fired.
    TcpRto {
        /// Flow id.
        flow: u32,
        /// RTO that just expired, in seconds.
        rto_s: f64,
        /// Congestion window after the collapse, in segments.
        cwnd: f64,
    },
    /// TCP congestion window changed discontinuously.
    TcpCwnd {
        /// Flow id.
        flow: u32,
        /// New congestion window, in segments.
        cwnd: f64,
        /// New slow-start threshold, in segments.
        ssthresh: f64,
        /// What triggered the change.
        cause: CwndCause,
    },
}

impl TraceEvent {
    /// Subsystem that emitted the event: `mac`, `core`, `harvest`, `net`.
    pub fn layer(&self) -> &'static str {
        match self {
            TraceEvent::MacTxStart { .. }
            | TraceEvent::MacTxEnd { .. }
            | TraceEvent::MacBackoffDraw { .. }
            | TraceEvent::MacDifsDefer { .. }
            | TraceEvent::MacAck { .. }
            | TraceEvent::MacRetry { .. }
            | TraceEvent::MacDrop { .. } => "mac",
            TraceEvent::InjectorGate { .. } | TraceEvent::PowerPacket { .. } => "core",
            TraceEvent::StorageCross { .. }
            | TraceEvent::ColdStart { .. }
            | TraceEvent::Brownout { .. }
            | TraceEvent::MpptUpdate { .. } => "harvest",
            TraceEvent::TcpRto { .. } | TraceEvent::TcpCwnd { .. } => "net",
        }
    }

    /// Stable event-kind tag used in rendered records and filters.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MacTxStart { .. } => "tx_start",
            TraceEvent::MacTxEnd { .. } => "tx_end",
            TraceEvent::MacBackoffDraw { .. } => "backoff_draw",
            TraceEvent::MacDifsDefer { .. } => "difs_defer",
            TraceEvent::MacAck { .. } => "ack",
            TraceEvent::MacRetry { .. } => "retry",
            TraceEvent::MacDrop { .. } => "drop",
            TraceEvent::InjectorGate { .. } => "injector_gate",
            TraceEvent::PowerPacket { .. } => "power_packet",
            TraceEvent::StorageCross { .. } => "storage_cross",
            TraceEvent::ColdStart { .. } => "cold_start",
            TraceEvent::Brownout { .. } => "brownout",
            TraceEvent::MpptUpdate { .. } => "mppt_update",
            TraceEvent::TcpRto { .. } => "tcp_rto",
            TraceEvent::TcpCwnd { .. } => "tcp_cwnd",
        }
    }

    /// Primary entity id (station, interface or flow) when the event has
    /// one — the id `powifi-obs trace filter --entity` filters on.
    pub fn entity(&self) -> Option<u32> {
        match *self {
            TraceEvent::MacTxStart { sta, .. }
            | TraceEvent::MacTxEnd { sta, .. }
            | TraceEvent::MacBackoffDraw { sta, .. }
            | TraceEvent::MacDifsDefer { sta, .. }
            | TraceEvent::MacAck { sta, .. }
            | TraceEvent::MacRetry { sta, .. }
            | TraceEvent::MacDrop { sta, .. } => Some(sta),
            TraceEvent::InjectorGate { iface, .. } | TraceEvent::PowerPacket { iface, .. } => {
                Some(iface)
            }
            TraceEvent::TcpRto { flow, .. } | TraceEvent::TcpCwnd { flow, .. } => Some(flow),
            TraceEvent::StorageCross { .. }
            | TraceEvent::ColdStart { .. }
            | TraceEvent::Brownout { .. }
            | TraceEvent::MpptUpdate { .. } => None,
        }
    }
}

/// One sim-time-stamped trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulation time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Render as one line of stable JSON (no trailing newline). Field
    /// order is fixed: `t`, `layer`, `kind`, then event-specific fields.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"layer\":\"{}\",\"kind\":\"{}\"",
            self.at.as_nanos(),
            self.event.layer(),
            self.event.kind()
        );
        match self.event {
            TraceEvent::MacTxStart {
                medium,
                sta,
                frame,
                bytes,
                rate_mbps,
                collided,
            } => {
                let _ = write!(
                    s,
                    ",\"medium\":{medium},\"sta\":{sta},\"frame\":\"{}\",\"bytes\":{bytes},\"rate_mbps\":",
                    frame.label()
                );
                write_float(&mut s, rate_mbps);
                let _ = write!(s, ",\"collided\":{collided}");
            }
            TraceEvent::MacTxEnd { medium, sta } => {
                let _ = write!(s, ",\"medium\":{medium},\"sta\":{sta}");
            }
            TraceEvent::MacBackoffDraw {
                medium,
                sta,
                slots,
                cw,
            } => {
                let _ = write!(
                    s,
                    ",\"medium\":{medium},\"sta\":{sta},\"slots\":{slots},\"cw\":{cw}"
                );
            }
            TraceEvent::MacDifsDefer { medium, sta } => {
                let _ = write!(s, ",\"medium\":{medium},\"sta\":{sta}");
            }
            TraceEvent::MacAck { medium, sta } => {
                let _ = write!(s, ",\"medium\":{medium},\"sta\":{sta}");
            }
            TraceEvent::MacRetry {
                medium,
                sta,
                retries,
            } => {
                let _ = write!(
                    s,
                    ",\"medium\":{medium},\"sta\":{sta},\"retries\":{retries}"
                );
            }
            TraceEvent::MacDrop {
                medium,
                sta,
                reason,
            } => {
                let _ = write!(
                    s,
                    ",\"medium\":{medium},\"sta\":{sta},\"reason\":\"{}\"",
                    reason.label()
                );
            }
            TraceEvent::InjectorGate {
                iface,
                open,
                qdepth,
            } => {
                let _ = write!(s, ",\"iface\":{iface},\"open\":{open},\"qdepth\":{qdepth}");
            }
            TraceEvent::PowerPacket { iface, bytes } => {
                let _ = write!(s, ",\"iface\":{iface},\"bytes\":{bytes}");
            }
            TraceEvent::StorageCross {
                volts,
                threshold,
                rising,
            } => {
                s.push_str(",\"volts\":");
                write_float(&mut s, volts);
                s.push_str(",\"threshold\":");
                write_float(&mut s, threshold);
                let _ = write!(s, ",\"rising\":{rising}");
            }
            TraceEvent::ColdStart { volts } | TraceEvent::Brownout { volts } => {
                s.push_str(",\"volts\":");
                write_float(&mut s, volts);
            }
            TraceEvent::MpptUpdate { vref_volts, factor } => {
                s.push_str(",\"vref_volts\":");
                write_float(&mut s, vref_volts);
                s.push_str(",\"factor\":");
                write_float(&mut s, factor);
            }
            TraceEvent::TcpRto { flow, rto_s, cwnd } => {
                let _ = write!(s, ",\"flow\":{flow},\"rto_s\":");
                write_float(&mut s, rto_s);
                s.push_str(",\"cwnd\":");
                write_float(&mut s, cwnd);
            }
            TraceEvent::TcpCwnd {
                flow,
                cwnd,
                ssthresh,
                cause,
            } => {
                let _ = write!(s, ",\"flow\":{flow},\"cwnd\":");
                write_float(&mut s, cwnd);
                s.push_str(",\"ssthresh\":");
                write_float(&mut s, ssthresh);
                let _ = write!(s, ",\"cause\":\"{}\"", cause.label());
            }
        }
        s.push('}');
        s
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDS: RefCell<Vec<TraceRecord>> = const { RefCell::new(Vec::new()) };
}

/// Is tracing enabled on this thread? Instrumented hot paths check this
/// single branch before constructing an event.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Emit one event at sim time `at`. No-op when tracing is disabled.
pub fn emit(at: SimTime, event: TraceEvent) {
    if !enabled() {
        return;
    }
    RECORDS.with(|r| r.borrow_mut().push(TraceRecord { at, event }));
}

/// Run `f` with tracing enabled on this thread and return its result
/// alongside the records it emitted, rendered as JSONL (one record per
/// line, each newline-terminated). The caller's enabled flag and records
/// are restored afterwards, so captures nest: an inner capture's records
/// stay out of the outer one, which keeps recording after it.
pub fn capture_jsonl<T>(f: impl FnOnce() -> T) -> (T, String) {
    let was_enabled = ENABLED.with(|e| e.replace(true));
    let outer = RECORDS.with(|r| std::mem::take(&mut *r.borrow_mut()));
    let out = f();
    ENABLED.with(|e| e.set(was_enabled));
    let records = RECORDS.with(|r| std::mem::replace(&mut *r.borrow_mut(), outer));
    let jsonl = records.iter().map(|r| r.to_json_line() + "\n").collect();
    (out, jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sample() -> TraceRecord {
        TraceRecord {
            at: SimTime::ZERO + SimDuration::from_micros(250),
            event: TraceEvent::MacTxStart {
                medium: 0,
                sta: 2,
                frame: FrameClass::Power,
                bytes: 1536,
                rate_mbps: 54.0,
                collided: false,
            },
        }
    }

    #[test]
    fn record_renders_stable_json() {
        assert_eq!(
            sample().to_json_line(),
            "{\"t\":250000,\"layer\":\"mac\",\"kind\":\"tx_start\",\
             \"medium\":0,\"sta\":2,\"frame\":\"power\",\"bytes\":1536,\
             \"rate_mbps\":54.0,\"collided\":false}"
        );
    }

    #[test]
    fn emit_is_noop_when_disabled() {
        assert!(!enabled());
        emit(SimTime::ZERO, TraceEvent::MacTxEnd { medium: 0, sta: 0 });
        // Nothing was recorded, so a capture that emits nothing is empty.
        let ((), jsonl) = capture_jsonl(|| ());
        assert_eq!(jsonl, "");
    }

    #[test]
    fn install_captures_emitted_events() {
        let ((), jsonl) = capture_jsonl(|| {
            assert!(enabled());
            emit(
                SimTime::from_micros(1),
                TraceEvent::InjectorGate {
                    iface: 0,
                    open: true,
                    qdepth: 3,
                },
            );
            emit(
                SimTime::from_micros(2),
                TraceEvent::PowerPacket {
                    iface: 0,
                    bytes: 700,
                },
            );
        });
        assert!(!enabled());
        assert_eq!(
            jsonl,
            "{\"t\":1000,\"layer\":\"core\",\"kind\":\"injector_gate\",\
             \"iface\":0,\"open\":true,\"qdepth\":3}\n\
             {\"t\":2000,\"layer\":\"core\",\"kind\":\"power_packet\",\
             \"iface\":0,\"bytes\":700}\n"
        );
    }

    #[test]
    fn captures_nest() {
        let event = |sta| TraceEvent::MacTxEnd { medium: 0, sta };
        let line = |sta| {
            let rec = TraceRecord {
                at: SimTime::ZERO,
                event: event(sta),
            };
            rec.to_json_line() + "\n"
        };
        let (inner, outer) = capture_jsonl(|| {
            emit(SimTime::ZERO, event(1));
            let ((), inner) = capture_jsonl(|| emit(SimTime::ZERO, event(2)));
            assert!(enabled(), "the outer capture keeps recording");
            emit(SimTime::ZERO, event(3));
            inner
        });
        assert_eq!(inner, line(2));
        assert_eq!(outer, line(1) + &line(3));
        assert!(!enabled());
    }

    #[test]
    fn layers_and_kinds_are_consistent() {
        let ev = TraceEvent::TcpCwnd {
            flow: 1,
            cwnd: 2.0,
            ssthresh: 4.0,
            cause: CwndCause::FastRetransmit,
        };
        assert_eq!(ev.layer(), "net");
        assert_eq!(ev.kind(), "tcp_cwnd");
        assert_eq!(ev.entity(), Some(1));
        let line = TraceRecord {
            at: SimTime::ZERO,
            event: ev,
        }
        .to_json_line();
        assert!(line.contains("\"cause\":\"fast_retransmit\""), "{line}");
    }
}
