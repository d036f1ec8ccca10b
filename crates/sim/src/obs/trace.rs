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
//! This module is the one definition of the trace record format. The
//! `trace_catalogue!` invocation below declares each kind once: its
//! variant, tag, layer, and fields in emission order with their JSON
//! types ([`FieldType`]). [`TraceEvent::layer`], [`TraceEvent::kind`],
//! [`TraceEvent::entity`] and [`TraceRecord::to_json_line`] are derived
//! from it, and the exported [`CATALOGUE`] is what `powifi-obs trace
//! validate` checks records against, so a new kind is an edit to this
//! file alone.
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
use serde::Value;
use serde_json::{write_float, write_string};

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

/// The JSON type of a trace field, as [`TraceRecord::to_json_line`] writes
/// it and `powifi-obs trace validate` checks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Unsigned integer.
    Uint,
    /// Number; a non-finite float is written as `null`.
    Number,
    /// String.
    Str,
    /// Boolean.
    Bool,
    /// A finite positive number: a rate a frame can be sent at.
    Rate,
}

impl FieldType {
    /// Does a parsed field value have this type?
    pub fn admits(self, v: &Value) -> bool {
        match self {
            FieldType::Uint => matches!(v, Value::UInt(_)),
            FieldType::Number => matches!(
                v,
                Value::Float(_) | Value::UInt(_) | Value::Int(_) | Value::Null
            ),
            FieldType::Str => matches!(v, Value::Str(_)),
            FieldType::Bool => matches!(v, Value::Bool(_)),
            FieldType::Rate => {
                matches!(*v, Value::Float(x) if x.is_finite() && x > 0.0)
                    || matches!(*v, Value::UInt(n) if n > 0)
            }
        }
    }
}

/// One event kind's record shape: `{"t":…,"layer":…,"kind":…}` followed
/// by its fields in this order.
#[derive(Debug)]
pub struct KindSpec {
    /// Stable event-kind tag.
    pub kind: &'static str,
    /// Subsystem that emits the kind: `mac`, `core`, `harvest`, `net`.
    pub layer: &'static str,
    /// Field names in emission order, each with its JSON type.
    pub fields: &'static [(&'static str, FieldType)],
}

/// A record's primary entity, the id `powifi-obs trace filter --entity`
/// filters on: its `sta` field, else its `iface`, else its `flow`. `get`
/// reads one unsigned field by name.
pub fn entity_of<T>(get: impl FnMut(&str) -> Option<T>) -> Option<T> {
    ["sta", "iface", "flow"].into_iter().find_map(get)
}

/// One field value of an event, as it is written.
#[derive(Debug, Clone, Copy)]
enum Field {
    Uint(u32),
    Number(f64),
    Str(&'static str),
    Bool(bool),
}

impl Field {
    fn write(self, out: &mut String) {
        match self {
            Field::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Field::Number(x) => write_float(out, x),
            Field::Str(label) => write_string(out, label),
            Field::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

/// The [`Field`] a field of the given [`FieldType`] holds; a mismatch
/// between a field's Rust type and its declared JSON type fails to compile.
macro_rules! field {
    (Uint, $v:expr) => {
        Field::Uint($v)
    };
    (Number, $v:expr) => {
        Field::Number($v)
    };
    (Rate, $v:expr) => {
        Field::Number($v)
    };
    (Str, $v:expr) => {
        Field::Str($v.label())
    };
    (Bool, $v:expr) => {
        Field::Bool($v)
    };
}

/// Declare the event catalogue: each kind once, as a [`TraceEvent`]
/// variant `Variant = "kind" in "layer" { field: RustType as FieldType }`
/// with its fields in emission order. The enum, [`CATALOGUE`] and the one
/// per-kind match behind [`TraceEvent::layer`], [`TraceEvent::kind`],
/// [`TraceEvent::entity`] and [`TraceRecord::to_json_line`] all come from
/// this list.
macro_rules! trace_catalogue {
    ($(#[$meta:meta])* pub enum TraceEvent { $(
        $(#[doc = $doc:literal])*
        $variant:ident = $kind:literal in $layer:literal {
            $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty as $json:ident,)+
        },
    )+ }) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $($(#[doc = $doc])* $variant { $($(#[doc = $fdoc])* $field: $ty,)+ },)+
        }

        /// Every event kind's record shape, in declaration order.
        pub const CATALOGUE: &[KindSpec] = &[$(KindSpec {
            kind: $kind,
            layer: $layer,
            fields: &[$((stringify!($field), FieldType::$json)),+],
        }),+];

        impl TraceEvent {
            /// Call `f` with this event's catalogue entry and its field
            /// values in emission order.
            fn with_parts<R>(&self, f: impl FnOnce(&'static KindSpec, &[Field]) -> R) -> R {
                enum Index {
                    $($variant),+
                }
                match *self {
                    $(TraceEvent::$variant { $($field),+ } => f(
                        &CATALOGUE[Index::$variant as usize],
                        &[$(field!($json, $field)),+],
                    ),)+
                }
            }
        }
    };
}

trace_catalogue! {
    /// One typed trace event. Field units: times in integer nanoseconds (the
    /// record carries the timestamp), rates in Mbps, voltages in volts.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum TraceEvent {
        /// A station won arbitration and its frame hit the air.
        MacTxStart = "tx_start" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Transmitting station id.
            sta: u32 as Uint,
            /// Frame classification.
            frame: FrameClass as Str,
            /// Full MPDU size in bytes.
            bytes: u32 as Uint,
            /// PHY rate in Mbps.
            rate_mbps: f64 as Rate,
            /// True when this transmission overlapped another winner.
            collided: bool as Bool,
        },
        /// A transmission (and any ACK wait) finished.
        MacTxEnd = "tx_end" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Transmitting station id.
            sta: u32 as Uint,
        },
        /// A station drew a fresh backoff.
        MacBackoffDraw = "backoff_draw" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Station id.
            sta: u32 as Uint,
            /// Slots drawn, `0..=cw`.
            slots: u32 as Uint,
            /// Contention window the draw was taken from.
            cw: u32 as Uint,
        },
        /// A station wanting the medium found it busy and deferred (will
        /// re-arm DIFS + backoff after the medium clears).
        MacDifsDefer = "difs_defer" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Station id.
            sta: u32 as Uint,
        },
        /// Unicast frame was acknowledged.
        MacAck = "ack" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Station id whose frame was ACKed.
            sta: u32 as Uint,
        },
        /// Unicast frame collided and will be retried with a doubled window.
        MacRetry = "retry" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Station id.
            sta: u32 as Uint,
            /// Retry count after this failure.
            retries: u32 as Uint,
        },
        /// Frame was dropped.
        MacDrop = "drop" in "mac" {
            /// Medium (channel) index.
            medium: u32 as Uint,
            /// Station id.
            sta: u32 as Uint,
            /// Why it was dropped.
            reason: DropReason as Str,
        },
        /// The injector's queue-depth gate changed state (§3.1: transmit only
        /// when the queue is shallower than the threshold).
        InjectorGate = "injector_gate" in "core" {
            /// Interface (router station) id.
            iface: u32 as Uint,
            /// True when the gate opened (admitting power packets).
            open: bool as Bool,
            /// Transmit-queue depth observed at the decision.
            qdepth: u32 as Uint,
        },
        /// The injector emitted one power packet.
        PowerPacket = "power_packet" in "core" {
            /// Interface (router station) id.
            iface: u32 as Uint,
            /// Payload size in bytes.
            bytes: u32 as Uint,
        },
        /// Harvester storage voltage crossed the output-switch threshold.
        StorageCross = "storage_cross" in "harvest" {
            /// Storage voltage at the crossing.
            volts: f64 as Number,
            /// Threshold crossed.
            threshold: f64 as Number,
            /// True for an upward crossing.
            rising: bool as Bool,
        },
        /// Output switch turned on: stored energy reached the cold-start point.
        ColdStart = "cold_start" in "harvest" {
            /// Storage voltage at turn-on.
            volts: f64 as Number,
        },
        /// Output switch turned off: the load browned out.
        Brownout = "brownout" in "harvest" {
            /// Storage voltage at turn-off.
            volts: f64 as Number,
        },
        /// Boost-converter MPPT operating point update.
        MpptUpdate = "mppt_update" in "harvest" {
            /// MPPT reference voltage.
            vref_volts: f64 as Number,
            /// Relative harvest efficiency at that reference.
            factor: f64 as Number,
        },
        /// TCP retransmission timeout fired.
        TcpRto = "tcp_rto" in "net" {
            /// Flow id.
            flow: u32 as Uint,
            /// RTO that just expired, in seconds.
            rto_s: f64 as Number,
            /// Congestion window after the collapse, in segments.
            cwnd: f64 as Number,
        },
        /// TCP congestion window changed discontinuously.
        TcpCwnd = "tcp_cwnd" in "net" {
            /// Flow id.
            flow: u32 as Uint,
            /// New congestion window, in segments.
            cwnd: f64 as Number,
            /// New slow-start threshold, in segments.
            ssthresh: f64 as Number,
            /// What triggered the change.
            cause: CwndCause as Str,
        },
    }
}

impl TraceEvent {
    /// Subsystem that emitted the event: `mac`, `core`, `harvest`, `net`.
    pub fn layer(&self) -> &'static str {
        self.with_parts(|spec, _| spec.layer)
    }

    /// Stable event-kind tag used in rendered records and filters.
    pub fn kind(&self) -> &'static str {
        self.with_parts(|spec, _| spec.kind)
    }

    /// Primary entity id (station, interface or flow) when the event has
    /// one, by the rule of [`entity_of`].
    pub fn entity(&self) -> Option<u32> {
        self.with_parts(|spec, values| {
            entity_of(|name| {
                let i = spec.fields.iter().position(|&(n, _)| n == name)?;
                let Field::Uint(id) = values[i] else {
                    return None;
                };
                Some(id)
            })
        })
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
    /// order is fixed: `t`, `layer`, `kind`, then the kind's fields in
    /// [`CATALOGUE`] order.
    pub fn to_json_line(&self) -> String {
        self.event.with_parts(|spec, values| {
            let mut s = String::with_capacity(96);
            let _ = write!(
                s,
                "{{\"t\":{},\"layer\":\"{}\",\"kind\":\"{}\"",
                self.at.as_nanos(),
                spec.layer,
                spec.kind
            );
            for (&(name, _), value) in spec.fields.iter().zip(values) {
                s.push_str(",\"");
                s.push_str(name);
                s.push_str("\":");
                value.write(&mut s);
            }
            s.push('}');
            s
        })
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
