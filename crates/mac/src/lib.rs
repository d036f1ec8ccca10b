//! # powifi-mac
//!
//! An event-driven 802.11g DCF simulator: frames and airtime, per-channel
//! collision domains with carrier sense and binary-exponential backoff,
//! unicast ACK/retry, broadcast (no-ACK) transmission — the property PoWiFi's
//! power packets exploit — AARF rate adaptation, beacons, and the monitor-
//! mode occupancy accounting the paper's evaluation is built on.
//!
//! Protocol logic is exposed as free functions over a [`MacWorld`] trait so
//! the transport layer, the PoWiFi router and the deployment scenarios can
//! compose one simulation world; see [`world`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod airtime;
pub mod ckpt;
pub mod conformance;
pub mod frame;
pub mod occupancy;
pub mod rate_adapt;
pub mod trace;
pub mod world;

pub use airtime::{ack_airtime, frame_airtime, tshark_airtime, MacTiming};
pub use frame::{
    Dest, Frame, FrameKind, MediumId, PayloadTag, StationId, TxOutcome, MAC_OVERHEAD_BYTES,
};
pub use occupancy::OccupancyMonitor;
pub use rate_adapt::RateController;
pub use trace::{FrameRecord, FrameTrace};
pub use world::{
    dispatch_mac, enqueue, start_beacons, start_source, Mac, MacEvent, MacWorld, Medium, Queue,
    Source, Station,
};
