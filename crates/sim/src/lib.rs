//! # powifi-sim
//!
//! Deterministic discrete-event simulation substrate for the PoWiFi
//! reproduction: integer simulation time, a typed-event timer-wheel
//! calendar with eager cancellation, seeded splittable randomness, and the
//! measurement primitives (CDFs, time-weighted means, binned throughput,
//! power envelopes) that the paper's figures are built from.
//!
//! Design notes:
//! * Single-threaded and allocation-light; determinism beats parallelism for
//!   a reproduction (parallelism lives one level up, across *experiments*).
//! * `EventQueue<W, E>` is generic over a world type and a typed event
//!   payload so each layer (MAC, transport, deployment) composes its own
//!   world and event enum without dynamic dispatch or per-event heap
//!   allocation. Typed posting is the only scheduling path, so every
//!   pending event can be checkpointed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod ckpt;
pub mod conformance;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use obs::metrics::RunTelemetry;
pub use queue::{Dispatch, EventHandle, EventQueue};
pub use rng::SimRng;
pub use series::{PowerEnvelope, TimeSeries};
pub use stats::{BinnedThroughput, Cdf, TimeWeighted, Welford};
pub use time::{SimDuration, SimTime};
pub use units::{Db, Dbm, Hertz, Joules, Meters, MicroWatts, MilliWatts, Seconds, Volts, Watts};
