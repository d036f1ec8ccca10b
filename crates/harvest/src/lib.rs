//! # powifi-harvest
//!
//! The analog substrate of PoWiFi: the multi-channel 2.4 GHz RF harvester of
//! §3.1, modeled at circuit level — complex-impedance LC matching network
//! (return loss per Fig. 9), SMS7630-class voltage-doubler rectifier
//! (power curve per Fig. 10, node dynamics per Fig. 1), Seiko S-882Z and TI
//! bq25570 DC–DC behavioural models, and storage elements (capacitors,
//! the camera's super-capacitor, NiMH and Li-Ion cells).
//!
//! All calibration constants are documented at their definition sites and
//! cross-referenced in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod complex;
pub mod dcdc;
pub mod harvester;
pub mod matching;
pub mod multiband;
pub mod rectifier;
pub mod storage;
pub mod traces;

pub use complex::C64;
pub use dcdc::{mppt_factor, Converter};
pub use harvester::{Harvester, Store};
pub use matching::{MatchingNetwork, RectifierImpedance, Z0};
pub use multiband::{BandFrontEnd, MultibandHarvester};
pub use rectifier::{Rectifier, RectifierNode, Variant};
pub use storage::{Battery, Capacitor, Chemistry};
pub use traces::{rectifier_trace, summarize, TraceSample, TraceSummary};
