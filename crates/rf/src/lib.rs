//! # powifi-rf
//!
//! RF substrate for the PoWiFi reproduction: typed units (dBm/dB/µW/…), the
//! 2.4 GHz channel plan, path-loss and wall-penetration models, link budgets
//! with the FCC EIRP check, and the 802.11b/g rate/PER tables shared by the
//! MAC simulator and the harvester.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod band;
pub mod budget;
pub mod channel;
pub mod ckpt;
pub mod fading;
pub mod link;
pub mod materials;
pub mod modulation;
pub mod pathloss;
pub mod units;

pub use band::IsmBand;
pub use budget::{interaction_floor, InteractionModel, ENERGY_DETECT_FLOOR, HARVEST_FLOOR};
pub use channel::WifiChannel;
pub use fading::BlockFader;
pub use link::{Antenna, Link, Transmitter, FCC_EIRP_LIMIT};
pub use materials::WallMaterial;
pub use modulation::{packet_error_rate, snr, Bitrate, NOISE_FLOOR};
pub use pathloss::{friis_loss, FreeSpace, LogDistance, PathLoss, Shadowed};
pub use units::{Db, Dbm, Hertz, Joules, Meters, MicroWatts, MilliWatts, Seconds, Volts, Watts};
