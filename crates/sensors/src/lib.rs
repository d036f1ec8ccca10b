//! # powifi-sensors
//!
//! The Wi-Fi-powered end devices of §5 and §8a: the 2.77 µJ/reading
//! temperature sensor, the 10.4 mJ/frame QCIF camera (battery-free and
//! battery-recharging variants of each), the USB trickle charger, the
//! MSP430 MCU model, and the calibrated RF-exposure helpers that place a
//! device at a distance (and behind walls) from a PoWiFi router.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod backscatter;
pub mod camera;
pub mod charger;
pub mod duty_cycle;
pub mod exposure;
pub mod mcu;
pub mod temperature;

pub use backscatter::BackscatterTag;
pub use camera::{Camera, FRAME_ENERGY};
pub use charger::UsbCharger;
pub use duty_cycle::DutyCycledNode;
pub use exposure::{exposure_at, sensor_pathloss, BENCH_DUTY};
pub use mcu::{Msp430, QCIF_FRAME_BYTES};
pub use temperature::{TemperatureSensor, READ_ENERGY};
