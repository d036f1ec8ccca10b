//! # powifi-deploy
//!
//! Deployment scenarios and experiment harnesses: the §4 busy office, the
//! §6 six-home 24-hour study (Table 1 configurations, diurnal neighbor
//! load), background-traffic generators, and runnable experiment procedures
//! for Figs. 6–8 and 15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod background;
pub mod city;
pub mod ckpt;
pub mod diurnal;
pub mod experiment;
pub mod geometry;
pub mod home;
pub mod office;
pub mod telemetry;
pub mod world;

pub use background::{
    constant_intensity, install_background, install_traffic_source, BackgroundConfig, IntensityFn,
};
pub use city::{
    apartment_block, campus, diurnal_city, partition, run_city, run_city_monolithic, CityConfig,
    CityRun, CityTopology, Network, Partition,
};
pub use ckpt::{checkpoint, resume};
pub use diurnal::diurnal_intensity;
pub use experiment::{
    neighbor_experiment, plt_experiment, sensor_rates_from_home, tcp_experiment,
    tcp_experiment_epochs, udp_experiment, udp_experiment_epochs, TcpResult, UdpResult,
};
pub use geometry::{FloorPlan, Pos, Wall};
pub use home::{build_home, run_home, table1, HomeConfig, HomeDeployment, HomeRun};
pub use office::{build_office, OfficeConfig, OfficeRun, OfficeScenario, OfficeSpec, TrafficSpec};
pub use telemetry::EpochDriver;
pub use world::{three_channel_world, SimWorld};
