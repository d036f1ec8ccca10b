//! Umbrella crate re-exporting the PoWiFi workspace; hosts examples/ and tests/.
pub mod fuzz;
pub mod golden;

pub use powifi_core as core;
pub use powifi_deploy as deploy;
pub use powifi_harvest as harvest;
pub use powifi_mac as mac;
pub use powifi_net as net;
pub use powifi_rf as rf;
pub use powifi_sensors as sensors;
pub use powifi_sim as sim;
