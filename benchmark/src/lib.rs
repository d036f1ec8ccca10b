//! # powifi-benchmark
//!
//! The benchmark of record for the PoWiFi simulator: four workloads sized
//! like the runs people do (a compressed home day, a 25k-network city, a
//! served office fleet, a checkpointed office run), end-to-end metrics
//! measured untraced, per-layer metrics from a separate traced pass, and
//! output digests pinned per seed. See `README.md` beside this crate.
//!
//! Every layer is measured from outside: the benchmark times calls into the
//! crates' public functions, reads the existing `obs::metrics` registry and
//! records its own spans in memory ([`spans`]).

pub mod compare;
pub mod declaration;
mod digest;
mod json;
pub mod measure;
pub mod report;
pub mod rss;
pub mod spans;
pub mod stats;
pub mod workloads;
