//! `city_25k`: an `apartment_block` of 25 000 co-channel networks run by the
//! sharded city runtime. It exercises the RF-budget partitioner, thousands
//! of MAC mediums, shard worker threads with epoch barriers, and memory;
//! no injector, no transport. 25k rather than the 100k paper-scale block
//! keeps the resident set near 0.6 GiB instead of 2.2 GiB, small enough to
//! share a host, while still far beyond any cache.

use super::{host_jobs, ratio, Trace, Unit};
use crate::digest::Digest;
use crate::spans::Spans;
use powifi_deploy::{apartment_block, partition, run_city, CityConfig, CityRun, CityTopology};
use powifi_sim::obs::metrics::{self, keys};
use std::time::{Duration, Instant};

/// City scale and worker threads.
#[derive(Debug, Clone, Copy)]
pub struct CitySize {
    /// Networks in the apartment block.
    pub networks: usize,
    /// Shard worker threads.
    pub jobs: usize,
}

impl CitySize {
    /// 25k networks on [`host_jobs`] threads.
    pub fn paper() -> CitySize {
        CitySize {
            networks: 25_000,
            jobs: host_jobs(),
        }
    }
}

fn config(seed: u64, jobs: usize) -> CityConfig {
    CityConfig {
        seed,
        jobs,
        ..CityConfig::default()
    }
}

/// Digest of every [`CityRun`] field.
fn digest(run: &CityRun) -> String {
    let mut d = Digest::new();
    d.u64("networks", run.networks as u64)
        .u64("groups", run.groups as u64)
        .u64("shards", run.shards as u64)
        .u64("boundary_links", run.boundary_links)
        .u64("epochs", run.epochs)
        .u64("events", run.events)
        .u64("frames", run.frames)
        .u64("busy_ns.len", run.busy_ns.len() as u64);
    for b in &run.busy_ns {
        d.u64("busy_ns", *b);
    }
    d.f64s("harvested_j", &run.harvested_j)
        .u64("violations", run.violations);
    d.finish()
}

/// Time one `apartment_block` and drop it.
pub(crate) fn setup_once(size: &CitySize, seed: u64) -> Duration {
    let t = Instant::now();
    let topo = apartment_block(size.networks, seed);
    let took = t.elapsed();
    drop(topo);
    took
}

/// Generate the block and run it sharded, under a `city` root span.
/// Returns the run, the topology, the set-up time and the run time.
fn city(
    size: &CitySize,
    seed: u64,
    spans: &mut Spans,
) -> (CityRun, CityTopology, Duration, Duration) {
    let root = spans.enter("city");
    let t = spans.enter("deploy.city.topology");
    let topo = apartment_block(size.networks, seed);
    let setup = spans.exit(t);
    let cfg = config(seed, size.jobs);
    let run = spans.time("deploy.city.run_city", || run_city(&topo, &cfg));
    let total = spans.exit(root);
    (run, topo, setup, total - setup)
}

fn to_unit(run: &CityRun, setup: Duration, wall: Duration) -> Unit {
    Unit {
        setup,
        wall,
        events: run.events,
        digest: digest(run),
        attempted: 1,
        failed: 0,
        problems: Vec::new(),
    }
}

/// One measured city run.
pub fn unit(size: &CitySize, seed: u64, spans: &mut Spans) -> Unit {
    let (run, _topo, setup, wall) = city(size, seed, spans);
    to_unit(&run, setup, wall)
}

/// Traced run, then a standalone `partition` (to split partition from
/// shard time) and the same block on one thread, which must give an equal
/// `CityRun` and yields the parallel speedup.
pub(crate) fn trace(size: &CitySize, seed: u64) -> Trace {
    metrics::reset();
    let mut spans = Spans::new();
    let (run, topo, setup, wall) = city(size, seed, &mut spans);
    let mut unit = to_unit(&run, setup, wall);
    let snap = metrics::snapshot();
    let cfg = config(seed, size.jobs);
    spans.time("deploy.city.partition", || {
        partition(&topo, cfg.max_group, cfg.max_shard)
    });
    let run1 = spans.time("deploy.city.run_jobs1", || {
        run_city(&topo, &config(seed, 1))
    });
    if run1 != run {
        unit.failed = unit.attempted;
        unit.problems
            .push(format!("jobs 1 and jobs {} city runs differ", size.jobs));
    }

    let run_ms = spans.total_ms("deploy.city.run_city");
    let partition_ms = spans.total_ms("deploy.city.partition");
    let jobs1_ms = spans.total_ms("deploy.city.run_jobs1");
    let imbalance = snap
        .histograms
        .get(keys::CITY_SHARD_EVENTS)
        .map_or(0.0, |h| ratio(h.max, ratio(h.sum, h.count as f64)));
    let layers = vec![
        (
            "deploy.city.topology_ms",
            spans.total_ms("deploy.city.topology"),
        ),
        ("deploy.city.partition_ms", partition_ms),
        ("deploy.city.shards_ms", run_ms - partition_ms),
        ("deploy.city.run_jobs1_ms", jobs1_ms),
        ("deploy.city.speedup", ratio(jobs1_ms, run_ms)),
        ("deploy.city.shard_events_max_over_mean", imbalance),
        ("deploy.city.groups", run.groups as f64),
        ("deploy.city.shards", run.shards as f64),
        ("deploy.city.boundary_links", run.boundary_links as f64),
        ("deploy.city.epochs", run.epochs as f64),
        ("deploy.city.violations", run.violations as f64),
    ];
    Trace::new(spans, "city", unit, run.frames, layers)
}
