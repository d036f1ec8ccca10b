//! Per-run metrics registry: named counters, gauges and histograms.
//!
//! The registry is a thread-local, BTree-backed map from static metric
//! names to values. Handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! plain name wrappers — cheap to construct at the recording site, with no
//! global registration step — and every write lands in the *current
//! thread's* registry. The bench sweep engine calls [`reset`] before and
//! [`snapshot`] after each experiment point (both on the worker thread that
//! runs it), so per-point metrics are isolated even under work stealing.
//!
//! Snapshots render as stable JSON ([`MetricsSnapshot::to_json`]): BTree
//! ordering plus the same shortest-roundtrip float formatting as the
//! vendored `serde_json`, so the bytes are identical at any `--jobs` level.
//!
//! This module replaces and subsumes the ad-hoc `telemetry` counters of
//! early PRs: the legacy `events` / `frames` / `occupancy` triple lives
//! here under the well-known names in [`keys`] (the deprecated shim has
//! been removed).

use crate::ckpt::Ckpt;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Well-known metric names recorded by the simulation layers.
pub mod keys {
    /// Events executed by [`crate::EventQueue::run_until`] (counter).
    pub const SIM_EVENTS: &str = "sim.events";
    /// Total MAC frames sent over the run (counter).
    pub const MAC_FRAMES: &str = "mac.frames_sent";
    /// MAC collisions over the run (counter).
    pub const MAC_COLLISIONS: &str = "mac.collisions";
    /// MAC retransmissions over the run (counter).
    pub const MAC_RETRANSMISSIONS: &str = "mac.retransmissions";
    /// MAC frames dropped at enqueue because the queue was full (counter).
    pub const MAC_QUEUE_DROPS: &str = "mac.queue_drops";
    /// Final cumulative tracked-station occupancy, 0..=1 (gauge).
    pub const MAC_OCCUPANCY: &str = "mac.occupancy";
    /// Power packets admitted by the injector gate (counter).
    pub const CORE_POWER_SENT: &str = "core.power_sent";
    /// Power packets dropped by the injector gate (counter).
    pub const CORE_POWER_GATED: &str = "core.power_gated";
    /// Harvester output-switch turn-ons (cold starts) (counter).
    pub const HARVEST_COLD_STARTS: &str = "harvest.cold_starts";
    /// Harvester output-switch turn-offs (brownouts) (counter).
    pub const HARVEST_BROWNOUTS: &str = "harvest.brownouts";
    /// TCP retransmission timeouts fired (counter).
    pub const NET_TCP_RTO: &str = "net.tcp_rto";
    /// TCP fast retransmits triggered (counter).
    pub const NET_TCP_FAST_RETRANSMIT: &str = "net.tcp_fast_retransmit";
    /// Shards the city partitioner produced for the run (gauge).
    pub const CITY_SHARDS: &str = "city.shards";
    /// Networks per shard (histogram over shards).
    pub const CITY_SHARD_NETWORKS: &str = "city.shard_networks";
    /// Events executed per shard (histogram over shards).
    pub const CITY_SHARD_EVENTS: &str = "city.shard_events";
    /// Inter-group couplings whose endpoints sit in different shards
    /// (counter).
    pub const CITY_BOUNDARY_LINKS: &str = "city.boundary_links";
    /// Boundary export records published across all epoch barriers (counter).
    pub const CITY_BOUNDARY_EXPORTS: &str = "city.boundary_exports";
    /// Epoch barriers executed by the city runtime (counter).
    pub const CITY_EPOCHS: &str = "city.epochs";
    /// Stream records dropped by a bounded egress queue because the
    /// consumer fell behind (counter; see [`crate::obs::stream`]).
    pub const OBS_STREAM_DROPPED: &str = "obs.stream.dropped";
    /// Peak depth the egress queue reached over the run (gauge).
    pub const OBS_STREAM_QUEUE_DEPTH: &str = "obs.stream.queue_depth";
    /// Cumulative MAC frames sent at the last progress mark (gauge; set by
    /// `Mac::record_progress_metrics` at stream epochs).
    pub const MAC_LIVE_FRAMES: &str = "mac.live.frames";
    /// Cumulative MAC retransmissions at the last progress mark (gauge).
    pub const MAC_LIVE_RETRANSMISSIONS: &str = "mac.live.retransmissions";
    /// Cumulative corrupted frames at the last progress mark (gauge).
    pub const MAC_LIVE_CORRUPTED: &str = "mac.live.corrupted";
    /// Cumulative busy airtime in ns, summed over mediums, at the last
    /// progress mark (gauge).
    pub const MAC_LIVE_BUSY_NS: &str = "mac.live.busy_ns";
    /// Cumulative power packets admitted by an injector gate at the last
    /// progress mark (gauge).
    pub const CORE_LIVE_POWER_SENT: &str = "core.live.power_sent";
    /// Cumulative power packets gated at the last progress mark (gauge).
    pub const CORE_LIVE_POWER_GATED: &str = "core.live.power_gated";
    /// Cumulative harvested energy in µJ at the last progress mark (gauge).
    pub const HARVEST_LIVE_ENERGY_UJ: &str = "harvest.live.energy_uj";
}

/// Number of power-of-two histogram buckets (see [`bucket_index`]).
const BUCKET_COUNT: usize = 24;

#[derive(Debug, Clone, PartialEq)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKET_COUNT],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKET_COUNT],
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }
}

/// Power-of-two bucketing without any libm call (determinism across
/// builds): bucket 0 holds `v < 1`, bucket `i` holds `2^(i-1) <= v < 2^i`,
/// and the last bucket absorbs everything from `2^(BUCKET_COUNT-2)` up
/// (including non-finite values).
fn bucket_index(v: f64) -> usize {
    let mut bound = 1.0f64;
    for i in 0..BUCKET_COUNT - 1 {
        if v < bound {
            return i;
        }
        bound *= 2.0;
    }
    BUCKET_COUNT - 1
}

/// Inclusive upper bound of bucket `i` rendered in snapshots: `2^i`.
fn bucket_bound(i: usize) -> f64 {
    let mut bound = 1.0f64;
    for _ in 0..i {
        bound *= 2.0;
    }
    bound
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Hist>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Handle for a monotonically increasing named counter.
#[derive(Debug, Clone, Copy)]
pub struct Counter(&'static str);

impl Counter {
    /// Add `n` to this thread's counter.
    pub fn add(&self, n: u64) {
        REGISTRY.with(|r| {
            let mut r = r.borrow_mut();
            let c = r.counters.entry(self.0).or_insert(0);
            *c = c.saturating_add(n);
        });
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle for a last-write-wins named gauge.
#[derive(Debug, Clone, Copy)]
pub struct Gauge(&'static str);

impl Gauge {
    /// Set this thread's gauge to `v`. Non-finite values (NaN, ±∞) are
    /// dropped: a gauge feeds deterministic JSON artifacts, where the
    /// serializer would degrade them to `null` and golden comparisons
    /// would drift on whichever point produced them first.
    pub fn set(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        REGISTRY.with(|r| {
            r.borrow_mut().gauges.insert(self.0, v);
        });
    }
}

/// Handle for a named histogram with power-of-two buckets.
#[derive(Debug, Clone, Copy)]
pub struct Histogram(&'static str);

impl Histogram {
    /// Record one observation of `v` into this thread's histogram.
    pub fn observe(&self, v: f64) {
        REGISTRY.with(|r| {
            r.borrow_mut()
                .histograms
                .entry(self.0)
                .or_insert_with(Hist::new)
                .observe(v);
        });
    }
}

/// Handle for the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter(name)
}

/// Handle for the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    Gauge(name)
}

/// Handle for the histogram named `name`.
pub fn histogram(name: &'static str) -> Histogram {
    Histogram(name)
}

/// Clear every metric in this thread's registry. The sweep engine calls
/// this before each experiment point.
pub fn reset() {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        r.counters.clear();
        r.gauges.clear();
        r.histograms.clear();
    });
}

/// Every well-known key, for snapshot-restore key interning.
const STATIC_KEYS: &[&str] = &[
    keys::SIM_EVENTS,
    keys::MAC_FRAMES,
    keys::MAC_COLLISIONS,
    keys::MAC_RETRANSMISSIONS,
    keys::MAC_QUEUE_DROPS,
    keys::MAC_OCCUPANCY,
    keys::CORE_POWER_SENT,
    keys::CORE_POWER_GATED,
    keys::HARVEST_COLD_STARTS,
    keys::HARVEST_BROWNOUTS,
    keys::NET_TCP_RTO,
    keys::NET_TCP_FAST_RETRANSMIT,
    keys::CITY_SHARDS,
    keys::CITY_SHARD_NETWORKS,
    keys::CITY_SHARD_EVENTS,
    keys::CITY_BOUNDARY_LINKS,
    keys::CITY_BOUNDARY_EXPORTS,
    keys::CITY_EPOCHS,
    keys::OBS_STREAM_DROPPED,
    keys::OBS_STREAM_QUEUE_DEPTH,
    keys::MAC_LIVE_FRAMES,
    keys::MAC_LIVE_RETRANSMISSIONS,
    keys::MAC_LIVE_CORRUPTED,
    keys::MAC_LIVE_BUSY_NS,
    keys::CORE_LIVE_POWER_SENT,
    keys::CORE_LIVE_POWER_GATED,
    keys::HARVEST_LIVE_ENERGY_UJ,
];

/// Intern a snapshot key as `&'static str`: well-known keys resolve to
/// their constants; anything else (test-only names, future keys read from
/// an older build's checkpoint) is leaked once. Restores happen at most
/// once per process run, so the leak is bounded and tiny.
fn intern_key(k: &str) -> &'static str {
    STATIC_KEYS
        .iter()
        .find(|s| **s == k)
        .copied()
        .unwrap_or_else(|| Box::leak(k.to_string().into_boxed_str()))
}

/// Replace this thread's registry with the contents of `s` — the
/// checkpoint-restore inverse of [`snapshot`]. Restored histograms carry
/// only the non-empty buckets a summary retains, which is exactly what
/// [`snapshot`] re-renders, so snapshot→restore→snapshot is a fixed point.
pub fn restore(s: &MetricsSnapshot) {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        r.counters.clear();
        r.gauges.clear();
        r.histograms.clear();
        for (k, v) in &s.counters {
            r.counters.insert(intern_key(k), *v);
        }
        for (k, v) in &s.gauges {
            r.gauges.insert(intern_key(k), *v);
        }
        for (k, h) in &s.histograms {
            let mut hist = Hist::new();
            hist.count = h.count;
            hist.sum = h.sum;
            hist.min = h.min;
            hist.max = h.max;
            for &(bound, n) in &h.buckets {
                let idx = (0..BUCKET_COUNT)
                    .find(|&i| bucket_bound(i) == bound)
                    .unwrap_or(BUCKET_COUNT - 1);
                hist.buckets[idx] = n;
            }
            r.histograms.insert(intern_key(k), hist);
        }
    });
}

/// Rendered summary of one histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// `(upper_bound, count)` for each non-empty power-of-two bucket,
    /// in ascending bound order.
    pub buckets: Vec<(f64, u64)>,
}

/// Immutable copy of one thread's registry, stable-ordered for rendering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Copy this thread's registry without clearing it.
pub fn snapshot() -> MetricsSnapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        MetricsSnapshot {
            counters: r
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: r.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: r
                .histograms
                .iter()
                .map(|(k, h)| {
                    let buckets = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        .map(|(i, n)| (bucket_bound(i), *n))
                        .collect();
                    (
                        k.to_string(),
                        HistogramSummary {
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                            buckets,
                        },
                    )
                })
                .collect(),
        }
    })
}

impl MetricsSnapshot {
    /// Render the snapshot as one line of stable JSON: its checkpoint tree
    /// (BTree key order) in `serde_json`'s compact form, floats in shortest
    /// round-trip decimal.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_ckpt()).unwrap_or_default()
    }

    /// Counter value by name, zero when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, zero when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

/// Snapshot of the legacy per-run counter triple, now derived from the
/// metrics registry ([`keys::SIM_EVENTS`], [`keys::MAC_FRAMES`],
/// [`keys::MAC_OCCUPANCY`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunTelemetry {
    /// Events executed by [`crate::EventQueue::run_until`] since [`reset`].
    pub events: u64,
    /// MAC frames sent since [`reset`].
    pub frames: u64,
    /// Last cumulative occupancy recorded.
    pub occupancy: f64,
}

impl RunTelemetry {
    /// Extract the legacy triple from a full registry snapshot.
    pub fn from_snapshot(s: &MetricsSnapshot) -> RunTelemetry {
        RunTelemetry {
            events: s.counter(keys::SIM_EVENTS),
            frames: s.counter(keys::MAC_FRAMES),
            occupancy: s.gauge(keys::MAC_OCCUPANCY),
        }
    }
}

/// Read the legacy triple for this thread without clearing anything.
pub fn run_telemetry() -> RunTelemetry {
    RunTelemetry::from_snapshot(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        counter("t.a").add(3);
        counter("t.a").add(4);
        counter("t.b").inc();
        gauge("t.g").set(0.5);
        gauge("t.g").set(0.9);
        let s = snapshot();
        assert_eq!(s.counter("t.a"), 7);
        assert_eq!(s.counter("t.b"), 1);
        assert_eq!(s.gauge("t.g"), 0.9);
        reset();
        assert_eq!(snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn registry_is_per_thread() {
        reset();
        counter("t.events").add(5);
        std::thread::spawn(|| {
            assert_eq!(snapshot().counter("t.events"), 0);
            counter("t.events").inc();
        })
        .join()
        .unwrap();
        assert_eq!(snapshot().counter("t.events"), 5);
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        reset();
        let h = histogram("t.h");
        for v in [0.25, 0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = snapshot();
        let hs = &s.histograms["t.h"];
        assert_eq!(hs.count, 6);
        assert_eq!(hs.min, 0.25);
        assert_eq!(hs.max, 100.0);
        // v<1 → bound 1; [1,2) → bound 2; [2,4) → bound 4; [64,128) → 128.
        assert_eq!(hs.buckets, vec![(1.0, 2), (2.0, 2), (4.0, 1), (128.0, 1)]);
        reset();
    }

    #[test]
    fn restore_is_snapshot_inverse() {
        reset();
        counter(keys::SIM_EVENTS).add(42);
        counter("t.custom").add(9); // non-well-known key takes the leak path
        gauge(keys::OBS_STREAM_QUEUE_DEPTH).set(17.0);
        let h = histogram("t.h");
        for v in [0.25, 1.5, 3.0, 100.0, 1e300] {
            h.observe(v);
        }
        let snap = snapshot();
        reset();
        assert_eq!(snapshot(), MetricsSnapshot::default());
        restore(&snap);
        assert_eq!(snapshot(), snap, "snapshot→restore→snapshot fixed point");
        // The restored registry stays live: further observations accumulate
        // on top of the restored totals.
        counter(keys::SIM_EVENTS).add(8);
        assert_eq!(snapshot().counter(keys::SIM_EVENTS), 50);
        reset();
    }

    #[test]
    fn bucket_index_saturates() {
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(1e300), BUCKET_COUNT - 1);
    }

    #[test]
    fn json_is_stable_and_ordered() {
        reset();
        counter("z.last").inc();
        counter("a.first").add(2);
        gauge("m.g").set(0.125);
        histogram("h.x").observe(3.0);
        let j1 = snapshot().to_json();
        let j2 = snapshot().to_json();
        assert_eq!(j1, j2);
        assert_eq!(
            j1,
            "{\"counters\":{\"a.first\":2,\"z.last\":1},\
             \"gauges\":{\"m.g\":0.125},\
             \"histograms\":{\"h.x\":{\"count\":1,\"sum\":3.0,\"min\":3.0,\
             \"max\":3.0,\"buckets\":[[4.0,1]]}}}"
        );
        reset();
    }

    #[test]
    fn run_telemetry_reads_well_known_keys() {
        reset();
        counter(keys::SIM_EVENTS).add(10);
        counter(keys::MAC_FRAMES).add(4);
        gauge(keys::MAC_OCCUPANCY).set(0.42);
        let t = run_telemetry();
        assert_eq!(t.events, 10);
        assert_eq!(t.frames, 4);
        assert_eq!(t.occupancy, 0.42);
        reset();
    }

    #[test]
    fn empty_registry_snapshot_is_default_and_serializes() {
        reset();
        let s = snapshot();
        assert_eq!(s, MetricsSnapshot::default());
        assert_eq!(s.counter("never.registered"), 0);
        assert_eq!(s.gauge("never.registered"), 0.0);
        assert_eq!(
            s.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn histogram_single_sample_has_equal_extremes() {
        reset();
        histogram("t.one").observe(7.5);
        let s = snapshot();
        let hs = &s.histograms["t.one"];
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum, 7.5);
        assert_eq!(hs.min, 7.5);
        assert_eq!(hs.max, 7.5);
        // [4,8) → bound 8, exactly one occupied bucket.
        assert_eq!(hs.buckets, vec![(8.0, 1)]);
        reset();
    }

    #[test]
    fn gauge_drops_non_finite_values() {
        reset();
        let g = gauge("t.guarded");
        g.set(1.25);
        g.set(f64::NAN);
        g.set(f64::INFINITY);
        g.set(f64::NEG_INFINITY);
        assert_eq!(snapshot().gauge("t.guarded"), 1.25, "last finite wins");
        // A gauge never set with a finite value stays unregistered, so the
        // JSON artifact carries no null-degrading entry at all.
        gauge("t.never_finite").set(f64::NAN);
        let j = snapshot().to_json();
        assert!(!j.contains("t.never_finite"), "{j}");
        reset();
    }

    #[test]
    fn snapshot_key_order_ignores_registration_order() {
        reset();
        counter("t.zz").inc();
        gauge("t.mid").set(1.0);
        counter("t.aa").inc();
        histogram("t.hh").observe(1.0);
        counter("t.mm").inc();
        let interleaved = snapshot().to_json();
        reset();
        counter("t.aa").inc();
        counter("t.mm").inc();
        counter("t.zz").inc();
        gauge("t.mid").set(1.0);
        histogram("t.hh").observe(1.0);
        let sorted_first = snapshot().to_json();
        assert_eq!(interleaved, sorted_first);
        let a = interleaved.find("\"t.aa\"").unwrap();
        let m = interleaved.find("\"t.mm\"").unwrap();
        let z = interleaved.find("\"t.zz\"").unwrap();
        assert!(a < m && m < z, "counters must serialize name-sorted");
        reset();
    }
}
