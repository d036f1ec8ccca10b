//! The shard runtime: concurrent shard execution with deterministic
//! epoch-barrier boundary exchange.
//!
//! ## Why sharded equals monolithic, byte for byte
//!
//! Every random draw the MAC makes happens in the context of exactly one
//! medium, and the runtime seeds every medium's private RNG stream from a
//! stable label (the group's minimum network id). Stations are added to each
//! medium in ascending network-id order in both constructions, so within-
//! medium station indices, link tables, broadcast fan-out order and event
//! FIFO order all coincide. Mediums never consult each other's state inside
//! an epoch; all inter-medium influence flows through the export table,
//! which both runners compute from the same per-medium airtime integers and
//! read in the same sorted order. Induction over epochs does the rest.
//!
//! ## The barrier protocol (per epoch)
//!
//! 1. every worker runs its shards' queues to the epoch end, then writes
//!    each owned group's epoch airtime into its slot of the export table;
//! 2. **barrier** — the table is complete and henceforth read-only;
//! 3. every worker reads the table (sorted group order) and applies imports
//!    to its shards: co-channel corruption for next epoch, harvest energy
//!    for this one; per-shard MAC audits run here too;
//! 4. **barrier** — worker 0 audits the exchange ledger
//!    ([`audit_exchange`]: airtime bounds, conservation) and zeroes the
//!    table;
//! 5. **barrier** — nobody starts the next epoch before the reset lands.
//!
//! Workers never exchange anything except through the slot-pinned table, so
//! results are independent of `jobs` and of thread scheduling.

use std::sync::{Barrier, Mutex, MutexGuard};

use super::partition::{partition, Partition};
use super::topology::{CityTopology, BEACON_INTERVAL};
use powifi_harvest::Harvester;
use powifi_mac::conformance as mac_conformance;
use powifi_mac::{
    dispatch_mac, start_beacons, start_source, Dest, Frame, Mac, MacEvent, MacWorld, MediumId,
    PayloadTag, Queue, RateController, Source,
};
use powifi_rf::{snr, Db, Dbm, Meters, PathLoss, Transmitter};
use powifi_sensors::sensor_pathloss;
use powifi_sim::conformance;
use powifi_sim::obs::metrics::{counter, gauge, histogram, keys};
use powifi_sim::obs::prof;
use powifi_sim::obs::stream as obs_stream;
use powifi_sim::{Dispatch, EventQueue, SimDuration, SimRng, SimTime};

/// Scale from summed foreign-airtime coupling to a corruption probability.
const CORRUPTION_SCALE: f64 = 0.5;
/// Ceiling on imported corruption (a medium is never fully jammed).
const MAX_IMPORT_CORRUPTION: f64 = 0.75;
/// Receive-antenna delta between the partition budget (6 dBi router) and
/// the harvester's 2 dBi chip antenna, dB.
const HARVESTER_ANTENNA_DELTA_DB: f64 = 4.0;

/// Configuration for a city run.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// Root seed; medium RNG streams derive from it and stable group keys.
    pub seed: u64,
    /// Worker threads for the sharded runner (clamped to the shard count).
    pub jobs: usize,
    /// Networks per shared medium (same-channel CSMA group), max.
    pub max_group: usize,
    /// Networks per shard, max.
    pub max_shard: usize,
    /// Occupancy-monitor bin width for every medium.
    pub monitor_bin: SimDuration,
}

impl Default for CityConfig {
    fn default() -> Self {
        CityConfig {
            seed: 42,
            jobs: 1,
            max_group: 12,
            max_shard: 48,
            monitor_bin: SimDuration::from_millis(50),
        }
    }
}

/// Result of a city run. Every field is a pure function of
/// `(topology, config seed/caps)` — independent of `jobs`, thread
/// scheduling, and of whether the sharded or the monolithic runner
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CityRun {
    /// Networks simulated.
    pub networks: usize,
    /// Shared-medium groups.
    pub groups: usize,
    /// Shards the partitioner packed the groups into.
    pub shards: usize,
    /// Couplings whose groups sit in different shards.
    pub boundary_links: u64,
    /// Epoch barriers executed.
    pub epochs: u64,
    /// Events executed across all shard queues.
    pub events: u64,
    /// MAC frames sent across all networks.
    pub frames: u64,
    /// Cumulative busy time per group, nanoseconds, in group order.
    pub busy_ns: Vec<u64>,
    /// Harvested energy per network, joules, in network order.
    pub harvested_j: Vec<f64>,
    /// Conformance violations observed (0 on a healthy run).
    pub violations: u64,
}

struct CityWorld {
    mac: Mac,
}

impl Dispatch<MacEvent> for CityWorld {
    fn dispatch(&mut self, q: &mut Queue<Self>, ev: MacEvent) {
        dispatch_mac(self, q, ev);
    }
}

impl MacWorld for CityWorld {
    type Ev = MacEvent;
    fn mac(&self) -> &Mac {
        &self.mac
    }
    fn mac_mut(&mut self) -> &mut Mac {
        &mut self.mac
    }
}

/// One shard's live state (always owned by a single thread).
struct Shard {
    world: CityWorld,
    q: Queue<CityWorld>,
    /// Global group indices hosted here, ascending.
    groups: Vec<usize>,
    /// Medium per hosted group, parallel to `groups`.
    mediums: Vec<MediumId>,
    /// Global network ids hosted here, ascending.
    nets: Vec<usize>,
    /// One harvester per hosted network, parallel to `nets`.
    harvesters: Vec<Harvester>,
    /// Cumulative busy ns per hosted group at the previous barrier.
    prev_busy: Vec<u64>,
}

/// Non-poisoning mutex lock: a panicked peer already aborts the run.
#[expect(clippy::disallowed_methods, reason = "R9: the export table's one lock")]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Build the world for one shard: mediums for its groups (each with a
/// private RNG stream keyed by the group's stable key), stations in
/// ascending network order, geometry-derived intra-group links, and the
/// networks' traffic sources.
fn build_shard(
    topo: &CityTopology,
    part: &Partition,
    group_ids: &[usize],
    seed: u64,
    cfg: &CityConfig,
) -> Shard {
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let mut world = CityWorld {
        // The MAC-wide stream is never drawn from: every medium gets its own.
        mac: Mac::new(SimRng::from_seed(seed).derive("city-mac-unused")),
    };
    let mut q: Queue<CityWorld> = EventQueue::new();
    let mut mediums = Vec::with_capacity(group_ids.len());
    let mut nets = Vec::new();
    for &g in group_ids {
        let grp = &part.groups[g];
        let m = world.mac.add_medium(cfg.monitor_bin);
        #[expect(clippy::disallowed_methods, reason = "R10: seeded once, at build")]
        world.mac.seed_medium_rng(
            m,
            SimRng::from_seed(seed).derive_idx("city-medium", grp.key),
        );
        let mut stas = Vec::with_capacity(grp.members.len());
        for &nid in &grp.members {
            let net = &topo.networks[nid];
            let sta = world
                .mac
                .add_station(m, RateController::fixed(net.beacon_rate));
            // Bursty networks get a client station: their bursts ride a
            // unicast link, so imported co-channel corruption visibly moves
            // retransmissions, airtime and frame counts.
            let client = if net.burst_period > SimDuration::ZERO {
                let c = world
                    .mac
                    .add_station(m, RateController::fixed(net.burst_rate));
                world.mac.set_link_snr(sta, c, Db(net.client_snr_db));
                world.mac.set_link_snr(c, sta, Db(net.client_snr_db));
                Some(c)
            } else {
                None
            };
            stas.push((nid, sta, client));
            nets.push(nid);
        }
        for (i, &(na, sa, _)) in stas.iter().enumerate() {
            for &(nb, sb, _) in &stas[i + 1..] {
                let d = topo.networks[na].pos.distance(topo.networks[nb].pos);
                let s = snr(topo.model.budget_at(d));
                world.mac.set_link_snr(sa, sb, s);
                world.mac.set_link_snr(sb, sa, s);
            }
        }
        for &(nid, sta, client) in &stas {
            let net = &topo.networks[nid];
            start_beacons(
                &mut q,
                sta,
                SimTime::ZERO + net.beacon_phase,
                BEACON_INTERVAL,
                net.beacon_rate,
            );
            if let Some(client) = client {
                #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
                let tag = PayloadTag {
                    flow: nid as u32,
                    seq: 0,
                    bytes: net.burst_bytes,
                };
                let mut frame = Frame::data(sta, Dest::Unicast(client), tag);
                frame.rate = Some(net.burst_rate);
                let burst = Source {
                    frame,
                    period: net.burst_period,
                    below: 3,
                };
                start_source(&mut world, &mut q, SimTime::ZERO + net.beacon_phase, burst);
            }
        }
        mediums.push(m);
    }
    let harvesters = nets
        .iter()
        .map(|_| Harvester::battery_free_sensor())
        .collect();
    let prev_busy = vec![0u64; group_ids.len()];
    Shard {
        world,
        q,
        groups: group_ids.to_vec(),
        mediums,
        nets,
        harvesters,
        prev_busy,
    }
}

/// Write each hosted group's epoch airtime delta into its table slot.
fn publish_exports(shard: &mut Shard, table: &mut [u64]) -> u64 {
    let mut published = 0;
    for (k, &g) in shard.groups.iter().enumerate() {
        let total = shard.world.mac.busy_time(shard.mediums[k]).as_nanos();
        table[g] = total - shard.prev_busy[k];
        shard.prev_busy[k] = total;
        published += 1;
    }
    published
}

/// Apply co-channel corruption imports for the next epoch from the
/// completed table. Returns `(Σ applied corruption, couplings consumed)`
/// for the conservation ledger.
fn apply_corruption_imports(
    shard: &mut Shard,
    part: &Partition,
    table: &[u64],
    epoch_ns: u64,
) -> (f64, u64) {
    let mut applied = 0.0;
    let mut consumed = 0u64;
    for (k, &g) in shard.groups.iter().enumerate() {
        // Couplings are sorted by (to, from): binary-search the import row.
        let lo = part.couplings.partition_point(|c| c.to < g);
        let hi = part.couplings.partition_point(|c| c.to <= g);
        let mut p = 0.0;
        for c in &part.couplings[lo..hi] {
            if c.weight > 0.0 {
                p += c.weight * (table[c.from] as f64 / epoch_ns as f64);
                consumed += 1;
            }
        }
        let p = (p * CORRUPTION_SCALE).min(MAX_IMPORT_CORRUPTION);
        shard.world.mac.set_corruption(shard.mediums[k], p);
        applied += p;
    }
    (applied, consumed)
}

/// Advance every hosted harvester by one epoch: own-network exposure at the
/// group's duty factor plus energy imports from coupled foreign groups.
fn advance_harvest(
    shard: &mut Shard,
    topo: &CityTopology,
    part: &Partition,
    table: &[u64],
    epoch: SimDuration,
) {
    let epoch_ns = epoch.as_nanos();
    let model = sensor_pathloss();
    let tx = Transmitter::powifi_prototype();
    let mut inputs = Vec::new();
    for (j, &nid) in shard.nets.iter().enumerate() {
        let net = &topo.networks[nid];
        let g = part.group_of[nid];
        let own_duty = table[g] as f64 / epoch_ns as f64;
        inputs.clear();
        let own_p = model.received(
            tx.eirp(),
            Db(2.0),
            net.channel.center(),
            Meters::from_feet(net.sensor_ft),
        );
        inputs.push((net.channel.center(), own_p, own_duty));
        for &(gf, peak_dbm) in &part.energy_imports[nid] {
            let duty = table[gf] as f64 / epoch_ns as f64;
            if duty > 0.0 {
                inputs.push((
                    part.groups[gf].channel.center(),
                    Dbm(peak_dbm - HARVESTER_ANTENNA_DELTA_DB),
                    duty,
                ));
            }
        }
        shard.harvesters[j].advance_duty(epoch, &inputs);
    }
}

/// The exchange ledger audited at every barrier: the completed export table
/// plus what the importers actually applied.
pub struct EpochExchange<'a> {
    /// The partition the run is executing.
    pub part: &'a Partition,
    /// Epoch length, nanoseconds.
    pub epoch_ns: u64,
    /// Per-group exported busy nanoseconds this epoch.
    pub busy: &'a [u64],
    /// Σ of corruption probabilities the importers applied.
    pub applied_corruption: f64,
    /// Couplings the importers consumed.
    pub consumed: u64,
}

/// Audit one epoch's exchange, reporting into the conformance sink:
///
/// * `city/airtime-bounds`: no group may export more airtime than the
///   epoch holds — a torn table write or a broken busy accumulator shows
///   up here;
/// * `city/exchange-conservation`: what the importers applied must equal
///   what the table and coupling weights imply — nothing lost or
///   double-counted across the barrier, regardless of which thread
///   serviced which shard.
pub fn audit_exchange(x: &EpochExchange<'_>, now: SimTime) {
    if let Some((g, &busy)) = x.busy.iter().enumerate().find(|&(_, &b)| b > x.epoch_ns) {
        conformance::report(
            "city/airtime-bounds",
            now,
            format!(
                "group {g} exported {busy} ns of airtime in a {} ns epoch",
                x.epoch_ns
            ),
        );
    }
    let mut expected = 0.0;
    let mut expected_consumed = 0u64;
    for g in 0..x.part.groups.len() {
        let lo = x.part.couplings.partition_point(|c| c.to < g);
        let hi = x.part.couplings.partition_point(|c| c.to <= g);
        let mut p = 0.0;
        for c in &x.part.couplings[lo..hi] {
            if c.weight > 0.0 {
                p += c.weight * (x.busy[c.from] as f64 / x.epoch_ns as f64);
                expected_consumed += 1;
            }
        }
        expected += (p * CORRUPTION_SCALE).min(MAX_IMPORT_CORRUPTION);
    }
    let tol = 1e-6 * expected.abs().max(1.0);
    let detail = if x.consumed != expected_consumed {
        format!(
            "importers consumed {} couplings, table implies {}",
            x.consumed, expected_consumed
        )
    } else if (x.applied_corruption - expected).abs() > tol {
        format!(
            "imported corruption {} != expected {}",
            x.applied_corruption, expected
        )
    } else {
        return;
    };
    conformance::report("city/exchange-conservation", now, detail);
}

/// What one shard reports back to the caller thread when the run ends.
struct ShardOutcome {
    events: u64,
    frames: u64,
    /// `(global group, cumulative busy ns)` in group order.
    busy: Vec<(usize, u64)>,
    /// `(global network, harvested joules)` in network order.
    harvested: Vec<(usize, f64)>,
}

fn shard_outcome(shard: &Shard) -> ShardOutcome {
    ShardOutcome {
        events: shard.q.executed(),
        frames: shard.world.mac.total_frames_sent(),
        busy: shard
            .groups
            .iter()
            .zip(&shard.mediums)
            .map(|(&g, &m)| (g, shard.world.mac.busy_time(m).as_nanos()))
            .collect(),
        harvested: shard
            .nets
            .iter()
            .zip(&shard.harvesters)
            .map(|(&nid, h)| (nid, h.harvested.0))
            .collect(),
    }
}

/// Content hash of a shard's dynamic state at an epoch barrier: event-queue
/// counters, the full MAC state tree, and every harvester's accumulated
/// joules. The city has no restorable checkpoint form (burst sources have
/// no serial form yet, and no resume path rebuilds a shard) — but the
/// *hash* gives the divergence observatory the same signal: two city runs
/// that should agree (same topology across `--jobs` levels, same build
/// across days) emit equal per-shard hash sequences, and the first unequal
/// `(shard, epoch)` localizes a divergence to one shard and one epoch. Only
/// computed when a stream handle is installed; purely observational.
fn shard_state_hash(sh: &Shard) -> String {
    use powifi_sim::ckpt::{self, Value, ValueExt};
    let (now, next_seq, executed) = sh.q.ckpt_counters();
    let v = Value::map()
        .field(
            "queue",
            Value::map()
                .field("now", Value::UInt(now))
                .field("next_seq", Value::UInt(next_seq))
                .field("executed", Value::UInt(executed))
                .build(),
        )
        .field("mac", powifi_mac::ckpt::save_mac(&sh.world.mac))
        .field(
            "harvested",
            Value::Array(
                sh.harvesters
                    .iter()
                    .map(|h| Value::Float(h.harvested.0))
                    .collect(),
            ),
        )
        .build();
    ckpt::state_hash(&v)
}

/// Emit one cumulative `progress` wire record for a shard at epoch end
/// `now` — the fields [`powifi_sim::obs::agg`] windows a city run from.
/// All values are totals since the run started (the aggregator diffs
/// consecutive samples), so a dropped record only widens one window.
#[expect(clippy::cast_possible_truncation, reason = "R5: rounded first")]
fn emit_shard_progress(hs: &obs_stream::Handle, shard_ix: u64, sh: &Shard, now: SimTime) {
    let harvested_uj: f64 = sh.harvesters.iter().map(|h| h.harvested.0 * 1e6).sum();
    hs.emit_progress(
        now,
        Some(shard_ix),
        &[
            ("events", sh.q.executed()),
            ("frames", sh.world.mac.total_frames_sent()),
            ("retransmissions", sh.world.mac.total_retransmissions()),
            ("corrupted", sh.world.mac.total_corrupted()),
            ("busy_ns", sh.world.mac.total_busy().as_nanos()),
            ("harvested_uj", harvested_uj.round() as u64),
        ],
    );
}

/// Epoch boundaries: ascending end instants, the last clamped to `horizon`.
fn epoch_ends(horizon: SimDuration, epoch: SimDuration) -> Vec<SimTime> {
    let h = horizon.as_nanos();
    let e = epoch.as_nanos().max(1);
    let mut ends = Vec::new();
    let mut t = 0u64;
    while t < h {
        t = (t + e).min(h);
        ends.push(SimTime::from_nanos(t));
    }
    ends
}

/// Run a city topology sharded across `cfg.jobs` worker threads. Results
/// are byte-identical at any `jobs` level and identical to
/// [`run_city_monolithic`].
pub fn run_city(topo: &CityTopology, cfg: &CityConfig) -> CityRun {
    let part = {
        let _s = prof::span("city.partition");
        partition(topo, cfg.max_group, cfg.max_shard)
    };
    run_partitioned(topo, cfg, &part)
}

fn run_partitioned(topo: &CityTopology, cfg: &CityConfig, part: &Partition) -> CityRun {
    let _span = prof::span("city.run");
    let n_shards = part.shards.len();
    let jobs = cfg.jobs.max(1).min(n_shards.max(1));
    let ends = epoch_ends(topo.horizon, topo.epoch);
    let checking = conformance::enabled();

    let table: Mutex<Vec<u64>> = Mutex::new(vec![0u64; part.groups.len()]);
    // (applied corruption, consumed couplings, exports published) per epoch.
    let acc: Mutex<(f64, u64, u64)> = Mutex::new((0.0, 0, 0));
    let barrier = Barrier::new(jobs);
    let exports_total = Mutex::new(0u64);
    // Live telemetry: the caller's stream handle (if one is installed on
    // this thread) is cloned into every worker, which emits one cumulative
    // `progress` record per owned shard per epoch, tagged with the global
    // shard index. Emission is observational — the egress is non-blocking
    // and nothing reads it back — so determinism is untouched.
    let stream = obs_stream::handle();

    // Worker `t`: run its shards through every epoch's barrier protocol and
    // hand back their outcomes.
    let worker = |t: usize| {
        let stream = stream.clone();
        // Round-robin shard ownership: shard i belongs to thread i % jobs.
        // Ownership only affects which thread does the work, never the
        // numbers it produces.
        let mut shards: Vec<Shard> = (t..n_shards)
            .step_by(jobs)
            .map(|i| build_shard(topo, part, &part.shards[i], cfg.seed, cfg))
            .collect();
        let mut prev_end = SimTime::ZERO;
        for (ei, &end) in ends.iter().enumerate() {
            let epoch_ns = end.as_nanos() - prev_end.as_nanos();
            let epoch = SimDuration::from_nanos(epoch_ns);
            for sh in &mut shards {
                sh.q.run_until(&mut sh.world, end);
            }
            {
                let mut tbl = lock(&table);
                let mut published = 0;
                for sh in &mut shards {
                    published += publish_exports(sh, &mut tbl);
                }
                lock(&acc).2 += published;
            }
            barrier.wait();
            // Table complete and read-only until the reset barrier.
            {
                let tbl = lock(&table).clone();
                let mut applied = (0.0, 0u64);
                for (k, sh) in shards.iter_mut().enumerate() {
                    let (a, c) = apply_corruption_imports(sh, part, &tbl, epoch_ns);
                    applied.0 += a;
                    applied.1 += c;
                    advance_harvest(sh, topo, part, &tbl, epoch);
                    if checking {
                        mac_conformance::audit_now(&sh.world, end);
                    }
                    if let Some(hs) = &stream {
                        let shard_ix = (t + k * jobs) as u64;
                        emit_shard_progress(hs, shard_ix, sh, end);
                        hs.emit_ckpt(end, Some(shard_ix), ei as u64 + 1, &shard_state_hash(sh));
                    }
                }
                let mut a = lock(&acc);
                a.0 += applied.0;
                a.1 += applied.1;
            }
            barrier.wait();
            if t == 0 {
                let mut tbl = lock(&table);
                let mut a = lock(&acc);
                if checking {
                    let ledger = EpochExchange {
                        part,
                        epoch_ns,
                        busy: &tbl,
                        applied_corruption: a.0,
                        consumed: a.1,
                    };
                    audit_exchange(&ledger, end);
                }
                *lock(&exports_total) += a.2;
                tbl.iter_mut().for_each(|b| *b = 0);
                *a = (0.0, 0, 0);
            }
            barrier.wait();
            prev_end = end;
        }
        shards.iter().map(shard_outcome).collect::<Vec<_>>()
    };
    // Each worker thread runs under the caller's checker state and returns
    // its violations with its outcomes; joining in thread order merges them
    // deterministically.
    let workers: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|t| {
                let worker = &worker;
                s.spawn(move || {
                    if checking {
                        conformance::capture(|| worker(t))
                    } else {
                        (worker(t), (0, Vec::new()))
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut violations = 0;
    let mut owned = Vec::with_capacity(jobs);
    for (outcomes, (count, retained)) in workers {
        violations += count;
        conformance::absorb(count, retained);
        owned.push(outcomes.into_iter());
    }
    // Shard i is the (i / jobs)-th of thread i % jobs: deal them back into
    // shard order.
    let outcomes: Vec<ShardOutcome> = (0..n_shards)
        .filter_map(|i| owned[i % jobs].next())
        .collect();

    let exports = *lock(&exports_total);
    let run = assemble_run(topo, part, &outcomes, &ends, violations, exports);
    // Shard queues executed on worker threads whose thread-local counters
    // died with them; re-record the total here. (The monolithic runner's
    // `run_until` already counted on this thread.)
    counter(keys::SIM_EVENTS).add(run.events);
    run
}

/// Run the same topology unsharded: one world holding every group, same
/// epoch protocol, same tables. This is the reference the equivalence tests
/// compare the sharded runner against. Builds one MAC and one event queue
/// over all networks and runs them on the calling thread.
pub fn run_city_monolithic(topo: &CityTopology, cfg: &CityConfig) -> CityRun {
    let part = {
        let _s = prof::span("city.partition");
        partition(topo, cfg.max_group, cfg.max_shard)
    };
    let _span = prof::span("city.run");
    let ends = epoch_ends(topo.horizon, topo.epoch);
    let checking = conformance::enabled();
    let violations_before = conformance::violation_count();
    let all_groups: Vec<usize> = (0..part.groups.len()).collect();
    let mut shard = build_shard(topo, &part, &all_groups, cfg.seed, cfg);
    let mut table = vec![0u64; part.groups.len()];
    let mut exports_total = 0u64;
    let mut prev_end = SimTime::ZERO;
    // Same live-telemetry contract as the sharded runner, over the single
    // all-groups shard (tagged shard 0): two monolithic runs that should
    // agree emit comparable per-epoch state hashes.
    let stream = obs_stream::handle();
    for (ei, &end) in ends.iter().enumerate() {
        let epoch_ns = end.as_nanos() - prev_end.as_nanos();
        let epoch = SimDuration::from_nanos(epoch_ns);
        shard.q.run_until(&mut shard.world, end);
        exports_total += publish_exports(&mut shard, &mut table);
        let (applied, consumed) = apply_corruption_imports(&mut shard, &part, &table, epoch_ns);
        advance_harvest(&mut shard, topo, &part, &table, epoch);
        if let Some(hs) = &stream {
            emit_shard_progress(hs, 0, &shard, end);
            hs.emit_ckpt(end, Some(0), ei as u64 + 1, &shard_state_hash(&shard));
        }
        if checking {
            mac_conformance::audit_now(&shard.world, end);
            let ledger = EpochExchange {
                part: &part,
                epoch_ns,
                busy: &table,
                applied_corruption: applied,
                consumed,
            };
            audit_exchange(&ledger, end);
        }
        table.iter_mut().for_each(|b| *b = 0);
        prev_end = end;
    }
    let outcomes = vec![shard_outcome(&shard)];
    // The monolithic runner reports violations through the caller's own
    // sink (it never leaves the thread), so count the delta — don't
    // re-report.
    let violations = conformance::violation_count() - violations_before;
    assemble_run(topo, &part, &outcomes, &ends, violations, exports_total)
}

/// Fold shard outcomes into a [`CityRun`] and record the obs metrics and
/// per-shard prof attribution on the calling thread.
fn assemble_run(
    topo: &CityTopology,
    part: &Partition,
    outcomes: &[ShardOutcome],
    ends: &[SimTime],
    violations: u64,
    exports_total: u64,
) -> CityRun {
    let n = topo.networks.len();
    let mut busy_ns = vec![0u64; part.groups.len()];
    let mut harvested_j = vec![0.0f64; n];
    let mut events = 0u64;
    let mut frames = 0u64;
    for out in outcomes {
        events += out.events;
        frames += out.frames;
        for &(g, b) in &out.busy {
            busy_ns[g] = b;
        }
        for &(nid, h) in &out.harvested {
            harvested_j[nid] = h;
        }
    }
    counter(keys::MAC_FRAMES).add(frames);
    gauge(keys::CITY_SHARDS).set(outcomes.len() as f64);
    counter(keys::CITY_BOUNDARY_LINKS).add(part.boundary_links);
    counter(keys::CITY_BOUNDARY_EXPORTS).add(exports_total);
    counter(keys::CITY_EPOCHS).add(ends.len() as u64);
    for out in outcomes {
        histogram(keys::CITY_SHARD_EVENTS).observe(out.events as f64);
        histogram(keys::CITY_SHARD_NETWORKS).observe(out.harvested.len() as f64);
        // One span per shard with the simulated horizon attributed to it —
        // `powifi-obs prof top` then shows `city.shard` count = shards and the
        // total sharded sim-time.
        let _s = prof::span("city.shard");
        prof::attr(topo.horizon);
    }
    CityRun {
        networks: n,
        groups: part.groups.len(),
        shards: part.shards.len(),
        boundary_links: part.boundary_links,
        epochs: ends.len() as u64,
        events,
        frames,
        busy_ns,
        harvested_j,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::partition::{Coupling, Group};

    /// Audit the ledger of one 1000 ns epoch over two co-channel groups,
    /// group 0 exporting into group 1 at weight 0.5: the `rule: detail`
    /// lines it reported.
    fn audit(busy: &[u64], applied_corruption: f64, consumed: u64) -> Vec<String> {
        let group = |g| Group {
            key: g,
            channel: powifi_rf::WifiChannel::CH6,
            members: vec![g],
        };
        let coupling = Coupling {
            from: 0,
            to: 1,
            weight: 0.5,
            peak_dbm: -60.0,
        };
        let part = Partition {
            groups: vec![group(0), group(1)],
            group_of: vec![0, 1],
            shards: vec![vec![0], vec![1]],
            shard_of_group: vec![0, 1],
            couplings: vec![coupling],
            energy_imports: vec![Vec::new(), Vec::new()],
            boundary_links: 1,
            interaction_range_m: 100.0,
        };
        let _g = conformance::check();
        let ledger = EpochExchange {
            part: &part,
            epoch_ns: 1_000,
            busy,
            applied_corruption,
            consumed,
        };
        audit_exchange(&ledger, SimTime::ZERO);
        let (count, retained) = conformance::take();
        assert_eq!(count, retained.len() as u64);
        retained
            .iter()
            .map(|v| format!("{}: {}", v.rule, v.detail))
            .collect()
    }

    #[test]
    fn exchange_audit_fires_under_its_rule_names() {
        // Group 0 is busy half the epoch, so group 1 imports
        // 0.5 × 0.5 × CORRUPTION_SCALE over its one coupling.
        let applied = 0.5 * 0.5 * CORRUPTION_SCALE;
        assert!(audit(&[500, 0], applied, 1).is_empty());
        // Group 1 exports more than the epoch holds; it feeds no coupling.
        let bounds = "city/airtime-bounds: group 1 exported 1001 ns of airtime in a 1000 ns epoch";
        assert_eq!(audit(&[500, 1_001], applied, 1), [bounds]);
        let consumed =
            "city/exchange-conservation: importers consumed 2 couplings, table implies 1";
        assert_eq!(audit(&[500, 0], applied, 2), [consumed]);
        let over = applied + 0.1;
        let corruption =
            format!("city/exchange-conservation: imported corruption {over} != expected {applied}");
        assert_eq!(audit(&[500, 0], over, 1), [corruption]);
    }
}
