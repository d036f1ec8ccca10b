//! Deterministic conformance fuzz driver.
//!
//! Generates random — but fully seed-determined — MAC topologies (channels,
//! stations, traffic roles, link qualities, fault injection), runs each one
//! under the runtime invariant checker
//! ([`powifi_sim::conformance`](crate::sim::conformance)), and shrinks any
//! failing case to a smaller topology that still violates, reporting the
//! reproducing seed. No wall-clock anywhere: the same `(base_seed, index)`
//! always produces the same topology and the same verdict, in debug and in
//! release.
//!
//! The driver is a library so tests can call it directly; the
//! `powifi-fuzz` binary wraps it for CI and command-line use.

use powifi_core::{spawn_injector, CoreStack, JitterModel, PowerTrafficConfig};
use powifi_mac::{
    conformance as mac_conformance, start_beacons, start_source, Dest, Frame, Mac, MacTiming,
    PayloadTag, Queue, RateController, Source, StationId,
};
use powifi_rf::{Bitrate, Db};
use powifi_sim::conformance::{self, Violation};
use powifi_sim::{SimDuration, SimRng, SimTime};

/// Rates the generator draws station rate controllers from.
const RATES: [Bitrate; 7] = [
    Bitrate::B1,
    Bitrate::B5_5,
    Bitrate::B11,
    Bitrate::G6,
    Bitrate::G12,
    Bitrate::G24,
    Bitrate::G54,
];

/// What one generated station does.
#[derive(Debug, Clone)]
pub enum Role {
    /// A PoWiFi power-packet injector with the IP_Power queue check.
    Injector {
        /// `IP_Power` queue-depth threshold (`None` = NoQueue mode).
        threshold: Option<usize>,
        /// Inter-packet delay, µs.
        delay_us: u64,
        /// UDP payload size, bytes.
        payload: u32,
        /// Whether the tick delay carries userspace jitter.
        jitter: bool,
    },
    /// Periodically sends unicast data to a same-channel peer.
    Talker {
        /// Which same-channel peer (rank into the other stations, modulo).
        peer_rank: u32,
        /// Enqueue period, µs.
        period_us: u64,
        /// Transport payload bytes per frame.
        bytes: u32,
        /// Link SNR toward the peer, dB.
        snr_db: f64,
    },
    /// Sends 802.11 beacons every 102.4 ms.
    Beacon,
    /// Present on the channel but silent.
    Idle,
}

/// One generated station.
#[derive(Debug, Clone)]
pub struct StaSpec {
    /// Channel index within the topology.
    pub medium: u32,
    /// Fixed transmit rate.
    pub rate: Bitrate,
    /// Traffic role.
    pub role: Role,
}

/// A complete generated topology, determined by its seed.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// The case seed this spec was generated from (also seeds the MAC RNG).
    pub seed: u64,
    /// Number of channels (1–3).
    pub mediums: u32,
    /// Stations, each bound to one channel.
    pub stations: Vec<StaSpec>,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Per-channel external corruption probability.
    pub corruption: Vec<(u32, f64)>,
    /// Use the mixed-b/g protection timing instead of g-only.
    pub mixed_bg: bool,
}

impl TopologySpec {
    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "seed {} · {} channel(s) · {} station(s) · horizon {} · corruption on {} · {}",
            self.seed,
            self.mediums,
            self.stations.len(),
            self.horizon,
            self.corruption.len(),
            if self.mixed_bg { "b/g" } else { "g" },
        )
    }
}

/// Generate the topology for a case seed. Pure: same seed, same spec.
pub fn gen_spec(seed: u64) -> TopologySpec {
    let mut rng = SimRng::from_seed(seed).derive("fuzz-topology");
    let mediums = rng.range(1..=3u32);
    let horizon = SimDuration::from_millis(rng.range(20..=120u64));
    let mixed_bg = rng.chance(0.2);
    let mut stations = Vec::new();
    for medium in 0..mediums {
        let count = rng.range(1..=4u32);
        for _ in 0..count {
            let rate = *rng.choose(&RATES);
            let roll = rng.range(0..100u32);
            let role = if roll < 40 {
                Role::Injector {
                    threshold: if rng.chance(0.8) {
                        Some(rng.range(1..=6u32) as usize)
                    } else {
                        None
                    },
                    delay_us: rng.range(80..=400u64),
                    payload: rng.range(200..=1500u32),
                    jitter: rng.chance(0.5),
                }
            } else if roll < 65 {
                Role::Talker {
                    peer_rank: rng.range(0..8u32),
                    period_us: rng.range(300..=2000u64),
                    bytes: rng.range(100..=1400u32),
                    snr_db: 5.0 + rng.f64() * 35.0,
                }
            } else if roll < 80 {
                Role::Beacon
            } else {
                Role::Idle
            };
            stations.push(StaSpec { medium, rate, role });
        }
    }
    let mut corruption = Vec::new();
    for medium in 0..mediums {
        if rng.chance(0.3) {
            corruption.push((medium, rng.f64() * 0.3));
        }
    }
    TopologySpec {
        seed,
        mediums,
        stations,
        horizon,
        corruption,
        mixed_bg,
    }
}

/// Result of running one topology under the checker.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Total invariant violations observed.
    pub violations: u64,
    /// Up to the first 64 violations verbatim.
    pub retained: Vec<Violation>,
    /// MAC frames sent (sanity signal that the topology did something).
    pub frames: u64,
}

/// Build and run one topology under the invariant checker
/// ([`conformance::capture`]), so the surrounding test or sweep sink is
/// left as it was.
pub fn run_spec(spec: &TopologySpec, inject_bug: bool) -> CaseResult {
    let (frames, (violations, retained)) = conformance::capture(|| run_topology(spec, inject_bug));
    CaseResult {
        violations,
        retained,
        frames,
    }
}

/// Build and run one topology with its MAC audit installed; returns the
/// MAC frames sent.
fn run_topology(spec: &TopologySpec, inject_bug: bool) -> u64 {
    let mut w = CoreStack::new(Mac::new(SimRng::from_seed(spec.seed).derive("fuzz-mac")));
    if spec.mixed_bg {
        w.mac.timing = MacTiming::bg_mixed();
    }
    if inject_bug {
        w.mac.inject_timing_bug(true);
    }
    let mut q = Queue::new();
    let mediums: Vec<_> = (0..spec.mediums)
        .map(|_| w.mac.add_medium(SimDuration::from_millis(10)))
        .collect();
    for &(m, p) in &spec.corruption {
        w.mac.set_corruption(mediums[m as usize], p);
    }
    let ids: Vec<StationId> = spec
        .stations
        .iter()
        .map(|st| {
            w.mac
                .add_station(mediums[st.medium as usize], RateController::fixed(st.rate))
        })
        .collect();
    for (i, st) in spec.stations.iter().enumerate() {
        let sta = ids[i];
        match &st.role {
            Role::Injector {
                threshold,
                delay_us,
                payload,
                jitter,
            } => {
                let cfg = PowerTrafficConfig {
                    payload_bytes: *payload,
                    bitrate: st.rate,
                    inter_packet_delay: SimDuration::from_micros(*delay_us),
                    qdepth_threshold: *threshold,
                    jitter: if *jitter {
                        JitterModel::router_userspace()
                    } else {
                        JitterModel::none()
                    },
                };
                let rng = SimRng::from_seed(spec.seed).derive_idx("fuzz-injector", i);
                spawn_injector(&mut w, &mut q, sta, cfg, rng, SimTime::ZERO);
            }
            Role::Talker {
                peer_rank,
                period_us,
                bytes,
                snr_db,
            } => {
                // Peers: other stations on the same channel. A talker with
                // nobody to talk to degrades to a beacon sender.
                let peers: Vec<StationId> = spec
                    .stations
                    .iter()
                    .enumerate()
                    .filter(|&(j, o)| j != i && o.medium == st.medium)
                    .map(|(j, _)| ids[j])
                    .collect();
                if peers.is_empty() {
                    start_beacons(
                        &mut q,
                        sta,
                        SimTime::ZERO,
                        SimDuration::from_micros(102_400),
                        st.rate,
                    );
                    continue;
                }
                let peer = peers[*peer_rank as usize % peers.len()];
                w.mac.set_link_snr(sta, peer, Db(*snr_db));
                let tag = PayloadTag {
                    flow: sta.0,
                    seq: 0,
                    bytes: *bytes,
                };
                let talk = Source {
                    frame: Frame::data(sta, Dest::Unicast(peer), tag),
                    period: SimDuration::from_micros(*period_us),
                    below: 4,
                };
                start_source(&mut w, &mut q, SimTime::ZERO, talk);
            }
            Role::Beacon => {
                start_beacons(
                    &mut q,
                    sta,
                    SimTime::ZERO,
                    SimDuration::from_micros(102_400),
                    st.rate,
                );
            }
            Role::Idle => {}
        }
    }
    mac_conformance::install_audit(&mut w, &mut q, SimDuration::from_millis(10));
    let end = SimTime::ZERO + spec.horizon;
    q.run_until(&mut w, end);
    mac_conformance::audit_now(&w, end);
    w.mac.total_frames_sent()
}

/// Shrink a failing topology: repeatedly halve the horizon, drop stations
/// and drop fault injection, keeping each reduction only if the smaller
/// case still violates. Terminates because every accepted step strictly
/// shrinks the spec.
pub fn shrink(spec: &TopologySpec, inject_bug: bool) -> TopologySpec {
    let mut cur = spec.clone();
    loop {
        // Halve the horizon.
        if cur.horizon >= SimDuration::from_millis(10) {
            let mut cand = cur.clone();
            cand.horizon = cand.horizon / 2;
            if run_spec(&cand, inject_bug).violations > 0 {
                cur = cand;
                continue;
            }
        }
        // Drop one station, last first.
        let mut advanced = false;
        if cur.stations.len() > 1 {
            for i in (0..cur.stations.len()).rev() {
                let mut cand = cur.clone();
                cand.stations.remove(i);
                if run_spec(&cand, inject_bug).violations > 0 {
                    cur = cand;
                    advanced = true;
                    break;
                }
            }
        }
        if advanced {
            continue;
        }
        // Drop corruption entirely.
        if !cur.corruption.is_empty() {
            let mut cand = cur.clone();
            cand.corruption.clear();
            if run_spec(&cand, inject_bug).violations > 0 {
                cur = cand;
                continue;
            }
        }
        return cur;
    }
}

/// Fuzz campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of topologies to generate and run.
    pub topologies: u64,
    /// Base seed; case seeds derive from `(base_seed, index)`.
    pub base_seed: u64,
    /// Enable the deliberate MAC timing bug (checker validation mode).
    pub inject_bug: bool,
    /// Shrink failing cases before reporting.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            topologies: 200,
            base_seed: 1,
            inject_bug: false,
            shrink: true,
        }
    }
}

/// One failing case.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the case within the campaign.
    pub case_index: u64,
    /// The reproducing seed: `run_spec(&gen_spec(seed), …)` re-fails.
    pub seed: u64,
    /// The generated topology.
    pub spec: TopologySpec,
    /// The shrunk topology (equals `spec` when shrinking is off).
    pub shrunk: TopologySpec,
    /// Violations in the original run.
    pub violations: u64,
    /// Sample violations from the original run.
    pub samples: Vec<Violation>,
}

/// Campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Topologies executed.
    pub ran: u64,
    /// Whether the campaign ran with the deliberate timing bug.
    pub inject_bug: bool,
    /// Failing cases (campaign stops after 5 to bound shrink time).
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz: {} topologies run, {} failure(s)\n",
            self.ran,
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "case #{}: {} violation(s)\n  spec:   {}\n  shrunk: {}\n  replay: powifi-fuzz --replay {}{}\n",
                f.case_index,
                f.violations,
                f.spec.summary(),
                f.shrunk.summary(),
                f.seed,
                if self.inject_bug { " --inject-bug" } else { "" },
            ));
            for v in f.samples.iter().take(3) {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// The deterministic seed of case `index` in a campaign.
pub fn case_seed(base_seed: u64, index: u64) -> u64 {
    SimRng::from_seed(base_seed).derive_seed(&format!("fuzz-case#{index}"))
}

/// Run a fuzz campaign.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        inject_bug: cfg.inject_bug,
        ..FuzzReport::default()
    };
    for i in 0..cfg.topologies {
        let seed = case_seed(cfg.base_seed, i);
        let spec = gen_spec(seed);
        let res = run_spec(&spec, cfg.inject_bug);
        report.ran += 1;
        if res.violations > 0 {
            let shrunk = if cfg.shrink {
                shrink(&spec, cfg.inject_bug)
            } else {
                spec.clone()
            };
            report.failures.push(FuzzFailure {
                case_index: i,
                seed,
                spec,
                shrunk,
                violations: res.violations,
                samples: res.retained,
            });
            if report.failures.len() >= 5 {
                break;
            }
        }
    }
    report
}

/// Re-run one case from its reproducing seed.
pub fn replay(seed: u64, inject_bug: bool) -> CaseResult {
    run_spec(&gen_spec(seed), inject_bug)
}

// ---------------------------------------------------------------------------
// Multi-cell city mode (`powifi-fuzz --city`)
// ---------------------------------------------------------------------------
//
// Instead of a single handful of channels, generate a spatially sharded
// city world (powifi_deploy::city), run it both sharded and monolithic
// under the invariant checker — including the per-epoch cross-shard
// airtime/corruption conservation audits — and fail the case if either run
// violates or the two runs are not byte-identical.

use powifi_deploy::city::runtime::{run_city, run_city_monolithic, CityConfig};
use powifi_deploy::city::topology::{apartment_block, campus, diurnal_city, CityTopology};

/// Which city generator a fuzz case draws its world from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CityGenerator {
    /// Dense apartment block (worst-case co-channel coupling).
    Block,
    /// Scattered campus buildings (best-case shardability).
    Campus,
    /// Diurnal city at a generated hour.
    Diurnal,
}

/// A generated multi-cell city fuzz case, determined by its seed.
#[derive(Debug, Clone)]
pub struct CitySpec {
    /// The case seed (also seeds topology generation and medium streams).
    pub seed: u64,
    /// World generator.
    pub generator: CityGenerator,
    /// Networks in the world.
    pub networks: usize,
    /// Hour of day (diurnal generator only).
    pub hour: u32,
    /// Worker threads for the sharded run.
    pub jobs: usize,
    /// Networks per shared medium, max.
    pub max_group: usize,
    /// Networks per shard, max.
    pub max_shard: usize,
    /// Simulated horizon, ms.
    pub horizon_ms: u64,
    /// Epoch length, ms.
    pub epoch_ms: u64,
}

impl CitySpec {
    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "seed {} · {:?} · {} network(s) · jobs {} · group≤{} shard≤{} · {} ms / {} ms epochs",
            self.seed,
            self.generator,
            self.networks,
            self.jobs,
            self.max_group,
            self.max_shard,
            self.horizon_ms,
            self.epoch_ms,
        )
    }
}

/// Generate the city case for a seed. Pure: same seed, same spec.
pub fn gen_city_spec(seed: u64) -> CitySpec {
    let mut rng = SimRng::from_seed(seed).derive("fuzz-city");
    let generator = *rng.choose(&[
        CityGenerator::Block,
        CityGenerator::Campus,
        CityGenerator::Diurnal,
    ]);
    let max_group = rng.range(3..=10u32) as usize;
    CitySpec {
        seed,
        generator,
        networks: rng.range(8..=36u32) as usize,
        hour: rng.range(0..24u32),
        jobs: rng.range(1..=4u32) as usize,
        max_group,
        max_shard: max_group + rng.range(0..=20u32) as usize,
        horizon_ms: rng.range(60..=160u64),
        epoch_ms: rng.range(10..=60u64),
    }
}

/// Materialize a case's world.
pub fn build_city(spec: &CitySpec) -> CityTopology {
    let mut topo = match spec.generator {
        CityGenerator::Block => apartment_block(spec.networks, spec.seed),
        CityGenerator::Campus => campus(spec.networks, spec.seed),
        CityGenerator::Diurnal => diurnal_city(spec.networks, spec.hour, spec.seed),
    };
    topo.horizon = SimDuration::from_millis(spec.horizon_ms);
    topo.epoch = SimDuration::from_millis(spec.epoch_ms);
    topo
}

/// Result of running one city case.
#[derive(Debug, Clone)]
pub struct CityCaseResult {
    /// Invariant violations across both runs (exchange audits included).
    pub violations: u64,
    /// Up to the first 64 violations verbatim.
    pub retained: Vec<Violation>,
    /// Whether sharded and monolithic runs were byte-identical.
    pub equivalent: bool,
    /// Shards the partitioner produced.
    pub shards: usize,
    /// MAC frames sent (sharded run).
    pub frames: u64,
}

/// Run one city case under the checker ([`conformance::capture`]):
/// sharded at `spec.jobs`, then monolithic, then compare.
pub fn run_city_spec(spec: &CitySpec) -> CityCaseResult {
    let topo = build_city(spec);
    let cfg = CityConfig {
        seed: spec.seed,
        jobs: spec.jobs,
        max_group: spec.max_group,
        max_shard: spec.max_shard,
        ..CityConfig::default()
    };
    let ((sharded, mono), (violations, retained)) =
        conformance::capture(|| (run_city(&topo, &cfg), run_city_monolithic(&topo, &cfg)));
    let equivalent = sharded == mono;
    CityCaseResult {
        violations,
        retained,
        equivalent,
        shards: sharded.shards,
        frames: sharded.frames,
    }
}

/// One failing city case.
#[derive(Debug, Clone)]
pub struct CityFailure {
    /// Index of the case within the campaign.
    pub case_index: u64,
    /// The reproducing seed: `run_city_spec(&gen_city_spec(seed))` re-fails.
    pub seed: u64,
    /// The generated case.
    pub spec: CitySpec,
    /// Violations observed.
    pub violations: u64,
    /// Whether the sharded and monolithic runs matched.
    pub equivalent: bool,
    /// Sample violations.
    pub samples: Vec<Violation>,
}

/// City campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CityFuzzReport {
    /// Cases executed.
    pub ran: u64,
    /// Failing cases (campaign stops after 5).
    pub failures: Vec<CityFailure>,
}

impl CityFuzzReport {
    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "city fuzz: {} worlds run, {} failure(s)\n",
            self.ran,
            self.failures.len()
        );
        for f in &self.failures {
            out.push_str(&format!(
                "case #{}: {} violation(s){}\n  spec: {}\n  replay: powifi-fuzz --city --replay {}\n",
                f.case_index,
                f.violations,
                if f.equivalent {
                    ""
                } else {
                    " · sharded ≠ monolithic"
                },
                f.spec.summary(),
                f.seed,
            ));
            for v in f.samples.iter().take(3) {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// Run a multi-cell city fuzz campaign. A case fails on any invariant
/// violation or on sharded/monolithic divergence.
pub fn run_city_campaign(cfg: &FuzzConfig) -> CityFuzzReport {
    let mut report = CityFuzzReport::default();
    for i in 0..cfg.topologies {
        let seed = case_seed(cfg.base_seed, i);
        let spec = gen_city_spec(seed);
        let res = run_city_spec(&spec);
        report.ran += 1;
        if res.violations > 0 || !res.equivalent {
            report.failures.push(CityFailure {
                case_index: i,
                seed,
                spec,
                violations: res.violations,
                equivalent: res.equivalent,
                samples: res.retained,
            });
            if report.failures.len() >= 5 {
                break;
            }
        }
    }
    report
}

/// Re-run one city case from its reproducing seed.
pub fn replay_city(seed: u64) -> CityCaseResult {
    run_city_spec(&gen_city_spec(seed))
}
