//! Figure 5: single-channel occupancy vs the injector's UDP inter-packet
//! delay, for queue-depth thresholds {1, 5, 50, 100}, no client traffic.
//! Expect: ~50 % plateau while the delay is below the frame service time,
//! falling thereafter; threshold 1 lags because user-space jitter lets the
//! queue drain (§3.2(i)).

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{spawn_injector, PowerTrafficConfig, Scheme};
use powifi_deploy::{constant_intensity, install_background, BackgroundConfig, SimWorld};
use powifi_mac::{Mac, MacWorld, Queue, RateController};
use powifi_rf::Bitrate;
use powifi_sim::{SimDuration, SimRng, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    delays_us: Vec<u64>,
    thresholds: Vec<usize>,
    /// `[threshold][delay]` occupancy.
    occupancy: Vec<Vec<f64>>,
}

const THRESHOLDS: [usize; 4] = [1, 5, 50, 100];

#[derive(Clone)]
struct Pt {
    t_idx: usize,
    threshold: usize,
    d_idx: usize,
    delay_us: u64,
    secs: u64,
}

struct OccupancyVsDelay {
    delays: Vec<u64>,
    secs: u64,
}

impl Experiment for OccupancyVsDelay {
    type Point = Pt;
    type Output = f64;

    fn name(&self) -> &'static str {
        "fig05"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        let mut pts = Vec::new();
        for (t_idx, &threshold) in THRESHOLDS.iter().enumerate() {
            for (d_idx, &delay_us) in self.delays.iter().enumerate() {
                pts.push(Pt {
                    t_idx,
                    threshold,
                    d_idx,
                    delay_us,
                    secs: self.secs,
                });
            }
        }
        pts
    }

    fn label(&self, pt: &Pt) -> String {
        format!("qdepth{}/delay{}us", pt.threshold, pt.delay_us)
    }

    fn run(&self, pt: &Pt, seed: u64) -> f64 {
        let rng = SimRng::from_seed(seed);
        let mut w = SimWorld::new(Mac::new(rng.derive("mac")));
        let mut q = Queue::new();
        let medium = w.mac.add_medium(SimDuration::from_secs(1));
        let iface = w
            .mac
            .add_station(medium, RateController::fixed(Bitrate::G54));
        {
            let mon = w.mac.monitor_mut(medium).monitor();
            mon.track(iface);
        }
        // Busy-office backdrop (other networks, not our clients).
        install_background(
            &mut w,
            &mut q,
            medium,
            BackgroundConfig::neighbor(0.30, Bitrate::G24),
            constant_intensity(),
            rng.derive("office"),
        );
        let cfg = PowerTrafficConfig {
            inter_packet_delay: SimDuration::from_micros(pt.delay_us),
            qdepth_threshold: Some(pt.threshold),
            ..Scheme::PoWiFi.power_config().unwrap()
        };
        spawn_injector(&mut w, &mut q, iface, cfg, rng.derive("inj"), SimTime::ZERO);
        let end = SimTime::from_secs(pt.secs);
        q.run_until(&mut w, end);
        let occ = w.mac().monitor(medium).mean_tracked(end);
        w.mac().record_metrics();
        powifi_sim::obs::metrics::gauge(powifi_sim::obs::metrics::keys::MAC_OCCUPANCY).set(occ);
        occ
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Figure 5 — occupancy (%) vs inter-packet delay (µs), no client traffic",
        "expect ~45-55 % plateau; decay once delay exceeds service time; qdepth=1 lowest",
    );
    let secs = if args.full { 20 } else { 4 };
    let delays: Vec<u64> = (1..=8).map(|i| i * 50).collect();
    let exp = OccupancyVsDelay {
        delays: delays.clone(),
        secs,
    };
    let runs = Sweep::new(&args).run(&exp);

    let mut out = Out {
        delays_us: delays.clone(),
        thresholds: THRESHOLDS.to_vec(),
        occupancy: vec![vec![f64::NAN; delays.len()]; THRESHOLDS.len()],
    };
    for r in &runs {
        out.occupancy[r.point.t_idx][r.point.d_idx] = r.output * 100.0;
    }
    let header: Vec<f64> = delays.iter().map(|&d| d as f64).collect();
    row("delay (µs) →", &header, 0);
    for (t, occ) in THRESHOLDS.iter().zip(&out.occupancy) {
        row(&format!("qdepth-threshold={t}"), occ, 1);
    }
    args.emit("fig05", &out);
}
