//! Ablation: the §6 future-work occupancy capper. The paper notes
//! cumulative occupancies above 100 % "might not be necessary" and sketches
//! scaling power traffic back; we run it and measure what power delivery
//! costs it.

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{spawn_capper, CapperConfig, Router, RouterConfig};
use powifi_deploy::three_channel_world;
use powifi_sim::{SimRng, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    targets: Vec<f64>,
    cumulative: Vec<f64>,
    power_packets: Vec<u64>,
}

#[derive(Clone)]
struct Pt {
    target: f64,
    secs: u64,
}

struct OccupancyCap {
    secs: u64,
}

impl Experiment for OccupancyCap {
    type Point = Pt;
    /// `(steady_state_cumulative, power_packets_sent)`.
    type Output = (f64, u64);

    fn name(&self) -> &'static str {
        "abl_occupancy_cap"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        [f64::INFINITY, 1.25, 1.0, 0.75, 0.5]
            .into_iter()
            .map(|target| Pt {
                target,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        if pt.target.is_finite() {
            format!("cap{:.0}pct", pt.target * 100.0)
        } else {
            "uncapped".into()
        }
    }

    fn run(&self, pt: &Pt, seed: u64) -> (f64, u64) {
        let (mut w, mut q, channels) =
            three_channel_world(seed, powifi_sim::SimDuration::from_secs(1));
        let rng = SimRng::from_seed(seed).derive("abl-cap");
        let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
        if pt.target.is_finite() {
            spawn_capper(
                &mut w,
                &mut q,
                &r,
                CapperConfig {
                    target: pt.target,
                    ..CapperConfig::default()
                },
            );
        }
        let end = SimTime::from_secs(pt.secs);
        q.run_until(&mut w, end);
        // Steady-state: occupancy over the second half.
        let series = r.occupancy_series(&w.mac, end);
        let half = series[0].len() / 2;
        let cum: f64 = (0..3)
            .map(|c| series[c][half..].iter().sum::<f64>() / (series[c].len() - half) as f64)
            .sum();
        let (sent, _) = r.injector_totals();
        (cum, sent)
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Ablation — occupancy capper: cumulative occupancy vs target",
        "uncapped idle-network router exceeds 100 %; the capper trades it away",
    );
    let secs = if args.full { 30 } else { 10 };
    let runs = Sweep::new(&args).run(&OccupancyCap { secs });

    let mut out = Out {
        targets: Vec::new(),
        cumulative: Vec::new(),
        power_packets: Vec::new(),
    };
    println!("{:<22}{:>10} {:>10}", "target", "cum occ %", "power pkts");
    for r in &runs {
        let (cum, sent) = r.output;
        row(
            &(if r.point.target.is_finite() {
                format!("{:.0} %", r.point.target * 100.0)
            } else {
                "uncapped".into()
            }),
            &[cum * 100.0, sent as f64],
            0,
        );
        out.targets.push(r.point.target);
        out.cumulative.push(cum);
        out.power_packets.push(sent);
    }
    args.emit("abl_occupancy_cap", &out);
}
