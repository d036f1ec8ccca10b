//! Ablation: the §8d power-denial-of-service attack. A compliant rogue
//! device holding the channel with slow junk broadcasts starves the
//! router's power delivery in proportion to its airtime.

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{spawn_attacker, AttackConfig, Router, RouterConfig};
use powifi_deploy::three_channel_world;
use powifi_sim::{SimDuration, SimRng, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    attack_period_ms: Vec<f64>,
    router_cumulative: Vec<f64>,
}

#[derive(Clone)]
struct Pt {
    period_ms: f64,
    secs: u64,
}

struct PowerDos {
    secs: u64,
}

impl Experiment for PowerDos {
    type Point = Pt;
    type Output = f64;

    fn name(&self) -> &'static str {
        "abl_pdos"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        // Period ∞ = no attack; smaller periods = fiercer attack.
        [f64::INFINITY, 500.0, 100.0, 20.0, 2.0]
            .into_iter()
            .map(|period_ms| Pt {
                period_ms,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        if pt.period_ms.is_finite() {
            format!("p{:.0}ms", pt.period_ms)
        } else {
            "no-attack".into()
        }
    }

    fn run(&self, pt: &Pt, seed: u64) -> f64 {
        let (mut w, mut q, channels) = three_channel_world(seed, SimDuration::from_secs(1));
        let rng = SimRng::from_seed(seed).derive("pdos");
        let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
        if pt.period_ms.is_finite() {
            let cfg = AttackConfig::duty_cycled(SimDuration::from_secs_f64(pt.period_ms / 1000.0));
            for &(_, m) in &channels {
                spawn_attacker(&mut w, &mut q, m, cfg);
            }
        }
        let end = SimTime::from_secs(pt.secs);
        q.run_until(&mut w, end);
        r.occupancy(&w.mac, end).1
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Ablation — power-DoS (§8d): router occupancy vs attack intensity",
        "a saturating 1 Mbps broadcaster collapses power delivery via carrier sense",
    );
    let secs = if args.full { 20 } else { 6 };
    let runs = Sweep::new(&args).run(&PowerDos { secs });

    let mut out = Out {
        attack_period_ms: Vec::new(),
        router_cumulative: Vec::new(),
    };
    println!("{:<22}{:>10}", "attack period", "cum occ %");
    for r in &runs {
        row(
            &(if r.point.period_ms.is_finite() {
                format!("{:.0} ms", r.point.period_ms)
            } else {
                "no attack".into()
            }),
            &[r.output * 100.0],
            1,
        );
        out.attack_period_ms.push(r.point.period_ms);
        out.router_cumulative.push(r.output);
    }
    args.emit("abl_pdos", &out);
}
