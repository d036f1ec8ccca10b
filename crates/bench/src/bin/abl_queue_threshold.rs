//! Ablation: queue-depth threshold with client traffic present (§3.2(i)).
//! The paper settled on 5: below it the user-space sender starves the
//! queue; above it client packets queue behind more power packets.

use powifi_bench::{banner, BenchArgs, Experiment, Sweep};
use powifi_core::{PowerTrafficConfig, Scheme};
use powifi_deploy::{build_office, OfficeConfig};
use powifi_net::{start_udp_flow, Flow};
use powifi_sim::SimTime;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    thresholds: Vec<usize>,
    client_mbps: Vec<f64>,
    cumulative_occupancy: Vec<f64>,
}

#[derive(Clone)]
struct Pt {
    threshold: usize,
    secs: u64,
}

struct QueueThreshold {
    secs: u64,
}

impl Experiment for QueueThreshold {
    type Point = Pt;
    /// `(client_mbps, cumulative_occupancy)`.
    type Output = (f64, f64);

    fn name(&self) -> &'static str {
        "abl_queue_threshold"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        [1usize, 2, 5, 10, 50, 100]
            .into_iter()
            .map(|threshold| Pt {
                threshold,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        format!("t{}", pt.threshold)
    }

    fn run(&self, pt: &Pt, seed: u64) -> (f64, f64) {
        // Run the office UDP experiment with a custom-threshold injector:
        // disable the built-ins and spawn fresh ones with the new config.
        let (mut w, mut q, s) = build_office(seed, Scheme::PoWiFi, OfficeConfig::default());
        for inj in &s.router.injectors {
            inj.borrow_mut().enabled = false;
        }
        let cfg = PowerTrafficConfig {
            qdepth_threshold: Some(pt.threshold),
            ..PowerTrafficConfig::powifi_default()
        };
        for (i, iface) in s.router.ifaces.iter().enumerate() {
            powifi_core::spawn_injector(
                &mut w,
                &mut q,
                iface.sta,
                cfg,
                powifi_sim::SimRng::from_seed(seed).derive_idx("abl-inj", i),
                SimTime::ZERO,
            );
        }
        let end = SimTime::from_secs(pt.secs);
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            s.router.client_iface().sta,
            s.client,
            30.0,
            SimTime::from_millis(100),
            end,
        );
        q.run_until(&mut w, end);
        let Some(Flow::Udp(u)) = w.net.flow(flow) else {
            unreachable!()
        };
        let (_, cum) = s.router.occupancy(&w.mac, end);
        (u.mean_mbps(), cum)
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Ablation — qdepth threshold vs client throughput and occupancy",
        "paper picks 5: occupancy saturates there; larger thresholds only slow clients",
    );
    let secs = if args.full { 15 } else { 5 };
    let runs = Sweep::new(&args).run(&QueueThreshold { secs });

    let mut out = Out {
        thresholds: Vec::new(),
        client_mbps: Vec::new(),
        cumulative_occupancy: Vec::new(),
    };
    println!(
        "{:<22}{:>10} {:>10}",
        "threshold", "client Mbps", "cum occ %"
    );
    for r in &runs {
        let (mbps, cum) = r.output;
        println!(
            "{:<22}{:>10.1} {:>10.1}",
            r.point.threshold,
            mbps,
            cum * 100.0
        );
        out.thresholds.push(r.point.threshold);
        out.client_mbps.push(mbps);
        out.cumulative_occupancy.push(cum);
    }
    args.emit("abl_queue_threshold", &out);
}
