//! Ablation: the power-packet bit rate (§3.2(iii)). The paper transmits at
//! 54 Mbps so power frames hold the channel briefly; lower rates raise the
//! injector's occupancy but strangle clients and neighbors.

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{PowerTrafficConfig, Scheme};
use powifi_deploy::{build_office, OfficeConfig};
use powifi_net::{start_udp_flow, Flow};
use powifi_rf::Bitrate;
use powifi_sim::{SimRng, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    bitrates_mbps: Vec<f64>,
    client_mbps: Vec<f64>,
    cumulative_occupancy: Vec<f64>,
    duty_per_channel: Vec<f64>,
}

const RATES: [Bitrate; 5] = [
    Bitrate::B1,
    Bitrate::G6,
    Bitrate::G12,
    Bitrate::G24,
    Bitrate::G54,
];

#[derive(Clone)]
struct Pt {
    rate: Bitrate,
    secs: u64,
}

struct PowerBitrate {
    secs: u64,
}

impl Experiment for PowerBitrate {
    type Point = Pt;
    /// `(client_mbps, cumulative_occupancy, ch6_duty)`.
    type Output = (f64, f64, f64);

    fn name(&self) -> &'static str {
        "abl_power_bitrate"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        RATES
            .into_iter()
            .map(|rate| Pt {
                rate,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        format!("{}mbps", pt.rate.mbps())
    }

    fn run(&self, pt: &Pt, seed: u64) -> (f64, f64, f64) {
        let (mut w, mut q, s) = build_office(seed, Scheme::PoWiFi, OfficeConfig::default());
        for inj in &s.router.injectors {
            inj.borrow_mut().enabled = false;
        }
        let cfg = PowerTrafficConfig {
            bitrate: pt.rate,
            ..PowerTrafficConfig::powifi_default()
        };
        for (i, iface) in s.router.ifaces.iter().enumerate() {
            powifi_core::spawn_injector(
                &mut w,
                &mut q,
                iface.sta,
                cfg,
                SimRng::from_seed(seed).derive_idx("abl-rate", i),
                SimTime::ZERO,
            );
        }
        let end = SimTime::from_secs(pt.secs);
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            s.router.client_iface().sta,
            s.client,
            20.0,
            SimTime::from_millis(100),
            end,
        );
        q.run_until(&mut w, end);
        let Some(Flow::Udp(u)) = w.net.flow(flow) else {
            unreachable!()
        };
        let (_, cum) = s.router.occupancy(&w.mac, end);
        let duty = w.mac.monitor(s.channels[1].1).mean_duty(end);
        (u.mean_mbps(), cum, duty)
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Ablation — power-packet bit rate vs client impact and RF duty",
        "low rates buy duty cycle at the clients' expense; 54 Mbps is gentle",
    );
    let secs = if args.full { 15 } else { 5 };
    let runs = Sweep::new(&args).run(&PowerBitrate { secs });

    let mut out = Out {
        bitrates_mbps: Vec::new(),
        client_mbps: Vec::new(),
        cumulative_occupancy: Vec::new(),
        duty_per_channel: Vec::new(),
    };
    println!(
        "{:<22}{:>10} {:>10} {:>10}",
        "power bitrate", "client Mbps", "cum occ %", "duty %"
    );
    for r in &runs {
        let (mbps, cum, duty) = r.output;
        row(
            &format!("{} Mbps", r.point.rate.mbps()),
            &[mbps, cum * 100.0, duty * 100.0],
            1,
        );
        out.bitrates_mbps.push(r.point.rate.mbps());
        out.client_mbps.push(mbps);
        out.cumulative_occupancy.push(cum);
        out.duty_per_channel.push(duty);
    }
    args.emit("abl_power_bitrate", &out);
}
