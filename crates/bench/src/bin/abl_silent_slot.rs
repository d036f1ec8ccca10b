//! Ablation: queue-threshold injection (§3.2) vs silent-slot injection
//! (§8b as a policy). Silent-slot is maximally polite — it only ever
//! transmits into observed idle air — but pays occupancy for it; the
//! queue-threshold design pressurizes the DCF arbiter and wins more air
//! at nearly the same client cost.

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{spawn_silent_injector, Scheme, SilentSlotConfig};
use powifi_deploy::{build_office, OfficeConfig};
use powifi_net::{start_udp_flow, Flow};
use powifi_sim::SimTime;
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    policies: Vec<String>,
    client_mbps: Vec<f64>,
    cumulative_occupancy: Vec<f64>,
}

const POLICIES: [&str; 3] = ["baseline", "queue-threshold", "silent-slot"];

#[derive(Clone)]
struct Pt {
    policy: &'static str,
    secs: u64,
}

struct SilentSlot {
    secs: u64,
}

impl Experiment for SilentSlot {
    type Point = Pt;
    /// `(client_mbps, cumulative_occupancy)`.
    type Output = (f64, f64);

    fn name(&self) -> &'static str {
        "abl_silent_slot"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        POLICIES
            .iter()
            .map(|&policy| Pt {
                policy,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        pt.policy.into()
    }

    fn run(&self, pt: &Pt, seed: u64) -> (f64, f64) {
        let scheme = match pt.policy {
            "queue-threshold" => Scheme::PoWiFi,
            // silent-slot installs its own injectors on top of Baseline
            _ => Scheme::Baseline,
        };
        let (mut w, mut q, s) = build_office(seed, scheme, OfficeConfig::default());
        if pt.policy == "silent-slot" {
            for iface in &s.router.ifaces {
                spawn_silent_injector(
                    &mut w,
                    &mut q,
                    iface.sta,
                    SilentSlotConfig::default(),
                    SimTime::ZERO,
                );
            }
        }
        let end = SimTime::from_secs(pt.secs);
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            s.router.client_iface().sta,
            s.client,
            25.0,
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
        "Ablation — queue-threshold (§3.2) vs silent-slot (§8b) injection",
        "silent-slot never contends with anyone; queue-threshold wins more air",
    );
    let secs = if args.full { 20 } else { 6 };
    let runs = Sweep::new(&args).run(&SilentSlot { secs });

    let mut out = Out {
        policies: Vec::new(),
        client_mbps: Vec::new(),
        cumulative_occupancy: Vec::new(),
    };
    println!("{:<22}{:>12} {:>12}", "policy", "client Mbps", "cum occ %");
    for r in &runs {
        let (mbps, cum) = r.output;
        row(r.point.policy, &[mbps, cum * 100.0], 1);
        out.policies.push(r.point.policy.to_string());
        out.client_mbps.push(mbps);
        out.cumulative_occupancy.push(cum);
    }
    args.emit("abl_silent_slot", &out);
}
