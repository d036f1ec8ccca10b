//! Figure 7: CDFs of PoWiFi's per-channel and cumulative occupancy during
//! the UDP, TCP and PLT experiments (1 s samples).
//! Expect: individual channels spread over ~5–70 %; cumulative near 100 %.

use powifi_bench::{banner, row, summarize, BenchArgs, Experiment, Sweep};
use powifi_core::Scheme;
use powifi_deploy::{build_office, OfficeConfig};
use powifi_net::{
    start_page_load, start_tcp_flow, start_udp_flow, tcp_push_at, top10_us, WanConfig,
};
use powifi_sim::{SimDuration, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    workloads: Vec<String>,
    /// `[workload][channel]` sorted occupancy samples; channel 3 = cumulative.
    samples: Vec<Vec<Vec<f64>>>,
    mean_cumulative: Vec<f64>,
}

const WORKLOADS: [&str; 3] = ["udp", "tcp", "plt"];

#[derive(Clone)]
struct Pt {
    workload: &'static str,
    secs: u64,
}

#[derive(Serialize)]
struct PointOut {
    /// Sorted per-channel samples; entry 3 = cumulative.
    channels: Vec<Vec<f64>>,
    mean_cumulative: f64,
}

struct OccupancyCdfs {
    secs: u64,
}

impl Experiment for OccupancyCdfs {
    type Point = Pt;
    type Output = PointOut;

    fn name(&self) -> &'static str {
        "fig07"
    }

    fn points(&self, _full: bool) -> Vec<Pt> {
        WORKLOADS
            .iter()
            .map(|&workload| Pt {
                workload,
                secs: self.secs,
            })
            .collect()
    }

    fn label(&self, pt: &Pt) -> String {
        pt.workload.into()
    }

    fn run(&self, pt: &Pt, seed: u64) -> PointOut {
        let (mut w, mut q, s) = build_office(seed, Scheme::PoWiFi, OfficeConfig::default());
        let end = SimTime::from_secs(pt.secs);
        let router_sta = s.router.client_iface().sta;
        let client = s.client;
        match pt.workload {
            "udp" => {
                start_udp_flow(
                    &mut w,
                    &mut q,
                    router_sta,
                    client,
                    20.0,
                    SimTime::from_millis(100),
                    end,
                );
            }
            "tcp" => {
                let flow = start_tcp_flow(&mut w, router_sta, client);
                tcp_push_at(&mut q, SimTime::from_millis(100), flow, u64::MAX / 4);
            }
            "plt" => {
                let mut t = SimTime::from_millis(200);
                let sites = top10_us();
                let mut i = 0;
                while t < end {
                    start_page_load(
                        &mut w,
                        &mut q,
                        router_sta,
                        client,
                        sites[i % 10],
                        WanConfig::default(),
                        t,
                    );
                    t += SimDuration::from_secs(5);
                    i += 1;
                }
            }
            _ => unreachable!(),
        }
        q.run_until(&mut w, end);
        let per = s.router.occupancy_series(&w.mac, end);
        let bins = per[0].len();
        let mut channels: Vec<Vec<f64>> = per.clone();
        channels.push((0..bins).map(|b| per.iter().map(|c| c[b]).sum()).collect());
        let mean_cumulative = channels[3].iter().sum::<f64>() / bins as f64;
        for c in &mut channels {
            c.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        PointOut {
            channels,
            mean_cumulative,
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Figure 7 — occupancy CDFs under PoWiFi (UDP / TCP / PLT workloads)",
        "expect: per-channel 5-70 %; cumulative around 90-110 %",
    );
    let secs = if args.full { 30 } else { 8 };
    let runs = Sweep::new(&args).run(&OccupancyCdfs { secs });

    let mut out = Out {
        workloads: Vec::new(),
        samples: Vec::new(),
        mean_cumulative: Vec::new(),
    };
    println!(
        "{:<22}{:>10} {:>10} {:>10} {:>10}",
        "workload/series", "mean", "p10", "p50", "p90"
    );
    for r in runs {
        let workload = r.point.workload;
        for (name, series) in ["ch1", "ch6", "ch11", "cumulative"]
            .iter()
            .zip(&r.output.channels)
        {
            let (mean, p10, p50, p90) = summarize(series.clone());
            row(
                &format!("{workload}:{name}"),
                &[mean * 100.0, p10 * 100.0, p50 * 100.0, p90 * 100.0],
                1,
            );
        }
        println!(
            "{workload}: mean cumulative {:.1} % (paper: UDP 97.6 / TCP 100.9 / PLT 87.6)",
            r.output.mean_cumulative * 100.0
        );
        out.workloads.push(workload.to_string());
        out.samples.push(r.output.channels);
        out.mean_cumulative.push(r.output.mean_cumulative);
    }
    args.emit("fig07", &out);
}
