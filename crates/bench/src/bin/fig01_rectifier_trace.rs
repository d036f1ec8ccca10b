//! Figure 1 / §2: rectifier voltage at a battery-free sensor 10 ft from a
//! stock (non-PoWiFi) router. The harvester charges during packets, leaks
//! during silent slots, and never crosses the Seiko's 300 mV threshold.

use powifi_bench::{banner, row, BenchArgs, Experiment, Sweep};
use powifi_core::{Router, RouterConfig, Scheme};
use powifi_deploy::{
    constant_intensity, install_background, install_traffic_source, BackgroundConfig, SimWorld,
};
use powifi_harvest::{rectifier_trace, summarize as trace_summary, Rectifier, RectifierNode};
use powifi_mac::{Mac, MacWorld, Queue, RateController};
use powifi_rf::{Bitrate, Db, Meters, PathLoss, WifiChannel};
use powifi_sensors::sensor_pathloss;
use powifi_sim::{SimDuration, SimRng, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    received_dbm: f64,
    peak_volts: f64,
    fraction_above_300mv: f64,
    crossed: bool,
    occupancy: f64,
    samples: Vec<(f64, f64)>,
}

#[derive(Clone)]
struct Pt {
    horizon_ms: u64,
}

struct RectifierFig;

impl Experiment for RectifierFig {
    type Point = Pt;
    type Output = Out;

    fn name(&self) -> &'static str {
        "fig01"
    }

    fn points(&self, full: bool) -> Vec<Pt> {
        vec![Pt {
            horizon_ms: if full { 200 } else { 20 },
        }]
    }

    fn label(&self, _pt: &Pt) -> String {
        "stock-router".into()
    }

    fn run(&self, pt: &Pt, seed: u64) -> Out {
        // §2 setup: Asus RT-AC68U (23 dBm, 4.04 dBi) on channel 6, moderate
        // (10–40 %) occupancy from its own client traffic.
        let rng = SimRng::from_seed(seed);
        let mut w = SimWorld::new(Mac::new(rng.derive("mac")));
        let mut q = Queue::new();
        let medium = w.mac.add_medium(SimDuration::from_millis(100));
        let router = Router::install(
            &mut w,
            &mut q,
            &[(WifiChannel::CH6, medium)],
            RouterConfig {
                scheme: Scheme::Baseline,
                beacons: true,
                fine_envelope: true,
            },
            &rng,
        );
        let router_sta = router.client_iface().sta;
        let client = w
            .mac
            .add_station(medium, RateController::fixed(Bitrate::G54));
        install_traffic_source(
            &mut w,
            &mut q,
            router_sta,
            client,
            BackgroundConfig::neighbor(0.25, Bitrate::G54),
            constant_intensity(),
            rng.derive("client-traffic"),
        );
        // A little co-channel office noise, not counted as the router's.
        install_background(
            &mut w,
            &mut q,
            medium,
            BackgroundConfig::neighbor(0.10, Bitrate::G24),
            constant_intensity(),
            rng.derive("office"),
        );
        let horizon = SimTime::from_millis(pt.horizon_ms);
        q.run_until(&mut w, horizon);

        // Received power at 10 ft from the stock router.
        let model = sensor_pathloss();
        let eirp = powifi_rf::Transmitter::asus_stock().eirp();
        let rx = model.received(
            eirp,
            Db(2.0),
            WifiChannel::CH6.center(),
            Meters::from_feet(10.0),
        );

        let env = w.mac.monitor(medium).envelope().expect("envelope enabled");
        let trace = rectifier_trace(
            &[(env, rx)],
            &Rectifier::battery_free(),
            RectifierNode::fig1_default(),
            SimTime::ZERO,
            horizon,
            SimDuration::from_micros(5),
        );
        let s = trace_summary(&trace, 0.30);
        let occ = w.mac().monitor(medium).mean_tracked(horizon);

        // Print a 2.5 ms window like the paper's figure.
        println!("received power at sensor: {rx}");
        println!(
            "router occupancy (incl. client traffic): {:.1} %",
            occ * 100.0
        );
        println!(
            "peak rectifier voltage: {:.3} V  (threshold 0.300 V, crossed: {})",
            s.peak_volts, s.crossed
        );
        println!("time at/above threshold: {:.2} %", s.fraction_above * 100.0);
        println!("\n   t(ms)      V");
        let window: Vec<&powifi_harvest::TraceSample> = trace
            .iter()
            .filter(|p| p.t >= 0.010 && p.t < 0.0125)
            .collect();
        for p in window.iter().step_by(10) {
            row(&format!("{:8.3}", p.t * 1e3), &[p.volts], 3);
        }

        Out {
            received_dbm: rx.0,
            peak_volts: s.peak_volts,
            fraction_above_300mv: s.fraction_above,
            crossed: s.crossed,
            occupancy: occ,
            samples: trace.iter().step_by(4).map(|p| (p.t, p.volts)).collect(),
        }
    }
}

fn main() {
    let args = BenchArgs::parse();
    banner(
        "Figure 1 — rectifier voltage under stock-router traffic (10 ft)",
        "expect: charges during packets, leaks in gaps, never reaches 300 mV",
    );
    let runs = Sweep::new(&args).run(&RectifierFig);
    let Some(run) = runs.into_iter().next() else {
        return;
    };
    args.emit("fig01", &run.output);
    assert!(
        !run.output.crossed,
        "Fig 1 expectation violated: threshold crossed"
    );
}
