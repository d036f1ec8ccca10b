//! End-to-end integration tests spanning every crate: the router's power
//! traffic flows through the MAC, is measured by the monitor, propagates as
//! RF, and is harvested by the analog front end to run sensors — the full
//! PoWiFi pipeline of the paper.

use powifi::core::{Router, RouterConfig, Scheme};
use powifi::deploy::{build_office, three_channel_world, OfficeConfig};
use powifi::harvest::{Harvester, Store};
use powifi::mac::MacWorld;
use powifi::rf::{Db, Dbm, Meters, PathLoss, Transmitter};
use powifi::sensors::{exposure_at, sensor_pathloss, Camera, TemperatureSensor};
use powifi::sim::{SimDuration, SimRng, SimTime};

/// The headline end-to-end story: a PoWiFi router boots and cycles a
/// battery-free sensor that a stock (Baseline) router cannot even start.
#[test]
fn powifi_powers_what_a_stock_router_cannot() {
    let _conf = powifi::sim::conformance::check();
    let run = |scheme: Scheme| {
        let (mut w, mut q, channels) = three_channel_world(42, SimDuration::from_millis(500));
        let rng = SimRng::from_seed(42);
        let r = Router::install(
            &mut w,
            &mut q,
            &channels,
            RouterConfig::with_scheme(scheme),
            &rng,
        );
        let end = SimTime::from_secs(20);
        q.run_until(&mut w, end);
        // Mean per-channel duty factors drive the harvester.
        let duty = r.duty_series(&w.mac, end);
        let mean_duty: f64 = duty
            .iter()
            .map(|d| d.iter().sum::<f64>() / d.len() as f64)
            .sum::<f64>()
            / 3.0;
        let exposure = exposure_at(10.0, mean_duty, &[]);
        // Charging the 100 µF store to 2.4 V (≈290 µJ) at the ~5 µW the
        // PoWiFi router delivers at 10 ft takes a bit over a minute.
        let mut h = Harvester::battery_free_sensor();
        for _ in 0..180_000 {
            h.advance_duty(SimDuration::from_millis(1), &exposure);
            if h.output_on() {
                break;
            }
        }
        h.output_on()
    };
    assert!(
        !run(Scheme::Baseline),
        "stock router must NOT boot the sensor (§2)"
    );
    assert!(
        run(Scheme::PoWiFi),
        "PoWiFi must boot the sensor at 10 ft (§5.1)"
    );
    powifi::sim::conformance::assert_clean("powifi_powers_what_a_stock_router_cannot");
}

/// Same seed ⇒ byte-identical occupancy series; different seed ⇒ different.
#[test]
fn simulations_are_deterministic_in_the_seed() {
    let _conf = powifi::sim::conformance::check();
    let occupancies = |seed: u64| {
        let (mut w, mut q, s) = build_office(seed, Scheme::PoWiFi, OfficeConfig::default());
        let end = SimTime::from_secs(4);
        q.run_until(&mut w, end);
        s.router.occupancy_series(&w.mac, end)
    };
    let a = occupancies(7);
    let b = occupancies(7);
    let c = occupancies(8);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(a, c, "different seeds must diverge");
    powifi::sim::conformance::assert_clean("simulations_are_deterministic_in_the_seed");
}

/// The four schemes rank as the paper's Fig. 6 requires, end to end.
#[test]
fn scheme_ranking_matches_fig6() {
    let _conf = powifi::sim::conformance::check();
    use powifi::deploy::udp_experiment;
    let t = |s| udp_experiment(s, 25.0, 42, 4).throughput_mbps;
    let baseline = t(Scheme::Baseline);
    let powifi = t(Scheme::PoWiFi);
    let noqueue = t(Scheme::NoQueue);
    let blind = t(Scheme::BlindUdp);
    assert!(
        powifi > 0.85 * baseline,
        "PoWiFi {powifi} vs baseline {baseline}"
    );
    assert!(
        noqueue < 0.8 * baseline && noqueue > 0.3 * baseline,
        "NoQueue {noqueue}"
    );
    assert!(blind < 0.2 * baseline, "BlindUDP {blind}");
    powifi::sim::conformance::assert_clean("scheme_ranking_matches_fig6");
}

/// TCP download completes over a PoWiFi-loaded channel (client experience
/// is preserved, not just average throughput).
#[test]
fn tcp_transfer_completes_under_powifi() {
    let _conf = powifi::sim::conformance::check();
    use powifi::net::{start_tcp_flow, tcp_push_at};
    let (mut w, mut q, s) = build_office(42, Scheme::PoWiFi, OfficeConfig::default());
    let flow = start_tcp_flow(&mut w, s.router.client_iface().sta, s.client);
    tcp_push_at(&mut q, SimTime::from_millis(100), flow, 2_000_000);
    q.run_until(&mut w, SimTime::from_secs(15));
    let f = w.net.tcp(flow);
    assert!(
        f.completed_at.is_some(),
        "2 MB transfer did not finish in 15 s"
    );
    assert!(f.mean_mbps() > 2.0, "throughput {}", f.mean_mbps());
    powifi::sim::conformance::assert_clean("tcp_transfer_completes_under_powifi");
}

/// The camera's battery-free pipeline banks real frames from router duty:
/// event-level harvester integration, not the closed-form shortcut.
#[test]
fn camera_banks_frames_from_router_duty() {
    let _conf = powifi::sim::conformance::check();
    let (mut w, mut q, channels) = three_channel_world(42, SimDuration::from_millis(500));
    let rng = SimRng::from_seed(42);
    let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
    let end = SimTime::from_secs(10);
    q.run_until(&mut w, end);
    let duty = r.duty_series(&w.mac, end);
    let mean_duty: f64 = duty
        .iter()
        .map(|d| d.iter().sum::<f64>() / d.len() as f64)
        .sum::<f64>()
        / 3.0;
    // 5 ft: strong exposure.
    let exposure = exposure_at(5.0, mean_duty, &[]);
    let cam = Camera::battery_free();
    let t = cam
        .inter_frame_secs(&exposure)
        .expect("camera in range at 5 ft");
    // Fig. 13 free-space order of magnitude: minutes to tens of minutes.
    assert!(t > 60.0 && t < 7200.0, "inter-frame {t} s");
    powifi::sim::conformance::assert_clean("camera_banks_frames_from_router_duty");
}

/// Link-budget sanity across crates: the calibrated path loss puts the
/// battery-free sensitivity threshold at the paper's ~20 ft range.
#[test]
fn calibrated_range_endpoints_hold() {
    let _conf = powifi::sim::conformance::check();
    let model = sensor_pathloss();
    let tx = Transmitter::powifi_prototype();
    let rx = |ft: f64| {
        model.received(
            tx.eirp(),
            Db(2.0),
            powifi::rf::WifiChannel::CH6.center(),
            Meters::from_feet(ft),
        )
    };
    assert!(rx(18.0).0 > -17.8, "too weak at 18 ft: {}", rx(18.0).0);
    assert!(rx(24.0).0 < -17.8, "too strong at 24 ft: {}", rx(24.0).0);
    assert!(
        rx(30.0).0 < -19.3,
        "recharging threshold extends past 30 ft"
    );
    powifi::sim::conformance::assert_clean("calibrated_range_endpoints_hold");
}

/// The temperature sensor's energy book-keeping is consistent between the
/// closed-form rate and an explicit harvester integration.
#[test]
fn closed_form_and_integrated_rates_agree() {
    let _conf = powifi::sim::conformance::check();
    let exposure = exposure_at(8.0, 0.3, &[]);
    let sensor = TemperatureSensor::battery_recharging();
    let closed = sensor.update_rate(&exposure);
    // Integrate for an hour and divide harvested energy by per-read energy.
    let mut h = Harvester::recharging(powifi::harvest::Battery::nimh_aaa());
    for _ in 0..3600 {
        h.advance_duty(SimDuration::from_secs(1), &exposure);
    }
    let integrated = h.harvested.0 / 3600.0 / powifi::sensors::READ_ENERGY.0;
    let ratio = closed / integrated;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "closed {closed} integrated {integrated}"
    );
    powifi::sim::conformance::assert_clean("closed_form_and_integrated_rates_agree");
}

/// Store accounting: recharging stores accumulate exactly what the
/// harvester reports having delivered.
#[test]
fn battery_bookkeeping_is_consistent() {
    let _conf = powifi::sim::conformance::check();
    let exposure = exposure_at(6.0, 0.3, &[]);
    let mut h = Harvester::recharging(powifi::harvest::Battery::liion_coin());
    let Store::Batt(before) = *h.store() else {
        unreachable!()
    };
    for _ in 0..600 {
        h.advance_duty(SimDuration::from_secs(1), &exposure);
    }
    let Store::Batt(after) = *h.store() else {
        unreachable!()
    };
    let gained_j = (after.charge_mah - before.charge_mah) * 3.6 * after.volts / after.charge_eff;
    assert!(
        (gained_j - h.harvested.0).abs() < 1e-9 + 0.01 * h.harvested.0,
        "store gained {gained_j} J vs harvested {} J",
        h.harvested.0
    );
    powifi::sim::conformance::assert_clean("battery_bookkeeping_is_consistent");
}

/// Cross-experiment occupancy sanity: the router's reported per-channel
/// occupancy can never exceed the monitor's all-stations occupancy.
#[test]
fn router_occupancy_bounded_by_channel_occupancy() {
    let _conf = powifi::sim::conformance::check();
    let (mut w, mut q, s) = build_office(11, Scheme::PoWiFi, OfficeConfig::default());
    let end = SimTime::from_secs(5);
    q.run_until(&mut w, end);
    for iface in &s.router.ifaces {
        let mine = w
            .mac()
            .monitor(iface.medium)
            .mean_of_station(iface.sta, end);
        let all: f64 = w
            .mac()
            .monitor(iface.medium)
            .all_series(end)
            .iter()
            .sum::<f64>()
            / end.as_secs_f64();
        assert!(mine <= all + 1e-9, "router {mine} > channel {all}");
    }
    powifi::sim::conformance::assert_clean("router_occupancy_bounded_by_channel_occupancy");
}

/// The §2 voltage-trace result reproduces at the received power our own
/// path-loss model predicts (not a hand-picked number).
#[test]
fn fig1_trace_under_predicted_power_stays_subthreshold() {
    let _conf = powifi::sim::conformance::check();
    use powifi::harvest::{rectifier_trace, summarize, Rectifier, RectifierNode};
    use powifi::sim::PowerEnvelope;
    let model = sensor_pathloss();
    let rx: Dbm = model.received(
        Transmitter::asus_stock().eirp(),
        Db(2.0),
        powifi::rf::WifiChannel::CH6.center(),
        Meters::from_feet(10.0),
    );
    // 30 % duty bursts, ~500 µs packets.
    let mut env = PowerEnvelope::new();
    let mut t = 0u64;
    while t < 50_000 {
        env.set(SimTime::from_micros(t), 1.0);
        env.set(SimTime::from_micros(t + 500), 0.0);
        t += 1667;
    }
    let trace = rectifier_trace(
        &[(&env, rx)],
        &Rectifier::battery_free(),
        RectifierNode::fig1_default(),
        SimTime::ZERO,
        SimTime::from_millis(50),
        SimDuration::from_micros(10),
    );
    let s = summarize(&trace, 0.30);
    assert!(!s.crossed, "peak {} V at rx {}", s.peak_volts, rx);
    assert!(s.peak_volts > 0.05, "no harvesting at all at rx {rx}");
    powifi::sim::conformance::assert_clean("fig1_trace_under_predicted_power_stays_subthreshold");
}
