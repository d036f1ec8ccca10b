//! Randomized scenario stress tests: build arbitrary worlds — any mix of
//! routers, schemes, clients, flows, attackers and link quality — run them,
//! and check the invariants that must hold in *every* PoWiFi simulation.

use powifi::core::{Router, RouterConfig, Scheme};
use powifi::deploy::{three_channel_world, SimWorld};
use powifi::mac::{MacWorld, RateController, StationId};
use powifi::net::{start_tcp_flow, start_udp_flow, tcp_push_at, Flow};
use powifi::rf::{Bitrate, Db};
use powifi::sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    scheme: u8,
    clients: usize,
    udp_flows: usize,
    tcp_flows: usize,
    corruption: f64,
    weak_links: bool,
    secs: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u64..10_000,
        0u8..4,
        1usize..5,
        0usize..3,
        0usize..3,
        0.0f64..0.3,
        prop::bool::ANY,
        2u64..5,
    )
        .prop_map(
            |(seed, scheme, clients, udp_flows, tcp_flows, corruption, weak_links, secs)| {
                Scenario {
                    seed,
                    scheme,
                    clients,
                    udp_flows,
                    tcp_flows,
                    corruption,
                    weak_links,
                    secs,
                }
            },
        )
}

fn run_scenario(sc: &Scenario) -> (SimWorld, Router, Vec<u32>, SimTime) {
    let (mut w, mut q, channels) = three_channel_world(sc.seed, SimDuration::from_secs(1));
    let scheme = match sc.scheme {
        0 => Scheme::Baseline,
        1 => Scheme::PoWiFi,
        2 => Scheme::NoQueue,
        _ => Scheme::EqualShare(Bitrate::G24),
    };
    let rng = SimRng::from_seed(sc.seed);
    let router = Router::install(
        &mut w,
        &mut q,
        &channels,
        RouterConfig::with_scheme(scheme),
        &rng,
    );
    let router_sta = router.client_iface().sta;
    let m = channels[0].1;
    if sc.corruption > 0.0 {
        w.mac.set_corruption(m, sc.corruption);
    }
    let clients: Vec<StationId> = (0..sc.clients)
        .map(|_| w.mac.add_station(m, RateController::minstrel(Bitrate::G54)))
        .collect();
    if sc.weak_links {
        for &c in &clients {
            w.mac.set_link_snr(router_sta, c, Db(23.0));
            w.mac.set_link_snr(c, router_sta, Db(23.0));
        }
    }
    let end = SimTime::from_secs(sc.secs);
    let mut flows = Vec::new();
    for i in 0..sc.udp_flows {
        let dst = clients[i % clients.len()];
        flows.push(start_udp_flow(
            &mut w,
            &mut q,
            router_sta,
            dst,
            5.0 + 7.0 * i as f64,
            SimTime::from_millis(10),
            end,
        ));
    }
    for i in 0..sc.tcp_flows {
        let dst = clients[i % clients.len()];
        let flow = start_tcp_flow(&mut w, router_sta, dst);
        flows.push(flow);
        tcp_push_at(&mut q, SimTime::from_millis(20), flow, 1_000_000);
    }
    q.run_until(&mut w, end);
    (w, router, flows, end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No panic, and the physical conservation laws hold: each channel's
    /// total occupancy ≤ 1 (airtime cannot be overbooked), the router's
    /// share ≤ the channel total, queues respect their caps, and UDP sinks
    /// never receive more than was offered.
    #[test]
    fn arbitrary_scenarios_respect_conservation_laws(sc in scenario_strategy()) {
        let _conf = powifi::sim::conformance::check();
        let (w, router, flows, end) = run_scenario(&sc);
        for iface in &router.ifaces {
            let mon = w.mac().monitor(iface.medium);
            let all: f64 =
                mon.all_series(end).iter().sum::<f64>() / end.as_secs_f64();
            let mine = mon.mean_of_station(iface.sta, end);
            // tshark metric excludes preamble/IFS, so < 1.0 with margin.
            prop_assert!(all <= 1.0, "channel overbooked: {all}");
            prop_assert!(mine <= all + 1e-9, "router {mine} > channel {all}");
        }
        for &flow in &flows {
            match w.net.flow(flow) {
                Some(Flow::Udp(u)) => {
                    prop_assert!(u.packets <= u.max_seq, "sink got more than sent");
                    prop_assert!(u.loss() >= 0.0 && u.loss() <= 1.0);
                }
                Some(Flow::Tcp(t)) => {
                    // Goodput can never exceed channel capacity.
                    prop_assert!(t.mean_mbps() < 32.0, "tcp {} Mbps", t.mean_mbps());
                }
                None => prop_assert!(false, "flow vanished"),
            }
        }
        // Injector accounting: sends + drops == ticks attempted (no frames
        // invented or lost by the bookkeeping).
        let (sent, _dropped) = router.injector_totals();
        if sc.scheme == 0 {
            prop_assert_eq!(sent, 0, "Baseline must not inject");
        }
        powifi::sim::conformance::assert_clean("arbitrary_scenarios_respect_conservation_laws");
    }

    /// Every scenario is exactly reproducible from its seed.
    #[test]
    fn arbitrary_scenarios_are_reproducible(sc in scenario_strategy()) {
        let _conf = powifi::sim::conformance::check();
        let (w1, r1, _, end) = run_scenario(&sc);
        let (w2, r2, _, _) = run_scenario(&sc);
        let occ1 = r1.occupancy(&w1.mac, end);
        let occ2 = r2.occupancy(&w2.mac, end);
        prop_assert_eq!(occ1, occ2);
        powifi::sim::conformance::assert_clean("arbitrary_scenarios_are_reproducible");
    }
}
