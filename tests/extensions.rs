//! Integration tests for the discussion-section extensions (§8): occupancy
//! capping, multi-router fleets, PDoS, silent-slot injection, multi-band
//! harvesting, and the backscatter synthesis.

use powifi::core::{
    install_fleet, spawn_attacker, spawn_capper, spawn_silent_injector, AttackConfig, CapperConfig,
    FleetMode, Router, RouterConfig, SilentSlotConfig,
};
use powifi::deploy::three_channel_world;
use powifi::harvest::MultibandHarvester;
use powifi::rf::{Dbm, IsmBand, Meters};
use powifi::sensors::{exposure_at, BackscatterTag, BENCH_DUTY};
use powifi::sim::{SimDuration, SimRng, SimTime};

#[test]
fn capper_composes_with_fleet() {
    let _conf = powifi::sim::conformance::check();
    // Two concurrent routers plus a capper on each: the *combined* channel
    // occupancy settles near the per-router targets without oscillating to
    // zero.
    let (mut w, mut q, channels) = three_channel_world(42, SimDuration::from_secs(1));
    let rng = SimRng::from_seed(42);
    let routers = install_fleet(
        &mut w,
        &mut q,
        &channels,
        2,
        RouterConfig::powifi(),
        FleetMode::Concurrent,
        &rng,
    );
    for r in &routers {
        spawn_capper(
            &mut w,
            &mut q,
            r,
            CapperConfig {
                target: 0.5,
                ..CapperConfig::default()
            },
        );
    }
    let end = SimTime::from_secs(12);
    q.run_until(&mut w, end);
    for r in &routers {
        let (_, cum) = r.occupancy(&w.mac, end);
        assert!(cum > 0.15, "capper killed a router: {cum}");
        assert!(cum < 0.9, "capper failed to bite: {cum}");
    }
    powifi::sim::conformance::assert_clean("capper_composes_with_fleet");
}

#[test]
fn pdos_attack_starves_silent_slot_policy_too() {
    let _conf = powifi::sim::conformance::check();
    // Silent-slot injection is, by construction, even more vulnerable to a
    // carrier-sense attacker than the queue-threshold design.
    let occupancy = |attack: bool| {
        let (mut w, mut q, channels) = three_channel_world(42, SimDuration::from_secs(1));
        let rng = SimRng::from_seed(42);
        let r = Router::install(
            &mut w,
            &mut q,
            &channels,
            RouterConfig::with_scheme(powifi::core::Scheme::Baseline),
            &rng,
        );
        for iface in &r.ifaces {
            spawn_silent_injector(
                &mut w,
                &mut q,
                iface.sta,
                SilentSlotConfig::default(),
                SimTime::ZERO,
            );
        }
        if attack {
            for &(_, m) in &channels {
                spawn_attacker(&mut w, &mut q, m, AttackConfig::saturating_low_rate());
            }
        }
        let end = SimTime::from_secs(4);
        q.run_until(&mut w, end);
        r.occupancy(&w.mac, end).1
    };
    let clean = occupancy(false);
    let attacked = occupancy(true);
    assert!(clean > 1.0, "silent slot idle occupancy {clean}");
    assert!(attacked < 0.1 * clean, "clean {clean} attacked {attacked}");
    powifi::sim::conformance::assert_clean("pdos_attack_starves_silent_slot_policy_too");
}

#[test]
fn multiband_harvester_uses_what_its_bands_can_hear() {
    let _conf = powifi::sim::conformance::check();
    let all = MultibandHarvester::covering(&IsmBand::ALL);
    let only24 = MultibandHarvester::covering(&[IsmBand::Ism2400]);
    // Inputs on all bands at equal strength.
    let inputs: Vec<_> = IsmBand::ALL
        .into_iter()
        .flat_map(|b| b.power_channels().into_iter().map(|f| (f, Dbm(-11.0), 0.3)))
        .collect();
    let p_all = all.dc_power(&inputs).0;
    let p_24 = only24.dc_power(&inputs).0;
    assert!(p_all > p_24, "all {p_all} vs 2.4-only {p_24}");
    // And the 2.4-only harvester ignores the other bands entirely: feeding
    // it only out-of-band power yields zero.
    let foreign: Vec<_> = IsmBand::Ism900
        .power_channels()
        .into_iter()
        .chain(IsmBand::Ism5800.power_channels())
        .map(|f| (f, Dbm(-11.0), 0.3))
        .collect();
    assert_eq!(only24.dc_power(&foreign).0, 0.0);
    powifi::sim::conformance::assert_clean("multiband_harvester_uses_what_its_bands_can_hear");
}

#[test]
fn powered_tag_has_an_uplink_where_it_has_power() {
    let _conf = powifi::sim::conformance::check();
    // The §7 synthesis, end to end across crates: anywhere the harvester
    // nets its switching power AND the receiver is close, bits flow.
    let tag = BackscatterTag::prototype();
    let mut worked = 0;
    let mut dead = 0;
    for feet in [4.0, 8.0, 12.0, 20.0, 30.0, 40.0] {
        let exposure = exposure_at(feet, BENCH_DUTY, &[]);
        let direct = exposure[1].1;
        match tag.uplink_bitrate(&exposure, 2500.0, direct, Meters(1.0)) {
            Some(bps) => {
                assert!(bps > 0.0);
                worked += 1;
            }
            None => dead += 1,
        }
    }
    assert!(
        worked >= 3,
        "uplink should work through mid-range ({worked})"
    );
    assert!(
        dead >= 1,
        "uplink must die out of harvesting range ({dead})"
    );
    powifi::sim::conformance::assert_clean("powered_tag_has_an_uplink_where_it_has_power");
}

#[test]
fn fleet_of_four_keeps_every_channel_hot() {
    let _conf = powifi::sim::conformance::check();
    let (mut w, mut q, channels) = three_channel_world(42, SimDuration::from_secs(1));
    let rng = SimRng::from_seed(42);
    let routers = install_fleet(
        &mut w,
        &mut q,
        &channels,
        4,
        RouterConfig::powifi(),
        FleetMode::Concurrent,
        &rng,
    );
    let end = SimTime::from_secs(5);
    q.run_until(&mut w, end);
    // Combined per-channel occupancy from all routers.
    for (ci, &(_, m)) in channels.iter().enumerate() {
        let combined: f64 = routers
            .iter()
            .map(|r| w.mac.monitor(m).mean_of_station(r.ifaces[ci].sta, end))
            .sum();
        assert!(combined > 0.5, "channel {ci} combined occupancy {combined}");
    }
    powifi::sim::conformance::assert_clean("fleet_of_four_keeps_every_channel_hot");
}
