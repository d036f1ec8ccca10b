//! Property tests of the PoWiFi contribution: the IP_Power invariant, the
//! injector's queue bound, capper convergence across random targets, and
//! the determinism of the whole pipeline.

use powifi_core::{
    ip_power_check, spawn_capper, spawn_injector, CapperConfig, CoreStack, IpPowerVerdict,
    PowerTrafficConfig, Router, RouterConfig, Scheme,
};
use powifi_mac::{enqueue, Frame, Mac, MediumId, Queue, RateController};
use powifi_rf::{Bitrate, WifiChannel};
use powifi_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

fn three_channels(seed: u64) -> (CoreStack, Queue<CoreStack>, Vec<(WifiChannel, MediumId)>) {
    let mut w = CoreStack::new(Mac::new(SimRng::from_seed(seed)));
    let channels: Vec<_> = WifiChannel::POWER_SET
        .iter()
        .map(|&ch| (ch, w.mac.add_medium(SimDuration::from_secs(1))))
        .collect();
    (w, Queue::new(), channels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The IP_Power verdict is exactly `depth >= threshold`.
    #[test]
    fn ip_power_verdict_matches_definition(pre_queued in 0usize..30, threshold in 1usize..30) {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(1)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let sta = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let mut q = Queue::<CoreStack>::new();
        for _ in 0..pre_queued {
            enqueue(&mut w, &mut q, sta, Frame::power(sta, 1500, Bitrate::G54));
        }
        let verdict = ip_power_check(&w.mac, sta, Some(threshold));
        let expect = if pre_queued >= threshold {
            IpPowerVerdict::Drop
        } else {
            IpPowerVerdict::Admit
        };
        prop_assert_eq!(verdict, expect);
    }

    /// The injector's queue never exceeds its threshold, for any threshold
    /// and inter-packet delay.
    #[test]
    fn injector_respects_any_threshold(
        threshold in 1usize..20,
        delay_us in 20u64..500,
        seed in 0u64..100,
    ) {
        let mut w = CoreStack::new(Mac::new(SimRng::from_seed(seed)));
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let sta = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let mut q = Queue::<CoreStack>::new();
        let cfg = PowerTrafficConfig {
            inter_packet_delay: SimDuration::from_micros(delay_us),
            qdepth_threshold: Some(threshold),
            ..PowerTrafficConfig::powifi_default()
        };
        spawn_injector(&mut w, &mut q, sta, cfg, SimRng::from_seed(seed + 1), SimTime::ZERO);
        for step in 1..100u64 {
            q.run_until(&mut w, SimTime::from_micros(step * 997));
            prop_assert!(
                w.mac.queue_depth(sta) <= threshold,
                "depth {} over threshold {threshold}",
                w.mac.queue_depth(sta)
            );
        }
    }

    /// The capper converges: steady-state occupancy lands at or below a
    /// small margin over any achievable target.
    #[test]
    fn capper_converges_for_any_target(target_pct in 30u32..120) {
        let target = target_pct as f64 / 100.0;
        let (mut w, mut q, channels) = three_channels(9);
        let rng = SimRng::from_seed(10);
        let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
        spawn_capper(&mut w, &mut q, &r, CapperConfig { target, ..CapperConfig::default() });
        let end = SimTime::from_secs(12);
        q.run_until(&mut w, end);
        let series = r.occupancy_series(&w.mac, end);
        let half = series[0].len() / 2;
        let cum: f64 = (0..3)
            .map(|c| series[c][half..].iter().sum::<f64>() / (series[c].len() - half) as f64)
            .sum();
        prop_assert!(cum <= target * 1.30 + 0.05, "cum {cum} vs target {target}");
    }

    /// Two identically-seeded routers produce identical occupancy series;
    /// the scheme label round-trips through its config.
    #[test]
    fn pipeline_is_deterministic(seed in 0u64..200) {
        let run = |seed| {
            let (mut w, mut q, channels) = three_channels(seed);
            let rng = SimRng::from_seed(seed);
            let r = Router::install(&mut w, &mut q, &channels, RouterConfig::powifi(), &rng);
            let end = SimTime::from_secs(2);
            q.run_until(&mut w, end);
            r.occupancy(&w.mac, end)
        };
        let (per_a, cum_a) = run(seed);
        let (per_b, cum_b) = run(seed);
        prop_assert_eq!(per_a, per_b);
        prop_assert_eq!(cum_a, cum_b);
    }

    /// Scheme configs are internally consistent: only Baseline lacks power
    /// traffic, and every power config uses the paper's 1500-byte payload.
    #[test]
    fn scheme_configs_are_consistent(rate_idx in 0usize..8) {
        let rate = Bitrate::OFDM[rate_idx];
        for scheme in [
            Scheme::Baseline,
            Scheme::BlindUdp,
            Scheme::NoQueue,
            Scheme::PoWiFi,
            Scheme::EqualShare(rate),
        ] {
            match scheme.power_config() {
                None => prop_assert_eq!(scheme, Scheme::Baseline),
                Some(cfg) => {
                    prop_assert_eq!(cfg.payload_bytes, 1500);
                    if let Scheme::EqualShare(r) = scheme {
                        prop_assert_eq!(cfg.bitrate, r);
                    }
                }
            }
        }
    }
}
