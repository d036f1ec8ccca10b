//! # powifi-net
//!
//! Transport and application workloads over the simulated MAC: UDP CBR
//! (iperf), a compact TCP Reno/NewReno, and the top-10-websites page-load
//! model — everything §4.1 measures against the PoWiFi schemes.
//!
//! A world embedding transport implements [`NetWorld`] and forwards the
//! MAC's `deliver` upcall to [`on_deliver`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod ckpt;
pub mod state;
pub mod tcp;
pub mod udp;
pub mod web;

pub use state::{Flow, FlowId, NetState, NetWorld};
pub use tcp::{start_tcp_flow, tcp_push, tcp_push_at, TcpFlow, MSS};
pub use udp::{start_udp_flow, UdpFlowState, UDP_PAYLOAD};
pub use web::{start_page_load, top10_us, PageState, SiteProfile, WanConfig};

use powifi_mac::{dispatch_mac, Frame, MacEvent, MacWorld, Queue, StationId};
use powifi_sim::{SimDuration, SimTime};

/// The transport layer's typed events. A [`NetWorld`]'s event enum absorbs
/// these via `From`; hot timers (UDP CBR ticks, TCP RTOs, page-fetch WAN
/// delays) post them with zero allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// One CBR datagram of a UDP flow; re-posts itself every `interval`
    /// until `stop`.
    UdpTick {
        /// Flow id.
        flow: FlowId,
        /// Sending station.
        src: StationId,
        /// Receiving station.
        dst: StationId,
        /// Inter-datagram interval.
        interval: SimDuration,
        /// Stop time (exclusive).
        stop: SimTime,
        /// Next datagram sequence number.
        seq: u64,
    },
    /// A TCP retransmission timeout; stale epochs are ignored.
    TcpRto {
        /// Flow id.
        flow: FlowId,
        /// Timer generation at arming time.
        epoch: u64,
    },
    /// DNS resolved: dispatch a page's first objects over its connections.
    PageStart {
        /// Index into `NetState::pages`.
        page: usize,
    },
    /// WAN round-trip done: push an object's bytes onto a connection.
    PageFetch {
        /// Index into `NetState::pages`.
        page: usize,
        /// Connection index within the page.
        conn: usize,
        /// Object size in bytes.
        bytes: u64,
    },
    /// Authorize `bytes` more on a TCP flow at a scheduled instant (a
    /// deferred [`tcp_push`]).
    TcpPush {
        /// Flow id.
        flow: FlowId,
        /// Bytes to authorize.
        bytes: u64,
    },
}

/// Route a [`NetEvent`] to its handler. Worlds call this from their
/// [`powifi_sim::Dispatch`] impl for the transport share of the composed
/// enum.
pub fn dispatch_net<W: NetWorld>(w: &mut W, q: &mut Queue<W>, ev: NetEvent) {
    match ev {
        NetEvent::UdpTick {
            flow,
            src,
            dst,
            interval,
            stop,
            seq,
        } => udp::udp_tick(w, q, flow, src, dst, interval, stop, seq),
        NetEvent::TcpRto { flow, epoch } => tcp::rto_fire(w, q, flow, epoch),
        NetEvent::PageStart { page } => web::page_start(w, q, page),
        NetEvent::PageFetch { page, conn, bytes } => web::page_fetch(w, q, page, conn, bytes),
        NetEvent::TcpPush { flow, bytes } => tcp::tcp_push(w, q, flow, bytes),
    }
}

/// Composed event enum for worlds that carry exactly the MAC plus
/// transport (no PoWiFi core) — test harnesses, the bench TCP world.
/// Larger worlds define their own enum absorbing [`MacEvent`] and
/// [`NetEvent`] the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackEvent {
    /// MAC-layer event.
    Mac(MacEvent),
    /// Transport-layer event.
    Net(NetEvent),
}

impl From<MacEvent> for StackEvent {
    fn from(ev: MacEvent) -> Self {
        StackEvent::Mac(ev)
    }
}

impl From<NetEvent> for StackEvent {
    fn from(ev: NetEvent) -> Self {
        StackEvent::Net(ev)
    }
}

/// Route a [`StackEvent`] for worlds whose event enum is exactly
/// [`StackEvent`].
pub fn dispatch_stack<W>(w: &mut W, q: &mut Queue<W>, ev: StackEvent)
where
    W: NetWorld + MacWorld<Ev = StackEvent>,
{
    match ev {
        StackEvent::Mac(m) => dispatch_mac(w, q, m),
        StackEvent::Net(n) => dispatch_net(w, q, n),
    }
}

/// Route a delivered MAC frame to its transport flow. Call this from the
/// world's `MacWorld::deliver`.
pub fn on_deliver<W: NetWorld>(w: &mut W, q: &mut Queue<W>, rx: StationId, frame: &Frame) {
    let id = frame.payload.flow;
    if id == 0 {
        return; // power packets, beacons, junk traffic
    }
    match w.net().flow(id) {
        Some(Flow::Udp(_)) => udp::on_udp_deliver(w, q.now(), frame),
        Some(Flow::Tcp(_)) => tcp::on_tcp_deliver(w, q, rx, frame),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_mac::{Mac, MacWorld, RateController};
    use powifi_rf::Bitrate;
    use powifi_sim::{Dispatch, SimDuration, SimRng, SimTime};

    struct W {
        mac: Mac,
        net: NetState,
    }
    impl Dispatch<StackEvent> for W {
        fn dispatch(&mut self, q: &mut Queue<Self>, ev: StackEvent) {
            dispatch_stack(self, q, ev);
        }
    }
    impl MacWorld for W {
        type Ev = StackEvent;
        fn mac(&self) -> &Mac {
            &self.mac
        }
        fn mac_mut(&mut self) -> &mut Mac {
            &mut self.mac
        }
        fn deliver(&mut self, q: &mut Queue<Self>, rx: powifi_mac::StationId, frame: &Frame) {
            on_deliver(self, q, rx, frame);
        }
    }
    impl NetWorld for W {
        fn net(&self) -> &NetState {
            &self.net
        }
        fn net_mut(&mut self) -> &mut NetState {
            &mut self.net
        }
    }

    fn world() -> (W, Queue<W>, powifi_mac::StationId, powifi_mac::StationId) {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(1)),
            net: NetState::new(),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let ap = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let client = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        (w, Queue::new(), ap, client)
    }

    #[test]
    fn udp_flow_delivers_at_offered_rate() {
        let (mut w, mut q, ap, client) = world();
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            ap,
            client,
            10.0,
            SimTime::ZERO,
            SimTime::from_secs(4),
        );
        q.run_until(&mut w, SimTime::from_secs(4));
        let Some(Flow::Udp(u)) = w.net.flow(flow) else {
            unreachable!()
        };
        let got = u.mean_mbps();
        assert!((9.0..=10.5).contains(&got), "throughput {got}");
        assert!(u.loss() < 0.01, "loss {}", u.loss());
    }

    #[test]
    fn udp_overload_caps_at_channel_capacity() {
        let (mut w, mut q, ap, client) = world();
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            ap,
            client,
            50.0,
            SimTime::ZERO,
            SimTime::from_secs(4),
        );
        q.run_until(&mut w, SimTime::from_secs(4));
        let Some(Flow::Udp(u)) = w.net.flow(flow) else {
            unreachable!()
        };
        let got = u.mean_mbps();
        // 54 Mbps g-only MAC tops out at ≈31 Mbps of UDP goodput
        // (28 µs DIFS + 67.5 µs mean backoff + 244 µs data + SIFS + ACK
        // per 1470-byte datagram → 31.2 Mbps theoretical).
        assert!((28.0..=33.0).contains(&got), "throughput {got}");
    }

    #[test]
    fn udp_flow_stops_at_stop_time() {
        let (mut w, mut q, ap, client) = world();
        let flow = start_udp_flow(
            &mut w,
            &mut q,
            ap,
            client,
            5.0,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        q.run_until(&mut w, SimTime::from_secs(3));
        let Some(Flow::Udp(u)) = w.net.flow(flow) else {
            unreachable!()
        };
        let bins = u.delivered.mbps_per_bin();
        // Bins past t=1 s are empty.
        assert!(bins.len() <= 3, "bins {}", bins.len());
    }

    #[test]
    fn tcp_bulk_flow_fills_the_pipe() {
        let (mut w, mut q, ap, client) = world();
        let flow = start_tcp_flow(&mut w, ap, client);
        // Seed inside the event loop so `now` is defined.
        tcp_push_at(&mut q, SimTime::ZERO, flow, 100_000_000);
        q.run_until(&mut w, SimTime::from_secs(5));
        let f = w.net.tcp(flow);
        let got = f.mean_mbps();
        // TCP over a clean 54 Mbps link: high teens to mid-20s Mbit/s.
        assert!((15.0..=28.0).contains(&got), "throughput {got}");
        assert!(f.srtt().is_some());
    }

    #[test]
    fn tcp_transfer_completes_and_reports() {
        let (mut w, mut q, ap, client) = world();
        let flow = start_tcp_flow(&mut w, ap, client);
        tcp_push_at(&mut q, SimTime::ZERO, flow, 500_000);
        q.run_until(&mut w, SimTime::from_secs(10));
        let f = w.net.tcp(flow);
        let done = f.completed_at.expect("transfer should finish");
        // 500 kB at ~20 Mbps ≈ 0.2 s (+slow start).
        assert!(done < SimTime::from_secs(2), "done at {done}");
    }

    #[test]
    fn tcp_recovers_from_lossy_link() {
        let (mut w, mut q, ap, client) = world();
        // Marginal SNR for 54 Mbps: substantial PER; fixed rate forces TCP
        // to wear the loss and recover via retransmission.
        w.mac.set_link_snr(ap, client, powifi_rf::Db(24.5));
        w.mac.set_link_snr(client, ap, powifi_rf::Db(35.0));
        let flow = start_tcp_flow(&mut w, ap, client);
        tcp_push_at(&mut q, SimTime::ZERO, flow, 2_000_000);
        q.run_until(&mut w, SimTime::from_secs(30));
        let f = w.net.tcp(flow);
        assert!(f.completed_at.is_some(), "did not complete");
    }

    #[test]
    fn two_tcp_flows_share_fairly() {
        let (mut w, mut q, ap, client) = world();
        let m = w.mac.medium_of(ap);
        let client2 = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let f1 = start_tcp_flow(&mut w, ap, client);
        let f2 = start_tcp_flow(&mut w, ap, client2);
        tcp_push_at(&mut q, SimTime::ZERO, f1, 100_000_000);
        tcp_push_at(&mut q, SimTime::ZERO, f2, 100_000_000);
        q.run_until(&mut w, SimTime::from_secs(6));
        let a = w.net.tcp(f1).mean_mbps();
        let b = w.net.tcp(f2).mean_mbps();
        let ratio = a / b;
        assert!((0.55..=1.8).contains(&ratio), "a {a} b {b}");
        assert!(a + b > 14.0, "combined {}", a + b);
    }

    #[test]
    fn page_load_completes_with_plausible_plt() {
        let (mut w, mut q, ap, client) = world();
        let site = top10_us()[6]; // google.com — the lightest page
        let page = start_page_load(
            &mut w,
            &mut q,
            ap,
            client,
            site,
            WanConfig::default(),
            SimTime::ZERO,
        );
        q.run_until(&mut w, SimTime::from_secs(30));
        let plt = w.net.pages[page].plt().expect("page should finish");
        assert!((0.1..=3.0).contains(&plt), "google PLT {plt}");
    }

    #[test]
    fn heavier_pages_take_longer() {
        let sites = top10_us();
        let mut plts = Vec::new();
        for idx in [6usize, 8] {
            // google (light) vs amazon (heavy)
            let (mut w, mut q, ap, client) = world();
            let page = start_page_load(
                &mut w,
                &mut q,
                ap,
                client,
                sites[idx],
                WanConfig::default(),
                SimTime::ZERO,
            );
            q.run_until(&mut w, SimTime::from_secs(60));
            plts.push(w.net.pages[page].plt().expect("finish"));
        }
        assert!(
            plts[1] > 1.5 * plts[0],
            "google {} amazon {}",
            plts[0],
            plts[1]
        );
    }

    #[test]
    fn top10_matches_paper_list() {
        let sites = top10_us();
        assert_eq!(sites.len(), 10);
        assert_eq!(sites[0].name, "reddit.com");
        assert_eq!(sites[9].name, "ebay.com");
        assert!(sites.iter().all(|s| s.connections == 6));
    }
}
