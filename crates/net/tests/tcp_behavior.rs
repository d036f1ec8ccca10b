//! Behavioural tests of the TCP machine under controlled adversity:
//! timeouts, fast retransmit, fading links, and competing power traffic.

use powifi_mac::{start_source, Frame, Mac, MacWorld, Queue, RateController, Source, StationId};
use powifi_net::{
    dispatch_stack, on_deliver, start_tcp_flow, tcp_push_at, NetState, NetWorld, StackEvent,
};
use powifi_rf::{Bitrate, BlockFader, Db};
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
    fn deliver(&mut self, q: &mut Queue<Self>, rx: StationId, frame: &Frame) {
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

fn world(seed: u64) -> (W, Queue<W>, StationId, StationId) {
    let mut w = W {
        mac: Mac::new(SimRng::from_seed(seed)),
        net: NetState::new(),
    };
    let m = w.mac.add_medium(SimDuration::from_secs(1));
    let ap = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
    let client = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
    (w, Queue::new(), ap, client)
}

/// A totally dead link forces RTO-driven retransmission; reviving it lets
/// the flow finish. Exercises exponential backoff and recovery from repeated
/// timeouts.
#[test]
fn rto_backs_off_and_recovers_when_link_heals() {
    let (mut w, mut q, ap, client) = world(1);
    // Dead: 54 Mbps cannot decode at 0 dB SNR (frames exhaust MAC retries,
    // then TCP's RTO fires repeatedly).
    w.mac.set_link_snr(ap, client, Db(0.0));
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, 300_000);
    // Heal the link after 5 s.
    q.run_until(&mut w, SimTime::from_secs(5));
    w.mac.set_link_snr(ap, client, Db(40.0));
    q.run_until(&mut w, SimTime::from_secs(30));
    let f = w.net.tcp(flow);
    assert!(
        f.timeouts >= 2,
        "expected repeated RTOs, got {}",
        f.timeouts
    );
    assert!(f.completed_at.is_some(), "flow never completed after heal");
    assert!(
        f.completed_at.unwrap() > SimTime::from_secs(5),
        "cannot have finished while dead"
    );
}

/// Moderate PHY corruption is fully hidden by the MAC's 8 transmission
/// attempts: TCP sees a slower channel, not loss. This layering is exactly
/// why Wi-Fi TCP behaves well despite 5–10 % frame error rates.
#[test]
fn mac_retries_hide_moderate_loss_from_tcp() {
    let (mut w, mut q, ap, client) = world(2);
    let m = w.mac.medium_of(ap);
    w.mac.set_corruption(m, 0.08);
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, 5_000_000);
    q.run_until(&mut w, SimTime::from_secs(20));
    let f = w.net.tcp(flow);
    assert!(
        f.completed_at.is_some(),
        "5 MB should finish in 20 s at 8 % FER"
    );
    assert_eq!(f.retransmits, 0, "MAC should absorb 8 % FER invisibly");
    assert!(
        w.mac.station(ap).retransmissions > 50,
        "MAC retries expected"
    );
}

/// Severe corruption finally punches through the MAC retry budget and TCP's
/// own recovery takes over — and still completes the transfer.
#[test]
fn tcp_recovers_when_mac_retries_are_exhausted() {
    let (mut w, mut q, ap, client) = world(2);
    let m = w.mac.medium_of(ap);
    w.mac.set_corruption(m, 0.45);
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, 2_000_000);
    q.run_until(&mut w, SimTime::from_secs(40));
    let f = w.net.tcp(flow);
    assert!(
        f.completed_at.is_some(),
        "2 MB should survive 45 % FER in 40 s"
    );
    assert!(
        f.retransmits > 0,
        "0.45^8 per-frame drop rate must surface to TCP"
    );
}

/// Throughput degrades gracefully (not catastrophically) as loss rises.
#[test]
fn goodput_degrades_monotonically_with_loss() {
    let mut prev = f64::INFINITY;
    for loss in [0.0, 0.05, 0.15] {
        let (mut w, mut q, ap, client) = world(3);
        let m = w.mac.medium_of(ap);
        w.mac.set_corruption(m, loss);
        let flow = start_tcp_flow(&mut w, ap, client);
        tcp_push_at(&mut q, SimTime::ZERO, flow, u64::MAX / 4);
        q.run_until(&mut w, SimTime::from_secs(8));
        let got = w.net.tcp(flow).mean_mbps();
        assert!(got < prev, "no degradation at loss {loss}: {got} vs {prev}");
        assert!(got > 0.3, "collapsed at loss {loss}: {got}");
        prev = got;
    }
}

/// TCP over a fading link survives deep fades via retransmission and keeps
/// long-run goodput within the channel's envelope.
#[test]
fn tcp_rides_out_block_fading() {
    let (mut w, mut q, ap, client) = world(4);
    // Minstrel downshifts through fades the way a real sender would.
    w.mac
        .set_rate_controller(ap, RateController::minstrel(Bitrate::G54));
    w.mac.set_link_snr(ap, client, Db(27.0)); // 2 dB margin at 54 Mbps
    w.mac.set_link_fader(
        ap,
        client,
        BlockFader::indoor_obstructed(SimRng::from_seed(9)),
    );
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, 3_000_000);
    q.run_until(&mut w, SimTime::from_secs(90));
    let f = w.net.tcp(flow);
    assert!(
        f.completed_at.is_some(),
        "3 MB over fading link, 90 s budget"
    );
    // Deep fade blocks (~120 ms) outlast the MAC retry budget, so some loss
    // must surface to TCP.
    assert!(
        f.retransmits > 0,
        "a fading link with 2 dB margin must lose frames"
    );
}

/// Two flows from the same sender share its cwnd-driven queue without
/// deadlock, and both finish.
#[test]
fn concurrent_flows_from_one_station_both_finish() {
    let (mut w, mut q, ap, client) = world(5);
    let m = w.mac.medium_of(ap);
    let client2 = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
    let f1 = start_tcp_flow(&mut w, ap, client);
    let f2 = start_tcp_flow(&mut w, ap, client2);
    tcp_push_at(&mut q, SimTime::ZERO, f1, 3_000_000);
    tcp_push_at(&mut q, SimTime::ZERO, f2, 3_000_000);
    q.run_until(&mut w, SimTime::from_secs(15));
    assert!(w.net.tcp(f1).completed_at.is_some());
    assert!(w.net.tcp(f2).completed_at.is_some());
}

/// Pushing more data onto a completed flow restarts it cleanly (persistent
/// connections — the PLT model depends on this).
#[test]
fn flow_reuse_after_completion() {
    let (mut w, mut q, ap, client) = world(6);
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, 100_000);
    q.run_until(&mut w, SimTime::from_secs(3));
    assert!(
        w.net.tcp(flow).completed_at.is_some(),
        "first object unfinished"
    );
    tcp_push_at(&mut q, SimTime::from_secs(3), flow, 200_000);
    q.run_until(&mut w, SimTime::from_secs(10));
    let f = w.net.tcp(flow);
    let done = f.completed_at.expect("second object unfinished");
    assert!(done > SimTime::from_secs(3));
}

/// RTT estimates reflect queueing: a congested channel inflates srtt.
#[test]
fn srtt_tracks_congestion() {
    // Clean world.
    let (mut w, mut q, ap, client) = world(7);
    let flow = start_tcp_flow(&mut w, ap, client);
    tcp_push_at(&mut q, SimTime::ZERO, flow, u64::MAX / 4);
    q.run_until(&mut w, SimTime::from_secs(4));
    let clean_rtt = w.net.tcp(flow).srtt().unwrap();

    // Same world shape plus a saturating competitor.
    let (mut w2, mut q2, ap2, client2) = world(7);
    let m = w2.mac.medium_of(ap2);
    let hog = w2.mac.add_station(m, RateController::fixed(Bitrate::G12));
    let src = Source {
        frame: Frame::power(hog, 1500, Bitrate::G12),
        period: SimDuration::from_millis(1),
        below: 5,
    };
    start_source(&mut w2, &mut q2, SimTime::ZERO, src);
    let flow2 = start_tcp_flow(&mut w2, ap2, client2);
    tcp_push_at(&mut q2, SimTime::ZERO, flow2, u64::MAX / 4);
    q2.run_until(&mut w2, SimTime::from_secs(4));
    let busy_rtt = w2.net.tcp(flow2).srtt().unwrap();
    assert!(
        busy_rtt > 2.0 * clean_rtt,
        "clean {clean_rtt} vs busy {busy_rtt}"
    );
}
