//! Property tests of the TCP machine: reliable, exactly-once, in-order
//! delivery under randomized loss, and conservation of the byte budget.

use powifi_mac::{Mac, MacWorld, Queue, RateController, StationId};
use powifi_net::{
    dispatch_stack, on_deliver, start_tcp_flow, tcp_push_at, Flow, NetState, NetWorld, StackEvent,
    MSS,
};
use powifi_rf::Bitrate;
use powifi_sim::{Dispatch, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

struct W {
    mac: Mac,
    net: NetState,
    /// (flow, seq) of every data segment delivered to a receiver, in order.
    delivered_seqs: Vec<(u32, u64)>,
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
    fn deliver(&mut self, q: &mut Queue<Self>, rx: StationId, frame: &powifi_mac::Frame) {
        if frame.payload.bytes > 0 && frame.payload.flow != 0 {
            self.delivered_seqs
                .push((frame.payload.flow, frame.payload.seq));
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any corruption level the MAC can survive, the flow eventually
    /// completes with the receiver's cumulative sequence exactly equal to
    /// the byte budget — nothing lost, nothing duplicated into the stream.
    #[test]
    fn tcp_is_reliable_and_exact(
        seed in 0u64..1000,
        kilobytes in 50u64..500,
        corruption in 0.0f64..0.35,
    ) {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(seed)),
            net: NetState::new(),
            delivered_seqs: Vec::new(),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let ap = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let client = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        w.mac.set_corruption(m, corruption);
        let mut q = Queue::<W>::new();
        let flow = start_tcp_flow(&mut w, ap, client);
        let bytes = kilobytes * 1000;
        tcp_push_at(&mut q, SimTime::ZERO, flow, bytes);
        q.run_until(&mut w, SimTime::from_secs(120));
        let f = w.net.tcp(flow);
        let budget_segments = bytes.div_ceil(MSS as u64);
        prop_assert!(
            f.completed_at.is_some(),
            "flow did not complete: {kilobytes} kB at corruption {corruption}"
        );
        // Every segment 1..=budget delivered at least once; the in-order
        // stream never references a segment beyond the budget.
        let mut seen = vec![false; budget_segments as usize + 1];
        for &(fl, seq) in &w.delivered_seqs {
            prop_assert_eq!(fl, flow);
            prop_assert!(seq >= 1 && seq <= budget_segments, "seq {} out of range", seq);
            seen[seq as usize] = true;
        }
        prop_assert!(seen[1..].iter().all(|&s| s), "missing segments");
    }

    /// Goodput accounting never exceeds the physical channel or the budget.
    #[test]
    fn goodput_is_bounded(seed in 0u64..1000, kilobytes in 50u64..300) {
        let mut w = W {
            mac: Mac::new(SimRng::from_seed(seed)),
            net: NetState::new(),
            delivered_seqs: Vec::new(),
        };
        let m = w.mac.add_medium(SimDuration::from_secs(1));
        let ap = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let client = w.mac.add_station(m, RateController::fixed(Bitrate::G54));
        let mut q = Queue::<W>::new();
        let flow = start_tcp_flow(&mut w, ap, client);
        let bytes = kilobytes * 1000;
        tcp_push_at(&mut q, SimTime::ZERO, flow, bytes);
        q.run_until(&mut w, SimTime::from_secs(60));
        let Some(Flow::Tcp(f)) = w.net.flow(flow) else { unreachable!() };
        let total: u64 = f.delivered.total_bytes();
        let budget_segments = bytes.div_ceil(MSS as u64);
        prop_assert!(total <= budget_segments * MSS as u64, "delivered {total} > budget");
        for bin in f.delivered.mbps_per_bin() {
            prop_assert!(bin < 32.0, "bin {bin} Mbps exceeds channel capacity");
        }
    }
}
