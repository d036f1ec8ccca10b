//! Transport-layer state and the world-trait extension.
//!
//! The MAC calls the world's `deliver`/`tx_complete`; a world that carries
//! transport flows implements [`NetWorld`] and forwards those upcalls to
//! [`on_deliver`](crate::on_deliver) so UDP sinks, TCP machines and page
//! loads make progress.

use crate::tcp::TcpFlow;
use crate::udp::UdpFlowState;
use crate::web::PageState;
use crate::NetEvent;
use powifi_mac::MacWorld;

/// Flow identifier carried in every data frame's payload tag. Ids start at
/// 1 (0 means "no flow"), and id `n` is slot `n - 1` of the flow table —
/// flows are never removed, so the mapping is stable by construction.
pub type FlowId = u32;

/// A transport flow.
pub enum Flow {
    /// UDP constant-bit-rate flow (iperf-style).
    Udp(UdpFlowState),
    /// TCP Reno bulk flow (boxed: the TCP state block is much larger than
    /// the UDP one).
    Tcp(Box<TcpFlow>),
}

/// All transport state in a simulation world.
///
/// Flows live in a dense index-keyed vector ([`FlowId`] = index + 1), so
/// the per-frame flow lookup on the delivery path is one bounds-checked
/// array access, and iteration order is ascending id by construction.
#[derive(Default)]
pub struct NetState {
    pub(crate) flows: Vec<Flow>,
    /// In-progress and completed page loads.
    pub pages: Vec<PageState>,
}

impl NetState {
    /// Fresh state.
    pub fn new() -> NetState {
        NetState::default()
    }

    /// Register a flow: `make` receives the newly allocated id and returns
    /// the flow to store under it.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    pub fn insert_flow(&mut self, make: impl FnOnce(FlowId) -> Flow) -> FlowId {
        let id = self.flows.len() as FlowId + 1;
        self.flows.push(make(id));
        id
    }

    /// Look up a flow by id.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        id.checked_sub(1).and_then(|i| self.flows.get(i as usize))
    }

    /// Look up a flow by id, mutably.
    pub fn flow_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        id.checked_sub(1)
            .and_then(|i| self.flows.get_mut(i as usize))
    }

    /// Iterate every flow in ascending id order.
    #[expect(clippy::cast_possible_truncation, reason = "R5: ids are u32")]
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &Flow)> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (i as FlowId + 1, f))
    }

    /// Number of registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Fetch a TCP flow mutably; panics if the id is not TCP.
    pub fn tcp_mut(&mut self, id: FlowId) -> &mut TcpFlow {
        match self.flow_mut(id) {
            Some(Flow::Tcp(t)) => t,
            _ => panic!("flow {id} is not TCP"),
        }
    }

    /// Fetch a TCP flow; panics if the id is not TCP.
    pub fn tcp(&self, id: FlowId) -> &TcpFlow {
        match self.flow(id) {
            Some(Flow::Tcp(t)) => t,
            _ => panic!("flow {id} is not TCP"),
        }
    }
}

/// World trait for simulations that carry transport traffic. The world's
/// event enum must absorb [`NetEvent`] on top of the MAC's events.
pub trait NetWorld: MacWorld<Ev: From<NetEvent>> {
    /// Immutable transport state.
    fn net(&self) -> &NetState;
    /// Mutable transport state.
    fn net_mut(&mut self) -> &mut NetState;
}
