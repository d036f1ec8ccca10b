//! The composed simulation world: MAC + transport + power machinery.

use crate::background::{self, BurstSt};
use powifi_core::{dispatch_core, CoreEvent, PowerState, PowerWorld};
use powifi_mac::{
    dispatch_mac, Frame, Mac, MacEvent, MacWorld, MediumId, Queue, StationId, TxOutcome,
};
use powifi_net::{dispatch_net, on_deliver, NetEvent, NetState, NetWorld};
use powifi_rf::WifiChannel;
use powifi_sim::{Dispatch, SimDuration, SimRng};

/// The world used by every deployment scenario, example and bench.
pub struct SimWorld {
    /// The 802.11 substrate.
    pub mac: Mac,
    /// Transport flows and page loads.
    pub net: NetState,
    /// Injector, silent-slot, capper and time-division tables.
    pub power: PowerState,
    /// Background traffic sources, indexed by [`DeployEvent::Burst`].
    pub bursts: Vec<BurstSt>,
}

impl SimWorld {
    /// A world around `mac` with no flows, injectors or sources yet.
    pub fn new(mac: Mac) -> SimWorld {
        SimWorld {
            mac,
            net: NetState::new(),
            power: PowerState::default(),
            bursts: Vec::new(),
        }
    }
}

/// The full composed event enum: every layer's typed events, absorbed via
/// `From` so each layer can post its own events without knowing the world.
#[derive(Debug, Clone, Copy)]
pub enum WorldEvent {
    /// MAC-layer event.
    Mac(MacEvent),
    /// Transport-layer event.
    Net(NetEvent),
    /// Power-machinery event.
    Core(CoreEvent),
    /// Deployment-scenario event (background traffic).
    Deploy(DeployEvent),
}

// Every pending event sits in a timer-wheel entry, so its size multiplies
// the queue's peak backlog (as with `MacEvent`'s 16). The largest variant
// is a background frame: a `Frame` and its sender.
const _: () = assert!(std::mem::size_of::<WorldEvent>() <= 64);

/// Events of the deployment layer's background-traffic sources.
#[derive(Debug, Clone, Copy)]
pub enum DeployEvent {
    /// One ON/OFF burst decision of a background source. Indexes
    /// [`SimWorld::bursts`].
    Burst(usize),
    /// Enqueue one background data frame at its Poisson arrival time.
    BgFrame {
        /// The transmitting station.
        src: StationId,
        /// The frame to enqueue.
        frame: Frame,
    },
}

impl From<MacEvent> for WorldEvent {
    fn from(ev: MacEvent) -> Self {
        WorldEvent::Mac(ev)
    }
}

impl From<NetEvent> for WorldEvent {
    fn from(ev: NetEvent) -> Self {
        WorldEvent::Net(ev)
    }
}

impl From<CoreEvent> for WorldEvent {
    fn from(ev: CoreEvent) -> Self {
        WorldEvent::Core(ev)
    }
}

impl From<DeployEvent> for WorldEvent {
    fn from(ev: DeployEvent) -> Self {
        WorldEvent::Deploy(ev)
    }
}

impl Dispatch<WorldEvent> for SimWorld {
    fn dispatch(&mut self, q: &mut Queue<Self>, ev: WorldEvent) {
        match ev {
            WorldEvent::Mac(m) => dispatch_mac(self, q, m),
            WorldEvent::Net(n) => dispatch_net(self, q, n),
            WorldEvent::Core(c) => dispatch_core(self, q, c),
            WorldEvent::Deploy(d) => background::dispatch_deploy(self, q, d),
        }
    }
}

impl MacWorld for SimWorld {
    type Ev = WorldEvent;
    fn mac(&self) -> &Mac {
        &self.mac
    }
    fn mac_mut(&mut self) -> &mut Mac {
        &mut self.mac
    }
    fn deliver(&mut self, q: &mut Queue<Self>, rx: StationId, frame: &Frame) {
        on_deliver(self, q, rx, frame);
    }
    fn tx_complete(&mut self, _q: &mut Queue<Self>, _frame: &Frame, _outcome: TxOutcome) {}
}

impl NetWorld for SimWorld {
    fn net(&self) -> &NetState {
        &self.net
    }
    fn net_mut(&mut self) -> &mut NetState {
        &mut self.net
    }
}

impl PowerWorld for SimWorld {
    fn power(&self) -> &PowerState {
        &self.power
    }
    fn power_mut(&mut self) -> &mut PowerState {
        &mut self.power
    }
}

/// Create a world with the three PoWiFi channels (1, 6, 11) as mediums.
/// Returns the world, the event queue and the `(channel, medium)` pairs.
pub fn three_channel_world(
    seed: u64,
    monitor_bin: SimDuration,
) -> (SimWorld, Queue<SimWorld>, Vec<(WifiChannel, MediumId)>) {
    #[expect(clippy::disallowed_methods, reason = "R10: a run's root stream")]
    let rng = SimRng::from_seed(seed);
    let mut w = SimWorld::new(Mac::new(rng.derive("mac")));
    let channels: Vec<_> = WifiChannel::POWER_SET
        .iter()
        .map(|&ch| (ch, w.mac.add_medium(monitor_bin)))
        .collect();
    let mut q = Queue::new();
    if powifi_sim::conformance::enabled() {
        // Checked runs (tests, `--check` sweeps, the fuzz driver) get a
        // periodic whole-world airtime audit for free. The audit only reads
        // world state and writes the thread-local sink, so installing it
        // never changes simulation results.
        powifi_mac::conformance::install_audit(&mut w, &mut q, SimDuration::from_millis(100));
    }
    (w, q, channels)
}
