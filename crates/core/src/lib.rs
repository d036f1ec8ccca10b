//! # powifi-core
//!
//! The paper's primary contribution: the PoWiFi router-side power-delivery
//! system (§3.2). A user-space injector streams 1500-byte UDP broadcast
//! "power packets" at 54 Mbps on channels 1/6/11, gated per packet by the
//! `IP_Power` queue-depth check so client traffic always wins, keeping the
//! *cumulative* channel occupancy near (or above) 100 % with minimal impact
//! on Wi-Fi performance.
//!
//! Also included: the evaluation schemes of §4.1 (Baseline / BlindUDP /
//! NoQueue / PoWiFi / EqualShare), the §6 future-work occupancy capper, the
//! §8c multi-router modes, and the §8d power-DoS attacker model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod capper;
pub mod ckpt;
pub mod config;
pub mod injector;
pub mod multi_router;
pub mod pdos;
pub mod router;
pub mod silent_slot;
pub mod stack;

pub use capper::{spawn_capper, CapperConfig};
pub use config::{JitterModel, PowerTrafficConfig, Scheme};
pub use injector::{record_injector_progress, spawn_injector, InjectorCtl, InjectorHandle};
pub use multi_router::{install_fleet, FleetMode};
pub use pdos::{spawn_attacker, AttackConfig};
pub use router::{Router, RouterConfig, RouterIface};
pub use silent_slot::{spawn_silent_injector, SilentSlotConfig};
pub use stack::{ip_power_check, IpPowerVerdict, PowerMacShim, PowerSocket};

use powifi_mac::{dispatch_mac, Mac, MacEvent, MacWorld, Queue, StationId};
use powifi_sim::Dispatch;

/// The power machinery's typed events. A world hosting PoWiFi routers
/// absorbs these via `From` on its event enum. Each periodic variant
/// carries the index of its entry in the world's [`PowerState`] tables,
/// filled once at spawn, so every event is a plain `Copy` value and the
/// hot injector cadence (~10 kHz per interface) posts with zero per-event
/// allocation.
#[derive(Debug, Clone, Copy)]
pub enum CoreEvent {
    /// One injector tick: `IP_Power`-gated power packet, then re-post.
    /// Indexes the injector table.
    InjectorTick(usize),
    /// One silent-slot poll, then re-post. Indexes the silent-slot table.
    SilentTick(usize),
    /// One power-DoS injection attempt by attacker station `sta`.
    AttackTick {
        /// The attacker's station.
        sta: StationId,
        /// Attack parameters.
        cfg: AttackConfig,
    },
    /// One occupancy-capper control step, then re-post. Indexes the capper
    /// table.
    CapperTick(usize),
    /// One time-division slot change of a router fleet, then re-post.
    /// Indexes the fleet table.
    TdmRotate(usize),
}

/// Per-tick state of the power machinery: one table per periodic
/// [`CoreEvent`] kind, indexed by the id its event carries. The spawn
/// functions fill it; the world owns it, the way it owns the MAC.
#[derive(Default)]
pub struct PowerState {
    pub(crate) injectors: Vec<injector::InjectorSt>,
    pub(crate) silent: Vec<silent_slot::SilentSt>,
    pub(crate) cappers: Vec<capper::CapperSt>,
    pub(crate) fleets: Vec<multi_router::TdmSt>,
}

impl PowerState {
    /// Injectors spawned into this world.
    pub fn injector_count(&self) -> usize {
        self.injectors.len()
    }
}

/// World trait for simulations that host the power machinery. The world's
/// event enum must absorb [`CoreEvent`] on top of the MAC's events.
pub trait PowerWorld: MacWorld<Ev: From<CoreEvent>> {
    /// Immutable power-machinery state.
    fn power(&self) -> &PowerState;
    /// Mutable power-machinery state.
    fn power_mut(&mut self) -> &mut PowerState;
}

/// Route a [`CoreEvent`] to its handler. Worlds call this from their
/// [`powifi_sim::Dispatch`] impl for the power-machinery share of the
/// composed enum. Inlined into the world's dispatch (the injector tick is
/// half of a home day's events) wherever the codegen units fall.
#[inline]
pub fn dispatch_core<W: PowerWorld>(w: &mut W, q: &mut Queue<W>, ev: CoreEvent) {
    match ev {
        CoreEvent::InjectorTick(id) => injector::injector_tick(w, q, id),
        CoreEvent::SilentTick(id) => silent_slot::silent_tick(w, q, id),
        CoreEvent::AttackTick { sta, cfg } => pdos::attack_tick(w, q, sta, cfg),
        CoreEvent::CapperTick(id) => capper::capper_tick(w, q, id),
        CoreEvent::TdmRotate(id) => multi_router::tdm_rotate(w, q, id),
    }
}

/// Composed event enum of [`CoreStack`]. Larger worlds define their own
/// enum absorbing [`MacEvent`] and [`CoreEvent`] the same way.
#[derive(Debug, Clone, Copy)]
pub enum CoreStackEvent {
    /// MAC-layer event.
    Mac(MacEvent),
    /// Power-machinery event.
    Core(CoreEvent),
}

impl From<MacEvent> for CoreStackEvent {
    fn from(ev: MacEvent) -> Self {
        CoreStackEvent::Mac(ev)
    }
}

impl From<CoreEvent> for CoreStackEvent {
    fn from(ev: CoreEvent) -> Self {
        CoreStackEvent::Core(ev)
    }
}

/// A world of exactly the MAC plus the power machinery, no transport: the
/// core test harnesses, the golden-trace corpus and the fuzz driver.
pub struct CoreStack {
    /// The 802.11 substrate.
    pub mac: Mac,
    /// Injector, silent-slot, capper and time-division tables.
    pub power: PowerState,
}

impl CoreStack {
    /// A world around `mac` with empty power tables.
    pub fn new(mac: Mac) -> CoreStack {
        CoreStack {
            mac,
            power: PowerState::default(),
        }
    }
}

impl Dispatch<CoreStackEvent> for CoreStack {
    fn dispatch(&mut self, q: &mut Queue<Self>, ev: CoreStackEvent) {
        match ev {
            CoreStackEvent::Mac(m) => dispatch_mac(self, q, m),
            CoreStackEvent::Core(c) => dispatch_core(self, q, c),
        }
    }
}

impl MacWorld for CoreStack {
    type Ev = CoreStackEvent;
    fn mac(&self) -> &Mac {
        &self.mac
    }
    fn mac_mut(&mut self) -> &mut Mac {
        &mut self.mac
    }
}

impl PowerWorld for CoreStack {
    fn power(&self) -> &PowerState {
        &self.power
    }
    fn power_mut(&mut self) -> &mut PowerState {
        &mut self.power
    }
}
