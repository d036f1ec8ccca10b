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
pub use injector::{
    record_injector_progress, spawn_injector, InjectorCtl, InjectorHandle, InjectorSt,
};
pub use multi_router::{install_fleet, FleetMode};
pub use pdos::{spawn_attacker, AttackConfig};
pub use router::{Router, RouterConfig, RouterIface};
pub use silent_slot::{spawn_silent_injector, SilentSlotConfig};
pub use stack::{ip_power_check, IpPowerVerdict, PowerMacShim, PowerSocket};

use powifi_mac::{dispatch_mac, MacEvent, MacWorld, Queue, StationId};
use std::cell::RefCell;
use std::rc::Rc;

/// The power machinery's typed events. A world hosting PoWiFi routers
/// absorbs these via `From` on its event enum; the per-tick state each
/// variant needs is either `Copy` or a shared block allocated once at
/// spawn, so the hot injector cadence (~10 kHz per interface) posts with
/// zero per-event allocation.
#[derive(Clone)]
pub enum CoreEvent {
    /// One injector tick: `IP_Power`-gated power packet, then re-post.
    /// Carries the injector's spawn-time state block (config, RNG stream,
    /// control handle).
    InjectorTick(Rc<RefCell<InjectorSt>>),
    /// One silent-slot poll on `iface`.
    SilentTick {
        /// Interface the silent-slot policy transmits on.
        iface: StationId,
        /// Policy parameters.
        cfg: SilentSlotConfig,
        /// Shared control/statistics block.
        ctl: InjectorHandle,
    },
    /// One power-DoS injection attempt by attacker station `sta`.
    AttackTick {
        /// The attacker's station.
        sta: StationId,
        /// Attack parameters.
        cfg: AttackConfig,
    },
    /// One occupancy-capper control step, then re-post. Carries the
    /// capper's spawn-time state block.
    CapperTick(Rc<RefCell<capper::CapperSt>>),
    /// One time-division slot change of a router fleet, then re-post.
    /// Carries the fleet's rotation block.
    TdmRotate(Rc<RefCell<multi_router::TdmSt>>),
}

/// Route a [`CoreEvent`] to its handler. Worlds call this from their
/// [`powifi_sim::Dispatch`] impl for the power-machinery share of the
/// composed enum. Inlined into the world's dispatch (the injector tick is
/// half of a home day's events) wherever the codegen units fall.
#[inline]
pub fn dispatch_core<W>(w: &mut W, q: &mut Queue<W>, ev: CoreEvent)
where
    W: MacWorld,
    W::Ev: From<CoreEvent>,
{
    match ev {
        CoreEvent::InjectorTick(st) => injector::injector_tick(w, q, st),
        CoreEvent::SilentTick { iface, cfg, ctl } => {
            silent_slot::silent_tick(w, q, iface, cfg, ctl)
        }
        CoreEvent::AttackTick { sta, cfg } => pdos::attack_tick(w, q, sta, cfg),
        CoreEvent::CapperTick(st) => capper::capper_tick(w, q, st),
        CoreEvent::TdmRotate(st) => multi_router::tdm_rotate(q, st),
    }
}

/// Composed event enum for worlds that carry exactly the MAC plus the
/// power machinery (no transport) — the core test harnesses and power-only
/// benches. Larger worlds define their own enum absorbing [`MacEvent`] and
/// [`CoreEvent`] the same way.
#[derive(Clone)]
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

/// Route a [`CoreStackEvent`] for worlds whose event enum is exactly
/// [`CoreStackEvent`].
pub fn dispatch_core_stack<W>(w: &mut W, q: &mut Queue<W>, ev: CoreStackEvent)
where
    W: MacWorld<Ev = CoreStackEvent>,
{
    match ev {
        CoreStackEvent::Mac(m) => dispatch_mac(w, q, m),
        CoreStackEvent::Core(c) => dispatch_core(w, q, c),
    }
}
