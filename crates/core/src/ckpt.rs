//! Power-machinery checkpoint state.
//!
//! The injector's spawn-time block ([`InjectorSt`]) lives behind an `Rc`
//! carried inside its own pending [`crate::CoreEvent::InjectorTick`] event,
//! so restore works by *re-linking*: the deployment layer rebuilds the
//! world (which spawns fresh injectors with fresh `Rc` blocks), harvests
//! those blocks from the fresh queue keyed by interface, and overlays the
//! dynamic state — RNG stream position and the shared control block — via
//! [`restore_injector`].

use crate::injector::InjectorSt;
use powifi_mac::ckpt::{rng_from, rng_v};
use powifi_mac::StationId;
use powifi_sim::ckpt::{CkptError, Value};

/// The interface an injector block is bound to (the re-link key).
pub fn injector_iface(st: &InjectorSt) -> StationId {
    st.iface
}

/// Serialize an injector's dynamic state (RNG position plus the shared
/// control block). The traffic config is rebuilt from the experiment spec.
pub fn save_injector(st: &InjectorSt) -> Value {
    let ctl = st.ctl.borrow();
    Value::map()
        .field("iface", Value::U64(st.iface.0 as u64))
        .field("rng", rng_v(&st.rng))
        .field("sent", Value::U64(ctl.sent))
        .field("dropped", Value::U64(ctl.dropped))
        .field("queue_full", Value::U64(ctl.queue_full))
        .field("delay_scale", Value::f64(ctl.delay_scale))
        .field("enabled", Value::Bool(ctl.enabled))
        .field("gate_open", Value::opt(ctl.gate_open, Value::Bool))
        .build()
}

/// Overlay a [`save_injector`] tree onto a freshly spawned injector block.
/// The block's interface must match the tree's `iface` key.
pub fn restore_injector(st: &mut InjectorSt, v: &Value) -> Result<(), CkptError> {
    let iface = v.u64_field("iface")? as u32;
    if iface != st.iface.0 {
        return Err(CkptError::Field {
            path: "iface".into(),
            message: format!(
                "checkpoint is for iface {iface}, rebuilt injector is on {}",
                st.iface.0
            ),
        });
    }
    st.rng = rng_from(v.get("rng")?, "rng")?;
    let mut ctl = st.ctl.borrow_mut();
    ctl.sent = v.u64_field("sent")?;
    ctl.dropped = v.u64_field("dropped")?;
    ctl.queue_full = v.u64_field("queue_full")?;
    ctl.delay_scale = v.f64_field("delay_scale")?;
    ctl.enabled = v.bool_field("enabled")?;
    ctl.gate_open = match v.get("gate_open")?.as_opt() {
        None => None,
        Some(g) => Some(g.as_bool("gate_open")?),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JitterModel, PowerTrafficConfig};
    use crate::injector::InjectorCtl;
    use powifi_rf::Bitrate;
    use powifi_sim::{SimDuration, SimRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn block(iface: u32) -> InjectorSt {
        InjectorSt {
            iface: StationId(iface),
            cfg: PowerTrafficConfig {
                payload_bytes: 1500,
                bitrate: Bitrate::G54,
                inter_packet_delay: SimDuration::from_micros(100),
                qdepth_threshold: Some(5),
                jitter: JitterModel::none(),
            },
            rng: SimRng::from_seed(3),
            ctl: Rc::new(RefCell::new(InjectorCtl::default())),
        }
    }

    #[test]
    fn injector_state_roundtrips() {
        let mut a = block(4);
        a.rng.f64();
        {
            let mut c = a.ctl.borrow_mut();
            c.sent = 120;
            c.dropped = 37;
            c.delay_scale = 2.5;
            c.gate_open = Some(false);
        }
        let v = save_injector(&a);
        let mut b = block(4);
        restore_injector(&mut b, &v).unwrap();
        assert_eq!(
            powifi_sim::ckpt::state_hash(&v),
            powifi_sim::ckpt::state_hash(&save_injector(&b))
        );
        // The restored RNG continues the same draw sequence.
        assert_eq!(a.rng.f64().to_bits(), b.rng.f64().to_bits());
    }

    #[test]
    fn iface_mismatch_is_refused() {
        let a = block(4);
        let mut b = block(5);
        assert!(restore_injector(&mut b, &save_injector(&a)).is_err());
    }
}
