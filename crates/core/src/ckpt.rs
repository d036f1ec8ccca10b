//! Power-machinery checkpoint state.
//!
//! The injector's spawn-time block ([`InjectorSt`]) lives behind an `Rc`
//! carried inside its own pending [`crate::CoreEvent::InjectorTick`] event,
//! so restore works by *re-linking*: the deployment layer rebuilds the
//! world (which spawns fresh injectors with fresh `Rc` blocks), harvests
//! those blocks from the fresh queue keyed by interface, and overlays the
//! dynamic state — RNG stream position and the shared control block — via
//! [`restore_injector`].
//!
//! The [`Scheme`] under test is part of every office checkpoint's spec.

use crate::injector::InjectorSt;
use crate::Scheme;
use powifi_mac::StationId;
use powifi_rf::Bitrate;
use powifi_sim::ckpt::{Ckpt, CkptError, Value};

/// A string: `baseline`, `blind_udp`, `no_queue`, `powifi`, or
/// `equal_share:<rate>`.
impl Ckpt for Scheme {
    fn to_ckpt(&self) -> Value {
        match self {
            Scheme::Baseline => Value::str("baseline"),
            Scheme::BlindUdp => Value::str("blind_udp"),
            Scheme::NoQueue => Value::str("no_queue"),
            Scheme::PoWiFi => Value::str("powifi"),
            Scheme::EqualShare(r) => Value::Str(format!("equal_share:{}", r.ckpt_name())),
        }
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        Ok(match v.as_str(path)? {
            "baseline" => Scheme::Baseline,
            "blind_udp" => Scheme::BlindUdp,
            "no_queue" => Scheme::NoQueue,
            "powifi" => Scheme::PoWiFi,
            other => match other.strip_prefix("equal_share:") {
                Some(rate) => Scheme::EqualShare(Bitrate::from_ckpt(&Value::str(rate), path)?),
                None => return Err(CkptError::field(path, format!("unknown scheme {other:?}"))),
            },
        })
    }
}

/// The interface an injector block is bound to (the re-link key).
pub fn injector_iface(st: &InjectorSt) -> StationId {
    st.iface
}

/// Serialize an injector's dynamic state (RNG position plus the shared
/// control block). The traffic config is rebuilt from the experiment spec.
pub fn save_injector(st: &InjectorSt) -> Value {
    let ctl = st.ctl.borrow();
    Value::map()
        .put("iface", &st.iface)
        .put("rng", &st.rng)
        .put("sent", &ctl.sent)
        .put("dropped", &ctl.dropped)
        .put("queue_full", &ctl.queue_full)
        .put("delay_scale", &ctl.delay_scale)
        .put("enabled", &ctl.enabled)
        .put("gate_open", &ctl.gate_open)
        .build()
}

/// Overlay a [`save_injector`] tree onto a freshly spawned injector block.
/// The block's interface must match the tree's `iface` key.
pub fn restore_injector(st: &mut InjectorSt, v: &Value) -> Result<(), CkptError> {
    let iface: StationId = v.field("iface")?;
    if iface != st.iface {
        return Err(CkptError::field(
            "iface",
            format!(
                "checkpoint is for iface {}, rebuilt injector is on {}",
                iface.0, st.iface.0
            ),
        ));
    }
    st.rng = v.field("rng")?;
    let mut ctl = st.ctl.borrow_mut();
    ctl.sent = v.field("sent")?;
    ctl.dropped = v.field("dropped")?;
    ctl.queue_full = v.field("queue_full")?;
    ctl.delay_scale = v.field("delay_scale")?;
    ctl.enabled = v.field("enabled")?;
    ctl.gate_open = v.field("gate_open")?;
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
