//! Power-machinery checkpoint state.
//!
//! An injector's per-tick state is an entry of the world's [`PowerState`]
//! injector table, which its pending [`crate::CoreEvent::InjectorTick`]
//! indexes. Restore is rebuild-and-overlay: the deployment layer rebuilds
//! the world (which refills the table, config included), and
//! [`restore_injector`] overlays the dynamic state that [`save_injector`]
//! wrote — RNG stream position and the shared control block — onto the
//! rebuilt entry on the same interface.
//!
//! The [`Scheme`] under test is part of every office checkpoint's spec.

use crate::{PowerState, Scheme};
use powifi_mac::StationId;
use powifi_rf::Bitrate;
use powifi_sim::ckpt::{Ckpt, CkptError, Value, ValueExt};

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

/// Serialize injector `id`'s dynamic state (RNG position plus the shared
/// control block). The traffic config is rebuilt from the experiment spec.
pub fn save_injector(power: &PowerState, id: usize) -> Value {
    let st = &power.injectors[id];
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

/// Overlay a [`save_injector`] tree onto the rebuilt injector on the tree's
/// `iface`, and return that injector's id. A tree for an interface without
/// an injector is refused.
pub fn restore_injector(power: &mut PowerState, v: &Value) -> Result<usize, CkptError> {
    let iface: StationId = v.field("iface")?;
    let id = power
        .injectors
        .iter()
        .position(|st| st.iface == iface)
        .ok_or_else(|| {
            CkptError::field(
                "iface",
                format!("rebuilt world has no injector on iface {}", iface.0),
            )
        })?;
    let st = &mut power.injectors[id];
    st.rng = v.field("rng")?;
    let mut ctl = st.ctl.borrow_mut();
    ctl.sent = v.field("sent")?;
    ctl.dropped = v.field("dropped")?;
    ctl.queue_full = v.field("queue_full")?;
    ctl.delay_scale = v.field("delay_scale")?;
    ctl.enabled = v.field("enabled")?;
    ctl.gate_open = v.field("gate_open")?;
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JitterModel, PowerTrafficConfig};
    use crate::injector::{InjectorCtl, InjectorSt};
    use powifi_rf::Bitrate;
    use powifi_sim::{SimDuration, SimRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A power table holding one injector, on `iface`.
    fn table(iface: u32) -> PowerState {
        let mut power = PowerState::default();
        power.injectors.push(InjectorSt {
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
        });
        power
    }

    #[test]
    fn injector_state_roundtrips() {
        let mut a = table(4);
        a.injectors[0].rng.f64();
        {
            let mut c = a.injectors[0].ctl.borrow_mut();
            c.sent = 120;
            c.dropped = 37;
            c.delay_scale = 2.5;
            c.gate_open = Some(false);
        }
        let v = save_injector(&a, 0);
        let mut b = table(4);
        assert_eq!(restore_injector(&mut b, &v), Ok(0));
        assert_eq!(
            powifi_sim::ckpt::state_hash(&v),
            powifi_sim::ckpt::state_hash(&save_injector(&b, 0))
        );
        // The restored RNG continues the same draw sequence.
        assert_eq!(
            a.injectors[0].rng.f64().to_bits(),
            b.injectors[0].rng.f64().to_bits()
        );
    }

    #[test]
    fn iface_mismatch_is_refused() {
        let a = table(4);
        let mut b = table(5);
        assert!(restore_injector(&mut b, &save_injector(&a, 0)).is_err());
    }
}
