//! Transport-layer checkpoint state.
//!
//! Unlike the MAC (whose restore overlays dynamic state onto a rebuilt
//! topology), the flow table is fully self-describing — [`restore_net`]
//! reconstructs a complete [`NetState`] from the tree alone and the caller
//! swaps it in wholesale. Page loads run on typed events, but their
//! [`crate::PageState`] has no codec yet, so checkpointing a world with
//! page state is refused loudly rather than silently dropped.

use crate::state::{Flow, NetState};
use crate::tcp::TcpFlow;
use crate::udp::UdpFlowState;
use powifi_sim::ckpt::{Ckpt, CkptError, Value, ValueExt};
use powifi_sim::ckpt_struct;

ckpt_struct!(UdpFlowState as "udp" {
    delivered,
    packets,
    max_seq,
    sender_drops
});
ckpt_struct!(TcpFlow as "tcp" {
    id,
    src,
    dst,
    cwnd,
    ssthresh,
    snd_una,
    next_seq,
    budget,
    dup_acks,
    recovery_high,
    srtt,
    rttvar,
    rto,
    sent_at,
    timer_epoch,
    rcv_next,
    ooo,
    delivered,
    completed_at,
    page,
    retransmits,
    timeouts
});

/// Tagged by `kind`: `udp` or `tcp`.
impl Ckpt for Flow {
    fn to_ckpt(&self) -> Value {
        match self {
            Flow::Udp(u) => u.to_ckpt(),
            Flow::Tcp(t) => t.to_ckpt(),
        }
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        Ok(match v.str_field("kind")? {
            "udp" => Flow::Udp(Ckpt::from_ckpt(v, path)?),
            "tcp" => Flow::Tcp(Box::new(Ckpt::from_ckpt(v, path)?)),
            other => {
                return Err(CkptError::field(
                    "kind",
                    format!("unknown flow kind {other:?}"),
                ))
            }
        })
    }
}

/// Serialize the transport state. Fails with
/// [`CkptError::Unsupported`] if any page load is registered:
/// [`crate::PageState`] has no codec yet.
pub fn save_net(net: &NetState) -> Result<Value, CkptError> {
    if !net.pages.is_empty() {
        return Err(CkptError::Unsupported(
            "page-load state has no checkpoint form yet".into(),
        ));
    }
    Ok(Value::map().put("flows", &net.flows).build())
}

/// Reconstruct a complete [`NetState`] from a [`save_net`] tree.
pub fn restore_net(v: &Value) -> Result<NetState, CkptError> {
    Ok(NetState {
        flows: v.field("flows")?,
        pages: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_mac::StationId;
    use powifi_sim::{ckpt, SimTime};

    #[test]
    fn net_state_roundtrips_bytes() {
        let mut net = NetState::new();
        net.insert_flow(|_| Flow::Udp(UdpFlowState::new()));
        net.insert_flow(|id| {
            let mut t = TcpFlow::new(id, StationId(0), StationId(1));
            t.budget = 100;
            t.next_seq = 40;
            t.snd_una = 31;
            t.srtt = Some(0.012);
            for i in 0..9u64 {
                t.sent_at
                    .push_back((SimTime::from_micros(1000 + i * 300), i % 3 == 0));
            }
            t.ooo.insert(45);
            t.delivered.record(SimTime::from_millis(700), 14600);
            Flow::Tcp(Box::new(t))
        });
        let v = save_net(&net).unwrap();
        let restored = restore_net(&v).unwrap();
        let v2 = save_net(&restored).unwrap();
        assert_eq!(ckpt::state_hash(&v), ckpt::state_hash(&v2));
    }

    #[test]
    fn active_pages_are_refused() {
        let mut net = NetState::new();
        net.pages.push(crate::web::PageState::stub_for_tests());
        assert!(matches!(save_net(&net), Err(CkptError::Unsupported(_))));
    }
}
