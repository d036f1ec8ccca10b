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
use powifi_mac::StationId;
use powifi_sim::ckpt::{CkptError, Value};
use powifi_sim::{BinnedThroughput, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

fn field_err(path: &str, message: impl Into<String>) -> CkptError {
    CkptError::Field {
        path: path.to_string(),
        message: message.into(),
    }
}

fn binned_v(b: &BinnedThroughput) -> Value {
    let (bin, bins) = b.ckpt_state();
    Value::map()
        .field("bin", Value::U64(bin.as_nanos()))
        .field(
            "bins",
            Value::List(bins.iter().map(|&b| Value::U64(b)).collect()),
        )
        .build()
}

fn binned_from(v: &Value) -> Result<BinnedThroughput, CkptError> {
    let bin = SimDuration::from_nanos(v.u64_field("bin")?);
    let bins = v
        .list_field("bins")?
        .iter()
        .map(|b| b.as_u64("bins"))
        .collect::<Result<Vec<_>, CkptError>>()?;
    Ok(BinnedThroughput::from_ckpt_state(bin, bins))
}

fn udp_v(u: &UdpFlowState) -> Value {
    Value::map()
        .field("kind", Value::str("udp"))
        .field("delivered", binned_v(&u.delivered))
        .field("packets", Value::U64(u.packets))
        .field("max_seq", Value::U64(u.max_seq))
        .field("sender_drops", Value::U64(u.sender_drops))
        .build()
}

fn tcp_v(f: &TcpFlow) -> Value {
    Value::map()
        .field("kind", Value::str("tcp"))
        .field("id", Value::U64(f.id as u64))
        .field("src", Value::U64(f.src.0 as u64))
        .field("dst", Value::U64(f.dst.0 as u64))
        .field("cwnd", Value::f64(f.cwnd))
        .field("ssthresh", Value::f64(f.ssthresh))
        .field("snd_una", Value::U64(f.snd_una))
        .field("next_seq", Value::U64(f.next_seq))
        .field("budget", Value::U64(f.budget))
        .field("dup_acks", Value::U64(f.dup_acks as u64))
        .field("recovery_high", Value::opt(f.recovery_high, Value::U64))
        .field("srtt", Value::opt(f.srtt, Value::f64))
        .field("rttvar", Value::f64(f.rttvar))
        .field("rto", Value::f64(f.rto))
        .field(
            "sent_at",
            Value::List(
                f.sent_at
                    .iter()
                    .map(|&(t, retx)| {
                        Value::List(vec![Value::U64(t.as_nanos()), Value::Bool(retx)])
                    })
                    .collect(),
            ),
        )
        .field("timer_epoch", Value::U64(f.timer_epoch))
        .field("rcv_next", Value::U64(f.rcv_next))
        .field(
            "ooo",
            Value::List(f.ooo.iter().map(|&s| Value::U64(s)).collect()),
        )
        .field("delivered", binned_v(&f.delivered))
        .field(
            "completed_at",
            Value::opt(f.completed_at, |t| Value::U64(t.as_nanos())),
        )
        .field(
            "page",
            Value::opt(f.page, |(p, c)| {
                Value::List(vec![Value::U64(p as u64), Value::U64(c as u64)])
            }),
        )
        .field("retransmits", Value::U64(f.retransmits))
        .field("timeouts", Value::U64(f.timeouts))
        .build()
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
    let flows = net
        .flows
        .iter()
        .map(|f| match f {
            Flow::Udp(u) => udp_v(u),
            Flow::Tcp(t) => tcp_v(t),
        })
        .collect();
    Ok(Value::map().field("flows", Value::List(flows)).build())
}

/// Reconstruct a complete [`NetState`] from a [`save_net`] tree.
pub fn restore_net(v: &Value) -> Result<NetState, CkptError> {
    let mut net = NetState::new();
    for fv in v.list_field("flows")? {
        let flow = match fv.str_field("kind")? {
            "udp" => Flow::Udp(UdpFlowState {
                delivered: binned_from(fv.get("delivered")?)?,
                packets: fv.u64_field("packets")?,
                max_seq: fv.u64_field("max_seq")?,
                sender_drops: fv.u64_field("sender_drops")?,
            }),
            "tcp" => {
                let mut t = TcpFlow::new(
                    fv.u64_field("id")? as u32,
                    StationId(fv.u64_field("src")? as u32),
                    StationId(fv.u64_field("dst")? as u32),
                );
                t.cwnd = fv.f64_field("cwnd")?;
                t.ssthresh = fv.f64_field("ssthresh")?;
                t.snd_una = fv.u64_field("snd_una")?;
                t.next_seq = fv.u64_field("next_seq")?;
                t.budget = fv.u64_field("budget")?;
                t.dup_acks = fv.u64_field("dup_acks")? as u32;
                t.recovery_high = match fv.get("recovery_high")?.as_opt() {
                    None => None,
                    Some(h) => Some(h.as_u64("recovery_high")?),
                };
                t.srtt = match fv.get("srtt")?.as_opt() {
                    None => None,
                    Some(s) => Some(s.as_f64("srtt")?),
                };
                t.rttvar = fv.f64_field("rttvar")?;
                t.rto = fv.f64_field("rto")?;
                let mut sent_at = VecDeque::new();
                for e in fv.list_field("sent_at")? {
                    let pair = e.as_list("sent_at")?;
                    if pair.len() != 2 {
                        return Err(field_err("sent_at", "entry must be [t, retx]"));
                    }
                    sent_at.push_back((
                        SimTime::from_nanos(pair[0].as_u64("sent_at")?),
                        pair[1].as_bool("sent_at")?,
                    ));
                }
                t.sent_at = sent_at;
                t.timer_epoch = fv.u64_field("timer_epoch")?;
                t.rcv_next = fv.u64_field("rcv_next")?;
                t.ooo = fv
                    .list_field("ooo")?
                    .iter()
                    .map(|s| s.as_u64("ooo"))
                    .collect::<Result<BTreeSet<_>, CkptError>>()?;
                t.delivered = binned_from(fv.get("delivered")?)?;
                t.completed_at = match fv.get("completed_at")?.as_opt() {
                    None => None,
                    Some(c) => Some(SimTime::from_nanos(c.as_u64("completed_at")?)),
                };
                t.page = match fv.get("page")?.as_opt() {
                    None => None,
                    Some(p) => {
                        let pair = p.as_list("page")?;
                        if pair.len() != 2 {
                            return Err(field_err("page", "must be [page, conn]"));
                        }
                        Some((
                            pair[0].as_u64("page")? as usize,
                            pair[1].as_u64("page")? as usize,
                        ))
                    }
                };
                t.retransmits = fv.u64_field("retransmits")?;
                t.timeouts = fv.u64_field("timeouts")?;
                Flow::Tcp(Box::new(t))
            }
            other => return Err(field_err("kind", format!("unknown flow kind {other:?}"))),
        };
        net.flows.push(flow);
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_sim::ckpt;

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
