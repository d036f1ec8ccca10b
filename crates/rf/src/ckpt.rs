//! Checkpoint form of the PHY rate: its variant name (`"G54"`, `"B5_5"`).

use crate::Bitrate;

powifi_sim::ckpt_names!(Bitrate {
    B1 => "B1",
    B2 => "B2",
    B5_5 => "B5_5",
    B11 => "B11",
    G6 => "G6",
    G9 => "G9",
    G12 => "G12",
    G18 => "G18",
    G24 => "G24",
    G36 => "G36",
    G48 => "G48",
    G54 => "G54",
});

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_sim::ckpt::{Ckpt, CkptError, Value, ValueExt};

    #[test]
    fn bitrate_names_roundtrip() {
        for r in Bitrate::ALL {
            assert_eq!(Bitrate::from_ckpt(&r.to_ckpt(), "rate"), Ok(r));
        }
        assert!(matches!(
            Bitrate::from_ckpt(&Value::str("G55"), "rate"),
            Err(CkptError::Field { path, .. }) if path == "rate"
        ));
    }
}
