//! Output digests: a content hash over a workload's *simulated* outputs
//! (never host timings), so a speed-only change keeps every digest and a
//! behaviour change moves at least one.

use powifi_sim::ckpt::fnv1a128_hex;

/// Accumulates labelled values in a canonical byte form; floats enter by
/// their exact bit pattern.
#[derive(Debug, Default)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    fn label(&mut self, label: &str) {
        self.bytes.extend_from_slice(label.as_bytes());
        self.bytes.push(0);
    }

    /// Add an integer.
    pub fn u64(&mut self, label: &str, v: u64) -> &mut Digest {
        self.label(label);
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Add a float by its bits.
    pub fn f64(&mut self, label: &str, v: f64) -> &mut Digest {
        self.u64(label, v.to_bits())
    }

    /// Add a float sequence (length-prefixed).
    pub fn f64s(&mut self, label: &str, vs: &[f64]) -> &mut Digest {
        self.u64(label, vs.len() as u64);
        for v in vs {
            self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Add a string (length-prefixed).
    pub fn str(&mut self, label: &str, s: &str) -> &mut Digest {
        self.u64(label, s.len() as u64);
        self.bytes.extend_from_slice(s.as_bytes());
        self
    }

    /// The 128-bit FNV-1a hash of everything added, as 32 hex digits.
    pub fn finish(&self) -> String {
        fnv1a128_hex(&self.bytes)
    }
}
