//! Seeded, splittable randomness.
//!
//! Every stochastic component draws from its own named stream derived from a
//! single experiment seed. That way adding a new random consumer (say, a new
//! neighbor AP) does not perturb the draws every other component sees, which
//! keeps regression baselines stable.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random stream.
pub struct SimRng {
    // (Debug shows only the seed material, not generator internals.)
    base: u64,
    inner: StdRng,
}

impl SimRng {
    /// Root stream for an experiment seed.
    #[expect(clippy::disallowed_methods, reason = "R10: rng.rs seeds generators")]
    pub fn from_seed(seed: u64) -> Self {
        let base = splitmix(seed);
        SimRng {
            base,
            inner: StdRng::seed_from_u64(base),
        }
    }

    /// Derive an independent child stream identified by `label`.
    /// Identical `(seed, label)` pairs always produce identical streams.
    #[expect(clippy::disallowed_methods, reason = "R10: rng.rs seeds generators")]
    pub fn derive(&self, label: &str) -> SimRng {
        let base = self.derive_seed(label);
        SimRng {
            base,
            inner: StdRng::seed_from_u64(base),
        }
    }

    /// Derive an independent child stream identified by an index.
    pub fn derive_idx(&self, label: &str, idx: usize) -> SimRng {
        self.derive(&format!("{label}#{idx}"))
    }

    /// The seed material a [`SimRng::derive`] child for `label` would be
    /// built from. Useful when a child *seed* (not a stream) must cross an
    /// API boundary — e.g. the bench sweep engine hands each experiment point
    /// a plain `u64` derived from the root seed and the point's label.
    pub fn derive_seed(&self, label: &str) -> u64 {
        // Mix the label into the parent's seed material via FNV-1a, then
        // scramble with splitmix so adjacent labels decorrelate.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        splitmix(self.base ^ h)
    }

    /// The stream's exact position, for checkpointing: the derivation base
    /// (so future [`SimRng::derive`] calls reproduce) plus the generator's
    /// raw state words.
    pub fn ckpt_state(&self) -> (u64, [u64; 4]) {
        (self.base, self.inner.state())
    }

    /// Rebuild a stream at an exact position captured by
    /// [`SimRng::ckpt_state`]: continues the same draw sequence and derives
    /// the same child streams.
    pub fn from_ckpt_state(base: u64, state: [u64; 4]) -> SimRng {
        SimRng {
            base,
            inner: StdRng::from_state(state),
        }
    }

    /// Uniform sample from a range.
    pub fn range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "non-positive mean");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Normal sample (Box–Muller; one value per call for simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev");
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Pareto-distributed sample (heavy-tailed; used for web object sizes).
    /// `scale` is the minimum value, `shape` > 0 controls the tail.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(scale > 0.0 && shape > 0.0, "invalid pareto parameters");
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        scale / u.powf(1.0 / shape)
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        let i = self.inner.gen_range(0..items.len());
        &items[i]
    }
}

impl core::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SimRng").field("base", &self.base).finish()
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..32 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..32).filter(|_| a.f64() == b.f64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_stable_and_independent() {
        let root = SimRng::from_seed(7);
        let mut c1 = root.derive("mac");
        let mut c1b = SimRng::from_seed(7).derive("mac");
        let mut c2 = root.derive("harvester");
        assert_eq!(c1.f64().to_bits(), c1b.f64().to_bits());
        assert_ne!(c1.f64().to_bits(), c2.f64().to_bits());
    }

    #[test]
    fn exp_mean_is_roughly_right() {
        let mut r = SimRng::from_seed(3);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::from_seed(4);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-3.0));
        assert!(r.chance(7.0));
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = SimRng::from_seed(6);
        for _ in 0..1000 {
            assert!(r.pareto(100.0, 1.2) >= 100.0);
        }
    }
}
