//! Small-scale fading.
//!
//! The paper's deployments live in multipath-rich homes and offices; link
//! budgets there wobble by several dB on coherence times of tens to
//! hundreds of milliseconds as people move. We model block fading: the
//! fade level is constant within a coherence interval and redrawn across
//! intervals from a Rician-derived dB distribution (strong line-of-sight →
//! small spread; obstructed → approaching Rayleigh's heavy tail).

use crate::units::Db;
use powifi_sim::{SimDuration, SimRng, SimTime};

/// A block-fading process attached to one link.
#[derive(Debug)]
pub struct BlockFader {
    /// Coherence time (fade is constant within a block).
    pub coherence: SimDuration,
    /// Rician K-factor in dB (ratio of specular to scattered power).
    /// 12+ dB ≈ strong LOS; 3 dB ≈ obstructed; −∞ → Rayleigh.
    pub k_factor_db: f64,
    rng: SimRng,
    current_block: u64,
    current_fade: Db,
}

impl BlockFader {
    /// New fader with its own random stream.
    pub fn new(coherence: SimDuration, k_factor_db: f64, rng: SimRng) -> BlockFader {
        assert!(!coherence.is_zero());
        BlockFader {
            coherence,
            k_factor_db,
            rng,
            current_block: u64::MAX,
            current_fade: Db(0.0),
        }
    }

    /// A strong line-of-sight indoor link (≈1.5 dB std-dev).
    pub fn indoor_los(rng: SimRng) -> BlockFader {
        BlockFader::new(SimDuration::from_millis(200), 12.0, rng)
    }

    /// An obstructed indoor link (≈4 dB std-dev, occasional deep fades).
    pub fn indoor_obstructed(rng: SimRng) -> BlockFader {
        BlockFader::new(SimDuration::from_millis(120), 3.0, rng)
    }

    /// Fade (dB, mean ≈ 0) in effect at time `t`. Deterministic within a
    /// coherence block; advancing time redraws.
    pub fn fade_at(&mut self, t: SimTime) -> Db {
        let block = t.as_nanos() / self.coherence.as_nanos();
        if block != self.current_block {
            self.current_block = block;
            self.current_fade = self.draw();
        }
        self.current_fade
    }

    /// Checkpoint view: RNG position plus the current block and fade, so a
    /// restored fader continues the exact same fade sequence.
    pub fn ckpt_state(&self) -> ((u64, [u64; 4]), u64, f64) {
        (
            self.rng.ckpt_state(),
            self.current_block,
            self.current_fade.0,
        )
    }

    /// Overlay a position captured by [`BlockFader::ckpt_state`].
    pub fn ckpt_restore(&mut self, rng: (u64, [u64; 4]), block: u64, fade_db: f64) {
        self.rng = SimRng::from_ckpt_state(rng.0, rng.1);
        self.current_block = block;
        self.current_fade = Db(fade_db);
    }

    /// Draw one fade sample: a Rician envelope converted to dB.
    fn draw(&mut self) -> Db {
        let k = 10f64.powf(self.k_factor_db / 10.0);
        // Rician envelope: specular component √(k/(k+1)) plus complex
        // Gaussian scatter with per-component variance 1/(2(k+1)); the
        // squared magnitude has unit mean power.
        let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
        let los = (k / (k + 1.0)).sqrt();
        let i = los + self.rng.normal(0.0, sigma);
        let q = self.rng.normal(0.0, sigma);
        let power = i * i + q * q;
        Db(10.0 * power.max(1e-9).log10())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fade_constant_within_block() {
        let mut f = BlockFader::indoor_los(SimRng::from_seed(1));
        let a = f.fade_at(SimTime::from_millis(10));
        let b = f.fade_at(SimTime::from_millis(150));
        assert_eq!(a, b);
        let c = f.fade_at(SimTime::from_millis(250));
        assert_ne!(a, c);
    }

    #[test]
    fn mean_fade_power_is_near_unity() {
        // The Rician envelope has unit mean *power*, so the linear average
        // of the fades must be ≈ 1 (0 dB).
        let mut f = BlockFader::indoor_obstructed(SimRng::from_seed(2));
        let n = 20_000u64;
        let mut acc = 0.0;
        for i in 0..n {
            let fade = f.fade_at(SimTime::from_millis(i * 120 + 60));
            acc += fade.linear();
        }
        let mean = acc / n as f64;
        assert!((0.95..=1.05).contains(&mean), "mean linear power {mean}");
    }

    #[test]
    fn los_spreads_less_than_obstructed() {
        let spread = |mut f: BlockFader| {
            let n = 5_000u64;
            let samples: Vec<f64> = (0..n)
                .map(|i| f.fade_at(SimTime::from_millis(i * 250)).0)
                .collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt()
        };
        let los = spread(BlockFader::indoor_los(SimRng::from_seed(3)));
        let nlos = spread(BlockFader::indoor_obstructed(SimRng::from_seed(3)));
        assert!(los < 2.5, "LOS spread {los}");
        assert!(nlos > 1.5 * los, "LOS {los} vs NLOS {nlos}");
    }

    #[test]
    fn deep_fades_exist_under_obstruction() {
        let mut f = BlockFader::indoor_obstructed(SimRng::from_seed(4));
        let deepest = (0..10_000u64)
            .map(|i| f.fade_at(SimTime::from_millis(i * 120)).0)
            .fold(f64::INFINITY, f64::min);
        assert!(deepest < -8.0, "deepest fade only {deepest} dB");
    }
}
