//! The library core of `powifi-obs ckpt`: checkpoint-chain loading and the
//! time-travel divergence bisector.
//!
//! A checkpoint chain (see [`crate::ckpt_run`]) records a run's state hash
//! at every checkpointed epoch. When two runs that should be identical —
//! resumed vs. straight-through, sharded vs. monolithic, yesterday's build
//! vs. today's — disagree, [`bisect`] binary-searches their chains for the
//! *first* epoch whose state hashes differ and renders a structured,
//! field-level diff of the two state trees at that epoch. Divergence in a
//! deterministic simulator is monotone (once state differs, every later
//! state differs), which is what makes the binary search sound; the probe
//! count in the report shows the O(log n) behavior.

use crate::ckpt_run;
use powifi_sim::ckpt::{self, DiffEntry};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One link of a checkpoint chain: a file, its epoch, its declared hash.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainEntry {
    /// Epoch the checkpoint covers.
    pub epoch: u64,
    /// The chain file.
    pub path: PathBuf,
    /// State hash from the container line (header only — not re-verified;
    /// `verify`/full loads re-hash the body).
    pub hash: String,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read a checkpoint's declared state hash from its container line without
/// parsing the body — the cheap probe the bisector runs O(log n) times.
pub fn header_hash(path: &Path) -> io::Result<String> {
    let bytes = fs::read(path)?;
    let header = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
    let header = std::str::from_utf8(header)
        .map_err(|e| bad(format!("{}: container line not utf-8: {e}", path.display())))?;
    let mut parts = header.split(' ');
    if parts.next() != Some(ckpt::CKPT_MAGIC) {
        return Err(bad(format!(
            "{}: not a checkpoint (bad magic)",
            path.display()
        )));
    }
    let _version = parts.next();
    parts
        .next()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("{}: container line missing hash", path.display())))
}

/// Load the chain in `dir` (epoch-ascending), reading only headers.
pub fn load_chain(dir: &Path) -> io::Result<Vec<ChainEntry>> {
    let mut out = Vec::new();
    for (epoch, path) in ckpt_run::chain(dir, None)? {
        let hash = header_hash(&path)?;
        out.push(ChainEntry { epoch, path, hash });
    }
    Ok(out)
}

/// The first-divergence verdict of a [`bisect`].
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// First common epoch whose state hashes differ.
    pub epoch: u64,
    /// Left chain's state hash at that epoch.
    pub hash_a: String,
    /// Right chain's state hash at that epoch.
    pub hash_b: String,
    /// Field-level diff of the two state trees at that epoch.
    pub diff: Vec<DiffEntry>,
}

/// What a [`bisect`] compared and concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectReport {
    /// Epochs present in both chains, ascending.
    pub common: Vec<u64>,
    /// Hash probes spent by the binary search.
    pub probes: usize,
    /// Last common epoch at which the chains agree (`None` when they
    /// diverge at the very first common epoch).
    pub last_agreeing: Option<u64>,
    /// The first divergent epoch with its diff; `None` when the chains are
    /// identical over every common epoch.
    pub divergence: Option<Divergence>,
}

/// Binary-search two checkpoint chains for the first divergent epoch and
/// field-diff the state trees there (at most `diff_limit` entries,
/// 0 = unlimited). Chains must share at least one epoch.
pub fn bisect(dir_a: &Path, dir_b: &Path, diff_limit: usize) -> io::Result<BisectReport> {
    let a: std::collections::BTreeMap<u64, PathBuf> =
        ckpt_run::chain(dir_a, None)?.into_iter().collect();
    let b: std::collections::BTreeMap<u64, PathBuf> =
        ckpt_run::chain(dir_b, None)?.into_iter().collect();
    let common: Vec<u64> = a.keys().filter(|e| b.contains_key(e)).copied().collect();
    if common.is_empty() {
        return Err(bad(format!(
            "chains share no epochs ({} has {}, {} has {})",
            dir_a.display(),
            a.len(),
            dir_b.display(),
            b.len()
        )));
    }
    let mut probes = 0usize;
    let mut differs = |epoch: u64| -> io::Result<(bool, String, String)> {
        probes += 1;
        let ha = header_hash(&a[&epoch])?;
        let hb = header_hash(&b[&epoch])?;
        Ok((ha != hb, ha, hb))
    };
    // Monotone divergence: probe the last common epoch first — if it
    // agrees, the whole prefix agrees.
    let last = *common.last().expect("non-empty");
    if !differs(last)?.0 {
        return Ok(BisectReport {
            probes,
            last_agreeing: Some(last),
            common,
            divergence: None,
        });
    }
    // Invariant: common[lo] agrees, common[hi] differs.
    let (first_bad, last_good) = {
        let (d0, _, _) = differs(common[0])?;
        if d0 {
            (0usize, None)
        } else {
            let (mut lo, mut hi) = (0usize, common.len() - 1);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if differs(common[mid])?.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            (hi, Some(common[lo]))
        }
    };
    let epoch = common[first_bad];
    let (_, hash_a, hash_b) = differs(epoch)?;
    // Full verified loads only at the pinpointed epoch.
    let ca = ckpt::load(&fs::read(&a[&epoch])?).map_err(|e| bad(e.to_string()))?;
    let cb = ckpt::load(&fs::read(&b[&epoch])?).map_err(|e| bad(e.to_string()))?;
    let diff = ckpt::diff(&ca.root, &cb.root, diff_limit);
    Ok(BisectReport {
        probes,
        last_agreeing: last_good,
        common,
        divergence: Some(Divergence {
            epoch,
            hash_a,
            hash_b,
            diff,
        }),
    })
}

/// Render a [`BisectReport`] for the terminal.
pub fn render_report(r: &BisectReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "compared {} common epoch(s) [{}..{}] in {} hash probe(s)",
        r.common.len(),
        r.common.first().copied().unwrap_or(0),
        r.common.last().copied().unwrap_or(0),
        r.probes
    );
    match &r.divergence {
        None => {
            let _ = writeln!(
                out,
                "chains are identical through epoch {}",
                r.last_agreeing.unwrap_or(0)
            );
        }
        Some(d) => {
            match r.last_agreeing {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "first divergence at epoch {} (last agreeing epoch {e})",
                        d.epoch
                    );
                }
                None => {
                    let _ = writeln!(out, "chains diverge at the first common epoch {}", d.epoch);
                }
            }
            let _ = writeln!(out, "  left  {}", d.hash_a);
            let _ = writeln!(out, "  right {}", d.hash_b);
            let _ = writeln!(out, "  {} divergent field(s):", d.diff.len());
            for e in &d.diff {
                let _ = writeln!(out, "    {}: {} != {}", e.path, e.left, e.right);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_sim::ckpt::{Value, ValueExt};

    fn write_ckpt(dir: &Path, epoch: u64, v: &Value) {
        fs::create_dir_all(dir).unwrap();
        fs::write(ckpt_run::chain_path(dir, "t", epoch), ckpt::save(v)).unwrap();
    }

    fn state(epoch: u64, x: u64) -> Value {
        Value::map()
            .field("epoch", Value::UInt(epoch))
            .field("x", Value::UInt(x))
            .build()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("powifi-replay-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn bisect_finds_first_divergent_epoch() {
        let (da, db) = (tmp("bis-a"), tmp("bis-b"));
        for e in 1..=16u64 {
            write_ckpt(&da, e, &state(e, 100 + e));
            // Right chain diverges from epoch 11 onward.
            let x = if e >= 11 { 999 + e } else { 100 + e };
            write_ckpt(&db, e, &state(e, x));
        }
        let r = bisect(&da, &db, 0).unwrap();
        let d = r.divergence.clone().expect("must diverge");
        assert_eq!(d.epoch, 11);
        assert_eq!(r.last_agreeing, Some(10));
        assert_eq!(d.diff.len(), 1);
        assert_eq!(d.diff[0].path, "x");
        assert!(
            r.probes <= 8,
            "binary search over 16 epochs took {} probes (O(log n) expected)",
            r.probes
        );
        let text = render_report(&r);
        assert!(text.contains("first divergence at epoch 11"), "{text}");
        let _ = fs::remove_dir_all(&da);
        let _ = fs::remove_dir_all(&db);
    }

    #[test]
    fn bisect_reports_identical_chains() {
        let (da, db) = (tmp("same-a"), tmp("same-b"));
        for e in 1..=4u64 {
            write_ckpt(&da, e, &state(e, e));
            write_ckpt(&db, e, &state(e, e));
        }
        let r = bisect(&da, &db, 0).unwrap();
        assert!(r.divergence.is_none());
        assert_eq!(r.last_agreeing, Some(4));
        assert_eq!(r.probes, 1, "identical chains need one probe");
        let _ = fs::remove_dir_all(&da);
        let _ = fs::remove_dir_all(&db);
    }

    #[test]
    fn bisect_handles_divergence_at_first_epoch_and_disjoint_chains() {
        let (da, db) = (tmp("first-a"), tmp("first-b"));
        for e in 1..=3u64 {
            write_ckpt(&da, e, &state(e, e));
            write_ckpt(&db, e, &state(e, e + 50));
        }
        let r = bisect(&da, &db, 0).unwrap();
        assert_eq!(r.divergence.unwrap().epoch, 1);
        assert_eq!(r.last_agreeing, None);

        let dc = tmp("disjoint");
        write_ckpt(&dc, 99, &state(99, 1));
        assert!(bisect(&da, &dc, 0).is_err(), "no common epochs");
        let _ = fs::remove_dir_all(&da);
        let _ = fs::remove_dir_all(&db);
        let _ = fs::remove_dir_all(&dc);
    }
}
