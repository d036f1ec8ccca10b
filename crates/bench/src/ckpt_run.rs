//! Checkpoint-chain plumbing for the stepped office runs of `powifi-office`
//! and the fleet ([`crate::fleet`]), with or without a chain.
//!
//! A *chain* is a directory of checkpoint files for one named run, one file
//! per checkpointed epoch: `<name>.ckpt-<epoch>` (epoch zero-padded so the
//! lexical order is the epoch order). [`drive`] steps an [`OfficeRun`] to
//! completion; given a policy, it writes a chain checkpoint every `every`
//! epochs (the final epoch always gets one) and announces each write on
//! the live telemetry stream as a seq-numbered `ckpt` record carrying the
//! state hash.
//! [`start_or_resume`] is the crash-resume entry point: it picks up from
//! the newest *valid* chain file (a torn write from a crash
//! mid-`fs::write` fails the container hash check and is skipped), falling
//! back to a cold start when the chain is empty. A valid chain file written
//! for a different spec is an error, not a skip: resuming it would continue
//! another run, and a cold start would overwrite that run's chain.
//!
//! Checkpoint cadence is in *absolute* epochs (`epochs_done % every`), so a
//! resumed run's chain lines up file-for-file — and, by the deploy layer's
//! restore-then-run invariant, byte-for-byte — with an uninterrupted run's.

// R14: bench may read wall clocks, checkpoint code may not.
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

use powifi_deploy::{checkpoint, OfficeRun, OfficeSpec};
use powifi_sim::ckpt::{self, Ckpt, ValueExt};
use powifi_sim::obs::stream;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where and how often a run writes chain checkpoints.
#[derive(Debug, Clone)]
pub struct CkptPolicy {
    /// Directory the chain files go into (created on demand).
    pub dir: PathBuf,
    /// Checkpoint every this many epochs; the final epoch always gets one.
    pub every: u64,
}

/// Provenance of a resumed run: which checkpoint it picked up from.
/// Recorded in bench manifests as `resumed_from` so observatory points
/// from resumed runs are distinguishable from straight-through runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeInfo {
    /// Epoch the checkpoint was taken at.
    pub epoch: u64,
    /// Content hash of the checkpoint state.
    pub hash: String,
    /// The file resumed from.
    pub path: PathBuf,
}

fn ckpt_io(e: ckpt::CkptError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Chain file for `name` at `epoch`.
pub fn chain_path(dir: &Path, name: &str, epoch: u64) -> PathBuf {
    dir.join(format!("{name}.ckpt-{epoch:06}"))
}

/// Parse `<name>.ckpt-<epoch>` back into its epoch; `None` for foreign
/// files. With `name: Some(n)` only that run's files match.
fn parse_epoch(file_name: &str, name: Option<&str>) -> Option<u64> {
    let (stem, epoch) = file_name.rsplit_once(".ckpt-")?;
    if let Some(n) = name {
        if stem != n {
            return None;
        }
    }
    epoch.parse().ok()
}

/// All chain files in `dir`, ascending by epoch. `name: Some(n)` restricts
/// to one run's chain; `None` accepts any (the `powifi-obs ckpt bisect`
/// case, where a chain directory holds exactly one run). A missing
/// directory is an empty chain, not an error.
pub fn chain(dir: &Path, name: Option<&str>) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let fname = entry.file_name();
        let Some(fname) = fname.to_str() else {
            continue;
        };
        if let Some(epoch) = parse_epoch(fname, name) {
            out.push((epoch, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Resume a run from one explicit checkpoint file (`--resume FILE`).
pub fn resume_file(path: &Path) -> io::Result<(OfficeRun, ResumeInfo)> {
    let bytes = fs::read(path)?;
    let c = ckpt::load(&bytes).map_err(ckpt_io)?;
    let run = powifi_deploy::ckpt::resume_value(&c.root).map_err(ckpt_io)?;
    let info = ResumeInfo {
        epoch: run.epochs_done,
        hash: c.hash,
        path: path.to_path_buf(),
    };
    Ok((run, info))
}

/// Inspect the newest *valid* chain file for `name` without building a
/// run: the cheap provenance probe binaries use to fill the manifest's
/// `resumed_from` before the sweep executes.
pub fn peek_latest(dir: &Path, name: &str) -> io::Result<Option<ResumeInfo>> {
    for (epoch, path) in chain(dir, Some(name))?.into_iter().rev() {
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        if let Ok(c) = ckpt::load(&bytes) {
            return Ok(Some(ResumeInfo {
                epoch,
                hash: c.hash,
                path,
            }));
        }
    }
    Ok(None)
}

/// Crash-resume entry point: resume from the newest *valid* chain file for
/// `name` (invalid tails — e.g. a write torn by the crash — are skipped),
/// or cold-start from `spec` when no usable checkpoint exists. A valid file
/// whose spec differs from `spec` is an [`io::ErrorKind::InvalidData`]
/// error naming the file.
pub fn start_or_resume(
    spec: &OfficeSpec,
    policy: Option<&CkptPolicy>,
    name: &str,
) -> io::Result<(OfficeRun, Option<ResumeInfo>)> {
    if let Some(p) = policy {
        let want = spec.to_ckpt();
        for (epoch, path) in chain(&p.dir, Some(name))?.into_iter().rev() {
            let Ok(bytes) = fs::read(&path) else {
                continue;
            };
            let Ok(c) = ckpt::load(&bytes) else {
                continue; // torn/corrupt: fall back to the previous file
            };
            if c.root
                .get("spec")
                .is_ok_and(|found| !ckpt::diff(found, &want, 1).is_empty())
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: checkpoint chain was written for a different spec",
                        path.display()
                    ),
                ));
            }
            match powifi_deploy::ckpt::resume_value(&c.root) {
                Ok(run) => {
                    return Ok((
                        run,
                        Some(ResumeInfo {
                            epoch,
                            hash: c.hash,
                            path,
                        }),
                    ))
                }
                Err(_) => continue,
            }
        }
    }
    Ok((OfficeRun::start(spec), None))
}

/// Step `run` to completion. With a policy, write a chain checkpoint every
/// `every` epochs plus one at the final epoch, emitting a `ckpt` stream
/// record per write. Returns `(epoch, hash)` for every checkpoint written.
pub fn drive(
    run: &mut OfficeRun,
    policy: Option<&CkptPolicy>,
    name: &str,
) -> io::Result<Vec<(u64, String)>> {
    let mut written = Vec::new();
    while !run.done() {
        let t = run.step_epoch();
        let due = match policy {
            Some(p) => run.done() || (p.every > 0 && run.epochs_done.is_multiple_of(p.every)),
            None => false,
        };
        if due {
            let p = policy.expect("due implies a policy");
            let (bytes, hash) = checkpoint(run).map_err(ckpt_io)?;
            fs::create_dir_all(&p.dir)?;
            fs::write(chain_path(&p.dir, name, run.epochs_done), &bytes)?;
            stream::ckpt_mark(t, run.epochs_done, &hash);
            written.push((run.epochs_done, hash));
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powifi_core::Scheme;
    use powifi_deploy::{OfficeConfig, TrafficSpec};
    use powifi_sim::obs::metrics;
    use powifi_sim::SimDuration;

    fn spec() -> OfficeSpec {
        OfficeSpec {
            seed: 5,
            scheme: Scheme::PoWiFi,
            cfg: OfficeConfig::default(),
            traffic: TrafficSpec::Udp { rate_mbps: 8.0 },
            secs: 2,
            epoch: SimDuration::from_millis(500),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("powifi-ckptrun-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn chain_paths_roundtrip_and_sort() {
        let dir = tmp("chain");
        fs::create_dir_all(&dir).unwrap();
        for e in [12u64, 3, 7] {
            fs::write(chain_path(&dir, "d0", e), b"x").unwrap();
        }
        fs::write(dir.join("unrelated.txt"), b"x").unwrap();
        fs::write(chain_path(&dir, "other", 1), b"x").unwrap();
        let c = chain(&dir, Some("d0")).unwrap();
        assert_eq!(c.iter().map(|&(e, _)| e).collect::<Vec<_>>(), [3, 7, 12]);
        let any = chain(&dir, None).unwrap();
        assert_eq!(any.len(), 4, "unfiltered chain sees every run's files");
        assert!(chain(&dir.join("missing"), None).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// The crash-resume loopback at the module level: interrupt a run after
    /// its second checkpoint (plus a torn tail write and a hostile file),
    /// resume from the chain, and require the final chain file to be
    /// byte-identical to an uninterrupted run's.
    #[test]
    fn interrupted_chain_converges_to_uninterrupted() {
        let sp = spec();

        metrics::reset();
        let dir_a = tmp("straight");
        let pol_a = CkptPolicy {
            dir: dir_a.clone(),
            every: 1,
        };
        let (mut a, info) = start_or_resume(&sp, Some(&pol_a), "d0").unwrap();
        assert!(info.is_none(), "empty chain must cold-start");
        let wrote_a = drive(&mut a, Some(&pol_a), "d0").unwrap();
        assert_eq!(wrote_a.len() as u64, a.total_epochs());

        metrics::reset();
        let dir_b = tmp("resumed");
        let pol_b = CkptPolicy {
            dir: dir_b.clone(),
            every: 1,
        };
        let (mut b, _) = start_or_resume(&sp, Some(&pol_b), "d0").unwrap();
        b.step_epoch();
        b.step_epoch();
        let (bytes, _) = checkpoint(&b).unwrap();
        fs::create_dir_all(&dir_b).unwrap();
        fs::write(chain_path(&dir_b, "d0", 1), {
            let mut one = OfficeRun::start(&sp);
            one.step_epoch();
            checkpoint(&one).unwrap().0
        })
        .unwrap();
        fs::write(chain_path(&dir_b, "d0", 2), &bytes).unwrap();
        // Simulate the crash tearing the next write mid-file.
        fs::write(chain_path(&dir_b, "d0", 3), &bytes[..bytes.len() / 2]).unwrap();
        // A hostile file past it: correctly hashed, but nested 50,000 deep.
        let deep = "[".repeat(50_000) + &"]".repeat(50_000);
        let header = format!(
            "{} {} {}",
            ckpt::CKPT_MAGIC,
            ckpt::CKPT_VERSION,
            ckpt::fnv1a128_hex(deep.as_bytes())
        );
        fs::write(chain_path(&dir_b, "d0", 4), format!("{header}\n{deep}\n")).unwrap();
        drop(b);

        metrics::reset(); // fresh process
        let (mut c, info) = start_or_resume(&sp, Some(&pol_b), "d0").unwrap();
        let info = info.expect("chain must resume");
        assert_eq!(
            info.epoch, 2,
            "deep epoch-4 and torn epoch-3 files must be skipped"
        );
        drive(&mut c, Some(&pol_b), "d0").unwrap();

        let last = a.total_epochs();
        let fin_a = fs::read(chain_path(&dir_a, "d0", last)).unwrap();
        let fin_b = fs::read(chain_path(&dir_b, "d0", last)).unwrap();
        assert_eq!(fin_a, fin_b, "resumed chain diverged from straight run");
        assert_eq!(a.throughput_mbps(), c.throughput_mbps());
        metrics::reset();
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    /// A chain written by another spec is refused, naming the file, rather
    /// than resumed under the caller's spec or overwritten by a cold start.
    #[test]
    fn chain_of_another_spec_is_an_error() {
        metrics::reset();
        let dir = tmp("other-spec");
        let pol = CkptPolicy {
            dir: dir.clone(),
            every: 1,
        };
        let mut run = OfficeRun::start(&spec());
        run.step_epoch();
        run.step_epoch();
        fs::create_dir_all(&dir).unwrap();
        let path = chain_path(&dir, "d0", 2);
        fs::write(&path, checkpoint(&run).unwrap().0).unwrap();
        let other = OfficeSpec { seed: 6, ..spec() };
        match start_or_resume(&other, Some(&pol), "d0") {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains(&path.display().to_string()), "{e}");
            }
            Ok((r, info)) => panic!(
                "seed-6 run resumed a seed-{} chain from {info:?}",
                r.spec.seed
            ),
        }
        let (same, info) = start_or_resume(&spec(), Some(&pol), "d0").unwrap();
        assert_eq!((same.spec.seed, info.map(|i| i.epoch)), (5, Some(2)));
        metrics::reset();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_file_reports_provenance() {
        metrics::reset();
        let sp = spec();
        let mut r = OfficeRun::start(&sp);
        r.step_epoch();
        let (bytes, hash) = checkpoint(&r).unwrap();
        let dir = tmp("provenance");
        fs::create_dir_all(&dir).unwrap();
        let path = chain_path(&dir, "d0", 1);
        fs::write(&path, &bytes).unwrap();
        let (run, info) = resume_file(&path).unwrap();
        assert_eq!(info.epoch, 1);
        assert_eq!(info.hash, hash);
        assert_eq!(run.epochs_done, 1);
        metrics::reset();
        let _ = fs::remove_dir_all(&dir);
    }
}
