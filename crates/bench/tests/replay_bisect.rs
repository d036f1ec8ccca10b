//! The `powifi-replay bisect` acceptance fixture: two real office
//! checkpoint chains that agree until a *single bit* of state is flipped
//! in one of them, after which the mutated run is resumed and driven to
//! completion. The bisector must pinpoint the exact first-divergence
//! epoch in O(log n) header probes and name the mutated field in the
//! structured diff.
//!
//! The mutation targets `queue/executed` — the event queue's executed
//! counter — because it rides along observationally (event order is
//! untouched), so the divergence the bisector finds is *purely* the
//! injected bit propagating through subsequent checkpoints, with no
//! behavioral amplification muddying the first divergent epoch.

use powifi_bench::ckpt_run::{self, CkptPolicy};
use powifi_bench::replay;
use powifi_core::Scheme;
use powifi_deploy::{OfficeConfig, OfficeSpec, TrafficSpec};
use powifi_sim::ckpt::{self, Value};
use powifi_sim::obs::metrics;
use powifi_sim::SimDuration;
use std::fs;
use std::path::PathBuf;

/// 3 sim-seconds at 500 ms epochs → a 6-link chain per run.
fn spec() -> OfficeSpec {
    OfficeSpec {
        seed: 11,
        scheme: Scheme::PoWiFi,
        cfg: OfficeConfig::default(),
        traffic: TrafficSpec::Udp { rate_mbps: 8.0 },
        secs: 3,
        epoch: SimDuration::from_millis(500),
    }
}

const TOTAL_EPOCHS: u64 = 6;
/// The epoch whose checkpoint gets the injected bit flip.
const MUTATED_EPOCH: u64 = 3;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("powifi-bisect-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Flip the lowest bit of the `queue/executed` counter in a state tree.
fn flip_executed_bit(root: &mut Value) {
    let Value::Object(fields) = root else {
        panic!("checkpoint root must be a map");
    };
    let (_, queue) = fields
        .iter_mut()
        .find(|(k, _)| k == "queue")
        .expect("state tree has a queue subtree");
    let Value::Object(qf) = queue else {
        panic!("queue must be a map");
    };
    let (_, executed) = qf
        .iter_mut()
        .find(|(k, _)| k == "executed")
        .expect("queue has an executed counter");
    let Value::UInt(n) = executed else {
        panic!("executed must be a u64 leaf");
    };
    *n ^= 1;
}

#[test]
fn bisect_pinpoints_injected_single_bit_mutation() {
    // Reference chain: one straight run, checkpointed every epoch.
    metrics::reset();
    let sp = spec();
    let dir_a = tmp("ref");
    let pol_a = CkptPolicy {
        dir: dir_a.clone(),
        every: 1,
    };
    let (mut a, _) = ckpt_run::start_or_resume(&sp, Some(&pol_a), "office").unwrap();
    let wrote = ckpt_run::drive(&mut a, Some(&pol_a), "office").unwrap();
    assert_eq!(wrote.len() as u64, TOTAL_EPOCHS);

    // Mutant chain: identical prefix, then the epoch-3 checkpoint with one
    // bit of state flipped (re-saved, so its container hash is valid and
    // only `powifi-replay` can tell it apart), then resume-and-run from
    // that mutated state to the end.
    let dir_b = tmp("mut");
    fs::create_dir_all(&dir_b).unwrap();
    for epoch in 1..MUTATED_EPOCH {
        fs::copy(
            ckpt_run::chain_path(&dir_a, "office", epoch),
            ckpt_run::chain_path(&dir_b, "office", epoch),
        )
        .unwrap();
    }
    let c = ckpt::load(&fs::read(ckpt_run::chain_path(&dir_a, "office", MUTATED_EPOCH)).unwrap())
        .unwrap();
    let mut root = c.root.clone();
    flip_executed_bit(&mut root);
    fs::write(
        ckpt_run::chain_path(&dir_b, "office", MUTATED_EPOCH),
        ckpt::save(&root),
    )
    .unwrap();

    metrics::reset(); // fresh process picking up the mutant chain
    let pol_b = CkptPolicy {
        dir: dir_b.clone(),
        every: 1,
    };
    let (mut b, info) = ckpt_run::start_or_resume(&sp, Some(&pol_b), "office").unwrap();
    assert_eq!(
        info.expect("mutant chain must resume").epoch,
        MUTATED_EPOCH,
        "resume must pick up from the mutated checkpoint"
    );
    ckpt_run::drive(&mut b, Some(&pol_b), "office").unwrap();

    // The bit propagates: every chain file from the mutation onward hashes
    // differently, and the prefix is untouched.
    for epoch in 1..=TOTAL_EPOCHS {
        let ha = replay::header_hash(&ckpt_run::chain_path(&dir_a, "office", epoch)).unwrap();
        let hb = replay::header_hash(&ckpt_run::chain_path(&dir_b, "office", epoch)).unwrap();
        assert_eq!(
            ha == hb,
            epoch < MUTATED_EPOCH,
            "chains must agree exactly before epoch {MUTATED_EPOCH} (epoch {epoch})"
        );
    }

    // The acceptance criterion: bisect pinpoints the exact first-divergent
    // epoch and the diff names the mutated field.
    let r = replay::bisect(&dir_a, &dir_b, 0).unwrap();
    assert_eq!(r.common.len() as u64, TOTAL_EPOCHS);
    let d = r.divergence.clone().expect("mutated chains must diverge");
    assert_eq!(d.epoch, MUTATED_EPOCH, "first divergence mislocated");
    assert_eq!(r.last_agreeing, Some(MUTATED_EPOCH - 1));
    assert!(
        r.probes <= 6,
        "6-epoch bisect took {} probes (O(log n) expected)",
        r.probes
    );
    assert!(
        d.diff.iter().any(|e| e.path == "queue/executed"),
        "diff must name the mutated field, got {:?}",
        d.diff
    );
    // At the first divergent epoch the *only* differences are the injected
    // bit and the container hash it changes — the surrounding state is
    // byte-identical, which is what makes the field-level diff actionable.
    assert_eq!(
        d.diff.len(),
        1,
        "injected single-bit flip must diff as exactly one field: {:?}",
        d.diff
    );
    let text = replay::render_report(&r);
    assert!(
        text.contains(&format!("first divergence at epoch {MUTATED_EPOCH}"))
            && text.contains("queue/executed"),
        "{text}"
    );

    metrics::reset();
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}
