//! # Fixtures for the determinism rules R1–R14
//!
//! The rules are enforced by the toolchain, not by this crate
//! (docs/STATIC_ANALYSIS.md maps each one):
//!
//! * `crates/clippy.toml` lists the disallowed types and methods;
//! * each sim crate's `lib.rs` turns those on, and six more clippy lints,
//!   for its library build, with the same five lines as this file;
//! * rustc refuses the rest: `forbid(unsafe_code)`, `SimRng` without
//!   `Clone`, a vendored `rand` without ambient entropy, `Send` bounds on
//!   scoped workers, and exhaustive matches;
//! * [`rules::check`] is a token check for what no lint sees (R8, R9's
//!   statics and cells, and R4's comparisons against a float literal);
//!   `tests/fixtures.rs` runs it over the workspace.
//!
//! This crate is linted under the same `clippy.toml` and lint levels as
//! the code the rules guard, so `cargo clippy --workspace --all-targets --
//! -D warnings` proves each rule both ways. Every positive item carries
//! `#[expect(…, reason = "R<n> fixture")]`: if the rule stops firing, the
//! expectation is unfulfilled. No negative item carries one: if the rule
//! fires there, it is a warning. The rules rustc enforces are proved by the
//! `compile_fail` doctests below, which `cargo test` runs.

#![forbid(unsafe_code)]
// R1–R14 hold in the library build (docs/STATIC_ANALYSIS.md).
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]

pub mod lexer;
pub mod rules;

/// The crates whose library code the rules guard.
pub const SIM_CRATES: [&str; 8] = [
    "core", "deploy", "harvest", "mac", "net", "rf", "sensors", "sim",
];
/// The sim crates on the per-event path, where R8 holds.
pub const HOT_CRATES: [&str; 5] = ["core", "harvest", "mac", "net", "sim"];

/// Where a file sits, from its path relative to the workspace root.
#[derive(Debug, PartialEq, Eq)]
pub struct FileContext<'a> {
    pub crate_name: &'a str,
    /// Under `src/`, but not `src/main.rs` or under `src/bin/`.
    pub is_library: bool,
    pub is_sim: bool,
    pub is_hot: bool,
    /// Under `crates/deploy/src/city/`, where R9 holds.
    pub is_city: bool,
}

/// The context of `crates/<name>/…`; `None` for a path outside `crates/`.
pub fn classify(rel: &str) -> Option<FileContext<'_>> {
    let (crate_name, rest) = rel.strip_prefix("crates/")?.split_once('/')?;
    let is_bin = rest == "src/main.rs" || rest.starts_with("src/bin/");
    Some(FileContext {
        crate_name,
        is_library: rest.starts_with("src/") && !is_bin,
        is_sim: SIM_CRATES.contains(&crate_name),
        is_hot: HOT_CRATES.contains(&crate_name),
        is_city: crate_name == "deploy" && rest.starts_with("src/city/"),
    })
}

pub mod r01 {
    //! R1 `hash-iteration`: `HashMap`/`HashSet` iterate in a per-process
    //! order. Disallowed types.
    use std::collections::{BTreeMap, BTreeSet};

    #[expect(clippy::disallowed_types, reason = "R1 fixture")]
    pub fn by_id() {
        let _ = std::collections::HashMap::<u32, String>::new();
    }

    #[expect(clippy::disallowed_types, reason = "R1 fixture")]
    pub fn seen() {
        let _ = std::collections::HashSet::<u32>::new();
    }

    #[expect(clippy::disallowed_types, reason = "R1 fixture: a rename")]
    pub use std::collections::HashMap as Map;

    pub struct Registry {
        pub by_id: BTreeMap<u32, String>,
        pub seen: BTreeSet<u32>,
    }

    pub fn describe() -> &'static str {
        "a HashMap would be nondeterministic" // HashMap in a comment is fine
    }
}

pub mod r02 {
    //! R2 `ambient-nondeterminism`: wall clocks and ambient entropy.
    //! `SystemTime` is a disallowed type, reading `UNIX_EPOCH` a disallowed
    //! method. The vendored `rand` has no ambient entropy at all, and `rand`
    //! is a dependency of `powifi-sim` alone among the sim crates:
    //!
    //! ```compile_fail,E0425
    //! let _ = rand::thread_rng();
    //! ```
    //!
    //! ```compile_fail,E0433
    //! let _ = rand::rngs::OsRng;
    //! ```
    //!
    //! ```compile_fail,E0599
    //! use rand::SeedableRng;
    //! let _ = rand::rngs::StdRng::from_entropy();
    //! ```
    use powifi_sim::{SimRng, SimTime};

    #[expect(clippy::disallowed_types, reason = "R2 fixture")]
    pub fn wall_stamp() {
        let _ = std::time::SystemTime::now();
    }

    #[expect(clippy::disallowed_methods, reason = "R2 fixture")]
    pub fn epoch_age() {
        let _ = std::time::UNIX_EPOCH.elapsed();
    }

    pub fn stamp(now: SimTime, rng: &mut SimRng) -> u64 {
        now.as_nanos() ^ rng.range(0..u64::MAX)
    }
}

pub mod r03 {
    //! R3 `unwrap`: no `unwrap()`/`expect()` in library code.
    //! `clippy::unwrap_used` and `clippy::expect_used`.

    #[expect(clippy::unwrap_used, reason = "R3 fixture")]
    pub fn first(xs: &[u32]) {
        let _ = xs.first().unwrap();
    }

    #[expect(clippy::expect_used, reason = "R3 fixture")]
    pub fn last(xs: &[u32]) {
        let _ = xs.last().expect("non-empty");
    }

    pub fn head(xs: &[u32]) -> Option<u32> {
        let first = xs.first()?;
        let last = xs.last().copied().unwrap_or_default();
        Some(first + last)
    }
}

pub mod r04 {
    //! R4 `float-eq`: accumulated f64 never compares exactly.
    //! `clippy::float_cmp` sees every typed float `==`/`!=` but exempts
    //! zero; the token check in [`crate::rules`] catches comparisons
    //! against a float literal, zero included.

    #[expect(clippy::float_cmp, reason = "R4 fixture")]
    pub fn sentinel(acc: f64) {
        let _ = acc != -1.5;
    }

    #[expect(clippy::float_cmp, reason = "R4 fixture: typed, not literal")]
    pub fn same(a: f64, b: f64) {
        let _ = a == b;
    }

    pub fn depleted(energy_ns: u64, acc: f64) -> bool {
        energy_ns == 0 || acc.abs() < 1e-12
    }
}

pub mod r05 {
    //! R5 `bare-cast`: truncating float→int `as` casts.
    //! `clippy::cast_possible_truncation`, which is stricter than R5 was:
    //! it also flags a rounded float and integer narrowing, so the blessed
    //! conversions (`SimDuration::from_micros_f64`) carry the expectation.
    use powifi_sim::SimDuration;

    #[expect(clippy::cast_possible_truncation, reason = "R5 fixture")]
    pub fn scaled(us: f64) {
        let _ = (us * 1_000.0) as u64;
    }

    #[expect(clippy::cast_possible_truncation, reason = "R5 fixture")]
    pub fn literal() {
        let _ = 2.5 as u32;
    }

    #[expect(clippy::cast_possible_truncation, reason = "R5 fixture")]
    pub fn bare(us: f64) {
        let _ = us as u64;
    }

    #[expect(clippy::cast_possible_truncation, reason = "R5 fixture: rounded")]
    pub fn rounded(us: f64) {
        let _ = (us * 1_000.0).round() as u64;
    }

    pub fn to_ns(us: f64, n: u32) -> (u64, u64) {
        (SimDuration::from_micros_f64(us).as_nanos(), u64::from(n))
    }
}

pub mod r06 {
    //! R6 `trace-capture`: simulation layers emit trace events; harnesses
    //! capture them. `trace::capture_jsonl` is a disallowed method.
    use powifi_sim::obs::trace::{self, TraceEvent};
    use powifi_sim::SimTime;

    #[expect(clippy::disallowed_methods, reason = "R6 fixture")]
    pub fn capture(run: impl FnOnce()) -> String {
        trace::capture_jsonl(run).1
    }

    pub fn record(now: SimTime, iface: u32, qdepth: u32) {
        let open = trace::enabled();
        trace::emit(
            now,
            TraceEvent::InjectorGate {
                iface,
                open,
                qdepth,
            },
        );
    }
}

pub mod r07 {
    //! R7 `instant-outside-bench`: wall time is the harness's and the
    //! profiler's. `Instant` is a disallowed type; `obs::prof` carries the
    //! one carve-out.
    use powifi_sim::obs::prof;
    use powifi_sim::SimDuration;

    #[expect(clippy::disallowed_types, reason = "R7 fixture")]
    pub fn timed_step() {
        let _ = std::time::Instant::now();
    }

    pub fn step(dt: SimDuration) {
        let _span = prof::span("mac.step");
        prof::attr(dt);
    }
}

pub mod r09 {
    //! R9 `shard-isolation`: city shards exchange state only through the
    //! export table, the runtime's `lock()` helper and barriers.
    //! `Mutex::lock` is a disallowed method; [`crate::rules`] refuses
    //! statics, thread-locals, cells, atomics and `RwLock` in the city
    //! tree; and rustc refuses a scoped worker that shares a `RefCell` or
    //! an `Rc`:
    //!
    //! ```compile_fail,E0277
    //! let scratch = std::cell::RefCell::new(0u64);
    //! std::thread::scope(|s| {
    //!     s.spawn(|| *scratch.borrow_mut() += 1);
    //! });
    //! ```
    //!
    //! ```compile_fail,E0277
    //! let table = std::rc::Rc::new(vec![0u64]);
    //! std::thread::scope(|s| {
    //!     s.spawn(move || table.len());
    //! });
    //! ```
    use std::sync::{Barrier, Mutex, MutexGuard};

    #[expect(clippy::disallowed_methods, reason = "R9 fixture")]
    pub fn reach_around(table: &Mutex<Vec<u64>>) {
        let _guard = table.lock();
    }

    #[expect(clippy::disallowed_methods, reason = "R9: the export table's one lock")]
    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        match m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    pub fn run_city(jobs: usize) {
        let table: Mutex<Vec<u64>> = Mutex::new(vec![0; jobs]);
        let barrier = Barrier::new(jobs);
        std::thread::scope(|s| {
            for t in 0..jobs {
                let (table, barrier) = (&table, &barrier);
                s.spawn(move || {
                    if let Some(slot) = lock(table).get_mut(t) {
                        *slot += 1;
                    }
                    barrier.wait();
                });
            }
        });
    }
}

pub mod r10 {
    //! R10 `rng-stream-discipline`: every stream derives from the
    //! experiment seed, once, while the world is built. Root seeding, raw
    //! generator seeding and the medium installer are disallowed methods;
    //! `SimRng` has no `Clone` and no reseed:
    //!
    //! ```compile_fail,E0599
    //! fn fork(rng: &powifi_sim::SimRng) -> powifi_sim::SimRng {
    //!     rng.clone()
    //! }
    //! ```
    //!
    //! ```compile_fail,E0599
    //! fn rearm(rng: &mut powifi_sim::SimRng) {
    //!     rng.reseed(99);
    //! }
    //! ```
    use powifi_mac::{Mac, MediumId};
    use powifi_sim::SimRng;
    use rand::SeedableRng;

    #[expect(clippy::disallowed_methods, reason = "R10 fixture")]
    pub fn jitter_stream() {
        let _ = SimRng::from_seed(1234);
    }

    #[expect(clippy::disallowed_methods, reason = "R10 fixture")]
    pub fn raw_generator() {
        let _ = rand::rngs::StdRng::seed_from_u64(7);
    }

    #[expect(clippy::disallowed_methods, reason = "R10 fixture")]
    pub fn tick_medium(mac: &mut Mac, m: MediumId, root: &SimRng) {
        mac.seed_medium_rng(m, root.derive_idx("city-medium", 3));
    }

    pub fn children(root: &SimRng) -> (SimRng, SimRng) {
        (root.derive("mac"), root.derive_idx("medium", 3))
    }

    #[derive(Clone)]
    pub struct Config {
        pub seed: u64,
    }

    pub fn snapshot(cfg: &Config) -> Config {
        // Cloning non-RNG values is not stream duplication.
        cfg.clone()
    }
}

pub mod r11 {
    //! R11 `non-exhaustive-dispatch`: a wildcard arm swallows new event
    //! kinds. `clippy::wildcard_enum_match_arm`, and
    //! `clippy::match_wildcard_for_single_variants` for a wildcard that
    //! stands for one variant. A guarded wildcard is not flagged, but it
    //! never covers a kind either:
    //!
    //! ```compile_fail,E0004
    //! enum Ev { Arb, Tx, Backoff }
    //! fn dispatch(ev: Ev, lenient: bool) -> u8 {
    //!     match ev {
    //!         Ev::Arb => 1,
    //!         _ if lenient => 0,
    //!         Ev::Tx => 2,
    //!     }
    //! }
    //! ```

    pub enum MacEvent {
        ArbFire(u32),
        TxDone { medium: u32 },
        Backoff(u32),
    }

    #[expect(clippy::wildcard_enum_match_arm, reason = "R11 fixture")]
    pub fn dispatch_lossy(ev: MacEvent) -> u32 {
        match ev {
            MacEvent::ArbFire(m) => m,
            _ => 0,
        }
    }

    #[expect(clippy::match_wildcard_for_single_variants, reason = "R11 fixture")]
    pub fn dispatch_one_short(ev: MacEvent) -> u32 {
        match ev {
            MacEvent::ArbFire(m) => m,
            MacEvent::TxDone { medium } => medium,
            _ => 0,
        }
    }

    pub fn dispatch(ev: MacEvent) -> u32 {
        match ev {
            MacEvent::ArbFire(m) => m,
            MacEvent::TxDone { medium } => medium,
            MacEvent::Backoff(slot) => slot,
        }
    }
}

pub mod r12 {
    //! R12 `unsafe-in-sim`: every sim crate, and this one, carries
    //! `#![forbid(unsafe_code)]`, which no inner `allow` can lift:
    //!
    //! ```compile_fail
    //! #![forbid(unsafe_code)]
    //! pub fn read_raw(p: *const u8) -> u8 {
    //!     unsafe { core::ptr::read(p) }
    //! }
    //! ```

    pub fn describe() -> &'static str {
        "nothing unsafe here"
    }
}

pub mod r13 {
    //! R13 `socket-outside-stream`: the sim crates open no sockets.
    //! Socket types are disallowed with no carve-out; `obs::stream` drains
    //! into any writer and `powifi-fleetd` owns the sockets.

    #[expect(clippy::disallowed_types, reason = "R13 fixture: a rename")]
    pub use std::net::TcpStream as Wire;

    #[expect(clippy::disallowed_types, reason = "R13 fixture")]
    pub fn listen(addr: &str) {
        let _ = std::net::TcpListener::bind(addr);
    }

    #[expect(clippy::disallowed_types, reason = "R13 fixture")]
    pub fn beacon(addr: &str) {
        let _ = std::net::UdpSocket::bind(addr);
    }

    pub fn describe() -> &'static str {
        // "TcpStream" in a comment or a string is documentation, not I/O.
        "egress rides a TcpStream owned by powifi-fleetd"
    }
}

pub mod r14 {
    //! R14 `wall-clock-in-ckpt`: checkpoint state is a pure function of
    //! simulation state. The sim crates' checkpoint code falls under R2 and
    //! R7; bench's `ckpt_run.rs` opts back into the disallowed types and
    //! methods with the same line as this module.
    #![warn(clippy::disallowed_methods, clippy::disallowed_types)]
    use powifi_sim::ckpt::{Value, ValueExt};
    use powifi_sim::SimTime;

    #[expect(clippy::disallowed_types, reason = "R14 fixture")]
    pub fn saved_at() {
        let _ = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    }

    #[expect(clippy::disallowed_types, reason = "R14 fixture")]
    pub fn elapsed() {
        let _ = std::time::Instant::now();
    }

    #[expect(clippy::disallowed_methods, reason = "R14 fixture")]
    pub fn epoch_age() {
        let _ = std::time::UNIX_EPOCH.elapsed();
    }

    pub fn save_run(now: SimTime, executed: u64) -> Value {
        Value::map()
            .put("now", &now)
            .put("executed", &executed)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::classify;
    use std::collections::HashSet;

    #[test]
    fn classify_paths() {
        let c = classify("crates/mac/src/world.rs").unwrap();
        assert_eq!(c.crate_name, "mac");
        assert!(c.is_library && c.is_sim && c.is_hot && !c.is_city);
        for bin in ["crates/bench/src/bin/fig05.rs", "crates/core/src/main.rs"] {
            assert!(!classify(bin).unwrap().is_library, "{bin}");
        }
        let c = classify("crates/sim/tests/determinism.rs").unwrap();
        assert!(!c.is_library && c.is_sim);
        for city in [
            "crates/deploy/src/city/runtime.rs",
            "crates/deploy/src/city/mod.rs",
        ] {
            let c = classify(city).unwrap();
            assert!(c.is_city && c.is_library && !c.is_hot, "{city}");
        }
        let c = classify("crates/deploy/src/citybuild.rs").unwrap();
        assert!(c.is_sim && !c.is_city);
        let c = classify("crates/bench/src/ckpt_run.rs").unwrap();
        assert!(c.is_library && !c.is_sim && !c.is_hot);
        assert!(classify("crates/rf/src/lib.rs").is_some_and(|c| !c.is_hot));
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("crates/Cargo.toml"), None);
    }

    /// Test code is exempt from every rule: it may hash, time, unwrap and
    /// compare floats exactly.
    #[test]
    fn test_code_is_exempt() {
        let t = std::time::Instant::now();
        let seen: HashSet<u8> = [1, 2].into_iter().collect();
        assert_eq!(seen.len(), 2);
        assert!(t.elapsed().as_secs_f64() >= 0.0);
        assert!([1.5f64].first().copied().unwrap() == 1.5);
    }
}
