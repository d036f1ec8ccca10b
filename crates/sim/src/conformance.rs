//! Runtime conformance checking: a violation sink plus pluggable invariants.
//!
//! The simulator's credibility rests on physics it never re-checks at run
//! time: airtime cannot exceed wall time, DCF transmissions cannot start
//! before DIFS expires, harvested energy cannot exceed incident energy. This
//! module is the substrate for asserting those properties *while the
//! simulation runs*, without contaminating any simulation API:
//!
//! * A thread-local **violation sink** ([`report`], [`take`],
//!   [`assert_clean`]) mirrors the [`crate::obs::metrics`] idiom: the harness
//!   (a test, the bench sweep engine, the fuzz driver) enables checking on
//!   its thread, the instrumented layers report into the sink as they go,
//!   and the harness collects afterwards. Nothing in the simulation reads
//!   the sink back, so enabling it cannot perturb results or determinism.
//! * A generic [`Invariant`] trait plus [`InvariantSuite`] runs whole-world
//!   audits (e.g. "per-channel busy time ≤ wall time"); a layer makes one
//!   periodic by posting it as a self-re-posting typed event, as the MAC's
//!   audit does.
//!
//! Checks are compiled in but **off by default**; the hot paths pay one
//! thread-local boolean read when disabled.

use crate::time::SimTime;
use core::fmt;
use std::cell::{Cell, RefCell};

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier, e.g. `"dcf/difs"` or `"harvest/energy"`.
    pub rule: &'static str,
    /// Simulation time at which the violation was observed.
    pub at: SimTime,
    /// Human-readable detail (offending values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} at {}", self.rule, self.detail, self.at)
    }
}

/// Retain at most this many violations verbatim; beyond that only count.
/// A broken invariant in a saturated scenario can fire millions of times.
const MAX_RETAINED: usize = 64;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static LOG: RefCell<Vec<Violation>> = const { RefCell::new(Vec::new()) };
}

/// Whether conformance checking is enabled on this thread.
///
/// Instrumented layers gate their checks on this so disabled runs pay only
/// a thread-local boolean read.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turn conformance checking on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|c| c.set(on));
}

/// Clear this thread's recorded violations (the enabled flag is untouched).
pub fn reset() {
    COUNT.with(|c| c.set(0));
    LOG.with(|l| l.borrow_mut().clear());
}

/// Record a violation into this thread's sink.
///
/// Callers normally gate on [`enabled`] before doing the (possibly costly)
/// check itself; `report` records unconditionally so that explicit one-shot
/// checks can use the sink too.
pub fn report(rule: &'static str, at: SimTime, detail: String) {
    COUNT.with(|c| c.set(c.get().saturating_add(1)));
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        if log.len() < MAX_RETAINED {
            log.push(Violation { rule, at, detail });
        }
    });
}

/// Total violations reported on this thread since the last [`reset`].
pub fn violation_count() -> u64 {
    COUNT.with(Cell::get)
}

/// Clone of the retained violations (at most the first 64).
pub fn violations() -> Vec<Violation> {
    LOG.with(|l| l.borrow().clone())
}

/// Drain the sink: returns `(total count, retained violations)` and clears
/// both. The enabled flag is untouched.
pub fn take() -> (u64, Vec<Violation>) {
    let count = COUNT.with(|c| c.replace(0));
    let log = LOG.with(|l| std::mem::take(&mut *l.borrow_mut()));
    (count, log)
}

/// Panic with a readable report if any violation was recorded.
///
/// `context` names the run being checked (test name, experiment point).
#[expect(clippy::cast_possible_truncation, reason = "R5: lossless on 64-bit")]
pub fn assert_clean(context: &str) {
    let (count, retained) = take();
    if count > 0 {
        let mut msg = format!("{context}: {count} conformance violation(s)\n");
        for v in &retained {
            msg.push_str(&format!("  {v}\n"));
        }
        if count as usize > retained.len() {
            msg.push_str(&format!(
                "  … and {} more\n",
                count as usize - retained.len()
            ));
        }
        panic!("{msg}");
    }
}

/// RAII scope for checked runs: construction resets the sink and enables
/// checking; drop disables it again (without asserting — call
/// [`assert_clean`] explicitly so failures carry a context string and are
/// not raised from a destructor during unwinding).
#[must_use = "checking stops when the guard drops"]
pub struct Guard {
    _priv: (),
}

/// Reset the sink and enable checking on this thread; returns the guard
/// that disables checking when dropped.
pub fn check() -> Guard {
    reset();
    set_enabled(true);
    Guard { _priv: () }
}

impl Drop for Guard {
    fn drop(&mut self) {
        set_enabled(false);
    }
}

/// A whole-world invariant, audited periodically against world state.
///
/// Implementations either return `Err(detail)` for a single finding (the
/// suite reports it under [`Invariant::name`]) or call [`report`] directly
/// for multiple findings and return `Ok(())`.
pub trait Invariant<W> {
    /// Stable rule identifier used when reporting `Err` findings.
    fn name(&self) -> &'static str;
    /// Inspect the world at `now`; `Err` is reported as a violation.
    fn check(&mut self, world: &W, now: SimTime) -> Result<(), String>;
}

/// A set of invariants audited together.
pub struct InvariantSuite<W> {
    checks: Vec<Box<dyn Invariant<W>>>,
}

impl<W> Default for InvariantSuite<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> InvariantSuite<W> {
    /// An empty suite.
    pub fn new() -> InvariantSuite<W> {
        InvariantSuite { checks: Vec::new() }
    }

    /// Add an invariant to the suite.
    pub fn push(&mut self, inv: impl Invariant<W> + 'static) {
        self.checks.push(Box::new(inv));
    }

    /// Run every invariant once against `world` at `now`; returns the number
    /// of violations reported during the pass.
    pub fn run(&mut self, world: &W, now: SimTime) -> u64 {
        let before = violation_count();
        for inv in &mut self.checks {
            if let Err(detail) = inv.check(world, now) {
                report(inv.name(), now, detail);
            }
        }
        violation_count() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counts_and_retains() {
        let _g = check();
        assert!(enabled());
        assert_eq!(violation_count(), 0);
        report("test/rule", SimTime::from_micros(3), "boom".into());
        assert_eq!(violation_count(), 1);
        let (n, v) = take();
        assert_eq!(n, 1);
        assert_eq!(v[0].rule, "test/rule");
        assert!(format!("{}", v[0]).contains("test/rule"));
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn retention_is_bounded_but_count_is_not() {
        let _g = check();
        for i in 0..200u64 {
            report("test/flood", SimTime::from_nanos(i), format!("v{i}"));
        }
        assert_eq!(violation_count(), 200);
        assert_eq!(violations().len(), MAX_RETAINED);
        reset();
        assert_eq!(violation_count(), 0);
    }

    #[test]
    fn guard_disables_on_drop() {
        {
            let _g = check();
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    #[should_panic(expected = "conformance violation")]
    fn assert_clean_panics_on_violation() {
        let _g = check();
        report("test/rule", SimTime::ZERO, "bad".into());
        assert_clean("assert_clean_panics_on_violation");
    }

    #[test]
    fn sink_is_per_thread() {
        let _g = check();
        report("test/rule", SimTime::ZERO, "here".into());
        std::thread::spawn(|| {
            assert!(!enabled());
            assert_eq!(violation_count(), 0);
        })
        .join()
        .unwrap();
        assert_eq!(violation_count(), 1);
        reset();
    }

    struct NonNegative;
    impl Invariant<i64> for NonNegative {
        fn name(&self) -> &'static str {
            "test/non-negative"
        }
        fn check(&mut self, world: &i64, _now: SimTime) -> Result<(), String> {
            if *world < 0 {
                Err(format!("world is {world}"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn suite_reports_err_under_invariant_name() {
        let _g = check();
        let mut suite = InvariantSuite::new();
        suite.push(NonNegative);
        assert_eq!(suite.run(&5, SimTime::ZERO), 0);
        assert_eq!(suite.run(&-2, SimTime::from_micros(1)), 1);
        let (n, v) = take();
        assert_eq!(n, 1);
        assert_eq!(v[0].rule, "test/non-negative");
        assert!(v[0].detail.contains("-2"));
    }
}
