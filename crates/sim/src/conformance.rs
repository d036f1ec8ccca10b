//! Runtime conformance checking: a thread-local violation sink.
//!
//! The simulator's credibility rests on physics it never re-checks at run
//! time: airtime cannot exceed wall time, DCF transmissions cannot start
//! before DIFS expires, harvested energy cannot exceed incident energy. This
//! module is the substrate for asserting those properties *while the
//! simulation runs*, without contaminating any simulation API:
//!
//! * Instrumented layers gate their checks on [`enabled`] and [`report`]
//!   what they find into this thread's sink. A whole-world audit is plain
//!   code that reports the same way; a layer makes one periodic by posting
//!   it as a self-re-posting typed event, as the MAC's audit does. Nothing
//!   in the simulation reads the sink back, so enabling it cannot perturb
//!   results or determinism.
//! * A harness (the bench sweep engine, the fuzz driver, the golden corpus,
//!   the sharded city's workers) collects one way: [`capture`] runs a
//!   closure with checking on in a sink of its own and restores the
//!   caller's sink exactly, so checked runs nest. [`absorb`] merges a
//!   captured pair into the current sink, as the city merges its workers'.
//! * Tests use [`check`] and [`assert_clean`].
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
fn set_enabled(on: bool) {
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

/// Merge a captured `(count, retained)` pair into this thread's sink: the
/// count adds in full, and the retained violations fill the free retention
/// slots in order.
pub fn absorb(count: u64, retained: Vec<Violation>) {
    COUNT.with(|c| c.set(c.get().saturating_add(count)));
    LOG.with(|l| {
        let mut log = l.borrow_mut();
        let room = MAX_RETAINED.saturating_sub(log.len());
        log.extend(retained.into_iter().take(room));
    });
}

/// Run `f` with checking enabled in a sink of its own. Returns `f`'s result
/// with `f`'s `(count, retained)` pair, and restores the caller's enabled
/// flag, count and retained violations exactly, so a checked sub-run
/// leaves an enclosing checked test or sweep as it found it.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, (u64, Vec<Violation>)) {
    let was_enabled = enabled();
    let (count, retained) = take();
    set_enabled(true);
    let out = f();
    let captured = take();
    set_enabled(was_enabled);
    absorb(count, retained);
    (out, captured)
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

    #[test]
    fn captures_nest_and_restore_the_callers_sink() {
        let ((), _) = capture(|| assert!(enabled()));
        assert!(!enabled(), "a disabled caller stays disabled");
        let _g = check();
        report("test/before", SimTime::ZERO, "a".into());
        let ((), (n, inner)) = capture(|| {
            report("test/inner", SimTime::ZERO, "b".into());
            let ((), (m, _)) = capture(|| report("test/nested", SimTime::ZERO, "c".into()));
            assert_eq!(m, 1);
        });
        assert!(enabled(), "the caller's flag is restored");
        report("test/after", SimTime::ZERO, "d".into());
        assert_eq!((n, inner[0].rule), (1, "test/inner"));
        let (n, v) = take();
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert_eq!((n, rules), (2, vec!["test/before", "test/after"]));
    }

    #[test]
    fn absorb_adds_the_count_and_fills_free_slots() {
        let _g = check();
        report("test/own", SimTime::ZERO, "a".into());
        let worker = |i| Violation {
            rule: "test/worker",
            at: SimTime::ZERO,
            detail: format!("w{i}"),
        };
        absorb(100, (0..70).map(worker).collect());
        let v = violations();
        assert_eq!((violation_count(), v.len()), (101, MAX_RETAINED));
        assert_eq!((v[0].rule, v[1].detail.as_str()), ("test/own", "w0"));
        reset();
    }
}
