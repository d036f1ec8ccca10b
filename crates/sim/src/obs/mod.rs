//! Deterministic observability: metrics registry, structured traces, and a
//! hierarchical span profiler ([`prof`]).
//!
//! The paper's router *is* an observability loop — it meters per-channel
//! occupancy with the tshark airtime formula and gates power packets on live
//! transmit-queue depth (§3.1, Fig. 5). This module gives the simulator the
//! matching instrumentation: a [`metrics`] registry of named counters,
//! gauges and histograms, and a [`trace`] subsystem of typed, sim-time-
//! stamped [`trace::TraceEvent`] records that a harness collects with
//! [`trace::capture_jsonl`].
//!
//! Both halves follow the same thread-local idiom as
//! [`crate::conformance`]: the harness enables them on the worker thread
//! that runs a point, the simulation layers record into the current
//! thread's state as they go, and *nothing in the simulation reads any of
//! it back* — so observability can never perturb results or determinism.
//! Records are stamped with [`crate::SimTime`] (never the wall clock, which
//! lint rule R2 forbids in sim crates), so rendered output is byte-identical
//! at any `--jobs` level and across debug/release builds.
//!
//! Hot-path cost when disabled is one branch: instrumented code checks
//! [`trace::enabled`] before building an event, and the metrics registry is
//! only written at run boundaries (end-of-run totals, batched event counts).
//!
//! Batch artifacts are not the whole story: [`stream`] frames live
//! metrics/progress/ckpt records as NDJSON over a bounded non-blocking
//! egress (overflow drops-with-counter, never blocks the event loop), and
//! [`agg`] rolls any such stream — live socket or recorded capture — into
//! deterministic tumbling sim-time windows. `powifi-fleetd` serves multiple
//! deployments over one TCP listener; `powifi-obs fleet` watches, records
//! and aggregates them.
//!
//! The event catalogue is declared once, in [`trace`]. See
//! `docs/OBSERVABILITY.md` for the event kinds, the `powifi-obs`
//! inspector, and the streaming wire format.

pub mod agg;
pub mod metrics;
pub mod prof;
pub mod stream;
pub mod trace;
