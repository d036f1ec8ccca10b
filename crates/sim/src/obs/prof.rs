//! Deterministic hierarchical span profiler.
//!
//! Answers "where does time go?" for a simulation run, in two currencies at
//! once:
//!
//! * **Sim time** — how much *simulated* time each subsystem accounts for
//!   (frame airtime inside the DCF, integration steps inside the harvester,
//!   …). Instrumented code attributes it explicitly via [`attr`], so the
//!   numbers are exact, deterministic, and golden-testable: byte-identical
//!   at any `--jobs` level and across debug/release builds.
//! * **Wall time** — how long each span took on the host clock. This is the
//!   only place outside `crates/bench` allowed to touch
//!   [`std::time::Instant`] (lint rule R7); it is opt-in via
//!   [`enable`]`(true)`, used only by the traced pass of the
//!   `powifi-benchmark` crate, and every rendered wall field carries the
//!   `wall_ms` key token so golden comparisons strip it. Wall time is *sampled* (1 in [`WALL_SAMPLE_EVERY`] entries, plus
//!   each node's first) and scaled up at snapshot time, so wall mode no
//!   longer dominates the very event loop it is measuring.
//!
//! Spans nest: [`span`] returns an RAII guard that makes its node the
//! innermost open span and restores the enclosing one on drop, so the same
//! span name under different parents is attributed separately (a true call
//! *tree*, not a flat tag set). The tree lives in a thread-local arena with
//! `BTreeMap`-ordered children, so snapshots render in stable name order.
//!
//! Like [`super::trace`] and [`super::metrics`], the profiler follows the
//! one-branch-when-off discipline: [`span`] and [`attr`] check a
//! thread-local [`enabled`] flag first and return inert values when the
//! profiler is off, so uninstrumented runs pay a single predictable branch
//! per site. The simulation never reads profiler state back, so enabling it
//! cannot perturb results.
//!
//! See `docs/OBSERVABILITY.md` ("Profiling") for the span catalogue and
//! `powifi-obs prof`, the inspector that reads these snapshots back.

use crate::time::SimDuration;
use serde_json::{write_float, write_string};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sample one in this many span entries for wall timing (power of two).
/// Reading the host clock twice per span costs more than the rest of the
/// span bookkeeping combined at simulator event rates (tens of millions of
/// spans per run), so wall mode times a deterministic 1-in-512 subsample
/// (plus every node's first entry) and scales by the observed count at
/// snapshot time. Wall numbers are nondeterministic and stripped from
/// goldens, so the estimate costs nothing in reproducibility; hot spans
/// still collect tens of thousands of samples per run.
const WALL_SAMPLE_EVERY: u64 = 512;

/// One node of the arena call tree (see [`ProfState`]).
#[derive(Debug)]
struct Node {
    name: &'static str,
    /// Child name → arena index. BTree order gives stable rendering.
    children: BTreeMap<&'static str, usize>,
    /// One-entry lookup cache: the last child entered under this node. Hot
    /// loops re-enter the same child span millions of times in a row, so a
    /// pointer compare on the `&'static str` skips any map walk; a miss
    /// falls back to `by_ptr`, so equal-content names still unify.
    last_child: Option<(&'static str, usize)>,
    /// Pointer-keyed child lookup: one entry per distinct `&'static str`
    /// pointer seen, scanned linearly (span fan-out is tiny). Names are
    /// string literals, so the pointer is a stable identity per call site;
    /// a content-equal name from a different site falls through to the
    /// ordered map once and is then added here.
    by_ptr: Vec<(*const u8, usize)>,
    /// Times this span was entered.
    count: u64,
    /// Sim time attributed directly to this span via [`attr`].
    sim_self_ns: u64,
    /// Largest single [`attr`] observation.
    sim_max_ns: u64,
    /// Wall time from enter to drop, accumulated over *sampled* entries
    /// (inclusive of children).
    wall_ns: u64,
    /// Number of sampled entries contributing to `wall_ns`.
    wall_sampled: u64,
    /// Largest single enter-to-drop wall observation (among samples).
    wall_max_ns: u64,
}

impl Node {
    fn new(name: &'static str) -> Node {
        Node {
            name,
            children: BTreeMap::new(),
            last_child: None,
            by_ptr: Vec::new(),
            count: 0,
            sim_self_ns: 0,
            sim_max_ns: 0,
            wall_ns: 0,
            wall_sampled: 0,
            wall_max_ns: 0,
        }
    }
}

/// Arena-backed call tree. Index 0 is a synthetic root that is never
/// rendered; the innermost *open* span lives outside the arena, in
/// [`Prof::cur`], so closing a span does not need to borrow this state.
#[derive(Debug)]
struct ProfState {
    arena: Vec<Node>,
}

impl ProfState {
    fn new() -> ProfState {
        ProfState {
            arena: vec![Node::new("")],
        }
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.arena.push(Node::new(""));
    }
}

/// Slots in the direct-mapped hot-entry cache (power of two).
const HOT_SLOTS: usize = 8;

/// One slot of the hot-entry cache: the last `(parent, name)` pair resolved
/// whose parent hashes (`parent & (HOT_SLOTS-1)`) here, plus entry counts
/// not yet flushed into the node. A node's counts can only accumulate via
/// its one `(parent, name)` slot, so flushing the slot before the arena is
/// read (or on eviction) keeps `Node::count` exact.
struct HotSlot {
    parent: Cell<usize>,
    /// The name's `as_ptr()` address (0 = empty). Names are `'static`
    /// literals, so the address is a stable identity per call site.
    name: Cell<usize>,
    idx: Cell<usize>,
    pending: Cell<u64>,
}

impl HotSlot {
    fn new() -> HotSlot {
        HotSlot {
            parent: Cell::new(usize::MAX),
            name: Cell::new(0),
            idx: Cell::new(0),
            pending: Cell::new(0),
        }
    }

    fn clear(&self) {
        self.parent.set(usize::MAX);
        self.name.set(0);
        self.idx.set(0);
        self.pending.set(0);
    }
}

/// All per-thread profiler state behind a single thread-local, so the span
/// hot path pays one TLS access per operation instead of three.
///
/// `cur` is the arena index of the innermost open span (0 = root). Each
/// [`SpanGuard`] remembers the previous value and restores it on drop — a
/// plain `Cell` store, with no `RefCell` traffic on the close path unless
/// the entry was wall-sampled. A stale `cur` (guard dropped after a
/// [`reset`] shrank the arena) is caught by bounds checks at the next use
/// and falls back to the root.
///
/// `hot` lets a repeat entry of the same child under the same parent skip
/// the `RefCell` borrow entirely: the count increment is banked in the
/// slot's `pending` cell and flushed into the arena on eviction and before
/// every snapshot.
struct Prof {
    enabled: Cell<bool>,
    wall: Cell<bool>,
    cur: Cell<usize>,
    /// Monotone span-entry counter driving wall sampling.
    tick: Cell<u64>,
    hot: [HotSlot; HOT_SLOTS],
    state: RefCell<ProfState>,
}

impl Prof {
    /// Flush every hot slot's pending count into the arena.
    fn flush_hot(&self, s: &mut ProfState) {
        for h in &self.hot {
            let pend = h.pending.get();
            if pend > 0 {
                if let Some(n) = s.arena.get_mut(h.idx.get()) {
                    n.count += pend;
                }
                h.pending.set(0);
            }
        }
    }

    fn clear_hot(&self) {
        for h in &self.hot {
            h.clear();
        }
        self.tick.set(0);
    }
}

thread_local! {
    static PROF: Prof = Prof {
        enabled: const { Cell::new(false) },
        wall: const { Cell::new(false) },
        cur: const { Cell::new(0) },
        tick: const { Cell::new(0) },
        hot: std::array::from_fn(|_| HotSlot::new()),
        state: RefCell::new(ProfState::new()),
    };
}

/// Is the profiler recording on this thread? Instrumented code checks this
/// (inside [`span`] / [`attr`]) so the disabled path costs one branch.
#[inline]
pub fn enabled() -> bool {
    PROF.with(|p| p.enabled.get())
}

/// Is wall-clock timing on for this thread's profiler?
pub fn wall_enabled() -> bool {
    PROF.with(|p| p.wall.get())
}

/// Start recording on this thread and clear any previous tree. With
/// `wall = true` each span also accumulates host-clock time (bench-only;
/// wall fields are nondeterministic, sampled, and stripped from goldens).
pub fn enable(wall: bool) {
    PROF.with(|p| {
        p.state.borrow_mut().clear();
        p.clear_hot();
        p.cur.set(0);
        p.wall.set(wall);
        p.enabled.set(true);
    });
}

/// Stop recording on this thread. The tree is kept until [`reset`] or the
/// next [`enable`], so it can still be snapshotted.
pub fn disable() {
    PROF.with(|p| p.enabled.set(false));
}

/// Clear this thread's tree and open-span stack without changing the
/// enabled flags.
pub fn reset() {
    PROF.with(|p| {
        p.state.borrow_mut().clear();
        p.clear_hot();
        p.cur.set(0);
    });
}

/// RAII guard for one open span; created by [`span`], pops on drop.
/// Inert (a single dead branch on drop) when the profiler is disabled.
#[must_use = "a span guard attributes time until it is dropped"]
pub struct SpanGuard {
    active: bool,
    /// Arena index of the enclosing span, restored into [`Prof::cur`] on
    /// drop.
    prev: usize,
    start: Option<Instant>,
}

/// Enter the span `name` under the innermost open span. Returns a guard
/// that closes the span when dropped. When the profiler is disabled this is
/// one thread-local read and one branch, no allocation.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    PROF.with(|p| {
        if !p.enabled.get() {
            return SpanGuard {
                active: false,
                prev: 0,
                start: None,
            };
        }
        // Hot path: re-entering the child the cache already resolved for
        // this parent banks the count in the slot and never borrows the
        // arena. A cached node was entered before, so it is never "first"
        // for the first-entry wall sample.
        let parent = p.cur.get();
        let h = &p.hot[parent & (HOT_SLOTS - 1)];
        if h.parent.get() == parent && h.name.get() == name.as_ptr() as usize {
            h.pending.set(h.pending.get() + 1);
            p.cur.set(h.idx.get());
            let start = if p.wall.get() {
                let t = p.tick.get().wrapping_add(1);
                p.tick.set(t);
                t.is_multiple_of(WALL_SAMPLE_EVERY).then(Instant::now)
            } else {
                None
            };
            return SpanGuard {
                active: true,
                prev: parent,
                start,
            };
        }
        enter(p, name)
    })
}

#[cold]
fn enter(p: &Prof, name: &'static str) -> SpanGuard {
    let mut s = p.state.borrow_mut();
    let s = &mut *s;
    // A `cur` pointing past the arena means a guard outlived a reset that
    // shrank the tree; re-root rather than index out of bounds.
    let parent = match p.cur.get() {
        i if i < s.arena.len() => i,
        _ => 0,
    };
    // Evict this parent's hot slot: flush its banked count (this node's
    // pending, if the slot held the same pair, so `count` below is exact)
    // and re-point it at the entry we are about to resolve.
    let h = &p.hot[parent & (HOT_SLOTS - 1)];
    let pend = h.pending.get();
    if pend > 0 {
        if let Some(n) = s.arena.get_mut(h.idx.get()) {
            n.count += pend;
        }
        h.pending.set(0);
    }
    // Pointer-compare against the last child entered under this parent;
    // fall back to the ordered map on a miss (first entry, or alternating
    // children) so equal-content names still resolve to one node.
    let idx = match s.arena[parent].last_child {
        Some((cached, idx)) if std::ptr::eq(cached.as_ptr(), name.as_ptr()) => idx,
        _ => {
            let hit = s.arena[parent]
                .by_ptr
                .iter()
                .find(|&&(p, _)| std::ptr::eq(p, name.as_ptr()))
                .map(|&(_, i)| i);
            let idx = match hit {
                Some(idx) => idx,
                None => {
                    let idx = match s.arena[parent].children.get(name).copied() {
                        Some(idx) => idx,
                        None => {
                            let idx = s.arena.len();
                            s.arena.push(Node::new(name));
                            s.arena[parent].children.insert(name, idx);
                            idx
                        }
                    };
                    s.arena[parent].by_ptr.push((name.as_ptr(), idx));
                    idx
                }
            };
            s.arena[parent].last_child = Some((name, idx));
            idx
        }
    };
    h.parent.set(parent);
    h.name.set(name.as_ptr() as usize);
    h.idx.set(idx);
    let n = &mut s.arena[idx];
    n.count += 1;
    let first = n.count == 1;
    let sampled = p.wall.get() && {
        let t = p.tick.get().wrapping_add(1);
        p.tick.set(t);
        first || t.is_multiple_of(WALL_SAMPLE_EVERY)
    };
    p.cur.set(idx);
    SpanGuard {
        active: true,
        prev: parent,
        start: if sampled { Some(Instant::now()) } else { None },
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let wall_ns = self
            .start
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        PROF.with(|p| {
            if let Some(ns) = wall_ns {
                let mut s = p.state.borrow_mut();
                let idx = p.cur.get();
                if idx != 0 {
                    if let Some(n) = s.arena.get_mut(idx) {
                        n.wall_ns = n.wall_ns.saturating_add(ns);
                        n.wall_sampled += 1;
                        n.wall_max_ns = n.wall_max_ns.max(ns);
                    }
                }
            }
            p.cur.set(self.prev);
        });
    }
}

/// Attribute `d` of simulated time to the innermost open span. One branch
/// when the profiler is disabled; a no-op when no span is open.
#[inline]
pub fn attr(d: SimDuration) {
    PROF.with(|p| {
        if !p.enabled.get() {
            return;
        }
        attr_slow(p, d);
    });
}

#[cold]
fn attr_slow(p: &Prof, d: SimDuration) {
    let idx = p.cur.get();
    if idx == 0 {
        return; // no span open; nowhere meaningful to attribute
    }
    let mut s = p.state.borrow_mut();
    let ns = d.as_nanos();
    let Some(n) = s.arena.get_mut(idx) else {
        return; // stale guard after a reset; nothing to attribute to
    };
    n.sim_self_ns = n.sim_self_ns.saturating_add(ns);
    n.sim_max_ns = n.sim_max_ns.max(ns);
}

/// One span of a [`ProfSnapshot`]: stats plus name-ordered children.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfSpan {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Sim time attributed directly to this span (ns).
    pub sim_self_ns: u64,
    /// Sim time of this span plus all descendants (ns).
    pub sim_total_ns: u64,
    /// Largest single [`attr`] observation (ns).
    pub sim_max_ns: u64,
    /// Estimated wall time, enter to drop (ns); only when wall timing was
    /// enabled. Extrapolated from a 1-in-[`WALL_SAMPLE_EVERY`] subsample of
    /// entries. Rendered as `wall_ms` so golden filters strip it.
    pub wall_ns: Option<u64>,
    /// Largest single enter-to-drop wall time (ns) among sampled entries;
    /// only with wall timing.
    pub wall_max_ns: Option<u64>,
    /// Child spans in name order.
    pub children: Vec<ProfSpan>,
}

/// Immutable, stable-ordered copy of one thread's span tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfSnapshot {
    /// Whether wall-clock timing was on when the tree was recorded.
    pub wall: bool,
    /// Top-level spans in name order.
    pub roots: Vec<ProfSpan>,
}

/// Copy this thread's span tree without clearing it. Totals are computed
/// bottom-up (self + descendants) at snapshot time.
pub fn snapshot() -> ProfSnapshot {
    PROF.with(|p| {
        let mut s = p.state.borrow_mut();
        p.flush_hot(&mut s);
        let wall = p.wall.get();
        ProfSnapshot {
            wall,
            roots: s.arena[0]
                .children
                .values()
                .map(|&idx| copy_span(&s.arena, idx, wall))
                .collect(),
        }
    })
}

/// Scale a node's sampled wall accumulation up to its full entry count.
fn estimate_wall_ns(n: &Node) -> u64 {
    if n.wall_sampled == 0 {
        return 0;
    }
    u64::try_from(u128::from(n.wall_ns) * u128::from(n.count) / u128::from(n.wall_sampled))
        .unwrap_or(u64::MAX)
}

fn copy_span(arena: &[Node], idx: usize, wall: bool) -> ProfSpan {
    let n = &arena[idx];
    let children: Vec<ProfSpan> = n
        .children
        .values()
        .map(|&c| copy_span(arena, c, wall))
        .collect();
    let sim_total_ns = n.sim_self_ns + children.iter().map(|c| c.sim_total_ns).sum::<u64>();
    ProfSpan {
        name: n.name.to_string(),
        count: n.count,
        sim_self_ns: n.sim_self_ns,
        sim_total_ns,
        sim_max_ns: n.sim_max_ns,
        wall_ns: wall.then(|| estimate_wall_ns(n)),
        wall_max_ns: wall.then_some(n.wall_max_ns),
        children,
    }
}

fn push_span_json(out: &mut String, sp: &ProfSpan) {
    out.push_str("{\"name\":");
    write_string(out, &sp.name);
    let _ = write!(
        out,
        ",\"count\":{},\"sim_self_ns\":{},\"sim_total_ns\":{},\"sim_max_ns\":{}",
        sp.count, sp.sim_self_ns, sp.sim_total_ns, sp.sim_max_ns
    );
    if let Some(w) = sp.wall_ns {
        out.push_str(",\"wall_ms\":");
        write_float(out, w as f64 / 1e6);
    }
    if let Some(w) = sp.wall_max_ns {
        out.push_str(",\"max_wall_ms\":");
        write_float(out, w as f64 / 1e6);
    }
    out.push_str(",\"children\":[");
    for (i, c) in sp.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_span_json(out, c);
    }
    out.push_str("]}");
}

impl ProfSnapshot {
    /// Render the tree as one line of stable JSON: fixed field order,
    /// name-sorted children, wall fields only when wall timing was on
    /// (and then under `wall_ms`-token keys so golden filters drop them).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"wall\":{},\"spans\":[", self.wall);
        for (i, sp) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_span_json(&mut out, sp);
        }
        out.push_str("]}");
        out
    }

    /// Render the indented tree the `powifi-obs prof tree` inspector
    /// prints under each point's header line: one span per line, roots
    /// indented two spaces and two more per level, sim times in
    /// [`SimDuration`]'s units (`  name count=N total=T self=S max=M`).
    /// An empty tree renders as `  (no spans)`.
    pub fn render_tree(&self) -> String {
        fn walk(out: &mut String, sp: &ProfSpan, depth: usize) {
            let _ = writeln!(
                out,
                "{:indent$}{} count={} total={} self={} max={}",
                "",
                sp.name,
                sp.count,
                SimDuration::from_nanos(sp.sim_total_ns),
                SimDuration::from_nanos(sp.sim_self_ns),
                SimDuration::from_nanos(sp.sim_max_ns),
                indent = depth * 2
            );
            for c in &sp.children {
                walk(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        if self.roots.is_empty() {
            out.push_str("  (no spans)\n");
        }
        for sp in &self.roots {
            walk(&mut out, sp, 1);
        }
        out
    }

    /// Render folded stacks (`parent;child;leaf value`) over sim self time,
    /// the input format flamegraph tools consume: one line per span with
    /// nonzero self time, and one per leaf even at zero.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, sp) in self.flatten() {
            if sp.sim_self_ns > 0 || sp.children.is_empty() {
                let _ = writeln!(out, "{path} {}", sp.sim_self_ns);
            }
        }
        out
    }

    /// Flatten the tree into `(path, span)` pairs in depth-first order,
    /// with `path` rendered `a;b;c`. Used by `powifi-obs prof top`.
    pub fn flatten(&self) -> Vec<(String, &ProfSpan)> {
        fn walk<'a>(out: &mut Vec<(String, &'a ProfSpan)>, prefix: &str, sp: &'a ProfSpan) {
            let path = if prefix.is_empty() {
                sp.name.clone()
            } else {
                format!("{prefix};{}", sp.name)
            };
            out.push((path.clone(), sp));
            for c in &sp.children {
                walk(out, &path, c);
            }
        }
        let mut out = Vec::new();
        for sp in &self.roots {
            walk(&mut out, "", sp);
        }
        out
    }

    /// True when the tree recorded nothing (no spans entered).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// Run `f` with the profiler enabled (sim-time only, wall off) on this
/// thread, returning its result and the final snapshot. Restores the
/// previous enabled/wall flags afterwards, so captures nest safely.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, ProfSnapshot) {
    let prev_enabled = enabled();
    let prev_wall = wall_enabled();
    enable(false);
    let out = f();
    let snap = snapshot();
    PROF.with(|p| {
        p.enabled.set(prev_enabled);
        p.wall.set(prev_wall);
        p.state.borrow_mut().clear();
        p.clear_hot();
        p.cur.set(0);
    });
    (out, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        disable();
        reset();
        {
            let _g = span("t.outer");
            attr(SimDuration::from_micros(5));
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn nested_spans_build_a_tree_with_totals() {
        let ((), snap) = capture(|| {
            let _a = span("t.a");
            attr(SimDuration::from_nanos(10));
            {
                let _b = span("t.b");
                attr(SimDuration::from_nanos(7));
                attr(SimDuration::from_nanos(3));
            }
            {
                let _b = span("t.b");
                attr(SimDuration::from_nanos(1));
            }
        });
        assert_eq!(snap.roots.len(), 1);
        let a = &snap.roots[0];
        assert_eq!(a.name, "t.a");
        assert_eq!(a.count, 1);
        assert_eq!(a.sim_self_ns, 10);
        assert_eq!(a.sim_total_ns, 21);
        assert_eq!(a.children.len(), 1);
        let b = &a.children[0];
        assert_eq!(b.count, 2);
        assert_eq!(b.sim_self_ns, 11);
        assert_eq!(b.sim_max_ns, 7);
        assert!(!snap.wall);
        assert!(a.wall_ns.is_none());
    }

    #[test]
    fn same_name_under_different_parents_is_separate() {
        let ((), snap) = capture(|| {
            {
                let _p = span("t.p1");
                let _l = span("t.leaf");
                attr(SimDuration::from_nanos(1));
            }
            {
                let _p = span("t.p2");
                let _l = span("t.leaf");
                attr(SimDuration::from_nanos(2));
            }
        });
        assert_eq!(snap.roots.len(), 2);
        assert_eq!(snap.roots[0].children[0].sim_self_ns, 1);
        assert_eq!(snap.roots[1].children[0].sim_self_ns, 2);
    }

    #[test]
    fn attr_outside_any_span_is_dropped() {
        let ((), snap) = capture(|| {
            attr(SimDuration::from_secs(1));
            let _g = span("t.x");
        });
        assert_eq!(snap.roots.len(), 1);
        assert_eq!(snap.roots[0].sim_total_ns, 0);
    }

    #[test]
    fn json_is_stable_and_name_ordered() {
        let ((), snap) = capture(|| {
            {
                let _z = span("t.z");
                attr(SimDuration::from_nanos(2));
            }
            let _a = span("t.a");
            attr(SimDuration::from_nanos(1));
        });
        let j = snap.to_json();
        assert_eq!(
            j,
            "{\"wall\":false,\"spans\":[\
             {\"name\":\"t.a\",\"count\":1,\"sim_self_ns\":1,\"sim_total_ns\":1,\
             \"sim_max_ns\":1,\"children\":[]},\
             {\"name\":\"t.z\",\"count\":1,\"sim_self_ns\":2,\"sim_total_ns\":2,\
             \"sim_max_ns\":2,\"children\":[]}]}"
        );
        assert!(!j.contains("wall_ms"), "wall keys must be absent when off");
    }

    #[test]
    fn wall_mode_emits_wall_ms_keys_only() {
        enable(true);
        {
            let _g = span("t.w");
        }
        let snap = snapshot();
        disable();
        reset();
        PROF.with(|p| p.wall.set(false));
        assert!(snap.wall);
        let j = snap.to_json();
        assert!(j.contains("\"wall_ms\":"));
        assert!(j.contains("\"max_wall_ms\":"));
    }

    #[test]
    fn folded_stacks_cover_leaves_and_self_time() {
        let ((), snap) = capture(|| {
            let _a = span("t.a");
            attr(SimDuration::from_nanos(4));
            let _b = span("t.b");
            attr(SimDuration::from_nanos(6));
        });
        let folded = snap.render_folded();
        assert_eq!(folded, "t.a 4\nt.a;t.b 6\n");
    }

    #[test]
    fn tree_renders_one_indented_line_per_span() {
        let ((), snap) = capture(|| {
            let _a = span("t.a");
            attr(SimDuration::from_micros(2));
            let _b = span("t.b");
            attr(SimDuration::from_nanos(5));
        });
        assert_eq!(
            snap.render_tree(),
            "  t.a count=1 total=2.005us self=2.000us max=2.000us\n\
             \x20   t.b count=1 total=5ns self=5ns max=5ns\n"
        );
        assert_eq!(ProfSnapshot::default().render_tree(), "  (no spans)\n");
    }

    #[test]
    fn capture_restores_disabled_state() {
        disable();
        let _ = capture(|| {
            assert!(enabled());
        });
        assert!(!enabled());
        assert!(snapshot().is_empty());
    }
}
