//! The discrete-event queue.
//!
//! `EventQueue<W, E>` is a deterministic, single-threaded calendar over a
//! world state `W` and a typed event payload `E`. Every layer posts plain
//! `E` values with [`EventQueue::post_at`]/[`EventQueue::post_in`] — no
//! per-event heap allocation — and the world routes them through its
//! [`Dispatch`] implementation. A periodic handler re-posts its own event
//! after running its body, so repetition needs no separate scheduling API,
//! and every pending event has a serial form for checkpoints.
//!
//! Two events at the same instant fire in scheduling order (FIFO), which —
//! together with integer [`SimTime`] — makes every run bit-reproducible for
//! a given seed.
//!
//! # Implementation: a bucketed timer wheel
//!
//! Pending events live in one of three places, partitioned by time:
//!
//! * the **active heap** — events inside the cursor slot (the current
//!   [`SLOT_WIDTH`] window), kept as a small binary heap ordered by
//!   `(time, seq)`;
//! * the **wheel** — [`SLOTS`] buckets of [`SLOT_WIDTH`] nanoseconds each
//!   (≈ 33.5 ms horizon), unordered within a bucket (ordering is imposed
//!   when the cursor reaches the bucket and heapifies it), with a bitmap
//!   for constant-time empty-slot skipping;
//! * the **overflow map** — a `BTreeMap` keyed by `(time, seq)` for events
//!   beyond the horizon, drained into the wheel as the cursor advances.
//!
//! Determinism argument: global execution order is exactly ascending
//! `(time, seq)`. The wheel partitions events by time window, so any event
//! in a later slot is strictly later than every event in an earlier slot;
//! within the cursor slot the active heap orders by `(time, seq)`; events
//! scheduled mid-drain into the current window join the active heap and
//! sort by the same key. This reproduces the total order of a single
//! global priority queue while touching only O(1) buckets per event.
//!
//! Cancellation is **eager**: [`EventQueue::cancel`] locates the entry via
//! its handle (which carries the scheduled time) and removes it on the
//! spot, so cancelled-but-unpopped entries never accumulate.

use crate::ckpt::CkptError;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::marker::PhantomData;

/// log2 of the wheel slot width: slots are 2^13 ns = 8.192 µs wide.
const SLOT_BITS: u32 = 13;
/// Width of one wheel slot in nanoseconds.
const SLOT_WIDTH: u64 = 1 << SLOT_BITS;
/// Number of wheel slots (must be a power of two).
const SLOTS: usize = 4096;
/// Nanoseconds covered by the whole wheel (≈ 33.5 ms).
const HORIZON: u64 = (SLOTS as u64) << SLOT_BITS;
/// Words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// How a world routes typed events to their handlers.
///
/// Implementations are a match over the event enum calling plain handler
/// functions.
pub trait Dispatch<E>: Sized {
    /// Handle one event. Runs with the queue clock at the event's instant.
    fn dispatch(&mut self, q: &mut EventQueue<Self, E>, ev: E);
}

/// Handle to a scheduled event, usable for cancellation. Carries the
/// scheduled instant so cancellation can locate the entry's bucket
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    seq: u64,
    time: u64,
}

impl EventHandle {
    /// The handle's `(seq, time_ns)` pair, for checkpoint serialization.
    pub fn ckpt_parts(&self) -> (u64, u64) {
        (self.seq, self.time)
    }

    /// Rebuild a handle from checkpointed parts. Only meaningful for a seq
    /// that [`EventQueue::ckpt_restore`] re-inserted at the same time.
    pub fn from_ckpt_parts(seq: u64, time: u64) -> EventHandle {
        EventHandle { seq, time }
    }
}

struct Entry<E> {
    time: u64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic discrete-event calendar over world state `W` with typed
/// event payload `E`.
pub struct EventQueue<W, E> {
    /// Cursor-slot events, ordered by `(time, seq)`.
    active: BinaryHeap<Entry<E>>,
    /// The wheel buckets; the cursor slot's bucket is always empty (its
    /// contents live in `active`).
    slots: Vec<Vec<Entry<E>>>,
    /// Bit `i` set iff `slots[i]` is non-empty.
    occupancy: [u64; WORDS],
    /// Slot-aligned start of the cursor slot, nanoseconds.
    wheel_start: u64,
    /// Entries across all wheel buckets (excluding `active` and overflow).
    wheel_len: usize,
    /// Events beyond the wheel horizon, keyed by `(time, seq)`.
    overflow: BTreeMap<(u64, u64), E>,
    /// Emptied buckets with their capacity. A slot that empties (drained
    /// into `active`, or its last entry cancelled) pushes its bucket here
    /// and a slot filling from empty pops one, so a queue holds as many
    /// allocated buckets as slots it ever had occupied at once.
    spare: Vec<Vec<Entry<E>>>,
    now: SimTime,
    next_seq: u64,
    executed: u64,
    /// The queue only ever hands `&mut W` to [`Dispatch`]; it stores none.
    world: PhantomData<fn(&mut W)>,
}

impl<W, E> Default for EventQueue<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E> EventQueue<W, E> {
    /// An empty queue at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            active: BinaryHeap::new(),
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            occupancy: [0; WORDS],
            wheel_start: 0,
            wheel_len: 0,
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            executed: 0,
            world: PhantomData,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.wheel_len + self.active.len() + self.overflow.len()
    }

    /// Entries physically retained by the queue. Cancellation reclaims
    /// storage eagerly, so this always equals [`EventQueue::pending`];
    /// the leak-regression suite asserts on it so a reintroduced
    /// tombstone scheme (cancelled entries left in place, subtracted from
    /// `pending`) cannot hide.
    pub fn stored(&self) -> usize {
        self.wheel_len + self.active.len() + self.overflow.len()
    }

    /// Wheel buckets holding an allocation: the occupied slots plus the
    /// spare stack.
    #[cfg(test)]
    fn allocated_buckets(&self) -> usize {
        self.slots.iter().filter(|s| s.capacity() > 0).count() + self.spare.len()
    }

    /// Wheel slots holding at least one entry.
    #[cfg(test)]
    fn occupied_slots(&self) -> usize {
        self.occupancy.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// File an entry into the active heap, a wheel bucket or the overflow
    /// map, by its time relative to the cursor slot.
    #[inline]
    fn place(&mut self, time: u64, seq: u64, ev: E) {
        if time < self.wheel_start.saturating_add(SLOT_WIDTH) {
            self.active.push(Entry { time, seq, ev });
        } else if time < self.wheel_start.saturating_add(HORIZON) {
            let idx = ((time >> SLOT_BITS) as usize) & (SLOTS - 1);
            let slot = &mut self.slots[idx];
            if slot.capacity() == 0 {
                if let Some(bucket) = self.spare.pop() {
                    *slot = bucket;
                }
            }
            slot.push(Entry { time, seq, ev });
            self.occupancy[idx >> 6] |= 1 << (idx & 63);
            self.wheel_len += 1;
        } else {
            self.overflow.insert((time, seq), ev);
        }
    }

    /// Post a typed event at the absolute instant `at`. The world's
    /// [`Dispatch`] impl routes it when it fires. Panics if `at` is in the
    /// past.
    pub fn post_at(&mut self, at: SimTime, ev: E) -> EventHandle {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let time = at.as_nanos();
        self.place(time, seq, ev);
        EventHandle { seq, time }
    }

    /// Post a typed event after a relative delay.
    pub fn post_in(&mut self, delay: SimDuration, ev: E) -> EventHandle {
        self.post_at(self.now + delay, ev)
    }

    /// Cancel a previously scheduled event, reclaiming its slot
    /// immediately. Cancelling an event that already fired (or was already
    /// cancelled) is a no-op.
    pub fn cancel(&mut self, h: EventHandle) {
        if h.time >= self.wheel_start.saturating_add(HORIZON) {
            self.overflow.remove(&(h.time, h.seq));
        } else if h.time < self.wheel_start.saturating_add(SLOT_WIDTH) {
            // In the cursor slot (or already fired — retain is a no-op).
            self.active.retain(|e| e.seq != h.seq);
        } else {
            let idx = ((h.time >> SLOT_BITS) as usize) & (SLOTS - 1);
            let slot = &mut self.slots[idx];
            if let Some(pos) = slot.iter().position(|e| e.seq == h.seq) {
                // Bucket order is irrelevant (ordering is imposed at drain
                // time), so a swap_remove reclaims in O(1).
                slot.swap_remove(pos);
                self.wheel_len -= 1;
                if slot.is_empty() {
                    self.occupancy[idx >> 6] &= !(1 << (idx & 63));
                    self.spare.push(std::mem::take(slot));
                }
            }
        }
    }

    /// Circular distance (in slots, 1..SLOTS) from the cursor to the first
    /// occupied bucket, or `None` if the wheel is empty.
    fn first_occupied_distance(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let cursor = ((self.wheel_start >> SLOT_BITS) as usize) & (SLOTS - 1);
        // Scan the bitmap word-wise starting just past the cursor.
        let start = cursor + 1;
        for step in 0..=WORDS {
            let word_idx = ((start >> 6) + step) % WORDS;
            let mut word = self.occupancy[word_idx];
            if step == 0 {
                // Mask off bits at or before the start within its word.
                word &= !0u64 << (start & 63);
            }
            if step == WORDS {
                // Wrapped all the way around: only bits up to the cursor.
                word &= !(!0u64 << (start & 63));
            }
            if word != 0 {
                let bit = word.trailing_zeros() as usize;
                let idx = (word_idx << 6) | bit;
                return Some((idx + SLOTS - cursor) & (SLOTS - 1));
            }
        }
        None
    }

    /// Move the cursor to the bucket holding the earliest pending event and
    /// heapify it into the active set — provided that event is at or before
    /// `end_ns`. Returns whether the active set gained events.
    fn advance_cursor(&mut self, end_ns: u64) -> bool {
        let target = match self.first_occupied_distance() {
            Some(d) => {
                let idx = (((self.wheel_start >> SLOT_BITS) as usize) + d) & (SLOTS - 1);
                match self.slots[idx].iter().map(|e| e.time).min() {
                    Some(t) => t,
                    None => return false,
                }
            }
            None => match self.overflow.first_key_value() {
                Some((&(t, _), _)) => t,
                None => return false,
            },
        };
        if target > end_ns {
            return false;
        }
        let new_start = target & !(SLOT_WIDTH - 1);
        if new_start > self.wheel_start {
            self.wheel_start = new_start;
            // The horizon moved: drain every overflow entry it now covers.
            let bound = new_start.saturating_add(HORIZON);
            while let Some((&(t, _), _)) = self.overflow.first_key_value() {
                if t >= bound {
                    break;
                }
                #[expect(clippy::expect_used, reason = "R3: checked non-empty above")]
                let ((t, seq), ev) = self.overflow.pop_first().expect("checked non-empty");
                self.place(t, seq, ev);
            }
        }
        // Heapify the (new) cursor bucket into the active set and keep the
        // emptied bucket, with its capacity, for the next slot that fills.
        let idx = ((new_start >> SLOT_BITS) as usize) & (SLOTS - 1);
        if !self.slots[idx].is_empty() {
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            self.wheel_len -= bucket.len();
            self.occupancy[idx >> 6] &= !(1 << (idx & 63));
            for e in bucket.drain(..) {
                self.active.push(e);
            }
            self.spare.push(bucket);
        }
        !self.active.is_empty()
    }

    /// Checkpoint the calendar's counters: `(now_ns, next_seq, executed)`.
    pub fn ckpt_counters(&self) -> (u64, u64, u64) {
        (self.now.as_nanos(), self.next_seq, self.executed)
    }

    /// Export every pending entry as `(time_ns, seq, &event)` in ascending
    /// `(time, seq)` order — the execution order an uninterrupted run would
    /// use.
    pub fn ckpt_pending(&self) -> Vec<(u64, u64, &E)> {
        let mut out = Vec::with_capacity(self.pending());
        out.extend(self.active.iter().map(|e| (e.time, e.seq, &e.ev)));
        for slot in &self.slots {
            out.extend(slot.iter().map(|e| (e.time, e.seq, &e.ev)));
        }
        out.extend(self.overflow.iter().map(|(&(t, s), ev)| (t, s, ev)));
        out.sort_unstable_by_key(|&(t, s, _)| (t, s));
        out
    }

    /// Rebuild the calendar from a checkpoint: clear everything, set the
    /// counters, and re-insert `entries` *preserving their original seqs* so
    /// same-instant FIFO ordering — and therefore the whole downstream event
    /// interleaving — is identical to the uninterrupted run.
    ///
    /// Fails, leaving the queue untouched, if an entry is earlier than
    /// `now` or carries a seq the counter has not issued yet: such a
    /// checkpoint describes no state a run could have reached.
    pub fn ckpt_restore(
        &mut self,
        now: SimTime,
        next_seq: u64,
        executed: u64,
        entries: Vec<(u64, u64, E)>,
    ) -> Result<(), CkptError> {
        for &(time, seq, _) in &entries {
            let message = if time < now.as_nanos() {
                format!("event seq {seq} at {time} ns precedes restore time {now}")
            } else if seq >= next_seq {
                format!("event seq {seq} is not below next_seq {next_seq}")
            } else {
                continue;
            };
            return Err(CkptError::Field {
                path: "queue.events".into(),
                message,
            });
        }
        self.active.clear();
        for s in &mut self.slots {
            if s.capacity() > 0 {
                s.clear();
                self.spare.push(std::mem::take(s));
            }
        }
        self.occupancy = [0; WORDS];
        self.wheel_len = 0;
        self.overflow.clear();
        self.now = now;
        self.next_seq = next_seq;
        self.executed = executed;
        self.wheel_start = now.as_nanos() & !(SLOT_WIDTH - 1);
        for (time, seq, ev) in entries {
            self.place(time, seq, ev);
        }
        Ok(())
    }
}

impl<W: Dispatch<E>, E> EventQueue<W, E> {
    /// Run events in order until the queue is empty or `end` is reached.
    /// Events scheduled exactly at `end` *do* run; afterwards `now == end`
    /// if any event remains pending past it, else the time of the last event.
    pub fn run_until(&mut self, world: &mut W, end: SimTime) {
        let executed_before = self.executed;
        let end_ns = end.as_nanos();
        loop {
            while let Some(top) = self.active.peek() {
                if top.time > end_ns {
                    break;
                }
                #[expect(clippy::expect_used, reason = "R3: the peek above proves non-empty")]
                let entry = self.active.pop().expect("peeked entry");
                debug_assert!(
                    entry.time >= self.now.as_nanos(),
                    "event queue time went backwards"
                );
                self.now = SimTime::from_nanos(entry.time);
                self.executed += 1;
                let _prof = crate::obs::prof::span("sim.event");
                world.dispatch(self, entry.ev);
            }
            if !self.active.is_empty() || !self.advance_cursor(end_ns) {
                break;
            }
        }
        if self.now < end {
            self.now = end;
        }
        crate::obs::metrics::counter(crate::obs::metrics::keys::SIM_EVENTS)
            .add(self.executed - executed_before);
    }

    /// Run until the queue is fully drained (use with care: self-re-posting
    /// events never drain). Mostly useful in tests.
    pub fn run_to_completion(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    enum TestEvent {
        Mark(&'static str),
        Chain(u32),
        /// Re-posts itself every `period` µs while `world.ticks < limit`.
        Tick {
            period: u64,
            limit: u32,
        },
        /// Post `Mark("nested")` 4 µs later.
        Nest,
        /// Post `Mark("past")` 5 µs into the past.
        Backwards,
    }

    #[derive(Default)]
    struct World {
        log: Vec<(u64, String)>,
        ticks: u32,
        /// Most wheel slots seen occupied at once, sampled after each
        /// `Tick` re-posts itself.
        peak_slots: usize,
    }

    type Q = EventQueue<World, TestEvent>;

    impl Dispatch<TestEvent> for World {
        fn dispatch(&mut self, q: &mut Q, ev: TestEvent) {
            let now = q.now().as_micros();
            match ev {
                TestEvent::Mark(s) => self.log.push((now, s.to_string())),
                TestEvent::Chain(n) => {
                    self.log.push((now, format!("chain{n}")));
                    if n > 0 {
                        q.post_in(SimDuration::from_micros(10), TestEvent::Chain(n - 1));
                    }
                }
                TestEvent::Tick { period, limit } => {
                    self.ticks += 1;
                    if self.ticks < limit {
                        q.post_in(
                            SimDuration::from_micros(period),
                            TestEvent::Tick { period, limit },
                        );
                    }
                    self.peak_slots = self.peak_slots.max(q.occupied_slots());
                }
                TestEvent::Nest => {
                    q.post_in(SimDuration::from_micros(4), TestEvent::Mark("nested"));
                }
                TestEvent::Backwards => {
                    q.post_at(SimTime::from_micros(now - 5), TestEvent::Mark("past"));
                }
            }
        }
    }

    fn names(w: &World) -> Vec<&str> {
        w.log.iter().map(|(_, s)| s.as_str()).collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::from_micros(20), TestEvent::Mark("b"));
        q.post_at(SimTime::from_micros(10), TestEvent::Mark("a"));
        q.post_at(SimTime::from_micros(30), TestEvent::Mark("c"));
        q.run_to_completion(&mut w);
        let times: Vec<u64> = w.log.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [10, 20, 30]);
        assert_eq!(names(&w), ["a", "b", "c"]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = Q::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            q.post_at(SimTime::from_micros(5), TestEvent::Mark(name));
        }
        q.run_to_completion(&mut w);
        assert_eq!(names(&w), ["first", "second", "third"]);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::from_micros(1), TestEvent::Nest);
        q.run_to_completion(&mut w);
        assert_eq!(w.log, vec![(5, "nested".to_string())]);
    }

    #[test]
    fn typed_events_can_chain() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::ZERO, TestEvent::Chain(3));
        q.run_to_completion(&mut w);
        assert_eq!(w.log.len(), 4);
        assert_eq!(w.log.last().unwrap().0, 30);
    }

    #[test]
    fn self_reposting_event_fires_on_period_until_it_stops() {
        let mut q = Q::new();
        let mut w = World::default();
        let tick = TestEvent::Tick {
            period: 10,
            limit: u32::MAX,
        };
        q.post_at(SimTime::from_micros(10), tick);
        q.run_until(&mut w, SimTime::from_micros(55));
        assert_eq!(w.ticks, 5); // t = 10,20,30,40,50
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(
            SimTime::from_micros(1),
            TestEvent::Tick {
                period: 1,
                limit: 3,
            },
        );
        q.run_until(&mut w, SimTime::from_secs(1));
        assert_eq!(w.ticks, 3);
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut q = Q::new();
        let mut w = World::default();
        let h = q.post_at(SimTime::from_micros(10), TestEvent::Mark("no"));
        q.post_at(SimTime::from_micros(20), TestEvent::Mark("yes"));
        q.cancel(h);
        q.run_to_completion(&mut w);
        assert_eq!(names(&w), ["yes"]);
        // Double-cancel and cancel-after-fire are no-ops.
        q.cancel(h);
    }

    #[test]
    fn cancellation_reclaims_storage_eagerly() {
        let mut q = Q::new();
        // One event per region: cursor slot, wheel, overflow.
        let a = q.post_at(SimTime::from_nanos(100), TestEvent::Mark("a"));
        let b = q.post_at(SimTime::from_millis(1), TestEvent::Mark("b"));
        let c = q.post_at(SimTime::from_secs(10), TestEvent::Mark("c"));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.stored(), 3);
        q.cancel(b);
        assert_eq!(q.stored(), 2);
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.stored(), 0);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::from_micros(10), TestEvent::Mark("in"));
        q.post_at(SimTime::from_micros(100), TestEvent::Mark("out"));
        q.run_until(&mut w, SimTime::from_micros(50));
        assert_eq!(names(&w), ["in"]);
        assert_eq!(q.now(), SimTime::from_micros(50));
        assert_eq!(q.pending(), 1);
        q.run_until(&mut w, SimTime::from_micros(100));
        assert_eq!(w.log.len(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::from_micros(10), TestEvent::Backwards);
        q.run_to_completion(&mut w);
    }

    // ---- wheel mechanics across region boundaries ----

    #[test]
    fn events_beyond_the_horizon_fire_in_order() {
        // Spread events over ~10 s — far beyond the 33.5 ms wheel horizon —
        // plus a dense cluster inside one slot, interleaved at random-ish
        // times, and check global ordering survives the overflow drain.
        struct Times(Vec<u64>);
        impl Dispatch<()> for Times {
            fn dispatch(&mut self, q: &mut EventQueue<Self, ()>, _ev: ()) {
                self.0.push(q.now().as_nanos());
            }
        }
        let mut q = EventQueue::<Times, ()>::new();
        let mut w = Times(Vec::new());
        let mut times: Vec<u64> = (0..200u64)
            .map(|i| (i * 7_919_777_123) % 10_000_000_000)
            .collect();
        times.extend(5_000..5_040u64); // same-slot cluster
        for &t in &times {
            q.post_at(SimTime::from_nanos(t), ());
        }
        q.run_to_completion(&mut w);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(w.0, sorted);
    }

    #[test]
    fn cancel_works_in_every_region_after_cursor_moves() {
        let mut q = Q::new();
        let mut w = World::default();
        // Fire one event at 50 ms to advance the cursor well past t = 0.
        q.post_at(SimTime::from_millis(50), TestEvent::Mark("tick"));
        let near = q.post_at(SimTime::from_millis(51), TestEvent::Mark("near"));
        let far = q.post_at(SimTime::from_secs(2), TestEvent::Mark("far"));
        q.run_until(&mut w, SimTime::from_millis(50));
        q.cancel(near);
        q.cancel(far);
        q.run_to_completion(&mut w);
        assert_eq!(names(&w), ["tick"]);
        assert_eq!(q.stored(), 0);
    }

    #[test]
    fn wheel_keeps_one_bucket_per_slot_occupied_at_once() {
        // Three sparse periodic streams, run four times around the wheel:
        // they touch well over a thousand distinct slots but never occupy
        // more than three at once, and emptied buckets are reused.
        let mut q = Q::new();
        let mut w = World::default();
        for period in [50, 130, 1_000] {
            let tick = TestEvent::Tick {
                period,
                limit: u32::MAX,
            };
            q.post_at(SimTime::from_micros(period), tick);
        }
        q.run_until(&mut w, SimTime::from_nanos(4 * HORIZON));
        assert!(w.ticks > 3_000, "only {} ticks", w.ticks);
        assert!((1..=3).contains(&w.peak_slots), "peak {}", w.peak_slots);
        assert_eq!(q.allocated_buckets(), w.peak_slots);
        // Cancelling the pending ticks returns their buckets to the spare
        // stack rather than freeing or growing the pool.
        q.run_until(&mut w, SimTime::from_nanos(4 * HORIZON + 1));
        let allocated = q.allocated_buckets();
        let pending: Vec<_> = q
            .ckpt_pending()
            .into_iter()
            .map(|(t, s, _)| (t, s))
            .collect();
        for (time, seq) in pending {
            q.cancel(EventHandle { seq, time });
        }
        assert_eq!(q.pending(), 0);
        assert_eq!(q.allocated_buckets(), allocated);
    }

    // ---- checkpoint export / restore ----

    #[test]
    fn restore_replays_the_pending_set_in_order() {
        let mut q = Q::new();
        let mut w = World::default();
        q.post_at(SimTime::from_micros(5), TestEvent::Mark("done"));
        q.post_at(SimTime::from_secs(3), TestEvent::Mark("late"));
        q.post_at(SimTime::from_micros(20), TestEvent::Mark("b"));
        q.post_at(SimTime::from_micros(20), TestEvent::Mark("c"));
        q.run_until(&mut w, SimTime::from_micros(10));
        let (now, next_seq, executed) = q.ckpt_counters();
        let pending: Vec<(u64, u64, &'static str)> = q
            .ckpt_pending()
            .into_iter()
            .map(|(t, s, ev)| match ev {
                TestEvent::Mark(name) => (t, s, *name),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(pending.len(), 3);
        let mut r = Q::new();
        r.ckpt_restore(
            SimTime::from_nanos(now),
            next_seq,
            executed,
            pending
                .into_iter()
                .map(|(t, s, name)| (t, s, TestEvent::Mark(name)))
                .collect(),
        )
        .unwrap();
        let mut w2 = World::default();
        r.run_to_completion(&mut w2);
        assert_eq!(names(&w2), ["b", "c", "late"]);
        assert_eq!(r.executed(), 4);
    }

    #[test]
    fn restore_rejects_impossible_entries() {
        let mut q = Q::new();
        q.post_at(SimTime::from_micros(50), TestEvent::Mark("kept"));
        let now = SimTime::from_micros(10);
        let past = vec![(1_000, 0, TestEvent::Mark("past"))];
        assert!(q.ckpt_restore(now, 5, 0, past).is_err());
        let unissued = vec![(20_000, 5, TestEvent::Mark("future seq"))];
        assert!(q.ckpt_restore(now, 5, 0, unissued).is_err());
        // A refused restore leaves the queue as it was.
        assert_eq!(q.pending(), 1);
        assert_eq!(q.ckpt_counters(), (0, 1, 0));
    }
}
