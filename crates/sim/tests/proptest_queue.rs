//! Property tests for the event queue and measurement primitives.

use powifi_sim::{
    Cdf, Dispatch, EventQueue, PowerEnvelope, SimDuration, SimTime, TimeWeighted, Welford,
};
use proptest::prelude::*;

/// Records the insertion index of every event that fires, plus the firing
/// times of a self-re-posting tick.
#[derive(Default)]
struct Log {
    fired: Vec<usize>,
    times: Vec<u64>,
    ticks: u64,
}

/// Test events: an indexed one-shot, a time stamp, and a periodic tick that
/// re-posts itself every `period` ns.
enum Ev {
    Fire(usize),
    Stamp,
    Tick { period: u64 },
}

impl Dispatch<Ev> for Log {
    fn dispatch(&mut self, q: &mut EventQueue<Self, Ev>, ev: Ev) {
        match ev {
            Ev::Fire(id) => self.fired.push(id),
            Ev::Stamp => self.times.push(q.now().as_nanos()),
            Ev::Tick { period } => {
                self.ticks += 1;
                q.post_in(SimDuration::from_nanos(period), Ev::Tick { period });
            }
        }
    }
}

proptest! {
    /// The wheel/heap/overflow queue is observationally identical to the
    /// naive model it replaced: a list of `(time, insertion-order)` pairs
    /// stably sorted by time. Same pop order, same FIFO tie-break, same
    /// cancellation semantics — including cancels issued mid-run against
    /// handles that already fired.
    #[test]
    fn queue_matches_naive_model(
        ops in prop::collection::vec(
            // (time, 0 = keep / 1 = cancel now / 2 = cancel at mid)
            (0u64..60_000_000, 0u8..3),
            1..300,
        ),
        mid in 0u64..60_000_000,
    ) {
        let mut q = EventQueue::<Log, Ev>::new();
        let mut later = Vec::new();
        for (i, &(t, mode)) in ops.iter().enumerate() {
            let h = q.post_at(SimTime::from_nanos(t), Ev::Fire(i));
            match mode {
                1 => q.cancel(h),
                2 => later.push(h),
                _ => {}
            }
        }
        let mut w = Log::default();
        // Split the run so the mid-run cancels exercise every queue region
        // after the cursor has moved; cancelling an already-fired handle
        // must be a no-op.
        q.run_until(&mut w, SimTime::from_nanos(mid));
        for h in later {
            q.cancel(h);
        }
        q.run_to_completion(&mut w);

        // The reference model: survivors stably sorted by time (stable sort
        // on insertion order == the queue's FIFO-within-instant seq order).
        let mut model: Vec<(u64, usize)> = ops
            .iter()
            .enumerate()
            .filter(|&(_, &(t, mode))| mode == 0 || (mode == 2 && t <= mid))
            .map(|(i, &(t, _))| (t, i))
            .collect();
        model.sort_by_key(|&(t, _)| t);
        let expect: Vec<usize> = model.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(w.fired, expect);
        prop_assert_eq!(q.stored(), 0);
    }

    /// Events always fire in non-decreasing time order, regardless of the
    /// insertion order, and every non-cancelled event fires exactly once.
    #[test]
    fn queue_fires_in_order_and_exactly_once(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::<Log, Ev>::new();
        let mut w = Log::default();
        for &t in &times {
            q.post_at(SimTime::from_nanos(t), Ev::Stamp);
        }
        q.run_to_completion(&mut w);
        prop_assert_eq!(w.times.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(w.times, sorted);
    }

    /// Cancelled events never fire; everything else does.
    #[test]
    fn cancellation_is_exact(spec in prop::collection::vec((0u64..100_000, prop::bool::ANY), 1..100)) {
        let mut q = EventQueue::<Log, Ev>::new();
        let mut w = Log::default();
        let mut cancelled = Vec::new();
        for (i, &(t, cancel)) in spec.iter().enumerate() {
            let h = q.post_at(SimTime::from_nanos(t), Ev::Fire(i));
            if cancel {
                q.cancel(h);
                cancelled.push(i);
            }
        }
        q.run_to_completion(&mut w);
        for i in &cancelled {
            prop_assert!(!w.fired.contains(i));
        }
        prop_assert_eq!(w.fired.len(), spec.len() - cancelled.len());
    }

    /// A self-re-posting event fires exactly floor((horizon - first)/period)
    /// + 1 times.
    #[test]
    fn repeating_count_is_exact(first in 0u64..1000, period in 1u64..500, horizon in 1000u64..20_000) {
        let mut q = EventQueue::<Log, Ev>::new();
        let mut w = Log::default();
        q.post_at(SimTime::from_nanos(first), Ev::Tick { period });
        q.run_until(&mut w, SimTime::from_nanos(horizon));
        let expect = if first > horizon { 0 } else { (horizon - first) / period + 1 };
        prop_assert_eq!(w.ticks, expect);
    }

    /// Welford mean/min/max agree with direct computation.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(w.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(w.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// CDF quantiles are monotone in q and bounded by min/max.
    #[test]
    fn cdf_quantiles_monotone(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut c = Cdf::new();
        c.extend(xs.iter().cloned());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = c.quantile(i as f64 / 10.0);
            prop_assert!(v >= prev);
            prev = v;
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(c.quantile(0.0) >= lo && c.quantile(1.0) <= hi);
    }

    /// Envelope integration equals the sum over its segments, and the level
    /// query agrees with the segment that contains the query point.
    #[test]
    fn envelope_integral_consistent(changes in prop::collection::vec((1u64..1_000_000, 0f64..100.0), 1..50)) {
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut env = PowerEnvelope::new();
        for &(t, v) in &sorted {
            env.set(SimTime::from_nanos(t), v);
        }
        let end = SimTime::from_nanos(2_000_000);
        let total = env.integrate(SimTime::ZERO, end);
        let by_segments: f64 = env
            .segments(SimTime::ZERO, end)
            .map(|(a, b, v)| v * b.duration_since(a).as_secs_f64())
            .sum();
        prop_assert!((total - by_segments).abs() < 1e-12);
        // Split-interval additivity.
        let mid = SimTime::from_nanos(777_777);
        let sum = env.integrate(SimTime::ZERO, mid) + env.integrate(mid, end);
        prop_assert!((total - sum).abs() < 1e-12);
    }

    /// Pointwise envelope sum equals the sum of the parts at random times.
    #[test]
    fn envelope_sum_is_pointwise(
        a in prop::collection::vec((1u64..100_000, 0f64..10.0), 1..20),
        b in prop::collection::vec((1u64..100_000, 0f64..10.0), 1..20),
        probes in prop::collection::vec(0u64..120_000, 1..30),
    ) {
        let build = |mut v: Vec<(u64, f64)>| {
            v.sort_by_key(|&(t, _)| t);
            let mut e = PowerEnvelope::new();
            for (t, val) in v {
                e.set(SimTime::from_nanos(t), val);
            }
            e
        };
        let ea = build(a);
        let eb = build(b);
        let sum = ea.sum(&eb);
        for &p in &probes {
            let t = SimTime::from_nanos(p);
            prop_assert!((sum.level_at(t) - (ea.level_at(t) + eb.level_at(t))).abs() < 1e-12);
        }
    }

    /// Time-weighted mean lies within [min, max] of the recorded values.
    #[test]
    fn time_weighted_mean_bounded(vals in prop::collection::vec((1u64..1000, 0f64..50.0), 1..50)) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut t = 0u64;
        let mut lo: f64 = 0.0;
        let mut hi: f64 = 0.0;
        for &(dt, v) in &vals {
            t += dt;
            tw.set(SimTime::from_nanos(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let mean = tw.mean_at(SimTime::from_nanos(t + 100));
        prop_assert!(mean >= lo - 1e-12 && mean <= hi + 1e-12);
    }
}
