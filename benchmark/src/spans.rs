//! In-memory span recorder: the benchmark's own tracing.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around calls into the crates' public functions — never inside the
//! program. Each span keeps its name, start, end and the span that was open
//! when it started (its cause). Nothing is written while a workload runs;
//! [`Spans::render`] formats the tree once the run is over.

use std::time::{Duration, Instant};

/// Handle to an open span, returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`None` while open).
    pub end_ns: Option<u64>,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end_ns
            .map_or(0.0, |e| (e - self.start_ns) as f64 / 1e6)
    }
}

/// One root span's wall time split across its direct children.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// The root span's wall time, ms.
    pub wall_ms: f64,
    /// `(child name, count, total ms)` in first-appearance order.
    pub layers: Vec<(&'static str, usize, f64)>,
    /// Wall time no child span covers, ms.
    pub unattributed_ms: f64,
}

/// A span tree under construction.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span; returns its
    /// duration.
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = Some(end);
        Duration::from_nanos(end - span.start_ns)
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations of every closed span named `name`, ms, in start order.
    pub fn samples_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
            .map(Span::ms)
            .collect()
    }

    /// Summed duration of every span named `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.samples_ms(name).iter().sum()
    }

    /// Split the first root span named `root` across its direct children,
    /// with the remainder as an explicit unattributed row; the rows sum to
    /// the root's wall time by construction.
    pub fn breakdown(&self, root: &str) -> Option<Breakdown> {
        let (ri, r) = self
            .spans
            .iter()
            .enumerate()
            .find(|(_, s)| s.parent.is_none() && s.name == root && s.end_ns.is_some())?;
        let mut layers: Vec<(&'static str, usize, f64)> = Vec::new();
        for c in self.spans.iter().filter(|s| s.parent == Some(ri)) {
            match layers.iter_mut().find(|(n, _, _)| *n == c.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += c.ms();
                }
                None => layers.push((c.name, 1, c.ms())),
            }
        }
        let covered: f64 = layers.iter().map(|l| l.2).sum();
        Some(Breakdown {
            wall_ms: r.ms(),
            unattributed_ms: r.ms() - covered,
            layers,
        })
    }

    /// Human-readable table: every root span, and for a root with children
    /// those children plus an `unattributed` row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        for root in self.spans.iter().filter(|s| s.parent.is_none()) {
            if seen.contains(&root.name) {
                continue;
            }
            seen.push(root.name);
            let Some(b) = self.breakdown(root.name) else {
                continue;
            };
            out.push_str(&format!("span {:<34} {:>12.3} ms\n", root.name, b.wall_ms));
            if b.layers.is_empty() {
                continue;
            }
            let share = |ms: f64| {
                if b.wall_ms > 0.0 {
                    100.0 * ms / b.wall_ms
                } else {
                    0.0
                }
            };
            for (name, count, ms) in &b.layers {
                out.push_str(&format!(
                    "  {:<30} x{:<5} {:>12.3} ms {:>6.2}%\n",
                    name,
                    count,
                    ms,
                    share(*ms)
                ));
            }
            out.push_str(&format!(
                "  {:<30} {:<6} {:>12.3} ms {:>6.2}%\n",
                "unattributed",
                "",
                b.unattributed_ms,
                share(b.unattributed_ms)
            ));
        }
        out
    }
}
