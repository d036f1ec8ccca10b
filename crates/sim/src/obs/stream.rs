//! Streaming telemetry: the framed NDJSON wire layer behind `powifi-fleetd`.
//!
//! A *stream* is a sequence of one-line JSON frames:
//!
//! * exactly one **session header** first —
//!   `{"powifi_stream":1,"run_id":…,"seed":…,"git_sha":…}`;
//! * then **records**, each `{"seq":N,"deployment":…,"kind":…,"t":ns,…}`
//!   with a monotonically increasing session-wide `seq` assigned at the
//!   egress queue (the single serialization point), so a consumer detects
//!   loss as a gap. Record kinds are `metrics` (a full
//!   [`MetricsSnapshot`] at a sim-time epoch boundary), `trace` (one
//!   [`trace::TraceRecord`]), `progress` (cumulative per-shard counters
//!   from the sharded city runtime, tagged with `shard`), `ckpt` (a
//!   checkpoint was written: the epoch it covers plus the content hash of
//!   the state tree, so consumers can correlate resume points with the
//!   telemetry timeline), and `end` (the deployment finished; carries the
//!   final drop counter).
//!
//! ## Backpressure: drop-with-counter, never block
//!
//! Producers sit on the simulation hot path, consumers are TCP clients of
//! unknown speed. The [`Egress`] queue is bounded: when it is full the
//! record is *dropped* and counted — into [`Egress::dropped`] and the
//! [`metrics::keys::OBS_STREAM_DROPPED`] counter — and the push returns
//! immediately. A dropped record still consumes a `seq`, so the loss is
//! visible on the wire as a sequence gap. The event loop therefore never
//! waits on a slow consumer; at the default queue depth
//! ([`DEFAULT_QUEUE_CAP`]) a loopback consumer keeps up with zero drops
//! (the integration tests pin this).
//!
//! ## Determinism
//!
//! Everything timestamped is sim time; nothing here reads a wall clock.
//! Interleaving *across* deployments on the wire is scheduling-dependent,
//! but each deployment's subsequence is emitted by one worker thread in
//! sim-time order, and the aggregation layer ([`super::agg`]) reduces any
//! interleaving of the same records to byte-identical output.
//!
//! This module is the one place in the simulation crates allowed to touch
//! `std::net` (lint rule R13 `socket-outside-stream`): [`tcp_egress`]
//! connects a stream to a TCP consumer and drains it from a writer thread.

use super::metrics::{self, MetricsSnapshot};
use super::trace::TraceRecord;
use crate::SimTime;
use serde_json::write_string;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Wire-format version, first field of the session header.
pub const WIRE_VERSION: u64 = 1;

/// Default bound of an [`Egress`] queue, in records. Sized so a loopback
/// consumer never drops: deep enough to absorb a full burst of per-epoch
/// snapshots from every deployment of a fleet between consumer reads.
pub const DEFAULT_QUEUE_CAP: usize = 4096;

/// Lock a mutex without unwrap: a poisoned stream queue only means a
/// panicking producer thread died mid-push; the data is a queue of rendered
/// lines, always structurally valid.
#[expect(clippy::disallowed_methods, reason = "R9: stream's one queue lock")]
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Identity of one streaming session, rendered as the header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// Run identifier chosen by the server (e.g. `fleet-<seed>`).
    pub run_id: String,
    /// Experiment root seed every deployment seed derives from.
    pub seed: u64,
    /// Git commit the server was built from (`unknown` outside a checkout).
    pub git_sha: String,
}

impl SessionInfo {
    /// Render the one-line session header.
    pub fn header_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"powifi_stream\":{WIRE_VERSION},\"run_id\":");
        write_string(&mut out, &self.run_id);
        let _ = write!(out, ",\"seed\":{},\"git_sha\":", self.seed);
        write_string(&mut out, &self.git_sha);
        out.push('}');
        out
    }
}

/// What happened to a record offered to an [`Egress`] queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued for the consumer.
    Queued,
    /// Queue full — dropped and counted; its `seq` is a wire-visible gap.
    Dropped,
}

#[derive(Debug, Default)]
struct EgressState {
    queue: VecDeque<String>,
    seq: u64,
    dropped: u64,
    peak_depth: usize,
    closed: bool,
}

/// The bounded, non-blocking egress queue between simulation threads and
/// one stream consumer. `push_record` assigns the session-wide `seq` and
/// never blocks; `pop_wait`/`drain_nonblocking` feed the consumer side.
#[derive(Debug)]
pub struct Egress {
    cap: usize,
    state: Mutex<EgressState>,
    ready: Condvar,
}

impl Egress {
    /// A queue bounded at `cap` records (clamped to at least 1).
    pub fn new(cap: usize) -> Arc<Egress> {
        Arc::new(Egress {
            cap: cap.max(1),
            state: Mutex::new(EgressState::default()),
            ready: Condvar::new(),
        })
    }

    /// A queue with the default bound.
    pub fn with_default_cap() -> Arc<Egress> {
        Egress::new(DEFAULT_QUEUE_CAP)
    }

    /// Offer one record body (a JSON object string starting with `{`). The
    /// assigned `seq` is spliced in as the first field. Never blocks: on a
    /// full queue the record is dropped, the drop counters advance, and the
    /// seq is consumed anyway so the gap shows on the wire.
    pub fn push_record(&self, body: &str) -> PushOutcome {
        let line = |seq: u64| {
            let mut out = String::with_capacity(body.len() + 16);
            let _ = write!(out, "{{\"seq\":{seq},");
            out.push_str(body.strip_prefix('{').unwrap_or(body));
            out
        };
        let outcome = {
            let mut st = lock(&self.state);
            let seq = st.seq;
            st.seq += 1;
            if st.closed || st.queue.len() >= self.cap {
                st.dropped += 1;
                PushOutcome::Dropped
            } else {
                st.queue.push_back(line(seq));
                st.peak_depth = st.peak_depth.max(st.queue.len());
                PushOutcome::Queued
            }
        };
        if outcome == PushOutcome::Queued {
            self.ready.notify_one();
        } else {
            metrics::counter(metrics::keys::OBS_STREAM_DROPPED).inc();
        }
        outcome
    }

    /// Enqueue a pre-rendered line verbatim (no seq assigned) — used for
    /// the session header. Subject to the same bound and drop policy.
    pub fn push_raw(&self, line: &str) -> PushOutcome {
        let outcome = {
            let mut st = lock(&self.state);
            if st.closed || st.queue.len() >= self.cap {
                st.dropped += 1;
                PushOutcome::Dropped
            } else {
                st.queue.push_back(line.to_string());
                st.peak_depth = st.peak_depth.max(st.queue.len());
                PushOutcome::Queued
            }
        };
        if outcome == PushOutcome::Queued {
            self.ready.notify_one();
        }
        outcome
    }

    /// Consumer side: block until a line is available or the queue is
    /// closed *and* drained; `None` means end of stream.
    pub fn pop_wait(&self) -> Option<String> {
        let mut st = lock(&self.state);
        loop {
            if let Some(line) = st.queue.pop_front() {
                return Some(line);
            }
            if st.closed {
                return None;
            }
            st = match self.ready.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Consumer side: move everything currently queued into `out` without
    /// blocking. Returns `false` once the queue is closed and drained.
    pub fn drain_nonblocking(&self, out: &mut Vec<String>) -> bool {
        let mut st = lock(&self.state);
        while let Some(line) = st.queue.pop_front() {
            out.push(line);
        }
        !st.closed
    }

    /// Close the queue: producers drop everything from now on, consumers
    /// drain what is left and then see end-of-stream.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Records dropped so far (full queue or pushes after close).
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }

    /// Deepest the queue has been, in records.
    pub fn peak_depth(&self) -> usize {
        lock(&self.state).peak_depth
    }

    /// Records currently queued (consumer lag right now).
    pub fn depth(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Next sequence number to be assigned (== records offered so far).
    pub fn next_seq(&self) -> u64 {
        lock(&self.state).seq
    }
}

/// A producer's bound stream: the shared egress plus this producer's
/// deployment tag. Clone freely — worker threads of one deployment (city
/// shards) share the egress and tag.
#[derive(Clone)]
pub struct Handle {
    egress: Arc<Egress>,
    deployment: String,
}

impl Handle {
    /// Bind `deployment`'s records to `egress`.
    pub fn new(egress: Arc<Egress>, deployment: impl Into<String>) -> Handle {
        Handle {
            egress,
            deployment: deployment.into(),
        }
    }

    /// The deployment tag carried on every record.
    pub fn deployment(&self) -> &str {
        &self.deployment
    }

    /// The shared egress queue.
    pub fn egress(&self) -> &Arc<Egress> {
        &self.egress
    }

    fn body_prefix(&self, kind: &str, t: SimTime) -> String {
        let mut out = String::new();
        out.push_str("{\"deployment\":");
        write_string(&mut out, &self.deployment);
        out.push_str(",\"kind\":");
        write_string(&mut out, kind);
        let _ = write!(out, ",\"t\":{}", t.as_nanos());
        out
    }

    /// Emit a `metrics` record: the full registry snapshot at sim time `t`.
    pub fn emit_metrics(&self, t: SimTime, snapshot: &MetricsSnapshot) -> PushOutcome {
        let mut body = self.body_prefix("metrics", t);
        body.push_str(",\"metrics\":");
        body.push_str(&snapshot.to_json());
        body.push('}');
        self.egress.push_record(&body)
    }

    /// Emit a `trace` record wrapping one structured trace event.
    pub fn emit_trace(&self, rec: &TraceRecord) -> PushOutcome {
        let mut body = self.body_prefix("trace", rec.at);
        body.push_str(",\"trace\":");
        body.push_str(&rec.to_json_line());
        body.push('}');
        self.egress.push_record(&body)
    }

    /// Emit a `progress` record: cumulative counters at sim time `t`,
    /// optionally tagged with the city shard that produced them. `fields`
    /// must be pre-sorted by name if byte-stable output matters to the
    /// caller; the sharded runtime passes a fixed literal list.
    pub fn emit_progress(
        &self,
        t: SimTime,
        shard: Option<u64>,
        fields: &[(&str, u64)],
    ) -> PushOutcome {
        let mut body = self.body_prefix("progress", t);
        if let Some(s) = shard {
            let _ = write!(body, ",\"shard\":{s}");
        }
        body.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            write_string(&mut body, k);
            let _ = write!(body, ":{v}");
        }
        body.push_str("}}");
        self.egress.push_record(&body)
    }

    /// Emit a `ckpt` record: a checkpoint (or, for city shards, a state
    /// hash) was taken at sim time `t`, covering `epoch` epochs, with
    /// content hash `hash` (the 32-hex digest from `ckpt::state_hash`).
    /// `shard: Some(s)` tags the record with the city shard it covers, the
    /// same tagging as `progress` records; live fleets detect divergence by
    /// comparing these hashes at equal `(deployment, shard, epoch)` keys.
    pub fn emit_ckpt(&self, t: SimTime, shard: Option<u64>, epoch: u64, hash: &str) -> PushOutcome {
        let mut body = self.body_prefix("ckpt", t);
        if let Some(s) = shard {
            let _ = write!(body, ",\"shard\":{s}");
        }
        let _ = write!(body, ",\"epoch\":{epoch},\"hash\":");
        write_string(&mut body, hash);
        body.push('}');
        self.egress.push_record(&body)
    }

    /// Emit the deployment's `end` record, carrying the egress drop total
    /// at emission time.
    pub fn emit_end(&self, t: SimTime) -> PushOutcome {
        let mut body = self.body_prefix("end", t);
        let _ = write!(body, ",\"dropped\":{}}}", self.egress.dropped());
        self.egress.push_record(&body)
    }
}

thread_local! {
    /// One-branch fast check, mirroring `trace::ENABLED`.
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CURRENT: RefCell<Option<Handle>> = const { RefCell::new(None) };
    /// Last sim time an epoch mark fired at, for end-of-run records.
    static LAST_MARK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Is a stream handle installed on this thread? One branch when off.
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Install `handle` as this thread's stream; returns the previous one.
/// The harness (bench runner, fleetd worker) owns install/uninstall, like
/// trace sinks.
pub fn install(handle: Handle) -> Option<Handle> {
    ACTIVE.with(|a| a.set(true));
    LAST_MARK.with(|m| m.set(0));
    CURRENT.with(|c| c.borrow_mut().replace(handle))
}

/// Remove and return this thread's stream handle.
pub fn uninstall() -> Option<Handle> {
    ACTIVE.with(|a| a.set(false));
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Clone this thread's handle (for propagating to worker threads, e.g. the
/// sharded city runtime's scoped workers).
pub fn handle() -> Option<Handle> {
    if !active() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Epoch mark: if a stream is installed on this thread, snapshot the
/// metrics registry and emit it as a `metrics` record at sim time `t`.
/// This is the emitter the epoch-stepped deployment runners drive; when no
/// stream is installed it costs one branch.
pub fn epoch_mark(t: SimTime) {
    if !active() {
        return;
    }
    LAST_MARK.with(|m| m.set(m.get().max(t.as_nanos())));
    if let Some(h) = handle() {
        // Record this sink's consumer lag first so it rides in the snapshot
        // (`obs.stream.queue_depth`, alongside the `obs.stream.dropped`
        // counter the egress bumps on overflow). The gauge is the *peak*
        // depth since the stream opened, not the instantaneous depth: an
        // epoch boundary is the quietest moment of the cycle, so sampling
        // `depth()` here systematically under-reports how close the queue
        // came to overflow mid-epoch.
        metrics::gauge(metrics::keys::OBS_STREAM_QUEUE_DEPTH).set(h.egress().peak_depth() as f64);
        h.emit_metrics(t, &metrics::snapshot());
    }
}

/// Checkpoint mark: if a stream is installed on this thread, emit a `ckpt`
/// record announcing that a checkpoint with content hash `hash` was
/// written at sim time `t` covering `epoch` epochs. One branch when no
/// stream is installed.
pub fn ckpt_mark(t: SimTime, epoch: u64, hash: &str) {
    if !active() {
        return;
    }
    LAST_MARK.with(|m| m.set(m.get().max(t.as_nanos())));
    if let Some(h) = handle() {
        h.emit_ckpt(t, None, epoch, hash);
    }
}

/// Finish this thread's deployment: emit a final `metrics` record plus the
/// `end` record at the greater of `t` and the last epoch mark, then
/// uninstall. No-op without an installed stream.
pub fn finish(t: SimTime) {
    if !active() {
        return;
    }
    let last = LAST_MARK.with(|m| m.get());
    let at = SimTime::from_nanos(last.max(t.as_nanos()));
    if let Some(h) = uninstall() {
        h.emit_metrics(at, &metrics::snapshot());
        h.emit_end(at);
    }
}

/// Spawn the writer thread draining `egress` into `writer` line by line
/// until the queue closes (or the peer goes away — write errors close the
/// queue so producers start dropping instead of filling a dead buffer).
/// Join the returned handle after [`Egress::close`] to flush.
///
/// Generic over the writer so captures can go to files in tests; the TCP
/// entry point is [`tcp_egress`].
pub fn spawn_writer(
    egress: Arc<Egress>,
    mut writer: impl std::io::Write + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Some(line) = egress.pop_wait() {
            if writer.write_all(line.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                egress.close();
                return;
            }
        }
        let _ = writer.flush();
    })
}

/// Connect to a stream consumer at `addr` (e.g. the address a
/// `powifi-obs fleet record` listener printed), write the session header, and
/// spawn the writer thread. This is the sanctioned socket touchpoint of
/// the sim crates (lint R13).
#[expect(clippy::disallowed_types, reason = "R13: obs::stream owns egress")]
pub fn tcp_egress(
    addr: &str,
    session: &SessionInfo,
    cap: usize,
) -> std::io::Result<(Arc<Egress>, std::thread::JoinHandle<()>)> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let egress = Egress::new(cap);
    egress.push_raw(&session.header_line());
    let join = spawn_writer(Arc::clone(&egress), std::io::BufWriter::new(stream));
    Ok((egress, join))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_line_is_stable() {
        let s = SessionInfo {
            run_id: "fleet-42".into(),
            seed: 42,
            git_sha: "deadbeef".into(),
        };
        assert_eq!(
            s.header_line(),
            "{\"powifi_stream\":1,\"run_id\":\"fleet-42\",\"seed\":42,\"git_sha\":\"deadbeef\"}"
        );
    }

    #[test]
    fn records_are_seq_numbered_in_order() {
        let eg = Egress::new(8);
        let h = Handle::new(Arc::clone(&eg), "d0");
        h.emit_progress(SimTime::from_secs(1), None, &[("events", 10)]);
        h.emit_progress(SimTime::from_secs(2), Some(3), &[("events", 20)]);
        h.emit_end(SimTime::from_secs(2));
        eg.close();
        let mut lines = Vec::new();
        while let Some(l) = eg.pop_wait() {
            lines.push(l);
        }
        assert_eq!(
            lines,
            vec![
                "{\"seq\":0,\"deployment\":\"d0\",\"kind\":\"progress\",\"t\":1000000000,\
                 \"fields\":{\"events\":10}}",
                "{\"seq\":1,\"deployment\":\"d0\",\"kind\":\"progress\",\"t\":2000000000,\
                 \"shard\":3,\"fields\":{\"events\":20}}",
                "{\"seq\":2,\"deployment\":\"d0\",\"kind\":\"end\",\"t\":2000000000,\
                 \"dropped\":0}",
            ]
        );
    }

    #[test]
    fn overflow_drops_with_counter_and_consumes_seq() {
        metrics::reset();
        let eg = Egress::new(2);
        let h = Handle::new(Arc::clone(&eg), "d");
        for i in 0..5u64 {
            h.emit_progress(SimTime::from_nanos(i), None, &[("i", i)]);
        }
        assert_eq!(eg.dropped(), 3);
        assert_eq!(eg.next_seq(), 5, "dropped records still consume seqs");
        assert_eq!(eg.peak_depth(), 2);
        assert_eq!(
            metrics::snapshot().counter(metrics::keys::OBS_STREAM_DROPPED),
            3
        );
        eg.close();
        let first = eg.pop_wait().unwrap_or_default();
        assert!(first.starts_with("{\"seq\":0,"), "{first}");
        metrics::reset();
    }

    #[test]
    fn metrics_record_embeds_snapshot_json() {
        metrics::reset();
        metrics::counter("t.x").add(7);
        let eg = Egress::new(8);
        let h = Handle::new(Arc::clone(&eg), "dep");
        h.emit_metrics(SimTime::from_millis(5), &metrics::snapshot());
        eg.close();
        let line = eg.pop_wait().unwrap_or_default();
        assert!(
            line.contains(
                "\"kind\":\"metrics\",\"t\":5000000,\"metrics\":{\"counters\":{\"t.x\":7}"
            ),
            "{line}"
        );
        metrics::reset();
    }

    #[test]
    fn thread_local_install_and_epoch_mark() {
        metrics::reset();
        assert!(!active());
        epoch_mark(SimTime::from_secs(1)); // no-op without a handle
        let eg = Egress::new(8);
        install(Handle::new(Arc::clone(&eg), "d0"));
        assert!(active());
        metrics::counter("t.e").add(1);
        epoch_mark(SimTime::from_secs(1));
        finish(SimTime::from_secs(2));
        assert!(!active());
        eg.close();
        let mut lines = Vec::new();
        while let Some(l) = eg.pop_wait() {
            lines.push(l);
        }
        assert_eq!(
            lines.len(),
            3,
            "epoch metrics + final metrics + end: {lines:?}"
        );
        assert!(
            lines[2].contains("\"kind\":\"end\",\"t\":2000000000"),
            "{:?}",
            lines[2]
        );
        metrics::reset();
    }

    #[test]
    fn ckpt_record_carries_epoch_and_hash() {
        let eg = Egress::new(8);
        let h = Handle::new(Arc::clone(&eg), "d0");
        h.emit_ckpt(
            SimTime::from_secs(3),
            None,
            3,
            "6c62272e07bb014262b821756295c58d",
        );
        h.emit_ckpt(SimTime::from_secs(3), Some(7), 3, "ff");
        eg.close();
        let line = eg.pop_wait().unwrap_or_default();
        assert_eq!(
            line,
            "{\"seq\":0,\"deployment\":\"d0\",\"kind\":\"ckpt\",\"t\":3000000000,\
             \"epoch\":3,\"hash\":\"6c62272e07bb014262b821756295c58d\"}"
        );
        let shard_line = eg.pop_wait().unwrap_or_default();
        assert_eq!(
            shard_line,
            "{\"seq\":1,\"deployment\":\"d0\",\"kind\":\"ckpt\",\"t\":3000000000,\
             \"shard\":7,\"epoch\":3,\"hash\":\"ff\"}"
        );
    }

    #[test]
    fn ckpt_mark_is_noop_without_handle_and_emits_with_one() {
        assert!(!active());
        ckpt_mark(SimTime::from_secs(1), 1, "ff"); // no-op without a handle
        let eg = Egress::new(8);
        install(Handle::new(Arc::clone(&eg), "d0"));
        ckpt_mark(SimTime::from_secs(1), 1, "ff");
        uninstall();
        eg.close();
        let line = eg.pop_wait().unwrap_or_default();
        assert!(
            line.contains("\"kind\":\"ckpt\",\"t\":1000000000,\"epoch\":1,\"hash\":\"ff\""),
            "{line}"
        );
    }

    #[test]
    fn writer_thread_drains_to_buffer() {
        let eg = Egress::new(8);
        let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        struct Chan(std::sync::mpsc::Sender<Vec<u8>>, Vec<u8>);
        impl std::io::Write for Chan {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.0.send(std::mem::take(&mut self.1)).ok();
                Ok(())
            }
        }
        let join = spawn_writer(Arc::clone(&eg), Chan(tx, Vec::new()));
        let h = Handle::new(Arc::clone(&eg), "d");
        h.emit_end(SimTime::ZERO);
        eg.close();
        join.join().ok();
        let bytes = rx.recv().unwrap_or_default();
        let text = String::from_utf8_lossy(&bytes);
        assert_eq!(
            text,
            "{\"seq\":0,\"deployment\":\"d\",\"kind\":\"end\",\"t\":0,\"dropped\":0}\n"
        );
    }
}
