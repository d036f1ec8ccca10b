//! `office_fleet`: `serve_fleet` over loopback to one in-process subscriber
//! that aggregates the stream with `obs::agg`. Four office deployments
//! (UDP PoWiFi and TCP Baseline, alternating) of 600 sim-s each at 500 ms
//! epochs run on the sweep worker pool. It exercises `net` TCP/UDP,
//! `deploy::telemetry` epochs, the `obs::stream` wire and the sweep pool —
//! and no checkpointing, which makes it the bypass case for `office_ckpt`.

use super::{host_jobs, ratio, Trace, Unit};
use crate::digest::Digest;
use crate::spans::Spans;
use powifi_bench::{serve_fleet, DeploymentKind, FleetConfig, ServeSummary};
use powifi_deploy::{tcp_experiment_epochs, udp_experiment_epochs, OfficeConfig};
use powifi_sim::obs::agg::{AggConfig, Aggregator};
use powifi_sim::obs::metrics::{self, keys};
use powifi_sim::SimRng;
use serde::Value;
use std::io::{self, BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Fleet shape.
#[derive(Debug, Clone, Copy)]
pub struct FleetSize {
    /// Deployments (alternating UDP / TCP).
    pub deployments: usize,
    /// Sim-time length of each deployment, seconds.
    pub sim_secs: u64,
    /// Sweep worker threads.
    pub jobs: usize,
}

impl FleetSize {
    /// Four 600 s deployments on [`host_jobs`] workers.
    pub fn paper() -> FleetSize {
        FleetSize {
            deployments: 4,
            sim_secs: 600,
            jobs: host_jobs(),
        }
    }
}

fn config(size: &FleetSize, seed: u64) -> FleetConfig {
    FleetConfig {
        jobs: size.jobs,
        ..FleetConfig::default_fleet(size.deployments, seed, size.sim_secs)
    }
}

/// What the subscriber saw of one served session.
struct Session {
    /// The server's own account (outputs, records offered, drops).
    summary: ServeSummary,
    /// Subscriber time in `obs::agg` (ingesting and rendering), ms.
    agg_ms: f64,
    /// Records the subscriber received (header excluded).
    received: u64,
    /// Sequence numbers missing at the subscriber.
    seq_gaps: u64,
    /// The canonical windowed aggregate of the stream.
    aggregate: String,
    /// Simulated events across all deployments, from the aggregate.
    events: u64,
    /// MAC frames across all deployments, from the aggregate.
    frames: u64,
}

impl Session {
    /// Digest of the deployment throughputs, the record count and the
    /// aggregate.
    fn digest(&self) -> String {
        let mut d = Digest::new();
        for o in &self.summary.outputs {
            d.f64(&o.name, o.throughput_mbps);
        }
        d.u64("records", self.summary.records)
            .str("aggregate", &self.aggregate);
        d.finish()
    }
}

/// Time one bind plus subscriber connect, and drop both.
pub(crate) fn setup_once() -> Duration {
    let t = Instant::now();
    let pair = connect();
    let took = t.elapsed();
    drop(pair);
    took
}

fn connect() -> io::Result<(TcpListener, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Completes against the listen backlog; `serve_fleet` accepts it.
    let conn = TcpStream::connect(listener.local_addr()?)?;
    Ok((listener, conn))
}

/// The subscriber: aggregate every line as it arrives, until the server
/// closes the stream. Returns the aggregator and the time spent in it.
fn subscribe(conn: TcpStream) -> io::Result<(Aggregator, Duration)> {
    let mut agg = Aggregator::new(&AggConfig::default());
    let mut busy = Duration::ZERO;
    for line in BufReader::new(conn).lines() {
        let line = line?;
        let t = Instant::now();
        agg.ingest_line(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        busy += t.elapsed();
    }
    Ok((agg, busy))
}

/// Sum a column over the per-deployment rows of an `obs::agg` rendering
/// (the merged `*` rows would count everything twice).
fn aggregate_total(rendered: &str, column: &str) -> u64 {
    rendered
        .lines()
        .filter_map(|l| match serde_json::from_str(l) {
            Ok(Value::Object(row)) => Some(row),
            _ => None,
        })
        .filter(|row| {
            !row.iter()
                .any(|(k, v)| k == "deployment" && *v == Value::Str("*".into()))
        })
        .filter_map(|row| match row.into_iter().find(|(k, _)| k == column)?.1 {
            Value::UInt(n) => Some(n),
            _ => None,
        })
        .sum()
}

/// Bind, connect the subscriber, and serve the fleet to it while it
/// aggregates the stream, under an `office_fleet` root span. Returns the
/// session, the set-up time and the run time.
fn session(
    size: &FleetSize,
    seed: u64,
    spans: &mut Spans,
) -> io::Result<(Session, Duration, Duration)> {
    let cfg = config(size, seed);
    let root = spans.enter("office_fleet");
    let c = spans.enter("bench.fleet.connect");
    let (listener, conn) = connect()?;
    let setup = spans.exit(c);
    let (summary, subscriber) = std::thread::scope(|s| {
        let reader = s.spawn(move || subscribe(conn));
        let summary = spans.time("bench.serve_fleet", || serve_fleet(&listener, &cfg, 1));
        (summary, reader.join().expect("subscriber thread panicked"))
    });
    let (summary, (agg, ingest)) = (summary?, subscriber?);
    let r = spans.enter("obs.agg.render");
    let aggregate = agg.render();
    let render = spans.exit(r);
    let total = spans.exit(root);
    let out = Session {
        summary,
        agg_ms: (ingest + render).as_secs_f64() * 1e3,
        received: agg.records(),
        seq_gaps: agg.seq_gaps(),
        events: aggregate_total(&aggregate, "events"),
        frames: aggregate_total(&aggregate, "frames"),
        aggregate,
    };
    Ok((out, setup, total - setup))
}

fn to_unit(s: &Session, setup: Duration, wall: Duration) -> Unit {
    let missing = s.summary.records.saturating_sub(s.received);
    let bad_outputs = s
        .summary
        .outputs
        .iter()
        .filter(|o| !(o.throughput_mbps.is_finite() && o.throughput_mbps > 0.0))
        .count() as u64;
    let mut problems = Vec::new();
    if s.summary.dropped + missing + s.seq_gaps > 0 {
        problems.push(format!(
            "stream lost records: {} dropped, {} missing, {} seq gaps",
            s.summary.dropped, missing, s.seq_gaps
        ));
    }
    if bad_outputs > 0 {
        problems.push(format!("{bad_outputs} deployment(s) delivered nothing"));
    }
    Unit {
        setup,
        wall,
        events: s.events,
        digest: s.digest(),
        attempted: s.summary.records + s.summary.outputs.len() as u64,
        failed: s.summary.dropped + missing + bad_outputs,
        problems,
    }
}

fn failed_unit(e: io::Error) -> Unit {
    Unit {
        setup: Duration::ZERO,
        wall: Duration::ZERO,
        events: 0,
        digest: String::new(),
        attempted: 1,
        failed: 1,
        problems: vec![format!("fleet session failed: {e}")],
    }
}

/// One measured session.
pub fn unit(size: &FleetSize, seed: u64, spans: &mut Spans) -> Unit {
    match session(size, seed, spans) {
        Ok((s, setup, wall)) => to_unit(&s, setup, wall),
        Err(e) => failed_unit(e),
    }
}

/// The seed the sweep engine hands deployment `index` named `name`.
fn deployment_seed(fleet_seed: u64, name: &str, index: usize) -> u64 {
    SimRng::from_seed(fleet_seed).derive_seed(&format!("fleet/{name}#{index}"))
}

/// Traced session, then one deployment of each kind run alone on this
/// thread with no stream installed (they must reproduce the served
/// throughputs), and the TCP one again without epochs for the telemetry
/// overhead.
pub(crate) fn trace(size: &FleetSize, seed: u64) -> Trace {
    let mut spans = Spans::new();
    let (s, setup, wall) = match session(size, seed, &mut spans) {
        Ok(r) => r,
        Err(e) => panic!("office_fleet traced session failed: {e}"),
    };
    let mut unit = to_unit(&s, setup, wall);
    let cfg = config(size, seed);
    let (office, epoch) = (OfficeConfig::default(), Some(cfg.epoch));
    let first = |tcp: bool| {
        cfg.deployments
            .iter()
            .enumerate()
            .find(|(_, d)| matches!(d.kind, DeploymentKind::Tcp) == tcp)
            .expect("the fleet alternates UDP and TCP deployments")
    };
    let ((ui, ud), (ti, td)) = (first(false), first(true));
    let DeploymentKind::Udp { rate_mbps } = ud.kind else {
        unreachable!("first(false) finds a UDP deployment")
    };
    let (useed, tseed) = (
        deployment_seed(seed, &ud.name, ui),
        deployment_seed(seed, &td.name, ti),
    );
    let udp = spans.time("deploy.udp_run", || {
        udp_experiment_epochs(office, ud.scheme, rate_mbps, useed, cfg.secs, epoch).throughput_mbps
    });
    metrics::reset();
    let tcp = spans.time("deploy.tcp_run", || {
        tcp_experiment_epochs(office, td.scheme, tseed, cfg.secs, epoch).throughput_mbps
    });
    let snap = metrics::snapshot();
    let batch = spans.time("deploy.tcp_run_batch", || {
        tcp_experiment_epochs(office, td.scheme, tseed, cfg.secs, None).throughput_mbps
    });
    let served = |i: usize| {
        s.summary
            .outputs
            .get(i)
            .map(|o| o.throughput_mbps.to_bits())
    };
    for (name, i, alone) in [(&ud.name, ui, udp), (&td.name, ti, tcp)] {
        if served(i) != Some(alone.to_bits()) {
            unit.problems
                .push(format!("{name} run alone differs from its served run"));
        }
    }
    if batch.to_bits() != tcp.to_bits() {
        unit.problems
            .push("epoch-stepped and batch TCP runs differ".into());
    }
    if !unit.problems.is_empty() {
        unit.failed = unit.attempted;
    }
    let (udp_ms, tcp_ms) = (
        spans.total_ms("deploy.udp_run"),
        spans.total_ms("deploy.tcp_run"),
    );
    let batch_ms = spans.total_ms("deploy.tcp_run_batch");
    // Sequential cost of the whole fleet, estimated from the one-of-each
    // runs, over the worker capacity the session had.
    let sequential: f64 = cfg
        .deployments
        .iter()
        .map(|d| match d.kind {
            DeploymentKind::Udp { .. } => udp_ms,
            DeploymentKind::Tcp => tcp_ms,
        })
        .sum();
    let serve_ms = spans.total_ms("bench.serve_fleet");
    let layers = vec![
        (
            "bench.fleet.connect_ms",
            spans.total_ms("bench.fleet.connect"),
        ),
        ("bench.serve_fleet_ms", serve_ms),
        ("obs.agg_ms", s.agg_ms),
        ("deploy.udp_run_ms", udp_ms),
        ("deploy.tcp_run_ms", tcp_ms),
        (
            "deploy.telemetry_overhead_frac",
            ratio(tcp_ms, batch_ms) - 1.0,
        ),
        (
            "bench.sweep.parallel_eff",
            ratio(sequential, cfg.jobs as f64 * serve_ms),
        ),
        ("sim.stream.records", s.summary.records as f64),
        ("sim.stream.dropped", s.summary.dropped as f64),
        ("sim.stream.peak_depth", s.summary.peak_depth as f64),
        ("sim.stream.seq_gaps", s.seq_gaps as f64),
        ("net.tcp_rto", snap.counter(keys::NET_TCP_RTO) as f64),
        (
            "net.tcp_fast_retransmit",
            snap.counter(keys::NET_TCP_FAST_RETRANSMIT) as f64,
        ),
    ];
    Trace::new(spans, "office_fleet", unit, s.frames, layers)
}
