//! Fleet serving: N concurrent deployments multiplexed over one TCP stream.
//!
//! This is the server half of the streaming-telemetry loop (ROADMAP item
//! 4): [`run_fleet`] executes every deployment of a [`FleetConfig`] on the
//! existing sweep engine's worker pool ([`crate::Sweep`]), with a
//! [`stream::Handle`] installed per worker thread so each deployment's
//! epoch-stepped run emits tagged `metrics` records into one shared
//! [`stream::Egress`]. Every deployment takes one path: an
//! [`OfficeRun`](powifi_deploy::OfficeRun) started or resumed by
//! [`ckpt_run::start_or_resume`] and stepped by [`ckpt_run::drive`], which
//! also writes its checkpoint chain when [`FleetConfig::ckpt`] names a
//! directory. [`serve_fleet`] wraps that in a TCP listener: it
//! waits for subscribers, broadcasts the merged stream to all of them
//! ([`FanOut`]), and closes the connections when the last deployment
//! finishes. The client half lives in [`record_stream`] and the
//! `powifi-obs fleet` commands (`watch` / `record` / `aggregate`).
//!
//! Determinism: deployment results are pure functions of `(spec, seed)` —
//! seeds derive exactly like any sweep's. The wire interleaving of
//! *records* depends on worker scheduling, but `obs::agg` canonicalizes any
//! interleaving of the same record set, so `powifi-obs fleet aggregate` over a
//! capture is byte-identical across `--jobs` and debug/release.

use crate::ckpt_run::{self, CkptPolicy};
use crate::runner::{point_seed, BenchArgs, Experiment, Sweep};
use powifi_core::Scheme;
use powifi_deploy::{OfficeConfig, OfficeSpec, TrafficSpec};
use powifi_sim::obs::stream::{self, Egress, SessionInfo};
use powifi_sim::{SimDuration, SimTime};
use serde::Serialize;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// What one fleet deployment runs.
#[derive(Debug, Clone)]
pub enum DeploymentKind {
    /// §4.1(a) office UDP at this offered rate (Mbit/s).
    Udp {
        /// Offered rate, Mbit/s.
        rate_mbps: f64,
    },
    /// §4.1(b) office TCP.
    Tcp,
}

/// One named deployment of a fleet.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Stream tag (`deployment` field of every record).
    pub name: String,
    /// Router scheme under test.
    pub scheme: Scheme,
    /// Workload.
    pub kind: DeploymentKind,
}

/// A fleet run: which deployments, for how long, at what epoch cadence.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed; per-deployment seeds derive from it sweep-style.
    pub seed: u64,
    /// Sim-time length of every deployment, seconds.
    pub secs: u64,
    /// Snapshot cadence (tumbling epoch width).
    pub epoch: SimDuration,
    /// Worker threads (deployments run concurrently up to this).
    pub jobs: usize,
    /// The deployments.
    pub deployments: Vec<DeploymentSpec>,
    /// Where checkpoint chains go: `Some` writes per-deployment chain files
    /// ([`crate::ckpt_run`]) and *crash-resumes* each deployment from its
    /// newest valid one on restart; `None` writes none. Every deployment
    /// runs through the same epoch-stepped office runner either way.
    pub ckpt: Option<CkptPolicy>,
}

impl FleetConfig {
    /// A small default fleet: `n` office deployments named `d0..`,
    /// alternating UDP (PoWiFi) and TCP (Baseline) workloads.
    pub fn default_fleet(n: usize, seed: u64, secs: u64) -> FleetConfig {
        FleetConfig {
            seed,
            secs,
            epoch: SimDuration::from_millis(500),
            jobs: n.max(1),
            deployments: (0..n)
                .map(|i| DeploymentSpec {
                    name: format!("d{i}"),
                    scheme: if i % 2 == 0 {
                        Scheme::PoWiFi
                    } else {
                        Scheme::Baseline
                    },
                    kind: if i % 2 == 0 {
                        DeploymentKind::Udp { rate_mbps: 10.0 }
                    } else {
                        DeploymentKind::Tcp
                    },
                })
                .collect(),
            ckpt: None,
        }
    }

    /// The office run deployment `pt` makes at its sweep `seed`.
    fn office_spec(&self, pt: &DeploymentSpec, seed: u64) -> OfficeSpec {
        OfficeSpec {
            seed,
            scheme: pt.scheme,
            cfg: OfficeConfig::default(),
            traffic: match pt.kind {
                DeploymentKind::Udp { rate_mbps } => TrafficSpec::Udp { rate_mbps },
                DeploymentKind::Tcp => TrafficSpec::Tcp,
            },
            secs: self.secs,
            epoch: self.epoch,
        }
    }

    /// Start every deployment from its chain as the run will, without
    /// running it: `powifi-fleetd` refuses a chain written for another
    /// spec before it binds. The error names the file.
    pub fn check_chains(&self) -> io::Result<()> {
        let Some(policy) = &self.ckpt else {
            return Ok(());
        };
        for (index, pt) in self.deployments.iter().enumerate() {
            let seed = point_seed(self.seed, FLEET, &pt.name, index);
            ckpt_run::start_or_resume(&self.office_spec(pt, seed), Some(policy), &pt.name)?;
        }
        Ok(())
    }
}

/// Result of one deployment (the sweep output; also what `--json` would
/// serialize).
#[derive(Debug, Clone)]
pub struct DeploymentOutput {
    /// Deployment name.
    pub name: String,
    /// Mean achieved client throughput, Mbit/s.
    pub throughput_mbps: f64,
}

impl Serialize for DeploymentOutput {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".into(), serde::Value::Str(self.name.clone())),
            (
                "throughput_mbps".into(),
                serde::Value::Float(self.throughput_mbps),
            ),
        ])
    }
}

/// The fleet experiment's name, which salts its deployments' seeds.
const FLEET: &str = "fleet";

/// The fleet as a sweep experiment: one grid point per deployment, run on
/// the shared worker pool with a stream handle installed for the duration.
struct FleetExperiment {
    cfg: FleetConfig,
    egress: Arc<Egress>,
}

impl Experiment for FleetExperiment {
    type Point = DeploymentSpec;
    type Output = DeploymentOutput;

    fn name(&self) -> &'static str {
        FLEET
    }

    fn points(&self, _full: bool) -> Vec<DeploymentSpec> {
        self.cfg.deployments.clone()
    }

    fn label(&self, pt: &DeploymentSpec) -> String {
        pt.name.clone()
    }

    fn run(&self, pt: &DeploymentSpec, seed: u64) -> DeploymentOutput {
        let prev = stream::install(stream::Handle::new(Arc::clone(&self.egress), &pt.name));
        let policy = self.cfg.ckpt.as_ref();
        let throughput_mbps = {
            let (mut run, _info) =
                ckpt_run::start_or_resume(&self.cfg.office_spec(pt, seed), policy, &pt.name)
                    .unwrap_or_else(|e| panic!("deployment {}: checkpoint chain: {e}", pt.name));
            ckpt_run::drive(&mut run, policy, &pt.name)
                .unwrap_or_else(|e| panic!("deployment {}: checkpoint write: {e}", pt.name));
            run.s.record_run_telemetry(&run.w, run.end());
            run.throughput_mbps()
        };
        stream::finish(SimTime::from_secs(self.cfg.secs));
        if let Some(h) = prev {
            stream::install(h);
        }
        DeploymentOutput {
            name: pt.name.clone(),
            throughput_mbps,
        }
    }
}

/// Run every deployment of `cfg` on the sweep worker pool, emitting tagged
/// records into `egress`. Returns the deployment outputs in spec order.
/// Does not close the egress — the caller owns the consumer side.
pub fn run_fleet(egress: &Arc<Egress>, cfg: &FleetConfig) -> Vec<DeploymentOutput> {
    let exp = FleetExperiment {
        cfg: cfg.clone(),
        egress: Arc::clone(egress),
    };
    let args = BenchArgs {
        seed: cfg.seed,
        jobs: cfg.jobs,
        ..BenchArgs::default()
    };
    Sweep::new(&args)
        .run(&exp)
        .into_iter()
        .map(|r| r.output)
        .collect()
}

/// The session header a fleet run announces itself with.
pub fn fleet_session(seed: u64) -> SessionInfo {
    SessionInfo {
        run_id: format!("fleet-{seed}"),
        seed,
        git_sha: crate::report::git_head_sha(),
    }
}

/// Broadcast writer: one line fans out to every subscriber; dead
/// subscribers are pruned, and writing fails (stopping the stream writer,
/// which closes the egress) only when *all* of them are gone.
pub struct FanOut {
    subs: Vec<TcpStream>,
}

impl FanOut {
    /// A fan-out over already-accepted subscriber connections.
    pub fn new(subs: Vec<TcpStream>) -> FanOut {
        FanOut { subs }
    }
}

impl Write for FanOut {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.subs.retain_mut(|s| s.write_all(buf).is_ok());
        if self.subs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "all subscribers disconnected",
            ));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.subs.retain_mut(|s| s.flush().is_ok());
        Ok(())
    }
}

/// Summary of one [`serve_fleet`] session.
#[derive(Debug)]
pub struct ServeSummary {
    /// Per-deployment outputs, spec order.
    pub outputs: Vec<DeploymentOutput>,
    /// Records dropped by the egress (0 means the wire carries every seq).
    pub dropped: u64,
    /// Deepest the egress queue got.
    pub peak_depth: usize,
    /// Records offered (== seqs assigned == header-exclusive line count
    /// when nothing dropped).
    pub records: u64,
}

/// Serve one fleet run over `listener`: wait for `min_subscribers`
/// connections, start the deployments, broadcast the merged stream, close
/// the connections when the last deployment ends. Subscribers must connect
/// *before* the run starts (the wire has no replay); `powifi-obs fleet record`
/// does exactly that.
pub fn serve_fleet(
    listener: &TcpListener,
    cfg: &FleetConfig,
    min_subscribers: usize,
) -> io::Result<ServeSummary> {
    let mut subs = Vec::new();
    while subs.len() < min_subscribers.max(1) {
        let (s, _) = listener.accept()?;
        s.set_nodelay(true).ok();
        subs.push(s);
    }
    let egress = Egress::with_default_cap();
    egress.push_raw(&fleet_session(cfg.seed).header_line());
    let writer = stream::spawn_writer(Arc::clone(&egress), FanOut::new(subs));
    let outputs = run_fleet(&egress, cfg);
    let (dropped, peak_depth, records) = (egress.dropped(), egress.peak_depth(), egress.next_seq());
    egress.close();
    let _ = writer.join();
    Ok(ServeSummary {
        outputs,
        dropped,
        peak_depth,
        records,
    })
}

/// Client side: connect to a serving fleetd at `addr` and copy every line
/// into `out` until the server closes the stream. Returns the line count.
pub fn record_stream(addr: &str, out: &mut impl Write) -> io::Result<u64> {
    let conn = TcpStream::connect(addr)?;
    let mut lines = 0u64;
    for line in BufReader::new(conn).lines() {
        let line = line?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        lines += 1;
    }
    out.flush()?;
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fleet_alternates_workloads() {
        let cfg = FleetConfig::default_fleet(3, 7, 2);
        assert_eq!(cfg.deployments.len(), 3);
        assert_eq!(cfg.deployments[0].name, "d0");
        assert!(matches!(
            cfg.deployments[0].kind,
            DeploymentKind::Udp { .. }
        ));
        assert!(matches!(cfg.deployments[1].kind, DeploymentKind::Tcp));
    }

    #[test]
    fn fanout_prunes_dead_subscribers_and_fails_when_empty() {
        let mut f = FanOut::new(Vec::new());
        assert!(f.write(b"x").is_err(), "no subscribers → broken pipe");
    }

    #[test]
    fn fleet_session_header_is_wire_parseable() {
        let h = fleet_session(9);
        let mut agg =
            powifi_sim::obs::agg::Aggregator::new(&powifi_sim::obs::agg::AggConfig::default());
        agg.ingest_line(&h.header_line()).unwrap();
        assert_eq!(agg.session().unwrap().run_id, "fleet-9");
        assert_eq!(agg.session().unwrap().seed, 9);
    }
}
