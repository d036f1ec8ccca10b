//! Loopback integration test for the streaming-telemetry path: a
//! `powifi-fleetd`-equivalent server ([`serve_fleet`]) drives two office
//! deployments over a real TCP socket, a `powifi-fleet record`-equivalent
//! client ([`record_stream`]) captures the wire, and the offline
//! aggregation over the capture must byte-match the aggregation of an
//! in-process run of the same fleet — proving the wire layer neither
//! loses, duplicates, nor perturbs records at the default queue depth.
//!
//! The aggregate output is additionally pinned by a committed golden
//! (`tests/golden/fleet_agg.txt`), which holds across `--jobs` and
//! debug/release because every window value is a sum/difference of
//! cumulative integer-backed samples keyed by deterministic `(deployment,
//! shard, t)` — wire interleaving cancels out.

use powifi_bench::fleet::{fleet_session, record_stream, run_fleet, serve_fleet, FleetConfig};
use powifi_sim::obs::agg::{aggregate_capture, AggConfig, Aggregator};
use powifi_sim::obs::stream::{self, Egress};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;

/// The canonical fleet for this test and the committed golden: two office
/// deployments (PoWiFi/UDP and Baseline/TCP), 2 sim-seconds, 500 ms epochs.
fn canonical_fleet() -> FleetConfig {
    FleetConfig::default_fleet(2, 42, 2)
}

/// A `Write` sink into a shared byte buffer, for in-process capture.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run the fleet entirely in-process (no socket), returning the captured
/// NDJSON text and the egress drop counter.
fn run_in_process(cfg: &FleetConfig) -> (String, u64) {
    let egress = Egress::with_default_cap();
    egress.push_raw(&fleet_session(cfg.seed).header_line());
    let buf = Arc::new(Mutex::new(Vec::new()));
    let writer = stream::spawn_writer(Arc::clone(&egress), SharedBuf(Arc::clone(&buf)));
    let outputs = run_fleet(&egress, cfg);
    assert_eq!(outputs.len(), cfg.deployments.len());
    let dropped = egress.dropped();
    egress.close();
    writer.join().unwrap();
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    (text, dropped)
}

#[test]
fn loopback_capture_aggregates_byte_identically_to_in_process() {
    let cfg = canonical_fleet();

    // Server half: ephemeral port, one subscriber required.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    // Client half: powifi-fleet record, in a thread.
    let recorder = thread::spawn(move || {
        let mut capture = Vec::new();
        let lines = record_stream(&addr, &mut capture).unwrap();
        (String::from_utf8(capture).unwrap(), lines)
    });

    let summary = serve_fleet(&listener, &cfg, 1).unwrap();
    let (capture, lines) = recorder.join().unwrap();

    // Zero drops at the default queue depth, and the wire carried every
    // assigned seq plus the session header.
    assert_eq!(summary.dropped, 0, "egress dropped records");
    assert_eq!(lines, summary.records + 1, "header + one line per record");

    // The capture parses with contiguous seqs and the full record count.
    let mut agg = Aggregator::new(&AggConfig::default());
    for line in capture.lines() {
        agg.ingest_line(line).unwrap();
    }
    assert_eq!(agg.seq_gaps(), 0, "seq numbers must be contiguous");
    assert_eq!(agg.records(), summary.records);
    let session = agg.session().expect("capture carries the session header");
    assert_eq!(session.run_id, "fleet-42");
    assert_eq!(session.seed, 42);

    // Offline aggregation over the TCP capture == aggregation of the same
    // fleet run in-process, byte for byte.
    let over_wire = agg.render();
    let (in_process, in_process_dropped) = run_in_process(&cfg);
    assert_eq!(in_process_dropped, 0);
    let offline = aggregate_capture(&in_process, &AggConfig::default()).unwrap();
    assert_eq!(
        over_wire, offline,
        "live-socket and in-process aggregations diverged"
    );
}

#[test]
fn aggregation_is_invariant_across_jobs() {
    let mut serial = canonical_fleet();
    serial.jobs = 1;
    let mut parallel = canonical_fleet();
    parallel.jobs = 2;
    let (a, _) = run_in_process(&serial);
    let (b, _) = run_in_process(&parallel);
    // The raw wire text differs (interleaving), but aggregation does not.
    let agg_a = aggregate_capture(&a, &AggConfig::default()).unwrap();
    let agg_b = aggregate_capture(&b, &AggConfig::default()).unwrap();
    assert_eq!(agg_a, agg_b, "--jobs changed the aggregate");
}

#[test]
fn aggregate_matches_committed_golden() {
    let (capture, _) = run_in_process(&canonical_fleet());
    let agg = aggregate_capture(&capture, &AggConfig::default()).unwrap();
    let golden = include_str!("golden/fleet_agg.txt");
    assert_eq!(
        agg, golden,
        "fleet aggregate drifted from tests/golden/fleet_agg.txt — \
         if the change is intentional, regenerate the golden"
    );
}

/// A subscriber that reads the header and hangs up costs the others
/// nothing: fleetd prunes it, keeps serving, and the remaining subscriber's
/// capture is complete and aggregates to the golden.
#[test]
fn fleetd_keeps_serving_when_a_subscriber_disconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let quitter_addr = addr.clone();
    let quitter = thread::spawn(move || {
        let mut header = String::new();
        let conn = TcpStream::connect(quitter_addr).unwrap();
        BufReader::new(conn).read_line(&mut header).unwrap();
        header
    });
    let recorder = thread::spawn(move || {
        let mut capture = Vec::new();
        record_stream(&addr, &mut capture).unwrap();
        String::from_utf8(capture).unwrap()
    });

    let summary = serve_fleet(&listener, &canonical_fleet(), 2).unwrap();
    let header = quitter.join().unwrap();
    let capture = recorder.join().unwrap();

    assert!(header.contains("\"powifi_stream\":1"), "{header}");
    assert_eq!(summary.dropped, 0, "egress dropped records");
    let mut agg = Aggregator::new(&AggConfig::default());
    for line in capture.lines() {
        agg.ingest_line(line).unwrap();
    }
    assert_eq!(agg.seq_gaps(), 0, "seq numbers must be contiguous");
    assert_eq!(agg.records(), summary.records);
    assert_eq!(agg.render(), include_str!("golden/fleet_agg.txt"));
}
