//! The exit-code contract of `powifi-obs`, one row table per case, all run
//! by `check`: 0 success; 1 a negative verdict on input that was read (a
//! divergence, schema violations, a failed verify, gaps under
//! `--deny-gaps`); 2 bad arguments, or an input that cannot be opened or
//! parsed. Each row also checks a fragment of what the command says, so a
//! row cannot pass by failing for some other reason, and every code-2 row
//! the usage line. CI gates lean on these codes. (The umbrella crate's
//! `tests/cli_inspectors.rs` covers `powifi-fuzz --replay`'s artifacts.)

use powifi_bench::ckpt_run::chain_path;
use powifi_sim::ckpt::{self, Value, ValueExt};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where a row's fragment must appear.
enum Says {
    /// Somewhere in stdout.
    Stdout(&'static str),
    /// All of stdout.
    StdoutIs(&'static str),
    /// Somewhere in stderr.
    Stderr(&'static str),
    /// Somewhere in stderr, with stdout on `/dev/full`.
    StderrFull(&'static str),
}
use Says::{Stderr, StderrFull, Stdout, StdoutIs};

/// Arguments, expected exit code, and what the command must say.
type Row<'a> = (Vec<&'a str>, i32, Says);

/// Run `powifi-obs` on each row and hold it to the row's code and fragment.
fn check(rows: &[Row]) {
    for (args, code, says) in rows {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_powifi-obs"));
        if let StderrFull(_) = says {
            cmd.stdout(fs::File::create("/dev/full").unwrap());
        }
        let out = cmd.args(args).output().expect("spawn powifi-obs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let context = format!("{args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert_eq!(out.status.code(), Some(*code), "{context}");
        let said = match says {
            Stdout(f) => stdout.contains(f),
            StdoutIs(f) => stdout == *f,
            Stderr(f) | StderrFull(f) => stderr.contains(f),
        };
        assert!(said, "{context}");
        if *code == 2 {
            assert!(stderr.contains("usage: powifi-obs"), "{context}");
        }
    }
}

/// A fresh directory for one test's inputs, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("powifi-obs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Write `body` to `name` and return its path.
    fn file(&self, name: &str, body: &[u8]) -> String {
        let p = self.0.join(name);
        fs::write(&p, body).unwrap();
        p.to_str().unwrap().to_string()
    }

    /// A path that does not exist.
    fn missing(&self) -> String {
        self.0.join("missing").to_str().unwrap().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const TRACE_A: &str = "{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}\n\
    {\"t\":10000,\"layer\":\"mac\",\"kind\":\"tx_end\",\"medium\":0,\"sta\":1}\n";
const TRACE_B: &str = "{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}\n\
    {\"t\":10000,\"layer\":\"mac\",\"kind\":\"tx_end\",\"medium\":0,\"sta\":2}\n";
/// Line 3 carries an unknown kind.
const TRACE_BAD_KIND: &str = "{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}\n\
    {\"t\":10000,\"layer\":\"mac\",\"kind\":\"tx_end\",\"medium\":0,\"sta\":1}\n\
    {\"t\":20000,\"layer\":\"mac\",\"kind\":\"tx_stop\",\"sta\":1}\n";

const PROF_HEADER: &str = "{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}";
const PROF_SNAP_A: &str = "{\"wall\":false,\"spans\":[{\"name\":\"sim.event\",\"count\":3,\
    \"sim_self_ns\":100,\"sim_total_ns\":100,\"sim_max_ns\":90,\"children\":[]}]}";
const PROF_SNAP_B: &str = "{\"wall\":false,\"spans\":[{\"name\":\"sim.event\",\"count\":4,\
    \"sim_self_ns\":100,\"sim_total_ns\":100,\"sim_max_ns\":90,\"children\":[]}]}";

const FLEET_HEADER: &str =
    "{\"powifi_stream\":1,\"run_id\":\"fleet-7\",\"seed\":7,\"git_sha\":\"x\"}\n";

/// A one-frame trace whose `tx_start` sends at `rate`.
fn trace_at_rate(rate: &str) -> String {
    format!(
        "{{\"experiment\":\"demo\",\"point\":0,\"label\":\"p0\",\"seed\":7}}\n\
         {{\"t\":10000,\"layer\":\"mac\",\"kind\":\"tx_start\",\"medium\":0,\"sta\":1,\
         \"frame\":\"power\",\"bytes\":1536,\"rate_mbps\":{rate},\"collided\":false}}\n"
    )
}

/// One `progress` record of deployment `d0`.
fn fleet_record(seq: u64, t_ms: u64) -> String {
    format!(
        "{{\"seq\":{seq},\"deployment\":\"d0\",\"kind\":\"progress\",\"t\":{},\
         \"fields\":{{\"events\":{seq},\"frames\":1}}}}\n",
        t_ms * 1_000_000
    )
}

/// A small checkpoint that is not an office run.
fn state(epoch: u64, x: u64) -> Vec<u8> {
    ckpt::save(
        &Value::map()
            .field("epoch", Value::UInt(epoch))
            .field("x", Value::UInt(x))
            .build(),
    )
}

/// A chain of three epochs whose `x` departs from `epoch` at `diverge`.
fn chain(dir: &Path, diverge: u64) -> String {
    fs::create_dir_all(dir).unwrap();
    for e in 1..=3 {
        let x = if e >= diverge { 100 + e } else { e };
        fs::write(chain_path(dir, "t", e), state(e, x)).unwrap();
    }
    dir.to_str().unwrap().to_string()
}

#[test]
fn usage_exit_codes() {
    check(&[
        (vec!["--help"], 0, Stderr("usage: powifi-obs")),
        (vec![], 2, Stderr("missing command")),
        (vec!["frob", "x"], 2, Stderr("unknown command `frob x`")),
    ]);
}

#[test]
fn trace_diff_exit_codes() {
    let s = Scratch::new("trace-diff");
    let a = s.file("a.trace.jsonl", TRACE_A.as_bytes());
    let b = s.file("b.trace.jsonl", TRACE_B.as_bytes());
    check(&[
        (
            vec!["trace", "diff", &a, &a],
            0,
            Stdout("traces are structurally identical"),
        ),
        (vec!["trace", "diff", &a, &b], 1, Stdout("record 0 differs")),
        (
            vec!["trace", "diff"],
            2,
            Stderr("expected 2 argument(s), got 0"),
        ),
    ]);
}

#[test]
fn trace_validate_names_the_offending_line() {
    let s = Scratch::new("trace-validate");
    let good = s.file("good.trace.jsonl", TRACE_A.as_bytes());
    let bad = s.file("bad.trace.jsonl", TRACE_BAD_KIND.as_bytes());
    let rate = |name, rate| s.file(name, trace_at_rate(rate).as_bytes());
    let (zero, negative, null) = (
        rate("zero.trace.jsonl", "0"),
        rate("negative.trace.jsonl", "-6.5"),
        rate("null.trace.jsonl", "null"),
    );
    let no_rate = "line 2: point 0 record 0 (tx_start): field `rate_mbps` is not a positive rate";
    check(&[
        (
            vec!["trace", "validate", &good],
            0,
            Stdout("ok: 1 records across 1 point(s)"),
        ),
        (
            vec!["trace", "validate", &bad],
            1,
            Stderr("line 3: point 0 record 1 (tx_stop): unknown event kind"),
        ),
        (vec!["trace", "validate", &zero], 1, Stderr(no_rate)),
        (vec!["trace", "validate", &negative], 1, Stderr(no_rate)),
        (vec!["trace", "validate", &null], 1, Stderr(no_rate)),
    ]);
}

#[test]
fn trace_unreadable_input_or_unknown_command_exits_2() {
    let s = Scratch::new("trace-unreadable");
    let a = s.file("a.trace.jsonl", TRACE_A.as_bytes());
    let torn = s.file("torn.trace.jsonl", &TRACE_A.as_bytes()[..80]);
    let missing = s.missing();
    check(&[
        (
            vec!["trace", "summary", &torn],
            2,
            Stderr("torn.trace.jsonl: line 2:"),
        ),
        (vec!["trace", "summary", &missing], 2, Stderr("cannot read")),
        (
            vec!["trace", "filter", &a],
            2,
            StderrFull("error: stdout: "),
        ),
        (
            vec!["trace", "frobnicate", &a],
            2,
            Stderr("unknown command `trace frobnicate`"),
        ),
    ]);
}

#[test]
fn prof_subcommands_and_exit_codes() {
    let s = Scratch::new("prof");
    let a = s.file(
        "a.prof.jsonl",
        format!("{PROF_HEADER}\n{PROF_SNAP_A}\n").as_bytes(),
    );
    let b = s.file(
        "b.prof.jsonl",
        format!("{PROF_HEADER}\n{PROF_SNAP_B}\n").as_bytes(),
    );
    let torn = s.file(
        "torn.prof.jsonl",
        format!("{PROF_HEADER}\n{{\"wall\":").as_bytes(),
    );
    let missing = s.missing();
    check(&[
        (
            vec!["prof", "tree", &a],
            0,
            Stdout("  sim.event count=3 total=100ns"),
        ),
        (vec!["prof", "flame", &a], 0, StdoutIs("sim.event 100\n")),
        (
            vec!["prof", "diff", &a, &a],
            0,
            Stdout("profiles are structurally identical"),
        ),
        (vec!["prof", "diff", &a, &b], 1, Stdout("count 3 vs 4")),
        (
            vec!["prof", "top", &torn],
            2,
            Stderr("torn.prof.jsonl: line 2:"),
        ),
        (vec!["prof", "tree", &missing], 2, Stderr("cannot read")),
        (
            vec!["prof", "top", &a, "--limit", "0"],
            2,
            Stderr("--limit needs a positive count"),
        ),
        (
            vec!["prof", "nonsense", &a],
            2,
            Stderr("unknown command `prof nonsense`"),
        ),
    ]);
}

#[test]
fn ckpt_subcommands_and_exit_codes() {
    let s = Scratch::new("ckpt");
    let office = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/office.ckpt");
    let torn = s.file("torn.ckpt", &fs::read(office).unwrap()[..64]);
    let x1 = s.file("x1.ckpt", &state(1, 1));
    let x2 = s.file("x2.ckpt", &state(1, 2));
    let chain_a = chain(&s.0.join("chain-a"), u64::MAX);
    let chain_b = chain(&s.0.join("chain-b"), 2);
    let missing = s.missing();
    check(&[
        (vec!["ckpt", "info", office], 0, Stdout("version: 1")),
        (
            vec!["ckpt", "verify", office],
            0,
            Stdout("restore→save fixed point"),
        ),
        (vec!["ckpt", "diff", &x1, &x1], 0, Stdout("identical (hash")),
        (
            vec!["ckpt", "bisect", &chain_a, &chain_a],
            0,
            Stdout("chains are identical through epoch 3"),
        ),
        (vec!["ckpt", "diff", &x1, &x2], 1, Stdout("x: 1 != 2")),
        (
            vec!["ckpt", "bisect", &chain_a, &chain_b],
            1,
            Stdout("first divergence at epoch 2"),
        ),
        (vec!["ckpt", "verify", &x1], 1, Stdout("restore FAILED")),
        (
            vec!["ckpt", "info", &torn],
            2,
            Stderr("torn.ckpt: checkpoint"),
        ),
        (vec!["ckpt", "verify", &missing], 2, Stderr("cannot read")),
        (
            vec!["ckpt", "info", office, "--limit", "3"],
            2,
            Stderr("unknown flag `--limit`"),
        ),
        (
            vec!["ckpt", "rewind", office],
            2,
            Stderr("unknown command `ckpt rewind`"),
        ),
    ]);
}

#[test]
fn fleet_aggregate_exit_codes() {
    let s = Scratch::new("fleet");
    let ok = s.file(
        "ok.ndjson",
        format!(
            "{FLEET_HEADER}{}{}",
            fleet_record(0, 500),
            fleet_record(1, 1000)
        )
        .as_bytes(),
    );
    let gap = s.file(
        "gap.ndjson",
        format!(
            "{FLEET_HEADER}{}{}",
            fleet_record(0, 500),
            fleet_record(2, 1000)
        )
        .as_bytes(),
    );
    let torn = s.file(
        "torn.ndjson",
        format!("{FLEET_HEADER}{{\"seq\":0,\"deployment\"").as_bytes(),
    );
    let missing = s.missing();
    check(&[
        (
            vec!["fleet", "aggregate", &ok, "--deny-gaps"],
            0,
            Stderr("2 records, 0 seq gap(s)"),
        ),
        (
            vec!["fleet", "aggregate", &gap],
            0,
            Stderr("2 records, 1 seq gap(s)"),
        ),
        (
            vec!["fleet", "aggregate", &gap, "--deny-gaps"],
            1,
            Stderr("stream lost records"),
        ),
        (
            vec!["fleet", "aggregate", &torn],
            2,
            Stderr("torn.ndjson: line 2:"),
        ),
        (
            vec!["fleet", "aggregate", &missing],
            2,
            Stderr("cannot read"),
        ),
        (
            vec!["fleet", "aggregate", &ok, "--window-ms", "0"],
            2,
            Stderr("--window-ms needs a positive count"),
        ),
        (
            vec![
                "fleet",
                "aggregate",
                &ok,
                "--window-ms",
                "18446744073709551615",
            ],
            2,
            Stderr("--window-ms 18446744073709551615 overflows 64-bit nanoseconds"),
        ),
        (
            vec!["fleet", "replay", &ok],
            2,
            Stderr("unknown command `fleet replay`"),
        ),
    ]);
}
