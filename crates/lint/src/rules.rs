//! The rule catalogue: R1–R14 over one parsed file (the [`crate::ast`]
//! engine) plus the workspace [`SymbolIndex`].
//!
//! Scope model: every rule declares which crates it patrols and whether it
//! looks inside test regions. "Simulation crates" are the ones whose
//! iteration order, clocks, and float handling feed the golden artifacts;
//! `crates/bench` is the sanctioned boundary where wall clocks and ambient
//! randomness are allowed (progress bars, run timing), so R2 and R7 exempt
//! it. The profiler implementation (`crates/sim/src/obs/prof.rs`) is the one
//! other place allowed to read `Instant` — R7 carries a file-level carve-out
//! for it via [`FileContext::is_prof_impl`]; likewise the RNG
//! implementation (`crates/sim/src/rng.rs`) is the one place allowed to
//! seed raw generators, so R10 carves it out via
//! [`FileContext::is_rng_impl`]; and the streaming-telemetry wire layer
//! (`crates/sim/src/obs/stream.rs`) is the one simulation file allowed to
//! touch sockets, so R13 carves it out via
//! [`FileContext::is_stream_impl`].
//!
//! Two engine layers feed findings. *Token-level* passes (most of R1–R8,
//! R12–R14) scan the raw stream with test-region masking, exactly as engine v1
//! did — macro bodies included. *AST* passes use the parse tree: alias
//! resolution through `use … as` (R1/R2/R7), typed-local float context
//! (R4), closure captures and spawn provenance (R9), enclosing-fn seeding
//! discipline (R10), and match-arm wildcards (R11).

use crate::ast::{closure_captures, FileAst, SymbolIndex};
use crate::lexer::{TokKind, Token};

/// Crates whose behavior feeds simulation results (R1/R3/R4/R5 and the
/// R10–R12 determinism family scope).
pub const SIM_CRATES: [&str; 8] = [
    "core", "deploy", "harvest", "mac", "net", "rf", "sensors", "sim",
];

/// Crates whose event handling is hot enough that per-event heap
/// allocation is a perf bug (R8 scope). Deployment scenarios and test
/// support may box handlers.
pub const HOT_CRATES: [&str; 5] = ["core", "harvest", "mac", "net", "sim"];

/// The fourteen rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no `HashMap`/`HashSet` in simulation crates.
    HashIteration,
    /// R2: no ambient randomness or non-`Instant` wall clocks outside
    /// `crates/bench`.
    AmbientNondeterminism,
    /// R3: no `unwrap()`/`expect()` in non-test library code.
    Unwrap,
    /// R4: no `==`/`!=` against float values.
    FloatEq,
    /// R5: no bare `as` float→int casts without a rounding helper.
    BareCast,
    /// R6: no direct `TraceSink` construction/installation outside
    /// `crates/sim` (the `obs` layer) and `crates/bench` (the runner).
    SinkConstruction,
    /// R7: no `std::time::Instant` outside `crates/bench` and the profiler
    /// implementation (`crates/sim/src/obs/prof.rs`).
    WallClockScope,
    /// R8: no per-event heap allocation (`Box<dyn Fn…>` handlers) in hot
    /// simulation layers; post typed events through the world's `Dispatch`
    /// impl instead.
    HotPathAlloc,
    /// R9: worker closures in the sharded city runtime must not capture or
    /// touch shared mutable state except through the export-table API.
    ShardIsolation,
    /// R10: `SimRng` streams come from the experiment seed via blessed
    /// seeding helpers — no literal seeds, raw generator seeding, stream
    /// clones, or mid-run reseeding.
    RngStreamDiscipline,
    /// R11: no `_ =>` wildcard arms in `Event`/`Dispatch` matches — new
    /// event kinds must fail loudly at compile review.
    NonExhaustiveDispatch,
    /// R12: no `unsafe` in simulation crates.
    UnsafeInSim,
    /// R13: no socket construction or blocking network I/O in simulation
    /// crates outside the streaming-telemetry egress
    /// (`crates/sim/src/obs/stream.rs`).
    SocketOutsideStream,
    /// R14: no wall-clock sources (`Instant`, `SystemTime`, `UNIX_EPOCH`)
    /// in checkpoint-serialization code — any crate, including
    /// `crates/bench`, whose R2/R7 exemptions do not extend to state that
    /// gets hashed into a checkpoint.
    WallClockInCkpt,
}

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 14] = [
        Rule::HashIteration,
        Rule::AmbientNondeterminism,
        Rule::Unwrap,
        Rule::FloatEq,
        Rule::BareCast,
        Rule::SinkConstruction,
        Rule::WallClockScope,
        Rule::HotPathAlloc,
        Rule::ShardIsolation,
        Rule::RngStreamDiscipline,
        Rule::NonExhaustiveDispatch,
        Rule::UnsafeInSim,
        Rule::SocketOutsideStream,
        Rule::WallClockInCkpt,
    ];

    /// Short id (`R1`…`R13`), used in output and baseline entries.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashIteration => "R1",
            Rule::AmbientNondeterminism => "R2",
            Rule::Unwrap => "R3",
            Rule::FloatEq => "R4",
            Rule::BareCast => "R5",
            Rule::SinkConstruction => "R6",
            Rule::WallClockScope => "R7",
            Rule::HotPathAlloc => "R8",
            Rule::ShardIsolation => "R9",
            Rule::RngStreamDiscipline => "R10",
            Rule::NonExhaustiveDispatch => "R11",
            Rule::UnsafeInSim => "R12",
            Rule::SocketOutsideStream => "R13",
            Rule::WallClockInCkpt => "R14",
        }
    }

    /// Human slug, accepted in `allow(...)` alongside the id.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::AmbientNondeterminism => "ambient-nondeterminism",
            Rule::Unwrap => "unwrap",
            Rule::FloatEq => "float-eq",
            Rule::BareCast => "bare-cast",
            Rule::SinkConstruction => "sink-construction",
            Rule::WallClockScope => "instant-outside-bench",
            Rule::HotPathAlloc => "no-hot-path-alloc",
            Rule::ShardIsolation => "shard-isolation",
            Rule::RngStreamDiscipline => "rng-stream-discipline",
            Rule::NonExhaustiveDispatch => "non-exhaustive-dispatch",
            Rule::UnsafeInSim => "unsafe-in-sim",
            Rule::SocketOutsideStream => "socket-outside-stream",
            Rule::WallClockInCkpt => "wall-clock-in-ckpt",
        }
    }

    /// Parse an id or slug (case-insensitive for ids).
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.slug() == s)
    }

    /// One-line description for `--rules` and reports.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::HashIteration => {
                "HashMap/HashSet iteration order is seeded per process; use BTreeMap/BTreeSet"
            }
            Rule::AmbientNondeterminism => {
                "ambient clocks and RNGs (SystemTime, thread_rng, OsRng, …) break replay"
            }
            Rule::Unwrap => "unwrap()/expect() in library code; use typed errors or justify",
            Rule::FloatEq => "==/!= on floats; compare integer ns/tolerances instead",
            Rule::BareCast => "bare `as` float→int cast; go through .round()/.floor()/.ceil()",
            Rule::SinkConstruction => {
                "direct TraceSink construction; simulation layers emit typed events only — \
                 sinks are wired by obs and the bench runner"
            }
            Rule::WallClockScope => {
                "std::time::Instant outside crates/bench and obs::prof; wall time is a \
                 harness/profiler concern — instrument with obs::prof spans instead"
            }
            Rule::HotPathAlloc => {
                "Box<dyn Fn…> handlers allocate per event; hot layers post typed events \
                 (EventQueue::post_at/post_in) routed by Dispatch"
            }
            Rule::ShardIsolation => {
                "city worker closures touch shared mutable state directly; all cross-shard \
                 influence goes through the export table (the lock() helper + barriers)"
            }
            Rule::RngStreamDiscipline => {
                "rogue SimRng stream: literal seeds, raw generator seeding, clones, or \
                 mid-run reseeding break per-stream replay — derive from the experiment seed"
            }
            Rule::NonExhaustiveDispatch => {
                "wildcard `_ =>` arm in an Event/Dispatch match silently swallows new \
                 event kinds; enumerate every variant so additions fail loudly"
            }
            Rule::UnsafeInSim => {
                "`unsafe` in a simulation crate; the sim tree is forbid(unsafe_code) — \
                 justify any exception with an allow and a safety argument"
            }
            Rule::SocketOutsideStream => {
                "socket construction/blocking I/O in a simulation crate; network egress \
                 is obs::stream's job — emit records through its bounded queue instead"
            }
            Rule::WallClockInCkpt => {
                "wall-clock source (Instant/SystemTime/UNIX_EPOCH) in checkpoint code; \
                 anything serialized must be a pure function of simulation state or \
                 restore(checkpoint(t)) stops being byte-identical"
            }
        }
    }

    /// Does this rule patrol `crate_name`?
    pub fn applies_to_crate(self, crate_name: &str) -> bool {
        match self {
            Rule::AmbientNondeterminism | Rule::WallClockScope => crate_name != "bench",
            // Sinks may only be built where they are defined (`sim`, home of
            // the `obs` layer) or wired (`bench`, the sweep runner).
            Rule::SinkConstruction => crate_name != "sim" && crate_name != "bench",
            Rule::HotPathAlloc => HOT_CRATES.contains(&crate_name),
            // The sharded runtime lives in deploy; the rule's file scope is
            // narrowed further via `FileContext::is_city`.
            Rule::ShardIsolation => crate_name == "deploy",
            // Checkpoint code may live anywhere — including bench, whose
            // R2/R7 exemptions are exactly why this rule exists. The file
            // scope is narrowed via `FileContext::is_ckpt`.
            Rule::WallClockInCkpt => true,
            _ => SIM_CRATES.contains(&crate_name),
        }
    }
}

/// Where a file sits, as far as rule scoping cares.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name under `crates/` (e.g. `mac`).
    pub crate_name: String,
    /// Repo-relative path with `/` separators.
    pub rel_path: String,
    /// Entire file is test/bench/example code (`tests/`, `benches/`,
    /// `examples/` trees) — all rules skip it wholesale.
    pub is_test_file: bool,
    /// File is a binary entry point (`src/bin/`, `src/main.rs`) — R3 skips
    /// it (CLIs may exit via expect on startup errors).
    pub is_bin: bool,
    /// File is the profiler implementation itself
    /// (`crates/sim/src/obs/prof.rs`) — the one library file allowed to read
    /// `Instant`, so R7 skips it.
    pub is_prof_impl: bool,
    /// File is the RNG implementation (`crates/sim/src/rng.rs`) — the one
    /// place allowed to seed raw generators, so R10 skips it.
    pub is_rng_impl: bool,
    /// File is part of the sharded city runtime
    /// (`crates/deploy/src/city/…`) — R9's scope.
    pub is_city: bool,
    /// File is the streaming-telemetry wire layer
    /// (`crates/sim/src/obs/stream.rs`) — the one simulation file allowed
    /// to touch sockets, so R13 skips it.
    pub is_stream_impl: bool,
    /// File is checkpoint-serialization code (`ckpt*.rs`, or under a
    /// `ckpt/` directory) — R14's scope, in every crate.
    pub is_ckpt: bool,
}

impl FileContext {
    /// A plain library-file context for `crate_name` (tests/fixtures).
    pub fn lib(crate_name: &str) -> FileContext {
        FileContext {
            crate_name: crate_name.to_string(),
            rel_path: format!("crates/{crate_name}/src/lib.rs"),
            is_test_file: false,
            is_bin: false,
            is_prof_impl: false,
            is_rng_impl: false,
            is_city: false,
            is_stream_impl: false,
            is_ckpt: false,
        }
    }
}

/// One raw finding, before suppression/baseline filtering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What and why, with the offending token inline.
    pub message: String,
}

/// Token index ranges (half-open) covered by `#[test]` / `#[cfg(test)]`.
/// Token-level (not item-tree) so attributes inside macro bodies and other
/// unstructured spans still mask correctly.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            // Collect the attribute token span.
            let attr_start = i + 2;
            let mut depth = 1u32;
            let mut j = attr_start;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr = &toks[attr_start..j.saturating_sub(1)];
            // `#[test]`, `#[cfg(test)]`, `#[tokio::test]`-style. The
            // consecutive `cfg ( test` check deliberately rejects
            // `#[cfg(not(test))]`.
            let is_test_attr = (attr.len() == 1 && attr[0].text == "test")
                || attr
                    .windows(3)
                    .any(|w| w[0].text == "cfg" && w[1].text == "(" && w[2].text == "test")
                || (attr.len() >= 3
                    && attr[attr.len() - 1].text == "test"
                    && attr[attr.len() - 2].text == "::");
            if is_test_attr {
                // Guarded item: from here to the close of the first brace
                // block after the attribute (skipping further attributes).
                let mut k = j;
                while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
                    let mut d = 1u32;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        match toks[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if k < toks.len() && toks[k].text == "{" {
                    let mut d = 1u32;
                    let mut e = k + 1;
                    while e < toks.len() && d > 0 {
                        match toks[e].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        e += 1;
                    }
                    regions.push((i, e));
                    i = e;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(s, e)| idx >= s && idx < e)
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const ROUNDING_HELPERS: [&str; 4] = ["round", "floor", "ceil", "trunc"];

/// Idents whose mere presence means ambient nondeterminism (R2). `Instant`
/// is deliberately absent: it has its own rule (R7) with a carve-out for the
/// profiler implementation.
const AMBIENT_IDENTS: [&str; 4] = ["SystemTime", "thread_rng", "from_entropy", "OsRng"];

/// Wall-clock sources that must never appear in checkpoint-serialization
/// code (R14). A checkpoint is a pure function of simulation state; one
/// wall-derived field breaks restore-then-run byte-identity and poisons
/// every divergence hash downstream.
const WALL_CLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];

/// Trace-sink types whose mere mention outside obs/bench means a simulation
/// layer is wiring its own observability plumbing (R6).
const SINK_IDENTS: [&str; 3] = ["NullSink", "RingSink", "JsonlSink"];

/// Socket types whose mention in a simulation crate outside the streaming
/// wire layer means a sim layer is doing its own network I/O (R13). Sockets
/// block, retry, and time out nondeterministically; all egress goes through
/// `obs::stream`'s bounded queue.
const SOCKET_IDENTS: [&str; 5] = [
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
];

/// Interior-mutability accessors that, inside a city worker closure, mean
/// shared state is being touched outside the export-table protocol (R9).
/// The blessed paths are the free `lock()` helper and `Barrier::wait`.
const INTERIOR_MUT_METHODS: [&str; 12] = [
    "lock",
    "try_lock",
    "borrow",
    "borrow_mut",
    "get_mut",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "swap",
    "compare_exchange",
];

/// Fn-name prefixes blessed to install/seed RNG streams (R10): world and
/// scenario construction. Everything else re-seeding a stream mid-run is a
/// replay hazard.
const SEEDING_FN_PREFIXES: [&str; 6] = ["build", "new", "with_", "setup", "install", "make"];

/// Run every applicable rule over one parsed file.
pub fn check_file(ctx: &FileContext, ast: &FileAst, index: &SymbolIndex) -> Vec<RawFinding> {
    let toks = &ast.tokens;
    let regions = test_regions(toks);
    let mut out = Vec::new();

    // Test trees are out of scope for every rule — including R2, since
    // timing a test harness is not a simulation concern.
    if ctx.is_test_file {
        return out;
    }
    let active: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|r| r.applies_to_crate(&ctx.crate_name))
        .collect();
    if active.is_empty() {
        return out;
    }

    token_pass(ctx, ast, &active, &regions, &mut out);
    if active.contains(&Rule::FloatEq) {
        float_local_pass(ast, &regions, &mut out);
    }
    if active.contains(&Rule::ShardIsolation) && ctx.is_city {
        shard_isolation_pass(ast, index, &regions, &mut out);
    }
    if active.contains(&Rule::RngStreamDiscipline) && !ctx.is_rng_impl {
        rng_stream_pass(ast, &regions, &mut out);
    }
    if active.contains(&Rule::NonExhaustiveDispatch) {
        dispatch_pass(ast, &regions, &mut out);
    }
    out
}

/// Resolve an ident through the file's `use` declarations and report the
/// *effective* name a rule should judge (`Map` → `HashMap`).
fn effective_name<'a>(ast: &'a FileAst, t: &'a Token) -> &'a str {
    if let Some(path) = ast.resolve_use(&t.text) {
        if let Some(last) = path.rsplit("::").next() {
            if last != t.text {
                return last;
            }
        }
    }
    &t.text
}

/// The token-level passes: R1–R8 (as in engine v1, plus alias resolution
/// through the AST's `use` table), R12 and R13.
fn token_pass(
    ctx: &FileContext,
    ast: &FileAst,
    active: &[Rule],
    regions: &[(usize, usize)],
    out: &mut Vec<RawFinding>,
) {
    let toks = &ast.tokens;
    for (i, t) in toks.iter().enumerate() {
        if in_regions(regions, i) {
            continue;
        }
        // Alias-resolved name for the identity rules (R1/R2/R7): a rename
        // (`use std::collections::HashMap as Map`) no longer hides the type.
        // The alias-binding ident itself (right after `as`) is not a use
        // site — the original name on the same line already reports.
        let after_as = i > 0 && toks[i - 1].text == "as";
        let eff = if t.kind == TokKind::Ident && !after_as {
            effective_name(ast, t)
        } else {
            ""
        };
        // R1 — hash collections.
        if active.contains(&Rule::HashIteration)
            && t.kind == TokKind::Ident
            && (eff == "HashMap" || eff == "HashSet")
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::HashIteration,
                message: format!(
                    "`{}` has per-process iteration order; use BTree{} (or a sorted Vec)",
                    t.text,
                    &eff[4..]
                ),
            });
        }
        // R2 — ambient nondeterminism.
        if active.contains(&Rule::AmbientNondeterminism)
            && t.kind == TokKind::Ident
            && AMBIENT_IDENTS.contains(&eff)
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::AmbientNondeterminism,
                message: format!(
                    "`{}` is ambient nondeterminism; simulations must use SimTime and seeded SimRng",
                    t.text
                ),
            });
        }
        // R7 — wall-clock `Instant` outside bench and the profiler itself.
        if active.contains(&Rule::WallClockScope)
            && !ctx.is_prof_impl
            && t.kind == TokKind::Ident
            && eff == "Instant"
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::WallClockScope,
                message: "`Instant` is a wall clock; only crates/bench and obs::prof may \
                          read it — attribute time with obs::prof spans instead"
                    .to_string(),
            });
        }
        // R14 — wall-clock sources in checkpoint-serialization code. Fires
        // in every crate, because bench's R2/R7 exemptions (progress bars,
        // run timing) stop at the checkpoint boundary: serialized state must
        // be a pure function of simulation state.
        if active.contains(&Rule::WallClockInCkpt)
            && ctx.is_ckpt
            && t.kind == TokKind::Ident
            && WALL_CLOCK_IDENTS.contains(&eff)
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::WallClockInCkpt,
                message: format!(
                    "`{}` in checkpoint code; wall time in serialized state breaks \
                     restore-then-run byte-identity — stamp provenance in the manifest \
                     (outside the hashed state tree) instead",
                    t.text
                ),
            });
        }
        // R13 — socket construction/blocking I/O outside the streaming wire
        // layer, which owns network egress for the whole sim tree.
        if active.contains(&Rule::SocketOutsideStream)
            && !ctx.is_stream_impl
            && t.kind == TokKind::Ident
            && SOCKET_IDENTS.contains(&eff)
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::SocketOutsideStream,
                message: format!(
                    "`{}` in a simulation crate; network I/O blocks and times out \
                     nondeterministically — emit through obs::stream's bounded egress instead",
                    t.text
                ),
            });
        }
        // R12 — `unsafe` in simulation crates.
        if active.contains(&Rule::UnsafeInSim) && t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::UnsafeInSim,
                message: "`unsafe` in a simulation crate; the sim tree carries \
                          #![forbid(unsafe_code)] — keep it safe or justify with an allow \
                          and a safety argument"
                    .to_string(),
            });
        }
        // R3 — unwrap/expect in library code.
        if active.contains(&Rule::Unwrap)
            && !ctx.is_bin
            && t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::Unwrap,
                message: format!(
                    "`.{}()` in library code; return a typed error or justify with an allow",
                    t.text
                ),
            });
        }
        // R4 — float equality (literal-adjacent form).
        if active.contains(&Rule::FloatEq)
            && t.kind == TokKind::Punct
            && (t.text == "==" || t.text == "!=")
        {
            let prev_float = i > 0 && toks[i - 1].kind == TokKind::Float;
            // Allow a unary minus between the operator and the literal.
            let next_float = match (toks.get(i + 1), toks.get(i + 2)) {
                (Some(n), _) if n.kind == TokKind::Float => true,
                (Some(n), Some(nn)) if n.text == "-" && nn.kind == TokKind::Float => true,
                _ => false,
            };
            if prev_float || next_float {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::FloatEq,
                    message: format!(
                        "`{}` against a float literal; accumulated f64 time/energy never \
                         compares exactly — use integer ns or an epsilon",
                        t.text
                    ),
                });
            }
        }
        // R6 — trace-sink construction outside obs/bench. Flags the sink
        // type names themselves plus `trace::install`/`trace::uninstall`
        // (path-qualified, so unrelated `install_*` helpers stay quiet).
        if active.contains(&Rule::SinkConstruction) && t.kind == TokKind::Ident {
            if SINK_IDENTS.contains(&eff) {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::SinkConstruction,
                    message: format!(
                        "`{}` constructed outside obs/bench; emit typed events via \
                         obs::trace::emit and let the runner wire sinks",
                        t.text
                    ),
                });
            } else if (t.text == "install" || t.text == "uninstall")
                && i >= 2
                && toks[i - 1].text == "::"
                && toks[i - 2].text == "trace"
            {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::SinkConstruction,
                    message: format!(
                        "`trace::{}` outside obs/bench; sink lifecycle belongs to the \
                         obs layer and the bench runner",
                        t.text
                    ),
                });
            }
        }
        // R8 — per-event heap allocation in hot layers: `Box<dyn Fn…>`
        // handler types.
        if active.contains(&Rule::HotPathAlloc)
            && t.kind == TokKind::Ident
            && t.text == "Box"
            && toks.get(i + 1).map(|n| n.text == "<").unwrap_or(false)
            && toks.get(i + 2).map(|n| n.text == "dyn").unwrap_or(false)
            && toks
                .get(i + 3)
                .map(|n| n.kind == TokKind::Ident && n.text.starts_with("Fn"))
                .unwrap_or(false)
        {
            out.push(RawFinding {
                line: t.line,
                col: t.col,
                rule: Rule::HotPathAlloc,
                message: format!(
                    "`Box<dyn {}…>` is a per-event heap allocation; hot layers \
                     carry typed event enums instead of boxed handlers",
                    toks[i + 3].text
                ),
            });
        }
        // R5 — bare float→int cast.
        if active.contains(&Rule::BareCast)
            && t.kind == TokKind::Ident
            && t.text == "as"
            && toks
                .get(i + 1)
                .map(|n| n.kind == TokKind::Ident && INT_TYPES.contains(&n.text.as_str()))
                .unwrap_or(false)
            && i > 0
        {
            if let Some(msg) = bare_cast_evidence(toks, i) {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::BareCast,
                    message: msg,
                });
            }
        }
    }
}

/// AST upgrade to R4: flag `==`/`!=` where one side is a single identifier
/// whose local binding is *declared* float (`let x: f64 = …`) or
/// initialized from exactly a float literal (`let x = 1.5;`). Conservative
/// by design: initializers merely containing a float stay unflagged (the
/// bound value may be an integer count).
fn float_local_pass(ast: &FileAst, regions: &[(usize, usize)], out: &mut Vec<RawFinding>) {
    let toks = &ast.tokens;
    for f in &ast.fns {
        if f.is_test {
            continue;
        }
        let float_locals: Vec<&str> = f
            .params
            .iter()
            .chain(f.locals.iter())
            .filter(|l| {
                let ty = l.ty.trim_start_matches('&');
                if ty == "f64" || ty == "f32" {
                    return true;
                }
                if !ty.is_empty() {
                    return false;
                }
                // Inferred type: exactly a float literal (with optional
                // unary minus) on the right-hand side.
                let init = &toks[l.init.0.min(toks.len())..l.init.1.min(toks.len())];
                match init {
                    [t] => t.kind == TokKind::Float,
                    [m, t] => m.text == "-" && t.kind == TokKind::Float,
                    _ => false,
                }
            })
            .map(|l| l.name.as_str())
            .collect();
        if float_locals.is_empty() {
            continue;
        }
        for i in f.body.0..f.body.1.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
                continue;
            }
            if in_regions(regions, i) {
                continue;
            }
            // Literal-adjacent comparisons are already covered by the token
            // pass; only fire on ident operands to avoid double findings.
            let is_float_ident = |idx: Option<usize>| {
                idx.and_then(|j| toks.get(j)).is_some_and(|n| {
                    n.kind == TokKind::Ident
                        && float_locals.contains(&n.text.as_str())
                        // Not a field/method/path segment of something else.
                        && idx
                            .and_then(|j| j.checked_sub(1))
                            .and_then(|p| toks.get(p))
                            .map(|p| p.text != "." && p.text != "::")
                            .unwrap_or(true)
                })
            };
            let prev_is = is_float_ident(i.checked_sub(1));
            let next_is = is_float_ident(Some(i + 1));
            let prev_lit = i > 0 && toks[i - 1].kind == TokKind::Float;
            let next_lit = toks
                .get(i + 1)
                .map(|n| n.kind == TokKind::Float)
                .unwrap_or(false)
                || (toks.get(i + 1).map(|n| n.text == "-").unwrap_or(false)
                    && toks
                        .get(i + 2)
                        .map(|n| n.kind == TokKind::Float)
                        .unwrap_or(false));
            if (prev_is || next_is) && !prev_lit && !next_lit {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::FloatEq,
                    message: format!(
                        "`{}` on a float-typed binding; accumulated f64 never compares \
                         exactly — use integer ns or an epsilon",
                        t.text
                    ),
                });
            }
        }
    }
}

/// R9: the sharded-world contract. Inside `spawn`ed worker closures, shared
/// mutable state may only be reached through the export-table API — the
/// free `lock()` helper and the barrier protocol. Flags:
///
/// * `static mut` / interior-mutable `static` declarations anywhere in the
///   city runtime (shared state must live on the runner's stack);
/// * references to workspace mutable statics from inside a worker closure;
/// * captures of `RefCell`/`Cell`/`UnsafeCell`-typed locals by a worker;
/// * direct interior-mutability calls (`.lock()`, `.borrow_mut()`,
///   `.store()`, …) inside a worker closure.
fn shard_isolation_pass(
    ast: &FileAst,
    index: &SymbolIndex,
    regions: &[(usize, usize)],
    out: &mut Vec<RawFinding>,
) {
    let toks = &ast.tokens;
    for s in &ast.statics {
        if s.is_test {
            continue;
        }
        if s.is_mut || s.interior_mutable() {
            out.push(RawFinding {
                line: s.line,
                col: s.col,
                rule: Rule::ShardIsolation,
                message: format!(
                    "`static {}{}` is cross-shard shared state; keep shard state on the \
                     runner's stack and exchange through the export table",
                    if s.is_mut { "mut " } else { "" },
                    s.name
                ),
            });
        }
    }
    for f in &ast.fns {
        if f.is_test {
            continue;
        }
        for c in f.closures.iter().filter(|c| c.spawned) {
            // Captures of interior-mutable locals (ownership of a cell
            // inside a worker means per-thread divergence).
            for cap in closure_captures(toks, f, c) {
                if in_regions(regions, cap.tok) {
                    continue;
                }
                if ["RefCell<", "Cell<", "UnsafeCell<"]
                    .iter()
                    .any(|t| cap.ty.contains(t))
                {
                    let tok = &toks[cap.tok];
                    out.push(RawFinding {
                        line: tok.line,
                        col: tok.col,
                        rule: Rule::ShardIsolation,
                        message: format!(
                            "worker closure captures `{}: {}`; interior-mutable state \
                             shared with workers bypasses the export-table protocol",
                            cap.name, cap.ty
                        ),
                    });
                }
            }
            for i in c.body.0..c.body.1.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokKind::Ident || in_regions(regions, i) {
                    continue;
                }
                // References to workspace mutable statics.
                if let Some(sym) = index.statics.get(&t.text) {
                    if (sym.is_mut || sym.interior_mutable)
                        && toks.get(i + 1).map(|n| n.text != "::").unwrap_or(true)
                    {
                        out.push(RawFinding {
                            line: t.line,
                            col: t.col,
                            rule: Rule::ShardIsolation,
                            message: format!(
                                "worker closure touches mutable static `{}` (declared in \
                                 {}); cross-shard state flows through the export table only",
                                t.text, sym.path
                            ),
                        });
                    }
                }
                // Raw interior-mutability accessors. `barrier.wait()` and the
                // free `lock(…)` helper are the blessed protocol; a method
                // call `.lock()` (or `.borrow_mut()`, `.store()`, …) is a
                // worker reaching around it.
                if INTERIOR_MUT_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
                {
                    out.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::ShardIsolation,
                        message: format!(
                            "`.{}()` inside a worker closure; go through the export-table \
                             API (the lock() helper + barrier protocol) so exchanges stay \
                             deterministic",
                            t.text
                        ),
                    });
                }
            }
        }
    }
}

/// R10: RNG stream discipline. Flags, outside test regions and the RNG
/// implementation itself:
///
/// * `SimRng::from_seed(<literal>)` — a baked stream that ignores the
///   experiment seed;
/// * `StdRng::seed_from_u64` / `SeedableRng::seed_from_u64` /
///   `StdRng::from_seed` — raw generator seeding outside `sim::rng`;
/// * `<rng>.clone()` — a cloned stream replays the same draws twice;
/// * `.reseed(…)` anywhere, and seeding installers (`seed_medium_rng`, or
///   any `seed_*`/`reseed_*` method) called from a fn that is not a
///   construction helper (`build*`, `new*`, `with_*`, `setup*`,
///   `install*`, `make*`) — reseeding mid-run severs replay.
fn rng_stream_pass(ast: &FileAst, regions: &[(usize, usize)], out: &mut Vec<RawFinding>) {
    let toks = &ast.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(regions, i) {
            continue;
        }
        let in_test_fn = ast.enclosing_fn(i).map(|f| f.is_test).unwrap_or(false);
        if in_test_fn {
            continue;
        }
        let prev2 = i
            .checked_sub(2)
            .map(|p| toks[p].text.as_str())
            .unwrap_or("");
        let prev = i
            .checked_sub(1)
            .map(|p| toks[p].text.as_str())
            .unwrap_or("");
        let next = toks.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        match t.text.as_str() {
            "from_seed" if prev == "::" && next == "(" => {
                if prev2 == "SimRng" {
                    // Literal argument (optionally negated/grouped)?
                    if toks
                        .get(i + 2)
                        .map(|a| a.kind == TokKind::Int || a.kind == TokKind::Float)
                        .unwrap_or(false)
                    {
                        out.push(RawFinding {
                            line: t.line,
                            col: t.col,
                            rule: Rule::RngStreamDiscipline,
                            message: "`SimRng::from_seed(<literal>)` bakes a stream that \
                                      ignores the experiment seed; derive from the run's \
                                      root SimRng (derive/derive_idx) instead"
                                .to_string(),
                        });
                    }
                } else if prev2.ends_with("Rng") {
                    out.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::RngStreamDiscipline,
                        message: format!(
                            "`{prev2}::from_seed` seeds a raw generator; only sim::rng \
                             constructs generators — take a SimRng stream instead"
                        ),
                    });
                }
            }
            "seed_from_u64" if prev == "::" && next == "(" => {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::RngStreamDiscipline,
                    message: format!(
                        "`{prev2}::seed_from_u64` seeds a raw generator; only sim::rng \
                         constructs generators — take a SimRng stream instead"
                    ),
                });
            }
            "clone" if prev == "." && next == "(" => {
                let recv = i
                    .checked_sub(2)
                    .map(|p| toks[p].text.to_ascii_lowercase())
                    .unwrap_or_default();
                if recv.ends_with("rng") {
                    out.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::RngStreamDiscipline,
                        message: "cloning an RNG stream replays identical draws twice; \
                                  derive an independent child stream instead"
                            .to_string(),
                    });
                }
            }
            "reseed" if prev == "." && next == "(" => {
                out.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::RngStreamDiscipline,
                    message: "`.reseed()` mid-run severs replay; streams are seeded once \
                              at construction from stable keys"
                        .to_string(),
                });
            }
            name if (name.starts_with("seed_") || name.starts_with("reseed_"))
                && name != "seed_from_u64"
                && prev == "."
                && next == "(" =>
            {
                let blessed = ast
                    .enclosing_fn(i)
                    .map(|f| SEEDING_FN_PREFIXES.iter().any(|p| f.name.starts_with(p)))
                    .unwrap_or(false);
                if !blessed {
                    out.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::RngStreamDiscipline,
                        message: format!(
                            "`.{name}()` outside a construction helper reseeds a live \
                             stream mid-run; seed streams once while building the world \
                             (build*/new*/with_*/setup*/install*/make*)"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// R11: event dispatch must stay exhaustive. A match is an *event match*
/// when any arm pattern's leading path segment names an `…Event` type (or a
/// `…Event` enum from the workspace index via `use` renames), or when the
/// scrutinee is `ev`/`event` inside a `dispatch*` fn. In such matches a
/// wildcard `_` arm (guarded or not) is flagged: a new event kind would be
/// silently swallowed instead of failing the build.
fn dispatch_pass(ast: &FileAst, regions: &[(usize, usize)], out: &mut Vec<RawFinding>) {
    let toks = &ast.tokens;
    for f in &ast.fns {
        if f.is_test {
            continue;
        }
        for m in &f.matches {
            let mut is_event_match = false;
            for arm in &m.arms {
                let lead = toks.get(arm.pat.0);
                let next = toks.get(arm.pat.0 + 1);
                if let (Some(l), Some(n)) = (lead, next) {
                    if l.kind == TokKind::Ident && n.text == "::" {
                        let eff = effective_name(ast, l);
                        if eff.ends_with("Event") {
                            is_event_match = true;
                            break;
                        }
                    }
                }
            }
            if !is_event_match {
                let scrut = &toks[m.scrutinee.0.min(toks.len())..m.scrutinee.1.min(toks.len())];
                let scrut_is_ev = matches!(scrut, [t] if t.text == "ev" || t.text == "event");
                is_event_match = scrut_is_ev && f.name.starts_with("dispatch");
            }
            if !is_event_match {
                continue;
            }
            for arm in &m.arms {
                if in_regions(regions, arm.pat.0) {
                    continue;
                }
                let pat = &toks[arm.pat.0..arm.pat.1.min(toks.len())];
                let wildcard = match pat {
                    [t] => t.text == "_",
                    [t, g, ..] => t.text == "_" && g.text == "if",
                    _ => false,
                };
                if wildcard {
                    out.push(RawFinding {
                        line: arm.line,
                        col: arm.col,
                        rule: Rule::NonExhaustiveDispatch,
                        message: "wildcard `_ =>` arm in an Event dispatch match; \
                                  enumerate every variant so a new event kind fails \
                                  loudly instead of being silently dropped"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Decide whether the expression left of `toks[as_idx]` (`as`) is a float
/// being truncated without a rounding helper. Purely lexical, so this is a
/// heuristic: it flags float literals, `f64`/`f32` casts, `*_f64()` getters,
/// and parenthesized groups containing any of those — and accepts anything
/// that went through `.round()`/`.floor()`/`.ceil()`/`.trunc()`.
fn bare_cast_evidence(toks: &[Token], as_idx: usize) -> Option<String> {
    let prev = &toks[as_idx - 1];
    match prev.kind {
        TokKind::Float => Some(format!(
            "float literal `{}` truncated by bare `as`; use .round()/.floor()/.ceil() first \
             (see SimDuration::from_micros_f64)",
            prev.text
        )),
        TokKind::Ident if prev.text == "f64" || prev.text == "f32" => Some(
            "float value truncated by bare `as`; use .round()/.floor()/.ceil() first".to_string(),
        ),
        TokKind::Punct if prev.text == ")" => {
            // Walk back to the matching `(`.
            let mut depth = 1i32;
            let mut j = as_idx - 1;
            while j > 0 && depth > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
            if depth != 0 {
                return None;
            }
            // Method/function name directly before the group?
            if j > 0 && toks[j - 1].kind == TokKind::Ident {
                let name = toks[j - 1].text.as_str();
                if ROUNDING_HELPERS.contains(&name) {
                    return None; // blessed: .round() as u64
                }
                if name.ends_with("_f64") || name.ends_with("_f32") || name == "mbps" {
                    return Some(format!(
                        "`{name}()` returns a float; bare `as` truncates — \
                         use .round()/.floor()/.ceil() first"
                    ));
                }
            }
            let group = &toks[j..as_idx - 1];
            let floaty = group.iter().any(|g| {
                g.kind == TokKind::Float
                    || (g.kind == TokKind::Ident && (g.text == "f64" || g.text == "f32"))
            });
            floaty.then(|| {
                "float expression truncated by bare `as`; \
                 use .round()/.floor()/.ceil() first"
                    .to_string()
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn ctx() -> FileContext {
        FileContext::lib("mac")
    }

    fn check(c: &FileContext, src: &str) -> Vec<RawFinding> {
        let ast = parse(lex(src));
        let mut ix = SymbolIndex::default();
        ix.add_file(&c.rel_path, &ast);
        check_file(c, &ast, &ix)
    }

    fn run(src: &str) -> Vec<RawFinding> {
        check(&ctx(), src)
    }

    #[test]
    fn r1_fires_on_hashmap_not_in_tests() {
        let f = run("use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }");
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::HashIteration).count(),
            2
        );
        let f = run("#[cfg(test)]\nmod tests { use std::collections::HashSet; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r1_sees_through_use_renames() {
        let f = run("use std::collections::HashMap as Map;\nfn f() { let m: Map<u32, u32>; }");
        // The `HashMap` ident in the use line + the renamed use site.
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::HashIteration).count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn cfg_not_test_is_still_checked() {
        let f = run("#[cfg(not(test))]\nfn f() { let m: std::collections::HashMap<u8, u8>; }");
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::HashIteration).count(),
            1
        );
    }

    #[test]
    fn r2_and_r7_split_wall_clock_from_ambient_rng() {
        let f = run("fn f() { let t = std::time::Instant::now(); let r = thread_rng(); }");
        let r2 = f
            .iter()
            .filter(|f| f.rule == Rule::AmbientNondeterminism)
            .count();
        let r7 = f.iter().filter(|f| f.rule == Rule::WallClockScope).count();
        assert_eq!((r2, r7), (1, 1), "{f:?}");
    }

    #[test]
    fn r7_is_exempt_in_the_profiler_implementation() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let mut c = FileContext::lib("sim");
        c.is_prof_impl = true;
        let f = check(&c, src);
        assert!(
            f.iter().all(|f| f.rule != Rule::WallClockScope),
            "obs::prof owns the wall clock: {f:?}"
        );
        c.is_prof_impl = false;
        let f = check(&c, src);
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::WallClockScope).count(),
            2,
            "{f:?}"
        );
    }

    #[test]
    fn r3_fires_on_unwrap_not_unwrap_or() {
        let f = run("fn f(x: Option<u8>) { x.unwrap(); x.unwrap_or(0); x.expect(\"m\"); }");
        let r3: Vec<_> = f.iter().filter(|f| f.rule == Rule::Unwrap).collect();
        assert_eq!(r3.len(), 2, "{f:?}");
    }

    #[test]
    fn r3_skips_bins_and_test_fns() {
        let mut c = ctx();
        c.is_bin = true;
        let f = check(&c, "fn main() { foo().unwrap(); }");
        assert!(f.iter().all(|f| f.rule != Rule::Unwrap));
        let f = run("#[test]\nfn t() { foo().unwrap(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r4_fires_on_float_literal_equality() {
        let f = run("fn f(x: f64) { if x == 0.0 {} if x != -1.5 {} if 2.0 == x {} }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::FloatEq).count(), 3);
        let f = run("fn f(x: u64) { if x == 0 {} }");
        assert!(f.is_empty());
    }

    #[test]
    fn r4_fires_on_float_typed_bindings() {
        // Neither side is a literal — engine v1 missed these.
        let f = run("fn f(x: f64, y: f64) { if x == y {} }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::FloatEq).count(), 1);
        let f = run("fn f(y: f64) { let tol = 1e-6; if tol != y {} }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::FloatEq).count(), 1);
        // Integer bindings stay quiet, as do non-float inferred inits.
        let f = run("fn f(n: u64) { let m = n + 1; if m == n {} }");
        assert!(f.is_empty(), "{f:?}");
        // Literal-adjacent sites fire once (token pass), not twice.
        let f = run("fn f(x: f64) { if x == 0.0 {} }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::FloatEq).count(), 1);
    }

    #[test]
    fn r5_fires_on_bare_float_casts_and_blesses_round() {
        let f = run("fn f(x: f64) { let a = 1.5 as u64; let b = (x * 2.0) as u32; }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::BareCast).count(), 2);
        let f = run("fn f(x: f64) { let a = (x * 2.0).round() as u64; let b = 3 as u64; }");
        assert!(f.iter().all(|f| f.rule != Rule::BareCast), "{f:?}");
    }

    #[test]
    fn r5_flags_known_float_getters() {
        let f = run("fn f(r: Bitrate) { let b = r.mbps() as u64; }");
        assert_eq!(f.iter().filter(|f| f.rule == Rule::BareCast).count(), 1);
    }

    #[test]
    fn r6_fires_on_sink_types_and_trace_install() {
        let f =
            run("fn f() { let r = RingSink::unbounded(); let _ = trace::install(Box::new(r)); }");
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == Rule::SinkConstruction)
                .count(),
            2,
            "{f:?}"
        );
        // Unqualified or differently-qualified `install` is not sink wiring.
        let f = run("fn f(q: &mut Q) { conformance::install_audit(q); installer::install(q); }");
        assert!(f.iter().all(|f| f.rule != Rule::SinkConstruction), "{f:?}");
    }

    #[test]
    fn r6_is_exempt_in_sim_and_bench() {
        let src = "fn f() { let s = NullSink; }";
        for name in ["sim", "bench"] {
            let c = FileContext::lib(name);
            let f = check(&c, src);
            assert!(
                f.iter().all(|f| f.rule != Rule::SinkConstruction),
                "{name} may build sinks: {f:?}"
            );
        }
        let f = run(src);
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == Rule::SinkConstruction)
                .count(),
            1
        );
    }

    #[test]
    fn r8_fires_on_boxed_handlers() {
        let f = run("fn f() { let h: Box<dyn FnMut(&mut W)> = mk(); \
             let g: Box<dyn Fn()> = mk(); }");
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::HotPathAlloc).count(),
            2,
            "{f:?}"
        );
        // Typed posting is clean.
        let f = run("fn f(q: &mut Q) { q.post_at(t, ev); q.post_in(d, ev); }");
        assert!(f.iter().all(|f| f.rule != Rule::HotPathAlloc), "{f:?}");
        // `Box::new` and non-Fn trait objects are not handler boxes.
        let f = run("fn f() { let b = Box::new(3); let s: Box<dyn Sink> = mk(); }");
        assert!(f.iter().all(|f| f.rule != Rule::HotPathAlloc), "{f:?}");
    }

    #[test]
    fn r8_is_exempt_in_cold_crates() {
        let src = "fn f() { let h: Box<dyn FnOnce()> = mk(); }";
        let f = check(&FileContext::lib("sim"), src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::HotPathAlloc).count(), 1);
        // Deploy scenarios run once per experiment, not once per event.
        let c = FileContext::lib("deploy");
        let f = check(&c, src);
        assert!(f.iter().all(|f| f.rule != Rule::HotPathAlloc), "{f:?}");
    }

    fn city_ctx() -> FileContext {
        let mut c = FileContext::lib("deploy");
        c.rel_path = "crates/deploy/src/city/runtime.rs".into();
        c.is_city = true;
        c
    }

    #[test]
    fn r9_fires_on_worker_shared_state() {
        let src = "use std::sync::Mutex;\n\
             static mut EPOCHS: u64 = 0;\n\
             pub fn run(jobs: usize) {\n\
               let table: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\
               std::thread::scope(|s| {\n\
                 for _t in 0..jobs {\n\
                   s.spawn(|| {\n\
                     let mut tbl = table.lock();\n\
                     tbl[0] += 1;\n\
                     EPOCHS += 1;\n\
                   });\n\
                 }\n\
               });\n\
             }\n";
        let f = check(&city_ctx(), src);
        let r9: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::ShardIsolation)
            .collect();
        // static mut decl + .lock() in the worker + EPOCHS ref in the worker.
        assert_eq!(r9.len(), 3, "{r9:?}");
    }

    #[test]
    fn r9_blesses_the_export_table_protocol() {
        let src = "use std::sync::{Barrier, Mutex, MutexGuard};\n\
             fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }\n\
             pub fn run(jobs: usize) {\n\
               let table: Mutex<Vec<u64>> = Mutex::new(Vec::new());\n\
               let barrier = Barrier::new(jobs);\n\
               std::thread::scope(|s| {\n\
                 for _t in 0..jobs {\n\
                   s.spawn(|| {\n\
                     let mut tbl = lock(&table);\n\
                     tbl[0] += 1;\n\
                     drop(tbl);\n\
                     barrier.wait();\n\
                   });\n\
                 }\n\
               });\n\
             }\n";
        let f = check(&city_ctx(), src);
        // The helper's own m.lock() sits outside any worker closure; the
        // workers go through lock() + barrier.wait() only. (The unwrap is
        // R3's business, not R9's.)
        assert!(f.iter().all(|f| f.rule != Rule::ShardIsolation), "{f:?}");
    }

    #[test]
    fn r9_flags_refcell_captures_and_is_city_scoped() {
        let src = "use std::cell::RefCell;\n\
             pub fn run() {\n\
               let flag: RefCell<bool> = RefCell::new(false);\n\
               std::thread::scope(|s| {\n\
                 s.spawn(|| { let f = flag; });\n\
               });\n\
             }\n";
        let f = check(&city_ctx(), src);
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::ShardIsolation).count(),
            1,
            "{f:?}"
        );
        // Outside the city runtime the rule is silent.
        let f = check(&FileContext::lib("deploy"), src);
        assert!(f.iter().all(|f| f.rule != Rule::ShardIsolation), "{f:?}");
    }

    #[test]
    fn r10_fires_on_literal_seeds_raw_seeding_clones_and_reseeds() {
        let f = run("fn jitter() -> SimRng { SimRng::from_seed(1234) }\n\
             fn renew() { let r = StdRng::seed_from_u64(7); }\n\
             fn tick(rng: &mut SimRng) { let again = rng.clone(); again.reseed(3); }\n\
             fn rearm(w: &mut Mac, m: MediumId, root: &SimRng) {\n\
               w.seed_medium_rng(m, root.derive(\"x\"));\n\
             }\n");
        let r10: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::RngStreamDiscipline)
            .collect();
        assert_eq!(r10.len(), 5, "{r10:?}");
    }

    #[test]
    fn r10_blesses_derived_streams_and_builders() {
        let f = run("fn run(seed: u64) { let root = SimRng::from_seed(seed); \
               let mac = root.derive(\"mac\"); let m2 = root.derive_idx(\"medium\", 3); }\n\
             fn build_shard(w: &mut Mac, m: MediumId, root: &SimRng) {\n\
               w.seed_medium_rng(m, root.derive_idx(\"city-medium\", 7));\n\
             }\n");
        assert!(
            f.iter().all(|f| f.rule != Rule::RngStreamDiscipline),
            "{f:?}"
        );
    }

    #[test]
    fn r10_is_exempt_in_the_rng_impl_and_tests() {
        let src = "fn from_seed(seed: u64) -> SimRng { let inner = StdRng::seed_from_u64(seed); }";
        let mut c = FileContext::lib("sim");
        c.is_rng_impl = true;
        let f = check(&c, src);
        assert!(
            f.iter().all(|f| f.rule != Rule::RngStreamDiscipline),
            "rng.rs builds the generators: {f:?}"
        );
        let f = run("#[cfg(test)]\nmod tests { fn t() { let r = SimRng::from_seed(42); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r11_fires_on_wildcard_event_arms_only() {
        let f = run("fn dispatch_mac(w: &mut W, ev: MacEvent) {\n\
               match ev {\n\
                 MacEvent::ArbFire(m) => fire(w, m),\n\
                 _ => {}\n\
               }\n\
             }\n");
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == Rule::NonExhaustiveDispatch)
                .count(),
            1,
            "{f:?}"
        );
        // Guarded wildcards are still wildcards.
        let f = run("fn dispatch(ev: CoreEvent) { match ev { CoreEvent::A => (), _ if x => () } }");
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == Rule::NonExhaustiveDispatch)
                .count(),
            1
        );
        // Non-event matches may use wildcards freely.
        let f = run("fn frame_class(k: FrameKind) -> usize { \
               match k { FrameKind::Power => 1, _ => 0 } }");
        assert!(
            f.iter().all(|f| f.rule != Rule::NonExhaustiveDispatch),
            "{f:?}"
        );
        // Exhaustive event matches are clean; binding arms are not `_`.
        let f = run("fn dispatch_mac(w: &mut W, ev: MacEvent) {\n\
               match ev { MacEvent::A(m) => f(m), MacEvent::B { s } => g(s) }\n\
             }\n");
        assert!(
            f.iter().all(|f| f.rule != Rule::NonExhaustiveDispatch),
            "{f:?}"
        );
    }

    #[test]
    fn r11_catches_ev_scrutinee_in_dispatch_fns() {
        // Composed enums that do not end in `Event` still count when a
        // dispatch fn matches on `ev`.
        let f = run("fn dispatch_stack(w: &mut W, ev: Stacked) {\n\
               match ev { Stacked::Mac(m) => h(m), _ => () }\n\
             }\n");
        assert_eq!(
            f.iter()
                .filter(|f| f.rule == Rule::NonExhaustiveDispatch)
                .count(),
            1,
            "{f:?}"
        );
        // The same shape outside a dispatch fn is not an event match.
        let f = run("fn classify(ev: Stacked) -> u8 {\n\
               match ev { Stacked::Mac(_) => 1, _ => 0 }\n\
             }\n");
        assert!(
            f.iter().all(|f| f.rule != Rule::NonExhaustiveDispatch),
            "{f:?}"
        );
    }

    #[test]
    fn r12_fires_on_unsafe_in_sim_crates_only() {
        let src = "fn f(p: *const u8) { unsafe { core::ptr::read(p); } }\nunsafe fn g() {}";
        let f = run(src);
        assert_eq!(f.iter().filter(|f| f.rule == Rule::UnsafeInSim).count(), 2);
        let c = FileContext::lib("bench");
        let f = check(&c, src);
        assert!(f.iter().all(|f| f.rule != Rule::UnsafeInSim), "{f:?}");
        let f = run("#[cfg(test)]\nmod tests { fn t() { unsafe {} } }");
        assert!(f.is_empty(), "{f:?}");
    }

    fn ckpt_ctx(crate_name: &str) -> FileContext {
        let mut c = FileContext::lib(crate_name);
        c.rel_path = format!("crates/{crate_name}/src/ckpt.rs");
        c.is_ckpt = true;
        c
    }

    #[test]
    fn r14_fires_on_wall_clocks_in_ckpt_code_even_in_bench() {
        let src = "use std::time::SystemTime;\n\
             fn save_run(run: &Run) -> Value {\n\
               let stamp = SystemTime::now().duration_since(std::time::UNIX_EPOCH);\n\
               let t0 = Instant::now();\n\
             }\n";
        // Bench is exempt from R2/R7 — R14 is the only guard there, and it
        // must fire on every wall-clock ident.
        let f = check(&ckpt_ctx("bench"), src);
        let r14: Vec<_> = f
            .iter()
            .filter(|f| f.rule == Rule::WallClockInCkpt)
            .collect();
        // SystemTime ×2 (use + call), UNIX_EPOCH, Instant.
        assert_eq!(r14.len(), 4, "{r14:?}");
        // In a sim crate the same code also trips R2/R7; R14 still reports
        // its own findings.
        let f = check(&ckpt_ctx("deploy"), src);
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::WallClockInCkpt).count(),
            4,
            "{f:?}"
        );
    }

    #[test]
    fn r14_is_scoped_to_ckpt_files_and_sees_through_renames() {
        let src = "use std::time::SystemTime as Clock;\nfn f() { let t = Clock::now(); }";
        let f = check(&ckpt_ctx("bench"), src);
        assert_eq!(
            f.iter().filter(|f| f.rule == Rule::WallClockInCkpt).count(),
            2,
            "{f:?}"
        );
        // The same source in a non-ckpt bench file is the harness's
        // business, not R14's.
        let f = check(&FileContext::lib("bench"), src);
        assert!(f.iter().all(|f| f.rule != Rule::WallClockInCkpt), "{f:?}");
        // Pure simulation-state serialization stays quiet.
        let f = check(
            &ckpt_ctx("bench"),
            "fn save(q: &Queue) -> Value { Value::U64(q.now().nanos()) }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn scope_respects_crates() {
        let src = "fn f() { let t = Instant::now(); let m: HashMap<u8,u8>; }";
        let c = FileContext::lib("bench");
        let f = check(&c, src);
        assert!(f.is_empty(), "bench is exempt: {f:?}");
        let c = FileContext::lib("lint");
        let f = check(&c, src);
        assert_eq!(f.len(), 1, "lint gets R7 only: {f:?}");
        assert_eq!(f[0].rule, Rule::WallClockScope);
    }
}
