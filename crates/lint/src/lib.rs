//! # powifi-lint
//!
//! In-repo static analyzer enforcing the workspace's determinism and
//! unit-safety rules (R1–R14, see `docs/STATIC_ANALYSIS.md`). Self-contained:
//! a hand-written lexer and parser, no external dependencies, so it builds
//! wherever the workspace builds.
//!
//! The flow (engine v2): walk `crates/*/src` (and sibling trees), lex and
//! parse each file into a [`ast::FileAst`], pool every file's items into a
//! workspace [`ast::SymbolIndex`], run the rule catalogue over each parsed
//! file with the index in hand, drop findings covered by inline
//! `// powifi-lint: allow(<rule>) — <reason>` suppressions, then split the
//! rest into *baselined* (grandfathered in `lint-baseline.txt`) and *new*.
//! `--deny-new` exits non-zero iff any new finding survives.

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use ast::{FileAst, SymbolIndex};
use rules::{FileContext, Rule};

/// A finding after suppression filtering, attached to its file.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What and why.
    pub message: String,
    /// Trimmed source line, used for line-drift-tolerant baseline matching.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}/{}] {}\n    {}",
            self.path,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.slug(),
            self.message,
            self.snippet
        )
    }
}

/// Result of a full run: findings partitioned against the baseline.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not in the baseline — these fail `--deny-new`.
    pub new: Vec<Finding>,
    /// Findings matched (and consumed) by baseline entries.
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched nothing — stale, should be pruned.
    pub stale_baseline: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Walk the workspace under `root` and collect every `.rs` file to scan.
///
/// Scans `crates/<name>/**.rs`; skips `target/`, the lint crate's own
/// `fixtures/` tree (test inputs violate rules on purpose), and anything
/// outside `crates/`. Vendored dependencies are third-party code and out of
/// scope. Output is sorted for stable reports.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        let rd = match fs::read_dir(&dir) {
            Ok(rd) => rd,
            Err(_) => continue,
        };
        for entry in rd {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Classify a repo-relative path (`crates/<name>/…`) into a [`FileContext`].
/// Returns `None` for paths not under `crates/`.
pub fn classify(rel: &str) -> Option<FileContext> {
    let mut parts = rel.split('/');
    if parts.next()? != "crates" {
        return None;
    }
    let crate_name = parts.next()?.to_string();
    let rest: Vec<&str> = parts.collect();
    let top = rest.first().copied().unwrap_or("");
    let is_test_file = matches!(top, "tests" | "benches" | "examples");
    let is_bin = rest == ["src", "main.rs"] || (top == "src" && rest.get(1) == Some(&"bin"));
    // The profiler is the one library file sanctioned to read `Instant`
    // (wall-clock span timing, bench-only) — R7's file-level carve-out.
    let is_prof_impl = crate_name == "sim" && rest == ["src", "obs", "prof.rs"];
    // The RNG implementation is the one place allowed to seed raw
    // generators — R10's file-level carve-out.
    let is_rng_impl = crate_name == "sim" && rest == ["src", "rng.rs"];
    // The sharded city runtime and its helpers — R9's scope.
    let is_city = crate_name == "deploy" && top == "src" && rest.get(1) == Some(&"city");
    // The streaming-telemetry wire layer is the one sim file allowed to
    // touch sockets — R13's file-level carve-out.
    let is_stream_impl = crate_name == "sim" && rest == ["src", "obs", "stream.rs"];
    // Checkpoint-serialization code — R14's scope: library files named
    // `ckpt*.rs` (ckpt.rs, ckpt_run.rs, …) or anywhere under a `ckpt/`
    // directory, in every crate.
    let fname = rest.last().copied().unwrap_or("");
    let is_ckpt = !is_test_file
        && (fname.starts_with("ckpt") && fname.ends_with(".rs") || rest.contains(&"ckpt"));
    Some(FileContext {
        crate_name,
        rel_path: rel.to_string(),
        is_test_file,
        is_bin,
        is_prof_impl,
        is_rng_impl,
        is_city,
        is_stream_impl,
        is_ckpt,
    })
}

/// Rules allowed on a given line by `// powifi-lint: allow(...)` comments.
/// A trailing suppression covers its own line; a standalone one covers the
/// whole statement starting at the first code line below its comment block.
fn suppressions(ast: &FileAst, src: &str) -> BTreeMap<u32, Vec<Rule>> {
    let mut by_line: BTreeMap<u32, Vec<Rule>> = BTreeMap::new();
    for c in &ast.comments {
        let Some(pos) = c.text.find("powifi-lint:") else {
            continue;
        };
        let after = &c.text[pos + "powifi-lint:".len()..];
        let Some(open) = after.find("allow(") else {
            continue;
        };
        let args = &after[open + "allow(".len()..];
        let Some(close) = args.find(')') else {
            continue;
        };
        let rules: Vec<Rule> = args[..close].split(',').filter_map(Rule::parse).collect();
        if rules.is_empty() {
            continue;
        }
        by_line
            .entry(c.line)
            .or_default()
            .extend(rules.iter().copied());
        // A comment on a line of its own covers the first code line below
        // it, skipping the rest of its own comment block — so a multi-line
        // justification still lands on the statement it guards.
        let lines: Vec<&str> = src.lines().collect();
        let own_line = lines
            .get(c.line as usize - 1)
            .map(|l| l.trim_start().starts_with("//"))
            .unwrap_or(false);
        if own_line {
            let mut target = c.line as usize; // 0-based index of next line
            while lines
                .get(target)
                .map(|l| l.trim_start().starts_with("//"))
                .unwrap_or(false)
            {
                target += 1;
            }
            let first = target as u32 + 1;
            // Cover the whole statement, not just its first line — rustfmt
            // is free to split a guarded chain across lines. The statement
            // ends at the first `;` or block-opening `{` at nesting depth 0.
            let last = statement_end_line(&ast.tokens, first);
            for line in first..=last.max(first) {
                by_line
                    .entry(line)
                    .or_default()
                    .extend(rules.iter().copied());
            }
        }
    }
    by_line
}

/// Line of the token ending the statement that starts at `first_line`: the
/// first `;` or block-opening `{` at bracket depth zero. Falls back to
/// `first_line` when the line holds no tokens.
fn statement_end_line(tokens: &[lexer::Token], first_line: u32) -> u32 {
    let Some(start) = tokens.iter().position(|t| t.line >= first_line) else {
        return first_line;
    };
    if tokens[start].line != first_line {
        return first_line;
    }
    let mut depth = 0i32;
    for t in &tokens[start..] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" | "{" if depth <= 0 => return t.line,
            _ => {}
        }
    }
    first_line
}

/// Run the rule catalogue over one already-parsed file and return surviving
/// findings, sorted. `index` should cover the whole workspace for
/// cross-file rules; a single-file index degrades gracefully.
pub fn scan_parsed(
    ctx: &FileContext,
    ast: &FileAst,
    index: &SymbolIndex,
    src: &str,
) -> Vec<Finding> {
    let raw = rules::check_file(ctx, ast, index);
    if raw.is_empty() {
        return Vec::new();
    }
    let allowed = suppressions(ast, src);
    let lines: Vec<&str> = src.lines().collect();
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            !allowed
                .get(&f.line)
                .map(|rs| rs.contains(&f.rule))
                .unwrap_or(false)
        })
        .map(|f| Finding {
            path: ctx.rel_path.clone(),
            line: f.line,
            col: f.col,
            rule: f.rule,
            message: f.message,
            snippet: lines
                .get(f.line as usize - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        })
        .collect();
    out.sort();
    out
}

/// Scan one file (already read) in isolation: parse it, index only its own
/// symbols, run the rules. Cross-file context (other files' statics) is
/// absent — [`run`] provides it for full-workspace scans.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let Some(ctx) = classify(rel) else {
        return Vec::new();
    };
    let ast = ast::parse(lexer::lex(src));
    let mut index = SymbolIndex::default();
    index.add_file(rel, &ast);
    scan_parsed(&ctx, &ast, &index, src)
}

/// Baseline entry key: line numbers deliberately excluded so entries survive
/// unrelated edits above them.
fn baseline_key(rule: Rule, path: &str, snippet: &str) -> String {
    format!("{}\t{}\t{}", rule.id(), path, snippet)
}

/// Parse a baseline file into a multiset of keys.
pub fn parse_baseline(text: &str) -> BTreeMap<String, u32> {
    let mut set = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *set.entry(line.to_string()).or_insert(0) += 1;
    }
    set
}

/// Render findings as baseline file content (header + sorted keys).
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# powifi-lint baseline: grandfathered findings, one per line as\n\
         # <rule>\\t<path>\\t<snippet>. Regenerate with `cargo lint --write-baseline`.\n\
         # Burn these down; never add to this file to dodge a new finding.\n",
    );
    let mut keys: Vec<String> = findings
        .iter()
        .map(|f| baseline_key(f.rule, &f.path, &f.snippet))
        .collect();
    keys.sort();
    for k in keys {
        out.push_str(&k);
        out.push('\n');
    }
    out
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_finding(f: &Finding, out: &mut String) {
    out.push_str(&format!(
        "{{\"path\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"slug\":\"{}\",\
         \"message\":\"{}\",\"snippet\":\"{}\"}}",
        json_escape(&f.path),
        f.line,
        f.col,
        f.rule.id(),
        f.rule.slug(),
        json_escape(&f.message),
        json_escape(&f.snippet),
    ));
}

/// Render a [`Report`] as machine-readable JSON with a stable field order
/// (`files_scanned`, `new`, `baselined`, `stale_baseline`; findings carry
/// `path`, `line`, `col`, `rule`, `slug`, `message`, `snippet`). Findings
/// are already sorted by [`run`], so the output is byte-stable for a given
/// tree. One trailing newline, no pretty-printing — consumers pipe it
/// through their own formatter.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"files_scanned\":{},", report.files_scanned));
    for (name, findings) in [("new", &report.new), ("baselined", &report.baselined)] {
        out.push_str(&format!("\"{name}\":["));
        for (i, f) in findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_finding(f, &mut out);
        }
        out.push_str("],");
    }
    out.push_str("\"stale_baseline\":[");
    for (i, k) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(k)));
    }
    out.push_str("]}\n");
    out
}

/// Run the analyzer over the workspace at `root`.
///
/// Two passes: first lex+parse every file and pool statics/enums into the
/// workspace [`SymbolIndex`]; then run the rules per file with the full
/// index in hand, so cross-file facts (a mutable static declared in one
/// module, touched in another) are visible. `baseline` is the parsed
/// content of `lint-baseline.txt` (empty map if the file is absent). Each
/// baseline entry absorbs at most its multiplicity of matching findings;
/// leftovers surface in [`Report::stale_baseline`].
pub fn run(root: &Path, baseline: &BTreeMap<String, u32>) -> std::io::Result<Report> {
    let files = collect_files(root)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    // Pass 1: parse everything, build the index.
    let mut parsed: Vec<(FileContext, FileAst, String)> = Vec::new();
    let mut index = SymbolIndex::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(ctx) = classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(path)?;
        let ast = ast::parse(lexer::lex(&src));
        index.add_file(&rel, &ast);
        parsed.push((ctx, ast, src));
    }
    // Pass 2: rules, with the whole workspace visible.
    let mut all = Vec::new();
    for (ctx, ast, src) in &parsed {
        all.extend(scan_parsed(ctx, ast, &index, src));
    }
    all.sort();
    let mut remaining = baseline.clone();
    for f in all {
        let key = baseline_key(f.rule, &f.path, &f.snippet);
        match remaining.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                report.baselined.push(f);
            }
            _ => report.new.push(f),
        }
    }
    for (key, n) in remaining {
        for _ in 0..n {
            report.stale_baseline.push(key.clone());
        }
    }
    Ok(report)
}

/// Locate the workspace root: walk up from `start` to the first directory
/// containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let c = classify("crates/mac/src/world.rs").unwrap();
        assert_eq!(c.crate_name, "mac");
        assert_eq!(c.rel_path, "crates/mac/src/world.rs");
        assert!(!c.is_test_file && !c.is_bin);
        let c = classify("crates/bench/src/bin/fig05.rs").unwrap();
        assert!(c.is_bin);
        let c = classify("crates/sim/tests/determinism.rs").unwrap();
        assert!(c.is_test_file);
        let c = classify("crates/core/src/main.rs").unwrap();
        assert!(c.is_bin);
        let c = classify("crates/sim/src/obs/prof.rs").unwrap();
        assert!(c.is_prof_impl);
        let c = classify("crates/sim/src/rng.rs").unwrap();
        assert!(c.is_rng_impl && !c.is_prof_impl);
        let c = classify("crates/deploy/src/city/runtime.rs").unwrap();
        assert!(c.is_city);
        let c = classify("crates/deploy/src/city/mod.rs").unwrap();
        assert!(c.is_city);
        let c = classify("crates/sim/src/obs/stream.rs").unwrap();
        assert!(c.is_stream_impl && !c.is_prof_impl);
        assert!(
            !classify("crates/sim/src/obs/agg.rs")
                .unwrap()
                .is_stream_impl,
            "the carve-out is the wire layer only, not the whole obs tree"
        );
        let c = classify("crates/deploy/src/ckpt.rs").unwrap();
        assert!(c.is_ckpt);
        assert!(classify("crates/bench/src/ckpt_run.rs").unwrap().is_ckpt);
        assert!(classify("crates/net/src/ckpt/frames.rs").unwrap().is_ckpt);
        assert!(
            !classify("crates/bench/src/replay.rs").unwrap().is_ckpt,
            "the inspector reads checkpoints, it does not serialize state"
        );
        assert!(
            !classify("crates/deploy/tests/ckpt_roundtrip.rs")
                .unwrap()
                .is_ckpt,
            "test trees are out of every rule's scope, R14 included"
        );
        assert!(!classify("crates/deploy/src/lib.rs").unwrap().is_city);
        assert!(
            !classify("crates/sim/src/obs/metrics.rs")
                .unwrap()
                .is_prof_impl
        );
        assert!(classify("vendor/rand/src/lib.rs").is_none());
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let src = "fn f(x: Option<u8>) {\n\
                   x.unwrap(); // powifi-lint: allow(R3) — invariant: checked above\n\
                   // powifi-lint: allow(unwrap) — startup only\n\
                   x.unwrap();\n\
                   x.unwrap();\n}\n";
        let f = scan_source("crates/mac/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn suppression_covers_a_statement_split_across_lines() {
        let src = "fn f(x: Option<u8>) {\n\
                   // powifi-lint: allow(R3) — invariant documented here\n\
                   let v = x\n\
                       .map(|v| v + 1)\n\
                       .unwrap();\n\
                   let w = x.unwrap();\n}\n";
        let f = scan_source("crates/mac/src/lib.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn suppression_is_rule_specific() {
        let src = "// powifi-lint: allow(R1) — wrong rule\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let f = scan_source("crates/mac/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Unwrap);
    }

    #[test]
    fn suppression_works_for_new_rules() {
        let src = "fn dispatch(ev: MacEvent) {\n\
                   match ev {\n\
                   MacEvent::A => (),\n\
                   // powifi-lint: allow(non-exhaustive-dispatch) — legacy kinds TBD\n\
                   _ => (),\n\
                   }\n}\n";
        let f = scan_source("crates/mac/src/lib.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn baseline_roundtrip_and_multiplicity() {
        let src = "fn f(a: Option<u8>, b: Option<u8>) { a.unwrap(); b.unwrap(); }\n";
        let findings = scan_source("crates/mac/src/lib.rs", src);
        assert_eq!(findings.len(), 2);
        let text = render_baseline(&findings);
        let parsed = parse_baseline(&text);
        // Same snippet twice → one key with multiplicity 2.
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.values().copied().sum::<u32>(), 2);
    }

    #[test]
    fn baseline_ignores_line_numbers() {
        let a = scan_source(
            "crates/mac/src/lib.rs",
            "fn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        let b = scan_source(
            "crates/mac/src/lib.rs",
            "// a new comment shifting lines\n\nfn f(x: Option<u8>) { x.unwrap(); }\n",
        );
        let key_a = baseline_key(a[0].rule, &a[0].path, &a[0].snippet);
        let key_b = baseline_key(b[0].rule, &b[0].path, &b[0].snippet);
        assert_eq!(key_a, key_b);
        assert_ne!(a[0].line, b[0].line);
    }

    #[test]
    fn json_output_is_stable_and_escaped() {
        let report = Report {
            new: vec![Finding {
                path: "crates/mac/src/lib.rs".into(),
                line: 3,
                col: 7,
                rule: Rule::Unwrap,
                message: "`.unwrap()` in library code; return a typed error".into(),
                snippet: "x.unwrap(); // says \"hi\"".into(),
            }],
            baselined: Vec::new(),
            stale_baseline: vec!["R1\tcrates/x.rs\tlet m: HashMap<u8,u8>;".into()],
            files_scanned: 1,
        };
        let js = render_json(&report);
        assert!(js.starts_with("{\"files_scanned\":1,\"new\":[{\"path\":"));
        assert!(js.contains("\\\"hi\\\""), "{js}");
        assert!(js.contains("\"rule\":\"R3\",\"slug\":\"unwrap\""));
        assert!(js.contains("R1\\tcrates/x.rs"), "{js}");
        assert!(js.ends_with("]}\n"));
        // Byte-stable across calls.
        assert_eq!(js, render_json(&report));
    }
}
