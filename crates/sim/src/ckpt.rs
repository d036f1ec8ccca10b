//! Deterministic checkpoint serialization: the wire format under
//! `--checkpoint-every`, `--resume` and the `powifi-replay` inspector.
//!
//! A checkpoint is a self-describing [`Value`] tree rendered to a single
//! canonical byte string: map keys in insertion order (producers emit a
//! fixed field order), `f64` stored as raw bit patterns (`f<16 hex>`), no
//! whitespace. Canonical rendering gives the two properties the
//! observatory is built on:
//!
//! * **byte-identity** — two runs in the same state produce the same
//!   bytes, in debug and release, at any `--jobs` level, so goldens can
//!   compare checkpoints with `==`;
//! * **diffability** — the tree is self-describing, so
//!   `powifi-replay diff`/`bisect` can walk two checkpoints and report the
//!   first divergent *field path* instead of a byte offset.
//!
//! The container line is `powifi-ckpt <version> <fnv1a128 of body>`; the
//! hash is verified on load, travels in bench manifests as resume
//! provenance, and rides the `obs::stream` wire as the `ckpt` record so a
//! live consumer can detect divergence between fleets the moment a state
//! hash differs.
//!
//! Nothing in this module reads a wall clock, and lint rule R14
//! (`wall-clock-in-ckpt`) keeps wall-time-derived fields out of every
//! `ckpt` state struct in the workspace.

use std::fmt::Write as _;

/// Format version of the checkpoint container. Bump on any change to the
/// canonical rendering or to a producer's field layout; `load` rejects
/// versions it does not understand rather than misinterpreting state.
pub const CKPT_VERSION: u32 = 1;

/// Leading magic of the container line.
pub const CKPT_MAGIC: &str = "powifi-ckpt";

/// Errors from encoding, decoding or interpreting a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The container line is missing or malformed.
    BadContainer(String),
    /// The container declares a version this build cannot read.
    BadVersion(u32),
    /// The body does not hash to the value in the container line.
    HashMismatch {
        /// Hash declared in the container line.
        declared: String,
        /// Hash of the body as loaded.
        actual: String,
    },
    /// The body text is not a valid canonical value.
    Parse {
        /// Byte offset the parser stopped at.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A field was missing or had the wrong type while interpreting the
    /// tree; `path` is the `/`-joined field path.
    Field {
        /// Where in the tree.
        path: String,
        /// What was expected there.
        message: String,
    },
    /// The state has no checkpoint form, or cannot be restored into the
    /// world this build rebuilds (e.g. a pending event kind without a
    /// serial form).
    Unsupported(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadContainer(m) => write!(f, "bad checkpoint container: {m}"),
            CkptError::BadVersion(v) => write!(
                f,
                "checkpoint version {v} not readable by this build (wants {CKPT_VERSION})"
            ),
            CkptError::HashMismatch { declared, actual } => write!(
                f,
                "checkpoint hash mismatch: container says {declared}, body hashes to {actual}"
            ),
            CkptError::Parse { offset, message } => {
                write!(f, "checkpoint parse error at byte {offset}: {message}")
            }
            CkptError::Field { path, message } => {
                write!(f, "checkpoint field /{path}: {message}")
            }
            CkptError::Unsupported(m) => write!(f, "checkpoint unsupported: {m}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// A node of the self-describing state tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent optional state (`Option::None`).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (times, seqs, counters, indices).
    U64(u64),
    /// An `f64` carried as its raw bit pattern, so rendering is exact and
    /// NaN/-0.0 round-trip.
    F64(u64),
    /// UTF-8 string (labels, enum discriminants).
    Str(String),
    /// Ordered sequence.
    List(Vec<Value>),
    /// Ordered key–value map. Producers emit a fixed field order; keys are
    /// not sorted, so order is part of the canonical form.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Wrap an `f64` by bit pattern.
    pub fn f64(v: f64) -> Value {
        Value::F64(v.to_bits())
    }

    /// Wrap a string-ish.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Wrap an `Option` by mapping the inner value.
    pub fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Value) -> Value {
        match v {
            Some(v) => f(v),
            None => Value::Null,
        }
    }

    /// Start an (ordered) map builder.
    pub fn map() -> MapBuilder {
        MapBuilder(Vec::new())
    }

    /// Look up `key` in a map value.
    pub fn get(&self, key: &str) -> Result<&Value, CkptError> {
        match self {
            Value::Map(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| field_err(key, "missing field")),
            _ => Err(field_err(key, "parent is not a map")),
        }
    }

    /// The value as `u64`.
    pub fn as_u64(&self, path: &str) -> Result<u64, CkptError> {
        match self {
            Value::U64(v) => Ok(*v),
            _ => Err(field_err(path, "expected u64")),
        }
    }

    /// The value as `f64` (decoded from its bit pattern).
    pub fn as_f64(&self, path: &str) -> Result<f64, CkptError> {
        match self {
            Value::F64(bits) => Ok(f64::from_bits(*bits)),
            _ => Err(field_err(path, "expected f64")),
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self, path: &str) -> Result<bool, CkptError> {
        match self {
            Value::Bool(v) => Ok(*v),
            _ => Err(field_err(path, "expected bool")),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self, path: &str) -> Result<&str, CkptError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(field_err(path, "expected string")),
        }
    }

    /// The value as a list slice.
    pub fn as_list(&self, path: &str) -> Result<&[Value], CkptError> {
        match self {
            Value::List(items) => Ok(items),
            _ => Err(field_err(path, "expected list")),
        }
    }

    /// The value as a map's `(key, value)` slice.
    pub fn as_map(&self, path: &str) -> Result<&[(String, Value)], CkptError> {
        match self {
            Value::Map(fields) => Ok(fields),
            _ => Err(field_err(path, "expected map")),
        }
    }

    /// `None` for `Null`, else `Some(self)`.
    pub fn as_opt(&self) -> Option<&Value> {
        match self {
            Value::Null => None,
            v => Some(v),
        }
    }

    /// Convenience: `get` then `as_u64`.
    pub fn u64_field(&self, key: &str) -> Result<u64, CkptError> {
        self.get(key)?.as_u64(key)
    }

    /// Convenience: `get` then `as_f64`.
    pub fn f64_field(&self, key: &str) -> Result<f64, CkptError> {
        self.get(key)?.as_f64(key)
    }

    /// Convenience: `get` then `as_bool`.
    pub fn bool_field(&self, key: &str) -> Result<bool, CkptError> {
        self.get(key)?.as_bool(key)
    }

    /// Convenience: `get` then `as_str`.
    pub fn str_field(&self, key: &str) -> Result<&str, CkptError> {
        self.get(key)?.as_str(key)
    }

    /// Convenience: `get` then `as_list`.
    pub fn list_field(&self, key: &str) -> Result<&[Value], CkptError> {
        self.get(key)?.as_list(key)
    }

    /// Render the canonical byte form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(bits) => {
                let _ = write!(out, "f{bits:016x}");
            }
            Value::Str(s) => push_quoted(out, s),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Map(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Human-oriented rendering of a leaf for diff output: floats shown as
    /// decimal (with the bit pattern when the decimal is lossy-looking),
    /// everything else as its canonical form.
    pub fn display_leaf(&self) -> String {
        match self {
            Value::F64(bits) => format!("{:?}", f64::from_bits(*bits)),
            v => v.encode(),
        }
    }
}

/// Ordered map builder: `Value::map().field("a", ..).field("b", ..).build()`.
#[derive(Debug, Default)]
pub struct MapBuilder(Vec<(String, Value)>);

impl MapBuilder {
    /// Append one field (order is preserved and canonical).
    pub fn field(mut self, key: impl Into<String>, v: Value) -> MapBuilder {
        self.0.push((key.into(), v));
        self
    }

    /// Finish the map.
    pub fn build(self) -> Value {
        Value::Map(self.0)
    }
}

fn field_err(path: &str, message: &str) -> CkptError {
    CkptError::Field {
        path: path.to_string(),
        message: message.to_string(),
    }
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// 128-bit FNV-1a over `bytes`, rendered as 32 lowercase hex digits. The
/// checkpoint content hash: fast, dependency-free, and stable across
/// platforms (pure integer arithmetic).
pub fn fnv1a128_hex(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// A loaded checkpoint: verified container plus the state tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version from the container line.
    pub version: u32,
    /// Content hash of the body (verified at load).
    pub hash: String,
    /// The state tree.
    pub root: Value,
}

/// Render `root` into the full container bytes (container line + body).
pub fn save(root: &Value) -> Vec<u8> {
    let body = root.encode();
    let hash = fnv1a128_hex(body.as_bytes());
    let mut out = String::with_capacity(body.len() + 64);
    let _ = writeln!(out, "{CKPT_MAGIC} {CKPT_VERSION} {hash}");
    out.push_str(&body);
    out.push('\n');
    out.into_bytes()
}

/// Content hash a [`save`] of `root` would carry, without materializing the
/// container.
pub fn state_hash(root: &Value) -> String {
    fnv1a128_hex(root.encode().as_bytes())
}

/// Parse and verify container bytes produced by [`save`].
pub fn load(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| CkptError::BadContainer(format!("not utf-8: {e}")))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| CkptError::BadContainer("missing container line".into()))?;
    let mut parts = header.split(' ');
    let magic = parts.next().unwrap_or_default();
    if magic != CKPT_MAGIC {
        return Err(CkptError::BadContainer(format!("bad magic {magic:?}")));
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CkptError::BadContainer("missing version".into()))?;
    if version != CKPT_VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let declared = parts
        .next()
        .ok_or_else(|| CkptError::BadContainer("missing hash".into()))?
        .to_string();
    let body = body.strip_suffix('\n').unwrap_or(body);
    let actual = fnv1a128_hex(body.as_bytes());
    if actual != declared {
        return Err(CkptError::HashMismatch { declared, actual });
    }
    let root = parse(body)?;
    Ok(Checkpoint {
        version,
        hash: actual,
        root,
    })
}

/// Parse one canonical value rendering (the body of a checkpoint). Lists
/// and maps nested deeper than 128 levels are a [`CkptError::Parse`].
pub fn parse(text: &str) -> Result<Value, CkptError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(CkptError::Parse {
            offset: pos,
            message: "trailing bytes after value".into(),
        });
    }
    Ok(v)
}

fn parse_err(offset: usize, message: &str) -> CkptError {
    CkptError::Parse {
        offset,
        message: message.to_string(),
    }
}

/// Deepest list/map nesting [`parse`] accepts (office checkpoints nest 8
/// deep). A correct FNV header does not prove a trusted writer, so the
/// limit keeps a hostile body from exhausting the stack.
const MAX_DEPTH: usize = 128;

/// Parse the value at `*pos`, which sits inside `depth` lists and maps.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, CkptError> {
    match b.get(*pos) {
        None => Err(parse_err(*pos, "unexpected end of input")),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(parse_err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'n') => expect_lit(b, pos, "null", Value::Null),
        Some(b't') => expect_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => {
            // `f<16 hex>` (an f64) or the literal `false`.
            if b[*pos..].starts_with(b"false") {
                expect_lit(b, pos, "false", Value::Bool(false))
            } else {
                let start = *pos + 1;
                let end = start + 16;
                let hex = b
                    .get(start..end)
                    .ok_or_else(|| parse_err(*pos, "truncated f64 bits"))?;
                let hex =
                    std::str::from_utf8(hex).map_err(|_| parse_err(start, "non-utf8 f64 bits"))?;
                let bits = u64::from_str_radix(hex, 16)
                    .map_err(|_| parse_err(start, "bad f64 hex bits"))?;
                *pos = end;
                Ok(Value::F64(bits))
            }
        }
        Some(b'0'..=b'9') => {
            let start = *pos;
            while matches!(b.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).unwrap_or_default();
            s.parse()
                .map(Value::U64)
                .map_err(|_| parse_err(start, "u64 out of range"))
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::List(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::List(items));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(fields));
            }
            loop {
                let key = parse_string(b, pos)?;
                if b.get(*pos) != Some(&b':') {
                    return Err(parse_err(*pos, "expected ':'"));
                }
                *pos += 1;
                let v = parse_value(b, pos, depth + 1)?;
                fields.push((key, v));
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(fields));
                    }
                    _ => return Err(parse_err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(c) => Err(parse_err(
            *pos,
            &format!("unexpected byte {:?}", *c as char),
        )),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, CkptError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(parse_err(*pos, &format!("expected literal {lit:?}")))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, CkptError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(parse_err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(parse_err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| parse_err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| parse_err(*pos, "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| parse_err(*pos, "bad \\u escape"))?;
                        out.push(
                            char::from_u32(cp)
                                .ok_or_else(|| parse_err(*pos, "invalid codepoint"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(parse_err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // step. Both are ASCII, so the run ends on a char boundary.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| parse_err(start, "non-utf8 string body"))?;
                out.push_str(run);
            }
        }
    }
}

/// One divergent field between two checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// `/`-joined path of map keys and list indices down to the leaf.
    pub path: String,
    /// Rendering of the left side (`"<absent>"` when missing).
    pub left: String,
    /// Rendering of the right side (`"<absent>"` when missing).
    pub right: String,
}

/// Structural field-level diff of two state trees, depth-first in canonical
/// field order, capped at `limit` entries (0 = unlimited).
pub fn diff(a: &Value, b: &Value, limit: usize) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_walk(a, b, &mut String::new(), &mut out, limit);
    out
}

fn diff_push(out: &mut Vec<DiffEntry>, path: &str, left: String, right: String, limit: usize) {
    if limit == 0 || out.len() < limit {
        out.push(DiffEntry {
            path: path.to_string(),
            left,
            right,
        });
    }
}

fn diff_full(out: &mut Vec<DiffEntry>, path: &str, a: &Value, b: &Value, limit: usize) {
    diff_push(out, path, a.display_leaf(), b.display_leaf(), limit);
}

fn diff_walk(a: &Value, b: &Value, path: &mut String, out: &mut Vec<DiffEntry>, limit: usize) {
    if limit != 0 && out.len() >= limit {
        return;
    }
    match (a, b) {
        (Value::Map(fa), Value::Map(fb)) => {
            let keys_a: Vec<&str> = fa.iter().map(|(k, _)| k.as_str()).collect();
            let keys_b: Vec<&str> = fb.iter().map(|(k, _)| k.as_str()).collect();
            if keys_a != keys_b {
                diff_push(
                    out,
                    path,
                    format!("map keys {keys_a:?}"),
                    format!("map keys {keys_b:?}"),
                    limit,
                );
                return;
            }
            for ((k, va), (_, vb)) in fa.iter().zip(fb.iter()) {
                let len = path.len();
                if !path.is_empty() {
                    path.push('/');
                }
                path.push_str(k);
                diff_walk(va, vb, path, out, limit);
                path.truncate(len);
            }
        }
        (Value::List(la), Value::List(lb)) => {
            if la.len() != lb.len() {
                diff_push(
                    out,
                    path,
                    format!("list len {}", la.len()),
                    format!("list len {}", lb.len()),
                    limit,
                );
                return;
            }
            for (i, (va, vb)) in la.iter().zip(lb.iter()).enumerate() {
                let len = path.len();
                if !path.is_empty() {
                    path.push('/');
                }
                let _ = write!(path, "{i}");
                diff_walk(va, vb, path, out, limit);
                path.truncate(len);
            }
        }
        (a, b) => {
            if a != b {
                diff_full(out, path, a, b, limit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Value {
        Value::map()
            .field("time", Value::U64(12345))
            .field("pi", Value::f64(std::f64::consts::PI))
            .field("label", Value::str("office \"a\"\n"))
            .field("on", Value::Bool(true))
            .field("none", Value::Null)
            .field(
                "items",
                Value::List(vec![Value::U64(1), Value::f64(-0.0), Value::Bool(false)]),
            )
            .build()
    }

    #[test]
    fn encode_parse_roundtrip_exact() {
        let v = sample();
        let enc = v.encode();
        let back = parse(&enc).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.encode(), enc, "canonical form is a fixed point");
    }

    #[test]
    fn f64_bits_roundtrip_nan_and_negzero() {
        for bits in [f64::NAN.to_bits(), (-0.0f64).to_bits(), 0x7ff0000000000001] {
            let v = Value::F64(bits);
            let back = parse(&v.encode()).unwrap();
            assert_eq!(back, Value::F64(bits));
        }
    }

    #[test]
    fn container_roundtrip_and_hash_verification() {
        let v = sample();
        let bytes = save(&v);
        let ck = load(&bytes).unwrap();
        assert_eq!(ck.version, CKPT_VERSION);
        assert_eq!(ck.root, v);
        assert_eq!(ck.hash, state_hash(&v));
        // Flip one body byte: load must refuse.
        let mut corrupt = bytes.clone();
        let body_start = corrupt.iter().position(|&b| b == b'\n').unwrap() + 1;
        corrupt[body_start + 3] ^= 0x01;
        match load(&corrupt) {
            Err(CkptError::HashMismatch { .. }) => {}
            other => panic!("expected hash mismatch, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_bad_magic_and_version() {
        assert!(matches!(
            load(b"not-a-ckpt 1 00\n{}"),
            Err(CkptError::BadContainer(_))
        ));
        let v = sample();
        let body = v.encode();
        let hash = fnv1a128_hex(body.as_bytes());
        let bytes = format!("{CKPT_MAGIC} 999 {hash}\n{body}\n");
        assert!(matches!(
            load(bytes.as_bytes()),
            Err(CkptError::BadVersion(999))
        ));
    }

    #[test]
    fn diff_reports_first_divergent_path() {
        let a = sample();
        let mut b = sample();
        if let Value::Map(fields) = &mut b {
            fields[0].1 = Value::U64(54321);
            if let Value::List(items) = &mut fields[5].1 {
                items[0] = Value::U64(2);
            }
        }
        let d = diff(&a, &b, 0);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].path, "time");
        assert_eq!(d[0].left, "12345");
        assert_eq!(d[0].right, "54321");
        assert_eq!(d[1].path, "items/0");
        let capped = diff(&a, &b, 1);
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn diff_of_identical_trees_is_empty() {
        assert!(diff(&sample(), &sample(), 0).is_empty());
    }

    /// Container bytes around `body` with a correct header, as anyone can
    /// write them.
    fn container(body: &str) -> Vec<u8> {
        let hash = fnv1a128_hex(body.as_bytes());
        format!("{CKPT_MAGIC} {CKPT_VERSION} {hash}\n{body}\n").into_bytes()
    }

    #[test]
    fn load_rejects_nesting_past_the_limit() {
        let lists = "[".repeat(50_000) + &"]".repeat(50_000);
        let maps = "{\"k\":".repeat(50_000) + "null" + &"}".repeat(50_000);
        // The error points at the first bracket past the limit.
        for (body, bracket) in [(lists, MAX_DEPTH), (maps, 5 * MAX_DEPTH)] {
            match load(&container(&body)) {
                Err(CkptError::Parse { offset, .. }) => assert_eq!(offset, bracket),
                Err(e) => panic!("expected a parse error, got {e}"),
                Ok(_) => panic!("a body nested past {MAX_DEPTH} levels loaded"),
            }
        }
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(load(&container(&at_limit)).is_ok());
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        // Pinned: offsets count bytes, multibyte characters included.
        for (text, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("[\"\u{b5}\u{2192}", 7, "unterminated string"),
            ("\"a\\qb\"", 3, "bad escape"),
            ("\"\u{b5}\u{2192}\\q\"", 7, "bad escape"),
            ("\"a\\u12", 3, "truncated \\u escape"),
            ("{\"k\\u00", 4, "truncated \\u escape"),
        ] {
            let want = CkptError::Parse {
                offset,
                message: message.into(),
            };
            assert_eq!(parse(text), Err(want), "{text:?}");
        }
    }

    /// Plain ASCII, both escaped delimiters, every control character, and
    /// 2-, 3- and 4-byte UTF-8: every arm of the string codec.
    fn text() -> impl Strategy<Value = String> {
        let mut chars: Vec<char> = ('a'..='z').chain('A'..='Z').collect();
        chars.extend(['"', '\\', '\u{b5}', '\u{2192}', '\u{1f600}']);
        chars.extend((0u8..0x20).map(char::from));
        prop::collection::vec(prop::sample::select(chars), 0..12)
            .prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn strings_roundtrip_as_keys_and_values(
            pairs in prop::collection::vec((text(), text()), 0..6)
        ) {
            let v = Value::Map(
                pairs
                    .into_iter()
                    .map(|(k, s)| (k, Value::Str(s)))
                    .collect(),
            );
            let enc = v.encode();
            let back = parse(&enc).unwrap();
            prop_assert_eq!(&back, &v);
            prop_assert_eq!(back.encode(), enc, "canonical form is a fixed point");
        }
    }

    #[test]
    fn fnv_hash_is_stable() {
        // Pinned: the hash is part of the wire format.
        assert_eq!(fnv1a128_hex(b""), "6c62272e07bb014262b821756295c58d");
        assert_ne!(fnv1a128_hex(b"a"), fnv1a128_hex(b"b"));
    }
}
