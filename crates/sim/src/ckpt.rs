//! Deterministic checkpoint serialization: the wire format under
//! `--checkpoint-every`, `--resume` and the `powifi-obs ckpt` inspector.
//!
//! A checkpoint is a self-describing [`Value`] tree rendered to a single
//! canonical byte string, the exact form of the vendored `serde_json`: map
//! keys in insertion order (producers emit a fixed field order), `f64`
//! stored as raw bit patterns (`f<16 hex>`), no whitespace. Canonical
//! rendering gives the two properties the observatory is built on:
//!
//! * **byte-identity** — two runs in the same state produce the same
//!   bytes, in debug and release, at any `--jobs` level, so goldens can
//!   compare checkpoints with `==`;
//! * **diffability** — the tree is self-describing, so
//!   `powifi-obs ckpt diff`/`bisect` can walk two checkpoints and report the
//!   first divergent *field path* instead of a byte offset.
//!
//! The container line is `powifi-ckpt <version> <fnv1a128 of body>`; the
//! hash is verified on load, travels in bench manifests as resume
//! provenance, and rides the `obs::stream` wire as the `ckpt` record so a
//! live consumer can detect divergence between fleets the moment a state
//! hash differs.
//!
//! State types get their tree form from the [`Ckpt`] trait: one encoder
//! and one decoder per type, so a field's key, position and encoding are
//! written once per direction. This module implements it for the
//! primitives and the simulation-kernel types; the layer crates implement
//! it for their own state in their `ckpt.rs`, mostly through the
//! [`ckpt_struct!`](crate::ckpt_struct), [`ckpt_names!`](crate::ckpt_names)
//! and [`ckpt_newtype!`](crate::ckpt_newtype) macros.
//!
//! Nothing in this module reads a wall clock, and lint rule R14
//! (`wall-clock-in-ckpt`) keeps wall-time-derived fields out of every
//! `ckpt` state struct in the workspace.

use crate::obs::metrics::{HistogramSummary, MetricsSnapshot};
use crate::units::{Db, Joules, Seconds};
use crate::{BinnedThroughput, EventHandle, PowerEnvelope, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

impl CkptError {
    /// A [`CkptError::Field`] at `path`.
    #[cold]
    pub fn field(path: &str, message: impl Into<String>) -> CkptError {
        CkptError::Field {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

/// A node of the self-describing state tree: the vendored `serde` value,
/// the workspace's one JSON tree. A checkpoint uses `UInt` for times, seqs,
/// counters and indices and never `Int`; its `Float`s render as their bit
/// pattern, so NaN payloads and -0.0 round-trip; an `Object` keeps the
/// fixed field order its producer emits, which is part of the canonical
/// form.
pub use serde::Value;

/// The checkpoint accessors of [`Value`]: each names the field path in the
/// [`CkptError`] it returns.
pub trait ValueExt {
    /// Wrap a string-ish.
    fn str(s: impl Into<String>) -> Value;
    /// Start an (ordered) map builder.
    fn map() -> MapBuilder;
    /// Look up `key` in a map value.
    fn get(&self, key: &str) -> Result<&Value, CkptError>;
    /// The value as `u64`.
    fn as_u64(&self, path: &str) -> Result<u64, CkptError>;
    /// The value as `f64`.
    fn as_f64(&self, path: &str) -> Result<f64, CkptError>;
    /// The value as `bool`.
    fn as_bool(&self, path: &str) -> Result<bool, CkptError>;
    /// The value as `&str`.
    fn as_str(&self, path: &str) -> Result<&str, CkptError>;
    /// The value as a list slice.
    fn as_list(&self, path: &str) -> Result<&[Value], CkptError>;
    /// The value as a map's `(key, value)` slice.
    fn as_map(&self, path: &str) -> Result<&[(String, Value)], CkptError>;
    /// `None` for `Null`, else `Some(self)`.
    fn as_opt(&self) -> Option<&Value>;
    /// Decode the field `key` of a map value as a `T`.
    fn field<T: Ckpt>(&self, key: &str) -> Result<T, CkptError>;
    /// Convenience: `get` then `as_str`.
    fn str_field(&self, key: &str) -> Result<&str, CkptError>;
    /// Convenience: `get` then `as_list`.
    fn list_field(&self, key: &str) -> Result<&[Value], CkptError>;
    /// Render the canonical byte form.
    fn encode(&self) -> String;
    /// Human-oriented rendering of a leaf for diff output: floats shown as
    /// decimal, everything else as its canonical form.
    fn display_leaf(&self) -> String;
}

impl ValueExt for Value {
    fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    fn map() -> MapBuilder {
        MapBuilder(Vec::new())
    }

    fn get(&self, key: &str) -> Result<&Value, CkptError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| CkptError::field(key, "missing field")),
            _ => Err(CkptError::field(key, "parent is not a map")),
        }
    }

    fn as_u64(&self, path: &str) -> Result<u64, CkptError> {
        match self {
            Value::UInt(v) => Ok(*v),
            _ => Err(CkptError::field(path, "expected u64")),
        }
    }

    fn as_f64(&self, path: &str) -> Result<f64, CkptError> {
        match self {
            Value::Float(v) => Ok(*v),
            _ => Err(CkptError::field(path, "expected f64")),
        }
    }

    fn as_bool(&self, path: &str) -> Result<bool, CkptError> {
        match self {
            Value::Bool(v) => Ok(*v),
            _ => Err(CkptError::field(path, "expected bool")),
        }
    }

    fn as_str(&self, path: &str) -> Result<&str, CkptError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(CkptError::field(path, "expected string")),
        }
    }

    fn as_list(&self, path: &str) -> Result<&[Value], CkptError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(CkptError::field(path, "expected list")),
        }
    }

    fn as_map(&self, path: &str) -> Result<&[(String, Value)], CkptError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(CkptError::field(path, "expected map")),
        }
    }

    fn as_opt(&self) -> Option<&Value> {
        match self {
            Value::Null => None,
            v => Some(v),
        }
    }

    fn field<T: Ckpt>(&self, key: &str) -> Result<T, CkptError> {
        T::from_ckpt(self.get(key)?, key)
    }

    fn str_field(&self, key: &str) -> Result<&str, CkptError> {
        self.get(key)?.as_str(key)
    }

    fn list_field(&self, key: &str) -> Result<&[Value], CkptError> {
        self.get(key)?.as_list(key)
    }

    fn encode(&self) -> String {
        serde_json::to_string_exact(self)
    }

    fn display_leaf(&self) -> String {
        match self {
            Value::Float(x) => format!("{x:?}"),
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

    /// Append `x`'s checkpoint form under `key`.
    pub fn put<T: Ckpt>(self, key: impl Into<String>, x: &T) -> MapBuilder {
        self.field(key, x.to_ckpt())
    }

    /// Finish the map.
    pub fn build(self) -> Value {
        Value::Object(self.0)
    }
}

/// A type with a checkpoint form: the one encoder and the one decoder of
/// its state. `from_ckpt(to_ckpt(x))` re-encodes to the same bytes.
pub trait Ckpt: Sized {
    /// The state tree of `self`.
    fn to_ckpt(&self) -> Value;
    /// Decode a tree made by [`Ckpt::to_ckpt`]; `path` names `v` in errors.
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError>;
}

/// Give a struct the checkpoint form "a map of the listed fields, in the
/// listed order, each keyed by its name". The decoder builds the struct
/// literal, so the compiler checks that the list names every field; a
/// pure memo that is not checkpointed goes in a trailing
/// `reset { field: value }`. `Type as "tag"` puts `"kind": "tag"` first:
/// the form of one variant of a tagged enum, whose own impl dispatches on
/// the tag.
///
/// ```
/// # use powifi_sim::ckpt::{Ckpt, ValueExt};
/// struct Span { start: u64, len: u32 }
/// powifi_sim::ckpt_struct!(Span { start, len });
/// let v = Span { start: 7, len: 2 }.to_ckpt();
/// assert_eq!(v.encode(), r#"{"start":7,"len":2}"#);
/// assert_eq!(Span::from_ckpt(&v, "span").unwrap().len, 2);
/// ```
#[macro_export]
macro_rules! ckpt_struct {
    ($ty:ident $(as $tag:literal)? { $($field:ident),+ $(,)? }
        $(reset { $($memo:ident: $init:expr),+ $(,)? })?) => {
        impl $crate::ckpt::Ckpt for $ty {
            fn to_ckpt(&self) -> $crate::ckpt::Value {
                $crate::ckpt::MapBuilder::default()
                    $(.field("kind", $crate::ckpt::Value::Str($tag.into())))?
                    $(.put(stringify!($field), &self.$field))+
                    .build()
            }
            fn from_ckpt(
                v: &$crate::ckpt::Value,
                _path: &str,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                Ok($ty {
                    $($field: $crate::ckpt::ValueExt::field(v, stringify!($field))?,)+
                    $($($memo: $init,)+)?
                })
            }
        }
    };
}

/// Give a fieldless enum the checkpoint form "its name, as a string", and
/// an inherent `ckpt_name` for forms that embed the name.
#[macro_export]
macro_rules! ckpt_names {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// The variant's name in checkpoints.
            pub fn ckpt_name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }
        }
        impl $crate::ckpt::Ckpt for $ty {
            fn to_ckpt(&self) -> $crate::ckpt::Value {
                $crate::ckpt::Value::Str(self.ckpt_name().into())
            }
            fn from_ckpt(
                v: &$crate::ckpt::Value,
                path: &str,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                match $crate::ckpt::ValueExt::as_str(v, path)? {
                    $($name => Ok($ty::$variant),)+
                    other => Err($crate::ckpt::CkptError::field(
                        path,
                        format!(concat!("unknown ", stringify!($ty), " {:?}"), other),
                    )),
                }
            }
        }
    };
}

/// Give one-field tuple structs the checkpoint form of their field.
#[macro_export]
macro_rules! ckpt_newtype {
    ($($ty:ident),+ $(,)?) => {$(
        impl $crate::ckpt::Ckpt for $ty {
            fn to_ckpt(&self) -> $crate::ckpt::Value {
                $crate::ckpt::Ckpt::to_ckpt(&self.0)
            }
            fn from_ckpt(
                v: &$crate::ckpt::Value,
                path: &str,
            ) -> Result<Self, $crate::ckpt::CkptError> {
                $crate::ckpt::Ckpt::from_ckpt(v, path).map($ty)
            }
        }
    )+};
}

impl Ckpt for u64 {
    fn to_ckpt(&self) -> Value {
        Value::UInt(*self)
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_u64(path)
    }
}

/// Narrower unsigned integers travel as `u64` and are range-checked on the
/// way back, so an oversized value is an error rather than truncated.
macro_rules! narrow_uint {
    ($($ty:ty),+) => {$(
        impl Ckpt for $ty {
            fn to_ckpt(&self) -> Value {
                // Widening: every supported target's usize fits in a u64.
                Value::UInt(*self as u64)
            }
            fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
                let n = v.as_u64(path)?;
                <$ty>::try_from(n).map_err(|_| {
                    CkptError::field(path, format!("{n} is out of range for {}", stringify!($ty)))
                })
            }
        }
    )+};
}

narrow_uint!(u32, u8, usize);

impl Ckpt for bool {
    fn to_ckpt(&self) -> Value {
        Value::Bool(*self)
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_bool(path)
    }
}

impl Ckpt for f64 {
    fn to_ckpt(&self) -> Value {
        Value::Float(*self)
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_f64(path)
    }
}

impl Ckpt for SimTime {
    fn to_ckpt(&self) -> Value {
        Value::UInt(self.as_nanos())
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_u64(path).map(SimTime::from_nanos)
    }
}

impl Ckpt for SimDuration {
    fn to_ckpt(&self) -> Value {
        Value::UInt(self.as_nanos())
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_u64(path).map(SimDuration::from_nanos)
    }
}

/// `None` is `null`; `Some(x)` is `x`'s form.
impl<T: Ckpt> Ckpt for Option<T> {
    fn to_ckpt(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_ckpt)
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_opt().map(|x| T::from_ckpt(x, path)).transpose()
    }
}

fn list<'a, T: Ckpt + 'a>(items: impl IntoIterator<Item = &'a T>) -> Value {
    Value::Array(items.into_iter().map(T::to_ckpt).collect())
}

fn items<T: Ckpt>(v: &Value, path: &str) -> Result<Vec<T>, CkptError> {
    let list = v.as_list(path)?;
    let mut out = Vec::with_capacity(list.len());
    for x in list {
        out.push(T::from_ckpt(x, path)?);
    }
    Ok(out)
}

/// Sequences are lists, in iteration order (ascending for a set).
macro_rules! list_form {
    ($($ty:ident<T $(: $bound:ident)?>),+) => {$(
        impl<T: Ckpt $(+ $bound)?> Ckpt for $ty<T> {
            fn to_ckpt(&self) -> Value {
                list(self)
            }
            fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
                items(v, path).map(|all| all.into_iter().collect())
            }
        }
    )+};
}

list_form!(Vec<T>, VecDeque<T>, BTreeSet<T: Ord>);

/// A map in ascending key order.
impl<T: Ckpt> Ckpt for BTreeMap<String, T> {
    fn to_ckpt(&self) -> Value {
        Value::Object(self.iter().map(|(k, x)| (k.clone(), x.to_ckpt())).collect())
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        v.as_map(path)?
            .iter()
            .map(|(k, x)| Ok((k.clone(), T::from_ckpt(x, path)?)))
            .collect()
    }
}

/// A list of exactly `N` entries.
impl<T: Ckpt, const N: usize> Ckpt for [T; N] {
    fn to_ckpt(&self) -> Value {
        list(self)
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        let all: Vec<T> = items(v, path)?;
        let n = all.len();
        all.try_into()
            .map_err(|_| CkptError::field(path, format!("expected {N} entries, found {n}")))
    }
}

/// A two-entry list.
impl<A: Ckpt, B: Ckpt> Ckpt for (A, B) {
    fn to_ckpt(&self) -> Value {
        Value::Array(vec![self.0.to_ckpt(), self.1.to_ckpt()])
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        match v.as_list(path)? {
            [a, b] => Ok((A::from_ckpt(a, path)?, B::from_ckpt(b, path)?)),
            other => Err(CkptError::field(
                path,
                format!("expected a pair, found {} entries", other.len()),
            )),
        }
    }
}

/// The stream position: `{"base", "state"}`.
impl Ckpt for SimRng {
    fn to_ckpt(&self) -> Value {
        let (base, state) = self.ckpt_state();
        Value::map().put("base", &base).put("state", &state).build()
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        Ok(SimRng::from_ckpt_state(v.field("base")?, v.field("state")?))
    }
}

impl Ckpt for EventHandle {
    fn to_ckpt(&self) -> Value {
        let (seq, time) = self.ckpt_parts();
        Value::map().put("seq", &seq).put("time", &time).build()
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        Ok(EventHandle::from_ckpt_parts(
            v.field("seq")?,
            v.field("time")?,
        ))
    }
}

/// `{"bin", "bins"}`; a zero bin width is refused.
impl Ckpt for BinnedThroughput {
    fn to_ckpt(&self) -> Value {
        let (bin, bins) = self.ckpt_state();
        Value::map()
            .put("bin", &bin)
            .field("bins", list(bins))
            .build()
    }
    fn from_ckpt(v: &Value, _path: &str) -> Result<Self, CkptError> {
        let bin: SimDuration = v.field("bin")?;
        if bin.is_zero() {
            return Err(CkptError::field("bin", "bin width must be positive"));
        }
        Ok(BinnedThroughput::from_ckpt_state(bin, v.field("bins")?))
    }
}

/// The `(time, level)` change points.
impl Ckpt for PowerEnvelope {
    fn to_ckpt(&self) -> Value {
        list(self.ckpt_changes())
    }
    fn from_ckpt(v: &Value, path: &str) -> Result<Self, CkptError> {
        items(v, path).map(PowerEnvelope::from_ckpt_changes)
    }
}

ckpt_newtype!(Seconds, Joules, Db);
ckpt_struct!(HistogramSummary {
    count,
    sum,
    min,
    max,
    buckets
});
ckpt_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms
});

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
    // The exact form nests at most 128 levels. A body that does not
    // re-encode to itself is refused, so each state has one spelling: no
    // whitespace, leading zeros, optional escapes or upper-case hex bits.
    let root = serde_json::from_str_exact(body).map_err(|e| CkptError::Parse {
        offset: e.offset,
        message: e.message,
    })?;
    let canonical = root.encode();
    if canonical != body {
        let same = canonical.bytes().zip(body.bytes());
        return Err(CkptError::Parse {
            offset: same.take_while(|(a, b)| a == b).count(),
            message: "not in canonical form".into(),
        });
    }
    Ok(Checkpoint {
        version,
        hash: actual,
        root,
    })
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

fn diff_walk(a: &Value, b: &Value, path: &mut String, out: &mut Vec<DiffEntry>, limit: usize) {
    if limit != 0 && out.len() >= limit {
        return;
    }
    match (a, b) {
        (Value::Object(fa), Value::Object(fb)) => {
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
        (Value::Array(la), Value::Array(lb)) => {
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
            // Float leaves compare by bit pattern, as the bytes do.
            let same = match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => a == b,
            };
            if !same {
                diff_push(out, path, a.display_leaf(), b.display_leaf(), limit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deepest nesting a body may have.
    const MAX_DEPTH: usize = 128;

    /// Load `body` under a correct container line.
    fn load_body(body: &str) -> Result<Value, CkptError> {
        load(&container(body)).map(|c| c.root)
    }

    fn sample() -> Value {
        Value::map()
            .field("time", Value::UInt(12345))
            .field("pi", Value::Float(std::f64::consts::PI))
            .field("label", Value::str("office \"a\"\n"))
            .field("on", Value::Bool(true))
            .field("none", Value::Null)
            .field(
                "items",
                Value::Array(vec![Value::UInt(1), Value::Float(-0.0), Value::Bool(false)]),
            )
            .build()
    }

    #[test]
    fn encode_parse_roundtrip_exact() {
        let v = sample();
        let enc = v.encode();
        let back = load_body(&enc).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.encode(), enc, "canonical form is a fixed point");
    }

    #[test]
    fn f64_bits_roundtrip_nan_and_negzero() {
        let inf = f64::INFINITY.to_bits();
        for bits in [
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            0x7ff0000000000001,
            inf,
        ] {
            for bits in [bits, bits ^ (1 << 63)] {
                let v = Value::Float(f64::from_bits(bits));
                let back = load(&save(&v)).unwrap().root;
                assert!(
                    matches!(back, Value::Float(x) if x.to_bits() == bits),
                    "{bits:x}"
                );
            }
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
        if let Value::Object(fields) = &mut b {
            fields[0].1 = Value::UInt(54321);
            if let Value::Array(items) = &mut fields[5].1 {
                items[0] = Value::UInt(2);
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
    fn load_refuses_every_non_canonical_body() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for (body, offset) in [
            // Whitespace between tokens, and a trailing blank line.
            ("{\"a\": 1}", 5),
            ("[1, 2]", 3),
            ("{}\n", 2),
            // Numbers other than a u64 in decimal or an f64's bits.
            ("-1", 0),
            ("[1.5]", 2),
            ("1e3", 1),
            ("18446744073709551616", 0),
            ("[f3ff000000000000]", 1),
            // Escapes the writer never makes.
            ("\"a\\/b\"", 2),
            ("\"\\b\"", 2),
            ("\"\\ud83d\\ude00\"", 1),
            (deep.as_str(), MAX_DEPTH),
            // Other spellings of a value the writer spells one way.
            ("007", 0),
            ("\"\\u0041\"", 1),
            ("f3FF0000000000000", 2),
            ("\"a\u{1}b\"", 2),
        ] {
            match load_body(body) {
                Err(CkptError::Parse { offset: at, .. }) => assert_eq!(at, offset, "{body:?}"),
                other => panic!("{body:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn diff_compares_floats_by_bit_pattern() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        let floats = |xs: [f64; 3]| Value::Array(xs.map(Value::Float).to_vec());
        let a = floats([0.0, f64::NAN, f64::NAN]);
        let b = floats([-0.0, f64::NAN, nan2]);
        let paths: Vec<String> = diff(&a, &b, 0).into_iter().map(|d| d.path).collect();
        assert_eq!(paths, ["0", "2"]);
        assert!(diff(&a, &a.clone(), 0).is_empty());
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        // Pinned: offsets count bytes, multibyte characters included.
        for (text, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("[\"\u{b5}\u{2192}", 7, "unterminated string"),
            ("\"a\\qb\"", 4, "invalid escape"),
            ("\"\u{b5}\u{2192}\\q\"", 8, "invalid escape"),
            ("\"a\\u12", 4, "truncated \\u escape"),
            ("{\"k\\u00", 5, "truncated \\u escape"),
        ] {
            let want = CkptError::Parse {
                offset,
                message: message.into(),
            };
            assert_eq!(load_body(text), Err(want), "{text:?}");
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
            let v = Value::Object(
                pairs
                    .into_iter()
                    .map(|(k, s)| (k, Value::Str(s)))
                    .collect(),
            );
            let enc = v.encode();
            let back = load_body(&enc).unwrap();
            prop_assert_eq!(&back, &v);
            prop_assert_eq!(back.encode(), enc, "canonical form is a fixed point");
        }
    }

    /// The path of a [`CkptError::Field`]; anything else fails the test.
    fn field_path<T: std::fmt::Debug>(r: Result<T, CkptError>) -> String {
        match r {
            Err(CkptError::Field { path, .. }) => path,
            other => panic!("expected a field error, got {other:?}"),
        }
    }

    #[test]
    fn narrow_integers_refuse_values_past_their_range() {
        let past_u32 = Value::UInt(u64::from(u32::MAX) + 1);
        assert_eq!(field_path(u32::from_ckpt(&past_u32, "cw")), "cw");
        assert_eq!(
            field_path(u8::from_ckpt(&Value::UInt(256), "retries")),
            "retries"
        );
        assert_eq!(
            u32::from_ckpt(&Value::UInt(u32::MAX.into()), "cw"),
            Ok(u32::MAX)
        );
        assert_eq!(u8::MAX.to_ckpt(), Value::UInt(255));
    }

    #[test]
    fn arrays_and_pairs_check_their_length() {
        let seven = Value::Array(vec![Value::UInt(0); 7]);
        assert_eq!(field_path(<[u64; 8]>::from_ckpt(&seven, "stats")), "stats");
        let three = Value::Array(vec![Value::UInt(1); 3]);
        assert_eq!(field_path(<(u64, u64)>::from_ckpt(&three, "page")), "page");
        let eight = [1u64, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(<[u64; 8]>::from_ckpt(&eight.to_ckpt(), "stats"), Ok(eight));
        let pair = (SimTime::from_micros(3), true);
        assert_eq!(pair.to_ckpt().encode(), "[3000,true]");
        assert_eq!(
            <(SimTime, bool)>::from_ckpt(&pair.to_ckpt(), "sent_at"),
            Ok(pair)
        );
    }

    #[test]
    fn option_roundtrips_through_null_and_some() {
        assert_eq!(None::<u32>.to_ckpt(), Value::Null);
        assert_eq!(Some(7u32).to_ckpt(), Value::UInt(7));
        for x in [None, Some(7u32)] {
            assert_eq!(Option::<u32>::from_ckpt(&x.to_ckpt(), "probing"), Ok(x));
        }
        assert_eq!(
            field_path(Option::<u32>::from_ckpt(&Value::Bool(true), "probing")),
            "probing"
        );
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Light {
        Red,
        Green,
    }
    ckpt_names!(Light {
        Red => "red",
        Green => "green",
    });

    #[test]
    fn names_roundtrip_and_unknown_names_are_refused() {
        for l in [Light::Red, Light::Green] {
            assert_eq!(Light::from_ckpt(&l.to_ckpt(), "light"), Ok(l));
        }
        assert_eq!(Light::Green.to_ckpt(), Value::str("green"));
        assert_eq!(
            field_path(Light::from_ckpt(&Value::str("blue"), "light")),
            "light"
        );
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        at: SimTime,
        hits: BTreeMap<String, u64>,
        memo: Option<f64>,
    }
    ckpt_struct!(Probe { hits, at } reset { memo: None });

    #[test]
    fn structs_encode_the_listed_fields_in_order() {
        let p = Probe {
            at: SimTime::from_nanos(9),
            hits: BTreeMap::from([("b".to_string(), 2), ("a".to_string(), 1)]),
            memo: Some(0.5),
        };
        let v = p.to_ckpt();
        assert_eq!(v.encode(), r#"{"hits":{"a":1,"b":2},"at":9}"#);
        let back = Probe::from_ckpt(&v, "probe").unwrap();
        assert_eq!((back.at, &back.hits, back.memo), (p.at, &p.hits, None));
        let Value::Object(mut fields) = v else {
            panic!("a struct encodes as a map")
        };
        fields.pop();
        assert_eq!(
            field_path(Probe::from_ckpt(&Value::Object(fields), "probe")),
            "at"
        );
    }

    #[test]
    fn binned_throughput_refuses_a_zero_bin() {
        let v = Value::map()
            .put("bin", &SimDuration::ZERO)
            .put("bins", &vec![1u64])
            .build();
        assert_eq!(
            field_path(BinnedThroughput::from_ckpt(&v, "delivered")),
            "bin"
        );
    }

    #[test]
    fn fnv_hash_is_stable() {
        // Pinned: the hash is part of the wire format.
        assert_eq!(fnv1a128_hex(b""), "6c62272e07bb014262b821756295c58d");
        assert_ne!(fnv1a128_hex(b"a"), fnv1a128_hex(b"b"));
    }
}
