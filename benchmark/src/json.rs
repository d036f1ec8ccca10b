//! Field access on the vendored `serde::Value` tree, with errors that name
//! the missing or mistyped field.

use serde::Value;

/// The entries of an object.
pub fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Object(entries) => Ok(entries),
        _ => Err(format!("{what}: expected an object")),
    }
}

/// Field `key` of an object.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    object(v, key)?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// A string field.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match field(v, key)? {
        Value::Str(s) => Ok(s),
        _ => Err(format!("`{key}`: expected a string")),
    }
}

/// A number as f64 (integers included).
pub fn as_f64(v: &Value, what: &str) -> Result<f64, String> {
    match *v {
        Value::Float(f) => Ok(f),
        Value::UInt(u) => Ok(u as f64),
        Value::Int(i) => Ok(i as f64),
        _ => Err(format!("`{what}`: expected a number")),
    }
}

/// A numeric field as f64.
pub fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    as_f64(field(v, key)?, key)
}

/// A non-negative integer field.
pub fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match *field(v, key)? {
        Value::UInt(u) => Ok(u),
        Value::Int(i) if i >= 0 => Ok(i as u64),
        _ => Err(format!("`{key}`: expected a non-negative integer")),
    }
}

/// A boolean field.
pub fn bool_field(v: &Value, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}`: expected true or false")),
    }
}

/// An array field.
pub fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(v, key)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("`{key}`: expected an array")),
    }
}

/// Parse JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}
