//! Offline stand-in for `serde`.
//!
//! The build environment has no network access, so the workspace carries a
//! minimal self-contained serialization framework under the `serde` name:
//!
//! * [`Value`] — a JSON document tree with a writer ([`Value::write_json`])
//!   and a strict parser ([`Value::parse_json`]);
//! * [`Serialize`] / [`Deserialize`] — conversions between Rust types and
//!   [`Value`], with impls for the primitives, strings, tuples, arrays,
//!   `Option`, `Vec` and maps used across the workspace;
//! * derive macros (re-exported from `serde_derive`) generating those
//!   impls for plain structs and enums, using serde's JSON conventions
//!   (named struct → object, newtype → inner value, tuple → array, unit
//!   enum variant → string, data variant → externally tagged object).
//!
//! It is **not** wire-compatible with real serde beyond the JSON shapes
//! described above, and it supports no attributes and no generics — the
//! workspace uses neither. The campaign checkpoint format (see
//! DESIGN.md, "Campaign resilience") round-trips through this module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A (finite) float. Non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `u64`, accepting any integral representation.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) => u64::try_from(n).ok(),
            Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// Numeric payload as `i64`, accepting any integral representation.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(n) => Some(n),
            Value::U64(n) => i64::try_from(n).ok(),
            Value::F64(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            _ => None,
        }
    }

    /// Numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(f) => Some(f),
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Renders the document as compact JSON.
    pub fn write_json(&self, out: &mut String) {
        self.write_indented(out, None, 0);
    }

    /// Renders the document as pretty-printed JSON (two-space indent).
    pub fn write_json_pretty(&self, out: &mut String) {
        self.write_indented(out, Some(2), 0);
    }

    fn write_indented(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::U64(n) => {
                out.push_str(&n.to_string());
            }
            Value::I64(n) => {
                out.push_str(&n.to_string());
            }
            Value::F64(f) => {
                if f.is_finite() {
                    // Rust's shortest round-trip float formatting; force a
                    // decimal point so the value re-parses as a float.
                    let s = f.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write_indented(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write_indented(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Trailing non-whitespace is an error, and
    /// so is nesting arrays and objects deeper than [`MAX_DEPTH`].
    pub fn parse_json(input: &str) -> Result<Value, DeError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(DeError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Value::parse_json`] accepts.
/// The parser recurses once per level, so without a bound a small
/// document of repeated `[` would overflow the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, DeError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(DeError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(DeError::new(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.depth += 1;
                self.pos += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(DeError::new(format!("unexpected byte at {}", self.pos))),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn array(&mut self) -> Result<Value, DeError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(DeError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    /// The rest of an object whose `{` was consumed.
    fn object(&mut self) -> Result<Value, DeError> {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(DeError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, DeError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| DeError::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| DeError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| DeError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| DeError::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| DeError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(DeError::new("unknown escape")),
                    }
                }
                _ => return Err(DeError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::new("bad number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| DeError::new(format!("bad number '{text}'")))
    }
}

/// A deserialization failure, with a plain-text description of where the
/// document diverged from the expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// A new error with the given description.
    pub fn new(msg: impl Into<String>) -> DeError {
        DeError { msg: msg.into() }
    }

    /// "expected X while deserializing Y".
    pub fn expected(what: &str, ctx: &str) -> DeError {
        DeError::new(format!("expected {what} while deserializing {ctx}"))
    }

    /// Unknown enum variant tag.
    pub fn unknown_variant(tag: &str, ctx: &str) -> DeError {
        DeError::new(format!("unknown variant '{tag}' for {ctx}"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for DeError {}

/// Conversion into a [`Value`].
pub trait Serialize {
    /// The document representation of `self`.
    fn to_value(&self) -> Value;
}

/// Conversion from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from its document representation.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---- support functions used by the derive-generated code ----

/// Deserializes one named field of an object; a missing key reads as
/// `Null` (so `Option` fields tolerate omission).
pub fn de_field<T: Deserialize>(v: &Value, key: &str, ctx: &str) -> Result<T, DeError> {
    let field = v.get(key).unwrap_or(&Value::Null);
    T::from_value(field).map_err(|e| DeError::new(format!("{ctx}.{key}: {e}")))
}

/// Wraps a data-carrying enum variant as `{"Variant": inner}`.
pub fn variant_value(tag: &str, inner: Value) -> Value {
    Value::Object(vec![(tag.to_string(), inner)])
}

/// Splits `{"Variant": inner}` into `("Variant", inner)`.
pub fn variant_parts<'v>(v: &'v Value, ctx: &str) -> Result<(&'v str, &'v Value), DeError> {
    match v.as_object() {
        Some([(tag, inner)]) => Ok((tag, inner)),
        _ => Err(DeError::expected("single-key variant object", ctx)),
    }
}

/// Deserializes element `i` of a tuple representation.
pub fn tuple_elem<T: Deserialize>(v: &Value, i: usize, ctx: &str) -> Result<T, DeError> {
    let items = v
        .as_array()
        .ok_or_else(|| DeError::expected("array", ctx))?;
    let item = items
        .get(i)
        .ok_or_else(|| DeError::new(format!("{ctx}: missing tuple element {i}")))?;
    T::from_value(item).map_err(|e| DeError::new(format!("{ctx}[{i}]: {e}")))
}

// ---- impls for std types ----

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::expected("bool", "bool"))
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_u64().ok_or_else(|| DeError::expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| DeError::new(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 { Value::U64(n as u64) } else { Value::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v.as_i64().ok_or_else(|| DeError::expected("integer", stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| DeError::new(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::expected("number", "f64"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .map(|f| f as f32)
            .ok_or_else(|| DeError::expected("number", "f32"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::expected("string", "String"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::expected("array", "Vec"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| DeError::new(format!("expected array of {N} elements, got {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident : $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                Ok(($(tuple_elem::<$t>(v, $i, "tuple")?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Value::Object(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::expected("object", "HashMap"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_object()
            .ok_or_else(|| DeError::expected("object", "BTreeMap"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = Value::Object(vec![
            ("a".into(), Value::U64(18_446_744_073_709_551_615)),
            ("b".into(), Value::I64(-42)),
            ("c".into(), Value::F64(0.125)),
            (
                "d".into(),
                Value::Array(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Str("x\"\n".into()),
                ]),
            ),
            ("e".into(), Value::Object(vec![])),
        ]);
        let mut s = String::new();
        doc.write_json(&mut s);
        assert_eq!(Value::parse_json(&s).unwrap(), doc);
        let mut pretty = String::new();
        doc.write_json_pretty(&mut pretty);
        assert_eq!(Value::parse_json(&pretty).unwrap(), doc);
    }

    #[test]
    fn primitive_impls_roundtrip() {
        assert_eq!(u8::from_value(&42u8.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert_eq!(
            Option::<u64>::from_value(&None::<u64>.to_value()).unwrap(),
            None
        );
        assert_eq!(
            Vec::<u16>::from_value(&vec![1u16, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
        let t = (1u8, -2i32, 0.5f64);
        assert_eq!(<(u8, i32, f64)>::from_value(&t.to_value()).unwrap(), t);
        let arr = [1.0f64, 2.0, 3.0];
        assert_eq!(<[f64; 3]>::from_value(&arr.to_value()).unwrap(), arr);
    }

    #[test]
    fn u8_range_check() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(u8::from_value(&Value::Str("nope".into())).is_err());
    }

    #[test]
    fn float_without_fraction_reparses_as_float_compatible() {
        let mut s = String::new();
        Value::F64(2.0).write_json(&mut s);
        assert_eq!(s, "2.0");
        assert_eq!(Value::parse_json(&s).unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse_json("{").is_err());
        assert!(Value::parse_json("[1,]").is_err());
        assert!(Value::parse_json("12 34").is_err());
        assert!(Value::parse_json("\"unterminated").is_err());
    }

    /// `depth` arrays, each holding the next, around `null`.
    fn nested_arrays(depth: usize) -> String {
        format!("{}null{}", "[".repeat(depth), "]".repeat(depth))
    }

    /// `depth` objects, each holding the next under key `"k"`, around
    /// `null`.
    fn nested_objects(depth: usize) -> String {
        format!("{}null{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let mut v = Value::parse_json(&nested_arrays(MAX_DEPTH)).unwrap();
        for _ in 0..MAX_DEPTH {
            let Value::Array(mut items) = v else {
                panic!("expected an array");
            };
            v = items.pop().unwrap();
        }
        assert_eq!(v, Value::Null);
        let mut v = Value::parse_json(&nested_objects(MAX_DEPTH)).unwrap();
        for _ in 0..MAX_DEPTH {
            v = v.get("k").unwrap().clone();
        }
        assert_eq!(v, Value::Null);
        // Depth is nesting, not a count of containers.
        let wide = format!("[{}]", vec![nested_arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(Value::parse_json(&wide).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error() {
        for doc in [
            nested_arrays(MAX_DEPTH + 1),
            nested_objects(MAX_DEPTH + 1),
            format!("{{\"k\":{}}}", nested_arrays(MAX_DEPTH)),
            // Far past the cap, unterminated: refused without recursing
            // once per byte.
            "[".repeat(1 << 20),
        ] {
            let err = Value::parse_json(&doc).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
    }
}
