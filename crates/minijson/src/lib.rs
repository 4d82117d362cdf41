#![warn(missing_docs)]
#![warn(clippy::expect_used)]
//! A dependency-free JSON library: a [`Value`] tree, a [`json!`] construction
//! macro, a serializer (compact and pretty), and a strict parser.
//!
//! This crate exists so the workspace builds with **zero external
//! dependencies**: it mirrors the small `serde_json` surface the benchmark
//! binaries' `--json` output and the telemetry chrome-trace exporter need
//! (`Value`, `json!`, [`to_string_pretty`], and [`from_str`] for the tests
//! that read that output back), nothing more. Object member order is
//! preserved as written.

use std::fmt;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part, kept exact.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up a member of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as f64 if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(i64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(i64::from(v))
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        match i64::try_from(v) {
            Ok(n) => Value::Int(n),
            Err(_) => Value::Float(v as f64),
        }
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        match i64::try_from(v) {
            Ok(n) => Value::Int(n),
            Err(_) => Value::Float(v as f64),
        }
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::Str(v.clone())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<&Value> for Value {
    fn from(v: &Value) -> Value {
        v.clone()
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
/// Reference forms of the primitive conversions, so iterator items like
/// `&usize` drop straight into `json!` without an explicit deref.
macro_rules! impl_from_ref {
    ($($t:ty),* $(,)?) => { $(
        impl From<&$t> for Value {
            fn from(v: &$t) -> Value {
                Value::from(*v)
            }
        }
    )* };
}
impl_from_ref!(bool, i32, i64, u32, u64, usize, f64);

impl From<&&str> for Value {
    fn from(v: &&str) -> Value {
        Value::Str((*v).to_string())
    }
}

/// Tuples serialize as fixed-length arrays, as in `serde_json`.
impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Value {
        Value::Array(vec![a.into(), b.into()])
    }
}

/// Direct comparisons against primitives (`value["n"] == 3`), mirroring
/// `serde_json`. Numeric comparison is by value across Int/Float variants.
macro_rules! impl_value_eq_num {
    ($($t:ty),* $(,)?) => { $(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                match self {
                    Value::Int(n) => (*n as i128) == (*other as i128),
                    #[allow(clippy::cast_precision_loss)]
                    Value::Float(x) => *x == (*other as f64),
                    _ => false,
                }
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )* };
}
impl_value_eq_num!(i32, i64, u32, u64, usize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Value::Int(n) => (*n as f64) == *other,
            Value::Float(x) => x == other,
            _ => false,
        }
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        matches!(self, Value::Bool(b) if b == other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Value::Str(s) if s == other)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

/// `value["key"]` lookup, mirroring `serde_json`: missing keys (or indexing a
/// non-object) yield `Value::Null` instead of panicking.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }
}

/// `value[i]` lookup on arrays; out-of-range (or a non-array) yields `Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// Build a [`Value`] with JSON-like syntax, mirroring `serde_json::json!`.
///
/// ```
/// let v = minijson::json!({ "name": "edge", "ports": [1, 2], "up": true });
/// assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("edge"));
/// ```
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => { $crate::Value::Array($crate::json_items!(@array [] $($tt)*)) };
    ({ $($tt:tt)* }) => { $crate::Value::Object($crate::json_items!(@object [] $($tt)*)) };
    ($other:expr) => { $crate::Value::from($other) };
}

/// Internal recursion helper for [`json!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! json_items {
    // -- array elements -----------------------------------------------------
    (@array [$($done:expr,)*]) => { vec![$($done,)*] };
    (@array [$($done:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_items!(@array [$($done,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_items!(@array [$($done,)* $crate::json!([ $($arr)* ]),] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_items!(@array [$($done,)* $crate::json!({ $($obj)* }),] $($($rest)*)?)
    };
    (@array [$($done:expr,)*] $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_items!(@array [$($done,)* $crate::Value::from($value),] $($($rest)*)?)
    };
    // -- object members -----------------------------------------------------
    (@object [$($done:expr,)*]) => { vec![$($done,)*] };
    (@object [$($done:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_items!(@object [$($done,)* ($key.to_string(), $crate::Value::Null),] $($($rest)*)?)
    };
    (@object [$($done:expr,)*] $key:literal : [ $($arr:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_items!(@object [$($done,)* ($key.to_string(), $crate::json!([ $($arr)* ])),] $($($rest)*)?)
    };
    (@object [$($done:expr,)*] $key:literal : { $($obj:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_items!(@object [$($done,)* ($key.to_string(), $crate::json!({ $($obj)* })),] $($($rest)*)?)
    };
    (@object [$($done:expr,)*] $key:literal : $value:expr $(, $($rest:tt)*)?) => {
        $crate::json_items!(@object [$($done,)* ($key.to_string(), $crate::Value::from($value)),] $($($rest)*)?)
    };
}

/// Serialization error. Serialization is infallible for finite numbers; this
/// type exists to keep call sites signature-compatible with `serde_json`.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error")
    }
}
impl std::error::Error for Error {}

/// Types this module can serialize directly — [`Value`] and collections of
/// it — so call sites can pass `&Vec<Value>` like they would to `serde_json`.
pub trait Serialize {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String, indent: Option<&str>, depth: usize);
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        write_value(out, self, indent, depth);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        self.as_slice().write_json(out, indent, depth);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        if self.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_indent(out, indent, depth + 1);
            item.write_json(out, indent, depth + 1);
        }
        write_indent(out, indent, depth);
        out.push(']');
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String, indent: Option<&str>, depth: usize) {
        (*self).write_json(out, indent, depth);
    }
}

/// Serialize compactly (no whitespace).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out, None, 0);
    Ok(out)
}

/// Serialize with two-space indentation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out, Some("  "), 0);
    Ok(out)
}

/// Compact JSON text, honouring the formatter's width, fill and alignment
/// (`{:>6}` pads a number like any integer does). A number goes through its
/// own `Display`, so `{:.2}` on a float rounds it; a float without a
/// precision keeps its JSON form (`2.0`). Every other value is padded as
/// text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => fmt::Display::fmt(n, f),
            Value::Float(x) if f.precision().is_some() && x.is_finite() => fmt::Display::fmt(x, f),
            _ => {
                let mut out = String::new();
                write_value(&mut out, self, None, 0);
                f.pad(&out)
            }
        }
    }
}

fn write_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(pad) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(pad);
        }
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<&str>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_number(out, *x),
        Value::Str(s) => write_string(out, s),
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
                write_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_number(out: &mut String, x: f64) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep a fractional marker so the value re-parses as a float.
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&format!("{x}"));
        }
    } else {
        // JSON has no inf/nan; emit null like serde_json does.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// A parse failure: byte offset and message.
#[derive(Debug)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}
impl std::error::Error for ParseError {}

/// Parse a JSON document. Strict: trailing garbage is an error.
pub fn from_str(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, tok: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{tok}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => {
                self.eat("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '['
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates map to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let v = json!({
            "name": "edge-0",
            "count": 3,
            "ratio": 0.5,
            "ok": true,
            "none": null,
            "tags": ["a", "b"],
            "nested": { "k": [1, 2, 3] },
        });
        assert_eq!(v.get("count").and_then(Value::as_i64), Some(3));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(
            v.get("tags").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn round_trip_compact_and_pretty() {
        let v = json!([
            { "a": 1, "b": [true, false, null], "c": "x\"y\\z\n" },
            { "f": 2.25, "neg": -17 },
        ]);
        for text in [to_string(&v), to_string_pretty(&v)] {
            let text = text.expect("serialize");
            let back = from_str(&text).expect("parse");
            assert_eq!(back, v);
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(from_str("{ \"a\": }").is_err());
        assert!(from_str("[1, 2,]").is_err());
        assert!(from_str("[1] x").is_err());
        assert!(from_str("nul").is_err());
    }

    #[test]
    fn integers_survive_exactly() {
        let v = from_str("[9007199254740993]").expect("parse");
        assert_eq!(
            v.as_array().and_then(|a| a[0].as_i64()),
            Some(9007199254740993)
        );
    }

    #[test]
    fn display_honours_width_and_precision() {
        assert_eq!(format!("{:>5}", Value::from(3)), "    3");
        assert_eq!(format!("{:<5}|", Value::from(-3)), "-3   |");
        assert_eq!(format!("{:>6.2}", Value::from(1.23456)), "  1.23");
        assert_eq!(format!("{:>5}", Value::from(2.0)), "  2.0");
        assert_eq!(format!("{:>7}", Value::from("ab")), "   \"ab\"");
        assert_eq!(format!("{}", json!({"a": [1, true]})), "{\"a\":[1,true]}");
    }

    #[test]
    fn floats_reparse_as_floats() {
        let v = json!(2.0);
        let text = to_string(&v).expect("serialize");
        assert_eq!(text, "2.0");
        assert_eq!(from_str(&text).expect("parse"), v);
    }
}
