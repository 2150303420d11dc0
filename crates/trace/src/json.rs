//! A minimal, dependency-free JSON writer.
//!
//! The workspace bakes in no serialisation dependency, so both the
//! Perfetto exporter and the CLI's `--json` output hand-emit JSON
//! through this writer. Output is deterministic: keys are written in
//! call order and numbers format via the standard integer/float
//! formatters.
//!
//! The CLI writes its objects as field lists: [`json_obj!`](crate::json_obj)
//! takes `"key": value` pairs, one per line, and every value is a
//! [`ToJson`].

use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Streaming JSON writer with automatic comma placement.
///
/// ```
/// use slpmt_trace::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.key("scheme");
/// w.string("SLPMT");
/// w.key("ops");
/// w.u64(100);
/// w.end_obj();
/// assert_eq!(w.finish(), r#"{"scheme":"SLPMT","ops":100}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once it has an element
    /// (so the next element needs a comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has && !self.out.ends_with(':') {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Writes an object key (the next call writes its value).
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        let _ = write!(self.out, "\"{}\":", escape(k));
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        let _ = write!(self.out, "\"{}\"", escape(s));
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float value (finite; NaN/∞ fall back to `null`).
    pub fn f64(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    /// Returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A value that writes itself as one JSON value.
pub trait ToJson {
    /// Writes `self` into `w`.
    fn write_json(&self, w: &mut JsonWriter);

    /// Whether an object field holding `self` is left out: only
    /// `Option::None` is.
    fn is_absent(&self) -> bool {
        false
    }

    /// `self` as JSON text.
    fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

macro_rules! to_json_via {
    ($method:ident as $as:ty: $($t:ty),+) => {
        $(impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.$method(*self as $as);
            }
        })+
    };
}

to_json_via!(u64 as u64: u8, u16, u32, u64, usize);
to_json_via!(i64 as i64: i8, i16, i32, i64, isize);
to_json_via!(f64 as f64: f64);
to_json_via!(bool as bool: bool);

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for v in self {
            v.write_json(w);
        }
        w.end_arr();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.null(),
        }
    }

    fn is_absent(&self) -> bool {
        self.is_none()
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }

    fn is_absent(&self) -> bool {
        (**self).is_absent()
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }

    fn is_absent(&self) -> bool {
        (**self).is_absent()
    }
}

/// A JSON object: its `(key, value)` fields, written in order, with
/// absent values ([`ToJson::is_absent`]) left out. [`json_obj!`](crate::json_obj)
/// builds one of mixed value types; a `Vec` of pairs of one type is an
/// object with computed keys.
pub struct Obj<V>(pub Vec<(&'static str, V)>);

/// The fields of a [`json_obj!`](crate::json_obj) object.
pub type Fields<'a> = Obj<Box<dyn ToJson + 'a>>;

impl<V> Default for Obj<V> {
    fn default() -> Self {
        Obj(Vec::new())
    }
}

impl<'a> Fields<'a> {
    /// Appends `key: value`.
    pub fn field(mut self, key: &'static str, value: impl ToJson + 'a) -> Self {
        self.0.push((key, Box::new(value)));
        self
    }
}

impl<V: ToJson> ToJson for Obj<V> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        for (key, value) in self.0.iter().filter(|(_, v)| !v.is_absent()) {
            w.key(key);
            value.write_json(w);
        }
        w.end_obj();
    }
}

/// A JSON object from a `"key": value` list, one field per line, in the
/// order written; each value is a [`ToJson`], and an `Option` field is
/// left out on `None`.
///
/// ```
/// use slpmt_trace::{json_obj, ToJson};
/// let err: Option<&str> = None;
/// let obj = json_obj! {
///     "scheme": "SLPMT",
///     "ops": 100u64,
///     "cells": vec![json_obj! { "waf": 1.5 }],
///     "error": err,
/// };
/// assert_eq!(obj.to_json(), r#"{"scheme":"SLPMT","ops":100,"cells":[{"waf":1.5}]}"#);
/// ```
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Fields::default()$(.field($key, $value))*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structure_with_commas() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a");
        w.begin_arr();
        w.u64(1);
        w.u64(2);
        w.begin_obj();
        w.key("b");
        w.bool(true);
        w.end_obj();
        w.end_arr();
        w.key("c");
        w.f64(1.5);
        w.key("d");
        w.i64(-3);
        w.end_obj();
        assert_eq!(w.finish(), r#"{"a":[1,2,{"b":true}],"c":1.5,"d":-3}"#);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn field_lists_keep_order_and_drop_none() {
        let some: Option<u32> = Some(7);
        let obj = crate::json_obj! {
            "a": "x\"y",
            "b": vec![1i64, -2],
            "c": None::<u64>,
            "d": some,
            "e": [true].as_slice(),
        };
        assert_eq!(obj.to_json(), r#"{"a":"x\"y","b":[1,-2],"d":7,"e":[true]}"#);
        assert_eq!(vec![None::<u8>, Some(1)].to_json(), "[null,1]");
        assert_eq!(f64::INFINITY.to_json(), "null");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.f64(f64::NAN);
        w.end_arr();
        assert_eq!(w.finish(), "[null]");
    }
}
