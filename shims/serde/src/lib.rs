//! Offline stand-in for `serde` (1.x) sufficient for this workspace.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim
//! has a concrete data-model tree, [`Content`], and writes JSON text
//! directly:
//!
//! * serialization streams: [`Serialize::write_json`] appends a value's
//!   JSON straight to the output buffer, field by field, with no tree in
//!   between (the derive emits it for every type);
//! * deserialization lifts a `Content` back into a value, so the tree is
//!   the deserialize model. [`Serialize::to_content`] still lowers a
//!   value into one: it is the default of `write_json` for hand-written
//!   impls and the reference the streaming writer is tested against.
//!
//! Both serialization paths share one text writer ([`json`]): one string
//! escaper, one integer and one float formatter. The companion
//! `serde_json` shim parses JSON into `Content` and uses the same
//! conventions as upstream serde (externally tagged enums, maps for
//! structs, transparent newtypes), so existing
//! `#[derive(Serialize, Deserialize)]` code and its wire format keep
//! working without registry access.

pub use serde_derive::{Deserialize, Serialize};

/// The serde data-model tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null` / Rust `Option::None` / unit.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer (covers all `iN` and any `uN` that fits).
    I64(i64),
    /// Unsigned integer above `i64::MAX`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence (arrays, tuples, tuple variants).
    Seq(Vec<Content>),
    /// Map (structs, maps, struct variants). Order-preserving.
    Map(Vec<(Content, Content)>),
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization error. JSON can represent every value the data model
/// can, except a map whose key is not a string.
#[derive(Debug, Clone, PartialEq)]
pub struct SerError(pub String);

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SerError {}

/// Lower `self` into the data-model tree, or write it as JSON text.
pub trait Serialize {
    /// Produce the `Content` representation.
    fn to_content(&self) -> Content;

    /// Append this value's JSON text to `out`. The default lowers through
    /// [`Serialize::to_content`] and walks the tree, so a hand-written
    /// impl is correct without it; every impl in this crate and every
    /// derived one overrides it to write directly. On `Err` the contents
    /// of `out` are unspecified.
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_content(&self.to_content(), out)
    }

    /// Append this value as a JSON object key: a string, or the error
    /// the tree walk gives for a non-string key.
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        json::write_key(&self.to_content(), out)
    }
}

/// Lift a value out of the data-model tree.
pub trait Deserialize: Sized {
    /// Reconstruct from a `Content` representation.
    fn from_content(content: &Content) -> Result<Self, DeError>;
}

pub mod json {
    //! The one JSON text writer. The tree walk ([`write_content`]) and
    //! every streaming [`Serialize::write_json`] call these same
    //! functions, so the two paths cannot format a string or a number
    //! differently.

    use super::{Content, SerError, Serialize};

    /// Write a data-model tree as JSON text.
    pub fn write_content(c: &Content, out: &mut String) -> Result<(), SerError> {
        match c {
            Content::Null => out.push_str("null"),
            Content::Bool(b) => write_bool(*b, out),
            Content::I64(v) => write_i64(*v, out),
            Content::U64(v) => write_u64(*v, out),
            Content::F64(v) => write_f64(*v, out),
            Content::Str(s) => write_str(s, out),
            Content::Seq(items) => write_seq(items, out)?,
            Content::Map(entries) => write_map(entries.iter().map(|(k, v)| (k, v)), out)?,
        }
        Ok(())
    }

    /// Write a tree node as an object key: only a string is one.
    pub fn write_key(c: &Content, out: &mut String) -> Result<(), SerError> {
        match c {
            Content::Str(s) => {
                write_str(s, out);
                Ok(())
            }
            other => Err(SerError(format!(
                "JSON object keys must be strings, got {other:?}"
            ))),
        }
    }

    /// Write a sequence as a JSON array.
    pub fn write_seq<'a, T: Serialize + ?Sized + 'a>(
        items: impl IntoIterator<Item = &'a T>,
        out: &mut String,
    ) -> Result<(), SerError> {
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out)?;
        }
        out.push(']');
        Ok(())
    }

    /// Write key/value pairs as a JSON object.
    pub fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
        entries: impl IntoIterator<Item = (&'a K, &'a V)>,
        out: &mut String,
    ) -> Result<(), SerError> {
        out.push('{');
        for (i, (k, v)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            k.write_json_key(out)?;
            out.push(':');
            v.write_json(out)?;
        }
        out.push('}');
        Ok(())
    }

    pub fn write_bool(b: bool, out: &mut String) {
        out.push_str(if b { "true" } else { "false" });
    }

    pub fn write_i64(v: i64, out: &mut String) {
        if v < 0 {
            out.push('-');
        }
        write_u64(v.unsigned_abs(), out);
    }

    /// Decimal digits, as `{v}` prints them, without the formatter.
    pub fn write_u64(mut v: u64, out: &mut String) {
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
    }

    /// `{v:?}` is Rust's shortest round-trip float formatting and keeps
    /// `.0` on integral values, matching upstream serde_json with
    /// `float_roundtrip`. Non-finite values are `null`, as upstream.
    pub fn write_f64(v: f64, out: &mut String) {
        if v.is_finite() {
            use std::fmt::Write;
            write!(out, "{v:?}").expect("writing to a String cannot fail");
        } else {
            out.push_str("null");
        }
    }

    pub fn write_str(s: &str, out: &mut String) {
        out.push('"');
        // Everything that needs escaping is ASCII, so the unescaped run
        // before it ends on a char boundary and is copied whole.
        let mut run_start = 0;
        for (i, b) in s.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.push_str(&s[run_start..i]);
            run_start = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                0x08 => out.push_str("\\b"),
                0x0C => out.push_str("\\f"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.push_str("\\u00");
                    out.push(HEX[(b >> 4) as usize] as char);
                    out.push(HEX[(b & 0xF) as usize] as char);
                }
            }
        }
        out.push_str(&s[run_start..]);
        out.push('"');
    }
}

pub mod help {
    //! Helpers the derive macro expands calls to.

    use super::{Content, DeError};

    /// Construct a [`DeError`].
    pub fn err(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }

    /// Look up a struct field by name in a map body.
    pub fn map_get<'a>(map: &'a [(Content, Content)], key: &str) -> Option<&'a Content> {
        map.iter().find_map(|(k, v)| match k {
            Content::Str(s) if s == key => Some(v),
            _ => None,
        })
    }

    /// Split an externally tagged enum value into `(variant, payload)`:
    /// a bare string is a unit variant, a single-entry map is a data
    /// variant.
    pub fn as_variant(content: &Content) -> Result<(&str, Option<&Content>), DeError> {
        match content {
            Content::Str(tag) => Ok((tag.as_str(), None)),
            Content::Map(entries) if entries.len() == 1 => match &entries[0].0 {
                Content::Str(tag) => Ok((tag.as_str(), Some(&entries[0].1))),
                other => Err(err(format!("enum tag must be a string, got {other:?}"))),
            },
            other => Err(err(format!(
                "expected enum (string or single-entry map), got {other:?}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

/// A tree writes itself: this is the tree walk's recursion.
impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_content(self, out)
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        json::write_key(self, out)
    }
}

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
            }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_i64(*self as i64, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v: i64 = match c {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v)
                        .map_err(|_| help::err(format!("integer {v} out of range")))?,
                    Content::F64(v) if v.fract() == 0.0 => *v as i64,
                    other => return Err(help::err(format!(
                        "expected integer, got {other:?}"
                    ))),
                };
                <$t>::try_from(v)
                    .map_err(|_| help::err(format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = *self as u64;
                if let Ok(i) = i64::try_from(v) {
                    Content::I64(i)
                } else {
                    Content::U64(v)
                }
            }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_u64(*self as u64, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v: u64 = match c {
                    Content::I64(v) => u64::try_from(*v)
                        .map_err(|_| help::err(format!("integer {v} out of range")))?,
                    Content::U64(v) => *v,
                    Content::F64(v) if v.fract() == 0.0 && *v >= 0.0 => *v as u64,
                    other => return Err(help::err(format!(
                        "expected unsigned integer, got {other:?}"
                    ))),
                };
                <$t>::try_from(v)
                    .map_err(|_| help::err(format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

ser_de_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_bool(*self, out);
        Ok(())
    }
}

impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(help::err(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_f64(*self, out);
        Ok(())
    }
}

impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::F64(v) => Ok(*v),
            Content::I64(v) => Ok(*v as f64),
            Content::U64(v) => Ok(*v as f64),
            Content::Null => Ok(f64::NAN),
            other => Err(help::err(format!("expected float, got {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(*self as f64)
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_f64(*self as f64, out);
        Ok(())
    }
}

impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_str(self, out);
        Ok(())
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        self.write_json(out)
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(help::err(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_str(self, out);
        Ok(())
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        self.write_json(out)
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_str(self.encode_utf8(&mut [0; 4]), out);
        Ok(())
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        self.write_json(out)
    }
}

impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(help::err(format!(
                "expected single-char string, got {other:?}"
            ))),
        }
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        out.push_str("null");
        Ok(())
    }
}

impl Deserialize for () {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(()),
            other => Err(help::err(format!("expected null, got {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Containers
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json(out)
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json_key(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json(out)
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json_key(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json(out)
    }
    fn write_json_key(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json_key(out)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        T::from_content(c).map(std::sync::Arc::new)
    }
}

impl Deserialize for std::sync::Arc<str> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Str(s) => Ok(s.as_str().into()),
            other => Err(help::err(format!("expected string, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            Some(v) => v.to_content(),
            None => Content::Null,
        }
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        match self {
            Some(v) => v.write_json(out),
            None => ().write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(help::err(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
            }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                out.push('[');
                $(
                    if $n > 0 {
                        out.push(',');
                    }
                    self.$n.write_json(out)?;
                )+
                out.push(']');
                Ok(())
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                match c {
                    Content::Seq(items) => {
                        let expected = [$($n,)+].len();
                        if items.len() != expected {
                            return Err(help::err(format!(
                                "expected {expected}-tuple, got {} elements", items.len()
                            )));
                        }
                        Ok(($($t::from_content(&items[$n])?,)+))
                    }
                    other => Err(help::err(format!("expected sequence, got {other:?}"))),
                }
            }
        }
    )+};
}

ser_de_tuple!(
    (0 A),
    (0 A, 1 B),
    (0 A, 1 B, 2 C),
    (0 A, 1 B, 2 C, 3 D),
    (0 A, 1 B, 2 C, 3 D, 4 E)
);

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_map(self, out)
    }
}

impl<K, V, S> Deserialize for std::collections::HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            other => Err(help::err(format!("expected map, got {other:?}"))),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_map(self, out)
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            other => Err(help::err(format!("expected map, got {other:?}"))),
        }
    }
}

impl<T> Serialize for std::collections::HashSet<T, std::collections::hash_map::RandomState>
where
    T: Serialize,
{
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T> Deserialize for std::collections::HashSet<T, std::collections::hash_map::RandomState>
where
    T: Deserialize + std::hash::Hash + Eq,
{
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(help::err(format!("expected sequence, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(help::err(format!("expected sequence, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json;

    #[test]
    fn integers_print_as_the_formatter_prints_them() {
        let mut powers: Vec<u64> = (0..20).map(|e| 10u64.pow(e)).collect();
        powers.extend(powers.clone().iter().map(|p| p - 1));
        for v in powers.into_iter().chain([u64::MAX, i64::MAX as u64 + 1]) {
            let mut out = String::new();
            json::write_u64(v, &mut out);
            assert_eq!(out, v.to_string());
        }
        for v in [0, -1, -9, -10, 42, i64::MIN, i64::MIN + 1, i64::MAX] {
            let mut out = String::new();
            json::write_i64(v, &mut out);
            assert_eq!(out, v.to_string());
        }
    }
}
