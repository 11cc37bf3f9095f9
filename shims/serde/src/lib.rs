//! Offline stand-in for `serde` (1.x) sufficient for this workspace.
//!
//! Instead of serde's visitor-based zero-copy architecture, this shim
//! uses a concrete data-model tree, [`Content`]: serialization lowers a
//! value into a `Content`, deserialization lifts a `Content` back into a
//! value. The companion `serde_json` shim converts `Content` to and from
//! JSON text using the same conventions as upstream serde (externally
//! tagged enums, maps for structs, transparent newtypes), so existing
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

/// Lower `self` into the data-model tree.
pub trait Serialize {
    /// Produce the `Content` representation.
    fn to_content(&self) -> Content;
}

/// Lift a value out of the data-model tree.
pub trait Deserialize: Sized {
    /// Reconstruct from a `Content` representation.
    fn from_content(content: &Content) -> Result<Self, DeError>;
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

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                Content::I64(*self as i64)
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
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
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
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
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
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+)),+ $(,)?) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$n.to_content()),+])
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
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            other => Err(help::err(format!("expected sequence, got {other:?}"))),
        }
    }
}
