//! Offline stand-in for `serde_json` (1.x API surface used here):
//! `to_string`/`to_vec` and `from_str`/`from_slice`.
//!
//! Serialization streams: `to_string` calls the value's
//! [`Serialize::write_json`], which writes JSON text straight into one
//! output buffer. Parsing builds the serde shim's [`Content`] tree, the
//! deserialize model; [`to_string_via_content`] writes through that same
//! tree and is the reference the streaming path is tested against. Both
//! writers share the serde shim's one text writer (`serde::json`).
//!
//! Wire-format conventions match upstream defaults: structs are objects,
//! enums are externally tagged, integers round-trip exactly through a
//! dedicated i64/u64 path, and floats print via Rust's shortest
//! round-trip representation (integral floats keep a trailing `.0`, as
//! upstream does). Non-finite floats serialize as `null`, also matching
//! upstream.

use serde::{Content, Deserialize, Serialize};

/// Serialization or parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

impl From<serde::SerError> for Error {
    fn from(e: serde::SerError) -> Self {
        Error(e.0)
    }
}

/// Serialize a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out)?;
    Ok(out)
}

/// Serialize a value by lowering it into a [`Content`] tree and writing
/// the tree: the reference for [`to_string`], which must produce the
/// same bytes and the same errors.
pub fn to_string_via_content<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_content(&value.to_content(), &mut out)?;
    Ok(out)
}

/// Serialize a value to JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize a value from a JSON string.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let content = parse(input)?;
    T::from_content(&content).map_err(Error::from)
}

/// Deserialize a value from JSON bytes.
pub fn from_slice<T: Deserialize>(input: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(input).map_err(|e| Error(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting accepted (upstream serde_json's limit).
/// A constant, not a setting: the parser recurses per level, so without
/// it a body of `[` bytes overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// One pass over the input. `input` is the `&str` the caller gave (valid
/// UTF-8 by type; `from_slice` checked it once); `bytes` is the same
/// memory for scanning. `pos` only ever stops after an ASCII byte or a
/// whole copied run, so it is always a char boundary of `input`.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn parse(input: &str) -> Result<Content, Error> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error("unexpected end of input".into()))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Content, Error> {
        match self.peek()? {
            b'n' => self.keyword("null", Content::Null),
            b't' => self.keyword("true", Content::Bool(true)),
            b'f' => self.keyword("false", Content::Bool(false)),
            b'"' => self.string().map(Content::Str),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn keyword(&mut self, word: &str, value: Content) -> Result<Content, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Content, Error>,
    ) -> Result<Content, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error("recursion limit exceeded".into()));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Content, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `]` in array, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Content, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((Content::Str(key), value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected `,` or `}}` in object, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` whole. Both are
            // ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error("unterminated string".into()))?;
            let end = self.pos + run;
            out.push_str(&self.input[self.pos..end]);
            self.pos = end + 1;
            if self.bytes[end] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error("unterminated escape".into()))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{08}'),
                b'f' => out.push('\u{0C}'),
                b'u' => {
                    let hi = self.hex4()?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: the low half must follow.
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return Err(Error("lone leading surrogate".into()));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(Error("lone leading surrogate".into()));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| Error(format!("bad codepoint {cp:#x}")))?,
                    );
                }
                other => {
                    return Err(Error(format!("bad escape `\\{}`", other as char)));
                }
            }
        }
    }

    /// Exactly four ASCII hex digits (no sign, unlike `from_str_radix`).
    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".into()));
        }
        // `None` when the four bytes cut a multi-byte scalar in half.
        let s = self
            .input
            .get(self.pos..end)
            .ok_or_else(|| Error("bad \\u escape".into()))?;
        let mut v = 0;
        for b in s.bytes() {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error(format!("bad \\u escape `{s}`")))?;
            v = v * 16 + digit;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Content, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
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
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&"hi\n").unwrap(), "\"hi\\n\"");
        let v: i64 = from_str("-9223372036854775808").unwrap();
        assert_eq!(v, i64::MIN);
        let u: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(u, u64::MAX);
    }

    #[test]
    fn float_round_trip_is_exact() {
        for &f in &[0.1f64, 1e300, -2.5e-10, 1234567.0, f64::MIN_POSITIVE] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{s}");
        }
    }

    #[test]
    fn collections_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,null,3]");
        let back: Vec<Option<u32>> = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn strings_with_escapes_and_unicode() {
        let s = "quote\" back\\ tab\t nl\n ∅ 😀";
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(s, back);
        // Escaped unicode input parses too.
        let from_escape: String = from_str("\"\\u2205 \\ud83d\\ude00\"").unwrap();
        assert_eq!(from_escape, "∅ 😀");
    }

    /// The boundary itself; the hostile inputs (a 200 KB body of `[`,
    /// surrogate and `\\u` abuse) are in the root package's
    /// `tests/json_codec.rs`, where tier-1 runs them.
    #[test]
    fn nesting_limit_is_exactly_max_depth() {
        let err = |s: &str| parse(s).unwrap_err().0;
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(err(&nest(MAX_DEPTH + 1)), "recursion limit exceeded");
        let objects = r#"{"k":"#.repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(err(&objects), "recursion limit exceeded");
    }

    #[test]
    fn whitespace_tolerant_parsing() {
        let v: Vec<u8> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
