//! The JSON shim's decode contract, tested from the root package so
//! tier-1 runs it (the shims are not in `default-members`): one UTF-8
//! validation per input, one pass over it, nesting at most 128 deep, and
//! never a panic, whatever the bytes.
//!
//! * the single-pass `Parser::string` agrees value for value and error
//!   for error with a per-character reference model (the parser it
//!   replaced), and the run-copying encoder with its per-`char` one;
//! * `from_slice` rejects invalid UTF-8 wherever it sits;
//! * a seeded sweep over random bytes and over mutated and truncated
//!   wire documents never panics;
//! * decode time is linear in the input (the old parser re-validated the
//!   rest of the body once per character: hours for 8 MB);
//! * encode → decode → encode is byte-identical on wire documents.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_storage::bus::ReplicaId;
use statesman_storage::paxos::Ballot;
use statesman_storage::wal::WalEvent;
use statesman_storage::LogCommand;
use statesman_types::{
    AppId, Attribute, EntityName, NetworkState, Pool, SimTime, StateDelta, Value, Version,
};

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

/// The string parser as it stood before the single-pass rewrite, kept as
/// the oracle: one `from_utf8` of the remaining input and one `push` per
/// character. Two of that parser's bugs are fixed here exactly as in the
/// shipped one, so the models agree on every input: the second half of a
/// surrogate pair must be a low surrogate, and `\u` takes exactly four
/// hex digits (`from_str_radix` took a sign).
struct Reference<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reference<'_> {
    /// Decode a document that is one string literal (`input` starts at
    /// its opening quote), with the top-level trailing-input check.
    fn document(input: &str) -> Result<String, String> {
        assert!(input.starts_with('"'));
        let mut p = Reference {
            bytes: input.as_bytes(),
            pos: 1,
        };
        let out = p.string()?;
        while matches!(p.bytes.get(p.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            p.pos += 1;
        }
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
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
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err("lone leading surrogate".into());
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err("lone leading surrogate".into());
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or(format!("bad codepoint {cp:#x}"))?);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(slice).map_err(|_| "bad \\u escape")?;
        if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad \\u escape `{s}`"));
        }
        self.pos = end;
        Ok(u32::from_str_radix(s, 16).unwrap())
    }
}

/// The encoder's string writer as it stood: one `push` per `char`.
fn reference_encode(s: &str) -> String {
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Both parsers on one string-literal document, and — when it decodes —
/// both encoders on the value.
fn check_against_reference(doc: &str) -> Result<(), String> {
    let got = serde_json::from_str::<String>(doc).map_err(|e| e.to_string());
    let want = Reference::document(doc);
    if got != want {
        return Err(format!("{doc:?}: parser {got:?}, reference {want:?}"));
    }
    if let Ok(value) = got {
        let encoded = serde_json::to_string(&value).unwrap();
        if encoded != reference_encode(&value) {
            return Err(format!("{value:?}: encoder wrote {encoded:?}"));
        }
        if serde_json::from_str::<String>(&encoded).as_ref() != Ok(&value) {
            return Err(format!("{value:?}: {encoded:?} does not decode back"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// (a) Parser and encoder against the reference
// ---------------------------------------------------------------------

/// One piece of a string body. Pieces are concatenated with nothing
/// between them, so multi-byte scalars land directly beside quotes and
/// backslashes and escapes land at either end of an unescaped run.
fn fragment(kind: u8, a: u32, b: u32) -> String {
    let scalar = |lo: u32, hi: u32| char::from_u32(lo + a % (hi - lo)).unwrap().to_string();
    match kind {
        // Unescaped ASCII run, raw control characters included (the
        // parser has always let them through).
        0 => (0..a % 12)
            .map(|i| match (b.wrapping_add(i * 7) % 0x7F) as u8 {
                b'"' | b'\\' => 'x',
                c => c as char,
            })
            .collect(),
        1 => scalar(0x80, 0x800),
        2 => scalar(0x800, 0xD800),
        3 => scalar(0xE000, 0x1_0000),
        4 => scalar(0x1_0000, 0x11_0000),
        5 => ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"][a as usize % 8].into(),
        // Any `\uXXXX`, either hex case: scalars, NUL, and lone
        // surrogates of both halves.
        6 if b & 1 == 0 => format!("\\u{:04x}", a % 0x1_0000),
        6 => format!("\\u{:04X}", a % 0x1_0000),
        // A well-formed surrogate pair.
        7 => format!("\\u{:04x}\\u{:04x}", 0xD800 + a % 0x400, 0xDC00 + b % 0x400),
        // A leading surrogate followed by an escape that is no low half.
        8 => format!("\\u{:04x}\\u{:04x}", 0xD800 + a % 0x400, b % 0xDC00),
        // Malformed pieces.
        _ => [
            "\\ud83d",
            "\\ud83d\\n",
            "\\u+041",
            "\\u-041",
            "\\u12",
            "\\u12\u{e9}",
            "\\u123\u{e9}",
            "\\u00g0",
            "\\x",
            "\\\u{e9}",
            "\\",
            "\"",
            "\" ",
        ][a as usize % 13]
            .into(),
    }
}

fn body_strategy() -> impl Strategy<Value = String> {
    pvec((0..10u8, any::<u32>(), any::<u32>()), 0..16).prop_map(|pieces| {
        pieces
            .into_iter()
            .map(|(kind, a, b)| fragment(kind, a, b))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn string_decode_and_encode_match_the_per_character_reference(
        body in body_strategy(),
        terminated in 0..8u8,
    ) {
        let close = if terminated == 0 { "" } else { "\"" };
        let doc = format!("\"{body}{close}");
        let checked = check_against_reference(&doc);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// Every ordered triple from a small alphabet of awkward pieces: each
/// escape kind and each scalar width at the first, middle and last
/// position of a run, deterministically rather than by luck.
#[test]
fn every_triple_of_awkward_pieces_matches_the_reference() {
    let pieces = [
        "",
        "a",
        "run of ascii",
        "\u{e9}",
        "\u{2205}",
        "\u{1f600}",
        "\\\"",
        "\\\\",
        "\\n",
        "\\u00e9",
        "\\u0000",
        "\\ud83d\\ude00",
        "\\ud83d\\u0041",
        "\\ud83d",
        "\\ude00",
        "\\u+041",
        "\\u12",
        "\\q",
        "\"",
    ];
    for a in pieces {
        for b in pieces {
            for c in pieces {
                for close in ["\"", ""] {
                    check_against_reference(&format!("\"{a}{b}{c}{close}")).unwrap();
                }
            }
        }
    }
}

/// The three inputs that used to panic, mis-decode or abort. Tier-1 runs
/// this in a debug build (where the surrogate arithmetic overflowed); the
/// CI chaos job runs it again in release.
#[test]
fn the_three_bug_inputs_are_errors() {
    let err = |doc: &str| serde_json::from_str::<String>(doc).unwrap_err().to_string();
    assert_eq!(err(r#""\ud83d\u0041""#), "lone leading surrogate");
    assert_eq!(err(r#""\u+041""#), "bad \\u escape `+041`");
    let deep = "[".repeat(200_000);
    let e = serde_json::from_str::<Vec<u8>>(&deep).unwrap_err();
    assert_eq!(e.to_string(), "recursion limit exceeded");
    // 128 levels are still a document; the limit is not off by a mile.
    let nested = "[".repeat(128) + &"]".repeat(128);
    let e = serde_json::from_str::<Vec<u8>>(&nested)
        .unwrap_err()
        .to_string();
    assert_ne!(e, "recursion limit exceeded", "{e}");
}

// ---------------------------------------------------------------------
// Wire documents
// ---------------------------------------------------------------------

fn rows(n: usize) -> Vec<NetworkState> {
    let values = [
        Value::text("7.7"),
        Value::text("quote\" back\\ tab\t nl\n nul\u{0} \u{e9} \u{2205} \u{1f600}"),
        Value::Int(-42),
        Value::Float(0.1),
        Value::Bool(true),
        Value::None,
        Value::power(false),
    ];
    (0..n)
        .map(|i| {
            NetworkState::new(
                EntityName::device("dc1", format!("agg-{}-{i}", i % 7)),
                Attribute::DeviceFirmwareVersion,
                values[i % values.len()].clone(),
                SimTime::ZERO,
                AppId::new(format!("app-{}", i % 3)),
            )
        })
        .collect()
}

fn delta() -> StateDelta {
    let upserts = rows(9);
    let deletes = rows(12)[9..].iter().map(NetworkState::key).collect();
    StateDelta::incremental(upserts, deletes, Version(77))
}

fn wal_event() -> WalEvent {
    WalEvent::Accept {
        slot: 12,
        ballot: Ballot {
            n: 3,
            id: ReplicaId(1),
        },
        cmd: LogCommand::Tagged {
            id: 99,
            inner: Box::new(LogCommand::WriteBatch {
                pool: Pool::Proposed(AppId::new("te")),
                rows: rows(8).into(),
            }),
        },
    }
}

/// The wire documents, each with its typed decoder erased to "bytes in,
/// re-encoded text out" so one sweep drives all three.
type Decode = fn(&[u8]) -> Result<String, serde_json::Error>;

fn wire_documents() -> Vec<(String, Decode)> {
    vec![
        (serde_json::to_string(&rows(12)).unwrap(), |bytes| {
            serde_json::from_slice::<Vec<NetworkState>>(bytes)
                .map(|v| serde_json::to_string(&v).unwrap())
        }),
        (serde_json::to_string(&delta()).unwrap(), |bytes| {
            serde_json::from_slice::<StateDelta>(bytes).map(|v| serde_json::to_string(&v).unwrap())
        }),
        (serde_json::to_string(&wal_event()).unwrap(), |bytes| {
            serde_json::from_slice::<WalEvent>(bytes).map(|v| serde_json::to_string(&v).unwrap())
        }),
    ]
}

// ---------------------------------------------------------------------
// (e) Round trip
// ---------------------------------------------------------------------

#[test]
fn wire_documents_round_trip_byte_identical() {
    for (doc, decode) in wire_documents() {
        assert_eq!(decode(doc.as_bytes()).unwrap(), doc);
    }
}

// ---------------------------------------------------------------------
// (b) The one UTF-8 validation
// ---------------------------------------------------------------------

/// The parser no longer looks at UTF-8 validity at all; `from_slice`'s
/// whole-input check is the only one, so it must catch a bad byte at
/// every position — between tokens, inside a key, and in the middle of a
/// string run the parser would now copy without inspecting.
#[test]
fn from_slice_rejects_invalid_utf8_anywhere() {
    for (doc, decode) in wire_documents() {
        for at in 0..doc.len() {
            let mut bytes = doc.clone().into_bytes();
            bytes[at] = 0xFF;
            let err = decode(&bytes).unwrap_err().to_string();
            assert!(err.starts_with("invalid UTF-8"), "byte {at}: {err}");
        }
    }
    // A scalar cut short by the closing quote, and an overlong encoding.
    for bad in [&b"\"ab\xe2\x88\""[..], b"\"\xc0\xaf\"", b"\"\xed\xa0\x80\""] {
        let err = serde_json::from_slice::<String>(bad)
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("invalid UTF-8"), "{bad:?}: {err}");
    }
}

// ---------------------------------------------------------------------
// (c) No-panic sweep
// ---------------------------------------------------------------------

/// `cases` seeded inputs through `from_slice`: random bytes weighted
/// towards JSON's own alphabet, and single-byte mutations and truncations
/// of the wire documents. Passing means returning — `Ok` or `Err` — from
/// every one; a panic anywhere fails the test. Truncations must also be
/// errors, since a strict prefix of an array or object is never JSON.
fn no_panic_sweep(cases: usize) {
    const ALPHABET: &[u8] =
        b"[]{}\",:\\u0123456789abcdefDd-+.eE tnrl\xc3\xa9\xf0\x9f\x98\x80\xff\x00";
    let docs = wire_documents();
    let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
    for case in 0..cases {
        let (doc, decode) = &docs[case % docs.len()];
        match rng.gen_range(0..4u8) {
            0 => {
                let len = rng.gen_range(0..48usize);
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.8) {
                            ALPHABET[rng.gen_range(0..ALPHABET.len())]
                        } else {
                            rng.gen_range(0..=255u8)
                        }
                    })
                    .collect();
                let _ = decode(&bytes);
            }
            1 => {
                let cut = rng.gen_range(0..doc.len());
                assert!(
                    decode(&doc.as_bytes()[..cut]).is_err(),
                    "prefix {cut} of {doc}"
                );
            }
            _ => {
                let mut bytes = doc.clone().into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = if rng.gen_bool(0.7) {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                } else {
                    rng.gen_range(0..=255u8)
                };
                let _ = decode(&bytes);
            }
        }
    }
}

#[test]
fn ten_thousand_hostile_inputs_never_panic() {
    no_panic_sweep(10_000);
}

/// The long sweep; CI's chaos job runs it in release with
/// `--include-ignored`.
#[test]
#[ignore = "1M cases; run in release with --include-ignored"]
fn a_million_hostile_inputs_never_panic() {
    no_panic_sweep(1_000_000);
}

// ---------------------------------------------------------------------
// (d) Scaling guard
// ---------------------------------------------------------------------

/// An 8 MB string-heavy document decodes in under 5 s even in a debug
/// build. One pass is tens of milliseconds; the per-character re-scan it
/// replaced was hours at this size, so no host noise can flip the result.
#[test]
fn decode_time_is_linear_in_the_input() {
    let piece = "state \u{2205} \"quoted\" \\ path/with/slashes \u{1f600} ".repeat(24);
    let strings: Vec<String> = (0..8 << 10).map(|i| format!("{i}:{piece}")).collect();
    let doc = serde_json::to_string(&strings).unwrap();
    assert!(doc.len() >= 8 << 20, "{} bytes", doc.len());
    let started = std::time::Instant::now();
    let back: Vec<String> = serde_json::from_slice(doc.as_bytes()).unwrap();
    let took = started.elapsed();
    assert_eq!(back, strings);
    assert!(took.as_secs() < 5, "8 MB took {took:?}");
}
