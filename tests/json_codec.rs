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
//! * encode → decode → encode is byte-identical on wire documents;
//! * the streaming writer (`to_string`) and the tree walk
//!   (`to_string_via_content`) agree byte for byte and error for error:
//!   on every wire document and on seeded wire, WAL, snapshot and HTTP
//!   reply values full of awkward strings and numbers.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_httpapi::{ApiErrorBody, HealthResponse, StatusResponse};
use statesman_obs::{RoundTrace, Stage, StatusBoard};
use statesman_storage::bus::ReplicaId;
use statesman_storage::paxos::Ballot;
use statesman_storage::snapshot::SnapshotWire;
use statesman_storage::wal::WalEvent;
use statesman_storage::{LogCommand, StateMachine};
use statesman_types::{
    AppId, Attribute, ControlPlaneMode, DeviceName, EntityName, FlowLinkRule, LinkName,
    LockPriority, LockRecord, NetworkState, OperStatus, Pool, PowerStatus, SimTime, StateDelta,
    StateError, StateKey, Value, Version, WriteOutcome, WriteReceipt,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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

// ---------------------------------------------------------------------
// (f) Streaming writer against the tree walk
// ---------------------------------------------------------------------

/// `to_string` (the derive's field-by-field writer) against
/// `to_string_via_content` (lower to a `Content` tree, then write it):
/// the same bytes, or the same error.
macro_rules! same_as_tree {
    ($what:expr, $value:expr $(,)?) => {{
        let value = &$value;
        let stream = serde_json::to_string(value);
        let tree = serde_json::to_string_via_content(value);
        if stream == tree {
            Ok::<(), String>(())
        } else {
            Err(format!("{}: stream {stream:?}\ntree   {tree:?}", $what))
        }
    }};
}

#[test]
fn streaming_writer_matches_the_tree_on_every_wire_document() {
    for n in 0..=12 {
        same_as_tree!("rows", &rows(n)).unwrap();
    }
    same_as_tree!("delta", &delta()).unwrap();
    same_as_tree!("wal_event", &wal_event()).unwrap();
    let values = [
        serde_json::to_string_via_content(&rows(12)).unwrap(),
        serde_json::to_string_via_content(&delta()).unwrap(),
        serde_json::to_string_via_content(&wal_event()).unwrap(),
    ];
    for ((doc, _), tree) in wire_documents().iter().zip(values) {
        assert_eq!(doc, &tree);
    }
}

#[test]
fn a_non_string_map_key_is_the_same_error_on_both_paths() {
    let err = |r: Result<String, serde_json::Error>| r.unwrap_err().to_string();
    let ints = HashMap::from([(7u32, "x")]);
    let versions = BTreeMap::from([(Version(3), 1u8)]);
    let pools = HashMap::from([(Pool::Proposed(AppId::new("te")), 2u8)]);
    let tuples = BTreeMap::from([((1u8, 'k'), 0.5f64)]);
    for (what, stream, tree) in [
        (
            "u32",
            serde_json::to_string(&ints),
            serde_json::to_string_via_content(&ints),
        ),
        (
            "newtype",
            serde_json::to_string(&versions),
            serde_json::to_string_via_content(&versions),
        ),
        (
            "enum",
            serde_json::to_string(&pools),
            serde_json::to_string_via_content(&pools),
        ),
        (
            "tuple",
            serde_json::to_string(&tuples),
            serde_json::to_string_via_content(&tuples),
        ),
    ] {
        let (stream, tree) = (err(stream), err(tree));
        assert!(
            stream.starts_with("JSON object keys must be strings, got "),
            "{what}: {stream}"
        );
        assert_eq!(stream, tree, "{what}");
    }
    // String-like keys stream through the key writer: a transparent
    // newtype over `Arc<str>`, a unit variant, a char.
    let apps = BTreeMap::from([
        (AppId::new("a\"\u{1}\u{e9}"), vec![1u8]),
        (AppId::new(""), vec![]),
    ]);
    same_as_tree!("transparent key", &apps).unwrap();
    let attrs = BTreeMap::from([(Attribute::DeviceFirmwareVersion, ())]);
    same_as_tree!("unit-variant key", &attrs).unwrap();
    same_as_tree!("unit-variant key", &HashMap::from([(Pool::Target, 1u8)])).unwrap();
    same_as_tree!(
        "char key",
        &BTreeMap::from([('\u{7f}', 'q'), ('\n', '\u{1f600}')])
    )
    .unwrap();
}

/// Seeded builders of wire, WAL, snapshot and HTTP reply values whose
/// strings and numbers are the awkward ones: escapes, control bytes,
/// every UTF-8 width, NaN, ±inf, −0.0, subnormals, 1e300, the integer
/// extremes, and empty collections.
struct Gen(StdRng);

impl Gen {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.0.gen_range(0..from.len())]
    }

    fn text(&mut self) -> String {
        const PIECES: &[&str] = &[
            "",
            "agg-1",
            "\"",
            "\\",
            "\n\r\t",
            "\u{8}\u{c}",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "\u{e9}",
            "\u{2205}",
            "\u{1f600}",
            "/",
            "\\u0041",
        ];
        let n = self.0.gen_range(0..5);
        (0..n)
            .map(|_| match self.0.gen_range(0..4) {
                0 => char::from(self.0.gen_range(0..0x80u8)).to_string(),
                1 => char::from_u32(self.0.gen_range(0x80..0x11_0000))
                    .unwrap_or('\u{fffd}')
                    .to_string(),
                _ => self.pick(PIECES).to_string(),
            })
            .collect()
    }

    fn float(&mut self) -> f64 {
        const SPECIAL: &[f64] = &[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1e300,
            -1e300,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1,
            1234567.0,
        ];
        match self.0.gen_range(0..3) {
            0 => self.pick(SPECIAL),
            1 => f64::from_bits(self.0.gen()),
            _ => self.0.gen_range(-1e6..1e6),
        }
    }

    fn int(&mut self) -> i64 {
        match self.0.gen_range(0..4) {
            0 => self.pick(&[i64::MIN, i64::MAX, 0, -1, 1]),
            1 => self.0.gen(),
            _ => self.0.gen_range(-1000..1000),
        }
    }

    fn uint(&mut self) -> u64 {
        match self.0.gen_range(0..3) {
            0 => self.pick(&[u64::MAX, 0, i64::MAX as u64, i64::MAX as u64 + 1]),
            1 => self.0.gen(),
            _ => self.0.gen_range(0..1000),
        }
    }

    fn len(&mut self) -> usize {
        self.0.gen_range(0..4)
    }

    fn app(&mut self) -> AppId {
        AppId::new(self.text())
    }

    fn device(&mut self) -> DeviceName {
        DeviceName::new(self.text())
    }

    fn entity(&mut self) -> EntityName {
        let dc = self.text();
        match self.0.gen_range(0..3) {
            0 => EntityName::device(dc, self.device()),
            1 => EntityName::link(dc, self.device(), self.device()),
            _ => EntityName::path(dc, self.text()),
        }
    }

    fn attribute(&mut self) -> Attribute {
        let all = Attribute::catalogue();
        all[self.0.gen_range(0..all.len())]
    }

    fn time(&mut self) -> SimTime {
        SimTime(self.uint())
    }

    fn value(&mut self) -> Value {
        match self.0.gen_range(0..11) {
            0 => Value::None,
            1 => Value::Bool(self.0.gen()),
            2 => Value::Int(self.int()),
            3 => Value::Float(self.float()),
            4 => Value::Text(self.text()),
            5 => Value::Power(self.pick(&[PowerStatus::On, PowerStatus::Off])),
            6 => Value::Oper(self.pick(&[OperStatus::Up, OperStatus::Down])),
            7 => {
                Value::ControlPlane(self.pick(&[ControlPlaneMode::OpenFlow, ControlPlaneMode::Bgp]))
            }
            8 => Value::Routes(
                (0..self.len())
                    .map(|_| FlowLinkRule {
                        flow: self.text(),
                        out_link: LinkName::between(self.device(), self.device()),
                        weight: self.float(),
                    })
                    .collect(),
            ),
            9 => Value::DeviceList((0..self.len()).map(|_| self.device()).collect()),
            _ => {
                let priority = self.pick(&[LockPriority::Low, LockPriority::High]);
                let expires = self.0.gen::<bool>().then(|| self.time());
                Value::Lock(LockRecord::new(self.app(), priority, self.time(), expires))
            }
        }
    }

    fn row(&mut self) -> NetworkState {
        let mut row = NetworkState::new(
            self.entity(),
            self.attribute(),
            self.value(),
            self.time(),
            self.app(),
        );
        row.version = Version(self.uint());
        row
    }

    fn rows(&mut self) -> Vec<NetworkState> {
        (0..self.len()).map(|_| self.row()).collect()
    }

    fn key(&mut self) -> StateKey {
        StateKey::new(self.entity(), self.attribute())
    }

    fn pool(&mut self) -> Pool {
        match self.0.gen_range(0..3) {
            0 => Pool::Observed,
            1 => Pool::Target,
            _ => Pool::Proposed(self.app()),
        }
    }

    fn receipt(&mut self) -> WriteReceipt {
        let outcome = match self.0.gen_range(0..6) {
            0 => WriteOutcome::Accepted,
            1 => WriteOutcome::AlreadySatisfied,
            2 => WriteOutcome::RejectedUncontrollable {
                reason: self.text(),
            },
            3 => WriteOutcome::RejectedConflict {
                winner: self.app(),
                reason: self.text(),
            },
            4 => WriteOutcome::RejectedInvariant {
                invariant: self.text(),
                reason: self.text(),
            },
            _ => WriteOutcome::RejectedInvalid {
                reason: self.text(),
            },
        };
        WriteReceipt {
            app: self.app(),
            key: self.key(),
            proposed: self.value(),
            outcome,
            decided_at: self.time(),
        }
    }

    fn ballot(&mut self) -> Ballot {
        Ballot {
            n: self.uint(),
            id: ReplicaId(self.0.gen_range(0..=u8::MAX)),
        }
    }

    /// Every `LogCommand` variant; `Tagged` nests one level.
    fn command(&mut self, nest: bool) -> LogCommand {
        match self.0.gen_range(0..if nest { 7 } else { 6 }) {
            0 => LogCommand::WriteBatch {
                pool: self.pool(),
                rows: Arc::new(self.rows()),
            },
            1 => LogCommand::DeleteBatch {
                pool: self.pool(),
                keys: (0..self.len()).map(|_| self.key()).collect(),
            },
            2 => LogCommand::BulkBatch {
                pool: self.pool(),
                rows: Arc::new(self.rows()),
            },
            3 => LogCommand::PostReceipts {
                receipts: (0..self.len()).map(|_| self.receipt()).collect(),
            },
            4 => LogCommand::Noop,
            5 => LogCommand::AckReceipts {
                app: self.app(),
                through: self.uint(),
            },
            _ => LogCommand::Tagged {
                id: self.uint(),
                inner: Box::new(self.command(false)),
            },
        }
    }

    /// Every `WalEvent` variant.
    fn event(&mut self) -> WalEvent {
        match self.0.gen_range(0..3) {
            0 => WalEvent::Promise {
                ballot: self.ballot(),
            },
            1 => WalEvent::Accept {
                slot: self.uint(),
                ballot: self.ballot(),
                cmd: self.command(true),
            },
            _ => WalEvent::Commit {
                slot: self.uint(),
                cmd: self.command(true),
            },
        }
    }

    /// A snapshot image whose machine holds rows, a change index and a
    /// receipt queue with both acknowledged and pending receipts.
    fn snapshot(&mut self) -> SnapshotWire {
        let mut machine = StateMachine::new();
        let app = self.app();
        let receipts: Vec<WriteReceipt> = (0..2 + self.len())
            .map(|_| WriteReceipt {
                app: app.clone(),
                ..self.receipt()
            })
            .collect();
        machine.apply(&LogCommand::PostReceipts { receipts });
        machine.apply(&LogCommand::AckReceipts {
            app,
            through: self.0.gen_range(0..2),
        });
        let pool = self.pool();
        let rows = self.rows();
        machine.apply(&LogCommand::WriteBatch {
            pool,
            rows: Arc::new(rows),
        });
        SnapshotWire {
            frontier: self.uint(),
            promised: self.ballot(),
            machine: machine.to_snapshot(),
        }
    }

    fn stage(&mut self, depth: u32) -> Stage {
        Stage {
            name: self.text(),
            ms: self.float(),
            children: if depth == 0 {
                Vec::new()
            } else {
                (0..self.len()).map(|_| self.stage(depth - 1)).collect()
            },
        }
    }

    fn status(&mut self) -> StatusResponse {
        let texts = |g: &mut Gen| (0..g.len()).map(|_| g.text()).collect::<Vec<_>>();
        StatusResponse {
            status: StatusBoard {
                quarantined: texts(self),
                breakers_open: texts(self),
                degraded_partitions: texts(self),
                last_round: self.0.gen::<bool>().then(|| self.uint()),
                interned_entities: self.uint(),
                ..StatusBoard::default()
            },
            traces: (0..self.len())
                .map(|_| RoundTrace {
                    round: self.uint(),
                    stages: self.stage(2),
                    quarantined: texts(self),
                    degraded: self.0.gen(),
                    ..RoundTrace::default()
                })
                .collect(),
        }
    }

    fn error(&mut self) -> ApiErrorBody {
        let source = match self.0.gen_range(0..4) {
            0 => StateError::NotFound {
                key: self.key(),
                pool: self.pool(),
            },
            1 => StateError::UnroutableEntity {
                entity: self.entity(),
            },
            2 => StateError::Overloaded {
                retry_after_ms: self.uint(),
            },
            _ => StateError::invalid(self.text()),
        };
        ApiErrorBody {
            code: self.text(),
            message: self.text(),
            retryable: self.0.gen(),
            source,
        }
    }
}

/// One case: one value of every type the durable log and the HTTP API
/// write, each through both paths.
fn streaming_case(seed: u64) -> Result<(), String> {
    let mut g = Gen(StdRng::seed_from_u64(seed));
    same_as_tree!("value", &g.value())?;
    same_as_tree!("row", &g.row())?;
    same_as_tree!("event", &g.event())?;
    same_as_tree!("command", &g.command(true))?;
    same_as_tree!("snapshot", &g.snapshot())?;
    // The HTTP replies: read, read_since, receipts, health, status, error.
    same_as_tree!("read reply", &g.rows())?;
    let upserts = g.rows();
    let deletes = (0..g.len()).map(|_| g.key()).collect();
    let watermark = Version(g.uint());
    same_as_tree!(
        "read_since reply",
        &StateDelta::incremental(upserts, deletes, watermark),
    )?;
    let receipts: Vec<WriteReceipt> = (0..g.len()).map(|_| g.receipt()).collect();
    same_as_tree!("receipts reply", &receipts)?;
    let health = HealthResponse {
        ok: g.0.gen(),
        now_ms: g.uint(),
    };
    same_as_tree!("health reply", &health)?;
    same_as_tree!("status reply", &g.status())?;
    same_as_tree!("error reply", &g.error())?;
    let floats: Vec<f64> = (0..g.len()).map(|_| g.float()).collect();
    same_as_tree!("floats", &(floats, g.int(), g.uint(), g.0.gen::<f32>()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn streaming_writer_matches_the_tree_on_seeded_values(seed in any::<u64>()) {
        let checked = streaming_case(seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000_000))]

    /// The long sweep; CI's JSON codec step runs it in release with
    /// `--include-ignored`.
    #[test]
    #[ignore = "1M cases; run in release with --include-ignored"]
    fn streaming_writer_matches_the_tree_on_a_million_seeded_values(seed in any::<u64>()) {
        let checked = streaming_case(seed);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
