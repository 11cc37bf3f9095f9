//! A deliberately small HTTP/1.1 codec: request-line + headers +
//! `Content-Length` bodies, parsed **incrementally** from a byte buffer
//! so the server's reactor can feed connections nonblockingly and only
//! hand complete requests to the worker pool.
//!
//! Query values are percent-encoded because entity wire names contain
//! `/` and `~` (e.g. `dc1/link/agg-1-1~tor-1-1`).

use bytes::{BufMut, BytesMut};
use statesman_types::{StateError, StateResult};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/v1/read`.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    /// Request headers, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A query parameter, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(|s| s.as_str())
    }

    /// A required query parameter, or a protocol error naming it.
    pub fn require(&self, key: &str) -> StateResult<&str> {
        self.param(key)
            .ok_or_else(|| StateError::protocol(format!("missing query parameter {key}")))
    }

    /// A request header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for this connection to close after the
    /// response (`connection: close`). HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }

    /// The application identity the request rides under, if the client
    /// stamped one (`x-statesman-app`); used for per-app fairness.
    pub fn app_label(&self) -> &str {
        self.header("x-statesman-app").unwrap_or("")
    }
}

/// Size limits the incremental parser enforces. Violations map to
/// distinct HTTP statuses (431 for headers, 413 for bodies) so a client
/// can tell "shrink your header block" from "shrink your payload".
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes of request-line + headers (terminator included).
    pub max_header_bytes: usize,
    /// Maximum accepted `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            // Generous for a query-string API; a legitimate request head
            // is a few hundred bytes.
            max_header_bytes: 16 << 10,
            // A monitor round for a large DC is a few MB of JSON; anything
            // beyond 64 MB is abuse, not a workload.
            max_body_bytes: 64 << 20,
        }
    }
}

/// Why a buffered byte sequence cannot become a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The header block exceeded [`HttpLimits::max_header_bytes`] without
    /// terminating (answer 431).
    HeadersTooLarge,
    /// The declared `Content-Length` exceeded
    /// [`HttpLimits::max_body_bytes`] (answer 413).
    BodyTooLarge,
    /// The bytes that did arrive are not HTTP (answer 400).
    Malformed(StateError),
}

/// The parsed head of an in-flight request: everything but the body,
/// plus how many bytes the head consumed and how many the body needs.
/// Cached by the connection so completeness checks after the head has
/// parsed are O(1) instead of re-scanning the buffer.
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Parsed request minus the body.
    pub request: HttpRequest,
    /// Bytes of the buffer the head consumed (terminator included).
    pub head_len: usize,
    /// Declared `Content-Length`.
    pub content_length: usize,
}

impl RequestHead {
    /// Total buffered bytes needed for the full request.
    pub fn total_len(&self) -> usize {
        self.head_len + self.content_length
    }
}

/// Locate the end of the header block: byte length through the
/// `\r\n\r\n` (or bare `\n\n`) terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // "\n\r\n" or "\n\n" both end the block.
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Try to parse a request head out of `buf`. `Ok(None)` means the head
/// is still incomplete — read more bytes and try again.
pub fn parse_head(buf: &[u8], limits: &HttpLimits) -> Result<Option<RequestHead>, RequestError> {
    let Some(head_len) = find_head_end(buf) else {
        if buf.len() > limits.max_header_bytes {
            return Err(RequestError::HeadersTooLarge);
        }
        return Ok(None);
    };
    if head_len > limits.max_header_bytes {
        return Err(RequestError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| RequestError::Malformed(StateError::protocol("request head is not UTF-8")))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let line = lines
        .next()
        .ok_or_else(|| RequestError::Malformed(StateError::protocol("empty request line")))?;
    let mut parts = line.split_whitespace();
    let malformed = |what: &str| RequestError::Malformed(StateError::protocol(what.to_string()));
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(StateError::protocol(format!(
            "unsupported version {version}"
        ))));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            parse_query(q).map_err(RequestError::Malformed)?,
        ),
        None => (target.to_string(), BTreeMap::new()),
    };
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for h in lines {
        if h.is_empty() {
            continue;
        }
        if let Some((name, value)) = h.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    RequestError::Malformed(StateError::protocol("bad content-length"))
                })?;
            }
            headers.push((name, value));
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(RequestError::BodyTooLarge);
    }
    Ok(Some(RequestHead {
        request: HttpRequest {
            method: method.to_string(),
            path,
            query,
            headers,
            body: Vec::new(),
        },
        head_len,
        content_length,
    }))
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Body bytes (JSON for API responses).
    pub body: Vec<u8>,
    /// Content type.
    pub content_type: &'static str,
    /// Extra response headers (name, value) beyond the standard set.
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    fn new(status: u16, reason: &'static str, body: Vec<u8>, content_type: &'static str) -> Self {
        HttpResponse {
            status,
            reason,
            body,
            content_type,
            headers: Vec::new(),
        }
    }

    /// 200 with a JSON body.
    pub fn ok_json(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse::new(200, "OK", body.into(), "application/json")
    }

    /// 200 with a plain-text body (the Prometheus-style metrics export).
    pub fn ok_text(body: impl Into<Vec<u8>>) -> Self {
        HttpResponse::new(200, "OK", body.into(), "text/plain")
    }

    /// 204 (accepted writes).
    pub fn no_content() -> Self {
        HttpResponse::new(204, "No Content", Vec::new(), "text/plain")
    }

    /// 408 (the connection idled past the server's read timeout before a
    /// full request arrived — half-open sockets and slow-loris clients).
    pub fn request_timeout(msg: impl Into<String>) -> Self {
        HttpResponse::new(
            408,
            "Request Timeout",
            msg.into().into_bytes(),
            "text/plain",
        )
    }

    /// 404.
    pub fn not_found() -> Self {
        HttpResponse::new(404, "Not Found", b"no such endpoint".to_vec(), "text/plain")
    }

    /// 405: the path exists but not under this verb. `allow` lists the
    /// verbs that do work, per RFC 9110 §15.5.6.
    pub fn method_not_allowed(allow: &str) -> Self {
        HttpResponse::new(
            405,
            "Method Not Allowed",
            b"method not allowed on this path".to_vec(),
            "text/plain",
        )
        .with_header("allow", allow)
    }

    /// 503 (storage unavailable).
    pub fn unavailable(msg: impl Into<String>) -> Self {
        HttpResponse::new(
            503,
            "Service Unavailable",
            msg.into().into_bytes(),
            "text/plain",
        )
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize onto the wire. `keep_alive` chooses the `connection`
    /// header; pass `false` when the server will close after this
    /// response (shutdown, errors, budget exhausted, client asked).
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let mut buf = BytesMut::with_capacity(160 + self.body.len());
        buf.put_slice(
            format!(
                "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
                self.status,
                self.reason,
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            buf.put_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        buf.put_slice(b"\r\n");
        buf.put_slice(&self.body);
        stream.write_all(&buf)
    }
}

/// Percent-encode a query value (RFC 3986 unreserved set passes through).
pub fn encode_component(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'*' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Percent-decode a query value.
pub fn decode_component(s: &str) -> StateResult<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                if i + 2 > bytes.len() {
                    return Err(StateError::protocol("truncated percent escape"));
                }
                let hex = s
                    .get(i + 1..i + 3)
                    .ok_or_else(|| StateError::protocol("truncated percent escape"))?;
                let v = u8::from_str_radix(hex, 16)
                    .map_err(|_| StateError::protocol(format!("bad percent escape %{hex}")))?;
                out.push(v);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| StateError::protocol("query is not UTF-8"))
}

/// Parse the query string into decoded key/value pairs.
fn parse_query(q: &str) -> StateResult<BTreeMap<String, String>> {
    let mut map = BTreeMap::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        map.insert(decode_component(k)?, decode_component(v)?);
    }
    Ok(map)
}

/// Body-size cap for client-side response reads.
const MAX_BODY: usize = 64 << 20;

/// Read one response from a connection (client side, `connection: close`
/// style sockets). Returns (status, body).
pub fn read_response(stream: &mut TcpStream) -> StateResult<(u16, Vec<u8>)> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let r = read_response_buffered(&mut reader)?;
    Ok((r.status, r.body))
}

/// A raw HTTP response: status code, lowercased (name, value) header
/// pairs, and the body bytes. The v1.1 response-header contract rides
/// here uniformly: [`RawResponse::watermark`], [`RawResponse::cursor`],
/// [`RawResponse::retry_after`], and [`RawResponse::server_version`]
/// expose the standard `x-statesman-*`/`retry-after` headers without
/// callers grepping the header list.
#[derive(Debug, Clone, PartialEq)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// A response header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The `x-statesman-watermark` header (delta and pool reads).
    pub fn watermark(&self) -> Option<u64> {
        self.header(crate::server::WATERMARK_HEADER)?.parse().ok()
    }

    /// The `x-statesman-cursor` header (receipt pagination).
    pub fn cursor(&self) -> Option<u64> {
        self.header(crate::server::CURSOR_HEADER)?.parse().ok()
    }

    /// The `retry-after` header in seconds (429 sheds and every
    /// retryable error).
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after")?.parse().ok()
    }

    /// The `x-statesman-server` version header (every response).
    pub fn server_version(&self) -> Option<&str> {
        self.header(crate::server::SERVER_HEADER)
    }

    /// Whether the server will close the connection after this response.
    pub fn connection_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Read one response including its headers from a buffered stream
/// (client side). Header names are lowercased; values are trimmed. The
/// reader persists across calls so keep-alive connections can pull many
/// responses without losing buffered bytes.
pub fn read_response_buffered(reader: &mut BufReader<TcpStream>) -> StateResult<RawResponse> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let _version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| StateError::protocol("bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        let n = reader.read_line(&mut h)?;
        if n == 0 {
            break;
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().unwrap_or(0);
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length.min(MAX_BODY)];
    if !body.is_empty() {
        reader.read_exact(&mut body)?;
    }
    Ok(RawResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, RequestError> {
        let limits = HttpLimits::default();
        match parse_head(buf, &limits)? {
            None => Ok(None),
            Some(head) => {
                if buf.len() < head.total_len() {
                    return Ok(None);
                }
                let total = head.total_len();
                let mut req = head.request;
                req.body = buf[head.head_len..total].to_vec();
                Ok(Some((req, total)))
            }
        }
    }

    #[test]
    fn component_round_trip() {
        let cases = [
            "dc1/link/agg-1-1~tor-1-1",
            "PS:inter-dc-te",
            "plain",
            "spaces and %signs",
            "unicode-∅",
        ];
        for c in cases {
            let enc = encode_component(c);
            assert!(!enc.contains('/') || c == "plain", "{enc}");
            assert_eq!(decode_component(&enc).unwrap(), c, "{c}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_component("%zz").is_err());
        assert!(decode_component("%2").is_err());
        assert_eq!(decode_component("a+b").unwrap(), "a b");
    }

    #[test]
    fn parse_query_splits_pairs() {
        let q = parse_query("Pool=OS&Datacenter=dc1&Entity=dc1%2Fdevice%2Fagg-1-1").unwrap();
        assert_eq!(q["Pool"], "OS");
        assert_eq!(q["Entity"], "dc1/device/agg-1-1");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn incremental_parse_waits_for_full_head_then_body() {
        let wire = b"POST /v1/write?Pool=OS HTTP/1.1\r\nhost: x\r\ncontent-length: 5\r\n\r\nhello";
        // Every strict prefix short of the full request parses to None.
        for cut in [10usize, 30, wire.len() - 6, wire.len() - 1] {
            assert!(
                parse_all(&wire[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (req, consumed) = parse_all(wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/write");
        assert_eq!(req.param("Pool"), Some("OS"));
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("host"), Some("x"));
        assert!(!req.wants_close());
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let wire =
            b"GET /v1/health HTTP/1.1\r\n\r\nGET /v1/status HTTP/1.1\r\nconnection: close\r\n\r\n";
        let (first, consumed) = parse_all(wire).unwrap().unwrap();
        assert_eq!(first.path, "/v1/health");
        let (second, rest) = parse_all(&wire[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/v1/status");
        assert!(second.wants_close());
        assert_eq!(consumed + rest, wire.len());
    }

    #[test]
    fn oversized_heads_and_bodies_are_distinct_errors() {
        let mut huge_head = b"GET /v1/health HTTP/1.1\r\nx-pad: ".to_vec();
        huge_head.extend(std::iter::repeat_n(b'a', 17 << 10));
        assert_eq!(
            parse_all(&huge_head).unwrap_err(),
            RequestError::HeadersTooLarge
        );

        let huge_body = format!(
            "POST /v1/write HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            65 << 20
        );
        assert_eq!(
            parse_all(huge_body.as_bytes()).unwrap_err(),
            RequestError::BodyTooLarge
        );
    }

    #[test]
    fn malformed_requests_are_malformed() {
        assert!(matches!(
            parse_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap_err(),
            RequestError::Malformed(_)
        ));
        assert!(matches!(
            parse_all(b"GET /x SPDY/9\r\n\r\n").unwrap_err(),
            RequestError::Malformed(_)
        ));
    }

    #[test]
    fn response_serializes() {
        let r = HttpResponse::ok_json(br#"{"x":1}"#.to_vec());
        let mut buf = Vec::new();
        r.write_to(&mut buf, false).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("content-length: 7"), "{s}");
        assert!(s.contains("connection: close"), "{s}");
        assert!(s.ends_with(r#"{"x":1}"#), "{s}");

        let mut buf = Vec::new();
        r.write_to(&mut buf, true).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("connection: keep-alive"), "{s}");
    }

    #[test]
    fn request_param_helpers() {
        let mut query = BTreeMap::new();
        query.insert("Pool".to_string(), "TS".to_string());
        let req = HttpRequest {
            method: "GET".into(),
            path: "/v1/read".into(),
            query,
            headers: vec![("x-statesman-app".into(), "te-app".into())],
            body: vec![],
        };
        assert_eq!(req.param("Pool"), Some("TS"));
        assert!(req.require("Pool").is_ok());
        assert!(req.require("Freshness").is_err());
        assert_eq!(req.app_label(), "te-app");
    }

    #[test]
    fn raw_response_header_accessors() {
        let r = RawResponse {
            status: 429,
            headers: vec![
                ("retry-after".into(), "2".into()),
                ("x-statesman-server".into(), "statesman/0.1.0".into()),
                ("x-statesman-watermark".into(), "41".into()),
                ("connection".into(), "close".into()),
            ],
            body: Vec::new(),
        };
        assert_eq!(r.retry_after(), Some(2));
        assert_eq!(r.server_version(), Some("statesman/0.1.0"));
        assert_eq!(r.watermark(), Some(41));
        assert_eq!(r.cursor(), None);
        assert!(r.connection_close());
    }
}
