//! A blocking HTTP client for the v1 API.
//!
//! **Keep-alive by default**: the client holds one persistent TCP
//! connection and pipelines requests over it sequentially, reconnecting
//! transparently when a pooled connection has gone stale (the server
//! rotated it, an idle timeout closed it, or the process restarted).
//! Out-of-process applications use this client the way in-process ones
//! use `StatesmanClient` — and with [`ApiClient::with_app`] the surface
//! matches: `read_os`, `propose`, `take_receipts` work over the wire
//! with the same signatures' intent, so swapping transports is a
//! one-line change.
//!
//! Errors round-trip: a non-2xx v1 response carries the unified
//! `{code, message, retryable, source}` body, and the client hands back
//! the same typed [`StateError`] the server raised — an out-of-process
//! caller can match on `StateError::StorageUnavailable` (or a 429
//! shed's `StateError::Overloaded`) exactly like an in-process one.
//!
//! Every response surfaces the v1.1 header contract through
//! [`RawResponse`]: `x-statesman-watermark`, `x-statesman-cursor`,
//! `x-statesman-server`, and `retry-after` have typed accessors.

use crate::error::decode_error;
use crate::http::{encode_component, read_response_buffered, RawResponse};
use crate::server::{HealthResponse, WATERMARK_HEADER};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, SimTime, StateDelta,
    StateError, StateResult, Value, Version, WriteReceipt,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

/// Receipts pulled per page by the transparent pagination in
/// [`ApiClient::receipts`].
const RECEIPT_PAGE: usize = 512;

/// One pooled keep-alive connection: the write half plus a persistent
/// buffered reader (buffered bytes survive across responses).
#[derive(Debug)]
struct ClientConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    fn open(addr: SocketAddr) -> StateResult<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ClientConn { stream, reader })
    }
}

/// Client handle: the server address, an optional bound application
/// identity for the `StatesmanClient`-shaped helpers, and the pooled
/// keep-alive connection. Cloning shares the connection; requests on it
/// are serialized.
#[derive(Debug, Clone)]
pub struct ApiClient {
    addr: SocketAddr,
    app: Option<AppId>,
    conn: Arc<Mutex<Option<ClientConn>>>,
}

impl ApiClient {
    /// Point at a server.
    pub fn new(addr: SocketAddr) -> Self {
        ApiClient {
            addr,
            app: None,
            conn: Arc::new(Mutex::new(None)),
        }
    }

    /// Bind an application identity, enabling [`ApiClient::propose`] and
    /// [`ApiClient::take_receipts`] (the `StatesmanClient` ergonomics).
    /// Requests carry it as `x-statesman-app`, which the server's fair
    /// queue uses for per-app scheduling. The pooled connection is NOT
    /// shared with the unbound handle.
    pub fn with_app(mut self, app: impl Into<AppId>) -> Self {
        self.app = Some(app.into());
        self.conn = Arc::new(Mutex::new(None));
        self
    }

    /// The bound application identity, if any.
    pub fn app(&self) -> Option<&AppId> {
        self.app.as_ref()
    }

    /// Drop the pooled connection; the next request reconnects.
    pub fn close(&self) {
        *self.guard() = None;
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, Option<ClientConn>> {
        self.conn.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Write one request and read its response on the pooled connection.
    fn round_trip(
        conn: &mut ClientConn,
        method: &str,
        target: &str,
        app: Option<&AppId>,
        body: &[u8],
    ) -> StateResult<RawResponse> {
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nhost: statesman\r\ncontent-length: {}\r\n",
            body.len()
        );
        if let Some(app) = app {
            head.push_str(&format!("x-statesman-app: {}\r\n", app.as_str()));
        }
        head.push_str("\r\n");
        conn.stream.write_all(head.as_bytes())?;
        if !body.is_empty() {
            conn.stream.write_all(body)?;
        }
        read_response_buffered(&mut conn.reader)
    }

    fn request(&self, method: &str, target: &str, body: &[u8]) -> StateResult<(u16, Vec<u8>)> {
        let r = self.raw_request(method, target, body)?;
        Ok((r.status, r.body))
    }

    /// Issue one request over the pooled keep-alive connection and
    /// return the raw response. A request that fails on a **reused**
    /// connection is retried once on a fresh one (the stale-keep-alive
    /// race: the server closed between our requests); a failure on a
    /// fresh connection is the caller's error. For diagnostics, tests,
    /// and endpoints without a typed wrapper.
    pub fn raw_request(&self, method: &str, target: &str, body: &[u8]) -> StateResult<RawResponse> {
        let mut guard = self.guard();
        let reused = guard.is_some();
        if guard.is_none() {
            *guard = Some(ClientConn::open(self.addr)?);
        }
        let conn = guard.as_mut().expect("just ensured");
        let result = Self::round_trip(conn, method, target, self.app.as_ref(), body);
        let resp = match result {
            Ok(resp) => resp,
            Err(_) if reused => {
                // Stale pooled connection; reconnect once and replay.
                *guard = Some(ClientConn::open(self.addr)?);
                let conn = guard.as_mut().expect("just replaced");
                match Self::round_trip(conn, method, target, self.app.as_ref(), body) {
                    Ok(resp) => resp,
                    Err(e) => {
                        *guard = None;
                        return Err(e);
                    }
                }
            }
            Err(e) => {
                *guard = None;
                return Err(e);
            }
        };
        if resp.connection_close() {
            *guard = None;
        }
        Ok(resp)
    }

    /// On 2xx return the body; otherwise decode the unified error body
    /// back into the typed [`StateError`] the server raised.
    fn expect_2xx(&self, (status, body): (u16, Vec<u8>)) -> StateResult<Vec<u8>> {
        if (200..300).contains(&status) {
            Ok(body)
        } else {
            Err(decode_error(status, &body))
        }
    }

    /// `GET /v1/read` (Table 3a).
    pub fn read(
        &self,
        datacenter: &DatacenterId,
        pool: &Pool,
        freshness: Freshness,
        entity: Option<&EntityName>,
        attribute: Option<Attribute>,
    ) -> StateResult<Vec<NetworkState>> {
        let mut target = format!(
            "/v1/read?Datacenter={}&Pool={}&Freshness={}",
            encode_component(datacenter.as_str()),
            encode_component(&pool.wire_name()),
            encode_component(freshness.wire_name()),
        );
        if let Some(e) = entity {
            target.push_str(&format!("&Entity={}", encode_component(&e.wire_name())));
        }
        if let Some(a) = attribute {
            target.push_str(&format!("&Attribute={}", encode_component(a.wire_name())));
        }
        let body = self.expect_2xx(self.request("GET", &target, &[])?)?;
        serde_json::from_slice(&body)
            .map_err(|e| StateError::protocol(format!("bad response JSON: {e}")))
    }

    /// `GET /v1/read?since=<version>`: the changefeed read. Returns the
    /// pool's changes past `since` as a [`StateDelta`] (or a full
    /// snapshot when the change index no longer covers `since`), and
    /// verifies the body against the `x-statesman-watermark` header the
    /// server stamps on every delta reply.
    pub fn read_since(
        &self,
        datacenter: &DatacenterId,
        pool: &Pool,
        since: Version,
    ) -> StateResult<StateDelta> {
        let target = format!(
            "/v1/read?Datacenter={}&Pool={}&since={}",
            encode_component(datacenter.as_str()),
            encode_component(&pool.wire_name()),
            since.0,
        );
        let resp = self.raw_request("GET", &target, &[])?;
        if !(200..300).contains(&resp.status) {
            return Err(decode_error(resp.status, &resp.body));
        }
        let delta: StateDelta = serde_json::from_slice(&resp.body)
            .map_err(|e| StateError::protocol(format!("bad response JSON: {e}")))?;
        let header = resp
            .header(WATERMARK_HEADER)
            .ok_or_else(|| StateError::protocol("delta reply missing watermark header"))?;
        if header != delta.watermark.0.to_string() {
            return Err(StateError::protocol(format!(
                "watermark header {} disagrees with body {}",
                header, delta.watermark.0
            )));
        }
        Ok(delta)
    }

    /// Read the observed-state changes of one datacenter since a prior
    /// watermark (mirrors `StatesmanClient::read_os_since`).
    pub fn read_os_since(&self, dc: &DatacenterId, since: Version) -> StateResult<StateDelta> {
        self.read_since(dc, &Pool::Observed, since)
    }

    /// `POST /v1/write` (Table 3a): body is a JSON list of NetworkState
    /// objects.
    pub fn write(&self, pool: &Pool, rows: &[NetworkState]) -> StateResult<()> {
        let target = format!("/v1/write?Pool={}", encode_component(&pool.wire_name()));
        let body = serde_json::to_vec(rows)
            .map_err(|e| StateError::protocol(format!("serialize: {e}")))?;
        self.expect_2xx(self.request("POST", &target, &body)?)?;
        Ok(())
    }

    /// Drain an application's receipts (`GET /v1/receipts`), walking the
    /// cursor pages transparently: 512-receipt pages are pulled with
    /// `limit=`, each page is acknowledged by feeding its cursor back as
    /// `after=` with the next request, and the final empty page confirms
    /// the last ack. A crash mid-drain never loses receipts: unacked
    /// pages replay. A page is returned only once a later reply has
    /// confirmed its ack, so when a request fails the call returns the
    /// confirmed pages (and the error only if there are none). The
    /// unconfirmed page stays pending in storage, unless the failure was
    /// a lost reply to a request whose ack the server had committed.
    pub fn receipts(&self, app: &AppId) -> StateResult<Vec<WriteReceipt>> {
        let mut taken = Vec::new();
        let mut unacked = Vec::new();
        let mut after: Option<u64> = None;
        loop {
            let mut target = format!(
                "/v1/receipts?App={}&limit={RECEIPT_PAGE}",
                encode_component(app.as_str())
            );
            if let Some(c) = after {
                target.push_str(&format!("&after={c}"));
            }
            let page = self.raw_request("GET", &target, &[]).and_then(|resp| {
                if !(200..300).contains(&resp.status) {
                    return Err(decode_error(resp.status, &resp.body));
                }
                let page: Vec<WriteReceipt> = serde_json::from_slice(&resp.body)
                    .map_err(|e| StateError::protocol(format!("bad response JSON: {e}")))?;
                let cursor = resp
                    .cursor()
                    .ok_or_else(|| StateError::protocol("receipt page missing its cursor"))?;
                Ok((page, cursor))
            });
            let (page, cursor) = match page {
                Ok(reply) => reply,
                Err(e) if taken.is_empty() => return Err(e),
                Err(_) => return Ok(taken),
            };
            // This reply carried the previous page's ack.
            taken.append(&mut unacked);
            if page.is_empty() {
                return Ok(taken);
            }
            unacked = page;
            after = Some(cursor);
        }
    }

    /// The server's simulated clock (`GET /v1/health`). Out-of-process
    /// applications stamp proposals with this, like in-process ones use
    /// `StatesmanClient::now`.
    pub fn server_now(&self) -> StateResult<SimTime> {
        let body = self.expect_2xx(self.request("GET", "/v1/health", &[])?)?;
        let health: HealthResponse = serde_json::from_slice(&body)
            .map_err(|e| StateError::protocol(format!("bad response JSON: {e}")))?;
        Ok(SimTime::from_millis(health.now_ms))
    }

    fn bound_app(&self) -> StateResult<&AppId> {
        self.app.as_ref().ok_or_else(|| {
            StateError::invalid("no application identity bound (use ApiClient::with_app)")
        })
    }

    /// Read the full observed state of one datacenter at the chosen
    /// freshness (mirrors `StatesmanClient::read_os`).
    pub fn read_os(
        &self,
        dc: &DatacenterId,
        freshness: Freshness,
    ) -> StateResult<Vec<NetworkState>> {
        self.read(dc, &Pool::Observed, freshness, None, None)
    }

    /// Propose values under the bound application identity (mirrors
    /// `StatesmanClient::propose`): one PS write, rows stamped with the
    /// server's simulated time and this client's identity.
    pub fn propose(
        &self,
        changes: impl IntoIterator<Item = (EntityName, Attribute, Value)>,
    ) -> StateResult<()> {
        let app = self.bound_app()?.clone();
        let rows: Vec<(EntityName, Attribute, Value)> = changes.into_iter().collect();
        if rows.is_empty() {
            return Ok(());
        }
        let now = self.server_now()?;
        let rows: Vec<NetworkState> = rows
            .into_iter()
            .map(|(e, a, v)| NetworkState::new(e, a, v, now, app.clone()))
            .collect();
        self.write(&Pool::Proposed(app), &rows)
    }

    /// Poll (and consume) the bound application's receipts (mirrors
    /// `StatesmanClient::take_receipts`).
    pub fn take_receipts(&self) -> StateResult<Vec<WriteReceipt>> {
        let app = self.bound_app()?.clone();
        let mut all = self.receipts(&app)?;
        all.sort_by(|a, b| {
            a.decided_at
                .cmp(&b.decided_at)
                .then_with(|| a.key.cmp(&b.key))
        });
        Ok(all)
    }

    /// Raw GET for diagnostics/tests: 2xx body or the decoded error.
    pub fn raw_get(&self, target: &str) -> StateResult<Vec<u8>> {
        self.expect_2xx(self.request("GET", target, &[])?)
    }
}
