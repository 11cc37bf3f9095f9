#![warn(missing_docs)]

//! # statesman-httpapi
//!
//! The versioned v1 HTTP interface over real TCP sockets:
//!
//! ```text
//! GET  /v1/read?Datacenter={dc}&Pool={p}&Freshness={c}&Entity={e}&Attribute={a}
//! GET  /v1/read?Datacenter={dc}&Pool={p}&since={v}   (changefeed delta)
//! POST /v1/write?Pool={p}            (body: JSON list of NetworkState)
//! GET  /v1/receipts?App={app}[&limit=N&after=C]      (take receipts, or page and ack them)
//! GET  /v1/health                    ({ok, now_ms}: liveness + simulated clock)
//! GET  /v1/metrics[?format=json]     (the metrics registry; text by default)
//! GET  /v1/status[?rounds=N]         (status board + last N round traces)
//! ```
//!
//! ## The front end
//!
//! The server ([`ApiServer`]) is a **fixed worker thread-pool** behind a
//! readiness-driven reactor: an accept thread feeds connections to one
//! reactor that owns them nonblockingly (`poll(2)`), parses requests
//! incrementally, and queues complete requests into a bounded
//! **per-app-fair** ready queue drained by the workers. Thread count is
//! `workers + 2` no matter how many thousands of keep-alive connections
//! are open. Admission control is explicit: past
//! [`ServerConfig::max_connections`] or a full ready queue the server
//! sheds with `429` + `retry-after` + the typed JSON error body — load
//! is signalled to callers, not absorbed silently by the OS accept
//! backlog. Workers drain pipelined requests (budget-capped) and
//! coalesce queued same-pool `/v1/write` bodies into one storage batch.
//!
//! Every response carries `x-statesman-server`; every retryable error
//! carries `retry-after`; delta and pool reads carry
//! `x-statesman-watermark`; paginated receipts carry
//! `x-statesman-cursor`, which names a partition and a receipt position
//! in it. Receipts live only in storage: a page is a read, `after=` is a
//! logged ack, and the server holds no receipt state, so a restart loses
//! nothing. [`ApiClient`] keeps one persistent keep-alive
//! connection (reconnecting transparently when it goes stale) and
//! exposes the header contract on [`RawResponse`].
//!
//! The Table-3 spellings (`/NetworkState/Read`, `/NetworkState/Write`,
//! `/NetworkState/Receipts`, `/healthz`) are retired and answer 404 like
//! any other unknown path.
//!
//! The paper's storage front end "is implemented as a HTTP web service
//! with RESTful APIs" (§6.4); applications, monitors, updaters, and
//! checkers all go through it. Here the in-process components use the
//! native [`StorageService`](statesman_storage::StorageService) API for
//! speed, and this crate exposes the same service over the wire so
//! out-of-process applications (see `examples/http_service.rs`) interact
//! exactly as the paper describes — including the `Freshness` parameter
//! choosing between up-to-date and bounded-stale reads.
//!
//! Dispatch is a typed route table ([`server::ROUTES`]): unknown paths
//! are 404, known paths under the wrong verb are 405 with an `allow`
//! header. Every v1 error is the unified JSON body
//! `{code, message, retryable, source}` ([`error::ApiErrorBody`]), and
//! [`ApiClient`] decodes it back into the exact typed
//! [`StateError`](statesman_types::StateError) the server raised — a
//! `429` shed round-trips into a retryable `StateError::Overloaded`.
//!
//! The HTTP/1.1 implementation is deliberately small: request-line +
//! headers + `Content-Length` bodies, keep-alive with pipelining,
//! graceful drain-then-join shutdown. No external HTTP dependency —
//! `bytes` for buffers, `serde_json` for payloads.

pub mod client;
pub mod error;
pub mod http;
pub mod server;

pub use client::ApiClient;
pub use error::ApiErrorBody;
pub use http::{HttpRequest, HttpResponse, RawResponse};
pub use server::{ApiServer, HealthResponse, ServerConfig, StatusResponse};
