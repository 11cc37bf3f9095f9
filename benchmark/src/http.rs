//! The HTTP front end as the workloads use it: the shipping server over
//! loopback, the `/v1/metrics` scrape the `httpapi.*` counts come from,
//! and the JSON-shim probe.

use crate::workload::{since_ms, Layers};
use statesman_httpapi::{ApiClient, ApiServer, ServerConfig};
use statesman_obs::Obs;
use statesman_storage::StorageService;
use statesman_types::NetworkState;
use std::collections::BTreeMap;
use std::time::Instant;

/// Start the server with `ServerConfig::default()` on 127.0.0.1 (loopback
/// only), with a registry so that `/v1/metrics` has the request counters.
pub fn start_server(storage: &StorageService) -> ApiServer {
    ApiServer::start_with_config(storage.clone(), ServerConfig::default(), Some(Obs::new()))
        .expect("bind the API server on loopback")
}

/// One `GET /v1/metrics` scrape, summed by metric name over labels.
#[derive(Debug, Default, Clone)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Scrape through `client`, timing the request as `obs.scrape_ms`.
    pub fn take(client: &ApiClient, layers: &mut Layers) -> Scrape {
        let body = layers
            .time("obs.scrape_ms", || client.raw_get("/v1/metrics"))
            .unwrap_or_default();
        let mut by_name = BTreeMap::new();
        for line in String::from_utf8_lossy(&body).lines() {
            if let Some((series, value)) = line.rsplit_once(' ') {
                let name = series.split('{').next().unwrap_or(series);
                if let Ok(v) = value.parse::<f64>() {
                    *by_name.entry(name.to_string()).or_insert(0.0) += v;
                }
            }
        }
        Scrape(by_name)
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Write the `httpapi.*` counts of the interval `earlier..self`.
    pub fn report_since(&self, earlier: &Scrape, layers: &mut Layers) {
        for (metric, series) in [
            ("httpapi.requests", "httpapi_requests_total"),
            ("httpapi.bytes_in", "httpapi_bytes_received_total"),
            ("httpapi.bytes_out", "httpapi_bytes_sent_total"),
            ("httpapi.sheds", "httpapi_sheds_total"),
            ("httpapi.write_batches", "httpapi_write_batches_total"),
            ("httpapi.writes_coalesced", "httpapi_writes_coalesced_total"),
        ] {
            layers.set(metric, self.get(series) - earlier.get(series));
        }
    }
}

/// Encode and decode one of the op's own bodies through the `serde_json`
/// shim, as client and server do, and record ms per MB of body.
pub fn json_probe(layers: &mut Layers, rows: &[NetworkState]) {
    let t = Instant::now();
    let body = serde_json::to_vec(rows).expect("rows serialise");
    let encode_ms = since_ms(t);
    let t = Instant::now();
    let back: Vec<NetworkState> = serde_json::from_slice(&body).expect("rows parse back");
    let decode_ms = since_ms(t);
    assert_eq!(back.len(), rows.len());
    let mb = body.len() as f64 / (1024.0 * 1024.0);
    if mb > 0.0 {
        layers.ms("json.encode_ms_per_mb", encode_ms / mb);
        layers.ms("json.decode_ms_per_mb", decode_ms / mb);
    }
}

/// Mean ms per call of each client-side HTTP span → `httpapi.*_ms`.
pub fn report_call_spans(ctx: &mut crate::workload::Ctx) {
    let totals = crate::spans::totals(ctx.tracer.spans());
    for (metric, span) in [
        ("httpapi.read_since_ms", "httpapi.read_since"),
        ("httpapi.entity_read_ms", "httpapi.entity_read"),
        ("httpapi.propose_ms", "httpapi.propose"),
        ("httpapi.receipts_ms", "httpapi.receipts"),
        ("httpapi.write_ms", "httpapi.write"),
    ] {
        ctx.layers.set(metric, crate::spans::mean_ms(&totals, span));
    }
}
