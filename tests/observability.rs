//! Integration test for the observability subsystem end to end: a full
//! Statesman instance runs five rounds (with a device crash injected so a
//! quarantine forms), and everything is verified over the real wire —
//! `/v1/metrics` reports non-zero series from every layer, `/v1/status`'s
//! last trace carries the stage tree of the coordinator's own
//! `RoundReport`, the round histograms observe exactly the tree's nodes,
//! and counters are monotonic across rounds.

use statesman::core::{Coordinator, CoordinatorConfig, StatesmanClient};
use statesman::httpapi::{ApiClient, ApiServer, StatusResponse};
use statesman::net::{SimClock, SimConfig, SimNetwork};
use statesman::obs::{Obs, LATENCY_BUCKETS_MS};
use statesman::prelude::*;
use statesman::storage::{StorageConfig, StorageService};
use statesman::topology::DcnSpec;
use std::collections::BTreeMap;

/// Parse the text exposition into name → value (counters and gauges).
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
        })
        .collect()
}

#[test]
fn five_rounds_light_up_every_layer_over_the_wire() {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let graph = DcnSpec::tiny("dc1").build();
    let mut sim = SimConfig::ideal();
    sim.faults.command_latency_ms = 200;
    // Crash agg-2-2 early and keep it down past round 5, so the monitor
    // quarantines it and the quarantine is visible in the final status.
    sim.faults = sim.faults.with_device_outage(
        &DeviceName::new("agg-2-2"),
        SimTime::from_mins(1),
        SimDuration::from_mins(30),
    );
    let net = SimNetwork::new(&graph, clock.clone(), sim);
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    let obs = Obs::new();
    let coordinator = Coordinator::new(
        &graph,
        net,
        storage.clone(),
        CoordinatorConfig {
            obs: Some(obs.clone()),
            quarantine_cooldown: Some(SimDuration::from_mins(10)),
            ..CoordinatorConfig::default()
        },
    );
    let app = StatesmanClient::new("obs-app", storage.clone(), clock.clone());

    // Serve the same handle while the loop runs, like a real deployment.
    let server = ApiServer::start_with_obs(storage, obs.clone()).unwrap();
    let api = ApiClient::new(server.addr());

    let mut last_report = None;
    let mut prev: BTreeMap<String, f64> = BTreeMap::new();
    for round in 0..5 {
        if round == 1 {
            // A proposal the checker will accept and the updater realize.
            app.propose([(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceBootImage,
                Value::text("golden"),
            )])
            .unwrap();
        }
        let report = coordinator
            .tick_and_advance(SimDuration::from_mins(1))
            .unwrap();

        // Counters scraped over HTTP must be monotonic round over round.
        let text = String::from_utf8(api.raw_get("/v1/metrics").unwrap()).unwrap();
        let cur = parse_metrics(&text);
        for (name, value) in &prev {
            if name.ends_with("_total") {
                assert!(
                    cur.get(name).copied().unwrap_or(0.0) >= *value,
                    "{name} went backwards: {value} -> {:?}",
                    cur.get(name)
                );
            }
        }
        prev = cur;
        last_report = Some(report);
    }
    let last_report = last_report.unwrap();

    // Every instrumented layer reports a non-zero series.
    for series in [
        "coordinator_rounds_total",
        "monitor_devices_polled_total",
        "checker_proposals_seen_total",
        "checker_accepted_total",
        "updater_commands_applied_total",
        "storage_reads_total",
        "storage_writes_total",
        "net_commands_accepted_total",
        "httpapi_bytes_sent_total",
    ] {
        assert!(
            prev.get(series).copied().unwrap_or(0.0) > 0.0,
            "{series} should be non-zero after 5 rounds: {prev:?}"
        );
    }
    assert_eq!(prev["coordinator_rounds_total"], 5.0);
    // The labeled request counter is present for the metrics route itself.
    assert!(prev
        .keys()
        .any(|k| k.starts_with("httpapi_requests_total{") && k.contains("/v1/metrics")));

    // The JSON exposition carries the same registry.
    let json = String::from_utf8(api.raw_get("/v1/metrics?format=json").unwrap()).unwrap();
    assert!(json.contains("coordinator_rounds_total"));

    // /v1/status: the last trace is the coordinator's own accounting.
    let status: StatusResponse =
        serde_json::from_slice(&api.raw_get("/v1/status?rounds=5").unwrap()).unwrap();
    assert_eq!(status.traces.len(), 5);
    let last = status.traces.last().unwrap();
    assert_eq!(last.round, 4);
    assert_eq!(last.stages.name, "tick");
    assert_eq!(
        last.stages.children,
        last_report.stages(),
        "the trace's stage tree must be the report's"
    );
    // The round histograms observe wall time: over the rounds driven,
    // each one's sum is the sum of the matching tree nodes.
    let node_sum = |matches: fn(&str) -> bool| -> f64 {
        let nodes = status.traces.iter().flat_map(|t| &t.stages.children);
        nodes.filter(|s| matches(&s.name)).map(|s| s.ms).sum()
    };
    let histogram_sum = |name| obs.registry.histogram(name, LATENCY_BUCKETS_MS).sum();
    assert_eq!(
        histogram_sum("monitor_round_ms"),
        node_sum(|n| n == "monitor")
    );
    assert_eq!(
        histogram_sum("updater_round_ms"),
        node_sum(|n| n == "updater")
    );
    assert_eq!(
        histogram_sum("checker_pass_ms"),
        node_sum(|n| n.starts_with("checker["))
    );
    assert_eq!(
        last.proposals_seen,
        last.accepted + last.rejected + last.already_satisfied,
        "checker accounting identity"
    );
    assert_eq!(status.status.last_round, Some(4));

    // The injected crash shows up as a quarantine in the status board.
    assert!(
        status.status.quarantined.iter().any(|d| d == "agg-2-2"),
        "crashed device should be quarantined in status: {:?}",
        status.status
    );
    assert!(last.quarantined.iter().any(|d| d == "agg-2-2"));
}
