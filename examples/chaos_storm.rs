//! A chaos storm, watched live: the standard multi-layer fault plan
//! (device crash, management-plane outage, storage partition outage, app
//! blackout, lossy commands, link flapping) against a full Statesman
//! instance running an upgrade campaign — with the observability stack
//! attached, scraped over the real `/v1/metrics` + `/v1/status` wire and
//! cross-checked for internal consistency.
//!
//! ```text
//! cargo run --example chaos_storm -- [seed]
//! ```
//!
//! Exits nonzero if the run violated ground-truth safety, aborted a
//! round, never converged, or the scraped metrics disagree with
//! themselves — so it doubles as a one-shot chaos-and-observability
//! probe for any seed, not just the five pinned in the test suite.

use statesman::httpapi::{ApiClient, ApiServer, StatusResponse};
use statesman::net::SimClock;
use statesman::obs::Obs;
use statesman::storage::StorageService;
use statesman_chaos::ChaosScenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut scenario = ChaosScenario::standard(seed);
    scenario.verbose = true;

    let plan = &scenario.plan;
    println!("chaos plan (seed {seed}):");
    for (d, at, down) in &plan.device_outages {
        println!("  crash    {} at {at} for {down}", d.as_str());
    }
    for (d, at, down) in &plan.mgmt_outages {
        println!("  mgmt-out {} at {at} for {down}", d.as_str());
    }
    for (dc, at, down) in &plan.partition_outages {
        println!("  part-out {dc} at {at} for {down}");
    }
    if let Some((at, down)) = plan.app_blackout {
        println!("  app-out  at {at} for {down}");
    }
    println!(
        "  commands: {:.0}% reject, {:.0}% timeout; link flap {:.1}%/min for {}",
        plan.command_failure_prob * 100.0,
        plan.command_timeout_prob * 100.0,
        plan.link_flap_prob_per_min * 100.0,
        plan.link_flap_duration,
    );
    println!("  last heal at {}", plan.last_heal());
    println!();

    let obs = Obs::new();
    let outcome = scenario.run_with_obs(&obs);
    println!();
    println!("{outcome:#?}");

    let ok = outcome.safety_violations.is_empty()
        && outcome.tick_errors == 0
        && outcome.converged_at.is_some();
    if !ok {
        println!("CHAOS RUN FAILED");
        std::process::exit(1);
    }
    println!(
        "safe and live: converged at round {} of {}",
        outcome.converged_at.unwrap(),
        outcome.rounds_run
    );

    // Serve the run's registry over the wire and scrape it back, the way
    // an operator's collector would.
    let server = ApiServer::start_with_obs(
        StorageService::single_dc("dc1", SimClock::new()),
        obs.clone(),
    )
    .expect("api server");
    let client = ApiClient::new(server.addr());
    let text = String::from_utf8(client.raw_get("/v1/metrics").expect("scrape metrics"))
        .expect("metrics are UTF-8");
    let status_body = client
        .raw_get("/v1/status?rounds=3")
        .expect("scrape status");
    let status: StatusResponse = serde_json::from_slice(&status_body).expect("status decodes");

    let value = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from /v1/metrics"))
    };

    // The scrape must be non-empty and internally consistent: every
    // proposal the checkers saw was accepted, rejected, or already
    // satisfied — no row vanished — and the round counter matches the
    // rounds the harness actually drove.
    let rounds = value("coordinator_rounds_total");
    let seen = value("checker_proposals_seen_total");
    let accepted = value("checker_accepted_total");
    let rejected = value("checker_rejected_total");
    let satisfied = value("checker_already_satisfied_total");
    let retries = value("updater_retries_total");
    assert!(!text.is_empty() && rounds > 0, "empty scrape");
    assert_eq!(rounds, outcome.rounds_run as u64, "round counter drifted");
    assert_eq!(
        accepted + rejected + satisfied,
        seen,
        "checker accounting identity broken"
    );
    assert_eq!(
        retries, outcome.updater_retries as u64,
        "retry counter drifted"
    );
    let last = status.traces.last().expect("status has traces");
    assert_eq!(
        status.status.last_round,
        Some(outcome.rounds_run as u64 - 1),
        "status board is stale"
    );
    println!();
    println!(
        "scraped /v1/metrics: {rounds} rounds, {seen} proposals seen \
         ({accepted} accepted + {rejected} rejected + {satisfied} satisfied), \
         {retries} updater retries",
    );
    println!(
        "scraped /v1/status: last trace round {} at {}ms, wall-clock stages:",
        last.round, last.at_ms
    );
    print!("{}", last.stages.render());
    println!("metrics consistent: OK");
}
