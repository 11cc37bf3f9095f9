//! The columnar + blast-radius control loop at millions of variables:
//! drives full coordinator rounds (invariants on) over a fabric sized by
//! `STATESMAN_BENCH_VARS` (default 4,000,000) and reports per-round
//! checker time, whole-round wall time, and resident bytes per state
//! variable from the columnar storage arenas.
//!
//! Two state planes run back to back over identical fabrics:
//!
//! * `columnar` — delta reads + columnar mirrors + blast-radius
//!   incremental checker (the shipping default);
//! * `hash` — delta reads over the hashmap mirrors with full
//!   re-projection every pass (the previous plane, kept as the
//!   reference; its decisions are asserted bit-equal elsewhere, this
//!   binary measures the cost difference).
//!
//! The paper's checker budget (§8: minutes-scale rounds, checker well
//! under the 10 s coordination overhead) is asserted for the columnar
//! plane at every size: steady-state checker time must stay under
//! 10 s even at 4M variables.
//!
//! ```text
//! STATESMAN_BENCH_VARS=4000000 STATESMAN_BENCH_ROUNDS=3 \
//!     cargo run --release -p statesman-bench --bin delta_pipeline
//! ```
//!
//! Emits `BENCH_delta_pipeline.json` in the working directory.

use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{DatacenterId, SimDuration};
use std::time::Instant;

const CHECKER_BUDGET_MS: f64 = 10_000.0;

fn main() {
    let vars: usize = std::env::var("STATESMAN_BENCH_VARS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    let rounds: usize = std::env::var("STATESMAN_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);

    let mut json_planes = Vec::new();
    let mut rows = Vec::new();
    for (plane, columnar) in [("columnar", true), ("hash", false)] {
        let m = measure(vars, rounds, columnar);
        println!(
            "csv,delta_pipeline,{plane},{},{:.0},{:.0},{:.0},{:.0},{:.1}",
            m.vars_seeded,
            m.seed_ms,
            m.quiescent_checker_ms,
            m.churn_checker_ms,
            m.churn_round_ms,
            m.bytes_per_var
        );
        rows.push(vec![
            plane.to_string(),
            m.vars_seeded.to_string(),
            format!("{:.0}", m.seed_ms),
            format!("{:.0}", m.quiescent_checker_ms),
            format!("{:.0}", m.churn_checker_ms),
            format!("{:.0}", m.churn_round_ms),
            format!("{:.1}", m.bytes_per_var),
        ]);
        let seed_stages = match &m.seed_stages {
            Some(s) => format!(
                "{{ \"rows\": {}, \"partitions\": {}, \"intern_ms\": {:.1}, \
                 \"arena_fill_ms\": {:.1}, \"index_build_ms\": {:.1}, \
                 \"paxos_commit_ms\": {:.1}, \"bulk_wall_ms\": {:.1} }}",
                s.rows, s.partitions, s.intern_ms, s.fill_ms, s.index_ms, s.commit_ms, s.wall_ms
            ),
            None => "null".to_string(),
        };
        json_planes.push(format!(
            "    {{ \"plane\": \"{plane}\", \"vars\": {}, \"seed_ms\": {:.1}, \
             \"seed_stages\": {seed_stages}, \
             \"quiescent_checker_ms\": {:.2}, \"churn_checker_ms\": {:.2}, \
             \"churn_round_ms\": {:.1}, \"bytes_per_var\": {:.1} }}",
            m.vars_seeded,
            m.seed_ms,
            m.quiescent_checker_ms,
            m.churn_checker_ms,
            m.churn_round_ms,
            m.bytes_per_var
        ));

        // The headline acceptance: the columnar plane's steady-state
        // checker stays inside the paper's coordination budget.
        if columnar {
            assert!(
                m.churn_checker_ms < CHECKER_BUDGET_MS,
                "columnar checker blew the 10 s budget at {} vars: {:.0} ms",
                m.vars_seeded,
                m.churn_checker_ms
            );
        }
    }

    println!();
    println!("delta_pipeline: {rounds} measured rounds per shape, invariants on");
    print!(
        "{}",
        statesman_bench::report::table(
            &[
                "plane",
                "vars",
                "seed_ms",
                "quiet_chk_ms",
                "churn_chk_ms",
                "churn_round_ms",
                "bytes/var"
            ],
            &rows
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"delta_pipeline\",\n  \"target_vars\": {vars},\n  \
         \"rounds\": {rounds},\n  \"checker_budget_ms\": {CHECKER_BUDGET_MS},\n  \
         \"planes\": [\n{}\n  ]\n}}\n",
        json_planes.join(",\n")
    );
    std::fs::write("BENCH_delta_pipeline.json", json).expect("write BENCH_delta_pipeline.json");
}

struct PlaneResult {
    vars_seeded: usize,
    seed_ms: f64,
    seed_stages: Option<statesman_storage::SeedStats>,
    quiescent_checker_ms: f64,
    churn_checker_ms: f64,
    churn_round_ms: f64,
    bytes_per_var: f64,
}

/// Build a coordinator over a fabric sized for `vars` variables and
/// measure seeded steady-state rounds: quiescent (clock frozen, every
/// poll returns what the last round wrote) and low-churn (one simulated
/// minute per round, telemetry counters move).
fn measure(vars: usize, rounds: usize, columnar: bool) -> PlaneResult {
    let clock = SimClock::new();
    let graph = DcnSpec::sized_for_variables("dcX", vars).build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new(
        [DatacenterId::new("dcX")],
        clock.clone(),
        StorageConfig {
            ring: ClusterConfig {
                replicas: 1,
                // One simulated minute walks every device's cpu/mem
                // counters (~164K rows at 4M variables); the change
                // index must hold a few rounds of that churn or every
                // read_since falls back to the snapshot path and the
                // incremental checker reseeds from scratch each pass.
                change_index_capacity: 1 << 20,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig {
            columnar_state: columnar,
            // Steady-state only: a periodic forced resync inside the
            // sample window would mix full-write rounds into the mean.
            monitor_resync_every: Some(u64::MAX),
            ..Default::default()
        },
    );

    let t0 = Instant::now();
    let seed_round = coord.tick().expect("seed round");
    let seed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (m_ms, c_ms, u_ms) = seed_round.latency_breakdown_ms();
    eprintln!(
        "seed breakdown ({}): monitor {m_ms:.0} ms, checker {c_ms:.0} ms, \
         updater {u_ms:.0} ms, other {:.0} ms",
        if columnar { "columnar" } else { "hash" },
        seed_ms - m_ms - c_ms - u_ms
    );
    eprintln!(
        "seed monitor stages ({}): poll {:.0} / diff {:.0} / write {:.0} ms wall",
        if columnar { "columnar" } else { "hash" },
        seed_round.monitor.stage_poll.as_secs_f64() * 1e3,
        seed_round.monitor.stage_diff.as_secs_f64() * 1e3,
        seed_round.monitor.stage_write.as_secs_f64() * 1e3,
    );
    let seed_stages = seed_round.monitor.seed;
    if let Some(s) = &seed_stages {
        eprintln!(
            "seed stages: {} rows over {} partitions — intern {:.0} ms, \
             arena fill {:.0} ms, index build {:.0} ms, paxos commit {:.0} ms \
             (bulk wall {:.0} ms)",
            s.rows, s.partitions, s.intern_ms, s.fill_ms, s.index_ms, s.commit_ms, s.wall_ms
        );
    }
    let (state_bytes, state_rows) = storage.state_bytes();
    let bytes_per_var = if state_rows > 0 {
        state_bytes as f64 / state_rows as f64
    } else {
        0.0
    };

    let mut quiescent_checker_ms = 0.0;
    for _ in 0..rounds {
        let r = coord.tick().expect("quiescent round");
        quiescent_checker_ms += r.latency_breakdown_ms().1;
    }
    let mut churn_checker_ms = 0.0;
    let mut churn_round_ms = 0.0;
    for _ in 0..rounds {
        // Advance first so every measured tick sees one simulated minute
        // of telemetry churn (tick_and_advance steps after the tick,
        // which would leave the last round's churn unmeasured).
        net.step(SimDuration::from_mins(1));
        let t = Instant::now();
        let r = coord.tick().expect("churn round");
        churn_round_ms += t.elapsed().as_secs_f64() * 1e3;
        churn_checker_ms += r.latency_breakdown_ms().1;
        eprintln!(
            "churn round ({}): monitor poll {:.0} / diff {:.0} / write {:.0} ms, \
             checker {:.0} ms, updater read {:.0} / diff {:.0} / exec {:.0} ms",
            if columnar { "columnar" } else { "hash" },
            r.monitor.stage_poll.as_secs_f64() * 1e3,
            r.monitor.stage_diff.as_secs_f64() * 1e3,
            r.monitor.stage_write.as_secs_f64() * 1e3,
            r.latency_breakdown_ms().1,
            r.updater.stage_read.as_secs_f64() * 1e3,
            r.updater.stage_diff.as_secs_f64() * 1e3,
            r.updater.stage_exec.as_secs_f64() * 1e3,
        );
    }

    PlaneResult {
        vars_seeded: state_rows as usize,
        seed_ms,
        seed_stages,
        quiescent_checker_ms: quiescent_checker_ms / rounds as f64,
        churn_checker_ms: churn_checker_ms / rounds as f64,
        churn_round_ms: churn_round_ms / rounds as f64,
        bytes_per_var,
    }
}
