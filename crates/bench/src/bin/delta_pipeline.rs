//! The columnar + blast-radius control loop at millions of variables:
//! drives full coordinator rounds (invariants on) over a fabric sized by
//! `STATESMAN_BENCH_VARS` (default 4,000,000) and prints every round's
//! wall-clock stage tree (`tick → monitor {poll {devices, links}, diff
//! {reseed, order}, write} → checker[group] → updater {read, diff,
//! exec}`, the seed's `write` split into the bulk seed's stages) and the
//! heap allocations the round made, plus resident bytes per state
//! variable from the columnar storage arenas and the process's peak
//! resident set (`VmHWM`, read from `/proc/self/status` at exit).
//!
//! Allocations are counted by the counting global allocator this binary
//! installs (`statesman_bench::alloc`): every `alloc`, `alloc_zeroed`
//! and `realloc` call, and the bytes it asked for, process-wide. At
//! `STATESMAN_WORKER_THREADS=1` no pool thread allocates during a
//! round, so the counts repeat from run to run to within one or two.
//!
//! Three budgets are asserted at every size: the paper's (§8:
//! minutes-scale rounds, checker well under the 10 s coordination
//! overhead), so the steady-state checker time must stay under 10 s even
//! at 4M variables; a closed account, so every tree's root leaves at
//! most 5% of the round `unaccounted`; and a round that costs what
//! changed, so a churn round makes at most two allocations per row its
//! monitor wrote, plus 1,024.
//!
//! ```text
//! STATESMAN_BENCH_VARS=4000000 STATESMAN_BENCH_ROUNDS=3 \
//!     cargo run --release -p statesman-bench --bin delta_pipeline
//! ```
//!
//! Emits `BENCH_delta_pipeline.json` in the working directory, with the
//! seed round's tree and every churn round's, and each of those rounds'
//! allocations beside the rows its monitor wrote. After the main run, a
//! second fixed run measures the durable ring: 100K variables on a
//! 3-replica `FramedMemory` ring (every record JSON-encoded, CRC-framed
//! and hash-chained on every replica), under the `framed_100k` key with
//! its seed and churn trees and the WAL's appends and bytes.

use statesman_bench::alloc::{counted, Allocs, Counting};
use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_obs::{Obs, Stage};
use statesman_storage::{ClusterConfig, DurabilityMode, StorageConfig, StorageService, WalStats};
use statesman_topology::DcnSpec;
use statesman_types::{DatacenterId, SimDuration};

#[global_allocator]
static GLOBAL: Counting = Counting;

const CHECKER_BUDGET_MS: f64 = 10_000.0;
/// The most of a round its stage tree may leave unaccounted.
const UNACCOUNTED_BUDGET: f64 = 0.05;
/// The durable run's size and ring, fixed whatever the main run's size.
const FRAMED_VARS: usize = 100_000;
const FRAMED_REPLICAS: usize = 3;
/// A churn round's allocations may be at most this many per row its
/// monitor wrote, plus [`ALLOC_SLACK`]: a round costs what changed.
const ALLOCS_PER_ROW: u64 = 2;
const ALLOC_SLACK: u64 = 1_024;

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

    let m = measure(vars, rounds, 1, DurabilityMode::Memory);
    // Read after the main run's last round, so the figure covers it and
    // not the smaller durable run after it.
    let peak_rss = peak_rss_mb().map_or("null".to_string(), |mb| format!("{mb:.1}"));
    println!("framed run: {FRAMED_VARS} variables, {FRAMED_REPLICAS}-replica FramedMemory ring");
    let framed = measure(
        FRAMED_VARS,
        rounds,
        FRAMED_REPLICAS,
        DurabilityMode::FramedMemory,
    );
    let quiescent_checker_ms = mean(m.quiescent.iter().map(checker_ms));
    let churn_checker_ms = mean(m.churn.iter().map(checker_ms));
    let churn_round_ms = mean(m.churn.iter().map(|t| t.ms));

    // The headline acceptance: the steady-state checker stays inside the
    // paper's coordination budget, and every tree accounts for its round.
    assert!(
        churn_checker_ms < CHECKER_BUDGET_MS,
        "checker blew the 10 s budget at {} vars: {churn_checker_ms:.0} ms",
        m.vars_seeded,
    );
    for t in [&m, &framed]
        .into_iter()
        .flat_map(|m| std::iter::once(&m.seed).chain(&m.quiescent).chain(&m.churn))
    {
        assert!(
            t.unaccounted_ms() <= UNACCOUNTED_BUDGET * t.ms,
            "a round left more than 5% unaccounted:\n{}",
            t.render()
        );
    }

    for a in m.churn_allocs.iter().chain(&framed.churn_allocs) {
        assert!(
            a.count <= ALLOCS_PER_ROW * a.rows as u64 + ALLOC_SLACK,
            "a churn round made {} allocations for {} rows written",
            a.count,
            a.rows
        );
    }

    println!("delta_pipeline: {rounds} measured rounds per shape, invariants on");
    println!(
        "csv,delta_pipeline,vars,seed_ms,quiet_chk_ms,churn_chk_ms,churn_round_ms,bytes_per_var,peak_rss_mb"
    );
    println!(
        "csv,delta_pipeline,{},{:.0},{quiescent_checker_ms:.0},{churn_checker_ms:.0},\
         {churn_round_ms:.0},{:.1},{peak_rss}",
        m.vars_seeded, m.seed.ms, m.bytes_per_var
    );
    let framed_write_ms = mean(framed.churn.iter().map(monitor_write_ms));
    println!(
        "csv,delta_pipeline_framed,vars,replicas,seed_ms,churn_write_ms,wal_appends,wal_bytes"
    );
    println!(
        "csv,delta_pipeline_framed,{},{FRAMED_REPLICAS},{:.0},{framed_write_ms:.1},{},{}",
        framed.vars_seeded, framed.seed.ms, framed.wal.appends, framed.wal.bytes_written
    );
    let tree = |t: &Stage| serde_json::to_string(t).expect("stage tree encodes");
    let trees = |ts: &[Stage], indent: &str| {
        let sep = format!(",\n{indent}");
        ts.iter().map(tree).collect::<Vec<_>>().join(&sep)
    };
    let allocs = |rounds: &[Allocs]| {
        let rounds: Vec<String> = rounds.iter().map(Allocs::json).collect();
        rounds.join(", ")
    };
    let json = format!(
        "{{\n  \"bench\": \"delta_pipeline\",\n  \"target_vars\": {vars},\n  \
         \"rounds\": {rounds},\n  \"checker_budget_ms\": {CHECKER_BUDGET_MS},\n  \
         \"vars\": {},\n  \"seed_ms\": {:.1},\n  \
         \"quiescent_checker_ms\": {quiescent_checker_ms:.2},\n  \
         \"churn_checker_ms\": {churn_checker_ms:.2},\n  \
         \"churn_round_ms\": {churn_round_ms:.1},\n  \"bytes_per_var\": {:.1},\n  \
         \"peak_rss_mb\": {peak_rss},\n  \"seed_allocs\": {},\n  \
         \"churn_allocs\": [{}],\n  \"seed_tree\": {},\n  \
         \"churn_trees\": [\n    {}\n  ],\n  \
         \"framed_100k\": {{\n    \"replicas\": {FRAMED_REPLICAS},\n    \
         \"durability\": \"FramedMemory\",\n    \"vars\": {},\n    \
         \"seed_ms\": {:.1},\n    \"churn_write_ms\": {framed_write_ms:.2},\n    \
         \"wal_appends\": {},\n    \"wal_bytes\": {},\n    \"seed_allocs\": {},\n    \
         \"churn_allocs\": [{}],\n    \"seed_tree\": {},\n    \
         \"churn_trees\": [\n      {}\n    ]\n  }}\n}}\n",
        m.vars_seeded,
        m.seed.ms,
        m.bytes_per_var,
        m.seed_allocs.json(),
        allocs(&m.churn_allocs),
        tree(&m.seed),
        trees(&m.churn, "    "),
        framed.vars_seeded,
        framed.seed.ms,
        framed.wal.appends,
        framed.wal.bytes_written,
        framed.seed_allocs.json(),
        allocs(&framed.churn_allocs),
        tree(&framed.seed),
        trees(&framed.churn, "      "),
    );
    std::fs::write("BENCH_delta_pipeline.json", json).expect("write BENCH_delta_pipeline.json");
}

/// This process's peak resident set (`VmHWM`) in MB, or `None` where
/// `/proc/self/status` is absent.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// A round's checker time: its `checker[group]` nodes.
fn checker_ms(tick: &Stage) -> f64 {
    let checkers = tick
        .children
        .iter()
        .filter(|s| s.name.starts_with("checker["));
    checkers.map(|s| s.ms).sum()
}

/// A round's `monitor → write` time.
fn monitor_write_ms(tick: &Stage) -> f64 {
    let monitor = tick.children.iter().filter(|s| s.name == "monitor");
    let writes = monitor.flat_map(|m| m.children.iter().filter(|s| s.name == "write"));
    writes.map(|s| s.ms).sum()
}

fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len().max(1) as f64;
    xs.sum::<f64>() / n
}

struct Measured {
    vars_seeded: usize,
    seed: Stage,
    seed_allocs: Allocs,
    quiescent: Vec<Stage>,
    churn: Vec<Stage>,
    churn_allocs: Vec<Allocs>,
    bytes_per_var: f64,
    /// The WAL's cumulative stats over the whole run, every replica.
    wal: WalStats,
}

/// Build a coordinator over a fabric sized for `vars` variables and
/// trace the seed round and seeded steady-state rounds: quiescent (clock
/// frozen, every poll returns what the last round wrote) and low-churn
/// (one simulated minute per round, telemetry counters move). The ring
/// has `replicas` replicas logging to `durability`.
fn measure(vars: usize, rounds: usize, replicas: usize, durability: DurabilityMode) -> Measured {
    let clock = SimClock::new();
    let graph = DcnSpec::sized_for_variables("dcX", vars).build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new(
        [DatacenterId::new("dcX")],
        clock.clone(),
        StorageConfig {
            ring: ClusterConfig {
                replicas,
                durability,
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
    let obs = Obs::new();
    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig {
            // Steady-state only: a periodic forced resync inside the
            // sample window would mix full-write rounds into the mean.
            monitor_resync_every: Some(u64::MAX),
            obs: Some(obs.clone()),
            ..Default::default()
        },
    );
    let traced = |label: &str, allocs: Allocs| {
        let tree = obs.traces.last().expect("a traced round").stages;
        println!(
            "{label} round: {} allocations ({:.1} MB) for {} rows written\n{}",
            allocs.count,
            allocs.bytes as f64 / 1e6,
            allocs.rows,
            tree.render()
        );
        (tree, allocs)
    };
    let tick = |what: &str| counted(|| coord.tick().expect(what).rows_written);

    let (seed, seed_allocs) = traced("seed", tick("seed round"));
    let (state_bytes, state_rows) = storage.state_bytes();
    let bytes_per_var = if state_rows > 0 {
        state_bytes as f64 / state_rows as f64
    } else {
        0.0
    };

    let quiescent = (0..rounds)
        .map(|_| traced("quiescent", tick("quiescent round")).0)
        .collect();
    let (churn, churn_allocs) = (0..rounds)
        .map(|_| {
            // Advance first so every measured tick sees one simulated
            // minute of telemetry churn (tick_and_advance steps after the
            // tick, which would leave the last round's churn unmeasured).
            net.step(SimDuration::from_mins(1));
            traced("churn", tick("churn round"))
        })
        .unzip();

    Measured {
        vars_seeded: state_rows as usize,
        seed,
        seed_allocs,
        quiescent,
        churn,
        churn_allocs,
        bytes_per_var,
        wal: storage.wal_stats(),
    }
}
