//! Multi-group round scaling over the sharded storage plane: full-scan
//! coordinator rounds at a fixed total variable count, split across
//! 1/2/4/8 datacenter partitions (= impact groups).
//!
//! The claim under test: with per-partition ring locks, the parallel
//! checker threads, the updater's per-partition diff fan-out, and the
//! proxy's concurrent sub-batch dispatch actually overlap — so the same
//! total state costs less per round as groups are added. Under the old
//! global storage mutex the threads serialized on every read and write,
//! and added groups bought nothing.
//!
//! The state plane runs in snapshot mode (`delta_state_plane: false`):
//! full pool rewrites + full re-reads every round maximize under-lock
//! traffic, which is exactly the contention being measured. Invariants
//! are off so the measurement isolates state-plane cost.
//!
//! ```text
//! STATESMAN_BENCH_VARS=394000 STATESMAN_BENCH_GROUPS=1,2,4,8 \
//!     cargo run --release -p statesman-bench --bin parallel_rounds
//! ```
//!
//! Emits `BENCH_parallel_rounds.json` (groups → round latency) in the
//! working directory, and a `csv,`-prefixed line per group.
//!
//! Alongside wall time, each group count reports `lock_wait_ms`: the
//! cumulative time round threads spent blocked on partition ring locks
//! (from `StorageService::lock_wait_stats`). Wall-clock speedup needs
//! multiple cores; vanishing lock wait under concurrent round stages is
//! the lock-sharding property itself, observable on any host.

use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService, WriteRequest};
use statesman_topology::{DcnSpec, DeploymentSpec};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, NetworkState, Pool, SimDuration, Value,
};

const ROUNDS: usize = 3;

/// Update-plan shape of one TS-churn round: (steps, waves, max_width).
type PlanShape = (usize, usize, usize);

/// Mean per-round stage latencies (ms): where a round actually spends
/// its wall clock, so scaling regressions point at a stage instead of a
/// guess. Monitor and updater split into their pipeline stages; the
/// checker is one measured compute block.
#[derive(Default, Clone, Copy)]
struct StageBreakdown {
    monitor_poll_ms: f64,
    monitor_diff_ms: f64,
    monitor_write_ms: f64,
    checker_ms: f64,
    updater_read_ms: f64,
    updater_diff_ms: f64,
    updater_exec_ms: f64,
}

fn main() {
    let vars: usize = std::env::var("STATESMAN_BENCH_VARS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(394_000);
    let groups: Vec<usize> = std::env::var("STATESMAN_BENCH_GROUPS")
        .ok()
        .unwrap_or_else(|| "1,2,4,8".to_string())
        .split(',')
        .filter_map(|g| g.trim().parse().ok())
        .filter(|&g| g >= 1)
        .collect();

    let workers = statesman_core::default_worker_threads();
    // CI scaling gate: with STATESMAN_BENCH_MIN_SPEEDUP set (e.g. 0.95),
    // the binary fails if any group count's speedup over the 1-group
    // baseline falls below it — negative scaling becomes a red build
    // instead of a number in an artifact nobody reads.
    let min_speedup: Option<f64> = std::env::var("STATESMAN_BENCH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut base_ms: Option<f64> = None;
    for &g in &groups {
        let (round_ms, lock_wait_ms, stages, (plan_steps, plan_waves, plan_width)) =
            measure(vars, g);
        let speedup = base_ms.get_or_insert(round_ms).max(f64::MIN_POSITIVE) / round_ms;
        println!(
            "csv,parallel_rounds,{vars},{g},{round_ms:.1},{speedup:.2},{lock_wait_ms:.1},\
             {plan_steps},{plan_waves},{plan_width}"
        );
        if let Some(min) = min_speedup {
            assert!(
                speedup >= min,
                "negative scaling: {g} groups at {speedup:.2}x \
                 (below the {min:.2}x gate)"
            );
        }
        rows.push(vec![
            g.to_string(),
            format!("{round_ms:.1}"),
            format!("{speedup:.2}x"),
            format!("{lock_wait_ms:.1}"),
            format!(
                "{:.0}/{:.0}/{:.0}",
                stages.monitor_poll_ms, stages.monitor_diff_ms, stages.monitor_write_ms
            ),
            format!("{:.0}", stages.checker_ms),
            format!(
                "{:.0}/{:.0}/{:.0}",
                stages.updater_read_ms, stages.updater_diff_ms, stages.updater_exec_ms
            ),
            format!("{plan_steps}/{plan_waves}/{plan_width}"),
        ]);
        json_rows.push(format!(
            "    {{ \"groups\": {g}, \"round_ms\": {round_ms:.1}, \"speedup\": {speedup:.2}, \
             \"lock_wait_ms\": {lock_wait_ms:.1}, \
             \"stages\": {{ \"monitor_poll_ms\": {:.1}, \"monitor_diff_ms\": {:.1}, \
             \"monitor_write_ms\": {:.1}, \"checker_ms\": {:.1}, \"updater_read_ms\": {:.1}, \
             \"updater_diff_ms\": {:.1}, \"updater_exec_ms\": {:.1} }}, \
             \"plan_steps\": {plan_steps}, \
             \"plan_waves\": {plan_waves}, \"plan_max_width\": {plan_width} }}",
            stages.monitor_poll_ms,
            stages.monitor_diff_ms,
            stages.monitor_write_ms,
            stages.checker_ms,
            stages.updater_read_ms,
            stages.updater_diff_ms,
            stages.updater_exec_ms,
        ));
    }
    println!();
    println!(
        "parallel_rounds: {vars} total variables, full-scan plane, {ROUNDS}-round median, \
         {workers} worker threads"
    );
    print!(
        "{}",
        statesman_bench::report::table(
            &[
                "groups",
                "round_ms",
                "speedup",
                "lock_wait_ms",
                "mon p/d/w",
                "chk_ms",
                "upd r/d/x",
                "plan s/w/width"
            ],
            &rows
        )
    );

    let json = format!(
        "{{\n  \"bench\": \"parallel_rounds\",\n  \"vars\": {vars},\n  \
         \"worker_threads\": {workers},\n  \"rounds\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_parallel_rounds.json", json).expect("write BENCH_parallel_rounds.json");
}

/// Median round latency (ms), mean per-round partition-lock wait (ms),
/// mean per-round stage breakdown, and the update-plan shape of a
/// trailing TS-churn round, for `vars` total variables split across `g`
/// equally sized datacenter partitions.
fn measure(vars: usize, g: usize) -> (f64, f64, StageBreakdown, PlanShape) {
    let clock = SimClock::new();
    let dcns: Vec<DcnSpec> = (1..=g)
        .map(|i| DcnSpec::sized_for_variables(format!("dc{i}"), vars / g))
        .collect();
    let dc_ids: Vec<DatacenterId> = dcns.iter().map(|d| DatacenterId::new(&d.name)).collect();
    let graph = DeploymentSpec {
        dcns,
        wan: None,
        br_core_mbps: 100_000.0,
    }
    .build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new(
        dc_ids,
        clock.clone(),
        StorageConfig {
            ring: ClusterConfig {
                replicas: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    // StorageService clones share state: the bench keeps a handle so it
    // can read contention stats without going through the coordinator.
    let storage_probe = storage.clone();
    let coord = Coordinator::new(
        &graph,
        net,
        storage,
        CoordinatorConfig {
            connectivity_invariant: false,
            capacity_invariant: None,
            wan_invariant: None,
            delta_state_plane: false,
            parallel_checkers: true,
            monitor_instances: Some(g),
            ..Default::default()
        },
    );
    coord.tick().expect("seed round");
    let wait_before = storage_probe.lock_wait_stats();
    let mut stages = StageBreakdown::default();
    let mut samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = std::time::Instant::now();
            let r = coord
                .tick_and_advance(SimDuration::from_mins(1))
                .expect("round");
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            stages.monitor_poll_ms += ms(r.monitor.stage_poll);
            stages.monitor_diff_ms += ms(r.monitor.stage_diff);
            stages.monitor_write_ms += ms(r.monitor.stage_write);
            stages.checker_ms += r.latency_breakdown_ms().1;
            stages.updater_read_ms += ms(r.updater.stage_read);
            stages.updater_diff_ms += ms(r.updater.stage_diff);
            stages.updater_exec_ms += ms(r.updater.stage_exec);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let n = ROUNDS as f64;
    for s in [
        &mut stages.monitor_poll_ms,
        &mut stages.monitor_diff_ms,
        &mut stages.monitor_write_ms,
        &mut stages.checker_ms,
        &mut stages.updater_read_ms,
        &mut stages.updater_diff_ms,
        &mut stages.updater_exec_ms,
    ] {
        *s /= n;
    }
    let lock_wait_ms = (storage_probe.lock_wait_stats() - wait_before) as f64 / 1e3 / ROUNDS as f64;
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());

    // Trailing TS-churn round: retarget firmware on one agg per pod (up
    // to 8 pods per DC), then let the planned updater compile and run
    // the difference set. The reported shape is the plan's available
    // parallelism — pods and DCs are independent segments, so max_width
    // must reach the step count (and in particular grow with `g`).
    let mut targets: Vec<(DatacenterId, EntityName)> = graph
        .nodes()
        .filter_map(|(_, n)| {
            let local = n.name.as_str().rsplit('.').next().unwrap_or("");
            (local.starts_with("agg-") && local.ends_with("-1")).then(|| {
                (
                    n.datacenter.clone(),
                    EntityName::device(n.datacenter.clone(), n.name.clone()),
                )
            })
        })
        .collect();
    targets.sort();
    let mut per_dc = std::collections::HashMap::new();
    targets.retain(|(dc, _)| {
        let seen = per_dc.entry(dc.clone()).or_insert(0usize);
        *seen += 1;
        *seen <= 8
    });
    let now = clock.now();
    let rows: Vec<NetworkState> = targets
        .iter()
        .map(|(_, e)| {
            NetworkState::new(
                e.clone(),
                Attribute::DeviceFirmwareVersion,
                Value::text("bench-9"),
                now,
                AppId::new("bench-plan"),
            )
        })
        .collect();
    storage_probe
        .write(WriteRequest {
            pool: Pool::Target,
            rows,
        })
        .expect("write churn TS");
    let report = coord
        .tick_and_advance(SimDuration::from_mins(1))
        .expect("churn round");
    let plan = (
        report.updater.plan_steps,
        report.updater.plan_waves,
        report.updater.plan_max_width,
    );
    (samples[samples.len() / 2], lock_wait_ms, stages, plan)
}
