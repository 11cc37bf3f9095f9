//! Composable chaos harness for the Statesman control loop.
//!
//! A [`ChaosPlan`] composes faults across every layer the service touches —
//! device crashes and management-plane outages (network layer), storage
//! partition outages (storage layer), probabilistic command failures and
//! link flapping (device layer), and an application blackout window
//! (client layer) — all derived deterministically from a single seed.
//!
//! [`ChaosScenario`] drives a full Statesman instance (monitor → checkers →
//! updater via [`Coordinator`]) against that plan while a management
//! application keeps proposing changes, and checks the two properties the
//! paper's design is supposed to buy:
//!
//! - **Safety**: at every sampled instant of *ground truth* (not the
//!   possibly-stale observed state), every pod retains at least one
//!   operational aggregation switch. The checker may only ever take down
//!   capacity the invariants allow, no matter which faults fire or how
//!   stale the OS pools get.
//! - **Liveness**: once the last fault heals, the network converges to the
//!   application's target state within a bounded number of rounds, and the
//!   updater goes quiescent (`diffs == 0`).
//!
//! The scenario deliberately splits intent from chaos: the app upgrades
//! firmware on the pod-1 aggs (which chaos never crashes, so any pod-1
//! capacity loss beyond one agg is the checker's fault) and retargets the
//! boot image on `agg-2-1` (which chaos *does* crash, exercising the
//! quarantine-rejection path end to end).

use rand::{rngs::StdRng, Rng, SeedableRng};
use statesman_core::{Coordinator, CoordinatorConfig, MapView, StatesmanClient};
use statesman_httpapi::{ApiClient, ApiServer, ServerConfig};
use statesman_net::{FaultPlan, SimClock, SimConfig, SimNetwork};
use statesman_obs::Obs;
use statesman_storage::{
    DurabilityMode, HashChainChecker, RecoverySafetyChecker, StorageConfig, StorageService,
    WalCorruption,
};
use statesman_topology::DcnSpec;
use statesman_types::{
    Attribute, DatacenterId, DeviceName, EntityName, Freshness, RetryPolicy, SimDuration, SimTime,
    Value, Version,
};
use std::collections::HashSet;

/// A kill -9-style crash of one storage replica: process state is
/// dropped on the floor, durable WAL/snapshot files survive, and the
/// replica restarts through the recovery path at `at + down` — after
/// the scheduled `corruption` (if any) has been injected into its
/// durable files, which recovery must repair (torn tail) or refuse
/// (mid-log bit flip) without losing acknowledged writes.
#[derive(Debug, Clone)]
pub struct ReplicaKill {
    /// Which replica of the partition's ring to kill.
    pub replica: u8,
    /// When the kill fires (absolute simulated time).
    pub at: SimTime,
    /// How long the replica stays down before recovery runs.
    pub down: SimDuration,
    /// Durable-file corruption injected while the replica is down.
    pub corruption: WalCorruption,
}

/// A seeded composition of faults across the network, storage, and
/// application layers. All windows are absolute simulated times.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed for the simulator RNG (command failure rolls, link flaps).
    pub seed: u64,
    /// Hard crashes: `(device, at, down)` — restored at `at + down`.
    pub device_outages: Vec<(DeviceName, SimTime, SimDuration)>,
    /// Management-plane-only outages: the device keeps forwarding but
    /// polls fail and commands time out.
    pub mgmt_outages: Vec<(DeviceName, SimTime, SimDuration)>,
    /// Storage partition outages: `(dc, at, down)` — the partition's reads
    /// and writes fail inside the window.
    pub partition_outages: Vec<(DatacenterId, SimTime, SimDuration)>,
    /// Application blackout: the proposing app is down in this window and
    /// neither proposes nor drains receipts (crash/restart).
    pub app_blackout: Option<(SimTime, SimDuration)>,
    /// Storage replica kill -9 + restart events (durable-storage chaos).
    pub replica_kills: Vec<ReplicaKill>,
    /// Probability each device command is rejected outright.
    pub command_failure_prob: f64,
    /// Probability each device command times out.
    pub command_timeout_prob: f64,
    /// Per-minute probability each link starts flapping.
    pub link_flap_prob_per_min: f64,
    /// How long a flap keeps the link down.
    pub link_flap_duration: SimDuration,
}

impl ChaosPlan {
    /// A fault-free plan: the scenario reduces to a plain convergence run.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            device_outages: Vec::new(),
            mgmt_outages: Vec::new(),
            partition_outages: Vec::new(),
            app_blackout: None,
            replica_kills: Vec::new(),
            command_failure_prob: 0.0,
            command_timeout_prob: 0.0,
            link_flap_prob_per_min: 0.0,
            link_flap_duration: SimDuration::ZERO,
        }
    }

    /// The standard multi-layer plan, derived deterministically from
    /// `seed`: crash `agg-2-1`, black out `tor-2-1`'s management plane,
    /// take the `dc1` storage partition down, restart the app, and run
    /// lossy/flappy device interactions throughout.
    pub fn standard(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A05);
        let minute = |m: u64| SimTime::from_secs(60 * m);
        let crash_at = minute(rng.gen_range(4..7u64));
        let crash_down = SimDuration::from_mins(rng.gen_range(6..10u64));
        let mgmt_at = minute(rng.gen_range(2..5u64));
        let part_at = minute(rng.gen_range(8..11u64));
        let app_at = minute(rng.gen_range(3..6u64));
        ChaosPlan {
            seed,
            device_outages: vec![(DeviceName::new("agg-2-1"), crash_at, crash_down)],
            mgmt_outages: vec![(
                DeviceName::new("tor-2-1"),
                mgmt_at,
                SimDuration::from_mins(3),
            )],
            partition_outages: vec![(DatacenterId::new("dc1"), part_at, SimDuration::from_mins(2))],
            app_blackout: Some((app_at, SimDuration::from_mins(3))),
            replica_kills: Vec::new(),
            command_failure_prob: 0.1,
            command_timeout_prob: 0.1,
            link_flap_prob_per_min: 0.01,
            link_flap_duration: SimDuration::from_secs(45),
        }
    }

    /// The upgrade-race plan: the standard multi-layer composition with
    /// link flapping turned up hard (4%/minute, 90-second outages), so
    /// the rolling firmware reboots race real link failures. This is the
    /// scenario the updater's in-flight checks exist for: the checker
    /// validated each upgrade against an observed state that flaps keep
    /// invalidating between acceptance and execution.
    pub fn upgrade_race(seed: u64) -> Self {
        let mut plan = ChaosPlan::standard(seed);
        plan.link_flap_prob_per_min = 0.04;
        plan.link_flap_duration = SimDuration::from_secs(90);
        plan
    }

    /// Install the network-layer slice of this plan into a [`FaultPlan`].
    /// (Partition outages and the app blackout live above the simulator
    /// and are driven by [`ChaosScenario::run`].)
    pub fn install(&self, mut faults: FaultPlan) -> FaultPlan {
        faults.command_failure_prob = self.command_failure_prob;
        faults.command_timeout_prob = self.command_timeout_prob;
        if self.link_flap_prob_per_min > 0.0 {
            faults =
                faults.with_link_flapping(self.link_flap_prob_per_min, self.link_flap_duration);
        }
        for (d, at, down) in &self.device_outages {
            faults = faults.with_device_outage(d, *at, *down);
        }
        for (d, at, down) in &self.mgmt_outages {
            faults = faults.with_mgmt_outage(d, *at, *down);
        }
        faults
    }

    /// The instant the last scheduled (non-probabilistic) fault heals.
    pub fn last_heal(&self) -> SimTime {
        let mut heal = SimTime::ZERO;
        for (_, at, down) in &self.device_outages {
            heal = heal.max(*at + *down);
        }
        for (_, at, down) in &self.mgmt_outages {
            heal = heal.max(*at + *down);
        }
        for (_, at, down) in &self.partition_outages {
            heal = heal.max(*at + *down);
        }
        if let Some((at, down)) = self.app_blackout {
            heal = heal.max(at + down);
        }
        for k in &self.replica_kills {
            heal = heal.max(k.at + k.down);
        }
        heal
    }
}

/// What a scenario run observed. `PartialEq` so determinism can be
/// asserted by comparing two whole runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Rounds actually driven.
    pub rounds_run: usize,
    /// First round index at which the target state was realized on the
    /// ground truth AND the updater was quiescent; `None` = never.
    pub converged_at: Option<usize>,
    /// Ground-truth invariant violations, one message per (round, pod)
    /// where a pod lost all aggregation switches. Must stay empty.
    pub safety_violations: Vec<String>,
    /// Rounds that ran in degraded mode (storage partition down).
    pub degraded_rounds: usize,
    /// Peak simultaneous quarantined devices seen in any round.
    pub max_quarantined: usize,
    /// Proposal rows rejected because they touched a quarantined device.
    pub quarantine_rejections: usize,
    /// Device commands that failed (after any in-round retries).
    pub commands_failed: usize,
    /// In-round updater retries performed.
    pub updater_retries: usize,
    /// Circuit breakers opened.
    pub breakers_opened: usize,
    /// Storage-layer submit retries (cumulative at end of run).
    pub storage_retries: u64,
    /// Coordinator ticks that returned an error (must stay 0: faults are
    /// supposed to degrade rounds, not abort them).
    pub tick_errors: usize,
    /// Storage replicas kill -9'd by the plan.
    pub replicas_killed: usize,
    /// Replicas restarted through the recovery path.
    pub recoveries_completed: usize,
    /// Torn tail records truncated and repaired across all recoveries.
    pub recovery_truncated_records: u64,
    /// Recoveries that refused a corrupted log and restarted from the
    /// snapshot alone (rejoining via leader catch-up).
    pub recovery_refusals: usize,
    /// Recovery-safety violations: a restarted replica came back below
    /// its highest observed committed decree. Must stay empty.
    pub recovery_violations: Vec<String>,
    /// Hash-chain violations found by the continuous per-round store
    /// verification. Must stay empty (injected corruption is only ever
    /// present on a killed replica, whose window is excluded).
    pub chain_violations: Vec<String>,
    /// Partition watermark regressions across a kill + recovery: the
    /// post-recovery watermark fell below the pre-kill one, i.e. an
    /// acknowledged write was lost. Must stay empty.
    pub watermark_regressions: Vec<String>,
    /// Update-plan steps synthesized across the run.
    pub plan_steps: usize,
    /// Peak single-round plan width (available update parallelism).
    pub plan_max_width: usize,
    /// Steps withheld by an in-flight invariant check across the run.
    pub plan_inflight_rejections: usize,
    /// Steps rolled back after every rendered command failed.
    pub plan_rollbacks: usize,
}

/// What the HTTP-layer stress rig observed during a
/// [`ChaosScenario::run_with_api_stress`] run: slow-loris connections,
/// connection churn, and overload bursts hammer an [`ApiServer`] fronting
/// the scenario's storage while the control loop runs. The stress
/// traffic is read-only (health probes and half-sent requests), so the
/// [`ScenarioOutcome`] must stay bit-identical to an unstressed run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ApiStressOutcome {
    /// Health probes answered 200 during the stress (liveness under load).
    pub health_ok: usize,
    /// Requests shed 429 with a `retry-after` header (admission control
    /// answering instead of the OS accept backlog silently dropping).
    pub sheds: usize,
    /// 429 sheds missing the `retry-after` header. Must stay 0.
    pub sheds_missing_retry_after: usize,
    /// TCP connects or mid-request socket failures. Must stay 0: overload
    /// is signalled with responses, not resets.
    pub connect_failures: usize,
    /// Connections opened and immediately dropped by the churn thread.
    pub churned: usize,
    /// Slow-loris connections opened (partial request head, then stall).
    pub loris_conns: usize,
    /// Slow-loris connections the server answered `408` and closed —
    /// the reactor reclaimed them without pinning any worker.
    pub loris_answered_408: usize,
    /// The server still answered a health probe after all stress threads
    /// were joined (the front end survived).
    pub final_health_ok: bool,
}

/// Shared tallies the attack threads bump while the control loop runs.
#[derive(Default)]
struct StressCounters {
    health_ok: std::sync::atomic::AtomicUsize,
    sheds: std::sync::atomic::AtomicUsize,
    sheds_missing_retry_after: std::sync::atomic::AtomicUsize,
    connect_failures: std::sync::atomic::AtomicUsize,
    churned: std::sync::atomic::AtomicUsize,
    loris_conns: std::sync::atomic::AtomicUsize,
    loris_answered_408: std::sync::atomic::AtomicUsize,
}

/// The live half of the stress rig: a deliberately tight [`ApiServer`]
/// over the scenario's storage, plus the three attack threads hammering
/// it — slow-loris, connection churn, and overload bursts.
struct StressRig {
    server: ApiServer,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    counters: std::sync::Arc<StressCounters>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl StressRig {
    /// Start the stressed server (2 workers, 8-deep queue, 16-connection
    /// limit, 150 ms idle timeout — tight enough that the attacks
    /// actually hit every admission edge) and launch the attack threads.
    fn start(storage: StorageService) -> StressRig {
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        use std::sync::Arc;
        use std::time::Duration;

        let server = ApiServer::start_with_config(
            storage,
            ServerConfig {
                workers: 2,
                queue_depth: 8,
                max_connections: 16,
                idle_timeout: Duration::from_millis(150),
                retry_after: Duration::from_millis(200),
                ..ServerConfig::default()
            },
            None,
        )
        .expect("start stress api server");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(StressCounters::default());
        let mut threads = Vec::new();

        // Slow-loris: half-sent request heads that stall past the idle
        // timeout. The reactor must answer each with 408 and reclaim the
        // socket — no worker ever sees these. One pass: connect while
        // slots are still free (the overload thread waits 100 ms), stall,
        // then read the verdicts.
        {
            let c = counters.clone();
            threads.push(std::thread::spawn(move || {
                let mut conns = Vec::new();
                for _ in 0..8 {
                    match TcpStream::connect(addr) {
                        Ok(mut s) => {
                            if s.write_all(b"GET /v1/health HTT").is_ok() {
                                c.loris_conns.fetch_add(1, Relaxed);
                                conns.push(s);
                            }
                        }
                        Err(_) => {
                            c.connect_failures.fetch_add(1, Relaxed);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(400));
                for mut s in conns {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                    let mut buf = Vec::new();
                    let _ = s.read_to_end(&mut buf);
                    if buf.starts_with(b"HTTP/1.1 408") {
                        c.loris_answered_408.fetch_add(1, Relaxed);
                    }
                }
            }));
        }

        // Connection churn: connect and drop as fast as possible; the
        // reactor sees EOF and reclaims each slot.
        {
            let c = counters.clone();
            let stop = stop.clone();
            threads.push(std::thread::spawn(move || {
                while !stop.load(Relaxed) {
                    match TcpStream::connect(addr) {
                        Ok(s) => {
                            drop(s);
                            c.churned.fetch_add(1, Relaxed);
                        }
                        Err(_) => {
                            c.connect_failures.fetch_add(1, Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }));
        }

        // Overload bursts: 32 clients against a 16-connection limit, then
        // one health probe. Every client must get a real response — 200,
        // 408, or 429 carrying retry-after — never a reset. Burst clients
        // connect and send nothing: an admitted one holds its slot until
        // the reactor's idle timeout answers it 408, so once the slots
        // are held every further connect that reaches the accept loop
        // within that window is shed, whatever order the threads run in.
        // Bursts go on past `stop` until one has shed and one probe has
        // passed, so neither count rests on a single burst. The initial
        // sleep leaves the first free slots to the loris so its 408s are
        // deterministic.
        {
            let c = counters.clone();
            let stop = stop.clone();
            // Send `request` on `conn` and tally the answer.
            let exchange =
                |c: &StressCounters, conn: std::io::Result<TcpStream>, request: &[u8]| {
                    let mut buf = Vec::new();
                    let answered = conn.is_ok_and(|mut s| {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                        s.write_all(request).is_ok() && s.read_to_end(&mut buf).is_ok()
                    });
                    if !answered || buf.is_empty() {
                        c.connect_failures.fetch_add(1, Relaxed);
                    } else if buf.starts_with(b"HTTP/1.1 200") {
                        c.health_ok.fetch_add(1, Relaxed);
                    } else if buf.starts_with(b"HTTP/1.1 429") {
                        c.sheds.fetch_add(1, Relaxed);
                        let head = String::from_utf8_lossy(&buf).to_lowercase();
                        if !head.contains("\r\nretry-after:") {
                            c.sheds_missing_retry_after.fetch_add(1, Relaxed);
                        }
                    }
                };
            threads.push(std::thread::spawn(move || {
                let mut bursts_after_stop = 0;
                loop {
                    if stop.load(Relaxed) {
                        let seen = c.sheds.load(Relaxed) > 0 && c.health_ok.load(Relaxed) > 0;
                        if seen || bursts_after_stop == 200 {
                            break;
                        }
                        bursts_after_stop += 1;
                    }
                    std::thread::sleep(Duration::from_millis(if c.health_ok.load(Relaxed) == 0 {
                        100
                    } else {
                        50
                    }));
                    let connected = std::sync::Barrier::new(32);
                    std::thread::scope(|scope| {
                        for _ in 0..32 {
                            scope.spawn(|| {
                                let conn = TcpStream::connect(addr);
                                connected.wait();
                                exchange(&c, conn, b"");
                            });
                        }
                    });
                    let probe =
                        b"GET /v1/health HTTP/1.1\r\nhost: chaos\r\nconnection: close\r\n\r\n";
                    exchange(&c, TcpStream::connect(addr), probe);
                }
            }));
        }

        StressRig {
            server,
            stop,
            counters,
            threads,
        }
    }

    /// Stop the attacks, join every thread, probe the survivor, and fold
    /// the counters into an [`ApiStressOutcome`].
    fn finish(self) -> ApiStressOutcome {
        use std::sync::atomic::Ordering::Relaxed;
        self.stop.store(true, Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
        let final_health_ok = ApiClient::new(self.server.addr())
            .raw_request("GET", "/v1/health", &[])
            .map(|r| r.status == 200)
            .unwrap_or(false);
        let c = &self.counters;
        ApiStressOutcome {
            health_ok: c.health_ok.load(Relaxed),
            sheds: c.sheds.load(Relaxed),
            sheds_missing_retry_after: c.sheds_missing_retry_after.load(Relaxed),
            connect_failures: c.connect_failures.load(Relaxed),
            churned: c.churned.load(Relaxed),
            loris_conns: c.loris_conns.load(Relaxed),
            loris_answered_408: c.loris_answered_408.load(Relaxed),
            final_health_ok,
        }
    }
}

/// What the out-of-process changefeed consumer observed during a
/// [`ChaosScenario::run_with_wire_reader`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireReaderOutcome {
    /// Rounds where the delta-maintained view was cross-checked against a
    /// full wire read.
    pub rounds_compared: usize,
    /// Cross-check failures, one message per diverged round. Must stay
    /// empty: a delta-fed view that drifts from the full read is a
    /// correctness bug, chaos or not.
    pub mismatches: Vec<String>,
    /// Reads the server answered as incremental deltas.
    pub delta_reads: usize,
    /// Reads the server answered as full snapshots (watermark out of the
    /// change index's window).
    pub snapshot_fallbacks: usize,
    /// Rounds where the wire read failed outright (partition down); the
    /// consumer just retries from the same watermark next round.
    pub unavailable_rounds: usize,
}

/// Drives a full Statesman instance on the tiny 2-pod DCN against a
/// [`ChaosPlan`] while an application pursues a fixed intent.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// The fault composition to run under.
    pub plan: ChaosPlan,
    /// Maximum rounds to drive.
    pub rounds: usize,
    /// Simulated time advanced per round.
    pub step: SimDuration,
    /// When the application starts pursuing its intent. Deliberately
    /// inside the fault windows, so the upgrade campaign has to run
    /// *through* the chaos rather than finishing before it starts.
    pub intent_at: SimTime,
    /// Storage durability backend for the scenario's rings. `Memory` (the
    /// default) keeps the historical logical event store; crash-restart
    /// scenarios use `FramedMemory` or `Dir` so kills exercise the real
    /// byte-framed WAL + snapshot + recovery path.
    pub durability: DurabilityMode,
    /// Print a one-line summary per round (for debugging chaos runs).
    pub verbose: bool,
    /// Flash-crowd TE churn: while the upgrade campaign runs, a traffic
    /// app keeps re-routing a pod-1 path between the two aggs (the
    /// devices mid-reboot), alternating every other round until a fixed
    /// cutoff, so routing updates race the firmware rolls.
    pub te_churn: bool,
}

impl ChaosScenario {
    /// The standard scenario: 30 one-minute rounds under
    /// [`ChaosPlan::standard`].
    pub fn standard(seed: u64) -> Self {
        ChaosScenario {
            plan: ChaosPlan::standard(seed),
            rounds: 30,
            step: SimDuration::from_mins(1),
            intent_at: SimTime::from_secs(3 * 60),
            durability: DurabilityMode::Memory,
            verbose: false,
            te_churn: false,
        }
    }

    /// The upgrade-race scenario: [`ChaosPlan::upgrade_race`] (heavy
    /// link flapping under the rolling firmware campaign) plus
    /// flash-crowd TE churn re-routing traffic between the rebooting
    /// aggs, with extra rounds so convergence is still reachable after
    /// the churn cutoff.
    pub fn upgrade_race(seed: u64) -> Self {
        ChaosScenario {
            plan: ChaosPlan::upgrade_race(seed),
            rounds: 36,
            step: SimDuration::from_mins(1),
            intent_at: SimTime::from_secs(3 * 60),
            durability: DurabilityMode::Memory,
            verbose: false,
            te_churn: true,
        }
    }

    /// The crash-restart scenario: the standard multi-layer plan plus a
    /// kill -9 of *each* storage replica once the other fault windows
    /// have healed — one with a torn-tail injection (recovery repairs
    /// it), one with a mid-log bit flip (recovery refuses the log and
    /// the replica rejoins via leader catch-up), one clean. Kills are
    /// spaced so the windows never overlap, and the run gets extra
    /// rounds so convergence is re-checked after the last restart.
    pub fn crash_restart(seed: u64, durability: DurabilityMode) -> Self {
        let mut plan = ChaosPlan::standard(seed);
        let minute = |m: u64| SimTime::from_secs(60 * m);
        let down = SimDuration::from_mins(1);
        plan.replica_kills = vec![
            ReplicaKill {
                replica: 0,
                at: minute(14),
                down,
                // Seed-varied torn length, derived without consuming RNG
                // draws (the standard plan's derivation must not shift).
                corruption: WalCorruption::TornTail {
                    bytes: 7 + (seed % 17) as usize,
                },
            },
            ReplicaKill {
                replica: 1,
                at: minute(16),
                down,
                corruption: WalCorruption::BitFlip,
            },
            ReplicaKill {
                replica: 2,
                at: minute(18),
                down,
                corruption: WalCorruption::None,
            },
        ];
        ChaosScenario {
            plan,
            rounds: 36,
            step: SimDuration::from_mins(1),
            intent_at: SimTime::from_secs(3 * 60),
            durability,
            verbose: false,
            te_churn: false,
        }
    }

    /// Run the scenario to completion and report what happened. Does not
    /// assert anything itself — tests decide which outcome fields matter.
    pub fn run(&self) -> ScenarioOutcome {
        self.run_inner(None, None, None)
    }

    /// Like [`ChaosScenario::run`], but with an observability handle wired
    /// through the whole stack: the coordinator records per-round metrics
    /// and traces into `obs`, and attaches the same registry to the
    /// storage service and network simulator. Afterwards the caller can
    /// scrape `obs` (or serve it over `/v1/metrics`) and cross-check the
    /// registry against the returned [`ScenarioOutcome`].
    pub fn run_with_obs(&self, obs: &Obs) -> ScenarioOutcome {
        self.run_inner(Some(obs.clone()), None, None)
    }

    /// Like [`ChaosScenario::run`], but with an out-of-process changefeed
    /// consumer riding along: an [`ApiServer`] fronts the scenario's
    /// storage, and every round a wire client advances a [`MapView`] of
    /// the observed state via `GET /v1/read?since=<watermark>` and
    /// cross-checks it against a full wire read. This is the §6.4 pull
    /// path under chaos — partition outages, quarantines, and change-index
    /// evictions all happen mid-feed.
    pub fn run_with_wire_reader(&self) -> (ScenarioOutcome, WireReaderOutcome) {
        let mut wire = WireReaderOutcome::default();
        let outcome = self.run_inner(None, Some(&mut wire), None);
        (outcome, wire)
    }

    /// Like [`ChaosScenario::run`], but with an HTTP-layer stress rig
    /// riding along: an [`ApiServer`] (small pool, tight admission
    /// limits, short idle timeout) fronts the scenario's storage, and
    /// real threads run three attack shapes against it for the duration
    /// of the run — **slow-loris** (half-sent request heads that stall),
    /// **connection churn** (connect/close as fast as possible), and
    /// **overload bursts** (more simultaneous keep-alive clients than
    /// the connection limit admits). All stress traffic is read-only, so
    /// the control loop's [`ScenarioOutcome`] must stay bit-identical to
    /// an unstressed run — the assertion that wire-layer abuse cannot
    /// leak into control-plane behavior.
    pub fn run_with_api_stress(&self) -> (ScenarioOutcome, ApiStressOutcome) {
        let mut stress = ApiStressOutcome::default();
        let outcome = self.run_inner(None, None, Some(&mut stress));
        (outcome, stress)
    }

    fn run_inner(
        &self,
        obs: Option<Obs>,
        mut wire: Option<&mut WireReaderOutcome>,
        api_stress: Option<&mut ApiStressOutcome>,
    ) -> ScenarioOutcome {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.seed = self.plan.seed;
        cfg.faults.command_latency_ms = 200;
        cfg.faults.reboot_window_ms = 90_000;
        cfg.faults = self.plan.install(cfg.faults);
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let mut scfg = StorageConfig::default();
        scfg.ring.durability = self.durability.clone();
        if !self.plan.replica_kills.is_empty() {
            // Tight snapshot cadence so kill windows land on logs that
            // have both a snapshot and a tail to replay.
            scfg.ring.snapshot_every = 24;
        }
        let storage = StorageService::new([DatacenterId::new("dc1")], clock.clone(), scfg);
        let coordinator = Coordinator::new(
            &graph,
            net.clone(),
            storage.clone(),
            CoordinatorConfig {
                obs,
                quarantine_cooldown: Some(SimDuration::from_mins(2)),
                updater_retry: Some(RetryPolicy {
                    max_attempts: 2,
                    base_backoff: SimDuration::from_secs(1),
                    max_backoff: SimDuration::from_secs(4),
                    jitter_frac: 0.5,
                }),
                updater_breaker: Some((3, SimDuration::from_mins(3))),
                ..CoordinatorConfig::default()
            },
        );
        let app = StatesmanClient::new("chaos-app", storage.clone(), clock.clone());

        // The intent. Firmware upgrades (reboot ~90s each) land on pod-1
        // aggs only, so pod-1 capacity is entirely in the checker's hands;
        // the boot-image retarget lands on the agg chaos crashes, so its
        // proposals must ride out quarantine rejections until the device
        // heals and is re-probed.
        let firmware_targets = [DeviceName::new("agg-1-1"), DeviceName::new("agg-1-2")];
        let boot_targets = [DeviceName::new("agg-2-1")];
        let dc = DatacenterId::new("dc1");

        let mut outcome = ScenarioOutcome {
            rounds_run: 0,
            converged_at: None,
            safety_violations: Vec::new(),
            degraded_rounds: 0,
            max_quarantined: 0,
            quarantine_rejections: 0,
            commands_failed: 0,
            updater_retries: 0,
            breakers_opened: 0,
            storage_retries: 0,
            tick_errors: 0,
            replicas_killed: 0,
            recoveries_completed: 0,
            recovery_truncated_records: 0,
            recovery_refusals: 0,
            recovery_violations: Vec::new(),
            chain_violations: Vec::new(),
            watermark_regressions: Vec::new(),
            plan_steps: 0,
            plan_max_width: 0,
            plan_inflight_rejections: 0,
            plan_rollbacks: 0,
        };

        // Durable-storage chaos state: per-kill lifecycle phase
        // (0 = pending, 1 = down, 2 = recovered), the pre-kill partition
        // watermark each recovery is checked against, and the two
        // continuously asserted invariant checkers.
        let mut kill_phase = vec![0u8; self.plan.replica_kills.len()];
        let mut pre_watermarks: Vec<Option<Version>> = vec![None; self.plan.replica_kills.len()];
        let mut recovery_checker = RecoverySafetyChecker::default();
        let mut chain_checker = HashChainChecker::default();
        // Receipts the app has taken so far, and how many replica pairs
        // the determinism check has compared.
        let mut delivered: HashSet<String> = HashSet::new();
        let mut determinism_pairs = 0;
        let replicas_per_ring = 3u8;

        // The out-of-process changefeed consumer: an API server over the
        // same storage, and a view advanced purely by `since=` reads.
        let wire_rig = wire.as_ref().map(|_| {
            let server = ApiServer::start(storage.clone()).expect("start api server");
            let client = ApiClient::new(server.addr());
            (server, client)
        });
        let mut wire_view = MapView::new();
        let mut wire_watermark = Version::GENESIS;

        // The HTTP stress rig: real attack threads against a tight API
        // server fronting the same storage, for the whole round loop.
        let stress_rig = api_stress
            .as_ref()
            .map(|_| StressRig::start(storage.clone()));

        let fw_done = |net: &SimNetwork, d: &DeviceName| {
            net.device_snapshot(d)
                .map(|s| s.firmware == "7.0")
                .unwrap_or(false)
        };
        let boot_done = |net: &SimNetwork, d: &DeviceName| {
            net.device_snapshot(d)
                .map(|s| s.boot_image == "golden")
                .unwrap_or(false)
        };

        for round in 0..self.rounds {
            outcome.rounds_run = round + 1;
            let now = clock.now();

            // Storage-layer faults: toggle partition availability per the
            // schedule (the storage service has no scheduler of its own).
            for (part, at, down) in &self.plan.partition_outages {
                storage.set_partition_available(part, !(now >= *at && now < *at + *down));
            }

            // Durable-storage faults: kill -9, corrupt, and restart
            // replicas per the schedule. Completions run before new kills
            // so back-to-back windows never overlap.
            for (k, kill) in self.plan.replica_kills.iter().enumerate() {
                if kill_phase[k] == 1 && now >= kill.at + kill.down {
                    kill_phase[k] = 2;
                    if let Some(summary) = storage.complete_replica_recovery(&dc, kill.replica) {
                        outcome.recoveries_completed += 1;
                        outcome.recovery_truncated_records += summary.truncated_records;
                        if summary.refused {
                            outcome.recovery_refusals += 1;
                        }
                    }
                    // Post-rejoin safety: the replica must be back at or
                    // above the highest committed decree observed live.
                    let through = storage.replica_applied_through(&dc, kill.replica);
                    recovery_checker.check_recovery("dc1", kill.replica, through);
                    // Zero acknowledged-write loss, end to end: the
                    // partition watermark never regresses across a
                    // kill + recovery.
                    if let (Some(pre), Ok(post)) =
                        (pre_watermarks[k], storage.partition_watermark(&dc))
                    {
                        if post < pre {
                            outcome.watermark_regressions.push(format!(
                                "kill {k}: partition watermark regressed {pre:?} -> {post:?} \
                                 across replica {} recovery",
                                kill.replica
                            ));
                        }
                    }
                }
                if kill_phase[k] == 0 && now >= kill.at {
                    kill_phase[k] = 1;
                    outcome.replicas_killed += 1;
                    pre_watermarks[k] = storage.partition_watermark(&dc).ok();
                    for r in 0..replicas_per_ring {
                        recovery_checker.observe_committed(
                            "dc1",
                            r,
                            storage.replica_applied_through(&dc, r),
                        );
                    }
                    storage.begin_replica_recovery(&dc, kill.replica);
                    if kill.corruption != WalCorruption::None {
                        storage.corrupt_replica_wal(&dc, kill.replica, &kill.corruption);
                    }
                }
            }

            // Application layer: while alive, drain receipts and re-propose
            // every not-yet-realized target. Proposals may fail while the
            // partition is down — the app just tries again next round.
            let app_alive = match self.plan.app_blackout {
                Some((at, down)) => !(now >= at && now < at + down),
                None => true,
            };
            if app_alive && now >= self.intent_at {
                // Exactly-once delivery: no receipt comes back twice.
                for receipt in app.take_receipts().unwrap_or_default() {
                    assert!(
                        delivered.insert(format!("{receipt:?}")),
                        "seed {}: round {round}: receipt delivered twice: {receipt}",
                        self.plan.seed
                    );
                }
                let mut wanted = Vec::new();
                for d in &firmware_targets {
                    if !fw_done(&net, d) {
                        wanted.push((
                            EntityName::device(dc.clone(), d.clone()),
                            Attribute::DeviceFirmwareVersion,
                            Value::text("7.0"),
                        ));
                    }
                }
                for d in &boot_targets {
                    if !boot_done(&net, d) {
                        wanted.push((
                            EntityName::device(dc.clone(), d.clone()),
                            Attribute::DeviceBootImage,
                            Value::text("golden"),
                        ));
                    }
                }
                if !wanted.is_empty() {
                    let _ = app.propose(wanted);
                }
                // Flash-crowd TE churn: a traffic app keeps re-routing a
                // pod-1 path between the two aggs mid-upgrade, flipping
                // the middle hop (and the allocation) every other round
                // until a fixed cutoff so convergence stays reachable.
                if self.te_churn && round < 14 {
                    let flip = (round / 2) % 2;
                    let mid = if flip == 0 { "agg-1-1" } else { "agg-1-2" };
                    let path = EntityName::path(dc.clone(), "te:flash-crowd");
                    let _ = app.propose([
                        (
                            path.clone(),
                            Attribute::PathSwitches,
                            Value::DeviceList(vec![
                                DeviceName::new("tor-1-1"),
                                DeviceName::new(mid),
                                DeviceName::new("tor-1-2"),
                            ]),
                        ),
                        (
                            path,
                            Attribute::PathTrafficAllocation,
                            Value::Float(if flip == 0 { 500.0 } else { 900.0 }),
                        ),
                    ]);
                }
            }

            // One control-loop round, then advance the world.
            match coordinator.tick_and_advance(self.step) {
                Ok(report) => {
                    if self.verbose {
                        println!(
                            "round {round}: accepted={} rejected={} q_rej={} diffs={} \
                             applied={} failed={} retries={} quarantined={} degraded={:?} \
                             unreachable={}",
                            report.accepted(),
                            report.rejected(),
                            report.quarantine_rejected(),
                            report.updater.diffs,
                            report.updater.commands_applied,
                            report.updater.commands_failed,
                            report.updater.retries,
                            report.devices_quarantined(),
                            report.skipped_groups,
                            report.monitor.devices_unreachable,
                        );
                    }
                    if report.degraded() {
                        outcome.degraded_rounds += 1;
                    }
                    outcome.max_quarantined =
                        outcome.max_quarantined.max(report.devices_quarantined());
                    outcome.quarantine_rejections += report.quarantine_rejected();
                    let (failed, retries, _skips, opened) = report.command_fault_counters();
                    outcome.commands_failed += failed;
                    outcome.updater_retries += retries;
                    outcome.breakers_opened += opened;
                    outcome.storage_retries = report.storage_retries;
                    outcome.plan_steps += report.updater.plan_steps;
                    outcome.plan_max_width =
                        outcome.plan_max_width.max(report.updater.plan_max_width);
                    outcome.plan_inflight_rejections += report.updater.plan_inflight_rejections;
                    outcome.plan_rollbacks += report.updater.plan_rollbacks;

                    // Liveness sample: target realized on ground truth and
                    // the updater has nothing left to do.
                    if outcome.converged_at.is_none()
                        && report.updater.diffs == 0
                        && firmware_targets.iter().all(|d| fw_done(&net, d))
                        && boot_targets.iter().all(|d| boot_done(&net, d))
                    {
                        outcome.converged_at = Some(round);
                    }
                }
                Err(_) => outcome.tick_errors += 1,
            }

            // Wire changefeed consumer: advance the delta-fed view, then
            // cross-check it against a full read over the same transport.
            if let (Some(w), Some((_server, wclient))) = (wire.as_deref_mut(), wire_rig.as_ref()) {
                match wclient.read_os_since(&dc, wire_watermark) {
                    Ok(delta) => {
                        if delta.snapshot {
                            w.snapshot_fallbacks += 1;
                        } else {
                            w.delta_reads += 1;
                        }
                        wire_watermark = delta.watermark;
                        wire_view.apply_delta(delta);
                        match wclient.read_os(&dc, Freshness::UpToDate) {
                            Ok(mut full) => {
                                full.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
                                let mine = wire_view.clone().into_sorted_rows();
                                w.rounds_compared += 1;
                                if mine != full {
                                    w.mismatches.push(format!(
                                        "round {round}: delta view has {} rows, full read {}",
                                        mine.len(),
                                        full.len()
                                    ));
                                }
                            }
                            Err(_) => w.unavailable_rounds += 1,
                        }
                    }
                    Err(_) => w.unavailable_rounds += 1,
                }
            }

            // Safety sample on ground truth, after the world advanced: no
            // pod may ever lose both its aggregation switches. Chaos only
            // crashes one agg (in pod 2) and the checker's invariants must
            // serialize the pod-1 firmware reboots, so a violation means
            // the control loop took down capacity it shouldn't have.
            for pod in 1..=2u32 {
                let up = (1..=2u32)
                    .filter(|agg| {
                        net.device_operational(&DeviceName::new(format!("agg-{pod}-{agg}")))
                    })
                    .count();
                if up == 0 {
                    outcome.safety_violations.push(format!(
                        "round {round}: pod {pod} lost all aggregation switches at {:?}",
                        clock.now()
                    ));
                }
            }

            // Continuous durable-plane assertions: every live replica's
            // committed frontier feeds the recovery-safety watermark, and
            // every store's snapshot + hash chain verifies end to end —
            // except while an injected corruption deliberately sits on a
            // killed replica's files.
            if !self.plan.replica_kills.is_empty() {
                for r in 0..replicas_per_ring {
                    recovery_checker.observe_committed(
                        "dc1",
                        r,
                        storage.replica_applied_through(&dc, r),
                    );
                }
                let mid_kill = kill_phase.contains(&1);
                if !mid_kill {
                    chain_checker.record("dc1", storage.verify_wal_chains(&dc));
                }
            }

            // Replica determinism: replicas at one frontier hold one
            // machine, in every partition, whatever faults are active.
            for part in storage.partitions() {
                match storage.check_replica_determinism(&part) {
                    Ok(pairs) => determinism_pairs += pairs,
                    Err(e) => panic!("seed {}: round {round}: {e}", self.plan.seed),
                }
            }
        }
        assert!(
            determinism_pairs > 0,
            "seed {}: the replica determinism check compared no replicas",
            self.plan.seed
        );

        if let (Some(out), Some(rig)) = (api_stress, stress_rig) {
            *out = rig.finish();
        }
        outcome.recovery_violations = recovery_checker.violations.clone();
        outcome.chain_violations = chain_checker.violations.clone();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unique-per-test scratch directory for directory-backed WAL runs:
    /// removed on success, kept (with the path printed) when the test
    /// panics so the durable files can be inspected.
    struct ChaosTempDir {
        path: std::path::PathBuf,
    }

    impl ChaosTempDir {
        fn new(tag: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("statesman-chaos-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            ChaosTempDir { path }
        }
    }

    impl Drop for ChaosTempDir {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("chaos tempdir kept for inspection: {}", self.path.display());
            } else {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
    }

    /// The durable-storage headline, across five fixed seeds on real
    /// directory-backed WALs: every replica is kill -9'd and restarted at
    /// least once (one torn-tail injection repaired, one bit-flip refusal
    /// surviving via catch-up, one clean restart), zero acknowledged-write
    /// loss, both invariant checkers clean throughout, convergence still
    /// reached — and the whole run bit-identical when replayed.
    #[test]
    #[ignore = "multi-seed sweep, ~30 s: the CI chaos job runs it with --include-ignored"]
    fn crash_restart_chaos_recovers_durably_across_seeds() {
        for seed in 1..=5u64 {
            let dir = ChaosTempDir::new(&format!("crash-restart-{seed}"));
            let run = |suffix: &str| {
                let d = dir.path.join(suffix);
                ChaosScenario::crash_restart(seed, DurabilityMode::Dir(d)).run()
            };
            let a = run("a");
            let b = run("b");
            assert_eq!(
                a, b,
                "seed {seed}: crash-restart chaos must replay bit-identically"
            );
            assert_eq!(a.replicas_killed, 3, "seed {seed}: {a:?}");
            assert_eq!(a.recoveries_completed, 3, "seed {seed}: {a:?}");
            assert!(
                a.recovery_truncated_records >= 1,
                "seed {seed}: torn-tail injection never repaired: {a:?}"
            );
            assert!(
                a.recovery_refusals >= 1,
                "seed {seed}: bit-flip injection never refused: {a:?}"
            );
            assert!(
                a.recovery_violations.is_empty(),
                "seed {seed}: recovery safety violated: {:?}",
                a.recovery_violations
            );
            assert!(
                a.chain_violations.is_empty(),
                "seed {seed}: hash chain violated: {:?}",
                a.chain_violations
            );
            assert!(
                a.watermark_regressions.is_empty(),
                "seed {seed}: acknowledged writes lost: {:?}",
                a.watermark_regressions
            );
            assert!(a.safety_violations.is_empty(), "seed {seed}: {a:?}");
            assert_eq!(a.tick_errors, 0, "seed {seed}: rounds aborted: {a:?}");
            assert!(
                a.converged_at.is_some(),
                "seed {seed}: never converged: {a:?}"
            );
        }
    }

    /// The headline chaos property, across five fixed seeds: zero
    /// ground-truth invariant violations, zero aborted rounds, and bounded
    /// convergence after the last fault heals.
    #[test]
    #[ignore = "multi-seed sweep, ~30 s: the CI chaos job runs it with --include-ignored"]
    fn standard_chaos_is_safe_and_live_across_seeds() {
        for seed in 1..=5u64 {
            let scenario = ChaosScenario::standard(seed);
            let heal = scenario.plan.last_heal();
            let outcome = scenario.run();
            assert!(
                outcome.safety_violations.is_empty(),
                "seed {seed}: safety violated: {:?}",
                outcome.safety_violations
            );
            assert_eq!(outcome.tick_errors, 0, "seed {seed}: rounds aborted");
            let converged = outcome
                .converged_at
                .unwrap_or_else(|| panic!("seed {seed}: never converged: {outcome:?}"));
            // Bounded liveness: the heal instant plus quarantine cooldown
            // and a few working rounds, all inside the 30-round budget.
            let heal_round = (heal.as_millis() / scenario.step.as_millis()) as usize;
            assert!(
                converged <= heal_round + 12,
                "seed {seed}: converged at round {converged}, too long after heal round {heal_round}"
            );
            // The plan must actually have bitten: a quarantine formed and
            // the partition outage degraded at least one round.
            assert!(outcome.max_quarantined >= 1, "seed {seed}: no quarantine");
            assert!(
                outcome.degraded_rounds >= 1,
                "seed {seed}: no degraded round"
            );
            println!(
                "seed {seed}: converged at round {converged} (heal round {heal_round}), \
                 degraded={}, max_quarantined={}, quarantine_rejections={}, \
                 failed={}, retries={}, breakers={}, storage_retries={}",
                outcome.degraded_rounds,
                outcome.max_quarantined,
                outcome.quarantine_rejections,
                outcome.commands_failed,
                outcome.updater_retries,
                outcome.breakers_opened,
                outcome.storage_retries
            );
        }
    }

    /// Same seed → bit-identical outcome, twice over. Chaos runs must be
    /// replayable or failures can't be debugged.
    #[test]
    fn chaos_runs_are_deterministic() {
        let a = ChaosScenario::standard(3).run();
        let b = ChaosScenario::standard(3).run();
        assert_eq!(a, b);
    }

    /// An observed run is bit-identical to an unobserved one (metrics
    /// must never perturb the control loop), and the registry's counters
    /// agree exactly with the outcome the harness tallied independently.
    #[test]
    fn observed_runs_match_and_fill_the_registry() {
        let obs = Obs::new();
        let scenario = ChaosScenario::standard(3);
        let outcome = scenario.run_with_obs(&obs);
        assert_eq!(outcome, scenario.run(), "obs must not perturb the run");

        let reg = &obs.registry;
        assert_eq!(
            reg.counter_value("coordinator_rounds_total"),
            Some(outcome.rounds_run as u64)
        );
        assert_eq!(
            reg.counter_value("coordinator_degraded_rounds_total"),
            Some(outcome.degraded_rounds as u64)
        );
        assert_eq!(
            reg.counter_value("checker_quarantine_rejected_total"),
            Some(outcome.quarantine_rejections as u64)
        );
        assert_eq!(
            reg.counter_value("updater_retries_total"),
            Some(outcome.updater_retries as u64)
        );
        assert_eq!(
            reg.counter_value("updater_commands_failed_total"),
            Some(outcome.commands_failed as u64)
        );
        assert_eq!(
            reg.counter_value("updater_breakers_opened_total"),
            Some(outcome.breakers_opened as u64)
        );
        assert_eq!(
            reg.counter_value("storage_retries_total"),
            Some(outcome.storage_retries)
        );
        // The trace ring and status board were fed every round.
        assert!(!obs.traces.is_empty());
        assert_eq!(obs.status().last_round, Some(outcome.rounds_run as u64 - 1));
        // The network simulator was attached too: chaos fired faults.
        assert!(reg.counter_value("net_faults_fired_total").unwrap_or(0) > 0);
    }

    /// The quarantine-rejection path fires end to end: the app keeps
    /// proposing a boot image for the crashed agg, and while that device
    /// is quarantined the checker must turn those proposals away rather
    /// than act on stale observed state.
    #[test]
    fn quarantine_shields_proposals_against_crashed_devices() {
        let outcome = ChaosScenario::standard(2).run();
        assert!(
            outcome.quarantine_rejections >= 1,
            "expected quarantine rejections: {outcome:?}"
        );
    }

    /// An out-of-process changefeed consumer rides out the standard chaos
    /// plan: its `since=`-maintained view never diverges from a full wire
    /// read, and the chaos outcome itself is unperturbed by the extra
    /// reader. The partition outage makes some reads fail (retried from
    /// the same watermark) — divergence afterwards would mean the
    /// changefeed lost changes across the outage.
    #[test]
    fn wire_changefeed_reader_survives_standard_chaos() {
        let scenario = ChaosScenario::standard(3);
        let (outcome, wire) = scenario.run_with_wire_reader();
        assert_eq!(
            outcome,
            scenario.run(),
            "wire reader must not perturb the run"
        );
        assert!(
            wire.mismatches.is_empty(),
            "delta view diverged: {:?}",
            wire.mismatches
        );
        assert!(wire.rounds_compared >= 20, "{wire:?}");
        assert!(wire.delta_reads >= 10, "{wire:?}");
        assert!(
            wire.unavailable_rounds >= 1,
            "the partition outage should have cost the reader at least one round: {wire:?}"
        );
    }

    /// The API front end under attack while standard chaos runs: slow-loris
    /// heads are 408'd by the reactor, overload bursts shed 429 + retry-after
    /// (never a reset), churn is absorbed — and the control loop's outcome
    /// stays bit-identical to an unstressed run.
    #[test]
    fn api_stress_does_not_perturb_the_control_loop() {
        let scenario = ChaosScenario::standard(3);
        let (outcome, stress) = scenario.run_with_api_stress();
        assert_eq!(
            outcome,
            scenario.run(),
            "HTTP stress must not perturb the run"
        );
        assert!(stress.health_ok >= 1, "{stress:?}");
        assert!(
            stress.sheds >= 1,
            "32-client bursts against 16 slots must shed: {stress:?}"
        );
        assert_eq!(
            stress.sheds_missing_retry_after, 0,
            "every 429 carries retry-after: {stress:?}"
        );
        assert_eq!(
            stress.connect_failures, 0,
            "overload answers, it never resets: {stress:?}"
        );
        assert!(stress.churned >= 1, "{stress:?}");
        assert_eq!(stress.loris_conns, 8, "{stress:?}");
        assert!(
            stress.loris_answered_408 >= 1,
            "the reactor reclaims stalled heads with 408: {stress:?}"
        );
        assert!(stress.final_health_ok, "{stress:?}");
    }

    /// A fault-free plan converges quickly with no failed commands, no
    /// degraded rounds, and no breakers — the harness itself adds no
    /// faults. (The quarantine *does* briefly engage even here: a firmware
    /// upgrade's own reboot window makes the device legitimately
    /// unreachable for a poll or two, which is exactly the conservative
    /// behavior we want around rebooting devices.)
    #[test]
    fn quiet_plan_converges_without_degradation() {
        let scenario = ChaosScenario {
            plan: ChaosPlan::quiet(7),
            rounds: 15,
            step: SimDuration::from_mins(1),
            intent_at: SimTime::ZERO,
            durability: DurabilityMode::Memory,
            verbose: false,
            te_churn: false,
        };
        let outcome = scenario.run();
        assert!(outcome.safety_violations.is_empty());
        assert!(
            outcome.converged_at.is_some(),
            "quiet run never converged: {outcome:?}"
        );
        assert_eq!(outcome.degraded_rounds, 0);
        assert_eq!(outcome.commands_failed, 0);
        assert_eq!(outcome.breakers_opened, 0);
        assert_eq!(outcome.storage_retries, 0);
        assert_eq!(outcome.tick_errors, 0);
    }
}
