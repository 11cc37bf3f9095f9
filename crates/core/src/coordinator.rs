//! The coordinator: one Statesman control round, end-to-end.
//!
//! Wires the monitor → checkers (one per impact group) → updater into the
//! round a deployment runs continuously (Fig 6), and accounts for where
//! the round's host wall time went: with an [`Obs`] attached, every tick
//! records a [`Stage`] tree — `tick → monitor {poll, diff, write} →
//! checker[group] → updater {read, diff, exec}` — built from the wall
//! times the stage reports already carry. The modeled device-interaction
//! time the §8 breakdown is about (hundreds of switches polled and
//! commanded) is reported separately, as `MonitorReport::modeled_io` and
//! `UpdaterReport::modeled_io`, and never enters the tree.

use crate::checker::{Checker, CheckerConfig, CheckerPassReport, MergePolicy};
use crate::groups::ImpactGroup;
use crate::invariants::{
    ConnectivityInvariant, Invariant, TorPairCapacityInvariant, WanLinkInvariant,
};
use crate::monitor::{Monitor, MonitorReport};
use crate::updater::{Updater, UpdaterReport};
use statesman_net::SimNetwork;
use statesman_obs::{
    Counter, Gauge, Histogram, Obs, RoundTrace, Stage, StatusBoard, LATENCY_BUCKETS_MS,
};
use statesman_storage::StorageService;
use statesman_topology::NetworkGraph;
use statesman_types::{DatacenterId, Pool, RetryPolicy, SimDuration, StateResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Coordinator construction knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Conflict-resolution policy for all checkers.
    pub policy: MergePolicy,
    /// Install the connectivity invariant in every DC group.
    pub connectivity_invariant: bool,
    /// Install the ToR-pair capacity invariant in every DC group:
    /// (capacity threshold, pair fraction, sampled ToRs per pod).
    pub capacity_invariant: Option<(f64, f64, Option<u32>)>,
    /// Cap the capacity invariant's evaluated pair panel per DC
    /// (seeded, deterministic downsample). Sampling one ToR per pod
    /// still grows the panel quadratically in pods — a 4,096-pod fabric
    /// yields 16.8M directional pairs, hours of max-flow per sweep — so
    /// production-scale fabrics must evaluate a fixed-size panel, which
    /// preserves the invariant's statistical phrasing ("99% of pairs").
    /// `None` evaluates every selected pair. The default (65,536) only
    /// bites beyond ~256 pods; fabrics below that are unaffected.
    pub capacity_max_pairs: Option<usize>,
    /// Install the WAN-link invariant on the WAN group with this minimum.
    pub wan_invariant: Option<usize>,
    /// Monitor quarantine cooldown override (`None` = monitor default).
    pub quarantine_cooldown: Option<SimDuration>,
    /// In-round retry schedule for the updater (`None` = §6.2's pure
    /// cross-round implicit retry).
    pub updater_retry: Option<RetryPolicy>,
    /// Per-device updater circuit breaker: (consecutive-failure
    /// threshold, open cooldown). `None` disables breakers.
    pub updater_breaker: Option<(u32, SimDuration)>,
    /// How often the monitor distrusts its diff base: every Nth round it
    /// re-reads the OS pool from the partition leaders and diffs the poll
    /// against that, so whatever drifted between its memory and the store
    /// — a row another writer overwrote or deleted, a half-committed
    /// write — is rewritten, and nothing else is (`None` = monitor
    /// default, 16; `Some(1)` re-reads every round).
    pub monitor_resync_every: Option<u64>,
    /// Observability handle. When set, every tick records stage metrics
    /// into its registry, pushes a [`RoundTrace`] onto its ring, and
    /// refreshes its status board. `None` records nothing.
    pub obs: Option<Obs>,
    // Pinned by the frozen benchmark; the first bullet of ROADMAP item 9
    // removes the call, then these go.
    /// Must stay `true`: every round is planned (a dependency-ordered
    /// update plan with in-flight invariant checks). `false` selected the
    /// serial chain walk, which is gone; [`Coordinator::new`] refuses it.
    pub plan_synthesis: bool,
    /// Ignored: the monitor always diffs against its base and checker and
    /// updater always carry their mirrors. The snapshot-per-round plane
    /// it selected decided identically.
    pub delta_state_plane: bool,
    /// Ignored: mirrors are always slot-indexed columns and the checker's
    /// seed always blast-radius incremental. The hash layout it selected
    /// decided identically.
    pub columnar_state: bool,
    /// Ignored: the monitor polls on the caller's thread. The §6.3
    /// instance count survives as a model, [`MonitorReport::shards`].
    pub monitor_instances: Option<usize>,
    /// Ignored: groups are checked in group order on the caller's thread.
    pub parallel_checkers: bool,
    /// Ignored: every fan-out sizes its pool with
    /// `statesman_types::par::default_worker_threads()`, one width per
    /// process (`STATESMAN_WORKER_THREADS`, else host parallelism).
    pub worker_threads: Option<usize>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            policy: MergePolicy::PriorityLock,
            connectivity_invariant: true,
            capacity_invariant: Some((0.5, 0.99, Some(1))),
            capacity_max_pairs: Some(65_536),
            wan_invariant: Some(1),
            quarantine_cooldown: None,
            updater_retry: None,
            updater_breaker: None,
            monitor_resync_every: None,
            obs: None,
            plan_synthesis: true,
            delta_state_plane: true,
            columnar_state: true,
            monitor_instances: None,
            parallel_checkers: false,
            worker_threads: None,
        }
    }
}

/// Seed for the capacity invariant's deterministic pair-panel
/// downsample: fixed so every coordinator over the same fabric — a
/// restarted one included — evaluates the same panel.
const CAPACITY_PANEL_SEED: u64 = 0x57A7E;

/// Cached metric handles for the control loop, one per series the
/// coordinator records each tick (created once at construction).
struct CoordObs {
    rounds: Counter,
    degraded_rounds: Counter,
    monitor_polled: Counter,
    monitor_unreachable: Counter,
    monitor_quarantined: Gauge,
    monitor_round_ms: Histogram,
    checker_proposals: Counter,
    checker_accepted: Counter,
    checker_rejected: Counter,
    checker_already_satisfied: Counter,
    checker_quarantine_rejected: Counter,
    checker_pass_ms: Histogram,
    updater_diffs: Counter,
    updater_applied: Counter,
    updater_failed: Counter,
    updater_retries: Counter,
    updater_breaker_skips: Counter,
    updater_breakers_opened: Counter,
    updater_round_ms: Histogram,
    updater_plan_steps: Counter,
    updater_plan_waves: Counter,
    /// Widest wave of the last recorded round's update plan (0 when the
    /// round planned nothing).
    updater_plan_max_width: Gauge,
    updater_plan_inflight_rejections: Counter,
    updater_plan_rollbacks: Counter,
    /// Checker change-track full-degrade events (silent fallbacks to a
    /// full reseed). Counted per round as the delta of the summed
    /// per-checker totals against `last_full_degrades`.
    checker_full_degrades: Counter,
    /// The summed per-checker full-degrade total at the end of the last
    /// recorded round.
    last_full_degrades: std::sync::atomic::AtomicU64,
    monitor_rows_written: Counter,
    monitor_writes_suppressed: Counter,
    monitor_rows_compared: Counter,
    monitor_rows_materialized: Counter,
    watermark_lag: Gauge,
    /// Distinct entity names in the process-wide interner.
    interned_entities: Gauge,
    /// Live rows across every pool of every storage partition.
    state_rows: Gauge,
    /// Approximate resident bytes per state variable in the columnar
    /// storage plane (whole bytes; `/v1/status` carries the fraction).
    state_bytes_per_var: Gauge,
    /// Id → name resolutions (edge resolutions: delta tombstones,
    /// receipts). Counted per round as the delta of the process-wide
    /// total against `last_resolutions`.
    key_resolutions: Counter,
    /// The process-wide resolution total at the end of the last recorded
    /// round.
    last_resolutions: std::sync::atomic::AtomicU64,
    /// Cumulative storage partition-lock wait (µs) at the end of the last
    /// recorded round, for the per-round delta in `/v1/status`.
    last_lock_wait_us: std::sync::atomic::AtomicU64,
}

impl CoordObs {
    fn new(obs: &Obs, storage: &StorageService) -> Self {
        let r = &obs.registry;
        CoordObs {
            rounds: r.counter("coordinator_rounds_total"),
            degraded_rounds: r.counter("coordinator_degraded_rounds_total"),
            monitor_polled: r.counter("monitor_devices_polled_total"),
            monitor_unreachable: r.counter("monitor_devices_unreachable_total"),
            monitor_quarantined: r.gauge("monitor_devices_quarantined"),
            monitor_round_ms: r.histogram("monitor_round_ms", LATENCY_BUCKETS_MS),
            checker_proposals: r.counter("checker_proposals_seen_total"),
            checker_accepted: r.counter("checker_accepted_total"),
            checker_rejected: r.counter("checker_rejected_total"),
            checker_already_satisfied: r.counter("checker_already_satisfied_total"),
            checker_quarantine_rejected: r.counter("checker_quarantine_rejected_total"),
            checker_pass_ms: r.histogram("checker_pass_ms", LATENCY_BUCKETS_MS),
            updater_diffs: r.counter("updater_diffs_total"),
            updater_applied: r.counter("updater_commands_applied_total"),
            updater_failed: r.counter("updater_commands_failed_total"),
            updater_retries: r.counter("updater_retries_total"),
            updater_breaker_skips: r.counter("updater_breaker_skips_total"),
            updater_breakers_opened: r.counter("updater_breakers_opened_total"),
            updater_round_ms: r.histogram("updater_round_ms", LATENCY_BUCKETS_MS),
            updater_plan_steps: r.counter("updater_plan_steps_total"),
            updater_plan_waves: r.counter("updater_plan_waves_total"),
            updater_plan_max_width: r.gauge("updater_plan_max_width"),
            updater_plan_inflight_rejections: r.counter("updater_plan_inflight_rejections_total"),
            updater_plan_rollbacks: r.counter("updater_plan_rollbacks_total"),
            checker_full_degrades: r.counter("checker_full_degrades_total"),
            last_full_degrades: std::sync::atomic::AtomicU64::new(0),
            monitor_rows_written: r.counter("monitor_rows_written_total"),
            monitor_writes_suppressed: r.counter("monitor_writes_suppressed_total"),
            monitor_rows_compared: r.counter("monitor_rows_compared_total"),
            monitor_rows_materialized: r.counter("monitor_rows_materialized_total"),
            watermark_lag: r.gauge("state_watermark_lag"),
            interned_entities: r.gauge("interned_entities"),
            state_rows: r.gauge("state_rows"),
            state_bytes_per_var: r.gauge("state_bytes_per_var"),
            key_resolutions: r.counter("key_resolutions_total"),
            last_resolutions: std::sync::atomic::AtomicU64::new(statesman_types::key_resolutions()),
            // Seed from the live counter, like `last_resolutions` above:
            // obs attached after the service has already done work must
            // not fold pre-attach lock wait into the first round's delta.
            last_lock_wait_us: std::sync::atomic::AtomicU64::new(storage.lock_wait_stats()),
        }
    }
}

/// One full round's reports.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Monitor stage.
    pub monitor: MonitorReport,
    /// Checker stage, one report per impact group (group order); skipped
    /// groups have no entry here.
    pub checkers: Vec<CheckerPassReport>,
    /// Updater stage.
    pub updater: UpdaterReport,
    /// Impact groups skipped this round because their storage partition
    /// was unavailable (degraded mode).
    pub skipped_groups: Vec<String>,
    /// Cumulative storage-layer submit retries at round end.
    pub storage_retries: u64,
    /// Cumulative storage submits that exhausted their retry budget.
    pub storage_retries_exhausted: u64,
    /// OS rows the monitor actually wrote this round.
    pub rows_written: usize,
    /// OS rows the monitor skipped as value-identical this round.
    pub writes_suppressed: usize,
    /// Cumulative storage reads served from the change index at round end.
    pub delta_reads: u64,
    /// Cumulative delta reads that fell back to a full snapshot.
    pub full_fallbacks: u64,
    /// Worst-case version gap between a live partition's OS watermark and
    /// the updater's mirror of it at round end (0 when every mirror is
    /// current).
    pub watermark_lag: u64,
}

impl RoundReport {
    /// The round's wall-clock stages in the order they ran — `monitor
    /// {poll {devices, links}, diff {reseed, order}, write}`, one
    /// `checker[group]` per checked group, `updater {read, diff, exec}` —
    /// from the durations the stage reports carry. On a bulk-seed round
    /// the monitor's `write` splits into the seed's own stages. A round
    /// trace's `tick` root holds exactly these.
    pub fn stages(&self) -> Vec<Stage> {
        let m = &self.monitor;
        let seed = m.seed.iter().flat_map(|seed| {
            [
                Stage::new("intern", seed.intern_ms),
                Stage::new("arena_fill", seed.fill_ms),
                Stage::new("index_build", seed.index_ms),
                Stage::new("paxos_commit", seed.commit_ms),
            ]
        });
        let monitor = Stage::wall("monitor", m.elapsed).with_children(vec![
            Stage::wall("poll", m.stage_poll).with_children(vec![
                Stage::wall("devices", m.stage_poll_devices),
                Stage::wall("links", m.stage_poll_links),
            ]),
            Stage::wall("diff", m.stage_diff).with_children(vec![
                Stage::wall("reseed", m.stage_diff_reseed),
                Stage::wall("order", m.stage_diff_order),
            ]),
            Stage::wall("write", m.stage_write).with_children(seed.collect()),
        ]);
        let u = &self.updater;
        let updater = Stage::wall("updater", u.elapsed).with_children(vec![
            Stage::wall("read", u.stage_read),
            Stage::wall("diff", u.stage_diff),
            Stage::wall("exec", u.stage_exec),
        ]);
        let checkers =
            (self.checkers.iter()).map(|c| Stage::wall(format!("checker[{}]", c.group), c.elapsed));
        std::iter::once(monitor)
            .chain(checkers)
            .chain(std::iter::once(updater))
            .collect()
    }

    /// Total proposals accepted across groups.
    pub fn accepted(&self) -> usize {
        self.checkers.iter().map(|c| c.accepted).sum()
    }

    /// Total proposals rejected across groups.
    pub fn rejected(&self) -> usize {
        self.checkers.iter().map(|c| c.rejected).sum()
    }

    /// True if any part of the round ran in degraded mode (a storage
    /// partition was down and its impact groups were skipped).
    pub fn degraded(&self) -> bool {
        !self.skipped_groups.is_empty()
    }

    /// Devices whose polls were skipped this round under quarantine.
    pub fn devices_quarantined(&self) -> usize {
        self.monitor.devices_quarantined
    }

    /// Proposal rows rejected across groups because they touched a
    /// quarantined device.
    pub fn quarantine_rejected(&self) -> usize {
        self.checkers.iter().map(|c| c.quarantine_rejected).sum()
    }

    /// Command failures + in-round retries + breaker activity, rolled up
    /// for dashboards: (failed, retries, breaker_skips, breakers_opened).
    pub fn command_fault_counters(&self) -> (usize, usize, usize, usize) {
        (
            self.updater.commands_failed,
            self.updater.retries,
            self.updater.breaker_skips,
            self.updater.breakers_opened,
        )
    }
}

/// The wired-up Statesman instance.
pub struct Coordinator {
    monitor: Monitor,
    checkers: Vec<Checker>,
    updater: Updater,
    storage: StorageService,
    net: SimNetwork,
    obs: Option<(Obs, CoordObs)>,
    round: AtomicU64,
}

impl Coordinator {
    /// Build a coordinator over a deployment: one checker per datacenter
    /// found in `graph` plus the WAN group (if any border routers or WAN
    /// links exist).
    pub fn new(
        graph: &NetworkGraph,
        net: SimNetwork,
        storage: StorageService,
        config: CoordinatorConfig,
    ) -> Self {
        assert!(
            config.plan_synthesis,
            "pinned by the frozen benchmark; ROADMAP item 9 (first bullet) removes the call, then this goes"
        );
        let mut dcs: BTreeSet<DatacenterId> = BTreeSet::new();
        let mut has_wan = false;
        for (_, n) in graph.nodes() {
            if n.datacenter.is_wan() {
                has_wan = true;
            } else if n.role == statesman_types::DeviceRole::Border {
                has_wan = true;
                dcs.insert(n.datacenter.clone());
            } else {
                dcs.insert(n.datacenter.clone());
            }
        }
        for (_, e) in graph.edges() {
            if e.datacenter.is_wan() {
                has_wan = true;
            }
        }

        let mut groups: Vec<ImpactGroup> = dcs.into_iter().map(ImpactGroup::Datacenter).collect();
        if has_wan {
            groups.push(ImpactGroup::Wan);
        }
        // Each DC's capacity invariant is built once — pair selection,
        // baselines and scope index are the expensive part of set-up —
        // and both consumers get instances sharing that panel.
        let capacity: Vec<TorPairCapacityInvariant> = match config.capacity_invariant {
            Some((threshold, fraction, sample)) => groups
                .iter()
                .filter_map(|group| match group {
                    ImpactGroup::Datacenter(dc) => Some(dc.clone()),
                    _ => None,
                })
                .map(|dc| {
                    let cap = config.capacity_max_pairs.unwrap_or(usize::MAX);
                    TorPairCapacityInvariant::sampled(
                        graph,
                        dc,
                        threshold,
                        fraction,
                        sample,
                        cap,
                        CAPACITY_PANEL_SEED,
                    )
                })
                .filter(|inv| inv.pair_count() > 0)
                .collect(),
            None => Vec::new(),
        };
        // One invariant factory for both consumers — each group's checker
        // and the updater's plan set — so they always evaluate the same
        // invariants over the same pair panel.
        let invariants_for = |group: &ImpactGroup| -> Vec<Box<dyn Invariant>> {
            let mut invs: Vec<Box<dyn Invariant>> = Vec::new();
            let ImpactGroup::Datacenter(dc) = group else {
                if let Some(min) = config.wan_invariant {
                    invs.push(Box::new(WanLinkInvariant::new(min)));
                }
                return invs;
            };
            if config.connectivity_invariant {
                invs.push(Box::new(ConnectivityInvariant::new(dc.clone())));
            }
            if let Some(inv) = capacity.iter().find(|inv| &inv.datacenter == dc) {
                invs.push(Box::new(inv.sharing_panel()));
            }
            invs
        };

        let checkers = groups
            .iter()
            .map(|group| {
                let mut c = Checker::new(
                    CheckerConfig {
                        group: group.clone(),
                        policy: config.policy,
                    },
                    graph.clone(),
                );
                for inv in invariants_for(group) {
                    c.add_invariant(inv);
                }
                c
            })
            .collect();

        let mut monitor = Monitor::new(net.clone(), storage.clone(), graph.clone());
        if let Some(cooldown) = config.quarantine_cooldown {
            monitor = monitor.with_quarantine_cooldown(cooldown);
        }
        if let Some(every) = config.monitor_resync_every {
            monitor = monitor.with_resync_every(every);
        }
        // The updater gets its own invariant instances (mirroring the
        // checker set) for the per-step in-flight checks: the checker
        // validated the full target state, but the observed state can
        // shift between acceptance and execution, so each step is
        // re-checked against the projected intermediate network.
        let mut updater = Updater::new(net.clone(), storage.clone(), graph.clone())
            .with_plan_invariants(groups.iter().flat_map(&invariants_for).collect());
        if let Some(policy) = config.updater_retry.clone() {
            updater = updater.with_retry(policy);
        }
        if let Some((threshold, cooldown)) = config.updater_breaker {
            updater = updater.with_circuit_breaker(threshold, cooldown);
        }

        // Instrument the shared services against the same registry the
        // loop records into, so one scrape covers every layer.
        if let Some(obs) = &config.obs {
            storage.attach_obs(&obs.registry);
            net.attach_obs(&obs.registry);
        }
        let obs = config.obs.map(|o| {
            let handles = CoordObs::new(&o, &storage);
            (o, handles)
        });

        Coordinator {
            monitor,
            checkers,
            updater,
            storage,
            net,
            obs,
            round: AtomicU64::new(0),
        }
    }

    /// The observability handle, if one was configured.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|(o, _)| o)
    }

    /// The impact groups this coordinator runs checkers for.
    pub fn groups(&self) -> Vec<String> {
        self.checkers.iter().map(|c| c.group().name()).collect()
    }

    /// The storage service handle.
    pub fn storage(&self) -> &StorageService {
        &self.storage
    }

    /// Run one full round at the current simulated time: collect, check
    /// every group, update.
    ///
    /// The round is *degraded-mode tolerant*: impact groups whose storage
    /// partition is unavailable are skipped (and reported), the monitor
    /// skips entities homed in those partitions, and quarantined devices
    /// are passed to every checker as uncontrollable. A partition outage
    /// therefore shrinks the round instead of failing it.
    pub fn tick(&self) -> StateResult<RoundReport> {
        let started = Instant::now();
        let down: BTreeSet<DatacenterId> = self
            .storage
            .partitions()
            .into_iter()
            .filter(|dc| !self.storage.partition_available(dc))
            .collect();

        let monitor = self.monitor.run_round_skipping(&down)?;
        let now = self.net.clock().now();
        let quarantined = self.monitor.quarantined_devices(now);

        let mut skipped_groups = Vec::new();
        let mut checkers = Vec::with_capacity(self.checkers.len());
        for c in &self.checkers {
            if down.contains(&c.group().primary_partition()) {
                skipped_groups.push(c.group().name());
            } else {
                checkers.push(c.run_pass_with_unreachable(&self.storage, now, &quarantined)?);
            }
        }
        // The updater honors the quarantine too: commanding a device whose
        // OS is stale can re-disturb it (reboot loops) and starve the
        // monitor of the fresh poll that would clear the diff.
        let updater = self.updater.run_round_excluding(&quarantined)?;
        let (storage_retries, storage_retries_exhausted) = self.storage.retry_stats();
        let (delta_reads, full_fallbacks, _suppressed) = self.storage.delta_stats();
        // How far behind the freshest OS is the updater's mirror, in
        // versions, across live partitions: 0 unless something wrote the
        // OS after the updater read it, which the next round's
        // `read_since` then carries.
        let watermark_lag = self
            .storage
            .partitions()
            .into_iter()
            .filter(|dc| self.storage.partition_available(dc))
            .filter_map(|dc| {
                let head = self.storage.pool_watermark(&dc, &Pool::Observed).ok()?;
                let cached = self.updater.cached_watermark(&Pool::Observed, &dc)?;
                Some(head.0.saturating_sub(cached.0))
            })
            .max()
            .unwrap_or(0);
        let report = RoundReport {
            rows_written: monitor.rows_written,
            writes_suppressed: monitor.writes_suppressed,
            monitor,
            checkers,
            updater,
            skipped_groups,
            storage_retries,
            storage_retries_exhausted,
            delta_reads,
            full_fallbacks,
            watermark_lag,
        };
        self.record_round(&report, started.elapsed());
        Ok(report)
    }

    /// Record one finished round, `tick` long, into the observability
    /// handle (metrics, a [`RoundTrace`], and the status board). No-op
    /// without one.
    fn record_round(&self, report: &RoundReport, tick: Duration) {
        let Some((obs, m)) = &self.obs else {
            return;
        };
        let round = self.round.fetch_add(1, Ordering::Relaxed);
        let now = self.net.clock().now();
        let stages = Stage::wall("tick", tick).with_children(report.stages());

        m.rounds.inc();
        if report.degraded() {
            m.degraded_rounds.inc();
        }
        m.monitor_polled.add(report.monitor.devices_polled as u64);
        m.monitor_unreachable
            .add(report.monitor.devices_unreachable as u64);
        m.monitor_quarantined
            .set(report.monitor.devices_quarantined as i64);
        m.monitor_round_ms.observe(ms(report.monitor.elapsed));
        let mut reject_reasons: BTreeMap<String, usize> = BTreeMap::new();
        let mut proposals_seen = 0usize;
        let mut already_satisfied = 0usize;
        for pass in &report.checkers {
            proposals_seen += pass.proposals_seen;
            already_satisfied += pass.already_satisfied;
            m.checker_pass_ms.observe(ms(pass.elapsed));
            for receipt in &pass.receipts {
                if receipt.outcome.is_rejected() {
                    *reject_reasons
                        .entry(receipt.outcome.tag().to_string())
                        .or_insert(0) += 1;
                }
            }
        }
        m.checker_proposals.add(proposals_seen as u64);
        m.checker_accepted.add(report.accepted() as u64);
        m.checker_rejected.add(report.rejected() as u64);
        m.checker_already_satisfied.add(already_satisfied as u64);
        m.checker_quarantine_rejected
            .add(report.quarantine_rejected() as u64);
        m.updater_diffs.add(report.updater.diffs as u64);
        m.updater_applied
            .add(report.updater.commands_applied as u64);
        m.updater_failed.add(report.updater.commands_failed as u64);
        m.updater_retries.add(report.updater.retries as u64);
        m.updater_breaker_skips
            .add(report.updater.breaker_skips as u64);
        m.updater_breakers_opened
            .add(report.updater.breakers_opened as u64);
        m.updater_plan_steps.add(report.updater.plan_steps as u64);
        m.updater_plan_waves.add(report.updater.plan_waves as u64);
        m.updater_plan_max_width
            .set(report.updater.plan_max_width as i64);
        m.updater_plan_inflight_rejections
            .add(report.updater.plan_inflight_rejections as u64);
        m.updater_plan_rollbacks
            .add(report.updater.plan_rollbacks as u64);
        m.updater_round_ms.observe(ms(report.updater.elapsed));
        let full_degrades_total: u64 = self.checkers.iter().map(|c| c.full_degrades()).sum();
        let prev_degrades = m
            .last_full_degrades
            .swap(full_degrades_total, Ordering::Relaxed);
        m.checker_full_degrades
            .add(full_degrades_total.saturating_sub(prev_degrades));
        m.monitor_rows_written.add(report.rows_written as u64);
        m.monitor_writes_suppressed
            .add(report.writes_suppressed as u64);
        m.monitor_rows_compared
            .add(report.monitor.rows_compared as u64);
        m.monitor_rows_materialized
            .add(report.monitor.rows_materialized as u64);
        m.watermark_lag.set(report.watermark_lag as i64);
        let interned = statesman_types::interned_count() as u64;
        m.interned_entities.set(interned as i64);
        let total = statesman_types::key_resolutions();
        let prev = m.last_resolutions.swap(total, Ordering::Relaxed);
        let resolved_this_round = total.saturating_sub(prev);
        m.key_resolutions.add(resolved_this_round);
        let lock_wait_total = self.storage.lock_wait_stats();
        let prev_wait = m.last_lock_wait_us.swap(lock_wait_total, Ordering::Relaxed);
        let lock_wait_this_round = lock_wait_total.saturating_sub(prev_wait);
        let (state_bytes, state_rows) = self.storage.state_bytes();
        let state_bytes_per_var = if state_rows > 0 {
            state_bytes as f64 / state_rows as f64
        } else {
            0.0
        };
        m.state_rows.set(state_rows as i64);
        m.state_bytes_per_var.set(state_bytes_per_var as i64);
        let pool_rows: Vec<(String, u64)> = self
            .storage
            .pool_row_stats()
            .into_iter()
            .map(|(p, n)| (p.wire_name().into_owned(), n))
            .collect();

        let quarantined: Vec<String> = self
            .monitor
            .quarantined_devices(now)
            .into_iter()
            .map(|d| d.to_string())
            .collect();
        let breakers_open: Vec<String> = self
            .updater
            .open_breakers(now)
            .into_iter()
            .map(|d| d.to_string())
            .collect();

        obs.traces.push(RoundTrace {
            round,
            at_ms: now.as_millis(),
            stages,
            devices_polled: report.monitor.devices_polled,
            devices_unreachable: report.monitor.devices_unreachable,
            devices_quarantined: report.monitor.devices_quarantined,
            quarantined: quarantined.clone(),
            skipped_groups: report.skipped_groups.clone(),
            degraded: report.degraded(),
            proposals_seen,
            accepted: report.accepted(),
            rejected: report.rejected(),
            already_satisfied,
            quarantine_rejected: report.quarantine_rejected(),
            reject_reasons,
            updater_diffs: report.updater.diffs,
            commands_applied: report.updater.commands_applied,
            commands_failed: report.updater.commands_failed,
            updater_retries: report.updater.retries,
            breaker_skips: report.updater.breaker_skips,
            breakers_opened: report.updater.breakers_opened,
            breakers_open: breakers_open.clone(),
            storage_retries: report.storage_retries,
            storage_retries_exhausted: report.storage_retries_exhausted,
            rows_written: report.rows_written,
            writes_suppressed: report.writes_suppressed,
            delta_reads: report.delta_reads,
            full_fallbacks: report.full_fallbacks,
            watermark_lag: report.watermark_lag,
            plan_steps: report.updater.plan_steps,
            plan_waves: report.updater.plan_waves,
            plan_max_width: report.updater.plan_max_width,
            plan_inflight_rejections: report.updater.plan_inflight_rejections,
            plan_rollbacks: report.updater.plan_rollbacks,
        });
        obs.set_status(StatusBoard {
            quarantined,
            breakers_open,
            degraded_partitions: report.skipped_groups.clone(),
            last_round: Some(round),
            interned_entities: interned,
            key_resolutions_last_round: resolved_this_round,
            storage_lock_wait_us_last_round: lock_wait_this_round,
            last_recovery: self.storage.last_recovery(),
            pool_rows,
            state_bytes_per_var,
            plan_steps_last_round: report.updater.plan_steps,
            plan_waves_last_round: report.updater.plan_waves,
            plan_max_width_last_round: report.updater.plan_max_width,
            plan_inflight_rejections_last_round: report.updater.plan_inflight_rejections,
            plan_rollbacks_last_round: report.updater.plan_rollbacks,
            checker_full_degrades: full_degrades_total,
        });
    }

    /// Run one round and then advance the simulation by `step`, letting
    /// issued commands land (the cadence applications are told to expect:
    /// "their control loops should operate at the time scale of minutes",
    /// §7.1).
    pub fn tick_and_advance(&self, step: SimDuration) -> StateResult<RoundReport> {
        let report = self.tick()?;
        self.net.step(step);
        Ok(report)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::StatesmanClient;
    use statesman_net::{SimClock, SimConfig};
    use statesman_topology::DcnSpec;
    use statesman_types::{Attribute, EntityName, Value};

    fn setup() -> (NetworkGraph, SimNetwork, StorageService, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.command_latency_ms = 500;
        cfg.faults.reboot_window_ms = 2 * 60_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        (graph, net, storage, clock)
    }

    #[test]
    fn groups_cover_dc() {
        let (graph, net, storage, _clock) = setup();
        let coord = Coordinator::new(&graph, net, storage, CoordinatorConfig::default());
        assert_eq!(coord.groups(), vec!["dc:dc1".to_string()]);
    }

    #[test]
    fn end_to_end_upgrade_converges() {
        let (graph, net, storage, clock) = setup();
        let coord = Coordinator::new(
            &graph,
            net.clone(),
            storage.clone(),
            CoordinatorConfig {
                // tiny fabric has 2 aggs/pod: 50% threshold allows 1 down.
                capacity_invariant: Some((0.5, 0.99, Some(1))),
                ..Default::default()
            },
        );
        let app = StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone());

        // Round 0: populate the OS.
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

        // Propose one Agg upgrade.
        app.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        let r = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        assert_eq!(r.accepted(), 1);
        assert!(r.updater.commands_applied >= 1);

        // After the reboot window, the device runs 7.0 and the loop is
        // quiescent.
        let r2 = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        let _ = r2;
        let r3 = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        assert_eq!(r3.updater.diffs, 0, "converged: {:?}", r3.updater);
        assert_eq!(
            net.device_snapshot(&"agg-1-1".into())
                .unwrap()
                .observed_firmware(),
            "7.0"
        );
        let receipts = app.take_receipts().unwrap();
        assert!(receipts.iter().any(|x| x.outcome.is_accepted()));
    }

    /// No node's children overrun it (a nanosecond of float rounding
    /// aside): every node is wall time, measured around its children.
    fn assert_closed(node: &Stage) {
        let left = node.unaccounted_ms();
        assert!(
            left >= -1e-6,
            "{} overrun by {left} ms:\n{}",
            node.name,
            node.render()
        );
        node.children.iter().for_each(assert_closed);
    }

    /// The `tick` root's children are the report's own durations.
    fn assert_tree_is_the_report(tree: &Stage, r: &RoundReport) {
        let parts = |s: &Stage| -> Vec<(String, f64)> {
            (s.children.iter())
                .map(|c| (c.name.clone(), c.ms))
                .collect()
        };
        let want = |stages: &[(&str, Duration)]| -> Vec<(String, f64)> {
            (stages.iter())
                .map(|&(name, d)| (name.to_string(), ms(d)))
                .collect()
        };
        let (m, u, c) = (&r.monitor, &r.updater, &r.checkers[0]);
        let top = [
            ("monitor", m.elapsed),
            ("checker[dc:dc1]", c.elapsed),
            ("updater", u.elapsed),
        ];
        assert_eq!(parts(tree), want(&top));
        let monitor = [
            ("poll", m.stage_poll),
            ("diff", m.stage_diff),
            ("write", m.stage_write),
        ];
        assert_eq!(parts(&tree.children[0]), want(&monitor));
        // The poll and the diff are closed: their parts sum to them.
        let poll = [
            ("devices", m.stage_poll_devices),
            ("links", m.stage_poll_links),
        ];
        assert_eq!(parts(&tree.children[0].children[0]), want(&poll));
        assert_eq!(m.stage_poll, m.stage_poll_devices + m.stage_poll_links);
        let diff = [
            ("reseed", m.stage_diff_reseed),
            ("order", m.stage_diff_order),
        ];
        assert_eq!(parts(&tree.children[0].children[1]), want(&diff));
        assert_eq!(m.stage_diff, m.stage_diff_reseed + m.stage_diff_order);
        let updater = [
            ("read", u.stage_read),
            ("diff", u.stage_diff),
            ("exec", u.stage_exec),
        ];
        assert_eq!(parts(&tree.children[2]), want(&updater));
        assert_eq!(tree.children, r.stages());
        assert_closed(tree);
    }

    #[test]
    fn latency_breakdown_has_all_stages() {
        // Big enough for the bulk seed, so the seed round's `write` splits
        // into the seed's own stages.
        let clock = SimClock::new();
        let graph =
            DcnSpec::sized_for_variables("dc1", crate::monitor::BULK_SEED_THRESHOLD + 2_000)
                .build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::single_dc("dc1", clock);
        let obs = Obs::new();
        let config = CoordinatorConfig {
            capacity_invariant: None,
            obs: Some(obs.clone()),
            ..Default::default()
        };
        let coord = Coordinator::new(&graph, net, storage, config);
        let seed = coord.tick().unwrap();
        let tree = obs.traces.last().unwrap().stages;
        assert_eq!(tree.name, "tick");
        assert_tree_is_the_report(&tree, &seed);
        let write = &tree.children[0].children[2];
        let names: Vec<&str> = write.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["intern", "arena_fill", "index_build", "paxos_commit"]
        );
        let children: f64 = write.children.iter().map(|c| c.ms).sum();
        let wall_ms = seed.monitor.seed.expect("a bulk seed").wall_ms;
        assert!((children - wall_ms).abs() < 1e-6, "{children} vs {wall_ms}");
    }

    #[test]
    fn degraded_tick_skips_down_partition_groups() {
        let clock = SimClock::new();
        let mut graph = NetworkGraph::new();
        DcnSpec::tiny("dc1").build_prefixed_into(&mut graph);
        DcnSpec::tiny("dc2").build_prefixed_into(&mut graph);
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::new(
            [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
            clock.clone(),
            statesman_storage::StorageConfig::default(),
        );
        let coord = Coordinator::new(&graph, net, storage.clone(), CoordinatorConfig::default());
        assert_eq!(coord.groups().len(), 2);

        let r0 = coord.tick().unwrap();
        assert!(!r0.degraded());
        assert_eq!(r0.checkers.len(), 2);

        // dc2's partition goes down: its group is skipped, dc1's work
        // continues, and the round completes instead of erroring.
        storage.set_partition_available(&DatacenterId::new("dc2"), false);
        clock.advance(SimDuration::from_mins(1));
        let r1 = coord.tick().unwrap();
        assert!(r1.degraded());
        assert_eq!(r1.skipped_groups, vec!["dc:dc2".to_string()]);
        assert_eq!(r1.checkers.len(), 1);
        assert_eq!(r1.monitor.devices_polled, graph.node_count() / 2);

        // Heal: full service resumes.
        storage.set_partition_available(&DatacenterId::new("dc2"), true);
        clock.advance(SimDuration::from_mins(1));
        let r2 = coord.tick().unwrap();
        assert!(!r2.degraded());
        assert_eq!(r2.checkers.len(), 2);
        assert_eq!(r2.monitor.devices_polled, graph.node_count());
    }

    #[test]
    fn round_report_exposes_fault_and_quarantine_counters() {
        use statesman_net::FaultEvent;
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults = cfg.faults.with_event(
            statesman_types::SimTime::from_secs(30),
            FaultEvent::CrashDevice {
                device: statesman_types::DeviceName::new("agg-1-1"),
            },
        );
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        let coord = Coordinator::new(
            &graph,
            net,
            storage.clone(),
            CoordinatorConfig {
                quarantine_cooldown: Some(SimDuration::from_mins(30)),
                updater_breaker: Some((1, SimDuration::from_mins(30))),
                ..Default::default()
            },
        );
        let app = StatesmanClient::new("switch-upgrade", storage, clock);

        // Round 0 seeds the OS; the crash fires during the advance.
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        // Round 1 discovers the dead device and quarantines it.
        let r1 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert_eq!(r1.monitor.devices_unreachable, 1);

        // Round 2: the device is under quarantine, and a proposal
        // touching it is refused — all visible in the round report.
        app.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        let r2 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert_eq!(r2.devices_quarantined(), 1);
        assert_eq!(r2.quarantine_rejected(), 1);
        assert_eq!(r2.accepted(), 0);
        assert!(!r2.degraded());
        assert_eq!(r2.storage_retries, 0);
        let (failed, retries, skips, opened) = r2.command_fault_counters();
        assert_eq!(
            (failed, retries, skips, opened),
            (0, 0, 0, 0),
            "quarantine kept the updater from ever touching the dead device"
        );
    }

    #[test]
    fn a_quarantine_round_reads_what_changed_not_the_pool() {
        use statesman_net::FaultEvent;
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults = cfg.faults.with_event(
            statesman_types::SimTime::from_secs(30),
            FaultEvent::CrashDevice {
                device: statesman_types::DeviceName::new("agg-1-1"),
            },
        );
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock);
        let obs = Obs::new();
        let coord = Coordinator::new(
            &graph,
            net,
            storage.clone(),
            CoordinatorConfig {
                quarantine_cooldown: Some(SimDuration::from_mins(30)),
                obs: Some(obs.clone()),
                ..Default::default()
            },
        );
        // Round 0 seeds the OS, round 1 finds the crashed device.
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

        let dc = DatacenterId::new("dc1");
        let visited = || {
            let name = "storage_read_rows_visited_total";
            obs.registry.counter_value(name).unwrap_or(0)
        };
        let before = visited();
        let r2 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert_eq!(r2.devices_quarantined(), 1);
        // The quarantine set decides what the stages do, not how they
        // read: no stage walked the OS pool, and the mirrors survived.
        let os_rows = storage.pool_len(&dc, &Pool::Observed) as u64;
        assert!(
            visited() - before < os_rows,
            "a quarantine round scanned {} rows of a {os_rows}-row OS pool",
            visited() - before
        );
        assert!(coord
            .updater
            .cached_watermark(&Pool::Observed, &dc)
            .is_some());
    }

    #[test]
    fn obs_records_metrics_trace_and_status_each_tick() {
        let (graph, net, storage, clock) = setup();
        let obs = Obs::new();
        let coord = Coordinator::new(
            &graph,
            net,
            storage.clone(),
            CoordinatorConfig {
                obs: Some(obs.clone()),
                ..Default::default()
            },
        );
        let app = StatesmanClient::new("switch-upgrade", storage, clock);
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        app.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        let r = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

        // Metrics mirror the round reports.
        let reg = &obs.registry;
        assert_eq!(reg.counter_value("coordinator_rounds_total"), Some(2));
        assert!(reg.counter_value("monitor_devices_polled_total").unwrap() > 0);
        assert_eq!(reg.counter_value("checker_accepted_total"), Some(1));
        assert!(reg.counter_value("updater_commands_applied_total").unwrap() >= 1);
        // Storage was auto-attached to the same registry.
        assert!(reg.counter_value("storage_reads_total").unwrap() > 0);

        // The last trace's stage tree is the report's wall time, and the
        // round histograms observe those same nodes.
        let trace = obs.traces.last().unwrap();
        assert_eq!(trace.round, 1);
        assert_tree_is_the_report(&trace.stages, &r);
        let traces = obs.traces.recent(2);
        let updater: f64 = (traces.iter()).map(|t| t.stages.children[2].ms).sum();
        let histogram = reg.histogram("updater_round_ms", LATENCY_BUCKETS_MS);
        assert_eq!((histogram.count(), histogram.sum()), (2, updater));
        assert_eq!(trace.accepted, 1);
        assert_eq!(
            trace.proposals_seen,
            trace.accepted + trace.rejected + trace.already_satisfied
        );
        assert_eq!(obs.traces.len(), 2);
        assert_eq!(obs.status().last_round, Some(1));
    }

    #[test]
    fn monitor_work_counters_are_exported() {
        let (graph, net, storage, _clock) = setup();
        let obs = Obs::new();
        let config = CoordinatorConfig {
            obs: Some(obs.clone()),
            ..Default::default()
        };
        let coord = Coordinator::new(&graph, net, storage, config);
        let r0 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        let r1 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        let total = |f: fn(&MonitorReport) -> usize| Some((f(&r0.monitor) + f(&r1.monitor)) as u64);
        let reg = &obs.registry;
        assert_eq!(
            reg.counter_value("monitor_rows_compared_total"),
            total(|m| m.rows_compared)
        );
        // A round builds exactly the rows it writes: the resync in round
        // 0 borrows what it re-reads.
        assert_eq!(
            reg.counter_value("monitor_rows_materialized_total"),
            total(|m| m.rows_written)
        );
    }

    #[test]
    fn quiescent_rounds_ride_the_delta_plane() {
        let (graph, net, storage, _clock) = setup();
        let obs = Obs::new();
        let coord = Coordinator::new(
            &graph,
            net,
            storage.clone(),
            CoordinatorConfig {
                obs: Some(obs.clone()),
                ..Default::default()
            },
        );

        // Round 0 seeds the OS: everything is new, nothing suppressed.
        let r0 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert!(r0.rows_written > 0);
        assert_eq!(r0.writes_suppressed, 0);

        // Quiescent round: no topology or config changed, so only live
        // telemetry (cpu/mem utilization) is rewritten and everything
        // else is suppressed.
        let r1 = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert_eq!(r1.rows_written + r1.writes_suppressed, r0.rows_written);
        assert!(
            r1.rows_written * 4 < r0.rows_written,
            "quiescent round rewrote most of the pool: {r1:?}"
        );
        assert!(r1.delta_reads > r0.delta_reads);
        assert_eq!(r1.watermark_lag, 0);

        // All of it is visible on the trace ring (and thus /v1/status).
        let trace = obs.traces.last().unwrap();
        assert_eq!(trace.rows_written, r1.rows_written);
        assert_eq!(trace.writes_suppressed, r1.writes_suppressed);
        assert_eq!(trace.delta_reads, r1.delta_reads);
        assert_eq!(trace.full_fallbacks, r1.full_fallbacks);
        assert_eq!(trace.watermark_lag, 0);
        let reg = &obs.registry;
        assert_eq!(
            reg.counter_value("monitor_writes_suppressed_total"),
            Some(r1.writes_suppressed as u64)
        );
        assert!(reg.counter_value("monitor_rows_written_total").unwrap() > 0);
        assert_eq!(reg.gauge("state_watermark_lag").get(), 0);

        // The interned state plane is observable: every entity this
        // deployment touched sits in the symbol table, and the gauge and
        // status board both report it.
        let interned = reg.gauge("interned_entities").get();
        assert!(
            interned >= (graph.node_count() + graph.edge_count()) as i64,
            "every polled entity should be interned: {interned}"
        );
        assert_eq!(obs.status().interned_entities, interned as u64);
        // Edge resolutions stay rare on the hot path: the counter exists
        // and quiescent rounds resolve (at most) a handful of keys.
        assert!(reg.counter_value("key_resolutions_total").is_some());
        assert!(
            obs.status().key_resolutions_last_round < 100,
            "resolution crept into a hot loop: {}",
            obs.status().key_resolutions_last_round
        );
    }

    /// Every decision-bearing field of a round except `delta_reads`: the
    /// fields `tests/round_engine_equivalence.rs` digests, none of the
    /// wall-clock ones.
    fn decisions(r: &RoundReport) -> String {
        let checkers: Vec<_> = (r.checkers.iter())
            .map(|c| {
                (
                    &c.group,
                    [c.proposals_seen, c.accepted, c.rejected],
                    [c.already_satisfied, c.ts_pruned, c.quarantine_rejected],
                    c.variables_read,
                    &c.receipts,
                )
            })
            .collect();
        let u = &r.updater;
        let updater = [
            u.diffs,
            u.commands_applied,
            u.commands_failed,
            u.unrenderable,
            u.retries,
            u.breaker_skips,
            u.quarantine_skips,
            u.breakers_opened,
            u.plan_steps,
            u.plan_waves,
            u.plan_max_width,
            u.plan_inflight_rejections,
            u.plan_rollbacks,
        ];
        let monitor = (r.monitor.devices_quarantined, r.monitor.devices_polled);
        let seed = r.monitor.seed.map(|s| (s.rows, s.partitions));
        let round = (&r.skipped_groups, r.full_fallbacks, r.watermark_lag);
        format!(
            "{:?} {monitor:?} {seed:?} {checkers:?} {updater:?} {:?} {round:?} {}",
            (r.rows_written, r.writes_suppressed),
            u.modeled_io,
            r.storage_retries,
        )
    }

    #[test]
    fn frozen_clock_rounds_after_convergence_are_no_ops() {
        let (graph, net, storage, clock) = setup();
        let coord = Coordinator::new(
            &graph,
            net,
            storage.clone(),
            CoordinatorConfig {
                capacity_invariant: Some((0.5, 0.99, Some(1))),
                ..Default::default()
            },
        );
        let app = StatesmanClient::new("switch-upgrade", storage.clone(), clock);
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        app.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        for _ in 0..3 {
            coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        }
        // One more round observes the last step's counter walk.
        let settled = coord.tick().unwrap();
        assert_eq!(settled.updater.diffs, 0, "not converged: {settled:?}");
        let dc = DatacenterId::new("dc1");
        assert_eq!(storage.pool_len(&dc, &Pool::Target), 1);

        // The clock stands still: three more rounds write, decide and
        // issue nothing, and agree with each other.
        let marks = || {
            let dcs = storage.partitions();
            dcs.iter()
                .map(|dc| storage.partition_watermark(dc).unwrap())
                .collect::<Vec<_>>()
        };
        let before = marks();
        let frozen: Vec<RoundReport> = (0..3)
            .map(|_| {
                let r = coord.tick().unwrap();
                assert_eq!(marks(), before, "a frozen round moved a watermark");
                r
            })
            .collect();
        for r in &frozen {
            assert_eq!(r.rows_written, 0, "{r:?}");
            assert!(r.checkers.iter().all(|c| c.receipts.is_empty()), "{r:?}");
            assert_eq!(r.updater.diffs, 0, "{r:?}");
        }
        assert_eq!(decisions(&frozen[0]), decisions(&frozen[1]));
        assert_eq!(decisions(&frozen[1]), decisions(&frozen[2]));
    }

    #[test]
    fn delta_plane_converges_like_the_snapshot_plane() {
        // The end-to-end upgrade scenario, once per `delta_state_plane`
        // setting. The flag is ignored now that the delta plane is the
        // only one, so both runs must land the final device state and
        // proposal outcome the snapshot plane landed.
        for delta in [true, false] {
            let (graph, net, storage, clock) = setup();
            let coord = Coordinator::new(
                &graph,
                net.clone(),
                storage.clone(),
                CoordinatorConfig {
                    delta_state_plane: delta,
                    ..Default::default()
                },
            );
            let app = StatesmanClient::new("switch-upgrade", storage, clock);
            coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
            app.propose([(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
                Value::text("7.0"),
            )])
            .unwrap();
            let r = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
            assert_eq!(r.accepted(), 1, "delta={delta}");
            coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
            let r3 = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
            assert_eq!(r3.updater.diffs, 0, "delta={delta}: {:?}", r3.updater);
            assert_eq!(
                net.device_snapshot(&"agg-1-1".into())
                    .unwrap()
                    .observed_firmware(),
                "7.0",
                "delta={delta}"
            );
        }
    }

    #[test]
    fn plan_synthesis_converges_like_the_chain_walk() {
        // The end-to-end upgrade scenario on the planned executor: it must
        // land the final device state the serial chain walk landed, and
        // report its plan shape.
        let (graph, net, storage, clock) = setup();
        let coord = Coordinator::new(
            &graph,
            net.clone(),
            storage.clone(),
            CoordinatorConfig::default(),
        );
        let app = StatesmanClient::new("switch-upgrade", storage, clock);
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        app.propose([(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )])
        .unwrap();
        let r = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        assert_eq!(r.accepted(), 1);
        assert!(r.updater.plan_steps >= 1, "planned: {:?}", r.updater);
        assert!(r.updater.plan_waves >= 1);
        assert_eq!(r.updater.plan_inflight_rejections, 0);
        coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        let r3 = coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
        assert_eq!(r3.updater.diffs, 0, "planned: {:?}", r3.updater);
        assert_eq!(
            net.device_snapshot(&"agg-1-1".into())
                .unwrap()
                .observed_firmware(),
            "7.0"
        );
    }

    #[test]
    fn unsafe_parallel_upgrades_blocked_end_to_end() {
        let (graph, net, storage, clock) = setup();
        let coord = Coordinator::new(&graph, net, storage.clone(), CoordinatorConfig::default());
        let app = StatesmanClient::new("switch-upgrade", storage, clock);
        coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

        // Tiny fabric: 2 aggs per pod. Upgrading both at once would cut
        // pod 1's ToRs off (0% capacity) — one must be rejected.
        app.propose([
            (
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
                Value::text("7.0"),
            ),
            (
                EntityName::device("dc1", "agg-1-2"),
                Attribute::DeviceFirmwareVersion,
                Value::text("7.0"),
            ),
        ])
        .unwrap();
        let r = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        assert_eq!(r.accepted(), 1);
        assert_eq!(r.rejected(), 1);
    }
}
