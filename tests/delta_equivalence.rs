//! The delta state plane's load-bearing property: a view maintained
//! purely by applying `read_since` changefeeds is **bit-equal** to a
//! fresh full read at every step — across random churn, value-identical
//! rewrites (suppressed writes), deletes, partition outages, and
//! change-index evictions that force snapshot fallbacks.
//!
//! This is what makes the paper's §6.2 statelessness argument carry over
//! to the delta plane: any component's cached view can be discarded and
//! rebuilt at any time, because the delta-fed view *is* the full read.
//! The stateless-restart oracle at the end of this file checks that
//! consequence on the components themselves: a checker and an updater
//! built fresh every round decide exactly what long-lived ones decide.

use proptest::prelude::*;
use statesman_core::{
    Checker, CheckerConfig, ConnectivityInvariant, ImpactGroup, Invariant, MapView, MergePolicy,
    Monitor, StatesmanClient, TorPairCapacityInvariant, Updater,
};
use statesman_net::{DeviceCommand, SimClock, SimConfig, SimNetwork};
use statesman_storage::{ReadRequest, StorageConfig, StorageService, WriteRequest};
use statesman_topology::{DcnSpec, NetworkGraph};
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityName, Freshness, LockPriority, NetworkState,
    Pool, PowerStatus, SimDuration, StateKey, Value, Version,
};
use std::collections::BTreeSet;

fn full_sorted(storage: &StorageService, dc: &DatacenterId) -> Vec<NetworkState> {
    let mut rows = storage
        .read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness: Freshness::UpToDate,
            entity: None,
            attribute: None,
        })
        .unwrap();
    rows.sort_by_key(|r| r.key());
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random op soup: upserts, value-identical rewrites, deletes, and
    /// partition outages, with the delta-fed view checked for
    /// bit-equality against a full read after every single op.
    #[test]
    fn delta_view_matches_full_reads_across_churn(
        ops in proptest::collection::vec((0..6u8, 0..48u16, 0..6u8), 1..60)
    ) {
        let clock = SimClock::new();
        let dc = DatacenterId::new("dc1");
        let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
        let writer = AppId::monitor();
        let key = |idx: u16| StateKey::new(
            EntityName::device("dc1", format!("dev-{idx}")),
            Attribute::DeviceBootImage,
        );
        let row = |idx: u16, val: u8, at| NetworkState::new(
            EntityName::device("dc1", format!("dev-{idx}")),
            Attribute::DeviceBootImage,
            Value::text(format!("img-{val}")),
            at,
            writer.clone(),
        );

        let mut view = MapView::new();
        let mut watermark = Version::GENESIS;

        for (kind, idx, val) in ops {
            clock.advance(SimDuration::from_secs(1));
            match kind {
                // Upsert (possibly overwriting with a new value).
                0..=2 => {
                    storage.write(WriteRequest {
                        pool: Pool::Observed,
                        rows: vec![row(idx, val, clock.now())],
                    }).unwrap();
                }
                // Value-identical rewrite: a suppressed write must move
                // neither the watermark nor the stored row.
                3 => {
                    if let Some(existing) = storage
                        .read_row(&Pool::Observed, &key(idx))
                        .unwrap()
                    {
                        let before = storage.pool_watermark(&dc, &Pool::Observed).unwrap();
                        storage.write(WriteRequest {
                            pool: Pool::Observed,
                            rows: vec![NetworkState::new(
                                existing.entity.clone(),
                                existing.attribute,
                                existing.value.clone(),
                                clock.now(),
                                existing.writer.clone(),
                            )],
                        }).unwrap();
                        let after = storage.pool_watermark(&dc, &Pool::Observed).unwrap();
                        prop_assert_eq!(before, after, "suppressed write moved the watermark");
                    }
                }
                // Delete (tombstone rides the changefeed).
                4 => {
                    let _ = storage.delete(Pool::Observed, vec![key(idx)]);
                }
                // Partition outage: the changefeed read fails fast and
                // the consumer resumes from the same watermark after the
                // heal — no changes may be lost across the gap.
                _ => {
                    storage.set_partition_available(&dc, false);
                    prop_assert!(
                        storage.read_since(&dc, &Pool::Observed, watermark).is_err(),
                        "offline partition must fail delta reads fast"
                    );
                    storage.set_partition_available(&dc, true);
                }
            }

            let delta = storage.read_since(&dc, &Pool::Observed, watermark).unwrap();
            watermark = delta.watermark;
            view.apply_delta(delta);
            prop_assert_eq!(
                view.clone().into_sorted_rows(),
                full_sorted(&storage, &dc),
                "delta-fed view diverged from the full read"
            );
        }
    }

    /// A consumer that skips ahead (reads from an arbitrary future/past
    /// version) still converges: whatever `since` it presents, applying
    /// the reply to a view seeded from a full read at that watermark
    /// matches the current full read.
    #[test]
    fn any_starting_watermark_is_recoverable(
        writes in proptest::collection::vec((0..32u16, 0..6u8), 1..40),
        resume_at in 0..64u64
    ) {
        let clock = SimClock::new();
        let dc = DatacenterId::new("dc1");
        let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
        for (idx, val) in writes {
            clock.advance(SimDuration::from_secs(1));
            storage.write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", format!("dev-{idx}")),
                    Attribute::DeviceBootImage,
                    Value::text(format!("img-{val}")),
                    clock.now(),
                    AppId::monitor(),
                )],
            }).unwrap();
        }
        let head = storage.pool_watermark(&dc, &Pool::Observed).unwrap();
        // `since` past the head is out of the index's window and must be
        // answered with a snapshot rather than garbage.
        let delta = storage.read_since(&dc, &Pool::Observed, Version(resume_at)).unwrap();
        prop_assert_eq!(delta.watermark, head);
        if resume_at > head.0 {
            prop_assert!(delta.snapshot, "future since must snapshot-fallback");
        }
        let mut view = MapView::new();
        if !delta.snapshot {
            // Seed as a consumer that had a correct view at `resume_at`
            // would be seeded: with the rows current at that version —
            // approximated by the current full read minus the delta's
            // changed keys (the delta rewrites exactly those).
            let changed: std::collections::HashSet<StateKey> = delta
                .upserts
                .iter()
                .map(|r| r.key())
                .chain(delta.deletes.iter().cloned())
                .collect();
            for r in full_sorted(&storage, &dc) {
                if !changed.contains(&r.key()) {
                    view.upsert(r);
                }
            }
        }
        view.apply_delta(delta);
        prop_assert_eq!(view.into_sorted_rows(), full_sorted(&storage, &dc));
    }
}

/// Crossing the change index's compaction floor over the service API: a
/// churn burst larger than the index forces the next `read_since` into a
/// full snapshot, after which the feed resumes incrementally. The view
/// stays bit-equal to a full read through the whole crossing.
#[test]
fn compaction_floor_crossing_falls_back_to_snapshot_and_recovers() {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    let write_burst = |start: u32, n: u32, tag: &str| {
        let rows: Vec<NetworkState> = (start..start + n)
            .map(|i| {
                NetworkState::new(
                    EntityName::device("dc1", format!("dev-{i}")),
                    Attribute::DeviceBootImage,
                    Value::text(format!("img-{tag}")),
                    clock.now(),
                    AppId::monitor(),
                )
            })
            .collect();
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows,
            })
            .unwrap();
    };

    // Seed a small pool and catch the consumer up incrementally.
    write_burst(0, 100, "a");
    let mut view = MapView::new();
    let d0 = storage
        .read_since(&dc, &Pool::Observed, Version::GENESIS)
        .unwrap();
    let mut watermark = d0.watermark;
    view.apply_delta(d0);
    assert_eq!(view.len(), 100);

    // Churn far past the index capacity (65,536 entries) while the
    // consumer isn't looking.
    clock.advance(SimDuration::from_secs(60));
    for burst in 0..3u32 {
        write_burst(0, 30_000, &format!("b{burst}"));
    }

    // The consumer's watermark is now below the compaction floor: the
    // reply must be a snapshot, and applying it must resynchronize.
    let d1 = storage.read_since(&dc, &Pool::Observed, watermark).unwrap();
    assert!(d1.snapshot, "below-floor read must be a full snapshot");
    watermark = d1.watermark;
    view.apply_delta(d1);
    assert_eq!(view.clone().into_sorted_rows(), full_sorted(&storage, &dc));

    // And the feed resumes incrementally afterwards.
    clock.advance(SimDuration::from_secs(60));
    write_burst(7, 1, "c");
    let d2 = storage.read_since(&dc, &Pool::Observed, watermark).unwrap();
    assert!(!d2.snapshot, "post-recovery read should be incremental");
    assert_eq!(d2.upserts.len(), 1);
    view.apply_delta(d2);
    assert_eq!(view.into_sorted_rows(), full_sorted(&storage, &dc));
}

/// A chaotic history (quarantines, degraded rounds and command faults;
/// seed fixed for reproducibility) must not desynchronize anything: a
/// `since=` follower reading the OS over the wire stays bit-equal to full
/// reads while the loop — whose quarantine rounds advance the same
/// mirrors every other round does — stays safe and converges.
#[test]
fn chaotic_delta_plane_matches_snapshot_plane_outcomes() {
    use statesman_chaos::ChaosScenario;
    let scenario = ChaosScenario::standard(4);
    let (outcome, wire) = scenario.run_with_wire_reader();
    assert!(
        wire.mismatches.is_empty(),
        "wire delta view diverged under chaos: {:?}",
        wire.mismatches
    );
    assert!(outcome.safety_violations.is_empty());
    assert_eq!(outcome.tick_errors, 0);
    assert!(
        outcome.converged_at.is_some(),
        "never converged: {outcome:?}"
    );
    assert!(wire.delta_reads > 0, "{wire:?}");
}

// ---- the stateless-restart oracle ----
//
// §6.2: checker and updater hold no state the storage service does not.
// Twin worlds of one seed run the same history; twin A keeps one
// long-lived checker per group and one updater (warm mirrors, carried
// seed, quiescent marks, warm invariant caches), twin B builds all of
// them fresh every round. Every round they must issue the same receipts
// and the same commands, report the same diffs, and leave the same OS,
// TS and PS behind.
//
// dc1 has four pods of three Aggs, so one pod's pairs are half the panel
// and a step in pod 1 or 2 leaves most of another pod's pairs outside its
// pod: a check that re-solved only the step's pod would decide from a
// stale report. Late in the history two of pod 4's Aggs — a pod no
// proposal touches — lose power between the checkers' pass and the
// updater's round, and the updater must defer the step the checker
// accepted as a fresh one would.

const ORACLE_ROUNDS: u64 = 32;

/// The oracle worlds' change-index depth: room for every round's churn on
/// the two tiny fabrics, small enough that one burst crosses it.
const ORACLE_INDEX_CAPACITY: usize = 2_048;

fn oracle_dcs() -> [DatacenterId; 2] {
    [DatacenterId::new("dc1"), DatacenterId::new("dc2")]
}

/// The stages under test: what twin B rebuilds every round.
struct Stages {
    checkers: Vec<Checker>,
    updater: Updater,
}

struct OracleWorld {
    clock: SimClock,
    graph: NetworkGraph,
    net: SimNetwork,
    storage: StorageService,
    /// Long-lived in both twins: the quarantine set is the monitor's.
    monitor: Monitor,
    upgrade: StatesmanClient,
    te: StatesmanClient,
}

impl OracleWorld {
    fn new(seed: u64) -> OracleWorld {
        let clock = SimClock::new();
        let mut graph = NetworkGraph::new();
        let dc1 = DcnSpec {
            pods: 4,
            aggs_per_pod: 3,
            ..DcnSpec::tiny("dc1")
        };
        dc1.build_prefixed_into(&mut graph);
        DcnSpec::tiny("dc2").build_prefixed_into(&mut graph);
        let mut cfg = SimConfig::ideal();
        cfg.seed = seed;
        // An upgraded device misses the next poll and is quarantined for
        // the five rounds after it.
        cfg.faults.reboot_window_ms = 90_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let mut config = StorageConfig::default();
        config.ring.change_index_capacity = ORACLE_INDEX_CAPACITY;
        let storage = StorageService::new(oracle_dcs(), clock.clone(), config);
        OracleWorld {
            monitor: Monitor::new(net.clone(), storage.clone(), graph.clone()),
            upgrade: StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone()),
            te: StatesmanClient::new("inter-dc-te", storage.clone(), clock.clone()),
            clock,
            graph,
            net,
            storage,
        }
    }

    fn stages(&self) -> Stages {
        let invariants = |dc: &DatacenterId| -> Vec<Box<dyn Invariant>> {
            vec![
                Box::new(ConnectivityInvariant::new(dc.clone())),
                // 50% of baseline for 75% of pairs: a pod under 50% fails
                // half of dc1's panel, and two of its pairs alone do not.
                Box::new(TorPairCapacityInvariant::new(
                    &self.graph,
                    dc.clone(),
                    0.5,
                    0.75,
                    Some(1),
                )),
            ]
        };
        let checkers = oracle_dcs()
            .iter()
            .map(|dc| {
                let mut c = Checker::new(
                    CheckerConfig {
                        group: ImpactGroup::Datacenter(dc.clone()),
                        policy: MergePolicy::PriorityLock,
                    },
                    self.graph.clone(),
                );
                for inv in invariants(dc) {
                    c.add_invariant(inv);
                }
                c
            })
            .collect();
        let updater = Updater::new(self.net.clone(), self.storage.clone(), self.graph.clone())
            .with_plan_invariants(oracle_dcs().iter().flat_map(invariants).collect());
        Stages { checkers, updater }
    }

    /// Every pool of every live partition, rows in key order.
    fn pools(&self) -> Vec<(DatacenterId, Pool, Vec<NetworkState>)> {
        let mut out = Vec::new();
        for dc in oracle_dcs() {
            let apps = [self.upgrade.app(), self.te.app()];
            let proposed = apps.into_iter().map(|a| Pool::Proposed(a.clone()));
            for pool in [Pool::Observed, Pool::Target].into_iter().chain(proposed) {
                let rows = self.storage.read(ReadRequest {
                    datacenter: dc.clone(),
                    pool: pool.clone(),
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                });
                let Ok(mut rows) = rows else { continue };
                rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
                out.push((dc.clone(), pool, rows));
            }
        }
        out
    }
}

fn oracle_device(dc: &str, name: &str) -> EntityName {
    EntityName::device(dc, format!("{dc}.{name}"))
}

/// What happens before each round of a seed's history.
struct OracleHistory {
    seed: u64,
    /// Rounds dc2's partition is offline for.
    outage: std::ops::Range<u64>,
    /// The round before which one OS row is rewritten more often than
    /// the change index holds entries.
    crossing: u64,
    /// The round `inter-dc-te` takes a four-minute lock on dc1.tor-2-1.
    lock: u64,
    /// The round two of pod 4's Aggs lose power after the checkers'
    /// pass; they get it back two rounds later.
    power_off: u64,
}

impl OracleHistory {
    fn of(seed: u64) -> OracleHistory {
        OracleHistory {
            seed,
            outage: 12 + seed % 3..15 + seed % 3,
            crossing: 20 + seed % 5,
            lock: 3 + seed % 4,
            power_off: 27,
        }
    }

    fn set_pod4_power(&self, w: &OracleWorld, power: PowerStatus) {
        for agg in ["agg-4-1", "agg-4-2"] {
            let agg = DeviceName::new(format!("dc1.{agg}"));
            let out = w.net.submit(&agg, DeviceCommand::SetAdminPower(power));
            assert!(out.is_applied(), "{out:?}");
        }
        w.net.step(SimDuration::from_secs(1));
    }

    /// Between the checkers' pass and the updater's round: whether the
    /// network moved, so that the monitor has to run again.
    fn after_checkers(&self, round: u64, w: &OracleWorld) -> bool {
        let moved = round == self.power_off;
        if moved {
            self.set_pod4_power(w, PowerStatus::Off);
        }
        moved
    }

    fn before_round(&self, round: u64, w: &OracleWorld) {
        w.net.step(SimDuration::from_mins(1));
        let dc2_up = !self.outage.contains(&round);
        w.storage.set_partition_available(&oracle_dcs()[1], dc2_up);

        const AGGS: [&str; 4] = ["agg-1-1", "agg-2-1", "agg-1-2", "agg-2-2"];
        let firmware = |name: &str, version: String| {
            let attr = Attribute::DeviceFirmwareVersion;
            (oracle_device("dc1", name), attr, Value::text(version))
        };
        let pick = AGGS[((self.seed + round / 3) % 4) as usize];
        match round % 3 {
            // One upgrade: accepted, issued, and the device reboots into
            // quarantine.
            0 => {
                let version = format!("7.{}", round / 12);
                w.upgrade.propose([firmware(pick, version)]).unwrap();
            }
            // A proposal on the device that upgrade just quarantined.
            1 => {
                let image = Value::text(format!("img-{round}"));
                let attr = Attribute::DeviceBootImage;
                let row = (oracle_device("dc1", pick), attr, image);
                w.upgrade.propose([row]).unwrap();
            }
            // Both aggs of one pod at once: the capacity invariant lets
            // one through. And something for dc2 while it is up.
            _ => {
                let version = format!("8.{round}");
                let pod = 1 + (self.seed + round) % 2;
                let both = [1, 2].map(|a| firmware(&format!("agg-{pod}-{a}"), version.clone()));
                w.upgrade.propose(both).unwrap();
                if dc2_up {
                    let row = (
                        oracle_device("dc2", pick),
                        Attribute::DeviceFirmwareVersion,
                        Value::text(version),
                    );
                    w.upgrade.propose([row]).unwrap();
                }
            }
        }
        // A ToR is never upgraded here, so never quarantined: the lock
        // decides the proposal that follows it.
        if round == self.power_off + 2 {
            self.set_pod4_power(w, PowerStatus::On);
        }
        let held = oracle_device("dc1", "tor-2-1");
        if round == self.lock {
            let lease = w.clock.now() + SimDuration::from_mins(4);
            w.te.acquire_lock(&held, LockPriority::High, Some(lease))
                .unwrap();
        }
        if round == self.lock + 1 {
            let row = (held, Attribute::DeviceBootImage, Value::text("img-locked"));
            w.upgrade.propose([row]).unwrap();
        }
        if round == self.crossing {
            let rows = (0..ORACLE_INDEX_CAPACITY + 64)
                .map(|i| {
                    NetworkState::new(
                        oracle_device("dc1", "core-1"),
                        Attribute::DeviceCpuUtilization,
                        Value::Float((i % 2) as f64),
                        w.clock.now(),
                        AppId::monitor(),
                    )
                })
                .collect();
            let pool = Pool::Observed;
            w.storage.write(WriteRequest { pool, rows }).unwrap();
        }
    }
}

/// What one twin did in one round, and what it left behind.
#[derive(PartialEq)]
struct OracleRound {
    quarantined: usize,
    /// Receipts and counts per checker, commands and diff counts of the
    /// updater: every decision-bearing field, none of the wall-clock ones.
    decisions: String,
    pools: Vec<(DatacenterId, Pool, Vec<NetworkState>)>,
}

/// One twin's run. `fresh` rebuilds the stages every round; `blind` (the
/// canary) also hands them an empty quarantine set on the first round
/// the monitor's is not.
fn oracle_twin(seed: u64, fresh: bool, blind: bool) -> (Vec<OracleRound>, u64) {
    let history = OracleHistory::of(seed);
    let w = OracleWorld::new(seed);
    let long_lived = w.stages();
    let mut blinded = false;
    let mut rounds = Vec::new();
    for round in 0..ORACLE_ROUNDS {
        history.before_round(round, &w);
        let down: BTreeSet<DatacenterId> = oracle_dcs()
            .into_iter()
            .filter(|dc| !w.storage.partition_available(dc))
            .collect();
        w.monitor.run_round_skipping(&down).unwrap();
        let now = w.clock.now();
        let mut quarantined = w.monitor.quarantined_devices(now);
        let seen = quarantined.len();
        if blind && !blinded && seen > 0 {
            quarantined = BTreeSet::<DeviceName>::new();
            blinded = true;
        }
        let rebuilt;
        let stages = if fresh {
            rebuilt = w.stages();
            &rebuilt
        } else {
            &long_lived
        };
        let mut decisions = String::new();
        for c in &stages.checkers {
            // A group whose partition is down fails its pass; how it
            // fails is part of the comparison.
            match c.run_pass_with_unreachable(&w.storage, now, &quarantined) {
                Ok(r) => decisions.push_str(&format!(
                    "{} seen={} accepted={} rejected={} satisfied={} pruned={} \
                     quarantine_rejected={} vars={} {:?}\n",
                    r.group,
                    r.proposals_seen,
                    r.accepted,
                    r.rejected,
                    r.already_satisfied,
                    r.ts_pruned,
                    r.quarantine_rejected,
                    r.variables_read,
                    r.receipts,
                )),
                Err(e) => decisions.push_str(&format!("{} failed: {e}\n", c.group())),
            }
        }
        if history.after_checkers(round, &w) {
            w.monitor.run_round_skipping(&down).unwrap();
            quarantined = w.monitor.quarantined_devices(w.clock.now());
        }
        let u = stages.updater.run_round_excluding(&quarantined).unwrap();
        decisions.push_str(&format!(
            "updater diffs={} applied={} failed={} unrenderable={} quarantine_skips={} \
             plan={}w{}x{} inflight_rej={} rollbacks={} sim_io={:?} commands={:?}\n",
            u.diffs,
            u.commands_applied,
            u.commands_failed,
            u.unrenderable,
            u.quarantine_skips,
            u.plan_steps,
            u.plan_waves,
            u.plan_max_width,
            u.plan_inflight_rejections,
            u.plan_rollbacks,
            u.modeled_io,
            w.net.command_stats(),
        ));
        rounds.push(OracleRound {
            quarantined: seen,
            decisions,
            pools: w.pools(),
        });
    }
    let degrades = long_lived.checkers.iter().map(Checker::full_degrades).sum();
    (rounds, degrades)
}

/// The first round two twins disagree on, if any.
fn oracle_divergence(a: &[OracleRound], b: &[OracleRound]) -> Option<String> {
    a.iter().zip(b).enumerate().find_map(|(round, (a, b))| {
        if a.decisions != b.decisions {
            Some(format!(
                "round {round}: decisions differ\n long-lived: {}\n fresh: {}",
                a.decisions, b.decisions
            ))
        } else if a != b {
            Some(format!("round {round}: pools differ"))
        } else {
            None
        }
    })
}

#[test]
fn fresh_stages_every_round_decide_what_long_lived_stages_decide() {
    for seed in 1..=8 {
        let (long_lived, degrades) = oracle_twin(seed, false, false);
        let (fresh, _) = oracle_twin(seed, true, false);
        if let Some(diverged) = oracle_divergence(&long_lived, &fresh) {
            panic!("seed {seed}: {diverged}");
        }
        // The history holds what it is meant to.
        let any = |needle: &str| long_lived.iter().any(|r| r.decisions.contains(needle));
        assert!(long_lived.iter().any(|r| r.quarantined > 0), "seed {seed}");
        assert!(any("quarantine_rejected=1"), "seed {seed}");
        assert!(any("RejectedInvariant"), "seed {seed}");
        assert!(any("RejectedConflict"), "seed {seed}: the lock never bit");
        assert!(any("dc:dc2 failed"), "seed {seed}: no outage");
        let locked = |r: &OracleRound| {
            let mut target = r.pools.iter().filter(|(_, pool, _)| *pool == Pool::Target);
            target.any(|(_, _, rows)| rows.iter().any(|row| row.attribute.is_lock()))
        };
        assert!(long_lived.iter().any(locked), "seed {seed}: no TS lock row");
        assert!(
            long_lived
                .iter()
                .any(|r| !r.decisions.contains("quarantine_skips=0 ")),
            "seed {seed}: the updater never withheld a command"
        );
        let power_off = &long_lived[OracleHistory::of(seed).power_off as usize];
        assert!(
            !power_off.decisions.contains("inflight_rej=0 "),
            "seed {seed}: the step after the power-off was not deferred: {}",
            power_off.decisions
        );
        // The crossing reached the long-lived checker as a snapshot
        // reply: its one silent whole-network reseed.
        assert_eq!(degrades, 1, "seed {seed}");
    }
}

#[test]
fn the_restart_oracle_catches_a_twin_blind_to_one_quarantine_round() {
    let (long_lived, _) = oracle_twin(1, false, false);
    let (blind, _) = oracle_twin(1, true, true);
    let caught = oracle_divergence(&long_lived, &blind).expect("the canary passed");
    assert!(caught.starts_with("round "), "{caught}");
}
