//! The sharded storage plane's load-bearing property: moving from one
//! global `Mutex<Inner>` to a lock per partition changes **nothing
//! observable**. Per-partition op sequences applied concurrently from
//! one thread per partition produce reads, changefeeds, and watermarks
//! bit-identical to the same sequences applied one op at a time from a
//! single thread — across churn, suppressed rewrites, deletes, outages,
//! multi-partition batch fan-out, and compaction-floor crossings.
//!
//! This is what makes the sharding safe: a partition's state is a pure
//! function of its own op order (paper §6.4 — per-DC Paxos rings share
//! nothing), so any cross-partition interleaving commutes.

use proptest::prelude::*;
use statesman_core::MapView;
use statesman_net::SimClock;
use statesman_storage::{ReadRequest, StorageConfig, StorageService, WriteRequest};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, SimTime, StateKey,
    Value, Version,
};

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

fn service() -> StorageService {
    StorageService::new(
        [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
        SimClock::new(),
        StorageConfig::default(),
    )
}

/// The op alphabet, partition-local by construction. Timestamps are
/// pinned per op index (never read off the live clock) so the sequential
/// and concurrent runs stamp byte-identical rows.
#[derive(Clone, Debug)]
enum Op {
    Upsert { idx: u16, val: u8, at: SimTime },
    RewriteIdentical { idx: u16, at: SimTime },
    Delete { idx: u16 },
}

fn dc_for(sel: u8) -> DatacenterId {
    match sel {
        0 => DatacenterId::new("dc1"),
        1 => DatacenterId::new("dc2"),
        _ => DatacenterId::wan(),
    }
}

fn key_in(dc: &DatacenterId, idx: u16) -> StateKey {
    StateKey::new(
        EntityName::device(dc.clone(), format!("dev-{idx}")),
        Attribute::DeviceBootImage,
    )
}

fn apply(storage: &StorageService, dc: &DatacenterId, op: &Op) {
    match op {
        Op::Upsert { idx, val, at } => {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![NetworkState::new(
                        EntityName::device(dc.clone(), format!("dev-{idx}")),
                        Attribute::DeviceBootImage,
                        Value::text(format!("img-{val}")),
                        *at,
                        AppId::monitor(),
                    )],
                })
                .unwrap();
        }
        // A value-identical rewrite must be a complete no-op (no stamp,
        // no watermark movement) — and the decision is partition-local,
        // so both runs resolve it against the same partition history.
        Op::RewriteIdentical { idx, at } => {
            if let Some(existing) = storage
                .read_row(&Pool::Observed, &key_in(dc, *idx))
                .unwrap()
            {
                storage
                    .write(WriteRequest {
                        pool: Pool::Observed,
                        rows: vec![NetworkState::new(
                            existing.entity.clone(),
                            existing.attribute,
                            existing.value.clone(),
                            *at,
                            existing.writer.clone(),
                        )],
                    })
                    .unwrap();
            }
        }
        Op::Delete { idx } => {
            let _ = storage.delete(Pool::Observed, vec![key_in(dc, *idx)]);
        }
    }
}

/// Every partition-visible artifact the two runs must agree on: sorted
/// full reads, the pool watermark, and the entire changefeed replayed
/// from genesis.
fn assert_partitions_identical(a: &StorageService, b: &StorageService) {
    assert_eq!(a.partitions(), b.partitions(), "partition sets differ");
    for dc in a.partitions() {
        assert_eq!(
            full_sorted(a, &dc),
            full_sorted(b, &dc),
            "{dc:?}: full reads diverged"
        );
        assert_eq!(
            a.pool_watermark(&dc, &Pool::Observed).unwrap(),
            b.pool_watermark(&dc, &Pool::Observed).unwrap(),
            "{dc:?}: watermarks diverged"
        );
        let da = a
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap();
        let db = b
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap();
        assert_eq!(da.watermark, db.watermark, "{dc:?}: delta watermarks");
        assert_eq!(da.snapshot, db.snapshot, "{dc:?}: snapshot flags");
        let mut va = MapView::new();
        va.apply_delta(da);
        let mut vb = MapView::new();
        vb.apply_delta(db);
        assert_eq!(
            va.into_sorted_rows(),
            vb.into_sorted_rows(),
            "{dc:?}: changefeed contents diverged"
        );
    }
}

/// Replica determinism in every partition: the replicas that applied
/// the same decree hold the same machine, and at least one pair was
/// compared (a check that compares nothing proves nothing).
fn assert_replicas_deterministic(storage: &StorageService) {
    let mut pairs = 0;
    for dc in storage.partitions() {
        pairs += storage
            .check_replica_determinism(&dc)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(pairs > 0, "no replica pair was compared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random op soup over three partitions (two DCs plus the WAN
    /// pseudo-DC), applied twice: once sequentially in global order, once
    /// with one thread per partition racing the others (each thread keeps
    /// its partition's relative order). Reads, changefeeds, and
    /// watermarks must be bit-identical.
    #[test]
    fn concurrent_partition_ops_match_sequential_apply(
        raw in proptest::collection::vec((0..3u8, 0..24u16, 0..6u8, 0..6u8), 1..80)
    ) {
        let ops: Vec<(DatacenterId, Op)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, idx, val, kind))| {
                let at = SimTime::from_secs(i as u64 + 1);
                let op = match kind {
                    0..=2 => Op::Upsert { idx, val, at },
                    3..=4 => Op::RewriteIdentical { idx, at },
                    _ => Op::Delete { idx },
                };
                (dc_for(sel), op)
            })
            .collect();

        let sequential = service();
        for (dc, op) in &ops {
            apply(&sequential, dc, op);
        }

        let concurrent = service();
        std::thread::scope(|scope| {
            for part in [0u8, 1, 2].map(dc_for) {
                let ops = &ops;
                let concurrent = &concurrent;
                scope.spawn(move || {
                    for (dc, op) in ops.iter().filter(|(dc, _)| *dc == part) {
                        apply(concurrent, dc, op);
                    }
                });
            }
        });

        assert_partitions_identical(&sequential, &concurrent);
        assert_replicas_deterministic(&sequential);
        assert_replicas_deterministic(&concurrent);
    }
}

/// The proxy's multi-partition batch fan-out: one `write` (and one
/// `delete`) whose rows span every partition commits concurrently
/// per-partition, and must leave exactly the state that per-partition
/// single-batch requests leave.
#[test]
fn multi_partition_batch_fanout_matches_per_partition_batches() {
    let batched = service();
    let split = service();
    let at = SimTime::from_secs(1);
    let rows: Vec<NetworkState> = [0u8, 1, 2]
        .iter()
        .flat_map(|&sel| {
            let dc = dc_for(sel);
            (0..50u16).map(move |i| {
                NetworkState::new(
                    EntityName::device(dc.clone(), format!("dev-{i}")),
                    Attribute::DeviceBootImage,
                    Value::text(format!("img-{sel}-{i}")),
                    at,
                    AppId::monitor(),
                )
            })
        })
        .collect();

    batched
        .write(WriteRequest {
            pool: Pool::Observed,
            rows: rows.clone(),
        })
        .unwrap();
    for sel in [0u8, 1, 2] {
        let dc = dc_for(sel);
        split
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: rows
                    .iter()
                    .filter(|r| r.entity.datacenter == dc)
                    .cloned()
                    .collect(),
            })
            .unwrap();
    }
    assert_partitions_identical(&batched, &split);

    // And the batched delete path, spanning all three partitions.
    let keys: Vec<StateKey> = [0u8, 1, 2]
        .iter()
        .flat_map(|&sel| (0..20u16).map(move |i| key_in(&dc_for(sel), i)))
        .collect();
    batched.delete(Pool::Observed, keys.clone()).unwrap();
    for sel in [0u8, 1, 2] {
        let dc = dc_for(sel);
        split
            .delete(
                Pool::Observed,
                keys.iter()
                    .filter(|k| k.entity.datacenter == dc)
                    .cloned()
                    .collect(),
            )
            .unwrap();
    }
    assert_partitions_identical(&batched, &split);
    assert_replicas_deterministic(&batched);
    assert_replicas_deterministic(&split);
}

/// An offline partition fails fast without a partition lock while the
/// other partitions take concurrent writes undisturbed; after the heal,
/// the surviving history matches a service that never saw concurrency.
#[test]
fn outage_isolates_one_partition_under_concurrent_load() {
    let concurrent = service();
    let reference = service();
    let down = DatacenterId::new("dc2");

    concurrent.set_partition_available(&down, false);
    std::thread::scope(|scope| {
        for sel in [0u8, 1, 2] {
            let dc = dc_for(sel);
            let concurrent = &concurrent;
            let down = &down;
            scope.spawn(move || {
                for i in 0..40u16 {
                    let op = Op::Upsert {
                        idx: i,
                        val: sel,
                        at: SimTime::from_secs(i as u64 + 1),
                    };
                    if dc == *down {
                        // Every write to the dark partition must error
                        // (fast, lock-free) and leave no trace.
                        let r = concurrent.write(WriteRequest {
                            pool: Pool::Observed,
                            rows: vec![NetworkState::new(
                                EntityName::device(dc.clone(), format!("dev-{i}")),
                                Attribute::DeviceBootImage,
                                Value::text(format!("img-{sel}")),
                                SimTime::from_secs(i as u64 + 1),
                                AppId::monitor(),
                            )],
                        });
                        assert!(r.is_err(), "write to offline partition succeeded");
                    } else {
                        apply(concurrent, &dc, &op);
                    }
                }
            });
        }
    });
    concurrent.set_partition_available(&down, true);

    // The reference applies only the ops that survived: everything except
    // the dark partition's.
    for sel in [0u8, 2] {
        let dc = dc_for(sel);
        for i in 0..40u16 {
            apply(
                &reference,
                &dc,
                &Op::Upsert {
                    idx: i,
                    val: sel,
                    at: SimTime::from_secs(i as u64 + 1),
                },
            );
        }
    }
    assert_partitions_identical(&concurrent, &reference);
    assert_eq!(full_sorted(&concurrent, &down), Vec::new());
    assert_replicas_deterministic(&concurrent);
    assert_replicas_deterministic(&reference);
}

/// Concurrent churn bursts past the change index capacity (65,536
/// entries per pool) push each partition's compaction floor over a
/// dormant consumer's watermark. The next `read_since` per partition
/// must snapshot-fallback, and the delta-fed views must land bit-equal
/// to full reads — same as the single-lock plane guaranteed.
#[test]
fn compaction_floor_crossing_under_concurrent_bursts() {
    let storage = service();
    let dcs = [DatacenterId::new("dc1"), DatacenterId::new("dc2")];

    // Seed both partitions and catch a consumer up incrementally.
    let mut views: Vec<(DatacenterId, MapView, Version)> = dcs
        .iter()
        .map(|dc| {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: (0..100u32)
                        .map(|i| {
                            NetworkState::new(
                                EntityName::device(dc.clone(), format!("dev-{i}")),
                                Attribute::DeviceBootImage,
                                Value::text("img-seed"),
                                SimTime::from_secs(1),
                                AppId::monitor(),
                            )
                        })
                        .collect(),
                })
                .unwrap();
            let delta = storage
                .read_since(dc, &Pool::Observed, Version::GENESIS)
                .unwrap();
            let mut view = MapView::new();
            let mark = delta.watermark;
            view.apply_delta(delta);
            (dc.clone(), view, mark)
        })
        .collect();

    // Both partitions churn far past the index window at the same time.
    std::thread::scope(|scope| {
        for dc in &dcs {
            let storage = &storage;
            scope.spawn(move || {
                for burst in 0..3u32 {
                    storage
                        .write(WriteRequest {
                            pool: Pool::Observed,
                            rows: (0..30_000u32)
                                .map(|i| {
                                    NetworkState::new(
                                        EntityName::device(dc.clone(), format!("dev-{i}")),
                                        Attribute::DeviceBootImage,
                                        Value::text(format!("img-b{burst}")),
                                        SimTime::from_secs(60 + burst as u64),
                                        AppId::monitor(),
                                    )
                                })
                                .collect(),
                        })
                        .unwrap();
                }
            });
        }
    });

    for (dc, view, mark) in &mut views {
        let delta = storage.read_since(dc, &Pool::Observed, *mark).unwrap();
        assert!(delta.snapshot, "{dc:?}: below-floor read must snapshot");
        *mark = delta.watermark;
        view.apply_delta(delta);
        assert_eq!(
            view.clone().into_sorted_rows(),
            full_sorted(&storage, dc),
            "{dc:?}: post-crossing view diverged from full read"
        );
        // And the feed resumes incrementally afterwards.
        storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![NetworkState::new(
                    EntityName::device(dc.clone(), "dev-7".to_string()),
                    Attribute::DeviceBootImage,
                    Value::text("img-final"),
                    SimTime::from_secs(120),
                    AppId::monitor(),
                )],
            })
            .unwrap();
        let tail = storage.read_since(dc, &Pool::Observed, *mark).unwrap();
        assert!(
            !tail.snapshot,
            "{dc:?}: post-recovery read should be incremental"
        );
        assert_eq!(tail.upserts.len(), 1);
        view.apply_delta(tail);
        assert_eq!(view.clone().into_sorted_rows(), full_sorted(&storage, dc));
    }
    assert_replicas_deterministic(&storage);
}

/// Chaos determinism across the sharded plane: the five standard seeds
/// run end to end twice each, and every `ScenarioOutcome` — safety
/// violations, convergence round, retry/quarantine tallies — is
/// unchanged between runs. Per-partition retry RNGs and the concurrent
/// round stages may interleave however the scheduler likes; the outcome
/// may not move.
#[test]
fn chaos_seeds_remain_deterministic() {
    use statesman_chaos::ChaosScenario;
    for seed in 1..=5u64 {
        let first = ChaosScenario::standard(seed).run();
        let second = ChaosScenario::standard(seed).run();
        assert_eq!(first, second, "seed {seed}: outcomes diverged across runs");
        assert!(
            first.safety_violations.is_empty(),
            "seed {seed}: safety violations: {:?}",
            first.safety_violations
        );
    }
    // Replica determinism is asserted inside each run, after every
    // round, over the run's own storage.
}

/// Regression: a partition with a replica mid-recovery must report
/// retryable unavailability on every watermark/read/commit path — the
/// same typed `StateError` path as outages — rather than serving a
/// stale pre-crash watermark. Other partitions stay fully available
/// throughout (recovery is partition-local, like everything else in
/// the sharded plane).
#[test]
fn mid_recovery_partition_is_retryably_unavailable_not_stale() {
    use statesman_storage::DurabilityMode;
    use statesman_types::StateError;

    let mut cfg = StorageConfig::default();
    cfg.ring.durability = DurabilityMode::FramedMemory;
    let storage = StorageService::new(
        [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
        SimClock::new(),
        cfg,
    );
    let dc1 = DatacenterId::new("dc1");
    let dc2 = DatacenterId::new("dc2");
    for sel in [0u8, 1] {
        let dc = dc_for(sel);
        for i in 0..6u16 {
            apply(
                &storage,
                &dc,
                &Op::Upsert {
                    idx: i,
                    val: sel,
                    at: SimTime::from_secs(i as u64 + 1),
                },
            );
        }
    }
    let pre = storage.partition_watermark(&dc1).unwrap();

    storage.begin_replica_recovery(&dc1, 1);
    // Watermark, reads, and changefeed reads all take the typed
    // retryable error — none may answer from pre-crash state.
    let err = storage.partition_watermark(&dc1).unwrap_err();
    assert!(
        matches!(err, StateError::StorageUnavailable { .. }),
        "{err:?}"
    );
    assert!(
        err.is_retryable(),
        "mid-recovery must be retryable: {err:?}"
    );
    assert!(storage
        .read(ReadRequest {
            datacenter: dc1.clone(),
            pool: Pool::Observed,
            freshness: Freshness::UpToDate,
            entity: None,
            attribute: None,
        })
        .is_err());
    assert!(storage
        .read_since(&dc1, &Pool::Observed, Version::GENESIS)
        .is_err());
    assert!(!storage.partition_available(&dc1));
    // The sibling partition is untouched: recovery is partition-local.
    assert!(storage.partition_available(&dc2));
    storage.partition_watermark(&dc2).unwrap();

    let summary = storage
        .complete_replica_recovery(&dc1, 1)
        .expect("recovery summary");
    assert!(!summary.refused);
    // No acknowledged write lost: the watermark never regresses.
    assert!(storage.partition_watermark(&dc1).unwrap() >= pre);
    apply(
        &storage,
        &dc1,
        &Op::Upsert {
            idx: 99,
            val: 7,
            at: SimTime::from_secs(100),
        },
    );
    assert!(full_sorted(&storage, &dc1)
        .iter()
        .any(|r| r.entity == EntityName::device(dc1.clone(), "dev-99")));
    assert_replicas_deterministic(&storage);
}
