//! Columnar state-plane equivalence suite.
//!
//! Every hot-path state container — storage pools, checker and updater
//! mirrors — is a dense slot-indexed column, and the checker is
//! incremental (blast-radius re-projection + cached verdicts). None of
//! that may be observable: column reads must match plain ordered-map
//! models, and an incremental pass must decide exactly what a checker
//! built fresh for that pass decides. This suite pins both:
//!
//! * **mirror spec** — a `PoolMirror` advanced through a soup of
//!   upserts, deletes and snapshot replies holds what a `BTreeMap`
//!   applying the same replies holds, as sorted rows and point reads,
//!   with and without a group filter; a model whose snapshot does not
//!   clear first must be caught;
//! * **machine equivalence** — the columnar `StateMachine` pools match a
//!   plain `HashMap` shadow model across churn and deletes, slots are
//!   never reused across delete/re-insert cycles, and point reads agree
//!   for every key ever written;
//! * **compaction crossing** — a columnar mirror fed `read_since` deltas
//!   survives a change-index compaction (snapshot fallback) bit-equal to
//!   a full read;
//! * **probe equivalence** — `StorageService` reads, which answer an
//!   `Entity=` filter by probing the entity's catalogue slots, return what
//!   a naive filter over a `BTreeMap` returns, for every filter shape and
//!   entity kind, on the leader column and on the bounded-stale cache
//!   across its full and delta refreshes, and report the version served;
//! * **incremental checker equivalence** — a long-lived checker and one
//!   built fresh for every pass, driven through identical
//!   proposal/churn/outage histories, issue identical receipts and leave
//!   identical pools;
//! * **stale-cache regression** — a checker whose mirrors and seed cache
//!   predate a compaction-floor crossing must still decide like a fresh
//!   checker (the snapshot fallback evicts, never serves stale parts);
//! * **chaos golden** — one standard chaos seed's whole outcome, pinned.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use statesman_core::groups::ImpactGroup;
use statesman_core::view::{PartsView, PoolMirror};
use statesman_core::{
    Checker, CheckerConfig, MergePolicy, Monitor, StateView, TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_obs::Registry;
use statesman_storage::{
    LogCommand, ReadRequest, StateMachine, StorageConfig, StorageService, WriteRequest,
};
use statesman_types::{
    interner, slot_registry, AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState,
    Pool, SimDuration, SimTime, StateKey, Value, Version,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The change-index depth (mirrors `CHANGE_INDEX_CAPACITY` in
/// `statesman-storage`); writing more distinct rows than this between two
/// `read_since` calls forces the snapshot fallback.
const CHANGE_INDEX_CAPACITY: usize = 65_536;

fn test_key(idx: u8) -> (EntityName, Attribute) {
    let entity = EntityName::device("dc1", format!("cev-{}", idx % 48));
    let attr = match idx % 3 {
        0 => Attribute::DeviceFirmwareVersion,
        1 => Attribute::DeviceBootImage,
        _ => Attribute::DeviceCpuUtilization,
    };
    (entity, attr)
}

fn test_row(idx: u8, val: u8, when: u64) -> NetworkState {
    let (entity, attr) = test_key(idx);
    NetworkState::new(
        entity,
        attr,
        Value::text(format!("v-{val}")),
        SimTime(when),
        AppId::new("prop-writer"),
    )
}

/// One operation against a state view or a storage pool.
#[derive(Debug, Clone)]
enum SoupOp {
    Upsert { idx: u8, val: u8, when: u64 },
    RemoveKey { idx: u8 },
    RemoveVar { idx: u8 },
    Clear,
}

fn soup_op() -> impl Strategy<Value = SoupOp> {
    // Weighted mix: mostly upserts, a fair share of both removal shapes,
    // the occasional clear.
    (0..11u8, any::<u8>(), any::<u8>(), 0..10_000u64).prop_map(
        |(kind, idx, val, when)| match kind {
            0..=5 => SoupOp::Upsert { idx, val, when },
            6 | 7 => SoupOp::RemoveKey { idx },
            8 | 9 => SoupOp::RemoveVar { idx },
            _ => SoupOp::Clear,
        },
    )
}

/// The mirror spec's key universe: fabric devices and border routers of
/// one DC (a DC group does not own its border routers), three attributes.
const MIRROR_KEYS: usize = 18;

fn mirror_key(idx: usize) -> StateKey {
    let names = ["agg-1-1", "agg-1-2", "tor-1-1", "tor-1-2", "br-1", "br-2"];
    let attrs = [
        Attribute::DeviceFirmwareVersion,
        Attribute::DeviceBootImage,
        Attribute::DeviceCpuUtilization,
    ];
    let idx = idx % MIRROR_KEYS;
    StateKey::new(EntityName::device("pm-dc1", names[idx / 3]), attrs[idx % 3])
}

fn mirror_row(idx: usize, value: String) -> NetworkState {
    let key = mirror_key(idx);
    let writer = AppId::new("mirror-writer");
    NetworkState::new(
        key.entity,
        key.attribute,
        Value::text(value),
        SimTime(0),
        writer,
    )
}

/// One step of a pool-mirror history.
#[derive(Debug, Clone)]
enum MirrorOp {
    Upsert {
        idx: usize,
        val: u8,
    },
    Delete {
        idx: usize,
    },
    /// Rewrite every even key: more changes than the change index holds,
    /// so the mirror's next reply is a snapshot.
    Burst {
        val: u8,
    },
    Advance,
}

fn mirror_op() -> impl Strategy<Value = MirrorOp> {
    (0..10u8, 0..MIRROR_KEYS, any::<u8>()).prop_map(|(kind, idx, val)| match kind {
        0..=3 => MirrorOp::Upsert { idx, val },
        4 | 5 => MirrorOp::Delete { idx },
        6 => MirrorOp::Burst { val },
        _ => MirrorOp::Advance,
    })
}

/// The reference: a `BTreeMap` that advances by its own unfiltered
/// `read_since` replies. `clears` is the snapshot rule; the mutant keeps
/// what a snapshot does not list.
struct MirrorModel {
    rows: BTreeMap<StateKey, NetworkState>,
    watermark: Version,
    clears: bool,
}

impl MirrorModel {
    fn advance(&mut self, storage: &StorageService, dc: &DatacenterId, pool: &Pool) {
        let delta = storage.read_since(dc, pool, self.watermark).unwrap();
        if delta.snapshot && self.clears {
            self.rows.clear();
        }
        for key in &delta.deletes {
            self.rows.remove(key);
        }
        for row in delta.upserts {
            self.rows.insert(row.key(), row);
        }
        self.watermark = delta.watermark;
    }
}

/// Drive an OS and a PS mirror, and a model of each pool, through `ops`
/// over a store whose change index holds six entries, advancing all four
/// together. The OS mirror must hold the model minus its counter rows,
/// the PS mirror the model whole. `Err` names the first read they
/// disagree on; `Ok` counts the OS mirror's snapshot replies.
fn mirror_history(ops: &[MirrorOp], model_clears: bool) -> Result<usize, String> {
    let dc = DatacenterId::new("pm-dc1");
    let mut config = StorageConfig::default();
    config.ring.change_index_capacity = 6;
    let storage = StorageService::new([dc.clone()], SimClock::new(), config);
    let pools = [Pool::Observed, Pool::Proposed(AppId::new("pm-app"))];
    let write = |rows: Vec<NetworkState>| {
        for pool in &pools {
            let rows = rows.clone();
            storage
                .write(WriteRequest {
                    pool: pool.clone(),
                    rows,
                })
                .unwrap();
        }
    };
    let mut mirrors = pools.clone().map(|pool| {
        let model = MirrorModel {
            rows: BTreeMap::new(),
            watermark: Version::default(),
            clears: model_clears,
        };
        (PoolMirror::cold(&pool), model, pool)
    });
    let group = ImpactGroup::Datacenter(dc.clone());
    let mut snapshots = 0;
    let advance_and_compare = Some(MirrorOp::Advance);
    for (step, op) in ops.iter().chain(&advance_and_compare).enumerate() {
        match op {
            MirrorOp::Upsert { idx, val } => write(vec![mirror_row(*idx, format!("v-{val}"))]),
            MirrorOp::Delete { idx } => {
                for pool in &pools {
                    storage
                        .delete(pool.clone(), vec![mirror_key(*idx)])
                        .unwrap();
                }
            }
            MirrorOp::Burst { val } => write(
                (0..MIRROR_KEYS)
                    .step_by(2)
                    .map(|i| mirror_row(i, format!("burst-{val}")))
                    .collect(),
            ),
            MirrorOp::Advance => {
                for (mirror, model, pool) in &mut mirrors {
                    let observed = *pool == Pool::Observed;
                    mirror
                        .advance(&storage, &dc, pool, |_, _, delta| {
                            snapshots += usize::from(observed && delta.snapshot);
                        })
                        .unwrap();
                    model.advance(&storage, &dc, pool);
                    let held = |r: &NetworkState| !(observed && r.attribute.is_counter());
                    for filter in [None, Some(&group)] {
                        let view = PartsView::new(vec![mirror.view()], filter);
                        let mut got: Vec<&NetworkState> = view.rows().collect();
                        got.sort_by_key(|r| r.key());
                        let owned = |r: &&NetworkState| {
                            held(r) && filter.is_none_or(|g| g.contains(&r.entity))
                        };
                        let want: Vec<&NetworkState> = model.rows.values().filter(owned).collect();
                        if got != want {
                            return Err(format!(
                                "step {step} {pool} group {filter:?}: rows differ"
                            ));
                        }
                        for idx in 0..MIRROR_KEYS {
                            let key = mirror_key(idx);
                            let want = model.rows.get(&key).filter(owned);
                            if view.get_var(key.var_id()) != want {
                                return Err(format!(
                                    "step {step} {pool} group {filter:?}: {key} differs"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(snapshots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The spec of pool-mirror semantics: a `PoolMirror` advanced by
    /// `read_since` through a soup of upserts, deletes and change-index
    /// overflows (snapshot replies) holds exactly what a `BTreeMap` that
    /// applies its own unfiltered replies holds — minus the counter rows
    /// for an OS mirror, whole for a PS mirror — as sorted rows and on
    /// every point read, through a `PartsView` with and without a group
    /// filter.
    #[test]
    fn pool_mirror_matches_a_btreemap_model(
        ops in proptest::collection::vec(mirror_op(), 1..60)
    ) {
        let run = mirror_history(&ops, true);
        prop_assert!(run.is_ok(), "{:?}", run);
    }

    /// The columnar `StateMachine` pools match a plain hashmap shadow
    /// model under interleaved write/delete batches across two pools,
    /// and a slot, once assigned to a variable, is never reassigned —
    /// delete/re-insert cycles reuse the *same* slot, and no two
    /// variables ever share one.
    #[test]
    fn machine_pools_match_hashmap_shadow(
        ops in proptest::collection::vec(
            (soup_op(), any::<bool>()), 1..120
        )
    ) {
        let mut machine = StateMachine::new();
        let mut shadow: HashMap<Pool, HashMap<StateKey, NetworkState>> = HashMap::new();
        let mut first_slot: HashMap<(Pool, StateKey), u32> = HashMap::new();
        let mut seen: HashSet<(Pool, StateKey)> = HashSet::new();

        for (op, to_target) in &ops {
            let pool = if *to_target { Pool::Target } else { Pool::Observed };
            match op {
                SoupOp::Upsert { idx, val, when } => {
                    let row = test_row(*idx, *val, *when);
                    let key = row.key();
                    machine.apply(&LogCommand::WriteBatch {
                        pool: pool.clone(),
                        rows: vec![row.clone()].into(),
                    });
                    shadow.entry(pool.clone()).or_default().insert(key.clone(), row);
                    let slot = slot_registry().slot_of(&pool, key.var_id()).0;
                    let prior = first_slot
                        .entry((pool.clone(), key.clone()))
                        .or_insert(slot);
                    prop_assert_eq!(*prior, slot, "slot moved for {:?}", key);
                    seen.insert((pool, key));
                }
                // The machine has no clear/var-id command; fold the other
                // soup shapes into key deletes so the mix stays dense.
                other => {
                    let idx = match other {
                        SoupOp::RemoveKey { idx } | SoupOp::RemoveVar { idx } => *idx,
                        _ => 0,
                    };
                    let (entity, attr) = test_key(idx);
                    let key = StateKey::new(entity, attr);
                    machine.apply(&LogCommand::DeleteBatch {
                        pool: pool.clone(),
                        keys: vec![key.clone()],
                    });
                    shadow.entry(pool.clone()).or_default().remove(&key);
                }
            }
        }

        // The machine stamps rows with commit versions the shadow cannot
        // know; compare everything else bit-for-bit.
        fn essence(r: &NetworkState) -> (String, Value, SimTime, AppId) {
            (r.key().to_string(), r.value.clone(), r.updated_at, r.writer.clone())
        }
        for pool in [Pool::Observed, Pool::Target] {
            let model = shadow.remove(&pool).unwrap_or_default();
            prop_assert_eq!(machine.pool_len(&pool), model.len());
            let mut got: Vec<_> = machine.pool_rows(&pool, |_| true).iter().map(essence).collect();
            got.sort_by(|a, b| a.0.cmp(&b.0));
            let mut want: Vec<_> = model.values().map(essence).collect();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(got, want);
            // Point reads agree for every key ever touched in this pool,
            // live or deleted.
            for (p, key) in &seen {
                if *p != pool {
                    continue;
                }
                prop_assert_eq!(
                    machine.get(&pool, key).map(essence),
                    model.get(key).map(essence)
                );
            }
        }

        // Slot uniqueness: distinct variables of one pool never collide.
        for pool in [Pool::Observed, Pool::Target] {
            let slots: HashSet<u32> = first_slot
                .iter()
                .filter(|((p, _), _)| *p == pool)
                .map(|(_, s)| *s)
                .collect();
            let vars = first_slot.keys().filter(|(p, _)| *p == pool).count();
            prop_assert_eq!(slots.len(), vars);
        }
    }
}

/// The mirror spec bites: a model whose snapshot reply does not clear
/// first keeps a row deleted in the gap, and the comparison catches it.
#[test]
fn the_mirror_spec_catches_a_snapshot_that_does_not_clear() {
    let ops = [
        MirrorOp::Upsert { idx: 1, val: 1 },
        MirrorOp::Advance,
        MirrorOp::Delete { idx: 1 },
        MirrorOp::Burst { val: 2 },
    ];
    assert_eq!(mirror_history(&ops, true), Ok(1), "one snapshot reply");
    let caught = mirror_history(&ops, false).unwrap_err();
    assert!(caught.starts_with("step 4 "), "{caught}");
}

fn full_sorted(storage: &StorageService, dc: &DatacenterId, pool: Pool) -> Vec<NetworkState> {
    let mut rows = storage
        .read(ReadRequest {
            datacenter: dc.clone(),
            pool,
            freshness: Freshness::UpToDate,
            entity: None,
            attribute: None,
        })
        .unwrap();
    rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
    rows
}

/// One partition's pool as the probe-equivalence reference holds it, with
/// the pool version it reflects.
#[derive(Clone, Default)]
struct PoolModel {
    rows: BTreeMap<StateKey, NetworkState>,
    watermark: Version,
}

/// One seeded history of writes, tombstone deletes, re-inserts and clock
/// advances against a two-DC service, with every read shape compared to
/// the reference after every step. Returns how many times the reference
/// refreshed its bounded-stale copy.
fn probe_read_history(seed: u64, registry: &Registry) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let clock = SimClock::new();
    let dcs = [DatacenterId::new("pe-dc1"), DatacenterId::new("pe-dc2")];
    let mut config = StorageConfig::default();
    // Small enough that a whole-universe batch outruns the change index
    // (the cache's full refresh) and a few small ones do not (its delta).
    config.ring.change_index_capacity = 16;
    let bound = config.staleness_bound;
    let storage = StorageService::new(dcs.clone(), clock.clone(), config);
    storage.attach_obs(registry);
    let pool = Pool::Observed;

    // A device, a second device, a link and a path homed in dc1, a device
    // homed in dc2, and a name nobody ever writes. Every catalogue
    // attribute appears on every entity it applies to, so a probe that
    // skipped any one of them would lose a row here.
    let ghost = EntityName::device("pe-dc1", "never-written");
    let entities = [
        EntityName::device("pe-dc1", "agg-1-1"),
        EntityName::device("pe-dc1", "tor-1-1"),
        EntityName::link("pe-dc1", "agg-1-1", "tor-1-1"),
        EntityName::path("pe-dc1", "tunnel-1"),
        EntityName::device("pe-dc2", "agg-1-1"),
    ];
    let keys: Vec<StateKey> = entities
        .iter()
        .flat_map(|e| {
            Attribute::catalogue()
                .iter()
                .filter(|a| a.applies_to(e.kind()))
                .map(|a| StateKey::new(e.clone(), *a))
        })
        .collect();
    let row = |key: &StateKey, value: String, rng: &mut StdRng| {
        let value = if key.attribute.is_lock() {
            Value::None
        } else {
            Value::text(value)
        };
        let writer = AppId::new(["probe-a", "probe-b"][rng.gen_range(0..2usize)]);
        NetworkState::new(
            key.entity.clone(),
            key.attribute,
            value,
            clock.now(),
            writer,
        )
    };

    let mut live: HashMap<DatacenterId, PoolModel> = HashMap::new();
    let mut cached: HashMap<DatacenterId, (SimTime, PoolModel)> = HashMap::new();
    let mut refreshes = 0;
    for step in 0..60 {
        match rng.gen_range(0..10u32) {
            kind @ 0..=4 => {
                // Mostly a few rows from a small value space (re-writes are
                // suppressed); now and then the whole universe, changed.
                let rows: Vec<NetworkState> = if kind == 0 {
                    keys.iter()
                        .map(|k| row(k, format!("all-{step}"), &mut rng))
                        .collect()
                } else {
                    (0..rng.gen_range(1..=3usize))
                        .map(|_| {
                            let key = &keys[rng.gen_range(0..keys.len())];
                            let value = format!("v-{}", rng.gen_range(0..3u32));
                            row(key, value, &mut rng)
                        })
                        .collect()
                };
                for r in &rows {
                    let held = live.entry(r.entity.datacenter.clone()).or_default();
                    let same = held
                        .rows
                        .get(&r.key())
                        .is_some_and(|old| old.value == r.value && old.writer == r.writer);
                    if !same {
                        held.rows.insert(r.key(), r.clone());
                    }
                }
                storage
                    .write(WriteRequest {
                        pool: pool.clone(),
                        rows,
                    })
                    .unwrap();
            }
            5 | 6 => {
                let doomed: Vec<StateKey> = (0..rng.gen_range(1..=4usize))
                    .map(|_| keys[rng.gen_range(0..keys.len())].clone())
                    .collect();
                for key in &doomed {
                    if let Some(held) = live.get_mut(&key.entity.datacenter) {
                        held.rows.remove(key);
                    }
                }
                storage.delete(pool.clone(), doomed).unwrap();
            }
            7 | 8 => {
                clock.advance(SimDuration::from_mins(6));
            }
            _ => {
                clock.advance(SimDuration::from_mins(1));
            }
        }

        for dc in &dcs {
            let held = live.entry(dc.clone()).or_default();
            held.watermark = storage.pool_watermark(dc, &pool).unwrap();
            for freshness in [Freshness::UpToDate, Freshness::BoundedStale] {
                let reference = match freshness {
                    Freshness::UpToDate => &*held,
                    Freshness::BoundedStale => {
                        let now = clock.now();
                        let fresh = cached
                            .get(dc)
                            .is_some_and(|(at, _)| now.saturating_since(*at) <= bound);
                        if !fresh {
                            cached.insert(dc.clone(), (now, held.clone()));
                            refreshes += 1;
                        }
                        &cached[dc].1
                    }
                };
                let entity_filters = std::iter::once(None)
                    .chain(entities.iter().map(Some))
                    .chain([Some(&ghost)]);
                for entity in entity_filters {
                    let attribute_filters = std::iter::once(None)
                        .chain(Attribute::catalogue().iter().copied().map(Some));
                    for attribute in attribute_filters {
                        let (mut got, served) = storage
                            .read_versioned(ReadRequest {
                                datacenter: dc.clone(),
                                pool: pool.clone(),
                                freshness,
                                entity: entity.cloned(),
                                attribute,
                            })
                            .unwrap();
                        got.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
                        // Commit versions are the machine's to stamp.
                        for r in &mut got {
                            r.version = Version::GENESIS;
                        }
                        let want: Vec<NetworkState> = reference
                            .rows
                            .values()
                            .filter(|r| entity.map(|e| &r.entity == e).unwrap_or(true))
                            .filter(|r| attribute.map(|a| r.attribute == a).unwrap_or(true))
                            .cloned()
                            .collect();
                        let shape = format!(
                            "seed {seed} step {step}: {dc} {freshness} Entity={entity:?} \
                             Attribute={attribute:?}"
                        );
                        assert_eq!(got, want, "{shape}");
                        assert_eq!(served, reference.watermark, "{shape}: version served");
                    }
                }
            }
        }
    }
    assert_eq!(
        interner().lookup(&ghost),
        None,
        "reading a name never interns it"
    );
    refreshes
}

/// Probe-based reads ≡ a naive filter over a `BTreeMap`, as sorted sets:
/// {up-to-date, bounded-stale} × {entity, entity+attribute, attribute,
/// none} × {device, link, path, never-seen entity, entity homed in the
/// other DC}, across interleaved upserts, tombstone deletes, re-inserts
/// and clock advances past the staleness bound.
#[test]
fn probe_reads_match_a_naive_filter_over_a_btreemap() {
    let registry = Registry::new();
    let seeds = 4;
    let refreshes: u64 = (0..seeds)
        .map(|seed| probe_read_history(seed, &registry))
        .sum();
    // Both ways of refreshing the cache were on the path: every seed's
    // two first fills are full copies, so any further non-delta refresh
    // is a full copy forced by the change index.
    let delta = registry
        .counter_value("storage_cache_delta_refreshes_total")
        .unwrap_or(0);
    assert!(delta > 0, "no delta refresh in {refreshes} refreshes");
    assert!(
        refreshes - delta > 2 * seeds,
        "no full refresh after the first fills ({refreshes} refreshes, {delta} delta)"
    );
}

/// A pool mirror crossing the change-index compaction floor: the
/// `read_since` snapshot fallback must rebuild its column bit-equal to a
/// full read minus the counter rows an OS mirror leaves out (this is the
/// path that evicts checker mirrors after compaction). The burst is
/// counter rows: the mirror never holds them, but they still cross the
/// floor its watermark was served from.
#[test]
fn columnar_mirror_survives_change_index_compaction() {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());

    // Seed a handful of rows and sync a mirror incrementally.
    let rows: Vec<NetworkState> = (0..20u8).map(|i| test_row(i, 1, 10)).collect();
    storage
        .write(WriteRequest {
            pool: Pool::Observed,
            rows,
        })
        .unwrap();
    let mut mirror = PoolMirror::cold(&Pool::Observed);
    let mut snapshot = None;
    let mut advance = |mirror: &mut PoolMirror| {
        mirror
            .advance(&storage, &dc, &Pool::Observed, |_, _, delta| {
                snapshot = Some(delta.snapshot);
            })
            .unwrap();
        let mut rows: Vec<NetworkState> = mirror.view().rows().cloned().collect();
        rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        let mut want = full_sorted(&storage, &dc, Pool::Observed);
        want.retain(|r| !r.attribute.is_counter());
        assert_eq!(rows, want);
    };
    advance(&mut mirror);

    // Blow past the change-index capacity in one commit: every entry the
    // mirror's watermark could have been served from is compacted away.
    let burst: Vec<NetworkState> = (0..CHANGE_INDEX_CAPACITY as u32 + 10)
        .map(|i| {
            NetworkState::new(
                EntityName::device("dc1", format!("bulk-{i}")),
                Attribute::DeviceCpuUtilization,
                Value::text(format!("load-{i}")),
                SimTime(100),
                AppId::new("bulk-writer"),
            )
        })
        .collect();
    storage
        .write(WriteRequest {
            pool: Pool::Observed,
            rows: burst,
        })
        .unwrap();

    advance(&mut mirror);
    assert_eq!(
        snapshot,
        Some(true),
        "a burst past the change-index capacity must force the snapshot fallback"
    );
}

/// One control-loop stack for the long-lived-vs-fresh checker
/// comparison.
struct Stack {
    clock: SimClock,
    dc: DatacenterId,
    graph: statesman_topology::NetworkGraph,
    storage: StorageService,
    /// The long-lived checker: mirrors and seed carried from pass to pass.
    checker: Checker,
}

impl Stack {
    fn new() -> Stack {
        let clock = SimClock::new();
        let dc = DatacenterId::new("dc1");
        let graph = statesman_topology::DcnSpec::tiny("dc1").build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
        Monitor::new(net, storage.clone(), graph.clone())
            .run_round()
            .unwrap();
        let checker = checker_for(&graph, &dc);
        Stack {
            clock,
            dc,
            graph,
            storage,
            checker,
        }
    }

    /// One pass by the long-lived checker, or by one built for this pass
    /// alone: cold mirrors that read every pool whole, and a seed
    /// projected and swept from scratch.
    fn pass(&self, fresh: bool) -> statesman_types::StateResult<statesman_core::CheckerPassReport> {
        let rebuilt;
        let checker = if fresh {
            rebuilt = checker_for(&self.graph, &self.dc);
            &rebuilt
        } else {
            &self.checker
        };
        checker.run_pass(&self.storage, self.clock.now())
    }
}

fn checker_for(graph: &statesman_topology::NetworkGraph, dc: &DatacenterId) -> Checker {
    let mut checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(dc.clone()),
            policy: MergePolicy::LastWriterWins,
        },
        graph.clone(),
    );
    checker.add_invariant(Box::new(TorPairCapacityInvariant::paper_default(
        graph,
        dc.clone(),
        Some(1),
    )));
    checker
}

/// A randomly generated proposal against the tiny fabric's aggs.
#[derive(Debug, Clone)]
struct RandomProposal {
    app: u8,
    pod: u32,
    agg: u32,
    attr_pick: u8,
    when: u64,
}

fn proposal_strategy() -> impl Strategy<Value = RandomProposal> {
    (0..3u8, 1..=2u32, 1..=2u32, 0..3u8, 0..10_000u64).prop_map(
        |(app, pod, agg, attr_pick, when)| RandomProposal {
            app,
            pod,
            agg,
            attr_pick,
            when,
        },
    )
}

/// Observed-state churn applied between checker passes: the monitor-shaped
/// writes and deletes that drive the incremental path's blast radius.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Flip a device's admin power in the OS (projected-down blast).
    Power { pod: u32, agg: u32, on: bool },
    /// Rewrite a counter row (radius-affecting but invariant-neutral).
    Counter { pod: u32, agg: u32, val: u8 },
    /// Delete an OS row outright (tombstone through the mirrors).
    Delete { pod: u32, agg: u32 },
}

fn churn_strategy() -> impl Strategy<Value = ChurnOp> {
    (0..6u8, 1..=2u32, 1..=2u32, any::<u8>()).prop_map(|(kind, pod, agg, val)| match kind {
        0 | 1 => ChurnOp::Power {
            pod,
            agg,
            on: val & 1 == 0,
        },
        2..=4 => ChurnOp::Counter { pod, agg, val },
        _ => ChurnOp::Delete { pod, agg },
    })
}

fn apply_churn(storage: &StorageService, op: &ChurnOp, when: u64) {
    let entity = |pod: &u32, agg: &u32| EntityName::device("dc1", format!("agg-{pod}-{agg}"));
    match op {
        ChurnOp::Power { pod, agg, on } => {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![NetworkState::new(
                        entity(pod, agg),
                        Attribute::DeviceAdminPower,
                        Value::power(*on),
                        SimTime(when),
                        AppId::new("monitor"),
                    )],
                })
                .unwrap();
        }
        ChurnOp::Counter { pod, agg, val } => {
            storage
                .write(WriteRequest {
                    pool: Pool::Observed,
                    rows: vec![NetworkState::new(
                        entity(pod, agg),
                        Attribute::DeviceCpuUtilization,
                        Value::text(format!("cpu-{val}")),
                        SimTime(when),
                        AppId::new("monitor"),
                    )],
                })
                .unwrap();
        }
        ChurnOp::Delete { pod, agg } => {
            storage
                .delete(
                    Pool::Observed,
                    vec![StateKey::new(
                        entity(pod, agg),
                        Attribute::DeviceCpuUtilization,
                    )],
                )
                .unwrap();
        }
    }
}

fn write_proposal(stack: &Stack, p: &RandomProposal) {
    let entity = EntityName::device("dc1", format!("agg-{}-{}", p.pod, p.agg));
    let app = AppId::new(format!("app-{}", p.app));
    let (attr, value) = match p.attr_pick {
        0 => (Attribute::DeviceFirmwareVersion, Value::text("9.9")),
        1 => (Attribute::DeviceBootImage, Value::text("img-x")),
        _ => (Attribute::DeviceAdminPower, Value::power(false)),
    };
    let row = NetworkState::new(entity, attr, value, SimTime(p.when), app.clone());
    stack
        .storage
        .write(WriteRequest {
            pool: Pool::Proposed(app),
            rows: vec![row],
        })
        .unwrap();
}

fn receipt_lines(report: &statesman_core::CheckerPassReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .receipts
        .iter()
        .map(|r| format!("{}|{}|{}", r.app, r.key, r.outcome.tag()))
        .collect();
    lines.sort();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental checker (carried mirrors + blast-radius seed
    /// cache) decides exactly what a checker built fresh for each pass
    /// decides, pass after pass, under proposal load, observed-state
    /// churn, deletes, and a mid-history partition outage.
    #[test]
    fn incremental_checker_matches_full_checker(
        proposals in proptest::collection::vec(proposal_strategy(), 1..18),
        churn in proptest::collection::vec(churn_strategy(), 0..10),
    ) {
        let inc = Stack::new();
        let full = Stack::new();
        let rounds = 4usize;
        let mut when = 20_000u64;

        for round in 0..rounds {
            // Identical proposal slices land on both stacks.
            for p in proposals.iter().skip(round).step_by(rounds) {
                write_proposal(&inc, p);
                write_proposal(&full, p);
            }
            // Identical churn between passes.
            for op in churn.iter().skip(round).step_by(rounds) {
                when += 1;
                apply_churn(&inc.storage, op, when);
                apply_churn(&full.storage, op, when);
            }
            // Mid-history outage: both passes fail, the incremental
            // checker's seed cache is invalidated, and the next pass
            // must recover bit-equal.
            if round == 2 {
                inc.storage.set_partition_available(&inc.dc, false);
                full.storage.set_partition_available(&full.dc, false);
                prop_assert!(inc.pass(false).is_err());
                prop_assert!(full.pass(true).is_err());
                inc.storage.set_partition_available(&inc.dc, true);
                full.storage.set_partition_available(&full.dc, true);
            }

            let ri = inc.pass(false).unwrap();
            let rf = full.pass(true).unwrap();
            prop_assert_eq!(ri.proposals_seen, rf.proposals_seen, "round {}", round);
            prop_assert_eq!(ri.accepted, rf.accepted, "round {}", round);
            prop_assert_eq!(ri.rejected, rf.rejected, "round {}", round);
            prop_assert_eq!(ri.already_satisfied, rf.already_satisfied, "round {}", round);
            prop_assert_eq!(ri.ts_pruned, rf.ts_pruned, "round {}", round);
            prop_assert_eq!(ri.variables_read, rf.variables_read, "round {}", round);
            prop_assert_eq!(receipt_lines(&ri), receipt_lines(&rf), "round {}", round);
        }

        // Final pool contents are bit-equal.
        for pool in [Pool::Observed, Pool::Target] {
            prop_assert_eq!(
                full_sorted(&inc.storage, &inc.dc, pool.clone()),
                full_sorted(&full.storage, &full.dc, pool)
            );
        }
    }
}

/// Regression (stale cache after compaction): a checker holding columnar
/// mirrors and a verdict seed from before a change-index compaction must
/// not reuse them against the stale watermark — the snapshot-fallback
/// delta rebuilds the mirror and forces a full reseed. A fresh checker
/// reading the same storage is the oracle.
#[test]
fn checker_cache_evicted_on_compaction_crossing() {
    // The identical history, driven through either stack: a first pass
    // seeds the mirrors and verdict cache, then a burst of distinct OS
    // rows crosses the compaction floor (plus a real health flip the
    // stale seed doesn't know about), then new proposals force a second
    // decision pass — by the long-lived checker, or by a fresh one each
    // pass. Returns that second pass's report.
    let drive = |stack: &Stack, fresh: bool| -> statesman_core::CheckerPassReport {
        write_proposal(
            stack,
            &RandomProposal {
                app: 0,
                pod: 1,
                agg: 1,
                attr_pick: 0,
                when: 100,
            },
        );
        stack.pass(fresh).unwrap();

        let mut burst: Vec<NetworkState> = (0..CHANGE_INDEX_CAPACITY as u32 + 10)
            .map(|i| {
                NetworkState::new(
                    EntityName::device("dc1", format!("bulk-{i}")),
                    Attribute::DeviceCpuUtilization,
                    Value::text(format!("load-{i}")),
                    SimTime(200),
                    AppId::new("bulk-writer"),
                )
            })
            .collect();
        burst.push(NetworkState::new(
            EntityName::device("dc1", "agg-2-1"),
            Attribute::DeviceAdminPower,
            Value::power(false),
            SimTime(201),
            AppId::new("monitor"),
        ));
        stack
            .storage
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: burst,
            })
            .unwrap();

        for (app, pod, agg, pick) in [(1u8, 1u32, 2u32, 0u8), (2, 2, 2, 2)] {
            write_proposal(
                stack,
                &RandomProposal {
                    app,
                    pod,
                    agg,
                    attr_pick: pick,
                    when: 300,
                },
            );
        }
        stack.pass(fresh).unwrap()
    };

    let stale = Stack::new();
    let report = drive(&stale, false);
    let oracle = Stack::new();
    let want = drive(&oracle, true);

    assert_eq!(report.proposals_seen, want.proposals_seen);
    assert_eq!(report.accepted, want.accepted);
    assert_eq!(report.rejected, want.rejected);
    assert_eq!(report.already_satisfied, want.already_satisfied);
    assert_eq!(report.variables_read, want.variables_read);
    assert_eq!(receipt_lines(&report), receipt_lines(&want));
    assert_eq!(
        full_sorted(&stale.storage, &stale.dc, Pool::Target),
        full_sorted(&oracle.storage, &oracle.dc, Pool::Target)
    );
}

/// One chaos seed, pinned: the standard chaos scenario (quarantines,
/// degraded rounds, command faults) produces this exact `ScenarioOutcome`.
/// The pin is the outcome the columnar state plane and the hashmap plane
/// it replaced both produced while the two could still be run side by
/// side.
#[test]
fn standard_chaos_outcome_matches_its_golden() {
    use statesman_chaos::{ChaosScenario, ScenarioOutcome};
    let golden = ScenarioOutcome {
        rounds_run: 30,
        converged_at: Some(15),
        safety_violations: vec![],
        degraded_rounds: 2,
        max_quarantined: 2,
        quarantine_rejections: 7,
        commands_failed: 0,
        updater_retries: 0,
        breakers_opened: 0,
        storage_retries: 6,
        tick_errors: 0,
        replicas_killed: 0,
        recoveries_completed: 0,
        recovery_truncated_records: 0,
        recovery_refusals: 0,
        recovery_violations: vec![],
        chain_violations: vec![],
        watermark_regressions: vec![],
        plan_steps: 5,
        plan_max_width: 1,
        plan_inflight_rejections: 0,
        plan_rollbacks: 0,
    };
    assert_eq!(ChaosScenario::standard(7).run(), golden);
}
