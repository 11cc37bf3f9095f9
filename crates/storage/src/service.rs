//! The storage service: per-DC rings, the global proxy, and freshness.
//!
//! Paper §6.1–§6.4. One [`PaxosCluster`] per datacenter stores the rows of
//! entities homed there; the service front end is the "globally available
//! proxy layer that provides uniform access to the network states" —
//! callers never name a ring, only entities. Reads take a [`Freshness`]:
//!
//! * `UpToDate` — served from the partition leader's column under the
//!   ring lock (linearizable with respect to commits through this
//!   service);
//! * `BoundedStale` — served from a per-partition cache: an
//!   `Arc<Column>` cloned from a follower replica no more often than the
//!   staleness bound (5 minutes in the paper) and patched by the
//!   changefeed in between, trading freshness for read throughput.
//!
//! Both modes answer from the same representation, so both answer an
//! `Entity=` filter the same way: [`Column::entity_rows`] probes the
//! entity's ≤ |attribute catalogue| slots instead of comparing names
//! across the pool (§6.4's applications read "this switch", not the
//! pool). Attribute-only and unfiltered reads scan the live rows. The
//! order of returned rows is unspecified; callers that show rows sort
//! them. Every read also knows which pool version it served
//! ([`StorageService::read_versioned`]) — the cache entry's watermark, or
//! the leader's under the same lock acquisition as the rows.
//!
//! Locking is sharded to match the paper's partitioning: each partition
//! owns its own ring mutex and bookkeeping, so operations against
//! different datacenters never contend (§6.1: partitions are independent
//! consensus groups). The partition map itself is immutable after
//! construction, so routing, health checks, and counter reads take no
//! lock at all.

use crate::bus::ReplicaId;
use crate::cluster::{ClusterConfig, PaxosCluster};
use crate::machine::{LogCommand, StateMachine};
use crate::wal::{DurabilityMode, WalCorruption};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_obs::{Counter, Gauge, Histogram, RecoverySummary, Registry};
use statesman_types::{
    AppId, Attribute, Column, DatacenterId, EntityName, Freshness, NetworkState, Pool, RetryPolicy,
    SimDuration, SimTime, StateDelta, StateError, StateKey, StateResult, Version, WorkerPool,
    WriteReceipt,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Bounded-staleness window (paper: 5 minutes).
    pub staleness_bound: SimDuration,
    /// Seed for ring buses (each ring perturbs it by partition index).
    pub seed: u64,
    /// Base ring config (latency model etc.).
    pub ring: ClusterConfig,
    /// Bounded retry schedule for consensus commits: when a partition
    /// reports [`StateError::StorageUnavailable`], the proxy retries up
    /// to the policy's budget with jittered exponential backoff (in
    /// simulated time) before surfacing the typed error to the caller.
    pub retry: RetryPolicy,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            staleness_bound: SimDuration::from_mins(5),
            seed: 11,
            ring: ClusterConfig::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// A read request (the native form of Table 3's GET).
#[derive(Debug, Clone)]
pub struct ReadRequest {
    /// Which datacenter partition to read.
    pub datacenter: DatacenterId,
    /// Which pool.
    pub pool: Pool,
    /// Freshness mode.
    pub freshness: Freshness,
    /// Optional filter: only rows of this entity.
    pub entity: Option<EntityName>,
    /// Optional filter: only rows of this attribute.
    pub attribute: Option<Attribute>,
}

/// A write request (the native form of Table 3's POST).
#[derive(Debug, Clone)]
pub struct WriteRequest {
    /// Destination pool.
    pub pool: Pool,
    /// Rows to upsert (may span partitions; the proxy splits them).
    pub rows: Vec<NetworkState>,
}

/// Stage breakdown of one [`StorageService::write_bulk`] call. Stage
/// times are summed across partitions (leader-replica apply time); the
/// consensus/WAL remainder is `wall_ms` minus the stages — with
/// partitions committing concurrently the stage sum can exceed the
/// wall clock, so treat `commit_ms` as a floor of zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SeedStats {
    /// Rows ingested.
    pub rows: u64,
    /// Partitions that committed a sub-batch.
    pub partitions: usize,
    /// Batched slot minting (including entity interning), ms.
    pub intern_ms: f64,
    /// Version stamping + column arena fill, ms.
    pub fill_ms: f64,
    /// Change-index/watermark maintenance, ms.
    pub index_ms: f64,
    /// Consensus + replication + WAL remainder (wall minus stages,
    /// clamped at zero), ms.
    pub commit_ms: f64,
    /// End-to-end wall time of the bulk write, ms.
    pub wall_ms: f64,
}

/// One pool of one partition as a follower replica held it at
/// `fetched_at`, for bounded-stale reads. It is the replica's [`Column`]
/// itself, not a flattened row list: a cached read probes or scans it
/// exactly as a leader read does the live one, and an expired entry is
/// refreshed by upserting and tombstoning the changefeed since
/// `watermark` into it instead of recopying the pool. Shared via `Arc`,
/// so a hit is a refcount bump under the cache lock and the selection
/// runs outside it. `watermark` is the pool version the column reflects
/// — what a read served from it reports as the version served.
#[derive(Clone)]
struct CacheEntry {
    fetched_at: SimTime,
    watermark: Version,
    column: Arc<Column>,
}

/// µs buckets for the per-partition ring-lock wait histogram. An
/// uncontended `parking_lot` acquisition lands in the first bucket; the
/// tail buckets only fill when callers pile onto one partition.
const LOCK_WAIT_BUCKETS_US: &[f64] = &[
    1.0, 10.0, 50.0, 250.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0,
];

/// Cached metric handles for the storage service (created once at
/// [`StorageService::attach_obs`]; increments are lock-free).
#[derive(Clone)]
struct StorageObs {
    writes: Counter,
    rows_written: Counter,
    deletes: Counter,
    reads: Counter,
    leader_reads: Counter,
    cache_hits: Counter,
    retries: Counter,
    retries_exhausted: Counter,
    unavailable: Counter,
    receipts_posted: Counter,
    /// Receipts acknowledged (dropped from storage by a committed
    /// `AckReceipts`), not receipts read: a page read twice before its
    /// ack counts once.
    receipts_taken: Counter,
    partitions_offline: Gauge,
    delta_reads: Counter,
    full_fallbacks: Counter,
    writes_suppressed: Counter,
    cache_delta_refreshes: Counter,
    /// Rows (or slots) reads looked at to select what they returned: a
    /// deterministic work count, not a time.
    rows_visited: Counter,
    /// Per-partition contention series, labeled
    /// `storage_lock_wait_us{partition="..."}` /
    /// `storage_partition_inflight{partition="..."}`.
    lock_wait: HashMap<DatacenterId, Histogram>,
    partition_inflight: HashMap<DatacenterId, Gauge>,
    /// Durable-storage-plane counters, service-wide (incremented by
    /// diffing each ring's cumulative [`crate::wal::WalStats`] when its
    /// lock is released, so WAL activity costs nothing on the hot path).
    wal_appends: Counter,
    wal_fsyncs: Counter,
    wal_bytes_written: Counter,
    snapshot_compactions: Counter,
    recovery_truncated_records: Counter,
    /// Per-replica WAL tail decree, labeled
    /// `wal_tail_decree{partition="...",replica="..."}`.
    wal_tail_decree: HashMap<(DatacenterId, u8), Gauge>,
}

impl StorageObs {
    fn new(registry: &Registry, partitions: &[DatacenterId], replicas: usize) -> Self {
        let mut lock_wait = HashMap::new();
        let mut partition_inflight = HashMap::new();
        let mut wal_tail_decree = HashMap::new();
        for dc in partitions {
            let name = dc.to_string();
            let labels = [("partition", name.as_str())];
            lock_wait.insert(
                dc.clone(),
                registry.histogram_with("storage_lock_wait_us", &labels, LOCK_WAIT_BUCKETS_US),
            );
            partition_inflight.insert(
                dc.clone(),
                registry.gauge_with("storage_partition_inflight", &labels),
            );
            for r in 0..replicas {
                let replica = r.to_string();
                let labels = [("partition", name.as_str()), ("replica", replica.as_str())];
                wal_tail_decree.insert(
                    (dc.clone(), r as u8),
                    registry.gauge_with("wal_tail_decree", &labels),
                );
            }
        }
        StorageObs {
            writes: registry.counter("storage_writes_total"),
            rows_written: registry.counter("storage_rows_written_total"),
            deletes: registry.counter("storage_deletes_total"),
            reads: registry.counter("storage_reads_total"),
            leader_reads: registry.counter("storage_leader_reads_total"),
            cache_hits: registry.counter("storage_cache_hits_total"),
            retries: registry.counter("storage_retries_total"),
            retries_exhausted: registry.counter("storage_retries_exhausted_total"),
            unavailable: registry.counter("storage_unavailable_errors_total"),
            receipts_posted: registry.counter("storage_receipts_posted_total"),
            receipts_taken: registry.counter("storage_receipts_taken_total"),
            partitions_offline: registry.gauge("storage_partitions_offline"),
            delta_reads: registry.counter("storage_delta_reads_total"),
            full_fallbacks: registry.counter("storage_full_fallbacks_total"),
            writes_suppressed: registry.counter("storage_writes_suppressed_total"),
            cache_delta_refreshes: registry.counter("storage_cache_delta_refreshes_total"),
            rows_visited: registry.counter("storage_read_rows_visited_total"),
            lock_wait,
            partition_inflight,
            wal_appends: registry.counter("wal_appends_total"),
            wal_fsyncs: registry.counter("wal_fsyncs_total"),
            wal_bytes_written: registry.counter("wal_bytes_written"),
            snapshot_compactions: registry.counter("snapshot_compactions_total"),
            recovery_truncated_records: registry.counter("recovery_truncated_records_total"),
            wal_tail_decree,
        }
    }
}

/// One storage partition: a consensus ring plus everything the proxy
/// tracks about it. Each partition has its own mutex, so operations
/// against different datacenters run concurrently end to end; the
/// counters are atomics so stats reads never touch the ring lock; the
/// offline flag is an atomic so `check_online` is lock-free.
struct Partition {
    ring: Mutex<PaxosCluster>,
    /// Jitter source for this partition's retry backoff, seeded from the
    /// partition's own ring seed (`config.seed + idx`) so retry schedules
    /// stay deterministic per partition no matter how concurrent
    /// operations interleave across partitions.
    rng: Mutex<StdRng>,
    /// Fault-injected offline (degraded-mode / chaos scenarios).
    offline: AtomicBool,
    /// Reads served by this partition's leader.
    leader_reads: AtomicU64,
    /// Retries performed against this partition.
    retries: AtomicU64,
    /// Operations that exhausted their retry budget here.
    retries_exhausted: AtomicU64,
    /// `read_since` requests served incrementally from the change index.
    delta_reads: AtomicU64,
    /// `read_since` requests that fell back to a full snapshot.
    full_fallbacks: AtomicU64,
    /// Value-identical rows suppressed at apply time (leader tally).
    writes_suppressed: AtomicU64,
    /// Cumulative wall-clock µs spent waiting to acquire the ring lock
    /// (contention observability; zero when partitions never collide).
    lock_wait_us: AtomicU64,
    /// Operations currently holding or waiting for the ring lock.
    inflight: AtomicU64,
    /// Replicas of this partition currently mid-recovery (killed and not
    /// yet restarted). While non-zero the partition reports retryable
    /// unavailability rather than serving a stale pre-crash watermark.
    recovering: AtomicU64,
    /// Previously exported cumulative WAL stats, for diffing into the
    /// service-wide counters on ring-lock release.
    wal_appends_seen: AtomicU64,
    wal_fsyncs_seen: AtomicU64,
    wal_bytes_seen: AtomicU64,
    wal_compactions_seen: AtomicU64,
    wal_truncated_seen: AtomicU64,
}

impl Partition {
    fn new(rc: ClusterConfig) -> Self {
        // Same derivation the old global jitter source used, applied to
        // the per-partition ring seed instead of the service seed.
        let rng_seed = rc.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
        Partition {
            ring: Mutex::new(PaxosCluster::new(rc)),
            rng: Mutex::new(StdRng::seed_from_u64(rng_seed)),
            offline: AtomicBool::new(false),
            leader_reads: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            delta_reads: AtomicU64::new(0),
            full_fallbacks: AtomicU64::new(0),
            writes_suppressed: AtomicU64::new(0),
            lock_wait_us: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            recovering: AtomicU64::new(0),
            wal_appends_seen: AtomicU64::new(0),
            wal_fsyncs_seen: AtomicU64::new(0),
            wal_bytes_seen: AtomicU64::new(0),
            wal_compactions_seen: AtomicU64::new(0),
            wal_truncated_seen: AtomicU64::new(0),
        }
    }

    /// Fail fast if this partition is fault-injected offline or has a
    /// replica mid-recovery. Lock-free: health checks never wait behind
    /// in-flight commits. The mid-recovery case takes the same typed
    /// retryable [`StateError::StorageUnavailable`] path as outages —
    /// callers retry instead of reading a stale pre-crash watermark.
    fn check_online(&self, dc: &DatacenterId) -> StateResult<()> {
        if self.offline.load(Ordering::Relaxed) {
            Err(StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "partition offline".into(),
            })
        } else if self.recovering.load(Ordering::Relaxed) > 0 {
            Err(StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "replica mid-recovery".into(),
            })
        } else {
            Ok(())
        }
    }
}

/// A held partition ring lock that keeps the inflight gauge honest: the
/// gauge counts from lock request to release, so it shows pile-ups while
/// they happen rather than after. On release (ring lock still held while
/// the drop body runs) it also folds the ring's cumulative WAL stats
/// into the service-wide durable-storage counters, so WAL observability
/// costs one diff per lock cycle instead of one metric op per append.
struct RingGuard<'a> {
    guard: parking_lot::MutexGuard<'a, PaxosCluster>,
    part: &'a Partition,
    gauge: Option<Gauge>,
    dc: &'a DatacenterId,
    obs: Option<&'a StorageObs>,
}

impl Drop for RingGuard<'_> {
    fn drop(&mut self) {
        self.part.inflight.fetch_sub(1, Ordering::Relaxed);
        if let Some(g) = &self.gauge {
            g.add(-1);
        }
        if let Some(o) = self.obs {
            // The mutex guard is dropped after this body, so the stats
            // snapshot and the `*_seen` swap are both taken under the
            // ring lock — deltas never race or double-count.
            let s = self.guard.wal_stats();
            let delta =
                |seen: &AtomicU64, now: u64| now.saturating_sub(seen.swap(now, Ordering::Relaxed));
            o.wal_appends
                .add(delta(&self.part.wal_appends_seen, s.appends));
            o.wal_fsyncs
                .add(delta(&self.part.wal_fsyncs_seen, s.fsyncs));
            o.wal_bytes_written
                .add(delta(&self.part.wal_bytes_seen, s.bytes_written));
            o.snapshot_compactions
                .add(delta(&self.part.wal_compactions_seen, s.compactions));
            o.recovery_truncated_records
                .add(delta(&self.part.wal_truncated_seen, s.truncated_records));
            for r in 0..self.guard.replica_count() {
                if let Some(g) = o.wal_tail_decree.get(&(self.dc.clone(), r as u8)) {
                    let tail = self.guard.replica_wal_stats(ReplicaId(r as u8)).tail_decree;
                    g.set(tail as i64);
                }
            }
        }
    }
}

impl std::ops::Deref for RingGuard<'_> {
    type Target = PaxosCluster;
    fn deref(&self) -> &PaxosCluster {
        &self.guard
    }
}

impl std::ops::DerefMut for RingGuard<'_> {
    fn deref_mut(&mut self) -> &mut PaxosCluster {
        &mut self.guard
    }
}

/// The partitioned, proxied storage service. Cheap to clone; all clones
/// share state.
#[derive(Clone)]
pub struct StorageService {
    /// The partition map, immutable after construction: lookups, routing,
    /// and health checks are lock-free reads of an `Arc`.
    parts: Arc<HashMap<DatacenterId, Partition>>,
    /// Partition names in sorted order (the deterministic iteration order
    /// every multi-partition operation uses).
    names: Arc<Vec<DatacenterId>>,
    config: Arc<StorageConfig>,
    /// Multi-partition writes and deletes fan out on this pool (resolved
    /// once at construction; see [`statesman_types::par`]).
    workers: WorkerPool,
    /// Bounded-stale read cache, deliberately *outside* the partition
    /// locks: cache hits are concurrent reads that never contend with
    /// writes or leader reads — the architectural point of §6.4 (cache
    /// replicas scale out; leaders do not).
    cache: Arc<parking_lot::RwLock<HashMap<(DatacenterId, Pool), CacheEntry>>>,
    cache_hits: Arc<AtomicU64>,
    clock: statesman_net::SimClock,
    /// Metric handles, attached at most once via
    /// [`StorageService::attach_obs`]. Outside the partition locks so the
    /// bounded-stale cache-hit path can record without contending.
    obs: Arc<std::sync::OnceLock<StorageObs>>,
    /// The most recent replica crash recovery across all partitions, for
    /// the `/v1/status` `last_recovery` block.
    last_recovery: Arc<Mutex<Option<RecoverySummary>>>,
}

impl StorageService {
    /// Build a service with rings for the given datacenters (plus the WAN
    /// pseudo-datacenter, which is always present).
    pub fn new(
        datacenters: impl IntoIterator<Item = DatacenterId>,
        clock: statesman_net::SimClock,
        config: StorageConfig,
    ) -> Self {
        // Directory-backed durability gets one subdirectory per partition
        // so rings never share WAL files.
        let scope_durability = |rc: &mut ClusterConfig, dc: &DatacenterId| {
            if let DurabilityMode::Dir(base) = &config.ring.durability {
                rc.durability = DurabilityMode::Dir(base.join(dc.to_string()));
            }
        };
        let mut parts = HashMap::new();
        let mut idx = 0u64;
        for dc in datacenters {
            let mut rc = config.ring.clone();
            rc.seed = config.seed.wrapping_add(idx);
            scope_durability(&mut rc, &dc);
            idx += 1;
            parts.insert(dc, Partition::new(rc));
        }
        if let std::collections::hash_map::Entry::Vacant(e) = parts.entry(DatacenterId::wan()) {
            let mut rc = config.ring.clone();
            rc.seed = config.seed.wrapping_add(idx);
            scope_durability(&mut rc, &DatacenterId::wan());
            e.insert(Partition::new(rc));
        }
        let mut names: Vec<DatacenterId> = parts.keys().cloned().collect();
        names.sort();
        StorageService {
            parts: Arc::new(parts),
            names: Arc::new(names),
            config: Arc::new(config),
            workers: WorkerPool::default(),
            cache: Arc::new(parking_lot::RwLock::new(HashMap::new())),
            cache_hits: Arc::new(AtomicU64::new(0)),
            clock,
            obs: Arc::new(std::sync::OnceLock::new()),
            last_recovery: Arc::new(Mutex::new(None)),
        }
    }

    /// Attach a metrics registry. Handles are created once and shared by
    /// every clone of this service; a second attach is a no-op (the
    /// registry is process-wide plumbing, not per-call state).
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.obs.set(StorageObs::new(
            registry,
            &self.names,
            self.config.ring.replicas,
        ));
    }

    fn obs(&self) -> Option<&StorageObs> {
        self.obs.get()
    }

    /// The simulated clock this service stamps against.
    pub fn clock(&self) -> &statesman_net::SimClock {
        &self.clock
    }

    /// Convenience: a single-DC service with default config.
    pub fn single_dc(dc: impl Into<DatacenterId>, clock: statesman_net::SimClock) -> Self {
        StorageService::new([dc.into()], clock, StorageConfig::default())
    }

    /// The partition owning `dc`, or the typed unavailable error.
    fn part(&self, dc: &DatacenterId) -> StateResult<&Partition> {
        self.parts
            .get(dc)
            .ok_or_else(|| StateError::StorageUnavailable {
                partition: dc.to_string(),
                reason: "unknown partition".into(),
            })
    }

    /// Acquire one partition's ring lock, recording how long the
    /// acquisition waited (contention observability) and keeping the
    /// inflight gauge up while the guard lives.
    fn lock_ring<'a>(&'a self, dc: &'a DatacenterId, part: &'a Partition) -> RingGuard<'a> {
        part.inflight.fetch_add(1, Ordering::Relaxed);
        let gauge = self
            .obs()
            .and_then(|o| o.partition_inflight.get(dc))
            .cloned();
        if let Some(g) = &gauge {
            g.add(1);
        }
        let started = Instant::now();
        let guard = part.ring.lock();
        let waited = started.elapsed().as_micros() as u64;
        part.lock_wait_us.fetch_add(waited, Ordering::Relaxed);
        if let Some(h) = self.obs().and_then(|o| o.lock_wait.get(dc)) {
            h.observe(waited as f64);
        }
        RingGuard {
            guard,
            part,
            gauge,
            dc,
            obs: self.obs(),
        }
    }

    /// The partition (datacenter) names, sorted. Lock-free: the partition
    /// set is fixed at construction.
    pub fn partitions(&self) -> Vec<DatacenterId> {
        self.names.as_ref().clone()
    }

    /// Proxy routing: the partition owning an entity (its home DC).
    /// Errors if no ring exists for that DC. Lock-free.
    pub fn route(&self, entity: &EntityName) -> StateResult<DatacenterId> {
        if self.parts.contains_key(&entity.datacenter) {
            Ok(entity.datacenter.clone())
        } else {
            Err(StateError::UnroutableEntity {
                entity: entity.clone(),
            })
        }
    }

    /// Write rows. The proxy splits the batch by partition; each partition
    /// gets one consensus commit, and when the batch spans partitions the
    /// sub-batches commit **concurrently** — partitions share no state
    /// (§6.1), so there is nothing to serialize on.
    ///
    /// A multi-partition batch is **not a transaction**: each sub-batch
    /// is an independent single-partition commit, so when one partition
    /// fails (offline, no quorum) every healthy partition's sub-batch
    /// still lands. On error the result covers *all* failures — the
    /// partition's own typed error when exactly one failed, or an
    /// aggregate [`StateError::StorageUnavailable`] naming every failed
    /// partition. (The pre-shard proxy committed sequentially in sorted
    /// partition order and stopped at the first failure; callers must
    /// not infer a committed sorted prefix from an error.) Malformed or
    /// unroutable rows are still rejected up front, before *any*
    /// partition commits.
    pub fn write(&self, req: WriteRequest) -> StateResult<()> {
        self.admit_write(&req.rows)?;
        let pool = req.pool;
        self.dispatch(
            req.rows,
            |row| &row.entity,
            |dc, rows| self.write_partition(dc, pool.clone(), rows),
        )?;
        Ok(())
    }

    /// Count a write request and reject it whole if any row is malformed.
    fn admit_write(&self, rows: &[NetworkState]) -> StateResult<()> {
        if let Some(o) = self.obs() {
            o.writes.inc();
            o.rows_written.add(rows.len() as u64);
        }
        match rows.iter().find(|row| !row.is_well_formed()) {
            Some(row) => Err(StateError::invalid(format!("malformed row {row}"))),
            None => Ok(()),
        }
    }

    /// The partition dispatcher behind [`StorageService::write`],
    /// [`StorageService::write_bulk`] and [`StorageService::delete`]:
    /// group `items` by home partition, reject the whole batch if any
    /// partition is unknown (so a bad item cannot land part of it), then
    /// run one `commit` per partition on the worker pool, each sub-batch
    /// moved into its commit. Results come back in sorted partition
    /// order; a single-partition batch commits inline with no spawn. A
    /// batch homed in one partition (every one-DC write and seed) is not
    /// regrouped: the caller's `Vec` itself moves into its commit.
    fn dispatch<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        entity: impl Fn(&T) -> &EntityName,
        commit: impl Fn(&DatacenterId, Vec<T>) -> StateResult<R> + Sync,
    ) -> StateResult<Vec<R>> {
        let mut by_dc: BTreeMap<DatacenterId, Vec<T>> = BTreeMap::new();
        match items.first().map(|item| entity(item).datacenter.clone()) {
            Some(dc) if items.iter().all(|item| entity(item).datacenter == dc) => {
                by_dc.insert(dc, items);
            }
            _ => {
                for item in items {
                    by_dc
                        .entry(entity(&item).datacenter.clone())
                        .or_default()
                        .push(item);
                }
            }
        }
        for (dc, batch) in &by_dc {
            if !self.parts.contains_key(dc) {
                return Err(StateError::UnroutableEntity {
                    entity: entity(&batch[0]).clone(),
                });
            }
        }
        let (dcs, batches): (Vec<DatacenterId>, Vec<Vec<T>>) = by_dc.into_iter().unzip();
        let results = self.workers.run(batches, |i, batch| commit(&dcs[i], batch));
        partition_results(&dcs, results)
    }

    /// One partition's share of a write: a single consensus commit under
    /// that partition's lock only. The sub-batch moves into the command's
    /// shared row list; the ring copies it by refcount from here on.
    fn write_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        rows: Vec<NetworkState>,
    ) -> StateResult<()> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        let before = leader_suppressed(&mut ring);
        let rows = Arc::new(rows);
        self.submit_with_retry(part, &mut ring, dc, LogCommand::WriteBatch { pool, rows })?;
        let suppressed = leader_suppressed(&mut ring).saturating_sub(before);
        if suppressed > 0 {
            part.writes_suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
            if let Some(o) = self.obs() {
                o.writes_suppressed.add(suppressed);
            }
        }
        Ok(())
    }

    /// Bulk-ingest write for bootstrap seeding: identical routing,
    /// validation, and failure semantics to [`StorageService::write`],
    /// but each partition's sub-batch commits as a single
    /// [`LogCommand::BulkBatch`] — batched slot minting, pre-sized
    /// column storage, one watermark bump — and the call reports a
    /// per-stage [`SeedStats`] breakdown. Partitions commit
    /// concurrently, one consensus commit each, regardless of size;
    /// callers accept the unbounded per-message payload that the
    /// chunked steady-state write path deliberately avoids.
    pub fn write_bulk(&self, req: WriteRequest) -> StateResult<SeedStats> {
        let started = Instant::now();
        self.admit_write(&req.rows)?;
        let pool = req.pool;
        let per_part = self.dispatch(
            req.rows,
            |row| &row.entity,
            |dc, rows| self.write_bulk_partition(dc, pool.clone(), rows),
        )?;
        let mut stats = SeedStats {
            partitions: per_part.len(),
            ..SeedStats::default()
        };
        for bulk in per_part {
            stats.rows += bulk.rows;
            stats.intern_ms += bulk.intern_nanos as f64 / 1e6;
            stats.fill_ms += bulk.fill_nanos as f64 / 1e6;
            stats.index_ms += bulk.index_nanos as f64 / 1e6;
        }
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        stats.commit_ms =
            (stats.wall_ms - stats.intern_ms - stats.fill_ms - stats.index_ms).max(0.0);
        Ok(stats)
    }

    /// One partition's share of a bulk write: a single `BulkBatch`
    /// consensus commit, returning the leader machine's stage-timing
    /// delta for this batch.
    fn write_bulk_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        rows: Vec<NetworkState>,
    ) -> StateResult<crate::machine::BulkStats> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        let before_stats = ring
            .leader_machine()
            .map(|m| m.bulk_stats())
            .unwrap_or_default();
        let before_suppressed = leader_suppressed(&mut ring);
        self.submit_with_retry(
            part,
            &mut ring,
            dc,
            LogCommand::BulkBatch {
                pool,
                rows: Arc::new(rows),
            },
        )?;
        let suppressed = leader_suppressed(&mut ring).saturating_sub(before_suppressed);
        if suppressed > 0 {
            part.writes_suppressed
                .fetch_add(suppressed, Ordering::Relaxed);
            if let Some(o) = self.obs() {
                o.writes_suppressed.add(suppressed);
            }
        }
        Ok(ring
            .leader_machine()
            .map(|m| m.bulk_stats())
            .unwrap_or_default()
            .since(&before_stats))
    }

    /// Delete keys from a pool (split by partition like writes, with the
    /// same concurrent multi-partition dispatch and the same
    /// independent-sub-batch failure semantics: healthy partitions
    /// commit even when others fail, and the error aggregates every
    /// failed partition — see [`StorageService::write`]).
    pub fn delete(&self, pool: Pool, keys: Vec<StateKey>) -> StateResult<()> {
        if let Some(o) = self.obs() {
            o.deletes.inc();
        }
        self.dispatch(
            keys,
            |key| &key.entity,
            |dc, keys| self.delete_partition(dc, pool.clone(), keys),
        )?;
        Ok(())
    }

    fn delete_partition(
        &self,
        dc: &DatacenterId,
        pool: Pool,
        keys: Vec<StateKey>,
    ) -> StateResult<()> {
        let part = self.parts.get(dc).expect("routability validated");
        let mut ring = self.lock_ring(dc, part);
        self.submit_with_retry(part, &mut ring, dc, LogCommand::DeleteBatch { pool, keys })
    }

    /// Read rows per the request's freshness mode. Row order is
    /// unspecified (it differs between a probe and a scan, and between
    /// processes); callers that show rows sort them.
    pub fn read(&self, req: ReadRequest) -> StateResult<Vec<NetworkState>> {
        self.read_versioned(req).map(|(rows, _)| rows)
    }

    /// [`StorageService::read`], plus the pool version the returned rows
    /// reflect: the cached column's watermark for a bounded-stale read,
    /// the leader's pool watermark — under the same ring-lock acquisition
    /// as the rows — for an up-to-date one. A snapshot-then-follow client
    /// passes it as its first `since=`; a version taken any later would
    /// skip the changes committed in between.
    pub fn read_versioned(&self, req: ReadRequest) -> StateResult<(Vec<NetworkState>, Version)> {
        if let Some(o) = self.obs() {
            o.reads.inc();
        }
        let (rows, visited, served) = match req.freshness {
            Freshness::UpToDate => {
                let part = self.part(&req.datacenter)?;
                part.check_online(&req.datacenter)?;
                part.leader_reads.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.leader_reads.inc();
                }
                let mut ring = self.lock_ring(&req.datacenter, part);
                let machine = ring.leader_machine()?;
                let (rows, visited) = machine
                    .column(&req.pool)
                    .map(|column| select_rows(column, &req))
                    .unwrap_or_default();
                (rows, visited, machine.pool_watermark(&req.pool))
            }
            Freshness::BoundedStale => {
                let cached = self.cached_column(&req)?;
                let (rows, visited) = select_rows(&cached.column, &req);
                (rows, visited, cached.watermark)
            }
        };
        if let Some(o) = self.obs() {
            o.rows_visited.add(visited);
        }
        Ok((rows, served))
    }

    /// The bounded-stale cache's entry for the request's pool, refreshed
    /// first if older than the staleness bound. A hit is a shared read
    /// lock and an `Arc` clone: no partition lock, no health check
    /// (bounded-stale reads ride out outages within the bound), no row
    /// copies.
    fn cached_column(&self, req: &ReadRequest) -> StateResult<CacheEntry> {
        let now = self.clock.now();
        let key = (req.datacenter.clone(), req.pool.clone());
        let held = self.cache.read().get(&key).cloned();
        match held {
            Some(hit) if now.saturating_since(hit.fetched_at) <= self.config.staleness_bound => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.cache_hits.inc();
                }
                Ok(hit)
            }
            // The expired entry (if any) seeds a delta refresh.
            expired => self.refresh_cache_entry(req, now, key, expired),
        }
    }

    /// Refresh one bounded-stale cache entry from a (possibly behind)
    /// replica: under the partition lock, extract the changefeed since
    /// the held column's watermark, or clone the replica's column when
    /// the change index cannot serve the gap; outside it, apply the
    /// delta to the held column. The full clone shares the replica's
    /// arena chunks, so the replica's next write to a shared chunk pays
    /// for copying that chunk. (Refreshes check partition health; cache
    /// *hits* deliberately do not.)
    fn refresh_cache_entry(
        &self,
        req: &ReadRequest,
        now: SimTime,
        key: (DatacenterId, Pool),
        prior: Option<CacheEntry>,
    ) -> StateResult<CacheEntry> {
        enum Refresh {
            Delta(Arc<Column>, StateDelta),
            Full(Column, Version),
        }
        let refresh = {
            let part = self.part(&req.datacenter)?;
            part.check_online(&req.datacenter)?;
            let ring = self.lock_ring(&req.datacenter, part);
            // A follower replica: cheap, and possibly behind the leader —
            // both forms of staleness the 5-minute bound covers.
            let machine = ring.any_machine();
            let delta = prior.and_then(|held| {
                machine
                    .changes_since(&req.pool, held.watermark, |_| true)
                    .filter(|d| !d.snapshot)
                    .map(|d| (held.column, d))
            });
            match delta {
                Some((column, delta)) => Refresh::Delta(column, delta),
                None => Refresh::Full(
                    machine
                        .column(&req.pool)
                        .cloned()
                        .unwrap_or_else(|| Column::new(req.pool.clone())),
                    machine.pool_watermark(&req.pool),
                ),
            }
        };
        let (column, watermark) = match refresh {
            Refresh::Delta(mut column, delta) => {
                if let Some(o) = self.obs() {
                    o.cache_delta_refreshes.inc();
                }
                if !delta.is_empty() {
                    // Copy-on-write twice over: while the cache or a
                    // reader mid-read still holds the expired column,
                    // `make_mut` clones it, which copies its slot map and
                    // bitmap and shares its arena chunks; the upserts
                    // below then copy only the chunks they touch.
                    let held = Arc::make_mut(&mut column);
                    for key in &delta.deletes {
                        held.remove_var(key.var_id());
                    }
                    for row in delta.upserts {
                        held.upsert(row);
                    }
                }
                (column, delta.watermark)
            }
            Refresh::Full(column, watermark) => (Arc::new(column), watermark),
        };
        let entry = CacheEntry {
            fetched_at: now,
            watermark,
            column,
        };
        self.cache.write().insert(key, entry.clone());
        Ok(entry)
    }

    /// Read one row up-to-date (checker fast path). Touches only the
    /// owning partition's lock.
    pub fn read_row(&self, pool: &Pool, key: &StateKey) -> StateResult<Option<NetworkState>> {
        let part =
            self.parts
                .get(&key.entity.datacenter)
                .ok_or_else(|| StateError::UnroutableEntity {
                    entity: key.entity.clone(),
                })?;
        part.check_online(&key.entity.datacenter)?;
        part.leader_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs() {
            o.leader_reads.inc();
        }
        let mut ring = self.lock_ring(&key.entity.datacenter, part);
        Ok(ring.leader_machine()?.get(pool, key).cloned())
    }

    /// Post checker receipts to the partition holding the affected
    /// entities (receipts are stored per application).
    pub fn post_receipts(&self, dc: &DatacenterId, receipts: Vec<WriteReceipt>) -> StateResult<()> {
        if receipts.is_empty() {
            return Ok(());
        }
        if let Some(o) = self.obs() {
            o.receipts_posted.add(receipts.len() as u64);
        }
        let part = self.part(dc)?;
        let mut ring = self.lock_ring(dc, part);
        self.submit_with_retry(part, &mut ring, dc, LogCommand::PostReceipts { receipts })
    }

    /// Up to `limit` of an application's pending receipts in one
    /// partition, oldest first, each with its position in the
    /// application's queue: a plain leader read that removes nothing.
    /// Feed the last position back to [`StorageService::ack_receipts`]
    /// once the receipts are delivered.
    pub fn pending_receipts(
        &self,
        dc: &DatacenterId,
        app: &AppId,
        limit: usize,
    ) -> StateResult<Vec<(u64, WriteReceipt)>> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        Ok(pending(ring.leader_machine()?, app, limit))
    }

    /// Acknowledge an application's receipts in one partition up to and
    /// including position `through`: a logged [`LogCommand::AckReceipts`],
    /// so every replica drops the same receipts. Idempotent; an ack that
    /// would drop nothing commits nothing.
    pub fn ack_receipts(&self, dc: &DatacenterId, app: &AppId, through: u64) -> StateResult<()> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        self.ack_locked(part, &mut ring, dc, app, through)
    }

    /// Take (read, then acknowledge) every pending receipt of an
    /// application in one partition. Both steps run under one ring-lock
    /// acquisition, so concurrent takers get disjoint sets; if the ack
    /// fails, nothing is returned and the receipts stay pending.
    pub fn take_receipts(&self, dc: &DatacenterId, app: &AppId) -> StateResult<Vec<WriteReceipt>> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        let receipts = pending(ring.leader_machine()?, app, usize::MAX);
        if let Some((through, _)) = receipts.last() {
            self.ack_locked(part, &mut ring, dc, app, *through)?;
        }
        Ok(receipts.into_iter().map(|(_, r)| r).collect())
    }

    /// Take an application's receipts from every partition, in partition
    /// order. A partition that fails keeps its receipts for a later
    /// take: the call returns what the other partitions delivered, and
    /// the error only when none delivered any. Nothing is acknowledged
    /// that is not returned.
    pub fn take_all_receipts(&self, app: &AppId) -> StateResult<Vec<WriteReceipt>> {
        let mut taken = Vec::new();
        let mut failure = None;
        for dc in self.names.iter() {
            match self.take_receipts(dc, app) {
                Ok(receipts) => taken.extend(receipts),
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        match failure {
            Some(e) if taken.is_empty() => Err(e),
            _ => Ok(taken),
        }
    }

    /// [`StorageService::ack_receipts`] under a held ring lock. Counts
    /// the receipts the committed ack dropped into
    /// `storage_receipts_taken_total`.
    fn ack_locked(
        &self,
        part: &Partition,
        ring: &mut PaxosCluster,
        dc: &DatacenterId,
        app: &AppId,
        through: u64,
    ) -> StateResult<()> {
        let dropped = ring
            .leader_machine()?
            .receipts(app)
            .map_or(0, |queue| queue.ackable(through));
        if dropped == 0 {
            return Ok(());
        }
        let app = app.clone();
        self.submit_with_retry(part, ring, dc, LogCommand::AckReceipts { app, through })?;
        if let Some(o) = self.obs() {
            o.receipts_taken.add(dropped as u64);
        }
        Ok(())
    }

    /// Replica determinism for one partition (see
    /// [`PaxosCluster::check_replica_determinism`]): the number of replica
    /// pairs at an equal frontier whose machines were compared, or the
    /// first difference. Deliberately bypasses `check_online`: it runs
    /// through outages and recoveries, skipping only crashed replicas.
    pub fn check_replica_determinism(&self, dc: &DatacenterId) -> Result<usize, String> {
        let part = self
            .parts
            .get(dc)
            .ok_or_else(|| format!("unknown partition {dc}"))?;
        let ring = self.lock_ring(dc, part);
        ring.check_replica_determinism()
            .map_err(|e| format!("partition {dc}: {e}"))
    }

    /// Total rows across all partitions and pools (scale reporting).
    pub fn total_rows(&self) -> usize {
        let mut total = 0;
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                total += m.pool_len(&Pool::Observed) + m.pool_len(&Pool::Target);
            }
        }
        total
    }

    /// Applications with a non-empty proposed state in one partition.
    pub fn proposing_apps(&self, dc: &DatacenterId) -> Vec<AppId> {
        match self.parts.get(dc) {
            Some(part) => {
                let mut ring = self.lock_ring(dc, part);
                match ring.leader_machine() {
                    Ok(m) => m
                        .pools()
                        .into_iter()
                        .filter_map(|p| match p {
                            Pool::Proposed(app) => Some(app),
                            _ => None,
                        })
                        .collect(),
                    Err(_) => Vec::new(),
                }
            }
            None => Vec::new(),
        }
    }

    /// Rows in one pool of one partition.
    pub fn pool_len(&self, dc: &DatacenterId, pool: &Pool) -> usize {
        match self.parts.get(dc) {
            Some(part) => {
                let mut ring = self.lock_ring(dc, part);
                ring.leader_machine().map(|m| m.pool_len(pool)).unwrap_or(0)
            }
            None => 0,
        }
    }

    /// Per-pool row counts summed across every partition, sorted by pool
    /// wire name — the `/v1/status` state-plane breakdown. Unreadable
    /// partitions contribute nothing (degraded mode must not fail a
    /// status scrape).
    pub fn pool_row_stats(&self) -> Vec<(Pool, u64)> {
        let mut totals: std::collections::BTreeMap<String, (Pool, u64)> =
            std::collections::BTreeMap::new();
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                for (pool, n) in m.pool_stats() {
                    totals
                        .entry(pool.wire_name().into_owned())
                        .and_modify(|e| e.1 += n)
                        .or_insert((pool, n));
                }
            }
        }
        totals.into_values().collect()
    }

    /// (approximate resident bytes, live rows) of the columnar state
    /// plane, summed across partitions — the source of the
    /// `state_bytes_per_var` gauge.
    pub fn state_bytes(&self) -> (u64, u64) {
        let mut bytes = 0u64;
        let mut rows = 0u64;
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let mut ring = self.lock_ring(dc, part);
            if let Ok(m) = ring.leader_machine() {
                let (b, r) = m.state_bytes();
                bytes += b;
                rows += r;
            }
        }
        (bytes, rows)
    }

    /// (cache_hits, leader_reads) counters for the freshness bench.
    /// Lock-free: both are atomics (leader reads aggregate per partition).
    pub fn read_stats(&self) -> (u64, u64) {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let leader_reads = self
            .parts
            .values()
            .map(|p| p.leader_reads.load(Ordering::Relaxed))
            .sum();
        (hits, leader_reads)
    }

    /// Cumulative wall-clock µs operations spent waiting on partition
    /// ring locks, summed across partitions. Zero while callers stay on
    /// disjoint partitions — the number the sharded plane is supposed to
    /// keep near zero. The coordinator diffs it per round into
    /// `/v1/status`.
    pub fn lock_wait_stats(&self) -> u64 {
        self.parts
            .values()
            .map(|p| p.lock_wait_us.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-partition cumulative ring-lock wait (µs), sorted by partition
    /// name (contention observability for benches and debugging).
    pub fn lock_wait_by_partition(&self) -> Vec<(DatacenterId, u64)> {
        self.names
            .iter()
            .map(|dc| {
                let part = self.parts.get(dc).expect("name maps to partition");
                (dc.clone(), part.lock_wait_us.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// Crash a replica in one partition (failure injection for tests).
    pub fn crash_replica(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.crash(crate::bus::ReplicaId(replica));
        }
    }

    /// Restart a crashed replica.
    pub fn restart_replica(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.restart(crate::bus::ReplicaId(replica));
        }
    }

    /// Kill -9 a replica: process state is dropped on the floor (no
    /// graceful teardown), durable files survive. The partition reports
    /// retryable unavailability until [`Self::complete_replica_recovery`]
    /// brings the replica back — callers must never read a stale
    /// pre-crash watermark through a partition that is mid-recovery.
    pub fn begin_replica_recovery(&self, dc: &DatacenterId, replica: u8) {
        if let Some(part) = self.parts.get(dc) {
            part.recovering.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.lock_ring(dc, part);
            ring.kill9(ReplicaId(replica));
        }
    }

    /// Corrupt a killed replica's durable files (chaos injection): a torn
    /// tail the recovery path must repair, or a bit flip it must refuse.
    pub fn corrupt_replica_wal(&self, dc: &DatacenterId, replica: u8, corruption: &WalCorruption) {
        if let Some(part) = self.parts.get(dc) {
            let mut ring = self.lock_ring(dc, part);
            ring.corrupt_store(ReplicaId(replica), corruption);
        }
    }

    /// Restart a killed replica through the recovery path and lift the
    /// partition's mid-recovery unavailability. Returns the recovery
    /// summary (also stashed for `/v1/status`).
    pub fn complete_replica_recovery(
        &self,
        dc: &DatacenterId,
        replica: u8,
    ) -> Option<RecoverySummary> {
        let part = self.parts.get(dc)?;
        let report = {
            let mut ring = self.lock_ring(dc, part);
            ring.restart(ReplicaId(replica));
            ring.last_recovery().cloned()
        };
        part.recovering.fetch_sub(1, Ordering::Relaxed);
        let summary = report.map(|r| RecoverySummary {
            partition: dc.to_string(),
            replica: r.replica,
            refused: r.refused,
            truncated_records: r.truncated_records,
            replayed_events: r.replayed_events,
            snapshot_frontier: r.snapshot_frontier,
            recovered_frontier: r.recovered_frontier,
        });
        if summary.is_some() {
            *self.last_recovery.lock() = summary.clone();
        }
        summary
    }

    /// The most recent replica crash recovery across all partitions, if
    /// any (the coordinator copies it into the status board each tick).
    pub fn last_recovery(&self) -> Option<RecoverySummary> {
        self.last_recovery.lock().clone()
    }

    /// One replica's applied-through decree. Deliberately bypasses
    /// `check_online`: the chaos harness reads rejoin progress while the
    /// partition is still reporting mid-recovery unavailability.
    pub fn replica_applied_through(&self, dc: &DatacenterId, replica: u8) -> u64 {
        match self.parts.get(dc) {
            Some(part) => {
                let ring = self.lock_ring(dc, part);
                ring.applied_through(ReplicaId(replica))
            }
            None => 0,
        }
    }

    /// Verify every replica store's snapshot + hash chain in one
    /// partition; `Ok(records_verified)` or the first failure.
    pub fn verify_wal_chains(&self, dc: &DatacenterId) -> Result<u64, String> {
        match self.parts.get(dc) {
            Some(part) => {
                let ring = self.lock_ring(dc, part);
                ring.verify_chains()
            }
            None => Err(format!("unknown partition {dc}")),
        }
    }

    /// Cumulative WAL stats merged across every partition's replicas.
    pub fn wal_stats(&self) -> crate::wal::WalStats {
        let mut total = crate::wal::WalStats::default();
        for dc in self.names.iter() {
            let part = self.parts.get(dc).expect("name maps to partition");
            let ring = self.lock_ring(dc, part);
            total.merge(&ring.wal_stats());
        }
        total
    }

    /// Take a whole partition offline (or bring it back): failure
    /// injection for degraded-mode and chaos scenarios. While offline,
    /// commits and leader reads against the partition fail fast with a
    /// retryable [`StateError::StorageUnavailable`]; bounded-stale reads
    /// keep serving cached snapshots within the staleness bound.
    pub fn set_partition_available(&self, dc: &DatacenterId, available: bool) {
        if let Some(part) = self.parts.get(dc) {
            part.offline.store(!available, Ordering::Relaxed);
        }
        if let Some(o) = self.obs() {
            let offline = self
                .parts
                .values()
                .filter(|p| p.offline.load(Ordering::Relaxed))
                .count();
            o.partitions_offline.set(offline as i64);
        }
    }

    /// Whether a partition is currently available (not fault-injected
    /// offline and no replica mid-recovery). The coordinator polls this
    /// to decide which impact groups a degraded round can still process.
    /// Lock-free.
    pub fn partition_available(&self, dc: &DatacenterId) -> bool {
        self.parts
            .get(dc)
            .map(|p| {
                !p.offline.load(Ordering::Relaxed) && p.recovering.load(Ordering::Relaxed) == 0
            })
            .unwrap_or(false)
    }

    /// (retries performed, operations that exhausted their retry budget).
    /// Lock-free aggregation over the per-partition atomics.
    pub fn retry_stats(&self) -> (u64, u64) {
        let mut retries = 0;
        let mut exhausted = 0;
        for p in self.parts.values() {
            retries += p.retries.load(Ordering::Relaxed);
            exhausted += p.retries_exhausted.load(Ordering::Relaxed);
        }
        (retries, exhausted)
    }

    /// Everything that changed in one partition's pool after `since`
    /// (Table 3's GET with a version cursor). Served by the leader so the
    /// watermark in the reply is linearizable with respect to commits
    /// through this service. When the change index cannot serve the gap —
    /// `since` predates the compaction floor or outruns the watermark —
    /// the reply degrades to a full snapshot (`snapshot: true`): the
    /// paper's semantics are always recoverable, deltas are only an
    /// optimization.
    pub fn read_since(
        &self,
        dc: &DatacenterId,
        pool: &Pool,
        since: Version,
    ) -> StateResult<StateDelta> {
        self.read_since_where(dc, pool, since, |_| true)
    }

    /// [`StorageService::read_since`] narrowed at the source to the
    /// variables whose attribute `keep` accepts: the reply lists no other
    /// row or tombstone, in a delta or a snapshot, and carries the pool's
    /// watermark whatever it drops. A mirror advanced only by replies
    /// with one `keep` holds exactly the accepted rows of the pool.
    pub fn read_since_where(
        &self,
        dc: &DatacenterId,
        pool: &Pool,
        since: Version,
        keep: impl Fn(Attribute) -> bool,
    ) -> StateResult<StateDelta> {
        if let Some(o) = self.obs() {
            o.reads.inc();
            o.leader_reads.inc();
        }
        let part = self.part(dc)?;
        part.check_online(dc)?;
        part.leader_reads.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.lock_ring(dc, part);
        let machine = ring.leader_machine()?;
        match machine.changes_since(pool, since, &keep) {
            Some(delta) => {
                part.delta_reads.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.delta_reads.inc();
                }
                Ok(delta)
            }
            None => {
                let delta = StateDelta::full_snapshot(
                    machine.pool_rows(pool, &keep),
                    machine.pool_watermark(pool),
                );
                part.full_fallbacks.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = self.obs() {
                    o.full_fallbacks.inc();
                }
                Ok(delta)
            }
        }
    }

    /// The leader's current watermark for one partition's pool: the
    /// version of its newest effective change. `read_since` from this
    /// point returns an empty delta until something actually changes.
    pub fn pool_watermark(&self, dc: &DatacenterId, pool: &Pool) -> StateResult<Version> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        Ok(ring.leader_machine()?.pool_watermark(pool))
    }

    /// The leader's current version counter for one partition, across
    /// *all* pools (versions are stamped machine-wide). Any effective
    /// write to any pool moves it, so an unchanged partition watermark
    /// proves the partition's entire state is unchanged; it never
    /// regresses, not even across replica crashes (chaos checks that).
    pub fn partition_watermark(&self, dc: &DatacenterId) -> StateResult<Version> {
        let part = self.part(dc)?;
        part.check_online(dc)?;
        let mut ring = self.lock_ring(dc, part);
        Ok(ring.leader_machine()?.current_version())
    }

    /// (delta reads served, full-snapshot fallbacks, writes suppressed) —
    /// cumulative, for `RoundReport` and benches. Lock-free aggregation.
    pub fn delta_stats(&self) -> (u64, u64, u64) {
        let mut delta_reads = 0;
        let mut full_fallbacks = 0;
        let mut suppressed = 0;
        for p in self.parts.values() {
            delta_reads += p.delta_reads.load(Ordering::Relaxed);
            full_fallbacks += p.full_fallbacks.load(Ordering::Relaxed);
            suppressed += p.writes_suppressed.load(Ordering::Relaxed);
        }
        (delta_reads, full_fallbacks, suppressed)
    }

    /// Submit one consensus command with the configured bounded retry and
    /// jittered exponential backoff. Backoffs advance *simulated* time, so
    /// retry cost is visible in round latency without wall-clock stalls.
    /// Fatal (non-retryable) errors and exhausted budgets surface the
    /// typed error to the caller — nothing blocks indefinitely. The
    /// partition's ring lock is held across the whole retry loop, so each
    /// partition's commits stay atomic with respect to each other exactly
    /// as they were under the global lock; other partitions are
    /// unaffected, and concurrent backoffs compose (clock advances are
    /// commutative).
    fn submit_with_retry(
        &self,
        part: &Partition,
        ring: &mut PaxosCluster,
        dc: &DatacenterId,
        cmd: LogCommand,
    ) -> StateResult<()> {
        let policy = &self.config.retry;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let res = part
                .check_online(dc)
                .and_then(|()| ring.submit(cmd.clone()).map(|_| ()));
            match res {
                Ok(()) => return Ok(()),
                Err(e) if e.is_retryable() && policy.should_retry(attempt) => {
                    part.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(o) = self.obs() {
                        o.retries.inc();
                    }
                    let roll: f64 = part.rng.lock().gen();
                    self.clock.advance(policy.backoff_after(attempt, roll));
                }
                Err(e) => {
                    if e.is_retryable() {
                        part.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        if let Some(o) = self.obs() {
                            o.retries_exhausted.inc();
                            o.unavailable.inc();
                        }
                    }
                    return Err(e);
                }
            }
        }
    }
}

/// Collapse a partition fan-out's per-partition results (in sorted
/// partition order). Sub-batches commit independently, so an error here
/// never means "nothing landed": every partition's value when all
/// committed; the partition's own typed error when exactly one failed; an
/// aggregate [`StateError::StorageUnavailable`] naming every failed
/// partition when several did, so callers see the full damage rather
/// than only the sorted-first casualty.
fn partition_results<R>(dcs: &[DatacenterId], results: Vec<StateResult<R>>) -> StateResult<Vec<R>> {
    let mut committed = Vec::with_capacity(results.len());
    let mut failures: Vec<(&DatacenterId, StateError)> = Vec::new();
    for (dc, result) in dcs.iter().zip(results) {
        match result {
            Ok(r) => committed.push(r),
            Err(e) => failures.push((dc, e)),
        }
    }
    match failures.len() {
        0 => Ok(committed),
        1 => Err(failures.pop().expect("length checked").1),
        _ => Err(StateError::StorageUnavailable {
            partition: failures
                .iter()
                .map(|(dc, _)| dc.to_string())
                .collect::<Vec<_>>()
                .join(","),
            reason: failures
                .iter()
                .map(|(dc, e)| format!("{dc}: {e}"))
                .collect::<Vec<_>>()
                .join("; "),
        }),
    }
}

/// The rows of `column` a request selects, and how many rows the
/// selection looked at (`storage_read_rows_visited_total`): an entity
/// filter is one probe per attribute asked for — the whole catalogue, or
/// the one named — whatever the column holds; anything else walks the
/// live rows.
fn select_rows(column: &Column, req: &ReadRequest) -> (Vec<NetworkState>, u64) {
    match &req.entity {
        Some(entity) => {
            let probes = req.attribute.map_or(Attribute::catalogue().len(), |_| 1);
            let rows = column.entity_rows(entity, req.attribute);
            (rows.into_iter().cloned().collect(), probes as u64)
        }
        None => {
            let rows = column
                .rows()
                .filter(|r| req.attribute.map(|a| r.attribute == a).unwrap_or(true));
            (rows.cloned().collect(), column.len() as u64)
        }
    }
}

/// Up to `limit` of `app`'s pending receipts in `machine`, with their
/// positions.
fn pending(machine: &StateMachine, app: &AppId, limit: usize) -> Vec<(u64, WriteReceipt)> {
    machine.receipts(app).map_or_else(Vec::new, |queue| {
        queue.pending(limit).map(|(p, r)| (p, r.clone())).collect()
    })
}

/// Cumulative value-identical writes suppressed by this ring's leader (0
/// when no leader is reachable — callers diff before/after the same
/// commit, so a mid-write leader change at worst undercounts).
fn leader_suppressed(ring: &mut PaxosCluster) -> u64 {
    ring.leader_machine()
        .ok()
        .map(|m| m.suppressed_count())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_net::SimClock;
    use statesman_types::Value;

    fn clock() -> SimClock {
        SimClock::new()
    }

    fn row(dc: &str, dev: &str, fw: &str, at: SimTime) -> NetworkState {
        NetworkState::new(
            EntityName::device(dc, dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(fw),
            at,
            AppId::monitor(),
        )
    }

    fn svc(clock: &SimClock) -> StorageService {
        StorageService::new(
            [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
            clock.clone(),
            StorageConfig::default(),
        )
    }

    #[test]
    fn write_then_uptodate_read() {
        let c = clock();
        let s = svc(&c);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "agg-1-1", "6.0", c.now())],
        })
        .unwrap();
        let rows = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, Value::text("6.0"));
    }

    /// The rows of a committed write exist once per ring: the retry loop,
    /// every Paxos message, each replica's accepted and chosen entry and
    /// every logical-WAL record share the submitted batch. (Each replica
    /// still copies a row into its column when it applies it.)
    #[test]
    fn a_write_batch_is_shared_through_the_ring() {
        use crate::wal::WalEvent;
        fn rows_of(cmd: &LogCommand) -> &Arc<Vec<NetworkState>> {
            match cmd {
                LogCommand::Tagged { inner, .. } => rows_of(inner),
                LogCommand::WriteBatch { rows, .. } => rows,
                other => panic!("not a write batch: {other:?}"),
            }
        }
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let rows = Arc::new(vec![
            row("dc1", "agg-1-1", "6.0", c.now()),
            row("dc1", "agg-1-2", "6.0", c.now()),
        ]);
        let part = s.part(&dc).unwrap();
        let mut ring = s.lock_ring(&dc, part);
        let cmd = LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: Arc::clone(&rows),
        };
        s.submit_with_retry(part, &mut ring, &dc, cmd).unwrap();
        let slot = ring.applied_through(ring.leader().unwrap());
        assert_eq!(ring.replica_count(), 3);
        for i in 0..3 {
            let id = ReplicaId(i);
            let (accepted, chosen) = ring.replica(id).log_entries(slot);
            assert!(
                Arc::ptr_eq(rows_of(accepted.unwrap()), &rows),
                "r{i} accepted"
            );
            assert!(Arc::ptr_eq(rows_of(chosen.unwrap()), &rows), "r{i} chosen");
            let mut records = 0;
            for ev in ring.store(id).load().events {
                match ev {
                    WalEvent::Accept { slot: at, cmd, .. } | WalEvent::Commit { slot: at, cmd }
                        if at == slot =>
                    {
                        assert!(Arc::ptr_eq(rows_of(&cmd), &rows), "r{i} WAL slot {at}");
                        records += 1;
                    }
                    _ => {}
                }
            }
            assert!(records >= 2, "r{i} logged an accept and a commit");
        }
        drop(ring);
        // Through the proxy, a write homed in one partition commits the
        // caller's own allocation: dispatch does not regroup it.
        let rows = vec![row("dc1", "agg-1-1", "6.1", c.now())];
        let caller = rows.as_ptr();
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows,
        })
        .unwrap();
        let ring = s.lock_ring(&dc, part);
        let leader = ring.leader().unwrap();
        let (_, chosen) = ring
            .replica(leader)
            .log_entries(ring.applied_through(leader));
        assert_eq!(rows_of(chosen.unwrap()).as_ptr(), caller);
    }

    #[test]
    fn proxy_splits_batches_across_partitions() {
        let c = clock();
        let s = svc(&c);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![
                row("dc1", "agg-1-1", "6.0", c.now()),
                row("dc2", "agg-1-1", "6.0", c.now()),
            ],
        })
        .unwrap();
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 1);
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 1);
    }

    #[test]
    fn unroutable_entities_error() {
        let c = clock();
        let s = svc(&c);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc9", "agg-1-1", "6.0", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::UnroutableEntity { .. }));
        assert!(s.route(&EntityName::device("dc9", "x")).is_err());
        assert!(s.route(&EntityName::device("dc1", "x")).is_ok());
    }

    #[test]
    fn unroutable_rows_poison_the_whole_batch() {
        // Routability is validated before any partition commits: a batch
        // with one bad row lands nothing, even in routable partitions.
        let c = clock();
        let s = svc(&c);
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![
                    row("dc1", "agg-1-1", "6.0", c.now()),
                    row("dc9", "agg-1-1", "6.0", c.now()),
                ],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::UnroutableEntity { .. }));
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 0);
    }

    #[test]
    fn wan_partition_always_exists() {
        let c = clock();
        let s = svc(&c);
        assert!(s.partitions().contains(&DatacenterId::wan()));
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("wan", "br-1", "9.0", c.now())],
        })
        .unwrap();
    }

    #[test]
    fn bounded_stale_reads_hit_cache_within_bound() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let rd = |s: &StorageService| {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::BoundedStale,
                entity: None,
                attribute: None,
            })
            .unwrap()
        };
        let first = rd(&s);
        assert_eq!(first.len(), 1);
        // A write lands, but the cache (within the bound) still serves the
        // old snapshot.
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        let second = rd(&s);
        assert_eq!(second.len(), 1, "stale view within bound");
        let (hits, _) = s.read_stats();
        assert_eq!(hits, 1);
        // After the bound passes, the cache refreshes.
        c.advance(SimDuration::from_mins(6));
        let third = rd(&s);
        assert_eq!(third.len(), 2);
    }

    #[test]
    fn uptodate_reads_never_use_cache() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        for _ in 0..3 {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        }
        let (hits, leader_reads) = s.read_stats();
        assert_eq!(hits, 0);
        assert_eq!(leader_reads, 3);
    }

    #[test]
    fn filters_by_entity_and_attribute() {
        let c = clock();
        let s = svc(&c);
        let mut lock_row = NetworkState::new(
            EntityName::device("dc1", "a"),
            Attribute::EntityLock,
            Value::None,
            c.now(),
            AppId::new("te"),
        );
        lock_row.value = Value::None;
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), lock_row],
        })
        .unwrap();
        let rows = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "a")),
                attribute: Some(Attribute::DeviceFirmwareVersion),
            })
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].attribute, Attribute::DeviceFirmwareVersion);
    }

    #[test]
    fn receipts_round_trip() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let app = AppId::new("upgrade");
        let receipt = WriteReceipt {
            app: app.clone(),
            key: StateKey::new(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
            ),
            proposed: Value::text("7.0"),
            outcome: statesman_types::WriteOutcome::Accepted,
            decided_at: c.now(),
        };
        s.post_receipts(&dc, vec![receipt.clone()]).unwrap();
        assert_eq!(s.take_receipts(&dc, &app).unwrap(), vec![receipt]);
        assert!(s.take_receipts(&dc, &app).unwrap().is_empty());
    }

    /// Exactly once across leader changes: an ack is a logged command,
    /// so whichever replica leads next has dropped the taken receipt too
    /// (a leader-local drain let each new leader deliver it again).
    #[test]
    fn a_taken_receipt_stays_taken_across_leader_changes() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let app = AppId::new("upgrade");
        let receipt = WriteReceipt {
            app: app.clone(),
            key: StateKey::new(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
            ),
            proposed: Value::text("7.0"),
            outcome: statesman_types::WriteOutcome::Accepted,
            decided_at: c.now(),
        };
        s.post_receipts(&dc, vec![receipt.clone()]).unwrap();
        assert_eq!(s.take_receipts(&dc, &app).unwrap(), vec![receipt]);
        for replica in 0..3 {
            s.crash_replica(&dc, replica);
            assert_eq!(
                s.take_receipts(&dc, &app).unwrap(),
                vec![],
                "re-delivered after replica {replica} crashed"
            );
            s.restart_replica(&dc, replica);
        }
        assert_eq!(s.check_replica_determinism(&dc), Ok(3));
    }

    /// A page read is not a take: pending receipts stay until acked by
    /// position, and the ack drops exactly the receipts at or below it.
    #[test]
    fn pending_receipts_stay_until_acked() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let app = AppId::new("upgrade");
        let receipts: Vec<WriteReceipt> = ["agg-1-1", "agg-1-2", "agg-1-3"]
            .iter()
            .map(|dev| WriteReceipt {
                app: app.clone(),
                key: StateKey::new(
                    EntityName::device("dc1", *dev),
                    Attribute::DeviceFirmwareVersion,
                ),
                proposed: Value::text("7.0"),
                outcome: statesman_types::WriteOutcome::Accepted,
                decided_at: c.now(),
            })
            .collect();
        s.post_receipts(&dc, receipts.clone()).unwrap();
        let page = s.pending_receipts(&dc, &app, 2).unwrap();
        assert_eq!(
            page,
            vec![(1, receipts[0].clone()), (2, receipts[1].clone())]
        );
        assert_eq!(s.pending_receipts(&dc, &app, 2).unwrap(), page);
        s.ack_receipts(&dc, &app, 2).unwrap();
        s.ack_receipts(&dc, &app, 2).unwrap();
        assert_eq!(
            s.pending_receipts(&dc, &app, 2).unwrap(),
            vec![(3, receipts[2].clone())]
        );
        assert_eq!(
            s.take_receipts(&dc, &app).unwrap(),
            vec![receipts[2].clone()]
        );
        assert!(s.pending_receipts(&dc, &app, 2).unwrap().is_empty());
    }

    #[test]
    fn malformed_rows_rejected() {
        let c = clock();
        let s = svc(&c);
        let bad = NetworkState::new(
            EntityName::link("dc1", "a", "b"),
            Attribute::DeviceFirmwareVersion, // device attr on a link
            Value::text("x"),
            c.now(),
            AppId::monitor(),
        );
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![bad],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn survives_replica_crash() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.crash_replica(&dc, 0);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_len(&dc, &Pool::Observed), 1);
        s.restart_replica(&dc, 0);
    }

    #[test]
    fn offline_partition_fails_fast_with_retryable_error() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        assert!(!s.partition_available(&dc));
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", "a", "1", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        assert!(err.is_retryable(), "partition outage must be retryable");
        // The other partition is unaffected.
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc2", "a", "1", c.now())],
        })
        .unwrap();

        // Back online: the same write now lands.
        s.set_partition_available(&dc, true);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_len(&dc, &Pool::Observed), 1);
    }

    #[test]
    fn multi_partition_failure_commits_healthy_partitions_and_names_all_failed() {
        // A batch spanning three partitions with two of them dark: the
        // healthy partition's sub-batch lands (sub-batches are
        // independent commits, not a transaction) and the error
        // aggregates *both* failed partitions, not just the sorted-first.
        // `write`, `write_bulk` and `delete` share one dispatcher, so all
        // three must behave the same way.
        type Op = fn(&StorageService, Vec<NetworkState>) -> StateResult<()>;
        let write: Op = |s, rows| {
            s.write(WriteRequest {
                pool: Pool::Observed,
                rows,
            })
        };
        let write_bulk: Op = |s, rows| {
            s.write_bulk(WriteRequest {
                pool: Pool::Observed,
                rows,
            })
            .map(|_| ())
        };
        let delete: Op = |s, rows| s.delete(Pool::Observed, rows.iter().map(|r| r.key()).collect());
        // Writes add new devices; deletes remove the seeded ones. `step`
        // is what one landed sub-batch does to a partition's row count.
        for (name, op, devs, step) in [
            ("write", write, ["n1", "n2"], 1),
            ("write_bulk", write_bulk, ["n1", "n2"], 1),
            ("delete", delete, ["d1", "d2"], -1),
        ] {
            let c = clock();
            let s = svc(&c); // dc1, dc2, wan
            let batch = |dev: &str, dcs: &[&str]| -> Vec<NetworkState> {
                dcs.iter().map(|dc| row(dc, dev, "1", c.now())).collect()
            };
            for dev in ["d1", "d2"] {
                write(&s, batch(dev, &["dc1", "dc2", "wan"])).unwrap();
            }
            let len = |dc: &str| s.pool_len(&DatacenterId::new(dc), &Pool::Observed) as i64;

            s.set_partition_available(&DatacenterId::new("dc1"), false);
            s.set_partition_available(&DatacenterId::wan(), false);
            let err = op(&s, batch(devs[0], &["dc1", "dc2", "wan"])).unwrap_err();
            assert_eq!(len("dc2"), 2 + step, "{name}");
            assert_eq!(len("dc1"), 2, "{name}");
            match &err {
                StateError::StorageUnavailable { partition, reason } => {
                    assert!(partition.contains("dc1"), "{name}: no dc1 in {partition}");
                    assert!(partition.contains("wan"), "{name}: no wan in {partition}");
                    assert!(reason.contains("dc1") && reason.contains("wan"), "{name}");
                }
                other => panic!("{name}: expected aggregate StorageUnavailable, got {other:?}"),
            }
            assert!(err.is_retryable(), "{name}");

            // Exactly one failed partition surfaces its own typed error.
            s.set_partition_available(&DatacenterId::wan(), true);
            let err = op(&s, batch(devs[1], &["dc1", "dc2"])).unwrap_err();
            assert!(
                matches!(&err, StateError::StorageUnavailable { partition, .. } if partition == "dc1"),
                "{name}: {err:?}"
            );
            assert_eq!(len("dc2"), 2 + 2 * step, "{name}");
        }
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let c = clock();
        let cfg = StorageConfig {
            retry: statesman_types::RetryPolicy {
                max_attempts: 3,
                base_backoff: SimDuration::from_millis(100),
                max_backoff: SimDuration::from_secs(1),
                jitter_frac: 0.5,
            },
            ..Default::default()
        };
        let s = StorageService::new([DatacenterId::new("dc1")], c.clone(), cfg.clone());
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        let before = c.now();
        let err = s
            .write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", "a", "1", c.now())],
            })
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        let (retries, exhausted) = s.retry_stats();
        assert_eq!(retries, 2, "max_attempts 3 = 2 retries");
        assert_eq!(exhausted, 1);
        // Backoff consumed simulated time, but no more than the policy's
        // provable worst case.
        let spent = c.now().saturating_since(before);
        assert!(spent > SimDuration::ZERO, "backoff advances sim time");
        assert!(
            spent <= cfg.retry.worst_case_total_backoff(),
            "{spent} exceeds bound {}",
            cfg.retry.worst_case_total_backoff()
        );
    }

    #[test]
    fn bounded_stale_reads_survive_partition_outage_within_bound() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let rd = |fresh: Freshness| {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: fresh,
                entity: None,
                attribute: None,
            })
        };
        // Warm the cache, then take the partition down.
        assert_eq!(rd(Freshness::BoundedStale).unwrap().len(), 1);
        s.set_partition_available(&dc, false);
        // Leader reads fail fast; stale reads ride the cache.
        assert!(rd(Freshness::UpToDate).is_err());
        assert_eq!(rd(Freshness::BoundedStale).unwrap().len(), 1);
        // Past the staleness bound the cache expires and the outage shows.
        c.advance(SimDuration::from_mins(6));
        assert!(rd(Freshness::BoundedStale).is_err());
    }

    #[test]
    fn delete_clears_rows() {
        let c = clock();
        let s = svc(&c);
        let r = row("dc1", "a", "1", c.now());
        let key = r.key();
        s.write(WriteRequest {
            pool: Pool::Target,
            rows: vec![r],
        })
        .unwrap();
        s.delete(Pool::Target, vec![key.clone()]).unwrap();
        assert_eq!(s.read_row(&Pool::Target, &key).unwrap(), None);
    }

    #[test]
    fn attached_registry_tracks_operations() {
        let c = clock();
        let s = svc(&c);
        let registry = Registry::new();
        s.attach_obs(&registry);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        s.read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness: Freshness::BoundedStale,
            entity: None,
            attribute: None,
        })
        .unwrap();
        // Second bounded-stale read hits the cache.
        s.read(ReadRequest {
            datacenter: dc.clone(),
            pool: Pool::Observed,
            freshness: Freshness::BoundedStale,
            entity: None,
            attribute: None,
        })
        .unwrap();
        s.set_partition_available(&dc, false);
        // Write against the offline partition burns the retry budget.
        let _ = s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "c", "1", c.now())],
        });
        assert_eq!(registry.counter_value("storage_writes_total"), Some(2));
        assert_eq!(
            registry.counter_value("storage_rows_written_total"),
            Some(3)
        );
        assert_eq!(registry.counter_value("storage_reads_total"), Some(2));
        assert_eq!(registry.counter_value("storage_cache_hits_total"), Some(1));
        let (retries, exhausted) = s.retry_stats();
        assert_eq!(
            registry.counter_value("storage_retries_total"),
            Some(retries),
            "registry mirrors the internal retry counter"
        );
        assert_eq!(
            registry.counter_value("storage_retries_exhausted_total"),
            Some(exhausted)
        );
        assert_eq!(
            registry.gauge("storage_partitions_offline").get(),
            1,
            "offline gauge follows fault injection"
        );
        s.set_partition_available(&dc, true);
        assert_eq!(registry.gauge("storage_partitions_offline").get(), 0);
    }

    #[test]
    fn contention_metrics_cover_every_partition() {
        let c = clock();
        let s = svc(&c);
        let registry = Registry::new();
        s.attach_obs(&registry);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![
                row("dc1", "a", "1", c.now()),
                row("dc2", "a", "1", c.now()),
                row("wan", "br-1", "1", c.now()),
            ],
        })
        .unwrap();
        // Every partition got a commit, so every labeled lock-wait series
        // has at least one observation; the inflight gauges are back to 0.
        for dc in ["dc1", "dc2", "wan"] {
            let labels = [("partition", dc)];
            let h = registry.histogram_with("storage_lock_wait_us", &labels, LOCK_WAIT_BUCKETS_US);
            assert!(h.count() >= 1, "{dc} recorded no lock acquisitions");
            let g = registry.gauge_with("storage_partition_inflight", &labels);
            assert_eq!(g.get(), 0, "{dc} leaked an inflight op");
        }
        // The aggregate accessor matches the per-partition breakdown.
        let total: u64 = s.lock_wait_by_partition().iter().map(|(_, us)| us).sum();
        assert_eq!(s.lock_wait_stats(), total);
    }

    #[test]
    fn concurrent_partition_writers_do_not_interfere() {
        // Hammer disjoint partitions from many threads through one shared
        // service: every write lands exactly once, nothing deadlocks, and
        // the per-partition counts come out exact.
        let c = clock();
        let s = svc(&c);
        std::thread::scope(|scope| {
            for (t, dc) in ["dc1", "dc2", "wan"].iter().enumerate() {
                let s = s.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..20 {
                        s.write(WriteRequest {
                            pool: Pool::Observed,
                            rows: vec![row(dc, &format!("dev-{t}-{i}"), "1", c.now())],
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.pool_len(&DatacenterId::new("dc1"), &Pool::Observed), 20);
        assert_eq!(s.pool_len(&DatacenterId::new("dc2"), &Pool::Observed), 20);
        assert_eq!(s.pool_len(&DatacenterId::wan(), &Pool::Observed), 20);
    }

    #[test]
    fn write_bulk_seeds_partitions_and_reports_stages() {
        let c = clock();
        let s = svc(&c);
        let rows: Vec<NetworkState> = (0..200)
            .flat_map(|i| {
                [
                    row("dc1", &format!("bulk-d{i}"), "1", c.now()),
                    row("dc2", &format!("bulk-d{i}"), "1", c.now()),
                ]
            })
            .collect();
        let stats = s
            .write_bulk(WriteRequest {
                pool: Pool::Observed,
                rows: rows.clone(),
            })
            .unwrap();
        assert_eq!(stats.rows, 400);
        assert_eq!(stats.partitions, 2);
        assert!(stats.wall_ms > 0.0);
        // Reads see exactly the seeded rows.
        for dc in ["dc1", "dc2"] {
            let got = s
                .read(ReadRequest {
                    datacenter: DatacenterId::new(dc),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            assert_eq!(got.len(), 200, "{dc}");
        }
        // Incremental reads from before the seed fall back to a full
        // snapshot; writes after it are served as deltas.
        let dc1 = DatacenterId::new("dc1");
        let seeded = s.pool_watermark(&dc1, &Pool::Observed).unwrap();
        let d = s
            .read_since(&dc1, &Pool::Observed, Version::GENESIS)
            .unwrap();
        assert!(d.snapshot);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "bulk-d0", "2", c.now())],
        })
        .unwrap();
        let d = s.read_since(&dc1, &Pool::Observed, seeded).unwrap();
        assert!(!d.snapshot);
        assert_eq!(d.upserts.len(), 1);
    }

    #[test]
    fn read_since_returns_incremental_deltas() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let wm0 = s.pool_watermark(&dc, &Pool::Observed).unwrap();
        assert!(wm0 > Version::GENESIS);
        // Nothing changed: empty delta at the same watermark.
        let quiet = s.read_since(&dc, &Pool::Observed, wm0).unwrap();
        assert!(quiet.is_empty() && !quiet.snapshot);
        assert_eq!(quiet.watermark, wm0);
        // One new row and one delete show up as exactly that.
        let r = row("dc1", "b", "2", c.now());
        let a_key = row("dc1", "a", "1", c.now()).key();
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![r.clone()],
        })
        .unwrap();
        s.delete(Pool::Observed, vec![a_key.clone()]).unwrap();
        let delta = s.read_since(&dc, &Pool::Observed, wm0).unwrap();
        assert!(!delta.snapshot);
        assert_eq!(delta.upserts.len(), 1);
        assert_eq!(delta.upserts[0].key(), r.key());
        assert_eq!(delta.deletes, vec![a_key]);
        assert!(delta.watermark > wm0);
        let (delta_reads, full_fallbacks, _) = s.delta_stats();
        assert_eq!((delta_reads, full_fallbacks), (2, 0));
    }

    #[test]
    fn read_since_from_genesis_of_fresh_pool_is_full_snapshotless_delta() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        // GENESIS is at the floor of an uncompacted index, so even a
        // cold start is served incrementally.
        let delta = s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap();
        assert!(!delta.snapshot);
        assert_eq!(delta.upserts.len(), 2);
    }

    #[test]
    fn suppressed_writes_move_no_watermark_and_are_counted() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let wm = s.pool_watermark(&dc, &Pool::Observed).unwrap();
        // Same value, same writer, later timestamp: a complete no-op.
        c.advance(SimDuration::from_secs(30));
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.pool_watermark(&dc, &Pool::Observed).unwrap(), wm);
        let (_, _, suppressed) = s.delta_stats();
        assert_eq!(suppressed, 1);
        assert_eq!(
            registry.counter_value("storage_writes_suppressed_total"),
            Some(1)
        );
        let quiet = s.read_since(&dc, &Pool::Observed, wm).unwrap();
        assert!(quiet.is_empty());
    }

    #[test]
    fn bounded_stale_cache_refreshes_via_delta() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        let rd = || {
            s.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::BoundedStale,
                entity: None,
                attribute: None,
            })
            .unwrap()
        };
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now()), row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        assert_eq!(rd().len(), 2, "first read fills the cache in full");
        // Churn one row and delete another past the staleness bound.
        let b_key = row("dc1", "b", "1", c.now()).key();
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "2", c.now()), row("dc1", "c", "1", c.now())],
        })
        .unwrap();
        s.delete(Pool::Observed, vec![b_key]).unwrap();
        c.advance(SimDuration::from_mins(6));
        let rows = rd();
        assert_eq!(rows.len(), 2, "a (updated) and c; b deleted");
        let a = rows
            .iter()
            .find(|r| r.entity == EntityName::device("dc1", "a"))
            .unwrap();
        assert_eq!(a.value, Value::text("2"));
        assert_eq!(
            registry.counter_value("storage_cache_delta_refreshes_total"),
            Some(1),
            "second fill applied the changefeed to the held snapshot"
        );
    }

    #[test]
    fn filtered_uptodate_reads_do_not_copy_the_pool() {
        let c = clock();
        let s = svc(&c);
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(row("dc1", &format!("dev-{i}"), "1", c.now()));
        }
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows,
        })
        .unwrap();
        let got = s
            .read(ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "dev-7")),
                attribute: None,
            })
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].entity, EntityName::device("dc1", "dev-7"));
    }

    #[test]
    fn read_since_fails_fast_when_partition_offline() {
        let c = clock();
        let s = svc(&c);
        let dc = DatacenterId::new("dc1");
        s.set_partition_available(&dc, false);
        let err = s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
    }

    fn framed_svc(clock: &SimClock) -> StorageService {
        let mut cfg = StorageConfig::default();
        cfg.ring.durability = DurabilityMode::FramedMemory;
        cfg.ring.snapshot_every = 4;
        StorageService::new([DatacenterId::new("dc1")], clock.clone(), cfg)
    }

    #[test]
    fn mid_recovery_partition_reports_retryable_unavailability() {
        let c = clock();
        let s = framed_svc(&c);
        let dc = DatacenterId::new("dc1");
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "a", "1", c.now())],
        })
        .unwrap();
        let pre = s.partition_watermark(&dc).unwrap();
        s.begin_replica_recovery(&dc, 2);
        // Every watermark/read/commit path reports the typed retryable
        // error — the partition never serves a stale pre-crash view.
        let err = s.partition_watermark(&dc).unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        assert!(err.is_retryable());
        assert!(s
            .read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .is_err());
        assert!(s
            .read_since(&dc, &Pool::Observed, Version::GENESIS)
            .is_err());
        let summary = s.complete_replica_recovery(&dc, 2).expect("summary");
        assert_eq!(summary.partition, "dc1");
        assert_eq!(summary.replica, 2);
        assert!(s.partition_watermark(&dc).unwrap() >= pre);
        s.write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![row("dc1", "b", "1", c.now())],
        })
        .unwrap();
        assert_eq!(s.last_recovery().unwrap(), summary);
    }

    #[test]
    fn wal_counters_flow_through_attach_obs() {
        let c = clock();
        let s = framed_svc(&c);
        let dc = DatacenterId::new("dc1");
        let registry = Registry::new();
        s.attach_obs(&registry);
        for i in 0..8 {
            s.write(WriteRequest {
                pool: Pool::Observed,
                rows: vec![row("dc1", &format!("dev-{i}"), "1", c.now())],
            })
            .unwrap();
        }
        assert!(registry.counter_value("wal_appends_total").unwrap_or(0) > 0);
        assert!(registry.counter_value("wal_bytes_written").unwrap_or(0) > 0);
        assert!(
            registry
                .counter_value("snapshot_compactions_total")
                .unwrap_or(0)
                > 0,
            "snapshot_every=4 compacts within 8 commits"
        );
        // A torn tail on a killed replica is repaired on restart and shows
        // up in the truncated-records counter.
        s.begin_replica_recovery(&dc, 1);
        s.corrupt_replica_wal(&dc, 1, &WalCorruption::TornTail { bytes: 5 });
        let summary = s.complete_replica_recovery(&dc, 1).expect("summary");
        assert_eq!(summary.truncated_records, 1);
        assert!(!summary.refused);
        // The diffing happens on ring-lock release; the counter reflects
        // the repair after the next lock cycle (already happened inside
        // complete_replica_recovery).
        assert_eq!(
            registry.counter_value("recovery_truncated_records_total"),
            Some(1)
        );
        assert!(s.verify_wal_chains(&dc).is_ok());
    }
}
