//! The replicated state machine: pools of versioned `NetworkState` rows.
//!
//! Every storage partition (Paxos ring) replicates a log of
//! [`LogCommand`]s; applying the log in slot order to a [`StateMachine`]
//! yields the partition's current OS/PS/TS contents. Rows get a
//! monotonically increasing [`Version`] stamped at apply time, which the
//! checker uses to detect stale-basis proposals.

use serde::{help, Content, DeError, Deserialize, Serialize};
use statesman_types::{
    slot_registry, AppId, Attribute, Column, NetworkState, Pool, SlotId, StateDelta, StateKey,
    Version, WriteReceipt,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Default bound on the per-pool change index. Entries beyond it are
/// compacted away (oldest first), raising the pool's compaction floor;
/// `read_since` requests from before the floor fall back to a full
/// snapshot. Sized so steady-state churn (a few thousand rows per round)
/// keeps weeks of history, while a full 394K-variable resync immediately
/// compacts to the newest window instead of hoarding memory. Fabrics
/// whose per-round churn exceeds this (4M variables ≈ 164K telemetry
/// rows a round) must raise it via
/// [`ClusterConfig::change_index_capacity`](crate::ClusterConfig) or
/// every round degenerates to the snapshot fallback; entries are two
/// words each, so the memory cost of a larger window is modest and only
/// materializes under real churn.
pub const CHANGE_INDEX_CAPACITY: usize = 65_536;

/// A command in the replicated log.
///
/// Row batches ([`WriteBatch`] and [`BulkBatch`]) hold their rows behind
/// an `Arc`. A committed command is copied many times on its way through
/// a ring: the submit retry clone, every `Accept` and `Commit` message,
/// the leader's in-flight entry, each replica's accepted and chosen log,
/// the WAL's accept and commit records and a snapshot's tail. Shared,
/// each of those copies is a refcount bump, and each replica copies a
/// row once, when it stamps the row into its column. The wire, WAL and
/// snapshot bytes are those of a plain list of rows: serialization is
/// transparent over the pointer.
///
/// [`WriteBatch`]: LogCommand::WriteBatch
/// [`BulkBatch`]: LogCommand::BulkBatch
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogCommand {
    /// Write (upsert) a batch of rows into one pool. Batching is the wire
    /// reality of Table 3 ("Body is list of NetworkState objects in JSON")
    /// and keeps large monitor rounds to one consensus commit.
    WriteBatch {
        /// Destination pool.
        pool: Pool,
        /// The rows to upsert, shared (see [`LogCommand`]).
        rows: Arc<Vec<NetworkState>>,
    },
    /// Delete a batch of keys from one pool (e.g. clearing an application's
    /// PS after the checker consumed it).
    DeleteBatch {
        /// Target pool.
        pool: Pool,
        /// Keys to remove.
        keys: Vec<StateKey>,
    },
    /// Bootstrap bulk ingest: upsert a large batch with batched slot
    /// minting, pre-sized column storage, and a **single** change-index
    /// watermark bump instead of one changefeed entry per row. Applies
    /// the fast path only when the destination pool is empty (the seed
    /// case); over a non-empty pool it degrades to [`WriteBatch`]
    /// semantics, so replaying a recovered `BulkBatch` over
    /// snapshot-restored rows stays deterministic.
    ///
    /// Incremental readers from before the bulk load observe a raised
    /// compaction floor and fall back to a full snapshot — exactly what
    /// a seed-sized `WriteBatch` would force anyway by blowing through
    /// the change-index capacity. That difference in what `read_since`
    /// answers is why the two stay separate commands.
    ///
    /// [`WriteBatch`]: LogCommand::WriteBatch
    BulkBatch {
        /// Destination pool.
        pool: Pool,
        /// The rows to upsert, shared (see [`LogCommand`]).
        rows: Arc<Vec<NetworkState>>,
    },
    /// Record checker receipts for an application to poll. Each receipt
    /// joins its application's receipt queue at the next position.
    PostReceipts {
        /// The receipts.
        receipts: Vec<WriteReceipt>,
    },
    /// A no-op used by new leaders to commit a barrier slot (standard
    /// multi-Paxos trick to learn the commit frontier).
    Noop,
    /// A client command wrapped with a ring-unique request id. The state
    /// machine applies each id at most once, which makes leader-failover
    /// re-submission safe: if the original proposal is *also* recovered
    /// and chosen by a later leader, the duplicate apply is skipped
    /// (exactly-once above at-least-once, the textbook construction).
    Tagged {
        /// Ring-unique request id.
        id: u64,
        /// The wrapped command.
        inner: Box<LogCommand>,
    },
    /// An application has received its receipts up to a position: drop
    /// every receipt of `app` at or below `through`. Idempotent — a
    /// repeated or older ack drops nothing more — so a client may resend
    /// a cursor. The last variant, so earlier commands keep their bytes.
    AckReceipts {
        /// The application whose queue is acknowledged.
        app: AppId,
        /// The highest position acknowledged.
        through: u64,
    },
}

impl LogCommand {
    /// Rough payload size (row count) for bus-load accounting.
    pub fn weight(&self) -> usize {
        match self {
            LogCommand::WriteBatch { rows, .. } => rows.len().max(1),
            LogCommand::BulkBatch { rows, .. } => rows.len().max(1),
            LogCommand::DeleteBatch { keys, .. } => keys.len().max(1),
            LogCommand::PostReceipts { receipts } => receipts.len().max(1),
            LogCommand::Noop => 1,
            LogCommand::Tagged { inner, .. } => inner.weight(),
            LogCommand::AckReceipts { .. } => 1,
        }
    }
}

/// One pool's bounded changefeed: (version, slot id) pairs in commit
/// order, plus the compaction floor and the pool watermark.
#[derive(Debug, Clone, Default)]
struct ChangeIndex {
    /// Effective changes, oldest first. Compact [`SlotId`]s only —
    /// `read_since` materializes current row values straight from the
    /// column at read time, and tombstones resolve slot → var → string
    /// key at the wire edge, so the index stays a word and a half per
    /// entry no matter how large keys or rows are.
    entries: VecDeque<(u64, SlotId)>,
    /// Version of the newest compacted-away entry; requests at or below
    /// it cannot be served incrementally.
    floor: u64,
    /// Version of the newest effective change to this pool.
    watermark: u64,
}

impl ChangeIndex {
    fn record(&mut self, version: u64, key: SlotId, capacity: usize) {
        if self.entries.len() >= capacity {
            if let Some((v, _)) = self.entries.pop_front() {
                self.floor = v;
            }
        }
        self.entries.push_back((version, key));
        self.watermark = version;
    }
}

/// One application's receipts, in the order the log posted them. Every
/// receipt ever posted for the application has a position, counting
/// from 1: the queue holds the receipts after `acked`, so `pending[i]`
/// sits at position `acked + 1 + i`. Positions are stamped at apply and
/// never reused, and `acked` only grows, so an application that has
/// read up to a position can acknowledge it by number, on any replica
/// and across any restart. A deque, so acknowledging a page of a long
/// backlog costs the page, not the backlog; its image is a plain list.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ReceiptQueue {
    acked: u64,
    pending: VecDeque<WriteReceipt>,
}

impl Serialize for ReceiptQueue {
    fn to_content(&self) -> Content {
        let pending = self.pending.iter().map(Serialize::to_content).collect();
        Content::Map(vec![
            (Content::Str("acked".into()), self.acked.to_content()),
            (Content::Str("pending".into()), Content::Seq(pending)),
        ])
    }
}

impl Deserialize for ReceiptQueue {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let pending = |c| Vec::<WriteReceipt>::from_content(c).map(VecDeque::from);
        match content {
            // An image written before acks went through the log holds a
            // bare list: its receipts keep loading, none acknowledged.
            Content::Seq(_) => Ok(ReceiptQueue {
                acked: 0,
                pending: pending(content)?,
            }),
            Content::Map(fields) => {
                let field = |name: &str| {
                    help::map_get(fields, name)
                        .ok_or_else(|| help::err(format!("receipt queue without `{name}`")))
                };
                Ok(ReceiptQueue {
                    acked: u64::from_content(field("acked")?)?,
                    pending: pending(field("pending")?)?,
                })
            }
            other => Err(help::err(format!(
                "expected a receipt queue, got {other:?}"
            ))),
        }
    }
}

impl ReceiptQueue {
    /// Up to `limit` pending receipts, oldest first, with their positions.
    pub(crate) fn pending(&self, limit: usize) -> impl Iterator<Item = (u64, &WriteReceipt)> {
        (self.acked + 1..).zip(self.pending.iter().take(limit))
    }

    /// How many pending receipts an ack through `through` would drop.
    pub(crate) fn ackable(&self, through: u64) -> usize {
        (through.saturating_sub(self.acked) as usize).min(self.pending.len())
    }

    fn ack(&mut self, through: u64) -> usize {
        let n = self.ackable(through);
        self.pending.drain(..n);
        self.acked += n as u64;
        n
    }
}

/// The materialized store one replica derives from the committed log.
///
/// Pools are columnar [`Column`]s over the process-wide slot space: every
/// upsert, delete, and point read resolves one dense slot index instead
/// of hashing entity strings, row payloads sit contiguously in each
/// column's arena, and the rows themselves still carry their names — so
/// everything wire-visible (reads, deltas, receipts) is produced without
/// consulting the interner, except delta *tombstones*, whose keys are
/// resolved back to strings at the read edge.
#[derive(Debug, Clone)]
pub struct StateMachine {
    pools: HashMap<Pool, Column>,
    receipts: HashMap<AppId, ReceiptQueue>,
    next_version: u64,
    applied: u64,
    /// Request ids already applied (dedupe for failover re-submission).
    applied_ids: std::collections::HashSet<u64>,
    /// Per-pool bounded changefeeds (deterministic replica state: derived
    /// purely from the committed log, like the pools themselves).
    changes: HashMap<Pool, ChangeIndex>,
    /// Value-identical writes suppressed so far (cumulative).
    suppressed: u64,
    /// Per-pool change-index bound (runtime sizing, not logical state —
    /// snapshots do not carry it; recovery paths must re-apply it).
    change_index_cap: usize,
    /// Cumulative bulk-ingest stage timings (runtime observability, not
    /// logical state — excluded from snapshots and replica equality).
    bulk: BulkStats,
}

/// Cumulative stage timings of every [`LogCommand::BulkBatch`] this
/// machine has applied: wall time minting slots (including entity
/// interning via `var_id`), filling column arenas, and maintaining the
/// change index. Runtime observability only — never part of snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BulkStats {
    /// Rows bulk-ingested so far.
    pub rows: u64,
    /// Nanoseconds spent in batched slot minting (the intern stage).
    pub intern_nanos: u64,
    /// Nanoseconds spent stamping versions and filling the column arena.
    pub fill_nanos: u64,
    /// Nanoseconds spent on change-index/watermark maintenance.
    pub index_nanos: u64,
}

impl BulkStats {
    /// Field-wise difference against an earlier reading (saturating).
    pub fn since(&self, earlier: &BulkStats) -> BulkStats {
        BulkStats {
            rows: self.rows.saturating_sub(earlier.rows),
            intern_nanos: self.intern_nanos.saturating_sub(earlier.intern_nanos),
            fill_nanos: self.fill_nanos.saturating_sub(earlier.fill_nanos),
            index_nanos: self.index_nanos.saturating_sub(earlier.index_nanos),
        }
    }
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine {
            pools: HashMap::new(),
            receipts: HashMap::new(),
            next_version: 0,
            applied: 0,
            applied_ids: std::collections::HashSet::new(),
            changes: HashMap::new(),
            suppressed: 0,
            change_index_cap: CHANGE_INDEX_CAPACITY,
            bulk: BulkStats::default(),
        }
    }
}

impl StateMachine {
    /// Upsert `rows` into `pool` with version stamping, value-identical
    /// suppression, and changefeed recording — the
    /// [`LogCommand::WriteBatch`] semantics, shared with the
    /// non-empty-pool fallback of [`LogCommand::BulkBatch`]. The rows'
    /// slots are resolved for the whole batch in one pass first.
    fn apply_write_rows(&mut self, pool: &Pool, rows: &[NetworkState]) -> usize {
        let slots = slot_registry().slots_of_rows(pool, rows);
        let p = self
            .pools
            .entry(pool.clone())
            .or_insert_with(|| Column::new(pool.clone()));
        let idx = self.changes.entry(pool.clone()).or_default();
        let mut effective = 0;
        for (slot, row) in slots.into_iter().zip(rows) {
            // Value-identical re-writes are complete no-ops: no
            // version bump, no watermark move, no index entry, and
            // the stored row keeps its original timestamp. This is
            // what lets delta-maintained views stay bit-equal to
            // full reads while quiescent rounds write nothing new.
            if let Some(existing) = p.get_slot(slot) {
                if existing.value == row.value && existing.writer == row.writer {
                    self.suppressed += 1;
                    continue;
                }
            }
            self.next_version += 1;
            let mut stamped = row.clone();
            stamped.version = Version(self.next_version);
            p.upsert_at(slot, stamped);
            idx.record(self.next_version, slot, self.change_index_cap);
            effective += 1;
        }
        effective
    }

    /// An empty machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the per-pool change-index bound (see
    /// [`CHANGE_INDEX_CAPACITY`] for the default and sizing guidance).
    /// A shrunk bound takes effect on subsequent writes.
    pub fn set_change_index_capacity(&mut self, capacity: usize) {
        self.change_index_cap = capacity.max(1);
    }

    /// Apply one committed command. Returns the number of rows touched.
    pub fn apply(&mut self, cmd: &LogCommand) -> usize {
        self.applied += 1;
        match cmd {
            LogCommand::WriteBatch { pool, rows } => self.apply_write_rows(pool, rows),
            LogCommand::BulkBatch { pool, rows } => {
                if self.pools.get(pool).map(|p| !p.is_empty()).unwrap_or(false) {
                    // Replay safety: over a non-empty pool (e.g. a log
                    // tail replayed atop a snapshot that post-dates the
                    // original bulk apply on another replica's timeline),
                    // fall back to ordinary per-row semantics.
                    return self.apply_write_rows(pool, rows);
                }
                let minted = Instant::now();
                let slots = slot_registry().slots_of_rows(pool, rows);
                let filled = Instant::now();
                let p = self
                    .pools
                    .entry(pool.clone())
                    .or_insert_with(|| Column::new(pool.clone()));
                p.reserve(slot_registry().pool_slots(pool), rows.len());
                for (slot, row) in slots.iter().zip(rows.iter()) {
                    self.next_version += 1;
                    let mut stamped = row.clone();
                    stamped.version = Version(self.next_version);
                    p.upsert_at(*slot, stamped);
                }
                let indexed = Instant::now();
                // One watermark bump for the whole batch. Raising the
                // floor with it declares the pre-seed history unservable,
                // which is what per-row recording would have converged to
                // after compaction at seed scale.
                let idx = self.changes.entry(pool.clone()).or_default();
                idx.entries.clear();
                idx.floor = self.next_version;
                idx.watermark = self.next_version;
                let done = Instant::now();
                self.bulk.rows += rows.len() as u64;
                self.bulk.intern_nanos += (filled - minted).as_nanos() as u64;
                self.bulk.fill_nanos += (indexed - filled).as_nanos() as u64;
                self.bulk.index_nanos += (done - indexed).as_nanos() as u64;
                rows.len()
            }
            LogCommand::DeleteBatch { pool, keys } => {
                let mut removed = 0;
                if let Some(p) = self.pools.get_mut(pool) {
                    let idx = self.changes.entry(pool.clone()).or_default();
                    for k in keys {
                        let Some(slot) = slot_registry().lookup(pool, k.var_id()) else {
                            continue;
                        };
                        if p.remove_slot(slot).is_some() {
                            self.next_version += 1;
                            idx.record(self.next_version, slot, self.change_index_cap);
                            removed += 1;
                        }
                    }
                }
                removed
            }
            LogCommand::PostReceipts { receipts } => {
                for r in receipts {
                    self.receipts
                        .entry(r.app.clone())
                        .or_default()
                        .pending
                        .push_back(r.clone());
                }
                receipts.len()
            }
            LogCommand::AckReceipts { app, through } => self
                .receipts
                .get_mut(app)
                .map_or(0, |queue| queue.ack(*through)),
            LogCommand::Noop => 0,
            LogCommand::Tagged { id, inner } => {
                if self.applied_ids.insert(*id) {
                    // Inner apply; undo the outer tick so `applied`
                    // counts logical commands once.
                    self.applied -= 1;
                    self.apply(inner)
                } else {
                    0
                }
            }
        }
    }

    /// Read one row.
    pub fn get(&self, pool: &Pool, key: &StateKey) -> Option<&NetworkState> {
        self.pools.get(pool)?.get_var(key.var_id())
    }

    /// The rows of a pool whose attribute `keep` accepts, in slot order.
    pub fn pool_rows(&self, pool: &Pool, keep: impl Fn(Attribute) -> bool) -> Vec<NetworkState> {
        self.pools
            .get(pool)
            .map(|p| p.rows().filter(|r| keep(r.attribute)).cloned().collect())
            .unwrap_or_default()
    }

    /// One pool's column, if the pool has ever been written: what
    /// filtered reads probe ([`Column::entity_rows`]) and what the
    /// bounded-stale cache clones.
    pub fn column(&self, pool: &Pool) -> Option<&Column> {
        self.pools.get(pool)
    }

    /// Number of rows in a pool.
    pub fn pool_len(&self, pool: &Pool) -> usize {
        self.pools.get(pool).map(|p| p.len()).unwrap_or(0)
    }

    /// Total live rows across every pool. O(pools): columns track their
    /// live count.
    pub fn total_rows(&self) -> usize {
        self.pools.values().map(|p| p.len()).sum()
    }

    /// Live row count per pool, sorted by wire name. O(pools), not
    /// O(rows): columns track their live count.
    pub fn pool_stats(&self) -> Vec<(Pool, u64)> {
        let mut v: Vec<(Pool, u64)> = self
            .pools
            .iter()
            .map(|(p, col)| (p.clone(), col.len() as u64))
            .collect();
        v.sort_by_key(|(p, _)| p.wire_name());
        v
    }

    /// Approximate resident bytes of all columns (slot vectors, bitmaps,
    /// arena reservations, live payloads) and the live rows they hold —
    /// the source of the `state_bytes_per_var` gauge.
    pub fn state_bytes(&self) -> (u64, u64) {
        let bytes: usize = self.pools.values().map(|c| c.approx_bytes()).sum();
        let rows: usize = self.pools.values().map(|c| c.len()).sum();
        (bytes as u64, rows as u64)
    }

    /// All non-empty pools, sorted by wire name (stable enumeration for
    /// the checker's PS discovery).
    pub fn pools(&self) -> Vec<Pool> {
        let mut v: Vec<Pool> = self
            .pools
            .iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(p, _)| p.clone())
            .collect();
        v.sort_by_key(|p| p.wire_name());
        v
    }

    /// One application's receipt queue (`None` if nothing was ever
    /// posted for it).
    pub(crate) fn receipts(&self, app: &AppId) -> Option<&ReceiptQueue> {
        self.receipts.get(app)
    }

    /// Commands applied so far (monotone; equality across replicas after
    /// the same log prefix is the replication invariant tests assert).
    pub fn applied_count(&self) -> u64 {
        self.applied
    }

    /// The highest version stamped so far.
    pub fn current_version(&self) -> Version {
        Version(self.next_version)
    }

    /// The version of the newest effective change to one pool (GENESIS if
    /// the pool has never changed).
    pub fn pool_watermark(&self, pool: &Pool) -> Version {
        Version(self.changes.get(pool).map(|c| c.watermark).unwrap_or(0))
    }

    /// Value-identical writes suppressed so far (cumulative).
    pub fn suppressed_count(&self) -> u64 {
        self.suppressed
    }

    /// Cumulative bulk-ingest stage timings (see [`BulkStats`]).
    pub fn bulk_stats(&self) -> BulkStats {
        self.bulk
    }

    /// Everything that changed in one pool after `since`, or `None` when
    /// the change index cannot serve the request — `since` predates the
    /// compaction floor, or is ahead of this replica's watermark (a
    /// behind follower). Callers fall back to a full snapshot.
    ///
    /// Upserts carry the row's *current* value (keys touched several
    /// times appear once); keys no longer present are tombstone deletes.
    /// Only variables whose attribute `keep` accepts are listed, either
    /// way; the watermark is the pool's whatever `keep` drops.
    pub fn changes_since(
        &self,
        pool: &Pool,
        since: Version,
        keep: impl Fn(Attribute) -> bool,
    ) -> Option<StateDelta> {
        let idx = self.changes.get(pool);
        let (floor, watermark) = idx.map(|c| (c.floor, c.watermark)).unwrap_or((0, 0));
        if since.0 < floor || since.0 > watermark {
            return None;
        }
        if since.0 == watermark {
            return Some(StateDelta::incremental(vec![], vec![], Version(watermark)));
        }
        let idx = idx.expect("watermark > since >= 0 implies a change index");
        let rows = self.pools.get(pool);
        let mut seen: HashSet<SlotId> = HashSet::new();
        let mut upserts = Vec::new();
        let mut deletes = Vec::new();
        // Newest-first so the dedupe keeps each key's latest disposition.
        for (v, slot) in idx.entries.iter().rev() {
            if *v <= since.0 {
                break;
            }
            match rows.and_then(|p| p.get_slot(*slot)) {
                Some(row) => {
                    if keep(row.attribute) && seen.insert(*slot) {
                        upserts.push(row.clone());
                    }
                }
                // Tombstones are the one place the read edge consults the
                // interner: the deleted row is gone, so its string key is
                // rebuilt from the slot's variable (counted as a key
                // resolution).
                None => {
                    if seen.insert(*slot) {
                        let var = slot_registry().var_of(pool, *slot);
                        if keep(var.attribute()) {
                            deletes.push(var.resolve_key());
                        }
                    }
                }
            }
        }
        Some(StateDelta::incremental(
            upserts,
            deletes,
            Version(watermark),
        ))
    }

    /// A canonical, serializable image of this machine for durable
    /// snapshots and recovery-equivalence checks. Hash-map contents are
    /// emitted in a deterministic order (pools by wire name, rows by key,
    /// receipt queues, with their ack positions, by application id) and
    /// interned
    /// [`VarId`](statesman_types::VarId)s are resolved
    /// back to string keys, so two machines with identical logical
    /// contents produce bit-identical snapshots — including across
    /// processes with differently populated interners.
    pub fn to_snapshot(&self) -> MachineSnapshot {
        let mut pools: Vec<(Pool, Vec<NetworkState>)> = self
            .pools
            .iter()
            .map(|(p, col)| {
                let mut rows: Vec<NetworkState> = col.rows().cloned().collect();
                rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
                (p.clone(), rows)
            })
            .collect();
        pools.sort_by_key(|(p, _)| p.wire_name());
        let mut receipts: Vec<(AppId, ReceiptQueue)> = self
            .receipts
            .iter()
            .map(|(a, r)| (a.clone(), r.clone()))
            .collect();
        receipts.sort_by(|(a, _), (b, _)| a.0.cmp(&b.0));
        let mut applied_ids: Vec<u64> = self.applied_ids.iter().copied().collect();
        applied_ids.sort_unstable();
        let mut changes: Vec<(Pool, ChangeIndexSnapshot)> = self
            .changes
            .iter()
            .map(|(p, idx)| {
                (
                    p.clone(),
                    ChangeIndexSnapshot {
                        entries: idx
                            .entries
                            .iter()
                            .map(|(v, slot)| (*v, slot_registry().var_of(p, *slot).resolve_key()))
                            .collect(),
                        floor: idx.floor,
                        watermark: idx.watermark,
                    },
                )
            })
            .collect();
        changes.sort_by_key(|(p, _)| p.wire_name());
        MachineSnapshot {
            pools,
            receipts,
            next_version: self.next_version,
            applied: self.applied,
            applied_ids,
            changes,
            suppressed: self.suppressed,
        }
    }

    /// Rebuild a machine from a [`MachineSnapshot`] (the recovery path).
    /// String keys are re-interned into
    /// [`VarId`](statesman_types::VarId)s on load.
    pub fn from_snapshot(snap: &MachineSnapshot) -> StateMachine {
        let pools = snap
            .pools
            .iter()
            .map(|(p, rows)| {
                let mut col = Column::new(p.clone());
                for r in rows {
                    col.upsert(r.clone());
                }
                (p.clone(), col)
            })
            .collect();
        let receipts = snap.receipts.iter().cloned().collect();
        let changes = snap
            .changes
            .iter()
            .map(|(p, idx)| {
                (
                    p.clone(),
                    ChangeIndex {
                        entries: idx
                            .entries
                            .iter()
                            .map(|(v, key)| (*v, slot_registry().slot_of(p, key.var_id())))
                            .collect(),
                        floor: idx.floor,
                        watermark: idx.watermark,
                    },
                )
            })
            .collect();
        StateMachine {
            pools,
            receipts,
            next_version: snap.next_version,
            applied: snap.applied,
            applied_ids: snap.applied_ids.iter().copied().collect(),
            changes,
            suppressed: snap.suppressed,
            change_index_cap: CHANGE_INDEX_CAPACITY,
            bulk: BulkStats::default(),
        }
    }
}

/// Serializable image of one pool's change index (see
/// [`StateMachine::to_snapshot`]). Interned ids are resolved to string
/// keys so the image is self-contained across process restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChangeIndexSnapshot {
    entries: Vec<(u64, StateKey)>,
    floor: u64,
    watermark: u64,
}

/// A canonical, serializable image of a [`StateMachine`].
///
/// Produced by [`StateMachine::to_snapshot`]; all collections are in a
/// deterministic order, so `PartialEq` on two images is a bit-equality
/// check of the logical machine state (the recovery-equivalence tests
/// rely on this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    pools: Vec<(Pool, Vec<NetworkState>)>,
    receipts: Vec<(AppId, ReceiptQueue)>,
    next_version: u64,
    applied: u64,
    applied_ids: Vec<u64>,
    changes: Vec<(Pool, ChangeIndexSnapshot)>,
    suppressed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_types::{EntityName, SimTime, Value, WriteOutcome};

    fn row(dev: &str, fw: &str) -> NetworkState {
        NetworkState::new(
            EntityName::device("dc1", dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(fw),
            SimTime::ZERO,
            AppId::monitor(),
        )
    }

    #[test]
    fn writes_stamp_increasing_versions() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1"), row("b", "1")].into(),
        });
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "2")].into(),
        });
        let a = m.get(&Pool::Observed, &row("a", "").key()).unwrap();
        let b = m.get(&Pool::Observed, &row("b", "").key()).unwrap();
        assert!(a.version.is_newer_than(b.version));
        assert_eq!(a.value, Value::text("2"));
        assert_eq!(m.pool_len(&Pool::Observed), 2);
        assert_eq!(m.current_version(), Version(3));
    }

    #[test]
    fn pools_are_independent() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1")].into(),
        });
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Target,
            rows: vec![row("a", "9")].into(),
        });
        assert_eq!(
            m.get(&Pool::Observed, &row("a", "").key()).unwrap().value,
            Value::text("1")
        );
        assert_eq!(
            m.get(&Pool::Target, &row("a", "").key()).unwrap().value,
            Value::text("9")
        );
    }

    #[test]
    fn deletes_remove_rows() {
        let mut m = StateMachine::new();
        let app = AppId::new("te");
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Proposed(app.clone()),
            rows: vec![row("a", "1")].into(),
        });
        let removed = m.apply(&LogCommand::DeleteBatch {
            pool: Pool::Proposed(app.clone()),
            keys: vec![row("a", "").key()],
        });
        assert_eq!(removed, 1);
        assert_eq!(m.pool_len(&Pool::Proposed(app)), 0);
    }

    #[test]
    fn receipts_queue_and_drain() {
        let mut m = StateMachine::new();
        let app = AppId::new("upgrade");
        let receipt = |dev: &str| WriteReceipt {
            app: app.clone(),
            key: row(dev, "").key(),
            proposed: Value::text("7"),
            outcome: WriteOutcome::Accepted,
            decided_at: SimTime::ZERO,
        };
        let posted = vec![receipt("a"), receipt("b"), receipt("c")];
        m.apply(&LogCommand::PostReceipts {
            receipts: posted.clone(),
        });
        let positions = |m: &StateMachine| -> Vec<u64> {
            m.receipts(&app)
                .map(|q| q.pending(usize::MAX).map(|(p, _)| p).collect())
                .unwrap_or_default()
        };
        assert_eq!(positions(&m), vec![1, 2, 3]);
        let version = m.current_version();
        let ack = |through| LogCommand::AckReceipts {
            app: app.clone(),
            through,
        };
        assert_eq!(m.apply(&ack(2)), 2);
        assert_eq!(positions(&m), vec![3]);
        // Idempotent: a repeated or older ack drops nothing more.
        assert_eq!(m.apply(&ack(2)), 0);
        assert_eq!(m.apply(&ack(1)), 0);
        // A later post continues the numbering; an ack past the end
        // drops only what exists.
        m.apply(&LogCommand::PostReceipts {
            receipts: vec![receipt("d")],
        });
        assert_eq!(positions(&m), vec![3, 4]);
        assert_eq!(m.apply(&ack(99)), 2);
        assert!(positions(&m).is_empty());
        m.apply(&LogCommand::PostReceipts {
            receipts: vec![receipt("e")],
        });
        assert_eq!(positions(&m), vec![5]);
        // Receipts move no row version, and an unknown app's ack is a no-op.
        assert_eq!(m.current_version(), version);
        assert_eq!(
            m.apply(&LogCommand::AckReceipts {
                app: AppId::new("other"),
                through: 9,
            }),
            0
        );
        // The ack position survives a snapshot round trip, and an image
        // written before acks were logged (a bare list) still loads.
        let back = StateMachine::from_snapshot(&m.to_snapshot());
        assert_eq!(back.to_snapshot(), m.to_snapshot());
        assert_eq!(positions(&back), vec![5]);
        let json = serde_json::to_string(&m.to_snapshot()).unwrap();
        assert_eq!(
            serde_json::from_str::<MachineSnapshot>(&json).unwrap(),
            m.to_snapshot()
        );
        let old = serde_json::to_string(&posted).unwrap();
        let queue: ReceiptQueue = serde_json::from_str(&old).unwrap();
        assert_eq!(
            queue.pending(9).map(|(p, _)| p).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn noop_touches_nothing() {
        let mut m = StateMachine::new();
        assert_eq!(m.apply(&LogCommand::Noop), 0);
        assert_eq!(m.applied_count(), 1);
        assert_eq!(m.current_version(), Version::GENESIS);
    }

    #[test]
    fn column_exposes_entity_probes() {
        let mut m = StateMachine::new();
        assert!(m.column(&Pool::Observed).is_none());
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("agg-1-1", "1"), row("tor-1-1", "1")].into(),
        });
        let col = m.column(&Pool::Observed).unwrap();
        let aggs = col.entity_rows(&EntityName::device("dc1", "agg-1-1"), None);
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].value, Value::text("1"));
    }

    #[test]
    fn value_identical_writes_are_complete_noops() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1")].into(),
        });
        let before = m.get(&Pool::Observed, &row("a", "").key()).unwrap().clone();
        // Same value+writer, later timestamp: suppressed entirely.
        let mut later = row("a", "1");
        later.updated_at = SimTime::from_secs(300);
        let touched = m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![later].into(),
        });
        assert_eq!(touched, 0);
        assert_eq!(m.suppressed_count(), 1);
        assert_eq!(
            m.get(&Pool::Observed, &row("a", "").key()).unwrap(),
            &before,
            "suppressed writes leave the row bit-identical"
        );
        assert_eq!(m.pool_watermark(&Pool::Observed), Version(1));
        // A real change still lands and moves the watermark.
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "2")].into(),
        });
        assert_eq!(m.pool_watermark(&Pool::Observed), Version(2));
    }

    #[test]
    fn changes_since_returns_current_rows_and_tombstones() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1"), row("b", "1")].into(),
        });
        let w0 = m.pool_watermark(&Pool::Observed);
        assert_eq!(w0, Version(2));
        // Touch `a` twice and delete `b`: the delta dedupes to the final
        // disposition of each key.
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "2")].into(),
        });
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "3")].into(),
        });
        m.apply(&LogCommand::DeleteBatch {
            pool: Pool::Observed,
            keys: vec![row("b", "").key()],
        });
        let d = m.changes_since(&Pool::Observed, w0, |_| true).unwrap();
        assert_eq!(d.upserts.len(), 1);
        assert_eq!(d.upserts[0].value, Value::text("3"));
        assert_eq!(d.deletes, vec![row("b", "").key()]);
        assert_eq!(d.watermark, Version(5), "deletes bump versions too");
        assert!(!d.snapshot);
        // Reading at the watermark is an empty delta; reading ahead of it
        // (a behind replica) cannot be served.
        assert!(m
            .changes_since(&Pool::Observed, Version(5), |_| true)
            .unwrap()
            .is_empty());
        assert!(m
            .changes_since(&Pool::Observed, Version(9), |_| true)
            .is_none());
    }

    #[test]
    fn a_filtered_read_lists_only_kept_attributes() {
        let mut m = StateMachine::new();
        let cpu = |dev: &str, load: f64| {
            let mut r = row(dev, "");
            r.attribute = Attribute::DeviceCpuUtilization;
            r.value = Value::Float(load);
            r
        };
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1"), cpu("a", 0.1), cpu("b", 0.2)].into(),
        });
        m.apply(&LogCommand::DeleteBatch {
            pool: Pool::Observed,
            keys: vec![cpu("b", 0.0).key()],
        });
        let no_counters = |a: Attribute| !a.is_counter();
        let d = m
            .changes_since(&Pool::Observed, Version::GENESIS, no_counters)
            .unwrap();
        assert_eq!(
            d.upserts,
            vec![m.get(&Pool::Observed, &row("a", "").key()).unwrap().clone()]
        );
        assert!(
            d.deletes.is_empty(),
            "a counter's tombstone is filtered too"
        );
        assert_eq!(
            d.watermark,
            Version(4),
            "the pool's watermark, counters included"
        );
        let all = m
            .changes_since(&Pool::Observed, Version::GENESIS, |_| true)
            .unwrap();
        assert_eq!((all.upserts.len(), all.deletes.len()), (2, 1));
        assert_eq!(m.pool_rows(&Pool::Observed, no_counters).len(), 1);
        assert_eq!(m.pool_rows(&Pool::Observed, |_| true).len(), 2);
    }

    #[test]
    fn compaction_floor_forces_fallback() {
        let mut m = StateMachine::new();
        let rows: Vec<NetworkState> = (0..CHANGE_INDEX_CAPACITY + 10)
            .map(|i| row(&format!("d{i}"), "1"))
            .collect();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: rows.into(),
        });
        // The oldest 10 entries were compacted away: genesis reads fall
        // back, reads above the floor still work.
        assert!(m
            .changes_since(&Pool::Observed, Version::GENESIS, |_| true)
            .is_none());
        let d = m
            .changes_since(&Pool::Observed, Version(10 + 100), |_| true)
            .unwrap();
        assert_eq!(d.upserts.len(), CHANGE_INDEX_CAPACITY - 100);
        // Pool contents are unaffected by index compaction.
        assert_eq!(m.pool_len(&Pool::Observed), CHANGE_INDEX_CAPACITY + 10);
    }

    #[test]
    fn bulk_batch_seeds_empty_pool_with_single_watermark_bump() {
        let mut m = StateMachine::new();
        let rows: Vec<NetworkState> = (0..100).map(|i| row(&format!("bulk{i}"), "1")).collect();
        let touched = m.apply(&LogCommand::BulkBatch {
            pool: Pool::Observed,
            rows: rows.clone().into(),
        });
        assert_eq!(touched, 100);
        assert_eq!(m.pool_len(&Pool::Observed), 100);
        assert_eq!(m.pool_watermark(&Pool::Observed), Version(100));
        assert_eq!(m.bulk_stats().rows, 100);
        // Versions stamped per row, ascending, like a WriteBatch would.
        let v0 = m.get(&Pool::Observed, &rows[0].key()).unwrap().version;
        let v99 = m.get(&Pool::Observed, &rows[99].key()).unwrap().version;
        assert!(v99.is_newer_than(v0));
        // Pre-seed history is unservable (floor raised); reads at the
        // watermark are an empty delta, exactly like post-compaction.
        assert!(m
            .changes_since(&Pool::Observed, Version::GENESIS, |_| true)
            .is_none());
        assert!(m
            .changes_since(&Pool::Observed, Version(100), |_| true)
            .unwrap()
            .is_empty());
        // Subsequent incremental writes are served normally.
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("bulk0", "2")].into(),
        });
        let d = m
            .changes_since(&Pool::Observed, Version(100), |_| true)
            .unwrap();
        assert_eq!(d.upserts.len(), 1);
        assert_eq!(d.upserts[0].value, Value::text("2"));
    }

    #[test]
    fn bulk_batch_over_non_empty_pool_degrades_to_write_semantics() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1")].into(),
        });
        let touched = m.apply(&LogCommand::BulkBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1"), row("b", "2")].into(),
        });
        // Value-identical row suppressed, new row recorded in the index.
        assert_eq!(touched, 1);
        assert_eq!(m.suppressed_count(), 1);
        assert_eq!(m.bulk_stats().rows, 0, "fast path did not run");
        let d = m
            .changes_since(&Pool::Observed, Version(1), |_| true)
            .unwrap();
        assert_eq!(d.upserts.len(), 1);
        assert_eq!(d.upserts[0].value, Value::text("2"));
    }

    #[test]
    fn bulk_batch_snapshot_round_trips_like_any_write() {
        let mut m = StateMachine::new();
        m.apply(&LogCommand::BulkBatch {
            pool: Pool::Observed,
            rows: Arc::new((0..50).map(|i| row(&format!("s{i}"), "1")).collect()),
        });
        let snap = m.to_snapshot();
        let back = StateMachine::from_snapshot(&snap);
        assert_eq!(back.to_snapshot(), snap, "snapshot round-trip is exact");
        assert_eq!(back.pool_watermark(&Pool::Observed), Version(50));
        assert!(back
            .changes_since(&Pool::Observed, Version::GENESIS, |_| true)
            .is_none());
    }

    #[test]
    fn command_weights() {
        assert_eq!(LogCommand::Noop.weight(), 1);
        assert_eq!(
            LogCommand::WriteBatch {
                pool: Pool::Observed,
                rows: vec![row("a", "1"), row("b", "1")].into()
            }
            .weight(),
            2
        );
    }
}
