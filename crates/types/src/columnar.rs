//! The columnar row store: dense slot-indexed columns over an arena.
//!
//! Since PR 3/PR 4 the state plane's access pattern is "dense
//! [`VarId`]-keyed rows, mutated via small deltas" — FlexState's case for
//! matching state layout to access pattern applies directly. This module
//! is the layout: one [`Column`] per pool, a dense `Vec` of slots indexed
//! by the process-wide [`SlotId`] space
//! (append-only, never reused), row payloads packed contiguously in
//! chunked [`RowArena`]s, tombstone deletes that clear an occupancy bit
//! without reclaiming the slot, and a bitmap-driven iterator so full scans
//! touch only live rows.
//!
//! Arena chunks are copy-on-write. Cloning a column copies its slot map
//! and its bitmap and bumps one refcount per chunk; the rows stay shared.
//! Whoever first writes to a shared chunk pays for the copy of that chunk
//! alone. Counter rows ([`Attribute::is_counter`]) live in an arena of
//! their own, so the telemetry a churn round rewrites never shares a chunk
//! with configuration rows: a replica's log-fold image, a cached read
//! column or a catch-up payload keeps sharing every non-counter chunk
//! while the live column moves on.
//!
//! Nothing here is wire-visible: columns serialize through the same
//! string-keyed, key-sorted snapshots as the hash maps they replace, and
//! the equivalence suites assert bit-equal reads against a hashmap
//! reference across interleaved upserts, deletes, and compaction
//! crossings.

use crate::entity::EntityName;
use crate::intern::{interner, slot_registry, SlotId, VarId};
use crate::state::{NetworkState, Pool};
use crate::value::Value;
use crate::vars::Attribute;
use std::sync::Arc;

/// Rows per arena chunk. Chunks are allocated whole and never moved, so
/// row references stay valid across pushes while values still sit
/// contiguously in blocks of this many rows.
const ARENA_CHUNK: usize = 4096;

/// Sentinel for "this slot has never been allocated an arena row".
const NO_ROW: u32 = u32::MAX;

/// The class bit of a slot's row reference: set when the row lives in
/// the column's counter arena. The low 31 bits are the arena index.
const COUNTER_ROW: u32 = 1 << 31;

/// A chunked, append-only arena of row payloads. Indices are stable for
/// the arena's lifetime; rows within a chunk are contiguous in memory.
///
/// Each chunk sits behind an `Arc`, so a clone of the arena shares every
/// chunk. A write to a shared chunk first copies that chunk (at full
/// [`ARENA_CHUNK`] capacity, so later pushes never reallocate it); the
/// other holders keep the rows they had.
#[derive(Debug, Clone, Default)]
pub struct RowArena {
    chunks: Vec<Arc<Vec<NetworkState>>>,
    len: usize,
}

/// The chunk behind `chunk`, copied first if another arena shares it.
fn unshare(chunk: &mut Arc<Vec<NetworkState>>) -> &mut Vec<NetworkState> {
    if Arc::get_mut(chunk).is_none() {
        let mut copy = Vec::with_capacity(ARENA_CHUNK);
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::get_mut(chunk).expect("a fresh copy has one owner")
}

impl RowArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate chunk storage for `additional` more rows, so a bulk
    /// fill never reallocates the chunk table mid-append.
    fn reserve(&mut self, additional: usize) {
        let free = self
            .chunks
            .last()
            .map(|c| ARENA_CHUNK - c.len())
            .unwrap_or(0);
        let needed = additional.saturating_sub(free).div_ceil(ARENA_CHUNK);
        self.chunks.reserve(needed);
    }

    /// Append a row, returning its stable index (below `!COUNTER_ROW`, so
    /// a column can tag it with its class and never make it [`NO_ROW`]).
    fn push(&mut self, row: NetworkState) -> u32 {
        if self
            .chunks
            .last()
            .map(|c| c.len() == ARENA_CHUNK)
            .unwrap_or(true)
        {
            self.chunks.push(Arc::new(Vec::with_capacity(ARENA_CHUNK)));
        }
        let idx = self.len;
        unshare(self.chunks.last_mut().expect("chunk just pushed")).push(row);
        self.len += 1;
        u32::try_from(idx)
            .ok()
            .filter(|i| *i < !COUNTER_ROW)
            .expect("row arena overflow")
    }

    fn get(&self, idx: u32) -> &NetworkState {
        &self.chunks[idx as usize / ARENA_CHUNK][idx as usize % ARENA_CHUNK]
    }

    fn get_mut(&mut self, idx: u32) -> &mut NetworkState {
        &mut unshare(&mut self.chunks[idx as usize / ARENA_CHUNK])[idx as usize % ARENA_CHUNK]
    }

    /// Rows ever allocated (tombstoned rows keep their storage).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes reserved for row storage (chunk capacity, not counting
    /// per-row value payloads — see [`Column::approx_bytes`] for the
    /// payload-inclusive figure). A chunk shared with another arena is
    /// counted in full by each of them.
    pub fn reserved_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<NetworkState>())
            .sum()
    }
}

/// Estimate of one row's heap payload beyond `size_of::<NetworkState>()`:
/// the value's owned storage only. The entity's and writer's names are
/// shared `Arc<str>`s (every variable of an entity, and every copy of a
/// row, points at the same allocation), so a row is not charged for them.
/// Kept cheap and deliberately approximate — it feeds a memory *gauge*,
/// not an allocator.
fn row_heap_bytes(row: &NetworkState) -> usize {
    match &row.value {
        Value::Text(s) => s.len(),
        Value::Routes(r) => r.len() * std::mem::size_of::<crate::value::FlowLinkRule>(),
        Value::DeviceList(d) => d.len() * std::mem::size_of::<crate::entity::DeviceName>(),
        Value::Lock(_) => 64,
        _ => 0,
    }
}

/// One pool's columnar store: a dense slot → row mapping over two
/// [`RowArena`]s, one for counter rows and one for the rest, with an
/// occupancy bitmap for fast live-row iteration.
///
/// A clone shares every arena chunk (see [`RowArena`]): it costs the slot
/// map, the bitmap and a refcount bump per chunk, and the first write to
/// a shared chunk, on either side, copies that chunk.
///
/// Slot ids come from the process-wide
/// [`slot_registry`], so every column (and
/// every columnar mirror in the control loop) agrees on row addressing.
/// Deletes are tombstones: the occupancy bit clears, the slot and its
/// arena row are never reclaimed, and a re-inserted variable lands back
/// in its original slot.
#[derive(Debug, Clone)]
pub struct Column {
    pool: Pool,
    /// Slot → arena row ([`NO_ROW`] until the slot first holds a value;
    /// [`COUNTER_ROW`] set for a row of the counter arena).
    slots: Vec<u32>,
    /// Occupancy bitmap, one bit per slot.
    occupied: Vec<u64>,
    arena: RowArena,
    /// Counter rows, apart so that rewriting them copies no other row.
    counters: RowArena,
    /// Live (occupied) rows.
    len: usize,
    /// Running estimate of live rows' heap payload bytes.
    heap_bytes: usize,
}

impl Column {
    /// An empty column for one pool.
    pub fn new(pool: Pool) -> Self {
        Column {
            pool,
            slots: Vec::new(),
            occupied: Vec::new(),
            arena: RowArena::new(),
            counters: RowArena::new(),
            len: 0,
            heap_bytes: 0,
        }
    }

    /// The pool this column stores.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    fn row(&self, at: u32) -> &NetworkState {
        if at & COUNTER_ROW == 0 {
            self.arena.get(at)
        } else {
            self.counters.get(at & !COUNTER_ROW)
        }
    }

    fn row_mut(&mut self, at: u32) -> &mut NetworkState {
        if at & COUNTER_ROW == 0 {
            self.arena.get_mut(at)
        } else {
            self.counters.get_mut(at & !COUNTER_ROW)
        }
    }

    /// Append a row to the arena of its class; returns its reference.
    fn push_row(&mut self, row: NetworkState) -> u32 {
        if row.attribute.is_counter() {
            self.counters.push(row) | COUNTER_ROW
        } else {
            self.arena.push(row)
        }
    }

    fn ensure_slot(&mut self, slot: SlotId) {
        let idx = slot.index();
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, NO_ROW);
        }
        let word = idx / 64;
        if word >= self.occupied.len() {
            self.occupied.resize(word + 1, 0);
        }
    }

    fn is_occupied(&self, slot: SlotId) -> bool {
        let idx = slot.index();
        self.occupied
            .get(idx / 64)
            .map(|w| w & (1 << (idx % 64)) != 0)
            .unwrap_or(false)
    }

    fn set_occupied(&mut self, slot: SlotId, on: bool) {
        let idx = slot.index();
        let bit = 1u64 << (idx % 64);
        if on {
            self.occupied[idx / 64] |= bit;
        } else {
            self.occupied[idx / 64] &= !bit;
        }
    }

    /// The row at `slot`, if live.
    pub fn get_slot(&self, slot: SlotId) -> Option<&NetworkState> {
        if !self.is_occupied(slot) {
            return None;
        }
        Some(self.row(self.slots[slot.index()]))
    }

    /// The row for `var`, if live (resolves the slot through the
    /// process-wide registry without minting).
    pub fn get_var(&self, var: VarId) -> Option<&NetworkState> {
        self.get_slot(slot_registry().lookup(&self.pool, var)?)
    }

    /// [`Column::get_var`] for a run of variables under one registry read
    /// lock: `each` gets every item back with the live row of its
    /// variable, in input order. `each` runs under that lock and must not
    /// touch the slot registry.
    pub fn get_each<'a, T>(
        &'a self,
        items: impl IntoIterator<Item = (VarId, T)>,
        mut each: impl FnMut(T, Option<&'a NetworkState>),
    ) {
        slot_registry().lookup_each(&self.pool, items, |item, slot| {
            each(item, slot.and_then(|s| self.get_slot(s)))
        });
    }

    /// The live rows of one entity — all of them, or the one under
    /// `attribute` — in catalogue order. A lookup, not a scan: an entity
    /// has at most one variable per catalogue attribute, each at a known
    /// [`VarId`], so this costs one probe per attribute whatever the
    /// column holds. The entity is resolved *without minting* (it arrives
    /// as a request parameter; a name nobody ever wrote has no rows and
    /// must not grow the process-wide table), and the slot probes share
    /// one registry read lock.
    pub fn entity_rows(
        &self,
        entity: &EntityName,
        attribute: Option<Attribute>,
    ) -> Vec<&NetworkState> {
        let Some(id) = interner().lookup(entity) else {
            return Vec::new();
        };
        let attributes = match &attribute {
            Some(a) => std::slice::from_ref(a),
            None => Attribute::catalogue(),
        };
        let mut rows = Vec::new();
        self.get_each(
            attributes.iter().map(|a| (VarId::new(id, *a), ())),
            |(), row| rows.extend(row),
        );
        rows
    }

    /// Pre-size the slot vector and occupancy bitmap up to `slot_high`
    /// slots and reserve arena storage for `rows` incoming rows — the
    /// bulk-ingest companion of [`Column::upsert_at`]: after one reserve,
    /// a fill of pre-minted slots below `slot_high` never grows the slot
    /// table incrementally.
    pub fn reserve(&mut self, slot_high: usize, rows: usize) {
        if slot_high > self.slots.len() {
            self.slots.resize(slot_high, NO_ROW);
        }
        let words = slot_high.div_ceil(64);
        if words > self.occupied.len() {
            self.occupied.resize(words, 0);
        }
        self.arena.reserve(rows);
        self.counters.reserve(rows);
    }

    /// Insert or replace the row for `var`, minting its slot on first
    /// sight. Returns the slot written.
    pub fn upsert(&mut self, row: NetworkState) -> SlotId {
        let slot = slot_registry().slot_of(&self.pool, row.var_id());
        self.upsert_at(slot, row);
        slot
    }

    /// Insert or replace the row at an already-minted slot.
    pub fn upsert_at(&mut self, slot: SlotId, row: NetworkState) {
        self.ensure_slot(slot);
        let new_bytes = row_heap_bytes(&row);
        let idx = self.slots[slot.index()];
        if idx == NO_ROW {
            self.slots[slot.index()] = self.push_row(row);
        } else {
            if self.is_occupied(slot) {
                self.heap_bytes -= row_heap_bytes(self.row(idx));
                self.len -= 1;
            }
            *self.row_mut(idx) = row;
        }
        self.heap_bytes += new_bytes;
        self.len += 1;
        self.set_occupied(slot, true);
    }

    /// Tombstone the row for `var`: clears the occupancy bit and returns
    /// the removed row. The slot and arena storage stay allocated (slots
    /// are never reused for a different variable).
    pub fn remove_var(&mut self, var: VarId) -> Option<NetworkState> {
        self.remove_slot(slot_registry().lookup(&self.pool, var)?)
    }

    /// Tombstone the row at `slot`.
    pub fn remove_slot(&mut self, slot: SlotId) -> Option<NetworkState> {
        if !self.is_occupied(slot) {
            return None;
        }
        let row = self.row(self.slots[slot.index()]).clone();
        self.heap_bytes -= row_heap_bytes(&row);
        self.len -= 1;
        self.set_occupied(slot, false);
        Some(row)
    }

    /// Tombstone every row (occupancy reset; slots and arena storage are
    /// retained, so a rebuild writes straight back into its slots).
    pub fn clear(&mut self) {
        for w in &mut self.occupied {
            *w = 0;
        }
        self.len = 0;
        self.heap_bytes = 0;
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no row is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever touched by this column (the never-shrinking high-water
    /// mark the reuse-never property asserts on).
    pub fn slot_high_water(&self) -> usize {
        self.slots.len()
    }

    /// Approximate resident bytes: the slot vector, the bitmap, the arena
    /// reservations and the live rows' value payloads. Names are shared with
    /// the topology and with every copy of a row, so they are not counted.
    /// Feeds the `state_bytes_per_var` gauge.
    ///
    /// Arena chunks shared with a clone (a snapshot image, a cached read
    /// column) are counted in full here and again in every other holder:
    /// summed over holders this over-counts, and telling the unique owner
    /// of a chunk is left to a memory account that needs it.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
            + self.occupied.capacity() * std::mem::size_of::<u64>()
            + self.arena.reserved_bytes()
            + self.counters.reserved_bytes()
            + self.heap_bytes
    }

    /// Iterate live rows with their slots, in slot order (bitmap-driven:
    /// skips tombstones and never-touched slots a word at a time).
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter {
            col: self,
            word: 0,
            bits: self.occupied.first().copied().unwrap_or(0),
        }
    }

    /// Iterate live rows in slot order.
    pub fn rows(&self) -> impl Iterator<Item = &NetworkState> {
        self.iter().map(|(_, r)| r)
    }
}

/// Bitmap-driven iterator over a column's live rows. See [`Column::iter`].
#[derive(Debug)]
pub struct ColumnIter<'a> {
    col: &'a Column,
    word: usize,
    bits: u64,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = (SlotId, &'a NetworkState);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                let slot = SlotId((self.word * 64 + bit) as u32);
                let idx = self.col.slots[slot.index()];
                return Some((slot, self.col.row(idx)));
            }
            self.word += 1;
            if self.word >= self.col.occupied.len() {
                return None;
            }
            self.bits = self.col.occupied[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AppId;
    use crate::time::SimTime;

    fn row(dev: &str, fw: &str) -> NetworkState {
        NetworkState::new(
            EntityName::device("dc-col", dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(fw),
            SimTime::ZERO,
            AppId::monitor(),
        )
    }

    #[test]
    fn upsert_get_remove_round_trip() {
        let mut c = Column::new(Pool::Observed);
        let a = row("a", "1");
        let slot = c.upsert(a.clone());
        assert_eq!(c.get_slot(slot), Some(&a));
        assert_eq!(c.get_var(a.var_id()), Some(&a));
        assert_eq!(c.len(), 1);

        // Replacement keeps the slot and the live count.
        let a2 = row("a", "2");
        assert_eq!(c.upsert(a2.clone()), slot);
        assert_eq!(c.get_slot(slot), Some(&a2));
        assert_eq!(c.len(), 1);

        // Tombstone: gone, but the slot survives and is reused on
        // re-insert of the same variable.
        assert_eq!(c.remove_var(a.var_id()), Some(a2));
        assert_eq!(c.get_slot(slot), None);
        assert_eq!(c.len(), 0);
        let high = c.slot_high_water();
        assert_eq!(c.upsert(a.clone()), slot);
        assert_eq!(c.slot_high_water(), high, "no new slot on re-insert");
    }

    #[test]
    fn entity_rows_probe_matches_a_scan_and_never_mints() {
        let mut c = Column::new(Pool::Observed);
        let a = EntityName::device("dc-col", "probe-a");
        let at = |attribute, v: &str| {
            NetworkState::new(
                a.clone(),
                attribute,
                Value::text(v),
                SimTime::ZERO,
                AppId::monitor(),
            )
        };
        c.upsert(row("probe-b", "1"));
        // Inserted out of catalogue order; one later tombstoned.
        c.upsert(at(Attribute::DeviceBootImage, "img"));
        c.upsert(at(Attribute::DeviceFirmwareVersion, "7"));
        c.upsert(at(Attribute::DeviceAdminPower, "on"));
        c.remove_var(VarId::of(&a, Attribute::DeviceAdminPower));

        let mut scan: Vec<&NetworkState> = c.rows().filter(|r| r.entity == a).collect();
        scan.sort_by_key(|r| r.attribute);
        assert_eq!(c.entity_rows(&a, None), scan, "catalogue order");
        assert_eq!(scan.len(), 2);
        assert_eq!(
            c.entity_rows(&a, Some(Attribute::DeviceBootImage)),
            vec![&at(Attribute::DeviceBootImage, "img")]
        );
        assert!(c
            .entity_rows(&a, Some(Attribute::DeviceAdminPower))
            .is_empty());

        // A name nobody wrote: no rows, and the probe did not intern it
        // (table sizes are asserted where tests do not share a process
        // table: `tests/entity_read_guards.rs`).
        let ghost = EntityName::device("dc-col", "probe-ghost");
        assert!(c.entity_rows(&ghost, None).is_empty());
        assert_eq!(interner().lookup(&ghost), None);
    }

    #[test]
    fn iteration_skips_tombstones() {
        let mut c = Column::new(Pool::Target);
        for i in 0..130 {
            c.upsert(row(&format!("d{i}"), "1"));
        }
        // Tombstone a spread of slots across bitmap words.
        for i in [0, 63, 64, 127, 129] {
            c.remove_var(row(&format!("d{i}"), "1").var_id());
        }
        assert_eq!(c.len(), 125);
        assert_eq!(c.rows().count(), 125);
        assert!(c.rows().all(|r| !["d0", "d63", "d64", "d127", "d129"]
            .contains(&r.entity.as_device().unwrap().as_str())));
        // Slot order is ascending.
        let slots: Vec<u32> = c.iter().map(|(s, _)| s.0).collect();
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clear_retains_slots_and_tracks_bytes() {
        let mut c = Column::new(Pool::Proposed(AppId::new("col-test")));
        c.upsert(row("a", "some-firmware"));
        c.upsert(row("b", "some-firmware"));
        assert!(c.approx_bytes() > 0);
        let high = c.slot_high_water();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.slot_high_water(), high);
        assert_eq!(c.rows().count(), 0);
        c.upsert(row("a", "x"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reserve_then_bulk_fill_reads_back_identically() {
        let mut a = Column::new(Pool::Observed);
        let mut b = Column::new(Pool::Observed);
        let rows: Vec<NetworkState> = (0..ARENA_CHUNK + 50)
            .map(|i| row(&format!("bulk{i}"), "1"))
            .collect();
        let slots = slot_registry().slots_of_batch(
            &Pool::Observed,
            &rows.iter().map(|r| r.var_id()).collect::<Vec<_>>(),
        );
        let high = slots.iter().map(|s| s.index() + 1).max().unwrap();
        a.reserve(high, rows.len());
        for (slot, r) in slots.iter().zip(&rows) {
            a.upsert_at(*slot, r.clone());
        }
        for r in &rows {
            b.upsert(r.clone());
        }
        assert_eq!(a.len(), b.len());
        let av: Vec<&NetworkState> = a.rows().collect();
        let bv: Vec<&NetworkState> = b.rows().collect();
        assert_eq!(av, bv, "bulk fill is bit-identical to per-row upserts");
    }

    #[test]
    fn a_clone_shares_chunks_until_a_write_copies_one() {
        let counter = |dev: &str, v: f64| {
            NetworkState::new(
                EntityName::device("dc-col", dev),
                Attribute::DeviceCpuUtilization,
                Value::Float(v),
                SimTime::ZERO,
                AppId::monitor(),
            )
        };
        let mut c = Column::new(Pool::Observed);
        for i in 0..ARENA_CHUNK + 10 {
            c.upsert(row(&format!("cow{i}"), "1"));
            c.upsert(counter(&format!("cow{i}"), 0.5));
        }
        let shared = |a: &RowArena, b: &RowArena| {
            a.chunks
                .iter()
                .zip(&b.chunks)
                .filter(|(x, y)| Arc::ptr_eq(x, y))
                .count()
        };
        let image = c.clone();
        assert_eq!(shared(&c.arena, &image.arena), 2);
        assert_eq!(shared(&c.counters, &image.counters), 2);

        // Rewriting a counter copies its counter chunk and nothing else.
        c.upsert(counter("cow1", 0.9));
        assert_eq!(shared(&c.arena, &image.arena), 2, "config rows untouched");
        assert_eq!(shared(&c.counters, &image.counters), 1);
        assert_eq!(c.counters.chunks[0].capacity(), ARENA_CHUNK);
        let key = counter("cow1", 0.0).var_id();
        assert_eq!(c.get_var(key).unwrap().value, Value::Float(0.9));
        assert_eq!(image.get_var(key).unwrap().value, Value::Float(0.5));

        // A push into a shared last chunk copies it with room to grow.
        let mut grown = image.clone();
        grown.upsert(row("cow-new", "1"));
        assert_eq!(grown.arena.chunks[1].capacity(), ARENA_CHUNK);
        assert_eq!(image.len() + 1, grown.len());
        assert!(image.get_var(row("cow-new", "1").var_id()).is_none());
    }

    #[test]
    fn arena_chunks_are_stable_past_one_chunk() {
        let mut c = Column::new(Pool::Observed);
        let n = ARENA_CHUNK + 10;
        for i in 0..n {
            c.upsert(row(&format!("big{i}"), "1"));
        }
        assert_eq!(c.len(), n);
        assert_eq!(c.rows().count(), n);
        assert!(c.approx_bytes() >= n * std::mem::size_of::<NetworkState>());
    }
}
