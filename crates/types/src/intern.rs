//! The entity interner and compact variable ids.
//!
//! Statesman's state plane walks every variable of a datacenter each round
//! (paper §4.2, §6.2). Keying the hot maps — storage pools, change
//! indexes, monitor diff bases, checker/updater mirrors — on the fully
//! structured [`EntityName`] means every insert, lookup, and comparison
//! hashes (and often clones) datacenter + device/link/path strings. This
//! module provides the compact alternative:
//!
//! * [`EntityId`] — a dense `u32` handle minted by a process-wide,
//!   append-only symbol table. Interning the same name always yields the
//!   same id for the lifetime of the process.
//! * [`VarId`] — one state variable: an (entity, attribute) pair packed
//!   into a single `u64` (entity id in the high 48 bits, attribute
//!   discriminant in the low 16). `Copy`, hashes as one word.
//!
//! **The edge-resolution rule.** Ids never appear on the wire. Interning
//! order depends on execution order (which round touched an entity first),
//! so `VarId`'s numeric order is *not* canonical: every wire-observable
//! ordering in the workspace sorts by the string [`StateKey`] order (via
//! the allocation-free [`StateKeyRef`](crate::StateKeyRef)), and ids are
//! resolved back to names only where a wire artifact needs one (delta
//! tombstones, receipts). Those resolutions are counted — the
//! `key_resolutions` metric — so a refactor that accidentally drags
//! resolution into a hot loop is observable. Within one process, ids *are*
//! order-compatible with names after a canonicalizing pass: interning
//! names in sorted order first makes `VarId` order agree with `StateKey`
//! order (property-tested in `tests/proptests.rs`).

use crate::entity::EntityName;
use crate::state::{Pool, StateKey};
use crate::vars::Attribute;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A dense handle for one interned [`EntityName`]. Stable for the process
/// lifetime; never serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u32);

/// One state variable — an interned entity plus an attribute — packed into
/// a single `u64` (entity id `<< 16 | attribute` discriminant).
///
/// `VarId` is a *hash key*, not an ordering key: its numeric order follows
/// interning order, which is execution-dependent. Sort wire-visible output
/// by [`StateKeyRef`](crate::StateKeyRef) instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u64);

impl VarId {
    /// Pack an already-interned entity with an attribute.
    pub fn new(entity: EntityId, attribute: Attribute) -> Self {
        VarId(((entity.0 as u64) << 16) | attribute as u16 as u64)
    }

    /// The variable id of (entity, attribute), interning the entity in the
    /// process-wide table on first sight. Allocation-free for entities
    /// already interned.
    pub fn of(entity: &EntityName, attribute: Attribute) -> Self {
        VarId::new(interner().intern(entity), attribute)
    }

    /// The interned entity.
    pub fn entity_id(self) -> EntityId {
        EntityId((self.0 >> 16) as u32)
    }

    /// The attribute (recovered from the packed discriminant).
    pub fn attribute(self) -> Attribute {
        Attribute::catalogue()[(self.0 & 0xFFFF) as usize]
    }

    /// Resolve back to the owning entity's name via the process-wide
    /// table. This is an *edge* operation (wire tombstones, receipts) and
    /// is counted by [`key_resolutions`].
    pub fn resolve_entity(self) -> Arc<EntityName> {
        interner().resolve(self.entity_id())
    }

    /// Resolve to the string [`StateKey`] (edge resolution; counted).
    pub fn resolve_key(self) -> StateKey {
        StateKey::new((*self.resolve_entity()).clone(), self.attribute())
    }
}

/// A concurrent, append-only symbol table of entity names. One process-wide
/// instance backs [`VarId::of`]; independent instances exist only for tests
/// (ordering properties need a table whose insertion order they control).
#[derive(Default)]
pub struct Interner {
    inner: RwLock<InternerInner>,
}

#[derive(Default)]
struct InternerInner {
    /// Name → id. Keyed by the same `Arc`s `names` holds, so each distinct
    /// entity is stored once.
    lookup: HashMap<Arc<EntityName>, u32>,
    /// Id → name, append-only: `names[id.0 as usize]`.
    names: Vec<Arc<EntityName>>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id for `name`, minting one on first sight. Lookups for known
    /// names take a shared read lock and allocate nothing.
    pub fn intern(&self, name: &EntityName) -> EntityId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        if let Some(&id) = inner.lookup.get(name) {
            return EntityId(id); // raced: another thread minted it first
        }
        let id = u32::try_from(inner.names.len()).expect("interner overflow");
        let arc = Arc::new(name.clone());
        inner.names.push(Arc::clone(&arc));
        inner.lookup.insert(arc, id);
        EntityId(id)
    }

    /// The id of `name` if it has been interned; never mints. This is the
    /// lookup for names that arrive as *request parameters*: resolving
    /// `GET /v1/read?Entity=<junk>` through [`Interner::intern`] would let
    /// any client grow the append-only table without ever writing a row.
    pub fn lookup(&self, name: &EntityName) -> Option<EntityId> {
        self.inner
            .read()
            .expect("interner poisoned")
            .lookup
            .get(name)
            .map(|&id| EntityId(id))
    }

    /// The name behind `id`. Panics on a foreign id (ids are only minted
    /// by [`Interner::intern`]). Each call counts as one key resolution.
    pub fn resolve(&self, id: EntityId) -> Arc<EntityName> {
        RESOLUTIONS.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.inner.read().expect("interner poisoned").names[id.0 as usize])
    }

    /// Number of distinct entities interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner poisoned").names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dense, per-pool slot index for one state variable — the columnar
/// companion of [`VarId`].
///
/// Where [`EntityId`] names an entity in the process-wide symbol table,
/// `SlotId` names a *row position* in one pool's column: the first
/// variable a pool ever sees gets slot 0, the next slot 1, and so on.
/// Slots are append-only and **never reused** — deleting a variable
/// tombstones its slot, and re-inserting the same variable lands in the
/// same slot again — so a slot id, once handed out, is a stable row
/// address for the process lifetime. Like every interned id, slots are
/// never serialized; snapshots and deltas carry string keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

impl SlotId {
    /// The slot as a vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The per-pool slot tables: for each pool, a bijection between the
/// [`VarId`]s the pool has ever stored and dense [`SlotId`]s in
/// first-sight order. One process-wide instance backs the columnar state
/// plane (storage columns and core mirrors agree on slot addressing
/// because they consult the same registry); independent instances exist
/// only for tests.
#[derive(Default)]
pub struct SlotRegistry {
    inner: RwLock<SlotRegistryInner>,
}

#[derive(Default)]
struct SlotRegistryInner {
    pools: HashMap<Pool, PoolSlots>,
}

#[derive(Default)]
struct PoolSlots {
    /// Var → slot.
    lookup: HashMap<VarId, u32>,
    /// Slot → var, append-only: `vars[slot.0 as usize]`.
    vars: Vec<VarId>,
}

impl SlotRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `var` in `pool`, minting one on first sight. Lookups
    /// for known variables take a shared read lock and allocate nothing.
    pub fn slot_of(&self, pool: &Pool, var: VarId) -> SlotId {
        if let Some(&slot) = self
            .inner
            .read()
            .expect("slot registry poisoned")
            .pools
            .get(pool)
            .and_then(|p| p.lookup.get(&var))
        {
            return SlotId(slot);
        }
        let mut inner = self.inner.write().expect("slot registry poisoned");
        let pool_slots = inner.pools.entry(pool.clone()).or_default();
        if let Some(&slot) = pool_slots.lookup.get(&var) {
            return SlotId(slot); // raced: another thread minted it first
        }
        let slot = u32::try_from(pool_slots.vars.len()).expect("slot registry overflow");
        pool_slots.vars.push(var);
        pool_slots.lookup.insert(var, slot);
        SlotId(slot)
    }

    /// Slots for a whole batch of variables in one pool, minting on first
    /// sight — one write-lock acquisition for the entire batch instead of
    /// a read-probe + write-mint cycle per variable. Returned slots are in
    /// input order; duplicates in `vars` resolve to the same slot. The
    /// bulk-ingest seed path lives on this: a bootstrap batch is almost
    /// entirely first-sight variables, where `slot_of`'s per-call fast
    /// path never hits.
    pub fn slots_of_batch(&self, pool: &Pool, vars: &[VarId]) -> Vec<SlotId> {
        let mut inner = self.inner.write().expect("slot registry poisoned");
        let pool_slots = inner.pools.entry(pool.clone()).or_default();
        pool_slots.lookup.reserve(vars.len());
        pool_slots.vars.reserve(vars.len());
        vars.iter()
            .map(|v| match pool_slots.lookup.entry(*v) {
                std::collections::hash_map::Entry::Occupied(e) => SlotId(*e.get()),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let slot =
                        u32::try_from(pool_slots.vars.len()).expect("slot registry overflow");
                    pool_slots.vars.push(*v);
                    e.insert(slot);
                    SlotId(slot)
                }
            })
            .collect()
    }

    /// The slot of `var` in `pool`, if one has been minted (never mints —
    /// the read-path counterpart of [`SlotRegistry::slot_of`]).
    pub fn lookup(&self, pool: &Pool, var: VarId) -> Option<SlotId> {
        self.inner
            .read()
            .expect("slot registry poisoned")
            .pools
            .get(pool)?
            .lookup
            .get(&var)
            .map(|&s| SlotId(s))
    }

    /// The already-minted slots among `vars` in `pool`, in input order,
    /// under one read-lock acquisition (never mints).
    pub fn lookup_batch(&self, pool: &Pool, vars: impl IntoIterator<Item = VarId>) -> Vec<SlotId> {
        let mut slots = Vec::new();
        self.lookup_each(pool, vars.into_iter().map(|v| (v, ())), |(), slot| {
            slots.extend(slot)
        });
        slots
    }

    /// The positional form of [`SlotRegistry::lookup_batch`]: `each` gets
    /// every item back with its variable's slot (`None` if never minted),
    /// in input order, all under one read-lock acquisition — so a caller
    /// can carry a payload per variable (the monitor's polled values)
    /// and still see the misses. This is the probe behind
    /// [`Column::get_each`](crate::Column::get_each), where the
    /// per-variable [`SlotRegistry::lookup`] would take the lock once per
    /// variable. Never mints. `each` runs under the lock and must not call
    /// back into the registry.
    pub fn lookup_each<T>(
        &self,
        pool: &Pool,
        items: impl IntoIterator<Item = (VarId, T)>,
        mut each: impl FnMut(T, Option<SlotId>),
    ) {
        let inner = self.inner.read().expect("slot registry poisoned");
        let pool_slots = inner.pools.get(pool);
        for (var, item) in items {
            let slot = pool_slots.and_then(|p| p.lookup.get(&var));
            each(item, slot.map(|&s| SlotId(s)));
        }
    }

    /// The variable behind a slot. Panics on a foreign slot (slots are
    /// only minted by [`SlotRegistry::slot_of`]).
    pub fn var_of(&self, pool: &Pool, slot: SlotId) -> VarId {
        self.inner
            .read()
            .expect("slot registry poisoned")
            .pools
            .get(pool)
            .map(|p| p.vars[slot.index()])
            .expect("slot registry: unknown pool")
    }

    /// Slots minted for `pool` so far (the pool's column high-water mark).
    pub fn pool_slots(&self, pool: &Pool) -> usize {
        self.inner
            .read()
            .expect("slot registry poisoned")
            .pools
            .get(pool)
            .map(|p| p.vars.len())
            .unwrap_or(0)
    }
}

static SLOTS: OnceLock<SlotRegistry> = OnceLock::new();

/// The process-wide slot registry backing the columnar state plane.
pub fn slot_registry() -> &'static SlotRegistry {
    SLOTS.get_or_init(SlotRegistry::new)
}

/// Id → name resolutions performed so far, process-wide (both the global
/// table and test-local ones count; the metric watches for resolution
/// creeping into hot loops anywhere).
static RESOLUTIONS: AtomicU64 = AtomicU64::new(0);

static GLOBAL: OnceLock<Interner> = OnceLock::new();

/// The process-wide symbol table backing [`VarId::of`].
pub fn interner() -> &'static Interner {
    GLOBAL.get_or_init(Interner::new)
}

/// Distinct entities in the process-wide table (the `interned_entities`
/// gauge).
pub fn interned_count() -> usize {
    interner().len()
}

/// Cumulative id → name resolutions (the `key_resolutions` counter's
/// source; monotone, process-wide).
pub fn key_resolutions() -> u64 {
    RESOLUTIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(n: &str) -> EntityName {
        EntityName::device("dc1", n)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let t = Interner::new();
        let a = t.intern(&dev("a"));
        let b = t.intern(&dev("b"));
        assert_ne!(a, b);
        assert_eq!(t.intern(&dev("a")), a);
        assert_eq!(t.len(), 2);
        assert_eq!((a.0, b.0), (0, 1), "ids are dense, in first-sight order");
    }

    #[test]
    fn lookup_never_mints() {
        let t = Interner::new();
        assert_eq!(t.lookup(&dev("ghost")), None);
        assert_eq!(t.len(), 0, "a miss leaves the table untouched");
        let a = t.intern(&dev("a"));
        assert_eq!(t.lookup(&dev("a")), Some(a));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn var_id_packs_and_unpacks() {
        for attr in Attribute::catalogue() {
            let vid = VarId::new(EntityId(12345), *attr);
            assert_eq!(vid.entity_id(), EntityId(12345));
            assert_eq!(vid.attribute(), *attr);
        }
    }

    #[test]
    fn attribute_discriminants_index_the_catalogue() {
        // VarId::attribute depends on `catalogue()[a as usize] == a`:
        // declaration order, discriminant order, and catalogue order are
        // all the same order.
        for (i, attr) in Attribute::catalogue().iter().enumerate() {
            assert_eq!(*attr as u16 as usize, i, "{attr}");
        }
        assert!(
            Attribute::catalogue().len() <= u16::MAX as usize,
            "attribute discriminant must fit the packed 16 bits"
        );
    }

    #[test]
    fn global_round_trip_resolves_and_counts() {
        let entity = dev("round-trip-probe");
        let vid = VarId::of(&entity, Attribute::DeviceFirmwareVersion);
        let before = key_resolutions();
        assert_eq!(*vid.resolve_entity(), entity);
        let key = vid.resolve_key();
        assert_eq!(key, StateKey::new(entity, Attribute::DeviceFirmwareVersion));
        assert!(key_resolutions() >= before + 2, "resolutions are counted");
    }

    #[test]
    fn slots_are_dense_per_pool_and_never_reused() {
        let reg = SlotRegistry::new();
        let a = VarId::of(&dev("slot-a"), Attribute::DeviceFirmwareVersion);
        let b = VarId::of(&dev("slot-b"), Attribute::DeviceFirmwareVersion);
        let os = Pool::Observed;
        let ts = Pool::Target;
        assert_eq!(reg.lookup(&os, a), None, "lookup never mints");
        let sa = reg.slot_of(&os, a);
        let sb = reg.slot_of(&os, b);
        assert_eq!((sa.0, sb.0), (0, 1), "dense, first-sight order");
        // Re-interning yields the same slot; pools are independent spaces.
        assert_eq!(reg.slot_of(&os, a), sa);
        assert_eq!(reg.slot_of(&ts, b).0, 0);
        assert_eq!(reg.var_of(&os, sb), b);
        assert_eq!(reg.pool_slots(&os), 2);
        assert_eq!(reg.pool_slots(&ts), 1);
        // The batch probe returns only what is minted, in input order, and
        // mints nothing itself.
        let c = VarId::of(&dev("slot-c"), Attribute::DeviceFirmwareVersion);
        assert_eq!(reg.lookup_batch(&os, [b, c, a]), vec![sb, sa]);
        assert_eq!(
            reg.lookup_batch(&Pool::Proposed(crate::AppId::new("none")), [a]),
            vec![]
        );
        assert_eq!(reg.pool_slots(&os), 2);
    }

    #[test]
    fn batch_slot_minting_matches_per_var_minting() {
        let reg = SlotRegistry::new();
        let vars: Vec<VarId> = (0..10)
            .map(|i| VarId::of(&dev(&format!("b{i}")), Attribute::DeviceFirmwareVersion))
            .collect();
        // Pre-mint a few one at a time, then batch the full set with a
        // duplicate: existing slots are reused, new ones minted in order.
        let s0 = reg.slot_of(&Pool::Observed, vars[3]);
        let s1 = reg.slot_of(&Pool::Observed, vars[7]);
        let mut batch = vars.clone();
        batch.push(vars[0]);
        let slots = reg.slots_of_batch(&Pool::Observed, &batch);
        assert_eq!(slots[3], s0);
        assert_eq!(slots[7], s1);
        assert_eq!(slots[10], slots[0], "duplicates share a slot");
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(reg.slot_of(&Pool::Observed, *v), slots[i]);
        }
        assert_eq!(reg.pool_slots(&Pool::Observed), vars.len());
    }

    #[test]
    fn cross_thread_slot_minting_is_consistent() {
        let reg = Arc::new(SlotRegistry::new());
        let vars: Vec<VarId> = (0..64)
            .map(|i| VarId::of(&dev(&format!("s{i}")), Attribute::DeviceAdminPower))
            .collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let vars = vars.clone();
                std::thread::spawn(move || {
                    vars.iter()
                        .map(|v| reg.slot_of(&Pool::Observed, *v))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_thread: Vec<Vec<SlotId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for slots in &per_thread {
            assert_eq!(slots, &per_thread[0], "all threads see the same slots");
        }
        assert_eq!(reg.pool_slots(&Pool::Observed), vars.len());
    }

    #[test]
    fn cross_thread_interning_is_deterministic() {
        // Many threads interning the same names concurrently must agree on
        // one id per name, and every id must resolve back to its name.
        let t = Arc::new(Interner::new());
        let names: Vec<EntityName> = (0..64).map(|i| dev(&format!("d{i}"))).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                let names = names.clone();
                std::thread::spawn(move || names.iter().map(|n| t.intern(n)).collect::<Vec<_>>())
            })
            .collect();
        let per_thread: Vec<Vec<EntityId>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &per_thread {
            assert_eq!(ids, &per_thread[0], "all threads see the same mapping");
        }
        assert_eq!(t.len(), names.len());
        for (name, id) in names.iter().zip(&per_thread[0]) {
            assert_eq!(*t.resolve(*id), *name);
        }
    }
}
