//! Read views over state pools, and the projection of a target state onto
//! the network graph.
//!
//! The checker never mutates rows in place; it reasons over *views*:
//!
//! * [`StateView`] — anything that can answer "what is the value of
//!   (entity, attribute)?";
//! * [`PoolMirror`] / [`PartsView`] — a pool as checker and updater read
//!   it: one slot-indexed [`Column`] per partition, advanced by
//!   `read_since`, and the zero-copy union of those columns;
//! * [`MapView`] — a small hash-backed set of rows (candidate overlays,
//!   TS staging, the in-flight plan overlay, changefeed consumers);
//! * [`OverlayView`] — a proposed/target delta layered over a base view,
//!   used to evaluate "what would the network look like if we accepted
//!   this?" without copying snapshots;
//! * [`project_health`] — the OS→graph projection: derive a
//!   [`HealthView`] (which devices and links are effectively up) from a
//!   state view, treating *pending transitions* pessimistically — a
//!   device whose TS firmware differs from its OS firmware is about to
//!   reboot, so the projection counts it down. This pessimism is what
//!   lets the checker block the Fig-2 disaster before any command is
//!   issued.

use crate::groups::ImpactGroup;
use statesman_storage::StorageService;
use statesman_topology::{HealthView, NetworkGraph};
use statesman_types::{
    slot_registry, Attribute, Column, DatacenterId, EntityName, NetworkState, Pool, StateDelta,
    StateKey, StateResult, Value, VarId, Version,
};
use std::collections::HashMap;

/// Anything that can answer point lookups over one pool of rows.
///
/// The primitive is [`StateView::get_var`] on a compact [`VarId`]; the
/// string-key and (entity, attribute) conveniences intern once and
/// delegate, so no lookup clones an entity name.
pub trait StateView {
    /// The row stored for the variable, if any.
    fn get_var(&self, var: VarId) -> Option<&NetworkState>;

    /// The row stored for `key`, if any.
    fn get(&self, key: &StateKey) -> Option<&NetworkState> {
        self.get_var(key.var_id())
    }

    /// Convenience: the value stored for (entity, attribute).
    fn value_of(&self, entity: &EntityName, attribute: Attribute) -> Option<&Value> {
        self.get_var(VarId::of(entity, attribute)).map(|r| &r.value)
    }
}

/// A small materialized set of rows, hash-backed by variable id. The rows
/// keep their entity names, so draining back to a sorted row list never
/// consults the interner.
#[derive(Debug, Clone, Default)]
pub struct MapView {
    rows: HashMap<VarId, NetworkState>,
}

impl MapView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a view from a row list (later duplicates shadow earlier
    /// ones).
    pub fn from_rows(rows: impl IntoIterator<Item = NetworkState>) -> Self {
        let mut v = MapView::new();
        for r in rows {
            v.upsert(r);
        }
        v
    }

    /// Insert or replace one row.
    pub fn upsert(&mut self, row: NetworkState) {
        self.rows.insert(row.var_id(), row);
    }

    /// Remove one row by variable id.
    pub fn remove_var(&mut self, var: VarId) -> Option<NetworkState> {
        self.rows.remove(&var)
    }

    /// Remove one row.
    pub fn remove(&mut self, key: &StateKey) -> Option<NetworkState> {
        self.remove_var(key.var_id())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Remove every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Iterate all rows, unordered.
    pub fn rows(&self) -> impl Iterator<Item = &NetworkState> {
        self.rows.values()
    }

    /// Drain into a row list, sorted by string-key order for determinism
    /// (id order is execution-dependent; see `statesman_types::intern`).
    pub fn into_sorted_rows(self) -> Vec<NetworkState> {
        let mut v: Vec<NetworkState> = self.rows.into_values().collect();
        v.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        v
    }

    /// Advance the view by a storage changefeed delta: deletes remove,
    /// upserts replace, and a `snapshot: true` delta rebuilds the view
    /// wholesale (the storage fallback when the change index cannot serve
    /// the gap). Applying deltas in watermark order keeps the view
    /// bit-equal to a fresh full read.
    pub fn apply_delta(&mut self, delta: StateDelta) {
        if delta.snapshot {
            self.clear();
        }
        for key in &delta.deletes {
            self.remove_var(key.var_id());
        }
        for row in delta.upserts {
            self.upsert(row);
        }
    }
}

impl StateView for MapView {
    fn get_var(&self, var: VarId) -> Option<&NetworkState> {
        self.rows.get(&var)
    }
}

impl StateView for Column {
    fn get_var(&self, var: VarId) -> Option<&NetworkState> {
        Column::get_var(self, var)
    }
}

/// One partition's pool as checker and updater hold it — the only way
/// they read one: a copy of storage in a slot-indexed [`Column`] and the
/// watermark it is current to, advanced by `read_since`. A *full read*
/// is a cold mirror (empty, at `Version::default()`) advanced once: what
/// a first pass and a dropped partition do, and what a freshly built
/// checker or updater does for every pool.
///
/// An OS mirror holds every row but the counters
/// ([`Attribute::is_counter`]): neither stage reads a measured counter,
/// and they are nearly every row a steady round changes, so storage
/// leaves them out of the reply. PS and TS mirrors are verbatim — a
/// proposal of a read-only counter must still reach the checker to be
/// rejected.
pub struct PoolMirror {
    rows: Column,
    watermark: Version,
}

impl PoolMirror {
    /// A cold mirror of `pool`.
    pub fn cold(pool: &Pool) -> Self {
        PoolMirror {
            rows: Column::new(pool.clone()),
            watermark: Version::default(),
        }
    }

    /// The mirrored rows.
    pub fn view(&self) -> &Column {
        &self.rows
    }

    /// The pool version the rows reflect.
    pub fn watermark(&self) -> Version {
        self.watermark
    }

    /// Advance to the leader's watermark with one `read_since` (counters
    /// filtered out for the OS pool, see [`PoolMirror`]). `visit` sees
    /// the reply before it is applied: the rows as they stand, the
    /// watermark the reply starts from, and the reply. A failed read
    /// leaves the mirror untouched, watermark still matching contents.
    /// Deletes are tombstones and a snapshot reply clears first, so a
    /// rebuild writes straight back into the column's slots; the
    /// upserts' slots are resolved in one pass.
    pub fn advance(
        &mut self,
        storage: &StorageService,
        dc: &DatacenterId,
        pool: &Pool,
        visit: impl FnOnce(&Column, Version, &StateDelta),
    ) -> StateResult<()> {
        let observed = matches!(pool, Pool::Observed);
        let delta = storage.read_since_where(dc, pool, self.watermark, |attribute| {
            !(observed && attribute.is_counter())
        })?;
        visit(&self.rows, self.watermark, &delta);
        self.watermark = delta.watermark;
        if delta.snapshot {
            self.rows.clear();
        }
        for key in &delta.deletes {
            self.rows.remove_var(key.var_id());
        }
        let slots = slot_registry().slots_of_rows(pool, &delta.upserts);
        for (slot, row) in slots.into_iter().zip(delta.upserts) {
            self.rows.upsert_at(slot, row);
        }
        Ok(())
    }
}

/// One pool read zero-copy out of its partition mirrors, optionally
/// narrowed to an impact group. A variable is homed in exactly one
/// partition, so the probe order cannot change a lookup's answer. The
/// mirrors hold every row of their partitions, so the group filter is
/// applied per hit — DC groups exclude their own border devices.
pub struct PartsView<'a> {
    parts: Vec<&'a Column>,
    group: Option<&'a ImpactGroup>,
}

impl<'a> PartsView<'a> {
    /// The union of `parts`, narrowed to `group` when one is given.
    pub fn new(parts: Vec<&'a Column>, group: Option<&'a ImpactGroup>) -> Self {
        PartsView { parts, group }
    }

    fn in_group(&self, row: &NetworkState) -> bool {
        self.group.iter().all(|g| g.contains(&row.entity))
    }

    /// Iterate every row in partition, then slot order — an order that
    /// follows interning history, not keys: for order-insensitive
    /// consumers only.
    pub fn rows(&self) -> impl Iterator<Item = &'a NetworkState> + '_ {
        self.parts
            .iter()
            .flat_map(|p| p.rows())
            .filter(|r| self.in_group(r))
    }
}

impl StateView for PartsView<'_> {
    fn get_var(&self, var: VarId) -> Option<&NetworkState> {
        self.parts
            .iter()
            .find_map(|p| p.get_var(var))
            .filter(|r| self.in_group(r))
    }
}

/// A delta layered over a base view. Lookups hit the overlay first.
pub struct OverlayView<'a, B: StateView + ?Sized> {
    base: &'a B,
    overlay: &'a MapView,
}

impl<'a, B: StateView + ?Sized> OverlayView<'a, B> {
    /// Layer `overlay` over `base`.
    pub fn new(base: &'a B, overlay: &'a MapView) -> Self {
        OverlayView { base, overlay }
    }
}

impl<B: StateView + ?Sized> StateView for OverlayView<'_, B> {
    fn get_var(&self, var: VarId) -> Option<&NetworkState> {
        self.overlay.get_var(var).or_else(|| self.base.get_var(var))
    }
}

/// Derive the effective health of every device and link in `graph` from an
/// observed-state view `os`, optionally projecting a target-state view
/// `ts` over it.
///
/// Rules (pessimistic about transitions):
///
/// * a device is down if its (projected) `DeviceAdminPower` is off;
/// * a device is *transitioning* — counted down — if the TS proposes a
///   different `DeviceFirmwareVersion` or `DeviceBootImage` than the OS
///   observes (the updater will reboot it);
/// * a link is down if its (projected) `LinkAdminPower` is off, or the OS
///   reports `LinkOperStatus` down (covers physical faults and
///   unreachable endpoints);
/// * down devices take their links down implicitly via
///   [`HealthView::link_usable`].
pub fn project_health(
    graph: &NetworkGraph,
    os: &dyn StateView,
    ts: Option<&dyn StateView>,
) -> HealthView {
    let mut health = HealthView::all_up();

    for (_, node) in graph.nodes() {
        let entity = EntityName::device(node.datacenter.clone(), node.name.clone());
        if device_projected_down(&entity, os, ts) {
            health.set_device_down(node.name.clone());
        }
    }

    for (_, edge) in graph.edges() {
        let entity = EntityName::link_named(edge.datacenter.clone(), edge.name.clone());
        if link_projected_down(&entity, os, ts) {
            health.set_link_down(edge.name.clone());
        }
    }

    health
}

/// The device projection rule (see [`project_health`]): admin power off,
/// or a pending firmware/boot transition (TS differs from OS).
pub fn device_projected_down(
    entity: &EntityName,
    os: &dyn StateView,
    ts: Option<&dyn StateView>,
) -> bool {
    // Projected admin power: TS wins if it says anything.
    let admin = ts
        .and_then(|t| t.value_of(entity, Attribute::DeviceAdminPower))
        .or_else(|| os.value_of(entity, Attribute::DeviceAdminPower));
    if let Some(v) = admin {
        if v.as_power().map(|p| !p.is_on()).unwrap_or(false) {
            return true;
        }
    }
    // Pending firmware/boot transitions imply an upcoming reboot.
    if let Some(ts) = ts {
        for attr in [Attribute::DeviceFirmwareVersion, Attribute::DeviceBootImage] {
            let target = ts.value_of(entity, attr);
            let observed = os.value_of(entity, attr);
            if let Some(target) = target {
                if Some(target) != observed {
                    return true;
                }
            }
        }
    }
    false
}

/// The link projection rule (see [`project_health`]): projected admin
/// power off, or observed oper-down.
pub fn link_projected_down(
    entity: &EntityName,
    os: &dyn StateView,
    ts: Option<&dyn StateView>,
) -> bool {
    let admin = ts
        .and_then(|t| t.value_of(entity, Attribute::LinkAdminPower))
        .or_else(|| os.value_of(entity, Attribute::LinkAdminPower));
    if let Some(v) = admin {
        if v.as_power().map(|p| !p.is_on()).unwrap_or(false) {
            return true;
        }
    }
    if let Some(v) = os.value_of(entity, Attribute::LinkOperStatus) {
        if v.as_oper().map(|o| !o.is_up()).unwrap_or(false) {
            return true;
        }
    }
    false
}

/// A reversible, entity-scoped health update: re-evaluate the projection
/// for just the entities a change reaches, remembering prior states so a
/// rejected candidate can be rolled back. This keeps checker passes
/// linear in proposal count instead of O(proposals × topology), and is
/// how a carried seed is brought up to date with a round's changes (the
/// blast-radius analogue of a full [`project_health`]).
#[derive(Debug, Default)]
pub struct HealthDelta {
    devices: Vec<(statesman_types::DeviceName, bool)>,
    links: Vec<(statesman_types::LinkName, bool)>,
}

impl HealthDelta {
    /// Re-run the projection rules for `entities` against `health`,
    /// recording prior states. Entities absent from the graph (and paths,
    /// which carry no health) are skipped; re-projecting an entity whose
    /// inputs did not change leaves it as it was.
    pub fn apply(
        graph: &NetworkGraph,
        os: &dyn StateView,
        ts: &dyn StateView,
        entities: &[EntityName],
        health: &mut HealthView,
    ) -> HealthDelta {
        let mut delta = HealthDelta::default();
        let mut seen_devices = std::collections::HashSet::new();
        let mut seen_links = std::collections::HashSet::new();
        for entity in entities {
            match entity.kind() {
                statesman_types::EntityKind::Device => {
                    let Some(dev) = entity.as_device() else {
                        continue;
                    };
                    if !seen_devices.insert(dev.clone()) || graph.node_id(dev).is_none() {
                        continue;
                    }
                    let was_down = !health.device_up(dev);
                    let now_down = device_projected_down(entity, os, Some(ts));
                    if was_down != now_down {
                        delta.devices.push((dev.clone(), was_down));
                        if now_down {
                            health.set_device_down(dev.clone());
                        } else {
                            health.set_device_up(dev);
                        }
                    }
                }
                statesman_types::EntityKind::Link => {
                    let Some(link) = entity.as_link() else {
                        continue;
                    };
                    if !seen_links.insert(link.clone()) || graph.edge_id(link).is_none() {
                        continue;
                    }
                    let was_down = !health.link_up(link);
                    let now_down = link_projected_down(entity, os, Some(ts));
                    if was_down != now_down {
                        delta.links.push((link.clone(), was_down));
                        if now_down {
                            health.set_link_down(link.clone());
                        } else {
                            health.set_link_up(link);
                        }
                    }
                }
                statesman_types::EntityKind::Path => {
                    // Paths do not carry device/link health.
                }
            }
        }
        delta
    }

    /// Roll the delta back (restore the recorded prior states).
    pub fn revert(self, health: &mut HealthView) {
        for (dev, was_down) in self.devices {
            if was_down {
                health.set_device_down(dev);
            } else {
                health.set_device_up(&dev);
            }
        }
        for (link, was_down) in self.links {
            if was_down {
                health.set_link_down(link);
            } else {
                health.set_link_up(&link);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_topology::DcnSpec;
    use statesman_types::{AppId, SimTime};

    fn os_row(entity: EntityName, attr: Attribute, value: Value) -> NetworkState {
        NetworkState::new(entity, attr, value, SimTime::ZERO, AppId::monitor())
    }

    fn dev(name: &str) -> EntityName {
        EntityName::device("dc1", name)
    }

    #[test]
    fn map_view_lookup_and_shadowing() {
        let v = MapView::from_rows([
            os_row(dev("a"), Attribute::DeviceFirmwareVersion, Value::text("1")),
            os_row(dev("a"), Attribute::DeviceFirmwareVersion, Value::text("2")),
        ]);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v.value_of(&dev("a"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("2"))
        );
        assert_eq!(v.value_of(&dev("a"), Attribute::DeviceBootImage), None);
    }

    #[test]
    fn columnar_view_round_trip() {
        // A mirror's column answers the point lookups the checker and
        // updater make: latest upsert wins, tombstones read as absent.
        let mut v = Column::new(Pool::Observed);
        let fw = |name: &str, value: &str| {
            os_row(
                dev(name),
                Attribute::DeviceFirmwareVersion,
                Value::text(value),
            )
        };
        v.upsert(fw("a", "1"));
        v.upsert(fw("a", "2"));
        v.upsert(os_row(
            dev("b"),
            Attribute::DeviceBootImage,
            Value::text("x"),
        ));
        let view: &dyn StateView = &v;
        assert_eq!(
            view.value_of(&dev("a"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("2"))
        );
        let key = StateKey::new(dev("b"), Attribute::DeviceBootImage);
        assert_eq!(view.get(&key).map(|r| &r.value), Some(&Value::text("x")));
        assert_eq!(view.value_of(&dev("a"), Attribute::DeviceBootImage), None);

        v.remove_var(key.var_id());
        let view: &dyn StateView = &v;
        assert_eq!(view.get(&key), None);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn columnar_view_snapshot_delta_replaces_contents() {
        // An index of four entries: a gap wider than that is answered by a
        // snapshot, which must clear what the mirror held before it.
        let clock = statesman_net::SimClock::new();
        let dc = DatacenterId::new("dc1");
        let mut config = statesman_storage::StorageConfig::default();
        config.ring.change_index_capacity = 4;
        let storage = StorageService::new([dc.clone()], clock, config);
        let write = |rows| {
            let pool = Pool::Observed;
            storage
                .write(statesman_storage::WriteRequest { pool, rows })
                .unwrap();
        };
        let fw = |name: &str| {
            os_row(
                dev(name),
                Attribute::DeviceFirmwareVersion,
                Value::text("1"),
            )
        };
        write(vec![fw("a")]);
        let mut mirror = PoolMirror::cold(&Pool::Observed);
        mirror
            .advance(&storage, &dc, &Pool::Observed, |_, _, _| {})
            .unwrap();

        let gone = StateKey::new(dev("a"), Attribute::DeviceFirmwareVersion);
        storage.delete(Pool::Observed, vec![gone.clone()]).unwrap();
        write((0..8).map(|i| fw(&format!("b{i}"))).collect());
        let mut snapshot = false;
        mirror
            .advance(&storage, &dc, &Pool::Observed, |_, _, delta| {
                snapshot = delta.snapshot;
            })
            .unwrap();
        assert!(snapshot, "the gap outran the change index");
        assert_eq!(mirror.view().get(&gone), None);
        assert_eq!(mirror.view().len(), 8);
        assert_eq!(
            mirror.watermark(),
            storage.pool_watermark(&dc, &Pool::Observed).unwrap()
        );
    }

    #[test]
    fn pool_mirror_follows_storage_and_parts_view_narrows_to_a_group() {
        let clock = statesman_net::SimClock::new();
        let storage = StorageService::single_dc("dc1", clock);
        let dc = DatacenterId::new("dc1");
        let write = |rows| {
            let pool = Pool::Observed;
            storage
                .write(statesman_storage::WriteRequest { pool, rows })
                .unwrap();
        };
        let fw = |name: &str, v: &str| {
            os_row(dev(name), Attribute::DeviceFirmwareVersion, Value::text(v))
        };
        write(vec![fw("agg-1-1", "1"), fw("br-1", "1")]);

        let mut mirror = PoolMirror::cold(&Pool::Observed);
        let mut seen = Vec::new();
        let mut advance = |mirror: &mut PoolMirror| {
            mirror
                .advance(&storage, &dc, &Pool::Observed, |before, since, delta| {
                    seen.push((before.len(), since, delta.upserts.len()));
                })
                .unwrap();
        };
        advance(&mut mirror);
        let head = mirror.watermark();
        advance(&mut mirror);
        // The visitor saw the rows as they stood before each reply.
        assert_eq!(seen, [(0, Version::default(), 2), (2, head, 0)]);

        // A DC group does not own the border router homed with it.
        let group = ImpactGroup::Datacenter(dc.clone());
        let all = PartsView::new(vec![mirror.view()], None);
        let own = PartsView::new(vec![mirror.view()], Some(&group));
        let border = VarId::of(&dev("br-1"), Attribute::DeviceFirmwareVersion);
        assert!(all.get_var(border).is_some() && own.get_var(border).is_none());
        assert_eq!((all.rows().count(), own.rows().count()), (2, 1));

        // Unavailable: the read fails and the mirror stays as it was.
        let mut mirror = PoolMirror::cold(&Pool::Observed);
        storage.set_partition_available(&dc, false);
        let failed = mirror.advance(&storage, &dc, &Pool::Observed, |_, _, _| {});
        assert!(failed.is_err() && mirror.view().is_empty());
        assert_eq!(mirror.watermark(), Version::default());
    }

    #[test]
    fn overlay_shadows_base() {
        let base = MapView::from_rows([os_row(
            dev("a"),
            Attribute::DeviceFirmwareVersion,
            Value::text("6.0"),
        )]);
        let over = MapView::from_rows([os_row(
            dev("a"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )]);
        let o = OverlayView::new(&base, &over);
        assert_eq!(
            o.value_of(&dev("a"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("7.0"))
        );
        // Fall-through for keys absent in overlay.
        let empty = MapView::new();
        let o2 = OverlayView::new(&base, &empty);
        assert_eq!(
            o2.value_of(&dev("a"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("6.0"))
        );
    }

    #[test]
    fn projection_all_up_by_default() {
        let g = DcnSpec::tiny("dc1").build();
        let os = MapView::new();
        let h = project_health(&g, &os, None);
        assert_eq!(h.outage_count(), 0);
    }

    #[test]
    fn projection_honors_admin_power() {
        let g = DcnSpec::tiny("dc1").build();
        let os = MapView::from_rows([os_row(
            dev("agg-1-1"),
            Attribute::DeviceAdminPower,
            Value::power(false),
        )]);
        let h = project_health(&g, &os, None);
        assert!(!h.device_up(&"agg-1-1".into()));
    }

    #[test]
    fn pending_firmware_transition_counts_device_down() {
        // The heart of safe upgrade merging: a TS firmware differing from
        // OS means the device is about to reboot.
        let g = DcnSpec::tiny("dc1").build();
        let os = MapView::from_rows([os_row(
            dev("agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("6.0"),
        )]);
        let ts = MapView::from_rows([os_row(
            dev("agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )]);
        let h = project_health(&g, &os, Some(&ts));
        assert!(!h.device_up(&"agg-1-1".into()));

        // Once OS catches up, the projection is clean again.
        let os2 = MapView::from_rows([os_row(
            dev("agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        )]);
        let h2 = project_health(&g, &os2, Some(&ts));
        assert!(h2.device_up(&"agg-1-1".into()));
    }

    #[test]
    fn projection_honors_link_state() {
        let g = DcnSpec::tiny("dc1").build();
        let link = statesman_types::LinkName::between("tor-1-1", "agg-1-1");
        let le = EntityName::link_named("dc1", link.clone());
        // Oper-down from the OS.
        let os = MapView::from_rows([os_row(
            le.clone(),
            Attribute::LinkOperStatus,
            Value::oper(false),
        )]);
        let h = project_health(&g, &os, None);
        assert!(!h.link_up(&link));

        // Admin-down proposed in the TS.
        let os2 = MapView::new();
        let ts = MapView::from_rows([os_row(le, Attribute::LinkAdminPower, Value::power(false))]);
        let h2 = project_health(&g, &os2, Some(&ts));
        assert!(!h2.link_up(&link));
    }

    #[test]
    fn apply_delta_upserts_deletes_and_snapshots() {
        let mut v = MapView::from_rows([
            os_row(dev("a"), Attribute::DeviceFirmwareVersion, Value::text("1")),
            os_row(dev("b"), Attribute::DeviceFirmwareVersion, Value::text("1")),
        ]);
        // Incremental: update a, delete b, add c.
        v.apply_delta(statesman_types::StateDelta::incremental(
            vec![
                os_row(dev("a"), Attribute::DeviceFirmwareVersion, Value::text("2")),
                os_row(dev("c"), Attribute::DeviceFirmwareVersion, Value::text("1")),
            ],
            vec![StateKey::new(dev("b"), Attribute::DeviceFirmwareVersion)],
            statesman_types::Version(7),
        ));
        assert_eq!(v.len(), 2);
        assert_eq!(
            v.value_of(&dev("a"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("2"))
        );
        assert_eq!(
            v.value_of(&dev("b"), Attribute::DeviceFirmwareVersion),
            None
        );
        // Snapshot: wholesale replacement.
        v.apply_delta(statesman_types::StateDelta::full_snapshot(
            vec![os_row(
                dev("z"),
                Attribute::DeviceFirmwareVersion,
                Value::text("9"),
            )],
            statesman_types::Version(9),
        ));
        assert_eq!(v.len(), 1);
        assert_eq!(
            v.value_of(&dev("z"), Attribute::DeviceFirmwareVersion),
            Some(&Value::text("9"))
        );
    }

    #[test]
    fn sorted_rows_are_deterministic() {
        let v = MapView::from_rows([
            os_row(dev("b"), Attribute::DeviceFirmwareVersion, Value::text("1")),
            os_row(dev("a"), Attribute::DeviceFirmwareVersion, Value::text("1")),
        ]);
        let rows = v.into_sorted_rows();
        assert!(rows[0].entity < rows[1].entity);
    }
}
