//! The `NetworkState` row, the OS/PS/TS pools, freshness modes, and
//! write receipts.
//!
//! Paper §6.4: "A NetworkState object consists of the entity name (i.e.,
//! the switch, link, or path name), the state variable name, the variable
//! value, and the last-update timestamp." Rows live in *pools*: the single
//! observed state (OS), one proposed state (PS) per application, and the
//! single target state (TS) (§2.1).
//!
//! Applications learn the fate of their proposals from [`WriteReceipt`]s:
//! "It also writes the acceptance or rejection results of the PSes to the
//! storage service, so applications can learn about the outcomes and react
//! accordingly" (§3).

use crate::entity::EntityName;
use crate::intern::VarId;
use crate::time::{SimTime, Version};
use crate::value::Value;
use crate::vars::Attribute;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Identifier of a management application (e.g. `"switch-upgrade"`,
/// `"failure-mitigation"`, `"inter-dc-te"`). Also used to name Statesman's
/// own components where they write state (the monitor writes the OS under
/// `AppId::monitor()`). Shared `Arc<str>`: a row copy bumps a refcount.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct AppId(pub Arc<str>);

impl AppId {
    /// Construct from any string-like name.
    pub fn new(name: impl Into<String>) -> Self {
        AppId(name.into().into())
    }

    /// The monitor component's writer identity.
    pub fn monitor() -> Self {
        AppId("statesman.monitor".into())
    }

    /// The checker component's writer identity (it writes the TS).
    pub fn checker() -> Self {
        AppId("statesman.checker".into())
    }

    /// The updater component's writer identity.
    pub fn updater() -> Self {
        AppId("statesman.updater".into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AppId {
    fn from(s: &str) -> Self {
        AppId(s.into())
    }
}

impl From<String> for AppId {
    fn from(s: String) -> Self {
        AppId(s.into())
    }
}

/// Which view of network state a row belongs to (paper §2.1; the `Pool`
/// parameter of the Table-3 API).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pool {
    /// Observed state — the latest view of the actual network, written by
    /// the monitor.
    Observed,
    /// Proposed state of one application.
    Proposed(AppId),
    /// Target state — the merged, invariant-checked state the updater
    /// drives the network toward.
    Target,
}

impl Pool {
    /// Wire encoding used by the HTTP API: `OS`, `PS:<app>`, `TS`. The
    /// fixed pools borrow — only `PS:<app>` genuinely needs to allocate.
    pub fn wire_name(&self) -> Cow<'static, str> {
        match self {
            Pool::Observed => Cow::Borrowed("OS"),
            Pool::Proposed(app) => Cow::Owned(format!("PS:{app}")),
            Pool::Target => Cow::Borrowed("TS"),
        }
    }

    /// Parse the wire encoding produced by [`Pool::wire_name`].
    pub fn parse_wire_name(s: &str) -> Option<Pool> {
        match s {
            "OS" => Some(Pool::Observed),
            "TS" => Some(Pool::Target),
            other => {
                let app = other.strip_prefix("PS:")?;
                if app.is_empty() {
                    return None;
                }
                Some(Pool::Proposed(AppId::new(app)))
            }
        }
    }
}

impl fmt::Display for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pool::Observed => f.write_str("OS"),
            Pool::Proposed(app) => write!(f, "PS:{app}"),
            Pool::Target => f.write_str("TS"),
        }
    }
}

/// Read freshness (paper §6.4, the `Freshness` parameter of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Freshness {
    /// Strictly current data — served by the partition leader (linearizable
    /// read). For applications like failure mitigation that must see
    /// failures as soon as possible.
    UpToDate,
    /// Bounded-stale data served from caches; the bound is the storage
    /// service's configured staleness window (5 minutes in the paper).
    /// "By allowing such applications to read from caches, we boost the
    /// read throughput of Statesman."
    BoundedStale,
}

impl Freshness {
    /// Wire encoding used by the HTTP API.
    pub fn wire_name(self) -> &'static str {
        match self {
            Freshness::UpToDate => "up-to-date",
            Freshness::BoundedStale => "bounded-stale",
        }
    }

    /// Parse the wire encoding.
    pub fn parse_wire_name(s: &str) -> Option<Freshness> {
        match s {
            "up-to-date" => Some(Freshness::UpToDate),
            "bounded-stale" => Some(Freshness::BoundedStale),
            _ => None,
        }
    }
}

impl fmt::Display for Freshness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// One network-state row: the unit the storage service stores and the
/// Table-3 API transfers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkState {
    /// The switch, link, or path the variable belongs to.
    pub entity: EntityName,
    /// The state-variable name.
    pub attribute: Attribute,
    /// The variable's value.
    pub value: Value,
    /// Last-update timestamp (simulated time).
    pub updated_at: SimTime,
    /// Who wrote the row (an application, or a Statesman component).
    pub writer: AppId,
    /// Storage-assigned version; `Version::GENESIS` until committed.
    #[serde(default)]
    pub version: Version,
}

impl NetworkState {
    /// Build an uncommitted row (version = GENESIS; the storage partition
    /// stamps the real version on commit).
    pub fn new(
        entity: EntityName,
        attribute: Attribute,
        value: Value,
        updated_at: SimTime,
        writer: AppId,
    ) -> Self {
        NetworkState {
            entity,
            attribute,
            value,
            updated_at,
            writer,
            version: Version::GENESIS,
        }
    }

    /// The storage key of this row: entity + attribute. Two rows with the
    /// same key in the same pool shadow each other (last committed wins).
    ///
    /// This clones the entity; hot paths should use the allocation-free
    /// [`NetworkState::key_ref`] (comparisons, sorts) or
    /// [`NetworkState::var_id`] (map keys) instead.
    pub fn key(&self) -> StateKey {
        StateKey {
            entity: self.entity.clone(),
            attribute: self.attribute,
        }
    }

    /// The borrowed form of [`NetworkState::key`]: orders and compares
    /// exactly like [`StateKey`] without cloning the entity.
    pub fn key_ref(&self) -> StateKeyRef<'_> {
        StateKeyRef {
            entity: &self.entity,
            attribute: self.attribute,
        }
    }

    /// The compact id of this row's variable (interning the entity on
    /// first sight). See [`crate::intern`] for the edge-resolution rule.
    pub fn var_id(&self) -> VarId {
        VarId::of(&self.entity, self.attribute)
    }

    /// Whether the row is well-formed: the attribute must apply to the
    /// entity's kind, and lock rows must carry lock values.
    pub fn is_well_formed(&self) -> bool {
        if !self.attribute.applies_to(self.entity.kind()) {
            return false;
        }
        if self.attribute.is_lock() {
            return matches!(self.value, Value::Lock(_) | Value::None);
        }
        true
    }
}

impl fmt::Display for NetworkState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} = {} ({} @{} {})",
            self.entity, self.attribute, self.value, self.writer, self.updated_at, self.version
        )
    }
}

/// The (entity, attribute) pair identifying one state variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateKey {
    /// The owning entity.
    pub entity: EntityName,
    /// The variable name.
    pub attribute: Attribute,
}

impl StateKey {
    /// Convenience constructor.
    pub fn new(entity: EntityName, attribute: Attribute) -> Self {
        StateKey { entity, attribute }
    }

    /// Borrow as a [`StateKeyRef`] (orders identically, no clone).
    pub fn as_ref(&self) -> StateKeyRef<'_> {
        StateKeyRef {
            entity: &self.entity,
            attribute: self.attribute,
        }
    }

    /// The compact id of this variable (interning the entity on first
    /// sight).
    pub fn var_id(&self) -> VarId {
        VarId::of(&self.entity, self.attribute)
    }
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.entity, self.attribute)
    }
}

/// The borrowed (entity, attribute) pair: compares and orders exactly like
/// [`StateKey`] — the fields are declared in the same order, so the
/// derived `Ord` agrees — without owning (or cloning) the entity. This is
/// what hot sorts and comparisons use; the canonical *wire* ordering of
/// the workspace is `StateKeyRef` order, never `VarId` numeric order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateKeyRef<'a> {
    /// The owning entity, borrowed.
    pub entity: &'a EntityName,
    /// The variable name.
    pub attribute: Attribute,
}

impl fmt::Display for StateKeyRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.entity, self.attribute)
    }
}

/// A versioned change set for one pool: everything that happened after
/// some watermark, as upserts plus tombstone deletes.
///
/// Produced by the storage layer's `read_since` path. Consumers hold a
/// snapshot of the pool plus the watermark it reflects; applying a delta
/// (deletes first, then upserts) advances the snapshot to `watermark`.
/// When the requested watermark has been compacted out of the change
/// index, the storage layer falls back to a full snapshot and sets
/// [`StateDelta::snapshot`] — the consumer must replace its view instead
/// of patching it. Either way the paper's semantics stay recoverable:
/// a delta-maintained view is always reconstructible from a full read.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateDelta {
    /// Rows created or modified after the watermark the caller supplied,
    /// at their *current* values. On a snapshot fallback: the whole pool.
    pub upserts: Vec<NetworkState>,
    /// Keys removed after the caller's watermark (empty on snapshots).
    pub deletes: Vec<StateKey>,
    /// The pool watermark this delta advances the consumer to.
    pub watermark: Version,
    /// True when the change index could not serve the request (the
    /// caller's watermark predates the compaction floor, or is ahead of
    /// this replica) and `upserts` is a complete pool snapshot.
    pub snapshot: bool,
}

impl StateDelta {
    /// An incremental delta (deterministically ordered by key).
    pub fn incremental(
        mut upserts: Vec<NetworkState>,
        mut deletes: Vec<StateKey>,
        watermark: Version,
    ) -> Self {
        upserts.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        deletes.sort();
        StateDelta {
            upserts,
            deletes,
            watermark,
            snapshot: false,
        }
    }

    /// A full-snapshot fallback (deterministically ordered by key).
    pub fn full_snapshot(mut rows: Vec<NetworkState>, watermark: Version) -> Self {
        rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        StateDelta {
            upserts: rows,
            deletes: Vec::new(),
            watermark,
            snapshot: true,
        }
    }

    /// True when applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        !self.snapshot && self.upserts.is_empty() && self.deletes.is_empty()
    }

    /// Rows touched (upserts + deletes; a snapshot counts its rows).
    pub fn changes(&self) -> usize {
        self.upserts.len() + self.deletes.len()
    }
}

impl fmt::Display for StateDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta(+{} -{} @{}{})",
            self.upserts.len(),
            self.deletes.len(),
            self.watermark,
            if self.snapshot { ", snapshot" } else { "" }
        )
    }
}

/// The fate of one proposed row after a checker pass (§3: acceptance or
/// rejection results written back for applications to react to).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteOutcome {
    /// Merged into the target state.
    Accepted,
    /// The proposal is a no-op: the OS already has the proposed value.
    AlreadySatisfied,
    /// Rejected: the variable is currently uncontrollable — some ancestor
    /// in the dependency model has an inappropriate observed value.
    RejectedUncontrollable {
        /// Human-readable reason naming the failing ancestor.
        reason: String,
    },
    /// Rejected: lost a conflict against another application's accepted
    /// proposal (or an existing lock).
    RejectedConflict {
        /// The application that won the conflict.
        winner: AppId,
        /// Human-readable detail.
        reason: String,
    },
    /// Rejected: merging would violate a network-wide invariant.
    RejectedInvariant {
        /// Name of the violated invariant.
        invariant: String,
        /// Human-readable detail.
        reason: String,
    },
    /// Rejected: the row was malformed (wrong entity kind, read-only
    /// attribute, stale basis version, …).
    RejectedInvalid {
        /// Human-readable detail.
        reason: String,
    },
}

impl WriteOutcome {
    /// True for `Accepted` (note: `AlreadySatisfied` is not an acceptance —
    /// nothing entered the TS).
    pub fn is_accepted(&self) -> bool {
        matches!(self, WriteOutcome::Accepted)
    }

    /// True for any `Rejected*` variant.
    pub fn is_rejected(&self) -> bool {
        !matches!(
            self,
            WriteOutcome::Accepted | WriteOutcome::AlreadySatisfied
        )
    }

    /// Short tag for scenario logs.
    pub fn tag(&self) -> &'static str {
        match self {
            WriteOutcome::Accepted => "accepted",
            WriteOutcome::AlreadySatisfied => "already-satisfied",
            WriteOutcome::RejectedUncontrollable { .. } => "rejected-uncontrollable",
            WriteOutcome::RejectedConflict { .. } => "rejected-conflict",
            WriteOutcome::RejectedInvariant { .. } => "rejected-invariant",
            WriteOutcome::RejectedInvalid { .. } => "rejected-invalid",
        }
    }
}

impl fmt::Display for WriteOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteOutcome::Accepted => f.write_str("accepted"),
            WriteOutcome::AlreadySatisfied => f.write_str("already satisfied"),
            WriteOutcome::RejectedUncontrollable { reason } => {
                write!(f, "rejected (uncontrollable: {reason})")
            }
            WriteOutcome::RejectedConflict { winner, reason } => {
                write!(f, "rejected (conflict, lost to {winner}: {reason})")
            }
            WriteOutcome::RejectedInvariant { invariant, reason } => {
                write!(f, "rejected (invariant {invariant}: {reason})")
            }
            WriteOutcome::RejectedInvalid { reason } => write!(f, "rejected (invalid: {reason})"),
        }
    }
}

/// The per-row receipt the checker writes back after processing a PS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WriteReceipt {
    /// The proposing application.
    pub app: AppId,
    /// The proposed row's key.
    pub key: StateKey,
    /// The value that was proposed.
    pub proposed: Value,
    /// What happened.
    pub outcome: WriteOutcome,
    /// When the checker decided (simulated time).
    pub decided_at: SimTime,
}

impl fmt::Display for WriteReceipt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} -> {}: {}",
            self.decided_at, self.app, self.key, self.outcome
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityName;

    #[test]
    fn pool_wire_round_trip() {
        for p in [
            Pool::Observed,
            Pool::Target,
            Pool::Proposed(AppId::new("inter-dc-te")),
        ] {
            assert_eq!(Pool::parse_wire_name(&p.wire_name()), Some(p.clone()));
        }
        assert_eq!(Pool::parse_wire_name("PS:"), None);
        assert_eq!(Pool::parse_wire_name("nope"), None);
    }

    #[test]
    fn freshness_wire_round_trip() {
        for fm in [Freshness::UpToDate, Freshness::BoundedStale] {
            assert_eq!(Freshness::parse_wire_name(fm.wire_name()), Some(fm));
        }
        assert_eq!(Freshness::parse_wire_name("eventual"), None);
    }

    #[test]
    fn well_formedness_checks_entity_kind() {
        let good = NetworkState::new(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            SimTime::ZERO,
            AppId::new("upgrade"),
        );
        assert!(good.is_well_formed());

        let bad = NetworkState::new(
            EntityName::link("dc1", "a", "b"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            SimTime::ZERO,
            AppId::new("upgrade"),
        );
        assert!(!bad.is_well_formed());
    }

    #[test]
    fn lock_rows_must_carry_lock_values() {
        let bad = NetworkState::new(
            EntityName::device("dc1", "br-1"),
            Attribute::EntityLock,
            Value::Int(1),
            SimTime::ZERO,
            AppId::new("te"),
        );
        assert!(!bad.is_well_formed());

        let release = NetworkState::new(
            EntityName::device("dc1", "br-1"),
            Attribute::EntityLock,
            Value::None,
            SimTime::ZERO,
            AppId::new("te"),
        );
        assert!(release.is_well_formed());
    }

    #[test]
    fn outcome_predicates() {
        assert!(WriteOutcome::Accepted.is_accepted());
        assert!(!WriteOutcome::AlreadySatisfied.is_accepted());
        assert!(!WriteOutcome::AlreadySatisfied.is_rejected());
        let rej = WriteOutcome::RejectedConflict {
            winner: AppId::new("upgrade"),
            reason: "high-priority lock".into(),
        };
        assert!(rej.is_rejected());
        assert_eq!(rej.tag(), "rejected-conflict");
    }

    #[test]
    fn delta_orders_rows_and_round_trips_json() {
        let a = NetworkState::new(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            SimTime::ZERO,
            AppId::monitor(),
        );
        let b = NetworkState::new(
            EntityName::device("dc1", "agg-1-2"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            SimTime::ZERO,
            AppId::monitor(),
        );
        let d = StateDelta::incremental(
            vec![b.clone(), a.clone()],
            vec![b.key(), a.key()],
            Version(9),
        );
        assert_eq!(d.upserts, vec![a.clone(), b.clone()]);
        assert_eq!(d.deletes, vec![a.key(), b.key()]);
        assert!(!d.is_empty());
        assert_eq!(d.changes(), 4);
        let back: StateDelta = serde_json::from_slice(&serde_json::to_vec(&d).unwrap()).unwrap();
        assert_eq!(back, d);

        let s = StateDelta::full_snapshot(vec![b, a], Version(9));
        assert!(s.snapshot);
        assert!(!s.is_empty(), "snapshots always replace the view");
        assert!(StateDelta::incremental(vec![], vec![], Version(9)).is_empty());
    }

    #[test]
    fn a_row_copy_shares_its_names() {
        use crate::entity::EntityBody;
        let writer = AppId::monitor();
        let device = NetworkState::new(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
            SimTime::ZERO,
            writer.clone(),
        );
        let link = NetworkState::new(
            EntityName::link("dc1", "tor-1-1", "agg-1-1"),
            Attribute::LinkOperStatus,
            Value::oper(true),
            SimTime::ZERO,
            writer.clone(),
        );
        assert!(Arc::ptr_eq(&writer.0, &device.writer.0));
        for row in [device, link] {
            let copy = row.clone();
            assert_eq!(copy, row);
            assert!(Arc::ptr_eq(
                &row.entity.datacenter.0,
                &copy.entity.datacenter.0
            ));
            assert!(Arc::ptr_eq(&row.writer.0, &copy.writer.0));
            match (&row.entity.body, &copy.entity.body) {
                (EntityBody::Device(d), EntityBody::Device(c)) => assert!(Arc::ptr_eq(&d.0, &c.0)),
                (EntityBody::Link(l), EntityBody::Link(c)) => {
                    assert!(Arc::ptr_eq(&l.a.0, &c.a.0));
                    assert!(Arc::ptr_eq(&l.b.0, &c.b.0));
                }
                other => panic!("body changed kind: {other:?}"),
            }
        }
    }

    #[test]
    fn state_key_display() {
        let k = StateKey::new(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceAdminPower,
        );
        assert_eq!(k.to_string(), "dc1/device/agg-1-1#DeviceAdminPower");
    }
}
