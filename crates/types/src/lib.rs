#![warn(missing_docs)]

//! # statesman-types
//!
//! Shared vocabulary for the Statesman network-state management service
//! (Sun et al., SIGCOMM 2014).
//!
//! Statesman abstracts the network as a set of *variable–value pairs*. Every
//! other crate in the workspace speaks in the terms defined here:
//!
//! * [`EntityName`] — the switch, link, or path a variable belongs to
//!   (paper §4.1, Table 2 "Entity" column).
//! * [`Attribute`] — the state-variable catalogue of Table 2, each with a
//!   [`Permission`] (ReadOnly counters vs ReadWrite control variables) and a
//!   [`DependencyLevel`] placing it in the Fig-4 dependency model.
//! * [`Value`] — the typed value space of those variables, from booleans
//!   (admin power) to flow–link routing rule sets.
//! * [`NetworkState`] — one row of the storage service: entity + attribute +
//!   value + last-update timestamp + writer, exactly the "NetworkState
//!   object" of §6.4.
//! * [`Pool`] — which view a row lives in: observed (OS), proposed (PS, one
//!   per application), or target (TS) (paper §2.1).
//! * [`Freshness`] — the up-to-date vs bounded-stale read modes of §6.4.
//!
//! The crate is dependency-light (only `serde`) so every subsystem — the
//! simulated network, the Paxos-backed store, the checker, the HTTP API —
//! can share it without cycles.

pub mod columnar;
pub mod entity;
pub mod error;
pub mod intern;
pub mod lock;
pub mod par;
pub mod retry;
pub mod state;
pub mod time;
pub mod value;
pub mod vars;

pub use columnar::{Column, ColumnIter, RowArena};
pub use entity::{
    DatacenterId, DeviceName, DeviceRole, EntityKind, EntityName, LinkName, PathName,
};
pub use error::{StateError, StateResult};
pub use intern::{
    interned_count, interner, key_resolutions, slot_registry, EntityId, SlotId, SlotRegistry, VarId,
};
pub use lock::{LockPriority, LockRecord};
pub use par::{default_worker_threads, WorkerPool};
pub use retry::RetryPolicy;
pub use state::{
    AppId, Freshness, NetworkState, Pool, StateDelta, StateKey, StateKeyRef, WriteOutcome,
    WriteReceipt,
};
pub use time::{SimDuration, SimTime, Version};
pub use value::{ControlPlaneMode, FlowLinkRule, OperStatus, PowerStatus, Value};
pub use vars::{Attribute, DependencyLevel, Permission};

#[cfg(test)]
mod integration_checks {
    //! Cross-module sanity checks that the vocabulary hangs together.
    use super::*;

    #[test]
    fn full_row_round_trips_through_json() {
        let row = NetworkState::new(
            EntityName::device("dc1", "agg-1-2"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.3.1"),
            SimTime::from_secs(42),
            AppId::new("switch-upgrade"),
        );
        let json = serde_json::to_string(&row).unwrap();
        let back: NetworkState = serde_json::from_str(&json).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn table2_catalogue_is_complete() {
        // Table 2 lists 18 example variables across path/link/device plus
        // our lock meta-attribute; make sure the catalogue exposes them all.
        assert!(Attribute::catalogue().len() >= 18);
        for attr in Attribute::catalogue() {
            // Every attribute must know its permission and level.
            let _ = attr.permission();
            let _ = attr.dependency_level();
            // And have a stable wire name that parses back.
            let name = attr.wire_name();
            assert_eq!(Attribute::parse_wire_name(name), Some(*attr), "{name}");
        }
    }
}
