//! Durable pool-state snapshots for WAL compaction.
//!
//! A [`Snapshot`] captures everything a replica needs below a committed
//! decree boundary: the materialized [`StateMachine`] image, the apply
//! frontier, and the acceptor's promised ballot *at compaction time* (a
//! promise made after the previous snapshot would otherwise be lost when
//! the log prefix holding its `Promise` record is truncated).
//!
//! Snapshots come in two shapes, matched to the WAL backend
//! ([`crate::wal::DurabilityMode`]):
//!
//! * **live** — a structural clone of the machine, used by the in-memory
//!   logical backend so the default (bench-comparable) path never pays
//!   for serialization. The clone shares every column chunk with the
//!   live machine (copy-on-write, see `statesman_types::Column`): taking
//!   it copies slot maps and bitmaps, and the live machine's first write
//!   to each shared chunk copies that chunk;
//! * **encoded** — a canonical [`MachineSnapshot`] serialized to bytes,
//!   used by the framed backends, where the snapshot payload also anchors
//!   the WAL's hash chain ([`crate::wal::chain_hash`] of the payload from
//!   zero).

use crate::machine::{MachineSnapshot, StateMachine};
use crate::paxos::{Ballot, Slot};
use serde::{Deserialize, Serialize};

/// The machine image inside a snapshot: live clone or canonical encoding.
#[derive(Debug, Clone)]
pub enum MachineImage {
    /// A structural clone sharing the machine's column chunks
    /// (logical/in-memory backend only).
    Live(StateMachine),
    /// A canonical serializable image (framed backends).
    Encoded(MachineSnapshot),
}

/// A durable snapshot at a committed decree boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The apply frontier at snapshot time: every slot below it is folded
    /// into [`Snapshot::image`]; the WAL tail holds slots at or above it.
    pub frontier: Slot,
    /// The acceptor's promised ballot at *compaction* time (not frontier
    /// time) — promises must survive log truncation.
    pub promised: Ballot,
    /// The materialized state below the frontier.
    pub image: MachineImage,
}

impl Snapshot {
    /// Materialize the machine held by this snapshot.
    pub fn machine(&self) -> StateMachine {
        match &self.image {
            MachineImage::Live(m) => m.clone(),
            MachineImage::Encoded(s) => StateMachine::from_snapshot(s),
        }
    }
}

/// The serialized (wire/disk) form of a snapshot, used by framed WAL
/// backends. Field order and the canonical [`MachineSnapshot`] ordering
/// make the encoding deterministic, so the hash-chain anchor derived from
/// the payload is stable across runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotWire {
    /// See [`Snapshot::frontier`].
    pub frontier: Slot,
    /// See [`Snapshot::promised`].
    pub promised: Ballot,
    /// Canonical machine image.
    pub machine: MachineSnapshot,
}

impl SnapshotWire {
    /// Build the wire form from a snapshot (encoding a live image if
    /// needed).
    pub fn from_snapshot(snap: &Snapshot) -> SnapshotWire {
        SnapshotWire {
            frontier: snap.frontier,
            promised: snap.promised,
            machine: match &snap.image {
                MachineImage::Live(m) => m.to_snapshot(),
                MachineImage::Encoded(s) => s.clone(),
            },
        }
    }

    /// Convert back into an in-memory [`Snapshot`].
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            frontier: self.frontier,
            promised: self.promised,
            image: MachineImage::Encoded(self.machine),
        }
    }
}
