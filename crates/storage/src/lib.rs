#![warn(missing_docs)]

//! # statesman-storage
//!
//! The Statesman storage service: a globally available, partitioned,
//! replicated store of `NetworkState` rows.
//!
//! Paper §6.1: manipulating all variables in a single Paxos ring "would
//! impose a heavy message-exchange load ... WAN latencies will hurt the
//! scalability and performance of Statesman. Therefore, we break a big
//! Paxos ring into independent smaller rings for each datacenter," fronted
//! by "a globally available proxy layer that provides uniform access".
//!
//! This crate builds that design from scratch:
//!
//! * [`paxos`] — single-leader multi-decree Paxos: ballots, prepare/promise,
//!   accept/accepted, commit broadcast, recovery of previously accepted
//!   values after leader change;
//! * [`bus`] — a virtual-time message bus with per-link latency, loss and
//!   partition injection, so consensus latency is *simulated*, not assumed;
//! * [`cluster`] — a pump-driven Paxos ring of N replicas exposing
//!   `submit → committed` with measured (virtual) commit latencies;
//! * [`machine`] — the replicated state machine: OS/PS/TS pools of
//!   versioned rows plus each application's queue of checker receipts,
//!   acknowledged through the log like every other change;
//! * [`service`] — the per-DC partitioning, the proxy that routes entities
//!   to rings, and the §6.4 freshness modes (up-to-date reads served from
//!   the ring; bounded-stale reads served from a cache);
//! * [`wal`] — the per-replica durable write-ahead log: CRC32 + length
//!   framing, a `prev_hash` chain, and snapshot compaction;
//! * [`snapshot`] — durable pool-state snapshots at committed decree
//!   boundaries;
//! * [`recovery`] — crash-restart reconstruction (repair a torn tail,
//!   refuse corruption) plus the recovery-safety and hash-chain checkers
//!   the chaos harness asserts.

pub mod bus;
pub mod cluster;
pub mod machine;
pub mod paxos;
pub mod recovery;
pub mod service;
pub mod snapshot;
pub mod wal;

pub use cluster::{ClusterConfig, PaxosCluster};
pub use machine::{BulkStats, LogCommand, StateMachine};
pub use recovery::{HashChainChecker, RecoveryReport, RecoverySafetyChecker};
pub use service::{ReadRequest, SeedStats, StorageConfig, StorageService, WriteRequest};
pub use wal::{DurabilityMode, ReplicaStore, WalCorruption, WalStats};
