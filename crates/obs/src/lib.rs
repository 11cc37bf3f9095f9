#![warn(missing_docs)]

//! # statesman-obs
//!
//! The observability subsystem: a lock-cheap [`Registry`] of counters,
//! gauges, and fixed-bucket histograms, plus a [`TraceRing`] of
//! structured [`RoundTrace`]s — one per coordinator tick, each carrying
//! the round's wall-clock [`Stage`] tree.
//!
//! The paper's operators run Statesman by watching latency breakdowns,
//! pool sizes, and per-app proposal outcomes (§8, Figs 8–10). This crate
//! is the single place those signals are collected: the monitor, checker,
//! updater, coordinator, storage service, network simulator, and HTTP API
//! all record into one shared [`Obs`] handle, and the redesigned v1 API
//! exports it (`GET /v1/metrics`, `GET /v1/status`).
//!
//! There is deliberately **no global mutable singleton**: an [`Obs`] is an
//! explicit, cheaply clonable value threaded into each component. Tests
//! and scenarios run isolated instances side by side, and a component
//! without an `Obs` simply records nothing.

pub mod registry;
pub mod stage;
pub mod trace;

pub use registry::{
    Counter, Gauge, Histogram, MetricSample, Registry, LATENCY_BUCKETS_MS, LATENCY_BUCKETS_US,
};
pub use stage::Stage;
pub use trace::{RoundTrace, TraceRing, DEFAULT_TRACE_CAPACITY};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Summary of the most recent storage-replica crash recovery, surfaced
/// in `GET /v1/status` so operators can see what the last restart did
/// (repaired a torn tail, refused a corrupt log, replayed N events)
/// without scraping replica logs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoverySummary {
    /// The storage partition (datacenter) the replica belongs to.
    pub partition: String,
    /// The recovered replica's id within its ring.
    pub replica: u8,
    /// Whether acknowledged durable state was refused as corrupt (the
    /// replica restarted from its snapshot alone and relied on leader
    /// catch-up).
    pub refused: bool,
    /// Torn tail records truncated and repaired during load.
    pub truncated_records: u64,
    /// WAL events replayed above the snapshot.
    pub replayed_events: u64,
    /// Apply frontier restored from the snapshot (1 when none existed).
    pub snapshot_frontier: u64,
    /// Decrees applied through after local replay, before leader catch-up.
    pub recovered_frontier: u64,
}

/// Live control-loop status beyond the metrics: the current quarantine
/// set, open circuit breakers, and degraded partitions. Updated by the
/// coordinator each tick; served by `GET /v1/status`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatusBoard {
    /// Devices currently quarantined by the monitor.
    pub quarantined: Vec<String>,
    /// Devices whose updater circuit breaker is currently open.
    pub breakers_open: Vec<String>,
    /// Storage partitions whose impact groups were skipped last round.
    pub degraded_partitions: Vec<String>,
    /// The last completed round index, if any round has run.
    pub last_round: Option<u64>,
    /// Distinct entity names in the process-wide interner (the compact
    /// state-plane symbol table).
    #[serde(default)]
    pub interned_entities: u64,
    /// Id → name resolutions performed during the last round (edge
    /// resolutions only: delta tombstones, receipts). A large value flags
    /// resolution creeping into a hot loop.
    #[serde(default)]
    pub key_resolutions_last_round: u64,
    /// Microseconds spent waiting for storage partition locks during the
    /// last round, summed across partitions. Near-zero when the sharded
    /// lock plan holds (each thread owns its partition); growth flags
    /// cross-partition contention sneaking back in.
    #[serde(default)]
    pub storage_lock_wait_us_last_round: u64,
    /// The most recent storage-replica crash recovery, if any replica has
    /// restarted since boot.
    #[serde(default)]
    pub last_recovery: Option<RecoverySummary>,
    /// Live row counts per pool (wire name → rows), summed across storage
    /// partitions. OS tracks the variable count; `PS:*` pools drain to
    /// zero as the checker consumes proposals.
    #[serde(default)]
    pub pool_rows: Vec<(String, u64)>,
    /// Approximate resident bytes per state variable in the columnar
    /// storage plane (slot vectors + occupancy bitmaps + row arenas,
    /// including value payloads; shared names are not counted). Zero when
    /// the plane is empty.
    #[serde(default)]
    pub state_bytes_per_var: f64,
    /// Update-plan steps synthesized last round (0 with planning off).
    #[serde(default)]
    pub plan_steps_last_round: usize,
    /// Dependency waves in last round's update plan.
    #[serde(default)]
    pub plan_waves_last_round: usize,
    /// Widest wave of last round's plan — its available parallelism.
    #[serde(default)]
    pub plan_max_width_last_round: usize,
    /// Steps withheld by an in-flight invariant check last round.
    #[serde(default)]
    pub plan_inflight_rejections_last_round: usize,
    /// Steps rolled back last round after every rendered command failed.
    #[serde(default)]
    pub plan_rollbacks_last_round: usize,
    /// Cumulative checker change-track full degrades (silent fallbacks
    /// to a full reseed) across every impact group since construction.
    #[serde(default)]
    pub checker_full_degrades: u64,
}

/// The shared observability handle: one registry, one trace ring, one
/// status board. Cheap to clone; all clones share state.
#[derive(Clone, Default)]
pub struct Obs {
    /// The metrics registry.
    pub registry: Registry,
    /// The round-trace ring buffer.
    pub traces: TraceRing,
    status: Arc<Mutex<StatusBoard>>,
}

impl Obs {
    /// A fresh observability handle with default trace capacity.
    pub fn new() -> Self {
        Obs::default()
    }

    /// Replace the status board (coordinator, once per tick).
    pub fn set_status(&self, board: StatusBoard) {
        *self.status.lock() = board;
    }

    /// The current status board.
    pub fn status(&self) -> StatusBoard {
        self.status.lock().clone()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("registry", &self.registry)
            .field("traces", &self.traces.len())
            .field("status", &self.status.lock())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_clones_share_everything() {
        let a = Obs::new();
        let b = a.clone();
        a.registry.counter("x_total").inc();
        a.traces.push(RoundTrace::default());
        a.set_status(StatusBoard {
            quarantined: vec!["agg-1-1".into()],
            ..StatusBoard::default()
        });
        assert_eq!(b.registry.counter_value("x_total"), Some(1));
        assert_eq!(b.traces.len(), 1);
        assert_eq!(b.status().quarantined, vec!["agg-1-1".to_string()]);
    }
}
