//! Structured round tracing: one [`RoundTrace`] per coordinator tick,
//! kept in a bounded ring buffer.
//!
//! The paper's operators debug Statesman with latency breakdowns and
//! per-app proposal outcomes (§8, Figs 8–10). A `RoundTrace` is the
//! machine-readable record of one control round — its wall-clock
//! [`Stage`] tree, retries, quarantines, degraded partitions, and checker accept/reject
//! counts with reasons — and the [`TraceRing`] holds the last N of them
//! so `/v1/status` can answer "what has the loop been doing lately?"
//! without a log scrape.

use crate::Stage;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Default ring capacity (rounds are minutes; 64 traces ≈ an hour).
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// One coordinator tick, structured.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Monotone round index (per coordinator).
    pub round: u64,
    /// Simulated time at tick start, milliseconds.
    pub at_ms: u64,
    /// Where the round's host wall time went: `tick → monitor {poll,
    /// diff, write} → checker[group] → updater {read, diff, exec}`, the
    /// seed round's `write` split further into the bulk seed's stages.
    #[serde(default)]
    pub stages: Stage,
    /// Devices successfully polled.
    pub devices_polled: usize,
    /// Devices that timed out this round.
    pub devices_unreachable: usize,
    /// Devices skipped under quarantine.
    pub devices_quarantined: usize,
    /// The quarantine set at tick time (device names).
    pub quarantined: Vec<String>,
    /// Impact groups skipped because their storage partition was down.
    pub skipped_groups: Vec<String>,
    /// True if any group was skipped (degraded round).
    pub degraded: bool,
    /// Proposal rows the checkers processed.
    pub proposals_seen: usize,
    /// Rows merged into the TS.
    pub accepted: usize,
    /// Rows rejected (all reasons).
    pub rejected: usize,
    /// Rows that were no-ops against the OS.
    pub already_satisfied: usize,
    /// Rows rejected for touching a quarantined device.
    pub quarantine_rejected: usize,
    /// Rejections by reason kind (`invalid`, `conflict`, `invariant`,
    /// `uncontrollable`).
    pub reject_reasons: BTreeMap<String, usize>,
    /// OS/TS differences the updater saw.
    pub updater_diffs: usize,
    /// Commands accepted by devices.
    pub commands_applied: usize,
    /// Commands that failed (after in-round retries).
    pub commands_failed: usize,
    /// In-round updater retries.
    pub updater_retries: usize,
    /// Commands skipped on an open circuit breaker.
    pub breaker_skips: usize,
    /// Circuit breakers tripped open this round.
    pub breakers_opened: usize,
    /// Devices whose breaker is open at round end.
    pub breakers_open: Vec<String>,
    /// Cumulative storage submit retries at round end.
    pub storage_retries: u64,
    /// Cumulative storage submits that exhausted their budget.
    pub storage_retries_exhausted: u64,
    /// OS rows the monitor actually wrote this round (delta path).
    #[serde(default)]
    pub rows_written: usize,
    /// OS rows the monitor suppressed as value-identical this round.
    #[serde(default)]
    pub writes_suppressed: usize,
    /// Cumulative storage reads served from the change index.
    #[serde(default)]
    pub delta_reads: u64,
    /// Cumulative delta reads that fell back to a full snapshot.
    #[serde(default)]
    pub full_fallbacks: u64,
    /// Worst-case versions between a leader OS watermark and the
    /// updater's cached view of it at round end.
    #[serde(default)]
    pub watermark_lag: u64,
    /// Update-plan steps synthesized this round (0 with planning off).
    #[serde(default)]
    pub plan_steps: usize,
    /// Dependency waves in this round's update plan.
    #[serde(default)]
    pub plan_waves: usize,
    /// Widest wave — the plan's available parallelism.
    #[serde(default)]
    pub plan_max_width: usize,
    /// Steps withheld by an in-flight invariant check this round.
    #[serde(default)]
    pub plan_inflight_rejections: usize,
    /// Steps rolled back after every rendered command failed.
    #[serde(default)]
    pub plan_rollbacks: usize,
}

/// A bounded ring of the most recent [`RoundTrace`]s. Cheap to clone; all
/// clones share the buffer.
#[derive(Clone, Debug)]
pub struct TraceRing {
    inner: Arc<Mutex<VecDeque<RoundTrace>>>,
    capacity: usize,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// A ring holding at most `capacity` traces (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Append a trace, evicting the oldest when full.
    pub fn push(&self, trace: RoundTrace) {
        let mut q = self.inner.lock();
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(trace);
    }

    /// The most recent trace.
    pub fn last(&self) -> Option<RoundTrace> {
        self.inner.lock().back().cloned()
    }

    /// The most recent `n` traces, oldest first.
    pub fn recent(&self, n: usize) -> Vec<RoundTrace> {
        let q = self.inner.lock();
        q.iter().rev().take(n).rev().cloned().collect()
    }

    /// Traces currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no trace has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(round: u64) -> RoundTrace {
        RoundTrace {
            round,
            stages: Stage::new("tick", 10.0 * round as f64),
            ..RoundTrace::default()
        }
    }

    #[test]
    fn ring_keeps_the_newest_n() {
        let ring = TraceRing::new(3);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(trace(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.last().unwrap().round, 4);
        let recent: Vec<u64> = ring.recent(2).iter().map(|t| t.round).collect();
        assert_eq!(recent, vec![3, 4]);
        let all: Vec<u64> = ring.recent(100).iter().map(|t| t.round).collect();
        assert_eq!(all, vec![2, 3, 4]);
    }

    #[test]
    fn trace_serializes_and_round_trips() {
        let mut t = trace(7);
        t.reject_reasons.insert("invariant".into(), 2);
        t.quarantined.push("agg-1-1".into());
        let json = serde_json::to_string(&t).unwrap();
        let back: RoundTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.stages.ms, 70.0);
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = TraceRing::new(4);
        let b = a.clone();
        a.push(trace(1));
        assert_eq!(b.len(), 1);
    }
}
