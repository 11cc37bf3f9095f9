//! A pump-driven Paxos ring: replicas + virtual-time bus + client API.
//!
//! [`PaxosCluster`] is the unit the storage service instantiates once per
//! datacenter (§6.1). It owns N [`Replica`]s and a [`MessageBus`], elects
//! and re-elects leaders, submits client commands with bounded retry
//! (retransmitting lost `Accept`s), and records *virtual* commit latencies
//! so benches can compare intra-DC rings against a WAN-spanning global
//! ring on equal footing.

use crate::bus::{LatencyModel, MessageBus, Micros, ReplicaId};
use crate::machine::{LogCommand, MachineSnapshot, StateMachine};
use crate::paxos::{PaxosMsg, Replica, Slot};
use crate::recovery::{self, RecoveryReport};
use crate::wal::{DurabilityMode, ReplicaStore, WalCorruption, WalStats};
use statesman_types::{StateError, StateResult};

/// Ring construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replicas (use odd; 3 in deployment-like setups).
    pub replicas: usize,
    /// Inter-replica latency model.
    pub latency: LatencyModel,
    /// Message drop probability.
    pub drop_prob: f64,
    /// RNG seed for the bus.
    pub seed: u64,
    /// Max submit retries (each retransmits uncommitted accepts).
    pub max_retries: usize,
    /// WAL backend for every replica in this ring.
    pub durability: DurabilityMode,
    /// Snapshot-compaction cadence in committed decrees.
    pub snapshot_every: u64,
    /// Per-pool change-index bound on every replica's state machine.
    /// Size it above the fabric's per-round churn (a 4M-variable fabric
    /// walks ~164K telemetry rows a round) or every `read_since` falls
    /// back to the snapshot path and the incremental checker reseeds
    /// from scratch each pass.
    pub change_index_capacity: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            latency: LatencyModel::intra_dc(),
            drop_prob: 0.0,
            seed: 1,
            max_retries: 8,
            durability: DurabilityMode::Memory,
            snapshot_every: 256,
            change_index_capacity: crate::machine::CHANGE_INDEX_CAPACITY,
        }
    }
}

impl ClusterConfig {
    /// A 3-replica intra-DC ring.
    pub fn intra_dc(seed: u64) -> Self {
        ClusterConfig {
            seed,
            ..Default::default()
        }
    }

    /// A ring whose replicas are spread across the WAN — the design §6.1
    /// rejects; used by the `storage_partitioning` bench.
    pub fn global_wan(seed: u64) -> Self {
        ClusterConfig {
            latency: LatencyModel::wan(),
            seed,
            ..Default::default()
        }
    }
}

/// Log slots retained below the apply frontier for peer catch-up;
/// replicas further behind are caught up by snapshot on restart.
const LOG_KEEP_LAST: u64 = 128;

/// One replicated storage ring.
pub struct PaxosCluster {
    replicas: Vec<Replica>,
    /// Per-replica durable stores. Held by the cluster (not only by the
    /// replica) so the "disk" survives a kill -9 dropping the replica.
    stores: Vec<ReplicaStore>,
    bus: MessageBus<PaxosMsg>,
    leader: Option<ReplicaId>,
    config: ClusterConfig,
    /// Virtual commit latency of every successful submit, µs.
    commit_latencies: Vec<Micros>,
    /// Next client request id (ring-unique; used for failover dedupe).
    next_request_id: u64,
    /// Report from the most recent replica recovery.
    last_recovery: Option<RecoveryReport>,
}

impl PaxosCluster {
    /// Build and immediately elect replica 0. Every replica is constructed
    /// through the recovery path, so a ring pointed at a directory with
    /// pre-existing WAL/snapshot files resumes from them (a full-process
    /// restart).
    pub fn new(config: ClusterConfig) -> Self {
        let stores: Vec<ReplicaStore> = (0..config.replicas as u8)
            .map(|i| ReplicaStore::new(&config.durability, ReplicaId(i)))
            .collect();
        let replicas: Vec<Replica> = stores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut r = recovery::recover(ReplicaId(i as u8), config.replicas, s).0;
                r.machine
                    .set_change_index_capacity(config.change_index_capacity);
                r
            })
            .collect();
        // A ring resumed from disk must not reuse a request id its
        // replicas already hold: the machine skips a duplicate id, so
        // the new command would be acknowledged and never applied.
        let next_request_id = replicas
            .iter()
            .map(Replica::max_request_id)
            .max()
            .unwrap_or(0)
            + 1;
        let mut bus = MessageBus::new(config.latency.clone(), config.seed);
        bus.drop_prob = config.drop_prob;
        let mut cluster = PaxosCluster {
            replicas,
            stores,
            bus,
            leader: None,
            config,
            commit_latencies: Vec::new(),
            next_request_id,
            last_recovery: None,
        };
        cluster.ensure_leader();
        cluster
    }

    /// The current leader id, if an election has succeeded.
    pub fn leader(&self) -> Option<ReplicaId> {
        self.leader
    }

    /// Deliver messages until the bus is quiet.
    fn pump(&mut self) {
        while let Some((from, to, msg)) = self.bus.recv() {
            if self.bus.is_crashed(to) {
                continue;
            }
            let out = self.replicas[to.0 as usize].handle(from, msg);
            for (dest, m) in out {
                self.bus.send(to, dest, m);
            }
        }
    }

    /// Make sure some live replica leads; elect the lowest live id if not.
    /// Elections themselves ride the lossy bus, so each candidate gets
    /// retried up to `max_retries` rounds before giving up (a real
    /// deployment's election timeout loop).
    pub fn ensure_leader(&mut self) {
        if let Some(l) = self.leader {
            if !self.bus.is_crashed(l) && self.replicas[l.0 as usize].is_leader() {
                return;
            }
        }
        self.leader = None;
        for _round in 0..=self.config.max_retries {
            // Try live replicas in id order until one wins.
            for i in 0..self.replicas.len() {
                let id = ReplicaId(i as u8);
                if self.bus.is_crashed(id) {
                    continue;
                }
                let out = self.replicas[i].start_election();
                for (dest, m) in out {
                    self.bus.send(id, dest, m);
                }
                self.pump();
                if self.replicas[i].is_leader() {
                    self.leader = Some(id);
                    return;
                }
            }
        }
    }

    /// Submit a command; blocks (pumping the virtual network) until the
    /// command commits or retries are exhausted.
    ///
    /// The command is wrapped with a ring-unique request id, so if a
    /// leader is deposed mid-commit the command is safely re-proposed
    /// through the new leader — should the original instance *also*
    /// survive via recovery, the state machine deduplicates the apply.
    pub fn submit(&mut self, cmd: LogCommand) -> StateResult<Slot> {
        // Group commit: a single submit drives many WAL appends per
        // replica (promises, accepts, the commit record). Buffer them and
        // land each replica's group with one fsync when the submit
        // resolves — the caller is only acknowledged after end_group, so
        // durability at ack time is unchanged.
        for (i, s) in self.stores.iter().enumerate() {
            if !self.bus.is_crashed(ReplicaId(i as u8)) {
                s.begin_group();
            }
        }
        let result = self.submit_inner(cmd);
        for (i, s) in self.stores.iter().enumerate() {
            if !self.bus.is_crashed(ReplicaId(i as u8)) {
                s.end_group();
            }
        }
        result
    }

    fn submit_inner(&mut self, cmd: LogCommand) -> StateResult<Slot> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let tagged = LogCommand::Tagged {
            id,
            inner: Box::new(cmd),
        };
        let started = self.bus.now();
        let mut last_err = None;
        for _attempt in 0..=self.config.max_retries {
            self.ensure_leader();
            match self.try_commit(tagged.clone()) {
                Ok(slot) => {
                    self.commit_latencies.push(self.bus.now() - started);
                    // Bound log growth: retain an in-RAM catch-up window,
                    // and let each live replica fold its durable log into
                    // a snapshot when the compaction cadence is due.
                    // Crashed replicas are frozen: their stores must stay
                    // exactly as the dying process left them.
                    for (i, r) in self.replicas.iter_mut().enumerate() {
                        if !self.bus.is_crashed(ReplicaId(i as u8)) {
                            r.compact(LOG_KEEP_LAST);
                            r.maybe_snapshot(self.config.snapshot_every);
                        }
                    }
                    return Ok(slot);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| StateError::StorageUnavailable {
            partition: "ring".into(),
            reason: "no quorum".into(),
        }))
    }

    /// One commit attempt through the current leader.
    fn try_commit(&mut self, cmd: LogCommand) -> StateResult<Slot> {
        let Some(leader) = self.leader else {
            return Err(StateError::StorageUnavailable {
                partition: "ring".into(),
                reason: "no quorum for leader election".into(),
            });
        };
        let mut out = Vec::new();
        let slot = self.replicas[leader.0 as usize]
            .propose(cmd, &mut out)
            .expect("leader accepts proposals");
        for (dest, m) in out {
            self.bus.send(leader, dest, m);
        }
        self.pump();

        let mut tries = 0;
        while !self.replicas[leader.0 as usize].slot_committed(slot) {
            if tries >= self.config.max_retries {
                return Err(StateError::StorageUnavailable {
                    partition: "ring".into(),
                    reason: format!("slot {slot} failed to commit after {tries} retries"),
                });
            }
            tries += 1;
            // Leadership may have been usurped meanwhile; the outer
            // submit loop re-elects and re-proposes (dedup makes that
            // safe).
            if !self.replicas[leader.0 as usize].is_leader() {
                self.leader = None;
                return Err(StateError::StorageUnavailable {
                    partition: "ring".into(),
                    reason: "leader deposed mid-commit".into(),
                });
            }
            let mut out = Vec::new();
            self.replicas[leader.0 as usize].retransmit(&mut out);
            for (dest, m) in out {
                self.bus.send(leader, dest, m);
            }
            self.pump();
        }
        Ok(slot)
    }

    /// Read access to the leader's state machine (the up-to-date view).
    /// Errors when no leader can be elected.
    pub fn leader_machine(&mut self) -> StateResult<&StateMachine> {
        self.ensure_leader();
        match self.leader {
            Some(l) => Ok(&self.replicas[l.0 as usize].machine),
            None => Err(StateError::StorageUnavailable {
                partition: "ring".into(),
                reason: "no leader".into(),
            }),
        }
    }

    /// A follower's (possibly stale) machine — models reading a cache
    /// replica.
    pub fn any_machine(&self) -> &StateMachine {
        // Prefer a non-leader replica to make staleness observable — but
        // never a crashed one: a killed replica's in-RAM husk is empty,
        // not stale, and must not serve bounded-stale reads.
        for (i, r) in self.replicas.iter().enumerate() {
            let id = ReplicaId(i as u8);
            if Some(id) != self.leader && !self.bus.is_crashed(id) {
                return &r.machine;
            }
        }
        let fallback = self.leader.map(|l| l.0 as usize).unwrap_or(0);
        &self.replicas[fallback].machine
    }

    /// Sever the network between two replicas (both directions); messages
    /// between them are dropped until [`PaxosCluster::heal_partitions`].
    pub fn partition_replicas(&mut self, a: ReplicaId, b: ReplicaId) {
        self.bus.partition(a, b);
    }

    /// Heal all network partitions.
    pub fn heal_partitions(&mut self) {
        self.bus.heal();
    }

    /// Crash a replica (drops traffic; durable state preserved).
    pub fn crash(&mut self, id: ReplicaId) {
        self.bus.crash(id);
        if self.leader == Some(id) {
            self.leader = None;
        }
    }

    /// Kill -9 a replica: traffic drops AND every byte of in-RAM state is
    /// gone — the slot holds an empty store-less husk until
    /// [`PaxosCluster::restart`] rebuilds it from the durable store, which
    /// is the only thing that survives.
    pub fn kill9(&mut self, id: ReplicaId) {
        self.bus.crash(id);
        self.replicas[id.0 as usize] = Replica::new(id, self.config.replicas);
        if self.leader == Some(id) {
            self.leader = None;
        }
    }

    /// Inject corruption into a crashed replica's durable store (chaos
    /// harness; models what recovery finds on disk after the crash).
    pub fn corrupt_store(&mut self, id: ReplicaId, corruption: &WalCorruption) {
        debug_assert!(
            self.bus.is_crashed(id),
            "corruption is only injected into crashed replicas"
        );
        self.stores[id.0 as usize].inject(corruption);
    }

    /// Restart a crashed replica through the recovery module: replay
    /// snapshot + WAL tail (repairing a torn final record, refusing a
    /// corrupted log), then rejoin the ring — if the ring has moved past
    /// the recovered frontier, the leader ships a snapshot (state
    /// transfer) exactly as before.
    pub fn restart(&mut self, id: ReplicaId) {
        self.bus.restart(id);
        let (mut replica, report) =
            recovery::recover(id, self.config.replicas, &self.stores[id.0 as usize]);
        replica
            .machine
            .set_change_index_capacity(self.config.change_index_capacity);
        self.replicas[id.0 as usize] = replica;
        self.last_recovery = Some(report);
        self.ensure_leader();
        if let Some(leader) = self.leader {
            if leader != id {
                let frontier = self.replicas[leader.0 as usize].applied_through() + 1;
                if self.replicas[id.0 as usize].applied_through() + 1 < frontier {
                    let machine = self.replicas[leader.0 as usize].machine.clone();
                    self.replicas[id.0 as usize].install_snapshot(machine, frontier);
                }
            }
        }
    }

    /// Whether a replica is currently crashed.
    pub fn is_crashed(&self, id: ReplicaId) -> bool {
        self.bus.is_crashed(id)
    }

    /// Aggregated WAL counters across all replica stores.
    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for s in &self.stores {
            total.merge(&s.stats());
        }
        total
    }

    /// One replica's WAL counters (per-replica `wal_tail_decree` gauge).
    pub fn replica_wal_stats(&self, id: ReplicaId) -> WalStats {
        self.stores[id.0 as usize].stats()
    }

    /// Verify every store's snapshot + log pair end to end; returns total
    /// records verified. Callers should skip stores of currently-crashed
    /// replicas if corruption was injected and not yet recovered.
    pub fn verify_chains(&self) -> Result<u64, String> {
        let mut n = 0;
        for (i, s) in self.stores.iter().enumerate() {
            n += s.verify_chain().map_err(|e| format!("r{i}: {e}"))?;
        }
        Ok(n)
    }

    /// A clone-handle to one replica's durable store (tests).
    pub fn store(&self, id: ReplicaId) -> ReplicaStore {
        self.stores[id.0 as usize].clone()
    }

    /// Report from the most recent replica recovery, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Direct read access to one replica's machine (recovery-equivalence
    /// tests).
    pub fn replica_machine(&self, id: ReplicaId) -> &StateMachine {
        &self.replicas[id.0 as usize].machine
    }

    /// Recorded virtual commit latencies, µs.
    pub fn commit_latencies(&self) -> &[Micros] {
        &self.commit_latencies
    }

    /// Mean commit latency, µs (0 if none).
    pub fn mean_commit_latency(&self) -> f64 {
        if self.commit_latencies.is_empty() {
            return 0.0;
        }
        self.commit_latencies.iter().sum::<u64>() as f64 / self.commit_latencies.len() as f64
    }

    /// (sent, dropped) bus counters.
    pub fn bus_stats(&self) -> (u64, u64) {
        (self.bus.sent, self.bus.dropped)
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// A given replica's applied-through slot (for replication tests).
    pub fn applied_through(&self, id: ReplicaId) -> Slot {
        self.replicas[id.0 as usize].applied_through()
    }

    /// Replica determinism: every live replica that has applied the same
    /// decree holds the same machine. The log is the only way to change
    /// a replica, so two canonical images ([`StateMachine::to_snapshot`])
    /// at one frontier must be equal; a difference means something wrote
    /// to one replica's machine outside `apply`, snapshot install and
    /// recovery. Crashed replicas are skipped (a killed one is an empty
    /// husk until it recovers). Returns how many replica pairs were
    /// compared, or a description of the first pair that differs.
    pub fn check_replica_determinism(&self) -> Result<usize, String> {
        let live: Vec<(usize, Slot, MachineSnapshot)> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.bus.is_crashed(ReplicaId(*i as u8)))
            .map(|(i, r)| (i, r.applied_through(), r.machine.to_snapshot()))
            .collect();
        let mut pairs = 0;
        for (k, (a, through, image)) in live.iter().enumerate() {
            for (b, other_through, other) in &live[k + 1..] {
                if through != other_through {
                    continue;
                }
                pairs += 1;
                if image != other {
                    return Err(format!(
                        "replicas r{a} and r{b} both applied through decree {through} \
                         but hold different machines"
                    ));
                }
            }
        }
        Ok(pairs)
    }

    /// One replica (tests that look inside its log).
    #[cfg(test)]
    pub(crate) fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas[id.0 as usize]
    }

    /// One replica's machine, writable behind the log's back: only for
    /// the canary proving [`PaxosCluster::check_replica_determinism`]
    /// notices such a write.
    #[cfg(test)]
    fn replica_machine_mut(&mut self, id: ReplicaId) -> &mut StateMachine {
        &mut self.replicas[id.0 as usize].machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_types::{
        AppId, Attribute, EntityName, NetworkState, Pool, SimTime, Value, WriteOutcome,
        WriteReceipt,
    };

    fn row(dev: &str, v: &str) -> NetworkState {
        NetworkState::new(
            EntityName::device("dc1", dev),
            Attribute::DeviceFirmwareVersion,
            Value::text(v),
            SimTime::ZERO,
            AppId::monitor(),
        )
    }

    fn wb(dev: &str, v: &str) -> LogCommand {
        LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row(dev, v)].into(),
        }
    }

    #[test]
    fn commits_replicate_to_all() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(1));
        c.submit(wb("a", "1")).unwrap();
        c.submit(wb("b", "2")).unwrap();
        for i in 0..3 {
            assert_eq!(c.applied_through(ReplicaId(i)), 2, "replica {i}");
        }
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 2);
    }

    #[test]
    fn survives_minority_crash() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(2));
        c.submit(wb("a", "1")).unwrap();
        c.crash(ReplicaId(2));
        c.submit(wb("b", "2")).unwrap();
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 2);
    }

    #[test]
    fn leader_crash_triggers_failover_preserving_data() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(3));
        c.submit(wb("a", "1")).unwrap();
        let old = c.leader().unwrap();
        c.crash(old);
        c.submit(wb("b", "2")).unwrap();
        let new = c.leader().unwrap();
        assert_ne!(old, new);
        let m = c.leader_machine().unwrap();
        assert_eq!(
            m.get(&Pool::Observed, &row("a", "").key()).unwrap().value,
            Value::text("1"),
            "pre-failover write survives"
        );
        assert_eq!(m.pool_len(&Pool::Observed), 2);
    }

    #[test]
    fn majority_crash_is_unavailable() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(3));
        c.crash(ReplicaId(1));
        c.crash(ReplicaId(2));
        let err = c.submit(wb("a", "1")).unwrap_err();
        assert!(matches!(err, StateError::StorageUnavailable { .. }));
        // Heal and retry.
        c.restart(ReplicaId(1));
        c.submit(wb("a", "1")).unwrap();
    }

    #[test]
    fn lossy_network_commits_via_retry() {
        let mut cfg = ClusterConfig::intra_dc(7);
        cfg.drop_prob = 0.3;
        let mut c = PaxosCluster::new(cfg);
        for i in 0..20 {
            c.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        let (sent, dropped) = c.bus_stats();
        assert!(dropped > 0, "loss actually happened ({sent} sent)");
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 20);
    }

    #[test]
    fn restarted_replica_catches_up_on_later_commits() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(3));
        c.submit(wb("a", "1")).unwrap();
        c.crash(ReplicaId(2));
        c.submit(wb("b", "2")).unwrap();
        c.restart(ReplicaId(2));
        // Replica 2 missed slot 2; later commits still apply in order only
        // after the gap is filled. A fresh election re-proposes history.
        c.submit(wb("c", "3")).unwrap();
        // The restarted node may still lag (no anti-entropy beyond
        // leader-change recovery) — but the ring as a whole is healthy.
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 3);
    }

    #[test]
    fn wan_ring_is_much_slower_than_intra_dc_ring() {
        let mut intra = PaxosCluster::new(ClusterConfig::intra_dc(5));
        let mut wan = PaxosCluster::new(ClusterConfig::global_wan(5));
        for i in 0..10 {
            intra.submit(wb(&format!("d{i}"), "v")).unwrap();
            wan.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        // §6.1's rationale: WAN consensus latency dwarfs intra-DC.
        assert!(wan.mean_commit_latency() > 20.0 * intra.mean_commit_latency());
    }

    #[test]
    fn stale_follower_reads_lag_behind_leader() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(3));
        // Partition a follower's inbound traffic by crashing it so commits
        // don't reach it, then restart: its machine is behind.
        c.submit(wb("a", "1")).unwrap();
        c.crash(ReplicaId(2));
        c.submit(wb("b", "2")).unwrap();
        c.restart(ReplicaId(2));
        let lagging = &c.replicas[2].machine;
        assert!(lagging.pool_len(&Pool::Observed) <= 2);
    }

    #[test]
    fn minority_partition_does_not_block_commits() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(13));
        c.submit(wb("a", "1")).unwrap();
        let leader = c.leader().unwrap();
        // Cut the third replica off from the leader.
        let isolated = (0..3u8).map(ReplicaId).find(|r| *r != leader).unwrap();
        c.partition_replicas(leader, isolated);
        c.submit(wb("b", "2")).unwrap();
        // The isolated replica lags; the ring still commits via the
        // remaining majority.
        assert!(c.applied_through(isolated) < c.applied_through(leader));

        // Heal: subsequent traffic flows again and the leader keeps
        // serving the full history.
        c.heal_partitions();
        c.submit(wb("c", "3")).unwrap();
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 3);
    }

    #[test]
    fn symmetric_partition_of_leader_forces_failover() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(17));
        c.submit(wb("a", "1")).unwrap();
        let old_leader = c.leader().unwrap();
        // Cut the leader from BOTH peers: it cannot reach quorum.
        for r in 0..3u8 {
            let r = ReplicaId(r);
            if r != old_leader {
                c.partition_replicas(old_leader, r);
            }
        }
        // Force a leadership check: the next submit must elect one of the
        // connected pair. (ensure_leader only re-elects when the cached
        // leader stops claiming leadership, so nudge it.)
        c.crash(old_leader);
        c.restart(old_leader);
        c.submit(wb("b", "2")).unwrap();
        let new_leader = c.leader().unwrap();
        assert_ne!(new_leader, old_leader);
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 2, "history preserved");
    }

    #[test]
    fn kill9_drops_ram_and_restart_recovers_from_wal() {
        let mut cfg = ClusterConfig::intra_dc(3);
        cfg.durability = DurabilityMode::FramedMemory;
        cfg.snapshot_every = 4;
        let mut c = PaxosCluster::new(cfg);
        for i in 0..10 {
            c.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        let before = c.applied_through(ReplicaId(2));
        assert!(before >= 8, "replica 2 tracked the commits");
        c.kill9(ReplicaId(2));
        assert_eq!(c.applied_through(ReplicaId(2)), 0, "kill -9 drops RAM");
        c.submit(wb("x", "v")).unwrap();
        c.restart(ReplicaId(2));
        assert!(
            c.applied_through(ReplicaId(2)) >= before,
            "recovery never lands below the pre-crash committed decree"
        );
        assert!(c.wal_stats().compactions > 0, "snapshot cadence fired");
        c.verify_chains().expect("chains intact after recovery");
        let rec = c.last_recovery().unwrap();
        assert!(!rec.refused);
    }

    #[test]
    fn group_commit_bounds_fsyncs_per_submit() {
        let mut cfg = ClusterConfig::intra_dc(5);
        cfg.durability = DurabilityMode::FramedMemory;
        // Keep compaction out of the way so the counters isolate submits.
        cfg.snapshot_every = u64::MAX;
        let mut c = PaxosCluster::new(cfg);
        for i in 0..20 {
            c.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        let stats = c.wal_stats();
        assert!(
            stats.appends > stats.fsyncs,
            "a submit appends several WAL records per replica \
             (appends={}, fsyncs={})",
            stats.appends,
            stats.fsyncs
        );
        // 3 replicas × (1 election group + 20 submit groups), with a small
        // allowance for retries: far below one fsync per append.
        assert!(
            stats.fsyncs <= 3 * 21 + 6,
            "grouped submits flush once per replica per submit, got {}",
            stats.fsyncs
        );
        c.verify_chains().expect("grouped chains verify end to end");
        // Recovery still replays everything the grouped log holds.
        c.kill9(ReplicaId(2));
        c.restart(ReplicaId(2));
        assert_eq!(c.applied_through(ReplicaId(2)), 20);
        assert!(!c.last_recovery().unwrap().refused);
    }

    #[test]
    fn torn_tail_is_repaired_on_restart() {
        let mut cfg = ClusterConfig::intra_dc(11);
        cfg.durability = DurabilityMode::FramedMemory;
        let mut c = PaxosCluster::new(cfg);
        for i in 0..5 {
            c.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        let before = c.applied_through(ReplicaId(1));
        c.kill9(ReplicaId(1));
        c.corrupt_store(ReplicaId(1), &WalCorruption::TornTail { bytes: 13 });
        c.restart(ReplicaId(1));
        let rec = c.last_recovery().unwrap();
        assert_eq!(rec.truncated_records, 1, "the torn junk was truncated");
        assert!(!rec.refused);
        assert!(c.applied_through(ReplicaId(1)) >= before);
        c.verify_chains().expect("medium repaired in place");
    }

    #[test]
    fn bit_flip_is_refused_and_replica_rejoins_via_catchup() {
        let mut cfg = ClusterConfig::intra_dc(13);
        cfg.durability = DurabilityMode::FramedMemory;
        cfg.snapshot_every = 3;
        let mut c = PaxosCluster::new(cfg);
        for i in 0..9 {
            c.submit(wb(&format!("d{i}"), "v")).unwrap();
        }
        let before = c.applied_through(ReplicaId(2));
        c.kill9(ReplicaId(2));
        c.corrupt_store(ReplicaId(2), &WalCorruption::BitFlip);
        c.restart(ReplicaId(2));
        let rec = c.last_recovery().unwrap().clone();
        assert!(rec.refused, "acknowledged-state damage must be refused");
        // Leader catch-up restored everything the refused log lost.
        assert!(c.applied_through(ReplicaId(2)) >= before);
        c.verify_chains().expect("refused log was reset cleanly");
        let m = &c.replica_machine(ReplicaId(2));
        assert_eq!(m.pool_len(&Pool::Observed), 9);
    }

    #[test]
    fn any_machine_never_serves_a_killed_husk() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(4));
        c.submit(wb("a", "1")).unwrap();
        let leader = c.leader().unwrap();
        let follower = (0..3u8).map(ReplicaId).find(|r| *r != leader).unwrap();
        c.kill9(follower);
        // The killed husk has an empty machine; bounded-stale reads must
        // fall through to a live replica.
        assert_eq!(c.any_machine().pool_len(&Pool::Observed), 1);
    }

    #[test]
    fn dir_backed_ring_survives_full_process_restart() {
        let dir =
            std::env::temp_dir().join(format!("statesman-wal-test-{}-cluster", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ClusterConfig::intra_dc(5);
        cfg.durability = DurabilityMode::Dir(dir.clone());
        let applied = {
            let mut c = PaxosCluster::new(cfg.clone());
            for i in 0..6 {
                c.submit(wb(&format!("d{i}"), "v")).unwrap();
            }
            c.applied_through(c.leader().unwrap())
        }; // the whole cluster object (every replica's RAM) is dropped here
        let mut c = PaxosCluster::new(cfg);
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 6, "state came back from disk");
        assert!(c.applied_through(c.leader().unwrap()) >= applied);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_write_after_a_full_process_restart_is_applied() {
        let dir = std::env::temp_dir().join(format!(
            "statesman-wal-test-{}-cluster-reuse",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ClusterConfig::intra_dc(5);
        cfg.durability = DurabilityMode::Dir(dir.clone());
        PaxosCluster::new(cfg.clone())
            .submit(wb("before", "1"))
            .unwrap();
        // A fresh process over the same directory: its first request id
        // must not collide with the one the recovered replicas applied.
        let mut c = PaxosCluster::new(cfg);
        c.submit(wb("after", "2")).unwrap();
        let m = c.leader_machine().unwrap();
        assert_eq!(m.pool_len(&Pool::Observed), 2, "both writes are applied");
        for (dev, v) in [("before", "1"), ("after", "2")] {
            let key = row(dev, v).key();
            assert_eq!(
                m.get(&Pool::Observed, &key).map(|r| &r.value),
                Some(&Value::text(v)),
                "{dev} reads back"
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The framed byte format, pinned: logs and snapshots written by an
    /// earlier build must still recover, so a change to how any command
    /// serializes — its payload types included — has to keep these
    /// digests. Each entry is one replica's (snapshot, log) FNV-1a-64.
    #[test]
    fn framed_wal_and_snapshot_bytes_are_pinned() {
        let mut cfg = ClusterConfig::intra_dc(21);
        cfg.durability = DurabilityMode::FramedMemory;
        cfg.snapshot_every = u64::MAX;
        let mut c = PaxosCluster::new(cfg);
        c.submit(LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: vec![row("a", "1"), row("b", "1")].into(),
        })
        .unwrap();
        c.submit(LogCommand::BulkBatch {
            pool: Pool::Target,
            rows: vec![row("a", "2"), row("c", "2")].into(),
        })
        .unwrap();
        c.submit(LogCommand::DeleteBatch {
            pool: Pool::Observed,
            keys: vec![row("b", "").key()],
        })
        .unwrap();
        c.submit(LogCommand::PostReceipts {
            receipts: vec![WriteReceipt {
                app: AppId::new("te"),
                key: row("a", "").key(),
                proposed: Value::text("2"),
                outcome: WriteOutcome::Accepted,
                decided_at: SimTime::from_secs(60),
            }],
        })
        .unwrap();
        let digests = |c: &PaxosCluster| -> Vec<(u64, u64)> {
            c.stores
                .iter()
                .map(|s| {
                    let (snap, wal) = s.media_bytes().expect("framed store");
                    let snap = snap.map_or(0, |b| crate::wal::chain_hash(0, &b));
                    (snap, crate::wal::chain_hash(0, &wal))
                })
                .collect()
        };
        let logged = digests(&c);
        for r in &mut c.replicas {
            r.maybe_snapshot(1);
        }
        let folded = digests(&c);
        assert_eq!(logged, PINNED_LOGGED, "log bytes moved: {logged:#x?}");
        assert_eq!(folded, PINNED_FOLDED, "fold bytes moved: {folded:#x?}");
        // The pinned bytes recover to the leader's state.
        c.kill9(ReplicaId(2));
        c.restart(ReplicaId(2));
        let leader = c.leader().unwrap();
        assert_eq!(
            c.replica_machine(ReplicaId(2)).to_snapshot(),
            c.replica_machine(leader).to_snapshot()
        );
    }

    const PINNED_LOGGED: [(u64, u64); 3] = [
        (0, 0xd4cc_6775_1c8f_bf6b),
        (0, 0xd4cc_6775_1c8f_bf6b),
        (0, 0xd4cc_6775_1c8f_bf6b),
    ];
    /// Everything is applied at the fold, so each log is empty after it.
    /// The snapshot half was re-pinned once (from 0x08cc_032a_30e1_4a72)
    /// when the image started carrying each application's receipt ack
    /// position beside its pending receipts; the log half never moved.
    const PINNED_FOLDED: [(u64, u64); 3] = [
        (0xc09d_9420_71c6_bf42, 0xa8c7_f832_281a_39c5),
        (0xc09d_9420_71c6_bf42, 0xa8c7_f832_281a_39c5),
        (0xc09d_9420_71c6_bf42, 0xa8c7_f832_281a_39c5),
    ];

    /// The canary for the replica-determinism checker: receipts posted
    /// and acknowledged through the log leave every replica equal, and
    /// one write to one replica's machine outside the log — what the
    /// deleted leader-side receipt drain did — is reported.
    #[test]
    fn replica_determinism_reports_a_write_outside_the_log() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(8));
        let app = AppId::new("te");
        let post = |dev: &str| LogCommand::PostReceipts {
            receipts: vec![WriteReceipt {
                app: app.clone(),
                key: row(dev, "").key(),
                proposed: Value::text("2"),
                outcome: WriteOutcome::Accepted,
                decided_at: SimTime::from_secs(60),
            }],
        };
        let ack = |through| LogCommand::AckReceipts {
            app: app.clone(),
            through,
        };
        c.submit(wb("a", "1")).unwrap();
        c.submit(post("a")).unwrap();
        assert_eq!(c.check_replica_determinism(), Ok(3));
        c.submit(ack(1)).unwrap();
        assert_eq!(c.check_replica_determinism(), Ok(3));

        // A follower cut off from the leader lags; only the two replicas
        // at the same frontier are compared.
        let leader = c.leader().unwrap();
        let lagging = (0..3u8).map(ReplicaId).find(|r| *r != leader).unwrap();
        c.partition_replicas(leader, lagging);
        c.submit(post("b")).unwrap();
        assert_eq!(c.check_replica_determinism(), Ok(1));
        c.heal_partitions();

        // The leader drops its receipts behind the log's back.
        c.submit(post("c")).unwrap();
        let through = c.applied_through(leader);
        c.replica_machine_mut(leader).apply(&ack(3));
        let err = c.check_replica_determinism().unwrap_err();
        assert!(
            err.contains(&format!("decree {through}")),
            "the divergence names its frontier: {err}"
        );
    }

    #[test]
    fn commit_latency_is_recorded() {
        let mut c = PaxosCluster::new(ClusterConfig::intra_dc(1));
        c.submit(wb("a", "1")).unwrap();
        assert_eq!(c.commit_latencies().len(), 1);
        assert!(c.mean_commit_latency() > 0.0);
    }
}
