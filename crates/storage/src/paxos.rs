//! Multi-decree Paxos replica logic.
//!
//! Each storage partition is a ring of [`Replica`]s running single-leader
//! multi-Paxos over [`LogCommand`]s:
//!
//! * **Phase 1 (leadership)** — a candidate picks a ballot above anything
//!   it has seen and broadcasts `Prepare`; acceptors promise and report
//!   every value they have ever accepted; on a majority the candidate
//!   becomes leader and *re-proposes the highest-ballot accepted value per
//!   slot* (the Paxos safety core — a value possibly chosen under an old
//!   leader survives the change);
//! * **Phase 2 (replication)** — the leader assigns commands to slots and
//!   broadcasts `Accept`; a slot is *chosen* on a majority of `Accepted`,
//!   after which the leader broadcasts `Commit` so learners apply it;
//! * application is strictly in slot order and gaps block (new leaders
//!   fill unknown slots with `Noop` barriers).
//!
//! A replica is a pure message-driven state machine: [`Replica::handle`]
//! consumes one message and emits outbound messages; the surrounding
//! [`crate::cluster::PaxosCluster`] owns the bus and pumps deliveries.
//! Durable state (promises, accepts, commits) is appended to the
//! replica's write-ahead log ([`crate::wal`]) *before* the corresponding
//! message is acknowledged; a crash drops everything in RAM, and restart
//! reconstructs the replica from the log alone ([`crate::recovery`]).

use crate::bus::ReplicaId;
use crate::machine::{LogCommand, StateMachine};
use crate::wal::{ReplicaStore, WalEvent};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A Paxos ballot: totally ordered, unique per (round, replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ballot {
    /// Round number.
    pub n: u64,
    /// Tie-breaking proposer id.
    pub id: ReplicaId,
}

impl Ballot {
    /// The pre-history ballot no acceptor has promised.
    pub const ZERO: Ballot = Ballot {
        n: 0,
        id: ReplicaId(0),
    };
}

impl std::fmt::Display for Ballot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}.{}", self.n, self.id.0)
    }
}

/// Log slot index (1-based; slot 0 unused).
pub type Slot = u64;

/// Messages between replicas.
#[derive(Debug, Clone)]
pub enum PaxosMsg {
    /// Phase-1a: candidate solicits promises.
    Prepare {
        /// Candidate's ballot.
        ballot: Ballot,
    },
    /// Phase-1b: acceptor promises and reports accepted history.
    Promise {
        /// The promised ballot (echo).
        ballot: Ballot,
        /// Everything this acceptor has accepted: (slot, ballot, value).
        accepted: Vec<(Slot, Ballot, LogCommand)>,
    },
    /// Phase-1b rejection: acceptor already promised higher.
    PrepareNack {
        /// The higher promise the acceptor holds.
        promised: Ballot,
    },
    /// Phase-2a: leader proposes a value for a slot.
    Accept {
        /// Leader's ballot.
        ballot: Ballot,
        /// Target slot.
        slot: Slot,
        /// Proposed value.
        cmd: LogCommand,
    },
    /// Phase-2b: acceptor accepted.
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed slot.
        slot: Slot,
    },
    /// Phase-2b rejection.
    AcceptNack {
        /// The higher promise the acceptor holds.
        promised: Ballot,
        /// The rejected slot.
        slot: Slot,
    },
    /// Learner broadcast: the slot is chosen.
    Commit {
        /// The chosen slot.
        slot: Slot,
        /// The chosen value.
        cmd: LogCommand,
    },
}

/// Volatile proposer role.
#[derive(Debug, Clone, PartialEq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// In-flight phase-2 bookkeeping for one slot.
#[derive(Debug, Clone)]
struct Inflight {
    cmd: LogCommand,
    acks: HashSet<ReplicaId>,
    committed: bool,
}

/// One Paxos replica (acceptor + learner + potential proposer).
pub struct Replica {
    /// This replica's id.
    pub id: ReplicaId,
    /// Ring size.
    pub n_replicas: usize,

    // ---- durable acceptor state ----
    promised: Ballot,
    accepted: BTreeMap<Slot, (Ballot, LogCommand)>,

    // ---- durable learner state ----
    chosen: BTreeMap<Slot, LogCommand>,
    /// Next slot to apply (all slots below are applied).
    apply_frontier: Slot,
    /// The materialized state machine.
    pub machine: StateMachine,

    // ---- volatile proposer state ----
    role: Role,
    ballot: Ballot,
    promises: HashMap<ReplicaId, Vec<(Slot, Ballot, LogCommand)>>,
    inflight: BTreeMap<Slot, Inflight>,
    next_slot: Slot,
    pending: VecDeque<LogCommand>,
    /// Highest ballot round observed anywhere (for picking fresh ballots).
    max_round_seen: u64,

    // ---- durability plumbing ----
    /// Write-ahead log; `None` only for store-less unit-test replicas.
    store: Option<ReplicaStore>,
    /// Apply frontier at the last durable snapshot (compaction cadence).
    last_snap_frontier: Slot,
    /// Row-weight appended since the last snapshot (compaction cadence).
    wal_weight_since_snap: usize,
}

/// Durable state reconstructed by [`crate::recovery::recover`], handed to
/// [`Replica::from_recovery`].
pub(crate) struct RecoveredState {
    /// Highest promised ballot (snapshot ∨ replayed promise/accept events).
    pub promised: Ballot,
    /// Accepted values above the snapshot frontier.
    pub accepted: BTreeMap<Slot, (Ballot, LogCommand)>,
    /// Chosen values above the snapshot frontier.
    pub chosen: BTreeMap<Slot, LogCommand>,
    /// The machine restored from the snapshot image.
    pub machine: StateMachine,
    /// The snapshot's apply frontier (1 when no snapshot).
    pub frontier: Slot,
    /// Total weight of replayed events (re-seeds the compaction cadence).
    pub replayed_weight: usize,
}

/// Outbound messages produced by one handle step.
pub type Outbox = Vec<(ReplicaId, PaxosMsg)>;

impl Replica {
    /// A fresh replica in a ring of `n_replicas`, with no durable store
    /// (unit tests, and the husk left behind by a kill -9).
    pub fn new(id: ReplicaId, n_replicas: usize) -> Self {
        Replica {
            id,
            n_replicas,
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            chosen: BTreeMap::new(),
            apply_frontier: 1,
            machine: StateMachine::new(),
            role: Role::Follower,
            ballot: Ballot::ZERO,
            promises: HashMap::new(),
            inflight: BTreeMap::new(),
            next_slot: 1,
            pending: VecDeque::new(),
            max_round_seen: 0,
            store: None,
            last_snap_frontier: 1,
            wal_weight_since_snap: 0,
        }
    }

    /// A fresh replica writing to the given durable store.
    pub fn with_store(id: ReplicaId, n_replicas: usize, store: ReplicaStore) -> Self {
        let mut r = Replica::new(id, n_replicas);
        r.store = Some(store);
        r
    }

    /// Rebuild a replica from recovered durable state. Volatile
    /// leadership is gone by construction; `max_round_seen` is seeded from
    /// the promised ballot so any future election outranks the past.
    pub(crate) fn from_recovery(
        id: ReplicaId,
        n_replicas: usize,
        store: Option<ReplicaStore>,
        state: RecoveredState,
    ) -> Self {
        let mut r = Replica::new(id, n_replicas);
        r.store = store;
        r.promised = state.promised;
        r.max_round_seen = state.promised.n;
        r.accepted = state.accepted;
        r.chosen = state.chosen;
        r.machine = state.machine;
        r.apply_frontier = state.frontier;
        r.last_snap_frontier = state.frontier;
        r.wal_weight_since_snap = state.replayed_weight;
        // Re-apply committed decrees above the snapshot. These commits are
        // already durable, so no WAL re-append happens here.
        while let Some(cmd) = r.chosen.get(&r.apply_frontier) {
            r.machine.apply(cmd);
            r.apply_frontier += 1;
        }
        r
    }

    /// Majority size for this ring.
    fn quorum(&self) -> usize {
        self.n_replicas / 2 + 1
    }

    /// Whether this replica currently believes it is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Slots committed and applied so far.
    pub fn applied_through(&self) -> Slot {
        self.apply_frontier - 1
    }

    /// Whether a specific proposal (by slot) has committed.
    pub fn slot_committed(&self, slot: Slot) -> bool {
        self.chosen.contains_key(&slot)
    }

    /// The highest client request id this replica has seen: applied by
    /// its machine, or wrapped in a `Tagged` command of its accepted or
    /// chosen log. A restarted ring numbers its next request above the
    /// highest of these, so no new command is taken for a duplicate.
    pub(crate) fn max_request_id(&self) -> u64 {
        let tagged = |cmd: &LogCommand| match cmd {
            LogCommand::Tagged { id, .. } => *id,
            _ => 0,
        };
        let accepted = self.accepted.values().map(|(_, c)| tagged(c));
        let chosen = self.chosen.values().map(tagged);
        accepted
            .chain(chosen)
            .fold(self.machine.max_applied_id(), u64::max)
    }

    /// This replica's accepted and chosen values for one slot (tests of
    /// what the log shares with the submitted command).
    #[cfg(test)]
    pub(crate) fn log_entries(&self, slot: Slot) -> (Option<&LogCommand>, Option<&LogCommand>) {
        (
            self.accepted.get(&slot).map(|(_, c)| c),
            self.chosen.get(&slot),
        )
    }

    /// Discard log entries more than `keep_last` slots below the apply
    /// frontier. Chosen-and-applied entries are only needed to serve
    /// catch-up; below the horizon, catch-up happens by snapshot
    /// ([`Replica::install_snapshot`]) instead — the standard compaction
    /// tradeoff.
    pub fn compact(&mut self, keep_last: u64) {
        let horizon = self.apply_frontier.saturating_sub(keep_last + 1);
        if horizon == 0 {
            return;
        }
        self.chosen = self.chosen.split_off(&horizon);
        self.accepted = self.accepted.split_off(&horizon);
    }

    /// Install a state snapshot (leader catch-up for a replica that fell
    /// below the compaction horizon). The received state is persisted as a
    /// durable snapshot too, so a subsequent crash recovers from here
    /// instead of repeating the catch-up.
    pub fn install_snapshot(&mut self, machine: StateMachine, frontier: Slot) {
        self.machine = machine;
        self.apply_frontier = frontier;
        self.chosen = self.chosen.split_off(&frontier);
        self.accepted = self.accepted.split_off(&frontier);
        if let Some(store) = self.store.clone() {
            let tail = self.wal_tail(frontier);
            store.write_snapshot(frontier, self.promised, &self.machine, &tail);
            self.last_snap_frontier = frontier;
            self.wal_weight_since_snap = tail.iter().map(|e| e.weight()).sum();
        }
    }

    /// Write a durable snapshot at the current apply frontier when the
    /// compaction cadence is due: `every` decrees since the last snapshot,
    /// or enough appended row-weight that the log tail is worth folding
    /// regardless (large seeding batches).
    pub fn maybe_snapshot(&mut self, every: u64) {
        /// Row-weight appended since the last snapshot that forces
        /// compaction regardless of decree count.
        const SNAPSHOT_WEIGHT_BUDGET: usize = 131_072;
        let Some(store) = self.store.clone() else {
            return;
        };
        // A framed store's snapshot costs O(machine rows): it serializes
        // the full image. A logical store's costs the slot maps and
        // bitmaps plus a refcount bump per column chunk, because the
        // image shares every chunk with the live machine; the rows are
        // paid for later, by the first write to each shared chunk (for
        // churn, the counter chunks alone). Against a fixed absolute
        // budget, steady telemetry churn over an N-row machine would pay
        // an O(N) image every round: quadratic compaction work over time.
        // Scaling the budget with the machine amortizes compaction to
        // O(1) per appended row and still bounds the replayable tail to
        // ~1/8 of a full image.
        let weight_budget = SNAPSHOT_WEIGHT_BUDGET.max(self.machine.total_rows() / 8);
        let frontier = self.apply_frontier;
        let due = frontier > self.last_snap_frontier
            && (frontier - self.last_snap_frontier >= every
                || self.wal_weight_since_snap >= weight_budget);
        if !due {
            return;
        }
        let tail = self.wal_tail(frontier);
        store.write_snapshot(frontier, self.promised, &self.machine, &tail);
        self.last_snap_frontier = frontier;
        self.wal_weight_since_snap = tail.iter().map(|e| e.weight()).sum();
    }

    /// The WAL events that must survive a compaction at `frontier`:
    /// accepted and chosen values at slots the snapshot does not cover.
    fn wal_tail(&self, frontier: Slot) -> Vec<WalEvent> {
        let mut tail = Vec::new();
        for (slot, (ballot, cmd)) in self.accepted.range(frontier..) {
            tail.push(WalEvent::Accept {
                slot: *slot,
                ballot: *ballot,
                cmd: cmd.clone(),
            });
        }
        for (slot, cmd) in self.chosen.range(frontier..) {
            tail.push(WalEvent::Commit {
                slot: *slot,
                cmd: cmd.clone(),
            });
        }
        tail
    }

    /// Append one event to the durable log (before acknowledgment).
    fn wal_append(&mut self, ev: WalEvent) {
        if let Some(store) = &self.store {
            self.wal_weight_since_snap += ev.weight();
            store.append(&ev);
        }
    }

    /// Begin an election: bump the ballot above everything seen and
    /// broadcast `Prepare` (self-promise happens inline).
    pub fn start_election(&mut self) -> Outbox {
        self.max_round_seen += 1;
        self.ballot = Ballot {
            n: self.max_round_seen,
            id: self.id,
        };
        self.role = Role::Candidate;
        self.promises.clear();
        self.inflight.clear();
        // Self-promise (durable before any Prepare leaves this replica).
        self.promised = self.ballot;
        self.wal_append(WalEvent::Promise {
            ballot: self.ballot,
        });
        let own: Vec<(Slot, Ballot, LogCommand)> = self
            .accepted
            .iter()
            .map(|(s, (b, c))| (*s, *b, c.clone()))
            .collect();
        self.promises.insert(self.id, own);
        let mut out = Outbox::new();
        for peer in self.peers() {
            out.push((
                peer,
                PaxosMsg::Prepare {
                    ballot: self.ballot,
                },
            ));
        }
        // Single-replica ring: instant leadership.
        self.try_assume_leadership(&mut out);
        out
    }

    /// Client entry: enqueue a command; if leading, assign a slot and
    /// broadcast `Accept`. Returns the assigned slot when leading.
    pub fn propose(&mut self, cmd: LogCommand, out: &mut Outbox) -> Option<Slot> {
        if self.role != Role::Leader {
            self.pending.push_back(cmd);
            return None;
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.accept_self(slot, cmd.clone());
        self.inflight.insert(
            slot,
            Inflight {
                cmd: cmd.clone(),
                acks: HashSet::from([self.id]),
                committed: false,
            },
        );
        for peer in self.peers() {
            out.push((
                peer,
                PaxosMsg::Accept {
                    ballot: self.ballot,
                    slot,
                    cmd: cmd.clone(),
                },
            ));
        }
        // Single-replica ring commits instantly.
        self.maybe_commit(slot, out);
        Some(slot)
    }

    /// Re-broadcast `Accept` for every uncommitted in-flight slot
    /// (client-driven retry after message loss).
    pub fn retransmit(&mut self, out: &mut Outbox) {
        if self.role != Role::Leader {
            return;
        }
        let resend: Vec<(Slot, LogCommand)> = self
            .inflight
            .iter()
            .filter(|(_, f)| !f.committed)
            .map(|(s, f)| (*s, f.cmd.clone()))
            .collect();
        for (slot, cmd) in resend {
            for peer in self.peers() {
                out.push((
                    peer,
                    PaxosMsg::Accept {
                        ballot: self.ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                ));
            }
        }
    }

    /// Handle one delivered message.
    pub fn handle(&mut self, from: ReplicaId, msg: PaxosMsg) -> Outbox {
        let mut out = Outbox::new();
        match msg {
            PaxosMsg::Prepare { ballot } => {
                self.observe_round(ballot.n);
                if ballot > self.promised {
                    self.promised = ballot;
                    // Durable before the Promise is acknowledged.
                    self.wal_append(WalEvent::Promise { ballot });
                    if self.role != Role::Follower && ballot.id != self.id {
                        // Someone outranks us; step down.
                        self.step_down();
                    }
                    let accepted: Vec<(Slot, Ballot, LogCommand)> = self
                        .accepted
                        .iter()
                        .map(|(s, (b, c))| (*s, *b, c.clone()))
                        .collect();
                    out.push((from, PaxosMsg::Promise { ballot, accepted }));
                } else {
                    out.push((
                        from,
                        PaxosMsg::PrepareNack {
                            promised: self.promised,
                        },
                    ));
                }
            }
            PaxosMsg::Promise { ballot, accepted } => {
                if self.role == Role::Candidate && ballot == self.ballot {
                    self.promises.insert(from, accepted);
                    self.try_assume_leadership(&mut out);
                }
            }
            PaxosMsg::PrepareNack { promised } => {
                self.observe_round(promised.n);
                if self.role == Role::Candidate && promised > self.ballot {
                    self.step_down();
                }
            }
            PaxosMsg::Accept { ballot, slot, cmd } => {
                self.observe_round(ballot.n);
                if ballot >= self.promised {
                    self.promised = ballot;
                    if self.role != Role::Follower && ballot.id != self.id {
                        self.step_down();
                    }
                    // Durable before the Accepted ack is sent.
                    self.wal_append(WalEvent::Accept {
                        slot,
                        ballot,
                        cmd: cmd.clone(),
                    });
                    self.accepted.insert(slot, (ballot, cmd));
                    out.push((from, PaxosMsg::Accepted { ballot, slot }));
                } else {
                    out.push((
                        from,
                        PaxosMsg::AcceptNack {
                            promised: self.promised,
                            slot,
                        },
                    ));
                }
            }
            PaxosMsg::Accepted { ballot, slot } => {
                if self.role == Role::Leader && ballot == self.ballot {
                    if let Some(f) = self.inflight.get_mut(&slot) {
                        f.acks.insert(from);
                    }
                    self.maybe_commit(slot, &mut out);
                }
            }
            PaxosMsg::AcceptNack { promised, .. } => {
                self.observe_round(promised.n);
                if self.role == Role::Leader && promised > self.ballot {
                    self.step_down();
                }
            }
            PaxosMsg::Commit { slot, cmd } => {
                self.learn(slot, cmd);
            }
        }
        out
    }

    /// Commands queued while not leading (the cluster re-injects them
    /// after an election).
    pub fn drain_pending(&mut self) -> Vec<LogCommand> {
        self.pending.drain(..).collect()
    }

    // ---- internals ----

    fn peers(&self) -> Vec<ReplicaId> {
        (0..self.n_replicas as u8)
            .map(ReplicaId)
            .filter(|r| *r != self.id)
            .collect()
    }

    fn observe_round(&mut self, n: u64) {
        self.max_round_seen = self.max_round_seen.max(n);
    }

    fn step_down(&mut self) {
        self.role = Role::Follower;
        self.promises.clear();
        self.inflight.clear();
    }

    fn accept_self(&mut self, slot: Slot, cmd: LogCommand) {
        // The leader's own accept is durable before it counts toward the
        // quorum it is about to tally.
        self.wal_append(WalEvent::Accept {
            slot,
            ballot: self.ballot,
            cmd: cmd.clone(),
        });
        self.accepted.insert(slot, (self.ballot, cmd));
    }

    fn try_assume_leadership(&mut self, out: &mut Outbox) {
        if self.role != Role::Candidate || self.promises.len() < self.quorum() {
            return;
        }
        self.role = Role::Leader;
        // Recover: per slot, re-propose the highest-ballot accepted value.
        let mut recover: BTreeMap<Slot, (Ballot, LogCommand)> = BTreeMap::new();
        for report in self.promises.values() {
            for (slot, ballot, cmd) in report {
                match recover.get(slot) {
                    Some((b, _)) if b >= ballot => {}
                    _ => {
                        recover.insert(*slot, (*ballot, cmd.clone()));
                    }
                }
            }
        }
        let max_slot = recover.keys().max().copied().unwrap_or(0);
        // Fill holes below the max with Noop barriers so the log has no
        // permanent gaps.
        for slot in 1..=max_slot {
            recover
                .entry(slot)
                .or_insert((Ballot::ZERO, LogCommand::Noop));
        }
        self.next_slot = max_slot + 1;
        for (slot, (_, cmd)) in recover {
            if self.chosen.contains_key(&slot) {
                continue;
            }
            self.accept_self(slot, cmd.clone());
            self.inflight.insert(
                slot,
                Inflight {
                    cmd: cmd.clone(),
                    acks: HashSet::from([self.id]),
                    committed: false,
                },
            );
            for peer in self.peers() {
                out.push((
                    peer,
                    PaxosMsg::Accept {
                        ballot: self.ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                ));
            }
            self.maybe_commit(slot, out);
        }
    }

    fn maybe_commit(&mut self, slot: Slot, out: &mut Outbox) {
        let quorum = self.quorum();
        let ready = self
            .inflight
            .get(&slot)
            .map(|f| !f.committed && f.acks.len() >= quorum)
            .unwrap_or(false);
        if !ready {
            return;
        }
        let cmd = {
            let f = self.inflight.get_mut(&slot).expect("inflight exists");
            f.committed = true;
            f.cmd.clone()
        };
        for peer in self.peers() {
            out.push((
                peer,
                PaxosMsg::Commit {
                    slot,
                    cmd: cmd.clone(),
                },
            ));
        }
        self.learn(slot, cmd);
    }

    fn learn(&mut self, slot: Slot, cmd: LogCommand) {
        if !self.chosen.contains_key(&slot) {
            // Durable before the commit is applied (and thus observable).
            self.wal_append(WalEvent::Commit {
                slot,
                cmd: cmd.clone(),
            });
            self.chosen.insert(slot, cmd);
        }
        while let Some(cmd) = self.chosen.get(&self.apply_frontier) {
            self.machine.apply(cmd);
            self.apply_frontier += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_types::Pool;

    /// Deliver every outbound message synchronously until quiescent —
    /// a zero-latency perfect network for unit-testing replica logic.
    fn pump(replicas: &mut [Replica], mut outbox: Vec<(ReplicaId, ReplicaId, PaxosMsg)>) {
        while let Some((from, to, msg)) = outbox.pop() {
            let more = replicas[to.0 as usize].handle(from, msg);
            for (dest, m) in more {
                outbox.push((to, dest, m));
            }
        }
    }

    fn ring(n: usize) -> Vec<Replica> {
        (0..n as u8)
            .map(|i| Replica::new(ReplicaId(i), n))
            .collect()
    }

    fn elect(replicas: &mut [Replica], id: usize) {
        let out = replicas[id].start_election();
        let from = ReplicaId(id as u8);
        pump(
            replicas,
            out.into_iter().map(|(to, m)| (from, to, m)).collect(),
        );
        assert!(replicas[id].is_leader());
    }

    fn write(n: u64) -> LogCommand {
        LogCommand::WriteBatch {
            pool: Pool::Observed,
            rows: Default::default(),
        }
        .tagged(n)
    }

    impl LogCommand {
        /// Distinguish otherwise-identical test commands.
        fn tagged(self, _n: u64) -> LogCommand {
            self
        }
    }

    #[test]
    fn election_reaches_quorum() {
        let mut rs = ring(3);
        elect(&mut rs, 0);
        assert!(!rs[1].is_leader());
        assert!(!rs[2].is_leader());
    }

    #[test]
    fn proposals_commit_and_replicate() {
        let mut rs = ring(3);
        elect(&mut rs, 0);
        let mut out = Outbox::new();
        let slot = rs[0].propose(LogCommand::Noop, &mut out).unwrap();
        pump(
            &mut rs,
            out.into_iter()
                .map(|(to, m)| (ReplicaId(0), to, m))
                .collect(),
        );
        for r in &rs {
            assert!(r.slot_committed(slot), "replica {} missing slot", r.id);
            assert_eq!(r.applied_through(), slot);
            assert_eq!(r.machine.applied_count(), 1);
        }
    }

    #[test]
    fn follower_queues_proposals() {
        let mut rs = ring(3);
        let mut out = Outbox::new();
        assert!(rs[1].propose(LogCommand::Noop, &mut out).is_none());
        assert!(out.is_empty());
        assert_eq!(rs[1].drain_pending().len(), 1);
    }

    #[test]
    fn new_leader_recovers_accepted_values() {
        let mut rs = ring(3);
        elect(&mut rs, 0);
        // Leader 0 proposes, but the Accept only reaches replica 1 (we
        // deliver manually, dropping everything else).
        let mut out = Outbox::new();
        let slot = rs[0].propose(write(1), &mut out).unwrap();
        let accept_to_1: Vec<_> = out
            .iter()
            .filter(|(to, m)| *to == ReplicaId(1) && matches!(m, PaxosMsg::Accept { .. }))
            .cloned()
            .collect();
        for (to, m) in accept_to_1 {
            // acceptor replies are dropped: no pump
            let _ = rs[to.0 as usize].handle(ReplicaId(0), m);
        }
        assert!(!rs[1].slot_committed(slot));

        // Leader 0 "dies"; replica 2 runs an election with {1,2} quorum.
        // Replica 1 reports the accepted value, so the new leader must
        // re-propose it.
        let out = rs[2].start_election();
        let msgs: Vec<_> = out
            .into_iter()
            .filter(|(to, _)| *to != ReplicaId(0)) // 0 is dead
            .map(|(to, m)| (ReplicaId(2), to, m))
            .collect();
        // Manual pump that never delivers to replica 0.
        let mut queue = msgs;
        while let Some((from, to, msg)) = queue.pop() {
            let more = rs[to.0 as usize].handle(from, msg);
            for (dest, m) in more {
                if dest != ReplicaId(0) {
                    queue.push((to, dest, m));
                }
            }
        }
        assert!(rs[2].is_leader());
        assert!(rs[2].slot_committed(slot), "recovered value must commit");
        assert!(rs[1].slot_committed(slot));
    }

    #[test]
    fn higher_ballot_preempts_leader() {
        let mut rs = ring(3);
        elect(&mut rs, 0);
        elect(&mut rs, 1); // 1 outranks 0
        assert!(rs[1].is_leader());
        assert!(!rs[0].is_leader(), "old leader stepped down");
    }

    #[test]
    fn stale_leader_accepts_are_rejected() {
        let mut rs = ring(3);
        elect(&mut rs, 0);
        let stale_ballot = rs[0].ballot;
        elect(&mut rs, 1);
        // Replica 2 promised to 1's higher ballot; a stale Accept bounces.
        let out = rs[2].handle(
            ReplicaId(0),
            PaxosMsg::Accept {
                ballot: stale_ballot,
                slot: 99,
                cmd: LogCommand::Noop,
            },
        );
        assert!(matches!(out[0].1, PaxosMsg::AcceptNack { .. }));
    }

    #[test]
    fn restart_recovers_log_from_wal_not_ram() {
        use crate::recovery;
        use crate::wal::{DurabilityMode, ReplicaStore};
        let stores: Vec<ReplicaStore> = (0..3u8)
            .map(|i| ReplicaStore::new(&DurabilityMode::FramedMemory, ReplicaId(i)))
            .collect();
        let mut rs: Vec<Replica> = (0..3u8)
            .map(|i| Replica::with_store(ReplicaId(i), 3, stores[i as usize].clone()))
            .collect();
        elect(&mut rs, 0);
        let mut out = Outbox::new();
        let slot = rs[0].propose(LogCommand::Noop, &mut out).unwrap();
        pump(
            &mut rs,
            out.into_iter()
                .map(|(to, m)| (ReplicaId(0), to, m))
                .collect(),
        );
        // kill -9: the in-RAM replica is gone; recovery rebuilds it from
        // the durable store alone.
        let (recovered, report) = recovery::recover(ReplicaId(0), 3, &stores[0]);
        rs[0] = recovered;
        assert!(!rs[0].is_leader(), "leadership is volatile");
        assert!(rs[0].slot_committed(slot), "durable log survives restart");
        assert_eq!(rs[0].applied_through(), slot);
        assert!(!report.refused);
    }

    #[test]
    fn single_replica_ring_commits_instantly() {
        let mut rs = ring(1);
        let out = rs[0].start_election();
        assert!(out.is_empty());
        assert!(rs[0].is_leader());
        let mut out = Outbox::new();
        let slot = rs[0].propose(LogCommand::Noop, &mut out).unwrap();
        assert!(rs[0].slot_committed(slot));
    }

    #[test]
    fn apply_order_is_contiguous() {
        let mut rs = ring(3);
        // Learner receives slot 2 before slot 1: nothing applies until the
        // gap closes.
        let _ = rs[2].handle(
            ReplicaId(0),
            PaxosMsg::Commit {
                slot: 2,
                cmd: LogCommand::Noop,
            },
        );
        assert_eq!(rs[2].applied_through(), 0);
        let _ = rs[2].handle(
            ReplicaId(0),
            PaxosMsg::Commit {
                slot: 1,
                cmd: LogCommand::Noop,
            },
        );
        assert_eq!(rs[2].applied_through(), 2);
    }
}
