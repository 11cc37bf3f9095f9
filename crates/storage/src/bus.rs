//! A virtual-time message bus between Paxos replicas.
//!
//! Consensus latency in Statesman is a real design force: §6.1 chooses
//! per-DC rings precisely because "WAN latencies will hurt the scalability
//! and performance". To reproduce that tradeoff rather than assume it, the
//! bus delivers messages on a virtual microsecond clock: each replica pair
//! has a configured one-way delay, messages can be dropped or partitioned,
//! and commit latency falls out of the delivery schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Identifier of a replica within one ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReplicaId(pub u8);

impl std::fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Virtual time in microseconds since ring start.
pub type Micros = u64;

/// An addressed, scheduled message.
#[derive(Debug, Clone)]
struct Scheduled<M> {
    deliver_at: Micros,
    /// Creation order; retained for debugging dumps of in-flight traffic.
    #[allow(dead_code)]
    seq: u64,
    from: ReplicaId,
    to: ReplicaId,
    msg: M,
}

/// Latency model: one-way delay between each pair of replicas.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Base one-way delay, microseconds.
    pub base_us: u64,
    /// Uniform jitter bound added per message, microseconds.
    pub jitter_us: u64,
}

impl LatencyModel {
    /// Intra-datacenter latency (~250µs one-way).
    pub fn intra_dc() -> Self {
        LatencyModel {
            base_us: 250,
            jitter_us: 100,
        }
    }

    /// Cross-datacenter WAN latency (~30ms one-way) — what a single global
    /// ring would pay (§6.1's rejected design).
    pub fn wan() -> Self {
        LatencyModel {
            base_us: 30_000,
            jitter_us: 5_000,
        }
    }
}

/// The bus: a priority queue of scheduled messages plus fault knobs.
pub struct MessageBus<M> {
    queue: BinaryHeap<Reverse<(Micros, u64)>>,
    slots: Vec<Option<Scheduled<M>>>,
    free: Vec<usize>,
    /// map from (deliver_at, seq) is implicit: seq indexes `slots`
    now: Micros,
    next_seq: u64,
    latency: LatencyModel,
    /// Probability each message is silently dropped.
    pub drop_prob: f64,
    /// Unreachable replica pairs (directed).
    partitions: HashSet<(ReplicaId, ReplicaId)>,
    /// Crashed replicas drop all input and output.
    crashed: HashSet<ReplicaId>,
    rng: StdRng,
    /// Total messages sent (observability).
    pub sent: u64,
    /// Total messages dropped by loss or partition.
    pub dropped: u64,
}

impl<M> MessageBus<M> {
    /// A bus with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        MessageBus {
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: 0,
            next_seq: 0,
            latency,
            drop_prob: 0.0,
            partitions: HashSet::new(),
            crashed: HashSet::new(),
            rng: StdRng::seed_from_u64(seed),
            sent: 0,
            dropped: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Send `msg` from `from` to `to`; it will be delivered after the
    /// modeled latency unless dropped.
    pub fn send(&mut self, from: ReplicaId, to: ReplicaId, msg: M) {
        self.sent += 1;
        if self.crashed.contains(&from) || self.crashed.contains(&to) {
            self.dropped += 1;
            return;
        }
        if self.partitions.contains(&(from, to)) {
            self.dropped += 1;
            return;
        }
        if self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob {
            self.dropped += 1;
            return;
        }
        let jitter = if self.latency.jitter_us > 0 {
            self.rng.gen_range(0..=self.latency.jitter_us)
        } else {
            0
        };
        let deliver_at = self.now + self.latency.base_us + jitter;
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(Scheduled {
                    deliver_at,
                    seq,
                    from,
                    to,
                    msg,
                });
                i
            }
            None => {
                self.slots.push(Some(Scheduled {
                    deliver_at,
                    seq,
                    from,
                    to,
                    msg,
                }));
                self.slots.len() - 1
            }
        };
        // Encode the slot index into the seq ordering key's low bits is
        // unnecessary: we keep a parallel mapping by pushing (time, idx).
        self.queue.push(Reverse((deliver_at, idx as u64)));
    }

    /// Pop the next deliverable message, advancing virtual time to its
    /// delivery instant. Returns `None` when the bus is quiet.
    pub fn recv(&mut self) -> Option<(ReplicaId, ReplicaId, M)> {
        while let Some(Reverse((at, idx))) = self.queue.pop() {
            let slot = self.slots[idx as usize].take();
            self.free.push(idx as usize);
            let Some(s) = slot else { continue };
            debug_assert_eq!(s.deliver_at, at);
            self.now = self.now.max(at);
            if self.crashed.contains(&s.to) {
                self.dropped += 1;
                continue;
            }
            return Some((s.from, s.to, s.msg));
        }
        None
    }

    /// Sever both directions between two replicas.
    pub fn partition(&mut self, a: ReplicaId, b: ReplicaId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Heal all partitions.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Crash a replica (drops everything to/from it, including queued
    /// deliveries).
    pub fn crash(&mut self, r: ReplicaId) {
        self.crashed.insert(r);
    }

    /// Restart a crashed replica (it keeps its durable acceptor state;
    /// volatile state recovery is the cluster's job).
    pub fn restart(&mut self, r: ReplicaId) {
        self.crashed.remove(&r);
    }

    /// Whether a replica is crashed.
    pub fn is_crashed(&self, r: ReplicaId) -> bool {
        self.crashed.contains(&r)
    }

    /// Advance virtual time without delivering (models client-side think
    /// time between rounds).
    pub fn advance(&mut self, us: Micros) {
        self.now += us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MessageBus<&'static str> {
        MessageBus::new(
            LatencyModel {
                base_us: 100,
                jitter_us: 0,
            },
            1,
        )
    }

    #[test]
    fn delivery_advances_virtual_time() {
        let mut b = bus();
        b.send(ReplicaId(0), ReplicaId(1), "hi");
        let (from, to, m) = b.recv().unwrap();
        assert_eq!((from, to, m), (ReplicaId(0), ReplicaId(1), "hi"));
        assert_eq!(b.now(), 100);
        assert!(b.recv().is_none());
    }

    #[test]
    fn ordering_is_by_delivery_time() {
        let mut b = bus();
        b.send(ReplicaId(0), ReplicaId(1), "first");
        b.advance(50);
        b.send(ReplicaId(0), ReplicaId(1), "second");
        let (_, _, m1) = b.recv().unwrap();
        let (_, _, m2) = b.recv().unwrap();
        assert_eq!((m1, m2), ("first", "second"));
        assert_eq!(b.now(), 150);
    }

    #[test]
    fn partitions_drop() {
        let mut b = bus();
        b.partition(ReplicaId(0), ReplicaId(1));
        b.send(ReplicaId(0), ReplicaId(1), "lost");
        b.send(ReplicaId(1), ReplicaId(0), "lost too");
        assert!(b.recv().is_none());
        assert_eq!(b.dropped, 2);
        b.heal();
        b.send(ReplicaId(0), ReplicaId(1), "ok");
        assert!(b.recv().is_some());
    }

    #[test]
    fn crash_drops_queued_deliveries() {
        let mut b = bus();
        b.send(ReplicaId(0), ReplicaId(1), "in flight");
        b.crash(ReplicaId(1));
        assert!(b.recv().is_none());
        assert_eq!(b.dropped, 1);
        b.restart(ReplicaId(1));
        assert!(!b.is_crashed(ReplicaId(1)));
    }

    #[test]
    fn drop_probability_is_seeded() {
        let run = |seed| {
            let mut b: MessageBus<u32> = MessageBus::new(
                LatencyModel {
                    base_us: 1,
                    jitter_us: 0,
                },
                seed,
            );
            b.drop_prob = 0.5;
            for i in 0..50 {
                b.send(ReplicaId(0), ReplicaId(1), i);
            }
            let mut got = Vec::new();
            while let Some((_, _, m)) = b.recv() {
                got.push(m);
            }
            got
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).len(), 50);
    }

    #[test]
    fn wan_is_slower_than_intra_dc() {
        let mut intra: MessageBus<()> = MessageBus::new(LatencyModel::intra_dc(), 3);
        let mut wan: MessageBus<()> = MessageBus::new(LatencyModel::wan(), 3);
        intra.send(ReplicaId(0), ReplicaId(1), ());
        wan.send(ReplicaId(0), ReplicaId(1), ());
        intra.recv();
        wan.recv();
        assert!(wan.now() > 10 * intra.now());
    }
}
