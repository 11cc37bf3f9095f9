//! Seed-driven input generators. Everything a workload feeds the system
//! comes from here, so the same `--seed` gives byte-identical inputs and
//! the system under test never sees the seed itself.

use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, NetworkState, SimTime, Value, WriteOutcome,
    WriteReceipt,
};

/// SplitMix64: small, fast, and owned by this package so generated inputs
/// cannot change under a `rand` shim edit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed: streams of the same
    /// seed are independent, so adding a stream never shifts another.
    pub fn stream(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One firmware proposal: a device and the version it should reach.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Datacenter of the device.
    pub dc: DatacenterId,
    /// The device entity.
    pub entity: EntityName,
    /// The firmware version proposed.
    pub version: String,
}

/// What the rollout application posts in one pipeline round.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    /// The campaign wave: one Agg in each of `per_wave` distinct pods,
    /// alternating datacenters. Every row must be accepted.
    pub campaign: Vec<Target>,
    /// The over-reaching proposal: three of the four Aggs of one pod in a
    /// single write. Two keep the pod at half capacity and are accepted;
    /// the third would leave it a quarter and the capacity invariant must
    /// reject it.
    pub greedy: Vec<Target>,
}

/// Rounds a pod stays reserved after a wave touched it. Longer than any
/// wave's journey (reboot window plus quarantine cooldown is seven
/// rounds), so no pod ever has a second wave's Agg down beside the first.
pub const POD_REUSE_ROUNDS: usize = 10;

/// Pods per datacenter the greedy proposals cycle through.
fn greedy_pods_per_dc(dcs: usize) -> usize {
    POD_REUSE_ROUNDS.div_ceil(dcs)
}

/// Aggs per campaign wave a deployment can sustain: at most `wanted`, a
/// whole number per datacenter, and few enough that a pod is not reused
/// within [`POD_REUSE_ROUNDS`].
pub fn wave_width(dcs: usize, pods_per_dc: usize, wanted: usize) -> usize {
    let campaign_pods = pods_per_dc.saturating_sub(greedy_pods_per_dc(dcs)) * dcs;
    let width = wanted.min(campaign_pods / POD_REUSE_ROUNDS) / dcs * dcs;
    assert!(
        width > 0,
        "{pods_per_dc} pods per DC are too few for a rollout"
    );
    width
}

/// The rollout wave schedule: `rounds` waves over `dcs` datacenters of
/// `pods_per_dc` pods each (fabric device names as `DeploymentSpec`
/// prefixes them, `<dc>.agg-<pod>-<n>`).
///
/// Pods are split per datacenter into a campaign set and a small greedy
/// set, both shuffled by the seed; each is walked round-robin, and every
/// full pass over a set moves to the next Agg index and firmware version,
/// so the schedule never runs dry and the work per wave is the same for
/// every seed.
pub fn wave_schedule(
    seed: u64,
    dcs: &[DatacenterId],
    pods_per_dc: usize,
    per_wave: usize,
    rounds: usize,
) -> Vec<Wave> {
    let greedy_per_dc = greedy_pods_per_dc(dcs.len());
    let campaign_per_dc = pods_per_dc.saturating_sub(greedy_per_dc);
    assert!(
        per_wave > 0 && campaign_per_dc * dcs.len() >= per_wave * POD_REUSE_ROUNDS,
        "{pods_per_dc} pods per DC cannot keep {per_wave}-Agg waves in distinct pods"
    );
    let mut rng = Rng::stream(seed, "rollout.pods");
    // Per DC: shuffled pods, the tail reserved for the greedy proposals.
    let pods: Vec<Vec<u32>> = dcs
        .iter()
        .map(|_| {
            let mut p: Vec<u32> = (1..=pods_per_dc as u32).collect();
            rng.shuffle(&mut p);
            p
        })
        .collect();
    let agg = |dc: &DatacenterId, pod: u32, n: usize, pass: usize, tag: &str| Target {
        dc: dc.clone(),
        entity: EntityName::device(dc.clone(), format!("{}.agg-{pod}-{n}", dc.as_str())),
        version: format!("7.{}.{pass}-{tag}", seed % 1000),
    };
    let mut waves = Vec::with_capacity(rounds);
    let mut campaign_next = 0usize;
    for r in 0..rounds {
        let mut campaign = Vec::with_capacity(per_wave);
        for _ in 0..per_wave {
            let dc_idx = campaign_next % dcs.len();
            let slot = campaign_next / dcs.len();
            let pass = slot / campaign_per_dc;
            let pod = pods[dc_idx][slot % campaign_per_dc];
            // Agg 4 is the campaign's: the greedy set works Aggs 1–3.
            campaign.push(agg(&dcs[dc_idx], pod, 4, pass, "c"));
            campaign_next += 1;
        }
        let dc_idx = r % dcs.len();
        let slot = r / dcs.len();
        let pass = slot / greedy_per_dc;
        let pod = pods[dc_idx][campaign_per_dc + slot % greedy_per_dc];
        let greedy = (1..=3)
            .map(|n| agg(&dcs[dc_idx], pod, n, pass, "g"))
            .collect();
        waves.push(Wave { campaign, greedy });
    }
    waves
}

/// A seeded choice of `count` distinct items (the links an API workload
/// rewrites, the devices it reads and proposes on).
pub fn pick<T: Clone>(seed: u64, stream: &str, from: &[T], count: usize) -> Vec<T> {
    assert!(from.len() >= count, "need {count} of {}", from.len());
    let mut idx: Vec<usize> = (0..from.len()).collect();
    Rng::stream(seed, stream).shuffle(&mut idx);
    idx[..count].iter().map(|&i| from[i].clone()).collect()
}

/// Batch `op` of one writer: `rows` rows cycling through `keys`, each
/// carrying a value no earlier batch wrote to that key (so storage never
/// suppresses it as value-identical).
pub fn row_batch(
    seed: u64,
    writer: &AppId,
    keys: &[(EntityName, Attribute)],
    op: usize,
    rows: usize,
    now: SimTime,
) -> Vec<NetworkState> {
    let mut rng = Rng::stream(
        seed ^ (op as u64).wrapping_mul(0x9e37_79b9),
        writer.as_str(),
    );
    (0..rows)
        .map(|i| {
            let (entity, attribute) = keys[(op * rows + i) % keys.len()].clone();
            let value = match attribute {
                Attribute::DeviceBootImage | Attribute::LinkIpAssignment => {
                    Value::text(format!("v-{op}-{:08x}", rng.next_u64() as u32))
                }
                // Counters: op in the integer part keeps values distinct
                // across batches; the fraction is seeded noise.
                _ => Value::Float(op as f64 + (rng.next_u64() % 1_000_000) as f64 / 1e6),
            };
            NetworkState::new(entity, attribute, value, now, writer.clone())
        })
        .collect()
}

/// The receipts the stubbed control loop posts for one proposal batch:
/// every row accepted.
pub fn receipts_for(app: &AppId, rows: &[NetworkState], now: SimTime) -> Vec<WriteReceipt> {
    rows.iter()
        .map(|r| WriteReceipt {
            app: app.clone(),
            key: r.key(),
            proposed: r.value.clone(),
            outcome: WriteOutcome::Accepted,
            decided_at: now,
        })
        .collect()
}
