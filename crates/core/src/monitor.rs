//! The monitor: periodic collection of network state into the OS.
//!
//! Paper §3, §6.3: the monitor "periodically collects the current network
//! state from the switches and links, transforms it into OS variables, and
//! writes the variables to the storage service", shielding everyone else
//! from device heterogeneity. "We split the monitoring responsibility
//! across many monitor instances, so each instance covers roughly 1,000
//! switches."
//!
//! Protocol use mirrors the deployment: SNMP for power/firmware/config
//! state and counters on everything; OpenFlow collection for routing state
//! on OpenFlow models; the vendor CLI for the RIB of BGP routers. A device
//! that times out is handled the way network management systems do: the
//! monitor marks every incident link oper-down (its live peers corroborate
//! this), which is exactly the signal the checker's projection needs to
//! treat the device as unavailable.
//!
//! Rounds are *partial-tolerant*: no device failure aborts a round. A
//! failing device is quarantined for a cooldown — its OS rows go stale
//! and its links stay inferred-down — instead of being re-polled (and
//! re-timing-out) every round. After the cooldown one half-open probe
//! either clears the quarantine or renews it. Only storage write failures
//! abort a round; those are the coordinator's degraded-mode concern.

use parking_lot::Mutex;
use statesman_net::{DeviceModel, DeviceProtocol, OpenFlowSim, SimNetwork, SnmpSim, VendorCliSim};
use statesman_storage::{StorageService, WriteRequest};
use statesman_topology::NetworkGraph;
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityName, NetworkState, Pool, SimDuration,
    SimTime, StateResult, Value, VarId, WorkerPool,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Modeled per-entity poll cost (SNMP walk + parse), milliseconds.
const POLL_MS: u64 = 50;
/// Concurrent polls per monitor instance.
const CONCURRENCY_PER_SHARD: u64 = 64;
/// Switches per monitor instance (§6.3: "roughly 1,000 switches").
pub const SHARD_SIZE: usize = 1_000;
/// Changed-row count above which a bootstrap round (empty diff base)
/// routes through the storage bulk-ingest path instead of chunked
/// steady-state writes. Matches the 50K chunk size: below it the
/// chunked path is a single WriteBatch per partition anyway, so the
/// switch only replaces rounds that would otherwise multi-chunk.
pub const BULK_SEED_THRESHOLD: usize = 50_000;
/// Default quarantine cooldown after a failed device poll.
pub const DEFAULT_QUARANTINE_COOLDOWN: SimDuration = SimDuration::from_mins(5);
/// Default full-resync cadence: every Nth round writes the whole OS view
/// regardless of the diff cache, healing any drift between the monitor's
/// memory of what it wrote and what storage actually holds.
pub const DEFAULT_RESYNC_EVERY: u64 = 16;

/// One collection round's outcome.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Devices successfully polled.
    pub devices_polled: usize,
    /// Devices that timed out (rebooting, powered off, broken).
    pub devices_unreachable: usize,
    /// Devices skipped this round because they are quarantined from an
    /// earlier failed poll (their links stay inferred-down; their other
    /// OS rows go stale).
    pub devices_quarantined: usize,
    /// Links reported (directly or inferred down).
    pub links_polled: usize,
    /// OS rows written.
    pub rows_written: usize,
    /// Polled rows *not* written because they match the monitor's last
    /// written value (the delta path; quiescent rounds suppress nearly
    /// everything).
    pub writes_suppressed: usize,
    /// Number of monitor instances (shards) this round used.
    pub shards: usize,
    /// Modeled wall time of the collection round in simulated terms
    /// (polls run concurrently within each shard).
    pub sim_io: SimDuration,
    /// Host wall-clock time of the round (compute only).
    pub elapsed: Duration,
    /// Wall time spent polling devices and links (including shard
    /// fan-in on the parallel path).
    pub stage_poll: Duration,
    /// Wall time spent deduplicating and diffing against the last
    /// written base.
    pub stage_diff: Duration,
    /// Wall time spent on storage writes and diff-base maintenance.
    pub stage_write: Duration,
    /// Stage breakdown of the bulk-ingest seed write, present only on
    /// rounds routed through [`StorageService::write_bulk`] (an empty
    /// diff base plus a seed-sized changed set — bootstrap).
    pub seed: Option<statesman_storage::SeedStats>,
}

/// The monitor over one simulated network.
pub struct Monitor {
    net: SimNetwork,
    snmp: SnmpSim,
    of: OpenFlowSim,
    cli: VendorCliSim,
    storage: StorageService,
    graph: NetworkGraph,
    /// Devices under quarantine, mapped to when their cooldown expires.
    quarantine: Mutex<HashMap<DeviceName, SimTime>>,
    quarantine_cooldown: SimDuration,
    /// What this monitor last wrote per variable: the diff base that lets
    /// a round write only rows whose value actually changed. Columnar by
    /// default — the base lives in the process-wide OS slot space, so a
    /// full-coverage round clears and refills the same arena instead of
    /// reallocating a map. Cleared on any write failure so the next round
    /// rewrites everything (the cache may no longer match what storage
    /// holds).
    last_written: Mutex<crate::view::MapView>,
    /// Rounds completed (drives the periodic full resync).
    rounds: Mutex<u64>,
    /// Every Nth round ignores the diff cache and writes the full view
    /// (1 = the pre-delta behavior: every round writes everything).
    resync_every: u64,
}

impl Monitor {
    /// Build a monitor with the standard protocol adapters.
    pub fn new(net: SimNetwork, storage: StorageService, graph: NetworkGraph) -> Self {
        Monitor {
            snmp: SnmpSim::new(net.clone()),
            of: OpenFlowSim::new(net.clone()),
            cli: VendorCliSim::new(net.clone()),
            net,
            storage,
            graph,
            quarantine: Mutex::new(HashMap::new()),
            quarantine_cooldown: DEFAULT_QUARANTINE_COOLDOWN,
            last_written: Mutex::new(crate::view::MapView::columnar(Pool::Observed)),
            rounds: Mutex::new(0),
            resync_every: DEFAULT_RESYNC_EVERY,
        }
    }

    /// Enable or disable the columnar diff base (`true` by default).
    /// Disabled, the base is a plain hash map — the reference layout the
    /// columnar plane is property-tested against.
    pub fn with_columnar_state(mut self, enabled: bool) -> Self {
        *self.last_written.get_mut() = if enabled {
            crate::view::MapView::columnar(Pool::Observed)
        } else {
            crate::view::MapView::new()
        };
        self
    }

    /// Replace the quarantine cooldown (how long a failed device is left
    /// unpolled before a half-open re-probe).
    pub fn with_quarantine_cooldown(mut self, cooldown: SimDuration) -> Self {
        self.quarantine_cooldown = cooldown;
        self
    }

    /// Replace the full-resync cadence. `1` disables the delta path
    /// entirely: every round writes the whole view, as before deltas.
    pub fn with_resync_every(mut self, every: u64) -> Self {
        self.resync_every = every.max(1);
        self
    }

    /// Devices currently under quarantine at `now` — the set the checker
    /// must treat as uncontrollable (their OS rows are stale).
    pub fn quarantined_devices(&self, now: SimTime) -> BTreeSet<DeviceName> {
        self.quarantine
            .lock()
            .iter()
            .filter(|(_, &until)| now < until)
            .map(|(d, _)| d.clone())
            .collect()
    }

    fn is_quarantined(&self, device: &DeviceName, now: SimTime) -> bool {
        matches!(self.quarantine.lock().get(device), Some(&until) if now < until)
    }

    /// Record a poll outcome in the quarantine table: failures (re)start
    /// the cooldown, successes clear it.
    fn note_poll(&self, device: &DeviceName, now: SimTime, reachable: bool) {
        let mut q = self.quarantine.lock();
        if reachable {
            q.remove(device);
        } else {
            q.insert(device.clone(), now + self.quarantine_cooldown);
        }
    }

    /// The NMS inference rows for an unresponsive device: every incident
    /// link is oper-down for traffic purposes (its live peers corroborate
    /// this).
    fn inferred_down_rows(
        &self,
        node_id: statesman_topology::NodeId,
        now: SimTime,
        writer: &AppId,
    ) -> Vec<NetworkState> {
        let mut rows = Vec::new();
        for (e, _) in self.graph.neighbors(node_id) {
            let edge = self.graph.edge(*e);
            rows.push(NetworkState::new(
                EntityName::link_named(edge.datacenter.clone(), edge.name.clone()),
                Attribute::LinkOperStatus,
                Value::oper(false),
                now,
                writer.clone(),
            ));
        }
        rows
    }

    /// Poll one device: its state rows on success, or inferred link-down
    /// rows when its management plane fails in any way. Returns
    /// (rows, reachable). Infallible by design — a broken device must
    /// never abort a collection round (partial-round tolerance).
    fn collect_one_device(
        &self,
        node_id: statesman_topology::NodeId,
        now: SimTime,
        writer: &AppId,
    ) -> (Vec<NetworkState>, bool) {
        let info = self.graph.node(node_id);
        let entity = EntityName::device(info.datacenter.clone(), info.name.clone());
        let mut rows = Vec::new();
        match self.snmp.collect_device(&info.name) {
            Ok(pairs) => {
                for (attr, value) in pairs {
                    rows.push(NetworkState::new(
                        entity.clone(),
                        attr,
                        value,
                        now,
                        writer.clone(),
                    ));
                }
                // Routing state by model.
                let model = self
                    .net
                    .device_snapshot(&info.name)
                    .map(|d| d.model)
                    .unwrap_or(DeviceModel::OpenFlowSwitch);
                let routing = match model {
                    DeviceModel::OpenFlowSwitch => self.of.collect_device(&info.name),
                    DeviceModel::BgpRouter => self.cli.collect_device(&info.name),
                };
                if let Ok(pairs) = routing {
                    for (attr, value) in pairs {
                        rows.push(NetworkState::new(
                            entity.clone(),
                            attr,
                            value,
                            now,
                            writer.clone(),
                        ));
                    }
                }
                (rows, true)
            }
            Err(_) => (self.inferred_down_rows(node_id, now, writer), false),
        }
    }

    /// Poll one link (or infer oper-down when neither endpoint answers).
    /// Infallible for the same reason as device polls.
    fn collect_one_link(
        &self,
        edge_id: statesman_topology::EdgeId,
        now: SimTime,
        writer: &AppId,
    ) -> Vec<NetworkState> {
        let edge = self.graph.edge(edge_id);
        let entity = EntityName::link_named(edge.datacenter.clone(), edge.name.clone());
        match self.snmp.collect_link(&edge.name) {
            Ok(pairs) => pairs
                .into_iter()
                .map(|(attr, value)| {
                    NetworkState::new(entity.clone(), attr, value, now, writer.clone())
                })
                .collect(),
            Err(_) => vec![NetworkState::new(
                entity,
                Attribute::LinkOperStatus,
                Value::oper(false),
                now,
                writer.clone(),
            )],
        }
    }

    /// Deduplicate, persist, and account one round's rows.
    #[allow(clippy::too_many_arguments)]
    fn finish_round(
        &self,
        rows: Vec<NetworkState>,
        devices_polled: usize,
        devices_unreachable: usize,
        devices_quarantined: usize,
        links_polled: usize,
        entities_polled: u64,
        skipped_dcs: bool,
        started: Instant,
    ) -> StateResult<MonitorReport> {
        let stage_poll = started.elapsed();
        // De-duplicate: a link may get an inferred down row (from a dead
        // endpoint) *and* a polled row (from the live peer); polled rows
        // already report oper-down for dead-endpoint links, so shadowing
        // is consistent either way. A hash map (not the full sort) keeps
        // the quiescent-round cost linear.
        let mut dedup: HashMap<VarId, NetworkState> = HashMap::with_capacity(rows.len());
        for r in rows {
            dedup.insert(r.var_id(), r);
        }
        let round = {
            let mut r = self.rounds.lock();
            let current = *r;
            *r += 1;
            current
        };
        let force_full = round % self.resync_every == 0;
        let mut last = self.last_written.lock();
        let base_empty = last.rows().next().is_none();
        let mut changed: Vec<NetworkState> = Vec::new();
        let mut writes_suppressed = 0usize;
        for (vid, row) in &dedup {
            let unchanged = crate::view::StateView::get_var(&*last, *vid)
                .map(|p| p.value == row.value && p.writer == row.writer)
                .unwrap_or(false);
            if unchanged && !force_full {
                writes_suppressed += 1;
                continue;
            }
            changed.push(row.clone());
        }
        // Only the changed rows need the deterministic write order —
        // string-key order, not id order (ids follow interning order).
        changed.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        let rows_written = changed.len();
        let diff_done = started.elapsed();
        let stage_diff = diff_done - stage_poll;
        // Chunk large rounds: one consensus commit per ~50K rows *per
        // partition* keeps per-message payloads bounded at DC scale (§8:
        // 394K variables). Chunks are ranked within each partition and
        // every write batch carries each partition's same-rank chunk, so
        // the storage proxy's per-partition fan-out commits them
        // concurrently — while each ring still sees its own rows in the
        // exact order the serial loop fed them, keeping versions,
        // watermarks, and the wire format byte-identical.
        let mut seed = None;
        if base_empty && changed.len() >= BULK_SEED_THRESHOLD {
            // Bootstrap: the diff base has never been written, so every
            // row is new and each partition's pool is being seeded from
            // empty. One BulkBatch per partition (batched slot minting,
            // pre-sized columns, single watermark bump) replaces the
            // chunked steady-state commits — below the threshold the
            // chunked path degenerates to one WriteBatch per partition
            // anyway, so small fabrics keep their exact prior behavior.
            // The write consumes `changed` instead of cloning it — at
            // seed scale that clone is millions of rows — and the diff
            // base below refills from `dedup`, which at seed holds the
            // same set (an empty base suppresses nothing).
            match self.storage.write_bulk(WriteRequest {
                pool: Pool::Observed,
                rows: std::mem::take(&mut changed),
            }) {
                Ok(stats) => seed = Some(stats),
                Err(e) => {
                    // The diff base may no longer match storage; rewrite
                    // everything next round.
                    last.clear();
                    return Err(e);
                }
            }
        } else {
            let mut by_part: BTreeMap<&DatacenterId, Vec<&NetworkState>> = BTreeMap::new();
            for row in &changed {
                by_part.entry(&row.entity.datacenter).or_default().push(row);
            }
            let max_chunks = by_part
                .values()
                .map(|rows| rows.len().div_ceil(50_000))
                .max()
                .unwrap_or(0);
            for rank in 0..max_chunks {
                let batch: Vec<NetworkState> = by_part
                    .values()
                    .flat_map(|rows| {
                        rows.chunks(50_000)
                            .nth(rank)
                            .unwrap_or(&[])
                            .iter()
                            .map(|&r| r.clone())
                    })
                    .collect();
                if let Err(e) = self.storage.write(WriteRequest {
                    pool: Pool::Observed,
                    rows: batch,
                }) {
                    // The diff base may no longer match storage; rewrite
                    // everything next round.
                    last.clear();
                    return Err(e);
                }
            }
        }
        // Everything this round observed — written or suppressed — is the
        // diff base for the next round. Keys in skipped DCs or on
        // quarantined/unreachable devices were not polled, so those
        // rounds must merge to carry their entries over.
        let full_coverage = !skipped_dcs && devices_quarantined == 0 && devices_unreachable == 0;
        if seed.is_some() {
            // Bulk seed: the base was empty and every polled row was
            // written (the write consumed `changed`), so the refill
            // comes from the dedup map — the same rows, and upserting
            // into a map is order-independent.
            for (_, row) in dedup {
                last.upsert(row);
            }
        } else if full_coverage && !force_full {
            // Full coverage, delta round: the base already holds every
            // polled key with its last-written value, so upserting only
            // the changed rows and dropping keys that vanished from the
            // poll is equivalent to the wholesale refill — minus cloning
            // millions of unchanged rows back into place. Unchanged base
            // rows keep their older timestamps; the diff above compares
            // value + writer only, so that is invisible.
            let stale: Vec<statesman_types::StateKey> = last
                .rows()
                .filter(|r| !dedup.contains_key(&r.var_id()))
                .map(|r| statesman_types::StateKey::new(r.entity.clone(), r.attribute))
                .collect();
            for key in &stale {
                last.remove(key);
            }
            for row in changed {
                last.upsert(row);
            }
        } else {
            if full_coverage {
                // Wholesale replacement; a columnar base keeps its slots
                // and arena, so this writes straight back into place.
                last.clear();
            }
            for (_, row) in dedup {
                last.upsert(row);
            }
        }
        drop(last);

        let shards = self.graph.node_count().div_ceil(SHARD_SIZE).max(1);
        let lanes = shards as u64 * CONCURRENCY_PER_SHARD;
        let sim_io = SimDuration::from_millis(entities_polled.div_ceil(lanes) * POLL_MS);

        let elapsed = started.elapsed();
        Ok(MonitorReport {
            devices_polled,
            devices_unreachable,
            devices_quarantined,
            links_polled,
            rows_written,
            writes_suppressed,
            shards,
            sim_io,
            elapsed,
            stage_poll,
            stage_diff,
            stage_write: elapsed.saturating_sub(diff_done),
            seed,
        })
    }

    /// Run one collection round: poll everything, write the OS.
    pub fn run_round(&self) -> StateResult<MonitorReport> {
        self.run_round_sharded(1, &BTreeSet::new())
    }

    /// Run one collection round with `instances` concurrent monitor
    /// instances (§6.3: "We split the monitoring responsibility across
    /// many monitor instances"), skipping every entity homed in
    /// `skip_dcs` (their storage partition is down, so their OS rows
    /// could not be written anyway; the coordinator's degraded mode
    /// drives this).
    ///
    /// The one poll loop: the devices and links outside `skip_dcs` are
    /// cut into `instances` contiguous shards, polled one shard per
    /// worker, and merged in shard order — devices first, then links,
    /// exactly the row order of a single instance — so the round's
    /// outcome does not depend on the instance count.
    pub fn run_round_sharded(
        &self,
        instances: usize,
        skip_dcs: &BTreeSet<DatacenterId>,
    ) -> StateResult<MonitorReport> {
        let started = Instant::now();
        let now = self.net.clock().now();
        let writer = AppId::monitor();
        let pool = WorkerPool::new(instances);

        let device_ids: Vec<statesman_topology::NodeId> = self
            .graph
            .nodes()
            .filter(|(_, info)| !skip_dcs.contains(&info.datacenter))
            .map(|(id, _)| id)
            .collect();
        let device_shards = pool.run(shards(&device_ids, pool.threads()), |_, shard| {
            let mut poll = DevicePoll::default();
            for &node_id in shard {
                let name = &self.graph.node(node_id).name;
                // Quarantined devices are not re-polled (no poll budget
                // spent re-timing-out); their links stay inferred-down.
                if self.is_quarantined(name, now) {
                    poll.quarantined += 1;
                    poll.rows
                        .extend(self.inferred_down_rows(node_id, now, &writer));
                    continue;
                }
                let (mut rows, reachable) = self.collect_one_device(node_id, now, &writer);
                poll.rows.append(&mut rows);
                self.note_poll(name, now, reachable);
                if reachable {
                    poll.polled += 1;
                } else {
                    poll.unreachable += 1;
                }
            }
            poll
        });

        let edge_ids: Vec<statesman_topology::EdgeId> = self
            .graph
            .edges()
            .filter(|(_, edge)| !skip_dcs.contains(&edge.datacenter))
            .map(|(id, _)| id)
            .collect();
        let link_shards = pool.run(shards(&edge_ids, pool.threads()), |_, shard| {
            let mut rows = Vec::new();
            for &edge_id in shard {
                rows.extend(self.collect_one_link(edge_id, now, &writer));
            }
            rows
        });

        let mut devices = DevicePoll::default();
        for mut shard in device_shards {
            devices.polled += shard.polled;
            devices.unreachable += shard.unreachable;
            devices.quarantined += shard.quarantined;
            concat(&mut devices.rows, &mut shard.rows);
        }
        let mut rows = devices.rows;
        for mut shard in link_shards {
            concat(&mut rows, &mut shard);
        }
        self.finish_round(
            rows,
            devices.polled,
            devices.unreachable,
            devices.quarantined,
            edge_ids.len(),
            (devices.polled + devices.unreachable + edge_ids.len()) as u64,
            !skip_dcs.is_empty(),
            started,
        )
    }
}

/// One shard's device polls: the rows collected (or inferred) and the
/// per-outcome device counts.
#[derive(Default)]
struct DevicePoll {
    rows: Vec<NetworkState>,
    polled: usize,
    unreachable: usize,
    quarantined: usize,
}

/// Cut `ids` into at most `instances` contiguous shards.
fn shards<T>(ids: &[T], instances: usize) -> Vec<&[T]> {
    ids.chunks(ids.len().div_ceil(instances).max(1)).collect()
}

/// Append `part` to `all`, taking over `part`'s buffer when `all` is
/// still empty so the first shard's rows are never copied.
fn concat<T>(all: &mut Vec<T>, part: &mut Vec<T>) {
    if all.is_empty() {
        std::mem::swap(all, part);
    } else {
        all.append(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_net::{DeviceCommand, SimClock, SimConfig};
    use statesman_topology::DcnSpec;
    use statesman_types::{DatacenterId, DeviceName, Freshness, LinkName, StateKey};

    fn setup() -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::single_dc("dc1", clock.clone());
        (net, storage, graph, clock)
    }

    #[test]
    fn healthy_round_covers_everything() {
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph.clone());
        let report = m.run_round().unwrap();
        assert_eq!(report.devices_polled, graph.node_count());
        assert_eq!(report.devices_unreachable, 0);
        assert_eq!(report.links_polled, graph.edge_count());
        assert!(report.rows_written > graph.node_count() * 7);
        assert_eq!(report.shards, 1);
        assert!(report.sim_io > SimDuration::ZERO);

        // Spot-check an OS row.
        let fw = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                ),
            )
            .unwrap()
            .unwrap();
        assert_eq!(fw.value, Value::text("6.0.3"));
        assert_eq!(fw.writer, AppId::monitor());
    }

    #[test]
    fn routing_state_collected_per_model() {
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net.clone(), storage.clone(), graph);
        m.run_round().unwrap();
        let rules = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::device("dc1", "tor-1-1"),
                    Attribute::DeviceRoutingRules,
                ),
            )
            .unwrap();
        assert!(rules.is_some(), "OpenFlow switches report routing state");
    }

    #[test]
    fn rebooting_device_marks_links_down() {
        let (net, storage, graph, _clock) = setup();
        // Start an upgrade with a long reboot window.
        let g2 = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net2 = SimNetwork::new(&g2, net.clock().clone(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net2.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net2.step(SimDuration::from_millis(1));

        let m = Monitor::new(net2, storage.clone(), graph);
        let report = m.run_round().unwrap();
        assert_eq!(report.devices_unreachable, 1);
        let oper = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link("dc1", "tor-1-1", "agg-1-1"),
                    Attribute::LinkOperStatus,
                ),
            )
            .unwrap()
            .unwrap();
        assert!(!oper.value.as_oper().unwrap().is_up());
    }

    #[test]
    fn fcs_fault_reaches_the_os() {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = cfg.faults.with_event(
            statesman_types::SimTime::from_mins(1),
            statesman_net::FaultEvent::SetFcsErrorRate {
                link: link.clone(),
                rate: 0.04,
            },
        );
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.step_to(statesman_types::SimTime::from_mins(1));
        let m = Monitor::new(net, storage.clone(), graph);
        m.run_round().unwrap();
        let fcs = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link_named("dc1", link),
                    Attribute::LinkFcsErrorRate,
                ),
            )
            .unwrap()
            .unwrap();
        assert_eq!(fcs.value.as_float(), Some(0.04));
    }

    #[test]
    fn repeated_rounds_update_in_place() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph);
        let r1 = m.run_round().unwrap();
        assert_eq!(r1.writes_suppressed, 0, "first round writes everything");
        let n1 = storage.pool_len(&DatacenterId::new("dc1"), &Pool::Observed);
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap();
        let n2 = storage.pool_len(&DatacenterId::new("dc1"), &Pool::Observed);
        assert_eq!(n1, n2, "rows are upserts, not appends");
        // A quiescent round suppresses the unchanged rows instead of
        // rewriting them; the stored row keeps its original timestamp.
        assert!(r2.writes_suppressed > 0);
        assert!(r2.rows_written < r1.rows_written);
        let rows = storage
            .read(statesman_storage::ReadRequest {
                datacenter: DatacenterId::new("dc1"),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: Some(EntityName::device("dc1", "core-1")),
                attribute: Some(Attribute::DeviceFirmwareVersion),
            })
            .unwrap();
        assert!(
            rows[0].updated_at < clock.now(),
            "unchanged value not rewritten"
        );
    }

    #[test]
    fn resync_round_rewrites_the_full_view() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(2);
        let r1 = m.run_round().unwrap(); // round 0: forced full
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap(); // round 1: delta
        clock.advance(SimDuration::from_mins(5));
        let r3 = m.run_round().unwrap(); // round 2: forced full again
        assert!(r2.rows_written < r1.rows_written);
        assert_eq!(r3.rows_written, r1.rows_written);
        assert_eq!(r3.writes_suppressed, 0);
    }

    #[test]
    fn resync_every_one_disables_the_delta_path() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(1);
        let r1 = m.run_round().unwrap();
        clock.advance(SimDuration::from_mins(5));
        let r2 = m.run_round().unwrap();
        assert_eq!(r1.rows_written, r2.rows_written);
        assert_eq!(r2.writes_suppressed, 0);
    }

    #[test]
    fn write_failure_clears_the_diff_base() {
        let (net, storage, graph, clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph).with_resync_every(2);
        let dc = DatacenterId::new("dc1");
        let r0 = m.run_round().unwrap(); // round 0: full
        clock.advance(SimDuration::from_mins(5));
        m.run_round().unwrap(); // round 1: delta
        storage.set_partition_available(&dc, false);
        clock.advance(SimDuration::from_mins(5));
        // Round 2 is a forced resync: the write fails against the offline
        // partition and must clear the diff base.
        assert!(m.run_round().is_err());
        storage.set_partition_available(&dc, true);
        clock.advance(SimDuration::from_mins(5));
        // Round 3 would normally be a delta round, but with the base
        // cleared it rewrites the whole view.
        let r3 = m.run_round().unwrap();
        assert_eq!(r3.rows_written, r0.rows_written);
        assert_eq!(r3.writes_suppressed, 0);
    }

    #[test]
    fn parallel_round_matches_serial() {
        // Identical worlds polled by 1, 3 and 4 monitor instances, with
        // and without a skipped DC, must end with identical reports and
        // OS contents. dc1.agg-1-1 is unreachable in round 1 and back up
        // — but still quarantined — in round 2, so its inferred-down link
        // rows compete with the polled rows of the same links: only the
        // fixed merge order makes that outcome instance-count invariant.
        let dcs = [DatacenterId::new("dc1"), DatacenterId::new("dc2")];
        let run = |instances: usize, skip: &BTreeSet<DatacenterId>| {
            let clock = SimClock::new();
            let mut graph = NetworkGraph::new();
            DcnSpec::tiny("dc1").build_prefixed_into(&mut graph);
            DcnSpec::tiny("dc2").build_prefixed_into(&mut graph);
            let mut cfg = SimConfig::ideal();
            cfg.faults.reboot_window_ms = 30_000;
            let net = SimNetwork::new(&graph, clock.clone(), cfg);
            let storage = StorageService::new(dcs.clone(), clock, Default::default());
            net.submit(
                &DeviceName::new("dc1.agg-1-1"),
                DeviceCommand::UpgradeFirmware {
                    version: "7".into(),
                },
            );
            net.step(SimDuration::from_millis(1));
            let m = Monitor::new(net.clone(), storage.clone(), graph);
            let r1 = m.run_round_sharded(instances, &BTreeSet::new()).unwrap();
            assert_eq!(r1.devices_unreachable, 1);
            net.step(SimDuration::from_mins(1));
            let r2 = m.run_round_sharded(instances, skip).unwrap();
            assert_eq!(r2.devices_quarantined, 1);
            let mut os: Vec<(StateKey, Value)> = Vec::new();
            for dc in &dcs {
                let rows = storage.read(statesman_storage::ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                });
                os.extend(rows.unwrap().into_iter().map(|r| (r.key(), r.value)));
            }
            os.sort_by(|a, b| a.0.cmp(&b.0));
            let counts = [r1, r2].map(|r| {
                (
                    r.devices_polled,
                    r.links_polled,
                    r.rows_written,
                    r.writes_suppressed,
                )
            });
            (counts, os)
        };
        for skip in [BTreeSet::new(), BTreeSet::from([dcs[1].clone()])] {
            let serial = run(1, &skip);
            for instances in [3, 4] {
                assert_eq!(
                    run(instances, &skip),
                    serial,
                    "instances={instances} skip={skip:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_round_handles_unreachable_devices() {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.submit(
            &DeviceName::new("agg-1-1"),
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let m = Monitor::new(net, storage, graph);
        let r = m.run_round_sharded(3, &BTreeSet::new()).unwrap();
        assert_eq!(r.devices_unreachable, 1);
    }

    /// A world where agg-1-1 is mid-reboot (unreachable) for `reboot_ms`.
    fn rebooting_world(reboot_ms: u64) -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = reboot_ms;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        net.submit(
            &DeviceName::new("agg-1-1"),
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        (net, storage, graph, clock)
    }

    #[test]
    fn failed_device_is_quarantined_then_reprobed() {
        let (net, storage, graph, clock) = rebooting_world(120_000);
        let m = Monitor::new(net.clone(), storage.clone(), graph.clone())
            .with_quarantine_cooldown(SimDuration::from_mins(5));

        // Round 1: the poll fails; the device enters quarantine.
        let r1 = m.run_round().unwrap();
        assert_eq!(r1.devices_unreachable, 1);
        assert_eq!(r1.devices_quarantined, 0);
        assert_eq!(m.quarantined_devices(clock.now()).len(), 1);

        // Round 2, inside the cooldown: no re-poll, links stay inferred
        // down, the round completes.
        net.step(SimDuration::from_mins(1));
        let r2 = m.run_round().unwrap();
        assert_eq!(r2.devices_unreachable, 0);
        assert_eq!(r2.devices_quarantined, 1);
        assert!(r2.sim_io <= r1.sim_io, "quarantine must not add poll cost");
        let oper = storage
            .read_row(
                &Pool::Observed,
                &StateKey::new(
                    EntityName::link("dc1", "tor-1-1", "agg-1-1"),
                    Attribute::LinkOperStatus,
                ),
            )
            .unwrap()
            .unwrap();
        assert!(!oper.value.as_oper().unwrap().is_up());

        // Cooldown over, reboot finished: the half-open probe succeeds.
        net.step(SimDuration::from_mins(5));
        let r3 = m.run_round().unwrap();
        assert_eq!(r3.devices_quarantined, 0);
        assert_eq!(r3.devices_polled, graph.node_count());
        assert!(m.quarantined_devices(clock.now()).is_empty());
    }

    #[test]
    fn failed_reprobe_renews_quarantine() {
        let (net, storage, graph, clock) = rebooting_world(20 * 60_000);
        let m = Monitor::new(net.clone(), storage, graph)
            .with_quarantine_cooldown(SimDuration::from_mins(5));
        m.run_round().unwrap();
        // Past the cooldown but still rebooting: the probe fails and the
        // quarantine is renewed rather than dropped.
        net.step(SimDuration::from_mins(6));
        let r2 = m.run_round().unwrap();
        assert_eq!(r2.devices_unreachable, 1);
        assert_eq!(m.quarantined_devices(clock.now()).len(), 1);
    }

    #[test]
    fn shard_count_follows_paper_sizing() {
        // 2,500 devices → 3 instances at 1,000 switches each.
        assert_eq!(2_500usize.div_ceil(SHARD_SIZE), 3);
    }
}
