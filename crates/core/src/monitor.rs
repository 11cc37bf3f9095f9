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
//! that times out reports nothing; its links still do, through whichever
//! endpoint answers — oper-down while the device is not forwarding — and
//! a link neither endpoint answers for is marked oper-down the way
//! network management systems do, which is exactly the signal the
//! checker's projection needs to treat the devices as unavailable.
//!
//! Rounds are *partial-tolerant*: no device failure aborts a round. A
//! failing device is quarantined for a cooldown — its OS rows go stale
//! — instead of being re-polled (and re-timing-out) every round. After the cooldown one half-open probe
//! either clears the quarantine or renews it. Only storage failures abort
//! a round; those are the coordinator's degraded-mode concern.
//!
//! A round costs what changed: the poll compares the values it collects
//! against the monitor's *diff base* — what it believes the OS pool
//! holds — in place, so only a value that differs is ever built, and
//! only its row is written and stored back. The poll reads the simulator
//! by id, a block of entities under one lock ([`BlockCollector`]), as
//! values borrowed from it. The base is laid out in poll order (one
//! block of per-kind attribute columns per entity), so a comparison is
//! one indexed load. The belief is periodically distrusted, not the
//! store: see [`Monitor::with_resync_every`].
//!
//! Rows are written in key order without comparing a name or sorting:
//! every entity is ranked once by [`EntityName`] at [`Monitor::new`], the
//! poll visits entities in rank order and the adapters report each
//! entity's pairs in catalogue order, and a
//! [`StateKey`](statesman_types::StateKey) orders by entity, then
//! attribute — so the rows come out of the poll in write order.

use parking_lot::Mutex;
use statesman_net::{BlockCollector, Reading, SimNetwork};
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_topology::{EdgeId, NetworkGraph, NodeId};
use statesman_types::entity::EntityBody;
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityKind, EntityName, Freshness, NetworkState,
    OperStatus, Pool, SimDuration, SimTime, StateResult, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Modeled per-entity poll cost (SNMP walk + parse), milliseconds.
const POLL_MS: u64 = 50;
/// Concurrent polls per monitor instance.
const CONCURRENCY_PER_SHARD: u64 = 64;
/// Switches per monitor instance (§6.3: "roughly 1,000 switches").
pub const SHARD_SIZE: usize = 1_000;
/// Changed-row count above which a bootstrap round (nothing to diff
/// against and nothing stored) routes through the storage bulk-ingest
/// path instead of chunked steady-state writes. Matches the 50K chunk
/// size: below it the chunked path is a single WriteBatch per partition
/// anyway, so the switch only replaces rounds that would otherwise
/// multi-chunk.
pub const BULK_SEED_THRESHOLD: usize = 50_000;
/// Default quarantine cooldown after a failed device poll.
pub const DEFAULT_QUARANTINE_COOLDOWN: SimDuration = SimDuration::from_mins(5);
/// Default resync cadence: every Nth round distrusts the diff base,
/// re-reads the OS pool and diffs against that, healing any drift between
/// the monitor's memory of what it wrote and what storage actually holds.
pub const DEFAULT_RESYNC_EVERY: u64 = 16;
/// Entities polled under one simulator lock.
const POLL_BLOCK: usize = 1_024;
/// What a link neither endpoint answers for reports: oper-down.
const INFERRED_DOWN: [(Attribute, Reading<'static>); 1] =
    [(Attribute::LinkOperStatus, Reading::Oper(OperStatus::Down))];
/// A changed row's position when its attribute has none (another kind's).
const NO_POSITION: u32 = u32::MAX;
/// The simulator id of an entity the simulator does not hold.
const NO_SIM_ID: u32 = u32::MAX;

/// One collection round's outcome.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Devices successfully polled.
    pub devices_polled: usize,
    /// Devices that timed out (rebooting, powered off, broken).
    pub devices_unreachable: usize,
    /// Devices skipped this round because they are quarantined from an
    /// earlier failed poll (their OS rows go stale).
    pub devices_quarantined: usize,
    /// Links reported (by an endpoint, or inferred down when neither
    /// answers).
    pub links_polled: usize,
    /// OS rows written.
    pub rows_written: usize,
    /// Polled rows *not* written because they match the diff base
    /// (quiescent rounds suppress nearly everything).
    pub writes_suppressed: usize,
    /// Polled or inferred values compared against the diff base: one
    /// base probe each, `rows_written + writes_suppressed`.
    pub rows_compared: usize,
    /// Owned rows the round built: one per changed row, plus every OS
    /// row a resync re-read from storage. (The copies a write hands to
    /// storage are not counted.) A quiescent round materialises exactly
    /// what it writes.
    pub rows_materialized: usize,
    /// The modeled §6.3 monitor instance count, one per [`SHARD_SIZE`]
    /// switches, that `modeled_io` spreads the polls over. A model of the
    /// deployment, not a thread count: the host polls on one thread.
    pub shards: usize,
    /// Modeled device-polling time of the round in simulated terms (polls
    /// run concurrently within each modeled instance). A model, not a
    /// measurement: it never enters the wall-clock stage tree.
    pub modeled_io: SimDuration,
    /// Host wall-clock time of the round (compute only). The three
    /// stages below sum to it.
    pub elapsed: Duration,
    /// Wall time spent polling devices and links *and comparing what
    /// they report against the diff base*, which rides in the poll, as
    /// does building the changed rows: `stage_poll_devices +
    /// stage_poll_links`.
    pub stage_poll: Duration,
    /// The device blocks' part of `stage_poll`.
    pub stage_poll_devices: Duration,
    /// The link blocks' part of `stage_poll`.
    pub stage_poll_links: Duration,
    /// Wall time spent re-reading the OS pool into the diff base (resync
    /// rounds only) and putting the changed rows in write order:
    /// `stage_diff_reseed + stage_diff_order`.
    pub stage_diff: Duration,
    /// The re-read's part of `stage_diff` (zero outside resync rounds).
    pub stage_diff_reseed: Duration,
    /// The write order's part of `stage_diff`: the poll builds the rows
    /// in key order, so this is only the hand-off from the poll to the
    /// write — a sort that crept back in would show here.
    pub stage_diff_order: Duration,
    /// Wall time spent on storage writes and diff-base maintenance.
    pub stage_write: Duration,
    /// Stage breakdown of the bulk-ingest seed write, present only on
    /// rounds routed through [`StorageService::write_bulk`] (nothing to
    /// diff against, nothing stored, a seed-sized changed set —
    /// bootstrap).
    pub seed: Option<statesman_storage::SeedStats>,
}

/// The monitor over one simulated network.
pub struct Monitor {
    net: SimNetwork,
    collector: BlockCollector,
    storage: StorageService,
    graph: NetworkGraph,
    layout: Layout,
    /// By graph node: when the device's quarantine cooldown expires
    /// ([`SimTime::ZERO`], never after `now`, when it is not quarantined).
    quarantine: Mutex<Vec<SimTime>>,
    quarantine_cooldown: SimDuration,
    base: Mutex<DiffBase>,
    /// Every Nth round re-seeds the diff base from storage (1 = every
    /// round re-reads the store).
    resync_every: u64,
}

/// Where every polled value lives in the diff base, and the order the
/// poll visits it in. The graph is immutable, so the layout is derived
/// once. Entities are numbered node *i* as *i* and edge *j* as
/// `node_count + j`, and ranked by [`EntityName`]: the poll visits them
/// in rank order, and each entity's block of columns (device columns for
/// a node, link columns for an edge) follows the previous rank's, so the
/// poll walks the base front to back. An attribute's column is its rank
/// among the catalogue attributes of its [`EntityKind`]. A
/// [`StateKey`](statesman_types::StateKey) orders by entity, then by
/// attribute, so positions are in key order: a poll that reports each
/// entity's pairs in catalogue order builds its changed rows in the order
/// they are written, with no sort. A row read back from storage finds its
/// block through the graph's name index.
struct Layout {
    /// Each attribute's column within its kind's block, by catalogue index.
    columns: Vec<usize>,
    /// Graph nodes: the first edge's entity number.
    nodes: usize,
    /// The poll's order: every entity's number and its id in the
    /// simulator (resolved by name once; [`NO_SIM_ID`] for an entity the
    /// simulator does not hold), in rank order.
    order: Vec<(u32, u32)>,
    /// Where each entity's block starts, by entity number.
    offsets: Vec<u32>,
    /// Positions in all.
    positions: usize,
    /// The partitions homing the graph's entities: what a resync re-reads.
    datacenters: BTreeSet<DatacenterId>,
}

impl Layout {
    fn of(graph: &NetworkGraph, net: &SimNetwork) -> Self {
        let catalogue = Attribute::catalogue();
        let rank = |i: usize| {
            let kind = catalogue[i].entity_kind();
            catalogue[..i]
                .iter()
                .filter(|a| a.entity_kind() == kind)
                .count()
        };
        let width = |kind| Attribute::for_entity(kind).count();
        let (device_columns, link_columns) = (width(EntityKind::Device), width(EntityKind::Link));
        let nodes = graph.node_count();
        let names: Vec<EntityName> = (0..nodes + graph.edge_count())
            .map(|entity| entity_name(graph, entity))
            .collect();
        let mut by_rank: Vec<u32> = (0..names.len() as u32).collect();
        by_rank.sort_unstable_by(|&x, &y| names[x as usize].cmp(&names[y as usize]));
        let mut offsets = vec![0; names.len()];
        let mut positions = 0;
        for &entity in &by_rank {
            offsets[entity as usize] = u32::try_from(positions).expect("positions fit in u32");
            positions += match (entity as usize) < nodes {
                true => device_columns,
                false => link_columns,
            };
        }
        let sim_id = |entity: usize| {
            let id = match entity.checked_sub(nodes) {
                None => net
                    .device_id(&graph.node(NodeId(entity as u32)).name)
                    .map(|id| id.0),
                Some(edge) => net
                    .link_id(&graph.edge(EdgeId(edge as u32)).name)
                    .map(|id| id.0),
            };
            id.unwrap_or(NO_SIM_ID)
        };
        Layout {
            columns: (0..catalogue.len()).map(rank).collect(),
            nodes,
            order: (by_rank.iter())
                .map(|&entity| (entity, sim_id(entity as usize)))
                .collect(),
            offsets,
            positions,
            datacenters: (graph.nodes().map(|(_, n)| &n.datacenter))
                .chain(graph.edges().map(|(_, e)| &e.datacenter))
                .cloned()
                .collect(),
        }
    }

    fn kind(&self, entity: usize) -> EntityKind {
        match entity < self.nodes {
            true => EntityKind::Device,
            false => EntityKind::Link,
        }
    }

    /// The block of entity number `entity`.
    fn block(&self, entity: usize) -> (usize, EntityKind) {
        (self.offsets[entity] as usize, self.kind(entity))
    }

    /// The position of `attr` in an entity's block; `None` when the
    /// attribute belongs to another kind of entity.
    fn position(&self, (offset, kind): (usize, EntityKind), attr: Attribute) -> Option<usize> {
        (attr.entity_kind() == kind).then(|| offset + self.columns[attr as usize])
    }

    /// The position of a stored row; `None` for an entity the graph does
    /// not hold under that name and home.
    fn position_of(&self, graph: &NetworkGraph, row: &NetworkState) -> Option<usize> {
        let (entity, home) = match &row.entity.body {
            EntityBody::Device(name) => {
                let node = graph.node_id(name)?;
                (node.0 as usize, &graph.node(node).datacenter)
            }
            EntityBody::Link(name) => {
                let edge = graph.edge_id(name)?;
                (self.nodes + edge.0 as usize, &graph.edge(edge).datacenter)
            }
            EntityBody::Path(_) => return None,
        };
        if *home != row.entity.datacenter {
            return None;
        }
        self.position(self.block(entity), row.attribute)
    }
}

/// The name of entity number `entity` (see [`Layout`]).
fn entity_name(graph: &NetworkGraph, entity: usize) -> EntityName {
    match entity.checked_sub(graph.node_count()) {
        None => {
            let info = graph.node(NodeId(entity as u32));
            EntityName::device(info.datacenter.clone(), info.name.clone())
        }
        Some(edge) => {
            let edge = graph.edge(EdgeId(edge as u32));
            EntityName::link_named(edge.datacenter.clone(), edge.name.clone())
        }
    }
}

/// One poll's findings and counts.
#[derive(Default)]
struct Polled {
    /// The changed rows, in key order.
    rows: Vec<NetworkState>,
    /// Each changed row's position in the base.
    positions: Vec<u32>,
    devices_polled: usize,
    unreachable: usize,
    quarantined: usize,
    links_polled: usize,
    suppressed: usize,
    /// Wall time spent on device blocks and on link blocks.
    devices: Duration,
    links: Duration,
}

/// What the monitor believes the OS pool holds, and how many rounds it
/// has run (the resync cadence counts from the first).
struct DiffBase {
    /// By [`Layout`] position: the value of a row the store holds under
    /// the monitor's name. A row another writer owns, or none at all,
    /// leaves its position empty, so comparing value-and-writer is one
    /// `==` on the value. An unchanged row keeps whatever timestamp it
    /// arrived with. Unallocated means untrusted — a failed write clears
    /// it, a bulk seed never fills it — and an unallocated base is
    /// re-seeded from storage before use; it is allocated when its first
    /// value lands.
    values: Vec<Option<Value>>,
    rounds: u64,
    /// Rows the last round changed (0 after a seed): the next poll's
    /// starting capacity, so a churn round collects its rows (≈164K at
    /// 4M) into one allocation instead of regrowing the buffer by
    /// doubling, each regrowth copying the rows into freshly faulted
    /// pages.
    changed: usize,
}

impl DiffBase {
    /// Record what the store now holds at `position` of a base of
    /// `positions`: `None` for a row the monitor does not own.
    fn land(&mut self, positions: usize, position: usize, value: Option<Value>) {
        if self.values.is_empty() {
            if value.is_none() {
                return;
            }
            self.values.resize(positions, None);
        }
        self.values[position] = value;
    }
}

impl Monitor {
    /// Build a monitor with the standard protocol adapters.
    pub fn new(net: SimNetwork, storage: StorageService, graph: NetworkGraph) -> Self {
        Monitor {
            collector: BlockCollector::new(net.clone()),
            layout: Layout::of(&graph, &net),
            quarantine: Mutex::new(vec![SimTime::ZERO; graph.node_count()]),
            net,
            storage,
            graph,
            quarantine_cooldown: DEFAULT_QUARANTINE_COOLDOWN,
            base: Mutex::new(DiffBase {
                values: Vec::new(),
                rounds: 0,
                changed: 0,
            }),
            resync_every: DEFAULT_RESYNC_EVERY,
        }
    }

    /// Replace the quarantine cooldown (how long a failed device is left
    /// unpolled before a half-open re-probe).
    pub fn with_quarantine_cooldown(mut self, cooldown: SimDuration) -> Self {
        self.quarantine_cooldown = cooldown;
        self
    }

    /// Replace the resync cadence. The diff base is a belief, and beliefs
    /// drift: another writer overwrites or deletes an OS row, a write
    /// fails after part of it committed, the store is restored from an
    /// older image. So on the first round, every `every`-th round and
    /// whenever the base is empty (any failed write clears it) the
    /// monitor distrusts the base, not the store: it re-reads the OS pool
    /// from the partition leaders and diffs the poll against that. What
    /// differs is exactly what the store is missing, and healing it takes
    /// a write of those rows alone — one pool read, not a rewrite of the
    /// whole view. `1` re-reads the store every round: the base then holds
    /// what was read, and only rows that differ from it are written.
    pub fn with_resync_every(mut self, every: u64) -> Self {
        self.resync_every = every.max(1);
        self
    }

    /// Devices currently under quarantine at `now` — the set the checker
    /// must treat as uncontrollable (their OS rows are stale).
    pub fn quarantined_devices(&self, now: SimTime) -> BTreeSet<DeviceName> {
        let quarantine = self.quarantine.lock();
        (self.graph.nodes())
            .filter(|(id, _)| now < quarantine[id.0 as usize])
            .map(|(_, n)| n.name.clone())
            .collect()
    }

    /// Re-seed the diff base from a leader read of the OS pool of every
    /// partition that homes a polled entity; returns the rows read.
    /// Partitions in `skip_dcs` cannot be read (they are down), so their
    /// entries carry over and a partial resync only overwrites. A failed
    /// read leaves the base holding nothing it did not just read or
    /// already hold, so the error costs at worst rewrites. Rows of
    /// entities outside the graph, and of attributes of another kind than
    /// their entity's, have no position and are skipped.
    fn reseed(&self, base: &mut DiffBase, skip_dcs: &BTreeSet<DatacenterId>) -> StateResult<usize> {
        if self.layout.datacenters.is_disjoint(skip_dcs) {
            base.values.clear();
        }
        let monitor = AppId::monitor();
        let mut reread = 0;
        for dc in self.layout.datacenters.difference(skip_dcs) {
            let rows = self.storage.read(ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })?;
            reread += rows.len();
            for row in rows {
                if let Some(position) = self.layout.position_of(&self.graph, &row) {
                    let owned = (row.writer == monitor).then_some(row.value);
                    base.land(self.layout.positions, position, owned);
                }
            }
        }
        Ok(reread)
    }

    /// Poll every entity outside `skip_dcs` once, in rank order, a block
    /// of one kind at a time, comparing each value against `base` as it
    /// is read, and build a row for each value that differs: the rows
    /// come out in key order. Block times are measured from `since`, a
    /// reading of `started`.
    fn poll(
        &self,
        base: &[Option<Value>],
        expected: usize,
        skip_dcs: &BTreeSet<DatacenterId>,
        now: SimTime,
        started: Instant,
        since: Duration,
    ) -> Polled {
        let layout = &self.layout;
        let writer = AppId::monitor();
        // Compare one entity's pairs against its block, one indexed load
        // each: equal values are counted, the rest become rows — the only
        // values a round builds.
        let compare = |polled: &mut Polled, entity: usize, pairs: &[(Attribute, Reading<'_>)]| {
            let block = layout.block(entity);
            let mut name = None;
            for &(attr, reading) in pairs {
                let position = layout.position(block, attr);
                let prior = position.and_then(|p| base.get(p)?.as_ref());
                if prior.is_some_and(|prior| reading.matches(prior)) {
                    polled.suppressed += 1;
                    continue;
                }
                let name = name.get_or_insert_with(|| entity_name(&self.graph, entity));
                let value = reading.to_value();
                let row = NetworkState::new(name.clone(), attr, value, now, writer.clone());
                polled.rows.push(row);
                polled
                    .positions
                    .push(position.map_or(NO_POSITION, |p| p as u32));
            }
        };
        let skipped = |entity: usize| {
            if skip_dcs.is_empty() {
                return false;
            }
            let home = match entity.checked_sub(layout.nodes) {
                None => &self.graph.node(NodeId(entity as u32)).datacenter,
                Some(edge) => &self.graph.edge(EdgeId(edge as u32)).datacenter,
            };
            skip_dcs.contains(home)
        };
        let mut polled = Polled {
            rows: Vec::with_capacity(expected),
            positions: Vec::with_capacity(expected),
            ..Polled::default()
        };
        let mut quarantine = self.quarantine.lock();
        let mut devices = Vec::with_capacity(POLL_BLOCK);
        let mut links = Vec::with_capacity(POLL_BLOCK);
        let mut last = since;
        let same_kind =
            |x: &(u32, u32), y: &(u32, u32)| layout.kind(x.0 as usize) == layout.kind(y.0 as usize);
        for run in layout.order.chunk_by(same_kind) {
            for entities in run.chunks(POLL_BLOCK) {
                let kind = layout.kind(entities[0].0 as usize);
                let sim_id = |id: u32| (id != NO_SIM_ID).then_some(id);
                let entities = (entities.iter()).map(|&(e, id)| (e as usize, sim_id(id)));
                if kind == EntityKind::Device {
                    devices.clear();
                    for (node, id) in entities.filter(|&(node, _)| !skipped(node)) {
                        // Quarantined devices are not re-polled (no poll
                        // budget spent re-timing-out); their rows go stale.
                        if now < quarantine[node] {
                            polled.quarantined += 1;
                            continue;
                        }
                        devices.push((node, id.map(NodeId)));
                    }
                    // A failed poll (re)starts the device's cooldown, a
                    // good one clears it.
                    self.collector
                        .devices(devices.iter().copied(), |node, pairs| {
                            let Some(pairs) = pairs else {
                                quarantine[node] = now + self.quarantine_cooldown;
                                polled.unreachable += 1;
                                return;
                            };
                            quarantine[node] = SimTime::ZERO;
                            polled.devices_polled += 1;
                            compare(&mut polled, node, pairs);
                        });
                } else {
                    links.clear();
                    for (entity, id) in entities.filter(|&(entity, _)| !skipped(entity)) {
                        links.push((entity, id.map(EdgeId)));
                    }
                    // Infallible for the same reason as device polls. A
                    // link reports its own oper status whatever its
                    // endpoints' polls did; when neither endpoint answers,
                    // the NMS inference stands in: oper-down for traffic
                    // purposes.
                    self.collector
                        .links(links.iter().copied(), |entity, pairs| {
                            polled.links_polled += 1;
                            compare(&mut polled, entity, pairs.unwrap_or(&INFERRED_DOWN));
                        });
                }
                let at = started.elapsed();
                match kind {
                    EntityKind::Device => polled.devices += at - last,
                    _ => polled.links += at - last,
                }
                last = at;
            }
        }
        polled
    }

    /// Run one collection round: poll everything, write the OS.
    pub fn run_round(&self) -> StateResult<MonitorReport> {
        self.run_round_skipping(&BTreeSet::new())
    }

    /// Run one collection round, skipping every entity homed in
    /// `skip_dcs` (their storage partition is down, so their OS rows
    /// could not be written anyway; the coordinator's degraded mode
    /// drives this).
    ///
    /// Devices and links outside `skip_dcs` are polled in rank order,
    /// each compared against the diff base as it is collected, so only
    /// the rows that differ are ever built, and they are built in key
    /// order. Every variable is polled, and so compared, exactly once.
    pub fn run_round_skipping(
        &self,
        skip_dcs: &BTreeSet<DatacenterId>,
    ) -> StateResult<MonitorReport> {
        let started = Instant::now();
        let now = self.net.clock().now();
        let mut state = self.base.lock();
        let round = state.rounds;
        state.rounds += 1;

        // Resync = distrust the base, not the store: diff this round
        // against what storage holds instead of what we remember writing.
        let mut reread = 0;
        if round.is_multiple_of(self.resync_every) || state.values.is_empty() {
            reread = self.reseed(&mut state, skip_dcs)?;
        }
        let reseeded = started.elapsed();

        let Polled {
            mut rows,
            positions,
            devices_polled,
            unreachable,
            quarantined,
            links_polled,
            suppressed,
            devices,
            links,
        } = self.poll(
            &state.values,
            state.changed,
            skip_dcs,
            now,
            started,
            reseeded,
        );
        // A seed's row count is no guide to a steady round's.
        state.changed = if state.values.is_empty() {
            0
        } else {
            rows.len()
        };
        let polled = reseeded + devices + links;

        // The poll visits entities in rank order, so the changed rows are
        // in the deterministic write order already — string-key order, not
        // id order (ids follow interning order).
        debug_assert!(rows.windows(2).all(|w| w[0].key_ref() < w[1].key_ref()));
        let rows_written = rows.len();
        let diffed = started.elapsed();

        let written = self.write_changed(&mut rows, state.values.is_empty());
        let seed = match written {
            Ok(seed) => seed,
            Err(e) => {
                // The base may no longer match storage: distrust it.
                state.values.clear();
                return Err(e);
            }
        };
        // The base mirrors the store, so it moves exactly as the store
        // just did: the suppressed rows are in it already, and what was
        // not polled — skipped DCs, quarantined or silent devices, a key a
        // poll stopped reporting — stays in it as it stays in the store.
        // (A bulk seed took the rows, leaving the base unallocated.)
        for (row, position) in rows.into_iter().zip(positions) {
            if position != NO_POSITION {
                state.land(self.layout.positions, position as usize, Some(row.value));
            }
        }
        drop(state);

        let shards = self.graph.node_count().div_ceil(SHARD_SIZE).max(1);
        let lanes = shards as u64 * CONCURRENCY_PER_SHARD;
        let entities_polled = (devices_polled + unreachable + links_polled) as u64;
        let modeled_io = SimDuration::from_millis(entities_polled.div_ceil(lanes) * POLL_MS);

        let elapsed = started.elapsed();
        Ok(MonitorReport {
            devices_polled,
            devices_unreachable: unreachable,
            devices_quarantined: quarantined,
            links_polled,
            rows_written,
            writes_suppressed: suppressed,
            rows_compared: rows_written + suppressed,
            rows_materialized: rows_written + reread,
            shards,
            modeled_io,
            elapsed,
            stage_poll: devices + links,
            stage_poll_devices: devices,
            stage_poll_links: links,
            stage_diff: reseeded + (diffed - polled),
            stage_diff_reseed: reseeded,
            stage_diff_order: diffed - polled,
            stage_write: elapsed.saturating_sub(diffed),
            seed,
        })
    }

    /// Persist one round's changed rows (key-sorted), handing storage its
    /// own copies: the originals become diff-base entries. Except at
    /// bootstrap, where storage takes the rows themselves.
    fn write_changed(
        &self,
        changed: &mut Vec<NetworkState>,
        base_empty: bool,
    ) -> StateResult<Option<statesman_storage::SeedStats>> {
        // Bootstrap: nothing to diff against and nothing stored, so every
        // row is new and each partition's pool is being seeded from
        // empty. One BulkBatch per partition (batched slot minting,
        // pre-sized columns, single watermark bump) replaces the chunked
        // steady-state commits — below the threshold the chunked path
        // degenerates to one WriteBatch per partition anyway, so small
        // fabrics keep their exact prior behavior. The write consumes the
        // rows — at seed scale a copy is millions of rows — which leaves
        // the base empty, so the next round re-reads what was stored.
        let pool_len = |dc| self.storage.pool_len(dc, &Pool::Observed);
        let pools_empty = || self.layout.datacenters.iter().all(|dc| pool_len(dc) == 0);
        if base_empty && changed.len() >= BULK_SEED_THRESHOLD && pools_empty() {
            let stats = self.storage.write_bulk(WriteRequest {
                pool: Pool::Observed,
                rows: std::mem::take(changed),
            })?;
            return Ok(Some(stats));
        }
        // Chunk large rounds: one consensus commit per ~50K rows *per
        // partition* keeps per-message payloads bounded at DC scale (§8:
        // 394K variables). Chunks are ranked within each partition and
        // every write batch carries each partition's same-rank chunk, so
        // the storage proxy's per-partition fan-out commits them
        // concurrently — while each ring still sees its own rows in the
        // exact order the serial loop fed them, keeping versions,
        // watermarks, and the wire format byte-identical.
        let mut by_part: BTreeMap<&DatacenterId, Vec<&NetworkState>> = BTreeMap::new();
        for row in changed.iter() {
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
            self.storage.write(WriteRequest {
                pool: Pool::Observed,
                rows: batch,
            })?;
        }
        Ok(None)
    }
}

// Pinned by the frozen benchmark; the first bullet of ROADMAP item 9
// removes the call, then this goes.
impl Monitor {
    /// A no-op: the diff base is a poll-ordered array whatever the layout
    /// of the checker's and updater's views.
    pub fn with_columnar_state(self, _enabled: bool) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_net::{DeviceCommand, SimClock, SimConfig};
    use statesman_topology::DcnSpec;
    use statesman_types::{LinkName, StateKey};

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
        assert!(report.modeled_io > SimDuration::ZERO);

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
    fn os_rows_share_the_topologys_names() {
        use std::sync::Arc;
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net, storage.clone(), graph.clone());
        m.run_round().unwrap();
        let read_one = |entity: EntityName, attribute| {
            let mut rows = storage
                .read(ReadRequest {
                    datacenter: entity.datacenter.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: Some(entity),
                    attribute: Some(attribute),
                })
                .unwrap();
            assert_eq!(rows.len(), 1);
            rows.pop().unwrap()
        };
        let shares_node_name = |name: &DeviceName| {
            let node = graph.node(graph.node_id(name).unwrap());
            Arc::ptr_eq(&name.0, &node.name.0)
        };

        let device = read_one(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
        );
        assert!(shares_node_name(device.entity.as_device().unwrap()));

        let (_, edge) = graph.edges().next().unwrap();
        let link = read_one(
            EntityName::link_named(edge.datacenter.clone(), edge.name.clone()),
            Attribute::LinkOperStatus,
        );
        let name = link.entity.as_link().unwrap();
        assert!(shares_node_name(&name.a) && shares_node_name(&name.b));
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

    /// A single-DC world whose counters wander on every `net.step`, and a
    /// monitor over it at the given resync cadence. Two calls build
    /// identical worlds (same simulator seed).
    fn churning(resync_every: u64) -> (SimNetwork, StorageService, Monitor) {
        let (net, storage, graph, _clock) = setup();
        let m = Monitor::new(net.clone(), storage.clone(), graph).with_resync_every(resync_every);
        (net, storage, m)
    }

    /// The OS pool as (key, value, writer), key-sorted.
    fn os(storage: &StorageService) -> Vec<(StateKey, Value, AppId)> {
        let rows = storage.read(statesman_storage::ReadRequest {
            datacenter: DatacenterId::new("dc1"),
            pool: Pool::Observed,
            freshness: Freshness::UpToDate,
            entity: None,
            attribute: None,
        });
        let mut os: Vec<_> = rows
            .unwrap()
            .into_iter()
            .map(|r| (r.key(), r.value, r.writer))
            .collect();
        os.sort_by(|a, b| a.0.cmp(&b.0));
        os
    }

    /// Drift of the kind a resync exists for, applied behind the monitor's
    /// back to one of two identical worlds; the untouched twin tells what
    /// each round's real changes are.
    fn heals_exactly_one_row(drift: impl Fn(&StorageService, &StateKey, SimTime)) {
        let (net, storage, m) = churning(3);
        let (twin_net, twin_storage, twin) = churning(3);
        let round = || {
            net.step(SimDuration::from_mins(1));
            twin_net.step(SimDuration::from_mins(1));
            (m.run_round().unwrap(), twin.run_round().unwrap())
        };
        round(); // round 0 seeds both stores
        let key = StateKey::new(
            EntityName::device("dc1", "agg-1-1"),
            Attribute::DeviceFirmwareVersion,
        );
        drift(&storage, &key, net.clock().now());
        // Delta rounds trust the base: the row stays wrong, its poll is
        // suppressed like every other unchanged value.
        for _ in 0..2 {
            let (r, t) = round();
            assert_eq!(r.rows_written, t.rows_written);
            assert_eq!(r.writes_suppressed, t.writes_suppressed);
            assert_ne!(os(&storage), os(&twin_storage));
        }
        // Round 3 distrusts the base and re-reads the pool: the drifted
        // row, and only it, is written on top of the round's real changes.
        let (r, t) = round();
        assert_eq!(r.rows_written, t.rows_written + 1);
        assert_eq!(r.writes_suppressed + 1, t.writes_suppressed);
        assert_eq!(os(&storage), os(&twin_storage));
        let healed = storage.read_row(&Pool::Observed, &key).unwrap().unwrap();
        assert_eq!(healed.value, Value::text("6.0.3"));
        assert_eq!(healed.updated_at, net.clock().now());
        // The next resync (round 6) finds nothing to repair.
        for _ in 0..3 {
            let (r, t) = round();
            assert_eq!(r.rows_written, t.rows_written);
            assert_eq!(os(&storage), os(&twin_storage));
        }
    }

    #[test]
    fn resync_heals_a_row_overwritten_behind_the_monitors_back() {
        heals_exactly_one_row(|storage, key, now| {
            let intruder = AppId::new("intruder");
            let row = NetworkState::new(
                key.entity.clone(),
                key.attribute,
                Value::text("bogus"),
                now,
                intruder,
            );
            let overwrite = WriteRequest {
                pool: Pool::Observed,
                rows: vec![row],
            };
            storage.write(overwrite).unwrap();
        });
    }

    #[test]
    fn resync_heals_a_row_deleted_behind_the_monitors_back() {
        heals_exactly_one_row(|storage, key, _| {
            storage.delete(Pool::Observed, vec![key.clone()]).unwrap();
        });
    }

    #[test]
    fn work_counters_count_rows_built_and_rows_reread() {
        let (net, storage, m) = churning(3);
        let dc = DatacenterId::new("dc1");
        let assert_compared = |r: &MonitorReport| {
            assert_eq!(r.rows_compared, r.rows_written + r.writes_suppressed);
        };
        // Round 0 re-reads an empty pool and builds every row it writes.
        let r0 = m.run_round().unwrap();
        assert_eq!(r0.rows_materialized, r0.rows_written);
        assert_compared(&r0);
        // A full-coverage delta round builds exactly the rows that
        // changed — none at all when nothing did.
        net.step(SimDuration::from_mins(1));
        let r1 = m.run_round().unwrap();
        assert!(r1.rows_written > 0 && r1.writes_suppressed > 0);
        assert_eq!(r1.rows_materialized, r1.rows_written);
        assert_compared(&r1);
        let r2 = m.run_round().unwrap();
        assert_eq!((r2.rows_written, r2.rows_materialized), (0, 0));
        assert_eq!(r2.rows_compared, r0.rows_written);
        // A resync round adds the pool rows it re-read, nothing else.
        net.step(SimDuration::from_mins(1));
        let pool_rows = storage.pool_len(&dc, &Pool::Observed);
        let r3 = m.run_round().unwrap();
        assert!(r3.rows_written > 0);
        assert_eq!(r3.rows_materialized, r3.rows_written + pool_rows);
        assert_compared(&r3);
    }

    #[test]
    fn bulk_seed_hands_storage_the_rows_and_the_next_round_rereads_them() {
        let clock = SimClock::new();
        let graph = DcnSpec::sized_for_variables("dc1", BULK_SEED_THRESHOLD + 2_000).build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::single_dc("dc1", clock);
        let m = Monitor::new(net.clone(), storage.clone(), graph);
        let r0 = m.run_round().unwrap();
        assert!(r0.rows_written >= BULK_SEED_THRESHOLD);
        assert_eq!(r0.seed.map(|s| s.rows), Some(r0.rows_written as u64));
        // The seed write took the rows, not copies: the base is still
        // empty, so round 1 re-reads the pool and then diffs as usual.
        net.step(SimDuration::from_mins(1));
        let r1 = m.run_round().unwrap();
        assert_eq!(r1.rows_materialized, r1.rows_written + r0.rows_written);
        assert!(r1.rows_written > 0 && r1.rows_written * 4 < r0.rows_written);
        assert!(r1.seed.is_none());
        net.step(SimDuration::from_mins(1));
        let r2 = m.run_round().unwrap();
        assert_eq!(r2.rows_materialized, r2.rows_written);
    }

    #[test]
    fn a_bulk_seed_leaves_the_base_unallocated_and_the_next_round_fills_its_layout() {
        let clock = SimClock::new();
        let graph = DcnSpec::sized_for_variables("dc1", BULK_SEED_THRESHOLD + 2_000).build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::single_dc("dc1", clock);
        let m = Monitor::new(net.clone(), storage, graph.clone());
        let base = |m: &Monitor| {
            let base = m.base.lock();
            (base.values.len(), base.values.capacity())
        };
        assert!(m.run_round().unwrap().seed.is_some());
        assert_eq!(base(&m), (0, 0));
        net.step(SimDuration::from_mins(1));
        m.run_round().unwrap();
        let columns = |kind| Attribute::for_entity(kind).count();
        let positions = graph.node_count() * columns(EntityKind::Device)
            + graph.edge_count() * columns(EntityKind::Link);
        assert_eq!(base(&m).0, positions);
    }

    #[test]
    fn resync_every_one_rereads_the_store_every_round() {
        // Every round re-reads the pool and writes only what differs from
        // it, so a quiescent round writes nothing and the store is the
        // one the default cadence leaves. (That it is also the store a
        // monitor rewriting every polled row leaves — the state machine
        // drops value-identical writes — is what
        // `tests/monitor_reference_model.rs` checks at this cadence.)
        let (net, storage, m) = churning(1);
        let (twin_net, twin_storage, twin) = churning(DEFAULT_RESYNC_EVERY);
        let dc = DatacenterId::new("dc1");
        let r0 = m.run_round().unwrap();
        twin.run_round().unwrap();
        // Counters wander on every step: a round without one is quiescent.
        for churn in [false, true, false] {
            if churn {
                net.step(SimDuration::from_mins(1));
                twin_net.step(SimDuration::from_mins(1));
            }
            let pool_rows = storage.pool_len(&dc, &Pool::Observed);
            let r = m.run_round().unwrap();
            let t = twin.run_round().unwrap();
            assert_eq!(r.rows_materialized, r.rows_written + pool_rows);
            assert_eq!(r.rows_compared, r0.rows_written);
            assert_eq!(r.rows_written, t.rows_written);
            if churn {
                assert!(r.rows_written > 0 && r.rows_written < r0.rows_written);
            } else {
                assert_eq!(r.rows_written, 0, "a quiescent round writes nothing");
            }
            assert_eq!(os(&storage), os(&twin_storage));
        }
    }

    #[test]
    fn write_failure_clears_the_diff_base() {
        let (net, storage, m) = churning(8);
        let (twin_net, twin_storage, twin) = churning(8);
        let dc = DatacenterId::new("dc1");
        let step = || {
            net.step(SimDuration::from_mins(1));
            twin_net.step(SimDuration::from_mins(1));
        };
        let r0 = m.run_round().unwrap(); // round 0 seeds
        twin.run_round().unwrap();
        step();
        m.run_round().unwrap(); // round 1: delta
        twin.run_round().unwrap();
        // Round 2 is a delta round with real changes to write: the write
        // fails against the offline partition, and the base with it.
        storage.set_partition_available(&dc, false);
        step();
        assert!(m.run_round().is_err());
        twin.run_round().unwrap();
        storage.set_partition_available(&dc, true);
        step();
        // Round 3 is no resync round by the cadence, but the base is
        // gone: it is re-seeded from storage, and the round writes what
        // storage is missing — the rows that changed since round 1 — not
        // the whole view.
        let pool_rows = storage.pool_len(&dc, &Pool::Observed);
        let r3 = m.run_round().unwrap();
        twin.run_round().unwrap();
        assert_eq!(r3.rows_materialized, r3.rows_written + pool_rows);
        assert!(r3.rows_written > 0 && r3.rows_written * 4 < r0.rows_written);
        assert_eq!(r3.rows_written + r3.writes_suppressed, r0.rows_written);
        // OS ≡ device state: the same as a store that never went away.
        assert_eq!(os(&storage), os(&twin_storage));
    }

    #[test]
    fn a_skipped_dc_keeps_its_rows_and_the_rest_is_polled_as_usual() {
        // Two DCs; dc1.agg-1-1 is unreachable in round 1 and back up — but
        // still quarantined — in round 2, which runs with and without dc2
        // skipped. Skipping polls nothing homed in dc2 and leaves its rows
        // as round 1 wrote them, and dc1 ends the same either way.
        let dcs = [DatacenterId::new("dc1"), DatacenterId::new("dc2")];
        let run = |skip: &BTreeSet<DatacenterId>| {
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
            let os = |dc: &DatacenterId| {
                let rows = storage.read(statesman_storage::ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                });
                let mut os: Vec<(StateKey, Value)> = rows
                    .unwrap()
                    .into_iter()
                    .map(|r| (r.key(), r.value))
                    .collect();
                os.sort_by(|a, b| a.0.cmp(&b.0));
                os
            };
            let m = Monitor::new(net.clone(), storage.clone(), graph.clone());
            let r1 = m.run_round().unwrap();
            assert_eq!(r1.devices_unreachable, 1);
            let dc2_after_r1 = os(&dcs[1]);
            net.step(SimDuration::from_mins(1));
            let r2 = m.run_round_skipping(skip).unwrap();
            assert_eq!(r2.devices_quarantined, 1);
            let share = if skip.is_empty() { 1 } else { 2 };
            assert_eq!(r2.devices_polled, graph.node_count() / share - 1);
            assert_eq!(r2.links_polled, graph.edge_count() / share);
            if !skip.is_empty() {
                assert_eq!(os(&dcs[1]), dc2_after_r1);
            }
            os(&dcs[0])
        };
        assert_eq!(
            run(&BTreeSet::from([dcs[1].clone()])),
            run(&BTreeSet::new())
        );
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
        assert!(
            r2.modeled_io <= r1.modeled_io,
            "quarantine must not add poll cost"
        );
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

    /// Rounds over `graph` with flapping links, an FCS fault on one link
    /// per datacenter and a rebooting device in the last: every round's
    /// changed rows, in the order the poll builds them (rank order), are
    /// the rows sorted by key, and devices and links of every datacenter
    /// change along the way.
    fn rank_order_is_key_order(graph: NetworkGraph) {
        let dcs: BTreeSet<DatacenterId> = (graph.nodes().map(|(_, n)| &n.datacenter))
            .chain(graph.edges().map(|(_, e)| &e.datacenter))
            .cloned()
            .collect();
        let mut faults =
            statesman_net::FaultPlan::ideal().with_link_flapping(0.05, SimDuration::from_secs(90));
        for (i, dc) in dcs.iter().enumerate() {
            let (_, edge) = graph.edges().find(|(_, e)| e.datacenter == *dc).unwrap();
            faults = faults.with_event(
                SimTime::from_mins(2 + i as u64),
                statesman_net::FaultEvent::SetFcsErrorRate {
                    link: edge.name.clone(),
                    rate: 0.01,
                },
            );
        }
        let (_, last) = graph.nodes().last().unwrap();
        faults = faults.with_event(
            SimTime::from_mins(3),
            statesman_net::FaultEvent::RebootDevice {
                device: last.name.clone(),
                down_ms: 120_000,
            },
        );
        let clock = SimClock::new();
        let mut cfg = SimConfig::ideal();
        cfg.faults = faults;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::new(dcs.clone(), clock, Default::default());
        let m = Monitor::new(net.clone(), storage, graph.clone());
        let mut changed_kinds = std::collections::HashSet::new();
        for _ in 0..8 {
            let now = net.clock().now();
            let polled = {
                let base = m.base.lock();
                m.poll(
                    &base.values,
                    base.changed,
                    &BTreeSet::new(),
                    now,
                    Instant::now(),
                    Duration::ZERO,
                )
            };
            let mut want = polled.rows.clone();
            want.sort_unstable_by(|a, b| a.key_ref().cmp(&b.key_ref()));
            assert_eq!(polled.rows, want);
            if !m.base.lock().values.is_empty() {
                changed_kinds.extend(
                    want.iter()
                        .map(|r| (r.entity.datacenter.clone(), r.entity.kind())),
                );
            }
            m.run_round().unwrap();
            net.step(SimDuration::from_mins(1));
        }
        for dc in &dcs {
            for kind in [EntityKind::Device, EntityKind::Link] {
                let homed = match kind {
                    EntityKind::Device => graph.nodes().any(|(_, n)| n.datacenter == *dc),
                    _ => graph.edges().any(|(_, e)| e.datacenter == *dc),
                };
                let changed = changed_kinds.contains(&(dc.clone(), kind));
                assert_eq!(changed, homed, "{dc} {kind:?}");
            }
        }
    }

    #[test]
    fn rows_come_out_in_key_order_on_one_dc() {
        rank_order_is_key_order(DcnSpec::fig7("dc1").build());
    }

    #[test]
    fn rows_come_out_in_key_order_on_two_dcs_and_the_wan() {
        let deployment = statesman_topology::DeploymentSpec {
            dcns: vec![DcnSpec::tiny("dc1"), DcnSpec::tiny("dc2")],
            wan: Some(statesman_topology::WanSpec {
                dc_names: vec!["dc1".into(), "dc2".into()],
                border_routers_per_dc: 2,
                wan_link_mbps: 100_000.0,
            }),
            br_core_mbps: 100_000.0,
        };
        rank_order_is_key_order(deployment.build());
    }

    #[test]
    fn shard_count_follows_paper_sizing() {
        // 2,500 devices → 3 instances at 1,000 switches each.
        assert_eq!(2_500usize.div_ceil(SHARD_SIZE), 3);
    }
}
