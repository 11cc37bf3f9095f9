//! Reference model for the monitor's diff.
//!
//! The monitor compares what it polls against its diff base in place and
//! resyncs by re-reading the OS pool. The oracle here is the design that
//! replaced: materialise every polled row, de-duplicate through a hash
//! map (last row wins), diff against a remembered map, and on every
//! `resync_every`-th round write the whole view and let the state machine
//! discard what did not change. Both run over identical simulated
//! networks and identical (separate) stores through seeded 40-round
//! histories, and must leave identical stores — value, writer,
//! `updated_at`, *version* and watermarks — after every round, with
//! identical written/suppressed counts on every delta round, at 1, 3 and
//! 4 monitor instances. At a cadence of 1 the oracle writes every polled
//! row every round, while the monitor re-reads the pool every round and
//! writes only what differs from it.

use statesman_core::monitor::DEFAULT_QUARANTINE_COOLDOWN;
use statesman_core::{Monitor, MonitorReport};
use statesman_net::{
    DeviceCommand, DeviceModel, DeviceProtocol, OpenFlowSim, SimClock, SimConfig, SimNetwork,
    SnmpSim, VendorCliSim,
};
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_topology::{DcnSpec, NetworkGraph, NodeId};
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityName, Freshness, NetworkState, Pool,
    SimDuration, SimTime, StateKey, StateResult, Value, VarId, Version,
};
use std::collections::{BTreeSet, HashMap};

const ROUNDS: u64 = 40;

fn dcs() -> [DatacenterId; 2] {
    [DatacenterId::new("dc1"), DatacenterId::new("dc2")]
}

/// One two-DC fabric, its simulator and its own store. Two worlds of one
/// seed are identical.
struct World {
    net: SimNetwork,
    storage: StorageService,
    graph: NetworkGraph,
}

impl World {
    fn new(seed: u64) -> World {
        let clock = SimClock::new();
        let mut graph = NetworkGraph::new();
        DcnSpec::tiny("dc1").build_prefixed_into(&mut graph);
        DcnSpec::tiny("dc2").build_prefixed_into(&mut graph);
        let mut cfg = SimConfig::ideal();
        cfg.seed = seed;
        // An upgraded device is down for the next poll, back for the one
        // after — and quarantined for four more.
        cfg.faults.reboot_window_ms = 90_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::new(dcs(), clock, Default::default());
        World {
            net,
            storage,
            graph,
        }
    }

    /// Everything the store holds of the OS, per partition: rows in key
    /// order with their versions, the pool watermark, the partition's.
    fn os(&self) -> Vec<(Vec<NetworkState>, Version, Version)> {
        let read = |dc: &DatacenterId| {
            let mut rows = self
                .storage
                .read(ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap();
            rows.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
            let pool = self.storage.pool_watermark(dc, &Pool::Observed).unwrap();
            (rows, pool, self.storage.partition_watermark(dc).unwrap())
        };
        dcs().iter().map(read).collect()
    }
}

/// The monitor as it was before the diff moved into the poll.
struct Oracle {
    world: World,
    snmp: SnmpSim,
    of: OpenFlowSim,
    cli: VendorCliSim,
    quarantine: HashMap<DeviceName, SimTime>,
    base: HashMap<VarId, NetworkState>,
    rounds: u64,
    resync_every: u64,
    /// The mutant: keep the *first* row of a variable, not the last.
    first_wins: bool,
}

impl Oracle {
    fn new(world: World, resync_every: u64, first_wins: bool) -> Oracle {
        Oracle {
            snmp: SnmpSim::new(world.net.clone()),
            of: OpenFlowSim::new(world.net.clone()),
            cli: VendorCliSim::new(world.net.clone()),
            world,
            quarantine: HashMap::new(),
            base: HashMap::new(),
            rounds: 0,
            resync_every,
            first_wins,
        }
    }

    /// Every row of a round in poll order — devices (or the oper-down
    /// inference for their links), then links — and whether every entity
    /// was polled.
    fn poll(&mut self, skip: &BTreeSet<DatacenterId>) -> (Vec<NetworkState>, bool) {
        let graph = &self.world.graph;
        let now = self.world.net.clock().now();
        let row = |entity: &EntityName, (attr, value): (Attribute, Value)| {
            NetworkState::new(entity.clone(), attr, value, now, AppId::monitor())
        };
        let down = || (Attribute::LinkOperStatus, Value::oper(false));
        let link = |e| {
            let edge = graph.edge(e);
            EntityName::link_named(edge.datacenter.clone(), edge.name.clone())
        };
        let inferred = |id: NodeId| {
            graph
                .neighbors(id)
                .iter()
                .map(|(e, _)| row(&link(*e), down()))
        };
        let mut rows = Vec::new();
        let mut full_coverage = skip.is_empty();
        for (id, info) in graph.nodes().filter(|(_, n)| !skip.contains(&n.datacenter)) {
            let polled = match self.quarantine.get(&info.name) {
                Some(&until) if now < until => None,
                _ => {
                    let pairs = self.snmp.collect_device(&info.name).ok();
                    match pairs {
                        Some(_) => self.quarantine.remove(&info.name),
                        None => self
                            .quarantine
                            .insert(info.name.clone(), now + DEFAULT_QUARANTINE_COOLDOWN),
                    };
                    pairs
                }
            };
            let Some(mut pairs) = polled else {
                full_coverage = false;
                rows.extend(inferred(id));
                continue;
            };
            let model = self.world.net.device_snapshot(&info.name).unwrap().model;
            pairs.extend(match model {
                DeviceModel::OpenFlowSwitch => self.of.collect_device(&info.name).unwrap(),
                DeviceModel::BgpRouter => self.cli.collect_device(&info.name).unwrap(),
            });
            let entity = EntityName::device(info.datacenter.clone(), info.name.clone());
            rows.extend(pairs.into_iter().map(|p| row(&entity, p)));
        }
        for (id, edge) in graph.edges().filter(|(_, e)| !skip.contains(&e.datacenter)) {
            let pairs = self.snmp.collect_link(&edge.name);
            let pairs = pairs.unwrap_or_else(|_| vec![down()]);
            rows.extend(pairs.into_iter().map(|p| row(&link(id), p)));
        }
        (rows, full_coverage)
    }

    /// One round: the rows written, in order, and how many were
    /// suppressed.
    fn round(&mut self, skip: &BTreeSet<DatacenterId>) -> StateResult<(Vec<NetworkState>, usize)> {
        let (rows, full_coverage) = self.poll(skip);
        let mut dedup: HashMap<VarId, NetworkState> = HashMap::with_capacity(rows.len());
        for r in rows {
            if self.first_wins {
                dedup.entry(r.var_id()).or_insert(r);
            } else {
                dedup.insert(r.var_id(), r);
            }
        }
        let force_full = self.rounds % self.resync_every == 0;
        self.rounds += 1;
        let mut changed = Vec::new();
        let mut suppressed = 0;
        for (var, row) in &dedup {
            let prior = self.base.get(var);
            if !force_full && prior.is_some_and(|p| p.value == row.value && p.writer == row.writer)
            {
                suppressed += 1;
            } else {
                changed.push(row.clone());
            }
        }
        changed.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        let write = WriteRequest {
            pool: Pool::Observed,
            rows: changed.clone(),
        };
        if let Err(e) = self.world.storage.write(write) {
            self.base.clear();
            return Err(e);
        }
        // Everything observed is the next base; unpolled entries carry
        // over unless the round covered everything.
        if full_coverage {
            self.base.clear();
        }
        self.base.extend(dedup);
        Ok((changed, suppressed))
    }
}

/// What a seed schedules: two upgrades (unreachable, then quarantined but
/// alive), a window with dc2 skipped, and changes behind the monitor's
/// back — a real row overwritten, a row nothing polls, a monitor row
/// re-written with the *same* value under another writer (the next
/// resync must re-own it), and a monitor row deleted (the next full
/// resync must rewrite it).
struct History {
    upgrades: [(u64, &'static str); 2],
    skip: std::ops::Range<u64>,
    intrusion: u64,
    same_value: u64,
    deletion: u64,
}

impl History {
    fn of(seed: u64) -> History {
        let first = 2 + seed % 4;
        History {
            upgrades: [(first, "dc1.agg-1-1"), (first + 19, "dc2.tor-2-1")],
            // Covers round 16 and, on odd seeds, an upgrade's quarantine.
            skip: 13 + seed % 3..18,
            intrusion: 8 + seed % 5,
            // Both heal at a full resync — round 32 at the 16-round
            // cadence — after the skip window.
            same_value: 22 + seed % 3,
            deletion: 25 + seed % 4,
        }
    }

    fn before_round(&self, round: u64, world: &World) {
        world.net.step(SimDuration::from_mins(1));
        for (at, device) in self.upgrades {
            if at == round {
                let version = "7".into();
                world.net.submit(
                    &DeviceName::new(device),
                    DeviceCommand::UpgradeFirmware { version },
                );
                world.net.step(SimDuration::from_millis(1));
            }
        }
        if round == self.intrusion {
            let row = |device: &str, value: &str| {
                NetworkState::new(
                    EntityName::device("dc1", device),
                    Attribute::DeviceBootImage,
                    Value::text(value),
                    world.net.clock().now(),
                    AppId::new("intruder"),
                )
            };
            let rows = vec![row("dc1.core-1", "bogus"), row("dc1.ghost", "boo")];
            let pool = Pool::Observed;
            world.storage.write(WriteRequest { pool, rows }).unwrap();
        }
        let key =
            |device: &str, attribute| StateKey::new(EntityName::device("dc1", device), attribute);
        if round == self.same_value {
            let key = key("dc1.tor-1-2", Attribute::DeviceFirmwareVersion);
            let mut row = world
                .storage
                .read_row(&Pool::Observed, &key)
                .unwrap()
                .unwrap();
            assert_eq!(row.writer, AppId::monitor());
            row.writer = AppId::new("intruder");
            let (pool, rows) = (Pool::Observed, vec![row]);
            world.storage.write(WriteRequest { pool, rows }).unwrap();
        }
        if round == self.deletion {
            let key = key("dc1.agg-1-2", Attribute::DeviceBootImage);
            assert!(world
                .storage
                .read_row(&Pool::Observed, &key)
                .unwrap()
                .is_some());
            world.storage.delete(Pool::Observed, vec![key]).unwrap();
        }
    }

    fn skipped(&self, round: u64) -> BTreeSet<DatacenterId> {
        if self.skip.contains(&round) {
            BTreeSet::from([DatacenterId::new("dc2")])
        } else {
            BTreeSet::new()
        }
    }
}

struct Case {
    seed: u64,
    resync_every: u64,
    instances: usize,
}

/// Drive the monitor and the oracle through one history; `Err` names the
/// first round they disagree on.
fn drive(case: &Case, first_wins: bool) -> Result<Vec<MonitorReport>, String> {
    let history = History::of(case.seed);
    let world = World::new(case.seed);
    let monitor = Monitor::new(
        world.net.clone(),
        world.storage.clone(),
        world.graph.clone(),
    )
    .with_resync_every(case.resync_every);
    let mut oracle = Oracle::new(World::new(case.seed), case.resync_every, first_wins);
    let mut reports = Vec::new();
    // Writes the state machines discarded as value-identical, cumulative.
    let noops = |w: &World| w.storage.delta_stats().2;
    let mut noops_before = (0, 0);
    for round in 0..ROUNDS {
        history.before_round(round, &world);
        history.before_round(round, &oracle.world);
        let skip = history.skipped(round);
        let report = monitor.run_round_sharded(case.instances, &skip).unwrap();
        let (written, suppressed) = oracle.round(&skip).unwrap();
        if round % case.resync_every != 0 {
            // A delta round: the same rows written (the version order of
            // the stores below pins their order) and suppressed, and the
            // same number of those the state machine found unchanged.
            let counts = (report.rows_written, report.writes_suppressed);
            if counts != (written.len(), suppressed) {
                return Err(format!(
                    "round {round}: wrote/suppressed {counts:?}, oracle {:?}",
                    (written.len(), suppressed)
                ));
            }
            if noops(&world) - noops_before.0 != noops(&oracle.world) - noops_before.1 {
                return Err(format!("round {round}: no-op writes differ"));
            }
        }
        noops_before = (noops(&world), noops(&oracle.world));
        if world.os() != oracle.world.os() {
            return Err(format!("round {round}: stores differ"));
        }
        reports.push(report);
    }
    Ok(reports)
}

#[test]
fn monitor_matches_the_materialise_and_rewrite_oracle() {
    for seed in 1..=3 {
        for resync_every in [1, 2, 16] {
            for instances in [1, 3, 4] {
                let case = Case {
                    seed,
                    resync_every,
                    instances,
                };
                let reports = drive(&case, false).unwrap_or_else(|e| {
                    panic!("seed {seed} resync_every {resync_every} instances {instances}: {e}")
                });
                // The history holds what it is meant to.
                let any = |f: fn(&MonitorReport) -> bool| reports.iter().any(f);
                assert!(any(|r| r.devices_unreachable > 0));
                assert!(any(|r| r.devices_quarantined > 0));
                assert!(any(|r| r.devices_polled < 20));
                // Resync rounds write only what differs: never again
                // the whole view round 0 wrote.
                let seeded = reports[0].rows_written;
                assert!(reports[1..].iter().all(|r| r.rows_written * 2 < seeded));
            }
        }
    }
}

#[test]
fn the_oracle_catches_a_first_wins_dedup() {
    // While an upgraded device is back up but still quarantined, the
    // inference says its links are down and their own polls say up: the
    // rule that the later (polled) row wins decides what is stored.
    let case = Case {
        seed: 1,
        resync_every: 16,
        instances: 1,
    };
    let caught = drive(&case, true).unwrap_err();
    assert!(caught.starts_with("round "), "{caught}");
}
