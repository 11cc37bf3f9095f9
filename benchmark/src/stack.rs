//! Building the system under test the way a deployment does, with the
//! shipping defaults, and the two forms of its control loop: the real
//! [`Coordinator`] (untraced runs) and [`Wired`], the same monitor →
//! checkers → updater round driven from here with a span around each
//! call (traced runs).

use crate::spans::Tracer;
use crate::workload::{since_ms, Ctx};
use statesman_core::{
    Checker, CheckerConfig, ConnectivityInvariant, Coordinator, CoordinatorConfig, ImpactGroup,
    Invariant, Monitor, RoundReport, TorPairCapacityInvariant, Updater, WanLinkInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ReadRequest, StorageConfig, StorageService};
use statesman_topology::{DcnSpec, DeploymentSpec, NetworkGraph, WanSpec};
use statesman_types::{DatacenterId, DeviceRole, Freshness, Pool, SimDuration, StateResult};
use std::collections::BTreeSet;
use std::time::Instant;

/// The control-loop cadence (§7.1: minutes-scale loops).
pub const ROUND: SimDuration = SimDuration(60_000);

/// Which fabric a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One datacenter of about this many state variables.
    OneDc(usize),
    /// Two datacenters of about this many variables each, two border
    /// routers per DC, joined by a WAN.
    TwoDcWan(usize),
}

/// Graph, simulator and storage of one deployment, before any control
/// loop exists.
pub struct Fabric {
    /// The topology graph.
    pub graph: NetworkGraph,
    /// Datacenters that hold a fabric (the WAN pseudo-DC is not listed).
    pub dcs: Vec<DatacenterId>,
    /// Pods per datacenter (all DCs are the same size).
    pub pods_per_dc: usize,
    /// The simulated clock every component shares.
    pub clock: SimClock,
    /// The simulated devices.
    pub net: SimNetwork,
    /// The storage service.
    pub storage: StorageService,
    /// Wall time of the graph build, ms (`topology.build_ms`).
    pub graph_build_ms: f64,
}

impl Fabric {
    /// Build graph, simulator and storage.
    pub fn build(topology: Topology, sim: SimConfig, storage: StorageConfig) -> Fabric {
        let started = Instant::now();
        let (graph, specs) = match topology {
            Topology::OneDc(vars) => {
                let spec = DcnSpec::sized_for_variables("dc1", vars);
                (spec.build(), vec![spec])
            }
            Topology::TwoDcWan(vars_per_dc) => {
                let specs: Vec<DcnSpec> = ["dc1", "dc2"]
                    .iter()
                    .map(|n| DcnSpec::sized_for_variables(*n, vars_per_dc))
                    .collect();
                let graph = DeploymentSpec {
                    dcns: specs.clone(),
                    wan: Some(WanSpec {
                        dc_names: specs.iter().map(|s| s.name.clone()).collect(),
                        border_routers_per_dc: 2,
                        wan_link_mbps: 100_000.0,
                    }),
                    br_core_mbps: 100_000.0,
                }
                .build();
                (graph, specs)
            }
        };
        let graph_build_ms = since_ms(started);
        let dcs: Vec<DatacenterId> = specs.iter().map(|s| s.dc()).collect();
        let clock = SimClock::new();
        let net = SimNetwork::new(&graph, clock.clone(), sim);
        let storage = StorageService::new(dcs.clone(), clock.clone(), storage);
        Fabric {
            graph,
            pods_per_dc: specs[0].pods as usize,
            dcs,
            clock,
            net,
            storage,
            graph_build_ms,
        }
    }

    /// Live rows in the OS and TS pools.
    pub fn state_rows(&self) -> usize {
        self.storage.total_rows()
    }
}

/// The capacity panel seed `Coordinator::new` uses (a private constant
/// there). The traced run's state digest must equal the untraced run's,
/// which fails if this ever drifts.
pub const CAPACITY_PANEL_SEED: u64 = 0x57A7E;

/// The control round, wired here exactly as `Coordinator::new` wires it
/// for the default configuration, so that each stage call can be spanned.
pub struct Wired {
    monitor: Monitor,
    checkers: Vec<Checker>,
    updater: Updater,
    storage: StorageService,
    net: SimNetwork,
}

impl Wired {
    /// Mirror of `Coordinator::new` for the knobs the default
    /// configuration exercises.
    pub fn new(fabric: &Fabric, config: &CoordinatorConfig) -> Wired {
        assert!(
            config.monitor_instances.is_none()
                && !config.parallel_checkers
                && config.worker_threads.is_none()
                && config.quarantine_cooldown.is_none()
                && config.updater_retry.is_none()
                && config.updater_breaker.is_none()
                && config.monitor_resync_every.is_none()
                && config.plan_synthesis
                && config.delta_state_plane,
            "Wired mirrors the default coordinator configuration only"
        );
        let graph = &fabric.graph;
        let mut dcs: BTreeSet<DatacenterId> = BTreeSet::new();
        let mut has_wan = false;
        for (_, n) in graph.nodes() {
            if n.datacenter.is_wan() {
                has_wan = true;
            } else {
                has_wan |= n.role == DeviceRole::Border;
                dcs.insert(n.datacenter.clone());
            }
        }
        has_wan |= graph.edges().any(|(_, e)| e.datacenter.is_wan());

        let invariants_for = |dc: &DatacenterId| -> Vec<Box<dyn Invariant>> {
            let mut invs: Vec<Box<dyn Invariant>> = Vec::new();
            if config.connectivity_invariant {
                invs.push(Box::new(ConnectivityInvariant::new(dc.clone())));
            }
            if let Some((threshold, fraction, sample)) = config.capacity_invariant {
                let inv = match config.capacity_max_pairs {
                    Some(cap) => TorPairCapacityInvariant::sampled(
                        graph,
                        dc.clone(),
                        threshold,
                        fraction,
                        sample,
                        cap,
                        CAPACITY_PANEL_SEED,
                    ),
                    None => TorPairCapacityInvariant::new(
                        graph,
                        dc.clone(),
                        threshold,
                        fraction,
                        sample,
                    ),
                };
                if inv.pair_count() > 0 {
                    invs.push(Box::new(inv));
                }
            }
            invs
        };
        let wan_invariant = || -> Option<Box<dyn Invariant>> {
            config
                .wan_invariant
                .filter(|_| has_wan)
                .map(|min| Box::new(WanLinkInvariant::new(min)) as Box<dyn Invariant>)
        };
        let checker = |group: ImpactGroup, invs: Vec<Box<dyn Invariant>>| {
            let mut c = Checker::new(
                CheckerConfig {
                    group,
                    policy: config.policy,
                },
                graph.clone(),
            );
            for inv in invs {
                c.add_invariant(inv);
            }
            c.with_delta_reads(config.delta_state_plane)
                .with_columnar_state(config.columnar_state)
        };
        let mut checkers: Vec<Checker> = dcs
            .iter()
            .map(|dc| checker(ImpactGroup::Datacenter(dc.clone()), invariants_for(dc)))
            .collect();
        if has_wan {
            checkers.push(checker(
                ImpactGroup::Wan,
                wan_invariant().into_iter().collect(),
            ));
        }
        let monitor = Monitor::new(fabric.net.clone(), fabric.storage.clone(), graph.clone())
            .with_columnar_state(config.columnar_state);
        let mut plan_invariants: Vec<Box<dyn Invariant>> =
            dcs.iter().flat_map(&invariants_for).collect();
        plan_invariants.extend(wan_invariant());
        let updater = Updater::new(fabric.net.clone(), fabric.storage.clone(), graph.clone())
            .with_delta_reads(config.delta_state_plane)
            .with_columnar_state(config.columnar_state)
            .with_plan_synthesis(true)
            .with_plan_invariants(plan_invariants);
        Wired {
            monitor,
            checkers,
            updater,
            storage: fabric.storage.clone(),
            net: fabric.net.clone(),
        }
    }

    /// `Coordinator::tick` with a span around every stage. The round span
    /// is the parent; what its children do not cover is the coordinator's
    /// own time (`coordinator.unaccounted_ms`).
    pub fn tick(&self, tracer: &mut Tracer) -> StateResult<RoundReport> {
        let round = tracer.enter("coordinator.round");
        let result = self.tick_stages(tracer);
        tracer.exit(round);
        result
    }

    fn tick_stages(&self, tracer: &mut Tracer) -> StateResult<RoundReport> {
        let monitor = tracer.time("monitor.round", || self.monitor.run_round())?;
        let now = self.net.clock().now();
        let quarantined = self.monitor.quarantined_devices(now);
        let mut checkers = Vec::with_capacity(self.checkers.len());
        for c in &self.checkers {
            checkers.push(tracer.time("checker.pass", || {
                c.run_pass_with_unreachable(&self.storage, now, &quarantined)
            })?);
        }
        let updater = tracer.time("updater.round", || {
            self.updater.run_round_excluding(&quarantined)
        })?;
        let book = tracer.enter("coordinator.bookkeeping");
        let (storage_retries, storage_retries_exhausted) = self.storage.retry_stats();
        let (delta_reads, full_fallbacks, _) = self.storage.delta_stats();
        let watermark_lag = self
            .storage
            .partitions()
            .into_iter()
            .filter_map(|dc| {
                let head = self.storage.pool_watermark(&dc, &Pool::Observed).ok()?;
                let cached = self.updater.cached_watermark(&Pool::Observed, &dc)?;
                Some(head.0.saturating_sub(cached.0))
            })
            .max()
            .unwrap_or(0);
        tracer.exit(book);
        Ok(RoundReport {
            rows_written: monitor.rows_written,
            writes_suppressed: monitor.writes_suppressed,
            monitor,
            checkers,
            updater,
            skipped_groups: Vec::new(),
            storage_retries,
            storage_retries_exhausted,
            delta_reads,
            full_fallbacks,
            watermark_lag,
        })
    }

    /// Summed checker change-track full degrades (`checker.full_degrades`).
    pub fn full_degrades(&self) -> u64 {
        self.checkers.iter().map(|c| c.full_degrades()).sum()
    }
}

/// The control loop of a run: the shipping coordinator, or its wired
/// mirror when the run is traced.
pub enum ControlLoop {
    /// `Coordinator::tick`, untouched.
    Shipping(Box<Coordinator>),
    /// The spanned mirror.
    Wired(Box<Wired>),
}

impl ControlLoop {
    /// Build the loop over `fabric` with `CoordinatorConfig::default()`.
    pub fn new(fabric: &Fabric, wired: bool) -> ControlLoop {
        let config = CoordinatorConfig::default();
        if wired {
            ControlLoop::Wired(Box::new(Wired::new(fabric, &config)))
        } else {
            ControlLoop::Shipping(Box::new(Coordinator::new(
                &fabric.graph,
                fabric.net.clone(),
                fabric.storage.clone(),
                config,
            )))
        }
    }

    /// One control round at the current simulated time.
    pub fn tick(&self, tracer: &mut Tracer) -> StateResult<RoundReport> {
        match self {
            ControlLoop::Shipping(c) => c.tick(),
            ControlLoop::Wired(w) => w.tick(tracer),
        }
    }

    /// Summed checker full degrades; only the wired loop can see them.
    pub fn full_degrades(&self) -> u64 {
        match self {
            ControlLoop::Shipping(_) => 0,
            ControlLoop::Wired(w) => w.full_degrades(),
        }
    }
}

/// The simulator configuration every workload starts from: the shipping
/// fault plan (2 s ± 0.5 s command latency, no injected faults) with the
/// workload seed driving jitter and counter walks.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::default()
    }
}

/// What set-up does before any server starts: build the deployment and
/// its control loop (`wired` for a traced control workload) and seed the
/// store with one real control round.
pub fn seed(
    ctx: &mut Ctx,
    topology: Topology,
    sim: SimConfig,
    storage: StorageConfig,
    wired: bool,
) -> (Fabric, ControlLoop) {
    let fabric = Fabric::build(topology, sim, storage);
    let control = ControlLoop::new(&fabric, wired);
    let round = control.tick(&mut ctx.tracer);
    ctx.out
        .check(round.is_ok(), || format!("seed round: {round:?}"));
    ctx.layers.set("topology.build_ms", fabric.graph_build_ms);
    if let Some(s) = round.ok().and_then(|r| r.monitor.seed) {
        ctx.layers.set("types.intern_ms", s.intern_ms);
        ctx.layers.set("storage.seed_bulk_ms", s.wall_ms);
    }
    (fabric, control)
}

/// [`state_digest`], with a failure to read counted against the run.
pub fn checked_digest(ctx: &mut Ctx, storage: &StorageService, extra_pools: &[Pool]) -> u64 {
    let d = state_digest(storage, extra_pools);
    ctx.out.check(d.is_ok(), || format!("state digest: {d:?}"));
    d.unwrap_or(0)
}

/// Digest of the OS and TS pools of every partition, read through
/// `StorageService::read`. Order-independent (per-row hashes are summed)
/// and version-free: versions are stamped in commit order, which two
/// concurrent writers to one partition do not fix.
pub fn state_digest(storage: &StorageService, extra_pools: &[Pool]) -> StateResult<u64> {
    let mut pools = vec![Pool::Observed, Pool::Target];
    pools.extend_from_slice(extra_pools);
    let mut digest = 0u64;
    for dc in storage.partitions() {
        for pool in &pools {
            let rows = storage.read(ReadRequest {
                datacenter: dc.clone(),
                pool: pool.clone(),
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })?;
            for r in &rows {
                let mut h = Fnv::default();
                h.write(pool.wire_name().as_bytes());
                h.write(r.entity.wire_name().as_bytes());
                h.write(r.attribute.wire_name().as_bytes());
                h.write(r.value.render().as_bytes());
                h.write(r.writer.as_str().as_bytes());
                h.write(&r.updated_at.0.to_le_bytes());
                digest = digest.wrapping_add(h.0);
            }
        }
    }
    Ok(digest)
}

/// FNV-1a 64 with a field separator, so `("ab","c")` ≠ `("a","bc")`.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
