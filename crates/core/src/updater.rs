//! The updater: stateless translation of OS−TS differences into device
//! commands (paper §3, §6.2).
//!
//! "The updater is memoryless — it applies the latest difference between
//! the OS and TS without regard to what happened in the past." Every round
//! it reads both pools fresh, computes the per-variable difference, looks
//! up a [`CommandTemplatePool`] entry for (device model, attribute), and
//! executes the rendered command through the protocol adapter the template
//! names. Failures are not retried within a round; they surface as an
//! unchanged OS, so the next round recomputes the same (or an updated)
//! difference — §6.2's "implicit and automatic retry".
//!
//! Path translation (§4.1): path-level TS rows (`PathSwitches` +
//! `PathTrafficAllocation`) are expanded into per-device flow→link rules
//! and merged with any device-level `DeviceRoutingRules` TS rows before
//! diffing, so applications can operate purely at the path level.

use crate::view::{PartsView, PoolMirror, StateView};
use parking_lot::Mutex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use statesman_net::{
    CommandOutcome, DeviceCommand, DeviceModel, DeviceProtocol, OpenFlowSim, ProtocolKind,
    SimNetwork, VendorCliSim,
};
use statesman_storage::StorageService;
use statesman_topology::NetworkGraph;
use statesman_types::{
    Attribute, DatacenterId, DeviceName, EntityName, FlowLinkRule, LinkName, NetworkState, Pool,
    RetryPolicy, SimDuration, SimTime, StateError, StateResult, Value, Version,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// A rendered update action: which protocol carries which command to
/// which device.
#[derive(Debug, Clone)]
pub struct RenderedAction {
    /// The device the command is issued to.
    pub device: DeviceName,
    /// The protocol adapter to use.
    pub protocol: ProtocolKind,
    /// The command.
    pub command: DeviceCommand,
}

/// A command template: renders a desired value into concrete actions.
/// Returning multiple actions supports variables that fan out (a path's
/// traffic setup touches every on-path switch).
pub type Template = Box<dyn Fn(&TemplateCtx<'_>) -> StateResult<Vec<RenderedAction>> + Send + Sync>;

/// What a template sees.
pub struct TemplateCtx<'a> {
    /// The entity whose variable differs.
    pub entity: &'a EntityName,
    /// The attribute.
    pub attribute: Attribute,
    /// The desired (TS) value.
    pub target: &'a Value,
    /// The device the action will ultimately land on (for link and path
    /// variables, a chosen endpoint/on-path device).
    pub device: &'a DeviceName,
    /// That device's model.
    pub model: DeviceModel,
}

/// The per-(model, attribute) template pool (§6.2: "a pool of command
/// templates that contains templates for each update action on each device
/// model with supported control-plane protocol").
pub struct CommandTemplatePool {
    templates: HashMap<(&'static str, Attribute), Template>,
}

impl CommandTemplatePool {
    /// An empty pool.
    pub fn empty() -> Self {
        CommandTemplatePool {
            templates: HashMap::new(),
        }
    }

    /// The standard pool covering both stock models and all writable
    /// device/link attributes.
    pub fn standard() -> Self {
        let mut pool = CommandTemplatePool::empty();
        for model in [DeviceModel::OpenFlowSwitch, DeviceModel::BgpRouter] {
            let ms = model.model_string();
            pool.register(
                ms,
                Attribute::DeviceAdminPower,
                Box::new(|ctx| {
                    let status = ctx.target.as_power().ok_or_else(|| {
                        StateError::invalid("DeviceAdminPower needs a power value")
                    })?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetAdminPower(status),
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::DeviceFirmwareVersion,
                Box::new(|ctx| {
                    let version = ctx
                        .target
                        .as_text()
                        .ok_or_else(|| StateError::invalid("firmware version must be text"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::UpgradeFirmware {
                            version: version.to_string(),
                        },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::DeviceBootImage,
                Box::new(|ctx| {
                    let image = ctx
                        .target
                        .as_text()
                        .ok_or_else(|| StateError::invalid("boot image must be text"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetBootImage {
                            image: image.to_string(),
                        },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::DeviceMgmtInterface,
                Box::new(|ctx| {
                    let enabled = ctx
                        .target
                        .as_bool()
                        .ok_or_else(|| StateError::invalid("mgmt interface state must be bool"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::ConfigureMgmtInterface { enabled },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::DeviceOpenFlowAgent,
                Box::new(|ctx| {
                    let running = ctx
                        .target
                        .as_bool()
                        .ok_or_else(|| StateError::invalid("OF agent state must be bool"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetOpenFlowAgent { running },
                    }])
                }),
            );
            // Routing rules: OpenFlow rule programming on OF models;
            // BGP announcements via the CLI on traditional routers.
            pool.register(
                ms,
                Attribute::DeviceRoutingRules,
                Box::new(|ctx| {
                    let rules = ctx
                        .target
                        .as_routes()
                        .ok_or_else(|| StateError::invalid("routing rules must be Routes"))?;
                    let protocol = match ctx.model {
                        DeviceModel::OpenFlowSwitch => ProtocolKind::OpenFlow,
                        DeviceModel::BgpRouter => ProtocolKind::VendorCli,
                    };
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol,
                        command: DeviceCommand::SetRoutingRules {
                            rules: rules.to_vec(),
                        },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::LinkAdminPower,
                Box::new(|ctx| {
                    let status = ctx
                        .target
                        .as_power()
                        .ok_or_else(|| StateError::invalid("LinkAdminPower needs a power value"))?;
                    let link = ctx
                        .entity
                        .as_link()
                        .ok_or_else(|| StateError::invalid("LinkAdminPower on a non-link"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetLinkAdminPower {
                            link: link.clone(),
                            status,
                        },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::LinkIpAssignment,
                Box::new(|ctx| {
                    let ip = ctx
                        .target
                        .as_text()
                        .ok_or_else(|| StateError::invalid("IP assignment must be text"))?;
                    let link = ctx
                        .entity
                        .as_link()
                        .ok_or_else(|| StateError::invalid("LinkIpAssignment on a non-link"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetLinkIp {
                            link: link.clone(),
                            ip: ip.to_string(),
                        },
                    }])
                }),
            );
            pool.register(
                ms,
                Attribute::LinkControlPlane,
                Box::new(|ctx| {
                    let mode = ctx
                        .target
                        .as_control_plane()
                        .ok_or_else(|| StateError::invalid("control plane must be a mode"))?;
                    let link = ctx
                        .entity
                        .as_link()
                        .ok_or_else(|| StateError::invalid("LinkControlPlane on a non-link"))?;
                    Ok(vec![RenderedAction {
                        device: ctx.device.clone(),
                        protocol: ProtocolKind::VendorCli,
                        command: DeviceCommand::SetLinkControlPlane {
                            link: link.clone(),
                            mode,
                        },
                    }])
                }),
            );
        }
        pool
    }

    /// Register a template for (model string, attribute).
    pub fn register(&mut self, model: &'static str, attribute: Attribute, t: Template) {
        self.templates.insert((model, attribute), t);
    }

    /// Look up and render.
    pub fn render(&self, ctx: &TemplateCtx<'_>) -> StateResult<Vec<RenderedAction>> {
        match self
            .templates
            .get(&(ctx.model.model_string(), ctx.attribute))
        {
            Some(t) => t(ctx),
            None => Err(StateError::NoCommandTemplate {
                model: ctx.model.model_string().to_string(),
                attribute: ctx.attribute.to_string(),
            }),
        }
    }

    /// Number of registered templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// True if no templates are registered.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }
}

/// One update round's outcome.
#[derive(Debug, Clone, Default)]
pub struct UpdaterReport {
    /// Variables whose OS and TS values differed.
    pub diffs: usize,
    /// Commands submitted and accepted by devices.
    pub commands_applied: usize,
    /// Commands that timed out or were rejected.
    pub commands_failed: usize,
    /// Differences with no usable template or no reachable endpoint.
    pub unrenderable: usize,
    /// In-round retries of retryable command failures (zero unless a
    /// [`RetryPolicy`] is configured via [`Updater::with_retry`]).
    pub retries: usize,
    /// Commands not even issued because the target device's circuit
    /// breaker was open.
    pub breaker_skips: usize,
    /// Commands not issued because the target device was excluded from
    /// this round (quarantined by the monitor). Acting on a quarantined
    /// device means acting on stale OS — for reboot-inducing commands
    /// that can re-disturb a recovering device forever, starving the
    /// monitor of the fresh poll that would clear the diff.
    pub quarantine_skips: usize,
    /// Circuit breakers tripped open this round.
    pub breakers_opened: usize,
    /// Steps in this round's synthesized [`crate::plan::UpdatePlan`].
    pub plan_steps: usize,
    /// Execution waves the plan layered into (the DAG's depth).
    pub plan_waves: usize,
    /// The widest wave — the measured parallelism the dependency
    /// structure permits across independent segments.
    pub plan_max_width: usize,
    /// Steps deferred because their projected intermediate state failed
    /// an in-flight invariant check (they rediff next round). A step with
    /// a quarantined carrier is never checked: it counts as a
    /// [`UpdaterReport::quarantine_skips`] instead.
    pub plan_inflight_rejections: usize,
    /// Steps whose projected transition was rolled back because every
    /// command for them failed (folding into the breaker/retry paths).
    pub plan_rollbacks: usize,
    /// Modeled device-interaction time: commands run concurrently across
    /// devices, sequentially per device, so this is the per-device max.
    /// A model, not a measurement: it never enters the wall-clock stage
    /// tree.
    pub modeled_io: SimDuration,
    /// Host wall-clock compute time.
    pub elapsed: Duration,
    /// Host wall time of the read stage: advancing the mirrors.
    pub stage_read: Duration,
    /// Host wall time of the diff stage: path expansion, TS sort, and the
    /// per-partition OS−TS comparisons with their carriers and scope.
    pub stage_diff: Duration,
    /// Host wall time of the execute stage: plan synthesis, in-flight
    /// checks, rendering, and command issue.
    pub stage_exec: Duration,
}

/// The updater over one simulated network.
pub struct Updater {
    net: SimNetwork,
    of: OpenFlowSim,
    cli: VendorCliSim,
    storage: StorageService,
    graph: NetworkGraph,
    pool: CommandTemplatePool,
    scope: Option<UpdaterScope>,
    /// In-round retry schedule for retryable command failures. Defaults
    /// to [`RetryPolicy::none`], preserving §6.2's pure cross-round
    /// "implicit and automatic retry"; deployments that want in-round
    /// persistence opt in via [`Updater::with_retry`].
    retry: RetryPolicy,
    /// Circuit breaker knobs (consecutive-failure threshold, open
    /// cooldown); `None` disables breakers entirely.
    breaker: Option<(u32, SimDuration)>,
    breakers: Mutex<HashMap<DeviceName, BreakerState>>,
    /// Per-(pool, partition) mirror advanced by `read_since`; the only
    /// way a round reads a pool. Dropped while its partition is
    /// unavailable. A *read-path optimization only*: the mirror is a
    /// verbatim copy of storage, and the updater still rediffs OS−TS from
    /// scratch every round — §6.2's memoryless property, tested against
    /// an updater built fresh every round.
    part_cache: Mutex<HashMap<(Pool, DatacenterId), PoolMirror>>,
    /// Invariants re-checked against the projected intermediate state
    /// before each plan step commits (empty = no in-flight checks).
    plan_invariants: Vec<Box<dyn crate::invariants::Invariant>>,
}

/// One storage partition's share of a round's diff work: its non-routing
/// TS rows (in global key order) and its routing-device diffs (in device
/// name order), both carrying entities homed in that partition.
#[derive(Default)]
struct PartitionWork<'a> {
    ts: Vec<&'a NetworkState>,
    routing: Vec<(DeviceName, Option<Vec<FlowLinkRule>>, EntityName)>,
}

/// Per-device circuit-breaker bookkeeping. This is deliberately *not*
/// update state: it remembers nothing about diffs or commands, only that
/// a device's management plane has been failing, so the stateless rediff
/// property of §6.2 is preserved.
#[derive(Debug, Clone, Copy, Default)]
struct BreakerState {
    consecutive_failures: u32,
    open_until: Option<SimTime>,
}

/// A work partition for one updater instance. §6.2: "we run one instance
/// per state variable per switch model. In this way, each updater
/// instance is specialized for one task." A scoped updater only acts on
/// differences matching its (model, attribute) filters; several scoped
/// instances with disjoint scopes cover the full difference set and can
/// run independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdaterScope {
    /// Only act on devices of this model (None = all models).
    pub model: Option<DeviceModel>,
    /// Only act on these attributes (empty = all attributes).
    pub attributes: Vec<Attribute>,
}

impl UpdaterScope {
    /// A scope for one (model, attribute) specialization — the paper's
    /// deployment unit.
    pub fn specialized(model: DeviceModel, attribute: Attribute) -> Self {
        UpdaterScope {
            model: Some(model),
            attributes: vec![attribute],
        }
    }

    /// Does this scope cover a difference on `attribute` for a device of
    /// `model`?
    pub fn covers(&self, model: DeviceModel, attribute: Attribute) -> bool {
        self.model.map(|m| m == model).unwrap_or(true)
            && (self.attributes.is_empty() || self.attributes.contains(&attribute))
    }
}

impl Updater {
    /// Build an updater with the standard template pool.
    pub fn new(net: SimNetwork, storage: StorageService, graph: NetworkGraph) -> Self {
        Updater {
            of: OpenFlowSim::new(net.clone()),
            cli: VendorCliSim::new(net.clone()),
            net,
            storage,
            graph,
            pool: CommandTemplatePool::standard(),
            scope: None,
            retry: RetryPolicy::none(),
            breaker: None,
            breakers: Mutex::new(HashMap::new()),
            part_cache: Mutex::new(HashMap::new()),
            plan_invariants: Vec::new(),
        }
    }

    /// Install the invariants evaluated in flight — against the projected
    /// intermediate state — before each plan step commits. Only
    /// invariants whose [`crate::invariants::Invariant::affected_by`]
    /// intersects a step's blast radius are re-checked for that step.
    /// Every round is planned; until this is called, its steps are
    /// issued in plan order with no in-flight checks.
    pub fn with_plan_invariants(
        mut self,
        invariants: Vec<Box<dyn crate::invariants::Invariant>>,
    ) -> Self {
        self.plan_invariants = invariants;
        self
    }

    /// The watermark of this updater's mirrored (pool, partition), if the
    /// mirror is live. The coordinator reports the gap to the leader's
    /// watermark as `state_watermark_lag`.
    pub fn cached_watermark(&self, pool: &Pool, dc: &DatacenterId) -> Option<Version> {
        self.part_cache
            .lock()
            .get(&(pool.clone(), dc.clone()))
            .map(PoolMirror::watermark)
    }

    /// Replace the template pool.
    pub fn with_pool(mut self, pool: CommandTemplatePool) -> Self {
        self.pool = pool;
        self
    }

    /// Enable bounded in-round retry of retryable command failures.
    /// Backoffs consume *simulated* time (the network steps forward), so
    /// transient conditions like reboot windows can actually clear.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Enable per-device circuit breakers: after `threshold` consecutive
    /// command failures against a device, stop issuing to it for
    /// `cooldown` (commands are counted as skips, costing no device
    /// interaction); after the cooldown, one half-open probe either
    /// closes the breaker or re-opens it.
    pub fn with_circuit_breaker(mut self, threshold: u32, cooldown: SimDuration) -> Self {
        self.breaker = Some((threshold.max(1), cooldown));
        self
    }

    /// Restrict this instance to one work partition (§6.2's one instance
    /// per state variable per switch model).
    pub fn with_scope(mut self, scope: UpdaterScope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Devices whose circuit breaker is currently open (sorted), i.e.
    /// commands to them are being skipped until the cooldown passes.
    pub fn open_breakers(&self, now: SimTime) -> Vec<DeviceName> {
        let breakers = self.breakers.lock();
        let mut v: Vec<DeviceName> = breakers
            .iter()
            .filter(|(_, b)| b.open_until.map(|t| t > now).unwrap_or(false))
            .map(|(d, _)| d.clone())
            .collect();
        v.sort();
        v
    }

    /// Whether this instance acts on a difference for `device`/`attribute`.
    fn in_scope(&self, device: &DeviceName, attribute: Attribute) -> bool {
        match &self.scope {
            None => true,
            Some(scope) => {
                let model = self.net.with_device(device, |d, _| d.model);
                let model = model.unwrap_or(DeviceModel::OpenFlowSwitch);
                scope.covers(model, attribute)
            }
        }
    }

    fn adapter(&self, kind: ProtocolKind) -> &dyn DeviceProtocol {
        match kind {
            ProtocolKind::OpenFlow => &self.of,
            ProtocolKind::VendorCli => &self.cli,
            ProtocolKind::Snmp => &self.cli, // SNMP writes unused; CLI stands in
        }
    }

    /// Run one update round.
    pub fn run_round(&self) -> StateResult<UpdaterReport> {
        self.run_round_excluding(&BTreeSet::new())
    }

    /// Run one update round, issuing no commands to devices in `skip`
    /// (typically the monitor's quarantine set). Their diffs still count
    /// in [`UpdaterReport::diffs`] but each suppressed command is tallied
    /// as a [`UpdaterReport::quarantine_skips`] instead of being sent.
    ///
    /// Why the updater must honor quarantine: a quarantined device's OS
    /// rows are stale by construction. Re-issuing a reboot-inducing
    /// command (e.g. a firmware upgrade) against stale state knocks the
    /// device over again just as it recovers, so the monitor's next poll
    /// fails again and the loop never observes the success — a metastable
    /// upgrade storm. Skipping the device lets the quarantine expire, the
    /// re-probe refresh the OS, and the diff clear (or be retried on
    /// fresh state), preserving §6.2's cross-round implicit retry.
    pub fn run_round_excluding(&self, skip: &BTreeSet<DeviceName>) -> StateResult<UpdaterReport> {
        let started = Instant::now();
        let now = self.net.clock().now();

        // ---- read stage ----
        // Hold the mirror-cache lock for the whole round and diff
        // directly against the partition mirrors, advanced in place by
        // `read_since`. Unavailable partitions are skipped (degraded
        // mode) and their mirrors dropped, so their entities simply
        // produce no diffs this round rather than aborting everyone
        // else's work.
        let read_started = Instant::now();
        let dcs = self.storage.partitions();
        let mut cache = self.part_cache.lock();
        let mut ts_rows: Vec<NetworkState> = Vec::new();
        for dc in &dcs {
            if !self.storage.partition_available(dc) {
                cache.retain(|(_, homed), _| homed != dc);
                continue;
            }
            for pool in [Pool::Observed, Pool::Target] {
                cache
                    .entry((pool.clone(), dc.clone()))
                    .or_insert_with(|| PoolMirror::cold(&pool))
                    .advance(&self.storage, dc, &pool, |_, _, _| {})?;
            }
            ts_rows.extend(cache[&(Pool::Target, dc.clone())].view().rows().cloned());
        }
        let os = PartsView::new(
            dcs.iter()
                .filter_map(|dc| cache.get(&(Pool::Observed, dc.clone())))
                .map(PoolMirror::view)
                .collect(),
            None,
        );
        let stage_read = read_started.elapsed();
        let diff_started = Instant::now();

        let mut report = UpdaterReport::default();
        // Track cumulative simulated latency per device (sequential per
        // device, parallel across devices).
        let mut per_device_ms: HashMap<DeviceName, u64> = HashMap::new();

        // ---- expand path-level rows into per-device desired routes ----
        // Desired routes per device = device-level TS rules + path rules.
        let mut desired_routes: BTreeMap<DeviceName, Vec<FlowLinkRule>> = BTreeMap::new();
        let mut path_rows: BTreeMap<
            statesman_types::PathName,
            (Option<Vec<DeviceName>>, Option<f64>),
        > = BTreeMap::new();
        for row in &ts_rows {
            if let Some(path) = row.entity.as_path() {
                let entry = path_rows.entry(path.clone()).or_insert((None, None));
                match row.attribute {
                    Attribute::PathSwitches => {
                        entry.0 = row.value.as_device_list().map(|l| l.to_vec());
                    }
                    Attribute::PathTrafficAllocation => {
                        entry.1 = row.value.as_float();
                    }
                    _ => {}
                }
            }
        }
        for (path, (switches, mbps)) in &path_rows {
            let Some(switches) = switches else { continue };
            // A zero allocation tears the path's rules down: the rules
            // vanish from every on-path device's desired set.
            if matches!(mbps, Some(m) if *m <= 0.0) {
                continue;
            }
            for pair in switches.windows(2) {
                let link = LinkName::between(pair[0].clone(), pair[1].clone());
                desired_routes
                    .entry(pair[0].clone())
                    .or_default()
                    .push(FlowLinkRule::new(path.as_str(), link, 1.0));
            }
        }

        // ---- per-variable diff, grouped by storage partition ----
        // Each entity belongs to exactly one datacenter partition, and so
        // does the device carrying its commands — the impact-group
        // boundary the checkers are cut on. The diff stage compares each
        // partition's work against the OS mirrors in sorted-partition
        // order, then key order, and keeps what this instance's scope
        // covers; the execute stage issues it. That order is the plan's
        // input order, and so the order in which the sim's one seeded RNG
        // (command jitter, link flaps, counter walks), its effect
        // sequence numbers and the shared clock are consumed: a pure
        // function of the inputs.
        let mut routing_devices: BTreeMap<DeviceName, Option<Vec<FlowLinkRule>>> = BTreeMap::new();
        // Borrow-sort by string-key order: no row clones, no key clones.
        let mut sorted_ts: Vec<&NetworkState> = ts_rows.iter().collect();
        sorted_ts.sort_by(|a, b| a.key_ref().cmp(&b.key_ref()));
        let mut work: BTreeMap<DatacenterId, PartitionWork<'_>> = BTreeMap::new();
        for &row in &sorted_ts {
            if row.attribute.is_lock() || row.entity.as_path().is_some() {
                continue; // locks are metadata; paths handled via expansion
            }
            if row.attribute == Attribute::DeviceRoutingRules {
                // Routing diffs merge with path-derived routes below.
                if let Some(dev) = row.entity.as_device() {
                    routing_devices.insert(dev.clone(), row.value.as_routes().map(|r| r.to_vec()));
                }
                continue;
            }
            work.entry(row.entity.datacenter.clone())
                .or_default()
                .ts
                .push(row);
        }

        // Devices with path-derived routes but no device-level TS row.
        for dev in desired_routes.keys() {
            routing_devices.entry(dev.clone()).or_insert(None);
        }
        // Devices carrying rules in the OS must also be diffed, so rules
        // whose paths left the TS get withdrawn (in this system all
        // forwarding state is Statesman-owned).
        for row in os.rows() {
            if row.attribute == Attribute::DeviceRoutingRules
                && row
                    .value
                    .as_routes()
                    .map(|r| !r.is_empty())
                    .unwrap_or(false)
            {
                if let Some(dev) = row.entity.as_device() {
                    routing_devices.entry(dev.clone()).or_insert(None);
                }
            }
        }
        for (dev, device_rules) in routing_devices {
            let entity = match self.graph.node_id(&dev) {
                Some(id) => {
                    let info = self.graph.node(id);
                    EntityName::device(info.datacenter.clone(), dev.clone())
                }
                None => continue,
            };
            work.entry(entity.datacenter.clone())
                .or_default()
                .routing
                .push((dev, device_rules, entity));
        }

        let mut diffs = Vec::new();
        for part in work.values() {
            self.collect_partition_diffs(part, &os, &desired_routes, now, &mut diffs);
        }
        report.stage_read = stage_read;
        report.stage_diff = diff_started.elapsed();
        let exec_started = Instant::now();

        // Execute stage. One jitter RNG for the whole round, the
        // historical `0xC1AC` stream: backoff draws happen in the same
        // deterministic order as the steps they serve. The plan orders
        // steps along the Fig-4 chains and issues them in that order with
        // this one RNG, so the round stays deterministic.
        let mut rng = StdRng::seed_from_u64(0xC1AC);
        self.execute_plan(
            diffs,
            &os,
            skip,
            &mut report,
            &mut per_device_ms,
            now,
            &mut rng,
        );

        report.stage_exec = exec_started.elapsed();
        report.modeled_io =
            SimDuration::from_millis(per_device_ms.values().copied().max().unwrap_or(0));
        report.elapsed = started.elapsed();
        Ok(report)
    }

    /// The execute stage: compile the diff stage's rows into an
    /// [`UpdatePlan`] and commit it wave by wave. Steps run in
    /// deterministic order (wave index, then step index — which is
    /// partition order, then key order, for dependency-free plans),
    /// but each step first has its projected intermediate state checked
    /// against the configured in-flight invariants:
    ///
    /// * a step whose carrier device is quarantined is **skipped** before
    ///   any projection or check — it could issue nothing either way;
    /// * a violation **defers** the step — its projected transition is
    ///   rolled back, no command is issued, and the memoryless rediff
    ///   retries it next round once the network has moved;
    /// * a step whose commands all fail has its projected transition
    ///   **rolled back** too (the device never started it), folding into
    ///   the existing circuit-breaker and cross-round retry paths.
    #[allow(clippy::too_many_arguments)]
    fn execute_plan(
        &self,
        rows: Vec<(NetworkState, Option<DeviceName>)>,
        os: &PartsView<'_>,
        skip: &BTreeSet<DeviceName>,
        report: &mut UpdaterReport,
        per_device_ms: &mut HashMap<DeviceName, u64>,
        now: SimTime,
        rng: &mut StdRng,
    ) {
        report.diffs += rows.len();
        let plan = crate::plan::UpdatePlan::synthesize(&self.graph, rows);
        report.plan_steps = plan.step_count();
        report.plan_waves = plan.wave_count();
        report.plan_max_width = plan.max_width();

        // In-flight projection state: the round's observed health, moved
        // forward step by step as transitions commit. `committed` is the
        // TS-overlay of in-flight transitions; a step's candidate health
        // is checked with its own row included, pessimistically (a
        // pending firmware/boot transition projects its device down).
        let mut committed = crate::view::MapView::new();
        // Lazy projection: the full-graph health projection is only
        // needed if some step will actually be checked against it.
        // Churn rounds synthesize empty plans, so skipping the
        // projection there is unobservable — and removes a full
        // every-entity scan per round.
        let mut health = if self.plan_invariants.is_empty() || plan.step_count() == 0 {
            None
        } else {
            Some(crate::view::project_health(&self.graph, os, None))
        };

        for wave in &plan.waves {
            for &idx in wave {
                let step = &plan.steps[idx];
                // The carrier is derived at issue time: an earlier step
                // may have rebooted a link's endpoint. A quarantined one
                // can issue nothing, so the step is neither projected nor
                // checked: the skip is all it does.
                let carrier = self.carrier_device(&step.row);
                if carrier.as_ref().is_some_and(|dev| skip.contains(dev)) {
                    report.quarantine_skips += 1;
                    continue;
                }
                let key =
                    statesman_types::StateKey::new(step.row.entity.clone(), step.row.attribute);
                let mut delta = None;
                if let Some(health) = health.as_mut() {
                    committed.upsert(step.row.clone());
                    let d = crate::view::HealthDelta::apply(
                        &self.graph,
                        os,
                        &committed,
                        &step.radius.entities,
                        health,
                    );
                    let ctx = crate::invariants::InvariantContext {
                        graph: &self.graph,
                        projected: health,
                        touched_pods: step.radius.pods.as_ref(),
                    };
                    let violated = (self.plan_invariants.iter())
                        .filter(|inv| inv.affected_by(&step.radius))
                        .any(|inv| inv.check(&ctx).is_err());
                    if violated {
                        d.revert(health);
                        committed.remove(&key);
                        report.plan_inflight_rejections += 1;
                        continue;
                    }
                    delta = Some(d);
                }
                let applied_before = report.commands_applied;
                let failed_before = report.commands_failed;
                self.execute_step(&step.row, carrier, report, per_device_ms, now, rng);
                if report.commands_applied == applied_before {
                    // Nothing landed (skipped, unrenderable, or every
                    // command failed): the projected transition is not in
                    // flight — roll it back so later steps are not
                    // checked against a phantom outage.
                    if let (Some(d), Some(health)) = (delta, health.as_mut()) {
                        d.revert(health);
                        committed.remove(&key);
                        if report.commands_failed > failed_before {
                            report.plan_rollbacks += 1;
                        }
                    }
                }
            }
        }
    }

    /// The device that carries the commands realizing a row's difference.
    fn carrier_device(&self, row: &NetworkState) -> Option<DeviceName> {
        match &row.entity.body {
            statesman_types::entity::EntityBody::Device(d) => Some(d.clone()),
            statesman_types::entity::EntityBody::Link(l) => {
                // Link interfaces are configured from a live endpoint.
                [&l.a, &l.b]
                    .into_iter()
                    .find(|d| self.net.device_operational(d))
                    .cloned()
            }
            statesman_types::entity::EntityBody::Path(_) => None,
        }
    }

    /// Is the device's breaker open right now? Expired breakers move to
    /// half-open: the probe is allowed through and the next outcome
    /// decides whether the breaker closes or re-opens.
    fn breaker_blocks(&self, device: &DeviceName) -> bool {
        if self.breaker.is_none() {
            return false;
        }
        let mut breakers = self.breakers.lock();
        let Some(state) = breakers.get_mut(device) else {
            return false;
        };
        match state.open_until {
            Some(until) if self.net.clock().now() < until => true,
            Some(_) => {
                state.open_until = None; // half-open: let one probe through
                false
            }
            None => false,
        }
    }

    /// Record a command outcome against the device's breaker.
    fn note_outcome(&self, device: &DeviceName, ok: bool, report: &mut UpdaterReport) {
        let Some((threshold, cooldown)) = self.breaker else {
            return;
        };
        let mut breakers = self.breakers.lock();
        if ok {
            breakers.remove(device);
            return;
        }
        let state = breakers.entry(device.clone()).or_default();
        state.consecutive_failures += 1;
        if state.consecutive_failures >= threshold && state.open_until.is_none() {
            state.open_until = Some(self.net.clock().now() + cooldown);
            report.breakers_opened += 1;
        }
    }

    /// One partition's share of the diff stage: compare its TS rows
    /// (global key order) and routing rule-sets (device-name order)
    /// against the OS and append each differing variable this instance's
    /// scope covers to `diffs`, in that same order, as the row to plan
    /// and the device that carries it. A routing diff's row is the
    /// device's normalized desired rule-set (device-level TS rules ∪
    /// path-derived rules), written by the updater at `now`.
    fn collect_partition_diffs(
        &self,
        work: &PartitionWork<'_>,
        os: &PartsView<'_>,
        desired_routes: &BTreeMap<DeviceName, Vec<FlowLinkRule>>,
        now: SimTime,
        diffs: &mut Vec<(NetworkState, Option<DeviceName>)>,
    ) {
        for &row in &work.ts {
            if os.value_of(&row.entity, row.attribute) == Some(&row.value) {
                continue;
            }
            let device = self.carrier_device(row);
            if device
                .as_ref()
                .is_some_and(|dev| !self.in_scope(dev, row.attribute))
            {
                continue;
            }
            diffs.push((row.clone(), device));
        }

        // ---- routing diffs (device rules ∪ path rules) ----
        for (dev, device_rules, entity) in &work.routing {
            let mut desired: Vec<FlowLinkRule> = device_rules.clone().unwrap_or_default();
            if let Some(extra) = desired_routes.get(dev) {
                desired.extend(extra.iter().cloned());
            }
            normalize_rules(&mut desired);
            let mut current = os
                .value_of(entity, Attribute::DeviceRoutingRules)
                .and_then(|v| v.as_routes().map(|r| r.to_vec()))
                .unwrap_or_default();
            normalize_rules(&mut current);
            if current != desired && self.in_scope(dev, Attribute::DeviceRoutingRules) {
                let row = NetworkState::new(
                    entity.clone(),
                    Attribute::DeviceRoutingRules,
                    Value::Routes(desired),
                    now,
                    statesman_types::AppId::updater(),
                );
                diffs.push((row, Some(dev.clone())));
            }
        }
    }

    /// Render and execute the command(s) realizing one plan step through
    /// its `carrier`, both derived at issue time: an earlier step may
    /// have rebooted a link's endpoint or changed a carrier's model.
    fn execute_step(
        &self,
        row: &NetworkState,
        carrier: Option<DeviceName>,
        report: &mut UpdaterReport,
        per_device_ms: &mut HashMap<DeviceName, u64>,
        now: statesman_types::SimTime,
        rng: &mut StdRng,
    ) {
        let Some(device) = carrier else {
            report.unrenderable += 1;
            return;
        };
        if self.breaker_blocks(&device) {
            report.breaker_skips += 1;
            return;
        }
        let model = match self.net.with_device(&device, |d, _| d.model) {
            Some(model) => model,
            None => {
                report.unrenderable += 1;
                return;
            }
        };
        let ctx = TemplateCtx {
            entity: &row.entity,
            attribute: row.attribute,
            target: &row.value,
            device: &device,
            model,
        };
        let Ok(actions) = self.pool.render(&ctx) else {
            report.unrenderable += 1;
            return;
        };
        for action in &actions {
            self.execute_action(action, report, per_device_ms, now, rng);
        }
    }

    /// Issue one action, retrying retryable failures within the bounded
    /// [`RetryPolicy`] budget. Each backoff steps the simulated network
    /// forward, so the total simulated time any action can consume is
    /// capped by [`RetryPolicy::worst_case_total_backoff`].
    fn execute_action(
        &self,
        action: &RenderedAction,
        report: &mut UpdaterReport,
        per_device_ms: &mut HashMap<DeviceName, u64>,
        now: statesman_types::SimTime,
        rng: &mut StdRng,
    ) {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self
                .adapter(action.protocol)
                .execute(&action.device, action.command.clone());
            match result {
                Ok(CommandOutcome::Applied { effective_at }) => {
                    report.commands_applied += 1;
                    let ms = effective_at.saturating_since(now).as_millis();
                    *per_device_ms.entry(action.device.clone()).or_insert(0) += ms.max(1);
                    self.note_outcome(&action.device, true, report);
                    return;
                }
                other => {
                    // Failed interactions still cost wall time (§2.1: the
                    // command that times out dominates the loop).
                    *per_device_ms.entry(action.device.clone()).or_insert(0) += 1_000;
                    // Timeouts and rejections are transient device-side
                    // conditions; typed errors decide via the shared
                    // retryable/fatal split.
                    let retryable = match &other {
                        Err(e) => e.is_retryable(),
                        Ok(_) => true,
                    };
                    if retryable && self.retry.should_retry(attempt) {
                        report.retries += 1;
                        let roll: f64 = rng.gen();
                        self.net.step(self.retry.backoff_after(attempt, roll));
                        continue;
                    }
                    report.commands_failed += 1;
                    self.note_outcome(&action.device, false, report);
                    return;
                }
            }
        }
    }
}

// Pinned by the frozen benchmark; the first bullet of ROADMAP item 9
// removes the call, then this goes.
impl Updater {
    /// A no-op: mirrors always carry over from round to round. An
    /// updater built fresh (the old `false`) issues exactly what a
    /// long-lived one does, so only the cost of a round depended on this.
    pub fn with_delta_reads(self, _enabled: bool) -> Self {
        self
    }

    /// A no-op: mirrors are always slot-indexed columns; the hash layout
    /// it selected gave identical rounds.
    pub fn with_columnar_state(self, _enabled: bool) -> Self {
        self
    }

    /// Every round is planned. `false` selected the serial chain walk,
    /// which is gone, so it fails loudly rather than being ignored.
    pub fn with_plan_synthesis(self, enabled: bool) -> Self {
        assert!(
            enabled,
            "pinned by the frozen benchmark; ROADMAP item 9 (first bullet) removes the call, then this goes"
        );
        self
    }
}

/// Canonical ordering + dedup so rule-set comparison is well-defined.
fn normalize_rules(rules: &mut Vec<FlowLinkRule>) {
    rules.sort_by(|a, b| {
        a.flow
            .cmp(&b.flow)
            .then_with(|| a.out_link.cmp(&b.out_link))
            .then_with(|| {
                a.weight
                    .partial_cmp(&b.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    });
    rules.dedup_by(|a, b| a.flow == b.flow && a.out_link == b.out_link && a.weight == b.weight);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Monitor;
    use statesman_net::{SimClock, SimConfig};
    use statesman_storage::WriteRequest;
    use statesman_topology::DcnSpec;
    use statesman_types::PowerStatus;
    use statesman_types::{AppId, SimTime};

    fn setup() -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.command_latency_ms = 100;
        cfg.faults.reboot_window_ms = 60_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        (net, storage, graph, clock)
    }

    fn ts_row(entity: EntityName, attr: Attribute, v: Value, at: SimTime) -> NetworkState {
        NetworkState::new(entity, attr, v, at, AppId::new("switch-upgrade"))
    }

    /// Seed the OS by running a real monitor round.
    fn seed_os(net: &SimNetwork, storage: &StorageService, graph: &NetworkGraph) {
        Monitor::new(net.clone(), storage.clone(), graph.clone())
            .run_round()
            .unwrap();
    }

    #[test]
    fn firmware_diff_drives_upgrade_to_convergence() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone());

        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                    clock.now(),
                )],
            })
            .unwrap();

        let r1 = u.run_round().unwrap();
        assert_eq!(r1.diffs, 1);
        assert_eq!(r1.commands_applied, 1);
        assert!(r1.modeled_io >= SimDuration::from_millis(100));

        // Command latency + reboot window pass; device comes back on 7.0.
        net.step(SimDuration::from_secs(100));
        seed_os(&net, &storage, &graph);
        assert_eq!(
            net.device_snapshot(&DeviceName::new("agg-1-1"))
                .unwrap()
                .observed_firmware(),
            "7.0"
        );

        // Converged: next round sees no difference.
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.diffs, 0);
        assert_eq!(r2.commands_applied, 0);
    }

    #[test]
    fn stateless_retry_survives_reboot_window() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone());
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                    clock.now(),
                )],
            })
            .unwrap();
        u.run_round().unwrap();
        net.step(SimDuration::from_secs(1)); // command landed; rebooting

        // Mid-reboot round: OS is stale (old firmware), device times out;
        // the updater just fails and will rediff later — no state carried.
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.diffs, 1);
        assert_eq!(r2.commands_applied, 0);
        assert_eq!(r2.commands_failed, 1);

        // After the reboot completes, convergence.
        net.step(SimDuration::from_secs(100));
        seed_os(&net, &storage, &graph);
        let r3 = u.run_round().unwrap();
        assert_eq!(r3.diffs, 0);
    }

    #[test]
    fn link_admin_power_goes_to_a_live_endpoint() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone());
        let link = LinkName::between("tor-1-1", "agg-1-1");
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::link_named("dc1", link.clone()),
                    Attribute::LinkAdminPower,
                    Value::power(false),
                    clock.now(),
                )],
            })
            .unwrap();
        let r = u.run_round().unwrap();
        assert_eq!(r.commands_applied, 1);
        net.step(SimDuration::from_secs(1));
        assert!(!net.link_oper_up(&link));
        assert_eq!(
            net.link_snapshot(&link).unwrap().admin_power,
            PowerStatus::Off
        );
    }

    #[test]
    fn path_rows_translate_into_device_routes() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone());
        let path = EntityName::path("dc1", "flow:t11>t12");
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![
                    ts_row(
                        path.clone(),
                        Attribute::PathSwitches,
                        Value::DeviceList(vec![
                            DeviceName::new("tor-1-1"),
                            DeviceName::new("agg-1-1"),
                            DeviceName::new("tor-1-2"),
                        ]),
                        clock.now(),
                    ),
                    ts_row(
                        path,
                        Attribute::PathTrafficAllocation,
                        Value::Float(500.0),
                        clock.now(),
                    ),
                ],
            })
            .unwrap();
        let r = u.run_round().unwrap();
        assert_eq!(r.diffs, 2, "two on-path devices need rules");
        assert_eq!(r.commands_applied, 2);
        net.step(SimDuration::from_secs(1));
        let tor = net.device_snapshot(&DeviceName::new("tor-1-1")).unwrap();
        assert_eq!(tor.routing_rules.len(), 1);
        assert_eq!(tor.routing_rules[0].flow, "flow:t11>t12");

        // Idempotence: after the OS reflects the rules, no more diffs.
        seed_os(&net, &storage, &graph);
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.diffs, 0, "routing diff must be idempotent");
    }

    #[test]
    fn unrenderable_rows_are_counted_not_fatal() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone())
            .with_pool(CommandTemplatePool::empty());
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                    clock.now(),
                )],
            })
            .unwrap();
        let r = u.run_round().unwrap();
        assert_eq!(r.unrenderable, 1);
        assert_eq!(r.commands_applied, 0);
    }

    #[test]
    fn scoped_instances_partition_the_work() {
        // §6.2: "one instance per state variable per switch model".
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![
                    ts_row(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    ),
                    ts_row(
                        EntityName::device("dc1", "agg-1-2"),
                        Attribute::DeviceBootImage,
                        Value::text("img-x"),
                        clock.now(),
                    ),
                ],
            })
            .unwrap();

        // A firmware-only instance acts on exactly the firmware diff.
        let fw_instance = Updater::new(net.clone(), storage.clone(), graph.clone()).with_scope(
            UpdaterScope::specialized(
                DeviceModel::OpenFlowSwitch,
                Attribute::DeviceFirmwareVersion,
            ),
        );
        let r = fw_instance.run_round().unwrap();
        assert_eq!(r.diffs, 1);

        // A boot-image instance acts on the other diff.
        let img_instance = Updater::new(net.clone(), storage.clone(), graph.clone()).with_scope(
            UpdaterScope::specialized(DeviceModel::OpenFlowSwitch, Attribute::DeviceBootImage),
        );
        let r = img_instance.run_round().unwrap();
        assert_eq!(r.diffs, 1);

        // A BGP-model instance has nothing to do on this fabric.
        let bgp_instance = Updater::new(net.clone(), storage, graph).with_scope(UpdaterScope {
            model: Some(DeviceModel::BgpRouter),
            attributes: vec![],
        });
        let r = bgp_instance.run_round().unwrap();
        assert_eq!(r.diffs, 0);

        // Together the scoped instances realized both changes.
        net.step(SimDuration::from_secs(1));
        assert!(net
            .device_snapshot(&DeviceName::new("agg-1-1"))
            .unwrap()
            .upgrading
            .is_some());
        assert_eq!(
            net.device_snapshot(&DeviceName::new("agg-1-2"))
                .unwrap()
                .boot_image,
            "img-x"
        );
    }

    /// A world where agg-1-1 is mid-reboot (management plane dead) for
    /// `reboot_ms`, with a pending boot-image TS diff on it.
    fn stuck_device_world(reboot_ms: u64) -> (SimNetwork, StorageService, NetworkGraph, SimClock) {
        let clock = SimClock::new();
        let graph = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.command_latency_ms = 100;
        cfg.faults.reboot_window_ms = reboot_ms;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        seed_os(&net, &storage, &graph);
        net.submit(
            &DeviceName::new("agg-1-1"),
            statesman_net::DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        // Step past the command latency so the reboot window begins.
        net.step(SimDuration::from_millis(200));
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceBootImage,
                    Value::text("img-gold"),
                    clock.now(),
                )],
            })
            .unwrap();
        (net, storage, graph, clock)
    }

    #[test]
    fn circuit_breaker_opens_after_k_failures_and_recovers_half_open() {
        let (net, storage, graph, _clock) = stuck_device_world(30 * 60_000);
        let u = Updater::new(net.clone(), storage, graph)
            .with_circuit_breaker(2, SimDuration::from_mins(5));

        // Two consecutive failures trip the breaker.
        let r1 = u.run_round().unwrap();
        assert_eq!(r1.commands_failed, 1);
        assert_eq!(r1.breakers_opened, 0);
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.commands_failed, 1);
        assert_eq!(r2.breakers_opened, 1);

        // While open: the diff is still seen (stateless rediff) but no
        // command is issued — the round is bounded, costing zero device
        // interaction time on the dead device.
        let r3 = u.run_round().unwrap();
        assert_eq!(r3.diffs, 1);
        assert_eq!(r3.breaker_skips, 1);
        assert_eq!(r3.commands_failed, 0);
        assert_eq!(r3.modeled_io, SimDuration::ZERO);

        // After the reboot and the cooldown, the half-open probe goes
        // through, succeeds, and closes the breaker.
        net.step(SimDuration::from_mins(31));
        let r4 = u.run_round().unwrap();
        assert_eq!(r4.commands_applied, 1);
        assert_eq!(r4.breaker_skips, 0);
    }

    #[test]
    fn failed_half_open_probe_reopens_the_breaker() {
        let (net, storage, graph, _clock) = stuck_device_world(60 * 60_000);
        let u = Updater::new(net.clone(), storage, graph)
            .with_circuit_breaker(1, SimDuration::from_mins(5));
        let r1 = u.run_round().unwrap();
        assert_eq!(r1.breakers_opened, 1);
        // Cooldown expires but the device is still dead: the probe fails
        // and the breaker re-opens for another cooldown.
        net.step(SimDuration::from_mins(6));
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.commands_failed, 1);
        assert_eq!(r2.breakers_opened, 1);
        let r3 = u.run_round().unwrap();
        assert_eq!(r3.breaker_skips, 1);
    }

    #[test]
    fn bounded_retry_rides_out_a_short_outage() {
        let (net, storage, graph, clock) = stuck_device_world(1_000);
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: SimDuration::from_secs(2),
            max_backoff: SimDuration::from_secs(2),
            jitter_frac: 0.0,
        };
        let bound = policy.worst_case_total_backoff();
        let u = Updater::new(net.clone(), storage, graph).with_retry(policy);
        let before = clock.now();
        let r = u.run_round().unwrap();
        // Attempt 1 hits the rebooting device; the backoff steps the sim
        // past the 1 s reboot; attempt 2 lands.
        assert_eq!(r.retries, 1);
        assert_eq!(r.commands_applied, 1);
        assert_eq!(r.commands_failed, 0);
        let backed_off = clock.now().saturating_since(before);
        assert!(backed_off <= bound, "{backed_off} > bound {bound}");
    }

    #[test]
    fn quarantined_devices_get_no_commands() {
        // A device in the exclusion set must see zero interaction: its
        // diff is observed (stateless rediff) but no command is rendered
        // or sent, so a recovering device is not knocked over again by an
        // upgrade issued against stale OS.
        let (net, storage, graph, _clock) = stuck_device_world(1_000);
        let u = Updater::new(net.clone(), storage, graph);
        let skip: BTreeSet<DeviceName> = [DeviceName::new("agg-1-1")].into_iter().collect();
        let r = u.run_round_excluding(&skip).unwrap();
        assert_eq!(r.diffs, 1);
        assert_eq!(r.quarantine_skips, 1);
        assert_eq!(r.commands_applied, 0);
        assert_eq!(r.commands_failed, 0);
        assert_eq!(r.modeled_io, SimDuration::ZERO);

        // An empty exclusion set behaves exactly like run_round.
        net.step(SimDuration::from_secs(5));
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.quarantine_skips, 0);
        assert_eq!(r2.commands_applied, 1);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        // An empty template pool makes the diff unrenderable — a fatal,
        // not retryable, condition: no retry budget may be spent on it.
        let (net, storage, graph, _clock) = stuck_device_world(1_000);
        let u = Updater::new(net.clone(), storage, graph)
            .with_pool(CommandTemplatePool::empty())
            .with_retry(RetryPolicy::default());
        let r = u.run_round().unwrap();
        assert_eq!(r.unrenderable, 1);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn delta_rounds_match_full_read_rounds() {
        // Identical worlds, one updater carrying its mirrors from round
        // to round and one world building a fresh updater, with cold
        // mirrors, every round: every round's observable outcome must
        // match, including across a quarantine round (which reads like
        // any other round and only withholds the command) and a TS
        // delete.
        let run = |fresh: bool| {
            let (net, storage, graph, clock) = setup();
            seed_os(&net, &storage, &graph);
            let long_lived = Updater::new(net.clone(), storage.clone(), graph.clone());
            let round = |skip: &BTreeSet<DeviceName>| {
                let rebuilt;
                let u = if fresh {
                    rebuilt = Updater::new(net.clone(), storage.clone(), graph.clone());
                    &rebuilt
                } else {
                    &long_lived
                };
                let r = u.run_round_excluding(skip).unwrap();
                (r.diffs, r.commands_applied, r.quarantine_skips)
            };
            let none = BTreeSet::new();
            let mut outcomes = Vec::new();
            storage
                .write(WriteRequest {
                    pool: Pool::Target,
                    rows: vec![ts_row(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    )],
                })
                .unwrap();
            outcomes.push(round(&none));
            net.step(SimDuration::from_secs(100));
            seed_os(&net, &storage, &graph);
            // Quarantine round with a second pending diff: found through
            // the advanced mirror, counted, and not issued.
            storage
                .write(WriteRequest {
                    pool: Pool::Target,
                    rows: vec![ts_row(
                        EntityName::device("dc1", "agg-1-2"),
                        Attribute::DeviceBootImage,
                        Value::text("img-x"),
                        clock.now(),
                    )],
                })
                .unwrap();
            let skip: BTreeSet<DeviceName> = [DeviceName::new("agg-1-2")].into_iter().collect();
            outcomes.push(round(&skip));
            // TS row deleted: the diff must vanish through the mirror too.
            storage
                .delete(
                    Pool::Target,
                    vec![statesman_types::StateKey::new(
                        EntityName::device("dc1", "agg-1-2"),
                        Attribute::DeviceBootImage,
                    )],
                )
                .unwrap();
            outcomes.push(round(&none));
            outcomes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn plan_round_reports_waves_and_width() {
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        let u = Updater::new(net.clone(), storage.clone(), graph.clone());
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![
                    ts_row(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    ),
                    ts_row(
                        EntityName::device("dc1", "agg-2-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    ),
                ],
            })
            .unwrap();
        let r = u.run_round().unwrap();
        // Two independent devices in different pods: one wave, width 2.
        assert_eq!(r.diffs, 2);
        assert_eq!(r.plan_steps, 2);
        assert_eq!(r.plan_waves, 1);
        assert_eq!(r.plan_max_width, 2);
        assert_eq!(r.plan_inflight_rejections, 0);
        assert_eq!(r.commands_applied, 2);
    }

    #[test]
    fn inflight_budget_check_serializes_a_rolling_upgrade() {
        use crate::invariants::MaintenanceBudgetInvariant;
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        // Budget of one device down at a time: the second pending
        // firmware transition must be deferred in flight, not issued.
        let u = Updater::new(net.clone(), storage.clone(), graph.clone())
            .with_plan_invariants(vec![Box::new(MaintenanceBudgetInvariant::new("dc1", 1))]);
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![
                    ts_row(
                        EntityName::device("dc1", "agg-1-1"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    ),
                    ts_row(
                        EntityName::device("dc1", "agg-1-2"),
                        Attribute::DeviceFirmwareVersion,
                        Value::text("7.0"),
                        clock.now(),
                    ),
                ],
            })
            .unwrap();
        let r1 = u.run_round().unwrap();
        assert_eq!(r1.diffs, 2);
        assert_eq!(r1.commands_applied, 1);
        assert_eq!(r1.plan_inflight_rejections, 1);

        // Once the first upgrade lands and the OS reflects it, the
        // deferred step passes its in-flight check and commits.
        net.step(SimDuration::from_secs(100));
        seed_os(&net, &storage, &graph);
        let r2 = u.run_round().unwrap();
        assert_eq!(r2.diffs, 1);
        assert_eq!(r2.commands_applied, 1);
        assert_eq!(r2.plan_inflight_rejections, 0);

        net.step(SimDuration::from_secs(100));
        seed_os(&net, &storage, &graph);
        let r3 = u.run_round().unwrap();
        assert_eq!(r3.diffs, 0);
    }

    #[test]
    fn a_quarantined_step_is_skipped_without_a_check() {
        use crate::invariants::TorPairCapacityInvariant;
        let (net, storage, graph, clock) = setup();
        seed_os(&net, &storage, &graph);
        // One Agg of two down leaves pod 1's pairs at 50%, under 75%: the
        // step's projection violates.
        let capacity = TorPairCapacityInvariant::new(&graph, "dc1", 0.75, 0.99, Some(1));
        let u = Updater::new(net.clone(), storage.clone(), graph.clone())
            .with_plan_invariants(vec![Box::new(capacity.sharing_panel())]);
        storage
            .write(WriteRequest {
                pool: Pool::Target,
                rows: vec![ts_row(
                    EntityName::device("dc1", "agg-1-1"),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                    clock.now(),
                )],
            })
            .unwrap();
        let solves = capacity.solves();
        let skip: BTreeSet<DeviceName> = [DeviceName::new("agg-1-1")].into_iter().collect();
        let r = u.run_round_excluding(&skip).unwrap();
        assert_eq!(r.plan_steps, 1);
        assert_eq!(r.quarantine_skips, 1);
        assert_eq!(r.plan_inflight_rejections, 0);
        assert_eq!(
            capacity.solves(),
            solves,
            "a quarantined step is not checked"
        );
        // Out of quarantine, the same step is checked and deferred.
        let r = u.run_round().unwrap();
        assert_eq!(r.quarantine_skips, 0);
        assert_eq!(r.plan_inflight_rejections, 1);
        assert_eq!(r.commands_applied, 0);
        assert!(capacity.solves() > solves);
    }

    #[test]
    fn inflight_capacity_checks_do_not_depend_on_the_updaters_history() {
        // §6.2: an updater keeps no state the store does not. Pod 3 loses
        // three Aggs out of band between two rounds; the second round's
        // step in pod 7 must be decided as a fresh updater decides it —
        // deferred, since pod 3's 18 pairs fall under 50% and 80% of 90
        // is short of 90% — not against what the first round last saw.
        use crate::invariants::TorPairCapacityInvariant;
        let clock = SimClock::new();
        let graph = DcnSpec::fig7("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 60_000;
        let net = SimNetwork::new(&graph, clock.clone(), cfg);
        let storage = StorageService::single_dc("dc1", clock.clone());
        seed_os(&net, &storage, &graph);
        let updater = || {
            let capacity = TorPairCapacityInvariant::new(&graph, "dc1", 0.5, 0.9, Some(1));
            Updater::new(net.clone(), storage.clone(), graph.clone())
                .with_plan_invariants(vec![Box::new(capacity)])
        };
        let upgrade = |agg: &str| {
            let attr = Attribute::DeviceFirmwareVersion;
            let row = ts_row(
                EntityName::device("dc1", agg),
                attr,
                Value::text("7.0"),
                clock.now(),
            );
            let pool = Pool::Target;
            storage
                .write(WriteRequest {
                    pool,
                    rows: vec![row],
                })
                .unwrap();
        };
        let long_lived = updater();
        upgrade("agg-5-1");
        let r1 = long_lived.run_round().unwrap();
        assert_eq!((r1.commands_applied, r1.plan_inflight_rejections), (1, 0));

        for a in 1..=3 {
            let agg = DeviceName::new(format!("agg-3-{a}"));
            assert!(net
                .submit(&agg, DeviceCommand::SetAdminPower(PowerStatus::Off))
                .is_applied());
        }
        net.step(SimDuration::from_secs(100));
        seed_os(&net, &storage, &graph);
        upgrade("agg-7-1");
        // The fresh updater goes first: a deferral issues nothing, so both
        // see the same network.
        let outcome = |r: UpdaterReport| (r.commands_applied, r.plan_inflight_rejections);
        let fresh = outcome(updater().run_round().unwrap());
        assert_eq!(fresh, (0, 1), "the agg-7-1 step is deferred");
        assert_eq!(outcome(long_lived.run_round().unwrap()), fresh);
    }

    #[test]
    fn standard_pool_covers_both_models() {
        let pool = CommandTemplatePool::standard();
        assert!(pool.len() >= 18); // 9 attrs × 2 models
        assert!(!pool.is_empty());
    }

    #[test]
    fn normalize_rules_orders_and_dedups() {
        let l1 = LinkName::between("a", "b");
        let l2 = LinkName::between("a", "c");
        let mut rules = vec![
            FlowLinkRule::new("f2", l2.clone(), 1.0),
            FlowLinkRule::new("f1", l1.clone(), 1.0),
            FlowLinkRule::new("f1", l1.clone(), 1.0),
        ];
        normalize_rules(&mut rules);
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].flow, "f1");
    }
}
