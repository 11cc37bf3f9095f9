//! The discrete-time network simulator.
//!
//! [`SimNetwork`] owns every simulated device and link, the shared clock,
//! the fault plan, and the offered traffic. Components interact with it
//! the way Statesman interacts with a production network:
//!
//! * the **monitor** polls state through the protocol adapters
//!   ([`crate::protocol`]), which read the simulator;
//! * the **updater** submits [`DeviceCommand`]s, which are accepted or
//!   rejected per the fault plan and take effect after simulated latency
//!   (plus a reboot window for firmware upgrades);
//! * the **scenario driver** advances time with [`SimNetwork::step_to`],
//!   which fires scheduled faults, lands pending command effects, settles
//!   upgrades, walks utilization counters, and re-routes offered traffic
//!   through the installed routing tables.
//!
//! All mutation happens behind one mutex so adapters can be handed to
//! multi-threaded components (the HTTP examples) without extra plumbing;
//! scenario determinism comes from the seeded RNG plus single-driver
//! stepping.
//!
//! The simulator is indexed like the graph it is built from: devices by
//! [`NodeId`], links by [`EdgeId`], and each link knows its endpoints'
//! ids, so nothing inside a step or a by-id read hashes a name. Names
//! resolve to ids once, where they come in: commands, faults, flows,
//! [`SimNetwork::set_device_model`] and the name-keyed accessors.

use crate::clock::SimClock;
use crate::command::{CommandOutcome, DeviceCommand, DeviceModel};
use crate::device::SimDevice;
use crate::fault::{FaultEvent, FaultPlan, ScheduledFault};
use crate::link::SimLink;
use crate::traffic::{route_flows, FlowSpec, ForwardingEnv, TrafficReport};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use statesman_obs::{Counter, Registry};
use statesman_topology::{EdgeId, NetworkGraph, NodeId};
use statesman_types::{DeviceName, DeviceRole, LinkName, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Simulator construction knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (drives latency jitter, stochastic failures, counter
    /// walks).
    pub seed: u64,
    /// The fault plan.
    pub faults: FaultPlan,
    /// Initial firmware version installed on every device.
    pub initial_firmware: String,
    /// Start with every device admin-powered off and every link
    /// admin-down — the "bring up a large DCN from scratch" state the
    /// Fig-4 dependency model is designed around (§4.1). Devices keep
    /// their factory firmware and management config, so they become
    /// manageable the moment power arrives.
    pub start_powered_off: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            faults: FaultPlan::default(),
            initial_firmware: "6.0.3".to_string(),
            start_powered_off: false,
        }
    }
}

impl SimConfig {
    /// Deterministic, fault-free, zero-latency config for logic tests.
    pub fn ideal() -> Self {
        SimConfig {
            seed: 7,
            faults: FaultPlan::ideal(),
            initial_firmware: "6.0.3".to_string(),
            start_powered_off: false,
        }
    }
}

/// A pending command effect.
#[derive(Debug, Clone)]
struct PendingEffect {
    effective_at: SimTime,
    device: NodeId,
    command: DeviceCommand,
    /// Monotonic sequence for stable ordering among same-instant effects.
    seq: u64,
}

/// Cached metric handles for the simulator (created once at
/// [`SimNetwork::attach_obs`]).
#[derive(Clone)]
struct NetObs {
    commands_accepted: Counter,
    commands_failed: Counter,
    faults_fired: Counter,
    link_flaps: Counter,
}

impl NetObs {
    fn new(registry: &Registry) -> Self {
        NetObs {
            commands_accepted: registry.counter("net_commands_accepted_total"),
            commands_failed: registry.counter("net_commands_failed_total"),
            faults_fired: registry.counter("net_faults_fired_total"),
            link_flaps: registry.counter("net_link_flaps_total"),
        }
    }
}

/// Inner mutable simulator state: devices by [`NodeId`], links by
/// [`EdgeId`], as in the graph the simulator was built from.
struct SimState {
    devices: Vec<SimDevice>,
    links: Vec<SimLink>,
    pending: Vec<PendingEffect>,
    scheduled_faults: Vec<ScheduledFault>,
    flows: Vec<FlowSpec>,
    last_traffic: TrafficReport,
    rng: StdRng,
    faults: FaultPlan,
    next_seq: u64,
    /// Running count of commands the simulator accepted (observability).
    commands_accepted: u64,
    /// Running count of commands rejected or timed out.
    commands_failed: u64,
    /// Shared-registry handles, if a registry was attached.
    obs: Option<NetObs>,
}

impl SimState {
    fn device(&self, id: NodeId) -> &SimDevice {
        &self.devices[id.0 as usize]
    }

    fn link(&self, id: EdgeId) -> &SimLink {
        &self.links[id.0 as usize]
    }

    fn device_named(&mut self, index: &Index, name: &DeviceName) -> Option<&mut SimDevice> {
        let id = index.device(name)?;
        Some(&mut self.devices[id.0 as usize])
    }

    fn link_named(&mut self, index: &Index, name: &LinkName) -> Option<&mut SimLink> {
        let id = index.link(name)?;
        Some(&mut self.links[id.0 as usize])
    }

    /// Whether link `id` is oper-up at `now`: its own state and both
    /// endpoints operational.
    fn link_oper_up(&self, index: &Index, id: EdgeId, now: SimTime) -> bool {
        let [a, b] = index.ends[id.0 as usize];
        let up = |d: NodeId| self.device(d).is_operational(now);
        self.link(id).oper_up(now, up(a), up(b))
    }

    fn note_command_accepted(&mut self) {
        self.commands_accepted += 1;
        if let Some(o) = &self.obs {
            o.commands_accepted.inc();
        }
    }

    fn note_command_failed(&mut self) {
        self.commands_failed += 1;
        if let Some(o) = &self.obs {
            o.commands_failed.inc();
        }
    }
}

/// What never changes after [`SimNetwork::new`]: where a name resolves,
/// each link's endpoints, and the name order `step_to` draws its RNG in.
struct Index {
    devices: HashMap<DeviceName, NodeId>,
    links: HashMap<LinkName, EdgeId>,
    /// Each link's endpoints, [`LinkName::a`] then [`LinkName::b`] (not
    /// the edge's own endpoint order).
    ends: Vec<[NodeId; 2]>,
    /// Device ids in name order.
    devices_sorted: Vec<NodeId>,
    /// Link ids in name order.
    links_sorted: Vec<EdgeId>,
}

impl Index {
    fn device(&self, name: &DeviceName) -> Option<NodeId> {
        self.devices.get(name).copied()
    }

    fn link(&self, name: &LinkName) -> Option<EdgeId> {
        self.links.get(name).copied()
    }
}

/// Cloneable handle to the simulated network.
#[derive(Clone)]
pub struct SimNetwork {
    state: Arc<Mutex<SimState>>,
    index: Arc<Index>,
    clock: SimClock,
}

impl SimNetwork {
    /// Build a simulator over a topology. Border routers are BGP models;
    /// everything else is an OpenFlow switch (override per device with
    /// [`SimNetwork::set_device_model`] before the scenario starts).
    pub fn new(graph: &NetworkGraph, clock: SimClock, config: SimConfig) -> Self {
        let devices: Vec<SimDevice> = (graph.nodes())
            .map(|(_, n)| {
                let model = match n.role {
                    DeviceRole::Border => DeviceModel::BgpRouter,
                    _ => DeviceModel::OpenFlowSwitch,
                };
                let mut dev = SimDevice::healthy(n.name.clone(), model, &config.initial_firmware);
                if config.start_powered_off {
                    dev.admin_power = statesman_types::PowerStatus::Off;
                }
                dev
            })
            .collect();
        let links: Vec<SimLink> = (graph.edges())
            .map(|(_, e)| {
                let mut link = SimLink::healthy(e.name.clone(), e.capacity_mbps);
                if config.start_powered_off {
                    link.admin_power = statesman_types::PowerStatus::Off;
                }
                link
            })
            .collect();
        let mut scheduled = config.faults.scheduled.clone();
        scheduled.sort_by_key(|f| f.at);
        let node = |name: &DeviceName| graph.node_id(name).expect("a link's endpoint is a node");
        let mut index = Index {
            devices: (graph.nodes())
                .map(|(id, n)| (n.name.clone(), id))
                .collect(),
            links: (graph.edges())
                .map(|(id, e)| (e.name.clone(), id))
                .collect(),
            ends: (graph.edges())
                .map(|(_, e)| [node(&e.name.a), node(&e.name.b)])
                .collect(),
            devices_sorted: graph.nodes().map(|(id, _)| id).collect(),
            links_sorted: graph.edges().map(|(id, _)| id).collect(),
        };
        index
            .devices_sorted
            .sort_unstable_by(|&x, &y| graph.node(x).name.cmp(&graph.node(y).name));
        index
            .links_sorted
            .sort_unstable_by(|&x, &y| graph.edge(x).name.cmp(&graph.edge(y).name));
        SimNetwork {
            state: Arc::new(Mutex::new(SimState {
                devices,
                links,
                pending: Vec::new(),
                scheduled_faults: scheduled,
                flows: Vec::new(),
                last_traffic: TrafficReport::default(),
                rng: StdRng::seed_from_u64(config.seed),
                faults: config.faults,
                next_seq: 0,
                commands_accepted: 0,
                commands_failed: 0,
                obs: None,
            })),
            index: Arc::new(index),
            clock,
        }
    }

    /// The shared clock handle.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Mirror command/fault counters into a shared metrics registry.
    /// All clones of this network report into it; attaching again
    /// replaces the previous registry.
    pub fn attach_obs(&self, registry: &Registry) {
        self.state.lock().obs = Some(NetObs::new(registry));
    }

    /// Override a device's hardware model (call before the scenario runs).
    pub fn set_device_model(&self, device: &DeviceName, model: DeviceModel) {
        if let Some(d) = self.state.lock().device_named(&self.index, device) {
            d.model = model;
        }
    }

    /// Replace the offered traffic matrix. Loads are recomputed on the
    /// next [`SimNetwork::step_to`].
    pub fn offer_flows(&self, flows: Vec<FlowSpec>) {
        self.state.lock().flows = flows;
    }

    /// Submit a management command to a device. Returns immediately with
    /// the outcome; accepted effects land at `effective_at`.
    pub fn submit(&self, device: &DeviceName, command: DeviceCommand) -> CommandOutcome {
        let now = self.clock.now();
        let mut s = self.state.lock();

        // Stochastic failure surface (applies to all commands).
        let timeout_p = s.faults.command_timeout_prob;
        let failure_p = s.faults.command_failure_prob;
        if timeout_p > 0.0 && s.rng.gen::<f64>() < timeout_p {
            s.note_command_failed();
            return CommandOutcome::TimedOut;
        }
        if failure_p > 0.0 && s.rng.gen::<f64>() < failure_p {
            s.note_command_failed();
            return CommandOutcome::Rejected {
                code: "E-DEVICE-INTERNAL".to_string(),
            };
        }

        let Some(id) = self.index.device(device) else {
            s.note_command_failed();
            return CommandOutcome::Rejected {
                code: "E-NO-SUCH-DEVICE".to_string(),
            };
        };
        let dev = s.device(id);

        // Reachability gates (the dependency model made physical).
        if command.is_out_of_band() {
            if !dev.power_unit_reachable {
                s.note_command_failed();
                return CommandOutcome::Rejected {
                    code: "E-PDU-UNREACHABLE".to_string(),
                };
            }
        } else if command.is_routing() {
            if !dev.routing_controllable(now) {
                s.note_command_failed();
                return CommandOutcome::Rejected {
                    code: "E-CONTROL-PLANE-DOWN".to_string(),
                };
            }
        } else if !dev.mgmt_reachable(now) {
            s.note_command_failed();
            return CommandOutcome::TimedOut;
        }

        // Latency model.
        let jitter = if s.faults.command_jitter_ms > 0 {
            let j = s.faults.command_jitter_ms;
            s.rng.gen_range(0..=j)
        } else {
            0
        };
        let effective_at = now + SimDuration::from_millis(s.faults.command_latency_ms + jitter);
        let seq = s.next_seq;
        s.next_seq += 1;
        s.pending.push(PendingEffect {
            effective_at,
            device: id,
            command,
            seq,
        });
        s.note_command_accepted();
        CommandOutcome::Applied { effective_at }
    }

    /// Advance the simulation to `target`: fire scheduled faults and
    /// pending effects in timestamp order, settle upgrades, walk counters,
    /// recompute traffic, and move the shared clock.
    pub fn step_to(&self, target: SimTime) {
        {
            let prev_now = self.clock.now();
            let mut s = self.state.lock();

            // Interleave faults and effects by time. Simplicity over
            // generality: apply all faults due, then all effects due, in
            // their own time orders — events in one tick are commutative in
            // our scenarios (ticks are minutes; effects are seconds apart).
            let due_faults: Vec<ScheduledFault> = {
                let (due, rest): (Vec<_>, Vec<_>) =
                    s.scheduled_faults.drain(..).partition(|f| f.at <= target);
                s.scheduled_faults = rest;
                due
            };
            for f in due_faults {
                apply_fault(&mut s, &self.index, f.at, &f.event);
            }

            let mut due_effects: Vec<PendingEffect> = {
                let (due, rest): (Vec<_>, Vec<_>) =
                    s.pending.drain(..).partition(|e| e.effective_at <= target);
                s.pending = rest;
                due
            };
            due_effects.sort_by_key(|e| (e.effective_at, e.seq));
            let reboot = SimDuration::from_millis(s.faults.reboot_window_ms);
            for e in due_effects {
                apply_effect(&mut s, &self.index, &e, reboot);
            }

            // Settle any upgrades whose reboot window has elapsed, and
            // crash-reboots whose downtime has passed.
            for dev in &mut s.devices {
                dev.settle_upgrade(target);
                dev.settle_crash(target);
            }

            // Probabilistic link flapping: each stable link may start a
            // flap this step, with the per-minute probability scaled to
            // the simulated time elapsed. Links are drawn in sorted order
            // from the seeded RNG, so identical seeds and step sequences
            // flap identically.
            let flap_p = s.faults.link_flap_prob_per_min;
            if flap_p > 0.0 {
                let elapsed = target.saturating_since(prev_now);
                let mins = elapsed.as_millis() as f64 / 60_000.0;
                let p_step = 1.0 - (1.0 - flap_p).powf(mins);
                if p_step > 0.0 {
                    let flap_len = SimDuration::from_millis(s.faults.link_flap_duration_ms);
                    let mut flaps_started = 0u64;
                    for id in &self.index.links_sorted {
                        let roll: f64 = s.rng.gen();
                        if roll < p_step {
                            let l = &mut s.links[id.0 as usize];
                            if !l.flapping(target) {
                                l.flapping_until = Some(target + flap_len);
                                flaps_started += 1;
                            }
                        }
                    }
                    if flaps_started > 0 {
                        if let Some(o) = &s.obs {
                            o.link_flaps.add(flaps_started);
                        }
                    }
                }
            }

            // Counter random walk (CPU/memory wander within [0.02, 0.98]),
            // one (cpu, mem) draw per device in name order.
            for id in &self.index.devices_sorted {
                let (dc, dm): (f64, f64) =
                    (s.rng.gen_range(-0.02..0.02), s.rng.gen_range(-0.01..0.01));
                let d = &mut s.devices[id.0 as usize];
                d.cpu_util = (d.cpu_util + dc).clamp(0.02, 0.98);
                d.mem_util = (d.mem_util + dm).clamp(0.02, 0.98);
            }

            recompute_traffic(&mut s, &self.index, target);
        }
        self.clock.advance_to(target);
    }

    /// Advance by a duration (convenience over [`SimNetwork::step_to`]).
    pub fn step(&self, d: SimDuration) {
        let target = self.clock.now() + d;
        self.step_to(target);
    }

    /// Snapshot one device's state (for tests and scenario drivers; the
    /// protocol adapters read in place with [`SimNetwork::with_device`]).
    pub fn device_snapshot(&self, name: &DeviceName) -> Option<SimDevice> {
        let id = self.index.device(name)?;
        Some(self.state.lock().device(id).clone())
    }

    /// Snapshot one link's state.
    pub fn link_snapshot(&self, name: &LinkName) -> Option<SimLink> {
        let id = self.index.link(name)?;
        Some(self.state.lock().link(id).clone())
    }

    /// The id a device is held under (its [`NodeId`] in the graph the
    /// simulator was built from); `None` for an unknown name.
    pub fn device_id(&self, name: &DeviceName) -> Option<NodeId> {
        self.index.device(name)
    }

    /// The id a link is held under (its [`EdgeId`] in the graph the
    /// simulator was built from); `None` for an unknown name.
    pub fn link_id(&self, name: &LinkName) -> Option<EdgeId> {
        self.index.link(name)
    }

    /// Read one device in place, under one lock, with the clock instant
    /// the read belongs to; `None` when no such device exists.
    pub fn with_device<R>(
        &self,
        name: &DeviceName,
        read: impl FnOnce(&SimDevice, SimTime) -> R,
    ) -> Option<R> {
        let id = self.index.device(name)?;
        let now = self.clock.now();
        Some(read(self.state.lock().device(id), now))
    }

    /// Read one link in place, under one lock, together with whether each
    /// endpoint's management plane answers (`a`, then `b`; false for an
    /// unknown endpoint) and whether the link is oper-up, all at one
    /// instant; `None` when no such link exists.
    pub fn with_link<R>(
        &self,
        name: &LinkName,
        read: impl FnOnce(&SimLink, bool, bool, bool) -> R,
    ) -> Option<R> {
        let id = self.index.link(name)?;
        let now = self.clock.now();
        let s = self.state.lock();
        Some(read_link(&s, &self.index, id, now, read))
    }

    /// Read a block of devices by id, in place and under one lock, at the
    /// clock instant the block belongs to. `read` gets each item's key
    /// and its device, or `None` for an id the simulator does not hold.
    pub fn with_device_block<K>(
        &self,
        block: impl IntoIterator<Item = (K, Option<NodeId>)>,
        mut read: impl FnMut(K, Option<&SimDevice>, SimTime),
    ) {
        let now = self.clock.now();
        let s = self.state.lock();
        for (key, id) in block {
            read(key, id.and_then(|id| s.devices.get(id.0 as usize)), now);
        }
    }

    /// Read a block of links by id, in place and under one lock, each as
    /// [`SimNetwork::with_link`] reads one: `read` gets each item's key
    /// and the link with its endpoints' reachability and its oper status,
    /// or `None` for an id the simulator does not hold.
    pub fn with_link_block<K>(
        &self,
        block: impl IntoIterator<Item = (K, Option<EdgeId>)>,
        mut read: impl FnMut(K, Option<(&SimLink, bool, bool, bool)>),
    ) {
        let now = self.clock.now();
        let s = self.state.lock();
        for (key, id) in block {
            match id.filter(|id| (id.0 as usize) < s.links.len()) {
                Some(id) => read_link(&s, &self.index, id, now, |l, a, b, up| {
                    read(key, Some((l, a, b, up)))
                }),
                None => read(key, None),
            }
        }
    }

    /// All device names, sorted (stable iteration for the monitor).
    pub fn device_names(&self) -> Vec<DeviceName> {
        let s = self.state.lock();
        let names = self.index.devices_sorted.iter();
        names.map(|&id| s.device(id).name.clone()).collect()
    }

    /// All link names, sorted.
    pub fn link_names(&self) -> Vec<LinkName> {
        let s = self.state.lock();
        let names = self.index.links_sorted.iter();
        names.map(|&id| s.link(id).name.clone()).collect()
    }

    /// Whether a device is currently operational (forwarding traffic).
    pub fn device_operational(&self, name: &DeviceName) -> bool {
        let now = self.clock.now();
        (self.index.device(name)).is_some_and(|id| self.state.lock().device(id).is_operational(now))
    }

    /// Whether a device's management plane currently answers (the
    /// monitor's-eye view; false for crashed or mgmt-faulted devices).
    pub fn device_mgmt_reachable(&self, name: &DeviceName) -> bool {
        let now = self.clock.now();
        (self.index.device(name)).is_some_and(|id| self.state.lock().device(id).mgmt_reachable(now))
    }

    /// Whether a link is currently oper-up (including endpoint health).
    pub fn link_oper_up(&self, name: &LinkName) -> bool {
        let now = self.clock.now();
        (self.index.link(name))
            .is_some_and(|id| self.state.lock().link_oper_up(&self.index, id, now))
    }

    /// The most recent traffic routing outcome.
    pub fn traffic_report(&self) -> TrafficReport {
        self.state.lock().last_traffic.clone()
    }

    /// (accepted, failed) command counters.
    pub fn command_stats(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.commands_accepted, s.commands_failed)
    }
}

/// Read link `id` as [`SimNetwork::with_link`] does: the link, whether
/// each endpoint's management plane answers (`a`, then `b`) and whether
/// the link is oper-up, all at `now`.
fn read_link<R>(
    s: &SimState,
    index: &Index,
    id: EdgeId,
    now: SimTime,
    read: impl FnOnce(&SimLink, bool, bool, bool) -> R,
) -> R {
    let [a, b] = index.ends[id.0 as usize];
    let reachable = |d: NodeId| s.device(d).mgmt_reachable(now);
    let oper_up = s.link_oper_up(index, id, now);
    read(s.link(id), reachable(a), reachable(b), oper_up)
}

fn apply_fault(s: &mut SimState, index: &Index, at: SimTime, event: &FaultEvent) {
    if let Some(o) = &s.obs {
        o.faults_fired.inc();
    }
    match event {
        FaultEvent::SetFcsErrorRate { link, rate } => {
            if let Some(l) = s.link_named(index, link) {
                l.fcs_error_rate = *rate;
            }
        }
        FaultEvent::SetDropRate { link, rate } => {
            if let Some(l) = s.link_named(index, link) {
                l.drop_rate = *rate;
            }
        }
        FaultEvent::SetPhysicalLinkState { link, cut } => {
            if let Some(l) = s.link_named(index, link) {
                l.physically_down = *cut;
            }
        }
        FaultEvent::SetPowerUnitReachable { device, reachable } => {
            if let Some(d) = s.device_named(index, device) {
                d.power_unit_reachable = *reachable;
            }
        }
        FaultEvent::CrashOpenFlowAgent { device } => {
            if let Some(d) = s.device_named(index, device) {
                d.of_agent_running = false;
            }
        }
        FaultEvent::CrashDevice { device } => {
            if let Some(d) = s.device_named(index, device) {
                d.crash(None);
            }
        }
        FaultEvent::RestoreDevice { device } => {
            if let Some(d) = s.device_named(index, device) {
                d.restore();
            }
        }
        FaultEvent::RebootDevice { device, down_ms } => {
            if let Some(d) = s.device_named(index, device) {
                d.crash(Some(at + SimDuration::from_millis(*down_ms)));
            }
        }
        FaultEvent::SetMgmtPlaneReachable { device, reachable } => {
            if let Some(d) = s.device_named(index, device) {
                d.mgmt_plane_reachable = *reachable;
            }
        }
    }
}

fn apply_effect(s: &mut SimState, index: &Index, e: &PendingEffect, reboot: SimDuration) {
    let dev = &mut s.devices[e.device.0 as usize];
    match &e.command {
        DeviceCommand::SetAdminPower(p) => {
            dev.admin_power = *p;
            if !p.is_on() {
                // Power loss clears any in-flight upgrade.
                dev.upgrading = None;
            }
        }
        DeviceCommand::UpgradeFirmware { version } => {
            dev.upgrading = Some((version.clone(), e.effective_at + reboot));
        }
        DeviceCommand::SetBootImage { image } => {
            dev.boot_image = image.clone();
        }
        DeviceCommand::ConfigureMgmtInterface { enabled } => {
            dev.mgmt_configured = *enabled;
        }
        DeviceCommand::SetOpenFlowAgent { running } => {
            dev.of_agent_running = *running;
        }
        DeviceCommand::SetRoutingRules { rules } => {
            dev.routing_rules = rules.clone();
        }
        DeviceCommand::SetLinkWeights { weights } => {
            dev.link_weights = weights.clone();
        }
        DeviceCommand::SetLinkAdminPower { link, status } => {
            if let Some(l) = index.link(link).map(|id| &mut s.links[id.0 as usize]) {
                l.admin_power = *status;
            }
        }
        DeviceCommand::SetLinkIp { link, ip } => {
            if let Some(l) = index.link(link).map(|id| &mut s.links[id.0 as usize]) {
                l.ip_assignment = Some(ip.clone());
            }
        }
        DeviceCommand::SetLinkControlPlane { link, mode } => {
            if let Some(l) = index.link(link).map(|id| &mut s.links[id.0 as usize]) {
                l.control_plane = *mode;
            }
        }
    }
}

/// Forwarding environment over the locked state at a fixed instant.
struct EnvView<'a> {
    s: &'a SimState,
    index: &'a Index,
    now: SimTime,
}

impl EnvView<'_> {
    fn device(&self, name: &DeviceName) -> Option<&SimDevice> {
        Some(self.s.device(self.index.device(name)?))
    }
}

impl ForwardingEnv for EnvView<'_> {
    fn matching_rules(&self, device: &DeviceName, flow: &str) -> Vec<(LinkName, f64)> {
        let now = self.now;
        match self.device(device) {
            Some(d) if d.is_operational(now) => d
                .routing_rules
                .iter()
                .filter(|r| r.flow == flow)
                .map(|r| (r.out_link.clone(), r.weight))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn link_oper_up(&self, link: &LinkName) -> bool {
        (self.index.link(link)).is_some_and(|id| self.s.link_oper_up(self.index, id, self.now))
    }

    fn device_operational(&self, device: &DeviceName) -> bool {
        self.device(device)
            .is_some_and(|d| d.is_operational(self.now))
    }
}

fn recompute_traffic(s: &mut SimState, index: &Index, now: SimTime) {
    let report = route_flows(&EnvView { s, index, now }, &s.flows);
    for l in &mut s.links {
        l.clear_loads();
    }
    for ((link, from), mbps) in &report.link_loads {
        if let Some(id) = index.link(link) {
            s.links[id.0 as usize].add_load_from(from, *mbps);
        }
    }
    s.last_traffic = report;
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_topology::DcnSpec;
    use statesman_types::{FlowLinkRule, PowerStatus};

    fn sim() -> SimNetwork {
        let g = DcnSpec::tiny("dc1").build();
        SimNetwork::new(&g, SimClock::new(), SimConfig::ideal())
    }

    #[test]
    fn builds_all_entities() {
        let net = sim();
        assert_eq!(net.device_names().len(), 10); // 2*(2+2)+2
        assert_eq!(net.link_names().len(), 2 * 4 + 2 * 4);
    }

    #[test]
    fn ideal_commands_apply_immediately_on_step() {
        let net = sim();
        let dev = DeviceName::new("agg-1-1");
        let out = net.submit(
            &dev,
            DeviceCommand::SetBootImage {
                image: "img2".into(),
            },
        );
        assert!(out.is_applied());
        net.step(SimDuration::from_millis(1));
        assert_eq!(net.device_snapshot(&dev).unwrap().boot_image, "img2");
    }

    #[test]
    fn upgrade_opens_and_closes_reboot_window() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 60_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7.0".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        assert!(!net.device_operational(&dev), "rebooting");
        assert_eq!(
            net.device_snapshot(&dev).unwrap().observed_firmware(),
            "6.0.3"
        );
        net.step(SimDuration::from_secs(61));
        assert!(net.device_operational(&dev));
        assert_eq!(
            net.device_snapshot(&dev).unwrap().observed_firmware(),
            "7.0"
        );
    }

    #[test]
    fn reboot_takes_links_oper_down() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 60_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        let link = LinkName::between("tor-1-1", "agg-1-1");
        assert!(net.link_oper_up(&link));
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7.0".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        assert!(!net.link_oper_up(&link));
    }

    #[test]
    fn mgmt_commands_time_out_while_rebooting() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7.0".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let out = net.submit(&dev, DeviceCommand::SetBootImage { image: "x".into() });
        assert_eq!(out, CommandOutcome::TimedOut);
        // ...but out-of-band power commands still work.
        let out = net.submit(&dev, DeviceCommand::SetAdminPower(PowerStatus::Off));
        assert!(out.is_applied());
    }

    #[test]
    fn routing_commands_need_control_plane() {
        let net = sim();
        let dev = DeviceName::new("agg-1-1");
        // Crash the OpenFlow agent via command, then routing is rejected.
        net.submit(&dev, DeviceCommand::SetOpenFlowAgent { running: false });
        net.step(SimDuration::from_millis(1));
        let out = net.submit(&dev, DeviceCommand::SetRoutingRules { rules: vec![] });
        assert_eq!(
            out,
            CommandOutcome::Rejected {
                code: "E-CONTROL-PLANE-DOWN".into()
            }
        );
    }

    #[test]
    fn scheduled_fault_fires_on_step() {
        let g = DcnSpec::tiny("dc1").build();
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = FaultPlan::ideal().with_event(
            SimTime::from_mins(5),
            FaultEvent::SetFcsErrorRate {
                link: link.clone(),
                rate: 0.05,
            },
        );
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        net.step_to(SimTime::from_mins(4));
        assert_eq!(net.link_snapshot(&link).unwrap().fcs_error_rate, 0.0);
        net.step_to(SimTime::from_mins(5));
        assert_eq!(net.link_snapshot(&link).unwrap().fcs_error_rate, 0.05);
    }

    #[test]
    fn traffic_flows_through_installed_rules() {
        let net = sim();
        let tor1 = DeviceName::new("tor-1-1");
        let agg = DeviceName::new("agg-1-1");
        let _tor2 = DeviceName::new("tor-1-2");
        let l1 = LinkName::between("tor-1-1", "agg-1-1");
        let l2 = LinkName::between("agg-1-1", "tor-1-2");
        net.submit(
            &tor1,
            DeviceCommand::SetRoutingRules {
                rules: vec![FlowLinkRule::new("f", l1.clone(), 1.0)],
            },
        );
        net.submit(
            &agg,
            DeviceCommand::SetRoutingRules {
                rules: vec![FlowLinkRule::new("f", l2.clone(), 1.0)],
            },
        );
        net.offer_flows(vec![FlowSpec::new("f", "tor-1-1", "tor-1-2", 500.0)]);
        net.step(SimDuration::from_secs(1));
        let report = net.traffic_report();
        assert!((report.delivered_mbps - 500.0).abs() < 1e-6);
        assert_eq!(
            net.link_snapshot(&l1).unwrap().load_ab_mbps
                + net.link_snapshot(&l1).unwrap().load_ba_mbps,
            500.0
        );
    }

    #[test]
    fn stochastic_failures_are_deterministic_per_seed() {
        let g = DcnSpec::tiny("dc1").build();
        let mk = || {
            let mut cfg = SimConfig::ideal();
            cfg.faults.command_failure_prob = 0.5;
            cfg.seed = 42;
            SimNetwork::new(&g, SimClock::new(), cfg)
        };
        let run = |net: SimNetwork| -> Vec<bool> {
            let dev = DeviceName::new("agg-1-1");
            (0..20)
                .map(|i| {
                    net.submit(
                        &dev,
                        DeviceCommand::SetBootImage {
                            image: format!("i{i}"),
                        },
                    )
                    .is_applied()
                })
                .collect()
        };
        assert_eq!(run(mk()), run(mk()));
    }

    #[test]
    fn command_stats_track() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.command_timeout_prob = 1.0;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(&dev, DeviceCommand::SetBootImage { image: "x".into() });
        assert_eq!(net.command_stats(), (0, 1));
    }

    #[test]
    fn device_crash_and_restore_round_trip() {
        let g = DcnSpec::tiny("dc1").build();
        let dev = DeviceName::new("agg-1-1");
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = FaultPlan::ideal().with_device_outage(
            &dev,
            SimTime::from_mins(5),
            SimDuration::from_mins(10),
        );
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        // Install a rule so we can watch it vanish in the crash.
        net.submit(
            &dev,
            DeviceCommand::SetRoutingRules {
                rules: vec![FlowLinkRule::new("f", link.clone(), 1.0)],
            },
        );
        net.step_to(SimTime::from_mins(1));
        assert!(!net.device_snapshot(&dev).unwrap().routing_rules.is_empty());

        net.step_to(SimTime::from_mins(5));
        assert!(!net.device_operational(&dev));
        assert!(!net.device_mgmt_reachable(&dev));
        assert!(!net.link_oper_up(&link));
        // In-band commands time out while crashed.
        let out = net.submit(&dev, DeviceCommand::SetBootImage { image: "x".into() });
        assert_eq!(out, CommandOutcome::TimedOut);

        net.step_to(SimTime::from_mins(15));
        assert!(net.device_operational(&dev));
        assert!(net.device_mgmt_reachable(&dev));
        assert!(net.link_oper_up(&link));
        // Volatile routing state was lost: the loop must re-push it.
        assert!(net.device_snapshot(&dev).unwrap().routing_rules.is_empty());
    }

    #[test]
    fn reboot_fault_recovers_without_restore_event() {
        let g = DcnSpec::tiny("dc1").build();
        let dev = DeviceName::new("agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = FaultPlan::ideal().with_event(
            SimTime::from_mins(2),
            FaultEvent::RebootDevice {
                device: dev.clone(),
                down_ms: 3 * 60_000,
            },
        );
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        net.step_to(SimTime::from_mins(2));
        assert!(!net.device_operational(&dev));
        net.step_to(SimTime::from_mins(4));
        assert!(!net.device_operational(&dev));
        // Recovery is anchored to the scheduled fire time (2min + 3min).
        net.step_to(SimTime::from_mins(5));
        assert!(net.device_operational(&dev));
    }

    #[test]
    fn mgmt_outage_window_blocks_management_only() {
        let g = DcnSpec::tiny("dc1").build();
        let dev = DeviceName::new("agg-1-1");
        let mut cfg = SimConfig::ideal();
        cfg.faults = FaultPlan::ideal().with_mgmt_outage(
            &dev,
            SimTime::from_mins(1),
            SimDuration::from_mins(2),
        );
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        net.step_to(SimTime::from_mins(1));
        assert!(net.device_operational(&dev), "still forwarding");
        assert!(!net.device_mgmt_reachable(&dev));
        let out = net.submit(&dev, DeviceCommand::SetBootImage { image: "x".into() });
        assert_eq!(out, CommandOutcome::TimedOut);
        net.step_to(SimTime::from_mins(3));
        assert!(net.device_mgmt_reachable(&dev));
    }

    #[test]
    fn link_flapping_is_deterministic_and_heals() {
        let g = DcnSpec::tiny("dc1").build();
        let mk = || {
            let mut cfg = SimConfig::ideal();
            cfg.seed = 99;
            cfg.faults = FaultPlan::ideal().with_link_flapping(0.8, SimDuration::from_secs(30));
            SimNetwork::new(&g, SimClock::new(), cfg)
        };
        let run = |net: SimNetwork| -> Vec<bool> {
            let mut down_history = Vec::new();
            for i in 1..=10 {
                net.step_to(SimTime::from_mins(i));
                for l in net.link_names() {
                    down_history.push(net.link_oper_up(&l));
                }
            }
            down_history
        };
        let a = run(mk());
        let b = run(mk());
        assert_eq!(a, b, "same seed, same flaps");
        assert!(a.iter().any(|up| !up), "p=0.8/min over 10min must flap");
        // Flaps are time-bounded (30s here), so a link down at one probe
        // is up again at a later probe — healing is visible in-history.
        assert!(a.iter().any(|up| *up), "flaps heal between probes");
    }

    /// FNV-1a-64 over every device's counters and every link's flap
    /// deadline, in sorted-name order.
    fn draws_digest(net: &SimNetwork) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for name in net.device_names() {
            let d = net.device_snapshot(&name).unwrap();
            eat(d.cpu_util.to_bits());
            eat(d.mem_util.to_bits());
        }
        for name in net.link_names() {
            let l = net.link_snapshot(&name).unwrap();
            eat(l.flapping_until.map_or(u64::MAX, |t| t.0));
        }
        h
    }

    #[test]
    fn counter_walk_and_flap_draws_are_pinned() {
        // The RNG is drawn in sorted-name order: flaps over the links, then
        // one (cpu, mem) pair per device, every step. A change to that
        // order (or to how entities are stored) moves this digest, and with
        // it every OS digest built on the simulator.
        let mut graph = statesman_topology::NetworkGraph::new();
        DcnSpec::tiny("dc1").build_prefixed_into(&mut graph);
        DcnSpec::fig7("dc2").build_prefixed_into(&mut graph);
        let mut cfg = SimConfig::ideal();
        cfg.seed = 4242;
        cfg.faults = FaultPlan::ideal().with_link_flapping(0.05, SimDuration::from_secs(150));
        let net = SimNetwork::new(&graph, SimClock::new(), cfg);
        for (i, secs) in [60, 90, 60, 240, 30, 60, 60, 600].into_iter().enumerate() {
            net.step(SimDuration::from_secs(secs));
            if i == 3 {
                assert_eq!(draws_digest(&net), 14548491616831247435, "after four steps");
            }
        }
        let flapped = (net.link_names().iter())
            .filter(|l| net.link_snapshot(l).unwrap().flapping_until.is_some())
            .count();
        assert!(flapped > 0, "the history holds flaps");
        assert_eq!(draws_digest(&net), 318133145602149887, "after eight steps");
    }

    #[test]
    fn unknown_device_rejected() {
        let net = sim();
        let out = net.submit(
            &DeviceName::new("ghost"),
            DeviceCommand::SetBootImage { image: "x".into() },
        );
        assert_eq!(
            out,
            CommandOutcome::Rejected {
                code: "E-NO-SUCH-DEVICE".into()
            }
        );
    }

    #[test]
    fn power_off_clears_upgrade() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7.0".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        net.submit(&dev, DeviceCommand::SetAdminPower(PowerStatus::Off));
        net.step(SimDuration::from_millis(1));
        let d = net.device_snapshot(&dev).unwrap();
        assert!(d.upgrading.is_none());
        assert_eq!(d.observed_firmware(), "6.0.3");
    }
}
