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
use statesman_topology::NetworkGraph;
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
    device: DeviceName,
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

/// Inner mutable simulator state.
struct SimState {
    devices: HashMap<DeviceName, SimDevice>,
    links: HashMap<LinkName, SimLink>,
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

/// Every device and link name, sorted once: the sets never change after
/// [`SimNetwork::new`], and `step_to` draws its RNG in these orders.
struct SortedNames {
    devices: Vec<DeviceName>,
    links: Vec<LinkName>,
}

/// Cloneable handle to the simulated network.
#[derive(Clone)]
pub struct SimNetwork {
    state: Arc<Mutex<SimState>>,
    names: Arc<SortedNames>,
    clock: SimClock,
}

impl SimNetwork {
    /// Build a simulator over a topology. Border routers are BGP models;
    /// everything else is an OpenFlow switch (override per device with
    /// [`SimNetwork::set_device_model`] before the scenario starts).
    pub fn new(graph: &NetworkGraph, clock: SimClock, config: SimConfig) -> Self {
        let mut devices = HashMap::new();
        for (_, n) in graph.nodes() {
            let model = match n.role {
                DeviceRole::Border => DeviceModel::BgpRouter,
                _ => DeviceModel::OpenFlowSwitch,
            };
            let mut dev = SimDevice::healthy(n.name.clone(), model, &config.initial_firmware);
            if config.start_powered_off {
                dev.admin_power = statesman_types::PowerStatus::Off;
            }
            devices.insert(n.name.clone(), dev);
        }
        let mut links = HashMap::new();
        for (_, e) in graph.edges() {
            let mut link = SimLink::healthy(e.name.clone(), e.capacity_mbps);
            if config.start_powered_off {
                link.admin_power = statesman_types::PowerStatus::Off;
            }
            links.insert(e.name.clone(), link);
        }
        let mut scheduled = config.faults.scheduled.clone();
        scheduled.sort_by_key(|f| f.at);
        let mut names = SortedNames {
            devices: devices.keys().cloned().collect(),
            links: links.keys().cloned().collect(),
        };
        names.devices.sort();
        names.links.sort();
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
            names: Arc::new(names),
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
        let mut s = self.state.lock();
        if let Some(d) = s.devices.get_mut(device) {
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

        let Some(dev) = s.devices.get(device) else {
            s.note_command_failed();
            return CommandOutcome::Rejected {
                code: "E-NO-SUCH-DEVICE".to_string(),
            };
        };

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
            device: device.clone(),
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
                apply_fault(&mut s, f.at, &f.event);
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
                apply_effect(&mut s, &e, reboot);
            }

            // Settle any upgrades whose reboot window has elapsed, and
            // crash-reboots whose downtime has passed.
            for dev in s.devices.values_mut() {
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
                    for name in &self.names.links {
                        let roll: f64 = s.rng.gen();
                        if roll < p_step {
                            let l = s.links.get_mut(name).expect("link exists");
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
            for name in &self.names.devices {
                let (dc, dm): (f64, f64) =
                    (s.rng.gen_range(-0.02..0.02), s.rng.gen_range(-0.01..0.01));
                let d = s.devices.get_mut(name).expect("device exists");
                d.cpu_util = (d.cpu_util + dc).clamp(0.02, 0.98);
                d.mem_util = (d.mem_util + dm).clamp(0.02, 0.98);
            }

            recompute_traffic(&mut s, target);
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
        self.state.lock().devices.get(name).cloned()
    }

    /// Snapshot one link's state.
    pub fn link_snapshot(&self, name: &LinkName) -> Option<SimLink> {
        self.state.lock().links.get(name).cloned()
    }

    /// Read one device in place, under one lock, with the clock instant
    /// the read belongs to; `None` when no such device exists.
    pub fn with_device<R>(
        &self,
        name: &DeviceName,
        read: impl FnOnce(&SimDevice, SimTime) -> R,
    ) -> Option<R> {
        let now = self.clock.now();
        let s = self.state.lock();
        s.devices.get(name).map(|d| read(d, now))
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
        let now = self.clock.now();
        let s = self.state.lock();
        let l = s.links.get(name)?;
        let reachable = |d: &DeviceName| s.devices.get(d).is_some_and(|d| d.mgmt_reachable(now));
        let oper_up = link_oper_up_inner(&s, name, now);
        Some(read(l, reachable(&name.a), reachable(&name.b), oper_up))
    }

    /// All device names, sorted (stable iteration for the monitor).
    pub fn device_names(&self) -> Vec<DeviceName> {
        self.names.devices.clone()
    }

    /// All link names, sorted.
    pub fn link_names(&self) -> Vec<LinkName> {
        self.names.links.clone()
    }

    /// Whether a device is currently operational (forwarding traffic).
    pub fn device_operational(&self, name: &DeviceName) -> bool {
        let now = self.clock.now();
        self.state
            .lock()
            .devices
            .get(name)
            .map(|d| d.is_operational(now))
            .unwrap_or(false)
    }

    /// Whether a device's management plane currently answers (the
    /// monitor's-eye view; false for crashed or mgmt-faulted devices).
    pub fn device_mgmt_reachable(&self, name: &DeviceName) -> bool {
        let now = self.clock.now();
        self.state
            .lock()
            .devices
            .get(name)
            .map(|d| d.mgmt_reachable(now))
            .unwrap_or(false)
    }

    /// Whether a link is currently oper-up (including endpoint health).
    pub fn link_oper_up(&self, name: &LinkName) -> bool {
        let now = self.clock.now();
        let s = self.state.lock();
        link_oper_up_inner(&s, name, now)
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

fn link_oper_up_inner(s: &SimState, name: &LinkName, now: SimTime) -> bool {
    let Some(l) = s.links.get(name) else {
        return false;
    };
    let a_up = s
        .devices
        .get(&l.name.a)
        .map(|d| d.is_operational(now))
        .unwrap_or(false);
    let b_up = s
        .devices
        .get(&l.name.b)
        .map(|d| d.is_operational(now))
        .unwrap_or(false);
    l.oper_up(now, a_up, b_up)
}

fn apply_fault(s: &mut SimState, at: SimTime, event: &FaultEvent) {
    if let Some(o) = &s.obs {
        o.faults_fired.inc();
    }
    match event {
        FaultEvent::SetFcsErrorRate { link, rate } => {
            if let Some(l) = s.links.get_mut(link) {
                l.fcs_error_rate = *rate;
            }
        }
        FaultEvent::SetDropRate { link, rate } => {
            if let Some(l) = s.links.get_mut(link) {
                l.drop_rate = *rate;
            }
        }
        FaultEvent::SetPhysicalLinkState { link, cut } => {
            if let Some(l) = s.links.get_mut(link) {
                l.physically_down = *cut;
            }
        }
        FaultEvent::SetPowerUnitReachable { device, reachable } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.power_unit_reachable = *reachable;
            }
        }
        FaultEvent::CrashOpenFlowAgent { device } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.of_agent_running = false;
            }
        }
        FaultEvent::CrashDevice { device } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.crash(None);
            }
        }
        FaultEvent::RestoreDevice { device } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.restore();
            }
        }
        FaultEvent::RebootDevice { device, down_ms } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.crash(Some(at + SimDuration::from_millis(*down_ms)));
            }
        }
        FaultEvent::SetMgmtPlaneReachable { device, reachable } => {
            if let Some(d) = s.devices.get_mut(device) {
                d.mgmt_plane_reachable = *reachable;
            }
        }
    }
}

fn apply_effect(s: &mut SimState, e: &PendingEffect, reboot: SimDuration) {
    let Some(dev) = s.devices.get_mut(&e.device) else {
        return;
    };
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
            if let Some(l) = s.links.get_mut(link) {
                l.admin_power = *status;
            }
        }
        DeviceCommand::SetLinkIp { link, ip } => {
            if let Some(l) = s.links.get_mut(link) {
                l.ip_assignment = Some(ip.clone());
            }
        }
        DeviceCommand::SetLinkControlPlane { link, mode } => {
            if let Some(l) = s.links.get_mut(link) {
                l.control_plane = *mode;
            }
        }
    }
}

/// Forwarding environment over the locked state at a fixed instant.
struct EnvView<'a> {
    s: &'a SimState,
    now: SimTime,
}

impl ForwardingEnv for EnvView<'_> {
    fn matching_rules(&self, device: &DeviceName, flow: &str) -> Vec<(LinkName, f64)> {
        let now = self.now;
        match self.s.devices.get(device) {
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
        link_oper_up_inner(self.s, link, self.now)
    }

    fn device_operational(&self, device: &DeviceName) -> bool {
        self.s
            .devices
            .get(device)
            .map(|d| d.is_operational(self.now))
            .unwrap_or(false)
    }
}

fn recompute_traffic(s: &mut SimState, now: SimTime) {
    let report = {
        let env = EnvView { s, now };
        let flows = s.flows.clone();
        route_flows(&env, &flows)
    };
    for l in s.links.values_mut() {
        l.clear_loads();
    }
    for ((link, from), mbps) in &report.link_loads {
        if let Some(l) = s.links.get_mut(link) {
            l.add_load_from(from, *mbps);
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
