//! Protocol adapters: the device-facing interfaces the monitor and updater
//! use.
//!
//! Paper §3: the monitor "uses the corresponding protocol (e.g., SNMP or
//! OpenFlow) to collect the network statistics, and it translates
//! protocol-specific data to protocol-agnostic state variables"; the
//! updater does the reverse through its command-template pool. We model
//! three adapters with distinct capability envelopes:
//!
//! * [`SnmpSim`] — read-only polling of power/firmware/config state and
//!   counters; cannot execute anything;
//! * [`OpenFlowSim`] — reads and programs routing state, but only on
//!   OpenFlow-capable models with a running agent;
//! * [`VendorCliSim`] — the management-plane catch-all: power, firmware,
//!   boot image, interface configuration; also renders BGP route updates
//!   for traditional routers.
//!
//! Each adapter returns typed [`StateError`]s for its failure surface so
//! the monitor and updater can implement the §6.2 "stateless and automatic
//! failure handling" without parsing strings.
//!
//! A poll reads one consistent instant: each `collect_*` call takes the
//! simulator lock once ([`SimNetwork::with_device`] /
//! [`SimNetwork::with_link`]) and reads the device, or the link and its
//! endpoints, in place — no copy of the device, and no step can land
//! between the reachability check and the values reported.
//!
//! Each adapter's pairs are defined once, as [`Reading`]s borrowed from
//! the simulator; a `collect_*` call builds owned [`Value`]s from them.
//! The monitor polls through [`BlockCollector`] instead: by id, a block
//! of entities under one lock, handing out the borrowed pairs so that
//! only a value that changed is ever built.

use crate::command::{CommandOutcome, DeviceCommand, DeviceModel};
use crate::device::SimDevice;
use crate::link::SimLink;
use crate::sim::SimNetwork;
use statesman_topology::{EdgeId, NodeId};
use statesman_types::{
    Attribute, ControlPlaneMode, DeviceName, FlowLinkRule, LinkName, OperStatus, PowerStatus,
    SimTime, StateError, StateResult, Value,
};

/// Which protocol an adapter speaks (for logging and template lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// SNMP-style polling.
    Snmp,
    /// OpenFlow-style rule programming.
    OpenFlow,
    /// Vendor CLI / API management plane.
    VendorCli,
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProtocolKind::Snmp => "snmp",
            ProtocolKind::OpenFlow => "openflow",
            ProtocolKind::VendorCli => "vendor-cli",
        })
    }
}

/// A device-facing protocol adapter.
pub trait DeviceProtocol: Send + Sync {
    /// Which protocol this adapter speaks.
    fn kind(&self) -> ProtocolKind;

    /// Poll one device's protocol-visible state as attribute/value pairs,
    /// one per attribute, in catalogue order ([`Attribute`]'s order).
    /// Errors with [`StateError::DeviceTimeout`] when the device's
    /// management plane does not answer.
    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>>;

    /// Poll one link's protocol-visible state, in catalogue order. Link
    /// state is reported by its endpoint devices; if neither endpoint
    /// answers the poll times out.
    fn collect_link(&self, link: &LinkName) -> StateResult<Vec<(Attribute, Value)>>;

    /// Execute a management command. Errors with
    /// [`StateError::InvalidRequest`] when the protocol cannot carry this
    /// command class at all (the updater then picks another template).
    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome>;
}

/// The error a device (or a link, named as one) gives when its management
/// plane does not answer `operation`.
fn timeout(device: &impl std::fmt::Display, operation: &str) -> StateError {
    StateError::DeviceTimeout {
        device: device.to_string(),
        operation: operation.into(),
    }
}

/// One polled value, borrowed from the simulator: what an adapter reports
/// before anything is built from it. [`Reading::to_value`] is the value
/// a `collect_*` call returns for it.
#[derive(Debug, Clone, Copy)]
pub enum Reading<'a> {
    /// [`Value::None`].
    None,
    /// [`Value::Bool`].
    Bool(bool),
    /// [`Value::Float`].
    Float(f64),
    /// [`Value::Text`].
    Text(&'a str),
    /// [`Value::Power`].
    Power(PowerStatus),
    /// [`Value::Oper`].
    Oper(OperStatus),
    /// [`Value::ControlPlane`].
    ControlPlane(ControlPlaneMode),
    /// [`Value::Routes`].
    Routes(&'a [FlowLinkRule]),
    /// Link weights, reported as [`Value::Routes`] of `*` pseudo-rules
    /// for wire uniformity.
    Weights(&'a [(LinkName, f64)]),
}

/// The flow a link weight's pseudo-rule carries.
const WEIGHT_FLOW: &str = "*";

impl Reading<'_> {
    /// The owned value this reading reports.
    pub fn to_value(self) -> Value {
        match self {
            Reading::None => Value::None,
            Reading::Bool(b) => Value::Bool(b),
            Reading::Float(x) => Value::Float(x),
            Reading::Text(s) => Value::text(s),
            Reading::Power(p) => Value::Power(p),
            Reading::Oper(o) => Value::Oper(o),
            Reading::ControlPlane(c) => Value::ControlPlane(c),
            Reading::Routes(rules) => Value::Routes(rules.to_vec()),
            Reading::Weights(weights) => Value::Routes(
                (weights.iter())
                    .map(|(l, w)| FlowLinkRule::new(WEIGHT_FLOW, l.clone(), *w))
                    .collect(),
            ),
        }
    }

    /// Whether `value` equals [`Reading::to_value`], without building it.
    pub fn matches(self, value: &Value) -> bool {
        match (self, value) {
            (Reading::None, Value::None) => true,
            (Reading::Bool(x), Value::Bool(y)) => x == *y,
            (Reading::Float(x), Value::Float(y)) => x == *y,
            (Reading::Text(x), Value::Text(y)) => x == y,
            (Reading::Power(x), Value::Power(y)) => x == *y,
            (Reading::Oper(x), Value::Oper(y)) => x == *y,
            (Reading::ControlPlane(x), Value::ControlPlane(y)) => x == *y,
            (Reading::Routes(x), Value::Routes(y)) => x == y.as_slice(),
            (Reading::Weights(x), Value::Routes(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|((l, w), r)| {
                        r.flow == WEIGHT_FLOW && r.out_link == *l && r.weight == *w
                    })
            }
            _ => false,
        }
    }
}

/// Owned pairs built from readings: what a `collect_*` call returns.
fn owned(pairs: &[(Attribute, Reading<'_>)]) -> Vec<(Attribute, Value)> {
    (pairs.iter()).map(|&(a, r)| (a, r.to_value())).collect()
}

// Each adapter's pairs are listed in catalogue order — the order of
// [`Attribute`], so the order a row's key sorts in — one per attribute.

/// A device's SNMP walk.
fn snmp_device(d: &SimDevice) -> [(Attribute, Reading<'_>); 7] {
    [
        (
            Attribute::DeviceMgmtInterface,
            Reading::Bool(d.mgmt_configured),
        ),
        (
            Attribute::DeviceFirmwareVersion,
            Reading::Text(d.observed_firmware()),
        ),
        (Attribute::DeviceBootImage, Reading::Text(&d.boot_image)),
        (Attribute::DeviceAdminPower, Reading::Power(d.admin_power)),
        (
            Attribute::DevicePowerUnitReachable,
            Reading::Bool(d.power_unit_reachable),
        ),
        (Attribute::DeviceCpuUtilization, Reading::Float(d.cpu_util)),
        (
            Attribute::DeviceMemoryUtilization,
            Reading::Float(d.mem_util),
        ),
    ]
}

/// A link's SNMP walk, given whether it is oper-up.
fn snmp_link(l: &SimLink, oper_up: bool) -> [(Attribute, Reading<'_>); 8] {
    let oper = if oper_up {
        OperStatus::Up
    } else {
        OperStatus::Down
    };
    [
        (
            Attribute::LinkIpAssignment,
            match &l.ip_assignment {
                Some(ip) => Reading::Text(ip),
                None => Reading::None,
            },
        ),
        (
            Attribute::LinkControlPlane,
            Reading::ControlPlane(l.control_plane),
        ),
        (Attribute::LinkAdminPower, Reading::Power(l.admin_power)),
        (Attribute::LinkOperStatus, Reading::Oper(oper)),
        (Attribute::LinkTrafficLoadAB, Reading::Float(l.load_ab_mbps)),
        (Attribute::LinkTrafficLoadBA, Reading::Float(l.load_ba_mbps)),
        (Attribute::LinkPacketDropRate, Reading::Float(l.drop_rate)),
        (
            Attribute::LinkFcsErrorRate,
            Reading::Float(l.fcs_error_rate),
        ),
    ]
}

/// An OpenFlow switch's routing state.
fn openflow_device(d: &SimDevice) -> [(Attribute, Reading<'_>); 3] {
    [
        (
            Attribute::DeviceRoutingRules,
            Reading::Routes(&d.routing_rules),
        ),
        (
            Attribute::DeviceLinkWeights,
            Reading::Weights(&d.link_weights),
        ),
        (
            Attribute::DeviceOpenFlowAgent,
            Reading::Bool(d.of_agent_running),
        ),
    ]
}

/// What the CLI shows of a device: on BGP routers the RIB, and its
/// management interface.
fn cli_device(d: &SimDevice) -> Pairs<'_> {
    let mut pairs = Pairs::default();
    if d.model == DeviceModel::BgpRouter {
        pairs.merge(&[(
            Attribute::DeviceRoutingRules,
            Reading::Routes(&d.routing_rules),
        )]);
    }
    pairs.merge(&[(
        Attribute::DeviceMgmtInterface,
        Reading::Bool(d.mgmt_configured),
    )]);
    pairs
}

/// Up to [`Pairs::CAPACITY`] pairs, one per attribute and in catalogue
/// order, on the stack.
struct Pairs<'a> {
    pairs: [(Attribute, Reading<'a>); Pairs::CAPACITY],
    len: usize,
}

impl Default for Pairs<'_> {
    fn default() -> Self {
        Pairs {
            pairs: [(Attribute::DeviceAdminPower, Reading::None); Pairs::CAPACITY],
            len: 0,
        }
    }
}

impl<'a> Pairs<'a> {
    /// A device's SNMP walk plus its routing state.
    const CAPACITY: usize = 10;

    /// Add `from`: a pair for an attribute already held replaces it, the
    /// rest are inserted in catalogue order.
    fn merge(&mut self, from: &[(Attribute, Reading<'a>)]) {
        for &(attr, reading) in from {
            let held = &self.pairs[..self.len];
            let at = held.partition_point(|(a, _)| *a < attr);
            if at < self.len && self.pairs[at].0 == attr {
                self.pairs[at].1 = reading;
            } else {
                self.pairs.copy_within(at..self.len, at + 1);
                self.pairs[at] = (attr, reading);
                self.len += 1;
            }
        }
    }

    fn as_slice(&self) -> &[(Attribute, Reading<'a>)] {
        &self.pairs[..self.len]
    }
}

/// SNMP-like adapter: read-only.
#[derive(Clone)]
pub struct SnmpSim {
    net: SimNetwork,
}

impl SnmpSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        SnmpSim { net }
    }
}

impl DeviceProtocol for SnmpSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Snmp
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        let walk = |d: &SimDevice, now| {
            if !d.mgmt_reachable(now) {
                return Err(timeout(device, "snmp-walk"));
            }
            Ok(owned(&snmp_device(d)))
        };
        self.net
            .with_device(device, walk)
            .unwrap_or_else(|| Err(timeout(device, "snmp-walk")))
    }

    fn collect_link(&self, link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        // Link counters are reported by whichever endpoint answers.
        let walk = |l: &SimLink, a_ok: bool, b_ok: bool, oper: bool| {
            if !a_ok && !b_ok {
                return Err(timeout(link, "snmp-walk"));
            }
            Ok(owned(&snmp_link(l, oper)))
        };
        self.net
            .with_link(link, walk)
            .unwrap_or_else(|| Err(timeout(link, "snmp-walk")))
    }

    fn execute(&self, _device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        Err(StateError::invalid(format!(
            "SNMP adapter is read-only; cannot execute {}",
            command.verb()
        )))
    }
}

/// OpenFlow-like adapter: routing state only, OpenFlow models only.
#[derive(Clone)]
pub struct OpenFlowSim {
    net: SimNetwork,
}

impl OpenFlowSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        OpenFlowSim { net }
    }

    /// Read `device` in place once it is known to be an OpenFlow model.
    fn with_openflow<R>(
        &self,
        device: &DeviceName,
        read: impl FnOnce(&SimDevice, SimTime) -> StateResult<R>,
    ) -> StateResult<R> {
        let echo = |d: &SimDevice, now| {
            if d.model != DeviceModel::OpenFlowSwitch {
                return Err(StateError::invalid(format!(
                    "{device} is model {} — not OpenFlow-capable",
                    d.model
                )));
            }
            read(d, now)
        };
        self.net
            .with_device(device, echo)
            .unwrap_or_else(|| Err(timeout(device, "of-echo")))
    }
}

impl DeviceProtocol for OpenFlowSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::OpenFlow
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        self.with_openflow(device, |d, now| {
            if !d.mgmt_reachable(now) {
                return Err(timeout(device, "of-echo"));
            }
            Ok(owned(&openflow_device(d)))
        })
    }

    fn collect_link(&self, _link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        // Link state is collected over SNMP in this deployment.
        Ok(Vec::new())
    }

    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        if !command.is_routing() {
            return Err(StateError::invalid(format!(
                "OpenFlow adapter carries routing commands only, not {}",
                command.verb()
            )));
        }
        self.with_openflow(device, |_, _| Ok(()))?;
        Ok(self.net.submit(device, command))
    }
}

/// Vendor-CLI-like adapter: the management plane. Executes everything
/// except OpenFlow rule programming (on BGP models it also renders routing
/// changes, as route announcements/withdrawals).
#[derive(Clone)]
pub struct VendorCliSim {
    net: SimNetwork,
}

impl VendorCliSim {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        VendorCliSim { net }
    }
}

impl DeviceProtocol for VendorCliSim {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::VendorCli
    }

    fn collect_device(&self, device: &DeviceName) -> StateResult<Vec<(Attribute, Value)>> {
        let show = |d: &SimDevice, now| {
            if !d.mgmt_reachable(now) {
                return Err(timeout(device, "cli-show"));
            }
            Ok(owned(cli_device(d).as_slice()))
        };
        self.net
            .with_device(device, show)
            .unwrap_or_else(|| Err(timeout(device, "cli-show")))
    }

    fn collect_link(&self, _link: &LinkName) -> StateResult<Vec<(Attribute, Value)>> {
        Ok(Vec::new())
    }

    fn execute(&self, device: &DeviceName, command: DeviceCommand) -> StateResult<CommandOutcome> {
        if command.is_routing() {
            let model = self
                .net
                .with_device(device, |d, _| d.model)
                .ok_or_else(|| timeout(device, "cli-exec"))?;
            if model != DeviceModel::BgpRouter {
                return Err(StateError::invalid(format!(
                    "{device} is model {model} — routing goes through OpenFlow"
                )));
            }
        }
        Ok(self.net.submit(device, command))
    }
}

/// The monitor's collection, by id and a block of entities under one
/// simulator lock. A device reports its SNMP walk with the routing state
/// of the adapter its model speaks merged in — OpenFlow on switches, the
/// CLI's RIB on BGP routers, a repeated attribute replacing SNMP's — the
/// pairs [`SnmpSim::collect_device`] and [`OpenFlowSim::collect_device`]
/// or [`VendorCliSim::collect_device`] return between them. A link
/// reports its SNMP walk, [`SnmpSim::collect_link`]'s pairs. Both hand
/// out borrowed [`Reading`]s in catalogue order, so an entity's rows come
/// out in key order, and `None` where the collect would time out (or the
/// id is unknown).
#[derive(Clone)]
pub struct BlockCollector {
    net: SimNetwork,
}

impl BlockCollector {
    /// Build over a simulator handle.
    pub fn new(net: SimNetwork) -> Self {
        BlockCollector { net }
    }

    /// Poll a block of devices: `visit` gets each item's key and the
    /// device's pairs, or `None` when its management plane does not
    /// answer.
    pub fn devices<K>(
        &self,
        block: impl IntoIterator<Item = (K, Option<NodeId>)>,
        mut visit: impl FnMut(K, Option<&[(Attribute, Reading<'_>)]>),
    ) {
        self.net.with_device_block(block, |key, device, now| {
            let Some(d) = device.filter(|d| d.mgmt_reachable(now)) else {
                return visit(key, None);
            };
            let mut pairs = Pairs::default();
            pairs.merge(&snmp_device(d));
            match d.model {
                DeviceModel::OpenFlowSwitch => pairs.merge(&openflow_device(d)),
                DeviceModel::BgpRouter => pairs.merge(cli_device(d).as_slice()),
            }
            visit(key, Some(pairs.as_slice()))
        });
    }

    /// Poll a block of links: `visit` gets each item's key and the link's
    /// pairs, or `None` when neither endpoint answers.
    pub fn links<K>(
        &self,
        block: impl IntoIterator<Item = (K, Option<EdgeId>)>,
        mut visit: impl FnMut(K, Option<&[(Attribute, Reading<'_>)]>),
    ) {
        self.net.with_link_block(block, |key, link| match link {
            Some((l, a_ok, b_ok, oper)) if a_ok || b_ok => visit(key, Some(&snmp_link(l, oper))),
            _ => visit(key, None),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::sim::SimConfig;
    use statesman_topology::{DcnSpec, WanSpec};
    use statesman_types::SimDuration;

    fn dc_sim() -> SimNetwork {
        SimNetwork::new(
            &DcnSpec::tiny("dc1").build(),
            SimClock::new(),
            SimConfig::ideal(),
        )
    }

    fn wan_sim() -> SimNetwork {
        SimNetwork::new(
            &WanSpec::fig9().build(),
            SimClock::new(),
            SimConfig::ideal(),
        )
    }

    #[test]
    fn snmp_collects_device_and_link_state() {
        let net = dc_sim();
        let snmp = SnmpSim::new(net.clone());
        let rows = snmp.collect_device(&DeviceName::new("agg-1-1")).unwrap();
        assert!(rows
            .iter()
            .any(|(a, _)| *a == Attribute::DeviceFirmwareVersion));
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let rows = snmp.collect_link(&link).unwrap();
        assert!(rows
            .iter()
            .any(|(a, v)| *a == Attribute::LinkOperStatus && v.as_oper().unwrap().is_up()));
    }

    #[test]
    fn snmp_cannot_write() {
        let net = dc_sim();
        let snmp = SnmpSim::new(net);
        let err = snmp
            .execute(
                &DeviceName::new("agg-1-1"),
                DeviceCommand::SetBootImage { image: "x".into() },
            )
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn snmp_times_out_on_rebooting_device() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let snmp = SnmpSim::new(net);
        let err = snmp.collect_device(&dev).unwrap_err();
        assert!(matches!(err, StateError::DeviceTimeout { .. }));
    }

    #[test]
    fn link_polling_survives_one_dead_endpoint() {
        let g = DcnSpec::tiny("dc1").build();
        let mut cfg = SimConfig::ideal();
        cfg.faults.reboot_window_ms = 600_000;
        let net = SimNetwork::new(&g, SimClock::new(), cfg);
        let dev = DeviceName::new("agg-1-1");
        net.submit(
            &dev,
            DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            },
        );
        net.step(SimDuration::from_millis(1));
        let snmp = SnmpSim::new(net);
        let link = LinkName::between("tor-1-1", "agg-1-1");
        let rows = snmp.collect_link(&link).unwrap(); // tor-1-1 answers
        let oper = rows
            .iter()
            .find(|(a, _)| *a == Attribute::LinkOperStatus)
            .unwrap();
        assert!(!oper.1.as_oper().unwrap().is_up(), "peer is rebooting");
    }

    #[test]
    fn openflow_rejects_bgp_models() {
        let net = wan_sim();
        let of = OpenFlowSim::new(net);
        let err = of.collect_device(&DeviceName::new("br-1")).unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn openflow_programs_routing_on_switches() {
        let net = dc_sim();
        let of = OpenFlowSim::new(net.clone());
        let dev = DeviceName::new("agg-1-1");
        let out = of
            .execute(&dev, DeviceCommand::SetRoutingRules { rules: vec![] })
            .unwrap();
        assert!(out.is_applied());
        // ...but refuses management commands.
        let err = of
            .execute(&dev, DeviceCommand::SetBootImage { image: "x".into() })
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn cli_carries_routing_on_bgp_only() {
        let wan = wan_sim();
        let cli = VendorCliSim::new(wan.clone());
        let out = cli
            .execute(
                &DeviceName::new("br-1"),
                DeviceCommand::SetRoutingRules { rules: vec![] },
            )
            .unwrap();
        assert!(out.is_applied());

        let dc = dc_sim();
        let cli = VendorCliSim::new(dc);
        let err = cli
            .execute(
                &DeviceName::new("agg-1-1"),
                DeviceCommand::SetRoutingRules { rules: vec![] },
            )
            .unwrap_err();
        assert!(matches!(err, StateError::InvalidRequest { .. }));
    }

    #[test]
    fn a_reading_matches_exactly_the_value_it_builds() {
        let link = LinkName::between("a", "b");
        let rules = [FlowLinkRule::new("f", link.clone(), 1.0)];
        let weights = [(link.clone(), 1.0)];
        let star = [FlowLinkRule::new(WEIGHT_FLOW, link.clone(), 1.0)];
        let readings = [
            Reading::None,
            Reading::Bool(true),
            Reading::Bool(false),
            Reading::Float(0.0),
            Reading::Float(-0.0),
            Reading::Float(f64::NAN),
            Reading::Float(0.25),
            Reading::Text("6.0.3"),
            Reading::Text(""),
            Reading::Power(PowerStatus::On),
            Reading::Power(PowerStatus::Off),
            Reading::Oper(OperStatus::Up),
            Reading::Oper(OperStatus::Down),
            Reading::ControlPlane(ControlPlaneMode::Bgp),
            Reading::ControlPlane(ControlPlaneMode::OpenFlow),
            Reading::Routes(&[]),
            Reading::Routes(&rules),
            Reading::Routes(&star),
            Reading::Weights(&[]),
            Reading::Weights(&weights),
        ];
        let mut values: Vec<Value> = readings.iter().map(|r| r.to_value()).collect();
        values.extend([Value::Int(0), Value::text("bgp"), Value::Float(1.0)]);
        for r in readings {
            for v in &values {
                assert_eq!(r.matches(v), r.to_value() == *v, "{r:?} vs {v:?}");
            }
        }
    }

    #[test]
    fn every_collect_reports_in_catalogue_order() {
        let ascending =
            |attrs: &mut dyn Iterator<Item = Attribute>| attrs.is_sorted_by(|a, b| a < b);
        for net in [dc_sim(), wan_sim()] {
            let (snmp, of, cli) = (
                SnmpSim::new(net.clone()),
                OpenFlowSim::new(net.clone()),
                VendorCliSim::new(net.clone()),
            );
            for d in net.device_names() {
                let replies = [
                    snmp.collect_device(&d),
                    of.collect_device(&d),
                    cli.collect_device(&d),
                ];
                for pairs in replies.iter().flatten() {
                    assert!(ascending(&mut pairs.iter().map(|p| p.0)), "{d}: {pairs:?}");
                }
            }
            for l in net.link_names() {
                let pairs = snmp.collect_link(&l).unwrap();
                assert!(ascending(&mut pairs.iter().map(|p| p.0)), "{l}");
            }
            // The monitor's by-id path: every entity answers here, in
            // order; an id the simulator does not hold does not.
            let block = BlockCollector::new(net.clone());
            let names = net.device_names();
            let ids = names.iter().map(|d| (d, net.device_id(d)));
            block.devices(ids, |d, pairs| {
                let pairs = pairs.unwrap_or_else(|| panic!("{d} answers"));
                assert!(ascending(&mut pairs.iter().map(|p| p.0)), "{d}");
            });
            let names = net.link_names();
            let ids = names.iter().map(|l| (l, net.link_id(l)));
            block.links(ids, |l, pairs| {
                let pairs = pairs.unwrap_or_else(|| panic!("{l} answers"));
                assert!(ascending(&mut pairs.iter().map(|p| p.0)), "{l}");
            });
            block.devices([((), Some(NodeId(u32::MAX)))], |_, p| assert!(p.is_none()));
            block.links([((), Some(EdgeId(u32::MAX)))], |_, p| assert!(p.is_none()));
        }
    }

    #[test]
    fn cli_exposes_bgp_rib() {
        let wan = wan_sim();
        let cli = VendorCliSim::new(wan);
        let rows = cli.collect_device(&DeviceName::new("br-1")).unwrap();
        assert!(rows
            .iter()
            .any(|(a, _)| *a == Attribute::DeviceRoutingRules));
    }
}
