//! Reference model for the protocol adapters' in-place reads.
//!
//! Each adapter reads one device, or one link and both its endpoints,
//! under one simulator lock (`SimNetwork::with_device` / `with_link`).
//! The oracle here is the design that replaced: the same adapter bodies
//! over cloned snapshots (`device_snapshot`, `link_snapshot`,
//! `link_oper_up`), one lock per read. Twin simulators of one seed, one
//! read by each, go through a seeded fault history on a tiny DC and on the
//! Fig-9 WAN: an upgrade's reboot window, a crash with auto-reboot, a
//! management-plane fault and an unreachable PDU (one link losing both
//! endpoints at once), a link cut and random flaps, a crashed OpenFlow
//! agent, BGP routers polled over OpenFlow, and names that do not exist.
//! Every `collect_device` and `collect_link` call, and every routing
//! command the two adapters validate, must give equal answers or equal
//! errors. Answers are compared as lists: the adapters report their pairs
//! in catalogue order, and the oracle's bodies list them in that order.
//!
//! The monitor's by-id path goes through the same histories. Every round,
//! `BlockCollector` polls every device and link by id, in blocks under one
//! lock, and each entity's borrowed pairs, built, must equal what the
//! monitor used to poll by name from the oracle: a device's SNMP walk with
//! its model's routing pairs merged in, a link's SNMP walk, and nothing
//! where those time out. Below the pairs, `SimNetwork::with_link_block`'s
//! view of each link's endpoints (`a` answers, `b` answers, oper-up) must
//! equal the oracle's per-name reads of `LinkName::a` and `LinkName::b`.
//! Two canaries show that check bites: an index that swaps a link's
//! endpoints, and one that reads an endpoint as it was a round ago.

use statesman_net::device::SimDevice;
use statesman_net::Reading;
use statesman_net::{
    BlockCollector, CommandOutcome, DeviceCommand, DeviceModel, DeviceProtocol, FaultEvent,
    FaultPlan, OpenFlowSim, SimClock, SimConfig, SimNetwork, SnmpSim, VendorCliSim,
};
use statesman_topology::{DcnSpec, NetworkGraph, WanSpec};
use statesman_types::{
    Attribute, DeviceName, LinkName, SimDuration, SimTime, StateError, StateResult, Value,
};
use std::fmt::Display;

const ROUNDS: u64 = 12;

type Reply = StateResult<Vec<(Attribute, Value)>>;
type Outcome = StateResult<CommandOutcome>;

fn timeout(device: &impl Display, operation: &str) -> StateError {
    StateError::DeviceTimeout {
        device: device.to_string(),
        operation: operation.into(),
    }
}

/// The three adapters as they were: every read a cloned snapshot.
struct Snapshots(SimNetwork);

impl Snapshots {
    fn snmp_device(&self, device: &DeviceName) -> Reply {
        let now = self.0.clock().now();
        let d = (self.0.device_snapshot(device)).ok_or_else(|| timeout(device, "snmp-walk"))?;
        if !d.mgmt_reachable(now) {
            return Err(timeout(device, "snmp-walk"));
        }
        Ok(vec![
            (
                Attribute::DeviceMgmtInterface,
                Value::Bool(d.mgmt_configured),
            ),
            (
                Attribute::DeviceFirmwareVersion,
                Value::text(d.observed_firmware()),
            ),
            (Attribute::DeviceBootImage, Value::text(&d.boot_image)),
            (Attribute::DeviceAdminPower, Value::Power(d.admin_power)),
            (
                Attribute::DevicePowerUnitReachable,
                Value::Bool(d.power_unit_reachable),
            ),
            (Attribute::DeviceCpuUtilization, Value::Float(d.cpu_util)),
            (Attribute::DeviceMemoryUtilization, Value::Float(d.mem_util)),
        ])
    }

    fn snmp_link(&self, link: &LinkName) -> Reply {
        let now = self.0.clock().now();
        let l = (self.0.link_snapshot(link)).ok_or_else(|| timeout(link, "snmp-walk"))?;
        let reachable = |d: &DeviceName| {
            (self.0.device_snapshot(d))
                .map(|d| d.mgmt_reachable(now))
                .unwrap_or(false)
        };
        if !reachable(&link.a) && !reachable(&link.b) {
            return Err(timeout(link, "snmp-walk"));
        }
        let oper = self.0.link_oper_up(link);
        Ok(vec![
            (
                Attribute::LinkIpAssignment,
                match &l.ip_assignment {
                    Some(ip) => Value::text(ip),
                    None => Value::None,
                },
            ),
            (
                Attribute::LinkControlPlane,
                Value::ControlPlane(l.control_plane),
            ),
            (Attribute::LinkAdminPower, Value::Power(l.admin_power)),
            (Attribute::LinkOperStatus, Value::oper(oper)),
            (Attribute::LinkTrafficLoadAB, Value::Float(l.load_ab_mbps)),
            (Attribute::LinkTrafficLoadBA, Value::Float(l.load_ba_mbps)),
            (Attribute::LinkPacketDropRate, Value::Float(l.drop_rate)),
            (Attribute::LinkFcsErrorRate, Value::Float(l.fcs_error_rate)),
        ])
    }

    fn require_openflow(&self, device: &DeviceName) -> StateResult<SimDevice> {
        let d = (self.0.device_snapshot(device)).ok_or_else(|| timeout(device, "of-echo"))?;
        if d.model != DeviceModel::OpenFlowSwitch {
            return Err(StateError::invalid(format!(
                "{device} is model {} — not OpenFlow-capable",
                d.model
            )));
        }
        Ok(d)
    }

    fn of_device(&self, device: &DeviceName) -> Reply {
        let now = self.0.clock().now();
        let d = self.require_openflow(device)?;
        if !d.mgmt_reachable(now) {
            return Err(timeout(device, "of-echo"));
        }
        let weights = (d.link_weights.iter())
            .map(|(l, w)| statesman_types::FlowLinkRule::new("*", l.clone(), *w))
            .collect();
        Ok(vec![
            (
                Attribute::DeviceRoutingRules,
                Value::Routes(d.routing_rules.clone()),
            ),
            (Attribute::DeviceLinkWeights, Value::Routes(weights)),
            (
                Attribute::DeviceOpenFlowAgent,
                Value::Bool(d.of_agent_running),
            ),
        ])
    }

    fn of_execute(&self, device: &DeviceName, command: DeviceCommand) -> Outcome {
        self.require_openflow(device)?;
        Ok(self.0.submit(device, command))
    }

    fn cli_device(&self, device: &DeviceName) -> Reply {
        let now = self.0.clock().now();
        let d = (self.0.device_snapshot(device)).ok_or_else(|| timeout(device, "cli-show"))?;
        if !d.mgmt_reachable(now) {
            return Err(timeout(device, "cli-show"));
        }
        let mut rows = Vec::new();
        if d.model == DeviceModel::BgpRouter {
            rows.push((
                Attribute::DeviceRoutingRules,
                Value::Routes(d.routing_rules.clone()),
            ));
        }
        rows.push((
            Attribute::DeviceMgmtInterface,
            Value::Bool(d.mgmt_configured),
        ));
        Ok(rows)
    }

    /// What the monitor polled of a device by name: the SNMP walk, with
    /// the routing adapter of its model merged in (a repeated attribute
    /// replaces SNMP's), in catalogue order; `None` when the walk times
    /// out.
    fn monitor_device(&self, device: &DeviceName) -> Option<Vec<(Attribute, Value)>> {
        let mut pairs = self.snmp_device(device).ok()?;
        let model = self.0.device_snapshot(device).map(|d| d.model);
        let routing = match model.unwrap_or(DeviceModel::OpenFlowSwitch) {
            DeviceModel::OpenFlowSwitch => self.of_device(device),
            DeviceModel::BgpRouter => self.cli_device(device),
        };
        for (attr, value) in routing.unwrap_or_default() {
            match pairs.iter_mut().find(|(a, _)| *a == attr) {
                Some(pair) => pair.1 = value,
                None => pairs.push((attr, value)),
            }
        }
        pairs.sort_by_key(|&(attr, _)| attr);
        Some(pairs)
    }

    /// A link's endpoints as the oracle sees them: whether `a` answers,
    /// whether `b` does, and whether the link is oper-up; `None` for a
    /// link that does not exist.
    fn ends(&self, link: &LinkName) -> Option<Ends> {
        let now = self.0.clock().now();
        self.0.link_snapshot(link)?;
        let reachable = |d: &DeviceName| {
            (self.0.device_snapshot(d))
                .map(|d| d.mgmt_reachable(now))
                .unwrap_or(false)
        };
        Some((
            reachable(&link.a),
            reachable(&link.b),
            self.0.link_oper_up(link),
        ))
    }

    fn cli_execute(&self, device: &DeviceName, command: DeviceCommand) -> Outcome {
        if command.is_routing() {
            let d = (self.0.device_snapshot(device)).ok_or_else(|| timeout(device, "cli-exec"))?;
            if d.model != DeviceModel::BgpRouter {
                return Err(StateError::invalid(format!(
                    "{device} is model {} — routing goes through OpenFlow",
                    d.model
                )));
            }
        }
        Ok(self.0.submit(device, command))
    }
}

/// A link's endpoints: `a` answers, `b` answers, oper-up.
type Ends = (bool, bool, bool);

/// How the by-id endpoint view is read: as the simulator gives it, or
/// through a deliberately broken index the check must catch.
#[derive(Clone, Copy, PartialEq)]
enum Canary {
    /// The product.
    None,
    /// Every link's endpoints swapped: `b` read as `a`.
    SwappedEnds,
    /// Every endpoint read as it was at the previous round.
    StaleEnds,
}

/// Every link's endpoint view by id, in `links` order, through `canary`.
fn block_ends(
    net: &SimNetwork,
    links: &[LinkName],
    canary: Canary,
    previous: &[Option<Ends>],
) -> Vec<Option<Ends>> {
    let mut ends = Vec::new();
    let ids = links.iter().map(|l| ((), net.link_id(l)));
    net.with_link_block(ids, |_, link| {
        ends.push(link.map(|(_, a, b, up)| (a, b, up)));
    });
    match canary {
        Canary::None => {}
        Canary::SwappedEnds => {
            for (a, b, _) in ends.iter_mut().flatten() {
                std::mem::swap(a, b);
            }
        }
        Canary::StaleEnds => {
            for (now, was) in ends.iter_mut().zip(previous) {
                if let (Some((a, b, _)), Some((was_a, was_b, _))) = (now.as_mut(), was) {
                    (*a, *b) = (*was_a, *was_b);
                }
            }
        }
    }
    ends
}

/// What a seed schedules over a topology's sorted names. One link loses
/// both endpoints' management planes at once (a crash with auto-reboot at
/// one end, a management-plane fault at the other); the upgrade and the
/// OpenFlow-agent crash land on devices picked by the seed.
struct History {
    devices: Vec<DeviceName>,
    links: Vec<LinkName>,
    /// The link whose endpoints both stop answering for a while.
    dark: LinkName,
    upgrade: (u64, DeviceName),
}

impl History {
    fn of(graph: &NetworkGraph, seed: u64) -> (History, FaultPlan) {
        let mut devices: Vec<DeviceName> = graph.nodes().map(|(_, n)| n.name.clone()).collect();
        let mut links: Vec<LinkName> = graph.edges().map(|(_, e)| e.name.clone()).collect();
        devices.sort();
        links.sort();
        let pick = |i: u64| devices[((seed + i) % devices.len() as u64) as usize].clone();
        let dark = links[(seed % links.len() as u64) as usize].clone();
        let cut = links[((seed + 1) % links.len() as u64) as usize].clone();
        let at = |min: u64| SimTime::from_mins(min);
        let plan = FaultPlan::ideal()
            .with_event(
                at(2 + seed % 3),
                FaultEvent::RebootDevice {
                    device: dark.a.clone(),
                    down_ms: 3 * 60_000,
                },
            )
            .with_mgmt_outage(&dark.b, at(3 + seed % 2), SimDuration::from_mins(3))
            .with_event(
                at(1),
                FaultEvent::SetPowerUnitReachable {
                    device: pick(3),
                    reachable: false,
                },
            )
            .with_event(
                at(4),
                FaultEvent::SetPhysicalLinkState {
                    link: cut.clone(),
                    cut: true,
                },
            )
            .with_event(
                at(7),
                FaultEvent::SetPhysicalLinkState {
                    link: cut,
                    cut: false,
                },
            )
            .with_event(
                at(5 + seed % 4),
                FaultEvent::CrashOpenFlowAgent { device: pick(5) },
            )
            .with_link_flapping(0.2, SimDuration::from_secs(90));
        let history = History {
            upgrade: (1 + seed % 3, pick(0)),
            dark,
            devices,
            links,
        };
        (history, plan)
    }
}

/// Both reads of one topology through one seed's history, the by-id
/// endpoint view read through `canary`; `Err` names the first call they
/// disagree on. Returns every error the product gave.
fn drive(graph: &NetworkGraph, seed: u64, canary: Canary) -> Result<Vec<StateError>, String> {
    let (history, plan) = History::of(graph, seed);
    let world = || {
        let mut cfg = SimConfig::ideal();
        cfg.seed = seed;
        cfg.faults = plan.clone();
        cfg.faults.reboot_window_ms = 90_000;
        SimNetwork::new(graph, SimClock::new(), cfg)
    };
    let (net, old) = (world(), Snapshots(world()));
    let (snmp, of, cli) = (
        SnmpSim::new(net.clone()),
        OpenFlowSim::new(net.clone()),
        VendorCliSim::new(net.clone()),
    );
    let block = BlockCollector::new(net.clone());
    let mut previous_ends = Vec::new();
    let ghost = DeviceName::new("ghost");
    let mut devices = history.devices.clone();
    devices.push(ghost.clone());
    let mut links = history.links.clone();
    links.push(LinkName::between("ghost", history.devices[0].clone()));
    links.push(LinkName::between(
        history.devices[0].clone(),
        history.devices[1].clone(),
    ));
    let mut errors = Vec::new();
    let mut check = |what: String, new: Reply, old: Reply| {
        if new != old {
            return Err(format!("{what}: {new:?} vs {old:?}"));
        }
        errors.extend(new.err());
        Ok(())
    };
    for round in 0..ROUNDS {
        let (at, device) = &history.upgrade;
        if *at == round {
            let upgrade = || DeviceCommand::UpgradeFirmware {
                version: "7".into(),
            };
            let (new, was) = (
                cli.execute(device, upgrade()),
                old.cli_execute(device, upgrade()),
            );
            if new != was {
                return Err(format!(
                    "round {round}: upgrade {device}: {new:?} vs {was:?}"
                ));
            }
        }
        // A routing command each round, to a seeded device and to a name
        // that does not exist, through both adapters that may carry it.
        let target = &history.devices[((seed + round) % history.devices.len() as u64) as usize];
        for device in [target, &ghost] {
            let route = || DeviceCommand::SetRoutingRules { rules: vec![] };
            let new = [of.execute(device, route()), cli.execute(device, route())];
            let was = [
                old.of_execute(device, route()),
                old.cli_execute(device, route()),
            ];
            if new != was {
                return Err(format!("round {round}: route {device}: {new:?} vs {was:?}"));
            }
        }
        let step = SimDuration::from_mins(1);
        net.step(step);
        old.0.step(step);
        for d in &devices {
            let replies = [
                ("snmp", snmp.collect_device(d), old.snmp_device(d)),
                ("of", of.collect_device(d), old.of_device(d)),
                ("cli", cli.collect_device(d), old.cli_device(d)),
            ];
            for (adapter, new, was) in replies {
                check(format!("round {round}: {adapter} {d}"), new, was)?;
            }
        }
        for l in &links {
            // Only SNMP reports links; the other two answer nothing.
            let replies = [
                ("snmp", snmp.collect_link(l), old.snmp_link(l)),
                ("of", of.collect_link(l), Ok(Vec::new())),
                ("cli", cli.collect_link(l), Ok(Vec::new())),
            ];
            for (adapter, new, was) in replies {
                check(format!("round {round}: {adapter} {l}"), new, was)?;
            }
        }

        // The monitor's by-id poll, a block per entity kind (the block
        // holds the simulator lock, so the oracle reads after it).
        let built = |pairs: Option<&[(Attribute, Reading<'_>)]>| {
            pairs.map(|pairs| (pairs.iter()).map(|&(a, r)| (a, r.to_value())).collect())
        };
        let mut polled: Vec<Option<Vec<(Attribute, Value)>>> = Vec::new();
        let ids = devices.iter().map(|d| ((), net.device_id(d)));
        block.devices(ids, |_, pairs| polled.push(built(pairs)));
        for (d, new) in devices.iter().zip(polled) {
            let was = old.monitor_device(d);
            if new != was {
                return Err(format!("round {round}: block {d}: {new:?} vs {was:?}"));
            }
        }
        let mut polled: Vec<Option<Vec<(Attribute, Value)>>> = Vec::new();
        let ids = links.iter().map(|l| ((), net.link_id(l)));
        block.links(ids, |_, pairs| polled.push(built(pairs)));
        for (l, new) in links.iter().zip(polled) {
            let was = old.snmp_link(l).ok();
            if new != was {
                return Err(format!("round {round}: block {l}: {new:?} vs {was:?}"));
            }
        }
        let ends = block_ends(&net, &links, canary, &previous_ends);
        for (l, new) in links.iter().zip(&ends) {
            let was = old.ends(l);
            if *new != was {
                return Err(format!("round {round}: ends of {l}: {new:?} vs {was:?}"));
            }
        }
        previous_ends = block_ends(&net, &links, Canary::None, &[]);
    }
    Ok(errors)
}

#[test]
fn in_place_adapters_match_the_snapshot_oracle() {
    for (topology, graph) in [
        ("dc", DcnSpec::tiny("dc1").build()),
        ("wan", WanSpec::fig9().build()),
    ] {
        for seed in 1..=4 {
            let errors = drive(&graph, seed, Canary::None)
                .unwrap_or_else(|e| panic!("{topology} seed {seed}: {e}"));
            // The history holds what it is meant to: a link both of whose
            // endpoints are dark, a name that does not exist, and (on the
            // WAN only) BGP routers refusing OpenFlow.
            let (history, _) = History::of(&graph, seed);
            let ghost = DeviceName::new("ghost");
            for expected in [
                timeout(&history.dark, "snmp-walk"),
                timeout(&history.dark.a, "cli-show"),
                timeout(&history.dark.b, "snmp-walk"),
                timeout(&ghost, "snmp-walk"),
                timeout(
                    &LinkName::between(ghost, history.devices[0].clone()),
                    "snmp-walk",
                ),
            ] {
                assert!(
                    errors.contains(&expected),
                    "{topology} seed {seed}: {expected:?}"
                );
            }
            let invalid = errors
                .iter()
                .any(|e| matches!(e, StateError::InvalidRequest { .. }));
            assert_eq!(invalid, topology == "wan", "{topology} seed {seed}");
        }
    }
}

#[test]
fn a_broken_endpoint_index_is_caught() {
    for (topology, graph) in [
        ("dc", DcnSpec::tiny("dc1").build()),
        ("wan", WanSpec::fig9().build()),
    ] {
        for canary in [Canary::SwappedEnds, Canary::StaleEnds] {
            // Each seed's history has a link with one end dark while the
            // other answers, and endpoints that change between rounds.
            for seed in 1..=4 {
                let caught = drive(&graph, seed, canary).is_err_and(|e| e.contains("ends of"));
                assert!(caught, "{topology} seed {seed}: a broken index passed");
            }
        }
    }
}
