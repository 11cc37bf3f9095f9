//! The state dependency model (paper §4.1, Fig 4).
//!
//! "B depends on A: A is a prerequisite for writing B states; B is
//! controllable only if A's value is appropriate." The model is the
//! checker's first gate: a proposal for a variable whose ancestors are not
//! in an appropriate *observed* state is rejected outright
//! (`RejectedUncontrollable`), because no command sequence could realize
//! it right now.
//!
//! The Fig-4 chains:
//!
//! ```text
//!   Path/Traffic Setup ──▶ Routing Control (of every on-path switch)
//!   Link Interface Config ──▶ Link Power ──▶ Device Configuration (both ends)
//!   Routing Control ──▶ Device Configuration ──▶ OS Setup ──▶ Device Power
//! ```
//!
//! The model is deliberately *data*, not code: a list of [`DependencyRule`]s
//! keyed by the level of the proposed variable. Operators extend it by
//! pushing rules (the lecture slides ask exactly this — "how to extend the
//! dependency model?"); tests exercise a custom rule.

use crate::view::StateView;
use statesman_types::{Attribute, DependencyLevel, EntityName, StateKey, Value};
use std::fmt;

/// Why a variable is uncontrollable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Uncontrollable {
    /// The failing prerequisite, human-readable.
    pub reason: String,
}

impl fmt::Display for Uncontrollable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

/// One dependency rule: given a proposed (key, value) and the observed
/// state, decide whether the prerequisite holds.
pub trait DependencyRule: Send + Sync {
    /// The level this rule guards (rules fire for proposals at this level).
    fn guards(&self) -> DependencyLevel;
    /// Check the prerequisite. `Ok(())` = controllable so far.
    fn check(
        &self,
        key: &StateKey,
        proposed: &Value,
        os: &dyn StateView,
    ) -> Result<(), Uncontrollable>;
    /// Rule name for diagnostics.
    fn name(&self) -> &'static str;
}

/// The model: an ordered rule list. All rules guarding the proposal's
/// level must pass.
///
/// ```
/// use statesman_core::deps::DependencyModel;
/// use statesman_core::MapView;
/// use statesman_types::{Attribute, EntityName, StateKey, Value};
///
/// let model = DependencyModel::standard();
/// let os = MapView::new(); // empty OS: bootstrap defaults apply
/// let key = StateKey::new(
///     EntityName::device("dc1", "agg-1-1"),
///     Attribute::DeviceAdminPower,
/// );
/// assert!(model.check_controllable(&key, &Value::power(true), &os).is_ok());
/// ```
pub struct DependencyModel {
    rules: Vec<Box<dyn DependencyRule>>,
}

impl DependencyModel {
    /// An empty model (everything controllable) — for tests and ablations.
    pub fn permissive() -> Self {
        DependencyModel { rules: Vec::new() }
    }

    /// The standard Fig-4 model.
    pub fn standard() -> Self {
        let mut m = DependencyModel::permissive();
        m.add_rule(Box::new(rules::DevicePowerNeedsPdu));
        m.add_rule(Box::new(rules::OsSetupNeedsPower));
        m.add_rule(Box::new(rules::DeviceConfigNeedsFirmware));
        m.add_rule(Box::new(rules::RoutingNeedsDeviceConfig));
        m.add_rule(Box::new(rules::LinkPowerNeedsEndpointConfig));
        m.add_rule(Box::new(rules::LinkConfigNeedsLinkAdminUp));
        m.add_rule(Box::new(rules::PathNeedsOnPathRouting));
        m
    }

    /// Extend the model with a custom rule (operator extension point).
    pub fn add_rule(&mut self, rule: Box<dyn DependencyRule>) {
        self.rules.push(rule);
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Is the proposed write controllable given the observed state?
    ///
    /// Counters and read-only variables are never proposable — that is
    /// enforced by permission checks upstream; this function only encodes
    /// prerequisite structure. Lock writes are always controllable (locks
    /// are Statesman metadata, not device state).
    pub fn check_controllable(
        &self,
        key: &StateKey,
        proposed: &Value,
        os: &dyn StateView,
    ) -> Result<(), Uncontrollable> {
        let level = key.attribute.dependency_level();
        if matches!(level, DependencyLevel::Meta | DependencyLevel::Counter) {
            return Ok(());
        }
        for rule in &self.rules {
            if rule.guards() == level {
                rule.check(key, proposed, os)?;
            }
        }
        Ok(())
    }
}

/// Helpers shared by the standard rules.
mod helpers {
    use super::*;

    /// Device admin power observed on (defaults to on when unobserved —
    /// a fresh deployment bootstraps bottom-up and the monitor fills the
    /// OS quickly; absent rows must not wedge the first pass).
    pub fn device_power_on(os: &dyn StateView, dev: &EntityName) -> bool {
        os.value_of(dev, Attribute::DeviceAdminPower)
            .and_then(|v| v.as_power())
            .map(|p| p.is_on())
            .unwrap_or(true)
    }

    /// Firmware observed present and non-empty.
    pub fn firmware_running(os: &dyn StateView, dev: &EntityName) -> bool {
        os.value_of(dev, Attribute::DeviceFirmwareVersion)
            .and_then(|v| v.as_text())
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    }

    /// Management interface observed configured (defaults true when
    /// unobserved, same bootstrap rationale as power).
    pub fn mgmt_configured(os: &dyn StateView, dev: &EntityName) -> bool {
        os.value_of(dev, Attribute::DeviceMgmtInterface)
            .and_then(|v| v.as_bool())
            .unwrap_or(true)
    }

    /// The device entity for a device name in the same datacenter.
    pub fn device_entity(of: &EntityName, name: &statesman_types::DeviceName) -> EntityName {
        EntityName::device(of.datacenter.clone(), name.clone())
    }
}

/// The standard Fig-4 rules.
pub mod rules {
    use super::helpers::*;
    use super::*;

    /// Device power is controllable only if the PDU answers.
    pub struct DevicePowerNeedsPdu;
    impl DependencyRule for DevicePowerNeedsPdu {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::DevicePower
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            let reachable = os
                .value_of(&key.entity, Attribute::DevicePowerUnitReachable)
                .and_then(|v| v.as_bool())
                .unwrap_or(true);
            if reachable {
                Ok(())
            } else {
                Err(Uncontrollable {
                    reason: format!("power unit of {} unreachable", key.entity),
                })
            }
        }
        fn name(&self) -> &'static str {
            "device-power-needs-pdu"
        }
    }

    /// Firmware/boot-image changes need the device powered.
    pub struct OsSetupNeedsPower;
    impl DependencyRule for OsSetupNeedsPower {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::OperatingSystemSetup
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            if device_power_on(os, &key.entity) {
                Ok(())
            } else {
                Err(Uncontrollable {
                    reason: format!("{} is powered off", key.entity),
                })
            }
        }
        fn name(&self) -> &'static str {
            "os-setup-needs-power"
        }
    }

    /// Device configuration needs a running firmware (and power,
    /// transitively observed through firmware presence).
    pub struct DeviceConfigNeedsFirmware;
    impl DependencyRule for DeviceConfigNeedsFirmware {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::DeviceConfiguration
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            if !device_power_on(os, &key.entity) {
                return Err(Uncontrollable {
                    reason: format!("{} is powered off", key.entity),
                });
            }
            if firmware_running(os, &key.entity) {
                Ok(())
            } else {
                Err(Uncontrollable {
                    reason: format!("{} has no observed running firmware", key.entity),
                })
            }
        }
        fn name(&self) -> &'static str {
            "device-config-needs-firmware"
        }
    }

    /// Routing control needs the device configuration level healthy:
    /// management reachable, and (for OpenFlow-controlled devices) the
    /// agent observed running.
    pub struct RoutingNeedsDeviceConfig;
    impl DependencyRule for RoutingNeedsDeviceConfig {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::RoutingControl
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            if !device_power_on(os, &key.entity) {
                return Err(Uncontrollable {
                    reason: format!("{} is powered off", key.entity),
                });
            }
            if !mgmt_configured(os, &key.entity) {
                return Err(Uncontrollable {
                    reason: format!("{} management interface not configured", key.entity),
                });
            }
            // If the OS records an OpenFlow agent at all, it must be
            // running; devices without the row are BGP-controlled.
            if let Some(v) = os.value_of(&key.entity, Attribute::DeviceOpenFlowAgent) {
                if v.as_bool() == Some(false) {
                    return Err(Uncontrollable {
                        reason: format!("{} OpenFlow agent is down", key.entity),
                    });
                }
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "routing-needs-device-config"
        }
    }

    /// Link power is controllable only when both endpoint devices are
    /// configured (Fig 4's cross-entity edge).
    pub struct LinkPowerNeedsEndpointConfig;
    impl DependencyRule for LinkPowerNeedsEndpointConfig {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::LinkPower
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            let Some(link) = key.entity.as_link() else {
                return Err(Uncontrollable {
                    reason: format!("{} is not a link", key.entity),
                });
            };
            for end in [&link.a, &link.b] {
                let dev = device_entity(&key.entity, end);
                if !device_power_on(os, &dev) {
                    return Err(Uncontrollable {
                        reason: format!("endpoint {end} is powered off"),
                    });
                }
                if !mgmt_configured(os, &dev) {
                    return Err(Uncontrollable {
                        reason: format!("endpoint {end} management not configured"),
                    });
                }
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "link-power-needs-endpoint-config"
        }
    }

    /// Link interface configuration follows link power: the interface must
    /// be admin-up to be configured.
    pub struct LinkConfigNeedsLinkAdminUp;
    impl DependencyRule for LinkConfigNeedsLinkAdminUp {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::LinkInterfaceConfig
        }
        fn check(
            &self,
            key: &StateKey,
            _proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            let admin_up = os
                .value_of(&key.entity, Attribute::LinkAdminPower)
                .and_then(|v| v.as_power())
                .map(|p| p.is_on())
                .unwrap_or(true);
            if admin_up {
                Ok(())
            } else {
                Err(Uncontrollable {
                    reason: format!("{} is admin-down", key.entity),
                })
            }
        }
        fn name(&self) -> &'static str {
            "link-config-needs-admin-up"
        }
    }

    /// Path/traffic setup requires every on-path switch's routing level to
    /// be controllable. The switch list comes from the proposed
    /// `PathSwitches` value, or from the observed path row when the
    /// proposal only changes traffic allocation.
    pub struct PathNeedsOnPathRouting;
    impl DependencyRule for PathNeedsOnPathRouting {
        fn guards(&self) -> DependencyLevel {
            DependencyLevel::PathTrafficSetup
        }
        fn check(
            &self,
            key: &StateKey,
            proposed: &Value,
            os: &dyn StateView,
        ) -> Result<(), Uncontrollable> {
            let switches: Vec<statesman_types::DeviceName> = match proposed.as_device_list() {
                Some(list) => list.to_vec(),
                None => os
                    .value_of(&key.entity, Attribute::PathSwitches)
                    .and_then(|v| v.as_device_list().map(|l| l.to_vec()))
                    .unwrap_or_default(),
            };
            let routing_rule = RoutingNeedsDeviceConfig;
            for sw in &switches {
                let dev = device_entity(&key.entity, sw);
                let pseudo_key = StateKey::new(dev, Attribute::DeviceRoutingRules);
                routing_rule
                    .check(&pseudo_key, &Value::None, os)
                    .map_err(|u| Uncontrollable {
                        reason: format!("on-path switch {sw}: {u}"),
                    })?;
            }
            Ok(())
        }
        fn name(&self) -> &'static str {
            "path-needs-on-path-routing"
        }
    }
}

/// The blast radius of one round's state changes, derived from the Fig-4
/// dependency model: a changed variable can only shift the health
/// projection of its own entity, and through it the invariants scoped to
/// the pods and datacenters that entity (or, for links and paths, its
/// endpoint devices) lives in. The incremental checker re-projects only
/// [`BlastRadius::entities`] and re-evaluates only the invariants for
/// which [`crate::invariants::Invariant::affected_by`] returns true;
/// everything outside the radius keeps its cached verdict.
#[derive(Debug, Clone, Default)]
pub struct BlastRadius {
    /// Device and link entities whose projection inputs changed
    /// (deduplicated; paths never enter — they carry no health).
    pub entities: Vec<EntityName>,
    /// Pods the changes can reach: each changed device's pod, both ends'
    /// pods for a link, every on-path switch's pod for a path. `None`
    /// when any of those devices is pod-less (core/border) or unknown —
    /// fabric-wide reach. The one reach rule of the seed re-check, a
    /// candidate's check and a plan step's in-flight check.
    pub pods: Option<std::collections::HashSet<(statesman_types::DatacenterId, u32)>>,
    /// Datacenters the changes can reach. Complete even when `pods` is
    /// `None`, so DC-scoped invariants outside it stay safely skippable.
    pub dcs: std::collections::HashSet<statesman_types::DatacenterId>,
    /// True when a WAN-homed entity or a border device changed — the WAN
    /// link invariant's support.
    pub wan: bool,
}

impl BlastRadius {
    /// Can the changes reach `dc`?
    pub fn affects_dc(&self, dc: &statesman_types::DatacenterId) -> bool {
        self.dcs.contains(dc)
    }

    /// Can the changes reach the WAN plane?
    pub fn affects_wan(&self) -> bool {
        self.wan
    }
}

/// Compute the blast radius of a set of changed variables. Each item is
/// the variable's entity plus its current value when known (`None` for
/// deletes); path values contribute their on-path device lists.
pub fn blast_radius<'a>(
    graph: &statesman_topology::NetworkGraph,
    changed: impl IntoIterator<Item = (&'a EntityName, Option<&'a Value>)>,
) -> BlastRadius {
    use statesman_types::entity::EntityBody;
    use statesman_types::DeviceRole;

    let mut entities: Vec<EntityName> = Vec::new();
    let mut seen: std::collections::BTreeSet<EntityName> = std::collections::BTreeSet::new();
    let mut pods = std::collections::HashSet::new();
    let mut unbounded = false;
    let mut dcs = std::collections::HashSet::new();
    let mut wan = false;

    fn add_device(
        graph: &statesman_topology::NetworkGraph,
        name: &statesman_types::DeviceName,
        home: &statesman_types::DatacenterId,
        pods: &mut std::collections::HashSet<(statesman_types::DatacenterId, u32)>,
        unbounded: &mut bool,
        dcs: &mut std::collections::HashSet<statesman_types::DatacenterId>,
        wan: &mut bool,
    ) {
        match graph.node_id(name) {
            Some(id) => {
                let info = graph.node(id);
                dcs.insert(info.datacenter.clone());
                if info.datacenter.is_wan() || info.role == DeviceRole::Border {
                    *wan = true;
                }
                match info.pod {
                    Some(pod) => {
                        pods.insert((info.datacenter.clone(), pod));
                    }
                    None => *unbounded = true,
                }
            }
            None => {
                // Unknown to the topology: it cannot shift any projection,
                // but stay conservative about reach.
                dcs.insert(home.clone());
                *unbounded = true;
            }
        }
    }

    for (entity, value) in changed {
        match &entity.body {
            EntityBody::Device(d) => {
                add_device(
                    graph,
                    d,
                    &entity.datacenter,
                    &mut pods,
                    &mut unbounded,
                    &mut dcs,
                    &mut wan,
                );
                if seen.insert(entity.clone()) {
                    entities.push(entity.clone());
                }
            }
            EntityBody::Link(l) => {
                for end in [&l.a, &l.b] {
                    add_device(
                        graph,
                        end,
                        &entity.datacenter,
                        &mut pods,
                        &mut unbounded,
                        &mut dcs,
                        &mut wan,
                    );
                }
                if entity.datacenter.is_wan() {
                    wan = true;
                } else {
                    dcs.insert(entity.datacenter.clone());
                }
                if seen.insert(entity.clone()) {
                    entities.push(entity.clone());
                }
            }
            EntityBody::Path(_) => {
                // Paths carry no device/link health; their reach is the
                // on-path switch list when the value still has one.
                if let Some(list) = value.and_then(|v| v.as_device_list()) {
                    for d in list {
                        add_device(
                            graph,
                            d,
                            &entity.datacenter,
                            &mut pods,
                            &mut unbounded,
                            &mut dcs,
                            &mut wan,
                        );
                    }
                }
            }
        }
    }

    BlastRadius {
        entities,
        pods: if unbounded { None } else { Some(pods) },
        dcs,
        wan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::MapView;
    use statesman_types::{AppId, DeviceName, NetworkState, SimTime};

    fn dev(name: &str) -> EntityName {
        EntityName::device("dc1", name)
    }

    fn link(a: &str, b: &str) -> EntityName {
        EntityName::link("dc1", a, b)
    }

    fn row(e: EntityName, a: Attribute, v: Value) -> NetworkState {
        NetworkState::new(e, a, v, SimTime::ZERO, AppId::monitor())
    }

    fn healthy_os() -> MapView {
        MapView::from_rows([
            row(
                dev("agg-1-1"),
                Attribute::DeviceAdminPower,
                Value::power(true),
            ),
            row(
                dev("agg-1-1"),
                Attribute::DeviceFirmwareVersion,
                Value::text("6.0"),
            ),
            row(
                dev("agg-1-1"),
                Attribute::DeviceMgmtInterface,
                Value::Bool(true),
            ),
            row(
                dev("agg-1-1"),
                Attribute::DeviceOpenFlowAgent,
                Value::Bool(true),
            ),
            row(
                dev("agg-1-1"),
                Attribute::DevicePowerUnitReachable,
                Value::Bool(true),
            ),
        ])
    }

    #[test]
    fn healthy_device_is_fully_controllable() {
        let m = DependencyModel::standard();
        let os = healthy_os();
        for attr in [
            Attribute::DeviceAdminPower,
            Attribute::DeviceFirmwareVersion,
            Attribute::DeviceMgmtInterface,
            Attribute::DeviceRoutingRules,
        ] {
            let key = StateKey::new(dev("agg-1-1"), attr);
            assert!(
                m.check_controllable(&key, &Value::text("x"), &os).is_ok(),
                "{attr}"
            );
        }
    }

    #[test]
    fn powered_off_device_blocks_higher_levels() {
        let m = DependencyModel::standard();
        let mut os = healthy_os();
        os.upsert(row(
            dev("agg-1-1"),
            Attribute::DeviceAdminPower,
            Value::power(false),
        ));
        for attr in [
            Attribute::DeviceFirmwareVersion,
            Attribute::DeviceMgmtInterface,
            Attribute::DeviceRoutingRules,
        ] {
            let key = StateKey::new(dev("agg-1-1"), attr);
            let err = m
                .check_controllable(&key, &Value::text("x"), &os)
                .unwrap_err();
            assert!(err.reason.contains("powered off"), "{attr}: {err}");
        }
        // ...but power itself stays controllable (to turn it back on).
        let key = StateKey::new(dev("agg-1-1"), Attribute::DeviceAdminPower);
        assert!(m.check_controllable(&key, &Value::power(true), &os).is_ok());
    }

    #[test]
    fn unreachable_pdu_blocks_power_control() {
        let m = DependencyModel::standard();
        let mut os = healthy_os();
        os.upsert(row(
            dev("agg-1-1"),
            Attribute::DevicePowerUnitReachable,
            Value::Bool(false),
        ));
        let key = StateKey::new(dev("agg-1-1"), Attribute::DeviceAdminPower);
        assert!(m
            .check_controllable(&key, &Value::power(false), &os)
            .is_err());
    }

    #[test]
    fn missing_firmware_blocks_config() {
        let m = DependencyModel::standard();
        let os = MapView::from_rows([row(
            dev("agg-1-1"),
            Attribute::DeviceAdminPower,
            Value::power(true),
        )]);
        let key = StateKey::new(dev("agg-1-1"), Attribute::DeviceOpenFlowAgent);
        let err = m
            .check_controllable(&key, &Value::Bool(true), &os)
            .unwrap_err();
        assert!(err.reason.contains("firmware"), "{err}");
    }

    #[test]
    fn down_of_agent_blocks_routing() {
        let m = DependencyModel::standard();
        let mut os = healthy_os();
        os.upsert(row(
            dev("agg-1-1"),
            Attribute::DeviceOpenFlowAgent,
            Value::Bool(false),
        ));
        let key = StateKey::new(dev("agg-1-1"), Attribute::DeviceRoutingRules);
        let err = m
            .check_controllable(&key, &Value::Routes(vec![]), &os)
            .unwrap_err();
        assert!(err.reason.contains("OpenFlow agent"), "{err}");
    }

    #[test]
    fn link_power_needs_both_endpoints() {
        let m = DependencyModel::standard();
        let mut os = healthy_os();
        // tor-1-1 is absent from OS → defaults treat it as configured.
        let key = StateKey::new(link("tor-1-1", "agg-1-1"), Attribute::LinkAdminPower);
        assert!(m
            .check_controllable(&key, &Value::power(false), &os)
            .is_ok());

        os.upsert(row(
            dev("tor-1-1"),
            Attribute::DeviceAdminPower,
            Value::power(false),
        ));
        let err = m
            .check_controllable(&key, &Value::power(false), &os)
            .unwrap_err();
        assert!(err.reason.contains("tor-1-1"), "{err}");
    }

    #[test]
    fn link_config_needs_admin_up() {
        let m = DependencyModel::standard();
        let os = MapView::from_rows([row(
            link("a", "b"),
            Attribute::LinkAdminPower,
            Value::power(false),
        )]);
        let key = StateKey::new(link("a", "b"), Attribute::LinkIpAssignment);
        assert!(m
            .check_controllable(&key, &Value::text("10.0.0.1"), &os)
            .is_err());
    }

    #[test]
    fn path_checks_all_on_path_switches() {
        let m = DependencyModel::standard();
        let mut os = healthy_os();
        os.upsert(row(
            dev("agg-1-2"),
            Attribute::DeviceAdminPower,
            Value::power(false),
        ));
        let path = EntityName::path("dc1", "p0");
        let key = StateKey::new(path, Attribute::PathSwitches);
        let good = Value::DeviceList(vec![DeviceName::new("agg-1-1")]);
        assert!(m.check_controllable(&key, &good, &os).is_ok());
        let bad = Value::DeviceList(vec![DeviceName::new("agg-1-1"), DeviceName::new("agg-1-2")]);
        let err = m.check_controllable(&key, &bad, &os).unwrap_err();
        assert!(err.reason.contains("agg-1-2"), "{err}");
    }

    #[test]
    fn path_allocation_uses_observed_switch_list() {
        let m = DependencyModel::standard();
        let path = EntityName::path("dc1", "p0");
        let mut os = healthy_os();
        os.upsert(row(
            path.clone(),
            Attribute::PathSwitches,
            Value::DeviceList(vec![DeviceName::new("agg-1-1")]),
        ));
        let key = StateKey::new(path, Attribute::PathTrafficAllocation);
        assert!(m
            .check_controllable(&key, &Value::Float(100.0), &os)
            .is_ok());
    }

    #[test]
    fn locks_and_counters_bypass_the_model() {
        let m = DependencyModel::standard();
        let os = MapView::new();
        let key = StateKey::new(dev("agg-1-1"), Attribute::EntityLock);
        assert!(m.check_controllable(&key, &Value::None, &os).is_ok());
    }

    #[test]
    fn custom_rules_extend_the_model() {
        struct FreezeFirmware;
        impl DependencyRule for FreezeFirmware {
            fn guards(&self) -> DependencyLevel {
                DependencyLevel::OperatingSystemSetup
            }
            fn check(
                &self,
                _key: &StateKey,
                _proposed: &Value,
                _os: &dyn StateView,
            ) -> Result<(), Uncontrollable> {
                Err(Uncontrollable {
                    reason: "change freeze in effect".into(),
                })
            }
            fn name(&self) -> &'static str {
                "freeze-firmware"
            }
        }
        let mut m = DependencyModel::standard();
        let before = m.rule_count();
        m.add_rule(Box::new(FreezeFirmware));
        assert_eq!(m.rule_count(), before + 1);
        let os = healthy_os();
        let key = StateKey::new(dev("agg-1-1"), Attribute::DeviceFirmwareVersion);
        let err = m
            .check_controllable(&key, &Value::text("7.0"), &os)
            .unwrap_err();
        assert!(err.reason.contains("freeze"), "{err}");
    }

    #[test]
    fn blast_radius_reach_on_the_fig7_and_wan_fabric() {
        use statesman_topology::{DcnSpec, WanSpec};
        use statesman_types::DatacenterId;
        use std::collections::HashSet;
        let mut graph = DcnSpec::fig7("dc1").build();
        WanSpec::fig9().build_into(&mut graph);
        let radius = |changed: &[(EntityName, Option<Value>)]| {
            blast_radius(&graph, changed.iter().map(|(e, v)| (e, v.as_ref())))
        };
        let pods = |list: &[u32]| {
            Some(
                list.iter()
                    .map(|&p| (DatacenterId::new("dc1"), p))
                    .collect(),
            )
        };
        let dcs = |list: &[&str]| -> HashSet<DatacenterId> {
            list.iter().map(|&d| DatacenterId::new(d)).collect()
        };
        let switches = |list: &[&str]| {
            Some(Value::DeviceList(
                list.iter().map(|&d| DeviceName::new(d)).collect(),
            ))
        };

        // A device reaches its own pod; a second row on it adds nothing.
        let fw = Some(Value::text("7.0"));
        let r = radius(&[(dev("agg-3-2"), fw.clone()), (dev("agg-3-2"), None)]);
        assert_eq!(r.entities, vec![dev("agg-3-2")]);
        assert_eq!((r.pods, r.dcs, r.wan), (pods(&[3]), dcs(&["dc1"]), false));

        // A link reaches the pods of both ends.
        let r = radius(&[(link("tor-2-1", "agg-2-3"), None)]);
        assert_eq!(r.entities, vec![link("tor-2-1", "agg-2-3")]);
        assert_eq!((r.pods, r.dcs, r.wan), (pods(&[2]), dcs(&["dc1"]), false));
        let r = radius(&[(link("tor-1-1", "agg-7-1"), None)]);
        assert_eq!(
            (r.pods, r.dcs, r.wan),
            (pods(&[1, 7]), dcs(&["dc1"]), false)
        );

        // A path reaches through its switch list and is no entity; without
        // a list (a delete) it reaches nothing.
        let path = EntityName::path("dc1", "p0");
        let r = radius(&[(path.clone(), switches(&["tor-4-1", "agg-4-1", "tor-6-2"]))]);
        assert!(r.entities.is_empty());
        assert_eq!(
            (r.pods, r.dcs, r.wan),
            (pods(&[4, 6]), dcs(&["dc1"]), false)
        );
        let r = radius(&[(path, None)]);
        assert!(r.entities.is_empty());
        assert_eq!((r.pods, r.dcs, r.wan), (pods(&[]), dcs(&[]), false));

        // A core, a border and an unknown device are fabric-wide; only the
        // border reaches the WAN, and the unknown one its home DC.
        let r = radius(&[(dev("core-2"), None), (dev("agg-1-1"), None)]);
        assert_eq!(r.entities, vec![dev("core-2"), dev("agg-1-1")]);
        assert_eq!((r.pods, r.dcs, r.wan), (None, dcs(&["dc1"]), false));
        let r = radius(&[(dev("br-2"), None)]);
        assert_eq!((r.pods, r.dcs, r.wan), (None, dcs(&["dc1"]), true));
        let r = radius(&[(EntityName::device("dc9", "ghost"), None)]);
        assert_eq!((r.pods, r.dcs, r.wan), (None, dcs(&["dc9"]), false));

        // A WAN link reaches both border routers' DCs and the WAN plane.
        let wan_link = EntityName::link(DatacenterId::wan(), "br-1", "br-3");
        let r = radius(&[(wan_link.clone(), None)]);
        assert_eq!(r.entities, vec![wan_link]);
        assert_eq!((r.pods, r.dcs, r.wan), (None, dcs(&["dc1", "dc2"]), true));
    }

    #[test]
    fn permissive_model_allows_everything() {
        let m = DependencyModel::permissive();
        let os = MapView::new();
        let key = StateKey::new(dev("x"), Attribute::DeviceRoutingRules);
        assert!(m
            .check_controllable(&key, &Value::Routes(vec![]), &os)
            .is_ok());
    }
}
