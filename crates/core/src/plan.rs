//! Update-plan synthesis: ordered, minimal, maximally-parallel transitions.
//!
//! The paper's updater walks the Fig-4 dependency chain one impact group
//! at a time, which guarantees safety only *between* rounds — the
//! intermediate states a transition passes through are unchecked. This
//! module closes that gap in the spirit of "Toward Synthesis of Network
//! Updates" (ordering commands so invariants hold *during* the
//! transition) and ez-Segway (independent segments proceed without
//! central serialization): a round's TS−OS difference set is compiled
//! into an [`UpdatePlan`] — an explicit partial order (DAG) of command
//! steps.
//!
//! Two properties matter:
//!
//! * **Ordered**: steps touching the same device (or a link and its
//!   endpoint devices) are sequenced bottom-up along the Fig-4 chains —
//!   device power before OS setup before device configuration before
//!   routing control; link power after both endpoints' device
//!   configuration and before link interface configuration. The diff's
//!   key order sorts attributes by catalogue position, which can put a
//!   routing change *before* the power-on it depends on; the plan
//!   cannot.
//! * **Maximally parallel**: steps with no chain between them — distinct
//!   devices, distinct pods, distinct datacenters (the per-partition
//!   boundary of the diff stage, and the per-pod boundary of
//!   [`crate::deps::blast_radius`]) — share a wave. Waves are antichains
//!   of the DAG; the plan's width is the measured parallelism the
//!   topology permits. Execution of network effects stays single-threaded
//!   and seeded (see `updater.rs`) so chaos double-run determinism is
//!   preserved; the waves record what *could* run concurrently and bound
//!   what must not.
//!
//! Cycles cannot arise from the built-in Fig-4 edges (they always point
//! from a strictly lower chain rank to a higher one), but callers may
//! inject custom edges via [`UpdatePlan::from_steps`]; a cycle among
//! those is broken deterministically at the lowest-index member and
//! counted in [`UpdatePlan::cycles_broken`], so a malformed dependency
//! set degrades to a deterministic order instead of wedging the round.

use crate::deps::{blast_radius, BlastRadius};
use statesman_topology::NetworkGraph;
use statesman_types::entity::EntityBody;
use statesman_types::{DependencyLevel, DeviceName, EntityName, NetworkState};
use std::collections::BTreeMap;

/// One command step of an [`UpdatePlan`]: a single differing variable,
/// the device that will carry its commands, its blast radius (for
/// pod-scoped in-flight invariant checks), and the indices of the steps
/// that must commit before it may.
#[derive(Debug)]
pub struct PlanStep {
    /// The TS row to realize (owned — plans outlive the round's borrows).
    pub row: NetworkState,
    /// The device the rendered commands land on (`None` for rows with no
    /// reachable carrier; they surface as unrenderable at execution).
    pub device: Option<DeviceName>,
    /// The step's blast radius: which pods/datacenters its transition can
    /// reach, gating which invariants are re-checked in flight.
    pub radius: BlastRadius,
    /// Indices (into [`UpdatePlan::steps`]) of prerequisite steps.
    pub deps: Vec<usize>,
}

impl PlanStep {
    /// A step for `row` carried by `device`, with its radius derived from
    /// `graph` and no dependencies yet.
    pub fn new(graph: &NetworkGraph, row: NetworkState, device: Option<DeviceName>) -> Self {
        let radius = blast_radius(graph, [(&row.entity, Some(&row.value))]);
        PlanStep {
            row,
            device,
            radius,
            deps: Vec::new(),
        }
    }
}

/// An explicit partial order of command steps for one update round:
/// `waves[0]` holds every step with no prerequisites, `waves[k]` every
/// step whose prerequisites all sit in earlier waves. Step indices within
/// a wave are ascending, which is the synthesis input order — partition
/// order, then global key order — so a dependency-free plan executes in
/// exactly the diff's order.
#[derive(Debug, Default)]
pub struct UpdatePlan {
    /// All steps, in synthesis input order.
    pub steps: Vec<PlanStep>,
    /// Antichain layering of the DAG (indices into `steps`).
    pub waves: Vec<Vec<usize>>,
    /// Dependency cycles broken during layering (always zero for plans
    /// synthesized from the Fig-4 edges alone).
    pub cycles_broken: usize,
}

/// Rank of a device-chain level along Fig 4, bottom-up. Link and path
/// levels are `None`: their cross-entity edges are added explicitly.
fn device_rank(level: DependencyLevel) -> Option<u8> {
    match level {
        DependencyLevel::DevicePower => Some(0),
        DependencyLevel::OperatingSystemSetup => Some(1),
        DependencyLevel::DeviceConfiguration => Some(2),
        DependencyLevel::RoutingControl => Some(3),
        _ => None,
    }
}

impl UpdatePlan {
    /// Synthesize a plan from a round's difference set. `rows` must be in
    /// the round's deterministic order (partition order, then key order);
    /// each entry carries the row and its carrier device.
    pub fn synthesize(graph: &NetworkGraph, rows: Vec<(NetworkState, Option<DeviceName>)>) -> Self {
        let mut steps: Vec<PlanStep> = rows
            .into_iter()
            .map(|(row, device)| PlanStep::new(graph, row, device))
            .collect();
        fig4_deps(&mut steps);
        Self::from_steps(steps)
    }

    /// Layer pre-built steps (with `deps` already filled) into waves.
    /// This is the entry point for custom dependency sets; cycles are
    /// broken deterministically (lowest-index member first) and counted.
    pub fn from_steps(steps: Vec<PlanStep>) -> Self {
        let n = steps.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg: Vec<usize> = vec![0; n];
        for (i, step) in steps.iter().enumerate() {
            for &d in &step.deps {
                if d < n && d != i {
                    succ[d].push(i);
                    indeg[i] += 1;
                }
            }
        }
        let mut placed = vec![false; n];
        let mut waves: Vec<Vec<usize>> = Vec::new();
        let mut remaining = n;
        let mut cycles_broken = 0usize;
        while remaining > 0 {
            let mut wave: Vec<usize> = (0..n).filter(|&i| !placed[i] && indeg[i] == 0).collect();
            if wave.is_empty() {
                // Every remaining step waits on another remaining step:
                // a cycle. Break it at the lowest-index member so the
                // result is a pure function of the input.
                let victim = (0..n).find(|&i| !placed[i]).expect("remaining > 0");
                cycles_broken += 1;
                wave.push(victim);
            }
            for &i in &wave {
                placed[i] = true;
                remaining -= 1;
            }
            for &i in &wave {
                for &s in &succ[i] {
                    if !placed[s] {
                        indeg[s] -= 1;
                    }
                }
            }
            waves.push(wave);
        }
        UpdatePlan {
            steps,
            waves,
            cycles_broken,
        }
    }

    /// Total steps in the plan.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of execution waves (the DAG's depth).
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// The widest wave — the measured parallelism the dependency
    /// structure permits.
    pub fn max_width(&self) -> usize {
        self.waves.iter().map(|w| w.len()).max().unwrap_or(0)
    }

    /// True when the difference set was empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Distinct independence segments the steps fall into: one per
    /// reachable `(datacenter, pod)` pair, plus one shared segment for
    /// steps with fabric-wide reach (pod-less or unknown devices).
    pub fn segment_count(&self) -> usize {
        let mut segments: std::collections::BTreeSet<Option<(String, u32)>> =
            std::collections::BTreeSet::new();
        for step in &self.steps {
            match &step.radius.pods {
                Some(pods) => {
                    for (dc, pod) in pods {
                        segments.insert(Some((dc.to_string(), *pod)));
                    }
                }
                None => {
                    segments.insert(None);
                }
            }
        }
        segments.len()
    }
}

/// Fill `deps` from the Fig-4 chains:
///
/// * same-device steps: lower device rank before higher (power → OS
///   setup → configuration → routing control);
/// * link steps: after both endpoints' device-chain steps up to
///   `DeviceConfiguration` ("link power depends on the device
///   configuration of both ends");
/// * `LinkInterfaceConfig` steps: additionally after the same link's
///   `LinkPower` steps.
fn fig4_deps(steps: &mut [PlanStep]) {
    let mut by_device: BTreeMap<DeviceName, Vec<(usize, u8)>> = BTreeMap::new();
    let mut by_link: BTreeMap<EntityName, Vec<usize>> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        match &step.row.entity.body {
            EntityBody::Device(d) => {
                if let Some(rank) = device_rank(step.row.attribute.dependency_level()) {
                    by_device.entry(d.clone()).or_default().push((i, rank));
                }
            }
            EntityBody::Link(_) => {
                by_link.entry(step.row.entity.clone()).or_default().push(i);
            }
            EntityBody::Path(_) => {}
        }
    }
    // Device chains: each step depends on every strictly-lower-rank step
    // of the same device.
    for chain in by_device.values() {
        for &(i, rank_i) in chain {
            for &(j, rank_j) in chain {
                if rank_j < rank_i {
                    steps[i].deps.push(j);
                }
            }
        }
    }
    // Link steps: depend on both endpoints' device-chain steps at or
    // below DeviceConfiguration, and LinkInterfaceConfig on the link's
    // own LinkPower steps.
    for (entity, link_steps) in &by_link {
        let EntityBody::Link(l) = &entity.body else {
            continue;
        };
        let mut endpoint_deps: Vec<usize> = Vec::new();
        for end in [&l.a, &l.b] {
            if let Some(chain) = by_device.get(end) {
                endpoint_deps.extend(chain.iter().filter(|&&(_, r)| r <= 2).map(|&(j, _)| j));
            }
        }
        for &i in link_steps {
            steps[i].deps.extend(endpoint_deps.iter().copied());
            if steps[i].row.attribute.dependency_level() == DependencyLevel::LinkInterfaceConfig {
                for &j in link_steps {
                    if steps[j].row.attribute.dependency_level() == DependencyLevel::LinkPower {
                        steps[i].deps.push(j);
                    }
                }
            }
        }
    }
    for (i, step) in steps.iter_mut().enumerate() {
        step.deps.retain(|&d| d != i);
        step.deps.sort_unstable();
        step.deps.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_topology::DcnSpec;
    use statesman_types::{AppId, Attribute, PowerStatus, SimTime, Value};

    fn graph() -> NetworkGraph {
        DcnSpec::tiny("dc1").build()
    }

    fn row(entity: EntityName, attr: Attribute, v: Value) -> NetworkState {
        NetworkState::new(entity, attr, v, SimTime::default(), AppId::updater())
    }

    fn dev_row(name: &str, attr: Attribute, v: Value) -> (NetworkState, Option<DeviceName>) {
        (
            row(EntityName::device("dc1", name), attr, v),
            Some(DeviceName::new(name)),
        )
    }

    #[test]
    fn empty_difference_set_yields_empty_plan() {
        let plan = UpdatePlan::synthesize(&graph(), Vec::new());
        assert!(plan.is_empty());
        assert_eq!(plan.wave_count(), 0);
        assert_eq!(plan.max_width(), 0);
        assert_eq!(plan.segment_count(), 0);
        assert_eq!(plan.cycles_broken, 0);
    }

    #[test]
    fn independent_devices_share_one_wave_in_legacy_order() {
        // Single partition, no chains: the plan degenerates to the legacy
        // serial order — one wave, indices ascending.
        let plan = UpdatePlan::synthesize(
            &graph(),
            vec![
                dev_row(
                    "agg-1-1",
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7"),
                ),
                dev_row(
                    "agg-1-2",
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7"),
                ),
                dev_row("agg-2-1", Attribute::DeviceBootImage, Value::text("golden")),
            ],
        );
        assert_eq!(plan.wave_count(), 1);
        assert_eq!(plan.waves[0], vec![0, 1, 2]);
        assert_eq!(plan.max_width(), 3);
        assert!(plan.steps.iter().all(|s| s.deps.is_empty()));
        // Two pods touched → two independence segments.
        assert_eq!(plan.segment_count(), 2);
    }

    #[test]
    fn same_device_steps_follow_the_fig4_chain_not_key_order() {
        // Key order sorts DeviceRoutingRules *before* DeviceAdminPower
        // (catalogue position); the plan must invert that: power first,
        // then firmware, then routing.
        let plan = UpdatePlan::synthesize(
            &graph(),
            vec![
                dev_row(
                    "agg-1-1",
                    Attribute::DeviceRoutingRules,
                    Value::Routes(Vec::new()),
                ),
                dev_row(
                    "agg-1-1",
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7.0"),
                ),
                dev_row(
                    "agg-1-1",
                    Attribute::DeviceAdminPower,
                    Value::Power(PowerStatus::On),
                ),
            ],
        );
        assert_eq!(plan.wave_count(), 3);
        assert_eq!(plan.waves, vec![vec![2], vec![1], vec![0]]);
        assert_eq!(plan.steps[0].deps, vec![1, 2]);
        assert_eq!(plan.steps[1].deps, vec![2]);
        assert_eq!(plan.max_width(), 1);
    }

    #[test]
    fn link_steps_wait_for_endpoint_device_config() {
        let link = EntityName::link(
            "dc1",
            DeviceName::new("tor-1-1"),
            DeviceName::new("agg-1-1"),
        );
        let plan = UpdatePlan::synthesize(
            &graph(),
            vec![
                (
                    row(
                        link.clone(),
                        Attribute::LinkAdminPower,
                        Value::Power(PowerStatus::On),
                    ),
                    Some(DeviceName::new("tor-1-1")),
                ),
                (
                    row(
                        link,
                        Attribute::LinkIpAssignment,
                        Value::text("10.0.0.1/31"),
                    ),
                    Some(DeviceName::new("tor-1-1")),
                ),
                dev_row("agg-1-1", Attribute::DeviceMgmtInterface, Value::Bool(true)),
            ],
        );
        // Wave 0: the endpoint's device configuration. Wave 1: link
        // power. Wave 2: link interface config (after link power).
        assert_eq!(plan.waves, vec![vec![2], vec![0], vec![1]]);
        assert_eq!(plan.steps[0].deps, vec![2]);
        assert_eq!(plan.steps[1].deps, vec![0, 2]);
    }

    #[test]
    fn injected_cycles_break_deterministically() {
        let g = graph();
        let mk = |name: &str| {
            PlanStep::new(
                &g,
                row(
                    EntityName::device("dc1", name),
                    Attribute::DeviceFirmwareVersion,
                    Value::text("7"),
                ),
                Some(DeviceName::new(name)),
            )
        };
        let mut steps = vec![mk("agg-1-1"), mk("agg-1-2"), mk("agg-2-1")];
        // 0 → 1 → 2 → 0: a pure cycle.
        steps[0].deps = vec![2];
        steps[1].deps = vec![0];
        steps[2].deps = vec![1];
        let plan = UpdatePlan::from_steps(steps);
        assert_eq!(plan.cycles_broken, 1);
        // Broken at the lowest index: 0 runs first, then the chain drains.
        assert_eq!(plan.waves, vec![vec![0], vec![1], vec![2]]);

        // Re-layering the same input yields the same plan (determinism).
        let mut again = vec![mk("agg-1-1"), mk("agg-1-2"), mk("agg-2-1")];
        again[0].deps = vec![2];
        again[1].deps = vec![0];
        again[2].deps = vec![1];
        let plan2 = UpdatePlan::from_steps(again);
        assert_eq!(plan2.waves, plan.waves);
        assert_eq!(plan2.cycles_broken, 1);
    }

    #[test]
    fn self_and_out_of_range_deps_are_ignored() {
        let g = graph();
        let mut step = PlanStep::new(
            &g,
            row(
                EntityName::device("dc1", "agg-1-1"),
                Attribute::DeviceFirmwareVersion,
                Value::text("7"),
            ),
            Some(DeviceName::new("agg-1-1")),
        );
        step.deps = vec![0, 99];
        let plan = UpdatePlan::from_steps(vec![step]);
        assert_eq!(plan.waves, vec![vec![0]]);
        assert_eq!(plan.cycles_broken, 0);
    }
}
