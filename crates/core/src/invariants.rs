//! Operator-specified network-wide invariants.
//!
//! Invariants "specify basic safety and performance requirements for the
//! network ... a pod of servers must not be disconnected from the rest of
//! the datacenter, and there must be some minimum bandwidth between each
//! pair of pods" (§1). The checker evaluates them against the *projected*
//! post-TS network: base graph + OS health + proposed changes
//! (§"maintaining invariants" slides: maintain a base network state graph
//! from the OS, compute the TS−OS difference, check invariants on the new
//! network state).
//!
//! Implementations:
//!
//! * [`ConnectivityInvariant`] — no powered-on ToR may be disconnected
//!   from the core tier (the Fig-2 disaster);
//! * [`TorPairCapacityInvariant`] — the §7.2 headline: ≥ `pair_fraction`
//!   of sampled directional ToR pairs keep ≥ `capacity_threshold` of
//!   baseline capacity (99% / 50% in the paper); uses cached baselines and
//!   re-solves only the pairs whose scope an edge-health flip reached since
//!   its last passing check;
//! * [`WanLinkInvariant`] — every datacenter pair keeps at least one
//!   usable WAN link (the Fig-9/Fig-10 safety floor).

use statesman_topology::{
    capacity, graph::components, CapacityPanel, HealthView, NetworkGraph, NodeId,
};
use statesman_types::{DatacenterId, DeviceRole};
use std::collections::HashSet;
use std::sync::Arc;

/// What the checker hands an invariant.
pub struct InvariantContext<'a> {
    /// The structural topology.
    pub graph: &'a NetworkGraph,
    /// Health projected from OS + candidate TS.
    pub projected: &'a HealthView,
    /// Pods touched by the candidate change, for connectivity's fast path;
    /// `None` means unknown — evaluate everything. Capacity does not read
    /// it: it finds what changed by diffing `projected` itself.
    pub touched_pods: Option<&'a HashSet<(DatacenterId, u32)>>,
}

/// A violation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant's name.
    pub invariant: String,
    /// Human-readable detail.
    pub reason: String,
}

/// An operator-specified network-wide invariant.
pub trait Invariant: Send + Sync {
    /// Stable name (appears in rejection receipts).
    fn name(&self) -> &str;
    /// Check the projected network state.
    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), Violation>;
    /// Can this invariant's verdict change when only the variables inside
    /// `radius` changed? The incremental checker skips re-evaluation (and
    /// keeps the cached verdict) when this returns false. The default is
    /// conservative: any change may affect the invariant.
    fn affected_by(&self, _radius: &crate::deps::BlastRadius) -> bool {
        true
    }
}

/// No operational ToR may be disconnected from every core router.
pub struct ConnectivityInvariant {
    /// The datacenter this instance guards.
    pub datacenter: DatacenterId,
}

impl ConnectivityInvariant {
    /// Guard `datacenter`.
    pub fn new(datacenter: impl Into<DatacenterId>) -> Self {
        ConnectivityInvariant {
            datacenter: datacenter.into(),
        }
    }
}

impl Invariant for ConnectivityInvariant {
    fn name(&self) -> &str {
        "connectivity"
    }

    fn affected_by(&self, radius: &crate::deps::BlastRadius) -> bool {
        radius.affects_dc(&self.datacenter)
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), Violation> {
        // Incremental fast path: a pod-scoped change can only disconnect
        // ToRs inside the touched pods (pod devices have no links outside
        // their pod except to the core tier). Verify each up ToR of a
        // touched pod can still reach a core/border with an early-exit
        // BFS; untouched pods are unaffected.
        if let Some(touched) = ctx.touched_pods {
            for (dc, pod) in touched {
                if dc != &self.datacenter {
                    continue;
                }
                for id in ctx.graph.devices_in_pod(dc, *pod) {
                    let info = ctx.graph.node(id);
                    if info.role != DeviceRole::ToR || !ctx.projected.device_up(&info.name) {
                        continue;
                    }
                    if !reaches_core(ctx.graph, ctx.projected, id) {
                        return Err(Violation {
                            invariant: self.name().to_string(),
                            reason: format!(
                                "{} would be disconnected from the core tier",
                                info.name
                            ),
                        });
                    }
                }
            }
            return Ok(());
        }

        // Full path: component decomposition over usable links; every up
        // ToR must share a component with at least one up core router.
        let comps = components(ctx.graph, ctx.projected);
        for comp in comps {
            let mut has_tor: Option<NodeId> = None;
            let mut has_core = false;
            for id in &comp {
                match ctx.graph.node(*id).role {
                    DeviceRole::ToR if ctx.graph.node(*id).datacenter == self.datacenter => {
                        has_tor.get_or_insert(*id);
                    }
                    DeviceRole::Core | DeviceRole::Border => has_core = true,
                    _ => {}
                }
            }
            if let Some(tor) = has_tor {
                if !has_core {
                    return Err(Violation {
                        invariant: self.name().to_string(),
                        reason: format!(
                            "{} would be disconnected from the core tier",
                            ctx.graph.node(tor).name
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Early-exit BFS: can `start` reach any up core/border router over
/// usable links?
fn reaches_core(graph: &NetworkGraph, health: &HealthView, start: NodeId) -> bool {
    let mut seen = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        if matches!(graph.node(u).role, DeviceRole::Core | DeviceRole::Border) {
            return true;
        }
        for &(e, v) in graph.neighbors(u) {
            if seen.contains(&v) {
                continue;
            }
            if !health.link_usable(&graph.edge(e).name) {
                continue;
            }
            seen.insert(v);
            queue.push_back(v);
        }
    }
    false
}

/// The §7.2 capacity invariant over sampled directional ToR pairs.
pub struct TorPairCapacityInvariant {
    /// The datacenter this instance guards.
    pub datacenter: DatacenterId,
    /// Minimum fraction of baseline capacity per pair (0.5 in the paper).
    pub capacity_threshold: f64,
    /// Minimum fraction of pairs that must meet the threshold (0.99).
    pub pair_fraction: f64,
    /// Pairs, baselines and scope index: immutable, shared between the
    /// instances of one datacenter.
    panel: Arc<CapacityPanel>,
    /// Last passing evaluation and the edge mask it was solved under,
    /// synced in place by later checks. The only per-consumer state.
    last_report: parking_lot::Mutex<Option<capacity::SyncedReport>>,
}

impl TorPairCapacityInvariant {
    /// Build with the paper's parameters (99% of pairs ≥ 50%), sampling
    /// `sample_tors_per_pod` ToRs per pod (Fig 8 uses 1).
    pub fn paper_default(
        graph: &NetworkGraph,
        datacenter: impl Into<DatacenterId>,
        sample_tors_per_pod: Option<u32>,
    ) -> Self {
        Self::new(graph, datacenter, 0.5, 0.99, sample_tors_per_pod)
    }

    /// Like [`TorPairCapacityInvariant::new`] but with the evaluated pair
    /// panel capped at `max_pairs` (seeded, deterministic downsample) —
    /// required at production scale where all-pairs max-flow is
    /// infeasible per checker pass.
    pub fn sampled(
        graph: &NetworkGraph,
        datacenter: impl Into<DatacenterId>,
        capacity_threshold: f64,
        pair_fraction: f64,
        sample_tors_per_pod: Option<u32>,
        max_pairs: usize,
        seed: u64,
    ) -> Self {
        let datacenter = datacenter.into();
        let pairs = capacity::downsample_pairs(
            capacity::select_tor_pairs(graph, &datacenter, sample_tors_per_pod),
            max_pairs,
            seed,
        );
        TorPairCapacityInvariant {
            datacenter,
            capacity_threshold,
            pair_fraction,
            panel: Arc::new(CapacityPanel::new(graph, pairs)),
            last_report: parking_lot::Mutex::new(None),
        }
    }

    /// Fully parameterized constructor. Baselines are computed once at
    /// construction against the all-up graph.
    pub fn new(
        graph: &NetworkGraph,
        datacenter: impl Into<DatacenterId>,
        capacity_threshold: f64,
        pair_fraction: f64,
        sample_tors_per_pod: Option<u32>,
    ) -> Self {
        Self::sampled(
            graph,
            datacenter,
            capacity_threshold,
            pair_fraction,
            sample_tors_per_pod,
            usize::MAX,
            0,
        )
    }

    /// A second instance over the same panel (same pairs, baselines and
    /// thresholds) with a cache of its own — for a consumer whose checks
    /// interleave with this one's, like the updater's plan set beside the
    /// checker's.
    pub fn sharing_panel(&self) -> Self {
        TorPairCapacityInvariant {
            datacenter: self.datacenter.clone(),
            capacity_threshold: self.capacity_threshold,
            pair_fraction: self.pair_fraction,
            panel: self.panel.clone(),
            last_report: parking_lot::Mutex::new(None),
        }
    }

    /// Number of sampled pairs.
    pub fn pair_count(&self) -> usize {
        self.panel.pairs().len()
    }

    /// Max-flow solves run on this instance's panel since it was built —
    /// baselines, and every check of every instance sharing it.
    pub fn solves(&self) -> u64 {
        self.panel.solves()
    }

    /// The most recent passing evaluation (for scenario plotting — Fig 8
    /// reads this to emit its capacity matrix).
    pub fn last_report(&self) -> Option<capacity::CapacityReport> {
        (self.last_report.lock().as_ref()).map(|synced| synced.report().clone())
    }
}

impl Invariant for TorPairCapacityInvariant {
    fn name(&self) -> &str {
        "tor-pair-capacity"
    }

    fn affected_by(&self, radius: &crate::deps::BlastRadius) -> bool {
        radius.affects_dc(&self.datacenter)
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), Violation> {
        // Only passing evaluations are cached — the checker drops rejected
        // candidates, so `last_report` is the last state that could be
        // merged. A rejected sync puts back its flows and its mask
        // together, so the next one diffs against what the report shows.
        let mut cache = self.last_report.lock();
        let Some(last) = cache.as_mut() else {
            let synced = self.panel.evaluate_synced(ctx.graph, ctx.projected);
            let result = self.verdict(synced.report());
            if result.is_ok() {
                *cache = Some(synced);
            }
            return result;
        };
        let overwritten = self.panel.sync(ctx.graph, ctx.projected, last);
        let result = self.verdict(last.report());
        if result.is_err() {
            last.revert(overwritten);
        }
        result
    }
}

impl TorPairCapacityInvariant {
    fn verdict(&self, report: &capacity::CapacityReport) -> Result<(), Violation> {
        let meeting = report.fraction_meeting(self.capacity_threshold);
        if meeting + 1e-9 >= self.pair_fraction {
            return Ok(());
        }
        Err(Violation {
            invariant: self.name().to_string(),
            reason: format!(
                "only {:.1}% of ToR pairs keep ≥{:.0}% capacity (worst {:.0}%)",
                meeting * 100.0,
                self.capacity_threshold * 100.0,
                report.worst_fraction() * 100.0
            ),
        })
    }
}

/// An operator policy cap: at most `max_down_devices` devices of the
/// guarded datacenter may be down (for any reason — maintenance, energy
/// saving, failures) at once.
///
/// Not from the paper's evaluation; included to demonstrate the
/// "extensible set of network-wide invariants" (§1): operators add
/// policies by implementing [`Invariant`], and the checker enforces them
/// uniformly across all applications.
pub struct MaintenanceBudgetInvariant {
    /// The datacenter this instance guards.
    pub datacenter: DatacenterId,
    /// Maximum devices simultaneously down.
    pub max_down_devices: usize,
}

impl MaintenanceBudgetInvariant {
    /// Guard `datacenter` with a budget of `max_down_devices`.
    pub fn new(datacenter: impl Into<DatacenterId>, max_down_devices: usize) -> Self {
        MaintenanceBudgetInvariant {
            datacenter: datacenter.into(),
            max_down_devices,
        }
    }
}

impl Invariant for MaintenanceBudgetInvariant {
    fn name(&self) -> &str {
        "maintenance-budget"
    }

    fn affected_by(&self, radius: &crate::deps::BlastRadius) -> bool {
        radius.affects_dc(&self.datacenter)
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), Violation> {
        let down = ctx
            .graph
            .nodes()
            .filter(|(_, n)| n.datacenter == self.datacenter && !ctx.projected.device_up(&n.name))
            .count();
        if down > self.max_down_devices {
            Err(Violation {
                invariant: self.name().to_string(),
                reason: format!(
                    "{down} devices would be down in {} (budget {})",
                    self.datacenter, self.max_down_devices
                ),
            })
        } else {
            Ok(())
        }
    }
}

/// Every datacenter pair must keep at least `min_links` usable WAN links.
pub struct WanLinkInvariant {
    /// Minimum usable links per DC pair.
    pub min_links: usize,
}

impl WanLinkInvariant {
    /// Require at least one usable WAN link per DC pair.
    pub fn new(min_links: usize) -> Self {
        WanLinkInvariant { min_links }
    }
}

impl Invariant for WanLinkInvariant {
    fn name(&self) -> &str {
        "wan-links"
    }

    fn affected_by(&self, radius: &crate::deps::BlastRadius) -> bool {
        radius.affects_wan()
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), Violation> {
        use std::collections::HashMap;
        // Count usable WAN links per unordered DC pair.
        let mut usable: HashMap<(DatacenterId, DatacenterId), usize> = HashMap::new();
        let mut total: HashMap<(DatacenterId, DatacenterId), usize> = HashMap::new();
        for (_, e) in ctx.graph.edges() {
            if !e.datacenter.is_wan() {
                continue;
            }
            let da = ctx.graph.node(e.a).datacenter.clone();
            let db = ctx.graph.node(e.b).datacenter.clone();
            let key = if da <= db { (da, db) } else { (db, da) };
            *total.entry(key.clone()).or_insert(0) += 1;
            if ctx.projected.link_usable(&e.name) {
                *usable.entry(key).or_insert(0) += 1;
            }
        }
        for (pair, n) in total {
            let u = usable.get(&pair).copied().unwrap_or(0);
            if u < self.min_links.min(n) {
                return Err(Violation {
                    invariant: self.name().to_string(),
                    reason: format!(
                        "DC pair {}–{} would keep {}/{} usable WAN links (< {})",
                        pair.0, pair.1, u, n, self.min_links
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statesman_topology::{DcnSpec, DeploymentSpec, WanSpec};
    use statesman_types::{DeviceName, LinkName};

    fn ctx<'a>(graph: &'a NetworkGraph, projected: &'a HealthView) -> InvariantContext<'a> {
        InvariantContext {
            graph,
            projected,
            touched_pods: None,
        }
    }

    #[test]
    fn connectivity_ok_when_healthy() {
        let g = DcnSpec::tiny("dc1").build();
        let h = HealthView::all_up();
        let inv = ConnectivityInvariant::new("dc1");
        assert!(inv.check(&ctx(&g, &h)).is_ok());
    }

    #[test]
    fn connectivity_catches_fig2_disaster() {
        let g = DcnSpec::tiny("dc1").build();
        let mut h = HealthView::all_up();
        // Both Aggs of pod 1 down → pod-1 ToRs cut off.
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        let inv = ConnectivityInvariant::new("dc1");
        let v = inv.check(&ctx(&g, &h)).unwrap_err();
        assert!(v.reason.contains("disconnected"), "{}", v.reason);
    }

    #[test]
    fn connectivity_ignores_powered_off_tors() {
        let g = DcnSpec::tiny("dc1").build();
        let mut h = HealthView::all_up();
        // The ToR itself is down (maintenance): that is not a violation.
        h.set_device_down(DeviceName::new("tor-1-1"));
        let inv = ConnectivityInvariant::new("dc1");
        assert!(inv.check(&ctx(&g, &h)).is_ok());
    }

    #[test]
    fn capacity_invariant_paper_scenario() {
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::paper_default(&g, "dc1", Some(1));
        assert_eq!(inv.pair_count(), 90);

        // 2 of 4 Aggs down in one pod: exactly 50% — allowed.
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-1-2"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());

        // 3 of 4 down: 25% — violated.
        h.set_device_down(DeviceName::new("agg-1-3"));
        let v = inv.check(&ctx(&g, &h)).unwrap_err();
        assert_eq!(v.invariant, "tor-pair-capacity");
    }

    #[test]
    fn capacity_invariant_fig8_pod4_case() {
        // Link ToR1-Agg1 down (failure mitigation) → pod-4 pairs at 75%.
        // One more Agg down → 50%, allowed; two more → violated.
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::paper_default(&g, "dc1", Some(1));
        let mut h = HealthView::all_up();
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());

        // Upgrading Agg1 (whose ToR link is already dead) changes nothing.
        h.set_device_down(DeviceName::new("agg-4-1"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());

        // Agg2 in parallel: pairs drop to 50% — still allowed.
        h.set_device_down(DeviceName::new("agg-4-2"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());

        // Agg3 too: 25% — violated. This is why the checker serializes
        // pod-4 upgrades in box E of Fig 8.
        h.set_device_down(DeviceName::new("agg-4-3"));
        assert!(inv.check(&ctx(&g, &h)).is_err());
    }

    #[test]
    fn capacity_incremental_path_matches_full() {
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::paper_default(&g, "dc1", Some(1));
        // Seed the cache with a full evaluation.
        let h0 = HealthView::all_up();
        assert!(inv.check(&ctx(&g, &h0)).is_ok());

        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-2-1"));
        h.set_device_down(DeviceName::new("agg-2-2"));
        h.set_device_down(DeviceName::new("agg-2-3"));
        let mut touched = HashSet::new();
        touched.insert((DatacenterId::new("dc1"), 2u32));
        let c = InvariantContext {
            graph: &g,
            projected: &h,
            touched_pods: Some(&touched),
        };
        assert!(
            inv.check(&c).is_err(),
            "incremental path sees the violation"
        );
    }

    #[test]
    fn capacity_checks_solve_what_they_touch() {
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::paper_default(&g, "dc1", Some(1));
        assert_eq!(inv.solves(), 90, "baselines");
        let mut h = HealthView::all_up();
        assert!(inv.check(&ctx(&g, &h)).is_ok());
        assert_eq!(inv.solves(), 180, "a cold check solves the panel");

        let solves_for = |h: &HealthView, pods: Option<&[u32]>| {
            let touched: Option<HashSet<_>> = pods.map(|pods| {
                pods.iter()
                    .map(|&p| (DatacenterId::new("dc1"), p))
                    .collect()
            });
            let before = inv.solves();
            let c = InvariantContext {
                graph: &g,
                projected: h,
                touched_pods: touched.as_ref(),
            };
            assert!(inv.check(&c).is_ok());
            inv.solves() - before
        };
        // Unchanged health solves nothing, whatever the caller names —
        // `None` is the checker's seed re-check after a core-tier delta.
        assert_eq!(solves_for(&h, None), 0);
        assert_eq!(solves_for(&h, Some(&[7])), 0);
        assert_eq!(solves_for(&h, Some(&[])), 0);
        // One sampled ToR per pod: 9 pairs out of it and 9 into it, down
        // and back up, and whether or not the caller names the pod.
        h.set_device_down(DeviceName::new("agg-7-1"));
        assert_eq!(solves_for(&h, Some(&[2])), 18);
        h.set_device_up(&DeviceName::new("agg-7-1"));
        assert_eq!(solves_for(&h, None), 18);
        h.set_link_down(LinkName::between("tor-4-1", "agg-4-1"));
        assert_eq!(solves_for(&h, Some(&[4])), 18);
        // A core's links belong to every pod's scope.
        h.set_device_down(DeviceName::new("core-2"));
        assert_eq!(solves_for(&h, Some(&[])), 90);
        h.set_device_down(DeviceName::new("dc2.agg-7-1"));
        assert_eq!(solves_for(&h, None), 0);
        // A second instance on the panel counts into the same total and
        // starts cold.
        let second = inv.sharing_panel();
        assert!(second.last_report().is_none());
        let before = inv.solves();
        assert!(second.check(&ctx(&g, &h)).is_ok());
        assert_eq!(inv.solves() - before, 90);
    }

    #[test]
    fn a_capacity_check_sees_what_the_caller_did_not_name() {
        // The caller's touched pods are a hint for connectivity only: a
        // degraded pod left out of them, or a core outage reported as
        // `Some(∅)`, is still seen — whatever the cached report last saw.
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::new(&g, "dc1", 0.5, 0.9, Some(1));
        assert!(inv.check(&ctx(&g, &HealthView::all_up())).is_ok());
        let check_naming = |h: &HealthView, pods: &[u32]| {
            let touched = (pods.iter())
                .map(|&p| (DatacenterId::new("dc1"), p))
                .collect::<HashSet<_>>();
            inv.check(&InvariantContext {
                graph: &g,
                projected: h,
                touched_pods: Some(&touched),
            })
        };
        // Pod 3 loses three Aggs (18 of 90 pairs at 25%, below 90%); the
        // check names only pod 7.
        let mut h = HealthView::all_up();
        for a in 1..=3 {
            h.set_device_down(DeviceName::new(format!("agg-3-{a}")));
        }
        h.set_device_down(DeviceName::new("agg-7-1"));
        assert!(check_naming(&h, &[7]).is_err());
        // The core tier is overprovisioned: three cores down move no pair,
        // and the fourth cuts every sampled one (all cross pods).
        let mut h = HealthView::all_up();
        for c in 1..=3 {
            h.set_device_down(DeviceName::new(format!("core-{c}")));
        }
        assert!(check_naming(&h, &[]).is_ok());
        h.set_device_down(DeviceName::new("core-4"));
        assert!(check_naming(&h, &[]).is_err());
    }

    #[test]
    fn a_rejected_candidate_leaves_no_phantom_outage_in_the_cache() {
        let g = DcnSpec::fig7("dc1").build();
        let inv = TorPairCapacityInvariant::paper_default(&g, "dc1", Some(1));
        assert!(inv.check(&ctx(&g, &HealthView::all_up())).is_ok());
        let passing = inv.last_report().unwrap();
        let check_touching = |h: &HealthView, pod: u32| {
            let touched = HashSet::from([(DatacenterId::new("dc1"), pod)]);
            inv.check(&InvariantContext {
                graph: &g,
                projected: h,
                touched_pods: Some(&touched),
            })
        };

        // Candidate 1: three of pod 2's four Aggs — rejected, never merged.
        let mut h = HealthView::all_up();
        for a in 1..=3 {
            h.set_device_down(DeviceName::new(format!("agg-2-{a}")));
        }
        assert!(check_touching(&h, 2).is_err());
        assert_eq!(inv.last_report().unwrap().pairs, passing.pairs);

        // Candidate 2: one Agg of pod 5, on the projection candidate 1 was
        // reverted from. Had the rejected flows been kept beside the old
        // mask, the diff would re-solve pod 5 only, pod 2's 18 pairs would
        // still read 25% and this would be rejected too.
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-5-1"));
        assert!(check_touching(&h, 5).is_ok());
        let report = inv.last_report().unwrap();
        let full = capacity::evaluate(&g, &h, inv.panel.pairs());
        assert_eq!(report.pairs, full.pairs);
    }

    #[test]
    fn maintenance_budget_caps_concurrent_downs() {
        let g = DcnSpec::fig7("dc1").build();
        let inv = MaintenanceBudgetInvariant::new("dc1", 2);
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("agg-1-1"));
        h.set_device_down(DeviceName::new("agg-5-1"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());
        h.set_device_down(DeviceName::new("agg-9-1"));
        let v = inv.check(&ctx(&g, &h)).unwrap_err();
        assert!(v.reason.contains("budget"), "{}", v.reason);
    }

    #[test]
    fn maintenance_budget_scoped_per_datacenter() {
        // Downs in another DC don't count against this DC's budget.
        let dep = DeploymentSpec {
            dcns: vec![DcnSpec::tiny("dc1"), DcnSpec::tiny("dc2")],
            wan: None,
            br_core_mbps: 100_000.0,
        };
        let g = dep.build();
        let inv = MaintenanceBudgetInvariant::new("dc1", 1);
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("dc2.agg-1-1"));
        h.set_device_down(DeviceName::new("dc2.agg-1-2"));
        h.set_device_down(DeviceName::new("dc1.agg-1-1"));
        assert!(inv.check(&ctx(&g, &h)).is_ok());
        h.set_device_down(DeviceName::new("dc1.agg-2-1"));
        assert!(inv.check(&ctx(&g, &h)).is_err());
    }

    #[test]
    fn wan_invariant_allows_one_plane_down() {
        let g = WanSpec::fig9().build();
        let mut h = HealthView::all_up();
        h.set_device_down(DeviceName::new("br-1"));
        let inv = WanLinkInvariant::new(1);
        assert!(inv.check(&ctx(&g, &h)).is_ok());
    }

    #[test]
    fn wan_invariant_blocks_total_dc_pair_cut() {
        let g = WanSpec::fig9().build();
        let mut h = HealthView::all_up();
        // Both BRs of DC1 down: every DC1–* pair loses all links.
        h.set_device_down(DeviceName::new("br-1"));
        h.set_device_down(DeviceName::new("br-2"));
        let inv = WanLinkInvariant::new(1);
        let v = inv.check(&ctx(&g, &h)).unwrap_err();
        assert!(v.reason.contains("dc1"), "{}", v.reason);
    }

    #[test]
    fn wan_invariant_ignores_intra_dc_links() {
        let dep = DeploymentSpec {
            dcns: vec![DcnSpec::tiny("dc1"), DcnSpec::tiny("dc2")],
            wan: Some(WanSpec {
                dc_names: vec!["dc1".into(), "dc2".into()],
                border_routers_per_dc: 2,
                wan_link_mbps: 100_000.0,
            }),
            br_core_mbps: 100_000.0,
        };
        let g = dep.build();
        let mut h = HealthView::all_up();
        // Take down an intra-DC link: irrelevant to the WAN invariant.
        h.set_link_down(LinkName::between("dc1.tor-1-1", "dc1.agg-1-1"));
        let inv = WanLinkInvariant::new(1);
        assert!(inv.check(&ctx(&g, &h)).is_ok());
    }
}
