//! Reference model for the capacity kernel's scoping and the panel's sync.
//!
//! The panel solves a ToR pair on `pod(s) ∪ pod(t) ∪ tier` taken from its
//! scope index: merged edge lists, a resolved edge mask, compact node
//! numbers. The oracle here needs none of that and no Dinic of its own: it
//! materialises the same scope as a real `NetworkGraph` — the allowed
//! nodes, then the allowed usable links, both in id order — and runs the
//! public whole-graph `max_flow` on it, which is the arc order the
//! closure-scoped kernel this design replaced would have built. Both run
//! through seeded outage/repair histories on three fabrics, and every
//! pair's flow must agree to the bit after every step.
//!
//! The panel keeps a report current by diffing edge masks, told nothing
//! about what changed. Two sync chains run beside the full evaluation: one
//! synced every step, one only every third (so a sync sees several flips
//! at once), and each step also syncs to a phantom outage and reverts it
//! first. Both must equal the full evaluation to the bit. A third chain
//! restates the mask-diff rule from the public graph — flip in pod P:
//! P's pairs; tier flip or non-layered fabric: every pair; whole-graph
//! pairs: any flip — and re-solves what it names; its two mutants (tier
//! flips as no-ops, whole-graph pairs never re-solved) must be caught.

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use statesman_topology::{
    capacity, max_flow, CapacityPanel, CapacityReport, DcnSpec, DeploymentSpec, HealthView,
    NetworkGraph, NodeId, WanSpec,
};
use statesman_types::{DatacenterId, DeviceName, DeviceRole, LinkName};
use std::collections::HashSet;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

/// Capacities that are not round numbers, so a different augmentation
/// order would show in the low bits of a sum.
fn spec(name: &str, pods: u32, aggs: u32, cores: u32) -> DcnSpec {
    DcnSpec {
        name: name.into(),
        pods,
        aggs_per_pod: aggs,
        tors_per_pod: 2,
        cores,
        tor_agg_mbps: 10_000.3,
        agg_core_mbps: 7_000.7,
    }
}

struct Fabric {
    name: &'static str,
    graph: NetworkGraph,
    /// Device names are `<prefix>agg-1-1`.
    prefix: &'static str,
}

/// The Fig-7 fabric: one DC, no tier-internal links.
fn fig7() -> Fabric {
    Fabric {
        name: "fig7",
        graph: DcnSpec::fig7("dc1").build(),
        prefix: "",
    }
}

/// The benchmark's shape: two DCs and a WAN, so the pod-less tier spans
/// both DCs' cores and borders. 17 pods make dc1's panel 272 pairs —
/// enough for a whole-panel evaluation to fan out on the pool.
fn two_dcs() -> Fabric {
    let mut graph = DeploymentSpec {
        dcns: vec![spec("dc1", 17, 2, 2), spec("dc2", 3, 2, 2)],
        wan: Some(WanSpec {
            dc_names: vec!["dc1".into(), "dc2".into()],
            border_routers_per_dc: 2,
            wan_link_mbps: 9_000.9,
        }),
        br_core_mbps: 8_000.1,
    }
    .build();
    // Pods 5 and 6 each grew an Agg after the fabric was numbered, so
    // their edge ids straddle the tier's and a solve has to interleave.
    for pod in [5, 6] {
        let agg = DeviceName::new(format!("dc1.agg-{pod}-3"));
        graph.add_device(agg.clone(), DeviceRole::Agg, "dc1", Some(pod));
        for peer in [format!("tor-{pod}-1"), "core-1".into(), "core-2".into()] {
            let peer = DeviceName::new(format!("dc1.{peer}"));
            graph.add_link(&agg, &peer, 6_000.6, "dc1");
        }
    }
    assert!(capacity::is_pod_layered(&graph));
    Fabric {
        name: "two DCs + WAN",
        graph,
        prefix: "dc1.",
    }
}

/// One Agg↔Agg link across pods: not layered, every solve whole-graph.
fn cross_linked() -> Fabric {
    let mut graph = spec("dc1", 4, 3, 3).build();
    let (a, b) = (DeviceName::new("agg-1-1"), DeviceName::new("agg-2-2"));
    graph.add_link(&a, &b, 5_000.5, "dc1");
    assert!(!capacity::is_pod_layered(&graph));
    Fabric {
        name: "cross-pod link",
        graph,
        prefix: "",
    }
}

impl Fabric {
    fn node(&self, name: &str) -> NodeId {
        let name = DeviceName::new(format!("{}{name}", self.prefix));
        self.graph.node_id(&name).unwrap()
    }

    /// Fig 8's panel — one ToR per pod, every directional pair — plus two
    /// pairs with a pod-less endpoint, which are solved on the whole graph
    /// and move with any flip: core-to-core flow crosses every pod.
    fn panel_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = capacity::select_tor_pairs(&self.graph, &DatacenterId::new("dc1"), Some(1));
        pairs.push((self.node("tor-1-1"), self.node("core-1")));
        pairs.push((self.node("core-1"), self.node("core-2")));
        pairs
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Oracle {
    Exact,
    /// Canary: leaves out the links between two pod-less devices.
    OmitsTierLinks,
    /// Canary: sees device outages only.
    IgnoresLinkOutages,
}

impl Oracle {
    fn flow(self, g: &NetworkGraph, h: &HealthView, (s, t): (NodeId, NodeId)) -> f64 {
        let (sp, tp) = (pod_of(g, s), pod_of(g, t));
        let scoped = capacity::is_pod_layered(g) && sp.is_some() && tp.is_some();
        let allowed = |n: NodeId| match pod_of(g, n) {
            pod @ Some(_) if scoped => pod == sp || pod == tp,
            _ => true,
        };
        let mut scope = NetworkGraph::new();
        for (id, n) in g.nodes() {
            if allowed(id) {
                scope.add_device(n.name.clone(), n.role, n.datacenter.clone(), n.pod);
            }
        }
        for (_, e) in g.edges() {
            let (a, b) = (g.node(e.a), g.node(e.b));
            let usable = match self {
                Oracle::IgnoresLinkOutages => h.device_up(&a.name) && h.device_up(&b.name),
                _ => h.link_usable(&e.name),
            };
            let tier_link = a.pod.is_none() && b.pod.is_none();
            if allowed(e.a)
                && allowed(e.b)
                && usable
                && !(tier_link && self == Oracle::OmitsTierLinks)
            {
                scope.add_link(&a.name, &b.name, e.capacity_mbps, e.datacenter.clone());
            }
        }
        let id = |n: NodeId| scope.node_id(&g.node(n).name).unwrap();
        max_flow(&scope, &HealthView::all_up(), id(s), id(t))
    }
}

fn pod_of(g: &NetworkGraph, n: NodeId) -> Option<(DatacenterId, u32)> {
    let info = g.node(n);
    info.pod.map(|pod| (info.datacenter.clone(), pod))
}

/// The mask-diff rule, restated from the public graph and health views.
#[derive(Clone, Copy, PartialEq)]
enum Sync {
    Exact,
    /// Canary: a flip between two pod-less devices (or anywhere on a
    /// non-layered fabric) re-solves nothing.
    TierFlipsAreNoOps,
    /// Canary: pairs with a pod-less endpoint (every pair of a
    /// non-layered fabric) keep their old flows.
    SkipsWholeGraphPairs,
}

impl Sync {
    /// Indexes of the pairs a change from `before` to `after` can move.
    fn stale(
        self,
        g: &NetworkGraph,
        pairs: &[(NodeId, NodeId)],
        before: &HealthView,
        after: &HealthView,
    ) -> Vec<usize> {
        let layered = capacity::is_pod_layered(g);
        let (mut pods, mut tier) = (HashSet::new(), false);
        for (_, e) in g.edges() {
            if before.link_usable(&e.name) == after.link_usable(&e.name) {
                continue;
            }
            // A layered edge has its pod at one end or both, or none.
            match pod_of(g, e.a).or_else(|| pod_of(g, e.b)) {
                Some(pod) if layered => {
                    pods.insert(pod);
                }
                _ => tier |= self != Sync::TierFlipsAreNoOps,
            }
        }
        let flipped = tier || !pods.is_empty();
        let stale = |&(s, t): &(NodeId, NodeId)| {
            let (sp, tp) = (pod_of(g, s), pod_of(g, t));
            let whole = !layered || sp.is_none() || tp.is_none();
            let in_flipped_pod = [sp, tp].iter().flatten().any(|p| pods.contains(p));
            match self {
                Sync::SkipsWholeGraphPairs if whole => false,
                _ => flipped && (tier || whole || in_flipped_pod),
            }
        };
        (0..pairs.len()).filter(|&i| stale(&pairs[i])).collect()
    }
}

#[derive(Clone)]
enum Target {
    Device(DeviceName),
    Link(LinkName),
}

/// What a seed schedules on a fabric, as toggles (down, or back up if
/// already down): a scripted opening, every candidate outage once in
/// seeded order, three of them repaired, then random toggles of any
/// device or link of the graph.
struct History {
    steps: Vec<Target>,
}

impl History {
    fn of(fabric: &Fabric, seed: u64) -> History {
        let g = &fabric.graph;
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = |n: String| Target::Device(DeviceName::new(format!("{}{n}", fabric.prefix)));
        let link = |x: String, y: String| {
            let (x, y) = (
                format!("{}{x}", fabric.prefix),
                format!("{}{y}", fabric.prefix),
            );
            let name = LinkName::between(x, y);
            assert!(g.edge_id(&name).is_some(), "no link {name}");
            Target::Link(name)
        };
        let (a, b) = (rng.gen_range(1..=2), rng.gen_range(3..=4));
        // Always first: a sampled ToR's uplink fails on its own, and pods
        // `a` and `b` keep their core links to different cores only — the
        // one path between them then crosses a border router (where the
        // fabric has any), over links between pod-less devices.
        let mut steps = vec![
            link(format!("tor-{a}-1"), format!("agg-{a}-1")),
            link(format!("agg-{a}-1"), "core-2".into()),
            link(format!("agg-{a}-2"), "core-2".into()),
            link(format!("agg-{b}-1"), "core-1".into()),
            link(format!("agg-{b}-2"), "core-1".into()),
        ];
        let mut outages = vec![
            dev(format!("tor-{b}-1")), // an endpoint of 2 × (pods − 1) pairs
            dev(format!("agg-{a}-2")),
            dev(format!("agg-{b}-1")),
            dev("agg-3-2".into()),
            dev("core-1".into()),
            link(format!("tor-{b}-1"), format!("agg-{b}-2")),
            link(format!("tor-{a}-2"), format!("agg-{a}-1")),
            link("agg-4-1".into(), "core-2".into()),
        ];
        let borders: Vec<_> = (g.nodes())
            .filter(|(_, n)| n.role == DeviceRole::Border)
            .map(|(id, n)| (id, n.name.clone()))
            .collect();
        if let Some((id, name)) = borders.choose(&mut rng) {
            // Then, where there are borders, one fails and is repaired: a
            // flip of tier links alone, which moves the split pods' pairs.
            steps.extend([Target::Device(name.clone()), Target::Device(name.clone())]);
            outages.push(Target::Device(name.clone()));
            let (e, _) = g.neighbors(*id)[0];
            outages.push(Target::Link(g.edge(e).name.clone()));
        }
        outages.shuffle(&mut rng);
        let repairs: Vec<Target> = outages.choose_multiple(&mut rng, 3).cloned().collect();
        steps.extend(outages);
        steps.extend(repairs);
        let anything: Vec<Target> = (g.nodes().map(|(_, n)| Target::Device(n.name.clone())))
            .chain(g.edges().map(|(_, e)| Target::Link(e.name.clone())))
            .collect();
        steps.extend((0..12).map(|_| anything.choose(&mut rng).unwrap().clone()));
        History { steps }
    }
}

/// Toggle `target` in `health`.
fn apply(health: &mut HealthView, target: &Target) {
    match target {
        Target::Device(d) if health.device_up(d) => health.set_device_down(d.clone()),
        Target::Device(d) => health.set_device_up(d),
        Target::Link(l) if health.link_up(l) => health.set_link_down(l.clone()),
        Target::Link(l) => health.set_link_up(l),
    };
}

fn bits(report: &CapacityReport) -> Vec<u64> {
    (report.pairs.iter())
        .map(|p| p.current_mbps.to_bits())
        .collect()
}

/// Pair counts re-solved by the every-step chain's syncs, one per step.
#[derive(Debug)]
struct Solved {
    per_step: Vec<u64>,
    pairs: u64,
}

/// Drive the panel, its sync chains, the restated rule and the oracle
/// through one history; `Err` names the first step they disagree on.
fn drive(fabric: &Fabric, seed: u64, oracle: Oracle, rule: Sync) -> Result<Solved, String> {
    let g = &fabric.graph;
    let pairs = fabric.panel_pairs();
    let panel = CapacityPanel::new(g, pairs.clone());
    let baselines = capacity::baselines_for(g, &pairs);
    let mut health = HealthView::all_up();
    let mut every_step = panel.evaluate_synced(g, &health);
    let mut lagging = every_step.clone();
    let (mut restated, mut restated_at) = (bits(every_step.report()), health.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut solved = Solved {
        per_step: Vec::new(),
        pairs: pairs.len() as u64,
    };
    for (step, target) in History::of(fabric, seed).steps.iter().enumerate() {
        apply(&mut health, target);
        let full = panel.evaluate(g, &health);
        let expected: Vec<u64> = (pairs.iter())
            .map(|&pair| oracle.flow(g, &health, pair).to_bits())
            .collect();
        if bits(&full) != expected {
            let at = (0..pairs.len()).find(|&i| bits(&full)[i] != expected[i]);
            let (s, t) = pairs[at.unwrap()];
            return Err(format!(
                "step {step}: {} → {} flows {} Mbps, oracle {}",
                g.node(s).name,
                g.node(t).name,
                full.pairs[at.unwrap()].current_mbps,
                f64::from_bits(expected[at.unwrap()]),
            ));
        }
        if bits(&capacity::evaluate_with_baselines(
            g, &health, &pairs, &baselines,
        )) != expected
        {
            return Err(format!("step {step}: evaluate_with_baselines differs"));
        }

        // A candidate with one more random outage, checked and dropped.
        let mut phantom = health.clone();
        let (_, n) = g.nodes().nth(rng.gen_range(0..g.node_count())).unwrap();
        phantom.set_device_down(n.name.clone());
        let overwritten = panel.sync(g, &phantom, &mut every_step);
        if bits(every_step.report()) != bits(&panel.evaluate(g, &phantom)) {
            return Err(format!("step {step}: the phantom sync left the full one"));
        }
        every_step.revert(overwritten);
        let before = panel.solves();
        panel.sync(g, &health, &mut every_step);
        solved.per_step.push(panel.solves() - before);
        if bits(every_step.report()) != expected {
            return Err(format!("step {step}: the synced chain left the full one"));
        }
        if step % 3 == 2 {
            panel.sync(g, &health, &mut lagging);
            if bits(lagging.report()) != expected {
                return Err(format!("step {step}: the lagging chain left the full one"));
            }
        }

        let stale: Vec<usize> = rule.stale(g, &pairs, &restated_at, &health);
        let subset: Vec<_> = stale.iter().map(|&i| pairs[i]).collect();
        let subset_baselines: Vec<_> = stale.iter().map(|&i| baselines[i]).collect();
        let resolved = capacity::evaluate_with_baselines(g, &health, &subset, &subset_baselines);
        for (&i, flow) in stale.iter().zip(bits(&resolved)) {
            restated[i] = flow;
        }
        restated_at = health.clone();
        if restated != expected {
            return Err(format!("step {step}: the restated rule left the full one"));
        }
    }
    Ok(solved)
}

#[test]
fn scoped_flows_match_the_materialised_scope_bit_for_bit() {
    for fabric in [fig7(), two_dcs(), cross_linked()] {
        for seed in SEEDS {
            let solved = drive(&fabric, seed, Oracle::Exact, Sync::Exact)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", fabric.name));
            // The history holds both kinds of sync: a pod's pairs and the
            // whole-graph ones, or (a core's links, a tier link, anything
            // on the non-layered fabric) every pair.
            let steps = &solved.per_step;
            let layered = capacity::is_pod_layered(&fabric.graph);
            let partial = steps.iter().filter(|&&n| 0 < n && n < solved.pairs).count();
            assert_eq!(
                partial > 0,
                layered,
                "{} seed {seed}: {steps:?}",
                fabric.name
            );
            assert!(steps.contains(&solved.pairs), "{} seed {seed}", fabric.name);
        }
    }
}

#[test]
fn the_oracle_catches_a_scope_without_tier_links() {
    // Part of the core-to-core flow always crosses the border routers
    // (and, from the fourth scripted step on, part of the flow between
    // the two split pods).
    let caught = drive(&two_dcs(), 1, Oracle::OmitsTierLinks, Sync::Exact).unwrap_err();
    assert!(
        caught.starts_with("step 0: dc1.core-1 → dc1.core-2"),
        "{caught}"
    );
}

#[test]
fn the_oracle_catches_ignored_link_outages() {
    for fabric in [fig7(), two_dcs(), cross_linked()] {
        let caught = drive(&fabric, 1, Oracle::IgnoresLinkOutages, Sync::Exact).unwrap_err();
        assert!(caught.starts_with("step 0: "), "{caught}");
    }
}

#[test]
fn the_chain_catches_a_sync_that_ignores_tier_flips() {
    // Only the two-DC fabric has links between pod-less devices: its
    // border outage (step 5) is the first flip of tier links alone. Every
    // link of the non-layered fabric is in every pair's scope.
    for (fabric, step) in [(two_dcs(), 5), (cross_linked(), 0)] {
        let caught = drive(&fabric, 1, Oracle::Exact, Sync::TierFlipsAreNoOps).unwrap_err();
        let expected = format!("step {step}: the restated rule");
        assert!(caught.starts_with(&expected), "{caught}");
    }
}

#[test]
fn the_chain_catches_a_sync_that_skips_whole_graph_pairs() {
    for fabric in [fig7(), two_dcs(), cross_linked()] {
        let caught = drive(&fabric, 1, Oracle::Exact, Sync::SkipsWholeGraphPairs).unwrap_err();
        assert!(caught.contains("the restated rule"), "{caught}");
    }
}
