//! Reference model for the capacity kernel's scoping.
//!
//! The panel solves a ToR pair on `pod(s) ∪ pod(t) ∪ tier` taken from its
//! scope index: merged edge lists, a resolved edge mask, compact node
//! numbers. The oracle here needs none of that and no Dinic of its own: it
//! materialises the same scope as a real `NetworkGraph` — the allowed
//! nodes, then the allowed usable links, both in id order — and runs the
//! public whole-graph `max_flow` on it, which is the arc order the
//! closure-scoped kernel this design replaced would have built. Both run
//! through seeded outage/repair histories on three fabrics, and every
//! pair's flow must agree to the bit after every step; a chain of
//! incremental refreshes fed each step's touched pods must equal the full
//! evaluation of the same health.

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
        let pod_of = |n: NodeId| {
            let info = g.node(n);
            info.pod.map(|pod| (&info.datacenter, pod))
        };
        let (sp, tp) = (pod_of(s), pod_of(t));
        let scoped = capacity::is_pod_layered(g) && sp.is_some() && tp.is_some();
        let allowed = |n: NodeId| match pod_of(n) {
            Some(pod) if scoped => Some(pod) == sp || Some(pod) == tp,
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

#[derive(Clone)]
enum Target {
    Device(DeviceName),
    Link(LinkName),
}

/// What a seed schedules on a fabric, as toggles (down, or back up if
/// already down): a scripted opening, then every candidate outage once in
/// seeded order, then three of them repaired.
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
            outages.push(Target::Device(name.clone()));
            let (e, _) = g.neighbors(*id)[0];
            outages.push(Target::Link(g.edge(e).name.clone()));
        }
        outages.shuffle(&mut rng);
        let repairs: Vec<Target> = outages.choose_multiple(&mut rng, 3).cloned().collect();
        steps.extend(outages);
        steps.extend(repairs);
        History { steps }
    }
}

/// Toggle `target` in `health`; the pods the change touches, or `None` if
/// it touches a pod-less device (the checker's fall-back-to-full rule).
fn apply(
    g: &NetworkGraph,
    health: &mut HealthView,
    target: &Target,
) -> Option<HashSet<(DatacenterId, u32)>> {
    let devices = match target {
        Target::Device(d) => {
            if health.device_up(d) {
                health.set_device_down(d.clone());
            } else {
                health.set_device_up(d);
            }
            vec![d]
        }
        Target::Link(l) => {
            if health.link_up(l) {
                health.set_link_down(l.clone());
            } else {
                health.set_link_up(l);
            }
            vec![&l.a, &l.b]
        }
    };
    devices
        .into_iter()
        .map(|d| {
            let info = g.node(g.node_id(d).unwrap());
            info.pod.map(|pod| (info.datacenter.clone(), pod))
        })
        .collect()
}

fn bits(report: &CapacityReport) -> Vec<u64> {
    (report.pairs.iter())
        .map(|p| p.current_mbps.to_bits())
        .collect()
}

/// Drive the panel and the oracle through one history; `Err` names the
/// first step they disagree on. `Ok` carries how many steps refreshed
/// incrementally.
fn drive(fabric: &Fabric, seed: u64, oracle: Oracle) -> Result<usize, String> {
    let g = &fabric.graph;
    let pairs = capacity::select_tor_pairs(g, &DatacenterId::new("dc1"), Some(1));
    let panel = CapacityPanel::new(g, pairs.clone());
    let baselines = capacity::baselines_for(g, &pairs);
    let mut health = HealthView::all_up();
    // Two chains: the panel's in-place refresh (what the invariant runs)
    // and the report's own wrapper.
    let mut refreshed = panel.evaluate(g, &health);
    let mut wrapped = refreshed.clone();
    let mut incremental_steps = 0;
    for (step, target) in History::of(fabric, seed).steps.iter().enumerate() {
        let touched = apply(g, &mut health, target);
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
        match &touched {
            Some(pods) => {
                incremental_steps += 1;
                panel.refresh(g, &health, pods, &mut refreshed);
                wrapped = wrapped.evaluate_incremental(g, &health, pods);
            }
            None => {
                refreshed = panel.evaluate(g, &health);
                wrapped = refreshed.clone();
            }
        }
        if bits(&refreshed) != expected || bits(&wrapped) != expected {
            return Err(format!(
                "step {step}: the refreshed chain left the full one"
            ));
        }
    }
    Ok(incremental_steps)
}

#[test]
fn scoped_flows_match_the_materialised_scope_bit_for_bit() {
    for fabric in [fig7(), two_dcs(), cross_linked()] {
        for seed in SEEDS {
            let incremental = drive(&fabric, seed, Oracle::Exact)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", fabric.name));
            // The history holds both kinds of step: seven outages are of
            // pod devices and intra-pod links, the others touch the tier.
            assert!((7..=10).contains(&incremental), "{incremental}");
        }
    }
}

#[test]
fn the_oracle_catches_a_scope_without_tier_links() {
    // From the fourth scripted step on, part of the flow between the two
    // split pods has to cross a border router.
    let caught = drive(&two_dcs(), 1, Oracle::OmitsTierLinks).unwrap_err();
    assert!(caught.starts_with("step 3: "), "{caught}");
}

#[test]
fn the_oracle_catches_ignored_link_outages() {
    for fabric in [fig7(), two_dcs(), cross_linked()] {
        let caught = drive(&fabric, 1, Oracle::IgnoresLinkOutages).unwrap_err();
        assert!(caught.starts_with("step 0: "), "{caught}");
    }
}
