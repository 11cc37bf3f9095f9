//! Property-based tests for the topology algorithms on randomized fabrics
//! and randomized failure sets.

use proptest::prelude::*;
use statesman_topology::{
    capacity, graph::components, k_shortest_paths, max_flow, DcnSpec, HealthView, NetworkGraph,
};
use statesman_types::{DatacenterId, DeviceName, DeviceRole};

/// A randomized (but valid) fabric spec.
fn spec_strategy() -> impl Strategy<Value = DcnSpec> {
    (1..4u32, 1..4u32, 1..4u32, 1..4u32).prop_map(|(pods, aggs, tors, cores)| DcnSpec {
        name: "dcp".into(),
        pods,
        aggs_per_pod: aggs,
        tors_per_pod: tors,
        cores,
        tor_agg_mbps: 10_000.0,
        agg_core_mbps: 40_000.0,
    })
}

/// A random subset of devices to fail, as indices.
fn failures_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..64usize, 0..6)
}

fn health_with_failures(graph: &NetworkGraph, failures: &[usize]) -> HealthView {
    let mut h = HealthView::all_up();
    let n = graph.node_count();
    for &f in failures {
        let id = statesman_topology::NodeId((f % n) as u32);
        h.set_device_down(graph.node(id).name.clone());
    }
    h
}

/// Like [`health_with_failures`], plus links failed on their own.
fn health_with_link_failures(
    graph: &NetworkGraph,
    devices: &[usize],
    links: &[usize],
) -> HealthView {
    let mut h = health_with_failures(graph, devices);
    for &f in links {
        let id = statesman_topology::EdgeId((f % graph.edge_count()) as u32);
        h.set_link_down(graph.edge(id).name.clone());
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn builders_produce_connected_layered_fabrics(spec in spec_strategy()) {
        let g = spec.build();
        prop_assert!(capacity::is_pod_layered(&g));
        let comps = components(&g, &HealthView::all_up());
        prop_assert_eq!(comps.len(), 1, "fabric must be one component");
        // Estimated variables track reality exactly.
        prop_assert_eq!(
            spec.estimated_variables(),
            g.node_count() * 10 + g.edge_count() * 8
        );
    }

    #[test]
    fn max_flow_is_bounded_and_monotone(
        spec in spec_strategy(),
        failures in failures_strategy()
    ) {
        let g = spec.build();
        let tors: Vec<_> = g.devices_with_role(DeviceRole::ToR);
        prop_assume!(tors.len() >= 2);
        let (s, t) = (tors[0], *tors.last().unwrap());
        prop_assume!(s != t);

        let all_up = HealthView::all_up();
        let baseline = max_flow(&g, &all_up, s, t);
        // Bounded by the source ToR's uplink capacity.
        let uplink_cap = g.degree(s) as f64 * spec.tor_agg_mbps;
        prop_assert!(baseline <= uplink_cap + 1.0);

        // Failures never increase flow (monotonicity).
        let h = health_with_failures(&g, &failures);
        let degraded = max_flow(&g, &h, s, t);
        prop_assert!(degraded <= baseline + 1.0, "degraded {degraded} > baseline {baseline}");
    }

    #[test]
    fn scoped_capacity_matches_unscoped(
        spec in spec_strategy(),
        failures in failures_strategy(),
        link_failures in failures_strategy()
    ) {
        // The pod-scoped fast path must agree with whole-graph max-flow.
        let g = spec.build();
        let dc = DatacenterId::new("dcp");
        let pairs = capacity::select_tor_pairs(&g, &dc, Some(1));
        prop_assume!(!pairs.is_empty());
        let h = health_with_link_failures(&g, &failures, &link_failures);
        let report = capacity::evaluate(&g, &h, &pairs); // uses scoped path
        for p in &report.pairs {
            let unscoped = max_flow(&g, &h, p.src, p.dst);
            prop_assert!(
                (p.current_mbps - unscoped).abs() < 1.0,
                "pair {:?}: scoped {} vs unscoped {}",
                (p.src, p.dst),
                p.current_mbps,
                unscoped
            );
        }
    }

    #[test]
    fn k_shortest_paths_are_loopless_and_ordered(
        spec in spec_strategy(),
        k in 1..6usize
    ) {
        let g = spec.build();
        let h = HealthView::all_up();
        let tors = g.devices_with_role(DeviceRole::ToR);
        prop_assume!(tors.len() >= 2);
        let (s, t) = (tors[0], *tors.last().unwrap());
        prop_assume!(s != t);
        let paths = k_shortest_paths(&g, &h, s, t, k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len(), "lengths must be non-decreasing");
            prop_assert_ne!(&w[0], &w[1], "paths must be distinct");
        }
        for p in &paths {
            prop_assert_eq!(p.first(), Some(&s));
            prop_assert_eq!(p.last(), Some(&t));
            let set: std::collections::HashSet<_> = p.iter().collect();
            prop_assert_eq!(set.len(), p.len(), "loopless");
        }
    }

    #[test]
    fn downsample_is_deterministic_subset(
        spec in spec_strategy(),
        max_pairs in 1..40usize,
        seed in any::<u64>()
    ) {
        let g = spec.build();
        let dc = DatacenterId::new("dcp");
        let pairs = capacity::select_tor_pairs(&g, &dc, None);
        let s1 = capacity::downsample_pairs(pairs.clone(), max_pairs, seed);
        let s2 = capacity::downsample_pairs(pairs.clone(), max_pairs, seed);
        prop_assert_eq!(&s1, &s2, "same seed, same sample");
        prop_assert!(s1.len() <= max_pairs.max(pairs.len().min(max_pairs)));
        let all: std::collections::HashSet<_> = pairs.iter().collect();
        for p in &s1 {
            prop_assert!(all.contains(p), "sample must be a subset");
        }
    }

    #[test]
    fn components_partition_the_up_nodes(
        spec in spec_strategy(),
        failures in failures_strategy()
    ) {
        let g = spec.build();
        let h = health_with_failures(&g, &failures);
        let comps = components(&g, &h);
        let mut seen = std::collections::HashSet::new();
        for comp in &comps {
            for id in comp {
                prop_assert!(seen.insert(*id), "node in two components");
                prop_assert!(h.device_up(&g.node(*id).name));
            }
        }
        // Every up node is in some component.
        let up_count = g
            .nodes()
            .filter(|(_, n)| h.device_up(&n.name))
            .count();
        prop_assert_eq!(seen.len(), up_count);
        let _ = DeviceName::new("x");
    }
}
