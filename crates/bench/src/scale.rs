//! §8 scale reproduction: checker latency vs state-variable count, and
//! the ten-datacenter deployment inventory.
//!
//! The paper's headline overhead claim: "the latency for conflict
//! resolution and invariant checking is under 10 seconds even in the
//! largest DCN with 394K state variables", across a deployment managing
//! "over 1.5 million state variables".

use statesman_core::groups::ImpactGroup;
use statesman_core::{
    Checker, CheckerConfig, ConnectivityInvariant, MergePolicy, Monitor, StatesmanClient,
    TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{Attribute, DatacenterId, EntityName, Value};
use std::time::Duration;

/// One scale measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// State variables the checker read in the pass.
    pub variables: usize,
    /// Devices in the fabric.
    pub devices: usize,
    /// Links in the fabric.
    pub links: usize,
    /// Wall-clock time of one full checker pass (with live proposals).
    pub checker_elapsed: Duration,
    /// Wall-clock time of the monitor collection round that seeded the OS.
    pub monitor_elapsed: Duration,
    /// Proposals processed in the measured pass.
    pub proposals: usize,
}

/// Build a DC sized for roughly `target_vars` variables, seed its OS with
/// a real monitor round, then run one checker pass carrying live upgrade
/// proposals and measure it.
pub fn checker_pass_at_scale(target_vars: usize, seed: u64) -> ScalePoint {
    let clock = SimClock::new();
    let spec = DcnSpec::sized_for_variables("dcX", target_vars);
    let graph = spec.build();
    let dc = DatacenterId::new("dcX");

    let mut sim_cfg = SimConfig::ideal();
    sim_cfg.seed = seed;
    let net = SimNetwork::new(&graph, clock.clone(), sim_cfg);

    // One replica per ring keeps the harness lean; consensus costs are
    // measured separately (storage benches).
    let storage = StorageService::new(
        [dc.clone()],
        clock.clone(),
        StorageConfig {
            ring: ClusterConfig {
                replicas: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let monitor = Monitor::new(net, storage.clone(), graph.clone());
    let mreport = monitor.run_round().expect("monitor round");

    let mut checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(dc.clone()),
            policy: MergePolicy::PriorityLock,
        },
        graph.clone(),
    );
    checker.add_invariant(Box::new(ConnectivityInvariant::new(dc.clone())));
    // Cap the evaluated pair panel: production-scale fabrics would
    // otherwise demand 100K+ max-flows per pass (see
    // `TorPairCapacityInvariant::sampled`).
    checker.add_invariant(Box::new(TorPairCapacityInvariant::sampled(
        &graph,
        dc.clone(),
        0.5,
        0.99,
        Some(1),
        256,
        seed,
    )));

    // Live proposals: upgrade the first two Aggs of every pod (the §7.2
    // workload shape) so the pass exercises validation, conflict checks
    // and invariant evaluation, not just reads.
    let client = StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone());
    let mut proposals = Vec::new();
    for pod in graph.pods_in(&dc) {
        for a in 1..=2u32 {
            proposals.push((
                EntityName::device(dc.clone(), format!("agg-{pod}-{a}")),
                Attribute::DeviceFirmwareVersion,
                Value::text("7.0"),
            ));
        }
    }
    let n_proposals = proposals.len();
    client.propose(proposals).expect("propose");

    let report = checker
        .run_pass(&storage, clock.now())
        .expect("checker pass");
    ScalePoint {
        variables: report.variables_read,
        devices: graph.node_count(),
        links: graph.edge_count(),
        checker_elapsed: report.elapsed,
        monitor_elapsed: mreport.elapsed,
        proposals: n_proposals,
    }
}

/// The ten-datacenter inventory: per-DC device/link/variable counts sized
/// so the fleet total matches the paper's "over 1.5 million state
/// variables", with the largest DC at ~394K.
pub fn deployment_inventory() -> Vec<(String, DcnSpec, usize)> {
    // Mixed fleet: one flagship DC at the paper's 394K, a mid tier, and
    // smaller edge DCs, totalling ≥ 1.5M.
    let sizes = [
        394_000, 250_000, 200_000, 160_000, 130_000, 110_000, 90_000, 80_000, 60_000, 50_000,
    ];
    sizes
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            let name = format!("dc{}", i + 1);
            let spec = DcnSpec::sized_for_variables(name.clone(), target);
            let vars = spec.estimated_variables();
            (name, spec, vars)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_point_is_fast_and_counts_match() {
        let p = checker_pass_at_scale(10_000, 1);
        assert!(p.variables >= 10_000, "read {} variables", p.variables);
        assert!(p.proposals > 0);
        // Far under the paper's 10 s bound at this size.
        assert!(p.checker_elapsed < Duration::from_secs(10));
    }

    #[test]
    fn inventory_totals_exceed_paper_fleet() {
        let inv = deployment_inventory();
        assert_eq!(inv.len(), 10);
        let total: usize = inv.iter().map(|(_, _, v)| v).sum();
        assert!(total >= 1_500_000, "total {total}");
        assert!(inv[0].2 >= 394_000);
    }
}
