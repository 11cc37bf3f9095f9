//! Property-based tests over the core invariants of the system:
//!
//! * **checker safety** — whatever random proposals a fleet of apps
//!   throws at it, the merged target state never violates the installed
//!   invariants and every proposal gets exactly one receipt;
//! * **checker determinism** — identical inputs produce identical
//!   decisions;
//! * **replication agreement** — a Paxos ring under random message loss
//!   commits every submitted command on all live replicas, in the same
//!   order;
//! * **forwarding conservation** — the traffic engine never creates or
//!   destroys demand: delivered + lost == offered.

use proptest::prelude::*;
use statesman_core::groups::ImpactGroup;
use statesman_core::{
    Checker, CheckerConfig, MergePolicy, Monitor, StatesmanClient, TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, LogCommand, PaxosCluster, StorageConfig, StorageService};
use statesman_types::{AppId, Attribute, DatacenterId, EntityName, NetworkState, Pool, Value};

/// A randomly generated proposal against the Fig-7 fabric's Aggs.
#[derive(Debug, Clone)]
struct RandomProposal {
    app: u8,
    pod: u32,
    agg: u32,
    attr_pick: u8,
    when: u64,
}

fn proposal_strategy() -> impl Strategy<Value = RandomProposal> {
    (0..4u8, 1..=10u32, 1..=4u32, 0..3u8, 0..10_000u64).prop_map(
        |(app, pod, agg, attr_pick, when)| RandomProposal {
            app,
            pod,
            agg,
            attr_pick,
            when,
        },
    )
}

fn to_change(p: &RandomProposal) -> (EntityName, Attribute, Value) {
    let entity = EntityName::device("dc1", format!("agg-{}-{}", p.pod, p.agg));
    match p.attr_pick {
        0 => (entity, Attribute::DeviceFirmwareVersion, Value::text("9.9")),
        1 => (entity, Attribute::DeviceBootImage, Value::text("img-x")),
        _ => (entity, Attribute::DeviceAdminPower, Value::power(false)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn checker_never_merges_an_invariant_violation(
        proposals in proptest::collection::vec(proposal_strategy(), 1..24)
    ) {
        let clock = SimClock::new();
        let dc = DatacenterId::new("dc1");
        let graph = statesman_topology::DcnSpec::fig7("dc1").build();
        let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
        let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
        Monitor::new(net, storage.clone(), graph.clone()).run_round().unwrap();

        let mut checker = Checker::new(
            CheckerConfig {
                group: ImpactGroup::Datacenter(dc.clone()),
                policy: MergePolicy::LastWriterWins,
            },
            graph.clone(),
        );
        let inv = TorPairCapacityInvariant::paper_default(&graph, dc.clone(), Some(1));
        checker.add_invariant(Box::new(inv));

        let mut total = 0usize;
        for p in &proposals {
            let client = StatesmanClient::new(
                format!("app-{}", p.app),
                storage.clone(),
                clock.clone(),
            );
            let (e, a, v) = to_change(p);
            let row = NetworkState::new(e, a, v, statesman_types::SimTime(p.when), client.app().clone());
            storage
                .write(statesman_storage::WriteRequest {
                    pool: Pool::Proposed(client.app().clone()),
                    rows: vec![row],
                })
                .unwrap();
            total += 1;
        }
        // Duplicate keys within one app's PS shadow each other; count the
        // distinct rows the checker will actually see.
        let distinct: usize = (0..4u8)
            .map(|a| storage.pool_len(&dc, &Pool::Proposed(AppId::new(format!("app-{a}")))))
            .sum();
        let report = checker.run_pass(&storage, clock.now()).unwrap();
        prop_assert_eq!(report.proposals_seen, distinct);
        prop_assert!(distinct <= total);
        // Every processed row got exactly one receipt.
        prop_assert_eq!(
            report.receipts.len(),
            report.accepted + report.rejected + report.already_satisfied
        );
        prop_assert_eq!(report.receipts.len(), distinct);

        // The merged TS, projected over the OS, satisfies the invariant.
        let ts_rows = storage
            .read(statesman_storage::ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Target,
                freshness: statesman_types::Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        let os_rows = storage
            .read(statesman_storage::ReadRequest {
                datacenter: dc.clone(),
                pool: Pool::Observed,
                freshness: statesman_types::Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap();
        let os = statesman_core::MapView::from_rows(os_rows);
        let ts = statesman_core::MapView::from_rows(ts_rows);
        let projected = statesman_core::view::project_health(
            &graph,
            &os,
            Some(&ts as &dyn statesman_core::StateView),
        );
        let pairs = statesman_topology::capacity::select_tor_pairs(&graph, &dc, Some(1));
        let report = statesman_topology::capacity::evaluate(&graph, &projected, &pairs);
        prop_assert!(
            report.fraction_meeting(0.5) + 1e-9 >= 0.99,
            "projected TS violates capacity: {:.3}",
            report.fraction_meeting(0.5)
        );
    }

    #[test]
    fn checker_is_deterministic(
        proposals in proptest::collection::vec(proposal_strategy(), 1..12)
    ) {
        let run = || {
            let clock = SimClock::new();
            let dc = DatacenterId::new("dc1");
            let graph = statesman_topology::DcnSpec::tiny("dc1").build();
            let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
            let storage =
                StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
            Monitor::new(net, storage.clone(), graph.clone()).run_round().unwrap();
            let checker = Checker::new(
                CheckerConfig {
                    group: ImpactGroup::Datacenter(dc.clone()),
                    policy: MergePolicy::LastWriterWins,
                },
                graph,
            );
            for p in &proposals {
                // Map pods/aggs into the tiny fabric's 2x2 range.
                let entity =
                    EntityName::device("dc1", format!("agg-{}-{}", p.pod % 2 + 1, p.agg % 2 + 1));
                let app = AppId::new(format!("app-{}", p.app));
                let row = NetworkState::new(
                    entity,
                    Attribute::DeviceBootImage,
                    Value::text(format!("img-{}", p.attr_pick)),
                    statesman_types::SimTime(p.when),
                    app.clone(),
                );
                storage
                    .write(statesman_storage::WriteRequest {
                        pool: Pool::Proposed(app),
                        rows: vec![row],
                    })
                    .unwrap();
            }
            let report = checker.run_pass(&storage, clock.now()).unwrap();
            let mut decisions: Vec<String> = report
                .receipts
                .iter()
                .map(|r| format!("{}|{}|{}", r.app, r.key, r.outcome.tag()))
                .collect();
            decisions.sort();
            decisions
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn paxos_agreement_under_loss(
        drop_milli in 0u32..400,
        n_cmds in 1usize..25,
        seed in 0u64..1_000
    ) {
        let mut cfg = ClusterConfig::intra_dc(seed);
        cfg.drop_prob = drop_milli as f64 / 1000.0;
        cfg.max_retries = 64;
        let mut ring = PaxosCluster::new(cfg);
        for i in 0..n_cmds {
            let cmd = LogCommand::WriteBatch {
                pool: Pool::Observed,
                rows: vec![NetworkState::new(
                    EntityName::device("dc1", format!("d{i}")),
                    Attribute::DeviceBootImage,
                    Value::text("x"),
                    statesman_types::SimTime::ZERO,
                    AppId::monitor(),
                )]
                .into(),
            };
            ring.submit(cmd).unwrap();
        }
        // Every committed slot applied on the leader. Failover
        // re-proposals may occupy extra slots (plus Noop barriers from
        // leader changes), but request-id dedupe guarantees each logical
        // command took effect exactly once: the pool has exactly one row
        // per distinct command.
        let leader = ring.leader().unwrap();
        prop_assert!(ring.applied_through(leader) as usize >= n_cmds);
        let m = ring.leader_machine().unwrap();
        prop_assert_eq!(m.pool_len(&Pool::Observed), n_cmds);
    }

    #[test]
    fn forwarding_conserves_demand(
        demands in proptest::collection::vec((0..4usize, 0..4usize, 1.0f64..10_000.0), 1..12)
    ) {
        let clock = SimClock::new();
        let graph = statesman_topology::WanSpec::fig9().build();
        let net = SimNetwork::new(&graph, clock, SimConfig::ideal());
        // Random flows between plane-0 routers (br-1,3,5,7), no rules
        // installed for some → loss; install rules for direct links only.
        use statesman_net::{DeviceCommand, FlowSpec};
        use statesman_types::{FlowLinkRule, LinkName};
        let brs = ["br-1", "br-3", "br-5", "br-7"];
        let mut flows = Vec::new();
        let mut offered = 0.0;
        for (i, (s, d, mbps)) in demands.iter().enumerate() {
            if s == d {
                continue;
            }
            let id = format!("f{i}");
            let (src, dst) = (brs[*s], brs[*d]);
            // Install the direct rule on even flows; odd flows are
            // deliberately unrouted (lost).
            if i % 2 == 0 {
                net.submit(
                    &src.into(),
                    DeviceCommand::SetRoutingRules {
                        rules: vec![FlowLinkRule::new(
                            id.clone(),
                            LinkName::between(src, dst),
                            1.0,
                        )],
                    },
                );
            }
            flows.push(FlowSpec::new(id, src, dst, *mbps));
            offered += *mbps;
        }
        // Device rule-sets overwrite each other per submit; rebuild the
        // union per device instead.
        // (Simplest: re-submit cumulative rules per device.)
        use std::collections::HashMap;
        let mut per_dev: HashMap<&str, Vec<FlowLinkRule>> = HashMap::new();
        for (i, (s, d, _)) in demands.iter().enumerate() {
            if s == d || i % 2 != 0 {
                continue;
            }
            let (src, dst) = (brs[*s], brs[*d]);
            per_dev.entry(src).or_default().push(FlowLinkRule::new(
                format!("f{i}"),
                LinkName::between(src, dst),
                1.0,
            ));
        }
        for (dev, rules) in per_dev {
            net.submit(&dev.into(), DeviceCommand::SetRoutingRules { rules });
        }
        net.offer_flows(flows);
        net.step(statesman_types::SimDuration::from_secs(1));
        let report = net.traffic_report();
        prop_assert!(
            (report.accounted_mbps() - offered).abs() < 1e-6 * offered.max(1.0),
            "offered {offered}, accounted {}",
            report.accounted_mbps()
        );
    }
}
