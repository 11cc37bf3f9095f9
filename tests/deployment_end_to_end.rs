//! Integration test: a multi-datacenter deployment (two fabrics + WAN),
//! exercising impact-group isolation and the full control loop across
//! partitioned storage rings.

use statesman_core::{Coordinator, CoordinatorConfig, StatesmanClient};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::{DcnSpec, DeploymentSpec, WanSpec};
use statesman_types::{Attribute, DatacenterId, EntityName, SimDuration, Value, WriteOutcome};

fn deployment() -> (
    statesman_topology::NetworkGraph,
    SimNetwork,
    StorageService,
    SimClock,
) {
    let clock = SimClock::new();
    let dep = DeploymentSpec {
        dcns: vec![DcnSpec::tiny("dc1"), DcnSpec::tiny("dc2")],
        wan: Some(WanSpec {
            dc_names: vec!["dc1".into(), "dc2".into()],
            border_routers_per_dc: 2,
            wan_link_mbps: 100_000.0,
        }),
        br_core_mbps: 100_000.0,
    };
    let graph = dep.build();
    let mut cfg = SimConfig::ideal();
    cfg.faults.command_latency_ms = 500;
    cfg.faults.reboot_window_ms = 2 * 60_000;
    let net = SimNetwork::new(&graph, clock.clone(), cfg);
    let storage = StorageService::new(
        [DatacenterId::new("dc1"), DatacenterId::new("dc2")],
        clock.clone(),
        StorageConfig::default(),
    );
    (graph, net, storage, clock)
}

#[test]
fn impact_groups_cover_the_deployment() {
    let (graph, net, storage, _clock) = deployment();
    let coord = Coordinator::new(&graph, net, storage, CoordinatorConfig::default());
    let groups = coord.groups();
    assert!(groups.contains(&"dc:dc1".to_string()));
    assert!(groups.contains(&"dc:dc2".to_string()));
    assert!(groups.contains(&"wan".to_string()));
}

#[test]
fn groups_decide_independently() {
    let (graph, net, storage, clock) = deployment();
    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig::default(),
    );
    coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

    let app = StatesmanClient::new("switch-upgrade", storage, clock);
    // dc1: an over-aggressive pair that must be partially rejected
    // (tiny fabric: taking both Aggs of a pod violates 50% capacity).
    // dc2: a safe single upgrade that must be accepted regardless.
    app.propose([
        (
            EntityName::device("dc1", "dc1.agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        ),
        (
            EntityName::device("dc1", "dc1.agg-1-2"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        ),
        (
            EntityName::device("dc2", "dc2.agg-1-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        ),
    ])
    .unwrap();
    let round = coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
    assert_eq!(round.accepted(), 2, "one dc1 Agg + the dc2 Agg");
    assert_eq!(round.rejected(), 1, "the second dc1 Agg");

    // The dc2 acceptance was not contingent on dc1's violation.
    let receipts = app.take_receipts().unwrap();
    let dc2_receipt = receipts
        .iter()
        .find(|r| r.key.entity.datacenter == DatacenterId::new("dc2"))
        .unwrap();
    assert_eq!(dc2_receipt.outcome, WriteOutcome::Accepted);
}

#[test]
fn upgrades_converge_in_both_dcs() {
    let (graph, net, storage, clock) = deployment();
    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig::default(),
    );
    coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
    let app = StatesmanClient::new("switch-upgrade", storage, clock);
    app.propose([
        (
            EntityName::device("dc1", "dc1.agg-2-1"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        ),
        (
            EntityName::device("dc2", "dc2.agg-2-2"),
            Attribute::DeviceFirmwareVersion,
            Value::text("7.0"),
        ),
    ])
    .unwrap();
    for _ in 0..4 {
        coord.tick_and_advance(SimDuration::from_mins(5)).unwrap();
    }
    assert_eq!(
        net.device_snapshot(&"dc1.agg-2-1".into())
            .unwrap()
            .observed_firmware(),
        "7.0"
    );
    assert_eq!(
        net.device_snapshot(&"dc2.agg-2-2".into())
            .unwrap()
            .observed_firmware(),
        "7.0"
    );
}

#[test]
fn ps_rows_are_consumed_only_by_their_impact_group() {
    // One application proposes against a fabric device (dc1 group) and a
    // border router (WAN group) in the same PS. Each checker consumes
    // exactly its own group's rows; running only one group must leave the
    // other group's proposal intact for its own checker.
    use statesman_core::groups::ImpactGroup;
    use statesman_core::{Checker, CheckerConfig, MergePolicy, Monitor};

    let (graph, net, storage, clock) = deployment();
    Monitor::new(net, storage.clone(), graph.clone())
        .run_round()
        .unwrap();
    let app = StatesmanClient::new("mixed-app", storage.clone(), clock.clone());
    app.propose([
        (
            EntityName::device("dc1", "dc1.agg-1-1"),
            Attribute::DeviceBootImage,
            Value::text("img-a"),
        ),
        (
            EntityName::device("dc1", "br-1"),
            Attribute::DeviceBootImage,
            Value::text("img-b"),
        ),
    ])
    .unwrap();

    // Run only the dc1 checker.
    let dc1_checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(DatacenterId::new("dc1")),
            policy: MergePolicy::PriorityLock,
        },
        graph.clone(),
    );
    let r = dc1_checker.run_pass(&storage, clock.now()).unwrap();
    assert_eq!(r.proposals_seen, 1, "only the fabric row");
    assert_eq!(r.accepted, 1);

    // The border-router row is still pending in the PS pool.
    let remaining = storage.pool_len(
        &DatacenterId::new("dc1"),
        &statesman_types::Pool::Proposed(app.app().clone()),
    );
    assert_eq!(remaining, 1, "WAN-group row left for the WAN checker");

    // The WAN checker picks it up.
    let wan_checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Wan,
            policy: MergePolicy::PriorityLock,
        },
        graph,
    );
    let r = wan_checker.run_pass(&storage, clock.now()).unwrap();
    assert_eq!(r.proposals_seen, 1);
    assert_eq!(r.accepted, 1);
    let remaining = storage.pool_len(
        &DatacenterId::new("dc1"),
        &statesman_types::Pool::Proposed(app.app().clone()),
    );
    assert_eq!(remaining, 0);
}

#[test]
fn border_router_locks_live_in_the_wan_group() {
    let (graph, net, storage, clock) = deployment();
    let coord = Coordinator::new(&graph, net, storage.clone(), CoordinatorConfig::default());
    coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();

    let te = StatesmanClient::new("inter-dc-te", storage.clone(), clock.clone());
    let upg = StatesmanClient::new("switch-upgrade", storage, clock);
    let br = EntityName::device("dc1", "br-1");

    te.acquire_lock(&br, statesman_types::LockPriority::Low, None)
        .unwrap();
    coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
    assert!(te.holds_lock(&br).unwrap());

    upg.acquire_lock(&br, statesman_types::LockPriority::High, None)
        .unwrap();
    coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
    assert!(upg.holds_lock(&br).unwrap());
    assert!(!te.holds_lock(&br).unwrap());
}
