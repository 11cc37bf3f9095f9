//! §8 claim: checker conflict-resolution + invariant-checking latency
//! stays under 10 s at the largest DC (394K state variables), and scales
//! roughly linearly with variable count.
//!
//! Measures one full checker pass (read OS/PS/TS, reconcile, merge with
//! live proposals, evaluate invariants, persist) at increasing fabric
//! sizes. The scenario setup (graph, storage seeding via a real monitor
//! round) happens outside the measured closure.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use statesman_core::groups::ImpactGroup;
use statesman_core::{
    Checker, CheckerConfig, ConnectivityInvariant, MergePolicy, Monitor, StatesmanClient,
    TorPairCapacityInvariant,
};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{Attribute, DatacenterId, EntityName, Value};

struct Harness {
    checker: Checker,
    storage: StorageService,
    client: StatesmanClient,
    clock: SimClock,
    dc: DatacenterId,
    pods: Vec<u32>,
}

fn harness(target_vars: usize) -> Harness {
    let clock = SimClock::new();
    let spec = DcnSpec::sized_for_variables("dcX", target_vars);
    let graph = spec.build();
    let dc = DatacenterId::new("dcX");
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
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
    Monitor::new(net, storage.clone(), graph.clone())
        .run_round()
        .expect("seed OS");
    let mut checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(dc.clone()),
            policy: MergePolicy::PriorityLock,
        },
        graph.clone(),
    );
    checker.add_invariant(Box::new(ConnectivityInvariant::new(dc.clone())));
    checker.add_invariant(Box::new(TorPairCapacityInvariant::sampled(
        &graph,
        dc.clone(),
        0.5,
        0.99,
        Some(1),
        256,
        7,
    )));
    let client = StatesmanClient::new("switch-upgrade", storage.clone(), clock.clone());
    let pods = graph.pods_in(&dc);
    Harness {
        checker,
        storage,
        client,
        clock,
        dc,
        pods,
    }
}

fn bench_checker_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_latency");
    group.sample_size(10);
    for target in [10_000usize, 50_000, 100_000, 394_000] {
        let h = harness(target);
        group.bench_with_input(BenchmarkId::from_parameter(target), &target, |b, _| {
            b.iter(|| {
                // Fresh proposals per iteration: two Aggs per pod.
                let mut proposals = Vec::new();
                for pod in &h.pods {
                    for a in 1..=2u32 {
                        proposals.push((
                            EntityName::device(h.dc.clone(), format!("agg-{pod}-{a}")),
                            Attribute::DeviceFirmwareVersion,
                            Value::text("7.0"),
                        ));
                    }
                }
                h.client.propose(proposals).expect("propose");
                let report = h
                    .checker
                    .run_pass(&h.storage, h.clock.now())
                    .expect("checker pass");
                assert!(report.proposals_seen > 0);
                // The §8 bound: every pass under 10 s.
                assert!(report.elapsed.as_secs_f64() < 10.0);
                report.variables_read
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checker_latency);
criterion_main!(benches);
