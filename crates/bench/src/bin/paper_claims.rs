//! The paper's quantitative claims that no control round shows, each
//! timed as a stage tree (`statesman_obs::Stage`) with every stage's heap
//! allocations, and each asserted: `checker_scale` (§8), `ablations`
//! (merge policies, §5's impact groups, incremental capacity),
//! `storage_write`, `freshness` (§6.4) and `partitioning` (§6.1). Sizes
//! and repeat counts are fixed; `cargo run --release -p statesman-bench
//! --bin paper_claims` takes seconds, prints every tree and writes
//! `BENCH_paper_claims.json`: per section the tree, each stage's ms and
//! allocations by path, and the figures that are not wall time.

use statesman_bench::alloc::{counted, Counting};
use statesman_core::groups::ImpactGroup;
use statesman_core::{Checker, CheckerConfig, CheckerPassReport, ConnectivityInvariant};
use statesman_core::{MergePolicy, Monitor, StatesmanClient, TorPairCapacityInvariant};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_obs::Stage;
use statesman_storage::WriteRequest;
use statesman_storage::{ClusterConfig, LogCommand, PaxosCluster, StorageConfig, StorageService};
use statesman_topology::NetworkGraph;
use statesman_topology::{capacity, CapacityPanel, DcnSpec, DeploymentSpec, HealthView};
use statesman_types::{AppId, Attribute, DatacenterId, DeviceName, EntityName, Freshness};
use statesman_types::{NetworkState, Pool, SimTime, Value};
use std::time::Instant;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    let mut t = Timer::default();
    t.stage("checker_scale", checker_scale);
    t.stage("ablations", |t| {
        t.stage("merge_policies", merge_policies);
        t.stage("impact_groups", impact_groups);
        invariant_incremental(t);
    });
    storage_write(&mut t);
    freshness(&mut t);
    t.stage("partitioning", partitioning);
    let json = t.json.join(",\n");
    let json = format!("{{\n  \"bench\": \"paper_claims\",\n{json}\n}}\n");
    std::fs::write("BENCH_paper_claims.json", json).expect("write BENCH_paper_claims.json");
}

/// Builds each section's stage tree and JSON rows as it runs: `open`
/// holds the running stages and the children each has so far.
#[derive(Default)]
struct Timer {
    open: Vec<(String, Vec<Stage>)>,
    rows: Vec<String>,
    json: Vec<String>,
}

impl Timer {
    /// Run `f` as the stage `name` inside the running one: its wall time,
    /// and the allocations any thread made meanwhile.
    fn stage<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open.push((name.into(), Vec::new()));
        let path: Vec<&str> = self.open.iter().map(|(n, _)| n.as_str()).collect();
        let (path, at) = (path.join("/"), self.rows.len());
        self.rows.push(String::new());
        let (start, mut out) = (Instant::now(), None);
        let allocs = counted(|| {
            out = Some(f(self));
            0
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (n, bytes) = (allocs.count, allocs.bytes);
        self.rows[at] = format!(
            "{{\"stage\": \"{path}\", \"ms\": {ms:.3}, \"allocs\": {n}, \"alloc_bytes\": {bytes}}}"
        );
        let (name, children) = self.open.pop().expect("this stage");
        let stage = Stage::new(name, ms).with_children(children);
        if let Some((_, siblings)) = self.open.last_mut() {
            siblings.push(stage);
            return out.expect("the stage ran");
        }
        println!("{}", stage.render());
        let tree = serde_json::to_string(&stage).expect("stage tree encodes");
        let (name, rows) = (&stage.name, std::mem::take(&mut self.rows).join(",\n    "));
        let section = format!("  \"{name}\": {{\"tree\": {tree}, \"stages\": [\n    {rows}\n  ]}}");
        self.json.push(section);
        out.expect("the stage ran")
    }

    /// The stage `name`: `new` and the drop of what it built, as stages
    /// `setup` and `drop`, with `f` over it between them.
    fn point<S>(&mut self, name: &str, new: impl FnOnce() -> S, f: impl FnOnce(&mut Self, &mut S)) {
        self.stage(name, |t| {
            let mut built = t.stage("setup", |_| new());
            f(t, &mut built);
            t.stage("drop", |_| drop(built));
        })
    }

    /// A figure of the running section that is not wall time.
    fn figure(&mut self, key: &str, value: impl std::fmt::Display) {
        println!("{key}: {value}");
        let row = format!("{{\"figure\": \"{key}\", \"value\": {value}}}");
        self.rows.push(row);
    }
}

/// A write of `dev-{i}`'s firmware row into `dc1`'s OS pool, each `i`.
fn os_write(devs: impl Iterator<Item = usize>, firmware: &str) -> WriteRequest {
    let (fw, value) = (Attribute::DeviceFirmwareVersion, Value::text(firmware));
    let row = |i| {
        let dev = EntityName::device("dc1", format!("dev-{i}"));
        NetworkState::new(dev, fw, value.clone(), SimTime::ZERO, AppId::monitor())
    };
    let (pool, rows) = (Pool::Observed, devs.map(row).collect());
    WriteRequest { pool, rows }
}

/// An empty storage service for `dcs` on a `replicas`-replica ring.
fn storage(dcs: impl IntoIterator<Item = DatacenterId>, replicas: usize) -> StorageService {
    let mut config = StorageConfig::default();
    config.ring.replicas = replicas;
    StorageService::new(dcs, SimClock::new(), config)
}

/// Seed `storage`'s OS pool with one monitor round over `graph`.
fn seed_os(graph: &NetworkGraph, storage: &StorageService) {
    let net = SimNetwork::new(graph, storage.clock().clone(), SimConfig::ideal());
    let monitor = Monitor::new(net, storage.clone(), graph.clone());
    monitor.run_round().expect("seed OS");
}

fn client(app: &str, storage: &StorageService) -> StatesmanClient {
    StatesmanClient::new(app, storage.clone(), storage.clock().clone())
}

fn checker(graph: &NetworkGraph, group: ImpactGroup, policy: MergePolicy) -> Checker {
    Checker::new(CheckerConfig { group, policy }, graph.clone())
}

/// One checker pass, as the stage `name`.
fn pass(t: &mut Timer, name: &str, c: &Checker, s: &StorageService) -> CheckerPassReport {
    let now = s.clock().now();
    t.stage(name, |_| c.run_pass(s, now)).expect("pass")
}

fn agg(dc: &str, pod: u32, a: u32) -> EntityName {
    EntityName::device(dc, format!("agg-{pod}-{a}"))
}

fn checker_scale(t: &mut Timer) {
    for target in [10_000, 50_000, 100_000, 394_000] {
        let setup = || {
            let graph = DcnSpec::sized_for_variables("dcX", target).build();
            let dc = DatacenterId::new("dcX");
            let storage = storage([dc.clone()], 1);
            seed_os(&graph, &storage);
            let group = ImpactGroup::Datacenter(dc.clone());
            let mut checker = checker(&graph, group, MergePolicy::PriorityLock);
            let cap =
                TorPairCapacityInvariant::sampled(&graph, dc.clone(), 0.5, 0.99, Some(1), 256, 7);
            checker.add_invariant(Box::new(ConnectivityInvariant::new(dc.clone())));
            checker.add_invariant(Box::new(cap));
            // Two Aggs per pod to firmware 7.0.
            let fw = |agg| (agg, Attribute::DeviceFirmwareVersion, Value::text("7.0"));
            let pods = graph.pods_in(&dc);
            let aggs = pods.iter().flat_map(|&p| [1, 2].map(|a| agg("dcX", p, a)));
            let app = client("switch-upgrade", &storage);
            (checker, storage, app, aggs.map(fw).collect::<Vec<_>>())
        };
        let name = target.to_string();
        t.point(&name, setup, |t, (checker, storage, app, fws)| {
            let mut variables_read = 0;
            for _ in 0..2 {
                let proposed = t.stage("propose", |_| app.propose(fws.clone()));
                proposed.expect("propose");
                let report = pass(t, "pass", checker, storage);
                assert!(report.proposals_seen > 0);
                // The §8 bound: every pass under 10 s.
                assert!(report.elapsed.as_secs_f64() < 10.0, "{report:?}");
                variables_read = report.variables_read;
            }
            t.figure(&format!("variables_read_{target}"), variables_read);
        });
    }
}

fn merge_policies(t: &mut Timer) {
    for (name, policy) in [
        ("last_writer_wins", MergePolicy::LastWriterWins),
        ("priority_lock", MergePolicy::PriorityLock),
    ] {
        let setup = || {
            let graph = DcnSpec::fig7("dc1").build();
            let dc = DatacenterId::new("dc1");
            let storage = storage([dc.clone()], 3);
            seed_os(&graph, &storage);
            let apps = [0, 1, 2, 3].map(|i| client(&format!("app-{i}"), &storage));
            let checker = checker(&graph, ImpactGroup::Datacenter(dc), policy);
            (checker, storage, apps)
        };
        t.point(name, setup, |t, (checker, storage, apps)| {
            for _ in 0..4 {
                // Four contending apps, all writing the same 10 keys.
                t.stage("propose", |_| {
                    for (i, app) in apps.iter().enumerate() {
                        let img = Value::text(format!("img-{i}"));
                        let set = |p| (agg("dc1", p, 1), Attribute::DeviceBootImage, img.clone());
                        app.propose((1..=10).map(set)).expect("propose");
                    }
                });
                assert_eq!(pass(t, "pass", checker, storage).proposals_seen, 40);
            }
        });
    }
}

/// §5: a checker per DC impact group does the same work however many DCs
/// the fleet has (and instances distribute); a global checker's pass
/// grows with the whole fleet.
fn impact_groups(t: &mut Timer) {
    for n in [2, 4, 8] {
        let setup = || {
            // The §7.1 deployment's shape, cut to `n` DCs.
            let mut spec = DeploymentSpec::azure_like(|i| DcnSpec::tiny(format!("dc{i}")));
            spec.dcns.truncate(n);
            spec.wan.as_mut().expect("a WAN").dc_names.truncate(n);
            let graph = spec.build();
            let storage = storage(spec.dcns.iter().map(|d| DatacenterId::new(&d.name)), 3);
            seed_os(&graph, &storage);
            let (dc1, policy) = (DatacenterId::new("dc1"), MergePolicy::PriorityLock);
            let one_dc = checker(&graph, ImpactGroup::Datacenter(dc1), policy);
            let global = checker(&graph, ImpactGroup::Global, policy);
            let checkers = [("one_dc_group_pass", one_dc), ("global_pass", global)];
            (storage, checkers)
        };
        t.point(&format!("{n}_dcs"), setup, |t, (storage, checkers)| {
            for (name, checker) in checkers.iter() {
                pass(t, name, checker, storage);
                pass(t, name, checker, storage);
            }
        });
    }
}

fn invariant_incremental(t: &mut Timer) {
    let setup = || {
        let graph = DcnSpec::fig7("dc1").build();
        let pairs = capacity::select_tor_pairs(&graph, &DatacenterId::new("dc1"), Some(1));
        let baselines = capacity::baselines_for(&graph, &pairs);
        let mut health = HealthView::all_up();
        health.set_device_down(DeviceName::new("agg-3-1"));
        let panel = CapacityPanel::new(&graph, pairs.clone());
        let all_up = panel.evaluate_synced(&graph, &HealthView::all_up());
        (graph, pairs, baselines, health, panel, all_up)
    };
    t.point("invariant_incremental", setup, |t, s| {
        let (g, pairs, base, health, panel, all_up) = &*s;
        let evaluate = |_: &mut Timer| capacity::evaluate_with_baselines(g, health, pairs, base);
        let full = [(); 4].map(|_| t.stage("full_evaluation", evaluate));
        // One sync from all-up: the mask diff finds pod 3 and re-solves
        // its 18 pairs (the clone of the 90-pair start is part of the cost).
        let sync = |_: &mut Timer| {
            let mut synced = all_up.clone();
            panel.sync(g, health, &mut synced);
            synced
        };
        let synced = [(); 4].map(|_| t.stage("mask_diff_sync", sync));
        for (full, synced) in full.iter().zip(&synced) {
            assert_eq!(full.pairs.len(), 90);
            assert_eq!(synced.report().pairs, full.pairs, "sync != full");
        }
    });
}

fn storage_write(t: &mut Timer) {
    const ROWS: usize = 100_000;
    const CHURN: usize = 4_096;
    let setup = || {
        let storage = storage([DatacenterId::new("dc1")], 3);
        storage.write_bulk(os_write(0..ROWS, "6.0")).expect("seed");
        // Round `r` moves a window of devices to firmware `r`, so every
        // row is a real change; a `write` stage is the write alone.
        let churn = |r: usize| {
            let devs = (r * CHURN..(r + 1) * CHURN).map(|i| i % ROWS);
            os_write(devs, &format!("fw-{r}"))
        };
        (storage, (0..=5).map(churn).collect::<Vec<_>>())
    };
    t.point("storage_write", setup, |t, (storage, rounds)| {
        // The first write after a seed this size folds the ring's log:
        // its own stage, apart from the five steady-state writes.
        for (r, req) in rounds.drain(..).enumerate() {
            let name = if r == 0 { "fold_write" } else { "write" };
            t.stage(name, |_| storage.write(req)).expect("churn write");
        }
    });
}

/// §6.4: bounded-stale reads are served from a cache that scales out (a
/// shared read lock and an `Arc` snapshot), while up-to-date reads
/// serialize on the partition leader.
fn freshness(t: &mut Timer) {
    let dc = DatacenterId::new("dc1");
    let setup = || {
        let storage = storage([dc.clone()], 3);
        for c in 0..4 {
            let req = os_write(c * 5_000..(c + 1) * 5_000, "6.0");
            storage.write(req).expect("seed");
        }
        let app = client("reader", &storage);
        // The cache fill is set-up, not a read.
        app.read_os(&dc, Freshness::BoundedStale).expect("fill");
        (storage, app)
    };
    t.point("freshness", setup, |t, (storage, app)| {
        let read = |mode| assert_eq!(app.read_os(&dc, mode).expect("read").len(), 20_000);
        let (hits, leader_reads) = storage.read_stats();
        let mut reads = 0;
        for (name, threads, each) in [("one_thread", 1, 1), ("8_threads_x50", 8, 50)] {
            t.stage(name, |t| {
                for mode in [Freshness::UpToDate, Freshness::BoundedStale] {
                    // The calling thread is one of the readers; the scope
                    // joins the others and re-raises any panic.
                    let run = || (0..each).for_each(|_| read(mode));
                    let readers = |_: &mut Timer| {
                        std::thread::scope(|s| {
                            (1..threads).for_each(|_| drop(s.spawn(run)));
                            run()
                        })
                    };
                    t.stage(format!("{mode:?}"), readers);
                    t.stage(format!("{mode:?}"), readers);
                }
            });
            reads += 2 * threads * each;
        }
        let (all_hits, all_leader_reads) = storage.read_stats();
        let (hits, leader_reads) = (all_hits - hits, all_leader_reads - leader_reads);
        t.figure("bounded_stale_cache_hits", hits);
        t.figure("leader_reads", leader_reads);
        // Every bounded-stale read was a cache hit, and only the
        // up-to-date reads went to the leader.
        assert_eq!((hits, leader_reads), (reads, reads));
    });
}

/// §6.1: "WAN latencies will hurt the scalability and performance of
/// Statesman". Virtual commit latency, so host speed does not matter.
fn partitioning(t: &mut Timer) {
    let mut mean_commit_us = |name: &str, config| {
        t.stage(name, |_| {
            let mut ring = PaxosCluster::new(config);
            for i in 0..50 {
                let req = os_write(i..i + 1, "6.0");
                let (pool, rows) = (req.pool, req.rows.into());
                let cmd = LogCommand::WriteBatch { pool, rows };
                ring.submit(cmd).expect("commit");
            }
            ring.mean_commit_latency()
        })
    };
    let intra = mean_commit_us("intra_dc_ring_x50", ClusterConfig::intra_dc(5));
    let wan = mean_commit_us("global_wan_ring_x50", ClusterConfig::global_wan(5));
    t.figure("intra_dc_commit_us", format!("{intra:.1}"));
    t.figure("global_wan_commit_us", format!("{wan:.1}"));
    t.figure("wan_over_intra", format!("{:.1}", wan / intra));
    assert!(wan / intra > 20.0, "a WAN ring must commit > 20x slower");
}
