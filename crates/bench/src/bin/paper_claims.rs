//! The paper's figures and the quantitative claims that no control round
//! shows, each timed as a stage tree (`statesman_obs::Stage`) with every
//! stage's heap allocations, and each asserted: `fig1_fig2`, `fig8`
//! (§7.2) and `fig10` (§7.3), `checker_scale` (§8's ten-DC fleet),
//! `ablations` (merge policies, §5's impact groups, incremental
//! capacity), `storage_write`, `freshness` (§6.4) and `partitioning`
//! (§6.1). Sizes and repeat counts are fixed; `cargo run --release -p
//! statesman-bench --bin paper_claims` takes seconds, prints every tree
//! and writes `BENCH_paper_claims.json`: per section the tree, each
//! stage's ms and allocations by path, and the figures that are not wall
//! time (a figure's events, raster and per-sample series among them).

use serde_json::to_string as json;
use statesman_bench::alloc::{counted, Counting};
use statesman_bench::fig10::{Fig10Config, Fig10Sample, Fig10Scenario};
use statesman_bench::fig8::{Fig8Config, Fig8Scenario};
use statesman_bench::motivation::{run_fig1, run_fig2};
use statesman_bench::{report, scale};
use statesman_core::groups::ImpactGroup;
use statesman_core::TorPairCapacityInvariant;
use statesman_core::{Checker, CheckerConfig, CheckerPassReport, ConnectivityInvariant};
use statesman_core::{MergePolicy, Monitor, MonitorReport, StatesmanClient};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_obs::Stage;
use statesman_storage::WriteRequest;
use statesman_storage::{ClusterConfig, LogCommand, PaxosCluster, StorageConfig, StorageService};
use statesman_topology::NetworkGraph;
use statesman_topology::{capacity, CapacityPanel, DcnSpec, DeploymentSpec, HealthView};
use statesman_types::{
    AppId, Attribute, DatacenterId, DeviceName, EntityName, Freshness, LinkName,
};
use statesman_types::{NetworkState, Pool, SimTime, Value};
use std::time::Instant;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    let mut t = Timer::default();
    t.stage("fig1_fig2", fig1_fig2);
    t.stage("fig8", fig8);
    t.stage("fig10", fig10);
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
        let at = self.rows.len();
        self.rows.push(String::new());
        let (start, mut out) = (Instant::now(), None);
        let allocs = counted(|| {
            out = Some(f(self));
            0
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let path: Vec<&str> = self.open.iter().map(|(n, _)| n.as_str()).collect();
        let path = path.join("/");
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

    /// Rename the running stage, for a name that only its outcome tells.
    fn rename(&mut self, name: &str) {
        self.open.last_mut().expect("a running stage").0 = name.into();
    }

    /// A figure of the running section that is not wall time.
    fn figure(&mut self, key: &str, value: impl std::fmt::Display) {
        println!("{key}: {value}");
        self.data(key, Ok(value.to_string()));
    }

    /// A figure too long to print (events, a raster, a series), as the
    /// JSON that [`json`] made of it.
    fn data(&mut self, key: &str, json: Result<String, serde_json::Error>) {
        let json = json.expect("figure data encodes");
        let row = format!("{{\"figure\": \"{key}\", \"value\": {json}}}");
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
fn seed_os(graph: &NetworkGraph, storage: &StorageService) -> MonitorReport {
    let net = SimNetwork::new(graph, storage.clock().clone(), SimConfig::ideal());
    let monitor = Monitor::new(net, storage.clone(), graph.clone());
    monitor.run_round().expect("seed OS")
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

/// Figs 1–2: without Statesman a TE tunnel loses its traffic to a
/// firmware upgrade (Fig 1) and a pod partitions when both its Aggs go
/// down (Fig 2); with Statesman mediating, neither happens.
fn fig1_fig2(t: &mut Timer) {
    // Lost Mbps for Fig 1; 1 if the pod partitioned for Fig 2.
    for (name, run) in [("fig1", run_fig1 as fn() -> _), ("fig2", run_fig2)] {
        let outcome = t.stage(name, |_| run());
        let (without, with) = (outcome.without_statesman, outcome.with_statesman);
        t.figure(&format!("{name}_without_statesman"), without);
        t.figure(&format!("{name}_with_statesman"), with);
        t.data(&format!("{name}_notes"), json(&outcome.notes));
        assert!(without > 0.0 && with == 0.0, "{name}: {:?}", outcome.notes);
    }
}

/// §7.2, Fig 8: switch-upgrade and failure-mitigation coexisting under
/// the 99%/50% ToR-pair capacity invariant on the Fig-7 fabric.
fn fig8(t: &mut Timer) {
    let scenario = t.stage("setup", |_| Fig8Scenario::new(Fig8Config::default()));
    let result = t.stage("run", |_| scenario.run());
    let min = result.min_fraction();
    t.figure("min_fraction", min);
    t.figure("accepted", result.accepted);
    t.figure("rejected", result.rejected);
    assert!(min >= 0.5 - 1e-9, "a ToR pair fell below 50% capacity");
    // Pods 1–3 (A–C), the link shut (D), then pods 4 and 5 (E, F).
    let at = |label| result.event_time(label).expect(label);
    let order = ["A:", "B:", "C:", "D: failure-mitigation", "E:", "F:"].map(at);
    assert!(order.windows(2).all(|w| w[0] < w[1]), "{:?}", result.events);
    // Per sample, each pair's capacity fraction in `pair_pods` order.
    let times: Vec<_> = result.samples.iter().map(|s| s.at).collect();
    let fractions: Vec<_> = result.samples.iter().map(|s| s.fractions.clone()).collect();
    t.data("events", json(&result.events));
    t.data("pair_pods", json(&result.pair_pods));
    t.data("raster", json(&report::capacity_raster(&fractions)));
    t.data("sample_times", json(&times));
    t.data("fractions", json(&fractions));
}

/// §7.3, Fig 10: inter-DC TE and switch-upgrade resolving their conflict
/// over br-1 through priority locks on the Fig-9 WAN.
fn fig10(t: &mut Timer) {
    let scenario = t.stage("setup", |_| Fig10Scenario::new(Fig10Config::default()));
    let result = t.stage("run", |_| scenario.run());
    let br1 = DeviceName::new("br-1");
    let at = |label| result.event_time(label).expect(label);
    // From its reboot (C) until the upgrade releases its lock (D).
    let peak = result.peak_load(&br1, at("C:"), at("D:"));
    t.figure("br1_peak_mbps_while_upgrading", peak);
    assert!(
        peak < 1.0,
        "br-1 loaded while upgrading: {:?}",
        result.events
    );
    let firmware = &result.final_versions[0].1;
    t.figure("br1_final_firmware", format!("\"{firmware}\""));
    assert_eq!(firmware, "9.4.2");
    // Per sample, each directed link's Mbps in `links` order.
    let link = |(l, from, _): &(LinkName, DeviceName, f64)| {
        format!("{from}>{}", l.peer_of(from).expect("an endpoint"))
    };
    let links: Vec<_> = result.samples[0].loads.iter().map(link).collect();
    let times: Vec<_> = result.samples.iter().map(|s| s.at).collect();
    let mbps = |s: &Fig10Sample| s.loads.iter().map(|(_, _, m)| *m).collect::<Vec<_>>();
    let loads: Vec<_> = result.samples.iter().map(mbps).collect();
    t.data("events", json(&result.events));
    t.data("links", json(&links));
    // Utilisation levels against a WAN link's 100 Gbps.
    t.data("raster", json(&report::load_raster(&loads, 100_000.0)));
    t.data("sample_times", json(&times));
    t.data("loads_mbps", json(&loads));
}

/// §8: the ten-DC fleet, over 1.5M variables with the largest DC at
/// 394K, and every checker pass under 10 s. §5's impact groups give each
/// DC a checker of its own, so each DC is seeded and checked in turn.
fn checker_scale(t: &mut Timer) {
    let (mut total, mut largest) = (0, 0);
    for (name, spec, _) in scale::deployment_inventory() {
        let setup = || {
            let (graph, dc) = (spec.build(), spec.dc());
            let storage = storage([dc.clone()], 1);
            let seeded = seed_os(&graph, &storage);
            let group = ImpactGroup::Datacenter(dc.clone());
            let mut checker = checker(&graph, group, MergePolicy::PriorityLock);
            let cap =
                TorPairCapacityInvariant::sampled(&graph, dc.clone(), 0.5, 0.99, Some(1), 256, 7);
            checker.add_invariant(Box::new(ConnectivityInvariant::new(dc.clone())));
            checker.add_invariant(Box::new(cap));
            // Two Aggs per pod to firmware 7.0.
            let fw = |agg| (agg, Attribute::DeviceFirmwareVersion, Value::text("7.0"));
            let pods = graph.pods_in(&dc);
            let aggs = pods.iter().flat_map(|&p| [1, 2].map(|a| agg(&name, p, a)));
            let app = client("switch-upgrade", &storage);
            (
                checker,
                storage,
                app,
                aggs.map(fw).collect::<Vec<_>>(),
                seeded,
            )
        };
        t.point(&name, setup, |t, (checker, storage, app, fws, seeded)| {
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
            t.figure(&format!("{name}_pods"), spec.pods);
            t.figure(&format!("{name}_devices"), seeded.devices_polled);
            t.figure(&format!("{name}_links"), seeded.links_polled);
            t.figure(&format!("{name}_variables"), seeded.rows_written);
            t.figure(&format!("{name}_variables_read"), variables_read);
            total += seeded.rows_written;
            largest = largest.max(seeded.rows_written);
        });
    }
    t.figure("fleet_variables", total);
    t.figure("largest_dc_variables", largest);
    assert!(total > 1_500_000, "the fleet holds over 1.5M variables");
    assert!(largest >= 394_000, "the largest DC holds 394K");
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
        // A write that folds the ring's log is its own stage, apart from
        // the steady-state writes.
        let seeded = storage.wal_stats().compactions;
        for req in rounds.drain(..) {
            let before = storage.wal_stats().compactions;
            let written = t.stage("write", |t| {
                let written = storage.write(req);
                if storage.wal_stats().compactions > before {
                    t.rename("fold_write");
                }
                written
            });
            written.expect("churn write");
        }
        t.figure("setup_compactions", seeded);
        t.figure(
            "write_compactions",
            storage.wal_stats().compactions - seeded,
        );
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
