//! The delta state plane at §8 scale: quiescent and low-churn coordinator
//! round cost at ~394K state variables, delta path vs full-scan path.
//!
//! The claim under test: once the OS is seeded, a quiescent round through
//! the delta plane (monitor suppresses value-identical rows, checker and
//! updater advance cached views via `read_since`) costs a small fraction
//! of the snapshot plane's full rewrite + full re-read — the headroom
//! that lets the control loop keep its minutes-scale cadence as the
//! variable count grows.
//!
//! `STATESMAN_BENCH_VARS` overrides the fabric size (CI smoke runs a
//! reduced size; the full 394K is the default, matching the paper's
//! largest DCN).

use criterion::{criterion_group, criterion_main, Criterion};
use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{DatacenterId, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A counting wrapper around the system allocator, so each round shape can
/// report (and bound) its heap allocations per tick alongside its wall
/// time. The interned state plane is required to allocate strictly less
/// per tick than the string-keyed plane it replaced; the recorded
/// pre-refactor numbers live in EXPERIMENTS.md.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed by `f`, as seen by the global counter.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn target_vars() -> usize {
    std::env::var("STATESMAN_BENCH_VARS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(394_000)
}

/// Build a coordinator over a fabric sized for `vars` variables, with the
/// state plane in delta or snapshot mode, and seed the OS with one round.
/// Invariants are disabled so the measurement isolates state-plane cost
/// (collection, persistence, reads) from invariant compute, which
/// `checker_latency` measures separately.
fn seeded_coordinator(vars: usize, delta: bool) -> (Coordinator, SimClock) {
    let clock = SimClock::new();
    let graph = DcnSpec::sized_for_variables("dcX", vars).build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new(
        [DatacenterId::new("dcX")],
        clock.clone(),
        StorageConfig {
            ring: ClusterConfig {
                replicas: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let coord = Coordinator::new(
        &graph,
        net,
        storage,
        CoordinatorConfig {
            connectivity_invariant: false,
            capacity_invariant: None,
            wan_invariant: None,
            delta_state_plane: delta,
            // Keep every measured round on the steady-state path: a
            // periodic forced resync inside the sample window would mix
            // full-write rounds into the delta measurement.
            monitor_resync_every: Some(u64::MAX),
            ..Default::default()
        },
    );
    coord.tick().expect("seed round");
    (coord, clock)
}

/// Quiescent rounds: the simulated clock does not advance between ticks,
/// so every poll returns exactly what the last round wrote. The delta
/// plane suppresses every write and serves empty deltas; the snapshot
/// plane rewrites and re-reads the whole pool anyway.
fn bench_quiescent(c: &mut Criterion) {
    let vars = target_vars();
    let mut group = c.benchmark_group("delta_pipeline_quiescent");
    group.sample_size(10);
    for (name, delta) in [("delta_round", true), ("full_round", false)] {
        let (coord, _clock) = seeded_coordinator(vars, delta);
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = coord.tick().unwrap();
                if delta {
                    assert_eq!(r.rows_written, 0, "quiescent delta round wrote rows");
                }
                r
            });
        });
        let per_tick = allocs_during(|| {
            coord.tick().unwrap();
        });
        println!("delta_pipeline_quiescent/{name} allocs/tick: {per_tick}");
    }
    group.finish();
}

/// Low-churn rounds: one minute of simulated time passes per round, so
/// live telemetry (cpu/mem utilization) changes while topology and
/// configuration stay put — the steady-state shape of a healthy fabric.
fn bench_low_churn(c: &mut Criterion) {
    let vars = target_vars();
    let mut group = c.benchmark_group("delta_pipeline_low_churn");
    group.sample_size(10);
    for (name, delta) in [("delta_round", true), ("full_round", false)] {
        let (coord, _clock) = seeded_coordinator(vars, delta);
        group.bench_function(name, |b| {
            b.iter(|| coord.tick_and_advance(SimDuration::from_mins(1)).unwrap());
        });
        let per_tick = allocs_during(|| {
            coord.tick_and_advance(SimDuration::from_mins(1)).unwrap();
        });
        println!("delta_pipeline_low_churn/{name} allocs/tick: {per_tick}");
    }
    group.finish();
}

criterion_group!(benches, bench_quiescent, bench_low_churn);
criterion_main!(benches);
