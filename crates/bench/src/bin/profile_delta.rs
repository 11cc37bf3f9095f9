//! Per-stage breakdown of quiescent coordinator rounds — a development
//! aid for watching where the round budget goes while optimizing.
//!
//! ```text
//! cargo run --release -p statesman-bench --bin profile_delta [vars]
//! ```

use statesman_core::{Coordinator, CoordinatorConfig};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{ClusterConfig, StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::DatacenterId;

fn main() {
    let vars: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
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
            monitor_resync_every: Some(u64::MAX),
            ..Default::default()
        },
    );
    coord.tick().expect("seed round");
    for round in 0..3 {
        let t = std::time::Instant::now();
        let r = coord.tick().expect("round");
        let checker: f64 = r.checkers.iter().map(|c| c.elapsed.as_secs_f64()).sum();
        println!(
            "round {round}: total {:.3}s monitor {:.3}s checker {:.3}s \
             updater {:.3}s | rows_written {} suppressed {}",
            t.elapsed().as_secs_f64(),
            r.monitor.elapsed.as_secs_f64(),
            checker,
            r.updater.elapsed.as_secs_f64(),
            r.rows_written,
            r.writes_suppressed,
        );
    }
}
