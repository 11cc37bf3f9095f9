//! §8 end-to-end latency breakdown: application vs checker vs updater.
//!
//! The paper's summary (lecture slides): application latency is
//! negligible (<10 ms), the checker takes seconds, and the updater
//! dominates with more than 50% of the control loop — device
//! interactions, not computation, are the bottleneck.
//!
//! Device interactions are simulated, so the monitor's and updater's
//! shares are their *modeled* device time (`modeled_io`); the checker's is
//! its measured compute. Where the host's wall time goes is a different
//! question, answered by the round trace's stage tree.

use statesman_apps::{
    upgrade::agg_pods_of, ManagementApp, SwitchUpgradeApp, UpgradeConfig, UpgradePlan,
};
use statesman_core::{Coordinator, CoordinatorConfig, StatesmanClient};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{DatacenterId, SimDuration};
use std::time::Instant;

/// One loop's latency split, milliseconds.
#[derive(Debug, Clone)]
pub struct LoopBreakdown {
    /// Application compute (wall clock of the app's step).
    pub app_ms: f64,
    /// Monitor stage: modeled device polling time.
    pub monitor_modeled_ms: f64,
    /// Checker stage: measured compute, summed over groups.
    pub checker_ms: f64,
    /// Updater stage: modeled device command time.
    pub updater_modeled_ms: f64,
}

impl LoopBreakdown {
    /// Total loop latency.
    pub fn total_ms(&self) -> f64 {
        self.app_ms + self.monitor_modeled_ms + self.checker_ms + self.updater_modeled_ms
    }

    /// One stage's share of the loop, in `[0, 1]`.
    pub fn share(&self, stage_ms: f64) -> f64 {
        if self.total_ms() <= 0.0 {
            0.0
        } else {
            stage_ms / self.total_ms()
        }
    }
}

/// Measure one working control loop on the Fig-7 fabric with realistic
/// device latencies: the upgrade application proposes pod-1 upgrades, and
/// the round that merges + executes them is measured.
pub fn measure_loop_breakdown(seed: u64) -> LoopBreakdown {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let graph = DcnSpec::fig7("dc1").build();
    let mut sim_cfg = SimConfig::ideal();
    sim_cfg.seed = seed;
    // Realistic management-plane latencies (§2.1: seconds per command).
    sim_cfg.faults.command_latency_ms = 2_000;
    sim_cfg.faults.command_jitter_ms = 500;
    sim_cfg.faults.reboot_window_ms = 8 * 60_000;
    let net = SimNetwork::new(&graph, clock.clone(), sim_cfg);
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    let coord = Coordinator::new(
        &graph,
        net.clone(),
        storage.clone(),
        CoordinatorConfig::default(),
    );

    // Round 0 seeds the OS.
    coord
        .tick_and_advance(SimDuration::from_mins(1))
        .expect("seed round");

    let mut app = SwitchUpgradeApp::new(
        StatesmanClient::new("switch-upgrade", storage, clock),
        UpgradeConfig {
            target_version: "7.0".into(),
            plan: UpgradePlan::PodByPod {
                datacenter: dc.clone(),
                pods: agg_pods_of(&graph, &dc),
            },
        },
    );

    let t = Instant::now();
    app.step().expect("app step");
    let app_ms = t.elapsed().as_secs_f64() * 1e3;

    let round = coord.tick().expect("measured round");

    LoopBreakdown {
        app_ms,
        monitor_modeled_ms: round.monitor.modeled_io.as_millis() as f64,
        checker_ms: (round.checkers.iter())
            .map(|c| c.elapsed.as_secs_f64() * 1e3)
            .sum(),
        updater_modeled_ms: round.updater.modeled_io.as_millis() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updater_dominates_and_app_is_negligible() {
        let b = measure_loop_breakdown(3);
        let updater = b.share(b.updater_modeled_ms);
        assert!(updater > 0.5, "updater share {updater:.2} of {b:?}");
        let app = b.share(b.app_ms);
        assert!(app < 0.05, "app share {app:.3}");
        assert!(b.updater_modeled_ms >= 2_000.0, "{:?}", b);
    }
}
