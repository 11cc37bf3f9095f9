//! The §7.3 scenario: resolving application conflicts with priority locks
//! (Figures 9 and 10).
//!
//! Setup (from the paper):
//!
//! * topology: 4 DCs in a full mesh, 2 border routers per DC, 12 physical
//!   inter-DC links (Fig 9);
//! * inter-DC TE allocates the demand matrix across WAN paths, holding
//!   **low-priority** locks over the routers it uses;
//! * switch-upgrade upgrades BorderRouter1 behind a **high-priority**
//!   lock, waiting for its observed load to drain to zero;
//! * both applications run every 5 minutes.
//!
//! The scenario records the 24 directed link loads per tick (Fig 10's
//! Y-axis) plus the A–E event timeline:
//! A — upgrade acquires the high lock on BR1; B — TE fails its low lock
//! and drains BR1; C — upgrade starts at zero load; D — upgrade done,
//! lock released; E — TE re-acquires and moves traffic back.

use statesman_apps::{
    DrainTarget, InterDcTeApp, ManagementApp, SwitchUpgradeApp, TeConfig, TrafficDemand,
    UpgradeConfig, UpgradePlan,
};
use statesman_core::{Coordinator, CoordinatorConfig, StatesmanClient};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::WanSpec;
use statesman_types::{DatacenterId, DeviceName, EntityName, LinkName, SimDuration, SimTime};

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// RNG seed.
    pub seed: u64,
    /// Application/statesman round period.
    pub period: SimDuration,
    /// Reboot window for the border-router upgrade.
    pub reboot_window: SimDuration,
    /// How long to keep running after the upgrade completes (to observe
    /// traffic moving back — the figure's tail after E).
    pub cooldown: SimDuration,
    /// Safety stop.
    pub horizon: SimDuration,
    /// Per-DC-pair demand, Mbps (12 directed demands in a 4-DC mesh).
    pub demand_mbps: f64,
    /// When the switch-upgrade application starts (the figure shows
    /// steady-state traffic before A).
    pub upgrade_starts_at: SimTime,
    /// Which border routers to upgrade, in order (paper shows BR1).
    pub targets: Vec<&'static str>,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            seed: 0x000F_1610,
            period: SimDuration::from_mins(5),
            reboot_window: SimDuration::from_mins(8),
            cooldown: SimDuration::from_mins(20),
            horizon: SimDuration::from_mins(180),
            demand_mbps: 60_000.0,
            upgrade_starts_at: SimTime::from_mins(15),
            targets: vec!["br-1"],
        }
    }
}

/// One per-tick sample of all 24 directed link loads.
#[derive(Debug, Clone)]
pub struct Fig10Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// (link, sending endpoint, load Mbps), sorted by (link, sender).
    pub loads: Vec<(LinkName, DeviceName, f64)>,
}

impl Fig10Sample {
    /// Total load on links touching a device.
    pub fn device_load(&self, dev: &DeviceName) -> f64 {
        self.loads
            .iter()
            .filter(|(l, _, _)| l.touches(dev))
            .map(|(_, _, mbps)| *mbps)
            .sum()
    }

    /// Total load across all links.
    pub fn total_load(&self) -> f64 {
        self.loads.iter().map(|(_, _, m)| *m).sum()
    }
}

/// The scenario outcome.
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// Per-tick samples.
    pub samples: Vec<Fig10Sample>,
    /// The A–E event timeline.
    pub events: Vec<(SimTime, String)>,
    /// Firmware version of each target after the run.
    pub final_versions: Vec<(DeviceName, String)>,
}

impl Fig10Result {
    /// The event time whose label starts with `label`.
    pub fn event_time(&self, label: &str) -> Option<SimTime> {
        self.events
            .iter()
            .find(|(_, l)| l.starts_with(label))
            .map(|(t, _)| *t)
    }

    /// The largest load on a device over the samples in `[from, to)`.
    pub fn peak_load(&self, dev: &DeviceName, from: SimTime, to: SimTime) -> f64 {
        let window = self.samples.iter().filter(|s| (from..to).contains(&s.at));
        window.map(|s| s.device_load(dev)).fold(0.0, f64::max)
    }

    /// Load on a device at the sample closest to `at`.
    pub fn device_load_at(&self, dev: &DeviceName, at: SimTime) -> f64 {
        self.samples
            .iter()
            .min_by_key(|s| s.at.as_millis().abs_diff(at.as_millis()))
            .map(|s| s.device_load(dev))
            .unwrap_or(0.0)
    }
}

/// The assembled scenario.
pub struct Fig10Scenario {
    config: Fig10Config,
    net: SimNetwork,
    coordinator: Coordinator,
    te: InterDcTeApp,
    upgrade: SwitchUpgradeApp,
    upgrade_client: StatesmanClient,
    wan: WanSpec,
}

impl Fig10Scenario {
    /// Build the scenario.
    pub fn new(config: Fig10Config) -> Self {
        let clock = SimClock::new();
        let wan = WanSpec::fig9();
        let graph = wan.build();

        let mut sim_cfg = SimConfig::ideal();
        sim_cfg.seed = config.seed;
        sim_cfg.faults.command_latency_ms = 2_000;
        sim_cfg.faults.command_jitter_ms = 500;
        sim_cfg.faults.reboot_window_ms = config.reboot_window.as_millis();
        let net = SimNetwork::new(&graph, clock.clone(), sim_cfg);

        let storage = StorageService::new(
            wan.dc_names.iter().map(DatacenterId::new),
            clock.clone(),
            StorageConfig::default(),
        );
        let coordinator = Coordinator::new(
            &graph,
            net.clone(),
            storage.clone(),
            CoordinatorConfig::default(),
        );

        // Full-mesh directed demands.
        let mut demands = Vec::new();
        for s in &wan.dc_names {
            for d in &wan.dc_names {
                if s != d {
                    demands.push(TrafficDemand::new(s.clone(), d.clone(), config.demand_mbps));
                }
            }
        }
        let te = InterDcTeApp::new(
            StatesmanClient::new("inter-dc-te", storage.clone(), clock.clone()),
            TeConfig::from_wan_spec(&wan, demands),
        );

        // Upgrade targets with their link entities for drain polling.
        let targets: Vec<DrainTarget> = config
            .targets
            .iter()
            .map(|name| {
                let dev = DeviceName::new(*name);
                let links: Vec<EntityName> = graph
                    .links_of_device(&dev)
                    .into_iter()
                    .map(|l| EntityName::link_named(DatacenterId::wan(), l))
                    .collect();
                let dc = graph
                    .node_id(&dev)
                    .map(|id| graph.node(id).datacenter.clone())
                    .expect("target exists");
                DrainTarget {
                    datacenter: dc,
                    device: dev,
                    links,
                }
            })
            .collect();
        let upgrade_client = StatesmanClient::new("switch-upgrade", storage, clock);
        let upgrade = SwitchUpgradeApp::new(
            upgrade_client.clone(),
            UpgradeConfig {
                target_version: "9.4.2".to_string(),
                plan: UpgradePlan::LockAndDrain {
                    devices: targets,
                    drain_epsilon_mbps: 1.0,
                },
            },
        );

        Fig10Scenario {
            config,
            net,
            coordinator,
            te,
            upgrade,
            upgrade_client,
            wan,
        }
    }

    fn sample(&self) -> Fig10Sample {
        let mut loads = Vec::new();
        for link in self.net.link_names() {
            let l = self.net.link_snapshot(&link).expect("link exists");
            loads.push((link.clone(), l.name.a.clone(), l.load_ab_mbps));
            loads.push((link.clone(), l.name.b.clone(), l.load_ba_mbps));
        }
        loads.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        Fig10Sample {
            at: self.net.clock().now(),
            loads,
        }
    }

    /// Run to completion (+cooldown). Returns the recorded series.
    pub fn run(mut self) -> Fig10Result {
        let mut samples = Vec::new();
        let mut events: Vec<(SimTime, String)> = Vec::new();
        let mut lock_seen = false;
        let mut drain_seen = false;
        let mut upgrade_started = false;
        let mut released_at: Option<SimTime> = None;
        let mut traffic_back_seen = false;
        let end = SimTime::ZERO + self.config.horizon;

        let br1 = DeviceName::new(self.config.targets[0]);
        let br1_entity = {
            // Home DC of the first target.
            let idx: usize = 0;
            EntityName::device(
                DatacenterId::new(self.wan.dc_names[idx].clone()),
                br1.clone(),
            )
        };

        loop {
            let now = self.net.clock().now();
            if now >= end {
                break;
            }
            // App steps → statesman round → offer flows → advance.
            self.te.step().expect("te step");
            if now >= self.config.upgrade_starts_at {
                self.upgrade.step().expect("upgrade step");
            }
            self.coordinator
                .tick_and_advance(SimDuration::from_millis(1))
                .expect("statesman round");
            self.net.offer_flows(self.te.flow_specs());
            self.net
                .step(self.config.period + SimDuration::from_millis(0));

            // Event detection (ground truth).
            if !lock_seen && self.upgrade_client.holds_lock(&br1_entity).unwrap_or(false) {
                events.push((now, format!("A: high-priority lock acquired on {br1}")));
                lock_seen = true;
            }
            let s = self.sample();
            if lock_seen && !drain_seen && s.device_load(&br1) < 1.0 {
                events.push((s.at, format!("B→C: {br1} drained to zero load")));
                drain_seen = true;
            }
            if drain_seen && !upgrade_started && !self.net.device_operational(&br1) {
                events.push((s.at, format!("C: {br1} rebooting for upgrade")));
                upgrade_started = true;
            }
            if upgrade_started
                && released_at.is_none()
                && !self.upgrade_client.holds_lock(&br1_entity).unwrap_or(true)
                && self.net.device_operational(&br1)
            {
                released_at = Some(s.at);
                events.push((s.at, format!("D: upgrade done, lock released on {br1}")));
            }
            if released_at.is_some() && !traffic_back_seen && s.device_load(&br1) > 1.0 {
                events.push((s.at, format!("E: TE re-acquired {br1}; traffic back")));
                traffic_back_seen = true;
            }
            samples.push(s);

            if self.upgrade.is_done() && traffic_back_seen {
                // Cooldown ticks to show the restored steady state.
                let cooldown_end = self.net.clock().now() + self.config.cooldown;
                while self.net.clock().now() < cooldown_end {
                    self.te.step().expect("te step");
                    self.coordinator
                        .tick_and_advance(SimDuration::from_millis(1))
                        .expect("statesman round");
                    self.net.offer_flows(self.te.flow_specs());
                    self.net.step(self.config.period);
                    samples.push(self.sample());
                }
                break;
            }
        }

        let final_versions = self
            .config
            .targets
            .iter()
            .map(|t| {
                let dev = DeviceName::new(*t);
                let v = self
                    .net
                    .device_snapshot(&dev)
                    .map(|d| d.observed_firmware().to_string())
                    .unwrap_or_default();
                (dev, v)
            })
            .collect();

        Fig10Result {
            samples,
            events,
            final_versions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_dance_completes_with_zero_load_upgrade() {
        let result = Fig10Scenario::new(Fig10Config::default()).run();
        let br1 = DeviceName::new("br-1");

        // The full A–E sequence occurred, in order.
        let a = result.event_time("A:").expect("A happened");
        let bc = result.event_time("B→C:").expect("drain happened");
        let c = result.event_time("C:").expect("reboot happened");
        let d = result.event_time("D:").expect("release happened");
        let e = result.event_time("E:").expect("traffic returned");
        assert!(
            a <= bc && bc <= c && c <= d && d <= e,
            "{:?}",
            result.events
        );

        // BR1 carried no traffic while rebooting.
        for s in &result.samples {
            if s.at >= c && s.at < d {
                assert!(
                    s.device_load(&br1) < 1.0,
                    "br-1 loaded while upgrading at {}",
                    s.at
                );
            }
        }

        // The upgrade landed.
        assert_eq!(result.final_versions[0].1, "9.4.2");

        // Traffic is flowing again at the end.
        let last = result.samples.last().unwrap();
        assert!(last.device_load(&br1) > 1.0, "traffic returned to br-1");
    }
}
