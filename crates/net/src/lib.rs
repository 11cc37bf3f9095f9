#![warn(missing_docs)]

//! # statesman-net
//!
//! The simulated network substrate the Statesman reproduction manages.
//!
//! The paper's deployment ran against ten production Azure datacenters;
//! this crate substitutes a deterministic, discrete-time simulator that
//! exposes the same observable surface the monitor and updater depend on:
//!
//! * per-device state machines ([`device::SimDevice`]): admin power,
//!   firmware (with reboot windows during upgrades), boot image,
//!   management interface, OpenFlow agent, routing tables, CPU/memory
//!   counters;
//! * per-link state ([`link::SimLink`]): admin power, derived operational
//!   status, IP/control-plane configuration, traffic/drop/FCS counters;
//! * a hop-by-hop forwarding engine ([`traffic`]) that routes offered
//!   flows through device routing tables and accumulates per-direction
//!   link loads — what the monitor reports and Fig 10 plots;
//! * fault injection ([`fault::FaultPlan`]): command failures, latency
//!   spikes, FCS-error onset at scheduled times (the §7.2 "link with FCS
//!   error"), link flaps;
//! * protocol adapters ([`protocol`]): SNMP-like polling, OpenFlow-like
//!   rule programming, and a vendor-CLI-like management interface, each
//!   with its own latency model and error surface, so the monitor's
//!   protocol translation and the updater's command-template pool (§6.2,
//!   §6.3) are exercised faithfully.
//!
//! Everything is driven by a shared [`clock::SimClock`]; commands take
//! effect after simulated latency, and all randomness flows from a seeded
//! RNG, so scenario runs are reproducible bit-for-bit.

pub mod clock;
pub mod command;
pub mod device;
pub mod fault;
pub mod link;
pub mod protocol;
pub mod sim;
pub mod traffic;

pub use clock::SimClock;
pub use command::{CommandOutcome, DeviceCommand, DeviceModel};
pub use fault::{FaultEvent, FaultPlan};
pub use protocol::{
    BlockCollector, DeviceProtocol, OpenFlowSim, ProtocolKind, Reading, SnmpSim, VendorCliSim,
};
pub use sim::{SimConfig, SimNetwork};
pub use traffic::{FlowSpec, TrafficReport};
