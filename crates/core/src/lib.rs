#![warn(missing_docs)]

//! # statesman-core
//!
//! The Statesman service proper (Sun et al., SIGCOMM 2014): the three-view
//! state model made operational.
//!
//! * [`view`] — read abstractions over pools of rows, and the *projection*
//!   of a target state onto the network graph (which devices/links would
//!   be up if the TS were realized) that invariant checking evaluates;
//! * [`deps`] — the Fig-4 state dependency model as an extensible rule
//!   set: a variable is controllable only when its ancestors hold
//!   appropriate observed values;
//! * [`invariants`] — operator-specified network-wide invariants
//!   (connectivity, ToR-pair capacity, WAN capacity) checked against the
//!   projected post-TS network;
//! * [`locks`] — priority-based per-entity locks (§7.3), stored as
//!   ordinary replicated state and arbitrated by the checker;
//! * [`checker`] — the conflict resolver and invariant guardian: validates
//!   proposals against the observed state, resolves PS–PS and PS–TS
//!   conflicts (last-writer-wins or priority locks), merges survivors into
//!   the target state, and posts acceptance/rejection receipts;
//! * [`monitor`] — periodic collection of device/link state into the
//!   observed state through protocol adapters;
//! * [`updater`] — the memoryless OS→TS difference engine: renders state
//!   deltas into device commands via a per-model command-template pool and
//!   relies on rediffing (not memory) to survive failures;
//! * [`plan`] — the update-plan synthesizer: compiles a round's
//!   difference set into a DAG of command steps ordered along the Fig-4
//!   chains, maximally parallel across independent segments, executed in
//!   deterministic waves with per-step in-flight invariant checks;
//! * [`groups`] — impact groups: one checker scope per datacenter plus one
//!   for border routers and WAN links;
//! * [`coordinator`] — wires monitor → checker → updater into one control
//!   round and accounts per-stage latency (the §8 breakdown);
//! * [`client`] — the application-facing API: read OS at a chosen
//!   freshness, write PS, poll receipts, acquire/release locks.

pub mod checker;
pub mod client;
pub mod coordinator;
pub mod deps;
pub mod groups;
pub mod invariants;
pub mod locks;
pub mod monitor;
pub mod plan;
pub mod updater;
pub mod view;

pub use checker::{Checker, CheckerConfig, CheckerPassReport, MergePolicy};
pub use client::StatesmanClient;
pub use coordinator::{Coordinator, CoordinatorConfig, RoundReport};
pub use deps::DependencyModel;
pub use groups::ImpactGroup;
pub use invariants::{
    ConnectivityInvariant, Invariant, InvariantContext, TorPairCapacityInvariant, WanLinkInvariant,
};
pub use monitor::{Monitor, MonitorReport};
pub use plan::{PlanStep, UpdatePlan};
pub use updater::{CommandTemplatePool, Updater, UpdaterReport, UpdaterScope};
pub use view::{MapView, StateView};
