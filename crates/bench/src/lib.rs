//! # statesman-bench
//!
//! Scenario drivers and measurement harnesses that regenerate every table
//! and figure of the paper's evaluation (see `DESIGN.md` for the full
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured records):
//!
//! * [`fig8`] — the §7.2 capacity-invariant scenario (Fig 7 topology,
//!   Fig 8 time series): switch-upgrade and failure-mitigation coexisting
//!   under the 99%/50% ToR-pair capacity invariant;
//! * [`fig10`] — the §7.3 conflict-resolution scenario (Fig 9 WAN, Fig 10
//!   time series): inter-DC TE and switch-upgrade coordinating through
//!   priority locks;
//! * [`motivation`] — Fig 1 / Fig 2 recreated: what happens *without*
//!   Statesman (traffic loss, partition) vs with it;
//! * [`scale`] — the §8 ten-DC deployment inventory;
//! * [`latency`] — the end-to-end loop breakdown (application vs modeled
//!   monitor and updater device time vs checker compute).
//!
//! Every scenario is deterministic given its seed; binaries under
//! `src/bin/` print the series the paper plots, and the `BENCH_*` ones
//! (`paper_claims`, `delta_pipeline`, `api_swarm`) time the quantitative
//! claims as stage trees, counting allocations with [`alloc`].

pub mod alloc;
pub mod fig10;
pub mod fig8;
pub mod latency;
pub mod motivation;
pub mod report;
pub mod scale;

pub use fig10::{Fig10Config, Fig10Result, Fig10Scenario};
pub use fig8::{Fig8Config, Fig8Result, Fig8Scenario};
pub use latency::{measure_loop_breakdown, LoopBreakdown};
pub use motivation::{run_fig1, run_fig2, MotivationOutcome};
pub use scale::deployment_inventory;
