//! # statesman-bench
//!
//! Scenario drivers and measurement harnesses for the paper's evaluation
//! (see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured records):
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
//! Every scenario is deterministic given its seed. The `paper_claims`
//! binary runs the three figures and §8's fleet as sections beside the
//! other quantitative claims, asserts each, and writes every section's
//! stage tree, allocations ([`alloc`]) and series to
//! `BENCH_paper_claims.json`; `delta_pipeline` and `api_swarm` time whole
//! rounds and the HTTP front end the same way.

pub mod alloc;
pub mod fig10;
pub mod fig8;
pub mod latency;
pub mod motivation;
pub mod report;
pub mod scale;
