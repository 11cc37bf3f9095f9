#![warn(missing_docs)]

//! The repeatable benchmark of the Statesman reproduction: four
//! seed-driven workloads over the shipping defaults, six timed end-to-end
//! metrics plus a failure share, and a closed per-layer trace. See
//! `README.md` beside this package for what each workload and metric is
//! for.

pub mod aa;
pub mod api_ingest;
pub mod api_mixed;
pub mod churn;
pub mod control;
pub mod gen;
pub mod http;
pub mod procfs;
pub mod report;
pub mod rollout;
pub mod runner;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod workload;
