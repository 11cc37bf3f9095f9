//! What every workload shares: its name and sizes, the context one run
//! executes in, the op log the end-to-end metrics come from, and the
//! per-layer accumulator the traced run fills.

use crate::procfs;
use crate::spans::Tracer;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// `run_seconds` in `BENCHMARK.json`: the timed part of every workload is
/// sized to take about this long on the 2-core sizing box.
pub const RUN_SECONDS: u64 = 15;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Steady-state control rounds over one 100K-variable DC.
    Churn,
    /// A pipelined firmware campaign over two 50K-variable DCs and a WAN.
    Rollout,
    /// A read-mostly application iteration over HTTP.
    ApiMixed,
    /// Two writers posting row batches over HTTP into a durable store.
    ApiIngest,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Churn,
        Workload::Rollout,
        Workload::ApiMixed,
        Workload::ApiIngest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn_100k",
            Workload::Rollout => "rollout_2x50k",
            Workload::ApiMixed => "api_mixed",
            Workload::ApiIngest => "api_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Churn => {
                "steady-state control rounds over one 100K-variable DC: the monitor does \
                 most of the work, checker and updater almost none"
            }
            Workload::Rollout => {
                "pipelined firmware campaign over HTTP across two 50K DCs and a WAN: \
                 checker, plan and updater work, proposal to network to observed state"
            }
            Workload::ApiMixed => {
                "read-mostly application iteration over HTTP with the control loop stubbed: \
                 front end, JSON shim and storage read paths only"
            }
            Workload::ApiIngest => {
                "two closed-loop writers posting 256-row batches over HTTP into durable \
                 3-replica rings: the write path beside api_mixed's reads"
            }
        }
    }

    /// What one unit of `work_per_s` is.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Churn => "state variables kept current for one round",
            Workload::Rollout => "proposed variables observed at their target in the OS",
            Workload::ApiMixed => "HTTP requests answered 2xx",
            Workload::ApiIngest => "rows acknowledged",
        }
    }
}

/// How much work one run does. Counts, not clock time: the same seed and
/// sizes give the same ops, so the final state digest and every count
/// repeat exactly and the tail percentile means the same in every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// State variables seeded (total across datacenters).
    pub vars: usize,
    /// Untimed ops before the first timed block.
    pub warmup_ops: usize,
    /// Timed blocks of an untraced run (a traced run has two: one with
    /// spans off, one with spans on).
    pub blocks: usize,
    /// Ops per timed block.
    pub ops_per_block: usize,
}

impl Sizes {
    /// The shipped sizes, with the number of timed blocks scaled by
    /// `seconds / RUN_SECONDS` (at least one block).
    pub fn shipped(workload: Workload, seconds: u64) -> Sizes {
        let base = match workload {
            // Any 16 consecutive rounds hold one monitor resync cycle: 14
            // delta rounds, one ring-snapshot round (every 8th) and one
            // resync round (every 16th), so blocks are alike wherever
            // they start.
            Workload::Churn => Sizes {
                vars: 100_000,
                warmup_ops: 4,
                blocks: 2,
                ops_per_block: 16,
            },
            // Eight warm-up rounds fill the pipeline (a wave's journey is
            // seven rounds), so every timed round carries a wave in every
            // stage.
            Workload::Rollout => Sizes {
                vars: 100_000,
                warmup_ops: 8,
                blocks: 3,
                ops_per_block: 4,
            },
            Workload::ApiMixed => Sizes {
                vars: 100_000,
                warmup_ops: 10,
                blocks: 5,
                ops_per_block: 30,
            },
            // Ops are per connection. A ring folds its log into a
            // snapshot every 256 decrees, one decree per write: a block
            // of 128 writes on each of two connections holds exactly one.
            // The durable seed costs 2.3 s at 50K variables and 5.5 s at
            // 100K, three times per run, which the run-time cap cannot
            // afford; this is the one workload seeded at 50K.
            Workload::ApiIngest => Sizes {
                vars: 50_000,
                warmup_ops: 16,
                blocks: 2,
                ops_per_block: 128,
            },
        };
        let blocks = (base.blocks as u64 * seconds).div_ceil(RUN_SECONDS).max(1) as usize;
        Sizes { blocks, ..base }
    }

    /// The sizes of a run: [`Sizes::tiny`] or [`Sizes::shipped`].
    pub fn select(workload: Workload, seconds: u64, tiny: bool) -> Sizes {
        if tiny {
            Sizes::tiny(workload)
        } else {
            Sizes::shipped(workload, seconds)
        }
    }

    /// Seconds-scale sizes for the smoke tests.
    pub fn tiny(workload: Workload) -> Sizes {
        let (warmup_ops, blocks, ops_per_block) = match workload {
            Workload::Churn => (16, 1, 16),
            Workload::Rollout => (8, 2, 3),
            Workload::ApiMixed => (2, 2, 6),
            Workload::ApiIngest => (2, 2, 6),
        };
        Sizes {
            // The rollout needs pods enough to keep waves apart.
            vars: if workload == Workload::Rollout {
                40_000
            } else {
                12_000
            },
            warmup_ops,
            blocks,
            ops_per_block,
        }
    }
}

/// What one child process was asked to do.
#[derive(Debug, Clone)]
pub struct Task {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Stop after set-up: report set-up time, memory and the seeded
    /// state's digest, nothing else.
    pub setup_only: bool,
    /// How much work to do.
    pub sizes: Sizes,
}

/// Metrics, notes and the failure tally of one child.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form facts (digests, the tail percentile used, sample counts).
    pub notes: BTreeMap<String, String>,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops that failed or were refused, and checks that did not hold.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a note.
    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.insert(name.to_string(), value.to_string());
    }

    /// Count one attempted op or check; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The context of one run.
pub struct Ctx {
    /// What to run.
    pub task: Task,
    /// Process start, as early as `main` can read the clock.
    pub started: Instant,
    /// Results so far.
    pub out: Outcome,
    /// This thread's span recorder (off until the traced block).
    pub tracer: Tracer,
    /// Per-layer counts and durations of the traced block.
    pub layers: Layers,
}

impl Ctx {
    /// A context for `task`, with the process start at `started`.
    pub fn new(task: Task, started: Instant) -> Ctx {
        Ctx {
            task,
            started,
            out: Outcome::default(),
            tracer: Tracer::new(false, started),
            layers: Layers::default(),
        }
    }

    /// Set-up is over: stop its clock and read the resident set.
    pub fn setup_done(&mut self) {
        self.out
            .metric("setup_s", self.started.elapsed().as_secs_f64());
        self.out.metric("setup_rss_mb", procfs::rss_mb());
    }
}

/// Wall times of the timed ops and blocks of one run.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Wall time of each timed op, ms, pooled over blocks.
    pub op_ms: Vec<f64>,
    /// Per timed block: (wall seconds, work units done).
    pub blocks: Vec<(f64, f64)>,
}

impl OpLog {
    /// Write the op-time metrics of a run, with the sample count and the
    /// percentile the tail is: `op_ms_p50`, `op_ms_tail` and `work_per_s`
    /// of an untraced run, `op.ms_tail` of a traced block.
    pub fn report(&self, out: &mut Outcome, traced: bool) {
        let (pct, tail) = stats::tail(&self.op_ms);
        out.note("op_samples", self.op_ms.len());
        out.note("op_ms_tail_percentile", format!("p{pct:.1}"));
        if traced {
            out.metric("op.ms_tail", tail);
            return;
        }
        out.metric("op_ms_p50", stats::median(&self.op_ms));
        out.metric("op_ms_tail", tail);
        let rates: Vec<f64> = self.blocks.iter().map(|(s, w)| w / s).collect();
        out.metric("work_per_s", stats::median(&rates));
        out.note("work_blocks", self.blocks.len());
    }
}

/// Per-layer accumulator: durations are kept as (sum, calls) and reported
/// as the mean per call; counts are totals over the traced block.
#[derive(Debug, Default)]
pub struct Layers {
    ms: BTreeMap<&'static str, (f64, u64)>,
    counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// One call of `name` took `ms`.
    pub fn ms(&mut self, name: &'static str, ms: f64) {
        let e = self.ms.entry(name).or_default();
        e.0 += ms;
        e.1 += 1;
    }

    /// Time `f` as one call of `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ms(name, since_ms(t));
        r
    }

    /// Add to a count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Set a value outright (gauges, ratios).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counts.insert(name, v);
    }

    /// A count so far.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Mean ms per call of `name` (0 without calls).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.ms
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
            .unwrap_or(0.0)
    }

    /// Write every accumulated value into `out` as a metric.
    pub fn report(&self, out: &mut Outcome) {
        for name in self.ms.keys() {
            out.metric(name, self.mean_ms(name));
        }
        for (name, v) in &self.counts {
            out.metric(name, *v);
        }
    }
}

/// A `Duration` in ms.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Wall ms since `t`.
pub fn since_ms(t: Instant) -> f64 {
    ms(t.elapsed())
}
