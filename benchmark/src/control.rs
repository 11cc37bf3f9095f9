//! What the two control-loop workloads share: the block schedule every
//! workload is driven by, and the per-layer probes of a traced control
//! round.

use crate::spans;
use crate::stack::{Fabric, CAPACITY_PANEL_SEED};
use crate::workload::{ms, Ctx, Layers, OpLog, Outcome};
use statesman_core::{RoundReport, UpdatePlan};
use statesman_storage::ReadRequest;
use statesman_topology::capacity;
use statesman_topology::graph::{HealthView, NodeId};
use statesman_types::{
    Attribute, DatacenterId, DeviceName, EntityName, Freshness, NetworkState, Pool, Version,
};
use std::collections::BTreeMap;

/// Which part of the schedule an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed.
    Warmup,
    /// Timed, spans off.
    Timed,
    /// Timed, spans on, per-layer metrics recorded.
    Traced,
}

/// What one op reports back to the schedule.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Wall time of the timed part of the op, ms.
    pub ms: f64,
    /// Work units the op completed.
    pub work: f64,
}

/// A workload as the schedule sees it.
pub trait Driven {
    /// Run the ops `first..first + ops` as one block, appending their
    /// times and the block's wall time and work to `log`.
    fn block(&mut self, ctx: &mut Ctx, first: usize, ops: usize, phase: Phase, log: &mut OpLog);
    /// Digest of the state the ops have produced so far.
    fn digest(&mut self, ctx: &mut Ctx) -> u64;
    /// The traced block starts after this call (snapshot counters).
    fn traced_block_begins(&mut self, ctx: &mut Ctx);
}

/// A block of one closed loop: run `op` for each index in turn. The
/// block's wall time is the sum of the ops' timed parts, so whatever a
/// workload does untimed between ops stays out of `work_per_s` too.
pub fn run_ops(
    ctx: &mut Ctx,
    first: usize,
    ops: usize,
    log: &mut OpLog,
    mut op: impl FnMut(&mut Ctx, usize) -> OpResult,
) {
    let (mut wall_ms, mut work) = (0.0, 0.0);
    for index in first..first + ops {
        let r = op(ctx, index);
        log.op_ms.push(r.ms);
        wall_ms += r.ms;
        work += r.work;
    }
    log.blocks.push((wall_ms / 1e3, work));
}

/// Run the schedule. Untraced: warm-up, then `blocks` timed blocks;
/// returns their log. Traced: warm-up, one block with spans off (the
/// baseline for `obs.trace_overhead_share`), one with spans on; returns
/// the spans-on block's log.
pub fn drive(ctx: &mut Ctx, w: &mut dyn Driven) -> OpLog {
    let sizes = ctx.task.sizes;
    let per_block = sizes.ops_per_block;
    // A traced run executes the warm-up and two blocks; the untraced run
    // takes its checkpoint digest after as many ops, so the two compare.
    let checkpoint = sizes.warmup_ops + 2 * per_block;
    w.block(
        ctx,
        0,
        sizes.warmup_ops,
        Phase::Warmup,
        &mut OpLog::default(),
    );
    let mut index = sizes.warmup_ops;
    let mut log = OpLog::default();
    if ctx.task.trace {
        let mut untraced = OpLog::default();
        w.block(ctx, index, per_block, Phase::Timed, &mut untraced);
        w.traced_block_begins(ctx);
        ctx.tracer.set_enabled(true);
        w.block(ctx, index + per_block, per_block, Phase::Traced, &mut log);
        ctx.tracer.set_enabled(false);
        let base = crate::stats::median(&untraced.op_ms);
        let with = crate::stats::median(&log.op_ms);
        let overhead = if base > 0.0 { with / base - 1.0 } else { 0.0 };
        ctx.layers.set("obs.trace_overhead_share", overhead);
        let d = w.digest(ctx);
        ctx.out.note("digest.checkpoint", format!("{d:016x}"));
    } else {
        for _ in 0..sizes.blocks {
            w.block(ctx, index, per_block, Phase::Timed, &mut log);
            index += per_block;
            if index == checkpoint {
                let d = w.digest(ctx);
                ctx.out.note("digest.checkpoint", format!("{d:016x}"));
            }
        }
        let d = w.digest(ctx);
        ctx.out.note("digest.final", format!("{d:016x}"));
    }
    log
}

/// The cumulative counters the system keeps, by the per-layer metric each
/// one's growth over the traced block is reported as.
fn cumulative(fabric: &Fabric) -> [(&'static str, u64); 10] {
    let (delta_reads, full_fallbacks, _) = fabric.storage.delta_stats();
    let (retries, _) = fabric.storage.retry_stats();
    let wal = fabric.storage.wal_stats();
    let (accepted, failed) = fabric.net.command_stats();
    [
        ("storage.delta_reads", delta_reads),
        ("storage.full_fallbacks", full_fallbacks),
        ("storage.lock_wait_us", fabric.storage.lock_wait_stats()),
        ("storage.retries", retries),
        ("storage.wal_appends", wal.appends),
        ("storage.wal_fsyncs", wal.fsyncs),
        ("storage.wal_bytes", wal.bytes_written),
        ("net.commands_submitted", accepted + failed),
        ("net.commands_failed", failed),
        ("types.key_resolutions", statesman_types::key_resolutions()),
    ]
}

/// Counter deltas and gauges of the traced block, for any workload.
pub struct BlockCounters([(&'static str, u64); 10]);

impl BlockCounters {
    /// Snapshot at the start of the traced block.
    pub fn begin(fabric: &Fabric) -> BlockCounters {
        BlockCounters(cumulative(fabric))
    }

    /// Write the block's deltas and the end-of-block gauges.
    pub fn end(&self, fabric: &Fabric, layers: &mut Layers) {
        for ((name, before), (_, after)) in self.0.iter().zip(cumulative(fabric)) {
            layers.set(name, after.saturating_sub(*before) as f64);
        }
        layers.set(
            "types.interned_entities",
            statesman_types::interned_count() as f64,
        );
        let (bytes, rows) = fabric.storage.state_bytes();
        layers.set(
            "storage.bytes_per_var",
            if rows > 0 {
                bytes as f64 / rows as f64
            } else {
                0.0
            },
        );
    }
}

/// One datacenter's capacity pair panel, as the checker samples it.
struct Panel {
    pairs: Vec<(NodeId, NodeId)>,
    baselines: Vec<f64>,
}

/// The probes of a traced control round: calls the benchmark makes into
/// a layer's public functions between ops, on the round's own inputs, to
/// time what the round does inside a stage.
pub struct ControlProbes {
    panels: Vec<Panel>,
    os_marks: BTreeMap<DatacenterId, Version>,
    probe_entity: EntityName,
}

impl ControlProbes {
    /// Build the probes (times `topology.capacity_baseline_ms`).
    pub fn new(fabric: &Fabric, layers: &mut Layers) -> ControlProbes {
        let config = statesman_core::CoordinatorConfig::default();
        let (_, _, sample) = config.capacity_invariant.expect("default has one");
        let panels = layers.time("topology.capacity_baseline_ms", || {
            fabric
                .dcs
                .iter()
                .map(|dc| {
                    let mut pairs = capacity::select_tor_pairs(&fabric.graph, dc, sample);
                    if let Some(cap) = config.capacity_max_pairs {
                        pairs = capacity::downsample_pairs(pairs, cap, CAPACITY_PANEL_SEED);
                    }
                    let baselines = capacity::baselines_for(&fabric.graph, &pairs);
                    Panel { pairs, baselines }
                })
                .collect::<Vec<_>>()
        });
        layers.set(
            "topology.capacity_pairs",
            panels.iter().map(|p| p.pairs.len()).sum::<usize>() as f64,
        );
        let (_, node) = fabric.graph.nodes().next().expect("graph has devices");
        ControlProbes {
            panels,
            os_marks: BTreeMap::new(),
            probe_entity: EntityName::device(node.datacenter.clone(), node.name.clone()),
        }
    }

    /// The traced block starts: from here each `read_since` probe reads
    /// exactly one round's OS delta.
    pub fn block_begins(&mut self, fabric: &Fabric) {
        for dc in &fabric.dcs {
            if let Ok(mark) = fabric.storage.pool_watermark(dc, &Pool::Observed) {
                self.os_marks.insert(dc.clone(), mark);
            }
        }
    }

    /// Probe after one traced round. `down` are the devices the round's
    /// health view has down.
    pub fn after_round(&mut self, fabric: &Fabric, layers: &mut Layers, down: &[DeviceName]) {
        let mut health = HealthView::all_up();
        for d in down {
            health.set_device_down(d.clone());
        }
        layers.time("topology.capacity_eval_ms", || {
            for p in &self.panels {
                std::hint::black_box(capacity::evaluate_with_baselines(
                    &fabric.graph,
                    &health,
                    &p.pairs,
                    &p.baselines,
                ));
            }
        });
        // The round's OS delta, as the checker and updater read it.
        layers.time("storage.read_since_ms", || {
            for (dc, mark) in self.os_marks.iter_mut() {
                if let Ok(delta) = fabric.storage.read_since(dc, &Pool::Observed, *mark) {
                    *mark = delta.watermark;
                }
            }
        });
        let read = |pool: Pool, dc: &DatacenterId, entity: Option<EntityName>| {
            fabric.storage.read(ReadRequest {
                datacenter: dc.clone(),
                pool,
                freshness: Freshness::UpToDate,
                entity,
                attribute: None,
            })
        };
        layers.time("storage.read_ms", || {
            let e = self.probe_entity.clone();
            std::hint::black_box(read(Pool::Observed, &e.datacenter.clone(), Some(e)).ok());
        });
        // The pending difference set TS − OS, then the plan over it.
        let mut diff: Vec<(NetworkState, Option<DeviceName>)> = Vec::new();
        for dc in &fabric.dcs {
            for row in read(Pool::Target, dc, None).unwrap_or_default() {
                if row.attribute == Attribute::EntityLock {
                    continue;
                }
                let observed = fabric
                    .storage
                    .read_row(&Pool::Observed, &row.key())
                    .ok()
                    .flatten();
                if observed.map(|o| o.value != row.value).unwrap_or(true) {
                    let device = row.entity.as_device().cloned();
                    diff.push((row, device));
                }
            }
        }
        layers.time("plan.synthesize_ms", || {
            std::hint::black_box(UpdatePlan::synthesize(&fabric.graph, diff));
        });
    }
}

/// Copy one round's report counts and stage durations into the layers.
pub fn record_round(layers: &mut Layers, r: &RoundReport) {
    let m = &r.monitor;
    layers.ms("monitor.poll_ms", ms(m.stage_poll));
    layers.ms("monitor.diff_ms", ms(m.stage_diff));
    layers.ms("monitor.write_ms", ms(m.stage_write));
    // In a control round the monitor's write stage *is* the call into
    // `StorageService::write`; the benchmark cannot span it from outside.
    layers.ms("storage.write_ms", ms(m.stage_write));
    layers.count("storage.write_rows", m.rows_written as f64);
    layers.count("monitor.devices_polled", m.devices_polled as f64);
    layers.count("monitor.rows_written", m.rows_written as f64);
    layers.count("monitor.writes_suppressed", m.writes_suppressed as f64);
    for c in &r.checkers {
        layers.count("checker.proposals_seen", c.proposals_seen as f64);
        layers.count("checker.accepted", c.accepted as f64);
        layers.count("checker.rejected", c.rejected as f64);
    }
    let u = &r.updater;
    layers.ms("updater.read_ms", ms(u.stage_read));
    layers.ms("updater.diff_ms", ms(u.stage_diff));
    layers.ms("updater.exec_ms", ms(u.stage_exec));
    layers.count("updater.diffs", u.diffs as f64);
    layers.count("updater.commands_applied", u.commands_applied as f64);
    layers.count("updater.commands_failed", u.commands_failed as f64);
    layers.count("updater.retries", u.retries as f64);
    layers.count("plan.steps", u.plan_steps as f64);
    layers.count("plan.waves", u.plan_waves as f64);
    let width = layers.get("plan.max_width").max(u.plan_max_width as f64);
    layers.set("plan.max_width", width);
    layers.count(
        "plan.inflight_rejections",
        u.plan_inflight_rejections as f64,
    );
    layers.count("plan.rollbacks", u.plan_rollbacks as f64);
}

/// Close the traced block of a control workload: ratios, the span-derived
/// stage times, and the closed-tree check.
pub fn finish_control_trace(ctx: &mut Ctx) {
    let l = &mut ctx.layers;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let written = l.get("monitor.rows_written");
    let suppressed = l.get("monitor.writes_suppressed");
    l.set(
        "monitor.suppress_ratio",
        ratio(suppressed, written + suppressed),
    );
    let seen = l.get("checker.proposals_seen");
    l.set(
        "checker.accept_ratio",
        ratio(l.get("checker.accepted"), seen),
    );

    let totals = spans::totals(ctx.tracer.spans());
    let rounds = totals
        .get("coordinator.round")
        .map(|t| t.count as f64)
        .unwrap_or(0.0);
    let per_round = |name: &str| {
        totals
            .get(name)
            .map(|t| ratio(t.total_ms, rounds))
            .unwrap_or(0.0)
    };
    for (metric, span) in [
        ("net.step_ms", "net.step"),
        ("monitor.round_ms", "monitor.round"),
        // Summed over the impact groups of a round.
        ("checker.pass_ms", "checker.pass"),
        ("updater.round_ms", "updater.round"),
        ("coordinator.round_ms", "coordinator.round"),
    ] {
        l.set(metric, per_round(span));
    }
    let unaccounted = totals
        .get("coordinator.round")
        .map(|t| ratio(t.self_ms, rounds))
        .unwrap_or(0.0);
    l.set("coordinator.unaccounted_ms", unaccounted);
    let round_ms = l.get("coordinator.round_ms");
    closed_tree_check(&mut ctx.out, unaccounted, round_ms);
}

/// The stage tree is closed when what a span's children do not cover
/// stays within 5% of the span.
pub fn closed_tree_check(out: &mut Outcome, unaccounted_ms: f64, parent_ms: f64) {
    out.check(unaccounted_ms <= 0.05 * parent_ms, || {
        format!(
            "stage tree not closed: {unaccounted_ms:.3} ms unaccounted exceeds 5% of \
             the parent span's {parent_ms:.3} ms"
        )
    });
}
