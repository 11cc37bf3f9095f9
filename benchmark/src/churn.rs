//! `churn_100k`: the paper's steady-state loop. One datacenter, every
//! invariant on, nothing proposed: each op advances the simulated network
//! one minute and runs one control round. The monitor (poll, diff, write)
//! does most of the work; the checker and updater find nothing to do.

use crate::control::{self, ControlProbes, Driven, OpResult, Phase};
use crate::stack::{self, ControlLoop, Fabric, Topology, ROUND};
use crate::workload::{since_ms, Ctx, OpLog};
use statesman_storage::StorageConfig;
use std::time::Instant;

struct Churn {
    fabric: Fabric,
    control: ControlLoop,
    /// Variables the loop keeps current (rows in OS + TS after seeding).
    variables: f64,
    /// `full_fallbacks` when warm-up ended; it must not grow after.
    fallbacks: Option<u64>,
    probes: Option<ControlProbes>,
    counters: Option<control::BlockCounters>,
}

/// Run the workload in this process.
pub fn run(ctx: &mut Ctx) {
    let (fabric, control) = stack::seed(
        ctx,
        Topology::OneDc(ctx.task.sizes.vars),
        stack::sim_config(ctx.task.seed),
        StorageConfig::default(),
        ctx.task.trace,
    );
    ctx.setup_done();

    let mut w = Churn {
        variables: fabric.state_rows() as f64,
        fabric,
        control,
        fallbacks: None,
        probes: None,
        counters: None,
    };
    ctx.out.note("variables", w.variables);
    let d = w.digest(ctx);
    ctx.out.note("digest.seeded", format!("{d:016x}"));
    if ctx.task.setup_only {
        return;
    }
    if ctx.task.trace {
        w.probes = Some(ControlProbes::new(&w.fabric, &mut ctx.layers));
    }
    let log = control::drive(ctx, &mut w);
    if ctx.task.trace {
        if let Some(c) = &w.counters {
            c.end(&w.fabric, &mut ctx.layers);
        }
        ctx.layers
            .set("checker.full_degrades", w.control.full_degrades() as f64);
        control::finish_control_trace(ctx);
    }
    log.report(&mut ctx.out, ctx.task.trace);
}

impl Churn {
    /// One op: see the module documentation.
    fn op(&mut self, ctx: &mut Ctx, index: usize, phase: Phase) -> OpResult {
        ctx.tracer.set_op(index as u64);
        let started = Instant::now();
        let op = ctx.tracer.enter("op");
        ctx.tracer.time("net.step", || self.fabric.net.step(ROUND));
        let round = self.control.tick(&mut ctx.tracer);
        ctx.tracer.exit(op);
        let ms = since_ms(started);

        match &round {
            Ok(r) => {
                // Delta reads must keep being served from the change
                // index once warm-up is over.
                if phase == Phase::Warmup {
                    self.fallbacks = Some(r.full_fallbacks);
                }
                let fallbacks = *self.fallbacks.get_or_insert(r.full_fallbacks);
                let quiet = !r.degraded()
                    && r.monitor.devices_unreachable == 0
                    && r.accepted() + r.rejected() == 0
                    && r.updater.commands_failed == 0
                    && r.full_fallbacks == fallbacks;
                ctx.out.check(quiet, || {
                    format!(
                        "round {index} not quiet: degraded={} unreachable={} decided={} \
                         fallbacks={}→{}",
                        r.degraded(),
                        r.monitor.devices_unreachable,
                        r.accepted() + r.rejected(),
                        fallbacks,
                        r.full_fallbacks
                    )
                });
                if phase == Phase::Traced {
                    control::record_round(&mut ctx.layers, r);
                    if let Some(p) = self.probes.as_mut() {
                        p.after_round(&self.fabric, &mut ctx.layers, &[]);
                    }
                }
            }
            Err(e) => ctx.out.check(false, || format!("round {index}: {e}")),
        }
        OpResult {
            ms,
            work: self.variables,
        }
    }
}

impl Driven for Churn {
    fn block(&mut self, ctx: &mut Ctx, first: usize, ops: usize, phase: Phase, log: &mut OpLog) {
        control::run_ops(ctx, first, ops, log, |ctx, index| {
            self.op(ctx, index, phase)
        });
    }

    fn digest(&mut self, ctx: &mut Ctx) -> u64 {
        stack::checked_digest(ctx, &self.fabric.storage, &[])
    }

    fn traced_block_begins(&mut self, _ctx: &mut Ctx) {
        if let Some(p) = self.probes.as_mut() {
            p.block_begins(&self.fabric);
        }
        self.counters = Some(control::BlockCounters::begin(&self.fabric));
    }
}
