//! `rollout_2x50k`: the paper's headline path, proposal to network to
//! observed state. Two datacenters and a WAN; a thin application drives a
//! pipelined firmware campaign over HTTP. Each op is one pipeline round:
//! the application step (take last round's receipts, poll the devices in
//! flight, post the next wave and one over-reaching proposal) and one
//! control round, then a simulated minute passes.

use crate::control::{self, ControlProbes, Driven, OpResult, Phase};
use crate::gen::{self, Target, Wave};
use crate::http::{self, Scrape};
use crate::stack::{self, ControlLoop, Fabric, Topology, ROUND};
use crate::stats;
use crate::workload::{since_ms, Ctx, OpLog};
use statesman_httpapi::{ApiClient, ApiServer};
use statesman_storage::StorageConfig;
use statesman_types::{
    AppId, Attribute, DeviceName, Freshness, NetworkState, Pool, SimTime, Value, WriteOutcome,
};
use std::time::Instant;

/// Aggs per campaign wave at the shipped size.
pub const PER_WAVE: usize = 8;

/// Rounds from posting a proposal to reading its value back from the OS:
/// accepted and commanded in the round it is posted, two minutes of
/// reboot, a failed poll that quarantines the device for five minutes,
/// and the poll after that. Fixed by the configuration, not by the seed.
pub const WAVE_ROUNDS: usize = 7;

struct InFlight {
    target: Target,
    posted_round: usize,
    posted_at: Instant,
    accepted: bool,
}

struct Rollout {
    fabric: Fabric,
    control: ControlLoop,
    _server: ApiServer,
    campaign: ApiClient,
    greedy: ApiClient,
    waves: Vec<Wave>,
    /// Aggs per campaign wave ([`PER_WAVE`] unless the fabric is tiny).
    per_wave: usize,
    inflight: Vec<InFlight>,
    wave_rounds: Vec<f64>,
    wave_ms: Vec<f64>,
    probes: Option<ControlProbes>,
    counters: Option<(control::BlockCounters, Scrape)>,
}

/// Run the workload in this process.
pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.task.sizes;
    let mut sim = stack::sim_config(ctx.task.seed);
    sim.faults.reboot_window_ms = 2 * 60_000;
    let (fabric, control) = stack::seed(
        ctx,
        Topology::TwoDcWan(sizes.vars / 2),
        sim,
        StorageConfig::default(),
        ctx.task.trace,
    );
    let server = http::start_server(&fabric.storage);
    ctx.setup_done();

    let total_ops = sizes.warmup_ops + sizes.ops_per_block * sizes.blocks.max(2);
    let per_wave = gen::wave_width(fabric.dcs.len(), fabric.pods_per_dc, PER_WAVE);
    let waves = gen::wave_schedule(
        ctx.task.seed,
        &fabric.dcs,
        fabric.pods_per_dc,
        per_wave,
        total_ops,
    );
    let client = ApiClient::new(server.addr());
    let mut w = Rollout {
        campaign: client.clone().with_app("campaign"),
        greedy: client.with_app("greedy"),
        fabric,
        control,
        _server: server,
        waves,
        per_wave,
        inflight: Vec::new(),
        wave_rounds: Vec::new(),
        wave_ms: Vec::new(),
        probes: None,
        counters: None,
    };
    ctx.out.note("variables", w.fabric.state_rows());
    ctx.out
        .note("clients", "1 thread, 2 connections, closed loop");
    let d = w.digest(ctx);
    ctx.out.note("digest.seeded", format!("{d:016x}"));
    if ctx.task.setup_only {
        return;
    }
    if ctx.task.trace {
        w.probes = Some(ControlProbes::new(&w.fabric, &mut ctx.layers));
    }
    let log = control::drive(ctx, &mut w);

    // Every finished wave took the configuration's fixed number of rounds.
    let on_time = w.wave_rounds.iter().all(|&r| r == WAVE_ROUNDS as f64);
    ctx.out.check(!w.wave_rounds.is_empty() && on_time, || {
        format!(
            "wave journeys {:?} rounds, expected {WAVE_ROUNDS}",
            w.wave_rounds
        )
    });
    if ctx.task.trace {
        if let Some((c, before)) = &w.counters {
            c.end(&w.fabric, &mut ctx.layers);
            Scrape::take(&w.campaign, &mut ctx.layers).report_since(before, &mut ctx.layers);
        }
        ctx.layers
            .set("checker.full_degrades", w.control.full_degrades() as f64);
        ctx.layers
            .set("coordinator.wave_rounds", stats::median(&w.wave_rounds));
        ctx.layers
            .set("coordinator.wave_ms", stats::median(&w.wave_ms));
        http::report_call_spans(ctx);
        control::finish_control_trace(ctx);
    }
    log.report(&mut ctx.out, ctx.task.trace);
}

impl Rollout {
    /// Take last round's receipts and check the decided counts: the
    /// campaign wave accepted whole; of the greedy three, two accepted and
    /// one refused by the capacity invariant.
    fn take_receipts(&mut self, ctx: &mut Ctx, index: usize) {
        for (client, accepted, rejected) in
            [(&self.campaign, self.per_wave, 0), (&self.greedy, 2, 1)]
        {
            let open = ctx.tracer.enter("httpapi.receipts");
            let receipts = client.take_receipts();
            ctx.tracer.exit(open);
            let receipts = receipts.unwrap_or_default();
            let ok = receipts.iter().filter(|r| r.outcome.is_accepted()).count();
            let by_capacity = receipts
                .iter()
                .filter(|r| {
                    matches!(&r.outcome, WriteOutcome::RejectedInvariant { invariant, .. }
                        if invariant == "tor-pair-capacity")
                })
                .count();
            let as_expected =
                ok == accepted && by_capacity == rejected && receipts.len() == ok + by_capacity;
            ctx.out.check(as_expected, || {
                format!(
                    "round {index}: {} decided {ok} accepted, {by_capacity} refused by capacity \
                     of {} receipts; expected {accepted} and {rejected}",
                    client.app().map(AppId::as_str).unwrap_or("?"),
                    receipts.len()
                )
            });
            for r in &receipts {
                let Some(f) = self
                    .inflight
                    .iter_mut()
                    .find(|f| f.target.entity == r.key.entity && !f.accepted)
                else {
                    continue;
                };
                f.accepted = r.outcome.is_accepted();
            }
        }
        // Refused proposals never reach the network.
        self.inflight
            .retain(|f| f.accepted || f.posted_round + 1 > index);
    }

    /// Read every in-flight device's firmware from the OS; those at their
    /// target have completed the journey. Returns how many.
    fn poll_inflight(&mut self, ctx: &mut Ctx, index: usize) -> usize {
        let mut done = 0;
        let mut still = Vec::with_capacity(self.inflight.len());
        for f in std::mem::take(&mut self.inflight) {
            let open = ctx.tracer.enter("httpapi.entity_read");
            let rows = self.campaign.read(
                &f.target.dc,
                &Pool::Observed,
                Freshness::UpToDate,
                Some(&f.target.entity),
                Some(Attribute::DeviceFirmwareVersion),
            );
            ctx.tracer.exit(open);
            ctx.out.check(rows.is_ok(), || {
                format!("round {index}: entity read: {rows:?}")
            });
            let at_target = rows
                .unwrap_or_default()
                .first()
                .map(|r| r.value == Value::text(f.target.version.clone()))
                .unwrap_or(false);
            if at_target {
                done += 1;
                self.wave_rounds.push((index - f.posted_round) as f64);
                self.wave_ms.push(since_ms(f.posted_at));
            } else {
                still.push(f);
            }
        }
        self.inflight = still;
        // Nothing may stay in flight past the journey length.
        let overdue = self
            .inflight
            .iter()
            .filter(|f| index > f.posted_round + WAVE_ROUNDS)
            .count();
        ctx.out.check(overdue == 0, || {
            format!("round {index}: {overdue} proposals overdue past {WAVE_ROUNDS} rounds")
        });
        done
    }

    fn post_wave(&mut self, ctx: &mut Ctx, index: usize) {
        let wave = self.waves[index].clone();
        for (client, targets) in [
            (&self.campaign, &wave.campaign),
            (&self.greedy, &wave.greedy),
        ] {
            let changes = targets.iter().map(|t| {
                (
                    t.entity.clone(),
                    Attribute::DeviceFirmwareVersion,
                    Value::text(t.version.clone()),
                )
            });
            let open = ctx.tracer.enter("httpapi.propose");
            let posted = client.propose(changes);
            ctx.tracer.exit(open);
            ctx.out.check(posted.is_ok(), || {
                format!("round {index}: propose: {posted:?}")
            });
            let posted_at = Instant::now();
            self.inflight.extend(targets.iter().map(|t| InFlight {
                target: t.clone(),
                posted_round: index,
                posted_at,
                accepted: false,
            }));
        }
    }

    /// Devices the application knows are down: accepted and not yet back.
    fn down_devices(&self) -> Vec<DeviceName> {
        self.inflight
            .iter()
            .filter(|f| f.accepted)
            .filter_map(|f| f.target.entity.as_device().cloned())
            .collect()
    }
}

impl Rollout {
    /// One op: see the module documentation.
    fn op(&mut self, ctx: &mut Ctx, index: usize, phase: Phase) -> OpResult {
        ctx.tracer.set_op(index as u64);
        let started = Instant::now();
        let op = ctx.tracer.enter("op");
        let app = ctx.tracer.enter("app.step");
        if index > 0 {
            self.take_receipts(ctx, index);
        }
        let done = self.poll_inflight(ctx, index);
        self.post_wave(ctx, index);
        ctx.tracer.exit(app);
        let round = self.control.tick(&mut ctx.tracer);
        ctx.tracer.time("net.step", || self.fabric.net.step(ROUND));
        ctx.tracer.exit(op);
        let ms = since_ms(started);

        match &round {
            Ok(r) => {
                ctx.out
                    .check(!r.degraded(), || format!("round {index} degraded"));
                if phase == Phase::Traced {
                    control::record_round(&mut ctx.layers, r);
                    let down = self.down_devices();
                    if let Some(p) = self.probes.as_mut() {
                        p.after_round(&self.fabric, &mut ctx.layers, &down);
                    }
                    let rows: Vec<NetworkState> = self.waves[index]
                        .campaign
                        .iter()
                        .map(|t| {
                            NetworkState::new(
                                t.entity.clone(),
                                Attribute::DeviceFirmwareVersion,
                                Value::text(t.version.clone()),
                                SimTime::ZERO,
                                AppId::new("campaign"),
                            )
                        })
                        .collect();
                    http::json_probe(&mut ctx.layers, &rows);
                }
            }
            Err(e) => ctx.out.check(false, || format!("round {index}: {e}")),
        }
        OpResult {
            ms,
            work: done as f64,
        }
    }
}

impl Driven for Rollout {
    fn block(&mut self, ctx: &mut Ctx, first: usize, ops: usize, phase: Phase, log: &mut OpLog) {
        control::run_ops(ctx, first, ops, log, |ctx, index| {
            self.op(ctx, index, phase)
        });
    }

    fn digest(&mut self, ctx: &mut Ctx) -> u64 {
        stack::checked_digest(ctx, &self.fabric.storage, &[])
    }

    fn traced_block_begins(&mut self, ctx: &mut Ctx) {
        if let Some(p) = self.probes.as_mut() {
            p.block_begins(&self.fabric);
        }
        let scrape = Scrape::take(&self.campaign, &mut ctx.layers);
        self.counters = Some((control::BlockCounters::begin(&self.fabric), scrape));
    }
}
