//! `api_mixed`: the read-mostly application view. The 100K store is
//! seeded by one real control round, then the control loop is stubbed:
//! between ops (untimed) the benchmark writes 256 changed OS rows and
//! posts 64 receipts straight into storage, as monitor and checker
//! would. The op is one application iteration over one keep-alive HTTP
//! connection: the OS delta since the last watermark, 16 entity-filtered
//! bounded-stale reads, a 64-row proposal, and the receipts. The front
//! end, the JSON shim and the storage read paths do all the work.

use crate::control::{self, BlockCounters, Driven, OpResult, Phase};
use crate::gen;
use crate::http::{self, Scrape};
use crate::stack::{self, Fabric, Topology};
use crate::workload::{since_ms, Ctx, OpLog};
use statesman_httpapi::{ApiClient, ApiServer};
use statesman_storage::{ReadRequest, StorageConfig, WriteRequest};
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, Value, VarId,
    Version,
};
use std::collections::HashMap;
use std::time::Instant;

/// Changed OS rows per op (the delta body the client parses).
pub const DELTA_ROWS: usize = 256;
/// Entity-filtered reads per op.
pub const ENTITY_READS: usize = 16;
/// Rows proposed, and receipts taken, per op.
pub const PROPOSAL_ROWS: usize = 64;

/// The application's identity.
pub const APP: &str = "bench-app";

/// The seeded inputs of the workload, fixed before the first op.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Counter variables the stubbed monitor rewrites.
    pub os_keys: Vec<(EntityName, Attribute)>,
    /// Devices the application reads.
    pub read_entities: Vec<EntityName>,
    /// Variables the application proposes on.
    pub proposal_keys: Vec<(EntityName, Attribute)>,
}

impl Inputs {
    /// Choose the inputs for `seed` over `fabric`.
    pub fn new(seed: u64, fabric: &Fabric) -> Inputs {
        let links: Vec<EntityName> = fabric
            .graph
            .edges()
            .map(|(_, e)| EntityName::link_named(e.datacenter.clone(), e.name.clone()))
            .collect();
        let devices: Vec<EntityName> = fabric
            .graph
            .nodes()
            .map(|(_, n)| EntityName::device(n.datacenter.clone(), n.name.clone()))
            .collect();
        let with = |entities: Vec<EntityName>, a: Attribute| {
            entities.into_iter().map(|e| (e, a)).collect::<Vec<_>>()
        };
        Inputs {
            os_keys: with(
                gen::pick(seed, "api.os", &links, 4 * DELTA_ROWS),
                Attribute::LinkTrafficLoadAB,
            ),
            read_entities: gen::pick(seed, "api.read", &devices, 16 * ENTITY_READS),
            proposal_keys: with(
                gen::pick(seed, "api.propose", &devices, 4 * PROPOSAL_ROWS),
                Attribute::DeviceBootImage,
            ),
        }
    }
}

struct ApiMixed {
    fabric: Fabric,
    dc: DatacenterId,
    server: ApiServer,
    client: ApiClient,
    inputs: Inputs,
    seed: u64,
    /// The delta-fed view of the OS: what the application believes.
    view: HashMap<VarId, Value>,
    mark: Version,
    last_proposal: Vec<NetworkState>,
    counters: Option<(BlockCounters, Scrape)>,
}

/// Run the workload in this process.
pub fn run(ctx: &mut Ctx) {
    // The control loop seeds the store and is dropped: stubbed from here.
    let (fabric, _) = stack::seed(
        ctx,
        Topology::OneDc(ctx.task.sizes.vars),
        stack::sim_config(ctx.task.seed),
        StorageConfig::default(),
        false,
    );
    let server = http::start_server(&fabric.storage);
    ctx.setup_done();

    let dc = fabric.dcs[0].clone();
    let mut w = ApiMixed {
        client: ApiClient::new(server.addr()).with_app(APP),
        inputs: Inputs::new(ctx.task.seed, &fabric),
        seed: ctx.task.seed,
        view: HashMap::new(),
        mark: Version::GENESIS,
        last_proposal: Vec::new(),
        counters: None,
        server,
        dc,
        fabric,
    };
    ctx.out.note("variables", w.fabric.state_rows());
    ctx.out
        .note("clients", "1 thread, 1 connection, closed loop");
    let d = w.digest(ctx);
    ctx.out.note("digest.seeded", format!("{d:016x}"));
    if ctx.task.setup_only {
        return;
    }
    // The application starts from a full view taken storage-side: a
    // whole-pool body over HTTP costs minutes in the JSON shim (README).
    w.mark = w
        .fabric
        .storage
        .pool_watermark(&w.dc, &Pool::Observed)
        .unwrap_or_default();
    w.view = w
        .read_os()
        .into_iter()
        .map(|r| (r.var_id(), r.value))
        .collect();

    let log = control::drive(ctx, &mut w);

    // The delta-fed view must equal what storage holds.
    let stored = w.read_os();
    let same = stored.len() == w.view.len()
        && stored
            .iter()
            .all(|r| w.view.get(&r.var_id()) == Some(&r.value));
    ctx.out.check(same, || {
        format!(
            "delta-fed view ({} rows) differs from the stored OS ({} rows)",
            w.view.len(),
            stored.len()
        )
    });
    if ctx.task.trace {
        if let Some((c, before)) = &w.counters {
            c.end(&w.fabric, &mut ctx.layers);
            Scrape::take(&w.client, &mut ctx.layers).report_since(before, &mut ctx.layers);
        }
        http::report_call_spans(ctx);
    }
    log.report(&mut ctx.out, ctx.task.trace);
}

impl ApiMixed {
    fn read_os(&self) -> Vec<NetworkState> {
        self.fabric
            .storage
            .read(ReadRequest {
                datacenter: self.dc.clone(),
                pool: Pool::Observed,
                freshness: Freshness::UpToDate,
                entity: None,
                attribute: None,
            })
            .unwrap_or_default()
    }

    /// What the stubbed control loop does before op `index`: the monitor
    /// writes one batch of changed counters, the checker posts receipts
    /// for the previous proposal.
    fn stub_control_loop(&mut self, ctx: &mut Ctx, index: usize, traced: bool) {
        let now = self.fabric.clock.now();
        let rows = gen::row_batch(
            self.seed,
            &AppId::monitor(),
            &self.inputs.os_keys,
            index,
            DELTA_ROWS,
            now,
        );
        if traced {
            http::json_probe(&mut ctx.layers, &rows);
            ctx.layers.count("storage.write_rows", rows.len() as f64);
        }
        let request = WriteRequest {
            pool: Pool::Observed,
            rows,
        };
        let started = Instant::now();
        let wrote = self.fabric.storage.write(request);
        if traced {
            ctx.layers.ms("storage.write_ms", since_ms(started));
        }
        ctx.out.check(wrote.is_ok(), || {
            format!("op {index}: stub OS write: {wrote:?}")
        });
        let receipts = gen::receipts_for(&AppId::new(APP), &self.last_proposal, now);
        let posted = self.fabric.storage.post_receipts(&self.dc, receipts);
        ctx.out.check(posted.is_ok(), || {
            format!("op {index}: stub receipts: {posted:?}")
        });
        if traced {
            // The same delta and one filtered read, storage-side.
            let (dc, mark) = (self.dc.clone(), self.mark);
            ctx.layers.time("storage.read_since_ms", || {
                std::hint::black_box(
                    self.fabric
                        .storage
                        .read_since(&dc, &Pool::Observed, mark)
                        .ok(),
                )
            });
            let entity = self.inputs.read_entities[index % self.inputs.read_entities.len()].clone();
            ctx.layers.time("storage.read_ms", || {
                std::hint::black_box(
                    self.fabric
                        .storage
                        .read(ReadRequest {
                            datacenter: dc.clone(),
                            pool: Pool::Observed,
                            freshness: Freshness::BoundedStale,
                            entity: Some(entity),
                            attribute: None,
                        })
                        .ok(),
                )
            });
        }
    }
}

impl ApiMixed {
    /// One op: see the module documentation.
    fn op(&mut self, ctx: &mut Ctx, index: usize, phase: Phase) -> OpResult {
        self.stub_control_loop(ctx, index, phase == Phase::Traced);
        let expected_receipts = self.last_proposal.len();
        let requests_before = self.server.request_count();
        ctx.tracer.set_op(index as u64);
        let started = Instant::now();
        let op = ctx.tracer.enter("op");

        let open = ctx.tracer.enter("httpapi.read_since");
        let delta = self.client.read_os_since(&self.dc, self.mark);
        ctx.tracer.exit(open);
        let mut ok = match delta {
            Ok(delta) => {
                let whole = !delta.snapshot && delta.upserts.len() == DELTA_ROWS;
                self.mark = delta.watermark;
                for k in &delta.deletes {
                    self.view.remove(&k.var_id());
                }
                for r in delta.upserts {
                    self.view.insert(r.var_id(), r.value);
                }
                whole
            }
            Err(_) => false,
        };

        for j in 0..ENTITY_READS {
            let entities = &self.inputs.read_entities;
            let entity = &entities[(index * ENTITY_READS + j) % entities.len()];
            let open = ctx.tracer.enter("httpapi.entity_read");
            let rows = self.client.read(
                &self.dc,
                &Pool::Observed,
                Freshness::BoundedStale,
                Some(entity),
                None,
            );
            ctx.tracer.exit(open);
            ok &= rows.map(|r| !r.is_empty()).unwrap_or(false);
        }

        let proposal = gen::row_batch(
            self.seed,
            &AppId::new(APP),
            &self.inputs.proposal_keys,
            index,
            PROPOSAL_ROWS,
            self.fabric.clock.now(),
        );
        let open = ctx.tracer.enter("httpapi.propose");
        let posted = self.client.propose(
            proposal
                .iter()
                .map(|r| (r.entity.clone(), r.attribute, r.value.clone())),
        );
        ctx.tracer.exit(open);
        ok &= posted.is_ok();

        let open = ctx.tracer.enter("httpapi.receipts");
        let receipts = self.client.take_receipts();
        ctx.tracer.exit(open);
        ok &= receipts
            .map(|r| r.len() == expected_receipts && r.iter().all(|x| x.outcome.is_accepted()))
            .unwrap_or(false);

        ctx.tracer.exit(op);
        let ms = since_ms(started);
        ctx.out.check(ok, || {
            format!("op {index}: a request failed or returned the wrong rows")
        });
        self.last_proposal = proposal;
        OpResult {
            ms,
            // Every request of a correct op was answered 2xx.
            work: (self.server.request_count() - requests_before) as f64,
        }
    }
}

impl Driven for ApiMixed {
    fn block(&mut self, ctx: &mut Ctx, first: usize, ops: usize, phase: Phase, log: &mut OpLog) {
        control::run_ops(ctx, first, ops, log, |ctx, index| {
            self.op(ctx, index, phase)
        });
    }

    fn digest(&mut self, ctx: &mut Ctx) -> u64 {
        stack::checked_digest(
            ctx,
            &self.fabric.storage,
            &[Pool::Proposed(AppId::new(APP))],
        )
    }

    fn traced_block_begins(&mut self, ctx: &mut Ctx) {
        let scrape = Scrape::take(&self.client, &mut ctx.layers);
        self.counters = Some((BlockCounters::begin(&self.fabric), scrape));
    }
}
