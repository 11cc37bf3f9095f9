//! `api_ingest`: writes beside `api_mixed`'s reads, through the same
//! front end and storage plane. The same 100K store, but durable: rings
//! write `DurabilityMode::Dir` WALs under the benchmark's state
//! directory, one media write and one `File::sync_all` per replica per
//! commit group, before the acknowledgment. Two closed-loop connections
//! (= `nproc`), each posting 256-row batches to its own PS pool through
//! `POST /v1/write`.

use crate::control::{self, BlockCounters, Driven, Phase};
use crate::gen;
use crate::http::{self, Scrape};
use crate::spans::Tracer;
use crate::stack::{self, Fabric, Topology};
use crate::workload::{Ctx, OpLog};
use statesman_httpapi::{ApiClient, ApiServer};
use statesman_storage::{ClusterConfig, DurabilityMode, ReadRequest, StorageConfig, WriteRequest};
use statesman_types::{AppId, Attribute, EntityName, Freshness, Pool, Value, VarId};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Rows per write body.
pub const BATCH_ROWS: usize = 256;
/// Concurrent closed-loop connections.
pub const CONNECTIONS: usize = 2;
/// Distinct variables each connection cycles through.
pub const KEYS_PER_CONNECTION: usize = 8 * BATCH_ROWS;

/// The application identity of connection `c`.
pub fn app(c: usize) -> AppId {
    AppId::new(format!("ingest-{c}"))
}

/// The variables connection `c` writes: its share of a seeded choice of
/// links (disjoint between connections).
pub fn keys(seed: u64, fabric: &Fabric, c: usize) -> Vec<(EntityName, Attribute)> {
    let links: Vec<EntityName> = fabric
        .graph
        .edges()
        .map(|(_, e)| EntityName::link_named(e.datacenter.clone(), e.name.clone()))
        .collect();
    let per = KEYS_PER_CONNECTION.min(links.len() / CONNECTIONS);
    gen::pick(seed, "ingest.keys", &links, per * CONNECTIONS)[c * per..(c + 1) * per]
        .iter()
        .map(|e| (e.clone(), Attribute::LinkIpAssignment))
        .collect()
}

struct Connection {
    client: ApiClient,
    app: AppId,
    keys: Vec<(EntityName, Attribute)>,
    /// Last acknowledged value of every variable this connection wrote.
    acked: HashMap<VarId, Value>,
}

/// What one connection's thread brings back from a block.
struct Leg {
    op_ms: Vec<f64>,
    rows_acked: usize,
    failures: Vec<String>,
    first_start: Instant,
    last_end: Instant,
    tracer: Tracer,
}

struct ApiIngest {
    fabric: Fabric,
    _server: ApiServer,
    seed: u64,
    connections: Vec<Connection>,
    wal_dir: PathBuf,
    counters: Option<(BlockCounters, Scrape)>,
}

/// Run the workload in this process.
pub fn run(ctx: &mut Ctx) {
    let wal_dir = crate::runner::state_dir().join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let storage = StorageConfig {
        ring: ClusterConfig {
            durability: DurabilityMode::Dir(wal_dir.clone()),
            ..ClusterConfig::default()
        },
        ..StorageConfig::default()
    };
    // The control loop seeds the store and is dropped: stubbed from here.
    let (fabric, _) = stack::seed(
        ctx,
        Topology::OneDc(ctx.task.sizes.vars),
        stack::sim_config(ctx.task.seed),
        storage,
        false,
    );
    let server = http::start_server(&fabric.storage);
    ctx.setup_done();

    let connections = (0..CONNECTIONS)
        .map(|c| Connection {
            client: ApiClient::new(server.addr()).with_app(app(c)),
            app: app(c),
            keys: keys(ctx.task.seed, &fabric, c),
            acked: HashMap::new(),
        })
        .collect();
    let mut w = ApiIngest {
        fabric,
        _server: server,
        seed: ctx.task.seed,
        connections,
        wal_dir,
        counters: None,
    };
    ctx.out.note("variables", w.fabric.state_rows());
    ctx.out.note(
        "clients",
        format!("{CONNECTIONS} threads, {CONNECTIONS} connections, closed loops"),
    );
    let d = w.digest(ctx);
    ctx.out.note("digest.seeded", format!("{d:016x}"));
    if !ctx.task.setup_only {
        let log = control::drive(ctx, &mut w);
        w.verify(ctx);
        if ctx.task.trace {
            if let Some((c, before)) = &w.counters {
                c.end(&w.fabric, &mut ctx.layers);
                let client = &w.connections[0].client;
                Scrape::take(client, &mut ctx.layers).report_since(before, &mut ctx.layers);
            }
            http::report_call_spans(ctx);
        }
        log.report(&mut ctx.out, ctx.task.trace);
    }
    let _ = std::fs::remove_dir_all(&w.wal_dir);
}

impl ApiIngest {
    /// Every acknowledged row is in its PS pool with the value last
    /// acknowledged, and every replica's WAL hash chain verifies.
    fn verify(&self, ctx: &mut Ctx) {
        for c in &self.connections {
            let stored: HashMap<VarId, Value> = self
                .fabric
                .storage
                .read(ReadRequest {
                    datacenter: self.fabric.dcs[0].clone(),
                    pool: Pool::Proposed(c.app.clone()),
                    freshness: Freshness::UpToDate,
                    entity: None,
                    attribute: None,
                })
                .unwrap_or_default()
                .into_iter()
                .map(|r| (r.var_id(), r.value))
                .collect();
            let missing = c
                .acked
                .iter()
                .filter(|(k, v)| stored.get(k) != Some(v))
                .count();
            ctx.out.check(missing == 0 && !c.acked.is_empty(), || {
                format!(
                    "{}: {missing} of {} acknowledged rows missing or stale in storage",
                    c.app.as_str(),
                    c.acked.len()
                )
            });
        }
        // A ring that has compacted holds its machine image as one JSON
        // blob, and `verify_chain` decodes it: through the JSON shim's
        // quadratic string parse that is minutes for a 3K-row image and
        // unbounded for this store's 19 MB one (README, sizing findings).
        // Chains are therefore verified only where no snapshot exists yet.
        let mut skipped = Vec::new();
        for dc in self.fabric.storage.partitions() {
            let snapshotted = std::fs::read_dir(self.wal_dir.join(dc.to_string()))
                .map(|dir| {
                    dir.flatten()
                        .any(|e| e.path().extension().is_some_and(|x| x == "snap"))
                })
                .unwrap_or(false);
            if snapshotted {
                skipped.push(dc.to_string());
                continue;
            }
            let chains = self.fabric.storage.verify_wal_chains(&dc);
            ctx.out
                .check(chains.is_ok(), || format!("WAL chains of {dc}: {chains:?}"));
        }
        if !skipped.is_empty() {
            ctx.out.note("wal_chains.unverified", skipped.join(","));
        }
    }
}

impl Driven for ApiIngest {
    /// Each connection posts batches `first..first + ops` in its own
    /// closed loop; the block's wall time runs from the first request
    /// sent to the last reply read, on either connection.
    fn block(&mut self, ctx: &mut Ctx, first: usize, ops: usize, phase: Phase, log: &mut OpLog) {
        if ops == 0 {
            return;
        }
        let (seed, now) = (self.seed, self.fabric.clock.now());
        let traced = phase == Phase::Traced;
        if traced {
            let c = &self.connections[0];
            let sample = gen::row_batch(seed, &c.app, &c.keys, first, BATCH_ROWS, now);
            http::json_probe(&mut ctx.layers, &sample);
            // One batch straight into storage, as the server's worker
            // hands it over: the storage share of a write op. Its pool is
            // outside the digest, so traced and untraced runs still agree.
            let probe = WriteRequest {
                pool: Pool::Proposed(AppId::new("ingest-probe")),
                rows: sample,
            };
            ctx.layers
                .count("storage.write_rows", probe.rows.len() as f64);
            let wrote = ctx
                .layers
                .time("storage.write_ms", || self.fabric.storage.write(probe));
            ctx.out
                .check(wrote.is_ok(), || format!("probe write: {wrote:?}"));
        }
        let epoch = ctx.started;
        let legs: Vec<Leg> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .connections
                .iter_mut()
                .map(|c| {
                    scope.spawn(move || {
                        let mut leg = Leg {
                            op_ms: Vec::with_capacity(ops),
                            rows_acked: 0,
                            failures: Vec::new(),
                            first_start: Instant::now(),
                            last_end: Instant::now(),
                            tracer: Tracer::new(traced, epoch),
                        };
                        let pool = Pool::Proposed(c.app.clone());
                        for index in first..first + ops {
                            let rows =
                                gen::row_batch(seed, &c.app, &c.keys, index, BATCH_ROWS, now);
                            leg.tracer.set_op(index as u64);
                            let started = Instant::now();
                            let open = leg.tracer.enter("httpapi.write");
                            let posted = c.client.write(&pool, &rows);
                            leg.tracer.exit(open);
                            leg.last_end = Instant::now();
                            leg.op_ms.push((leg.last_end - started).as_secs_f64() * 1e3);
                            match posted {
                                Ok(()) => {
                                    leg.rows_acked += rows.len();
                                    c.acked
                                        .extend(rows.into_iter().map(|r| (r.var_id(), r.value)));
                                }
                                Err(e) => leg
                                    .failures
                                    .push(format!("{} batch {index}: {e}", c.app.as_str())),
                            }
                        }
                        leg
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let start = legs.iter().map(|l| l.first_start).min().expect("two legs");
        let end = legs.iter().map(|l| l.last_end).max().expect("two legs");
        let mut work = 0.0;
        for leg in legs {
            ctx.out.attempted += (leg.op_ms.len() - leg.failures.len()) as u64;
            for f in leg.failures {
                ctx.out.check(false, || f);
            }
            work += leg.rows_acked as f64;
            log.op_ms.extend(leg.op_ms);
            if traced {
                ctx.tracer.absorb(leg.tracer);
            }
        }
        log.blocks.push(((end - start).as_secs_f64(), work));
    }

    fn digest(&mut self, ctx: &mut Ctx) -> u64 {
        let pools: Vec<Pool> = self
            .connections
            .iter()
            .map(|c| Pool::Proposed(c.app.clone()))
            .collect();
        stack::checked_digest(ctx, &self.fabric.storage, &pools)
    }

    fn traced_block_begins(&mut self, ctx: &mut Ctx) {
        let scrape = Scrape::take(&self.connections[0].client, &mut ctx.layers);
        self.counters = Some((BlockCounters::begin(&self.fabric), scrape));
    }
}
