//! Two guards on entity-filtered reads that a pool scan never needed.
//!
//! An `Entity=` filter is answered by resolving the name to its interned
//! id and probing that entity's catalogue slots, so (1) a name that
//! arrives as a request parameter must be *looked up*, never interned —
//! or any client could grow the process-wide, append-only tables by
//! asking about entities that do not exist — and (2) the read must cost
//! one probe per catalogue attribute whatever the pool holds, which the
//! `storage_read_rows_visited_total` work counter shows without a clock.
//!
//! Both tests read process-wide table sizes, so they take turns.

use statesman_httpapi::{ApiClient, ApiServer};
use statesman_net::SimClock;
use statesman_obs::Registry;
use statesman_storage::{ReadRequest, StorageService, WriteRequest};
use statesman_types::{
    interned_count, slot_registry, AppId, Attribute, DatacenterId, EntityName, Freshness,
    NetworkState, Pool, Value,
};
use std::sync::Mutex;

static TABLES: Mutex<()> = Mutex::new(());

fn firmware(dc: &str, device: String, clock: &SimClock) -> NetworkState {
    NetworkState::new(
        EntityName::device(dc, device),
        Attribute::DeviceFirmwareVersion,
        Value::text("7.0"),
        clock.now(),
        AppId::monitor(),
    )
}

#[test]
fn ghost_entity_reads_return_nothing_and_grow_no_table() {
    let _turn = TABLES.lock().unwrap_or_else(|e| e.into_inner());
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock.clone());
    storage
        .write(WriteRequest {
            pool: Pool::Observed,
            rows: vec![firmware("dc1", "agg-1-1".into(), &clock)],
        })
        .unwrap();
    let mut server = ApiServer::start(storage).unwrap();
    let client = ApiClient::new(server.addr());
    let dc = DatacenterId::new("dc1");
    let read = |freshness, entity: &EntityName| {
        client
            .read(&dc, &Pool::Observed, freshness, Some(entity), None)
            .unwrap()
    };
    // Fill the bounded-stale cache before counting.
    let real = EntityName::device("dc1", "agg-1-1");
    assert_eq!(read(Freshness::BoundedStale, &real).len(), 1);

    let (names, slots) = (
        interned_count(),
        slot_registry().pool_slots(&Pool::Observed),
    );
    for n in 0..1_000 {
        // `GET /v1/read?...&Entity=dc1/device/ghost-<n>`
        let ghost = EntityName::device("dc1", format!("ghost-{n}"));
        let freshness = [Freshness::UpToDate, Freshness::BoundedStale][n % 2];
        assert_eq!(read(freshness, &ghost), vec![], "{ghost} {freshness}");
    }
    assert_eq!(interned_count(), names, "ghost names were interned");
    assert_eq!(
        slot_registry().pool_slots(&Pool::Observed),
        slots,
        "ghost variables were given slots"
    );
    server.shutdown();
}

#[test]
fn entity_reads_visit_at_most_the_catalogue_whatever_the_pool_holds() {
    let _turn = TABLES.lock().unwrap_or_else(|e| e.into_inner());
    const DEVICES: usize = 50_000;
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::single_dc("dc1", clock.clone());
    let registry = Registry::new();
    storage.attach_obs(&registry);
    storage
        .write_bulk(WriteRequest {
            pool: Pool::Observed,
            rows: (0..DEVICES)
                .map(|i| firmware("dc1", format!("visit-{i}"), &clock))
                .collect(),
        })
        .unwrap();
    let visited = || {
        registry
            .counter_value("storage_read_rows_visited_total")
            .unwrap_or(0)
    };
    let catalogue = Attribute::catalogue().len() as u64;
    assert_eq!(catalogue, 22);

    for freshness in [Freshness::UpToDate, Freshness::BoundedStale] {
        let read = |entity: Option<EntityName>, attribute| {
            let before = visited();
            let rows = storage
                .read(ReadRequest {
                    datacenter: dc.clone(),
                    pool: Pool::Observed,
                    freshness,
                    entity,
                    attribute,
                })
                .unwrap();
            (rows.len(), visited() - before)
        };
        let device = EntityName::device("dc1", "visit-31337");
        assert_eq!(
            read(Some(device.clone()), None),
            (1, catalogue),
            "{freshness}"
        );
        assert_eq!(
            read(Some(device), Some(Attribute::DeviceFirmwareVersion)),
            (1, 1),
            "{freshness}"
        );
        let ghost = EntityName::device("dc1", "visit-nobody");
        assert!(read(Some(ghost), None).1 <= catalogue, "{freshness}");
        // Without an entity there is nothing to probe: a scan.
        assert_eq!(read(None, None), (DEVICES, DEVICES as u64), "{freshness}");
        assert_eq!(
            read(None, Some(Attribute::DeviceBootImage)),
            (0, DEVICES as u64),
            "{freshness}"
        );
    }
}
