//! Integration test: an application driving Statesman entirely through
//! the Table-3 HTTP API — write a PS over the wire, let the checker merge
//! it, observe the TS and receipts over the wire.

use statesman_core::groups::ImpactGroup;
use statesman_core::{Checker, CheckerConfig, MergePolicy, Monitor};
use statesman_httpapi::{ApiClient, ApiServer};
use statesman_net::{SimClock, SimConfig, SimNetwork};
use statesman_storage::{StorageConfig, StorageService};
use statesman_topology::DcnSpec;
use statesman_types::{
    AppId, Attribute, DatacenterId, EntityName, Freshness, NetworkState, Pool, Value, WriteOutcome,
};

#[test]
fn full_loop_through_the_wire() {
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let graph = DcnSpec::tiny("dc1").build();
    let net = SimNetwork::new(&graph, clock.clone(), SimConfig::ideal());
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());

    // Seed the OS with a real monitor round.
    Monitor::new(net, storage.clone(), graph.clone())
        .run_round()
        .unwrap();

    let server = ApiServer::start(storage.clone()).unwrap();
    let client = ApiClient::new(server.addr());
    let app = AppId::new("remote-upgrade");

    // 1. Read the OS over HTTP (bounded-stale, like a relaxed app).
    let os = client
        .read(&dc, &Pool::Observed, Freshness::BoundedStale, None, None)
        .unwrap();
    assert!(os.len() > 50, "OS has {} rows", os.len());

    // 2. Write a PS over HTTP.
    let entity = EntityName::device("dc1", "agg-1-1");
    let proposal = NetworkState::new(
        entity.clone(),
        Attribute::DeviceFirmwareVersion,
        Value::text("7.7"),
        clock.now(),
        app.clone(),
    );
    client
        .write(&Pool::Proposed(app.clone()), &[proposal])
        .unwrap();

    // 3. A checker pass merges it.
    let checker = Checker::new(
        CheckerConfig {
            group: ImpactGroup::Datacenter(dc.clone()),
            policy: MergePolicy::PriorityLock,
        },
        graph,
    );
    let report = checker.run_pass(&storage, clock.now()).unwrap();
    assert_eq!(report.accepted, 1);

    // 4. The TS is visible over HTTP.
    let ts = client
        .read(
            &dc,
            &Pool::Target,
            Freshness::UpToDate,
            Some(&entity),
            Some(Attribute::DeviceFirmwareVersion),
        )
        .unwrap();
    assert_eq!(ts.len(), 1);
    assert_eq!(ts[0].value, Value::text("7.7"));

    // 5. Receipts arrive over HTTP (and drain).
    let receipts = client.receipts(&app).unwrap();
    assert_eq!(receipts.len(), 1);
    assert_eq!(receipts[0].outcome, WriteOutcome::Accepted);
    assert!(client.receipts(&app).unwrap().is_empty());
}

#[test]
fn oversized_bodies_are_rejected() {
    // The server caps bodies at 64 MB; the violation is its own status
    // (413) so clients can tell "shrink your payload" from "not HTTP".
    use std::io::Write;
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start(storage).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let head = format!(
        "POST /v1/write?Pool=OS HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n",
        65 << 20
    );
    stream.write_all(head.as_bytes()).unwrap();
    let (status, body) = statesman_httpapi::http::read_response(&mut stream).unwrap();
    assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));
}

#[test]
fn oversized_headers_are_rejected_with_431() {
    use std::io::Write;
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start(storage).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /v1/health HTTP/1.1\r\nx-pad: ")
        .unwrap();
    stream.write_all(&vec![b'a'; 17 << 10]).unwrap();
    let (status, _) = statesman_httpapi::http::read_response(&mut stream).unwrap();
    assert_eq!(status, 431);
}

#[test]
fn keep_alive_survives_interleaved_partial_writes() {
    // Two requests on one socket, each dribbled out in fragments with
    // pauses between them: the reactor must assemble each request from
    // partial reads and keep the connection alive between responses.
    use statesman_httpapi::http::read_response_buffered;
    use std::io::{BufReader, Write};
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start(storage).unwrap();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let wire: &[u8] = b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n";
    for _ in 0..2 {
        for chunk in wire.chunks(7) {
            writer.write_all(chunk).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let resp = read_response_buffered(&mut reader).unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            !resp.connection_close(),
            "keep-alive persists across partial writes"
        );
        assert!(String::from_utf8_lossy(&resp.body).contains("\"ok\":true"));
    }
    assert_eq!(server.request_count(), 2);
}

#[test]
fn overload_sheds_round_trip_into_typed_retryable_errors() {
    use statesman_httpapi::{error::decode_error, ServerConfig};
    use statesman_types::StateError;
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    // One connection slot: the second simultaneous connection is shed at
    // the accept edge with 429 + retry-after.
    let server = ApiServer::start_with_config(
        storage,
        ServerConfig {
            max_connections: 1,
            retry_after: std::time::Duration::from_secs(2),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let _held = std::net::TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let resp = ApiClient::new(server.addr())
        .raw_request("GET", "/v1/health", &[])
        .unwrap();
    assert_eq!(resp.status, 429, "shed with a response, not a reset");
    assert_eq!(resp.retry_after(), Some(2));
    let err = decode_error(resp.status, &resp.body);
    assert!(
        matches!(
            err,
            StateError::Overloaded {
                retry_after_ms: 2000
            }
        ),
        "shed decodes into the typed overload error: {err:?}"
    );
    assert!(err.is_retryable());
}

#[test]
fn garbage_requests_get_400_not_a_hang() {
    use std::io::Write;
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start(storage).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let (status, _) = statesman_httpapi::http::read_response(&mut stream).unwrap();
    assert_eq!(status, 400);
}

#[test]
fn a_body_of_open_brackets_gets_400_not_a_dead_server() {
    // 200 KB of `[`: the JSON parser recurses once per nesting level, so
    // without its depth limit this body overflows a worker's stack and
    // the abort takes the whole process down, not one request.
    use statesman_httpapi::error::decode_error;
    use statesman_types::StateError;
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start(storage).unwrap();
    let client = ApiClient::new(server.addr());
    let resp = client
        .raw_request("POST", "/v1/write?Pool=OS", &[b'['; 200_000])
        .unwrap();
    assert_eq!(resp.status, 400);
    let err = decode_error(resp.status, &resp.body);
    assert!(
        matches!(&err, StateError::Protocol { reason } if reason.contains("recursion limit exceeded")),
        "typed error body names the limit: {err:?}"
    );
    let health = client.raw_request("GET", "/v1/health", &[]).unwrap();
    assert_eq!(health.status, 200, "the server still answers");
}

#[test]
fn concurrent_wire_clients() {
    // Several clients hammer the same server from threads; every request
    // must be answered coherently by the fixed worker pool.
    let clock = SimClock::new();
    let dc = DatacenterId::new("dc1");
    let storage = StorageService::new([dc.clone()], clock.clone(), StorageConfig::default());
    let server = ApiServer::start(storage).unwrap();
    let addr = server.addr();

    let mut handles = Vec::new();
    for t in 0..8 {
        let dc = dc.clone();
        handles.push(std::thread::spawn(move || {
            let client = ApiClient::new(addr);
            for i in 0..10 {
                let row = NetworkState::new(
                    EntityName::device("dc1", format!("dev-{t}-{i}")),
                    Attribute::DeviceBootImage,
                    Value::text("img"),
                    statesman_types::SimTime::ZERO,
                    AppId::new(format!("app-{t}")),
                );
                client.write(&Pool::Observed, &[row]).unwrap();
                let rows = client
                    .read(&dc, &Pool::Observed, Freshness::UpToDate, None, None)
                    .unwrap();
                assert!(!rows.is_empty());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let client = ApiClient::new(addr);
    let rows = client
        .read(&dc, &Pool::Observed, Freshness::UpToDate, None, None)
        .unwrap();
    assert_eq!(rows.len(), 80, "all 8x10 writes landed");
}
