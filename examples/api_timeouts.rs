//! The API front end's admission and timeout edges, observed on real
//! TCP: a retired Table-3 path (404), a half-open connection (connects,
//! never sends — the classic slow-client attack), and a garbage request,
//! each answered appropriately — all without a thread per connection.
//!
//! ```text
//! cargo run --example api_timeouts
//! ```

use statesman::httpapi::{ApiServer, ServerConfig};
use statesman::net::SimClock;
use statesman::storage::StorageService;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn main() {
    let clock = SimClock::new();
    let storage = StorageService::single_dc("dc1", clock);
    let server = ApiServer::start_with_config(
        storage,
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let addr = server.addr();
    println!("API on http://{addr}, idle timeout 300ms\n");

    // The Table-3 spellings are retired: an ordinary 404.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET /healthz HTTP/1.1\r\nhost: demo\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    println!("--- /healthz (retired Table-3 path) ---\n{buf}\n");

    // Half-open: connect and send nothing. The reactor answers 408 and
    // closes rather than pinning anything (no thread is waiting on it).
    let t0 = Instant::now();
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut buf = String::new();
    idle.read_to_string(&mut buf).unwrap();
    println!(
        "--- half-open connection, closed by server after {}ms ---\n{buf}\n",
        t0.elapsed().as_millis()
    );

    // Garbage that did arrive stays a 400, not a 408.
    let mut g = TcpStream::connect(addr).unwrap();
    g.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut buf = String::new();
    g.read_to_string(&mut buf).unwrap();
    println!("--- garbage request ---\n{buf}");
}
