//! A server must not keep anything per connection once the connection is
//! over. Each connection runs on its own thread; a thread that has exited
//! but was never joined keeps its stack mapped, so a server that held on
//! to every handle grew by two memory mappings per connection and aborted
//! once it reached `vm.max_map_count` (65,530 by default) — some 32 k
//! connections into its life. Here 2,000 short connections, one after
//! another, must leave the process's mappings about where they were.

#![cfg(target_os = "linux")]

mod common;

use fstore_common::Timestamp;
use fstore_core::FeatureServer;
use fstore_serve::{fixed_clock, start, FeatureClient, ServeConfig, ServeEngine};
use fstore_storage::OnlineStore;
use std::sync::Arc;
use std::time::Duration;

const CONNECTIONS: usize = 2_000;

/// Memory mappings of this process.
fn maps() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// One connection's life: connect, one `Health` round trip, close.
fn visit(addr: std::net::SocketAddr) {
    let mut conn = FeatureClient::connect(addr).expect("connect");
    conn.health().expect("health");
}

#[test]
fn finished_connections_leave_no_mappings_behind() {
    let _watchdog = common::watchdog("finished_connections_leave_no_mappings_behind");
    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(Timestamp::millis(0)),
    );
    let config = ServeConfig::builder().workers(1).build().unwrap();
    let server = start(engine, config).unwrap();
    let addr = server.addr();
    // Warm up: the first connections map what every later one reuses.
    for _ in 0..20 {
        visit(addr);
    }
    std::thread::sleep(Duration::from_millis(100));
    let before = maps();
    for _ in 0..CONNECTIONS {
        visit(addr);
    }
    std::thread::sleep(Duration::from_millis(100));
    let grown = maps().saturating_sub(before);
    println!("{CONNECTIONS} connections grew the process by {grown} mappings");
    assert!(
        grown < 100,
        "{CONNECTIONS} finished connections left {grown} memory mappings behind"
    );
    server.shutdown();
}
