//! A connection whose reader thread cannot be spawned must cost that one
//! connection, not the server. The acceptor used to `expect` the spawn:
//! once the process ran out of address space for thread stacks, the
//! acceptor panicked, the listener closed, and every later connect was
//! refused — even after all load was gone.
//!
//! The test re-runs its own binary as a child under `RLIMIT_AS` (set in
//! `pre_exec`; `RLIMIT_NPROC` does not bind root). The child holds
//! connections open one at a time until one is closed unanswered, closes
//! them all, and then needs a fresh connection to be answered and the
//! refusal to be counted. The address-space limit is process-wide, which
//! is why this check is a test binary of its own with one test.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

mod common;

use fstore_common::Timestamp;
use fstore_core::FeatureServer;
use fstore_serve::{fixed_clock, start, ClientConfig, FeatureClient, ServeConfig, ServeEngine};
use fstore_storage::OnlineStore;
use std::net::SocketAddr;
use std::os::raw::c_int;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const RLimit) -> c_int;
}

const RLIMIT_AS: c_int = 9;

/// The child's address space: room for the test binary and a few dozen
/// reader threads (a 2 MiB stack each, plus a malloc arena per thread).
const ADDRESS_SPACE: u64 = 1 << 30;

/// The most connections the child holds before giving up on a refusal.
const MAX_CONNECTIONS: usize = 256;

const TEST: &str = "a_failed_reader_spawn_closes_one_connection_and_accepting_goes_on";

/// This process's soft address-space limit.
fn address_space_limit() -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a valid, writable `struct rlimit`.
    assert_eq!(unsafe { getrlimit(RLIMIT_AS, &mut limit) }, 0);
    limit.cur
}

#[test]
fn a_failed_reader_spawn_closes_one_connection_and_accepting_goes_on() {
    let _watchdog = common::watchdog(TEST);
    if address_space_limit() == ADDRESS_SPACE {
        serve_out_of_threads();
        return;
    }
    let mut child = Command::new(std::env::current_exe().expect("current_exe"));
    child.args(["--exact", TEST, "--nocapture", "--test-threads=1"]);
    // A single malloc arena would leave the limit unreached at the cap.
    child.env_remove("MALLOC_ARENA_MAX");
    // SAFETY: the closure only calls `setrlimit`, which is
    // async-signal-safe, on a stack value that outlives the call.
    unsafe {
        child.pre_exec(|| {
            let limit = RLimit {
                cur: ADDRESS_SPACE,
                max: ADDRESS_SPACE,
            };
            if setrlimit(RLIMIT_AS, &limit) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let out = child.output().expect("run the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    println!("{stdout}");
    eprintln!("{stderr}");
    assert!(
        out.status.success(),
        "the child under a {ADDRESS_SPACE}-byte address space failed ({})",
        out.status
    );
    assert!(
        stdout.contains("1 passed"),
        "the child ran no test: {stdout}"
    );
}

fn connect(addr: SocketAddr) -> std::io::Result<FeatureClient> {
    let config = ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        ..ClientConfig::default()
    };
    FeatureClient::connect_with(addr, &config)
}

/// The child's half: exhaust the address space with held connections,
/// let them go, and check the server still answers.
fn serve_out_of_threads() {
    let engine = ServeEngine::new(
        FeatureServer::new(Arc::new(OnlineStore::default())),
        fixed_clock(Timestamp::millis(0)),
    );
    let config = ServeConfig::builder().workers(1).build().unwrap();
    let server = start(engine, config).expect("start the server");
    let addr = server.addr();

    let mut held = Vec::new();
    let refused = loop {
        assert!(
            held.len() < MAX_CONNECTIONS,
            "{MAX_CONNECTIONS} connections were all answered: the limit never bound"
        );
        let mut conn = connect(addr).expect("connect");
        let asked = Instant::now();
        if conn.health().is_err() {
            assert!(
                asked.elapsed() < Duration::from_secs(5),
                "the refused connection was left open until the read timed out"
            );
            break held.len();
        }
        held.push(conn);
    };
    println!("connection {} was closed unanswered", refused + 1);
    drop(held);

    // The held connections' readers exit on their own once their sockets
    // close; a fresh connection gets a reader as soon as their stacks
    // are free again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut conn) = connect(addr) {
            if conn.health().is_ok() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no fresh connection was answered after the refusal"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let refusals = server.metrics().snapshot().spawn_refusals;
    println!("spawn refusals: {refusals}");
    assert!(refusals >= 1, "the refused connection was not counted");
    server.shutdown();
}
