//! Shared by the socket-level integration tests.

use std::io::Write;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Fails the test process if the guarded test is still running after its
/// hard deadline. A socket-level regression tends to *hang* — every thread
/// parked on a read, a join or a channel — and a hung test thread cannot
/// be failed from inside, so the watchdog prints which test stalled and
/// exits the process: CI gets a red test with a message instead of a job
/// that times out hours later. Drop the guard (end of test, or unwinding
/// from a failed assertion) to disarm it.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

/// Hard deadline per test; a healthy run takes seconds.
const LIMIT: Duration = Duration::from_secs(120);

pub fn watchdog(test: &'static str) -> Watchdog {
    let (disarm, armed) = channel::<()>();
    let thread = std::thread::Builder::new()
        .name(format!("watchdog-{test}"))
        .spawn(move || {
            if armed.recv_timeout(LIMIT) == Err(RecvTimeoutError::Timeout) {
                // Written to the stderr handle directly: `eprintln!` output is
                // captured per test and would die with the process.
                let _ = writeln!(
                    std::io::stderr(),
                    "watchdog: test `{test}` still running after {LIMIT:?} — \
                     treating it as hung and failing the test process"
                );
                std::process::exit(1);
            }
        })
        .expect("spawn watchdog thread");
    Watchdog {
        disarm: Some(disarm),
        thread: Some(thread),
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Closing the channel wakes the watcher at once.
        drop(self.disarm.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
