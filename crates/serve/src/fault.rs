//! Deterministic fault injection for chaos tests and experiments
//! (compiled only with the `testing` feature).
//!
//! [`FaultyProxy`] is a TCP proxy that sits between a client and a real
//! server and injects the failure modes the resilience stack claims to
//! tolerate: refused connections, mid-frame disconnects, byte-level
//! stalls and delays, and garbage frames. Faults are toggled live through
//! the shared [`Faults`] handle, so a test can run clean traffic, flip a
//! fault on mid-stream, and watch the client recover.
//!
//! Determinism: every probabilistic decision draws from a
//! [`Xoshiro256`] stream forked from the proxy seed and the connection
//! ordinal, never from ambient entropy — the same seed and schedule
//! reproduce the same fault pattern bit-for-bit.
//!
//! Corruption is frame-aware on the server→client leg: the proxy parses
//! the 4-byte length prefix and replaces the payload with random bytes of
//! the same length. The framing stays intact while the payload becomes
//! noise, which a correct client must surface as a typed decode error —
//! never a hang, a panic, or (within ~2⁻⁶⁴ odds) a silently wrong answer.

use fstore_common::rng::{Rng, SplitMix64, Xoshiro256};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Live-tunable fault switches, shared between the proxy's pump threads
/// and the test driving them. All methods are safe to call while traffic
/// flows.
#[derive(Debug, Default)]
pub struct Faults {
    /// Accept-then-slam-shut: new connections are closed immediately.
    refuse_connections: AtomicBool,
    /// Stop forwarding bytes (in both directions) while set; traffic
    /// resumes where it left off when cleared.
    stall: AtomicBool,
    /// Probability (per mille) that a server→client frame's payload is
    /// replaced with random bytes.
    corrupt_permille: AtomicU32,
    /// Probability (per mille) that a server→client frame is cut short:
    /// the proxy forwards half the frame and drops the connection.
    drop_midframe_permille: AtomicU32,

    // Observability for assertions.
    connections_refused: AtomicU64,
    frames_corrupted: AtomicU64,
}

impl Faults {
    pub fn set_refuse_connections(&self, on: bool) {
        self.refuse_connections.store(on, Ordering::Release);
    }

    pub fn set_stall(&self, on: bool) {
        self.stall.store(on, Ordering::Release);
    }

    /// `p` is clamped to `[0, 1]` and stored with per-mille resolution.
    pub fn set_corrupt_probability(&self, p: f64) {
        let pm = (p.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self.corrupt_permille.store(pm, Ordering::Release);
    }

    /// `p` is clamped to `[0, 1]` and stored with per-mille resolution.
    pub fn set_drop_midframe_probability(&self, p: f64) {
        let pm = (p.clamp(0.0, 1.0) * 1000.0).round() as u32;
        self.drop_midframe_permille.store(pm, Ordering::Release);
    }

    /// Clear every fault at once (traffic becomes transparent again).
    pub fn clear(&self) {
        self.set_refuse_connections(false);
        self.set_stall(false);
        self.corrupt_permille.store(0, Ordering::Release);
        self.drop_midframe_permille.store(0, Ordering::Release);
    }

    pub fn connections_refused(&self) -> u64 {
        self.connections_refused.load(Ordering::Acquire)
    }

    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted.load(Ordering::Acquire)
    }

    fn stalled(&self) -> bool {
        self.stall.load(Ordering::Acquire)
    }

    /// Block while the stall switch is on (polling; pump threads only).
    fn wait_out_stall(&self) {
        while self.stalled() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A fault-injecting TCP proxy in front of `upstream`.
pub struct FaultyProxy {
    addr: SocketAddr,
    faults: Arc<Faults>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultyProxy {
    /// Listen on an ephemeral local port and forward to `upstream`.
    /// `seed` drives every probabilistic fault decision.
    pub fn start(upstream: SocketAddr, seed: u64) -> std::io::Result<FaultyProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let faults = Arc::new(Faults::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let faults = faults.clone();
            let shutdown = shutdown.clone();
            std::thread::Builder::new()
                .name("faulty-proxy-accept".into())
                .spawn(move || {
                    let mut seeder = SplitMix64::new(seed);
                    for conn in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(client) = conn else { continue };
                        let conn_seed = seeder.next_u64();
                        if faults.refuse_connections.load(Ordering::Acquire) {
                            faults.connections_refused.fetch_add(1, Ordering::AcqRel);
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        }
                        let Ok(server) = TcpStream::connect(upstream) else {
                            // Upstream is down; the client sees a hang-up,
                            // exactly as if the proxy were not there.
                            let _ = client.shutdown(Shutdown::Both);
                            continue;
                        };
                        spawn_pumps(client, server, faults.clone(), conn_seed);
                    }
                })
                .expect("spawn proxy acceptor")
        };
        Ok(FaultyProxy {
            addr,
            faults,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The address clients should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live fault switches.
    pub fn faults(&self) -> Arc<Faults> {
        self.faults.clone()
    }

    /// Stop accepting; existing pump threads die with their sockets.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultyProxy {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Start the two pump threads for one proxied connection. The
/// client→server leg is a transparent byte pump (plus stall/delay); the
/// server→client leg is frame-aware so corruption and mid-frame cuts
/// line up with protocol frames.
fn spawn_pumps(client: TcpStream, server: TcpStream, faults: Arc<Faults>, seed: u64) {
    let mut base = Xoshiro256::seeded(seed);
    let rng = base.fork(1);
    // The proxy must not add latency of its own: without nodelay, Nagle
    // against delayed ACKs costs tens of milliseconds per hop.
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    // Short read timeouts so the pumps notice stall toggles and peer
    // closes promptly instead of blocking forever.
    let _ = client.set_read_timeout(Some(Duration::from_millis(20)));
    let _ = server.set_read_timeout(Some(Duration::from_millis(20)));
    {
        let (client, server, faults) = (
            client.try_clone().expect("clone client"),
            server.try_clone().expect("clone server"),
            faults.clone(),
        );
        std::thread::Builder::new()
            .name("faulty-proxy-up".into())
            .spawn(move || pump_raw(client, server, &faults))
            .expect("spawn up pump");
    }
    std::thread::Builder::new()
        .name("faulty-proxy-down".into())
        .spawn(move || pump_frames(server, client, &faults, rng))
        .expect("spawn down pump");
}

/// Forward raw bytes until either side goes away.
fn pump_raw(mut from: TcpStream, mut to: TcpStream, faults: &Faults) {
    let mut buf = [0u8; 4096];
    loop {
        faults.wait_out_stall();
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Forward protocol frames, optionally corrupting payloads or cutting the
/// connection halfway through a frame.
fn pump_frames(mut from: TcpStream, mut to: TcpStream, faults: &Faults, mut rng: Xoshiro256) {
    loop {
        faults.wait_out_stall();
        let mut prefix = [0u8; 4];
        if !read_exact_patient(&mut from, &mut prefix, faults) {
            break;
        }
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        if !read_exact_patient(&mut from, &mut payload, faults) {
            break;
        }

        let cut_pm = faults.drop_midframe_permille.load(Ordering::Acquire) as u64;
        if cut_pm > 0 && rng.below(1000) < cut_pm {
            // Forward the prefix and half the payload, then vanish: the
            // client is left holding a truncated frame.
            let _ = to.write_all(&prefix);
            let _ = to.write_all(&payload[..len / 2]);
            break;
        }

        let corrupt_pm = faults.corrupt_permille.load(Ordering::Acquire) as u64;
        if corrupt_pm > 0 && rng.below(1000) < corrupt_pm {
            faults.frames_corrupted.fetch_add(1, Ordering::AcqRel);
            for byte in payload.iter_mut() {
                *byte = rng.next_u64() as u8;
            }
        }

        if to.write_all(&prefix).is_err() || to.write_all(&payload).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// `read_exact` that rides out read-timeout ticks (checking stalls in
/// between) and reports `false` on EOF or a real error.
fn read_exact_patient(from: &mut TcpStream, buf: &mut [u8], faults: &Faults) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        faults.wait_out_stall();
        match from.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permille_settings_round_and_clamp() {
        let faults = Faults::default();
        faults.set_corrupt_probability(0.5);
        assert_eq!(faults.corrupt_permille.load(Ordering::Acquire), 500);
        faults.set_corrupt_probability(7.0);
        assert_eq!(faults.corrupt_permille.load(Ordering::Acquire), 1000);
        faults.set_drop_midframe_probability(-1.0);
        assert_eq!(faults.drop_midframe_permille.load(Ordering::Acquire), 0);
        faults.clear();
        assert_eq!(faults.corrupt_permille.load(Ordering::Acquire), 0);
    }
}
