//! A connection's ordered outbox: the reply slots a connection's
//! requests reserve, the [`Ticket`] a job carries to its slot, and the
//! writer role that sends ready replies from the head (DESIGN §2.16).

use crate::batch::Reply;
use crate::codec::{put_frame, FramePool};
use crate::metrics::ServingMetrics;
use crate::protocol::{ErrorCode, Response};
use bytes::BytesMut;
use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The socket side of an [`Outbox`].
pub(crate) trait Sink: Send + Sync {
    /// Send as much of `buf` as the socket takes without waiting;
    /// `WouldBlock` when it takes nothing.
    fn send_now(&self, buf: &[u8]) -> std::io::Result<usize>;

    /// Send all of `buf`, waiting as long as the write timeout allows.
    fn send_all(&self, buf: &[u8]) -> std::io::Result<()>;
}

impl Sink for TcpStream {
    fn send_now(&self, buf: &[u8]) -> std::io::Result<usize> {
        send_nonblocking(self, buf)
    }

    fn send_all(&self, buf: &[u8]) -> std::io::Result<()> {
        let mut socket = self;
        socket.write_all(buf)
    }
}

/// One `send(2)` with `MSG_DONTWAIT`: std has no per-call non-blocking
/// send, and `set_nonblocking` would change the file description the
/// reader's blocking `read` shares.
#[cfg(target_os = "linux")]
fn send_nonblocking(socket: &TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    use std::ffi::{c_int, c_void};
    use std::os::fd::AsRawFd;
    const MSG_DONTWAIT: c_int = 0x40;
    const MSG_NOSIGNAL: c_int = 0x4000;
    extern "C" {
        fn send(fd: c_int, buf: *const c_void, len: usize, flags: c_int) -> isize;
    }
    loop {
        // SAFETY: `buf` is a live, initialised slice of `buf.len()` bytes
        // that `send` only reads, and the descriptor belongs to `socket`,
        // which outlives the call.
        let sent = unsafe {
            send(
                socket.as_raw_fd(),
                buf.as_ptr().cast(),
                buf.len(),
                MSG_DONTWAIT | MSG_NOSIGNAL,
            )
        };
        if sent >= 0 {
            return Ok(sent as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Elsewhere there is no portable non-blocking send: every run goes to
/// the stall flusher.
#[cfg(not(target_os = "linux"))]
fn send_nonblocking(_: &TcpStream, _: &[u8]) -> std::io::Result<usize> {
    Err(std::io::ErrorKind::WouldBlock.into())
}

/// A connection's ordered outbox: one reply slot per request, indexed by
/// the sequence number the reader reserved for it, under one lock with
/// the head index. Replies are deposited in any order (a drain may
/// finish request 3 before request 0, and four workers certainly do) and
/// leave only from the head, so responses reach the socket in exactly the
/// order requests arrived.
///
/// Sending is a role, not a thread. Whoever flushes — a worker after its
/// drain, or the reader after a refusal — takes the writer role if it is
/// free, and with it the connection's send buffer, frames every
/// consecutive ready reply from the head (up to 64 KiB) into it, and
/// sends the run with one non-blocking send; it keeps the role while the
/// head is ready. A flush that finds the role taken returns at once: the
/// holder sees the new reply before it lets go. Only a send that would
/// block passes the rest of its run, and the role, to the connection's
/// stall flusher, which finishes it with blocking writes under
/// [`ServeConfig::write_timeout`].
pub(crate) struct Outbox {
    state: std::sync::Mutex<OutboxState>,
    /// The reader waits here for room, and at the end for the last write.
    room: Condvar,
    /// The stall flusher waits here for a run to finish.
    stall: Condvar,
    socket: Box<dyn Sink>,
    metrics: Arc<ServingMetrics>,
    pool: Arc<FramePool>,
    depth: usize,
}

#[derive(Default)]
struct OutboxState {
    /// Slots from `head` on: slot `seq` sits at `seq - head`, `None`
    /// until answered.
    slots: VecDeque<Option<Reply>>,
    /// The sequence number of the first slot not yet taken for sending.
    head: u64,
    /// Someone holds the writer role; only the holder takes replies off
    /// the head and sends them.
    writing: bool,
    /// The connection's send buffer, out with the writer role's holder.
    /// One buffer per connection, as a connection writer thread had, so a
    /// bulk answer grows it on the connection that asked for it.
    buf: BytesMut,
    /// A send failed: the peer is gone and replies go nowhere.
    broken: bool,
    /// The reader is done; the stall flusher exits.
    closed: bool,
    /// The reader is parked on `room` (a flush wakes it only then).
    reader_waits: bool,
    /// A run a non-blocking send could not finish.
    stalled: Option<Run>,
    /// The stall flusher, spawned at the connection's first stall.
    flusher: Option<JoinHandle<()>>,
}

/// [`Condvar::wait`], ignoring poison as [`Outbox::lock`] does.
fn wait<'a>(cv: &Condvar, state: MutexGuard<'a, OutboxState>) -> MutexGuard<'a, OutboxState> {
    cv.wait(state).unwrap_or_else(PoisonError::into_inner)
}

impl OutboxState {
    fn head_ready(&self) -> bool {
        matches!(self.slots.front(), Some(Some(_)))
    }
}

/// Framed replies on their way to the socket.
struct Run {
    bytes: BytesMut,
    /// How many of `bytes` already left.
    sent: usize,
    frames: u64,
}

impl Outbox {
    pub(crate) fn new(
        socket: Box<dyn Sink>,
        metrics: Arc<ServingMetrics>,
        depth: usize,
    ) -> Arc<Outbox> {
        Arc::new(Outbox {
            state: Default::default(),
            room: Condvar::new(),
            stall: Condvar::new(),
            socket,
            pool: metrics.frame_pool(),
            metrics,
            depth: depth.max(1),
        })
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserve the next sequence number, waiting while `depth` replies are
    /// outstanding. `None` once a send has failed.
    pub(crate) fn reserve(self: &Arc<Self>) -> Option<Ticket> {
        let mut state = self.lock();
        while state.slots.len() >= self.depth && !state.broken {
            state.reader_waits = true;
            state = wait(&self.room, state);
        }
        state.reader_waits = false;
        if state.broken {
            return None;
        }
        let seq = state.head + state.slots.len() as u64;
        state.slots.push_back(None);
        Some(Ticket {
            outbox: Some(Arc::clone(self)),
            seq,
        })
    }

    /// Whether `seq` is the connection's one unsent request: every request
    /// before it has been answered and taken for sending.
    pub(crate) fn only_unsent(&self, seq: u64) -> bool {
        let state = self.lock();
        state.head == seq && state.slots.len() == 1
    }

    /// Put the reply for `seq` in its slot. It leaves at the next flush
    /// that finds it at the head.
    pub(crate) fn deposit(&self, seq: u64, reply: Reply) {
        let mut state = self.lock();
        if state.broken {
            drop(state);
            self.recycle(reply);
            return;
        }
        let at = (seq - state.head) as usize;
        state.slots[at] = Some(reply);
    }

    /// Send every ready reply from the head, unless the writer role is
    /// taken (its holder sends them) or the head is still pending.
    pub(crate) fn flush(self: &Arc<Self>) {
        let mut out = {
            let mut state = self.lock();
            if state.writing || !state.head_ready() {
                return;
            }
            state.writing = true;
            std::mem::take(&mut state.buf)
        };
        loop {
            let frames = self.take_run(&mut out);
            let sent = match self.socket.send_now(out.as_slice()) {
                Ok(sent) => sent,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 0,
                Err(_) => return self.break_off(),
            };
            if sent < out.len() {
                return self.hand_to_flusher(Run {
                    bytes: out,
                    sent,
                    frames,
                });
            }
            self.metrics.record_wire_tx(out.len() as u64, frames, 1);
            if !self.keep_role(&mut out) {
                return;
            }
        }
    }

    /// Frame the ready replies from the head into `out`, up to
    /// [`MAX_COALESCED_WRITE`] bytes, and return how many. The caller
    /// holds the writer role. The lock is released while each reply is
    /// framed, so a bulk encode never holds up the reader or a depositing
    /// worker.
    fn take_run(&self, out: &mut BytesMut) -> u64 {
        out.clear();
        let mut frames = 0;
        while out.len() < MAX_COALESCED_WRITE {
            let reply = {
                let mut state = self.lock();
                if !state.head_ready() {
                    break;
                }
                state.head += 1;
                if state.reader_waits {
                    self.room.notify_one();
                }
                state.slots.pop_front().flatten()
            };
            put_reply(out, reply.expect("the head was ready"), &self.pool);
            frames += 1;
        }
        frames
    }

    /// After a run is sent: keep the writer role if the head is ready
    /// again, else give it up and return the send buffer `out`.
    fn keep_role(&self, out: &mut BytesMut) -> bool {
        let mut state = self.lock();
        if state.head_ready() {
            return true;
        }
        state.writing = false;
        // One huge answer (a snapshot) must not pin its buffer to an
        // otherwise quiet connection forever.
        if out.capacity() <= MAX_RETAINED_WRITE_BUFFER {
            state.buf = std::mem::take(out);
        }
        if state.reader_waits {
            self.room.notify_one();
        }
        false
    }

    /// Pass an unfinished run, and the writer role with it, to the stall
    /// flusher, spawning it at the connection's first stall.
    fn hand_to_flusher(self: &Arc<Self>, run: Run) {
        let mut state = self.lock();
        state.stalled = Some(run);
        if state.flusher.is_some() {
            self.stall.notify_one();
            return;
        }
        let outbox = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("fstore-serve-conn-flusher".to_string())
            .spawn(move || outbox.flusher_loop());
        match spawned {
            Ok(flusher) => state.flusher = Some(flusher),
            Err(_) => {
                state.stalled = None;
                drop(state);
                self.break_off();
            }
        }
    }

    /// The stall flusher: finish each stalled run with blocking writes,
    /// then keep sending from the head until it is not ready.
    fn flusher_loop(&self) {
        loop {
            let Run {
                mut bytes,
                mut sent,
                mut frames,
            } = {
                let mut state = self.lock();
                loop {
                    if let Some(run) = state.stalled.take() {
                        break run;
                    }
                    if state.closed {
                        return;
                    }
                    state = wait(&self.stall, state);
                }
            };
            loop {
                if self.socket.send_all(&bytes.as_slice()[sent..]).is_err() {
                    self.break_off();
                    break;
                }
                self.metrics.record_wire_tx(bytes.len() as u64, frames, 1);
                if !self.keep_role(&mut bytes) {
                    break;
                }
                frames = self.take_run(&mut bytes);
                sent = 0;
            }
        }
    }

    /// A send failed: drop every reply still held and give up the writer
    /// role, so the reader stops waiting and later deposits go nowhere.
    fn break_off(&self) {
        let replies = {
            let mut state = self.lock();
            state.broken = true;
            state.writing = false;
            state.head += state.slots.len() as u64;
            if state.reader_waits {
                self.room.notify_one();
            }
            std::mem::take(&mut state.slots)
        };
        replies.into_iter().flatten().for_each(|r| self.recycle(r));
    }

    /// The reader is done: wait until every reserved slot has been sent,
    /// or a send failed, then stop the stall flusher.
    pub(crate) fn close(&self) {
        let flusher = {
            let mut state = self.lock();
            while !state.broken && (state.writing || !state.slots.is_empty()) {
                state.reader_waits = true;
                state = wait(&self.room, state);
            }
            state.reader_waits = false;
            state.closed = true;
            self.stall.notify_one();
            state.flusher.take()
        };
        if let Some(flusher) = flusher {
            let _ = flusher.join();
        }
    }

    /// A reply that will never be sent still owes its frame to the pool.
    fn recycle(&self, reply: Reply) {
        if let Reply::Frame(frame) = reply {
            self.pool.put(frame);
        }
    }
}

/// A reserved reply slot, carried by its [`Job`](crate::batch::Job).
/// Answer it once; a ticket dropped unanswered answers `Internal "worker
/// dropped the request"` in its slot, so a lost job never stalls the
/// replies behind it.
pub(crate) struct Ticket {
    outbox: Option<Arc<Outbox>>,
    seq: u64,
}

impl Ticket {
    /// The slot's sequence number on its connection.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Deposit `reply` in the slot and return the outbox, for the caller
    /// to flush once its drain is done.
    pub(crate) fn answer(mut self, reply: Reply) -> Option<Arc<Outbox>> {
        let outbox = self.outbox.take()?;
        outbox.deposit(self.seq, reply);
        Some(outbox)
    }

    /// Give the slot up unanswered, returning its sequence number: the
    /// caller answers it (admission refused the job).
    pub(crate) fn disarm(mut self) -> u64 {
        self.outbox = None;
        self.seq
    }

    /// A ticket with no connection behind it: answering it sends nothing.
    #[cfg(test)]
    pub(crate) fn detached() -> Ticket {
        Ticket {
            outbox: None,
            seq: 0,
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if let Some(outbox) = self.outbox.take() {
            outbox.deposit(
                self.seq,
                Reply::Typed(Response::error(
                    ErrorCode::Internal,
                    "worker dropped the request",
                )),
            );
            outbox.flush();
        }
    }
}

/// Append one reply to `out` as a whole frame.
fn put_reply(out: &mut BytesMut, reply: Reply, pool: &FramePool) {
    match reply {
        Reply::Frame(frame) => {
            put_frame(out, |buf| buf.extend_from_slice(frame.as_slice()));
            pool.put(frame);
        }
        Reply::Typed(response) => put_frame(out, |buf| response.encode_into(buf)),
    }
}

/// Bytes past which a flush stops appending ready replies to the run it
/// is about to send.
const MAX_COALESCED_WRITE: usize = 64 * 1024;

/// Most capacity a connection's send buffer keeps between runs.
const MAX_RETAINED_WRITE_BUFFER: usize = 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_frame_vectored;
    use parking_lot::Mutex;
    use std::io::ErrorKind;

    /// A socket stand-in that keeps every send apart. While `stalled`, a
    /// non-blocking send takes nothing, so every run goes to the stall
    /// flusher.
    #[derive(Clone, Default)]
    struct Writes {
        sends: Arc<Mutex<Vec<Vec<u8>>>>,
        stalled: bool,
    }

    impl Sink for Writes {
        fn send_now(&self, buf: &[u8]) -> std::io::Result<usize> {
            if self.stalled {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.sends.lock().push(buf.to_vec());
            Ok(buf.len())
        }

        fn send_all(&self, buf: &[u8]) -> std::io::Result<()> {
            self.sends.lock().push(buf.to_vec());
            Ok(())
        }
    }

    impl Writes {
        fn count(&self) -> usize {
            self.sends.lock().len()
        }

        fn bytes(&self) -> Vec<u8> {
            self.sends.lock().concat()
        }
    }

    /// An outbox over `socket` with `n` reserved slots.
    fn outbox(socket: &Writes, n: u64) -> (Arc<Outbox>, Arc<ServingMetrics>, Vec<Ticket>) {
        let metrics = Arc::new(ServingMetrics::new());
        let outbox = Outbox::new(Box::new(socket.clone()), Arc::clone(&metrics), 128);
        let tickets = (0..n).map(|_| outbox.reserve().unwrap()).collect();
        (outbox, metrics, tickets)
    }

    /// Reply `i`: a pooled frame for even `i`, a typed response for odd.
    fn reply(i: u64, pool: &FramePool) -> Reply {
        let response = Response::PutAck { epoch: i, term: 1 };
        if i.is_multiple_of(2) {
            let mut frame = pool.get();
            response.encode_into(&mut frame);
            Reply::Frame(frame)
        } else {
            Reply::Typed(response)
        }
    }

    /// Answer ticket `i` with [`reply`]`(i)`, then flush as a worker does.
    fn answer(tickets: &mut [Option<Ticket>], i: u64, metrics: &ServingMetrics) {
        let ticket = tickets[i as usize].take().unwrap();
        let outbox = ticket.answer(reply(i, &metrics.frame_pool())).unwrap();
        outbox.flush();
    }

    /// The wire bytes of replies `range`, one vectored frame each.
    fn frames(range: std::ops::Range<u64>) -> Vec<u8> {
        let mut wire = Vec::new();
        for i in range {
            let mut payload = BytesMut::new();
            Response::PutAck { epoch: i, term: 1 }.encode_into(&mut payload);
            write_frame_vectored(&mut wire, payload.as_slice()).unwrap();
        }
        wire
    }

    #[test]
    fn ready_replies_leave_in_one_write_of_the_same_bytes() {
        let socket = Writes::default();
        let (outbox, metrics, tickets) = outbox(&socket, 6);
        for (i, ticket) in tickets.into_iter().enumerate() {
            ticket.answer(reply(i as u64, &metrics.frame_pool()));
        }
        outbox.flush();
        assert_eq!(socket.count(), 1);
        assert_eq!(socket.bytes(), frames(0..6));
        let wire = metrics.snapshot().wire;
        assert_eq!((wire.frames_tx, wire.writes_tx), (6, 1));
        assert_eq!(wire.bytes_tx, frames(0..6).len() as u64);
    }

    #[test]
    fn the_writer_sends_what_is_ready_before_waiting_on_a_pending_reply() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 5);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        // Frames 0 and 1 reach the socket while reply 2 is still pending.
        answer(&mut tickets, 0, &metrics);
        answer(&mut tickets, 1, &metrics);
        assert_eq!(socket.bytes(), frames(0..2));
        answer(&mut tickets, 3, &metrics);
        answer(&mut tickets, 4, &metrics);
        assert_eq!(socket.bytes(), frames(0..2), "3 and 4 wait behind 2");
        answer(&mut tickets, 2, &metrics);
        assert_eq!(socket.bytes(), frames(0..5));
        assert_eq!(socket.count(), 3, "frames 2..5 were ready together");
    }

    #[test]
    fn replies_deposited_out_of_order_leave_in_order_in_one_write() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 4);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        for i in [3, 1, 2] {
            answer(&mut tickets, i, &metrics);
            assert_eq!(socket.count(), 0, "the head is still pending");
        }
        answer(&mut tickets, 0, &metrics);
        assert_eq!(socket.count(), 1);
        assert_eq!(socket.bytes(), frames(0..4));
    }

    #[test]
    fn a_dropped_ticket_answers_internal_in_its_slot() {
        let socket = Writes::default();
        let (_outbox, metrics, tickets) = outbox(&socket, 3);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        answer(&mut tickets, 0, &metrics);
        drop(tickets[1].take());
        answer(&mut tickets, 2, &metrics);
        let mut expected = frames(0..1);
        let mut payload = BytesMut::new();
        Response::error(ErrorCode::Internal, "worker dropped the request")
            .encode_into(&mut payload);
        write_frame_vectored(&mut expected, payload.as_slice()).unwrap();
        expected.extend(frames(2..3));
        assert_eq!(socket.bytes(), expected);
    }

    #[test]
    fn a_send_that_would_block_is_finished_by_the_stall_flusher() {
        let socket = Writes {
            stalled: true,
            ..Writes::default()
        };
        let (outbox, metrics, tickets) = outbox(&socket, 3);
        let mut tickets: Vec<Option<Ticket>> = tickets.into_iter().map(Some).collect();
        answer(&mut tickets, 0, &metrics);
        answer(&mut tickets, 1, &metrics);
        answer(&mut tickets, 2, &metrics);
        // `close` waits for every reserved slot, then joins the flusher.
        outbox.close();
        assert_eq!(socket.bytes(), frames(0..3));
        let wire = metrics.snapshot().wire;
        assert_eq!(wire.frames_tx, 3);
        assert!(wire.writes_tx <= wire.frames_tx);
    }

    #[test]
    fn the_reader_waits_at_the_pipeline_depth() {
        let socket = Writes::default();
        let metrics = Arc::new(ServingMetrics::new());
        let outbox = Outbox::new(Box::new(socket.clone()), Arc::clone(&metrics), 2);
        let first = outbox.reserve().unwrap();
        let _second = outbox.reserve().unwrap();
        let third = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.reserve().unwrap().seq())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!third.is_finished(), "two replies are outstanding");
        first
            .answer(reply(0, &metrics.frame_pool()))
            .unwrap()
            .flush();
        assert_eq!(third.join().unwrap(), 2);
    }
}
