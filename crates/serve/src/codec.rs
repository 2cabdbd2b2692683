//! The shared byte-level codec under the wire protocol: one set of
//! primitives for everything that encodes or decodes length-prefixed
//! binary structures — [`Request`]/[`Response`] payloads (via
//! [`Reader`]), CRC-guarded durable blocks (`fstore_durable` re-exports
//! the [`crc_block`] helpers), pooled frame buffers ([`FramePool`]),
//! vectored frame writes ([`write_frame_vectored`]), and the
//! per-connection [`FrameReader`] that carries partial frames across
//! socket reads without a per-frame allocation.
//!
//! [`Request`]: crate::protocol::Request
//! [`Response`]: crate::protocol::Response
//! [`crc_block`]: self::crc_block

use bytes::{BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Hard ceiling on a frame payload (16 MiB).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Decode-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before the structure was complete.
    Truncated,
    /// Structure complete but bytes were left over.
    TrailingBytes(usize),
    /// Unknown discriminant for the named type.
    BadTag { ty: &'static str, tag: u8 },
    /// A declared length exceeds the frame ceiling.
    Oversized(usize),
    /// String field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-structure"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after structure"),
            WireError::BadTag { ty, tag } => write!(f, "unknown {ty} tag {tag}"),
            WireError::Oversized(n) => write!(f, "declared length {n} exceeds frame ceiling"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------- decoding

/// A bounds-checked decode cursor over one frame payload. All integers
/// are big-endian; every failure is a typed [`WireError`], never a panic.
///
/// Constructed [`shared`](Reader::shared) over a [`Bytes`] frame, blob
/// fields ([`take_blob`](Reader::take_blob)) come back as zero-copy
/// slices of that frame; constructed [`new`](Reader::new) over a plain
/// slice they are copied out once.
pub struct Reader<'a> {
    full: &'a [u8],
    pos: usize,
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// A cursor over a borrowed payload slice.
    pub fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader {
            full: payload,
            pos: 0,
            shared: None,
        }
    }

    /// A cursor over a shared frame: blob fields alias the frame's
    /// storage instead of copying.
    pub fn shared(frame: &'a Bytes) -> Reader<'a> {
        Reader {
            full: frame.as_slice(),
            pos: 0,
            shared: Some(frame),
        }
    }

    pub fn remaining(&self) -> usize {
        self.full.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.remaining() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        let at = self.pos;
        self.pos += n;
        Ok(&self.full[at..at + n])
    }

    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.take_u64()? as i64)
    }

    pub fn take_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// A `u32` length that must still be plausible within one frame.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let n = self.take_u32()? as usize;
        if n > MAX_FRAME_LEN {
            return Err(WireError::Oversized(n));
        }
        Ok(n)
    }

    pub fn take_str(&mut self) -> Result<String, WireError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    pub fn take_str_seq(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.take_len()?;
        let mut items = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            items.push(self.take_str()?);
        }
        Ok(items)
    }

    pub fn take_f32_seq(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.take_len()?;
        let mut items = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            items.push(self.take_f32()?);
        }
        Ok(items)
    }

    /// A `u32`-length-prefixed opaque byte blob. Zero-copy (a refcount
    /// bump) when the cursor was built over a shared frame.
    pub fn take_blob(&mut self) -> Result<Bytes, WireError> {
        let len = self.take_len()?;
        self.need(len)?;
        let at = self.pos;
        self.pos += len;
        Ok(match self.shared {
            Some(frame) => frame.slice(at..at + len),
            None => Bytes::copy_from_slice(&self.full[at..at + len]),
        })
    }

    /// The payload must be consumed exactly; trailing bytes are an error
    /// so a round-trip is byte-identical.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

// ---------------------------------------------------------------- encoding

/// `u32` length prefix, then the UTF-8 bytes.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// `u32` count, then each string via [`put_str`].
pub fn put_str_seq(buf: &mut BytesMut, items: &[String]) {
    buf.put_u32(items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

// ----------------------------------------------------------------- framing

/// Append one frame to `buf`: reserve the `u32` big-endian length,
/// let `encode` write the payload, then backfill the length. The payload
/// is serialized exactly once, straight into the wire buffer, so a
/// pipelined burst of frames goes out with one write.
pub fn put_frame(buf: &mut BytesMut, encode: impl FnOnce(&mut BytesMut)) {
    let at = buf.len();
    buf.put_u32(0);
    encode(buf);
    let len = buf.len() - at - 4;
    assert!(len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    buf.as_mut_slice()[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
}

/// Write `payload` as one frame — `u32` big-endian length, then bytes —
/// with a single vectored syscall in the common case, so the payload is
/// never copied into a contiguous header+body staging buffer.
pub fn write_frame_vectored<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame exceeds MAX_FRAME_LEN"
    );
    let header = (payload.len() as u32).to_be_bytes();
    let total = header.len() + payload.len();
    let mut written = 0usize;
    while written < total {
        let result = if written < header.len() {
            let bufs = [IoSlice::new(&header[written..]), IoSlice::new(payload)];
            w.write_vectored(&bufs)
        } else {
            w.write(&payload[written - header.len()..])
        };
        match result {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket refused frame bytes",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Outcome of a [`FrameReader::read_frame`] call. The `Frame` payload
/// borrows the reader's buffer — decode it before the next read.
#[derive(Debug)]
pub enum FrameEvent<'a> {
    /// A complete frame payload, valid until the next `read_frame`.
    Frame(&'a [u8]),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The declared length exceeds the caller's ceiling; nothing past the
    /// prefix was consumed, so the caller can still write a typed refusal
    /// before closing.
    TooLarge { declared: usize },
    /// The peer started a frame but did not deliver the rest within the
    /// budget (slow-loris, stall, or mid-frame death by firewall).
    TimedOut,
}

/// Outcome of a [`FrameReader::read_frame_owned`] call: like
/// [`FrameEvent`] but the payload owns its storage, so large frames can
/// be decoded zero-copy via [`Reader::shared`] and kept past the next
/// read without ballooning the connection's reusable buffer.
#[derive(Debug)]
pub enum OwnedFrameEvent {
    Frame(Bytes),
    Eof,
    TooLarge { declared: usize },
    TimedOut,
}

enum Fill {
    Got,
    Eof,
    TimedOut,
}

/// A per-connection frame reader: one reusable buffer that carries
/// partial frames across socket reads. At steady state a connection
/// performs **zero** per-frame allocations on the read path — the buffer
/// grows to the connection's working frame size once and is reused; each
/// growth is counted so metrics can prove it.
///
/// Timeout semantics match the two-phase contract the server has always
/// had: waiting for the *first byte* of a frame honours `idle_timeout`
/// (`None` blocks forever — an idle keep-alive connection is not a
/// fault), but once a frame has started the rest must arrive within
/// `frame_timeout`, enforced as a hard deadline via `set_read_timeout`.
/// The reader remembers the timeout it last applied and skips the
/// `setsockopt` when the next read wants the same one — which is every
/// read of a connection whose frames arrive whole.
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    allocs: u64,
    bytes_rx: u64,
    /// The socket's current `SO_RCVTIMEO` as set by this reader (`None` =
    /// not set yet). Nothing else may change the socket's read timeout.
    applied_timeout: Option<Option<Duration>>,
}

/// Time left until `deadline` for the next socket read (`Some(None)` =
/// unbounded), or `None` once it has lapsed.
fn time_left(deadline: Option<Instant>) -> Option<Option<Duration>> {
    match deadline {
        None => Some(None),
        Some(d) => d.checked_duration_since(Instant::now()).map(Some),
    }
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            end: 0,
            allocs: 0,
            bytes_rx: 0,
            applied_timeout: None,
        }
    }

    /// Unparsed bytes currently buffered (already read off the socket).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Drain the count of buffer allocations/growths since the last call.
    pub fn take_allocs(&mut self) -> u64 {
        std::mem::take(&mut self.allocs)
    }

    /// Drain the count of bytes read off the socket since the last call.
    pub fn take_bytes_rx(&mut self) -> u64 {
        std::mem::take(&mut self.bytes_rx)
    }

    /// Make sure the buffer can hold `needed` bytes measured from
    /// `start`, compacting (one memmove per frame, amortized) before
    /// growing (counted).
    fn ensure_room(&mut self, needed: usize) {
        if self.buf.len() - self.start >= needed && self.end < self.buf.len() {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < needed || self.end == self.buf.len() {
            let target = needed.max(self.buf.len() * 2).max(4 * 1024);
            let before = self.buf.capacity();
            self.buf.resize(target, 0);
            if self.buf.capacity() > before {
                self.allocs += 1;
            }
        }
    }

    /// Bound the socket's next read by `timeout`, skipping the syscall
    /// when that bound is already in force.
    fn apply_timeout(
        &mut self,
        socket: &TcpStream,
        timeout: Option<Duration>,
    ) -> std::io::Result<()> {
        // set_read_timeout(Some(0)) is an error; clamp to 1 ms.
        let timeout = timeout.map(|t| t.max(Duration::from_millis(1)));
        if self.applied_timeout != Some(timeout) {
            socket.set_read_timeout(timeout)?;
            self.applied_timeout = Some(timeout);
        }
        Ok(())
    }

    /// One socket read into spare room, giving up after `timeout`.
    fn fill(&mut self, socket: &TcpStream, timeout: Option<Duration>) -> std::io::Result<Fill> {
        self.apply_timeout(socket, timeout)?;
        loop {
            match (&mut (&*socket)).read(&mut self.buf[self.end..]) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.end += n;
                    self.bytes_rx += n as u64;
                    return Ok(Fill::Got);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Fill::TimedOut)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Block (up to `idle_timeout`) until at least one byte of the next
    /// frame is buffered. `Ok(Some(event))` short-circuits the caller.
    fn await_first_byte(
        &mut self,
        socket: &TcpStream,
        idle_timeout: Option<Duration>,
    ) -> std::io::Result<Option<Fill>> {
        if self.buffered() > 0 {
            return Ok(None);
        }
        self.start = 0;
        self.end = 0;
        self.ensure_room(4 * 1024);
        // The idle phase is exactly one read, so its bound is the timeout
        // itself — the same value every time, hence no syscall.
        Ok(Some(self.fill(socket, idle_timeout)?))
    }

    /// Read one frame. `socket` must be the same fd this reader always
    /// reads (its `SO_RCVTIMEO` is adjusted to enforce the deadlines).
    pub fn read_frame(
        &mut self,
        socket: &TcpStream,
        max_len: usize,
        idle_timeout: Option<Duration>,
        frame_timeout: Option<Duration>,
    ) -> std::io::Result<FrameEvent<'_>> {
        match self.await_first_byte(socket, idle_timeout)? {
            Some(Fill::Eof) => return Ok(FrameEvent::Eof),
            Some(Fill::TimedOut) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "timed out waiting for a frame",
                ))
            }
            Some(Fill::Got) | None => {}
        }
        let deadline = frame_timeout.map(|t| Instant::now() + t);
        let (at, len) = loop {
            if self.buffered() >= 4 {
                let h = &self.buf[self.start..self.start + 4];
                let len = u32::from_be_bytes(h.try_into().unwrap()) as usize;
                if len > max_len.min(MAX_FRAME_LEN) {
                    return Ok(FrameEvent::TooLarge { declared: len });
                }
                if self.buffered() >= 4 + len {
                    let at = self.start + 4;
                    self.start += 4 + len;
                    break (at, len);
                }
                self.ensure_room(4 + len);
            } else {
                self.ensure_room(4 * 1024);
            }
            let Some(timeout) = time_left(deadline) else {
                return Ok(FrameEvent::TimedOut);
            };
            match self.fill(socket, timeout)? {
                Fill::Got => {}
                Fill::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Fill::TimedOut => return Ok(FrameEvent::TimedOut),
            }
        };
        Ok(FrameEvent::Frame(&self.buf[at..at + len]))
    }

    /// Read one frame into owned storage: exactly one allocation sized to
    /// the payload, filled straight off the socket. For big transfers
    /// (snapshot bootstrap) this replaces frame-vec-plus-payload-copy
    /// with one buffer that blob fields then slice zero-copy.
    pub fn read_frame_owned(
        &mut self,
        socket: &TcpStream,
        max_len: usize,
        idle_timeout: Option<Duration>,
        frame_timeout: Option<Duration>,
    ) -> std::io::Result<OwnedFrameEvent> {
        match self.await_first_byte(socket, idle_timeout)? {
            Some(Fill::Eof) => return Ok(OwnedFrameEvent::Eof),
            Some(Fill::TimedOut) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "timed out waiting for a frame",
                ))
            }
            Some(Fill::Got) | None => {}
        }
        let deadline = frame_timeout.map(|t| Instant::now() + t);
        while self.buffered() < 4 {
            self.ensure_room(4 * 1024);
            let Some(timeout) = time_left(deadline) else {
                return Ok(OwnedFrameEvent::TimedOut);
            };
            match self.fill(socket, timeout)? {
                Fill::Got => {}
                Fill::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Fill::TimedOut => return Ok(OwnedFrameEvent::TimedOut),
            }
        }
        let h = &self.buf[self.start..self.start + 4];
        let len = u32::from_be_bytes(h.try_into().unwrap()) as usize;
        if len > max_len.min(MAX_FRAME_LEN) {
            return Ok(OwnedFrameEvent::TooLarge { declared: len });
        }
        self.start += 4;
        let mut payload = vec![0u8; len];
        self.allocs += 1;
        // Move whatever payload bytes are already buffered.
        let have = self.buffered().min(len);
        payload[..have].copy_from_slice(&self.buf[self.start..self.start + have]);
        self.start += have;
        // Read the rest straight into the owned buffer, deadline-bounded.
        let mut filled = have;
        while filled < len {
            let Some(timeout) = time_left(deadline) else {
                return Ok(OwnedFrameEvent::TimedOut);
            };
            self.apply_timeout(socket, timeout)?;
            match (&mut (&*socket)).read(&mut payload[filled..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Ok(n) => {
                    filled += n;
                    self.bytes_rx += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(OwnedFrameEvent::TimedOut)
                }
                Err(e) => return Err(e),
            }
        }
        Ok(OwnedFrameEvent::Frame(Bytes::from(payload)))
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

// ------------------------------------------------------------ frame pool

/// A free-list of reusable [`BytesMut`] encode buffers. A worker takes a
/// buffer and encodes a feature read into it; whoever sends the reply
/// copies it into the connection's send run and returns it — at steady
/// state the pool absorbs every per-response payload allocation.
///
/// Bounded two ways: at most `max_pooled` buffers are retained, and a
/// buffer that ballooned past `max_retained_capacity` (one huge snapshot
/// response) is dropped rather than pinned in memory forever.
#[derive(Debug)]
pub struct FramePool {
    free: Mutex<Vec<BytesMut>>,
    max_pooled: usize,
    max_retained_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FramePool {
    pub fn new(max_pooled: usize, max_retained_capacity: usize) -> FramePool {
        FramePool {
            free: Mutex::new(Vec::with_capacity(max_pooled.min(64))),
            max_pooled,
            max_retained_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cleared buffer, reused when the free list has one.
    pub fn get(&self) -> BytesMut {
        if let Some(buf) = self.free.lock().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        BytesMut::with_capacity(4 * 1024)
    }

    /// Return a buffer for reuse; oversize or surplus buffers are dropped.
    pub fn put(&self, mut buf: BytesMut) {
        if buf.capacity() > self.max_retained_capacity {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Default for FramePool {
    fn default() -> Self {
        // 256 buffers × 1 MiB retained ceiling: plenty for a busy server,
        // bounded at 256 MiB worst case (reached only if 256 writers all
        // pin megabyte responses simultaneously).
        FramePool::new(256, 1024 * 1024)
    }
}

// -------------------------------------------------------------- crc block

/// CRC-guarded binary blocks: the `magic | crc32 u32 LE | body` envelope
/// every durable artifact (snapshot cache, checkpoint blobs) shares.
pub mod crc_block {
    use fstore_common::crc32;

    /// Why a block failed to decode.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum BlockError {
        /// Too short for the envelope, or the magic did not match.
        BadMagic,
        /// Stored vs computed checksum.
        CrcMismatch { stored: u32, computed: u32 },
    }

    impl std::fmt::Display for BlockError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                BlockError::BadMagic => write!(f, "bad magic"),
                BlockError::CrcMismatch { stored, computed } => write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            }
        }
    }

    impl std::error::Error for BlockError {}

    /// Wrap `body` in the envelope: `magic | crc32(body) LE | body`.
    pub fn encode(magic: &[u8; 4], body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(magic);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// Verify the envelope and return the body slice.
    pub fn decode<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Result<&'a [u8], BlockError> {
        if bytes.len() < 8 || &bytes[..4] != magic {
            return Err(BlockError::BadMagic);
        }
        let stored = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let body = &bytes[8..];
        let computed = crc32(body);
        if computed != stored {
            return Err(BlockError::CrcMismatch { stored, computed });
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_primitives_round_trip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(42);
        buf.put_u64(u64::MAX);
        buf.put_i64(-5);
        buf.put_f32(1.5);
        buf.put_f64(-2.25);
        put_str(&mut buf, "héllo");
        put_str_seq(&mut buf, &["a".to_string(), String::new()]);
        let mut r = Reader::new(buf.as_slice());
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 42);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i64().unwrap(), -5);
        assert_eq!(r.take_f32().unwrap(), 1.5);
        assert_eq!(r.take_f64().unwrap(), -2.25);
        assert_eq!(r.take_str().unwrap(), "héllo");
        assert_eq!(
            r.take_str_seq().unwrap(),
            vec!["a".to_string(), String::new()]
        );
        r.finish().unwrap();
    }

    #[test]
    fn reader_errors_are_typed() {
        let mut r = Reader::new(&[0, 0]);
        assert_eq!(r.take_u32(), Err(WireError::Truncated));
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert!(matches!(r.take_str(), Err(WireError::Oversized(_))));
        let mut r = Reader::new(&[0, 0, 0, 1, 0xFF]);
        assert_eq!(r.take_str(), Err(WireError::BadUtf8));
        let r = Reader::new(&[1, 2]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(2)));
    }

    #[test]
    fn shared_blob_aliases_the_frame() {
        let mut buf = BytesMut::new();
        buf.put_u32(5);
        buf.put_slice(b"abcde");
        buf.put_u8(9);
        let frame = buf.freeze();
        let mut r = Reader::shared(&frame);
        let blob = r.take_blob().unwrap();
        assert_eq!(&*blob, b"abcde");
        assert_eq!(r.take_u8().unwrap(), 9);
        r.finish().unwrap();
        // Borrowed-slice readers copy instead.
        let mut r = Reader::new(frame.as_slice());
        assert_eq!(&*r.take_blob().unwrap(), b"abcde");
    }

    #[test]
    fn vectored_frame_writes_match_the_plain_layout() {
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"hello").unwrap();
        write_frame_vectored(&mut wire, b"").unwrap();
        assert_eq!(&wire[..4], &5u32.to_be_bytes());
        assert_eq!(&wire[4..9], b"hello");
        assert_eq!(&wire[9..13], &0u32.to_be_bytes());
        assert_eq!(wire.len(), 13);
    }

    #[test]
    fn frame_pool_reuses_buffers_and_counts() {
        let pool = FramePool::new(2, 8192);
        let a = pool.get();
        let b = pool.get();
        assert_eq!(pool.misses(), 2);
        pool.put(a);
        pool.put(b);
        let mut c = pool.get();
        assert_eq!(pool.hits(), 1);
        c.put_slice(b"data");
        pool.put(c);
        let d = pool.get();
        assert!(d.is_empty(), "pooled buffers come back cleared");
        pool.put(d);
        // A ballooned buffer is dropped, not retained.
        let big = BytesMut::with_capacity(16 * 1024);
        pool.put(big);
        assert_eq!(pool.free.lock().len(), 2);
    }

    #[test]
    fn crc_block_round_trips_and_rejects_flips() {
        let block = crc_block::encode(b"TEST", b"payload");
        assert_eq!(crc_block::decode(b"TEST", &block).unwrap(), b"payload");
        assert_eq!(
            crc_block::decode(b"NOPE", &block),
            Err(crc_block::BlockError::BadMagic)
        );
        let mut bad = block.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            crc_block::decode(b"TEST", &bad),
            Err(crc_block::BlockError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn frame_reader_carries_partial_frames_across_reads() {
        // Loopback socket pair via a real listener.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        // Two frames written in three odd-sized chunks.
        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"first").unwrap();
        write_frame_vectored(&mut wire, b"second!").unwrap();
        tx.write_all(&wire[..3]).unwrap();
        tx.flush().unwrap();

        let mut reader = FrameReader::new();
        let t = std::thread::spawn(move || {
            tx.write_all(&wire[3..11]).unwrap();
            tx.write_all(&wire[11..]).unwrap();
            tx.flush().unwrap();
            tx
        });
        match reader
            .read_frame(&rx, MAX_FRAME_LEN, None, Some(Duration::from_secs(5)))
            .unwrap()
        {
            FrameEvent::Frame(p) => assert_eq!(p, b"first"),
            other => panic!("expected first frame, got {other:?}"),
        }
        match reader
            .read_frame(&rx, MAX_FRAME_LEN, None, Some(Duration::from_secs(5)))
            .unwrap()
        {
            FrameEvent::Frame(p) => assert_eq!(p, b"second!"),
            other => panic!("expected second frame, got {other:?}"),
        }
        let tx = t.join().unwrap();
        drop(tx);
        match reader.read_frame(&rx, MAX_FRAME_LEN, None, None).unwrap() {
            FrameEvent::Eof => {}
            other => panic!("expected EOF, got {other:?}"),
        }
        // Warmed up: both frames arrived through one buffer growth phase.
        assert!(reader.take_allocs() >= 1);
        assert_eq!(reader.take_allocs(), 0, "steady state allocates nothing");
    }

    #[test]
    fn frame_reader_refuses_oversized_and_times_out_midframe() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        // Oversized declared length.
        tx.write_all(&(1024u32 * 1024).to_be_bytes()).unwrap();
        let mut reader = FrameReader::new();
        match reader
            .read_frame(&rx, 1024, None, Some(Duration::from_secs(5)))
            .unwrap()
        {
            FrameEvent::TooLarge { declared } => assert_eq!(declared, 1024 * 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }

        // Fresh pair: a started-but-stalled frame times out.
        let mut tx2 = TcpStream::connect(addr).unwrap();
        let (rx2, _) = listener.accept().unwrap();
        tx2.write_all(&[0, 0]).unwrap(); // half a header, then silence
        tx2.flush().unwrap();
        let mut reader = FrameReader::new();
        match reader
            .read_frame(&rx2, MAX_FRAME_LEN, None, Some(Duration::from_millis(50)))
            .unwrap()
        {
            FrameEvent::TimedOut => {}
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn idle_wait_is_unbounded_again_after_a_deadline_bounded_read() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let mut wire = Vec::new();
        write_frame_vectored(&mut wire, b"split").unwrap();
        tx.write_all(&wire[..3]).unwrap();
        tx.flush().unwrap();
        // The sender finishes the first frame only after the reader has
        // had to wait for it mid-frame (a read bounded by the frame
        // deadline), then stays quiet for longer than that deadline
        // before starting the second frame.
        let frame_timeout = Duration::from_millis(60);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.write_all(&wire[3..]).unwrap();
            tx.flush().unwrap();
            std::thread::sleep(frame_timeout * 3);
            write_frame_vectored(&mut tx, b"late").unwrap();
            tx
        });
        let mut reader = FrameReader::new();
        for want in [&b"split"[..], &b"late"[..]] {
            match reader
                .read_frame(&rx, MAX_FRAME_LEN, None, Some(frame_timeout))
                .unwrap()
            {
                FrameEvent::Frame(p) => assert_eq!(p, want),
                other => panic!("expected a frame, got {other:?}"),
            }
        }
        drop(t.join().unwrap());
    }

    #[test]
    fn owned_frames_read_into_exactly_one_buffer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let send = payload.clone();
        let t = std::thread::spawn(move || {
            write_frame_vectored(&mut tx, &send).unwrap();
            tx
        });
        let mut reader = FrameReader::new();
        match reader
            .read_frame_owned(&rx, MAX_FRAME_LEN, None, Some(Duration::from_secs(5)))
            .unwrap()
        {
            OwnedFrameEvent::Frame(frame) => {
                assert_eq!(frame.len(), payload.len());
                assert_eq!(&*frame, &payload[..]);
                // Slices of the owned frame are zero-copy.
                let head = frame.slice(..10);
                assert_eq!(&*head, &payload[..10]);
            }
            other => panic!("expected owned frame, got {other:?}"),
        }
        drop(t.join().unwrap());
        // The reusable buffer never grew to the payload's size.
        assert!(reader.buf.len() < payload.len());
    }
}
