//! In-memory spans, written out once when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; spans inside the product are a
//! later issue. A span is `name, start, end, parent, request id`; spans of
//! one request share the request id and name their parent by span id
//! (0 = root).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Ids are made unique across buffers by the
/// `lane` the buffer was created with (client 0, client 1, replay).
pub struct Tracer {
    origin: Instant,
    lane: u32,
    next: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, lane: u32) -> Tracer {
        Tracer {
            origin,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id (for children to name).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.next += 1;
        let id = (self.lane << 28) | self.next;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a span under `parent` and return `(result, nanoseconds)`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.record(name, request, parent, start, end);
        (out, end - start)
    }
}

/// Write every buffer's spans as one JSON object per line.
pub fn write_spans<W: Write>(out: &mut W, tracers: &[&Tracer]) -> std::io::Result<usize> {
    let mut written = 0usize;
    for tracer in tracers {
        for s in &tracer.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
            written += 1;
        }
    }
    Ok(written)
}

pub fn write_jsonl(path: &Path, tracers: &[&Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = write_spans(&mut out, tracers)?;
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_id_and_round_trip_to_jsonl() {
        let mut t = Tracer::new(Instant::now(), 2);
        let root_start = t.now_ns();
        let (value, nanos) = t.time("child", 7, 0, || 41 + 1);
        assert_eq!(value, 42);
        let root = t.record("root", 7, 0, root_start, t.now_ns());
        assert_eq!(t.spans.len(), 2);
        assert_ne!(t.spans[0].id, root);
        assert_eq!(t.spans[0].end_ns - t.spans[0].start_ns, nanos);
        assert_eq!(root >> 28, 2, "lane is the id's high bits");

        let mut bytes = Vec::new();
        assert_eq!(write_spans(&mut bytes, &[&t]).unwrap(), 2);
        for line in std::str::from_utf8(&bytes).unwrap().lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v.get("request").and_then(|r| r.as_u64()), Some(7));
        }
    }
}
