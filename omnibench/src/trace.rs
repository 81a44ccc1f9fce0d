//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded around the benchmark's calls into the program (never
//! inside it), kept in memory and written out as JSON lines when the run
//! ends. Each span has an id, a parent (0 for none), the id of the request
//! it serves (0 for none), a name, and start/end on the process clock.
//! A request's own span has the id [`request_span`]`(req)`, so spans that
//! other threads record for the same request can name it as their parent
//! without any coordination.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

/// Turn recording on for the rest of the process.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

pub fn on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Process clock, nanoseconds (the program's own monotonic anchor).
pub fn now_ns() -> u64 {
    om_obs::clock::now_ns()
}

/// The span id of request `req`'s end-to-end span.
pub fn request_span(req: u64) -> u64 {
    (1 << 63) | req
}

/// A fresh span id, for a parent span that is recorded after its children.
pub fn next_id() -> u64 {
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Record a finished span (if recording is on); returns its id.
pub fn record(name: &'static str, parent: u64, req: u64, start_ns: u64, end_ns: u64) -> u64 {
    record_with_id(next_id(), name, parent, req, start_ns, end_ns)
}

/// [`record`] under a caller-chosen id (request spans).
pub fn record_with_id(
    id: u64,
    name: &'static str,
    parent: u64,
    req: u64,
    start_ns: u64,
    end_ns: u64,
) -> u64 {
    if on() {
        let rec = SpanRec { id, parent, req, name, start_ns, end_ns };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
    }
    id
}

/// Run `f` inside a span named `name` under `parent`. Returns `f`'s value
/// and the span's duration in milliseconds (measured whether or not
/// recording is on).
pub fn timed<T>(name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now_ns();
    let out = f();
    let t1 = now_ns();
    record(name, parent, 0, t0, t1);
    (out, Duration::from_nanos(t1 - t0).as_secs_f64() * 1e3)
}

/// Every span recorded so far, in recording order.
pub fn snapshot() -> Vec<SpanRec> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Self time of `span`: its duration minus the part of its interval that
/// `children` cover (overlapping children are merged first).
pub fn self_ms(span: &SpanRec, children: &[&SpanRec]) -> f64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e6
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write as _;
    let spans = snapshot();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> SpanRec {
        SpanRec { id: 0, parent: 0, req: 0, name: "t", start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span(0, 10_000_000);
        let a = span(1_000_000, 3_000_000);
        let b = span(2_000_000, 4_000_000);
        let c = span(9_000_000, 12_000_000);
        // Children cover [1,4) and [9,10) ms of the parent's 10 ms.
        assert!((self_ms(&parent, &[&a, &b, &c]) - 6.0).abs() < 1e-9);
        assert!((self_ms(&parent, &[]) - 10.0).abs() < 1e-9);
    }
}
