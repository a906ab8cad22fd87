//! In-memory spans around every layer call the benchmark makes.
//!
//! A span records its name, start and end (ns since the tracer was
//! made), the span that caused it, the run it belongs to, the bytes
//! allocated while it was open and an optional work count (elements
//! reduced, hops simulated). Spans stay in memory and are written out
//! once, when the benchmark ends. A disabled tracer records nothing
//! and only calls the wrapped closure.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::alloc::allocated_bytes;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub alloc_bytes: u64,
    pub work: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// The innermost open span on this thread: `(id, run)`.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// Span recorder shared by every worker thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Restores the thread's current span when a span closes, also when
/// the wrapped call panics.
struct Restore(Option<(u64, u64)>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a root span for run `run`; spans opened inside `f` on this
    /// thread become its descendants and carry the same run id.
    pub fn root<T>(&self, name: &'static str, run: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(run), || (f(), 0))
    }

    /// Wrap one layer call in a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, || (f(), 0))
    }

    /// [`Tracer::span`] for a call that reports a work count.
    pub fn span_work<T>(&self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        self.record(name, None, f)
    }

    fn record<T>(&self, name: &'static str, run: Option<u64>, f: impl FnOnce() -> (T, u64)) -> T {
        if !self.enabled {
            return f().0;
        }
        let outer = CURRENT.with(Cell::get);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = run.or(outer.map(|(_, r)| r)).unwrap_or(0);
        CURRENT.with(|c| c.set(Some((id, run))));
        let _restore = Restore(outer);
        let alloc0 = allocated_bytes();
        let start = Instant::now();
        let (out, work) = f();
        let end = Instant::now();
        let alloc_bytes = allocated_bytes() - alloc0;
        let span = Span {
            id,
            parent: outer.map(|(p, _)| p),
            run,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            alloc_bytes,
            work,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"alloc_bytes\":{},\"work\":{}}}",
                s.id, parent, s.run, s.name, s.start_ns, s.end_ns, s.alloc_bytes, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_root_and_share_its_run() {
        let tr = Tracer::new(true);
        tr.root("run", 7, || {
            tr.span("outer", || tr.span("inner", || ()));
        });
        let spans = tr.spans();
        let by = |n: &str| {
            spans
                .iter()
                .find(|s| s.name == n)
                .expect("span recorded")
                .clone()
        };
        let (run, outer, inner) = (by("run"), by("outer"), by("inner"));
        assert_eq!(run.parent, None);
        assert_eq!(outer.parent, Some(run.id));
        assert_eq!(inner.parent, Some(outer.id));
        assert!(spans.iter().all(|s| s.run == 7));
        assert!(run.start_ns <= outer.start_ns && outer.end_ns <= run.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", || 3), 3);
        assert!(tr.spans().is_empty());
    }
}
