//! The benchmark's span recorder: an in-memory `dpaudit_obs` sink.
//!
//! The benchmark times its own calls into each layer and records them here
//! directly. While a rebuilt trial runs, the recorder is also installed as
//! the process's obs sink, so the spans the program already emits inside a
//! DPSGD step (`dpsgd.clip`, `dpsgd.noise`, `dpsgd.update`, ...) land on the
//! same clock, in the same list. Spans stay in memory until the run ends
//! and are written out as an obs JSONL trace; parents are recovered from
//! nesting in time on each thread, as the obs Chrome export does.

use crate::stats::median;
use dpaudit_obs::{Event, ObsHeader, Sink, TraceLine};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span; times are nanoseconds since the recorder started.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub tid: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// Every event recorded so far, as obs trace lines.
pub struct Recorder {
    epoch: Instant,
    lines: Mutex<Vec<TraceLine>>,
}

/// Small per-process ordinal of the calling thread (0 = the first to
/// record), as obs trace lines carry.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            lines: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn push(&self, ts_nanos: u64, event: Event) {
        let line = TraceLine {
            ts_nanos,
            tid: thread_ordinal(),
            job: None,
            worker: None,
            lease: None,
            event,
        };
        self.lines
            .lock()
            .expect("no recording thread panics")
            .push(line);
    }

    /// Record a span whose interval is already known.
    pub fn span(&self, name: &str, start: u64, end: u64) {
        let event = Event::SpanEnd {
            name: name.to_string(),
            nanos: end - start,
        };
        self.push(end, event);
    }

    /// Run `f` inside a span.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.span(name, start, self.now());
        out
    }

    /// Every span recorded, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        let lines = self.lines.lock().expect("no recording thread panics");
        lines.iter().filter_map(span_of).collect()
    }

    /// The most recent span called `name`.
    pub fn last(&self, name: &str) -> Option<Span> {
        let lines = self.lines.lock().expect("no recording thread panics");
        lines
            .iter()
            .rev()
            .filter_map(span_of)
            .find(|span| span.name == name)
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Median duration in milliseconds of the spans called `name`.
    ///
    /// # Panics
    /// Panics when no span has that name.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.millis(name))
    }

    /// Write every event as an obs JSONL trace (`dpaudit trace export`
    /// reads it).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", serde_json::to_value(&ObsHeader::current()))?;
        for line in self
            .lines
            .lock()
            .expect("no recording thread panics")
            .iter()
        {
            writeln!(out, "{}", serde_json::to_value(line))?;
        }
        out.flush()
    }
}

/// The span a trace line completes, if it completes one.
fn span_of(line: &TraceLine) -> Option<Span> {
    match &line.event {
        Event::SpanEnd { name, nanos } => Some(Span {
            name: name.clone(),
            start: line.ts_nanos.saturating_sub(*nanos),
            end: line.ts_nanos,
            tid: line.tid,
        }),
        _ => None,
    }
}

impl Sink for Recorder {
    fn record(&self, event: &Event) {
        self.push(self.now(), event.clone());
    }
}

/// Each span's self time: its duration minus the time its children cover.
/// A span's parent is the innermost span of the same thread whose interval
/// holds it.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outermost first: by thread, earlier start, then later end.
    order.sort_by(|&a, &b| {
        let (a, b) = (&spans[a], &spans[b]);
        (a.tid, a.start, b.end).cmp(&(b.tid, b.start, a.end))
    });
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let span = &spans[i];
        while open
            .last()
            .is_some_and(|&p| spans[p].tid != span.tid || spans[p].end <= span.start)
        {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(span.nanos());
        }
        open.push(i);
    }
    own
}

/// Count, total and self milliseconds per span name, largest self time
/// first.
pub fn summary(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let own = self_nanos(spans);
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(own) {
        let i = match rows.iter().position(|r| r.0 == span.name) {
            Some(i) => i,
            None => {
                rows.push((span.name.clone(), 0, 0.0, 0.0));
                rows.len() - 1
            }
        };
        rows[i].1 += 1;
        rows[i].2 += span.nanos() as f64 / 1e6;
        rows[i].3 += own as f64 / 1e6;
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_on_the_same_thread() {
        let r = Recorder::new();
        r.span("a", 0, 100);
        r.span("b", 10, 40);
        r.span("c", 50, 90);
        r.span("d", 60, 70);
        // A span of another thread inside "a"'s interval is not its child.
        std::thread::scope(|s| {
            s.spawn(|| r.span("e", 20, 30));
        });
        let spans = r.spans();
        assert_eq!(self_nanos(&spans), vec![30, 30, 30, 10, 10]);
        let rows = summary(&spans);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, "a");
        assert_eq!(r.last("c").map(|s| s.start), Some(50));
        assert_eq!(r.millis("d"), vec![10e-6]);
    }
}
