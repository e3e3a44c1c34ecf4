//! The append-only JSONL event sink, mirroring the trial-store format:
//! one header line, then one JSON object per recorded [`Event`], wrapped
//! in a [`TraceLine`] carrying the capture timestamp and worker thread.
//!
//! ```text
//! {"schema_version":3,"kind":"dpaudit-obs-trace"}                       ← header
//! {"ts_nanos":1201,"tid":1,"job":"smoke","worker":"w1","lease":4,"event":{"Counter":{"name":"dpsgd.steps","delta":1}}}
//! {"ts_nanos":9324,"tid":2,"job":null,"worker":null,"lease":null,"event":{"SpanEnd":{"name":"trial","nanos":8123}}}
//! ```
//!
//! Timestamps are nanoseconds of monotonic time since the sink was
//! created; thread ids are small per-process ordinals (0 = the first
//! thread to record). Both exist purely so the trace can be replayed onto
//! a timeline (`dpaudit trace export`); deterministic folds ignore
//! them.
//!
//! Like the trial store, [`read_events`] / [`read_trace_lines`] tolerate a
//! truncated *final* line (a crash mid-append) by dropping it; an
//! unparsable line anywhere else is corruption and an error.

use crate::event::Event;
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Trace file format version; bump on incompatible line-format changes.
/// Version 2 wrapped each event in a [`TraceLine`] with `ts_nanos`/`tid`;
/// version 3 added the optional `job`/`worker`/`lease` correlation fields
/// (absent keys parse as `None`, so v2 files stay readable — see
/// [`MIN_SCHEMA_VERSION`]).
pub const SCHEMA_VERSION: u64 = 3;

/// Oldest trace version this build still reads. Version 2 lines are a
/// strict subset of version 3 (no correlation fields), so the v3 reader
/// accepts both; version 1 (bare events, no `TraceLine` wrapper) would
/// misparse and is refused.
pub const MIN_SCHEMA_VERSION: u64 = 2;

/// Discriminator string stored in the header's `kind` field.
pub const TRACE_KIND: &str = "dpaudit-obs-trace";

/// The first line of every trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsHeader {
    /// Trace format version; see [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Always [`TRACE_KIND`]; distinguishes traces from trial stores.
    pub kind: String,
}

impl ObsHeader {
    /// The header this build writes.
    pub fn current() -> Self {
        ObsHeader {
            schema_version: SCHEMA_VERSION,
            kind: TRACE_KIND.to_string(),
        }
    }
}

/// One trace file line: an [`Event`] plus where and when it was captured,
/// and (since schema v3) the fabric correlation context active at capture
/// time — which job, worker, and lease the recording process was serving.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLine {
    /// Monotonic nanoseconds since the sink was created.
    pub ts_nanos: u64,
    /// Small per-process ordinal of the recording thread (0-based).
    pub tid: u64,
    /// Job id from the ambient [`crate::TraceContext`], if any.
    #[serde(default)]
    pub job: Option<String>,
    /// Worker id from the ambient [`crate::TraceContext`], if any.
    #[serde(default)]
    pub worker: Option<String>,
    /// Lease id from the ambient [`crate::TraceContext`], if any.
    #[serde(default)]
    pub lease: Option<u64>,
    /// The recorded event itself.
    pub event: Event,
}

/// Small, stable per-process ordinal for the calling thread. Ordinals are
/// assigned on first use, so a trace's thread ids are dense and start at 0
/// regardless of what the OS calls the threads.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// A [`Sink`] appending every event as one JSON line. Writes are buffered;
/// call [`Sink::flush`] (the engine does, at run end) to push them out.
/// Unlike the trial store there is no per-line fsync — a trace is
/// diagnostic, not the source of truth, and a torn tail is recoverable.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    /// Zero point for every line's `ts_nanos`.
    epoch: Instant,
}

impl JsonlSink {
    /// Create a trace at `path` (truncating any existing file) and write
    /// the header line.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        writeln!(writer, "{}", serde_json::to_value(&ObsHeader::current()))?;
        Ok(JsonlSink {
            writer: Mutex::new(writer),
            epoch: Instant::now(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufWriter<File>> {
        self.writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let context = crate::context::current_context();
        let line = TraceLine {
            ts_nanos: self.epoch.elapsed().as_nanos() as u64,
            tid: thread_ordinal(),
            job: context.job,
            worker: context.worker,
            lease: context.lease,
            event: event.clone(),
        };
        // Serialise outside the lock; hold it only for the single write so
        // concurrent workers never interleave partial lines.
        let line = serde_json::to_value(&line).to_string();
        let _ = writeln!(self.lock(), "{line}");
    }

    fn flush(&self) -> std::io::Result<()> {
        self.lock().flush()
    }
}

/// Read a trace file back: header plus every parsable [`TraceLine`].
///
/// A final line that fails to parse is treated as a crash-truncated tail
/// and dropped; a bad line anywhere else is an error.
///
/// # Errors
/// I/O errors, a missing/invalid header, a schema-version mismatch, or a
/// corrupt non-final line.
pub fn read_trace_lines(path: &Path) -> std::io::Result<(ObsHeader, Vec<TraceLine>)> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);

    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| bad("empty trace file".to_string()))?;
    let header: ObsHeader =
        serde_json::from_str(header_line).map_err(|e| bad(format!("invalid trace header: {e}")))?;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&header.schema_version) {
        return Err(bad(format!(
            "trace schema version {} unsupported (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})",
            header.schema_version
        )));
    }
    if header.kind != TRACE_KIND {
        return Err(bad(format!(
            "not an obs trace (kind `{}`, expected `{TRACE_KIND}`)",
            header.kind
        )));
    }

    let remaining: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut parsed = Vec::with_capacity(remaining.len());
    let last = remaining.len().saturating_sub(1);
    for (pos, (line_no, line)) in remaining.into_iter().enumerate() {
        match serde_json::from_str::<TraceLine>(line) {
            Ok(entry) => parsed.push(entry),
            // Torn tail from a crash mid-append: drop and carry on.
            Err(_) if pos == last => break,
            Err(e) => {
                return Err(bad(format!("corrupt trace line {}: {e}", line_no + 1)));
            }
        }
    }
    Ok((header, parsed))
}

/// Read a trace file back as bare events, dropping each line's capture
/// metadata. This is what metric folds consume — timestamps and thread
/// ids are irrelevant to (and excluded from) deterministic snapshots.
///
/// # Errors
/// Same as [`read_trace_lines`].
pub fn read_events(path: &Path) -> std::io::Result<(ObsHeader, Vec<Event>)> {
    let (header, lines) = read_trace_lines(path)?;
    let events = lines.into_iter().map(|l| l.event).collect();
    Ok((header, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpaudit-obs-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Counter {
                name: "a".into(),
                delta: 2,
            },
            Event::SpanEnd {
                name: "s".into(),
                nanos: 99,
            },
            Event::Observe {
                name: "h".into(),
                value: 0.5,
            },
            Event::Ledger {
                step: 1,
                local_sensitivity: 0.02,
                eps_prime: 0.4,
                eps_budget: Some(1.0),
            },
        ]
    }

    #[test]
    fn trace_round_trips() {
        let path = temp_path("round_trip.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        for event in sample_events() {
            sink.record(&event);
        }
        sink.flush().unwrap();
        let (header, events) = read_events(&path).unwrap();
        assert_eq!(header, ObsHeader::current());
        assert_eq!(events, sample_events());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_lines_carry_monotone_timestamps() {
        let path = temp_path("timestamps.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        for event in sample_events() {
            sink.record(&event);
        }
        sink.flush().unwrap();
        let (_, lines) = read_trace_lines(&path).unwrap();
        assert_eq!(lines.len(), sample_events().len());
        // One recording thread here, so timestamps are non-decreasing and
        // every line shares a tid.
        assert!(lines.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
        assert!(lines.iter().all(|l| l.tid == lines[0].tid));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let path = temp_path("torn_tail.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        for event in sample_events() {
            sink.record(&event);
        }
        sink.flush().unwrap();
        drop(sink);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"ts_nanos\":12,\"tid\":0,\"event\":{\"Counter\":{\"name\":\"torn");
        fs::write(&path, &text).unwrap();
        let (_, events) = read_events(&path).unwrap();
        assert_eq!(events, sample_events());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp_path("corrupt.jsonl");
        let header = serde_json::to_value(&ObsHeader::current()).to_string();
        let good = serde_json::to_value(&TraceLine {
            ts_nanos: 7,
            tid: 0,
            job: None,
            worker: None,
            lease: None,
            event: Event::Counter {
                name: "a".into(),
                delta: 1,
            },
        })
        .to_string();
        fs::write(&path, format!("{header}\nnot json\n{good}\n")).unwrap();
        let err = read_events(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt trace line 2"));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let path = temp_path("old_version.jsonl");
        // A well-formed v1 header (pre-TraceLine format): right kind,
        // stale version. The reader must refuse rather than misparse.
        fs::write(
            &path,
            "{\"schema_version\":1,\"kind\":\"dpaudit-obs-trace\"}\n",
        )
        .unwrap();
        let err = read_events(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("schema version 1 unsupported"),
            "{err}"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_traces_without_correlation_fields_still_read() {
        // A hand-written schema-2 file: the old TraceLine shape, no
        // job/worker/lease keys. The v3 reader must parse every line with
        // the correlation fields defaulted to None.
        let path = temp_path("legacy_v2.jsonl");
        fs::write(
            &path,
            concat!(
                "{\"schema_version\":2,\"kind\":\"dpaudit-obs-trace\"}\n",
                "{\"ts_nanos\":10,\"tid\":0,\"event\":{\"Counter\":{\"name\":\"a\",\"delta\":2}}}\n",
                "{\"ts_nanos\":20,\"tid\":0,\"event\":{\"SpanEnd\":{\"name\":\"s\",\"nanos\":99}}}\n",
            ),
        )
        .unwrap();
        let (header, lines) = read_trace_lines(&path).unwrap();
        assert_eq!(header.schema_version, 2);
        assert_eq!(lines.len(), 2);
        assert!(lines
            .iter()
            .all(|l| l.job.is_none() && l.worker.is_none() && l.lease.is_none()));
        assert_eq!(
            lines[0].event,
            Event::Counter {
                name: "a".into(),
                delta: 2
            }
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn ambient_context_is_stamped_onto_every_line() {
        let _guard = crate::context::TEST_CONTEXT_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let path = temp_path("context_stamp.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        crate::context::set_context(crate::context::TraceContext {
            job: Some("job-ctx".into()),
            worker: Some("w-ctx".into()),
            lease: None,
        });
        sink.record(&Event::Counter {
            name: "a".into(),
            delta: 1,
        });
        crate::context::set_lease(Some(9));
        sink.record(&Event::Counter {
            name: "a".into(),
            delta: 1,
        });
        crate::context::clear_context();
        sink.record(&Event::Counter {
            name: "a".into(),
            delta: 1,
        });
        sink.flush().unwrap();
        let (_, lines) = read_trace_lines(&path).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].job.as_deref(), Some("job-ctx"));
        assert_eq!(lines[0].worker.as_deref(), Some("w-ctx"));
        assert_eq!(lines[0].lease, None);
        assert_eq!(lines[1].lease, Some(9));
        assert!(lines[2].job.is_none() && lines[2].worker.is_none() && lines[2].lease.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let path = temp_path("wrong_kind.jsonl");
        fs::write(
            &path,
            "{\"schema_version\":2,\"kind\":\"dpaudit-trial-store\"}\n",
        )
        .unwrap();
        let err = read_events(&path).unwrap_err();
        assert!(err.to_string().contains("not an obs trace"), "{err}");
        fs::remove_file(&path).ok();
    }
}
