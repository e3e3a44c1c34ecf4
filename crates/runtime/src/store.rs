//! The durable trial store: an append-only JSONL file holding one header
//! record followed by one record per completed trial.
//!
//! # Format (schema version 1)
//!
//! ```text
//! {"schema_version":1,"label":"…","workload":"…",…,"settings":{…}}   ← header
//! {"idx":0,"seed":"15183382871437629134","eps_ls":1.93,"trial":{…}}  ← trial 0
//! {"idx":3,"seed":"…","eps_ls":…,"trial":{…}}                        ← trial 3
//! ```
//!
//! * One JSON object per line; the first line is always the header.
//! * Trial records may appear in **any order** in the file (workers finish
//!   out of order) and carry their trial index explicitly. The reader
//!   indexes them, and [`StoreContents::index`] is the only code that
//!   decides which record is trial `i`: one record per index; a line
//!   repeating its index's kept record byte for byte is dropped and
//!   counted; a different line for a kept index, an index outside
//!   `0..reps`, or a header whose `reps` is zero or above [`MAX_REPS`], is
//!   an `InvalidData` error.
//! * Every append is flushed and fsync'd before `append` returns, so a
//!   record is durable once the call completes.
//! * Seeds are full-width `u64`s. The vendored JSON model holds numbers as
//!   `f64` (exact only up to 2^53), so seeds are stored as decimal strings
//!   via the [`Seed`] newtype to stay lossless.
//!
//! # Crash tolerance
//!
//! A crash mid-append leaves a truncated final line. [`read_store`]
//! tolerates exactly that: an unparsable *last* line is dropped (the trial
//! it described simply re-runs on resume); an unparsable line anywhere
//! else is real corruption and an error.

use crate::aggregate::{StreamingAggregates, TrialOutcome};
use dpaudit_core::experiment::{DiTrialResult, RecordDetail, TrialSettings};
use dpaudit_core::AuditReport;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;

/// Version stamp written into every store header. Bump when the line format
/// changes incompatibly; [`read_store`] refuses mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The most trials a store header may hold: 2^20, over 1000× the paper's
/// 250–1000 repetitions. The reading rule refuses a header above it, and
/// [`crate::check_runnable`] refuses to run one, before any per-trial
/// memory is allocated.
pub const MAX_REPS: usize = 1 << 20;

/// The most DPSGD steps a header's trials may take: 2^20, over 1000× the
/// paper's k = 30. [`crate::check_runnable`] refuses to run more.
pub const MAX_STEPS: usize = 1 << 20;

/// The largest training set a header may build its world from: 2^14,
/// above the paper's largest |D| of 10 000 (Fig. 7).
/// [`crate::check_runnable`] refuses a larger one before the world is
/// built.
pub const MAX_TRAIN_SIZE: usize = 1 << 14;

/// A full-width `u64` seed, serialised as a decimal string so it survives
/// the f64-backed JSON number model losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Serialize for Seed {
    fn to_value(&self) -> Value {
        Value::String(self.0.to_string())
    }
}

impl Deserialize for Seed {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::String(s) => s
                .parse::<u64>()
                .map(Seed)
                .map_err(|_| Error::custom(format!("invalid seed string `{s}`"))),
            // Tolerate plain numbers for hand-written stores with small seeds.
            Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Ok(Seed(*n as u64))
            }
            other => Err(Error::type_mismatch("seed string", other)),
        }
    }
}

/// The first record of a trial store: everything needed to reproduce the
/// batch (and to detect that the resuming binary would not).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreHeader {
    /// Store format version; see [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Free-form description of what this batch is (e.g. `"table2/LS/Bounded/MNIST"`).
    pub label: String,
    /// Workload name understood by the caller (`"mnist"` / `"purchase"`);
    /// the runtime does not interpret it, the resuming layer rebuilds the
    /// neighbouring pair and model builder from it.
    pub workload: String,
    /// Challenger training-set size used to build the workload's world.
    pub train_size: usize,
    /// Seed the workload's world/pair was built from.
    pub world_seed: Seed,
    /// Number of trials in the batch.
    pub reps: usize,
    /// Master seed; trial `i` runs with `dpaudit_core::trial_seed(master, i)`.
    pub master_seed: Seed,
    /// The ε claim being audited (drives ρ_β bound and budget utilisation).
    pub target_epsilon: f64,
    /// The δ of the (ε, δ) claim; also used for per-trial ε′-from-LS.
    pub delta: f64,
    /// Belief threshold for empirical δ, `rho_beta(target_epsilon)`.
    pub rho_beta_bound: f64,
    /// How much of each trial is persisted.
    pub detail: RecordDetail,
    /// Full trial settings (DPSGD config + challenge protocol).
    pub settings: TrialSettings,
}

/// One completed trial, as stored on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Trial index within the batch (`0..reps`).
    pub idx: usize,
    /// The derived per-trial seed (recorded for independent re-execution).
    pub seed: Seed,
    /// ε′ from this trial's per-step local sensitivities via RDP, computed
    /// at execution time so `Summary` detail can drop the series.
    pub eps_ls: f64,
    /// The trial outcome (series-stripped when the header says `Summary`).
    pub trial: DiTrialResult,
}

impl TrialRecord {
    /// The canonical JSON line (no newline) that [`TrialStore::append`]
    /// writes, and that the reading rule and the fabric's ingest compare.
    pub fn line(&self) -> String {
        serde_json::to_value(self).to_string()
    }
}

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Append-only writer over a trial store file.
pub struct TrialStore {
    writer: BufWriter<File>,
}

impl TrialStore {
    /// Create a new store at `path` (truncating any existing file) and
    /// durably write the header.
    ///
    /// # Errors
    /// I/O errors from creation, write, or fsync.
    pub fn create(path: &Path, header: &StoreHeader) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut store = TrialStore {
            writer: BufWriter::new(file),
        };
        store.append_line(serde_json::to_value(header).to_string())?;
        Ok(store)
    }

    /// Continue the store at `path` for a known `header` (cutting a torn
    /// tail), or create it when absent; also returns what it holds.
    ///
    /// # Errors
    /// `InvalidData`, file untouched, when it was written for another
    /// header; the errors of [`read_store`].
    pub fn open(path: &Path, header: &StoreHeader) -> std::io::Result<(Self, StoreContents)> {
        if !path.exists() {
            TrialStore::create(path, header)?;
        }
        let contents = read_store(path)?;
        if contents.header != *header {
            return Err(invalid_data(format!(
                "{} was written for a different header",
                path.display()
            )));
        }
        let store = TrialStore::open_append(path, contents.keep_bytes)?;
        Ok((store, contents))
    }

    /// Open an existing store for appending (after [`read_store`] has
    /// validated it). If the file ends in a truncated partial line from a
    /// crash, the file is first cut back to `keep_bytes` (the length of the
    /// valid prefix reported by [`read_store`]).
    ///
    /// # Errors
    /// I/O errors from open or truncation.
    pub fn open_append(path: &Path, keep_bytes: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep_bytes)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(TrialStore {
            writer: BufWriter::new(file),
        })
    }

    /// Durably append one trial record: the line is written, flushed, and
    /// fsync'd before this returns.
    ///
    /// # Errors
    /// I/O errors from write or fsync.
    pub fn append(&mut self, record: &TrialRecord) -> std::io::Result<()> {
        self.append_line(record.line())
    }

    fn append_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.writer.get_ref().sync_all()
    }
}

/// A store's records, indexed: what [`read_store`] recovers from a file
/// and what the fabric's shard merge assembles.
#[derive(Debug)]
pub struct StoreContents {
    /// The validated header.
    pub header: StoreHeader,
    /// One record per trial index present, ascending by index.
    pub records: Vec<TrialRecord>,
    /// The indices in `0..reps` with no record, ascending: exactly the work
    /// a resume must run.
    pub missing: Vec<usize>,
    /// Record lines dropped as byte-for-byte repeats of a kept record.
    pub duplicates: usize,
    /// Byte length of the valid prefix. Equal to the file length unless the
    /// final line was truncated by a crash; pass to [`TrialStore::open_append`]
    /// to cut the partial line off before resuming. Zero for a shard merge.
    pub keep_bytes: u64,
}

impl StoreContents {
    /// Apply the reading rule (see the module docs) to `records`, in any
    /// order. Repeats compare as [`TrialRecord::line`]s, not as `f64`s.
    ///
    /// # Errors
    /// `InvalidData` for zero reps or reps above [`MAX_REPS`], an index
    /// outside `0..reps`, or two different records for one index (a
    /// determinism conflict).
    pub fn index(
        header: StoreHeader,
        records: impl IntoIterator<Item = TrialRecord>,
        keep_bytes: u64,
    ) -> std::io::Result<Self> {
        let reps = header.reps;
        if reps == 0 {
            return Err(invalid_data("store header has zero reps".into()));
        }
        if reps > MAX_REPS {
            return Err(invalid_data(format!(
                "store header has reps {reps}, above the bound MAX_REPS = {MAX_REPS}"
            )));
        }
        let mut by_index = BTreeMap::new();
        let mut duplicates = 0;
        for record in records {
            if record.idx >= reps {
                return Err(invalid_data(format!(
                    "trial index {} out of range 0..{reps}",
                    record.idx
                )));
            }
            match by_index.entry(record.idx) {
                Entry::Vacant(slot) => {
                    slot.insert(record);
                }
                Entry::Occupied(kept) if kept.get().line() == record.line() => duplicates += 1,
                Entry::Occupied(_) => {
                    return Err(invalid_data(format!(
                        "determinism conflict: trial {} appears with different bytes",
                        record.idx
                    )));
                }
            }
        }
        let missing = (0..reps).filter(|i| !by_index.contains_key(i)).collect();
        Ok(StoreContents {
            header,
            records: by_index.into_values().collect(),
            missing,
            duplicates,
            keep_bytes,
        })
    }

    /// Whether every trial index has a record.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// The one replay fold: the records in index order through
    /// [`StreamingAggregates`]. `Some` only when the batch is complete, and
    /// then bit-identical to the report of the run that wrote them.
    pub fn report(&self) -> Option<AuditReport> {
        self.is_complete().then(|| {
            let mut aggregates = StreamingAggregates::for_header(&self.header);
            for record in &self.records {
                aggregates.push(record.idx, TrialOutcome::from(record));
            }
            aggregates.finish()
        })
    }

    /// Write the records, in index order, as one trial store under the same
    /// header: replayable and resumable like a local `audit run`'s.
    ///
    /// # Errors
    /// I/O errors.
    pub fn write_store(&self, path: &Path) -> std::io::Result<()> {
        let mut store = TrialStore::create(path, &self.header)?;
        for record in &self.records {
            store.append(record)?;
        }
        Ok(())
    }
}

/// Read, validate and index a trial store.
///
/// Tolerates a truncated final line (crash mid-append); any other parse
/// failure, a bad header, or a schema-version mismatch is an error.
///
/// # Errors
/// I/O errors, malformed JSON other than a trailing partial line, an
/// incompatible header, or the errors of [`StoreContents::index`]; every
/// error names the file.
pub fn read_store(path: &Path) -> std::io::Result<StoreContents> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let bad = |msg: String| invalid_data(format!("{}: {msg}", path.display()));

    // Split keeping track of byte offsets so a truncated tail can be cut.
    let mut lines: Vec<(usize, &str)> = Vec::new(); // (end_offset_incl_newline, line)
    let mut end = 0;
    for raw in text.split_inclusive('\n') {
        end += raw.len();
        let line = raw.strip_suffix('\n').unwrap_or(raw);
        if !line.trim().is_empty() {
            lines.push((end, line));
        }
    }
    let Some((_, header_line)) = lines.first() else {
        return Err(bad("empty trial store".into()));
    };

    let header: StoreHeader =
        serde_json::from_str(header_line).map_err(|e| bad(format!("bad store header: {e}")))?;
    if header.schema_version != SCHEMA_VERSION {
        return Err(bad(format!(
            "store schema version {} (this binary reads {})",
            header.schema_version, SCHEMA_VERSION
        )));
    }

    let mut records = Vec::new();
    let mut keep_bytes = lines[0].0 as u64;
    let last = lines.len() - 1;
    for (i, (end, line)) in lines.iter().enumerate().skip(1) {
        match serde_json::from_str::<TrialRecord>(line) {
            Ok(record) => {
                records.push(record);
                keep_bytes = *end as u64;
            }
            // Truncated final append from a crash: drop it, resume will
            // re-run that trial.
            Err(_) if i == last => break,
            Err(e) => {
                return Err(bad(format!("corrupt trial record on line {}: {e}", i + 1)));
            }
        }
    }

    StoreContents::index(header, records, keep_bytes).map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_core::experiment::ChallengeMode;
    use dpaudit_dp::NeighborMode;
    use dpaudit_dpsgd::SensitivityScaling;

    fn header(reps: usize) -> StoreHeader {
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: "test".into(),
            workload: "mnist".into(),
            train_size: 10,
            world_seed: Seed(7),
            reps,
            master_seed: Seed(u64::MAX - 3), // deliberately above 2^53
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: 0.9,
            detail: RecordDetail::Summary,
            settings: TrialSettings::builder()
                .clip_norm(3.0)
                .learning_rate(0.005)
                .steps(4)
                .mode(NeighborMode::Unbounded)
                .noise_multiplier(1.5)
                .scaling(SensitivityScaling::Local)
                .challenge(ChallengeMode::RandomBit)
                .build()
                .expect("valid trial settings"),
        }
    }

    fn record(idx: usize) -> TrialRecord {
        TrialRecord {
            idx,
            seed: Seed(1u64 << 60 | idx as u64),
            eps_ls: 1.25 + idx as f64,
            trial: DiTrialResult {
                b: true,
                guess: idx.is_multiple_of(2),
                correct: idx.is_multiple_of(2),
                belief_d: 0.75,
                belief_trained: 0.75,
                belief_history: vec![],
                local_sensitivities: vec![],
                sigmas: vec![],
                test_accuracy: None,
            },
        }
    }

    /// A fresh directory per test, so tests can run side by side.
    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpaudit_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write a store by hand: the header line, then `records` verbatim.
    fn write_lines(path: &Path, header: &StoreHeader, records: &[TrialRecord]) {
        let mut text = serde_json::to_value(header).to_string() + "\n";
        for record in records {
            text.push_str(&record.line());
            text.push('\n');
        }
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn round_trip_preserves_header_and_records() {
        let dir = temp_dir("rt");
        let path = dir.join("round_trip.jsonl");
        let h = header(3);
        let mut store = TrialStore::create(&path, &h).unwrap();
        for idx in [2, 0] {
            store.append(&record(idx)).unwrap();
        }
        drop(store);

        let contents = read_store(&path).unwrap();
        assert_eq!(contents.header, h);
        // Indexed: ascending, whatever the completion order in the file.
        assert_eq!(contents.records, vec![record(0), record(2)]);
        assert_eq!(contents.missing, vec![1]);
        assert_eq!(contents.duplicates, 0);
        assert!(!contents.is_complete() && contents.report().is_none());
        assert_eq!(contents.keep_bytes, std::fs::metadata(&path).unwrap().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped_and_resumable() {
        let dir = temp_dir("trunc");
        let path = dir.join("truncated.jsonl");
        let h = header(4);
        let mut store = TrialStore::create(&path, &h).unwrap();
        store.append(&record(0)).unwrap();
        store.append(&record(1)).unwrap();
        drop(store);

        // Simulate a crash mid-append: chop the file inside the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 10).unwrap();
        drop(file);

        let contents = read_store(&path).unwrap();
        assert_eq!(contents.records, vec![record(0)]);
        assert_eq!(contents.missing, vec![1, 2, 3]);
        assert!(contents.keep_bytes < len - 10);

        // Re-open for append, cutting the partial line, and finish the batch.
        let mut store = TrialStore::open_append(&path, contents.keep_bytes).unwrap();
        for &idx in &contents.missing {
            store.append(&record(idx)).unwrap();
        }
        drop(store);
        let contents = read_store(&path).unwrap();
        assert_eq!(contents.records.len(), 4);
        assert!(contents.is_complete() && contents.report().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_index_and_zero_reps_are_invalid_data() {
        let dir = temp_dir("range");
        let path = dir.join("range.jsonl");
        let mut stray = record(1);
        stray.idx = 7;
        write_lines(&path, &header(3), &[record(0), stray]);
        let err = read_store(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains("trial index 7 out of range 0..3"), "{msg}");
        // A header of zero reps has no trial at all: an error, not a panic
        // in the replay fold.
        write_lines(&path, &header(0), &[]);
        let err = read_store(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("zero reps"), "{err}");
        // Nor may a header ask for more than `MAX_REPS`: the rule would
        // otherwise list `0..reps` as missing, an allocation that aborts the
        // reader at 10^14 reps.
        write_lines(&path, &header(MAX_REPS + 1), &[]);
        let Err(err) = read_store(&path) else {
            panic!("reps above MAX_REPS must be refused");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("MAX_REPS = 1048576"), "{err}");
        write_lines(&path, &header(MAX_REPS), &[]);
        assert_eq!(read_store(&path).unwrap().missing.len(), MAX_REPS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_line_is_dropped_and_counted() {
        let dir = temp_dir("dup");
        let path = dir.join("dup.jsonl");
        write_lines(&path, &header(3), &[record(2), record(0), record(2)]);
        let contents = read_store(&path).unwrap();
        assert_eq!(contents.records, vec![record(0), record(2)]);
        assert_eq!(contents.duplicates, 1);
        assert_eq!(contents.missing, vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_lines_for_one_index_are_a_determinism_conflict() {
        let dir = temp_dir("conflict");
        let path = dir.join("conflict.jsonl");
        let mut edited = record(0);
        edited.eps_ls = 0.1;
        // Whichever line comes first, neither may win silently.
        for lines in [[edited.clone(), record(0)], [record(0), edited.clone()]] {
            write_lines(&path, &header(2), &lines);
            let err = read_store(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains("determinism conflict: trial 0 appears with different bytes"),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_creates_continues_and_refuses_another_header() {
        let dir = temp_dir("open");
        let path = dir.join("open.jsonl");
        let h = header(3);

        // Absent: created with the header line, nothing stored yet.
        let (mut store, contents) = TrialStore::open(&path, &h).unwrap();
        assert!(contents.records.is_empty());
        assert_eq!(contents.missing, vec![0, 1, 2]);
        store.append(&record(1)).unwrap();
        store.append(&record(0)).unwrap();
        drop(store);

        // Matching header: continued past a torn tail.
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        let (mut store, contents) = TrialStore::open(&path, &h).unwrap();
        assert_eq!(contents.records, vec![record(1)]);
        assert_eq!(contents.missing, vec![0, 2]);
        store.append(&record(0)).unwrap();
        store.append(&record(2)).unwrap();
        drop(store);
        let contents = read_store(&path).unwrap();
        assert!(contents.is_complete());
        assert_eq!(contents.records, vec![record(0), record(1), record(2)]);

        // Another header: refused, and the file keeps its bytes.
        let before = std::fs::read(&path).unwrap();
        let err = TrialStore::open(&path, &header(5)).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different header"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let dir = std::env::temp_dir().join("dpaudit_store_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        let h = header(2);
        let mut text = serde_json::to_value(&h).to_string();
        text.push('\n');
        text.push_str("{definitely not json\n");
        let good = serde_json::to_value(&record(1)).to_string();
        text.push_str(&good);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = read_store(&path).unwrap_err();
        assert!(err.to_string().contains("corrupt trial record on line 2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn schema_version_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join("dpaudit_store_schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("schema.jsonl");
        let mut h = header(1);
        h.schema_version = SCHEMA_VERSION + 1;
        let mut text = serde_json::to_value(&h).to_string();
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let err = read_store(&path).unwrap_err();
        assert!(err.to_string().contains("schema version"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seed_survives_full_u64_range() {
        let seed = Seed(u64::MAX);
        let value = serde_json::to_value(&seed);
        assert_eq!(Seed::from_value(&value).unwrap(), seed);
        assert_eq!(Seed::from_value(&Value::Number(42.0)).unwrap(), Seed(42));
        assert!(Seed::from_value(&Value::Number(1.5)).is_err());
    }
}
