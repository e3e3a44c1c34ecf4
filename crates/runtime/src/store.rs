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
//! * Trial records may appear in **any order** (workers finish out of
//!   order) and carry their trial index explicitly.
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

use dpaudit_core::experiment::{DiTrialResult, RecordDetail, TrialSettings};
use serde::{Deserialize, Error, Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;

/// Version stamp written into every store header. Bump when the line format
/// changes incompatibly; [`read_store`] refuses mismatched versions.
pub const SCHEMA_VERSION: u64 = 1;

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
        store.append_line(&serde_json::to_value(header))?;
        Ok(store)
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
        self.append_line(&serde_json::to_value(record))
    }

    fn append_line(&mut self, value: &Value) -> std::io::Result<()> {
        let mut line = value.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        self.writer.get_ref().sync_all()
    }
}

/// Everything recovered from an existing store file.
#[derive(Debug)]
pub struct StoreContents {
    /// The validated header.
    pub header: StoreHeader,
    /// All complete trial records, in file order (which is completion
    /// order, not index order).
    pub records: Vec<TrialRecord>,
    /// Byte length of the valid prefix. Equal to the file length unless the
    /// final line was truncated by a crash; pass to [`TrialStore::open_append`]
    /// to cut the partial line off before resuming.
    pub keep_bytes: u64,
}

/// The trial indices in `0..reps` that have no record in `records` —
/// exactly the work a resume must run. Sorted ascending; duplicates in
/// the store are harmless (later records simply confirm earlier ones).
pub fn missing_indices(reps: usize, records: &[TrialRecord]) -> Vec<usize> {
    let mut have = vec![false; reps];
    for record in records {
        if record.idx < reps {
            have[record.idx] = true;
        }
    }
    (0..reps).filter(|&i| !have[i]).collect()
}

/// Read and validate a trial store.
///
/// Tolerates a truncated final line (crash mid-append); any other parse
/// failure, a bad header, or a schema-version mismatch is an error.
///
/// # Errors
/// I/O errors, malformed JSON other than a trailing partial line, or an
/// incompatible header.
pub fn read_store(path: &Path) -> std::io::Result<StoreContents> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);

    // Split keeping track of byte offsets so a truncated tail can be cut.
    let mut lines: Vec<(usize, &str)> = Vec::new(); // (end_offset_incl_newline, line)
    let mut start = 0usize;
    while start < text.len() {
        let rest = &text[start..];
        let (line, end) = match rest.find('\n') {
            Some(i) => (&rest[..i], start + i + 1),
            None => (rest, text.len()),
        };
        if !line.trim().is_empty() {
            lines.push((end, line));
        }
        start = end;
    }
    let Some((_, header_line)) = lines.first() else {
        return Err(bad(format!("{}: empty trial store", path.display())));
    };

    let header: StoreHeader = serde_json::from_str(header_line)
        .map_err(|e| bad(format!("{}: bad store header: {e}", path.display())))?;
    if header.schema_version != SCHEMA_VERSION {
        return Err(bad(format!(
            "{}: store schema version {} (this binary reads {})",
            path.display(),
            header.schema_version,
            SCHEMA_VERSION
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
            Err(e) if i == last => {
                // Truncated final append from a crash: drop it, resume will
                // re-run that trial.
                let _ = e;
                break;
            }
            Err(e) => {
                return Err(bad(format!(
                    "{}: corrupt trial record on line {}: {e}",
                    path.display(),
                    i + 1
                )));
            }
        }
    }

    Ok(StoreContents {
        header,
        records,
        keep_bytes,
    })
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

    #[test]
    fn round_trip_preserves_header_and_records() {
        let dir = std::env::temp_dir().join("dpaudit_store_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.jsonl");
        let h = header(3);
        let mut store = TrialStore::create(&path, &h).unwrap();
        for idx in [2, 0] {
            store.append(&record(idx)).unwrap();
        }
        drop(store);

        let contents = read_store(&path).unwrap();
        assert_eq!(contents.header, h);
        assert_eq!(contents.records, vec![record(2), record(0)]);
        assert_eq!(
            missing_indices(contents.header.reps, &contents.records),
            vec![1]
        );
        assert_eq!(contents.keep_bytes, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_and_resumable() {
        let dir = std::env::temp_dir().join("dpaudit_store_trunc");
        std::fs::create_dir_all(&dir).unwrap();
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
        assert_eq!(
            missing_indices(contents.header.reps, &contents.records),
            vec![1, 2, 3]
        );
        assert!(contents.keep_bytes < len - 10);

        // Re-open for append, cutting the partial line, and finish the batch.
        let mut store = TrialStore::open_append(&path, contents.keep_bytes).unwrap();
        for idx in missing_indices(contents.header.reps, &contents.records) {
            store.append(&record(idx)).unwrap();
        }
        drop(store);
        let contents = read_store(&path).unwrap();
        assert_eq!(contents.records.len(), 4);
        assert!(missing_indices(contents.header.reps, &contents.records).is_empty());
        std::fs::remove_file(&path).unwrap();
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
