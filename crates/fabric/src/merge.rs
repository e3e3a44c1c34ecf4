//! Deterministic shard merge: fold any number of worker shard stores back
//! into the single-node result.
//!
//! # Determinism argument
//!
//! A merged report is bit-identical to the report of a single-node run
//! with the same header because every stage is order-independent:
//!
//! 1. Each trial record is a pure function of
//!    `trial_seed(master_seed, idx)` — *which worker* ran index `i` never
//!    changes its bytes (the loopback tests assert this, and the
//!    coordinator rejects violations as determinism conflicts).
//! 2. The merge keys records by trial index into a [`BTreeMap`], so shard
//!    order, record order within a shard, and duplicate placement are all
//!    erased; the output is the unique index-sorted record sequence.
//! 3. [`StreamingAggregates`] consumes records strictly in index order
//!    (the order a single-node session folds in) and builds the report in
//!    [`StreamingAggregates::finish`], as every session does, so every f64
//!    accumulation happens in the identical sequence — and IEEE-754
//!    addition is deterministic for a fixed sequence.
//!
//! Duplicates across shards (lease reclaims re-running an index) are
//! dropped after an equality check; two *different* records for one index
//! mean a worker ran a mis-built workload and the merge fails loudly
//! rather than silently picking one.

use dpaudit_core::AuditReport;
use dpaudit_runtime::{
    read_store, StoreHeader, StreamingAggregates, TrialOutcome, TrialRecord, TrialStore,
};
use std::collections::BTreeMap;
use std::path::Path;

/// The result of merging shard stores.
#[derive(Debug)]
pub struct Merged {
    /// The common header every shard carried.
    pub header: StoreHeader,
    /// Deduplicated records, ascending by trial index.
    pub records: Vec<TrialRecord>,
    /// Cross-shard duplicates dropped (identical bytes, same index).
    pub duplicates: usize,
    /// Trial indices no shard supplied (empty ⇔ the batch is complete).
    pub missing: Vec<usize>,
}

impl Merged {
    /// Whether every trial index has a record.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// The aggregate report — `Some` only when complete, and then
    /// bit-identical to the single-node run's report (see the module
    /// docs for why).
    pub fn report(&self) -> Option<AuditReport> {
        if !self.is_complete() {
            return None;
        }
        let mut aggregates = StreamingAggregates::new(
            self.header.reps,
            self.header.target_epsilon,
            self.header.delta,
            self.header.rho_beta_bound,
        );
        for record in &self.records {
            aggregates.push(record.idx, TrialOutcome::from(record));
        }
        debug_assert!(aggregates.is_complete());
        Some(aggregates.finish())
    }

    /// Write the merged records as a single trial store, byte-compatible
    /// with one produced by a local `audit run` (replayable, resumable).
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

/// Merge shard stores (worker shards, a coordinator store, or any mix).
///
/// # Errors
/// `InvalidInput` with no paths; `InvalidData` when shard headers differ
/// or two shards disagree on a trial index's bytes; I/O and store-format
/// errors from reading.
pub fn merge_shards(paths: &[impl AsRef<Path>]) -> std::io::Result<Merged> {
    if paths.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no shards to merge",
        ));
    }
    let mut header: Option<(StoreHeader, &Path)> = None;
    let mut by_index: BTreeMap<usize, TrialRecord> = BTreeMap::new();
    let mut duplicates = 0usize;
    for path in paths {
        let path = path.as_ref();
        let contents = read_store(path)?;
        match &header {
            None => header = Some((contents.header.clone(), path)),
            Some((expected, first_path)) => {
                if &contents.header != expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "shard {} has a different header than {} — shards of \
                             different jobs cannot merge",
                            path.display(),
                            first_path.display()
                        ),
                    ));
                }
            }
        }
        let reps = contents.header.reps;
        for record in contents.records {
            // Out-of-range indices are ignored, matching replay semantics.
            if record.idx >= reps {
                continue;
            }
            match by_index.get(&record.idx) {
                Some(existing) if existing == &record => duplicates += 1,
                Some(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "determinism conflict: trial {} appears with different \
                             bytes in {} — a worker ran a mis-built workload",
                            record.idx,
                            path.display()
                        ),
                    ));
                }
                None => {
                    by_index.insert(record.idx, record);
                }
            }
        }
    }
    let (header, _) = header.expect("at least one shard was read");
    let missing = (0..header.reps)
        .filter(|idx| !by_index.contains_key(idx))
        .collect();
    Ok(Merged {
        header,
        records: by_index.into_values().collect(),
        duplicates,
        missing,
    })
}
