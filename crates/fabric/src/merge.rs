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
//! 2. Records may appear in any order in a shard, and shards in any
//!    order: the merge indexes them all with the store's one reading rule
//!    ([`StoreContents::index`]), so the output is the unique
//!    index-sorted record sequence.
//! 3. [`StoreContents::report`] folds them strictly in index order (the
//!    order a single-node session folds in), so every f64 accumulation
//!    happens in the identical sequence — and IEEE-754 addition is
//!    deterministic for a fixed sequence.
//!
//! Duplicates within or across shards (lease reclaims re-running an
//! index) are dropped after a byte comparison; two *different* records for
//! one index mean a worker ran a mis-built workload and the merge fails
//! loudly rather than silently picking one.

use dpaudit_runtime::{read_store, StoreContents};
use std::path::Path;

/// Merge shard stores (worker shards, a coordinator store, or any mix)
/// into one indexed record set, with `keep_bytes` 0. `duplicates` counts
/// the repeated lines inside each shard plus the copies across shards.
///
/// # Errors
/// `InvalidInput` with no paths; `InvalidData` when shard headers differ
/// or the reading rule refuses a record (within one shard or across
/// them); I/O and store-format errors from reading.
pub fn merge_shards(paths: &[impl AsRef<Path>]) -> std::io::Result<StoreContents> {
    let Some((first, rest)) = paths.split_first() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "no shards to merge",
        ));
    };
    let first = first.as_ref();
    let StoreContents {
        header,
        mut records,
        mut duplicates,
        ..
    } = read_store(first)?;
    for path in rest {
        let path = path.as_ref();
        let shard = read_store(path)?;
        if shard.header != header {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "shard {} has a different header than {} — shards of \
                     different jobs cannot merge",
                    path.display(),
                    first.display()
                ),
            ));
        }
        duplicates += shard.duplicates;
        records.extend(shard.records);
    }
    let mut merged = StoreContents::index(header, records, 0).map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("across shards: {e} — a worker ran a mis-built workload"),
        )
    })?;
    merged.duplicates += duplicates;
    Ok(merged)
}
