//! Property tests: merging shard stores is invariant to how the records
//! were split across shards, ordered within them, or duplicated between
//! them — the merged report is always bit-identical to replaying one
//! single-node store holding the same records. One reading rule covers a
//! single store and a split into shards alike.

use dpaudit_core::experiment::DiTrialResult;
use dpaudit_core::{rho_beta, AuditReport, RecordDetail};
use dpaudit_fabric::merge_shards;
use dpaudit_runtime::{
    read_store, replay_store, testkit, Seed, StoreHeader, TrialRecord, TrialStore, SCHEMA_VERSION,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn unique_dir() -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dpaudit_fabric_merge_prop_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn header(reps: usize) -> StoreHeader {
    StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: "merge-prop".into(),
        workload: "toy".into(),
        train_size: 8,
        world_seed: Seed(0),
        reps,
        master_seed: Seed(42),
        target_epsilon: 2.0,
        delta: 1e-3,
        rho_beta_bound: rho_beta(2.0),
        detail: RecordDetail::Summary,
        settings: testkit::toy_settings(2),
    }
}

fn fake_record(idx: usize, belief: f64, eps: f64) -> TrialRecord {
    TrialRecord {
        idx,
        seed: Seed(1000 + idx as u64),
        eps_ls: eps,
        trial: DiTrialResult {
            b: true,
            guess: idx.is_multiple_of(2),
            correct: idx.is_multiple_of(2),
            belief_d: belief,
            belief_trained: belief,
            belief_history: vec![],
            local_sensitivities: vec![],
            sigmas: vec![],
            test_accuracy: None,
        },
    }
}

fn write_store(path: &std::path::Path, header: &StoreHeader, records: &[TrialRecord]) {
    let mut store = TrialStore::create(path, header).unwrap();
    for record in records {
        store.append(record).unwrap();
    }
}

fn report_bits(report: Option<AuditReport>) -> Option<[u64; 6]> {
    report.map(|r| {
        [
            r.eps_from_ls.to_bits(),
            r.eps_from_belief.to_bits(),
            r.eps_from_advantage.to_bits(),
            r.advantage.to_bits(),
            r.max_belief.to_bits(),
            r.empirical_delta.to_bits(),
        ]
    })
}

/// Deterministic scramble: `(k * odd_stride) % n` visits every index once
/// in a non-monotone order (odd stride is coprime with any power of two;
/// fall back to reversal otherwise).
fn scramble_order(n: usize, stride: usize) -> Vec<usize> {
    let stride = (2 * stride + 1).max(1);
    let order: Vec<usize> = (0..n).map(|k| (k * stride) % n).collect();
    let mut seen = order.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() == n {
        order
    } else {
        (0..n).rev().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_shard_split_merges_to_the_single_store_bits(
        beliefs in proptest::collection::vec(0.0f64..1.0, 2..24),
        assignment in proptest::collection::vec(0.0f64..1.0, 24usize),
        duplicate_picks in proptest::collection::vec(0.0f64..1.0, 4usize),
        shards in 1usize..5,
        stride in 0usize..12,
    ) {
        let n = beliefs.len();
        let header = header(n);
        let records: Vec<TrialRecord> = (0..n)
            .map(|i| fake_record(i, beliefs[i], beliefs[i] * 3.0 + 0.1))
            .collect();

        let dir = unique_dir();

        // The single-node reference store: all records, in index order.
        let reference = dir.join("reference.jsonl");
        let mut store = TrialStore::create(&reference, &header).unwrap();
        for record in &records {
            store.append(record).unwrap();
        }
        drop(store);
        let expected = replay_store(&reference).unwrap().report.unwrap();

        // Randomly assign each record to a shard, write each shard in a
        // scrambled order, and sprinkle cross-shard duplicates (a record
        // re-run after a lease reclaim lands in a second worker's shard).
        let mut shard_records: Vec<Vec<TrialRecord>> = vec![Vec::new(); shards];
        for i in scramble_order(n, stride) {
            let shard = ((assignment[i] * shards as f64) as usize).min(shards - 1);
            shard_records[shard].push(records[i].clone());
        }
        let mut expected_duplicates = 0;
        for (k, pick) in duplicate_picks.iter().enumerate() {
            if shards > 1 && *pick > 0.5 {
                let idx = ((pick - 0.5) * 2.0 * n as f64) as usize % n;
                shard_records[k % shards].push(records[idx].clone());
                expected_duplicates += 1;
            }
        }

        let mut paths = Vec::new();
        for (k, batch) in shard_records.iter().enumerate() {
            let path = dir.join(format!("shard{k}.jsonl"));
            let mut store = TrialStore::create(&path, &header).unwrap();
            for record in batch {
                store.append(record).unwrap();
            }
            paths.push(path);
        }

        let merged = merge_shards(&paths).unwrap();
        prop_assert!(merged.is_complete());
        // Every sprinkled copy duplicates a record present somewhere.
        prop_assert_eq!(merged.duplicates, expected_duplicates);
        let report = merged.report().unwrap();
        prop_assert_eq!(report.eps_from_ls.to_bits(), expected.eps_from_ls.to_bits());
        prop_assert_eq!(report.eps_from_belief.to_bits(), expected.eps_from_belief.to_bits());
        prop_assert_eq!(
            report.eps_from_advantage.to_bits(),
            expected.eps_from_advantage.to_bits()
        );
        prop_assert_eq!(report.advantage.to_bits(), expected.advantage.to_bits());
        prop_assert_eq!(report.max_belief.to_bits(), expected.max_belief.to_bits());
        prop_assert_eq!(
            report.empirical_delta.to_bits(),
            expected.empirical_delta.to_bits()
        );

        // Writing the merge back out round-trips to the same bits too.
        let merged_path = dir.join("merged.jsonl");
        merged.write_store(&merged_path).unwrap();
        let replayed = replay_store(&merged_path).unwrap().report.unwrap();
        prop_assert_eq!(replayed.eps_from_ls.to_bits(), expected.eps_from_ls.to_bits());

        let _ = std::fs::remove_dir_all(&dir);
    }

    fn one_reading_rule_for_a_store_and_its_shards(
        reps in 2usize..16,
        present in proptest::collection::vec(0.0f64..1.0, 16usize),
        beliefs in proptest::collection::vec(0.0f64..1.0, 16usize),
        copies in proptest::collection::vec(0.0f64..1.0, 0..8),
        conflict in 0.0f64..1.0,
        out_of_range in 0.0f64..1.0,
        order in proptest::collection::vec(0.0f64..1.0, 32usize),
        assignment in proptest::collection::vec(0.0f64..1.0, 32usize),
        shards in 1usize..5,
    ) {
        let header = header(reps);
        let unique: Vec<TrialRecord> = (0..reps)
            .filter(|&i| present[i] > 0.3)
            .map(|i| fake_record(i, beliefs[i], beliefs[i] * 3.0 + 0.1))
            .collect();
        let missing: Vec<usize> = (0..reps).filter(|&i| present[i] <= 0.3).collect();
        let pick = |u: f64| unique[(u * unique.len() as f64) as usize % unique.len()].clone();

        // Every unique record, identical copies, and maybe one conflicting
        // copy and one record past the batch.
        let mut lines = unique.clone();
        if !unique.is_empty() {
            lines.extend(copies.iter().map(|&u| pick(u)));
        }
        let has_conflict = conflict < 0.25 && !unique.is_empty();
        if has_conflict {
            let mut edited = pick(conflict * 4.0);
            edited.eps_ls += 1.0;
            lines.push(edited);
        }
        let has_out_of_range = out_of_range < 0.25;
        if has_out_of_range {
            lines.push(fake_record(reps + (out_of_range * 40.0) as usize, 0.5, 1.0));
        }
        let duplicates = lines.len() - unique.len() - usize::from(has_conflict)
            - usize::from(has_out_of_range);

        // One file holding every line in a random order, and the same lines
        // split over `shards` files.
        let mut keyed: Vec<(f64, TrialRecord)> = order.iter().copied().zip(lines).collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let dir = unique_dir();
        let all = dir.join("all.jsonl");
        let shuffled: Vec<TrialRecord> = keyed.iter().map(|(_, r)| r.clone()).collect();
        write_store(&all, &header, &shuffled);
        let mut split: Vec<Vec<TrialRecord>> = vec![Vec::new(); shards];
        for (j, record) in shuffled.into_iter().enumerate() {
            split[((assignment[j] * shards as f64) as usize).min(shards - 1)].push(record);
        }
        let paths: Vec<PathBuf> = split
            .iter()
            .enumerate()
            .map(|(k, records)| {
                let path = dir.join(format!("shard{k}.jsonl"));
                write_store(&path, &header, records);
                path
            })
            .collect();

        let read = read_store(&all);
        let merged = merge_shards(&paths);
        if has_conflict || has_out_of_range {
            for result in [read, merged] {
                let err = result.unwrap_err();
                prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            }
        } else {
            let reference = dir.join("reference.jsonl");
            write_store(&reference, &header, &unique);
            let expected = report_bits(replay_store(&reference).unwrap().report);
            prop_assert_eq!(expected.is_some(), missing.is_empty());
            for contents in [read.unwrap(), merged.unwrap()] {
                prop_assert_eq!(&contents.records, &unique);
                prop_assert_eq!(&contents.missing, &missing);
                prop_assert_eq!(contents.duplicates, duplicates);
                prop_assert_eq!(report_bits(contents.report()), expected);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_shards_report_missing_instead_of_a_report(
        present in proptest::collection::vec(0.0f64..1.0, 4..16),
    ) {
        let n = present.len();
        let header = header(n);
        let dir = unique_dir();
        let path = dir.join("partial.jsonl");
        let mut store = TrialStore::create(&path, &header).unwrap();
        let mut kept = 0;
        for (i, &belief) in present.iter().enumerate() {
            if belief > 0.4 {
                store.append(&fake_record(i, belief, 0.5)).unwrap();
                kept += 1;
            }
        }
        drop(store);
        let merged = merge_shards(&[path]).unwrap();
        prop_assert_eq!(merged.records.len(), kept);
        prop_assert_eq!(merged.missing.len(), n - kept);
        prop_assert_eq!(merged.is_complete(), kept == n);
        prop_assert_eq!(merged.report().is_some(), kept == n);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn conflicting_shards_fail_loudly() {
    let header = header(2);
    let dir = unique_dir();
    let path_a = dir.join("a.jsonl");
    let path_b = dir.join("b.jsonl");
    let mut store = TrialStore::create(&path_a, &header).unwrap();
    store.append(&fake_record(0, 0.5, 1.0)).unwrap();
    store.append(&fake_record(1, 0.5, 1.0)).unwrap();
    drop(store);
    let mut store = TrialStore::create(&path_b, &header).unwrap();
    store.append(&fake_record(1, 0.9, 2.0)).unwrap(); // same idx, different bytes
    drop(store);
    let err = merge_shards(&[path_a.clone(), path_b]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("determinism conflict"), "{err}");

    // Mismatched headers fail too.
    let mut other = header.clone();
    other.master_seed = Seed(7);
    let path_c = dir.join("c.jsonl");
    TrialStore::create(&path_c, &other).unwrap();
    let err = merge_shards(&[path_a, path_c]).unwrap_err();
    assert!(err.to_string().contains("different header"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
