//! Regression tests for spill-file retention: a chunk dropped from the
//! store — by `remove` (the executor `release` path) or `clear` — must
//! take its disk-tier file with it, both in the `spill_files` metric and
//! on the actual filesystem.
//!
//! This pins the fix for a leak where `LocalExecutor::release` only
//! dropped chunk *metadata*, so a long fetch with mid-flight refcount
//! releases accumulated one orphaned `chunk-*.xbc` file per released
//! spilled chunk until the whole fetch ended.
//!
//! Spill files use the `XORBITS_ENCODING` mode, resolved here at the
//! test's edge (the service reads no environment), so running the suite
//! with `XORBITS_ENCODING=plain` exercises the version-1 files.

use std::path::{Path, PathBuf};
use xorbits_dataframe::{Column, DataFrame};
use xorbits_storage::{encoding_from_env, ChunkValue, SpillConfig, StorageConfig, StorageService};

fn df_chunk(tag: i64, rows: usize) -> ChunkValue {
    ChunkValue::Df(
        DataFrame::new(vec![(
            "v",
            Column::from_i64((0..rows as i64).map(|i| i + tag * 1_000_000).collect()),
        )])
        .unwrap(),
    )
}

/// A process-unique spill directory under the system temp dir, owned by
/// the test (`SpillConfig::Dir` services never delete the directory
/// itself, so we can inspect it after drop).
fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xorbits-spill-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn files_on_disk(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Budget fits one ~800-byte chunk, so every additional put spills one.
fn service(dir: &Path) -> StorageService {
    let service = StorageService::new(StorageConfig {
        memory_budget: Some(1000),
        spill: SpillConfig::Dir(dir.to_path_buf()),
        encoding: encoding_from_env(),
    })
    .unwrap();
    assert_eq!(
        service.config().encoding,
        encoding_from_env(),
        "spill files must use the XORBITS_ENCODING mode"
    );
    service
}

#[test]
fn remove_deletes_the_spill_file_mid_run() {
    let dir = test_dir("remove");
    let s = service(&dir);
    for k in 0..4u64 {
        s.put(k, df_chunk(k as i64, 100)).unwrap();
    }
    let spilled_before = s.metrics().spill_files;
    assert!(spilled_before >= 3, "budget must force spilling");
    assert_eq!(files_on_disk(&dir).len(), spilled_before);

    // the executor `release` path: refcounts hit zero mid-fetch
    s.remove(0);
    s.remove(1);
    assert_eq!(
        s.metrics().spill_files,
        spilled_before - 2,
        "metric still counts released chunks"
    );
    assert_eq!(
        files_on_disk(&dir).len(),
        spilled_before - 2,
        "released chunks leaked their spill files on disk"
    );
    assert!(!s.contains(0) && !s.contains(1));

    // the surviving spilled chunks still read back
    for k in 2..4u64 {
        assert_eq!(s.get(k).unwrap().rows(), 100, "chunk {k} lost its file");
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clear_leaves_the_spill_dir_empty() {
    let dir = test_dir("clear");
    let s = service(&dir);
    for k in 0..6u64 {
        s.put(k, df_chunk(k as i64, 100)).unwrap();
    }
    assert!(s.metrics().spill_files > 0);
    s.clear();
    assert_eq!(s.metrics().spill_files, 0);
    assert_eq!(
        files_on_disk(&dir),
        Vec::<String>::new(),
        "clear() left spill files behind"
    );
    assert_eq!(s.resident_bytes(), 0);

    // the directory stays usable for the next fetch
    s.put(9, df_chunk(9, 100)).unwrap();
    s.put(10, df_chunk(10, 100)).unwrap();
    assert_eq!(s.metrics().spill_files, files_on_disk(&dir).len());
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn re_store_under_the_same_key_drops_the_stale_file() {
    let dir = test_dir("restore");
    let s = service(&dir);
    s.put(1, df_chunk(1, 100)).unwrap();
    s.put(2, df_chunk(2, 100)).unwrap(); // one of the two spills
    assert_eq!(s.metrics().spill_files, 1);
    // replacing both keys releases the old entries, including whichever
    // owned the spill file; only files of *current* spilled entries remain
    s.put(1, df_chunk(3, 100)).unwrap();
    s.put(2, df_chunk(4, 100)).unwrap();
    assert_eq!(files_on_disk(&dir).len(), s.metrics().spill_files);
    assert!(
        files_on_disk(&dir).len() <= 1,
        "stale envelope survived re-store"
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drop with `SpillConfig::Dir` removes its files but not the caller's
/// directory.
#[test]
fn drop_cleans_files_but_keeps_caller_dir() {
    let dir = test_dir("drop");
    let s = service(&dir);
    for k in 0..4u64 {
        s.put(k, df_chunk(k as i64, 100)).unwrap();
    }
    assert!(!files_on_disk(&dir).is_empty());
    drop(s);
    assert!(dir.exists(), "service must not delete a caller-owned dir");
    assert_eq!(
        files_on_disk(&dir),
        Vec::<String>::new(),
        "drop leaked spill files"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
