//! The tiered chunk store: a budgeted memory tier over a disk tier of
//! spill files.
//!
//! # Memory tier
//!
//! Resident chunks are charged their logical `nbytes` against an optional
//! byte budget. When an insert pushes the tier over budget, victims are
//! chosen by **clock (second-chance)**: a ring of keys is swept, a chunk
//! touched since the last sweep gets its reference bit cleared and one more
//! lap, an untouched chunk is evicted. Pinned chunks are skipped — a
//! subtask pins its inputs for the duration of execution, so the working
//! set of an in-flight computation can never be evicted from under it.
//!
//! # Disk tier
//!
//! Eviction encodes the chunk with [`crate::chunkfmt`] and writes one spill
//! file per chunk (`chunk-<key>.xbc`). A later `get` reads the envelope
//! back, strict-decodes it, and *promotes* the chunk — best-effort: if the
//! budget cannot make room (everything else is pinned), the decoded value
//! is still returned but the tier keeps it non-resident rather than fail a
//! read. The spill file is retained after promotion; chunks are immutable,
//! so re-evicting a promoted chunk is free (drop the value, keep the file).
//!
//! With spilling disabled the tier degrades to the executor's historical
//! behavior: exceeding the budget is an immediate [`StorageError::Oom`].
//!
//! # Concurrency
//!
//! The service is `Sync` and built for many executor threads hammering it
//! at once (the work-stealing [`ParallelExecutor`] in `xorbits-core` runs
//! every subtask's pin → get → put → unpin cycle concurrently):
//!
//! * the entry map is **sharded** across [`SHARD_COUNT`] mutexes keyed by
//!   chunk hash, so puts/gets/pins of different chunks rarely contend (and
//!   spill-file IO for one chunk only blocks its own shard);
//! * byte accounting (`resident_bytes`, its peak) and all cumulative
//!   counters are lock-free atomics;
//! * the clock ring stays **global** behind its own small mutex — the sweep
//!   is a pure queue of keys, and one global ring preserves the exact
//!   single-thread eviction order of the unsharded implementation.
//!
//! Lock order: a shard mutex may acquire the ring mutex (put/promote push,
//! sweep re-push), never the reverse — the sweep pops a candidate from the
//! ring and *releases it* before touching the candidate's shard. No path
//! holds two shards.

use crate::chunkfmt::{
    decode_chunk_with, encoded_size, DecodeWorkspace, EncodeWorkspace, EncodingMode,
};
use crate::error::{StorageError, StorageResult};
use crate::ChunkValue;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where evicted chunks go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SpillConfig {
    /// No disk tier: going over budget is an immediate [`StorageError::Oom`]
    /// (the historical in-memory-executor behavior).
    #[default]
    Disabled,
    /// Spill into a fresh process-unique directory under the system temp
    /// dir; the service removes it on drop.
    TempDir,
    /// Spill into the given directory (created if absent, not removed on
    /// drop — the caller owns it).
    Dir(PathBuf),
}

/// Configuration of a [`StorageService`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageConfig {
    /// Byte budget of the memory tier (`None` = unbounded, nothing ever
    /// evicts).
    pub memory_budget: Option<usize>,
    /// Disk-tier policy.
    pub spill: SpillConfig,
    /// Spill-file encoding: `Auto` (the default) lets the per-column
    /// chooser compress, `Plain` pins version-1 envelopes. Binaries that
    /// honour the `XORBITS_ENCODING` knob resolve it with
    /// [`encoding_from_env`](crate::encoding_from_env) and set it here.
    pub encoding: EncodingMode,
}

/// Cumulative counters plus a point-in-time snapshot of the tier state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageMetrics {
    /// Chunks pushed out of the memory tier.
    pub evictions: u64,
    /// Encoded bytes written to the disk tier.
    pub spilled_bytes: u64,
    /// Encoded bytes read back from the disk tier.
    pub read_back_bytes: u64,
    /// Reads served from the memory tier.
    pub hits: u64,
    /// Reads that had to touch the disk tier.
    pub misses: u64,
    /// High-water mark of resident logical bytes.
    pub peak_resident_bytes: usize,
    /// Resident logical bytes right now.
    pub resident_bytes: usize,
    /// Spill files currently on disk.
    pub spill_files: usize,
    /// Unpins of a chunk that was not pinned (or not present). Always a
    /// caller bug — a leaked pin elsewhere, or a double unpin — so debug
    /// builds also `debug_assert!`; release builds count it here so the
    /// trace layer can surface it.
    pub unbalanced_unpins: u64,
    /// Plain (version-1) envelope bytes of every chunk the spill path
    /// encoded — the denominator of the spill compression ratio.
    pub encoded_raw_bytes: u64,
    /// Bytes the spill path actually wrote under the configured encoding
    /// (equals `encoded_raw_bytes` under [`EncodingMode::Plain`]).
    pub encoded_wire_bytes: u64,
}

struct Entry {
    /// Present while the chunk is resident in the memory tier.
    value: Option<Arc<ChunkValue>>,
    /// Logical bytes charged while resident.
    nbytes: usize,
    /// Spill file, once the chunk has been written to the disk tier (kept
    /// after promotion — chunks are immutable, so the envelope stays valid).
    file: Option<PathBuf>,
    /// Pin refcount; a pinned chunk is never evicted.
    pins: u32,
    /// Clock reference bit — set on access, cleared on a sweep lap.
    ref_bit: bool,
}

/// Number of entry-map shards. Plenty for the worker counts the parallel
/// executor runs (≤ a few dozen) while keeping idle-shard overhead tiny.
const SHARD_COUNT: usize = 16;

/// Process-wide counter making concurrent temp spill dirs unique.
static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Caller-owned encode/decode scratch, threaded through
/// [`StorageService::put_with`]/[`StorageService::get_with`] so a worker
/// thread spills and reads back through its *own* warmed buffers instead
/// of contending on (and cold-starting) the shard's. Each storage shard
/// also owns one for the plain `put`/`get` paths.
#[derive(Default)]
pub struct Workspaces {
    /// Encoder state (output buffer, dict table, varint staging).
    pub enc: EncodeWorkspace,
    /// Decoder scratch (dictionary offset staging).
    pub dec: DecodeWorkspace,
}

/// One entry-map shard plus the shard-resident codec workspaces used when
/// the caller did not bring its own.
#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    ws: Workspaces,
}

/// The multi-level chunk store. See the module docs for the design.
pub struct StorageService {
    config: StorageConfig,
    shards: Vec<Mutex<Shard>>,
    /// Global clock ring of candidate keys (may hold stale keys; the sweep
    /// skips and drops them).
    ring: Mutex<VecDeque<u64>>,
    resident_bytes: AtomicUsize,
    peak_resident_bytes: AtomicUsize,
    evictions: AtomicU64,
    spilled_bytes: AtomicU64,
    read_back_bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    unbalanced_unpins: AtomicU64,
    encoded_raw_bytes: AtomicU64,
    encoded_wire_bytes: AtomicU64,
    spill_dir: Option<PathBuf>,
    /// Whether the service created `spill_dir` and must remove it on drop.
    owns_dir: bool,
}

impl StorageService {
    /// Builds a service; creates the spill directory eagerly so that
    /// misconfiguration fails at construction, not mid-query.
    pub fn new(config: StorageConfig) -> StorageResult<StorageService> {
        let (spill_dir, owns_dir) = match &config.spill {
            SpillConfig::Disabled => (None, false),
            SpillConfig::TempDir => {
                let dir = std::env::temp_dir().join(format!(
                    "xorbits-spill-{}-{}",
                    std::process::id(),
                    TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
                (Some(dir), true)
            }
            SpillConfig::Dir(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| StorageError::Io(format!("create {}: {e}", dir.display())))?;
                (Some(dir.clone()), false)
            }
        };
        Ok(StorageService {
            config,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            ring: Mutex::new(VecDeque::new()),
            resident_bytes: AtomicUsize::new(0),
            peak_resident_bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            read_back_bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            unbalanced_unpins: AtomicU64::new(0),
            encoded_raw_bytes: AtomicU64::new(0),
            encoded_wire_bytes: AtomicU64::new(0),
            spill_dir,
            owns_dir,
        })
    }

    /// Unbounded in-memory service (no budget, no disk tier).
    pub fn unbounded() -> StorageService {
        StorageService::new(StorageConfig::default()).expect("no io in unbounded config")
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // multiply-shift so sequential chunk ids spread over the shards
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % SHARD_COUNT]
    }

    /// Charges `n` resident bytes and maintains the peak high-water mark.
    fn charge(&self, n: usize) {
        let now = self.resident_bytes.fetch_add(n, Ordering::AcqRel) + n;
        self.peak_resident_bytes.fetch_max(now, Ordering::AcqRel);
    }

    /// Stores a chunk, replacing (and releasing) any previous value under
    /// the key, then shrinks the memory tier back under budget — possibly
    /// spilling the chunk just stored.
    pub fn put(&self, key: u64, value: ChunkValue) -> StorageResult<()> {
        self.put_impl(key, value, None)
    }

    /// [`Self::put`] with caller-owned codec workspaces: any spill the
    /// insert triggers encodes through `ws` instead of the victim shard's.
    pub fn put_with(&self, key: u64, value: ChunkValue, ws: &mut Workspaces) -> StorageResult<()> {
        self.put_impl(key, value, Some(ws))
    }

    fn put_impl(
        &self,
        key: u64,
        value: ChunkValue,
        ws: Option<&mut Workspaces>,
    ) -> StorageResult<()> {
        let nbytes = value.nbytes();
        {
            let mut shard = self.shard(key).lock().unwrap();
            Self::release_in_shard(&mut shard.entries, key, &self.resident_bytes);
            shard.entries.insert(
                key,
                Entry {
                    value: Some(Arc::new(value)),
                    nbytes,
                    file: None,
                    pins: 0,
                    ref_bit: true,
                },
            );
            self.ring.lock().unwrap().push_back(key);
            self.charge(nbytes);
        }
        self.shrink_to_budget(ws)
    }

    /// Fetches a chunk: from the memory tier if resident, otherwise by
    /// reading its envelope back from the disk tier (counted as a miss and
    /// promoted best-effort).
    pub fn get(&self, key: u64) -> StorageResult<Arc<ChunkValue>> {
        self.get_impl(key, None)
    }

    /// [`Self::get`] with caller-owned codec workspaces: a disk-tier read
    /// decodes through `ws`, and any promotion-driven spill encodes
    /// through it too.
    pub fn get_with(&self, key: u64, ws: &mut Workspaces) -> StorageResult<Arc<ChunkValue>> {
        self.get_impl(key, Some(ws))
    }

    fn get_impl(
        &self,
        key: u64,
        mut ws: Option<&mut Workspaces>,
    ) -> StorageResult<Arc<ChunkValue>> {
        let (value, nbytes) = {
            let mut guard = self.shard(key).lock().unwrap();
            let shard = &mut *guard;
            let entry = shard
                .entries
                .get_mut(&key)
                .ok_or(StorageError::Missing(key))?;
            entry.ref_bit = true;
            if let Some(v) = &entry.value {
                let v = Arc::clone(v);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
            let path = entry.file.clone().ok_or_else(|| {
                StorageError::Io(format!("chunk {key:#x} has no value and no file"))
            })?;
            // IO under the shard lock: only same-shard keys wait for it
            let bytes = std::fs::read(&path)
                .map_err(|e| StorageError::Io(format!("read {}: {e}", path.display())))?;
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.read_back_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            let dec = match ws.as_deref_mut() {
                Some(w) => &mut w.dec,
                None => &mut shard.ws.dec,
            };
            let value = Arc::new(decode_chunk_with(bytes, dec)?);
            // Promote: make the chunk resident again, evicting colder chunks
            // if needed. Best-effort — a failure to make room (everything
            // else pinned) leaves the chunk non-resident but still returns
            // it.
            let entry = shard.entries.get_mut(&key).expect("entry checked above");
            let nbytes = entry.nbytes;
            entry.value = Some(Arc::clone(&value));
            entry.pins += 1; // shield from the shrink sweep below
            self.ring.lock().unwrap().push_back(key);
            self.charge(nbytes);
            (value, nbytes)
        };
        let shrunk = self.shrink_to_budget(ws);
        let mut shard = self.shard(key).lock().unwrap();
        if let Some(entry) = shard.entries.get_mut(&key) {
            entry.pins -= 1;
            if shrunk.is_err() && entry.value.is_some() {
                // demote in place: the caller keeps the Arc, the tier stays
                // under control (the file is already on disk)
                entry.value = None;
                self.resident_bytes.fetch_sub(nbytes, Ordering::AcqRel);
            }
        }
        Ok(value)
    }

    /// True when the key is known (resident or spilled).
    pub fn contains(&self, key: u64) -> bool {
        self.shard(key).lock().unwrap().entries.contains_key(&key)
    }

    /// Pins a chunk: while the pin count is nonzero the chunk is never
    /// evicted. Executors pin every input of a subtask before running it.
    pub fn pin(&self, key: u64) -> StorageResult<()> {
        let mut shard = self.shard(key).lock().unwrap();
        let entry = shard
            .entries
            .get_mut(&key)
            .ok_or(StorageError::Missing(key))?;
        entry.pins += 1;
        Ok(())
    }

    /// Releases one pin. An unpin that doesn't match a live pin (missing
    /// key, or pin count already zero) is a caller bug that used to be
    /// silently swallowed and could mask pin leaks: it now trips a
    /// `debug_assert!` in debug builds and is counted in
    /// [`StorageMetrics::unbalanced_unpins`] in release builds so the
    /// trace layer can report it.
    pub fn unpin(&self, key: u64) {
        let mut shard = self.shard(key).lock().unwrap();
        let balanced = match shard.entries.get_mut(&key) {
            Some(entry) if entry.pins > 0 => {
                entry.pins -= 1;
                true
            }
            _ => {
                self.unbalanced_unpins.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        // release the lock before asserting so a debug-build panic can't
        // poison the shard mutex mid-unwind
        drop(shard);
        debug_assert!(
            balanced,
            "unbalanced unpin of chunk {key:#x}: not pinned or not present"
        );
    }

    /// Drops a chunk from both tiers.
    pub fn remove(&self, key: u64) {
        let mut shard = self.shard(key).lock().unwrap();
        Self::release_in_shard(&mut shard.entries, key, &self.resident_bytes);
    }

    /// Drops every chunk from both tiers. Cumulative metrics survive;
    /// snapshot fields reset. Callers quiesce their workers first (the
    /// executors call this from `&mut self` contexts).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let keys: Vec<u64> = shard.entries.keys().copied().collect();
            for key in keys {
                Self::release_in_shard(&mut shard.entries, key, &self.resident_bytes);
            }
        }
        self.ring.lock().unwrap().clear();
        debug_assert_eq!(
            self.resident_bytes.load(Ordering::Acquire),
            0,
            "ledger drifted"
        );
        self.resident_bytes.store(0, Ordering::Release);
    }

    /// Resident logical bytes right now.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes.load(Ordering::Acquire)
    }

    /// A metrics snapshot (cumulative counters + current tier state).
    pub fn metrics(&self) -> StorageMetrics {
        StorageMetrics {
            evictions: self.evictions.load(Ordering::Relaxed),
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
            read_back_bytes: self.read_back_bytes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            spill_files: self
                .shards
                .iter()
                .map(|s| {
                    s.lock()
                        .unwrap()
                        .entries
                        .values()
                        .filter(|e| e.file.is_some())
                        .count()
                })
                .sum(),
            unbalanced_unpins: self.unbalanced_unpins.load(Ordering::Relaxed),
            encoded_raw_bytes: self.encoded_raw_bytes.load(Ordering::Relaxed),
            encoded_wire_bytes: self.encoded_wire_bytes.load(Ordering::Relaxed),
        }
    }

    // ---- internals ---------------------------------------------------------

    fn spill_path(dir: &std::path::Path, key: u64) -> PathBuf {
        dir.join(format!("chunk-{key:016x}.xbc"))
    }

    /// Removes `key` entirely: uncharges it if resident and deletes its
    /// spill file. Stale ring slots are left behind; the sweep drops them.
    fn release_in_shard(shard: &mut HashMap<u64, Entry>, key: u64, resident: &AtomicUsize) {
        if let Some(entry) = shard.remove(&key) {
            if entry.value.is_some() {
                resident.fetch_sub(entry.nbytes, Ordering::AcqRel);
            }
            if let Some(path) = entry.file {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// Clock sweep: evicts second-chance victims until the memory tier is
    /// back under budget. With spilling disabled any needed eviction is an
    /// [`StorageError::Oom`]; with every candidate pinned the sweep gives
    /// up (bounded by two laps) and also reports OOM.
    ///
    /// Concurrent sweeps cooperate: each pops its own candidates from the
    /// shared ring, so two threads shrink twice as fast and the clock order
    /// is still consumed exactly once.
    fn shrink_to_budget(&self, mut ws: Option<&mut Workspaces>) -> StorageResult<()> {
        let Some(budget) = self.config.memory_budget else {
            return Ok(());
        };
        let mut scanned = 0usize;
        while self.resident_bytes.load(Ordering::Acquire) > budget {
            let needed = self.resident_bytes.load(Ordering::Acquire);
            if self.spill_dir.is_none() {
                return Err(StorageError::Oom { needed, budget });
            }
            let (guard, key) = {
                let mut ring = self.ring.lock().unwrap();
                let guard = 2 * ring.len() + 1;
                (guard, ring.pop_front())
            };
            let Some(key) = key else {
                return Err(StorageError::Oom { needed, budget });
            };
            let mut locked = self.shard(key).lock().unwrap();
            let shard = &mut *locked;
            let Some(entry) = shard.entries.get_mut(&key) else {
                continue; // stale slot of a removed chunk
            };
            if entry.value.is_none() {
                continue; // stale slot of an already-evicted chunk
            }
            scanned += 1;
            if entry.pins > 0 || entry.ref_bit {
                entry.ref_bit = false;
                self.ring.lock().unwrap().push_back(key);
                if scanned >= guard {
                    return Err(StorageError::Oom { needed, budget });
                }
                continue;
            }
            let enc = match ws.as_deref_mut() {
                Some(w) => &mut w.enc,
                None => &mut shard.ws.enc,
            };
            self.evict_entry(entry, key, enc)?;
            scanned = 0; // fresh laps for the next victim
        }
        Ok(())
    }

    /// Writes the chunk's envelope to the disk tier (unless a valid spill
    /// file already exists from a previous eviction) and drops the resident
    /// value. The caller holds the entry's shard lock and has checked
    /// residency; the encode reuses `enc` (the caller's workspace or the
    /// victim shard's), so a warmed spill path allocates nothing.
    fn evict_entry(
        &self,
        entry: &mut Entry,
        key: u64,
        enc: &mut EncodeWorkspace,
    ) -> StorageResult<()> {
        let dir = self.spill_dir.as_ref().expect("caller checked spill_dir");
        let value = entry.value.take().expect("caller checked residency");
        if entry.file.is_none() {
            let path = Self::spill_path(dir, key);
            let bytes = enc.encode(&value, self.config.encoding);
            std::fs::write(&path, bytes)
                .map_err(|e| StorageError::Io(format!("write {}: {e}", path.display())))?;
            entry.file = Some(path);
            self.spilled_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.encoded_raw_bytes
                .fetch_add(encoded_size(&value) as u64, Ordering::Relaxed);
            self.encoded_wire_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.resident_bytes
            .fetch_sub(entry.nbytes, Ordering::AcqRel);
        Ok(())
    }
}

impl Drop for StorageService {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            for entry in shard.get_mut().unwrap().entries.values() {
                if let Some(path) = &entry.file {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        if self.owns_dir {
            if let Some(dir) = &self.spill_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

impl std::fmt::Debug for StorageService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        f.debug_struct("StorageService")
            .field("config", &self.config)
            .field("metrics", &m)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{Column, DataFrame};

    fn df_chunk(tag: i64, rows: usize) -> ChunkValue {
        ChunkValue::Df(
            DataFrame::new(vec![(
                "v",
                Column::from_i64((0..rows as i64).map(|i| i + tag * 1_000_000).collect()),
            )])
            .unwrap(),
        )
    }

    fn bounded(budget: usize) -> StorageService {
        StorageService::new(StorageConfig {
            memory_budget: Some(budget),
            spill: SpillConfig::TempDir,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip_in_memory() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 100)).unwrap();
        let v = s.get(1).unwrap();
        assert_eq!(v.rows(), 100);
        assert_eq!(s.metrics().hits, 1);
        assert_eq!(s.metrics().misses, 0);
    }

    #[test]
    fn over_budget_without_spill_is_oom() {
        let s = StorageService::new(StorageConfig {
            memory_budget: Some(64),
            spill: SpillConfig::Disabled,
            ..Default::default()
        })
        .unwrap();
        let err = s.put(1, df_chunk(1, 1000)).unwrap_err();
        assert!(matches!(err, StorageError::Oom { .. }), "got {err}");
    }

    #[test]
    fn eviction_spills_and_reads_back_identical() {
        // each chunk is 800 logical bytes; budget fits one
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.put(2, df_chunk(2, 100)).unwrap();
        let m = s.metrics();
        assert_eq!(m.evictions, 1);
        assert!(m.spilled_bytes > 0);
        assert!(s.resident_bytes() <= 1000);
        // chunk 1 was the second-chance victim; reading it promotes it back
        let v1 = s.get(1).unwrap();
        match &*v1 {
            ChunkValue::Df(df) => {
                assert_eq!(df.num_rows(), 100);
                assert_eq!(
                    df.column("v").unwrap().get(7),
                    xorbits_dataframe::Scalar::Int(1_000_007)
                );
            }
            _ => panic!("kind flipped"),
        }
        let m = s.metrics();
        assert_eq!(m.misses, 1);
        assert!(m.read_back_bytes > 0);
    }

    #[test]
    fn pinned_chunks_never_evict() {
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.pin(1).unwrap();
        s.put(2, df_chunk(2, 100)).unwrap();
        // chunk 2 (the newcomer) must have been the victim: 1 is pinned
        assert_eq!(s.metrics().evictions, 1);
        assert_eq!(s.get(1).unwrap().rows(), 100);
        assert_eq!(s.metrics().hits, 1, "pinned chunk stayed resident");
        s.unpin(1);
    }

    #[test]
    fn newcomer_spills_when_everything_else_is_pinned() {
        let s = bounded(1000);
        s.put(1, df_chunk(1, 100)).unwrap();
        s.pin(1).unwrap();
        assert!(matches!(s.pin(9), Err(StorageError::Missing(9))));
        // the pinned chunk cannot move, so the insert itself becomes the
        // victim: put succeeds with chunk 2 living on the disk tier
        s.put(2, df_chunk(2, 100)).unwrap();
        assert_eq!(s.metrics().evictions, 1);
        assert!(s.resident_bytes() <= 1000);
        assert_eq!(s.get(2).unwrap().rows(), 100);
        assert_eq!(s.metrics().misses, 1, "chunk 2 came from disk");
    }

    #[test]
    fn promotion_is_best_effort_under_pinned_pressure() {
        // fill the budget with pinned chunks, spill one more, then read it
        // back: promotion cannot make room, but the read must still succeed
        // (the chunk is demoted in place, not refused)
        let s = bounded(700);
        s.put(1, df_chunk(1, 40)).unwrap();
        s.pin(1).unwrap();
        s.put(2, df_chunk(2, 40)).unwrap();
        s.pin(2).unwrap();
        s.put(3, df_chunk(3, 40)).unwrap(); // spills itself: 1 and 2 pinned
        assert_eq!(s.metrics().evictions, 1);
        let v = s.get(3).unwrap();
        assert_eq!(v.rows(), 40);
        assert!(s.resident_bytes() <= 700, "demoted after failed promotion");
        let again = s.get(3).unwrap();
        assert_eq!(again.rows(), 40);
        assert_eq!(s.metrics().misses, 2, "still served from disk");
    }

    #[test]
    fn replace_releases_old_accounting() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 100)).unwrap();
        let before = s.resident_bytes();
        s.put(1, df_chunk(2, 100)).unwrap();
        assert_eq!(s.resident_bytes(), before, "re-store leaked ledger bytes");
        s.put(1, df_chunk(3, 10)).unwrap();
        assert!(s.resident_bytes() < before);
    }

    #[test]
    fn clear_resets_ledger_and_files() {
        let s = bounded(1000);
        for k in 0..4 {
            s.put(k, df_chunk(k as i64, 100)).unwrap();
        }
        assert!(s.metrics().spill_files > 0);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.metrics().spill_files, 0);
        assert!(matches!(s.get(1), Err(StorageError::Missing(1))));
    }

    #[test]
    fn spill_dir_removed_on_drop() {
        let s = bounded(100);
        let dir = s.spill_dir.clone().unwrap();
        s.put(1, df_chunk(1, 100)).unwrap();
        assert!(dir.exists());
        drop(s);
        assert!(!dir.exists(), "temp spill dir survived drop");
    }

    /// Regression: `unpin` used `saturating_sub`, so an unbalanced unpin
    /// (never-pinned or missing key) silently no-oped and could mask pin
    /// leaks. It must now trip a `debug_assert!` in debug builds, and in
    /// release builds count into `unbalanced_unpins` without poisoning the
    /// service mutex or corrupting live pin counts.
    #[test]
    fn unbalanced_unpin_is_detected() {
        let s = StorageService::unbounded();
        s.put(1, df_chunk(1, 10)).unwrap();
        s.pin(1).unwrap();
        s.unpin(1); // balanced — never flagged
        assert_eq!(s.metrics().unbalanced_unpins, 0);

        let unbalanced = || {
            s.unpin(1); // pin count already zero
            s.unpin(99); // never stored
        };
        if cfg!(debug_assertions) {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {})); // silence expected panics
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.unpin(1)));
            let missing = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.unpin(99)));
            std::panic::set_hook(prev);
            assert!(caught.is_err(), "zero-count unpin must debug_assert");
            assert!(missing.is_err(), "missing-key unpin must debug_assert");
        } else {
            unbalanced();
        }
        // both paths count, the mutex stays usable, pins stay sane
        assert_eq!(s.metrics().unbalanced_unpins, 2);
        s.pin(1).unwrap();
        s.unpin(1);
        assert_eq!(s.metrics().unbalanced_unpins, 2);
        assert_eq!(s.get(1).unwrap().rows(), 10);
    }

    /// Many threads hammering disjoint and overlapping keys: the ledger
    /// must balance exactly afterwards (resident == Σ resident entry
    /// sizes), pins must net to zero, and no unbalanced unpin may fire.
    #[test]
    fn concurrent_access_keeps_ledger_balanced() {
        let s = bounded(64 << 10);
        const THREADS: usize = 8;
        const KEYS_PER_THREAD: u64 = 24;
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        let key = t * KEYS_PER_THREAD + i;
                        s.put(key, df_chunk(key as i64, 64)).unwrap();
                        s.pin(key).unwrap();
                        let v = s.get(key).unwrap();
                        assert_eq!(v.rows(), 64);
                        s.unpin(key);
                        // overlap: also read a neighbour thread's early keys
                        let other = ((t + 1) % THREADS as u64) * KEYS_PER_THREAD;
                        if s.contains(other) {
                            let _ = s.get(other);
                        }
                        if i % 5 == 4 {
                            s.remove(key);
                        }
                    }
                });
            }
        });
        let m = s.metrics();
        assert_eq!(m.unbalanced_unpins, 0);
        // the ledger must agree with a full walk of the shards
        let walked: usize = s
            .shards
            .iter()
            .map(|sh| {
                sh.lock()
                    .unwrap()
                    .entries
                    .values()
                    .filter(|e| e.value.is_some())
                    .map(|e| e.nbytes)
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(s.resident_bytes(), walked, "atomic ledger drifted");
        assert!(m.peak_resident_bytes >= s.resident_bytes());
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
    }
}
