//! The snapshot cache: the previous-version [`FileSnapshot`]s the content
//! indicators compare against, behind one [`SnapshotCache`] that owns the
//! path and file shards, the LRU clock, the hit/miss/eviction counters
//! and the per-shard capacities. See `DESIGN.md` ("Engine concurrency &
//! caching") for the shard layout and the cache invariants.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{FileId, MemoSlot, ProcessId, VPath};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::Config;
use crate::state::FileSnapshot;

/// The refresh snapshot memoised on a staged buffer's [`MemoSlot`], with
/// the config inputs it was captured under.
struct StagedSnapshot {
    max_digest_bytes: usize,
    incremental: bool,
    snap: FileSnapshot,
}

/// Snapshot-cache effectiveness counters, exposed via
/// [`Monitor::cache_stats`](super::Monitor::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Snapshot refreshes satisfied by an unchanged content fingerprint
    /// (no sniff/digest/entropy recompute).
    pub hits: u64,
    /// Snapshot refreshes that had to recompute (content changed, or no
    /// prior snapshot existed).
    pub misses: u64,
    /// Path-keyed snapshots evicted to honour
    /// [`Config::snapshot_cache_capacity`] (or, for pinned post-delete
    /// snapshots, [`Config::pinned_snapshot_budget`]).
    pub evictions: u64,
    /// Path-keyed snapshots currently resident.
    pub resident: u64,
    /// Resident snapshots that are pinned (post-delete retentions,
    /// excluded from the LRU cap).
    pub pinned: u64,
}

/// Shard fan-out. 16 shards keeps the fixed arrays tiny while making
/// same-shard collisions between unrelated process families / paths rare
/// at the process counts the workloads produce.
const SHARD_BITS: u32 = 4;
pub(super) const SHARDS: usize = 1 << SHARD_BITS;

/// Maps an already-hashed key to its shard. The Fibonacci multiplier
/// spreads small sequential ids (pids, file ids) across shards.
pub(super) fn shard_index(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SHARD_BITS)) as usize
}

/// FNV-1a over a path's textual form, for path-shard selection.
fn path_key(path: &VPath) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.as_str().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A path-keyed snapshot plus its last-touched tick (LRU bookkeeping) and
/// its pin state (pinned entries are exempt from the LRU cap).
#[derive(Debug)]
struct PathEntry {
    snap: FileSnapshot,
    tick: u64,
    pinned: bool,
}

/// One shard of the path-keyed indices: previous-version snapshots (which
/// deliberately survive deletes, enabling the Class C link) and the
/// tracked-path set for files moved out of protected directories.
///
/// Post-delete snapshots are **pinned**: they are exactly the entries the
/// Class C delete-then-drop link depends on, so they are excluded from
/// the ordinary LRU cap and budgeted separately
/// ([`Config::pinned_snapshot_budget`]). `pinned_count` is maintained
/// incrementally so cap checks stay O(1) on the insert path.
#[derive(Debug, Default)]
struct PathShard {
    snapshots: HashMap<VPath, PathEntry>,
    tracked: HashMap<VPath, FileId>,
    pinned_count: usize,
}

impl PathShard {
    /// Clones out a snapshot, touching its LRU tick.
    fn get_snapshot(&mut self, path: &VPath, tick: u64) -> Option<FileSnapshot> {
        self.snapshots.get_mut(path).map(|e| {
            e.tick = tick;
            e.snap.clone()
        })
    }

    /// Removes a snapshot entry, maintaining the pin count.
    fn remove_snapshot(&mut self, path: &VPath) -> Option<FileSnapshot> {
        self.snapshots.remove(path).map(|e| {
            if e.pinned {
                self.pinned_count -= 1;
            }
            e.snap
        })
    }

    /// Evicts the least-recently-touched entry matching `pinned`,
    /// returning whether one existed.
    fn evict_oldest(&mut self, pinned: bool) -> bool {
        let Some(oldest) = self
            .snapshots
            .iter()
            .filter(|(_, e)| e.pinned == pinned)
            .min_by_key(|(_, e)| e.tick)
            .map(|(p, _)| p.clone())
        else {
            return false;
        };
        self.remove_snapshot(&oldest);
        true
    }

    /// Inserts (or replaces) a snapshot — fresh content makes the path
    /// live again, so a replaced entry loses any pin — and enforces the
    /// per-shard capacity by evicting least-recently-touched *unpinned*
    /// entries. Returns the number of evictions performed.
    fn insert_snapshot(&mut self, path: VPath, snap: FileSnapshot, tick: u64, cap: usize) -> u64 {
        let replaced = self.snapshots.insert(
            path,
            PathEntry {
                snap,
                tick,
                pinned: false,
            },
        );
        if replaced.is_some_and(|e| e.pinned) {
            self.pinned_count -= 1;
        }
        let mut evicted = 0u64;
        while self.snapshots.len() - self.pinned_count > cap {
            if !self.evict_oldest(false) {
                break;
            }
            evicted += 1;
        }
        evicted
    }

    /// Pins the snapshot at `path` (no-op if absent or already pinned)
    /// and enforces the per-shard pinned budget, evicting the oldest
    /// pinned entries. Returns the number of evictions performed.
    fn pin(&mut self, path: &VPath, pinned_cap: usize) -> u64 {
        match self.snapshots.get_mut(path) {
            Some(e) if !e.pinned => {
                e.pinned = true;
                self.pinned_count += 1;
            }
            _ => return 0,
        }
        let mut evicted = 0u64;
        while self.pinned_count > pinned_cap {
            if !self.evict_oldest(true) {
                break;
            }
            evicted += 1;
        }
        evicted
    }
}

/// One shard of the open-file indices: file-id-keyed snapshots, the set
/// of files created (not pre-existing) during the engine's watch, and
/// per-file read baselines for the collusion defense.
#[derive(Debug, Default)]
struct FileShard {
    snapshots: HashMap<FileId, FileSnapshot>,
    created: HashSet<FileId>,
    /// What the most recent reading family observed of each file's
    /// content. Keyed by **file**, not by process: a colluding pair that
    /// splits the plan across a reader pid and a writer pid leaves the
    /// writer's per-family entropy tracker without a read side, which is
    /// exactly the evidence split PR 9's study proved evades the
    /// scoreboard. When a *different* family first modifies the file, it
    /// inherits this baseline (see the engine's write handler). A
    /// write or truncate retires the entry — the content it described is
    /// gone.
    read_baselines: HashMap<FileId, ReadBaseline>,
}

/// The accumulated read-side evidence for one file: a length-weighted
/// entropy mean over the reading family's read payloads (matching
/// [`EntropyDeltaTracker`](crate::indicators::entropy_delta::EntropyDeltaTracker)'s
/// own weighting, so inheriting the baseline as a single observation is
/// equivalent to having observed every chunk). The issuing pid rides
/// along for the audit journal.
#[derive(Debug, Clone, Copy)]
pub(super) struct ReadBaseline {
    /// Σ entropy·len over the reads folded into this baseline.
    weighted: f64,
    /// Σ len over the same reads.
    pub(super) len: u64,
    /// The scoring key (family root) whose reads built the baseline.
    pub(super) reader_key: ProcessId,
    /// The concrete pid that issued the most recent read (audit trail).
    pub(super) reader_pid: ProcessId,
}

impl ReadBaseline {
    /// The length-weighted mean entropy of the folded reads.
    pub(super) fn entropy(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.weighted / self.len as f64
        }
    }
}

/// The path- and file-keyed snapshot shards with their LRU clock,
/// effectiveness counters and capacities. No method holds two shard
/// guards at once (`DESIGN.md` §7).
pub(super) struct SnapshotCache {
    paths: [Mutex<PathShard>; SHARDS],
    files: [Mutex<FileShard>; SHARDS],
    /// Global LRU clock for the path-snapshot cache.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// The per-shard snapshot capacity implied by
    /// [`Config::snapshot_cache_capacity`] (0 = unbounded).
    ///
    /// Capacities below [`SHARDS`] round up to one slot per shard, so a
    /// deliberately tiny cap (e.g. the bench `eviction_pressure` probe's
    /// 8) behaves as 16 single-entry caches: any shard visited by two or
    /// more paths of a cyclic sweep evicts one to admit the other on
    /// every pass. That evictions ≈ misses shape is the inherent LRU
    /// sweep pathology of capacity < working set, not a victim-order
    /// bug — see `cyclic_sweep_thrash_is_capacity_pathology_not_victim_order`.
    shard_cap: usize,
    /// The per-shard pinned-snapshot budget implied by
    /// [`Config::pinned_snapshot_budget`] (0 = unbounded).
    pinned_shard_cap: usize,
}

impl SnapshotCache {
    pub(super) fn new(cfg: &Config) -> Self {
        let per_shard = |n: usize| match n {
            0 => usize::MAX,
            n => n.div_ceil(SHARDS).max(1),
        };
        Self {
            paths: std::array::from_fn(|_| Mutex::new(PathShard::default())),
            files: std::array::from_fn(|_| Mutex::new(FileShard::default())),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            shard_cap: per_shard(cfg.snapshot_cache_capacity),
            pinned_shard_cap: per_shard(cfg.pinned_snapshot_budget),
        }
    }

    fn path(&self, path: &VPath) -> &Mutex<PathShard> {
        &self.paths[shard_index(path_key(path))]
    }

    fn file(&self, file: FileId) -> &Mutex<FileShard> {
        &self.files[shard_index(file.0)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    pub(super) fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts `snap` at `path` under the LRU cap, counting evictions.
    fn insert(&self, path: &VPath, snap: FileSnapshot, tick: u64) {
        let evicted = self
            .path(path)
            .lock()
            .insert_snapshot(path.clone(), snap, tick, self.shard_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    pub(super) fn stats(&self) -> CacheStats {
        let (mut resident, mut pinned) = (0u64, 0u64);
        for shard in &self.paths {
            let s = shard.lock();
            resident += s.snapshots.len() as u64;
            pinned += s.pinned_count as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
            pinned,
        }
    }

    /// Refreshes the path-keyed snapshot of `path` from `data` (its
    /// content at capture time). A resident snapshot carrying the same
    /// nonzero content stamp is reused in O(1); matching content
    /// fingerprints (the O(n) pass, only consulted when a stamp is
    /// unknown) also reuse it. On a miss, `memo` — the slot of the staged
    /// content `data` still equals, if any — lends the snapshot another
    /// namespace already captured (see [`Self::staged`]). The
    /// expensive capture runs without any shard lock held.
    pub(super) fn refresh(
        &self,
        cfg: &Config,
        path: &VPath,
        data: &[u8],
        stamp: u64,
        memo: Option<&MemoSlot>,
    ) {
        let tick = self.next_tick();
        if cfg.fingerprint_cache {
            let mut guard = self.path(path).lock();
            if let Some(entry) = guard.snapshots.get_mut(path) {
                // Two known, different stamps prove the content changed;
                // only an unknown stamp needs the fingerprint pass.
                let unchanged = if stamp != 0 && entry.snap.stamp != 0 {
                    entry.snap.stamp == stamp
                } else {
                    entry.snap.fingerprint == content_fingerprint(data)
                };
                if unchanged {
                    entry.tick = tick;
                    if cfg.incremental_analysis && stamp != 0 {
                        // Adopt the stamp so the next refresh is O(1).
                        entry.snap.stamp = stamp;
                    }
                    drop(guard);
                    self.hit();
                    return;
                }
            }
        }
        // The no-cache reference mode computes everything itself.
        let (snap, captured) = match memo.filter(|_| cfg.fingerprint_cache) {
            Some(slot) => Self::staged(cfg, slot, data, stamp),
            None => (Self::capture(cfg, data, stamp), true),
        };
        if captured {
            self.miss();
        } else {
            self.hit();
        }
        self.insert(path, snap, tick);
    }

    /// A fresh refresh snapshot of `data` under `cfg`.
    fn capture(cfg: &Config, data: &[u8], stamp: u64) -> FileSnapshot {
        if cfg.incremental_analysis {
            FileSnapshot::capture_incremental(data, cfg.max_digest_bytes, stamp, None)
        } else {
            FileSnapshot::capture(data, cfg.max_digest_bytes)
        }
    }

    /// The refresh snapshot of staged content, captured at most once for
    /// every namespace sharing `slot`, and whether this call captured.
    ///
    /// `data` equals the bytes the slot was staged with (the VFS detaches
    /// the slot before any byte changes), `stamp` is their content stamp,
    /// and a capture is a pure function of the bytes and the two config
    /// inputs recorded beside it. So an entry whose recorded inputs match
    /// is exactly the snapshot a local capture would produce; an engine
    /// whose inputs differ captures locally and leaves the entry alone.
    /// The snapshot's [`IncrState`](crate::state::IncrState) is shared,
    /// not copied, and serves the delta tier of a later close as a local
    /// one would.
    fn staged(cfg: &Config, slot: &MemoSlot, data: &[u8], stamp: u64) -> (FileSnapshot, bool) {
        let mut captured = false;
        let memo = slot.get_or_init(|| {
            captured = true;
            Arc::new(StagedSnapshot {
                max_digest_bytes: cfg.max_digest_bytes,
                incremental: cfg.incremental_analysis,
                snap: Self::capture(cfg, data, stamp),
            })
        });
        match memo.downcast_ref::<StagedSnapshot>() {
            Some(m)
                if m.max_digest_bytes == cfg.max_digest_bytes
                    && m.incremental == cfg.incremental_analysis =>
            {
                (m.snap.clone(), captured)
            }
            _ => (Self::capture(cfg, data, stamp), true),
        }
    }

    /// Whether `path`'s resident snapshot already carries `stamp`, so a
    /// refresh with it takes the O(1) branch. Touches no tick.
    pub(super) fn path_has_stamp(&self, path: &VPath, stamp: u64) -> bool {
        let shard = self.path(path).lock();
        shard.snapshots.get(path).is_some_and(|e| e.snap.stamp == stamp)
    }

    /// Propagates `path`'s snapshot to the just-opened `file`.
    pub(super) fn open(&self, path: &VPath, file: FileId) {
        let tick = self.next_tick();
        // Touch the LRU tick and read the stamp without cloning: on a
        // reopen the file shard usually still holds this snapshot, and a
        // matching nonzero stamp proves it content-identical — the
        // steady-state open then costs two map probes and zero
        // allocations.
        let stamp = {
            let mut shard = self.path(path).lock();
            shard.snapshots.get_mut(path).map(|e| {
                e.tick = tick;
                e.snap.stamp
            })
        };
        let Some(stamp) = stamp else {
            return;
        };
        if stamp != 0 && self.resident(file, |s| s.stamp == stamp) == Some(true) {
            return;
        }
        let snap = self.path(path).lock().get_snapshot(path, tick);
        if let Some(snap) = snap {
            self.file(file).lock().snapshots.insert(file, snap);
        }
    }

    /// Applies `f` to `file`'s resident snapshot, if any.
    pub(super) fn resident<R, F: FnOnce(&FileSnapshot) -> R>(&self, file: FileId, f: F) -> Option<R> {
        let shard = self.file(file).lock();
        shard.snapshots.get(&file).map(f)
    }

    /// The tier-1 close tail: both indices already hold the version
    /// stamped `stamp`, so only the path entry's LRU tick needs touching
    /// — unless the path index lost (or never had) this version, which
    /// is then re-seeded from the id index.
    pub(super) fn touch(&self, path: &VPath, file: FileId, stamp: u64) {
        let tick = self.next_tick();
        let path_stale = {
            let mut shard = self.path(path).lock();
            match shard.snapshots.get_mut(path) {
                Some(e) if e.snap.stamp == stamp => {
                    e.tick = tick;
                    false
                }
                _ => true,
            }
        };
        if path_stale {
            if let Some(snap) = self.resident(file, FileSnapshot::clone) {
                self.insert(path, snap, tick);
            }
        }
    }

    /// The close path's common tail: the file's "previous version" is now
    /// what was just written, so both snapshot indices are refreshed with
    /// `fresh`.
    pub(super) fn store(&self, path: &VPath, file: FileId, fresh: FileSnapshot) {
        self.file(file).lock().snapshots.insert(file, fresh.clone());
        let tick = self.next_tick();
        self.insert(path, fresh, tick);
    }

    /// Forgets a deleted file's id-keyed snapshot and pins its path-keyed
    /// one. Returns whether the file was created under observation.
    pub(super) fn delete(&self, path: &VPath, file: FileId) -> bool {
        let created = {
            let mut fsh = self.file(file).lock();
            fsh.snapshots.remove(&file);
            // The path-keyed snapshot is retained deliberately: a
            // Class C sample may later drop its encrypted copy at
            // this path.
            fsh.created.contains(&file)
        };
        // Pin the retained snapshot: the Class C link must survive
        // unrelated cache pressure, so post-delete snapshots leave
        // the LRU population and move to the pinned budget.
        let evicted = self.path(path).lock().pin(path, self.pinned_shard_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        created
    }

    /// The retained snapshot at a rename's replaced destination `to`, and
    /// whether the replaced file was created under observation.
    pub(super) fn replaced(&self, to: &VPath, replaced: FileId) -> (Option<FileSnapshot>, bool) {
        let tick = self.next_tick();
        let snap = self.path(to).lock().get_snapshot(to, tick);
        (snap, self.file(replaced).lock().created.contains(&replaced))
    }

    /// The moved file's own snapshot follows it to the new path.
    /// Whatever path-keyed history `from` held is consumed either way:
    /// the file is gone from that path, and a stale entry left behind
    /// would be served as the pre-image of an unrelated file that later
    /// lands at `from`.
    pub(super) fn follow_move(&self, from: &VPath, to: &VPath, file: FileId) {
        let moved_snap = self.resident(file, FileSnapshot::clone);
        let from_snap = self.path(from).lock().remove_snapshot(from);
        if let Some(snap) = moved_snap.or(from_snap) {
            let tick = self.next_tick();
            self.insert(to, snap, tick);
        }
    }

    /// Records that `file` was created (not pre-existing) under watch.
    pub(super) fn mark_created(&self, file: FileId) {
        self.file(file).lock().created.insert(file);
    }

    /// Whether `path` is tracked after moving out of a protected directory.
    pub(super) fn is_tracked(&self, path: &VPath) -> bool {
        self.path(path).lock().tracked.contains_key(path)
    }

    pub(super) fn untrack(&self, from: &VPath) -> bool {
        self.path(from).lock().tracked.remove(from).is_some()
    }

    /// Tracks `to`, a file that left the protected directories (Class B).
    pub(super) fn track(&self, to: &VPath, file: FileId) {
        self.path(to).lock().tracked.insert(to.clone(), file);
    }

    /// Folds one read of `n` bytes at entropy `h` into `file`'s read
    /// baseline, which family `key` (through its member `pid`) now owns.
    pub(super) fn fold_read(&self, file: FileId, key: ProcessId, pid: ProcessId, h: f64, n: usize) {
        let mut shard = self.file(file).lock();
        let fresh = ReadBaseline {
            weighted: 0.0,
            len: 0,
            reader_key: key,
            reader_pid: pid,
        };
        let b = shard.read_baselines.entry(file).or_insert(fresh);
        if b.reader_key != key {
            // A new family took over reading this file: its
            // observations supersede the stale baseline.
            *b = fresh;
        }
        b.weighted += h * n as f64;
        b.len += n as u64;
        b.reader_pid = pid;
    }

    /// One file-shard probe for a write or truncate: whether the file was
    /// created under observation, and its read baseline, retired because
    /// the content it described is gone.
    pub(super) fn retire_read(&self, file: FileId) -> (bool, Option<ReadBaseline>) {
        let mut shard = self.file(file).lock();
        (shard.created.contains(&file), shard.read_baselines.remove(&file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evict_oldest_removes_strictly_least_recently_touched() {
        let mut shard = PathShard::default();
        let snap = FileSnapshot::capture(b"payload", 1 << 16);
        let path = |i: u32| VPath::new(format!("/d/f{i}"));
        for (i, tick) in [(0u32, 5u64), (1, 2), (2, 9)] {
            shard.insert_snapshot(path(i), snap.clone(), tick, usize::MAX);
        }
        // Touching f1 (tick 2 → 10) promotes it past f0, so the LRU
        // victim order becomes f0 (5), then f2 (9), then f1 (10).
        shard.get_snapshot(&path(1), 10);
        assert!(shard.evict_oldest(false));
        assert!(!shard.snapshots.contains_key(&path(0)), "f0 is oldest");
        assert!(shard.evict_oldest(false));
        assert!(!shard.snapshots.contains_key(&path(2)), "then f2");
        assert!(shard.snapshots.contains_key(&path(1)), "touched f1 survives");
        // Pinned entries are invisible to unpinned eviction and vice versa.
        shard.insert_snapshot(path(3), snap.clone(), 1, usize::MAX);
        shard.pin(&path(3), usize::MAX);
        assert!(
            shard.evict_oldest(false),
            "f1 is the only unpinned entry left"
        );
        assert!(!shard.snapshots.contains_key(&path(1)));
        assert!(!shard.evict_oldest(false), "no unpinned victims remain");
        assert!(shard.snapshots.contains_key(&path(3)), "pinned f3 untouched");
        assert!(shard.evict_oldest(true), "pinned eviction finds f3");
        assert!(shard.snapshots.is_empty());
    }
}
