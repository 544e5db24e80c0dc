//! The copy-on-write shadow store.

// The store sits on the capture hot path of every destructive operation:
// a panic here poisons nothing (parking_lot) but still kills the
// operation that triggered it, so unwrap/expect are banned outright.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cryptodrop_simhash::content_fingerprint;
use cryptodrop_telemetry::{Counter, Gauge, Histogram, JournalKind, MetricsSnapshot, Telemetry};
use cryptodrop_vfs::shadow::{PreImage, ShadowSink};
use cryptodrop_vfs::{BlobStore, FileId, ProcessId, VPath};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Shadow-store sizing knobs.
///
/// Validated by the core session builder (`ConfigError::ZeroShadowBudget`
/// for a zero byte budget); bare construction is fine for tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowConfig {
    /// Maximum bytes of *unique* pre-image content held (deduplicated
    /// blobs count once). Exceeding the budget evicts the oldest
    /// unpinned entries; pinned entries (families with nonzero
    /// reputation) are never evicted, even if the budget is overrun.
    pub byte_budget: u64,
    /// Maximum number of journal entries held, enforced the same way.
    /// `0` means unbounded.
    pub max_entries: usize,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            // Far above any simulated corpus (the paper-scale corpus is
            // ~5.3 GB of simulated bytes, but a single attack's working
            // set is bounded by the detection latency — a median of ~10
            // files). 64 MiB comfortably shadows every experiment here.
            byte_budget: 64 * 1024 * 1024,
            max_entries: 1 << 16,
        }
    }
}

impl ShadowConfig {
    /// A store bounded only by `byte_budget`.
    pub fn with_budget(byte_budget: u64) -> Self {
        Self {
            byte_budget,
            ..Self::default()
        }
    }
}

/// `CacheStats`-style counters describing the store's lifetime activity:
/// a typed view of the `recovery.*` counters plus the live occupancy
/// (`entries`, `bytes_held`, `pinned_entries`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStats {
    /// Pre-images journaled: one per (file, family) run, taken by the
    /// run's first destructive operation.
    pub captures: u64,
    /// Captures skipped because the file's latest history event already
    /// belongs to the capturing family: the run's restore point is
    /// already journaled (or already lost), so a repeat adds nothing.
    pub coalesced: u64,
    /// Captures whose content was already resident (fingerprint dedup) —
    /// a new journal entry, but no new bytes.
    pub dedup_hits: u64,
    /// Entries evicted to honour the byte/entry budgets.
    pub evictions: u64,
    /// Times eviction wanted to free space but every remaining entry was
    /// pinned (the budget is overrun rather than dropping pinned shadows).
    pub pin_overflows: u64,
    /// Pre-images currently held: at most one per (file, family) run,
    /// fewer once eviction has replaced run starts with tombstones.
    pub entries: u64,
    /// Unique pre-image bytes currently held.
    pub bytes_held: u64,
    /// Entries currently pinned by nonzero-reputation families.
    pub pinned_entries: u64,
    /// Files restored to pre-attack bytes across all recoveries.
    pub files_restored: u64,
    /// Suspect-created files removed across all recoveries.
    pub files_removed: u64,
    /// Suspect renames moved back across all recoveries.
    pub renames_undone: u64,
    /// Recovery actions that could not be applied (evicted shadow,
    /// occupied path).
    pub restore_conflicts: u64,
    /// Pre-image captures that failed (reported through
    /// [`ShadowSink::capture_failed`]). A failure that starts a run
    /// leaves a tombstone, so that run restores as an explicit conflict,
    /// exactly like an eviction; one inside a run loses nothing the
    /// restore needs.
    pub capture_failures: u64,
}

impl ShadowStats {
    /// The event counts in `metrics` — one store's registry, or a fleet
    /// rollup — with zero occupancy, which only a live store knows.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        Self {
            captures: metrics.counter("recovery.shadow.captures"),
            coalesced: metrics.counter("recovery.shadow.coalesced"),
            dedup_hits: metrics.counter("recovery.shadow.dedup_hits"),
            evictions: metrics.counter("recovery.shadow.evictions"),
            pin_overflows: metrics.counter("recovery.shadow.pin_overflow"),
            files_restored: metrics.counter("recovery.files.restored"),
            files_removed: metrics.counter("recovery.files.removed"),
            renames_undone: metrics.counter("recovery.renames.undone"),
            restore_conflicts: metrics.counter("recovery.conflicts"),
            capture_failures: metrics.counter("recovery.shadow.capture_failures"),
            ..Self::default()
        }
    }
}

/// The store's registry handles, resolved once at construction.
#[derive(Debug)]
pub(crate) struct ShadowMetrics {
    captures: Counter,
    coalesced: Counter,
    dedup_hits: Counter,
    evictions: Counter,
    pin_overflows: Counter,
    capture_failures: Counter,
    pub(crate) files_restored: Counter,
    pub(crate) bytes_restored: Counter,
    pub(crate) files_removed: Counter,
    pub(crate) renames_undone: Counter,
    pub(crate) conflicts: Counter,
    pub(crate) restore_ns: Histogram,
    bytes: Gauge,
    entries: Gauge,
}

impl ShadowMetrics {
    fn new(t: &Telemetry) -> Self {
        Self {
            captures: t.counter("recovery.shadow.captures"),
            coalesced: t.counter("recovery.shadow.coalesced"),
            dedup_hits: t.counter("recovery.shadow.dedup_hits"),
            evictions: t.counter("recovery.shadow.evictions"),
            pin_overflows: t.counter("recovery.shadow.pin_overflow"),
            capture_failures: t.counter("recovery.shadow.capture_failures"),
            files_restored: t.counter("recovery.files.restored"),
            bytes_restored: t.counter("recovery.bytes.restored"),
            files_removed: t.counter("recovery.files.removed"),
            renames_undone: t.counter("recovery.renames.undone"),
            conflicts: t.counter("recovery.conflicts"),
            restore_ns: t.histogram("recovery.restore.ns"),
            bytes: t.gauge("recovery.shadow.bytes"),
            entries: t.gauge("recovery.shadow.entries"),
        }
    }
}

/// One journaled pre-image (content lives in a shared blob).
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) seq: u64,
    pub(crate) at_nanos: u64,
    pub(crate) family: ProcessId,
    pub(crate) path: VPath,
    pub(crate) file: FileId,
    pub(crate) fp: u64,
    pub(crate) len: u64,
    pub(crate) read_only: bool,
}

/// One step of a file's destructive history: the start of a run of
/// operations by one family.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// The run's pre-image is held: `seq` keys its [`Entry`].
    Shadow { seq: u64, family: ProcessId },
    /// The run's pre-image is gone (evicted) or was never taken (failed
    /// capture). Only who wrote, and where, remain.
    Tombstone {
        seq: u64,
        family: ProcessId,
        path: VPath,
    },
}

impl Event {
    fn seq(&self) -> u64 {
        match self {
            Event::Shadow { seq, .. } | Event::Tombstone { seq, .. } => *seq,
        }
    }

    pub(crate) fn family(&self) -> ProcessId {
        match self {
            Event::Shadow { family, .. } | Event::Tombstone { family, .. } => *family,
        }
    }
}

/// A suspect rename, remembered so recovery can undo it.
#[derive(Debug, Clone)]
pub(crate) struct RenameNote {
    pub(crate) seq: u64,
    pub(crate) family: ProcessId,
    pub(crate) file: FileId,
    pub(crate) from: VPath,
    pub(crate) to: VPath,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// seq → entry; BTreeMap iteration order *is* capture (LRU) order.
    pub(crate) entries: BTreeMap<u64, Entry>,
    /// file → its history (all families), in capture order.
    pub(crate) by_file: HashMap<FileId, Vec<Event>>,
    /// (fingerprint, len) → deduplicated content, in the refcounted
    /// [`BlobStore`] shared with fleet corpus staging.
    blobs: BlobStore,
    /// Files created (no pre-image) by each family root.
    pub(crate) created: HashMap<FileId, ProcessId>,
    /// Renames in capture order.
    pub(crate) renames: Vec<RenameNote>,
    /// family root → latest reputation score (pin source).
    reputation: HashMap<ProcessId, u32>,
    next_seq: u64,
}

impl Inner {
    fn pinned(&self, family: ProcessId) -> bool {
        self.reputation.get(&family).copied().unwrap_or(0) > 0
    }

    pub(crate) fn blob(&self, fp: u64, len: u64) -> Option<Arc<Vec<u8>>> {
        self.blobs.get(fp, len)
    }

    /// Whether `family` authored `file`'s latest history event, so a new
    /// destructive op by it continues that run.
    fn continues_run(&self, file: FileId, family: ProcessId) -> bool {
        self.by_file
            .get(&file)
            .and_then(|history| history.last())
            .is_some_and(|last| last.family() == family)
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Drops one entry's pre-image, leaving a tombstone in its place in
    /// the file's history. Returns the entry and the bytes released.
    fn evict(&mut self, seq: u64) -> Option<(Entry, u64)> {
        let entry = self.entries.remove(&seq)?;
        let event = self
            .by_file
            .get_mut(&entry.file)
            .and_then(|history| history.iter_mut().find(|e| e.seq() == seq));
        if let Some(event) = event {
            *event = Event::Tombstone {
                seq,
                family: entry.family,
                path: entry.path.clone(),
            };
        }
        let released = self.blobs.release(entry.fp, entry.len);
        Some((entry, released))
    }
}

/// The copy-on-write shadow store. See the [crate docs](crate) for the
/// overall design and restore semantics.
///
/// The store is `Sync` and normally shared as an `Arc`: the same instance
/// serves as the VFS's [`ShadowSink`] (capture side), the engine's
/// reputation feed (pin side) and the recovery entry point (restore
/// side).
#[derive(Debug)]
pub struct ShadowStore {
    cfg: ShadowConfig,
    pub(crate) inner: Mutex<Inner>,
    telemetry: Telemetry,
    pub(crate) metrics: ShadowMetrics,
}

impl ShadowStore {
    /// An empty store with the given budgets and a disabled telemetry
    /// sink of its own.
    pub fn new(cfg: ShadowConfig) -> Self {
        Self::with_telemetry(cfg, Telemetry::disabled())
    }

    /// An empty store counting into `telemetry`'s `recovery.*` metrics
    /// and journaling `ShadowEvict` and `Recovery` events through it.
    pub fn with_telemetry(cfg: ShadowConfig, telemetry: Telemetry) -> Self {
        Self {
            cfg,
            inner: Mutex::new(Inner::default()),
            metrics: ShadowMetrics::new(&telemetry),
            telemetry,
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &ShadowConfig {
        &self.cfg
    }

    /// The telemetry handle the store reports through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Updates a process family's reputation score. Entries belonging to
    /// families with nonzero scores are pinned against eviction. The
    /// engine calls this from its scoring path; scores only ever grow.
    pub fn set_reputation(&self, family: ProcessId, score: u32) {
        self.inner.lock().reputation.insert(family, score);
    }

    /// The store's counters: the `recovery.*` counts of its telemetry
    /// sink, with the occupancy read under the store lock.
    pub fn stats(&self) -> ShadowStats {
        let inner = self.inner.lock();
        let mut stats = ShadowStats::from_metrics(&self.telemetry.metrics().snapshot());
        stats.entries = inner.entries.len() as u64;
        stats.bytes_held = inner.blobs.bytes_held();
        stats.pinned_entries = inner
            .entries
            .values()
            .filter(|e| inner.pinned(e.family))
            .count() as u64;
        stats
    }

    /// Unique pre-image bytes currently held.
    pub fn bytes_held(&self) -> u64 {
        self.inner.lock().blobs.bytes_held()
    }

    /// Journal entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts oldest-unpinned entries until both budgets are honoured (or
    /// only pinned entries remain). Call with the lock held.
    ///
    /// Under *byte* pressure the victim is the oldest unpinned entry that
    /// would actually release bytes — one holding the last reference to
    /// its dedup'd blob. Evicting a shared-blob entry frees nothing, so
    /// naively walking oldest-first lets one over-budget capture storm
    /// through an unbounded run of zero-release evictions before reaching
    /// an entry that helps; those shared entries are skipped (kept) when
    /// a later unpinned entry can free real bytes. When no unpinned entry
    /// releases anything — or the overage is entry-count only — the
    /// oldest unpinned entry is evicted as before.
    fn enforce_budget(&self, inner: &mut Inner) {
        loop {
            let over_bytes = inner.blobs.bytes_held() > self.cfg.byte_budget;
            let over_entries =
                self.cfg.max_entries != 0 && inner.entries.len() > self.cfg.max_entries;
            if !over_bytes && !over_entries {
                return;
            }
            let mut oldest_unpinned = None;
            let mut releasing = None;
            for e in inner.entries.values() {
                if inner.pinned(e.family) {
                    continue;
                }
                if oldest_unpinned.is_none() {
                    oldest_unpinned = Some(e.seq);
                    if !over_bytes {
                        // Entry-count pressure only: any eviction helps,
                        // take the oldest.
                        break;
                    }
                }
                if over_bytes && inner.blobs.ref_count(e.fp, e.len) == 1 {
                    releasing = Some(e.seq);
                    break;
                }
            }
            let Some(seq) = releasing.or(oldest_unpinned) else {
                self.metrics.pin_overflows.inc();
                return;
            };
            let Some((entry, released)) = inner.evict(seq) else {
                // Unreachable (the seq came from the live entry map), but
                // eviction must never panic the capture path.
                return;
            };
            self.metrics.evictions.inc();
            self.set_occupancy(inner);
            self.telemetry
                .journal_event(entry.at_nanos, entry.family.0, || JournalKind::ShadowEvict {
                    path: entry.path.as_str().to_string(),
                    bytes: released,
                });
        }
    }
}

impl ShadowSink for ShadowStore {
    fn capture(&self, pre: &PreImage<'_>) {
        let mut inner = self.inner.lock();

        // Run rule: restore only ever needs the pre-image at the start of
        // a family's run of writes to a file. Once the run's first
        // capture is journaled (or its tombstone recorded), a repeat adds
        // nothing — skip before hashing or copying a byte.
        if inner.continues_run(pre.file, pre.family_root) {
            self.metrics.coalesced.inc();
            return;
        }

        let fp = content_fingerprint(pre.data);
        let len = pre.data.len() as u64;
        let (_blob, dedup_hit) = inner.blobs.acquire_with(fp, len, || pre.data.to_vec());
        if dedup_hit {
            self.metrics.dedup_hits.inc();
        }

        let seq = inner.next_seq();
        inner.entries.insert(
            seq,
            Entry {
                seq,
                at_nanos: pre.at_nanos,
                family: pre.family_root,
                path: pre.path.clone(),
                file: pre.file,
                fp,
                len,
                read_only: pre.read_only,
            },
        );
        inner
            .by_file
            .entry(pre.file)
            .or_default()
            .push(Event::Shadow {
                seq,
                family: pre.family_root,
            });
        self.metrics.captures.inc();
        self.set_occupancy(&inner);
        self.enforce_budget(&mut inner);
    }

    fn capture_failed(
        &self,
        _pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        path: &VPath,
    ) {
        // Inside a run the restore point is already held, so a lost
        // repeat costs nothing. A lost run start is recorded as a
        // tombstone: recovery then surfaces an explicit `ShadowEvicted`
        // conflict for the file instead of restoring a later, possibly
        // corrupted, pre-image.
        let mut inner = self.inner.lock();
        if !inner.continues_run(file, family_root) {
            let seq = inner.next_seq();
            inner
                .by_file
                .entry(file)
                .or_default()
                .push(Event::Tombstone {
                    seq,
                    family: family_root,
                    path: path.clone(),
                });
        }
        self.metrics.capture_failures.inc();
        self.telemetry.journal_event(0, family_root.0, || JournalKind::Recovery {
            action: "capture-failed".to_string(),
            path: path.as_str().to_string(),
            bytes: 0,
        });
    }

    fn note_created(&self, _pid: ProcessId, family_root: ProcessId, file: FileId, _path: &VPath) {
        // First creator wins: a file deleted and re-created keeps its
        // original provenance only if the ids differ (they always do —
        // FileIds are never reused).
        self.inner.lock().created.entry(file).or_insert(family_root);
    }

    fn note_rename(
        &self,
        _pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        from: &VPath,
        to: &VPath,
    ) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq();
        inner.renames.push(RenameNote {
            seq,
            family: family_root,
            file,
            from: from.clone(),
            to: to.clone(),
        });
    }
}

impl ShadowStore {
    /// Publishes the held bytes and entries to the occupancy gauges.
    fn set_occupancy(&self, inner: &Inner) {
        self.metrics.bytes.set(inner.blobs.bytes_held() as i64);
        self.metrics.entries.set(inner.entries.len() as i64);
    }

    /// Drops the suspect family's journal state after a recovery (its
    /// shadows are no longer needed; blob bytes shared with other
    /// families survive via refcounts). Called by
    /// [`ShadowStore::restore`].
    pub(crate) fn finish_recovery(&self, family: ProcessId) {
        let mut inner = self.inner.lock();
        inner.by_file.retain(|_, history| {
            history.retain(|e| e.family() != family);
            !history.is_empty()
        });
        let Inner { entries, blobs, .. } = &mut *inner;
        entries.retain(|_, e| {
            let keep = e.family != family;
            if !keep {
                blobs.release(e.fp, e.len);
            }
            keep
        });
        inner.renames.retain(|r| r.family != family);
        inner.created.retain(|_, fam| *fam != family);
        self.set_occupancy(&inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_vfs::shadow::MutationKind;

    /// Whether `file` still has a pre-image in the store (rather than no
    /// history, or only tombstones).
    fn holds(inner: &Inner, file: u64) -> bool {
        inner
            .by_file
            .get(&FileId(file))
            .is_some_and(|history| history.iter().any(|e| matches!(e, Event::Shadow { .. })))
    }

    fn img<'a>(
        pid: u32,
        kind: MutationKind,
        path: &'a VPath,
        file: u64,
        data: &'a [u8],
    ) -> PreImage<'a> {
        PreImage {
            pid: ProcessId(pid),
            family_root: ProcessId(pid),
            at_nanos: 0,
            kind,
            path,
            file: FileId(file),
            data,
            read_only: false,
        }
    }

    #[test]
    fn capture_dedup_and_coalesce() {
        let store = ShadowStore::new(ShadowConfig::default());
        let a = VPath::new("/a");
        let b = VPath::new("/b");
        store.capture(&img(1, MutationKind::Write, &a, 1, b"same"));
        // Identical content on a *different* file dedups bytes.
        store.capture(&img(1, MutationKind::Write, &b, 2, b"same"));
        // Identical content on the *same* file coalesces entirely.
        store.capture(&img(1, MutationKind::Write, &a, 1, b"same"));
        let stats = store.stats();
        assert_eq!(stats.captures, 2);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.bytes_held, 4);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn byte_budget_evicts_oldest_unpinned_first() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        store.capture(&img(1, MutationKind::Write, &p1, 1, b"aaaaa")); // 5 bytes
        store.capture(&img(2, MutationKind::Write, &p2, 2, b"bbbbb")); // 10 bytes
        store.capture(&img(3, MutationKind::Write, &p3, 3, b"ccccc")); // 15 -> evict oldest
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_held, 10);
        let inner = store.inner.lock();
        assert!(!holds(&inner, 1), "oldest evicted");
        assert!(holds(&inner, 3));
    }

    #[test]
    fn nonzero_reputation_pins_shadows() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        store.set_reputation(ProcessId(1), 42);
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        store.capture(&img(1, MutationKind::Write, &p1, 1, b"aaaaa"));
        store.capture(&img(2, MutationKind::Write, &p2, 2, b"bbbbb"));
        store.capture(&img(1, MutationKind::Delete, &p3, 3, b"ccccc"));
        // The unpinned family-2 entry goes; family-1 entries survive.
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.pinned_entries, 2);
        let inner = store.inner.lock();
        assert!(holds(&inner, 1));
        assert!(!holds(&inner, 2));
        assert!(holds(&inner, 3));
    }

    #[test]
    fn all_pinned_overruns_budget_and_counts() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 4,
            max_entries: 0,
        });
        store.set_reputation(ProcessId(1), 1);
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        store.capture(&img(1, MutationKind::Write, &p1, 1, b"xxxx"));
        store.capture(&img(1, MutationKind::Write, &p2, 2, b"yyyy"));
        let stats = store.stats();
        assert_eq!(stats.evictions, 0);
        assert!(stats.pin_overflows >= 1);
        assert_eq!(stats.bytes_held, 8, "budget overrun rather than unpinning");
    }

    #[test]
    fn entry_budget_enforced() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: u64::MAX,
            max_entries: 2,
        });
        for i in 0..5u64 {
            let p = VPath::new(format!("/{i}"));
            let data = vec![i as u8; 3];
            store.capture(&img(9, MutationKind::Write, &p, i + 1, &data));
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn shared_blob_eviction_prefers_a_releasing_victim() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 6,
            max_entries: 0,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        store.capture(&img(1, MutationKind::Write, &p1, 1, b"dup")); // 3
        store.capture(&img(2, MutationKind::Write, &p2, 2, b"dup")); // dedup: still 3
        store.capture(&img(3, MutationKind::Write, &p3, 3, b"unique")); // 9 > 6
        // Entries 1 and 2 share one blob, so evicting either frees
        // nothing. The victim loop skips them in favour of the one entry
        // whose removal actually releases bytes: one eviction, not a
        // cascade through the whole shared run.
        let stats = store.stats();
        assert_eq!(stats.bytes_held, 3);
        assert_eq!(stats.evictions, 1);
        let inner = store.inner.lock();
        assert!(holds(&inner, 1));
        assert!(holds(&inner, 2));
        assert!(!holds(&inner, 3));
        assert_eq!(inner.entries.len(), 2);
    }

    #[test]
    fn shared_blob_overage_does_not_storm_evict() {
        // Regression: one over-budget capture used to evict an unbounded
        // run of shared-blob entries (each releasing 0 bytes) before
        // reaching an entry that freed anything.
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        let shared = b"aaa"; // 3 bytes, shared across 4 files
        for file in 1..=4u64 {
            let p = VPath::new(format!("/shared/{file}"));
            store.capture(&img(1, MutationKind::Write, &p, file, shared));
        }
        let p5 = VPath::new("/unique/5");
        store.capture(&img(2, MutationKind::Write, &p5, 5, b"bbbbbb")); // 9 total
        let p6 = VPath::new("/unique/6");
        store.capture(&img(3, MutationKind::Write, &p6, 6, b"cccccc")); // 15 > 10
        let stats = store.stats();
        assert_eq!(
            stats.evictions, 1,
            "exactly one releasing victim, no zero-release cascade"
        );
        assert_eq!(stats.bytes_held, 9);
        let inner = store.inner.lock();
        for file in 1..=4u64 {
            assert!(holds(&inner, file), "shared entries survive");
        }
        assert!(!holds(&inner, 5), "oldest releasing entry evicted");
        assert!(holds(&inner, 6));
    }

    #[test]
    fn entry_overage_still_evicts_oldest_unpinned() {
        // Entry-count pressure has no byte dimension: the victim stays
        // the oldest unpinned entry even when its blob is shared.
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: u64::MAX,
            max_entries: 2,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        store.capture(&img(1, MutationKind::Write, &p1, 1, b"dup"));
        store.capture(&img(2, MutationKind::Write, &p2, 2, b"dup"));
        store.capture(&img(3, MutationKind::Write, &p3, 3, b"unique"));
        let inner = store.inner.lock();
        assert!(!holds(&inner, 1), "oldest evicted");
        assert!(holds(&inner, 2));
        assert!(holds(&inner, 3));
    }

    #[test]
    fn a_run_journals_only_its_first_pre_image() {
        let store = ShadowStore::new(ShadowConfig::default());
        let doc = VPath::new("/doc");
        // Family 1 rewrites the file three times (different bytes each
        // time, different kinds), family 2 twice, family 1 again.
        store.capture(&img(1, MutationKind::Write, &doc, 1, b"v0"));
        store.capture(&img(1, MutationKind::Write, &doc, 1, b"e1"));
        store.capture(&img(1, MutationKind::Truncate, &doc, 1, b"e2"));
        store.capture(&img(2, MutationKind::Write, &doc, 1, b"v1"));
        store.capture(&img(2, MutationKind::Write, &doc, 1, b"v2"));
        store.capture(&img(1, MutationKind::Delete, &doc, 1, b"v3"));
        let stats = store.stats();
        assert_eq!(stats.captures, 3, "one per (file, family) run");
        assert_eq!(stats.coalesced, 3);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes_held, 6, "run starts v0, v1 and v3 only");
        let inner = store.inner.lock();
        let families: Vec<u32> = inner.by_file[&FileId(1)]
            .iter()
            .map(|e| e.family().0)
            .collect();
        assert_eq!(families, [1, 2, 1]);
    }

    #[test]
    fn eviction_leaves_a_tombstone_that_keeps_the_run() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 5,
            max_entries: 0,
        });
        let a = VPath::new("/a");
        let b = VPath::new("/b");
        store.capture(&img(1, MutationKind::Write, &a, 1, b"aaaaa"));
        store.capture(&img(2, MutationKind::Write, &b, 2, b"bbbbb")); // evicts /a
        assert_eq!(store.stats().evictions, 1);
        // The lost run start still owns the run: a repeat by family 1
        // coalesces into the tombstone instead of journaling a later,
        // already-overwritten pre-image as the restore point.
        store.capture(&img(1, MutationKind::Write, &a, 1, b"ENC"));
        let stats = store.stats();
        assert_eq!(stats.captures, 2);
        assert_eq!(stats.coalesced, 1);
        let inner = store.inner.lock();
        assert!(matches!(
            inner.by_file[&FileId(1)][..],
            [Event::Tombstone {
                family: ProcessId(1),
                ..
            }]
        ));
    }

    #[test]
    fn capture_failed_leaves_a_tombstone_only_at_a_run_start() {
        let store = ShadowStore::new(ShadowConfig::default());
        let p = VPath::new("/doc");
        // A lost run start: tombstoned for the family root, not the child
        // pid.
        store.capture_failed(ProcessId(2), ProcessId(1), FileId(7), &p);
        // A lost repeat inside family 3's run: counted, nothing recorded.
        store.capture(&img(3, MutationKind::Write, &p, 8, b"held"));
        store.capture_failed(ProcessId(3), ProcessId(3), FileId(8), &p);
        assert_eq!(store.stats().capture_failures, 2);
        let inner = store.inner.lock();
        assert!(matches!(
            inner.by_file[&FileId(7)][..],
            [Event::Tombstone {
                family: ProcessId(1),
                ..
            }]
        ));
        assert!(matches!(
            inner.by_file[&FileId(8)][..],
            [Event::Shadow {
                family: ProcessId(3),
                ..
            }]
        ));
    }
}
