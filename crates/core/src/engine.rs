//! The CryptoDrop analysis engine (paper §IV, Fig. 2).
//!
//! [`CryptoDrop`] implements the VFS [`FilterDriver`] interface — the
//! analogue of the paper's kernel minifilter + analysis engine pair. It
//! watches every operation against the protected directories (and against
//! files *moved out* of them, defeating Class B laundering), maintains the
//! per-process reputation scoreboard, and returns a suspension verdict when
//! a process crosses its effective threshold.
//!
//! Because the filter is owned by the [`Vfs`](cryptodrop_vfs::Vfs) once
//! registered, construction returns a paired [`Monitor`] handle sharing the
//! engine's state, through which callers read scores, summaries, and
//! detection reports — the "user notification" side of Fig. 2.
//!
//! # Concurrency and caching
//!
//! The engine's state is split into independently locked shards so that
//! several [`Vfs`](cryptodrop_vfs::Vfs) instances (one per OS thread, see
//! [`CryptoDrop::fork`]) can drive one shared scoreboard without
//! contending unless they actually touch the same process family, path, or
//! file. Snapshots are keyed by a 64-bit content fingerprint so re-opening
//! or re-closing a file whose bytes have not changed skips the expensive
//! sniff/sdhash/entropy recompute entirely; see `DESIGN.md` ("Engine
//! concurrency & caching") for the shard layout and cache invariants.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cryptodrop_entropy::ByteHistogram;
use cryptodrop_simhash::{content_fingerprint, FeatureCache, SdDigest};
use cryptodrop_sniff::{sniff, FileType};
use cryptodrop_telemetry::{Counter, Histogram, JournalKind, Telemetry};
use cryptodrop_vfs::{
    DirtyReport, FileId, FilterDriver, FsOp, FsView, MemoSlot, OpContext, OpOutcome, ProcessId,
    VPath, Verdict, MAX_DIRTY_EXTENTS,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::Config;
use crate::indicators::similarity::{self, PostImageDigest, SimilarityOutcome};
use crate::indicators::type_change::{self, TypeChangeOutcome};
use crate::indicators::{Indicator, IndicatorHit};
use crate::pipeline::PipelineShared;
use crate::record::{OpRecord, RecordBody};
use crate::state::{FileSnapshot, IncrState, ProcessState, ProcessSummary};

/// The suspension reason issued when a member of an already-flagged (and
/// not user-permitted) process family keeps issuing operations.
const FAMILY_FLAGGED: &str = "cryptodrop: process family previously flagged";

/// A detection: one process crossed its threshold and was suspended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// The offending process.
    pub pid: ProcessId,
    /// Its executable name.
    pub process_name: String,
    /// The score at detection time.
    pub score: u32,
    /// The threshold that was crossed (union-lowered if applicable).
    pub threshold: u32,
    /// Whether union indication had occurred (paper §V-B2 reports 93% of
    /// samples with at least one union indication).
    pub union_triggered: bool,
    /// Pre-existing protected files lost before detection — the paper's
    /// primary metric (§V-B1).
    pub files_lost: u32,
    /// Simulated detection time.
    pub at_nanos: u64,
    /// The primary indicators that had fired.
    pub primaries_seen: Vec<Indicator>,
}

impl DetectionReport {
    /// The human-readable suspension reason delivered to the VFS (and
    /// recorded in the process table's suspension record).
    pub fn reason(&self) -> String {
        format!(
            "cryptodrop: score {} reached threshold {}{} after {} files lost",
            self.score,
            self.threshold,
            if self.union_triggered {
                " (union indication)"
            } else {
                ""
            },
            self.files_lost
        )
    }
}

/// The refresh snapshot memoised on a staged buffer's [`MemoSlot`], with
/// the config inputs it was captured under.
struct StagedSnapshot {
    max_digest_bytes: usize,
    incremental: bool,
    snap: FileSnapshot,
}

/// Snapshot-cache effectiveness counters, exposed via
/// [`Monitor::cache_stats`].
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
    /// Times the fingerprint-cache hit path found its snapshot missing
    /// and degraded to a recompute instead of panicking. Always 0 in a
    /// healthy engine.
    pub anomalies: u64,
}

/// Shard fan-out. 16 shards keeps the fixed arrays tiny while making
/// same-shard collisions between unrelated process families / paths rare
/// at the process counts the workloads produce.
const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// Maps an already-hashed key to its shard. The Fibonacci multiplier
/// spreads small sequential ids (pids, file ids) across shards.
fn shard_index(key: u64) -> usize {
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

/// One shard of the per-process-family scoreboard.
#[derive(Debug, Default)]
struct FamilyShard {
    processes: HashMap<ProcessId, ProcessState>,
}

impl FamilyShard {
    fn process_mut<'a>(
        processes: &'a mut HashMap<ProcessId, ProcessState>,
        cfg: &Config,
        pid: ProcessId,
        name: &str,
    ) -> &'a mut ProcessState {
        processes
            .entry(pid)
            .or_insert_with(|| ProcessState::new(pid, name, &cfg.score))
    }
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
    /// inherits this baseline (see `RecordBody::Write` handling). A
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
struct ReadBaseline {
    /// Σ entropy·len over the reads folded into this baseline.
    weighted: f64,
    /// Σ len over the same reads.
    len: u64,
    /// The scoring key (family root) whose reads built the baseline.
    reader_key: ProcessId,
    /// The concrete pid that issued the most recent read (audit trail).
    reader_pid: ProcessId,
}

impl ReadBaseline {
    /// The length-weighted mean entropy of the folded reads.
    fn entropy(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.weighted / self.len as f64
        }
    }
}

/// Telemetry handles the engine resolves once at construction, so the
/// per-operation cost when telemetry is enabled is an atomic bump — not a
/// registry lookup — and exactly one branch when it is disabled.
struct EngineMetrics {
    /// Per-indicator evaluation latency (measured wall-clock nanoseconds),
    /// indexed by the indicator's position in [`Indicator::ALL`] (which
    /// matches its discriminant).
    eval_ns: [Histogram; Indicator::ALL.len()],
    /// Per-indicator fire counts, same indexing.
    fires: [Counter; Indicator::ALL.len()],
    /// Suspension verdicts issued.
    detections: Counter,
    /// Modified closes resolved by the content stamp alone: no sniff, no
    /// digest, no fingerprint pass (the incremental fast path's best case).
    incr_stamp_skips: Counter,
    /// Changed closes analysed from their dirty extents (histogram delta
    /// plus sdhash feature splice) instead of a whole-content recompute.
    incr_delta: Counter,
    /// Changed closes that fell back to the whole-content recompute
    /// (interference, truncation, scattered writes, oversized files, or no
    /// retained intermediates).
    incr_full: Counter,
    /// Destructive operations that hit a registered decoy file (each an
    /// instant maximum-confidence detection).
    decoy_trips: Counter,
    /// Operations delayed by reputation-driven throttling.
    throttled_ops: Counter,
    /// Threshold checks evaluated under a non-`None` decay policy.
    decay_checks: Counter,
    /// Threshold checks where the raw score had reached the threshold
    /// but the decayed score held below it (a suspension the decay
    /// policy suppressed — the cost side of forgetting old evidence).
    decay_suppressed: Counter,
    /// First-modification tokens drawn from family rate buckets.
    rate_consumed: Counter,
    /// First modifications that found their family's bucket dry.
    rate_exhausted: Counter,
    /// Destructive operations delayed because the family's rate budget
    /// was exhausted.
    rate_throttled: Counter,
    /// Cross-family read baselines folded into a writing family's
    /// entropy tracker (the collusion defense firing).
    baselines_inherited: Counter,
}

impl EngineMetrics {
    fn new(t: &Telemetry) -> Self {
        debug_assert!(Indicator::ALL
            .iter()
            .enumerate()
            .all(|(i, ind)| *ind as usize == i));
        Self {
            eval_ns: std::array::from_fn(|i| {
                t.histogram(&format!("engine.eval.{}.ns", Indicator::ALL[i].name()))
            }),
            fires: std::array::from_fn(|i| {
                t.counter(&format!("engine.indicator.{}.fires", Indicator::ALL[i].name()))
            }),
            detections: t.counter("engine.detections"),
            incr_stamp_skips: t.counter("engine.incremental.stamp_skips"),
            incr_delta: t.counter("engine.incremental.delta_applied"),
            incr_full: t.counter("engine.incremental.full_recompute"),
            decoy_trips: t.counter("engine.decoy.trips"),
            throttled_ops: t.counter("engine.throttle.ops"),
            decay_checks: t.counter("engine.decay.checks"),
            decay_suppressed: t.counter("engine.decay.suppressed"),
            rate_consumed: t.counter("engine.rate.tokens_consumed"),
            rate_exhausted: t.counter("engine.rate.exhausted"),
            rate_throttled: t.counter("engine.rate.throttled_ops"),
            baselines_inherited: t.counter("engine.entropy.baselines_inherited"),
        }
    }
}

/// The sharded engine state shared by [`CryptoDrop`] and [`Monitor`]
/// (and by every fork of the engine).
struct EngineShared {
    families: [Mutex<FamilyShard>; SHARDS],
    paths: [Mutex<PathShard>; SHARDS],
    files: [Mutex<FileShard>; SHARDS],
    detections: Mutex<Vec<DetectionReport>>,
    /// Global LRU clock for the path-snapshot cache.
    tick: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    /// Times the unchanged-close fast path found its snapshot missing and
    /// degraded to a recompute. Always 0 in a healthy engine.
    cache_anomalies: AtomicU64,
    telemetry: Telemetry,
    metrics: EngineMetrics,
    /// Registered decoy files, pre-hashed once at construction from
    /// [`Config::decoy_paths`] so the per-operation tripwire is a single
    /// set probe (and free when no decoys are configured).
    decoys: HashSet<VPath>,
}

impl EngineShared {
    fn new(telemetry: Telemetry, decoys: HashSet<VPath>) -> Self {
        let metrics = EngineMetrics::new(&telemetry);
        Self {
            families: std::array::from_fn(|_| Mutex::new(FamilyShard::default())),
            paths: std::array::from_fn(|_| Mutex::new(PathShard::default())),
            files: std::array::from_fn(|_| Mutex::new(FileShard::default())),
            detections: Mutex::new(Vec::new()),
            tick: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_evictions: AtomicU64::new(0),
            cache_anomalies: AtomicU64::new(0),
            telemetry,
            metrics,
            decoys,
        }
    }
}

impl EngineShared {
    fn family_shard(&self, pid: ProcessId) -> &Mutex<FamilyShard> {
        &self.families[shard_index(u64::from(pid.0))]
    }

    fn path_shard(&self, path: &VPath) -> &Mutex<PathShard> {
        &self.paths[shard_index(path_key(path))]
    }

    fn file_shard(&self, file: FileId) -> &Mutex<FileShard> {
        &self.files[shard_index(file.0)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Path is in scope: protected, or currently tracked after moving out
    /// of a protected directory.
    fn in_scope(&self, cfg: &Config, path: &VPath) -> bool {
        cfg.is_protected(path) || self.path_shard(path).lock().tracked.contains_key(path)
    }

    fn cache_stats(&self) -> CacheStats {
        let (mut resident, mut pinned) = (0u64, 0u64);
        for shard in &self.paths {
            let s = shard.lock();
            resident += s.snapshots.len() as u64;
            pinned += s.pinned_count as u64;
        }
        CacheStats {
            hits: self.cache_hits.load(Ordering::Relaxed),
            misses: self.cache_misses.load(Ordering::Relaxed),
            evictions: self.cache_evictions.load(Ordering::Relaxed),
            resident,
            pinned,
            anomalies: self.cache_anomalies.load(Ordering::Relaxed),
        }
    }
}

/// The CryptoDrop filter driver. Build a [`Session`](crate::Session) with
/// [`CryptoDrop::builder`], register [`Session::fork`](crate::Session::fork)
/// drivers on [`Vfs`](cryptodrop_vfs::Vfs) instances, and read results
/// through the session's [`Monitor`] view.
///
/// # Examples
///
/// ```
/// use cryptodrop::{Config, CryptoDrop};
/// use cryptodrop_vfs::{Vfs, VPath};
///
/// let mut fs = Vfs::new();
/// let docs = VPath::new("/docs");
/// let session = CryptoDrop::builder()
///     .protecting("/docs")
///     .build()
///     .expect("valid config");
/// fs.register_filter(Box::new(session.fork()));
///
/// let pid = fs.spawn_process("app.exe");
/// fs.create_dir_all(pid, &docs).unwrap();
/// fs.write_file(pid, &docs.join("note.txt"), b"benign note").unwrap();
/// assert_eq!(session.score(pid), 0);
/// assert!(session.detections().is_empty());
/// ```
pub struct CryptoDrop {
    cfg: Arc<Config>,
    shared: Arc<EngineShared>,
    /// When attached, in-scope records are enqueued to the analysis
    /// pipeline instead of being processed inline.
    pipeline: Option<Arc<PipelineShared>>,
    /// When attached, scoring feeds family reputation to the shadow store
    /// so a brewing suspect's pre-images are pinned against eviction.
    shadow: Option<Arc<cryptodrop_recovery::ShadowStore>>,
}

/// A shared read handle onto a [`CryptoDrop`] engine's state.
#[derive(Clone)]
pub struct Monitor {
    cfg: Arc<Config>,
    shared: Arc<EngineShared>,
}

impl CryptoDrop {
    /// Starts building a [`Session`](crate::Session): the one entry point
    /// for configuring, validating, and running a detector — inline or
    /// pipelined. Subsumes the deprecated `new`/`new_with_telemetry`/
    /// `fork`/`fork_engine` constructors.
    pub fn builder() -> crate::session::SessionBuilder {
        crate::session::SessionBuilder::new()
    }

    /// Creates an engine and its monitor handle, with telemetry disabled
    /// (the observability hooks cost one predicted-false branch each).
    #[cfg(feature = "legacy-api")]
    #[deprecated(
        note = "use `CryptoDrop::builder()....build()` for a validated Session; \
                register `Session::fork()` and read through the session's Monitor view"
    )]
    pub fn new(config: Config) -> (CryptoDrop, Monitor) {
        Self::with_telemetry_inner(config, Telemetry::disabled())
    }

    /// Creates an engine wired to a [`Telemetry`] handle. When the handle
    /// is enabled, the engine records per-indicator evaluation timings and
    /// fire counts into its metric registry and journals every indicator
    /// contribution, suspension, and cache anomaly — the raw material for
    /// [`Monitor::audit_trail`] and the experiment telemetry summaries.
    /// Share the same handle with `cryptodrop_vfs::Vfs::set_telemetry` to
    /// interleave the filter's op/verdict events with the engine's on one
    /// timeline.
    #[cfg(feature = "legacy-api")]
    #[deprecated(
        note = "use `CryptoDrop::builder().telemetry(..)....build()` for a validated Session"
    )]
    pub fn new_with_telemetry(config: Config, telemetry: Telemetry) -> (CryptoDrop, Monitor) {
        Self::with_telemetry_inner(config, telemetry)
    }

    /// The non-deprecated construction path behind both the builder and
    /// the legacy shims. Does **not** validate `config`; the builder does.
    pub(crate) fn with_telemetry_inner(
        config: Config,
        telemetry: Telemetry,
    ) -> (CryptoDrop, Monitor) {
        let decoys: HashSet<VPath> = config.decoy_paths.iter().cloned().collect();
        let cfg = Arc::new(config);
        let shared = Arc::new(EngineShared::new(telemetry, decoys));
        (
            CryptoDrop {
                cfg: Arc::clone(&cfg),
                shared: Arc::clone(&shared),
                pipeline: None,
                shadow: None,
            },
            Monitor { cfg, shared },
        )
    }

    /// Creates another driver over the same scoreboard, snapshot cache,
    /// and detection log. Register forks on additional
    /// [`Vfs`](cryptodrop_vfs::Vfs) instances — one per thread — to share
    /// one engine across concurrent filesystems; unrelated process
    /// families never contend on a lock (they hash to distinct shards).
    #[cfg(feature = "legacy-api")]
    #[deprecated(note = "use `Session::fork()`; forks made there also carry the pipeline handle")]
    pub fn fork(&self) -> CryptoDrop {
        self.fork_inner()
    }

    pub(crate) fn fork_inner(&self) -> CryptoDrop {
        CryptoDrop {
            cfg: Arc::clone(&self.cfg),
            shared: Arc::clone(&self.shared),
            pipeline: self.pipeline.clone(),
            shadow: self.shadow.clone(),
        }
    }

    /// A fork with no pipeline attachment: worker threads and
    /// post-shutdown degradation process records directly. The shadow
    /// attachment is kept — deferred analysis must still pin pre-images.
    pub(crate) fn detached_fork(&self) -> CryptoDrop {
        CryptoDrop {
            cfg: Arc::clone(&self.cfg),
            shared: Arc::clone(&self.shared),
            pipeline: None,
            shadow: self.shadow.clone(),
        }
    }

    /// Attaches the analysis pipeline this driver submits records to.
    pub(crate) fn attach_pipeline(&mut self, pipeline: Arc<PipelineShared>) {
        self.pipeline = Some(pipeline);
    }

    /// Attaches the shadow store this driver feeds reputation scores to.
    pub(crate) fn attach_shadow(&mut self, shadow: Arc<cryptodrop_recovery::ShadowStore>) {
        self.shadow = Some(shadow);
    }

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
    fn shard_cap(&self) -> usize {
        match self.cfg.snapshot_cache_capacity {
            0 => usize::MAX,
            n => n.div_ceil(SHARDS).max(1),
        }
    }

    /// The per-shard pinned-snapshot budget implied by
    /// [`Config::pinned_snapshot_budget`] (0 = unbounded).
    fn pinned_shard_cap(&self) -> usize {
        match self.cfg.pinned_snapshot_budget {
            0 => usize::MAX,
            n => n.div_ceil(SHARDS).max(1),
        }
    }
}

impl Clone for CryptoDrop {
    fn clone(&self) -> Self {
        self.fork_inner()
    }
}

impl Monitor {
    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Creates a filter driver over this monitor's engine state, for
    /// registering the same engine on further
    /// [`Vfs`](cryptodrop_vfs::Vfs) instances.
    ///
    /// Forks made here never carry a pipeline attachment — they process
    /// inline even when the session is pipelined, which silently forfeits
    /// the pipeline's benefits. Prefer [`Session::fork`](crate::Session::fork).
    #[cfg(feature = "legacy-api")]
    #[deprecated(note = "use `Session::fork()`; forks made there also carry the pipeline handle")]
    pub fn fork_engine(&self) -> CryptoDrop {
        self.fork_engine_inner()
    }

    #[cfg(any(test, feature = "legacy-api"))]
    pub(crate) fn fork_engine_inner(&self) -> CryptoDrop {
        CryptoDrop {
            cfg: Arc::clone(&self.cfg),
            shared: Arc::clone(&self.shared),
            pipeline: None,
            shadow: None,
        }
    }

    /// The current reputation score of a process (0 if never seen).
    pub fn score(&self, pid: ProcessId) -> u32 {
        self.shared
            .family_shard(pid)
            .lock()
            .processes
            .get(&pid)
            .map_or(0, ProcessState::score)
    }

    /// The number of pre-existing protected files lost to a process.
    pub fn files_lost(&self, pid: ProcessId) -> u32 {
        self.shared
            .family_shard(pid)
            .lock()
            .processes
            .get(&pid)
            .map_or(0, ProcessState::files_lost)
    }

    /// A summary of one process's state, if the engine has seen it.
    pub fn summary(&self, pid: ProcessId) -> Option<ProcessSummary> {
        self.shared
            .family_shard(pid)
            .lock()
            .processes
            .get(&pid)
            .map(|p| p.summary(&self.cfg.score))
    }

    /// Summaries of every process the engine has seen.
    pub fn summaries(&self) -> Vec<ProcessSummary> {
        let mut v: Vec<ProcessSummary> = self
            .shared
            .families
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .processes
                    .values()
                    .map(|p| p.summary(&self.cfg.score))
                    .collect::<Vec<_>>()
            })
            .collect();
        v.sort_by_key(|s| s.pid);
        v
    }

    /// All detections so far, in order.
    pub fn detections(&self) -> Vec<DetectionReport> {
        self.shared.detections.lock().clone()
    }

    /// The detection report for one process, if it was detected.
    ///
    /// With [`Config::aggregate_process_families`] enabled (the default),
    /// pass the *family root* pid — which is what
    /// [`DetectionReport::pid`] carries.
    pub fn detection_for(&self, pid: ProcessId) -> Option<DetectionReport> {
        self.shared
            .detections
            .lock()
            .iter()
            .find(|d| d.pid == pid)
            .cloned()
    }

    /// The full indicator audit trail for one process (every hit with its
    /// points and context), in firing order.
    pub fn hits(&self, pid: ProcessId) -> Vec<crate::indicators::IndicatorHit> {
        self.shared
            .family_shard(pid)
            .lock()
            .processes
            .get(&pid)
            .map(|p| p.hits().to_vec())
            .unwrap_or_default()
    }

    /// Snapshot-cache effectiveness counters (fingerprint hits/misses,
    /// LRU evictions, resident path snapshots).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache_stats()
    }

    /// The telemetry handle the engine was constructed with (a disabled
    /// stub unless [`CryptoDrop::new_with_telemetry`] was used).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Reconstructs the full detection audit trail for one process: every
    /// indicator that fired, in order, with its measured value, threshold,
    /// points, simulated timestamp, and the running score it produced —
    /// the explanation behind a suspension (paper §IV-A). Returns `None`
    /// if the engine has never seen the pid.
    ///
    /// With [`Config::aggregate_process_families`] enabled (the default),
    /// pass the family root pid, as carried by [`DetectionReport::pid`].
    pub fn audit_trail(&self, pid: ProcessId) -> Option<crate::audit::AuditTrail> {
        let suspended_at = self.detection_for(pid).map(|d| d.at_nanos);
        self.shared
            .family_shard(pid)
            .lock()
            .processes
            .get(&pid)
            .map(|st| crate::audit::AuditTrail::rebuild(st, &self.cfg, suspended_at))
    }

    /// The user reviewed a detection and chose to allow the activity
    /// (paper §IV-A). The process (or family) is exempted from further
    /// scoring and re-suspension; pair this with
    /// [`Vfs::resume_process`](cryptodrop_vfs::Vfs::resume_process) on the
    /// suspended pid(s) to actually unblock it.
    ///
    /// Returns `false` if the engine has never seen the pid.
    pub fn permit(&self, pid: ProcessId) -> bool {
        match self
            .shared
            .family_shard(pid)
            .lock()
            .processes
            .get_mut(&pid)
        {
            Some(st) => {
                st.mark_permitted();
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for CryptoDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let processes: usize = self
            .shared
            .families
            .iter()
            .map(|s| s.lock().processes.len())
            .sum();
        f.debug_struct("CryptoDrop")
            .field("processes", &processes)
            .field("detections", &self.shared.detections.lock().len())
            .finish()
    }
}

/// What the zero-recompute close gate found for the file being closed.
enum CloseCache {
    /// Content changed (or the shortcut is off): ordinary recompute.
    Changed,
    /// Fingerprint-unchanged and the resident snapshot is present:
    /// reuse it outright.
    Unchanged(FileSnapshot),
    /// Fingerprint-unchanged but the resident snapshot is gone — torn
    /// cache state that degrades to a recompute plus an anomaly count.
    Torn,
}

impl CryptoDrop {
    /// Routes an indicator hit through the scoreboard, first journaling
    /// the contribution (indicator, measured value, threshold, points,
    /// path) and bumping its fire counter when telemetry is enabled.
    fn award(&self, st: &mut ProcessState, path: &VPath, hit: IndicatorHit) {
        if self.shared.telemetry.is_enabled() {
            self.shared.metrics.fires[hit.indicator as usize].inc();
            self.shared
                .telemetry
                .journal_event(hit.at_nanos, st.pid().0, || JournalKind::Indicator {
                    indicator: hit.indicator.name().to_string(),
                    value: hit.value,
                    threshold: hit.threshold,
                    points: hit.points,
                    path: path.as_str().to_string(),
                });
        }
        st.award(&self.cfg.score, self.cfg.union_enabled, hit);
        if let Some(shadow) = &self.shadow {
            // `st.pid()` is the scoring key — the family root under
            // family aggregation — which is exactly how the shadow store
            // keys its pins.
            shadow.set_reputation(st.pid(), st.score());
        }
    }

    /// The evaluation-latency histogram for one indicator.
    fn eval_timer(&self, indicator: Indicator) -> &Histogram {
        &self.shared.metrics.eval_ns[indicator as usize]
    }

    /// Evaluates the two content-comparison indicators (type change and
    /// similarity) of `current` against `snapshot`, awarding hits.
    ///
    /// `post_type` is the sniffed type of `current`, computed once by the
    /// caller (shared with the funneling indicator and the snapshot
    /// refresh). Returns what the similarity pass learned about the
    /// post-image's digest so the refresh can reuse it.
    fn evaluate_content(
        &self,
        st: &mut ProcessState,
        snapshot: &FileSnapshot,
        current: &[u8],
        post_type: FileType,
        path: &VPath,
        at_nanos: u64,
    ) -> PostImageDigest {
        let cfg = &self.cfg;
        let window = &current[..current.len().min(cfg.max_digest_bytes)];
        let timer = self.shared.telemetry.start_timer();
        let (sim_outcome, post_digest) = similarity::evaluate_full(
            snapshot.digest.as_ref(),
            snapshot.entropy,
            window,
            cfg.score.similarity_match_max,
            cfg.score.similarity_max_source_entropy,
        );
        self.eval_timer(Indicator::Similarity).record_elapsed(timer);
        self.content_hits(st, snapshot, sim_outcome, post_type, path, at_nanos);
        post_digest
    }

    /// Awards the type-change and similarity hits for one content
    /// comparison whose similarity outcome is already known — shared
    /// between [`evaluate_content`](Self::evaluate_content) and the
    /// incremental close path, which computes the post-image digest from
    /// dirty extents and evaluates similarity against it directly.
    fn content_hits(
        &self,
        st: &mut ProcessState,
        snapshot: &FileSnapshot,
        sim_outcome: SimilarityOutcome,
        post_type: FileType,
        path: &VPath,
        at_nanos: u64,
    ) {
        let cfg = &self.cfg;
        // Dynamic scoring (future work, §V-C): when the similarity
        // indicator is structurally unavailable for this file — no
        // pre-image digest exists (sub-512 B or featureless content) —
        // the remaining content indicator is weighted up to compensate.
        let type_points = if cfg.dynamic_scoring
            && matches!(
                sim_outcome,
                SimilarityOutcome::Abstain(similarity::AbstainReason::NoPreImageDigest)
            ) {
            cfg.score.points_type_change * 2
        } else {
            cfg.score.points_type_change
        };
        let timer = self.shared.telemetry.start_timer();
        let type_outcome = type_change::evaluate(snapshot.file_type, post_type);
        self.eval_timer(Indicator::TypeChange).record_elapsed(timer);
        // As with the entropy indicator, a zeroed point value disables
        // the indicator entirely — it neither scores nor counts toward
        // union indication (the adversarial study's ablation configs
        // rely on this).
        if type_points > 0 {
            if let TypeChangeOutcome::Changed { before, after } = type_outcome {
                self.award(
                    st,
                    path,
                    IndicatorHit {
                        indicator: Indicator::TypeChange,
                        points: type_points,
                        value: 1.0,
                        threshold: 1.0,
                        detail: format!(
                            "{} -> {} at {path}",
                            before.description(),
                            after.description()
                        ),
                        at_nanos,
                    },
                );
            }
        }
        if cfg.score.points_similarity > 0 {
            if let SimilarityOutcome::Dissimilar(score) = sim_outcome {
                self.award(
                    st,
                    path,
                    IndicatorHit {
                        indicator: Indicator::Similarity,
                        points: cfg.score.points_similarity,
                        value: f64::from(score),
                        threshold: f64::from(cfg.score.similarity_match_max),
                        detail: format!("similarity {score}/100 at {path}"),
                        at_nanos,
                    },
                );
            }
        }
    }

    /// Resolves the post-close "previous version" snapshot.
    ///
    /// The unchanged fast path reuses the resident snapshot. A
    /// [`CloseCache::Torn`] state — the unchanged gate matched but the
    /// snapshot is gone, which should be impossible but must not take
    /// down the filter — is counted and journaled as a cache anomaly and
    /// degrades to the ordinary miss-path recompute.
    fn resolve_close_snapshot(
        &self,
        cached: CloseCache,
        current: &[u8],
        post_type: FileType,
        reusable_digest: Option<Option<SdDigest>>,
        at_nanos: u64,
        pid: ProcessId,
    ) -> FileSnapshot {
        match cached {
            CloseCache::Unchanged(snap) => {
                self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                return snap;
            }
            CloseCache::Torn => {
                self.shared.cache_anomalies.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .telemetry
                    .journal_event(at_nanos, pid.0, || JournalKind::CacheAnomaly {
                        context: "close: unchanged fast path found no resident snapshot"
                            .to_string(),
                    });
            }
            CloseCache::Changed => {}
        }
        self.shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        FileSnapshot::capture_reusing(
            current,
            self.cfg.max_digest_bytes,
            Some(post_type),
            reusable_digest,
        )
    }

    /// Computes the analysis products of a *changed* close's content under
    /// incremental analysis: histogram, sdhash digest + feature cache, and
    /// full-content fingerprint. Returns `true` in the last slot when the
    /// dirty-extent delta path was taken (histogram updated by
    /// subtract/add, unchanged sdhash feature runs spliced from the
    /// cache); `false` when it fell back to the whole-content recompute.
    ///
    /// The delta path requires an unbroken chain of custody: the resident
    /// snapshot retained its intermediates, its stamp equals the dirty
    /// report's base stamp (the snapshot describes exactly the content the
    /// handle started from), the close-time stamp equals the report's last
    /// stamp (no other handle interfered after the last write), the file
    /// did not shrink, and the whole content fits the digest window in
    /// both states. Every product is bit-identical to a from-scratch
    /// recompute — the histogram delta is exact integer arithmetic and the
    /// sdhash splice is exact by construction (property-tested).
    #[allow(clippy::type_complexity)]
    fn close_products(
        &self,
        snapshot: Option<&FileSnapshot>,
        current: &[u8],
        stamp: u64,
        dirty: Option<&DirtyReport>,
    ) -> (ByteHistogram, Option<SdDigest>, Option<FeatureCache>, u64, bool) {
        let window = &current[..current.len().min(self.cfg.max_digest_bytes)];
        'delta: {
            let (Some(snap), Some(d)) = (snapshot, dirty) else {
                break 'delta;
            };
            let Some(incr) = snap.incr.as_deref() else {
                break 'delta;
            };
            if d.full
                || stamp == 0
                || snap.stamp == 0
                || d.base_stamp != snap.stamp
                || d.last_stamp != stamp
                || snap.len != d.base_len
                || (current.len() as u64) < d.base_len
                || current.len() > self.cfg.max_digest_bytes
            {
                break 'delta;
            }
            let mut histogram = incr.histogram.clone();
            let mut spans = [(0usize, 0usize); MAX_DIRTY_EXTENTS];
            for (i, e) in d.extents.iter().enumerate() {
                let lo = e.start as usize;
                let hi = (e.end as usize).min(current.len());
                histogram.replace(&e.pre, &current[lo..hi]);
                spans[i] = (lo, hi);
            }
            let recomputed = incr
                .features
                .as_ref()
                .and_then(|c| SdDigest::recompute_dirty(c, current, &spans[..d.extents.len()]));
            // A `None` splice (or an undigestible base) recomputes sdhash
            // from scratch — the histogram delta above still stands.
            let (digest, features) = match recomputed {
                Some((dg, cache)) => (Some(dg), Some(cache)),
                None => match SdDigest::compute_with_cache(window) {
                    Some((dg, cache)) => (Some(dg), Some(cache)),
                    None => (None, None),
                },
            };
            return (histogram, digest, features, content_fingerprint(current), true);
        }
        let (histogram, fingerprint) = if window.len() == current.len() {
            ByteHistogram::from_bytes_with_fingerprint(window)
        } else {
            (
                ByteHistogram::from_bytes(window),
                content_fingerprint(current),
            )
        };
        let (digest, features) = match SdDigest::compute_with_cache(window) {
            Some((dg, cache)) => (Some(dg), Some(cache)),
            None => (None, None),
        };
        (histogram, digest, features, fingerprint, false)
    }

    /// The close path's common tail: the file's "previous version" is now
    /// what was just written, so both snapshot indices are refreshed with
    /// `fresh` (eviction-counted on the path side).
    fn finish_close(&self, path: &VPath, file: FileId, fresh: FileSnapshot) {
        self.shared
            .file_shard(file)
            .lock()
            .snapshots
            .insert(file, fresh.clone());
        let tick = self.shared.next_tick();
        let evicted = self.shared.path_shard(path).lock().insert_snapshot(
            path.clone(),
            fresh,
            tick,
            self.shard_cap(),
        );
        if evicted > 0 {
            self.shared
                .cache_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// The file's content stamp, but only when an operation payload of
    /// `len` bytes at `offset` is provably the file's **entire** content
    /// right now — otherwise `0` (unknown). Record builders attach this
    /// to read/write records so the analysis side can substitute a
    /// stamp-matching snapshot's entropy for an O(n) recompute.
    fn whole_content_stamp(&self, fs: &FsView<'_>, path: &VPath, offset: u64, len: usize) -> u64 {
        if !self.cfg.incremental_analysis || offset != 0 {
            return 0;
        }
        match fs.file_bytes(path) {
            Some(content) if content.len() == len => fs.file_stamp(path).unwrap_or(0),
            _ => 0,
        }
    }

    /// The entropy of an operation payload, reused from the file's
    /// resident snapshot when `stamp` (nonzero = the payload is the whole
    /// file content, see [`Self::whole_content_stamp`]) matches the
    /// snapshot's — i.e. the payload IS the bytes the snapshot already
    /// measured. Bit-identical to recomputing: snapshot capture and the
    /// entropy-delta tracker use the same table-driven fold. `None` means
    /// the caller must compute. The snapshot's entropy only covers its
    /// digest window, so payloads longer than `max_digest_bytes` never
    /// reuse.
    fn known_entropy(&self, file: FileId, stamp: u64, len: usize) -> Option<f64> {
        if stamp == 0 || len > self.cfg.max_digest_bytes {
            return None;
        }
        let shard = self.shared.file_shard(file).lock();
        let snap = shard.snapshots.get(&file)?;
        (snap.stamp == stamp && snap.len == len as u64).then_some(snap.entropy)
    }

    /// Whether processing `rec` inline is provably cheap — every content
    /// pass it could trigger resolves through a stamp-matching resident
    /// snapshot (or the record carries no content at all), so the analysis
    /// is O(1) in file size. The pipeline's producer fast path uses
    /// this to decide between processing a record on the calling thread
    /// (cheaper than cloning its content for the queue) and handing it to
    /// a worker (which absorbs a genuinely heavy pass off the producer's
    /// critical path). Purely a cost estimate: a stale answer under
    /// concurrent snapshot churn only mis-routes a record, never changes
    /// its verdict. Conservative on the heavy side — `false` just means
    /// "enqueue it".
    pub(crate) fn record_is_light(&self, rec: &OpRecord<'_>) -> bool {
        let cfg = &self.cfg;
        match &rec.body {
            // O(1) when the resident path snapshot already carries this
            // stamp (the `apply_refresh` fast branch); otherwise a full
            // fingerprint pass or capture runs.
            RecordBody::Refresh { path, stamp, .. } => {
                cfg.fingerprint_cache
                    && *stamp != 0
                    && self
                        .shared
                        .path_shard(path.as_ref())
                        .lock()
                        .snapshots
                        .get(path.as_ref())
                        .is_some_and(|e| e.snap.stamp == *stamp)
            }
            // No content pass at all: map probes and score bookkeeping.
            RecordBody::Open { .. } | RecordBody::Truncate { .. } | RecordBody::Delete { .. } => {
                true
            }
            // Light exactly when the entropy tracker can substitute the
            // snapshot's entropy for the O(n) fold over the payload.
            RecordBody::Read {
                file, data, stamp, ..
            }
            | RecordBody::Write {
                file, data, stamp, ..
            } => self.known_entropy(*file, *stamp, data.len()).is_some(),
            // Light when the close path would take its tier-1 stamp skip
            // (same guard, same stamp comparison) or the tier-2 dirty-
            // extent delta (O(dirty bytes) splicing plus one cheap
            // fingerprint pass — already cheaper than cloning the content
            // for the queue). Only a broken stamp chain forces the tier-3
            // full sniff/sdhash/entropy recompute, and that is the pass
            // worth handing to a worker.
            RecordBody::Close {
                file,
                current,
                stamp,
                dirty,
                ..
            } => {
                if *stamp == 0 {
                    return false;
                }
                let tier1_guard = cfg.fingerprint_cache && cfg.score.similarity_match_max < 100;
                let delta_capable = |d: &cryptodrop_vfs::DirtyReport| {
                    cfg.incremental_analysis
                        && !d.full
                        && d.last_stamp == *stamp
                        && current.len() <= cfg.max_digest_bytes
                        && (current.len() as u64) >= d.base_len
                };
                let shard = self.shared.file_shard(*file).lock();
                let Some(snap) = shard.snapshots.get(file) else {
                    return false;
                };
                (tier1_guard && snap.stamp == *stamp)
                    || dirty.as_deref().is_some_and(|d| {
                        delta_capable(d)
                            && snap.stamp != 0
                            && snap.stamp == d.base_stamp
                            && snap.len == d.base_len
                            && snap.incr.is_some()
                    })
            }
            // A replaced protected destination drags in the Class C
            // content evaluation; a plain move is bookkeeping.
            RecordBody::Rename { dest_current, .. } => dest_current.is_none(),
        }
    }

    /// After awarding hits, checks the threshold — against the score
    /// *decayed to the record's simulated time* when a
    /// [`DecayPolicy`](crate::DecayPolicy) is configured — and issues the
    /// verdict. Lock order: the caller holds the family shard; the
    /// detection log is the only lock ever taken while a family shard is
    /// held.
    fn verdict_for(&self, st: &mut ProcessState, at_nanos: u64) -> Verdict {
        let cfg = &self.cfg;
        if st.is_detected() {
            return Verdict::Allow;
        }
        let decaying = !cfg.score.decay.is_none();
        let score = st.decayed_score(&cfg.score, at_nanos);
        let threshold = st.effective_threshold(&cfg.score);
        if decaying && self.shared.telemetry.is_enabled() {
            self.shared.metrics.decay_checks.inc();
        }
        if score < threshold {
            // A raw score over the line that decayed below it is the
            // decay policy actively suppressing a suspension — make
            // every such check visible, it is the policy's cost side.
            if decaying && st.score() >= threshold && self.shared.telemetry.is_enabled() {
                self.shared.metrics.decay_suppressed.inc();
                self.shared
                    .telemetry
                    .journal_event(at_nanos, st.pid().0, || JournalKind::ScoreDecay {
                        raw: st.score(),
                        decayed: score,
                        threshold,
                    });
            }
            return Verdict::Allow;
        }
        st.mark_detected();
        let report = DetectionReport {
            pid: st.pid(),
            process_name: st.name().to_string(),
            score,
            threshold,
            union_triggered: st.union_triggered(),
            files_lost: st.files_lost(),
            at_nanos,
            primaries_seen: st.primaries_seen().collect(),
        };
        let reason = report.reason();
        self.shared.detections.lock().push(report);
        if self.shared.telemetry.is_enabled() {
            self.shared.metrics.detections.inc();
        }
        Verdict::suspend(reason)
    }

    /// The decoy endpoint a destructive operation touches, if any. Reads,
    /// closes, and directory listings never trip a decoy — enumeration
    /// tools may list and read bait files freely — but a write-open,
    /// write, truncate, delete, either rename endpoint, or attribute
    /// change on one is an instant detection (GuardFS-style bait, §V-F
    /// "future work" territory: no legitimate workflow modifies a decoy).
    fn decoy_hit<'a>(&self, op: &FsOp<'a>) -> Option<&'a VPath> {
        let d = &self.shared.decoys;
        match *op {
            FsOp::Open { path, options } if options.write && d.contains(path) => Some(path),
            FsOp::Write { path, .. } | FsOp::Truncate { path, .. } if d.contains(path) => {
                Some(path)
            }
            FsOp::Delete { path } if d.contains(path) => Some(path),
            FsOp::Rename { from, .. } if d.contains(from) => Some(from),
            FsOp::Rename { to, .. } if d.contains(to) => Some(to),
            FsOp::SetAttr { path, .. } if d.contains(path) => Some(path),
            _ => None,
        }
    }

    /// Issues the maximum-confidence decoy verdict: marks the family
    /// detected (publishing a [`DetectionReport`] at its current — often
    /// zero — score) and suspends it immediately. Same lock discipline as
    /// [`Self::verdict_for`]: the detection log is the only lock taken
    /// while the family shard is held.
    fn decoy_verdict(&self, ctx: &OpContext<'_>, key: ProcessId, decoy: &VPath) -> Verdict {
        let mut fam = self.shared.family_shard(key).lock();
        let st = FamilyShard::process_mut(&mut fam.processes, &self.cfg, key, ctx.process_name);
        if !st.is_detected() {
            st.mark_detected();
            let report = DetectionReport {
                pid: st.pid(),
                process_name: st.name().to_string(),
                score: st.decayed_score(&self.cfg.score, ctx.at_nanos),
                threshold: st.effective_threshold(&self.cfg.score),
                union_triggered: st.union_triggered(),
                files_lost: st.files_lost(),
                at_nanos: ctx.at_nanos,
                primaries_seen: st.primaries_seen().collect(),
            };
            self.shared.detections.lock().push(report);
            if self.shared.telemetry.is_enabled() {
                self.shared.metrics.detections.inc();
                self.shared.metrics.decoy_trips.inc();
            }
        }
        Verdict::suspend(format!(
            "cryptodrop: decoy file {} modified",
            decoy.as_str()
        ))
    }

    /// Time-axis throttling (pre-operation), two composable components:
    ///
    /// * **Reputation throttling** — once a family's (decayed) score has
    ///   reached [`Config::throttle_score`], each destructive in-scope
    ///   operation is delayed proportionally to the score.
    /// * **Rate-budget throttling** — while the family's
    ///   first-modification token bucket is dry
    ///   ([`Config::rate_budget_enabled`]), each destructive in-scope
    ///   operation is additionally delayed by
    ///   [`Config::rate_throttle_nanos`]. Unlike reputation throttling
    ///   this engages on *behavioral rate* alone, before any indicator
    ///   has scored — the budget is drawn down by the Write analysis
    ///   path (see `RecordBody::Write`) and refilled here against the
    ///   operation's simulated time.
    ///
    /// The delays add; returns `None` when the operation should proceed
    /// undelayed.
    fn throttle_verdict(&self, ctx: &OpContext<'_>, key: ProcessId) -> Option<Verdict> {
        let cfg = &self.cfg;
        if !cfg.throttle_enabled && !cfg.rate_budget_enabled {
            return None;
        }
        let in_scope = match ctx.op {
            FsOp::Open { path, options } if options.write => self.shared.in_scope(cfg, path),
            FsOp::Write { path, .. }
            | FsOp::Truncate { path, .. }
            | FsOp::Delete { path }
            | FsOp::SetAttr { path, .. } => self.shared.in_scope(cfg, path),
            FsOp::Rename { from, to, .. } => {
                self.shared.in_scope(cfg, from) || self.shared.in_scope(cfg, to)
            }
            _ => false,
        };
        if !in_scope {
            return None;
        }
        let (score, rate_dry) = {
            let mut fam = self.shared.family_shard(key).lock();
            match fam.processes.get_mut(&key) {
                Some(st) => (
                    st.decayed_score(&cfg.score, ctx.at_nanos),
                    cfg.rate_budget_enabled
                        && st.rate_refill(
                            ctx.at_nanos,
                            cfg.rate_budget_capacity,
                            cfg.rate_refill_nanos_per_token,
                        ) == 0,
                ),
                // A never-seen family has a full bucket and no score.
                None => (0, false),
            }
        };
        let mut delay = 0u64;
        if cfg.throttle_enabled && score >= cfg.throttle_score {
            delay = u64::from(score) * cfg.throttle_nanos_per_point;
            if self.shared.telemetry.is_enabled() {
                self.shared.metrics.throttled_ops.inc();
            }
        }
        if rate_dry {
            delay = delay.saturating_add(cfg.rate_throttle_nanos);
            if self.shared.telemetry.is_enabled() {
                self.shared.metrics.rate_throttled.inc();
                self.shared
                    .telemetry
                    .journal_event(ctx.at_nanos, key.0, || JournalKind::RateBudget {
                        tokens: 0,
                        delay_nanos: cfg.rate_throttle_nanos,
                    });
            }
        }
        if delay == 0 {
            None
        } else {
            Some(Verdict::throttle(delay))
        }
    }

    /// Refreshes the path-keyed snapshot of `path` from `data` (its
    /// content at capture time). A resident snapshot carrying the same
    /// nonzero content stamp is reused in O(1); matching content
    /// fingerprints (the O(n) pass, only consulted when a stamp is
    /// unknown) also reuse it. On a miss, `memo` — the slot of the staged
    /// content `data` still equals, if any — lends the snapshot another
    /// namespace already captured (see [`Self::staged_snapshot`]). The
    /// expensive capture runs without any shard lock held.
    fn apply_refresh(&self, path: &VPath, data: &[u8], stamp: u64, memo: Option<&MemoSlot>) {
        let tick = self.shared.next_tick();
        let shard = self.shared.path_shard(path);
        if self.cfg.fingerprint_cache {
            let mut guard = shard.lock();
            if let Some(entry) = guard.snapshots.get_mut(path) {
                if stamp != 0 && entry.snap.stamp == stamp {
                    entry.tick = tick;
                    drop(guard);
                    self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                // Two known, different stamps prove the content changed;
                // only an unknown stamp needs the fingerprint pass.
                if (stamp == 0 || entry.snap.stamp == 0)
                    && entry.snap.fingerprint == content_fingerprint(data)
                {
                    entry.tick = tick;
                    if self.cfg.incremental_analysis && stamp != 0 {
                        // Adopt the stamp so the next refresh is O(1).
                        entry.snap.stamp = stamp;
                    }
                    drop(guard);
                    self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        // The no-cache reference mode computes everything itself.
        let (snap, captured) = match memo.filter(|_| self.cfg.fingerprint_cache) {
            Some(slot) => self.staged_snapshot(slot, data, stamp),
            None => (self.capture_snapshot(data, stamp), true),
        };
        if captured {
            self.shared.cache_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        let evicted = shard
            .lock()
            .insert_snapshot(path.clone(), snap, tick, self.shard_cap());
        if evicted > 0 {
            self.shared
                .cache_evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A fresh refresh snapshot of `data` under this engine's config.
    fn capture_snapshot(&self, data: &[u8], stamp: u64) -> FileSnapshot {
        if self.cfg.incremental_analysis {
            FileSnapshot::capture_incremental(data, self.cfg.max_digest_bytes, stamp, None)
        } else {
            FileSnapshot::capture(data, self.cfg.max_digest_bytes)
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
    /// The snapshot's [`IncrState`] is shared, not copied, and serves the
    /// delta tier of a later close as a local one would.
    fn staged_snapshot(&self, slot: &MemoSlot, data: &[u8], stamp: u64) -> (FileSnapshot, bool) {
        let mut captured = false;
        let memo = slot.get_or_init(|| {
            captured = true;
            Arc::new(StagedSnapshot {
                max_digest_bytes: self.cfg.max_digest_bytes,
                incremental: self.cfg.incremental_analysis,
                snap: self.capture_snapshot(data, stamp),
            })
        });
        match memo.downcast_ref::<StagedSnapshot>() {
            Some(m)
                if m.max_digest_bytes == self.cfg.max_digest_bytes
                    && m.incremental == self.cfg.incremental_analysis =>
            {
                (m.snap.clone(), captured)
            }
            _ => (self.capture_snapshot(data, stamp), true),
        }
    }

    /// The verdict-critical family gate, run inline on every operation:
    /// `Some(Allow)` for a user-permitted family, `Some(Suspend)` for an
    /// already-detected one, `None` when analysis should proceed.
    fn family_gate(&self, key: ProcessId) -> Option<Verdict> {
        let fam = self.shared.family_shard(key).lock();
        let p = fam.processes.get(&key)?;
        if p.is_permitted() {
            // The user explicitly allowed this activity: no further
            // scoring or re-suspension (§IV-A).
            Some(Verdict::Allow)
        } else if p.is_detected() {
            // Already detected: block any family member that is still
            // issuing operations (the issuer itself is normally already
            // suspended by the VFS; siblings are caught here).
            Some(Verdict::suspend(FAMILY_FLAGGED))
        } else {
            None
        }
    }

    /// The scoring key for an operation context: the family root when
    /// family aggregation is on (the default), otherwise the issuing pid.
    fn scoring_key(&self, ctx: &OpContext<'_>) -> ProcessId {
        if self.cfg.aggregate_process_families {
            ctx.family_root
        } else {
            ctx.pid
        }
    }

    /// Builds a pre-operation snapshot-refresh record, borrowing the
    /// path's current (pre-mutation) content and its incremental stamp
    /// straight from the VFS — no copy on the inline path. `None` when the
    /// path is unreadable or empty — nothing to snapshot.
    fn build_refresh<'a>(
        &self,
        key: ProcessId,
        ctx: &OpContext<'a>,
        path: &'a VPath,
        fs: &FsView<'a>,
    ) -> Option<OpRecord<'a>> {
        let data = fs.file_bytes(path)?;
        if data.is_empty() {
            return None;
        }
        let stamp = fs.file_stamp(path).unwrap_or(0);
        Some(OpRecord {
            key,
            issuer: ctx.pid,
            process_name: Cow::Borrowed(ctx.process_name),
            at_nanos: ctx.at_nanos,
            body: RecordBody::Refresh {
                path: Cow::Borrowed(path),
                data: Cow::Borrowed(data),
                stamp,
                memo: fs.file_memo(path).cloned(),
            },
        })
    }

    /// The fast-path half of post-operation handling: scope checks and
    /// enqueue-side bookkeeping (the created-file set and the Class B
    /// tracked set, which the *next* operation's scope checks must already
    /// see), plus content capture for analyses that need bytes. Returns
    /// the analysis record, or `None` when the operation is out of scope.
    fn build_post_record<'a>(
        &self,
        key: ProcessId,
        ctx: &OpContext<'a>,
        outcome: &OpOutcome<'a>,
        fs: &FsView<'a>,
    ) -> Option<OpRecord<'a>> {
        let cfg = &self.cfg;
        let body = match (ctx.op, outcome) {
            (FsOp::Open { path, .. }, OpOutcome::Open { file, created, .. }) => {
                if *created {
                    self.shared.file_shard(*file).lock().created.insert(*file);
                }
                if !self.shared.in_scope(cfg, path) {
                    return None;
                }
                RecordBody::Open {
                    path: Cow::Borrowed(path),
                    file: *file,
                }
            }

            (FsOp::Read { path, offset, .. }, OpOutcome::Read { file, data }) => {
                if !self.shared.in_scope(cfg, path) {
                    return None;
                }
                RecordBody::Read {
                    path: Cow::Borrowed(path),
                    file: *file,
                    offset,
                    data: Cow::Borrowed(data),
                    stamp: self.whole_content_stamp(fs, path, offset, data.len()),
                }
            }

            (FsOp::Write { path, offset, data }, OpOutcome::Write { file, .. }) => {
                if !self.shared.in_scope(cfg, path) {
                    return None;
                }
                RecordBody::Write {
                    path: Cow::Borrowed(path),
                    file: *file,
                    data: Cow::Borrowed(data),
                    // Post-operation view: when the write covered the whole
                    // file, the payload IS the current content.
                    stamp: self.whole_content_stamp(fs, path, offset, data.len()),
                }
            }

            (FsOp::Truncate { path, .. }, OpOutcome::Truncate { file }) => {
                if !self.shared.in_scope(cfg, path) {
                    return None;
                }
                RecordBody::Truncate { file: *file }
            }

            (FsOp::Close { path, modified }, OpOutcome::Close { file, stamp, dirty, .. }) => {
                if !modified || !self.shared.in_scope(cfg, path) {
                    return None;
                }
                let Some(current) = fs.file_bytes(path) else {
                    return None; // deleted before close
                };
                RecordBody::Close {
                    path: Cow::Borrowed(path),
                    file: *file,
                    current: Cow::Borrowed(current),
                    stamp: *stamp,
                    dirty: dirty.map(Cow::Borrowed),
                }
            }

            (FsOp::Delete { path }, OpOutcome::Delete { file }) => {
                if !cfg.is_protected(path) {
                    return None;
                }
                RecordBody::Delete {
                    path: Cow::Borrowed(path),
                    file: *file,
                }
            }

            (FsOp::Rename { from, to, .. }, OpOutcome::Rename { file, replaced }) => {
                let from_protected = cfg.is_protected(from);
                let to_protected = cfg.is_protected(to);
                let was_tracked = self
                    .shared
                    .path_shard(from)
                    .lock()
                    .tracked
                    .remove(from)
                    .is_some();
                if !(from_protected || to_protected || was_tracked) {
                    return None;
                }
                // The Class C link needs the destination's post-move
                // content; capture it now so the analysis never reads the
                // filesystem.
                let dest_current = if to_protected && replaced.is_some() {
                    fs.read_file(to).ok()
                } else {
                    None
                };
                // Track files leaving the protected directories (Class B).
                // This is fast-path bookkeeping: the very next operation's
                // scope check must already see the tracked path.
                if cfg.track_moved_files && !to_protected && (from_protected || was_tracked) {
                    self.shared
                        .path_shard(to)
                        .lock()
                        .tracked
                        .insert(to.clone(), *file);
                }
                RecordBody::Rename {
                    from: Cow::Borrowed(from),
                    to: Cow::Borrowed(to),
                    file: *file,
                    replaced: *replaced,
                    to_protected,
                    dest_current,
                }
            }

            _ => return None,
        };
        Some(OpRecord {
            key,
            issuer: ctx.pid,
            process_name: Cow::Borrowed(ctx.process_name),
            at_nanos: ctx.at_nanos,
            body,
        })
    }

    /// The analysis body: consumes one record, runs the indicators, awards
    /// scores, and returns the verdict. A pure function of the record
    /// stream over the sharded state — it never touches the filesystem, so
    /// it runs identically inline or on a pipeline worker thread.
    pub(crate) fn process_record(&self, rec: &OpRecord<'_>) -> Verdict {
        let cfg = &self.cfg;
        let at = rec.at_nanos;
        let key = rec.key;

        if let RecordBody::Refresh {
            path,
            data,
            stamp,
            memo,
        } = &rec.body
        {
            // Refreshes are not gated: a permitted family keeps its
            // snapshots fresh for other processes' pre-images.
            self.apply_refresh(path.as_ref(), data, *stamp, memo.as_ref());
            return Verdict::Allow;
        }
        // Re-run the family gate: a queued record may be processed after
        // its family was detected (or permitted) by an earlier record.
        if let Some(v) = self.family_gate(key) {
            return v;
        }

        match &rec.body {
            RecordBody::Refresh { .. } => Verdict::Allow, // handled above

            RecordBody::Open { path, file } => {
                let path = path.as_ref();
                let tick = self.shared.next_tick();
                // Touch the LRU tick and read the stamp without cloning:
                // on a reopen the file shard usually still holds this
                // snapshot, and a matching nonzero stamp proves it
                // content-identical — the steady-state open then costs
                // two map probes and zero allocations.
                let stamp = {
                    let mut shard = self.shared.path_shard(path).lock();
                    shard.snapshots.get_mut(path).map(|e| {
                        e.tick = tick;
                        e.snap.stamp
                    })
                };
                let Some(stamp) = stamp else {
                    return Verdict::Allow;
                };
                if stamp != 0
                    && self
                        .shared
                        .file_shard(*file)
                        .lock()
                        .snapshots
                        .get(file)
                        .is_some_and(|s| s.stamp == stamp)
                {
                    return Verdict::Allow;
                }
                let snap = self
                    .shared
                    .path_shard(path)
                    .lock()
                    .get_snapshot(path, tick);
                if let Some(snap) = snap {
                    self.shared
                        .file_shard(*file)
                        .lock()
                        .snapshots
                        .insert(*file, snap);
                }
                Verdict::Allow
            }

            RecordBody::Read {
                path,
                file,
                offset,
                data,
                stamp,
            } => {
                let path = path.as_ref();
                let known = self.known_entropy(*file, *stamp, data.len());
                if known.is_some() && self.shared.telemetry.is_enabled() {
                    self.shared.metrics.incr_stamp_skips.inc();
                }
                // Resolve the payload's entropy once: folded into this
                // family's tracker below, and recorded as the file's read
                // baseline for the collusion defense. `entropy_lut_of` is
                // the exact fold `observe_read` delegates to, so routing
                // both paths through `observe_read_known` is bit-identical
                // to the split the pre-baseline engine used.
                let entropy = match known {
                    Some(entropy) => {
                        debug_assert_eq!(
                            entropy,
                            cryptodrop_entropy::entropy_lut_of(data),
                            "snapshot entropy drifted from the payload's"
                        );
                        entropy
                    }
                    None => cryptodrop_entropy::entropy_lut_of(data),
                };
                if cfg.score.points_entropy_delta > 0 && !data.is_empty() {
                    let mut shard = self.shared.file_shard(*file).lock();
                    let b = shard.read_baselines.entry(*file).or_insert(ReadBaseline {
                        weighted: 0.0,
                        len: 0,
                        reader_key: key,
                        reader_pid: rec.issuer,
                    });
                    if b.reader_key != key {
                        // A new family took over reading this file: its
                        // observations supersede the stale baseline.
                        *b = ReadBaseline {
                            weighted: 0.0,
                            len: 0,
                            reader_key: key,
                            reader_pid: rec.issuer,
                        };
                    }
                    b.weighted += entropy * data.len() as f64;
                    b.len += data.len() as u64;
                    b.reader_pid = rec.issuer;
                }
                let mut fam = self.shared.family_shard(key).lock();
                let st =
                    FamilyShard::process_mut(&mut fam.processes, cfg, key, &rec.process_name);
                st.entropy_mut().observe_read_known(entropy, data.len() as u64);
                // Sample the file's type from its leading bytes exactly once
                // per file for the funneling indicator.
                if *offset == 0 && !data.is_empty() && st.first_read(*file) {
                    let timer = self.shared.telemetry.start_timer();
                    let levels = st.funnel_mut().record_read(sniff(data));
                    self.eval_timer(Indicator::Funneling).record_elapsed(timer);
                    if levels > 0 {
                        let points = levels * cfg.score.points_funneling;
                        let gap = st.funnel().gap();
                        self.award(
                            st,
                            path,
                            IndicatorHit {
                                indicator: Indicator::Funneling,
                                points,
                                value: f64::from(gap),
                                threshold: f64::from(cfg.score.funnel_gap),
                                detail: format!("type funnel widened reading {path}"),
                                at_nanos: at,
                            },
                        );
                    }
                }
                self.verdict_for(st, at)
            }

            RecordBody::Write { path, file, data, stamp } => {
                let path = path.as_ref();
                let known = if cfg.score.points_entropy_delta > 0 {
                    self.known_entropy(*file, *stamp, data.len())
                } else {
                    None
                };
                if known.is_some() && self.shared.telemetry.is_enabled() {
                    self.shared.metrics.incr_stamp_skips.inc();
                }
                // One file-shard probe fetches the creation state and
                // retires the read baseline: this write replaces the
                // content the baseline described.
                let (created, baseline) = {
                    let mut shard = self.shared.file_shard(*file).lock();
                    (
                        shard.created.contains(file),
                        shard.read_baselines.remove(file),
                    )
                };
                let mut fam = self.shared.family_shard(key).lock();
                let st =
                    FamilyShard::process_mut(&mut fam.processes, cfg, key, &rec.process_name);
                if !created {
                    st.record_loss(*file);
                }
                // First modifications of distinct files are the unit of
                // account for both time-axis defenses: the write-burst
                // indicator (future work, §V-F) and the family rate
                // budget. A zeroed `points_burst` disables the burst
                // indicator entirely — no window bookkeeping, no 0-point
                // hits — matching the other indicators' zeroed-points
                // semantics.
                let burst_on = cfg.score.burst_enabled && cfg.score.points_burst > 0;
                if (burst_on || cfg.rate_budget_enabled) && st.first_modification(*file) {
                    if cfg.rate_budget_enabled {
                        let drawn = st.rate_consume(
                            at,
                            cfg.rate_budget_capacity,
                            cfg.rate_refill_nanos_per_token,
                        );
                        if self.shared.telemetry.is_enabled() {
                            if drawn {
                                self.shared.metrics.rate_consumed.inc();
                            } else {
                                self.shared.metrics.rate_exhausted.inc();
                            }
                        }
                    }
                    if burst_on {
                        let timer = self.shared.telemetry.start_timer();
                        let burst = st.record_burst(
                            at,
                            cfg.score.burst_window_nanos,
                            cfg.score.burst_threshold,
                        );
                        self.eval_timer(Indicator::WriteBurst).record_elapsed(timer);
                        if burst {
                            let in_window = st.burst_window_len();
                            self.award(
                                st,
                                path,
                                IndicatorHit {
                                    indicator: Indicator::WriteBurst,
                                    points: cfg.score.points_burst,
                                    value: in_window as f64,
                                    threshold: f64::from(cfg.score.burst_threshold),
                                    detail: format!("modification burst at {path}"),
                                    at_nanos: at,
                                },
                            );
                        }
                    }
                }
                // (A zeroed point value disables the indicator entirely —
                // the isolation study relies on this.)
                if cfg.score.points_entropy_delta > 0 {
                    // Collusion defense: a file whose read baseline was
                    // built by a *different* family hands that baseline to
                    // the writer before the write is folded in — the
                    // reader/writer split no longer severs the read side
                    // of the entropy delta (each file inherits at most
                    // once per writing family).
                    if let Some(b) = baseline {
                        if b.reader_key != key && b.len > 0 && st.inherit_read_baseline(*file) {
                            st.entropy_mut().observe_read_known(b.entropy(), b.len);
                            if self.shared.telemetry.is_enabled() {
                                self.shared.metrics.baselines_inherited.inc();
                                self.shared.telemetry.journal_event(at, key.0, || {
                                    JournalKind::BaselineInherited {
                                        path: path.as_str().to_string(),
                                        reader_pid: b.reader_pid.0,
                                    }
                                });
                            }
                        }
                    }
                    let timer = self.shared.telemetry.start_timer();
                    let fired = match known {
                        Some(entropy) => {
                            debug_assert_eq!(
                                entropy,
                                cryptodrop_entropy::entropy_lut_of(data),
                                "snapshot entropy drifted from the payload's"
                            );
                            st.entropy_mut().observe_write_known(entropy, data.len() as u64)
                        }
                        None => st.entropy_mut().observe_write(data),
                    };
                    self.eval_timer(Indicator::EntropyDelta).record_elapsed(timer);
                    if fired {
                        let delta = st.entropy().delta().unwrap_or_default();
                        // Small writes earn proportionally fewer points: a
                        // flood of tiny-file encryptions should not outpace
                        // the content indicators (paper §V-C's small-file
                        // dynamics).
                        let scale = (data.len() as f64
                            / cfg.score.entropy_full_weight_bytes.max(1) as f64)
                            .min(1.0);
                        let points =
                            ((cfg.score.points_entropy_delta as f64 * scale).round() as u32).max(1);
                        self.award(
                            st,
                            path,
                            IndicatorHit {
                                indicator: Indicator::EntropyDelta,
                                points,
                                value: delta,
                                threshold: cfg.score.entropy_delta_threshold,
                                detail: format!("write/read entropy delta {delta:.3} at {path}"),
                                at_nanos: at,
                            },
                        );
                    }
                }
                self.verdict_for(st, at)
            }

            RecordBody::Truncate { file } => {
                let created = {
                    let mut shard = self.shared.file_shard(*file).lock();
                    // Truncation destroys the content the read baseline
                    // described.
                    shard.read_baselines.remove(file);
                    shard.created.contains(file)
                };
                let mut fam = self.shared.family_shard(key).lock();
                let st =
                    FamilyShard::process_mut(&mut fam.processes, cfg, key, &rec.process_name);
                if !created {
                    st.record_loss(*file);
                }
                self.verdict_for(st, at)
            }

            RecordBody::Close {
                path,
                file,
                current,
                stamp,
                dirty,
            } => {
                let path = path.as_ref();
                let current: &[u8] = current.as_ref();
                let stamp = *stamp;
                // The degenerate `similarity_match_max >= 100`
                // configuration would count even self-similarity as
                // dissimilar, so it disables every unchanged shortcut.
                let shortcut_ok = cfg.fingerprint_cache && cfg.score.similarity_match_max < 100;

                // Tier 1 — stamp-unchanged, O(1): the close-time content
                // stamp equals the resident snapshot's, so the content is
                // byte-identical to the pre-image. No content indicator
                // can fire (same type; self-similarity is 100), the
                // funneling indicator reuses the snapshot's sniffed type,
                // and both snapshot indices are already current — only the
                // path entry's LRU tick needs touching. No sniff, no
                // fingerprint pass, no snapshot clone, no allocation.
                if shortcut_ok && stamp != 0 {
                    let resident_type = {
                        let fsh = self.shared.file_shard(*file).lock();
                        fsh.snapshots
                            .get(file)
                            .and_then(|s| (s.stamp == stamp).then_some(s.file_type))
                    };
                    if let Some(file_type) = resident_type {
                        self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                        if self.shared.telemetry.is_enabled() {
                            self.shared.metrics.incr_stamp_skips.inc();
                        }
                        let verdict = {
                            let mut fam = self.shared.family_shard(key).lock();
                            let st = FamilyShard::process_mut(
                                &mut fam.processes,
                                cfg,
                                key,
                                &rec.process_name,
                            );
                            if !current.is_empty() {
                                let levels = st.funnel_mut().record_written(file_type);
                                debug_assert_eq!(
                                    levels, 0,
                                    "writing types can only narrow the funnel"
                                );
                            }
                            self.verdict_for(st, at)
                        };
                        let tick = self.shared.next_tick();
                        let path_stale = {
                            let mut shard = self.shared.path_shard(path).lock();
                            match shard.snapshots.get_mut(path) {
                                Some(e) if e.snap.stamp == stamp => {
                                    e.tick = tick;
                                    false
                                }
                                _ => true,
                            }
                        };
                        if path_stale {
                            // The path index lost (or never had) this
                            // version: re-seed it from the id index.
                            let snap = self
                                .shared
                                .file_shard(*file)
                                .lock()
                                .snapshots
                                .get(file)
                                .cloned();
                            if let Some(snap) = snap {
                                let evicted = self.shared.path_shard(path).lock().insert_snapshot(
                                    path.clone(),
                                    snap,
                                    tick,
                                    self.shard_cap(),
                                );
                                if evicted > 0 {
                                    self.shared
                                        .cache_evictions
                                        .fetch_add(evicted, Ordering::Relaxed);
                                }
                            }
                        }
                        return verdict;
                    }
                }

                let snapshot = self
                    .shared
                    .file_shard(*file)
                    .lock()
                    .snapshots
                    .get(file)
                    .cloned();
                // Zero-recompute gate, fingerprint flavor: consulted only
                // when a stamp is unknown (tier 1 already resolved the
                // both-stamps-known case, and two known, different stamps
                // prove the content changed).
                let unchanged = shortcut_ok
                    && snapshot.as_ref().is_some_and(|s| {
                        (stamp == 0 || s.stamp == 0)
                            && s.fingerprint == content_fingerprint(current)
                    });

                if unchanged || !cfg.incremental_analysis {
                    // The reference path: one sniff of the final content,
                    // shared by the funneling indicator, the type-change
                    // indicator, and the refresh.
                    let post_type = sniff(current);
                    let mut reusable_digest = None;
                    let verdict = {
                        let mut fam = self.shared.family_shard(key).lock();
                        let st = FamilyShard::process_mut(
                            &mut fam.processes,
                            cfg,
                            key,
                            &rec.process_name,
                        );
                        // The funneling indicator sees the type this
                        // process wrote.
                        if !current.is_empty() {
                            let levels = st.funnel_mut().record_written(post_type);
                            debug_assert_eq!(levels, 0, "writing types can only narrow the funnel");
                        }
                        if !unchanged {
                            if let Some(snap) = &snapshot {
                                reusable_digest = self
                                    .evaluate_content(st, snap, current, post_type, path, at)
                                    .into_reusable();
                            }
                        }
                        self.verdict_for(st, at)
                    };
                    // The file's "previous version" is now what was just
                    // written; refresh both snapshot indices. Unchanged
                    // content reuses the existing snapshot outright;
                    // changed content reuses the sniff and the similarity
                    // pass's post-image digest instead of recomputing them.
                    let cached = if unchanged {
                        match snapshot {
                            Some(snap) => CloseCache::Unchanged(snap),
                            None => CloseCache::Torn,
                        }
                    } else {
                        CloseCache::Changed
                    };
                    let mut fresh = self.resolve_close_snapshot(
                        cached,
                        current,
                        post_type,
                        reusable_digest,
                        at,
                        key,
                    );
                    if cfg.incremental_analysis && stamp != 0 {
                        // Adopt the stamp so the next close takes tier 1.
                        fresh.stamp = stamp;
                    }
                    self.finish_close(path, *file, fresh);
                    return verdict;
                }

                // Tier 2/3 — changed close under incremental analysis:
                // delta-update the retained intermediates from the dirty
                // extents when the stamp chain holds, recompute from
                // scratch otherwise. Either way the products are
                // bit-identical to a full recompute, the similarity
                // indicator is evaluated against the precomputed digest,
                // and the refreshed snapshot retains its intermediates for
                // the *next* close.
                let (histogram, digest, features, fingerprint, delta) =
                    self.close_products(snapshot.as_ref(), current, stamp, dirty.as_deref());
                if self.shared.telemetry.is_enabled() {
                    if delta {
                        self.shared.metrics.incr_delta.inc();
                    } else {
                        self.shared.metrics.incr_full.inc();
                    }
                }
                let post_type = sniff(current);
                let entropy = histogram.entropy_lut();
                let verdict = {
                    let mut fam = self.shared.family_shard(key).lock();
                    let st =
                        FamilyShard::process_mut(&mut fam.processes, cfg, key, &rec.process_name);
                    if !current.is_empty() {
                        let levels = st.funnel_mut().record_written(post_type);
                        debug_assert_eq!(levels, 0, "writing types can only narrow the funnel");
                    }
                    if let Some(snap) = &snapshot {
                        let timer = self.shared.telemetry.start_timer();
                        let sim_outcome = similarity::evaluate_precomputed(
                            snap.digest.as_ref(),
                            snap.entropy,
                            digest.as_ref(),
                            cfg.score.similarity_match_max,
                            cfg.score.similarity_max_source_entropy,
                        );
                        self.eval_timer(Indicator::Similarity).record_elapsed(timer);
                        self.content_hits(st, snap, sim_outcome, post_type, path, at);
                    }
                    self.verdict_for(st, at)
                };
                self.shared.cache_misses.fetch_add(1, Ordering::Relaxed);
                let fresh = FileSnapshot {
                    file_type: post_type,
                    digest,
                    entropy,
                    len: current.len() as u64,
                    fingerprint,
                    stamp,
                    incr: Some(Arc::new(IncrState {
                        histogram,
                        features,
                    })),
                };
                debug_assert_eq!(
                    fresh,
                    FileSnapshot::capture(current, cfg.max_digest_bytes),
                    "incremental close analysis drifted from the full recompute"
                );
                self.finish_close(path, *file, fresh);
                verdict
            }

            RecordBody::Delete { path, file } => {
                let path = path.as_ref();
                let created = {
                    let mut fsh = self.shared.file_shard(*file).lock();
                    fsh.snapshots.remove(file);
                    // The path-keyed snapshot is retained deliberately: a
                    // Class C sample may later drop its encrypted copy at
                    // this path.
                    fsh.created.contains(file)
                };
                // Pin the retained snapshot: the Class C link must survive
                // unrelated cache pressure, so post-delete snapshots leave
                // the LRU population and move to the pinned budget.
                let evicted = self
                    .shared
                    .path_shard(path)
                    .lock()
                    .pin(path, self.pinned_shard_cap());
                if evicted > 0 {
                    self.shared
                        .cache_evictions
                        .fetch_add(evicted, Ordering::Relaxed);
                }
                let mut fam = self.shared.family_shard(key).lock();
                let st =
                    FamilyShard::process_mut(&mut fam.processes, cfg, key, &rec.process_name);
                // Deleting one's own temporary files is routine (§III-D);
                // only deletions of pre-existing user files count.
                if !created {
                    st.record_loss(*file);
                    let timer = self.shared.telemetry.start_timer();
                    let scored = st.deletions_mut().observe_delete();
                    self.eval_timer(Indicator::Deletion).record_elapsed(timer);
                    if scored {
                        let count = st.deletions().deletions();
                        self.award(
                            st,
                            path,
                            IndicatorHit {
                                indicator: Indicator::Deletion,
                                points: cfg.score.points_deletion,
                                value: f64::from(count),
                                threshold: f64::from(cfg.score.deletion_allowance),
                                detail: format!("bulk deletion: {path}"),
                                at_nanos: at,
                            },
                        );
                    }
                }
                self.verdict_for(st, at)
            }

            RecordBody::Rename {
                from,
                to,
                file,
                replaced,
                to_protected,
                dest_current,
            } => {
                let from = from.as_ref();
                let to = to.as_ref();
                let mut verdict = Verdict::Allow;
                if *to_protected {
                    if let Some(replaced_id) = replaced {
                        // The Class C link: an "independent" encrypted copy
                        // moved over the original is compared against the
                        // original's retained snapshot (paper §V-B2). As in
                        // the pre-shard engine, the replacement is scored
                        // against the issuing pid.
                        let tick = self.shared.next_tick();
                        let dest_snap = self
                            .shared
                            .path_shard(to)
                            .lock()
                            .get_snapshot(to, tick);
                        let created = self
                            .shared
                            .file_shard(*replaced_id)
                            .lock()
                            .created
                            .contains(replaced_id);
                        let mut fam = self.shared.family_shard(rec.issuer).lock();
                        let st = FamilyShard::process_mut(
                            &mut fam.processes,
                            cfg,
                            rec.issuer,
                            &rec.process_name,
                        );
                        if !created {
                            st.record_loss(*replaced_id);
                        }
                        if let (Some(snap), Some(current)) = (dest_snap, dest_current.as_ref()) {
                            self.evaluate_content(st, &snap, current, sniff(current), to, at);
                        }
                        verdict = self.verdict_for(st, at);
                    }
                }

                // The moved file's own snapshot follows it to the new path.
                // Whatever path-keyed history `from` held is consumed
                // either way: the file is gone from that path, and a stale
                // entry left behind would be served as the pre-image of an
                // unrelated file that later lands at `from`.
                let moved_snap = self
                    .shared
                    .file_shard(*file)
                    .lock()
                    .snapshots
                    .get(file)
                    .cloned();
                let from_snap = self.shared.path_shard(from).lock().remove_snapshot(from);
                let follow = moved_snap.or(from_snap);
                if let Some(snap) = follow {
                    let tick = self.shared.next_tick();
                    let evicted = self.shared.path_shard(to).lock().insert_snapshot(
                        to.clone(),
                        snap,
                        tick,
                        self.shard_cap(),
                    );
                    if evicted > 0 {
                        self.shared
                            .cache_evictions
                            .fetch_add(evicted, Ordering::Relaxed);
                    }
                }
                verdict
            }
        }
    }

    /// Routes a built record to the pipeline (when attached and running)
    /// or processes it inline.
    fn dispatch(&self, rec: OpRecord<'_>) -> Verdict {
        match &self.pipeline {
            Some(p) => p.submit(self, rec),
            None => self.process_record(&rec),
        }
    }
}

impl FilterDriver for CryptoDrop {
    fn name(&self) -> &str {
        "cryptodrop"
    }

    fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
        let cfg = &self.cfg;
        // Block members of an already-flagged (and not user-permitted)
        // process family at the front edge of their next operation.
        let key = self.scoring_key(ctx);
        if let Some(p) = self.shared.family_shard(key).lock().processes.get(&key) {
            if p.is_detected() && !p.is_permitted() {
                return Verdict::suspend(FAMILY_FLAGGED);
            }
        }
        // Decoy tripwire: any destructive touch of a registered bait file
        // is an instant maximum-confidence detection, bypassing the
        // scoreboard (no refresh needed — the decoy's content is noise).
        if !self.shared.decoys.is_empty() {
            if let Some(decoy) = self.decoy_hit(&ctx.op) {
                return self.decoy_verdict(ctx, key, decoy);
            }
        }
        let refresh = match ctx.op {
            // Snapshot a file that is about to be opened for writing —
            // before any truncation destroys the original content.
            FsOp::Open { path, options } if options.write && self.shared.in_scope(cfg, path) => {
                Some(path)
            }
            // Snapshot a protected file about to be deleted, so a later
            // move-over of an "independent" encrypted copy can still be
            // linked to the original content (§V-B2's Class C analysis).
            FsOp::Delete { path } if cfg.is_protected(path) => Some(path),
            // Snapshot a protected rename destination about to be replaced.
            FsOp::Rename { to, overwrite, .. } if overwrite && cfg.is_protected(to) => Some(to),
            _ => None,
        };
        if let Some(path) = refresh {
            if let Some(rec) = self.build_refresh(key, ctx, path, fs) {
                let _ = self.dispatch(rec);
            }
        }
        // Reputation-driven throttling: a suspect past the engage score
        // pays a simulated-clock delay on every destructive in-scope
        // operation, stretching its time-to-damage while the scoreboard
        // converges. Issued after the refresh so a throttled operation is
        // still fully analysed.
        if let Some(v) = self.throttle_verdict(ctx, key) {
            return v;
        }
        Verdict::Allow
    }

    fn post_op(&mut self, ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, fs: &FsView<'_>) -> Verdict {
        // Reputation is tracked per process family when aggregation is on
        // (the default): a sample fanning work out across children is
        // scored — and stopped — as one unit (paper §IV).
        let key = self.scoring_key(ctx);
        if let Some(v) = self.family_gate(key) {
            return v;
        }
        let Some(rec) = self.build_post_record(key, ctx, outcome, fs) else {
            return Verdict::Allow;
        };
        self.dispatch(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecayPolicy;
    use cryptodrop_vfs::{OpenOptions, Vfs};

    const DOCS: &str = "/Users/victim/Documents";

    /// Test-local stand-in for the legacy `CryptoDrop::new` (gated behind
    /// the `legacy-api` feature): the same unvalidated construction path.
    fn new_engine(cfg: Config) -> (CryptoDrop, Monitor) {
        CryptoDrop::with_telemetry_inner(cfg, Telemetry::disabled())
    }

    fn text_content(tag: u32, n: usize) -> Vec<u8> {
        (0..)
            .flat_map(|i| format!("file {tag} paragraph {i} with ordinary words\n").into_bytes())
            .take(n)
            .collect()
    }

    fn keystream(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    fn encrypt(data: &[u8], seed: u64) -> Vec<u8> {
        data.iter()
            .zip(keystream(data.len(), seed))
            .map(|(b, k)| b ^ k)
            .collect()
    }

    /// Stages a small corpus and returns (vfs, monitor).
    fn setup(files: usize) -> (Vfs, Monitor) {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..files {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            fs.admin().write_file(&path, &text_content(i as u32, 4096)).unwrap();
        }
        fs.admin().create_dir_all(&VPath::new("/tmp")).unwrap();
        let (engine, monitor) = new_engine(Config::protecting(DOCS));
        fs.register_filter(Box::new(engine));
        (fs, monitor)
    }

    /// Runs a Class A in-place encryption loop until suspended.
    fn run_class_a(fs: &mut Vfs, pid: ProcessId) -> usize {
        let docs = VPath::new(DOCS);
        let mut encrypted = 0;
        'outer: for i in 0..100 {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            if fs.admin().metadata(&path).is_err() {
                continue;
            }
            let h = match fs.open(pid, &path, OpenOptions::modify()) {
                Ok(h) => h,
                Err(_) => break 'outer,
            };
            let data = match fs.read_to_end(pid, h) {
                Ok(d) => d,
                Err(_) => break 'outer,
            };
            let ct = encrypt(&data, i as u64 + 1);
            if fs.seek(pid, h, 0).is_err()
                || fs.write(pid, h, &ct).is_err()
                || fs.close(pid, h).is_err()
            {
                let _ = fs.close(pid, h);
                break 'outer;
            }
            encrypted += 1;
        }
        encrypted
    }

    #[test]
    fn class_a_ransomware_is_detected_with_few_files_lost() {
        let (mut fs, monitor) = setup(60);
        let pid = fs.spawn_process("teslacrypt.exe");
        run_class_a(&mut fs, pid);
        assert!(fs.is_suspended(pid), "ransomware must be suspended");
        let report = monitor.detection_for(pid).expect("detection report");
        assert!(report.union_triggered, "Class A trips all three primaries");
        assert!(
            report.files_lost <= 15,
            "lost {} of 60 files",
            report.files_lost
        );
        assert!(report.files_lost >= 1);
        assert_eq!(report.threshold, monitor.config().score.union_threshold);
        // The vast majority of the corpus survived.
        let surviving = fs
            .admin().files()
            .filter(|(p, d)| p.as_str().ends_with(".txt") && d.starts_with(b"file"))
            .count();
        assert!(surviving >= 45, "only {surviving} files survived");
    }

    #[test]
    fn benign_copy_is_not_detected() {
        let (mut fs, monitor) = setup(40);
        let pid = fs.spawn_process("backup.exe");
        let docs = VPath::new(DOCS);
        // Copy every document to a backup folder: reads text, writes the
        // same text. No entropy delta, no type change on originals.
        fs.create_dir_all(pid, &docs.join("backup")).unwrap();
        for i in 0..40 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            let data = fs.read_file(pid, &src).unwrap();
            fs.write_file(pid, &docs.join(format!("backup/file{i}.txt")), &data)
                .unwrap();
        }
        assert!(!fs.is_suspended(pid));
        assert_eq!(monitor.detections().len(), 0);
        let score = monitor.score(pid);
        assert!(
            score < monitor.config().score.non_union_threshold / 2,
            "benign copy scored {score}"
        );
    }

    #[test]
    fn class_b_move_out_and_back_is_tracked() {
        let (mut fs, monitor) = setup(40);
        let pid = fs.spawn_process("classb.exe");
        let docs = VPath::new(DOCS);
        let tmp = VPath::new("/tmp");
        for i in 0..40 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            if fs.admin().metadata(&src).is_err() {
                continue;
            }
            let staging = tmp.join(format!("work{i}.tmp"));
            if fs.rename(pid, &src, &staging, false).is_err() {
                break;
            }
            let h = match fs.open(pid, &staging, OpenOptions::modify()) {
                Ok(h) => h,
                Err(_) => break,
            };
            let data = fs.read_to_end(pid, h).unwrap_or_default();
            let ct = encrypt(&data, 1000 + i as u64);
            if fs.seek(pid, h, 0).is_err()
                || fs.write(pid, h, &ct).is_err()
                || fs.close(pid, h).is_err()
            {
                let _ = fs.close(pid, h);
                break;
            }
            // Move back under a scrambled name.
            let back = docs.join(format!("dir{}/LOCKED-{i}.xyz", i % 3));
            if fs.rename(pid, &staging, &back, false).is_err() {
                break;
            }
        }
        assert!(fs.is_suspended(pid), "Class B must be caught via tracking");
        let report = monitor.detection_for(pid).unwrap();
        assert!(report.union_triggered);
        assert!(report.files_lost <= 15, "lost {}", report.files_lost);
    }

    #[test]
    fn class_c_rename_over_original_links_content() {
        let (mut fs, monitor) = setup(40);
        let pid = fs.spawn_process("classc.exe");
        let docs = VPath::new(DOCS);
        for i in 0..40 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            let Ok(data) = fs.read_file(pid, &src) else { break };
            let enc_path = docs.join(format!("dir{}/file{i}.enc", i % 3));
            if fs.write_file(pid, &enc_path, &encrypt(&data, 77 + i as u64)).is_err() {
                break;
            }
            // Move the encrypted copy over the original.
            if fs.rename(pid, &enc_path, &src, true).is_err() {
                break;
            }
        }
        assert!(fs.is_suspended(pid));
        let report = monitor.detection_for(pid).unwrap();
        assert!(
            report.union_triggered,
            "rename-over-original enables union linking (41/63 in the paper)"
        );
    }

    #[test]
    fn class_c_delete_variant_caught_without_union() {
        let (mut fs, monitor) = setup(60);
        let pid = fs.spawn_process("classc-del.exe");
        let docs = VPath::new(DOCS);
        for i in 0..60 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            let Ok(data) = fs.read_file(pid, &src) else { break };
            let enc_path = docs.join(format!("dir{}/file{i}.zzz", i % 3));
            if fs
                .write_file(pid, &enc_path, &encrypt(&data, 555 + i as u64))
                .is_err()
            {
                break;
            }
            if fs.delete(pid, &src).is_err() {
                break;
            }
        }
        assert!(fs.is_suspended(pid), "high-entropy writes + deletions add up");
        let report = monitor.detection_for(pid).unwrap();
        assert!(
            !report.union_triggered,
            "independent streams evade union (22/63 in the paper)"
        );
        // Deletion indicator must have contributed.
        let summary = monitor.summary(pid).unwrap();
        assert!(summary.hit_counts.contains_key(&Indicator::Deletion));
        assert!(summary.hit_counts.contains_key(&Indicator::EntropyDelta));
    }

    #[test]
    fn activity_outside_protected_dirs_is_ignored() {
        let (mut fs, monitor) = setup(5);
        let pid = fs.spawn_process("builder.exe");
        fs.create_dir_all(pid, &VPath::new("/build")).unwrap();
        // High-entropy writes galore, but outside the protected tree.
        for i in 0..200 {
            let path = VPath::new(format!("/build/obj{i}.bin"));
            fs.write_file(pid, &path, &keystream(4096, i as u64 + 1)).unwrap();
        }
        assert_eq!(monitor.score(pid), 0);
        assert!(monitor.summary(pid).is_none(), "never entered scope");
    }

    #[test]
    fn per_process_isolation() {
        let (mut fs, monitor) = setup(40);
        let evil = fs.spawn_process("evil.exe");
        let good = fs.spawn_process("word.exe");
        let docs = VPath::new(DOCS);
        // The benign process edits one file normally.
        let note = docs.join("dir0/file0.txt");
        let mut data = fs.read_file(good, &note).unwrap();
        data.extend_from_slice(b"\nappended a paragraph\n");
        fs.write_file(good, &note, &data).unwrap();
        // The malicious process encrypts everything else.
        run_class_a(&mut fs, evil);
        assert!(fs.is_suspended(evil));
        assert!(!fs.is_suspended(good));
        assert!(monitor.detection_for(good).is_none());
        assert!(monitor.score(good) < 30);
    }

    #[test]
    fn detection_report_reason_mentions_score() {
        let (mut fs, monitor) = setup(50);
        let pid = fs.spawn_process("mal.exe");
        run_class_a(&mut fs, pid);
        let report = monitor.detection_for(pid).unwrap();
        let reason = report.reason();
        assert!(reason.contains("cryptodrop"));
        assert!(reason.contains(&report.score.to_string()));
        // The suspension record in the process table carries the reason.
        let rec = fs.processes().get(pid).unwrap().suspension().unwrap().clone();
        assert_eq!(rec.by, "cryptodrop");
        assert!(rec.reason.contains("threshold"));
    }

    #[test]
    fn repeated_benign_saves_accumulate_slowly() {
        // An Excel-like pattern: modify and save the same document over and
        // over. Consecutive-version snapshots mean each save is compared to
        // the previous save, not the ancient original.
        let (mut fs, monitor) = setup(3);
        let pid = fs.spawn_process("excel.exe");
        let path = VPath::new(DOCS).join("dir0/file0.txt");
        for round in 0..20 {
            let mut data = fs.read_file(pid, &path).unwrap();
            data.extend_from_slice(format!("row {round} added\n").as_bytes());
            let h = fs.open(pid, &path, OpenOptions::create()).unwrap();
            fs.write(pid, h, &data).unwrap();
            fs.close(pid, h).unwrap();
        }
        assert!(!fs.is_suspended(pid));
        let score = monitor.score(pid);
        assert!(score < 100, "incremental saves scored {score}");
    }

    #[test]
    fn process_family_fanout_is_aggregated() {
        // A dropper fans encryption out across children; per-child scores
        // would stay under threshold, but the family is scored as one.
        let (mut fs, monitor) = setup(60);
        let parent = fs.spawn_process("dropper.exe");
        let workers: Vec<_> = (0..3)
            .map(|i| fs.spawn_child_process(parent, format!("worker{i}.exe")))
            .collect();
        let docs = VPath::new(DOCS);
        'outer: for i in 0..60 {
            let pid = workers[i % workers.len()];
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            if fs.admin().metadata(&path).is_err() {
                continue;
            }
            let h = match fs.open(pid, &path, OpenOptions::modify()) {
                Ok(h) => h,
                Err(_) => break 'outer,
            };
            let data = fs.read_to_end(pid, h).unwrap_or_default();
            let ct = encrypt(&data, i as u64 + 9);
            if fs.seek(pid, h, 0).is_err()
                || fs.write(pid, h, &ct).is_err()
                || fs.close(pid, h).is_err()
            {
                let _ = fs.close(pid, h);
                break 'outer;
            }
        }
        // The family root carries the detection...
        let report = monitor.detection_for(parent).expect("family detected");
        assert!(report.files_lost <= 20, "lost {}", report.files_lost);
        // ...and every worker is blocked (directly or via family check).
        for w in workers {
            assert!(
                fs.write_file(w, &docs.join("dir0/poke.txt"), b"x").is_err(),
                "{w} still active"
            );
        }
    }

    #[test]
    fn user_permit_allows_continuation() {
        // §IV-A: the user reviews the alert and allows the process (the
        // 7-zip scenario). After permit + resume, the process finishes
        // without being re-flagged.
        let (mut fs, monitor) = setup(60);
        let pid = fs.spawn_process("archiver.exe");
        run_class_a(&mut fs, pid);
        let report = monitor.detection_for(pid).expect("initially flagged");
        assert!(fs.is_suspended(pid));

        assert!(monitor.permit(report.pid));
        assert!(fs.resume_process(pid));

        // The process continues over the rest of the corpus unhindered.
        let encrypted_more = run_class_a(&mut fs, pid);
        assert!(encrypted_more > 0, "continued after permit");
        assert!(!fs.is_suspended(pid), "not re-suspended");
        assert_eq!(monitor.detections().len(), 1, "no second report");
    }

    #[test]
    fn dynamic_scoring_speeds_small_file_detection() {
        // Future work from §V-C: boost the type-change indicator when the
        // similarity indicator is structurally unavailable (sub-512 B
        // files have no sdhash digest).
        let stage = |cfg: Config| -> u32 {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..80 {
                // All tiny: below the sdhash minimum.
                fs.admin().write_file(
                    &docs.join(format!("notes/n{i}.txt")),
                    format!("tiny note {i} with a few words").as_bytes(),
                )
                .unwrap();
            }
            let (engine, monitor) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("tinycrypt.exe");
            for i in 0..80 {
                let path = docs.join(format!("notes/n{i}.txt"));
                let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
                    break;
                };
                let data = fs.read_to_end(pid, h).unwrap_or_default();
                let ct = encrypt(&data, i as u64 + 3);
                let _ = fs.seek(pid, h, 0);
                let _ = fs.write(pid, h, &ct);
                let _ = fs.close(pid, h);
            }
            monitor.files_lost(pid)
        };
        let base = Config::protecting(DOCS);
        let mut dynamic = base.clone();
        dynamic.dynamic_scoring = true;
        let without = stage(base);
        let with = stage(dynamic);
        assert!(
            with < without,
            "dynamic scoring must cut tiny-file losses: {with} vs {without}"
        );
    }

    #[test]
    fn write_burst_indicator_fires_without_think_time() {
        let run = |think: bool| -> (bool, u32) {
            let (mut fs, monitor) = setup(40);
            let mut cfg = Config::protecting(DOCS);
            cfg.score.burst_enabled = true;
            cfg.score.burst_threshold = 5;
            // Swap in a burst-enabled engine.
            let _ = fs.take_filters();
            let (engine, monitor2) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            drop(monitor);
            let pid = fs.spawn_process("writer.exe");
            let docs = VPath::new(DOCS);
            for i in 0..30 {
                let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
                if fs.admin().metadata(&path).is_err() {
                    continue;
                }
                // Benign-shaped writes: same text back (no entropy delta,
                // no type change) so only the burst indicator can score.
                let Ok(data) = fs.read_file(pid, &path) else { break };
                if fs.write_file(pid, &path, &data).is_err() {
                    break;
                }
                if think {
                    fs.advance_clock(30_000_000_000); // 30 s think time
                }
            }
            let summary = monitor2.summary(pid).expect("seen");
            let fired = summary.hit_counts.contains_key(&Indicator::WriteBurst);
            (fired, summary.score)
        };
        let (burst_fast, _) = run(false);
        let (burst_slow, slow_score) = run(true);
        assert!(burst_fast, "flat-out modification bursts must score");
        assert!(!burst_slow, "think-time paced edits must not (score {slow_score})");
    }

    #[test]
    fn zeroed_burst_points_disable_the_indicator_entirely() {
        // `burst_enabled` with `points_burst == 0` used to run the whole
        // window bookkeeping and award 0-point hits, polluting audits and
        // eval timers; zeroed points must disable the indicator outright,
        // matching the entropy/type-change/similarity semantics.
        let (mut fs, monitor) = setup(40);
        let mut cfg = Config::protecting(DOCS);
        cfg.score.burst_enabled = true;
        cfg.score.burst_threshold = 2;
        cfg.score.points_burst = 0;
        let _ = fs.take_filters();
        let telemetry = Telemetry::new(4096);
        let (engine, monitor2) =
            CryptoDrop::with_telemetry_inner(cfg, telemetry.clone());
        fs.register_filter(Box::new(engine));
        drop(monitor);
        let pid = fs.spawn_process("writer.exe");
        let docs = VPath::new(DOCS);
        for i in 0..30 {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            if fs.admin().metadata(&path).is_err() {
                continue;
            }
            let Ok(data) = fs.read_file(pid, &path) else { break };
            if fs.write_file(pid, &path, &data).is_err() {
                break;
            }
        }
        let summary = monitor2.summary(pid).expect("seen");
        assert!(
            !summary.hit_counts.contains_key(&Indicator::WriteBurst),
            "no burst hits — not even 0-point ones: {summary:?}"
        );
        let counters = telemetry.metrics().snapshot().counters;
        assert_eq!(
            counters
                .get("engine.indicator.write-burst.fires")
                .copied()
                .unwrap_or(0),
            0,
            "the fire counter must never be bumped"
        );
    }

    #[test]
    fn two_pid_collusion_inherits_the_read_baseline() {
        // A reader pid streams the plaintext; a separate writer pid (a
        // separate family) overwrites each file with ciphertext. Pre-fix
        // the writer's entropy tracker had no read side, so the evidence
        // split severed the entropy-delta indicator and the union; with
        // per-file read baselines the writer inherits the reader's
        // observations and the pair is caught.
        let (mut fs, monitor) = setup(60);
        let reader = fs.spawn_process("reader.exe");
        let writer = fs.spawn_process("writer.exe");
        let docs = VPath::new(DOCS);
        let mut touched = 0u32;
        for i in 0..60 {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            if fs.admin().metadata(&path).is_err() {
                continue;
            }
            let Ok(data) = fs.read_file(reader, &path) else { break };
            let ct = encrypt(&data, i as u64 + 7);
            if fs.write_file(writer, &path, &ct).is_err() {
                break;
            }
            touched += 1;
        }
        assert!(
            fs.is_suspended(writer),
            "the colluding writer must be suspended (touched {touched} files, \
             writer score {})",
            monitor.score(writer)
        );
        let report = monitor.detection_for(writer).expect("writer detection");
        assert!(
            report.union_triggered,
            "the inherited baseline restores the entropy leg of the union: {report:?}"
        );
        let writer_hits = monitor.summary(writer).expect("writer summary").hit_counts;
        assert!(
            writer_hits.contains_key(&Indicator::EntropyDelta),
            "entropy delta must fire on the writer: {writer_hits:?}"
        );
        assert!(!fs.is_suspended(reader), "reading alone stays clean");
    }

    #[test]
    fn solo_reader_never_inherits_its_own_baseline() {
        // The baseline only crosses *family* boundaries: a single pid
        // reading and writing builds its own tracker, and inheriting its
        // own observations would double-weight the read side. The
        // inherited-baseline counter must stay silent on solo runs.
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..10 {
            let path = docs.join(format!("f{i}.txt"));
            fs.admin().write_file(&path, &text_content(i, 4096)).unwrap();
        }
        let telemetry = Telemetry::new(4096);
        let (engine, _monitor) =
            CryptoDrop::with_telemetry_inner(Config::protecting(DOCS), telemetry.clone());
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("solo.exe");
        for i in 0..10 {
            let path = docs.join(format!("f{i}.txt"));
            let Ok(data) = fs.read_file(pid, &path) else { break };
            let _ = fs.write_file(pid, &path, &encrypt(&data, 3));
        }
        let counters = telemetry.metrics().snapshot().counters;
        assert_eq!(
            counters
                .get("engine.entropy.baselines_inherited")
                .copied()
                .unwrap_or(0),
            0
        );
    }

    #[test]
    fn rate_budget_stretches_a_sustained_writers_clock() {
        // A family hammering first modifications drains its token bucket;
        // once dry, destructive operations are delayed on the simulated
        // clock even though no indicator has scored (benign-shaped
        // rewrites). A paced writer never runs dry.
        let run = |budget: bool, files: usize| -> (u64, u64, u64) {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..files {
                let path = docs.join(format!("f{i}.txt"));
                fs.admin().write_file(&path, &text_content(i as u32, 2048)).unwrap();
            }
            let mut cfg = Config::protecting(DOCS);
            if budget {
                // 4 tokens, one per 10 simulated seconds, 50ms per dry op.
                cfg = cfg.with_rate_budget(4, 10_000_000_000, 50_000_000);
            }
            let telemetry = Telemetry::new(4096);
            let (engine, _monitor) = CryptoDrop::with_telemetry_inner(cfg, telemetry.clone());
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("churn.exe");
            for i in 0..files {
                let path = docs.join(format!("f{i}.txt"));
                let Ok(data) = fs.read_file(pid, &path) else { break };
                let _ = fs.write_file(pid, &path, &data);
            }
            let counters = telemetry.metrics().snapshot().counters;
            (
                fs.clock().now_nanos(),
                counters.get("engine.rate.exhausted").copied().unwrap_or(0),
                counters
                    .get("engine.rate.throttled_ops")
                    .copied()
                    .unwrap_or(0),
            )
        };
        let (base_nanos, _, _) = run(false, 20);
        let (budget_nanos, exhausted, throttled) = run(true, 20);
        assert!(exhausted > 0, "20 first-mods must outrun 4 tokens");
        assert!(throttled > 0, "dry-bucket ops must be delayed");
        assert!(
            budget_nanos > base_nanos,
            "rate budget must cost the churner simulated time: \
             {budget_nanos} vs {base_nanos}"
        );
    }

    #[test]
    fn decay_window_suppresses_stale_scores() {
        // Awards spread far apart age out of a windowed policy before
        // they can accumulate: a low threshold that a permanent
        // scoreboard crosses is never crossed by the decayed one, and
        // every suppressed check is visible in telemetry.
        let run = |decay: DecayPolicy| -> (bool, u64, u64) {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..12 {
                let path = docs.join(format!("f{i}.txt"));
                fs.admin().write_file(&path, &text_content(i, 4096)).unwrap();
            }
            // Default thresholds (200 / 160-with-union): twelve encrypted
            // files accumulate well past them raw, while no single file's
            // fresh awards plus a fresh union bonus come anywhere close.
            let cfg = Config::protecting(DOCS).with_decay(decay);
            let telemetry = Telemetry::new(4096);
            let (engine, _monitor) = CryptoDrop::with_telemetry_inner(cfg, telemetry.clone());
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("slowroll.exe");
            for i in 0..12 {
                let path = docs.join(format!("f{i}.txt"));
                let Ok(data) = fs.read_file(pid, &path) else { break };
                let _ = fs.write_file(pid, &path, &encrypt(&data, i as u64 + 1));
                // 60 s of think time between victims.
                fs.advance_clock(60_000_000_000);
            }
            let counters = telemetry.metrics().snapshot().counters;
            (
                fs.is_suspended(pid),
                counters.get("engine.decay.checks").copied().unwrap_or(0),
                counters.get("engine.decay.suppressed").copied().unwrap_or(0),
            )
        };
        let (caught_none, checks_none, _) = run(DecayPolicy::None);
        assert!(caught_none, "the permanent scoreboard crosses 60 points");
        assert_eq!(checks_none, 0, "no decay arithmetic under DecayPolicy::None");
        let (caught_window, checks, suppressed) = run(DecayPolicy::Window {
            window_nanos: 30_000_000_000, // half the pacing gap
        });
        assert!(
            !caught_window,
            "per-file awards age out before the next victim"
        );
        assert!(checks > 0);
        assert!(
            suppressed > 0,
            "raw score crossed while decayed held below: must be counted"
        );
    }

    #[test]
    fn monitor_summaries_sorted_and_complete() {
        let (mut fs, monitor) = setup(10);
        let a = fs.spawn_process("a.exe");
        let b = fs.spawn_process("b.exe");
        let docs = VPath::new(DOCS);
        fs.read_file(a, &docs.join("dir0/file0.txt")).unwrap();
        fs.read_file(b, &docs.join("dir1/file1.txt")).unwrap();
        let summaries = monitor.summaries();
        assert_eq!(summaries.len(), 2);
        assert!(summaries[0].pid < summaries[1].pid);
    }

    #[test]
    fn unchanged_rewrite_hits_snapshot_cache() {
        let (mut fs, monitor) = setup(8);
        let pid = fs.spawn_process("editor.exe");
        let docs = VPath::new(DOCS);
        let path = docs.join("dir0/file0.txt");
        // Save the file back unchanged, twice.
        for _ in 0..2 {
            let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
            let data = fs.read_to_end(pid, h).unwrap();
            fs.seek(pid, h, 0).unwrap();
            fs.write(pid, h, &data).unwrap();
            fs.close(pid, h).unwrap();
        }
        let stats = monitor.cache_stats();
        // The first open's pre_op capture is a miss (path never snapshotted);
        // both closes and the second open's pre_op reuse the fingerprint.
        assert!(stats.hits >= 3, "expected >= 3 hits, got {stats:?}");
        assert_eq!(stats.misses, 1, "only the initial capture recomputes: {stats:?}");
        assert_eq!(stats.evictions, 0);
        assert!(!fs.is_suspended(pid));
        assert_eq!(monitor.score(pid), 0, "identical rewrite must not score");
    }

    #[test]
    fn changed_rewrite_recomputes_and_still_scores() {
        let (mut fs, monitor) = setup(8);
        let pid = fs.spawn_process("tool.exe");
        let docs = VPath::new(DOCS);
        let path = docs.join("dir0/file0.txt");
        let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
        let data = fs.read_to_end(pid, h).unwrap();
        let ct = encrypt(&data, 99);
        fs.seek(pid, h, 0).unwrap();
        fs.write(pid, h, &ct).unwrap();
        fs.close(pid, h).unwrap();
        let stats = monitor.cache_stats();
        // pre_op capture + close-time refresh both recompute.
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 2, "{stats:?}");
        // The content indicators saw the change.
        let hits = monitor.hits(pid);
        assert!(
            hits.iter().any(|h| h.indicator == Indicator::Similarity),
            "similarity must fire on encryption: {hits:?}"
        );
    }

    #[test]
    fn snapshot_cache_eviction_is_counted_and_bounded() {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..64 {
            fs.admin().write_file(&docs.join(format!("f{i}.txt")), &text_content(i, 2048))
                .unwrap();
        }
        let mut cfg = Config::protecting(DOCS);
        cfg.snapshot_cache_capacity = 16; // per-shard cap of 1
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("editor.exe");
        for i in 0..64 {
            let path = docs.join(format!("f{i}.txt"));
            let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
            let data = fs.read_to_end(pid, h).unwrap();
            fs.seek(pid, h, 0).unwrap();
            fs.write(pid, h, &data).unwrap();
            fs.close(pid, h).unwrap();
        }
        let stats = monitor.cache_stats();
        assert!(stats.evictions > 0, "64 paths over a 16-entry cap must evict: {stats:?}");
        assert!(
            stats.resident <= 16,
            "residency must respect the cap: {stats:?}"
        );
        // Eviction only affects caching, never correctness: the benign
        // process stays clean.
        assert!(!fs.is_suspended(pid));
        assert_eq!(monitor.detections().len(), 0);
    }

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

    /// Reproduces the bench `eviction_pressure` probe's evictions ≈ misses
    /// shape and proves it is the inherent LRU sweep pathology — a cyclic
    /// working set larger than capacity revisits each path only after it
    /// was evicted to admit the others — not a victim-selection bug:
    /// the identical trace through a cache at least as large as the
    /// working set stops evicting entirely.
    #[test]
    fn cyclic_sweep_thrash_is_capacity_pathology_not_victim_order() {
        let paths = 20usize;
        let run = |capacity: usize| -> CacheStats {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..paths {
                fs.admin()
                    .write_file(&docs.join(format!("f{i}.txt")), &text_content(i as u32, 2048))
                    .unwrap();
            }
            let mut cfg = Config::protecting(DOCS);
            cfg.snapshot_cache_capacity = capacity;
            let (engine, monitor) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("editor.exe");
            for _round in 0..5 {
                for i in 0..paths {
                    let path = docs.join(format!("f{i}.txt"));
                    let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
                    let data = fs.read_to_end(pid, h).unwrap();
                    fs.seek(pid, h, 0).unwrap();
                    fs.write(pid, h, &data).unwrap();
                    fs.close(pid, h).unwrap();
                }
            }
            assert!(!fs.is_suspended(pid), "benign saves must stay clean");
            monitor.cache_stats()
        };

        // Capacity 8 over 16 shards is 1 slot per shard: every shard
        // holding two or more of the 20 paths evicts one to admit the
        // other on each pass, so nearly every miss pairs with an
        // eviction (first-touch misses are the only unpaired ones).
        let squeezed = run(8);
        assert!(squeezed.evictions > 0, "sweep must thrash: {squeezed:?}");
        assert!(
            squeezed.misses - squeezed.evictions <= 2 * paths as u64,
            "thrash is one-for-one modulo first touches: {squeezed:?}"
        );
        // The same trace with capacity covering the working set: the 20
        // first-touch misses are the only recomputes, everything after
        // hits, and nothing is ever evicted.
        let ample = run(64);
        assert_eq!(ample.evictions, 0, "{ample:?}");
        assert_eq!(ample.misses, paths as u64, "{ample:?}");
        assert!(ample.hits > ample.misses, "{ample:?}");
    }

    #[test]
    fn forked_engine_shares_scoreboard() {
        let (mut fs, monitor) = setup(60);
        // Register a *fork* instead of a fresh engine elsewhere: same
        // shards, same detection log.
        let second = monitor.fork_engine_inner();
        assert_eq!(
            Arc::as_ptr(&second.shared),
            Arc::as_ptr(&monitor.shared),
            "fork must alias the same shared state"
        );
        let pid = fs.spawn_process("locker.exe");
        run_class_a(&mut fs, pid);
        assert!(fs.is_suspended(pid));
        // The fork's monitor view sees the detection too.
        let (_, via_fork) = {
            let m2 = Monitor {
                cfg: Arc::clone(&second.cfg),
                shared: Arc::clone(&second.shared),
            };
            (0, m2.detections())
        };
        assert_eq!(via_fork, monitor.detections());
        assert_eq!(via_fork.len(), 1);
    }

    #[test]
    fn close_snapshot_resolver_survives_missing_snapshot() {
        // The unchanged-close fast path once did
        // `snapshot.expect("unchanged implies a snapshot")`: torn cache
        // state (snapshot evicted between the gate and the resolve) would
        // panic inside the filter. The resolver must degrade to a
        // recompute and count the anomaly instead.
        let (engine, monitor) = new_engine(Config::protecting(DOCS));
        let current = text_content(1, 4096);
        let post_type = sniff(&current);
        let resolved = engine.resolve_close_snapshot(
            CloseCache::Torn, // unchanged gate matched, snapshot gone
            &current,
            post_type,
            None,
            42,
            ProcessId(9),
        );
        assert_eq!(
            resolved,
            FileSnapshot::capture(&current, engine.cfg.max_digest_bytes),
            "anomaly path must recompute a faithful snapshot"
        );
        let stats = monitor.cache_stats();
        assert_eq!(stats.anomalies, 1, "{stats:?}");
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.misses, 1, "{stats:?}");
        // The healthy paths stay anomaly-free.
        let healthy = engine.resolve_close_snapshot(
            CloseCache::Unchanged(resolved.clone()),
            &current,
            post_type,
            None,
            43,
            ProcessId(9),
        );
        assert_eq!(healthy, resolved);
        assert_eq!(monitor.cache_stats().anomalies, 1);
        assert_eq!(monitor.cache_stats().hits, 1);
    }

    #[test]
    fn retained_post_delete_snapshot_survives_lru_pressure() {
        // The Class C link: a deleted original's snapshot must survive
        // unrelated cache pressure so a later drop at the same path can be
        // compared against the original content. Before pinning, the
        // post-delete snapshot was ordinary LRU population and any burst
        // of benign activity evicted it.
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        let target = docs.join("target.txt");
        let original = text_content(7, 4096);
        fs.admin().write_file(&target, &original).unwrap();
        let mut cfg = Config::protecting(DOCS);
        cfg.snapshot_cache_capacity = 2; // per-shard cap of 1
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));

        let pid = fs.spawn_process("classc-slow.exe");
        // One deletion: within the allowance, so no score yet — but the
        // engine retains (and must pin) the original's snapshot.
        fs.delete(pid, &target).unwrap();
        assert_eq!(monitor.cache_stats().pinned, 1);
        // Unrelated benign churn floods every path shard far past the cap.
        for i in 0..64 {
            fs.write_file(pid, &docs.join(format!("cover{i}.txt")), &text_content(i, 2048))
                .unwrap();
        }
        let stats = monitor.cache_stats();
        assert!(stats.evictions > 0, "cover churn must evict: {stats:?}");
        assert_eq!(stats.pinned, 1, "the retained snapshot must survive: {stats:?}");
        // The drop: an "independent" encrypted copy lands at the deleted
        // original's path.
        fs.write_file(pid, &target, &encrypt(&original, 31)).unwrap();
        let hits = monitor.hits(pid);
        assert!(
            hits.iter().any(|h| h.indicator == Indicator::Similarity),
            "drop must be linked to the deleted original: {hits:?}"
        );
        assert!(
            hits.iter().any(|h| h.indicator == Indicator::TypeChange),
            "type change vs the deleted original must fire: {hits:?}"
        );
    }

    #[test]
    fn pinned_snapshots_respect_their_own_budget() {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..64 {
            fs.admin().write_file(&docs.join(format!("f{i}.txt")), &text_content(i, 2048))
                .unwrap();
        }
        let mut cfg = Config::protecting(DOCS);
        cfg.snapshot_cache_capacity = 16;
        cfg.pinned_snapshot_budget = 16; // per-shard budget of 1
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("wiper.exe");
        for i in 0..64 {
            if fs.delete(pid, &docs.join(format!("f{i}.txt"))).is_err() {
                break; // suspended for bulk deletion — the budget already filled
            }
        }
        let stats = monitor.cache_stats();
        assert!(stats.pinned >= 1, "{stats:?}");
        assert!(stats.pinned <= 16, "pinned budget must bound retention: {stats:?}");
        assert!(stats.resident <= 32, "{stats:?}");
    }

    #[test]
    fn class_c_detection_survives_tiny_snapshot_cache() {
        // Invariant guard: the rename-over Class C flow keeps detecting
        // even under a pathologically small cache.
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..40 {
            fs.admin().write_file(
                &docs.join(format!("dir{}/file{i}.txt", i % 3)),
                &text_content(i, 4096),
            )
            .unwrap();
        }
        let mut cfg = Config::protecting(DOCS);
        cfg.snapshot_cache_capacity = 2;
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("classc.exe");
        for i in 0..40 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            let Ok(data) = fs.read_file(pid, &src) else { break };
            let enc_path = docs.join(format!("dir{}/file{i}.enc", i % 3));
            if fs.write_file(pid, &enc_path, &encrypt(&data, 77 + i as u64)).is_err() {
                break;
            }
            if fs.rename(pid, &enc_path, &src, true).is_err() {
                break;
            }
        }
        assert!(fs.is_suspended(pid));
        let report = monitor.detection_for(pid).unwrap();
        assert!(report.union_triggered, "cache pressure must not break the link");
    }

    /// Strips an [`IndicatorHit`] to its deterministic parts (timestamps
    /// carry measured filter overhead and vary run to run).
    fn stripped(hits: Vec<IndicatorHit>) -> Vec<(Indicator, u32, String)> {
        hits.into_iter().map(|h| (h.indicator, h.points, h.detail)).collect()
    }

    #[test]
    fn rename_out_and_back_verdict_matches_cache_disabled_replay() {
        // A file is warmed (fingerprint-cached) at its original path,
        // renamed out of the tree, encrypted there, and renamed back to
        // the *same* original path. The fingerprint cache must never serve
        // the stale pre-move snapshot: the verdict and the full hit trail
        // must be byte-identical to a replay with the cache disabled.
        let run = |fingerprint_cache: bool| {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..24 {
                fs.admin().write_file(
                    &docs.join(format!("dir{}/file{i}.txt", i % 3)),
                    &text_content(i, 4096),
                )
                .unwrap();
            }
            fs.admin().create_dir_all(&VPath::new("/tmp")).unwrap();
            let mut cfg = Config::protecting(DOCS);
            cfg.fingerprint_cache = fingerprint_cache;
            let (engine, monitor) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("outandback.exe");
            let tmp = VPath::new("/tmp");
            'outer: for i in 0..24 {
                let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
                if fs.admin().metadata(&src).is_err() {
                    continue;
                }
                // Warm the caches: an unchanged rewrite at the original path.
                let Ok(h) = fs.open(pid, &src, OpenOptions::modify()) else {
                    break 'outer;
                };
                let data = fs.read_to_end(pid, h).unwrap_or_default();
                if fs.seek(pid, h, 0).is_err()
                    || fs.write(pid, h, &data).is_err()
                    || fs.close(pid, h).is_err()
                {
                    let _ = fs.close(pid, h);
                    break 'outer;
                }
                // Out of the tree, encrypt there, and back to the same path.
                let staging = tmp.join(format!("s{i}.tmp"));
                if fs.rename(pid, &src, &staging, false).is_err() {
                    break 'outer;
                }
                let Ok(h) = fs.open(pid, &staging, OpenOptions::modify()) else {
                    break 'outer;
                };
                let ct = encrypt(&data, 400 + i as u64);
                if fs.seek(pid, h, 0).is_err()
                    || fs.write(pid, h, &ct).is_err()
                    || fs.close(pid, h).is_err()
                {
                    let _ = fs.close(pid, h);
                    break 'outer;
                }
                if fs.rename(pid, &staging, &src, false).is_err() {
                    break 'outer;
                }
            }
            (
                monitor.score(pid),
                fs.is_suspended(pid),
                monitor.detection_for(pid).map(|d| (d.score, d.union_triggered, d.files_lost)),
                stripped(monitor.hits(pid)),
            )
        };
        let cached = run(true);
        let reference = run(false);
        assert_eq!(
            cached, reference,
            "fingerprint cache must be invisible to verdicts"
        );
        assert!(cached.1, "the out-and-back encryptor must still be caught");
    }

    #[test]
    fn vacated_path_serves_no_stale_preimage() {
        // Renaming a warmed file out of the tree consumes its path-keyed
        // history. A *different* file later created at the vacated path
        // must not inherit the old file's snapshot as its pre-image.
        let (mut fs, monitor) = setup(8);
        let docs = VPath::new(DOCS);
        let pid = fs.spawn_process("organizer.exe");
        let src = docs.join("dir0/file0.txt");
        // Warm the file-id snapshot so the rename has one to follow.
        let h = fs.open(pid, &src, OpenOptions::modify()).unwrap();
        let data = fs.read_to_end(pid, h).unwrap();
        fs.seek(pid, h, 0).unwrap();
        fs.write(pid, h, &data).unwrap();
        fs.close(pid, h).unwrap();
        fs.rename(pid, &src, &VPath::new("/tmp/archived.txt"), false).unwrap();
        // Fresh, unrelated high-entropy content lands at the vacated path
        // (e.g. a downloaded archive). With a stale pre-image this would
        // fire type-change/similarity against content it never replaced.
        fs.write_file(pid, &src, &keystream(4096, 5)).unwrap();
        let hits = monitor.hits(pid);
        assert!(
            !hits
                .iter()
                .any(|h| matches!(h.indicator, Indicator::TypeChange | Indicator::Similarity)),
            "no content comparison without a true pre-image: {hits:?}"
        );
    }

    #[test]
    fn audit_trail_reconstructs_indicator_timeline() {
        // End-to-end observability: engine + VFS share one telemetry
        // handle; after a detection the audit trail explains it and the
        // journal carries the op -> indicator -> suspension journey.
        let telemetry = cryptodrop_telemetry::Telemetry::new(1 << 16);
        let mut fs = Vfs::new();
        fs.set_telemetry(telemetry.clone());
        let docs = VPath::new(DOCS);
        for i in 0..60 {
            fs.admin().write_file(
                &docs.join(format!("dir{}/file{i}.txt", i % 3)),
                &text_content(i as u32, 4096),
            )
            .unwrap();
        }
        let (engine, monitor) =
            CryptoDrop::with_telemetry_inner(Config::protecting(DOCS), telemetry.clone());
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("locky.exe");
        run_class_a(&mut fs, pid);
        assert!(fs.is_suspended(pid));

        let trail = monitor.audit_trail(pid).expect("seen process");
        assert!(trail.detected);
        assert!(trail.suspended_at_nanos.is_some());
        assert!(!trail.entries.is_empty());
        assert_eq!(trail.entries.last().unwrap().score_after, trail.score);
        assert_eq!(trail.entries.len(), monitor.hits(pid).len());
        // Every entry names its indicator and carries a timeline position.
        let mut last_at = 0;
        for e in &trail.entries {
            assert!(!e.indicator_name.is_empty());
            assert!(e.threshold >= 0.0);
            assert!(e.at_nanos >= last_at, "entries must be in firing order");
            last_at = e.at_nanos;
        }
        assert!(trail.union_triggered);
        let rendered = trail.render();
        assert!(rendered.contains("locky.exe"));
        assert!(rendered.contains("SUSPENDED"));

        // The journal interleaves filter and engine events for this pid.
        let events = telemetry.journal().events_for(pid.0);
        let indicator_events = events
            .iter()
            .filter(|e| matches!(e.kind, cryptodrop_telemetry::JournalKind::Indicator { .. }))
            .count();
        assert_eq!(indicator_events, trail.entries.len());
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, cryptodrop_telemetry::JournalKind::Op { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, cryptodrop_telemetry::JournalKind::Suspension { .. })));

        // Metrics: fires match the trail, eval timings were recorded, and
        // the detection was counted.
        let snap = telemetry.metrics().snapshot();
        let fired: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("engine.indicator."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(fired, trail.entries.len() as u64);
        assert_eq!(snap.counters.get("engine.detections"), Some(&1));
        let sim_evals = snap
            .histograms
            .get("engine.eval.similarity.ns")
            .expect("similarity eval histogram");
        assert!(sim_evals.count > 0);
    }

    #[test]
    fn disabled_telemetry_keeps_journal_and_metrics_empty() {
        let (mut fs, monitor) = setup(40);
        let pid = fs.spawn_process("quiet.exe");
        run_class_a(&mut fs, pid);
        assert!(fs.is_suspended(pid));
        let t = monitor.telemetry();
        assert!(!t.is_enabled());
        assert!(t.journal().is_empty(), "disabled telemetry must not journal");
        let snap = t.metrics().snapshot();
        assert!(
            snap.counters.values().all(|v| *v == 0),
            "disabled telemetry must not count: {snap:?}"
        );
        assert!(snap.histograms.values().all(|h| h.count == 0));
        // The audit trail still works: it reads the scoreboard, not the
        // journal.
        let trail = monitor.audit_trail(pid).expect("trail without telemetry");
        assert!(trail.detected);
        assert!(!trail.entries.is_empty());
    }

    /// Stages a corpus plus one decoy, registered with the engine.
    fn setup_with_decoy(files: usize) -> (Vfs, Monitor, VPath) {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..files {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            fs.admin().write_file(&path, &text_content(i as u32, 4096)).unwrap();
        }
        let decoy = docs.join("dir0/backup_passwords.xlsx");
        fs.admin().write_file(&decoy, &text_content(999, 2048)).unwrap();
        let cfg = Config::protecting(DOCS).with_decoys([decoy.clone()]);
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        (fs, monitor, decoy)
    }

    #[test]
    fn decoy_modification_is_instant_detection() {
        let (mut fs, monitor, decoy) = setup_with_decoy(10);
        let pid = fs.spawn_process("evil.exe");
        // Reading (enumerating) the decoy is harmless.
        assert!(fs.read_file(pid, &decoy).is_ok());
        assert!(!fs.is_suspended(pid));
        assert_eq!(monitor.score(pid), 0);
        // The first destructive touch suspends at score 0: no scoreboard
        // convergence, no files lost first.
        let err = fs.write_file(pid, &decoy, b"ENCRYPTED").unwrap_err();
        assert!(matches!(err, cryptodrop_vfs::VfsError::ProcessSuspended(_)));
        assert!(fs.is_suspended(pid));
        let report = monitor.detection_for(pid).expect("decoy detection");
        assert_eq!(report.files_lost, 0);
        assert_eq!(report.score, 0);
    }

    #[test]
    fn decoy_delete_and_rename_trip_too() {
        for destructive in [
            (&|fs: &mut Vfs, pid: ProcessId, d: &VPath| fs.delete(pid, d).map(|_| ()))
                as &dyn Fn(&mut Vfs, ProcessId, &VPath) -> Result<(), cryptodrop_vfs::VfsError>,
            &|fs, pid, d| fs.rename(pid, d, &VPath::new(DOCS).join("x.bin"), false),
            &|fs, pid, d| {
                fs.rename(pid, &VPath::new(DOCS).join("dir0/file0.txt"), d, true)
            },
            &|fs, pid, d| fs.set_read_only(pid, d, true),
        ] {
            let (mut fs, monitor, decoy) = setup_with_decoy(10);
            let pid = fs.spawn_process("evil.exe");
            assert!(destructive(&mut fs, pid, &decoy).is_err());
            assert!(fs.is_suspended(pid), "destructive decoy touch must suspend");
            assert_eq!(monitor.detections().len(), 1);
        }
    }

    #[test]
    fn benign_workload_never_trips_decoys() {
        let (mut fs, monitor, decoy) = setup_with_decoy(20);
        let pid = fs.spawn_process("backup.exe");
        let docs = VPath::new(DOCS);
        // A benign backup reads everything — decoy included — and writes
        // copies elsewhere, never modifying the bait.
        fs.create_dir_all(pid, &docs.join("backup")).unwrap();
        let data = fs.read_file(pid, &decoy).unwrap();
        fs.write_file(pid, &docs.join("backup/passwords.xlsx"), &data)
            .unwrap();
        for i in 0..20 {
            let src = docs.join(format!("dir{}/file{i}.txt", i % 3));
            let data = fs.read_file(pid, &src).unwrap();
            fs.write_file(pid, &docs.join(format!("backup/file{i}.txt")), &data)
                .unwrap();
        }
        assert!(!fs.is_suspended(pid));
        assert!(monitor.detections().is_empty());
    }

    #[test]
    fn throttling_stretches_the_suspects_clock() {
        let run = |throttle: bool| -> (u64, bool) {
            let mut fs = Vfs::new();
            let docs = VPath::new(DOCS);
            for i in 0..60 {
                let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
                fs.admin().write_file(&path, &text_content(i as u32, 4096)).unwrap();
            }
            let mut cfg = Config::protecting(DOCS);
            if throttle {
                cfg = cfg.with_throttling(30, 1_000_000);
            }
            let (engine, _monitor) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("cryptolocker.exe");
            run_class_a(&mut fs, pid);
            (fs.clock().now_nanos(), fs.is_suspended(pid))
        };
        let (base_nanos, base_caught) = run(false);
        let (throttled_nanos, throttled_caught) = run(true);
        assert!(base_caught && throttled_caught);
        assert!(
            throttled_nanos > base_nanos,
            "throttling must cost the suspect simulated time: \
             {throttled_nanos} vs {base_nanos}"
        );
    }

    #[test]
    fn throttling_never_delays_processes_below_the_engage_score() {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        fs.admin().write_file(&docs.join("a.txt"), b"plain text body").unwrap();
        let cfg = Config::protecting(DOCS).with_throttling(30, 1_000_000);
        let (engine, monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("editor.exe");
        let before = fs.clock().now_nanos();
        fs.write_file(pid, &docs.join("a.txt"), b"plain text body, edited")
            .unwrap();
        let spent = fs.clock().now_nanos() - before;
        assert_eq!(monitor.score(pid), 0);
        // Only the ledger's per-op service times elapsed: no 30ms+
        // throttle penalty was charged at score 0.
        assert!(spent < 30_000_000, "benign op cost {spent}ns");
    }
}
