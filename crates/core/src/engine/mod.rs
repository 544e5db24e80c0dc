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
//! The engine is four files: `mod.rs` (filter callbacks, record
//! building, one analysis handler per operation, scoring), `cache.rs`
//! (the snapshot cache), `evidence.rs` (indicator evidence as pure
//! functions of snapshots and [`Config`]) and `gates.rs` (family gate,
//! decoys, throttling and rate budgets).
//!
//! # Concurrency and caching
//!
//! The engine's state is split into independently locked shards so that
//! several [`Vfs`](cryptodrop_vfs::Vfs) instances (one per OS thread, see
//! [`Session::fork`](crate::Session::fork)) can drive one shared
//! scoreboard without contending unless they actually touch the same
//! process family, path, or file. Snapshots are keyed by the VFS content
//! stamp so re-opening or re-closing a file whose bytes have not changed
//! skips the expensive sniff/sdhash/entropy recompute entirely; see
//! `DESIGN.md` ("Engine concurrency & caching") for the shard layout and
//! cache invariants.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use cryptodrop_simhash::SdDigest;
use cryptodrop_sniff::{sniff, FileType};
use cryptodrop_telemetry::{Counter, Histogram, JournalKind, Telemetry};
use cryptodrop_vfs::{
    content_stamp, DirtyReport, FileId, FilterDriver, FsOp, FsView, OpContext, OpOutcome,
    ProcessId, VPath, Verdict,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::config::Config;
use crate::indicators::similarity::SimilarityOutcome;
use crate::indicators::type_change;
use crate::indicators::{Indicator, IndicatorHit};
use crate::pipeline::PipelineShared;
use crate::record::{OpRecord, RecordBody, Replaced};
use crate::state::{FileSnapshot, ProcessState, ProcessSummary};

mod cache;
mod evidence;
mod gates;

pub use cache::CacheStats;
use cache::{debug_assert_reference, shard_index, SnapshotCache, SHARDS};

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

/// One shard of the per-process-family scoreboard.
type FamilyShard = HashMap<ProcessId, ProcessState>;

/// Telemetry handles the engine resolves once at construction, so a
/// counted event costs one relaxed atomic bump — not a registry lookup —
/// whether or not telemetry is enabled.
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
    /// digest, no content pass (the incremental fast path's best case).
    incr_stamp_skips: Counter,
    /// Changed closes analysed from their dirty extents (histogram delta
    /// plus sdhash feature splice) instead of a whole-content recompute.
    incr_delta: Counter,
    /// Changed closes that fell back to the whole-content recompute
    /// (interference, truncation, scattered writes, oversized files, or no
    /// retained intermediates).
    incr_full: Counter,
    /// Read and write payloads whose entropy was taken from a
    /// stamp-matching resident snapshot instead of recomputed.
    stamp_reuse: Counter,
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
            stamp_reuse: t.counter("engine.entropy.stamp_reuse"),
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
    cache: SnapshotCache,
    detections: Mutex<Vec<DetectionReport>>,
    telemetry: Telemetry,
    metrics: EngineMetrics,
    /// Registered decoy files, pre-hashed once at construction from
    /// [`Config::decoy_paths`] so the per-operation tripwire is a single
    /// set probe (and free when no decoys are configured).
    decoys: HashSet<VPath>,
}

impl EngineShared {
    fn new(cfg: &Config, telemetry: Telemetry) -> Self {
        Self {
            families: std::array::from_fn(|_| Mutex::new(FamilyShard::default())),
            cache: SnapshotCache::new(cfg, &telemetry),
            detections: Mutex::new(Vec::new()),
            metrics: EngineMetrics::new(&telemetry),
            telemetry,
            decoys: cfg.decoy_paths.iter().cloned().collect(),
        }
    }

    fn family_shard(&self, pid: ProcessId) -> &Mutex<FamilyShard> {
        &self.families[shard_index(u64::from(pid.0))]
    }

    /// Path is in scope: protected, or currently tracked after moving out
    /// of a protected directory.
    fn in_scope(&self, cfg: &Config, path: &VPath) -> bool {
        cfg.is_protected(path) || self.cache.is_tracked(path)
    }
}

/// The CryptoDrop filter driver. Build a [`Session`](crate::Session) with
/// [`CryptoDrop::builder`], register [`Session::fork`](crate::Session::fork)
/// drivers on [`Vfs`](cryptodrop_vfs::Vfs) instances, and read results
/// through the session's [`Monitor`] view. A clone is another driver
/// over the same scoreboard, snapshot cache, detection log, pipeline and
/// shadow attachments.
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
#[derive(Clone)]
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
    /// pipelined.
    pub fn builder() -> crate::session::SessionBuilder {
        crate::session::SessionBuilder::new()
    }

    /// Creates an engine wired to a [`Telemetry`] handle — the builder's
    /// construction path. Does **not** validate `config`; the builder does.
    pub(crate) fn with_telemetry_inner(
        config: Config,
        telemetry: Telemetry,
    ) -> (CryptoDrop, Monitor) {
        let shared = Arc::new(EngineShared::new(&config, telemetry));
        let monitor = Monitor {
            cfg: Arc::new(config),
            shared,
        };
        (monitor.fork_engine_inner(), monitor)
    }

    /// A fork with no pipeline attachment: worker threads and
    /// post-shutdown degradation process records directly. The shadow
    /// attachment is kept — deferred analysis must still pin pre-images.
    pub(crate) fn detached_fork(&self) -> CryptoDrop {
        CryptoDrop {
            pipeline: None,
            ..self.clone()
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
}

impl Monitor {
    /// The engine configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// A filter driver over this monitor's engine state with no pipeline
    /// or shadow attachment.
    pub(crate) fn fork_engine_inner(&self) -> CryptoDrop {
        CryptoDrop {
            cfg: Arc::clone(&self.cfg),
            shared: Arc::clone(&self.shared),
            pipeline: None,
            shadow: None,
        }
    }

    /// Applies `f` to one process's state, if the engine has seen it.
    fn with_process<R>(&self, pid: ProcessId, f: impl FnOnce(&ProcessState) -> R) -> Option<R> {
        self.shared.family_shard(pid).lock().get(&pid).map(f)
    }

    /// The current reputation score of a process (0 if never seen).
    pub fn score(&self, pid: ProcessId) -> u32 {
        self.with_process(pid, ProcessState::score).unwrap_or(0)
    }

    /// The number of pre-existing protected files lost to a process.
    pub fn files_lost(&self, pid: ProcessId) -> u32 {
        self.with_process(pid, ProcessState::files_lost).unwrap_or(0)
    }

    /// A summary of one process's state, if the engine has seen it.
    pub fn summary(&self, pid: ProcessId) -> Option<ProcessSummary> {
        self.with_process(pid, |p| p.summary(&self.cfg.score))
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

    /// The detection report for one process family, if it was detected.
    /// Pass the *family root* pid — which is what
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
        self.with_process(pid, |p| p.hits().to_vec()).unwrap_or_default()
    }

    /// Snapshot-cache effectiveness counters (stamp hits/misses, LRU
    /// evictions, resident path snapshots): the `engine.cache.*` counters
    /// of this engine's telemetry sink, with the live occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        let metrics = self.shared.telemetry.metrics().snapshot();
        self.shared.cache.stats(&metrics)
    }

    /// The telemetry handle the engine was constructed with (a disabled
    /// stub unless [`SessionBuilder::telemetry`](crate::SessionBuilder::telemetry)
    /// was used).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Reconstructs the full detection audit trail for one process: every
    /// indicator that fired, in order, with its measured value, threshold,
    /// points, simulated timestamp, and the running score it produced —
    /// the explanation behind a suspension (paper §IV-A). Returns `None`
    /// if the engine has never seen the pid. Pass the family root pid, as
    /// carried by [`DetectionReport::pid`].
    pub fn audit_trail(&self, pid: ProcessId) -> Option<crate::audit::AuditTrail> {
        let suspended_at = self.detection_for(pid).map(|d| d.at_nanos);
        self.with_process(pid, |st| crate::audit::AuditTrail::rebuild(st, &self.cfg, suspended_at))
    }

    /// The user reviewed a detection and chose to allow the activity
    /// (paper §IV-A). The process (or family) is exempted from further
    /// scoring and re-suspension; pair this with
    /// [`Vfs::resume_process`](cryptodrop_vfs::Vfs::resume_process) on the
    /// suspended pid(s) to actually unblock it.
    ///
    /// Returns `false` if the engine has never seen the pid.
    pub fn permit(&self, pid: ProcessId) -> bool {
        match self.shared.family_shard(pid).lock().get_mut(&pid) {
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
        let processes: usize = self.shared.families.iter().map(|s| s.lock().len()).sum();
        f.debug_struct("CryptoDrop")
            .field("processes", &processes)
            .field("detections", &self.shared.detections.lock().len())
            .finish()
    }
}

impl CryptoDrop {
    /// Routes an indicator hit through the scoreboard, first bumping its
    /// fire counter and journaling the contribution (indicator, measured
    /// value, threshold, points, path).
    fn award(&self, st: &mut ProcessState, path: &VPath, hit: IndicatorHit) {
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

    /// Runs `f` on the scoreboard entry of family `key` (created on first
    /// sight, named `name`) under its family-shard lock. The detection
    /// log is the only lock ever taken while a family shard is held.
    fn with_family<R, F: FnOnce(&mut ProcessState) -> R>(&self, key: ProcessId, name: &str, f: F) -> R {
        let mut fam = self.shared.family_shard(key).lock();
        f(fam
            .entry(key)
            .or_insert_with(|| ProcessState::new(key, name, &self.cfg.score)))
    }

    /// The type-change and similarity hits of a post-image sniffed as
    /// `post_type` against the pre-image `pre`, whose similarity outcome
    /// `sim` is already known.
    fn content_hits(
        &self,
        pre: &FileSnapshot,
        sim: SimilarityOutcome,
        post_type: FileType,
        path: &VPath,
        at_nanos: u64,
    ) -> [Option<IndicatorHit>; 2] {
        let timer = self.shared.telemetry.start_timer();
        let type_outcome = type_change::evaluate(pre.file_type, post_type);
        self.eval_timer(Indicator::TypeChange).record_elapsed(timer);
        evidence::content_hits(&self.cfg, type_outcome, sim, path, at_nanos)
    }

    /// Compares `current` (sniffed as `post_type`) against the pre-image
    /// `pre` with the similarity pass that digests the post-image itself,
    /// and returns the content hits.
    fn compare_full(
        &self,
        pre: &FileSnapshot,
        current: &[u8],
        post_type: FileType,
        path: &VPath,
        at_nanos: u64,
    ) -> [Option<IndicatorHit>; 2] {
        let timer = self.shared.telemetry.start_timer();
        let sim = evidence::similarity_full(&self.cfg, pre, current);
        self.eval_timer(Indicator::Similarity).record_elapsed(timer);
        self.content_hits(pre, sim, post_type, path, at_nanos)
    }

    /// Compares a post-image whose digest is already computed (and which
    /// sniffed as `post_type`) against the pre-image `pre`, and returns
    /// the content hits.
    fn compare_precomputed(
        &self,
        pre: &FileSnapshot,
        post: Option<&SdDigest>,
        post_type: FileType,
        path: &VPath,
        at_nanos: u64,
    ) -> [Option<IndicatorHit>; 2] {
        let timer = self.shared.telemetry.start_timer();
        let sim = evidence::similarity_precomputed(&self.cfg, pre, post);
        self.eval_timer(Indicator::Similarity).record_elapsed(timer);
        self.content_hits(pre, sim, post_type, path, at_nanos)
    }

    /// The file's content stamp, but only when an operation payload of
    /// `len` bytes at `offset` is provably the file's **entire** content
    /// right now — otherwise `0` (unknown). Record builders attach this
    /// to read/write records so the analysis side can substitute a
    /// stamp-matching snapshot's entropy for an O(n) recompute.
    fn whole_content_stamp(&self, fs: &FsView<'_>, path: &VPath, offset: u64, len: usize) -> u64 {
        if offset != 0 {
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
        let same = |s: &FileSnapshot| s.stamp == stamp && s.len == len as u64;
        self.shared.cache.resident(file, |s| same(s).then_some(s.entropy)).flatten()
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
        let cache = &self.shared.cache;
        match &rec.body {
            // O(1) when the resident path snapshot already carries this
            // stamp (the refresh's fast branch); otherwise a capture runs.
            RecordBody::Refresh { path, stamp, .. } => {
                *stamp != 0 && cache.path_has_stamp(path, *stamp)
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
            // extent delta (O(dirty bytes) splicing plus one sniff —
            // already cheaper than cloning the content for the queue).
            // Only a broken stamp chain forces the tier-3 full
            // sniff/sdhash/entropy recompute, and that is the pass worth
            // handing to a worker.
            RecordBody::Close {
                file,
                current,
                stamp,
                dirty,
                ..
            } => {
                *stamp != 0
                    && cache
                        .resident(*file, |snap| {
                            (evidence::unchanged_shortcut(cfg) && snap.stamp == *stamp)
                                || dirty.as_deref().is_some_and(|d| {
                                    evidence::delta_applies(cfg, snap, current.len(), *stamp, d)
                                })
                        })
                        .unwrap_or(false)
            }
            // A replaced protected destination drags in the Class C
            // content evaluation; a plain move is bookkeeping.
            RecordBody::Rename { replaced, .. } => {
                replaced.as_ref().is_none_or(|r| r.current.is_none())
            }
        }
    }

    /// After awarding hits, checks the threshold — against the score
    /// *decayed to the record's simulated time* when a
    /// [`DecayPolicy`](crate::DecayPolicy) is configured — and issues the
    /// verdict. The caller holds the family shard.
    fn verdict_for(&self, st: &mut ProcessState, at_nanos: u64) -> Verdict {
        let cfg = &self.cfg;
        if st.is_detected() {
            return Verdict::Allow;
        }
        let decaying = !cfg.score.decay.is_none();
        let score = st.decayed_score(&cfg.score, at_nanos);
        let threshold = st.effective_threshold(&cfg.score);
        if decaying {
            self.shared.metrics.decay_checks.inc();
        }
        if score < threshold {
            // A raw score over the line that decayed below it is the
            // decay policy actively suppressing a suspension — make
            // every such check visible, it is the policy's cost side.
            if decaying && st.score() >= threshold {
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
        Verdict::suspend(self.detect(st, score, at_nanos))
    }

    /// Marks the family detected at `score`, publishes its
    /// [`DetectionReport`], and returns the report's suspension reason.
    /// The caller holds the family shard; the detection log is the only
    /// lock taken while it is held.
    fn detect(&self, st: &mut ProcessState, score: u32, at_nanos: u64) -> String {
        st.mark_detected();
        let report = DetectionReport {
            pid: st.pid(),
            process_name: st.name().to_string(),
            score,
            threshold: st.effective_threshold(&self.cfg.score),
            union_triggered: st.union_triggered(),
            files_lost: st.files_lost(),
            at_nanos,
            primaries_seen: st.primaries_seen().collect(),
        };
        let reason = report.reason();
        self.shared.detections.lock().push(report);
        self.shared.metrics.detections.inc();
        reason
    }

    /// The scoring key for an operation context: the issuing process's
    /// top-level ancestor, so a sample that fans work out across child
    /// processes is scored (and suspended) as one family — the paper's
    /// "suspends the suspicious process (or family of processes)" (§IV).
    fn scoring_key(&self, ctx: &OpContext<'_>) -> ProcessId {
        ctx.family_root
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
                    self.shared.cache.mark_created(*file);
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
                // A node deleted, or renamed over, before the close is no
                // longer at `path`: the bytes there are not the ones this
                // handle wrote, and its own are gone.
                let current = fs.file_bytes(path).filter(|_| fs.file_id(path) == Some(*file))?;
                RecordBody::Close {
                    path: Cow::Borrowed(path),
                    file: *file,
                    current: Cow::Borrowed(current),
                    stamp: *stamp,
                    dirty: dirty.map(Cow::Borrowed),
                }
            }

            (FsOp::Delete { path }, OpOutcome::Delete { file, last_link }) => {
                if !cfg.is_protected(path) {
                    return None;
                }
                RecordBody::Delete {
                    path: Cow::Borrowed(path),
                    file: *file,
                    last_link: *last_link,
                }
            }

            (
                FsOp::Rename { from, to, .. },
                OpOutcome::Rename {
                    file,
                    replaced,
                    replaced_last_link,
                },
            ) => {
                let from_protected = cfg.is_protected(from);
                let to_protected = cfg.is_protected(to);
                let was_tracked = self.shared.cache.untrack(from);
                if !(from_protected || to_protected || was_tracked) {
                    return None;
                }
                // The Class C link needs the destination's post-move
                // content; capture it now so the analysis never reads the
                // filesystem.
                let replaced = replaced.filter(|_| to_protected).map(|id| Replaced {
                    file: id,
                    last_link: *replaced_last_link,
                    current: fs.file_bytes(to).map(Cow::Borrowed),
                    stamp: fs.file_stamp(to).unwrap_or(0),
                });
                // Track files leaving the protected directories (Class B).
                // This is fast-path bookkeeping: the very next operation's
                // scope check must already see the tracked path.
                if cfg.track_moved_files && !to_protected && (from_protected || was_tracked) {
                    self.shared.cache.track(to, *file);
                }
                RecordBody::Rename {
                    from: Cow::Borrowed(from),
                    to: Cow::Borrowed(to),
                    file: *file,
                    replaced,
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
    /// it runs identically inline or on a pipeline worker thread. Each
    /// operation has its own handler below.
    pub(crate) fn process_record(&self, rec: &OpRecord<'_>) -> Verdict {
        // Re-run the family gate: a queued record may be processed after
        // its family was detected (or permitted) by an earlier record.
        // Refreshes are not gated: a permitted family keeps its
        // snapshots fresh for other processes' pre-images.
        if !matches!(rec.body, RecordBody::Refresh { .. }) {
            if let Some(v) = self.family_gate(rec.key) {
                return v;
            }
        }
        match &rec.body {
            RecordBody::Refresh {
                path,
                data,
                stamp,
                memo,
            } => {
                let cache = &self.shared.cache;
                cache.refresh(&self.cfg, path, data, *stamp, memo.as_ref());
                Verdict::Allow
            }
            RecordBody::Open { path, file } => {
                self.shared.cache.open(path, *file);
                Verdict::Allow
            }
            RecordBody::Read {
                path,
                file,
                offset,
                data,
                stamp,
            } => self.on_read(rec, path, *file, *offset, data, *stamp),
            RecordBody::Write { path, file, data, stamp } => {
                self.on_write(rec, path, *file, data, *stamp)
            }
            RecordBody::Truncate { file } => self.on_truncate(rec, *file),
            RecordBody::Close {
                path,
                file,
                current,
                stamp,
                dirty,
            } => self.on_close(rec, path, *file, current, *stamp, dirty.as_deref()),
            RecordBody::Delete {
                path,
                file,
                last_link,
            } => self.on_delete(rec, path, *file, *last_link),
            RecordBody::Rename {
                from,
                to,
                file,
                replaced,
            } => {
                let verdict =
                    replaced.as_ref().map_or(Verdict::Allow, |r| self.on_replace(rec, to, *file, r));
                self.shared.cache.follow_move(from, to, *file);
                verdict
            }
        }
    }

    /// A read: its payload's entropy feeds the family's read side and the
    /// file's read baseline, and a file's first read samples funneling.
    fn on_read(
        &self,
        rec: &OpRecord<'_>,
        path: &VPath,
        file: FileId,
        offset: u64,
        data: &[u8],
        stamp: u64,
    ) -> Verdict {
        let cfg = &self.cfg;
        // Resolve the payload's entropy once: folded into this
        // family's tracker below, and recorded as the file's read
        // baseline for the collusion defense. `entropy_lut_of` is
        // the exact fold `observe_read` delegates to, so routing
        // both paths through `observe_read_known` is bit-identical
        // to the split the pre-baseline engine used.
        let entropy = self
            .reused_entropy(file, stamp, data)
            .unwrap_or_else(|| cryptodrop_entropy::entropy_lut_of(data));
        if cfg.score.points_entropy_delta > 0 && !data.is_empty() {
            let cache = &self.shared.cache;
            cache.fold_read(file, rec.key, rec.issuer, entropy, data.len());
        }
        self.with_family(rec.key, &rec.process_name, |st| {
            st.entropy_mut().observe_read_known(entropy, data.len() as u64);
            // Sample the file's type from its leading bytes exactly once
            // per file for the funneling indicator.
            if offset == 0 && !data.is_empty() && st.first_read(file) {
                let timer = self.shared.telemetry.start_timer();
                let levels = st.funnel_mut().record_read(sniff(data));
                self.eval_timer(Indicator::Funneling).record_elapsed(timer);
                if levels > 0 {
                    let gap = st.funnel().gap();
                    self.award(
                        st,
                        path,
                        IndicatorHit {
                            indicator: Indicator::Funneling,
                            points: levels.saturating_mul(cfg.score.points_funneling),
                            value: f64::from(gap),
                            threshold: f64::from(cfg.score.funnel_gap),
                            detail: format!("type funnel widened reading {path}"),
                            at_nanos: rec.at_nanos,
                        },
                    );
                }
            }
            self.verdict_for(st, rec.at_nanos)
        })
    }

    /// [`Self::known_entropy`] for a read or write payload, counted in
    /// `engine.entropy.stamp_reuse` when the snapshot's entropy is reused.
    fn reused_entropy(&self, file: FileId, stamp: u64, data: &[u8]) -> Option<f64> {
        let known = self.known_entropy(file, stamp, data.len());
        if let Some(entropy) = known {
            debug_assert_eq!(
                entropy,
                cryptodrop_entropy::entropy_lut_of(data),
                "snapshot entropy drifted from the payload's"
            );
            self.shared.metrics.stamp_reuse.inc();
        }
        known
    }

    /// A write: a pre-existing file is lost, a first modification draws
    /// the rate budget and the burst window, and the payload's entropy
    /// scores against the family's read side.
    fn on_write(
        &self,
        rec: &OpRecord<'_>,
        path: &VPath,
        file: FileId,
        data: &[u8],
        stamp: u64,
    ) -> Verdict {
        let cfg = &self.cfg;
        let (key, at) = (rec.key, rec.at_nanos);
        let known = if cfg.score.points_entropy_delta > 0 {
            self.reused_entropy(file, stamp, data)
        } else {
            None
        };
        // One file-shard probe fetches the creation state and
        // retires the read baseline: this write replaces the
        // content the baseline described.
        let (created, baseline) = self.shared.cache.retire_read(file);
        self.with_family(key, &rec.process_name, |st| {
            if !created {
                st.record_loss(file);
            }
            // First modifications of distinct files are the unit of
            // account for both time-axis defenses: the write-burst
            // indicator (future work, §V-F) and the family rate
            // budget. A zeroed `points_burst` disables the burst
            // indicator entirely — no window bookkeeping, no 0-point
            // hits — matching the other indicators' zeroed-points
            // semantics.
            let burst_on = cfg.score.points_burst > 0;
            if (burst_on || cfg.rate_budget.is_some()) && st.first_modification(file) {
                self.draw_rate_token(st, at);
                if burst_on {
                    let timer = self.shared.telemetry.start_timer();
                    let burst =
                        st.record_burst(at, cfg.score.burst_window_nanos, cfg.score.burst_threshold);
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
                    if b.reader_key != key && b.len > 0 && st.inherit_read_baseline(file) {
                        st.entropy_mut().observe_read_known(b.entropy(), b.len);
                        self.shared.metrics.baselines_inherited.inc();
                        self.shared.telemetry.journal_event(at, key.0, || {
                            JournalKind::BaselineInherited {
                                path: path.as_str().to_string(),
                                reader_pid: b.reader_pid.0,
                            }
                        });
                    }
                }
                let timer = self.shared.telemetry.start_timer();
                let fired = match known {
                    Some(entropy) => st.entropy_mut().observe_write_known(entropy, data.len() as u64),
                    None => st.entropy_mut().observe_write(data),
                };
                self.eval_timer(Indicator::EntropyDelta).record_elapsed(timer);
                if fired {
                    let delta = st.entropy().delta().unwrap_or_default();
                    self.award(st, path, evidence::entropy_hit(cfg, delta, data.len(), path, at));
                }
            }
            self.verdict_for(st, at)
        })
    }

    /// A truncate: a pre-existing file is lost, and its read baseline
    /// with it.
    fn on_truncate(&self, rec: &OpRecord<'_>, file: FileId) -> Verdict {
        let (created, _) = self.shared.cache.retire_read(file);
        self.with_family(rec.key, &rec.process_name, |st| {
            if !created {
                st.record_loss(file);
            }
            self.verdict_for(st, rec.at_nanos)
        })
    }

    /// A modified handle's close: the content indicators compare the
    /// final content against the pre-image along the cheapest sound tier
    /// (`DESIGN.md` §12), and both snapshot indices take the new version.
    fn on_close(
        &self,
        rec: &OpRecord<'_>,
        path: &VPath,
        file: FileId,
        current: &[u8],
        stamp: u64,
        dirty: Option<&DirtyReport>,
    ) -> Verdict {
        let cfg = &self.cfg;
        let cache = &self.shared.cache;
        // Tier 1 — stamp-unchanged, O(1): the close-time content
        // stamp equals the resident snapshot's, so the content is
        // byte-identical to the pre-image. No content indicator
        // can fire (same type; self-similarity is 100), the
        // funneling indicator reuses the snapshot's sniffed type,
        // and both snapshot indices are already current — only the
        // path entry's LRU tick needs touching. No sniff, no
        // content pass, no snapshot clone, no allocation.
        if evidence::unchanged_shortcut(cfg) && stamp != 0 {
            let resident_type = cache.resident(file, |s| (s.stamp == stamp).then_some(s.file_type));
            if let Some(file_type) = resident_type.flatten() {
                debug_assert_eq!(stamp, content_stamp(current), "tier-1 close on a stale stamp");
                cache.hit();
                self.shared.metrics.incr_stamp_skips.inc();
                let verdict = self.score_close(rec, path, file_type, current, [None, None]);
                cache.touch(path, file, stamp);
                return verdict;
            }
        }
        // Tier 2/3 — delta-update the retained intermediates from the
        // dirty extents when the stamp chain holds, recompute from
        // scratch otherwise. Either way the products are bit-identical
        // to a full recompute, the similarity indicator is evaluated
        // against the precomputed digest, and the refreshed snapshot
        // retains its intermediates for the *next* close. One sniff of
        // the final content serves the funneling indicator, the
        // type-change indicator, and the refresh.
        let pre = cache.resident(file, FileSnapshot::clone);
        let post_type = sniff(current);
        let (fresh, delta) =
            evidence::close_snapshot(cfg, pre.as_ref(), current, stamp, dirty, post_type);
        if delta {
            self.shared.metrics.incr_delta.inc();
        } else {
            self.shared.metrics.incr_full.inc();
        }
        debug_assert_reference(&fresh, current, cfg.max_digest_bytes);
        let hits = pre.as_ref().map_or([None, None], |pre| {
            self.compare_precomputed(pre, fresh.digest.as_ref(), post_type, path, rec.at_nanos)
        });
        let verdict = self.score_close(rec, path, post_type, current, hits);
        cache.miss();
        // The file's "previous version" is now what was just written.
        cache.store(path, file, fresh);
        verdict
    }

    /// The close tail every tier shares: the funneling indicator sees the
    /// type this process wrote, the content hits (computed before the
    /// lock) are awarded, and the threshold is checked.
    fn score_close(
        &self,
        rec: &OpRecord<'_>,
        path: &VPath,
        written: FileType,
        current: &[u8],
        hits: [Option<IndicatorHit>; 2],
    ) -> Verdict {
        self.with_family(rec.key, &rec.process_name, |st| {
            if !current.is_empty() {
                let levels = st.funnel_mut().record_written(written);
                debug_assert_eq!(levels, 0, "writing types can only narrow the funnel");
            }
            for hit in hits.into_iter().flatten() {
                self.award(st, path, hit);
            }
            self.verdict_for(st, rec.at_nanos)
        })
    }

    /// A protected file's delete: a pre-existing file is lost and counts
    /// toward the deletion indicator.
    fn on_delete(&self, rec: &OpRecord<'_>, path: &VPath, file: FileId, last_link: bool) -> Verdict {
        let cfg = &self.cfg;
        let created = self.shared.cache.delete(path, file, last_link);
        self.with_family(rec.key, &rec.process_name, |st| {
            // Deleting one's own temporary files is routine (§III-D);
            // only deletions of pre-existing user files count.
            if !created {
                st.record_loss(file);
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
                            at_nanos: rec.at_nanos,
                        },
                    );
                }
            }
            self.verdict_for(st, rec.at_nanos)
        })
    }

    /// The Class C link: an "independent" encrypted copy moved over a
    /// protected original is compared against the original's retained
    /// snapshot (paper §V-B2). As in the pre-shard engine, the
    /// replacement is scored against the issuing pid. When the moved
    /// `file`'s resident snapshot carries the destination's stamp — its
    /// own close already captured exactly these bytes — that snapshot's
    /// digest and type stand in for digesting the replacement again.
    fn on_replace(
        &self,
        rec: &OpRecord<'_>,
        to: &VPath,
        file: FileId,
        replaced: &Replaced<'_>,
    ) -> Verdict {
        let cache = &self.shared.cache;
        let (pre, created) = cache.replaced(to, replaced.file, replaced.last_link);
        let stamp = replaced.stamp;
        let hits = match (pre, replaced.current.as_deref()) {
            (Some(pre), Some(current)) => {
                let same = |s: &FileSnapshot| stamp != 0 && s.stamp == stamp;
                let moved = cache.resident(file, |s| same(s).then(|| (s.digest.clone(), s.file_type)));
                if let Some((digest, post_type)) = moved.flatten() {
                    debug_assert_eq!(stamp, content_stamp(current), "Class C link on a stale stamp");
                    cache.hit();
                    self.compare_precomputed(&pre, digest.as_ref(), post_type, to, rec.at_nanos)
                } else {
                    self.compare_full(&pre, current, sniff(current), to, rec.at_nanos)
                }
            }
            _ => [None, None],
        };
        self.with_family(rec.issuer, &rec.process_name, |st| {
            if !created {
                st.record_loss(replaced.file);
            }
            for hit in hits.into_iter().flatten() {
                self.award(st, to, hit);
            }
            self.verdict_for(st, rec.at_nanos)
        })
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
        if let Some(v @ Verdict::Suspend { .. }) = self.family_gate(key) {
            return v;
        }
        // Decoy tripwire: any destructive touch of a registered bait file
        // is an instant maximum-confidence detection, bypassing the
        // scoreboard (no refresh needed — the decoy's content is noise).
        if !self.shared.decoys.is_empty() {
            if let Some(decoy) = self.decoy_hit(&ctx.op) {
                return self.decoy_verdict(ctx, decoy);
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

    /// An engine over `cfg` without the builder's validation.
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
        setup_with(files, Telemetry::disabled())
    }

    /// [`setup`] with the engine reporting to `telemetry`.
    fn setup_with(files: usize, telemetry: Telemetry) -> (Vfs, Monitor) {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..files {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            fs.admin().write_file(&path, &text_content(i as u32, 4096)).unwrap();
        }
        fs.admin().create_dir_all(&VPath::new("/tmp")).unwrap();
        let (engine, monitor) = CryptoDrop::with_telemetry_inner(Config::protecting(DOCS), telemetry);
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
    fn class_c_move_over_reuses_the_copys_snapshot() {
        // The encrypted copy's close snapshots exactly the bytes that the
        // rename moves over the original, so the Class C link reuses that
        // snapshot (one cache hit) instead of digesting them again, and
        // still scores the similarity drop.
        let (mut fs, monitor) = setup(1);
        let pid = fs.spawn_process("classc.exe");
        let src = VPath::new(DOCS).join("dir0/file0.txt");
        let enc_path = VPath::new(DOCS).join("dir0/file0.enc");
        let data = fs.read_file(pid, &src).unwrap();
        fs.write_file(pid, &enc_path, &encrypt(&data, 77)).unwrap();
        let similarity_hits = |m: &Monitor| {
            m.hits(pid)
                .iter()
                .filter(|h| h.indicator == Indicator::Similarity)
                .count()
        };
        assert_eq!(similarity_hits(&monitor), 0, "a new file has no pre-image");
        let before = monitor.cache_stats().hits;
        fs.rename(pid, &enc_path, &src, true).unwrap();
        assert_eq!(monitor.cache_stats().hits, before + 1);
        assert_eq!(similarity_hits(&monitor), 1, "the move-over is scored");
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
            cfg.score.points_burst = 5;
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
        // Zeroed points must disable the indicator outright — no window
        // bookkeeping, no 0-point hits polluting audits and eval timers —
        // matching the entropy/type-change/similarity semantics.
        let (mut fs, monitor) = setup(40);
        let mut cfg = Config::protecting(DOCS);
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
        // both closes and the second open's pre_op reuse the stamp.
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
    fn record_is_light_predicts_the_close_tier() {
        /// Notes `record_is_light` for each close record the engine's
        /// filter builds. Registered ahead of the engine, it sees each close
        /// before the engine processes it.
        struct Probe(CryptoDrop, Arc<Mutex<Vec<bool>>>);
        impl FilterDriver for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn post_op(&mut self, ctx: &OpContext<'_>, out: &OpOutcome<'_>, fs: &FsView<'_>) -> Verdict {
                let rec = self.0.build_post_record(self.0.scoring_key(ctx), ctx, out, fs);
                if let Some(rec @ OpRecord { body: RecordBody::Close { .. }, .. }) = rec {
                    self.1.lock().push(self.0.record_is_light(&rec));
                }
                Verdict::Allow
            }
        }
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..3 {
            fs.admin().write_file(&docs.join(format!("f{i}.txt")), &text_content(i, 4096)).unwrap();
        }
        let telemetry = Telemetry::new(1 << 10);
        let cfg = Config::protecting(DOCS);
        let (engine, _monitor) = CryptoDrop::with_telemetry_inner(cfg, telemetry.clone());
        let light = Arc::new(Mutex::new(Vec::new()));
        fs.register_filter(Box::new(Probe(engine.clone(), Arc::clone(&light))));
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("editor.exe");
        let tiers = || {
            let counters = telemetry.metrics().snapshot().counters;
            ["stamp_skips", "delta_applied", "full_recompute"]
                .map(|t| counters.get(&format!("engine.incremental.{t}")).copied().unwrap_or(0))
        };
        // Tier 1: a same-bytes save.
        let h = fs.open(pid, &docs.join("f0.txt"), OpenOptions::modify()).unwrap();
        fs.write(pid, h, &text_content(0, 4096)).unwrap();
        fs.close(pid, h).unwrap();
        assert_eq!(tiers(), [1, 0, 0]);
        // Tier 2: an in-place edit of a resident file.
        let h = fs.open(pid, &docs.join("f1.txt"), OpenOptions::modify()).unwrap();
        fs.seek(pid, h, 100).unwrap();
        fs.write(pid, h, b"edited").unwrap();
        fs.close(pid, h).unwrap();
        assert_eq!(tiers(), [1, 1, 0]);
        // Tier 3: a truncating rewrite breaks the stamp chain — its dirty
        // report starts from the emptied file, not the snapshot's content.
        fs.write_file(pid, &docs.join("f2.txt"), &text_content(9, 4096)).unwrap();
        assert_eq!(tiers(), [1, 1, 1]);
        assert_eq!(*light.lock(), [true, true, false]);
    }

    #[test]
    fn replaced_and_deleted_files_leave_no_id_keyed_state() {
        // A safe-save writes a temporary file and renames it over the
        // original; a delete removes the file outright. Where that path
        // was the file's last link, the old file id is gone for good, and
        // so must be its id-keyed snapshot and read baseline.
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        let (doc, gone) = (docs.join("report.txt"), docs.join("old.txt"));
        fs.admin().write_file(&doc, &text_content(0, 4096)).unwrap();
        fs.admin().write_file(&gone, &text_content(1, 4096)).unwrap();
        let (engine, _monitor) = new_engine(Config::protecting(DOCS));
        let shared = Arc::clone(&engine.shared);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("editor.exe");
        // Probing the read baseline retires it.
        let state = |file: Option<FileId>| {
            let file = file.expect("a file");
            let snapshot = shared.cache.resident(file, |_| ()).is_some();
            (snapshot, shared.cache.retire_read(file).1.is_some())
        };
        let doc_id = fs.admin().metadata(&doc).unwrap().file;
        let gone_id = fs.admin().metadata(&gone).unwrap().file;
        for (path, tag) in [(&doc, 0), (&gone, 1)] {
            // An in-place save leaves an id-keyed snapshot, a read a
            // read baseline.
            fs.write_file(pid, path, &text_content(tag, 4096)).unwrap();
            fs.read_file(pid, path).unwrap();
            assert_eq!(state(fs.admin().metadata(path).unwrap().file), (true, true));
            fs.read_file(pid, path).unwrap();
        }
        let tmp = docs.join("~report.tmp");
        fs.write_file(pid, &tmp, &text_content(2, 4096)).unwrap();
        fs.rename(pid, &tmp, &doc, true).unwrap();
        fs.delete(pid, &gone).unwrap();
        assert_eq!(state(doc_id), (false, false), "safe-save leaked the replaced file's state");
        assert_eq!(state(gone_id), (false, false), "delete leaked the file's state");
        // Renaming one hard link over another link of the same file
        // replaces no file: the moved file keeps its snapshot.
        let link = docs.join("report-link.txt");
        fs.link(pid, &doc, &link).unwrap();
        let live = fs.admin().metadata(&doc).unwrap().file.expect("a file");
        fs.rename(pid, &link, &doc, true).unwrap();
        assert!(shared.cache.resident(live, |_| ()).is_some(), "dropped a live file's snapshot");
    }

    #[test]
    fn renaming_a_link_over_its_twin_loses_no_file() {
        // rename(2) between two links of one file does nothing, so a
        // pre-existing protected file renamed over its own second link
        // is not lost.
        let (mut fs, monitor) = setup(3);
        let pid = fs.spawn_process("linker.exe");
        let docs = VPath::new(DOCS);
        let (a, b) = (docs.join("dir0/file0.txt"), docs.join("dir0/twin.txt"));
        fs.link(pid, &a, &b).unwrap();
        fs.rename(pid, &a, &b, true).unwrap();
        assert!(fs.admin().exists(&a) && fs.admin().exists(&b));
        assert_eq!(monitor.files_lost(pid), 0);
    }

    #[test]
    fn unlinking_one_hard_link_keeps_the_read_baseline() {
        // A read baseline is collusion evidence, not a cache. A writer
        // family that links a file another family read, then deletes the
        // link or renames a file over it, has not removed the file, and
        // must still inherit that family's baseline when it writes.
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        let files = [docs.join("a.txt"), docs.join("b.txt")];
        for (i, path) in files.iter().enumerate() {
            fs.admin().write_file(path, &text_content(i as u32, 4096)).unwrap();
        }
        let telemetry = Telemetry::new(4096);
        let (engine, _monitor) =
            CryptoDrop::with_telemetry_inner(Config::protecting(DOCS), telemetry.clone());
        let shared = Arc::clone(&engine.shared);
        fs.register_filter(Box::new(engine));
        let reader = fs.spawn_process("reader.exe");
        let writer = fs.spawn_process("writer.exe");
        // An in-place save leaves an id-keyed snapshot, a read a read
        // baseline.
        for (i, path) in files.iter().enumerate() {
            fs.write_file(reader, path, &text_content(i as u32, 4096)).unwrap();
            fs.read_file(reader, path).unwrap();
        }
        let ids = files.each_ref().map(|path| fs.admin().metadata(path).unwrap().file.expect("a file"));
        let link = docs.join("a-link.txt");
        fs.link(writer, &files[0], &link).unwrap();
        fs.delete(writer, &link).unwrap();
        let (link, tmp) = (docs.join("b-link.txt"), docs.join("b.tmp"));
        fs.link(writer, &files[1], &link).unwrap();
        fs.write_file(writer, &tmp, &text_content(7, 4096)).unwrap();
        fs.rename(writer, &tmp, &link, true).unwrap();
        for id in ids {
            assert!(shared.cache.resident(id, |_| ()).is_some(), "dropped a live file's snapshot");
        }
        for (i, path) in files.iter().enumerate() {
            fs.write_file(writer, path, &text_content(8 + i as u32, 4096)).unwrap();
        }
        let counters = telemetry.metrics().snapshot().counters;
        assert_eq!(counters.get("engine.entropy.baselines_inherited").copied(), Some(2));
    }

    #[test]
    fn score_arithmetic_saturates_instead_of_overflowing() {
        // Point values near u32::MAX once panicked the filter in debug
        // builds and, wrapping in release, let the attacker through.
        let mut huge = Config::protecting(DOCS);
        (huge.score.points_type_change, huge.score.points_similarity) = (1 << 31, 1 << 31);
        let mut bonus = Config::protecting(DOCS);
        bonus.score.union_bonus = u32::MAX;
        let mut doubled = Config::protecting(DOCS);
        (doubled.dynamic_scoring, doubled.score.points_type_change) = (true, 1 << 31);
        // Sub-512 B files have no digest, so dynamic scoring doubles.
        for (cfg, len) in [(huge, 4096), (bonus, 4096), (doubled, 400)] {
            let mut fs = Vfs::new();
            for i in 0..30 {
                let path = VPath::new(DOCS).join(format!("dir{}/file{i}.txt", i % 3));
                fs.admin().write_file(&path, &text_content(i, len)).unwrap();
            }
            let (engine, monitor) = new_engine(cfg);
            fs.register_filter(Box::new(engine));
            let pid = fs.spawn_process("overflow.exe");
            assert_eq!(run_class_a(&mut fs, pid), 1, "suspended on the first close");
            assert_eq!(monitor.score(pid), u32::MAX);
            let trail = monitor.audit_trail(pid).expect("seen process");
            assert_eq!(trail.entries.last().map(|e| e.score_after), Some(u32::MAX));
        }
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

    #[test]
    fn rename_out_and_back_encryptor_is_caught() {
        // A file is warmed (stamp-cached) at its original path, renamed
        // out of the tree, encrypted there, and renamed back to the *same*
        // original path. The cache must never serve the stale pre-move
        // snapshot; in debug builds the snapshot oracle checks every
        // snapshot made or reused along the way.
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
        let (engine, monitor) = new_engine(Config::protecting(DOCS));
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
        assert!(fs.is_suspended(pid), "the out-and-back encryptor must still be caught");
        let hits = monitor.hits(pid);
        assert!(
            hits.iter().any(|h| h.indicator == Indicator::Similarity),
            "similarity must fire against the warmed pre-image: {hits:?}"
        );
    }

    #[test]
    fn closing_a_handle_renamed_over_analyses_nothing() {
        // A viewer holds `a.txt` open for modification and writes a few
        // bytes; an editor then saves by writing `a.tmp` and renaming it
        // over `a.txt`. The viewer's node is unlinked, so its close must
        // not pair the replacement's bytes with the old node's stamp and
        // dirty extents (which spliced a wrong snapshot for `a.txt`).
        let mut fs = Vfs::new();
        let docs = VPath::new("/docs");
        let (a, tmp) = (docs.join("a.txt"), docs.join("a.tmp"));
        fs.admin().write_file(&a, &text_content(1, 4096)).unwrap();
        let telemetry = Telemetry::new(1 << 10);
        let cfg = Config::protecting("/docs");
        let (engine, monitor) = CryptoDrop::with_telemetry_inner(cfg, telemetry.clone());
        fs.register_filter(Box::new(engine));
        let viewer = fs.spawn_process("viewer.exe");
        let h = fs.open(viewer, &a, OpenOptions::modify()).unwrap();
        fs.write(viewer, h, b"viewer").unwrap();
        let editor = fs.spawn_process("editor.exe");
        fs.write_file(editor, &tmp, &text_content(2, 6008)).unwrap();
        fs.rename(editor, &tmp, &a, true).unwrap();
        fs.close(viewer, h).unwrap();
        let counters = telemetry.metrics().snapshot().counters;
        let tiers = ["stamp_skips", "delta_applied", "full_recompute"]
            .map(|t| counters.get(&format!("engine.incremental.{t}")).copied().unwrap_or(0));
        assert_eq!(tiers, [0, 0, 1], "only the editor's close of a.tmp is analysed");
        assert!(monitor.detections().is_empty());
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
    fn disabled_telemetry_skips_journal_and_timers_but_counts() {
        let (mut fs, monitor) = setup(40);
        let pid = fs.spawn_process("quiet.exe");
        run_class_a(&mut fs, pid);
        assert!(fs.is_suspended(pid));
        let t = monitor.telemetry();
        assert!(!t.is_enabled());
        assert!(t.journal().is_empty(), "disabled telemetry must not journal");
        let snap = t.metrics().snapshot();
        assert!(snap.histograms.values().all(|h| h.count == 0));
        // The audit trail still works: it reads the scoreboard, not the
        // journal.
        let trail = monitor.audit_trail(pid).expect("trail without telemetry");
        assert!(trail.detected);
        assert!(!trail.entries.is_empty());

        // The same workload under an enabled sink counts the same: the
        // registry is the only tally either way.
        let (mut fs, enabled) = setup_with(40, Telemetry::new(1 << 16));
        let enabled_pid = fs.spawn_process("quiet.exe");
        run_class_a(&mut fs, enabled_pid);
        assert!(fs.is_suspended(enabled_pid));
        assert_eq!(
            snap.counters,
            enabled.telemetry().metrics().snapshot().counters,
            "disabled telemetry must count what enabled telemetry counts"
        );
        assert_eq!(snap.counter("engine.detections"), 1);
        assert!(snap.counter("engine.cache.misses") > 0);
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

    /// Runs a Class A attack over 60 staged text files under `cfg`:
    /// (final simulated clock, attacker suspended).
    fn class_a_clock(cfg: Config) -> (u64, bool) {
        let mut fs = Vfs::new();
        let docs = VPath::new(DOCS);
        for i in 0..60 {
            let path = docs.join(format!("dir{}/file{i}.txt", i % 3));
            fs.admin().write_file(&path, &text_content(i as u32, 4096)).unwrap();
        }
        let (engine, _monitor) = new_engine(cfg);
        fs.register_filter(Box::new(engine));
        let pid = fs.spawn_process("cryptolocker.exe");
        run_class_a(&mut fs, pid);
        (fs.clock().now_nanos(), fs.is_suspended(pid))
    }

    #[test]
    fn throttling_stretches_the_suspects_clock() {
        let (base_nanos, base_caught) = class_a_clock(Config::protecting(DOCS));
        let (throttled_nanos, throttled_caught) =
            class_a_clock(Config::protecting(DOCS).with_throttling(30, 1_000_000));
        assert!(base_caught && throttled_caught);
        assert!(
            throttled_nanos > base_nanos,
            "throttling must cost the suspect simulated time: \
             {throttled_nanos} vs {base_nanos}"
        );
    }

    #[test]
    fn throttle_delay_saturates_instead_of_overflowing() {
        // `score × nanos_per_point` beyond u64::MAX must saturate: an
        // unchecked product panics in debug builds and wraps in release,
        // where every even score × 2^63 is a 0 ns delay (throttling off).
        for nanos_per_point in [u64::MAX, 1 << 63] {
            let cfg = Config::protecting(DOCS).with_throttling(1, nanos_per_point);
            let (clock, caught) = class_a_clock(cfg);
            assert!(caught, "nanos_per_point {nanos_per_point}");
            assert_eq!(clock, u64::MAX, "nanos_per_point {nanos_per_point}");
        }
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
