//! Per-process reputation state and per-file snapshots.
//!
//! CryptoDrop maintains "a reputation score threshold for all processes"
//! (paper §IV-B) and tracks per-file state — type and similarity digest of
//! the previous version — so indicators can compare before/after even when
//! "the state of the file must be carefully tracked each time a file is
//! moved" (§III).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use cryptodrop_entropy::ByteHistogram;
use cryptodrop_simhash::{content_fingerprint, FeatureCache, SdDigest};
use cryptodrop_sniff::{sniff, FileType};
use cryptodrop_vfs::{FileId, ProcessId};
use serde::{Deserialize, Serialize};

use crate::config::ScoreConfig;
#[cfg(test)]
use crate::config::DecayPolicy;
use crate::indicators::deletion::DeletionTracker;
use crate::indicators::entropy_delta::EntropyDeltaTracker;
use crate::indicators::funneling::FunnelTracker;
use crate::indicators::{Indicator, IndicatorHit};

/// The analysis intermediates an incremental re-analysis needs: retained
/// alongside a snapshot so the next close of the same file can subtract
/// and re-add only the dirty extents instead of re-reading everything.
/// Shared behind an [`Arc`] because snapshots are cloned between the
/// path-keyed and id-keyed caches.
#[derive(Debug, Clone)]
pub struct IncrState {
    /// Byte histogram of the digest window (the whole content whenever it
    /// fits [`Config::max_digest_bytes`](crate::Config::max_digest_bytes)).
    pub histogram: ByteHistogram,
    /// The sdhash feature cache of the digest window, when digestible.
    pub features: Option<FeatureCache>,
}

/// A snapshot of one file version: everything the indicators need to
/// compare against a later version.
///
/// Equality compares the five analysis fields only — `stamp` and `incr`
/// are cache-acceleration metadata that two snapshots of identical
/// content may legitimately disagree on (e.g. one captured with
/// incremental analysis enabled and one without).
#[derive(Debug, Clone)]
pub struct FileSnapshot {
    /// The sniffed type of the content.
    pub file_type: FileType,
    /// The sdhash digest, if the content is digestible (≥ 512 bytes and
    /// featureful).
    pub digest: Option<SdDigest>,
    /// Whole-content Shannon entropy, bits/byte.
    pub entropy: f64,
    /// Content length in bytes.
    pub len: u64,
    /// 64-bit fingerprint of the **full** content
    /// ([`content_fingerprint`]): the snapshot cache's identity key.
    /// Equal fingerprints mean the content is unchanged (modulo a 2⁻⁶⁴
    /// collision) and the snapshot can be reused without recomputing the
    /// digest, sniff, or entropy.
    pub fingerprint: u64,
    /// The VFS [content stamp](cryptodrop_vfs::content_stamp) of the
    /// content this snapshot describes, or `0` when unknown. A nonzero
    /// stamp equal to a close outcome's stamp proves the content is
    /// unchanged in O(1), without the fingerprint's O(n) pass.
    pub stamp: u64,
    /// Analysis intermediates for incremental re-analysis, when captured
    /// with incremental analysis enabled.
    pub incr: Option<Arc<IncrState>>,
}

// Hand-written (not derived) so that serialization covers the five
// analysis fields only: `stamp` and `incr` are in-memory cache
// acceleration, meaningless outside the process that captured them.
impl Serialize for FileSnapshot {
    fn to_value(&self) -> serde::ser::Value {
        serde::ser::Value::Map(vec![
            ("file_type".to_string(), self.file_type.to_value()),
            ("digest".to_string(), self.digest.to_value()),
            ("entropy".to_string(), self.entropy.to_value()),
            ("len".to_string(), self.len.to_value()),
            ("fingerprint".to_string(), self.fingerprint.to_value()),
        ])
    }
}

impl Deserialize for FileSnapshot {}

impl PartialEq for FileSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.file_type == other.file_type
            && self.digest == other.digest
            && self.entropy == other.entropy
            && self.len == other.len
            && self.fingerprint == other.fingerprint
    }
}

impl FileSnapshot {
    /// Captures a snapshot from file content, digesting at most
    /// `max_digest_bytes` (a prefix digest bounds per-operation cost on
    /// huge files while remaining comparable against other prefix digests).
    pub fn capture(data: &[u8], max_digest_bytes: usize) -> Self {
        Self::capture_reusing(data, max_digest_bytes, None, None)
    }

    /// Captures a snapshot, reusing analysis products the caller already
    /// computed over the same content.
    ///
    /// * `file_type` — the sniffed type of the *full* content, if already
    ///   sniffed (the engine's close path sniffs once and shares the
    ///   result between the funneling indicator, the type-change
    ///   indicator, and this refresh).
    /// * `digest` — the sdhash digest of the content's
    ///   `max_digest_bytes` prefix, if already computed: `Some(None)`
    ///   records "computed, content undigestible" and also skips the
    ///   recompute. The similarity indicator digests exactly this window,
    ///   so its post-image digest is directly reusable here.
    ///
    /// Produces a value identical to [`FileSnapshot::capture`] as long as
    /// the reused pieces were computed over the same bytes.
    pub fn capture_reusing(
        data: &[u8],
        max_digest_bytes: usize,
        file_type: Option<FileType>,
        digest: Option<Option<SdDigest>>,
    ) -> Self {
        let window = &data[..data.len().min(max_digest_bytes)];
        // Entropy and fingerprint fuse into one pass when the digest
        // window spans the whole content (the overwhelmingly common
        // case); oversized files pay one extra pass for the full-content
        // fingerprint.
        let (entropy, fingerprint) = if window.len() == data.len() {
            let (hist, fp) = ByteHistogram::from_bytes_with_fingerprint(window);
            (hist.entropy_lut(), fp)
        } else {
            (
                ByteHistogram::from_bytes(window).entropy_lut(),
                content_fingerprint(data),
            )
        };
        Self {
            file_type: file_type.unwrap_or_else(|| sniff(data)),
            digest: digest.unwrap_or_else(|| SdDigest::compute(window)),
            entropy,
            len: data.len() as u64,
            fingerprint,
            stamp: 0,
            incr: None,
        }
    }

    /// Captures a snapshot *with* the incremental-analysis intermediates
    /// ([`IncrState`]) retained, and the given content stamp recorded, so
    /// a later close of the same file can be analysed from its dirty
    /// extents alone. Analysis fields are identical to
    /// [`FileSnapshot::capture`] over the same bytes.
    pub fn capture_incremental(
        data: &[u8],
        max_digest_bytes: usize,
        stamp: u64,
        file_type: Option<FileType>,
    ) -> Self {
        let window = &data[..data.len().min(max_digest_bytes)];
        let (histogram, fingerprint) = if window.len() == data.len() {
            ByteHistogram::from_bytes_with_fingerprint(window)
        } else {
            (
                ByteHistogram::from_bytes(window),
                content_fingerprint(data),
            )
        };
        let (digest, features) = match SdDigest::compute_with_cache(window) {
            Some((d, c)) => (Some(d), Some(c)),
            None => (None, None),
        };
        Self {
            file_type: file_type.unwrap_or_else(|| sniff(data)),
            digest,
            entropy: histogram.entropy_lut(),
            len: data.len() as u64,
            fingerprint,
            stamp,
            incr: Some(Arc::new(IncrState {
                histogram,
                features,
            })),
        }
    }
}

/// The evolving reputation state of one monitored process.
#[derive(Debug, Clone)]
pub struct ProcessState {
    pid: ProcessId,
    name: String,
    score: u32,
    entropy: EntropyDeltaTracker,
    funnel: FunnelTracker,
    deletions: DeletionTracker,
    primaries: BTreeSet<Indicator>,
    union_triggered: bool,
    union_at_nanos: Option<u64>,
    hits: Vec<IndicatorHit>,
    lost: BTreeSet<FileId>,
    first_reads_seen: BTreeSet<FileId>,
    modified_files: BTreeSet<FileId>,
    burst_times: VecDeque<u64>,
    // High-water mark of burst timestamps: eviction measures window age
    // against this, not the (possibly out-of-order) latest arrival, so a
    // clock.latency fault delivering a stale `at_nanos` cannot stall the
    // window (see `record_burst`).
    burst_watermark: u64,
    // Files whose cross-family read baseline was already folded into this
    // family's entropy tracker (collusion defense; distinct from
    // `first_reads_seen` so funneling sampling is unperturbed).
    inherited_reads: BTreeSet<FileId>,
    // First-modification rate budget (token bucket). `rate_primed` lazily
    // fills the bucket to capacity on first use, so constructing state
    // never needs the engine `Config`.
    rate_tokens: u32,
    rate_last_nanos: u64,
    rate_primed: bool,
    detected: bool,
    permitted: bool,
}

impl ProcessState {
    /// Creates fresh state for a process.
    pub fn new(pid: ProcessId, name: &str, cfg: &ScoreConfig) -> Self {
        Self {
            pid,
            name: name.to_string(),
            score: 0,
            entropy: EntropyDeltaTracker::new(cfg.entropy_delta_threshold),
            funnel: FunnelTracker::new(cfg.funnel_gap),
            deletions: DeletionTracker::new(cfg.deletion_allowance),
            primaries: BTreeSet::new(),
            union_triggered: false,
            union_at_nanos: None,
            hits: Vec::new(),
            lost: BTreeSet::new(),
            first_reads_seen: BTreeSet::new(),
            modified_files: BTreeSet::new(),
            burst_times: VecDeque::new(),
            burst_watermark: 0,
            inherited_reads: BTreeSet::new(),
            rate_tokens: 0,
            rate_last_nanos: 0,
            rate_primed: false,
            detected: false,
            permitted: false,
        }
    }

    /// Awards an indicator hit: adds its points, tracks primaries, and
    /// applies the one-time union bonus when all three primaries have been
    /// seen (paper §III-E, §V-B2).
    pub fn award(&mut self, cfg: &ScoreConfig, union_enabled: bool, hit: IndicatorHit) {
        self.score = self.score.saturating_add(hit.points);
        if hit.indicator.is_primary() {
            self.primaries.insert(hit.indicator);
        }
        let at_nanos = hit.at_nanos;
        self.hits.push(hit);
        if union_enabled
            && !self.union_triggered
            && Indicator::PRIMARY.iter().all(|p| self.primaries.contains(p))
        {
            self.union_triggered = true;
            self.union_at_nanos = Some(at_nanos);
            self.score = self.score.saturating_add(cfg.union_bonus);
        }
    }

    /// The detection threshold currently applying to this process: the
    /// lowered union threshold once union indication has occurred.
    pub fn effective_threshold(&self, cfg: &ScoreConfig) -> u32 {
        if self.union_triggered {
            cfg.union_threshold
        } else {
            cfg.non_union_threshold
        }
    }

    /// Whether the score — decayed to `now_nanos` under the configured
    /// [`DecayPolicy`](crate::DecayPolicy) — has reached the effective
    /// threshold. With [`DecayPolicy::None`](crate::DecayPolicy::None)
    /// this is the raw-score comparison the paper specifies.
    pub fn over_threshold(&self, cfg: &ScoreConfig, now_nanos: u64) -> bool {
        self.decayed_score(cfg, now_nanos) >= self.effective_threshold(cfg)
    }

    /// The reputation score with every award aged to `now_nanos` under
    /// `cfg.decay`: the sum of each hit's decayed value plus the decayed
    /// union bonus. Raw per-hit points are never mutated — this is a pure
    /// re-summation, so the audit trail can replay it exactly.
    ///
    /// Awards carry timestamps from the simulated clock, which fault
    /// injection can deliver out of order; an award "from the future"
    /// (`at_nanos > now_nanos`) is simply not aged yet (age saturates
    /// to 0).
    ///
    /// With [`DecayPolicy::None`](crate::DecayPolicy::None) (the default)
    /// this returns the raw score without touching the hit list.
    pub fn decayed_score(&self, cfg: &ScoreConfig, now_nanos: u64) -> u32 {
        let policy = &cfg.decay;
        if policy.is_none() {
            return self.score;
        }
        let mut total: u64 = self
            .hits
            .iter()
            .map(|h| u64::from(policy.value(h.points, now_nanos.saturating_sub(h.at_nanos))))
            .sum();
        if self.union_triggered {
            let at = self.union_at_nanos.unwrap_or(0);
            total += u64::from(policy.value(cfg.union_bonus, now_nanos.saturating_sub(at)));
        }
        u32::try_from(total).unwrap_or(u32::MAX)
    }

    /// Records that a pre-existing protected file's content was destroyed
    /// (modified, deleted, or replaced) by this process. Returns `true`
    /// the first time a given file is recorded.
    pub fn record_loss(&mut self, file: FileId) -> bool {
        self.lost.insert(file)
    }

    /// Marks the first modification of a file by this process, returning
    /// `true` exactly once per file (the write-burst indicator's unit of
    /// account).
    pub fn first_modification(&mut self, file: FileId) -> bool {
        self.modified_files.insert(file)
    }

    /// Slides a first-modification timestamp into the burst window and
    /// returns `true` when the modification count within the window
    /// exceeds `threshold` (this modification scores).
    ///
    /// Eviction ages entries against the *high-water mark* of all
    /// timestamps seen, not the latest arrival: a `clock.latency` fault
    /// (or any reordering between pipeline hand-off and analysis) can
    /// deliver `at_nanos` values out of order, and measuring the window
    /// from a stale arrival would stop evicting — the window would only
    /// ever grow, inflating burst counts forever after one reordered
    /// record. Under a monotonic clock the watermark *is* the latest
    /// arrival, so behavior is unchanged. Out-of-order arrivals that are
    /// already older than the window are dropped rather than admitted; a
    /// retained deque is no longer timestamp-sorted, so eviction scans
    /// the whole (window-bounded) deque instead of popping a sorted
    /// front.
    pub fn record_burst(&mut self, at_nanos: u64, window_nanos: u64, threshold: u32) -> bool {
        self.burst_watermark = self.burst_watermark.max(at_nanos);
        let horizon = self.burst_watermark.saturating_sub(window_nanos);
        if at_nanos >= horizon {
            self.burst_times.push_back(at_nanos);
        }
        self.burst_times.retain(|&t| t >= horizon);
        self.burst_times.len() as u32 > threshold
    }

    /// Refills this family's first-modification token bucket to
    /// `now_nanos` (one token per `refill_nanos` of simulated time, up to
    /// `capacity`) and returns the token count. The bucket starts full on
    /// first use. Refill measures only *forward* progress of the clock —
    /// a non-monotonic `now_nanos` (fault-injected latency reordering)
    /// neither refills nor drains.
    pub fn rate_refill(&mut self, now_nanos: u64, capacity: u32, refill_nanos: u64) -> u32 {
        let refill_nanos = refill_nanos.max(1);
        if !self.rate_primed {
            self.rate_primed = true;
            self.rate_tokens = capacity;
            self.rate_last_nanos = now_nanos;
            return self.rate_tokens;
        }
        let elapsed = now_nanos.saturating_sub(self.rate_last_nanos);
        let earned = elapsed / refill_nanos;
        let missing = u64::from(capacity.saturating_sub(self.rate_tokens));
        if earned >= missing {
            self.rate_tokens = capacity;
            // A full bucket cannot bank surplus time.
            self.rate_last_nanos = now_nanos;
        } else {
            self.rate_tokens += earned as u32;
            // Keep the remainder: partial progress toward the next token
            // carries over.
            self.rate_last_nanos += earned * refill_nanos;
        }
        self.rate_tokens
    }

    /// Draws one token from the bucket (after refilling to `now_nanos`),
    /// returning `true` if a token was available. A `false` return means
    /// the family's sustained first-modification rate has outrun the
    /// budget — the caller delays its destructive operations until the
    /// bucket refills.
    pub fn rate_consume(&mut self, now_nanos: u64, capacity: u32, refill_nanos: u64) -> bool {
        if self.rate_refill(now_nanos, capacity, refill_nanos) > 0 {
            self.rate_tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Tokens currently in the bucket (no refill; telemetry/tests).
    pub fn rate_tokens(&self) -> u32 {
        self.rate_tokens
    }

    /// Marks a cross-family read baseline for `file` as folded into this
    /// family's entropy tracker, returning `true` exactly once per file
    /// (the collusion defense must not double-count a baseline across the
    /// writer's chunked writes).
    pub fn inherit_read_baseline(&mut self, file: FileId) -> bool {
        self.inherited_reads.insert(file)
    }

    /// Marks the process as user-permitted: the user reviewed a detection
    /// and allowed the activity (paper §IV-A: the engine "requests
    /// permission from the user to allow the process to continue"). A
    /// permitted process is no longer scored or re-suspended.
    pub fn mark_permitted(&mut self) {
        self.permitted = true;
    }

    /// Whether the user permitted this process to continue.
    pub fn is_permitted(&self) -> bool {
        self.permitted
    }

    /// Marks the first read of a file, returning `true` exactly once per
    /// file (used to sample the funneling indicator's read types).
    pub fn first_read(&mut self, file: FileId) -> bool {
        self.first_reads_seen.insert(file)
    }

    /// Marks the process as detected (suspension verdict issued).
    pub fn mark_detected(&mut self) {
        self.detected = true;
    }

    /// Whether a detection verdict has been issued.
    pub fn is_detected(&self) -> bool {
        self.detected
    }

    /// The process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current reputation score.
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Whether union indication has occurred.
    pub fn union_triggered(&self) -> bool {
        self.union_triggered
    }

    /// The number of pre-existing files lost to this process.
    pub fn files_lost(&self) -> u32 {
        self.lost.len() as u32
    }

    /// Mutable access to the entropy-delta tracker.
    pub fn entropy_mut(&mut self) -> &mut EntropyDeltaTracker {
        &mut self.entropy
    }

    /// The entropy-delta tracker.
    pub fn entropy(&self) -> &EntropyDeltaTracker {
        &self.entropy
    }

    /// Mutable access to the funneling tracker.
    pub fn funnel_mut(&mut self) -> &mut FunnelTracker {
        &mut self.funnel
    }

    /// The funneling tracker.
    pub fn funnel(&self) -> &FunnelTracker {
        &self.funnel
    }

    /// Mutable access to the deletion tracker.
    pub fn deletions_mut(&mut self) -> &mut DeletionTracker {
        &mut self.deletions
    }

    /// The deletion tracker.
    pub fn deletions(&self) -> &DeletionTracker {
        &self.deletions
    }

    /// First-modification timestamps currently inside the burst window.
    pub fn burst_window_len(&self) -> usize {
        self.burst_times.len()
    }

    /// The full hit audit trail.
    pub fn hits(&self) -> &[IndicatorHit] {
        &self.hits
    }

    /// The primary indicators seen so far.
    pub fn primaries_seen(&self) -> impl Iterator<Item = Indicator> + '_ {
        self.primaries.iter().copied()
    }

    /// Builds an externally consumable summary.
    pub fn summary(&self, cfg: &ScoreConfig) -> ProcessSummary {
        let mut hit_counts = BTreeMap::new();
        let mut hit_points = BTreeMap::new();
        for h in &self.hits {
            *hit_counts.entry(h.indicator).or_insert(0u32) += 1;
            let points = hit_points.entry(h.indicator).or_insert(0u32);
            *points = points.saturating_add(h.points);
        }
        ProcessSummary {
            pid: self.pid,
            name: self.name.clone(),
            score: self.score,
            threshold: self.effective_threshold(cfg),
            detected: self.detected,
            union_triggered: self.union_triggered,
            union_at_nanos: self.union_at_nanos,
            primaries_seen: self.primaries.iter().copied().collect(),
            files_lost: self.files_lost(),
            hit_counts,
            hit_points,
        }
    }
}

/// A point-in-time summary of one process's reputation state, as exposed
/// by [`Monitor`](crate::engine::Monitor).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessSummary {
    /// The process id.
    pub pid: ProcessId,
    /// The process name.
    pub name: String,
    /// Current reputation score.
    pub score: u32,
    /// The threshold currently applying (lowered after union indication).
    pub threshold: u32,
    /// Whether a detection verdict has been issued.
    pub detected: bool,
    /// Whether union indication has occurred.
    pub union_triggered: bool,
    /// Simulated time of union indication, if it occurred.
    pub union_at_nanos: Option<u64>,
    /// The primary indicators seen at least once.
    pub primaries_seen: Vec<Indicator>,
    /// The number of pre-existing protected files lost.
    pub files_lost: u32,
    /// Hit counts per indicator.
    pub hit_counts: BTreeMap<Indicator, u32>,
    /// Points per indicator.
    pub hit_points: BTreeMap<Indicator, u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(indicator: Indicator, points: u32) -> IndicatorHit {
        IndicatorHit {
            indicator,
            points,
            value: 1.0,
            threshold: 1.0,
            detail: String::new(),
            at_nanos: 7,
        }
    }

    fn state(cfg: &ScoreConfig) -> ProcessState {
        ProcessState::new(ProcessId(1), "x.exe", cfg)
    }

    #[test]
    fn scores_accumulate() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        s.award(&cfg, true, hit(Indicator::Deletion, 2));
        s.award(&cfg, true, hit(Indicator::Deletion, 2));
        assert_eq!(s.score(), 4);
        assert!(!s.union_triggered());
        assert_eq!(s.hits().len(), 2);
    }

    #[test]
    fn union_bonus_applied_exactly_once() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        s.award(&cfg, true, hit(Indicator::TypeChange, 10));
        s.award(&cfg, true, hit(Indicator::Similarity, 10));
        assert!(!s.union_triggered());
        s.award(&cfg, true, hit(Indicator::EntropyDelta, 3));
        assert!(s.union_triggered());
        assert_eq!(s.score(), 23 + cfg.union_bonus);
        // No second bonus.
        s.award(&cfg, true, hit(Indicator::TypeChange, 10));
        assert_eq!(s.score(), 33 + cfg.union_bonus);
    }

    #[test]
    fn union_lowers_threshold() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        assert_eq!(s.effective_threshold(&cfg), cfg.non_union_threshold);
        for i in Indicator::PRIMARY {
            s.award(&cfg, true, hit(i, 1));
        }
        assert_eq!(s.effective_threshold(&cfg), cfg.union_threshold);
    }

    #[test]
    fn union_can_be_disabled() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        for i in Indicator::PRIMARY {
            s.award(&cfg, false, hit(i, 1));
        }
        assert!(!s.union_triggered());
        assert_eq!(s.score(), 3);
        assert_eq!(s.effective_threshold(&cfg), cfg.non_union_threshold);
    }

    #[test]
    fn secondary_indicators_never_trigger_union() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        for _ in 0..100 {
            s.award(&cfg, true, hit(Indicator::Deletion, 2));
            s.award(&cfg, true, hit(Indicator::Funneling, 15));
        }
        assert!(!s.union_triggered());
    }

    #[test]
    fn loss_tracking_is_set_semantics() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        s.record_loss(FileId(1));
        s.record_loss(FileId(1));
        s.record_loss(FileId(2));
        assert_eq!(s.files_lost(), 2);
    }

    #[test]
    fn first_read_fires_once_per_file() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        assert!(s.first_read(FileId(9)));
        assert!(!s.first_read(FileId(9)));
        assert!(s.first_read(FileId(10)));
    }

    #[test]
    fn summary_reflects_state() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        s.award(&cfg, true, hit(Indicator::TypeChange, 10));
        s.award(&cfg, true, hit(Indicator::TypeChange, 10));
        s.record_loss(FileId(5));
        let sum = s.summary(&cfg);
        assert_eq!(sum.score, 20);
        assert_eq!(sum.hit_counts[&Indicator::TypeChange], 2);
        assert_eq!(sum.hit_points[&Indicator::TypeChange], 20);
        assert_eq!(sum.files_lost, 1);
        assert_eq!(sum.primaries_seen, vec![Indicator::TypeChange]);
        assert!(!sum.detected);
    }

    fn hit_at(indicator: Indicator, points: u32, at_nanos: u64) -> IndicatorHit {
        IndicatorHit {
            at_nanos,
            ..hit(indicator, points)
        }
    }

    #[test]
    fn decayed_score_none_is_raw() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 10, 0));
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 10, 500));
        assert_eq!(s.decayed_score(&cfg, u64::MAX), s.score());
        assert!(s.over_threshold(
            &ScoreConfig {
                non_union_threshold: 20,
                ..cfg.clone()
            },
            u64::MAX
        ));
    }

    #[test]
    fn decayed_score_ages_awards_independently() {
        let cfg = ScoreConfig {
            decay: DecayPolicy::Window { window_nanos: 100 },
            ..ScoreConfig::default()
        };
        let mut s = state(&cfg);
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 10, 0));
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 10, 150));
        assert_eq!(s.score(), 20, "raw score never decays");
        assert_eq!(s.decayed_score(&cfg, 150), 10, "first award aged out");
        assert_eq!(s.decayed_score(&cfg, 100), 20, "both inside the window");
        assert_eq!(s.decayed_score(&cfg, 251), 0, "both aged out");
    }

    #[test]
    fn decayed_score_includes_union_bonus_from_union_time() {
        let cfg = ScoreConfig {
            decay: DecayPolicy::Window { window_nanos: 100 },
            ..ScoreConfig::default()
        };
        let mut s = state(&cfg);
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 6, 0));
        s.award(&cfg, true, hit_at(Indicator::Similarity, 6, 10));
        s.award(&cfg, true, hit_at(Indicator::EntropyDelta, 3, 200));
        assert!(s.union_triggered());
        // At t=200 the first two awards are stale; the entropy hit and
        // the union bonus (stamped at the union time, 200) are fresh.
        assert_eq!(s.decayed_score(&cfg, 200), 3 + cfg.union_bonus);
        assert_eq!(s.decayed_score(&cfg, 301), 0);
    }

    #[test]
    fn decayed_score_tolerates_future_awards() {
        let cfg = ScoreConfig {
            decay: DecayPolicy::Linear { window_nanos: 100 },
            ..ScoreConfig::default()
        };
        let mut s = state(&cfg);
        s.award(&cfg, true, hit_at(Indicator::TypeChange, 10, 1_000));
        // Reordered clock: "now" precedes the award. Age saturates to 0.
        assert_eq!(s.decayed_score(&cfg, 500), 10);
    }

    #[test]
    fn burst_window_slides() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let w = 100;
        assert!(!s.record_burst(0, w, 2));
        assert!(!s.record_burst(50, w, 2));
        assert!(s.record_burst(100, w, 2), "three inside the window");
        // 250 evicts everything at or before 149.
        assert!(!s.record_burst(250, w, 2));
        assert_eq!(s.burst_window_len(), 1);
    }

    #[test]
    fn burst_window_evicts_under_non_monotonic_clock() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let w = 100;
        assert!(!s.record_burst(1_000, w, 1));
        // A latency fault delivers a stale timestamp *older than the
        // window*: it must not be admitted, and must not stall eviction.
        assert!(!s.record_burst(10, w, 1));
        assert_eq!(s.burst_window_len(), 1, "stale arrival dropped");
        // A stale-but-in-window arrival still counts.
        assert!(s.record_burst(950, w, 1));
        assert_eq!(s.burst_window_len(), 2);
        // Fresh arrivals keep evicting against the watermark even though
        // the previous arrival was out of order.
        assert!(!s.record_burst(2_000, w, 1));
        assert_eq!(s.burst_window_len(), 1);
    }

    #[test]
    fn burst_window_out_of_order_mid_deque_eviction() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let w = 100;
        // Arrival order 500, 450, 520: the deque is not timestamp-sorted,
        // so the stale entry (450) sits in the middle. Advancing the
        // watermark to 551 (horizon 451) must evict it even though the
        // arrival-order front (500) survives.
        s.record_burst(500, w, 99);
        s.record_burst(450, w, 99);
        s.record_burst(520, w, 99);
        assert_eq!(s.burst_window_len(), 3);
        s.record_burst(551, w, 99);
        assert_eq!(s.burst_window_len(), 3, "450 evicted, 551 admitted");
    }

    #[test]
    fn rate_bucket_starts_full_and_drains() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let (cap, refill) = (3u32, 100u64);
        assert!(s.rate_consume(0, cap, refill));
        assert!(s.rate_consume(0, cap, refill));
        assert!(s.rate_consume(0, cap, refill));
        assert!(!s.rate_consume(0, cap, refill), "bucket dry");
        assert_eq!(s.rate_tokens(), 0);
    }

    #[test]
    fn rate_bucket_refills_with_simulated_time() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let (cap, refill) = (3u32, 100u64);
        for _ in 0..3 {
            assert!(s.rate_consume(0, cap, refill));
        }
        assert_eq!(s.rate_refill(99, cap, refill), 0, "not a full interval");
        assert_eq!(s.rate_refill(100, cap, refill), 1);
        // The remainder carries: 50 more nanos is still only one token.
        assert_eq!(s.rate_refill(150, cap, refill), 1);
        assert_eq!(s.rate_refill(250, cap, refill), 2);
        // Refill caps at capacity and stops banking time.
        assert_eq!(s.rate_refill(1_000_000, cap, refill), cap);
        assert!(s.rate_consume(1_000_000, cap, refill));
        assert_eq!(s.rate_tokens(), cap - 1);
    }

    #[test]
    fn rate_bucket_ignores_clock_regression() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        let (cap, refill) = (2u32, 100u64);
        assert!(s.rate_consume(1_000, cap, refill));
        assert!(s.rate_consume(1_000, cap, refill));
        // The clock runs backwards (fault injection): no refill, no panic.
        assert_eq!(s.rate_refill(500, cap, refill), 0);
        assert!(!s.rate_consume(500, cap, refill));
        // Forward progress from the original watermark refills normally.
        assert_eq!(s.rate_refill(1_100, cap, refill), 1);
    }

    #[test]
    fn inherit_read_baseline_fires_once_per_file() {
        let cfg = ScoreConfig::default();
        let mut s = state(&cfg);
        assert!(s.inherit_read_baseline(FileId(3)));
        assert!(!s.inherit_read_baseline(FileId(3)));
        assert!(s.inherit_read_baseline(FileId(4)));
        // Distinct from first-read sampling.
        assert!(s.first_read(FileId(3)));
    }

    #[test]
    fn snapshot_capture_properties() {
        let text: Vec<u8> = (0..200u32)
            .flat_map(|i| format!("line {i} of the original document\n").into_bytes())
            .collect();
        let snap = FileSnapshot::capture(&text, 1 << 20);
        assert_eq!(snap.file_type, FileType::Utf8Text);
        assert!(snap.digest.is_some());
        assert!(snap.entropy > 3.0 && snap.entropy < 5.5);
        assert_eq!(snap.len, text.len() as u64);

        let tiny = FileSnapshot::capture(b"small", 1 << 20);
        assert!(tiny.digest.is_none(), "sub-512B files have no digest");
    }

    #[test]
    fn snapshot_fingerprint_tracks_content() {
        let a = FileSnapshot::capture(b"content version one, long enough", 1 << 20);
        let b = FileSnapshot::capture(b"content version two, long enough", 1 << 20);
        let a2 = FileSnapshot::capture(b"content version one, long enough", 1 << 20);
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(a, a2, "capture is deterministic, fingerprint included");
        // The fingerprint covers the full content even when the digest
        // window is capped: a change beyond the window must invalidate.
        let long: Vec<u8> = (0..4096u32).flat_map(|i| format!("{i:03} ").into_bytes()).collect();
        let mut tail_changed = long.clone();
        let n = tail_changed.len();
        tail_changed[n - 1] ^= 0x55;
        let capped = FileSnapshot::capture(&long, 1024);
        let capped_changed = FileSnapshot::capture(&tail_changed, 1024);
        assert_ne!(capped.fingerprint, capped_changed.fingerprint);
        assert_eq!(capped.fingerprint, content_fingerprint(&long));
    }

    #[test]
    fn capture_reusing_matches_plain_capture() {
        let text: Vec<u8> = (0..300u32)
            .flat_map(|i| format!("reused-analysis line {i}\n").into_bytes())
            .collect();
        let plain = FileSnapshot::capture(&text, 1 << 20);
        let window = &text[..];
        let reused = FileSnapshot::capture_reusing(
            &text,
            1 << 20,
            Some(sniff(&text)),
            Some(SdDigest::compute(window)),
        );
        assert_eq!(plain, reused);
        // Reusing a "computed, undigestible" result is also faithful.
        let tiny = b"sub-512B";
        assert_eq!(
            FileSnapshot::capture(tiny, 1 << 20),
            FileSnapshot::capture_reusing(tiny, 1 << 20, None, Some(None)),
        );
    }

    #[test]
    fn snapshot_respects_digest_cap() {
        let big: Vec<u8> = (0..64 * 1024u32)
            .flat_map(|i| format!("{i:04x}").into_bytes())
            .collect();
        let capped = FileSnapshot::capture(&big, 1024);
        let full = FileSnapshot::capture(&big, usize::MAX);
        assert_eq!(capped.len, big.len() as u64, "len is of the full content");
        // The capped digest covers only the prefix and is smaller.
        assert!(
            capped.digest.as_ref().unwrap().features() < full.digest.as_ref().unwrap().features()
        );
    }
}
