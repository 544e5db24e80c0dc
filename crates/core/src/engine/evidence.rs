//! Indicator evidence: pure functions of snapshots, content and
//! [`Config`] (paper §III). Nothing here takes a lock, touches a cache or
//! records telemetry, so the handlers compute evidence before they lock
//! a family shard to award it.

use std::sync::Arc;

use cryptodrop_simhash::SdDigest;
use cryptodrop_sniff::FileType;
use cryptodrop_vfs::{DirtyReport, VPath, MAX_DIRTY_EXTENTS};

use crate::config::Config;
use crate::indicators::similarity::{self, SimilarityOutcome};
use crate::indicators::type_change::TypeChangeOutcome;
use crate::indicators::{Indicator, IndicatorHit};
use crate::state::{FileSnapshot, IncrState};

/// Whether the tier-1 stamp skip may run. The degenerate
/// `similarity_match_max >= 100` configuration would count even
/// self-similarity as dissimilar, so it disables the skip.
pub(super) fn unchanged_shortcut(cfg: &Config) -> bool {
    cfg.score.similarity_match_max < 100
}

/// Whether a changed close of `len` bytes stamped `stamp` may take the
/// tier-2 dirty-extent delta from the resident snapshot `pre`.
///
/// The delta path requires an unbroken chain of custody: the resident
/// snapshot retained its intermediates, its stamp equals the dirty
/// report's base stamp (the snapshot describes exactly the content the
/// handle started from), the close-time stamp equals the report's last
/// stamp (no other handle interfered after the last write), the file did
/// not shrink, and the whole content fits the digest window in both
/// states.
pub(super) fn delta_applies(
    cfg: &Config,
    pre: &FileSnapshot,
    len: usize,
    stamp: u64,
    d: &DirtyReport,
) -> bool {
    pre.incr.is_some()
        && !d.full
        && stamp != 0
        && pre.stamp != 0
        && d.base_stamp == pre.stamp
        && d.last_stamp == stamp
        && pre.len == d.base_len
        && (len as u64) >= d.base_len
        && len <= cfg.max_digest_bytes
}

/// The refreshed snapshot of a *changed* close's content, and whether
/// the dirty-extent delta path ([`delta_applies`]) produced it: histogram
/// updated by subtract/add, unchanged sdhash feature runs spliced from
/// the cache. Otherwise the content is captured from scratch. Every
/// product is bit-identical to a from-scratch recompute — the histogram
/// delta is exact integer arithmetic and the sdhash splice is exact by
/// construction (property-tested).
pub(super) fn close_snapshot(
    cfg: &Config,
    pre: Option<&FileSnapshot>,
    current: &[u8],
    stamp: u64,
    dirty: Option<&DirtyReport>,
    post_type: FileType,
) -> (FileSnapshot, bool) {
    let base = pre
        .zip(dirty)
        .filter(|(pre, d)| delta_applies(cfg, pre, current.len(), stamp, d));
    let Some((FileSnapshot { incr: Some(incr), .. }, d)) = base else {
        let max = cfg.max_digest_bytes;
        return (FileSnapshot::capture_incremental(current, max, stamp, Some(post_type)), false);
    };
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
    let (digest, features) = match recomputed.or_else(|| SdDigest::compute_with_cache(current)) {
        Some((dg, cache)) => (Some(dg), Some(cache)),
        None => (None, None),
    };
    let fresh = FileSnapshot {
        file_type: post_type,
        digest,
        entropy: histogram.entropy_lut(),
        len: current.len() as u64,
        stamp,
        incr: Some(Arc::new(IncrState {
            histogram,
            features,
        })),
    };
    (fresh, true)
}

/// The similarity of `current` to the pre-image `pre`, digesting the
/// post-image over the digest window.
pub(super) fn similarity_full(
    cfg: &Config,
    pre: &FileSnapshot,
    current: &[u8],
) -> SimilarityOutcome {
    let window = &current[..current.len().min(cfg.max_digest_bytes)];
    similarity::evaluate(
        pre.digest.as_ref(),
        pre.entropy,
        window,
        cfg.score.similarity_match_max,
        cfg.score.similarity_max_source_entropy,
    )
}

/// The similarity of a post-image whose digest is already computed to
/// the pre-image `pre`.
pub(super) fn similarity_precomputed(
    cfg: &Config,
    pre: &FileSnapshot,
    post: Option<&SdDigest>,
) -> SimilarityOutcome {
    similarity::evaluate_precomputed(
        pre.digest.as_ref(),
        pre.entropy,
        post,
        cfg.score.similarity_match_max,
        cfg.score.similarity_max_source_entropy,
    )
}

/// The type-change and similarity hits of one content comparison, given
/// the type-change and similarity outcomes of its post-image against the
/// pre-image.
pub(super) fn content_hits(
    cfg: &Config,
    type_outcome: TypeChangeOutcome,
    sim: SimilarityOutcome,
    path: &VPath,
    at_nanos: u64,
) -> [Option<IndicatorHit>; 2] {
    // Dynamic scoring (future work, §V-C): when the similarity
    // indicator is structurally unavailable for this file — no
    // pre-image digest exists (sub-512 B or featureless content) —
    // the remaining content indicator is weighted up to compensate.
    let type_points = if cfg.dynamic_scoring
        && matches!(
            sim,
            SimilarityOutcome::Abstain(similarity::AbstainReason::NoPreImageDigest)
        ) {
        cfg.score.points_type_change.saturating_mul(2)
    } else {
        cfg.score.points_type_change
    };
    // As with the entropy indicator, a zeroed point value disables
    // the indicator entirely — it neither scores nor counts toward
    // union indication (the adversarial study's ablation configs
    // rely on this).
    let type_change = match type_outcome {
        TypeChangeOutcome::Changed { before, after } if type_points > 0 => Some(IndicatorHit {
            indicator: Indicator::TypeChange,
            points: type_points,
            value: 1.0,
            threshold: 1.0,
            detail: format!("{} -> {} at {path}", before.description(), after.description()),
            at_nanos,
        }),
        _ => None,
    };
    let similarity = match sim {
        SimilarityOutcome::Dissimilar(score) if cfg.score.points_similarity > 0 => {
            Some(IndicatorHit {
                indicator: Indicator::Similarity,
                points: cfg.score.points_similarity,
                value: f64::from(score),
                threshold: f64::from(cfg.score.similarity_match_max),
                detail: format!("similarity {score}/100 at {path}"),
                at_nanos,
            })
        }
        _ => None,
    };
    [type_change, similarity]
}

/// The entropy-delta hit for a write of `len` bytes that moved the
/// family's write/read entropy delta to `delta`.
pub(super) fn entropy_hit(
    cfg: &Config,
    delta: f64,
    len: usize,
    path: &VPath,
    at_nanos: u64,
) -> IndicatorHit {
    // Small writes earn proportionally fewer points: a flood of
    // tiny-file encryptions should not outpace the content indicators
    // (paper §V-C's small-file dynamics).
    let scale = (len as f64 / cfg.score.entropy_full_weight_bytes.max(1) as f64).min(1.0);
    IndicatorHit {
        indicator: Indicator::EntropyDelta,
        points: ((cfg.score.points_entropy_delta as f64 * scale).round() as u32).max(1),
        value: delta,
        threshold: cfg.score.entropy_delta_threshold,
        detail: format!("write/read entropy delta {delta:.3} at {path}"),
        at_nanos,
    }
}
