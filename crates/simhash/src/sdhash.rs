//! An sdhash-style similarity digest (Roussev, "Data Fingerprinting with
//! Similarity Digests", 2010).
//!
//! The paper's second primary indicator (§III-B) compares the sdhash
//! digests of a file before and after modification: a score of 100 means
//! the contents are almost surely homologous, while "a confidence score of
//! 0 is statistically comparable to that of two blobs of random data" —
//! which is exactly what encryption produces. sdhash is also unable to
//! produce digests for very small inputs, a limitation the evaluation leans
//! on (§V-C: files under 512 bytes defeat the similarity indicator and
//! delay union detection).
//!
//! The implementation follows the published scheme:
//!
//! 1. slide a 64-byte feature window over the input, keeping its byte
//!    counts and `S = Σ c·log2(c)` in exact fixed point, O(1) per position;
//! 2. give each feature an entropy-derived *precedence rank* in integer
//!    arithmetic (`H/Hmax = 1 − S/Smax`), discarding trivially weak
//!    (near-zero entropy) and near-saturated features;
//! 3. select *popular* features — those that are the leftmost rank-maximum
//!    of at least [`POPULARITY_THRESHOLD`] of the sliding 64-position
//!    neighborhoods containing them: the length of the position's one run
//!    of wins, since these maxima never move left;
//! 4. hash each selected feature with SHA-1 and insert it into a sequence
//!    of 2048-bit Bloom filters, at most 160 features per filter;
//! 5. compare digests filter-by-filter: each filter of the shorter digest
//!    is scored against its best match in the other digest, and the scores
//!    are averaged into a 0–100 confidence.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::bloom::BloomFilter;
use crate::hash::sha1_64;

/// The sliding feature size, in bytes.
pub const FEATURE_SIZE: usize = 64;
/// The popularity neighborhood size, in window positions.
pub const POPULARITY_WINDOW: usize = 64;
/// A feature must win at least this many neighborhoods to be selected.
pub const POPULARITY_THRESHOLD: u32 = 16;
/// Inputs shorter than this produce no digest (paper §V-C: "sdhash is
/// unable to generate similarity scores for such small files").
pub const MIN_FILE_SIZE: usize = 512;

/// Entropy ranks are scaled to 0..=1000 (6 bits max for 64-byte windows).
const ENTROPY_SCALE: u32 = 1000;
/// Features with scaled entropy below this are too weak to be
/// discriminating (long runs, padding).
const MIN_ENTROPY: u32 = 100;
/// Features with scaled entropy above this are near-saturated and excluded
/// (sdhash's guard against header/table artifacts).
const MAX_ENTROPY: u32 = 990;

/// A similarity digest: a sequence of Bloom filters summarizing the input's
/// statistically improbable features.
///
/// # Examples
///
/// ```
/// use cryptodrop_simhash::SdDigest;
///
/// let doc: Vec<u8> = (0..4096u32)
///     .flat_map(|i| format!("paragraph {i} of the report\n").into_bytes())
///     .collect();
/// let digest = SdDigest::compute(&doc).expect("large enough input");
/// assert_eq!(digest.similarity(&digest), 100);
///
/// // Tiny inputs yield no digest at all:
/// assert!(SdDigest::compute(&doc[..256]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdDigest {
    filters: Vec<BloomFilter>,
    features: usize,
    input_len: usize,
}

impl SdDigest {
    /// Computes the digest of `data`.
    ///
    /// Returns `None` when the input is shorter than [`MIN_FILE_SIZE`] or
    /// contains no selectable features (e.g. a constant buffer), matching
    /// sdhash's refusal to digest inputs it cannot characterize.
    pub fn compute(data: &[u8]) -> Option<SdDigest> {
        Self::compute_with_cache(data).map(|(digest, _)| digest)
    }

    /// Computes the digest together with a [`FeatureCache`] enabling later
    /// incremental recomputation via [`SdDigest::recompute_dirty`].
    ///
    /// Returns `None` under the same conditions as [`SdDigest::compute`].
    pub fn compute_with_cache(data: &[u8]) -> Option<(SdDigest, FeatureCache)> {
        if data.len() < MIN_FILE_SIZE {
            return None;
        }
        let mut features = Vec::new();
        select_features(data, 0, data.len() + 1 - FEATURE_SIZE, &mut features);
        let digest = build_digest(&features, data.len())?;
        Some((
            digest,
            FeatureCache {
                features,
                input_len: data.len(),
            },
        ))
    }

    /// Recomputes the digest of `data` given a [`FeatureCache`] from a
    /// previous content state and the byte extents that changed since.
    ///
    /// Features are re-selected only inside the dirty windows plus the
    /// rolling horizon (`FEATURE_SIZE − 1` window positions back for ranks,
    /// a further `POPULARITY_WINDOW − 1` each way for popularity); the
    /// unchanged feature runs are spliced from the cache without re-hashing.
    /// The result is **bit-identical** to a from-scratch
    /// [`SdDigest::compute`] of `data` — precedence ranks use an exact
    /// fixed-point accumulator, so a windowed recompute cannot drift from a
    /// full pass.
    ///
    /// Caller contract: every byte of `data` that differs from the cached
    /// content (at the same offset) lies inside some `(start, end)` extent,
    /// `data` is no shorter than the cached input, and any tail growth is
    /// covered by an extent. Returns `None` when `data` shrank (callers
    /// should fall back to a full recompute), is shorter than
    /// [`MIN_FILE_SIZE`], or no features remain after the splice.
    pub fn recompute_dirty(
        cache: &FeatureCache,
        data: &[u8],
        dirty: &[(usize, usize)],
    ) -> Option<(SdDigest, FeatureCache)> {
        let n = data.len();
        if n < MIN_FILE_SIZE || n < cache.input_len {
            return None;
        }
        let windows = n - FEATURE_SIZE + 1;

        // A changed byte range [s, e) alters ranks of window positions
        // [s − (FEATURE_SIZE−1), e), and popularity a further
        // POPULARITY_WINDOW−1 positions on each side of those.
        let horizon = (FEATURE_SIZE - 1) + (POPULARITY_WINDOW - 1);
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for &(s, e) in dirty {
            let e = e.min(n);
            if s >= e {
                continue;
            }
            let lo = s.saturating_sub(horizon);
            let hi = (e + POPULARITY_WINDOW - 1).min(windows);
            if lo < hi {
                regions.push((lo, hi));
            }
        }
        regions.sort_unstable();
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(regions.len());
        for (lo, hi) in regions {
            match merged.last_mut() {
                Some((_, last_hi)) if lo <= *last_hi => *last_hi = (*last_hi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }

        let mut fresh: Vec<CachedFeature> = Vec::new();
        for &(lo, hi) in &merged {
            select_features(data, lo, hi, &mut fresh);
        }

        // Splice: cached features outside every recomputed region, merged in
        // position order with the freshly selected ones.
        let outside = |pos: usize| {
            merged
                .binary_search_by(|&(lo, hi)| {
                    if pos < lo {
                        std::cmp::Ordering::Greater
                    } else if pos >= hi {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_err()
        };
        let mut features = Vec::with_capacity(cache.features.len() + fresh.len());
        let mut fresh_iter = fresh.into_iter().peekable();
        for f in &cache.features {
            let pos = f.pos as usize;
            if pos >= windows || !outside(pos) {
                continue;
            }
            while let Some(nf) = fresh_iter.peek() {
                if (nf.pos as usize) < pos {
                    let nf = *nf;
                    fresh_iter.next();
                    features.push(nf);
                } else {
                    break;
                }
            }
            features.push(*f);
        }
        features.extend(fresh_iter);

        let digest = build_digest(&features, n)?;
        Some((
            digest,
            FeatureCache {
                features,
                input_len: n,
            },
        ))
    }

    /// The similarity confidence between two digests, 0–100.
    ///
    /// 100 indicates a high likelihood the inputs are homologous; 0 is
    /// "statistically comparable to two blobs of random data".
    pub fn similarity(&self, other: &SdDigest) -> u32 {
        let (short, long) = if self.filters.len() <= other.filters.len() {
            (self, other)
        } else {
            (other, self)
        };
        // Weight each filter's best match by its feature count so a
        // sparsely-filled trailing filter cannot dominate the average.
        let mut total = 0u64;
        let mut weight = 0u64;
        for f in &short.filters {
            if f.features() == 0 {
                continue;
            }
            let best = long.filters.iter().map(|g| f.score(g)).max().unwrap_or(0);
            total += best as u64 * f.features() as u64;
            weight += f.features() as u64;
        }
        total.checked_div(weight).unwrap_or(0) as u32
    }

    /// The number of selected features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The number of Bloom filters in the digest.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// The length of the digested input, in bytes.
    pub fn input_len(&self) -> usize {
        self.input_len
    }
}

/// One selected feature retained for incremental recomputation: its window
/// position and its SHA-1 words (so splicing never re-hashes unchanged
/// features).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CachedFeature {
    pos: u32,
    words: [u32; 5],
}

/// The selected-feature list behind a digest, kept alongside the snapshot
/// so [`SdDigest::recompute_dirty`] can splice unchanged feature runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureCache {
    features: Vec<CachedFeature>,
    input_len: usize,
}

impl FeatureCache {
    /// The length of the input the cache describes, in bytes.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// The number of cached features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }
}

/// Packs a sorted feature list into the Bloom-filter sequence (at most 160
/// features per filter). Returns `None` for an empty list, matching
/// [`SdDigest::compute`]'s refusal to emit empty digests.
fn build_digest(features: &[CachedFeature], input_len: usize) -> Option<SdDigest> {
    if features.is_empty() {
        return None;
    }
    let mut filters = vec![BloomFilter::new()];
    for f in features {
        if filters.last().expect("non-empty").is_full() {
            filters.push(BloomFilter::new());
        }
        filters.last_mut().expect("non-empty").insert(&f.words);
    }
    Some(SdDigest {
        filters,
        features: features.len(),
        input_len,
    })
}

/// 32.32 fixed-point scale for the window-entropy accumulator. Integer
/// accumulation is exact, so a recompute that starts mid-file produces the
/// same per-window sums — bit for bit — as a full left-to-right pass, which
/// is what makes windowed re-selection safe to splice.
const RANK_FX: f64 = (1u64 << 32) as f64;

/// `Smax`: the window sum of a constant window, `64·log2(64)` in 32.32
/// fixed point, where the window entropy is 0.
const SUM_MAX: u64 = 384 << 32;

/// The fixed-point `c·log2(c)` table, `round(c · log2(c) · 2^32)` for
/// counts 0..=64, as steps: entry `c` is how much `S` grows when a count
/// goes from `c` to `c + 1`. Entries past 63 are zero, so a byte value
/// indexes the table without a bounds check.
fn clog_steps() -> &'static [i64; 256] {
    static TABLE: OnceLock<[i64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let clog = |c: usize| (c as f64 * (c as f64).log2() * RANK_FX).round() as i64;
        let mut t = [0i64; 256];
        for (c, step) in t.iter_mut().enumerate().take(FEATURE_SIZE).skip(1) {
            *step = clog(c + 1) - clog(c);
        }
        t
    })
}

/// A window's entropy as a share of the 6-bit maximum, scaled to
/// 0..=[`ENTROPY_SCALE`] and rounded half up, from its fixed-point sum:
/// `H/Hmax = 1 − S/Smax`. Exact integer arithmetic, equal at every
/// `S` in `0..=Smax` to the test reference's float formula (the
/// breakpoint test checks both sides of each of its steps).
fn scaled_entropy(sum: u64) -> u32 {
    ((u64::from(ENTROPY_SCALE) * SUM_MAX.saturating_sub(sum) + SUM_MAX / 2) / SUM_MAX) as u32
}

/// The byte counts of a sliding window and their sum `S = Σ c·log2(c)`,
/// kept exact in fixed point: two table lookups per slide, and a window
/// started mid-file sums to the same value as a full pass.
struct Window {
    counts: [u8; 256],
    sum: i64,
    steps: &'static [i64; 256],
}

impl Window {
    fn new(bytes: &[u8]) -> Self {
        let mut w = Window {
            counts: [0; 256],
            sum: 0,
            steps: clog_steps(),
        };
        bytes.iter().for_each(|&b| w.add(b));
        w
    }

    fn add(&mut self, b: u8) {
        let c = &mut self.counts[b as usize];
        self.sum += self.steps[*c as usize];
        *c += 1;
    }

    fn remove(&mut self, b: u8) {
        let c = &mut self.counts[b as usize];
        *c -= 1;
        self.sum -= self.steps[*c as usize];
    }

    fn rank(&self) -> u32 {
        rank_of(scaled_entropy(self.sum as u64))
    }
}

/// Appends to `out`, in position order and SHA-1 hashed, the features
/// that a whole-input selection picks at window positions `lo..hi`.
///
/// One streaming pass over the neighborhoods that can credit a position
/// in `lo..hi`. A position's key is `rank << 32 | (u32::MAX − pos)`, so a
/// neighborhood's largest key is its leftmost maximal rank. That key is
/// the larger of the suffix maximum of the 64-position block the
/// neighborhood starts in and the prefix maximum of the next block (van
/// Herk/Gil-Werman). Successive neighborhood maxima never move left, so
/// each position's popularity is the length of its run of wins, and a
/// run that ends at least [`POPULARITY_THRESHOLD`] long on a nonzero rank
/// selects its position.
fn select_features(data: &[u8], lo: usize, hi: usize, out: &mut Vec<CachedFeature>) {
    const W: usize = POPULARITY_WINDOW;
    assert!(data.len() <= u32::MAX as usize, "positions are u32");
    let windows = data.len() + 1 - FEATURE_SIZE;
    debug_assert!(lo < hi && hi <= windows && W <= windows);
    // Neighborhoods start in q_lo..=q_hi and span positions q_lo..end.
    let q_lo = lo.saturating_sub(W - 1);
    let q_hi = (hi - 1).min(windows - W);
    let end = q_hi + W;
    let mut window = Window::new(&data[q_lo..q_lo + FEATURE_SIZE - 1]);
    // The keys of positions start..start + W, zero past `end`.
    let mut fill = |block: &mut [u64; W], start: usize| {
        let n = end.saturating_sub(start).min(W);
        let slides = data[start..].iter().zip(&data[start + FEATURE_SIZE - 1..]);
        for ((key, (&old, &new)), p) in block[..n].iter_mut().zip(slides).zip(start as u32..) {
            window.add(new);
            *key = u64::from(window.rank()) << 32 | u64::from(u32::MAX - p);
            window.remove(old);
        }
        block[n..].fill(0);
    };
    let mut block = [0u64; W];
    let mut suffix = [0u64; W + 1];
    // A block's selections: the keys of runs that ended in it at least
    // POPULARITY_THRESHOLD long on a nonzero rank.
    let mut ended = [0u64; W + 1];
    let (mut best, mut run) = (0u64, 0u32);
    fill(&mut block, q_lo);
    for start in (q_lo..=q_hi).step_by(W) {
        for j in (0..W).rev() {
            suffix[j] = suffix[j + 1].max(block[j]);
        }
        fill(&mut block, start + W);
        let (mut prefix, mut n) = (0u64, 0);
        for j in 0..W.min(q_hi + 1 - start) {
            let max = suffix[j].max(prefix);
            prefix = prefix.max(block[j]);
            let moved = max != best;
            ended[n] = best;
            n += usize::from(moved & (run >= POPULARITY_THRESHOLD) & (best >> 32 > 0));
            run = if moved { 1 } else { run + 1 };
            best = max;
        }
        // The last neighborhood ends the last run.
        if run >= POPULARITY_THRESHOLD && best >> 32 > 0 && start + W > q_hi {
            ended[n] = best;
            n += 1;
        }
        for &key in &ended[..n] {
            let pos = u32::MAX - key as u32;
            let p = pos as usize;
            if (lo..hi).contains(&p) {
                let words = sha1_64(data[p..p + FEATURE_SIZE].try_into().expect("64 bytes"));
                out.push(CachedFeature { pos, words });
            }
        }
    }
}

/// Maps a scaled entropy value to a precedence rank; 0 means "never
/// select". The rank peaks in the upper-middle entropy range where features
/// are most discriminating, mirroring the shape of sdhash's empirical
/// precedence table.
fn rank_of(scaled_entropy: u32) -> u32 {
    if !(MIN_ENTROPY..=MAX_ENTROPY).contains(&scaled_entropy) {
        return 0;
    }
    ENTROPY_SCALE - (650i64 - scaled_entropy as i64).unsigned_abs() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift bytes.
    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    /// English-ish structured text.
    fn text_bytes(n: usize) -> Vec<u8> {
        let para = b"The quarterly report shows steady growth in all regions. \
                     Management expects the trend to continue through the next \
                     fiscal year, barring unusual market conditions. ";
        para.iter().cycle().take(n).copied().collect()
    }

    #[test]
    fn small_inputs_have_no_digest() {
        assert!(SdDigest::compute(b"").is_none());
        assert!(SdDigest::compute(&text_bytes(511)).is_none());
        assert!(SdDigest::compute(&text_bytes(512)).is_some());
    }

    #[test]
    fn constant_input_has_no_digest() {
        assert!(SdDigest::compute(&vec![0u8; 4096]).is_none());
        assert!(SdDigest::compute(&vec![0xAA; 4096]).is_none());
    }

    #[test]
    fn self_similarity_is_100() {
        for data in [text_bytes(2048), random_bytes(2048, 7)] {
            let d = SdDigest::compute(&data).unwrap();
            assert_eq!(d.similarity(&d), 100);
        }
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = SdDigest::compute(&text_bytes(4096)).unwrap();
        let b = SdDigest::compute(&random_bytes(4096, 3)).unwrap();
        assert_eq!(a.similarity(&b), b.similarity(&a));
    }

    #[test]
    fn random_blobs_score_near_zero() {
        let a = SdDigest::compute(&random_bytes(8192, 1)).unwrap();
        let b = SdDigest::compute(&random_bytes(8192, 2)).unwrap();
        let s = a.similarity(&b);
        assert!(s <= 5, "independent random blobs scored {s}");
    }

    #[test]
    fn encryption_destroys_similarity() {
        // The indicator's core scenario (paper §III-B): plaintext vs its
        // "ciphertext" should score ~0.
        let plain = text_bytes(8192);
        let key = random_bytes(plain.len(), 99);
        let cipher: Vec<u8> = plain.iter().zip(&key).map(|(p, k)| p ^ k).collect();
        let dp = SdDigest::compute(&plain).unwrap();
        let dc = SdDigest::compute(&cipher).unwrap();
        let s = dp.similarity(&dc);
        assert!(s <= 5, "plaintext vs ciphertext scored {s}");
    }

    #[test]
    fn small_edits_keep_high_similarity() {
        let base = text_bytes(8192);
        let mut edited = base.clone();
        // Flip a handful of bytes scattered through the file.
        for i in (0..edited.len()).step_by(1500) {
            edited[i] = edited[i].wrapping_add(13);
        }
        let a = SdDigest::compute(&base).unwrap();
        let b = SdDigest::compute(&edited).unwrap();
        let s = a.similarity(&b);
        assert!(s >= 50, "lightly edited file scored only {s}");
    }

    #[test]
    fn appended_content_keeps_similarity() {
        let base = text_bytes(8192);
        let mut longer = base.clone();
        longer.extend_from_slice(&text_bytes(1024));
        let a = SdDigest::compute(&base).unwrap();
        let b = SdDigest::compute(&longer).unwrap();
        assert!(a.similarity(&b) >= 60);
    }

    #[test]
    fn unrelated_text_scores_low() {
        let a = SdDigest::compute(&text_bytes(8192)).unwrap();
        let other: Vec<u8> = b"zx81 qwerty dvorak colemak azerty keyboard layouts \
                               differ substantially in their letter placements!!! "
            .iter()
            .cycle()
            .take(8192)
            .copied()
            .collect();
        let b = SdDigest::compute(&other).unwrap();
        let s = a.similarity(&b);
        assert!(s < 40, "unrelated periodic texts scored {s}");
    }

    #[test]
    fn digest_metadata() {
        let data = text_bytes(4096);
        let d = SdDigest::compute(&data).unwrap();
        assert!(d.features() > 0);
        assert!(d.filter_count() >= 1);
        assert_eq!(d.input_len(), 4096);
    }

    #[test]
    fn large_input_spills_into_multiple_filters() {
        let d = SdDigest::compute(&random_bytes(256 * 1024, 5)).unwrap();
        assert!(
            d.filter_count() > 1,
            "256 KiB of random data should exceed one filter ({} features)",
            d.features()
        );
    }

    #[test]
    fn rank_of_boundaries() {
        assert_eq!(rank_of(0), 0);
        assert_eq!(rank_of(MIN_ENTROPY - 1), 0);
        assert!(rank_of(MIN_ENTROPY) > 0);
        assert!(rank_of(650) > rank_of(400));
        assert!(rank_of(650) > rank_of(MAX_ENTROPY));
        assert_eq!(rank_of(MAX_ENTROPY + 1), 0);
        assert_eq!(rank_of(ENTROPY_SCALE), 0);
    }

    #[test]
    fn select_popular_degenerate_inputs() {
        assert!(reference_popular(&[]).is_empty());
        assert!(reference_popular(&[0; 10]).is_empty());
        // A single dominant rank in a long run is selected.
        let mut ranks = vec![500u32; 200];
        ranks[100] = 900;
        let sel = reference_popular(&ranks);
        assert!(sel.contains(&100));
    }

    #[test]
    fn compute_with_cache_matches_compute() {
        for data in [text_bytes(2048), random_bytes(4096, 21)] {
            let plain = SdDigest::compute(&data).unwrap();
            let (cached, cache) = SdDigest::compute_with_cache(&data).unwrap();
            assert_eq!(plain, cached);
            assert_eq!(cache.feature_count(), cached.features());
            assert_eq!(cache.input_len(), data.len());
        }
    }

    #[test]
    fn empty_dirty_set_rebuilds_identical_digest() {
        let data = text_bytes(4096);
        let (digest, cache) = SdDigest::compute_with_cache(&data).unwrap();
        let (rebuilt, cache2) = SdDigest::recompute_dirty(&cache, &data, &[]).unwrap();
        assert_eq!(digest, rebuilt);
        assert_eq!(cache, cache2);
    }

    #[test]
    fn shrunk_input_refuses_incremental() {
        let data = text_bytes(4096);
        let (_, cache) = SdDigest::compute_with_cache(&data).unwrap();
        assert!(SdDigest::recompute_dirty(&cache, &data[..2048], &[(0, 2048)]).is_none());
    }

    /// Property test: for random dirty-extent patterns (overwrites and tail
    /// growth), the spliced digest and feature cache are bit-identical to a
    /// from-scratch recompute of the final bytes — the incremental-vs-full
    /// equivalence the engine's close path relies on.
    #[test]
    fn dirty_recompute_matches_from_scratch() {
        let mut seed = 0xD1537_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..40 {
            // Mix structured and random content so both feature-rich and
            // feature-poor neighborhoods get exercised.
            let len = MIN_FILE_SIZE + (next() as usize % 8192);
            let mut data = if case % 2 == 0 {
                text_bytes(len)
            } else {
                let mut d = text_bytes(len);
                let r = random_bytes(len / 3, next() | 1);
                d[..r.len()].copy_from_slice(&r);
                d
            };
            let (_, cache) = match SdDigest::compute_with_cache(&data) {
                Some(v) => v,
                None => continue,
            };
            let mut dirty: Vec<(usize, usize)> = Vec::new();
            for _ in 0..1 + next() % 5 {
                if next() % 5 == 0 {
                    // Tail growth, recorded as a dirty extent.
                    let old_len = data.len();
                    let extra: Vec<u8> = (0..1 + next() as usize % 700).map(|_| next() as u8).collect();
                    data.extend_from_slice(&extra);
                    dirty.push((old_len, data.len()));
                } else {
                    let start = next() as usize % data.len();
                    let end = (start + 1 + next() as usize % 300).min(data.len());
                    for b in &mut data[start..end] {
                        *b = next() as u8;
                    }
                    dirty.push((start, end));
                }
            }
            let spliced = SdDigest::recompute_dirty(&cache, &data, &dirty);
            let reference = reference_digest(&data);
            assert_eq!(spliced, reference, "case {case}: spliced vs reference");
            let scratch = SdDigest::compute_with_cache(&data);
            match (spliced, scratch) {
                (Some((d, c)), Some((d2, c2))) => {
                    assert_eq!(d, d2, "case {case}: spliced digest must equal from-scratch");
                    assert_eq!(c, c2, "case {case}: spliced cache must equal from-scratch");
                    assert_eq!(d.similarity(&d2), 100);
                }
                (None, None) => {}
                (a, b) => panic!(
                    "case {case}: incremental {:?} vs full {:?} disagree on digestibility",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    #[test]
    fn incremental_entropy_matches_direct() {
        // Cross-check the reference's fixed-point window entropy, and the
        // kernel's streamed ranks, against a direct float per-window
        // computation.
        let data = random_bytes(1024, 11);
        let ranks = reference_ranks(&data);
        let mut window = Window::new(&data[..FEATURE_SIZE]);
        for (i, &r) in ranks.iter().enumerate() {
            assert_eq!(window.rank(), r, "window {i}");
            if let Some(&new) = data.get(i + FEATURE_SIZE) {
                window.add(new);
                window.remove(data[i]);
            }
        }
        for (i, &r) in ranks.iter().enumerate().step_by(97) {
            let window = &data[i..i + FEATURE_SIZE];
            let mut counts = [0u32; 256];
            for &b in window {
                counts[b as usize] += 1;
            }
            let mut h = 0.0f64;
            for &c in counts.iter() {
                if c > 0 {
                    let p = c as f64 / FEATURE_SIZE as f64;
                    h -= p * p.log2();
                }
            }
            let scaled = ((h / 6.0) * 1000.0).round() as u32;
            assert_eq!(r, rank_of(scaled.min(1000)), "window {i}");
        }
    }

    // The naive reference the streaming kernel must reproduce: fresh
    // counts per window, the float rank formula the integer one replaced,
    // a scan of every neighborhood, and the general SHA-1.

    /// The float formula: a window's scaled entropy from its fixed-point
    /// sum.
    fn reference_scaled(sum: i64) -> u32 {
        let w = FEATURE_SIZE as f64;
        let max_h = w.log2();
        let h = (max_h - (sum as f64 / RANK_FX) / w).max(0.0);
        (((h / max_h) * ENTROPY_SCALE as f64).round() as u32).min(ENTROPY_SCALE)
    }

    /// Every window's rank, each summed from a fresh count array.
    fn reference_ranks(data: &[u8]) -> Vec<u32> {
        let clog: Vec<i64> = clog_steps()[..=FEATURE_SIZE]
            .iter()
            .scan(0, |sum, step| Some(std::mem::replace(sum, *sum + step)))
            .collect();
        data.windows(FEATURE_SIZE)
            .map(|window| {
                let mut counts = [0usize; 256];
                for &b in window {
                    counts[b as usize] += 1;
                }
                rank_of(reference_scaled(counts.iter().map(|&c| clog[c]).sum()))
            })
            .collect()
    }

    /// The selected positions: every 64-position neighborhood credits its
    /// leftmost maximal rank; positions with nonzero rank and at least
    /// [`POPULARITY_THRESHOLD`] credits are selected.
    fn reference_popular(ranks: &[u32]) -> Vec<usize> {
        let mut wins = vec![0u32; ranks.len()];
        let win = POPULARITY_WINDOW.min(ranks.len()).max(1);
        for (start, window) in ranks.windows(win).enumerate() {
            let best = window.iter().max().expect("non-empty window");
            let leftmost = window.iter().position(|r| r == best).expect("a maximum");
            wins[start + leftmost] += 1;
        }
        (0..ranks.len())
            .filter(|&i| ranks[i] > 0 && wins[i] >= POPULARITY_THRESHOLD)
            .collect()
    }

    fn reference_features(data: &[u8]) -> Vec<CachedFeature> {
        reference_popular(&reference_ranks(data))
            .into_iter()
            .map(|p| CachedFeature {
                pos: p as u32,
                words: crate::hash::sha1_words(&data[p..p + FEATURE_SIZE]),
            })
            .collect()
    }

    fn reference_digest(data: &[u8]) -> Option<(SdDigest, FeatureCache)> {
        if data.len() < MIN_FILE_SIZE {
            return None;
        }
        let features = reference_features(data);
        let digest = build_digest(&features, data.len())?;
        Some((
            digest,
            FeatureCache {
                features,
                input_len: data.len(),
            },
        ))
    }

    /// Content of one of eight shapes: random, text, constant runs,
    /// period 2, period 3, equal-rank plateaus, rank-0 stretches, mixed.
    fn shaped(kind: u8, len: usize, seed: u64) -> Vec<u8> {
        let noise = random_bytes(len.max(64), seed);
        let text = text_bytes(len);
        let pick = |f: &dyn Fn(usize) -> u8| (0..len).map(f).collect::<Vec<u8>>();
        match kind {
            0 => noise[..len].to_vec(),
            1 => text,
            2 => pick(&|i| if (i / 300) % 2 == 0 { 0x20 } else { noise[i] }),
            3 => pick(&|i| noise[i % 2]),
            4 => pick(&|i| noise[i % 3]),
            // One 64-byte unit over an 8-letter alphabet, repeated: every
            // window holds the same bytes, so ranks tie everywhere except
            // near the sparse perturbations.
            5 => pick(&|i| {
                if i % 397 == 0 {
                    noise[i]
                } else {
                    b'a' + noise[i % 64] % 8
                }
            }),
            // All-distinct windows (entropy at its maximum) and constant
            // runs both rank 0; text between them does not.
            6 => pick(&|i| match (i / 256) % 3 {
                0 => i as u8,
                1 => 0,
                _ => text[i],
            }),
            _ => pick(&|i| match (i / 700) % 4 {
                0 | 2 => text[i],
                1 => noise[i],
                _ => b'-',
            }),
        }
    }

    proptest::proptest! {
        /// The kernel selects exactly the reference's features: over the
        /// whole input, and over any region of window positions.
        #[test]
        fn kernel_matches_the_reference(
            kind in 0u8..8,
            len in proptest::prop_oneof![
                proptest::prelude::Just(511usize),
                proptest::prelude::Just(512usize),
                proptest::prelude::Just(575usize),
                proptest::prelude::Just(576usize),
                577usize..6000,
            ],
            seed in proptest::prelude::any::<u64>(),
            cuts in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                4,
            ),
        ) {
            let data = shaped(kind, len, seed);
            proptest::prop_assert_eq!(SdDigest::compute_with_cache(&data), reference_digest(&data));
            if data.len() < MIN_FILE_SIZE {
                return Ok(());
            }
            let all = reference_features(&data);
            let windows = data.len() + 1 - FEATURE_SIZE;
            for (a, b) in cuts {
                let lo = a as usize % windows;
                let hi = lo + 1 + b as usize % (windows - lo);
                let mut region = Vec::new();
                select_features(&data, lo, hi, &mut region);
                let inside = |f: &&CachedFeature| (lo..hi).contains(&(f.pos as usize));
                let expected: Vec<CachedFeature> = all.iter().filter(inside).copied().collect();
                proptest::prop_assert!(region == expected, "region {}..{}", lo, hi);
            }
        }
    }

    /// The integer rank formula equals the float one at every window sum
    /// in `0..=Smax`. Both are non-increasing step functions of the sum,
    /// so agreeing on both sides of every step of the float formula makes
    /// them agree everywhere.
    #[test]
    fn integer_rank_matches_the_float_formula_at_every_breakpoint() {
        let float = |sum: u64| reference_scaled(sum as i64);
        let mut checked = 0;
        for v in 0..ENTROPY_SCALE {
            // The smallest sum whose float-scaled entropy is at most v.
            let (mut lo, mut hi) = (0u64, SUM_MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if float(mid) <= v {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            for sum in [lo - 1, lo] {
                assert_eq!(scaled_entropy(sum), float(sum), "sum {sum}");
                checked += 1;
            }
        }
        for sum in [0, SUM_MAX, SUM_MAX + 1] {
            assert_eq!(scaled_entropy(sum), float(sum), "sum {sum}");
        }
        assert_eq!(scaled_entropy(0), ENTROPY_SCALE);
        assert_eq!(scaled_entropy(SUM_MAX), 0);
        assert_eq!(checked, 2 * ENTROPY_SCALE);
    }
}
