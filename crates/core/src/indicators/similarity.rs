//! Primary indicator 2: similarity measurement (paper §III-B).
//!
//! "Given the similarity hash of the previous version of a file, a
//! comparison with the hash of the encrypted version of that file should
//! yield no match, since the ciphertext should be indistinguishable from
//! random data."
//!
//! The indicator abstains — contributes nothing either way — when sdhash
//! cannot characterize one of the versions:
//!
//! * inputs under 512 bytes produce no digest (the §V-C small-file gap
//!   that let CTB-Locker encrypt 26 tiny files before union detection);
//! * featureless inputs (constant bytes) produce no digest;
//! * a pre-image that is itself near-ciphertext entropy (compressed
//!   formats like `.docx`) makes the comparison uninformative — two
//!   high-entropy blobs always score ~0, so a 0 would penalize benign
//!   rewrites of compressed documents (this is why the paper's
//!   ImageMagick/Excel runs do not accumulate similarity points).

use cryptodrop_simhash::SdDigest;

/// The outcome of a similarity comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimilarityOutcome {
    /// The new content is dissimilar from the pre-image — the ransomware
    /// signature. Carries the 0–100 sdhash score.
    Dissimilar(u32),
    /// The new content still resembles the pre-image (an ordinary edit).
    Similar(u32),
    /// The comparison is uninformative and the indicator abstains.
    Abstain(AbstainReason),
}

/// Why the similarity indicator abstained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstainReason {
    /// No digest of the pre-image (too small or featureless).
    NoPreImageDigest,
    /// No digest of the new content (too small or featureless).
    NoPostImageDigest,
    /// The pre-image is itself near-random (already-compressed format).
    HighEntropySource,
}

impl SimilarityOutcome {
    /// Returns `true` when the indicator fired (dissimilarity detected).
    pub fn fired(&self) -> bool {
        matches!(self, SimilarityOutcome::Dissimilar(_))
    }
}

/// Compares a snapshot digest against new content.
///
/// * `pre_digest` — the pre-image's sdhash digest, if one existed.
/// * `pre_entropy` — the pre-image's whole-file Shannon entropy.
/// * `post` — the file's new content.
/// * `match_max` — scores at or below this count as dissimilar.
/// * `max_source_entropy` — abstain above this pre-image entropy.
pub fn evaluate(
    pre_digest: Option<&SdDigest>,
    pre_entropy: f64,
    post: &[u8],
    match_max: u32,
    max_source_entropy: f64,
) -> SimilarityOutcome {
    let Some(pre) = pre_digest else {
        return SimilarityOutcome::Abstain(AbstainReason::NoPreImageDigest);
    };
    if pre_entropy > max_source_entropy {
        return SimilarityOutcome::Abstain(AbstainReason::HighEntropySource);
    }
    let Some(post_digest) = SdDigest::compute(post) else {
        return SimilarityOutcome::Abstain(AbstainReason::NoPostImageDigest);
    };
    let score = pre.similarity(&post_digest);
    if score <= match_max {
        SimilarityOutcome::Dissimilar(score)
    } else {
        SimilarityOutcome::Similar(score)
    }
}

/// [`evaluate`] against a post-image digest the caller already computed
/// (e.g. incrementally from dirty extents). Produces exactly the outcome
/// [`evaluate`] would if `post_digest` equals what `SdDigest::compute`
/// yields over the post content — the abstain ladder is identical.
pub fn evaluate_precomputed(
    pre_digest: Option<&SdDigest>,
    pre_entropy: f64,
    post_digest: Option<&SdDigest>,
    match_max: u32,
    max_source_entropy: f64,
) -> SimilarityOutcome {
    let Some(pre) = pre_digest else {
        return SimilarityOutcome::Abstain(AbstainReason::NoPreImageDigest);
    };
    if pre_entropy > max_source_entropy {
        return SimilarityOutcome::Abstain(AbstainReason::HighEntropySource);
    }
    let Some(post) = post_digest else {
        return SimilarityOutcome::Abstain(AbstainReason::NoPostImageDigest);
    };
    let score = pre.similarity(post);
    if score <= match_max {
        SimilarityOutcome::Dissimilar(score)
    } else {
        SimilarityOutcome::Similar(score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(n: usize) -> Vec<u8> {
        (0..)
            .flat_map(|i| format!("sentence number {i} of the document body\n").into_bytes())
            .take(n)
            .collect()
    }

    fn encrypt(data: &[u8]) -> Vec<u8> {
        let mut s: u64 = 0x12345;
        data.iter()
            .map(|b| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                b ^ (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn encryption_is_dissimilar() {
        let plain = text(4096);
        let digest = SdDigest::compute(&plain).unwrap();
        let out = evaluate(Some(&digest), 4.3, &encrypt(&plain), 10, 7.5);
        assert!(out.fired(), "got {out:?}");
    }

    #[test]
    fn ordinary_edit_is_similar() {
        let plain = text(4096);
        let digest = SdDigest::compute(&plain).unwrap();
        let mut edited = plain.clone();
        edited.extend_from_slice(b"one more closing sentence\n");
        let out = evaluate(Some(&digest), 4.3, &edited, 10, 7.5);
        assert!(matches!(out, SimilarityOutcome::Similar(s) if s > 10), "got {out:?}");
    }

    #[test]
    fn abstains_without_pre_image_digest() {
        let out = evaluate(None, 4.0, &text(4096), 10, 7.5);
        assert_eq!(out, SimilarityOutcome::Abstain(AbstainReason::NoPreImageDigest));
        assert!(!out.fired());
    }

    #[test]
    fn abstains_on_high_entropy_source() {
        // A .docx-like pre-image: digest exists but entropy ~7.9.
        let plain = text(4096);
        let digest = SdDigest::compute(&plain).unwrap();
        let out = evaluate(Some(&digest), 7.9, &encrypt(&plain), 10, 7.5);
        assert_eq!(out, SimilarityOutcome::Abstain(AbstainReason::HighEntropySource));
    }

    #[test]
    fn abstains_on_tiny_post_image() {
        let plain = text(4096);
        let digest = SdDigest::compute(&plain).unwrap();
        let out = evaluate(Some(&digest), 4.3, b"tiny", 10, 7.5);
        assert_eq!(out, SimilarityOutcome::Abstain(AbstainReason::NoPostImageDigest));
    }

    #[test]
    fn threshold_is_inclusive() {
        // Construct a comparison that yields score 0 and check the boundary
        // logic via match_max = 0.
        let plain = text(8192);
        let digest = SdDigest::compute(&plain).unwrap();
        let out = evaluate(Some(&digest), 4.3, &encrypt(&plain), 0, 7.5);
        // Score may be 0 (fires at match_max=0) or slightly above (doesn't).
        match out {
            SimilarityOutcome::Dissimilar(s) => assert_eq!(s, 0),
            SimilarityOutcome::Similar(s) => assert!(s > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
