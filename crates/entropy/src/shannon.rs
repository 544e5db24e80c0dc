//! Exact Shannon entropy of byte arrays.
//!
//! The paper (§III-C) defines the entropy of an array of bytes as
//!
//! ```text
//!         255
//!     e =  Σ  P(Bi) · log2(1 / P(Bi)),    P(Bi) = Fi / total_bytes
//!         i=0
//! ```
//!
//! where `Fi` is the number of occurrences of byte value `i`. The result
//! ranges from `0` (a single repeated byte value) to `8` (a perfectly even
//! distribution), and ciphertext is expected to approach the upper bound.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

/// `c · log2(c)` for every `u16` count, built once on first use.
///
/// The entropy fold `H = log2(N) − (Σ c·log2 c) / N` spends all its time in
/// the `n·log n` term; with the table the per-bucket work is one load and
/// one add — no `log2` call and no probability division — which is what
/// makes delta-updated histograms cheap enough for the per-close
/// incremental path.
static CLOG2_U16: OnceLock<Vec<f64>> = OnceLock::new();

fn clog2_table() -> &'static [f64] {
    CLOG2_U16.get_or_init(|| {
        let mut t = vec![0.0f64; 1 << 16];
        for (c, slot) in t.iter_mut().enumerate().skip(2) {
            *slot = c as f64 * (c as f64).log2();
        }
        t
    })
}

/// `n · log2(n)`, table-driven for `n < 65536` (0 for `n ≤ 1`).
///
/// Counts above the table fall back to the direct computation, so the
/// function is exact-to-f64 for every input.
#[inline]
pub fn clog2(n: u64) -> f64 {
    if n < (1 << 16) {
        clog2_table()[n as usize]
    } else {
        n as f64 * (n as f64).log2()
    }
}

/// A 256-bucket histogram of byte values supporting incremental updates.
///
/// The histogram is the reusable core behind both one-shot
/// [`shannon_entropy`] and the incremental [`StreamEntropy`] measurer: adding
/// or removing bytes is `O(n)` in the bytes touched, and entropy evaluation
/// is `O(256)`.
///
/// [`StreamEntropy`]: crate::stream::StreamEntropy
///
/// # Examples
///
/// ```
/// use cryptodrop_entropy::ByteHistogram;
///
/// let mut h = ByteHistogram::new();
/// h.add(b"aaaa");
/// assert_eq!(h.entropy(), 0.0);
/// h.add(b"bbbb");
/// assert_eq!(h.entropy(), 1.0); // two equiprobable symbols = 1 bit
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct ByteHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl ByteHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; 256],
            total: 0,
        }
    }

    /// Builds a histogram from a byte slice in one shot.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut h = Self::new();
        h.add(bytes);
        h
    }

    /// Adds every byte of `bytes` to the histogram.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.counts[b as usize] += 1;
        }
        self.total += bytes.len() as u64;
    }

    /// Adds a single byte to the histogram.
    pub fn add_byte(&mut self, byte: u8) {
        self.counts[byte as usize] += 1;
        self.total += 1;
    }

    /// Removes every byte of `bytes` from the histogram.
    ///
    /// # Panics
    ///
    /// Panics if a byte is removed more times than it was added; the
    /// histogram would otherwise silently hold a corrupt distribution.
    pub fn remove(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let c = &mut self.counts[b as usize];
            assert!(*c > 0, "removed byte {b:#04x} more times than added");
            *c -= 1;
        }
        self.total -= bytes.len() as u64;
    }

    /// The total number of bytes currently accounted for.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The number of occurrences of byte value `value`.
    pub fn count(&self, value: u8) -> u64 {
        self.counts[value as usize]
    }

    /// The number of distinct byte values present.
    pub fn distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Returns `true` if no bytes have been added.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The Shannon entropy of the histogram's distribution in bits/byte.
    ///
    /// Returns `0.0` for an empty histogram, matching the convention that an
    /// empty write carries no information (and the paper's weighting assigns
    /// it zero weight anyway).
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let mut e = 0.0;
        for &c in &self.counts {
            if c == 0 {
                continue;
            }
            let p = c as f64 / total;
            e -= p * p.log2();
        }
        // Clamp tiny negative rounding residue (e.g. single-symbol input).
        e.max(0.0)
    }

    /// The Shannon entropy via the [`clog2`] lookup table, in bits/byte.
    ///
    /// Computes `H = log2(N) − (Σ c·log2 c) / N` — algebraically identical
    /// to [`ByteHistogram::entropy`] but with a branch-free table fold in
    /// place of 256 `log2` calls, so it is the form the incremental
    /// (delta-updated) analysis path uses. The two agree to well within
    /// `1e-9` (they differ only in floating-point rounding order).
    pub fn entropy_lut(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let table = clog2_table();
        let mut s = 0.0f64;
        for &c in &self.counts {
            s += if c < (1 << 16) {
                table[c as usize]
            } else {
                c as f64 * (c as f64).log2()
            };
        }
        let total = self.total as f64;
        (total.log2() - s / total).max(0.0)
    }

    /// Delta-updates the histogram: removes the pre-image bytes of a dirty
    /// extent and adds the bytes now occupying it.
    ///
    /// The two slices need not be the same length (a tail extension has an
    /// empty pre-image). Equivalent to `remove(old)` + `add(new)`.
    ///
    /// # Panics
    ///
    /// Panics if a byte of `old` is removed more times than it was added
    /// (see [`ByteHistogram::remove`]).
    pub fn replace(&mut self, old: &[u8], new: &[u8]) {
        self.add(new);
        self.remove(old);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &ByteHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }
}

impl Default for ByteHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The LUT entropy of a byte slice, bit-identical to
/// `ByteHistogram::from_bytes(bytes).entropy_lut()` but computed on a
/// stack histogram — allocation-free, for per-operation hot paths and
/// the incremental-analysis assertion nets.
pub fn entropy_lut_of(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let table = clog2_table();
    let mut s = 0.0f64;
    for &c in &counts {
        s += if c < (1 << 16) {
            table[c as usize]
        } else {
            c as f64 * (c as f64).log2()
        };
    }
    let total = bytes.len() as f64;
    (total.log2() - s / total).max(0.0)
}

impl std::fmt::Debug for ByteHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteHistogram")
            .field("total", &self.total)
            .field("distinct", &self.distinct())
            .field("entropy", &self.entropy())
            .finish()
    }
}

impl PartialEq for ByteHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.counts == other.counts
    }
}

impl Eq for ByteHistogram {}

impl<'a> FromIterator<&'a u8> for ByteHistogram {
    fn from_iter<I: IntoIterator<Item = &'a u8>>(iter: I) -> Self {
        let mut h = ByteHistogram::new();
        for &b in iter {
            h.add_byte(b);
        }
        h
    }
}

impl Extend<u8> for ByteHistogram {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for b in iter {
            self.add_byte(b);
        }
    }
}

/// Computes the Shannon entropy of `bytes` in bits/byte (paper §III-C).
///
/// Returns a value in `[0, 8]`; `0.0` for empty input.
///
/// # Examples
///
/// ```
/// use cryptodrop_entropy::shannon_entropy;
///
/// assert_eq!(shannon_entropy(&[0u8; 128]), 0.0);
/// let all: Vec<u8> = (0..=255).collect();
/// assert!((shannon_entropy(&all) - 8.0).abs() < 1e-12);
/// ```
pub fn shannon_entropy(bytes: &[u8]) -> f64 {
    ByteHistogram::from_bytes(bytes).entropy()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert!(ByteHistogram::new().is_empty());
    }

    #[test]
    fn single_symbol_is_zero() {
        assert_eq!(shannon_entropy(&[0x41; 1000]), 0.0);
    }

    #[test]
    fn two_equiprobable_symbols_is_one_bit() {
        let mut data = vec![0u8; 512];
        data.extend(vec![255u8; 512]);
        assert!((shannon_entropy(&data) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_bytes_hit_upper_bound() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        assert!((shannon_entropy(&data) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn four_symbols_is_two_bits() {
        let data: Vec<u8> = [1u8, 2, 3, 4].iter().cycle().take(400).copied().collect();
        assert!((shannon_entropy(&data) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn english_text_is_mid_range() {
        let text = b"It was the best of times, it was the worst of times, it was \
                     the age of wisdom, it was the age of foolishness.";
        let e = shannon_entropy(text);
        assert!(e > 3.0 && e < 5.0, "got {e}");
    }

    #[test]
    fn histogram_incremental_matches_oneshot() {
        let a = b"hello ";
        let b = b"world";
        let mut h = ByteHistogram::new();
        h.add(a);
        h.add(b);
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(h.entropy(), shannon_entropy(&joined));
        assert_eq!(h.total(), joined.len() as u64);
    }

    #[test]
    fn histogram_remove_restores_state() {
        let base = b"the quick brown fox";
        let extra = b"0123456789abcdef";
        let mut h = ByteHistogram::from_bytes(base);
        let before = h.entropy();
        h.add(extra);
        h.remove(extra);
        assert_eq!(h.entropy(), before);
        assert_eq!(h, ByteHistogram::from_bytes(base));
    }

    #[test]
    #[should_panic(expected = "more times than added")]
    fn histogram_over_remove_panics() {
        let mut h = ByteHistogram::from_bytes(b"abc");
        h.remove(b"abcd");
    }

    #[test]
    fn histogram_merge_matches_concat() {
        let mut h1 = ByteHistogram::from_bytes(b"foo bar baz");
        let h2 = ByteHistogram::from_bytes(b"quux");
        h1.merge(&h2);
        assert_eq!(h1, ByteHistogram::from_bytes(b"foo bar bazquux"));
    }

    #[test]
    fn histogram_counts_and_distinct() {
        let h = ByteHistogram::from_bytes(b"aabbbc");
        assert_eq!(h.count(b'a'), 2);
        assert_eq!(h.count(b'b'), 3);
        assert_eq!(h.count(b'c'), 1);
        assert_eq!(h.count(b'z'), 0);
        assert_eq!(h.distinct(), 3);
    }

    #[test]
    fn histogram_from_iterator_and_extend() {
        let bytes = b"hello";
        let h: ByteHistogram = bytes.iter().collect();
        assert_eq!(h, ByteHistogram::from_bytes(bytes));
        let mut h2 = ByteHistogram::new();
        h2.extend(bytes.iter().copied());
        assert_eq!(h2, h);
    }

    #[test]
    fn debug_is_nonempty() {
        let h = ByteHistogram::new();
        assert!(!format!("{h:?}").is_empty());
    }

    #[test]
    fn clog2_table_matches_direct() {
        assert_eq!(clog2(0), 0.0);
        assert_eq!(clog2(1), 0.0);
        for n in [2u64, 3, 64, 255, 65535] {
            assert_eq!(clog2(n), n as f64 * (n as f64).log2());
        }
        // Above the table: direct fallback, still exact.
        let n = 1u64 << 20;
        assert_eq!(clog2(n), n as f64 * (n as f64).log2());
    }

    #[test]
    fn entropy_lut_matches_entropy() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x41; 1000],
            (0..=255u8).cycle().take(4096).collect(),
            b"It was the best of times, it was the worst of times.".to_vec(),
        ];
        for data in cases {
            let h = ByteHistogram::from_bytes(&data);
            assert!(
                (h.entropy_lut() - h.entropy()).abs() < 1e-9,
                "lut {} vs direct {}",
                h.entropy_lut(),
                h.entropy()
            );
        }
    }

    #[test]
    fn entropy_lut_of_is_bit_identical_to_histogram_lut() {
        let mut seed = 0xC0FF_EE00u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x41; 1000],
            (0..=255u8).cycle().take(4096).collect(),
        ];
        for _ in 0..20 {
            let len = next() as usize % 8192;
            cases.push((0..len).map(|_| next() as u8).collect());
        }
        for data in cases {
            // Exact equality: the stamp-reuse path substitutes one for
            // the other, so any rounding divergence is a verdict change.
            assert_eq!(
                entropy_lut_of(&data),
                ByteHistogram::from_bytes(&data).entropy_lut(),
                "stack fold diverged on {} bytes",
                data.len()
            );
        }
    }

    #[test]
    fn entropy_lut_handles_counts_beyond_table() {
        let mut h = ByteHistogram::new();
        // A count past the u16 table forces the direct fallback per bucket.
        for _ in 0..(1u64 << 16) + 7 {
            h.add_byte(0x00);
        }
        h.add(b"mixture");
        assert!((h.entropy_lut() - h.entropy()).abs() < 1e-9);
    }

    /// Property test: for random dirty-extent patterns, a delta-updated
    /// histogram's entropy equals `shannon_entropy` of the final bytes to
    /// within 1e-9 (the incremental-analysis equivalence the engine's
    /// close path relies on).
    #[test]
    fn delta_update_matches_full_recompute() {
        let mut seed = 0x9E37_79B9u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..50 {
            let len = 256 + (next() as usize % 4096);
            let mut data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut h = ByteHistogram::from_bytes(&data);
            // Apply 1..=8 random extent mutations, including tail growth.
            for _ in 0..1 + next() % 8 {
                let grow = next() % 4 == 0;
                if grow {
                    let added: Vec<u8> = (0..1 + next() as usize % 512).map(|_| next() as u8).collect();
                    h.replace(&[], &added);
                    data.extend_from_slice(&added);
                } else {
                    let start = next() as usize % data.len();
                    let end = (start + 1 + next() as usize % 256).min(data.len());
                    let fresh: Vec<u8> = (start..end).map(|_| next() as u8).collect();
                    let old = data[start..end].to_vec();
                    h.replace(&old, &fresh);
                    data[start..end].copy_from_slice(&fresh);
                }
            }
            let delta = h.entropy_lut();
            let full = shannon_entropy(&data);
            assert!(
                (delta - full).abs() < 1e-9,
                "case {case}: delta {delta} vs full {full}"
            );
            assert_eq!(h, ByteHistogram::from_bytes(&data), "counts must match exactly");
        }
    }
}
