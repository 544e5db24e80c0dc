//! Cheap 64-bit content fingerprints.
//!
//! Recovery dedups shadow blobs by fingerprint, the fleet's shared corpus
//! keys its copy-on-write blobs by it, and the experiments audit restored
//! files against pre-attack fingerprints. (The analysis engine keys its
//! snapshot cache by the VFS content stamp instead, which the VFS keeps
//! current on every write.)
//!
//! The fingerprint is FNV-1a over the full content with the length folded
//! in, finished with an avalanche mix. It is **not** cryptographic: an
//! adversary who can engineer a 64-bit collision could make two distinct
//! contents look identical to a fingerprint comparison.

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Computes the 64-bit content fingerprint of `data`.
///
/// Equal contents always produce equal fingerprints; distinct contents
/// (including distinct contents of the same length) produce distinct
/// fingerprints except with probability ~2⁻⁶⁴.
///
/// # Examples
///
/// ```
/// use cryptodrop_simhash::content_fingerprint;
///
/// let a = content_fingerprint(b"the report, v1");
/// let b = content_fingerprint(b"the report, v2");
/// assert_ne!(a, b);
/// assert_eq!(a, content_fingerprint(b"the report, v1"));
/// ```
pub fn content_fingerprint(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    finish_fingerprint(h, data.len() as u64)
}

/// Folds the content length into a raw FNV-1a state and applies a final
/// avalanche mix (splitmix64 finalizer), so short inputs still spread
/// across all 64 bits.
///
/// Exposed so a caller already making a pass over the bytes (e.g. a
/// histogram build) can maintain the FNV state itself and finish it here
/// without a second traversal.
pub fn finish_fingerprint(raw_fnv: u64, len: u64) -> u64 {
    let mut h = raw_fnv ^ len.wrapping_mul(FNV_PRIME);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The FNV-1a constants, exposed for fused implementations that fold
/// bytes themselves (offset basis, prime).
pub const FNV1A: (u64, u64) = (FNV_OFFSET, FNV_PRIME);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(content_fingerprint(b"abc"), content_fingerprint(b"abc"));
        assert_eq!(content_fingerprint(b""), content_fingerprint(b""));
    }

    #[test]
    fn distinct_contents_distinct_fingerprints() {
        assert_ne!(content_fingerprint(b"abc"), content_fingerprint(b"abd"));
        assert_ne!(content_fingerprint(b"abc"), content_fingerprint(b"acb"));
        assert_ne!(content_fingerprint(b""), content_fingerprint(b"\0"));
    }

    #[test]
    fn length_is_significant() {
        // Same FNV byte stream prefix, different lengths.
        assert_ne!(content_fingerprint(b"aa"), content_fingerprint(b"aaa"));
        assert_ne!(content_fingerprint(&[0u8; 16]), content_fingerprint(&[0u8; 17]));
    }

    #[test]
    fn single_bit_flips_spread() {
        // Every single-bit flip of a small buffer changes the fingerprint.
        let base = b"fingerprint avalanche probe".to_vec();
        let fp = content_fingerprint(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fp, content_fingerprint(&flipped), "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn manual_fold_matches() {
        let data = b"fold parity";
        let (offset, prime) = FNV1A;
        let mut h = offset;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(prime);
        }
        assert_eq!(
            finish_fingerprint(h, data.len() as u64),
            content_fingerprint(data)
        );
    }
}
