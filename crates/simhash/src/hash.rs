//! Hash primitives used by the similarity digests.
//!
//! Everything here is implemented from scratch (the reproduction mandate
//! includes substrates): a compact SHA-1 for feature hashing — sdhash hashes
//! each selected 64-byte feature with SHA-1 and uses the five 32-bit words
//! to index its Bloom filters — plus FNV-1a and the rolling hash used by the
//! CTPH (ssdeep-style) digest.
//!
//! SHA-1 is used here as a *fingerprint*, exactly as sdhash uses it; its
//! cryptographic weaknesses are irrelevant to similarity digests.

/// The SHA-1 initial state.
const SHA1_INIT: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Computes the SHA-1 digest of `data` as five big-endian 32-bit words.
///
/// Full blocks are hashed in place and the padded tail on the stack, so
/// hashing allocates nothing.
///
/// # Examples
///
/// ```
/// use cryptodrop_simhash::hash::sha1_words;
///
/// let words = sha1_words(b"abc");
/// assert_eq!(words[0], 0xa9993e36);
/// ```
pub fn sha1_words(data: &[u8]) -> [u32; 5] {
    let mut h = SHA1_INIT;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, &schedule(block));
    }
    // Message padding: the tail, 0x80, zeros, 64-bit big-endian bit
    // length — two blocks when the tail leaves no room for the length.
    let tail = blocks.remainder();
    let mut pad = [0u8; 128];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let padded = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
    for block in pad[..padded].chunks_exact(64) {
        compress(&mut h, &schedule(block));
    }
    h
}

/// [`sha1_words`] of one 64-byte block, an sdhash feature. The padding
/// block of a 64-byte message never changes, so its schedule is a
/// constant.
pub(crate) fn sha1_64(block: &[u8; 64]) -> [u32; 5] {
    const PAD_64: [u32; 80] = {
        let mut w = [0u32; 80];
        w[0] = 0x8000_0000;
        w[15] = 512;
        let mut i = 16;
        while i < 80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
            i += 1;
        }
        w
    };
    let mut h = SHA1_INIT;
    compress(&mut h, &schedule(block));
    compress(&mut h, &PAD_64);
    h
}

/// The 80-word message schedule of one 64-byte block.
fn schedule(block: &[u8]) -> [u32; 80] {
    let mut w = [0u32; 80];
    for (wi, word) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    w
}

/// The 80 rounds of the SHA-1 compression function over the scheduled
/// block `w`, added into the state `h`: four stages of 20 rounds, each
/// with its own round function and constant.
fn compress(h: &mut [u32; 5], w: &[u32; 80]) {
    let mut s = *h;
    stage(&mut s, w, 0x5A827999, |b, c, d| (b & c) | (!b & d));
    stage(&mut s, &w[20..], 0x6ED9EBA1, |b, c, d| b ^ c ^ d);
    stage(&mut s, &w[40..], 0x8F1BBCDC, |b, c, d| b & c | d & (b | c));
    stage(&mut s, &w[60..], 0xCA62C1D6, |b, c, d| b ^ c ^ d);
    for (hi, v) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(v);
    }
}

/// Twenty SHA-1 rounds on the state `[a, b, c, d, e]`, over the first 20
/// words of `w`, with the stage's function `f` and constant `k`.
fn stage(s: &mut [u32; 5], w: &[u32], k: u32, f: impl Fn(u32, u32, u32) -> u32) {
    for &wi in &w[..20] {
        let [a, b, c, d, e] = *s;
        let t = a.rotate_left(5).wrapping_add(f(b, c, d)).wrapping_add(e);
        let t = t.wrapping_add(k).wrapping_add(wi);
        *s = [t, a, b.rotate_left(30), c, d];
    }
}

/// The SHA-1 digest as a lowercase hex string (for tests and reports).
pub fn sha1_hex(data: &[u8]) -> String {
    sha1_words(data)
        .iter()
        .map(|w| format!("{w:08x}"))
        .collect()
}

/// 64-bit FNV-1a, used as the piecewise hash by the CTPH digest.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The ssdeep-style rolling hash: a window of the last 7 bytes whose value
/// changes cheaply as the window slides, used to pick content-defined
/// trigger points.
#[derive(Debug, Clone, Default)]
pub struct RollingHash {
    window: [u8; Self::WINDOW],
    pos: usize,
    h1: u32,
    h2: u32,
    h3: u32,
}

impl RollingHash {
    /// The rolling window size, as in ssdeep.
    pub const WINDOW: usize = 7;

    /// Creates an empty rolling hash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slides one byte into the window and returns the updated hash value.
    pub fn roll(&mut self, byte: u8) -> u32 {
        let out = self.window[self.pos % Self::WINDOW];
        self.h2 = self
            .h2
            .wrapping_sub(self.h1)
            .wrapping_add(Self::WINDOW as u32 * byte as u32);
        self.h1 = self.h1.wrapping_add(byte as u32).wrapping_sub(out as u32);
        self.window[self.pos % Self::WINDOW] = byte;
        self.pos += 1;
        self.h3 = (self.h3 << 5) ^ (byte as u32);
        self.h1.wrapping_add(self.h2).wrapping_add(self.h3)
    }

    /// Resets to the empty state.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha1_known_vectors() {
        // FIPS 180-1 test vectors.
        assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        let a_million: Vec<u8> = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1_hex(&a_million),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn sha1_padding_boundaries() {
        // Lengths straddling the 55/56/64-byte padding edges, over bytes
        // (7i + 3) mod 256. Expected digests from Python's hashlib:
        // hashlib.sha1(bytes((i * 7 + 3) % 256 for i in range(n))).
        let expected = [
            (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (1, "9842926af7ca0a8cca12604f945414f07b01e13d"),
            (55, "ddf57317ef34bfee3b6df83d359098930eb278bc"),
            (56, "a0d492bb0fc889d0eca3bc137066ab6f4f74f369"),
            (63, "c55856749bef509bdfe6bfebfc7bf4e793e82132"),
            (64, "bede92be29c3874e1b54ddc77988d606fc857a8e"),
            (65, "b05a80522b053d6dc7e0a517d0e70212c7dad11f"),
            (119, "504e27376a6e0f0dba8295b85cb25dc4dfa17d23"),
            (120, "82134b02fb3f702491be9bed581eeab59334acb2"),
            (128, "a09133e6730ffe899efb70204cb5646cd5dc24ee"),
            (1000, "4231a8a50a10fa9758db8ec71fdef855b751048a"),
        ];
        for (len, hex) in expected {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(sha1_hex(&data), hex, "{len} bytes");
        }
    }

    #[test]
    fn sha1_64_matches_the_general_path() {
        let mut s = 0x5EED_u64;
        for _ in 0..200 {
            let block: [u8; 64] = std::array::from_fn(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            });
            assert_eq!(sha1_64(&block), sha1_words(&block));
        }
    }

    #[test]
    fn fnv_distinguishes_and_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"hello"), fnv1a(b"hello"));
    }

    #[test]
    fn rolling_hash_is_windowed() {
        // After the window fills, the hash of the same trailing 7 bytes
        // differs only through h3's shift history; verify the additive parts
        // (h1) depend only on the window.
        let mut r1 = RollingHash::new();
        for b in b"XXXXXXXabcdefg" {
            r1.roll(*b);
        }
        let mut r2 = RollingHash::new();
        for b in b"YYYYYYYabcdefg" {
            r2.roll(*b);
        }
        // h1 component equality is not directly observable; assert instead
        // that rolling is deterministic and sensitive to recent bytes.
        let mut r3 = RollingHash::new();
        let mut last3 = 0;
        for b in b"XXXXXXXabcdefg" {
            last3 = r3.roll(*b);
        }
        let mut r4 = RollingHash::new();
        let mut last4 = 0;
        for b in b"XXXXXXXabcdefh" {
            last4 = r4.roll(*b);
        }
        assert_ne!(last3, last4);
        let mut r5 = RollingHash::new();
        let mut last5 = 0;
        for b in b"XXXXXXXabcdefg" {
            last5 = r5.roll(*b);
        }
        assert_eq!(last3, last5);
    }

    #[test]
    fn rolling_hash_reset() {
        let mut r = RollingHash::new();
        let first = r.roll(42);
        r.roll(17);
        r.reset();
        assert_eq!(r.roll(42), first);
    }
}
