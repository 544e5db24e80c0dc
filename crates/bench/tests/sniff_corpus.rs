//! `sniff` equals the naive reference sniffer over generated corpora: six
//! seeds of the default type mix, each file whole, cut around the 8 KiB
//! text window, stream-encrypted, and mutated. The reference lives with
//! the sniff crate's tests; this target sees both the sniffer and the
//! corpus generator, which depends on the sniffer and so cannot be its
//! dev-dependency.

#[path = "../../sniff/tests/reference/mod.rs"]
mod reference;

use std::collections::BTreeSet;

use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_sniff::{sniff, FileType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Prefix lengths: tiny heads, and the 8 KiB text window with a UTF-8
/// BOM's three bytes on either side.
const CUTS: [usize; 9] = [1, 3, 64, 8189, 8191, 8192, 8193, 8195, 8196];

/// The variants of one corpus file the sweep sniffs.
fn variants(data: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = vec![data.to_vec()];
    out.extend(
        CUTS.iter()
            .filter(|&&n| n < data.len())
            .map(|&n| data[..n].to_vec()),
    );
    // Stream-encrypted: every byte XORed with a keystream byte.
    out.push(data.iter().map(|&b| b ^ rng.gen::<u8>()).collect());
    // Mutated: a few bytes overwritten, biased towards the bytes the text
    // and container heuristics branch on.
    let mut mutated = data.to_vec();
    for _ in 0..1 + data.len() / 2048 {
        let at = rng.gen_range(0..mutated.len());
        mutated[at] = match rng.gen_range(0..4) {
            0 => rng.gen(),
            1 => rng.gen_range(0..0x20),
            2 => 0xC2,
            _ => b'=',
        };
    }
    out.push(mutated);
    out
}

#[test]
fn sniff_matches_the_reference_over_six_corpus_seeds() {
    let mut types = BTreeSet::new();
    let mut checked = 0usize;
    for seed in 1..=6u64 {
        let corpus = Corpus::generate(&CorpusSpec {
            seed,
            ..CorpusSpec::sized(120, 12)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        for file in corpus.files().iter().filter(|f| !f.data.is_empty()) {
            for bytes in variants(&file.data, &mut rng) {
                let got = sniff(&bytes);
                assert_eq!(
                    got,
                    reference::sniff(&bytes),
                    "seed {seed}, {} cut to {} bytes",
                    file.path.as_str(),
                    bytes.len()
                );
                types.insert(got);
                checked += 1;
            }
        }
    }
    // The sweep reaches every text refinement and the data fallback.
    for t in [
        FileType::Html,
        FileType::Xml,
        FileType::Json,
        FileType::Csv,
        FileType::Utf8Text,
        FileType::Data,
    ] {
        assert!(types.contains(&t), "no {t:?} among {types:?}");
    }
    assert!(checked > 3000, "only {checked} inputs");
}
