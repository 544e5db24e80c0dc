//! Bench: the analysis primitives — Shannon entropy, sdhash vs CTPH
//! digesting and comparison (the paper's similarity-scheme choice), the
//! dirty-extent sdhash splice and the cold snapshot capture, type
//! sniffing (a magic hit, prose text and a docx), and the simulation
//! ciphers.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use cryptodrop::{Config, FileSnapshot};
use cryptodrop_entropy::shannon_entropy;
use cryptodrop_malware::cipher::{ChaCha20, Cipher, Rc4, XorCipher, XteaCbc};
use cryptodrop_simhash::{CtphDigest, SdDigest};
use cryptodrop_sniff::sniff;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let text = cryptodrop_corpus::gen::text::txt(&mut rng, 64 * 1024);
    let pdf = cryptodrop_corpus::gen::office::pdf(&mut rng, 64 * 1024);
    let text_16k = cryptodrop_corpus::gen::text::txt(&mut rng, 16 * 1024);
    let docx = cryptodrop_corpus::gen::office::docx(&mut rng, 20 * 1024);

    let mut group = c.benchmark_group("primitives");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("entropy/64k_text", |b| b.iter(|| shannon_entropy(&text)));
    group.bench_function("sniff/64k_pdf", |b| b.iter(|| sniff(&pdf)));
    // The slow paths a magic hit skips: the text heuristics over the 8 KiB
    // window of a prose file (funneling's first read, the tier-2/3 close),
    // and the member-name scans that refine a ZIP into a docx.
    group.throughput(Throughput::Bytes(text_16k.len() as u64));
    group.bench_function("sniff/16k_text", |b| b.iter(|| sniff(black_box(&text_16k))));
    group.throughput(Throughput::Bytes(docx.len() as u64));
    group.bench_function("sniff/docx_20k", |b| b.iter(|| sniff(black_box(&docx))));
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("sdhash/digest_64k", |b| b.iter(|| SdDigest::compute(&text)));
    let cipher_text = ChaCha20::from_seed(1).encrypt(&text);
    group.bench_function("sdhash/digest_64k_cipher", |b| {
        b.iter(|| SdDigest::compute(&cipher_text))
    });
    // The tier-2 close: a one-byte mid-file edit plus a 64-byte append,
    // spliced into the previous version's feature cache.
    let (_, features) = SdDigest::compute_with_cache(&text).unwrap();
    let mut edited = text.clone();
    let mid = edited.len() / 2;
    edited[mid] ^= 0x20;
    edited.extend_from_slice(&text[..64]);
    let dirty = [(mid, mid + 1), (text.len(), edited.len())];
    group.bench_function("sdhash/recompute_dirty_64k", |b| {
        b.iter(|| SdDigest::recompute_dirty(&features, &edited, &dirty))
    });
    // The cold capture behind every pre-open refresh and tier-3 close:
    // sniff, byte histogram and sdhash with its feature cache.
    let max_digest_bytes = Config::protecting("/").max_digest_bytes;
    group.bench_function("snapshot/capture_incremental_64k", |b| {
        b.iter(|| FileSnapshot::capture_incremental(&text, max_digest_bytes, 1, None))
    });
    group.bench_function("ctph/digest_64k", |b| b.iter(|| CtphDigest::compute(&text)));

    // The similarity-scheme ablation: comparison costs.
    let sd_a = SdDigest::compute(&text).unwrap();
    let sd_b = SdDigest::compute(&pdf).unwrap();
    let ct_a = CtphDigest::compute(&text);
    let ct_b = CtphDigest::compute(&pdf);
    group.bench_function("sdhash/compare", |b| b.iter(|| sd_a.similarity(&sd_b)));
    group.bench_function("ctph/compare", |b| b.iter(|| ct_a.similarity(&ct_b)));

    // Simulation ciphers.
    for (name, cipher) in [
        ("chacha20", Box::new(ChaCha20::from_seed(1)) as Box<dyn Cipher>),
        ("rc4", Box::new(Rc4::from_seed(1))),
        ("xor256", Box::new(XorCipher::from_seed(1, 256))),
        ("xtea_cbc", Box::new(XteaCbc::from_seed(1))),
    ] {
        group.bench_function(format!("cipher/{name}_64k"), |b| {
            b.iter(|| cipher.encrypt(&text))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
