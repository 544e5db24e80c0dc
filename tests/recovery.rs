//! End-to-end recovery ("Drop It") tests: attack replay with rollback,
//! shadow budget accounting, and the restore-after-suspension property
//! under randomized attacker/benign interleavings both inline and on the
//! async pipeline, with a roomy and a starved shadow budget.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cryptodrop::{CryptoDrop, PipelineConfig, RecoveryConflict, Session, ShadowConfig};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::{paper_sample_set, Family};
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{
    Handle, OpenOptions, ProcessId, VPath, Vfs, VfsResult, Workload, WorkloadCtx,
};

/// The full filesystem contents, for byte-for-byte comparisons.
fn state_of(fs: &mut Vfs) -> BTreeMap<VPath, Vec<u8>> {
    fs.admin()
        .files()
        .map(|(p, d)| (p.clone(), d.to_vec()))
        .collect()
}

// ---------------------------------------------------------------------
// E2E attack replay
// ---------------------------------------------------------------------

/// The acceptance scenario: a real sample encrypts part of the corpus, a
/// benign process keeps writing throughout, the engine suspends the
/// sample, and `restore` returns every file the suspect modified to its
/// pre-attack bytes — verified by fingerprint AND content — while the
/// benign process's writes are preserved.
#[test]
fn attack_replay_restores_pre_attack_bytes() {
    let corpus = Corpus::generate(&CorpusSpec::sized(400, 40));
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();

    // A benign process edits two corpus files before the attack: the
    // edited bytes (not the originals) are the pre-attack truth.
    let benign = fs.spawn_process("editor.exe");
    let edited: Vec<VPath> = corpus.files().iter().take(2).map(|f| f.path.clone()).collect();
    for path in &edited {
        fs.admin().set_read_only(path, false).unwrap();
        fs.write_file(benign, path, b"benign edit, pre-attack")
            .unwrap();
    }
    let before = state_of(&mut fs);

    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .recovery(ShadowConfig::default())
        .build()
        .unwrap();
    session.attach(&mut fs);

    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == Family::TeslaCrypt)
        .unwrap();
    let ctx = WorkloadCtx::spawn(&mut fs, &sample, corpus.root(), sample.seed());
    let outcome = sample.drive(&mut fs, &ctx);
    assert!(!outcome.completed, "sample must be suspended mid-attack");
    let report = session.detection_for(ctx.pid()).expect("sample detected");
    assert!(report.files_lost > 0, "the attack destroyed something");

    // Benign writes keep landing after the suspension, before recovery.
    let benign_late = corpus.root().join("benign-late.txt");
    fs.write_file(benign, &benign_late, b"written after suspension")
        .unwrap();

    let recovery = session
        .restore(&mut fs, report.pid)
        .expect("recovery enabled");
    assert!(recovery.files_restored > 0);
    assert!(recovery.conflicts.is_empty(), "{:?}", recovery.conflicts);

    // Fingerprint verification of everything the rollback wrote.
    {
        let admin = fs.admin();
        for (path, fp) in &recovery.restored_files {
            let bytes = admin.read_file(path).expect("restored file exists");
            assert_eq!(content_fingerprint(&bytes), *fp, "fingerprint of {path}");
        }
    }

    // Content verification: pre-attack state plus the late benign write,
    // nothing else (droppings removed, renames undone).
    let mut expected = before;
    expected.insert(benign_late, b"written after suspension".to_vec());
    let after = state_of(&mut fs);
    assert_eq!(after.len(), expected.len(), "file sets differ");
    for (path, bytes) in &expected {
        assert_eq!(
            after.get(path).map(|b| b.as_slice()),
            Some(bytes.as_slice()),
            "content of {path}"
        );
    }
}

/// The byte budget is respected: captures beyond it are evicted (or pin
/// overflows are counted when reputation pins everything), and the
/// `CacheStats`-style counters expose both.
#[test]
fn shadow_budget_is_respected_with_visible_evictions() {
    let corpus = Corpus::generate(&CorpusSpec::sized(200, 20));
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();

    let budget = 16 * 1024; // far below the corpus working set
    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .recovery(ShadowConfig::with_budget(budget as u64))
        .build()
        .unwrap();
    session.attach(&mut fs);

    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == Family::CryptoWall)
        .unwrap();
    cryptodrop_vfs::drive_workload(&mut fs, &sample, corpus.root(), sample.seed());

    let stats = session.shadow_store().unwrap().stats();
    assert!(stats.captures > 0, "the attack was shadowed");
    assert!(
        stats.evictions > 0 || stats.pin_overflows > 0,
        "a 16 KiB budget must either evict or overflow pins: {stats:?}"
    );
    assert!(
        stats.bytes_held <= budget as u64 || stats.pin_overflows > 0,
        "budget exceeded without a pin overflow: {stats:?}"
    );
}

/// A session built with a zero shadow budget is rejected up front.
#[test]
fn zero_shadow_budget_is_a_config_error() {
    let err = match CryptoDrop::builder()
        .protecting("/docs")
        .recovery(ShadowConfig::with_budget(0))
        .build()
    {
        Err(e) => e,
        Ok(_) => panic!("zero budget must be rejected"),
    };
    assert_eq!(err, cryptodrop::ConfigError::ZeroShadowBudget);
}

// ---------------------------------------------------------------------
// Restore-after-suspension property
// ---------------------------------------------------------------------

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SHARED: usize = 10; // attacker encrypts, benign edits
const ATTACKER_ONLY: usize = 10; // attacker may also rename/delete
const BENIGN_ONLY: usize = 5;

fn seed_files(fs: &mut Vfs) -> Vec<VPath> {
    let mut paths = Vec::new();
    for i in 0..SHARED + ATTACKER_ONLY + BENIGN_ONLY {
        let path = VPath::new(format!("/docs/f{i}.txt"));
        let body: Vec<u8> = (0..40u32)
            .flat_map(|l| format!("file {i} line {l}: ordinary prose\n").into_bytes())
            .collect();
        fs.admin().write_file(&path, &body).unwrap();
        paths.push(path);
    }
    paths
}

fn high_entropy(rng: &mut XorShift, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next() >> 32) as u8).collect()
}

/// A benign revision: the original content with a small edit stamped at
/// the front, so the rewrite stays similar to the snapshot and never
/// looks like a transformation to the engine.
fn benign_body(original: &[u8], n: u64) -> Vec<u8> {
    let mut body = original.to_vec();
    let tag = format!("rev {:06} ", n % 1_000_000);
    let end = tag.len().min(body.len());
    body[..end].copy_from_slice(&tag.as_bytes()[..end]);
    body
}

/// Writes `body` through `h` in 256-byte chunks, so one open makes
/// several shadow captures: the truncating open's, then one per chunk.
fn write_chunks(fs: &mut Vfs, pid: ProcessId, h: Handle, body: &[u8]) -> VfsResult<()> {
    body.chunks(256)
        .try_for_each(|chunk| fs.write(pid, h, chunk).map(|_| ()))
}

/// What one interleaving left behind after reconcile + restore.
struct Outcome {
    /// The filesystem contents.
    state: BTreeMap<VPath, Vec<u8>>,
    /// Paths whose last destructive writer was the benign process.
    benign_last: BTreeSet<VPath>,
    /// Paths of the files recovery reported as `ShadowEvicted`: both the
    /// path named in the conflict and the file's seeded path.
    evicted: BTreeSet<VPath>,
    /// Shadow-store evictions during the run.
    evictions: u64,
}

/// Runs one randomized interleaving inline (`pipeline: None`) or on the
/// given async pipeline, under the given shadow budget.
fn run_interleaving(seed: u64, pipeline: Option<PipelineConfig>, shadow: ShadowConfig) -> Outcome {
    let mut fs = Vfs::new();
    let paths = seed_files(&mut fs);
    let seeded: HashMap<_, _> = paths
        .iter()
        .map(|p| (fs.admin().metadata(p).unwrap().file.unwrap(), p.clone()))
        .collect();
    let mut builder = CryptoDrop::builder().protecting("/docs").recovery(shadow);
    if let Some(pcfg) = pipeline {
        builder = builder.pipeline_config(pcfg);
    }
    let session: Session = builder.build().unwrap();
    session.attach(&mut fs);

    let originals = state_of(&mut fs);
    let attacker = fs.spawn_process("locker.exe");
    let benign = fs.spawn_process("writer.exe");
    let mut rng = XorShift(seed | 1);
    // Current location of each attacker-only file (renames move them).
    let mut located: Vec<VPath> = paths[SHARED..SHARED + ATTACKER_ONLY].to_vec();
    let mut droppings = 0u32;
    let mut benign_last = BTreeSet::new();

    for _ in 0..120 {
        if rng.below(2) == 0 {
            // Attacker move. Failures (post-suspension) are expected.
            match rng.below(10) {
                0..=5 => {
                    // Encrypt-write a shared or attacker-only file.
                    let k = rng.below(SHARED + ATTACKER_ONLY);
                    let target = if k < SHARED {
                        paths[k].clone()
                    } else {
                        located[k - SHARED].clone()
                    };
                    let body = high_entropy(&mut rng, 600);
                    if let Ok(h) = fs.open(attacker, &target, OpenOptions::create()) {
                        // The truncating open already destroyed the
                        // content, whatever becomes of the chunk writes.
                        benign_last.remove(&target);
                        let _ = write_chunks(&mut fs, attacker, h, &body);
                        let _ = fs.close(attacker, h);
                    }
                }
                6..=7 => {
                    let k = rng.below(ATTACKER_ONLY);
                    let _ = fs.delete(attacker, &located[k]);
                }
                8 => {
                    let k = rng.below(ATTACKER_ONLY);
                    let from = located[k].clone();
                    let to = VPath::new(format!("{from}.lock{}", rng.next() % 1000));
                    if fs.rename(attacker, &from, &to, false).is_ok() {
                        located[k] = to;
                    }
                }
                _ => {
                    droppings += 1;
                    let note = VPath::new(format!("/docs/README-{droppings}.hta"));
                    let _ = fs.write_file(attacker, &note, b"send bitcoin");
                }
            }
        } else {
            // Benign write to a shared or benign-only file, by its
            // original path. Never fails.
            let k = rng.below(SHARED + BENIGN_ONLY);
            let target = if k < SHARED {
                &paths[k]
            } else {
                &paths[SHARED + ATTACKER_ONLY + (k - SHARED)]
            };
            let body = benign_body(&originals[target], rng.next());
            let h = fs.open(benign, target, OpenOptions::create()).unwrap();
            write_chunks(&mut fs, benign, h, &body).unwrap();
            fs.close(benign, h).unwrap();
            benign_last.insert(target.clone());
        }
    }

    session.reconcile(&mut fs);
    let report = session
        .restore(&mut fs, attacker)
        .expect("recovery enabled");
    let mut evicted = BTreeSet::new();
    for conflict in &report.conflicts {
        if let RecoveryConflict::ShadowEvicted { file, path } = conflict {
            evicted.insert(path.clone());
            evicted.extend(seeded.get(file).cloned());
        }
    }
    Outcome {
        state: state_of(&mut fs),
        benign_last,
        evicted,
        evictions: session.shadow_store().unwrap().stats().evictions,
    }
}

/// Replays the same interleaving against a plain model: per path, the
/// expected post-restore content is the last benign write to that path,
/// or the original bytes when no benign process ever wrote it.
fn model_expectation(seed: u64) -> BTreeMap<VPath, Vec<u8>> {
    let mut fs = Vfs::new();
    let paths = seed_files(&mut fs);
    let originals = state_of(&mut fs);
    let mut expected = originals.clone();
    let mut rng = XorShift(seed | 1);
    for _ in 0..120 {
        if rng.below(2) == 0 {
            // Attacker moves draw from the RNG but leave no trace in the
            // model: everything they do is rolled back.
            match rng.below(10) {
                0..=5 => {
                    rng.below(SHARED + ATTACKER_ONLY);
                    high_entropy(&mut rng, 600);
                }
                6..=7 => {
                    rng.below(ATTACKER_ONLY);
                }
                8 => {
                    rng.below(ATTACKER_ONLY);
                    rng.next();
                }
                _ => {}
            }
        } else {
            let k = rng.below(SHARED + BENIGN_ONLY);
            let target = if k < SHARED {
                &paths[k]
            } else {
                &paths[SHARED + ATTACKER_ONLY + (k - SHARED)]
            };
            let body = benign_body(&originals[target], rng.next());
            expected.insert(target.clone(), body);
        }
    }
    expected
}

/// Property: after suspension + restore, the filesystem is byte-identical
/// to the model both inline and on the async pipeline, for randomized
/// attacker/benign interleavings — detection latency (inline verdict vs
/// deferred reconcile) must not change the recovered state.
///
/// With a starved shadow budget, eviction may cost the attacker's restore
/// points but never a benign write: every path a benign process wrote
/// last still matches the model, and every other path either matches it
/// or is reported as a `ShadowEvicted` conflict.
#[test]
fn restore_after_suspension_is_byte_identical_across_modes() {
    let (mut starved_evictions, mut starved_conflicts) = (0, 0);
    for seed in [3, 7, 0x5EED, 0xBEEF, 0xCAFE, 91, 2024, 0xD00D] {
        let expected = model_expectation(seed);
        for pipeline in [None, Some(PipelineConfig::default())] {
            let mode = if pipeline.is_some() { "async" } else { "inline" };
            let roomy = run_interleaving(seed, pipeline, ShadowConfig::default());
            assert_eq!(
                roomy.state, expected,
                "seed {seed:#x}: {mode} state diverged from the model"
            );

            let starved = run_interleaving(seed, pipeline, ShadowConfig::with_budget(4 * 1024));
            starved_evictions += starved.evictions;
            starved_conflicts += starved.evicted.len();
            let paths: BTreeSet<&VPath> = expected.keys().chain(starved.state.keys()).collect();
            for path in paths {
                let got = starved.state.get(path);
                let want = expected.get(path);
                if starved.benign_last.contains(path) {
                    assert_eq!(
                        got, want,
                        "seed {seed:#x}: {mode} lost the benign bytes of {path}"
                    );
                } else {
                    assert!(
                        got == want || starved.evicted.contains(path),
                        "seed {seed:#x}: {mode} left {path} wrong \
                         without a ShadowEvicted conflict"
                    );
                }
            }
        }
    }
    assert!(starved_evictions > 0, "the starved budget must evict");
    assert!(starved_conflicts > 0, "and cost some restores");
}
