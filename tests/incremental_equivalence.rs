//! Verdict equality for incremental analysis: replaying full attack
//! families with `Config::incremental_analysis` on vs off must produce
//! identical outcomes — same suspensions, same scores, same files lost.
//!
//! The incremental close path (stamp skip / dirty-extent delta / full
//! recompute) and the stamp-based entropy reuse on reads and writes are
//! pure optimizations; these replays are the end-to-end proof on top of
//! the per-close `debug_assert` equivalence nets and the entropy/sdhash
//! property tests.

use cryptodrop::{Config, CryptoDrop};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_experiments::runner::{run_sample, run_sample_with_telemetry, run_workload};
use cryptodrop_malware::paper_sample_set;
use cryptodrop_telemetry::Telemetry;
use cryptodrop_vfs::{OpenOptions, Vfs};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(500, 50))
}

fn config(corpus: &Corpus, incremental: bool) -> Config {
    let mut cfg = Config::protecting(corpus.root().as_str());
    cfg.incremental_analysis = incremental;
    cfg
}

/// One representative sample per (family, class): the whole Table I
/// behaviour space replayed under both analysis modes.
#[test]
fn attack_replays_are_verdict_identical_with_incremental_analysis() {
    let corpus = corpus();
    let on = config(&corpus, true);
    let off = config(&corpus, false);
    for sample in paper_sample_set().into_iter().filter(|s| s.index == 0) {
        let fast = run_sample(&corpus, &on, &sample);
        let reference = run_sample(&corpus, &off, &sample);
        assert_eq!(
            fast, reference,
            "{} #{}: incremental analysis changed the replay outcome",
            sample.family.name(), sample.id
        );
        assert!(
            reference.detected,
            "{} #{}: reference replay must detect",
            sample.family.name(), sample.id
        );
    }
}

/// Benign workloads must not change either: no new false positives, no
/// score drift.
#[test]
fn benign_replays_are_verdict_identical_with_incremental_analysis() {
    let corpus = corpus();
    let on = config(&corpus, true);
    let off = config(&corpus, false);
    for app in cryptodrop_benign::paper_apps() {
        let fast = run_workload(&corpus, &on, &app, 7);
        let reference = run_workload(&corpus, &off, &app, 7);
        assert_eq!(
            fast, reference,
            "{}: incremental analysis changed the benign outcome",
            app.name()
        );
    }
}

/// The incremental counters are observable through telemetry, and an
/// attack replay actually takes the incremental paths (a replay that
/// never skipped or delta-updated would mean the optimization is dead
/// code in exactly the workload it was built for).
#[test]
fn incremental_counters_are_observable() {
    let corpus = corpus();
    let cfg = config(&corpus, true);
    let sample = &paper_sample_set()[0];
    let telemetry = Telemetry::new(1 << 16);
    let (result, _) = run_sample_with_telemetry(&corpus, &cfg, sample, telemetry.clone());
    assert!(result.detected);

    let snap = telemetry.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let skips = counter("engine.incremental.stamp_skips");
    let delta = counter("engine.incremental.delta_applied");
    let full = counter("engine.incremental.full_recompute");
    assert!(
        skips + delta + full > 0,
        "incremental paths never engaged: skips {skips}, delta {delta}, full {full}"
    );
    assert!(
        full > 0,
        "an encrypting replay must force full recomputes somewhere"
    );
}

/// Each modified close takes exactly one analysis tier, so the three
/// close counters sum to the closes; entropy that reads and writes reuse
/// from a snapshot counts apart, in `engine.entropy.stamp_reuse`.
#[test]
fn close_tier_counters_count_each_modified_close_once() {
    let corpus = corpus();
    let session = CryptoDrop::builder()
        .config(config(&corpus, true))
        .telemetry(Telemetry::new(1 << 16))
        .build()
        .expect("valid config");
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("staging succeeds");
    fs.register_filter(Box::new(session.fork()));
    let pid = fs.spawn_process("editor.exe");
    let files: Vec<_> = corpus.files().iter().filter(|f| !f.read_only).take(20).collect();
    for f in &files {
        let h = fs.open(pid, &f.path, OpenOptions::modify()).expect("open");
        let data = fs.read_to_end(pid, h).expect("read");
        fs.seek(pid, h, 0).expect("seek");
        fs.write(pid, h, &data).expect("write");
        fs.close(pid, h).expect("close");
    }
    let snap = session.telemetry().metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let tiers = ["stamp_skips", "delta_applied", "full_recompute"]
        .map(|t| counter(&format!("engine.incremental.{t}")));
    assert_eq!(tiers.iter().sum::<u64>(), files.len() as u64, "tiers {tiers:?}");
    assert!(counter("engine.entropy.stamp_reuse") > 0);
}

/// Same replay with incremental analysis off: the incremental counters
/// stay at zero (the knob genuinely selects the reference path).
#[test]
fn disabling_incremental_analysis_silences_the_counters() {
    let corpus = corpus();
    let cfg = config(&corpus, false);
    let sample = &paper_sample_set()[0];
    let telemetry = Telemetry::new(1 << 16);
    let (result, _) = run_sample_with_telemetry(&corpus, &cfg, sample, telemetry.clone());
    assert!(result.detected);

    let snap = telemetry.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("engine.incremental.stamp_skips"), 0);
    assert_eq!(counter("engine.incremental.delta_applied"), 0);
}
