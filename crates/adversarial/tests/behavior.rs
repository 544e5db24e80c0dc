//! Behavioural pins for the evasive strategies and the heavy-writers:
//! each strategy must actually starve the indicator it claims to starve,
//! and each heavy-writer must finish unsuspended at default thresholds.

use cryptodrop::{Config, CryptoDrop, ScoreConfig, Session};
use cryptodrop_adversarial::{
    evasive_suite, heavy_writer_suite, Collusion, LowEntropyEncoder, PartialEncryptor, SlowRoll,
};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx, WorkloadOutcome};

struct Run {
    detected: bool,
    max_score: u32,
    union: bool,
    /// Pids suspended.
    suspended: usize,
    /// The plan's last pid (a split plan's writer) was suspended with the
    /// union indication.
    last_pid_union: bool,
    outcome: WorkloadOutcome,
    clock_end: u64,
}

fn run(corpus: &Corpus, config: &Config, workload: &dyn Workload, seed: u64) -> Run {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("fresh filesystem");
    let session: Session = CryptoDrop::builder()
        .config(config.clone())
        .build()
        .expect("valid config");
    session.attach(&mut fs);
    let ctx = WorkloadCtx::spawn(&mut fs, workload, corpus.root(), seed);
    workload.stage(&mut fs, &ctx).expect("staging succeeds");
    let outcome = workload.drive(&mut fs, &ctx);
    session.drain();
    let mut r = Run {
        detected: false,
        max_score: 0,
        union: false,
        suspended: 0,
        last_pid_union: false,
        outcome,
        clock_end: fs.clock_handle().now_nanos(),
    };
    for &pid in &ctx.pids {
        let suspended = fs.is_suspended(pid);
        r.detected |= suspended;
        r.suspended += usize::from(suspended);
        if let Some(s) = session.summary(pid) {
            r.max_score = r.max_score.max(s.score);
            r.union |= s.union_triggered;
        }
    }
    let last = *ctx.pids.last().expect("pid plan is non-empty");
    r.last_pid_union =
        fs.is_suspended(last) && session.summary(last).is_some_and(|s| s.union_triggered);
    r
}

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(240, 40))
}

fn default_config(c: &Corpus) -> Config {
    Config::protecting(c.root().as_str())
}

#[test]
fn partial_encryptor_denies_the_union_indication() {
    let c = corpus();
    let r = run(&c, &default_config(&c), &PartialEncryptor::default(), 11);
    // Still detected — but only through the non-union threshold, so it
    // buys extra victims compared to a full Class A overwrite.
    assert!(r.detected, "score {}", r.max_score);
    assert!(
        !r.union,
        "surviving file tails must keep similarity matching"
    );
}

#[test]
fn slow_roll_spends_hours_of_simulated_clock() {
    let c = corpus();
    let strategy = SlowRoll {
        pause_nanos: 90_000_000_000,
        max_files: None,
    };
    let r = run(&c, &default_config(&c), &strategy, 12);
    assert!(r.detected, "pausing does not shed accumulated score");
    let touched = r.outcome.files_touched as u64 + r.outcome.read_only_skipped as u64;
    assert!(
        r.clock_end >= touched * 90_000_000_000,
        "clock {} ns after {touched} files",
        r.clock_end
    );
}

/// The writer never reads, but it inherits the reader's per-file entropy
/// baselines: the union fires on the writer, as it does for one pid that
/// both reads and writes.
#[test]
fn collusion_writer_inherits_the_reader_entropy_baseline() {
    let c = corpus();
    let cfg = default_config(&c);
    let split = run(&c, &cfg, &Collusion::default(), 13);
    assert!(split.detected, "score {}", split.max_score);
    assert_eq!(split.suspended, 1, "only the writer is destructive");
    assert!(split.last_pid_union, "the union fires on the writer");
    let solo = run(&c, &cfg, &Collusion { max_files: None, colluding: false }, 13);
    assert!(solo.detected && solo.union);
}

/// A bounded plan split across a reader pid and a writer pid is caught
/// like the same plan under one pid, before it completes.
#[test]
fn bounded_collusion_is_caught_like_the_solo_plan() {
    let c = corpus();
    let cfg = default_config(&c);
    let split = run(&c, &cfg, &Collusion::bounded(12), 14);
    assert!(split.detected, "score {}", split.max_score);
    assert_eq!(split.suspended, 1, "only the writer is destructive");
    assert!(split.last_pid_union, "the union fires on the writer");
    assert!(
        !split.outcome.completed || split.outcome.files_touched < 12,
        "suspension must interrupt the bounded plan"
    );
    let solo = run(&c, &cfg, &Collusion::solo(12), 14);
    assert!(
        solo.detected,
        "control arm: same 12-file plan under one pid must be caught (score {})",
        solo.max_score
    );
}

#[test]
fn low_entropy_encoder_never_trips_the_entropy_indicator() {
    let c = corpus();
    // Remove the entropy indicator's points entirely: if the strategy
    // works, the score is identical with and without them.
    let cfg = default_config(&c);
    let without = Config {
        score: ScoreConfig {
            points_entropy_delta: 0,
            ..cfg.score.clone()
        },
        ..cfg.clone()
    };
    let armored = run(&c, &cfg, &LowEntropyEncoder::default(), 15);
    let armored_no_entropy = run(&c, &without, &LowEntropyEncoder::default(), 15);
    assert_eq!(
        armored.max_score, armored_no_entropy.max_score,
        "hex armor must make the entropy indicator worthless"
    );
    assert!(!armored.union);
}

#[test]
fn evasive_suite_has_four_distinctly_named_strategies() {
    let suite = evasive_suite();
    assert_eq!(suite.len(), 4);
    let names: std::collections::BTreeSet<String> =
        suite.iter().map(|w| w.name()).collect();
    assert_eq!(names.len(), 4);
    for w in &suite {
        assert!(!w.pid_plan().is_empty());
    }
}

#[test]
fn heavy_writers_finish_unsuspended_at_default_thresholds() {
    let c = corpus();
    let cfg = default_config(&c);
    for (i, w) in heavy_writer_suite().iter().enumerate() {
        let r = run(&c, &cfg, w.as_ref(), 0x4EA0 + i as u64);
        assert!(
            !r.detected,
            "{} suspended with score {}",
            w.name(),
            r.max_score
        );
        assert!(r.outcome.completed, "{} did not finish", w.name());
        assert!(r.outcome.files_touched > 0, "{} did nothing", w.name());
    }
}
