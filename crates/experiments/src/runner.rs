//! Experiment execution: one fresh machine per sample, exactly as the
//! paper reverted its VM to a snapshot between samples (§V-A).

use std::collections::BTreeSet;

use cryptodrop::{Config, CryptoDrop, Telemetry};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{BehaviorClass, RansomwareSample};
use cryptodrop_vfs::{EventDetail, FileId, Vfs, VPath, Workload, WorkloadCtx, WorkloadOutcome};
use serde::{Deserialize, Serialize};

/// The result of running one ransomware sample against a fresh corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleResult {
    /// Sample id.
    pub id: u32,
    /// Family display name.
    pub family: String,
    /// Behaviour class.
    pub class: BehaviorClass,
    /// Whether CryptoDrop suspended the sample.
    pub detected: bool,
    /// Pre-existing corpus files lost before detection (the paper's
    /// headline metric).
    pub files_lost: u32,
    /// The sample's final reputation score.
    pub score: u32,
    /// Whether union indication occurred (≥1 occurrence, §V-B2).
    pub union_triggered: bool,
    /// Files the sample failed to destroy due to read-only attributes.
    pub read_only_skipped: u32,
    /// Whether the sample ran its whole plan (i.e. was *not* stopped).
    pub completed: bool,
    /// Files whose destruction sequence actually completed — ground truth
    /// independent of what the engine observed (ablation metric).
    pub files_attacked: u32,
    /// Distinct extensions of pre-existing files the sample accessed
    /// before detection (Fig. 5 input).
    pub extensions_accessed: BTreeSet<String>,
    /// Directories in which the sample read or wrote a file before
    /// detection (Fig. 4 input).
    pub dirs_touched: BTreeSet<String>,
}

/// Runs one sample against a freshly staged corpus with CryptoDrop armed.
pub fn run_sample(corpus: &Corpus, config: &Config, sample: &RansomwareSample) -> SampleResult {
    run_sample_with_telemetry(corpus, config, sample, Telemetry::disabled()).0
}

/// [`run_sample`] with a caller-supplied telemetry sink shared between the
/// VFS and the engine, returning the run's harvested
/// [`RunTelemetry`](crate::telemetry::RunTelemetry) alongside the result.
///
/// Instrumentation is inert: the [`SampleResult`] is identical whether the
/// sink is enabled, disabled, or absent (`telemetry::instrumentation_is_inert`
/// guards this).
pub fn run_sample_with_telemetry(
    corpus: &Corpus,
    config: &Config,
    sample: &RansomwareSample,
    telemetry: Telemetry,
) -> (SampleResult, crate::telemetry::RunTelemetry) {
    let mut fs = Vfs::new();
    corpus
        .stage_into(&mut fs)
        .expect("staging a generated corpus into an empty filesystem cannot fail");
    fs.set_telemetry(telemetry.clone());
    let session = CryptoDrop::builder()
        .config(config.clone())
        .telemetry(telemetry.clone())
        .build()
        .expect("experiment configs are valid");
    let monitor = session.monitor();
    fs.register_filter(Box::new(session.fork()));
    let ctx = WorkloadCtx::spawn(&mut fs, sample, corpus.root(), sample.seed());
    let pid = ctx.pid();

    let outcome = sample.drive(&mut fs, &ctx);
    let detected = fs.is_suspended(pid);
    let summary = monitor.summary(pid);
    let report = monitor.detection_for(pid);
    let (extensions_accessed, dirs_touched) = trace_stats(&fs, corpus.root());

    let result = SampleResult {
        id: sample.id,
        family: sample.family.name().to_string(),
        class: sample.class,
        detected,
        files_lost: report
            .as_ref()
            .map(|r| r.files_lost)
            .or_else(|| summary.as_ref().map(|s| s.files_lost))
            .unwrap_or(0),
        score: summary.as_ref().map(|s| s.score).unwrap_or(0),
        union_triggered: summary.as_ref().map(|s| s.union_triggered).unwrap_or(false),
        read_only_skipped: outcome.read_only_skipped,
        completed: outcome.completed,
        files_attacked: outcome.files_touched,
        extensions_accessed,
        dirs_touched,
    };
    let harvest = crate::telemetry::RunTelemetry::collect(&telemetry, &monitor, pid);
    (result, harvest)
}

/// Extracts the Fig. 4 / Fig. 5 statistics from the event trace: the
/// extensions of pre-existing files accessed, and the directories where a
/// file was read or written.
fn trace_stats(fs: &Vfs, root: &VPath) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut created: std::collections::HashSet<FileId> = std::collections::HashSet::new();
    let mut exts = BTreeSet::new();
    let mut dirs = BTreeSet::new();
    for e in fs.event_log().events() {
        match &e.detail {
            EventDetail::Open { file, created: c, .. } => {
                if *c {
                    created.insert(*file);
                }
                // Extension tracking keys on opens of pre-existing files.
                if let Some(path) = e.path() {
                    if path.starts_with(root) && !c {
                        if let Some(ext) = path.extension() {
                            exts.insert(ext);
                        }
                    }
                }
            }
            EventDetail::Read { path, .. } | EventDetail::Write { path, .. }
                if path.starts_with(root) => {
                    if let Some(dir) = path.parent() {
                        dirs.insert(dir.as_str().to_string());
                    }
                }
            _ => {}
        }
    }
    (exts, dirs)
}

/// The result of one benign application run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppResult {
    /// Application display name.
    pub name: String,
    /// Final reputation score at workload completion (or at suspension).
    pub score: u32,
    /// Whether the app was suspended at the configured threshold — a
    /// false positive.
    pub detected: bool,
    /// Whether union indication occurred (the paper: never, for benign
    /// apps).
    pub union_triggered: bool,
    /// Whether the workload ran to completion.
    pub completed: bool,
}

/// The result of driving one [`Workload`] — attacker or benign — on a fresh
/// corpus with CryptoDrop armed. This is the actor-agnostic counterpart of
/// [`SampleResult`]/[`AppResult`]: every metric aggregates over the
/// workload's whole pid plan, so multi-process actors (collusion attacks)
/// report honestly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadRunResult {
    /// The workload's display name.
    pub name: String,
    /// Whether *any* of the workload's processes was suspended.
    pub detected: bool,
    /// How many of the workload's processes were suspended.
    pub suspended_pids: u32,
    /// The highest reputation score across the workload's processes.
    pub score: u32,
    /// Whether union indication occurred for any of its processes.
    pub union_triggered: bool,
    /// Files lost before detection, per the engine's own accounting
    /// (maximum over the workload's processes; the adversarial study
    /// re-audits ground truth by fingerprint instead).
    pub files_lost: u32,
    /// What the workload reported about its own run.
    pub outcome: WorkloadOutcome,
}

/// Drives one [`Workload`] against a freshly staged corpus with CryptoDrop
/// armed — the uniform entry point for samples, evasive strategies, and
/// benign applications alike.
pub fn run_workload(
    corpus: &Corpus,
    config: &Config,
    workload: &dyn Workload,
    seed: u64,
) -> WorkloadRunResult {
    let mut fs = Vfs::new();
    corpus
        .stage_into(&mut fs)
        .expect("staging a generated corpus into an empty filesystem cannot fail");
    let session = CryptoDrop::builder()
        .config(config.clone())
        .build()
        .expect("experiment configs are valid");
    session.attach(&mut fs);
    let ctx = WorkloadCtx::spawn(&mut fs, workload, corpus.root(), seed);
    workload.stage(&mut fs, &ctx).expect("workload staging must succeed");
    let outcome = workload.drive(&mut fs, &ctx);
    session.drain();
    summarize_workload(&fs, &session, workload.name(), &ctx.pids, outcome)
}

/// Aggregates per-pid engine verdicts into a [`WorkloadRunResult`] so
/// multi-process workloads report over their whole pid plan.
pub(crate) fn summarize_workload(
    fs: &Vfs,
    session: &cryptodrop::Session,
    name: String,
    pids: &[cryptodrop_vfs::ProcessId],
    outcome: WorkloadOutcome,
) -> WorkloadRunResult {
    let mut result = WorkloadRunResult {
        name,
        detected: false,
        suspended_pids: 0,
        score: 0,
        union_triggered: false,
        files_lost: 0,
        outcome,
    };
    for &pid in pids {
        if fs.is_suspended(pid) {
            result.detected = true;
            result.suspended_pids += 1;
        }
        if let Some(s) = session.summary(pid) {
            result.score = result.score.max(s.score);
            result.union_triggered |= s.union_triggered;
            result.files_lost = result.files_lost.max(s.files_lost);
        }
        if let Some(r) = session.detection_for(pid) {
            result.files_lost = result.files_lost.max(r.files_lost);
        }
    }
    result
}

impl From<WorkloadRunResult> for AppResult {
    fn from(r: WorkloadRunResult) -> Self {
        AppResult {
            name: r.name,
            score: r.score,
            detected: r.detected,
            union_triggered: r.union_triggered,
            completed: r.outcome.completed,
        }
    }
}

/// Runs many samples in parallel across worker threads, preserving input
/// order in the output.
pub fn run_samples_parallel(
    corpus: &Corpus,
    config: &Config,
    samples: &[RansomwareSample],
    threads: usize,
) -> Vec<SampleResult> {
    let threads = threads.max(1);
    if threads == 1 || samples.len() <= 1 {
        return samples.iter().map(|s| run_sample(corpus, config, s)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<SampleResult>> = vec![None; samples.len()];
    let slots: Vec<std::sync::Mutex<Option<SampleResult>>> =
        results.iter_mut().map(|_| std::sync::Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= samples.len() {
                    break;
                }
                let r = run_sample(corpus, config, &samples[i]);
                *slots[i].lock().expect("no poisoning: workers do not panic") = Some(r);
            });
        }
    })
    .expect("worker threads do not panic");
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("not poisoned").expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_corpus::CorpusSpec;
    use cryptodrop_malware::paper_sample_set;

    fn quick_corpus() -> Corpus {
        Corpus::generate(&CorpusSpec::sized(160, 20))
    }

    #[test]
    fn sample_run_detects_and_reports() {
        let corpus = quick_corpus();
        let config = Config::protecting(corpus.root().as_str());
        let sample = paper_sample_set()
            .into_iter()
            .find(|s| s.family == cryptodrop_malware::Family::TeslaCrypt)
            .unwrap();
        let r = run_sample(&corpus, &config, &sample);
        assert!(r.detected, "TeslaCrypt must be detected: {r:?}");
        assert!(!r.completed);
        assert!(r.files_lost > 0 && r.files_lost < 60, "lost {}", r.files_lost);
        assert!(!r.extensions_accessed.is_empty());
        assert!(!r.dirs_touched.is_empty());
    }

    #[test]
    fn benign_run_reports_score() {
        let corpus = quick_corpus();
        let config = Config::protecting(corpus.root().as_str());
        let app: Box<dyn cryptodrop_benign::BenignApp> = Box::new(cryptodrop_benign::Word);
        let r = run_workload(&corpus, &config, &app, 5);
        assert!(!r.detected, "{r:?}");
        assert!(r.outcome.completed);
        assert!(r.score < 50, "Word scored {}", r.score);
        assert!(!r.union_triggered);
    }

    #[test]
    fn workload_run_matches_sample_run() {
        let corpus = quick_corpus();
        let config = Config::protecting(corpus.root().as_str());
        let sample = paper_sample_set()
            .into_iter()
            .find(|s| s.family == cryptodrop_malware::Family::TeslaCrypt)
            .unwrap();
        let s = run_sample(&corpus, &config, &sample);
        let w = run_workload(&corpus, &config, &sample, sample.seed());
        assert_eq!(w.detected, s.detected);
        assert_eq!(w.score, s.score);
        assert_eq!(w.union_triggered, s.union_triggered);
        assert_eq!(w.files_lost, s.files_lost);
        assert_eq!(w.outcome.completed, s.completed);
        assert_eq!(w.outcome.files_touched, s.files_attacked);
    }

    #[test]
    fn parallel_matches_serial() {
        let corpus = quick_corpus();
        let config = Config::protecting(corpus.root().as_str());
        let samples: Vec<_> = paper_sample_set().into_iter().step_by(97).take(4).collect();
        let serial = run_samples_parallel(&corpus, &config, &samples, 1);
        let parallel = run_samples_parallel(&corpus, &config, &samples, 4);
        assert_eq!(serial, parallel, "runs are deterministic per sample");
    }
}
