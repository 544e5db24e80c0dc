//! The active-defense study: decoy files and reputation throttling.
//!
//! CryptoDrop's scoreboard needs a handful of destroyed files to converge;
//! a GuardFS-style deception layer attacks that exposure window from two
//! sides. *Decoys* — bait files woven through the corpus, registered with
//! the engine — turn the attacker's very first destructive touch of one
//! into an instant maximum-confidence suspension, and *throttling* delays
//! a brewing suspect's destructive operations on the simulated clock once
//! its score passes the engage point, stretching the time it needs to do
//! damage while the indicators converge.
//!
//! The study replays the sample set per family under three modes —
//! no defense, decoys only, decoys plus throttling — against the *same*
//! decoy-woven corpus (only engine registration differs, so file sets are
//! identical across modes) and reports the median **real** files lost
//! (sacrificial bait never counts), the decoy-trip rate, and the simulated
//! time each sample survived. A benign sweep runs the Fig. 6 applications
//! against the same baited filesystem and counts false positives — decoys
//! must be free: no legitimate workload modifies them.

use cryptodrop::{Config, CryptoDrop};
use cryptodrop_benign::BenignApp;
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::RansomwareSample;
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{VPath, Vfs, Workload, WorkloadCtx};
use serde::{Deserialize, Serialize};

use crate::report::{median, StudyReport, TextTable};

/// Which layers of the active defense are armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefenseMode {
    /// Plain CryptoDrop: the decoy files exist in the corpus but are not
    /// registered with the engine, and throttling is off.
    NoDefense,
    /// Decoys registered: any destructive touch of one suspends instantly.
    Decoys,
    /// Decoys plus reputation-driven op throttling.
    DecoysThrottle,
}

impl DefenseMode {
    /// All modes, in escalation order.
    pub const ALL: [DefenseMode; 3] = [
        DefenseMode::NoDefense,
        DefenseMode::Decoys,
        DefenseMode::DecoysThrottle,
    ];

    /// A short stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            DefenseMode::NoDefense => "none",
            DefenseMode::Decoys => "decoys",
            DefenseMode::DecoysThrottle => "decoys+throttle",
        }
    }
}

/// One sample replayed under one defense mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeceptionRun {
    /// Sample id.
    pub id: u32,
    /// Family display name.
    pub family: String,
    /// The defense mode this run used.
    pub mode: DefenseMode,
    /// Whether the sample was suspended mid-run.
    pub detected: bool,
    /// Real (non-decoy) corpus files destroyed or corrupted by the end of
    /// the run — the study's loss metric. Bait is sacrificial and never
    /// counted.
    pub real_files_lost: u32,
    /// Whether suspension came from the decoy tripwire (suspended below
    /// the reputation threshold) rather than scoreboard convergence.
    pub decoy_trip: bool,
    /// Simulated nanoseconds elapsed when the run ended (at suspension,
    /// or at plan completion for undetected runs). Throttling shows up
    /// here: the same attack costs the suspect more simulated time.
    pub sim_nanos: u64,
}

/// Per-(family, mode) aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyDeception {
    /// Family display name.
    pub family: String,
    /// The defense mode.
    pub mode: DefenseMode,
    /// Fraction of the family's samples suspended.
    pub detection_rate: f64,
    /// Median real (non-decoy) files lost across the family's samples.
    pub median_real_files_lost: f64,
    /// Fraction of detections that came from the decoy tripwire.
    pub decoy_trip_rate: f64,
    /// Median simulated microseconds a sample survived.
    pub median_sim_micros: f64,
}

/// One benign application run against the baited filesystem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenignDecoyResult {
    /// Application display name.
    pub name: String,
    /// Whether the app was suspended — with decoys armed, any suspension
    /// here is a false positive.
    pub detected: bool,
    /// Whether the workload ran to completion.
    pub completed: bool,
}

/// The full active-defense study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeceptionStudy {
    /// Decoys woven into the corpus.
    pub decoy_count: usize,
    /// Per-(family, mode) aggregates, family-major in mode escalation
    /// order.
    pub rows: Vec<FamilyDeception>,
    /// Per-sample runs behind the aggregates.
    pub runs: Vec<DeceptionRun>,
    /// The benign sweep over the baited corpus with decoys armed.
    pub benign: Vec<BenignDecoyResult>,
    /// Benign apps suspended with the full defense armed. Must be zero:
    /// decoys cost legitimate workloads nothing.
    pub benign_false_positives: usize,
}

/// Fingerprints of the real (non-decoy) corpus files as staged.
pub(crate) fn real_fingerprints(baited: &Corpus) -> Vec<(&VPath, u64)> {
    baited
        .files()
        .iter()
        .filter(|f| !f.decoy)
        .map(|f| (&f.path, content_fingerprint(&f.data)))
        .collect()
}

/// Builds the engine configuration for a defense mode: decoys registered
/// for both defended modes, throttling engaged at half the detection
/// threshold for the full mode.
fn mode_config(base: &Config, baited: &Corpus, mode: DefenseMode) -> Config {
    let mut cfg = base.clone();
    match mode {
        DefenseMode::NoDefense => {}
        DefenseMode::Decoys => {
            cfg.decoy_paths = baited.decoy_paths().cloned().collect();
        }
        DefenseMode::DecoysThrottle => {
            cfg.decoy_paths = baited.decoy_paths().cloned().collect();
            cfg = cfg.with_throttling((base.score.non_union_threshold / 2).max(1), 1_000_000);
        }
    }
    cfg
}

/// Replays one sample under one defense mode against the baited corpus
/// and audits the surviving real files.
pub fn run_sample_defended(
    baited: &Corpus,
    base: &Config,
    sample: &RansomwareSample,
    mode: DefenseMode,
) -> DeceptionRun {
    let mut fs = Vfs::new();
    baited
        .stage_into(&mut fs)
        .expect("staging a generated corpus into an empty filesystem cannot fail");

    let session = CryptoDrop::builder()
        .config(mode_config(base, baited, mode))
        .build()
        .expect("experiment configs are valid");
    session.attach(&mut fs);
    let ctx = WorkloadCtx::spawn(&mut fs, sample, baited.root(), sample.seed());
    let pid = ctx.pid();
    sample.drive(&mut fs, &ctx);

    let detected = fs.is_suspended(pid);
    let report = session.detection_for(pid);
    // A decoy trip suspends below the reputation threshold; scoreboard
    // detections only ever fire at or above it.
    let decoy_trip = report.as_ref().is_some_and(|r| r.score < r.threshold);
    let real_files_lost = real_fingerprints(baited)
        .iter()
        .filter(|(path, fp)| {
            fs.admin()
                .read_file(path)
                .map_or(true, |data| content_fingerprint(&data) != *fp)
        })
        .count() as u32;

    DeceptionRun {
        id: sample.id,
        family: sample.family.name().to_string(),
        mode,
        detected,
        real_files_lost,
        decoy_trip,
        sim_nanos: fs.clock().now_nanos(),
    }
}

/// Runs the benign sweep: each application against the baited corpus with
/// the full defense armed.
fn run_benign_sweep(
    baited: &Corpus,
    base: &Config,
    apps: &[Box<dyn BenignApp>],
) -> Vec<BenignDecoyResult> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            let mut fs = Vfs::new();
            baited
                .stage_into(&mut fs)
                .expect("staging a generated corpus into an empty filesystem cannot fail");
            let session = CryptoDrop::builder()
                .config(mode_config(base, baited, DefenseMode::DecoysThrottle))
                .build()
                .expect("experiment configs are valid");
            session.attach(&mut fs);
            let ctx = WorkloadCtx::spawn(&mut fs, app, baited.root(), 0xDEC0 + i as u64);
            let out = app.drive(&mut fs, &ctx);
            BenignDecoyResult {
                name: Workload::name(app),
                detected: fs.is_suspended(ctx.pid()),
                completed: out.completed,
            }
        })
        .collect()
}

/// Weaves decoys into the scale's corpus: ~2% of the real file count,
/// bounded to [4, 64].
pub fn bait_corpus(corpus: &Corpus, spec: &CorpusSpec) -> Corpus {
    let count = (corpus.file_count() / 50).clamp(4, 64);
    corpus.with_decoys(spec, count)
}

/// Runs the full study: every sample × every mode, plus the benign sweep.
pub fn run(
    baited: &Corpus,
    base: &Config,
    samples: &[RansomwareSample],
    apps: &[Box<dyn BenignApp>],
    threads: usize,
) -> DeceptionStudy {
    let jobs: Vec<(usize, DefenseMode)> = (0..samples.len())
        .flat_map(|i| DefenseMode::ALL.map(|m| (i, m)))
        .collect();
    let runs = run_defended_parallel(baited, base, samples, &jobs, threads);

    let mut rows = Vec::new();
    let mut families: Vec<&str> = runs.iter().map(|r| r.family.as_str()).collect();
    families.dedup();
    for family in families {
        for mode in DefenseMode::ALL {
            let of_mode: Vec<&DeceptionRun> = runs
                .iter()
                .filter(|r| r.family == family && r.mode == mode)
                .collect();
            if of_mode.is_empty() {
                continue;
            }
            let losses: Vec<u32> = of_mode.iter().map(|r| r.real_files_lost).collect();
            let micros: Vec<u32> = of_mode
                .iter()
                .map(|r| u32::try_from(r.sim_nanos / 1_000).unwrap_or(u32::MAX))
                .collect();
            let detected = of_mode.iter().filter(|r| r.detected).count();
            let trips = of_mode.iter().filter(|r| r.decoy_trip).count();
            rows.push(FamilyDeception {
                family: family.to_string(),
                mode,
                detection_rate: detected as f64 / of_mode.len() as f64,
                median_real_files_lost: median(&losses).unwrap_or(0.0),
                decoy_trip_rate: trips as f64 / of_mode.len().max(1) as f64,
                median_sim_micros: median(&micros).unwrap_or(0.0),
            });
        }
    }

    let benign = run_benign_sweep(baited, base, apps);
    let benign_false_positives = benign.iter().filter(|r| r.detected).count();
    DeceptionStudy {
        decoy_count: baited.decoy_count(),
        rows,
        runs,
        benign,
        benign_false_positives,
    }
}

/// Runs (sample, mode) jobs across worker threads, preserving job order.
fn run_defended_parallel(
    baited: &Corpus,
    base: &Config,
    samples: &[RansomwareSample],
    jobs: &[(usize, DefenseMode)],
    threads: usize,
) -> Vec<DeceptionRun> {
    let threads = threads.max(1);
    if threads == 1 || jobs.len() <= 1 {
        return jobs
            .iter()
            .map(|&(i, mode)| run_sample_defended(baited, base, &samples[i], mode))
            .collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<DeceptionRun>>> =
        jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let (i, mode) = jobs[j];
                let r = run_sample_defended(baited, base, &samples[i], mode);
                *slots[j].lock().expect("no poisoning: workers do not panic") = Some(r);
            });
        }
    })
    .expect("worker threads do not panic");
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("not poisoned").expect("all slots filled"))
        .collect()
}

impl DeceptionStudy {
    /// Per-family medians for one mode, keyed by family name.
    fn mode_losses(&self, mode: DefenseMode) -> Vec<(&str, f64)> {
        self.rows
            .iter()
            .filter(|r| r.mode == mode)
            .map(|r| (r.family.as_str(), r.median_real_files_lost))
            .collect()
    }

    /// `true` when, for every family, the fully defended median real loss
    /// is no worse than the undefended one — the study's acceptance gate.
    pub fn defense_never_hurts(&self) -> bool {
        let base: std::collections::BTreeMap<&str, f64> =
            self.mode_losses(DefenseMode::NoDefense).into_iter().collect();
        self.mode_losses(DefenseMode::DecoysThrottle)
            .iter()
            .all(|(family, loss)| base.get(family).is_none_or(|b| loss <= b))
    }

    /// Wraps the study in the shared schema-versioned envelope
    /// (`results/deception.json`).
    pub fn report(&self) -> StudyReport {
        StudyReport::new("deception", 1)
            .param("decoy_count", self.decoy_count)
            .param("samples", self.runs.len() / DefenseMode::ALL.len().max(1))
            .body(self)
    }

    /// Renders the per-family table and the benign verdict.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Family",
            "Mode",
            "Detection",
            "Median real files lost",
            "Decoy trips",
            "Median sim time",
        ]);
        for r in &self.rows {
            t.row([
                r.family.clone(),
                r.mode.label().to_string(),
                format!("{:.0}%", 100.0 * r.detection_rate),
                format!("{:.1}", r.median_real_files_lost),
                format!("{:.0}%", 100.0 * r.decoy_trip_rate),
                format!("{:.1} ms", r.median_sim_micros / 1000.0),
            ]);
        }
        let mut out = format!(
            "Active defense — {} decoys woven into the corpus\n\n",
            self.decoy_count
        );
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nBenign sweep over the baited corpus: {} of {} applications \
             flagged (must be 0 — no legitimate workflow touches bait)\n",
            self.benign_false_positives,
            self.benign.len()
        ));
        out.push_str(
            "\nDecoys collapse the exposure window: the first destructive touch\n\
             of bait suspends at full confidence, before the scoreboard needs\n\
             to converge. Throttling stretches the remaining suspects'\n\
             simulated time budget without costing benign applications.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_malware::{paper_sample_set, Family};

    fn baited_quick() -> (Corpus, CorpusSpec) {
        let spec = CorpusSpec::sized(250, 25);
        let corpus = Corpus::generate(&spec);
        (bait_corpus(&corpus, &spec), spec)
    }

    #[test]
    fn decoys_reduce_real_loss_and_stay_benign_clean() {
        let (baited, _spec) = baited_quick();
        assert!(baited.decoy_count() >= 4);
        let config = Config::protecting(baited.root().as_str());
        let samples: Vec<RansomwareSample> = paper_sample_set()
            .into_iter()
            .filter(|s| {
                s.index == 0 && matches!(s.family, Family::TeslaCrypt | Family::CryptoWall)
            })
            .collect();
        let apps: Vec<Box<dyn BenignApp>> = vec![
            Box::new(cryptodrop_benign::Word),
            Box::new(cryptodrop_benign::ImageMagick { photo_count: 20 }),
        ];
        let study = run(&baited, &config, &samples, &apps, 2);

        assert_eq!(study.runs.len(), samples.len() * 3);
        assert!(study.defense_never_hurts(), "{:?}", study.rows);
        // Every defended run still detects, and the benign sweep is clean.
        for r in study.rows.iter().filter(|r| r.mode != DefenseMode::NoDefense) {
            assert!(r.detection_rate > 0.99, "{r:?}");
        }
        assert_eq!(study.benign_false_positives, 0, "{:?}", study.benign);
        assert!(study.benign.iter().all(|b| b.completed));
        assert!(study.render().contains("decoys woven"));
    }

    #[test]
    fn decoy_trip_suspends_below_threshold() {
        let (baited, _spec) = baited_quick();
        let config = Config::protecting(baited.root().as_str());
        // A traversal-ordered family meets a front-sorted decoy early.
        let sample = paper_sample_set()
            .into_iter()
            .find(|s| s.index == 0 && s.family == Family::Gpcode)
            .unwrap();
        let defended = run_sample_defended(&baited, &config, &sample, DefenseMode::Decoys);
        assert!(defended.detected);
        let undefended =
            run_sample_defended(&baited, &config, &sample, DefenseMode::NoDefense);
        assert!(
            defended.real_files_lost <= undefended.real_files_lost,
            "{} > {}",
            defended.real_files_lost,
            undefended.real_files_lost
        );
    }
}
