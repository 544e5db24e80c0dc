//! The "Drop It" recovery study: data saved vs detection threshold.
//!
//! CryptoDrop's headline number is the median files lost *before*
//! suspension; the shadow-copy store turns most of that loss back into
//! saved data. This experiment sweeps the detection threshold — trading
//! detection speed for benign noise, as in [`crate::roc`] — and, at each
//! operating point, replays a sample subset with the recovery subsystem
//! armed, runs [`restore`](cryptodrop::ShadowStore::restore) after each
//! suspension, and measures what survived: files corrupted at detection
//! time, files rolled back, bytes of pre-image data replayed, and the
//! residual loss (files still wrong after rollback — nonzero only when
//! the shadow budget evicted pre-images mid-attack).

use std::collections::BTreeMap;

use cryptodrop::{Config, CryptoDrop, ScoreConfig, ShadowConfig};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::RansomwareSample;
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{VPath, Vfs, Workload, WorkloadCtx};
use serde::{Deserialize, Serialize};

use crate::parallel_map;
use crate::report::{median, StudyReport, TextTable};

/// One sample replayed with recovery armed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryRun {
    /// Sample id.
    pub id: u32,
    /// Family display name.
    pub family: String,
    /// Whether the engine suspended the sample.
    pub detected: bool,
    /// Pre-existing files destroyed before suspension (the paper's loss
    /// metric, pre-rollback).
    pub files_lost: u32,
    /// Files the rollback returned to their pre-attack bytes.
    pub files_restored: u64,
    /// Pre-image bytes written back by the rollback.
    pub bytes_restored: u64,
    /// Files that could not be rolled back (evicted shadows or occupied
    /// restore paths).
    pub conflicts: u64,
    /// Corpus files still missing or corrupted after the rollback.
    pub residual_loss: u32,
}

/// One operating point of the threshold sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPoint {
    /// The non-union threshold.
    pub non_union_threshold: u32,
    /// The union threshold (scaled with the non-union one, as in the ROC
    /// study).
    pub union_threshold: u32,
    /// Detection rate across the subset.
    pub detection_rate: f64,
    /// Median files lost at suspension time (pre-rollback).
    pub median_files_lost: f64,
    /// Median files the rollback recovered.
    pub median_files_restored: f64,
    /// Median files still lost after the rollback.
    pub median_residual_loss: f64,
    /// Total pre-image bytes replayed across the subset.
    pub total_bytes_restored: u64,
    /// Per-sample runs behind the aggregates.
    pub runs: Vec<RecoveryRun>,
}

/// The full "data saved vs detection threshold" curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStudy {
    /// Points in ascending threshold order.
    pub points: Vec<RecoveryPoint>,
    /// The shadow byte budget the sweep ran under.
    pub byte_budget: u64,
}

/// Fingerprints of every file currently in the filesystem.
fn fingerprint_state(fs: &mut Vfs) -> BTreeMap<VPath, u64> {
    fs.admin()
        .files()
        .map(|(p, d)| (p.clone(), content_fingerprint(d)))
        .collect()
}

/// Replays one sample with recovery armed, restores after suspension, and
/// audits the post-rollback state against the pre-attack fingerprints.
pub fn run_sample_recovered(
    corpus: &Corpus,
    config: &Config,
    shadow: ShadowConfig,
    sample: &RansomwareSample,
) -> RecoveryRun {
    let mut fs = Vfs::new();
    corpus
        .stage_into(&mut fs)
        .expect("staging a generated corpus into an empty filesystem cannot fail");
    let before = fingerprint_state(&mut fs);

    let session = CryptoDrop::builder()
        .config(config.clone())
        .recovery(shadow)
        .build()
        .expect("experiment configs are valid");
    session.attach(&mut fs);
    let ctx = WorkloadCtx::spawn(&mut fs, sample, corpus.root(), sample.seed());
    let pid = ctx.pid();
    sample.drive(&mut fs, &ctx);

    let detected = fs.is_suspended(pid);
    let report = session.detection_for(pid);
    let files_lost = report.as_ref().map(|r| r.files_lost).unwrap_or(0);

    let rollback = report
        .as_ref()
        .and_then(|r| session.restore(&mut fs, r.pid));
    let (files_restored, bytes_restored, conflicts) = rollback
        .map(|r| (r.files_restored, r.bytes_restored, r.conflicts.len() as u64))
        .unwrap_or((0, 0, 0));

    // Residual loss: pre-existing files whose post-rollback bytes differ
    // from the pre-attack fingerprint, or which are gone entirely.
    let after = fingerprint_state(&mut fs);
    let residual_loss = before
        .iter()
        .filter(|(path, fp)| after.get(*path) != Some(fp))
        .count() as u32;

    RecoveryRun {
        id: sample.id,
        family: sample.family.name().to_string(),
        detected,
        files_lost,
        files_restored,
        bytes_restored,
        conflicts,
        residual_loss,
    }
}

/// Sweeps the threshold pair over `thresholds` with recovery armed at
/// `shadow`'s byte budget.
pub fn run(
    corpus: &Corpus,
    base: &Config,
    shadow: &ShadowConfig,
    samples: &[RansomwareSample],
    thresholds: &[u32],
    threads: usize,
) -> RecoveryStudy {
    let points = thresholds
        .iter()
        .map(|&threshold| {
            let union_threshold = (threshold * 4 / 5).max(1);
            let config = Config {
                score: ScoreConfig {
                    non_union_threshold: threshold,
                    union_threshold,
                    ..base.score.clone()
                },
                ..base.clone()
            };
            let runs = parallel_map(samples.len(), threads, |i| {
                run_sample_recovered(corpus, &config, shadow.clone(), &samples[i])
            });
            let detected: Vec<&RecoveryRun> = runs.iter().filter(|r| r.detected).collect();
            let losses: Vec<u32> = detected.iter().map(|r| r.files_lost).collect();
            let restored: Vec<u32> =
                detected.iter().map(|r| r.files_restored as u32).collect();
            let residual: Vec<u32> = detected.iter().map(|r| r.residual_loss).collect();
            RecoveryPoint {
                non_union_threshold: threshold,
                union_threshold,
                detection_rate: detected.len() as f64 / runs.len().max(1) as f64,
                median_files_lost: median(&losses).unwrap_or(0.0),
                median_files_restored: median(&restored).unwrap_or(0.0),
                median_residual_loss: median(&residual).unwrap_or(0.0),
                total_bytes_restored: runs.iter().map(|r| r.bytes_restored).sum(),
                runs,
            }
        })
        .collect();

    RecoveryStudy {
        points,
        byte_budget: shadow.byte_budget,
    }
}

impl RecoveryStudy {
    /// Wraps the study in the shared schema-versioned envelope
    /// (`results/recovery.json`).
    pub fn report(&self) -> StudyReport {
        StudyReport::new("recovery", 1)
            .param("thresholds", self.points.len())
            .param("byte_budget", self.byte_budget)
            .body(self)
    }

    /// Renders the curve: what the threshold costs in exposure, and what
    /// the shadow store buys back.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Threshold (union)",
            "Detection",
            "Median lost at stop",
            "Median restored",
            "Median residual",
            "Bytes replayed",
        ]);
        for p in &self.points {
            t.row([
                format!("{} ({})", p.non_union_threshold, p.union_threshold),
                format!("{:.0}%", 100.0 * p.detection_rate),
                format!("{:.1}", p.median_files_lost),
                format!("{:.1}", p.median_files_restored),
                format!("{:.1}", p.median_residual_loss),
                format!("{:.1} KiB", p.total_bytes_restored as f64 / 1024.0),
            ]);
        }
        let mut out = format!(
            "Data saved vs detection threshold — shadow budget {} MiB\n\n",
            self.byte_budget / (1024 * 1024)
        );
        out.push_str(&t.render());
        out.push_str(
            "\nHigher thresholds let the attack run longer before suspension, so\n\
             more files are lost at stop time — but the rollback replays their\n\
             pre-images, holding residual loss near zero until the byte budget\n\
             starts evicting shadows.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_corpus::CorpusSpec;
    use cryptodrop_malware::{paper_sample_set, Family};

    #[test]
    fn rollback_erases_the_threshold_penalty() {
        let corpus = Corpus::generate(&CorpusSpec::sized(250, 25));
        let config = Config::protecting(corpus.root().as_str());
        let samples: Vec<RansomwareSample> = paper_sample_set()
            .into_iter()
            .filter(|s| s.index == 0 && s.family == Family::TeslaCrypt)
            .collect();
        let study = run(
            &corpus,
            &config,
            &ShadowConfig::default(),
            &samples,
            &[50, 400],
            1,
        );
        assert_eq!(study.points.len(), 2);
        let lo = &study.points[0];
        let hi = &study.points[1];
        assert!(lo.detection_rate > 0.99 && hi.detection_rate > 0.99);
        // The higher threshold exposes more files at stop time...
        assert!(
            hi.median_files_lost >= lo.median_files_lost,
            "{} < {}",
            hi.median_files_lost,
            lo.median_files_lost
        );
        // ...but under an ample budget the rollback erases the loss at
        // both operating points.
        for p in [lo, hi] {
            assert!(p.median_files_restored > 0.0, "{p:?}");
            assert_eq!(p.median_residual_loss, 0.0, "{p:?}");
            assert!(p.total_bytes_restored > 0, "{p:?}");
        }
        assert!(study.render().contains("Median residual"));
    }

    #[test]
    fn starved_budget_shows_residual_loss() {
        let corpus = Corpus::generate(&CorpusSpec::sized(250, 25));
        let config = Config::protecting(corpus.root().as_str());
        let sample = paper_sample_set()
            .into_iter()
            .find(|s| s.index == 0 && s.family == Family::CryptoWall)
            .unwrap();
        // A budget far below the attack's working set forces evictions,
        // which surface as conflicts and residual loss.
        let run = run_sample_recovered(
            &corpus,
            &config,
            ShadowConfig::with_budget(8 * 1024),
            &sample,
        );
        assert!(run.detected);
        assert!(
            run.conflicts > 0 || run.residual_loss > 0,
            "a starved budget must leave a visible trace: {run:?}"
        );
    }
}
