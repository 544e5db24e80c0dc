//! The adversarial study: evasive strategies × indicator configurations.
//!
//! The paper's evaluation asks "does CryptoDrop catch ransomware that
//! behaves like ransomware?" This study asks the attacker's follow-up:
//! *which indicator can I starve, and what does the defender lose when
//! one is gone?* Five strategies — a Class A paper reference plus the
//! four evasive strategies of `cryptodrop-adversarial` — run against
//! five engine configurations:
//!
//! * **full** — the paper's defaults;
//! * **minus-entropy** / **minus-similarity** / **minus-type-change** —
//!   one primary indicator disabled (zeroed points disable scoring *and*
//!   union participation);
//! * **decoys-on** — the full config with the baited corpus's decoys
//!   registered as tripwires.
//!
//! Every cell reports the detection rate over the seed set, the median
//! *real* (non-decoy) files lost before suspension, and the benign
//! false-positive count of the heavy-writer suite under that same
//! configuration. The per-family gate at the bottom re-runs one
//! representative of every paper family at the full config — CI fails if
//! any family stops being detected.

use cryptodrop::{Config, CryptoDrop, DecayPolicy};
use cryptodrop_adversarial::{evasive_suite, heavy_writer_suite, SlowRoll};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::paper_sample_set;
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};
use serde::{Deserialize, Serialize};

use crate::deception::real_fingerprints;
use crate::parallel_map;
use crate::report::{median, StudyReport, TextTable};

/// One engine configuration of the ablation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndicatorMode {
    /// The paper's default configuration.
    Full,
    /// Entropy-delta indicator disabled.
    MinusEntropy,
    /// Similarity indicator disabled.
    MinusSimilarity,
    /// Type-change indicator disabled.
    MinusTypeChange,
    /// Defaults plus decoy tripwires over the baited corpus.
    DecoysOn,
}

impl IndicatorMode {
    /// All modes, in report order.
    pub const ALL: [IndicatorMode; 5] = [
        IndicatorMode::Full,
        IndicatorMode::MinusEntropy,
        IndicatorMode::MinusSimilarity,
        IndicatorMode::MinusTypeChange,
        IndicatorMode::DecoysOn,
    ];

    /// A short stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            IndicatorMode::Full => "full",
            IndicatorMode::MinusEntropy => "minus-entropy",
            IndicatorMode::MinusSimilarity => "minus-similarity",
            IndicatorMode::MinusTypeChange => "minus-type-change",
            IndicatorMode::DecoysOn => "decoys-on",
        }
    }
}

/// Derives the engine configuration for one mode. Zeroed point values
/// disable an indicator entirely — no score contribution and no union
/// participation.
fn indicator_config(base: &Config, baited: &Corpus, mode: IndicatorMode) -> Config {
    let mut cfg = base.clone();
    match mode {
        IndicatorMode::Full => {}
        IndicatorMode::MinusEntropy => cfg.score.points_entropy_delta = 0,
        IndicatorMode::MinusSimilarity => cfg.score.points_similarity = 0,
        IndicatorMode::MinusTypeChange => cfg.score.points_type_change = 0,
        IndicatorMode::DecoysOn => {
            cfg.decoy_paths = baited.decoy_paths().cloned().collect();
        }
    }
    cfg
}

/// One strategy replay under one configuration and seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversarialRun {
    /// Strategy name (from [`Workload::name`]).
    pub strategy: String,
    /// Engine configuration the replay ran under.
    pub mode: IndicatorMode,
    /// The workload seed.
    pub seed: u64,
    /// Any pid of the workload's plan was suspended.
    pub detected: bool,
    /// Earliest simulated suspension time across the pid plan, when
    /// detected — the detection-latency axis of the slow-roll sweep.
    pub detected_at_nanos: Option<u64>,
    /// Union indication occurred on some pid.
    pub union_triggered: bool,
    /// Highest score over the pid plan.
    pub score: u32,
    /// Real (non-decoy) files destroyed or altered before the run ended.
    pub real_files_lost: u32,
    /// The strategy finished its whole plan.
    pub completed: bool,
}

/// Aggregates of one strategy × mode cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyCell {
    /// Strategy name.
    pub strategy: String,
    /// Engine configuration.
    pub mode: IndicatorMode,
    /// Detected replays / total replays.
    pub detection_rate: f64,
    /// Median real files lost across the seed set.
    pub median_real_files_lost: f64,
    /// Heavy-writer suspensions under this same configuration (must be
    /// zero everywhere).
    pub benign_false_positives: usize,
}

/// One heavy-writer replay under one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenignAdversarialResult {
    /// Application name.
    pub name: String,
    /// Engine configuration.
    pub mode: IndicatorMode,
    /// Whether any pid was suspended (a false positive).
    pub detected: bool,
    /// Whether the workload finished.
    pub completed: bool,
}

/// One cell of the slow-roll pause × decay-policy sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlowRollCell {
    /// Decay policy label (see [`swept_decay_policies`]).
    pub policy: String,
    /// The strategy's simulated pause between victims.
    pub pause_nanos: u64,
    /// Whether the slow-roll pid was suspended.
    pub detected: bool,
    /// Simulated time of suspension, when detected — grows with the
    /// pause, and diverges (None) where a policy lets the attack finish.
    pub detection_latency_nanos: Option<u64>,
    /// Real (non-decoy) files destroyed or altered before the run ended.
    pub real_files_lost: u32,
    /// Highest (decayed) score the scoreboard reported.
    pub score: u32,
}

/// One heavy-writer replay under one decay policy (the sweep's
/// false-positive control arm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecayBenignResult {
    /// Decay policy label.
    pub policy: String,
    /// Application name.
    pub name: String,
    /// Whether any pid was suspended (a false positive).
    pub detected: bool,
}

/// The decay policies the slow-roll sweep studies. `none` is the
/// engine's default (the paper's permanent scoreboard); the others trade
/// stale-score retention for time-bounded memory.
pub fn swept_decay_policies() -> [(&'static str, DecayPolicy); 4] {
    [
        ("none", DecayPolicy::None),
        (
            "half-life-1h",
            DecayPolicy::HalfLife {
                half_life_nanos: 3_600_000_000_000,
            },
        ),
        (
            "linear-2h",
            DecayPolicy::Linear {
                window_nanos: 7_200_000_000_000,
            },
        ),
        (
            "window-30min",
            DecayPolicy::Window {
                window_nanos: 1_800_000_000_000,
            },
        ),
    ]
}

/// Pause lengths swept (simulated seconds between victims), 0 → 10 min.
pub const SLOWROLL_PAUSES_SECS: [u64; 6] = [0, 1, 10, 60, 300, 600];

/// One paper family's detection verdict at the full configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyGate {
    /// Family name.
    pub family: String,
    /// Whether the representative sample was suspended.
    pub detected: bool,
    /// Files it lost before suspension.
    pub files_lost: u32,
}

/// The full adversarial study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversarialStudy {
    /// Per-(strategy, mode) aggregates, strategy-major in mode order.
    pub cells: Vec<StrategyCell>,
    /// Per-replay rows behind the aggregates.
    pub runs: Vec<AdversarialRun>,
    /// The heavy-writer sweep per configuration.
    pub benign: Vec<BenignAdversarialResult>,
    /// The per-family detection gate at the full configuration.
    pub families: Vec<FamilyGate>,
    /// The slow-roll pause × decay-policy sweep, policy-major in pause
    /// order.
    pub slowroll_sweep: Vec<SlowRollCell>,
    /// The heavy-writer control arm per decay policy.
    pub decay_benign: Vec<DecayBenignResult>,
}

/// The strategy line-up: one Class A paper reference plus the four
/// evasive strategies.
pub fn strategy_suite() -> Vec<Box<dyn Workload + Send + Sync>> {
    let reference = paper_sample_set()
        .into_iter()
        .find(|s| s.index == 0)
        .expect("the paper sample set is non-empty");
    let mut suite: Vec<Box<dyn Workload + Send + Sync>> = vec![Box::new(reference)];
    suite.extend(evasive_suite());
    suite
}

/// Replays one workload under one configuration and audits the surviving
/// real files.
pub fn run_strategy(
    baited: &Corpus,
    base: &Config,
    workload: &dyn Workload,
    mode: IndicatorMode,
    seed: u64,
) -> AdversarialRun {
    run_workload(baited, indicator_config(base, baited, mode), workload, mode, seed)
}

/// The shared replay core: stages the baited corpus, attaches a session
/// built from an explicit config, drives the workload, and audits the
/// surviving real files. `mode` is only a row label here — the config is
/// taken as-is, which is what the decay-policy sweep needs.
fn run_workload(
    baited: &Corpus,
    config: Config,
    workload: &dyn Workload,
    mode: IndicatorMode,
    seed: u64,
) -> AdversarialRun {
    let mut fs = Vfs::new();
    baited
        .stage_into(&mut fs)
        .expect("staging a generated corpus into an empty filesystem cannot fail");
    let session = CryptoDrop::builder()
        .config(config)
        .build()
        .expect("experiment configs are valid");
    session.attach(&mut fs);
    let ctx = WorkloadCtx::spawn(&mut fs, workload, baited.root(), seed);
    workload
        .stage(&mut fs, &ctx)
        .expect("workload staging must succeed");
    let outcome = workload.drive(&mut fs, &ctx);
    session.drain();

    let mut detected = false;
    let mut detected_at_nanos: Option<u64> = None;
    let mut union_triggered = false;
    let mut score = 0;
    for &pid in &ctx.pids {
        detected |= fs.is_suspended(pid);
        if let Some(report) = session.detection_for(pid) {
            detected_at_nanos = Some(match detected_at_nanos {
                Some(at) => at.min(report.at_nanos),
                None => report.at_nanos,
            });
        }
        if let Some(s) = session.summary(pid) {
            score = score.max(s.score);
            union_triggered |= s.union_triggered;
        }
    }
    let real_files_lost = real_fingerprints(baited)
        .iter()
        .filter(|(path, fp)| {
            fs.admin()
                .read_file(path)
                .map_or(true, |data| content_fingerprint(&data) != *fp)
        })
        .count() as u32;

    AdversarialRun {
        strategy: workload.name(),
        mode,
        seed,
        detected,
        detected_at_nanos,
        union_triggered,
        score,
        real_files_lost,
        completed: outcome.completed,
    }
}

/// Runs the heavy-writer suite under every configuration.
fn run_benign_matrix(baited: &Corpus, base: &Config) -> Vec<BenignAdversarialResult> {
    let suite = heavy_writer_suite();
    let mut out = Vec::new();
    for mode in IndicatorMode::ALL {
        for (i, app) in suite.iter().enumerate() {
            let r = run_strategy(baited, base, app.as_ref(), mode, 0xBE9 + i as u64);
            out.push(BenignAdversarialResult {
                name: r.strategy,
                mode,
                detected: r.detected,
                completed: r.completed,
            });
        }
    }
    out
}

/// Runs the slow-roll strategy over every pause × decay-policy cell.
/// Every run uses the full indicator configuration — the sweep isolates
/// the time axis, not the indicator set.
fn run_slowroll_sweep(baited: &Corpus, base: &Config, threads: usize) -> Vec<SlowRollCell> {
    let policies = swept_decay_policies();
    let jobs: Vec<(usize, u64)> = (0..policies.len())
        .flat_map(|p| SLOWROLL_PAUSES_SECS.iter().map(move |&s| (p, s)))
        .collect();
    parallel_map(jobs.len(), threads, |j| {
        let (p, pause_secs) = jobs[j];
        let (label, policy) = policies[p];
        let pause_nanos = pause_secs * 1_000_000_000;
        let workload = SlowRoll {
            pause_nanos,
            max_files: None,
        };
        let cfg = base.clone().with_decay(policy);
        let r = run_workload(baited, cfg, &workload, IndicatorMode::Full, 0x510);
        SlowRollCell {
            policy: label.to_string(),
            pause_nanos,
            detected: r.detected,
            detection_latency_nanos: r.detected_at_nanos,
            real_files_lost: r.real_files_lost,
            score: r.score,
        }
    })
}

/// Runs the heavy-writer suite under every swept decay policy (full
/// indicator configuration) — decayed scores only ever shrink, so any
/// suspension here is a regression.
fn run_decay_benign(baited: &Corpus, base: &Config, threads: usize) -> Vec<DecayBenignResult> {
    let policies = swept_decay_policies();
    let suite = heavy_writer_suite();
    let jobs: Vec<(usize, usize)> = (0..policies.len())
        .flat_map(|p| (0..suite.len()).map(move |a| (p, a)))
        .collect();
    parallel_map(jobs.len(), threads, |j| {
        let (p, a) = jobs[j];
        let (label, policy) = policies[p];
        let cfg = base.clone().with_decay(policy);
        let r = run_workload(
            baited,
            cfg,
            suite[a].as_ref(),
            IndicatorMode::Full,
            0xBE9 + a as u64,
        );
        DecayBenignResult {
            policy: label.to_string(),
            name: r.strategy,
            detected: r.detected,
        }
    })
}

/// Runs one representative of every paper family at the full
/// configuration — the detection floor CI gates on.
fn run_family_gate(baited: &Corpus, base: &Config) -> Vec<FamilyGate> {
    paper_sample_set()
        .into_iter()
        .filter(|s| s.index == 0)
        .map(|s| {
            let r = run_strategy(baited, base, &s, IndicatorMode::Full, s.seed());
            FamilyGate {
                family: s.family.name().to_string(),
                detected: r.detected,
                files_lost: r.real_files_lost,
            }
        })
        .collect()
}

/// Runs the full matrix: every strategy × mode × seed, the benign sweep
/// per mode, and the family gate.
pub fn run(baited: &Corpus, base: &Config, seeds: &[u64], threads: usize) -> AdversarialStudy {
    let strategies = strategy_suite();
    let jobs: Vec<(usize, IndicatorMode, u64)> = (0..strategies.len())
        .flat_map(|i| {
            IndicatorMode::ALL
                .into_iter()
                .flat_map(move |m| seeds.iter().map(move |&s| (i, m, s)))
        })
        .collect();
    let runs = parallel_map(jobs.len(), threads, |j| {
        let (i, mode, seed) = jobs[j];
        run_strategy(baited, base, strategies[i].as_ref(), mode, seed)
    });
    let benign = run_benign_matrix(baited, base);

    let mut cells = Vec::new();
    for strategy in strategies.iter().map(|w| w.name()) {
        for mode in IndicatorMode::ALL {
            let of_cell: Vec<&AdversarialRun> = runs
                .iter()
                .filter(|r| r.strategy == strategy && r.mode == mode)
                .collect();
            if of_cell.is_empty() {
                continue;
            }
            let losses: Vec<u32> = of_cell.iter().map(|r| r.real_files_lost).collect();
            let detected = of_cell.iter().filter(|r| r.detected).count();
            let fps = benign
                .iter()
                .filter(|b| b.mode == mode && b.detected)
                .count();
            cells.push(StrategyCell {
                strategy: strategy.clone(),
                mode,
                detection_rate: detected as f64 / of_cell.len() as f64,
                median_real_files_lost: median(&losses).unwrap_or(0.0),
                benign_false_positives: fps,
            });
        }
    }

    let families = run_family_gate(baited, base);
    let slowroll_sweep = run_slowroll_sweep(baited, base, threads);
    let decay_benign = run_decay_benign(baited, base, threads);
    AdversarialStudy {
        cells,
        runs,
        benign,
        families,
        slowroll_sweep,
        decay_benign,
    }
}

impl AdversarialStudy {
    /// Whether every paper family is still detected at the full
    /// configuration — the CI detection floor.
    pub fn all_families_detected(&self) -> bool {
        !self.families.is_empty() && self.families.iter().all(|f| f.detected)
    }

    /// Heavy-writer suspensions across every configuration (must be 0).
    pub fn benign_false_positives(&self) -> usize {
        self.benign.iter().filter(|b| b.detected).count()
    }

    /// Whether the slow-roll strategy is detected at *every* swept pause
    /// length under the default (`none`) decay policy — the time-axis CI
    /// gate: pacing alone must never buy evasion from the stock engine.
    pub fn slowroll_detected_under_default_decay(&self) -> bool {
        let default_cells: Vec<&SlowRollCell> = self
            .slowroll_sweep
            .iter()
            .filter(|c| c.policy == "none")
            .collect();
        default_cells.len() == SLOWROLL_PAUSES_SECS.len()
            && default_cells.iter().all(|c| c.detected)
    }

    /// Heavy-writer suspensions across every swept decay policy (must be
    /// 0: decayed scores are bounded above by raw scores).
    pub fn decay_benign_false_positives(&self) -> usize {
        self.decay_benign.iter().filter(|b| b.detected).count()
    }

    /// Whether the colluding reader/writer pair is detected at the full
    /// configuration across every seed — the read-baseline-inheritance
    /// gate (pre-fix, the evidence split evaded the scoreboard).
    pub fn collusion_detected_at_full(&self) -> bool {
        let of_cell: Vec<&AdversarialRun> = self
            .runs
            .iter()
            .filter(|r| r.strategy.starts_with("collusion") && r.mode == IndicatorMode::Full)
            .collect();
        !of_cell.is_empty() && of_cell.iter().all(|r| r.detected)
    }

    /// Wraps the study in the shared schema-versioned envelope
    /// (`results/adversarial.json`). Version 2 added the slow-roll
    /// pause × decay-policy sweep and per-run detection times.
    pub fn report(&self) -> StudyReport {
        StudyReport::new("adversarial", 2)
            .param("strategies", self.cells.len() / IndicatorMode::ALL.len().max(1))
            .param("modes", IndicatorMode::ALL.len())
            .param("families", self.families.len())
            .param("decay_policies", swept_decay_policies().len())
            .param("slowroll_pauses", SLOWROLL_PAUSES_SECS.len())
            .body(self)
    }

    /// Renders the matrix, the benign verdict, and the family gate.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Strategy",
            "Config",
            "Detection",
            "Median real files lost",
            "Benign FPs",
        ]);
        for c in &self.cells {
            t.row([
                c.strategy.clone(),
                c.mode.label().to_string(),
                format!("{:.0}%", 100.0 * c.detection_rate),
                format!("{:.1}", c.median_real_files_lost),
                c.benign_false_positives.to_string(),
            ]);
        }
        let undetected: Vec<&str> = self
            .families
            .iter()
            .filter(|f| !f.detected)
            .map(|f| f.family.as_str())
            .collect();
        let mut out = String::from("Adversarial study — evasive strategies vs indicator ablations\n\n");
        out.push_str(&t.render());
        out.push_str(&format!(
            "\nBenign heavy-writers: {} false positives across {} runs\n",
            self.benign_false_positives(),
            self.benign.len()
        ));
        out.push_str(&format!(
            "Family gate (full config): {}/{} detected{}\n",
            self.families.iter().filter(|f| f.detected).count(),
            self.families.len(),
            if undetected.is_empty() {
                String::new()
            } else {
                format!(" — MISSING: {}", undetected.join(", "))
            }
        ));

        let mut sweep = TextTable::new([
            "Decay policy",
            "Pause",
            "Detected",
            "Latency",
            "Real files lost",
            "Score",
        ]);
        for c in &self.slowroll_sweep {
            sweep.row([
                c.policy.clone(),
                format!("{} s", c.pause_nanos / 1_000_000_000),
                if c.detected { "yes" } else { "NO" }.to_string(),
                match c.detection_latency_nanos {
                    Some(at) => format!("{:.1} s", at as f64 / 1e9),
                    None => "—".to_string(),
                },
                c.real_files_lost.to_string(),
                c.score.to_string(),
            ]);
        }
        out.push_str("\nSlow-roll pause × decay-policy sweep (full config)\n\n");
        out.push_str(&sweep.render());
        out.push_str(&format!(
            "\nDecay benign control: {} false positives across {} runs\n",
            self.decay_benign_false_positives(),
            self.decay_benign.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deception::bait_corpus;
    use cryptodrop_corpus::CorpusSpec;

    fn small() -> (Corpus, Config) {
        let spec = CorpusSpec::sized(200, 30);
        let corpus = Corpus::generate(&spec);
        let baited = bait_corpus(&corpus, &spec);
        let config = Config::protecting(baited.root().as_str());
        (baited, config)
    }

    #[test]
    fn matrix_covers_every_cell_and_gates_hold() {
        let (baited, config) = small();
        let study = run(&baited, &config, &[1], 2);
        let strategies = strategy_suite().len();
        assert_eq!(study.cells.len(), strategies * IndicatorMode::ALL.len());
        assert!(study.all_families_detected(), "{}", study.render());
        assert_eq!(study.benign_false_positives(), 0, "{}", study.render());
        assert!(
            study.slowroll_detected_under_default_decay(),
            "{}",
            study.render()
        );
        assert_eq!(study.decay_benign_false_positives(), 0, "{}", study.render());
        assert!(study.collusion_detected_at_full(), "{}", study.render());
        assert_eq!(
            study.slowroll_sweep.len(),
            swept_decay_policies().len() * SLOWROLL_PAUSES_SECS.len()
        );
        // Detection times are recorded and grow with the pause under the
        // default policy — the latency curve is real, not a constant.
        let none_cells: Vec<&SlowRollCell> = study
            .slowroll_sweep
            .iter()
            .filter(|c| c.policy == "none")
            .collect();
        assert!(none_cells.iter().all(|c| c.detection_latency_nanos.is_some()));
        let first = none_cells.first().unwrap().detection_latency_nanos.unwrap();
        let last = none_cells.last().unwrap().detection_latency_nanos.unwrap();
        assert!(
            last > first,
            "a 10-minute pause must cost detection latency: {first} vs {last}"
        );
        // The Class A reference is caught under every configuration:
        // dropping a single indicator must not blind the detector.
        let reference = strategy_suite()[0].name();
        for c in study.cells.iter().filter(|c| c.strategy == reference) {
            assert!(
                c.detection_rate > 0.99,
                "reference evaded {} cell",
                c.mode.label()
            );
        }
        let report = study.report();
        assert_eq!(report.study(), "adversarial");
    }

    #[test]
    fn decoys_cut_losses_for_whole_tree_strategies() {
        let (baited, config) = small();
        let study = run(&baited, &config, &[7], 2);
        // For the reference sample, decoy tripwires stop the attack no
        // later than the scoreboard does.
        let reference = strategy_suite()[0].name();
        let full = study
            .cells
            .iter()
            .find(|c| c.strategy == reference && c.mode == IndicatorMode::Full)
            .unwrap();
        let decoys = study
            .cells
            .iter()
            .find(|c| c.strategy == reference && c.mode == IndicatorMode::DecoysOn)
            .unwrap();
        assert!(decoys.median_real_files_lost <= full.median_real_files_lost);
    }
}
