//! The experiment harness: regenerates every table and figure of the
//! CryptoDrop evaluation (paper §V).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I (per-family breakdown, median files lost) + §V-B2 union audit |
//! | [`fig3`] | Fig. 3 (cumulative files-lost distribution) |
//! | [`fig4`] | Fig. 4 (per-family traversal footprints) |
//! | [`fig5`] | Fig. 5 (extension access frequencies) |
//! | [`fig6`] | Fig. 6 + §V-F (benign scores, FP threshold sweep) |
//! | [`perf`] | §V-H (filter-added latency per op kind) |
//! | [`ablation`] | §V-C small-file rerun + union/tracking/dynamic-scoring ablations |
//! | [`baselines`] | CryptoDrop vs §II baselines (Tripwire-style integrity, entropy-only) |
//! | [`isolation`] | §III indicators-in-isolation study |
//! | [`roc`] | the threshold operating curve behind the paper's 200 (§V-A/§V-F) |
//! | [`recovery`] | the "Drop It" study: data saved vs detection threshold |
//! | [`deception`] | the active-defense study: decoy tripwires + reputation throttling |
//! | [`adversarial`] | evasive strategies × indicator ablations + benign heavy-writer FP sweep |
//! | [`telemetry`] | instrumented runs: metric/journal harvests + detection audit trails |
//!
//! Each experiment runs at a [`Scale`]: [`Scale::paper`] uses the full
//! 5,099-file corpus and all 492 samples; [`Scale::quick`] shrinks both
//! for CI-speed smoke runs. Runs are deterministic per scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adversarial;
pub mod baselines;
pub mod deception;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod isolation;
pub mod perf;
pub mod recovery;
pub mod roc;
pub mod report;
pub mod runner;
pub mod table1;
pub mod telemetry;

use cryptodrop::Config;
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::{paper_sample_set, RansomwareSample};
use serde::{Deserialize, Serialize};

/// The size at which an experiment runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Corpus dimensions and mix.
    pub corpus_spec: CorpusSpec,
    /// Cap on samples per (family, class); `None` runs all 492.
    pub sample_cap: Option<usize>,
    /// Worker threads for sample fan-out.
    pub threads: usize,
}

impl Scale {
    /// The paper's full scale: 5,099 files / 511 directories / 492 samples.
    pub fn paper() -> Self {
        Self {
            corpus_spec: CorpusSpec::paper(),
            sample_cap: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// A reduced scale for smoke tests: a 600-file corpus and at most two
    /// samples per (family, class).
    pub fn quick() -> Self {
        Self {
            corpus_spec: CorpusSpec::sized(600, 60),
            sample_cap: Some(2),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }

    /// Generates the corpus for this scale.
    pub fn corpus(&self) -> Corpus {
        Corpus::generate(&self.corpus_spec)
    }

    /// The default engine configuration for this scale's corpus.
    pub fn config(&self) -> Config {
        Config::protecting(self.corpus_spec.root.as_str())
    }

    /// The sample set, capped per (family, class) if requested.
    pub fn samples(&self) -> Vec<RansomwareSample> {
        let all = paper_sample_set();
        match self.sample_cap {
            None => all,
            Some(cap) => all.into_iter().filter(|s| s.index < cap).collect(),
        }
    }

    /// Parses `--quick` / `--paper` style command-line arguments for the
    /// experiment binaries (defaults to paper scale).
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        if quick {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }
}

/// Writes an experiment's JSON artifact under `results/` (best effort —
/// rendering to stdout is the primary output).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(json) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(path, json);
        }
    }
}

/// Evaluates `f(0..n)` across `threads` worker threads, preserving index
/// order. Falls back to a sequential map for one thread or one job.
pub(crate) fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if j >= n {
                    break;
                }
                let r = f(j);
                *slots[j].lock().expect("no poisoning: workers do not panic") = Some(r);
            });
        }
    })
    .expect("worker threads do not panic");
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("not poisoned")
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales() {
        let q = Scale::quick();
        assert_eq!(q.corpus_spec.total_files, 600);
        let samples = q.samples();
        assert!(samples.len() < 100, "quick scale caps samples: {}", samples.len());
        // Every (family, class) pair present in the full set survives.
        let full = Scale::paper().samples();
        assert_eq!(full.len(), 492);
        use std::collections::HashSet;
        let full_pairs: HashSet<_> = full.iter().map(|s| (s.family, s.class)).collect();
        let quick_pairs: HashSet<_> = samples.iter().map(|s| (s.family, s.class)).collect();
        assert_eq!(full_pairs, quick_pairs);
    }

    #[test]
    fn quick_corpus_generates() {
        let c = Scale::quick().corpus();
        assert_eq!(c.file_count(), 600);
        assert_eq!(c.dir_count(), 60);
    }
}
