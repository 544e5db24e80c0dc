//! Shared fixtures for the Criterion benchmark suite.
//!
//! Every paper table and figure has a corresponding bench target (see the
//! crate's `benches/` directory); this library provides the corpus and
//! configuration fixtures they share so Criterion's measurement loops
//! don't pay generation costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cryptodrop::Config;
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::{paper_sample_set, RansomwareSample};
use cryptodrop_vfs::{OpenOptions, ProcessId, Vfs};

/// The corpus size used by the benchmark suite: large enough for the
/// detection dynamics (small-file tail, type diversity, deep tree) while
/// keeping Criterion iterations affordable.
pub fn bench_corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(800, 80))
}

/// The engine configuration matching [`bench_corpus`].
pub fn bench_config(corpus: &Corpus) -> Config {
    Config::protecting(corpus.root().as_str())
}

/// One read-modify-write-close cycle over up to 20 corpus documents,
/// writing back the bytes it read: the steady-state editor save the
/// engine's snapshot cache is built for, shared by every bench that
/// times it.
pub fn modify_cycle(fs: &mut Vfs, pid: ProcessId, corpus: &Corpus) {
    for f in corpus.files().iter().take(20) {
        if f.read_only {
            continue;
        }
        let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
            continue;
        };
        let data = fs.read_to_end(pid, h).unwrap_or_default();
        let _ = fs.seek(pid, h, 0);
        let _ = fs.write(pid, h, &data);
        let _ = fs.close(pid, h);
    }
}

/// One representative sample per (family, class) — 25 samples covering
/// every behaviour in Table I.
pub fn representative_samples() -> Vec<RansomwareSample> {
    paper_sample_set()
        .into_iter()
        .filter(|s| s.index == 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_consistent() {
        let corpus = bench_corpus();
        assert_eq!(corpus.file_count(), 800);
        let cfg = bench_config(&corpus);
        assert!(cfg.is_protected(corpus.root()));
        let reps = representative_samples();
        assert_eq!(reps.len(), 25, "one per (family, class) pair");
    }
}
