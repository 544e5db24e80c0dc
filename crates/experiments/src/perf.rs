//! §V-H: the per-operation latency the CryptoDrop filter adds.
//!
//! The paper's unoptimized prototype adds <1 ms to opens and reads,
//! 1.58 ms to closes, 9 ms to writes, and 16 ms to renames — the ordering
//! (rename > write ≫ close > open/read) follows from where the analysis
//! work happens: snapshots at open/rename/delete pre-ops, full content
//! evaluation at close and rename-replace. We reproduce the *shape* by
//! measuring real wall-clock time inside the filter callbacks, per
//! operation kind; absolute values differ (in-memory filesystem, modern
//! hardware, optimized build). One divergence is by design: a
//! rename-replace whose moved copy was just closed reuses the snapshot
//! that close captured, so here the close carries the content analysis
//! and such a rename stays cheaper than a close.

use cryptodrop::{Config, CryptoDrop};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{paper_sample_set, Family};
use cryptodrop_vfs::{OpKind, OpenOptions, Vfs};
use serde::{Deserialize, Serialize};

use crate::report::TextTable;

/// One operation kind's measured filter overhead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRow {
    /// Operation kind name.
    pub op: String,
    /// Operations measured.
    pub count: u64,
    /// Mean added latency, microseconds.
    pub mean_us: f64,
    /// Maximum added latency, microseconds.
    pub max_us: f64,
    /// The paper's reported added latency for this kind, microseconds
    /// (where reported).
    pub paper_us: Option<f64>,
}

/// The reproduced §V-H table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfTable {
    /// Measured rows, in a stable kind order.
    pub rows: Vec<PerfRow>,
}

/// The paper's added-latency values in microseconds, by op kind.
fn paper_value(kind: OpKind) -> Option<f64> {
    match kind {
        OpKind::Open | OpKind::Read => Some(1_000.0), // "< 1 ms"
        OpKind::Close => Some(1_580.0),
        OpKind::Write => Some(9_000.0),
        OpKind::Rename => Some(16_000.0),
        _ => None,
    }
}

/// Drives a mixed workload (benign edits + a ransomware sample up to
/// detection) through an armed filesystem and reports the filter overhead
/// per operation kind.
pub fn run(corpus: &Corpus, config: &Config) -> PerfTable {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("fresh filesystem");
    let session = CryptoDrop::builder()
        .config(config.clone())
        .build()
        .expect("experiment configs are valid");
    fs.register_filter(Box::new(session.fork()));

    // A benign process reads, modifies, and renames documents to exercise
    // every op kind under realistic conditions.
    let pid = fs.spawn_process("workload.exe");
    let root = corpus.root().clone();
    let files: Vec<_> = corpus.files().iter().take(120).collect();
    for (i, f) in files.iter().enumerate() {
        let _ = fs.read_file(pid, &f.path);
        if i % 3 == 0 && !f.read_only {
            if let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) {
                let data = fs.read_to_end(pid, h).unwrap_or_default();
                let _ = fs.seek(pid, h, 0);
                let _ = fs.write(pid, h, &data);
                let _ = fs.close(pid, h);
            }
        }
        if i % 7 == 0 && !f.read_only {
            // The safe-save pattern: write a sibling, rename it over the
            // original — the paper's most expensive operation class. The
            // rename-replace evaluates the content against the snapshot
            // the sibling's close captured.
            let staged = f.path.with_appended_suffix(".new");
            let _ = fs.write_file(pid, &staged, &f.data);
            let _ = fs.rename(pid, &staged, &f.path, true);
        }
        if i % 11 == 0 && !f.read_only {
            let _ = fs.delete(pid, &f.path);
        }
    }
    let _ = fs.list_dir(pid, &root);

    // A ransomware sample up to detection adds the adversarial op mix.
    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == Family::TeslaCrypt)
        .expect("TeslaCrypt exists");
    cryptodrop_vfs::drive_workload(&mut fs, &sample, &root, sample.seed());

    let rows = OpKind::ALL
        .iter()
        .filter_map(|&kind| {
            let stat = fs.latency_ledger().stat(kind)?;
            Some(PerfRow {
                op: kind.to_string(),
                count: stat.count,
                mean_us: stat.mean_nanos() as f64 / 1_000.0,
                max_us: stat.max_nanos as f64 / 1_000.0,
                paper_us: paper_value(kind),
            })
        })
        .collect();
    PerfTable { rows }
}

impl PerfTable {
    /// The mean overhead for one op kind, if measured.
    pub fn mean_us(&self, op: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.op == op).map(|r| r.mean_us)
    }

    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Operation", "Count", "Mean added (µs)", "Max (µs)", "Paper (µs)"]);
        for r in &self.rows {
            t.row([
                r.op.clone(),
                r.count.to_string(),
                format!("{:.1}", r.mean_us),
                format!("{:.1}", r.max_us),
                r.paper_us
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        let mut out = String::from("§V-H — filter-added latency per operation kind\n\n");
        out.push_str(&t.render());
        out.push_str(
            "\nThe comparison is of *shape*: the paper's rename and write carry the \
             expensive content analysis; here close carries it, and a safe-save's \
             rename-replace reuses the snapshot its copy's close captured. Absolute \
             values differ (simulated in-memory volume vs the paper's unoptimized \
             debug build on 2016 hardware).\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_corpus::CorpusSpec;

    #[test]
    fn overhead_shape_matches_paper() {
        let corpus = Corpus::generate(&CorpusSpec::sized(200, 25));
        let config = Config::protecting(corpus.root().as_str());
        let table = run(&corpus, &config);
        let get = |op: &str| table.mean_us(op).unwrap_or(0.0);
        // Every kind the workload exercises was measured.
        for op in ["open", "read", "write", "close", "rename", "delete"] {
            assert!(
                table.rows.iter().any(|r| r.op == op && r.count > 0),
                "{op} not measured"
            );
        }
        // The paper's shape: the operation class that carries content
        // analysis (the close-time evaluation; the paper's write/rename at
        // 9/16 ms vs sub-millisecond reads) dominates plain reads, which
        // only pay an entropy pass.
        assert!(
            get("close") > 2.0 * get("read"),
            "close {:.1}µs must dominate read {:.1}µs",
            get("close"),
            get("read")
        );
        // The safe-save's rename-replace reuses the snapshot its copy's
        // close captured instead of digesting the same bytes again, so it
        // costs well under a close.
        assert!(
            2.0 * get("rename") < get("close"),
            "rename {:.1}µs must stay well below close {:.1}µs",
            get("rename"),
            get("close")
        );
        assert!(table.render().contains("rename"));
    }
}
