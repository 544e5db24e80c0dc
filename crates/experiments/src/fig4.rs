//! Figure 4: per-family directory-traversal footprints.
//!
//! The paper visualizes, for TeslaCrypt (Class A, depth-first),
//! CTB-Locker (Class B, size-ascending), and GPcode (Class C, root-down),
//! which directories of the corpus tree saw a file read or written before
//! CryptoDrop stopped the sample. We reproduce the footprint as the
//! ordered sequence of first-touched directories with their depths, which
//! captures the same traversal signatures.

use cryptodrop::{Config, CryptoDrop};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{paper_sample_set, BehaviorClass, Family};
use cryptodrop_vfs::{VPath, Vfs};
use serde::{Deserialize, Serialize};

use crate::runner::TraceRecorder;

/// One representative sample's traversal footprint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraversalFootprint {
    /// Family name.
    pub family: String,
    /// Behaviour class of the representative sample.
    pub class: BehaviorClass,
    /// Total directories in the corpus.
    pub dirs_total: usize,
    /// Directories where a file was read or written before detection.
    pub dirs_touched: usize,
    /// First-touch order of directories (paths relative to the corpus
    /// root).
    pub touch_order: Vec<String>,
    /// The tree depth (below the corpus root) of each first touch.
    pub touch_depths: Vec<usize>,
    /// Files lost before detection.
    pub files_lost: u32,
    /// Whether the sample was detected.
    pub detected: bool,
}

impl TraversalFootprint {
    /// Mean depth of the first five directory touches — the discriminator
    /// between depth-first (high) and root-down (low) traversals.
    pub fn early_depth_mean(&self) -> f64 {
        let head: Vec<usize> = self.touch_depths.iter().copied().take(5).collect();
        if head.is_empty() {
            0.0
        } else {
            head.iter().sum::<usize>() as f64 / head.len() as f64
        }
    }
}

/// The reproduced Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4 {
    /// One footprint per family examined.
    pub footprints: Vec<TraversalFootprint>,
}

/// The three families the paper's figure examines, in figure order.
pub const FIG4_FAMILIES: [Family; 3] = [Family::TeslaCrypt, Family::CtbLocker, Family::Gpcode];

/// Runs one representative sample of each requested family and captures
/// its traversal footprint.
pub fn run(corpus: &Corpus, config: &Config, families: &[Family]) -> Fig4 {
    let samples = paper_sample_set();
    let mut footprints = Vec::new();
    for &family in families {
        let sample = samples
            .iter()
            .find(|s| s.family == family)
            .expect("every family has at least one sample");
        let mut fs = Vfs::new();
        corpus.stage_into(&mut fs).expect("fresh filesystem");
        let session = CryptoDrop::builder()
            .config(config.clone())
            .build()
            .expect("experiment configs are valid");
        fs.register_filter(Box::new(session.fork()));
        let root = corpus.root();
        let recorder = TraceRecorder::attach(&mut fs, root);
        let ctx = cryptodrop_vfs::WorkloadCtx::spawn(&mut fs, sample, root, sample.seed());
        let pid = ctx.pid();
        cryptodrop_vfs::Workload::drive(sample, &mut fs, &ctx);

        let touch_order: Vec<String> = recorder
            .take()
            .dirs
            .iter()
            .map(|dir| match dir.strip_prefix(root) {
                Some("") => ".".to_string(),
                Some(rel) => rel.to_string(),
                None => dir.as_str().to_string(),
            })
            .collect();
        let touch_depths: Vec<usize> = touch_order
            .iter()
            .map(|rel| {
                if rel == "." {
                    0
                } else {
                    VPath::new(format!("/{rel}")).depth()
                }
            })
            .collect();
        footprints.push(TraversalFootprint {
            family: family.name().to_string(),
            class: sample.class,
            dirs_total: corpus.dir_count(),
            dirs_touched: touch_order.len(),
            files_lost: session.files_lost(pid),
            detected: fs.is_suspended(pid),
            touch_order,
            touch_depths,
        });
    }
    Fig4 { footprints }
}

impl Fig4 {
    /// Renders the per-family footprints.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Figure 4 — directory-traversal footprints before detection\n",
        );
        for f in &self.footprints {
            out.push_str(&format!(
                "\n{} ({}) — touched {}/{} directories, {} files lost, detected: {}\n",
                f.family, f.class, f.dirs_touched, f.dirs_total, f.files_lost, f.detected
            ));
            out.push_str(&format!(
                "  early mean depth {:.1}; first touches (depth): ",
                f.early_depth_mean()
            ));
            let head: Vec<String> = f
                .touch_order
                .iter()
                .zip(&f.touch_depths)
                .take(8)
                .map(|(d, depth)| format!("{d} ({depth})"))
                .collect();
            out.push_str(&head.join(", "));
            out.push('\n');
        }
        out.push_str(
            "\nPaper: TeslaCrypt walks depth-first and starts at the deepest directory; \
             CTB-Locker follows ascending file size regardless of directory; GPcode starts \
             at the root and moves down.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_corpus::CorpusSpec;

    #[test]
    fn traversal_signatures_are_distinguishable() {
        let corpus = Corpus::generate(&CorpusSpec::sized(220, 40));
        let config = Config::protecting(corpus.root().as_str());
        let fig = run(&corpus, &config, &[Family::TeslaCrypt, Family::Gpcode]);
        assert_eq!(fig.footprints.len(), 2);
        let tesla = &fig.footprints[0];
        let gpcode = &fig.footprints[1];
        assert!(tesla.detected && gpcode.detected);
        assert!(tesla.dirs_touched >= 1);
        // TeslaCrypt's depth-first start digs deeper than GPcode's
        // root-down sweep.
        assert!(
            tesla.early_depth_mean() > gpcode.early_depth_mean(),
            "tesla {:.2} vs gpcode {:.2}",
            tesla.early_depth_mean(),
            gpcode.early_depth_mean()
        );
        let out = fig.render();
        assert!(out.contains("TeslaCrypt"));
        assert!(out.contains("GPcode"));
    }
}
