//! Corpus generation and staging.

use std::collections::BTreeMap;

use cryptodrop_vfs::{Vfs, VfsResult, VPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::english::EnglishGenerator;
use crate::spec::CorpusSpec;
use crate::tree::generate_tree;

/// One generated corpus file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusFile {
    /// Absolute path under the corpus root.
    pub path: VPath,
    /// The file content (held by the template; staged by copy).
    pub data: Vec<u8>,
    /// Whether the file is marked read-only when staged.
    pub read_only: bool,
    /// The extension used when naming the file.
    pub extension: String,
    /// Whether this file is a decoy (bait): woven in by
    /// [`Corpus::with_decoys`], never part of the real document set, and
    /// meant to be registered with the detector so any modification is an
    /// instant detection.
    pub decoy: bool,
}

/// A generated document corpus: a reusable template that can be staged
/// into any number of fresh filesystems (one per experiment run).
///
/// # Examples
///
/// ```
/// use cryptodrop_corpus::{Corpus, CorpusSpec};
/// use cryptodrop_vfs::Vfs;
///
/// let corpus = Corpus::generate(&CorpusSpec::sized(100, 12));
/// assert_eq!(corpus.file_count(), 100);
///
/// let mut fs = Vfs::new();
/// corpus.stage_into(&mut fs).unwrap();
/// assert_eq!(fs.file_count(), 100);
/// assert_eq!(fs.dir_count(), corpus.dir_count() + 3); // +/Users, +/Users/victim, +/
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Corpus {
    root: VPath,
    files: Vec<CorpusFile>,
    dirs: Vec<VPath>,
}

impl Corpus {
    /// Generates a corpus from a spec. Deterministic per spec.
    pub fn generate(spec: &CorpusSpec) -> Corpus {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let dirs = generate_tree(&mut rng, &spec.root, spec.total_dirs.max(1));
        let mut namer = EnglishGenerator::new();
        let mut files = Vec::with_capacity(spec.total_files);
        let mut used: BTreeMap<VPath, ()> = BTreeMap::new();
        while files.len() < spec.total_files {
            let t = spec.pick_type(&mut rng);
            let dir = &dirs[rng.gen_range(0..dirs.len())];
            let mut path = dir.join(format!("{}.{}", namer.file_stem(&mut rng), t.extension));
            // Resolve name collisions deterministically.
            while used.contains_key(&path) {
                path = dir.join(format!("{}.{}", namer.file_stem(&mut rng), t.extension));
            }
            used.insert(path.clone(), ());
            let size = t.sample_size(&mut rng);
            let data = t.generator.generate(&mut rng, size);
            let read_only = rng.gen_bool(spec.read_only_fraction);
            files.push(CorpusFile {
                path,
                data,
                read_only,
                extension: t.extension.clone(),
                decoy: false,
            });
        }
        Corpus {
            root: spec.root.clone(),
            files,
            dirs,
        }
    }

    /// Stages the corpus into a filesystem via unfiltered admin writes
    /// (the experimental setup phase — no monitored process is involved).
    ///
    /// # Errors
    ///
    /// Propagates [`cryptodrop_vfs::VfsError`] if staging collides with
    /// existing content.
    pub fn stage_into(&self, fs: &mut Vfs) -> VfsResult<()> {
        for dir in &self.dirs {
            fs.admin().create_dir_all(dir)?;
        }
        for f in &self.files {
            fs.admin().write_file(&f.path, &f.data)?;
            if f.read_only {
                fs.admin().set_read_only(&f.path, true)?;
            }
        }
        Ok(())
    }

    /// A copy of this corpus without files smaller than `min_size` bytes —
    /// the paper's §V-C ablation ("we reran one of these samples with a
    /// corpus missing all of the files with sizes < 512B").
    pub fn without_small_files(&self, min_size: usize) -> Corpus {
        Corpus {
            root: self.root.clone(),
            files: self
                .files
                .iter()
                .filter(|f| f.data.len() >= min_size)
                .cloned()
                .collect(),
            dirs: self.dirs.clone(),
        }
    }

    /// A copy of this corpus with `count` decoy (bait) files woven in.
    ///
    /// Decoys look like real user documents — bait stems ("passwords",
    /// "tax_return", ...) with content from the spec's own type mix, so
    /// their magic numbers and entropy profiles are indistinguishable
    /// from the surrounding corpus — and half of them carry a leading
    /// underscore so an in-order directory walker meets bait before real
    /// documents. Deterministic per spec seed; the real files are
    /// untouched, so detector behavior on them is unchanged. Register
    /// the woven paths with the engine via
    /// [`decoy_paths`](Self::decoy_paths) (e.g.
    /// `cryptodrop::Config::with_decoys`).
    pub fn with_decoys(&self, spec: &CorpusSpec, count: usize) -> Corpus {
        /// Stems no legitimate workflow would modify but every
        /// data-hungry attacker wants.
        const DECOY_STEMS: &[&str] = &[
            "passwords",
            "backup_codes",
            "bank_statements",
            "tax_return_final",
            "bitcoin_wallet",
            "recovery_keys",
            "payroll_2016",
            "insurance_scans",
            "accounts",
            "family_records",
        ];
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xDEC0_17BA_17F1_1E55);
        let mut files = self.files.clone();
        let mut used: BTreeMap<VPath, ()> =
            files.iter().map(|f| (f.path.clone(), ())).collect();
        // Bait placement follows the attacker, not the user: a quarter of
        // the decoys sit in the traversal root (hit first by pre-order and
        // breadth-first walkers), a quarter in the deepest directory (hit
        // first by deepest-first walkers), and the rest are scattered so
        // shuffled and size-ordered sweeps meet bait mid-run too.
        let deepest = self
            .dirs
            .iter()
            .max_by_key(|d| (d.depth(), std::cmp::Reverse(d.as_str())))
            .unwrap_or(&self.root);
        for i in 0..count {
            let t = spec.pick_type(&mut rng);
            let dir = match i % 4 {
                0 => &self.root,
                1 => deepest,
                _ => &self.dirs[rng.gen_range(0..self.dirs.len())],
            };
            let stem = DECOY_STEMS[i % DECOY_STEMS.len()];
            // Half the decoys sort to the front of their directory.
            let name = if i % 2 == 0 {
                format!("_{stem}.{}", t.extension)
            } else {
                format!("{stem}.{}", t.extension)
            };
            let mut path = dir.join(&name);
            let mut bump = 0u32;
            while used.contains_key(&path) {
                bump += 1;
                path = dir.join(format!("{stem}_{bump}.{}", t.extension));
            }
            used.insert(path.clone(), ());
            let size = t.sample_size(&mut rng);
            let data = t.generator.generate(&mut rng, size);
            files.push(CorpusFile {
                path,
                data,
                read_only: false,
                extension: t.extension.clone(),
                decoy: true,
            });
        }
        Corpus {
            root: self.root.clone(),
            files,
            dirs: self.dirs.clone(),
        }
    }

    /// The paths of the woven decoy files (empty unless
    /// [`with_decoys`](Self::with_decoys) was used).
    pub fn decoy_paths(&self) -> impl Iterator<Item = &VPath> {
        self.files.iter().filter(|f| f.decoy).map(|f| &f.path)
    }

    /// Number of decoy files.
    pub fn decoy_count(&self) -> usize {
        self.files.iter().filter(|f| f.decoy).count()
    }

    /// Number of real (non-decoy) files — the denominator for
    /// files-lost metrics, which must never count sacrificial bait.
    pub fn real_file_count(&self) -> usize {
        self.files.len() - self.decoy_count()
    }

    /// The corpus root (the protected documents directory).
    pub fn root(&self) -> &VPath {
        &self.root
    }

    /// The generated files.
    pub fn files(&self) -> &[CorpusFile] {
        &self.files
    }

    /// The generated directories (including the root).
    pub fn dirs(&self) -> &[VPath] {
        &self.dirs
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of directories, including the root.
    pub fn dir_count(&self) -> usize {
        self.dirs.len()
    }

    /// Total content bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.data.len() as u64).sum()
    }

    /// The number of files smaller than `size` bytes.
    pub fn files_smaller_than(&self, size: usize) -> usize {
        self.files.iter().filter(|f| f.data.len() < size).count()
    }

    /// Counts files per extension.
    pub fn extension_histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for f in &self.files {
            *h.entry(f.extension.clone()).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_sniff::{sniff, FileType};

    fn small() -> Corpus {
        Corpus::generate(&CorpusSpec::sized(200, 25))
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = CorpusSpec::sized(50, 8);
        assert_eq!(Corpus::generate(&spec), Corpus::generate(&spec));
    }

    #[test]
    fn different_seed_differs() {
        let a = CorpusSpec::sized(50, 8);
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(Corpus::generate(&a), Corpus::generate(&b));
    }

    #[test]
    fn counts_match_spec() {
        let c = small();
        assert_eq!(c.file_count(), 200);
        assert_eq!(c.dir_count(), 25);
        assert!(c.total_bytes() > 0);
    }

    #[test]
    fn unique_paths_under_root() {
        let c = small();
        let set: std::collections::HashSet<_> = c.files().iter().map(|f| &f.path).collect();
        assert_eq!(set.len(), c.file_count());
        assert!(c.files().iter().all(|f| f.path.starts_with(c.root())));
    }

    #[test]
    fn staging_round_trip() {
        let c = small();
        let mut fs = Vfs::new();
        c.stage_into(&mut fs).unwrap();
        assert_eq!(fs.file_count(), c.file_count());
        for f in c.files().iter().take(20) {
            assert_eq!(fs.admin().read_file(&f.path).unwrap(), f.data);
            assert_eq!(fs.admin().metadata(&f.path).unwrap().read_only, f.read_only);
        }
    }

    #[test]
    fn some_files_are_read_only() {
        let c = Corpus::generate(&CorpusSpec::sized(1000, 50));
        let ro = c.files().iter().filter(|f| f.read_only).count();
        assert!(ro > 5 && ro < 60, "read-only count {ro}");
    }

    #[test]
    fn small_file_population_exists() {
        let c = Corpus::generate(&CorpusSpec::sized(2000, 100));
        let tiny = c.files_smaller_than(512);
        assert!(tiny > 3, "expected a sub-512B population, got {tiny}");
        let filtered = c.without_small_files(512);
        assert_eq!(filtered.files_smaller_than(512), 0);
        assert_eq!(filtered.file_count(), c.file_count() - tiny);
        assert_eq!(filtered.dir_count(), c.dir_count());
    }

    #[test]
    fn contents_sniff_as_declared_types() {
        let c = small();
        for f in c.files() {
            let t = sniff(&f.data);
            let ok = match f.extension.as_str() {
                "pdf" => t == FileType::Pdf,
                "docx" => t == FileType::Docx,
                "xlsx" => t == FileType::Xlsx,
                "pptx" => t == FileType::Pptx,
                "odt" => t == FileType::Odt,
                "doc" => t == FileType::OleCompound,
                "rtf" => t == FileType::Rtf,
                "jpg" => t == FileType::Jpeg,
                "png" => t == FileType::Png,
                "gif" => t == FileType::Gif,
                "bmp" => t == FileType::Bmp,
                "mp3" => t == FileType::Mp3,
                "wav" => t == FileType::Wav,
                "zip" => t == FileType::Zip,
                "gz" => t == FileType::Gzip,
                "html" => t == FileType::Html,
                "xml" => t == FileType::Xml,
                "json" => t == FileType::Json,
                "csv" => t == FileType::Csv,
                "txt" | "md" | "log" => t == FileType::Utf8Text,
                other => panic!("unexpected extension {other}"),
            };
            assert!(ok, "{} sniffed as {t:?}", f.path);
        }
    }

    #[test]
    fn decoy_weaving_is_additive_and_deterministic() {
        let spec = CorpusSpec::sized(200, 25);
        let base = Corpus::generate(&spec);
        let baited = base.with_decoys(&spec, 12);
        // Additive: the real document set is byte-identical.
        assert_eq!(base.decoy_count(), 0);
        assert_eq!(baited.decoy_count(), 12);
        assert_eq!(baited.real_file_count(), base.file_count());
        assert_eq!(baited.file_count(), base.file_count() + 12);
        assert_eq!(&baited.files()[..base.file_count()], base.files());
        // Deterministic per seed.
        assert_eq!(baited, base.with_decoys(&spec, 12));
        // Unique paths under the root, realistic extensions from the mix.
        let set: std::collections::HashSet<_> =
            baited.files().iter().map(|f| &f.path).collect();
        assert_eq!(set.len(), baited.file_count());
        for p in baited.decoy_paths() {
            assert!(p.starts_with(baited.root()));
        }
        // Decoy content sniffs as its declared type, like any real file.
        for f in baited.files().iter().filter(|f| f.decoy) {
            assert_ne!(sniff(&f.data), FileType::Data, "{}", f.path);
        }
    }

    #[test]
    fn decoys_stage_like_real_files() {
        let spec = CorpusSpec::sized(100, 10);
        let baited = Corpus::generate(&spec).with_decoys(&spec, 6);
        let mut fs = Vfs::new();
        baited.stage_into(&mut fs).unwrap();
        assert_eq!(fs.file_count(), 106);
        for p in baited.decoy_paths() {
            assert!(fs.admin().metadata(p).is_ok());
        }
    }

    #[test]
    fn extension_histogram_sums_to_total() {
        let c = small();
        let h = c.extension_histogram();
        let sum: usize = h.values().sum();
        assert_eq!(sum, c.file_count());
        assert!(h.contains_key("pdf"));
    }
}
