//! `editor_save`: the desktop steady state.
//!
//! One long-lived session, pipelined asynchronously, and one editor
//! process saving corpus files. Each round is an episode on a fresh
//! machine: warm-up saves fill the caches, then the timed saves run, then
//! the pipeline backlog is drained and reconciled. 80% of saves go to a
//! hot 10% of the files; a save rewrites the file unchanged (70%), edits
//! one byte mid-file (20%) or appends a line (10%). The stamp-skip and
//! delta close tiers, the hot snapshot cache, the async queue and the
//! growing shadow store do the work, while the indicator kernels are
//! nearly idle. It is the only workload that exercises the pipeline.

use std::time::Instant;

use cryptodrop::{Backpressure, PipelineConfig};
use cryptodrop_corpus::Corpus;
use cryptodrop_vfs::{OpenOptions, ProcessId, VPath, Vfs, VfsResult};

use super::{digest, round_seed, session_builder, Pass, PassCfg, Rng};
use crate::trace::{self, layer};

/// The editor's pipeline: asynchronous, one worker, never blocking the
/// editor.
pub fn pipeline() -> PipelineConfig {
    PipelineConfig {
        workers: 1,
        backpressure: Backpressure::DegradeToInline,
        ..PipelineConfig::default()
    }
}

/// What one save does to the file.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Unchanged,
    MidByte(u8),
    Append,
}

impl Edit {
    /// Applies the edit to the file's bytes. A mid-file edit keeps text
    /// text: an ASCII byte becomes another letter, any other byte flips
    /// its lowest bit.
    fn apply(self, bytes: &mut Vec<u8>, n: u32) {
        match self {
            Edit::Unchanged => {}
            Edit::MidByte(k) if !bytes.is_empty() => {
                let mid = bytes.len() / 2;
                let b = &mut bytes[mid];
                *b = if b.is_ascii() {
                    let letter = b'a' + k % 26;
                    if letter == *b {
                        b'a' + (k % 26 + 1) % 26
                    } else {
                        letter
                    }
                } else {
                    *b ^ 1
                };
            }
            Edit::MidByte(_) | Edit::Append => {
                bytes.extend_from_slice(format!("\nsave {n}: revised paragraph\n").as_bytes());
            }
        }
    }
}

/// The editor's files: the writable corpus files, hot tenth first.
struct Files<'a> {
    paths: Vec<&'a VPath>,
    originals: Vec<&'a [u8]>,
    hot: usize,
}

impl<'a> Files<'a> {
    /// The hot tenth is every tenth file by size, so its bytes — and the
    /// cost of a save — track the corpus as a whole rather than a few
    /// large or small files the seed happened to pick.
    fn new(corpus: &'a Corpus, rng: &mut Rng) -> Self {
        let mut writable: Vec<_> = corpus.files().iter().filter(|f| !f.read_only).collect();
        rng.shuffle(&mut writable);
        writable.sort_by_key(|f| f.data.len());
        let (hot, cold): (Vec<_>, Vec<_>) = writable
            .into_iter()
            .enumerate()
            .partition(|(rank, _)| rank % 10 == 0);
        let mut ordered: Vec<_> = hot.iter().chain(&cold).map(|&(_, f)| f).collect();
        rng.shuffle(&mut ordered[..hot.len()]);
        Self {
            hot: hot.len(),
            paths: ordered.iter().map(|f| &f.path).collect(),
            originals: ordered.iter().map(|f| f.data.as_slice()).collect(),
        }
    }

    /// Draws the next save: which file, and what edit.
    fn draw(&self, rng: &mut Rng) -> (usize, Edit) {
        let file = if rng.below(10) < 8 {
            rng.below(self.hot)
        } else {
            rng.below(self.paths.len())
        };
        let edit = match rng.below(10) {
            0..=6 => Edit::Unchanged,
            7 | 8 => Edit::MidByte(1 + rng.below(255) as u8),
            _ => Edit::Append,
        };
        (file, edit)
    }
}

/// One open → read → write → close cycle: the editor reads the file,
/// checks it against its own `model` of the bytes, applies `edit` to the
/// model and writes the whole file back. Returns whether the read matched.
fn save(
    fs: &mut Vfs,
    pid: ProcessId,
    path: &VPath,
    model: &mut Vec<u8>,
    edit: Edit,
    n: u32,
) -> VfsResult<bool> {
    let h = trace::span(layer::VFS_OPEN, || {
        fs.open(pid, path, OpenOptions::modify())
    })?;
    let saved = trace::span(layer::VFS_READ, || fs.read_to_end(pid, h)).and_then(|data| {
        let matched = data == *model;
        edit.apply(model, n);
        fs.seek(pid, h, 0)?;
        trace::span(layer::VFS_WRITE, || fs.write(pid, h, model))?;
        Ok(matched)
    });
    trace::span(layer::VFS_CLOSE, || fs.close(pid, h))?;
    saved
}

/// Runs one pass of `editor_save`.
pub fn run(cfg: &PassCfg) -> Pass {
    let mut pass = Pass::default();
    let (mut suspended, mut mismatched) = (0u32, 0usize);
    let started = Instant::now();
    while cfg.budget.more(pass.rounds, started) {
        let corpus = pass.corpus(cfg);
        let mut rng = Rng::new(round_seed(cfg.seed, pass.rounds));
        let files = Files::new(&corpus, &mut rng);
        let setup = Instant::now();
        let mut fs = Vfs::new();
        corpus
            .stage_into(&mut fs)
            .expect("staging a generated corpus into an empty filesystem cannot fail");
        let session = session_builder(corpus.root(), cfg.traced)
            .pipeline_config(pipeline())
            .build()
            .expect("the default config is valid");
        session.attach(&mut fs);
        let pid = fs.spawn_process("editor.exe");
        let mut model: Vec<Vec<u8>> = files.originals.iter().map(|d| d.to_vec()).collect();
        let mut n = 0u32;
        trace::paused(|| {
            for _ in 0..cfg.scale.warmup_saves {
                let (i, edit) = files.draw(&mut rng);
                match save(&mut fs, pid, files.paths[i], &mut model[i], edit, n) {
                    Ok(matched) => mismatched += usize::from(!matched),
                    Err(_) => pass.failed += 1,
                }
                n += 1;
            }
        });
        pass.warmup_requests += u64::from(cfg.scale.warmup_saves);
        // Timing starts here: spans and the timing wrappers cover the
        // timed saves only.
        if cfg.traced {
            trace::instrument(&mut fs);
        }
        fs.reset_latency_ledger();
        pass.setup_ns.push(setup.elapsed().as_nanos() as u64);

        for _ in 0..cfg.scale.timed_saves {
            let (i, edit) = files.draw(&mut rng);
            let path = files.paths[i];
            let model = &mut model[i];
            match pass.timed_request(|| save(&mut fs, pid, path, model, edit, n)) {
                Ok(matched) => mismatched += usize::from(!matched),
                Err(_) => pass.failed += 1,
            }
            n += 1;
        }
        let ((), drain_ns) = pass.timed_region(layer::DRAIN, || session.drain());
        pass.counters.backlog_drain_ns.push(drain_ns);
        pass.ops += fs.latency_ledger().total_ops();
        pass.sample_rss();

        session.reconcile(&mut fs);
        suspended += u32::from(fs.is_suspended(pid));
        mismatched += files
            .paths
            .iter()
            .zip(&model)
            .filter(|(path, bytes)| fs.admin().read_file(path).ok().as_ref() != Some(*bytes))
            .count();
        pass.verdicts.push(digest(&session.detections()));
        pass.counters.add_session(&session);
        pass.rounds += 1;
    }

    let saves = (pass.request_ns.len() as u64 + pass.warmup_requests).max(1);
    pass.outcomes = vec![
        ("false_positives", f64::from(suspended), "count"),
        ("error_frac", pass.failed as f64 / saves as f64, "ratio"),
    ];
    pass.check(
        "editor_save.never_suspended",
        suspended == 0,
        format!(
            "editor suspended in {suspended} of {} episodes",
            pass.rounds
        ),
    );
    pass.check(
        "editor_save.bytes_match_model",
        mismatched == 0,
        format!("{mismatched} reads or final files differ from the editor's model"),
    );
    pass.check(
        "editor_save.saves_succeed",
        pass.failed == 0,
        format!("{} saves returned an error", pass.failed),
    );
    pass
}
