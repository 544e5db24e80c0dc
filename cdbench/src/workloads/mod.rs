//! The four paper workloads and what they share.
//!
//! Every workload uses the default `Config` protecting the corpus root,
//! recovery on, and the deterministic clock, so verdicts and simulated
//! timestamps repeat exactly. Each is a closed loop of one driving thread
//! (the editor's pipeline adds one worker thread). Work comes in *rounds*
//! of a fixed size — a set of actor runs, or one long-lived episode — and
//! a pass repeats rounds until its budget is spent, so every round
//! measures the same amount of work however fast the program is.

pub mod benign;
pub mod editor;
pub mod fleet;
pub mod table1;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use cryptodrop::{
    CacheStats, Config, CryptoDrop, DetectionReport, PipelineStats, Session, SessionBuilder,
    ShadowConfig, ShadowStats, Telemetry,
};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_telemetry::MetricsSnapshot;
use cryptodrop_vfs::{VPath, Vfs};

use crate::report::Check;
use crate::trace;

/// The workloads. Their names are stable: results are compared by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All of Table I's samples, one fresh machine each, restore after
    /// suspension.
    Table1Replay,
    /// The 30 benign applications of §V-F, one fresh machine each.
    BenignSuite,
    /// One long-lived pipelined session and one editor saving files.
    EditorSave,
    /// 100 tenants over one shared copy-on-write corpus.
    FleetSteady,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Table1Replay,
        Workload::BenignSuite,
        Workload::EditorSave,
        Workload::FleetSteady,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Replay => "table1_replay",
            Workload::BenignSuite => "benign_suite",
            Workload::EditorSave => "editor_save",
            Workload::FleetSteady => "fleet_steady",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::smoke`] runs every code path in well under a second for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Corpus files (table1_replay, benign_suite, editor_save).
    pub files: usize,
    /// Corpus directories.
    pub dirs: usize,
    /// (family, class) groups replayed per table1_replay round.
    pub sample_groups: usize,
    /// Applications per benign_suite round.
    pub apps: usize,
    /// Editor saves before timing starts, per episode.
    pub warmup_saves: u32,
    /// Timed editor saves per episode.
    pub timed_saves: u32,
    /// Fleet tenants.
    pub tenants: u32,
    /// Files of the fleet's shared corpus.
    pub fleet_files: usize,
    /// Editor append saves per editor tenant.
    pub editor_rounds: u32,
    /// Reads per reader tenant.
    pub reader_rounds: u32,
}

impl Scale {
    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            files: 800,
            dirs: 80,
            sample_groups: usize::MAX,
            apps: usize::MAX,
            warmup_saves: 2_000,
            timed_saves: 12_000,
            tenants: 100,
            fleet_files: 80,
            editor_rounds: 30,
            reader_rounds: 60,
        }
    }

    /// Sizes for tests: every path, little work.
    pub fn smoke() -> Self {
        Self {
            files: 160,
            dirs: 20,
            sample_groups: 4,
            apps: 6,
            warmup_saves: 40,
            timed_saves: 200,
            tenants: 10,
            fleet_files: 16,
            editor_rounds: 6,
            reader_rounds: 8,
        }
    }
}

/// How much work a pass does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// As many rounds as fit in this much wall time (at least one).
    Time(Duration),
    /// Exactly this many rounds.
    Rounds(u32),
}

impl Budget {
    /// Whether to start another round after `done` rounds: under a time
    /// budget, only when at least half of a round as long as the average
    /// so far still fits, so a pass ends as near its budget as whole
    /// rounds allow.
    fn more(self, done: u32, started: Instant) -> bool {
        match self {
            Budget::Time(d) => {
                let elapsed = started.elapsed();
                done == 0 || elapsed + elapsed / (2 * done) < d
            }
            Budget::Rounds(n) => done < n,
        }
    }
}

/// How one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct PassCfg {
    /// Drives the corpus, the benign rounds, the editor's draws and the
    /// fleet traces.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Work to do.
    pub budget: Budget,
    /// Wrap filters and shadow sinks in the timing wrappers and enable
    /// engine telemetry.
    pub traced: bool,
    /// Also run the untimed cross-checks against reference replays. One
    /// pass per run does; its repeats need not.
    pub cross_check: bool,
}

/// Counters the program exports, summed over every session of a pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Snapshot-cache counters.
    pub cache: CacheStats,
    /// Shadow-store counters; `entries`, `bytes_held` and
    /// `pinned_entries` hold the largest value any session ended with.
    pub shadow: ShadowStats,
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Every session's metric registry, merged.
    pub registry: MetricsSnapshot,
    /// `Session::restore` calls.
    pub restores: u64,
    /// Summed restore time.
    pub restore_ns: u64,
    /// Files the restores returned to their pre-attack bytes.
    pub files_restored: u64,
    /// End-of-episode `Session::drain` times.
    pub backlog_drain_ns: Vec<u64>,
    /// `Fleet::spawn` times.
    pub spawn_ns: Vec<u64>,
    /// Private bytes per tenant at the end of each fleet episode.
    pub private_bytes_per_tenant: Vec<f64>,
    /// Shared corpus bytes resident in the fleet.
    pub corpus_bytes: u64,
}

impl Counters {
    /// Adds one session's counters.
    pub fn add_session(&mut self, session: &Session) {
        let c = session.cache_stats();
        self.cache.hits += c.hits;
        self.cache.misses += c.misses;
        self.cache.evictions += c.evictions;
        if let Some(store) = session.shadow_store() {
            let s = store.stats();
            let t = &mut self.shadow;
            t.captures += s.captures;
            t.coalesced += s.coalesced;
            t.dedup_hits += s.dedup_hits;
            t.evictions += s.evictions;
            t.pin_overflows += s.pin_overflows;
            t.entries = t.entries.max(s.entries);
            t.bytes_held = t.bytes_held.max(s.bytes_held);
            t.pinned_entries = t.pinned_entries.max(s.pinned_entries);
        }
        let p = session.pipeline_stats();
        let t = &mut self.pipeline;
        t.enqueued += p.enqueued;
        t.processed += p.processed;
        t.degraded += p.degraded;
        t.batches += p.batches;
        self.registry
            .merge(&session.telemetry().metrics().snapshot());
    }
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Rounds completed.
    pub rounds: u32,
    /// Wall time of each request: one actor run or one open → close cycle.
    pub request_ns: Vec<u64>,
    /// Wall time of each timed region outside a request (a restore or a
    /// backlog drain).
    pub region_ns: Vec<u64>,
    /// Filtered VFS operations, from the `Vfs` latency ledgers.
    pub ops: u64,
    /// Corpus generation time, one entry per round.
    pub corpus_ns: Vec<u64>,
    /// Time to build each environment (staging, session or fleet build,
    /// editor warm-up).
    pub setup_ns: Vec<u64>,
    /// Each round's largest resident set size, in KiB, sampled after
    /// each actor run or at the end of each episode.
    pub rss_kib: Vec<u64>,
    /// Requests served before timing started (editor warm-up saves). The
    /// program's own counters cover them too.
    pub warmup_requests: u64,
    /// Requests that returned an unexpected error.
    pub failed: u64,
    /// One digest per request or tenant of the verdicts it produced.
    pub verdicts: Vec<u64>,
    /// Workload-specific outcomes: (name, value, unit).
    pub outcomes: Vec<(&'static str, f64, &'static str)>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Counters the program exports.
    pub counters: Counters,
}

impl Pass {
    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Generates the current round's corpus, timing it as set-up.
    pub fn corpus(&mut self, cfg: &PassCfg) -> Corpus {
        let started = Instant::now();
        let corpus = Corpus::generate(&corpus_spec(cfg, self.rounds));
        self.corpus_ns.push(started.elapsed().as_nanos() as u64);
        corpus
    }

    /// Samples the resident set size into the current round's maximum.
    pub fn sample_rss(&mut self) {
        let kib = crate::report::resident_kib();
        match self.rss_kib.get_mut(self.rounds as usize) {
            Some(max) => *max = (*max).max(kib),
            None => self.rss_kib.push(kib),
        }
    }

    /// Times one request; its spans carry the request's index as id.
    pub fn timed_request<R>(&mut self, f: impl FnOnce() -> R) -> R {
        trace::set_request(self.request_ns.len() as u32);
        let started = Instant::now();
        let out = trace::span(trace::layer::REQUEST, f);
        self.request_ns.push(started.elapsed().as_nanos() as u64);
        out
    }

    /// Times a non-request region that still counts as measured time
    /// (a restore or a backlog drain) inside a span of `layer`.
    pub fn timed_region<R>(&mut self, layer: u8, f: impl FnOnce() -> R) -> (R, u64) {
        let started = Instant::now();
        let out = trace::span(layer, f);
        let ns = started.elapsed().as_nanos() as u64;
        self.region_ns.push(ns);
        (out, ns)
    }

    /// Summed time of every timed request and region.
    pub fn timed_ns(&self) -> u64 {
        self.request_ns.iter().chain(&self.region_ns).sum()
    }

    /// Folds in `repeat`, a second pass over the same rounds: every
    /// request, region, set-up, corpus and round keeps the smaller of its
    /// two measurements. Returns whether `repeat` did the same work and
    /// reached the same verdicts; the measurements are kept only then.
    pub fn keep_fastest(&mut self, repeat: &Pass) -> bool {
        let same = self.rounds == repeat.rounds
            && self.ops == repeat.ops
            && self.verdicts == repeat.verdicts
            && self.request_ns.len() == repeat.request_ns.len()
            && self.region_ns.len() == repeat.region_ns.len()
            && self.setup_ns.len() == repeat.setup_ns.len()
            && self.rss_kib.len() == repeat.rss_kib.len();
        if same {
            for (mine, theirs) in [
                (&mut self.request_ns, &repeat.request_ns),
                (&mut self.region_ns, &repeat.region_ns),
                (&mut self.corpus_ns, &repeat.corpus_ns),
                (&mut self.setup_ns, &repeat.setup_ns),
                (&mut self.rss_kib, &repeat.rss_kib),
            ] {
                for (m, &t) in mine.iter_mut().zip(theirs) {
                    *m = (*m).min(t);
                }
            }
        }
        same
    }
}

/// The seed of round `round`. Every round draws fresh inputs, so a run
/// averages over several corpora instead of measuring one.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    Rng::new(seed ^ u64::from(round).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The spec of round `round`'s corpus.
pub fn corpus_spec(cfg: &PassCfg, round: u32) -> CorpusSpec {
    CorpusSpec {
        seed: round_seed(cfg.seed, round),
        ..CorpusSpec::sized(cfg.scale.files, cfg.scale.dirs)
    }
}

/// A session builder with the shared set-up: the default `Config`
/// protecting `root`, recovery on, deterministic clock. Traced passes
/// also enable engine telemetry for the `engine.*` counters and
/// histograms.
pub fn session_builder(root: &VPath, traced: bool) -> SessionBuilder {
    let builder = CryptoDrop::builder()
        .config(Config::protecting(root.clone()))
        .recovery(ShadowConfig::default())
        .deterministic_clock();
    if traced {
        builder.telemetry(Telemetry::new(JOURNAL_CAPACITY))
    } else {
        builder
    }
}

/// Journal events a traced session keeps: the benchmark reads only the
/// metric registry, so the journal stays small.
pub const JOURNAL_CAPACITY: usize = 256;

/// Attaches `session` to `fs`, adding the timing wrappers when traced.
pub fn attach(session: &Session, fs: &mut Vfs, traced: bool) {
    session.attach(fs);
    if traced {
        trace::instrument(fs);
    }
}

/// A stable digest of a set of detections, for comparing two passes.
pub fn digest(detections: &[DetectionReport]) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{detections:?}").hash(&mut h);
    h.finish()
}

/// SplitMix64: a small seeded generator for the workloads' draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_fastest_takes_each_minimum_only_from_the_same_work() {
        let mut first = Pass {
            rounds: 1,
            request_ns: vec![5, 2],
            region_ns: vec![7],
            corpus_ns: vec![9],
            setup_ns: vec![4],
            rss_kib: vec![100],
            ops: 3,
            verdicts: vec![1],
            ..Pass::default()
        };
        let repeat = Pass {
            request_ns: vec![3, 4],
            region_ns: vec![6],
            corpus_ns: vec![1],
            setup_ns: vec![8],
            rss_kib: vec![90],
            ..first.clone()
        };
        assert!(first.keep_fastest(&repeat));
        assert_eq!(first.request_ns, [3, 2]);
        assert_eq!(first.region_ns, [6]);
        assert_eq!(first.corpus_ns, [1]);
        assert_eq!(first.setup_ns, [4]);
        assert_eq!(first.rss_kib, [90]);
        assert_eq!(first.timed_ns(), 11);

        let other_verdicts = Pass {
            request_ns: vec![1, 1],
            verdicts: vec![2],
            ..repeat
        };
        assert!(!first.keep_fastest(&other_verdicts));
        assert_eq!(first.request_ns, [3, 2]);
    }
}
