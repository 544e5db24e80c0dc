//! Bench: the async batched analysis pipeline vs the PR 1 inline sharded
//! engine, measured as multi-process throughput (N concurrent writer
//! processes driving forks of one shared `Session`, one `Vfs` namespace
//! per thread) plus a producer-visible burst-absorption probe.
//!
//! Two engine modes are swept:
//!
//! * **inline** — the exact mode: every indicator evaluation runs on the
//!   calling thread inside the VFS callback.
//! * **degrade** — the async pipeline (`Backpressure::DegradeToInline`):
//!   the producer never waits; full analysis overlaps with the producer's
//!   next operations and a full queue degrades the producer to inline
//!   processing.
//!
//! The burst probe times the *producer-visible* cost of a write burst
//! under `degrade` with a deep queue — the latency a real application
//! thread would see while workers absorb the analysis — then times the
//! drain separately.
//!
//! Numbers are reported, not asserted: this container is frequently
//! single-core, where overlap cannot show a wall-clock win. Machine-
//! readable results go to `BENCH_pipeline.json` at the workspace root;
//! `--test` (the CI smoke mode) scales every loop to a single iteration.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use cryptodrop::{CryptoDrop, PipelineConfig, PipelineStats, Session};
use cryptodrop_bench::{bench_corpus, modify_cycle};
use cryptodrop_corpus::Corpus;
use cryptodrop_vfs::{OpenOptions, ProcessId, Vfs};

/// Which engine variant a measurement drives.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Inline,
    Degrade,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Inline => "inline",
            Mode::Degrade => "degrade",
        }
    }

    fn pipeline(self) -> Option<PipelineConfig> {
        match self {
            Mode::Inline => None,
            Mode::Degrade => Some(PipelineConfig::default()),
        }
    }
}

fn build_session(corpus: &Corpus, mode: Mode) -> Session {
    let mut builder = CryptoDrop::builder().protecting(corpus.root().as_str());
    if let Some(pipeline) = mode.pipeline() {
        builder = builder.pipeline_config(pipeline);
    }
    builder.build().expect("valid config")
}

/// The burst flavor of the cycle: every save flips one byte at a
/// round-dependent offset, so the closed content genuinely changed and
/// the analysis cannot stamp-skip — a full sniff/sdhash/entropy pass per
/// file, the work the pipeline exists to absorb. (The unchanged-save
/// cycle above stopped exercising absorption once PR 6's stamp cache
/// made its analysis O(1).)
fn churn_cycle(fs: &mut Vfs, pid: ProcessId, corpus: &Corpus, round: u32) {
    for (i, f) in corpus.files().iter().take(20).enumerate() {
        if f.read_only {
            continue;
        }
        let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
            continue;
        };
        let mut data = fs.read_to_end(pid, h).unwrap_or_default();
        if !data.is_empty() {
            let idx = (round as usize).wrapping_mul(31).wrapping_add(i * 7) % data.len();
            data[idx] = data[idx].wrapping_add(1);
        }
        let _ = fs.seek(pid, h, 0);
        let _ = fs.write(pid, h, &data);
        let _ = fs.close(pid, h);
    }
}

fn staged_vfs(corpus: &Corpus, namespace: u32) -> Vfs {
    let mut fs = if namespace == 0 {
        Vfs::new()
    } else {
        Vfs::with_namespace(namespace)
    };
    corpus.stage_into(&mut fs).unwrap();
    fs
}

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    for mode in [Mode::Inline, Mode::Degrade] {
        group.bench_function(format!("modify_cycle/{}", mode.label()), |b| {
            b.iter_batched(
                || {
                    let session = build_session(&corpus, mode);
                    let mut fs = staged_vfs(&corpus, 0);
                    fs.register_filter(Box::new(session.fork()));
                    let pid = fs.spawn_process("bench.exe");
                    (session, fs, pid)
                },
                |(session, mut fs, pid)| {
                    modify_cycle(&mut fs, pid, &corpus);
                    session.drain();
                    (session, fs)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

/// `threads` concurrent writer processes, each on its own `Vfs`
/// namespace, all driving forks of one shared session. The interval
/// closes only after `Session::drain`, so every mode is charged for
/// *completed* analysis, not just enqueued work. Returns aggregate
/// cycles per second and the pipeline counters.
fn measure_throughput(
    corpus: &Corpus,
    mode: Mode,
    threads: u32,
    iters: u32,
) -> (f64, PipelineStats) {
    let session = build_session(corpus, mode);
    let barrier = std::sync::Barrier::new(threads as usize + 1);
    let started = crossbeam::thread::scope(|scope| {
        for t in 0..threads {
            let engine = session.fork();
            let corpus = &corpus;
            let barrier = &barrier;
            scope.spawn(move |_| {
                let mut fs = staged_vfs(corpus, t + 1);
                fs.register_filter(Box::new(engine));
                let pid = fs.spawn_process(format!("writer{t}.exe"));
                barrier.wait();
                for _ in 0..iters {
                    modify_cycle(&mut fs, pid, corpus);
                }
            });
        }
        barrier.wait();
        Instant::now()
    })
    .expect("writer threads must not panic");
    session.drain();
    let secs = started.elapsed().as_secs_f64();
    let stats = session.pipeline_stats();
    assert_eq!(
        stats.enqueued, stats.processed,
        "drain must leave no queued records behind"
    );
    let cycles = f64::from(threads) * f64::from(iters);
    (cycles / secs.max(1e-9), stats)
}

/// Producer-visible burst cost: one writer fires `iters` discrete churn
/// bursts under `DegradeToInline` with a deep queue — each burst is
/// timed producer-side only, then the queue settles through an untimed
/// `Session::drain`, the way a real application alternates between save
/// bursts and think time. Returns the producer-visible ns/burst, the
/// total settle time in ms, and the pipeline counters.
fn measure_burst(corpus: &Corpus, mode: Mode, iters: u32) -> (f64, f64, PipelineStats) {
    let session = match mode {
        Mode::Degrade => CryptoDrop::builder()
            .protecting(corpus.root().as_str())
            .pipeline_config(PipelineConfig {
                capacity: 4096,
                ..PipelineConfig::default()
            })
            .build()
            .expect("valid config"),
        _ => build_session(corpus, mode),
    };
    let mut fs = staged_vfs(corpus, 0);
    fs.register_filter(Box::new(session.fork()));
    let pid = fs.spawn_process("burst.exe");
    modify_cycle(&mut fs, pid, corpus); // warm-up: capture snapshots
    session.drain();
    let mut producer_total = 0u128;
    let mut drain_total = 0u128;
    for round in 0..iters {
        let started = Instant::now();
        churn_cycle(&mut fs, pid, corpus, round);
        producer_total += started.elapsed().as_nanos();
        let settle = Instant::now();
        session.drain();
        drain_total += settle.elapsed().as_nanos();
    }
    let producer_ns = producer_total as f64 / f64::from(iters.max(1));
    let drain_ms = drain_total as f64 / 1e6;
    (producer_ns, drain_ms, session.pipeline_stats())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();

    let corpus = bench_corpus();
    let throughput_iters = if test_mode { 1 } else { 150 };
    let burst_iters = if test_mode { 1 } else { 30 };

    // Scheduler noise on a shared machine only ever slows a run down, so
    // each point's ceiling estimate is max-family over repeated runs —
    // specifically the *second-highest* sample: the host occasionally
    // bursts this container past its steady CPU share for one run, and a
    // freak draw no rerun can reproduce is not a ceiling. Discarding the
    // single most extreme sample (symmetrically, for every mode) keeps
    // the estimator strictly under-reporting while making it robust to
    // one-off bursts. The two modes are sampled *interleaved* — one
    // run of each per round — so every mode faces the same machine
    // epochs (page-cache state, background load) and the cross-mode
    // comparison is paired rather than sequential; rounds continue until
    // no mode's estimate has improved for eight consecutive rounds
    // (capped).
    #[derive(Clone, Default)]
    struct Top2 {
        best: Option<(f64, PipelineStats)>,
        second: Option<(f64, PipelineStats)>,
    }
    impl Top2 {
        /// Returns true when the reported estimate improved.
        fn insert(&mut self, sample: (f64, PipelineStats)) -> bool {
            let before = self.estimate().map(|e| e.0);
            match &self.best {
                Some(b) if sample.0 <= b.0 => {
                    if self.second.as_ref().is_none_or(|s| sample.0 > s.0) {
                        self.second = Some(sample);
                    }
                }
                _ => {
                    self.second = self.best.take();
                    self.best = Some(sample);
                }
            }
            self.estimate().map(|e| e.0) > before
        }

        /// Second-highest sample, or the only sample while just one exists.
        fn estimate(&self) -> Option<&(f64, PipelineStats)> {
            self.second.as_ref().or(self.best.as_ref())
        }
    }
    let sample_modes = |threads: u32| -> Vec<Top2> {
        let modes = [Mode::Inline, Mode::Degrade];
        let mut top: Vec<Top2> = vec![Top2::default(); modes.len()];
        let mut stale = 0u32;
        let mut rounds = 0u32;
        while stale < 8 && rounds < 40 {
            let mut improved = false;
            // Rotate which mode leads each round: host burst windows are
            // short, so whichever mode runs first after the previous
            // round's tail systematically catches more of them. Rotation
            // spreads that advantage evenly across modes instead of
            // handing it to whichever happens to be listed first.
            for k in 0..modes.len() {
                let i = (k + rounds as usize) % modes.len();
                let sample = measure_throughput(&corpus, modes[i], threads, throughput_iters);
                improved |= top[i].insert(sample);
            }
            rounds += 1;
            if improved {
                stale = 0;
            } else {
                stale += 1;
            }
            if test_mode {
                break;
            }
        }
        top
    };

    let points: Vec<(u32, Vec<Top2>)> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|threads| (threads, sample_modes(threads)))
        .collect();

    let mut throughput_json = Vec::new();
    for (threads, modes) in points {
        let mut fields = vec![format!("\"threads\": {threads}")];
        let mut line = format!("multi_process_throughput/{threads}:");
        for (point, mode) in modes
            .into_iter()
            .zip([Mode::Inline, Mode::Degrade])
        {
            let (cps, stats) = *point.estimate().expect("at least one round taken");
            line.push_str(&format!(" {} {cps:.0} cycles/s", mode.label()));
            fields.push(format!("\"{}_cycles_per_sec\": {cps:.1}", mode.label()));
            if mode == Mode::Degrade {
                line.push_str(&format!(
                    " ({} enqueued / {} degraded / {} batches)",
                    stats.enqueued, stats.degraded, stats.batches
                ));
                fields.push(format!("\"degrade_degraded\": {}", stats.degraded));
                fields.push(format!("\"degrade_batches\": {}", stats.batches));
            }
        }
        println!("{line}");
        throughput_json.push(format!("    {{ {} }}", fields.join(", ")));
    }

    // Burst estimator: interleaved paired rounds, fastest sample per mode
    // (noise only ever slows a run down). On a single-core host the
    // scheduler sometimes lends the woken worker producer timeslices
    // mid-burst; the minimum finds the rounds where the producer kept the
    // CPU, which is the producer-visible cost the probe is defined to
    // measure.
    let burst_rounds = if test_mode { 1 } else { 7 };
    let mut inline_ns = f64::INFINITY;
    let mut burst_ns = f64::INFINITY;
    let mut drain_ms = 0.0;
    let mut stats = PipelineStats::default();
    for _ in 0..burst_rounds {
        let (i_ns, _, _) = measure_burst(&corpus, Mode::Inline, burst_iters);
        inline_ns = inline_ns.min(i_ns);
        let (d_ns, d_drain, d_stats) = measure_burst(&corpus, Mode::Degrade, burst_iters);
        if d_ns < burst_ns {
            (burst_ns, drain_ms, stats) = (d_ns, d_drain, d_stats);
        }
    }
    println!(
        "burst_absorption: inline {inline_ns:.0} ns/cycle, degrade producer-visible \
         {burst_ns:.0} ns/cycle ({:.2}x), drain {drain_ms:.2} ms, \
         {} enqueued / {} processed / {} degraded",
        inline_ns / burst_ns.max(1.0),
        stats.enqueued,
        stats.processed,
        stats.degraded
    );

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"test_mode\": {test_mode},\n  \
         \"multi_process_throughput\": [\n{}\n  ],\n  \
         \"burst_absorption\": {{\n    \
         \"inline_ns_per_cycle\": {inline_ns:.1},\n    \
         \"degrade_producer_ns_per_cycle\": {burst_ns:.1},\n    \
         \"producer_speedup\": {:.2},\n    \
         \"drain_ms\": {drain_ms:.2},\n    \
         \"enqueued\": {},\n    \"processed\": {},\n    \"degraded\": {}\n  }}\n}}\n",
        throughput_json.join(",\n"),
        inline_ns / burst_ns.max(1.0),
        stats.enqueued,
        stats.processed,
        stats.degraded
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, &json).expect("write BENCH_pipeline.json");
    println!("wrote {out}");
}
