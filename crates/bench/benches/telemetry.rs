//! Bench: the cost of the telemetry layer, proving the disabled path is
//! near-free.
//!
//! Three views:
//!
//! 1. **End-to-end cycles** — the shared `modify_cycle` run
//!    unfiltered, filtered with the default *disabled* telemetry sink, and
//!    filtered with an *enabled* sink shared between the VFS and engine.
//!    The disabled/enabled ratio is the price of observability.
//! 2. **Primitive costs** — one counter increment, one histogram record,
//!    one enabled journal push, and (the number that matters) one
//!    *disabled* probe: a single relaxed load and branch.
//! 3. **Smoke thresholds** — the run aborts if a disabled probe stops
//!    being near-free or enabling telemetry multiplies cycle cost past a
//!    generous bound; CI runs this in `--test` mode.
//!
//! Machine-readable results go to `BENCH_telemetry.json` at the workspace
//! root.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use cryptodrop::{CryptoDrop, Telemetry};
use cryptodrop_bench::{bench_corpus, modify_cycle};
use cryptodrop_corpus::Corpus;
use cryptodrop_telemetry::JournalKind;
use cryptodrop_vfs::{ProcessId, Vfs};

/// How the system under test is instrumented.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// No filter registered at all.
    Unfiltered,
    /// The engine's default: a disabled telemetry sink (counters record;
    /// every timer and journal probe is one relaxed load + branch).
    FilteredDisabled,
    /// An enabled sink shared by the VFS and the engine: counters,
    /// journal, and eval timers all live.
    FilteredEnabled,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Unfiltered => "baseline",
            Mode::FilteredDisabled => "filtered_disabled",
            Mode::FilteredEnabled => "filtered_enabled",
        }
    }
}

fn staged(corpus: &Corpus, mode: Mode) -> (Vfs, ProcessId) {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    match mode {
        Mode::Unfiltered => {}
        Mode::FilteredDisabled => {
            let session = CryptoDrop::builder()
                .protecting(corpus.root().as_str())
                .build()
                .expect("valid config");
            fs.register_filter(Box::new(session.fork()));
        }
        Mode::FilteredEnabled => {
            let telemetry = Telemetry::new(cryptodrop_telemetry::DEFAULT_JOURNAL_CAPACITY);
            fs.set_telemetry(telemetry.clone());
            let session = CryptoDrop::builder()
                .protecting(corpus.root().as_str())
                .telemetry(telemetry)
                .build()
                .expect("valid config");
            fs.register_filter(Box::new(session.fork()));
        }
    }
    let pid = fs.spawn_process("bench.exe");
    (fs, pid)
}

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus();
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(20);
    for mode in [Mode::Unfiltered, Mode::FilteredDisabled, Mode::FilteredEnabled] {
        group.bench_function(format!("modify_cycle/{}", mode.label()), |b| {
            b.iter_batched(
                || staged(&corpus, mode),
                |(mut fs, pid)| {
                    modify_cycle(&mut fs, pid, &corpus);
                    fs
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

/// Wall-clock nanoseconds per modify cycle in steady state (first cycle
/// warms the snapshot cache and is excluded).
fn measure_cycle_ns(corpus: &Corpus, mode: Mode, iters: u32) -> f64 {
    let (mut fs, pid) = staged(corpus, mode);
    modify_cycle(&mut fs, pid, corpus); // warm-up
    let started = Instant::now();
    for _ in 0..iters.max(1) {
        modify_cycle(&mut fs, pid, corpus);
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

/// Average nanoseconds per call of `op`, over `iters` calls.
fn measure_primitive(iters: u32, mut op: impl FnMut(u32)) -> f64 {
    let started = Instant::now();
    for i in 0..iters.max(1) {
        op(i);
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();

    let corpus = bench_corpus();
    let cycle_iters = if test_mode { 2 } else { 30 };

    let baseline_ns = measure_cycle_ns(&corpus, Mode::Unfiltered, cycle_iters);
    let disabled_ns = measure_cycle_ns(&corpus, Mode::FilteredDisabled, cycle_iters);
    let enabled_ns = measure_cycle_ns(&corpus, Mode::FilteredEnabled, cycle_iters);
    let enabled_over_disabled = enabled_ns / disabled_ns.max(1.0);
    println!(
        "modify_cycle: baseline {baseline_ns:.0} ns, filtered(disabled telemetry) \
         {disabled_ns:.0} ns, filtered(enabled telemetry) {enabled_ns:.0} ns — \
         enabling telemetry costs {:.1}% of the filtered cycle",
        (enabled_over_disabled - 1.0) * 100.0
    );

    // Primitive costs. The disabled probe is the one on every hot path.
    const PRIM_ITERS: u32 = 1_000_000;
    let enabled = Telemetry::new(1 << 16);
    let disabled = Telemetry::disabled();
    let counter = enabled.counter("bench.counter");
    let histogram = enabled.histogram("bench.histogram");
    let counter_inc_ns = measure_primitive(PRIM_ITERS, |_| counter.inc());
    let histogram_record_ns =
        measure_primitive(PRIM_ITERS, |i| histogram.record(u64::from(i) & 0xffff));
    let journal_push_ns = measure_primitive(PRIM_ITERS, |i| {
        enabled.journal_event(u64::from(i), i, || JournalKind::Note {
            name: "bench".into(),
            detail: String::new(),
        })
    });
    let disabled_probe_ns = measure_primitive(PRIM_ITERS, |i| {
        disabled.journal_event(u64::from(i), i, || JournalKind::Note {
            name: "bench".into(),
            detail: String::new(),
        })
    });
    let disabled_timer_ns = measure_primitive(PRIM_ITERS, |_| {
        std::hint::black_box(disabled.start_timer());
    });
    println!(
        "primitives: counter.inc {counter_inc_ns:.1} ns, histogram.record \
         {histogram_record_ns:.1} ns, journal push {journal_push_ns:.1} ns, \
         disabled probe {disabled_probe_ns:.2} ns, disabled timer {disabled_timer_ns:.2} ns"
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"test_mode\": {test_mode},\n  \
         \"modify_cycle\": {{\n    \"baseline_ns_per_cycle\": {baseline_ns:.1},\n    \
         \"filtered_disabled_ns_per_cycle\": {disabled_ns:.1},\n    \
         \"filtered_enabled_ns_per_cycle\": {enabled_ns:.1},\n    \
         \"enabled_over_disabled\": {enabled_over_disabled:.3}\n  }},\n  \
         \"primitives_ns\": {{\n    \"counter_inc\": {counter_inc_ns:.2},\n    \
         \"histogram_record\": {histogram_record_ns:.2},\n    \
         \"journal_push\": {journal_push_ns:.2},\n    \
         \"disabled_probe\": {disabled_probe_ns:.3},\n    \
         \"disabled_timer\": {disabled_timer_ns:.3}\n  }}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
    std::fs::write(out, &json).expect("write BENCH_telemetry.json");
    println!("wrote {out}");

    // Smoke thresholds: generous enough for noisy CI machines, tight
    // enough to catch a disabled path that started doing real work.
    assert!(
        disabled_probe_ns < 100.0,
        "disabled probe must stay near-free: {disabled_probe_ns:.2} ns"
    );
    assert!(
        disabled_timer_ns < 100.0,
        "disabled timer must not read the clock: {disabled_timer_ns:.2} ns"
    );
    assert!(
        enabled_over_disabled < 3.0,
        "enabling telemetry must not multiply cycle cost: {enabled_over_disabled:.2}x"
    );
}
