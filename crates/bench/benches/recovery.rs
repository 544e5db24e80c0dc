//! Bench: what the "Drop It" shadow store costs on the hot write path,
//! and what a full rollback costs once an attack is suspended.
//!
//! Two measurements:
//!
//! * **write overhead** — the steady-state editor-save workload from
//!   `engine_overhead`, with and without a shadow sink attached. The
//!   delta is the copy-on-write capture cost a benign writer pays: one
//!   content fingerprint plus (on a dedup miss) one buffer copy for the
//!   first save of each file, and a history lookup for every later save
//!   by the same writer, which continues that file's run.
//! * **restore latency** — a real sample encrypts the corpus until the
//!   engine suspends it, then `restore` rolls the filesystem back. The
//!   probe reports plan+apply wall time, files and bytes replayed, and
//!   the journal pressure (captures, dedup hits, evictions) behind them.
//!
//! Numbers are reported, not asserted. Machine-readable results go to
//! `BENCH_recovery.json` at the workspace root; `--test` (the CI smoke
//! mode) scales every loop to a single iteration.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use cryptodrop::{CryptoDrop, Session, ShadowConfig, ShadowStats};
use cryptodrop_bench::{bench_corpus, modify_cycle};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::{paper_sample_set, Family};
use cryptodrop_vfs::Vfs;

fn build_session(corpus: &Corpus, shadowed: bool) -> Session {
    let mut builder = CryptoDrop::builder().protecting(corpus.root().as_str());
    if shadowed {
        builder = builder.recovery(ShadowConfig::default());
    }
    builder.build().expect("valid config")
}

fn staged_vfs(corpus: &Corpus) -> Vfs {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    fs
}

fn bench(c: &mut Criterion) {
    let corpus = bench_corpus();

    let mut group = c.benchmark_group("recovery");
    group.sample_size(10);
    for (label, shadowed) in [("bare", false), ("shadowed", true)] {
        group.bench_function(format!("modify_cycle/{label}"), |b| {
            b.iter_batched(
                || {
                    let session = build_session(&corpus, shadowed);
                    let mut fs = staged_vfs(&corpus);
                    session.attach(&mut fs);
                    let pid = fs.spawn_process("bench.exe");
                    (session, fs, pid)
                },
                |(session, mut fs, pid)| {
                    modify_cycle(&mut fs, pid, &corpus);
                    (session, fs)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);

/// Producer-visible ns per modify cycle with or without the shadow sink.
fn measure_write_overhead(corpus: &Corpus, shadowed: bool, iters: u32) -> f64 {
    let session = build_session(corpus, shadowed);
    let mut fs = staged_vfs(corpus);
    session.attach(&mut fs);
    let pid = fs.spawn_process("writer.exe");
    modify_cycle(&mut fs, pid, corpus); // warm-up
    let started = Instant::now();
    for _ in 0..iters {
        modify_cycle(&mut fs, pid, corpus);
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

/// One suspension + rollback: returns (plan+apply ms, files restored,
/// bytes restored, journal stats at suspension time).
fn measure_restore(corpus: &Corpus, family: Family) -> (f64, u64, u64, ShadowStats) {
    let session = build_session(corpus, true);
    let mut fs = staged_vfs(corpus);
    session.attach(&mut fs);
    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == family && s.index == 0)
        .expect("family present in the paper set");
    let ctx = cryptodrop_vfs::WorkloadCtx::spawn(&mut fs, &sample, corpus.root(), sample.seed());
    cryptodrop_vfs::Workload::drive(&sample, &mut fs, &ctx);
    let pid = ctx.pid();
    assert!(fs.is_suspended(pid), "{family:?} must be suspended");
    let stats = session.shadow_store().expect("recovery armed").stats();

    let report_pid = session.detection_for(pid).expect("detected").pid;
    let started = Instant::now();
    let report = session
        .restore(&mut fs, report_pid)
        .expect("recovery armed");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (ms, report.files_restored, report.bytes_restored, stats)
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();

    let corpus = bench_corpus();
    let overhead_iters = if test_mode { 1 } else { 30 };

    let bare_ns = measure_write_overhead(&corpus, false, overhead_iters);
    let shadow_ns = measure_write_overhead(&corpus, true, overhead_iters);
    let ratio = shadow_ns / bare_ns.max(1.0);
    println!(
        "write_overhead: bare {bare_ns:.0} ns/cycle, shadowed {shadow_ns:.0} ns/cycle \
         ({ratio:.2}x)"
    );

    let mut restore_json = Vec::new();
    for family in [Family::TeslaCrypt, Family::CryptoWall] {
        let (ms, files, bytes, stats) = measure_restore(&corpus, family);
        println!(
            "restore/{family:?}: {ms:.2} ms, {files} files / {bytes} bytes replayed, \
             {} captures / {} dedup hits / {} evictions, {} bytes held",
            stats.captures, stats.dedup_hits, stats.evictions, stats.bytes_held
        );
        restore_json.push(format!(
            "    {{ \"family\": \"{family:?}\", \"restore_ms\": {ms:.3}, \
             \"files_restored\": {files}, \"bytes_restored\": {bytes}, \
             \"captures\": {}, \"dedup_hits\": {}, \"evictions\": {}, \
             \"bytes_held\": {} }}",
            stats.captures, stats.dedup_hits, stats.evictions, stats.bytes_held
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"test_mode\": {test_mode},\n  \
         \"write_overhead\": {{\n    \
         \"bare_ns_per_cycle\": {bare_ns:.1},\n    \
         \"shadowed_ns_per_cycle\": {shadow_ns:.1},\n    \
         \"capture_overhead_ratio\": {ratio:.3}\n  }},\n  \
         \"restore\": [\n{}\n  ]\n}}\n",
        restore_json.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(out, &json).expect("write BENCH_recovery.json");
    println!("wrote {out}");
}
