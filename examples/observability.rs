//! Observability: arm CryptoDrop with a shared telemetry sink, catch a
//! sample, and read the full explanation — the per-process audit trail,
//! the event journal, and the engine's metrics.
//!
//! Run with: `cargo run --example observability`

use cryptodrop::{CryptoDrop, Telemetry};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::{paper_sample_set, Family};
use cryptodrop_telemetry::JournalKind;
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};

fn main() {
    // 1. A simulated machine, plus one telemetry sink shared by the VFS
    //    and the engine (a disabled sink still counts, and its timer and
    //    journal probes cost one branch each; this one is enabled).
    let corpus = Corpus::generate(&CorpusSpec::sized(800, 80));
    let telemetry = Telemetry::new(64 * 1024);
    let mut fs = Vfs::new();
    fs.set_telemetry(telemetry.clone());
    corpus.stage_into(&mut fs).expect("fresh filesystem");

    let monitor = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .telemetry(telemetry.clone())
        .build()
        .expect("valid config");
    fs.register_filter(Box::new(monitor.fork()));

    // 2. Run a TeslaCrypt sample until CryptoDrop suspends it.
    let sample = paper_sample_set()
        .into_iter()
        .find(|s| s.family == Family::TeslaCrypt)
        .expect("sample set includes TeslaCrypt");
    let ctx = WorkloadCtx::spawn(&mut fs, &sample, corpus.root(), sample.seed());
    let pid = ctx.pid();
    println!("running {} ...\n", sample.describe());
    let _ = sample.drive(&mut fs, &ctx);

    // 3. The explanation: every indicator that fired, when, with what
    //    measured value against what threshold, and the running score.
    let trail = monitor.audit_trail(pid).expect("process was seen");
    print!("{}", trail.render());

    // 4. The journal carries the op-level journey for the same process.
    let events = telemetry.journal().events_for(pid.0);
    let ops = events
        .iter()
        .filter(|e| matches!(e.kind, JournalKind::Op { .. }))
        .count();
    let indicators = events
        .iter()
        .filter(|e| matches!(e.kind, JournalKind::Indicator { .. }))
        .count();
    let suspensions = events
        .iter()
        .filter(|e| matches!(e.kind, JournalKind::Suspension { .. }))
        .count();
    println!(
        "\njournal: {} events for pid {} ({ops} ops, {indicators} indicator \
         contributions, {suspensions} suspension)",
        events.len(),
        pid.0
    );

    // 5. And the metric registry aggregates across processes.
    let snap = telemetry.metrics().snapshot();
    println!("metrics:");
    for (name, value) in snap.counters.iter().filter(|(_, v)| **v > 0) {
        println!("  {name} = {value}");
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            println!(
                "  {name}: n={} mean={:.0}ns p99<={}ns",
                h.count,
                h.mean,
                h.quantile_le(0.99)
            );
        }
    }
}
