//! Observability of the close tiers: an attack replay takes the
//! incremental paths, and each modified close counts in exactly one tier.
//!
//! The tiers themselves (stamp skip / dirty-extent delta / full
//! recompute) and the stamp-based entropy reuse on reads and writes are
//! checked in debug builds: every snapshot the engine makes equals the
//! reference `FileSnapshot::capture` of its bytes, and every reuse checks
//! that the bytes still carry the snapshot's stamp. So every debug test
//! that replays a workload is also an equivalence check.

use cryptodrop::{Config, CryptoDrop};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_experiments::runner::run_sample_with_telemetry;
use cryptodrop_malware::paper_sample_set;
use cryptodrop_telemetry::Telemetry;
use cryptodrop_vfs::{OpenOptions, Vfs};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(500, 50))
}

fn config(corpus: &Corpus) -> Config {
    Config::protecting(corpus.root().as_str())
}

/// The incremental counters are observable through telemetry, and an
/// attack replay actually takes the incremental paths (a replay that
/// never skipped or delta-updated would mean the optimization is dead
/// code in exactly the workload it was built for).
#[test]
fn incremental_counters_are_observable() {
    let corpus = corpus();
    let cfg = config(&corpus);
    let sample = &paper_sample_set()[0];
    let telemetry = Telemetry::new(1 << 16);
    let (result, _) = run_sample_with_telemetry(&corpus, &cfg, sample, telemetry.clone());
    assert!(result.detected);

    let snap = telemetry.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let skips = counter("engine.incremental.stamp_skips");
    let delta = counter("engine.incremental.delta_applied");
    let full = counter("engine.incremental.full_recompute");
    assert!(
        skips + delta + full > 0,
        "incremental paths never engaged: skips {skips}, delta {delta}, full {full}"
    );
    assert!(
        full > 0,
        "an encrypting replay must force full recomputes somewhere"
    );
}

/// Each modified close takes exactly one analysis tier, so the three
/// close counters sum to the closes; entropy that reads and writes reuse
/// from a snapshot counts apart, in `engine.entropy.stamp_reuse`.
#[test]
fn close_tier_counters_count_each_modified_close_once() {
    let corpus = corpus();
    let session = CryptoDrop::builder()
        .config(config(&corpus))
        .telemetry(Telemetry::new(1 << 16))
        .build()
        .expect("valid config");
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("staging succeeds");
    fs.register_filter(Box::new(session.fork()));
    let pid = fs.spawn_process("editor.exe");
    let files: Vec<_> = corpus.files().iter().filter(|f| !f.read_only).take(20).collect();
    for f in &files {
        let h = fs.open(pid, &f.path, OpenOptions::modify()).expect("open");
        let data = fs.read_to_end(pid, h).expect("read");
        fs.seek(pid, h, 0).expect("seek");
        fs.write(pid, h, &data).expect("write");
        fs.close(pid, h).expect("close");
    }
    let snap = session.telemetry().metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let tiers = ["stamp_skips", "delta_applied", "full_recompute"]
        .map(|t| counter(&format!("engine.incremental.{t}")));
    assert_eq!(tiers.iter().sum::<u64>(), files.len() as u64, "tiers {tiers:?}");
    assert!(counter("engine.entropy.stamp_reuse") > 0);
}
