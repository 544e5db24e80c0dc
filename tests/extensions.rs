//! Integration tests for the implemented future-work extensions (paper
//! §IV-A, §V-C, §V-F): process-family aggregation, the user-permit flow,
//! dynamic scoring, and the write-burst time-window indicator.

use cryptodrop::{Config, CryptoDrop, Indicator};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_malware::cipher::{ChaCha20, Cipher};
use cryptodrop_vfs::{OpenOptions, ProcessId, Vfs};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec::sized(300, 30))
}

/// Encrypts corpus files in place as `pid`, returning how many completed.
fn encrypt_files(fs: &mut Vfs, pid: ProcessId, corpus: &Corpus, limit: usize) -> usize {
    let cipher = ChaCha20::from_seed(77);
    let mut done = 0;
    for f in corpus.files().iter().take(limit) {
        if f.read_only {
            continue;
        }
        let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
            break;
        };
        let plain = fs.read_to_end(pid, h).unwrap_or_default();
        let ct = cipher.encrypt(&plain);
        let ok = fs.seek(pid, h, 0).is_ok() && fs.write(pid, h, &ct).is_ok();
        let _ = fs.close(pid, h);
        if !ok {
            break;
        }
        done += 1;
    }
    done
}

#[test]
fn family_aggregation_stops_fanout_attacks() {
    let corpus = corpus();
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    let monitor = CryptoDrop::builder()
        .config(Config::protecting(corpus.root().as_str()))
        .build()
        .expect("valid config");
    fs.register_filter(Box::new(monitor.fork()));

    let dropper = fs.spawn_process("dropper.exe");
    let kids: Vec<ProcessId> = (0..4)
        .map(|i| fs.spawn_child_process(dropper, format!("shard{i}.exe")))
        .collect();

    // Interleave the children over the corpus, a few files each turn.
    let cipher = ChaCha20::from_seed(3);
    'outer: for (i, f) in corpus.files().iter().enumerate() {
        if f.read_only {
            continue;
        }
        let pid = kids[i % kids.len()];
        let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
            break 'outer;
        };
        let plain = fs.read_to_end(pid, h).unwrap_or_default();
        let ct = cipher.encrypt(&plain);
        let ok = fs.seek(pid, h, 0).is_ok() && fs.write(pid, h, &ct).is_ok();
        let _ = fs.close(pid, h);
        if !ok {
            break 'outer;
        }
    }

    let report = monitor
        .detection_for(dropper)
        .expect("the family root is flagged");
    assert!(
        report.files_lost <= 25,
        "family fanout lost {} files",
        report.files_lost
    );
    // Every shard is blocked from further data operations.
    for k in kids {
        assert!(
            fs.open(k, &corpus.files()[0].path, OpenOptions::read()).is_err(),
            "{k} still has filesystem access"
        );
    }
}

#[test]
fn per_process_mode_still_available() {
    // With aggregation off, unrelated top-level processes remain isolated
    // (the original per-process semantics).
    let corpus = corpus();
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    let mut cfg = Config::protecting(corpus.root().as_str());
    cfg.aggregate_process_families = false;
    let monitor = CryptoDrop::builder()
        .config(cfg)
        .build()
        .expect("valid config");
    fs.register_filter(Box::new(monitor.fork()));

    let evil = fs.spawn_process("evil.exe");
    let benign = fs.spawn_process("benign.exe");
    encrypt_files(&mut fs, evil, &corpus, usize::MAX);
    assert!(fs.is_suspended(evil));
    // The unrelated process still reads fine.
    let readable = corpus
        .files()
        .iter()
        .find(|f| fs.admin().metadata(&f.path).is_ok())
        .unwrap();
    assert!(fs.read_file(benign, &readable.path).is_ok());
    assert!(monitor.detection_for(benign).is_none());
}

#[test]
fn permit_flow_round_trip() {
    let corpus = corpus();
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    let monitor = CryptoDrop::builder()
        .config(Config::protecting(corpus.root().as_str()))
        .build()
        .expect("valid config");
    fs.register_filter(Box::new(monitor.fork()));
    let pid = fs.spawn_process("bulk-tool.exe");

    let before = encrypt_files(&mut fs, pid, &corpus, usize::MAX);
    let report = monitor.detection_for(pid).expect("flagged");
    assert!(fs.is_suspended(pid));

    // The user allows it (paper §IV-A) — and it finishes the job.
    assert!(monitor.permit(report.pid));
    fs.resume_process(pid);
    let after = encrypt_files(&mut fs, pid, &corpus, usize::MAX);
    assert!(after > before, "made further progress: {before} -> {after}");
    assert!(!fs.is_suspended(pid));
    assert_eq!(monitor.detections().len(), 1);

    // Permit on an unknown pid is a no-op.
    assert!(!monitor.permit(ProcessId(9999)));
}

#[test]
fn burst_indicator_is_off_by_default() {
    let corpus = corpus();
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).unwrap();
    let monitor = CryptoDrop::builder()
        .config(Config::protecting(corpus.root().as_str()))
        .build()
        .expect("valid config");
    fs.register_filter(Box::new(monitor.fork()));
    let pid = fs.spawn_process("rewriter.exe");
    // Benign-shaped rewrites of many files, flat out.
    for f in corpus.files().iter().take(40) {
        if f.read_only {
            continue;
        }
        let Ok(data) = fs.read_file(pid, &f.path) else { break };
        if fs.write_file(pid, &f.path, &data).is_err() {
            break;
        }
    }
    let summary = monitor.summary(pid).expect("seen");
    assert!(
        !summary.hit_counts.contains_key(&Indicator::WriteBurst),
        "write-burst must stay dormant unless enabled"
    );
}

#[test]
fn benign_apps_survive_burst_indicator_thanks_to_think_time() {
    // With the future-work burst indicator armed, the paced benign
    // workloads still stay under threshold — the paper's concern that
    // "monitoring any time window presents an evasion opportunity" cuts
    // the other way for benign apps, whose activity is human-paced.
    let corpus = corpus();
    let mut cfg = Config::protecting(corpus.root().as_str());
    cfg.score.points_burst = 5;
    for app_box in cryptodrop_benign::fig6_apps() {
        let r = cryptodrop_experiments::runner::run_workload(&corpus, &cfg, &app_box, 9);
        assert!(
            !r.detected,
            "{} false-positived with burst enabled (score {})",
            r.name, r.score
        );
    }
}
