//! `table1_replay`: the paper's headline experiment and the attack path.
//!
//! Each request is one Table I sample on a fresh machine staged from the
//! round's corpus, run inline until it is suspended; `Session::restore`
//! then rolls it back. A round replays one sample of every (family,
//! class) group, the k-th round taking each group's k-th sample (modulo
//! the group's size), so any number of rounds covers the families evenly.
//! Snapshot refresh, full-recompute close analysis, the indicator kernels
//! and shadow capture do most of the work; the snapshot cache never warms
//! and the pipeline is idle.

use std::time::Instant;

use cryptodrop::Config;
use cryptodrop_corpus::Corpus;
use cryptodrop_experiments::runner::run_sample;
use cryptodrop_malware::{paper_sample_set, RansomwareSample};
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};

use super::{attach, corpus_spec, digest, session_builder, Pass, PassCfg};
use crate::report::{quantile, sorted};
use crate::trace::layer;

/// The paper sample set grouped by (family, class), in paper order.
fn sample_groups() -> Vec<Vec<RansomwareSample>> {
    let mut groups: Vec<Vec<RansomwareSample>> = Vec::new();
    for s in paper_sample_set() {
        match groups.last_mut() {
            Some(g) if g[0].family == s.family && g[0].class == s.class => g.push(s),
            _ => groups.push(vec![s]),
        }
    }
    groups
}

/// Runs one pass of `table1_replay`.
pub fn run(cfg: &PassCfg) -> Pass {
    let mut pass = Pass::default();
    let groups: Vec<_> = sample_groups()
        .into_iter()
        .take(cfg.scale.sample_groups)
        .collect();

    let mut files_lost = Vec::new();
    let mut detect_sim_ns = Vec::new();
    let mut restore_ns = Vec::new();
    let mut first_round_lost = Vec::new();
    let (mut missed, mut shortfall) = (0u32, 0u64);
    let started = Instant::now();
    while cfg.budget.more(pass.rounds, started) {
        let corpus = pass.corpus(cfg);
        for group in &groups {
            let sample = &group[pass.rounds as usize % group.len()];
            let setup = Instant::now();
            let mut fs = Vfs::new();
            corpus
                .stage_into(&mut fs)
                .expect("staging a generated corpus into an empty filesystem cannot fail");
            let session = session_builder(corpus.root(), cfg.traced)
                .build()
                .expect("the default config is valid");
            attach(&session, &mut fs, cfg.traced);
            let ctx = WorkloadCtx::spawn(&mut fs, sample, corpus.root(), sample.seed());
            pass.setup_ns.push(setup.elapsed().as_nanos() as u64);

            let sim_start = ctx.clock.now_nanos();
            pass.timed_request(|| sample.drive(&mut fs, &ctx));
            pass.ops += fs.latency_ledger().total_ops();
            pass.sample_rss();
            let pid = ctx.pid();
            let detection = session.detection_for(pid);
            pass.verdicts.push(digest(detection.as_slice()));
            match &detection {
                Some(d) if fs.is_suspended(pid) => {
                    files_lost.push(f64::from(d.files_lost));
                    detect_sim_ns.push(d.at_nanos.saturating_sub(sim_start) as f64);
                    let (report, ns) =
                        pass.timed_region(layer::RESTORE, || session.restore(&mut fs, pid));
                    let restored = report.map_or(0, |r| r.files_restored);
                    restore_ns.push(ns as f64);
                    let c = &mut pass.counters;
                    c.restores += 1;
                    c.restore_ns += ns;
                    c.files_restored += restored;
                    shortfall += u64::from(d.files_lost).saturating_sub(restored);
                }
                _ => {
                    missed += 1;
                    pass.failed += 1;
                }
            }
            if pass.rounds == 0 {
                first_round_lost.push(detection.map_or(0, |d| d.files_lost));
            }
            pass.counters.add_session(&session);
        }
        pass.rounds += 1;
    }

    let lost = sorted(files_lost);
    pass.outcomes = vec![
        ("files_lost_p50", quantile(&lost, 0.5), "files"),
        (
            "files_lost_max",
            lost.last().copied().unwrap_or(0.0),
            "files",
        ),
        (
            "detect_sim_ms_p50",
            quantile(&sorted(detect_sim_ns), 0.5) / 1e6,
            "ms",
        ),
        (
            "restore_ms_p50",
            quantile(&sorted(restore_ns), 0.5) / 1e6,
            "ms",
        ),
        ("restore_shortfall", shortfall as f64, "files"),
        ("missed_detections", f64::from(missed), "count"),
    ];
    pass.check(
        "table1_replay.all_detected",
        missed == 0,
        format!(
            "{missed} of {} samples not suspended",
            pass.request_ns.len()
        ),
    );
    pass.check(
        "table1_replay.restore_complete",
        shortfall == 0,
        format!("{shortfall} lost files not restored"),
    );
    if cfg.cross_check {
        // The first sample of each group, replayed through the experiment
        // harness on the same corpus, must lose exactly as many files.
        let corpus = Corpus::generate(&corpus_spec(cfg, 0));
        let config = Config::protecting(corpus.root().as_str());
        let mismatched: Vec<u32> = groups
            .iter()
            .zip(&first_round_lost)
            .filter(|(g, &lost)| run_sample(&corpus, &config, &g[0]).files_lost != lost)
            .map(|(g, _)| g[0].id)
            .collect();
        pass.check(
            "table1_replay.files_lost_match_runner",
            mismatched.is_empty(),
            format!("samples whose files_lost differ from runner::run_sample: {mismatched:?}"),
        );
    }
    pass
}
