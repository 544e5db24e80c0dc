//! `benign_suite`: the false-positive side of the paper (§V-F).
//!
//! Each request is one of the 30 benign applications on a fresh machine
//! staged from the round's corpus, run inline to completion (or to its
//! suspension). Round k runs every application with seed `seed + k`.
//! The same analysis layers as `table1_replay` do the work, used
//! differently: new output files, archives and full-tree scans sit
//! beside the reads, and few protected files are overwritten, so pre-op
//! refresh and shadow capture do little.

use std::time::Instant;

use cryptodrop_benign::paper_apps;
use cryptodrop_vfs::{Vfs, Workload, WorkloadCtx};

use super::{attach, digest, session_builder, Pass, PassCfg};

/// The one application the paper's detector flags (§V-F).
const EXPECTED_FALSE_POSITIVE: &str = "7-zip";

/// Runs one pass of `benign_suite`.
pub fn run(cfg: &PassCfg) -> Pass {
    let mut pass = Pass::default();
    let apps: Vec<_> = paper_apps().into_iter().take(cfg.scale.apps).collect();

    let expected: Vec<String> = apps
        .iter()
        .map(|a| a.name())
        .filter(|n| n == EXPECTED_FALSE_POSITIVE)
        .collect();
    let mut suspended_total = 0usize;
    let mut wrong_rounds = Vec::new();
    let started = Instant::now();
    while cfg.budget.more(pass.rounds, started) {
        let corpus = pass.corpus(cfg);
        let app_seed = cfg.seed.wrapping_add(u64::from(pass.rounds));
        let mut suspended = Vec::new();
        for app in &apps {
            let setup = Instant::now();
            let mut fs = Vfs::new();
            corpus
                .stage_into(&mut fs)
                .expect("staging a generated corpus into an empty filesystem cannot fail");
            let session = session_builder(corpus.root(), cfg.traced)
                .build()
                .expect("the default config is valid");
            attach(&session, &mut fs, cfg.traced);
            let ctx = WorkloadCtx::spawn(&mut fs, app, corpus.root(), app_seed);
            pass.setup_ns.push(setup.elapsed().as_nanos() as u64);

            let outcome = pass.timed_request(|| app.drive(&mut fs, &ctx));
            pass.ops += fs.latency_ledger().total_ops();
            pass.sample_rss();
            session.reconcile(&mut fs);
            if fs.is_suspended(ctx.pid()) {
                suspended.push(app.name());
            } else if !outcome.completed {
                pass.failed += 1;
            }
            pass.verdicts.push(digest(&session.detections()));
            pass.counters.add_session(&session);
        }
        suspended_total += suspended.len();
        if suspended != expected {
            wrong_rounds.push((pass.rounds, suspended));
        }
        pass.rounds += 1;
    }

    let runs = pass.request_ns.len().max(1) as f64;
    pass.outcomes = vec![
        (
            "false_positives",
            suspended_total as f64 / f64::from(pass.rounds.max(1)),
            "count",
        ),
        ("error_frac", pass.failed as f64 / runs, "ratio"),
    ];
    pass.check(
        "benign_suite.only_7zip_suspended",
        wrong_rounds.is_empty(),
        format!(
            "rounds whose suspended set is not {{{EXPECTED_FALSE_POSITIVE}}}: {wrong_rounds:?}"
        ),
    );
    pass.check(
        "benign_suite.apps_complete",
        pass.failed == 0,
        format!("{} unsuspended runs did not complete", pass.failed),
    );
    pass
}
