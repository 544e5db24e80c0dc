//! `cdbench`: one benchmark for the four paper workloads.
//!
//! [`run`] runs one named workload and returns its [`Report`]: the
//! end-to-end metrics of an untraced run, or — with tracing — the
//! per-layer metrics of a traced replay of the same work, plus the
//! correctness checks either way. See the crate's README for the
//! workloads, the metrics and how to compare runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod trace;
pub mod workloads;

use std::time::Duration;

use cryptodrop::Indicator;

pub use report::{Check, Metric, Report};
pub use trace::Tracer;
pub use workloads::{Scale, Workload};

use workloads::{Budget, Pass, PassCfg};

/// Spans a traced run keeps for its trace file; totals cover every span.
pub const SPAN_CAPACITY: usize = 200_000;

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Drives every input the workload generates.
    pub seed: u64,
    /// Wall time to measure for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What [`run`] produced.
pub struct Run {
    /// Metrics and checks.
    pub report: Report,
    /// The traced replay's spans, when tracing.
    pub tracer: Option<Tracer>,
}

/// Passes an untraced run makes over the same rounds. Each request keeps
/// its fastest pass, so a slowdown of the host that covers one pass does
/// not move the result.
pub const PASSES: u32 = 3;

fn pass(opts: &Options, budget: Budget, traced: bool, cross_check: bool) -> Pass {
    let cfg = PassCfg {
        seed: opts.seed,
        scale: opts.scale,
        budget,
        traced,
        cross_check,
    };
    match opts.workload {
        Workload::Table1Replay => workloads::table1::run(&cfg),
        Workload::BenignSuite => workloads::benign::run(&cfg),
        Workload::EditorSave => workloads::editor::run(&cfg),
        Workload::FleetSteady => workloads::fleet::run(&cfg),
    }
}

/// Runs one workload in [`PASSES`] passes. The first spends a
/// [`PASSES`]-th of `seconds` on as many rounds as fit, and runs the
/// cross-checks; the others repeat exactly its rounds. Untraced, it
/// reports the end-to-end metrics of each request's fastest pass. Traced,
/// the second pass is the untraced baseline for the tracing overhead and
/// the third runs with tracing on; it reports that pass's per-layer
/// metrics.
pub fn run(opts: &Options) -> Run {
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let first = pass(opts, Budget::Time(budget / PASSES), false, true);
    let repeat = Budget::Rounds(first.rounds);
    if !opts.trace {
        let mut fastest = first;
        let same = (1..PASSES).all(|_| fastest.keep_fastest(&pass(opts, repeat, false, false)));
        let mut report = report_of(&fastest);
        report.check(
            "repeat.same_work",
            same,
            format!(
                "{PASSES} passes over {} rounds did the same work with the same verdicts",
                fastest.rounds
            ),
        );
        report.metrics = end_to_end(&fastest);
        return Run {
            report,
            tracer: None,
        };
    }
    let untraced = pass(opts, repeat, false, false);
    trace::install(SPAN_CAPACITY);
    let traced = pass(opts, repeat, true, false);
    let tracer = trace::uninstall().expect("installed above");
    let mut report = report_of(&traced);
    report.checks = first.checks.clone();
    report.check(
        "trace.verdicts_unchanged",
        first.verdicts == traced.verdicts,
        format!(
            "{} untraced and {} traced verdict digests compared",
            first.verdicts.len(),
            traced.verdicts.len()
        ),
    );
    let unattributed = 1.0 - ratio(tracer.attributed_ns() as f64, traced.timed_ns() as f64);
    report.check(
        "trace.layers_reconcile",
        unattributed.abs() < 0.05,
        format!(
            "layer self times leave {:.3}% of the timed wall time unattributed",
            unattributed * 100.0
        ),
    );
    report.metrics = per_layer(&untraced, &traced, &tracer);
    Run {
        report,
        tracer: Some(tracer),
    }
}

fn report_of(p: &Pass) -> Report {
    Report {
        attempted: p.request_ns.len() as u64,
        failed: p.failed,
        metrics: Vec::new(),
        outcomes: p
            .outcomes
            .iter()
            .map(|&(name, value, unit)| metric(name, value, unit))
            .collect(),
        checks: p.checks.clone(),
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn median(values: &[u64]) -> f64 {
    report::quantile(&report::sorted(values.iter().map(|&v| v as f64)), 0.5)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let requests = report::sorted(p.request_ns.iter().map(|&ns| ns as f64 / 1e3));
    vec![
        metric(
            "setup_s",
            (median(&p.corpus_ns) + median(&p.setup_ns)) / 1e9,
            "s",
        ),
        metric(
            "ops_per_s",
            ratio(p.ops as f64, p.timed_ns() as f64 / 1e9),
            "ops/s",
        ),
        metric("request_us_p50", report::quantile(&requests, 0.5), "us"),
        metric("request_us_p90", report::quantile(&requests, 0.9), "us"),
        metric("rss_mb", median(&p.rss_kib) / 1024.0, "MiB"),
    ]
}

/// The per-layer metrics of a traced pass. Span times and call counts
/// are per timed request; the program's own counters are per request it
/// served, warm-up included.
fn per_layer(base: &Pass, traced: &Pass, tracer: &Tracer) -> Vec<Metric> {
    use trace::{layer, LAYERS, OP_CLASSES};
    let requests = traced.request_ns.len().max(1) as f64;
    let served = requests + traced.warmup_requests as f64;
    let us = |ns: u64| ns as f64 / 1e3 / requests;
    let calls = |n: u64| n as f64 / requests;
    let c = &traced.counters;
    let counter = |name: &str| c.registry.counters.get(name).copied().unwrap_or(0) as f64 / served;
    let hist = |name: &str| c.registry.histograms.get(name);

    let mut out = vec![metric(
        "client.us",
        us(tracer.totals(layer::REQUEST).self_ns),
        "us/req",
    )];
    let (mut vfs_self, mut vfs_calls) = (0, 0);
    for l in layer::VFS_OPEN..=layer::VFS_CLOSE {
        let t = tracer.totals(l);
        vfs_self += t.self_ns;
        vfs_calls += t.calls;
        out.push(metric(
            format!("{}.us", LAYERS[l as usize]),
            us(t.total_ns),
            "us/req",
        ));
        out.push(metric(
            format!("{}.calls", LAYERS[l as usize]),
            calls(t.calls),
            "calls/req",
        ));
    }
    out.push(metric(
        "vfs.self.us_per_op",
        ratio(vfs_self as f64 / 1e3, vfs_calls as f64),
        "us",
    ));
    for first in [layer::FILTER_PRE, layer::FILTER_POST] {
        for class in 0..OP_CLASSES.len() as u8 {
            let l = first + class;
            let t = tracer.totals(l);
            out.push(metric(
                format!("{}.us", LAYERS[l as usize]),
                us(t.total_ns),
                "us/req",
            ));
            out.push(metric(
                format!("{}.calls", LAYERS[l as usize]),
                calls(t.calls),
                "calls/req",
            ));
        }
    }
    let capture = tracer.totals(layer::SHADOW_CAPTURE);
    let s = &c.shadow;
    out.extend([
        metric("shadow.capture.us", us(capture.total_ns), "us/req"),
        metric("shadow.capture.calls", calls(capture.calls), "calls/req"),
        metric(
            "shadow.capture.bytes",
            calls(tracer.capture_bytes()),
            "bytes/req",
        ),
        metric(
            "shadow.note.calls",
            calls(tracer.totals(layer::SHADOW_NOTE).calls),
            "calls/req",
        ),
        metric(
            "shadow.store.captures",
            s.captures as f64 / served,
            "count/req",
        ),
        metric(
            "shadow.store.coalesced",
            s.coalesced as f64 / served,
            "count/req",
        ),
        metric(
            "shadow.store.dedup_hits",
            s.dedup_hits as f64 / served,
            "count/req",
        ),
        metric(
            "shadow.store.evictions",
            s.evictions as f64 / served,
            "count/req",
        ),
        metric(
            "shadow.store.pin_overflows",
            s.pin_overflows as f64 / served,
            "count/req",
        ),
        metric("shadow.store.entries_max", s.entries as f64, "count"),
        metric("shadow.store.bytes_held_max", s.bytes_held as f64, "bytes"),
        metric(
            "shadow.store.pinned_entries_max",
            s.pinned_entries as f64,
            "count",
        ),
        metric(
            "shadow.coalesce_ratio",
            ratio(s.coalesced as f64, (s.captures + s.coalesced) as f64),
            "ratio",
        ),
        metric(
            "engine.close.stamp",
            counter("engine.incremental.stamp_skips"),
            "count/req",
        ),
        metric(
            "engine.close.delta",
            counter("engine.incremental.delta_applied"),
            "count/req",
        ),
        metric(
            "engine.close.full",
            counter("engine.incremental.full_recompute"),
            "count/req",
        ),
    ]);
    for ind in Indicator::ALL {
        let sum = hist(&format!("engine.eval.{}.ns", ind.name())).map_or(0, |h| h.sum);
        out.push(metric(
            format!("engine.eval.{}.us", ind.name()),
            sum as f64 / 1e3 / served,
            "us/req",
        ));
    }
    let k = &c.cache;
    let p = &c.pipeline;
    let restores = c.restores as f64;
    out.extend([
        metric("cache.hits", k.hits as f64 / served, "count/req"),
        metric("cache.misses", k.misses as f64 / served, "count/req"),
        metric("cache.evictions", k.evictions as f64 / served, "count/req"),
        metric(
            "cache.hit_ratio",
            ratio(k.hits as f64, (k.hits + k.misses) as f64),
            "ratio",
        ),
        metric(
            "recovery.restore.ms",
            ratio(c.restore_ns as f64 / 1e6, restores),
            "ms",
        ),
        metric(
            "recovery.files_restored",
            ratio(c.files_restored as f64, restores),
            "files",
        ),
        metric("pipeline.enqueued", p.enqueued as f64 / served, "count/req"),
        metric(
            "pipeline.processed",
            p.processed as f64 / served,
            "count/req",
        ),
        metric("pipeline.degraded", p.degraded as f64 / served, "count/req"),
        metric("pipeline.batches", p.batches as f64 / served, "count/req"),
        metric(
            "pipeline.batch.size.mean",
            hist("pipeline.batch.size").map_or(0.0, |h| h.mean),
            "count",
        ),
        metric(
            "pipeline.drain.us",
            hist("pipeline.drain.ns").map_or(0.0, |h| h.mean / 1e3),
            "us",
        ),
        metric(
            "pipeline.backlog_drain_ms",
            mean(c.backlog_drain_ns.iter().map(|&ns| ns as f64 / 1e6)),
            "ms",
        ),
        metric(
            "fleet.spawn.ms",
            mean(c.spawn_ns.iter().map(|&ns| ns as f64 / 1e6)),
            "ms",
        ),
        metric(
            "fleet.private_bytes_per_tenant",
            mean(c.private_bytes_per_tenant.iter().copied()),
            "bytes",
        ),
        metric("fleet.corpus_bytes", c.corpus_bytes as f64, "bytes"),
    ]);
    out.extend([
        metric(
            "trace.overhead_frac",
            ratio(traced.timed_ns() as f64, base.timed_ns() as f64) - 1.0,
            "ratio",
        ),
        metric(
            "trace.unattributed_frac",
            1.0 - ratio(tracer.attributed_ns() as f64, traced.timed_ns() as f64),
            "ratio",
        ),
        metric(
            "trace.spans",
            tracer.spans().len() as f64 + tracer.dropped() as f64,
            "count",
        ),
    ]);
    out
}
