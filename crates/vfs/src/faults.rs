//! Deterministic, seedable fault injection.
//!
//! A detector that deadlocks or panics mid-attack is worse than no
//! detector: the attack keeps destroying data while the monitoring layer
//! is wedged. This module provides the chaos half of proving that never
//! happens — a [`FaultPlan`] describes *which* failures to inject and a
//! [`FaultInjector`] makes the per-site decisions, deterministically, so
//! any failing schedule replays exactly from its seed.
//!
//! Four fault classes are supported, matching the layers the hardened
//! paths must survive:
//!
//! * **VFS I/O errors** ([`FaultPlan::io_error_probability`] /
//!   [`FaultPlan::io_error_at`]) — a filtered operation aborts with
//!   [`VfsError::Io`] before reaching the filter chain, like a transient
//!   device error below the minifilter.
//! * **Shadow capture failures** ([`FaultPlan::capture_failure_probability`]
//!   / [`FaultPlan::capture_failure_at`]) — the pre-image sink's capture
//!   fails; the store degrades to a counted, per-file restore conflict
//!   instead of losing the journal.
//! * **Pipeline worker panics** ([`FaultPlan::worker_panic_probability`] /
//!   [`FaultPlan::worker_panic_at`]) — an analysis worker panics
//!   mid-batch; the pipeline requeues the batch and respawns the worker.
//! * **Latency spikes** ([`FaultPlan::latency_spike_probability`] /
//!   [`FaultPlan::latency_spike_at`]) — the simulated clock jumps by
//!   [`FaultPlan::latency_spike_nanos`] before an operation, modeling a
//!   stalled device.
//!
//! # Determinism
//!
//! Each site keeps an atomic operation index. A fault fires at index `i`
//! when `i` was explicitly scheduled (`*_at`), or when a stateless hash of
//! `(seed, site, i)` falls under the site's probability. Decisions depend
//! only on the seed and each site's call ordinal — never on wall-clock
//! time or thread scheduling — so single-threaded replays are exactly
//! reproducible and multi-threaded runs are reproducible per interleaving.
//!
//! # Example
//!
//! ```
//! use cryptodrop_vfs::{FaultInjector, FaultPlan, Vfs, VPath};
//!
//! let plan = FaultPlan::seeded(42)
//!     .io_error_probability(0.25)
//!     .io_error_at(0); // and always fail the very first filtered op
//! let mut fs = Vfs::new();
//! fs.set_fault_injector(FaultInjector::new(plan));
//!
//! let pid = fs.spawn_process("app.exe");
//! fs.create_dir_all(pid, &VPath::new("/docs")).unwrap();
//! let err = fs
//!     .write_file(pid, &VPath::new("/docs/a.txt"), b"hi")
//!     .unwrap_err();
//! assert!(matches!(err, cryptodrop_vfs::VfsError::Io(_)));
//! assert!(fs.fault_injector().unwrap().stats().io_errors >= 1);
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cryptodrop_telemetry::{Counter, JournalKind, MetricsSnapshot, Telemetry};

use crate::error::VfsError;
use crate::path::VPath;
use crate::process::ProcessId;

/// The injection sites a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    Io,
    Capture,
    WorkerPanic,
    Latency,
}

impl Site {
    fn index(self) -> usize {
        match self {
            Site::Io => 0,
            Site::Capture => 1,
            Site::WorkerPanic => 2,
            Site::Latency => 3,
        }
    }

    /// A fixed per-site salt so the same seed yields independent decision
    /// streams per site.
    fn salt(self) -> u64 {
        match self {
            Site::Io => 0x494F_5F45_5252_4F52,          // "IO_ERROR"
            Site::Capture => 0x4341_5054_5552_45FF,     // "CAPTURE."
            Site::WorkerPanic => 0x5041_4E49_435F_5757, // "PANIC_WW"
            Site::Latency => 0x4C41_5445_4E43_59FF,     // "LATENCY."
        }
    }

    fn label(self) -> &'static str {
        match self {
            Site::Io => "vfs.io",
            Site::Capture => "shadow.capture",
            Site::WorkerPanic => "pipeline.worker",
            Site::Latency => "clock.latency",
        }
    }

    /// The registry counter of the site's fired decisions.
    fn counter(self) -> &'static str {
        match self {
            Site::Io => "fault.io_errors",
            Site::Capture => "fault.capture_failures",
            Site::WorkerPanic => "fault.worker_panics",
            Site::Latency => "fault.latency_spikes",
        }
    }

    const ALL: [Site; 4] = [Site::Io, Site::Capture, Site::WorkerPanic, Site::Latency];
}

/// A declarative fault schedule: per-site probabilities, explicitly
/// scheduled operation indices, and the shared seed. Build one with
/// [`FaultPlan::seeded`] and hand it to [`FaultInjector::new`] (or a
/// session builder that wires the injector for you).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    io_error_p: f64,
    capture_failure_p: f64,
    worker_panic_p: f64,
    latency_spike_p: f64,
    latency_spike_nanos: u64,
    scheduled: [BTreeSet<u64>; 4],
}

impl Default for FaultPlan {
    /// A plan that injects nothing (all probabilities zero, nothing
    /// scheduled).
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for later probability
    /// decisions.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            io_error_p: 0.0,
            capture_failure_p: 0.0,
            worker_panic_p: 0.0,
            latency_spike_p: 0.0,
            latency_spike_nanos: 250_000, // 250µs: a visible device stall
            scheduled: [
                BTreeSet::new(),
                BTreeSet::new(),
                BTreeSet::new(),
                BTreeSet::new(),
            ],
        }
    }

    /// The seed the probability decisions are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability (clamped to `0.0..=1.0`) that a filtered VFS operation
    /// aborts with [`VfsError::Io`].
    pub fn io_error_probability(mut self, p: f64) -> Self {
        self.io_error_p = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that a shadow pre-image capture fails.
    pub fn capture_failure_probability(mut self, p: f64) -> Self {
        self.capture_failure_p = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that a pipeline worker panics before processing a
    /// record.
    pub fn worker_panic_probability(mut self, p: f64) -> Self {
        self.worker_panic_p = p.clamp(0.0, 1.0);
        self
    }

    /// Probability that an operation is preceded by a simulated-clock
    /// latency spike.
    pub fn latency_spike_probability(mut self, p: f64) -> Self {
        self.latency_spike_p = p.clamp(0.0, 1.0);
        self
    }

    /// How far the clock jumps on a latency spike (default 250µs).
    pub fn latency_spike_nanos(mut self, nanos: u64) -> Self {
        self.latency_spike_nanos = nanos;
        self
    }

    /// Always inject an I/O error at the `index`-th I/O fault point
    /// (0-based, counted across all processes). May be called repeatedly.
    pub fn io_error_at(mut self, index: u64) -> Self {
        self.scheduled[Site::Io.index()].insert(index);
        self
    }

    /// Always fail the `index`-th shadow capture.
    pub fn capture_failure_at(mut self, index: u64) -> Self {
        self.scheduled[Site::Capture.index()].insert(index);
        self
    }

    /// Always panic the worker at the `index`-th record it would process.
    pub fn worker_panic_at(mut self, index: u64) -> Self {
        self.scheduled[Site::WorkerPanic.index()].insert(index);
        self
    }

    /// Always spike the clock at the `index`-th latency fault point.
    pub fn latency_spike_at(mut self, index: u64) -> Self {
        self.scheduled[Site::Latency.index()].insert(index);
        self
    }

    /// Whether the plan can ever fire (used to skip fault-point overhead
    /// entirely for all-zero plans).
    pub fn is_active(&self) -> bool {
        self.io_error_p > 0.0
            || self.capture_failure_p > 0.0
            || self.worker_panic_p > 0.0
            || self.latency_spike_p > 0.0
            || self.scheduled.iter().any(|s| !s.is_empty())
    }

    fn probability(&self, site: Site) -> f64 {
        match site {
            Site::Io => self.io_error_p,
            Site::Capture => self.capture_failure_p,
            Site::WorkerPanic => self.worker_panic_p,
            Site::Latency => self.latency_spike_p,
        }
    }
}

/// Injection counters, one per fault class: a typed view of the
/// `fault.*` metrics. Read via [`FaultInjector::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// VFS operations aborted with an injected [`VfsError::Io`].
    pub io_errors: u64,
    /// Shadow captures failed by injection.
    pub capture_failures: u64,
    /// Worker-panic decisions returned to the pipeline.
    pub worker_panics: u64,
    /// Latency spikes applied to the simulated clock.
    pub latency_spikes: u64,
}

impl FaultStats {
    /// The fault counts in `metrics`: one injector's registry, or a fleet
    /// rollup.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> Self {
        let fired = |site: Site| metrics.counter(site.counter());
        Self {
            io_errors: fired(Site::Io),
            capture_failures: fired(Site::Capture),
            worker_panics: fired(Site::WorkerPanic),
            latency_spikes: fired(Site::Latency),
        }
    }
}

#[derive(Debug)]
struct SiteState {
    /// Next decision ordinal at this site.
    index: AtomicU64,
    /// Decisions that fired: the site's `fault.*` counter.
    fired: Counter,
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    sites: [SiteState; 4],
    telemetry: Telemetry,
}

/// The shared fault-decision engine. Cheap to clone (an `Arc` handle);
/// every clone observes the same decision stream and counters. Install on
/// a filesystem with [`Vfs::set_fault_injector`](crate::Vfs::set_fault_injector);
/// higher layers (the analysis pipeline) hold their own clone for worker
/// faults.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    inner: Arc<Inner>,
}

/// splitmix64: a stateless 64-bit mix with full avalanche, so consecutive
/// indices decorrelate completely.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// An injector executing `plan`, counting into a disabled telemetry
    /// sink of its own.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_telemetry(plan, Telemetry::disabled())
    }

    /// An injector executing `plan`, counting into `telemetry`'s
    /// `fault.*` counters and journaling `Fault` events through it.
    pub fn with_telemetry(plan: FaultPlan, telemetry: Telemetry) -> Self {
        Self {
            inner: Arc::new(Inner {
                plan,
                sites: Site::ALL.map(|site| SiteState {
                    index: AtomicU64::new(0),
                    fired: telemetry.counter(site.counter()),
                }),
                telemetry,
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Point-in-time injection counters, read from the injector's
    /// telemetry sink.
    pub fn stats(&self) -> FaultStats {
        FaultStats::from_metrics(&self.inner.telemetry.metrics().snapshot())
    }

    /// One decision at `site`: claims the next ordinal and fires when it
    /// was scheduled or the seeded hash falls under the site probability.
    fn decide(&self, site: Site) -> bool {
        let state = &self.inner.sites[site.index()];
        let idx = state.index.fetch_add(1, Ordering::Relaxed);
        let plan = &self.inner.plan;
        let fire = plan.scheduled[site.index()].contains(&idx) || {
            let p = plan.probability(site);
            p > 0.0 && {
                // Top 53 bits → uniform fraction in [0, 1).
                let h = splitmix64(plan.seed ^ site.salt() ^ idx);
                let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
                frac < p
            }
        };
        if fire {
            state.fired.inc();
        }
        fire
    }

    fn journal(&self, at_nanos: u64, pid: u32, site: Site, detail: String) {
        self.inner.telemetry.journal_event(at_nanos, pid, || JournalKind::Fault {
            site: site.label().to_string(),
            detail,
        });
    }

    /// Decides whether the filtered operation on `path` aborts with an
    /// injected I/O error. Called by the VFS at its fault points.
    pub fn io_error(&self, at_nanos: u64, pid: ProcessId, path: &VPath) -> Option<VfsError> {
        if !self.decide(Site::Io) {
            return None;
        }
        self.journal(at_nanos, pid.0, Site::Io, format!("injected i/o error: {path}"));
        Some(VfsError::Io(path.clone()))
    }

    /// Decides whether the shadow capture of `path` fails.
    pub fn capture_failure(&self, at_nanos: u64, pid: ProcessId, path: &VPath) -> bool {
        if !self.decide(Site::Capture) {
            return false;
        }
        self.journal(
            at_nanos,
            pid.0,
            Site::Capture,
            format!("injected capture failure: {path}"),
        );
        true
    }

    /// Decides whether a pipeline worker panics before its next record.
    /// The caller (the pipeline) performs the actual `panic!` so the
    /// unwind starts inside its own hardened scope.
    pub fn worker_panic(&self) -> bool {
        if !self.decide(Site::WorkerPanic) {
            return false;
        }
        self.journal(0, 0, Site::WorkerPanic, "injected worker panic".to_string());
        true
    }

    /// Decides whether the next operation sees a latency spike, returning
    /// the nanoseconds to add to the simulated clock.
    pub fn latency_spike(&self, at_nanos: u64, pid: ProcessId) -> Option<u64> {
        if !self.decide(Site::Latency) {
            return None;
        }
        let nanos = self.inner.plan.latency_spike_nanos;
        self.journal(at_nanos, pid.0, Site::Latency, format!("injected latency spike: {nanos}ns"));
        Some(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let inj = FaultInjector::new(plan);
        for _ in 0..1000 {
            assert!(inj.io_error(0, ProcessId(1), &VPath::new("/x")).is_none());
            assert!(!inj.capture_failure(0, ProcessId(1), &VPath::new("/x")));
            assert!(!inj.worker_panic());
            assert!(inj.latency_spike(0, ProcessId(1)).is_none());
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn scheduled_indices_fire_exactly_once() {
        let plan = FaultPlan::seeded(1).io_error_at(2).io_error_at(5);
        let inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..8)
            .map(|_| inj.io_error(0, ProcessId(1), &VPath::new("/f")).is_some())
            .collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false]
        );
        assert_eq!(inj.stats().io_errors, 2);
    }

    #[test]
    fn probability_decisions_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::new(
                FaultPlan::seeded(seed).capture_failure_probability(0.3),
            );
            (0..64)
                .map(|_| inj.capture_failure(0, ProcessId(9), &VPath::new("/f")))
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let fired = run(7).iter().filter(|f| **f).count();
        assert!(
            (4..=32).contains(&fired),
            "p=0.3 over 64 trials fired {fired} times"
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan::seeded(3)
            .io_error_probability(1.0)
            .worker_panic_probability(0.0);
        let inj = FaultInjector::new(plan);
        assert!(inj.io_error(0, ProcessId(1), &VPath::new("/f")).is_some());
        assert!(!inj.worker_panic(), "other sites unaffected");
    }

    #[test]
    fn clones_share_one_decision_stream() {
        let inj = FaultInjector::new(FaultPlan::seeded(0).io_error_at(1));
        let other = inj.clone();
        assert!(inj.io_error(0, ProcessId(1), &VPath::new("/f")).is_none()); // index 0
        assert!(other.io_error(0, ProcessId(1), &VPath::new("/f")).is_some()); // index 1
        assert_eq!(inj.stats().io_errors, 1);
    }

    #[test]
    fn telemetry_exports_fault_counters_and_journal() {
        let t = Telemetry::new(64);
        let inj = FaultInjector::with_telemetry(
            FaultPlan::seeded(0).latency_spike_at(0).latency_spike_nanos(77),
            t.clone(),
        );
        assert_eq!(inj.latency_spike(123, ProcessId(4)), Some(77));
        assert_eq!(t.counter("fault.latency_spikes").value(), 1);
        let events = t.journal().events();
        assert!(events.iter().any(|e| matches!(
            &e.kind,
            JournalKind::Fault { site, .. } if site == "clock.latency"
        )));
    }
}
