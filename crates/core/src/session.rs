//! The unified `Session` detector API.
//!
//! [`CryptoDrop::builder`] → [`SessionBuilder`] → [`Session`] is the one
//! entry point for configuring, validating, and running a detector. It
//! subsumes the deprecated `CryptoDrop::new` / `new_with_telemetry` /
//! `fork` / `Monitor::fork_engine` constructors: the builder validates the
//! configuration up front (returning a typed [`ConfigError`] instead of
//! silently accepting a detector that can never fire), and the session
//! decides — by configuration, not by call site — whether analysis runs
//! inline in the filter callbacks or on the async batched
//! [pipeline](crate::pipeline).
//!
//! ```
//! use cryptodrop::CryptoDrop;
//! use cryptodrop_vfs::{VPath, Vfs};
//!
//! let session = CryptoDrop::builder()
//!     .protecting("/docs")
//!     .build()
//!     .expect("valid config");
//!
//! let mut fs = Vfs::new();
//! fs.register_filter(Box::new(session.fork()));
//! let pid = fs.spawn_process("app.exe");
//! fs.create_dir_all(pid, &VPath::new("/docs")).unwrap();
//! fs.write_file(pid, &VPath::new("/docs/a.txt"), b"hi").unwrap();
//! session.drain();
//! assert_eq!(session.score(pid), 0);
//! ```

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::thread::JoinHandle;

use cryptodrop_recovery::{RecoveryReport, ShadowConfig, ShadowStore};
use cryptodrop_telemetry::Telemetry;
use cryptodrop_vfs::{FaultInjector, FaultPlan, FaultStats, ProcessId, VPath, Vfs};

use crate::config::{Config, DecayPolicy, ScoreConfig};
use crate::engine::{CryptoDrop, Monitor};
use crate::pipeline::{PipelineConfig, PipelineShared, PipelineStats};

/// Why a [`SessionBuilder`] rejected its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// No protected directories: the detector would never score anything.
    NoProtectedDirs,
    /// A detection threshold of zero would suspend every process on its
    /// first operation. Carries the offending field name.
    ZeroThreshold(&'static str),
    /// `union_threshold` must not exceed `non_union_threshold` — union
    /// indication *lowers* the threshold (paper §V-B2).
    UnionThresholdAboveBase {
        /// The configured `union_threshold`.
        union: u32,
        /// The configured `non_union_threshold`.
        non_union: u32,
    },
    /// A bounded snapshot cache smaller than the pinned budget could never
    /// honour the pin guarantee.
    SnapshotCacheBelowPinnedBudget {
        /// The configured `snapshot_cache_capacity`.
        capacity: usize,
        /// The configured `pinned_snapshot_budget`.
        budget: usize,
    },
    /// `max_digest_bytes` of zero disables the similarity indicator for
    /// every file.
    ZeroMaxDigestBytes,
    /// A pipeline sizing parameter was zero. Carries the field name.
    ZeroPipelineParam(&'static str),
    /// A recovery shadow store with a zero byte budget could never hold a
    /// single pre-image: every capture would be evicted on arrival.
    ZeroShadowBudget,
    /// Throttling enabled with an engage score of zero would delay every
    /// process — including fully benign ones at score 0 — on every
    /// destructive in-scope operation.
    ZeroThrottleScore,
    /// A decay policy with a zero time parameter would age every award
    /// out instantly: the scoreboard could never accumulate anything.
    /// Carries the offending field name.
    ZeroDecayParam(&'static str),
    /// A rate-budget parameter of zero would either throttle every
    /// family from its first modification (zero capacity) or make the
    /// budget meaningless (zero refill interval or zero delay). Carries
    /// the offending field name.
    ZeroRateBudgetParam(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoProtectedDirs => {
                write!(f, "no protected directories: the detector would never score")
            }
            Self::ZeroThreshold(which) => {
                write!(f, "{which} must be nonzero (zero suspends every process)")
            }
            Self::UnionThresholdAboveBase { union, non_union } => write!(
                f,
                "union_threshold ({union}) must not exceed non_union_threshold \
                 ({non_union}): union indication lowers the threshold"
            ),
            Self::SnapshotCacheBelowPinnedBudget { capacity, budget } => write!(
                f,
                "snapshot_cache_capacity ({capacity}) is below \
                 pinned_snapshot_budget ({budget}): the pin guarantee cannot hold"
            ),
            Self::ZeroMaxDigestBytes => {
                write!(f, "max_digest_bytes must be nonzero to digest any file")
            }
            Self::ZeroPipelineParam(which) => {
                write!(f, "pipeline {which} must be nonzero")
            }
            Self::ZeroShadowBudget => {
                write!(
                    f,
                    "recovery byte_budget must be nonzero: a zero-budget shadow \
                     store evicts every pre-image on arrival"
                )
            }
            Self::ZeroThrottleScore => {
                write!(
                    f,
                    "throttle_score must be nonzero when throttling is enabled: \
                     zero would delay every process from its first operation"
                )
            }
            Self::ZeroDecayParam(which) => {
                write!(
                    f,
                    "decay {which} must be nonzero: a zero-width policy ages every \
                     award out instantly and the scoreboard never accumulates"
                )
            }
            Self::ZeroRateBudgetParam(which) => {
                write!(
                    f,
                    "rate budget {which} must be nonzero when the rate budget is \
                     enabled"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validates an engine configuration — the checks behind
/// [`SessionBuilder::build`], shared with tests.
pub(crate) fn validate(config: &Config) -> Result<(), ConfigError> {
    if config.protected_dirs.is_empty() {
        return Err(ConfigError::NoProtectedDirs);
    }
    let s = &config.score;
    if s.non_union_threshold == 0 {
        return Err(ConfigError::ZeroThreshold("non_union_threshold"));
    }
    if s.union_threshold == 0 {
        return Err(ConfigError::ZeroThreshold("union_threshold"));
    }
    if s.union_threshold > s.non_union_threshold {
        return Err(ConfigError::UnionThresholdAboveBase {
            union: s.union_threshold,
            non_union: s.non_union_threshold,
        });
    }
    if config.snapshot_cache_capacity != 0
        && config.pinned_snapshot_budget != 0
        && config.snapshot_cache_capacity < config.pinned_snapshot_budget
    {
        return Err(ConfigError::SnapshotCacheBelowPinnedBudget {
            capacity: config.snapshot_cache_capacity,
            budget: config.pinned_snapshot_budget,
        });
    }
    if config.max_digest_bytes == 0 {
        return Err(ConfigError::ZeroMaxDigestBytes);
    }
    if config.throttle_enabled && config.throttle_score == 0 {
        return Err(ConfigError::ZeroThrottleScore);
    }
    match s.decay {
        DecayPolicy::None => {}
        DecayPolicy::Window { window_nanos } | DecayPolicy::Linear { window_nanos } => {
            if window_nanos == 0 {
                return Err(ConfigError::ZeroDecayParam("window_nanos"));
            }
        }
        DecayPolicy::HalfLife { half_life_nanos } => {
            if half_life_nanos == 0 {
                return Err(ConfigError::ZeroDecayParam("half_life_nanos"));
            }
        }
    }
    if config.rate_budget_enabled {
        if config.rate_budget_capacity == 0 {
            return Err(ConfigError::ZeroRateBudgetParam("rate_budget_capacity"));
        }
        if config.rate_refill_nanos_per_token == 0 {
            return Err(ConfigError::ZeroRateBudgetParam(
                "rate_refill_nanos_per_token",
            ));
        }
        if config.rate_throttle_nanos == 0 {
            return Err(ConfigError::ZeroRateBudgetParam("rate_throttle_nanos"));
        }
    }
    Ok(())
}

fn validate_pipeline(cfg: &PipelineConfig) -> Result<(), ConfigError> {
    if cfg.shards == 0 {
        return Err(ConfigError::ZeroPipelineParam("shards"));
    }
    if cfg.capacity == 0 {
        return Err(ConfigError::ZeroPipelineParam("capacity"));
    }
    if cfg.workers == 0 {
        return Err(ConfigError::ZeroPipelineParam("workers"));
    }
    if cfg.max_batch == 0 {
        return Err(ConfigError::ZeroPipelineParam("max_batch"));
    }
    Ok(())
}

/// Builds a validated [`Session`]. Obtain one with [`CryptoDrop::builder`].
#[derive(Default)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct SessionBuilder {
    config: Option<Config>,
    protected: Vec<VPath>,
    score: Option<ScoreConfig>,
    telemetry: Option<Telemetry>,
    pipeline: Option<PipelineConfig>,
    recovery: Option<ShadowConfig>,
    faults: Option<FaultPlan>,
    decoys: Vec<VPath>,
    throttle: Option<(u32, u64)>,
    rate_budget: Option<(u32, u64, u64)>,
    decay: Option<DecayPolicy>,
    deterministic_clock: bool,
}

impl SessionBuilder {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a protected directory. May be called repeatedly; directories
    /// accumulate on top of any base [`config`](Self::config).
    pub fn protecting(mut self, dir: impl Into<VPath>) -> Self {
        self.protected.push(dir.into());
        self
    }

    /// Starts from a complete [`Config`] instead of the defaults.
    /// Directories added with [`protecting`](Self::protecting) and a score
    /// set with [`score`](Self::score) still apply on top.
    pub fn config(mut self, config: Config) -> Self {
        self.config = Some(config);
        self
    }

    /// Replaces the scoring parameters.
    pub fn score(mut self, score: ScoreConfig) -> Self {
        self.score = Some(score);
        self
    }

    /// Wires the engine (and its pipeline, if enabled) to a [`Telemetry`]
    /// sink. Share the same handle with
    /// [`Vfs::set_telemetry`](cryptodrop_vfs::Vfs::set_telemetry) to merge
    /// filter and engine events onto one timeline.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Runs analysis on the async batched pipeline with default sizing
    /// (see [`PipelineConfig`]). Without this (or
    /// [`pipeline_config`](Self::pipeline_config)), analysis runs inline
    /// in the filter callbacks — the exact mode, where the operation that
    /// crosses the threshold is the one suspended. Pipelined verdicts
    /// lag: read results after [`Session::drain`], and apply late
    /// detections with [`Session::reconcile`].
    pub fn pipelined(self) -> Self {
        self.pipeline_config(PipelineConfig::default())
    }

    /// Runs analysis on the async batched pipeline with explicit sizing.
    pub fn pipeline_config(mut self, config: PipelineConfig) -> Self {
        self.pipeline = Some(config);
        self
    }

    /// Enables the shadow-copy recovery subsystem: the session owns a
    /// [`ShadowStore`] that journals pre-images of destructive operations
    /// (attach it to a filesystem with [`Session::attach`]), pins shadows
    /// of families the engine is scoring, and rolls suspects back after
    /// suspension ([`Session::restore`] /
    /// [`Session::reconcile_and_restore`]).
    pub fn recovery(mut self, config: ShadowConfig) -> Self {
        self.recovery = Some(config);
        self
    }

    /// Registers decoy (bait) files on top of any base
    /// [`config`](Self::config): any destructive operation on one is an
    /// instant maximum-confidence detection (see
    /// [`Config::decoy_paths`]). May be called repeatedly; decoys
    /// accumulate. Pair with
    /// [`Corpus::decoy_paths`](../cryptodrop_corpus/index.html) or any
    /// other source of bait paths, and keep the files themselves staged
    /// in the filesystem so enumeration finds them.
    pub fn decoys(mut self, decoys: impl IntoIterator<Item = VPath>) -> Self {
        self.decoys.extend(decoys);
        self
    }

    /// Enables reputation-driven throttling: once a family's score
    /// reaches `score`, each destructive in-scope operation it issues is
    /// delayed on the simulated clock by `score × nanos_per_point` (see
    /// [`Config::throttle_enabled`]).
    pub fn throttling(mut self, score: u32, nanos_per_point: u64) -> Self {
        self.throttle = Some((score, nanos_per_point));
        self
    }

    /// Enables per-family first-modification rate budgets: a token
    /// bucket of `capacity` tokens per family, refilling one token per
    /// `refill_nanos_per_token` of simulated time; while a family's
    /// bucket is dry, each destructive in-scope operation it issues is
    /// delayed by `throttle_nanos` on the simulated clock (composing
    /// with [`throttling`](Self::throttling)). See
    /// [`Config::rate_budget_enabled`].
    pub fn rate_budget(
        mut self,
        capacity: u32,
        refill_nanos_per_token: u64,
        throttle_nanos: u64,
    ) -> Self {
        self.rate_budget = Some((capacity, refill_nanos_per_token, throttle_nanos));
        self
    }

    /// Replaces the score-decay policy: reputation points age out of
    /// threshold checks over simulated time. See [`ScoreConfig::decay`].
    pub fn decay(mut self, policy: DecayPolicy) -> Self {
        self.decay = Some(policy);
        self
    }

    /// Arms deterministic fault injection (chaos testing): the session
    /// builds a [`FaultInjector`] from `plan`, hands it to the pipeline
    /// (worker-panic and latency sites) and — via [`Session::attach`] — to
    /// every attached [`Vfs`] (I/O-error and shadow-capture sites). The
    /// same seed always produces the same fault schedule. A
    /// [`FaultPlan::default`] plan is inert, so wiring this in
    /// unconditionally with an inactive plan costs nothing.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Makes every filesystem attached to this session keep deterministic
    /// timestamps: [`Session::attach`] sets
    /// [`ClockPolicy::Deterministic`](cryptodrop_vfs::ClockPolicy) on the
    /// [`Vfs`], so measured filter overhead is still recorded in the
    /// latency ledger but never advanced into the simulated clock. Two
    /// runs issuing the same operations then report identical `at_nanos`
    /// values in detection reports and audit trails.
    pub fn deterministic_clock(mut self) -> Self {
        self.deterministic_clock = true;
        self
    }

    /// Validates the configuration and starts the session (spawning the
    /// pipeline worker pool when pipelined).
    pub fn build(self) -> Result<Session, ConfigError> {
        let mut config = match self.config {
            Some(cfg) => cfg,
            None => match self.protected.first() {
                Some(first) => Config::protecting(first.clone()),
                None => return Err(ConfigError::NoProtectedDirs),
            },
        };
        for dir in self.protected {
            if !config.protected_dirs.contains(&dir) {
                config.protected_dirs.push(dir);
            }
        }
        if let Some(score) = self.score {
            config.score = score;
        }
        for decoy in self.decoys {
            if !config.decoy_paths.contains(&decoy) {
                config.decoy_paths.push(decoy);
            }
        }
        if let Some((score, nanos)) = self.throttle {
            config.throttle_enabled = true;
            config.throttle_score = score;
            config.throttle_nanos_per_point = nanos;
        }
        if let Some((capacity, refill, delay)) = self.rate_budget {
            config.rate_budget_enabled = true;
            config.rate_budget_capacity = capacity;
            config.rate_refill_nanos_per_token = refill;
            config.rate_throttle_nanos = delay;
        }
        if let Some(policy) = self.decay {
            config.score.decay = policy;
        }
        validate(&config)?;
        if let Some(pcfg) = &self.pipeline {
            validate_pipeline(pcfg)?;
        }
        if let Some(scfg) = &self.recovery {
            if scfg.byte_budget == 0 {
                return Err(ConfigError::ZeroShadowBudget);
            }
        }

        let telemetry = self.telemetry.unwrap_or_else(Telemetry::disabled);
        let faults = self
            .faults
            .map(|plan| FaultInjector::with_telemetry(plan, telemetry.clone()));
        let (mut engine, monitor) = CryptoDrop::with_telemetry_inner(config, telemetry.clone());
        // Attach the shadow store before any fork is taken: pipeline
        // workers must carry the reputation feed from their first record.
        let shadow = self.recovery.map(|scfg| {
            let store = Arc::new(ShadowStore::with_telemetry(scfg, telemetry.clone()));
            engine.attach_shadow(Arc::clone(&store));
            store
        });
        let mut workers = Vec::new();
        let pipeline = match self.pipeline {
            Some(pcfg) => {
                let shared = Arc::new(PipelineShared::new(pcfg, telemetry, faults.clone()));
                for idx in 0..pcfg.workers {
                    let pipe = Arc::clone(&shared);
                    // Workers hold a detached fork: processing a record
                    // must never re-enter the queue.
                    let worker_engine = engine.detached_fork();
                    let handle = std::thread::Builder::new()
                        .name(format!("cryptodrop-pipeline-{idx}"))
                        .spawn(move || {
                            // A panic (an analysis bug, or injected fault)
                            // unwinds the loop; the batch guard has already
                            // requeued the interrupted batch, so re-enter in
                            // place — same thread, same shards — and count
                            // the restart. A clean exit means shutdown.
                            loop {
                                let run = std::panic::catch_unwind(
                                    std::panic::AssertUnwindSafe(|| {
                                        pipe.worker_loop(&worker_engine, idx, pcfg.workers)
                                    }),
                                );
                                match run {
                                    Ok(()) => break,
                                    Err(_) => pipe.note_worker_restart(),
                                }
                            }
                        })
                        .expect("spawn pipeline worker");
                    workers.push(handle);
                }
                engine.attach_pipeline(Arc::clone(&shared));
                Some(shared)
            }
            None => None,
        };
        Ok(Session {
            engine,
            monitor,
            pipeline,
            shadow,
            faults,
            deterministic_clock: self.deterministic_clock,
            workers,
        })
    }
}

impl fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("config", &self.config)
            .field("protected", &self.protected)
            .field("score", &self.score)
            .field("pipelined", &self.pipeline.is_some())
            .finish_non_exhaustive()
    }
}

/// A running detector: the engine template, its [`Monitor`] view, and —
/// when pipelined — the shard queues and worker pool. Dropping the session
/// shuts the pipeline down drain-first: every queued record is analyzed
/// before the workers exit.
///
/// `Session` dereferences to [`Monitor`], so every read
/// (`score`, `detections`, `summaries`, `audit_trail`, ...) is available
/// directly on the session.
pub struct Session {
    engine: CryptoDrop,
    monitor: Monitor,
    pipeline: Option<Arc<PipelineShared>>,
    shadow: Option<Arc<ShadowStore>>,
    faults: Option<FaultInjector>,
    deterministic_clock: bool,
    workers: Vec<JoinHandle<()>>,
}

impl Session {
    /// A filter driver over this session's engine, for
    /// [`Vfs::register_filter`](cryptodrop_vfs::Vfs::register_filter).
    /// Forks share the scoreboard, snapshot cache, and detection log, and
    /// carry the pipeline attachment — register one per `Vfs` (one per
    /// thread) to fan a single detector out across filesystems.
    pub fn fork(&self) -> CryptoDrop {
        self.engine.fork_inner()
    }

    /// A clonable read handle onto the engine state, for threads that only
    /// observe (the session itself [derefs](Self#deref-methods) to the
    /// same view).
    pub fn monitor(&self) -> Monitor {
        self.monitor.clone()
    }

    /// Whether analysis runs on the async pipeline (`false` = inline).
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// The pipeline sizing, when pipelined.
    pub fn pipeline_config(&self) -> Option<PipelineConfig> {
        self.pipeline.as_ref().map(|p| *p.config())
    }

    /// Blocks until every record enqueued so far has been analyzed. A
    /// no-op for inline sessions, whose every verdict is complete when the
    /// operation returns. Call before reading scores or detections from a
    /// pipelined session.
    pub fn drain(&self) {
        if let Some(p) = &self.pipeline {
            p.quiesce();
        }
    }

    /// Point-in-time pipeline counters (all zero for inline sessions).
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.pipeline
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// The session's shadow store, when recovery is enabled.
    pub fn shadow_store(&self) -> Option<&Arc<ShadowStore>> {
        self.shadow.as_ref()
    }

    /// The session's fault injector, when built with
    /// [`faults`](SessionBuilder::faults).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// How many faults each injection site has fired so far (all zero when
    /// the session was built without [`faults`](SessionBuilder::faults)).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// Wires `fs` into this session in one call: registers a filter fork
    /// and — when recovery is enabled — installs the shadow store as the
    /// filesystem's pre-image sink. Equivalent to calling
    /// [`Vfs::register_filter`] and
    /// [`Vfs::set_shadow_sink`](cryptodrop_vfs::Vfs::set_shadow_sink)
    /// yourself. A session built with
    /// [`deterministic_clock`](SessionBuilder::deterministic_clock) also
    /// switches the filesystem's clock policy here.
    ///
    /// Returns a typed [`ClockHandle`](cryptodrop_vfs::ClockHandle) onto
    /// the attached filesystem's simulated clock, so callers pacing a
    /// workload (or reading detection timestamps) get the clock through
    /// the session wiring instead of raw nanosecond plumbing. Ignoring it
    /// is fine.
    pub fn attach(&self, fs: &mut Vfs) -> cryptodrop_vfs::ClockHandle {
        if let Some(shadow) = &self.shadow {
            fs.set_shadow_sink(Arc::clone(shadow) as _);
        }
        if let Some(faults) = &self.faults {
            // One shared decision stream: every attached filesystem draws
            // from the same deterministic fault schedule as the pipeline.
            fs.set_fault_injector(faults.clone());
        }
        if self.deterministic_clock {
            fs.set_clock_policy(cryptodrop_vfs::ClockPolicy::Deterministic);
        }
        fs.register_filter(Box::new(self.fork()));
        fs.clock_handle()
    }

    /// Whether this session pins attached filesystems to the
    /// deterministic clock policy.
    pub fn is_deterministic_clock(&self) -> bool {
        self.deterministic_clock
    }

    /// Rolls `family`'s destructive operations back against `fs` from the
    /// shadow store (see [`ShadowStore::recover`] for the semantics).
    /// Returns `None` when the session was built without
    /// [`recovery`](SessionBuilder::recovery).
    pub fn restore(&self, fs: &mut Vfs, family: ProcessId) -> Option<RecoveryReport> {
        self.shadow.as_ref().map(|s| s.recover(family, fs))
    }

    /// [`reconcile`](Self::reconcile)s pending detections into
    /// suspensions, then rolls back every detected family from the shadow
    /// store. A rollback consumes the family's journal state, so families
    /// already restored earlier (e.g. right after an inline suspension)
    /// produce an empty report the second time — the call is idempotent.
    /// Returns one report per detected family.
    pub fn reconcile_and_restore(&self, fs: &mut Vfs) -> Vec<RecoveryReport> {
        self.drain();
        let Some(shadow) = &self.shadow else {
            self.reconcile(fs);
            return Vec::new();
        };
        let mut reports = Vec::new();
        for report in self.monitor.detections() {
            fs.suspend_process(report.pid, "cryptodrop", &report.reason());
            reports.push(shadow.recover(report.pid, fs));
        }
        reports
    }

    /// Shuts the session down deterministically and returns the final
    /// pipeline counters: drains every queued record, captures the stats,
    /// then stops and joins the worker pool. `Drop` performs the same
    /// teardown, but fleet hosts despawning one tenant among thousands
    /// want the terminal stats for their rollup — after `drop` they are
    /// gone. Inline sessions return the default (all-zero) stats.
    pub fn shutdown(mut self) -> PipelineStats {
        let Some(p) = self.pipeline.take() else {
            return PipelineStats::default();
        };
        p.quiesce();
        let stats = p.stats();
        p.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        stats
    }

    /// Drains the pipeline, then applies any detection that has not yet
    /// reached `fs`'s process table as a suspension. On a pipelined
    /// session a threshold crossing can land *after* the triggering
    /// operation returned `Allow`; the family gate suspends on the
    /// family's next operation, but a process that goes quiet would
    /// otherwise never be suspended. Returns the number of suspensions
    /// applied.
    pub fn reconcile(&self, fs: &mut Vfs) -> usize {
        self.drain();
        let mut applied = 0;
        for report in self.monitor.detections() {
            if fs.suspend_process(report.pid, "cryptodrop", &report.reason()) {
                applied += 1;
            }
        }
        applied
    }
}

impl Deref for Session {
    type Target = Monitor;

    fn deref(&self) -> &Monitor {
        &self.monitor
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(p) = &self.pipeline {
            p.begin_shutdown();
            for handle in self.workers.drain(..) {
                let _ = handle.join();
            }
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("pipelined", &self.pipeline.is_some())
            .field("workers", &self.workers.len())
            .field("engine", &self.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_empty_protection() {
        assert_eq!(
            CryptoDrop::builder().build().err(),
            Some(ConfigError::NoProtectedDirs)
        );
    }

    #[test]
    fn builder_rejects_zero_thresholds() {
        let score = ScoreConfig {
            non_union_threshold: 0,
            ..ScoreConfig::default()
        };
        assert_eq!(
            CryptoDrop::builder()
                .protecting("/d")
                .score(score)
                .build()
                .err(),
            Some(ConfigError::ZeroThreshold("non_union_threshold"))
        );
        let score = ScoreConfig {
            union_threshold: 0,
            ..ScoreConfig::default()
        };
        assert_eq!(
            CryptoDrop::builder()
                .protecting("/d")
                .score(score)
                .build()
                .err(),
            Some(ConfigError::ZeroThreshold("union_threshold"))
        );
    }

    #[test]
    fn builder_rejects_inverted_thresholds() {
        let score = ScoreConfig {
            union_threshold: 300,
            non_union_threshold: 200,
            ..ScoreConfig::default()
        };
        assert_eq!(
            CryptoDrop::builder()
                .protecting("/d")
                .score(score)
                .build()
                .err(),
            Some(ConfigError::UnionThresholdAboveBase {
                union: 300,
                non_union: 200
            })
        );
    }

    #[test]
    fn builder_rejects_pin_budget_over_capacity() {
        let mut cfg = Config::protecting("/d");
        cfg.snapshot_cache_capacity = 100;
        cfg.pinned_snapshot_budget = 200;
        assert_eq!(
            CryptoDrop::builder().config(cfg).build().err(),
            Some(ConfigError::SnapshotCacheBelowPinnedBudget {
                capacity: 100,
                budget: 200
            })
        );
    }

    #[test]
    fn builder_rejects_zero_digest_budget() {
        let mut cfg = Config::protecting("/d");
        cfg.max_digest_bytes = 0;
        assert_eq!(
            CryptoDrop::builder().config(cfg).build().err(),
            Some(ConfigError::ZeroMaxDigestBytes)
        );
    }

    #[test]
    fn builder_rejects_zero_throttle_score() {
        let mut cfg = Config::protecting("/d");
        cfg.throttle_enabled = true;
        cfg.throttle_score = 0;
        let err = CryptoDrop::builder().config(cfg).build().err();
        assert_eq!(err, Some(ConfigError::ZeroThrottleScore));
        assert!(err.unwrap().to_string().contains("throttle_score"));
        // Score 0 with throttling off is the inert default — fine.
        let mut cfg = Config::protecting("/d");
        cfg.throttle_score = 0;
        assert!(CryptoDrop::builder().config(cfg).build().is_ok());
    }

    #[test]
    fn builder_threads_decoys_and_throttling_into_the_config() {
        use cryptodrop_vfs::VPath;
        let bait = VPath::new("/d/_passwords.xlsx");
        let session = CryptoDrop::builder()
            .protecting("/d")
            .decoys([bait.clone(), bait.clone()]) // duplicates collapse
            .throttling(40, 2_000_000)
            .build()
            .expect("valid");
        let cfg = session.config();
        assert_eq!(cfg.decoy_paths, vec![bait.clone()]);
        assert!(cfg.is_decoy(&bait));
        assert!(cfg.throttle_enabled);
        assert_eq!(cfg.throttle_score, 40);
        assert_eq!(cfg.throttle_nanos_per_point, 2_000_000);
    }

    #[test]
    fn builder_rejects_zero_pipeline_params() {
        for (which, pcfg) in [
            (
                "shards",
                PipelineConfig {
                    shards: 0,
                    ..PipelineConfig::default()
                },
            ),
            (
                "capacity",
                PipelineConfig {
                    capacity: 0,
                    ..PipelineConfig::default()
                },
            ),
            (
                "workers",
                PipelineConfig {
                    workers: 0,
                    ..PipelineConfig::default()
                },
            ),
            (
                "max_batch",
                PipelineConfig {
                    max_batch: 0,
                    ..PipelineConfig::default()
                },
            ),
        ] {
            assert_eq!(
                CryptoDrop::builder()
                    .protecting("/d")
                    .pipeline_config(pcfg)
                    .build()
                    .err(),
                Some(ConfigError::ZeroPipelineParam(which))
            );
        }
    }

    #[test]
    fn builder_accumulates_protected_dirs() {
        let session = CryptoDrop::builder()
            .protecting("/docs")
            .protecting("/desktop")
            .protecting("/docs") // duplicate collapses
            .build()
            .unwrap();
        assert_eq!(session.config().protected_dirs.len(), 2);
        assert!(!session.is_pipelined());
        assert_eq!(session.pipeline_stats(), PipelineStats::default());
    }

    #[test]
    fn config_error_messages_name_the_field() {
        let msgs = [
            ConfigError::NoProtectedDirs.to_string(),
            ConfigError::ZeroThreshold("union_threshold").to_string(),
            ConfigError::UnionThresholdAboveBase {
                union: 3,
                non_union: 2,
            }
            .to_string(),
            ConfigError::SnapshotCacheBelowPinnedBudget {
                capacity: 1,
                budget: 2,
            }
            .to_string(),
            ConfigError::ZeroMaxDigestBytes.to_string(),
            ConfigError::ZeroPipelineParam("workers").to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[1].contains("union_threshold"));
        assert!(msgs[5].contains("workers"));
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let session = CryptoDrop::builder()
            .protecting("/docs")
            .pipelined()
            .faults(FaultPlan::default())
            .build()
            .unwrap();
        assert!(session.fault_injector().is_some());
        assert!(!session.fault_injector().unwrap().plan().is_active());
        let mut fs = Vfs::new();
        session.attach(&mut fs);
        let pid = fs.spawn_process("app.exe");
        fs.create_dir_all(pid, &VPath::new("/docs")).unwrap();
        fs.write_file(pid, &VPath::new("/docs/a.txt"), b"hello")
            .unwrap();
        session.drain();
        assert_eq!(session.fault_stats(), FaultStats::default());
    }

    #[test]
    fn pipelined_session_starts_and_drops_cleanly() {
        let session = CryptoDrop::builder()
            .protecting("/docs")
            .pipelined()
            .build()
            .unwrap();
        assert!(session.is_pipelined());
        assert_eq!(session.pipeline_config().unwrap().shards, 8);
        session.drain();
        drop(session); // workers join without any work
    }
}
