//! The asynchronous batched analysis pipeline (ROADMAP: "sharding,
//! batching, async").
//!
//! Interposition callbacks stay on the verdict-critical fast path (family
//! gate, scope checks, content capture) and hand the heavy indicator work
//! — sniff, sdhash, entropy, score awards — to this pipeline as
//! `OpRecord`s. Records are distributed over
//! bounded per-shard FIFO queues keyed by process family (matching the
//! engine's lock shards), so one family's records are always processed in
//! order while unrelated families flow in parallel. A worker pool drains
//! per-shard batches and publishes results back through the engine's
//! sharded state, keeping `Monitor` reads lock-cheap.
//!
//! The pipeline is the lagged mode: a post-operation submission returns
//! `Allow` as soon as its record is queued, and a threshold crossing lands
//! on the family's next operation through the inline family gate (or at
//! [`Session::reconcile`](crate::Session::reconcile)). The exact mode —
//! the verdict on the very operation that crosses the threshold, as paper
//! §IV describes — is the inline engine, a session built without a
//! pipeline.
//!
//! Backpressure on a full shard queue is explicit policy, not an accident
//! — see [`Backpressure`]. Queue depth, batch size, drain latency, and
//! degradation events are exported through the telemetry registry
//! (`pipeline.*` metrics) and mirrored in the always-on
//! [`PipelineStats`] counters.
//!
//! # Fault tolerance
//!
//! A detector must keep watching while an attack is actively destroying
//! data, so every failure mode a worker can hit degrades instead of
//! wedging a producer:
//!
//! * **Worker panics** (real bugs or injected via
//!   [`FaultPlan::worker_panic_probability`](cryptodrop_vfs::FaultPlan))
//!   unwind out of `PipelineShared::worker_loop`; a drop guard requeues
//!   the interrupted batch at the front of its shard (FIFO preserved,
//!   nothing lost) and the session's respawn wrapper restarts the worker,
//!   counted in [`PipelineStats::worker_restarts`]. A record that keeps
//!   panicking its worker is retried once, then completed un-analyzed and
//!   counted in [`PipelineStats::abandoned`] — a poison pill must not
//!   crash-loop the pool.
//! * **Poisoned locks** never cascade: every mutex/condvar acquisition
//!   recovers the guard via [`PoisonError::into_inner`]. The protected
//!   state is a `VecDeque` plus counters, all valid at every await point,
//!   so recovery is safe by construction.
//! * **Producers never wait on a worker**: a full shard queue makes the
//!   producer drain it itself, so a dead worker costs throughput, never
//!   liveness.
//!
//! The pipeline's blocking primitives are `std::sync` mutexes and condvars
//! (the vendored `parking_lot` stand-in has no condvar).

// Producers run inside filter callbacks on the caller's thread: a panic
// here aborts the user-visible operation, so unwrap/expect are banned.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cryptodrop_telemetry::{Counter, Gauge, Histogram, JournalKind, Telemetry};
use cryptodrop_vfs::{FaultInjector, Verdict};

use crate::engine::CryptoDrop;
use crate::record::OpRecord;

/// Locks a mutex, recovering the guard from a poisoned lock. Workers can
/// die mid-batch (panic injection, real bugs); the data under every
/// pipeline lock is structurally valid at each await point, so producers
/// must keep going rather than cascade the panic.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many times a record is handed to a worker before the pipeline
/// gives up on analyzing it (completing it un-analyzed and counting it in
/// [`PipelineStats::abandoned`]).
const MAX_PROCESS_ATTEMPTS: u32 = 2;

/// What happens when a record arrives at a full shard queue. There is one
/// policy, kept as a type so configurations that name it keep compiling;
/// the exact mode, with the verdict on the crossing operation itself, is
/// the inline engine (a session without a pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Never block and never drop: an enqueued post-operation submission
    /// returns `Allow` immediately (a crossing lands on the family's next
    /// operation via the inline family gate), and a full shard queue makes
    /// the *producer* drain it and process its own record inline —
    /// graceful degradation under sustained overload, counted in
    /// [`PipelineStats::degraded`] and journaled when telemetry is on.
    /// Records whose analysis is provably O(1) (stamp-matching
    /// steady-state saves) are processed on the calling thread instead of
    /// queued — cheaper than cloning their content — and return their
    /// real verdict, exactly as the inline engine would. The default.
    #[default]
    DegradeToInline,
}

/// Sizing and policy for the analysis pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Number of queue shards. Records shard by process family, so this
    /// bounds cross-family processing parallelism. Default 8.
    pub shards: usize,
    /// Bound on each shard queue, in records. Default 256.
    pub capacity: usize,
    /// Worker threads draining the shards (shard `s` belongs to worker
    /// `s % workers`). Default 2.
    pub workers: usize,
    /// Most records a worker takes from one shard per drain. Default 32.
    pub max_batch: usize,
    /// Full-queue policy. Default (and only)
    /// [`Backpressure::DegradeToInline`].
    pub backpressure: Backpressure,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            capacity: 256,
            workers: 2,
            max_batch: 32,
            backpressure: Backpressure::DegradeToInline,
        }
    }
}

/// Point-in-time pipeline counters, available whether or not telemetry is
/// enabled. Read via [`Session::pipeline_stats`](crate::Session::pipeline_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Records accepted onto a shard queue.
    pub enqueued: u64,
    /// Queued records whose analysis completed (excludes records processed
    /// inline through degradation, which never enter a queue).
    pub processed: u64,
    /// Full-queue degradations: submissions that drained the shard and ran
    /// inline (see [`Backpressure::DegradeToInline`]).
    pub degraded: u64,
    /// Batches drained (by workers or by degrading producers).
    pub batches: u64,
    /// Workers respawned after a panic unwound their loop.
    pub worker_restarts: u64,
    /// Records whose analysis was abandoned (completed un-analyzed) after
    /// repeatedly panicking their worker.
    pub abandoned: u64,
}

/// A record in flight.
struct Queued {
    rec: OpRecord<'static>,
    /// Times a drain has picked this record up. Bumped before processing,
    /// so a panic mid-analysis is charged to the record that caused it.
    attempts: u32,
}

/// One bounded FIFO shard.
struct ShardQueue {
    q: Mutex<VecDeque<Queued>>,
    /// Held across batch processing, by the worker or by a degrading
    /// producer — guarantees a shard's records are never reordered even
    /// when a producer drains it.
    drain: Mutex<()>,
    enqueued: AtomicU64,
    processed: AtomicU64,
    /// Records enqueued on this shard and not yet completed — counts a
    /// record from its `q.push_back` until its verdict is produced, so it
    /// covers both queue residency *and* time inside a worker's batch
    /// (a panic-requeued record simply stays counted). The light-record
    /// fast path reads this single atomic to prove the shard has no
    /// in-flight analysis to order against; fast-path records themselves
    /// never touch it.
    busy: AtomicU64,
}

impl ShardQueue {
    fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            drain: Mutex::new(()),
            enqueued: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            busy: AtomicU64::new(0),
        }
    }
}

/// Telemetry handles resolved once at pipeline construction.
struct PipelineMetrics {
    enqueued: Counter,
    processed: Counter,
    degraded: Counter,
    worker_restarts: Counter,
    abandoned: Counter,
    depth: Gauge,
    batch_size: Histogram,
    drain_ns: Histogram,
}

impl PipelineMetrics {
    fn new(t: &Telemetry) -> Self {
        Self {
            enqueued: t.counter("pipeline.enqueued"),
            processed: t.counter("pipeline.processed"),
            degraded: t.counter("pipeline.degraded"),
            worker_restarts: t.counter("pipeline.worker_restarts"),
            abandoned: t.counter("pipeline.abandoned"),
            depth: t.gauge("pipeline.queue.depth"),
            batch_size: t.histogram("pipeline.batch.size"),
            drain_ns: t.histogram("pipeline.drain.ns"),
        }
    }
}

/// The pipeline state shared by producers (filter forks), workers, and the
/// owning [`Session`](crate::Session).
pub(crate) struct PipelineShared {
    cfg: PipelineConfig,
    shards: Vec<ShardQueue>,
    shutdown: AtomicBool,
    /// Work-available sequence + condvar: producers bump it when they wake
    /// the workers; workers re-scan instead of sleeping whenever it moved.
    work_seq: Mutex<u64>,
    work_ready: Condvar,
    degraded: AtomicU64,
    batches: AtomicU64,
    worker_restarts: AtomicU64,
    abandoned: AtomicU64,
    metrics: PipelineMetrics,
    telemetry: Telemetry,
    /// Shared fault-decision engine (chaos testing). Consulted by workers
    /// only — producer-side drains are never panicked, they are already
    /// the degraded path.
    injector: Option<FaultInjector>,
}

/// Drop guard around one drained batch: on a panic mid-processing the
/// not-yet-completed remainder (including the record being processed) is
/// pushed back onto the **front** of the shard queue in its original
/// order, so nothing is lost, FIFO holds, and the respawned worker (or a
/// degrading producer) picks the remainder up.
struct BatchGuard<'a> {
    pipeline: &'a PipelineShared,
    shard: &'a ShardQueue,
    pending: VecDeque<Queued>,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        if self.pending.is_empty() {
            return; // normal completion
        }
        let mut q = lock_recover(&self.shard.q);
        while let Some(item) = self.pending.pop_back() {
            q.push_front(item);
        }
        drop(q);
        // Wake the respawned worker.
        self.pipeline.signal_work();
    }
}

impl PipelineShared {
    pub(crate) fn new(
        cfg: PipelineConfig,
        telemetry: Telemetry,
        injector: Option<FaultInjector>,
    ) -> Self {
        let metrics = PipelineMetrics::new(&telemetry);
        Self {
            shards: (0..cfg.shards.max(1)).map(|_| ShardQueue::new()).collect(),
            cfg,
            shutdown: AtomicBool::new(false),
            work_seq: Mutex::new(0),
            work_ready: Condvar::new(),
            degraded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            metrics,
            telemetry,
            injector,
        }
    }

    pub(crate) fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Same Fibonacci spread as the engine's lock shards, folded onto the
    /// queue shard count — one family always lands on one queue.
    fn shard_for(&self, key: cryptodrop_vfs::ProcessId) -> usize {
        (u64::from(key.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    fn signal_work(&self) {
        let mut g = lock_recover(&self.work_seq);
        *g = g.wrapping_add(1);
        drop(g);
        self.work_ready.notify_all();
    }

    /// Records that a worker was respawned after a panic. Called by the
    /// session's worker wrapper, which owns the `catch_unwind`.
    pub(crate) fn note_worker_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.metrics.worker_restarts.inc();
            self.telemetry.journal_event(0, 0, || JournalKind::Fault {
                site: "pipeline.worker".to_string(),
                detail: "worker respawned after panic".to_string(),
            });
        }
    }

    /// Submits one record and returns its verdict: the real one when the
    /// producer processed it on the calling thread (a light record, a
    /// full-queue degradation, or a pipeline already shut down), `Allow`
    /// when it was queued — a crossing then lands on the family's next
    /// operation through the inline family gate.
    pub(crate) fn submit(&self, engine: &CryptoDrop, rec: OpRecord<'_>) -> Verdict {
        if self.shutdown.load(Ordering::Acquire) {
            // The owning Session is gone: degrade to inline processing.
            return engine.process_record(&rec);
        }
        let shard = &self.shards[self.shard_for(rec.key)];
        // Producer fast path. A producer never waits, so handing a record
        // to a worker is a real win only when the analysis outweighs the
        // hand-off — and the hand-off is not free: `into_owned` clones the
        // record's full content (refresh/read/write/close records carry
        // the whole file), and the enqueue+wake round-trip costs a lock
        // and a notify. For a *light* record (every content pass resolves
        // through a stamp-matching snapshot in O(1) — the steady-state
        // save), the clone alone dwarfs the analysis, so the producer
        // processes it borrowed on the calling thread. Heavy records
        // (changed content, full sniff/sdhash/entropy) still enqueue: that
        // is the burst the pipeline exists to absorb. One acquire load of
        // `busy == 0` proves this shard has nothing queued or mid-batch to
        // order against (the release decrement at completion publishes
        // that record's engine effects), and in production a family's
        // records come from one `Vfs` thread, so no same-family record can
        // be submitted concurrently. Counted as enqueued + processed so
        // the settlement invariant holds; disabled under fault injection
        // so chaos runs keep exercising the worker path.
        if self.injector.is_none()
            && shard.busy.load(Ordering::Acquire) == 0
            && engine.record_is_light(&rec)
        {
            let v = engine.process_record(&rec);
            shard.enqueued.fetch_add(1, Ordering::Relaxed);
            shard.processed.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.is_enabled() {
                self.metrics.enqueued.inc();
                self.metrics.processed.inc();
            }
            return v;
        }
        {
            let mut q = lock_recover(&shard.q);
            if q.len() < self.cfg.capacity {
                q.push_back(Queued {
                    rec: rec.into_owned(),
                    attempts: 0,
                });
                shard.busy.fetch_add(1, Ordering::Release);
                let depth = q.len();
                drop(q);
                shard.enqueued.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.is_enabled() {
                    self.metrics.enqueued.inc();
                    self.metrics.depth.set(depth as i64);
                }
                // Wakes are batched. The producer never waits, so an eager
                // wake buys nothing and costs a lot — waking a parked
                // worker preempts the producer (the sleeper has all the
                // scheduler credit), which hands the analysis right back
                // to the producer-visible window the pipeline exists to
                // protect. Nothing is signalled until the queue reaches
                // half capacity (sustained overload — the worker must
                // engage or the producer will hit the full-queue inline
                // drain); below that the worker's bounded idle timer
                // (≤50ms) or an explicit [`Self::quiesce`] picks the
                // records up.
                if depth >= (self.cfg.capacity / 2).max(1) {
                    self.signal_work();
                }
                return Verdict::Allow;
            }
        }
        // Shard saturated: the producer degrades. Take the drain lock so
        // inline processing cannot reorder against the worker's in-flight
        // batch, empty the shard first (FIFO), then process the new record
        // directly from its borrowed form — nothing is ever dropped and
        // nothing is copied.
        self.degraded.fetch_add(1, Ordering::Relaxed);
        if self.telemetry.is_enabled() {
            self.metrics.degraded.inc();
            let shard_idx = self.shard_for(rec.key) as u64;
            self.telemetry
                .journal_event(rec.at_nanos, rec.key.0, || JournalKind::Backpressure {
                    shard: shard_idx,
                    queued: self.cfg.capacity as u64,
                });
        }
        let _drain = lock_recover(&shard.drain);
        self.drain_shard(engine, shard, false);
        engine.process_record(&rec)
    }

    /// Empties one shard in max-batch chunks, processing every record.
    /// Caller must hold the shard's drain lock.
    /// `worker` marks worker-context drains (the only ones subject to
    /// panic injection). Returns the number of records processed.
    ///
    /// Panic-safe: an unwind mid-batch (injected or real) requeues the
    /// unfinished remainder at the shard front via [`BatchGuard`].
    fn drain_shard(&self, engine: &CryptoDrop, shard: &ShardQueue, worker: bool) -> usize {
        let mut total = 0usize;
        loop {
            let batch: VecDeque<Queued> = {
                let mut q = lock_recover(&shard.q);
                let n = q.len().min(self.cfg.max_batch.max(1));
                if n == 0 {
                    break;
                }
                q.drain(..n).collect()
            };
            let timer = self.telemetry.start_timer();
            let batch_len = batch.len() as u64;
            let mut guard = BatchGuard {
                pipeline: self,
                shard,
                pending: batch,
            };
            while let Some(item) = guard.pending.front_mut() {
                item.attempts += 1;
                if item.attempts > MAX_PROCESS_ATTEMPTS {
                    // This record has already taken a worker down with it
                    // more than once: complete it un-analyzed rather than
                    // crash-looping the pool.
                    if let Some(item) = guard.pending.pop_front() {
                        shard.busy.fetch_sub(1, Ordering::Release);
                        shard.processed.fetch_add(1, Ordering::Relaxed);
                        self.abandoned.fetch_add(1, Ordering::Relaxed);
                        if self.telemetry.is_enabled() {
                            self.metrics.processed.inc();
                            self.metrics.abandoned.inc();
                            self.telemetry.journal_event(item.rec.at_nanos, item.rec.key.0, || {
                                JournalKind::Fault {
                                    site: "pipeline.worker".to_string(),
                                    detail: "record abandoned after repeated panics".to_string(),
                                }
                            });
                        }
                        total += 1;
                    }
                    continue;
                }
                if worker {
                    if let Some(injector) = &self.injector {
                        if injector.worker_panic() {
                            // The guard requeues `pending` (this record
                            // included) and the session wrapper respawns
                            // the worker.
                            panic!("injected fault: pipeline worker panic");
                        }
                    }
                }
                // A queued record's verdict has no caller left to take it:
                // a crossing reaches the family through the family gate.
                engine.process_record(&item.rec);
                guard.pending.pop_front();
                shard.busy.fetch_sub(1, Ordering::Release);
                shard.processed.fetch_add(1, Ordering::Relaxed);
                if self.telemetry.is_enabled() {
                    self.metrics.processed.inc();
                }
                total += 1;
            }
            drop(guard); // empty: disarms without requeueing
            self.batches.fetch_add(1, Ordering::Relaxed);
            if self.telemetry.is_enabled() {
                self.metrics.batch_size.record(batch_len);
                self.metrics.drain_ns.record_elapsed(timer);
            }
        }
        total
    }

    /// One worker's main loop: round-robin over its owned shards, sleeping
    /// on the work signal only when every owned shard is dry. Exits after
    /// shutdown once its shards are empty (drain-first shutdown: every
    /// queued record is processed).
    ///
    /// May panic (that is the point of worker-panic injection, and a
    /// defensive posture toward real analysis bugs): callers wrap it in
    /// `catch_unwind` and re-enter after
    /// [`note_worker_restart`](Self::note_worker_restart).
    pub(crate) fn worker_loop(&self, engine: &CryptoDrop, worker_idx: usize, workers: usize) {
        let owns = |i: usize| i % workers.max(1) == worker_idx;
        // Idle backoff: producers signal only once a queue reaches half
        // capacity (see `submit`), so below that this timer is what picks
        // records up. An idle worker doubles it up to 50ms rather than
        // re-scanning every few milliseconds and stealing timeslices from
        // producers (the light-record fast path keeps queues empty in the
        // steady state).
        const IDLE_MIN: Duration = Duration::from_millis(1);
        const IDLE_MAX: Duration = Duration::from_millis(50);
        let mut idle = IDLE_MIN;
        loop {
            let seen = *lock_recover(&self.work_seq);
            let mut did = 0usize;
            for (i, shard) in self.shards.iter().enumerate() {
                if !owns(i) {
                    continue;
                }
                let _drain = lock_recover(&shard.drain);
                did += self.drain_shard(engine, shard, true);
            }
            if did > 0 {
                idle = IDLE_MIN;
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                let empty = self
                    .shards
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| owns(*i))
                    .all(|(_, s)| lock_recover(&s.q).is_empty());
                if empty {
                    break;
                }
                continue;
            }
            let g = lock_recover(&self.work_seq);
            if *g == seen {
                // Producers bump the sequence before notifying, so a signal
                // between the scan and this check is never lost.
                let _ = self
                    .work_ready
                    .wait_timeout(g, idle)
                    .unwrap_or_else(PoisonError::into_inner);
                idle = (idle * 2).min(IDLE_MAX);
            }
        }
    }

    /// Blocks until every record enqueued so far has been processed. Kicks
    /// the workers on every poll: producers batch their wakes, so records
    /// may be sitting in a shallow queue with every worker parked
    /// — quiesce must not wait out the idle timer.
    pub(crate) fn quiesce(&self) {
        loop {
            let settled = self.shards.iter().all(|s| {
                lock_recover(&s.q).is_empty()
                    && s.enqueued.load(Ordering::Acquire) == s.processed.load(Ordering::Acquire)
            });
            if settled {
                return;
            }
            self.signal_work();
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Initiates drain-first shutdown: workers finish their queues, then
    /// exit; later submissions process inline.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.signal_work();
    }

    pub(crate) fn stats(&self) -> PipelineStats {
        let (mut enqueued, mut processed) = (0u64, 0u64);
        for s in &self.shards {
            enqueued += s.enqueued.load(Ordering::Relaxed);
            processed += s.processed.load(Ordering::Relaxed);
        }
        PipelineStats {
            enqueued,
            processed,
            degraded: self.degraded.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::borrow::Cow;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Once};

    use cryptodrop_vfs::{FaultPlan, FileId, ProcessId, VPath};

    use super::*;
    use crate::config::Config;
    use crate::record::RecordBody;

    /// Injected worker panics are expected here: silence the default
    /// panic-hook stderr spam for threads this module kills on purpose,
    /// delegating everything else to the previous hook.
    fn quiet_expected_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let expected = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("cryptodrop-pipeline"));
                if !expected {
                    prev(info);
                }
            }));
        });
    }

    /// A heavy record (a write with no stamp): it never takes the
    /// light-record fast path, so every submit goes through the queue.
    fn test_record(pid: u32, at_nanos: u64) -> OpRecord<'static> {
        OpRecord {
            key: ProcessId(pid),
            issuer: ProcessId(pid),
            process_name: Cow::Owned("chaos.exe".to_string()),
            at_nanos,
            body: RecordBody::Write {
                path: Cow::Owned(VPath::new("/docs/a.txt")),
                file: FileId(1),
                data: Cow::Owned(vec![7; 64]),
                stamp: 0,
            },
        }
    }

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            shards: 1,
            capacity: 8,
            workers: 1,
            max_batch: 4,
            backpressure: Backpressure::DegradeToInline,
        }
    }

    fn test_engine() -> CryptoDrop {
        let (engine, _monitor) =
            CryptoDrop::with_telemetry_inner(Config::protecting("/docs"), Telemetry::disabled());
        engine
    }

    /// A producer never waits on a worker: with the only worker dead, a
    /// full shard degrades onto the producer, which drains it and returns.
    #[test]
    fn producer_survives_worker_death_mid_batch() {
        quiet_expected_panics();
        let engine = test_engine();
        // The worker panics on the very first record it picks up — and
        // there is no respawn wrapper here, so the worker stays dead.
        let plan = FaultPlan::seeded(7).worker_panic_at(0);
        let shared = Arc::new(PipelineShared::new(
            small_config(),
            Telemetry::disabled(),
            Some(FaultInjector::new(plan)),
        ));
        let worker_engine = engine.detached_fork();
        let pipe = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("cryptodrop-pipeline-test".to_string())
            .spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| pipe.worker_loop(&worker_engine, 0, 1)));
            })
            .unwrap();

        // The worker's idle timer finds this record, panics on it (the
        // batch guard requeues it) and exits.
        assert_eq!(shared.submit(&engine, test_record(3, 0)), Verdict::Allow);
        worker.join().unwrap();
        assert_eq!(lock_recover(&shared.shards[0].q).len(), 1, "record requeued");

        // Fill the shard past capacity: the last submit finds it full and
        // must degrade onto the producer instead of waiting for a worker.
        let capacity = small_config().capacity as u64;
        for i in 1..=capacity {
            assert_eq!(shared.submit(&engine, test_record(3, i)), Verdict::Allow);
        }
        let stats = shared.stats();
        assert!(stats.degraded >= 1, "full shard must degrade: {stats:?}");
        assert_eq!(stats.enqueued, stats.processed);
        assert!(lock_recover(&shared.shards[0].q).is_empty());
        shared.quiesce();
    }

    /// The batch guard requeues an interrupted batch at the shard front:
    /// nothing is lost and FIFO order holds for the records behind it.
    #[test]
    fn panicking_drain_requeues_pending_records_in_order() {
        quiet_expected_panics();
        let engine = test_engine();
        let plan = FaultPlan::seeded(1).worker_panic_at(0);
        let shared = PipelineShared::new(
            small_config(),
            Telemetry::disabled(),
            Some(FaultInjector::new(plan)),
        );
        for i in 0..3 {
            assert_eq!(shared.submit(&engine, test_record(5, i)), Verdict::Allow);
        }
        let shard = &shared.shards[0];
        {
            let _drain = lock_recover(&shard.drain);
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Worker context: injection fires on the first record.
                shared.drain_shard(&engine, shard, true)
            }));
            assert!(result.is_err(), "injected panic must unwind");
        }
        let q = lock_recover(&shard.q);
        assert_eq!(q.len(), 3, "entire batch requeued, nothing lost");
        let at: Vec<u64> = q.iter().map(|i| i.rec.at_nanos).collect();
        assert_eq!(at, [0, 1, 2], "FIFO order preserved across the requeue");
        assert_eq!(q[0].attempts, 1, "interrupted record keeps its attempt count");
        drop(q);
        // A second (non-worker) drain is not subject to injection and
        // completes the whole batch.
        let _drain = lock_recover(&shard.drain);
        assert_eq!(shared.drain_shard(&engine, shard, false), 3);
        assert_eq!(shared.stats().processed, 3);
    }

    /// A record that panics its worker on every attempt is completed with
    /// `Allow` after `MAX_PROCESS_ATTEMPTS`, not retried forever.
    #[test]
    fn poison_pill_record_is_abandoned_after_retries() {
        quiet_expected_panics();
        let engine = test_engine();
        // Panic on every worker decision: the record can never process.
        let plan = FaultPlan::seeded(2).worker_panic_probability(1.0);
        let shared = PipelineShared::new(
            small_config(),
            Telemetry::disabled(),
            Some(FaultInjector::new(plan)),
        );
        assert_eq!(shared.submit(&engine, test_record(9, 0)), Verdict::Allow);
        let shard = &shared.shards[0];
        let mut panics = 0;
        // MAX_PROCESS_ATTEMPTS panicking drains, then one that abandons.
        for _ in 0..=MAX_PROCESS_ATTEMPTS {
            let _drain = lock_recover(&shard.drain);
            if catch_unwind(AssertUnwindSafe(|| shared.drain_shard(&engine, shard, true))).is_err()
            {
                panics += 1;
            }
        }
        assert_eq!(panics, MAX_PROCESS_ATTEMPTS);
        let stats = shared.stats();
        assert_eq!(stats.abandoned, 1, "poison pill completed un-analyzed");
        assert_eq!(stats.processed, 1);
        assert!(lock_recover(&shard.q).is_empty());
    }

    /// Poisoned pipeline locks must not cascade into producers.
    #[test]
    fn poisoned_shard_lock_recovers() {
        quiet_expected_panics();
        let shared = Arc::new(PipelineShared::new(
            small_config(),
            Telemetry::disabled(),
            None,
        ));
        let poisoner = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("cryptodrop-pipeline-poison".to_string())
            .spawn(move || {
                let _g = poisoner.shards[0].q.lock().unwrap();
                panic!("poison the shard lock");
            })
            .unwrap()
            .join()
            .unwrap_err();
        assert!(shared.shards[0].q.is_poisoned());
        // Submission still works end to end through the recovered guard.
        let engine = test_engine();
        let v = shared.submit(&engine, test_record(4, 0));
        assert_eq!(v, Verdict::Allow);
        assert_eq!(shared.stats().enqueued, 1);
    }
}
