//! Pipeline execution must be an implementation detail once drained.
//!
//! The inline engine is the exact mode: each operation sees the verdict
//! of its own analysis. The async pipeline lags — a crossing lands on the
//! family's next operation — but after `Session::drain` every detection
//! report, every indicator hit and the final scoreboard must match an
//! inline replay of the same randomized multi-process op stream. No
//! record is ever dropped — the final analysis state of a benign stream
//! equals inline even under forced queue saturation — and every
//! degradation is counted and journaled.

use cryptodrop::{CryptoDrop, PipelineConfig, ProcessSummary, Session, Telemetry};
use cryptodrop_telemetry::JournalKind;
use cryptodrop_vfs::{OpenOptions, ProcessId, VPath, Vfs};

/// Deterministic xorshift stream — no wall-clock, no global RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn text_content(tag: u64, n: usize) -> Vec<u8> {
    (0..)
        .flat_map(|i| format!("doc {tag} paragraph {i} with ordinary words\n").into_bytes())
        .take(n)
        .collect()
}

fn encrypt(data: &[u8], seed: u64) -> Vec<u8> {
    let mut r = Rng(seed | 1);
    data.iter().map(|b| b ^ (r.next() >> 32) as u8).collect()
}

/// What one replay leaves behind, timestamps neutralized (the Vfs
/// charges measured wall-clock filter overhead onto its simulated clock,
/// so `at_nanos` legitimately varies run to run).
struct Replay {
    /// One entry per attempted operation: `actor:op:outcome`. A lagged
    /// family issues extra operations before its gate closes, so only the
    /// inline run's list is meaningful op for op.
    ops: Vec<String>,
    detections: Vec<cryptodrop::DetectionReport>,
    summaries: Vec<ProcessSummary>,
    /// Per-pid `(score, files_lost, suspended-in-vfs, stripped hits)`.
    #[allow(clippy::type_complexity)]
    state: Vec<(u32, u32, bool, Vec<(cryptodrop::Indicator, u32, String)>)>,
}

/// Replays a seeded multi-process stream through `session` and collects
/// the full observable outcome. Three actors interleave under the RNG: a
/// ransomware family (parent + child, exercising family aggregation), a
/// benign editor, and a deletion-heavy wiper — disjoint working sets, one
/// shared Vfs.
fn run_stream(session: &Session, seed: u64) -> Replay {
    let mut fs = Vfs::new();
    let docs = VPath::new("/docs");
    for f in 0..24 {
        fs.admin().write_file(&docs.join(format!("file{f}.txt")), &text_content(f, 4096))
            .unwrap();
    }
    fs.register_filter(Box::new(session.fork()));

    let evil = fs.spawn_process("evil.exe");
    let evil_child = fs.spawn_child_process(evil, "evil-child.exe");
    let editor = fs.spawn_process("editor.exe");
    let wiper = fs.spawn_process("wiper.exe");
    fs.create_dir_all(editor, &docs.join("backup")).ok();
    fs.create_dir_all(wiper, &VPath::new("/tmp")).ok();

    let mut rng = Rng(seed.max(1));
    let mut ops = Vec::new();
    let (mut evil_cursor, mut editor_cursor, mut wiper_cursor) = (0u64, 0u64, 0u64);
    let mut note = |actor: &str, op: &str, ok: bool| {
        ops.push(format!("{actor}:{op}:{}", if ok { "ok" } else { "err" }));
    };

    for _ in 0..160 {
        match rng.below(10) {
            // Ransomware: in-place encryption of files 0..12, alternating
            // between parent and child so the family aggregates.
            0..=4 => {
                let pid = if rng.below(2) == 0 { evil } else { evil_child };
                let path = docs.join(format!("file{}.txt", evil_cursor % 12));
                evil_cursor += 1;
                let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
                    note("evil", "open", false);
                    continue;
                };
                note("evil", "open", true);
                let Ok(data) = fs.read_to_end(pid, h) else {
                    note("evil", "read", false);
                    continue;
                };
                let ct = encrypt(&data, evil_cursor + seed);
                let wrote = fs.seek(pid, h, 0).is_ok() && fs.write(pid, h, &ct).is_ok();
                note("evil", "write", wrote);
                note("evil", "close", fs.close(pid, h).is_ok());
            }
            // Benign editor: copy a document, then a no-op re-save of the
            // original (the snapshot cache's stamp-hit path).
            5..=7 => {
                let src = docs.join(format!("file{}.txt", 12 + editor_cursor % 6));
                editor_cursor += 1;
                let Ok(data) = fs.read_file(editor, &src) else {
                    note("editor", "read", false);
                    continue;
                };
                note("editor", "read", true);
                let copy = docs.join(format!("backup/copy{}.txt", editor_cursor % 6));
                note("editor", "copy", fs.write_file(editor, &copy, &data).is_ok());
                let Ok(h) = fs.open(editor, &src, OpenOptions::modify()) else {
                    note("editor", "open", false);
                    continue;
                };
                let saved = fs.write(editor, h, &data).is_ok() && fs.close(editor, h).is_ok();
                note("editor", "save", saved);
            }
            // Wiper: delete protected files 18..24, then rename one out of
            // the protected tree (Class B) every few rounds.
            _ => {
                let idx = 18 + wiper_cursor % 6;
                wiper_cursor += 1;
                let path = docs.join(format!("file{idx}.txt"));
                if rng.below(4) == 0 {
                    let dest = VPath::new(format!("/tmp/out{wiper_cursor}.bin"));
                    note("wiper", "rename", fs.rename(wiper, &path, &dest, true).is_ok());
                } else {
                    note("wiper", "delete", fs.delete(wiper, &path).is_ok());
                }
            }
        }
    }

    session.drain();
    let mut detections = session.detections();
    for d in &mut detections {
        d.at_nanos = 0;
    }
    let mut summaries = session.summaries();
    for s in &mut summaries {
        s.union_at_nanos = s.union_at_nanos.map(|_| 0);
    }
    let strip = |pid: ProcessId| {
        session
            .hits(pid)
            .into_iter()
            .map(|h| (h.indicator, h.points, h.detail))
            .collect::<Vec<_>>()
    };
    let state = [evil, evil_child, editor, wiper]
        .into_iter()
        .map(|pid| {
            (
                session.score(pid),
                session.files_lost(pid),
                fs.is_suspended(pid),
                strip(pid),
            )
        })
        .collect();
    Replay {
        ops,
        detections,
        summaries,
        state,
    }
}

fn inline_session() -> Session {
    CryptoDrop::builder()
        .protecting("/docs")
        .build()
        .unwrap()
}

fn async_session(pcfg: PipelineConfig) -> Session {
    CryptoDrop::builder()
        .protecting("/docs")
        .pipeline_config(pcfg)
        .build()
        .unwrap()
}

#[test]
fn async_pipeline_after_drain_matches_inline() {
    for seed in [0x1u64, 0xBEEF, 0xC0FFEE] {
        let inline = run_stream(&inline_session(), seed);

        // The stream must actually exercise detection: the evil family is
        // caught, the benign actors are not.
        assert!(!inline.detections.is_empty(), "seed {seed:#x}: no detection");
        assert!(inline.ops.iter().any(|o| o.starts_with("evil:") && o.ends_with(":err")));
        assert!(inline.ops.iter().all(|o| !o.starts_with("editor:") || o.ends_with(":ok")));

        // Default sizing, and a deliberately tight queue (capacity 4,
        // batch 2) that forces producers through the full-queue drain.
        for pcfg in [
            PipelineConfig::default(),
            PipelineConfig {
                shards: 3,
                capacity: 4,
                workers: 2,
                max_batch: 2,
                ..PipelineConfig::default()
            },
        ] {
            let piped = run_stream(&async_session(pcfg), seed);
            let context = format!("seed {seed:#x}, {pcfg:?}");
            assert_eq!(inline.detections, piped.detections, "{context}: detections");
            assert_eq!(inline.summaries, piped.summaries, "{context}: summaries");
            assert_eq!(inline.state, piped.state, "{context}: per-pid state");
        }
    }
}

#[test]
fn degraded_pipeline_drops_nothing_and_counts_degradations() {
    // A benign-only workload (the editor loop alone), long enough to
    // saturate a capacity-1 single-shard queue: on any scheduler the
    // producer out-runs the single worker at least once, and every
    // overflow must degrade — never drop.
    let run_benign = |session: &Session| {
        let mut fs = Vfs::new();
        let docs = VPath::new("/docs");
        for f in 0..8 {
            fs.admin().write_file(&docs.join(format!("file{f}.txt")), &text_content(f, 4096))
                .unwrap();
        }
        fs.register_filter(Box::new(session.fork()));
        let pid = fs.spawn_process("editor.exe");
        fs.create_dir_all(pid, &docs.join("backup")).unwrap();
        for round in 0..40u64 {
            let src = docs.join(format!("file{}.txt", round % 8));
            let data = fs.read_file(pid, &src).unwrap();
            fs.write_file(pid, &docs.join(format!("backup/copy{}.txt", round % 8)), &data)
                .unwrap();
            let h = fs.open(pid, &src, OpenOptions::modify()).unwrap();
            fs.write(pid, h, &data).unwrap();
            fs.close(pid, h).unwrap();
        }
        session.drain();
        let c = session.cache_stats();
        (
            session.score(pid),
            session.summaries(),
            session.hits(pid).len(),
            (c.hits, c.misses),
        )
    };

    let inline = run_benign(&inline_session());

    let telemetry = Telemetry::new(16 * 1024);
    let session = CryptoDrop::builder()
        .protecting("/docs")
        .telemetry(telemetry.clone())
        .pipeline_config(PipelineConfig {
            shards: 1,
            capacity: 1,
            workers: 1,
            max_batch: 4,
            ..PipelineConfig::default()
        })
        .build()
        .unwrap();
    let degraded_run = run_benign(&session);

    // No record dropped: the final analysis state is exactly inline's.
    // (Timestamps are not part of any compared field here.)
    assert_eq!(inline.0, degraded_run.0);
    assert_eq!(inline.2, degraded_run.2);
    assert_eq!(inline.3, degraded_run.3, "every snapshot refresh must land");
    let neutralize = |mut s: Vec<ProcessSummary>| {
        for x in &mut s {
            x.union_at_nanos = x.union_at_nanos.map(|_| 0);
        }
        s
    };
    assert_eq!(neutralize(inline.1), neutralize(degraded_run.1));

    // The saturation actually happened, and the books balance: everything
    // enqueued was processed, degradations were counted in the metric
    // registry the stats read, and journaled.
    let stats = session.pipeline_stats();
    assert!(stats.degraded > 0, "capacity-1 queue never saturated");
    assert_eq!(stats.enqueued, stats.processed, "queued records leaked");
    assert!(stats.batches > 0);
    let snap = telemetry.metrics().snapshot();
    assert_eq!(
        snap.counters.get("pipeline.degraded").copied().unwrap_or(0),
        stats.degraded
    );
    assert_eq!(
        snap.counters.get("pipeline.processed").copied().unwrap_or(0),
        stats.processed
    );
    assert!(
        telemetry
            .journal()
            .events()
            .iter()
            .any(|e| matches!(e.kind, JournalKind::Backpressure { .. })),
        "degradations must be journaled"
    );
}

/// Regression (ISSUE 7 headline): PR 6's idle-worker exponential backoff
/// plus empty→non-empty-only wake coalescing collapsed `DegradeToInline`
/// for a lone producer — every steady-state save paid a full content
/// clone, an enqueue/wake round-trip, and worker hand-off latency for
/// analysis the stamp cache resolves in O(1), leaving the never-block
/// path ~11× slower per cycle than inline. Light records now process on
/// the producer thread, so a lone producer under Degrade must stay
/// within 2× of inline ns/cycle.
#[test]
fn lone_degrade_producer_stays_within_2x_of_inline() {
    use std::time::Instant;

    let stage = |session: &Session| {
        let mut fs = Vfs::new();
        let docs = VPath::new("/docs");
        for f in 0..12 {
            fs.admin()
                .write_file(&docs.join(format!("file{f}.txt")), &text_content(f, 4096))
                .unwrap();
        }
        fs.register_filter(Box::new(session.fork()));
        let pid = fs.spawn_process("editor.exe");
        (fs, pid)
    };
    // The steady-state editor-save cycle: read-modify-write-close with
    // unchanged content, the workload the stamp cache makes O(1).
    let cycle = |fs: &mut Vfs, pid: ProcessId| {
        for f in 0..12 {
            let path = VPath::new(format!("/docs/file{f}.txt"));
            let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
            let data = fs.read_to_end(pid, h).unwrap();
            fs.seek(pid, h, 0).unwrap();
            fs.write(pid, h, &data).unwrap();
            fs.close(pid, h).unwrap();
        }
    };
    let degrade_session = || {
        CryptoDrop::builder()
            .protecting("/docs")
            .pipelined()
            .build()
            .unwrap()
    };

    // Scheduler noise only ever slows a run down, so each mode's estimate
    // is its fastest sample; the two modes run interleaved so they face
    // the same machine epochs. Extra attempts only refine the minima, so
    // retrying on a noisy miss never masks a real regression — an actual
    // 11×-slow degrade path can never produce a sample under the bound.
    let mut best = [f64::INFINITY; 2]; // [inline, degrade]
    for _attempt in 0..3 {
        let sessions = [inline_session(), degrade_session()];
        let mut staged: Vec<_> = sessions.iter().map(stage).collect();
        for (i, (fs, pid)) in staged.iter_mut().enumerate() {
            cycle(fs, *pid); // warm-up: the first cycle captures snapshots
            sessions[i].drain();
        }
        for _round in 0..5 {
            for (i, (fs, pid)) in staged.iter_mut().enumerate() {
                let started = Instant::now();
                for _ in 0..3 {
                    cycle(fs, *pid);
                }
                sessions[i].drain();
                best[i] = best[i].min(started.elapsed().as_nanos() as f64);
            }
        }
        if best[1] <= 2.0 * best[0] {
            break;
        }
    }
    assert!(
        best[1] <= 2.0 * best[0],
        "lone DegradeToInline producer regressed: degrade {:.0} ns/cycle vs inline {:.0} ns/cycle",
        best[1],
        best[0]
    );
}

#[test]
fn degraded_detections_reconcile_into_the_vfs() {
    // Under DegradeToInline a threshold crossing can land after the
    // triggering op returned Allow. The family gate stops the *next* op,
    // but a process that goes quiet stays unsuspended in the Vfs until
    // Session::reconcile applies the detection.
    let session = CryptoDrop::builder()
        .protecting("/docs")
        .pipelined()
        .build()
        .unwrap();

    let mut fs = Vfs::new();
    let docs = VPath::new("/docs");
    for f in 0..40 {
        fs.admin().write_file(&docs.join(format!("file{f}.txt")), &text_content(f, 4096))
            .unwrap();
    }
    fs.register_filter(Box::new(session.fork()));
    let pid = fs.spawn_process("evil.exe");
    for f in 0..40u64 {
        let path = docs.join(format!("file{f}.txt"));
        let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
            break; // family gate caught a lagged detection
        };
        let Ok(data) = fs.read_to_end(pid, h) else { break };
        let ct = encrypt(&data, f + 7);
        if fs.seek(pid, h, 0).is_err() || fs.write(pid, h, &ct).is_err() {
            break;
        }
        if fs.close(pid, h).is_err() {
            break;
        }
    }

    let applied = session.reconcile(&mut fs);
    assert!(
        !session.detections().is_empty(),
        "the attack must cross the threshold"
    );
    assert!(fs.is_suspended(pid), "reconcile must suspend the attacker");
    // Either the family gate already suspended it mid-stream (applied ==
    // 0) or reconcile did (applied == 1); both end suspended, and a second
    // reconcile is idempotent.
    assert!(applied <= 1);
    assert_eq!(session.reconcile(&mut fs), 0);
}
