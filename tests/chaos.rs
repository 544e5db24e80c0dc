//! Chaos tests: deterministic fault injection against the full stack.
//!
//! Each run arms a session with a seeded [`FaultPlan`] that simultaneously
//! injects VFS I/O errors, shadow-capture failures, pipeline worker
//! panics, and simulated-clock latency spikes, then drives a sustained
//! ransomware-style workload plus a benign bystander. The invariants:
//!
//! 1. No panic ever escapes to a producer (the test thread);
//! 2. `Session::drain` terminates;
//! 3. every detection the fault-free inline engine makes still lands —
//!    the suspended-process set matches the fault-free baseline;
//! 4. the degradation paths are *observable*: `pipeline.worker_restarts`,
//!    `fault.*`, and `recovery.shadow.capture_failures` are all nonzero.
//!
//! The seed matrix defaults to four fixed seeds and can be overridden via
//! the `CHAOS_SEEDS` environment variable (comma-separated u64s), which CI
//! uses to fan the matrix out across jobs.

use std::collections::BTreeSet;
use std::sync::Once;

use cryptodrop::{CryptoDrop, PipelineConfig, Session, Telemetry};
use cryptodrop_recovery::ShadowConfig;
use cryptodrop_vfs::{FaultPlan, ProcessId, VPath, Vfs, VfsError};
use proptest::prelude::*;

/// Injected worker panics unwind threads this test kills on purpose;
/// silence their default-hook stderr spam, delegating real panics to the
/// previous hook.
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

const FILES: usize = 80;
const MAX_PASSES: usize = 4;
/// Injected `VfsError::Io` is transient by contract; a bounded retry makes
/// the attacker robust to any schedule a plan can produce.
const MAX_RETRIES: usize = 200;

fn doc_path(i: usize) -> VPath {
    VPath::new(format!("/docs/d{}/report-{i}.txt", i % 5))
}

/// Stages a fresh filesystem with plain-text documents (low entropy, known
/// type) so destructive overwrites trip all three primary indicators.
fn staged_fs() -> Vfs {
    let mut fs = Vfs::new();
    for i in 0..FILES {
        let body = format!(
            "Quarterly report {i}: revenue figures and meeting notes. \
             The quick brown fox jumps over the lazy dog. {}",
            "lorem ipsum dolor sit amet ".repeat(8)
        );
        fs.admin().write_file(&doc_path(i), body.as_bytes()).unwrap();
    }
    fs
}

/// A tiny deterministic generator for high-entropy "ciphertext".
fn ciphertext(seed: u64, file: usize, pass: usize, len: usize) -> Vec<u8> {
    let mut x = seed ^ (file as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((pass as u64) << 48);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Runs `op` until it succeeds, the process is suspended, or the transient
/// retry budget runs out. Returns `false` once the process is suspended.
fn with_retries(mut op: impl FnMut() -> Result<(), VfsError>) -> bool {
    for _ in 0..MAX_RETRIES {
        match op() {
            Ok(()) => return true,
            Err(VfsError::Io(_)) => continue, // injected transient fault
            Err(VfsError::ProcessSuspended(_)) => return false,
            // Anything else (read-only, racing delete...) is a real
            // refusal: the attacker moves on to the next file.
            Err(_) => return true,
        }
    }
    panic!("retry budget exhausted: injected faults must stay transient");
}

/// Drives a ransomware-style workload: read each document, overwrite it
/// with high-entropy bytes, delete every fifth one — looping until the
/// detector suspends the process or the pass budget runs out. A benign
/// bystander interleaves reads and small appends and must never be
/// suspended.
fn run_attack(fs: &mut Vfs, seed: u64) -> (ProcessId, ProcessId) {
    let attacker = fs.spawn_process("chaos-cryptor.exe");
    let benign = fs.spawn_process("notepad.exe");
    'passes: for pass in 0..MAX_PASSES {
        for i in 0..FILES {
            if fs.is_suspended(attacker) {
                break 'passes;
            }
            let path = doc_path(i);
            // The bystander touches a document occasionally.
            if i % 16 == 0 {
                let _ = fs.read_file(benign, &path);
                if !with_retries(|| {
                    fs.write_file(benign, &VPath::new("/docs/notes.txt"), b"benign edit")
                        .map(|_| ())
                }) {
                    break 'passes;
                }
            }
            let _ = fs.read_file(attacker, &path);
            let body = ciphertext(seed, i, pass, 512);
            if !with_retries(|| fs.write_file(attacker, &path, &body).map(|_| ())) {
                break 'passes;
            }
            if i % 5 == 4 && !with_retries(|| fs.delete(attacker, &path).map(|_| ())) {
                break 'passes;
            }
        }
    }
    (attacker, benign)
}

fn suspended_set(fs: &Vfs, pids: &[ProcessId]) -> BTreeSet<u32> {
    pids.iter()
        .filter(|p| fs.is_suspended(**p))
        .map(|p| p.0)
        .collect()
}

/// The fault-free ground truth: an inline (non-pipelined) session over the
/// same workload.
fn baseline(seed: u64) -> BTreeSet<u32> {
    let mut fs = staged_fs();
    let session = CryptoDrop::builder().protecting("/docs").build().unwrap();
    session.attach(&mut fs);
    let (attacker, benign) = run_attack(&mut fs, seed);
    session.drain();
    assert!(
        fs.is_suspended(attacker),
        "baseline must detect the attacker (seed {seed})"
    );
    suspended_set(&fs, &[attacker, benign])
}

/// All four fault classes at once. The `*_at(0)` schedules make the very
/// first decision at each site fire, so every degradation path is
/// deterministically exercised regardless of the probability draws.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .io_error_probability(0.04)
        .io_error_at(0)
        .capture_failure_probability(0.10)
        .capture_failure_at(0)
        .worker_panic_probability(0.02)
        .worker_panic_at(0)
        .latency_spike_probability(0.02)
        .latency_spike_at(0)
}

fn chaos_session(seed: u64, telemetry: Telemetry) -> Session {
    CryptoDrop::builder()
        .protecting("/docs")
        .telemetry(telemetry)
        .pipeline_config(PipelineConfig {
            shards: 4,
            capacity: 32,
            workers: 2,
            max_batch: 8,
            ..PipelineConfig::default()
        })
        .recovery(ShadowConfig::default())
        .faults(chaos_plan(seed))
        .build()
        .unwrap()
}

fn chaos_run(seed: u64) {
    let truth = baseline(seed);
    let telemetry = Telemetry::new(16 * 1024);
    let mut fs = staged_fs();
    let session = chaos_session(seed, telemetry.clone());
    session.attach(&mut fs);

    let (attacker, benign) = run_attack(&mut fs, seed);
    session.drain(); // invariant 2: must terminate
    session.reconcile(&mut fs);

    // Invariant 3: the faulted pipelined run suspends exactly the same
    // processes as the fault-free inline run.
    let suspended = suspended_set(&fs, &[attacker, benign]);
    assert_eq!(
        suspended, truth,
        "seed {seed}: faulted detections must match the fault-free baseline"
    );
    assert!(!fs.is_suspended(benign), "seed {seed}: bystander suspended");

    // Invariant 4: every degradation path is observable and fired.
    let fstats = session.fault_stats();
    assert!(fstats.io_errors >= 1, "seed {seed}: no injected I/O errors");
    assert!(
        fstats.capture_failures >= 1,
        "seed {seed}: no injected capture failures"
    );
    assert!(
        fstats.worker_panics >= 1,
        "seed {seed}: no injected worker panics"
    );
    assert!(
        fstats.latency_spikes >= 1,
        "seed {seed}: no injected latency spikes"
    );
    let pstats = session.pipeline_stats();
    assert!(
        pstats.worker_restarts >= 1,
        "seed {seed}: a panicked worker was never respawned: {pstats:?}"
    );
    let store = session.shadow_store().expect("recovery enabled");
    assert!(
        store.stats().capture_failures >= 1,
        "seed {seed}: capture failures must degrade, not vanish"
    );

    // And the same facts are exported through the telemetry registry.
    let snap = telemetry.metrics().snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("fault.io_errors") >= 1);
    assert!(counter("fault.capture_failures") >= 1);
    assert!(counter("fault.worker_panics") >= 1);
    assert!(counter("fault.latency_spikes") >= 1);
    assert!(counter("pipeline.worker_restarts") >= 1);
    assert!(counter("recovery.shadow.capture_failures") >= 1);
}

/// The fixed seed matrix (CI fans these out via `CHAOS_SEEDS`).
#[test]
fn chaos_seed_matrix() {
    quiet_expected_panics();
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS: u64 list"))
            .collect(),
        Err(_) => vec![11, 23, 37, 59],
    };
    for seed in seeds {
        chaos_run(seed);
    }
}

/// The same seed must produce the same verdicts and the same *injected*
/// fault schedule on the VFS sites. Inline, the attacker is suspended on
/// the crossing operation, so it issues the same operations every run and
/// the VFS sites (consumed from the test thread only) replay exactly.
#[test]
fn chaos_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut fs = staged_fs();
        let session = CryptoDrop::builder()
            .protecting("/docs")
            .recovery(ShadowConfig::default())
            .faults(chaos_plan(seed))
            .build()
            .unwrap();
        session.attach(&mut fs);
        let (attacker, benign) = run_attack(&mut fs, seed);
        let stats = session.fault_stats();
        assert!(stats.io_errors >= 1 && stats.capture_failures >= 1);
        (
            suspended_set(&fs, &[attacker, benign]),
            (stats.io_errors, stats.capture_failures),
        )
    };
    assert_eq!(run(77), run(77));
}

/// Under the async pipeline the same seed must suspend the same set. The
/// fault counts are not compared: a lagged suspension lets the attacker
/// issue a timing-dependent number of extra operations, each drawing from
/// the VFS sites, and worker-site draws depend on thread interleaving.
#[test]
fn async_chaos_replays_the_suspended_set() {
    quiet_expected_panics();
    let run = |seed: u64| {
        let mut fs = staged_fs();
        let session = chaos_session(seed, Telemetry::new(4 * 1024));
        session.attach(&mut fs);
        let (attacker, benign) = run_attack(&mut fs, seed);
        session.reconcile(&mut fs);
        suspended_set(&fs, &[attacker, benign])
    };
    assert_eq!(run(77), run(77));
}

/// The write-burst window under clock chaos: latency-spike faults jolt
/// the simulated clock, so per-family burst timestamps can arrive
/// out of order. The hardened window (high-watermark eviction) must stay
/// deterministic per seed, keep catching the attacker, and never turn
/// clock jitter into a bystander suspension.
#[test]
fn burst_window_stays_deterministic_under_clock_chaos() {
    quiet_expected_panics();
    let run = |seed: u64| {
        let mut cfg = cryptodrop::Config::protecting("/docs");
        cfg.score.burst_enabled = true;
        let plan = FaultPlan::seeded(seed)
            .latency_spike_probability(0.25)
            .latency_spike_at(0);
        let mut fs = staged_fs();
        let session = CryptoDrop::builder()
            .config(cfg)
            .faults(plan)
            .build()
            .unwrap();
        session.attach(&mut fs);
        let (attacker, benign) = run_attack(&mut fs, seed);
        session.drain();
        let stats = session.fault_stats();
        assert!(
            stats.latency_spikes >= 1,
            "seed {seed}: no injected clock spikes"
        );
        assert!(
            fs.is_suspended(attacker),
            "seed {seed}: attacker escaped under clock chaos"
        );
        assert!(
            !fs.is_suspended(benign),
            "seed {seed}: clock jitter suspended the bystander"
        );
        (
            suspended_set(&fs, &[attacker, benign]),
            session.score(attacker),
            stats.latency_spikes,
        )
    };
    for seed in [13, 101, 982451653] {
        assert_eq!(run(seed), run(seed), "seed {seed}: burst chaos diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// Randomized chaos: arbitrary seeds and fault rates. Whatever the
    /// plan, no panic reaches this thread, drain terminates, the attacker
    /// is still caught, and the bystander is left alone.
    #[test]
    fn randomized_chaos_preserves_detection(
        seed in any::<u64>(),
        io_p in 0.0f64..0.12,
        cap_p in 0.0f64..0.25,
        panic_p in 0.0f64..0.05,
    ) {
        quiet_expected_panics();
        let plan = FaultPlan::seeded(seed)
            .io_error_probability(io_p)
            .capture_failure_probability(cap_p)
            .worker_panic_probability(panic_p)
            .latency_spike_probability(0.01);
        let mut fs = staged_fs();
        let session = CryptoDrop::builder()
            .protecting("/docs")
            .pipeline_config(PipelineConfig {
                shards: 2,
                capacity: 16,
                workers: 2,
                max_batch: 4,
                ..PipelineConfig::default()
            })
            .recovery(ShadowConfig::default())
            .faults(plan)
            .build()
            .unwrap();
        session.attach(&mut fs);
        let (attacker, benign) = run_attack(&mut fs, seed);
        session.drain();
        session.reconcile(&mut fs);
        prop_assert!(fs.is_suspended(attacker), "attacker escaped under chaos");
        prop_assert!(!fs.is_suspended(benign), "bystander suspended under chaos");
    }
}
