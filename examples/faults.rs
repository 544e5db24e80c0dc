//! Chaos testing: arm a session with deterministic fault injection and
//! watch every degradation path absorb the damage.
//!
//! A detector is only trustworthy if it keeps detecting while the world
//! fails around it. The `FaultPlan` below simultaneously injects, from one
//! seed:
//!
//!   * transient VFS I/O errors (operations abort before the filter),
//!   * shadow-capture failures (a pre-image is lost; that file's restore
//!     becomes an explicit conflict instead of silently wrong bytes),
//!   * pipeline worker panics (the worker is respawned, its interrupted
//!     batch requeued in order),
//!   * simulated-clock latency spikes.
//!
//! The same seed always produces the same fault schedule, so a failure
//! found under chaos replays exactly.
//!
//! Run with: `cargo run --example faults`

use cryptodrop::{CryptoDrop, Telemetry};
use cryptodrop_recovery::ShadowConfig;
use cryptodrop_vfs::{FaultPlan, VPath, Vfs, VfsError};

fn main() {
    // 1. A filesystem with protected documents.
    let mut fs = Vfs::new();
    for i in 0..40 {
        fs.admin()
            .write_file(
                &VPath::new(format!("/docs/report-{i}.txt")),
                format!("Quarterly report {i}: plain, compressible prose.").as_bytes(),
            )
            .expect("staging");
    }

    // 2. A seeded fault plan. Probabilities draw from a deterministic
    //    per-site stream; `*_at(0)` forces each site's first decision to
    //    fire so every path is exercised even on a short run.
    let plan = FaultPlan::seeded(42)
        .io_error_probability(0.05)
        .io_error_at(0)
        .capture_failure_probability(0.15)
        .capture_failure_at(0)
        .worker_panic_probability(0.03)
        .worker_panic_at(0)
        .latency_spike_probability(0.02)
        .latency_spike_at(0);

    // Injected worker panics are expected noise here: keep the default
    // hook's stack traces for every other thread.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("cryptodrop-pipeline"));
        if !expected {
            prev(info);
        }
    }));

    // 3. A fully armed session: async pipelined analysis, shadow-copy
    //    recovery, telemetry, and the fault plan. `Session::attach` wires
    //    the injector into the filesystem alongside the filter and the
    //    shadow sink.
    let telemetry = Telemetry::new(16 * 1024);
    let session = CryptoDrop::builder()
        .protecting("/docs")
        .telemetry(telemetry.clone())
        .pipelined()
        .recovery(ShadowConfig::default())
        .faults(plan)
        .build()
        .expect("valid config");
    session.attach(&mut fs);

    // 4. A ransomware-style loop that treats injected I/O errors as the
    //    transient faults they are: retry and keep destroying.
    let pid = fs.spawn_process("cryptor.exe");
    let mut injected_io = 0u32;
    'attack: for i in 0..40 {
        let path = VPath::new(format!("/docs/report-{i}.txt"));
        let noise: Vec<u8> = (0..256u32).map(|j| (j * 167 + i * 7919) as u8).collect();
        loop {
            match fs.write_file(pid, &path, &noise) {
                Ok(_) => break,
                Err(VfsError::Io(_)) => injected_io += 1, // transient: retry
                Err(VfsError::ProcessSuspended(_)) => break 'attack,
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }
    }
    // Pipelined verdicts lag: apply any detection the attacker's last
    // operations produced.
    session.reconcile(&mut fs);

    println!("attacker suspended: {}", fs.is_suspended(pid));
    println!("attacker retried through {injected_io} injected I/O errors\n");

    // 5. Every fault and every degradation is observable.
    let f = session.fault_stats();
    println!("faults fired (seed {}):", session.fault_injector().expect("armed").plan().seed());
    println!("  io_errors        = {}", f.io_errors);
    println!("  capture_failures = {}", f.capture_failures);
    println!("  worker_panics    = {}", f.worker_panics);
    println!("  latency_spikes   = {}", f.latency_spikes);

    let p = session.pipeline_stats();
    println!("\npipeline absorbed the damage:");
    println!("  worker_restarts  = {}", p.worker_restarts);
    println!("  degraded         = {}", p.degraded);
    println!("  abandoned        = {}", p.abandoned);
    println!("  processed        = {} / {} enqueued", p.processed, p.enqueued);

    let store = session.shadow_store().expect("recovery enabled");
    println!(
        "\nshadow store: {} captures, {} capture failures (those files \
         restore as explicit conflicts)",
        store.stats().captures,
        store.stats().capture_failures
    );

    // 6. Roll the attacker back. Files whose pre-image capture was failed
    //    by injection surface as conflicts — degraded, never silent.
    let report = session.restore(&mut fs, pid).expect("recovery enabled");
    println!(
        "\nrecovery: {} restored, {} conflicts",
        report.files_restored,
        report.conflicts.len()
    );

    // 7. The same facts flow through the telemetry registry and journal.
    let snap = telemetry.metrics().snapshot();
    println!();
    for (name, value) in snap
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("fault.") || n.ends_with("capture_failures"))
    {
        println!("  {name} = {value}");
    }
}
