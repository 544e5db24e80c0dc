//! Bench: `cryptodrop-fleet` — what multiplexing N monitored tenants in
//! one process costs, and what the shared copy-on-write corpus saves.
//!
//! Three measurements over a tenants × attack-mix population (10%
//! ransomware, the rest benign editors and readers, per paper §VI's
//! benign/malicious split):
//!
//! * **steady state** — every tenant replays its trace; aggregate
//!   completed file operations per second across the whole fleet.
//! * **residency** — resident corpus bytes per tenant versus the
//!   standalone baseline (one materialized corpus copy per session).
//!   The shared store holds the corpus once, so the per-tenant share is
//!   `corpus / N`; private bytes appear only where a tenant writes.
//! * **verdict latency** — wall time of each attacker file operation
//!   (open → encrypt-write → close, inline scoring included), reported
//!   at p50/p99/max. Every fleet verdict is then replayed standalone
//!   (same namespace, same staging order, same trace) and compared
//!   byte-for-byte modulo the wall-clock `at_nanos` stamps.
//!
//! Numbers are reported, not asserted. Machine-readable results go to
//! `BENCH_fleet.json` at the workspace root; `--test` (the CI smoke
//! mode) shrinks the population so the step finishes in seconds.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use cryptodrop::{CryptoDrop, DetectionReport, Session, ShadowConfig};
use cryptodrop_fleet::{Fleet, FleetConfig, TenantSpec};
use cryptodrop_vfs::{OpenOptions, VPath, Vfs};

/// Population sizing: full run vs the CI smoke (`--test`) run.
#[derive(Clone, Copy)]
struct Scale {
    tenants: u32,
    files: usize,
    editor_rounds: usize,
    reader_rounds: usize,
}

impl Scale {
    fn new(test_mode: bool) -> Self {
        if test_mode {
            Self {
                tenants: 8,
                files: 16,
                editor_rounds: 6,
                reader_rounds: 8,
            }
        } else {
            Self {
                tenants: 100,
                files: 80,
                editor_rounds: 30,
                reader_rounds: 60,
            }
        }
    }
}

fn docs() -> VPath {
    VPath::new("/docs")
}

/// Deterministic ~16 KiB prose bodies — the corpus every tenant shares.
fn corpus(files: usize) -> Vec<(VPath, Vec<u8>)> {
    (0..files)
        .map(|i| {
            let body: Vec<u8> = (0..320u32)
                .flat_map(|l| {
                    format!("doc {i} line {l}: quarterly figures and recurring prose\n")
                        .into_bytes()
                })
                .collect();
            (docs().join(format!("doc-{i}.txt")), body)
        })
        .collect()
}

fn shadow() -> ShadowConfig {
    ShadowConfig::with_budget(4 * 1024 * 1024)
}

/// A tiny deterministic generator (no external randomness in benches).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// 10% of tenants run ransomware; the rest split editors and readers.
fn is_attacker(tenant: u32) -> bool {
    tenant % 10 == 1
}

/// Replays one tenant's trace against its namespace. Returns completed
/// file operations; attacker per-file op latencies (inline scoring
/// included) are appended to `latencies` in nanoseconds.
fn replay(fs: &mut Vfs, tenant: u32, scale: Scale, latencies: &mut Vec<u64>) -> u64 {
    let mut rng = Lcg(u64::from(tenant) * 7919 + 13);
    let mut ops = 0u64;
    if is_attacker(tenant) {
        let pid = fs.spawn_process("cryptolocker.exe");
        let key = (rng.next() % 251) as u8;
        for i in 0..scale.files {
            let path = docs().join(format!("doc-{i}.txt"));
            let started = Instant::now();
            let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
                continue;
            };
            if let Ok(data) = fs.read_to_end(pid, h) {
                let ct: Vec<u8> = data
                    .iter()
                    .enumerate()
                    .map(|(j, b)| b ^ (j as u8).wrapping_mul(197).wrapping_add(key))
                    .collect();
                if fs.seek(pid, h, 0).is_ok() {
                    let _ = fs.write(pid, h, &ct);
                }
            }
            let _ = fs.close(pid, h);
            latencies.push(started.elapsed().as_nanos() as u64);
            ops += 1;
        }
    } else if tenant.is_multiple_of(2) {
        let pid = fs.spawn_process("wordproc.exe");
        for round in 0..scale.editor_rounds {
            let i = (rng.next() as usize) % scale.files;
            let path = docs().join(format!("doc-{i}.txt"));
            let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
                continue;
            };
            if let Ok(mut data) = fs.read_to_end(pid, h) {
                data.extend_from_slice(format!("\nedit pass {round} appended\n").as_bytes());
                if fs.seek(pid, h, 0).is_ok() {
                    let _ = fs.write(pid, h, &data);
                }
            }
            let _ = fs.close(pid, h);
            ops += 1;
        }
        let _ = fs.write_file(
            pid,
            &docs().join("notes.txt"),
            b"meeting notes: discuss quarterly prose",
        );
        ops += 1;
    } else {
        let pid = fs.spawn_process("indexer.exe");
        for _ in 0..scale.reader_rounds {
            let i = (rng.next() as usize) % scale.files;
            let path = docs().join(format!("doc-{i}.txt"));
            let Ok(h) = fs.open(pid, &path, OpenOptions::read()) else {
                continue;
            };
            let _ = fs.read_to_end(pid, h);
            let _ = fs.close(pid, h);
            ops += 1;
        }
    }
    ops
}

/// Detections with the wall-clock stamp zeroed: the VFS charges measured
/// filter overhead into its simulated clock, so `at_nanos` legitimately
/// varies run to run while every other field is deterministic.
fn verdicts_of(session: &Session) -> Vec<DetectionReport> {
    let mut v = session.detections();
    for d in &mut v {
        d.at_nanos = 0;
    }
    v
}

/// One tenant standalone: same namespace, same corpus staged in the same
/// order (fully materialized — no sharing), same trace.
fn standalone_verdicts(tenant: u32, scale: Scale) -> Vec<DetectionReport> {
    let mut fs = Vfs::with_namespace(tenant);
    for (path, body) in corpus(scale.files) {
        fs.admin().write_file(&path, &body).unwrap();
    }
    let session = CryptoDrop::builder()
        .protecting(docs().as_str())
        .recovery(shadow())
        .build()
        .unwrap();
    session.attach(&mut fs);
    let mut scratch = Vec::new();
    replay(&mut fs, tenant, scale, &mut scratch);
    verdicts_of(&session)
}

fn build_fleet(scale: Scale) -> Fleet {
    let mut cfg = FleetConfig::protecting(docs().as_str());
    cfg.shadow = shadow();
    let mut fleet = Fleet::new(cfg);
    for (path, body) in corpus(scale.files) {
        fleet.stage_file(path, body);
    }
    fleet
}

fn bench(c: &mut Criterion) {
    let scale = Scale::new(true);
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    group.bench_function("spawn_tenant", |b| {
        b.iter_batched(
            || build_fleet(scale),
            |mut fleet| {
                fleet.spawn(TenantSpec::named("bench")).unwrap();
                fleet
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench);

struct Quantiles {
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn quantiles(mut samples: Vec<u64>) -> Quantiles {
    samples.sort_unstable();
    let at = |q: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let idx = ((samples.len() - 1) as f64 * q).round() as usize;
        samples[idx] as f64 / 1e3
    };
    Quantiles {
        p50_us: at(0.50),
        p99_us: at(0.99),
        max_us: at(1.0),
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    criterion.final_summary();

    let scale = Scale::new(test_mode);
    let standalone_bytes: u64 = corpus(scale.files).iter().map(|(_, b)| b.len() as u64).sum();

    // --- Spawn the population over one shared corpus. ---
    let mut fleet = build_fleet(scale);
    let spawn_started = Instant::now();
    let ids: Vec<u32> = (0..scale.tenants)
        .map(|n| fleet.spawn(TenantSpec::named(format!("tenant-{n}"))).unwrap())
        .collect();
    let spawn_ms = spawn_started.elapsed().as_secs_f64() * 1e3;

    let at_spawn = fleet.stats();
    assert_eq!(at_spawn.private_bytes, 0, "no tenant has written yet");
    let corpus_bytes_per_tenant = at_spawn.corpus_bytes as f64 / f64::from(scale.tenants);
    let residency_fraction = corpus_bytes_per_tenant / standalone_bytes as f64;

    // --- Steady state: every tenant replays its trace. ---
    let mut latencies = Vec::new();
    let mut total_ops = 0u64;
    let replay_started = Instant::now();
    for &id in &ids {
        let t = fleet.get_mut(id).unwrap();
        total_ops += replay(t.fs_mut(), id, scale, &mut latencies);
    }
    let elapsed = replay_started.elapsed().as_secs_f64();
    let ops_per_sec = total_ops as f64 / elapsed.max(1e-9);

    let after = fleet.stats();
    let private_per_tenant = after.private_bytes as f64 / f64::from(scale.tenants);

    // --- Verdicts: every tenant must match its standalone twin. ---
    let mut attack_tenants = 0u32;
    let mut detected = 0u32;
    let mut matches = true;
    for &id in &ids {
        let fleet_verdicts = verdicts_of(fleet.get(id).unwrap().session());
        if is_attacker(id) {
            attack_tenants += 1;
            if !fleet_verdicts.is_empty() {
                detected += 1;
            }
        }
        if fleet_verdicts != standalone_verdicts(id, scale) {
            matches = false;
            eprintln!("tenant {id}: fleet verdicts diverge from standalone");
        }
    }
    assert_eq!(detected, attack_tenants, "every attacker must be detected");
    assert!(matches, "fleet verdicts must equal standalone verdicts");

    let q = quantiles(latencies.clone());
    println!(
        "fleet[{} tenants]: spawned in {spawn_ms:.1} ms, {total_ops} ops in {:.2} s \
         ({ops_per_sec:.0} ops/s)",
        scale.tenants, elapsed
    );
    println!(
        "residency: {corpus_bytes_per_tenant:.0} corpus bytes/tenant vs {standalone_bytes} \
         standalone ({:.1}%), {private_per_tenant:.0} private bytes/tenant after traces",
        residency_fraction * 100.0
    );
    println!(
        "verdict op latency: p50 {:.1} us, p99 {:.1} us, max {:.1} us over {} samples; \
         {detected}/{attack_tenants} attackers detected, standalone match: {matches}",
        q.p50_us,
        q.p99_us,
        q.max_us,
        latencies.len()
    );

    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"test_mode\": {test_mode},\n  \
         \"tenants\": {},\n  \
         \"corpus\": {{\n    \"files\": {},\n    \"logical_bytes\": {},\n    \
         \"resident_bytes\": {}\n  }},\n  \
         \"steady_state\": {{\n    \"total_ops\": {total_ops},\n    \
         \"elapsed_ms\": {:.3},\n    \"ops_per_sec\": {ops_per_sec:.1}\n  }},\n  \
         \"residency\": {{\n    \"standalone_bytes_per_tenant\": {standalone_bytes},\n    \
         \"corpus_bytes_per_tenant\": {corpus_bytes_per_tenant:.1},\n    \
         \"corpus_residency_fraction\": {residency_fraction:.4},\n    \
         \"private_bytes_per_tenant_after_traces\": {private_per_tenant:.1}\n  }},\n  \
         \"verdict_latency\": {{\n    \"samples\": {},\n    \"p50_us\": {:.2},\n    \
         \"p99_us\": {:.2},\n    \"max_us\": {:.2}\n  }},\n  \
         \"verdicts\": {{\n    \"attack_tenants\": {attack_tenants},\n    \
         \"detected\": {detected},\n    \"match_standalone\": {matches}\n  }},\n  \
         \"spawn_ms_total\": {spawn_ms:.2}\n}}\n",
        scale.tenants,
        scale.files,
        standalone_bytes,
        at_spawn.corpus_bytes,
        elapsed * 1e3,
        latencies.len(),
        q.p50_us,
        q.p99_us,
        q.max_us,
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, &json).expect("write BENCH_fleet.json");
    println!("wrote {out}");
}
