//! The staged-content snapshot memo in a fleet: the pre-open snapshot of a
//! shared corpus file is captured once for every tenant that still sees
//! the staged bytes, and a tenant whose analysis config differs from the
//! one the memo was captured under still behaves exactly as it would
//! standalone.

use cryptodrop::{
    AuditTrail, Backpressure, CacheStats, Config, CryptoDrop, DetectionReport, IndicatorHit,
    PipelineConfig, ProcessSummary, Session, ShadowConfig,
};
use cryptodrop_fleet::{Fleet, FleetConfig, TenantSpec};
use cryptodrop_vfs::{OpenOptions, VPath, Vfs};

const FILES: usize = 12;

fn docs() -> VPath {
    VPath::new("/docs")
}

/// ~8 KiB prose bodies: larger than the digest window one override uses.
fn corpus() -> Vec<(VPath, Vec<u8>)> {
    (0..FILES)
        .map(|i| {
            let body: Vec<u8> = (0..200u32)
                .flat_map(|l| format!("doc {i} line {l}: recurring report prose\n").into_bytes())
                .collect();
            (docs().join(format!("doc-{i}.txt")), body)
        })
        .collect()
}

fn fleet_with_corpus() -> Fleet {
    let mut fleet = Fleet::new(FleetConfig::protecting(docs().as_str()));
    for (path, body) in corpus() {
        fleet.stage_file(path, body);
    }
    fleet
}

#[test]
fn one_capture_serves_every_tenant_that_opens_a_shared_file() {
    let mut fleet = fleet_with_corpus();
    let piped = PipelineConfig {
        workers: 1,
        backpressure: Backpressure::DegradeToInline,
        ..PipelineConfig::default()
    };
    let mut ids: Vec<u32> = (0..6)
        .map(|n| {
            fleet
                .spawn(TenantSpec::named(format!("inline-{n}")))
                .unwrap()
        })
        .collect();
    ids.push(
        fleet
            .spawn(TenantSpec::named("piped").pipelined(piped))
            .unwrap(),
    );

    // Every tenant opens the same corpus file for writing and closes it
    // unchanged: one pre-open refresh each, no close-path analysis.
    let path = docs().join("doc-3.txt");
    for &id in &ids {
        let t = fleet.get_mut(id).unwrap();
        let pid = t.fs_mut().spawn_process("editor.exe");
        let h = t.fs_mut().open(pid, &path, OpenOptions::modify()).unwrap();
        t.fs_mut().close(pid, h).unwrap();
        t.session().drain();
    }

    let (mut hits, mut misses) = (0, 0);
    for &id in &ids {
        let stats = fleet.get(id).unwrap().session().cache_stats();
        hits += stats.hits;
        misses += stats.misses;
    }
    assert_eq!(misses, 1, "exactly one capture fleet-wide");
    assert_eq!(hits, ids.len() as u64 - 1, "every other tenant reused it");
    assert_eq!(fleet.stats().private_bytes, 0, "nothing was written");
}

/// Everything a tenant's scoring, verdicts and restores leave behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    processes: Vec<(ProcessSummary, Vec<IndicatorHit>)>,
    detections: Vec<DetectionReport>,
    audits: Vec<Option<AuditTrail>>,
    files: Vec<(VPath, Vec<u8>)>,
}

fn outcome(session: &Session, fs: &mut Vfs) -> Outcome {
    session.reconcile_and_restore(fs);
    let processes = session
        .summaries()
        .into_iter()
        .map(|s| {
            let hits = session.hits(s.pid);
            (s, hits)
        })
        .collect();
    let detections = session.detections();
    let audits = detections
        .iter()
        .map(|d| session.audit_trail(d.pid))
        .collect();
    let mut files: Vec<(VPath, Vec<u8>)> = fs
        .admin()
        .files()
        .map(|(p, data)| (p.clone(), data.to_vec()))
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Outcome {
        processes,
        detections,
        audits,
        files,
    }
}

/// A benign editor's append saves over a few corpus files, then an
/// attacker that encrypts the corpus in place, file by file, until it is
/// suspended.
fn replay(fs: &mut Vfs, key: u8) {
    let pid = fs.spawn_process("wordproc.exe");
    for (round, (path, _)) in corpus().iter().take(4).enumerate() {
        let h = fs.open(pid, path, OpenOptions::modify()).unwrap();
        let mut data = fs.read_to_end(pid, h).unwrap();
        data.extend_from_slice(format!("\nedit pass {round} appended\n").as_bytes());
        fs.seek(pid, h, 0).unwrap();
        fs.write(pid, h, &data).unwrap();
        fs.close(pid, h).unwrap();
    }
    let pid = fs.spawn_process("cryptolocker.exe");
    for (path, _) in corpus() {
        let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else {
            break;
        };
        let Ok(data) = fs.read_to_end(pid, h) else {
            let _ = fs.close(pid, h);
            break;
        };
        let ct: Vec<u8> = data
            .iter()
            .enumerate()
            .map(|(j, b)| b ^ (j as u8) ^ key)
            .collect();
        if fs.seek(pid, h, 0).is_ok() {
            let _ = fs.write(pid, h, &ct);
        }
        let _ = fs.close(pid, h);
    }
}

/// The engine configs a tenant may override: the default (twice, so one
/// tenant can reuse the other's memo), and one per capture input the memo
/// records.
fn configs() -> Vec<(&'static str, Config)> {
    let base = || Config::protecting(docs().as_str());
    vec![
        ("default", base()),
        ("default again", base()),
        (
            "small digest window",
            Config {
                max_digest_bytes: 2048,
                ..base()
            },
        ),
    ]
}

fn standalone(tenant: u32, config: Config, key: u8) -> (Outcome, CacheStats) {
    let mut fs = Vfs::with_namespace(tenant);
    for (path, body) in corpus() {
        fs.admin().write_file(&path, &body).unwrap();
    }
    let session = CryptoDrop::builder()
        .config(config)
        .recovery(ShadowConfig::with_budget(4 * 1024 * 1024))
        .deterministic_clock()
        .build()
        .unwrap();
    session.attach(&mut fs);
    replay(&mut fs, key);
    (outcome(&session, &mut fs), session.cache_stats())
}

#[test]
fn config_overrides_match_their_standalone_replay_whoever_fills_the_memo() {
    let configs = configs();
    // Forward order: the default tenant fills every memo first. Reverse
    // order: the overrides run first, so the default config finds memos
    // either filled under another config or not filled at all.
    for reverse in [false, true] {
        let mut fleet = fleet_with_corpus();
        let ids: Vec<u32> = configs
            .iter()
            .map(|(name, config)| {
                let mut spec = TenantSpec::named(*name).deterministic_clock();
                spec.config = Some(config.clone());
                fleet.spawn(spec).unwrap()
            })
            .collect();
        let mut order: Vec<usize> = (0..ids.len()).collect();
        if reverse {
            order.reverse();
        }
        for &i in &order {
            replay(fleet.get_mut(ids[i]).unwrap().fs_mut(), 0x5A);
        }
        for (i, (name, config)) in configs.iter().enumerate() {
            let t = fleet.get_mut(ids[i]).unwrap();
            let (session, fs) = t.session_and_fs();
            let in_fleet = outcome(session, fs);
            let stats = session.cache_stats();
            assert_eq!(
                in_fleet.detections.len(),
                1,
                "{name}: the attacker is detected"
            );
            let (alone, alone_stats) = standalone(ids[i], config.clone(), 0x5A);
            assert_eq!(
                in_fleet, alone,
                "{name} (reverse={reverse}) must match its standalone replay"
            );
            if !name.starts_with("default") {
                // A tenant whose capture inputs differ from every other
                // tenant's never takes a memo: it captures what it would
                // capture alone.
                assert_eq!(stats, alone_stats, "{name} (reverse={reverse})");
            } else if *name == "default again" && !reverse {
                assert!(
                    stats.misses < alone_stats.misses,
                    "the second default tenant reuses the first one's memos"
                );
            }
        }
    }
}
