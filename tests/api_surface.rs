//! Public-API surface snapshot for the mount-era redesign.
//!
//! Two guards: a compile-time one (the `use` block below names every item
//! the redesign promises — deleting or renaming any of them stops this
//! suite from building), and runtime pins for the stable string surfaces
//! embedders wire into telemetry, RPC payloads, and dashboards.
//!
//! When a change here is *intentional*, update the snapshot in the same
//! commit and call it out in the CHANGELOG.

// The promised surface, by name. Each import is the contract.
#[allow(unused_imports)]
use cryptodrop::prelude::{
    Backpressure, Config, ConfigError, CryptoDrop, DecayPolicy, DetectionReport, ErrorKind,
    FsProvider, MemProvider, Monitor, MountOptions, PipelineConfig, PipelineStats, ProcessId,
    RateBudget, RecoveryReport, ScoreConfig, Session, SessionBuilder, ShadowConfig,
    ShadowStore, Telemetry, ThrottlePolicy, VPath, Verdict, Vfs, VfsError, VfsResult,
};
#[allow(unused_imports)]
use cryptodrop_vfs::{
    drive_workload, AdminView, ClockHandle, ClockPolicy, DirEntry, EntryKind, EventDetail,
    EventLog, FaultPlan, FileId, FilterDriver, FsView, MemoSlot, Metadata, OpContext, OpKind,
    OpOutcome, OpenOptions, SharedContent, SimClock, Workload, WorkloadCtx, WorkloadOutcome,
};
#[allow(unused_imports)]
use cryptodrop_adversarial::{
    evasive_suite, heavy_writer_suite, BackupMirror, Collusion, CompressorSweep,
    LogRotator, LowEntropyEncoder, PartialEncryptor, SlowRoll, SoftwareUpdater,
};
#[allow(unused_imports)]
use cryptodrop_experiments::{
    adversarial::{
        swept_decay_policies, AdversarialRun, AdversarialStudy, DecayBenignResult,
        IndicatorMode, SlowRollCell, StrategyCell, SLOWROLL_PAUSES_SECS,
    },
    report::StudyReport,
    runner::{run_workload, WorkloadRunResult},
};

/// Every `ErrorKind` and its wire label, pinned. Adding a variant is
/// backward-compatible (the enum is `#[non_exhaustive]`); renaming or
/// removing one is a break this snapshot surfaces.
#[test]
fn error_kind_labels_are_stable() {
    let pinned = [
        (ErrorKind::NotFound, "not-found"),
        (ErrorKind::AlreadyExists, "already-exists"),
        (ErrorKind::NotADirectory, "not-a-directory"),
        (ErrorKind::IsADirectory, "is-a-directory"),
        (ErrorKind::DirectoryNotEmpty, "directory-not-empty"),
        (ErrorKind::ReadOnly, "read-only"),
        (ErrorKind::ReadOnlyFs, "read-only-fs"),
        (ErrorKind::CrossMountRename, "cross-mount-rename"),
        (ErrorKind::SymlinkLoop, "symlink-loop"),
        (ErrorKind::AccessDenied, "access-denied"),
        (ErrorKind::ProcessSuspended, "process-suspended"),
        (ErrorKind::UnknownProcess, "unknown-process"),
        (ErrorKind::InvalidHandle, "invalid-handle"),
        (ErrorKind::NotWritable, "not-writable"),
        (ErrorKind::InvalidPath, "invalid-path"),
        (ErrorKind::Io, "io"),
    ];
    for (kind, label) in pinned {
        assert_eq!(kind.label(), label);
        assert_eq!(kind.to_string(), label, "Display mirrors the label");
    }
}

/// The typed error constructors exist and map onto their kinds — the
/// error-unification contract embedders match on.
#[test]
fn typed_error_constructors_map_to_kinds() {
    let p = VPath::new("/x");
    let cases = [
        (VfsError::not_found(p.clone()), ErrorKind::NotFound),
        (VfsError::already_exists(p.clone()), ErrorKind::AlreadyExists),
        (
            VfsError::cross_mount_rename(p.clone(), VPath::new("/y")),
            ErrorKind::CrossMountRename,
        ),
    ];
    for (err, kind) in cases {
        assert_eq!(err.kind(), kind);
    }
    assert_eq!(VfsError::ReadOnlyFs(p.clone()).kind(), ErrorKind::ReadOnlyFs);
    assert_eq!(VfsError::SymlinkLoop(p).kind(), ErrorKind::SymlinkLoop);
}

/// Verdict constructors and the defaults embedders rely on: mount
/// options and the pipeline's backpressure policy.
#[test]
fn verdict_and_mount_option_defaults_are_stable() {
    assert!(matches!(Verdict::default(), Verdict::Allow));
    assert!(matches!(
        Verdict::suspend("why"),
        Verdict::Suspend { .. }
    ));
    assert!(matches!(
        Verdict::throttle(1_000),
        Verdict::Throttle { nanos: 1_000, .. }
    ));

    let opts = MountOptions::default();
    assert!(!opts.read_only);
    assert!(opts.follow_symlinks);
    assert_eq!(opts.max_link_depth, 16);

    assert_eq!(PipelineConfig::default().backpressure, Backpressure::DegradeToInline);
}

/// The active-defense config surface: decoy registration and throttling
/// knobs, off by default.
#[test]
fn defense_config_surface_is_stable() {
    let cfg = Config::protecting("/docs");
    assert!(cfg.decoy_paths.is_empty());
    assert_eq!(cfg.throttle, None);

    let bait = VPath::new("/docs/_passwords.xlsx");
    let cfg = cfg.with_decoys([bait.clone()]).with_throttling(40, 1_000_000);
    assert!(cfg.is_decoy(&bait));
    let throttle = ThrottlePolicy {
        score: 40,
        nanos_per_point: 1_000_000,
    };
    assert_eq!(cfg.throttle, Some(throttle));
}

/// The time-axis defense surface: score decay, per-family rate budgets
/// and the write-burst indicator, all off by default (the paper's
/// permanent scoreboard), all set on `Config` and handed to the
/// `SessionBuilder` whole.
#[test]
fn time_axis_defense_surface_is_stable() {
    let cfg = Config::protecting("/docs");
    assert_eq!(cfg.score.decay, DecayPolicy::None);
    assert_eq!(cfg.rate_budget, None);
    assert_eq!(cfg.score.points_burst, 0);

    let cfg = cfg
        .with_decay(DecayPolicy::HalfLife {
            half_life_nanos: 3_600_000_000_000,
        })
        .with_rate_budget(24, 2_000_000_000, 250_000_000);
    assert!(!cfg.score.decay.is_none());
    let budget = RateBudget {
        capacity: 24,
        refill_nanos_per_token: 2_000_000_000,
        throttle_nanos: 250_000_000,
    };
    assert_eq!(cfg.rate_budget, Some(budget));
    assert!(CryptoDrop::builder().config(cfg).build().is_ok());

    // Degenerate parameters are typed construction-time errors, not
    // silent no-ops.
    let zeroed = Config::protecting("/docs").with_decay(DecayPolicy::Window { window_nanos: 0 });
    assert_eq!(
        CryptoDrop::builder().config(zeroed).build().err(),
        Some(ConfigError::ZeroDecayParam("window_nanos"))
    );

    // The sweep's published axes: dashboards key on these labels.
    let labels: Vec<&str> = swept_decay_policies().iter().map(|(l, _)| *l).collect();
    assert_eq!(labels, ["none", "half-life-1h", "linear-2h", "window-30min"]);
    assert_eq!(SLOWROLL_PAUSES_SECS, [0, 1, 10, 60, 300, 600]);
}

/// The Workload actor surface: the default hooks, the outcome's zero
/// value, and the one-call driver — the contract every actor (paper
/// samples, benign apps, evasive strategies) now runs behind.
#[test]
fn workload_surface_is_stable() {
    struct Probe;
    impl Workload for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn pid_plan(&self) -> Vec<String> {
            vec!["probe.exe".into()]
        }
        // `stage` defaults to Ok(()) — only the names and `drive` are
        // required.
        fn drive(&self, _: &mut Vfs, _: &WorkloadCtx) -> WorkloadOutcome {
            WorkloadOutcome::default()
        }
    }

    let out = WorkloadOutcome::default();
    assert_eq!(
        (out.files_touched, out.artifacts_written, out.read_only_skipped),
        (0, 0, 0)
    );
    assert!(!out.suspended && !out.completed);

    let mut fs = Vfs::new();
    let outcome = drive_workload(&mut fs, &Probe, &VPath::new("/docs"), 7);
    assert_eq!(outcome, WorkloadOutcome::default());

    // The ctx carries one pid per pid_plan entry plus the typed clock.
    let ctx = WorkloadCtx::spawn(&mut fs, &Probe, &VPath::new("/docs"), 7);
    assert_eq!(ctx.pids.len(), 1);
    assert_eq!(ctx.seed, 7);
    let before = ctx.clock.now_nanos();
    ctx.clock.advance(250);
    assert_eq!(ctx.clock.now_nanos(), before + 250);
}

/// The adversarial suites and their report-stable names: dashboards and
/// the `results/adversarial.json` schema key on these strings.
#[test]
fn adversarial_suite_names_are_stable() {
    let names: Vec<String> = evasive_suite().iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        [
            "partial-encryptor (first 4 KiB)",
            "slow-roll (90 s/file)",
            "collusion (reader pid + writer pid)",
            "low-entropy encoder (hex-armored)",
        ]
    );
    let names: Vec<String> = heavy_writer_suite().iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        ["backup-mirror", "compressor-sweep", "software-updater", "log-rotator"]
    );
    let labels: Vec<&str> = IndicatorMode::ALL.iter().map(|m| m.label()).collect();
    assert_eq!(
        labels,
        ["full", "minus-entropy", "minus-similarity", "minus-type-change", "decoys-on"]
    );
}

/// The schema-versioned study envelope every experiment artifact is
/// wrapped in.
#[test]
fn study_report_envelope_is_stable() {
    let report = StudyReport::new("pin", 2).param("files", 5u32).body(&"payload");
    assert_eq!((report.study(), report.version()), ("pin", 2));
    let json = serde_json::to_string(&report).unwrap();
    assert_eq!(
        json,
        r#"{"schema":{"study":"pin","version":2},"params":{"files":5},"body":"payload"}"#
    );
}

/// The mount table is enumerable, root mount first — the introspection
/// surface fleet admin panes read.
#[test]
fn mount_table_is_enumerable() {
    let mut fs = Vfs::new();
    fs.mount("/ro", Box::new(MemProvider::new()), MountOptions::default().read_only(true))
        .unwrap();
    let mounts: Vec<(String, bool)> = fs
        .mounts()
        .map(|(root, o)| (root.as_str().to_string(), o.read_only))
        .collect();
    assert_eq!(mounts, vec![("/".to_string(), false), ("/ro".to_string(), true)]);
}

/// The staged-content memo surface filters build on: `FsView::file_memo`
/// returns one slot shared by every namespace the same `SharedContent` is
/// staged in, for as long as the file's bytes are the staged ones.
#[test]
fn staged_content_memo_surface_is_stable() {
    use std::sync::{Arc, Mutex};

    /// Fills the path's slot with `tag` if it is empty, and records the
    /// value the slot holds (`None` once the slot is detached).
    struct Probe {
        tag: u32,
        seen: Arc<Mutex<Vec<Option<u32>>>>,
    }
    impl FilterDriver for Probe {
        fn name(&self) -> &str {
            "memo-probe"
        }
        fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
            if let cryptodrop_vfs::FsOp::Open { path, .. } = ctx.op {
                let held = fs.file_memo(path).map(|m: &MemoSlot| {
                    let v = m.get_or_init(|| Arc::new(self.tag));
                    *v.downcast_ref::<u32>().unwrap()
                });
                self.seen.lock().unwrap().push(held);
            }
            Verdict::Allow
        }
    }

    let content = SharedContent::new(b"staged once".to_vec());
    let path = VPath::new("/docs/a.txt");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut namespaces: Vec<Vfs> = (1..=2)
        .map(|tag| {
            let mut fs = Vfs::new();
            fs.admin().stage_shared(&path, &content).unwrap();
            fs.register_filter(Box::new(Probe {
                tag,
                seen: Arc::clone(&seen),
            }));
            fs
        })
        .collect();
    for fs in &mut namespaces {
        let pid = fs.spawn_process("editor.exe");
        for _ in 0..2 {
            let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
            fs.write(pid, h, b"S").unwrap();
            fs.close(pid, h).unwrap();
        }
    }
    // The first namespace fills the slot, the second sees that value, and
    // each namespace's first write detaches the slot from its copy.
    assert_eq!(*seen.lock().unwrap(), [Some(1), None, Some(1), None]);
}
