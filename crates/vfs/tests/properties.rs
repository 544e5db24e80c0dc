//! Property-based tests for VFS invariants.

use std::sync::{Arc, Mutex};

use cryptodrop_vfs::{
    content_stamp, FilterDriver, FsOp, FsView, OpContext, OpOutcome, OpenOptions, Verdict, Vfs,
    VPath,
};
use proptest::prelude::*;

/// A strategy for path-safe file/directory names.
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_][a-zA-Z0-9_.-]{0,12}"
        .prop_filter("no dot-only names", |s| s != "." && s != "..")
}

/// A strategy for short relative paths of 1..=4 components.
fn rel_path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(name_strategy(), 1..4).prop_map(|v| v.join("/"))
}

/// One handle-I/O step: (operation, file, handle pick, offset or length,
/// payload).
fn io_step() -> impl Strategy<Value = (u8, usize, u8, u64, Vec<u8>)> {
    (0u8..8, 0usize..3, any::<u8>(), 0u64..2048, proptest::collection::vec(any::<u8>(), 0..256))
}

/// Records the timestamp of every completed operation.
struct PostOpTimes(Arc<Mutex<Vec<u64>>>);

impl FilterDriver for PostOpTimes {
    fn name(&self) -> &str {
        "post-op-times"
    }

    fn post_op(&mut self, ctx: &OpContext<'_>, _: &OpOutcome<'_>, _: &FsView<'_>) -> Verdict {
        self.0.lock().unwrap().push(ctx.at_nanos);
        Verdict::Allow
    }
}

/// Checks in `post_op` that the stamp the VFS keeps for each of `paths`
/// is the stamp of that file's bytes, and that a close's stamp is the
/// closed file's whenever its path still names it. Records mismatches.
struct StampAudit {
    paths: Vec<VPath>,
    mismatches: Arc<Mutex<Vec<String>>>,
}

impl FilterDriver for StampAudit {
    fn name(&self) -> &str {
        "stamp-audit"
    }

    fn post_op(&mut self, ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, fs: &FsView<'_>) -> Verdict {
        let mut bad = self.mismatches.lock().unwrap();
        for path in &self.paths {
            if let (Some(bytes), Some(stamp)) = (fs.file_bytes(path), fs.file_stamp(path)) {
                if stamp != content_stamp(bytes) {
                    bad.push(format!("after {}: {path} stamped {stamp:#x}", ctx.op.name()));
                }
            }
        }
        if let (FsOp::Close { path, .. }, OpOutcome::Close { file, stamp, .. }) = (&ctx.op, outcome) {
            if fs.file_id(path) == Some(*file) {
                let bytes = fs.file_bytes(path).unwrap_or_default();
                if *stamp != content_stamp(bytes) {
                    bad.push(format!("close of {path} reported stamp {stamp:#x}"));
                }
            }
        }
        Verdict::Allow
    }
}

proptest! {
    /// The content stamp the VFS maintains incrementally equals a full
    /// recompute over the bytes, through random handle I/O: opens,
    /// seeks, writes (past the end, which zero-fills), truncates, closes
    /// and overwriting renames over a few files, with several handles
    /// open at once.
    #[test]
    fn stamps_track_bytes_through_handle_io(ops in proptest::collection::vec(io_step(), 1..48)) {
        let paths: Vec<VPath> = (0..3).map(|i| VPath::new(format!("/d/f{i}"))).collect();
        let mismatches = Arc::new(Mutex::new(Vec::new()));
        let mut fs = Vfs::new();
        fs.register_filter(Box::new(StampAudit {
            paths: paths.clone(),
            mismatches: Arc::clone(&mismatches),
        }));
        let pid = fs.spawn_process("prop.exe");
        fs.create_dir_all(pid, &VPath::new("/d")).unwrap();
        let mut handles = Vec::new();
        for (op, f, pick, offset, data) in &ops {
            let handle = (!handles.is_empty()).then(|| *pick as usize % handles.len());
            match (op, handle) {
                (0, _) => handles.extend(fs.open(pid, &paths[*f], OpenOptions::modify()).ok()),
                (1, _) => handles.extend(fs.open(pid, &paths[*f], OpenOptions::create()).ok()),
                (2, Some(i)) => fs.seek(pid, handles[i], *offset).unwrap(),
                // Writes are drawn twice as often as any other step.
                (3 | 4, Some(i)) => {
                    fs.write(pid, handles[i], data).unwrap();
                }
                (5, Some(i)) => fs.truncate(pid, handles[i], *offset).unwrap(),
                (6, Some(i)) => fs.close(pid, handles.swap_remove(i)).unwrap(),
                (7, _) => {
                    let _ = fs.rename(pid, &paths[*f], &paths[(*f + 1) % 3], true);
                }
                _ => {}
            }
        }
        for h in handles {
            fs.close(pid, h).unwrap();
        }
        let mismatches = mismatches.lock().unwrap().clone();
        prop_assert!(mismatches.is_empty(), "{:?}", mismatches);
    }

    /// Path normalization is idempotent.
    #[test]
    fn path_normalization_idempotent(raw in "[a-zA-Z0-9_./\\\\-]{0,40}") {
        let once = VPath::new(&raw);
        let twice = VPath::new(once.as_str());
        prop_assert_eq!(once, twice);
    }

    /// parent().join(file_name()) reconstructs any non-root path.
    #[test]
    fn path_parent_join_round_trip(rel in rel_path_strategy()) {
        let p = VPath::new(&rel);
        if !p.is_root() {
            let parent = p.parent().unwrap();
            let name = p.file_name().unwrap().to_string();
            prop_assert_eq!(parent.join(name), p);
        }
    }

    /// Whatever is written is read back identically, through the full
    /// open/write/close + open/read/close operation sequence.
    #[test]
    fn write_read_round_trip(
        rel in rel_path_strategy(),
        data in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut fs = Vfs::new();
        let pid = fs.spawn_process("prop.exe");
        let path = VPath::new(format!("/docs/{rel}"));
        if let Some(parent) = path.parent() {
            fs.create_dir_all(pid, &parent).unwrap();
        }
        fs.write_file(pid, &path, &data).unwrap();
        prop_assert_eq!(fs.read_file(pid, &path).unwrap(), data);
    }

    /// Chunked writes equal one-shot writes.
    #[test]
    fn chunked_write_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 1..4096),
        chunk in 1usize..257,
    ) {
        let mut fs = Vfs::new();
        let pid = fs.spawn_process("prop.exe");
        let path = VPath::new("/f.bin");
        let h = fs.open(pid, &path, OpenOptions::create()).unwrap();
        for c in data.chunks(chunk) {
            fs.write(pid, h, c).unwrap();
        }
        fs.close(pid, h).unwrap();
        prop_assert_eq!(fs.admin().read_file(&path).unwrap(), data);
    }

    /// Renames preserve content and identity over arbitrary move chains —
    /// the Class B laundering scenario.
    #[test]
    fn rename_chain_preserves_content_and_id(
        names in proptest::collection::vec(name_strategy(), 1..8),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut fs = Vfs::new();
        let pid = fs.spawn_process("prop.exe");
        fs.create_dir_all(pid, &VPath::new("/docs")).unwrap();
        fs.create_dir_all(pid, &VPath::new("/tmp")).unwrap();
        let mut cur = VPath::new("/docs/original.dat");
        fs.write_file(pid, &cur, &data).unwrap();
        let id = fs.metadata(pid, &cur).unwrap().file;
        for (i, name) in names.iter().enumerate() {
            let dir = if i % 2 == 0 { "/tmp" } else { "/docs" };
            let next = VPath::new(format!("{dir}/{name}-{i}"));
            fs.rename(pid, &cur, &next, true).unwrap();
            cur = next;
        }
        prop_assert_eq!(fs.metadata(pid, &cur).unwrap().file, id);
        prop_assert_eq!(fs.admin().read_file(&cur).unwrap(), data);
        prop_assert_eq!(fs.file_count(), 1);
    }

    /// The accounting invariants hold under a random operation mix:
    /// file_count matches admin iteration, total_bytes matches summed
    /// lengths.
    #[test]
    fn accounting_invariants(ops in proptest::collection::vec(
        (0u8..4, name_strategy(), proptest::collection::vec(any::<u8>(), 0..64)),
        0..64,
    )) {
        let mut fs = Vfs::new();
        let pid = fs.spawn_process("prop.exe");
        fs.create_dir_all(pid, &VPath::new("/d")).unwrap();
        for (op, name, data) in &ops {
            let path = VPath::new(format!("/d/{name}"));
            match op {
                0 | 1 => {
                    let _ = fs.write_file(pid, &path, data);
                }
                2 => {
                    let _ = fs.delete(pid, &path);
                }
                _ => {
                    let to = VPath::new(format!("/d/renamed-{name}"));
                    let _ = fs.rename(pid, &path, &to, true);
                }
            }
        }
        let admin = fs.admin();
        let files: Vec<_> = admin.files().collect();
        prop_assert_eq!(files.len(), admin.file_count());
        let sum: u64 = files.iter().map(|(_, d)| d.len() as u64).sum();
        prop_assert_eq!(sum, admin.total_bytes());
        // Every file's metadata resolves and ids are unique.
        let mut ids = std::collections::HashSet::new();
        for (p, _) in files {
            let m = admin.metadata(p).unwrap();
            prop_assert!(ids.insert(m.file.unwrap()));
        }
    }

    /// The timestamps filters see on completed operations are monotone
    /// non-decreasing regardless of op mix.
    #[test]
    fn event_timestamps_monotone(ops in proptest::collection::vec((any::<bool>(), name_strategy()), 0..32)) {
        let mut fs = Vfs::new();
        let times = Arc::new(Mutex::new(Vec::new()));
        fs.register_filter(Box::new(PostOpTimes(Arc::clone(&times))));
        let pid = fs.spawn_process("prop.exe");
        for (write, name) in &ops {
            let path = VPath::new(format!("/{name}"));
            if *write {
                let _ = fs.write_file(pid, &path, b"x");
            } else {
                let _ = fs.read_file(pid, &path);
            }
        }
        let times = times.lock().unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}
