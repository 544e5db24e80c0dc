//! Mount-era filesystem semantics, exercised through the public API:
//! hardlink/inode identity, symlink resolution bounds, read-only mounts,
//! and cross-mount rename refusal. Property cases are randomized over
//! link fan-out, chain depth, and unlink order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cryptodrop_telemetry::Telemetry;
use cryptodrop_vfs::{
    ErrorKind, FilterDriver, FsView, MemProvider, MountOptions, OpContext, OpenOptions,
    ProcessId, VPath, Verdict, Vfs,
};
use proptest::prelude::*;

fn p(s: &str) -> VPath {
    VPath::new(s)
}

fn fresh() -> (Vfs, ProcessId) {
    let mut fs = Vfs::new();
    let pid = fs.spawn_process("test.exe");
    (fs, pid)
}

/// A filter that counts every operation it is shown; used to prove that
/// read-only-mount rejections happen *before* the filter chain.
struct CountingFilter(Arc<AtomicUsize>);

impl FilterDriver for CountingFilter {
    fn name(&self) -> &str {
        "op-counter"
    }

    fn pre_op(&mut self, _ctx: &OpContext<'_>, _fs: &FsView<'_>) -> Verdict {
        self.0.fetch_add(1, Ordering::Relaxed);
        Verdict::Allow
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Hardlinks share one inode; content survives until the last name is
    /// unlinked, whatever the unlink order.
    #[test]
    fn hardlinked_content_survives_until_last_unlink(
        fanout in 1usize..6,
        kill_order in proptest::collection::vec(0usize..6, 0..6),
    ) {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/orig.bin"), b"payload").unwrap();
        let ino = fs.admin().metadata(&p("/orig.bin")).unwrap().file;

        let mut names = vec![p("/orig.bin")];
        for i in 0..fanout {
            let link = p(&format!("/link-{i}.bin"));
            fs.link(pid, &p("/orig.bin"), &link).unwrap();
            prop_assert_eq!(fs.admin().metadata(&link).unwrap().file, ino);
            names.push(link);
        }
        // Every link is a name, but the payload is stored once.
        prop_assert_eq!(fs.file_count(), 1 + fanout);
        prop_assert_eq!(fs.total_bytes(), b"payload".len() as u64);

        // Unlink in an arbitrary (possibly repeating) order; any surviving
        // name still serves the payload.
        for k in kill_order {
            if names.len() <= 1 {
                break;
            }
            let victim = names.remove(k % names.len());
            fs.delete(pid, &victim).unwrap();
            let survivor = &names[0];
            let data = fs.read_file(pid, survivor).unwrap();
            prop_assert_eq!(data.as_slice(), b"payload".as_slice());
            prop_assert_eq!(fs.admin().metadata(survivor).unwrap().file, ino);
        }
    }

    /// Symlink chains resolve up to the mount's `max_link_depth` hops and
    /// fail with `SymlinkLoop` beyond it; a true cycle always fails.
    #[test]
    fn symlink_depth_is_bounded(depth in 1u32..40) {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/target.txt"), b"real bytes").unwrap();
        // hop-0 -> target, hop-i -> hop-(i-1): resolving hop-(depth-1)
        // costs `depth` hops.
        fs.symlink(pid, &p("/target.txt"), &p("/hop-0")).unwrap();
        for i in 1..depth {
            let prev = p(&format!("/hop-{}", i - 1));
            fs.symlink(pid, &prev, &p(&format!("/hop-{i}"))).unwrap();
        }
        let deepest = p(&format!("/hop-{}", depth - 1));
        let max = MountOptions::default().max_link_depth;
        match fs.read_file(pid, &deepest) {
            Ok(data) => {
                prop_assert!(depth <= max, "resolved {depth} hops past the bound");
                prop_assert_eq!(data.as_slice(), b"real bytes".as_slice());
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::SymlinkLoop);
                prop_assert!(depth > max, "refused {depth} hops under the bound");
            }
        }
    }
}

#[test]
fn symlink_cycle_is_a_loop_error() {
    let (mut fs, pid) = fresh();
    fs.symlink(pid, &p("/b"), &p("/a")).unwrap();
    fs.symlink(pid, &p("/a"), &p("/b")).unwrap();
    let err = fs.read_file(pid, &p("/a")).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::SymlinkLoop);
}

/// Every destructive operation against a read-only mount is refused with
/// `ReadOnlyFs`, and the refusal happens before the filter chain or the
/// event journal sees the operation.
#[test]
fn read_only_mount_rejects_destructive_ops_before_filters() {
    let mut fs = Vfs::new();
    fs.mount(
        "/archive",
        Box::new(MemProvider::new()),
        MountOptions::default().read_only(true),
    )
    .unwrap();
    // Administrative staging bypasses the read-only option, as documented.
    fs.admin()
        .write_file(&p("/archive/ledger.txt"), b"immutable")
        .unwrap();

    let seen = Arc::new(AtomicUsize::new(0));
    fs.register_filter(Box::new(CountingFilter(seen.clone())));
    let telemetry = Telemetry::new(1 << 10);
    fs.set_telemetry(telemetry.clone());
    let pid = fs.spawn_process("scribbler.exe");

    let ledger = p("/archive/ledger.txt");
    type Attempt = Box<dyn Fn(&mut Vfs) -> ErrorKind>;
    let destructive: Vec<(&str, Attempt)> = vec![
        ("open-write", Box::new(move |fs: &mut Vfs| {
            fs.open(pid, &p("/archive/ledger.txt"), OpenOptions::modify()).unwrap_err().kind()
        })),
        ("create", Box::new(move |fs: &mut Vfs| {
            fs.write_file(pid, &p("/archive/new.txt"), b"x").unwrap_err().kind()
        })),
        ("delete", Box::new(move |fs: &mut Vfs| {
            fs.delete(pid, &p("/archive/ledger.txt")).unwrap_err().kind()
        })),
        ("rename-within", Box::new(move |fs: &mut Vfs| {
            fs.rename(pid, &p("/archive/ledger.txt"), &p("/archive/l2.txt"), false)
                .unwrap_err()
                .kind()
        })),
        ("set-attr", Box::new(move |fs: &mut Vfs| {
            fs.set_read_only(pid, &p("/archive/ledger.txt"), true).unwrap_err().kind()
        })),
        ("mkdir", Box::new(move |fs: &mut Vfs| {
            fs.create_dir(pid, &p("/archive/sub")).unwrap_err().kind()
        })),
    ];
    for (what, attempt) in destructive {
        assert_eq!(attempt(&mut fs), ErrorKind::ReadOnlyFs, "{what}");
    }

    assert_eq!(
        seen.load(Ordering::Relaxed),
        0,
        "filters never observe operations a read-only mount refused"
    );
    assert_eq!(
        telemetry.journal().total_pushed(),
        0,
        "the journal never records refused operations"
    );
    // Reads still flow (and do traverse the filter chain and the journal).
    assert_eq!(fs.read_file(pid, &ledger).unwrap(), b"immutable");
    assert!(seen.load(Ordering::Relaxed) > 0);
    assert!(telemetry.journal().total_pushed() > 0);
}

#[test]
fn cross_mount_rename_is_refused_with_a_typed_error() {
    let mut fs = Vfs::new();
    fs.mount("/vault", Box::new(MemProvider::new()), MountOptions::default())
        .unwrap();
    let pid = fs.spawn_process("mover.exe");
    fs.write_file(pid, &p("/plain.txt"), b"data").unwrap();

    let err = fs
        .rename(pid, &p("/plain.txt"), &p("/vault/plain.txt"), false)
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::CrossMountRename);
    // Neither side changed.
    assert_eq!(fs.read_file(pid, &p("/plain.txt")).unwrap(), b"data");
    assert!(err.to_string().contains("mount boundary"), "{err}");
}
