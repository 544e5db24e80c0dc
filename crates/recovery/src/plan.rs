//! Recovery planning and rollback.

use std::sync::Arc;
use std::time::Instant;

use cryptodrop_telemetry::JournalKind;
use cryptodrop_vfs::{FileId, ProcessId, VPath, Vfs};
use serde::{Deserialize, Serialize};

use crate::store::{Event, RenameNote, ShadowStore};

/// One step of a [`RecoveryPlan`].
#[derive(Debug, Clone)]
pub enum RecoveryAction {
    /// Delete a file the suspect family created (it has no pre-attack
    /// state to restore). Resolved by identity at apply time; a no-op if
    /// the file is already gone.
    Remove {
        /// The suspect-created file.
        file: FileId,
    },
    /// Move a surviving file back to its pre-attack path (undoing the
    /// suspect's renames in one hop).
    MoveBack {
        /// The renamed file.
        file: FileId,
        /// Its pre-attack path.
        to: VPath,
    },
    /// Write a shadowed pre-image back (restoring content and the
    /// read-only attribute).
    Restore {
        /// The file identity at capture time. If it is still alive the
        /// restore targets its current path (keeping the id and any open
        /// handles); otherwise the file is recreated.
        file: FileId,
        /// Where to recreate the file if the identity is dead.
        recreate_at: VPath,
        /// The pre-attack content.
        bytes: Arc<Vec<u8>>,
        /// The content's 64-bit fingerprint (verification aid).
        fingerprint: u64,
        /// The pre-attack read-only attribute.
        read_only: bool,
    },
}

/// A recovery step that could not be applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryConflict {
    /// The file's shadows were (partially) evicted before suspension:
    /// rolling it back reliably is no longer possible, so it is left
    /// untouched.
    ShadowEvicted {
        /// The affected file.
        file: FileId,
        /// Its last known path.
        path: VPath,
    },
    /// The target path is occupied by a different live file (e.g. a
    /// benign process reused the name after the suspect's delete). The
    /// occupant is preserved.
    PathOccupied {
        /// The file that could not be placed.
        file: FileId,
        /// The contested path.
        path: VPath,
    },
}

/// The transactional rollback plan for one suspect family: everything the
/// family touched, resolved against one consistent snapshot of the shadow
/// journal. Build with [`ShadowStore::plan`], apply with
/// [`ShadowStore::restore`] (or both at once via [`ShadowStore::recover`]).
#[derive(Debug)]
pub struct RecoveryPlan {
    /// The suspect family root the plan rolls back.
    pub family: ProcessId,
    /// Steps in application order: removes, then move-backs, then
    /// restores.
    pub actions: Vec<RecoveryAction>,
    /// Files that cannot be rolled back because their shadows were
    /// evicted (known before application).
    pub evicted: Vec<RecoveryConflict>,
}

impl RecoveryPlan {
    /// Total bytes of content the plan would write back.
    pub fn bytes_to_restore(&self) -> u64 {
        self.actions
            .iter()
            .map(|a| match a {
                RecoveryAction::Restore { bytes, .. } => bytes.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Number of `Restore` actions.
    pub fn restores(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, RecoveryAction::Restore { .. }))
            .count()
    }
}

/// What a [`ShadowStore::restore`] call actually did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// The rolled-back family root.
    pub family: ProcessId,
    /// Files whose content was restored from shadows.
    pub files_restored: u64,
    /// Bytes written back.
    pub bytes_restored: u64,
    /// Suspect-created files removed.
    pub files_removed: u64,
    /// Renames undone.
    pub renames_undone: u64,
    /// Steps that could not be applied (evicted shadows, occupied paths).
    pub conflicts: Vec<RecoveryConflict>,
    /// Wall-clock nanoseconds the rollback took.
    pub restore_nanos: u64,
    /// Every restored path with the fingerprint of the restored content.
    pub restored_files: Vec<(VPath, u64)>,
}

impl ShadowStore {
    /// Builds the rollback plan for `family` against the current
    /// filesystem, from one consistent snapshot of the shadow journal.
    ///
    /// Per file the *trailing-run rule* applies (see the [crate
    /// docs](crate)): if the last destructive writer was benign the file
    /// is preserved; otherwise the pre-image of the earliest operation in
    /// the maximal trailing run of suspect-authored ops is selected.
    pub fn plan(&self, family: ProcessId, fs: &mut Vfs) -> RecoveryPlan {
        let inner = self.inner.lock();
        let mut admin_paths = |file: FileId| fs.admin().path_of(file);

        let mut removes = Vec::new();
        let mut move_backs = Vec::new();
        let mut restores = Vec::new();
        let mut evicted = Vec::new();

        // Per-file suspect rename span: the earliest note's `from` is the
        // pre-attack path, the latest note's `to` is where the suspect
        // left the file.
        let mut rename_span: std::collections::HashMap<FileId, (&RenameNote, &RenameNote)> =
            std::collections::HashMap::new();
        for note in &inner.renames {
            if note.family != family {
                continue;
            }
            rename_span
                .entry(note.file)
                .and_modify(|(first, last)| {
                    if note.seq < first.seq {
                        *first = note;
                    }
                    if note.seq > last.seq {
                        *last = note;
                    }
                })
                .or_insert((note, note));
        }

        // Files the suspect created and nobody benign ever wrote to:
        // remove. (A benign write leaves a history event from a different
        // family — a tombstone if its shadow was since evicted — and
        // routes the file through the trailing-run logic below instead.)
        let mut removed_files = std::collections::HashSet::new();
        for (&file, &creator) in &inner.created {
            if creator != family {
                continue;
            }
            let benign_touched = inner
                .by_file
                .get(&file)
                .is_some_and(|history| history.iter().any(|e| e.family() != family));
            if !benign_touched {
                removes.push(RecoveryAction::Remove { file });
                removed_files.insert(file);
            }
        }

        for (&file, history) in &inner.by_file {
            if removed_files.contains(&file) {
                continue;
            }
            // The start of the trailing run of suspect-authored events;
            // none if a benign process wrote last (its data wins).
            let Some(start) = history
                .iter()
                .rev()
                .take_while(|e| e.family() == family)
                .last()
            else {
                continue;
            };
            let point = match start {
                Event::Shadow { seq, .. } => &inner.entries[seq],
                // The run's restore point was evicted or never captured.
                Event::Tombstone { path, .. } => {
                    evicted.push(RecoveryConflict::ShadowEvicted {
                        file,
                        path: admin_paths(file).unwrap_or_else(|| path.clone()),
                    });
                    continue;
                }
            };
            let Some(bytes) = inner.blob(point.fp, point.len) else {
                evicted.push(RecoveryConflict::ShadowEvicted {
                    file,
                    path: admin_paths(file).unwrap_or_else(|| point.path.clone()),
                });
                continue;
            };
            restores.push(RecoveryAction::Restore {
                file,
                // A dead file goes back to its pre-attack path: the
                // earliest suspect rename's source if the suspect moved
                // it, else the path recorded at the restore point.
                recreate_at: rename_span
                    .get(&file)
                    .map(|(first, _)| first.from.clone())
                    .unwrap_or_else(|| point.path.clone()),
                bytes,
                fingerprint: point.fp,
                read_only: point.read_only,
            });
        }

        // Undo renames of surviving, non-removed files — but only while
        // the file still sits where the *suspect* left it. If a benign
        // process renamed it afterwards, the benign placement wins.
        for (&file, &(first, last)) in &rename_span {
            if removed_files.contains(&file) {
                continue;
            }
            if let Some(current) = admin_paths(file) {
                if current == last.to && current != first.from {
                    move_backs.push(RecoveryAction::MoveBack {
                        file,
                        to: first.from.clone(),
                    });
                }
            }
        }

        // Deterministic application order (maps iterate arbitrarily).
        let sort_key = |a: &RecoveryAction| match a {
            RecoveryAction::Remove { file } => file.0,
            RecoveryAction::MoveBack { file, .. } => file.0,
            RecoveryAction::Restore { file, .. } => file.0,
        };
        removes.sort_by_key(sort_key);
        move_backs.sort_by_key(sort_key);
        restores.sort_by_key(sort_key);
        evicted.sort_by_key(|c| match c {
            RecoveryConflict::ShadowEvicted { file, .. }
            | RecoveryConflict::PathOccupied { file, .. } => file.0,
        });

        let mut actions = removes;
        actions.extend(move_backs);
        actions.extend(restores);
        RecoveryPlan {
            family,
            actions,
            evicted,
        }
    }

    /// Applies a [`RecoveryPlan`], rolling the filesystem back
    /// byte-for-byte through the administrative view (recovery writes are
    /// unattributed and never themselves captured). Emits `recovery.*`
    /// metrics, `Recovery` journal events, and folds the outcome into
    /// [`ShadowStats`](crate::ShadowStats); the suspect family's journal
    /// state is dropped afterwards (the rollback consumed it).
    pub fn restore(&self, plan: &RecoveryPlan, fs: &mut Vfs) -> RecoveryReport {
        let started = Instant::now();
        let at_nanos = fs.clock().now_nanos();
        let telemetry = self.telemetry().clone();
        let mut report = RecoveryReport {
            family: plan.family,
            files_restored: 0,
            bytes_restored: 0,
            files_removed: 0,
            renames_undone: 0,
            conflicts: plan.evicted.clone(),
            restore_nanos: 0,
            restored_files: Vec::new(),
        };
        let journal = |action: &str, path: &VPath, bytes: u64| {
            telemetry.journal_event(at_nanos, plan.family.0, || JournalKind::Recovery {
                action: action.to_string(),
                path: path.as_str().to_string(),
                bytes,
            });
        };

        for step in &plan.actions {
            match step {
                RecoveryAction::Remove { file } => {
                    let mut admin = fs.admin();
                    let Some(path) = admin.path_of(*file) else {
                        continue; // already gone (suspect deleted its own file)
                    };
                    let len = admin.metadata(&path).map(|m| m.len).unwrap_or(0);
                    // The suspect may have left its droppings read-only
                    // (ransom notes often are); admin deletes ignore that.
                    if admin.delete_file(&path).is_ok() {
                        report.files_removed += 1;
                        journal("remove", &path, len);
                    }
                }
                RecoveryAction::MoveBack { file, to } => {
                    let mut admin = fs.admin();
                    let Some(current) = admin.path_of(*file) else {
                        continue;
                    };
                    if &current == to {
                        continue;
                    }
                    if admin.exists(to) {
                        report.conflicts.push(RecoveryConflict::PathOccupied {
                            file: *file,
                            path: to.clone(),
                        });
                        journal("path-occupied", to, 0);
                        continue;
                    }
                    if admin.rename(&current, to).is_ok() {
                        report.renames_undone += 1;
                        journal("rename-back", to, 0);
                    }
                }
                RecoveryAction::Restore {
                    file,
                    recreate_at,
                    bytes,
                    fingerprint,
                    read_only,
                } => {
                    let mut admin = fs.admin();
                    let target = match admin.path_of(*file) {
                        Some(path) => path,
                        None => {
                            // Recreating a dead file must not clobber a
                            // live one that reused the path.
                            if admin.exists(recreate_at) {
                                report.conflicts.push(RecoveryConflict::PathOccupied {
                                    file: *file,
                                    path: recreate_at.clone(),
                                });
                                journal("path-occupied", recreate_at, 0);
                                continue;
                            }
                            recreate_at.clone()
                        }
                    };
                    if admin.write_file(&target, bytes).is_ok() {
                        let _ = admin.set_read_only(&target, *read_only);
                        report.files_restored += 1;
                        report.bytes_restored += bytes.len() as u64;
                        report.restored_files.push((target.clone(), *fingerprint));
                        journal("restore", &target, bytes.len() as u64);
                    }
                }
            }
        }

        report.restore_nanos = started.elapsed().as_nanos() as u64;
        if telemetry.is_enabled() {
            telemetry
                .counter("recovery.files.restored")
                .add(report.files_restored);
            telemetry
                .counter("recovery.bytes.restored")
                .add(report.bytes_restored);
            telemetry
                .counter("recovery.files.removed")
                .add(report.files_removed);
            telemetry
                .counter("recovery.renames.undone")
                .add(report.renames_undone);
            telemetry
                .counter("recovery.conflicts")
                .add(report.conflicts.len() as u64);
            telemetry
                .histogram("recovery.restore.ns")
                .record(report.restore_nanos);
        }
        self.finish_recovery(
            plan.family,
            report.files_restored,
            report.files_removed,
            report.renames_undone,
            report.conflicts.len() as u64,
        );
        report
    }

    /// Plans and applies the rollback in one call.
    pub fn recover(&self, family: ProcessId, fs: &mut Vfs) -> RecoveryReport {
        let plan = self.plan(family, fs);
        self.restore(&plan, fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ShadowConfig, ShadowStore};
    use cryptodrop_simhash::content_fingerprint;
    use cryptodrop_vfs::{FaultInjector, FaultPlan, OpenOptions};

    fn p(s: &str) -> VPath {
        VPath::new(s)
    }

    fn setup(cfg: ShadowConfig) -> (Arc<ShadowStore>, Vfs, ProcessId, ProcessId) {
        let store = Arc::new(ShadowStore::new(cfg));
        let mut fs = Vfs::new();
        fs.set_shadow_sink(store.clone());
        let suspect = fs.spawn_process("cryptolocker.exe");
        let benign = fs.spawn_process("notepad.exe");
        (store, fs, suspect, benign)
    }

    /// One save through a handle: `open(modify)` plus one `write`, so the
    /// op journals exactly one capture (`write_file`'s truncating open
    /// adds a second, empty one).
    fn save(fs: &mut Vfs, pid: ProcessId, path: &VPath, bytes: &[u8]) {
        let h = fs.open(pid, path, OpenOptions::modify()).unwrap();
        fs.write(pid, h, bytes).unwrap();
        fs.close(pid, h).unwrap();
    }

    fn read(fs: &mut Vfs, path: &str) -> Vec<u8> {
        fs.admin().read_file(&p(path)).unwrap()
    }

    /// A store too small for any unpinned shadow, with the suspect's
    /// shadows pinned: every benign capture is evicted on arrival.
    fn starved() -> (Arc<ShadowStore>, Vfs, ProcessId, ProcessId) {
        let (store, fs, suspect, benign) = setup(ShadowConfig {
            byte_budget: 4,
            max_entries: 0,
        });
        store.set_reputation(suspect, 1);
        (store, fs, suspect, benign)
    }

    #[test]
    fn evicted_benign_last_writer_still_wins() {
        let (store, mut fs, suspect, benign) = starved();
        fs.admin().write_file(&p("/doc"), b"original").unwrap();
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPTD");
        save(&mut fs, benign, &p("/doc"), b"benign!!");
        assert_eq!(store.stats().evictions, 1, "the benign shadow is gone");

        let report = store.recover(suspect, &mut fs);
        assert_eq!(read(&mut fs, "/doc"), b"benign!!");
        assert_eq!(report.files_restored, 0);
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
    }

    #[test]
    fn evicted_benign_write_keeps_a_suspect_created_file() {
        let (store, mut fs, suspect, benign) = starved();
        fs.write_file(suspect, &p("/note.txt"), b"pay up now!")
            .unwrap();
        save(&mut fs, benign, &p("/note.txt"), b"kept notes!");
        assert_eq!(store.stats().evictions, 1, "the benign shadow is gone");

        let report = store.recover(suspect, &mut fs);
        assert_eq!(read(&mut fs, "/note.txt"), b"kept notes!");
        assert_eq!(report.files_removed, 0);
    }

    #[test]
    fn evicted_benign_write_ends_the_earlier_suspect_run() {
        let (store, mut fs, suspect, benign) = starved();
        fs.admin().write_file(&p("/doc"), b"original").unwrap();
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT1");
        save(&mut fs, benign, &p("/doc"), b"benign!!");
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT2");
        assert_eq!(store.stats().evictions, 1, "the benign shadow is gone");

        let report = store.recover(suspect, &mut fs);
        // Only the trailing suspect run is undone; it began on the
        // benign bytes, whatever happened to the benign shadow.
        assert_eq!(read(&mut fs, "/doc"), b"benign!!");
        assert_eq!(report.files_restored, 1);
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
    }

    #[test]
    fn each_writer_run_journals_one_pre_image() {
        let (store, mut fs, suspect, benign) = setup(ShadowConfig::default());
        store.set_reputation(suspect, 1);
        fs.admin().write_file(&p("/doc"), b"original").unwrap();
        for i in 0..5 {
            save(
                &mut fs,
                suspect,
                &p("/doc"),
                format!("ENC-a{i:02}").as_bytes(),
            );
        }
        for i in 0..3 {
            save(
                &mut fs,
                benign,
                &p("/doc"),
                format!("edit-{i:03}").as_bytes(),
            );
        }
        for i in 0..4 {
            save(
                &mut fs,
                suspect,
                &p("/doc"),
                format!("ENC-b{i:02}").as_bytes(),
            );
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 3, "{stats:?}");
        assert_eq!(stats.captures, 3, "{stats:?}");
        assert_eq!(stats.coalesced, 9, "{stats:?}");

        let report = store.recover(suspect, &mut fs);
        assert_eq!(read(&mut fs, "/doc"), b"edit-002");
        assert_eq!(report.files_restored, 1);
    }

    #[test]
    fn capture_failure_inside_a_run_still_restores() {
        let (store, mut fs, suspect, _benign) = setup(ShadowConfig::default());
        store.set_reputation(suspect, 1);
        // The second capture point (the suspect's second save) fails.
        fs.set_fault_injector(FaultInjector::new(
            FaultPlan::seeded(0).capture_failure_at(1),
        ));
        fs.admin().write_file(&p("/doc"), b"original").unwrap();
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT1");
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT2");
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT3");
        let stats = store.stats();
        assert_eq!(stats.capture_failures, 1, "{stats:?}");
        assert_eq!(stats.captures, 1, "{stats:?}");

        let report = store.recover(suspect, &mut fs);
        assert_eq!(read(&mut fs, "/doc"), b"original");
        assert!(report.conflicts.is_empty(), "{:?}", report.conflicts);
    }

    #[test]
    fn capture_failure_at_a_run_start_is_a_conflict() {
        let (store, mut fs, suspect, _benign) = setup(ShadowConfig::default());
        fs.set_fault_injector(FaultInjector::new(
            FaultPlan::seeded(0).capture_failure_at(0),
        ));
        fs.admin().write_file(&p("/doc"), b"original").unwrap();
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT1");
        save(&mut fs, suspect, &p("/doc"), b"ENCRYPT2");

        let report = store.recover(suspect, &mut fs);
        // The only later pre-image is already encrypted: refuse it.
        assert_eq!(read(&mut fs, "/doc"), b"ENCRYPT2");
        assert!(matches!(
            report.conflicts[..],
            [RecoveryConflict::ShadowEvicted { .. }]
        ));
    }

    #[test]
    fn attack_is_rolled_back_byte_for_byte() {
        let (store, mut fs, suspect, _benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/docs/a.txt"), b"alpha").unwrap();
        fs.admin().write_file(&p("/docs/b.txt"), b"bravo").unwrap();

        // Encrypt-and-rename one file, delete another, drop a note.
        fs.write_file(suspect, &p("/docs/a.txt"), b"ENCRYPTED-1")
            .unwrap();
        fs.rename(suspect, &p("/docs/a.txt"), &p("/docs/a.txt.locked"), false)
            .unwrap();
        fs.delete(suspect, &p("/docs/b.txt")).unwrap();
        fs.write_file(suspect, &p("/RANSOM.txt"), b"pay up").unwrap();

        let report = store.recover(suspect, &mut fs);

        assert_eq!(
            fs.admin().read_file(&p("/docs/a.txt")).unwrap(),
            b"alpha".to_vec()
        );
        assert_eq!(
            fs.admin().read_file(&p("/docs/b.txt")).unwrap(),
            b"bravo".to_vec()
        );
        assert!(!fs.admin().exists(&p("/docs/a.txt.locked")));
        assert!(!fs.admin().exists(&p("/RANSOM.txt")));
        assert_eq!(report.files_restored, 2);
        assert_eq!(report.files_removed, 1);
        assert_eq!(report.renames_undone, 1);
        assert!(report.conflicts.is_empty());
        // Reported fingerprints match the restored content.
        for (path, fp) in &report.restored_files {
            let bytes = fs.admin().read_file(path).unwrap();
            assert_eq!(content_fingerprint(&bytes), *fp, "fingerprint for {path}");
        }
        // The family's journal state is consumed by the rollback.
        assert!(store.is_empty());
    }

    #[test]
    fn benign_last_writer_is_preserved() {
        let (store, mut fs, suspect, benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/doc.txt"), b"v1").unwrap();
        fs.write_file(suspect, &p("/doc.txt"), b"ENC").unwrap();
        fs.write_file(benign, &p("/doc.txt"), b"v2").unwrap();

        let report = store.recover(suspect, &mut fs);
        assert_eq!(fs.admin().read_file(&p("/doc.txt")).unwrap(), b"v2".to_vec());
        assert_eq!(report.files_restored, 0);
    }

    #[test]
    fn trailing_run_restores_post_benign_content() {
        let (store, mut fs, suspect, benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/doc.txt"), b"v1").unwrap();
        fs.write_file(suspect, &p("/doc.txt"), b"ENC-1").unwrap();
        fs.write_file(benign, &p("/doc.txt"), b"v2").unwrap();
        fs.write_file(suspect, &p("/doc.txt"), b"ENC-2").unwrap();

        let report = store.recover(suspect, &mut fs);
        // Only the trailing suspect run is undone: the benign "v2" wins
        // over the original "v1".
        assert_eq!(fs.admin().read_file(&p("/doc.txt")).unwrap(), b"v2".to_vec());
        assert_eq!(report.files_restored, 1);
    }

    #[test]
    fn benign_rename_after_suspect_is_preserved() {
        let (store, mut fs, suspect, benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/a.txt"), b"alpha").unwrap();
        fs.rename(suspect, &p("/a.txt"), &p("/a.locked"), false)
            .unwrap();
        fs.rename(benign, &p("/a.locked"), &p("/kept.txt"), false)
            .unwrap();

        let report = store.recover(suspect, &mut fs);
        // The benign process moved the file after the suspect; its
        // placement wins.
        assert!(fs.admin().exists(&p("/kept.txt")));
        assert!(!fs.admin().exists(&p("/a.txt")));
        assert_eq!(report.renames_undone, 0);
    }

    #[test]
    fn occupied_path_is_a_conflict() {
        let (store, mut fs, suspect, benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/a.txt"), b"alpha").unwrap();
        fs.delete(suspect, &p("/a.txt")).unwrap();
        // A benign process reuses the name before recovery runs.
        fs.write_file(benign, &p("/a.txt"), b"benign").unwrap();

        let report = store.recover(suspect, &mut fs);
        assert_eq!(
            fs.admin().read_file(&p("/a.txt")).unwrap(),
            b"benign".to_vec()
        );
        assert_eq!(report.files_restored, 0);
        assert!(report
            .conflicts
            .iter()
            .any(|c| matches!(c, RecoveryConflict::PathOccupied { .. })));
    }

    #[test]
    fn evicted_shadow_is_reported_not_misrestored() {
        // A 4-byte budget cannot hold the 5-byte original: the capture is
        // immediately evicted, destroying the restore point.
        let (store, mut fs, suspect, _benign) = setup(ShadowConfig {
            byte_budget: 4,
            max_entries: 0,
        });
        fs.admin().write_file(&p("/a.txt"), b"alpha").unwrap();
        fs.write_file(suspect, &p("/a.txt"), b"E1").unwrap();
        fs.write_file(suspect, &p("/a.txt"), b"E2").unwrap();

        let plan = store.plan(suspect, &mut fs);
        assert!(plan
            .evicted
            .iter()
            .any(|c| matches!(c, RecoveryConflict::ShadowEvicted { .. })));
        let report = store.restore(&plan, &mut fs);
        // Restoring from the surviving (post-corruption) shadows would
        // write back "E1"-era bytes; the store refuses instead.
        assert_eq!(fs.admin().read_file(&p("/a.txt")).unwrap(), b"E2".to_vec());
        assert_eq!(report.files_restored, 0);
        assert!(!report.conflicts.is_empty());
    }

    #[test]
    fn restore_applies_the_captured_read_only_state() {
        let (store, mut fs, suspect, _benign) = setup(ShadowConfig::default());
        fs.admin().write_file(&p("/a.txt"), b"alpha").unwrap();
        fs.admin().set_read_only(&p("/a.txt"), true).unwrap();
        // Suspects clear the attribute before encrypting. Attribute flips
        // are not themselves journaled (only the four destructive kinds
        // are), so the pre-image records the state at mutation time:
        // already writable.
        fs.set_read_only(suspect, &p("/a.txt"), false).unwrap();
        fs.write_file(suspect, &p("/a.txt"), b"ENC").unwrap();

        store.recover(suspect, &mut fs);
        assert_eq!(
            fs.admin().read_file(&p("/a.txt")).unwrap(),
            b"alpha".to_vec()
        );
        assert!(!fs.admin().metadata(&p("/a.txt")).unwrap().read_only);
    }
}
