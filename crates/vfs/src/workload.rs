//! The unified actor surface: one trait for everything that drives a
//! filesystem, attacker or benign.
//!
//! Ransomware samples and benign applications both implement [`Workload`],
//! so every study that mixes the two — ROC sweeps, deception runs, fleet
//! tenants — has one code path. An actor declares its *pid plan* (the
//! process identities it will drive, letting multi-process colluders split
//! reads from writes), optionally stages unmonitored inputs, and then
//! [`drive`](Workload::drive)s the filesystem to a [`WorkloadOutcome`].
//! The harness composes attackers and benign load uniformly; the engine
//! under test cannot tell who built the workload.

use serde::{Deserialize, Serialize};

use crate::clock::ClockHandle;
use crate::error::VfsResult;
use crate::fs::Vfs;
use crate::path::VPath;
use crate::process::ProcessId;

/// Everything a [`Workload`] needs beyond the filesystem itself: its
/// spawned process identities, the protected root it targets, a
/// deterministic seed, and a typed handle onto the simulated clock.
#[derive(Debug, Clone)]
pub struct WorkloadCtx {
    /// The processes spawned for this workload, in
    /// [`Workload::pid_plan`] order. Never empty.
    pub pids: Vec<ProcessId>,
    /// The directory tree the workload operates on (normally the
    /// protected documents root).
    pub root: VPath,
    /// Deterministic seed for any randomness the workload derives.
    pub seed: u64,
    /// Shared handle onto the filesystem's simulated clock, for workloads
    /// that pace themselves across simulated time (think time, cron gaps,
    /// slow-roll encryption).
    pub clock: ClockHandle,
}

impl WorkloadCtx {
    /// Spawns `workload`'s processes on `fs` and assembles the context.
    pub fn spawn(fs: &mut Vfs, workload: &dyn Workload, root: &VPath, seed: u64) -> Self {
        let plan = workload.pid_plan();
        debug_assert!(!plan.is_empty(), "a workload must drive at least one process");
        let pids = plan.iter().map(|name| fs.spawn_process(name)).collect();
        Self {
            pids,
            root: root.clone(),
            seed,
            clock: fs.clock_handle(),
        }
    }

    /// The primary process — the first entry of the pid plan, which is
    /// also the identity detection reports are keyed on for single-process
    /// workloads.
    pub fn pid(&self) -> ProcessId {
        self.pids[0]
    }
}

/// What a [`Workload`] did, in terms common to attackers and benign
/// applications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadOutcome {
    /// Files the workload modified, replaced, or destroyed.
    pub files_touched: u32,
    /// Auxiliary artifacts written alongside (ransom notes, archives,
    /// previews, rotated logs).
    pub artifacts_written: u32,
    /// Targets skipped because they were read-only.
    pub read_only_skipped: u32,
    /// Whether any of the workload's processes was suspended mid-run.
    pub suspended: bool,
    /// Whether the workload ran to its natural end.
    pub completed: bool,
}

impl WorkloadOutcome {
    /// An outcome for a workload that ran to completion untouched by the
    /// detector.
    pub fn completed() -> Self {
        Self {
            completed: true,
            ..Self::default()
        }
    }
}

/// An actor that drives a [`Vfs`]: a ransomware sample, an evasive
/// strategy, or a benign application. See the module docs.
///
/// # Examples
///
/// ```
/// use cryptodrop_vfs::{drive_workload, Vfs, VPath, VfsResult, Workload, WorkloadCtx,
///     WorkloadOutcome};
///
/// /// Touches one file and exits.
/// struct Touch;
///
/// impl Workload for Touch {
///     fn name(&self) -> String {
///         "touch".into()
///     }
///     fn pid_plan(&self) -> Vec<String> {
///         vec!["touch.exe".into()]
///     }
///     fn drive(&self, fs: &mut Vfs, ctx: &WorkloadCtx) -> WorkloadOutcome {
///         let _ = fs.write_file(ctx.pid(), &ctx.root.join("marker"), b"hi");
///         WorkloadOutcome {
///             files_touched: 1,
///             ..WorkloadOutcome::completed()
///         }
///     }
/// }
///
/// let mut fs = Vfs::new();
/// let root = VPath::new("/docs");
/// fs.admin().create_dir_all(&root).unwrap();
/// let outcome = drive_workload(&mut fs, &Touch, &root, 0);
/// assert!(outcome.completed);
/// ```
pub trait Workload {
    /// Display name for reports and result rows.
    fn name(&self) -> String;

    /// Executable names for the processes this workload drives, in spawn
    /// order. Must be non-empty; most workloads return one entry.
    fn pid_plan(&self) -> Vec<String>;

    /// Stages unmonitored inputs (via [`Vfs::admin`]) before the drive.
    /// Administrative writes are invisible to registered filters, so
    /// staging never scores. The default stages nothing.
    fn stage(&self, _fs: &mut Vfs, _ctx: &WorkloadCtx) -> VfsResult<()> {
        Ok(())
    }

    /// Drives the workload through monitored operations to completion (or
    /// suspension).
    fn drive(&self, fs: &mut Vfs, ctx: &WorkloadCtx) -> WorkloadOutcome;
}

/// Spawns `workload`'s processes, stages its inputs, and drives it: the
/// one-call harness entry point. Panics only if staging fails — stage
/// errors indicate a broken harness setup, not workload behavior.
pub fn drive_workload(
    fs: &mut Vfs,
    workload: &dyn Workload,
    root: &VPath,
    seed: u64,
) -> WorkloadOutcome {
    let ctx = WorkloadCtx::spawn(fs, workload, root, seed);
    workload
        .stage(fs, &ctx)
        .expect("workload staging must succeed");
    workload.drive(fs, &ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoProc;

    impl Workload for TwoProc {
        fn name(&self) -> String {
            "two-proc".into()
        }
        fn pid_plan(&self) -> Vec<String> {
            vec!["reader.exe".into(), "writer.exe".into()]
        }
        fn stage(&self, fs: &mut Vfs, ctx: &WorkloadCtx) -> VfsResult<()> {
            fs.admin().write_file(&ctx.root.join("staged.txt"), b"pre")
        }
        fn drive(&self, fs: &mut Vfs, ctx: &WorkloadCtx) -> WorkloadOutcome {
            let [reader, writer] = ctx.pids[..] else {
                panic!("pid plan promised two processes");
            };
            let data = fs.read_file(reader, &ctx.root.join("staged.txt")).unwrap();
            fs.write_file(writer, &ctx.root.join("staged.txt"), &data)
                .unwrap();
            ctx.clock.advance(5);
            WorkloadOutcome {
                files_touched: 1,
                ..WorkloadOutcome::completed()
            }
        }
    }

    #[test]
    fn drive_spawns_plan_stages_and_runs() {
        let mut fs = Vfs::new();
        let root = VPath::new("/docs");
        fs.admin().create_dir_all(&root).unwrap();
        let before = fs.clock().now_nanos();
        let outcome = drive_workload(&mut fs, &TwoProc, &root, 42);
        assert_eq!(
            outcome,
            WorkloadOutcome {
                files_touched: 1,
                ..WorkloadOutcome::completed()
            }
        );
        // Both planned processes exist and are distinct.
        assert!(fs.clock().now_nanos() > before + 5, "ops and ctx.clock advanced");
    }

    #[test]
    fn ctx_primary_pid_is_first_of_plan() {
        let mut fs = Vfs::new();
        let root = VPath::new("/d");
        fs.admin().create_dir_all(&root).unwrap();
        let ctx = WorkloadCtx::spawn(&mut fs, &TwoProc, &root, 0);
        assert_eq!(ctx.pids.len(), 2);
        assert_eq!(ctx.pid(), ctx.pids[0]);
        assert_ne!(ctx.pids[0], ctx.pids[1]);
    }
}
