//! An in-memory virtual filesystem with minifilter-style interposition.
//!
//! This crate is the substrate on which the CryptoDrop reproduction runs.
//! It stands in for the Windows NTFS volume plus the kernel filesystem
//! filter driver that the paper instruments (paper §IV-C, Fig. 2):
//!
//! * [`Vfs`] — a mount table routing paths to [`FsProvider`] backends, with
//!   NTFS/POSIX-flavoured semantics: stable [`FileId`] inode identities
//!   across renames and hard links, symlinks with loop detection,
//!   open-unlinked lifetime, read-only attributes and mounts, open handles
//!   with cursors, and per-process attribution of every operation.
//!   [`MemProvider`] is the reference in-memory backend; mount others with
//!   [`Vfs::mount`] and [`MountOptions`].
//! * [`FilterDriver`] — the interposition trait. Registered filters observe
//!   every operation before ([`FilterDriver::pre_op`]) and after
//!   ([`FilterDriver::post_op`]) it is applied, may read file data
//!   out-of-band through [`FsView`], and return [`Verdict`]s that can deny
//!   an operation or suspend the requesting process.
//! * [`ProcessTable`] — simulated processes, including family suspension.
//! * [`SimClock`] / [`LatencyLedger`] — deterministic timestamps and
//!   filter-overhead accounting for the paper's §V-H performance table.
//!
//! # Example
//!
//! ```
//! use cryptodrop_vfs::{OpenOptions, Vfs, VPath};
//!
//! # fn main() -> Result<(), cryptodrop_vfs::VfsError> {
//! let mut fs = Vfs::new();
//! let pid = fs.spawn_process("notepad.exe");
//! let docs = VPath::new("/Users/victim/Documents");
//! fs.create_dir_all(pid, &docs)?;
//!
//! let path = docs.join("notes.txt");
//! fs.write_file(pid, &path, b"meeting at noon")?;
//! assert_eq!(fs.read_file(pid, &path)?, b"meeting at noon");
//!
//! // Files keep their identity across moves, as on NTFS.
//! let moved = docs.join("archive.txt");
//! let id = fs.metadata(pid, &path)?.file;
//! fs.rename(pid, &path, &moved, false)?;
//! assert_eq!(fs.metadata(pid, &moved)?.file, id);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod content;
pub mod dirty;
mod error;
pub mod faults;
mod filter;
mod fs;
mod node;
mod ops;
mod path;
mod process;
pub mod provider;
pub mod shadow;
mod workload;

pub use clock::{ClockHandle, ClockPolicy, LatencyLedger, LatencyStat, OpKind, SimClock};
pub use content::{BlobStore, MemoSlot, SharedContent};
pub use dirty::{content_stamp, DirtyExtent, DirtyReport, MAX_DIRTY_EXTENTS};
pub use error::{ErrorKind, VfsError, VfsResult};
pub use faults::{FaultInjector, FaultPlan, FaultStats};
pub use filter::{FilterDriver, FsView, Verdict};
pub use fs::{AdminView, Handle, Vfs};
pub use node::{Content, DirEntry, EntryKind, FileId, FileNode, Metadata};
pub use ops::{FsOp, OpContext, OpOutcome, OpenOptions};
pub use path::VPath;
pub use process::{ProcessId, ProcessRecord, ProcessTable, SuspensionRecord};
pub use provider::{FsProvider, MemProvider, MountOptions, ProviderEntry, Unlinked};
pub use shadow::{MutationKind, PreImage, ShadowSink};
pub use workload::{drive_workload, Workload, WorkloadCtx, WorkloadOutcome};
