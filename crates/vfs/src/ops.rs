//! Operation descriptions delivered to filter drivers.
//!
//! These mirror what a Windows minifilter sees in its pre-/post-operation
//! callbacks: the requesting process, the operation and its parameters
//! (including data buffers for reads and writes), and — post-operation —
//! the result.

use crate::clock::OpKind;
use crate::dirty::DirtyReport;
use crate::node::FileId;
use crate::path::VPath;
use crate::process::ProcessId;

/// Options controlling how a file is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenOptions {
    /// Open for writing (reads are always permitted on an open handle).
    pub write: bool,
    /// Create the file if it does not exist.
    pub create: bool,
    /// Fail with `AlreadyExists` if the file does exist.
    pub create_new: bool,
    /// Truncate the file to zero length on open (requires `write`).
    pub truncate: bool,
}

impl OpenOptions {
    /// Read-only open of an existing file.
    pub fn read() -> Self {
        Self::default()
    }

    /// Read-write open of an existing file, no truncation.
    pub fn modify() -> Self {
        Self {
            write: true,
            ..Self::default()
        }
    }

    /// Create-or-truncate open for writing (like `File::create`).
    pub fn create() -> Self {
        Self {
            write: true,
            create: true,
            truncate: true,
            ..Self::default()
        }
    }

    /// Create a brand-new file, failing if the path already exists.
    pub fn create_new() -> Self {
        Self {
            write: true,
            create: true,
            create_new: true,
            ..Self::default()
        }
    }
}

/// A filesystem operation, as seen by filter drivers before it is applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FsOp<'a> {
    /// Opening (and possibly creating/truncating) a file.
    Open {
        /// Target path.
        path: &'a VPath,
        /// The open options requested.
        options: OpenOptions,
    },
    /// Reading data through an open handle.
    Read {
        /// The file's path at open time.
        path: &'a VPath,
        /// Byte offset of the read.
        offset: u64,
        /// Requested length in bytes.
        len: usize,
    },
    /// Writing data through an open handle.
    Write {
        /// The file's path at open time.
        path: &'a VPath,
        /// Byte offset of the write.
        offset: u64,
        /// The data being written.
        data: &'a [u8],
    },
    /// Truncating or extending a file through an open handle.
    Truncate {
        /// The file's path at open time.
        path: &'a VPath,
        /// The new length in bytes.
        len: u64,
    },
    /// Closing an open handle.
    Close {
        /// The file's path at open time.
        path: &'a VPath,
        /// Whether any write or truncate occurred through this handle.
        modified: bool,
    },
    /// Deleting a file.
    Delete {
        /// Target path.
        path: &'a VPath,
    },
    /// Renaming or moving a file (possibly replacing the destination).
    Rename {
        /// Source path.
        from: &'a VPath,
        /// Destination path.
        to: &'a VPath,
        /// Whether an existing destination may be replaced.
        overwrite: bool,
    },
    /// Listing a directory.
    ReadDir {
        /// Target directory.
        path: &'a VPath,
    },
    /// Changing a file attribute.
    SetAttr {
        /// Target path.
        path: &'a VPath,
        /// The new read-only state.
        read_only: bool,
    },
}

impl FsOp<'_> {
    /// The coarse kind bucket of this operation, for latency accounting.
    pub fn kind(&self) -> OpKind {
        match self {
            FsOp::Open { .. } => OpKind::Open,
            FsOp::Read { .. } => OpKind::Read,
            FsOp::Write { .. } => OpKind::Write,
            FsOp::Truncate { .. } => OpKind::Write,
            FsOp::Close { .. } => OpKind::Close,
            FsOp::Delete { .. } => OpKind::Delete,
            FsOp::Rename { .. } => OpKind::Rename,
            FsOp::ReadDir { .. } => OpKind::ReadDir,
            FsOp::SetAttr { .. } => OpKind::Metadata,
        }
    }

    /// A short stable lowercase name for logs and telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            FsOp::Open { .. } => "open",
            FsOp::Read { .. } => "read",
            FsOp::Write { .. } => "write",
            FsOp::Truncate { .. } => "truncate",
            FsOp::Close { .. } => "close",
            FsOp::Delete { .. } => "delete",
            FsOp::Rename { .. } => "rename",
            FsOp::ReadDir { .. } => "readdir",
            FsOp::SetAttr { .. } => "setattr",
        }
    }

    /// The primary path the operation targets (the source for renames).
    pub fn path(&self) -> &VPath {
        match self {
            FsOp::Open { path, .. }
            | FsOp::Read { path, .. }
            | FsOp::Write { path, .. }
            | FsOp::Truncate { path, .. }
            | FsOp::Close { path, .. }
            | FsOp::Delete { path }
            | FsOp::ReadDir { path }
            | FsOp::SetAttr { path, .. } => path,
            FsOp::Rename { from, .. } => from,
        }
    }
}

/// The context delivered with every filter callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpContext<'a> {
    /// The process issuing the operation.
    pub pid: ProcessId,
    /// The top-level ancestor of that process — equal to `pid` for
    /// processes without a parent. Lets filters attribute activity to a
    /// process *family* ("suspends the suspicious process (or family of
    /// processes)", paper §IV).
    pub family_root: ProcessId,
    /// The executable name of that process.
    pub process_name: &'a str,
    /// The operation itself.
    pub op: FsOp<'a>,
    /// Simulated timestamp (nanoseconds) of the operation.
    pub at_nanos: u64,
}

/// The result of a successfully applied operation, as seen by post-operation
/// filter callbacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpOutcome<'a> {
    /// A file was opened.
    Open {
        /// The opened file's stable id.
        file: FileId,
        /// Whether the open created the file.
        created: bool,
        /// Whether the open truncated existing content.
        truncated: bool,
    },
    /// Data was read.
    Read {
        /// The file's stable id.
        file: FileId,
        /// The bytes actually read (may be shorter than requested).
        data: &'a [u8],
    },
    /// Data was written.
    Write {
        /// The file's stable id.
        file: FileId,
        /// Number of bytes written.
        written: usize,
    },
    /// A file was truncated or extended.
    Truncate {
        /// The file's stable id.
        file: FileId,
    },
    /// A handle was closed.
    Close {
        /// The file's stable id (the file may already be deleted).
        file: FileId,
        /// Whether the handle modified the file.
        modified: bool,
        /// The file's current [content stamp](crate::content_stamp), or
        /// `0` if the file no longer exists.
        stamp: u64,
        /// The handle's dirty-extent report, present for handles that were
        /// opened writable. See [`DirtyReport`] for the invariants an
        /// incremental consumer may rely on.
        dirty: Option<&'a DirtyReport>,
    },
    /// A file was deleted.
    Delete {
        /// The deleted file's stable id.
        file: FileId,
        /// Whether the deleted path was the file's last link. `false` when
        /// another hard link still reaches the file.
        last_link: bool,
    },
    /// A file was renamed or moved.
    Rename {
        /// The moved file's stable id (unchanged by the move).
        file: FileId,
        /// The id of a destination file that was replaced, if any.
        replaced: Option<FileId>,
        /// Whether the replaced destination was that file's last link
        /// (`false` when another hard link still reaches it, or when
        /// nothing was replaced).
        replaced_last_link: bool,
    },
    /// A directory was listed.
    ReadDir {
        /// Number of entries returned.
        entries: usize,
    },
    /// An attribute was changed.
    SetAttr,
}

impl OpOutcome<'_> {
    /// The stable inode identity the outcome refers to, when it has one
    /// (directory listings and attribute changes do not). Telemetry keys
    /// journal records by this id so consumers can correlate operations
    /// across renames and hard links.
    pub fn file_id(&self) -> Option<FileId> {
        match self {
            OpOutcome::Open { file, .. }
            | OpOutcome::Read { file, .. }
            | OpOutcome::Write { file, .. }
            | OpOutcome::Truncate { file }
            | OpOutcome::Close { file, .. }
            | OpOutcome::Delete { file, .. }
            | OpOutcome::Rename { file, .. } => Some(*file),
            OpOutcome::ReadDir { .. } | OpOutcome::SetAttr => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_option_presets() {
        assert!(!OpenOptions::read().write);
        assert!(OpenOptions::modify().write);
        assert!(!OpenOptions::modify().truncate);
        let c = OpenOptions::create();
        assert!(c.write && c.create && c.truncate && !c.create_new);
        let n = OpenOptions::create_new();
        assert!(n.write && n.create && n.create_new && !n.truncate);
    }

    #[test]
    fn op_kind_mapping() {
        let p = VPath::new("/a");
        let q = VPath::new("/b");
        assert_eq!(
            FsOp::Open {
                path: &p,
                options: OpenOptions::read()
            }
            .kind(),
            OpKind::Open
        );
        assert_eq!(
            FsOp::Rename {
                from: &p,
                to: &q,
                overwrite: false
            }
            .kind(),
            OpKind::Rename
        );
        assert_eq!(
            FsOp::Truncate { path: &p, len: 0 }.kind(),
            OpKind::Write,
            "truncation is a write-class operation"
        );
        assert_eq!(
            FsOp::SetAttr {
                path: &p,
                read_only: true
            }
            .kind(),
            OpKind::Metadata
        );
    }

    #[test]
    fn op_primary_path() {
        let p = VPath::new("/src");
        let q = VPath::new("/dst");
        let op = FsOp::Rename {
            from: &p,
            to: &q,
            overwrite: true,
        };
        assert_eq!(op.path(), &p);
        let del = FsOp::Delete { path: &q };
        assert_eq!(del.path(), &q);
    }
}
