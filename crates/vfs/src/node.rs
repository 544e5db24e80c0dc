//! File nodes, identities, and metadata.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::content::{MemoSlot, SharedContent};

/// A stable file identity, analogous to an NTFS file reference number.
///
/// A file keeps its [`FileId`] across renames and moves, which is what lets
/// the detector "carefully track the state of the file each time a file is
/// moved" (paper §III, Class B discussion). A new file — even one created at
/// a path where another file used to live — receives a fresh id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fid:{}", self.0)
    }
}

/// The kind of a directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntryKind {
    /// A regular file.
    File,
    /// A directory.
    Directory,
    /// A symbolic link to another path.
    Symlink,
}

/// A single directory entry as returned by directory listings.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// The entry's name within its parent directory.
    pub name: String,
    /// Whether the entry is a file or a directory.
    pub kind: EntryKind,
    /// File size in bytes (0 for directories).
    pub len: u64,
    /// The stable file id (`None` for directories).
    pub file: Option<FileId>,
}

/// Metadata for one file or directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metadata {
    /// Whether the node is a file or directory.
    pub kind: EntryKind,
    /// File size in bytes (0 for directories).
    pub len: u64,
    /// The read-only attribute (always `false` for directories).
    pub read_only: bool,
    /// The stable file id (`None` for directories).
    pub file: Option<FileId>,
    /// Simulated creation time, nanoseconds.
    pub created_at_nanos: u64,
    /// Simulated last-modification time, nanoseconds.
    pub modified_at_nanos: u64,
    /// Number of directory entries (hard links) referring to the file.
    /// Always `1` for directories.
    pub nlink: u32,
}

impl Metadata {
    /// Returns `true` if the node is a regular file.
    pub fn is_file(&self) -> bool {
        self.kind == EntryKind::File
    }

    /// Returns `true` if the node is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == EntryKind::Directory
    }
}

/// Copy-on-write file bytes: a reference-counted buffer shared until
/// written.
///
/// Aliasing a buffer — staging one [`SharedContent`](crate::SharedContent)
/// into many namespaces, or cloning a node — is a refcount bump; the first
/// mutation through `DerefMut` materializes a private copy
/// (`Arc::make_mut`), so a namespace pays resident bytes only for the
/// files it actually changes. On a uniquely-owned buffer `DerefMut` is a
/// refcount check, so single-namespace workloads see no copy overhead.
///
/// Content staged from a [`SharedContent`](crate::SharedContent) also
/// carries that content's [`MemoSlot`]. `DerefMut` drops the slot before
/// it hands out the bytes — whether it copies them or, once every other
/// alias is gone, mutates them in place — and every other mutation
/// replaces the whole `Content`. A slot that is still attached therefore
/// describes exactly the bytes it was staged with. Equality compares the
/// bytes only.
#[derive(Debug, Clone, Default)]
pub struct Content {
    bytes: Arc<Vec<u8>>,
    memo: Option<MemoSlot>,
}

impl Content {
    /// Wraps an already-shared buffer without copying it.
    pub fn from_shared(bytes: Arc<Vec<u8>>) -> Self {
        Self { bytes, memo: None }
    }

    /// Aliases a staged buffer together with its memo slot.
    pub(crate) fn staged(content: &SharedContent) -> Self {
        Self {
            bytes: content.handle(),
            memo: Some(content.memo().clone()),
        }
    }

    /// Whether the buffer is aliased by another handle (a shared corpus
    /// entry or another namespace's node).
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.bytes) > 1
    }

    /// The memo slot of the staged content these bytes still equal, if
    /// they were staged and never mutated since.
    pub(crate) fn memo(&self) -> Option<&MemoSlot> {
        self.memo.as_ref()
    }
}

impl PartialEq for Content {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Content {}

impl From<Vec<u8>> for Content {
    fn from(data: Vec<u8>) -> Self {
        Self::from_shared(Arc::new(data))
    }
}

impl Deref for Content {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.bytes
    }
}

impl DerefMut for Content {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        // Detach first: the caller may change any byte through the
        // returned reference.
        self.memo = None;
        Arc::make_mut(&mut self.bytes)
    }
}

/// The in-memory representation of one regular file (an inode).
///
/// Nodes are owned by an [`FsProvider`](crate::FsProvider) and identified by
/// a stable [`FileId`] that is independent of the path(s) linking to them: a
/// node may be reachable through several hard links, or through no path at
/// all while open handles keep it alive (open-unlinked lifetime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileNode {
    /// The stable inode identity, allocated by the owning provider.
    pub id: FileId,
    /// The file's bytes (copy-on-write).
    pub data: Content,
    /// Incrementally maintained [`content_stamp`](crate::content_stamp) of
    /// `data`, kept in sync by every mutation path.
    pub stamp: u64,
    /// The read-only attribute.
    pub read_only: bool,
    /// Simulated creation time, nanoseconds.
    pub created_at_nanos: u64,
    /// Simulated last-modification time, nanoseconds.
    pub modified_at_nanos: u64,
    /// Number of directory entries referring to this node. Zero means the
    /// node is unlinked and survives only while handles keep it open.
    pub nlink: u32,
}

impl FileNode {
    /// Creates a fresh node with a single link and the given identity.
    pub fn new(id: FileId, data: Content, stamp: u64, now: u64) -> Self {
        Self {
            id,
            data,
            stamp,
            read_only: false,
            created_at_nanos: now,
            modified_at_nanos: now,
            nlink: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_id_display() {
        assert_eq!(FileId(17).to_string(), "fid:17");
    }

    #[test]
    fn metadata_kind_helpers() {
        let m = Metadata {
            kind: EntryKind::File,
            len: 10,
            read_only: false,
            file: Some(FileId(1)),
            created_at_nanos: 0,
            modified_at_nanos: 0,
            nlink: 1,
        };
        assert!(m.is_file());
        assert!(!m.is_dir());
        let d = Metadata {
            kind: EntryKind::Directory,
            len: 0,
            read_only: false,
            file: None,
            created_at_nanos: 0,
            modified_at_nanos: 0,
            nlink: 1,
        };
        assert!(d.is_dir());
        assert!(!d.is_file());
    }
}
