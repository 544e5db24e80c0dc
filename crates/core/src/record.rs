//! Deferred analysis records.
//!
//! The engine's filter callbacks are split into a **verdict-critical fast
//! path** (family permitted/detected gate, scope checks, enqueue-side
//! bookkeeping) and the **analysis body** (sniff, sdhash, entropy, score
//! awards). An [`OpRecord`] is the hand-off between the two: the fast path
//! builds one per in-scope operation, capturing everything the analysis
//! needs — including file *content* at operation time, so the analysis is
//! a pure function of the record stream and never touches the filesystem.
//!
//! In inline execution the record borrows from the callback arguments and
//! is processed immediately (zero copies). The pipelined executor calls
//! [`OpRecord::into_owned`] and ships the record through a bounded shard
//! queue to a worker thread instead.

use std::borrow::Cow;

use cryptodrop_vfs::{DirtyReport, FileId, MemoSlot, ProcessId, VPath};

/// One unit of deferred analysis work: the operation's identity plus every
/// input the indicator evaluation needs, captured at operation time.
#[derive(Debug, Clone)]
pub(crate) struct OpRecord<'a> {
    /// The scoring key: the issuing process's family root. Also selects
    /// the pipeline shard, so one family's records are always processed
    /// in order.
    pub key: ProcessId,
    /// The issuing pid. Rename replacements are scored against the issuer
    /// (matching the pre-shard engine), which can differ from `key`.
    pub issuer: ProcessId,
    /// The issuing process's executable name.
    pub process_name: Cow<'a, str>,
    /// Simulated timestamp of the operation.
    pub at_nanos: u64,
    /// The operation-specific payload.
    pub body: RecordBody<'a>,
}

/// The operation-specific payload of an [`OpRecord`].
#[derive(Debug, Clone)]
pub(crate) enum RecordBody<'a> {
    /// Pre-operation snapshot refresh of a path about to be overwritten,
    /// deleted, or replaced. `data` is the content *before* the operation.
    Refresh {
        /// The path to refresh.
        path: Cow<'a, VPath>,
        /// The path's content at pre-operation time (never empty).
        data: Cow<'a, [u8]>,
        /// The content's [stamp](cryptodrop_vfs::content_stamp) (`0` =
        /// unknown): lets the refresh skip the capture when the resident
        /// snapshot already carries this stamp.
        stamp: u64,
        /// The memo slot of the staged content `data` still equals, when
        /// the path was staged shared and is unchanged since: lets a
        /// cache miss reuse the snapshot another namespace captured.
        memo: Option<MemoSlot>,
    },
    /// An in-scope file was opened: propagate its path-keyed snapshot to
    /// the open file id.
    Open {
        /// The opened path.
        path: Cow<'a, VPath>,
        /// The opened file's id.
        file: FileId,
    },
    /// Data was read from an in-scope file.
    Read {
        /// The file's path.
        path: Cow<'a, VPath>,
        /// The file's id.
        file: FileId,
        /// Byte offset of the read.
        offset: u64,
        /// The bytes actually read.
        data: Cow<'a, [u8]>,
        /// The file content's [stamp](cryptodrop_vfs::content_stamp),
        /// nonzero **only** when `data` is the file's entire content at
        /// operation time — the proof that lets analysis reuse a
        /// stamp-matching snapshot's entropy instead of recomputing.
        stamp: u64,
    },
    /// Data was written to an in-scope file.
    Write {
        /// The file's path.
        path: Cow<'a, VPath>,
        /// The file's id.
        file: FileId,
        /// The bytes written.
        data: Cow<'a, [u8]>,
        /// The post-write content's
        /// [stamp](cryptodrop_vfs::content_stamp), nonzero **only** when
        /// `data` is the file's entire content after the write (see
        /// [`RecordBody::Read::stamp`]).
        stamp: u64,
    },
    /// An in-scope file was truncated or extended.
    Truncate {
        /// The file's id.
        file: FileId,
    },
    /// A modified in-scope handle was closed: run the content indicators
    /// against the pre-image snapshot and refresh both snapshot indices.
    Close {
        /// The file's path.
        path: Cow<'a, VPath>,
        /// The file's id.
        file: FileId,
        /// The file's content at close time.
        current: Cow<'a, [u8]>,
        /// The content's [stamp](cryptodrop_vfs::content_stamp) at close
        /// time (`0` = unknown).
        stamp: u64,
        /// The closing handle's dirty-extent report, when the VFS tracked
        /// one (writable handles).
        dirty: Option<Cow<'a, DirtyReport>>,
    },
    /// A protected file was deleted.
    Delete {
        /// The deleted path.
        path: Cow<'a, VPath>,
        /// The deleted file's id.
        file: FileId,
        /// Whether the path was the file's last link.
        last_link: bool,
    },
    /// A file was renamed with at least one side in scope. Tracked-set
    /// bookkeeping already happened on the fast path.
    Rename {
        /// Source path.
        from: Cow<'a, VPath>,
        /// Destination path.
        to: Cow<'a, VPath>,
        /// The moved file's id.
        file: FileId,
        /// A replaced protected destination: the Class C link input.
        replaced: Option<Replaced<'a>>,
    },
}

/// The protected destination a rename replaced, as the Class C link
/// sees it.
#[derive(Debug, Clone)]
pub(crate) struct Replaced<'a> {
    /// The replaced file's id.
    pub file: FileId,
    /// Whether the destination was the replaced file's last link.
    pub last_link: bool,
    /// The destination's content after the move, when readable.
    pub current: Option<Cow<'a, [u8]>>,
    /// That content's [stamp](cryptodrop_vfs::content_stamp) (`0` =
    /// unknown).
    pub stamp: u64,
}

impl OpRecord<'_> {
    /// Detaches the record from its borrowed callback arguments so it can
    /// cross the queue to a worker thread.
    pub(crate) fn into_owned(self) -> OpRecord<'static> {
        fn own_path(p: Cow<'_, VPath>) -> Cow<'static, VPath> {
            Cow::Owned(p.into_owned())
        }
        fn own_bytes(b: Cow<'_, [u8]>) -> Cow<'static, [u8]> {
            Cow::Owned(b.into_owned())
        }
        OpRecord {
            key: self.key,
            issuer: self.issuer,
            process_name: Cow::Owned(self.process_name.into_owned()),
            at_nanos: self.at_nanos,
            body: match self.body {
                RecordBody::Refresh {
                    path,
                    data,
                    stamp,
                    memo,
                } => RecordBody::Refresh {
                    path: own_path(path),
                    data: own_bytes(data),
                    stamp,
                    memo,
                },
                RecordBody::Open { path, file } => RecordBody::Open {
                    path: own_path(path),
                    file,
                },
                RecordBody::Read {
                    path,
                    file,
                    offset,
                    data,
                    stamp,
                } => RecordBody::Read {
                    path: own_path(path),
                    file,
                    offset,
                    data: own_bytes(data),
                    stamp,
                },
                RecordBody::Write { path, file, data, stamp } => RecordBody::Write {
                    path: own_path(path),
                    file,
                    data: own_bytes(data),
                    stamp,
                },
                RecordBody::Truncate { file } => RecordBody::Truncate { file },
                RecordBody::Close {
                    path,
                    file,
                    current,
                    stamp,
                    dirty,
                } => RecordBody::Close {
                    path: own_path(path),
                    file,
                    current: own_bytes(current),
                    stamp,
                    dirty: dirty.map(|d| Cow::Owned(d.into_owned())),
                },
                RecordBody::Delete {
                    path,
                    file,
                    last_link,
                } => RecordBody::Delete {
                    path: own_path(path),
                    file,
                    last_link,
                },
                RecordBody::Rename {
                    from,
                    to,
                    file,
                    replaced,
                } => RecordBody::Rename {
                    from: own_path(from),
                    to: own_path(to),
                    file,
                    replaced: replaced.map(|r| Replaced {
                        file: r.file,
                        last_link: r.last_link,
                        current: r.current.map(own_bytes),
                        stamp: r.stamp,
                    }),
                },
            },
        }
    }
}
