//! The filter-driver interposition interface.
//!
//! This is the analogue of the Windows filesystem minifilter stack that
//! CryptoDrop instruments (paper Fig. 2): registered drivers see every
//! operation before it is applied (`pre_op`) and after it completes
//! (`post_op`), can read file data out-of-band through the [`FsView`]
//! ("CryptoDrop ... reads the file using the kernel code", §V-H), and can
//! return allow/deny/suspend verdicts. As in the paper, "the ordering of
//! the filesystem filter drivers ... does not affect our system" — filters
//! are called in registration order and each sees the same operation.

use crate::node::Metadata;
use crate::ops::{OpContext, OpOutcome};
use crate::path::VPath;
use crate::{Vfs, VfsError};

/// A filter driver's decision about an operation.
///
/// Construct verdicts through [`Verdict::allow`], [`Verdict::deny`] and
/// [`Verdict::suspend`]; the `Suspend` variant is `#[non_exhaustive]` so
/// downstream crates cannot build it field-by-field, keeping the
/// constructor path sealed (room to grow suspension metadata without a
/// breaking change). Matching still works — add `..` to `Suspend`
/// patterns, or use [`Verdict::suspend_reason`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Let the operation proceed.
    #[default]
    Allow,
    /// Block this single operation (`pre_op` only; ignored in `post_op`,
    /// where the operation has already been applied).
    Deny,
    /// Suspend the requesting process (and its descendants). In `pre_op`
    /// the triggering operation is also blocked; in `post_op` the triggering
    /// operation has completed but all subsequent operations fail with
    /// [`VfsError::ProcessSuspended`].
    #[non_exhaustive]
    Suspend {
        /// Human-readable reason recorded in the process table (e.g. the
        /// detection report summary).
        reason: String,
    },
    /// Let the operation proceed, but charge the requesting process extra
    /// simulated time first (GuardFS-style suspect throttling). The VFS
    /// advances its [`SimClock`](crate::SimClock) by `nanos` and then
    /// treats the verdict as [`Verdict::Allow`]; several filters may
    /// throttle one operation and their penalties accumulate. Throttling
    /// stretches a suspect's wall-clock budget so that even slow detection
    /// bounds how much data the process can destroy per unit time.
    #[non_exhaustive]
    Throttle {
        /// Additional simulated nanoseconds charged before the operation.
        nanos: u64,
    },
}

impl Verdict {
    /// Lets the operation proceed (the default verdict).
    pub fn allow() -> Self {
        Verdict::Allow
    }

    /// Blocks this single operation.
    pub fn deny() -> Self {
        Verdict::Deny
    }

    /// Suspends the requesting process (and its descendants) with a
    /// human-readable reason. This is the only way to build a `Suspend`
    /// verdict outside this crate.
    pub fn suspend(reason: impl Into<String>) -> Self {
        Verdict::Suspend {
            reason: reason.into(),
        }
    }

    /// Slows the requesting process down by `nanos` simulated nanoseconds
    /// while letting the operation proceed. This is the only way to build
    /// a `Throttle` verdict outside this crate.
    pub fn throttle(nanos: u64) -> Self {
        Verdict::Throttle { nanos }
    }

    /// Whether this verdict suspends the process.
    pub fn is_suspend(&self) -> bool {
        matches!(self, Verdict::Suspend { .. })
    }

    /// Whether this verdict throttles the process.
    pub fn is_throttle(&self) -> bool {
        matches!(self, Verdict::Throttle { .. })
    }

    /// The suspension reason, if this is a `Suspend` verdict.
    pub fn suspend_reason(&self) -> Option<&str> {
        match self {
            Verdict::Suspend { reason, .. } => Some(reason.as_str()),
            _ => None,
        }
    }

    /// The throttle penalty in simulated nanoseconds, if this is a
    /// `Throttle` verdict.
    pub fn throttle_nanos(&self) -> Option<u64> {
        match self {
            Verdict::Throttle { nanos, .. } => Some(*nanos),
            _ => None,
        }
    }
}

/// A read-only, filter-privileged view of the filesystem.
///
/// Filters use this to inspect file contents and metadata outside the
/// monitored process's own I/O — e.g. to snapshot a file before a write or
/// to measure the final content at close time. Access through the view is
/// not itself filtered and is not attributed to any process.
#[derive(Debug, Clone, Copy)]
pub struct FsView<'a> {
    vfs: &'a Vfs,
}

impl<'a> FsView<'a> {
    pub(crate) fn new(vfs: &'a Vfs) -> Self {
        Self { vfs }
    }

    /// Reads a file's entire current content.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if the path does not name a file, and
    /// [`VfsError::IsADirectory`] if it names a directory.
    pub fn read_file(&self, path: &VPath) -> Result<Vec<u8>, VfsError> {
        self.vfs.read_file_impl(path)
    }

    /// Returns a file or directory's metadata.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] if the path does not exist.
    pub fn metadata(&self, path: &VPath) -> Result<Metadata, VfsError> {
        self.vfs.metadata_impl(path)
    }

    /// Returns `true` if the path names an existing file or directory.
    pub fn exists(&self, path: &VPath) -> bool {
        self.vfs.metadata_impl(path).is_ok()
    }

    /// The file's length in bytes, if it exists and is a file.
    pub fn file_len(&self, path: &VPath) -> Option<u64> {
        self.vfs
            .metadata_impl(path)
            .ok()
            .filter(Metadata::is_file)
            .map(|m| m.len)
    }

    /// Borrows a file's current content without copying, if the path names
    /// a file. The borrow is tied to the view's lifetime, letting filters
    /// analyse content in place instead of cloning it per operation.
    pub fn file_bytes(&self, path: &VPath) -> Option<&'a [u8]> {
        self.vfs.file_bytes_impl(path)
    }

    /// The file's current [content stamp](crate::content_stamp), if the
    /// path names a file. Maintained incrementally by the VFS; equal
    /// stamps mean equal content, including across [`Vfs`] instances,
    /// unless the content was crafted to collide (the stamp is linear,
    /// not a keyed hash).
    pub fn file_stamp(&self, path: &VPath) -> Option<u64> {
        self.vfs.file_stamp_impl(path)
    }

    /// The [`MemoSlot`](crate::MemoSlot) of the file's staged content,
    /// if the path names a file staged with
    /// [`AdminView::stage_shared`](crate::AdminView::stage_shared) whose
    /// bytes have not changed since. Every namespace staged from one
    /// [`SharedContent`](crate::SharedContent) sees the same slot, so a
    /// filter can store there an analysis that is a pure function of the
    /// bytes and compute it once for all of them.
    pub fn file_memo(&self, path: &VPath) -> Option<&'a crate::MemoSlot> {
        self.vfs.file_memo_impl(path)
    }

    /// The file's stable inode identity, if the path names a file. Lets
    /// filters key caches by identity rather than path, so renames and
    /// hard links do not fragment their state.
    pub fn file_id(&self, path: &VPath) -> Option<crate::FileId> {
        self.vfs.file_id_impl(path)
    }
}

/// A filesystem filter driver (Windows minifilter analogue).
///
/// The default implementations allow everything, so a filter only interested
/// in observing completed operations can implement `post_op` alone.
///
/// # Examples
///
/// ```
/// use cryptodrop_vfs::{FilterDriver, FsView, OpContext, OpOutcome, Verdict};
///
/// /// Counts write operations, like a toy activity monitor.
/// struct WriteCounter {
///     writes: u64,
/// }
///
/// impl FilterDriver for WriteCounter {
///     fn name(&self) -> &str {
///         "write-counter"
///     }
///
///     fn post_op(&mut self, _ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, _fs: &FsView<'_>) -> Verdict {
///         if let OpOutcome::Write { .. } = outcome {
///             self.writes += 1;
///         }
///         Verdict::Allow
///     }
/// }
/// ```
pub trait FilterDriver: Send {
    /// A short, stable name for the filter (used in denial errors and
    /// suspension records).
    fn name(&self) -> &str;

    /// Called before an operation is applied. Returning [`Verdict::Deny`]
    /// blocks the operation; [`Verdict::Suspend`] suspends the process and
    /// blocks the operation.
    fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
        let _ = (ctx, fs);
        Verdict::Allow
    }

    /// Called after an operation has been applied. Returning
    /// [`Verdict::Suspend`] suspends the process; [`Verdict::Deny`] is
    /// ignored (the operation already happened).
    fn post_op(&mut self, ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, fs: &FsView<'_>) -> Verdict {
        let _ = (ctx, outcome, fs);
        Verdict::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_verdict_is_allow() {
        assert_eq!(Verdict::default(), Verdict::Allow);
    }

    #[test]
    fn sealed_constructors_round_trip() {
        assert_eq!(Verdict::allow(), Verdict::Allow);
        assert_eq!(Verdict::deny(), Verdict::Deny);
        let v = Verdict::suspend("score 212 >= 200");
        assert!(v.is_suspend());
        assert_eq!(v.suspend_reason(), Some("score 212 >= 200"));
        assert!(!Verdict::allow().is_suspend());
        assert_eq!(Verdict::deny().suspend_reason(), None);
        let t = Verdict::throttle(500_000);
        assert!(t.is_throttle() && !t.is_suspend());
        assert_eq!(t.throttle_nanos(), Some(500_000));
        assert_eq!(v.throttle_nanos(), None);
    }

    #[test]
    fn filter_default_methods_allow() {
        struct Passive;
        impl FilterDriver for Passive {
            fn name(&self) -> &str {
                "passive"
            }
        }
        // Smoke-test via a real Vfs in crate-level tests; here just ensure
        // the trait object is constructible and Send.
        fn assert_send<T: Send>(_: T) {}
        assert_send(Box::new(Passive) as Box<dyn FilterDriver>);
    }
}
