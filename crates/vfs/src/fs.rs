//! The virtual filesystem.
//!
//! [`Vfs`] is an in-memory filesystem with NTFS-flavoured semantics: stable
//! file identities across renames, read-only attributes, per-process
//! attribution of every operation, and a minifilter-style interposition
//! stack ([`FilterDriver`]) that sees each operation before and after it is
//! applied. It is the substrate on which the CryptoDrop engine, the corpus
//! generator, the ransomware simulator, and the benign workloads all run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cryptodrop_telemetry::{JournalKind, Telemetry};

use crate::clock::{ClockHandle, ClockPolicy, LatencyLedger, OpKind, SimClock};
use crate::dirty::{
    content_stamp, stamp_append_delta, stamp_overwrite_delta, stamp_remove_delta,
    stamp_zero_fill_delta, DirtyReport,
};
use crate::error::{VfsError, VfsResult};
use crate::faults::FaultInjector;
use crate::filter::{FilterDriver, FsView, Verdict};
use crate::content::{MemoSlot, SharedContent};
use crate::node::{Content, DirEntry, EntryKind, FileId, FileNode, Metadata};
use crate::ops::{FsOp, OpContext, OpOutcome, OpenOptions};
use crate::path::VPath;
use crate::process::{ProcessId, ProcessTable, SuspensionRecord};
use crate::provider::{FsProvider, MemProvider, MountOptions, ProviderEntry};
use crate::shadow::{MutationKind, PreImage, ShadowSink};

/// An open file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(u64);

#[derive(Debug)]
struct OpenHandle {
    pid: ProcessId,
    /// Index of the mount the file lives on.
    mount: usize,
    file: FileId,
    cursor: u64,
    writable: bool,
    modified: bool,
    /// Path at open time, kept for close events if the file is unlinked.
    opened_path: Arc<VPath>,
    /// Dirty-extent tracking for this handle, delivered to filters at
    /// close time (see [`DirtyReport`]).
    dirty: DirtyReport,
}

/// One entry of the mount table: a provider attached at a root path.
struct Mount {
    root: VPath,
    /// `root.depth()`, cached for mount routing.
    depth: usize,
    options: MountOptions,
    provider: Box<dyn FsProvider>,
}

/// A path resolved through the mount table's symlink machinery: borrowed
/// unchanged when no symlink was involved, owned when splicing targets
/// produced a new path.
enum ResolvedPath<'p> {
    Borrowed(&'p VPath),
    Owned(VPath),
}

impl ResolvedPath<'_> {
    fn as_path(&self) -> &VPath {
        match self {
            ResolvedPath::Borrowed(p) => p,
            ResolvedPath::Owned(p) => p,
        }
    }
}

/// The in-memory virtual filesystem. See the [crate-level docs](crate) for
/// an overview and a worked example.
pub struct Vfs {
    /// The mount table. `mounts[0]` is always the root mount; paths route
    /// to the deepest mount whose root prefixes them.
    mounts: Vec<Mount>,
    /// Open-handle counts per `(mount, inode)`, used to keep unlinked
    /// nodes alive until their last handle closes (open-unlinked
    /// lifetime) and to reap them afterwards.
    open_counts: HashMap<(usize, FileId), u32>,
    handles: HashMap<u64, OpenHandle>,
    next_handle_id: u64,
    processes: ProcessTable,
    filters: Vec<Box<dyn FilterDriver>>,
    clock: ClockHandle,
    clock_policy: ClockPolicy,
    ledger: LatencyLedger,
    telemetry: Telemetry,
    shadow: Option<Arc<dyn ShadowSink>>,
    faults: Option<FaultInjector>,
    /// Reusable buffer for the process name passed to filter callbacks,
    /// recycled across operations to keep the steady-state filter path
    /// allocation-free.
    name_scratch: String,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vfs")
            .field("mounts", &self.mounts.len())
            .field("files", &self.file_count())
            .field("dirs", &self.dir_count())
            .field("handles", &self.handles.len())
            .field("processes", &self.processes.len())
            .field("filters", &self.filters.len())
            .finish()
    }
}

impl Vfs {
    /// Creates an empty filesystem containing only the root directory,
    /// backed by a default [`MemProvider`] mounted at `/`.
    pub fn new() -> Self {
        Self::with_root_provider(Box::new(MemProvider::new()), MountOptions::default())
    }

    /// Creates a filesystem whose root mount is the given provider.
    ///
    /// The provider's [`prepare_mount`](FsProvider::prepare_mount) is
    /// invoked for `/` before the first operation. Additional providers
    /// can be attached below the root with [`Vfs::mount`].
    pub fn with_root_provider(mut provider: Box<dyn FsProvider>, options: MountOptions) -> Self {
        provider.prepare_mount(&VPath::root());
        Self {
            mounts: vec![Mount {
                root: VPath::root(),
                depth: 0,
                options,
                provider,
            }],
            open_counts: HashMap::new(),
            handles: HashMap::new(),
            next_handle_id: 1,
            processes: ProcessTable::new(),
            filters: Vec::new(),
            clock: ClockHandle::new(),
            clock_policy: ClockPolicy::default(),
            ledger: LatencyLedger::new(),
            telemetry: Telemetry::disabled(),
            shadow: None,
            faults: None,
            name_scratch: String::new(),
        }
    }

    /// Creates an empty filesystem whose process ids and file ids are
    /// drawn from a disjoint per-namespace range, so several `Vfs`
    /// instances — one per thread — can drive one shared filter driver
    /// (e.g. a forked `CryptoDrop` engine) without id collisions.
    ///
    /// This is sugar for mounting a
    /// [`MemProvider::with_ino_base`]`((namespace << 32) | 1)` at the root
    /// and offsetting the process table — tenancy is a mount, not a
    /// special id-prefixing mode. Namespace 0 is identical to
    /// [`Vfs::new`].
    pub fn with_namespace(namespace: u32) -> Self {
        // 2^32 file ids and 2^20 pids per namespace are far beyond any
        // simulated workload.
        let provider = MemProvider::with_ino_base((u64::from(namespace) << 32) | 1);
        let mut fs = Self::with_root_provider(Box::new(provider), MountOptions::default());
        fs.processes = ProcessTable::with_base(namespace << 20);
        fs
    }

    // ------------------------------------------------------------------
    // Mount table
    // ------------------------------------------------------------------

    /// Attaches a provider at `root` with the given options.
    ///
    /// The mount target must be a missing or empty directory: a missing
    /// target is created in the covering mount (so listings of the parent
    /// show the mount point), and a non-empty one is refused rather than
    /// silently shadowing its entries. Paths at or below `root` then route
    /// to the new provider; the deepest matching mount root wins.
    ///
    /// # Errors
    ///
    /// * [`VfsError::AlreadyExists`] — `root` is `/` or an existing mount
    ///   root, or is occupied by a file or symlink.
    /// * [`VfsError::DirectoryNotEmpty`] — `root` is a non-empty directory.
    /// * [`VfsError::NotFound`] / [`VfsError::NotADirectory`] — the parent
    ///   of `root` is missing or not a directory.
    pub fn mount(
        &mut self,
        root: impl Into<VPath>,
        mut provider: Box<dyn FsProvider>,
        options: MountOptions,
    ) -> VfsResult<()> {
        let root = root.into();
        if root.is_root() || self.mounts.iter().any(|m| m.root == root) {
            return Err(VfsError::already_exists(root));
        }
        let mi = self.mount_index(&root);
        match self.mounts[mi].provider.entry(&root) {
            None => {
                let parent = root
                    .parent()
                    .ok_or_else(|| VfsError::InvalidPath(root.clone()))?;
                match self.node_kind(mi, &parent) {
                    Some(EntryKind::Directory) => {}
                    Some(_) => return Err(VfsError::NotADirectory(parent)),
                    None => return Err(VfsError::not_found(parent)),
                }
                self.mounts[mi].provider.create_dir(&root);
            }
            Some(ProviderEntry::Directory) => {
                let occupied = self.mounts[mi]
                    .provider
                    .read_dir(&root)
                    .is_some_and(|entries| !entries.is_empty());
                if occupied {
                    return Err(VfsError::DirectoryNotEmpty(root));
                }
            }
            Some(_) => return Err(VfsError::already_exists(root)),
        }
        provider.prepare_mount(&root);
        let depth = root.depth();
        self.mounts.push(Mount {
            root,
            depth,
            options,
            provider,
        });
        Ok(())
    }

    /// Iterates over the mount table as `(root, options)` pairs, root
    /// mount first, then in mount order.
    pub fn mounts(&self) -> impl Iterator<Item = (&VPath, &MountOptions)> {
        self.mounts.iter().map(|m| (&m.root, &m.options))
    }

    // ------------------------------------------------------------------
    // Processes and filters
    // ------------------------------------------------------------------

    /// Registers a new top-level process.
    pub fn spawn_process(&mut self, name: impl Into<String>) -> ProcessId {
        self.processes.spawn(name)
    }

    /// Registers a child process of `parent`.
    pub fn spawn_child_process(
        &mut self,
        parent: ProcessId,
        name: impl Into<String>,
    ) -> ProcessId {
        self.processes.spawn_child(parent, name)
    }

    /// Read access to the process table.
    pub fn processes(&self) -> &ProcessTable {
        &self.processes
    }

    /// Returns `true` if `pid` (or an ancestor) is suspended.
    pub fn is_suspended(&self, pid: ProcessId) -> bool {
        self.processes.is_suspended(pid)
    }

    /// Lifts a suspension, as when the user allows a flagged process to
    /// continue. Returns `false` for unknown pids.
    pub fn resume_process(&mut self, pid: ProcessId) -> bool {
        self.processes.resume(pid)
    }

    /// Suspends a process out-of-band, exactly as a filter `Suspend`
    /// verdict would: the suspension is journaled and recorded in the
    /// process table. This is the reconciliation
    /// hook for detections a deferred analysis pipeline produced *after*
    /// the triggering operation had already returned
    /// (`Backpressure::DegradeToInline`). Returns `false` if the pid is
    /// unknown or the process is already suspended.
    pub fn suspend_process(&mut self, pid: ProcessId, by: &str, reason: &str) -> bool {
        match self.processes.get(pid) {
            None => false,
            Some(rec) if rec.is_suspended() => false,
            Some(_) => {
                self.apply_suspension(pid, by.to_string(), reason.to_string());
                true
            }
        }
    }

    /// Registers a filter driver at the end of the filter stack.
    pub fn register_filter(&mut self, filter: Box<dyn FilterDriver>) {
        self.filters.push(filter);
    }

    /// Removes and returns all registered filters.
    pub fn take_filters(&mut self) -> Vec<Box<dyn FilterDriver>> {
        std::mem::take(&mut self.filters)
    }

    /// Attaches a telemetry sink: when enabled, every operation's journey
    /// (op → per-filter pre/post verdicts → suspension) is journaled.
    /// Share the same handle with the registered filter drivers (e.g. the
    /// CryptoDrop engine) to interleave their events — such as indicator
    /// contributions — into one ordered timeline.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry sink (a disabled one by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a pre-image sink: every destructive, process-attributed
    /// operation that passes the filter chain hands the sink the bytes it
    /// is about to destroy, immediately before the mutation is applied
    /// (see the [`shadow`](crate::shadow) module docs). Administrative
    /// mutations (corpus staging, recovery writes) are never captured.
    pub fn set_shadow_sink(&mut self, sink: Arc<dyn ShadowSink>) {
        self.shadow = Some(sink);
    }

    /// Detaches the pre-image sink, returning it if one was attached.
    pub fn take_shadow_sink(&mut self) -> Option<Arc<dyn ShadowSink>> {
        self.shadow.take()
    }

    /// Installs a deterministic fault injector (see the
    /// [`faults`](crate::faults) module): every filtered operation then
    /// passes a fault point that may abort it with [`VfsError::Io`] or
    /// spike the simulated clock, and shadow captures may be failed.
    /// Administrative operations are never faulted.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Removes the fault injector, returning it if one was installed.
    pub fn take_fault_injector(&mut self) -> Option<FaultInjector> {
        self.faults.take()
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// A point-in-time snapshot of the simulated clock.
    pub fn clock(&self) -> SimClock {
        self.clock.snapshot()
    }

    /// A shared handle onto this filesystem's simulated clock. The handle
    /// aliases the live clock, so workloads holding `&mut Vfs` can still
    /// advance simulated time between operations through it.
    pub fn clock_handle(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// Sets how measured filter overhead folds into the simulated clock.
    /// See [`ClockPolicy`].
    pub fn set_clock_policy(&mut self, policy: ClockPolicy) {
        self.clock_policy = policy;
    }

    /// The active [`ClockPolicy`].
    pub fn clock_policy(&self) -> ClockPolicy {
        self.clock_policy
    }

    /// Advances the simulated clock, modeling wall-clock time passing
    /// between operations (user think time, rendering, network waits).
    /// Benign workloads use this; ransomware runs flat out.
    pub fn advance_clock(&mut self, nanos: u64) {
        self.clock.advance(nanos);
    }

    /// The filter-overhead latency ledger.
    pub fn latency_ledger(&self) -> &LatencyLedger {
        &self.ledger
    }

    /// Clears the latency ledger.
    pub fn reset_latency_ledger(&mut self) {
        self.ledger.reset();
    }

    // ------------------------------------------------------------------
    // Filtered operations (attributed to a process)
    // ------------------------------------------------------------------

    /// Opens a file.
    ///
    /// # Errors
    ///
    /// * [`VfsError::NotFound`] — the file (or its parent directory) does
    ///   not exist and `create` was not requested.
    /// * [`VfsError::AlreadyExists`] — `create_new` was requested and the
    ///   path exists.
    /// * [`VfsError::IsADirectory`] — the path names a directory.
    /// * [`VfsError::ReadOnly`] — write access to a read-only file.
    /// * [`VfsError::ReadOnlyFs`] — write or create access on a read-only
    ///   mount.
    /// * [`VfsError::SymlinkLoop`] — symlink resolution exceeded the
    ///   mount's depth limit, or the path names a symlink on a mount with
    ///   resolution disabled.
    /// * [`VfsError::AccessDenied`] / [`VfsError::ProcessSuspended`] — a
    ///   filter denied the operation or the process is suspended.
    pub fn open(&mut self, pid: ProcessId, path: &VPath, options: OpenOptions) -> VfsResult<Handle> {
        self.check_process(pid)?;
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        let exists = match self.node_kind(mi, path) {
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => return Err(VfsError::symlink_loop(path.clone())),
            Some(EntryKind::File) => true,
            None => false,
        };
        if exists && options.create_new {
            return Err(VfsError::AlreadyExists(path.clone()));
        }
        if !exists {
            if !options.create {
                return Err(VfsError::NotFound(path.clone()));
            }
            let parent = path.parent().ok_or_else(|| VfsError::InvalidPath(path.clone()))?;
            match self.node_kind(mi, &parent) {
                Some(EntryKind::Directory) => {}
                Some(_) => return Err(VfsError::NotADirectory(parent)),
                None => return Err(VfsError::NotFound(parent)),
            }
        }
        if (options.write || (!exists && options.create)) && self.mounts[mi].options.read_only {
            return Err(VfsError::read_only_fs(path.clone()));
        }
        if exists
            && options.write
            && self.file_node_at(mi, path).expect("checked above").read_only
        {
            return Err(VfsError::ReadOnly(path.clone()));
        }

        self.fault_point(pid, path)?;
        let op = FsOp::Open { path, options };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Open, overhead);
        pre?;

        // A truncating open destroys the current content: shadow it.
        if exists && options.truncate && options.write {
            self.shadow_capture(pid, MutationKind::Write, mi, path);
        }

        // Apply.
        let created = !exists;
        let now = self.clock.now_nanos();
        if created {
            let m = &mut self.mounts[mi];
            let id = m.provider.alloc_ino();
            m.provider
                .insert_file(path, FileNode::new(id, Content::default(), 0, now));
            self.shadow_note_created(pid, id, path);
        }
        let truncated = exists && options.truncate && options.write;
        let (file_id, base_stamp, base_len) = {
            let m = &mut self.mounts[mi];
            let id = match m.provider.entry(path) {
                Some(ProviderEntry::File(id)) => id,
                _ => unreachable!("file exists by now"),
            };
            let node = m.provider.node_mut(id).expect("entry implies node");
            if truncated {
                node.data.clear();
                node.stamp = 0;
                node.modified_at_nanos = now;
            }
            // Dirty tracking bases on the post-truncation content: the
            // truncation itself is already visible through `truncated`.
            (node.id, node.stamp, node.data.len() as u64)
        };
        let opened_path = self.mounts[mi]
            .provider
            .path_of(file_id)
            .unwrap_or_else(|| Arc::new(path.clone()));
        let handle_id = self.next_handle_id;
        self.next_handle_id += 1;
        self.handles.insert(
            handle_id,
            OpenHandle {
                pid,
                mount: mi,
                file: file_id,
                cursor: 0,
                writable: options.write,
                // A truncating open has already modified the file.
                modified: truncated,
                opened_path,
                dirty: DirtyReport::new(base_stamp, base_len),
            },
        );
        *self.open_counts.entry((mi, file_id)).or_insert(0) += 1;

        let outcome = OpOutcome::Open {
            file: file_id,
            created,
            truncated,
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Open, overhead);
        Ok(Handle(handle_id))
    }

    /// Reads up to `len` bytes from the handle's cursor, advancing it.
    ///
    /// Returns fewer bytes (possibly zero) at end of file.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidHandle`] if the handle is closed or
    /// belongs to another process, plus the filter and suspension errors
    /// described on [`Vfs::open`]. A handle whose file has been unlinked
    /// keeps reading the node's bytes until it is closed (open-unlinked
    /// lifetime).
    pub fn read(&mut self, pid: ProcessId, handle: Handle, len: usize) -> VfsResult<Vec<u8>> {
        self.check_process(pid)?;
        let (mi, file_id, cursor) = self.handle_view(pid, handle)?;
        let path = self.handle_path(mi, file_id, handle);

        self.fault_point(pid, &path)?;
        let op = FsOp::Read {
            path: &path,
            offset: cursor,
            len,
        };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Read, overhead);
        pre?;

        let node = self.mounts[mi]
            .provider
            .node(file_id)
            .expect("open handle pins node");
        let start = (cursor as usize).min(node.data.len());
        let end = (start + len).min(node.data.len());
        let data = node.data[start..end].to_vec();
        if let Some(h) = self.handles.get_mut(&handle.0) {
            h.cursor = end as u64;
        }

        let outcome = OpOutcome::Read {
            file: file_id,
            data: &data,
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Read, overhead);
        Ok(data)
    }

    /// Reads from the cursor to the end of the file.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::read`].
    pub fn read_to_end(&mut self, pid: ProcessId, handle: Handle) -> VfsResult<Vec<u8>> {
        let (mi, file_id, cursor) = self.handle_view(pid, handle)?;
        let remaining = self.mounts[mi]
            .provider
            .node(file_id)
            .map_or(0, |n| n.data.len())
            .saturating_sub(cursor as usize);
        self.read(pid, handle, remaining)
    }

    /// Writes `data` at the handle's cursor, extending the file as needed,
    /// and advances the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotWritable`] if the handle was opened without
    /// write access, plus the errors described on [`Vfs::read`].
    pub fn write(&mut self, pid: ProcessId, handle: Handle, data: &[u8]) -> VfsResult<usize> {
        self.check_process(pid)?;
        let (mi, file_id, cursor) = self.handle_view(pid, handle)?;
        if !self.handles[&handle.0].writable {
            return Err(VfsError::NotWritable);
        }
        let path = self.handle_path(mi, file_id, handle);

        self.fault_point(pid, &path)?;
        let op = FsOp::Write {
            path: &path,
            offset: cursor,
            data,
        };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Write, overhead);
        pre?;

        self.shadow_capture_file(pid, MutationKind::Write, mi, file_id, &path);
        let now = self.clock.now_nanos();
        {
            let node = self.mounts[mi]
                .provider
                .node_mut(file_id)
                .expect("open handle pins node");
            let h = self.handles.get_mut(&handle.0).expect("validated");
            let start = cursor as usize;
            let old_len = node.data.len();
            let new_end = start + data.len();
            let final_len = old_len.max(new_end);
            let overlap = if start < old_len {
                (old_len - start).min(data.len())
            } else {
                0
            };
            // Narrow the write to the bytes it actually changes: the
            // changed sub-range of the overlap, plus any growth beyond the
            // old end (a seek-past-end gap is zero-filled growth). A write
            // that changes nothing — the common save-unchanged pattern —
            // leaves both the stamp and the dirty extents untouched.
            let old_slice = &node.data[start.min(old_len)..start.min(old_len) + overlap];
            // Slice equality compiles to memcmp, which runs an order of
            // magnitude faster than the byte-wise scan below — and the
            // save-unchanged pattern is the steady state, so it is worth
            // one extra pass in the rarer changed case.
            let first_diff = if old_slice == &data[..overlap] {
                None
            } else {
                old_slice.iter().zip(&data[..overlap]).position(|(a, b)| a != b)
            };
            if first_diff.is_some() || final_len > old_len {
                if node.stamp != h.dirty.last_stamp {
                    // Another handle mutated the file since our last look:
                    // extent-level tracking is no longer sound.
                    h.dirty.mark_full();
                }
                let mut delta = 0u64;
                if let Some(f) = first_diff {
                    let l = old_slice
                        .iter()
                        .zip(&data[..overlap])
                        .rposition(|(a, b)| a != b)
                        .expect("a first diff implies a last diff");
                    delta = delta.wrapping_add(stamp_overwrite_delta(
                        (start + f) as u64,
                        &old_slice[f..=l],
                        &data[f..=l],
                    ));
                    h.dirty
                        .note_write((start + f) as u64, (start + l + 1) as u64, &node.data);
                }
                if final_len > old_len {
                    if start > old_len {
                        delta =
                            delta.wrapping_add(stamp_zero_fill_delta(old_len as u64, start as u64));
                    }
                    delta = delta
                        .wrapping_add(stamp_append_delta((start + overlap) as u64, &data[overlap..]));
                    h.dirty.note_write(old_len as u64, final_len as u64, &node.data);
                }
                node.stamp = node.stamp.wrapping_add(delta);
                h.dirty.last_stamp = node.stamp;
            }
            if node.data.len() < start {
                node.data.resize(start, 0);
            }
            let overlap = (node.data.len() - start).min(data.len());
            node.data[start..start + overlap].copy_from_slice(&data[..overlap]);
            node.data.extend_from_slice(&data[overlap..]);
            node.modified_at_nanos = now;
            debug_assert_eq!(
                node.stamp,
                content_stamp(&node.data),
                "incremental stamp drifted from content"
            );
            h.cursor = cursor + data.len() as u64;
            h.modified = true;
        }

        let outcome = OpOutcome::Write {
            file: file_id,
            written: data.len(),
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Write, overhead);
        Ok(data.len())
    }

    /// Truncates (or zero-extends) the file to `len` bytes.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::write`].
    pub fn truncate(&mut self, pid: ProcessId, handle: Handle, len: u64) -> VfsResult<()> {
        self.check_process(pid)?;
        let (mi, file_id, _) = self.handle_view(pid, handle)?;
        if !self.handles[&handle.0].writable {
            return Err(VfsError::NotWritable);
        }
        let path = self.handle_path(mi, file_id, handle);

        self.fault_point(pid, &path)?;
        let op = FsOp::Truncate { path: &path, len };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Write, overhead);
        pre?;

        self.shadow_capture_file(pid, MutationKind::Truncate, mi, file_id, &path);
        let now = self.clock.now_nanos();
        {
            let node = self.mounts[mi]
                .provider
                .node_mut(file_id)
                .expect("open handle pins node");
            let h = self.handles.get_mut(&handle.0).expect("validated");
            let old_len = node.data.len();
            let new_len = len as usize;
            if new_len < old_len {
                node.stamp = node
                    .stamp
                    .wrapping_add(stamp_remove_delta(new_len as u64, &node.data[new_len..]));
            } else if new_len > old_len {
                node.stamp = node
                    .stamp
                    .wrapping_add(stamp_zero_fill_delta(old_len as u64, new_len as u64));
            }
            if new_len != old_len {
                // A resize invalidates extent coordinates (shrink) or is
                // rare enough not to matter (zero-extend): degrade.
                h.dirty.mark_full();
                h.dirty.last_stamp = node.stamp;
            }
            node.data.resize(new_len, 0);
            node.modified_at_nanos = now;
            debug_assert_eq!(
                node.stamp,
                content_stamp(&node.data),
                "incremental stamp drifted from content"
            );
            h.modified = true;
        }

        let outcome = OpOutcome::Truncate { file: file_id };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Write, overhead);
        Ok(())
    }

    /// Repositions the handle's cursor. Seeking past end of file is allowed;
    /// a later write will zero-fill the gap.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidHandle`] for closed/foreign handles.
    pub fn seek(&mut self, pid: ProcessId, handle: Handle, pos: u64) -> VfsResult<()> {
        self.check_process(pid)?;
        self.handle_view(pid, handle)?;
        self.handles.get_mut(&handle.0).expect("validated").cursor = pos;
        Ok(())
    }

    /// Closes a handle.
    ///
    /// Close always succeeds for a valid handle, even if the underlying
    /// file has been deleted or the process was suspended after opening it
    /// (a suspended process may release resources but not touch data).
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::InvalidHandle`] for closed/foreign handles.
    pub fn close(&mut self, pid: ProcessId, handle: Handle) -> VfsResult<()> {
        let (mi, file_id, modified) = match self.handles.get(&handle.0) {
            Some(h) if h.pid == pid => (h.mount, h.file, h.modified),
            _ => return Err(VfsError::InvalidHandle),
        };
        let path = self.handle_path(mi, file_id, handle);

        let op = FsOp::Close {
            path: &path,
            modified,
        };
        // Close is never denied: run pre for observability but ignore
        // deny/suspend verdicts from it.
        let mut overhead = 0u64;
        let _ = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Close, overhead);

        let h = self.handles.remove(&handle.0).expect("validated above");
        // The node is looked up by identity, so the stamp stays correct
        // even after renames, or for an unlinked node kept alive by this
        // very handle.
        let stamp = self.mounts[mi].provider.node(file_id).map_or(0, |n| n.stamp);

        let outcome = OpOutcome::Close {
            file: file_id,
            modified,
            stamp,
            dirty: h.writable.then_some(&h.dirty),
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Close, overhead);
        // Last close of an unlinked node reaps it.
        self.release_open(mi, file_id);
        Ok(())
    }

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// * [`VfsError::NotFound`] — no such file.
    /// * [`VfsError::IsADirectory`] — the path names a directory (use
    ///   [`Vfs::remove_dir`]).
    /// * [`VfsError::ReadOnly`] — the file's read-only attribute is set
    ///   (this is what defeats the weak Class C sample in paper §V-C).
    /// * Filter and suspension errors as on [`Vfs::open`].
    pub fn delete(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        let (mi, resolved) = self.resolve(path, false)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            None => return Err(VfsError::NotFound(path.clone())),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => {
                // Deleting a symlink removes the link itself: a cheap
                // metadata-class operation that never destroys file data,
                // so it bypasses the filter chain like directory ops do.
                self.check_mount_writable(mi, path)?;
                self.clock.charge(OpKind::Metadata);
                self.mounts[mi].provider.unlink(path);
                return Ok(());
            }
            Some(EntryKind::File) => {}
        }
        self.check_mount_writable(mi, path)?;
        if self.file_node_at(mi, path).expect("checked above").read_only {
            return Err(VfsError::ReadOnly(path.clone()));
        }

        self.fault_point(pid, path)?;
        let op = FsOp::Delete { path };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Delete, overhead);
        pre?;

        self.shadow_capture(pid, MutationKind::Delete, mi, path);
        let unlinked = self.mounts[mi].provider.unlink(path).expect("checked above");
        let file = unlinked.file.expect("file entry");
        let last_link = unlinked.links_remaining == 0;
        // Open-unlinked lifetime: the node survives while handles hold it;
        // otherwise reap it now.
        if last_link && !self.open_counts.contains_key(&(mi, file)) {
            self.mounts[mi].provider.remove_node(file);
        }

        let outcome = OpOutcome::Delete { file, last_link };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Delete, overhead);
        Ok(())
    }

    /// Renames or moves a file, optionally replacing an existing
    /// destination file.
    ///
    /// The file keeps its [`FileId`] across the move; open handles remain
    /// valid. Directories cannot be renamed (a simplification — the
    /// simulated workloads never need it).
    ///
    /// # Errors
    ///
    /// * [`VfsError::NotFound`] — source missing, or destination parent
    ///   missing.
    /// * [`VfsError::IsADirectory`] — source or existing destination is a
    ///   directory.
    /// * [`VfsError::AlreadyExists`] — destination exists and `overwrite`
    ///   is `false`.
    /// * [`VfsError::ReadOnly`] — source, or a destination that would be
    ///   replaced, is read-only.
    /// * [`VfsError::ReadOnlyFs`] — the mount is read-only.
    /// * [`VfsError::CrossMountRename`] — source and destination resolve
    ///   to different mounts (rename never moves data across providers).
    /// * [`VfsError::InvalidPath`] — source and destination are equal.
    /// * Filter and suspension errors as on [`Vfs::open`].
    pub fn rename(
        &mut self,
        pid: ProcessId,
        from: &VPath,
        to: &VPath,
        overwrite: bool,
    ) -> VfsResult<()> {
        self.check_process(pid)?;
        if from == to {
            return Err(VfsError::InvalidPath(to.clone()));
        }
        let (mi_from, rfrom) = self.resolve(from, false)?;
        let (mi_to, rto) = self.resolve(to, false)?;
        let from = rfrom.as_path();
        let to = rto.as_path();
        if from == to {
            return Err(VfsError::InvalidPath(to.clone()));
        }
        match self.node_kind(mi_from, from) {
            None => return Err(VfsError::NotFound(from.clone())),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(from.clone())),
            Some(EntryKind::Symlink) => {
                // Renaming a symlink moves the link itself, not its target:
                // a metadata-class operation bypassing the filter chain.
                if mi_from != mi_to {
                    return Err(VfsError::cross_mount_rename(from.clone(), to.clone()));
                }
                self.check_mount_writable(mi_from, from)?;
                if self.node_kind(mi_to, to).is_some() {
                    return Err(VfsError::already_exists(to.clone()));
                }
                let to_parent = to.parent().ok_or_else(|| VfsError::InvalidPath(to.clone()))?;
                if self.node_kind(mi_to, &to_parent) != Some(EntryKind::Directory) {
                    return Err(VfsError::NotFound(to_parent));
                }
                self.clock.charge(OpKind::Rename);
                self.mounts[mi_from].provider.rename_entry(from, to);
                return Ok(());
            }
            Some(EntryKind::File) => {}
        }
        if mi_from != mi_to {
            return Err(VfsError::cross_mount_rename(from.clone(), to.clone()));
        }
        let mi = mi_from;
        self.check_mount_writable(mi, from)?;
        if self.file_node_at(mi, from).expect("checked above").read_only {
            return Err(VfsError::ReadOnly(from.clone()));
        }
        let dest_kind = self.node_kind(mi, to);
        match dest_kind {
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(to.clone())),
            Some(EntryKind::File) if !overwrite => {
                return Err(VfsError::AlreadyExists(to.clone()))
            }
            Some(EntryKind::File)
                if self.file_node_at(mi, to).expect("checked above").read_only =>
            {
                return Err(VfsError::ReadOnly(to.clone()))
            }
            Some(EntryKind::Symlink) if !overwrite => {
                return Err(VfsError::AlreadyExists(to.clone()))
            }
            _ => {}
        }
        let to_parent = to.parent().ok_or_else(|| VfsError::InvalidPath(to.clone()))?;
        if self.node_kind(mi, &to_parent) != Some(EntryKind::Directory) {
            return Err(VfsError::NotFound(to_parent));
        }

        self.fault_point(pid, from)?;
        let op = FsOp::Rename {
            from,
            to,
            overwrite,
        };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Rename, overhead);
        pre?;

        // Remove a replaced destination (shadowing its final bytes first).
        // A replaced file with open handles stays alive as an orphan node
        // until its last handle closes, so the victim's dirty-extent report
        // and shadow copies remain coherent.
        let (replaced, replaced_last_link) = match dest_kind {
            Some(EntryKind::File) => {
                self.shadow_capture(pid, MutationKind::RenameOverwrite, mi, to);
                let unlinked = self.mounts[mi].provider.unlink(to).expect("checked above");
                let victim = unlinked.file.expect("file entry");
                let last_link = unlinked.links_remaining == 0;
                if last_link && !self.open_counts.contains_key(&(mi, victim)) {
                    self.mounts[mi].provider.remove_node(victim);
                }
                (Some(victim), last_link)
            }
            Some(EntryKind::Symlink) => {
                self.mounts[mi].provider.unlink(to);
                (None, false)
            }
            _ => (None, false),
        };

        let file_id = self.file_at(mi, from).expect("checked above");
        self.mounts[mi].provider.rename_entry(from, to);
        self.shadow_note_rename(pid, file_id, from, to);

        let outcome = OpOutcome::Rename {
            file: file_id,
            replaced,
            replaced_last_link,
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Rename, overhead);
        Ok(())
    }

    /// Lists a directory's entries, sorted by name.
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] / [`VfsError::NotADirectory`] for
    /// missing or non-directory paths, plus filter and suspension errors.
    pub fn list_dir(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<Vec<DirEntry>> {
        self.check_process(pid)?;
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            Some(EntryKind::Directory) => {}
            Some(_) => return Err(VfsError::NotADirectory(path.clone())),
            None => return Err(VfsError::NotFound(path.clone())),
        }

        self.fault_point(pid, path)?;
        let op = FsOp::ReadDir { path };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::ReadDir, overhead);
        pre?;

        let entries = self.mounts[mi]
            .provider
            .read_dir(path)
            .expect("checked above");

        let outcome = OpOutcome::ReadDir {
            entries: entries.len(),
        };
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::ReadDir, overhead);
        Ok(entries)
    }

    /// Queries a file or directory's metadata (unfiltered, like a cheap
    /// attribute query that minifilter-based products typically pass
    /// through).
    ///
    /// # Errors
    ///
    /// Returns [`VfsError::NotFound`] for missing paths and suspension
    /// errors for suspended processes.
    pub fn metadata(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<Metadata> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        self.metadata_impl(path)
    }

    /// Sets or clears a file's read-only attribute.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for missing or
    /// directory paths, plus filter and suspension errors.
    pub fn set_read_only(
        &mut self,
        pid: ProcessId,
        path: &VPath,
        read_only: bool,
    ) -> VfsResult<()> {
        self.check_process(pid)?;
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            None => return Err(VfsError::NotFound(path.clone())),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => return Err(VfsError::symlink_loop(path.clone())),
            Some(EntryKind::File) => {}
        }
        self.check_mount_writable(mi, path)?;

        self.fault_point(pid, path)?;
        let op = FsOp::SetAttr { path, read_only };
        let mut overhead = 0u64;
        let pre = self.run_pre(pid, &op, &mut overhead);
        self.finish_op(OpKind::Metadata, overhead);
        pre?;

        let file = self.file_at(mi, path).expect("checked above");
        self.mounts[mi]
            .provider
            .node_mut(file)
            .expect("checked above")
            .read_only = read_only;

        let outcome = OpOutcome::SetAttr;
        let mut overhead = 0u64;
        self.run_post(pid, &op, &outcome, &mut overhead);
        self.ledger_add(OpKind::Metadata, overhead);
        Ok(())
    }

    /// Creates a single directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::AlreadyExists`] if the path exists,
    /// [`VfsError::NotFound`] if the parent is missing, plus suspension
    /// errors. Directory creation is not filtered (CryptoDrop only watches
    /// file data).
    pub fn create_dir(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        let mi = self.mount_index(path);
        self.check_mount_writable(mi, path)?;
        self.create_dir_impl(path)
    }

    /// Creates a directory and any missing ancestors.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a file blocks the chain, plus
    /// suspension errors.
    pub fn create_dir_all(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        let mi = self.mount_index(path);
        self.check_mount_writable(mi, path)?;
        self.create_dir_all_impl(path)
    }

    /// Removes an empty directory.
    ///
    /// # Errors
    ///
    /// [`VfsError::DirectoryNotEmpty`] if it has children,
    /// [`VfsError::NotFound`] / [`VfsError::NotADirectory`] for missing or
    /// file paths, [`VfsError::InvalidPath`] for the root, plus suspension
    /// errors.
    pub fn remove_dir(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        if path.is_root() {
            return Err(VfsError::InvalidPath(path.clone()));
        }
        let (mi, resolved) = self.resolve(path, false)?;
        let path = resolved.as_path();
        if mi != 0 && *path == self.mounts[mi].root {
            // A mount root is a routing anchor, not a removable directory.
            return Err(VfsError::InvalidPath(path.clone()));
        }
        match self.mounts[mi].provider.read_dir(path) {
            None => {
                return match self.node_kind(mi, path) {
                    Some(EntryKind::Directory) | None => Err(VfsError::NotFound(path.clone())),
                    Some(_) => Err(VfsError::NotADirectory(path.clone())),
                }
            }
            Some(children) if !children.is_empty() => {
                return Err(VfsError::DirectoryNotEmpty(path.clone()))
            }
            Some(_) => {}
        }
        self.check_mount_writable(mi, path)?;
        self.mounts[mi].provider.remove_dir(path);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Links
    // ------------------------------------------------------------------

    /// Creates a hard link: a second directory entry (`new`) referring to
    /// the same file node as `existing`. Both names observe the same bytes,
    /// metadata and [`FileId`]; the node survives until its last link is
    /// unlinked *and* its last open handle closes.
    ///
    /// Hard links never cross mounts, and only regular files can be
    /// hard-linked. Link creation is a metadata-class operation and is not
    /// filtered (no file data is at risk).
    ///
    /// # Errors
    ///
    /// * [`VfsError::NotFound`] — `existing` missing, or `new`'s parent
    ///   directory missing.
    /// * [`VfsError::IsADirectory`] — `existing` is a directory.
    /// * [`VfsError::SymlinkLoop`] — `existing` is a symlink that cannot be
    ///   followed to a file.
    /// * [`VfsError::AlreadyExists`] — `new` already exists.
    /// * [`VfsError::CrossMountRename`] — the two paths resolve to
    ///   different mounts.
    /// * [`VfsError::ReadOnlyFs`] — the mount is read-only.
    pub fn link(&mut self, pid: ProcessId, existing: &VPath, new: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        let (mi_from, rfrom) = self.resolve(existing, true)?;
        let (mi_to, rto) = self.resolve(new, false)?;
        let existing = rfrom.as_path();
        let new = rto.as_path();
        let file = match self.node_kind(mi_from, existing) {
            Some(EntryKind::File) => self.file_at(mi_from, existing).expect("checked above"),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(existing.clone())),
            Some(EntryKind::Symlink) => return Err(VfsError::symlink_loop(existing.clone())),
            None => return Err(VfsError::not_found(existing.clone())),
        };
        if mi_from != mi_to {
            return Err(VfsError::cross_mount_rename(existing.clone(), new.clone()));
        }
        self.check_mount_writable(mi_to, new)?;
        if self.node_kind(mi_to, new).is_some() {
            return Err(VfsError::already_exists(new.clone()));
        }
        let parent = new.parent().ok_or_else(|| VfsError::InvalidPath(new.clone()))?;
        if self.node_kind(mi_to, &parent) != Some(EntryKind::Directory) {
            return Err(VfsError::not_found(parent));
        }
        self.mounts[mi_to].provider.link(file, new);
        Ok(())
    }

    /// Creates a symbolic link at `at` pointing to `target`.
    ///
    /// The target is stored verbatim and need not exist; it is resolved
    /// lazily on each traversal (up to the mount's
    /// [`max_link_depth`](MountOptions::max_link_depth) hops, after which
    /// resolution fails with [`VfsError::SymlinkLoop`]). Symlink creation
    /// is a metadata-class operation and is not filtered.
    ///
    /// # Errors
    ///
    /// * [`VfsError::AlreadyExists`] — `at` already exists.
    /// * [`VfsError::NotFound`] — `at`'s parent directory missing.
    /// * [`VfsError::ReadOnlyFs`] — the mount is read-only.
    pub fn symlink(&mut self, pid: ProcessId, target: &VPath, at: &VPath) -> VfsResult<()> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        let (mi, resolved) = self.resolve(at, false)?;
        let at = resolved.as_path();
        self.check_mount_writable(mi, at)?;
        if self.node_kind(mi, at).is_some() {
            return Err(VfsError::already_exists(at.clone()));
        }
        let parent = at.parent().ok_or_else(|| VfsError::InvalidPath(at.clone()))?;
        if self.node_kind(mi, &parent) != Some(EntryKind::Directory) {
            return Err(VfsError::not_found(parent));
        }
        self.mounts[mi].provider.symlink(at, target.clone());
        Ok(())
    }

    /// Reads a symlink's target without following it.
    ///
    /// # Errors
    ///
    /// * [`VfsError::NotFound`] — `path` does not exist.
    /// * [`VfsError::InvalidPath`] — `path` exists but is not a symlink.
    pub fn read_link(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<VPath> {
        self.check_process(pid)?;
        self.clock.charge(OpKind::Metadata);
        let (mi, resolved) = self.resolve(path, false)?;
        let path = resolved.as_path();
        match self.mounts[mi].provider.entry(path) {
            Some(ProviderEntry::Symlink(target)) => Ok(target.clone()),
            Some(_) => Err(VfsError::InvalidPath(path.clone())),
            None => Err(VfsError::not_found(path.clone())),
        }
    }

    // ------------------------------------------------------------------
    // Convenience composites
    // ------------------------------------------------------------------

    /// Reads an entire file through the normal open/read/close sequence,
    /// generating the same operation stream a real application would.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::open`] and [`Vfs::read`].
    pub fn read_file(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<Vec<u8>> {
        let h = self.open(pid, path, OpenOptions::read())?;
        let result = self.read_to_end(pid, h);
        // Close even if the read failed mid-way.
        let _ = self.close(pid, h);
        result
    }

    /// Writes an entire file (create-or-truncate) through the normal
    /// open/write/close sequence.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::open`] and [`Vfs::write`].
    pub fn write_file(&mut self, pid: ProcessId, path: &VPath, data: &[u8]) -> VfsResult<()> {
        let h = self.open(pid, path, OpenOptions::create())?;
        let result = self.write(pid, h, data).map(|_| ());
        let close = self.close(pid, h);
        result.and(close)
    }

    // ------------------------------------------------------------------
    // Administrative (unfiltered, unattributed) access
    // ------------------------------------------------------------------

    /// Opens the administrative view: unfiltered, unattributed access to
    /// the filesystem for staging, verification and recovery tooling.
    /// This is the mutation-capable sibling of the filter-facing
    /// [`FsView`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cryptodrop_vfs::{Vfs, VPath};
    ///
    /// let mut fs = Vfs::new();
    /// let mut admin = fs.admin();
    /// admin.write_file(&VPath::new("/docs/a.txt"), b"staged").unwrap();
    /// assert_eq!(admin.read_file(&VPath::new("/docs/a.txt")).unwrap(), b"staged");
    /// assert_eq!(admin.file_count(), 1);
    /// ```
    pub fn admin(&mut self) -> AdminView<'_> {
        AdminView { vfs: self }
    }

    pub(crate) fn read_file_impl(&self, path: &VPath) -> VfsResult<Vec<u8>> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            Some(EntryKind::File) => {
                let file = self.file_at(mi, path).expect("checked above");
                Ok(self.mounts[mi].provider.node(file).expect("linked").data.to_vec())
            }
            Some(EntryKind::Directory) => Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => Err(VfsError::symlink_loop(path.clone())),
            None => Err(VfsError::NotFound(path.clone())),
        }
    }

    fn write_file_impl(&mut self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        if self.node_kind(mi, path) == Some(EntryKind::Directory) {
            return Err(VfsError::IsADirectory(path.clone()));
        }
        let parent = path.parent().ok_or_else(|| VfsError::InvalidPath(path.clone()))?;
        self.create_dir_all_impl(&parent)?;
        let now = self.clock.now_nanos();
        let stamp = content_stamp(data);
        match self.file_at(mi, path) {
            Some(file) => {
                let node = self.mounts[mi].provider.node_mut(file).expect("linked");
                node.data = data.to_vec().into();
                node.stamp = stamp;
                node.modified_at_nanos = now;
            }
            None => {
                // An unresolvable (dangling / nofollow) symlink at the path
                // is replaced by a fresh regular file, like `O_CREAT` after
                // unlinking.
                if self.node_kind(mi, path) == Some(EntryKind::Symlink) {
                    self.mounts[mi].provider.unlink(path);
                }
                let m = &mut self.mounts[mi];
                let id = m.provider.alloc_ino();
                m.provider
                    .insert_file(path, FileNode::new(id, data.to_vec().into(), stamp, now));
            }
        }
        Ok(())
    }

    /// [`AdminView::stage_shared`]'s implementation: create-or-replace a
    /// file whose content *aliases* a shared buffer. O(1) in the content
    /// size — no byte copy, no stamp recomputation.
    fn stage_shared_impl(&mut self, path: &VPath, content: &SharedContent) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        if self.node_kind(mi, path) == Some(EntryKind::Directory) {
            return Err(VfsError::IsADirectory(path.clone()));
        }
        let parent = path.parent().ok_or_else(|| VfsError::InvalidPath(path.clone()))?;
        self.create_dir_all_impl(&parent)?;
        let now = self.clock.now_nanos();
        match self.file_at(mi, path) {
            Some(file) => {
                let node = self.mounts[mi].provider.node_mut(file).expect("linked");
                node.data = Content::staged(content);
                node.stamp = content.stamp();
                node.modified_at_nanos = now;
            }
            None => {
                if self.node_kind(mi, path) == Some(EntryKind::Symlink) {
                    self.mounts[mi].provider.unlink(path);
                }
                let m = &mut self.mounts[mi];
                let id = m.provider.alloc_ino();
                m.provider.insert_file(
                    path,
                    FileNode::new(id, Content::staged(content), content.stamp(), now),
                );
            }
        }
        Ok(())
    }

    fn delete_file_impl(&mut self, path: &VPath) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, false)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            None => return Err(VfsError::NotFound(path.clone())),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => {
                self.mounts[mi].provider.unlink(path);
                return Ok(());
            }
            Some(EntryKind::File) => {}
        }
        let unlinked = self.mounts[mi].provider.unlink(path).expect("checked above");
        let file = unlinked.file.expect("file entry");
        if unlinked.links_remaining == 0 && !self.open_counts.contains_key(&(mi, file)) {
            self.mounts[mi].provider.remove_node(file);
        }
        Ok(())
    }

    fn create_dir_impl(&mut self, path: &VPath) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, false)?;
        let path = resolved.as_path();
        if self.node_kind(mi, path).is_some() {
            return Err(VfsError::AlreadyExists(path.clone()));
        }
        let parent = path.parent().ok_or_else(|| VfsError::InvalidPath(path.clone()))?;
        match self.node_kind(mi, &parent) {
            Some(EntryKind::Directory) => {}
            Some(_) => return Err(VfsError::NotADirectory(parent)),
            None => return Err(VfsError::NotFound(parent)),
        }
        self.mounts[mi].provider.create_dir(path);
        Ok(())
    }

    fn create_dir_all_impl(&mut self, path: &VPath) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            Some(EntryKind::Directory) => return Ok(()),
            Some(_) => return Err(VfsError::NotADirectory(path.clone())),
            None => {}
        }
        if let Some(parent) = path.parent() {
            self.create_dir_all_impl(&parent)?;
        }
        self.create_dir_impl(path)
    }

    fn set_read_only_impl(&mut self, path: &VPath, read_only: bool) -> VfsResult<()> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            Some(EntryKind::File) => {
                let file = self.file_at(mi, path).expect("checked");
                self.mounts[mi]
                    .provider
                    .node_mut(file)
                    .expect("linked")
                    .read_only = read_only;
                Ok(())
            }
            Some(EntryKind::Directory) => Err(VfsError::IsADirectory(path.clone())),
            Some(EntryKind::Symlink) => Err(VfsError::symlink_loop(path.clone())),
            None => Err(VfsError::NotFound(path.clone())),
        }
    }

    pub(crate) fn metadata_impl(&self, path: &VPath) -> VfsResult<Metadata> {
        let (mi, resolved) = self.resolve(path, true)?;
        let path = resolved.as_path();
        match self.node_kind(mi, path) {
            Some(EntryKind::File) => {
                let file = self.file_at(mi, path).expect("checked");
                let node = self.mounts[mi].provider.node(file).expect("linked");
                Ok(Metadata {
                    kind: EntryKind::File,
                    len: node.data.len() as u64,
                    read_only: node.read_only,
                    file: Some(node.id),
                    created_at_nanos: node.created_at_nanos,
                    modified_at_nanos: node.modified_at_nanos,
                    nlink: node.nlink,
                })
            }
            Some(EntryKind::Directory) => Ok(Metadata {
                kind: EntryKind::Directory,
                len: 0,
                read_only: false,
                file: None,
                created_at_nanos: 0,
                modified_at_nanos: 0,
                nlink: 1,
            }),
            Some(EntryKind::Symlink) => Ok(Metadata {
                kind: EntryKind::Symlink,
                len: 0,
                read_only: false,
                file: None,
                created_at_nanos: 0,
                modified_at_nanos: 0,
                nlink: 1,
            }),
            None => Err(VfsError::NotFound(path.clone())),
        }
    }

    fn files_impl(&self) -> impl Iterator<Item = (&VPath, &[u8])> {
        let mut out: Vec<(&VPath, &[u8])> = Vec::new();
        for m in &self.mounts {
            m.provider
                .visit_files(&mut |p, n| out.push((p, n.data.as_slice())));
        }
        out.into_iter()
    }

    fn dirs_impl(&self) -> impl Iterator<Item = &VPath> {
        // Each provider also holds its mount root's ancestor chain (created
        // by `prepare_mount`), so dedupe across mounts. Sorting keeps the
        // order deterministic across calls.
        let mut out: Vec<&VPath> = Vec::new();
        for m in &self.mounts {
            m.provider.visit_dirs(&mut |p| out.push(p));
        }
        out.sort_unstable();
        out.dedup();
        out.into_iter()
    }

    /// Moves a file without filter interposition, keeping its [`FileId`]
    /// and creating destination parents as needed. Recovery uses this to
    /// undo a suspect's renames.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`] for the source,
    /// [`VfsError::AlreadyExists`] if the destination is occupied (by a
    /// file or a directory), [`VfsError::NotADirectory`] if a file blocks
    /// the destination's parent chain.
    fn rename_impl(&mut self, from: &VPath, to: &VPath) -> VfsResult<()> {
        let (mi_from, rfrom) = self.resolve(from, false)?;
        let (mi_to, rto) = self.resolve(to, false)?;
        let from = rfrom.as_path();
        let to = rto.as_path();
        match self.node_kind(mi_from, from) {
            None => return Err(VfsError::NotFound(from.clone())),
            Some(EntryKind::Directory) => return Err(VfsError::IsADirectory(from.clone())),
            Some(EntryKind::File | EntryKind::Symlink) => {}
        }
        if mi_from != mi_to {
            return Err(VfsError::cross_mount_rename(from.clone(), to.clone()));
        }
        if self.node_kind(mi_to, to).is_some() {
            return Err(VfsError::AlreadyExists(to.clone()));
        }
        let to_parent = to.parent().ok_or_else(|| VfsError::InvalidPath(to.clone()))?;
        self.create_dir_all_impl(&to_parent)?;
        self.mounts[mi_from].provider.rename_entry(from, to);
        Ok(())
    }

    /// The number of file names in the filesystem (each hard link counts
    /// once; unlinked-but-open nodes count zero).
    pub fn file_count(&self) -> usize {
        self.mounts.iter().map(|m| m.provider.file_count()).sum()
    }

    /// The number of directories, including the root.
    pub fn dir_count(&self) -> usize {
        if self.mounts.len() == 1 {
            return self.mounts[0].provider.dir_count();
        }
        // Each provider holds its mount root's ancestor chain, so the same
        // directory path may appear in several providers.
        let mut seen: std::collections::HashSet<&VPath> = std::collections::HashSet::new();
        for m in &self.mounts {
            m.provider.visit_dirs(&mut |p| {
                seen.insert(p);
            });
        }
        seen.len()
    }

    /// Sums `data.len()` over every distinct file node matching `pred`.
    /// Multiply-linked nodes are counted once.
    fn sum_bytes(&self, pred: impl Fn(&FileNode) -> bool) -> u64 {
        let mut total = 0u64;
        let mut seen: Option<std::collections::HashSet<FileId>> = None;
        for m in &self.mounts {
            m.provider.visit_files(&mut |_, n| {
                if n.nlink > 1 {
                    // Lazily allocate the dedupe set: single-link nodes (the
                    // overwhelmingly common case) never pay for it.
                    let seen = seen.get_or_insert_with(Default::default);
                    if !seen.insert(n.id) {
                        return;
                    }
                }
                if pred(n) {
                    total += n.data.len() as u64;
                }
            });
        }
        total
    }

    /// The total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        self.sum_bytes(|_| true)
    }

    /// Bytes held in buffers owned exclusively by this filesystem — the
    /// copy-on-write resident cost of a namespace mounted over a shared
    /// corpus (staged files still aliasing the corpus are excluded; see
    /// [`shared_bytes`](Self::shared_bytes)).
    pub fn private_bytes(&self) -> u64 {
        self.sum_bytes(|n| !n.data.is_shared())
    }

    /// Bytes this filesystem reads through buffers aliased elsewhere (a
    /// shared corpus or another namespace). `private_bytes + shared_bytes
    /// == total_bytes`, but only the private portion is attributable to
    /// this namespace.
    pub fn shared_bytes(&self) -> u64 {
        self.sum_bytes(|n| n.data.is_shared())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_process(&self, pid: ProcessId) -> VfsResult<()> {
        if self.processes.get(pid).is_none() {
            return Err(VfsError::UnknownProcess(pid));
        }
        if self.processes.is_suspended(pid) {
            return Err(VfsError::ProcessSuspended(pid));
        }
        Ok(())
    }

    /// The mount whose root is the deepest prefix of `path`. Single-mount
    /// filesystems (the common case) short-circuit to the root mount.
    fn mount_index(&self, path: &VPath) -> usize {
        if self.mounts.len() == 1 {
            return 0;
        }
        let mut best = 0usize;
        let mut best_depth = 0usize;
        for (i, m) in self.mounts.iter().enumerate().skip(1) {
            if m.depth > best_depth && path.starts_with(&m.root) {
                best = i;
                best_depth = m.depth;
            }
        }
        best
    }

    /// Routes `path` to its mount and resolves symlinks in every non-final
    /// component (and in the final component too when `follow_final`).
    ///
    /// The fast path — no symlinks in the mount, or following disabled —
    /// borrows the input path and allocates nothing. Resolution restarts
    /// from the mount root after each hop (a target may cross into another
    /// mount) and fails with [`VfsError::SymlinkLoop`] after the mount's
    /// `max_link_depth` hops.
    fn resolve<'p>(
        &self,
        path: &'p VPath,
        follow_final: bool,
    ) -> VfsResult<(usize, ResolvedPath<'p>)> {
        let mi = self.mount_index(path);
        let m = &self.mounts[mi];
        if !m.options.follow_symlinks || !m.provider.has_symlinks() {
            return Ok((mi, ResolvedPath::Borrowed(path)));
        }
        let mut current = path.clone();
        let mut mi = mi;
        let mut hops = 0u32;
        'outer: loop {
            let m = &self.mounts[mi];
            if !m.options.follow_symlinks || !m.provider.has_symlinks() {
                break;
            }
            let s = current.as_str();
            let root_len = if m.root.is_root() { 0 } else { m.root.as_str().len() };
            let mut idx = root_len;
            if idx >= s.len() {
                break;
            }
            loop {
                let rest = &s[idx + 1..];
                let end = match rest.find('/') {
                    Some(off) => idx + 1 + off,
                    None => s.len(),
                };
                let is_final = end == s.len();
                if is_final && !follow_final {
                    break 'outer;
                }
                let prefix = VPath::new(&s[..end]);
                if let Some(ProviderEntry::Symlink(target)) = m.provider.entry(&prefix) {
                    hops += 1;
                    if hops > m.options.max_link_depth {
                        return Err(VfsError::symlink_loop(path.clone()));
                    }
                    let suffix = &s[end..];
                    current = if suffix.is_empty() {
                        target.clone()
                    } else {
                        target.join(&suffix[1..])
                    };
                    mi = self.mount_index(&current);
                    continue 'outer;
                }
                if is_final {
                    break 'outer;
                }
                idx = end;
            }
        }
        Ok((mi, ResolvedPath::Owned(current)))
    }

    /// The entry kind at an already-resolved path within mount `mi`.
    fn node_kind(&self, mi: usize, path: &VPath) -> Option<EntryKind> {
        match self.mounts[mi].provider.entry(path)? {
            ProviderEntry::File(_) => Some(EntryKind::File),
            ProviderEntry::Directory => Some(EntryKind::Directory),
            ProviderEntry::Symlink(_) => Some(EntryKind::Symlink),
        }
    }

    /// The file id linked at an already-resolved path, if it names a file.
    fn file_at(&self, mi: usize, path: &VPath) -> Option<FileId> {
        match self.mounts[mi].provider.entry(path)? {
            ProviderEntry::File(id) => Some(id),
            _ => None,
        }
    }

    /// The file node linked at an already-resolved path, if it names a file.
    fn file_node_at(&self, mi: usize, path: &VPath) -> Option<&FileNode> {
        let id = self.file_at(mi, path)?;
        self.mounts[mi].provider.node(id)
    }

    /// Rejects destructive operations on read-only mounts. Sits in each
    /// operation's structural validation, before `fault_point`/`run_pre`,
    /// so filters and the journal never observe the rejected operation.
    fn check_mount_writable(&self, mi: usize, path: &VPath) -> VfsResult<()> {
        if self.mounts[mi].options.read_only {
            return Err(VfsError::read_only_fs(path.clone()));
        }
        Ok(())
    }

    /// Validates a handle and returns its `(mount, file, cursor)` triple.
    fn handle_view(&self, pid: ProcessId, handle: Handle) -> VfsResult<(usize, FileId, u64)> {
        match self.handles.get(&handle.0) {
            Some(h) if h.pid == pid => Ok((h.mount, h.file, h.cursor)),
            _ => Err(VfsError::InvalidHandle),
        }
    }

    /// The current canonical path of an open handle's node — follows
    /// renames while the node stays linked, and falls back to the path the
    /// handle was opened at once the node is unlinked.
    fn handle_path(&self, mi: usize, file: FileId, handle: Handle) -> Arc<VPath> {
        self.mounts[mi]
            .provider
            .path_of(file)
            .unwrap_or_else(|| self.handles[&handle.0].opened_path.clone())
    }

    /// Drops one open reference to `(mi, file)`; the last close of an
    /// unlinked node reaps it.
    fn release_open(&mut self, mi: usize, file: FileId) {
        if let Some(count) = self.open_counts.get_mut(&(mi, file)) {
            *count -= 1;
            if *count == 0 {
                self.open_counts.remove(&(mi, file));
                if self.mounts[mi].provider.node(file).is_some_and(|n| n.nlink == 0) {
                    self.mounts[mi].provider.remove_node(file);
                }
            }
        }
    }

    pub(crate) fn file_bytes_impl(&self, path: &VPath) -> Option<&[u8]> {
        let (mi, resolved) = self.resolve(path, true).ok()?;
        let node = self.file_node_at(mi, resolved.as_path())?;
        Some(node.data.as_slice())
    }

    pub(crate) fn file_memo_impl(&self, path: &VPath) -> Option<&MemoSlot> {
        let (mi, resolved) = self.resolve(path, true).ok()?;
        self.file_node_at(mi, resolved.as_path())?.data.memo()
    }

    pub(crate) fn file_stamp_impl(&self, path: &VPath) -> Option<u64> {
        let (mi, resolved) = self.resolve(path, true).ok()?;
        self.file_node_at(mi, resolved.as_path()).map(|n| n.stamp)
    }

    pub(crate) fn file_id_impl(&self, path: &VPath) -> Option<FileId> {
        let (mi, resolved) = self.resolve(path, true).ok()?;
        self.file_at(mi, resolved.as_path())
    }

    /// One fault-injection decision for a filtered operation: may spike
    /// the simulated clock and may abort the operation with an injected
    /// [`VfsError::Io`]. Call sites sit after the process check and the
    /// operation's structural validation, *before* `run_pre` — an injected
    /// error models a transient device failure below the filter stack, so
    /// filters never observe the aborted operation.
    fn fault_point(&mut self, pid: ProcessId, path: &VPath) -> VfsResult<()> {
        let Some(injector) = self.faults.clone() else {
            return Ok(());
        };
        if let Some(spike) = injector.latency_spike(self.clock.now_nanos(), pid) {
            self.clock.advance(spike);
        }
        match injector.io_error(self.clock.now_nanos(), pid, path) {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Hands the shadow sink the named file's current bytes. Call sites
    /// sit between a successful `run_pre` and the mutation itself, so the
    /// sink sees exactly the pre-images of mutations that really happen.
    ///
    /// A capture the fault injector fails is reported to the sink through
    /// [`ShadowSink::capture_failed`] instead — the mutation still
    /// proceeds, and the sink degrades that one file's recovery rather
    /// than blocking the filesystem.
    fn shadow_capture(&self, pid: ProcessId, kind: MutationKind, mi: usize, path: &VPath) {
        let Some(file) = self.file_at(mi, path) else { return };
        self.shadow_capture_file(pid, kind, mi, file, path);
    }

    /// Identity-keyed shadow capture: used by handle-based mutations, where
    /// the handle may reference an unlinked (orphaned) node whose path now
    /// names a different file.
    fn shadow_capture_file(
        &self,
        pid: ProcessId,
        kind: MutationKind,
        mi: usize,
        file: FileId,
        path: &VPath,
    ) {
        let Some(sink) = &self.shadow else { return };
        let Some(node) = self.mounts[mi].provider.node(file) else { return };
        let family_root = self.processes.root_of(pid);
        if let Some(injector) = &self.faults {
            if injector.capture_failure(self.clock.now_nanos(), pid, path) {
                sink.capture_failed(pid, family_root, node.id, path);
                return;
            }
        }
        sink.capture(&PreImage {
            pid,
            family_root,
            at_nanos: self.clock.now_nanos(),
            kind,
            path,
            file: node.id,
            data: &node.data,
            read_only: node.read_only,
        });
    }

    fn shadow_note_created(&self, pid: ProcessId, file: FileId, path: &VPath) {
        if let Some(sink) = &self.shadow {
            sink.note_created(pid, self.processes.root_of(pid), file, path);
        }
    }

    fn shadow_note_rename(&self, pid: ProcessId, file: FileId, from: &VPath, to: &VPath) {
        if let Some(sink) = &self.shadow {
            sink.note_rename(pid, self.processes.root_of(pid), file, from, to);
        }
    }

    fn finish_op(&mut self, kind: OpKind, pre_overhead: u64) {
        self.clock.charge(kind);
        if self.clock_policy == ClockPolicy::Measured {
            self.clock.advance(pre_overhead);
        }
    }

    fn ledger_add(&mut self, kind: OpKind, post_overhead: u64) {
        if self.clock_policy == ClockPolicy::Measured {
            self.clock.advance(post_overhead);
        }
        self.ledger.record(kind, post_overhead);
    }

    fn run_pre(&mut self, pid: ProcessId, op: &FsOp<'_>, overhead: &mut u64) -> VfsResult<()> {
        if self.filters.is_empty() {
            return Ok(());
        }
        let mut name = std::mem::take(&mut self.name_scratch);
        name.clear();
        if let Some(r) = self.processes.get(pid) {
            name.push_str(r.name());
        }
        let ctx = OpContext {
            pid,
            family_root: self.processes.root_of(pid),
            process_name: &name,
            op: *op,
            at_nanos: self.clock.now_nanos(),
        };
        let mut filters = std::mem::take(&mut self.filters);
        let started = Instant::now();
        let mut result = Ok(());
        for f in filters.iter_mut() {
            let verdict = f.pre_op(&ctx, &FsView::new(self));
            self.telemetry.journal_event(ctx.at_nanos, pid.0, || {
                JournalKind::FilterPre {
                    filter: f.name().to_string(),
                    op: op.name().to_string(),
                    verdict: verdict_label(&verdict).to_string(),
                }
            });
            match verdict {
                Verdict::Allow => {}
                Verdict::Deny => {
                    result = Err(VfsError::AccessDenied {
                        path: op.path().clone(),
                        filter: f.name().to_string(),
                    });
                    break;
                }
                Verdict::Suspend { reason } => {
                    let by = f.name().to_string();
                    self.apply_suspension(pid, by, reason);
                    result = Err(VfsError::ProcessSuspended(pid));
                    break;
                }
                // Throttle = allow, after stretching the suspect's clock.
                Verdict::Throttle { nanos } => self.clock.advance(nanos),
            }
        }
        *overhead += started.elapsed().as_nanos() as u64;
        self.filters = filters;
        self.name_scratch = name;
        result
    }

    fn run_post(
        &mut self,
        pid: ProcessId,
        op: &FsOp<'_>,
        outcome: &OpOutcome<'_>,
        overhead: &mut u64,
    ) {
        if self.filters.is_empty() {
            return;
        }
        let mut name = std::mem::take(&mut self.name_scratch);
        name.clear();
        if let Some(r) = self.processes.get(pid) {
            name.push_str(r.name());
        }
        let ctx = OpContext {
            pid,
            family_root: self.processes.root_of(pid),
            process_name: &name,
            op: *op,
            at_nanos: self.clock.now_nanos(),
        };
        self.telemetry.journal_event(ctx.at_nanos, pid.0, || JournalKind::Op {
            op: op.name().to_string(),
            path: op.path().as_str().to_string(),
            ino: outcome.file_id().map_or(0, |f| f.0),
        });
        let mut filters = std::mem::take(&mut self.filters);
        let started = Instant::now();
        // Every filter observes every completed operation — a Suspend from
        // one must not hide the op from the rest, or per-filter state (and
        // therefore verdicts) would depend on registration order,
        // contradicting the stack's ordering-invariance contract (see
        // `filter` module docs). All suspending filters are journaled; the
        // *first* one wins the suspension record.
        let mut suspend: Option<(String, String)> = None;
        for f in filters.iter_mut() {
            let verdict = f.post_op(&ctx, outcome, &FsView::new(self));
            self.telemetry.journal_event(ctx.at_nanos, pid.0, || {
                JournalKind::FilterPost {
                    filter: f.name().to_string(),
                    op: op.name().to_string(),
                    verdict: verdict_label(&verdict).to_string(),
                }
            });
            match verdict {
                Verdict::Suspend { reason } if suspend.is_none() => {
                    suspend = Some((f.name().to_string(), reason));
                }
                Verdict::Throttle { nanos } => self.clock.advance(nanos),
                _ => {}
            }
        }
        *overhead += started.elapsed().as_nanos() as u64;
        self.filters = filters;
        self.name_scratch = name;
        if let Some((by, reason)) = suspend {
            self.apply_suspension(pid, by, reason);
        }
    }

    fn apply_suspension(&mut self, pid: ProcessId, by: String, reason: String) {
        if self.processes.get(pid).is_some_and(|r| r.is_suspended()) {
            return; // already suspended: keep the original record
        }
        let at_nanos = self.clock.now_nanos();
        self.telemetry.journal_event(at_nanos, pid.0, || JournalKind::Suspension {
            filter: by.clone(),
            reason: reason.clone(),
        });
        self.processes.suspend(
            pid,
            SuspensionRecord {
                by,
                reason,
                at_nanos,
            },
        );
    }
}

/// The administrative view of a [`Vfs`]: unfiltered, unattributed access
/// for staging, verification and recovery tooling.
///
/// This is the mutation-capable sibling of the read-only, filter-facing
/// [`FsView`]. Operations through it bypass the filter stack, leave no
/// events in the telemetry journal, are invisible to any attached
/// [`ShadowSink`], and are not charged simulated latency. Obtain one with
/// [`Vfs::admin`].
#[derive(Debug)]
pub struct AdminView<'a> {
    vfs: &'a mut Vfs,
}

impl AdminView<'_> {
    /// Reads a file's entire content.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`].
    pub fn read_file(&self, path: &VPath) -> VfsResult<Vec<u8>> {
        self.vfs.read_file_impl(path)
    }

    /// Writes a file (create-or-replace), creating parent directories as
    /// needed. An existing file keeps its [`FileId`] — recovery depends on
    /// this to restore content without invalidating open handles.
    ///
    /// # Errors
    ///
    /// [`VfsError::IsADirectory`] if the path names a directory,
    /// [`VfsError::NotADirectory`] if a file blocks the parent chain.
    pub fn write_file(&mut self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        self.vfs.write_file_impl(path, data)
    }

    /// Stages a [`SharedContent`] buffer at `path` (create-or-replace),
    /// creating parent directories as needed. The file *aliases* the
    /// shared buffer — O(1) per mount, no byte copy, no stamp
    /// recomputation — and materializes a private copy only when first
    /// written. This is how a fleet mounts one corpus into thousands of
    /// tenant namespaces. The file also carries the content's
    /// [`MemoSlot`] until its bytes first change (see
    /// [`FsView::file_memo`](crate::FsView::file_memo)).
    ///
    /// # Errors
    ///
    /// As for [`AdminView::write_file`].
    pub fn stage_shared(&mut self, path: &VPath, content: &SharedContent) -> VfsResult<()> {
        self.vfs.stage_shared_impl(path, content)
    }

    /// Deletes a file, ignoring the read-only attribute.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`].
    pub fn delete_file(&mut self, path: &VPath) -> VfsResult<()> {
        self.vfs.delete_file_impl(path)
    }

    /// Creates one directory.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::create_dir`].
    pub fn create_dir(&mut self, path: &VPath) -> VfsResult<()> {
        self.vfs.create_dir_impl(path)
    }

    /// Creates a directory and any missing ancestors.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotADirectory`] if a file blocks the chain.
    pub fn create_dir_all(&mut self, path: &VPath) -> VfsResult<()> {
        self.vfs.create_dir_all_impl(path)
    }

    /// Sets or clears a file's read-only attribute.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] / [`VfsError::IsADirectory`].
    pub fn set_read_only(&mut self, path: &VPath, read_only: bool) -> VfsResult<()> {
        self.vfs.set_read_only_impl(path, read_only)
    }

    /// Moves a file, keeping its [`FileId`] and creating destination
    /// parents as needed. Recovery uses this to undo a suspect's renames.
    ///
    /// # Errors
    ///
    /// As for [`Vfs::rename`], except an occupied destination is always
    /// [`VfsError::AlreadyExists`] (there is no overwrite mode).
    pub fn rename(&mut self, from: &VPath, to: &VPath) -> VfsResult<()> {
        self.vfs.rename_impl(from, to)
    }

    /// A file or directory's metadata.
    ///
    /// # Errors
    ///
    /// [`VfsError::NotFound`] for missing paths.
    pub fn metadata(&self, path: &VPath) -> VfsResult<Metadata> {
        self.vfs.metadata_impl(path)
    }

    /// Returns `true` if the path names an existing file, directory or
    /// symlink.
    pub fn exists(&self, path: &VPath) -> bool {
        self.vfs
            .resolve(path, true)
            .is_ok_and(|(mi, resolved)| self.vfs.node_kind(mi, resolved.as_path()).is_some())
    }

    /// The current canonical path of a live, linked file, by identity.
    pub fn path_of(&self, file: FileId) -> Option<VPath> {
        self.vfs
            .mounts
            .iter()
            .find_map(|m| m.provider.path_of(file))
            .map(|p| (*p).clone())
    }

    /// Iterates over all files as `(path, content)` pairs, in arbitrary
    /// order. Used by experiment verification ("we verified the SHA-256
    /// hashes of the documents", paper §V-A analogue).
    pub fn files(&self) -> impl Iterator<Item = (&VPath, &[u8])> {
        self.vfs.files_impl()
    }

    /// Iterates over all directory paths, in arbitrary order.
    pub fn dirs(&self) -> impl Iterator<Item = &VPath> {
        self.vfs.dirs_impl()
    }

    /// The number of files in the filesystem.
    pub fn file_count(&self) -> usize {
        self.vfs.file_count()
    }

    /// The number of directories, including the root.
    pub fn dir_count(&self) -> usize {
        self.vfs.dir_count()
    }

    /// The total bytes stored across all files.
    pub fn total_bytes(&self) -> u64 {
        self.vfs.total_bytes()
    }

    /// Bytes owned exclusively by this filesystem (see
    /// [`Vfs::private_bytes`]).
    pub fn private_bytes(&self) -> u64 {
        self.vfs.private_bytes()
    }

    /// Bytes aliased from shared buffers (see [`Vfs::shared_bytes`]).
    pub fn shared_bytes(&self) -> u64 {
        self.vfs.shared_bytes()
    }
}

/// The journal's stable lowercase label for a verdict.
fn verdict_label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Allow => "allow",
        Verdict::Deny => "deny",
        Verdict::Suspend { .. } => "suspend",
        Verdict::Throttle { .. } => "throttle",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Vfs, ProcessId) {
        let mut fs = Vfs::new();
        let pid = fs.spawn_process("test.exe");
        (fs, pid)
    }

    fn p(s: &str) -> VPath {
        VPath::new(s)
    }

    #[test]
    fn create_write_read_round_trip() {
        let (mut fs, pid) = fresh();
        fs.create_dir_all(pid, &p("/docs")).unwrap();
        fs.write_file(pid, &p("/docs/a.txt"), b"hello world").unwrap();
        assert_eq!(fs.read_file(pid, &p("/docs/a.txt")).unwrap(), b"hello world");
        assert_eq!(fs.file_count(), 1);
        assert_eq!(fs.total_bytes(), 11);
    }

    #[test]
    fn open_missing_without_create_fails() {
        let (mut fs, pid) = fresh();
        let err = fs.open(pid, &p("/nope.txt"), OpenOptions::read()).unwrap_err();
        assert_eq!(err, VfsError::NotFound(p("/nope.txt")));
    }

    #[test]
    fn open_create_in_missing_parent_fails() {
        let (mut fs, pid) = fresh();
        let err = fs
            .open(pid, &p("/no/dir/x.txt"), OpenOptions::create())
            .unwrap_err();
        assert!(matches!(err, VfsError::NotFound(_)));
    }

    #[test]
    fn create_new_on_existing_fails() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"x").unwrap();
        let err = fs
            .open(pid, &p("/a.txt"), OpenOptions::create_new())
            .unwrap_err();
        assert_eq!(err, VfsError::AlreadyExists(p("/a.txt")));
    }

    #[test]
    fn open_directory_fails() {
        let (mut fs, pid) = fresh();
        fs.create_dir(pid, &p("/d")).unwrap();
        let err = fs.open(pid, &p("/d"), OpenOptions::read()).unwrap_err();
        assert_eq!(err, VfsError::IsADirectory(p("/d")));
    }

    #[test]
    fn truncating_open_clears_content_and_marks_modified() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"original").unwrap();
        let seen = Recorder::attach(&mut fs);
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::create()).unwrap();
        fs.close(pid, h).unwrap();
        assert_eq!(fs.admin().read_file(&p("/a.txt")).unwrap(), b"");
        // The close carries modified=true (the truncation).
        assert_eq!(seen.ops(), ["open", "close /a.txt modified=true"]);
    }

    #[test]
    fn partial_reads_and_cursor() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.bin"), b"0123456789").unwrap();
        let h = fs.open(pid, &p("/a.bin"), OpenOptions::read()).unwrap();
        assert_eq!(fs.read(pid, h, 4).unwrap(), b"0123");
        assert_eq!(fs.read(pid, h, 4).unwrap(), b"4567");
        assert_eq!(fs.read(pid, h, 4).unwrap(), b"89");
        assert_eq!(fs.read(pid, h, 4).unwrap(), b"");
        fs.seek(pid, h, 2).unwrap();
        assert_eq!(fs.read_to_end(pid, h).unwrap(), b"23456789");
        fs.close(pid, h).unwrap();
    }

    #[test]
    fn write_at_offset_and_extension() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.bin"), b"aaaaaaaa").unwrap();
        let h = fs.open(pid, &p("/a.bin"), OpenOptions::modify()).unwrap();
        fs.seek(pid, h, 4).unwrap();
        fs.write(pid, h, b"BBBBBB").unwrap();
        fs.close(pid, h).unwrap();
        assert_eq!(fs.admin().read_file(&p("/a.bin")).unwrap(), b"aaaaBBBBBB");
    }

    #[test]
    fn write_past_end_zero_fills() {
        let (mut fs, pid) = fresh();
        let h = fs.open(pid, &p("/a.bin"), OpenOptions::create()).unwrap();
        fs.seek(pid, h, 4).unwrap();
        fs.write(pid, h, b"xy").unwrap();
        fs.close(pid, h).unwrap();
        assert_eq!(fs.admin().read_file(&p("/a.bin")).unwrap(), b"\0\0\0\0xy");
    }

    #[test]
    fn read_only_blocks_write_open_delete_and_rename() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"keep me").unwrap();
        fs.set_read_only(pid, &p("/a.txt"), true).unwrap();
        assert!(matches!(
            fs.open(pid, &p("/a.txt"), OpenOptions::modify()),
            Err(VfsError::ReadOnly(_))
        ));
        assert!(matches!(fs.delete(pid, &p("/a.txt")), Err(VfsError::ReadOnly(_))));
        assert!(matches!(
            fs.rename(pid, &p("/a.txt"), &p("/b.txt"), false),
            Err(VfsError::ReadOnly(_))
        ));
        // Reading still works.
        assert_eq!(fs.read_file(pid, &p("/a.txt")).unwrap(), b"keep me");
        // Clearing the attribute restores write access.
        fs.set_read_only(pid, &p("/a.txt"), false).unwrap();
        assert!(fs.open(pid, &p("/a.txt"), OpenOptions::modify()).is_ok());
    }

    #[test]
    fn handle_not_writable() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"x").unwrap();
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::read()).unwrap();
        assert_eq!(fs.write(pid, h, b"y").unwrap_err(), VfsError::NotWritable);
        assert_eq!(fs.truncate(pid, h, 0).unwrap_err(), VfsError::NotWritable);
    }

    #[test]
    fn foreign_and_closed_handles_are_invalid() {
        let (mut fs, pid) = fresh();
        let other = fs.spawn_process("other.exe");
        fs.write_file(pid, &p("/a.txt"), b"x").unwrap();
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::read()).unwrap();
        assert_eq!(fs.read(other, h, 1).unwrap_err(), VfsError::InvalidHandle);
        fs.close(pid, h).unwrap();
        assert_eq!(fs.read(pid, h, 1).unwrap_err(), VfsError::InvalidHandle);
        assert_eq!(fs.close(pid, h).unwrap_err(), VfsError::InvalidHandle);
    }

    #[test]
    fn delete_and_handle_dangling() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"x").unwrap();
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::read()).unwrap();
        fs.delete(pid, &p("/a.txt")).unwrap();
        // The name is gone, but the open handle pins the node (POSIX
        // open-unlinked lifetime): reads keep seeing the bytes.
        assert_eq!(fs.file_count(), 0);
        assert!(fs.admin().metadata(&p("/a.txt")).is_err());
        assert_eq!(fs.read(pid, h, 1).unwrap(), b"x");
        // The last close reaps the orphaned node.
        fs.close(pid, h).unwrap();
        assert_eq!(fs.file_count(), 0);
    }

    #[test]
    fn delete_errors() {
        let (mut fs, pid) = fresh();
        assert!(matches!(fs.delete(pid, &p("/nope")), Err(VfsError::NotFound(_))));
        fs.create_dir(pid, &p("/d")).unwrap();
        assert!(matches!(fs.delete(pid, &p("/d")), Err(VfsError::IsADirectory(_))));
    }

    #[test]
    fn rename_keeps_file_id_and_handles() {
        let (mut fs, pid) = fresh();
        fs.create_dir(pid, &p("/tmp")).unwrap();
        fs.write_file(pid, &p("/a.txt"), b"content").unwrap();
        let id_before = fs.admin().metadata(&p("/a.txt")).unwrap().file;
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::read()).unwrap();
        fs.rename(pid, &p("/a.txt"), &p("/tmp/b.dat"), false).unwrap();
        assert!(fs.admin().metadata(&p("/a.txt")).is_err());
        assert_eq!(fs.admin().metadata(&p("/tmp/b.dat")).unwrap().file, id_before);
        // The open handle follows the file.
        assert_eq!(fs.read_to_end(pid, h).unwrap(), b"content");
        fs.close(pid, h).unwrap();
    }

    #[test]
    fn rename_overwrite_semantics() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/new.enc"), b"ciphertext").unwrap();
        fs.write_file(pid, &p("/orig.doc"), b"plaintext").unwrap();
        let orig_id = fs.admin().metadata(&p("/orig.doc")).unwrap().file;
        let seen = Recorder::attach(&mut fs);
        assert!(matches!(
            fs.rename(pid, &p("/new.enc"), &p("/orig.doc"), false),
            Err(VfsError::AlreadyExists(_))
        ));
        fs.rename(pid, &p("/new.enc"), &p("/orig.doc"), true).unwrap();
        assert_eq!(fs.admin().read_file(&p("/orig.doc")).unwrap(), b"ciphertext");
        assert_eq!(fs.file_count(), 1);
        // The replacing file's id is retained; the replaced file is gone.
        let new_id = fs.admin().metadata(&p("/orig.doc")).unwrap().file;
        assert_ne!(new_id, orig_id);
        // Filters see only the completed rename, with the replaced id.
        assert_eq!(seen.ops(), [format!("rename replaced={orig_id:?} last_link=true")]);
    }

    #[test]
    fn unlink_outcomes_report_whether_the_last_link_went() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/f.txt"), b"shared").unwrap();
        fs.write_file(pid, &p("/tmp.txt"), b"temp").unwrap();
        let id = fs.admin().metadata(&p("/f.txt")).unwrap().file;
        let tmp_id = fs.admin().metadata(&p("/tmp.txt")).unwrap().file;
        fs.link(pid, &p("/f.txt"), &p("/l1.txt")).unwrap();
        fs.link(pid, &p("/f.txt"), &p("/l2.txt")).unwrap();
        let seen = Recorder::attach(&mut fs);
        // Deleting one link, or renaming a file over one, leaves the file
        // reachable through the others.
        fs.delete(pid, &p("/l1.txt")).unwrap();
        fs.rename(pid, &p("/tmp.txt"), &p("/l2.txt"), true).unwrap();
        assert_eq!(fs.admin().read_file(&p("/f.txt")).unwrap(), b"shared");
        // Removing a file's only link removes the file.
        fs.delete(pid, &p("/f.txt")).unwrap();
        fs.write_file(pid, &p("/g.txt"), b"g").unwrap();
        fs.rename(pid, &p("/g.txt"), &p("/l2.txt"), true).unwrap();
        let unlinks: Vec<String> = seen
            .ops()
            .into_iter()
            .filter(|op| op.starts_with("delete") || op.starts_with("rename"))
            .collect();
        assert_eq!(
            unlinks,
            [
                "delete last_link=false".to_string(),
                format!("rename replaced={id:?} last_link=false"),
                "delete last_link=true".to_string(),
                format!("rename replaced={tmp_id:?} last_link=true"),
            ]
        );
    }

    /// Regression: renaming over a file that still has open handles must
    /// keep the victim node alive as an orphan until the last handle
    /// closes. It used to be removed eagerly, orphaning the victim's
    /// in-flight dirty-extent state and failing subsequent handle I/O.
    #[test]
    fn rename_overwrite_keeps_victims_open_handles_alive() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/orig.doc"), b"plaintext").unwrap();
        fs.write_file(pid, &p("/new.enc"), b"ciphertext").unwrap();
        let victim_id = fs.admin().metadata(&p("/orig.doc")).unwrap().file;
        let h = fs.open(pid, &p("/orig.doc"), OpenOptions::modify()).unwrap();
        fs.write(pid, h, b"dirty").unwrap();

        fs.rename(pid, &p("/new.enc"), &p("/orig.doc"), true).unwrap();

        // The name resolves to the replacing file...
        assert_eq!(fs.admin().read_file(&p("/orig.doc")).unwrap(), b"ciphertext");
        assert_ne!(fs.admin().metadata(&p("/orig.doc")).unwrap().file, victim_id);
        // ...while the victim survives anonymously behind its open handle:
        // reads and writes through it still land on the orphan node.
        fs.seek(pid, h, 0).unwrap();
        assert_eq!(fs.read_to_end(pid, h).unwrap(), b"dirtytext");
        fs.write(pid, h, b"!").unwrap();
        assert_eq!(fs.file_count(), 1, "orphan is invisible to the name space");

        // The last close releases the orphan; the name keeps resolving to
        // the replacing file.
        fs.close(pid, h).unwrap();
        assert_eq!(fs.admin().read_file(&p("/orig.doc")).unwrap(), b"ciphertext");
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn rename_misc_errors() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a"), b"x").unwrap();
        fs.create_dir(pid, &p("/d")).unwrap();
        assert!(matches!(
            fs.rename(pid, &p("/missing"), &p("/b"), false),
            Err(VfsError::NotFound(_))
        ));
        assert!(matches!(
            fs.rename(pid, &p("/d"), &p("/b"), false),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.rename(pid, &p("/a"), &p("/d"), true),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(matches!(
            fs.rename(pid, &p("/a"), &p("/no/dir/b"), false),
            Err(VfsError::NotFound(_))
        ));
        assert!(matches!(
            fs.rename(pid, &p("/a"), &p("/a"), false),
            Err(VfsError::InvalidPath(_))
        ));
    }

    #[test]
    fn list_dir_sorted_with_metadata() {
        let (mut fs, pid) = fresh();
        fs.create_dir_all(pid, &p("/docs/sub")).unwrap();
        fs.write_file(pid, &p("/docs/b.txt"), b"bb").unwrap();
        fs.write_file(pid, &p("/docs/a.txt"), b"a").unwrap();
        let entries = fs.list_dir(pid, &p("/docs")).unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.txt", "b.txt", "sub"]);
        assert_eq!(entries[0].len, 1);
        assert_eq!(entries[1].len, 2);
        assert_eq!(entries[2].kind, EntryKind::Directory);
        assert!(entries[0].file.is_some());
        assert!(entries[2].file.is_none());
    }

    #[test]
    fn list_dir_errors() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/f"), b"").unwrap();
        assert!(matches!(fs.list_dir(pid, &p("/f")), Err(VfsError::NotADirectory(_))));
        assert!(matches!(fs.list_dir(pid, &p("/x")), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn dir_creation_and_removal() {
        let (mut fs, pid) = fresh();
        fs.create_dir_all(pid, &p("/a/b/c")).unwrap();
        assert_eq!(fs.dir_count(), 4); // root + a + b + c
        assert!(matches!(
            fs.create_dir(pid, &p("/a/b")),
            Err(VfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.create_dir(pid, &p("/x/y")),
            Err(VfsError::NotFound(_))
        ));
        assert!(matches!(
            fs.remove_dir(pid, &p("/a/b")),
            Err(VfsError::DirectoryNotEmpty(_))
        ));
        fs.remove_dir(pid, &p("/a/b/c")).unwrap();
        fs.remove_dir(pid, &p("/a/b")).unwrap();
        assert!(matches!(
            fs.remove_dir(pid, &VPath::root()),
            Err(VfsError::InvalidPath(_))
        ));
        fs.write_file(pid, &p("/file"), b"").unwrap();
        assert!(matches!(
            fs.remove_dir(pid, &p("/file")),
            Err(VfsError::NotADirectory(_))
        ));
        assert!(matches!(
            fs.create_dir_all(pid, &p("/file/sub")),
            Err(VfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn unknown_process_rejected() {
        let mut fs = Vfs::new();
        let ghost = ProcessId(42);
        assert_eq!(
            fs.read_file(ghost, &p("/x")).unwrap_err(),
            VfsError::UnknownProcess(ghost)
        );
    }

    #[test]
    fn suspended_process_cannot_operate() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"x").unwrap();
        fs.processes.suspend(
            pid,
            SuspensionRecord {
                by: "test".into(),
                reason: "test".into(),
                at_nanos: 0,
            },
        );
        assert_eq!(
            fs.read_file(pid, &p("/a.txt")).unwrap_err(),
            VfsError::ProcessSuspended(pid)
        );
        fs.resume_process(pid);
        assert!(fs.read_file(pid, &p("/a.txt")).is_ok());
    }

    #[test]
    fn operations_are_observed_in_order() {
        let (mut fs, pid) = fresh();
        let seen = Recorder::attach(&mut fs);
        fs.write_file(pid, &p("/a.txt"), b"abc").unwrap();
        fs.read_file(pid, &p("/a.txt")).unwrap();
        fs.delete(pid, &p("/a.txt")).unwrap();
        assert_eq!(
            seen.ops(),
            [
                "open",
                "write",
                "close /a.txt modified=true",
                "open",
                "read",
                "close /a.txt modified=false",
                "delete last_link=true"
            ]
        );
        // Timestamps are monotonically non-decreasing.
        let times: Vec<u64> = seen.0.lock().unwrap().iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    // ------------------------------------------------------------------
    // Filter integration
    // ------------------------------------------------------------------

    /// Records each completed operation as post-op callbacks see it,
    /// with its timestamp: close, delete and rename outcomes in detail,
    /// every other operation by name.
    #[derive(Clone, Default)]
    struct Recorder(Arc<std::sync::Mutex<Vec<(u64, String)>>>);
    impl Recorder {
        /// Registers a recorder on `fs` and returns a handle onto what
        /// it records.
        fn attach(fs: &mut Vfs) -> Self {
            let recorder = Recorder::default();
            fs.register_filter(Box::new(recorder.clone()));
            recorder
        }

        fn ops(&self) -> Vec<String> {
            let seen = self.0.lock().unwrap();
            seen.iter().map(|(_, op)| op.clone()).collect()
        }
    }
    impl FilterDriver for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn post_op(
            &mut self,
            ctx: &OpContext<'_>,
            outcome: &OpOutcome<'_>,
            _fs: &FsView<'_>,
        ) -> Verdict {
            let op = match (ctx.op, outcome) {
                (FsOp::Close { path, modified }, _) => format!("close {path} modified={modified}"),
                (_, OpOutcome::Delete { last_link, .. }) => format!("delete last_link={last_link}"),
                (
                    _,
                    OpOutcome::Rename {
                        replaced,
                        replaced_last_link,
                        ..
                    },
                ) => format!("rename replaced={replaced:?} last_link={replaced_last_link}"),
                (op, _) => op.name().to_string(),
            };
            self.0.lock().unwrap().push((ctx.at_nanos, op));
            Verdict::allow()
        }
    }

    /// Denies every write to paths containing "protected".
    struct DenyProtectedWrites;
    impl FilterDriver for DenyProtectedWrites {
        fn name(&self) -> &str {
            "deny-protected"
        }
        fn pre_op(&mut self, ctx: &OpContext<'_>, _fs: &FsView<'_>) -> Verdict {
            match ctx.op {
                FsOp::Write { path, .. } if path.as_str().contains("protected") => Verdict::deny(),
                _ => Verdict::allow(),
            }
        }
    }

    #[test]
    fn filter_can_deny_writes() {
        let (mut fs, pid) = fresh();
        fs.create_dir(pid, &p("/protected")).unwrap();
        fs.register_filter(Box::new(DenyProtectedWrites));
        fs.write_file(pid, &p("/ok.txt"), b"fine").unwrap();
        let err = fs.write_file(pid, &p("/protected/x.txt"), b"no").unwrap_err();
        assert!(matches!(err, VfsError::AccessDenied { .. }));
        // The open created the file but the write was denied.
        assert_eq!(fs.admin().read_file(&p("/protected/x.txt")).unwrap(), b"");
    }

    /// Suspends a process after observing `limit` completed writes.
    struct WriteQuota {
        limit: u32,
        seen: u32,
    }
    impl FilterDriver for WriteQuota {
        fn name(&self) -> &str {
            "write-quota"
        }
        fn post_op(
            &mut self,
            _ctx: &OpContext<'_>,
            outcome: &OpOutcome<'_>,
            _fs: &FsView<'_>,
        ) -> Verdict {
            if let OpOutcome::Write { .. } = outcome {
                self.seen += 1;
                if self.seen >= self.limit {
                    return Verdict::suspend(format!(
                        "write quota of {} exceeded",
                        self.limit
                    ));
                }
            }
            Verdict::allow()
        }
    }

    #[test]
    fn post_op_suspension_blocks_subsequent_ops() {
        let (mut fs, pid) = fresh();
        fs.register_filter(Box::new(WriteQuota { limit: 2, seen: 0 }));
        let seen = Recorder::attach(&mut fs);
        fs.write_file(pid, &p("/a"), b"1").unwrap();
        // Second write triggers suspension, but the triggering op completed.
        let h = fs.open(pid, &p("/b"), OpenOptions::create()).unwrap();
        fs.write(pid, h, b"2").unwrap();
        assert!(fs.is_suspended(pid));
        assert_eq!(fs.admin().read_file(&p("/b")).unwrap(), b"2");
        // All further data ops fail...
        assert_eq!(
            fs.write(pid, h, b"more").unwrap_err(),
            VfsError::ProcessSuspended(pid)
        );
        // ...but close still releases the handle.
        fs.close(pid, h).unwrap();
        // The suspension is recorded in the process table, and the
        // suspending write still reached the filter registered after the
        // one that suspended.
        let record = fs.processes().get(pid).and_then(|r| r.suspension());
        let record = record.expect("suspended");
        assert_eq!(record.by, "write-quota");
        assert_eq!(record.reason, "write quota of 2 exceeded");
        assert_eq!(seen.ops().iter().filter(|op| *op == "write").count(), 2);
        // Other processes are unaffected.
        let other = fs.spawn_process("other.exe");
        fs.write_file(other, &p("/c"), b"3").unwrap();
    }

    /// Reads the pre-image of every write via the FsView.
    struct SnapshotProbe {
        snapshots: Vec<(VPath, Vec<u8>)>,
    }
    impl FilterDriver for SnapshotProbe {
        fn name(&self) -> &str {
            "snapshot-probe"
        }
        fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
            if let FsOp::Write { path, .. } = ctx.op {
                if let Ok(data) = fs.read_file(path) {
                    self.snapshots.push((path.clone(), data));
                }
            }
            Verdict::allow()
        }
    }

    #[test]
    fn filters_can_snapshot_pre_images() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/doc.txt"), b"ORIGINAL").unwrap();
        fs.register_filter(Box::new(SnapshotProbe { snapshots: vec![] }));
        let h = fs.open(pid, &p("/doc.txt"), OpenOptions::modify()).unwrap();
        fs.write(pid, h, b"ENCRYPTED!").unwrap();
        fs.close(pid, h).unwrap();
        let filters = fs.take_filters();
        // Recover the probe and check it saw the pre-image.
        // (Downcasting is not available on FilterDriver; instead assert via
        // the ledger that the filter ran.)
        assert_eq!(filters.len(), 1);
        assert!(fs.latency_ledger().stat(OpKind::Write).is_some());
        assert_eq!(fs.admin().read_file(&p("/doc.txt")).unwrap(), b"ENCRYPTED!");
    }

    #[test]
    fn truncating_open_lets_pre_op_see_original_content() {
        // Critical for the detector: the pre-open snapshot must happen
        // before truncation destroys the original content.
        struct PreOpenCapture {
            captured: Option<Vec<u8>>,
        }
        impl FilterDriver for PreOpenCapture {
            fn name(&self) -> &str {
                "pre-open-capture"
            }
            fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
                if let FsOp::Open { path, options } = ctx.op {
                    if options.write {
                        self.captured = fs.read_file(path).ok();
                    }
                }
                Verdict::allow()
            }
            fn post_op(
                &mut self,
                ctx: &OpContext<'_>,
                _outcome: &OpOutcome<'_>,
                fs: &FsView<'_>,
            ) -> Verdict {
                if let FsOp::Open { path, .. } = ctx.op {
                    // After a truncating open, the file is empty even though
                    // pre_op saw the original bytes.
                    assert_eq!(fs.read_file(path).unwrap(), b"");
                    assert_eq!(self.captured.as_deref(), Some(b"SECRET".as_slice()));
                }
                Verdict::allow()
            }
        }
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/x.txt"), b"SECRET").unwrap();
        fs.register_filter(Box::new(PreOpenCapture { captured: None }));
        let h = fs.open(pid, &p("/x.txt"), OpenOptions::create()).unwrap();
        fs.close(pid, h).unwrap();
    }

    #[test]
    fn latency_ledger_counts_filtered_ops() {
        struct Nop;
        impl FilterDriver for Nop {
            fn name(&self) -> &str {
                "nop"
            }
        }
        let (mut fs, pid) = fresh();
        fs.register_filter(Box::new(Nop));
        fs.write_file(pid, &p("/a"), b"data").unwrap();
        fs.read_file(pid, &p("/a")).unwrap();
        let ledger = fs.latency_ledger();
        assert_eq!(ledger.stat(OpKind::Open).unwrap().count, 2);
        assert_eq!(ledger.stat(OpKind::Write).unwrap().count, 1);
        assert_eq!(ledger.stat(OpKind::Read).unwrap().count, 1);
        assert_eq!(ledger.stat(OpKind::Close).unwrap().count, 2);
    }

    #[test]
    fn admin_helpers_bypass_filters() {
        let (mut fs, _pid) = fresh();
        let telemetry = Telemetry::new(64);
        fs.set_telemetry(telemetry.clone());
        fs.register_filter(Box::new(DenyProtectedWrites));
        let seen = Recorder::attach(&mut fs);
        fs.admin().write_file(&p("/protected/x.txt"), b"staged").unwrap();
        assert_eq!(fs.admin().read_file(&p("/protected/x.txt")).unwrap(), b"staged");
        fs.admin().set_read_only(&p("/protected/x.txt"), true).unwrap();
        assert!(fs.admin().metadata(&p("/protected/x.txt")).unwrap().read_only);
        fs.admin().delete_file(&p("/protected/x.txt")).unwrap();
        assert_eq!(fs.file_count(), 0);
        assert!(seen.ops().is_empty(), "admin ops reach no filter");
        assert!(telemetry.journal().is_empty(), "admin ops leave no journal");
    }

    #[test]
    fn admin_iteration() {
        let (mut fs, _) = fresh();
        fs.admin().write_file(&p("/a/1.txt"), b"one").unwrap();
        fs.admin().write_file(&p("/a/b/2.txt"), b"two").unwrap();
        assert_eq!(fs.file_count(), 2);
        assert_eq!(fs.dir_count(), 3); // /, /a, /a/b
        let total: u64 = fs.admin().files().map(|(_, d)| d.len() as u64).sum();
        assert_eq!(total, fs.total_bytes());
        assert_eq!(fs.admin().dirs().count(), 3);
    }

    /// A `WriteQuota` with a name and an externally observable op count.
    struct CountingQuota {
        name: &'static str,
        limit: u32,
        observed: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }
    impl FilterDriver for CountingQuota {
        fn name(&self) -> &str {
            self.name
        }
        fn post_op(
            &mut self,
            _ctx: &OpContext<'_>,
            outcome: &OpOutcome<'_>,
            _fs: &FsView<'_>,
        ) -> Verdict {
            if let OpOutcome::Write { .. } = outcome {
                let seen = self
                    .observed
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                    + 1;
                if seen >= self.limit {
                    return Verdict::suspend(format!("{}: write quota exceeded", self.name));
                }
            }
            Verdict::allow()
        }
    }

    #[test]
    fn post_op_sweep_reaches_every_filter_and_first_suspend_wins() {
        // Regression: a Suspend used to break the post_op sweep, hiding
        // the operation from later filters — their state (and therefore
        // their verdicts) depended on registration order, contradicting
        // the stack's ordering-invariance contract (`filter` module docs).
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let run = |first_is_a: bool| {
            let (mut fs, pid) = fresh();
            fs.set_telemetry(cryptodrop_telemetry::Telemetry::new(4096));
            let a_seen = Arc::new(AtomicU32::new(0));
            let b_seen = Arc::new(AtomicU32::new(0));
            let a = Box::new(CountingQuota {
                name: "quota-a",
                limit: 2,
                observed: Arc::clone(&a_seen),
            });
            let b = Box::new(CountingQuota {
                name: "quota-b",
                limit: 2,
                observed: Arc::clone(&b_seen),
            });
            if first_is_a {
                fs.register_filter(a);
                fs.register_filter(b);
            } else {
                fs.register_filter(b);
                fs.register_filter(a);
            }
            fs.write_file(pid, &p("/one.txt"), b"1").unwrap();
            fs.write_file(pid, &p("/two.txt"), b"2").unwrap();
            assert!(fs.is_suspended(pid));
            let by = fs
                .processes()
                .get(pid)
                .unwrap()
                .suspension()
                .unwrap()
                .by
                .clone();
            let suspending: Vec<String> = fs
                .telemetry()
                .journal()
                .events_for(pid.0)
                .into_iter()
                .filter_map(|e| match e.kind {
                    JournalKind::FilterPost { filter, verdict, .. } if verdict == "suspend" => {
                        Some(filter)
                    }
                    _ => None,
                })
                .collect();
            (
                a_seen.load(Ordering::Relaxed),
                b_seen.load(Ordering::Relaxed),
                by,
                suspending,
            )
        };

        let (a1, b1, by1, suspending1) = run(true);
        let (a2, b2, by2, suspending2) = run(false);
        // Every filter observed both completed writes in both orders.
        assert_eq!((a1, b1), (2, 2), "second-registered filter missed ops");
        assert_eq!((a2, b2), (2, 2), "second-registered filter missed ops");
        // The *first* suspending filter in stack order wins the record...
        assert_eq!(by1, "quota-a");
        assert_eq!(by2, "quota-b");
        // ...and the journal records *every* suspending filter either way.
        let mut s1 = suspending1;
        let mut s2 = suspending2;
        s1.sort();
        s2.sort();
        assert_eq!(s1, vec!["quota-a".to_string(), "quota-b".to_string()]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn rename_over_read_only_target_fails() {
        // NTFS-faithfulness regression: MoveFileEx fails with access denied
        // when the replaced destination carries FILE_ATTRIBUTE_READONLY; the
        // rename must not silently clobber the protected target.
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/locked.doc"), b"precious").unwrap();
        fs.write_file(pid, &p("/new.enc"), b"ciphertext").unwrap();
        fs.set_read_only(pid, &p("/locked.doc"), true).unwrap();
        let err = fs
            .rename(pid, &p("/new.enc"), &p("/locked.doc"), true)
            .unwrap_err();
        assert_eq!(err, VfsError::ReadOnly(p("/locked.doc")));
        // Nothing moved, nothing was destroyed.
        assert_eq!(fs.read_file(pid, &p("/locked.doc")).unwrap(), b"precious");
        assert_eq!(fs.admin().read_file(&p("/new.enc")).unwrap(), b"ciphertext");
        assert_eq!(fs.file_count(), 2);
    }

    // ------------------------------------------------------------------
    // Shadow-sink capture points
    // ------------------------------------------------------------------

    /// Records every capture/created/rename notification it receives.
    #[derive(Default)]
    struct RecordingSink {
        captures: std::sync::Mutex<Vec<(MutationKind, VPath, Vec<u8>)>>,
        created: std::sync::Mutex<Vec<VPath>>,
        renames: std::sync::Mutex<Vec<(VPath, VPath)>>,
    }
    impl ShadowSink for RecordingSink {
        fn capture(&self, pre: &PreImage<'_>) {
            self.captures
                .lock().unwrap()
                .push((pre.kind, pre.path.clone(), pre.data.to_vec()));
        }
        fn note_created(&self, _pid: ProcessId, _root: ProcessId, _file: FileId, path: &VPath) {
            self.created.lock().unwrap().push(path.clone());
        }
        fn note_rename(
            &self,
            _pid: ProcessId,
            _root: ProcessId,
            _file: FileId,
            from: &VPath,
            to: &VPath,
        ) {
            self.renames.lock().unwrap().push((from.clone(), to.clone()));
        }
    }

    #[test]
    fn shadow_sink_sees_every_destructive_pre_image() {
        let (mut fs, pid) = fresh();
        fs.write_file(pid, &p("/a.txt"), b"version-1").unwrap();
        fs.write_file(pid, &p("/victim.doc"), b"victim").unwrap();
        let sink = Arc::new(RecordingSink::default());
        fs.set_shadow_sink(Arc::clone(&sink) as Arc<dyn ShadowSink>);

        // Truncating open + write: two Write captures (pre-truncate bytes,
        // then the empty post-truncate file).
        let h = fs.open(pid, &p("/a.txt"), OpenOptions::create()).unwrap();
        fs.write(pid, h, b"version-2").unwrap();
        fs.truncate(pid, h, 3).unwrap();
        fs.close(pid, h).unwrap();
        // Delete and rename-overwrite.
        fs.write_file(pid, &p("/new.enc"), b"ciphertext").unwrap();
        fs.rename(pid, &p("/new.enc"), &p("/victim.doc"), true).unwrap();
        fs.delete(pid, &p("/a.txt")).unwrap();

        let captures = sink.captures.lock().unwrap();
        let kinds: Vec<(MutationKind, &[u8])> = captures
            .iter()
            .map(|(k, _, d)| (*k, d.as_slice()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (MutationKind::Write, b"version-1".as_slice()), // truncating open
                (MutationKind::Write, b"".as_slice()),          // write after truncate
                (MutationKind::Truncate, b"version-2".as_slice()),
                (MutationKind::Write, b"".as_slice()), // create of /new.enc truncates nothing; open created it
                (MutationKind::RenameOverwrite, b"victim".as_slice()),
                (MutationKind::Delete, b"ver".as_slice()),
            ]
        );
        assert_eq!(sink.created.lock().unwrap().as_slice(), &[p("/new.enc")]);
        assert_eq!(
            sink.renames.lock().unwrap().as_slice(),
            &[(p("/new.enc"), p("/victim.doc"))]
        );
    }

    #[test]
    fn blocked_and_admin_mutations_are_never_captured() {
        let (mut fs, pid) = fresh();
        fs.create_dir(pid, &p("/protected")).unwrap();
        fs.write_file(pid, &p("/protected/x.txt"), b"keep").unwrap();
        let sink = Arc::new(RecordingSink::default());
        fs.set_shadow_sink(Arc::clone(&sink) as Arc<dyn ShadowSink>);
        fs.register_filter(Box::new(DenyProtectedWrites));

        // A denied write never reaches its capture point.
        let h = fs
            .open(pid, &p("/protected/x.txt"), OpenOptions::modify())
            .unwrap();
        assert!(fs.write(pid, h, b"clobber").is_err());
        fs.close(pid, h).unwrap();
        // Admin mutations are invisible to the sink.
        fs.admin().write_file(&p("/protected/x.txt"), b"staged").unwrap();
        fs.admin().delete_file(&p("/protected/x.txt")).unwrap();
        assert!(sink.captures.lock().unwrap().is_empty());
        assert!(sink.created.lock().unwrap().is_empty());

        // A suspended process's mutations are rejected before capture.
        fs.write_file(pid, &p("/y.txt"), b"data").unwrap();
        assert_eq!(sink.captures.lock().unwrap().len(), 1); // the open-created write... write to empty file
        fs.suspend_process(pid, "test", "suspended");
        assert!(fs.write_file(pid, &p("/y.txt"), b"more").is_err());
        assert_eq!(sink.captures.lock().unwrap().len(), 1);
    }

    #[test]
    fn admin_view_rename_and_path_of() {
        let (mut fs, _pid) = fresh();
        fs.admin().write_file(&p("/docs/a.txt"), b"content").unwrap();
        let id = fs.admin().metadata(&p("/docs/a.txt")).unwrap().file.unwrap();
        let mut admin = fs.admin();
        assert_eq!(admin.path_of(id), Some(p("/docs/a.txt")));
        // Rename keeps the id and creates missing destination parents.
        admin.rename(&p("/docs/a.txt"), &p("/backup/deep/a.txt")).unwrap();
        assert_eq!(admin.path_of(id), Some(p("/backup/deep/a.txt")));
        assert_eq!(admin.read_file(&p("/backup/deep/a.txt")).unwrap(), b"content");
        assert!(!admin.exists(&p("/docs/a.txt")));
        // Occupied destinations are refused.
        admin.write_file(&p("/other.txt"), b"x").unwrap();
        assert!(matches!(
            admin.rename(&p("/other.txt"), &p("/backup/deep/a.txt")),
            Err(VfsError::AlreadyExists(_))
        ));
        // Directories cannot be renamed, missing sources error.
        assert!(matches!(
            admin.rename(&p("/backup"), &p("/b2")),
            Err(VfsError::IsADirectory(_))
        ));
        assert!(matches!(
            admin.rename(&p("/ghost"), &p("/g2")),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn staged_shared_content_is_copy_on_write() {
        let body = b"quarterly figures, shared across every namespace".to_vec();
        let shared = crate::SharedContent::new(body.clone());
        let mut a = Vfs::with_namespace(1);
        let mut b = Vfs::with_namespace(2);
        a.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
        b.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();

        // Both namespaces read the one buffer; neither owns it.
        assert_eq!(a.admin().read_file(&p("/docs/r.txt")).unwrap(), body);
        assert_eq!(a.admin().metadata(&p("/docs/r.txt")).unwrap().len, body.len() as u64);
        assert_eq!(a.private_bytes(), 0);
        assert_eq!(a.shared_bytes(), body.len() as u64);
        assert_eq!(shared.ref_count(), 3, "corpus handle + two mounts");
        // The stamp was staged, not recomputed — it matches the content.
        let stamped = a.file_stamp_impl(&p("/docs/r.txt")).unwrap();
        assert_eq!(stamped, content_stamp(&body));

        // Writing in namespace A materializes a private copy there; B
        // still aliases the corpus buffer and reads the original bytes.
        let pid = a.spawn_process("editor.exe");
        let h = a.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
        a.write(pid, h, b"REDACTED").unwrap();
        a.close(pid, h).unwrap();
        assert_eq!(a.private_bytes(), body.len() as u64);
        assert_eq!(a.shared_bytes(), 0);
        assert_eq!(b.admin().read_file(&p("/docs/r.txt")).unwrap(), body);
        assert_eq!(shared.ref_count(), 2, "A dropped its alias on first write");
        assert!(a.admin().read_file(&p("/docs/r.txt")).unwrap().starts_with(b"REDACTED"));
    }

    #[test]
    fn stage_shared_rejects_directories_and_replaces_files() {
        let mut fs = Vfs::new();
        let shared = crate::SharedContent::new(b"v2".to_vec());
        fs.admin().create_dir_all(&p("/docs")).unwrap();
        assert!(matches!(
            fs.admin().stage_shared(&p("/docs"), &shared),
            Err(VfsError::IsADirectory(_))
        ));
        // Replacing keeps the FileId, like write_file.
        fs.admin().write_file(&p("/docs/a.txt"), b"v1").unwrap();
        let id = fs.admin().metadata(&p("/docs/a.txt")).unwrap().file;
        fs.admin().stage_shared(&p("/docs/a.txt"), &shared).unwrap();
        assert_eq!(fs.admin().metadata(&p("/docs/a.txt")).unwrap().file, id);
        assert_eq!(fs.admin().read_file(&p("/docs/a.txt")).unwrap(), b"v2");
    }

    /// The memo slot `FsView` reports for `path`, if any.
    fn memo_at(fs: &Vfs, path: &str) -> Option<MemoSlot> {
        FsView::new(fs).file_memo(&p(path)).cloned()
    }

    #[test]
    fn staging_attaches_one_memo_slot_to_every_namespace() {
        let body = b"quarterly figures, analysed once for every namespace".to_vec();
        let shared = crate::SharedContent::new(body.clone());
        let mut a = Vfs::with_namespace(1);
        let mut b = Vfs::with_namespace(2);
        a.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
        b.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
        let (in_a, in_b) = (memo_at(&a, "/docs/r.txt").unwrap(), memo_at(&b, "/docs/r.txt").unwrap());
        assert!(in_a.same_slot(&in_b), "one slot across namespaces");
        assert!(in_a.same_slot(shared.memo()));
        assert!(in_a.get().is_none(), "staging computes nothing");

        // A filled memo changes neither the byte accounting nor the
        // aliasing of the buffer.
        let before = (a.private_bytes(), a.shared_bytes(), shared.ref_count());
        in_a.get_or_init(|| Arc::new(vec![0u8; 4096]));
        assert_eq!((a.private_bytes(), a.shared_bytes(), shared.ref_count()), before);
        assert_eq!(
            memo_at(&b, "/docs/r.txt").unwrap().get().unwrap().downcast_ref::<Vec<u8>>().map(Vec::len),
            Some(4096),
            "the other namespace sees the filled memo"
        );

        // Plain files carry no slot.
        a.admin().write_file(&p("/docs/plain.txt"), &body).unwrap();
        assert!(memo_at(&a, "/docs/plain.txt").is_none());
    }

    #[test]
    fn every_byte_mutation_detaches_the_memo_slot() {
        let body = b"line one\nline two\nline three\n".to_vec();
        let shared = crate::SharedContent::new(body.clone());
        let other = crate::SharedContent::new(b"another release".to_vec());
        type Mutation = fn(&mut Vfs, ProcessId, &crate::SharedContent);
        let mutations: [(&str, Mutation); 7] = [
            ("write", |fs, pid, _| {
                let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
                fs.write(pid, h, b"LINE").unwrap();
                fs.close(pid, h).unwrap();
            }),
            ("truncate", |fs, pid, _| {
                let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
                fs.truncate(pid, h, 4).unwrap();
                fs.close(pid, h).unwrap();
            }),
            ("extend", |fs, pid, _| {
                let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
                fs.truncate(pid, h, 4096).unwrap();
                fs.close(pid, h).unwrap();
            }),
            ("append", |fs, pid, _| {
                let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
                let end = fs.admin().metadata(&p("/docs/r.txt")).unwrap().len;
                fs.seek(pid, h, end).unwrap();
                fs.write(pid, h, b"line four\n").unwrap();
                fs.close(pid, h).unwrap();
            }),
            ("truncating open", |fs, pid, _| {
                let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::create()).unwrap();
                fs.close(pid, h).unwrap();
            }),
            ("re-stage", |fs, _, other| {
                fs.admin().stage_shared(&p("/docs/r.txt"), other).unwrap();
            }),
            ("admin overwrite", |fs, _, _| {
                fs.admin().write_file(&p("/docs/r.txt"), b"overwritten").unwrap();
            }),
        ];
        for (name, mutate) in mutations {
            let mut fs = Vfs::with_namespace(1);
            fs.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
            let pid = fs.spawn_process("editor.exe");
            mutate(&mut fs, pid, &other);
            let slot = memo_at(&fs, "/docs/r.txt");
            assert!(
                slot.as_ref().is_none_or(|s| !s.same_slot(shared.memo())),
                "{name} must detach the staged slot"
            );
            if name == "re-stage" {
                assert!(slot.is_some_and(|s| s.same_slot(other.memo())), "the new content's slot");
            }
        }
        // Reads leave the slot attached.
        let mut fs = Vfs::with_namespace(1);
        fs.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
        let pid = fs.spawn_process("reader.exe");
        let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
        assert_eq!(fs.read_to_end(pid, h).unwrap(), body);
        fs.close(pid, h).unwrap();
        assert!(memo_at(&fs, "/docs/r.txt").is_some_and(|s| s.same_slot(shared.memo())));
    }

    #[test]
    fn unique_owner_in_place_mutation_detaches_the_memo_slot() {
        // Content level: with every other alias dropped, `DerefMut`
        // mutates the buffer in place — and still detaches first.
        let shared = crate::SharedContent::new(b"sole owner".to_vec());
        let mut content = Content::staged(&shared);
        drop(shared);
        assert!(!content.is_shared());
        assert!(content.memo().is_some());
        let buffer = content.as_ptr();
        content[0] = b'S';
        assert_eq!(content.as_ptr(), buffer, "mutated in place, no copy");
        assert!(content.memo().is_none());

        // Through the filesystem: the corpus handle is gone, so the node
        // owns the buffer outright when the write lands.
        let shared = crate::SharedContent::new(b"sole owner".to_vec());
        let mut fs = Vfs::with_namespace(1);
        fs.admin().stage_shared(&p("/docs/r.txt"), &shared).unwrap();
        drop(shared);
        assert_eq!(fs.shared_bytes(), 0, "the node is the unique owner");
        assert!(memo_at(&fs, "/docs/r.txt").is_some());
        let pid = fs.spawn_process("editor.exe");
        let h = fs.open(pid, &p("/docs/r.txt"), OpenOptions::modify()).unwrap();
        fs.write(pid, h, b"S").unwrap();
        fs.close(pid, h).unwrap();
        assert!(memo_at(&fs, "/docs/r.txt").is_none());
    }
}
