//! Shared, deduplicated file content for multi-namespace deployments.
//!
//! A fleet hosting thousands of monitored namespaces in one process cannot
//! afford a materialized copy of the protected corpus per namespace. This
//! module provides the two pieces that make the corpus copy-on-write:
//!
//! * [`SharedContent`] — one immutable, reference-counted buffer plus its
//!   precomputed [`content_stamp`], stageable into
//!   any number of filesystems through
//!   [`AdminView::stage_shared`](crate::AdminView::stage_shared) at O(1)
//!   cost per mount. A namespace that later writes the file materializes a
//!   private copy on first mutation (see `node::Content`); until then the
//!   bytes exist exactly once.
//! * [`BlobStore`] — a fingerprint-keyed, explicitly reference-counted
//!   blob map, generalized from the recovery shadow store's deduplicated
//!   pre-image blobs so the capture journal and fleet corpus staging share
//!   one implementation.
//! * [`MemoSlot`] — a lazily filled, type-erased slot travelling with a
//!   [`SharedContent`] into every namespace it is staged in, so a filter
//!   can analyse the staged bytes once for all of them (see
//!   [`FsView::file_memo`](crate::FsView::file_memo)).

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::dirty::content_stamp;

/// A write-once memo of some analysis of one staged buffer, shared by
/// every namespace the buffer is staged in.
///
/// The VFS never fills or reads the value: it only attaches the slot at
/// [`AdminView::stage_shared`](crate::AdminView::stage_shared) and
/// detaches it from a node before any byte of that node changes. A slot a
/// filter obtains through [`FsView::file_memo`](crate::FsView::file_memo)
/// therefore always describes bytes equal to the ones staged. The slot
/// holds no reference to the bytes themselves, so a filled memo leaves
/// the byte accounting unchanged.
#[derive(Clone, Default)]
pub struct MemoSlot(Arc<OnceLock<Arc<dyn Any + Send + Sync>>>);

impl MemoSlot {
    /// The memo, if some filter has filled it.
    pub fn get(&self) -> Option<&Arc<dyn Any + Send + Sync>> {
        self.0.get()
    }

    /// The memo, computed by `init` if the slot is still empty. Concurrent
    /// callers block until the first `init` finishes and all see its value.
    pub fn get_or_init(
        &self,
        init: impl FnOnce() -> Arc<dyn Any + Send + Sync>,
    ) -> &Arc<dyn Any + Send + Sync> {
        self.0.get_or_init(init)
    }

    /// Whether `self` and `other` are the same slot.
    #[cfg(test)]
    pub(crate) fn same_slot(&self, other: &MemoSlot) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for MemoSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoSlot")
            .field("filled", &self.0.get().is_some())
            .finish()
    }
}

/// Immutable file content staged once and mounted into many namespaces.
///
/// Carries the buffer's [`content_stamp`] so each
/// mount is a refcount bump plus a stamp copy — no per-namespace O(n)
/// hashing pass over the corpus — and one [`MemoSlot`] that every mount
/// shares.
#[derive(Debug, Clone)]
pub struct SharedContent {
    bytes: Arc<Vec<u8>>,
    stamp: u64,
    memo: MemoSlot,
}

impl SharedContent {
    /// Wraps `data`, computing its content stamp once.
    pub fn new(data: Vec<u8>) -> Self {
        Self::from_arc(Arc::new(data))
    }

    /// Wraps an already-shared buffer (e.g. one held by a [`BlobStore`]),
    /// computing its content stamp once.
    pub fn from_arc(bytes: Arc<Vec<u8>>) -> Self {
        let stamp = content_stamp(&bytes);
        Self {
            bytes,
            stamp,
            memo: MemoSlot::default(),
        }
    }

    /// The content bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the content is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The precomputed content stamp.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// How many handles currently alias the buffer (this one included).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.bytes)
    }

    /// The underlying shared buffer.
    pub(crate) fn handle(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.bytes)
    }

    /// The memo slot every staging of this content shares.
    pub(crate) fn memo(&self) -> &MemoSlot {
        &self.memo
    }
}

#[derive(Debug)]
struct Blob {
    bytes: Arc<Vec<u8>>,
    refs: usize,
}

/// A `(fingerprint, length)`-keyed, explicitly reference-counted blob map.
///
/// Callers supply the fingerprint (any stable 64-bit content hash — the
/// recovery store uses `content_fingerprint`), so this crate stays free of
/// a hashing dependency. [`acquire_with`](Self::acquire_with) either bumps
/// an existing blob's refcount (dedup hit, no new bytes) or materializes
/// the content once; [`release`](Self::release) drops a reference and
/// frees the bytes when the last one goes. `bytes_held` therefore counts
/// every byte exactly once however many entries reference it.
#[derive(Debug, Default)]
pub struct BlobStore {
    blobs: HashMap<(u64, u64), Blob>,
    bytes_held: u64,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The blob under `(fp, len)`, if resident.
    pub fn get(&self, fp: u64, len: u64) -> Option<Arc<Vec<u8>>> {
        self.blobs.get(&(fp, len)).map(|b| Arc::clone(&b.bytes))
    }

    /// The number of references held on `(fp, len)` (0 if absent).
    pub fn ref_count(&self, fp: u64, len: u64) -> usize {
        self.blobs.get(&(fp, len)).map_or(0, |b| b.refs)
    }

    /// Acquires one reference on `(fp, len)`, materializing the content
    /// via `make` only when the blob is not yet resident. `make` must
    /// produce exactly `len` bytes whose fingerprint is `fp`. Returns the
    /// blob and whether this was a dedup hit (no new bytes stored).
    pub fn acquire_with(
        &mut self,
        fp: u64,
        len: u64,
        make: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        match self.blobs.get_mut(&(fp, len)) {
            Some(blob) => {
                blob.refs += 1;
                (Arc::clone(&blob.bytes), true)
            }
            None => {
                let bytes = Arc::new(make());
                self.blobs.insert(
                    (fp, len),
                    Blob {
                        bytes: Arc::clone(&bytes),
                        refs: 1,
                    },
                );
                self.bytes_held += len;
                (bytes, false)
            }
        }
    }

    /// Releases one reference on `(fp, len)`, returning the bytes freed
    /// (0 while other references remain, or if the blob is absent).
    pub fn release(&mut self, fp: u64, len: u64) -> u64 {
        match self.blobs.get_mut(&(fp, len)) {
            Some(blob) if blob.refs > 1 => {
                blob.refs -= 1;
                0
            }
            Some(_) => {
                self.blobs.remove(&(fp, len));
                self.bytes_held -= len;
                len
            }
            None => 0,
        }
    }

    /// Unique bytes currently resident across all blobs.
    pub fn bytes_held(&self) -> u64 {
        self.bytes_held
    }

    /// Number of distinct blobs resident.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_content_precomputes_the_stamp() {
        let c = SharedContent::new(b"hello world".to_vec());
        assert_eq!(c.stamp(), content_stamp(b"hello world"));
        assert_eq!(c.len(), 11);
        assert!(!c.is_empty());
        assert_eq!(c.as_slice(), b"hello world");
        let d = c.clone();
        assert_eq!(d.ref_count(), 2, "clones alias the buffer");
    }

    #[test]
    fn blob_store_dedups_and_refcounts() {
        let mut store = BlobStore::new();
        let (a, hit) = store.acquire_with(7, 3, || b"abc".to_vec());
        assert!(!hit);
        let (b, hit) = store.acquire_with(7, 3, || panic!("must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b), "dedup returns the same buffer");
        assert_eq!(store.bytes_held(), 3, "shared bytes count once");
        assert_eq!(store.ref_count(7, 3), 2);
        assert_eq!(store.release(7, 3), 0, "first release frees nothing");
        assert_eq!(store.release(7, 3), 3, "last release frees the blob");
        assert_eq!(store.bytes_held(), 0);
        assert!(store.is_empty());
        assert_eq!(store.release(7, 3), 0, "releasing an absent blob is a no-op");
    }

    #[test]
    fn distinct_blobs_accumulate() {
        let mut store = BlobStore::new();
        store.acquire_with(1, 4, || b"aaaa".to_vec());
        store.acquire_with(2, 2, || b"bb".to_vec());
        assert_eq!(store.blob_count(), 2);
        assert_eq!(store.bytes_held(), 6);
        assert!(store.get(1, 4).is_some());
        assert!(store.get(9, 9).is_none());
    }
}
