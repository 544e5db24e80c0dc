//! Allocation guard: the steady-state filtered modify cycle is heap-
//! allocation-free.
//!
//! The per-operation fast paths — the memcmp save-unchanged short
//! circuit in `Vfs::write`, the stack-fold entropy computation, the
//! stamp-probe open (no snapshot clone when the file shard already
//! holds identical content), and the tier-1 stamp-unchanged close —
//! are supposed to run without touching the allocator once every cache
//! is warm. A counting `#[global_allocator]` proves it: after a
//! warm-up pass, a full open → write-same → close sweep over the
//! working set must perform exactly zero heap allocations.
//!
//! This lives in its own integration-test binary because a global
//! allocator is per-binary, and the single `#[test]` keeps harness
//! threads from polluting the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cryptodrop::CryptoDrop;
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_vfs::{OpenOptions, Vfs};

/// Counts allocations (not deallocations: freeing warm-up buffers
/// during the armed window is fine) while `ARMED` is set.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_filtered_modify_cycle_allocates_nothing() {
    let corpus = Corpus::generate(&CorpusSpec::sized(100, 10));
    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .build()
        .expect("valid config");

    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("staging succeeds");
    fs.register_filter(Box::new(session.fork()));
    let pid = fs.spawn_process("editor.exe");

    // Warm-up: three full read-modify-write cycles over the working set
    // fill the snapshot cache, size every scratch buffer, and leave the
    // per-file content in hand for the armed sweep.
    let mut working_set = Vec::new();
    for round in 0..3 {
        working_set.clear();
        for f in corpus.files().iter().take(20) {
            if f.read_only {
                continue;
            }
            let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
                continue;
            };
            let data = fs.read_to_end(pid, h).unwrap_or_default();
            let _ = fs.seek(pid, h, 0);
            let _ = fs.write(pid, h, &data);
            let _ = fs.close(pid, h);
            if round == 2 {
                working_set.push((f.path.clone(), data));
            }
        }
    }
    assert!(working_set.len() >= 10, "corpus must yield a working set");

    // The armed sweep: the editor's save-unchanged steady state. Every
    // write carries identical content (memcmp short circuit, stamp
    // untouched), every close takes the tier-1 stamp-unchanged path.
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        for (path, data) in &working_set {
            let h = fs.open(pid, path, OpenOptions::modify()).expect("reopen");
            fs.write(pid, h, data).expect("write");
            fs.close(pid, h).expect("close");
        }
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        allocations, 0,
        "steady-state filtered modify cycle must not allocate \
         ({allocations} allocations across {} open/write/close triples)",
        5 * working_set.len()
    );
}
