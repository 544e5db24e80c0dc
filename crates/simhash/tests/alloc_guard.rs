//! Allocation bound for sdhash digesting: feature selection runs on fixed
//! stack state, so a digest allocates its feature list and its Bloom
//! filters and nothing as long as the input.
//!
//! A counting `#[global_allocator]` adds up the bytes requested while
//! `compute_with_cache` digests 256 KiB. This lives in its own
//! integration-test binary because a global allocator is per-binary, and
//! the single `#[test]` keeps harness threads from polluting the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cryptodrop_simhash::SdDigest;

/// Counts requested bytes (allocations and reallocations, not frees)
/// while `ARMED` is set.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn digesting_allocates_per_feature_and_per_filter_only() {
    // Half structured text, half ciphertext-like noise: both feature
    // densities, and enough features for several filters.
    let mut s = 0x00A1_10C5_u64;
    let data: Vec<u8> = (0..256 * 1024)
        .map(|i: usize| {
            if (i / 4096).is_multiple_of(2) {
                b"quarterly revenue grew in every region; "[i % 40]
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s as u8
            }
        })
        .collect();
    // Warm-up: one-time table initialisation is not per-digest cost.
    SdDigest::compute_with_cache(&data[..4096]);

    ARMED.store(true, Ordering::SeqCst);
    let digest = SdDigest::compute_with_cache(&data);
    ARMED.store(false, Ordering::SeqCst);
    let bytes = BYTES.load(Ordering::SeqCst);

    let (digest, cache) = digest.expect("256 KiB of mixed content digests");
    assert!(digest.filter_count() > 1, "{} features", digest.features());
    assert_eq!(cache.feature_count(), digest.features());
    let budget = 128 * digest.features() as u64 + 512 * digest.filter_count() as u64 + 4096;
    assert!(
        bytes <= budget,
        "digesting 256 KiB allocated {bytes} B, over the {budget} B budget \
         ({} features, {} filters)",
        digest.features(),
        digest.filter_count()
    );
}
