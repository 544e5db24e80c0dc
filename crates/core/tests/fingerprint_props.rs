//! Content identity: the fingerprint that recovery and the fleet corpus
//! dedup by never confuses distinct contents of one size, and the engine's
//! snapshot cache recomputes whenever the bytes actually changed.

use cryptodrop::CryptoDrop;
use cryptodrop_simhash::content_fingerprint;
use cryptodrop_vfs::{OpenOptions, VPath, Vfs};
use proptest::prelude::*;

proptest! {
    /// Distinct contents of the *same size* fingerprint differently —
    /// size is folded in but never stands in for the bytes.
    #[test]
    fn same_size_distinct_contents_distinct_fingerprints(
        a in proptest::collection::vec(any::<u8>(), 128usize..129),
        b in proptest::collection::vec(any::<u8>(), 128usize..129),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(content_fingerprint(&a), content_fingerprint(&b));
    }
}

/// Engine-level invariant: a close that wrote different bytes is always a
/// cache miss (full recompute); a close that wrote identical bytes is a
/// hit. The hit path never swallows a change.
#[test]
fn engine_cache_hit_never_skips_a_changed_file() {
    for changed in [false, true] {
        let mut fs = Vfs::new();
        let docs = VPath::new("/docs");
        let path = docs.join("a.txt");
        let content: Vec<u8> = (0..)
            .flat_map(|i| format!("paragraph {i} of a perfectly normal file\n").into_bytes())
            .take(4096)
            .collect();
        fs.admin().write_file(&path, &content).unwrap();
        let monitor = CryptoDrop::builder()
            .protecting("/docs")
            .build()
            .expect("valid config");
        fs.register_filter(Box::new(monitor.fork()));
        let pid = fs.spawn_process("editor.exe");

        let h = fs.open(pid, &path, OpenOptions::modify()).unwrap();
        let mut data = fs.read_to_end(pid, h).unwrap();
        if changed {
            data[0] ^= 0x01;
        }
        fs.seek(pid, h, 0).unwrap();
        fs.write(pid, h, &data).unwrap();
        fs.close(pid, h).unwrap();

        let stats = monitor.cache_stats();
        if changed {
            // pre_op capture and close-time refresh both recompute.
            assert_eq!(stats.hits, 0, "changed content must never hit: {stats:?}");
            assert_eq!(stats.misses, 2, "{stats:?}");
        } else {
            // pre_op capture misses (first sighting); the close hits.
            assert_eq!(stats.hits, 1, "{stats:?}");
            assert_eq!(stats.misses, 1, "{stats:?}");
        }
    }
}
