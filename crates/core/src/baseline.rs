//! Baseline detectors the paper positions CryptoDrop against (§II).
//!
//! * [`IntegrityMonitor`] — a Tripwire-style file integrity checker
//!   (Kim & Spafford 1994): hash every protected file, alert on any
//!   change. The paper's critique: "these monitors are based on simple
//!   hash comparisons and fail to distinguish between legitimate file
//!   accesses and malicious modifications ... user data is expected to
//!   change frequently. Accordingly, this type of integrity monitoring is
//!   likely to be noisy and frustrate the user."
//! * [`EntropyOnlyDetector`] — the single-signal detector implicit in the
//!   entropy-analysis literature the paper cites (Lyda & Hamrock 2007):
//!   flag processes that write high-entropy data. The paper's critique is
//!   §III's broader point — any one indicator in isolation either fires
//!   on benign software (compressors, media encoders) or misses variants
//!   (low-entropy transforms).
//!
//! Both implement [`FilterDriver`] so the comparison harness can run them
//! on exactly the workloads CryptoDrop sees.

use std::collections::HashMap;
use std::sync::Arc;

use cryptodrop_entropy::shannon_entropy;
use cryptodrop_simhash::hash::sha1_words;
use cryptodrop_vfs::{
    FileId, FilterDriver, FsOp, FsView, OpContext, OpOutcome, ProcessId, VPath, Verdict,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// An alert raised by a baseline detector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineAlert {
    /// The process that triggered the alert.
    pub pid: ProcessId,
    /// Its executable name.
    pub process_name: String,
    /// The path involved.
    pub path: String,
    /// Why the alert fired.
    pub reason: String,
    /// Simulated timestamp.
    pub at_nanos: u64,
}

// ---------------------------------------------------------------------
// Tripwire-style integrity monitor
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct IntegrityState {
    /// file id -> SHA-1 of the content first seen at that id.
    hashes: HashMap<FileId, [u32; 5]>,
    alerts: Vec<BaselineAlert>,
}

/// A Tripwire-style integrity monitor over a protected directory: records
/// a cryptographic hash of each file's first-seen content and alerts on
/// *any* subsequent change or deletion. Configurably suspends the
/// offending process after a number of alerts (Tripwire itself only
/// reports; the suspension knob makes loss numbers comparable with
/// CryptoDrop's).
pub struct IntegrityMonitor {
    protected: VPath,
    /// Alerts tolerated before suspension; `None` never suspends.
    suspend_after: Option<u32>,
    state: Arc<Mutex<IntegrityState>>,
}

/// Read handle onto an [`IntegrityMonitor`]'s alerts.
#[derive(Clone)]
pub struct IntegrityHandle {
    state: Arc<Mutex<IntegrityState>>,
}

impl IntegrityMonitor {
    /// Creates a monitor over `protected`, suspending the offender after
    /// `suspend_after` alerts (or never, with `None`).
    pub fn new(protected: VPath, suspend_after: Option<u32>) -> (Self, IntegrityHandle) {
        let state = Arc::new(Mutex::new(IntegrityState::default()));
        (
            Self {
                protected,
                suspend_after,
                state: Arc::clone(&state),
            },
            IntegrityHandle { state },
        )
    }
}

impl IntegrityHandle {
    /// All alerts so far.
    pub fn alerts(&self) -> Vec<BaselineAlert> {
        self.state.lock().alerts.clone()
    }

    /// Number of alerts so far.
    pub fn alert_count(&self) -> usize {
        self.state.lock().alerts.len()
    }
}

impl FilterDriver for IntegrityMonitor {
    fn name(&self) -> &str {
        "integrity-monitor"
    }

    fn pre_op(&mut self, ctx: &OpContext<'_>, fs: &FsView<'_>) -> Verdict {
        // Record the baseline hash the first time a protected file is
        // opened (Tripwire's initial database, built lazily).
        if let FsOp::Open { path, .. } = ctx.op {
            if path.starts_with(&self.protected) {
                if let Ok(meta) = fs.metadata(path) {
                    if let (Some(id), Ok(data)) = (meta.file, fs.read_file(path)) {
                        self.state
                            .lock()
                            .state_entry(id)
                            .or_insert_with(|| sha1_words(&data));
                    }
                }
            }
        }
        Verdict::Allow
    }

    fn post_op(&mut self, ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, fs: &FsView<'_>) -> Verdict {
        let (path, file) = match (ctx.op, outcome) {
            (FsOp::Close { path, modified: true }, OpOutcome::Close { file, .. }) => (path, *file),
            (FsOp::Delete { path }, OpOutcome::Delete { file, .. }) => (path, *file),
            _ => return Verdict::Allow,
        };
        if !path.starts_with(&self.protected) {
            return Verdict::Allow;
        }
        let mut st = self.state.lock();
        let Some(&baseline) = st.hashes.get(&file) else {
            return Verdict::Allow; // a file this monitor never baselined
        };
        let changed = match fs.read_file(path) {
            Ok(current) => sha1_words(&current) != baseline,
            Err(_) => true, // deleted
        };
        if changed {
            st.alerts.push(BaselineAlert {
                pid: ctx.pid,
                process_name: ctx.process_name.to_string(),
                path: path.as_str().to_string(),
                reason: "integrity hash mismatch".to_string(),
                at_nanos: ctx.at_nanos,
            });
            // Re-baseline so each change alerts once, as Tripwire's
            // update mode would.
            if let Ok(current) = fs.read_file(path) {
                st.hashes.insert(file, sha1_words(&current));
            }
            if let Some(limit) = self.suspend_after {
                let offender = st
                    .alerts
                    .iter()
                    .filter(|a| a.pid == ctx.pid)
                    .count() as u32;
                if offender >= limit {
                    return Verdict::suspend(format!("integrity-monitor: {offender} modified files"));
                }
            }
        }
        Verdict::Allow
    }
}

impl IntegrityState {
    fn state_entry(&mut self, id: FileId) -> std::collections::hash_map::Entry<'_, FileId, [u32; 5]> {
        self.hashes.entry(id)
    }
}

// ---------------------------------------------------------------------
// Entropy-only detector
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct EntropyOnlyState {
    high_entropy_bytes: HashMap<ProcessId, u64>,
    alerts: Vec<BaselineAlert>,
    flagged: std::collections::HashSet<ProcessId>,
}

/// A single-signal detector: flag any process whose cumulative
/// high-entropy writes (> `entropy_floor` bits/byte) into the protected
/// tree exceed `byte_budget`.
pub struct EntropyOnlyDetector {
    protected: VPath,
    entropy_floor: f64,
    byte_budget: u64,
    state: Arc<Mutex<EntropyOnlyState>>,
}

/// Read handle onto an [`EntropyOnlyDetector`]'s alerts.
#[derive(Clone)]
pub struct EntropyOnlyHandle {
    state: Arc<Mutex<EntropyOnlyState>>,
}

impl EntropyOnlyDetector {
    /// Creates a detector flagging processes that write more than
    /// `byte_budget` bytes of > `entropy_floor` data under `protected`.
    pub fn new(
        protected: VPath,
        entropy_floor: f64,
        byte_budget: u64,
    ) -> (Self, EntropyOnlyHandle) {
        let state = Arc::new(Mutex::new(EntropyOnlyState::default()));
        (
            Self {
                protected,
                entropy_floor,
                byte_budget,
                state: Arc::clone(&state),
            },
            EntropyOnlyHandle { state },
        )
    }
}

impl EntropyOnlyHandle {
    /// All alerts so far (one per flagged process).
    pub fn alerts(&self) -> Vec<BaselineAlert> {
        self.state.lock().alerts.clone()
    }

    /// Whether a given process was flagged.
    pub fn flagged(&self, pid: ProcessId) -> bool {
        self.state.lock().flagged.contains(&pid)
    }
}

impl FilterDriver for EntropyOnlyDetector {
    fn name(&self) -> &str {
        "entropy-only"
    }

    fn post_op(&mut self, ctx: &OpContext<'_>, outcome: &OpOutcome<'_>, _fs: &FsView<'_>) -> Verdict {
        let (FsOp::Write { path, data, .. }, OpOutcome::Write { .. }) = (ctx.op, outcome) else {
            return Verdict::Allow;
        };
        if !path.starts_with(&self.protected) || data.is_empty() {
            return Verdict::Allow;
        }
        if shannon_entropy(data) < self.entropy_floor {
            return Verdict::Allow;
        }
        let mut st = self.state.lock();
        let total = *st
            .high_entropy_bytes
            .entry(ctx.pid)
            .and_modify(|b| *b += data.len() as u64)
            .or_insert(data.len() as u64);
        if total > self.byte_budget && st.flagged.insert(ctx.pid) {
            st.alerts.push(BaselineAlert {
                pid: ctx.pid,
                process_name: ctx.process_name.to_string(),
                path: path.as_str().to_string(),
                reason: format!("{total} bytes of high-entropy writes"),
                at_nanos: ctx.at_nanos,
            });
            return Verdict::suspend("entropy-only: high-entropy write budget exceeded");
        }
        Verdict::Allow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptodrop_vfs::{OpenOptions, Vfs};

    fn setup() -> (Vfs, VPath) {
        let mut fs = Vfs::new();
        let docs = VPath::new("/docs");
        for i in 0..10 {
            let body: Vec<u8> = (0..100u32)
                .flat_map(|l| format!("doc {i} line {l} everyday words\n").into_bytes())
                .collect();
            fs.admin().write_file(&docs.join(format!("f{i}.txt")), &body).unwrap();
        }
        (fs, docs)
    }

    fn high_entropy(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn integrity_monitor_alerts_on_any_change() {
        let (mut fs, docs) = setup();
        let (mon, handle) = IntegrityMonitor::new(docs.clone(), None);
        fs.register_filter(Box::new(mon));
        let pid = fs.spawn_process("editor.exe");

        // A perfectly benign edit alerts — the paper's noise critique.
        let path = docs.join("f0.txt");
        let mut data = fs.read_file(pid, &path).unwrap();
        data.extend_from_slice(b"one more line\n");
        fs.write_file(pid, &path, &data).unwrap();
        assert_eq!(handle.alert_count(), 1);

        // Deletion alerts too.
        fs.delete(pid, &docs.join("f1.txt")).unwrap_or_else(|e| {
            // f1 must be baselined first: open it read-only, then delete.
            panic!("delete failed: {e}")
        });
        // f1 was never opened, so it was never baselined: no alert.
        assert_eq!(handle.alert_count(), 1);

        // Open-then-delete alerts.
        let p2 = docs.join("f2.txt");
        let h = fs.open(pid, &p2, OpenOptions::read()).unwrap();
        fs.close(pid, h).unwrap();
        fs.delete(pid, &p2).unwrap();
        assert_eq!(handle.alert_count(), 2);
    }

    #[test]
    fn integrity_monitor_rebaselines_after_alert() {
        let (mut fs, docs) = setup();
        let (mon, handle) = IntegrityMonitor::new(docs.clone(), None);
        fs.register_filter(Box::new(mon));
        let pid = fs.spawn_process("editor.exe");
        let path = docs.join("f0.txt");
        for round in 0..3 {
            let data = format!("version {round}").into_bytes();
            fs.write_file(pid, &path, &data).unwrap();
        }
        assert_eq!(handle.alert_count(), 3, "one alert per distinct change");
    }

    #[test]
    fn integrity_monitor_can_suspend() {
        let (mut fs, docs) = setup();
        let (mon, _handle) = IntegrityMonitor::new(docs.clone(), Some(3));
        fs.register_filter(Box::new(mon));
        let pid = fs.spawn_process("bulk.exe");
        let mut blocked = false;
        for i in 0..10 {
            let path = docs.join(format!("f{i}.txt"));
            if fs.write_file(pid, &path, &high_entropy(256, i as u64 + 1)).is_err() {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "suspension engaged after the alert budget");
        assert!(fs.is_suspended(pid));
    }

    #[test]
    fn entropy_only_flags_bulk_high_entropy_writers() {
        let (mut fs, docs) = setup();
        let (det, handle) = EntropyOnlyDetector::new(docs.clone(), 7.0, 16 * 1024);
        fs.register_filter(Box::new(det));
        let pid = fs.spawn_process("packer.exe");
        let mut blocked = false;
        for i in 0..20 {
            let path = docs.join(format!("out{i}.bin"));
            if fs
                .write_file(pid, &path, &high_entropy(4096, 100 + i as u64))
                .is_err()
            {
                blocked = true;
                break;
            }
        }
        assert!(blocked);
        assert!(handle.flagged(pid));
        assert_eq!(handle.alerts().len(), 1);
    }

    #[test]
    fn entropy_only_misses_low_entropy_transforms() {
        // The single-byte-XOR blind spot: byte-value permutation keeps
        // entropy identical, so an entropy-only detector sees nothing —
        // while CryptoDrop's type-change and similarity indicators fire.
        let (mut fs, docs) = setup();
        let (det, handle) = EntropyOnlyDetector::new(docs.clone(), 7.0, 16 * 1024);
        fs.register_filter(Box::new(det));
        let pid = fs.spawn_process("xorist1b.exe");
        for i in 0..10 {
            let path = docs.join(format!("f{i}.txt"));
            let Ok(data) = fs.read_file(pid, &path) else { continue };
            let xored: Vec<u8> = data.iter().map(|b| b ^ 0x5A).collect();
            fs.write_file(pid, &path, &xored).unwrap();
        }
        assert!(!handle.flagged(pid), "entropy-only is blind to this variant");
        assert!(handle.alerts().is_empty());
        assert!(!fs.is_suspended(pid));
    }

    #[test]
    fn entropy_only_ignores_activity_outside_scope() {
        let (mut fs, docs) = setup();
        let (det, handle) = EntropyOnlyDetector::new(docs, 7.0, 1024);
        fs.register_filter(Box::new(det));
        let pid = fs.spawn_process("builder.exe");
        fs.create_dir_all(pid, &VPath::new("/build")).unwrap();
        for i in 0..20 {
            fs.write_file(
                pid,
                &VPath::new(format!("/build/o{i}.bin")),
                &high_entropy(4096, i as u64 + 7),
            )
            .unwrap();
        }
        assert!(handle.alerts().is_empty());
    }
}
