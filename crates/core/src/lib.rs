//! # CryptoDrop — early-warning ransomware detection on user data
//!
//! A reproduction of *"CryptoLock (and Drop It): Stopping Ransomware
//! Attacks on User Data"* (Scaife, Carter, Traynor, Butler — ICDCS 2016).
//!
//! CryptoDrop is "the first ransomware detection system that monitors user
//! data for changes that may indicate transformation rather than attempting
//! to identify ransomware by inspecting its execution". It interposes on
//! filesystem operations against the user's protected documents and scores
//! each process on a set of behaviour indicators:
//!
//! * **Primary indicators** (§III): [file type
//!   changes](indicators::type_change), [similarity
//!   collapse](indicators::similarity), and [write-over-read entropy
//!   deltas](indicators::entropy_delta).
//! * **Secondary indicators** (§III-D): [bulk deletion](indicators::deletion)
//!   and [file-type funneling](indicators::funneling).
//! * **Union indication** (§III-E): a process that trips all three primary
//!   indicators gets a score bonus and a lowered threshold — in the paper's
//!   evaluation no benign program ever tripped all three, while 93% of
//!   ransomware samples did.
//!
//! When a process's reputation score crosses its effective threshold, the
//! engine suspends it ("drops it"), bounding the victim's data loss — a
//! median of 10 of 5,099 files across the paper's 492 live samples.
//!
//! ## Quick start
//!
//! ```
//! use cryptodrop::CryptoDrop;
//! use cryptodrop_vfs::{OpenOptions, Vfs, VPath};
//!
//! // A filesystem with protected user documents.
//! let mut fs = Vfs::new();
//! let docs = VPath::new("/Users/victim/Documents");
//! for i in 0..50 {
//!     let body: Vec<u8> = (0..150u32)
//!         .flat_map(|l| format!("file {i} line {l}: quarterly figures\n").into_bytes())
//!         .collect();
//!     fs.admin().write_file(&docs.join(format!("report-{i}.txt")), &body).unwrap();
//! }
//!
//! // Arm CryptoDrop: build a validated Session, register a fork.
//! let session = CryptoDrop::builder()
//!     .protecting(docs.as_str())
//!     .build()
//!     .expect("valid config");
//! fs.register_filter(Box::new(session.fork()));
//!
//! // A ransomware-like process encrypts documents in place...
//! let pid = fs.spawn_process("cryptolocker.exe");
//! for i in 0..50 {
//!     let path = docs.join(format!("report-{i}.txt"));
//!     let Ok(h) = fs.open(pid, &path, OpenOptions::modify()) else { break };
//!     let Ok(data) = fs.read_to_end(pid, h) else { break };
//!     let ct: Vec<u8> = data
//!         .iter()
//!         .enumerate()
//!         .map(|(j, b)| b ^ (j as u8).wrapping_mul(197).wrapping_add(91))
//!         .collect();
//!     if fs.seek(pid, h, 0).is_err() || fs.write(pid, h, &ct).is_err() {
//!         let _ = fs.close(pid, h);
//!         break;
//!     }
//!     if fs.close(pid, h).is_err() {
//!         break;
//!     }
//! }
//!
//! // ...and is suspended after losing only a handful of files.
//! let report = session.detections().pop().expect("detected");
//! assert!(report.files_lost < 15);
//! assert!(fs.is_suspended(pid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::too_many_lines)]

pub mod audit;
pub mod baseline;
pub mod config;
pub mod engine;
pub mod indicators;
pub mod pipeline;
mod record;
pub mod session;
pub mod state;

pub use audit::{AuditEntry, AuditTrail};
pub use baseline::{
    BaselineAlert, EntropyOnlyDetector, EntropyOnlyHandle, IntegrityHandle, IntegrityMonitor,
};
pub use config::{Config, DecayPolicy, RateBudget, ScoreConfig, ThrottlePolicy};
pub use cryptodrop_recovery::{
    RecoveryAction, RecoveryConflict, RecoveryPlan, RecoveryReport, ShadowConfig, ShadowStats,
    ShadowStore,
};
pub use cryptodrop_telemetry::Telemetry;
pub use engine::{CacheStats, CryptoDrop, DetectionReport, Monitor};
pub use indicators::{Indicator, IndicatorHit};
pub use pipeline::{Backpressure, PipelineConfig, PipelineStats};
pub use session::{ConfigError, Session, SessionBuilder};
pub use state::{FileSnapshot, ProcessState, ProcessSummary};

/// Everything a typical embedding needs, in one import:
/// `use cryptodrop::prelude::*;`.
pub mod prelude {
    pub use crate::config::{Config, DecayPolicy, RateBudget, ScoreConfig, ThrottlePolicy};
    pub use crate::engine::{CryptoDrop, DetectionReport, Monitor};
    pub use crate::pipeline::{Backpressure, PipelineConfig, PipelineStats};
    pub use crate::session::{ConfigError, Session, SessionBuilder};
    pub use cryptodrop_recovery::{RecoveryReport, ShadowConfig, ShadowStore};
    pub use cryptodrop_telemetry::Telemetry;
    pub use cryptodrop_vfs::{
        ErrorKind, FsProvider, MemProvider, MountOptions, ProcessId, VPath, Verdict, Vfs,
        VfsError, VfsResult,
    };
}
