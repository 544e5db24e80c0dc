//! Adversarial workloads for the CryptoDrop reproduction.
//!
//! The paper evaluates CryptoDrop against ransomware that behaves like
//! ransomware: it reads documents, writes ciphertext, and destroys the
//! originals as fast as it can. This crate asks the follow-up question an
//! attacker would ask — *which indicator can I starve?* — and the question
//! a deployment would ask — *which honest application looks worst?* Both
//! sides are expressed as [`Workload`] implementations, so the experiments
//! runner, the fleet tenants, and the deception study drive them exactly
//! like the 492 paper samples and the Figure 6 applications.
//!
//! # Evasive strategies ([`evasive`])
//!
//! * [`PartialEncryptor`] — LockBit-style first-N-KiB encryption. The
//!   tail of every file survives, so the similarity indicator keeps
//!   matching and the union indication never completes.
//! * [`SlowRoll`] — full encryption spread over hours of simulated
//!   clock, pausing between victims. Score accumulation is time-blind,
//!   but rate- or window-based defenses are not.
//! * [`Collusion`] — a reader process and a writer process split the
//!   attack. The writer never reads and the reader never writes, so
//!   neither accumulates a complete indicator set on its own; per-file
//!   read-baseline inheritance is the engine defense that rejoins the
//!   split evidence.
//! * [`LowEntropyEncoder`] — encrypt-then-hex-armor. Ciphertext leaves
//!   the process at 4.0 bits/byte, below most document entropies, so the
//!   entropy-delta indicator never fires.
//!
//! # Benign heavy-writers ([`heavy`])
//!
//! * [`BackupMirror`] — reads the whole protected tree, archives it
//!   outside the tree (reads-only from the filter's perspective).
//! * [`CompressorSweep`] — `gzip -k`-style sweep writing high-entropy
//!   siblings next to the originals, which it keeps.
//! * [`SoftwareUpdater`] — in-place delta patches: high similarity, no
//!   type change, near-zero entropy delta.
//! * [`LogRotator`] — low-entropy appends plus a rotation that renames
//!   and deletes within the deletion allowance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evasive;
pub mod heavy;

pub use evasive::{Collusion, LowEntropyEncoder, PartialEncryptor, SlowRoll};
pub use heavy::{BackupMirror, CompressorSweep, LogRotator, SoftwareUpdater};

use cryptodrop_vfs::Workload;

/// The four evasive strategies at their report-stable default settings.
pub fn evasive_suite() -> Vec<Box<dyn Workload + Send + Sync>> {
    vec![
        Box::new(PartialEncryptor::default()),
        Box::new(SlowRoll::default()),
        Box::new(Collusion::default()),
        Box::new(LowEntropyEncoder::default()),
    ]
}

/// The four benign heavy-writer stress workloads at their defaults.
pub fn heavy_writer_suite() -> Vec<Box<dyn Workload + Send + Sync>> {
    vec![
        Box::new(BackupMirror::default()),
        Box::new(CompressorSweep::default()),
        Box::new(SoftwareUpdater::default()),
        Box::new(LogRotator::default()),
    ]
}
