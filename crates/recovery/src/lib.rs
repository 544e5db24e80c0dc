//! Shadow-copy recovery: the "Drop It" half of CryptoDrop.
//!
//! The paper's promise is that early detection *bounds data loss* — the
//! engine suspends a ransomware process after a median of ~10 files — but
//! bounding loss only matters if the victim can then get those files back.
//! This crate closes the loop:
//!
//! * [`ShadowStore`] — a copy-on-write pre-image journal wired into the
//!   VFS mutation path (via [`cryptodrop_vfs::ShadowSink`]). Every
//!   destructive operation a monitored process performs — full-content
//!   write, truncate, delete, rename-over — offers the bytes it is about
//!   to destroy. The store keeps the first pre-image of each (file,
//!   family) run of writes and counts every repeat as `coalesced`
//!   without hashing or copying it, since restore never reads one.
//!   Content is deduplicated by the engine's 64-bit fingerprints and
//!   bounded by a byte budget with LRU eviction. Shadows belonging to
//!   process families with nonzero reputation scores are *pinned*: the
//!   store refuses to evict exactly the pre-images a brewing detection is
//!   most likely to need.
//! * [`RecoveryPlan`] / [`ShadowStore::restore`] — on suspension, the
//!   store enumerates everything the suspect family touched and rolls the
//!   filesystem back byte-for-byte: suspect-created files are removed,
//!   renames are undone, and destroyed content is restored from shadows,
//!   while writes that a *benign* process made last are preserved.
//!
//! # Restore semantics (trailing-run rule)
//!
//! Processes share files, and detection may lag the attack (a deferred
//! analysis pipeline). Per file, the store restores the pre-image of the
//! *earliest operation in the maximal trailing run of suspect-authored
//! destructive ops*:
//!
//! * If the last destructive writer was benign, the file is left alone —
//!   benign data always wins.
//! * Otherwise everything the suspect did after the last benign write is
//!   undone in one step, restoring exactly the bytes that existed when
//!   the suspect's final assault on that file began.
//!
//! The rule makes the post-restore filesystem independent of *when* the
//! suspension landed (inline or reconciled later): any suspect ops that
//! slipped in while a verdict was in flight extend the trailing run and
//! are undone together.
//!
//! Runs never silently span lost history. An evicted pre-image, or one
//! whose capture failed at the start of a run, leaves a *tombstone* in
//! the file's history: who wrote, and where, but no bytes. A tombstone
//! still ends the previous run and still marks a benign last writer, and
//! a run that starts at one restores as an explicit
//! [`RecoveryConflict::ShadowEvicted`] instead of from a later,
//! already-overwritten pre-image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod store;

pub use plan::{RecoveryAction, RecoveryConflict, RecoveryPlan, RecoveryReport};
pub use store::{ShadowConfig, ShadowStats, ShadowStore};
