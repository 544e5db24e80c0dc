//! The bounded ring-buffer event journal.
//!
//! Every instrumented layer pushes [`JournalEvent`]s describing one
//! operation's journey: the operation itself, each filter's pre/post
//! verdict, the indicator contributions it earned, and the final
//! suspension. Events carry a global sequence number so the per-shard
//! rings can be merged back into one totally ordered timeline; when a ring
//! overflows its bounded capacity the oldest events are dropped and
//! counted, never blocking the writer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Ring shards. Writers pick a shard from the event's sequence number, so
/// bursts spread across locks instead of serializing on one.
const JOURNAL_SHARDS: usize = 8;

/// What a [`JournalEvent`] describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalKind {
    /// A filesystem operation completed.
    Op {
        /// Operation name (`open`, `write`, `close`, ...).
        op: String,
        /// Primary path the operation targeted.
        path: String,
        /// The stable inode identity the operation acted on, or `0` when
        /// the operation has none (directory listings, attribute changes,
        /// records written before this field existed).
        ino: u64,
    },
    /// One filter's pre-operation verdict.
    FilterPre {
        /// Filter name.
        filter: String,
        /// Operation name.
        op: String,
        /// Verdict: `allow`, `deny`, `throttle`, or `suspend`.
        verdict: String,
    },
    /// One filter's post-operation verdict.
    FilterPost {
        /// Filter name.
        filter: String,
        /// Operation name.
        op: String,
        /// Verdict: `allow`, `deny`, `throttle`, or `suspend`.
        verdict: String,
    },
    /// An indicator fired and contributed points.
    Indicator {
        /// Indicator name (`type-change`, `similarity`, ...).
        indicator: String,
        /// The measured value that crossed the threshold.
        value: f64,
        /// The threshold it was compared against.
        threshold: f64,
        /// Reputation points awarded.
        points: u32,
        /// The path that triggered the indicator.
        path: String,
    },
    /// A process was suspended.
    Suspension {
        /// The filter that suspended it.
        filter: String,
        /// The suspension reason.
        reason: String,
    },
    /// An analysis-pipeline shard queue was full and the producer degraded
    /// to inline processing (`Backpressure::DegradeToInline`).
    Backpressure {
        /// The saturated pipeline shard.
        shard: u64,
        /// The shard queue's bound at the moment of degradation.
        queued: u64,
    },
    /// The shadow store evicted a pre-image to honour its byte budget.
    ShadowEvict {
        /// Path of the evicted pre-image.
        path: String,
        /// Bytes the eviction released (0 if the blob is still referenced
        /// by another entry).
        bytes: u64,
    },
    /// A recovery action was applied while rolling back a suspect.
    Recovery {
        /// What happened: `restore`, `remove`, `rename-back`, or a
        /// conflict marker (`shadow-evicted`, `path-occupied`).
        action: String,
        /// Path the action concerned.
        path: String,
        /// Bytes written back (restores) or removed.
        bytes: u64,
    },
    /// A fault-injection subsystem decision fired, or a hardened layer
    /// absorbed a failure (worker respawn, capture degradation).
    Fault {
        /// The injection or recovery site (`vfs.io`, `shadow.capture`,
        /// `pipeline.worker`, `clock.latency`).
        site: String,
        /// What happened at the site.
        detail: String,
    },
    /// A score-decay policy held a would-be suspension below the line:
    /// the family's raw score had reached its threshold, but the score
    /// decayed to the operation's simulated time had not.
    ScoreDecay {
        /// The undecayed (permanent) reputation score.
        raw: u32,
        /// The score with every award aged to the operation's time.
        decayed: u32,
        /// The effective detection threshold at the check.
        threshold: u32,
    },
    /// A family's first-modification rate budget ran dry and a
    /// destructive operation was delayed on the simulated clock.
    RateBudget {
        /// Tokens remaining in the bucket (0 at emission).
        tokens: u32,
        /// The delay applied to this operation, nanoseconds.
        delay_nanos: u64,
    },
    /// A writing family inherited another family's read baseline for a
    /// file (the collusion defense: the reader pid's evidence follows
    /// the file to the writer).
    BaselineInherited {
        /// The file whose baseline was inherited.
        path: String,
        /// The pid that issued the reads the baseline was built from.
        reader_pid: u32,
    },
    /// A free-form marker (experiment phases, harness annotations).
    Note {
        /// Marker name.
        name: String,
        /// Marker detail.
        detail: String,
    },
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalEvent {
    /// Global sequence number (total order across shards).
    pub seq: u64,
    /// Simulated timestamp (nanoseconds) of the underlying operation.
    pub at_nanos: u64,
    /// The process the event concerns.
    pub pid: u32,
    /// The event payload.
    pub kind: JournalKind,
}

/// The sharded, bounded journal. See the [module docs](self).
#[derive(Debug)]
pub struct Journal {
    shards: [Mutex<VecDeque<JournalEvent>>; JOURNAL_SHARDS],
    seq: AtomicU64,
    per_shard_capacity: usize,
    dropped: AtomicU64,
}

impl Journal {
    /// A journal retaining at least `capacity` events.
    ///
    /// Capacity is distributed across the journal's 8 internal shard
    /// rings, **rounding up**: each shard holds
    /// `ceil(capacity / 8)` events, so the journal as a whole retains
    /// between `capacity` and `capacity + 7` events — never fewer than
    /// asked for. (`with_capacity(12)` keeps up to 16 events, so the 12
    /// most recent are always retained.) A capacity of 0 keeps nothing
    /// but still counts drops.
    ///
    /// Because events shard by sequence number round-robin, the retained
    /// set under overflow is the newest tail of every shard — a uniform
    /// sample of the most recent events, not an exact global suffix.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            seq: AtomicU64::new(0),
            per_shard_capacity: capacity.div_ceil(JOURNAL_SHARDS),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends an event, evicting the shard's oldest entry if the ring is
    /// full. Returns the event's sequence number.
    pub fn push(&self, at_nanos: u64, pid: u32, kind: JournalKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = JournalEvent {
            seq,
            at_nanos,
            pid,
            kind,
        };
        let mut ring = self.shards[(seq % JOURNAL_SHARDS as u64) as usize].lock();
        if ring.len() >= self.per_shard_capacity {
            if ring.pop_front().is_some() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            if self.per_shard_capacity == 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return seq;
            }
        }
        ring.push_back(event);
        seq
    }

    /// Every retained event, merged across shards into sequence order.
    pub fn events(&self) -> Vec<JournalEvent> {
        let mut all: Vec<JournalEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Retained events concerning one pid, in sequence order.
    pub fn events_for(&self, pid: u32) -> Vec<JournalEvent> {
        let mut v = self.events();
        v.retain(|e| e.pid == pid);
        v
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed (including dropped ones).
    pub fn total_pushed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events dropped to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Renders the retained timeline as JSON Lines (one event per line,
    /// sequence order) — the journal's export format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            if let Ok(line) = serde_json::to_string(&e) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(name: &str) -> JournalKind {
        JournalKind::Note {
            name: name.to_string(),
            detail: String::new(),
        }
    }

    #[test]
    fn events_merge_in_sequence_order() {
        let j = Journal::with_capacity(1024);
        for i in 0..100 {
            j.push(i, 7, note(&format!("e{i}")));
        }
        let events = j.events();
        assert_eq!(events.len(), 100);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.total_pushed(), 100);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let j = Journal::with_capacity(16); // 2 per shard
        for i in 0..64 {
            j.push(i, 1, note("x"));
        }
        assert_eq!(j.len(), 16);
        assert_eq!(j.dropped(), 48);
        // What survives is the newest tail of each shard.
        let min_seq = j.events().first().unwrap().seq;
        assert!(min_seq >= 32, "oldest events must be gone, min={min_seq}");
    }

    #[test]
    fn pid_filter_and_jsonl_shape() {
        let j = Journal::with_capacity(64);
        j.push(5, 1, note("a"));
        j.push(6, 2, note("b"));
        j.push(7, 1, note("c"));
        assert_eq!(j.events_for(1).len(), 2);
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(jsonl.contains("\"Note\""));
    }

    #[test]
    fn indivisible_capacity_rounds_up_not_down() {
        // 12 does not divide by the 8 shards: per-shard capacity must
        // round up to 2 (16 total), not down to 1 (8 total) — the journal
        // holds at least as many events as asked for.
        let j = Journal::with_capacity(12);
        for i in 0..12 {
            j.push(i, 1, note("x"));
        }
        assert_eq!(j.len(), 12, "with_capacity(12) must hold 12 events");
        assert_eq!(j.dropped(), 0);
        // A capacity below the shard count still retains that many.
        let j = Journal::with_capacity(3);
        for i in 0..3 {
            j.push(i, 1, note("y"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn fault_kind_round_trips_through_jsonl() {
        let j = Journal::with_capacity(8);
        j.push(
            1,
            4,
            JournalKind::Fault {
                site: "pipeline.worker".to_string(),
                detail: "respawned after panic".to_string(),
            },
        );
        let jsonl = j.to_jsonl();
        assert!(jsonl.contains("\"Fault\""));
        assert!(jsonl.contains("pipeline.worker"));
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let j = Journal::with_capacity(0);
        for i in 0..10 {
            j.push(i, 1, note("x"));
        }
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 10);
        assert_eq!(j.total_pushed(), 10);
    }
}
