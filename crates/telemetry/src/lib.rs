//! # cryptodrop-telemetry — observability for the CryptoDrop stack
//!
//! Production ransomware monitors treat per-process telemetry and an
//! auditable event trail as first-class; this crate provides both layers
//! for the reproduction:
//!
//! * a **metric registry** ([`metrics`]) of named counters, gauges, and
//!   log₂-bucketed latency histograms — registration takes a short lock
//!   once, every recording afterwards is a single relaxed atomic;
//! * a **bounded ring-buffer journal** ([`journal`]) capturing each
//!   operation's journey (op → filter pre/post verdicts → indicator
//!   contributions → suspension) with JSONL export.
//!
//! Both sit behind one cloneable [`Telemetry`] handle. The registry is the
//! one place a count lives: counters, gauges and value histograms record
//! whether or not the handle is enabled, through handles resolved once.
//! Enablement, a single relaxed atomic load, gates
//! only what costs more than that: with telemetry disabled (the default
//! for [`Telemetry::disabled`]) timers and the journal are off, so
//! instrumented code skips every clock read through
//! [`Telemetry::start_timer`] and every event built for
//! [`Telemetry::journal_event`]. The `BENCH_telemetry.json` bench
//! quantifies that disabled-path cost.
//!
//! ```
//! use cryptodrop_telemetry::{JournalKind, Telemetry};
//!
//! let tel = Telemetry::new(1024);
//! tel.counter("ops").inc();
//! tel.journal().push(42, 7, JournalKind::Note {
//!     name: "phase".into(),
//!     detail: "staging".into(),
//! });
//! assert_eq!(tel.metrics().snapshot().counters["ops"], 1);
//! assert_eq!(tel.journal().events_for(7).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod metrics;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use journal::{Journal, JournalEvent, JournalKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricsSnapshot, Registry,
};

/// Default journal capacity (events retained) for [`Telemetry::new`] when
/// callers have no better number.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 64 * 1024;

struct Shared {
    enabled: AtomicBool,
    metrics: Registry,
    journal: Journal,
}

/// One cloneable handle onto a shared telemetry sink. See the
/// [crate docs](crate).
#[derive(Clone)]
pub struct Telemetry {
    shared: Arc<Shared>,
}

impl Telemetry {
    /// An **enabled** sink whose journal retains at most
    /// `journal_capacity` events.
    pub fn new(journal_capacity: usize) -> Self {
        Self::build(true, journal_capacity)
    }

    /// A **disabled** sink: timers and the journal are off, while
    /// counters, gauges and value histograms still record. Enablement can
    /// be flipped later with [`Telemetry::set_enabled`].
    pub fn disabled() -> Self {
        Self::build(false, DEFAULT_JOURNAL_CAPACITY)
    }

    fn build(enabled: bool, journal_capacity: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(enabled),
                metrics: Registry::default(),
                journal: Journal::with_capacity(journal_capacity),
            }),
        }
    }

    /// Whether timers and the journal currently record. This is the
    /// hot-path gate: a single relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Turns timers and the journal on or off at runtime. All clones
    /// share the switch.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The metric registry.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Shorthand for [`Registry::counter`].
    pub fn counter(&self, name: &str) -> Counter {
        self.shared.metrics.counter(name)
    }

    /// Shorthand for [`Registry::gauge`].
    pub fn gauge(&self, name: &str) -> Gauge {
        self.shared.metrics.gauge(name)
    }

    /// Shorthand for [`Registry::histogram`].
    pub fn histogram(&self, name: &str) -> Histogram {
        self.shared.metrics.histogram(name)
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.shared.journal
    }

    /// Appends a journal event **if enabled**; the common probe shape.
    #[inline]
    pub fn journal_event(&self, at_nanos: u64, pid: u32, kind: impl FnOnce() -> JournalKind) {
        if self.is_enabled() {
            self.shared.journal.push(at_nanos, pid, kind());
        }
    }

    /// A wall-clock start stamp for latency probes — `None` when
    /// disabled, so the disabled path never reads the clock. Pair with
    /// [`Histogram::record_elapsed`].
    #[inline]
    pub fn start_timer(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("journal_len", &self.shared.journal.len())
            .field("journal_dropped", &self.shared.journal.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new(64);
        let b = a.clone();
        a.counter("x").inc();
        assert_eq!(b.counter("x").value(), 1);
        b.set_enabled(false);
        assert!(!a.is_enabled());
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let t = Telemetry::disabled();
        assert!(t.start_timer().is_none());
        t.journal_event(1, 2, || JournalKind::Note {
            name: "n".into(),
            detail: String::new(),
        });
        assert!(t.journal().is_empty());
        // Direct metric handles still work (they are explicit, not probes).
        t.counter("c").inc();
        assert_eq!(t.counter("c").value(), 1);
    }

    #[test]
    fn enabled_probes_record() {
        let t = Telemetry::new(64);
        let timer = t.start_timer();
        assert!(timer.is_some());
        let h = t.histogram("lat");
        h.record_elapsed(timer);
        assert_eq!(h.count(), 1);
        t.journal_event(9, 3, || JournalKind::Note {
            name: "n".into(),
            detail: "d".into(),
        });
        assert_eq!(t.journal().events_for(3).len(), 1);
    }
}
