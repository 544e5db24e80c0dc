//! The metric registry: named counters, gauges, and log-scale latency
//! histograms.
//!
//! Registration (name → handle) takes a short-lived registry lock; every
//! *recording* operation afterwards is a single atomic instruction on a
//! pre-resolved [`Arc`] handle, so metric updates never contend with each
//! other and callers on the engine's hot path can cache their handles once
//! at construction time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (which may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets. Bucket `i` counts samples whose value `v`
/// satisfies `floor(log2(max(v, 1))) == i`, so bucket 0 holds `v ∈ {0, 1}`
/// and bucket 63 holds the largest `u64` values.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log₂-bucketed histogram for latency-style samples
/// (nanoseconds). Recording is two relaxed atomic adds plus one for the
/// bucket; snapshots are racy-consistent, which is fine for telemetry.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The log₂ bucket index of a sample.
fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// A shared handle to one named histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let core = &self.0;
        core.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the elapsed nanoseconds since `started`, if a start stamp
    /// was taken (see [`Telemetry::start_timer`](crate::Telemetry::start_timer):
    /// `None` means telemetry was disabled and nothing is recorded).
    pub fn record_elapsed(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum();
        let buckets = self
            .0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| HistogramBucket {
                    // Inclusive upper bound of log₂ bucket i.
                    le: if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 },
                    count: n,
                })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            buckets,
        }
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive upper bound of the bucket's value range.
    pub le: u64,
    /// Samples that fell in this bucket.
    pub count: u64,
}

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// The non-empty log₂ buckets, in increasing value order.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Folds `other` into `self`: counts and sums add, buckets with the
    /// same upper edge merge, and the mean is recomputed. Because both
    /// sides use the same fixed log₂ bucket edges, merging loses no
    /// precision beyond what each snapshot already gave up — quantiles of
    /// the merged snapshot are exactly the quantiles of the pooled
    /// samples at bucket resolution. This is the primitive behind
    /// fleet-wide histogram rollups.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.mean = if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        };
        for b in &other.buckets {
            match self.buckets.binary_search_by_key(&b.le, |x| x.le) {
                Ok(i) => self.buckets[i].count += b.count,
                Err(i) => self.buckets.insert(i, b.clone()),
            }
        }
    }

    /// An upper bound on the `q`-quantile (0.0 ..= 1.0), resolved to the
    /// containing log₂ bucket's upper edge. Returns 0 when empty.
    pub fn quantile_le(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for b in &self.buckets {
            seen += b.count;
            if seen >= rank {
                return b.le;
            }
        }
        self.buckets.last().map_or(0, |b| b.le)
    }
}

/// The named-metric registry behind a [`Telemetry`](crate::Telemetry)
/// handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// Looks up (read lock) or inserts (write lock) a named metric handle.
fn get_or_insert<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(m) = map.read().get(name) {
        return m.clone();
    }
    map.write().entry(name.to_string()).or_default().clone()
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_insert(&self.histograms, name)
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A serializable point-in-time view of the whole registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter named `name`, or 0 when it was never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self` name-by-name: counters and gauges sum,
    /// histograms [`merge`](HistogramSnapshot::merge). Metrics present on
    /// only one side carry over unchanged. A fleet rolls its per-tenant
    /// registries into one snapshot by merging them in turn — per-tenant
    /// detectors keep their own uncontended registries, and the rollup
    /// happens off the hot path at export time.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::default();
        let c = reg.counter("ops");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("ops").value(), 5, "same name, same counter");
        let g = reg.gauge("resident");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("resident").value(), 7);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert!((snap.mean - 201.2).abs() < 1e-9);
        // 0,1 → le 1; 2,3 → le 3; 1000 → le 1023.
        assert_eq!(
            snap.buckets,
            vec![
                HistogramBucket { le: 1, count: 2 },
                HistogramBucket { le: 3, count: 2 },
                HistogramBucket { le: 1023, count: 1 },
            ]
        );
    }

    #[test]
    fn quantiles_resolve_to_bucket_edges() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // le 127
        }
        h.record(1_000_000); // le 2^20 - 1
        let snap = h.snapshot();
        assert_eq!(snap.quantile_le(0.5), 127);
        assert_eq!(snap.quantile_le(0.99), 127);
        assert_eq!(snap.quantile_le(1.0), (1 << 20) - 1);
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_le(0.5), 0);
    }

    #[test]
    fn merged_snapshots_pool_samples() {
        let a = Registry::default();
        a.counter("ops").add(5);
        a.gauge("resident").set(10);
        for _ in 0..9 {
            a.histogram("lat").record(100); // le 127
        }
        let b = Registry::default();
        b.counter("ops").add(7);
        b.counter("only_b").inc();
        b.gauge("resident").set(4);
        b.histogram("lat").record(1_000_000); // le 2^20 - 1

        let mut rollup = a.snapshot();
        rollup.merge(&b.snapshot());
        assert_eq!(rollup.counters["ops"], 12);
        assert_eq!(rollup.counters["only_b"], 1);
        assert_eq!(rollup.gauges["resident"], 14, "gauges sum across tenants");
        let lat = &rollup.histograms["lat"];
        assert_eq!(lat.count, 10);
        assert_eq!(lat.sum, 9 * 100 + 1_000_000);
        assert_eq!(lat.quantile_le(0.5), 127);
        assert_eq!(lat.quantile_le(1.0), (1 << 20) - 1);
        // Merging equals recording everything into one histogram.
        let pooled = Histogram::default();
        for _ in 0..9 {
            pooled.record(100);
        }
        pooled.record(1_000_000);
        assert_eq!(lat.buckets, pooled.snapshot().buckets);
    }

    #[test]
    fn snapshot_lists_every_metric() {
        let reg = Registry::default();
        reg.counter("a").inc();
        reg.gauge("b").set(2);
        reg.histogram("c").record(8);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["a"], 1);
        assert_eq!(snap.gauges["b"], 2);
        assert_eq!(snap.histograms["c"].count, 1);
    }
}
