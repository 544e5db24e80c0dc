//! Machine-readable telemetry summaries for instrumented runs.
//!
//! The paper's user-facing side (§IV-A) hinges on *explaining* a verdict,
//! not just issuing it. This module runs representative samples with the
//! full telemetry stack armed — shared metric registry, event journal, and
//! per-process audit trail — and condenses the result into a serializable
//! [`TelemetryStudy`] (`results/telemetry.json` from `run-all`). The
//! runner's Fig. 4/5 trace recorder is a filter beside the engine, so the
//! journal also holds its `FilterPre`/`FilterPost` events.
//!
//! A paired regression test proves the instrumentation is *inert*: a
//! sample's [`SampleResult`] is byte-identical with telemetry enabled and
//! disabled.

use std::collections::BTreeMap;

use cryptodrop::{AuditTrail, Config, Monitor, Telemetry};
use cryptodrop_corpus::Corpus;
use cryptodrop_malware::RansomwareSample;
use cryptodrop_telemetry::HistogramSnapshot;
use cryptodrop_vfs::ProcessId;
use serde::{Deserialize, Serialize};

use crate::report::TextTable;
use crate::runner::{run_sample_with_telemetry, SampleResult};

/// The telemetry harvest of one instrumented run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Journal events retained for this run.
    pub journal_events: usize,
    /// Journal events dropped to the capacity bound.
    pub journal_dropped: u64,
    /// Indicator fire counts by indicator name.
    pub indicator_fires: BTreeMap<String, u64>,
    /// Total detections counted by the engine.
    pub detections: u64,
    /// Per-indicator evaluation latency histograms
    /// (`engine.eval.<name>.ns`), keyed by indicator name.
    pub eval_ns: BTreeMap<String, HistogramSnapshot>,
    /// The reconstructed detection audit trail of the monitored process.
    pub audit: Option<AuditTrail>,
}

impl RunTelemetry {
    /// Harvests a run's telemetry for `pid` from a shared sink and its
    /// monitor.
    pub fn collect(telemetry: &Telemetry, monitor: &Monitor, pid: ProcessId) -> Self {
        let snap = telemetry.metrics().snapshot();
        let strip = |k: &str, prefix: &str, suffix: &str| {
            k.strip_prefix(prefix)
                .and_then(|r| r.strip_suffix(suffix))
                .map(str::to_string)
        };
        Self {
            journal_events: telemetry.journal().len(),
            journal_dropped: telemetry.journal().dropped(),
            indicator_fires: snap
                .counters
                .iter()
                .filter_map(|(k, v)| strip(k, "engine.indicator.", ".fires").map(|n| (n, *v)))
                .collect(),
            detections: snap.counters.get("engine.detections").copied().unwrap_or(0),
            eval_ns: snap
                .histograms
                .iter()
                .filter_map(|(k, v)| strip(k, "engine.eval.", ".ns").map(|n| (n, v.clone())))
                .collect(),
            audit: monitor.audit_trail(pid),
        }
    }
}

/// One instrumented sample run within a [`TelemetryStudy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRun {
    /// Family display name.
    pub family: String,
    /// The verdict-level outcome (identical to an uninstrumented run).
    pub result: SampleResult,
    /// What the telemetry stack recorded along the way.
    pub telemetry: RunTelemetry,
}

/// Telemetry harvests for a representative sample set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryStudy {
    /// One instrumented run per representative sample.
    pub runs: Vec<StudyRun>,
}

/// Runs each sample with a fresh enabled telemetry sink and harvests the
/// result.
pub fn run(corpus: &Corpus, config: &Config, samples: &[RansomwareSample]) -> TelemetryStudy {
    let runs = samples
        .iter()
        .map(|s| {
            let telemetry = Telemetry::new(cryptodrop_telemetry::DEFAULT_JOURNAL_CAPACITY);
            let (result, harvest) = run_sample_with_telemetry(corpus, config, s, telemetry);
            StudyRun {
                family: s.family.name().to_string(),
                result,
                telemetry: harvest,
            }
        })
        .collect();
    TelemetryStudy { runs }
}

impl TelemetryStudy {
    /// Renders the study: one row per run, then the first detection's
    /// audit-trail timeline in full.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "family",
            "detected",
            "journal events",
            "dropped",
            "indicator fires",
            "sim eval p50 (ns)",
        ]);
        for r in &self.runs {
            let fires: u64 = r.telemetry.indicator_fires.values().sum();
            let p50 = r
                .telemetry
                .eval_ns
                .get("similarity")
                .map(|h| h.quantile_le(0.5).to_string())
                .unwrap_or_else(|| "-".into());
            t.row([
                r.family.clone(),
                if r.result.detected { "yes" } else { "no" }.into(),
                r.telemetry.journal_events.to_string(),
                r.telemetry.journal_dropped.to_string(),
                fires.to_string(),
                p50,
            ]);
        }
        let mut out = String::from("Telemetry study (instrumented representative runs)\n");
        out.push_str(&t.render());
        if let Some(trail) = self
            .runs
            .iter()
            .filter_map(|r| r.telemetry.audit.as_ref())
            .find(|a| a.detected)
        {
            out.push_str("\nFirst detection, audited:\n");
            out.push_str(&trail.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_sample;
    use crate::Scale;
    use cryptodrop_corpus::CorpusSpec;
    use cryptodrop_malware::paper_sample_set;

    fn quick() -> (Corpus, Config, Vec<RansomwareSample>) {
        let corpus = Corpus::generate(&CorpusSpec::sized(160, 20));
        let config = Config::protecting(corpus.root().as_str());
        let samples: Vec<_> = paper_sample_set().into_iter().step_by(211).take(2).collect();
        (corpus, config, samples)
    }

    #[test]
    fn instrumentation_is_inert() {
        // The whole point of the shared-sink design: arming telemetry must
        // not change a single verdict-level field.
        let (corpus, config, samples) = quick();
        for s in &samples {
            let plain = run_sample(&corpus, &config, s);
            let (instrumented, harvest) =
                run_sample_with_telemetry(&corpus, &config, s, Telemetry::new(1 << 16));
            assert_eq!(plain, instrumented, "telemetry changed a verdict");
            assert!(harvest.journal_events > 0, "enabled sink must record");
        }
    }

    #[test]
    fn study_harvests_detections() {
        let (corpus, config, samples) = quick();
        let study = run(&corpus, &config, &samples);
        assert_eq!(study.runs.len(), samples.len());
        let detected: Vec<_> = study.runs.iter().filter(|r| r.result.detected).collect();
        assert!(!detected.is_empty(), "representative samples must detect");
        for r in detected {
            let audit = r.telemetry.audit.as_ref().expect("audit for detection");
            assert!(audit.detected);
            assert!(!audit.entries.is_empty());
            let fires: u64 = r.telemetry.indicator_fires.values().sum();
            assert_eq!(fires, audit.entries.len() as u64);
            assert_eq!(r.telemetry.detections, 1);
            assert!(r.telemetry.eval_ns.contains_key("similarity"));
        }
        let rendered = study.render();
        assert!(rendered.contains("Telemetry study"));
        assert!(rendered.contains("SUSPENDED"));
        // The study is a machine-readable artifact.
        let json = serde_json::to_string(&study).unwrap();
        assert!(json.contains("\"indicator_fires\""));
        assert!(json.contains("\"audit\""));
        assert!(json.contains("\"journal_events\""));
    }

    #[test]
    fn scales_smoke() {
        // Keep the quick scale wired for run-all.
        let s = Scale::quick();
        assert!(s.sample_cap.is_some());
    }
}
