//! Per-process detection audit trails.
//!
//! A detection is only as useful as its explanation: the paper's
//! user-facing side (§IV-A) asks the victim to judge whether suspended
//! activity was legitimate, which requires showing *which* indicators
//! fired, *when*, and *with what measured values*. [`AuditTrail`]
//! reconstructs that timeline for one process from the engine's hit log,
//! replaying the scoreboard arithmetic (including the one-time union
//! bonus, §III-E) so every entry carries the running score it produced.

use cryptodrop_vfs::ProcessId;
use serde::{Deserialize, Serialize};

use crate::config::Config;
use crate::indicators::{Indicator, IndicatorHit};
use crate::state::ProcessState;

/// One indicator contribution on a process's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Which indicator fired.
    pub indicator: Indicator,
    /// Its stable report name ("type-change", "similarity", ...).
    pub indicator_name: String,
    /// The measured value that tripped the indicator, in that indicator's
    /// own unit (see [`IndicatorHit::value`]).
    pub value: f64,
    /// The threshold the value was compared against, same unit.
    pub threshold: f64,
    /// Reputation points awarded.
    pub points: u32,
    /// The running score after this award (union bonus included when this
    /// award completed the primary union).
    pub score_after: u32,
    /// The running score with every prior award decayed to this entry's
    /// `at_nanos` under the configured
    /// [`DecayPolicy`](crate::DecayPolicy) — what the threshold check
    /// actually compared at this moment. `None` when the policy is
    /// [`DecayPolicy::None`](crate::DecayPolicy::None) (the raw
    /// `score_after` is then exact).
    pub decayed_after: Option<u32>,
    /// Simulated timestamp of the triggering operation.
    pub at_nanos: u64,
    /// Human-readable context (file, scores).
    pub detail: String,
}

/// The reconstructed detection timeline of one process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditTrail {
    /// The process (family root when aggregation is on).
    pub pid: ProcessId,
    /// Its executable name.
    pub process_name: String,
    /// Current reputation score (raw, undecayed).
    pub score: u32,
    /// The score decayed to the trail's final timestamp (the suspension
    /// time when one was issued, else the last hit) under the configured
    /// [`DecayPolicy`](crate::DecayPolicy); `None` when the policy is
    /// [`DecayPolicy::None`](crate::DecayPolicy::None).
    pub decayed_score: Option<u32>,
    /// The threshold currently applying (lowered after union indication).
    pub threshold: u32,
    /// Whether a suspension verdict has been issued.
    pub detected: bool,
    /// Whether union indication occurred.
    pub union_triggered: bool,
    /// Simulated time of union indication, if it occurred.
    pub union_at_nanos: Option<u64>,
    /// Pre-existing protected files lost.
    pub files_lost: u32,
    /// Simulated time of the suspension verdict, if one was issued.
    pub suspended_at_nanos: Option<u64>,
    /// Every indicator contribution, in firing order.
    pub entries: Vec<AuditEntry>,
}

impl AuditTrail {
    /// Reconstructs the trail from a process's state, replaying the award
    /// arithmetic of
    /// [`ProcessState::award`](crate::state::ProcessState::award) so each
    /// entry's `score_after` matches what the scoreboard held at that
    /// moment.
    pub(crate) fn rebuild(
        st: &ProcessState,
        cfg: &Config,
        suspended_at_nanos: Option<u64>,
    ) -> AuditTrail {
        let decaying = !cfg.score.decay.is_none();
        let mut running = 0u32;
        // The awards replayed so far, as (at_nanos, points) pairs — the
        // union bonus rides as its own award, stamped at the completing
        // hit's time, matching `ProcessState::decayed_score`.
        let mut awards: Vec<(u64, u32)> = Vec::new();
        let mut primaries = std::collections::BTreeSet::new();
        let mut union_done = false;
        let entries = st
            .hits()
            .iter()
            .map(|h: &IndicatorHit| {
                running = running.saturating_add(h.points);
                if decaying {
                    awards.push((h.at_nanos, h.points));
                }
                if h.indicator.is_primary() {
                    primaries.insert(h.indicator);
                }
                if cfg.union_enabled
                    && !union_done
                    && Indicator::PRIMARY.iter().all(|p| primaries.contains(p))
                {
                    union_done = true;
                    running = running.saturating_add(cfg.score.union_bonus);
                    if decaying {
                        awards.push((h.at_nanos, cfg.score.union_bonus));
                    }
                }
                // The decayed running score re-ages every prior award to
                // this entry's timestamp — O(n) per entry, but the audit
                // trail is a cold post-detection path.
                let decayed_after = decaying.then(|| {
                    let sum: u64 = awards
                        .iter()
                        .map(|&(at, points)| {
                            u64::from(
                                cfg.score
                                    .decay
                                    .value(points, h.at_nanos.saturating_sub(at)),
                            )
                        })
                        .sum();
                    u32::try_from(sum).unwrap_or(u32::MAX)
                });
                AuditEntry {
                    indicator: h.indicator,
                    indicator_name: h.indicator.name().to_string(),
                    value: h.value,
                    threshold: h.threshold,
                    points: h.points,
                    score_after: running,
                    decayed_after,
                    at_nanos: h.at_nanos,
                    detail: h.detail.clone(),
                }
            })
            .collect::<Vec<_>>();
        let summary = st.summary(&cfg.score);
        debug_assert_eq!(running, st.score(), "replay must agree with the scoreboard");
        let decayed_score = decaying.then(|| {
            let now = suspended_at_nanos
                .or_else(|| entries.last().map(|e: &AuditEntry| e.at_nanos))
                .unwrap_or(0);
            st.decayed_score(&cfg.score, now)
        });
        AuditTrail {
            pid: st.pid(),
            process_name: st.name().to_string(),
            score: st.score(),
            decayed_score,
            threshold: summary.threshold,
            detected: st.is_detected(),
            union_triggered: st.union_triggered(),
            union_at_nanos: summary.union_at_nanos,
            files_lost: st.files_lost(),
            suspended_at_nanos,
            entries,
        }
    }

    /// A human-readable rendering of the trail, one line per entry.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let decayed = match self.decayed_score {
            Some(d) => format!(" (decayed {d})"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{} (pid {}): score {}{}/{}{}{}",
            self.process_name,
            self.pid.0,
            self.score,
            decayed,
            self.threshold,
            if self.detected { " SUSPENDED" } else { "" },
            if self.union_triggered {
                " [union indication]"
            } else {
                ""
            },
        );
        for e in &self.entries {
            let decayed = match e.decayed_after {
                Some(d) => format!(" ({d} decayed)"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  t+{:>12}ns  {:<13} value {:>8.3} vs {:>7.3}  +{:<3} -> {:<4}{} {}",
                e.at_nanos,
                e.indicator_name,
                e.value,
                e.threshold,
                e.points,
                e.score_after,
                decayed,
                e.detail,
            );
        }
        if let Some(at) = self.suspended_at_nanos {
            let _ = writeln!(out, "  t+{at:>12}ns  suspended ({} files lost)", self.files_lost);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreConfig;

    fn hit(indicator: Indicator, points: u32, at: u64) -> IndicatorHit {
        IndicatorHit {
            indicator,
            points,
            value: 2.5,
            threshold: 2.0,
            detail: format!("{indicator} fired"),
            at_nanos: at,
        }
    }

    #[test]
    fn replay_matches_scoreboard_including_union_bonus() {
        let cfg = Config::protecting("/d");
        let score = ScoreConfig::default();
        let mut st = ProcessState::new(ProcessId(7), "mal.exe", &score);
        for (i, ind) in [
            Indicator::Deletion,
            Indicator::TypeChange,
            Indicator::Similarity,
            Indicator::EntropyDelta, // completes the union here
            Indicator::TypeChange,
        ]
        .into_iter()
        .enumerate()
        {
            st.award(&score, cfg.union_enabled, hit(ind, 10, i as u64 * 100));
        }
        let trail = AuditTrail::rebuild(&st, &cfg, Some(999));
        assert_eq!(trail.score, st.score());
        assert_eq!(trail.entries.len(), 5);
        // The union-completing entry absorbs the bonus.
        assert_eq!(trail.entries[2].score_after, 30);
        assert_eq!(trail.entries[3].score_after, 40 + score.union_bonus);
        assert_eq!(trail.entries[4].score_after, 50 + score.union_bonus);
        assert!(trail.union_triggered);
        assert_eq!(trail.suspended_at_nanos, Some(999));
        assert_eq!(trail.entries[1].indicator_name, "type-change");
        let text = trail.render();
        assert!(text.contains("mal.exe"));
        assert!(text.contains("type-change"));
        assert!(text.contains("suspended"));
    }

    #[test]
    fn undecayed_trail_has_no_decay_columns() {
        let cfg = Config::protecting("/d");
        let score = ScoreConfig::default();
        let mut st = ProcessState::new(ProcessId(9), "y.exe", &score);
        st.award(&score, true, hit(Indicator::TypeChange, 10, 0));
        let trail = AuditTrail::rebuild(&st, &cfg, None);
        assert_eq!(trail.decayed_score, None);
        assert!(trail.entries.iter().all(|e| e.decayed_after.is_none()));
        assert!(!trail.render().contains("decayed"));
    }

    #[test]
    fn decayed_replay_ages_awards_per_entry() {
        use crate::config::DecayPolicy;
        let mut cfg = Config::protecting("/d");
        cfg.score.decay = DecayPolicy::Window { window_nanos: 150 };
        let score = cfg.score.clone();
        let mut st = ProcessState::new(ProcessId(11), "slow.exe", &score);
        st.award(&score, true, hit(Indicator::TypeChange, 10, 0));
        st.award(&score, true, hit(Indicator::TypeChange, 10, 100));
        st.award(&score, true, hit(Indicator::TypeChange, 10, 400));
        let trail = AuditTrail::rebuild(&st, &cfg, None);
        // Raw replay is untouched by decay.
        assert_eq!(
            trail.entries.iter().map(|e| e.score_after).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(trail.score, 30);
        // Decayed replay: at t=100 both awards are inside the window; at
        // t=400 only the newest survives.
        assert_eq!(
            trail
                .entries
                .iter()
                .map(|e| e.decayed_after)
                .collect::<Vec<_>>(),
            vec![Some(10), Some(20), Some(10)]
        );
        assert_eq!(trail.decayed_score, Some(10), "decayed to the last hit");
        let text = trail.render();
        assert!(text.contains("decayed"), "{text}");
    }

    #[test]
    fn decayed_replay_stamps_union_bonus_at_union_time() {
        use crate::config::DecayPolicy;
        let mut cfg = Config::protecting("/d");
        cfg.score.decay = DecayPolicy::Window { window_nanos: 150 };
        let score = cfg.score.clone();
        let mut st = ProcessState::new(ProcessId(12), "u.exe", &score);
        st.award(&score, true, hit(Indicator::TypeChange, 10, 0));
        st.award(&score, true, hit(Indicator::Similarity, 10, 10));
        st.award(&score, true, hit(Indicator::EntropyDelta, 10, 300));
        let trail = AuditTrail::rebuild(&st, &cfg, Some(300));
        // The union completes at t=300, where the first two awards have
        // aged out: decayed = entropy hit + full union bonus.
        let last = trail.entries.last().unwrap();
        assert_eq!(last.score_after, 30 + score.union_bonus);
        assert_eq!(last.decayed_after, Some(10 + score.union_bonus));
        assert_eq!(
            trail.decayed_score,
            Some(st.decayed_score(&score, 300)),
            "trail tail agrees with the scoreboard's own decay arithmetic"
        );
    }

    #[test]
    fn union_disabled_replay_has_no_bonus() {
        let mut cfg = Config::protecting("/d");
        cfg.union_enabled = false;
        let score = ScoreConfig::default();
        let mut st = ProcessState::new(ProcessId(8), "x.exe", &score);
        for ind in Indicator::PRIMARY {
            st.award(&score, false, hit(ind, 5, 0));
        }
        let trail = AuditTrail::rebuild(&st, &cfg, None);
        assert_eq!(trail.score, 15);
        assert_eq!(trail.entries.last().unwrap().score_after, 15);
        assert!(!trail.union_triggered);
    }
}
