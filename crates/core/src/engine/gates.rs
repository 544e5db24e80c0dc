//! Pre-operation gates: the family gate (paper §IV-A), decoy tripwires,
//! reputation throttling and per-family rate budgets (`DESIGN.md` §14
//! and §16). Each gate decides from the operation and the family's
//! standing, before any indicator evidence is computed.

use cryptodrop_telemetry::JournalKind;
use cryptodrop_vfs::{FsOp, OpContext, ProcessId, VPath, Verdict};

use super::CryptoDrop;
use crate::state::ProcessState;

/// The suspension reason issued when a member of an already-flagged (and
/// not user-permitted) process family keeps issuing operations.
const FAMILY_FLAGGED: &str = "cryptodrop: process family previously flagged";

/// The paths a destructive operation touches: one for a write-open,
/// write, truncate, delete or attribute change, both endpoints (source
/// first) for a rename, none for anything else.
fn destructive_paths<'a>(op: &FsOp<'a>) -> [Option<&'a VPath>; 2] {
    match *op {
        FsOp::Open { path, options } if options.write => [Some(path), None],
        FsOp::Write { path, .. }
        | FsOp::Truncate { path, .. }
        | FsOp::Delete { path }
        | FsOp::SetAttr { path, .. } => [Some(path), None],
        FsOp::Rename { from, to, .. } => [Some(from), Some(to)],
        _ => [None, None],
    }
}

impl CryptoDrop {
    /// The verdict-critical family gate, run inline on every operation:
    /// `Some(Allow)` for a user-permitted family, `Some(Suspend)` for an
    /// already-detected one, `None` when analysis should proceed.
    pub(super) fn family_gate(&self, key: ProcessId) -> Option<Verdict> {
        let fam = self.shared.family_shard(key).lock();
        let p = fam.get(&key)?;
        if p.is_permitted() {
            // The user explicitly allowed this activity: no further
            // scoring or re-suspension (§IV-A).
            Some(Verdict::Allow)
        } else if p.is_detected() {
            // Already detected: block any family member that is still
            // issuing operations (the issuer itself is normally already
            // suspended by the VFS; siblings are caught here).
            Some(Verdict::suspend(FAMILY_FLAGGED))
        } else {
            None
        }
    }

    /// The decoy endpoint a destructive operation touches, if any. Reads,
    /// closes, and directory listings never trip a decoy — enumeration
    /// tools may list and read bait files freely — but a destructive
    /// touch of one is an instant detection (GuardFS-style bait, §V-F
    /// "future work" territory: no legitimate workflow modifies a decoy).
    pub(super) fn decoy_hit<'a>(&self, op: &FsOp<'a>) -> Option<&'a VPath> {
        destructive_paths(op)
            .into_iter()
            .flatten()
            .find(|path| self.shared.decoys.contains(*path))
    }

    /// Issues the maximum-confidence decoy verdict: marks the family
    /// detected (publishing a [`DetectionReport`](super::DetectionReport)
    /// at its current — often zero — score) and suspends it immediately.
    pub(super) fn decoy_verdict(&self, ctx: &OpContext<'_>, decoy: &VPath) -> Verdict {
        self.with_family(self.scoring_key(ctx), ctx.process_name, |st| {
            if !st.is_detected() {
                let score = st.decayed_score(&self.cfg.score, ctx.at_nanos);
                self.detect(st, score, ctx.at_nanos);
                self.shared.metrics.decoy_trips.inc();
            }
        });
        Verdict::suspend(format!(
            "cryptodrop: decoy file {} modified",
            decoy.as_str()
        ))
    }

    /// Time-axis throttling (pre-operation), two composable components:
    ///
    /// * **Reputation throttling** — once a family's (decayed) score has
    ///   reached [`ThrottlePolicy::score`](crate::ThrottlePolicy::score),
    ///   each destructive in-scope operation is delayed proportionally to
    ///   the score.
    /// * **Rate-budget throttling** — while the family's
    ///   first-modification token bucket is dry
    ///   ([`Config::rate_budget`](crate::Config::rate_budget)), each
    ///   destructive in-scope operation is additionally delayed by
    ///   [`RateBudget::throttle_nanos`](crate::RateBudget::throttle_nanos).
    ///   Unlike reputation throttling this engages on *behavioral rate*
    ///   alone, before any indicator has scored — the budget is drawn
    ///   down by [`Self::draw_rate_token`] and refilled here against the
    ///   operation's simulated time.
    ///
    /// The delays add; returns `None` when the operation should proceed
    /// undelayed.
    pub(super) fn throttle_verdict(&self, ctx: &OpContext<'_>, key: ProcessId) -> Option<Verdict> {
        let cfg = &self.cfg;
        if cfg.throttle.is_none() && cfg.rate_budget.is_none() {
            return None;
        }
        let in_scope = destructive_paths(&ctx.op)
            .into_iter()
            .flatten()
            .any(|path| self.shared.in_scope(cfg, path));
        if !in_scope {
            return None;
        }
        let (score, rate_dry) = {
            let mut fam = self.shared.family_shard(key).lock();
            match fam.get_mut(&key) {
                Some(st) => (
                    st.decayed_score(&cfg.score, ctx.at_nanos),
                    cfg.rate_budget.is_some_and(|budget| {
                        st.rate_refill(
                            ctx.at_nanos,
                            budget.capacity,
                            budget.refill_nanos_per_token,
                        ) == 0
                    }),
                ),
                // A never-seen family has a full bucket and no score.
                None => (0, false),
            }
        };
        let mut delay = 0u64;
        if let Some(throttle) = cfg.throttle.filter(|t| score >= t.score) {
            delay = u64::from(score).saturating_mul(throttle.nanos_per_point);
            self.shared.metrics.throttled_ops.inc();
        }
        if let Some(budget) = cfg.rate_budget.filter(|_| rate_dry) {
            delay = delay.saturating_add(budget.throttle_nanos);
            self.shared.metrics.rate_throttled.inc();
            self.shared
                .telemetry
                .journal_event(ctx.at_nanos, key.0, || JournalKind::RateBudget {
                    tokens: 0,
                    delay_nanos: budget.throttle_nanos,
                });
        }
        if delay == 0 {
            None
        } else {
            Some(Verdict::throttle(delay))
        }
    }

    /// The write-side half of the rate budget: a family's first
    /// modification of a file draws one token from its bucket, when a
    /// budget is configured.
    pub(super) fn draw_rate_token(&self, st: &mut ProcessState, at_nanos: u64) {
        let Some(budget) = self.cfg.rate_budget else {
            return;
        };
        let drawn = st.rate_consume(at_nanos, budget.capacity, budget.refill_nanos_per_token);
        if drawn {
            self.shared.metrics.rate_consumed.inc();
        } else {
            self.shared.metrics.rate_exhausted.inc();
        }
    }
}
