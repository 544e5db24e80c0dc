//! Engine and scoring configuration.
//!
//! The paper parameterizes CryptoDrop with a *non-union detection threshold*
//! of 200 (§V-A) and a suspicious entropy delta of 0.1 (§IV-C1); union
//! indication "dramatically increases the current score of a process and
//! lowers that process's detection threshold" (§V-B2). The remaining
//! point values are implementation constants of the research prototype; the
//! defaults here were calibrated so the evaluation harness reproduces the
//! paper's headline shapes (see EXPERIMENTS.md).

use cryptodrop_vfs::VPath;
use serde::{Deserialize, Serialize};

/// How reputation points age out of the scoreboard over simulated time.
///
/// The paper's scoreboard is time-blind: a point awarded at t=0 weighs as
/// much as one awarded a nanosecond ago, which is what makes a slow-roll
/// attacker (§V-F: "monitoring any time window presents an evasion
/// opportunity") indistinguishable from a fast one. A decay policy ages
/// each award by the simulated time elapsed since its `at_nanos`, so the
/// *effective* score a threshold check sees is the sum of the decayed
/// award values — raw per-hit points are never mutated, which keeps the
/// audit trail exact and lets [`Monitor::audit_trail`](crate::Monitor)
/// replay the decayed arithmetic faithfully.
///
/// Every policy is monotonically non-increasing in age and exact at age
/// zero (`value(p, 0) == p`); `DecayPolicy::None` reproduces the paper's
/// scoring bit-for-bit and is the default.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecayPolicy {
    /// No decay: points are permanent (the paper's behavior, default).
    None,
    /// Hard cutoff: an award keeps full value inside the window and
    /// contributes nothing once older than `window_nanos`.
    Window {
        /// Age in simulated nanoseconds beyond which an award is worth 0.
        window_nanos: u64,
    },
    /// Linear ramp: an award loses value proportionally with age,
    /// reaching 0 at `window_nanos`.
    Linear {
        /// Age in simulated nanoseconds at which an award reaches 0.
        window_nanos: u64,
    },
    /// Exponential decay by integer halvings: an award is worth
    /// `points >> (age / half_life_nanos)`. Never reaches exactly zero
    /// until the shift exhausts the points, so long-memory deployments
    /// keep a residue of old evidence.
    HalfLife {
        /// Age in simulated nanoseconds per halving of an award's value.
        half_life_nanos: u64,
    },
}

impl DecayPolicy {
    /// The decayed value of an award of `points` that is `age_nanos` old.
    #[inline]
    pub fn value(&self, points: u32, age_nanos: u64) -> u32 {
        match *self {
            DecayPolicy::None => points,
            DecayPolicy::Window { window_nanos } => {
                if age_nanos <= window_nanos {
                    points
                } else {
                    0
                }
            }
            DecayPolicy::Linear { window_nanos } => {
                if age_nanos >= window_nanos {
                    0
                } else {
                    // points × (window − age) / window, in u128 to avoid
                    // overflow; result fits u32 since the ratio is ≤ 1.
                    (u128::from(points) * u128::from(window_nanos - age_nanos)
                        / u128::from(window_nanos)) as u32
                }
            }
            DecayPolicy::HalfLife { half_life_nanos } => {
                let halvings = (age_nanos / half_life_nanos.max(1)).min(31);
                points >> halvings
            }
        }
    }

    /// `true` for [`DecayPolicy::None`] — the engine skips the decayed
    /// re-summation entirely on this (default) path.
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, DecayPolicy::None)
    }
}

/// Reputation points and thresholds for the scoreboard (paper §IV-A/B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreConfig {
    /// Score at which a process is suspended without union indication
    /// (200 in the paper's experiments, §V-A).
    pub non_union_threshold: u32,
    /// The lowered threshold once union indication has occurred.
    pub union_threshold: u32,
    /// One-time score bonus when all three primary indicators have fired.
    pub union_bonus: u32,
    /// Points per file whose sniffed type changed across a modification.
    pub points_type_change: u32,
    /// Points per file whose similarity to its pre-image collapsed.
    pub points_similarity: u32,
    /// Points per atomic write whose process-wide entropy delta exceeds
    /// [`ScoreConfig::entropy_delta_threshold`].
    pub points_entropy_delta: u32,
    /// Points per protected-file deletion beyond the allowance.
    pub points_deletion: u32,
    /// Points each time the read-vs-written type gap crosses another
    /// multiple of [`ScoreConfig::funnel_gap`].
    pub points_funneling: u32,
    /// `Δe = P_write − P_read` at or above this is suspicious (0.1 in the
    /// paper, §IV-C1).
    pub entropy_delta_threshold: f64,
    /// sdhash scores at or below this count as "dissimilar" (the paper
    /// expects near-zero scores for ciphertext, §III-B).
    pub similarity_match_max: u32,
    /// The similarity indicator abstains when the pre-image's own entropy
    /// exceeds this (bits/byte): comparing two near-random blobs always
    /// yields ~0 and would penalize benign rewrites of compressed formats.
    pub similarity_max_source_entropy: f64,
    /// Deletions of pre-existing protected files tolerated before scoring
    /// begins (§III-D). Deletions of files the process itself created
    /// (temp files) never score.
    pub deletion_allowance: u32,
    /// Write operations at or above this many bytes earn full
    /// entropy-delta points; smaller writes earn proportionally fewer
    /// (min 1). This keeps floods of tiny-file encryptions from
    /// outpacing the indicators that need sdhash-digestible files.
    pub entropy_full_weight_bytes: usize,
    /// The read-minus-written distinct-type gap per funneling award
    /// (§III-D: "the difference of these can be assigned a threshold").
    pub funnel_gap: u32,
    /// The write-burst window in simulated nanoseconds (the burst
    /// indicator is future work in the paper, §V-F).
    pub burst_window_nanos: u64,
    /// Files modified within the window tolerated before burst scoring.
    pub burst_threshold: u32,
    /// Points per modified file beyond the burst threshold. Zero (the
    /// default — "monitoring any time window presents an evasion
    /// opportunity", §V-F) disables the burst indicator entirely (no
    /// window bookkeeping, no 0-point audit hits), matching the other
    /// indicators' semantics.
    pub points_burst: u32,
    /// How awarded points age out of threshold checks over simulated
    /// time. [`DecayPolicy::None`] (the default) reproduces the paper's
    /// permanent-score arithmetic exactly.
    pub decay: DecayPolicy,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        Self {
            non_union_threshold: 200,
            union_threshold: 160,
            union_bonus: 40,
            points_type_change: 6,
            points_similarity: 6,
            points_entropy_delta: 3,
            points_deletion: 15,
            points_funneling: 15,
            entropy_delta_threshold: 0.1,
            similarity_match_max: 10,
            similarity_max_source_entropy: 7.5,
            deletion_allowance: 2,
            funnel_gap: 5,
            entropy_full_weight_bytes: 4096,
            burst_window_nanos: 10_000_000_000, // 10 simulated seconds
            burst_threshold: 30,
            points_burst: 0,
            decay: DecayPolicy::None,
        }
    }
}

/// Full engine configuration.
///
/// Fields stay public so experiment harnesses can tweak individual knobs
/// and serialized configs round-trip, but **avoid bare field-struct
/// construction** (`Config { ... }`) in new code: it bypasses validation
/// and breaks whenever a field is added. Start from
/// [`Config::protecting`] (or deserialize), adjust fields, and hand the
/// result to [`CryptoDrop::builder`](crate::CryptoDrop::builder) — the
/// builder's [`build`](crate::SessionBuilder::build) step validates the
/// whole configuration into a typed [`ConfigError`](crate::ConfigError)
/// instead of misbehaving at detection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// The directories CryptoDrop protects (e.g. "My Documents").
    /// Operations on files outside these directories are ignored unless
    /// the file was moved out of a protected directory and is being
    /// tracked (§III, Class B).
    pub protected_dirs: Vec<VPath>,
    /// Scoring parameters.
    pub score: ScoreConfig,
    /// Track files moved out of protected directories (Class B defense).
    /// Disabled only by the ablation benchmarks.
    pub track_moved_files: bool,
    /// Enable union indication (disabled only by the ablation benchmarks).
    pub union_enabled: bool,
    /// Dynamic scoring (future work in the paper, §V-C): when the
    /// similarity indicator is structurally unavailable for a file (no
    /// pre-image digest), the type-change points for that file are
    /// doubled, compensating for the missing indicator.
    pub dynamic_scoring: bool,
    /// Maximum bytes of a file to similarity-digest per snapshot; larger
    /// files are digested by prefix. Bounds per-operation analysis cost.
    pub max_digest_bytes: usize,
    /// Maximum number of path-keyed snapshots the engine retains. The
    /// path index must survive deletes (the Class C link compares a
    /// replacement against the deleted original's snapshot), so it only
    /// shrinks by eviction; this cap bounds its memory. Eviction is
    /// least-recently-used. The default is far above every paper
    /// experiment's working set (thousands of paths), so results are
    /// unaffected unless deliberately lowered; an evicted path merely
    /// degrades to the no-pre-image abstain the paper already models for
    /// never-seen files. `0` means unbounded.
    ///
    /// The cap is spread over the engine's 16 path shards (rounding up
    /// to at least one slot per shard), so values below 16 act as 16
    /// single-entry caches. Sizing the cap below a workload's cyclic
    /// working set triggers the classic LRU sweep pathology — each path
    /// is revisited only after being evicted to admit the others, so
    /// evictions track misses one-for-one. Keep the cap comfortably
    /// above the hot path count (the default is 65,536).
    pub snapshot_cache_capacity: usize,
    /// Separate bound for **pinned** path snapshots: snapshots of deleted
    /// protected files are excluded from the LRU cap above (the Class C
    /// delete-then-drop link depends on them surviving unrelated cache
    /// pressure) and budgeted here instead, oldest-first. `0` means
    /// unbounded.
    pub pinned_snapshot_budget: usize,
    /// Registered decoy (bait) files. No legitimate workflow touches a
    /// decoy, so *any* destructive operation on one — a write-open,
    /// write, truncate, delete, rename endpoint, or attribute change —
    /// is an instant maximum-confidence detection: the issuing family is
    /// suspended immediately, bypassing the reputation scoreboard
    /// entirely. Reads are allowed (enumeration tools list decoys
    /// without tripping them). Empty (no decoys) by default.
    pub decoy_paths: Vec<VPath>,
    /// Reputation-driven operation throttling; see [`ThrottlePolicy`].
    /// `None` (off) by default.
    pub throttle: Option<ThrottlePolicy>,
    /// Per-family first-modification rate budgets; see [`RateBudget`].
    /// `None` (off) by default.
    pub rate_budget: Option<RateBudget>,
}

/// Reputation-driven operation throttling: once a family's score reaches
/// [`ThrottlePolicy::score`], each destructive in-scope operation it
/// issues is delayed on the simulated clock by `score × nanos_per_point`
/// (saturating), stretching the time budget an attacker needs to do
/// damage while the scoreboard converges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThrottlePolicy {
    /// Family score at which throttling engages. Set well below the
    /// detection threshold so slowdown starts during the suspicion
    /// window, not after suspension.
    pub score: u32,
    /// Simulated-clock delay per reputation point per throttled
    /// operation, in nanoseconds.
    pub nanos_per_point: u64,
}

/// A per-family first-modification rate budget: each family holds a token
/// bucket of [`RateBudget::capacity`] tokens that refills one token per
/// [`RateBudget::refill_nanos_per_token`] simulated nanoseconds. Every
/// *first* modification of a distinct file draws a token; once the bucket
/// runs dry, each destructive in-scope operation the family issues is
/// additionally delayed by [`RateBudget::throttle_nanos`] on the simulated
/// clock, composing with [`ThrottlePolicy`]. Unlike the fixed burst
/// window, a budget punishes *sustained* rate: an attacker pacing just
/// under the window threshold still drains the bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateBudget {
    /// Tokens a family's bucket holds when full (and starts with).
    pub capacity: u32,
    /// Simulated nanoseconds to refill one token.
    pub refill_nanos_per_token: u64,
    /// Simulated-clock delay per destructive in-scope operation while a
    /// family's bucket is dry, in nanoseconds.
    pub throttle_nanos: u64,
}

impl Config {
    /// A configuration protecting a single directory with default scoring.
    pub fn protecting(dir: impl Into<VPath>) -> Self {
        Self {
            protected_dirs: vec![dir.into()],
            score: ScoreConfig::default(),
            track_moved_files: true,
            union_enabled: true,
            dynamic_scoring: false,
            max_digest_bytes: 256 * 1024,
            snapshot_cache_capacity: 1 << 16,
            pinned_snapshot_budget: 1 << 12,
            decoy_paths: Vec::new(),
            throttle: None,
            rate_budget: None,
        }
    }

    /// Returns `true` if `path` lies under a protected directory.
    pub fn is_protected(&self, path: &VPath) -> bool {
        self.protected_dirs.iter().any(|d| path.starts_with(d))
    }

    /// Returns `true` if `path` is a registered decoy file.
    ///
    /// Linear scan; the engine itself pre-hashes
    /// [`Config::decoy_paths`] at construction and never calls this on
    /// the hot path.
    pub fn is_decoy(&self, path: &VPath) -> bool {
        self.decoy_paths.iter().any(|d| d == path)
    }

    /// Replaces the scoring parameters (builder-style).
    pub fn with_score(mut self, score: ScoreConfig) -> Self {
        self.score = score;
        self
    }

    /// Registers decoy files (builder-style). See [`Config::decoy_paths`].
    pub fn with_decoys(mut self, decoys: impl IntoIterator<Item = VPath>) -> Self {
        self.decoy_paths.extend(decoys);
        self
    }

    /// Enables reputation-driven throttling (builder-style) with the
    /// given engage score and per-point delay. See [`ThrottlePolicy`].
    pub fn with_throttling(mut self, score: u32, nanos_per_point: u64) -> Self {
        self.throttle = Some(ThrottlePolicy {
            score,
            nanos_per_point,
        });
        self
    }

    /// Enables per-family first-modification rate budgets (builder-style)
    /// with the given bucket capacity, refill interval, and dry-bucket
    /// per-operation delay. See [`RateBudget`].
    pub fn with_rate_budget(
        mut self,
        capacity: u32,
        refill_nanos_per_token: u64,
        throttle_nanos: u64,
    ) -> Self {
        self.rate_budget = Some(RateBudget {
            capacity,
            refill_nanos_per_token,
            throttle_nanos,
        });
        self
    }

    /// Replaces the score-decay policy (builder-style). See
    /// [`ScoreConfig::decay`].
    pub fn with_decay(mut self, decay: DecayPolicy) -> Self {
        self.score.decay = decay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let s = ScoreConfig::default();
        assert_eq!(s.non_union_threshold, 200, "paper §V-A");
        assert_eq!(s.entropy_delta_threshold, 0.1, "paper §IV-C1");
        assert!(s.union_threshold < s.non_union_threshold);
    }

    #[test]
    fn protected_dir_matching() {
        let cfg = Config::protecting("/Users/victim/Documents");
        assert!(cfg.is_protected(&VPath::new("/Users/victim/Documents/a/b.txt")));
        assert!(cfg.is_protected(&VPath::new("/Users/victim/Documents")));
        assert!(!cfg.is_protected(&VPath::new("/Users/victim/Downloads/x")));
        assert!(!cfg.is_protected(&VPath::new("/Users/victim/DocumentsEvil/x")));
    }

    #[test]
    fn multiple_protected_dirs() {
        let mut cfg = Config::protecting("/docs");
        cfg.protected_dirs.push(VPath::new("/desktop"));
        assert!(cfg.is_protected(&VPath::new("/desktop/note.txt")));
        assert!(cfg.is_protected(&VPath::new("/docs/x")));
        assert!(!cfg.is_protected(&VPath::new("/other")));
    }

    #[test]
    fn decoys_and_throttle_defaults_off() {
        let cfg = Config::protecting("/docs");
        assert!(cfg.decoy_paths.is_empty());
        assert_eq!(cfg.throttle, None);
        assert!(!cfg.is_decoy(&VPath::new("/docs/passwords.xlsx")));

        let cfg = cfg
            .with_decoys([VPath::new("/docs/passwords.xlsx")])
            .with_throttling(80, 2_000_000);
        assert!(cfg.is_decoy(&VPath::new("/docs/passwords.xlsx")));
        assert!(!cfg.is_decoy(&VPath::new("/docs/other.xlsx")));
        assert_eq!(
            cfg.throttle,
            Some(ThrottlePolicy {
                score: 80,
                nanos_per_point: 2_000_000
            })
        );
    }

    #[test]
    fn decay_and_rate_budget_default_off() {
        let cfg = Config::protecting("/docs");
        assert!(cfg.score.decay.is_none());
        assert_eq!(cfg.rate_budget, None);

        let cfg = cfg
            .with_decay(DecayPolicy::HalfLife {
                half_life_nanos: 3_600_000_000_000,
            })
            .with_rate_budget(10, 1_000_000_000, 100_000_000);
        assert!(!cfg.score.decay.is_none());
        assert_eq!(
            cfg.rate_budget,
            Some(RateBudget {
                capacity: 10,
                refill_nanos_per_token: 1_000_000_000,
                throttle_nanos: 100_000_000
            })
        );
    }

    #[test]
    fn decay_value_exact_at_age_zero() {
        let policies = [
            DecayPolicy::None,
            DecayPolicy::Window { window_nanos: 100 },
            DecayPolicy::Linear { window_nanos: 100 },
            DecayPolicy::Linear {
                window_nanos: u64::MAX,
            },
            DecayPolicy::HalfLife {
                half_life_nanos: 100,
            },
        ];
        for p in policies {
            for points in [0u32, 1, 3, 6, 15, 40, 200, u32::MAX] {
                assert_eq!(p.value(points, 0), points, "{p:?} must be exact at age 0");
            }
        }
    }

    #[test]
    fn decay_value_monotone_in_age() {
        let policies = [
            DecayPolicy::None,
            DecayPolicy::Window { window_nanos: 977 },
            DecayPolicy::Linear { window_nanos: 977 },
            DecayPolicy::Linear {
                window_nanos: u64::MAX,
            },
            DecayPolicy::HalfLife {
                half_life_nanos: 977,
            },
        ];
        for p in policies {
            for points in [1u32, 6, 40, 255] {
                let mut prev = p.value(points, 0);
                // Exhaustive small ages plus a geometric tail: catches
                // off-by-ones at window edges and shift saturation.
                let ages = (0u64..4000).chain((2u64..40).map(|k| 977 * k * k));
                for age in ages {
                    let v = p.value(points, age);
                    assert!(
                        v <= prev,
                        "{p:?}: value({points}, {age}) = {v} rose above {prev}"
                    );
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn decay_window_and_linear_reach_zero() {
        let w = DecayPolicy::Window { window_nanos: 100 };
        assert_eq!(w.value(40, 100), 40);
        assert_eq!(w.value(40, 101), 0);
        let l = DecayPolicy::Linear { window_nanos: 100 };
        assert_eq!(l.value(40, 50), 20);
        assert_eq!(l.value(40, 100), 0);
        assert_eq!(l.value(40, u64::MAX), 0);
    }

    #[test]
    fn decay_half_life_halves_and_saturates() {
        let h = DecayPolicy::HalfLife {
            half_life_nanos: 100,
        };
        assert_eq!(h.value(40, 100), 20);
        assert_eq!(h.value(40, 200), 10);
        assert_eq!(h.value(40, 999), 0); // 9 halvings of 40 → 0
        assert_eq!(h.value(u32::MAX, u64::MAX), u32::MAX >> 31);
    }

    #[test]
    fn infinite_support_policies_match_none() {
        // A window (or half-life) wider than any simulated run cannot
        // age anything out — the decayed sum equals the raw sum. The
        // cross-crate equivalence suite leans on this identity.
        let policies = [
            DecayPolicy::Window {
                window_nanos: u64::MAX,
            },
            DecayPolicy::HalfLife {
                half_life_nanos: u64::MAX,
            },
        ];
        for p in policies {
            for points in [1u32, 6, 40, 200] {
                for age in [0u64, 1, 1 << 40, 1 << 62] {
                    assert_eq!(p.value(points, age), points, "{p:?}");
                }
            }
        }
    }

    #[test]
    fn builder_with_score() {
        let custom = ScoreConfig {
            non_union_threshold: 50,
            ..ScoreConfig::default()
        };
        let cfg = Config::protecting("/d").with_score(custom.clone());
        assert_eq!(cfg.score, custom);
    }
}
