//! Deterministic, seed-reproducible fault injection.
//!
//! A [`FaultPlan`] describes a *perturbation* of a simulated run: per-message
//! latency jitter, per-link latency skew, legal reordering of wildcard
//! matches, bounded rank slowdowns and stalls, and mid-run rank crashes.
//! Every choice the plan makes is a pure function of `(seed, identifiers)`
//! via FNV-1a hashing, so a plan replays bit-identically — two runs with the
//! same plan are the same run, and two seeds model two different executions
//! of the same nondeterministic application.
//!
//! ## Why injected faults can never violate MPI non-overtaking
//!
//! The engine enforces non-overtaking *structurally*: among queued messages
//! on one `(src, dst, comm, tag)` channel, only the earliest-sent message is
//! ever a match candidate (see `Engine::select_match`), regardless of
//! arrival times. The fault layer therefore only gets to perturb what MPI
//! itself leaves unspecified:
//!
//! * latency jitter and skew are **multiplicative factors ≥ 1** applied to
//!   wire time — a message can be late, never time-travel ahead of an
//!   earlier message on its own channel;
//! * reordering only changes which *sender* a wildcard receive matches,
//!   which the `MatchPolicy` already treats as free choice;
//! * slowdowns/stalls advance a rank's virtual clock monotonically.
//!
//! [`FaultPlan::validate`] rejects any parameterisation that could break
//! these guarantees (negative or non-finite jitter/skew — a negative delay
//! on a later message is exactly what could make it overtake an earlier one
//! on the same link — speed-up factors below 1, empty stall windows,
//! out-of-range ranks).

use crate::time::{SimDuration, SimTime};
use crate::types::{Fnv1a, Rank};
use std::fmt;

/// A rank whose computation runs slower than the application specifies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowRank {
    /// The slowed rank.
    pub rank: Rank,
    /// Multiplier (≥ 1.0) applied to every `compute` duration on the rank.
    pub factor: f64,
}

/// A bounded virtual-time window in which a rank makes no progress: the
/// first operation the rank issues with its clock inside `[at, at+duration)`
/// is delayed to the window's end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallWindow {
    /// The stalled rank.
    pub rank: Rank,
    /// Window start (virtual time).
    pub at: SimTime,
    /// Window length (must be non-zero).
    pub duration: SimDuration,
}

/// A rank that aborts mid-run: it completes `after_ops` MPI-level
/// operations, then dies before issuing the next one. The engine degrades
/// into a partial run reported as [`crate::error::SimError::RankFailed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashRank {
    /// The crashing rank.
    pub rank: Rank,
    /// Operations the rank completes before dying (0 = dies immediately).
    pub after_ops: u64,
}

/// A rank that dies *inside* a collective: it completes `at_collective`
/// collective operations, then crashes on entering the next one — after its
/// peers may already have arrived at the rendezvous, so the surviving
/// participants block on the collective's wait-for edges and the run
/// degrades to [`crate::error::SimError::RankFailed`] whose `blocked` list
/// names the collective and who arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollCrash {
    /// The crashing rank.
    pub rank: Rank,
    /// Collectives the rank completes entering before dying (0 = dies
    /// entering its first collective).
    pub at_collective: u64,
}

/// A deterministic fault-injection plan (see the module docs).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every pseudo-random choice the plan makes.
    pub seed: u64,
    /// Per-message latency jitter amplitude: each message's wire time is
    /// multiplied by a factor drawn uniformly from `[1, 1+latency_jitter]`,
    /// keyed by the message id. `0.0` disables.
    pub latency_jitter: f64,
    /// Per-link latency skew amplitude: each `(src, dst)` pair gets a fixed
    /// factor in `[1, 1+link_skew]`, keyed by the pair. `0.0` disables.
    pub link_skew: f64,
    /// Perturb the choice among senders eligible to match a wildcard
    /// receive (a legal reordering of concurrently-in-flight messages).
    pub reorder: bool,
    /// Ranks with slowed computation.
    pub slow: Vec<SlowRank>,
    /// Bounded stall windows.
    pub stalls: Vec<StallWindow>,
    /// Mid-run rank crashes.
    pub crashes: Vec<CrashRank>,
    /// Crashes on entry to a specific collective (see [`CollCrash`]).
    pub coll_crashes: Vec<CollCrash>,
    /// Per-rank arrival skew *inside* collectives: each rank's arrival at
    /// each collective is delayed by a duration drawn uniformly from
    /// `[0, coll_straggle)`, keyed by `(rank, comm, collective seq)`. A
    /// straggler model — late arrivals only stretch the rendezvous, they
    /// never reorder anything MPI specifies. `ZERO` disables.
    pub coll_straggle: SimDuration,
}

/// A parameterisation [`FaultPlan::validate`] refuses to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A jitter/skew amplitude was negative or non-finite: scaling a later
    /// message's latency below an earlier one's would let it overtake on
    /// the same `(src, dst, comm, tag)` channel.
    IllegalLatencyFactor {
        /// Which knob (`"latency_jitter"` or `"link_skew"`).
        knob: &'static str,
        /// The offending value, rendered (NaN survives formatting).
        value: String,
    },
    /// A slowdown factor was below 1.0 or non-finite; the plan may only
    /// delay a rank, never run it faster than the application specifies.
    IllegalSlowFactor {
        /// The offending rank.
        rank: Rank,
        /// The offending factor, rendered.
        value: String,
    },
    /// A stall window has zero duration (it could never be observed).
    EmptyStall {
        /// The offending rank.
        rank: Rank,
    },
    /// An action names a rank outside the world.
    RankOutOfRange {
        /// The offending rank.
        rank: Rank,
        /// World size the plan was validated against.
        world: usize,
    },
    /// Two crash actions name the same rank.
    DuplicateCrash {
        /// The doubly-crashed rank.
        rank: Rank,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::IllegalLatencyFactor { knob, value } => write!(
                f,
                "{knob} = {value} could reorder messages within one \
                 (src, dst, comm, tag) channel (MPI non-overtaking); \
                 amplitudes must be finite and >= 0"
            ),
            FaultError::IllegalSlowFactor { rank, value } => write!(
                f,
                "slow factor {value} for rank {rank} is not a slowdown \
                 (must be finite and >= 1.0)"
            ),
            FaultError::EmptyStall { rank } => {
                write!(f, "stall window for rank {rank} has zero duration")
            }
            FaultError::RankOutOfRange { rank, world } => {
                write!(f, "fault plan names rank {rank}, world has {world}")
            }
            FaultError::DuplicateCrash { rank } => {
                write!(f, "rank {rank} is crashed twice")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Hash domains keeping the plan's independent choices uncorrelated.
mod domain {
    pub const JITTER: u64 = 1;
    pub const SKEW: u64 = 2;
    pub const REORDER: u64 = 3;
    pub const PRESET: u64 = 4;
    pub const COLL: u64 = 5;
}

/// A deterministic draw from `[0, 1)` keyed by `(seed, domain, x, y)`.
fn unit(seed: u64, domain: u64, x: u64, y: u64) -> f64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    h.write_u64(domain);
    h.write_u64(x);
    h.write_u64(y);
    // Top 53 bits -> exactly representable in an f64 mantissa.
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// The per-link skew factor in `[1, 1+skew]` for `(seed, src, dst)`. Shared
/// with [`crate::network::SkewedNetwork`] so the decorator and the plan
/// agree by construction.
pub(crate) fn skew_factor_of(seed: u64, skew: f64, src: Rank, dst: Rank) -> f64 {
    1.0 + skew * unit(seed, domain::SKEW, src as u64, dst as u64)
}

impl FaultPlan {
    /// An empty plan with a seed (injects nothing until actions are added).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the per-message latency jitter amplitude.
    pub fn with_latency_jitter(mut self, amplitude: f64) -> FaultPlan {
        self.latency_jitter = amplitude;
        self
    }

    /// Set the per-link latency skew amplitude.
    pub fn with_link_skew(mut self, amplitude: f64) -> FaultPlan {
        self.link_skew = amplitude;
        self
    }

    /// Enable legal reordering of wildcard match choices.
    pub fn with_reorder(mut self) -> FaultPlan {
        self.reorder = true;
        self
    }

    /// Slow `rank`'s computation by `factor` (≥ 1.0).
    pub fn slow_rank(mut self, rank: Rank, factor: f64) -> FaultPlan {
        self.slow.push(SlowRank { rank, factor });
        self
    }

    /// Stall `rank` for `duration` starting at virtual time `at`.
    pub fn stall_rank(mut self, rank: Rank, at: SimTime, duration: SimDuration) -> FaultPlan {
        self.stalls.push(StallWindow { rank, at, duration });
        self
    }

    /// Crash `rank` after it completes `after_ops` MPI-level operations.
    pub fn crash_rank(mut self, rank: Rank, after_ops: u64) -> FaultPlan {
        self.crashes.push(CrashRank { rank, after_ops });
        self
    }

    /// Crash `rank` on entry to its `at_collective`-th collective (0-based):
    /// it never arrives at the rendezvous, its surviving peers block there.
    pub fn crash_in_collective(mut self, rank: Rank, at_collective: u64) -> FaultPlan {
        self.coll_crashes.push(CollCrash {
            rank,
            at_collective,
        });
        self
    }

    /// Set the per-rank collective arrival-skew amplitude.
    pub fn with_coll_straggle(mut self, amplitude: SimDuration) -> FaultPlan {
        self.coll_straggle = amplitude;
        self
    }

    /// This plan minus every crash action (op-count and collective-entry
    /// alike), with all timing perturbations kept. This is the plan a
    /// *re-trace* after a crash runs under: the same jitter/skew/straggle
    /// draws as the crashed run, but the lost rank lives this time, so the
    /// deterministic engine reproduces the run that never crashed, byte
    /// for byte.
    pub fn without_crashes(mut self) -> FaultPlan {
        self.crashes.clear();
        self.coll_crashes.clear();
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_noop(&self) -> bool {
        self.latency_jitter == 0.0
            && self.link_skew == 0.0
            && !self.reorder
            && self.slow.is_empty()
            && self.stalls.is_empty()
            && self.crashes.is_empty()
            && self.coll_crashes.is_empty()
            && self.coll_straggle == SimDuration::ZERO
    }

    /// Check the plan against a world of `n` ranks. See the module docs for
    /// why each rule exists; the engine refuses to run an invalid plan
    /// ([`crate::error::SimError::InvalidFaultPlan`]).
    pub fn validate(&self, n: usize) -> Result<(), FaultError> {
        for (knob, value) in [
            ("latency_jitter", self.latency_jitter),
            ("link_skew", self.link_skew),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(FaultError::IllegalLatencyFactor {
                    knob,
                    value: format!("{value}"),
                });
            }
        }
        let check_rank = |rank: Rank| {
            if rank >= n {
                Err(FaultError::RankOutOfRange { rank, world: n })
            } else {
                Ok(())
            }
        };
        for s in &self.slow {
            check_rank(s.rank)?;
            if !s.factor.is_finite() || s.factor < 1.0 {
                return Err(FaultError::IllegalSlowFactor {
                    rank: s.rank,
                    value: format!("{}", s.factor),
                });
            }
        }
        for s in &self.stalls {
            check_rank(s.rank)?;
            if s.duration == SimDuration::ZERO {
                return Err(FaultError::EmptyStall { rank: s.rank });
            }
        }
        // One rank, one death: duplicate detection spans both crash kinds.
        let mut crashed = Vec::new();
        for rank in self
            .crashes
            .iter()
            .map(|c| c.rank)
            .chain(self.coll_crashes.iter().map(|c| c.rank))
        {
            check_rank(rank)?;
            if crashed.contains(&rank) {
                return Err(FaultError::DuplicateCrash { rank });
            }
            crashed.push(rank);
        }
        Ok(())
    }

    /// Multiplicative wire-time factor (≥ 1.0) for message `msg_id`.
    pub fn jitter_factor(&self, msg_id: u64) -> f64 {
        if self.latency_jitter == 0.0 {
            return 1.0;
        }
        1.0 + self.latency_jitter * unit(self.seed, domain::JITTER, msg_id, 0)
    }

    /// Per-link skew factor (≥ 1.0) for the `(src, dst)` pair.
    pub fn skew_factor(&self, src: Rank, dst: Rank) -> f64 {
        if self.link_skew == 0.0 {
            return 1.0;
        }
        skew_factor_of(self.seed, self.link_skew, src, dst)
    }

    /// Sort key perturbing the wildcard match choice for message `msg_id`.
    pub fn reorder_key(&self, msg_id: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.seed);
        h.write_u64(domain::REORDER);
        h.write_u64(msg_id);
        h.finish()
    }

    /// Compute-slowdown factor for `rank` (1.0 when not slowed; stacked
    /// slowdowns multiply).
    pub fn slow_factor(&self, rank: Rank) -> f64 {
        self.slow
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.factor)
            .product()
    }

    /// If `rank`'s clock `now` falls inside one of its stall windows, the
    /// (latest) window end it must be delayed to.
    pub fn stall_until(&self, rank: Rank, now: SimTime) -> Option<SimTime> {
        self.stalls
            .iter()
            .filter(|s| s.rank == rank)
            .filter(|s| now >= s.at && now < s.at + s.duration)
            .map(|s| s.at + s.duration)
            .max()
    }

    /// Operations `rank` is allowed to complete before crashing.
    pub fn crash_after(&self, rank: Rank) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.rank == rank)
            .map(|c| c.after_ops)
    }

    /// The 0-based collective-entry index at which `rank` dies, if any.
    pub fn crash_at_collective(&self, rank: Rank) -> Option<u64> {
        self.coll_crashes
            .iter()
            .find(|c| c.rank == rank)
            .map(|c| c.at_collective)
    }

    /// Arrival delay in `[0, coll_straggle)` for `rank`'s `seq`-th
    /// collective on communicator `comm`. Deterministic in
    /// `(seed, rank, comm, seq)`.
    pub fn coll_straggle_delay(&self, rank: Rank, comm: u32, seq: u64) -> SimDuration {
        if self.coll_straggle == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let key = ((comm as u64) << 32) ^ seq;
        let u = unit(self.seed, domain::COLL, rank as u64, key);
        SimDuration::from_nanos((self.coll_straggle.as_nanos() as f64 * u) as u64)
    }

    /// The standard *differential* perturbation for chaos testing: jitter,
    /// skew, legal reordering, one hash-chosen slowed rank, and one bounded
    /// stall — everything that changes timing and arrival order without
    /// killing any rank, so the run still completes and its trace can be
    /// compared against the unperturbed baseline.
    pub fn differential(seed: u64, n: usize) -> FaultPlan {
        let pick = |x: u64, y: u64| unit(seed, domain::PRESET, x, y);
        let slow_rank = (pick(1, 0) * n as f64) as usize % n.max(1);
        let stall_rank = (pick(2, 0) * n as f64) as usize % n.max(1);
        FaultPlan::seeded(seed)
            .with_latency_jitter(0.5)
            .with_link_skew(0.25)
            .with_reorder()
            .slow_rank(slow_rank, 1.0 + 2.0 * pick(3, 0))
            .stall_rank(
                stall_rank,
                SimTime::from_nanos((pick(4, 0) * 500_000.0) as u64),
                SimDuration::from_usecs(50 + (pick(5, 0) * 450.0) as u64),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_validates_and_injects_nothing() {
        let plan = FaultPlan::seeded(7);
        assert!(plan.is_noop());
        plan.validate(4).unwrap();
        assert_eq!(plan.jitter_factor(3), 1.0);
        assert_eq!(plan.skew_factor(0, 1), 1.0);
        assert_eq!(plan.slow_factor(2), 1.0);
        assert_eq!(plan.stall_until(0, SimTime::ZERO), None);
        assert_eq!(plan.crash_after(0), None);
    }

    #[test]
    fn validation_rejects_overtaking_enabling_latency_factors() {
        // A negative delay on a later same-channel message is exactly what
        // could make it overtake an earlier one: reject at validation.
        for bad in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FaultPlan::seeded(0)
                .with_latency_jitter(bad)
                .validate(4)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    FaultError::IllegalLatencyFactor {
                        knob: "latency_jitter",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
            let err = FaultPlan::seeded(0)
                .with_link_skew(bad)
                .validate(4)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    FaultError::IllegalLatencyFactor {
                        knob: "link_skew",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
        }
        assert!(format!(
            "{}",
            FaultPlan::seeded(0)
                .with_latency_jitter(-1.0)
                .validate(2)
                .unwrap_err()
        )
        .contains("non-overtaking"));
    }

    #[test]
    fn validation_rejects_speedups_empty_stalls_and_bad_ranks() {
        for bad in [0.5, 0.0, -2.0, f64::NAN] {
            assert!(matches!(
                FaultPlan::seeded(0).slow_rank(1, bad).validate(4),
                Err(FaultError::IllegalSlowFactor { rank: 1, .. })
            ));
        }
        assert_eq!(
            FaultPlan::seeded(0)
                .stall_rank(2, SimTime::ZERO, SimDuration::ZERO)
                .validate(4),
            Err(FaultError::EmptyStall { rank: 2 })
        );
        assert_eq!(
            FaultPlan::seeded(0).crash_rank(4, 0).validate(4),
            Err(FaultError::RankOutOfRange { rank: 4, world: 4 })
        );
        assert_eq!(
            FaultPlan::seeded(0)
                .crash_rank(1, 0)
                .crash_rank(1, 5)
                .validate(4),
            Err(FaultError::DuplicateCrash { rank: 1 })
        );
    }

    #[test]
    fn factors_are_deterministic_bounded_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_latency_jitter(0.5);
        let b = FaultPlan::seeded(2).with_latency_jitter(0.5);
        let mut differs = false;
        for id in 0..64u64 {
            let fa = a.jitter_factor(id);
            assert!((1.0..=1.5).contains(&fa), "{fa}");
            assert_eq!(fa, a.jitter_factor(id), "pure function of (seed, id)");
            differs |= fa != b.jitter_factor(id);
        }
        assert!(differs, "two seeds model two different executions");

        let p = FaultPlan::seeded(9).with_link_skew(0.25);
        for (s, d) in [(0, 1), (1, 0), (3, 2)] {
            let f = p.skew_factor(s, d);
            assert!((1.0..=1.25).contains(&f));
            assert_eq!(f, p.skew_factor(s, d));
        }
    }

    #[test]
    fn stall_windows_are_bounded_and_only_apply_inside() {
        let at = SimTime::from_nanos(1000);
        let d = SimDuration::from_nanos(500);
        let p = FaultPlan::seeded(0).stall_rank(1, at, d);
        assert_eq!(p.stall_until(1, SimTime::from_nanos(999)), None);
        assert_eq!(
            p.stall_until(1, SimTime::from_nanos(1000)),
            Some(SimTime::from_nanos(1500))
        );
        assert_eq!(
            p.stall_until(1, SimTime::from_nanos(1499)),
            Some(SimTime::from_nanos(1500))
        );
        assert_eq!(p.stall_until(1, SimTime::from_nanos(1500)), None);
        assert_eq!(p.stall_until(0, SimTime::from_nanos(1200)), None);
    }

    #[test]
    fn collective_faults_validate_draw_bounded_delays_and_strip_cleanly() {
        let amp = SimDuration::from_usecs(100);
        let p = FaultPlan::seeded(5)
            .with_coll_straggle(amp)
            .crash_in_collective(2, 3);
        p.validate(4).unwrap();
        assert!(!p.is_noop());
        assert_eq!(p.crash_at_collective(2), Some(3));
        assert_eq!(p.crash_at_collective(0), None);
        for (rank, comm, seq) in [(0, 0, 0), (1, 0, 7), (3, 2, 1)] {
            let d = p.coll_straggle_delay(rank, comm, seq);
            assert!(d < amp, "{d}");
            assert_eq!(d, p.coll_straggle_delay(rank, comm, seq), "deterministic");
        }
        // distinct keys draw distinct delays (overwhelmingly)
        assert_ne!(
            p.coll_straggle_delay(0, 0, 0),
            p.coll_straggle_delay(1, 0, 0)
        );
        // without_crashes strips both crash kinds, keeps the timing knobs
        let resumed = p.clone().crash_rank(1, 9).without_crashes();
        assert!(resumed.crashes.is_empty() && resumed.coll_crashes.is_empty());
        assert_eq!(resumed.coll_straggle, amp);
        // duplicate detection spans both crash lists
        assert_eq!(
            FaultPlan::seeded(0)
                .crash_rank(1, 2)
                .crash_in_collective(1, 0)
                .validate(4),
            Err(FaultError::DuplicateCrash { rank: 1 })
        );
        assert_eq!(
            FaultPlan::seeded(0).crash_in_collective(7, 0).validate(4),
            Err(FaultError::RankOutOfRange { rank: 7, world: 4 })
        );
    }

    #[test]
    fn differential_preset_is_valid_and_crash_free_for_any_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            for n in [1, 2, 8, 16] {
                let p = FaultPlan::differential(seed, n);
                p.validate(n).unwrap();
                assert!(p.crashes.is_empty(), "differential plans must complete");
                assert!(p.reorder);
                assert_eq!(p, FaultPlan::differential(seed, n), "reproducible");
            }
        }
    }
}
