//! Simulation errors, most importantly runtime deadlock diagnostics.

use crate::time::SimTime;
use crate::types::Rank;
use std::fmt;

/// Description of what a rank was blocked on when a deadlock was declared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedOn {
    /// The blocked rank.
    pub rank: Rank,
    /// Its virtual clock when the deadlock was declared.
    pub clock: SimTime,
    /// Human-readable description of the blocking operation, e.g.
    /// `"MPI_Recv(src=0, tag=1)"` or `"MPI_Barrier(comm 0, 3/4 arrived)"`.
    pub what: String,
    /// The wait-for edge: which ranks this rank cannot proceed without
    /// (peers of its incomplete requests, or collective stragglers). Empty
    /// when the peer set is unknown (e.g. an unmatched wildcard receive).
    pub waiting_on: Vec<Rank>,
}

impl fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} @ {}: blocked on {}",
            self.rank, self.clock, self.what
        )?;
        if !self.waiting_on.is_empty() {
            let peers: Vec<String> = self.waiting_on.iter().map(|r| r.to_string()).collect();
            write!(f, " (waiting on rank(s) {})", peers.join(", "))?;
        }
        Ok(())
    }
}

/// Which resource a [`SimError::BudgetExceeded`] budget bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Budget {
    /// Total MPI-level operations issued across all ranks.
    Operations,
    /// Any single rank's virtual clock, in nanoseconds.
    VirtualTimeNanos,
    /// The world size (the engine does not enforce it; callers that cap it do).
    Ranks,
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Budget::Operations => write!(f, "operation budget"),
            Budget::VirtualTimeNanos => write!(f, "virtual-time budget"),
            Budget::Ranks => write!(f, "world-size budget"),
        }
    }
}

/// Errors surfaced by [`crate::world::World::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// No rank can make progress: the application (not the simulator)
    /// deadlocked. Carries a per-rank diagnostic.
    Deadlock(Vec<BlockedOn>),
    /// Two ranks entered different collectives on the same communicator at
    /// the same sequence point — invalid MPI usage.
    CollectiveMismatch {
        /// Communicator on which the mismatch occurred.
        comm: u32,
        /// Collective the earlier arrivals entered.
        expected: String,
        /// Collective the offending rank entered.
        found: String,
        /// The offending rank.
        rank: Rank,
    },
    /// An operation referenced a rank outside the communicator.
    InvalidRank {
        /// The out-of-range absolute rank.
        rank: Rank,
        /// Communicator id.
        comm: u32,
        /// Communicator size.
        size: usize,
    },
    /// An operation referenced an unknown communicator or request handle.
    InvalidHandle(String),
    /// A rank's body panicked (with the panic message if it was a string).
    RankPanicked {
        /// The panicking rank.
        rank: Rank,
        /// Its panic message.
        message: String,
    },
    /// A rank exited while still holding incomplete nonblocking requests.
    DanglingRequests {
        /// The offending rank.
        rank: Rank,
        /// How many requests were incomplete.
        count: usize,
    },
    /// A rank was killed by an injected fault plan
    /// ([`crate::faults::FaultPlan::crash_rank`]). The run degraded into a
    /// partial execution: every other rank ran until it completed or blocked
    /// on the dead rank, and any installed hooks (tracers, profilers) retain
    /// what was observed up to that point.
    RankFailed {
        /// The crashed rank.
        rank: Rank,
        /// MPI-level operations the rank completed before dying.
        after_ops: u64,
        /// Survivors left blocked by the crash (empty if all completed).
        blocked: Vec<BlockedOn>,
    },
    /// A deterministic resource budget was exhausted before the application
    /// completed, or a run was refused because it would exhaust one. It
    /// cuts off livelocks and oversized jobs reproducibly.
    BudgetExceeded {
        /// Which budget ran out.
        budget: Budget,
        /// The configured limit.
        limit: u64,
        /// The value that crossed it: observed during the run, or the
        /// lower bound that refused it beforehand.
        observed: u64,
        /// The rank whose operation crossed the limit; `None` when the run
        /// was refused before any rank started.
        rank: Option<Rank>,
    },
    /// A fault plan failed [`crate::faults::FaultPlan::validate`]; the run
    /// was refused before any rank was spawned.
    InvalidFaultPlan(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(blocked) => {
                writeln!(f, "deadlock: no rank can make progress")?;
                for b in blocked {
                    writeln!(f, "  {b}")?;
                }
                Ok(())
            }
            SimError::CollectiveMismatch {
                comm,
                expected,
                found,
                rank,
            } => write!(
                f,
                "collective mismatch on comm {comm}: rank {rank} entered {found} \
                 while peers entered {expected}"
            ),
            SimError::InvalidRank { rank, comm, size } => {
                write!(f, "rank {rank} out of range for comm {comm} (size {size})")
            }
            SimError::InvalidHandle(what) => write!(f, "invalid handle: {what}"),
            SimError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            SimError::DanglingRequests { rank, count } => {
                write!(f, "rank {rank} exited with {count} incomplete request(s)")
            }
            SimError::RankFailed {
                rank,
                after_ops,
                blocked,
            } => {
                write!(
                    f,
                    "rank {rank} failed (injected crash after {after_ops} operation(s))"
                )?;
                if !blocked.is_empty() {
                    writeln!(f, "; survivors left blocked:")?;
                    for b in blocked {
                        writeln!(f, "  {b}")?;
                    }
                }
                Ok(())
            }
            SimError::BudgetExceeded {
                budget,
                limit,
                observed,
                rank,
            } => {
                let at = rank.map_or("before the run: needs at least".to_string(), |r| {
                    format!("at rank {r}: observed")
                });
                write!(f, "{budget} exceeded {at} {observed}, limit {limit}")
            }
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_ranks() {
        let err = SimError::Deadlock(vec![
            BlockedOn {
                rank: 0,
                clock: SimTime::from_nanos(100),
                what: "MPI_Recv(src=1)".into(),
                waiting_on: vec![1],
            },
            BlockedOn {
                rank: 1,
                clock: SimTime::from_nanos(200),
                what: "MPI_Recv(src=0)".into(),
                waiting_on: vec![0],
            },
        ]);
        let s = err.to_string();
        assert!(s.contains("rank 0"));
        assert!(s.contains("rank 1"));
        assert!(s.contains("MPI_Recv(src=0)"));
        assert!(s.contains("(waiting on rank(s) 0)"), "{s}");
    }

    #[test]
    fn blocked_without_known_peers_omits_wait_for_edge() {
        let b = BlockedOn {
            rank: 2,
            clock: SimTime::ZERO,
            what: "MPI_Recv(src=ANY)".into(),
            waiting_on: vec![],
        };
        assert!(!b.to_string().contains("waiting on"));
    }

    #[test]
    fn rank_failed_and_budget_display() {
        let err = SimError::RankFailed {
            rank: 3,
            after_ops: 17,
            blocked: vec![BlockedOn {
                rank: 1,
                clock: SimTime::from_nanos(5),
                what: "MPI_Recv(src=3)".into(),
                waiting_on: vec![3],
            }],
        };
        let s = err.to_string();
        assert!(s.contains("rank 3 failed"));
        assert!(s.contains("after 17 operation(s)"));
        assert!(s.contains("MPI_Recv(src=3)"));

        let err = SimError::BudgetExceeded {
            budget: Budget::Operations,
            limit: 100,
            observed: 101,
            rank: Some(0),
        };
        assert!(err
            .to_string()
            .contains("operation budget exceeded at rank 0"));
        let err = SimError::BudgetExceeded {
            budget: Budget::Ranks,
            limit: 4,
            observed: 5,
            rank: None,
        };
        assert_eq!(
            err.to_string(),
            "world-size budget exceeded before the run: needs at least 5, limit 4"
        );
        assert!(SimError::InvalidFaultPlan("bad".into())
            .to_string()
            .contains("invalid fault plan: bad"));
    }

    #[test]
    fn mismatch_display() {
        let err = SimError::CollectiveMismatch {
            comm: 0,
            expected: "MPI_Barrier".into(),
            found: "MPI_Bcast".into(),
            rank: 3,
        };
        assert!(err.to_string().contains("MPI_Bcast"));
    }
}
