//! **Algorithm 1**: aligning per-node collective RSDs.
//!
//! MPI allows the same logical collective to be invoked from different
//! source lines on different ranks (the paper's Figure 3: ranks 0 and 1
//! call `MPI_Barrier` from different lines of an `if`/`else`). ScalaTrace
//! distinguishes call sites by stack signature, so such a collective
//! appears as several RSDs, each covering only a subset of the
//! communicator. Before code generation these must be combined into a
//! single RSD whose participants are statically identifiable (§4.3).
//!
//! The implementation follows the paper's traversal scheme: a per-rank
//! traversal context (our [`scalatrace::Cursor`]) walks each rank's event
//! stream; non-collective events are appended to the output; a rank
//! arriving at a collective *blocks* until every other participant of the
//! communicator has arrived at a matching collective, at which point one
//! logical collective — with a signature unified across the contributing
//! call sites — is emitted for all participants and the blocked ranks
//! resume. `MPI_Finalize` is treated as a collective over the world so the
//! traversal only finishes when every rank is exhausted. The output queue
//! is re-compressed exactly as ScalaTrace compresses traces
//! ([`crate::rebuild`]).
//!
//! The cursors walk the compressed trace, never an expanded stream, and
//! every sweep boundary is a cut for the period detector
//! (`crate::traverse`): once the traversal's state recurs, the rest of a
//! loop is skipped whole. Complexity is O(p·e) in ranks × events walked,
//! and the events walked are those of the periods before the state recurs
//! plus what no period covers — not the iterations. The traversal is
//! guarded by the O(r) pre-check
//! [`scalatrace::Trace::has_unaligned_collectives`].

use crate::rebuild::SegmentedRebuilder;
use crate::traverse::{communicators, Events, PeriodDetector, Walker};
use crate::GenError;
use mpisim::types::{CollKind, Fnv1a};
use scalatrace::cursor::{ConcreteEvent, ConcreteOp};
use scalatrace::trace::Trace;

/// The collective a rank is currently blocked on.
struct BlockedColl {
    event: ConcreteEvent,
    kind: CollKind,
    comm: u32,
}

/// One rank's traversal context.
struct RankWalk<'t> {
    events: Events<'t>,
    blocked: Option<BlockedColl>,
    done: bool,
}

impl<'t> Walker<'t> for RankWalk<'t> {
    fn events(&mut self) -> &mut Events<'t> {
        &mut self.events
    }

    fn waiting_at(&self) -> Option<&ConcreteEvent> {
        self.blocked.as_ref().map(|b| &b.event)
    }

    fn done(&self) -> bool {
        self.done
    }
}

fn collective_of(ev: &ConcreteEvent) -> Option<(CollKind, u32)> {
    match &ev.op {
        ConcreteOp::Coll { kind, comm, .. } => Some((*kind, *comm)),
        ConcreteOp::CommSplit { parent, .. } => Some((CollKind::CommSplit, *parent)),
        _ => None,
    }
}

/// Run Algorithm 1, producing a trace in which every collective operation
/// corresponds to exactly one RSD covering its full communicator.
pub fn align_collectives(trace: &Trace) -> Result<Trace, GenError> {
    align(trace, false).map(|(aligned, _)| aligned)
}

/// Algorithm 1 over plainly expanded streams, skipping nothing: the oracle
/// the cursors and the period skip are tested against.
#[doc(hidden)]
pub fn align_collectives_expanded(trace: &Trace) -> Result<Trace, GenError> {
    align(trace, true).map(|(aligned, _)| aligned)
}

/// Algorithm 1, and how many events its traversal walked: what a period
/// skip saves shows here, never in the output.
#[doc(hidden)]
pub fn align_collectives_walked(trace: &Trace) -> Result<(Trace, u64), GenError> {
    align(trace, false)
}

fn align(trace: &Trace, expanded: bool) -> Result<(Trace, u64), GenError> {
    let n = trace.nranks;
    let mut ranks: Vec<RankWalk> = (0..n)
        .map(|r| RankWalk {
            events: Events::of(trace, r, expanded),
            blocked: None,
            done: false,
        })
        .collect();
    let mut rb = SegmentedRebuilder::new(n);
    let mut periods = (!expanded).then(|| PeriodDetector::new(&mut rb));
    let comms = communicators(trace);
    let mut walked = 0u64;

    loop {
        let mut progressed = false;

        // Advance every unblocked rank to its next collective (or the end).
        for (r, rank) in ranks.iter_mut().enumerate() {
            if rank.done || rank.blocked.is_some() {
                continue;
            }
            loop {
                let Some(ev) = rank.events.next() else {
                    rank.done = true;
                    break;
                };
                walked += 1;
                progressed = true;
                if let Some((kind, comm)) = collective_of(&ev) {
                    rank.blocked = Some(BlockedColl {
                        event: ev,
                        kind,
                        comm,
                    });
                    break;
                }
                rb.rank_event(r, &ev);
            }
        }

        // Complete every collective whose full communicator has arrived. A
        // completion unblocks its ranks only for the next sweep, so this
        // sweep's completions cover disjoint ranks and go to the rebuilder
        // as one batch.
        let mut completed: Vec<Vec<(usize, ConcreteEvent)>> = Vec::new();
        for &(comm, members) in &comms {
            let blocked = |m: usize| ranks[m].blocked.as_ref().filter(|b| b.comm == comm);
            if !members.iter().all(|&m| blocked(m).is_some()) {
                continue;
            }
            // Kinds must agree — mismatched kinds on one communicator means
            // the application's collective usage is invalid.
            let kind0 = blocked(members[0]).unwrap().kind;
            if let Some(&bad) = members.iter().find(|&&m| blocked(m).unwrap().kind != kind0) {
                let found = blocked(bad).unwrap().kind;
                return Err(GenError::UnalignableCollective(format!(
                    "communicator {comm}: rank {} entered {} while rank {bad} entered {found}",
                    members[0], kind0
                )));
            }
            // Unified signature across the contributing call sites.
            let mut sigs: Vec<u64> = members
                .iter()
                .map(|&m| blocked(m).unwrap().event.sig)
                .collect();
            sigs.sort_unstable();
            sigs.dedup();
            let mut h = Fnv1a::new();
            for s in &sigs {
                h.write_u64(*s);
            }
            let unified_sig = h.finish();
            let events: Vec<(usize, ConcreteEvent)> = members
                .iter()
                .map(|&m| {
                    let b = ranks[m].blocked.take().unwrap();
                    let mut ev = b.event;
                    ev.sig = unified_sig;
                    (m, ev)
                })
                .collect();
            completed.push(events);
        }
        if !completed.is_empty() {
            rb.collectives(&completed);
            progressed = true;
        }

        if ranks.iter().all(|r| r.done && r.blocked.is_none()) {
            break;
        }
        if !progressed {
            let stuck: Vec<String> = ranks
                .iter()
                .enumerate()
                .filter_map(|(r, rank)| {
                    rank.blocked
                        .as_ref()
                        .map(|b| format!("rank {r} at {} on comm {}", b.kind, b.comm))
                })
                .collect();
            return Err(GenError::UnalignableCollective(format!(
                "no progress aligning collectives; blocked: [{}]",
                stuck.join(", ")
            )));
        }
        if let Some(periods) = &mut periods {
            periods.cut(&mut ranks, &mut rb, 0);
        }
    }

    Ok((rb.finish(trace.comms.clone()), walked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::time::SimDuration;
    use scalatrace::trace_app;

    /// The paper's Figure 3: ranks call MPI_Barrier from *different source
    /// lines* depending on their rank.
    fn figure3_trace(n: usize) -> Trace {
        trace_app(n, network::ideal(), |ctx| {
            let w = ctx.world();
            for _ in 0..10 {
                ctx.compute(SimDuration::from_usecs(50));
                // identical branches on purpose: distinct *call sites*
                #[allow(clippy::if_same_then_else, clippy::branches_sharing_code)]
                if ctx.rank() % 2 == 0 {
                    ctx.barrier(&w); // call site A
                } else {
                    ctx.barrier(&w); // call site B
                }
            }
            ctx.finalize();
        })
        .unwrap()
        .trace
    }

    #[test]
    fn figure3_collectives_are_split_before_and_merged_after() {
        let trace = figure3_trace(8);
        assert!(
            trace.has_unaligned_collectives(),
            "two call sites must produce partial-communicator RSDs:\n{trace}"
        );
        let aligned = align_collectives(&trace).expect("aligns");
        assert!(
            !aligned.has_unaligned_collectives(),
            "all collectives must cover their communicator:\n{aligned}"
        );
        // semantics preserved: same per-rank op streams (modulo signatures)
        scalatrace::cursor::semantically_equal(&trace, &aligned).expect("semantics preserved");
    }

    #[test]
    fn aligned_trace_is_no_larger_than_exploded_input() {
        let trace = figure3_trace(8);
        let aligned = align_collectives(&trace).expect("aligns");
        // 10 iterations × (compute+barrier) + finalize → compact loop
        assert!(
            aligned.node_count() <= trace.node_count() + 4,
            "aligned {} vs input {}:\n{aligned}",
            aligned.node_count(),
            trace.node_count()
        );
    }

    #[test]
    fn already_aligned_trace_passes_through() {
        let trace = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            ctx.barrier(&w);
            ctx.finalize();
        })
        .unwrap()
        .trace;
        assert!(!trace.has_unaligned_collectives());
        let aligned = align_collectives(&trace).expect("aligns");
        scalatrace::cursor::semantically_equal(&trace, &aligned).expect("unchanged semantics");
    }

    #[test]
    fn subcommunicator_collectives_align() {
        let trace = trace_app(8, network::ideal(), |ctx| {
            let w = ctx.world();
            let row = ctx.comm_split(&w, (ctx.rank() / 4) as i64, ctx.rank() as i64);
            // different call sites per row-parity within each subcomm
            // (identical branches on purpose: distinct *call sites*)
            #[allow(clippy::if_same_then_else, clippy::branches_sharing_code)]
            if ctx.rank() % 2 == 0 {
                ctx.allreduce(64, &row);
            } else {
                ctx.allreduce(64, &row);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        assert!(trace.has_unaligned_collectives());
        let aligned = align_collectives(&trace).expect("aligns");
        assert!(!aligned.has_unaligned_collectives(), "{aligned}");
        scalatrace::cursor::semantically_equal(&trace, &aligned).expect("semantics preserved");
    }

    #[test]
    fn mismatched_collectives_are_rejected() {
        // rank 0 enters a barrier while rank 1 enters an allreduce at the
        // same sequence point: invalid MPI. Construct the trace manually
        // (the runtime would abort such a program).
        use scalatrace::params::ValParam;
        use scalatrace::rankset::RankSet;
        use scalatrace::timestats::TimeStats;
        use scalatrace::trace::{OpTemplate, Rsd, TraceNode};
        let mut trace = Trace::new(2);
        let mk = |rank: usize, kind: CollKind, sig: u64| {
            TraceNode::Event(Rsd {
                ranks: RankSet::single(rank),
                sig,
                op: OpTemplate::Coll {
                    kind,
                    root: None,
                    bytes: ValParam::Const(0),
                    comm: scalatrace::params::CommParam::Const(0),
                },
                compute: TimeStats::new(),
            })
        };
        trace.nodes.push(mk(0, CollKind::Barrier, 1));
        trace.nodes.push(mk(1, CollKind::Allreduce, 2));
        let err = align_collectives(&trace).unwrap_err();
        assert!(matches!(err, GenError::UnalignableCollective(_)), "{err:?}");
    }
}
