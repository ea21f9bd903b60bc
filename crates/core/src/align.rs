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
//! ([`crate::rebuild`]). Complexity is O(p·e) in ranks × events, guarded
//! by the O(r) pre-check [`scalatrace::Trace::has_unaligned_collectives`].

use crate::rebuild::SegmentedRebuilder;
use crate::GenError;
use mpisim::types::{CollKind, Fnv1a};
use scalatrace::cursor::{ConcreteEvent, ConcreteOp, Cursor};
use scalatrace::trace::Trace;

/// The collective a rank is currently blocked on.
struct BlockedColl {
    event: ConcreteEvent,
    kind: CollKind,
    comm: u32,
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
    let n = trace.nranks;
    // Per-rank traversal fan-out on the shared pool: each rank's compressed
    // stream expands independently. The alignment loop walks the expanded
    // streams by index in exactly the order the incremental cursors would
    // have produced, so the result is identical for every thread count.
    let streams: Vec<Vec<ConcreteEvent>> =
        par::par_map_indexed(par::threads(), n, |r| Cursor::new(trace, r).collect_all());
    let mut pos = vec![0usize; n];
    let mut rb = SegmentedRebuilder::new(n);
    let mut blocked: Vec<Option<BlockedColl>> = (0..n).map(|_| None).collect();
    let mut done = vec![false; n];

    loop {
        let mut progressed = false;

        // Advance every unblocked rank to its next collective (or the end).
        for r in 0..n {
            if done[r] || blocked[r].is_some() {
                continue;
            }
            loop {
                match streams[r].get(pos[r]).cloned() {
                    None => {
                        done[r] = true;
                        break;
                    }
                    Some(ev) => {
                        pos[r] += 1;
                        if let Some((kind, comm)) = collective_of(&ev) {
                            blocked[r] = Some(BlockedColl {
                                event: ev,
                                kind,
                                comm,
                            });
                            progressed = true;
                            break;
                        }
                        rb.rank_event(r, &ev);
                        progressed = true;
                    }
                }
            }
        }

        // Complete every collective whose full communicator has arrived. A
        // completion unblocks its ranks only for the next sweep, so this
        // sweep's completions cover disjoint ranks and go to the rebuilder
        // as one batch.
        let mut completed: Vec<Vec<(usize, ConcreteEvent)>> = Vec::new();
        let comm_ids: Vec<u32> = trace.comms.ids().collect();
        for comm in comm_ids {
            let members = trace.comms.members(comm).to_vec();
            if members.is_empty() {
                continue;
            }
            let all_here = members
                .iter()
                .all(|&m| blocked[m].as_ref().is_some_and(|b| b.comm == comm));
            if !all_here {
                continue;
            }
            // Kinds must agree — mismatched kinds on one communicator means
            // the application's collective usage is invalid.
            let kind0 = blocked[members[0]].as_ref().unwrap().kind;
            if let Some(&bad) = members
                .iter()
                .find(|&&m| blocked[m].as_ref().unwrap().kind != kind0)
            {
                let found = blocked[bad].as_ref().unwrap().kind;
                return Err(GenError::UnalignableCollective(format!(
                    "communicator {comm}: rank {} entered {} while rank {bad} entered {found}",
                    members[0], kind0
                )));
            }
            // Unified signature across the contributing call sites.
            let mut sigs: Vec<u64> = members
                .iter()
                .map(|&m| blocked[m].as_ref().unwrap().event.sig)
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
                    let b = blocked[m].take().unwrap();
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

        if done.iter().all(|&d| d) && blocked.iter().all(Option::is_none) {
            break;
        }
        if !progressed {
            let stuck: Vec<String> = blocked
                .iter()
                .enumerate()
                .filter_map(|(r, b)| {
                    b.as_ref()
                        .map(|b| format!("rank {r} at {} on comm {}", b.kind, b.comm))
                })
                .collect();
            return Err(GenError::UnalignableCollective(format!(
                "no progress aligning collectives; blocked: [{}]",
                stuck.join(", ")
            )));
        }
    }

    Ok(rb.finish(trace.comms.clone()))
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
