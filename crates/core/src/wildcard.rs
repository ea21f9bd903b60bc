//! **Algorithm 2**: eliminating nondeterminism from wildcard receives, with
//! deadlock detection.
//!
//! `MPI_ANY_SOURCE` receives make a benchmark's performance depend on the
//! run-to-run message arrival order (§4.1/§4.4). The generator therefore
//! replaces each wildcard with an *arbitrary but valid* concrete source,
//! found by a virtual execution of the trace: per-rank traversal contexts
//! issue point-to-point events into per-receiver matching queues (the
//! paper's L1/L2 lists); when a send matches a wildcard receive, the
//! wildcard is resolved to that sender. Traversal for a rank stops at
//! (1) a blocking send/receive, (2) a collective, or (3) a wait whose
//! covered operations are not all matched, and resumes when matching
//! progress unblocks it.
//!
//! Because ScalaTrace does not record which sender actually matched a
//! wildcard, a trace of a *potentially deadlocking* application can make
//! this virtual execution hang (the paper's Figure 5). The scheduler
//! therefore detects global lack of progress and reports a potential
//! deadlock with per-rank diagnostics — a *sufficient* (not necessary)
//! detection, exactly as the paper describes. Unlike the paper we resolve
//! each wildcard *occurrence* (not just the first occurrence per RSD):
//! when all occurrences agree the output recompresses to the same size,
//! and when they differ the paper's first-match substitution could emit a
//! benchmark that deadlocks, which per-occurrence resolution avoids.
//!
//! The traversal contexts are lazy cursors over the compressed trace. A
//! receive is patched after it is emitted, so emissions are logged and
//! replayed into the rebuilder at each *quiescent cut*: a sweep boundary
//! with no pending send or receive, no outstanding request, and no rank
//! blocked except at a collective. Each such cut is also where the period
//! detector looks for a repeated state (`crate::traverse`); a skipped
//! period resolves its wildcards exactly as the walked one did. The cost is
//! O(p·e) in ranks × events walked, where the events walked stop growing
//! with iterations once a quiescent state recurs.

use crate::rebuild::{Emission, SegmentedRebuilder};
use crate::traverse::{communicators, Events, PeriodDetector, Walker};
use crate::GenError;
use mpisim::comm::CommId;
use mpisim::types::{CollKind, Src, Tag, TagSel};
use scalatrace::cursor::{ConcreteEvent, ConcreteOp};
use scalatrace::trace::Trace;
use std::collections::VecDeque;

/// Result of wildcard resolution.
#[derive(Debug)]
pub struct WildcardOutcome {
    /// The trace with every wildcard receive resolved.
    pub trace: Trace,
    /// Number of wildcard receive *occurrences* resolved.
    pub resolved: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Send(usize),
    Recv(usize),
}

struct SendState {
    matched: bool,
}

struct RecvState {
    owner: usize,
    out_idx: usize,
    from: Src,
    tag: TagSel,
    comm: CommId,
    matched: Option<usize>,
}

enum Block {
    /// Blocking send awaiting a matching receive.
    Send(usize),
    /// Blocking receive awaiting a matching send.
    Recv(usize),
    /// Wait whose covered operations are not all matched.
    Wait {
        event: ConcreteEvent,
        covered: Vec<Op>,
    },
    /// Collective awaiting the rest of the communicator.
    Coll(ConcreteEvent, CollKind, CommId),
}

struct RankCtx<'t> {
    events: Events<'t>,
    exhausted: bool,
    /// Emitted since the last quiescent cut, receives patched in place.
    out: Vec<ConcreteEvent>,
    outstanding: VecDeque<Op>,
    blocked: Option<Block>,
}

impl<'t> Walker<'t> for RankCtx<'t> {
    fn events(&mut self) -> &mut Events<'t> {
        &mut self.events
    }

    fn waiting_at(&self) -> Option<&ConcreteEvent> {
        match &self.blocked {
            Some(Block::Coll(ev, ..)) => Some(ev),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.exhausted
    }
}

/// Push an event to a rank's output stream and record it in the emission
/// log (the order the segmented rebuilder will replay).
fn emit(ranks: &mut [RankCtx], log: &mut Vec<Emission>, rank: usize, ev: ConcreteEvent) -> usize {
    ranks[rank].out.push(ev);
    let idx = ranks[rank].out.len() - 1;
    log.push(Emission::Rank { rank, idx });
    idx
}

struct Matcher {
    sends: Vec<SendState>,
    recvs: Vec<RecvState>,
    /// per destination: unmatched sends in issue order `(send_id, src, tag, comm)`
    pending_sends: Vec<VecDeque<(usize, usize, Tag, CommId)>>,
    /// per owner: unmatched posted receives in post order
    pending_recvs: Vec<VecDeque<usize>>,
    /// Entries in the two pending lists.
    pending: usize,
    resolved: usize,
}

impl Matcher {
    fn new(n: usize) -> Matcher {
        Matcher {
            sends: Vec::new(),
            recvs: Vec::new(),
            pending_sends: (0..n).map(|_| VecDeque::new()).collect(),
            pending_recvs: (0..n).map(|_| VecDeque::new()).collect(),
            pending: 0,
            resolved: 0,
        }
    }

    fn issue_send(
        &mut self,
        src: usize,
        dst: usize,
        tag: Tag,
        comm: CommId,
        ranks: &mut [RankCtx],
    ) -> usize {
        let id = self.sends.len();
        self.sends.push(SendState { matched: false });
        // first posted receive at dst matching this send
        let pos = self.pending_recvs[dst].iter().position(|&rid| {
            let r = &self.recvs[rid];
            r.comm == comm && r.tag.matches(tag) && r.from.matches(src)
        });
        match pos {
            Some(p) => {
                let rid = self.pending_recvs[dst].remove(p).unwrap();
                self.pending -= 1;
                self.complete_match(id, rid, src, ranks);
            }
            None => {
                self.pending_sends[dst].push_back((id, src, tag, comm));
                self.pending += 1;
            }
        }
        id
    }

    fn issue_recv(
        &mut self,
        owner: usize,
        out_idx: usize,
        from: Src,
        tag: TagSel,
        comm: CommId,
        ranks: &mut [RankCtx],
    ) -> usize {
        let rid = self.recvs.len();
        self.recvs.push(RecvState {
            owner,
            out_idx,
            from,
            tag,
            comm,
            matched: None,
        });
        // earliest unmatched send to `owner` matching the selector
        let pos = self.pending_sends[owner]
            .iter()
            .position(|&(_, src, t, c)| c == comm && tag.matches(t) && from.matches(src));
        match pos {
            Some(p) => {
                let (sid, src, _, _) = self.pending_sends[owner].remove(p).unwrap();
                self.pending -= 1;
                self.complete_match(sid, rid, src, ranks);
            }
            None => {
                self.pending_recvs[owner].push_back(rid);
                self.pending += 1;
            }
        }
        rid
    }

    /// Record a send↔receive match; resolve the wildcard if the receive
    /// used `MPI_ANY_SOURCE`.
    fn complete_match(&mut self, sid: usize, rid: usize, src: usize, ranks: &mut [RankCtx]) {
        self.sends[sid].matched = true;
        let r = &mut self.recvs[rid];
        r.matched = Some(src);
        if r.from.is_wildcard() {
            let ev = &mut ranks[r.owner].out[r.out_idx];
            if let ConcreteOp::Recv { from, .. } = &mut ev.op {
                *from = Src::Rank(src); // the paper's line 24: iter.peer = i
                self.resolved += 1;
            }
        }
    }

    fn op_matched(&self, op: Op) -> bool {
        match op {
            Op::Send(id) => self.sends[id].matched,
            Op::Recv(id) => self.recvs[id].matched.is_some(),
        }
    }
}

/// Run Algorithm 2 on `trace`; `Err` reports a potential deadlock in the
/// *original application* (the trace is a witness of unsafe MPI usage).
pub fn resolve_wildcards(trace: &Trace) -> Result<WildcardOutcome, GenError> {
    resolve(trace, false).map(|(outcome, _)| outcome)
}

/// Algorithm 2 over plainly expanded streams, skipping nothing: the oracle
/// the cursors and the period skip are tested against.
#[doc(hidden)]
pub fn resolve_wildcards_expanded(trace: &Trace) -> Result<WildcardOutcome, GenError> {
    resolve(trace, true).map(|(outcome, _)| outcome)
}

/// Algorithm 2, and how many events its traversal walked: what a period
/// skip saves shows here, never in the output.
#[doc(hidden)]
pub fn resolve_wildcards_walked(trace: &Trace) -> Result<(WildcardOutcome, u64), GenError> {
    resolve(trace, false)
}

fn resolve(trace: &Trace, expanded: bool) -> Result<(WildcardOutcome, u64), GenError> {
    let n = trace.nranks;
    let mut ranks: Vec<RankCtx> = (0..n)
        .map(|r| RankCtx {
            events: Events::of(trace, r, expanded),
            exhausted: false,
            out: Vec::new(),
            outstanding: VecDeque::new(),
            blocked: None,
        })
        .collect();
    let mut log: Vec<Emission> = Vec::new();
    let mut m = Matcher::new(n);
    let mut rb = SegmentedRebuilder::new(n);
    let mut periods = (!expanded).then(|| PeriodDetector::new(&mut rb));
    let comms = communicators(trace);
    let mut walked = 0u64;

    loop {
        let mut progressed = false;

        for r in 0..n {
            // Re-check blocks that matching progress may have released.
            let unblocked = match &ranks[r].blocked {
                None => true,
                Some(Block::Send(id)) => m.sends[*id].matched,
                Some(Block::Recv(id)) => m.recvs[*id].matched.is_some(),
                Some(Block::Wait { covered, .. }) => covered.iter().all(|&op| m.op_matched(op)),
                Some(Block::Coll(..)) => false, // released by the collective scan
            };
            if !unblocked {
                continue;
            }
            if let Some(Block::Wait { event, .. }) = ranks[r].blocked.take() {
                emit(&mut ranks, &mut log, r, event);
                progressed = true;
            } else if ranks[r].blocked.take().is_some() {
                progressed = true;
            }
            let n = advance(r, &mut ranks, &mut m, &mut log);
            walked += n;
            progressed |= n > 0;
        }

        // Collective completion: every member of a communicator blocked at
        // a collective on it (kinds verified by Algorithm 1 / the runtime).
        // One sweep's completions cover disjoint ranks: one log entry.
        let mut completed = Vec::new();
        for &(comm, members) in &comms {
            let ready = members.iter().all(
                |&mem| matches!(&ranks[mem].blocked, Some(Block::Coll(_, _, c)) if *c == comm),
            );
            if !ready {
                continue;
            }
            let mut parts = Vec::with_capacity(members.len());
            for &mem in members {
                let Some(Block::Coll(ev, _, _)) = ranks[mem].blocked.take() else {
                    unreachable!()
                };
                ranks[mem].out.push(ev);
                parts.push((mem, ranks[mem].out.len() - 1));
            }
            completed.push(parts);
        }
        if !completed.is_empty() {
            log.push(Emission::Collectives(completed));
            progressed = true;
        }

        if ranks.iter().all(|rc| rc.blocked.is_none() && rc.exhausted) {
            break;
        }
        if !progressed {
            let blocked: Vec<(usize, String)> = ranks
                .iter()
                .enumerate()
                .filter_map(|(r, rc)| {
                    rc.blocked.as_ref().map(|b| {
                        let what = match b {
                            Block::Send(_) => "blocking send with no matching receive".into(),
                            Block::Recv(id) => format!(
                                "blocking receive (from {}) with no matching send",
                                m.recvs[*id].from
                            ),
                            Block::Wait { covered, .. } => format!(
                                "wait on {} unmatched operation(s)",
                                covered.iter().filter(|&&op| !m.op_matched(op)).count()
                            ),
                            Block::Coll(_, kind, comm) => {
                                format!("{kind} on comm {comm} (participants missing)")
                            }
                        };
                        (r, what)
                    })
                })
                .collect();
            return Err(GenError::PotentialDeadlock { blocked });
        }

        let quiescent = m.pending == 0
            && ranks.iter().all(|rc| {
                rc.outstanding.is_empty() && matches!(rc.blocked, None | Some(Block::Coll(..)))
            });
        if quiescent {
            // Every emitted receive is matched: replay the log, and forget
            // the matched operations (nothing refers to them any more).
            flush(&mut ranks, &mut log, &mut rb);
            m.sends.clear();
            m.recvs.clear();
            if let Some(periods) = &mut periods {
                if let Some(skip) = periods.cut(&mut ranks, &mut rb, m.resolved as u64) {
                    m.resolved += (skip.periods * skip.tally) as usize;
                }
            }
        }
    }

    flush(&mut ranks, &mut log, &mut rb);
    let outcome = WildcardOutcome {
        trace: rb.finish(trace.comms.clone()),
        resolved: m.resolved,
    };
    Ok((outcome, walked))
}

/// Replay the emission log into the rebuilder and start both afresh.
fn flush(ranks: &mut [RankCtx], log: &mut Vec<Emission>, rb: &mut SegmentedRebuilder) {
    let streams: Vec<Vec<ConcreteEvent>> = ranks
        .iter_mut()
        .map(|rc| std::mem::take(&mut rc.out))
        .collect();
    rb.replay(&streams, log);
    log.clear();
}

/// Advance one rank until it blocks or exhausts its stream. Returns how
/// many events it walked.
fn advance(r: usize, ranks: &mut [RankCtx], m: &mut Matcher, log: &mut Vec<Emission>) -> u64 {
    let mut walked = 0;
    loop {
        let Some(ev) = ranks[r].events.next() else {
            ranks[r].exhausted = true;
            return walked;
        };
        walked += 1;
        match &ev.op {
            ConcreteOp::Send {
                to,
                tag,
                comm,
                blocking,
                ..
            } => {
                let (to, tag, comm, blocking) = (*to, *tag, *comm, *blocking);
                emit(ranks, log, r, ev);
                let sid = m.issue_send(r, to, tag, comm, ranks);
                if blocking {
                    if !m.sends[sid].matched {
                        ranks[r].blocked = Some(Block::Send(sid));
                        return walked;
                    }
                } else {
                    ranks[r].outstanding.push_back(Op::Send(sid));
                }
            }
            ConcreteOp::Recv {
                from,
                tag,
                comm,
                blocking,
                ..
            } => {
                let (from, tag, comm, blocking) = (*from, *tag, *comm, *blocking);
                let out_idx = emit(ranks, log, r, ev);
                let rid = m.issue_recv(r, out_idx, from, tag, comm, ranks);
                if blocking {
                    if m.recvs[rid].matched.is_none() {
                        ranks[r].blocked = Some(Block::Recv(rid));
                        return walked;
                    }
                } else {
                    ranks[r].outstanding.push_back(Op::Recv(rid));
                }
            }
            ConcreteOp::Wait { count } => {
                let k = (*count as usize).min(ranks[r].outstanding.len());
                let covered: Vec<Op> = ranks[r].outstanding.drain(..k).collect();
                if covered.iter().all(|&op| m.op_matched(op)) {
                    emit(ranks, log, r, ev);
                } else {
                    ranks[r].blocked = Some(Block::Wait { event: ev, covered });
                    return walked;
                }
            }
            ConcreteOp::Coll { kind, comm, .. } => {
                let (kind, comm) = (*kind, *comm);
                ranks[r].blocked = Some(Block::Coll(ev, kind, comm));
                return walked;
            }
            ConcreteOp::CommSplit { parent, .. } => {
                let parent = *parent;
                ranks[r].blocked = Some(Block::Coll(ev, CollKind::CommSplit, parent));
                return walked;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::time::SimDuration;
    use scalatrace::cursor::events_for_rank;
    use scalatrace::params::{SrcParam, ValParam};
    use scalatrace::rankset::RankSet;
    use scalatrace::timestats::TimeStats;
    use scalatrace::trace::{OpTemplate, Rsd, TraceNode};
    use scalatrace::trace_app;

    #[test]
    fn lu_style_wildcards_resolve_to_neighbors() {
        // every rank > 0 sends to rank-1, receivers use ANY_SOURCE
        let trace = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            for _ in 0..20 {
                if ctx.rank() + 1 < ctx.size() {
                    let _ = ctx.recv(Src::Any, TagSel::Is(0), 64, &w);
                }
                if ctx.rank() > 0 {
                    ctx.compute(SimDuration::from_usecs(10));
                    ctx.send(ctx.rank() - 1, 0, 64, &w);
                }
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        assert!(trace.has_wildcard_recv());
        let out = resolve_wildcards(&trace).expect("resolves");
        assert_eq!(out.resolved, 3 * 20);
        assert!(!out.trace.has_wildcard_recv(), "{}", out.trace);
        // resolution is the only valid one: rank r receives from r+1
        for r in 0..3 {
            for ev in events_for_rank(&out.trace, r) {
                if let ConcreteOp::Recv { from, .. } = ev.op {
                    assert_eq!(from, Src::Rank(r + 1));
                }
            }
        }
    }

    #[test]
    fn uniform_resolution_keeps_trace_compressed() {
        let trace = trace_app(6, network::ideal(), |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            for _ in 0..100 {
                let h = ctx.irecv(Src::Any, TagSel::Is(1), 256, &w);
                ctx.send(right, 1, 256, &w);
                ctx.wait(h);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        let before = trace.node_count();
        let out = resolve_wildcards(&trace).expect("resolves");
        assert!(!out.trace.has_wildcard_recv());
        assert!(
            out.trace.node_count() <= before + 4,
            "resolved trace should stay compressed: {} vs {}\n{}",
            out.trace.node_count(),
            before,
            out.trace
        );
        assert_eq!(
            out.trace.concrete_event_count(),
            trace.concrete_event_count()
        );
    }

    #[test]
    fn figure5_deadlock_is_detected() {
        // the paper's Figure 5(b) trace:
        //   RSD1: {1, MPI_Recv, ANY_SOURCE}
        //   RSD2: {1, MPI_Recv, 0}
        //   RSD3: {0, MPI_Send, 1}
        //   RSD4: {2, MPI_Send, 1}
        // traversal order matches the wildcard with node 0's send, leaving
        // node 1's Recv(0) unmatched forever.
        let mut trace = Trace::new(3);
        let ev = |rank: usize, op: OpTemplate, sig: u64| {
            TraceNode::Event(Rsd {
                ranks: RankSet::single(rank),
                sig,
                op,
                compute: TimeStats::new(),
            })
        };
        trace.nodes.push(ev(
            1,
            OpTemplate::Recv {
                from: SrcParam::Any,
                tag: TagSel::Any,
                bytes: ValParam::Const(8),
                comm: scalatrace::params::CommParam::Const(0),
                blocking: true,
            },
            1,
        ));
        trace.nodes.push(ev(
            1,
            OpTemplate::Recv {
                from: SrcParam::Rank(scalatrace::params::RankParam::Const(0)),
                tag: TagSel::Any,
                bytes: ValParam::Const(8),
                comm: scalatrace::params::CommParam::Const(0),
                blocking: true,
            },
            2,
        ));
        trace.nodes.push(ev(
            0,
            OpTemplate::Send {
                to: scalatrace::params::RankParam::Const(1),
                tag: 0,
                bytes: ValParam::Const(8),
                comm: scalatrace::params::CommParam::Const(0),
                blocking: true,
            },
            3,
        ));
        trace.nodes.push(ev(
            2,
            OpTemplate::Send {
                to: scalatrace::params::RankParam::Const(1),
                tag: 0,
                bytes: ValParam::Const(8),
                comm: scalatrace::params::CommParam::Const(0),
                blocking: true,
            },
            4,
        ));
        let err = resolve_wildcards(&trace).unwrap_err();
        let GenError::PotentialDeadlock { blocked } = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert!(
            blocked
                .iter()
                .any(|(r, what)| *r == 1 && what.contains("receive")),
            "{blocked:?}"
        );
    }

    #[test]
    fn collectives_gate_matching_order() {
        // rank 1 sends before and after a barrier; rank 0's wildcard recvs
        // are separated by the same barrier: first recv must resolve to the
        // pre-barrier send.
        let trace = trace_app(2, network::ideal(), |ctx| {
            let w = ctx.world();
            if ctx.rank() == 1 {
                ctx.send(0, 5, 16, &w);
            } else {
                let _ = ctx.recv(Src::Any, TagSel::Any, 16, &w);
            }
            ctx.barrier(&w);
            if ctx.rank() == 1 {
                ctx.send(0, 6, 16, &w);
            } else {
                let _ = ctx.recv(Src::Any, TagSel::Any, 16, &w);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        let out = resolve_wildcards(&trace).expect("resolves");
        assert_eq!(out.resolved, 2);
        assert!(!out.trace.has_wildcard_recv());
    }

    #[test]
    fn trace_without_wildcards_is_preserved() {
        let trace = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..10 {
                let h = ctx.irecv(Src::Rank(left), TagSel::Is(0), 64, &w);
                ctx.send(right, 0, 64, &w);
                ctx.wait(h);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace;
        let out = resolve_wildcards(&trace).expect("resolves");
        assert_eq!(out.resolved, 0);
        scalatrace::cursor::semantically_equal(&trace, &out.trace).expect("unchanged semantics");
    }
}
