//! Per-rank traversal of a compressed trace.
//!
//! A [`Cursor`] expands loops and resolves rank-relative parameters to
//! yield the concrete event stream of one rank, in program order, without
//! materialising the uncompressed trace. It is the "traversal context"
//! (current RSD + loop stack + iteration counts) of the paper's
//! Algorithms 1 and 2, and the driver for replay.
//!
//! Every iteration of a loop walks the same nodes, and whether a node
//! yields depends only on the rank, so a loop iteration that yielded
//! nothing for this rank is followed by more of the same: the cursor leaves
//! the loop after it instead of stepping through the rest. A traversal that
//! finds its whole state repeating can also move a cursor on by whole
//! periods at once ([`Cursor::position`], [`Position::repeats_after`],
//! [`Cursor::skip`]).

use crate::trace::{OpTemplate, Trace, TraceNode};
use mpisim::comm::CommId;
use mpisim::time::SimDuration;
use mpisim::types::{CollKind, Rank, Src, Tag, TagSel};

/// A fully concrete MPI operation for one rank.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConcreteOp {
    /// A send with resolved destination.
    Send {
        /// Destination (absolute rank).
        to: Rank,
        /// Message tag.
        tag: Tag,
        /// Payload size.
        bytes: u64,
        /// Communicator id.
        comm: CommId,
        /// Blocking vs nonblocking form.
        blocking: bool,
    },
    /// A receive (source may still be the wildcard).
    Recv {
        /// Source selector.
        from: Src,
        /// Tag selector.
        tag: TagSel,
        /// Expected payload size.
        bytes: u64,
        /// Communicator id.
        comm: CommId,
        /// Blocking vs nonblocking form.
        blocking: bool,
    },
    /// A wait over `count` outstanding requests.
    Wait {
        /// Number of requests waited on.
        count: u64,
    },
    /// A collective operation.
    Coll {
        /// Which collective.
        kind: CollKind,
        /// Root (absolute) for rooted collectives.
        root: Option<Rank>,
        /// This rank's local contribution in bytes.
        bytes: u64,
        /// Communicator id.
        comm: CommId,
    },
    /// An `MPI_Comm_split` that put this rank into `result`.
    CommSplit {
        /// The communicator that was split.
        parent: CommId,
        /// The resulting communicator for this rank.
        result: CommId,
    },
}

/// One concrete event: the operation, its call-site signature, and the mean
/// computation time preceding it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConcreteEvent {
    /// The operation.
    pub op: ConcreteOp,
    /// Call-site stack signature.
    pub sig: u64,
    /// Mean computation time preceding the call.
    pub compute: SimDuration,
}

struct Frame<'t> {
    nodes: &'t [TraceNode],
    idx: usize,
    iter: u64,
    count: u64,
    /// Did the current iteration yield an event for this rank?
    yielded: bool,
    /// Which push of the cursor made this frame: tells a loop that kept
    /// iterating from one that was left and entered again.
    serial: u64,
}

/// Where a cursor stands: its loop stack and the events it has yielded.
///
/// Two positions are at the same *place* when their stacks hold the same
/// loops at the same nodes, whatever iteration each loop is on
/// ([`Position::same_place`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Position {
    frames: Vec<FrameAt>,
    events: u64,
    pushes: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FrameAt {
    /// The frame's node sequence, by address: one loop body is one place.
    nodes: usize,
    idx: usize,
    count: u64,
    yielded: bool,
    iter: u64,
    serial: u64,
}

impl FrameAt {
    fn place(&self) -> (usize, usize, u64, bool) {
        (self.nodes, self.idx, self.count, self.yielded)
    }
}

impl Position {
    /// Events the cursor had yielded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Same loops at the same nodes, iteration counters aside.
    pub fn same_place(&self, other: &Position) -> bool {
        self.frames.len() == other.frames.len()
            && self
                .frames
                .iter()
                .zip(&other.frames)
                .all(|(a, b)| a.place() == b.place())
    }

    /// A hash of the place: positions at the same place hash equal.
    pub fn place_hash(&self) -> u64 {
        let mut h = mpisim::types::Fnv1a::new();
        for f in &self.frames {
            h.write_u64(f.nodes as u64);
            h.write_u64(f.idx as u64);
            h.write_u64(u64::from(f.yielded));
        }
        h.finish()
    }

    /// How many more times the walk from `earlier` to `self` fits before a
    /// loop it advanced runs out, if it is a period at all.
    ///
    /// It is one when both stand at the same place and every loop on the
    /// stack either kept iterating (the same frame, its counter advanced by
    /// some `d ≥ 0`) or was left and entered again at the same iteration.
    /// Walking on from `self` then repeats the walk from `earlier` exactly
    /// while each advanced counter stays below its count: `(count − 1 −
    /// iter) / d` more times for the tightest. `u64::MAX` means no counter
    /// advanced. `None` means the walk is not a period.
    pub fn repeats_after(&self, earlier: &Position) -> Option<u64> {
        if !self.same_place(earlier) {
            return None;
        }
        let mut fit = u64::MAX;
        for (now, then) in self.frames.iter().zip(&earlier.frames) {
            if now.serial == then.serial {
                let d = now.iter.checked_sub(then.iter)?;
                if let Some(more) = (now.count - 1 - now.iter).checked_div(d) {
                    fit = fit.min(more);
                }
            } else if now.iter != then.iter {
                return None;
            }
        }
        Some(fit)
    }
}

/// How a cursor resolves the computation time preceding each event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingMode {
    /// The histogram mean — deterministic and exact in total (the paper's
    /// replay behaviour).
    Mean,
    /// Deterministic pseudo-samples drawn from the histogram (seeded):
    /// restores per-event variance at the cost of exactness of the total.
    Sampled(u64),
}

/// Lazy per-rank iterator over a trace.
pub struct Cursor<'t> {
    rank: Rank,
    frames: Vec<Frame<'t>>,
    timing: TimingMode,
    event_counter: u64,
    pushes: u64,
}

impl<'t> Cursor<'t> {
    /// A cursor over `trace` for `rank`.
    pub fn new(trace: &'t Trace, rank: Rank) -> Cursor<'t> {
        Cursor::over(&trace.nodes, rank)
    }

    /// A cursor with an explicit compute-[`TimingMode`].
    pub fn with_timing(trace: &'t Trace, rank: Rank, timing: TimingMode) -> Cursor<'t> {
        let mut c = Cursor::over(&trace.nodes, rank);
        c.timing = timing;
        c
    }

    /// Cursor over a raw node sequence.
    pub fn over(nodes: &'t [TraceNode], rank: Rank) -> Cursor<'t> {
        Cursor {
            rank,
            frames: vec![Frame {
                nodes,
                idx: 0,
                iter: 0,
                count: 1,
                yielded: false,
                serial: 0,
            }],
            timing: TimingMode::Mean,
            event_counter: 0,
            pushes: 1,
        }
    }

    /// The rank this cursor resolves for.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Events yielded so far.
    pub fn events(&self) -> u64 {
        self.event_counter
    }

    /// Resolve the next event for this rank, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<ConcreteEvent> {
        loop {
            let frame = self.frames.last_mut()?;
            if frame.idx >= frame.nodes.len() {
                frame.iter += 1;
                // An iteration that yielded nothing says the rest would not
                // either: leave the loop.
                if frame.yielded && frame.iter < frame.count {
                    frame.idx = 0;
                    frame.yielded = false;
                    continue;
                }
                let yielded = frame.yielded;
                self.frames.pop();
                self.frames.last_mut()?.yielded |= yielded;
                continue;
            }
            match &frame.nodes[frame.idx] {
                TraceNode::Loop(p) => {
                    frame.idx += 1;
                    if p.count > 0 {
                        self.frames.push(Frame {
                            nodes: &p.body,
                            idx: 0,
                            iter: 0,
                            count: p.count,
                            yielded: false,
                            serial: self.pushes,
                        });
                        self.pushes += 1;
                    }
                }
                TraceNode::Event(rsd) => {
                    frame.idx += 1;
                    if rsd.ranks.contains(self.rank) {
                        frame.yielded = true;
                        self.event_counter += 1;
                        return Some(concretise(rsd, self.rank, self.timing, self.event_counter));
                    }
                }
            }
        }
    }

    /// Where the cursor stands now.
    pub fn position(&self) -> Position {
        Position {
            frames: self
                .frames
                .iter()
                .map(|f| FrameAt {
                    nodes: f.nodes.as_ptr() as usize,
                    idx: f.idx,
                    count: f.count,
                    yielded: f.yielded,
                    iter: f.iter,
                    serial: f.serial,
                })
                .collect(),
            events: self.event_counter,
            pushes: self.pushes,
        }
    }

    /// Move on as if the walk from `earlier` to here were taken `periods`
    /// more times, ending in the state walking would: every loop counter
    /// that walk advanced moves on by `periods` times its advance, and so
    /// do the event count (which seeds sampled times) and the frame serials
    /// it handed out. `periods` must not exceed
    /// `self.position().repeats_after(earlier)`.
    pub fn skip(&mut self, earlier: &Position, periods: u64) {
        debug_assert!(self
            .position()
            .repeats_after(earlier)
            .is_some_and(|fit| fit >= periods));
        let pushed = periods * (self.pushes - earlier.pushes);
        for (f, then) in self.frames.iter_mut().zip(&earlier.frames) {
            if f.serial == then.serial {
                f.iter += periods * (f.iter - then.iter);
            } else {
                f.serial += pushed;
            }
        }
        self.pushes += pushed;
        self.event_counter += periods * (self.event_counter - earlier.events);
    }

    /// Drain all remaining events.
    pub fn collect_all(mut self) -> Vec<ConcreteEvent> {
        let mut out = Vec::new();
        while let Some(e) = self.next() {
            out.push(e);
        }
        out
    }
}

fn concretise(
    rsd: &crate::trace::Rsd,
    rank: Rank,
    timing: TimingMode,
    counter: u64,
) -> ConcreteEvent {
    let op = match &rsd.op {
        OpTemplate::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => ConcreteOp::Send {
            to: to.eval(rank),
            tag: *tag,
            bytes: bytes.eval(rank),
            comm: comm.eval(rank),
            blocking: *blocking,
        },
        OpTemplate::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => ConcreteOp::Recv {
            from: match from {
                crate::params::SrcParam::Any => Src::Any,
                crate::params::SrcParam::Rank(r) => Src::Rank(r.eval(rank)),
            },
            tag: *tag,
            bytes: bytes.eval(rank),
            comm: comm.eval(rank),
            blocking: *blocking,
        },
        OpTemplate::Wait { count } => ConcreteOp::Wait {
            count: count.eval(rank),
        },
        OpTemplate::Coll {
            kind,
            root,
            bytes,
            comm,
        } => ConcreteOp::Coll {
            kind: *kind,
            root: root.as_ref().map(|r| r.eval(rank)),
            bytes: bytes.eval(rank),
            comm: comm.eval(rank),
        },
        OpTemplate::CommSplit { parent, result } => ConcreteOp::CommSplit {
            parent: *parent,
            result: result.eval(rank),
        },
    };
    let compute = match timing {
        TimingMode::Mean => rsd.compute.mean(),
        TimingMode::Sampled(seed) => {
            let mut h = mpisim::types::Fnv1a::new();
            h.write_u64(seed);
            h.write_u64(rank as u64);
            h.write_u64(counter);
            rsd.compute.sample_at(h.finish())
        }
    };
    ConcreteEvent {
        op,
        sig: rsd.sig,
        compute,
    }
}

/// The concrete event stream of one rank (convenience wrapper).
pub fn events_for_rank(trace: &Trace, rank: Rank) -> Vec<ConcreteEvent> {
    Cursor::new(trace, rank).collect_all()
}

/// The concrete event stream of one rank by plain recursive expansion:
/// every iteration of every loop is stepped through. The reference the
/// cursor's early loop exit and period skip are tested against.
#[doc(hidden)]
pub fn expand_plain(trace: &Trace, rank: Rank) -> Vec<ConcreteEvent> {
    fn walk(nodes: &[TraceNode], rank: Rank, out: &mut Vec<ConcreteEvent>) {
        for node in nodes {
            match node {
                TraceNode::Event(rsd) if rsd.ranks.contains(rank) => {
                    let counter = out.len() as u64 + 1;
                    out.push(concretise(rsd, rank, TimingMode::Mean, counter));
                }
                TraceNode::Event(_) => {}
                TraceNode::Loop(p) => {
                    for _ in 0..p.count {
                        walk(&p.body, rank, out);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    walk(&trace.nodes, rank, &mut out);
    out
}

/// Semantic equality of two traces: every rank's concrete operation stream
/// matches, ignoring call-site signatures and timing. This is the
/// normalised comparison of the paper's §5.2 (where ScalaReplay is used to
/// "eliminate spurious structural differences" caused by differing stack
/// signatures).
pub fn semantically_equal(a: &Trace, b: &Trace) -> Result<(), String> {
    if a.nranks != b.nranks {
        return Err(format!("rank counts differ: {} vs {}", a.nranks, b.nranks));
    }
    for r in 0..a.nranks {
        let mut ca = Cursor::new(a, r);
        let mut cb = Cursor::new(b, r);
        let mut i = 0usize;
        loop {
            match (ca.next(), cb.next()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    if x.op != y.op {
                        return Err(format!("rank {r}, event {i}: {:?} vs {:?}", x.op, y.op));
                    }
                }
                (Some(x), None) => {
                    return Err(format!("rank {r}: left has extra event {i}: {:?}", x.op))
                }
                (None, Some(y)) => {
                    return Err(format!("rank {r}: right has extra event {i}: {:?}", y.op))
                }
            }
            i += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{RankParam, ValParam};
    use crate::rankset::RankSet;
    use crate::timestats::TimeStats;
    use crate::trace::{Prsd, Rsd};
    use mpisim::time::SimDuration;

    fn trace_ring(n: usize, iters: u64) -> Trace {
        let mut t = Trace::new(n);
        t.nodes.push(TraceNode::Loop(Prsd {
            count: iters,
            body: vec![TraceNode::Event(Rsd {
                ranks: RankSet::all(n),
                sig: 1,
                op: OpTemplate::Send {
                    to: RankParam::OffsetMod {
                        offset: 1,
                        modulus: n,
                    },
                    tag: 0,
                    bytes: ValParam::Const(1024),
                    comm: crate::params::CommParam::Const(0),
                    blocking: true,
                },
                compute: TimeStats::of(SimDuration::from_usecs(10)),
            })],
        }));
        t
    }

    #[test]
    fn cursor_expands_loops_and_resolves_params() {
        let t = trace_ring(4, 3);
        let evs = events_for_rank(&t, 3);
        assert_eq!(evs.len(), 3);
        for e in &evs {
            assert_eq!(
                e.op,
                ConcreteOp::Send {
                    to: 0, // (3+1)%4
                    tag: 0,
                    bytes: 1024,
                    comm: 0,
                    blocking: true
                }
            );
            assert_eq!(e.compute, SimDuration::from_usecs(10));
        }
    }

    #[test]
    fn cursor_skips_foreign_ranks() {
        let mut t = trace_ring(4, 1);
        // add an event only for rank 0
        t.nodes.push(TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig: 2,
            op: OpTemplate::Wait {
                count: ValParam::Const(1),
            },
            compute: TimeStats::new(),
        }));
        assert_eq!(events_for_rank(&t, 0).len(), 2);
        assert_eq!(events_for_rank(&t, 1).len(), 1);
    }

    #[test]
    fn nested_loops_expand_in_order() {
        let mut t = Trace::new(1);
        let leaf = |sig: u64| {
            TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig,
                op: OpTemplate::Wait {
                    count: ValParam::Const(sig),
                },
                compute: TimeStats::new(),
            })
        };
        t.nodes.push(TraceNode::Loop(Prsd {
            count: 2,
            body: vec![
                TraceNode::Loop(Prsd {
                    count: 3,
                    body: vec![leaf(1)],
                }),
                leaf(2),
            ],
        }));
        let sigs: Vec<u64> = events_for_rank(&t, 0).iter().map(|e| e.sig).collect();
        assert_eq!(sigs, vec![1, 1, 1, 2, 1, 1, 1, 2]);
    }

    #[test]
    fn zero_iteration_loops_yield_nothing() {
        let mut t = Trace::new(1);
        t.nodes.push(TraceNode::Loop(Prsd {
            count: 0,
            body: vec![TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig: 1,
                op: OpTemplate::Wait {
                    count: ValParam::Const(1),
                },
                compute: TimeStats::new(),
            })],
        }));
        assert!(events_for_rank(&t, 0).is_empty());
    }

    fn wait_on(ranks: RankSet, sig: u64) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks,
            sig,
            op: OpTemplate::Wait {
                count: ValParam::Const(sig),
            },
            compute: TimeStats::of(SimDuration::from_usecs(sig)),
        })
    }

    /// Ranks 0-1 loop over `A` then an inner `B x3`; rank 2 has a loop of
    /// its own that ranks 0-1 never yield from, nested inside theirs.
    fn split_loops() -> Trace {
        let mut t = Trace::new(3);
        let (pair, two) = (RankSet::from_ranks([0, 1]), RankSet::single(2));
        t.nodes.push(TraceNode::Loop(Prsd {
            count: 10,
            body: vec![
                wait_on(pair.clone(), 1),
                TraceNode::Loop(Prsd {
                    count: 7,
                    body: vec![wait_on(two.clone(), 5)],
                }),
                TraceNode::Loop(Prsd {
                    count: 3,
                    body: vec![wait_on(pair.clone(), 2)],
                }),
            ],
        }));
        t.nodes.push(wait_on(RankSet::all(3), 3));
        t
    }

    #[test]
    fn early_loop_exit_yields_what_plain_stepping_does() {
        let t = split_loops();
        for r in 0..3 {
            assert_eq!(events_for_rank(&t, r), expand_plain(&t, r), "rank {r}");
        }
        assert_eq!(events_for_rank(&t, 0).len(), 10 * 4 + 1);
        assert_eq!(events_for_rank(&t, 2).len(), 10 * 7 + 1);
    }

    fn sampled(t: &Trace, rank: Rank) -> Cursor<'_> {
        Cursor::with_timing(t, rank, TimingMode::Sampled(7))
    }

    #[test]
    fn a_skip_lands_where_walking_does() {
        let t = split_loops();
        let mut walked = sampled(&t, 0);
        let mut skipping = sampled(&t, 0);
        // the place after the second B, in outer iterations 1 and 2
        for _ in 0..7 {
            walked.next();
            skipping.next();
        }
        let earlier = skipping.position();
        for _ in 0..4 {
            walked.next();
            skipping.next();
        }
        let now = skipping.position();
        assert!(now.same_place(&earlier));
        // outer counter 1 -> 2 of 10: seven more periods fit
        assert_eq!(now.repeats_after(&earlier), Some(7));
        skipping.skip(&earlier, 7);
        for _ in 0..7 * 4 {
            walked.next();
        }
        assert_eq!(skipping.position(), walked.position());
        let rest = |c: &mut Cursor| std::iter::from_fn(|| c.next()).collect::<Vec<_>>();
        assert_eq!(rest(&mut skipping), rest(&mut walked));
    }

    #[test]
    fn an_inner_loop_entered_again_must_restart_at_the_same_iteration() {
        let t = split_loops();
        let mut c = Cursor::new(&t, 0);
        // after the first B of outer iteration 0, then after the third B
        c.next();
        c.next();
        let first_b = c.position();
        c.next();
        c.next();
        let third_b = c.position();
        // the inner loop advanced by two and has no third period left
        assert_eq!(third_b.repeats_after(&first_b), Some(0));
        // after A of iteration 1 the inner loop is gone from the stack;
        // after its first B it was entered again, at iteration 0, where
        // `first_b` had it too: one outer iteration is a period
        c.next();
        c.next();
        let again = c.position();
        assert!(again.same_place(&first_b));
        assert_eq!(again.repeats_after(&first_b), Some(8));
        // and against the third B it restarted at another iteration
        assert_eq!(again.repeats_after(&third_b), None);
    }

    #[test]
    fn semantic_equality_detects_differences() {
        let a = trace_ring(4, 3);
        let b = trace_ring(4, 3);
        assert!(semantically_equal(&a, &b).is_ok());
        let c = trace_ring(4, 4);
        assert!(semantically_equal(&a, &c).is_err());
        let d = trace_ring(2, 3);
        assert!(semantically_equal(&a, &d).is_err());
    }

    #[test]
    fn semantic_equality_ignores_signatures_and_times() {
        let a = trace_ring(4, 2);
        let mut b = trace_ring(4, 2);
        if let TraceNode::Loop(p) = &mut b.nodes[0] {
            if let TraceNode::Event(r) = &mut p.body[0] {
                r.sig = 999;
                r.compute = TimeStats::of(SimDuration::from_secs(1));
            }
        }
        assert!(semantically_equal(&a, &b).is_ok());
    }
}
