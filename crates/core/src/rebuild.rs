//! Rebuilding a compressed global trace from transformed per-rank event
//! streams.
//!
//! Algorithms 1 and 2 traverse per-rank event streams and emit a new trace.
//! The paper appends RSDs to a single output queue and "compress\[es\] T_out"
//! after every append (§4.3), which guarantees that *a collective operation
//! corresponds to only one RSD in the output trace* even when the
//! surrounding per-rank control flow diverges (corner vs. interior ranks of
//! a wavefront, say). [`SegmentedRebuilder`] realises that queue with an
//! extra compression opportunity the flat queue lacks: between collectives,
//! per-rank events accumulate in per-rank buffers (tail-compressed into
//! loops as ScalaTrace does intra-node); when a collective completes, the
//! participating buffers are structurally merged across ranks (the
//! inter-node merge) and flushed to the global queue ahead of the single
//! collective RSD, and the global queue is tail-compressed so identical
//! epochs fold into loops.

use mpisim::types::Src;
use scalatrace::compress::{append_compressed, DEFAULT_MAX_WINDOW};
use scalatrace::cursor::{ConcreteEvent, ConcreteOp};
use scalatrace::merge::{collapse_rsds, merge_sequences};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{CommTable, OpTemplate, Rsd, Trace, TraceNode};

/// Window for the global output queue: must span one "epoch" (the merged
/// inter-collective segment plus the collective) for iteration structure to
/// re-fold. Segments are rank-class-sized after merging, so a generous
/// constant suffices.
const GLOBAL_WINDOW: usize = 256;

/// Convert a concrete event back into a single-rank op template.
fn template_of(op: &ConcreteOp) -> OpTemplate {
    match op {
        ConcreteOp::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => OpTemplate::Send {
            to: RankParam::Const(*to),
            tag: *tag,
            bytes: ValParam::Const(*bytes),
            comm: CommParam::Const(*comm),
            blocking: *blocking,
        },
        ConcreteOp::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => OpTemplate::Recv {
            from: match from {
                Src::Any => SrcParam::Any,
                Src::Rank(r) => SrcParam::Rank(RankParam::Const(*r)),
            },
            tag: *tag,
            bytes: ValParam::Const(*bytes),
            comm: CommParam::Const(*comm),
            blocking: *blocking,
        },
        ConcreteOp::Wait { count } => OpTemplate::Wait {
            count: ValParam::Const(*count),
        },
        ConcreteOp::Coll {
            kind,
            root,
            bytes,
            comm,
        } => OpTemplate::Coll {
            kind: *kind,
            root: root.map(RankParam::Const),
            bytes: ValParam::Const(*bytes),
            comm: CommParam::Const(*comm),
        },
        ConcreteOp::CommSplit { parent, result } => OpTemplate::CommSplit {
            parent: *parent,
            result: *result,
        },
    }
}

fn rsd_of(rank: usize, ev: &ConcreteEvent) -> Rsd {
    Rsd {
        ranks: RankSet::single(rank),
        sig: ev.sig,
        op: template_of(&ev.op),
        compute: TimeStats::of(ev.compute),
    }
}

/// The paper's output queue, with per-rank buffering and cross-rank merging
/// between collectives.
pub struct SegmentedRebuilder {
    nranks: usize,
    bufs: Vec<Vec<TraceNode>>,
    out: Vec<TraceNode>,
}

impl SegmentedRebuilder {
    /// An empty rebuilder for a world of `nranks` ranks.
    pub fn new(nranks: usize) -> SegmentedRebuilder {
        SegmentedRebuilder {
            nranks,
            bufs: vec![Vec::new(); nranks],
            out: Vec::new(),
        }
    }

    /// Append a non-collective event for one rank.
    pub fn rank_event(&mut self, rank: usize, ev: &ConcreteEvent) {
        append_compressed(
            &mut self.bufs[rank],
            TraceNode::Event(rsd_of(rank, ev)),
            DEFAULT_MAX_WINDOW,
        );
    }

    /// Append one completed collective: `events` holds every participant's
    /// event (the same logical operation). Participant buffers are merged
    /// and flushed first, then the collective is emitted as a single RSD —
    /// or, for `MPI_Comm_split`, one RSD per result group.
    pub fn collective(&mut self, events: &[(usize, ConcreteEvent)]) {
        assert!(!events.is_empty());
        let mut members: Vec<usize> = events.iter().map(|&(r, _)| r).collect();
        members.sort_unstable();
        self.flush_merged(&members);

        if let ConcreteOp::CommSplit { .. } = events[0].1.op {
            // One RSD per result communicator, in ascending result order.
            let mut by_result: std::collections::BTreeMap<u32, Vec<Rsd>> =
                std::collections::BTreeMap::new();
            for (rank, ev) in events {
                let ConcreteOp::CommSplit { result, .. } = ev.op else {
                    panic!("mixed split/non-split collective completion")
                };
                by_result.entry(result).or_default().push(rsd_of(*rank, ev));
            }
            for (_, group) in by_result {
                self.emit_merged_rsd(group);
            }
        } else {
            self.emit_merged_rsd(events.iter().map(|(r, ev)| rsd_of(*r, ev)).collect());
        }
    }

    /// Emit one collective's members as a single RSD, unified in one flat
    /// pass (a pairwise fold re-unifies a growing rank set per member).
    fn emit_merged_rsd(&mut self, members: Vec<Rsd>) {
        let merged = collapse_rsds(members, self.nranks);
        append_compressed(&mut self.out, TraceNode::Event(merged), GLOBAL_WINDOW);
    }

    /// Merge the listed ranks' buffers structurally and flush them to the
    /// global queue.
    fn flush_merged(&mut self, members: &[usize]) {
        let seqs: Vec<Vec<TraceNode>> = members
            .iter()
            .map(|&m| std::mem::take(&mut self.bufs[m]))
            .filter(|s| !s.is_empty())
            .collect();
        if seqs.is_empty() {
            return;
        }
        for node in merge_sequences(seqs, self.nranks) {
            append_compressed(&mut self.out, node, GLOBAL_WINDOW);
        }
    }

    /// Flush all remaining buffers and produce the trace.
    pub fn finish(mut self, comms: CommTable) -> Trace {
        let all: Vec<usize> = (0..self.nranks).collect();
        self.flush_merged(&all);
        Trace {
            nranks: self.nranks,
            nodes: self.out,
            comms,
        }
    }
}

/// Rebuild from complete per-rank streams plus an emission log describing
/// which events were collective completions (used by Algorithm 2, which
/// patches receive events *after* emitting them and therefore cannot stream
/// into the rebuilder directly).
pub enum Emission {
    /// `streams[rank][idx]` is an ordinary event.
    Rank {
        /// Which rank's stream.
        rank: usize,
        /// Index within that stream.
        idx: usize,
    },
    /// One collective completion over `(rank, idx)` participants.
    Collective(Vec<(usize, usize)>),
}

/// Rebuild a trace from complete per-rank streams and an emission log.
pub fn rebuild_from_log(
    streams: &[Vec<ConcreteEvent>],
    log: &[Emission],
    nranks: usize,
    comms: CommTable,
) -> Trace {
    let mut rb = SegmentedRebuilder::new(nranks);
    for entry in log {
        match entry {
            Emission::Rank { rank, idx } => rb.rank_event(*rank, &streams[*rank][*idx]),
            Emission::Collective(parts) => {
                let events: Vec<(usize, ConcreteEvent)> = parts
                    .iter()
                    .map(|&(r, i)| (r, streams[r][i].clone()))
                    .collect();
                rb.collective(&events);
            }
        }
    }
    rb.finish(comms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::time::SimDuration;
    use mpisim::types::CollKind;
    use scalatrace::cursor::events_for_rank;
    use scalatrace::merge::merge_rsds;

    fn send_ev(to: usize) -> ConcreteEvent {
        ConcreteEvent {
            op: ConcreteOp::Send {
                to,
                tag: 0,
                bytes: 512,
                comm: 0,
                blocking: true,
            },
            sig: 42,
            compute: SimDuration::from_usecs(10),
        }
    }

    fn barrier_ev() -> ConcreteEvent {
        ConcreteEvent {
            op: ConcreteOp::Coll {
                kind: CollKind::Barrier,
                root: None,
                bytes: 0,
                comm: 0,
            },
            sig: 7,
            compute: SimDuration::ZERO,
        }
    }

    #[test]
    fn per_rank_streams_merge_and_fold() {
        let n = 4;
        let mut rb = SegmentedRebuilder::new(n);
        for _ in 0..100 {
            for r in 0..n {
                rb.rank_event(r, &send_ev((r + 1) % n));
            }
        }
        let trace = rb.finish(CommTable::world(n));
        assert!(trace.node_count() <= 3, "{trace}");
        assert_eq!(trace.concrete_event_count(), 400);
        for r in 0..n {
            assert_eq!(events_for_rank(&trace, r).len(), 100);
        }
    }

    #[test]
    fn collectives_are_single_full_rsds_even_with_divergent_ranks() {
        // rank 0 sends twice per epoch, others once: divergent structure.
        let n = 3;
        let mut rb = SegmentedRebuilder::new(n);
        for _ in 0..10 {
            rb.rank_event(0, &send_ev(1));
            rb.rank_event(0, &send_ev(2));
            rb.rank_event(1, &send_ev(0));
            rb.rank_event(2, &send_ev(0));
            let parts: Vec<(usize, ConcreteEvent)> = (0..n).map(|r| (r, barrier_ev())).collect();
            rb.collective(&parts);
        }
        let trace = rb.finish(CommTable::world(n));
        // every barrier RSD covers all ranks
        fn check(nodes: &[TraceNode]) {
            for nd in nodes {
                match nd {
                    TraceNode::Event(r) => {
                        if let OpTemplate::Coll { .. } = r.op {
                            assert_eq!(r.ranks.len(), 3, "partial collective RSD");
                        }
                    }
                    TraceNode::Loop(p) => check(&p.body),
                }
            }
        }
        check(&trace.nodes);
        // and the epochs fold into a loop
        assert!(trace.node_count() < 20, "{trace}");
        assert_eq!(
            trace.concrete_event_count(),
            10 * (4 + 3) // 4 sends + 3 barrier participants per epoch
        );
    }

    /// The pairwise reference: `merge_rsds` folded over the members in
    /// completion order.
    fn folded(events: &[(usize, ConcreteEvent)], n: usize) -> TraceNode {
        let mut members = events.iter().map(|(r, ev)| rsd_of(*r, ev));
        let first = members.next().unwrap();
        TraceNode::Event(members.fold(first, |acc, m| merge_rsds(acc, m, n)))
    }

    #[test]
    fn flat_collective_emit_equals_the_pairwise_fold() {
        // a 1024-member barrier, completion order scrambled, compute times
        // spread over more bins than a histogram holds inline
        let n = 1024;
        let barrier: Vec<(usize, ConcreteEvent)> = (0..n)
            .map(|i| {
                let mut ev = barrier_ev();
                ev.compute = SimDuration::from_nanos(3 << (i % 7 * 4));
                ((i * 389) % n, ev)
            })
            .collect();
        let mut rb = SegmentedRebuilder::new(n);
        rb.collective(&barrier);
        let trace = rb.finish(CommTable::world(n));
        assert_eq!(trace.nodes, [folded(&barrier, n)]);

        // a split into three result groups of different sizes
        let n = 12;
        let split: Vec<(usize, ConcreteEvent)> = (0..n)
            .rev()
            .map(|r| {
                let ev = ConcreteEvent {
                    op: ConcreteOp::CommSplit {
                        parent: 0,
                        result: [3, 1, 2, 1, 1, 3][r % 6],
                    },
                    sig: 9,
                    compute: SimDuration::from_usecs(r as u64),
                };
                (r, ev)
            })
            .collect();
        let mut rb = SegmentedRebuilder::new(n);
        rb.collective(&split);
        let trace = rb.finish(CommTable::world(n));
        let groups: Vec<TraceNode> = [1, 2, 3]
            .iter()
            .map(|g| {
                let members: Vec<_> = split
                    .iter()
                    .filter(|(_, ev)| matches!(ev.op, ConcreteOp::CommSplit { result, .. } if result == *g))
                    .cloned()
                    .collect();
                folded(&members, n)
            })
            .collect();
        assert_eq!(trace.nodes, groups);
    }

    #[test]
    fn emission_log_rebuild_matches_direct() {
        let n = 2;
        let streams: Vec<Vec<ConcreteEvent>> = vec![
            vec![send_ev(1), barrier_ev(), send_ev(1)],
            vec![send_ev(0), barrier_ev(), send_ev(0)],
        ];
        let log = vec![
            Emission::Rank { rank: 0, idx: 0 },
            Emission::Rank { rank: 1, idx: 0 },
            Emission::Collective(vec![(0, 1), (1, 1)]),
            Emission::Rank { rank: 0, idx: 2 },
            Emission::Rank { rank: 1, idx: 2 },
        ];
        let trace = rebuild_from_log(&streams, &log, n, CommTable::world(n));
        assert_eq!(trace.concrete_event_count(), 6);
        for (r, s) in streams.iter().enumerate() {
            let got = events_for_rank(&trace, r);
            assert_eq!(got.len(), s.len());
            for (g, e) in got.iter().zip(s) {
                assert_eq!(g.op, e.op);
            }
        }
    }
}
