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
//! inter-node merge) ahead of the single collective RSD, and the global
//! queue is tail-compressed so identical epochs fold into loops.
//!
//! The traversals hand over every collective one sweep completed at once
//! ([`SegmentedRebuilder::collectives`]). Their blocks cover disjoint ranks
//! (a rank blocks on at most one collective), so they are merged across
//! ranks too before they reach the queue: sibling communicators' collectives
//! (a grid's √P row reduces) become one RSD with a piecewise communicator,
//! and one iteration stays one short epoch however many rows the grid has.
//!
//! When a traversal finds a period it can skip (`crate::traverse`), it
//! has the rebuilder append that period's global-queue nodes again
//! (`SegmentedRebuilder::repeat`): the appends walking would make, so the
//! queue folds exactly as it would have.

use mpisim::types::Src;
use scalatrace::compress::append_compressed;
use scalatrace::cursor::{ConcreteEvent, ConcreteOp};
use scalatrace::merge::{collapse_rsds, merge_sequences};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{CommTable, OpTemplate, Rsd, Trace, TraceNode};

/// Window for the global output queue: must span one iteration's epochs
/// (each sweep's merged segment plus its collectives) for iteration
/// structure to re-fold. Segments are rank-class-sized after merging and
/// sibling communicators share one, so what still grows with a grid is only
/// a peer without a closed form (cg's transpose: its whole program is 118
/// statements at 16×16, 218 at 32×32, until ROADMAP item 8).
const GLOBAL_WINDOW: usize = 256;

/// Window for the per-rank buffers. A buffer holds one inter-collective
/// epoch of one rank, so this stays below the capture's window: the
/// structural fold's cost grows with its window (at 256, generating cg
/// r256 takes nearly twice as long), and on every registry app and large
/// cell the output is the same at 32 (DESIGN.md §10).
const RANK_WINDOW: usize = 32;

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
            result: CommParam::Const(*result),
        },
    }
}

fn rsd_of(ranks: &RankSet, ev: &ConcreteEvent) -> Rsd {
    Rsd {
        ranks: ranks.clone(),
        sig: ev.sig,
        op: template_of(&ev.op),
        compute: TimeStats::of(ev.compute),
    }
}

/// The paper's output queue, with per-rank buffering and cross-rank merging
/// between collectives.
pub struct SegmentedRebuilder {
    nranks: usize,
    /// `{r}` for every rank `r`, built once: one allocation shared by every
    /// event of the rank, and equality a pointer compare.
    singles: Vec<RankSet>,
    bufs: Vec<Vec<TraceNode>>,
    out: Vec<TraceNode>,
    /// Nodes appended to `out` so far.
    appended: usize,
    /// The most recent of them, uncompressed, while a period detector
    /// records (`crate::traverse`): the last `recent.len()` of `appended`.
    recent: Option<Vec<TraceNode>>,
}

impl SegmentedRebuilder {
    /// An empty rebuilder for a world of `nranks` ranks.
    pub fn new(nranks: usize) -> SegmentedRebuilder {
        SegmentedRebuilder {
            nranks,
            singles: (0..nranks).map(RankSet::single).collect(),
            bufs: vec![Vec::new(); nranks],
            out: Vec::new(),
            appended: 0,
            recent: None,
        }
    }

    /// Keep the nodes appended from now on, for [`Self::repeat`].
    pub(crate) fn record(&mut self) {
        self.recent = Some(Vec::new());
    }

    /// Nodes appended to the global queue so far: the clock
    /// [`Self::repeat`] and [`Self::forget_before`] read.
    pub(crate) fn appended(&self) -> usize {
        self.appended
    }

    /// One rank's buffer: its events since its last collective.
    pub(crate) fn buffer(&self, rank: usize) -> &[TraceNode] {
        &self.bufs[rank]
    }

    fn recent(&self) -> &[TraceNode] {
        self.recent.as_deref().expect("the rebuilder records")
    }

    /// Stop keeping the nodes appended before `at`.
    pub(crate) fn forget_before(&mut self, at: usize) {
        let first = self.appended - self.recent().len();
        let recent = self.recent.as_mut().expect("the rebuilder records");
        recent.drain(..at - first);
    }

    /// Append again, `times` more times over, the nodes appended between
    /// `from` and `to`: what walking that stretch again would append. The
    /// record starts afresh after them.
    pub(crate) fn repeat(&mut self, from: usize, to: usize, times: u64) {
        let first = self.appended - self.recent().len();
        let period = self
            .recent
            .replace(Vec::new())
            .expect("the rebuilder records");
        let period = &period[from - first..to - first];
        for _ in 0..times {
            for node in period {
                append_compressed(&mut self.out, node.clone(), GLOBAL_WINDOW);
            }
        }
        self.appended += period.len() * times as usize;
    }

    /// Append a non-collective event for one rank.
    pub fn rank_event(&mut self, rank: usize, ev: &ConcreteEvent) {
        append_compressed(
            &mut self.bufs[rank],
            TraceNode::Event(rsd_of(&self.singles[rank], ev)),
            RANK_WINDOW,
        );
    }

    /// Append the collectives one traversal sweep completed: each entry
    /// holds every participant's event of one logical operation. A rank
    /// blocks on at most one collective, so the entries cover pairwise
    /// disjoint ranks. Each becomes a block — its members' merged buffers,
    /// then the collective as a single RSD — and two or more blocks are
    /// merged across ranks before they reach the global queue, so sibling
    /// communicators' rows share one segment and one RSD per collective.
    pub fn collectives(&mut self, batch: &[Vec<(usize, ConcreteEvent)>]) {
        let mut blocks: Vec<Vec<TraceNode>> = batch.iter().map(|ev| self.block(ev)).collect();
        let nodes = if blocks.len() == 1 {
            blocks.pop().expect("one block")
        } else {
            merge_sequences(blocks, self.nranks)
        };
        self.append(nodes);
    }

    /// One completed collective's block: the participants' merged buffers,
    /// then its RSD, unified in one flat pass (a pairwise fold
    /// re-unifies a growing rank set per member).
    fn block(&mut self, events: &[(usize, ConcreteEvent)]) -> Vec<TraceNode> {
        assert!(!events.is_empty());
        let mut members: Vec<usize> = events.iter().map(|&(r, _)| r).collect();
        members.sort_unstable();
        let mut block = self.take_merged(&members);

        let rsds = events
            .iter()
            .map(|(r, ev)| rsd_of(&self.singles[*r], ev))
            .collect();
        block.push(TraceNode::Event(collapse_rsds(rsds, self.nranks)));
        block
    }

    /// Take the listed ranks' buffers, merged structurally across ranks.
    fn take_merged(&mut self, members: &[usize]) -> Vec<TraceNode> {
        let seqs: Vec<Vec<TraceNode>> = members
            .iter()
            .map(|&m| std::mem::take(&mut self.bufs[m]))
            .filter(|s| !s.is_empty())
            .collect();
        if seqs.is_empty() {
            return Vec::new();
        }
        merge_sequences(seqs, self.nranks)
    }

    /// Append nodes to the global queue, tail-compressing after each.
    fn append(&mut self, nodes: Vec<TraceNode>) {
        self.appended += nodes.len();
        if let Some(recent) = &mut self.recent {
            recent.extend(nodes.iter().cloned());
        }
        for node in nodes {
            append_compressed(&mut self.out, node, GLOBAL_WINDOW);
        }
    }

    /// Flush all remaining buffers and produce the trace.
    pub fn finish(mut self, comms: CommTable) -> Trace {
        let all: Vec<usize> = (0..self.nranks).collect();
        let rest = self.take_merged(&all);
        self.append(rest);
        Trace {
            nranks: self.nranks,
            nodes: self.out,
            comms,
        }
    }
}

/// One entry of an emission log: which per-rank events reach the rebuilder
/// in which order, and which of them were collective completions. Algorithm
/// 2 patches receive events *after* emitting them, so it logs its emissions
/// and replays them ([`SegmentedRebuilder::replay`]) once no receive is
/// left unmatched.
pub enum Emission {
    /// `streams[rank][idx]` is an ordinary event.
    Rank {
        /// Which rank's stream.
        rank: usize,
        /// Index within that stream.
        idx: usize,
    },
    /// The collective completions of one traversal sweep, each over its
    /// `(rank, idx)` participants (see [`SegmentedRebuilder::collectives`]).
    Collectives(Vec<Vec<(usize, usize)>>),
}

impl SegmentedRebuilder {
    /// Feed the events of per-rank `streams` in the order `log` gives.
    pub fn replay(&mut self, streams: &[Vec<ConcreteEvent>], log: &[Emission]) {
        for entry in log {
            match entry {
                Emission::Rank { rank, idx } => self.rank_event(*rank, &streams[*rank][*idx]),
                Emission::Collectives(batch) => {
                    let events: Vec<Vec<(usize, ConcreteEvent)>> = batch
                        .iter()
                        .map(|parts| {
                            parts
                                .iter()
                                .map(|&(r, i)| (r, streams[r][i].clone()))
                                .collect()
                        })
                        .collect();
                    self.collectives(&events);
                }
            }
        }
    }
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

    fn rebuild_from_log(streams: &[Vec<ConcreteEvent>], log: &[Emission], n: usize) -> Trace {
        let mut rb = SegmentedRebuilder::new(n);
        rb.replay(streams, log);
        rb.finish(CommTable::world(n))
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
            rb.collectives(&[parts]);
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
        let mut members = events
            .iter()
            .map(|(r, ev)| rsd_of(&RankSet::single(*r), ev));
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
        rb.collectives(std::slice::from_ref(&barrier));
        let trace = rb.finish(CommTable::world(n));
        assert_eq!(trace.nodes, [folded(&barrier, n)]);

        // a split into three result groups of different sizes folds into
        // one RSD, like any other collective
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
        rb.collectives(std::slice::from_ref(&split));
        let trace = rb.finish(CommTable::world(n));
        assert_eq!(trace.nodes, [folded(&split, n)]);
        // one RSD whose result maps each rank to its group
        let [TraceNode::Event(Rsd {
            op: OpTemplate::CommSplit { result, .. },
            ranks,
            ..
        })] = &trace.nodes[..]
        else {
            panic!("one split RSD:\n{trace}")
        };
        assert_eq!(ranks, &RankSet::all(n));
        for r in 0..n {
            assert_eq!(result.eval(r), [3, 1, 2, 1, 1, 3][r % 6], "rank {r}");
        }
        let ids: Vec<u32> = result.groups(ranks).iter().map(|(c, _)| *c).collect();
        assert_eq!(ids, [1, 2, 3]);
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
            Emission::Collectives(vec![vec![(0, 1), (1, 1)]]),
            Emission::Rank { rank: 0, idx: 2 },
            Emission::Rank { rank: 1, idx: 2 },
        ];
        let trace = rebuild_from_log(&streams, &log, n);
        assert_eq!(trace.concrete_event_count(), 6);
        for (r, s) in streams.iter().enumerate() {
            let got = events_for_rank(&trace, r);
            assert_eq!(got.len(), s.len());
            for (g, e) in got.iter().zip(s) {
                assert_eq!(g.op, e.op);
            }
        }
    }

    #[test]
    fn a_grids_row_and_column_reduces_fold_to_one_loop() {
        // a 4x4 grid as Algorithm 1 sees it: the world split into rows
        // (comms 1-4) and columns (5-8), then per iteration a send along
        // the row, the four row reduces (one sweep), a send down the column
        // and the four column reduces (one sweep)
        let (n, iters) = (16, 12);
        let coll = |op| ConcreteEvent {
            op,
            sig: 11,
            compute: SimDuration::ZERO,
        };
        let split = |result| coll(ConcreteOp::CommSplit { parent: 0, result });
        let reduce = |comm| {
            coll(ConcreteOp::Coll {
                kind: CollKind::Allreduce,
                root: None,
                bytes: 8,
                comm,
            })
        };
        let streams: Vec<Vec<ConcreteEvent>> = (0..n)
            .map(|r| {
                let (row, col) = (1 + (r / 4) as u32, 5 + (r % 4) as u32);
                let mut s = vec![split(row), split(col)];
                for _ in 0..iters {
                    let (right, down) = (r / 4 * 4 + (r + 1) % 4, (r + 4) % n);
                    s.extend([send_ev(right), reduce(row), send_ev(down), reduce(col)]);
                }
                s
            })
            .collect();
        let sweep = |groups: &[Vec<usize>], idx: usize| {
            Emission::Collectives(
                groups
                    .iter()
                    .map(|g| g.iter().map(|&r| (r, idx)).collect())
                    .collect(),
            )
        };
        let world: Vec<Vec<usize>> = vec![(0..n).collect()];
        let rows: Vec<Vec<usize>> = (0..4).map(|i| (4 * i..4 * i + 4).collect()).collect();
        let cols: Vec<Vec<usize>> = (0..4).map(|j| (j..n).step_by(4).collect()).collect();
        let mut log = vec![sweep(&world, 0), sweep(&world, 1)];
        for k in 0..iters {
            let at = 2 + 4 * k;
            log.extend((0..n).map(|rank| Emission::Rank { rank, idx: at }));
            log.push(sweep(&rows, at + 1));
            log.extend((0..n).map(|rank| Emission::Rank { rank, idx: at + 2 }));
            log.push(sweep(&cols, at + 3));
        }
        let trace = rebuild_from_log(&streams, &log, n);

        let loops: Vec<&scalatrace::trace::Prsd> = trace
            .nodes
            .iter()
            .filter_map(|nd| match nd {
                TraceNode::Loop(p) => Some(p),
                TraceNode::Event(_) => None,
            })
            .collect();
        assert_eq!(loops.len(), 1, "{trace}");
        assert_eq!(loops[0].count, iters as u64, "{trace}");
        for nd in &loops[0].body {
            let TraceNode::Event(rsd) = nd else {
                panic!("nested loop in the grid iteration:\n{trace}")
            };
            assert_eq!(rsd.ranks.len(), n, "one RSD per statement:\n{trace}");
        }
        assert_eq!(loops[0].body.len(), 4, "{trace}");
        for (r, s) in streams.iter().enumerate() {
            let got: Vec<ConcreteOp> = events_for_rank(&trace, r)
                .into_iter()
                .map(|e| e.op)
                .collect();
            let want: Vec<ConcreteOp> = s.iter().map(|e| e.op.clone()).collect();
            assert_eq!(got, want, "rank {r}");
        }
    }

    #[test]
    fn a_batch_of_one_appends_its_block_unchanged() {
        // the block is the members' merged buffers, then the folded RSD
        let n = 4;
        let mut rb = SegmentedRebuilder::new(n);
        let barrier: Vec<(usize, ConcreteEvent)> = (0..n).map(|r| (r, barrier_ev())).collect();
        for r in 0..n {
            rb.rank_event(r, &send_ev((r + 1) % n));
        }
        rb.collectives(std::slice::from_ref(&barrier));
        let trace = rb.finish(CommTable::world(n));
        let bufs: Vec<Vec<TraceNode>> = (0..n)
            .map(|r| {
                vec![TraceNode::Event(rsd_of(
                    &RankSet::single(r),
                    &send_ev((r + 1) % n),
                ))]
            })
            .collect();
        let mut want = merge_sequences(bufs, n);
        want.push(folded(&barrier, n));
        assert_eq!(trace.nodes, want);
    }
}
