//! The trace traversal and the code generator, in one walk.
//!
//! "We designed a trace traversal framework that walks through the trace
//! and invokes a language-dependent code generator for each RSD and PRSD"
//! (paper §4.1). Here coNCePTuaL is the one language, so the traversal and
//! the generator are a single recursive walk over the trace: a PRSD becomes
//! a `FOR` loop around its body's statements, adjacent `MPI_Comm_split`
//! RSDs of one split become a `PARTITION`, and every other RSD becomes the
//! statements its operation maps to.

use crate::collectives::map_collective;
use crate::taskset::{p2p_groups, runs_of, taskset_of};
use conceptual::ast::{Expr, Program, Stmt, TimeUnit};
use mpisim::comm::CommId;
use mpisim::time::SimDuration;
use mpisim::types::{Tag, TagSel};
use scalatrace::params::{RankParam, SrcParam};
use scalatrace::rankset::RankSet;
use scalatrace::trace::{OpTemplate, Rsd, Trace, TraceNode};
use std::collections::BTreeSet;

/// Synthesise an MPI-level tag that keeps (communicator, tag) pairs
/// distinct: generated programs express all point-to-point traffic over the
/// world communicator in absolute ranks (paper §4.2), so the original
/// communicator is folded into the tag to preserve matching.
pub fn synth_tag(comm: CommId, tag: Tag) -> Tag {
    if comm == 0 {
        tag
    } else {
        ((comm as Tag) << 16) | (tag & 0xFFFF)
    }
}

/// Generate a coNCePTuaL program from a trace (which must already be
/// aligned and wildcard-resolved as requested; [`crate::generate`] wires
/// the full pipeline and validates its output). Computation at or below
/// `compute_threshold` emits no `COMPUTE`; `emit_comments` puts a
/// provenance comment (`# MPI_Isend @sig…`) before each statement group.
/// Returns the program and the approximation notes of Table 1's mappings.
pub fn program_of_with(
    trace: &Trace,
    compute_threshold: SimDuration,
    emit_comments: bool,
) -> (Program, Vec<String>) {
    let mut walk = Walk {
        trace,
        compute_threshold,
        emit_comments,
        notes: Vec::new(),
    };
    let stmts = walk.block(&trace.nodes);
    (Program::new(stmts), walk.notes)
}

/// The walk's options and what it gathers on the way.
struct Walk<'t> {
    trace: &'t Trace,
    compute_threshold: SimDuration,
    emit_comments: bool,
    /// Approximation notes gathered from Table 1 mappings, deduplicated.
    notes: Vec<String>,
}

/// `MPI_Comm_split` RSDs being coalesced into one `PARTITION`.
struct PendingSplit<'t> {
    parent: CommId,
    sig: u64,
    /// (result comm id, members)
    groups: Vec<(CommId, &'t [usize])>,
    /// Every member of `groups`.
    covered: BTreeSet<usize>,
}

impl<'t> PendingSplit<'t> {
    fn new(parent: CommId, sig: u64) -> PendingSplit<'t> {
        PendingSplit {
            parent,
            sig,
            groups: Vec::new(),
            covered: BTreeSet::new(),
        }
    }

    /// Does this group belong to the same split? Same call site and parent,
    /// and disjoint from every group so far: one `MPI_Comm_split`'s groups
    /// are disjoint, so an overlap proves a second split from that site.
    fn continued_by(&self, parent: CommId, sig: u64, members: &[usize]) -> bool {
        self.parent == parent
            && self.sig == sig
            && !members.iter().any(|m| self.covered.contains(m))
    }

    fn add(&mut self, result: CommId, members: &'t [usize]) {
        self.covered.extend(members.iter().copied());
        self.groups.push((result, members));
    }

    fn into_stmt(self) -> Stmt {
        Stmt::Partition {
            parent: (self.parent != 0).then(|| group_name(self.parent)),
            groups: self
                .groups
                .into_iter()
                .map(|(id, members)| {
                    let ranks = RankSet::from_ranks(members.iter().copied());
                    (group_name(id), runs_of(&ranks))
                })
                .collect(),
        }
    }
}

/// The group name used for a recorded communicator.
fn group_name(comm: CommId) -> String {
    format!("comm{comm}")
}

impl<'t> Walk<'t> {
    /// The statements of one node sequence. A loop flushes the pending
    /// split, so a `PARTITION` never spans a loop boundary, and its body
    /// becomes a fresh sequence inside a `FOR` of the PRSD's count.
    fn block(&mut self, nodes: &'t [TraceNode]) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut split: Option<PendingSplit<'t>> = None;
        for node in nodes {
            match node {
                TraceNode::Loop(p) => {
                    out.extend(split.take().map(PendingSplit::into_stmt));
                    let body = self.block(&p.body);
                    out.push(Stmt::For {
                        count: Expr::num(p.count as i64),
                        body,
                    });
                }
                TraceNode::Event(rsd) => match &rsd.op {
                    OpTemplate::CommSplit { parent, result } => {
                        for (id, _) in result.groups(&rsd.ranks) {
                            let members = self.trace.comms.members(id);
                            if !split
                                .as_ref()
                                .is_some_and(|s| s.continued_by(*parent, rsd.sig, members))
                            {
                                let done = split.replace(PendingSplit::new(*parent, rsd.sig));
                                out.extend(done.map(PendingSplit::into_stmt));
                            }
                            split.as_mut().expect("just set").add(id, members);
                        }
                    }
                    _ => {
                        out.extend(split.take().map(PendingSplit::into_stmt));
                        self.event(rsd, &mut out);
                    }
                },
            }
        }
        out.extend(split.map(PendingSplit::into_stmt));
        out
    }

    fn note(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    /// The statements of one RSD other than a split.
    fn event(&mut self, rsd: &Rsd, out: &mut Vec<Stmt>) {
        let n = self.trace.nranks;
        if self.emit_comments {
            out.push(Stmt::Comment(format!(
                "{} @{:08x} ranks {} ({} events)",
                rsd.op.mpi_name(),
                rsd.sig >> 32,
                rsd.ranks,
                rsd.compute.count().max(1),
            )));
        }
        let mean = rsd.compute.mean();
        if mean > self.compute_threshold && mean > SimDuration::ZERO {
            out.push(Stmt::Compute {
                tasks: taskset_of(&rsd.ranks, n, false),
                amount: Expr::num(mean.as_nanos() as i64),
                unit: TimeUnit::Nanoseconds,
            });
        }

        match &rsd.op {
            OpTemplate::Send {
                to,
                tag,
                bytes,
                comm,
                blocking,
            } => {
                for (comm_id, sub) in comm.groups(&rsd.ranks) {
                    for g in p2p_groups(&sub, Some(to), bytes) {
                        out.push(Stmt::Send {
                            src: taskset_of(&g.ranks, n, true),
                            dst: g.peer.expect("sends have peers"),
                            bytes: g.bytes,
                            tag: synth_tag(comm_id, *tag),
                            is_async: !blocking,
                        });
                    }
                }
            }
            OpTemplate::Recv {
                from,
                tag,
                bytes,
                comm,
                blocking,
            } => {
                for (comm_id, sub) in comm.groups(&rsd.ranks) {
                    let tag = match tag {
                        TagSel::Is(t) => synth_tag(comm_id, *t),
                        // ANY_TAG degrades to tag 0 in generated code;
                        // matching by source/order is preserved.
                        TagSel::Any => {
                            self.note(
                                "MPI_ANY_TAG receives generated with a concrete tag".to_string(),
                            );
                            synth_tag(comm_id, 0)
                        }
                    };
                    let peer = match from {
                        SrcParam::Any => None,
                        SrcParam::Rank(p) => Some(p),
                    };
                    for g in p2p_groups(&sub, peer, bytes) {
                        out.push(Stmt::Receive {
                            dst: taskset_of(&g.ranks, n, true),
                            src: peer.map(|_| g.peer.expect("grouped peer")),
                            bytes: g.bytes,
                            tag,
                            is_async: !blocking,
                        });
                    }
                }
            }
            OpTemplate::Wait { .. } => out.push(Stmt::Await {
                tasks: taskset_of(&rsd.ranks, n, false),
            }),
            OpTemplate::Coll {
                kind,
                root,
                bytes,
                comm,
            } => {
                // One original call site may cover several disjoint
                // subcommunicators (e.g. per-column allreduces): emit one
                // statement per communicator instance.
                for (comm_id, sub) in comm.groups(&rsd.ranks) {
                    let name = (comm_id != 0).then(|| group_name(comm_id));
                    // MPI guarantees a single root per communicator; narrow
                    // the (possibly per-rank) root parameter to this one.
                    let narrowed_root = root.as_ref().map(|r| {
                        RankParam::Const(r.eval(sub.first().expect("nonempty comm group")))
                    });
                    let mapped = map_collective(
                        *kind,
                        &sub,
                        narrowed_root.as_ref(),
                        bytes,
                        n,
                        name.as_deref(),
                    );
                    if let Some(note) = mapped.note {
                        self.note(note);
                    }
                    out.extend(mapped.stmts);
                }
            }
            OpTemplate::CommSplit { .. } => unreachable!("block() coalesces splits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::network;
    use mpisim::types::Src;
    use scalatrace::trace_app;

    fn plain_program(trace: &Trace) -> Program {
        program_of_with(trace, SimDuration::ZERO, false).0
    }

    fn ring_trace(n: usize, iters: usize) -> Trace {
        trace_app(n, network::ideal(), move |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for _ in 0..iters {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 1024, &w);
                let s = ctx.isend(right, 0, 1024, &w);
                ctx.compute(SimDuration::from_usecs(100));
                ctx.waitall(&[r, s]);
            }
            ctx.finalize();
        })
        .unwrap()
        .trace
    }

    #[test]
    fn ring_generates_compact_readable_program() {
        let trace = ring_trace(8, 500);
        let program = plain_program(&trace);
        let text = conceptual::printer::print(&program);
        assert!(text.contains("FOR 500 REPETITIONS {"), "{text}");
        assert!(
            text.contains(
                "ALL TASKS t ASYNCHRONOUSLY RECEIVE A 1024 BYTE MESSAGE FROM TASK (t - 1) MOD 8"
            ) || text.contains("FROM TASK (t + 7) MOD 8"),
            "{text}"
        );
        assert!(
            text.contains(
                "ALL TASKS t ASYNCHRONOUSLY SEND A 1024 BYTE MESSAGE TO TASK (t + 1) MOD 8"
            ),
            "{text}"
        );
        assert!(text.contains("ALL TASKS AWAIT COMPLETION"), "{text}");
        assert!(
            text.contains("ALL TASKS COMPUTE FOR 100000 NANOSECONDS"),
            "{text}"
        );
        // program size independent of iteration count: a handful of stmts
        assert!(program.stmt_count() < 12, "{text}");
    }

    #[test]
    fn generated_program_round_trips_through_parser() {
        let trace = ring_trace(4, 50);
        let program = plain_program(&trace);
        let text = conceptual::printer::print(&program);
        let back = conceptual::parser::parse(&text).expect("generated text parses");
        assert_eq!(back, program);
    }

    #[test]
    fn comm_splits_coalesce_into_partition() {
        let traced = trace_app(8, network::ideal(), |ctx| {
            let w = ctx.world();
            let row = ctx.comm_split(&w, (ctx.rank() / 4) as i64, ctx.rank() as i64);
            ctx.allreduce(64, &row);
            ctx.finalize();
        })
        .unwrap();
        let program = plain_program(&traced.trace);
        let text = conceptual::printer::print(&program);
        // the original split surfaces as (possibly sibling) PARTITIONs
        assert!(text.contains("GROUP comm1 = {0-3}"), "{text}");
        assert!(text.contains("GROUP comm2 = {4-7}"), "{text}");
        assert!(
            text.contains("GROUP comm1 REDUCE A 64 BYTE MESSAGE TO ALL TASKS"),
            "{text}"
        );
        // generated program must validate and run
        let outcome = conceptual::interp::run_program(&program, 8, network::ideal()).expect("runs");
        assert!(outcome.report.stats.collectives > 0);
    }

    fn node(ranks: impl IntoIterator<Item = usize>, sig: u64, op: OpTemplate) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks: RankSet::from_ranks(ranks),
            sig,
            op,
            compute: scalatrace::timestats::TimeStats::new(),
        })
    }

    fn world_coll(kind: mpisim::types::CollKind, sig: u64) -> TraceNode {
        let op = OpTemplate::Coll {
            kind,
            root: None,
            bytes: scalatrace::params::ValParam::Const(8),
            comm: scalatrace::params::CommParam::Const(0),
        };
        node(0..4, sig, op)
    }

    fn lp(count: u64, body: Vec<TraceNode>) -> TraceNode {
        TraceNode::Loop(scalatrace::trace::Prsd { count, body })
    }

    #[test]
    fn nested_loops_keep_their_counts() {
        // Three levels, with a split inside the innermost loop: each FOR
        // carries its own PRSD's count, and the split's PARTITION stays in
        // the loop whose body holds it.
        use mpisim::types::CollKind::{Allreduce, Barrier};
        let mut trace = Trace::new(4);
        trace.comms.insert(1, vec![0, 1]);
        trace.comms.insert(2, vec![2, 3]);
        let split = |result, ranks| {
            let result = scalatrace::params::CommParam::Const(result);
            node(ranks, 1, OpTemplate::CommSplit { parent: 0, result })
        };
        let inner = lp(
            7,
            vec![split(1, 0..2), split(2, 2..4), world_coll(Barrier, 2)],
        );
        let middle = lp(4, vec![inner, world_coll(Allreduce, 3)]);
        trace.nodes = vec![lp(3, vec![middle, world_coll(Barrier, 4)])];
        let program = plain_program(&trace);
        let text = conceptual::printer::print(&program);
        let at = |what: &str| {
            text.find(what)
                .unwrap_or_else(|| panic!("{what} missing:\n{text}"))
        };
        // nesting order: 3 ⊃ 4 ⊃ 7 ⊃ the split
        assert!(
            at("FOR 3 REPETITIONS {") < at("FOR 4 REPETITIONS {"),
            "{text}"
        );
        assert!(
            at("FOR 4 REPETITIONS {") < at("FOR 7 REPETITIONS {"),
            "{text}"
        );
        assert!(at("FOR 7 REPETITIONS {") < at("PARTITION"), "{text}");
        let mut level = &program.stmts;
        for want in [3, 4, 7] {
            let Some(Stmt::For { count, body }) = level.first() else {
                panic!("FOR {want} missing at its level:\n{text}")
            };
            assert_eq!(*count, Expr::num(want), "{text}");
            level = body;
        }
        // both groups of the one split in one PARTITION, then the barrier
        assert!(
            matches!(&level[..], [Stmt::Partition { groups, .. }, Stmt::Sync { .. }] if groups.len() == 2),
            "{text}"
        );
        assert!(
            conceptual::analyze::validate(&program, 4).is_empty(),
            "{text}"
        );
        let outcome = conceptual::interp::run_program(&program, 4, network::ideal()).expect("runs");
        assert!(outcome.report.stats.collectives > 0);
    }

    #[test]
    fn per_rank_sizes_split_into_subset_statements() {
        // each rank sends a differently-sized message to rank 0 from the
        // same call site: the merged RSD has a per-rank size table, which
        // codegen must split into per-subset statements
        let trace = trace_app(4, network::ideal(), |ctx| {
            let w = ctx.world();
            if ctx.rank() > 0 {
                let sz = 100 * ctx.rank() as u64 * ctx.rank() as u64;
                ctx.send(0, 0, sz, &w);
            } else {
                for _ in 1..4 {
                    let _ = ctx.recv(mpisim::types::Src::Any, TagSel::Any, 0, &w);
                }
            }
        })
        .unwrap()
        .trace;
        let program = plain_program(&trace);
        let text = conceptual::printer::print(&program);
        for sz in [100u64, 400, 900] {
            assert!(
                text.contains(&format!("{sz} BYTE MESSAGE")),
                "size {sz} missing:\n{text}"
            );
        }
    }

    #[test]
    fn synth_tags_separate_communicators() {
        assert_eq!(synth_tag(0, 5), 5);
        assert_ne!(synth_tag(1, 5), synth_tag(2, 5));
        assert_ne!(synth_tag(1, 5), 5);
    }
}
