//! Algorithms 1 and 2 walk the loop, not its unrolling (DESIGN.md §5,
//! decision 8).
//!
//! Both traversals walk lazy cursors and skip every period their state
//! repeats. Each is held here to its expanding oracle, which walks plainly
//! expanded streams and skips nothing:
//!
//! - (a) the registry at {4, 16, 64, 256} ranks, at the class default, at
//!   3 iterations and at class A up to 64 ranks: both algorithms' outputs
//!   equal the oracles', and so does `generate`'s program text;
//! - (b) hand-built traces for the corners of the skip: a loop count that
//!   is not a multiple of the period, rank classes whose inner loops have
//!   different counts, a rank that joins no collective inside the loop, and
//!   a Figure-5 deadlock after a skipped iteration;
//! - (c) the work is independent of iterations: Algorithm 1 walks as many
//!   events on cg r64 at 8 iterations as at 15.
//!
//! The cursor's early loop exit is checked against plain stepping over the
//! registry too. The 256-rank cells run in release builds only, which keeps
//! the debug tier-1 run short.

use benchgen::align::{align_collectives, align_collectives_expanded, align_collectives_walked};
use benchgen::wildcard::{
    resolve_wildcards, resolve_wildcards_expanded, resolve_wildcards_walked, WildcardOutcome,
};
use benchgen::{codegen, generate, GenError, GenOptions};
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::types::{CollKind, TagSel};
use scalatrace::cursor::{events_for_rank, expand_plain};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Prsd, Rsd, Trace, TraceNode};
use scalatrace::trace_app;

fn trace(app: &'static App, n: usize, params: AppParams) -> Trace {
    trace_app(n, network::ideal(), move |ctx| (app.run)(ctx, &params))
        .unwrap_or_else(|e| panic!("{} r{n} fails to trace: {e}", app.name))
        .trace
}

fn sizes() -> &'static [usize] {
    if cfg!(debug_assertions) {
        &[4, 16, 64]
    } else {
        &[4, 16, 64, 256]
    }
}

/// Both results, or both errors with the same report.
fn same<T: PartialEq + std::fmt::Debug>(
    got: &Result<T, GenError>,
    want: &Result<T, GenError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert!(g == w, "{what}: output differs from the oracle's"),
        (Err(g), Err(w)) => assert_eq!(format!("{g}"), format!("{w}"), "{what}"),
        _ => panic!("{what}: {got:?} against the oracle's {want:?}"),
    }
}

fn outcome(r: Result<WildcardOutcome, GenError>) -> Result<(Trace, usize), GenError> {
    r.map(|o| (o.trace, o.resolved))
}

/// Both algorithms against their oracles, then `generate`'s text against a
/// program generated from the oracles' trace.
fn check_against_oracles(trace: &Trace, cell: &str) {
    let mut current = trace.clone();
    if current.has_unaligned_collectives() {
        let got = align_collectives(&current);
        same(
            &got,
            &align_collectives_expanded(&current),
            &format!("{cell} align"),
        );
        current = got.expect("the registry aligns");
    }
    if current.has_wildcard_recv() {
        let got = outcome(resolve_wildcards(&current));
        let want = outcome(resolve_wildcards_expanded(&current));
        same(&got, &want, &format!("{cell} wildcards"));
        current = got.expect("the registry resolves").0;
    }
    let generated = generate(trace, &GenOptions::default()).expect("the registry generates");
    let (mut program, _) = codegen::program_of_with(&current, SimDuration::ZERO, false);
    program.header = generated.program.header.clone();
    assert_eq!(
        conceptual::printer::print(&generated.program),
        conceptual::printer::print(&program),
        "{cell}: generate's program"
    );
}

#[test]
fn the_registry_matches_the_expanding_oracles() {
    let mut checked = 0;
    for app in registry::all() {
        for &n in sizes() {
            if !(app.valid_ranks)(n) {
                continue;
            }
            let mut variants = vec![
                ("S", AppParams::class(Class::S)),
                ("S it3", AppParams::quick()),
            ];
            if n <= 64 {
                variants.push(("A", AppParams::class(Class::A)));
            }
            for (name, params) in variants {
                let cell = format!("{} r{n} {name}", app.name);
                check_against_oracles(&trace(app, n, params), &cell);
                checked += 1;
            }
        }
    }
    assert!(checked >= 60, "{checked} cells");
}

#[test]
fn the_cursor_leaves_a_loop_after_an_empty_iteration_and_yields_what_plain_stepping_does() {
    for app in registry::all() {
        for n in [4, 16] {
            if !(app.valid_ranks)(n) {
                continue;
            }
            let t = trace(app, n, AppParams::class(Class::S));
            for r in 0..n {
                assert!(
                    events_for_rank(&t, r) == expand_plain(&t, r),
                    "{} r{n}: rank {r}",
                    app.name
                );
            }
        }
    }
}

#[test]
fn algorithm_1_walks_as_many_events_at_8_iterations_as_at_15() {
    let cg = registry::lookup("cg").unwrap();
    let at = |iterations| {
        let params = AppParams {
            iterations: Some(iterations),
            ..AppParams::class(Class::S)
        };
        trace(cg, 64, params)
    };
    let (eight, fifteen) = (at(8), at(15));
    assert_eq!(
        eight.node_count(),
        fifteen.node_count(),
        "the capture folds"
    );
    let (a8, walked8) = align_collectives_walked(&eight).unwrap();
    let (a15, walked15) = align_collectives_walked(&fifteen).unwrap();
    assert_eq!(walked8, walked15);
    assert!(
        walked15 < fifteen.concrete_event_count(),
        "{walked15} walked"
    );
    assert!(a8 == align_collectives_expanded(&eight).unwrap());
    assert!(a15 == align_collectives_expanded(&fifteen).unwrap());
}

// ------------------------------------------------------- hand-built traces

fn rsd(ranks: RankSet, sig: u64, op: OpTemplate) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks,
        sig,
        op,
        compute: TimeStats::of(SimDuration::from_usecs(sig)),
    })
}

fn ranks(rs: impl IntoIterator<Item = usize>) -> RankSet {
    RankSet::from_ranks(rs)
}

fn barrier(on: RankSet, sig: u64, comm: u32) -> TraceNode {
    rsd(
        on,
        sig,
        OpTemplate::Coll {
            kind: CollKind::Barrier,
            root: None,
            bytes: ValParam::Const(0),
            comm: CommParam::Const(comm),
        },
    )
}

fn wait(on: RankSet, sig: u64, count: u64) -> TraceNode {
    rsd(
        on,
        sig,
        OpTemplate::Wait {
            count: ValParam::Const(count),
        },
    )
}

fn send(on: RankSet, sig: u64, to: usize, blocking: bool) -> TraceNode {
    rsd(
        on,
        sig,
        OpTemplate::Send {
            to: RankParam::Const(to),
            tag: 0,
            bytes: ValParam::Const(8),
            comm: CommParam::Const(0),
            blocking,
        },
    )
}

fn recv(on: RankSet, sig: u64, from: SrcParam, blocking: bool) -> TraceNode {
    rsd(
        on,
        sig,
        OpTemplate::Recv {
            from,
            tag: TagSel::Any,
            bytes: ValParam::Const(8),
            comm: CommParam::Const(0),
            blocking,
        },
    )
}

fn repeat(count: u64, body: Vec<TraceNode>) -> TraceNode {
    TraceNode::Loop(Prsd { count, body })
}

fn trace_of(n: usize, nodes: Vec<TraceNode>, comms: &[(u32, Vec<usize>)]) -> Trace {
    let mut t = Trace::new(n);
    t.nodes = nodes;
    for (id, members) in comms {
        t.comms.insert(*id, members.clone());
    }
    t
}

/// Algorithm 1 equals its oracle; returns the events it walked.
fn aligns_exactly(t: &Trace) -> u64 {
    assert!(t.has_unaligned_collectives());
    let (got, walked) = align_collectives_walked(t).expect("aligns");
    assert!(got == align_collectives_expanded(t).unwrap(), "{got}");
    walked
}

/// Algorithm 2 equals its oracle; returns the events it walked.
fn resolves_exactly(t: &Trace) -> u64 {
    assert!(t.has_wildcard_recv());
    let (got, walked) = resolve_wildcards_walked(t).expect("resolves");
    let want = resolve_wildcards_expanded(t).unwrap();
    assert!(got.trace == want.trace, "{}", got.trace);
    assert_eq!(got.resolved, want.resolved);
    walked
}

#[test]
fn a_loop_count_that_is_not_a_multiple_of_the_period() {
    // Ranks 0-1 pass 7 + 1 barriers, ranks 2-3 4 x 2: the state recurs
    // every two sweeps, two iterations of the count-7 loop.
    let (pair, other) = (ranks([0, 1]), ranks([2, 3]));
    let t = trace_of(
        4,
        vec![
            repeat(7, vec![barrier(pair.clone(), 1, 0)]),
            barrier(pair, 2, 0),
            repeat(4, vec![barrier(other.clone(), 3, 0), barrier(other, 4, 0)]),
            barrier(RankSet::all(4), 5, 0),
        ],
        &[],
    );
    assert!(aligns_exactly(&t) < t.concrete_event_count());
}

#[test]
fn rank_classes_whose_inner_loops_have_different_counts() {
    // Each pair reduces on its own communicator in an inner loop (3 and 5
    // iterations), then both pairs meet at a world barrier from two call
    // sites, ten times.
    let (low, high) = (ranks([0, 1]), ranks([2, 3]));
    let t = trace_of(
        4,
        vec![
            repeat(
                10,
                vec![
                    repeat(3, vec![wait(low.clone(), 1, 1), barrier(low.clone(), 2, 1)]),
                    repeat(
                        5,
                        vec![wait(high.clone(), 3, 2), barrier(high.clone(), 4, 2)],
                    ),
                    barrier(low, 5, 0),
                    barrier(high, 6, 0),
                ],
            ),
            barrier(RankSet::all(4), 7, 0),
        ],
        &[(1, vec![0, 1]), (2, vec![2, 3])],
    );
    assert!(aligns_exactly(&t) < t.concrete_event_count());
}

#[test]
fn a_rank_that_joins_no_collective_inside_the_loop() {
    // Algorithm 1: rank 2 walks the whole loop in the first sweep, so its
    // buffer holds all twelve waits while the others' period is skipped.
    let t = trace_of(
        3,
        vec![
            repeat(
                12,
                vec![
                    wait(RankSet::single(2), 1, 1),
                    barrier(RankSet::single(0), 2, 1),
                    barrier(RankSet::single(1), 3, 1),
                ],
            ),
            barrier(RankSet::all(3), 4, 0),
        ],
        &[(1, vec![0, 1])],
    );
    assert!(aligns_exactly(&t) < t.concrete_event_count());

    // Algorithm 2: rank 2 sends to rank 0 in lock-step with the loop, so a
    // send or receive is pending at every sweep boundary inside it and no
    // cut is quiescent: nothing recurs, everything is walked, and the
    // output is still exact.
    let t = trace_of(
        3,
        vec![
            repeat(
                12,
                vec![
                    recv(RankSet::single(0), 1, SrcParam::Any, true),
                    send(RankSet::single(2), 2, 0, true),
                    barrier(ranks([0, 1]), 3, 1),
                ],
            ),
            barrier(RankSet::all(3), 4, 0),
        ],
        &[(1, vec![0, 1])],
    );
    assert_eq!(resolves_exactly(&t), t.concrete_event_count());
}

#[test]
fn a_state_whose_places_recur_with_another_buffer_is_not_a_period() {
    // Rank 2 waits at the world barrier while ranks 0-1 pass two barriers
    // of their own. In the first iteration its buffer holds the wait before
    // the loop too, folded with the loop's own into one node; in the next
    // it holds one wait. Every rank stands where it stood, the buffers are
    // one node long, and that is still not a period.
    let pair = ranks([0, 1]);
    let t = trace_of(
        3,
        vec![
            wait(RankSet::single(2), 4, 1),
            repeat(
                10,
                vec![
                    repeat(
                        2,
                        vec![
                            barrier(RankSet::single(0), 2, 1),
                            barrier(RankSet::single(1), 3, 1),
                        ],
                    ),
                    wait(RankSet::single(2), 4, 1),
                    barrier(pair, 5, 0),
                    barrier(RankSet::single(2), 6, 0),
                ],
            ),
            barrier(RankSet::all(3), 7, 0),
        ],
        &[(1, vec![0, 1])],
    );
    assert!(aligns_exactly(&t) < t.concrete_event_count());
}

/// Three ranks, `iterations` times: rank 1 posts a wildcard receive, all
/// meet at a barrier, rank 0 sends, rank 1 waits, all meet again. The cut
/// after the second barrier is quiescent.
fn wildcard_loop(iterations: u64) -> TraceNode {
    let all = RankSet::all(3);
    repeat(
        iterations,
        vec![
            recv(RankSet::single(1), 1, SrcParam::Any, false),
            barrier(all.clone(), 2, 0),
            send(RankSet::single(0), 3, 1, true),
            wait(RankSet::single(1), 4, 1),
            barrier(all, 5, 0),
        ],
    )
}

#[test]
fn algorithm_2_skips_a_quiescent_period() {
    let t = trace_of(
        3,
        vec![wildcard_loop(9), barrier(RankSet::all(3), 6, 0)],
        &[],
    );
    assert!(resolves_exactly(&t) < t.concrete_event_count());
}

#[test]
fn a_figure_5_deadlock_after_iteration_3_is_reported_with_the_same_blocked_list() {
    // Three iterations (the third skipped), then the paper's Figure 5(b):
    // rank 1's wildcard takes rank 0's send and its Recv(0) never matches.
    let figure5 = vec![
        recv(RankSet::single(1), 11, SrcParam::Any, true),
        recv(
            RankSet::single(1),
            12,
            SrcParam::Rank(RankParam::Const(0)),
            true,
        ),
        send(RankSet::single(0), 13, 1, true),
        send(RankSet::single(2), 14, 1, true),
    ];
    let prefix = trace_of(3, vec![wildcard_loop(3)], &[]);
    assert!(resolves_exactly(&prefix) < prefix.concrete_event_count());

    let mut nodes = vec![wildcard_loop(3)];
    nodes.extend(figure5);
    let t = trace_of(3, nodes, &[]);
    let got = resolve_wildcards(&t).unwrap_err();
    let want = resolve_wildcards_expanded(&t).unwrap_err();
    let (GenError::PotentialDeadlock { blocked }, GenError::PotentialDeadlock { blocked: oracle }) =
        (&got, &want)
    else {
        panic!("expected deadlocks, got {got:?} and {want:?}");
    };
    assert_eq!(blocked, oracle);
    assert!(
        blocked
            .iter()
            .any(|(r, what)| *r == 1 && what.contains("receive")),
        "{blocked:?}"
    );
}
