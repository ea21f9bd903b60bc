//! E7: empirical complexity of Algorithm 1 (collective alignment) and
//! Algorithm 2 (wildcard resolution), which the paper states are O(p·e)
//! (ranks × events per rank), with O(r) pre-checks.
//!
//! Synthetic traces let `p` and `e` vary independently. Both algorithms
//! walk the compressed trace and skip the periods their state repeats, so
//! on the looped trace doubling `e` (the loop count) costs next to nothing;
//! the `events_flat` sweep unrolls the same iterations with no loop, where
//! nothing repeats, and measures O(p·e) itself.

use benchgen::{align_collectives, resolve_wildcards};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::types::{CollKind, TagSel};
use scalatrace::params::{CommParam, RankParam, SrcParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Prsd, Rsd, Trace, TraceNode};

/// A trace with `iters` iterations of (wildcard recv + ring send + barrier
/// from per-parity call sites) on `p` ranks, as one loop: exercises both
/// algorithms.
fn synthetic_trace(p: usize, iters: u64) -> Trace {
    let mut t = Trace::new(p);
    t.nodes.push(TraceNode::Loop(Prsd {
        count: iters,
        body: iteration(p),
    }));
    t
}

/// The same iterations unrolled, with no loop to skip.
fn flat_trace(p: usize, iters: u64) -> Trace {
    let mut t = Trace::new(p);
    for _ in 0..iters {
        t.nodes.extend(iteration(p));
    }
    t
}

/// One iteration of the synthetic trace.
fn iteration(p: usize) -> Vec<TraceNode> {
    let recv = TraceNode::Event(Rsd {
        ranks: RankSet::all(p),
        sig: 1,
        op: OpTemplate::Recv {
            from: SrcParam::Any,
            tag: TagSel::Is(0),
            bytes: ValParam::Const(512),
            comm: CommParam::Const(0),
            blocking: false,
        },
        compute: TimeStats::new(),
    });
    let send = TraceNode::Event(Rsd {
        ranks: RankSet::all(p),
        sig: 2,
        op: OpTemplate::Send {
            to: RankParam::OffsetMod {
                offset: 1,
                modulus: p,
            },
            tag: 0,
            bytes: ValParam::Const(512),
            comm: CommParam::Const(0),
            blocking: false,
        },
        compute: TimeStats::new(),
    });
    let wait = TraceNode::Event(Rsd {
        ranks: RankSet::all(p),
        sig: 3,
        op: OpTemplate::Wait {
            count: ValParam::Const(2),
        },
        compute: TimeStats::new(),
    });
    // barrier from two call sites (per parity): needs Algorithm 1
    let evens = RankSet::from_ranks((0..p).step_by(2));
    let odds = RankSet::from_ranks((1..p).step_by(2));
    let barrier = |ranks: RankSet, sig: u64| {
        TraceNode::Event(Rsd {
            ranks,
            sig,
            op: OpTemplate::Coll {
                kind: CollKind::Barrier,
                root: None,
                bytes: ValParam::Const(0),
                comm: CommParam::Const(0),
            },
            compute: TimeStats::new(),
        })
    };
    vec![recv, send, wait, barrier(evens, 4), barrier(odds, 5)]
}

fn bench_alignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1_align");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    // sweep ranks at fixed events/rank
    for p in [8, 16, 32] {
        let trace = synthetic_trace(p, 25);
        g.bench_with_input(BenchmarkId::new("ranks", p), &trace, |b, t| {
            b.iter(|| align_collectives(t).expect("aligns"))
        });
    }
    // sweep events/rank at fixed ranks
    for iters in [10u64, 20, 40] {
        let trace = synthetic_trace(16, iters);
        g.bench_with_input(BenchmarkId::new("events", iters), &trace, |b, t| {
            b.iter(|| align_collectives(t).expect("aligns"))
        });
    }
    for iters in [10u64, 20, 40] {
        let trace = flat_trace(16, iters);
        g.bench_with_input(BenchmarkId::new("events_flat", iters), &trace, |b, t| {
            b.iter(|| align_collectives(t).expect("aligns"))
        });
    }
    g.finish();
}

fn bench_wildcards(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm2_wildcards");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for p in [8, 16, 32] {
        let trace = align_collectives(&synthetic_trace(p, 25)).expect("aligns");
        g.bench_with_input(BenchmarkId::new("ranks", p), &trace, |b, t| {
            b.iter(|| resolve_wildcards(t).expect("resolves"))
        });
    }
    for iters in [10u64, 20, 40] {
        let trace = align_collectives(&synthetic_trace(16, iters)).expect("aligns");
        g.bench_with_input(BenchmarkId::new("events", iters), &trace, |b, t| {
            b.iter(|| resolve_wildcards(t).expect("resolves"))
        });
    }
    // Unaligned: the alignment's output is folded into a loop again, and
    // Algorithm 2 completes a collective from per-parity call sites alike.
    for iters in [10u64, 20, 40] {
        let trace = flat_trace(16, iters);
        g.bench_with_input(BenchmarkId::new("events_flat", iters), &trace, |b, t| {
            b.iter(|| resolve_wildcards(t).expect("resolves"))
        });
    }
    g.finish();
}

fn bench_prechecks(c: &mut Criterion) {
    // the O(r) pre-checks must be orders of magnitude cheaper than the
    // O(p·e) algorithms they guard
    let trace = synthetic_trace(64, 100);
    c.bench_function("precheck_unaligned_collectives", |b| {
        b.iter(|| trace.has_unaligned_collectives())
    });
    c.bench_function("precheck_wildcards", |b| {
        b.iter(|| trace.has_wildcard_recv())
    });
}

criterion_group!(benches, bench_alignment, bench_wildcards, bench_prechecks);
criterion_main!(benches);
