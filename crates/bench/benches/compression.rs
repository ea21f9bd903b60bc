//! Ablation for DESIGN.md decision 2: the on-the-fly tail-compression
//! window. Larger windows discover longer loop bodies. The structural fold
//! pays for them per append; the capture's indexed `TailCompressor` visits
//! only the widths a fold could succeed at and does not. This bench
//! measures both at each window, plus the binary-tree inter-rank merge cost
//! (decision 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpisim::time::SimDuration;
use scalatrace::compress::append_compressed;
use scalatrace::merge::merge_sequences;
use scalatrace::params::{CommParam, RankParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Rsd, TraceNode};
use scalatrace::TailCompressor;

fn event(sig: u64, rank: usize) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::single(rank),
        sig,
        op: OpTemplate::Send {
            to: RankParam::Const((rank + 1) % 64),
            tag: 0,
            bytes: ValParam::Const(1024),
            comm: CommParam::Const(0),
            blocking: false,
        },
        compute: TimeStats::of(SimDuration::from_usecs(10)),
    })
}

/// Period-`period` event stream of `n` events.
fn stream(n: usize, period: u64) -> Vec<TraceNode> {
    (0..n).map(|i| event(i as u64 % period, 0)).collect()
}

fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression_window");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for window in [4usize, 8, 16, 32, 64, 256] {
        g.bench_with_input(BenchmarkId::new("structural", window), &window, |b, &w| {
            b.iter(|| {
                let mut seq = Vec::new();
                for ev in stream(5_000, 6) {
                    append_compressed(&mut seq, ev, w);
                }
                seq.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("indexed", window), &window, |b, &w| {
            b.iter(|| {
                let mut c = TailCompressor::new(w);
                for ev in stream(5_000, 6) {
                    c.push(ev);
                }
                c.nodes().len()
            })
        });
    }
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("inter_rank_merge");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(2));
    for p in [8usize, 16, 32, 64] {
        // identical compressed per-rank sequences: the SPMD common case
        let seqs: Vec<Vec<TraceNode>> = (0..p)
            .map(|r| {
                let mut seq = Vec::new();
                for i in 0..200u64 {
                    append_compressed(&mut seq, event(i % 5, r), 32);
                }
                seq
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(p), &seqs, |b, s| {
            b.iter(|| merge_sequences(s.clone(), 128).len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_window, bench_merge);
criterion_main!(benches);
