//! Property-based tests for the trace layer's core invariants:
//! compression losslessness, rank-set algebra, parameter-table
//! reconstruction, serialisation round trips, and merge projection order.

use mpisim::time::SimDuration;
use proptest::prelude::*;
use scalatrace::compress::{append_compressed, compress_tail};
use scalatrace::cursor::{ConcreteOp, Cursor};
use scalatrace::merge::{
    merge_pair, merge_sequences, merge_sequences_degraded, merge_sequences_stats,
    merge_sequences_strategy, MergeStrategy,
};
use scalatrace::params::{compress_rank_table, CommParam, RankParam, ValParam};
use scalatrace::rankset::RankSet;
use scalatrace::text::to_text;
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{CommTable, OpTemplate, Rsd, Trace, TraceNode};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// RankSet
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn rankset_roundtrip(mut ranks in proptest::collection::vec(0usize..512, 0..64)) {
        let set = RankSet::from_ranks(ranks.iter().copied());
        ranks.sort_unstable();
        ranks.dedup();
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), ranks.clone());
        prop_assert_eq!(set.len(), ranks.len());
        for &r in &ranks {
            prop_assert!(set.contains(r));
        }
    }

    /// The binary decoders rebuild sets from stored runs: every set the
    /// crate builds must be accepted back as itself, and only inside a
    /// world that holds its largest member.
    #[test]
    fn rankset_runs_are_accepted_back_exactly_and_only_inside_the_world(
        ranks in proptest::collection::vec(0usize..512, 0..64),
    ) {
        let set = RankSet::from_ranks(ranks);
        let world = set.max_rank().map_or(0, |m| m + 1);
        prop_assert_eq!(RankSet::from_runs(set.runs().to_vec(), world), Ok(set.clone()));
        if world > 0 {
            prop_assert!(RankSet::from_runs(set.runs().to_vec(), world - 1).is_err());
        }
        // the same members split into other runs are not the same value
        if let Some(first) = set.runs().first().filter(|r| r.count > 2) {
            let mut split = set.runs().to_vec();
            split[0].count = 1;
            split[0].stride = 1;
            split.insert(1, scalatrace::rankset::Run {
                start: first.start + first.stride,
                stride: first.stride,
                count: first.count - 1,
            });
            prop_assert!(RankSet::from_runs(split, world).is_err());
        }
    }

    #[test]
    fn rankset_union_is_set_union(
        a in proptest::collection::btree_set(0usize..256, 0..40),
        b in proptest::collection::btree_set(0usize..256, 0..40),
    ) {
        let sa = RankSet::from_ranks(a.iter().copied());
        let sb = RankSet::from_ranks(b.iter().copied());
        let expected: BTreeSet<usize> = a.union(&b).copied().collect();
        let got: BTreeSet<usize> = sa.union(&sb).iter().collect();
        prop_assert_eq!(got, expected.clone());
        prop_assert_eq!(sa.intersects(&sb), a.intersection(&b).next().is_some());
    }

    #[test]
    fn rankset_compression_never_loses_strides(stride in 1usize..16, count in 1usize..64, start in 0usize..32) {
        let ranks: Vec<usize> = (0..count).map(|i| start + i * stride).collect();
        let set = RankSet::from_ranks(ranks.clone());
        prop_assert_eq!(set.run_count(), 1, "an arithmetic progression is one run");
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), ranks);
    }

    /// `intersect` against the `BTreeSet` model, including structural
    /// canonicality: the run-wise result must be byte-equal to building the
    /// same membership from scratch.
    #[test]
    fn rankset_intersect_is_set_intersection(
        a in proptest::collection::btree_set(0usize..256, 0..40),
        b in proptest::collection::btree_set(0usize..256, 0..40),
    ) {
        let sa = RankSet::from_ranks(a.iter().copied());
        let sb = RankSet::from_ranks(b.iter().copied());
        let expected: BTreeSet<usize> = a.intersection(&b).copied().collect();
        let got = sa.intersect(&sb);
        prop_assert_eq!(got.iter().collect::<BTreeSet<_>>(), expected.clone());
        prop_assert_eq!(got, RankSet::from_ranks(expected));
    }

    /// As above but on strided runs, where the run-wise CRT path (rather
    /// than the elementwise fallback) does the work.
    #[test]
    fn rankset_intersect_on_strided_runs(
        s1 in 0usize..8, t1 in 1usize..12, c1 in 1usize..40,
        s2 in 0usize..8, t2 in 1usize..12, c2 in 1usize..40,
    ) {
        let a: BTreeSet<usize> = (0..c1).map(|i| s1 + i * t1).collect();
        let b: BTreeSet<usize> = (0..c2).map(|i| s2 + i * t2).collect();
        let sa = RankSet::from_ranks(a.iter().copied());
        let sb = RankSet::from_ranks(b.iter().copied());
        let expected: BTreeSet<usize> = a.intersection(&b).copied().collect();
        let got = sa.intersect(&sb);
        prop_assert_eq!(got.iter().collect::<BTreeSet<_>>(), expected.clone());
        prop_assert_eq!(got, RankSet::from_ranks(expected));
    }

    /// `minus` against the `BTreeSet` model, with structural canonicality.
    #[test]
    fn rankset_minus_is_set_difference(
        a in proptest::collection::btree_set(0usize..256, 0..40),
        b in proptest::collection::btree_set(0usize..256, 0..40),
    ) {
        let sa = RankSet::from_ranks(a.iter().copied());
        let sb = RankSet::from_ranks(b.iter().copied());
        let expected: BTreeSet<usize> = a.difference(&b).copied().collect();
        let got = sa.minus(&sb);
        prop_assert_eq!(got.iter().collect::<BTreeSet<_>>(), expected.clone());
        prop_assert_eq!(got, RankSet::from_ranks(expected));
        // identities over the algebra
        prop_assert_eq!(sa.minus(&sa), RankSet::from_ranks([]));
        prop_assert_eq!(got.union(&sa.intersect(&sb)), sa);
    }

    /// `union_many` (the collapse-time rank union) against the model.
    #[test]
    fn rankset_union_many_is_set_union(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0usize..128, 0..24),
            0..8
        ),
    ) {
        let rs: Vec<RankSet> = sets
            .iter()
            .map(|s| RankSet::from_ranks(s.iter().copied()))
            .collect();
        let expected: BTreeSet<usize> = sets.iter().flatten().copied().collect();
        let got = RankSet::union_many(rs.iter());
        prop_assert_eq!(got.iter().collect::<BTreeSet<_>>(), expected.clone());
        prop_assert_eq!(got, RankSet::from_ranks(expected));
    }
}

// ---------------------------------------------------------------------------
// Parameter table compression
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum RankFn {
    Const(usize),
    Offset(i64),
    OffsetMod(i64),
    Xor(usize),
}

impl RankFn {
    fn eval(&self, r: usize, n: usize) -> usize {
        match *self {
            RankFn::Const(c) => c,
            RankFn::Offset(d) => (r as i64 + d).max(0) as usize,
            RankFn::OffsetMod(d) => ((r as i64 + d).rem_euclid(n as i64)) as usize,
            RankFn::Xor(m) => r ^ m,
        }
    }
}

fn arb_rank_fn() -> impl Strategy<Value = RankFn> {
    prop_oneof![
        (0usize..64).prop_map(RankFn::Const),
        (-8i64..8).prop_map(RankFn::Offset),
        (1i64..8).prop_map(RankFn::OffsetMod),
        (1usize..16).prop_map(RankFn::Xor),
    ]
}

proptest! {
    /// Whatever compressed form `compress_rank_table` chooses, evaluating it
    /// must reproduce the original table exactly.
    #[test]
    fn rank_param_compression_is_exact(
        f in arb_rank_fn(),
        n in 2usize..64,
    ) {
        let table: BTreeMap<usize, usize> = (0..n).map(|r| (r, f.eval(r, n))).collect();
        let param = compress_rank_table(table.clone(), n);
        for (&r, &v) in &table {
            prop_assert_eq!(param.eval(r), v, "form {:?} at rank {}", param, r);
        }
    }

    /// Unify over two disjoint partitions must agree with compressing the
    /// whole table at once, value-wise.
    #[test]
    fn rank_param_unify_agrees_with_whole_table(
        f in arb_rank_fn(),
        n in 4usize..64,
        split in 1usize..63,
    ) {
        let split = split.min(n - 1);
        let lo = RankSet::from_ranks(0..split);
        let hi = RankSet::from_ranks(split..n);
        let plo = compress_rank_table((0..split).map(|r| (r, f.eval(r, n))).collect(), n);
        let phi = compress_rank_table((split..n).map(|r| (r, f.eval(r, n))).collect(), n);
        let unified = RankParam::unify(&plo, &lo, &phi, &hi, n);
        for r in 0..n {
            prop_assert_eq!(unified.eval(r), f.eval(r, n));
        }
    }

    /// Unification must equal the fit of the pointwise table on arbitrary
    /// irregular rank tables, however the table is cut into parts, and the
    /// legacy dense table must compare and canonicalise to the same value
    /// (the byte-identity the encoders rely on).
    #[test]
    fn unify_matches_the_pointwise_table_on_arbitrary_tables(
        vals in proptest::collection::vec(0usize..48, 2..48),
        cuts in proptest::collection::vec(0usize..48, 0..6),
        world in 0usize..2,
    ) {
        let n = vals.len();
        let world = world * n; // 0 (no modulus) or the world size
        let table: BTreeMap<usize, usize> = vals.iter().copied().enumerate().collect();
        // cut the rank range into contiguous parts at the given points
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % n).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        let parts: Vec<(RankParam, RankSet)> = bounds
            .windows(2)
            .map(|w| {
                let sub: BTreeMap<usize, usize> =
                    (w[0]..w[1]).map(|r| (r, table[&r])).collect();
                let set = RankSet::from_ranks(w[0]..w[1]);
                (compress_rank_table(sub, world), set)
            })
            .collect();
        let sym = RankParam::unify_many(parts.iter().map(|(p, s)| (p, s)), world);
        for (&r, &v) in &table {
            prop_assert_eq!(sym.eval(r), v, "wrong at rank {}", r);
        }
        prop_assert_eq!(&sym, &compress_rank_table(table.clone(), world));
        if sym.as_fn().is_none() {
            let dense = RankParam::PerRank(table);
            prop_assert_eq!(sym.canonical(), dense.canonical());
            prop_assert_eq!(&sym, &dense, "Eq must reconcile the representations");
        }
    }

    /// Same differential for value parameters (sizes), including the
    /// closed-form mean used by v-variant collectives.
    #[test]
    fn val_unify_matches_the_pointwise_table(
        vals in proptest::collection::vec(0u64..64, 1..40),
    ) {
        let parts: Vec<(ValParam, RankSet)> = vals
            .iter()
            .enumerate()
            .map(|(r, &v)| (ValParam::Const(v), RankSet::single(r)))
            .collect();
        let sym = ValParam::unify_many(parts.iter().map(|(p, s)| (p, s)));
        let dense = if vals.iter().all(|&v| v == vals[0]) {
            ValParam::Const(vals[0])
        } else {
            ValParam::PerRank(vals.iter().copied().enumerate().collect())
        };
        let dom = RankSet::from_ranks(0..vals.len());
        for (r, &v) in vals.iter().enumerate() {
            prop_assert_eq!(sym.eval(r), v);
            prop_assert_eq!(dense.eval(r), v);
        }
        prop_assert_eq!(sym.canonical(), dense.canonical());
        prop_assert_eq!(sym.mean_over(&dom), dense.mean_over(&dom));
        prop_assert_eq!(sym.sum_over(&dom), dense.sum_over(&dom));
    }
}

// ---------------------------------------------------------------------------
// Compression losslessness
// ---------------------------------------------------------------------------

/// A small synthetic event: signature selects identity; everything else
/// fixed so folding depends only on the signature sequence.
fn ev(sig: u64) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::single(0),
        sig,
        op: OpTemplate::Wait {
            count: ValParam::Const(sig + 1),
        },
        compute: TimeStats::of(SimDuration::from_usecs(sig + 1)),
    })
}

proptest! {
    /// Tail compression must be lossless: the per-rank expansion of the
    /// compressed sequence equals the input event sequence.
    #[test]
    fn compression_is_lossless(
        sigs in proptest::collection::vec(0u64..4, 0..300),
        window in 1usize..16,
    ) {
        let mut seq = Vec::new();
        for &s in &sigs {
            append_compressed(&mut seq, ev(s), window);
        }
        let total: u64 = seq.iter().map(TraceNode::concrete_event_count).sum();
        prop_assert_eq!(total, sigs.len() as u64);
        // expand back via a cursor and compare the signature stream
        let expanded: Vec<u64> = Cursor::over(&seq, 0)
            .collect_all()
            .into_iter()
            .map(|e| e.sig)
            .collect();
        prop_assert_eq!(expanded, sigs);
    }

    /// compress_tail is idempotent.
    #[test]
    fn compression_is_idempotent(sigs in proptest::collection::vec(0u64..4, 0..200)) {
        let mut seq = Vec::new();
        for &s in &sigs {
            append_compressed(&mut seq, ev(s), 32);
        }
        let before = seq.clone();
        compress_tail(&mut seq, 32);
        prop_assert_eq!(seq, before);
    }

    /// Periodic inputs compress to O(period) nodes regardless of length.
    #[test]
    fn periodic_inputs_compress(period in 1usize..6, reps in 2usize..60) {
        let mut seq = Vec::new();
        for i in 0..period * reps {
            append_compressed(&mut seq, ev((i % period) as u64), 16);
        }
        let nodes: usize = seq.iter().map(TraceNode::node_count).sum();
        prop_assert!(
            nodes <= 2 * period + 2,
            "period {period} x {reps} gave {nodes} nodes"
        );
    }
}

// ---------------------------------------------------------------------------
// Differential folding: fingerprint index vs seed structural scan
// ---------------------------------------------------------------------------

/// An event over a small structural alphabet: signature and payload both
/// vary, so sequences contain near-miss windows (equal signatures,
/// different volumes) as well as true repeats.
fn alpha_ev(sig: u64, bytes: u64) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::single(0),
        sig,
        op: OpTemplate::Send {
            to: RankParam::Const(1),
            tag: 0,
            bytes: ValParam::Const(bytes * 64),
            comm: CommParam::Const(0),
            blocking: sig.is_multiple_of(2),
        },
        compute: TimeStats::of(SimDuration::from_usecs(sig + bytes)),
    })
}

fn fold_fingerprint(stream: &[TraceNode], window: usize) -> Vec<TraceNode> {
    let mut c = scalatrace::TailCompressor::new(window);
    for n in stream {
        c.push(n.clone());
    }
    c.into_nodes()
}

/// The reference: `compress::append_compressed`, the structural fold.
fn fold_structural(stream: &[TraceNode], window: usize) -> Vec<TraceNode> {
    let mut seq = Vec::new();
    for n in stream {
        scalatrace::compress::append_compressed(&mut seq, n.clone(), window);
    }
    seq
}

proptest! {
    /// The fingerprint-indexed compressor must produce byte-identical traces
    /// to the structural scan on arbitrary event sequences, and stay
    /// lossless.
    #[test]
    fn fingerprint_folding_matches_structural(
        stream in proptest::collection::vec((0u64..4, 1u64..4), 0..250),
        window in 1usize..257,
    ) {
        let nodes: Vec<TraceNode> =
            stream.iter().map(|&(s, b)| alpha_ev(s, b)).collect();
        let fp = fold_fingerprint(&nodes, window);
        let st = fold_structural(&nodes, window);
        prop_assert_eq!(&fp, &st);
        let expanded: Vec<u64> = Cursor::over(&fp, 0)
            .collect_all()
            .into_iter()
            .map(|e| e.sig)
            .collect();
        let expect: Vec<u64> = stream.iter().map(|&(s, _)| s).collect();
        prop_assert_eq!(expanded, expect);
    }

    /// Quasi-periodic drift streams — long repeated prefixes with one
    /// drifting parameter — are the structural scan's worst case and the
    /// fingerprint index's motivating pattern; both must still agree, at
    /// periods past the old window of 32 too.
    #[test]
    fn fingerprint_folding_matches_structural_under_drift(
        period in 2usize..101,
        reps in 2usize..20,
        drift_every in 1usize..5,
        window in 1usize..257,
    ) {
        let mut nodes = Vec::new();
        for p in 0..reps {
            for s in 0..period as u64 {
                nodes.push(alpha_ev(s, 1));
            }
            let bytes = if p % drift_every == 0 { 1_000 + p as u64 } else { 2 };
            nodes.push(alpha_ev(period as u64, bytes));
        }
        let fp = fold_fingerprint(&nodes, window);
        let st = fold_structural(&nodes, window);
        prop_assert_eq!(fp, st);
    }

    /// With every fingerprint forced to collide (the degraded all-zero
    /// mode), each window check becomes a hash hit — yet the structural
    /// confirmation must reject every unequal fold, so the output is still
    /// byte-identical to the structural scan. Collisions cost time, never
    /// correctness.
    #[test]
    fn forced_collisions_never_fold_unequal_nodes(
        stream in proptest::collection::vec((0u64..3, 1u64..3), 0..150),
        window in 1usize..257,
    ) {
        let nodes: Vec<TraceNode> =
            stream.iter().map(|&(s, b)| alpha_ev(s, b)).collect();
        let mut degraded = scalatrace::TailCompressor::degraded(window);
        for n in &nodes {
            degraded.push(n.clone());
        }
        let st = fold_structural(&nodes, window);
        prop_assert_eq!(degraded.into_nodes(), st);
    }
}

/// Streams with loops inside loops: a body of symbols from a three-letter
/// alphabet (with two volumes) and nested blocks, repeated, with now and
/// then one repetition broken by a changed or an extra symbol.
struct NestedPeriods;

impl NestedPeriods {
    fn block(rng: &mut TestRng, depth: u32, out: &mut Vec<(u64, u64)>) {
        let mut body = Vec::new();
        for _ in 0..1 + rng.below(4) {
            if depth > 0 && rng.below(3) == 0 {
                NestedPeriods::block(rng, depth - 1, &mut body);
            } else {
                body.push((rng.below(3), 1 + rng.below(2)));
            }
        }
        let reps = 1 + rng.below(6);
        let broken = (rng.below(3) == 0).then(|| rng.below(reps));
        for rep in 0..reps {
            let start = out.len();
            out.extend_from_slice(&body);
            if broken == Some(rep) {
                let at = start + rng.below(body.len() as u64) as usize;
                match rng.below(2) {
                    0 => out[at].0 = 3,
                    _ => out.insert(at, (rng.below(3), 3)),
                }
            }
        }
    }
}

impl Strategy for NestedPeriods {
    type Value = Vec<(u64, u64)>;

    fn generate(&self, rng: &mut TestRng) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for _ in 0..1 + rng.below(3) {
            NestedPeriods::block(rng, 3, &mut out);
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both compressors, fingerprints working and all colliding, fold
    /// nested periods with random breaks exactly as the structural scan
    /// does, at the smallest windows, a middling one and the default.
    #[test]
    fn compressors_match_structural_on_nested_periods(
        stream in NestedPeriods,
        window in prop_oneof![Just(1usize), Just(2), Just(3), Just(8), Just(256)],
    ) {
        let nodes: Vec<TraceNode> =
            stream.iter().map(|&(s, b)| alpha_ev(s, b)).collect();
        let st = fold_structural(&nodes, window);
        prop_assert_eq!(&fold_fingerprint(&nodes, window), &st);
        let mut degraded = scalatrace::TailCompressor::degraded(window);
        for n in &nodes {
            degraded.push(n.clone());
        }
        prop_assert_eq!(&degraded.into_nodes(), &st);
    }
}

// ---------------------------------------------------------------------------
// Inter-rank merge: per-rank projections are preserved
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn merge_preserves_per_rank_projections(
        // per-rank signature streams; same alphabet so merging happens
        streams in proptest::collection::vec(
            proptest::collection::vec(0u64..3, 0..40),
            1..6
        ),
    ) {
        let nranks = streams.len();
        let seqs: Vec<Vec<TraceNode>> = streams
            .iter()
            .enumerate()
            .map(|(rank, sigs)| {
                let mut seq = Vec::new();
                for &s in sigs {
                    let node = TraceNode::Event(Rsd {
                        ranks: RankSet::single(rank),
                        sig: s,
                        op: OpTemplate::Wait { count: ValParam::Const(s + 1) },
                        compute: TimeStats::new(),
                    });
                    append_compressed(&mut seq, node, 16);
                }
                seq
            })
            .collect();
        let merged = merge_sequences(seqs, nranks);
        let trace = Trace { nranks, nodes: merged, comms: CommTable::world(nranks) };
        for (rank, sigs) in streams.iter().enumerate() {
            let got: Vec<u64> = Cursor::new(&trace, rank)
                .collect_all()
                .into_iter()
                .map(|e| e.sig)
                .collect();
            prop_assert_eq!(&got, sigs, "rank {} projection changed", rank);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential merge: parallel tree reduce vs seed sequential pairing
// ---------------------------------------------------------------------------

/// The seed merge: level-by-level pair merges, strictly sequential and in
/// index order. The pool's tree reduce pairs levels identically, so every
/// width must reproduce this byte for byte.
fn seed_merge(mut level: Vec<Vec<TraceNode>>, world: usize) -> Vec<TraceNode> {
    while level.len() > 1 {
        let mut next = Vec::new();
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_pair(a, b, world)),
                None => next.push(a),
            }
        }
        level = next;
    }
    level.pop().unwrap_or_default()
}

/// Signature of the split [`rank_node`] emits; the other signatures send.
const SPLIT_SIG: u64 = 4;

/// A per-rank send whose volume depends on the rank, so cross-rank merging
/// exercises real parameter unification rather than trivial set unions —
/// or, at [`SPLIT_SIG`], a split of the world into `bytes` groups by rank
/// modulo, so ranks of one call site produce different communicators. Two
/// splits with different `bytes` differ on every rank, so every rank folds
/// a stream alike, as with the sends.
fn rank_node(rank: usize, sig: u64, bytes: u64, world: usize) -> TraceNode {
    let op = if sig == SPLIT_SIG {
        OpTemplate::CommSplit {
            parent: 0,
            result: CommParam::Const((4 * bytes + rank as u64 % bytes) as u32),
        }
    } else {
        OpTemplate::Send {
            to: RankParam::Const((rank + 1) % world),
            tag: 0,
            bytes: ValParam::Const(64 * bytes + rank as u64),
            comm: CommParam::Const(0),
            blocking: false,
        }
    };
    TraceNode::Event(Rsd {
        ranks: RankSet::single(rank),
        sig,
        op,
        compute: TimeStats::of(SimDuration::from_usecs(sig + 1)),
    })
}

/// Each rank's `(sig, op)` stream as a cursor reads it back from `nodes`.
fn projections(nodes: &[TraceNode], world: usize) -> Vec<Vec<(u64, ConcreteOp)>> {
    let trace = Trace {
        nranks: world,
        nodes: nodes.to_vec(),
        comms: CommTable::world(world),
    };
    (0..world)
        .map(|rank| {
            Cursor::new(&trace, rank)
                .collect_all()
                .into_iter()
                .map(|e| (e.sig, e.op))
                .collect()
        })
        .collect()
}

/// Build ragged per-rank folded sequences from per-rank `(sig, bytes)`
/// streams.
fn ragged_seqs(streams: &[Vec<(u64, u64)>]) -> Vec<Vec<TraceNode>> {
    let world = streams.len();
    streams
        .iter()
        .enumerate()
        .map(|(rank, evs)| {
            let mut seq = Vec::new();
            for &(s, b) in evs {
                append_compressed(&mut seq, rank_node(rank, s, b, world), 16);
            }
            seq
        })
        .collect()
}

proptest! {
    /// The seed pairwise strategy must be byte-identical across pool widths
    /// and to the seed sequential pairing, on ragged per-rank streams.
    #[test]
    fn pairwise_merge_is_pool_width_invariant(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 1u64..4), 0..32),
            1..10
        ),
    ) {
        let world = streams.len();
        let seqs = ragged_seqs(&streams);
        let seed = seed_merge(seqs.clone(), world);
        for threads in [1usize, 2, 8] {
            let got =
                merge_sequences_strategy(seqs.clone(), world, threads, MergeStrategy::Pairwise);
            prop_assert_eq!(&got, &seed, "pool width {} diverged from the seed merge", threads);
        }
    }

    /// The default class-collapsed strategy must be byte-identical across
    /// pool widths on arbitrary ragged streams, with identical phase
    /// counters (bucketing and reduction shape are width-invariant).
    #[test]
    fn class_collapse_is_pool_width_invariant(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 1u64..4), 0..32),
            1..10
        ),
    ) {
        let world = streams.len();
        let seqs = ragged_seqs(&streams);
        let (base, base_stats) =
            merge_sequences_stats(seqs.clone(), world, 1, MergeStrategy::ClassCollapsed);
        for threads in [2usize, 8] {
            let (got, stats) =
                merge_sequences_stats(seqs.clone(), world, threads, MergeStrategy::ClassCollapsed);
            prop_assert_eq!(&got, &base, "pool width {} diverged", threads);
            prop_assert_eq!(stats, base_stats, "stats diverged at width {}", threads);
        }
    }

    /// With exactly two ranks, the collapsed strategy is either one flat
    /// collapse (same shape class) or one anchored pair merge — and both
    /// must equal the seed `merge_pair` unconditionally, on arbitrary
    /// ragged streams. This pins the anchor-trimming rewrite against the
    /// seed DP including its tie-breaking.
    #[test]
    fn two_rank_collapse_matches_seed_pair(
        sa in proptest::collection::vec((0u64..4, 1u64..4), 0..32),
        sb in proptest::collection::vec((0u64..4, 1u64..4), 0..32),
    ) {
        let streams = vec![sa, sb];
        let seqs = ragged_seqs(&streams);
        let seed = merge_pair(seqs[0].clone(), seqs[1].clone(), 2);
        let got = merge_sequences_strategy(seqs, 2, 1, MergeStrategy::ClassCollapsed);
        prop_assert_eq!(got, seed);
    }

    /// SPMD single-class streams: collapse is byte-identical to the seed
    /// pairwise merge under any permutation of the input rank order, and
    /// finds exactly one class.
    #[test]
    fn spmd_collapse_matches_seed_under_permutation(
        program in proptest::collection::vec((0u64..4, 1u64..4), 0..32),
        world in 2usize..12,
        perm_seed in 0u64..1024,
    ) {
        let streams: Vec<Vec<(u64, u64)>> = vec![program; world];
        let seqs = ragged_seqs(&streams);
        let seed = seed_merge(seqs.clone(), world);
        // Fisher–Yates with a xorshift generator: any fixed permutation of
        // the per-rank sequences must not change the merged bytes.
        let mut perm: Vec<usize> = (0..world).collect();
        let mut x = perm_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        for i in (1..world).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let permuted: Vec<Vec<TraceNode>> = perm.iter().map(|&i| seqs[i].clone()).collect();
        let (got, stats) =
            merge_sequences_stats(permuted, world, 1, MergeStrategy::ClassCollapsed);
        prop_assert_eq!(&got, &seed);
        prop_assert_eq!(stats.classes, 1, "SPMD streams are one shape class");
        prop_assert_eq!(stats.rep_merges, 0);
    }

    /// A split whose result differs per rank does not part the ranks: SPMD
    /// streams with splits are still one class, collapse to the pairwise
    /// merge byte for byte, and every rank reads back its own result ids.
    #[test]
    fn spmd_splits_with_per_rank_results_collapse_like_pairwise(
        program in proptest::collection::vec((0u64..5, 1u64..4), 0..32),
        world in 2usize..12,
    ) {
        let streams: Vec<Vec<(u64, u64)>> = vec![program; world];
        let seqs = ragged_seqs(&streams);
        let pairwise =
            merge_sequences_strategy(seqs.clone(), world, 1, MergeStrategy::Pairwise);
        let (got, stats) =
            merge_sequences_stats(seqs.clone(), world, 1, MergeStrategy::ClassCollapsed);
        prop_assert_eq!(&got, &pairwise);
        prop_assert_eq!(stats.classes, 1, "SPMD streams are one shape class");
        let want: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(rank, seq)| projections(seq, world).swap_remove(rank))
            .collect();
        prop_assert_eq!(projections(&got, world), want);
    }

    /// On ragged streams with per-rank split results, the collapse keeps
    /// every rank's own events, in order.
    #[test]
    fn collapse_with_per_rank_splits_preserves_projections(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..5, 1u64..4), 0..32),
            1..10
        ),
    ) {
        let world = streams.len();
        let seqs = ragged_seqs(&streams);
        let got = merge_sequences_strategy(seqs.clone(), world, 1, MergeStrategy::ClassCollapsed);
        let want: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(rank, seq)| projections(seq, world).swap_remove(rank))
            .collect();
        prop_assert_eq!(projections(&got, world), want);
    }

    /// Forced digest collisions (every sequence hashes alike) must leave
    /// the merged bytes and the class structure unchanged — collisions cost
    /// confirms, never correctness.
    #[test]
    fn degraded_collapse_matches_normal(
        streams in proptest::collection::vec(
            proptest::collection::vec((0u64..4, 1u64..4), 0..32),
            1..10
        ),
    ) {
        let world = streams.len();
        let seqs = ragged_seqs(&streams);
        let (normal, nstats) =
            merge_sequences_stats(seqs.clone(), world, 1, MergeStrategy::ClassCollapsed);
        let (degraded, dstats) = merge_sequences_degraded(seqs, world, 1);
        prop_assert_eq!(&degraded, &normal);
        prop_assert_eq!(dstats.classes, nstats.classes);
        prop_assert_eq!(dstats.members, nstats.members);
    }

    /// Crash-truncated SPMD streams — the shape a seeded `FaultPlan` crash
    /// leaves behind, every rank holding a prefix of the same program —
    /// must collapse byte-identically to the seed pairwise merge, down to
    /// the rendered trace text.
    #[test]
    fn truncated_spmd_collapse_matches_seed(
        program in proptest::collection::vec((0u64..4, 1u64..4), 1..32),
        cuts in proptest::collection::vec(0usize..100, 2..10),
    ) {
        let world = cuts.len();
        let streams: Vec<Vec<(u64, u64)>> = vec![program; world];
        let seqs: Vec<Vec<TraceNode>> = ragged_seqs(&streams)
            .into_iter()
            .zip(&cuts)
            .map(|(seq, &c)| {
                let keep = c % (seq.len() + 1);
                seq.into_iter().take(keep).collect()
            })
            .collect();
        let seed = seed_merge(seqs.clone(), world);
        let got = merge_sequences_strategy(seqs, world, 1, MergeStrategy::ClassCollapsed);
        prop_assert_eq!(&got, &seed);
        let t_got = Trace { nranks: world, nodes: got, comms: CommTable::world(world) };
        let t_seed = Trace { nranks: world, nodes: seed, comms: CommTable::world(world) };
        prop_assert_eq!(to_text(&t_got), to_text(&t_seed));
    }
}

// ---------------------------------------------------------------------------
// Text serialisation round trip
// ---------------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = OpTemplate> {
    prop_oneof![
        ((0usize..8), (0i32..4), (1u64..10_000)).prop_map(|(to, tag, bytes)| OpTemplate::Send {
            to: RankParam::Const(to),
            tag,
            bytes: ValParam::Const(bytes),
            comm: CommParam::Const(0),
            blocking: to % 2 == 0,
        }),
        (1u64..5).prop_map(|c| OpTemplate::Wait {
            count: ValParam::Const(c)
        }),
        (-4i64..4).prop_map(|d| OpTemplate::Send {
            to: RankParam::Offset(d),
            tag: 0,
            bytes: ValParam::Const(64),
            comm: CommParam::Const(0),
            blocking: false,
        }),
    ]
}

proptest! {
    #[test]
    fn text_round_trip(ops in proptest::collection::vec((arb_op(), 0u64..1000), 1..30)) {
        let mut trace = Trace::new(8);
        for (op, sig) in ops {
            // a shifted peer only on the ranks it keeps inside the world:
            // the reader refuses anything else
            let ranks = match &op {
                OpTemplate::Send { to: RankParam::Offset(d), .. } => {
                    RankSet::from_ranks((0..8).filter(|&r| (0..8).contains(&(r as i64 + d))))
                }
                _ => RankSet::all(8),
            };
            trace.nodes.push(TraceNode::Event(Rsd {
                ranks,
                sig,
                op,
                compute: TimeStats::of(SimDuration::from_nanos(sig)),
            }));
        }
        let text = scalatrace::text::to_text(&trace);
        let back = scalatrace::text::from_text(&text).expect("parses");
        prop_assert_eq!(back.nranks, trace.nranks);
        prop_assert_eq!(back.concrete_event_count(), trace.concrete_event_count());
        scalatrace::semantically_equal(&trace, &back).expect("semantic equality");
    }
}

// ---------------------------------------------------------------------------
// Parser robustness: from_text must never panic, whatever the input
// ---------------------------------------------------------------------------

/// A trace exercising every line shape the text format has — comm lines,
/// nested loops, every op tag, wildcards, per-rank tables — so mutations of
/// its rendering reach every branch of the parser.
fn fuzz_base_text() -> String {
    use mpisim::types::CollKind;
    let mut trace = Trace::new(4);
    trace.comms.insert(7, vec![0, 2]);
    let ev = |sig: u64, op: OpTemplate| {
        TraceNode::Event(Rsd {
            ranks: RankSet::from_ranks(0..4),
            sig,
            op,
            compute: TimeStats::of(SimDuration::from_nanos(sig * 3 + 1)),
        })
    };
    let body = vec![
        ev(
            1,
            OpTemplate::Send {
                to: RankParam::OffsetMod {
                    offset: 1,
                    modulus: 4,
                },
                tag: 3,
                bytes: ValParam::PerRank((0..4).map(|r| (r, 64 * r as u64)).collect()),
                comm: CommParam::Const(0),
                blocking: false,
            },
        ),
        ev(
            2,
            OpTemplate::Recv {
                from: scalatrace::params::SrcParam::Any,
                tag: mpisim::types::TagSel::Any,
                bytes: ValParam::Const(256),
                comm: CommParam::PerRank((0..4).map(|r| (r, (r % 2) as u32 * 7)).collect()),
                blocking: true,
            },
        ),
        ev(
            3,
            OpTemplate::Wait {
                count: ValParam::Const(2),
            },
        ),
    ];
    trace
        .nodes
        .push(TraceNode::Loop(scalatrace::trace::Prsd { count: 10, body }));
    trace.nodes.push(ev(
        4,
        OpTemplate::Coll {
            kind: CollKind::Allreduce,
            root: Some(RankParam::Xor(1)),
            bytes: ValParam::Const(64),
            comm: CommParam::Const(7),
        },
    ));
    trace.nodes.push(ev(
        5,
        OpTemplate::CommSplit {
            parent: 0,
            result: CommParam::Const(7),
        },
    ));
    to_text(&trace)
}

proptest! {
    /// Fuzz: arbitrary byte flips plus a truncation applied to a valid
    /// trace rendering. The parser must always return (Ok or Err) — a panic
    /// fails the property — and must do so fast even when the mutation
    /// fabricates absurd counts.
    #[test]
    fn from_text_survives_mutated_trace_text(
        flips in proptest::collection::vec((0usize..100_000, 0u8..=255), 0..8),
        cut in 0usize..100_000,
    ) {
        let mut bytes = fuzz_base_text().into_bytes();
        for &(pos, val) in &flips {
            let i = pos % bytes.len();
            bytes[i] = val;
        }
        let keep = cut % (bytes.len() + 1);
        bytes.truncate(keep);
        let s = String::from_utf8_lossy(&bytes);
        let _ = scalatrace::text::from_text(&s);
    }

    /// Fuzz: completely arbitrary unicode input.
    #[test]
    fn from_text_survives_arbitrary_input(s in "\\PC*") {
        let _ = scalatrace::text::from_text(&s);
    }

    /// Valid renderings of synthetic traces keep parsing after the
    /// hardening (no behavioural regression from the unwrap sweep).
    #[test]
    fn hardened_parser_still_accepts_valid_traces(
        sigs in proptest::collection::vec(0u64..6, 1..40),
    ) {
        let mut trace = Trace::new(4);
        for &s in &sigs {
            trace.nodes.push(TraceNode::Event(Rsd {
                ranks: RankSet::from_ranks(0..4),
                sig: s,
                op: OpTemplate::Wait { count: ValParam::Const(s + 1) },
                compute: TimeStats::of(SimDuration::from_nanos(s)),
            }));
        }
        let text = to_text(&trace);
        let back = scalatrace::text::from_text(&text).expect("valid text parses");
        prop_assert_eq!(to_text(&back), text);
    }
}

/// Directed adversarial inputs aimed at the previously panicking or
/// unbounded sites: empty/multibyte tag fields, overflowing rank runs,
/// materialisation bombs, and absurd histogram counts. All must return
/// promptly — `Err` for the malformed ones, `Ok` in O(1) for the absurd
/// count, never a panic or an eternity.
#[test]
fn adversarial_trace_text_is_rejected_structurally() {
    let must_err = [
        // empty field where a tagged value is expected (split_at(1) panic)
        "trace nranks=2\nev sig=1 ranks=0:1:1 op=wait count= t=1x1\n",
        // multibyte first char in a tag position (split_at(1) UTF-8 panic)
        "trace nranks=2\nev sig=1 ranks=0:1:1 op=send to=\u{e9}3 tag=0 bytes=c1 comm=c0 t=1x1\n",
        "trace nranks=2\nev sig=1 ranks=0:1:1 op=wait count=\u{1F600} t=1x1\n",
        // rank run arithmetic overflow
        "trace nranks=2\nev sig=1 ranks=18446744073709551615:2:3 op=wait count=c1 t=1x1\n",
        "trace nranks=2\nev sig=1 ranks=2:18446744073709551615:3 op=wait count=c1 t=1x1\n",
        // rank materialisation bomb
        "trace nranks=2\nev sig=1 ranks=0:1:18446744073709551615 op=wait count=c1 t=1x1\n",
        // implausible world size (allocation bomb in Trace::new)
        "trace nranks=18446744073709551615\n",
        "trace nranks=999999999999\n",
        // malformed comm lines
        "trace nranks=2\ncomm 5\n",
        "trace nranks=2\ncomm x 0,1\n",
        // structural garbage that previously hit unwraps
        "trace nranks=2\n}\n",
        "trace nranks=2\nloop 3 {\n",
    ];
    for s in must_err {
        assert!(
            scalatrace::text::from_text(s).is_err(),
            "must reject: {s:?}"
        );
    }
    // An absurd histogram count is *valid* data — but must decode in O(1),
    // not by recording 2^64 samples one at a time.
    let t0 = std::time::Instant::now();
    let huge = scalatrace::text::from_text(
        "trace nranks=2\nev sig=1 ranks=0:1:2 op=wait count=c1 t=18446744073709551615x5\n",
    )
    .expect("huge count is well-formed");
    assert_eq!(huge.nodes.len(), 1);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "histogram decode must not loop over the count"
    );
}

// ---------------------------------------------------------------------------
// TimeStats
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn timestats_merge_matches_pooled(
        a in proptest::collection::vec(0u64..1_000_000, 1..50),
        b in proptest::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let mut sa = TimeStats::new();
        for &x in &a { sa.record(SimDuration::from_nanos(x)); }
        let mut sb = TimeStats::new();
        for &x in &b { sb.record(SimDuration::from_nanos(x)); }
        let mut pooled = TimeStats::new();
        for &x in a.iter().chain(&b) { pooled.record(SimDuration::from_nanos(x)); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), pooled.count());
        prop_assert_eq!(sa.mean(), pooled.mean());
        prop_assert_eq!(sa.min(), pooled.min());
        prop_assert_eq!(sa.max(), pooled.max());
        prop_assert_eq!(sa.bins(), pooled.bins());
    }
}

/// The dense reference histogram — 64 bins inline — the oracle the sparse
/// [`TimeStats`] must be indistinguishable from.
#[derive(Clone, PartialEq, Debug)]
struct DenseStats {
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
    bins: [u64; 64],
}

impl DenseStats {
    fn new() -> DenseStats {
        DenseStats {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            bins: [0; 64],
        }
    }

    fn record_n(&mut self, n: u64, ns: u64) {
        if n == 0 {
            return;
        }
        let bin = if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros() as usize).min(63)
        };
        self.count += n;
        self.sum_ns += ns as u128 * n as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.bins[bin] += n;
    }

    fn merge(&mut self, other: &DenseStats) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }

    fn median_approx(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen * 2 >= self.count {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    1
                } else {
                    (1u64 << i).saturating_sub(1)
                };
                return lo + (hi - lo) / 2;
            }
        }
        self.max_ns
    }

    fn sample_at(&self, u: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let mut ordinal = u % self.count;
        for (i, &c) in self.bins.iter().enumerate() {
            if ordinal < c {
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return lo + (hi - lo) / 2;
            }
            ordinal -= c;
        }
        self.mean()
    }

    /// The v1 on-disk statistics record: four scalars, then 64 fixed-width
    /// bins.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.sum_ns.to_le_bytes());
        out.extend_from_slice(&self.min_ns.to_le_bytes());
        out.extend_from_slice(&self.max_ns.to_le_bytes());
        for b in self.bins {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }
}

/// The STBS v1 file of a one-event trace — rank 0 of 1 issuing `wait 1`
/// from call site 1 — around a v1 statistics record, assembled by hand: v1
/// wrote every integer little-endian at full width.
fn v1_frame_around(record: &[u8]) -> Vec<u8> {
    let mut out = b"STBS".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes()); // version
    out.push(0); // kind: whole trace
    let u64s = |out: &mut Vec<u8>, vs: &[u64]| {
        for v in vs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    u64s(&mut out, &[1, 1]); // nranks, one communicator:
    out.extend_from_slice(&0u32.to_le_bytes()); // the world,
    u64s(&mut out, &[1, 0]); // of one member, rank 0
    u64s(&mut out, &[1]); // one node:
    out.push(0); // an event
    u64s(&mut out, &[1, 0, 1, 1]); // on one run, 0:1:1,
    u64s(&mut out, &[1]); // with signature 1,
    out.extend_from_slice(&[2, 1]); // a wait whose count is the constant
    u64s(&mut out, &[1]); // 1,
    out.extend_from_slice(record); // and its compute-time statistics
    let mut h = mpisim::types::Fnv1a::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

#[derive(Clone, Debug)]
enum StatsOp {
    Record(u64),
    RecordN(u64, u64),
    /// Pool in a second histogram holding these samples.
    Merge(Vec<u64>),
    /// Replace the histogram by `from_raw(raw())`.
    Rebuild,
}

/// Durations over nine bins (0, 63 and seven in between), so a handful of
/// operations crosses the three-bin inline capacity in either direction of
/// a merge.
fn stats_sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u32..7, 0u64..3).prop_map(|(k, jitter)| (3u64 << (k * 8)) + jitter),
        Just(0u64),
        Just(u64::MAX),
    ]
}

fn stats_op() -> impl Strategy<Value = StatsOp> {
    prop_oneof![
        stats_sample().prop_map(StatsOp::Record),
        stats_sample().prop_map(StatsOp::Record),
        (0u64..5, stats_sample()).prop_map(|(n, ns)| StatsOp::RecordN(n, ns)),
        proptest::collection::vec(stats_sample(), 0..6).prop_map(StatsOp::Merge),
        Just(StatsOp::Rebuild),
    ]
}

fn rebuilt(t: &TimeStats) -> TimeStats {
    let (count, sum_ns, min_ns, max_ns, bins) = t.raw();
    TimeStats::from_raw(count, sum_ns, min_ns, max_ns, bins)
}

fn stats_of(samples: &[u64]) -> (TimeStats, DenseStats) {
    let (mut t, mut d) = (TimeStats::new(), DenseStats::new());
    for &ns in samples {
        t.record(SimDuration::from_nanos(ns));
        d.record_n(1, ns);
    }
    (t, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sparse_timestats_is_indistinguishable_from_the_dense_histogram(
        ops in proptest::collection::vec(stats_op(), 0..14),
        us in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        let (mut t, mut d) = (TimeStats::new(), DenseStats::new());
        for op in &ops {
            match op {
                StatsOp::Record(ns) => {
                    t.record(SimDuration::from_nanos(*ns));
                    d.record_n(1, *ns);
                }
                StatsOp::RecordN(n, ns) => {
                    t.record_n(*n, SimDuration::from_nanos(*ns));
                    d.record_n(*n, *ns);
                }
                StatsOp::Merge(samples) => {
                    let (ot, od) = stats_of(samples);
                    t.merge(&ot);
                    d.merge(&od);
                }
                StatsOp::Rebuild => t = rebuilt(&t),
            }
            // every observable, after every step
            prop_assert_eq!(t.count(), d.count);
            prop_assert_eq!(t.total().as_nanos(), d.sum_ns.min(u64::MAX as u128) as u64);
            prop_assert_eq!(t.min().as_nanos(), d.min());
            prop_assert_eq!(t.max().as_nanos(), d.max_ns);
            prop_assert_eq!(t.mean().as_nanos(), d.mean());
            prop_assert_eq!(t.median_approx().as_nanos(), d.median_approx());
            prop_assert_eq!(t.is_constant(), d.count == 0 || d.min_ns == d.max_ns);
            for &u in &us {
                prop_assert_eq!(t.sample_at(u).as_nanos(), d.sample_at(u));
            }
            prop_assert_eq!(t.bins(), d.bins);
            let dense_pairs = d.bins.iter().copied().enumerate().filter(|&(_, c)| c != 0);
            prop_assert!(t.non_empty_bins().eq(dense_pairs));
        }

        // the same samples through another history: operations in reverse
        // order, every merge taken from the other side
        let mut back = TimeStats::new();
        for op in ops.iter().rev() {
            match op {
                StatsOp::Record(ns) => back.record(SimDuration::from_nanos(*ns)),
                StatsOp::RecordN(n, ns) => back.record_n(*n, SimDuration::from_nanos(*ns)),
                StatsOp::Merge(samples) => {
                    let (mut ot, _) = stats_of(samples);
                    ot.merge(&back);
                    back = ot;
                }
                StatsOp::Rebuild => back = rebuilt(&back),
            }
        }
        prop_assert_eq!(&back, &t);
        // ... and with no history at all, straight from the dense fields
        let direct = TimeStats::from_raw(
            d.count, d.sum_ns, d.min_ns, d.max_ns, d.bins.iter().copied().enumerate(),
        );
        prop_assert_eq!(&direct, &t);

        // on disk: the v2 record round-trips both the inline and the
        // spilled form, byte-identically ...
        let trace = Trace {
            nranks: 1,
            nodes: vec![TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig: 1,
                op: OpTemplate::Wait { count: ValParam::Const(1) },
                compute: t.clone(),
            })],
            comms: CommTable::world(1),
        };
        let bytes = scalatrace::stream::trace_to_bytes(&trace);
        let back = scalatrace::stream::trace_from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(scalatrace::stream::trace_to_bytes(&back), bytes);
        // ... and the v1 record of the dense histogram, which nothing
        // writes any more, still decodes to the same statistics
        let v1 = v1_frame_around(&d.encoded());
        prop_assert_eq!(scalatrace::stream::trace_from_bytes(&v1).unwrap(), trace);
    }
}
