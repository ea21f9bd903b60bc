//! Inter-rank trace merging.
//!
//! "The local traces are combined into a single global trace upon
//! application completion. This inter-node compression detects similarities
//! among the per-node traces and merges the RSDs by combining their lists
//! of participating nodes." (paper §3.1)
//!
//! The merge is a binary reduction over the per-rank sequences (O(log p)
//! depth, as in ScalaTrace's radix merge). One pairwise step aligns two
//! sequences with an LCS over the *mergeable* relation — same call-site
//! signature and op shape, parameters unifiable — and merges matched nodes
//! by taking the union of their rank sets and unifying parameters
//! ([`crate::params`]). Unmatched nodes are interleaved, which preserves
//! the per-rank projection order (each rank only appears on one side).
//!
//! The reduction runs on the shared [`par`] pool: pairs within one tree
//! level are independent and merge concurrently, while the combine order is
//! fixed — level `k` always pairs `(0,1), (2,3), …` — so the merged trace is
//! identical for every thread count, and `threads = 1` takes the exact
//! sequential code path. Node payloads are thread-safe by construction:
//! [`crate::rankset::RankSet`] arenas are `Arc`-interned behind `OnceLock`
//! tables, and timing histograms are owned per node.
//!
//! # Class-collapsed merging
//!
//! The pairwise tree costs O(P) LCS merges even when — the SPMD common
//! case — most ranks' folded sequences are *identical up to rank-set
//! parameters*. The default [`MergeStrategy::ClassCollapsed`] strategy
//! exploits that: rank sequences are bucketed into equivalence classes by a
//! whole-sequence shape digest ([`crate::fingerprint::SeqDigest`]), every
//! digest hit is confirmed structurally against the class representative
//! (collision-safe, like the compressor's fingerprint fast path), each
//! class is collapsed *flat* — rank sets unioned through the strided-run
//! arena, parameters unified over the full member table, timing histograms
//! pooled — and only one representative per class enters the LCS tree
//! reduce: O(classes · log classes) pair merges instead of O(P). The
//! remaining cross-class pair merges trim the common mergeable
//! prefix/suffix anchors before the quadratic DP, so they pay only for
//! where sequences actually diverge.
//!
//! Flat class collapse is byte-identical to folding the members through
//! the pairwise tree: parameter unification expands to explicit rank
//! tables and recompresses exactly (so any association yields the
//! compression of the full table), timing-histogram merging is associative
//! and commutative, and rank-set union always recanonicalises. Cross-class
//! *ordering* can differ from the seed tree on inputs whose distinct
//! behaviors interleave in crossing patterns — the collapsed result is the
//! better-compressed one — so [`MergeStrategy::Pairwise`] keeps the seed
//! path selectable, and per-rank projections, virtual times, and profiles
//! are preserved by both (see DESIGN.md §15). Callers of the sequence-level
//! API must supply sequences over pairwise-disjoint rank sets (the tracer
//! invariant: each rank records exactly one sequence).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::collect::Tracer;
use crate::fingerprint::{shape_fp, SeqDigest};
use crate::params::{CommParam, RankParam, SrcParam, ValParam};
use crate::rankset::RankSet;
use crate::trace::{same_op_shape, CommTable, OpTemplate, Prsd, Rsd, Trace, TraceNode};

/// Which inter-rank merge algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MergeStrategy {
    /// Bucket ranks into shape-equivalence classes (digest-keyed with a
    /// structural confirm on every hit), collapse each class flat, and
    /// tree-reduce one representative per class with anchor-trimmed LCS
    /// merges. Merge cost scales with *distinct behaviors*, not P.
    #[default]
    ClassCollapsed,
    /// The seed path: a pairwise LCS tree reduce over all P sequences.
    /// Kept selectable as the differential baseline and perf A/B leg.
    Pairwise,
}

/// Phase counters of one class-collapsed merge, for perf-report telemetry.
/// All counts are totals over the whole reduction (nested class collapses
/// included), accumulated across pool workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Input sequences bucketed at the top level.
    pub members: u64,
    /// Distinct shape-equivalence classes found (= representatives reduced).
    pub classes: u64,
    /// Digest hits the structural confirm rejected (true collisions).
    pub collisions: u64,
    /// Cross-class pair merges run by the representative tree reduce.
    pub rep_merges: u64,
    /// Pair merges whose sequences zipped diagonally with no DP at all.
    pub zip_merges: u64,
    /// LCS DP cells filled after anchor trimming.
    pub lcs_cells: u64,
    /// Node pairs the prefix/suffix anchors trimmed away from the DP.
    pub anchor_trimmed: u64,
    /// Total nodes entering cross-class pair merges (denominator for the
    /// anchor-trim hit rate).
    pub pair_nodes: u64,
}

/// Atomic accumulator behind [`MergeStats`]: pair merges run concurrently
/// on the pool, so counters are relaxed atomics snapshotted at the end.
#[derive(Default)]
struct Counters {
    members: AtomicU64,
    classes: AtomicU64,
    collisions: AtomicU64,
    rep_merges: AtomicU64,
    zip_merges: AtomicU64,
    lcs_cells: AtomicU64,
    anchor_trimmed: AtomicU64,
    pair_nodes: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> MergeStats {
        MergeStats {
            members: self.members.load(Relaxed),
            classes: self.classes.load(Relaxed),
            collisions: self.collisions.load(Relaxed),
            rep_merges: self.rep_merges.load(Relaxed),
            zip_merges: self.zip_merges.load(Relaxed),
            lcs_cells: self.lcs_cells.load(Relaxed),
            anchor_trimmed: self.anchor_trimmed.load(Relaxed),
            pair_nodes: self.pair_nodes.load(Relaxed),
        }
    }
}

/// Merge all per-rank tracers into a global trace under the default
/// [`MergeStrategy::ClassCollapsed`] strategy.
pub fn merge_tracers(tracers: Vec<Tracer>) -> Trace {
    assert!(!tracers.is_empty());
    let nranks = tracers[0].nranks();
    let mut comms = CommTable::world(nranks);
    let mut seqs: Vec<Vec<TraceNode>> = Vec::with_capacity(tracers.len());
    for t in tracers {
        let (seq, c) = t.into_parts();
        comms.absorb(c);
        seqs.push(seq);
    }
    let nodes = merge_sequences(seqs, nranks);
    Trace {
        nranks,
        nodes,
        comms,
    }
}

/// Merge many per-rank sequences on [`par::threads`] workers with the
/// default strategy.
pub fn merge_sequences(seqs: Vec<Vec<TraceNode>>, world: usize) -> Vec<TraceNode> {
    merge_sequences_with(seqs, world, par::threads())
}

/// Merge with an explicit thread count (default strategy).
///
/// The reduction order is fixed regardless of `threads` (see
/// [`par::tree_reduce`]), so the output is identical for any value;
/// `threads = 1` runs sequentially on the caller's stack.
pub fn merge_sequences_with(
    seqs: Vec<Vec<TraceNode>>,
    world: usize,
    threads: usize,
) -> Vec<TraceNode> {
    merge_sequences_strategy(seqs, world, threads, MergeStrategy::default())
}

/// Merge with an explicit thread count and strategy.
pub fn merge_sequences_strategy(
    seqs: Vec<Vec<TraceNode>>,
    world: usize,
    threads: usize,
    strategy: MergeStrategy,
) -> Vec<TraceNode> {
    merge_sequences_stats(seqs, world, threads, strategy).0
}

/// Merge with phase counters. The counters are only populated by
/// [`MergeStrategy::ClassCollapsed`]; the pairwise path returns zeroed
/// stats (there are no classes to count).
pub fn merge_sequences_stats(
    seqs: Vec<Vec<TraceNode>>,
    world: usize,
    threads: usize,
    strategy: MergeStrategy,
) -> (Vec<TraceNode>, MergeStats) {
    match strategy {
        MergeStrategy::Pairwise => {
            let out =
                par::tree_reduce(threads, seqs, |a, b| merge_pair(a, b, world)).unwrap_or_default();
            (out, MergeStats::default())
        }
        MergeStrategy::ClassCollapsed => {
            let counters = Counters::default();
            let out = merge_collapsed(seqs, world, threads, &seq_digest_of, &counters);
            (out, counters.snapshot())
        }
    }
}

/// Degraded test hook: class-collapsed merging with every sequence digest
/// forced to the same value, so every bucket probe is a hash hit and class
/// formation rests entirely on the structural confirm. Mirrors
/// [`crate::compress::TailCompressor::degraded`]: collisions must cost
/// comparisons, never correctness.
#[doc(hidden)]
pub fn merge_sequences_degraded(
    seqs: Vec<Vec<TraceNode>>,
    world: usize,
    threads: usize,
) -> (Vec<TraceNode>, MergeStats) {
    let counters = Counters::default();
    let out = merge_collapsed(seqs, world, threads, &|_| 0, &counters);
    (out, counters.snapshot())
}

/// The production sequence digest: incremental shape digest over the nodes.
fn seq_digest_of(seq: &[TraceNode]) -> u64 {
    let mut d = SeqDigest::new();
    for n in seq {
        d.push(n);
    }
    d.finish()
}

/// Whole sequences are shape-equivalent (position-wise [`mergeable`]).
fn seqs_mergeable(a: &[TraceNode], b: &[TraceNode]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| mergeable(p, q))
}

/// The class-collapsed merge: digest → bucket (structural confirm on every
/// hit) → flat per-class collapse → anchor-trimmed LCS reduce over one
/// representative per class.
fn merge_collapsed<F>(
    seqs: Vec<Vec<TraceNode>>,
    world: usize,
    threads: usize,
    fp_of: &F,
    counters: &Counters,
) -> Vec<TraceNode>
where
    F: Fn(&[TraceNode]) -> u64 + Sync,
{
    counters.members.fetch_add(seqs.len() as u64, Relaxed);
    if seqs.len() <= 1 {
        counters.classes.fetch_add(seqs.len() as u64, Relaxed);
        return seqs.into_iter().next().unwrap_or_default();
    }
    // Digest every sequence (index-parallel; the digest is read-only).
    let digests: Vec<u64> = par::par_map_indexed(threads, seqs.len(), |i| fp_of(&seqs[i]));
    // Bucket into classes in input order. A digest hit is only a candidate:
    // the structural confirm against the class representative decides, so a
    // colliding digest costs one extra comparison, never correctness. The
    // confirm also checks rank-disjointness against the representative —
    // full pairwise disjointness is the documented input precondition.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &d) in digests.iter().enumerate() {
        let bucket = buckets.entry(d).or_default();
        let mut placed = false;
        for &c in bucket.iter() {
            if seqs_mergeable(&seqs[classes[c][0]], &seqs[i]) {
                classes[c].push(i);
                placed = true;
                break;
            }
            counters.collisions.fetch_add(1, Relaxed);
        }
        if !placed {
            bucket.push(classes.len());
            classes.push(vec![i]);
        }
    }
    counters.classes.fetch_add(classes.len() as u64, Relaxed);
    // Collapse each class flat. Classes are independent, so they collapse
    // in parallel; within a class the fold order is member (= rank) order,
    // which the exact-recompression argument makes association-invariant.
    let mut slots: Vec<Option<Vec<TraceNode>>> = seqs.into_iter().map(Some).collect();
    let class_inputs: Vec<Vec<Vec<TraceNode>>> = classes
        .iter()
        .map(|members| members.iter().map(|&i| slots[i].take().unwrap()).collect())
        .collect();
    drop(slots);
    let reps: Vec<Vec<TraceNode>> = par::par_map(threads, class_inputs, |members| {
        collapse_class(members, world)
    });
    // Cross-class reduce, first-seen class order, anchor-trimmed LCS pairs.
    par::tree_reduce(threads, reps, |a, b| {
        counters.rep_merges.fetch_add(1, Relaxed);
        merge_pair_anchored(a, b, world, counters)
    })
    .unwrap_or_default()
}

/// Collapse one shape-equivalence class flat: every member has the same
/// node shape at every position, so each position merges without any
/// alignment search — rank sets union through the strided-run arena,
/// parameters unify over the full member table in one pass, timing
/// histograms pool in member order.
fn collapse_class(members: Vec<Vec<TraceNode>>, world: usize) -> Vec<TraceNode> {
    if members.len() == 1 {
        return members.into_iter().next().unwrap();
    }
    let len = members[0].len();
    let mut iters: Vec<std::vec::IntoIter<TraceNode>> =
        members.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let column: Vec<TraceNode> = iters.iter_mut().map(|it| it.next().unwrap()).collect();
        out.push(collapse_nodes(column, world));
    }
    out
}

/// Collapse one same-shape column of nodes (one per class member).
fn collapse_nodes(column: Vec<TraceNode>, world: usize) -> TraceNode {
    match &column[0] {
        TraceNode::Event(_) => {
            let rsds: Vec<Rsd> = column
                .into_iter()
                .map(|n| match n {
                    TraceNode::Event(r) => r,
                    TraceNode::Loop(_) => unreachable!("class confirm checked shapes"),
                })
                .collect();
            TraceNode::Event(collapse_rsds(rsds, world))
        }
        TraceNode::Loop(_) => {
            let mut count = 0;
            let bodies: Vec<Vec<TraceNode>> = column
                .into_iter()
                .map(|n| match n {
                    TraceNode::Loop(p) => {
                        count = p.count;
                        p.body
                    }
                    TraceNode::Event(_) => unreachable!("class confirm checked shapes"),
                })
                .collect();
            TraceNode::Loop(Prsd {
                count,
                body: collapse_class(bodies, world),
            })
        }
    }
}

/// Collapse one same-shape column of RSDs over pairwise disjoint rank sets —
/// the many-way [`merge_rsds`], equal to folding it over the column.
///
/// # Panics
/// If `rsds` is empty.
pub fn collapse_rsds(mut rsds: Vec<Rsd>, world: usize) -> Rsd {
    if rsds.len() == 1 {
        return rsds.pop().expect("one member");
    }
    let op = match &rsds[0].op {
        OpTemplate::Send { tag, blocking, .. } => OpTemplate::Send {
            to: RankParam::unify_many(
                rsds.iter().map(|r| match &r.op {
                    OpTemplate::Send { to, .. } => (to, &r.ranks),
                    _ => unreachable!("class confirm checked op shapes"),
                }),
                world,
            ),
            tag: *tag,
            bytes: ValParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Send { bytes, .. } => (bytes, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
            comm: CommParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Send { comm, .. } => (comm, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
            blocking: *blocking,
        },
        OpTemplate::Recv { tag, blocking, .. } => OpTemplate::Recv {
            from: SrcParam::unify_many(
                rsds.iter().map(|r| match &r.op {
                    OpTemplate::Recv { from, .. } => (from, &r.ranks),
                    _ => unreachable!("class confirm checked op shapes"),
                }),
                world,
            )
            .expect("same_op_shape guarantees matching wildcard-ness"),
            tag: *tag,
            bytes: ValParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Recv { bytes, .. } => (bytes, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
            comm: CommParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Recv { comm, .. } => (comm, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
            blocking: *blocking,
        },
        OpTemplate::Wait { .. } => OpTemplate::Wait {
            count: ValParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Wait { count } => (count, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
        },
        OpTemplate::Coll { kind, root, .. } => OpTemplate::Coll {
            kind: *kind,
            root: root.as_ref().map(|_| {
                RankParam::unify_many(
                    rsds.iter().map(|r| match &r.op {
                        OpTemplate::Coll {
                            root: Some(root), ..
                        } => (root, &r.ranks),
                        _ => unreachable!("same kind implies same rootedness"),
                    }),
                    world,
                )
            }),
            bytes: ValParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Coll { bytes, .. } => (bytes, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
            comm: CommParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::Coll { comm, .. } => (comm, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
        },
        OpTemplate::CommSplit { parent, .. } => OpTemplate::CommSplit {
            parent: *parent,
            result: CommParam::unify_many(rsds.iter().map(|r| match &r.op {
                OpTemplate::CommSplit { result, .. } => (result, &r.ranks),
                _ => unreachable!("class confirm checked op shapes"),
            })),
        },
    };
    let mut compute = rsds[0].compute.clone();
    for r in &rsds[1..] {
        compute.merge(&r.compute);
    }
    let ranks = RankSet::union_many(rsds.iter().map(|r| &r.ranks));
    Rsd {
        ranks,
        sig: rsds[0].sig,
        op,
        compute,
    }
}

/// [`merge_pair`] with anchor trimming: the greedy mergeable prefix and a
/// *safe* mergeable suffix are matched diagonally without any DP — both
/// provably belong to the alignment the seed DP reconstructs — and the
/// quadratic LCS runs only over the divergent middles.
///
/// The prefix is unconditionally safe: if the heads are mergeable the DP's
/// take-both test fires at `(0, 0)` exactly, and the argument composes
/// position by position. The suffix is safe once no node *shape* inside it
/// also occurs in either trimmed middle ([`safe_suffix_len`]): then no LCS
/// match can cross the cut, the DP value decomposes as `dp_full = dp_mid +
/// k` over the whole middle block, and the seed reconstruction is forced
/// through the same cut this function takes.
fn merge_pair_anchored(
    a: Vec<TraceNode>,
    b: Vec<TraceNode>,
    world: usize,
    counters: &Counters,
) -> Vec<TraceNode> {
    let n = a.len();
    let m = b.len();
    counters.pair_nodes.fetch_add((n + m) as u64, Relaxed);
    let mut p = 0;
    while p < n && p < m && mergeable(&a[p], &b[p]) {
        p += 1;
    }
    let cap = n.min(m) - p;
    let mut k = 0;
    while k < cap && mergeable(&a[n - 1 - k], &b[m - 1 - k]) {
        k += 1;
    }
    if k > 0 {
        let afp: Vec<u64> = a.iter().map(shape_fp).collect();
        let bfp: Vec<u64> = b.iter().map(shape_fp).collect();
        k = safe_suffix_len(&afp, &bfp, p, k);
    }
    if p == 0 && k == 0 {
        // Nothing anchors (typical for all-distinct worst cases): run the
        // seed DP directly, skipping the middle re-collection below.
        counters
            .lcs_cells
            .fetch_add(((n + 1) * (m + 1)) as u64, Relaxed);
        return DP_SCRATCH.with(|s| merge_pair_scratch(a, b, world, &mut s.borrow_mut()));
    }
    counters
        .anchor_trimmed
        .fetch_add(2 * (p + k) as u64, Relaxed);
    let mid_n = n - p - k;
    let mid_m = m - p - k;
    let mut ai = a.into_iter();
    let mut bi = b.into_iter();
    let mut out = Vec::with_capacity(n.max(m));
    for _ in 0..p {
        out.push(merge_nodes(ai.next().unwrap(), bi.next().unwrap(), world));
    }
    if mid_n == 0 || mid_m == 0 {
        // One middle is empty: the other passes through unmatched, exactly
        // as the seed DP reconstruction would emit it.
        if mid_n == 0 && mid_m == 0 {
            counters.zip_merges.fetch_add(1, Relaxed);
        }
        out.extend(ai.by_ref().take(mid_n));
        out.extend(bi.by_ref().take(mid_m));
    } else {
        let mid_a: Vec<TraceNode> = ai.by_ref().take(mid_n).collect();
        let mid_b: Vec<TraceNode> = bi.by_ref().take(mid_m).collect();
        counters
            .lcs_cells
            .fetch_add(((mid_n + 1) * (mid_m + 1)) as u64, Relaxed);
        out.extend(
            DP_SCRATCH.with(|s| merge_pair_scratch(mid_a, mid_b, world, &mut s.borrow_mut())),
        );
    }
    for (x, y) in ai.zip(bi) {
        out.push(merge_nodes(x, y, world));
    }
    out
}

/// Shrink a candidate suffix-anchor length `k` until the suffix's node
/// shapes are disjoint from both trimmed middles, using shape fingerprints
/// as the equality proxy (equal shapes have equal fingerprints by
/// construction, so a true overlap is never missed; a fingerprint
/// collision can only shrink `k` further, which stays correct — any
/// smaller mergeable suffix whose shapes are middle-disjoint is also a
/// valid anchor).
///
/// Why disjointness is the right condition: a repeated shape that occurs
/// both in a middle and in the suffix can let the seed DP match a middle
/// node *across* the cut (e.g. `a = [y, s]`, `b = [s, z, s]` — the seed
/// merges `a`'s trailing `s` with `b`'s *first* `s`, not its last), so
/// blind suffix zipping would reassociate matches. With disjoint shape
/// sets no cross match exists, every suffix pair must match diagonally,
/// and trimming is exact.
fn safe_suffix_len(afp: &[u64], bfp: &[u64], p: usize, mut k: usize) -> usize {
    let n = afp.len();
    let m = bfp.len();
    // Counted multisets of shape fps in the middles (both sides) and the
    // suffix (one side suffices: suffix pairs are mergeable, hence share
    // shapes position-wise). `violations` = distinct fps present in both.
    let mut mid: HashMap<u64, u32> = HashMap::new();
    let mut suf: HashMap<u64, u32> = HashMap::new();
    for &f in afp[p..n - k].iter().chain(&bfp[p..m - k]) {
        *mid.entry(f).or_insert(0) += 1;
    }
    for &f in &afp[n - k..] {
        *suf.entry(f).or_insert(0) += 1;
    }
    let mut violations = suf.keys().filter(|f| mid.contains_key(f)).count();
    while violations > 0 && k > 0 {
        // Move the first suffix pair into the middles.
        let f = afp[n - k];
        let sc = suf.get_mut(&f).expect("suffix fp counted");
        *sc -= 1;
        if *sc == 0 {
            suf.remove(&f);
            if mid.contains_key(&f) {
                violations -= 1;
            }
        }
        for &g in &[f, bfp[m - k]] {
            let mc = mid.entry(g).or_insert(0);
            *mc += 1;
            if *mc == 1 && suf.contains_key(&g) {
                violations += 1;
            }
        }
        k -= 1;
    }
    k
}

/// Can two nodes be merged into one RSD/PRSD spanning both rank sets?
pub fn mergeable(a: &TraceNode, b: &TraceNode) -> bool {
    match (a, b) {
        (TraceNode::Event(x), TraceNode::Event(y)) => {
            x.sig == y.sig && same_op_shape(&x.op, &y.op) && !x.ranks.intersects(&y.ranks)
        }
        (TraceNode::Loop(x), TraceNode::Loop(y)) => {
            x.count == y.count
                && x.body.len() == y.body.len()
                && x.body.iter().zip(&y.body).all(|(p, q)| mergeable(p, q))
        }
        _ => false,
    }
}

/// Merge two mergeable nodes.
fn merge_nodes(a: TraceNode, b: TraceNode, world: usize) -> TraceNode {
    match (a, b) {
        (TraceNode::Event(x), TraceNode::Event(y)) => TraceNode::Event(merge_rsds(x, y, world)),
        (TraceNode::Loop(x), TraceNode::Loop(y)) => {
            let body = x
                .body
                .into_iter()
                .zip(y.body)
                .map(|(p, q)| merge_nodes(p, q, world))
                .collect();
            TraceNode::Loop(Prsd {
                count: x.count,
                body,
            })
        }
        _ => unreachable!("merge_nodes on non-mergeable pair"),
    }
}

/// Merge two same-shape RSDs: union ranks, unify parameters, pool times.
pub fn merge_rsds(a: Rsd, b: Rsd, world: usize) -> Rsd {
    let op = match (&a.op, &b.op) {
        (
            OpTemplate::Send {
                to: t1,
                tag,
                bytes: b1,
                comm: c1,
                blocking,
            },
            OpTemplate::Send {
                to: t2,
                bytes: b2,
                comm: c2,
                ..
            },
        ) => OpTemplate::Send {
            to: RankParam::unify(t1, &a.ranks, t2, &b.ranks, world),
            tag: *tag,
            bytes: ValParam::unify(b1, &a.ranks, b2, &b.ranks),
            comm: CommParam::unify(c1, &a.ranks, c2, &b.ranks),
            blocking: *blocking,
        },
        (
            OpTemplate::Recv {
                from: f1,
                tag,
                bytes: b1,
                comm: c1,
                blocking,
            },
            OpTemplate::Recv {
                from: f2,
                bytes: b2,
                comm: c2,
                ..
            },
        ) => OpTemplate::Recv {
            from: SrcParam::unify(f1, &a.ranks, f2, &b.ranks, world)
                .expect("same_op_shape guarantees matching wildcard-ness"),
            tag: *tag,
            bytes: ValParam::unify(b1, &a.ranks, b2, &b.ranks),
            comm: CommParam::unify(c1, &a.ranks, c2, &b.ranks),
            blocking: *blocking,
        },
        (OpTemplate::Wait { count: c1 }, OpTemplate::Wait { count: c2 }) => OpTemplate::Wait {
            count: ValParam::unify(c1, &a.ranks, c2, &b.ranks),
        },
        (
            OpTemplate::Coll {
                kind,
                root: r1,
                bytes: b1,
                comm: c1,
            },
            OpTemplate::Coll {
                root: r2,
                bytes: b2,
                comm: c2,
                ..
            },
        ) => OpTemplate::Coll {
            kind: *kind,
            root: match (r1, r2) {
                (Some(x), Some(y)) => Some(RankParam::unify(x, &a.ranks, y, &b.ranks, world)),
                (None, None) => None,
                _ => unreachable!("same kind implies same rootedness"),
            },
            bytes: ValParam::unify(b1, &a.ranks, b2, &b.ranks),
            comm: CommParam::unify(c1, &a.ranks, c2, &b.ranks),
        },
        (
            OpTemplate::CommSplit { parent, result: r1 },
            OpTemplate::CommSplit { result: r2, .. },
        ) => OpTemplate::CommSplit {
            parent: *parent,
            result: CommParam::unify(r1, &a.ranks, r2, &b.ranks),
        },
        _ => unreachable!("same_op_shape checked"),
    };
    let mut compute = a.compute.clone();
    compute.merge(&b.compute);
    Rsd {
        ranks: a.ranks.union(&b.ranks),
        sig: a.sig,
        op,
        compute,
    }
}

thread_local! {
    /// Per-worker LCS table, reused across pair merges: one merge of p
    /// sequences runs p-1 pairwise DPs, and the table is the only large
    /// transient allocation on that path.
    static DP_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Align and merge two sequences with an LCS over [`mergeable`].
pub fn merge_pair(a: Vec<TraceNode>, b: Vec<TraceNode>, world: usize) -> Vec<TraceNode> {
    DP_SCRATCH.with(|s| merge_pair_scratch(a, b, world, &mut s.borrow_mut()))
}

fn merge_pair_scratch(
    a: Vec<TraceNode>,
    b: Vec<TraceNode>,
    world: usize,
    dp: &mut Vec<u32>,
) -> Vec<TraceNode> {
    let n = a.len();
    let m = b.len();
    // LCS DP table of match lengths (borders stay 0; the backward fill
    // overwrites every interior cell before reading it).
    dp.clear();
    dp.resize((n + 1) * (m + 1), 0);
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            dp[at(i, j)] = if mergeable(&a[i], &b[j]) {
                dp[at(i + 1, j + 1)] + 1
            } else {
                dp[at(i + 1, j)].max(dp[at(i, j + 1)])
            };
        }
    }
    // Reconstruct: matched pairs merge; unmatched nodes pass through.
    let mut out = Vec::with_capacity(n.max(m));
    let mut ai = a.into_iter();
    let mut bi = b.into_iter();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        // Peek without consuming: decide from dp.
        let take_both = {
            let x = ai.as_slice().first().unwrap();
            let y = bi.as_slice().first().unwrap();
            mergeable(x, y) && dp[at(i, j)] == dp[at(i + 1, j + 1)] + 1
        };
        if take_both {
            let x = ai.next().unwrap();
            let y = bi.next().unwrap();
            out.push(merge_nodes(x, y, world));
            i += 1;
            j += 1;
        } else if dp[at(i + 1, j)] >= dp[at(i, j + 1)] {
            out.push(ai.next().unwrap());
            i += 1;
        } else {
            out.push(bi.next().unwrap());
            j += 1;
        }
    }
    out.extend(ai);
    out.extend(bi);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rankset::RankSet;
    use crate::timestats::TimeStats;
    use mpisim::time::SimDuration;
    use mpisim::types::CollKind;

    fn send(rank: usize, to: usize, bytes: u64, sig: u64) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks: RankSet::single(rank),
            sig,
            op: OpTemplate::Send {
                to: RankParam::Const(to),
                tag: 0,
                bytes: ValParam::Const(bytes),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(10)),
        })
    }

    fn barrier(rank: usize, sig: u64) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks: RankSet::single(rank),
            sig,
            op: OpTemplate::Coll {
                kind: CollKind::Barrier,
                root: None,
                bytes: ValParam::Const(0),
                comm: CommParam::Const(0),
            },
            compute: TimeStats::new(),
        })
    }

    #[test]
    fn identical_sequences_merge_to_one() {
        // 4 ranks, each: send to rank+1 then barrier.
        let seqs: Vec<Vec<TraceNode>> = (0..4)
            .map(|r| vec![send(r, r + 1, 64, 1), barrier(r, 2)])
            .collect();
        let merged = merge_sequences(seqs, 8);
        assert_eq!(merged.len(), 2);
        let TraceNode::Event(s) = &merged[0] else {
            panic!()
        };
        assert_eq!(s.ranks, RankSet::all(4));
        let OpTemplate::Send { to, .. } = &s.op else {
            panic!()
        };
        assert_eq!(*to, RankParam::Offset(1));
        let TraceNode::Event(b) = &merged[1] else {
            panic!()
        };
        assert_eq!(b.ranks.len(), 4);
        // compute histograms pooled across ranks
        assert_eq!(s.compute.count(), 4);
    }

    #[test]
    fn ring_merges_to_offset_mod() {
        let n = 8;
        let seqs: Vec<Vec<TraceNode>> = (0..n).map(|r| vec![send(r, (r + 1) % n, 64, 1)]).collect();
        let merged = merge_sequences(seqs, n);
        assert_eq!(merged.len(), 1);
        let TraceNode::Event(s) = &merged[0] else {
            panic!()
        };
        let OpTemplate::Send { to, .. } = &s.op else {
            panic!()
        };
        assert_eq!(
            *to,
            RankParam::OffsetMod {
                offset: 1,
                modulus: n
            }
        );
    }

    #[test]
    fn different_callsites_do_not_merge() {
        let seqs = vec![vec![barrier(0, 1)], vec![barrier(1, 2)]]; // sigs differ
        let merged = merge_sequences(seqs, 2);
        assert_eq!(merged.len(), 2, "distinct call sites stay separate RSDs");
    }

    #[test]
    fn loops_merge_when_structure_matches() {
        let mk = |r: usize| {
            vec![TraceNode::Loop(Prsd {
                count: 100,
                body: vec![send(r, (r + 1) % 4, 1024, 1)],
            })]
        };
        let merged = merge_sequences((0..4).map(mk).collect(), 4);
        assert_eq!(merged.len(), 1);
        let TraceNode::Loop(p) = &merged[0] else {
            panic!()
        };
        assert_eq!(p.count, 100);
        let TraceNode::Event(e) = &p.body[0] else {
            panic!()
        };
        assert_eq!(e.ranks.len(), 4);
    }

    #[test]
    fn loops_with_different_counts_stay_separate() {
        let a = vec![TraceNode::Loop(Prsd {
            count: 10,
            body: vec![send(0, 1, 64, 1)],
        })];
        let b = vec![TraceNode::Loop(Prsd {
            count: 20,
            body: vec![send(1, 2, 64, 1)],
        })];
        let merged = merge_pair(a, b, 4);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn partially_shared_sequences_interleave() {
        // rank 0: extra send before the common barrier
        let a = vec![send(0, 1, 64, 10), barrier(0, 2)];
        let b = vec![barrier(1, 2)];
        let merged = merge_pair(a, b, 2);
        assert_eq!(merged.len(), 2);
        let TraceNode::Event(last) = &merged[1] else {
            panic!()
        };
        assert_eq!(last.ranks.len(), 2, "barrier merged across ranks");
    }

    #[test]
    fn merge_preserves_total_event_count() {
        let n = 16;
        let seqs: Vec<Vec<TraceNode>> = (0..n)
            .map(|r| {
                vec![
                    send(r, (r + 1) % n, 64, 1),
                    send(r, (r + n - 1) % n, 64, 2),
                    barrier(r, 3),
                ]
            })
            .collect();
        let total_before: u64 = seqs
            .iter()
            .flatten()
            .map(TraceNode::concrete_event_count)
            .sum();
        let merged = merge_sequences(seqs, n);
        let total_after: u64 = merged.iter().map(TraceNode::concrete_event_count).sum();
        assert_eq!(total_before, total_after, "merging is lossless");
        assert_eq!(merged.len(), 3, "fully merged across ranks");
    }

    #[test]
    fn class_collapse_matches_pairwise_on_spmd() {
        // Single shape class: every rank runs the same program with
        // rank-dependent parameters. Collapse must be byte-identical to the
        // seed pairwise tree, with exactly one class and zero rep merges.
        let n = 32;
        let seqs: Vec<Vec<TraceNode>> = (0..n)
            .map(|r| {
                vec![
                    send(r, (r + 1) % n, 64 + r as u64, 1),
                    TraceNode::Loop(Prsd {
                        count: 5,
                        body: vec![send(r, (r + n - 1) % n, 32, 2)],
                    }),
                    barrier(r, 3),
                ]
            })
            .collect();
        let (collapsed, stats) =
            merge_sequences_stats(seqs.clone(), n, 1, MergeStrategy::ClassCollapsed);
        let pairwise = merge_sequences_strategy(seqs, n, 1, MergeStrategy::Pairwise);
        assert_eq!(collapsed, pairwise);
        assert_eq!(stats.members, n as u64);
        assert_eq!(stats.classes, 1);
        assert_eq!(stats.rep_merges, 0);
        assert_eq!(stats.collisions, 0);
    }

    #[test]
    fn degraded_digests_still_collapse_correctly() {
        // Two shape classes (even ranks have an extra send). With every
        // digest forced equal, class formation rests on the structural
        // confirm: same output, same class count, collisions > 0.
        let n = 16;
        let seqs: Vec<Vec<TraceNode>> = (0..n)
            .map(|r| {
                if r % 2 == 0 {
                    vec![send(r, (r + 1) % n, 64, 1), barrier(r, 2)]
                } else {
                    vec![barrier(r, 2)]
                }
            })
            .collect();
        let (normal, nstats) =
            merge_sequences_stats(seqs.clone(), n, 1, MergeStrategy::ClassCollapsed);
        let (degraded, dstats) = merge_sequences_degraded(seqs, n, 1);
        assert_eq!(normal, degraded);
        assert_eq!(nstats.classes, 2);
        assert_eq!(dstats.classes, 2);
        assert_eq!(nstats.collisions, 0);
        assert!(dstats.collisions > 0, "forced digests must collide");
        // The barrier merged across all ranks despite living at different
        // positions in the two classes.
        let TraceNode::Event(b) = normal.last().unwrap() else {
            panic!()
        };
        assert_eq!(b.ranks, RankSet::all(n));
    }

    #[test]
    fn anchored_merge_matches_seed_on_crossing_suffix_repeats() {
        // a = [y, s], b = [s, z, s]: the greedy suffix anchor (s) must be
        // rejected because shape s also occurs in b's middle — the seed DP
        // merges a's trailing s with b's *first* s, not its last.
        let a = vec![send(0, 1, 64, 10), barrier(0, 7)];
        let b = vec![barrier(1, 7), send(1, 2, 64, 20), barrier(1, 7)];
        let counters = Counters::default();
        let anchored = merge_pair_anchored(a.clone(), b.clone(), 4, &counters);
        let plain = merge_pair(a, b, 4);
        assert_eq!(anchored, plain);
        assert_eq!(
            counters.snapshot().anchor_trimmed,
            0,
            "unsafe suffix must not be trimmed"
        );
    }

    #[test]
    fn anchored_merge_trims_safe_prefix_and_suffix() {
        // Common prefix [p] and suffix [c, c] around divergent middles.
        let a = vec![
            barrier(0, 1),
            send(0, 1, 64, 10),
            barrier(0, 8),
            barrier(0, 9),
        ];
        let b = vec![
            barrier(1, 1),
            send(1, 2, 64, 20),
            send(1, 3, 64, 21),
            barrier(1, 8),
            barrier(1, 9),
        ];
        let counters = Counters::default();
        let anchored = merge_pair_anchored(a.clone(), b.clone(), 4, &counters);
        let plain = merge_pair(a, b, 4);
        assert_eq!(anchored, plain);
        let stats = counters.snapshot();
        assert_eq!(stats.anchor_trimmed, 6, "prefix 1 + suffix 2, both sides");
        assert_eq!(stats.lcs_cells, 2 * 3, "DP only over the 1x2 middles");
    }

    #[test]
    fn collapse_handles_multi_class_mixtures() {
        // Three classes interleaved across ranks; result must cover every
        // rank exactly once per surviving RSD and keep event counts.
        let n = 12;
        let seqs: Vec<Vec<TraceNode>> = (0..n)
            .map(|r| match r % 3 {
                0 => vec![send(r, (r + 1) % n, 64, 1), barrier(r, 9)],
                1 => vec![send(r, (r + 2) % n, 128, 2), barrier(r, 9)],
                _ => vec![barrier(r, 9)],
            })
            .collect();
        let total: u64 = seqs
            .iter()
            .flatten()
            .map(TraceNode::concrete_event_count)
            .sum();
        let (merged, stats) = merge_sequences_stats(seqs, n, 1, MergeStrategy::ClassCollapsed);
        assert_eq!(stats.classes, 3);
        assert_eq!(stats.rep_merges, 2);
        let after: u64 = merged.iter().map(TraceNode::concrete_event_count).sum();
        assert_eq!(total, after);
        let TraceNode::Event(b) = merged.last().unwrap() else {
            panic!()
        };
        assert_eq!(b.ranks, RankSet::all(n), "shared barrier spans all ranks");
    }

    #[test]
    fn wildcard_and_concrete_recv_stay_separate() {
        let wild = TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig: 5,
            op: OpTemplate::Recv {
                from: SrcParam::Any,
                tag: mpisim::types::TagSel::Any,
                bytes: ValParam::Const(8),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::new(),
        });
        let concrete = TraceNode::Event(Rsd {
            ranks: RankSet::single(1),
            sig: 5,
            op: OpTemplate::Recv {
                from: SrcParam::Rank(RankParam::Const(0)),
                tag: mpisim::types::TagSel::Any,
                bytes: ValParam::Const(8),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::new(),
        });
        assert!(!mergeable(&wild, &concrete));
    }
}
