//! On-the-fly intra-rank loop compression.
//!
//! ScalaTrace performs loop compression *during* tracing "to reduce memory
//! overhead and compression time" (paper §3.1). The algorithm here is the
//! classic tail-folding scheme: after each append, look for a repeated
//! window at the tail of the sequence and fold it — either by extending an
//! existing loop ([`Prsd`]) whose body matches the tail, or by collapsing
//! two adjacent identical windows into a new 2-iteration loop. Applied
//! incrementally, arbitrary nests of loops emerge (`{1000, RSD1, RSD2,
//! RSD3}` in the paper's Figure 2 example).
//!
//! Folding equivalence ignores timing histograms (they are merged), so
//! iterations with different computation times still fold — the histogram
//! absorbs the variation.
//!
//! Two implementations of the one algorithm live here, and both are
//! production code. [`append_compressed`] / [`compress_tail`] compare
//! windows structurally; `core::rebuild` folds through them, and they are
//! the reference every differential test compares against.
//! [`TailCompressor`] is what capture runs: the same fold decisions found
//! through rolling fingerprints, with the incremental state streaming
//! capture needs.

use crate::fingerprint::{self, POLY_BASE};
use crate::trace::{Prsd, TraceNode};

/// Default window: the longest loop body (in trace nodes) that folding will
/// discover. Exposed for the compression ablation bench.
pub const DEFAULT_MAX_WINDOW: usize = 32;

/// Append `node` and re-establish maximal tail compression by structural
/// comparison (O(W) node compares per window) — see the module docs.
pub fn append_compressed(seq: &mut Vec<TraceNode>, node: TraceNode, max_window: usize) {
    seq.push(node);
    compress_tail(seq, max_window);
}

/// Fold repeated windows at the tail of `seq` until no fold applies.
pub fn compress_tail(seq: &mut Vec<TraceNode>, max_window: usize) {
    while try_fold_tail(seq, max_window) {}
}

fn try_fold_tail(seq: &mut Vec<TraceNode>, max_window: usize) -> bool {
    let len = seq.len();
    for w in 1..=max_window {
        // Case A: the `w` tail nodes repeat the body of the loop that
        // immediately precedes them → bump the loop's iteration count.
        if len > w {
            if let TraceNode::Loop(p) = &seq[len - w - 1] {
                if p.body.len() == w
                    && p.body
                        .iter()
                        .zip(&seq[len - w..])
                        .all(|(a, b)| a.foldable_with(b))
                {
                    let tail: Vec<TraceNode> = seq.drain(len - w..).collect();
                    let TraceNode::Loop(p) = seq.last_mut().unwrap() else {
                        unreachable!()
                    };
                    for (body, t) in p.body.iter_mut().zip(&tail) {
                        body.absorb_times(t);
                    }
                    p.count += 1;
                    return true;
                }
            }
        }
        // Case B: two adjacent identical windows of length `w` → new loop.
        if len >= 2 * w {
            let first = len - 2 * w;
            let second = len - w;
            if (0..w).all(|i| seq[first + i].foldable_with(&seq[second + i])) {
                let tail: Vec<TraceNode> = seq.drain(second..).collect();
                let mut body: Vec<TraceNode> = seq.drain(first..).collect();
                for (b, t) in body.iter_mut().zip(&tail) {
                    b.absorb_times(t);
                }
                seq.push(TraceNode::Loop(Prsd { count: 2, body }));
                return true;
            }
        }
    }
    false
}

/// Per-node structural summary kept alongside the sequence: the node's
/// fingerprint plus, for loops, the body summary needed to re-fingerprint
/// in O(1) when a Case-A fold bumps the count.
#[derive(Clone, Copy)]
struct NodeRec {
    fp: u64,
    body_hash: u64,
    body_len: usize,
}

/// Incremental tail compressor with fingerprint-indexed fold search.
///
/// Owns the growing node sequence and a parallel record array plus
/// polynomial prefix hashes over the node fingerprints, so "do these two
/// length-`w` tail windows match?" is a subtraction and a multiply instead
/// of `w` recursive structural comparisons. Every hash hit is confirmed
/// structurally before folding, so the output is byte-identical to
/// [`append_compressed`] regardless of collisions.
pub struct TailCompressor {
    seq: Vec<TraceNode>,
    recs: Vec<NodeRec>,
    /// `pref[i]` = polynomial hash of `fp(seq[0..i])`; `pref.len() == seq.len()+1`.
    pref: Vec<u64>,
    /// `pow[k]` = `POLY_BASE^k`, precomputed up to `max_window`.
    pow: Vec<u64>,
    max_window: usize,
    /// Test hook: fingerprint every node as 0, forcing every window compare
    /// through the structural confirm (exercises the collision path).
    degraded: bool,
}

impl TailCompressor {
    /// An empty compressor folding loop bodies of up to `max_window` nodes.
    pub fn new(max_window: usize) -> TailCompressor {
        let mut pow = Vec::with_capacity(max_window + 1);
        let mut p = 1u64;
        for _ in 0..=max_window {
            pow.push(p);
            p = p.wrapping_mul(POLY_BASE);
        }
        TailCompressor {
            seq: Vec::new(),
            recs: Vec::new(),
            pref: vec![0],
            pow,
            max_window,
            degraded: false,
        }
    }

    /// A compressor whose fingerprints all collide (every node hashes to
    /// 0). Used by the differential tests to prove that hash
    /// collisions never fold unequal nodes.
    #[doc(hidden)]
    pub fn degraded(max_window: usize) -> TailCompressor {
        let mut c = TailCompressor::new(max_window);
        c.degraded = true;
        c
    }

    /// The configured fold window.
    pub fn max_window(&self) -> usize {
        self.max_window
    }

    /// The compressed sequence so far.
    pub fn nodes(&self) -> &[TraceNode] {
        &self.seq
    }

    /// Consume the compressor, yielding the compressed sequence.
    pub fn into_nodes(self) -> Vec<TraceNode> {
        self.seq
    }

    /// Append `node` and re-establish maximal tail compression.
    pub fn push(&mut self, node: TraceNode) {
        self.push_raw(node);
        while self.try_fold_once() {}
    }

    fn record_of(&self, node: &TraceNode) -> NodeRec {
        match node {
            TraceNode::Event(_) => NodeRec {
                fp: if self.degraded {
                    0
                } else {
                    fingerprint::node_fp(node)
                },
                body_hash: 0,
                body_len: 0,
            },
            TraceNode::Loop(p) => {
                let body_hash = if self.degraded {
                    0
                } else {
                    fingerprint::combine_seq(p.body.iter().map(fingerprint::node_fp))
                };
                NodeRec {
                    fp: self.mk_loop_fp(p.count, p.body.len(), body_hash),
                    body_hash,
                    body_len: p.body.len(),
                }
            }
        }
    }

    fn mk_loop_fp(&self, count: u64, body_len: usize, body_hash: u64) -> u64 {
        if self.degraded {
            0
        } else {
            fingerprint::loop_fp(count, body_len, body_hash)
        }
    }

    fn push_pref(&mut self, fp: u64) {
        let last = *self.pref.last().unwrap();
        self.pref
            .push(last.wrapping_mul(POLY_BASE).wrapping_add(fp));
    }

    /// Polynomial hash of the fingerprints of `seq[i..j]` (`j - i` must be
    /// within the precomputed power table, i.e. ≤ `max_window`).
    fn win_hash(&self, i: usize, j: usize) -> u64 {
        self.pref[j].wrapping_sub(self.pref[i].wrapping_mul(self.pow[j - i]))
    }

    /// Attempt exactly one tail fold; `true` if a fold was applied.
    pub(crate) fn try_fold_once(&mut self) -> bool {
        let len = self.seq.len();
        for w in 1..=self.max_window {
            // Case A: the `w` tail nodes repeat the body of the loop that
            // immediately precedes them → bump the loop's iteration count.
            if len > w {
                let rec = self.recs[len - w - 1];
                if rec.body_len == w
                    && matches!(self.seq[len - w - 1], TraceNode::Loop(_))
                    && rec.body_hash == self.win_hash(len - w, len)
                    && self.confirm_case_a(len, w)
                {
                    let tail: Vec<TraceNode> = self.seq.drain(len - w..).collect();
                    let TraceNode::Loop(p) = self.seq.last_mut().unwrap() else {
                        unreachable!()
                    };
                    for (body, t) in p.body.iter_mut().zip(&tail) {
                        body.absorb_times(t);
                    }
                    p.count += 1;
                    let count = p.count;
                    // The loop's fingerprint depends on its count; its body
                    // hash is timing-blind and thus unchanged by the absorb.
                    let fp = self.mk_loop_fp(count, rec.body_len, rec.body_hash);
                    self.recs.truncate(len - w);
                    self.recs[len - w - 1].fp = fp;
                    self.pref.truncate(len - w);
                    self.push_pref(fp);
                    return true;
                }
            }
            // Case B: two adjacent identical windows of length `w` → new loop.
            if len >= 2 * w {
                let first = len - 2 * w;
                let second = len - w;
                if self.win_hash(first, second) == self.win_hash(second, len)
                    && (0..w).all(|i| self.seq[first + i].foldable_with(&self.seq[second + i]))
                {
                    let body_hash = self.win_hash(first, second);
                    let tail: Vec<TraceNode> = self.seq.drain(second..).collect();
                    let mut body: Vec<TraceNode> = self.seq.drain(first..).collect();
                    for (b, t) in body.iter_mut().zip(&tail) {
                        b.absorb_times(t);
                    }
                    let fp = self.mk_loop_fp(2, w, body_hash);
                    self.seq.push(TraceNode::Loop(Prsd { count: 2, body }));
                    self.recs.truncate(first);
                    self.recs.push(NodeRec {
                        fp,
                        body_hash,
                        body_len: w,
                    });
                    self.pref.truncate(first + 1);
                    self.push_pref(fp);
                    return true;
                }
            }
        }
        false
    }

    fn confirm_case_a(&self, len: usize, w: usize) -> bool {
        let TraceNode::Loop(p) = &self.seq[len - w - 1] else {
            return false;
        };
        p.body.len() == w
            && p.body
                .iter()
                .zip(&self.seq[len - w..])
                .all(|(a, b)| a.foldable_with(b))
    }

    // ------------------------------------------------------------ streaming
    //
    // The streaming capture path (`crate::stream`) drives the compressor
    // piecewise: append without folding, fold one step at a time (so a
    // sealed-segment reload can be interleaved between fold attempts), evict
    // a sealed prefix, and re-attach a reloaded one. A fold only ever
    // inspects the last `2 * max_window` positions of the sequence, and the
    // rolling window hash `win_hash(i, j)` equals the polynomial hash of the
    // window's fingerprints regardless of how much prefix precedes it, so a
    // compressor holding only a suffix folds exactly like one holding the
    // whole sequence — provided the suffix keeps at least `2 * max_window`
    // nodes (the invariant `stream::StreamingTracer` maintains).

    /// Number of nodes currently resident.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Is the resident sequence empty?
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Append `node` without attempting any fold.
    pub(crate) fn push_raw(&mut self, node: TraceNode) {
        let rec = self.record_of(&node);
        self.seq.push(node);
        self.recs.push(rec);
        self.push_pref(rec.fp);
    }

    /// Drop the first `k` nodes (sealed to disk by the streaming capture)
    /// and rebuild the fingerprint index over the remaining tail.
    pub(crate) fn drop_prefix(&mut self, k: usize) {
        self.seq.drain(..k);
        self.rebuild_index();
    }

    /// Re-attach previously sealed nodes in front of the resident tail (a
    /// segment reload) and rebuild the fingerprint index.
    pub(crate) fn prepend_nodes(&mut self, nodes: Vec<TraceNode>) {
        self.seq.splice(0..0, nodes);
        self.rebuild_index();
    }

    /// Recompute `recs`/`pref` from the node structure. This reproduces
    /// the incrementally maintained values exactly: fingerprints are
    /// timing-blind (so histogram absorption during folding never changed
    /// them) and a Case-A-bumped loop's fingerprint is re-derived from its
    /// count and body hash via the same [`fingerprint::loop_fp`] identity
    /// the incremental path uses.
    fn rebuild_index(&mut self) {
        let recs: Vec<NodeRec> = self.seq.iter().map(|n| self.record_of(n)).collect();
        self.recs.clear();
        self.pref.clear();
        self.pref.push(0);
        for rec in recs {
            self.recs.push(rec);
            self.push_pref(rec.fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{RankParam, ValParam};
    use crate::rankset::RankSet;
    use crate::timestats::TimeStats;
    use crate::trace::{OpTemplate, Rsd};
    use mpisim::time::SimDuration;

    fn ev(sig: u64, bytes: u64, us: u64) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig,
            op: OpTemplate::Send {
                to: RankParam::Const(1),
                tag: 0,
                bytes: ValParam::Const(bytes),
                comm: crate::params::CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(us)),
        })
    }

    fn push(seq: &mut Vec<TraceNode>, n: TraceNode) {
        append_compressed(seq, n, DEFAULT_MAX_WINDOW);
    }

    #[test]
    fn identical_events_fold_to_one_loop() {
        let mut seq = Vec::new();
        for i in 0..1000 {
            push(&mut seq, ev(1, 64, 10 + (i % 3)));
        }
        assert_eq!(seq.len(), 1);
        let TraceNode::Loop(p) = &seq[0] else {
            panic!("expected loop")
        };
        assert_eq!(p.count, 1000);
        assert_eq!(p.body.len(), 1);
        let TraceNode::Event(r) = &p.body[0] else {
            panic!()
        };
        // all 1000 compute samples live in the histogram
        assert_eq!(r.compute.count(), 1000);
    }

    #[test]
    fn multi_event_loop_body() {
        // the paper's Figure 2: (irecv, isend, waitall) x 1000 → one PRSD
        let mut seq = Vec::new();
        for _ in 0..1000 {
            push(&mut seq, ev(1, 1024, 5));
            push(&mut seq, ev(2, 1024, 5));
            push(&mut seq, ev(3, 0, 5));
        }
        assert_eq!(seq.len(), 1);
        let TraceNode::Loop(p) = &seq[0] else {
            panic!()
        };
        assert_eq!(p.count, 1000);
        assert_eq!(p.body.len(), 3);
    }

    #[test]
    fn nested_loops_emerge() {
        // outer 5 { inner 10 { A } ; B } — A has sig 1, B sig 2
        let mut seq = Vec::new();
        for _ in 0..5 {
            for _ in 0..10 {
                push(&mut seq, ev(1, 64, 1));
            }
            push(&mut seq, ev(2, 8, 1));
        }
        // expect: Loop x5 { Loop x10 {A}, B }
        assert_eq!(seq.len(), 1, "trace: {seq:#?}");
        let TraceNode::Loop(outer) = &seq[0] else {
            panic!()
        };
        assert_eq!(outer.count, 5);
        assert_eq!(outer.body.len(), 2);
        let TraceNode::Loop(inner) = &outer.body[0] else {
            panic!("inner loop expected, got {:?}", outer.body[0])
        };
        assert_eq!(inner.count, 10);
    }

    #[test]
    fn different_events_do_not_fold() {
        let mut seq = Vec::new();
        for i in 0..10 {
            push(&mut seq, ev(i, 64, 1)); // distinct signatures
        }
        assert_eq!(seq.len(), 10);
    }

    #[test]
    fn different_sizes_do_not_fold() {
        let mut seq = Vec::new();
        push(&mut seq, ev(1, 64, 1));
        push(&mut seq, ev(1, 128, 1));
        push(&mut seq, ev(1, 64, 1));
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn window_limits_fold_length() {
        // period-3 pattern with window 2: cannot fold
        let mut seq = Vec::new();
        for _ in 0..4 {
            for s in [1u64, 2, 3] {
                append_compressed(&mut seq, ev(s, 64, 1), 2);
            }
        }
        assert_eq!(seq.len(), 12);
        // window 3 folds it
        let mut seq = Vec::new();
        for _ in 0..4 {
            for s in [1u64, 2, 3] {
                append_compressed(&mut seq, ev(s, 64, 1), 3);
            }
        }
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn concrete_event_count_is_preserved() {
        let mut seq = Vec::new();
        let mut pushed = 0u64;
        for i in 0..500u64 {
            // quasi-periodic pattern with a break in the middle
            let sig = if i == 250 { 99 } else { 1 + (i % 4) };
            push(&mut seq, ev(sig, 64, 1));
            pushed += 1;
        }
        let total: u64 = seq.iter().map(TraceNode::concrete_event_count).sum();
        assert_eq!(total, pushed, "compression must be lossless in event count");
    }

    /// Feed the same node stream to [`append_compressed`] and a
    /// [`TailCompressor`], asserting identical output.
    fn assert_matches_structural(stream: impl Iterator<Item = TraceNode>, window: usize) {
        let mut baseline = Vec::new();
        let mut fp = TailCompressor::new(window);
        let mut degraded = TailCompressor::degraded(window);
        for n in stream {
            append_compressed(&mut baseline, n.clone(), window);
            fp.push(n.clone());
            degraded.push(n);
        }
        assert_eq!(fp.nodes(), baseline.as_slice());
        assert_eq!(degraded.nodes(), baseline.as_slice());
    }

    #[test]
    fn fingerprint_folding_matches_structural() {
        // single repeated event
        assert_matches_structural(
            (0..1000).map(|i| ev(1, 64, 10 + (i % 3))),
            DEFAULT_MAX_WINDOW,
        );
        // figure-2 style 3-event body
        assert_matches_structural(
            (0..3000).map(|i| ev(1 + (i % 3), 1024, 5)),
            DEFAULT_MAX_WINDOW,
        );
        // nested loops
        let nested = (0..5).flat_map(|_| {
            (0..10)
                .map(|_| ev(1, 64, 1))
                .chain(std::iter::once(ev(2, 8, 1)))
                .collect::<Vec<_>>()
        });
        assert_matches_structural(nested.clone(), DEFAULT_MAX_WINDOW);
        // tight window
        assert_matches_structural(nested, 2);
        // aperiodic with a break
        assert_matches_structural(
            (0..500).map(|i| ev(if i == 250 { 99 } else { 1 + (i % 4) }, 64, 1)),
            DEFAULT_MAX_WINDOW,
        );
    }

    #[test]
    fn degraded_fingerprints_never_fold_unequal_nodes() {
        // All fingerprints collide (hash to 0); only the structural confirm
        // stands between distinct events and a bogus fold.
        let mut c = TailCompressor::degraded(DEFAULT_MAX_WINDOW);
        for i in 0..10 {
            c.push(ev(i, 64, 1));
        }
        assert_eq!(c.nodes().len(), 10);
    }

    #[test]
    fn rebuilt_index_continuation_matches_uninterrupted_run() {
        // Split a stream at every prefix length, re-attach the folded prefix
        // to an empty compressor (its index rebuilt from the nodes alone),
        // feed the remainder — the result must be byte-identical to the
        // uninterrupted run.
        let stream: Vec<TraceNode> = (0..120)
            .map(|i| ev(if i == 60 { 99 } else { 1 + (i % 4) }, 64, 1 + (i % 3)))
            .collect();
        let mut whole = Vec::new();
        for n in &stream {
            push(&mut whole, n.clone());
        }
        for cut in 0..stream.len() {
            let mut first = TailCompressor::new(DEFAULT_MAX_WINDOW);
            for n in &stream[..cut] {
                first.push(n.clone());
            }
            let mut second = TailCompressor::new(DEFAULT_MAX_WINDOW);
            second.prepend_nodes(first.into_nodes());
            for n in &stream[cut..] {
                second.push(n.clone());
            }
            assert_eq!(second.nodes(), whole.as_slice(), "cut at {cut}");
        }
    }

    #[test]
    fn piecewise_push_matches_push() {
        // push_raw + fold-to-fixpoint == append_compressed after every node.
        let stream: Vec<TraceNode> = (0..200)
            .map(|i| ev(if i == 100 { 99 } else { 1 + (i % 3) }, 64, 1))
            .collect();
        let mut whole = Vec::new();
        let mut piecewise = TailCompressor::new(DEFAULT_MAX_WINDOW);
        for n in &stream {
            push(&mut whole, n.clone());
            piecewise.push_raw(n.clone());
            while piecewise.try_fold_once() {}
            assert_eq!(piecewise.nodes(), whole.as_slice());
        }
    }

    #[test]
    fn prefix_eviction_with_reload_guard_matches_unbounded() {
        // The streaming-capture invariant at the unit level: evict prefixes
        // freely, but reload them before any fold whenever fewer than
        // `2 * max_window + 1` nodes are resident. Then the concatenation
        // of evicted prefix and resident tail is byte-identical to the
        // unbounded structural fold after every single push.
        let window = 4usize;
        let min_resident = 2 * window + 1;
        let stream: Vec<TraceNode> = (0..400)
            .map(|i| {
                ev(
                    if i % 50 == 0 { 90 + i } else { 1 + (i % 4) },
                    64,
                    1 + (i % 2),
                )
            })
            .collect();
        let mut whole = Vec::new();
        let mut churned = TailCompressor::new(window);
        let mut evicted: Vec<TraceNode> = Vec::new();
        for (i, n) in stream.iter().enumerate() {
            append_compressed(&mut whole, n.clone(), window);
            churned.push_raw(n.clone());
            loop {
                if churned.len() < min_resident && !evicted.is_empty() {
                    churned.prepend_nodes(std::mem::take(&mut evicted));
                }
                if !churned.try_fold_once() {
                    break;
                }
            }
            if churned.len() > 2 * min_resident {
                let k = churned.len() - min_resident;
                evicted.extend_from_slice(&churned.nodes()[..k]);
                churned.drop_prefix(k);
            }
            let mut joined = evicted.clone();
            joined.extend_from_slice(churned.nodes());
            assert_eq!(joined.as_slice(), whole.as_slice(), "after push {i}");
        }
    }

    #[test]
    fn compressor_accepts_preformed_loops() {
        // Pushing Loop nodes directly (as the differential tests do) folds
        // like the structural reference.
        let mk = || {
            TraceNode::Loop(Prsd {
                count: 4,
                body: vec![ev(1, 64, 1), ev(2, 64, 1)],
            })
        };
        assert_matches_structural((0..6).map(|_| mk()), DEFAULT_MAX_WINDOW);
        let mut c = TailCompressor::new(DEFAULT_MAX_WINDOW);
        for _ in 0..6 {
            c.push(mk());
        }
        // six identical loops fold into one loop-of-loop
        assert_eq!(c.nodes().len(), 1);
    }
}
