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
//!
//! The structural scan tries every width `1..=max_window` per append, so
//! its cost grows with the window. The compressor visits only the widths a
//! fold could succeed at — a loop whose body is as long as the tail after
//! it, or an earlier node with the last node's fingerprint — so its cost
//! does not, and the default window is wide enough for an MG V-cycle (125
//! nodes per iteration at class A).

use crate::fingerprint::{self, POLY_BASE};
use crate::trace::{Prsd, TraceNode};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default window: the longest loop body (in trace nodes) that folding will
/// discover. Exposed for the compression ablation bench.
pub const DEFAULT_MAX_WINDOW: usize = 256;

/// `POLY_BASE^k` for `k ≤ DEFAULT_MAX_WINDOW`, one table for every
/// compressor (a capture holds one per rank).
static POW: [u64; DEFAULT_MAX_WINDOW + 1] = {
    let mut t = [1u64; DEFAULT_MAX_WINDOW + 1];
    let mut k = 1;
    while k < t.len() {
        t[k] = t[k - 1].wrapping_mul(POLY_BASE);
        k += 1;
    }
    t
};

/// `POLY_BASE^k`: from the table, or computed for a window wider than the
/// default.
fn poly_pow(k: usize) -> u64 {
    POW.get(k).copied().unwrap_or_else(|| {
        POLY_BASE.wrapping_pow(u32::try_from(k).expect("a window spans fewer than 2^32 nodes"))
    })
}

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
                    extend_in_place(seq, w);
                    return true;
                }
            }
        }
        // Case B: two adjacent identical windows of length `w` → new loop.
        if len >= 2 * w {
            let first = len - 2 * w;
            let second = len - w;
            if (0..w).all(|i| seq[first + i].foldable_with(&seq[second + i])) {
                absorb_window(seq, first, second);
                let body: Vec<TraceNode> = seq.drain(first..).collect();
                seq.push(TraceNode::Loop(Prsd { count: 2, body }));
                return true;
            }
        }
    }
    false
}

/// Case A in place: the loop just before the `w` tail nodes absorbs their
/// timings and counts one more iteration; the tail is dropped. Returns the
/// loop's new count.
fn extend_in_place(seq: &mut Vec<TraceNode>, w: usize) -> u64 {
    let len = seq.len();
    let (head, tail) = seq.split_at_mut(len - w);
    let TraceNode::Loop(p) = &mut head[len - w - 1] else {
        unreachable!()
    };
    for (body, t) in p.body.iter_mut().zip(&*tail) {
        body.absorb_times(t);
    }
    p.count += 1;
    let count = p.count;
    seq.truncate(len - w);
    count
}

/// Case B in place: the window `first..second` absorbs the timings of the
/// equal window `second..` behind it, which is then dropped.
fn absorb_window(seq: &mut Vec<TraceNode>, first: usize, second: usize) {
    let (head, tail) = seq.split_at_mut(second);
    for (b, t) in head[first..].iter_mut().zip(&*tail) {
        b.absorb_times(t);
    }
    seq.truncate(second);
}

/// Per-node structural summary kept alongside the sequence: the node's
/// fingerprint plus, for loops, the body summary needed to re-fingerprint
/// in O(1) when a Case-A fold bumps the count.
#[derive(Clone, Copy)]
struct NodeRec {
    fp: u64,
    body_hash: u64,
    body_len: usize,
    /// The last earlier position with the same fingerprint.
    prev: Option<usize>,
}

/// Hashes a fingerprint to itself: fingerprints are already
/// splitmix-finalised, so hashing them again only costs time. The keys are
/// fingerprints the compressor computes, not input to guard against.
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 fingerprints are hashed")
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp;
    }
}

/// A fold the search found, by width.
enum Fold {
    /// Case A: the tail repeats the body of the loop before it.
    Extend(usize),
    /// Case B: two adjacent equal windows become a new loop.
    New(usize),
}

/// Incremental tail compressor with fingerprint-indexed fold search.
///
/// Owns the growing node sequence and a parallel record array plus
/// polynomial prefix hashes over the node fingerprints, so "do these two
/// length-`w` tail windows match?" is a subtraction and a multiply instead
/// of `w` recursive structural comparisons. Every hash hit is confirmed
/// structurally before folding, so the output is byte-identical to
/// [`append_compressed`] regardless of collisions.
///
/// The widths worth checking are indexed too. Foldable nodes have equal
/// fingerprints, so a Case-B fold at width `w` needs
/// `fp(seq[len-1-w]) == fp(seq[len-1])`: the candidates are the chain of
/// `prev` links from the last node. A Case-A fold at width `w` needs a loop
/// at `len-1-w` whose body is `w` long: the candidates are the loop
/// positions within the window. Visiting both in ascending width, Case A
/// first at equal width, finds the fold the full scan would. Every fold
/// truncates a suffix and pushes one node, so popping position `k`
/// restores `last[fp_k] = prev[k]` and the index stays exact.
pub struct TailCompressor {
    seq: Vec<TraceNode>,
    recs: Vec<NodeRec>,
    /// `pref[i]` = polynomial hash of `fp(seq[0..i])`; `pref.len() == seq.len()+1`.
    pref: Vec<u64>,
    /// Fingerprint → its last position.
    last: HashMap<u64, usize, BuildHasherDefault<FpHasher>>,
    /// Positions of the loops with a non-empty body, ascending.
    loops: Vec<usize>,
    max_window: usize,
    /// Test hook: fingerprint every node as 0, forcing every window compare
    /// through the structural confirm (exercises the collision path).
    degraded: bool,
}

impl TailCompressor {
    /// An empty compressor folding loop bodies of up to `max_window` nodes.
    pub fn new(max_window: usize) -> TailCompressor {
        TailCompressor {
            seq: Vec::new(),
            recs: Vec::new(),
            pref: vec![0],
            last: HashMap::default(),
            loops: Vec::new(),
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
                prev: None,
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
                    prev: None,
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

    /// Record the node just pushed onto `seq` and link it into the index.
    fn push_rec(&mut self, mut rec: NodeRec) {
        let k = self.recs.len();
        rec.prev = self.last.insert(rec.fp, k);
        if rec.body_len > 0 {
            self.loops.push(k);
        }
        self.recs.push(rec);
        let last = *self.pref.last().expect("pref holds the empty prefix");
        self.pref
            .push(last.wrapping_mul(POLY_BASE).wrapping_add(rec.fp));
    }

    /// Drop the records of positions `n..`, last first, unlinking each from
    /// the index.
    fn truncate_recs(&mut self, n: usize) {
        for rec in self.recs.drain(n..).rev() {
            match rec.prev {
                // Position `p` goes too, and its own pop sets the entry.
                Some(p) if p >= n => {}
                Some(p) => {
                    self.last.insert(rec.fp, p);
                }
                None => {
                    self.last.remove(&rec.fp);
                }
            }
            if rec.body_len > 0 {
                self.loops.pop();
            }
        }
        self.pref.truncate(n + 1);
    }

    /// Polynomial hash of the fingerprints of `seq[i..j]`.
    fn win_hash(&self, i: usize, j: usize) -> u64 {
        self.pref[j].wrapping_sub(self.pref[i].wrapping_mul(poly_pow(j - i)))
    }

    /// Attempt exactly one tail fold; `true` if a fold was applied.
    pub(crate) fn try_fold_once(&mut self) -> bool {
        match self.find_fold() {
            Some(Fold::Extend(w)) => self.extend_loop(w),
            Some(Fold::New(w)) => self.new_loop(w),
            None => return false,
        }
        true
    }

    /// The fold a scan over `w = 1..=max_window` (Case A before Case B at
    /// each width) would apply, found by visiting only the indexed
    /// candidates, in the same order.
    fn find_fold(&self) -> Option<Fold> {
        let len = self.seq.len();
        let tail = len.checked_sub(1)?;
        // Case A: loops before the tail, nearest first.
        let mut extend = self
            .loops
            .iter()
            .rev()
            .map(|&p| tail - p)
            .skip_while(|&w| w == 0)
            .take_while(|&w| w <= self.max_window)
            .peekable();
        // Case B: earlier nodes with the last node's fingerprint.
        let mut new = std::iter::successors(self.recs[tail].prev, |&q| self.recs[q].prev)
            .map(|q| tail - q)
            .take_while(|&w| w <= self.max_window && 2 * w <= len)
            .peekable();
        loop {
            let case_a_first = match (extend.peek(), new.peek()) {
                (None, None) => return None,
                (Some(wa), Some(wb)) => wa <= wb,
                (a, _) => a.is_some(),
            };
            if case_a_first {
                let w = extend.next()?;
                if self.can_extend(len, w) {
                    return Some(Fold::Extend(w));
                }
            } else {
                let w = new.next()?;
                if self.can_fold_new(len, w) {
                    return Some(Fold::New(w));
                }
            }
        }
    }

    /// Case A: do the `w` tail nodes repeat the body of the loop that
    /// immediately precedes them?
    fn can_extend(&self, len: usize, w: usize) -> bool {
        let rec = self.recs[len - w - 1];
        rec.body_len == w
            && rec.body_hash == self.win_hash(len - w, len)
            && self.confirm_case_a(len, w)
    }

    /// Case B: are the two adjacent length-`w` tail windows identical?
    fn can_fold_new(&self, len: usize, w: usize) -> bool {
        let (first, second) = (len - 2 * w, len - w);
        self.win_hash(first, second) == self.win_hash(second, len)
            && (0..w).all(|i| self.seq[first + i].foldable_with(&self.seq[second + i]))
    }

    /// Apply Case A at width `w`: bump the preceding loop's count.
    fn extend_loop(&mut self, w: usize) {
        let len = self.seq.len();
        let at = len - w - 1;
        let count = extend_in_place(&mut self.seq, w);
        // The loop's fingerprint depends on its count; its body hash is
        // timing-blind and thus unchanged by the absorb.
        let rec = self.recs[at];
        let fp = self.mk_loop_fp(count, rec.body_len, rec.body_hash);
        self.truncate_recs(at);
        self.push_rec(NodeRec { fp, ..rec });
    }

    /// Apply Case B at width `w`: the two tail windows become a 2-loop.
    fn new_loop(&mut self, w: usize) {
        let len = self.seq.len();
        let (first, second) = (len - 2 * w, len - w);
        let body_hash = self.win_hash(first, second);
        absorb_window(&mut self.seq, first, second);
        let body: Vec<TraceNode> = self.seq.drain(first..).collect();
        self.seq.push(TraceNode::Loop(Prsd { count: 2, body }));
        let fp = self.mk_loop_fp(2, w, body_hash);
        self.truncate_recs(first);
        self.push_rec(NodeRec {
            fp,
            body_hash,
            body_len: w,
            prev: None,
        });
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
        self.push_rec(rec);
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

    /// Recompute `recs`/`pref` and the candidate index from the node
    /// structure. This reproduces the incrementally maintained values
    /// exactly: fingerprints are timing-blind (so histogram absorption
    /// during folding never changed them) and a Case-A-bumped loop's
    /// fingerprint is re-derived from its count and body hash via the same
    /// [`fingerprint::loop_fp`] identity the incremental path uses.
    fn rebuild_index(&mut self) {
        let recs: Vec<NodeRec> = self.seq.iter().map(|n| self.record_of(n)).collect();
        self.recs.clear();
        self.pref.truncate(1);
        self.last.clear();
        self.loops.clear();
        for rec in recs {
            self.push_rec(rec);
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
    fn index_holds_only_resident_fingerprints() {
        // A loop's fingerprint changes with every count bump; the index
        // must drop each old one, or capture memory grows with iterations.
        let mut c = TailCompressor::new(DEFAULT_MAX_WINDOW);
        for i in 0..9_999 {
            c.push(ev(1 + i % 3, 64, 1));
        }
        assert_eq!(c.nodes().len(), 1);
        assert_eq!((c.last.len(), c.loops.len()), (1, 1));
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

    /// The streaming-capture invariant at the unit level: evict prefixes
    /// freely, but reload them before any fold whenever fewer than
    /// `2 * window + 1` nodes are resident. Then the concatenation of
    /// evicted prefix and resident tail is byte-identical to the unbounded
    /// structural fold after every single push.
    fn assert_eviction_matches_unbounded(stream: &[TraceNode], window: usize) {
        let min_resident = 2 * window + 1;
        let mut whole = Vec::new();
        let mut churned = TailCompressor::new(window);
        let mut evicted: Vec<TraceNode> = Vec::new();
        let (mut evictions, mut reloads) = (0, 0);
        for (i, n) in stream.iter().enumerate() {
            append_compressed(&mut whole, n.clone(), window);
            churned.push_raw(n.clone());
            loop {
                if churned.len() < min_resident && !evicted.is_empty() {
                    churned.prepend_nodes(std::mem::take(&mut evicted));
                    reloads += 1;
                }
                if !churned.try_fold_once() {
                    break;
                }
            }
            if churned.len() > 2 * min_resident {
                let k = churned.len() - min_resident;
                evicted.extend_from_slice(&churned.nodes()[..k]);
                churned.drop_prefix(k);
                evictions += 1;
            }
            let mut joined = evicted.clone();
            joined.extend_from_slice(churned.nodes());
            assert_eq!(joined.as_slice(), whole.as_slice(), "after push {i}");
        }
        assert!(
            evictions > 0 && reloads > 0,
            "window {window}: {evictions} evictions, {reloads} reloads"
        );
    }

    #[test]
    fn prefix_eviction_with_reload_guard_matches_unbounded() {
        let stream: Vec<TraceNode> = (0..400)
            .map(|i| {
                ev(
                    if i % 50 == 0 { 90 + i } else { 1 + (i % 4) },
                    64,
                    1 + (i % 2),
                )
            })
            .collect();
        assert_eviction_matches_unbounded(&stream, 4);
    }

    /// `reps` repetitions of a `period`-node body whose last node drifts in
    /// size on every `drift_every`-th repetition, so some repetitions fold
    /// and the sequence still grows.
    fn drifting_period(period: u64, reps: u64, drift_every: u64) -> Vec<TraceNode> {
        (0..reps)
            .flat_map(|r| {
                let bytes = if r % drift_every == 0 { 1_000 + r } else { 2 };
                (0..period)
                    .map(|s| ev(s, 64, 1 + s % 3))
                    .chain(std::iter::once(ev(period, bytes, 1)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn prefix_eviction_matches_unbounded_at_the_default_window() {
        // A reload restores `2 * 256 + 1` nodes in front of a tail whose
        // period-100 loops reach back across the cut.
        assert_eviction_matches_unbounded(&drifting_period(99, 36, 3), DEFAULT_MAX_WINDOW);
    }

    #[test]
    fn period_100_folds_at_the_default_window_and_not_at_32() {
        let stream = || (0..5).flat_map(|_| (0..100).map(|s| ev(s, 64, 1)));
        assert_matches_structural(stream(), DEFAULT_MAX_WINDOW);
        assert_matches_structural(stream(), 32);
        let folded = |window| {
            let mut c = TailCompressor::new(window);
            stream().for_each(|n| c.push(n));
            c.into_nodes()
        };
        let wide = folded(DEFAULT_MAX_WINDOW);
        assert_eq!(wide.len(), 1);
        let TraceNode::Loop(p) = &wide[0] else {
            panic!("expected one loop")
        };
        assert_eq!((p.count, p.body.len()), (5, 100));
        assert_eq!(folded(32).len(), 500);
    }

    #[test]
    fn windows_wider_than_the_power_table_fold_like_the_scan() {
        let stream = || (0..3).flat_map(|_| (0..300).map(|s| ev(s, 64, 1)));
        assert_matches_structural(stream(), 300);
        let mut c = TailCompressor::new(300);
        stream().for_each(|n| c.push(n));
        assert_eq!(c.nodes().len(), 1);
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
