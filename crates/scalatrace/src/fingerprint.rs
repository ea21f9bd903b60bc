//! Structural fingerprints for trace nodes.
//!
//! Each [`TraceNode`] is summarised by a 64-bit hash of exactly the
//! structure that [`TraceNode::foldable_with`] compares: the stack
//! signature, the rank set, and every operation parameter — but *not* the
//! timing histograms, which folding absorbs rather than compares. The
//! invariant the compressor relies on is therefore one-directional:
//!
//! > `a.foldable_with(b)` implies `fp(a) == fp(b)`.
//!
//! Hash collisions in the other direction are harmless: the compressor
//! confirms every fingerprint hit with a structural comparison before
//! folding, so a collision costs one wasted comparison, never a wrong fold.
//!
//! The fingerprint is computed once per *appended* node, so its cost is on
//! the tracing hot path (one event per interposed MPI call). The node walk
//! therefore feeds a word-at-a-time multiply-rotate mixer ([`Mix`], FxHash
//! construction with a splitmix64 finaliser) rather than a byte-at-a-time
//! FNV: structural fields are already integers, and on fold-friendly
//! streams — where the seed algorithm's structural compares fail fast and
//! cheap — per-byte hashing is the difference between fingerprinting
//! paying for itself and slowing tracing down.
//!
//! Loop fingerprints are derived from the iteration count, the body length,
//! and a left-to-right polynomial combination of the body fingerprints (base
//! [`POLY_BASE`]) — the same convention [`crate::compress::TailCompressor`]
//! uses for its rolling window hashes, so a loop's body hash compares
//! directly against a tail-window hash without rehashing the window.

//!
//! A second fingerprint family serves the inter-rank merge: [`shape_fp`]
//! hashes exactly what [`crate::merge::mergeable`] compares — the signature
//! and the *op shape* ([`crate::trace::same_op_shape`]), but neither rank
//! sets nor parameter values nor timing. Two per-rank sequences with equal
//! whole-sequence shape digests ([`SeqDigest`]) are candidates for the same
//! merge equivalence class; the merge confirms every digest hit
//! structurally, so the same one-directional invariant holds:
//!
//! > `same_node_shape(a, b)` implies `shape_fp(a) == shape_fp(b)`.

use crate::params::{CommParam, RankParam, SrcParam, ValParam};
use crate::rankset::RankSet;
use crate::trace::{OpTemplate, Rsd, TraceNode};
use mpisim::types::TagSel;

/// Base of the polynomial window/body hashes (the FNV-1a prime; odd, so
/// multiplication by it is invertible mod 2^64).
pub const POLY_BASE: u64 = 0x0000_0100_0000_01b3;

/// Word-at-a-time structural hasher: FxHash-style rotate-xor-multiply per
/// word, splitmix64 avalanche on finish. Quality only has to be good
/// enough to make spurious fold confirms rare — never correct, since every
/// hit is structurally confirmed.
struct Mix(u64);

impl Mix {
    /// FxHash's 64-bit multiplier (π in fixed point).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn new(tag: u64) -> Mix {
        let mut m = Mix(0);
        m.word(tag);
        m
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Mix::K);
    }

    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(buf));
        }
    }

    fn finish(self) -> u64 {
        // splitmix64 finaliser: the per-word mix is weak in its low bits,
        // and the polynomial window hashes amplify structure, so avalanche
        // once per node.
        let mut z = self.0;
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Combine a sequence of node fingerprints left-to-right:
/// `h_0 = 0`, `h_{i+1} = h_i * POLY_BASE + fp_i` (wrapping).
pub fn combine_seq(fps: impl IntoIterator<Item = u64>) -> u64 {
    fps.into_iter()
        .fold(0u64, |h, fp| h.wrapping_mul(POLY_BASE).wrapping_add(fp))
}

/// Fingerprint of a loop node, given its iteration count and the body
/// summary. Exposed so the compressor can re-fingerprint a loop in O(1)
/// when a fold bumps its count (the body is untouched by folding).
pub fn loop_fp(count: u64, body_len: usize, body_hash: u64) -> u64 {
    let mut h = Mix::new(0x02);
    h.word(count);
    h.word(body_len as u64);
    h.word(body_hash);
    h.finish()
}

/// Structural fingerprint of a node. Recursive over loop bodies; the
/// compressor calls this once per appended node and maintains everything
/// else incrementally.
pub fn node_fp(node: &TraceNode) -> u64 {
    match node {
        TraceNode::Event(r) => event_fp(r),
        TraceNode::Loop(p) => {
            let body_hash = combine_seq(p.body.iter().map(node_fp));
            loop_fp(p.count, p.body.len(), body_hash)
        }
    }
}

fn event_fp(r: &Rsd) -> u64 {
    let mut h = Mix::new(0x01);
    h.word(r.sig);
    write_ranks(&mut h, &r.ranks);
    write_op(&mut h, &r.op);
    h.finish()
}

fn write_ranks(h: &mut Mix, ranks: &RankSet) {
    h.word(ranks.run_count() as u64);
    for run in ranks.runs() {
        h.word(run.start as u64);
        h.word(run.stride as u64);
        h.word(run.count as u64);
    }
}

fn write_op(h: &mut Mix, op: &OpTemplate) {
    match op {
        OpTemplate::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            h.word(0x10 | ((*blocking as u64) << 8));
            write_rank_param(h, to);
            h.word(*tag as u64);
            write_val_param(h, bytes);
            write_comm_param(h, comm);
        }
        OpTemplate::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            h.word(0x11 | ((*blocking as u64) << 8));
            match from {
                SrcParam::Any => h.word(0x00),
                SrcParam::Rank(r) => {
                    h.word(0x01);
                    write_rank_param(h, r);
                }
            }
            match tag {
                TagSel::Any => h.word(0x00),
                TagSel::Is(t) => {
                    h.word(0x01);
                    h.word(*t as u64);
                }
            }
            write_val_param(h, bytes);
            write_comm_param(h, comm);
        }
        OpTemplate::Wait { count } => {
            h.word(0x12);
            write_val_param(h, count);
        }
        OpTemplate::Coll {
            kind,
            root,
            bytes,
            comm,
        } => {
            h.word(0x13);
            // Hash the stable MPI routine name, not the enum discriminant,
            // so reordering CollKind variants cannot silently change
            // fingerprints.
            h.str(kind.mpi_name());
            match root {
                None => h.word(0x00),
                Some(r) => {
                    h.word(0x01);
                    write_rank_param(h, r);
                }
            }
            write_val_param(h, bytes);
            write_comm_param(h, comm);
        }
        OpTemplate::CommSplit { parent, result } => {
            h.word(0x14);
            h.word(*parent as u64);
            write_comm_param(h, result);
        }
    }
}

/// Shape-level fingerprint of a node: a hash of exactly the structure
/// [`crate::merge::mergeable`] compares across ranks — signature and op
/// shape ([`crate::trace::same_op_shape`]); loops add count, body length,
/// and the body's shape hashes. Rank sets, parameter *values*, and timing
/// are deliberately excluded: those are what the merge unifies, not what it
/// matches on. Distinct domain tags keep shape fingerprints from colliding
/// with the structural [`node_fp`] family by construction.
pub fn shape_fp(node: &TraceNode) -> u64 {
    match node {
        TraceNode::Event(r) => {
            let mut h = Mix::new(0x21);
            h.word(r.sig);
            write_op_shape(&mut h, &r.op);
            h.finish()
        }
        TraceNode::Loop(p) => {
            let body_hash = combine_seq(p.body.iter().map(shape_fp));
            let mut h = Mix::new(0x22);
            h.word(p.count);
            h.word(p.body.len() as u64);
            h.word(body_hash);
            h.finish()
        }
    }
}

/// Hash the fields [`crate::trace::same_op_shape`] compares — and only
/// those. `Coll` roots are not hashed: equal kinds imply equal rootedness.
fn write_op_shape(h: &mut Mix, op: &OpTemplate) {
    match op {
        OpTemplate::Send { tag, blocking, .. } => {
            h.word(0x10 | ((*blocking as u64) << 8));
            h.word(*tag as u64);
        }
        OpTemplate::Recv {
            from,
            tag,
            blocking,
            ..
        } => {
            h.word(0x11 | ((*blocking as u64) << 8));
            h.word(from.is_wildcard() as u64);
            match tag {
                TagSel::Any => h.word(0x00),
                TagSel::Is(t) => {
                    h.word(0x01);
                    h.word(*t as u64);
                }
            }
        }
        OpTemplate::Wait { .. } => h.word(0x12),
        OpTemplate::Coll { kind, .. } => {
            h.word(0x13);
            h.str(kind.mpi_name());
        }
        OpTemplate::CommSplit { parent, .. } => {
            h.word(0x14);
            h.word(*parent as u64);
        }
    }
}

/// Incremental whole-sequence shape digest.
///
/// Maintains the left-to-right polynomial combination of per-node
/// [`shape_fp`]s (same [`POLY_BASE`] convention as the compressor's window
/// hashes) together with the length, and avalanches both on
/// [`SeqDigest::finish`]. The merge computes one digest per rank in a
/// single O(sequence) pass and buckets ranks by the result; pushing is
/// O(node), so callers that build sequences incrementally (the tree
/// reduce's merged outputs) can keep a running digest instead of
/// re-walking.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqDigest {
    hash: u64,
    len: u64,
}

impl SeqDigest {
    /// An empty digest.
    pub fn new() -> SeqDigest {
        SeqDigest::default()
    }

    /// Append a node's shape fingerprint.
    #[inline]
    pub fn push_fp(&mut self, fp: u64) {
        self.hash = self.hash.wrapping_mul(POLY_BASE).wrapping_add(fp);
        self.len += 1;
    }

    /// Append a node (computes its [`shape_fp`]).
    pub fn push(&mut self, node: &TraceNode) {
        self.push_fp(shape_fp(node));
    }

    /// Nodes pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// No nodes pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The finished 64-bit digest (length-aware, avalanched).
    pub fn finish(&self) -> u64 {
        let mut h = Mix::new(0x23);
        h.word(self.len);
        h.word(self.hash);
        h.finish()
    }
}

/// Whole-sequence shape digest in one pass.
pub fn seq_shape_fp(nodes: &[TraceNode]) -> u64 {
    let mut d = SeqDigest::new();
    for n in nodes {
        d.push(n);
    }
    d.finish()
}

fn write_rank_param(h: &mut Mix, p: &RankParam) {
    match p {
        RankParam::Const(c) => {
            h.word(0x01);
            h.word(*c as u64);
        }
        RankParam::Offset(d) => {
            h.word(0x02);
            h.word(*d as u64);
        }
        RankParam::OffsetMod { offset, modulus } => {
            h.word(0x03);
            h.word(*offset as u64);
            h.word(*modulus as u64);
        }
        RankParam::Xor(mask) => {
            h.word(0x04);
            h.word(*mask as u64);
        }
        RankParam::PerRank(m) => {
            h.word(0x05);
            h.word(m.len() as u64);
            for (r, v) in m {
                h.word(*r as u64);
                h.word(*v as u64);
            }
        }
        RankParam::Piecewise(ps) => {
            h.word(0x06);
            h.word(ps.len() as u64);
            for (s, f) in ps {
                write_rank_set(h, s);
                match f {
                    crate::params::RankFn::Const(c) => {
                        h.word(0x01);
                        h.word(*c as u64);
                    }
                    crate::params::RankFn::Offset(d) => {
                        h.word(0x02);
                        h.word(*d as u64);
                    }
                    crate::params::RankFn::OffsetMod { offset, modulus } => {
                        h.word(0x03);
                        h.word(*offset as u64);
                        h.word(*modulus as u64);
                    }
                    crate::params::RankFn::Xor(mask) => {
                        h.word(0x04);
                        h.word(*mask as u64);
                    }
                }
            }
        }
    }
}

fn write_rank_set(h: &mut Mix, s: &crate::rankset::RankSet) {
    let runs = s.runs();
    h.word(runs.len() as u64);
    for r in runs {
        h.word(r.start as u64);
        h.word(r.stride as u64);
        h.word(r.count as u64);
    }
}

fn write_comm_param(h: &mut Mix, p: &CommParam) {
    match p {
        CommParam::Const(c) => {
            h.word(0x01);
            h.word(*c as u64);
        }
        CommParam::PerRank(m) => {
            h.word(0x02);
            h.word(m.len() as u64);
            for (r, v) in m {
                h.word(*r as u64);
                h.word(*v as u64);
            }
        }
        CommParam::Piecewise(ps) => {
            h.word(0x03);
            h.word(ps.len() as u64);
            for (s, c) in ps {
                write_rank_set(h, s);
                h.word(*c as u64);
            }
        }
    }
}

fn write_val_param(h: &mut Mix, p: &ValParam) {
    match p {
        ValParam::Const(c) => {
            h.word(0x01);
            h.word(*c);
        }
        ValParam::PerRank(m) => {
            h.word(0x02);
            h.word(m.len() as u64);
            for (r, v) in m {
                h.word(*r as u64);
                h.word(*v);
            }
        }
        ValParam::Linear { base, slope } => {
            h.word(0x03);
            h.word(*base as u64);
            h.word(*slope as u64);
        }
        ValParam::Piecewise(ps) => {
            h.word(0x04);
            h.word(ps.len() as u64);
            for (s, v) in ps {
                write_rank_set(h, s);
                h.word(*v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestats::TimeStats;
    use crate::trace::Prsd;
    use mpisim::time::SimDuration;

    fn ev(sig: u64, bytes: u64, us: u64) -> TraceNode {
        TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig,
            op: OpTemplate::Send {
                to: RankParam::Const(1),
                tag: 0,
                bytes: ValParam::Const(bytes),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(us)),
        })
    }

    #[test]
    fn foldable_nodes_have_equal_fps() {
        // differ only in timing — foldable, so fingerprints must agree
        let a = ev(7, 64, 10);
        let b = ev(7, 64, 9999);
        assert!(a.foldable_with(&b));
        assert_eq!(node_fp(&a), node_fp(&b));
    }

    #[test]
    fn structural_differences_change_fp() {
        let base = ev(7, 64, 10);
        assert_ne!(node_fp(&base), node_fp(&ev(8, 64, 10)), "sig");
        assert_ne!(node_fp(&base), node_fp(&ev(7, 128, 10)), "bytes");
        let other_rank = TraceNode::Event(Rsd {
            ranks: RankSet::single(1),
            ..match ev(7, 64, 10) {
                TraceNode::Event(r) => r,
                _ => unreachable!(),
            }
        });
        assert_ne!(node_fp(&base), node_fp(&other_rank), "ranks");
    }

    #[test]
    fn loop_fp_matches_recursive_and_incremental_paths() {
        let body = vec![ev(1, 64, 1), ev(2, 8, 1)];
        let node = TraceNode::Loop(Prsd {
            count: 5,
            body: body.clone(),
        });
        let body_hash = combine_seq(body.iter().map(node_fp));
        assert_eq!(node_fp(&node), loop_fp(5, 2, body_hash));
        // bumping the count changes the fp, body hash unchanged
        let bumped = TraceNode::Loop(Prsd { count: 6, body });
        assert_eq!(node_fp(&bumped), loop_fp(6, 2, body_hash));
        assert_ne!(node_fp(&node), node_fp(&bumped));
    }

    #[test]
    fn event_vs_loop_never_collide_by_construction_tag() {
        let e = ev(1, 64, 1);
        let l = TraceNode::Loop(Prsd {
            count: 1,
            body: vec![ev(1, 64, 1)],
        });
        assert_ne!(node_fp(&e), node_fp(&l));
    }

    #[test]
    fn shape_fp_ignores_ranks_params_and_timing() {
        // Same sig + op shape on different ranks with different parameter
        // values and timings: mergeable across ranks, so shape fps agree.
        let a = ev(7, 64, 10);
        let b = TraceNode::Event(Rsd {
            ranks: RankSet::single(3),
            sig: 7,
            op: OpTemplate::Send {
                to: RankParam::Const(4),
                tag: 0,
                bytes: ValParam::Const(9999),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(123)),
        });
        assert!(crate::merge::mergeable(&a, &b));
        assert_eq!(shape_fp(&a), shape_fp(&b));
        assert_ne!(node_fp(&a), node_fp(&b), "node_fp still sees ranks/params");
    }

    #[test]
    fn shape_fp_separates_what_mergeable_separates() {
        let base = ev(7, 64, 10);
        // different sig
        assert_ne!(shape_fp(&base), shape_fp(&ev(8, 64, 10)));
        // different blocking
        let nonblocking = TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig: 7,
            op: OpTemplate::Send {
                to: RankParam::Const(1),
                tag: 0,
                bytes: ValParam::Const(64),
                comm: CommParam::Const(0),
                blocking: false,
            },
            compute: TimeStats::new(),
        });
        assert_ne!(shape_fp(&base), shape_fp(&nonblocking));
        // wildcard vs concrete recv
        let recv = |from| {
            TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig: 5,
                op: OpTemplate::Recv {
                    from,
                    tag: TagSel::Any,
                    bytes: ValParam::Const(8),
                    comm: CommParam::Const(0),
                    blocking: true,
                },
                compute: TimeStats::new(),
            })
        };
        assert_ne!(
            shape_fp(&recv(SrcParam::Any)),
            shape_fp(&recv(SrcParam::Rank(RankParam::Const(0))))
        );
        // loop count / body are part of the shape
        let lp = |count| {
            TraceNode::Loop(Prsd {
                count,
                body: vec![ev(1, 64, 1)],
            })
        };
        assert_ne!(shape_fp(&lp(10)), shape_fp(&lp(20)));
        assert_ne!(shape_fp(&lp(1)), shape_fp(&ev(1, 64, 1)));
    }

    #[test]
    fn seq_digest_is_incremental_and_order_sensitive() {
        let nodes = vec![ev(1, 64, 1), ev(2, 8, 1), ev(3, 16, 2)];
        let mut d = SeqDigest::new();
        for n in &nodes {
            d.push(n);
        }
        assert_eq!(d.finish(), seq_shape_fp(&nodes));
        assert_eq!(d.len(), 3);
        let swapped = vec![ev(2, 8, 1), ev(1, 64, 1), ev(3, 16, 2)];
        assert_ne!(seq_shape_fp(&nodes), seq_shape_fp(&swapped));
        // length-aware: a prefix never digests equal to the whole
        assert_ne!(seq_shape_fp(&nodes[..2]), seq_shape_fp(&nodes));
        assert_ne!(seq_shape_fp(&[]), seq_shape_fp(&nodes[..1]));
    }

    #[test]
    fn string_hashing_separates_lengths_and_contents() {
        let h = |s: &str| {
            let mut m = Mix::new(0);
            m.str(s);
            m.finish()
        };
        assert_ne!(h("MPI_Bcast"), h("MPI_Reduce"));
        assert_ne!(h("MPI_Allgather"), h("MPI_Allgatherv"));
        assert_eq!(h("MPI_Bcast"), h("MPI_Bcast"));
    }
}
