//! The node codec both STBS payload kinds ([`crate::stream`]) share —
//! whole traces and capture segments — and the one error every binary
//! reader returns.
//!
//! Everything here sits inside a [`crate::frame`] frame: `enc_*` writes the
//! newest version, `dec_*` reads every version a frame can declare. Node
//! timing is exact (the full [`TimeStats`] histogram, where the text view
//! keeps count × mean), so the binary file is the lossless one. A
//! truncated, bit-flipped, unknown-version or structurally malformed file
//! decodes to [`SnapshotError::Corrupt`], never to a silently wrong trace.

use crate::frame::{Dec, Enc, V1};
use crate::params::{CommParam, RankFn, RankParam, SrcParam, ValParam};
use crate::rankset::{RankSet, Run};
use crate::timestats::TimeStats;
use crate::trace::{OpTemplate, Prsd, Rsd, TraceNode, MAX_LOOP_DEPTH};
use mpisim::types::{CollKind, TagSel};
use std::collections::BTreeMap;
use std::fmt;

/// Why an STBS file could not be read, written, or decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a valid STBS file: truncated, checksum mismatch,
    /// wrong magic/version, or structurally malformed.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "I/O error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt STBS file: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

pub(crate) fn corrupt(why: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(why.into())
}

// ------------------------------------------------------------------ codec

/// Bins of a [`TimeStats`] histogram; a record can list no more.
const BINS: usize = 64;

fn enc_stats(e: &mut Enc, s: &TimeStats) {
    let (count, sum_ns, min_ns, max_ns, bins) = s.raw();
    e.u64(count);
    e.u128(sum_ns);
    e.u64(min_ns);
    e.u64(max_ns);
    e.usize(s.non_empty_bins().count());
    for (bin, n) in bins {
        e.usize(bin);
        e.u64(n);
    }
}

/// v2 lists the non-empty bins as strictly ascending `(bin, count)` pairs;
/// v1 wrote all 64 counts at fixed width.
fn dec_stats(d: &mut Dec) -> Result<TimeStats, SnapshotError> {
    let count = d.u64()?;
    let sum_ns = d.u128()?;
    let min_ns = d.u64()?;
    let max_ns = d.u64()?;
    if d.version() == V1 {
        let bins = d
            .take(BINS * 8)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
            .enumerate();
        return Ok(TimeStats::from_raw(count, sum_ns, min_ns, max_ns, bins));
    }
    let nbins = d.len()?;
    if nbins > BINS {
        return Err(corrupt(format!("histogram lists {nbins} bins")));
    }
    let mut bins = [(0, 0); BINS];
    let mut floor = 0;
    for slot in &mut bins[..nbins] {
        let (bin, n) = (d.usize()?, d.u64()?);
        if bin < floor || bin >= BINS {
            return Err(corrupt(format!(
                "histogram bin {bin} out of order or out of range"
            )));
        }
        if n == 0 {
            return Err(corrupt(format!("histogram bin {bin} listed empty")));
        }
        floor = bin + 1;
        *slot = (bin, n);
    }
    let bins = bins[..nbins].iter().copied();
    Ok(TimeStats::from_raw(count, sum_ns, min_ns, max_ns, bins))
}

fn enc_ranks(e: &mut Enc, ranks: &RankSet) {
    e.usize(ranks.run_count());
    for run in ranks.runs() {
        e.usize(run.start);
        e.usize(run.stride);
        e.usize(run.count);
    }
}

/// Every decoder below takes the world size its ranks must stay under:
/// rank sets, `PerRank` keys and piecewise domains index per-rank state
/// downstream, and a checksum-valid file is still untrusted.
fn dec_ranks(d: &mut Dec, nranks: usize) -> Result<RankSet, SnapshotError> {
    let n = d.len()?;
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push(Run {
            start: d.usize()?,
            stride: d.usize()?,
            count: d.usize()?,
        });
    }
    RankSet::from_runs(runs, nranks).map_err(corrupt)
}

fn dec_rank(d: &mut Dec, nranks: usize) -> Result<usize, SnapshotError> {
    let r = d.usize()?;
    if r >= nranks {
        return Err(corrupt(format!("rank {r} out of range for {nranks}")));
    }
    Ok(r)
}

/// A dense `rank -> value` table.
fn dec_table<T>(
    d: &mut Dec,
    nranks: usize,
    mut value: impl FnMut(&mut Dec) -> Result<T, SnapshotError>,
) -> Result<BTreeMap<usize, T>, SnapshotError> {
    let n = d.len()?;
    let mut m = BTreeMap::new();
    for _ in 0..n {
        let r = dec_rank(d, nranks)?;
        m.insert(r, value(d)?);
    }
    Ok(m)
}

fn enc_rank_param(e: &mut Enc, p: &RankParam) {
    // canonicalize so dense and symbolic representations of the same
    // pointwise map serialize byte-identically
    match &p.canonical() {
        RankParam::Const(r) => {
            e.u8(1);
            e.usize(*r);
        }
        RankParam::Offset(d) => {
            e.u8(2);
            e.i64(*d);
        }
        RankParam::OffsetMod { offset, modulus } => {
            e.u8(3);
            e.i64(*offset);
            e.usize(*modulus);
        }
        RankParam::Xor(mask) => {
            e.u8(4);
            e.usize(*mask);
        }
        RankParam::PerRank(m) => {
            e.u8(5);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.usize(*v);
            }
        }
        RankParam::Piecewise(ps) => {
            e.u8(6);
            e.usize(ps.len());
            for (s, f) in ps {
                enc_ranks(e, s);
                match f {
                    RankFn::Const(c) => {
                        e.u8(1);
                        e.usize(*c);
                    }
                    RankFn::Offset(d) => {
                        e.u8(2);
                        e.i64(*d);
                    }
                    RankFn::OffsetMod { offset, modulus } => {
                        e.u8(3);
                        e.i64(*offset);
                        e.usize(*modulus);
                    }
                    RankFn::Xor(mask) => {
                        e.u8(4);
                        e.usize(*mask);
                    }
                }
            }
        }
    }
}

fn dec_rank_fn(d: &mut Dec) -> Result<RankFn, SnapshotError> {
    Ok(match d.u8()? {
        1 => RankFn::Const(d.usize()?),
        2 => RankFn::Offset(d.i64()?),
        3 => RankFn::OffsetMod {
            offset: d.i64()?,
            modulus: d.usize()?,
        },
        4 => RankFn::Xor(d.usize()?),
        t => return Err(corrupt(format!("bad RankFn tag {t}"))),
    })
}

/// Decode `(RankSet, T)` pieces, enforcing non-empty disjoint domains so a
/// corrupt payload cannot smuggle in an ambiguous parameter.
fn dec_pieces<T>(
    d: &mut Dec,
    nranks: usize,
    mut item: impl FnMut(&mut Dec) -> Result<T, SnapshotError>,
) -> Result<Vec<(RankSet, T)>, SnapshotError> {
    let n = d.len()?;
    if n == 0 {
        return Err(corrupt("piecewise param with no pieces"));
    }
    let mut pieces = Vec::with_capacity(n);
    for _ in 0..n {
        let s = dec_ranks(d, nranks)?;
        if s.is_empty() {
            return Err(corrupt("empty piecewise domain"));
        }
        pieces.push((s, item(d)?));
    }
    // disjointness check in one pass: the union of disjoint domains has
    // exactly the summed cardinality
    let total: usize = pieces.iter().map(|(s, _)| s.len()).sum();
    if RankSet::union_many(pieces.iter().map(|(s, _)| s)).len() != total {
        return Err(corrupt("overlapping piecewise domains"));
    }
    Ok(pieces)
}

fn dec_rank_param(d: &mut Dec, nranks: usize) -> Result<RankParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => RankParam::Const(d.usize()?),
        2 => RankParam::Offset(d.i64()?),
        3 => RankParam::OffsetMod {
            offset: d.i64()?,
            modulus: d.usize()?,
        },
        4 => RankParam::Xor(d.usize()?),
        5 => RankParam::PerRank(dec_table(d, nranks, |d| dec_rank(d, nranks))?),
        6 => RankParam::Piecewise(dec_pieces(d, nranks, dec_rank_fn)?),
        t => return Err(corrupt(format!("bad RankParam tag {t}"))),
    })
}

fn enc_val_param(e: &mut Enc, p: &ValParam) {
    match &p.canonical() {
        ValParam::Const(v) => {
            e.u8(1);
            e.u64(*v);
        }
        ValParam::PerRank(m) => {
            e.u8(2);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.u64(*v);
            }
        }
        ValParam::Linear { base, slope } => {
            e.u8(3);
            e.i64(*base);
            e.i64(*slope);
        }
        ValParam::Piecewise(ps) => {
            e.u8(4);
            e.usize(ps.len());
            for (s, v) in ps {
                enc_ranks(e, s);
                e.u64(*v);
            }
        }
    }
}

fn dec_val_param(d: &mut Dec, nranks: usize) -> Result<ValParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => ValParam::Const(d.u64()?),
        2 => ValParam::PerRank(dec_table(d, nranks, |d| d.u64())?),
        3 => ValParam::Linear {
            base: d.i64()?,
            slope: d.i64()?,
        },
        4 => ValParam::Piecewise(dec_pieces(d, nranks, |d| d.u64())?),
        t => return Err(corrupt(format!("bad ValParam tag {t}"))),
    })
}

fn enc_comm_param(e: &mut Enc, p: &CommParam) {
    match &p.canonical() {
        CommParam::Const(c) => {
            e.u8(1);
            e.u32(*c);
        }
        CommParam::PerRank(m) => {
            e.u8(2);
            e.usize(m.len());
            for (r, v) in m {
                e.usize(*r);
                e.u32(*v);
            }
        }
        CommParam::Piecewise(ps) => {
            e.u8(3);
            e.usize(ps.len());
            for (s, c) in ps {
                enc_ranks(e, s);
                e.u32(*c);
            }
        }
    }
}

fn dec_comm_param(d: &mut Dec, nranks: usize) -> Result<CommParam, SnapshotError> {
    Ok(match d.u8()? {
        1 => CommParam::Const(d.u32()?),
        2 => CommParam::PerRank(dec_table(d, nranks, |d| d.u32())?),
        3 => CommParam::Piecewise(dec_pieces(d, nranks, |d| d.u32())?),
        t => return Err(corrupt(format!("bad CommParam tag {t}"))),
    })
}

fn enc_op(e: &mut Enc, op: &OpTemplate) {
    match op {
        OpTemplate::Send {
            to,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            e.u8(0);
            enc_rank_param(e, to);
            e.i64(*tag as i64);
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
            e.bool(*blocking);
        }
        OpTemplate::Recv {
            from,
            tag,
            bytes,
            comm,
            blocking,
        } => {
            e.u8(1);
            match from {
                SrcParam::Any => e.u8(0),
                SrcParam::Rank(r) => {
                    e.u8(1);
                    enc_rank_param(e, r);
                }
            }
            match tag {
                TagSel::Any => e.u8(0),
                TagSel::Is(t) => {
                    e.u8(1);
                    e.i64(*t as i64);
                }
            }
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
            e.bool(*blocking);
        }
        OpTemplate::Wait { count } => {
            e.u8(2);
            enc_val_param(e, count);
        }
        OpTemplate::Coll {
            kind,
            root,
            bytes,
            comm,
        } => {
            e.u8(3);
            let idx = CollKind::ALL.iter().position(|k| k == kind).unwrap();
            e.u8(idx as u8);
            match root {
                None => e.u8(0),
                Some(r) => {
                    e.u8(1);
                    enc_rank_param(e, r);
                }
            }
            enc_val_param(e, bytes);
            enc_comm_param(e, comm);
        }
        // A constant result keeps the tag-4 layout older readers know; any
        // other form takes tag 5, which they refuse as corrupt.
        OpTemplate::CommSplit { parent, result } => match result.canonical() {
            CommParam::Const(c) => {
                e.u8(4);
                e.u32(*parent);
                e.u32(c);
            }
            _ => {
                e.u8(5);
                e.u32(*parent);
                enc_comm_param(e, result);
            }
        },
    }
}

fn dec_tag(v: i64) -> Result<i32, SnapshotError> {
    i32::try_from(v).map_err(|_| corrupt("tag out of range"))
}

fn dec_op(d: &mut Dec, nranks: usize) -> Result<OpTemplate, SnapshotError> {
    Ok(match d.u8()? {
        0 => OpTemplate::Send {
            to: dec_rank_param(d, nranks)?,
            tag: dec_tag(d.i64()?)?,
            bytes: dec_val_param(d, nranks)?,
            comm: dec_comm_param(d, nranks)?,
            blocking: d.bool()?,
        },
        1 => {
            let from = match d.u8()? {
                0 => SrcParam::Any,
                1 => SrcParam::Rank(dec_rank_param(d, nranks)?),
                t => return Err(corrupt(format!("bad SrcParam tag {t}"))),
            };
            let tag = match d.u8()? {
                0 => TagSel::Any,
                1 => TagSel::Is(dec_tag(d.i64()?)?),
                t => return Err(corrupt(format!("bad TagSel tag {t}"))),
            };
            OpTemplate::Recv {
                from,
                tag,
                bytes: dec_val_param(d, nranks)?,
                comm: dec_comm_param(d, nranks)?,
                blocking: d.bool()?,
            }
        }
        2 => OpTemplate::Wait {
            count: dec_val_param(d, nranks)?,
        },
        3 => {
            let idx = d.u8()? as usize;
            let kind = *CollKind::ALL
                .get(idx)
                .ok_or_else(|| corrupt(format!("bad CollKind index {idx}")))?;
            let root = match d.u8()? {
                0 => None,
                1 => Some(dec_rank_param(d, nranks)?),
                t => return Err(corrupt(format!("bad root tag {t}"))),
            };
            OpTemplate::Coll {
                kind,
                root,
                bytes: dec_val_param(d, nranks)?,
                comm: dec_comm_param(d, nranks)?,
            }
        }
        4 => OpTemplate::CommSplit {
            parent: d.u32()?,
            result: CommParam::Const(d.u32()?),
        },
        5 => OpTemplate::CommSplit {
            parent: d.u32()?,
            result: dec_comm_param(d, nranks)?,
        },
        t => return Err(corrupt(format!("bad OpTemplate tag {t}"))),
    })
}

fn enc_node(e: &mut Enc, node: &TraceNode) {
    match node {
        TraceNode::Event(r) => {
            e.u8(0);
            enc_ranks(e, &r.ranks);
            e.fixed64(r.sig);
            enc_op(e, &r.op);
            enc_stats(e, &r.compute);
        }
        TraceNode::Loop(p) => {
            e.u8(1);
            e.u64(p.count);
            enc_nodes(e, &p.body);
        }
    }
}

/// A counted node sequence: a loop body, or a payload's top level.
pub(crate) fn enc_nodes(e: &mut Enc, nodes: &[TraceNode]) {
    e.usize(nodes.len());
    for n in nodes {
        enc_node(e, n);
    }
}

fn dec_node(d: &mut Dec, nranks: usize, depth: usize) -> Result<TraceNode, SnapshotError> {
    if depth > MAX_LOOP_DEPTH {
        return Err(corrupt("loop nesting too deep"));
    }
    Ok(match d.u8()? {
        0 => TraceNode::Event(Rsd {
            ranks: dec_ranks(d, nranks)?,
            sig: d.fixed64()?,
            op: dec_op(d, nranks)?,
            compute: dec_stats(d)?,
        }),
        1 => TraceNode::Loop(Prsd {
            count: d.u64()?,
            body: dec_nodes(d, nranks, depth + 1)?,
        }),
        t => return Err(corrupt(format!("bad TraceNode tag {t}"))),
    })
}

/// A counted node sequence (`depth` 0 for a payload's top level), every
/// rank in it below `nranks`. Callers finish with
/// [`crate::trace::check_well_formed`].
pub(crate) fn dec_nodes(
    d: &mut Dec,
    nranks: usize,
    depth: usize,
) -> Result<Vec<TraceNode>, SnapshotError> {
    let n = d.len()?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(dec_node(d, nranks, depth)?);
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    //! The codec through its one front door: whole-trace STBS bytes
    //! ([`crate::stream::trace_to_bytes`] / [`crate::stream::trace_from_bytes`]).
    use super::*;
    use crate::compress::{TailCompressor, DEFAULT_MAX_WINDOW};
    use crate::frame::refresh_checksum;
    use crate::stream::{trace_from_bytes, trace_to_bytes};
    use crate::trace::{CommTable, Trace};
    use mpisim::time::SimDuration;

    fn sample_trace() -> Trace {
        // Drive nodes through the real compressor so loops and pooled
        // histograms exist in the encoded sequence.
        let mut c = TailCompressor::new(DEFAULT_MAX_WINDOW);
        for i in 0..40u64 {
            c.push(TraceNode::Event(Rsd {
                ranks: RankSet::single(1),
                sig: 10 + (i % 3),
                op: OpTemplate::Send {
                    to: RankParam::Offset(1),
                    tag: 7,
                    bytes: ValParam::Const(64),
                    comm: CommParam::Const(0),
                    blocking: i % 2 == 0,
                },
                compute: TimeStats::of(SimDuration::from_usecs(i)),
            }));
        }
        let mut comms = CommTable::world(4);
        comms.insert(1, vec![0, 2]);
        Trace {
            nranks: 4,
            nodes: c.into_nodes(),
            comms,
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let t = sample_trace();
        // the folded loop bodies pool enough distinct times to hold both
        // histogram forms: a few bins inline, and the boxed dense spill
        fn occupancy(nodes: &[TraceNode], out: &mut Vec<usize>) {
            for n in nodes {
                match n {
                    TraceNode::Event(r) => out.push(r.compute.non_empty_bins().count()),
                    TraceNode::Loop(p) => occupancy(&p.body, out),
                }
            }
        }
        let mut bins = Vec::new();
        occupancy(&t.nodes, &mut bins);
        assert!(bins.iter().any(|&b| b > 3), "no spilled histogram");
        assert!(bins.iter().any(|&b| b <= 3), "no inline histogram");
        let bytes = trace_to_bytes(&t);
        let back = trace_from_bytes(&bytes).expect("decodes");
        assert_eq!(back, t);
        // re-encoding the decoded trace is byte-identical
        assert_eq!(trace_to_bytes(&back), bytes);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = trace_to_bytes(&sample_trace());
        for cut in 0..bytes.len() {
            assert!(
                trace_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        let bytes = trace_to_bytes(&sample_trace());
        // Flip one bit per byte position; the checksum (or a structural
        // check) must catch every one of them.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                trace_from_bytes(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let t = sample_trace();
        for version in [0u8, 3, 99] {
            let mut bytes = trace_to_bytes(&t);
            bytes[4] = version; // version lives right after the 4-byte magic
            refresh_checksum(&mut bytes);
            let err = trace_from_bytes(&bytes).expect_err("wrong version must not decode");
            let want = format!("unsupported version {version}");
            assert!(err.to_string().contains(&want), "{err}");
        }
    }

    #[test]
    fn statistics_records_obey_the_histogram_invariants() {
        // One event whose statistics are the payload's last bytes, so a
        // hand-written record can replace them.
        let t = Trace {
            nranks: 1,
            nodes: vec![TraceNode::Event(Rsd {
                ranks: RankSet::single(0),
                sig: 1,
                op: OpTemplate::Wait {
                    count: ValParam::Const(1),
                },
                compute: TimeStats::of(SimDuration::from_nanos(5)),
            })],
            comms: CommTable::world(1),
        };
        let good = trace_to_bytes(&t);
        // count 1 · sum 5 · min 5 · max 5 · nbins 1 · (bin 3, count 1)
        let record = [1, 5, 5, 5, 1, 3, 1];
        let at = good.len() - 8 - record.len();
        assert_eq!(good[at..good.len() - 8], record);
        let with = |record: &[u8]| {
            let mut bytes = good[..at].to_vec();
            bytes.extend_from_slice(record);
            bytes.extend_from_slice(&[0; 8]);
            refresh_checksum(&mut bytes);
            trace_from_bytes(&bytes)
        };
        assert_eq!(with(&record).unwrap(), t);
        for (bad, why) in [
            (&[1, 5, 5, 5, 1, 64, 1][..], "bin 64 out of"),
            (&[2, 10, 5, 5, 2, 3, 1, 3, 1][..], "bin 3 out of"),
            (&[2, 10, 5, 5, 2, 3, 1, 2, 1][..], "bin 2 out of"),
            (&[1, 5, 5, 5, 1, 3, 0][..], "listed empty"),
            (&[1, 5, 5, 5, 65][..], "length exceeds payload"),
        ] {
            let err = with(bad).expect_err(why).to_string();
            assert!(err.contains(why), "{bad:?}: {err}");
        }
        let mut many = vec![1, 5, 5, 5, 65];
        many.extend((0..65).flat_map(|b| [b, 1]));
        let err = with(&many).expect_err("65 bins").to_string();
        assert!(err.contains("lists 65 bins"), "{err}");
    }

    /// One split of the world into comm 1 = {0, 1} and comm 2 = {2, 3},
    /// over `ranks`.
    fn split_trace(ranks: RankSet, result: CommParam) -> Trace {
        let mut comms = CommTable::world(4);
        comms.insert(1, vec![0, 1]);
        comms.insert(2, vec![2, 3]);
        Trace {
            nranks: 4,
            nodes: vec![TraceNode::Event(Rsd {
                ranks,
                sig: 9,
                op: OpTemplate::CommSplit { parent: 0, result },
                compute: TimeStats::of(SimDuration::from_nanos(5)),
            })],
            comms,
        }
    }

    fn piecewise_split() -> Trace {
        let result = CommParam::Piecewise(vec![
            (RankSet::from_ranks([0, 1]), 1),
            (RankSet::from_ranks([2, 3]), 2),
        ]);
        split_trace(RankSet::all(4), result)
    }

    #[test]
    fn a_constant_split_result_keeps_the_tag_4_bytes() {
        // The bytes a reader that knows only tag 4 decodes: op tag 4, then
        // parent 0 and result 1 as bare ids.
        let t = split_trace(RankSet::from_ranks([0, 1]), CommParam::Const(1));
        let hex: String = trace_to_bytes(&t)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "535442530200000000040300040001020301020001020202030100010001020900000000000000040001010505050103010b499105627a586a"
        );
        assert_eq!(trace_from_bytes(&trace_to_bytes(&t)).unwrap(), t);
        // a table that reads as one id is written the same way
        let table = CommParam::PerRank([(0, 1), (1, 1)].into_iter().collect());
        let t2 = split_trace(RankSet::from_ranks([0, 1]), table);
        assert_eq!(trace_to_bytes(&t2), trace_to_bytes(&t));
    }

    #[test]
    fn a_per_rank_split_result_round_trips_under_tag_5() {
        let t = piecewise_split();
        let bytes = trace_to_bytes(&t);
        let back = trace_from_bytes(&bytes).expect("decodes");
        assert_eq!(back, t);
        assert_eq!(trace_to_bytes(&back), bytes);
    }

    #[test]
    fn a_tag_5_payload_cut_short_is_corrupt() {
        // Each cut keeps a valid checksum, so the node decoder itself must
        // refuse what is missing.
        let good = trace_to_bytes(&piecewise_split());
        let body = good.len() - 8;
        for cut in 8..body {
            let mut bytes = good[..cut].to_vec();
            bytes.extend_from_slice(&[0; 8]);
            refresh_checksum(&mut bytes);
            match trace_from_bytes(&bytes) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }
}
