//! Versioned, checksummed binary checkpoints of per-rank trace-capture
//! state, and run entry points that resume tracing from them.
//!
//! A checkpoint freezes everything a [`Tracer`] knows: the compressed node
//! sequence (with exact timing histograms — the text rendering is lossy,
//! checkpoints are not), the communicator table, the last-exit clock, and
//! the event count. The file is a [`crate::frame`] frame, std-only binary:
//!
//! ```text
//! magic "STCP" · version u32 · payload · FNV-1a checksum u64
//! ```
//!
//! written at the newest version (varint integers, sparse statistics) and
//! read at every version ever written. A truncated, bit-flipped, or
//! unknown-version file decodes to [`SnapshotError::Corrupt`], never to a
//! silently wrong tracer. This module also owns the node codec the STBS
//! files ([`crate::stream`]) share.
//!
//! # Deterministic re-entry
//!
//! Restoring does **not** fast-forward the simulator — virtual time costs
//! nothing to re-run. Instead, a resumed run re-executes the application
//! from virtual t=0 under the bit-deterministic engine; the restored tracer
//! skips its first `events_seen` deliveries (they are exactly the events
//! the checkpoint already captured, reproduced with identical payloads and
//! virtual timestamps) and then continues appending where the checkpoint
//! left off. This is message-logging-style recovery with the simulator as
//! the log: the *expensive* state — compressed trace structure and
//! histograms — is never recomputed, and the result is provably
//! byte-identical to an uninterrupted run (`tests/checkpoint.rs` checks
//! this differentially across random programs and seeded fault plans).

use crate::collect::{PartialTracedRun, Tracer};
use crate::compress::TailCompressor;
use crate::frame::{dec_comms, dec_nranks, enc_comms, write_atomic, Dec, Enc, V1};
use crate::merge::merge_tracers;
use crate::params::{CommParam, RankFn, RankParam, SrcParam, ValParam};
use crate::rankset::{RankSet, Run};
use crate::timestats::TimeStats;
use crate::trace::{check_well_formed, OpTemplate, Prsd, Rsd, TraceNode, MAX_LOOP_DEPTH};
use mpisim::ctx::Ctx;
use mpisim::hooks::{Event, Hook};
use mpisim::time::{SimDuration, SimTime};
use mpisim::types::{CollKind, TagSel};
use mpisim::world::World;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// File magic of a tracer checkpoint ("ScalaTrace CheckPoint").
pub const MAGIC: [u8; 4] = *b"STCP";

/// Largest fold window the decoder accepts: the compressor allocates a
/// table of this many entries up front, so a crafted value must not reach
/// it (the default window is 32).
const MAX_WINDOW: usize = 1 << 20;

/// Why a checkpoint could not be read, written, or decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// The checkpoint file could not be read or written.
    Io(std::io::Error),
    /// The bytes are not a valid checkpoint: truncated, checksum mismatch,
    /// wrong magic/version, or structurally malformed.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
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
        OpTemplate::CommSplit { parent, result } => {
            e.u8(4);
            e.u32(*parent);
            e.u32(*result);
        }
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
            result: d.u32()?,
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
/// rank in it below `nranks`. Callers finish with [`check_well_formed`].
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

// ----------------------------------------------------------- tracer frame

/// Serialise a tracer's full capture state into a framed, checksummed
/// checkpoint (the exact inverse of [`tracer_from_checkpoint`]).
pub fn checkpoint_bytes(t: &Tracer) -> Vec<u8> {
    let mut e = Enc::open(MAGIC);
    e.usize(t.rank());
    e.usize(t.nranks());
    e.u64(t.events_seen);
    e.u64(t.last_exit().as_nanos());
    e.usize(t.compressor().max_window());
    enc_comms(&mut e, t.comms_ref());
    enc_nodes(&mut e, t.nodes());
    e.seal()
}

/// Decode a checkpoint produced by [`checkpoint_bytes`] at any format
/// version, verifying frame and checksum. The returned tracer is in resume
/// mode: it will skip its first `events_seen` observed events (see the
/// module docs).
pub fn tracer_from_checkpoint(bytes: &[u8]) -> Result<Tracer, SnapshotError> {
    let mut d = Dec::open(bytes, MAGIC)?;
    let rank = d.usize()?;
    let nranks = dec_nranks(&mut d)?;
    if rank >= nranks {
        return Err(corrupt(format!("rank {rank} out of range for {nranks}")));
    }
    let events_seen = d.u64()?;
    let last_exit = SimTime::ZERO + SimDuration::from_nanos(d.u64()?);
    let max_window = d.usize()?;
    if max_window == 0 || max_window > MAX_WINDOW {
        return Err(corrupt(format!("implausible fold window {max_window}")));
    }
    // v1 named the compressor's fold strategy here. Both tags it ever wrote
    // restore into the one compressor: the structural-era fold (`1`)
    // produced the same nodes byte for byte.
    if d.version() == V1 {
        match d.u8()? {
            0 | 1 => {}
            t => return Err(corrupt(format!("bad strategy tag {t}"))),
        }
    }
    let comms = dec_comms(&mut d, nranks)?;
    let nodes = dec_nodes(&mut d, nranks, 0)?;
    d.finish()?;
    check_well_formed(nranks, &comms, &nodes).map_err(corrupt)?;
    let seq = TailCompressor::from_nodes(max_window, nodes);
    Ok(Tracer::restore(
        rank,
        nranks,
        seq,
        comms,
        last_exit,
        events_seen,
    ))
}

// ------------------------------------------------------------ checkpointing

/// Where and how often a run checkpoints its tracers.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    dir: PathBuf,
    every: u64,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, writing each rank's snapshot after every
    /// `every` recorded events (`every` is clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> CheckpointConfig {
        CheckpointConfig {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint cadence in recorded events per rank.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Path of `rank`'s checkpoint file.
    pub fn rank_path(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank{rank}.ckpt"))
    }
}

/// Atomically write `tracer`'s checkpoint under `cfg` (tmp file + rename,
/// so a crash mid-write leaves the previous checkpoint intact, never a
/// truncated one).
pub fn write_checkpoint(cfg: &CheckpointConfig, tracer: &Tracer) -> Result<(), SnapshotError> {
    write_atomic(&cfg.rank_path(tracer.rank()), &checkpoint_bytes(tracer))
}

/// Load `rank`'s checkpoint under `cfg`. `Ok(None)` when no checkpoint
/// exists (a fresh rank); `Err` when one exists but cannot be decoded.
pub fn read_checkpoint(
    cfg: &CheckpointConfig,
    rank: usize,
) -> Result<Option<Tracer>, SnapshotError> {
    let path = cfg.rank_path(rank);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(SnapshotError::Io(e)),
    };
    tracer_from_checkpoint(&bytes).map(Some)
}

/// A [`Tracer`] that checkpoints itself every [`CheckpointConfig::every`]
/// recorded events. Checkpoint writes are best-effort: a full disk must not
/// kill the traced run, it only widens the window a later resume replays.
pub struct CheckpointingTracer {
    inner: Tracer,
    cfg: CheckpointConfig,
}

impl CheckpointingTracer {
    /// Wrap `inner`, checkpointing under `cfg`.
    pub fn new(inner: Tracer, cfg: CheckpointConfig) -> CheckpointingTracer {
        CheckpointingTracer { inner, cfg }
    }

    /// Unwrap the tracer (for merging after the run).
    pub fn into_inner(self) -> Tracer {
        self.inner
    }
}

impl Hook for CheckpointingTracer {
    fn on_event(&mut self, event: &Event) {
        let before = self.inner.events_seen;
        self.inner.on_event(event);
        // `events_seen` does not advance while the tracer is skipping
        // already-checkpointed events on a resume, so no re-writes happen
        // during replay.
        if self.inner.events_seen != before && self.inner.events_seen.is_multiple_of(self.cfg.every)
        {
            let _ = write_checkpoint(&self.cfg, &self.inner);
        }
    }
}

fn run_and_salvage<F>(
    world: World,
    n: usize,
    cfg: &CheckpointConfig,
    mut restored: Vec<Option<Tracer>>,
    body: F,
) -> PartialTracedRun
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    let cfg_hook = cfg.clone();
    let (result, hooks) = world.run_hooked_partial(
        move |r| {
            let t = restored
                .get_mut(r)
                .and_then(Option::take)
                .unwrap_or_else(|| Tracer::new(r, n));
            CheckpointingTracer::new(t, cfg_hook.clone())
        },
        body,
    );
    // Final salvage: whatever each rank saw last — including the tail
    // between the last cadence checkpoint and a crash — becomes the new
    // checkpoint, so a subsequent resume replays nothing twice.
    let mut tracers = Vec::with_capacity(hooks.len());
    for h in hooks {
        let _ = write_checkpoint(cfg, &h.inner);
        tracers.push(h.into_inner());
    }
    let trace = merge_tracers(tracers);
    match result {
        Ok(report) => PartialTracedRun {
            trace,
            report: Some(report),
            error: None,
        },
        Err(err) => PartialTracedRun {
            trace,
            report: None,
            error: Some(err),
        },
    }
}

/// As [`crate::trace_world_partial`], but every rank checkpoints its capture
/// state under `cfg` (every N events, plus a final salvage write when the
/// run ends — normally or by a fault). A failed run therefore leaves on disk
/// exactly the state [`trace_world_resumed`] needs.
pub fn trace_world_checkpointed<F>(
    world: World,
    n: usize,
    cfg: &CheckpointConfig,
    body: F,
) -> Result<PartialTracedRun, SnapshotError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    std::fs::create_dir_all(cfg.dir())?;
    Ok(run_and_salvage(world, n, cfg, Vec::new(), body))
}

/// Resume a (crashed or interrupted) traced run from the checkpoints under
/// `cfg`: each rank with a checkpoint is restored and replays through the
/// already-captured prefix without re-recording it; ranks without one start
/// fresh. The world must re-run the same application deterministically —
/// same ranks, same body, same network/match policy, and a fault plan
/// without the crash being recovered from (see
/// [`mpisim::faults::FaultPlan::without_crashes`]).
///
/// Corrupt checkpoints are an error (the caller decides whether to delete
/// and restart); missing ones are not.
pub fn trace_world_resumed<F>(
    world: World,
    n: usize,
    cfg: &CheckpointConfig,
    body: F,
) -> Result<PartialTracedRun, SnapshotError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    std::fs::create_dir_all(cfg.dir())?;
    let mut restored = Vec::with_capacity(n);
    for r in 0..n {
        let t = read_checkpoint(cfg, r)?;
        if let Some(t) = &t {
            if t.rank() != r || t.nranks() != n {
                return Err(corrupt(format!(
                    "checkpoint for rank {r} of {n} actually holds rank {} of {}",
                    t.rank(),
                    t.nranks()
                )));
            }
        }
        restored.push(t);
    }
    Ok(run_and_salvage(world, n, cfg, restored, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CommTable;

    fn sample_tracer() -> Tracer {
        // Drive nodes through the real compressor so loops, histograms, and
        // fingerprint state all exist in the checkpointed sequence.
        let mut c = TailCompressor::new(crate::compress::DEFAULT_MAX_WINDOW);
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
        let last_exit = SimTime::ZERO + SimDuration::from_usecs(123);
        Tracer::restore(1, 4, c, comms, last_exit, 40)
    }

    #[test]
    fn round_trip_is_exact() {
        let t = sample_tracer();
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
        occupancy(t.nodes(), &mut bins);
        assert!(bins.iter().any(|&b| b > 3), "no spilled histogram");
        assert!(bins.iter().any(|&b| b <= 3), "no inline histogram");
        let bytes = checkpoint_bytes(&t);
        let back = tracer_from_checkpoint(&bytes).expect("decodes");
        assert_eq!(back.rank(), t.rank());
        assert_eq!(back.nranks(), t.nranks());
        assert_eq!(back.events_seen, t.events_seen);
        assert_eq!(back.last_exit(), t.last_exit());
        assert_eq!(back.nodes(), t.nodes());
        // re-encoding the decoded tracer is byte-identical
        assert_eq!(checkpoint_bytes(&back), bytes);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = checkpoint_bytes(&sample_tracer());
        for cut in 0..bytes.len() {
            assert!(
                tracer_from_checkpoint(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        let bytes = checkpoint_bytes(&sample_tracer());
        // Flip one bit per byte position; the checksum (or a structural
        // check) must catch every one of them.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                tracer_from_checkpoint(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let t = sample_tracer();
        for version in [0u8, 3, 99] {
            let mut bytes = checkpoint_bytes(&t);
            bytes[4] = version; // version lives right after the 4-byte magic
            crate::frame::refresh_checksum(&mut bytes);
            let err = match tracer_from_checkpoint(&bytes) {
                Err(e) => e,
                Ok(_) => panic!("wrong version must not decode"),
            };
            let want = format!("unsupported version {version}");
            assert!(err.to_string().contains(&want), "{err}");
        }
    }

    #[test]
    fn statistics_records_obey_the_histogram_invariants() {
        // One event whose statistics are the payload's last bytes, so a
        // hand-written record can replace them.
        let mut c = TailCompressor::new(crate::compress::DEFAULT_MAX_WINDOW);
        c.push(TraceNode::Event(Rsd {
            ranks: RankSet::single(0),
            sig: 1,
            op: OpTemplate::Wait {
                count: ValParam::Const(1),
            },
            compute: TimeStats::of(SimDuration::from_nanos(5)),
        }));
        let t = Tracer::restore(0, 1, c, CommTable::world(1), SimTime::ZERO, 1);
        let good = checkpoint_bytes(&t);
        // count 1 · sum 5 · min 5 · max 5 · nbins 1 · (bin 3, count 1)
        let record = [1, 5, 5, 5, 1, 3, 1];
        let at = good.len() - 8 - record.len();
        assert_eq!(good[at..good.len() - 8], record);
        let with = |record: &[u8]| {
            let mut bytes = good[..at].to_vec();
            bytes.extend_from_slice(record);
            bytes.extend_from_slice(&[0; 8]);
            crate::frame::refresh_checksum(&mut bytes);
            tracer_from_checkpoint(&bytes).map(|t| t.nodes().to_vec())
        };
        assert_eq!(with(&record).unwrap(), t.nodes());
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
}
