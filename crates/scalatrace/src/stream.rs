//! STBS ("ScalaTrace Binary Segments"): a crash-safe streaming binary trace
//! format with bounded-memory capture and segment salvage.
//!
//! This is the capture layer's one crash story. During capture, whenever a
//! rank's resident node tail outgrows a configurable budget, the frozen
//! prefix is *sealed* into an append-only, checksummed segment file (atomic
//! tmp + rename) and evicted from memory. A SIGKILL or torn write loses at
//! most the unsealed tail; [`salvage_dir`] recovers every intact segment
//! afterwards and yields a verified prefix trace in the same
//! [`PartialTracedRun`] shape rank crashes already produce. Whoever needs
//! the whole trace instead re-traces: the simulator is bit-deterministic, so
//! the re-run under [`mpisim::faults::FaultPlan::without_crashes`] *is* the
//! run that never crashed.
//!
//! Every file is a [`crate::frame`] frame:
//!
//! ```text
//! magic "STBS" · version u32 · kind u8 · payload · FNV-1a checksum u64
//! ```
//!
//! with the checksum covering everything before it. Two payload kinds
//! exist: a whole-trace file (`kind 0`, written by `commbench convert` and
//! the campaign cache) and a capture segment (`kind 1`, carrying rank,
//! world size, segment index, cumulative event count, the rank's
//! communicator table as of sealing, the sealed nodes, and a `last` flag
//! marking clean completion). Files are written at the newest format
//! version and read at every version ever written — a stream directory may
//! mix them. A truncated, bit-flipped, or unknown-version file decodes to
//! [`SnapshotError::Corrupt`], never to a silently wrong trace.
//!
//! # Seal/reload and byte-identity
//!
//! Sealing must not change what the compressor produces: the streamed
//! capture is required to be byte-identical to the unbounded in-memory path
//! under *any* budget. Naive eviction breaks this — a fold can reach back
//! into the sealed prefix (two sealed `loop 2 {A B}` nodes would have become
//! `loop 4 {A B}` had they stayed resident). The invariant that restores
//! exactness is cheap: a tail fold only ever inspects the last
//! `2 * max_window` resident nodes, and the rolling window hash is
//! position-independent, so folding a *suffix* is identical to folding the
//! whole sequence as long as at least `2 * max_window + 1` nodes stay
//! resident. [`StreamingTracer`] therefore reloads the most recently sealed
//! segment (read back, file deleted) whenever folding would otherwise see a
//! shorter tail, and every fold runs on exactly the state the unbounded
//! compressor would have had. Sealed chunks always hold at least
//! `2 * max_window + 1` nodes, so one reload always restores the invariant,
//! and the resident tail never exceeds the (clamped) budget — tracked by
//! [`StreamCounters::peak_resident`] and asserted in the differential tests.
//!
//! Failure policy: a failed *seal* keeps the prefix in memory and bumps
//! [`StreamCounters::seal_errors`] — correctness over the memory bound. A
//! failed *reload* panics: the process just wrote that file, so an
//! unreadable one means the disk is lying and no exact continuation exists.

use crate::collect::{PartialTracedRun, Tracer};
use crate::compress::DEFAULT_MAX_WINDOW;
use crate::frame::{dec_comms, dec_nranks, enc_comms, write_atomic, Dec, Enc};
use crate::merge::merge_sequences;
use crate::snapshot::{corrupt, dec_nodes, enc_nodes, SnapshotError};
use crate::trace::{check_well_formed, CommTable, Trace, TraceNode};
use mpisim::ctx::Ctx;
use mpisim::hooks::{Event, Hook};
use mpisim::world::World;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File magic of an STBS file ("ScalaTrace Binary Segments").
pub const MAGIC: [u8; 4] = *b"STBS";

/// Payload kind: a whole merged trace (the binary twin of the text format).
const KIND_TRACE: u8 = 0;
/// Payload kind: one sealed capture segment of one rank.
const KIND_SEGMENT: u8 = 1;

/// Open an STBS frame of the given payload kind.
fn open_kind<'a>(bytes: &'a [u8], want: u8, what: &str) -> Result<Dec<'a>, SnapshotError> {
    let mut d = Dec::open(bytes, MAGIC)?;
    let kind = d.u8()?;
    if kind != want {
        return Err(corrupt(format!(
            "expected {what} payload, found kind {kind}"
        )));
    }
    Ok(d)
}

// -------------------------------------------------------------- whole trace

/// Serialise a merged trace as a whole-trace STBS file (the checksummed
/// binary twin of [`crate::text::to_text`], but lossless: timing histograms
/// are stored exactly, not summarised to count × mean).
pub fn trace_to_bytes(trace: &Trace) -> Vec<u8> {
    let mut e = Enc::open(MAGIC);
    e.u8(KIND_TRACE);
    e.usize(trace.nranks);
    enc_comms(&mut e, trace.nranks, &trace.comms);
    enc_nodes(&mut e, &trace.nodes);
    e.seal()
}

/// Decode a whole-trace STBS file of any format version, verifying frame
/// and checksum.
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace, SnapshotError> {
    let mut d = open_kind(bytes, KIND_TRACE, "whole-trace")?;
    let nranks = dec_nranks(&mut d)?;
    let comms = dec_comms(&mut d, nranks)?;
    let nodes = dec_nodes(&mut d, nranks, 0)?;
    d.finish()?;
    check_well_formed(nranks, &comms, &nodes).map_err(corrupt)?;
    Ok(Trace {
        nranks,
        nodes,
        comms,
    })
}

// ----------------------------------------------------------------- segments

/// One sealed capture segment, decoded from disk.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The rank whose capture this segment belongs to.
    pub rank: usize,
    /// World size of the traced run.
    pub nranks: usize,
    /// Position in the rank's segment chain (0-based, contiguous).
    pub index: u64,
    /// Cumulative concrete (loop-expanded) events across segments
    /// `0..=index` — a structural cross-check beyond the checksum.
    pub events_end: u64,
    /// Marks the final segment of a capture whose hook finished normally
    /// (the unsealed tail was flushed, nothing was lost).
    pub last: bool,
    /// The rank's communicator table as of sealing (cumulative).
    pub comms: CommTable,
    /// The sealed compressed nodes.
    pub nodes: Vec<TraceNode>,
}

/// A segment's fields, borrowed: what sealing encodes from, so the capture
/// hook clones neither its nodes nor its communicator table.
struct SegmentRef<'a> {
    rank: usize,
    nranks: usize,
    index: u64,
    events_end: u64,
    last: bool,
    comms: &'a CommTable,
    nodes: &'a [TraceNode],
}

impl SegmentRef<'_> {
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::open(MAGIC);
        e.u8(KIND_SEGMENT);
        e.usize(self.rank);
        e.usize(self.nranks);
        e.u64(self.index);
        e.u64(self.events_end);
        e.bool(self.last);
        enc_comms(&mut e, self.nranks, self.comms);
        enc_nodes(&mut e, self.nodes);
        e.seal()
    }
}

/// Serialise one capture segment.
pub fn segment_to_bytes(seg: &Segment) -> Vec<u8> {
    SegmentRef {
        rank: seg.rank,
        nranks: seg.nranks,
        index: seg.index,
        events_end: seg.events_end,
        last: seg.last,
        comms: &seg.comms,
        nodes: &seg.nodes,
    }
    .to_bytes()
}

/// Decode one capture segment of any format version, verifying frame and
/// checksum.
pub fn segment_from_bytes(bytes: &[u8]) -> Result<Segment, SnapshotError> {
    let mut d = open_kind(bytes, KIND_SEGMENT, "segment")?;
    let rank = d.usize()?;
    let nranks = dec_nranks(&mut d)?;
    if rank >= nranks {
        return Err(corrupt(format!("rank {rank} out of range for {nranks}")));
    }
    let index = d.u64()?;
    let events_end = d.u64()?;
    let last = d.bool()?;
    let comms = dec_comms(&mut d, nranks)?;
    let nodes = dec_nodes(&mut d, nranks, 0)?;
    d.finish()?;
    check_well_formed(nranks, &comms, &nodes).map_err(corrupt)?;
    Ok(Segment {
        rank,
        nranks,
        index,
        events_end,
        last,
        comms,
        nodes,
    })
}

fn read_segment(path: &Path) -> Result<Segment, SnapshotError> {
    segment_from_bytes(&std::fs::read(path)?)
}

/// File name of `rank`'s segment `index` inside a stream directory.
pub fn segment_name(rank: usize, index: u64) -> String {
    format!("rank{rank}-seg{index:06}.stbs")
}

/// Parse a segment file name back into `(rank, index)`.
fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("rank")?.strip_suffix(".stbs")?;
    let (rank, index) = rest.split_once("-seg")?;
    Some((rank.parse().ok()?, index.parse().ok()?))
}

// ------------------------------------------------------------ configuration

/// Where and how a streamed capture writes its segments.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    dir: PathBuf,
    budget: usize,
    max_window: usize,
    event_delay: Option<Duration>,
}

impl StreamConfig {
    /// Stream segments into `dir`, sealing whenever a rank's resident tail
    /// reaches `budget` nodes. The budget is clamped up to
    /// `2 * (2 * max_window + 1)` so the seal/reload exactness invariant
    /// (see the module docs) always leaves room to work; [`Self::budget`]
    /// returns the effective value.
    pub fn new(dir: impl Into<PathBuf>, budget: usize) -> StreamConfig {
        StreamConfig {
            dir: dir.into(),
            budget,
            max_window: DEFAULT_MAX_WINDOW,
            event_delay: None,
        }
    }

    /// Use an explicit tail-compression window (clamped to at least 1).
    pub fn with_max_window(mut self, w: usize) -> StreamConfig {
        self.max_window = w.max(1);
        self
    }

    /// Chaos knob: sleep this long (wall clock) per recorded event. Used by
    /// the crash-recovery smoke tests to hold a capture open long enough to
    /// SIGKILL it mid-run; never set in production paths.
    pub fn with_event_delay(mut self, d: Duration) -> StreamConfig {
        self.event_delay = Some(d);
        self
    }

    /// The stream directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Effective per-rank resident-node budget (after clamping).
    pub fn budget(&self) -> usize {
        self.budget.max(2 * self.min_resident())
    }

    /// The configured fold window.
    pub fn max_window(&self) -> usize {
        self.max_window
    }

    /// Fewest resident nodes folding may ever see while sealed segments
    /// exist (the exactness invariant's lower bound).
    fn min_resident(&self) -> usize {
        2 * self.max_window + 1
    }

    /// Path of `rank`'s segment `index`.
    pub fn rank_segment_path(&self, rank: usize, index: u64) -> PathBuf {
        self.dir.join(segment_name(rank, index))
    }
}

/// Capture-side counters of one rank's streamed capture, surfaced through
/// [`StreamedRun`] and the perf v2 report.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamCounters {
    /// Concrete events recorded.
    pub events: u64,
    /// High-water mark of resident (in-memory) trace nodes. Stays within
    /// the effective budget unless a seal failed.
    pub peak_resident: usize,
    /// Segments sealed to disk (including reload re-seals and the final
    /// `last` segment).
    pub segments_sealed: u64,
    /// Sealed segments read back (and deleted) to keep folding exact.
    pub segments_reloaded: u64,
    /// Seal attempts that failed with an I/O error (the prefix stayed
    /// resident; memory temporarily exceeds the budget).
    pub seal_errors: u64,
}

impl StreamCounters {
    /// Pool another rank's counters into this one (events/seals sum, peak
    /// takes the max) — the whole-run summary the perf report stores.
    pub fn absorb(&mut self, other: &StreamCounters) {
        self.events += other.events;
        self.peak_resident = self.peak_resident.max(other.peak_resident);
        self.segments_sealed += other.segments_sealed;
        self.segments_reloaded += other.segments_reloaded;
        self.seal_errors += other.seal_errors;
    }
}

// ------------------------------------------------------------ capture hook

/// A [`Tracer`] wrapper that seals the frozen prefix of the compressed
/// sequence into STBS segment files during capture, keeping resident memory
/// within [`StreamConfig::budget`] nodes (see the module docs for the
/// seal/reload exactness argument).
pub struct StreamingTracer {
    inner: Tracer,
    cfg: StreamConfig,
    budget: usize,
    min_resident: usize,
    /// Index of the next segment to seal; segments `0..next_index` are on
    /// disk, always contiguous (reload pops the highest index first).
    next_index: u64,
    /// Cumulative concrete events inside sealed segments.
    events_sealed: u64,
    counters: StreamCounters,
}

impl StreamingTracer {
    /// A streaming tracer for `rank` of `nranks` writing under `cfg`.
    pub fn new(rank: usize, nranks: usize, cfg: StreamConfig) -> StreamingTracer {
        let budget = cfg.budget();
        let min_resident = cfg.min_resident();
        let inner = Tracer::with_window(rank, nranks, cfg.max_window());
        StreamingTracer {
            inner,
            cfg,
            budget,
            min_resident,
            next_index: 0,
            events_sealed: 0,
            counters: StreamCounters::default(),
        }
    }

    /// The capture counters so far.
    pub fn counters(&self) -> StreamCounters {
        self.counters
    }

    /// The rank this tracer observes.
    pub fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn note_resident(&mut self) {
        let len = self.inner.compressor().len();
        if len > self.counters.peak_resident {
            self.counters.peak_resident = len;
        }
    }

    /// Read back (and delete) the most recently sealed segment so the next
    /// fold sees everything the unbounded compressor would. Panics when the
    /// segment this process just wrote cannot be read back — no exact
    /// continuation exists then (see the module docs' failure policy).
    fn reload_last(&mut self) {
        let index = self.next_index - 1;
        let path = self.cfg.rank_segment_path(self.inner.rank(), index);
        let seg = read_segment(&path).unwrap_or_else(|e| {
            panic!(
                "stream capture: cannot reload sealed segment {}: {e}",
                path.display()
            )
        });
        // The segment is about to be re-folded together with newer events,
        // so its on-disk version is stale. Remove it before mutating
        // in-memory state: a crash right after the remove salvages one
        // segment less — still a valid verified prefix.
        if let Err(e) = std::fs::remove_file(&path) {
            panic!(
                "stream capture: cannot retire reloaded segment {}: {e}",
                path.display()
            );
        }
        self.next_index = index;
        self.events_sealed -= seg
            .nodes
            .iter()
            .map(TraceNode::concrete_event_count)
            .sum::<u64>();
        self.counters.segments_reloaded += 1;
        self.inner.compressor_mut().prepend_nodes(seg.nodes);
        self.note_resident();
    }

    /// Seal the frozen prefix (everything but the last `budget / 2` resident
    /// nodes) into the next segment file; with `last`, seal the entire
    /// remaining tail and mark the segment as the clean end of the capture.
    fn seal(&mut self, last: bool) -> Result<(), SnapshotError> {
        let len = self.inner.compressor().len();
        let keep = if last { 0 } else { self.budget / 2 };
        if !last && len <= keep {
            return Ok(());
        }
        let k = len - keep;
        let sealed_nodes = &self.inner.compressor().nodes()[..k];
        let sealed_events: u64 = sealed_nodes
            .iter()
            .map(TraceNode::concrete_event_count)
            .sum();
        let seg = SegmentRef {
            rank: self.inner.rank(),
            nranks: self.inner.nranks(),
            index: self.next_index,
            events_end: self.events_sealed + sealed_events,
            last,
            comms: self.inner.comms_ref(),
            nodes: sealed_nodes,
        };
        let path = self.cfg.rank_segment_path(seg.rank, seg.index);
        match write_atomic(&path, &seg.to_bytes()) {
            Ok(()) => {
                self.inner.compressor_mut().drop_prefix(k);
                self.events_sealed += sealed_events;
                self.next_index += 1;
                self.counters.segments_sealed += 1;
                Ok(())
            }
            Err(e) => {
                // Keep the prefix resident: correctness over the memory
                // bound. The next budget crossing retries.
                self.counters.seal_errors += 1;
                Err(e.into())
            }
        }
    }

    /// Seal the remaining resident tail as the final (`last`-flagged)
    /// segment. Called once when the traced run ends; a rank that recorded
    /// nothing still writes an empty final segment so salvage can tell
    /// "completed with no events" from "crashed before sealing anything".
    pub fn finish(&mut self) -> Result<(), SnapshotError> {
        self.seal(true)
    }
}

impl Hook for StreamingTracer {
    fn on_event(&mut self, event: &Event) {
        if let Some(d) = self.cfg.event_delay {
            std::thread::sleep(d);
        }
        let node = self.inner.observe(event);
        self.counters.events += 1;
        self.inner.compressor_mut().push_raw(node);
        self.note_resident();
        loop {
            // Exactness guard: reload sealed segments until folding sees at
            // least `min_resident` nodes (one reload always suffices —
            // sealed chunks are never smaller than that).
            while self.next_index > 0 && self.inner.compressor().len() < self.min_resident {
                self.reload_last();
            }
            if !self.inner.compressor_mut().try_fold_once() {
                break;
            }
        }
        if self.inner.compressor().len() >= self.budget {
            // Best-effort: a failed seal is counted and retried at the next
            // budget crossing; the capture itself must survive a full disk.
            let _ = self.seal(false);
        }
    }
}

// ------------------------------------------------------------- run entry

/// A streamed traced run: the trace reassembled from the segment files on
/// disk, plus per-rank capture counters and the salvage report.
#[derive(Debug)]
pub struct StreamedRun {
    /// The merged trace (read back from the sealed segments — the segments
    /// *are* the trace) with the run report or failure cause.
    pub run: PartialTracedRun,
    /// Per-rank capture counters, indexed by rank.
    pub counters: Vec<StreamCounters>,
    /// What the post-run segment scan found (always complete unless a seal
    /// failed).
    pub salvage: SalvageReport,
}

/// As [`crate::trace_world_partial`], but with bounded-memory streaming
/// capture: each rank seals compressed-prefix segments under `cfg` while
/// the run executes, flushes its tail as a final `last` segment when the
/// run ends (normally or by a simulated fault), and the merged trace is
/// reassembled from the segment files. Byte-identical to the unbounded
/// in-memory path under any budget (see the module docs).
pub fn trace_world_streamed<F>(
    world: World,
    n: usize,
    cfg: &StreamConfig,
    body: F,
) -> Result<StreamedRun, SnapshotError>
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    std::fs::create_dir_all(cfg.dir())?;
    let cfg_hook = cfg.clone();
    let (result, mut hooks) =
        world.run_hooked_partial(move |r| StreamingTracer::new(r, n, cfg_hook.clone()), body);
    let mut counters = Vec::with_capacity(hooks.len());
    for h in &mut hooks {
        h.finish()?;
        counters.push(h.counters());
    }
    let (trace, salvage) = salvage_dir(cfg.dir())?;
    let run = match result {
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
    };
    Ok(StreamedRun {
        run,
        counters,
        salvage,
    })
}

// ---------------------------------------------------------------- salvage

/// What [`salvage_dir`] recovered for one rank.
#[derive(Clone, Debug)]
pub struct RankSalvage {
    /// The rank.
    pub rank: usize,
    /// Intact segments recovered (a contiguous chain from index 0).
    pub segments: u64,
    /// Concrete events inside the recovered chain.
    pub events: u64,
    /// Did the chain end with a `last`-flagged segment (clean capture end)?
    pub complete: bool,
    /// Corrupt segment files renamed aside (`*.quarantined`), with reasons.
    pub quarantined: Vec<(PathBuf, String)>,
}

/// Per-rank results of scanning a stream directory after a crash.
#[derive(Clone, Debug)]
pub struct SalvageReport {
    /// World size of the captured run.
    pub nranks: usize,
    /// Per-rank recovery results, indexed by rank.
    pub ranks: Vec<RankSalvage>,
}

impl SalvageReport {
    /// Did every rank's chain end with a clean `last` segment?
    pub fn complete(&self) -> bool {
        self.ranks.iter().all(|r| r.complete)
    }

    /// Total intact segments recovered.
    pub fn segments(&self) -> u64 {
        self.ranks.iter().map(|r| r.segments).sum()
    }

    /// Total concrete events recovered.
    pub fn events(&self) -> u64 {
        self.ranks.iter().map(|r| r.events).sum()
    }

    /// Total corrupt segment files quarantined.
    pub fn quarantined(&self) -> usize {
        self.ranks.iter().map(|r| r.quarantined.len()).sum()
    }
}

impl std::fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "salvaged {} segments, {} events across {} ranks ({})",
            self.segments(),
            self.events(),
            self.nranks,
            if self.complete() {
                "complete capture"
            } else {
                "prefix only"
            }
        )?;
        for r in &self.ranks {
            writeln!(
                f,
                "  rank {}: {} segments, {} events{}{}",
                r.rank,
                r.segments,
                r.events,
                if r.complete { ", complete" } else { "" },
                if r.quarantined.is_empty() {
                    String::new()
                } else {
                    format!(", {} quarantined", r.quarantined.len())
                }
            )?;
        }
        Ok(())
    }
}

fn quarantine_file(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".quarantined");
    let dst = path.with_file_name(name);
    let _ = std::fs::rename(path, &dst);
    dst
}

/// Recover everything intact from a stream directory: walk each rank's
/// segment chain from index 0, verify each segment's checksum, metadata,
/// and cumulative event count, quarantine the first corrupt file (renamed
/// `*.quarantined`) and stop that rank's chain there — discarding only what
/// cannot be verified. Returns the merged prefix trace and a per-rank
/// report; the same [`PartialTracedRun`] shape as a rank-crash partial
/// trace, recovered after the fact.
///
/// Errors only when the directory is unreadable or holds no intact segment
/// at all; a torn tail is the *expected* input here, not an error.
pub fn salvage_dir(dir: &Path) -> Result<(Trace, SalvageReport), SnapshotError> {
    // World size comes from the first intact segment found.
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if parse_segment_name(name).is_some() {
                names.push(name.to_string());
            }
        }
    }
    names.sort();
    // The first intact segment names the world size; its decoded form is
    // kept for the chain walk below, which would otherwise decode it again.
    let mut first = names.iter().find_map(|name| {
        let path = dir.join(name);
        let seg = read_segment(&path).ok()?;
        Some((path, seg))
    });
    let Some(nranks) = first.as_ref().map(|(_, seg)| seg.nranks) else {
        return Err(corrupt(format!(
            "nothing to salvage in {}: no intact segment",
            dir.display()
        )));
    };

    let mut ranks = Vec::with_capacity(nranks);
    let mut chains = Vec::with_capacity(nranks);
    let mut comms = CommTable::world(nranks);
    for rank in 0..nranks {
        let mut r = RankSalvage {
            rank,
            segments: 0,
            events: 0,
            complete: false,
            quarantined: Vec::new(),
        };
        let mut nodes: Vec<TraceNode> = Vec::new();
        for index in 0.. {
            let path = dir.join(segment_name(rank, index));
            let seg = match first.take_if(|(p, _)| *p == path) {
                Some((_, seg)) => seg,
                None => match read_segment(&path) {
                    Ok(seg) => seg,
                    Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => break,
                    Err(SnapshotError::Io(e)) => return Err(SnapshotError::Io(e)),
                    Err(e) => {
                        r.quarantined.push((quarantine_file(&path), e.to_string()));
                        break;
                    }
                },
            };
            if seg.rank != rank || seg.index != index || seg.nranks != nranks {
                r.quarantined.push((
                    quarantine_file(&path),
                    format!(
                        "metadata mismatch: file says rank {} seg {} of {}",
                        seg.rank, seg.index, seg.nranks
                    ),
                ));
                break;
            }
            // A running count: the chain so far is already verified, so only
            // the new segment's events are added (the decoder proved each
            // segment's own count fits in u64; the chain's is held to it
            // by the comparison).
            let added: u64 = seg.nodes.iter().map(TraceNode::concrete_event_count).sum();
            let concrete = r.events as u128 + added as u128;
            if concrete != seg.events_end as u128 {
                r.quarantined.push((
                    quarantine_file(&path),
                    format!(
                        "event-count mismatch: chain holds {concrete}, segment declares {}",
                        seg.events_end
                    ),
                ));
                break;
            }
            nodes.extend(seg.nodes);
            comms.merge(&seg.comms);
            r.segments += 1;
            r.events = seg.events_end;
            r.complete = seg.last;
        }
        chains.push(nodes);
        ranks.push(r);
    }
    let nodes = merge_sequences(chains, nranks);
    let trace = Trace {
        nranks,
        nodes,
        comms,
    };
    Ok((trace, SalvageReport { nranks, ranks }))
}

// ------------------------------------------------------------------- fsck

/// What a stream-directory fsck found and did.
#[derive(Clone, Debug, Default)]
pub struct StreamFsckReport {
    /// Segment files that verified clean.
    pub ok: usize,
    /// Files quarantined (renamed `*.quarantined`), with reasons: corrupt
    /// segments, stranded `*.tmp` partial writes, and intact segments
    /// stranded beyond a chain gap.
    pub quarantined: Vec<(PathBuf, String)>,
}

impl StreamFsckReport {
    /// Did every file verify clean?
    pub fn clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Scan a stream directory: verify every segment's checksum, quarantine
/// corrupt files, sweep stranded `*.tmp` partial writes into quarantine,
/// and quarantine intact segments unreachable beyond a chain gap. Salvage
/// after fsck sees only verified, contiguous chains.
pub fn fsck_dir(dir: &Path) -> Result<StreamFsckReport, SnapshotError> {
    let mut report = StreamFsckReport::default();
    let mut intact: std::collections::BTreeMap<usize, Vec<u64>> = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if name.ends_with(".tmp") {
            report.quarantined.push((
                quarantine_file(&path),
                "stranded partial write (torn tmp file)".into(),
            ));
            continue;
        }
        let Some((rank, index)) = parse_segment_name(&name) else {
            continue;
        };
        match read_segment(&path) {
            Ok(seg) if seg.rank != rank || seg.index != index => {
                report.quarantined.push((
                    quarantine_file(&path),
                    format!(
                        "metadata mismatch: file says rank {} seg {}",
                        seg.rank, seg.index
                    ),
                ));
            }
            Ok(_) => {
                intact.entry(rank).or_default().push(index);
            }
            Err(e) => {
                report
                    .quarantined
                    .push((quarantine_file(&path), e.to_string()));
            }
        }
    }
    // Chain contiguity: an intact segment beyond the first gap is
    // unreachable by salvage — quarantine it so the directory never holds
    // silently dead data.
    for (rank, mut indexes) in intact {
        indexes.sort_unstable();
        let mut expected = 0u64;
        for index in indexes {
            if index == expected {
                report.ok += 1;
                expected += 1;
            } else {
                let path = dir.join(segment_name(rank, index));
                report.quarantined.push((
                    quarantine_file(&path),
                    format!("stranded beyond chain gap (expected seg {expected})"),
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_tracers;
    use crate::text::to_text;
    use crate::trace_world;
    use mpisim::network;
    use mpisim::time::SimDuration;
    use mpisim::types::{Src, TagSel};
    use mpisim::world::RunReport;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let d = std::env::temp_dir().join(format!(
            "scalatrace-stream-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn app(iters: usize) -> impl Fn(&mut Ctx) + Send + Sync + 'static {
        move |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let half = ctx.comm_split(&w, (ctx.rank() % 2) as i64, ctx.rank() as i64);
            for i in 0..iters {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 256, &w);
                let s = ctx.isend(right, 0, 256, &w);
                ctx.compute(SimDuration::from_usecs(2));
                ctx.waitall(&[r, s]);
                if i % 5 == 0 {
                    ctx.allreduce(64, &half);
                }
            }
            ctx.barrier(&w);
        }
    }

    /// A ring whose message size changes every iteration: nothing folds, so
    /// the resident tail grows monotonically and the capture seals a long,
    /// stable multi-segment chain — what the salvage/fsck tests need.
    fn unfoldable_app(iters: usize) -> impl Fn(&mut Ctx) + Send + Sync + 'static {
        move |ctx| {
            let w = ctx.world();
            let right = (ctx.rank() + 1) % ctx.size();
            let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for i in 0..iters {
                let r = ctx.irecv(Src::Rank(left), TagSel::Is(0), 256 + i as u64, &w);
                let s = ctx.isend(right, 0, 256 + i as u64, &w);
                ctx.waitall(&[r, s]);
            }
            ctx.barrier(&w);
        }
    }

    fn streamed_unfoldable(dir: &Path, budget: usize, iters: usize, n: usize) -> StreamedRun {
        let cfg = StreamConfig::new(dir, budget).with_max_window(4);
        trace_world_streamed(
            World::new(n).network(network::ideal()),
            n,
            &cfg,
            unfoldable_app(iters),
        )
        .expect("streamed capture")
    }

    /// Unbounded in-memory baseline with the same window the streamed
    /// captures use, so byte-identity is apples to apples.
    fn unbounded(n: usize, iters: usize, w: usize) -> (Trace, RunReport) {
        let (report, tracers) = World::new(n)
            .network(network::ideal())
            .run_hooked(move |r| Tracer::with_window(r, n, w), app(iters))
            .expect("unbounded run");
        (merge_tracers(tracers), report)
    }

    fn streamed(dir: &Path, budget: usize, iters: usize, n: usize) -> StreamedRun {
        let cfg = StreamConfig::new(dir, budget).with_max_window(4);
        trace_world_streamed(World::new(n).network(network::ideal()), n, &cfg, app(iters))
            .expect("streamed capture")
    }

    #[test]
    fn whole_trace_round_trip_is_exact() {
        let t = trace_world(World::new(4).network(network::ideal()), 4, app(30))
            .unwrap()
            .trace;
        let bytes = trace_to_bytes(&t);
        let back = trace_from_bytes(&bytes).expect("decodes");
        assert_eq!(back, t, "STBS whole-trace round trip must be lossless");
        assert_eq!(trace_to_bytes(&back), bytes);
    }

    #[test]
    fn whole_trace_corruption_is_detected() {
        let t = trace_world(World::new(2).network(network::ideal()), 2, app(8))
            .unwrap()
            .trace;
        let bytes = trace_to_bytes(&t);
        for cut in 0..bytes.len() {
            assert!(
                trace_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
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
    fn segment_round_trip_and_corruption() {
        let dir = temp_dir("segrt");
        streamed_unfoldable(&dir, 12, 60, 2);
        let path = dir.join(segment_name(0, 0));
        let bytes = std::fs::read(&path).expect("segment exists");
        let seg = segment_from_bytes(&bytes).expect("decodes");
        assert_eq!(seg.rank, 0);
        assert_eq!(seg.index, 0);
        assert_eq!(segment_to_bytes(&seg), bytes);
        for cut in 0..bytes.len() {
            assert!(segment_from_bytes(&bytes[..cut]).is_err());
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                segment_from_bytes(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
        // kind confusion is rejected both ways
        assert!(trace_from_bytes(&bytes).is_err());
        let t = trace_world(World::new(2).network(network::ideal()), 2, app(4))
            .unwrap()
            .trace;
        assert!(segment_from_bytes(&trace_to_bytes(&t)).is_err());
    }

    #[test]
    fn streamed_capture_matches_unbounded_and_stays_bounded() {
        for budget in [0, 16, 40, 100_000] {
            let dir = temp_dir("diff");
            let (full_trace, full_report) = unbounded(3, 40, 4);
            let run = streamed(&dir, budget, 40, 3);
            assert_eq!(
                to_text(&run.run.trace),
                to_text(&full_trace),
                "budget {budget}: streamed trace must be byte-identical"
            );
            assert_eq!(
                run.run.report.as_ref().unwrap().total_time,
                full_report.total_time,
                "virtual times must agree"
            );
            assert!(run.salvage.complete());
            let effective = StreamConfig::new(&dir, budget).with_max_window(4).budget();
            for c in &run.counters {
                assert!(
                    c.peak_resident <= effective,
                    "budget {budget}: peak {} exceeds effective budget {effective}",
                    c.peak_resident
                );
                assert_eq!(c.seal_errors, 0);
            }
        }
    }

    #[test]
    fn salvage_recovers_prefix_after_losing_the_tail() {
        let dir = temp_dir("salvage");
        let run = streamed_unfoldable(&dir, 12, 40, 2);
        let full_events = run.salvage.events();
        // Simulate a SIGKILL that lost the unsealed tail: delete each
        // rank's final (last-flagged) segment.
        for rank in 0..2 {
            let mut top = None;
            for index in 0.. {
                if dir.join(segment_name(rank, index)).exists() {
                    top = Some(index);
                } else {
                    break;
                }
            }
            std::fs::remove_file(dir.join(segment_name(rank, top.unwrap()))).unwrap();
        }
        let (trace, report) = salvage_dir(&dir).expect("salvage");
        assert!(!report.complete(), "lost tails mean an incomplete capture");
        assert!(report.events() > 0 && report.events() < full_events);
        assert!(trace.concrete_event_count() > 0);
        assert_eq!(report.quarantined(), 0);
    }

    #[test]
    fn salvage_quarantines_bitflip_and_stops_chain() {
        let dir = temp_dir("flip");
        streamed_unfoldable(&dir, 12, 40, 2);
        let victim = dir.join(segment_name(1, 1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let (_, report) = salvage_dir(&dir).expect("salvage");
        assert_eq!(report.ranks[1].segments, 1, "chain stops before the flip");
        assert!(!report.ranks[1].complete);
        assert_eq!(report.ranks[1].quarantined.len(), 1);
        assert!(victim
            .with_file_name(format!("{}.quarantined", segment_name(1, 1)))
            .exists());
        // rank 0 is untouched and still complete
        assert!(report.ranks[0].complete);
    }

    #[test]
    fn fsck_sweeps_tmp_and_stranded_segments() {
        let dir = temp_dir("fsck");
        streamed_unfoldable(&dir, 12, 40, 2);
        // a torn tmp file, a bit-flipped segment, and a stranded segment
        // beyond the gap the flip creates
        std::fs::write(dir.join("rank0-seg000099.stbs.tmp"), b"torn").unwrap();
        let victim = dir.join(segment_name(0, 1));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&victim, &bytes).unwrap();
        let report = fsck_dir(&dir).expect("fsck");
        assert!(!report.clean());
        let reasons: Vec<&str> = report
            .quarantined
            .iter()
            .map(|(_, why)| why.as_str())
            .collect();
        assert!(reasons.iter().any(|r| r.contains("torn tmp")));
        assert!(reasons.iter().any(|r| r.contains("checksum")));
        assert!(reasons
            .iter()
            .any(|r| r.contains("stranded beyond chain gap")));
        // after fsck, the directory is clean and salvage sees a verified prefix
        let report2 = fsck_dir(&dir).expect("fsck twice");
        assert!(report2.clean(), "second fsck finds nothing: {report2:?}");
        let (_, salvage) = salvage_dir(&dir).expect("salvage after fsck");
        assert_eq!(salvage.quarantined(), 0);
    }

    #[test]
    fn empty_capture_still_marks_completion() {
        let dir = temp_dir("empty");
        let cfg = StreamConfig::new(&dir, 64);
        let run = trace_world_streamed(World::new(2).network(network::ideal()), 2, &cfg, |_ctx| {})
            .expect("streamed");
        assert!(run.salvage.complete());
        assert_eq!(run.salvage.events(), 0);
        assert_eq!(run.run.trace.concrete_event_count(), 0);
    }

    #[test]
    fn a_long_chain_salvages_exactly_and_an_events_end_lie_stops_it_there() {
        // window 1 under the smallest budget: nothing folds, every third
        // node seals a segment, and 200 iterations leave 200-file chains
        let dir = temp_dir("long");
        let cfg = StreamConfig::new(&dir, 0).with_max_window(1);
        let world = || World::new(2).network(network::ideal());
        let run = trace_world_streamed(world(), 2, &cfg, unfoldable_app(200)).expect("streamed");
        let full = trace_world(world(), 2, unfoldable_app(200)).unwrap().trace;
        let (trace, report) = salvage_dir(&dir).expect("salvage");
        assert_eq!(trace, full, "the salvaged chain is the unbounded capture");
        assert_eq!(trace, run.run.trace);
        assert_eq!(report.to_string(), run.salvage.to_string());
        assert!(report.complete());
        assert_eq!(report.events(), full.concrete_event_count());
        for r in &report.ranks {
            assert!(
                r.segments >= 200,
                "rank {}: {} segments",
                r.rank,
                r.segments
            );
            assert_eq!(r.events, 601);
        }

        // rank 1's segment 120 overstates the chain's events by one
        let victim = dir.join(segment_name(1, 120));
        let mut seg = read_segment(&victim).unwrap();
        let honest = seg.events_end;
        seg.events_end += 1;
        std::fs::write(&victim, segment_to_bytes(&seg)).unwrap();
        let (trace, lied) = salvage_dir(&dir).expect("salvage");
        assert_eq!(lied.ranks[1].segments, 120, "the chain stops at the lie");
        assert!(!lied.ranks[1].complete);
        let prefix = read_segment(&dir.join(segment_name(1, 119))).unwrap();
        assert_eq!(lied.ranks[1].events, prefix.events_end);
        let (path, why) = &lied.ranks[1].quarantined[0];
        assert_eq!(
            *why,
            format!(
                "event-count mismatch: chain holds {honest}, segment declares {}",
                honest + 1
            )
        );
        assert!(path.ends_with(format!("{}.quarantined", segment_name(1, 120))));
        assert!(path.exists() && !victim.exists());
        // rank 0 is untouched, and the trace is the verified prefix
        assert_eq!(lied.ranks[0].segments, report.ranks[0].segments);
        assert!(lied.ranks[0].complete);
        assert_eq!(trace.concrete_event_count(), lied.events());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_versions_are_a_structured_error_for_traces_and_segments() {
        let dir = temp_dir("version");
        streamed_unfoldable(&dir, 12, 10, 2);
        let segment = std::fs::read(dir.join(segment_name(0, 0))).unwrap();
        let trace = trace_to_bytes(&salvage_dir(&dir).unwrap().0);
        for version in [0u32, 3, 99] {
            let want = format!("unsupported version {version}");
            let mut bytes = segment.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            crate::frame::refresh_checksum(&mut bytes);
            let err = segment_from_bytes(&bytes).expect_err("unknown version");
            assert!(err.to_string().contains(&want), "{err}");
            let mut bytes = trace.clone();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            crate::frame::refresh_checksum(&mut bytes);
            let err = trace_from_bytes(&bytes).expect_err("unknown version");
            assert!(err.to_string().contains(&want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
