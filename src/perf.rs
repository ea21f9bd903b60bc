//! `commbench perf` — the standing micro gate.
//!
//! Runs a fixed, std-only benchmark suite with warmup + median-of-N timing
//! and writes `BENCH_pipeline.json` at the repo root in a stable schema
//! (`commspec-perf/v3`). Every row is `name, kind, ranks` plus the counters
//! and same-run ratios of its family; wall-time medians are printed in the
//! table and never written, so the committed file does not churn with the
//! host it was measured on:
//!
//! * **compression** — the ScalaTrace tail-folding microbench at 8/32/64
//!   ranks: synthetic per-rank event streams (nested loops, flat bursts,
//!   periodic breaks) pushed through [`TailCompressor`], what capture runs.
//!   `fold_ratio` is its time over that of `compress::append_compressed`,
//!   the structural fold `core::rebuild` runs, on the same streams.
//! * **merge** — the inter-rank reduction at 64–1024 ranks: per-rank
//!   streams with identical call-site structure (the SPMD common case)
//!   under the class-collapsed merge, plus `merge_distinct_r64`, the
//!   all-distinct worst case, and two large-P interior rows. Merge rows
//!   carry the collapse phase counters (classes, representative merges,
//!   LCS cells, anchor-trim rate), the merge's peak-resident delta, and
//!   the pool width they ran under.
//! * **stream** — bounded-memory streaming capture (`scalatrace::stream`)
//!   of the ring app. `stream_ratio` is its time over the unbounded
//!   in-memory capture's; the row carries the capture counters (peak
//!   resident nodes vs budget, segments sealed, reloads, seal errors).
//! * **pipeline** — the full trace → generate → execute pipeline over
//!   miniapp registry entries, routed through [`campaign::TraceCache`] so
//!   every row has a *cold* median (trace, store, generate, execute) and a
//!   *warm* one (cache load, generate, execute), the generated program's
//!   op and rank/engine crossing counts, and `interp_ratio`: its run under
//!   the mpiP hook over a plain run of the application it stands for.
//!
//! # What `--check` gates, and why wall time is not among it
//!
//! Only what transfers across machines ([`check_regressions`]):
//!
//! 1. **Exact counters may not rise** — they repeat run to run, so any
//!    rise is a change in the algorithm, not noise: `crossings`; merge
//!    `classes` / `rep_merges` / `lcs_cells` (at the committed pool width
//!    only); stream `segments_sealed` / `segments_reloaded` /
//!    `segment_bytes` (what the capture left on disk); and the fresh stream
//!    row must hold `peak_resident <= budget`.
//! 2. **Same-run ratios between two production paths may not rise more
//!    than [`CHECK_TOLERANCE`]** — both legs alternate rep by rep in one
//!    process, so the machine's speed cancels: `fold_ratio`,
//!    `stream_ratio`, `interp_ratio`.
//! 3. **Cross-suite scaling of the fresh run** — the large-P merge rows
//!    against `merge_r256` in wall time and against each other in peak
//!    resident memory.
//!
//! No wall-time median is compared with a committed one: nanoseconds do not
//! transfer across hosts (this box alone runs at two speeds), and absolute
//! time end to end is `examples/e2e_bench compare`'s job. The medians are
//! recorded so a row explains itself, not to be gated.
//!
//! [`TailCompressor`]: scalatrace::TailCompressor

use benchgen::verify::execute_profiled;
use campaign::hash;
use campaign::{JobSpec, TraceCache};
use miniapps::{registry, App, Class};
use mpisim::network;
use mpisim::time::SimDuration;
use mpisim::world::World;
use scalatrace::compress::{append_compressed, DEFAULT_MAX_WINDOW};
use scalatrace::merge::merge_sequences_stats;
use scalatrace::params::{CommParam, RankParam, ValParam};
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Rsd, TraceNode};
use scalatrace::{MergeStats, MergeStrategy, RankSet, StreamConfig, StreamCounters};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub use protocol::json::{parse as parse_json, Json};

/// Rank counts of the compression microbench (the tentpole gate reads the
/// 64-rank row).
pub const COMPRESS_RANKS: [usize; 3] = [8, 32, 64];

/// Rank counts (= sequence counts) of the merge microbench. The top counts
/// exist to show merge cost tracking distinct behaviors, not P: the
/// remaining per-rank work is reading the input streams once.
pub const MERGE_RANKS: [usize; 5] = [64, 128, 256, 512, 1024];

/// Rank count of the all-distinct worst-case merge suite.
pub const MERGE_DISTINCT_RANKS: usize = 64;

/// World sizes of the large-P merge suites. Reading P leaf streams is
/// inherently Ω(P) — that cost is what [`MERGE_RANKS`] already tracks — so
/// these rows measure the *interior* of the reduction instead: a fixed
/// [`MERGE_LARGE_BLOCKS`] pre-collapsed block streams whose rank sets and
/// parameters (offset-mod peers, rank-linear volumes) cover the whole
/// world symbolically. The rows exist to *pin* that this merge's wall time
/// and peak resident memory track the distinct-behavior count, not P —
/// which only holds while parameters stay in closed form; any regression
/// to dense per-rank materialization multiplies both by orders of
/// magnitude.
pub const MERGE_LARGE_RANKS: [usize; 2] = [4096, 16384];

/// Stream count of the large-P merge suites: the world is split into this
/// many contiguous pre-collapsed blocks, independent of the world size.
pub const MERGE_LARGE_BLOCKS: usize = 8;

/// The cross-suite wall-clock gate on the fresh run: each large-P row must
/// complete within this multiple of `merge_r256`'s wall even though its
/// parameters describe 16x-64x the ranks — with closed-form parameters the
/// interior merge costs far less than reading 256 leaf streams, and a
/// dense-materialization regression at these world sizes blows two orders
/// of magnitude past the limit.
pub const LARGE_MERGE_WALL_RATIO: f64 = 1.5;

/// The cross-suite memory gate: `merge_r16384`'s peak-resident delta must
/// stay within this multiple of `merge_r4096`'s (4x the ranks, ~1x the
/// memory; 2x covers allocator rounding on small deltas).
pub const LARGE_MERGE_PEAK_RATIO: f64 = 2.0;

/// Peak-resident deltas below this are allocator noise, not signal; the
/// memory gate treats anything under the floor as "independent of P".
pub const PEAK_RSS_FLOOR_KB: u64 = 4096;

/// Pipeline world size; every registry app accepts 4 ranks.
const PIPELINE_RANKS: usize = 4;

/// World size of the streaming-capture suite.
const STREAM_RANKS: usize = 8;

/// Resident-node budget the streaming-capture suite runs under — small
/// enough that the workload actually seals segments mid-run (the ring app
/// at the suite's iteration count produces ~90 events per rank), so the
/// suite measures real streaming, not the degenerate everything-fits case.
const STREAM_BUDGET: usize = 48;

/// Smoke-mode pipeline apps (a wildcard-heavy app plus the simplest one).
const SMOKE_APPS: [&str; 2] = ["ring", "lu"];

/// Maximum tolerated rise of a same-run ratio over the committed one in
/// `--check` mode (25%).
pub const CHECK_TOLERANCE: f64 = 0.25;

/// The on-disk schema this module writes and `--check` reads.
pub const SCHEMA: &str = "commspec-perf/v3";

/// Outer iterations of the synthetic compression stream. Identical in
/// smoke and full mode: ratios are only comparable across runs when the
/// workload shape is fixed (the structural scan's cost is not linear in
/// the stream length), and smoke mode saves its time by cutting the
/// pipeline app set instead.
const COMPRESS_ITERS: usize = 150;

/// Per-app iteration override for the pipeline and stream suites.
const PIPELINE_ITERS: usize = 30;

/// Configuration of one `commbench perf` invocation.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Smoke mode: two registry apps instead of the full set.
    pub smoke: bool,
    /// Median-of-N repetition count (`None` = mode default).
    pub reps: Option<usize>,
    /// Warmup iterations before timing (`None` = mode default).
    pub warmup: Option<usize>,
    /// Trace-cache directory; the suite uses the `perf/` subdirectory.
    pub cache_dir: PathBuf,
    /// Output path for the JSON report.
    pub out: PathBuf,
    /// Committed report to gate counters and ratios against (CI gate).
    pub check: Option<PathBuf>,
    /// Pool width for the parallel legs (`None` = [`par::threads`], i.e.
    /// `COMMSPEC_THREADS` or the core count).
    pub threads: Option<usize>,
}

impl PerfConfig {
    /// Defaults: full mode, cache and output at their conventional paths.
    pub fn new() -> PerfConfig {
        PerfConfig {
            smoke: false,
            reps: None,
            warmup: None,
            cache_dir: PathBuf::from(".commbench-cache"),
            out: PathBuf::from("BENCH_pipeline.json"),
            check: None,
            threads: None,
        }
    }

    /// Resolved pool width for the parallel legs.
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(par::threads).max(1)
    }

    /// Median-of-N count. Identical in smoke and full mode: a median of 3
    /// is too noisy to hold the `--check` tolerance on the cheapest ratios
    /// (one cold-start outlier per leg skews it), so smoke saves its time
    /// through the smaller pipeline app set only.
    fn reps(&self) -> usize {
        self.reps.unwrap_or(5)
    }

    fn warmup(&self) -> usize {
        self.warmup.unwrap_or(2)
    }
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig::new()
    }
}

/// One benchmark suite's result.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Stable suite name (e.g. `compress_r64`, `pipeline_lu_r4`).
    pub name: String,
    /// `compression`, `merge`, `stream`, `pipeline`, or `aggregate`.
    pub kind: &'static str,
    /// World size.
    pub ranks: usize,
    /// Median wall time of the row's production path, in ns (pipeline: the
    /// cold pass). Printed by [`PerfReport::table`]; never written, never
    /// gated against a committed value.
    pub median_ns: u64,
    /// Median warm (cache-hit) pipeline time — pipeline suites only.
    /// Printed, never written.
    pub warm_ns: Option<u64>,
    /// Same-run time ratio of the row's path over its production reference
    /// (see the module docs), stored under [`ratio_key`]'s name: the
    /// fingerprint compressor over the structural fold, streamed over
    /// unbounded capture, the generated program under the mpiP hook over a
    /// plain run of its application. `--check` gates it against the
    /// committed ratio.
    pub ratio: Option<f64>,
    /// Pool width the merge ran under (merge suites only). The `--check`
    /// gate only compares a merge row's counters at the same width.
    pub threads: Option<usize>,
    /// Merge phase counters (merge suites only); `--check` gates the
    /// deterministic ones, so regressions are diagnosable from the
    /// committed JSON alone.
    pub merge_stats: Option<MergeStats>,
    /// Streaming-capture counters plus the budget the capture ran under
    /// (stream suites only).
    pub stream_stats: Option<StreamSuiteStats>,
    /// Peak-resident delta (kB, `VmHWM` above the pre-merge resident set)
    /// of the merge — merge suites only, `None` where the proc interface is
    /// unavailable. The claim that merge memory tracks behavior classes
    /// rather than P is part of the committed record and gated by
    /// `--check`.
    pub peak_rss_kb: Option<u64>,
    /// Simulator counts of the generated program's run — pipeline suites
    /// only. Both repeat exactly from run to run; `--check` gates
    /// `crossings`.
    pub sim: Option<SimCounts>,
}

impl Suite {
    /// A row with its timing and none of the per-family fields.
    fn new(name: String, kind: &'static str, ranks: usize, median_ns: u64) -> Suite {
        Suite {
            name,
            kind,
            ranks,
            median_ns,
            warm_ns: None,
            ratio: None,
            threads: None,
            merge_stats: None,
            stream_stats: None,
            peak_rss_kb: None,
            sim: None,
        }
    }
}

/// The JSON field a suite kind stores [`Suite::ratio`] under.
fn ratio_key(kind: &str) -> Option<&'static str> {
    match kind {
        "compression" => Some("fold_ratio"),
        "stream" => Some("stream_ratio"),
        "pipeline" => Some("interp_ratio"),
        _ => None,
    }
}

/// What one simulated run cost in engine work and in thread handoffs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimCounts {
    /// MPI-level operations the engine issued.
    pub ops: u64,
    /// Request messages the engine received (rank-engine baton crossings).
    pub crossings: u64,
}

/// Capture counters of the streaming suite, pooled over all ranks.
#[derive(Clone, Copy, Debug)]
pub struct StreamSuiteStats {
    /// Resident-node budget the capture ran under.
    pub budget: usize,
    /// Pooled per-rank counters (events/seals sum, peak takes the max).
    pub counters: StreamCounters,
    /// Bytes of segment files the capture left on disk.
    pub segment_bytes: u64,
}

/// A completed perf run.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `full` or `smoke`.
    pub mode: String,
    /// Median-of-N repetition count.
    pub reps: usize,
    /// Warmup iterations.
    pub warmup: usize,
    /// Pool width used for the parallel legs.
    pub threads: usize,
    /// Hardware threads the measuring host reported.
    pub cores: usize,
    /// Suite results in execution order.
    pub suites: Vec<Suite>,
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2
    }
}

/// Warmup + median-of-N wall-clock timing (ns) of the two legs of a
/// same-run ratio. The legs alternate rep by rep so that both see the same
/// machine speed.
fn time_median_pair<A, B>(
    warmup: usize,
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (u64, u64) {
    let (mut a_ns, mut b_ns) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for rep in 0..warmup + reps {
        let t0 = Instant::now();
        black_box(a());
        let t1 = Instant::now();
        black_box(b());
        if rep >= warmup {
            a_ns.push((t1 - t0).as_nanos() as u64);
            b_ns.push(t1.elapsed().as_nanos() as u64);
        }
    }
    (median(a_ns), median(b_ns))
}

/// Warmup + median-of-N wall-clock timing of `f` (ns), with a per-iteration
/// `setup` whose cost stays outside the timed region — the measured
/// function consumes its input (the merge takes the streams by value) and
/// the rebuild would otherwise dominate the measurement.
fn time_median_setup<S, T>(
    warmup: usize,
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> u64 {
    for _ in 0..warmup {
        black_box(f(setup()));
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let input = setup();
        let t0 = Instant::now();
        black_box(f(input));
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    median(samples)
}

/// Current peak-resident high-water mark (`VmHWM`, kB) of this process,
/// from `/proc/self/status`. `None` off Linux or in locked-down mounts.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Run `f` and report its peak-resident delta in kB alongside its result.
///
/// `VmHWM` is monotonic, so the kernel's mark is first reset to the
/// current RSS (writing `5` to `/proc/self/clear_refs`); the delta is then
/// the memory `f` allocated *above* what was already resident — in the
/// merge suites, above the input streams, which are inherently O(P).
/// Wherever either proc file is unavailable the probe degrades to `None`
/// rather than reporting a misleading zero.
fn measure_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let reset_ok = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let before = vm_hwm_kb();
    let out = f();
    let after = vm_hwm_kb();
    let delta = match (reset_ok, before, after) {
        (true, Some(b), Some(a)) => Some(a.saturating_sub(b)),
        _ => None,
    };
    (out, delta)
}

/// One synthetic trace event: a single-rank RSD as the [`Tracer`] hook
/// would record it.
///
/// [`Tracer`]: scalatrace::Tracer
fn synth_event(rank: usize, nranks: usize, sig: u64, bytes: u64, us: u64) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::single(rank),
        sig,
        op: OpTemplate::Send {
            to: RankParam::Const((rank + 1) % nranks),
            tag: 0,
            bytes: ValParam::Const(bytes),
            comm: CommParam::Const(0),
            blocking: false,
        },
        compute: TimeStats::of(SimDuration::from_usecs(us)),
    })
}

/// The per-rank event stream of the compression microbench. Two segments:
///
/// 1. A quasi-periodic 16-event exchange pattern whose last slot's byte
///    count *drifts* every fourth period (the shape rank-dependent or
///    adaptive volumes produce, e.g. IS's `MPI_Alltoallv`). Drift breaks
///    folding at the drift slot, so the structural fold re-walks long
///    almost-equal tail windows on every append — the O(W²) structural
///    near-miss case the fingerprint index reduces to O(1) hash compares.
/// 2. The fold-friendly case: nested loops (8 × a 4-event inner loop plus
///    an epilogue), where folding succeeds constantly and the fingerprint
///    bookkeeping has to pay for itself.
fn synth_stream(rank: usize, nranks: usize, iters: usize) -> Vec<TraceNode> {
    let mut out = Vec::with_capacity(iters * 16);
    for p in 0..iters {
        // Each timestep repeats an 8-call exchange twice, so it folds to
        // `Loop { count: 2, body: [8 events] }` — but the volume of the
        // final call drifts with the timestep (rank-dependent scatter sizes,
        // as in IS), so timesteps never fold into each other. The folded
        // sequence is a run of Loop nodes that agree on everything except
        // one leaf: every structural window comparison recurses through
        // near-identical loop bodies before failing, while the fingerprint
        // index rejects the windows in O(1).
        for _ in 0..2 {
            for s in 0..7u64 {
                out.push(synth_event(rank, nranks, 10 + s, 256 << (s % 4), 1));
            }
            out.push(synth_event(rank, nranks, 17, 100_000 + p as u64, 2));
        }
    }
    out
}

/// One synthetic collective event (same call site on every rank, so the
/// inter-rank merge unifies it into a single full-world RSD).
fn synth_barrier(rank: usize, sig: u64) -> TraceNode {
    TraceNode::Event(Rsd {
        ranks: RankSet::single(rank),
        sig,
        op: OpTemplate::Coll {
            kind: mpisim::types::CollKind::Barrier,
            root: None,
            bytes: ValParam::Const(0),
            comm: CommParam::Const(0),
        },
        compute: TimeStats::of(SimDuration::from_usecs(5)),
    })
}

/// Timesteps of the merge-scaling microbench stream.
const MERGE_TIMESTEPS: usize = 48;

/// The per-rank stream of the merge microbench: `MERGE_TIMESTEPS` steps of
/// an inner exchange loop, a ring send (destinations unify to
/// `OffsetMod`), a volume-drifting send (byte counts unify per rank), and
/// a barrier — identical call-site structure on every rank, the SPMD shape
/// the binary-tree merge sees in practice. Each timestep gets distinct
/// signatures so the pairwise LCS has real mismatches to reject, and each
/// pair merge preserves the stream length, keeping per-level work fixed.
fn merge_stream(rank: usize, nranks: usize) -> Vec<TraceNode> {
    let mut out = Vec::with_capacity(MERGE_TIMESTEPS * 4);
    for t in 0..MERGE_TIMESTEPS as u64 {
        let base = 1000 + t * 16;
        out.push(TraceNode::Loop(scalatrace::trace::Prsd {
            count: 10,
            body: vec![
                synth_event(rank, nranks, base + 1, 512, 1),
                synth_event(rank, nranks, base + 2, 1024, 1),
            ],
        }));
        out.push(synth_event(rank, nranks, base + 3, 4096, 2));
        // Rank-dependent volume: parameter unification has to work.
        out.push(TraceNode::Event(Rsd {
            ranks: RankSet::single(rank),
            sig: base + 4,
            op: OpTemplate::Send {
                to: RankParam::Const((rank + 1) % nranks),
                tag: 0,
                bytes: ValParam::Const(256 + rank as u64),
                comm: CommParam::Const(0),
                blocking: true,
            },
            compute: TimeStats::of(SimDuration::from_usecs(1)),
        }));
        out.push(synth_barrier(rank, base + 5));
    }
    out
}

/// One pre-collapsed block stream of the large-P merge suites: the same
/// timestep structure as [`merge_stream`], but each node already covers a
/// contiguous block of `nranks / MERGE_LARGE_BLOCKS` ranks with symbolic
/// parameters — ring destinations as `OffsetMod`, one rank-linear volume
/// per step — exactly what the leaf merges hand an interior reduction
/// level. Merging the blocks exercises run-wise rank-set union,
/// disjointness checks, and piecewise parameter unification over sets
/// whose *cardinality* scales with the world while their *description*
/// does not.
fn block_stream(block: usize, nranks: usize) -> Vec<TraceNode> {
    let width = nranks / MERGE_LARGE_BLOCKS;
    let ranks = RankSet::from_ranks(block * width..(block + 1) * width);
    let mk = |sig: u64, bytes: ValParam| {
        TraceNode::Event(Rsd {
            ranks: ranks.clone(),
            sig,
            op: OpTemplate::Send {
                to: RankParam::OffsetMod {
                    offset: 1,
                    modulus: nranks,
                },
                tag: 0,
                bytes,
                comm: CommParam::Const(0),
                blocking: false,
            },
            compute: TimeStats::of(SimDuration::from_usecs(1)),
        })
    };
    let mut out = Vec::with_capacity(MERGE_TIMESTEPS * 4);
    for t in 0..MERGE_TIMESTEPS as u64 {
        let base = 1000 + t * 16;
        out.push(TraceNode::Loop(scalatrace::trace::Prsd {
            count: 10,
            body: vec![
                mk(base + 1, ValParam::Const(512)),
                mk(base + 2, ValParam::Const(1024)),
            ],
        }));
        out.push(mk(base + 3, ValParam::Const(4096)));
        out.push(mk(
            base + 4,
            ValParam::Linear {
                base: 256,
                slope: 1,
            },
        ));
        out.push(TraceNode::Event(Rsd {
            ranks: ranks.clone(),
            sig: base + 5,
            op: OpTemplate::Coll {
                kind: mpisim::types::CollKind::Barrier,
                root: None,
                bytes: ValParam::Const(0),
                comm: CommParam::Const(0),
            },
            compute: TimeStats::of(SimDuration::from_usecs(5)),
        }));
    }
    out
}

/// Timesteps of the all-distinct worst-case stream. Much shorter than the
/// SPMD stream: nothing merges, so the merged sequence's length — and the
/// quadratic LCS cost of each representative merge — grows linearly with P.
const DISTINCT_TIMESTEPS: usize = 8;

/// The class-collapse worst case: the same step structure as
/// [`merge_stream`], but every call-site signature embeds the rank, so
/// every rank is its own class, no anchors form, and the representative
/// reduce degenerates to the pairwise tree plus digest/bucketing overhead —
/// which is what this suite records (`lcs_cells` is gated).
fn distinct_stream(rank: usize, nranks: usize) -> Vec<TraceNode> {
    let mut out = Vec::with_capacity(DISTINCT_TIMESTEPS * 4);
    for t in 0..DISTINCT_TIMESTEPS as u64 {
        let base = 1_000_000 + rank as u64 * 10_000 + t * 16;
        out.push(TraceNode::Loop(scalatrace::trace::Prsd {
            count: 10,
            body: vec![
                synth_event(rank, nranks, base + 1, 512, 1),
                synth_event(rank, nranks, base + 2, 1024, 1),
            ],
        }));
        out.push(synth_event(rank, nranks, base + 3, 4096, 2));
        out.push(synth_barrier(rank, base + 5));
    }
    out
}

/// One merge suite: the class-collapsed merge at `cfg.threads()`. Stream
/// construction and per-rep cloning stay outside the timed region.
fn merge_suite_over(
    cfg: &PerfConfig,
    name: String,
    nranks: usize,
    streams: Vec<Vec<TraceNode>>,
) -> Suite {
    let threads = cfg.threads();
    let merge = |input| merge_sequences_stats(input, nranks, threads, MergeStrategy::default());
    // The counters are deterministic, so one untimed pass captures them —
    // and doubles as the peak-resident probe. It must run *before* the
    // timed reps: the probe's delta is only meaningful on the first touch
    // of the workload, before the allocator retains enough freed pages for
    // later passes to reuse without raising the high-water mark. The
    // cloned input is resident before the mark resets, so the delta is
    // the merge's own allocation, not the input.
    let input = streams.clone();
    let (merge_stats, peak_rss_kb) = measure_peak_rss(|| merge(input).1);
    let median_ns = time_median_setup(
        cfg.warmup(),
        cfg.reps(),
        || streams.clone(),
        |input| merge(input).0.len(),
    );
    Suite {
        threads: Some(threads),
        merge_stats: Some(merge_stats),
        peak_rss_kb,
        ..Suite::new(name, "merge", nranks, median_ns)
    }
}

/// Push every rank's stream through a fresh [`TailCompressor`].
///
/// [`TailCompressor`]: scalatrace::TailCompressor
fn compress_fingerprint(streams: &[Vec<TraceNode>]) -> usize {
    let mut sink = 0usize;
    for stream in streams {
        let mut c = scalatrace::TailCompressor::new(DEFAULT_MAX_WINDOW);
        for node in stream {
            c.push(node.clone());
        }
        sink += c.nodes().len();
    }
    sink
}

/// The same streams through [`append_compressed`], the structural fold.
fn compress_structural(streams: &[Vec<TraceNode>]) -> usize {
    let mut sink = 0usize;
    for stream in streams {
        let mut seq = Vec::new();
        for node in stream {
            append_compressed(&mut seq, node.clone(), DEFAULT_MAX_WINDOW);
        }
        sink += seq.len();
    }
    sink
}

fn compression_suite(cfg: &PerfConfig, nranks: usize) -> Suite {
    let streams: Vec<Vec<TraceNode>> = (0..nranks)
        .map(|r| synth_stream(r, nranks, COMPRESS_ITERS))
        .collect();
    let (fingerprint_ns, structural_ns) = time_median_pair(
        cfg.warmup(),
        cfg.reps(),
        || compress_fingerprint(&streams),
        || compress_structural(&streams),
    );
    Suite {
        ratio: Some(ratio(fingerprint_ns, structural_ns)),
        ..Suite::new(
            format!("compress_r{nranks}"),
            "compression",
            nranks,
            fingerprint_ns,
        )
    }
}

/// `num_ns / den_ns`, the way every same-run ratio is formed.
fn ratio(num_ns: u64, den_ns: u64) -> f64 {
    if den_ns == 0 {
        1.0
    } else {
        num_ns as f64 / den_ns as f64
    }
}

/// The job a pipeline row runs for `app`. Same in both modes, for the same
/// comparability reason as [`COMPRESS_ITERS`].
fn pipeline_job(app: &App) -> JobSpec {
    JobSpec {
        iterations: Some(PIPELINE_ITERS),
        ..JobSpec::new(app.name, PIPELINE_RANKS, Class::S, "ideal")
    }
}

/// One full pipeline pass: trace (or cache load) → generate → execute
/// under an mpiP hook. The cache key decides cold vs warm. Returns whether
/// the trace came from the cache and the counts of the generated
/// program's run.
fn pipeline_once(
    job: &JobSpec,
    app: &App,
    cache: &TraceCache,
    key: u64,
) -> Result<(bool, SimCounts), String> {
    let model = job.network_model()?;
    let src = job
        .trace_cached(cache, key, app, model.clone())
        .map_err(|e| format!("{}: trace failed: {e}", app.name))?;
    let generated = benchgen::generate(&src.trace, &job.gen_options())
        .map_err(|e| format!("{}: generation failed: {e}", app.name))?;
    let (report, profile) = execute_profiled(&Arc::new(generated.program), &src.trace, model)
        .map_err(|e| format!("{}: execution failed: {e}", app.name))?;
    black_box(profile.total_calls());
    let counts = SimCounts {
        ops: report.stats.operations,
        crossings: report.crossings,
    };
    Ok((src.cached, counts))
}

/// Host time of the generated program's run under the mpiP hook over that
/// of a plain run of the application.
fn interp_ratio(cfg: &PerfConfig, app: &'static App) -> Result<f64, String> {
    let job = pipeline_job(app);
    let traced = job
        .trace(app, network::ideal())
        .map_err(|e| format!("{}: trace failed: {e}", app.name))?;
    let generated = benchgen::generate(&traced.trace, &job.gen_options())
        .map_err(|e| format!("{}: generation failed: {e}", app.name))?;
    let prog = Arc::new(generated.program);
    let (n, run, params, source) = (job.ranks, app.run, job.params(), &traced.trace);
    // Both legs just ran once to get here, so a failure now is a bug.
    let (app_ns, interp_ns) = time_median_pair(
        cfg.warmup(),
        3 * cfg.reps(),
        || {
            World::new(n)
                .network(network::ideal())
                .run(move |ctx| run(ctx, &params))
                .expect("the application ran when it was traced")
                .total_time
        },
        || execute_profiled(&prog, source, network::ideal()).expect("the generated program runs"),
    );
    Ok(ratio(interp_ns, app_ns))
}

fn pipeline_key(app: &str, phase: &str, rep: usize) -> u64 {
    hash::hash_pairs(&[
        ("suite".into(), "perf-pipeline".into()),
        ("app".into(), app.into()),
        ("ranks".into(), PIPELINE_RANKS.to_string()),
        ("phase".into(), phase.into()),
        ("rep".into(), rep.to_string()),
    ])
}

/// Cold and warm medians for one app: each rep uses a distinct cache key,
/// so the first pass is a guaranteed miss (trace + store) and the second a
/// guaranteed hit (load). The counts are the last pass's (they do not vary
/// from pass to pass).
fn pipeline_suite(
    cfg: &PerfConfig,
    app: &'static App,
    cache: &TraceCache,
) -> Result<Suite, String> {
    let job = pipeline_job(app);
    for w in 0..cfg.warmup() {
        let key = pipeline_key(app.name, "warmup", w);
        pipeline_once(&job, app, cache, key)?;
        pipeline_once(&job, app, cache, key)?;
    }
    let mut cold = Vec::with_capacity(cfg.reps());
    let mut warm = Vec::with_capacity(cfg.reps());
    let mut sim = None;
    for rep in 0..cfg.reps() {
        let key = pipeline_key(app.name, "rep", rep);
        let t0 = Instant::now();
        pipeline_once(&job, app, cache, key)?;
        cold.push(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        let (hit, counts) = pipeline_once(&job, app, cache, key)?;
        warm.push(t1.elapsed().as_nanos() as u64);
        // The shared cache-or-trace step stores best-effort; a warm leg
        // that traced again would be a cold median under the wrong name.
        if !hit {
            return Err(format!(
                "{}: the warm pass missed the cache in {}",
                app.name,
                cache.dir().display()
            ));
        }
        sim = Some(counts);
    }
    Ok(Suite {
        warm_ns: Some(median(warm)),
        ratio: Some(interp_ratio(cfg, app)?),
        sim,
        ..Suite::new(
            format!("pipeline_{}_r{PIPELINE_RANKS}", app.name),
            "pipeline",
            PIPELINE_RANKS,
            median(cold),
        )
    })
}

/// Streaming-capture suite: trace the ring app under a bounded resident
/// budget (segments sealed to disk mid-run) and, as the ratio's reference,
/// unbounded in memory. The suite exists to keep the streaming overhead,
/// and the capture counters, on the measured record.
fn stream_suite(cfg: &PerfConfig) -> Result<Suite, String> {
    let app = registry::lookup("ring").expect("ring is registered");
    let (run_fn, params) = (app.run, pipeline_job(app).params());
    let body = move |ctx: &mut mpisim::Ctx| run_fn(ctx, &params);
    let world = || World::new(STREAM_RANKS).network(network::ideal());
    let dir = cfg.cache_dir.join("perf-stream");
    let stream_cfg = StreamConfig::new(&dir, STREAM_BUDGET).with_max_window(1);
    let streamed = || {
        let _ = std::fs::remove_dir_all(&dir);
        scalatrace::trace_world_streamed(world(), STREAM_RANKS, &stream_cfg, body)
            .map_err(|e| format!("stream suite capture failed: {e}"))
    };
    // The counters are deterministic; one untimed pass records them, and
    // the size of what it sealed.
    let mut counters = StreamCounters::default();
    for c in &streamed()?.counters {
        counters.absorb(c);
    }
    let segment_bytes = std::fs::read_dir(&dir)
        .and_then(|entries| entries.map(|e| Ok(e?.metadata()?.len())).sum())
        .map_err(|e| format!("stream suite cannot size {}: {e}", dir.display()))?;
    let (streamed_ns, unbounded_ns) = time_median_pair(
        cfg.warmup(),
        cfg.reps(),
        || {
            let run = streamed().expect("the capture just succeeded").run;
            run.trace.node_count()
        },
        || {
            let traced =
                scalatrace::trace_world(world(), STREAM_RANKS, body).expect("unbounded capture");
            traced.trace.node_count()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Suite {
        ratio: Some(ratio(streamed_ns, unbounded_ns)),
        stream_stats: Some(StreamSuiteStats {
            budget: stream_cfg.budget(),
            counters,
            segment_bytes,
        }),
        ..Suite::new(
            format!("stream_capture_r{STREAM_RANKS}"),
            "stream",
            STREAM_RANKS,
            streamed_ns,
        )
    })
}

/// The registry apps a perf run covers.
fn pipeline_apps(cfg: &PerfConfig) -> Vec<&'static App> {
    if cfg.smoke {
        SMOKE_APPS
            .iter()
            .map(|n| registry::lookup(n).expect("smoke apps are registered"))
            .collect()
    } else {
        registry::all()
            .iter()
            .filter(|a| (a.valid_ranks)(PIPELINE_RANKS))
            .collect()
    }
}

/// Run the whole suite. Progress goes to stderr; the caller renders the
/// returned report and writes the JSON.
pub fn run(cfg: &PerfConfig) -> Result<PerfReport, String> {
    let mut suites = Vec::new();

    for &n in &COMPRESS_RANKS {
        eprintln!("perf: compression microbench at {n} ranks ...");
        suites.push(compression_suite(cfg, n));
    }

    for &n in &MERGE_RANKS {
        eprintln!(
            "perf: merge reduction at {n} ranks (threads {}) ...",
            cfg.threads()
        );
        let streams = (0..n).map(|r| merge_stream(r, n)).collect();
        suites.push(merge_suite_over(cfg, format!("merge_r{n}"), n, streams));
    }

    // The large-P rows measure the interior reduction level only: a fixed
    // number of block streams whose symbolic parameters cover the whole
    // world, so the scaling gates (wall and peak resident vs the small-P
    // rows) isolate the merge's own cost from the Ω(P) leaf read that
    // [`MERGE_RANKS`] already tracks.
    for &n in &MERGE_LARGE_RANKS {
        eprintln!(
            "perf: large-P interior merge at {n} ranks ({MERGE_LARGE_BLOCKS} blocks, \
             threads {}) ...",
            cfg.threads()
        );
        let streams = (0..MERGE_LARGE_BLOCKS)
            .map(|b| block_stream(b, n))
            .collect();
        suites.push(merge_suite_over(cfg, format!("merge_r{n}"), n, streams));
    }

    {
        let n = MERGE_DISTINCT_RANKS;
        eprintln!(
            "perf: merge worst case (all-distinct) at {n} ranks (threads {}) ...",
            cfg.threads()
        );
        let streams = (0..n).map(|r| distinct_stream(r, n)).collect();
        suites.push(merge_suite_over(
            cfg,
            format!("merge_distinct_r{n}"),
            n,
            streams,
        ));
    }

    eprintln!("perf: streaming capture at {STREAM_RANKS} ranks (budget {STREAM_BUDGET} nodes) ...");
    suites.push(stream_suite(cfg)?);

    // A dedicated subdirectory keeps perf entries (whose keys embed rep
    // indices) out of the campaign's cache namespace; wiping it guarantees
    // the cold legs are real misses even across invocations.
    let perf_cache_dir = cfg.cache_dir.join("perf");
    let _ = std::fs::remove_dir_all(&perf_cache_dir);
    let cache = TraceCache::open(&perf_cache_dir)
        .map_err(|e| format!("cannot open cache {}: {e}", perf_cache_dir.display()))?;

    let mut total = 0u64;
    for app in pipeline_apps(cfg) {
        eprintln!("perf: pipeline {} at {PIPELINE_RANKS} ranks ...", app.name);
        let suite = pipeline_suite(cfg, app, &cache)?;
        total += suite.median_ns;
        suites.push(suite);
    }
    suites.push(Suite::new(
        "pipeline_registry".into(),
        "aggregate",
        PIPELINE_RANKS,
        total,
    ));

    Ok(PerfReport {
        mode: if cfg.smoke { "smoke" } else { "full" }.into(),
        reps: cfg.reps(),
        warmup: cfg.warmup(),
        threads: cfg.threads(),
        cores: par::available_cores(),
        suites,
    })
}

impl Suite {
    fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        let mut obj = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("ranks".into(), num(self.ranks as u64)),
        ];
        if let (Some(key), Some(r)) = (ratio_key(self.kind), self.ratio) {
            obj.push((key.into(), Json::Num(round3(r))));
        }
        if let Some(t) = self.threads {
            obj.push(("threads".into(), num(t as u64)));
        }
        if let Some(st) = &self.merge_stats {
            obj.push(("classes".into(), num(st.classes)));
            obj.push(("rep_merges".into(), num(st.rep_merges)));
            obj.push(("lcs_cells".into(), num(st.lcs_cells)));
            obj.push(("zip_merges".into(), num(st.zip_merges)));
            let trim_rate = if st.pair_nodes == 0 {
                0.0
            } else {
                st.anchor_trimmed as f64 / st.pair_nodes as f64
            };
            obj.push(("anchor_trim_rate".into(), Json::Num(round3(trim_rate))));
        }
        if let Some(kb) = self.peak_rss_kb {
            obj.push(("peak_rss_kb".into(), num(kb)));
        }
        if let Some(sim) = self.sim {
            obj.push(("sim_ops".into(), num(sim.ops)));
            obj.push(("crossings".into(), num(sim.crossings)));
        }
        if let Some(st) = &self.stream_stats {
            let c = &st.counters;
            obj.push(("budget".into(), num(st.budget as u64)));
            obj.push(("peak_resident".into(), num(c.peak_resident as u64)));
            obj.push(("segments_sealed".into(), num(c.segments_sealed)));
            obj.push(("segments_reloaded".into(), num(c.segments_reloaded)));
            obj.push(("segment_bytes".into(), num(st.segment_bytes)));
            obj.push(("stream_events".into(), num(c.events)));
            obj.push(("seal_errors".into(), num(c.seal_errors)));
        }
        Json::Obj(obj)
    }

    /// The deterministic counters `--check` forbids to rise, by the name
    /// the JSON row stores them under.
    fn exact_counters(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        if let Some(sim) = self.sim {
            out.push(("crossings", sim.crossings));
        }
        if let Some(st) = &self.merge_stats {
            out.push(("classes", st.classes));
            out.push(("rep_merges", st.rep_merges));
            out.push(("lcs_cells", st.lcs_cells));
        }
        if let Some(st) = &self.stream_stats {
            out.push(("segments_sealed", st.counters.segments_sealed));
            out.push(("segments_reloaded", st.counters.segments_reloaded));
            out.push(("segment_bytes", st.segment_bytes));
        }
        out
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

impl PerfReport {
    /// The stable on-disk schema ([`SCHEMA`]).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("warmup".into(), Json::Num(self.warmup as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("cores".into(), Json::Num(self.cores as f64)),
            (
                "suites".into(),
                // An aggregate row is a sum of medians: a table line only.
                Json::Arr(
                    self.suites
                        .iter()
                        .filter(|s| s.kind != "aggregate")
                        .map(Suite::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<24} {:>6} {:>4} {:>12} {:>12} {:>19} {:>14}\n",
            "suite", "ranks", "thr", "median(ms)", "warm(ms)", "ratio", "crossings/ops"
        );
        let dash = || "-".to_string();
        for s in &self.suites {
            let ms = |ns: u64| format!("{:.2}", ns as f64 / 1e6);
            let ratio = match (ratio_key(s.kind), s.ratio) {
                (Some(key), Some(r)) => format!("{key} {r:.2}x"),
                _ => dash(),
            };
            out.push_str(&format!(
                "{:<24} {:>6} {:>4} {:>12} {:>12} {:>19} {:>14}\n",
                s.name,
                s.ranks,
                s.threads.map_or_else(dash, |t| t.to_string()),
                ms(s.median_ns),
                s.warm_ns.map_or_else(dash, ms),
                ratio,
                s.sim
                    .map_or_else(dash, |sim| format!("{}/{}", sim.crossings, sim.ops)),
            ));
        }
        out
    }
}

/// Compare a fresh report against a committed one (see the module docs for
/// the three kinds of gate). Returns one message per violation.
pub fn check_regressions(new: &PerfReport, committed: &Json) -> Vec<String> {
    let schema = committed.get("schema").and_then(Json::as_str);
    if schema.map(String::as_str) != Some(SCHEMA) {
        return vec![format!(
            "committed report has schema {}, this build gates {SCHEMA} only: regenerate it \
             with a full `commbench perf` run",
            schema.map_or("<none>".into(), |s| format!("`{s}`")),
        )];
    }
    let Some(suites) = committed.get("suites").and_then(Json::as_arr) else {
        return vec!["committed report has no `suites` array".into()];
    };
    let mut errors = Vec::new();
    for suite in suites {
        let Some(name) = suite.get("name").and_then(Json::as_str) else {
            errors.push("committed suite without a name".into());
            continue;
        };
        let Some(fresh) = new.suites.iter().find(|s| s.name == *name) else {
            // Smoke mode runs a subset of the committed full suite; a full
            // run that lost a row renamed or dropped it, and with it a gate.
            if new.mode == "full" {
                errors.push(format!(
                    "committed suite {name} is missing from this full run"
                ));
            }
            continue;
        };
        // The merge counters were measured at the committed pool width and
        // their width-invariance is unverified: a run at a different
        // `--threads` (or on a host with fewer cores) skips them.
        if let Some(committed_threads) = suite.get("threads").and_then(Json::as_num) {
            if fresh.threads.map(|t| t as f64) != Some(committed_threads) {
                continue;
            }
        }
        // Both legs of a ratio come from the same run on the same host, so
        // it transfers across machines.
        let old_ratio =
            ratio_key(fresh.kind).and_then(|key| Some((key, suite.get(key)?.as_num()?)));
        if let (Some((key, old)), Some(new)) = (old_ratio, fresh.ratio) {
            if new > old * (1.0 + CHECK_TOLERANCE) {
                errors.push(format!(
                    "suite {name}: {key} {new:.3} is more than {:.0}% above the committed {old:.3}",
                    CHECK_TOLERANCE * 100.0,
                ));
            }
        }
        // These repeat exactly, so any rise is a change in how much work the
        // algorithm does — or how often ranks and the engine switch — not
        // noise.
        for (key, now) in fresh.exact_counters() {
            let Some(old) = suite.get(key).and_then(Json::as_num) else {
                continue;
            };
            if now as f64 > old {
                errors.push(format!(
                    "suite {name}: {key} rose to {now}, committed {old}"
                ));
            }
        }
    }
    errors.extend(check_stream_bound(new));
    errors.extend(check_merge_scaling(new));
    errors
}

/// The memory bound of streaming capture, on the *fresh* run: no rank may
/// ever have held more nodes than its budget.
fn check_stream_bound(new: &PerfReport) -> Vec<String> {
    let rows = new.suites.iter().filter_map(|s| Some((s, s.stream_stats?)));
    rows.filter(|(_, st)| st.counters.peak_resident > st.budget)
        .map(|(s, st)| {
            format!(
                "suite {} broke its memory bound: peak {} resident nodes under budget {}",
                s.name, st.counters.peak_resident, st.budget
            )
        })
        .collect()
}

/// Cross-suite scaling gates over the *fresh* run: the large-P merge rows
/// must show wall time and peak resident memory tracking the distinct
/// behavior count, not P. Both rows come from the same run on the same
/// host, so absolute ratios — unlike cross-machine nanoseconds — are
/// meaningful to gate.
fn check_merge_scaling(new: &PerfReport) -> Vec<String> {
    let mut errors = Vec::new();
    let find = |name: &str| new.suites.iter().find(|s| s.name == name);

    // Wall: the interior merges over worlds 16x-64x merge_r256's must each
    // cost at most LARGE_MERGE_WALL_RATIO of its wall — their parameters
    // describe vastly more ranks in the same number of runs, so only a
    // regression to per-rank materialization can push them over.
    if let Some(small) = find("merge_r256") {
        for &n in &MERGE_LARGE_RANKS {
            let name = format!("merge_r{n}");
            let Some(large) = find(&name) else { continue };
            let limit = small.median_ns as f64 * LARGE_MERGE_WALL_RATIO;
            if large.median_ns as f64 > limit {
                errors.push(format!(
                    "merge wall scales with P: {name} took {:.2}ms, more than {:.1}x \
                     merge_r256's {:.2}ms",
                    large.median_ns as f64 / 1e6,
                    LARGE_MERGE_WALL_RATIO,
                    small.median_ns as f64 / 1e6,
                ));
            }
        }
    }

    // Memory: quadrupling the ranks must not scale the merge's own
    // peak-resident delta (deltas under the noise floor pass outright).
    if let (Some(a), Some(b)) = (find("merge_r4096"), find("merge_r16384")) {
        if let (Some(pa), Some(pb)) = (a.peak_rss_kb, b.peak_rss_kb) {
            let limit = (pa.max(PEAK_RSS_FLOOR_KB) as f64) * LARGE_MERGE_PEAK_RATIO;
            if pb > PEAK_RSS_FLOOR_KB && pb as f64 > limit {
                errors.push(format!(
                    "merge peak memory scales with P: merge_r16384 peaked {pb} kB above \
                     baseline, more than {LARGE_MERGE_PEAK_RATIO}x merge_r4096's {pa} kB",
                ));
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        assert_eq!(median(vec![3, 1, 2]), 2);
        assert_eq!(median(vec![4, 1, 2, 3]), 2);
        assert_eq!(median(vec![7]), 7);
    }

    #[test]
    fn synth_stream_compresses_under_both_strategies_identically() {
        // The premise of `fold_ratio`: both production folds turn the
        // microbench stream into the same sequence.
        let stream = synth_stream(0, 8, 30);
        let mut fp = scalatrace::TailCompressor::new(DEFAULT_MAX_WINDOW);
        let mut st = Vec::new();
        for n in &stream {
            fp.push(n.clone());
            append_compressed(&mut st, n.clone(), DEFAULT_MAX_WINDOW);
        }
        assert_eq!(fp.nodes(), st.as_slice());
        assert!(
            st.len() < stream.len() / 10,
            "stream must actually fold ({} -> {})",
            stream.len(),
            st.len()
        );
    }

    #[test]
    fn pipeline_cold_then_warm_hits_the_cache() {
        let dir = std::env::temp_dir().join(format!("commspec-perf-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::open(&dir).unwrap();
        let app = registry::lookup("ring").unwrap();
        let job = JobSpec {
            iterations: Some(3),
            ..pipeline_job(app)
        };
        let key = pipeline_key("ring", "test", 0);
        assert!(cache.load(key).is_none());
        let (hit, cold) = pipeline_once(&job, app, &cache, key).unwrap();
        assert!(!hit);
        assert!(cache.load(key).is_some(), "cold pass fills the cache");
        let (hit, warm) = pipeline_once(&job, app, &cache, key).unwrap();
        assert!(hit, "warm pass loads what the cold pass stored");
        assert_eq!((cold.ops, cold.crossings), (warm.ops, warm.crossings));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn suite(name: &str, kind: &'static str, threads: Option<usize>) -> Suite {
        Suite {
            threads,
            ..Suite::new(name.into(), kind, 64, 1_000)
        }
    }

    fn report(suites: Vec<Suite>) -> PerfReport {
        PerfReport {
            mode: "smoke".into(),
            reps: 3,
            warmup: 1,
            threads: 8,
            cores: 8,
            suites,
        }
    }

    fn committed(r: &PerfReport) -> Json {
        parse_json(&r.to_json().to_string()).unwrap()
    }

    fn with_ratio(name: &str, kind: &'static str, ratio: f64) -> Suite {
        let mut s = suite(name, kind, None);
        s.ratio = Some(ratio);
        s
    }

    #[test]
    fn report_json_roundtrips_and_checks() {
        let report = report(vec![with_ratio("compress_r64", "compression", 0.2)]);
        let parsed = committed(&report);
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(&SCHEMA.to_string())
        );
        assert_eq!(parsed.get("threads").and_then(Json::as_num), Some(8.0));
        assert_eq!(parsed.get("cores").and_then(Json::as_num), Some(8.0));
        let row = &parsed.get("suites").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row.get("ranks").and_then(Json::as_num), Some(64.0));
        assert_eq!(row.get("fold_ratio").and_then(Json::as_num), Some(0.2));
        assert!(check_regressions(&report, &parsed).is_empty());

        // A fresh run whose wall time moved but whose ratio held passes: no
        // median is gated.
        let mut slower = report.clone();
        slower.suites[0].median_ns *= 10;
        assert!(check_regressions(&slower, &parsed).is_empty());
    }

    #[test]
    fn wall_times_are_printed_and_never_written_or_read() {
        let mut pipeline = with_ratio("pipeline_ring_r4", "pipeline", 1.5);
        pipeline.warm_ns = Some(700);
        let total = Suite::new("pipeline_registry".into(), "aggregate", 4, 1_000);
        let report = report(vec![pipeline, total]);

        let text = report.to_json().to_string();
        assert!(!text.contains("median_ns") && !text.contains("warm_ns"));
        assert!(!text.contains("pipeline_registry"), "{text}");
        assert!(report.table().contains("pipeline_registry"));
        assert!(check_regressions(&report, &parse_json(&text).unwrap()).is_empty());

        // A v3 file from before the trim — medians in every row, the
        // aggregate row present — gates exactly the same things.
        let untrimmed = r#"{
            "schema": "commspec-perf/v3",
            "mode": "smoke", "reps": 3, "warmup": 1, "threads": 8, "cores": 8,
            "suites": [
                {"name": "pipeline_ring_r4", "kind": "pipeline", "ranks": 4,
                 "median_ns": 5, "warm_ns": 3, "interp_ratio": 1.5},
                {"name": "pipeline_registry", "kind": "aggregate", "ranks": 4, "median_ns": 5}
            ]
        }"#;
        let untrimmed = parse_json(untrimmed).unwrap();
        assert!(check_regressions(&report, &untrimmed).is_empty());
        let mut drifted = report.clone();
        drifted.suites[0].ratio = Some(1.5 * (1.0 + CHECK_TOLERANCE) + 0.01);
        assert_eq!(check_regressions(&drifted, &untrimmed).len(), 1);
    }

    #[test]
    fn check_gates_every_same_run_ratio_within_tolerance() {
        for (name, kind, key) in [
            ("compress_r64", "compression", "fold_ratio"),
            ("stream_capture_r8", "stream", "stream_ratio"),
        ] {
            let old = committed(&report(vec![with_ratio(name, kind, 4.0)]));
            for ok in [4.0, 0.5, 4.99] {
                let fresh = report(vec![with_ratio(name, kind, ok)]);
                assert!(check_regressions(&fresh, &old).is_empty(), "{name} {ok}");
            }
            let errors = check_regressions(&report(vec![with_ratio(name, kind, 5.01)]), &old);
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(
                errors[0].contains(name) && errors[0].contains(key),
                "{}",
                errors[0]
            );
        }
    }

    #[test]
    fn check_reports_a_missing_suite_in_full_mode_only() {
        let old = committed(&report(vec![with_ratio(
            "compress_r64",
            "compression",
            0.2,
        )]));
        // Smoke runs a subset of the committed full suite.
        let smoke = report(Vec::new());
        assert!(check_regressions(&smoke, &old).is_empty());
        // A full run that did not produce a committed row lost its gate.
        let full = PerfReport {
            mode: "full".into(),
            ..smoke
        };
        let errors = check_regressions(&full, &old);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("compress_r64 is missing"),
            "{}",
            errors[0]
        );
    }

    #[test]
    fn check_refuses_a_committed_file_of_another_schema() {
        // What PR 15 committed: one error naming both schemas, not one per
        // suite.
        let v2 = r#"{
            "schema": "commspec-perf/v2",
            "mode": "full", "reps": 5, "warmup": 2, "threads": 1, "cores": 2,
            "suites": [
                {"name": "compress_r64", "kind": "compression", "ranks": 64, "speedup": 5.5},
                {"name": "compress_r32", "kind": "compression", "ranks": 32, "speedup": 5.5}
            ]
        }"#;
        let fresh = report(vec![with_ratio("compress_r64", "compression", 0.2)]);
        let errors = check_regressions(&fresh, &parse_json(v2).unwrap());
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("commspec-perf/v2") && errors[0].contains(SCHEMA),
            "{}",
            errors[0]
        );
        let errors = check_regressions(&fresh, &parse_json(r#"{"suites": []}"#).unwrap());
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("<none>"), "{}", errors[0]);
    }

    fn merge_row(threads: usize, lcs_cells: u64) -> Suite {
        let mut s = suite("merge_r256", "merge", Some(threads));
        s.merge_stats = Some(MergeStats {
            members: 256,
            classes: 2,
            collisions: 0,
            rep_merges: 1,
            zip_merges: 1,
            lcs_cells,
            anchor_trimmed: 12,
            pair_nodes: 48,
        });
        s
    }

    #[test]
    fn check_skips_suites_measured_at_a_different_pool_width() {
        // Committed: merge_r256 measured at threads=8. A fresh run at
        // threads=1 measures under an unverified width and is skipped; a
        // fresh run at the same width is gated.
        let old = committed(&report(vec![merge_row(8, 100)]));
        assert!(check_regressions(&report(vec![merge_row(1, 999)]), &old).is_empty());
        assert_eq!(
            check_regressions(&report(vec![merge_row(8, 999)]), &old).len(),
            1
        );
        assert!(check_regressions(&report(vec![merge_row(8, 100)]), &old).is_empty());
    }

    #[test]
    fn check_gates_the_merge_counters_exactly() {
        let old = committed(&report(vec![merge_row(1, 100)]));
        assert!(check_regressions(&report(vec![merge_row(1, 99)]), &old).is_empty());
        let errors = check_regressions(&report(vec![merge_row(1, 101)]), &old);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("lcs_cells rose to 101"), "{}", errors[0]);
        // Each gated counter trips on its own.
        let mut more_classes = merge_row(1, 100);
        more_classes.merge_stats.as_mut().unwrap().classes = 3;
        let mut more_merges = merge_row(1, 100);
        more_merges.merge_stats.as_mut().unwrap().rep_merges = 2;
        for (row, key) in [(more_classes, "classes"), (more_merges, "rep_merges")] {
            let errors = check_regressions(&report(vec![row]), &old);
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(errors[0].contains(key), "{}", errors[0]);
        }
        // Ungated diagnostics may move freely.
        let mut trimmed = merge_row(1, 100);
        trimmed.merge_stats.as_mut().unwrap().zip_merges = 50;
        assert!(check_regressions(&report(vec![trimmed]), &old).is_empty());
    }

    #[test]
    fn check_gates_the_crossing_count_exactly() {
        let row = |crossings| {
            let mut s = suite("pipeline_lu_r4", "pipeline", None);
            s.sim = Some(SimCounts {
                ops: 1204,
                crossings,
            });
            s
        };
        let old = committed(&report(vec![row(12)]));
        assert!(check_regressions(&report(vec![row(12)]), &old).is_empty());
        assert!(check_regressions(&report(vec![row(8)]), &old).is_empty());
        let errors = check_regressions(&report(vec![row(13)]), &old);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("crossings rose to 13"), "{}", errors[0]);
    }

    #[test]
    fn check_gates_the_interpreter_ratio_within_tolerance() {
        let row = |ratio| with_ratio("pipeline_lu_r4", "pipeline", ratio);
        let old = committed(&report(vec![row(1.2)]));
        assert!(check_regressions(&report(vec![row(1.2)]), &old).is_empty());
        assert!(check_regressions(&report(vec![row(0.9)]), &old).is_empty());
        assert!(check_regressions(&report(vec![row(1.49)]), &old).is_empty());
        let errors = check_regressions(&report(vec![row(1.51)]), &old);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("interp_ratio 1.510"), "{}", errors[0]);
    }

    fn stream_row(peak_resident: usize, sealed: u64, reloaded: u64, bytes: u64) -> Suite {
        let mut s = suite("stream_capture_r8", "stream", None);
        s.stream_stats = Some(StreamSuiteStats {
            budget: 192,
            counters: StreamCounters {
                events: 2408,
                peak_resident,
                segments_sealed: sealed,
                segments_reloaded: reloaded,
                seal_errors: 0,
            },
            segment_bytes: bytes,
        });
        s
    }

    #[test]
    fn check_gates_the_stream_counters_and_the_memory_bound() {
        let old = committed(&report(vec![stream_row(190, 72, 0, 6000)]));
        assert!(check_regressions(&report(vec![stream_row(192, 72, 0, 6000)]), &old).is_empty());
        assert!(check_regressions(&report(vec![stream_row(100, 70, 0, 6000)]), &old).is_empty());
        let smaller = stream_row(190, 72, 0, 5999);
        assert!(check_regressions(&report(vec![smaller]), &old).is_empty());
        for (row, what) in [
            (stream_row(190, 73, 0, 6000), "segments_sealed rose to 73"),
            (stream_row(190, 72, 1, 6000), "segments_reloaded rose to 1"),
            (stream_row(190, 72, 0, 6001), "segment_bytes rose to 6001"),
            (stream_row(193, 72, 0, 6000), "broke its memory bound"),
        ] {
            let errors = check_regressions(&report(vec![row]), &old);
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(errors[0].contains(what), "{}", errors[0]);
        }
    }

    #[test]
    fn merge_wall_scaling_gate_trips_on_p_dependent_cost() {
        let row = |name: &str, ns: u64| {
            let mut s = suite(name, "merge", Some(8));
            s.median_ns = ns;
            s
        };
        // Interior merges cheaper than the leaf row: pass.
        let good = report(vec![
            row("merge_r256", 20_000_000),
            row("merge_r4096", 500_000),
            row("merge_r16384", 600_000),
        ]);
        assert!(check_merge_scaling(&good).is_empty());
        // A dense-materialization regression: both large rows blow past
        // LARGE_MERGE_WALL_RATIO x merge_r256 and each gets its own error.
        let bad = report(vec![
            row("merge_r256", 20_000_000),
            row("merge_r4096", 107_000_000),
            row("merge_r16384", 428_000_000),
        ]);
        let errors = check_merge_scaling(&bad);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("merge_r4096"), "{}", errors[0]);
        assert!(errors[1].contains("merge_r16384"), "{}", errors[1]);
        // Smoke runs without the large rows (or without merge_r256) are
        // not an error.
        assert!(check_merge_scaling(&report(vec![row("merge_r256", 20_000_000)])).is_empty());
        assert!(check_merge_scaling(&report(vec![row("merge_r4096", u64::MAX)])).is_empty());
    }

    #[test]
    fn merge_peak_scaling_gate_floors_noise_and_trips_on_growth() {
        let row = |name: &str, peak: Option<u64>| {
            let mut s = suite(name, "merge", Some(8));
            s.peak_rss_kb = peak;
            s
        };
        let check = |pa, pb| {
            check_merge_scaling(&report(vec![
                row("merge_r4096", pa),
                row("merge_r16384", pb),
            ]))
        };
        // Deltas at or under the allocator-noise floor pass outright,
        // whatever the ratio between them.
        assert!(check(Some(0), Some(PEAK_RSS_FLOOR_KB)).is_empty());
        // Above the floor but within the ratio of the floored baseline.
        assert!(check(Some(512), Some(2 * PEAK_RSS_FLOOR_KB)).is_empty());
        // 4x the ranks costing way more memory: trips.
        let errors = check(Some(8_192), Some(400_000));
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("peak memory"), "{}", errors[0]);
        // No probe available (no /proc): the gate cannot fire.
        assert!(check(None, Some(1 << 30)).is_empty());
        assert!(check(Some(1), None).is_empty());
    }

    #[test]
    fn block_streams_collapse_to_the_class_count_not_p() {
        // The large-P input collapses to one merged sequence whose length
        // matches a single block stream — and its node count, rank-set
        // runs, and parameter descriptions are identical at 4096 and 16384
        // ranks, which is the invariant the perf rows pin.
        let merged = |n: usize| {
            let streams: Vec<_> = (0..MERGE_LARGE_BLOCKS)
                .map(|b| block_stream(b, n))
                .collect();
            let (nodes, stats) =
                merge_sequences_stats(streams, n, 1, MergeStrategy::ClassCollapsed);
            assert_eq!(stats.classes, 1, "all blocks are one behavior class");
            nodes
        };
        let small = merged(MERGE_LARGE_RANKS[0]);
        let large = merged(MERGE_LARGE_RANKS[1]);
        assert_eq!(small.len(), block_stream(0, MERGE_LARGE_RANKS[0]).len());
        assert_eq!(small.len(), large.len());
        for (s, l) in small.iter().zip(&large) {
            if let (TraceNode::Event(a), TraceNode::Event(b)) = (s, l) {
                assert_eq!(a.ranks.run_count(), b.ranks.run_count());
                assert_eq!(a.ranks.run_count(), 1, "world union stays one run");
            }
        }
    }

    #[test]
    fn merge_suite_json_carries_phase_counters() {
        let json = parse_json(&merge_row(1, 7).to_json().to_string()).unwrap();
        assert_eq!(json.get("classes").and_then(Json::as_num), Some(2.0));
        assert_eq!(json.get("rep_merges").and_then(Json::as_num), Some(1.0));
        assert_eq!(json.get("lcs_cells").and_then(Json::as_num), Some(7.0));
        assert_eq!(json.get("zip_merges").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            json.get("anchor_trim_rate").and_then(Json::as_num),
            Some(0.25)
        );
        assert_eq!(json.get("threads").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn stream_suite_json_carries_capture_counters() {
        let json = parse_json(&stream_row(190, 72, 0, 6000).to_json().to_string()).unwrap();
        for (key, want) in [
            ("budget", 192.0),
            ("peak_resident", 190.0),
            ("segments_sealed", 72.0),
            ("segments_reloaded", 0.0),
            ("segment_bytes", 6000.0),
            ("stream_events", 2408.0),
            ("seal_errors", 0.0),
        ] {
            assert_eq!(json.get(key).and_then(Json::as_num), Some(want), "{key}");
        }
    }

    #[test]
    fn distinct_stream_never_collapses() {
        let p = 8;
        let streams: Vec<Vec<TraceNode>> = (0..p).map(|r| distinct_stream(r, p)).collect();
        let (merged, stats) =
            merge_sequences_stats(streams.clone(), p, 1, MergeStrategy::ClassCollapsed);
        assert_eq!(stats.classes, p as u64, "every rank is its own class");
        assert_eq!(stats.rep_merges, p as u64 - 1);
        let pairwise =
            scalatrace::merge::merge_sequences_strategy(streams, p, 1, MergeStrategy::Pairwise);
        assert_eq!(
            merged, pairwise,
            "worst case still matches the pairwise tree"
        );
        assert_eq!(merged.len(), p * DISTINCT_TIMESTEPS * 3);
    }

    #[test]
    fn merge_stream_is_thread_count_invariant_and_actually_merges() {
        let p = 16;
        let streams: Vec<Vec<TraceNode>> = (0..p).map(|r| merge_stream(r, p)).collect();
        let len = streams[0].len();
        let seq = scalatrace::merge::merge_sequences_with(streams.clone(), p, 1);
        for threads in [2, 8] {
            let par_out = scalatrace::merge::merge_sequences_with(streams.clone(), p, threads);
            assert_eq!(par_out, seq, "threads={threads}");
        }
        // Full SPMD merge: the global sequence keeps the per-rank length and
        // every node covers all ranks.
        assert_eq!(seq.len(), len);
        for node in &seq {
            let TraceNode::Event(e) = node else { continue };
            assert_eq!(e.ranks.len(), p, "{e:?}");
        }
    }
}
