//! `commbench perf` — the standing performance gate.
//!
//! Runs a fixed, std-only benchmark suite with warmup + median-of-N timing
//! and writes `BENCH_pipeline.json` at the repo root in a stable schema, so
//! successive PRs append to a measured performance trajectory instead of
//! trading anecdotes. Two suite families:
//!
//! * **compression** — the ScalaTrace tail-folding microbench at 8/32/64
//!   ranks: synthetic per-rank event streams (nested loops, flat bursts,
//!   periodic breaks) pushed through [`TailCompressor`] under the
//!   production fingerprint strategy and the seed structural strategy.
//! * **pipeline** — the full trace → generate → execute pipeline over
//!   miniapp registry entries, routed through [`campaign::TraceCache`] so
//!   every suite reports both a *cold* timing (trace, store, generate,
//!   execute) and a *warm* timing (cache load, generate, execute). The
//!   baseline leg re-runs the seed algorithms: structural folding and
//!   unbatched rank→engine handoffs.
//!
//! * **merge** — the inter-rank reduction at 64–1024 ranks: per-rank
//!   streams with identical call-site structure (the SPMD common case)
//!   merged under the class-collapsed strategy (`current`) and the seed
//!   pairwise LCS tree (`baseline`), both at the configured pool width, so
//!   the speedup isolates the algorithm rather than thread scaling. A
//!   `merge_distinct_r64` suite runs the all-distinct worst case, where
//!   collapse degenerates to the pairwise tree plus digest overhead and
//!   must stay within noise of the seed path. Merge suites embed the
//!   collapse phase counters (classes, representative merges, LCS cells,
//!   anchor-trim rate) as additive JSON fields, and record the pool width
//!   they measured under: the pairwise baseline parallelises on real
//!   multicore hosts while collapse is mostly width-insensitive, so the
//!   ratio depends on the width and the `--check` gate only compares a
//!   merge suite when the fresh run used the *same* width.
//!
//! * **stream** — bounded-memory streaming capture (`scalatrace::stream`)
//!   of the ring app versus the seed unbounded in-memory capture. The
//!   speedup here is the streaming overhead ratio, and the row embeds the
//!   capture counters (peak resident nodes vs budget, segments sealed,
//!   reloads, seal errors) as additive JSON fields, so the memory bound is
//!   part of the committed record.
//!
//! Every suite therefore embeds its own `--baseline` comparison; `speedup`
//! is `baseline_ns / current_ns` on the primary metric (median compression
//! time, or median cold pipeline time). Speedups — not absolute
//! nanoseconds — are what the CI smoke gate compares across machines.

use campaign::hash;
use campaign::TraceCache;
use conceptual::ast::Program;
use conceptual::interp::run_rank;
use miniapps::{registry, App, AppParams, Class};
use mpisim::network;
use mpisim::profile::MpiP;
use mpisim::time::SimDuration;
use mpisim::world::{RunReport, World};
use scalatrace::compress::DEFAULT_MAX_WINDOW;
use scalatrace::merge::merge_sequences_stats;
use scalatrace::params::{CommParam, RankParam, ValParam};
use scalatrace::timestats::TimeStats;
use scalatrace::trace::{OpTemplate, Rsd, TraceNode};
use scalatrace::{FoldStrategy, MergeStats, MergeStrategy, RankSet, StreamConfig, StreamCounters};
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

/// Maximum tolerated regression of a suite's speedup vs the committed
/// baseline in `--check` mode (25%).
pub const CHECK_TOLERANCE: f64 = 0.25;

/// Configuration of one `commbench perf` invocation.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Smoke mode: two registry apps instead of the full set.
    pub smoke: bool,
    /// Measure only the seed algorithms (structural folding, unbatched
    /// handoffs) — the manual A/B leg. The default run already embeds the
    /// baseline comparison in every suite.
    pub baseline_only: bool,
    /// Median-of-N repetition count (`None` = mode default).
    pub reps: Option<usize>,
    /// Warmup iterations before timing (`None` = mode default).
    pub warmup: Option<usize>,
    /// Trace-cache directory; the suite uses the `perf/` subdirectory.
    pub cache_dir: PathBuf,
    /// Output path for the JSON report.
    pub out: PathBuf,
    /// Committed baseline to compare speedups against (CI gate).
    pub check: Option<PathBuf>,
    /// Pool width for the parallel legs (`None` = [`par::threads`], i.e.
    /// `COMMSPEC_THREADS` or the core count).
    pub threads: Option<usize>,
    /// Run independent pipeline suites concurrently on the pool. Off by
    /// default: concurrent suites contend for cores and perturb each
    /// other's timings, so this is for quick exploratory runs, not for
    /// regenerating the committed baseline.
    pub parallel_suites: bool,
}

impl PerfConfig {
    /// Defaults: full mode, cache and output at their conventional paths.
    pub fn new() -> PerfConfig {
        PerfConfig {
            smoke: false,
            baseline_only: false,
            reps: None,
            warmup: None,
            cache_dir: PathBuf::from(".commbench-cache"),
            out: PathBuf::from("BENCH_pipeline.json"),
            check: None,
            threads: None,
            parallel_suites: false,
        }
    }

    /// Resolved pool width for the parallel legs.
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(par::threads).max(1)
    }

    /// Median-of-N count. Identical in smoke and full mode: a median of 3
    /// is too noisy to hold the `--check` tolerance on the cheapest suites
    /// (one cold-start outlier per leg skews it), so smoke saves its time
    /// through the smaller pipeline app set only.
    fn reps(&self) -> usize {
        self.reps.unwrap_or(5)
    }

    fn warmup(&self) -> usize {
        self.warmup.unwrap_or(2)
    }

    /// Outer iterations of the synthetic compression stream. Identical in
    /// smoke and full mode: speedups are only comparable across runs when
    /// the workload shape is fixed (the seed structural scan's cost is not
    /// linear in the stream length), and smoke mode saves its time by
    /// cutting the pipeline app set instead.
    fn compress_iters(&self) -> usize {
        150
    }

    /// Per-app iteration override for the pipeline suite. Same in both
    /// modes, for the same comparability reason as [`Self::compress_iters`].
    fn pipeline_iters(&self) -> usize {
        30
    }
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig::new()
    }
}

/// One benchmark suite's result. `current_ns` / `baseline_ns` hold the
/// primary metric (compression: median fold time; pipeline: median cold
/// time); pipeline suites add the warm (cache-hit) medians.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Stable suite name (e.g. `compress_r64`, `pipeline_lu_r4`).
    pub name: String,
    /// `compression`, `pipeline`, or `aggregate`.
    pub kind: &'static str,
    /// World size (0 for aggregates).
    pub ranks: usize,
    /// Median of the primary metric with the current algorithms, in ns.
    pub current_ns: u64,
    /// Median of the primary metric with the seed algorithms, in ns.
    pub baseline_ns: u64,
    /// `baseline_ns / current_ns`.
    pub speedup: f64,
    /// Median warm (cache-hit) pipeline time, current algorithms.
    pub warm_ns: Option<u64>,
    /// Median warm (cache-hit) pipeline time, seed algorithms.
    pub baseline_warm_ns: Option<u64>,
    /// Pool width the `current` leg ran under (merge/scaling suites only;
    /// `None` for single-threaded workloads). The `--check` gate only
    /// compares suites measured under the same width.
    pub threads: Option<usize>,
    /// Merge phase counters from the `current` (class-collapsed) leg, so
    /// regressions are diagnosable from the committed JSON alone.
    pub merge_stats: Option<MergeStats>,
    /// Streaming-capture counters from the `current` (streamed) leg plus
    /// the budget it ran under (stream suites only).
    pub stream_stats: Option<StreamSuiteStats>,
    /// Peak-resident delta (kB, `VmHWM` above the pre-merge resident set)
    /// of the `current` leg's merge — merge suites only, `None` where the
    /// proc interface is unavailable. Additive v2 field: the claim that
    /// merge memory tracks behavior classes rather than P is part of the
    /// committed record and gated by `--check`.
    pub peak_rss_kb: Option<u64>,
    /// Simulator counts of the `current` leg's generated-program run —
    /// pipeline suites only. Both repeat exactly from run to run, so
    /// `--check` gates `crossings` where wall time is too noisy to.
    pub sim: Option<SimCounts>,
    /// Host time of the generated program's run under the mpiP hook over
    /// that of a plain run of the application it stands for — pipeline
    /// suites only. What interpreting the specification costs on top of
    /// the simulator; `--check` gates it against the committed ratio.
    pub interp_ratio: Option<f64>,
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
}

/// A completed perf run.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// `full`, `smoke`, or `baseline-only`.
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

/// The two algorithm generations each suite compares.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Fingerprint folding + batched op submission.
    Current,
    /// Seed algorithms: structural folding + per-op handoffs.
    Baseline,
}

impl Variant {
    fn strategy(self) -> FoldStrategy {
        match self {
            Variant::Current => FoldStrategy::Fingerprint,
            Variant::Baseline => FoldStrategy::Structural,
        }
    }

    fn batching(self) -> bool {
        self == Variant::Current
    }

    fn label(self) -> &'static str {
        match self {
            Variant::Current => "current",
            Variant::Baseline => "baseline",
        }
    }
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

/// Warmup + median-of-N wall-clock timing of `f` (ns).
fn time_median<T>(warmup: usize, reps: usize, mut f: impl FnMut() -> T) -> u64 {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    median(samples)
}

/// [`time_median`] with a per-iteration `setup` whose cost stays outside
/// the timed region — used where the measured function consumes its input
/// (e.g. the merge takes the streams by value) and the rebuild would
/// otherwise dominate the measurement.
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
///    folding at the drift slot, so the seed algorithm re-walks long
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
/// SPMD stream: nothing merges, so the pairwise baseline's sequence length
/// — and its quadratic LCS cost — grows linearly with P.
const DISTINCT_TIMESTEPS: usize = 8;

/// The class-collapse worst case: the same step structure as
/// [`merge_stream`], but every call-site signature embeds the rank, so
/// every rank is its own class, no anchors form, and the representative
/// reduce degenerates to the seed pairwise tree plus digest/bucketing
/// overhead — which is what this suite bounds.
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

/// One merge suite: `current` is the class-collapsed strategy, `baseline`
/// the seed pairwise LCS tree, both at `cfg.threads()` over the same
/// streams — the speedup isolates the algorithm, not thread scaling.
/// Stream construction and per-rep cloning stay outside the timed region.
fn merge_suite_over(
    cfg: &PerfConfig,
    name: String,
    nranks: usize,
    variants: &[Variant],
    streams: Vec<Vec<TraceNode>>,
) -> Suite {
    let threads = cfg.threads();
    // The counters are deterministic, so one untimed pass captures them —
    // and doubles as the peak-resident probe. It must run *before* the
    // timed legs: the probe's delta is only meaningful on the first touch
    // of the workload, before the allocator retains enough freed pages for
    // later passes to reuse without raising the high-water mark. The
    // cloned input is resident before the mark resets, so the delta is
    // the merge's own allocation, not the input.
    let (merge_stats, peak_rss_kb) = if variants.contains(&Variant::Current) {
        let input = streams.clone();
        let (stats, peak) = measure_peak_rss(|| {
            merge_sequences_stats(input, nranks, threads, MergeStrategy::ClassCollapsed).1
        });
        (Some(stats), peak)
    } else {
        (None, None)
    };
    let mut times = [0u64; 2];
    for &v in variants {
        let strategy = match v {
            Variant::Current => MergeStrategy::ClassCollapsed,
            Variant::Baseline => MergeStrategy::Pairwise,
        };
        let t = time_median_setup(
            cfg.warmup(),
            cfg.reps(),
            || streams.clone(),
            |input| {
                merge_sequences_stats(input, nranks, threads, strategy)
                    .0
                    .len()
            },
        );
        times[(v == Variant::Baseline) as usize] = t;
    }
    let (current_ns, baseline_ns) = fill_missing(times, variants);
    Suite {
        name,
        kind: "merge",
        ranks: nranks,
        current_ns,
        baseline_ns,
        speedup: ratio(baseline_ns, current_ns),
        warm_ns: None,
        baseline_warm_ns: None,
        threads: Some(threads),
        merge_stats,
        stream_stats: None,
        peak_rss_kb,
        sim: None,
        interp_ratio: None,
    }
}

/// Run the compression microbench for one rank count: push every rank's
/// stream through a fresh [`TailCompressor`] under `strategy`, returning
/// the median wall time over `reps`.
///
/// [`TailCompressor`]: scalatrace::TailCompressor
fn compress_once(streams: &[Vec<TraceNode>], strategy: FoldStrategy) -> usize {
    let mut sink = 0usize;
    for stream in streams {
        let mut c = scalatrace::TailCompressor::with_strategy(DEFAULT_MAX_WINDOW, strategy);
        for node in stream {
            c.push(node.clone());
        }
        sink += c.nodes().len();
    }
    sink
}

fn compression_suite(cfg: &PerfConfig, nranks: usize, variants: &[Variant]) -> Suite {
    let iters = cfg.compress_iters();
    let streams: Vec<Vec<TraceNode>> = (0..nranks)
        .map(|r| synth_stream(r, nranks, iters))
        .collect();
    let mut times = [0u64; 2];
    for &v in variants {
        let t = time_median(cfg.warmup(), cfg.reps(), || {
            compress_once(&streams, v.strategy())
        });
        times[(v == Variant::Baseline) as usize] = t;
    }
    let (current_ns, baseline_ns) = fill_missing(times, variants);
    Suite {
        name: format!("compress_r{nranks}"),
        kind: "compression",
        ranks: nranks,
        current_ns,
        baseline_ns,
        speedup: ratio(baseline_ns, current_ns),
        warm_ns: None,
        baseline_warm_ns: None,
        threads: None,
        merge_stats: None,
        stream_stats: None,
        peak_rss_kb: None,
        sim: None,
        interp_ratio: None,
    }
}

/// In `--baseline` mode only one leg is measured; mirror it into both
/// fields so the schema stays stable (speedup degenerates to 1.0).
fn fill_missing(times: [u64; 2], variants: &[Variant]) -> (u64, u64) {
    let (mut current, mut baseline) = (times[0], times[1]);
    if !variants.contains(&Variant::Current) {
        current = baseline;
    }
    if !variants.contains(&Variant::Baseline) {
        baseline = current;
    }
    (current, baseline)
}

fn ratio(baseline_ns: u64, current_ns: u64) -> f64 {
    if current_ns == 0 {
        1.0
    } else {
        baseline_ns as f64 / current_ns as f64
    }
}

/// One full pipeline pass: trace (or cache load) → generate → execute
/// under an mpiP hook. The cache key decides cold vs warm. Returns the
/// counts of the generated program's run.
fn pipeline_once(
    app: &'static App,
    params: AppParams,
    variant: Variant,
    cache: &TraceCache,
    key: u64,
) -> Result<SimCounts, String> {
    let n = PIPELINE_RANKS;
    let trace = match cache.load(key) {
        Some(hit) => hit.trace,
        None => {
            let run = app.run;
            let world = World::new(n)
                .network(network::ideal())
                .op_batching(variant.batching());
            let traced =
                scalatrace::trace_world_with_strategy(world, n, variant.strategy(), move |ctx| {
                    run(ctx, &params)
                })
                .map_err(|e| format!("{}: trace failed: {e}", app.name))?;
            cache
                .store(key, &traced.trace, traced.report.total_time, &[])
                .map_err(|e| format!("{}: cache store failed: {e}", app.name))?;
            traced.trace
        }
    };
    let generated = benchgen::generate(&trace, &benchgen::GenOptions::default())
        .map_err(|e| format!("{}: generation failed: {e}", app.name))?;
    let report = execute_profiled(app, &Arc::new(generated.program), variant)?;
    Ok(SimCounts {
        ops: report.stats.operations,
        crossings: report.crossings,
    })
}

/// Execute a generated program under an mpiP hook, as the pipeline's last
/// stage does.
fn execute_profiled(app: &App, prog: &Arc<Program>, variant: Variant) -> Result<RunReport, String> {
    let p = Arc::clone(prog);
    let (report, hooks) = World::new(PIPELINE_RANKS)
        .network(network::ideal())
        .op_batching(variant.batching())
        .run_hooked(|_| MpiP::new(), move |ctx| run_rank(ctx, &p))
        .map_err(|e| format!("{}: execution failed: {e}", app.name))?;
    black_box(MpiP::merge_all(hooks.iter()).total_calls());
    Ok(report)
}

fn pipeline_params(cfg: &PerfConfig) -> AppParams {
    AppParams {
        class: Class::S,
        iterations: Some(cfg.pipeline_iters()),
        compute_scale: 1.0,
    }
}

/// Host time of the generated program's run under the mpiP hook over that
/// of a plain run of the application. The two legs alternate rep by rep so
/// that both see the same machine speed.
fn interp_ratio(cfg: &PerfConfig, app: &'static App) -> Result<f64, String> {
    let n = PIPELINE_RANKS;
    let params = pipeline_params(cfg);
    let run = app.run;
    let world = || World::new(n).network(network::ideal());
    let traced = scalatrace::trace_world(world(), n, move |ctx| run(ctx, &params))
        .map_err(|e| format!("{}: trace failed: {e}", app.name))?;
    let generated = benchgen::generate(&traced.trace, &benchgen::GenOptions::default())
        .map_err(|e| format!("{}: generation failed: {e}", app.name))?;
    let prog = Arc::new(generated.program);
    let (mut app_ns, mut interp_ns) = (Vec::new(), Vec::new());
    for rep in 0..cfg.warmup() + 3 * cfg.reps() {
        let t0 = Instant::now();
        let report = world()
            .run(move |ctx| run(ctx, &params))
            .map_err(|e| format!("{}: plain run failed: {e}", app.name))?;
        black_box(report.total_time);
        let t1 = Instant::now();
        execute_profiled(app, &prog, Variant::Current)?;
        if rep >= cfg.warmup() {
            app_ns.push((t1 - t0).as_nanos() as u64);
            interp_ns.push(t1.elapsed().as_nanos() as u64);
        }
    }
    Ok(ratio(median(interp_ns), median(app_ns)))
}

fn pipeline_key(app: &str, variant: Variant, phase: &str, rep: usize) -> u64 {
    hash::hash_pairs(&[
        ("suite".into(), "perf-pipeline".into()),
        ("app".into(), app.into()),
        ("ranks".into(), PIPELINE_RANKS.to_string()),
        ("variant".into(), variant.label().into()),
        ("phase".into(), phase.into()),
        ("rep".into(), rep.to_string()),
    ])
}

/// Cold and warm medians for one (app, variant): each rep uses a distinct
/// cache key, so the first pass is a guaranteed miss (trace + store) and
/// the second a guaranteed hit (load). The counts are the last pass's
/// (they do not vary from pass to pass).
fn pipeline_medians(
    cfg: &PerfConfig,
    app: &'static App,
    variant: Variant,
    cache: &TraceCache,
) -> Result<(u64, u64, Option<SimCounts>), String> {
    let params = pipeline_params(cfg);
    for w in 0..cfg.warmup() {
        let key = pipeline_key(app.name, variant, "warmup", w);
        pipeline_once(app, params, variant, cache, key)?;
        pipeline_once(app, params, variant, cache, key)?;
    }
    let mut cold = Vec::with_capacity(cfg.reps());
    let mut warm = Vec::with_capacity(cfg.reps());
    let mut counts = None;
    for rep in 0..cfg.reps() {
        let key = pipeline_key(app.name, variant, "rep", rep);
        let t0 = Instant::now();
        pipeline_once(app, params, variant, cache, key)?;
        cold.push(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        counts = Some(pipeline_once(app, params, variant, cache, key)?);
        warm.push(t1.elapsed().as_nanos() as u64);
    }
    Ok((median(cold), median(warm), counts))
}

fn pipeline_suite(
    cfg: &PerfConfig,
    app: &'static App,
    variants: &[Variant],
    cache: &TraceCache,
) -> Result<Suite, String> {
    let mut cold = [0u64; 2];
    let mut warm = [0u64; 2];
    let mut sim = None;
    for &v in variants {
        let (c, w, counts) = pipeline_medians(cfg, app, v, cache)?;
        cold[(v == Variant::Baseline) as usize] = c;
        warm[(v == Variant::Baseline) as usize] = w;
        if v == Variant::Current {
            sim = counts;
        }
    }
    let (current_ns, baseline_ns) = fill_missing(cold, variants);
    let (warm_ns, baseline_warm_ns) = fill_missing(warm, variants);
    let interp_ratio = variants
        .contains(&Variant::Current)
        .then(|| interp_ratio(cfg, app))
        .transpose()?;
    Ok(Suite {
        name: format!("pipeline_{}_r{PIPELINE_RANKS}", app.name),
        kind: "pipeline",
        ranks: PIPELINE_RANKS,
        current_ns,
        baseline_ns,
        speedup: ratio(baseline_ns, current_ns),
        warm_ns: Some(warm_ns),
        baseline_warm_ns: Some(baseline_warm_ns),
        threads: None,
        merge_stats: None,
        stream_stats: None,
        peak_rss_kb: None,
        sim,
        interp_ratio,
    })
}

/// Streaming-capture suite: trace the ring app under a bounded resident
/// budget (`current`: segments sealed to disk mid-run) versus the seed
/// unbounded in-memory capture (`baseline`). The speedup is the streaming
/// overhead ratio (expected near or below 1.0 — the suite exists to keep
/// that overhead, and the capture counters, on the measured record).
fn stream_suite(cfg: &PerfConfig, variants: &[Variant]) -> Result<Suite, String> {
    let app = registry::lookup("ring").expect("ring is registered");
    let params = AppParams {
        class: Class::S,
        iterations: Some(cfg.pipeline_iters()),
        compute_scale: 1.0,
    };
    let run_fn = app.run;
    let body = move |ctx: &mut mpisim::Ctx| run_fn(ctx, &params);
    let dir = cfg.cache_dir.join("perf-stream");
    let stream_cfg = StreamConfig::new(&dir, STREAM_BUDGET).with_max_window(1);
    let mut times = [0u64; 2];
    for &v in variants {
        let t = match v {
            Variant::Current => time_median(cfg.warmup(), cfg.reps(), || {
                let _ = std::fs::remove_dir_all(&dir);
                let streamed = scalatrace::trace_world_streamed(
                    World::new(STREAM_RANKS).network(network::ideal()),
                    STREAM_RANKS,
                    &stream_cfg,
                    body,
                )
                .expect("streamed capture");
                streamed.run.trace.node_count()
            }),
            Variant::Baseline => time_median(cfg.warmup(), cfg.reps(), || {
                let traced = scalatrace::trace_world_with_strategy(
                    World::new(STREAM_RANKS).network(network::ideal()),
                    STREAM_RANKS,
                    FoldStrategy::default(),
                    body,
                )
                .expect("unbounded capture");
                traced.trace.node_count()
            }),
        };
        times[(v == Variant::Baseline) as usize] = t;
    }
    // The counters are deterministic; one untimed pass records them.
    let stream_stats = if variants.contains(&Variant::Current) {
        let _ = std::fs::remove_dir_all(&dir);
        let streamed = scalatrace::trace_world_streamed(
            World::new(STREAM_RANKS).network(network::ideal()),
            STREAM_RANKS,
            &stream_cfg,
            body,
        )
        .map_err(|e| format!("stream suite capture failed: {e}"))?;
        let mut counters = StreamCounters::default();
        for c in &streamed.counters {
            counters.absorb(c);
        }
        if counters.peak_resident > stream_cfg.budget() {
            return Err(format!(
                "stream suite broke its memory bound: peak {} resident nodes under budget {}",
                counters.peak_resident,
                stream_cfg.budget()
            ));
        }
        Some(StreamSuiteStats {
            budget: stream_cfg.budget(),
            counters,
        })
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(&dir);
    let (current_ns, baseline_ns) = fill_missing(times, variants);
    Ok(Suite {
        name: format!("stream_capture_r{STREAM_RANKS}"),
        kind: "stream",
        ranks: STREAM_RANKS,
        current_ns,
        baseline_ns,
        speedup: ratio(baseline_ns, current_ns),
        warm_ns: None,
        baseline_warm_ns: None,
        threads: None,
        merge_stats: None,
        stream_stats,
        peak_rss_kb: None,
        sim: None,
        interp_ratio: None,
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
    let variants: &[Variant] = if cfg.baseline_only {
        &[Variant::Baseline]
    } else {
        &[Variant::Current, Variant::Baseline]
    };
    let mut suites = Vec::new();

    for &n in &COMPRESS_RANKS {
        eprintln!("perf: compression microbench at {n} ranks ...");
        suites.push(compression_suite(cfg, n, variants));
    }

    for &n in &MERGE_RANKS {
        eprintln!(
            "perf: merge reduction at {n} ranks (threads {}) ...",
            cfg.threads()
        );
        let streams = (0..n).map(|r| merge_stream(r, n)).collect();
        suites.push(merge_suite_over(
            cfg,
            format!("merge_r{n}"),
            n,
            variants,
            streams,
        ));
    }

    if !cfg.baseline_only {
        // The large-P rows measure the current algorithm only — the seed
        // pairwise strategy has no notion of pre-collapsed multi-rank
        // streams — and the interior reduction level only: a fixed number
        // of block streams whose symbolic parameters cover the whole
        // world, so the scaling gates (wall and peak resident vs the
        // small-P rows) isolate the merge's own cost from the Ω(P) leaf
        // read that [`MERGE_RANKS`] already tracks.
        for &n in &MERGE_LARGE_RANKS {
            eprintln!(
                "perf: large-P interior merge at {n} ranks ({MERGE_LARGE_BLOCKS} blocks, \
                 class-collapsed only, threads {}) ...",
                cfg.threads()
            );
            let streams = (0..MERGE_LARGE_BLOCKS)
                .map(|b| block_stream(b, n))
                .collect();
            suites.push(merge_suite_over(
                cfg,
                format!("merge_r{n}"),
                n,
                &[Variant::Current],
                streams,
            ));
        }
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
            variants,
            streams,
        ));
    }

    eprintln!("perf: streaming capture at {STREAM_RANKS} ranks (budget {STREAM_BUDGET} nodes) ...");
    suites.push(stream_suite(cfg, variants)?);

    // A dedicated subdirectory keeps perf entries (whose keys embed rep
    // indices) out of the campaign's cache namespace; wiping it guarantees
    // the cold legs are real misses even across invocations.
    let perf_cache_dir = cfg.cache_dir.join("perf");
    let _ = std::fs::remove_dir_all(&perf_cache_dir);
    let cache = TraceCache::open(&perf_cache_dir)
        .map_err(|e| format!("cannot open cache {}: {e}", perf_cache_dir.display()))?;

    let apps = pipeline_apps(cfg);
    let results: Vec<Result<Suite, String>> = if cfg.parallel_suites && cfg.threads() > 1 {
        eprintln!(
            "perf: pipeline suites for {} apps on {} workers ...",
            apps.len(),
            cfg.threads()
        );
        par::par_map(cfg.threads(), apps, |app| {
            pipeline_suite(cfg, app, variants, &cache)
        })
    } else {
        apps.into_iter()
            .map(|app| {
                eprintln!("perf: pipeline {} at {PIPELINE_RANKS} ranks ...", app.name);
                pipeline_suite(cfg, app, variants, &cache)
            })
            .collect()
    };
    let mut total = [0u64; 2];
    for suite in results {
        let suite = suite?;
        total[0] += suite.current_ns;
        total[1] += suite.baseline_ns;
        suites.push(suite);
    }
    suites.push(Suite {
        name: "pipeline_registry".into(),
        kind: "aggregate",
        ranks: PIPELINE_RANKS,
        current_ns: total[0],
        baseline_ns: total[1],
        speedup: ratio(total[1], total[0]),
        warm_ns: None,
        baseline_warm_ns: None,
        threads: None,
        merge_stats: None,
        stream_stats: None,
        peak_rss_kb: None,
        sim: None,
        interp_ratio: None,
    });

    Ok(PerfReport {
        mode: if cfg.baseline_only {
            "baseline-only".into()
        } else if cfg.smoke {
            "smoke".into()
        } else {
            "full".into()
        },
        reps: cfg.reps(),
        warmup: cfg.warmup(),
        threads: cfg.threads(),
        cores: par::available_cores(),
        suites,
    })
}

impl Suite {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.into())),
            ("ranks".into(), Json::Num(self.ranks as f64)),
            ("current_ns".into(), Json::Num(self.current_ns as f64)),
            ("baseline_ns".into(), Json::Num(self.baseline_ns as f64)),
            ("speedup".into(), Json::Num(round3(self.speedup))),
        ];
        if let Some(w) = self.warm_ns {
            obj.push(("warm_ns".into(), Json::Num(w as f64)));
        }
        if let Some(w) = self.baseline_warm_ns {
            obj.push(("baseline_warm_ns".into(), Json::Num(w as f64)));
        }
        if let Some(t) = self.threads {
            obj.push(("threads".into(), Json::Num(t as f64)));
        }
        if let Some(st) = &self.merge_stats {
            // Additive fields (schema stays commspec-perf/v2): the collapse
            // phase counters, so a committed merge row explains itself.
            obj.push(("classes".into(), Json::Num(st.classes as f64)));
            obj.push(("rep_merges".into(), Json::Num(st.rep_merges as f64)));
            obj.push(("lcs_cells".into(), Json::Num(st.lcs_cells as f64)));
            obj.push(("zip_merges".into(), Json::Num(st.zip_merges as f64)));
            let trim_rate = if st.pair_nodes == 0 {
                0.0
            } else {
                st.anchor_trimmed as f64 / st.pair_nodes as f64
            };
            obj.push(("anchor_trim_rate".into(), Json::Num(round3(trim_rate))));
        }
        if let Some(kb) = self.peak_rss_kb {
            // Additive field (schema stays commspec-perf/v2): the merge's
            // peak-resident delta, so the memory-vs-P claim is committed.
            obj.push(("peak_rss_kb".into(), Json::Num(kb as f64)));
        }
        if let Some(sim) = self.sim {
            // Additive fields (schema stays commspec-perf/v2): exact counts
            // of the generated program's run.
            obj.push(("sim_ops".into(), Json::Num(sim.ops as f64)));
            obj.push(("crossings".into(), Json::Num(sim.crossings as f64)));
        }
        if let Some(r) = self.interp_ratio {
            obj.push(("interp_ratio".into(), Json::Num(round3(r))));
        }
        if let Some(st) = &self.stream_stats {
            // Additive fields (schema stays commspec-perf/v2): the capture
            // counters, so the committed row shows the memory bound held
            // (`peak_resident <= budget`) and at what seal/reload cost.
            obj.push(("budget".into(), Json::Num(st.budget as f64)));
            obj.push((
                "peak_resident".into(),
                Json::Num(st.counters.peak_resident as f64),
            ));
            obj.push((
                "segments_sealed".into(),
                Json::Num(st.counters.segments_sealed as f64),
            ));
            obj.push((
                "segments_reloaded".into(),
                Json::Num(st.counters.segments_reloaded as f64),
            ));
            obj.push(("stream_events".into(), Json::Num(st.counters.events as f64)));
            obj.push((
                "seal_errors".into(),
                Json::Num(st.counters.seal_errors as f64),
            ));
        }
        Json::Obj(obj)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

impl PerfReport {
    /// The stable on-disk schema (`commspec-perf/v2`). v2 adds the
    /// top-level `threads` (pool width of the run) and `cores` (hardware
    /// threads of the measuring host), plus a per-suite `threads` field on
    /// scaling suites; everything a v1 reader consumed is unchanged, and
    /// the `--check` gate still reads committed v1 files (absent `threads`
    /// simply means "no width constraint").
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("commspec-perf/v2".into())),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("warmup".into(), Json::Num(self.warmup as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("cores".into(), Json::Num(self.cores as f64)),
            (
                "suites".into(),
                Json::Arr(self.suites.iter().map(Suite::to_json).collect()),
            ),
        ])
    }

    /// Human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<24} {:>6} {:>4} {:>13} {:>13} {:>13} {:>8} {:>14} {:>10}\n",
            "suite",
            "ranks",
            "thr",
            "current(ms)",
            "baseline(ms)",
            "warm(ms)",
            "speedup",
            "crossings/ops",
            "interp/app"
        );
        for s in &self.suites {
            let ms = |ns: u64| ns as f64 / 1e6;
            out.push_str(&format!(
                "{:<24} {:>6} {:>4} {:>13.2} {:>13.2} {:>13} {:>7.2}x {:>14} {:>10}\n",
                s.name,
                s.ranks,
                match s.threads {
                    Some(t) => t.to_string(),
                    None => "-".into(),
                },
                ms(s.current_ns),
                ms(s.baseline_ns),
                match s.warm_ns {
                    Some(w) => format!("{:.2}", ms(w)),
                    None => "-".into(),
                },
                s.speedup,
                match s.sim {
                    Some(sim) => format!("{}/{}", sim.crossings, sim.ops),
                    None => "-".into(),
                },
                match s.interp_ratio {
                    Some(r) => format!("{r:.2}x"),
                    None => "-".into(),
                },
            ));
        }
        out
    }
}

/// Compare a fresh report against a committed baseline JSON: every suite
/// present in both must keep its speedup within [`CHECK_TOLERANCE`] of the
/// committed value. Speedups are ratios of two timings from the same
/// machine and run, so — unlike absolute nanoseconds — they transfer
/// across hosts.
pub fn check_regressions(new: &PerfReport, committed: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(suites) = committed.get("suites").and_then(Json::as_arr) else {
        return vec!["committed baseline has no `suites` array".into()];
    };
    for suite in suites {
        let Some(name) = suite.get("name").and_then(Json::as_str) else {
            errors.push("committed suite without a name".into());
            continue;
        };
        let Some(old_speedup) = suite.get("speedup").and_then(Json::as_num) else {
            errors.push(format!("committed suite {name} has no speedup"));
            continue;
        };
        if suite.get("kind").and_then(Json::as_str).map(String::as_str) == Some("aggregate") {
            // Aggregates sum over whatever suites the mode ran; a smoke
            // run's aggregate covers a different app set than the committed
            // full run's, so only the per-suite rows are gated.
            continue;
        }
        let Some(fresh) = new.suites.iter().find(|s| s.name == *name) else {
            // Smoke mode runs a subset of the committed full suite.
            continue;
        };
        // A scaling suite's speedup is only reproducible at the pool width
        // it was committed under: a run at a different `--threads` (or on a
        // host with fewer cores than the committed width) measures a
        // different quantity, so width-mismatched suites are skipped, not
        // compared. Committed v1 files carry no `threads` field and are
        // gated unconditionally, as before.
        if let Some(committed_threads) = suite.get("threads").and_then(Json::as_num) {
            if fresh.threads.map(|t| t as f64) != Some(committed_threads) {
                continue;
            }
        }
        // The crossing count repeats exactly, so any rise is a change in how
        // often rank threads and the engine synchronise, not noise.
        let old_crossings = suite.get("crossings").and_then(Json::as_num);
        if let (Some(old), Some(sim)) = (old_crossings, fresh.sim) {
            if sim.crossings as f64 > old {
                errors.push(format!(
                    "suite {name}: {} rank/engine crossings, committed {old}",
                    sim.crossings
                ));
            }
        }
        // Both legs of the ratio come from the same run on the same host,
        // so it transfers across machines like a speedup does.
        let old_ratio = suite.get("interp_ratio").and_then(Json::as_num);
        if let (Some(old), Some(new)) = (old_ratio, fresh.interp_ratio) {
            if new > old * (1.0 + CHECK_TOLERANCE) {
                errors.push(format!(
                    "suite {name}: the generated program costs {new:.2}x its application's \
                     run, more than {:.0}% above the committed {old:.2}x",
                    CHECK_TOLERANCE * 100.0,
                ));
            }
        }
        let floor = old_speedup * (1.0 - CHECK_TOLERANCE);
        if fresh.speedup < floor {
            errors.push(format!(
                "suite {name} regressed: speedup {:.2}x is more than {:.0}% below the \
                 committed {:.2}x",
                fresh.speedup,
                CHECK_TOLERANCE * 100.0,
                old_speedup,
            ));
        }
    }
    errors.extend(check_merge_scaling(new));
    errors
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
            let limit = small.current_ns as f64 * LARGE_MERGE_WALL_RATIO;
            if large.current_ns as f64 > limit {
                errors.push(format!(
                    "merge wall scales with P: {name} took {:.2}ms, more than {:.1}x \
                     merge_r256's {:.2}ms",
                    large.current_ns as f64 / 1e6,
                    LARGE_MERGE_WALL_RATIO,
                    small.current_ns as f64 / 1e6,
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
        let stream = synth_stream(0, 8, 30);
        let fold = |strategy| {
            let mut c = scalatrace::TailCompressor::with_strategy(DEFAULT_MAX_WINDOW, strategy);
            for n in &stream {
                c.push(n.clone());
            }
            c.into_nodes()
        };
        let fp = fold(FoldStrategy::Fingerprint);
        let st = fold(FoldStrategy::Structural);
        assert_eq!(fp, st);
        assert!(
            fp.len() < stream.len() / 10,
            "stream must actually fold ({} -> {})",
            stream.len(),
            fp.len()
        );
    }

    #[test]
    fn pipeline_cold_then_warm_hits_the_cache() {
        let dir = std::env::temp_dir().join(format!("commspec-perf-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TraceCache::open(&dir).unwrap();
        let app = registry::lookup("ring").unwrap();
        let params = AppParams::quick();
        let key = pipeline_key("ring", Variant::Current, "test", 0);
        assert!(cache.load(key).is_none());
        pipeline_once(app, params, Variant::Current, &cache, key).unwrap();
        assert!(cache.load(key).is_some(), "cold pass fills the cache");
        pipeline_once(app, params, Variant::Current, &cache, key).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn suite(name: &str, kind: &'static str, speedup: f64, threads: Option<usize>) -> Suite {
        Suite {
            name: name.into(),
            kind,
            ranks: 64,
            current_ns: 1_000,
            baseline_ns: (1_000.0 * speedup) as u64,
            speedup,
            warm_ns: None,
            baseline_warm_ns: None,
            threads,
            merge_stats: None,
            stream_stats: None,
            peak_rss_kb: None,
            sim: None,
            interp_ratio: None,
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

    #[test]
    fn report_json_roundtrips_and_checks() {
        let report = report(vec![suite("compress_r64", "compression", 2.5, None)]);
        let text = report.to_json().to_string();
        let parsed = parse_json(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(&"commspec-perf/v2".to_string())
        );
        assert_eq!(parsed.get("threads").and_then(Json::as_num), Some(8.0));
        assert_eq!(parsed.get("cores").and_then(Json::as_num), Some(8.0));
        assert!(check_regressions(&report, &parsed).is_empty());

        // A fresh run whose speedup collapsed must fail the check.
        let mut bad = report.clone();
        bad.suites[0].speedup = 1.2;
        let errors = check_regressions(&bad, &parsed);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("compress_r64"), "{}", errors[0]);

        // Suites missing from the fresh (smoke) run are not an error.
        let subset = PerfReport {
            suites: Vec::new(),
            ..report.clone()
        };
        assert!(check_regressions(&subset, &parsed).is_empty());
    }

    #[test]
    fn check_still_reads_v1_baselines() {
        // A committed v1 file: no schema bump, no threads fields anywhere.
        let v1 = r#"{
            "schema": "commspec-perf/v1",
            "mode": "full", "reps": 5, "warmup": 2,
            "suites": [
                {"name": "compress_r64", "kind": "compression", "ranks": 64,
                 "current_ns": 1000, "baseline_ns": 5500, "speedup": 5.5}
            ]
        }"#;
        let parsed = parse_json(v1).unwrap();
        let good = report(vec![suite("compress_r64", "compression", 5.4, None)]);
        assert!(check_regressions(&good, &parsed).is_empty());
        let bad = report(vec![suite("compress_r64", "compression", 1.0, None)]);
        let errors = check_regressions(&bad, &parsed);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn check_skips_suites_measured_at_a_different_pool_width() {
        // Committed: merge_r256 measured at threads=8. A fresh run at
        // threads=1 (or 4) measures a different quantity and is skipped; a
        // fresh run at the same width is gated.
        let committed = parse_json(
            &report(vec![suite("merge_r256", "merge", 4.0, Some(8))])
                .to_json()
                .to_string(),
        )
        .unwrap();
        let narrower = report(vec![suite("merge_r256", "merge", 1.0, Some(1))]);
        assert!(check_regressions(&narrower, &committed).is_empty());
        let same_width_regressed = report(vec![suite("merge_r256", "merge", 1.0, Some(8))]);
        assert_eq!(
            check_regressions(&same_width_regressed, &committed).len(),
            1
        );
        let same_width_ok = report(vec![suite("merge_r256", "merge", 3.9, Some(8))]);
        assert!(check_regressions(&same_width_ok, &committed).is_empty());
    }

    #[test]
    fn check_gates_the_crossing_count_exactly() {
        let row = |crossings| {
            let mut s = suite("pipeline_lu_r4", "pipeline", 3.0, None);
            s.sim = Some(SimCounts {
                ops: 1204,
                crossings,
            });
            s
        };
        let committed = parse_json(&report(vec![row(12)]).to_json().to_string()).unwrap();
        assert!(check_regressions(&report(vec![row(12)]), &committed).is_empty());
        assert!(check_regressions(&report(vec![row(8)]), &committed).is_empty());
        let errors = check_regressions(&report(vec![row(13)]), &committed);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(
            errors[0].contains("13 rank/engine crossings"),
            "{}",
            errors[0]
        );
        // A baseline committed before the counter existed gates nothing.
        let old = report(vec![suite("pipeline_lu_r4", "pipeline", 3.0, None)]);
        let old = parse_json(&old.to_json().to_string()).unwrap();
        assert!(check_regressions(&report(vec![row(999)]), &old).is_empty());
    }

    #[test]
    fn check_gates_the_interpreter_ratio_within_tolerance() {
        let row = |ratio| {
            let mut s = suite("pipeline_lu_r4", "pipeline", 3.0, None);
            s.interp_ratio = Some(ratio);
            s
        };
        let committed = parse_json(&report(vec![row(1.2)]).to_json().to_string()).unwrap();
        assert!(check_regressions(&report(vec![row(1.2)]), &committed).is_empty());
        assert!(check_regressions(&report(vec![row(0.9)]), &committed).is_empty());
        assert!(check_regressions(&report(vec![row(1.49)]), &committed).is_empty());
        let errors = check_regressions(&report(vec![row(1.51)]), &committed);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("1.51x its application"), "{}", errors[0]);
        // A baseline committed before the ratio existed gates nothing.
        let old = report(vec![suite("pipeline_lu_r4", "pipeline", 3.0, None)]);
        let old = parse_json(&old.to_json().to_string()).unwrap();
        assert!(check_regressions(&report(vec![row(9.0)]), &old).is_empty());
    }

    #[test]
    fn merge_wall_scaling_gate_trips_on_p_dependent_cost() {
        let row = |name: &str, ns: u64| {
            let mut s = suite(name, "merge", 4.0, Some(8));
            s.current_ns = ns;
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
            let mut s = suite(name, "merge", 4.0, Some(8));
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
        let mut s = suite("merge_r64", "merge", 4.0, Some(1));
        s.merge_stats = Some(MergeStats {
            members: 64,
            classes: 1,
            collisions: 0,
            rep_merges: 0,
            zip_merges: 0,
            lcs_cells: 0,
            anchor_trimmed: 12,
            pair_nodes: 48,
        });
        let json = parse_json(&s.to_json().to_string()).unwrap();
        assert_eq!(json.get("classes").and_then(Json::as_num), Some(1.0));
        assert_eq!(json.get("rep_merges").and_then(Json::as_num), Some(0.0));
        assert_eq!(json.get("lcs_cells").and_then(Json::as_num), Some(0.0));
        assert_eq!(
            json.get("anchor_trim_rate").and_then(Json::as_num),
            Some(0.25)
        );
        // The counters are additive: a reader of the committed schema that
        // only knows v2's original fields still parses the row.
        assert_eq!(json.get("speedup").and_then(Json::as_num), Some(4.0));
        // And the gate itself ignores them.
        let committed = parse_json(
            &report(vec![suite("merge_r64", "merge", 4.0, Some(1))])
                .to_json()
                .to_string(),
        )
        .unwrap();
        let fresh = report(vec![s]);
        assert!(check_regressions(&fresh, &committed).is_empty());
    }

    #[test]
    fn stream_suite_json_carries_capture_counters() {
        let mut s = suite("stream_capture_r8", "stream", 0.9, None);
        s.stream_stats = Some(StreamSuiteStats {
            budget: 192,
            counters: StreamCounters {
                events: 2408,
                peak_resident: 190,
                segments_sealed: 72,
                segments_reloaded: 0,
                seal_errors: 0,
            },
        });
        let json = parse_json(&s.to_json().to_string()).unwrap();
        assert_eq!(json.get("budget").and_then(Json::as_num), Some(192.0));
        assert_eq!(
            json.get("peak_resident").and_then(Json::as_num),
            Some(190.0)
        );
        assert_eq!(
            json.get("segments_sealed").and_then(Json::as_num),
            Some(72.0)
        );
        assert_eq!(
            json.get("segments_reloaded").and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(
            json.get("stream_events").and_then(Json::as_num),
            Some(2408.0)
        );
        assert_eq!(json.get("seal_errors").and_then(Json::as_num), Some(0.0));
        // Additive: the original v2 fields are untouched and a committed
        // baseline without the stream suite simply does not gate it.
        assert_eq!(json.get("speedup").and_then(Json::as_num), Some(0.9));
        let committed = parse_json(
            &report(vec![suite("merge_r64", "merge", 4.0, Some(1))])
                .to_json()
                .to_string(),
        )
        .unwrap();
        let fresh = report(vec![s]);
        assert!(check_regressions(&fresh, &committed).is_empty());
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
        assert_eq!(merged, pairwise, "worst case still matches the seed path");
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
